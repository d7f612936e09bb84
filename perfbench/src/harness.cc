#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <random>

#include "nand/config.h"

namespace pb {

namespace {

constexpr std::size_t kMaxViolationsKept = 8;

/** Checks every delivered page of one streamed request. */
class CheckSink final : public core::ResultSink
{
  public:
    CheckSink(Run &run, std::uint64_t req, PageCheck check)
        : run_(run), req_(req), check_(std::move(check))
    {}

    void consume(const core::ResultChunk &chunk) override
    {
        Tracer::Scope span(run_.tracer, SpanKind::Sink, req_);
        ++run_.pagesDelivered;
        const std::size_t words = (chunk.bits + 63) / 64;
        const std::uint64_t *got = chunk.page.words().data();
        const unsigned tail = chunk.bits % 64;
        if (tail != 0 || run_.corruptArmed) {
            copy_.assign(got, got + words);
            if (tail != 0)
                copy_.back() &= (std::uint64_t{1} << tail) - 1;
            if (run_.corruptArmed) {
                copy_.front() ^= 1;
                run_.corruptArmed = false;
            }
            got = copy_.data();
        }
        // Position-sensitive page sums, folded into the run digest in
        // delivery order (cross-worker-count identity certificate).
        std::uint64_t sum = 0;
        std::uint64_t mixed = 0;
        for (std::size_t i = 0; i < words; ++i) {
            sum += got[i];
            mixed ^= got[i] + i;
        }
        run_.digest = hash2(run_.digest ^ chunk.index, sum ^ (mixed << 1));
        bool ok;
        {
            Tracer::Scope check(run_.tracer, SpanKind::Check, req_);
            ok = check_(chunk.index, got, words);
        }
        if (!ok)
            run_.mismatch(req_, "delivered page differs from reference");
    }

  private:
    Run &run_;
    std::uint64_t req_;
    PageCheck check_;
    std::vector<std::uint64_t> copy_;
};

} // namespace

const char *
className(int cls)
{
    static const char *const names[kClasses] = {"read", "write", "compute"};
    return names[cls];
}

Run::Run(const Options &o, Tracer &t) : opt(o), tracer(t)
{
    // Shortest service a request of each class can have on the
    // simulated device: one sense for a read, one ESP program for a
    // write (the drive's default mode), both for a compute.
    const nand::Timings tm{};
    const Time sense = std::min(tm.tReadSlc, tm.tMwsFixed);
    min_service_[kRead] = sense;
    min_service_[kWrite] = tm.tProgEsp;
    min_service_[kCompute] = sense + tm.tProgEsp;
}

void
Run::waitAll(Drive &drive)
{
    Tracer::Scope span(tracer, SpanKind::WaitAll);
    drive.waitAll();
}

Time
Run::advanceTo(Drive &drive, Time t)
{
    Tracer::Scope span(tracer, SpanKind::AdvanceTo);
    return drive.advanceTo(t);
}

void
Run::trim(Drive &drive, core::VectorId id, std::uint64_t req)
{
    Tracer::Scope span(tracer, SpanKind::Trim, req);
    drive.trimVector(id);
}

std::function<void(const Outcome &)>
Run::hook(int cls, std::uint64_t req,
          std::function<void(const Outcome &)> then)
{
    return [this, cls, req, then = std::move(then)](const Outcome &oc) {
        Tracer::Scope span(tracer, SpanKind::Outcome, req);
        ++completed;
        if (oc.completed < oc.admitted || oc.admitted < oc.arrival ||
            oc.completed - oc.admitted < min_service_[cls]) {
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "%s request %llu: timestamps out of order or "
                          "served in %llu ns, below the device minimum "
                          "%llu ns",
                          className(cls),
                          static_cast<unsigned long long>(req),
                          static_cast<unsigned long long>(oc.completed -
                                                          oc.admitted),
                          static_cast<unsigned long long>(
                              min_service_[cls]));
            violate(buf);
        }
        if (inWindow)
            samples[cls].push_back(oc);
        if (then)
            then(oc);
    };
}

void
Run::addStats(int cls, const Drive::ReadStats &st)
{
    if (cls == kRead)
        statsResultPages += st.resultPages;
    if (!inWindow)
        return;
    nand.senses += st.senses;
    nand.mwsCommands += st.mwsCommands;
    nand.latchXors += st.latchXors;
    nand.pageReads += st.pageReads;
    if (cls == kRead) {
        nand.resultPages += st.resultPages;
        nand.readSenses += st.senses;
    }
    nand.busy += st.nandTime;
    nand.energyJ += st.nandEnergyJ;
    nand.streamPeakPages =
        std::max(nand.streamPeakPages, st.streamPeakPages);
}

std::unique_ptr<core::ResultSink>
Run::checkSink(std::uint64_t req, PageCheck check)
{
    return std::make_unique<CheckSink>(*this, req, std::move(check));
}

void
Run::violate(const std::string &what)
{
    if (violations.size() < kMaxViolationsKept)
        violations.push_back(what);
    else if (violations.size() == kMaxViolationsKept)
        violations.push_back("... further violations omitted");
}

void
Run::mismatch(std::uint64_t req, const char *what)
{
    if (req == last_failed_req_)
        return;
    last_failed_req_ = req;
    ++failed;
    char buf[128];
    std::snprintf(buf, sizeof buf, "request %llu: %s",
                  static_cast<unsigned long long>(req), what);
    std::fprintf(stderr, "perfbench: %s\n", buf);
}

void
randomPageWords(std::uint64_t seed, std::uint64_t *out, std::size_t words)
{
    std::mt19937_64 gen(seed);
    for (std::size_t i = 0; i < words; ++i)
        out[i] = gen();
}

} // namespace pb
