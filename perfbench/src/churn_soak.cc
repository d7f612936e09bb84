/**
 * @file
 * churn_soak: a closed loop on the tiny 2 x 2-die drive.
 *
 * Eight chains each keep one request in flight; a completion submits
 * the chain's next request from inside the outcome hook. The mix is
 * 6:3:1 read/write/compute over single-page churn slots (overwritten or
 * trimmed and rewritten), a packed resident group overwritten out of
 * phase (so GC must relocate live pages), and AND computes over a
 * stable operand pool whose results are trimmed at completion. The
 * schedule is fixed; the seed makes every page image. Every
 * read is checked against the latest image the benchmark submitted for
 * its slot; every fourth compute result is read back and checked
 * against the AND of its operands before it is trimmed.
 */

#include <algorithm>

#include "harness.h"
#include "nand/page_store.h"

namespace pb {
namespace {

constexpr std::uint32_t kChannels = 2;
constexpr std::uint32_t kDies = 2;
constexpr std::uint32_t kDefaultWorkers = 1;
constexpr std::uint32_t kInflight = 8;
constexpr std::uint32_t kSlots = 16;
constexpr std::uint32_t kResidents = 40;
constexpr std::uint64_t kPoolGroups = 4;
constexpr std::uint64_t kOpsPerRound = 16000;
constexpr std::uint32_t kWindowRounds = 5;
constexpr std::uint64_t kChurnGroupBase = 1000;
constexpr std::uint64_t kResidentGroup = 999;
/** Seed of the request schedule (slot and operand-group choices). The
 *  schedule is fixed so the simulated metrics compare exactly across
 *  seeds; --seed drives every page image. */
constexpr std::uint64_t kSchedule = 0x50A620260808ULL;

using Words = std::shared_ptr<const std::vector<std::uint64_t>>;

/** Request class of op @p n (6:3:1 read:write:compute). */
int
classOfOp(std::uint64_t n)
{
    const std::uint64_t slot = n % 10;
    if (slot == 7)
        return kCompute;
    return (slot == 3 || slot == 5 || slot == 9) ? kWrite : kRead;
}

class ChurnSoak final : public Workload
{
  public:
    explicit ChurnSoak(Run &run) : run_(run) {}

    void setup() override;
    void round(std::uint64_t k) override;
    std::uint32_t windowRounds() const override { return kWindowRounds; }
    void finalChecks() override;
    Drive &drive() override { return *drive_; }

  private:
    struct Chain
    {
        std::unique_ptr<core::ResultSink> sink;
        Drive::ReadStats stats;
        std::uint64_t next = 0;
        core::VectorId scratch = core::kDriveNoVector;
    };

    std::uint32_t home(std::uint64_t g) const
    {
        return static_cast<std::uint32_t>((g * 3) % columns_);
    }
    std::uint32_t slotHome(std::uint32_t s) const
    {
        return static_cast<std::uint32_t>((s * 5 + 1) % columns_);
    }

    /** Procedural page image @p seed plus its reference words. */
    Words image(std::uint64_t seed) const
    {
        Tracer::Scope span(run_.tracer, SpanKind::Check);
        auto w = std::make_shared<std::vector<std::uint64_t>>(words_);
        randomPageWords(seed, w->data(), words_);
        return w;
    }

    core::VectorId writePages(std::uint64_t seed, std::uint64_t pages,
                              const Drive::WriteOptions &wo,
                              const Drive::RequestOptions &ro,
                              std::uint64_t req = 0);
    void runOps(std::uint64_t begin, std::uint64_t end);
    void submitNext(std::uint32_t c);
    void submitRead(std::uint32_t c, std::uint32_t s);
    void submitCompute(std::uint32_t c, std::uint64_t n);

    Run &run_;
    std::unique_ptr<Drive> drive_;
    std::uint32_t columns_ = 0;
    std::size_t words_ = 0;
    std::uint64_t end_ = 0;
    std::vector<Chain> chains_;
    std::vector<core::VectorId> pool_;
    std::vector<Words> pool_img_;
    std::vector<core::VectorId> slot_vec_;
    std::vector<Words> slot_img_;
    std::vector<core::VectorId> resident_vec_;
    std::uint64_t resident_sweep_ = 0;
    std::uint64_t write_counter_ = 0;
};

core::VectorId
ChurnSoak::writePages(std::uint64_t seed, std::uint64_t pages,
                      const Drive::WriteOptions &wo,
                      const Drive::RequestOptions &ro,
                      std::uint64_t req)
{
    Tracer::Scope span(run_.tracer, SpanKind::SubmitWrite, req);
    run_.pagesProgrammed += pages;
    return drive_
        ->submitWritePages(
            [seed](std::uint64_t j) {
                return nand::PageImage::random(hash2(seed, j));
            },
            pages, wo, ro)
        .vector;
}

void
ChurnSoak::setup()
{
    Drive::Config dc;
    dc.channels = kChannels;
    dc.dies = kDies;
    dc.workers = run_.opt.workers ? run_.opt.workers : kDefaultWorkers;
    drive_ = std::make_unique<Drive>(dc);
    columns_ = kChannels * kDies * dc.geometry.planesPerDie;
    words_ = dc.geometry.pageBits() / 64;
    const std::uint64_t seed = run_.opt.seed;

    // Stable compute operands: two co-located single-page vectors per
    // group, never trimmed.
    for (std::uint64_t g = 0; g < kPoolGroups; ++g) {
        for (std::uint64_t v = 0; v < 2; ++v) {
            Drive::WriteOptions wo;
            wo.group = g + 1;
            wo.homeColumn = home(g);
            const std::uint64_t s = hash2(seed, 100 + 2 * g + v);
            pool_.push_back(writePages(s, 1, wo, {}));
            pool_img_.push_back(image(hash2(s, 0)));
        }
    }
    for (std::uint32_t s = 0; s < kSlots; ++s) {
        Drive::WriteOptions wo;
        wo.group = kChurnGroupBase + s;
        wo.homeColumn = slotHome(s);
        const std::uint64_t ps = hash2(seed, 200 + s);
        slot_vec_.push_back(writePages(ps, 1, wo, {}));
        slot_img_.push_back(image(hash2(ps, 0)));
    }
    // Residents: one stripe row each, packed into one group so eight
    // successive residents fill the wordlines of a sub-block.
    for (std::uint32_t r = 0; r < kResidents; ++r) {
        Drive::WriteOptions wo;
        wo.group = kResidentGroup;
        wo.homeColumn = 2 % columns_;
        resident_vec_.push_back(
            writePages(hash2(seed, 300 + r), columns_, wo, {}));
    }
    run_.waitAll(*drive_);
    chains_.resize(kInflight);
    runOps(0, kOpsPerRound); // warm-up: GC reaches its steady state
}

void
ChurnSoak::round(std::uint64_t k)
{
    runOps(k * kOpsPerRound, (k + 1) * kOpsPerRound);
}

void
ChurnSoak::runOps(std::uint64_t begin, std::uint64_t end)
{
    end_ = end;
    for (std::uint32_t c = 0; c < kInflight; ++c) {
        chains_[c].next = begin + c;
        submitNext(c);
    }
    run_.waitAll(*drive_);
}

void
ChurnSoak::submitNext(std::uint32_t c)
{
    Chain &ch = chains_[c];
    if (ch.next >= end_)
        return;
    const std::uint64_t n = ch.next;
    ch.next += kInflight;
    const int cls = classOfOp(n);
    const std::uint64_t sel = n % 10;
    std::uint32_t s;
    {
        Tracer::Scope span(run_.tracer, SpanKind::Gen);
        s = static_cast<std::uint32_t>(hash2(kSchedule, n) % kSlots);
    }
    if (cls == kRead) {
        submitRead(c, s);
    } else if (cls == kCompute) {
        submitCompute(c, n);
    } else {
        const std::uint64_t req = run_.newRequest();
        Drive::RequestOptions ro;
        ro.onOutcome =
            run_.hook(kWrite, req, [this, c](const Outcome &) {
                submitNext(c);
            });
        const std::uint64_t ps =
            hash2(run_.opt.seed ^ 0x5EED, ++write_counter_);
        Drive::WriteOptions wo;
        if (sel == 9) {
            // Resident sweep: kills the wordlines of one packed
            // sub-block back to back, so live neighbours must move.
            const std::uint32_t r =
                static_cast<std::uint32_t>(resident_sweep_++ % kResidents);
            wo.group = kResidentGroup;
            wo.homeColumn = 2 % columns_;
            wo.replaces = resident_vec_[r];
            resident_vec_[r] = writePages(ps, columns_, wo, ro, req);
            return;
        }
        wo.group = kChurnGroupBase + s;
        wo.homeColumn = slotHome(s);
        if (sel == 5)
            run_.trim(*drive_, slot_vec_[s], req); // trim, then append
        else
            wo.replaces = slot_vec_[s]; // overwrite in one call
        slot_img_[s] = image(hash2(ps, 0));
        slot_vec_[s] = writePages(ps, 1, wo, ro, req);
    }
}

void
ChurnSoak::submitRead(std::uint32_t c, std::uint32_t s)
{
    Chain &ch = chains_[c];
    const std::uint64_t req = run_.newRequest();
    Words want = slot_img_[s];
    ch.sink = run_.checkSink(
        req, [want](std::uint64_t page, const std::uint64_t *got,
                    std::size_t words) {
            return page == 0 && words == want->size() &&
                   std::equal(got, got + words, want->begin());
        });
    Drive::RequestOptions ro;
    ro.onOutcome = run_.hook(kRead, req, [this, c](const Outcome &) {
        run_.addStats(kRead, chains_[c].stats);
        submitNext(c);
    });
    ch.stats = {};
    Tracer::Scope span(run_.tracer, SpanKind::SubmitRead, req);
    drive_->submitReadVector(slot_vec_[s], *ch.sink, &ch.stats, ro);
}

void
ChurnSoak::submitCompute(std::uint32_t c, std::uint64_t n)
{
    Chain &ch = chains_[c];
    const std::uint64_t req = run_.newRequest();
    std::uint64_t g;
    {
        Tracer::Scope span(run_.tracer, SpanKind::Gen);
        g = hash2(kSchedule ^ 0xC0, n) % kPoolGroups;
    }
    // Every fourth compute is read back and checked before its trim.
    const bool sampled = (n / 10) % 4 == 0;
    Drive::RequestOptions ro;
    ro.onOutcome = run_.hook(
        kCompute, req, [this, c, g, sampled, req](const Outcome &) {
            Chain &self = chains_[c];
            run_.addStats(kCompute, self.stats);
            if (!sampled) {
                run_.trim(*drive_, self.scratch, req);
                self.scratch = core::kDriveNoVector;
                submitNext(c);
                return;
            }
            const std::uint64_t rb = run_.newRequest();
            Words a = pool_img_[2 * g];
            Words b = pool_img_[2 * g + 1];
            self.sink = run_.checkSink(
                rb, [a, b](std::uint64_t page, const std::uint64_t *got,
                           std::size_t words) {
                    if (page != 0 || words != a->size())
                        return false;
                    for (std::size_t i = 0; i < words; ++i) {
                        if (got[i] != ((*a)[i] & (*b)[i]))
                            return false;
                    }
                    return true;
                });
            Drive::RequestOptions rro;
            rro.onOutcome =
                run_.hook(kRead, rb, [this, c, rb](const Outcome &) {
                    Chain &me = chains_[c];
                    run_.addStats(kRead, me.stats);
                    run_.trim(*drive_, me.scratch, rb);
                    me.scratch = core::kDriveNoVector;
                    submitNext(c);
                });
            self.stats = {};
            Tracer::Scope span(run_.tracer, SpanKind::SubmitRead, rb);
            drive_->submitReadVector(self.scratch, *self.sink, &self.stats,
                                     rro);
        });
    Drive::WriteOptions wo;
    wo.homeColumn = home(g);
    ch.stats = {};
    Tracer::Scope span(run_.tracer, SpanKind::SubmitCompute, req);
    run_.pagesProgrammed += 1;
    ch.scratch = drive_
                     ->submitCompute(core::Expr::leaf(pool_[2 * g]) &
                                         core::Expr::leaf(pool_[2 * g + 1]),
                                     wo, &ch.stats, ro)
                     .vector;
}

void
ChurnSoak::finalChecks()
{
    const std::size_t working_set = pool_.size() + kSlots + kResidents;
    if (drive_->liveVectorCount() != working_set)
        run_.violate("churn_soak: live vectors " +
                     std::to_string(drive_->liveVectorCount()) +
                     " != working set " + std::to_string(working_set));
}

} // namespace

std::unique_ptr<Workload>
makeChurnSoak(Run &run)
{
    return std::make_unique<ChurnSoak>(run);
}

} // namespace pb
