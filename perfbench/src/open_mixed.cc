/**
 * @file
 * open_mixed: an open loop on the tiny 2 x 2-die drive.
 *
 * Requests arrive as a seeded Poisson process at one fixed offered rate
 * and are staged on the simulated clock ahead of time (submitted in
 * batches with future arrivals, then the clock is advanced to the last
 * arrival of the batch). Every block of ten requests holds two slot
 * reads, one read of a compute result, two slot overwrites and five AND
 * computes that overwrite a result slot, in a seeded order. QoS weights
 * are 4:2:1 (read:write:compute). The schedule is fixed; the seed makes
 * every page image. Reads are checked against the latest
 * image (or AND of operand images) the benchmark submitted for their
 * slot; each outcome's arrival must equal its scheduled arrival, and
 * the pending backlog must not grow from one tenth of the window to
 * the next.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "harness.h"
#include "nand/page_store.h"

namespace pb {
namespace {

constexpr std::uint32_t kChannels = 2;
constexpr std::uint32_t kDies = 2;
constexpr std::uint32_t kDefaultWorkers = 4;
constexpr std::uint32_t kDepth = 8;
constexpr std::uint64_t kPoolGroups = 8; ///< one per plane column
constexpr std::uint64_t kPerGroup = 3;
constexpr std::uint32_t kSlots = 16;
constexpr std::uint32_t kResults = 16;
constexpr std::uint64_t kRequestsPerRound = 4000;
constexpr std::uint32_t kWindowRounds = 5;
/** Requests staged ahead of the clock per advanceTo. */
constexpr std::uint32_t kBatch = 16;
/** Mean inter-arrival gap of the offered load (see README). */
constexpr double kGapNs = 150000.0;
constexpr std::uint64_t kSlotGroupBase = 1000;
constexpr std::uint64_t kResultGroupBase = 2000;
/** Seed of the request schedule (arrivals, kinds, slots, operand
 *  subsets). The schedule is fixed so the simulated metrics compare
 *  exactly across seeds; --seed drives every page image. */
constexpr std::uint64_t kSchedule = 0x0BE2026ULL;

using Words = std::shared_ptr<const std::vector<std::uint64_t>>;

enum Kind : int
{
    kReadSlot,
    kReadResult,
    kWriteSlot,
    kComputeAnd,
};
/** One block of ten requests, shuffled per block. */
constexpr Kind kBlock[10] = {kReadSlot,   kReadSlot,   kReadResult,
                             kWriteSlot,  kWriteSlot,  kComputeAnd,
                             kComputeAnd, kComputeAnd, kComputeAnd,
                             kComputeAnd};

class OpenMixed final : public Workload
{
  public:
    explicit OpenMixed(Run &run) : run_(run) {}

    void setup() override;
    void round(std::uint64_t k) override;
    std::uint32_t windowRounds() const override { return kWindowRounds; }
    void finalChecks() override;
    Drive &drive() override { return *drive_; }

  private:
    /** Per-request state the drive references until completion. */
    struct Pending
    {
        std::unique_ptr<core::ResultSink> sink;
        Drive::ReadStats stats;
    };

    std::uint32_t home(std::uint64_t g) const
    {
        return static_cast<std::uint32_t>((g * 3) % columns_);
    }
    std::uint32_t slotHome(std::uint32_t s) const
    {
        return static_cast<std::uint32_t>((s * 5 + 1) % columns_);
    }
    Words image(std::uint64_t seed) const
    {
        Tracer::Scope span(run_.tracer, SpanKind::Check);
        auto w = std::make_shared<std::vector<std::uint64_t>>(words_);
        randomPageWords(seed, w->data(), words_);
        return w;
    }

    void runRound(std::uint64_t k, bool window);
    void submit(Kind kind, Time arrival, std::uint64_t &rng);
    void submitRead(core::VectorId id, Words want, Time arrival);
    void writeSlot(std::uint32_t s, std::uint64_t seed, Time arrival,
                   std::uint64_t req);
    void compute(std::uint32_t r, std::uint64_t subset, Time arrival,
                 std::uint64_t req);
    Drive::RequestOptions options(int cls, std::uint64_t req, Time arrival,
                                  std::shared_ptr<Pending> p);

    Run &run_;
    std::unique_ptr<Drive> drive_;
    std::uint32_t columns_ = 0;
    std::size_t words_ = 0;
    std::vector<core::VectorId> pool_;
    std::vector<Words> pool_img_;
    std::vector<core::VectorId> slot_vec_;
    std::vector<Words> slot_img_;
    std::vector<core::VectorId> result_vec_;
    std::vector<Words> result_img_;
    std::uint64_t write_counter_ = 0;
    /** Pending-backlog samples per tenth of the window. */
    double tenth_sum_[10] = {};
    std::uint64_t tenth_n_[10] = {};
};

Drive::RequestOptions
OpenMixed::options(int cls, std::uint64_t req, Time arrival,
                   std::shared_ptr<Pending> p)
{
    Drive::RequestOptions ro;
    ro.arrival = arrival;
    ro.onOutcome = run_.hook(
        cls, req, [this, cls, req, arrival, p](const Outcome &oc) {
            if (p && cls != kWrite)
                run_.addStats(cls, p->stats);
            if (oc.arrival != arrival)
                run_.violate("open_mixed: request " +
                             std::to_string(req) + " arrived at " +
                             std::to_string(oc.arrival) +
                             ", scheduled " + std::to_string(arrival));
        });
    return ro;
}

void
OpenMixed::setup()
{
    Drive::Config dc;
    dc.channels = kChannels;
    dc.dies = kDies;
    dc.workers = run_.opt.workers ? run_.opt.workers : kDefaultWorkers;
    dc.admissionDepth = kDepth;
    dc.qosReadWeight = 4;
    dc.qosWriteWeight = 2;
    dc.qosComputeWeight = 1;
    drive_ = std::make_unique<Drive>(dc);
    columns_ = kChannels * kDies * dc.geometry.planesPerDie;
    words_ = dc.geometry.pageBits() / 64;
    const std::uint64_t seed = run_.opt.seed;

    for (std::uint64_t g = 0; g < kPoolGroups; ++g) {
        for (std::uint64_t v = 0; v < kPerGroup; ++v) {
            Drive::WriteOptions wo;
            wo.group = g + 1;
            wo.homeColumn = home(g);
            const std::uint64_t ps = hash2(seed, 100 + kPerGroup * g + v);
            run_.pagesProgrammed += 1;
            pool_.push_back(drive_
                                ->submitWritePages(
                                    [ps](std::uint64_t) {
                                        return nand::PageImage::random(ps);
                                    },
                                    1, wo, {})
                                .vector);
            pool_img_.push_back(image(ps));
        }
    }
    slot_vec_.assign(kSlots, core::kDriveNoVector);
    slot_img_.resize(kSlots);
    for (std::uint32_t s = 0; s < kSlots; ++s)
        writeSlot(s, hash2(seed, 200 + s), 0, 0);
    result_vec_.assign(kResults, core::kDriveNoVector);
    result_img_.resize(kResults);
    for (std::uint32_t r = 0; r < kResults; ++r)
        compute(r, 3, 0, 0);
    run_.waitAll(*drive_);
    runRound(0, false); // warm-up
}

void
OpenMixed::round(std::uint64_t k)
{
    runRound(k, k <= kWindowRounds);
}

void
OpenMixed::runRound(std::uint64_t k, bool window)
{
    std::uint64_t rng = hash2(kSchedule, k);
    Time t = drive_->now();
    Kind block[10];
    for (std::uint64_t i = 0; i < kRequestsPerRound; ++i) {
        Kind kind;
        {
            Tracer::Scope span(run_.tracer, SpanKind::Gen);
            if (i % 10 == 0) {
                std::copy(std::begin(kBlock), std::end(kBlock), block);
                for (std::uint64_t j = 9; j > 0; --j)
                    std::swap(block[j], block[below(rng, j + 1)]);
            }
            kind = block[i % 10];
            // Exponential gap: the seeded Poisson arrival process.
            const double u =
                (static_cast<double>(splitmix(rng) >> 11) + 0.5) /
                9007199254740992.0;
            t += static_cast<Time>(std::llround(-std::log(u) * kGapNs));
        }
        submit(kind, t, rng);
        if (i % kBatch == kBatch - 1 || i + 1 == kRequestsPerRound) {
            run_.advanceTo(*drive_, t);
            if (window) {
                const std::uint64_t idx = (k - 1) * kRequestsPerRound + i;
                const std::size_t tenth = static_cast<std::size_t>(
                    idx * 10 / (kWindowRounds * kRequestsPerRound));
                tenth_sum_[tenth] += static_cast<double>(
                    drive_->admission().pendingCount());
                ++tenth_n_[tenth];
            }
        }
    }
    run_.waitAll(*drive_);
}

void
OpenMixed::submit(Kind kind, Time arrival, std::uint64_t &rng)
{
    switch (kind) {
      case kReadSlot: {
          const std::uint32_t s =
              static_cast<std::uint32_t>(below(rng, kSlots));
          submitRead(slot_vec_[s], slot_img_[s], arrival);
          break;
      }
      case kReadResult: {
          const std::uint32_t r =
              static_cast<std::uint32_t>(below(rng, kResults));
          submitRead(result_vec_[r], result_img_[r], arrival);
          break;
      }
      case kWriteSlot: {
          const std::uint32_t s =
              static_cast<std::uint32_t>(below(rng, kSlots));
          writeSlot(s, hash2(run_.opt.seed ^ 0x5EED, ++write_counter_),
                    arrival, run_.newRequest());
          break;
      }
      case kComputeAnd: {
          const std::uint32_t r =
              static_cast<std::uint32_t>(below(rng, kResults));
          compute(r, below(rng, 4), arrival, run_.newRequest());
          break;
      }
    }
}

void
OpenMixed::submitRead(core::VectorId id, Words want, Time arrival)
{
    const std::uint64_t req = run_.newRequest();
    auto p = std::make_shared<Pending>();
    p->sink = run_.checkSink(
        req, [want](std::uint64_t page, const std::uint64_t *got,
                    std::size_t words) {
            return page == 0 && words == want->size() &&
                   std::equal(got, got + words, want->begin());
        });
    core::ResultSink &sink = *p->sink;
    Drive::ReadStats *stats = &p->stats;
    Drive::RequestOptions ro = options(kRead, req, arrival, std::move(p));
    Tracer::Scope span(run_.tracer, SpanKind::SubmitRead, req);
    drive_->submitReadVector(id, sink, stats, ro);
}

void
OpenMixed::writeSlot(std::uint32_t s, std::uint64_t seed, Time arrival,
                     std::uint64_t req)
{
    slot_img_[s] = image(seed);
    Drive::WriteOptions wo;
    // Slots of one column share a group, so an overwrite stacks on the
    // group's open sub-block instead of opening a fresh one.
    wo.group = kSlotGroupBase + slotHome(s);
    wo.homeColumn = slotHome(s);
    wo.replaces = slot_vec_[s];
    Drive::RequestOptions ro;
    if (req != 0)
        ro = options(kWrite, req, arrival, nullptr);
    Tracer::Scope span(run_.tracer, SpanKind::SubmitWrite, req);
    run_.pagesProgrammed += 1;
    slot_vec_[s] = drive_
                       ->submitWritePages(
                           [seed](std::uint64_t) {
                               return nand::PageImage::random(seed);
                           },
                           1, wo, ro)
                       .vector;
}

void
OpenMixed::compute(std::uint32_t r, std::uint64_t subset, Time arrival,
                   std::uint64_t req)
{
    // subset 0..2 drops one operand of the group's three; 3 keeps all.
    const std::uint64_t g = r % kPoolGroups;
    std::vector<core::Expr> leaves;
    auto want = std::make_shared<std::vector<std::uint64_t>>(words_, ~0ULL);
    {
        Tracer::Scope span(run_.tracer, SpanKind::Check);
        for (std::uint64_t v = 0; v < kPerGroup; ++v) {
            if (subset < kPerGroup && v == subset)
                continue;
            const std::size_t idx = kPerGroup * g + v;
            leaves.push_back(core::Expr::leaf(pool_[idx]));
            for (std::size_t i = 0; i < words_; ++i)
                (*want)[i] &= (*pool_img_[idx])[i];
        }
    }
    result_img_[r] = want;
    Drive::WriteOptions wo;
    wo.group = kResultGroupBase + g; // results of one column share a group
    wo.homeColumn = home(g);
    wo.replaces = result_vec_[r];
    std::shared_ptr<Pending> p;
    Drive::ReadStats *stats = nullptr;
    Drive::RequestOptions ro;
    if (req != 0) {
        p = std::make_shared<Pending>();
        stats = &p->stats;
        ro = options(kCompute, req, arrival, std::move(p));
    }
    Tracer::Scope span(run_.tracer, SpanKind::SubmitCompute, req);
    run_.pagesProgrammed += 1;
    result_vec_[r] =
        drive_->submitCompute(core::Expr::And(std::move(leaves)), wo, stats,
                              ro)
            .vector;
}

void
OpenMixed::finalChecks()
{
    const std::size_t working_set = pool_.size() + kSlots + kResults;
    if (drive_->liveVectorCount() != working_set)
        run_.violate("open_mixed: live vectors " +
                     std::to_string(drive_->liveVectorCount()) +
                     " != working set " + std::to_string(working_set));
    std::printf("# open_mixed pending backlog per tenth:");
    for (int t = 0; t < 10; ++t)
        std::printf(" %.2f", tenth_n_[t] ? tenth_sum_[t] / tenth_n_[t] : 0.0);
    std::printf("\n");
    // The offered load is below saturation: the mean pending backlog of
    // a tenth may not exceed the previous tenth's by an admission window.
    for (int t = 1; t < 10; ++t) {
        if (tenth_n_[t] == 0 || tenth_n_[t - 1] == 0)
            continue;
        const double prev = tenth_sum_[t - 1] / tenth_n_[t - 1];
        const double cur = tenth_sum_[t] / tenth_n_[t];
        if (cur > prev + kDepth)
            run_.violate("open_mixed: pending backlog grew from " +
                         std::to_string(prev) + " to " +
                         std::to_string(cur) + " in tenth " +
                         std::to_string(t + 1));
    }
}

} // namespace

std::unique_ptr<Workload>
makeOpenMixed(Run &run)
{
    return std::make_unique<OpenMixed>(run);
}

} // namespace pb
