/**
 * @file
 * bitmap_query: the paper's own use (bitmap index / KCS style bulk
 * bitwise queries) on the Table-1 SSD shape (8 channels x 8 dies x 2
 * planes, 16 KiB pages, with 8 blocks per plane so GC bounds memory)
 * with the V_TH error injector at the paper's worst case (10K P/E
 * cycles, 12-month retention).
 *
 * Set-up ingests two co-located groups of one-stripe bitmaps (128
 * pages, one per plane column): in each, 24 dense bitmaps stored plain
 * for AND and 24 sparse bitmaps stored inverted for De Morgan OR, plus
 * eight update bitmaps whose versions stack in one third group. Page payloads come from a
 * seeded pool of benchmark-generated pages shared into the drive, so
 * the benchmark holds every operand's words itself. A pool page repeats
 * one 512-byte random block; the reference fold runs over that block and
 * every word of every delivered page is compared with it.
 *
 * Each round runs one request at a time, in a seeded order, a fixed
 * multiset of requests: multi-operand AND and OR reads (m = 2..24),
 * XOR and KCS-style (AND of k) OR membership reads, a two-command
 * AND-of-OR read, four computes (two read back), and eight update
 * overwrites. Every delivered page is checked against a fold of the
 * benchmark's own words in plain 64-bit loops.
 */

#include <algorithm>
#include <stdexcept>

#include "harness.h"
#include "nand/page_store.h"
#include "reliability/error_injector.h"
#include "reliability/vth_model.h"

namespace pb {
namespace {

namespace rel = fcos::rel;

constexpr std::uint32_t kChannels = 8;
constexpr std::uint32_t kDies = 8;
constexpr std::uint32_t kDefaultWorkers = 4;
constexpr std::uint32_t kPoolPages = 64; ///< per density
constexpr std::uint32_t kPlainPerGroup = 24;
constexpr std::uint32_t kGroups = 2;
constexpr std::uint32_t kUpdates = 8;
constexpr std::uint64_t kUpdateGroup = 100;
/** Blocks per plane: Table-1 has 2048; eight keep capacity small enough
 *  that GC recycles the blocks of trimmed compute results (whose dense
 *  payload stays resident until erase) within a run. */
constexpr std::uint32_t kBlocksPerPlane = 8;
constexpr std::uint32_t kWindowRounds = 40;
/** Words of the random block every pool page repeats. */
constexpr std::size_t kPeriod = 64;

enum class Q : std::uint8_t
{
    And,   ///< AND of m plain operands of one group (one MWS)
    Or,    ///< OR of m inverted operands of one group (one MWS)
    Xor,   ///< plain operand XOR update bitmap (latch XOR)
    Kcs,   ///< (AND of k plain) OR update bitmap (fused MWS)
    AndOr, ///< (AND of 4 plain) AND (OR of 4 inverted, other group)
};

struct Op
{
    int cls;
    Q q;
    std::uint32_t m;
    bool readback;
};

/** The fixed multiset of one round (30 requests with read-backs). */
std::vector<Op>
roundOps()
{
    std::vector<Op> ops;
    for (std::uint32_t m : {2u, 4u, 8u, 16u, 24u}) {
        ops.push_back({kRead, Q::And, m, false});
        ops.push_back({kRead, Q::Or, m, false});
    }
    for (int i = 0; i < 2; ++i) {
        ops.push_back({kRead, Q::Xor, 1, false});
        ops.push_back({kRead, Q::AndOr, 4, false});
    }
    ops.push_back({kRead, Q::Kcs, 4, false});
    ops.push_back({kRead, Q::Kcs, 8, false});
    ops.push_back({kCompute, Q::And, 8, false});
    ops.push_back({kCompute, Q::And, 16, true});
    ops.push_back({kCompute, Q::Or, 8, true});
    ops.push_back({kCompute, Q::Kcs, 6, false});
    for (int i = 0; i < 8; ++i)
        ops.push_back({kWrite, Q::And, 0, false});
    return ops;
}

/** Error injector wrapper timing every call (traced runs only). */
class TimedInjector final : public nand::ErrorInjector
{
  public:
    TimedInjector(nand::ErrorInjector &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {}

    void inject(fcos::BitVector &bits, const nand::PageMeta &meta,
                std::uint64_t seed) override
    {
        Tracer::Scope span(tracer_, SpanKind::Inject);
        inner_.inject(bits, meta, seed);
    }

  private:
    nand::ErrorInjector &inner_;
    Tracer &tracer_;
};

class BitmapQuery final : public Workload
{
  public:
    explicit BitmapQuery(Run &run)
        : run_(run), injector_(model_, rel::OperatingCondition{10000, 12.0,
                                                               false},
                               1.0, run.opt.seed),
          timed_(injector_, run.tracer)
    {}

    void setup() override;
    void round(std::uint64_t k) override;
    std::uint32_t windowRounds() const override { return kWindowRounds; }
    void finalChecks() override;
    Drive &drive() override { return *drive_; }
    std::uint64_t sensedBits() const override
    {
        return injector_.sensedBits();
    }
    std::uint64_t injectedErrors() const override
    {
        return injector_.injectedErrors();
    }

  private:
    /** One stored bitmap: page j's logical value is pool_[sel[j]]. */
    struct Bitmap
    {
        core::VectorId id = 0;
        std::uint64_t group = 0;
        std::vector<std::uint16_t> sel;
    };

    /** A query: operand lists a and b (bitmap indices into maps_). */
    struct Query
    {
        Q q = Q::And;
        std::vector<std::uint32_t> a;
        std::vector<std::uint32_t> b;
    };

    const std::uint64_t *page(std::uint32_t bitmap, std::uint64_t j) const
    {
        return pool_[maps_[bitmap].sel[j]]->words().data();
    }

    std::vector<std::uint16_t> randomSel(std::uint64_t &rng,
                                         bool dense) const;
    core::VectorId store(const std::vector<std::uint16_t> &sel,
                         std::uint64_t group, bool inverted,
                         core::VectorId replaces, std::uint64_t req);
    Query makeQuery(const Op &op, std::uint64_t &rng) const;
    core::Expr expr(const Query &q) const;
    /** Compare delivered page @p j with the query's reference fold. */
    bool check(const Query &q, std::uint64_t j, const std::uint64_t *got,
               std::size_t words);
    void fold(const std::vector<std::uint32_t> &ops, std::uint64_t j,
              bool is_and, std::uint64_t *out) const;
    void runRound(std::uint64_t k);
    void read(const Query &q, std::uint64_t req, bool one_shot);
    void readBack(const Query &q, core::VectorId result);

    Run &run_;
    rel::VthModel model_;
    rel::VthErrorInjector injector_;
    TimedInjector timed_;
    std::unique_ptr<Drive> drive_;
    std::uint32_t columns_ = 0;
    std::size_t words_ = 0;
    std::vector<std::shared_ptr<const fcos::BitVector>> pool_;
    std::vector<Bitmap> maps_;
    /** maps_ indices: plain_[g], inverted_[g] per group; updates_. */
    std::vector<std::uint32_t> plain_[kGroups];
    std::vector<std::uint32_t> inverted_[kGroups];
    std::vector<std::uint32_t> updates_;
};

std::vector<std::uint16_t>
BitmapQuery::randomSel(std::uint64_t &rng, bool dense) const
{
    std::vector<std::uint16_t> sel(columns_);
    for (std::uint16_t &s : sel)
        s = static_cast<std::uint16_t>(below(rng, kPoolPages) +
                                       (dense ? 0 : kPoolPages));
    return sel;
}

core::VectorId
BitmapQuery::store(const std::vector<std::uint16_t> &sel,
                   std::uint64_t group, bool inverted,
                   core::VectorId replaces, std::uint64_t req)
{
    Drive::WriteOptions wo;
    wo.group = group;
    wo.storeInverted = inverted;
    wo.replaces = replaces;
    Drive::RequestOptions ro;
    if (req != 0)
        ro.onOutcome = run_.hook(kWrite, req);
    run_.pagesProgrammed += columns_;
    Tracer::Scope span(run_.tracer, SpanKind::SubmitWrite, req);
    return drive_
        ->submitWritePages(
            [this, &sel](std::uint64_t j) {
                return nand::PageImage::shared(pool_[sel[j]]);
            },
            columns_, wo, ro)
        .vector;
}

void
BitmapQuery::setup()
{
    Drive::Config dc;
    dc.channels = kChannels;
    dc.dies = kDies;
    dc.geometry = nand::Geometry::table1();
    dc.geometry.blocksPerPlane = kBlocksPerPlane;
    dc.workers = run_.opt.workers ? run_.opt.workers : kDefaultWorkers;
    drive_ = std::make_unique<Drive>(dc);
    drive_->setErrorInjector(run_.tracer.enabled()
                                 ? static_cast<nand::ErrorInjector *>(&timed_)
                                 : &injector_);
    columns_ = kChannels * kDies * dc.geometry.planesPerDie;
    words_ = dc.geometry.pageBits() / 64;
    if (words_ % kPeriod != 0)
        throw std::logic_error("page size is not a multiple of kPeriod");

    // Page pool: kPoolPages dense pages (P(1) = 15/16, AND operands)
    // and kPoolPages sparse pages (P(1) = 1/16, OR operands). Each page
    // repeats one random kPeriod-word block, so the reference fold runs
    // over kPeriod words while every delivered word is still compared.
    std::uint64_t rng = hash2(run_.opt.seed, 0xB17);
    for (std::uint32_t p = 0; p < 2 * kPoolPages; ++p) {
        std::uint64_t block[kPeriod];
        for (std::uint64_t &w : block) {
            const std::uint64_t sparse = splitmix(rng) & splitmix(rng) &
                                         splitmix(rng) & splitmix(rng);
            w = p < kPoolPages ? ~sparse : sparse;
        }
        fcos::BitVector v(dc.geometry.pageBits());
        std::vector<std::uint64_t> &words = v.words();
        for (std::size_t i = 0; i < words.size(); ++i)
            words[i] = block[i % kPeriod];
        pool_.push_back(std::make_shared<const fcos::BitVector>(std::move(v)));
    }
    for (std::uint32_t g = 0; g < kGroups; ++g) {
        for (int inv = 0; inv < 2; ++inv) {
            for (std::uint32_t i = 0; i < kPlainPerGroup; ++i) {
                Bitmap b;
                b.group = g + 1;
                b.sel = randomSel(rng, inv == 0);
                b.id = store(b.sel, b.group, inv != 0, core::kDriveNoVector,
                             0);
                (inv ? inverted_ : plain_)[g].push_back(
                    static_cast<std::uint32_t>(maps_.size()));
                maps_.push_back(std::move(b));
            }
        }
    }
    for (std::uint32_t u = 0; u < kUpdates; ++u) {
        Bitmap b;
        b.group = kUpdateGroup; // versions stack in shared sub-blocks
        b.sel = randomSel(rng, false);
        b.id = store(b.sel, b.group, false, core::kDriveNoVector, 0);
        updates_.push_back(static_cast<std::uint32_t>(maps_.size()));
        maps_.push_back(std::move(b));
    }
    run_.waitAll(*drive_);
    runRound(0); // warm-up
}

void
BitmapQuery::round(std::uint64_t k)
{
    runRound(k);
}

BitmapQuery::Query
BitmapQuery::makeQuery(const Op &op, std::uint64_t &rng) const
{
    Query q;
    q.q = op.q;
    const std::uint32_t g = static_cast<std::uint32_t>(below(rng, kGroups));
    auto pick = [&rng](const std::vector<std::uint32_t> &from,
                       std::uint32_t m) {
        std::vector<std::uint32_t> idx(from);
        for (std::uint32_t i = 0; i < m; ++i)
            std::swap(idx[i], idx[i + below(rng, idx.size() - i)]);
        idx.resize(m);
        return idx;
    };
    const std::uint32_t u = updates_[below(rng, kUpdates)];
    switch (op.q) {
      case Q::And:
      case Q::Kcs:
        q.a = pick(plain_[g], op.m);
        break;
      case Q::Or:
        q.a = pick(inverted_[g], op.m);
        break;
      case Q::Xor:
        q.a = pick(plain_[g], 1);
        break;
      case Q::AndOr:
        q.a = pick(plain_[g], op.m);
        q.b = pick(inverted_[1 - g], op.m);
        break;
    }
    if (op.q == Q::Kcs || op.q == Q::Xor)
        q.b = {u};
    return q;
}

core::Expr
BitmapQuery::expr(const Query &q) const
{
    auto leaves = [this](const std::vector<std::uint32_t> &ops) {
        std::vector<core::Expr> out;
        for (std::uint32_t i : ops)
            out.push_back(core::Expr::leaf(maps_[i].id));
        return out;
    };
    switch (q.q) {
      case Q::And:
        return core::Expr::And(leaves(q.a));
      case Q::Or:
        return core::Expr::Or(leaves(q.a));
      case Q::Xor:
        return core::Expr::leaf(maps_[q.a[0]].id) ^
               core::Expr::leaf(maps_[q.b[0]].id);
      case Q::Kcs:
        return core::Expr::And(leaves(q.a)) |
               core::Expr::leaf(maps_[q.b[0]].id);
      case Q::AndOr:
        return core::Expr::And(leaves(q.a)) & core::Expr::Or(leaves(q.b));
    }
    return core::Expr::leaf(maps_[q.a[0]].id);
}

void
BitmapQuery::fold(const std::vector<std::uint32_t> &ops, std::uint64_t j,
                  bool is_and, std::uint64_t *out) const
{
    const std::uint64_t *first = page(ops[0], j);
    std::copy(first, first + kPeriod, out);
    for (std::size_t k = 1; k < ops.size(); ++k) {
        const std::uint64_t *w = page(ops[k], j);
        if (is_and) {
            for (std::size_t i = 0; i < kPeriod; ++i)
                out[i] &= w[i];
        } else {
            for (std::size_t i = 0; i < kPeriod; ++i)
                out[i] |= w[i];
        }
    }
}

bool
BitmapQuery::check(const Query &q, std::uint64_t j,
                   const std::uint64_t *got, std::size_t words)
{
    if (words != words_ || j >= columns_)
        return false;
    std::uint64_t acc[kPeriod];
    switch (q.q) {
      case Q::And:
        fold(q.a, j, true, acc);
        break;
      case Q::Or:
        fold(q.a, j, false, acc);
        break;
      case Q::Xor: {
          const std::uint64_t *a = page(q.a[0], j);
          const std::uint64_t *b = page(q.b[0], j);
          for (std::size_t i = 0; i < kPeriod; ++i)
              acc[i] = a[i] ^ b[i];
          break;
      }
      case Q::Kcs: {
          fold(q.a, j, true, acc);
          const std::uint64_t *b = page(q.b[0], j);
          for (std::size_t i = 0; i < kPeriod; ++i)
              acc[i] |= b[i];
          break;
      }
      case Q::AndOr: {
          std::uint64_t ors[kPeriod];
          fold(q.a, j, true, acc);
          fold(q.b, j, false, ors);
          for (std::size_t i = 0; i < kPeriod; ++i)
              acc[i] &= ors[i];
          break;
      }
    }
    // Every delivered word against the reference block.
    std::uint64_t diff = 0;
    for (std::size_t i = 0; i < words; i += kPeriod) {
        for (std::size_t k = 0; k < kPeriod; ++k)
            diff |= got[i + k] ^ acc[k];
    }
    return diff == 0;
}

void
BitmapQuery::read(const Query &q, std::uint64_t req, bool one_shot)
{
    auto sink = run_.checkSink(
        req, [this, &q](std::uint64_t j, const std::uint64_t *got,
                        std::size_t words) {
            return check(q, j, got, words);
        });
    Drive::ReadStats stats;
    Drive::RequestOptions ro;
    ro.onOutcome = run_.hook(kRead, req);
    {
        Tracer::Scope span(run_.tracer, SpanKind::SubmitRead, req);
        drive_->submitRead(expr(q), *sink, &stats, ro);
    }
    run_.waitAll(*drive_);
    run_.addStats(kRead, stats);
    // One-shot MWS: a single-group AND/OR of <= 48 operands senses each
    // result page exactly once.
    if (one_shot && stats.senses != stats.resultPages)
        run_.violate("bitmap_query: one-shot query sensed " +
                     std::to_string(stats.senses) + " times for " +
                     std::to_string(stats.resultPages) + " result pages");
}

void
BitmapQuery::readBack(const Query &q, core::VectorId result)
{
    const std::uint64_t req = run_.newRequest();
    auto sink = run_.checkSink(
        req, [this, &q](std::uint64_t j, const std::uint64_t *got,
                        std::size_t words) {
            return check(q, j, got, words);
        });
    Drive::ReadStats stats;
    Drive::RequestOptions ro;
    ro.onOutcome = run_.hook(kRead, req);
    {
        Tracer::Scope span(run_.tracer, SpanKind::SubmitRead, req);
        drive_->submitReadVector(result, *sink, &stats, ro);
    }
    run_.waitAll(*drive_);
    run_.addStats(kRead, stats);
}

void
BitmapQuery::runRound(std::uint64_t k)
{
    std::uint64_t rng = hash2(run_.opt.seed, 0xA11 + k);
    std::vector<Op> ops;
    {
        Tracer::Scope span(run_.tracer, SpanKind::Gen);
        ops = roundOps();
        for (std::size_t i = ops.size() - 1; i > 0; --i)
            std::swap(ops[i], ops[below(rng, i + 1)]);
    }
    for (const Op &op : ops) {
        if (op.cls == kWrite) {
            const std::uint64_t req = run_.newRequest();
            std::uint32_t u;
            {
                Tracer::Scope span(run_.tracer, SpanKind::Gen, req);
                u = updates_[below(rng, kUpdates)];
                maps_[u].sel = randomSel(rng, false);
            }
            maps_[u].id = store(maps_[u].sel, maps_[u].group, false,
                                maps_[u].id, req);
            run_.waitAll(*drive_);
            continue;
        }
        const std::uint64_t req = run_.newRequest();
        Query q;
        {
            Tracer::Scope span(run_.tracer, SpanKind::Gen, req);
            q = makeQuery(op, rng);
        }
        if (op.cls == kRead) {
            read(q, req, op.q == Q::And || op.q == Q::Or);
            continue;
        }
        Drive::ReadStats stats;
        Drive::RequestOptions ro;
        ro.onOutcome = run_.hook(kCompute, req);
        Drive::WriteOptions wo; // fresh private group on the operands' column
        core::VectorId result;
        {
            Tracer::Scope span(run_.tracer, SpanKind::SubmitCompute, req);
            run_.pagesProgrammed += columns_;
            result = drive_->submitCompute(expr(q), wo, &stats, ro).vector;
        }
        run_.waitAll(*drive_);
        run_.addStats(kCompute, stats);
        if (op.readback)
            readBack(q, result);
        run_.trim(*drive_, result, req);
    }
}

void
BitmapQuery::finalChecks()
{
    if (drive_->liveVectorCount() != maps_.size())
        run_.violate("bitmap_query: live vectors " +
                     std::to_string(drive_->liveVectorCount()) +
                     " != working set " + std::to_string(maps_.size()));
    // ESP exactness at the worst-case condition.
    if (injector_.sensedBits() == 0 || injector_.injectedErrors() != 0)
        run_.violate("bitmap_query: " +
                     std::to_string(injector_.injectedErrors()) +
                     " injected errors over " +
                     std::to_string(injector_.sensedBits()) +
                     " sensed bits");
}

} // namespace

std::unique_ptr<Workload>
makeBitmapQuery(Run &run)
{
    return std::make_unique<BitmapQuery>(run);
}

} // namespace pb
