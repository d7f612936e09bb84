/**
 * @file
 * Shared run state of the benchmark: options, request bookkeeping,
 * output checks, property checks and the traced-call wrappers every
 * workload uses to reach the drive.
 *
 * All bookkeeping here runs on the benchmark's own thread or in the
 * drive's serial callback contexts (outcome hooks, result sinks), so it
 * needs no locking.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/drive.h"
#include "core/result_sink.h"
#include "nand/cell_array.h"
#include "trace.h"

namespace pb {

namespace core = fcos::core;
namespace engine = fcos::engine;
namespace nand = fcos::nand;
using fcos::Time;
using Outcome = engine::RequestQueue::Outcome;
using Drive = core::FlashCosmosDrive;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Host workers; 0 = the workload's own count. */
    std::uint32_t workers = 0;
    /** Fixed measured-round count (0 = run for `seconds`). */
    std::uint64_t rounds = 0;
    /** Flip one bit of the first page delivered in the measured phase
     *  (self-test: the run must then report itself incorrect). */
    bool corruptSink = false;
    /** Directory for the span file of a traced run. */
    std::string outDir = ".bench_out";
};

enum Cls : int
{
    kRead = 0,
    kWrite = 1,
    kCompute = 2,
};
inline constexpr int kClasses = 3;
const char *className(int cls);

/** Summed ReadStats of the read/compute requests in the window. */
struct NandSums
{
    std::uint64_t senses = 0;
    std::uint64_t mwsCommands = 0;
    std::uint64_t latchXors = 0;
    std::uint64_t pageReads = 0;
    std::uint64_t resultPages = 0;
    std::uint64_t readSenses = 0; ///< senses of read-class requests
    Time busy = 0;
    double energyJ = 0.0;
    std::uint64_t streamPeakPages = 0;
};

/** Compares one delivered page with its reference. @p got holds the
 *  page's valid words (the last one masked to the valid bits). */
using PageCheck = std::function<bool(std::uint64_t page,
                                     const std::uint64_t *got,
                                     std::size_t words)>;

class Run
{
  public:
    Run(const Options &opt, Tracer &tracer);

    const Options &opt;
    Tracer &tracer;

    // ---- traced calls into the drive ------------------------------
    void waitAll(Drive &drive);
    Time advanceTo(Drive &drive, Time t);
    void trim(Drive &drive, core::VectorId id, std::uint64_t req = 0);

    /** Count one submitted request; returns its benchmark id. */
    std::uint64_t newRequest() { return ++attempted; }

    /** Outcome hook of request @p req: records the outcome, then runs
     *  @p then (may be empty) inside the same traced span. */
    std::function<void(const Outcome &)>
    hook(int cls, std::uint64_t req,
         std::function<void(const Outcome &)> then = {});

    /** Fold a finished request's ReadStats into the window sums. */
    void addStats(int cls, const Drive::ReadStats &st);

    /** A result sink that checks every page with @p check. */
    std::unique_ptr<core::ResultSink> checkSink(std::uint64_t req,
                                                PageCheck check);

    /** Property-check failure: the run is reported incorrect. */
    void violate(const std::string &what);

    /** Output mismatch of request @p req (counted once per request). */
    void mismatch(std::uint64_t req, const char *what);

    // ---- window (the rounds the simulated metrics come from) -------
    bool inWindow = false;
    std::vector<Outcome> samples[kClasses];
    NandSums nand;
    /** ReadStats::resultPages summed over every read request. */
    std::uint64_t statsResultPages = 0;

    // ---- totals -----------------------------------------------------
    std::uint64_t attempted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t pagesProgrammed = 0;
    std::uint64_t pagesDelivered = 0;
    /** Order-sensitive hash fold of every delivered page. */
    std::uint64_t digest = 14695981039346656037ULL;
    bool corruptArmed = false;
    std::vector<std::string> violations;

  private:
    std::uint64_t last_failed_req_ = 0;
    Time min_service_[kClasses];
};

/**
 * One workload: builds its drive in setup() and serves fixed rounds of
 * requests. Every round ends with the drive quiesced (waitAll), so the
 * harness can snapshot counters between rounds.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Drive construction, initial ingest and warm-up. */
    virtual void setup() = 0;
    /** One measured round (k = 1, 2, ...), ending quiesced. */
    virtual void round(std::uint64_t k) = 0;
    /** Rounds whose simulated outcomes form the reported window. */
    virtual std::uint32_t windowRounds() const = 0;
    /** Property checks on the quiesced drive after the last round. */
    virtual void finalChecks() = 0;
    virtual Drive &drive() = 0;
    /** Injector tallies (sensed bits, injected errors); zero when the
     *  workload runs without error injection. */
    virtual std::uint64_t sensedBits() const { return 0; }
    virtual std::uint64_t injectedErrors() const { return 0; }
};

std::unique_ptr<Workload> makeBitmapQuery(Run &run);
std::unique_ptr<Workload> makeChurnSoak(Run &run);
std::unique_ptr<Workload> makeOpenMixed(Run &run);

/** splitmix64 step: the benchmark's own generator for every input. */
inline std::uint64_t
splitmix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/** Stateless hash of (a, b) for per-item seeds. */
inline std::uint64_t
hash2(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t s = a * 0xD1B54A32D192ED03ULL + b;
    return splitmix(s);
}

/** Uniform integer in [0, n) from @p state (n > 0). */
inline std::uint64_t
below(std::uint64_t &state, std::uint64_t n)
{
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(splitmix(state)) * n) >> 64);
}

/**
 * Reference words of a procedural nand::PageImage::random(seed) page of
 * @p words words: the documented stream (std::mt19937_64 seeded with
 * the descriptor's seed, one draw per word), generated here without
 * the simulator's code.
 */
void randomPageWords(std::uint64_t seed, std::uint64_t *out,
                     std::size_t words);

} // namespace pb

#endif // PERFBENCH_HARNESS_H
