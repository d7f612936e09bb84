/**
 * @file
 * In-memory host-time span tracer of the benchmark.
 *
 * Every call the benchmark makes into the drive, the error injector and
 * its own callbacks is wrapped in a Scope. A span records its kind, the
 * benchmark request it belongs to, its start and end on the steady
 * clock, and the span open on the same thread when it began (its
 * parent). Spans stay in per-thread buffers; fold() reduces them into
 * per-kind totals and self times (a span's duration minus its direct
 * children on the same thread) and keeps the first spans for the file
 * written at the end of the run.
 *
 * A disabled tracer costs one branch per Scope.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

/** Host steady-clock time in ns (arbitrary epoch). */
std::uint64_t hostNs();

enum class SpanKind : std::uint8_t
{
    SubmitRead,
    SubmitWrite,
    SubmitCompute,
    Trim,
    WaitAll,
    AdvanceTo,
    Outcome,
    Sink,
    Check,
    Gen,
    Inject,
};

inline constexpr std::size_t kSpanKinds = 11;

const char *spanName(SpanKind kind);

/** One thread's span buffer (defined in trace.cc). */
struct Buffer;

class Tracer
{
  public:
    static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

    /** @p keep: spans retained for write(); the rest are folded only. */
    Tracer(bool enabled, std::size_t keep);
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    class Scope
    {
      public:
        Scope(Tracer &tracer, SpanKind kind, std::uint64_t request = 0);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Buffer *buf_ = nullptr;
        std::uint32_t index_ = 0;
    };

    /** Per-kind reduction of every folded span. */
    struct Totals
    {
        std::array<std::uint64_t, kSpanKinds> count{};
        std::array<std::uint64_t, kSpanKinds> totalNs{};
        std::array<std::uint64_t, kSpanKinds> selfNs{};
        /** Summed duration of the top-level spans of the thread that
         *  constructed the tracer (the benchmark's own thread). */
        std::uint64_t mainTopNs = 0;
    };

    /** Reduce all closed spans. Call only while no span is open and no
     *  other thread is recording (between rounds, drive quiesced). */
    void fold();

    const Totals &totals() const { return totals_; }

    /** Write the retained spans as tab-separated text. */
    bool write(const std::string &path) const;

  private:
    friend class Scope;

    struct Kept
    {
        std::uint64_t start;
        std::uint64_t end;
        std::uint64_t request;
        std::uint32_t parent; ///< index into kept_, or kNoParent
        std::uint32_t thread;
        SpanKind kind;
    };

    Buffer *local();

    bool enabled_;
    std::size_t keep_;
    std::mutex mutex_; ///< guards buffers_ registration
    std::vector<std::unique_ptr<Buffer>> buffers_;
    Totals totals_;
    std::vector<Kept> kept_;
};

} // namespace pb

#endif // PERFBENCH_TRACE_H
