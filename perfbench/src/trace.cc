#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace pb {

struct Span
{
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint64_t request = 0;
    std::uint32_t parent = Tracer::kNoParent;
    SpanKind kind = SpanKind::Gen;
};

/** One thread's spans and its stack of open spans. */
struct Buffer
{
    std::uint32_t thread = 0;
    std::vector<Span> spans;
    std::vector<std::uint32_t> open;
};

namespace {

/** The calling thread's buffer; one tracer lives per process. */
thread_local Buffer *t_buffer = nullptr;
thread_local const Tracer *t_owner = nullptr;

const char *const kNames[kSpanKinds] = {
    "submit_read", "submit_write", "submit_compute", "trim",
    "wait_all",    "advance_to",   "outcome",        "sink",
    "check",       "gen",          "inject",
};

} // namespace

std::uint64_t
hostNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

const char *
spanName(SpanKind kind)
{
    return kNames[static_cast<std::size_t>(kind)];
}

Tracer::Tracer(bool enabled, std::size_t keep)
    : enabled_(enabled), keep_(keep)
{
    if (enabled_)
        local(); // the constructing thread becomes thread 0
}

Tracer::~Tracer()
{
    if (t_owner == this) {
        t_buffer = nullptr;
        t_owner = nullptr;
    }
}

Buffer *
Tracer::local()
{
    if (t_owner != this) {
        auto buf = std::make_unique<Buffer>();
        std::lock_guard<std::mutex> lk(mutex_);
        buf->thread = static_cast<std::uint32_t>(buffers_.size());
        t_buffer = buf.get();
        t_owner = this;
        buffers_.push_back(std::move(buf));
    }
    return t_buffer;
}

Tracer::Scope::Scope(Tracer &tracer, SpanKind kind, std::uint64_t request)
{
    if (!tracer.enabled_)
        return;
    buf_ = tracer.local();
    index_ = static_cast<std::uint32_t>(buf_->spans.size());
    Span s;
    s.kind = kind;
    s.request = request;
    s.parent = buf_->open.empty() ? kNoParent : buf_->open.back();
    buf_->open.push_back(index_);
    s.start = hostNs();
    buf_->spans.push_back(s);
}

Tracer::Scope::~Scope()
{
    if (!buf_)
        return;
    buf_->spans[index_].end = hostNs();
    buf_->open.pop_back();
}

void
Tracer::fold()
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lk(mutex_);
    std::vector<std::uint64_t> child_ns;
    std::vector<std::uint32_t> kept_index;
    for (const std::unique_ptr<Buffer> &buf : buffers_) {
        if (!buf->open.empty())
            throw std::logic_error("Tracer::fold with an open span");
        const std::vector<Span> &spans = buf->spans;
        child_ns.assign(spans.size(), 0);
        for (const Span &s : spans) {
            if (s.parent != kNoParent)
                child_ns[s.parent] += s.end - s.start;
        }
        kept_index.assign(spans.size(), kNoParent);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            const std::size_t k = static_cast<std::size_t>(s.kind);
            const std::uint64_t dur = s.end - s.start;
            ++totals_.count[k];
            totals_.totalNs[k] += dur;
            totals_.selfNs[k] += dur - child_ns[i];
            if (buf->thread == 0 && s.parent == kNoParent)
                totals_.mainTopNs += dur;
            if (kept_.size() < keep_) {
                kept_index[i] = static_cast<std::uint32_t>(kept_.size());
                const std::uint32_t parent =
                    s.parent == kNoParent ? kNoParent
                                          : kept_index[s.parent];
                kept_.push_back(Kept{s.start, s.end, s.request, parent,
                                     buf->thread, s.kind});
            }
        }
        buf->spans.clear();
    }
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "index\tname\tthread\trequest\tparent\tstart_ns\t"
                    "end_ns\n");
    std::uint64_t t0 = kept_.empty() ? 0 : kept_.front().start;
    for (const Kept &k : kept_)
        t0 = std::min(t0, k.start);
    for (std::size_t i = 0; i < kept_.size(); ++i) {
        const Kept &k = kept_[i];
        std::fprintf(f, "%zu\t%s\t%u\t%llu\t%lld\t%llu\t%llu\n", i,
                     spanName(k.kind), k.thread,
                     static_cast<unsigned long long>(k.request),
                     k.parent == kNoParent
                         ? -1LL
                         : static_cast<long long>(k.parent),
                     static_cast<unsigned long long>(k.start - t0),
                     static_cast<unsigned long long>(k.end - t0));
    }
    return std::fclose(f) == 0;
}

} // namespace pb
