/**
 * @file
 * fcos_perfbench: runs one workload from a seed for a fixed host time
 * and prints every metric as one JSON object on the last line.
 *
 *   fcos_perfbench --workload <bitmap_query|churn_soak|open_mixed>
 *                  --seed <n> --seconds <s> --trace <0|1>
 *                  [--workers <n>] [--rounds <n>] [--corrupt-sink]
 *                  [--out <dir>]
 *
 * A run is set-up (drive construction, ingest, one warm-up round), then
 * measured rounds until --seconds have passed and the workload's window
 * of rounds is complete. Host rates cover the whole phase; simulated
 * metrics come from the fixed window of the first rounds, so they
 * repeat exactly for a seed. --trace 0 prints the end-to-end metrics,
 * --trace 1 the per-layer metrics (spans and the program's registry).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/obs.h"

namespace pb {
namespace {

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: fcos_perfbench --workload "
                 "<bitmap_query|churn_soak|open_mixed> --seed <n> "
                 "--seconds <s> --trace <0|1> [--workers <n>] "
                 "[--rounds <n>] [--corrupt-sink] [--out <dir>]\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseUint(const char *s, const char *flag)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (!s[0] || *end)
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
            have_workload = true;
        } else if (a == "--seed") {
            o.seed = parseUint(value(), "--seed");
        } else if (a == "--seconds") {
            const char *v = value();
            char *end = nullptr;
            o.seconds = std::strtod(v, &end);
            if (!v[0] || *end || !(o.seconds > 0.0))
                usage("bad value for --seconds");
        } else if (a == "--trace") {
            const std::uint64_t t = parseUint(value(), "--trace");
            if (t > 1)
                usage("--trace takes 0 or 1");
            o.trace = t == 1;
        } else if (a == "--workers") {
            const std::uint64_t w = parseUint(value(), "--workers");
            if (w < 1 || w > 4)
                usage("--workers takes 1 to 4");
            o.workers = static_cast<std::uint32_t>(w);
        } else if (a == "--rounds") {
            o.rounds = parseUint(value(), "--rounds");
        } else if (a == "--corrupt-sink") {
            o.corruptSink = true;
        } else if (a == "--out") {
            o.outDir = value();
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return o;
}

/** Exact latency summary of one class: median and the highest of the
 *  listed percentiles that leaves at least ten samples beyond it
 *  (nearest-rank; the median alone below forty samples). */
struct Latency
{
    std::size_t n = 0;
    double p50 = 0.0;
    double tail = 0.0;
    double tailPct = 50.0;
};

Latency
summarize(std::vector<Time> v)
{
    Latency l;
    l.n = v.size();
    if (v.empty())
        return l;
    std::sort(v.begin(), v.end());
    auto at = [&v](std::uint64_t permille) {
        std::uint64_t rank = (permille * v.size() + 999) / 1000;
        rank = std::max<std::uint64_t>(rank, 1);
        return v[rank - 1];
    };
    l.p50 = fcos::timeToUs(at(500));
    l.tail = l.p50;
    if (v.size() < 40)
        return l;
    for (std::uint64_t permille : {999, 990, 950, 900, 750}) {
        const std::uint64_t rank = (permille * v.size() + 999) / 1000;
        if (v.size() - rank >= 10) {
            l.tail = fcos::timeToUs(at(permille));
            l.tailPct = static_cast<double>(permille) / 10.0;
            break;
        }
    }
    return l;
}

/** The program's registry counters at one instant (traced runs). */
struct RegistrySnap
{
    std::uint64_t dieOps = 0, dma = 0, events = 0, waves = 0, bypass = 0;
    std::uint64_t waveCount = 0, waveSum = 0;
    std::uint64_t poolWall = 0, laneBusy = 0;
};

RegistrySnap
snapRegistry(fcos::obs::Registry &m, std::uint32_t workers)
{
    RegistrySnap s;
    s.dieOps = m.counter("engine.die_ops").value();
    s.dma = m.counter("engine.dma_transfers").value();
    s.events = m.counter("sim.queue.events_executed").value();
    s.waves = m.counter("sim.queue.waves").value();
    s.bypass = m.counter("sim.queue.heap_bypass_hits").value();
    const fcos::obs::Histogram &h = m.histogram("sim.queue.wave_size");
    s.waveCount = h.count();
    s.waveSum = h.sum();
    s.poolWall = m.counter("host.pool.wall_ns").value();
    for (std::uint32_t t = 0; t < workers; ++t)
        s.laneBusy +=
            m.counter("host.pool.lane" + std::to_string(t) + ".busy_ns")
                .value();
    return s;
}

/** Simulated drive state at a window boundary. */
struct SimSnap
{
    Time now = 0;
    double energyJ = 0.0;
    Drive::GcTotals gc;
    std::uint64_t sensedBits = 0;
    std::uint64_t injectedErrors = 0;
    RegistrySnap reg;
};

std::unique_ptr<Workload>
makeWorkload(Run &run)
{
    if (run.opt.workload == "bitmap_query")
        return makeBitmapQuery(run);
    if (run.opt.workload == "churn_soak")
        return makeChurnSoak(run);
    if (run.opt.workload == "open_mixed")
        return makeOpenMixed(run);
    usage(("unknown workload " + run.opt.workload).c_str());
}

double
peakRssMiB()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printJson(const Run &run, const std::vector<Metric> &metrics)
{
    const bool correct = run.failed == 0 && run.violations.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(run.attempted),
                static_cast<unsigned long long>(run.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), v,
                    metrics[i].unit);
    }
    std::printf("}}\n");
}

int
runMain(int argc, char **argv)
{
    const std::uint64_t t_start = hostNs();
    const Options opt = parse(argc, argv);

    Tracer tracer(opt.trace, 100000);
    // Traced runs read the program's own counters through a scoped
    // registry; it must exist before the drive is constructed.
    std::optional<fcos::obs::ScopedCapture> capture;
    if (opt.trace)
        capture.emplace(/*trace=*/false, /*metrics=*/true);

    Run run(opt, tracer);
    std::unique_ptr<Workload> w = makeWorkload(run);
    w->setup();
    const double setup_s = static_cast<double>(hostNs() - t_start) * 1e-9;
    Drive &drive = w->drive();
    const std::uint32_t workers = drive.engine().scheduler().workerCount();

    auto simSnap = [&]() {
        SimSnap s;
        s.now = drive.now();
        s.energyJ = drive.engine().totalEnergyJ();
        s.gc = drive.gcTotals();
        s.sensedBits = w->sensedBits();
        s.injectedErrors = w->injectedErrors();
        if (capture)
            s.reg = snapRegistry(capture->metricsRegistry(), workers);
        return s;
    };

    tracer.fold();
    const Tracer::Totals setup_totals = tracer.totals();
    const std::uint32_t window =
        opt.rounds ? static_cast<std::uint32_t>(std::min<std::uint64_t>(
                         opt.rounds, w->windowRounds()))
                   : w->windowRounds();
    const SimSnap start = simSnap();
    SimSnap end = start;
    const RegistrySnap phase_reg0 = start.reg;
    const std::uint64_t completed0 = run.completed;

    const std::uint64_t pages0 = run.pagesProgrammed + run.pagesDelivered;
    std::uint64_t rounds = 0;
    std::uint64_t phase_ns = 0; // rounds only: folds run between them
    const std::uint64_t phase_start = hostNs();
    for (std::uint64_t k = 1;; ++k) {
        run.inWindow = k <= window;
        run.corruptArmed = opt.corruptSink && k == 1;
        const std::uint64_t r0 = hostNs();
        w->round(k);
        phase_ns += hostNs() - r0;
        rounds = k;
        if (run.completed != run.attempted)
            run.violate("round " + std::to_string(k) + ": " +
                        std::to_string(run.completed) +
                        " outcomes for " + std::to_string(run.attempted) +
                        " submitted requests");
        if (k == window)
            end = simSnap();
        tracer.fold();
        const bool done =
            opt.rounds ? k >= opt.rounds
                       : (k >= window &&
                          static_cast<double>(hostNs() - phase_start) *
                                  1e-9 >=
                              opt.seconds);
        if (done)
            break;
    }
    run.inWindow = false;
    const RegistrySnap phase_reg1 =
        capture ? snapRegistry(capture->metricsRegistry(), workers)
                : RegistrySnap{};
    const std::uint64_t phase_requests = run.completed - completed0;

    // ---- independent totals and property checks -------------------
    if (drive.gcTotals().hostPagesWritten != run.pagesProgrammed)
        run.violate("drive wrote " +
                    std::to_string(drive.gcTotals().hostPagesWritten) +
                    " host pages, benchmark submitted " +
                    std::to_string(run.pagesProgrammed));
    if (run.statsResultPages != run.pagesDelivered)
        run.violate("drive read out " +
                    std::to_string(run.statsResultPages) +
                    " result pages, sinks received " +
                    std::to_string(run.pagesDelivered));
    w->finalChecks();

    Latency lat[kClasses], wait[kClasses], service[kClasses];
    for (int c = 0; c < kClasses; ++c) {
        std::vector<Time> e2e, wt, sv;
        for (const Outcome &oc : run.samples[c]) {
            e2e.push_back(oc.completed - oc.arrival);
            wt.push_back(oc.admitted - oc.arrival);
            sv.push_back(oc.completed - oc.admitted);
        }
        lat[c] = summarize(std::move(e2e));
        wait[c] = summarize(std::move(wt));
        service[c] = summarize(std::move(sv));
    }

    std::printf("# workload %s seed %llu workers %u rounds %zu window %u\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), workers,
                static_cast<std::size_t>(rounds), window);
    std::printf("# digest %016llx\n",
                static_cast<unsigned long long>(run.digest));
    for (int c = 0; c < kClasses; ++c)
        std::printf("# latency %s samples %zu tail_percentile %.1f\n",
                    className(c), lat[c].n, lat[c].tailPct);
    for (const std::string &v : run.violations)
        std::fprintf(stderr, "perfbench: property violated: %s\n",
                     v.c_str());

    const double host_pages =
        static_cast<double>(end.gc.hostPagesWritten -
                            start.gc.hostPagesWritten);
    // Rates over the whole measured phase: a time-weighted mean, which
    // averages slow drifts of host speed within a run.
    const double phase_s = static_cast<double>(phase_ns) * 1e-9;
    const double requests_per_s =
        static_cast<double>(phase_requests) / phase_s;
    std::vector<Metric> m;
    if (!opt.trace) {
        m.push_back({"setup_s", setup_s, "s"});
        m.push_back({"requests_per_s", requests_per_s, "req/s"});
        m.push_back({"pages_per_s",
                     static_cast<double>(run.pagesProgrammed +
                                         run.pagesDelivered - pages0) /
                         phase_s,
                     "pages/s"});
        m.push_back({"peak_rss_mib", peakRssMiB(), "MiB"});
        m.push_back({"sim_makespan_ms",
                     fcos::timeToMs(end.now - start.now), "sim_ms"});
        m.push_back(
            {"sim_energy_mj", (end.energyJ - start.energyJ) * 1e3, "mJ"});
        for (int c = 0; c < kClasses; ++c) {
            m.push_back({std::string(className(c)) + "_p50_us", lat[c].p50,
                         "sim_us"});
            m.push_back({std::string(className(c)) + "_tail_us",
                         lat[c].tail, "sim_us"});
        }
        m.push_back({"write_amplification",
                     host_pages > 0
                         ? (host_pages + static_cast<double>(
                                             end.gc.pageCopies -
                                             start.gc.pageCopies)) /
                               host_pages
                         : 1.0,
                     "ratio"});
        printJson(run, m);
        return 0;
    }

    // ---- per-layer metrics of the traced run ------------------------
    const Tracer::Totals &tt = tracer.totals();
    auto idx = [](SpanKind k) { return static_cast<std::size_t>(k); };
    auto self = [&](SpanKind k) {
        return static_cast<double>(tt.selfNs[idx(k)] -
                                   setup_totals.selfNs[idx(k)]);
    };
    auto total = [&](SpanKind k) {
        return static_cast<double>(tt.totalNs[idx(k)] -
                                   setup_totals.totalNs[idx(k)]);
    };
    auto calls = [&](SpanKind k) {
        return static_cast<double>(tt.count[idx(k)] -
                                   setup_totals.count[idx(k)]);
    };
    auto perCall = [&](SpanKind k) {
        return calls(k) > 0 ? self(k) / calls(k) : 0.0;
    };
    const double reqs = static_cast<double>(std::max<std::uint64_t>(
        phase_requests, 1));
    const double wait_self = self(SpanKind::WaitAll) + self(SpanKind::AdvanceTo);
    const double events =
        static_cast<double>(phase_reg1.events - phase_reg0.events);
    const double pool_wall =
        static_cast<double>(phase_reg1.poolWall - phase_reg0.poolWall);
    fcos::obs::Registry &reg = capture->metricsRegistry();

    m.push_back({"core.submit.read_ns", perCall(SpanKind::SubmitRead), "ns"});
    m.push_back(
        {"core.submit.write_ns", perCall(SpanKind::SubmitWrite), "ns"});
    m.push_back(
        {"core.submit.compute_ns", perCall(SpanKind::SubmitCompute), "ns"});
    m.push_back({"ssd.trim_ns", perCall(SpanKind::Trim), "ns"});
    m.push_back({"ssd.gc.runs",
                 static_cast<double>(end.gc.runs - start.gc.runs), "count"});
    m.push_back({"ssd.gc.page_copies",
                 static_cast<double>(end.gc.pageCopies -
                                     start.gc.pageCopies),
                 "count"});
    m.push_back({"ssd.gc.blocks_erased",
                 static_cast<double>(end.gc.blocksErased -
                                     start.gc.blocksErased),
                 "count"});
    m.push_back({"ssd.host_pages_written", host_pages, "count"});
    m.push_back({"ssd.live_vectors",
                 static_cast<double>(drive.liveVectorCount()), "count"});
    for (int c = 0; c < kClasses; ++c) {
        const std::string cls = className(c);
        m.push_back({"engine.admission.wait_p50_us." + cls, wait[c].p50,
                     "sim_us"});
        m.push_back({"engine.admission.wait_tail_us." + cls, wait[c].tail,
                     "sim_us"});
        m.push_back({"engine.service_p50_us." + cls, service[c].p50,
                     "sim_us"});
    }
    m.push_back({"engine.admission.inflight_peak",
                 reg.gauge("engine.admission.inflight_peak").max(),
                 "count"});
    m.push_back({"engine.wait_self_ns", wait_self / reqs, "ns"});
    m.push_back({"engine.die_ops",
                 static_cast<double>(end.reg.dieOps - start.reg.dieOps),
                 "count"});
    m.push_back({"engine.dma_transfers",
                 static_cast<double>(end.reg.dma - start.reg.dma), "count"});
    m.push_back({"sim.queue.events_executed",
                 static_cast<double>(end.reg.events - start.reg.events),
                 "count"});
    m.push_back({"sim.queue.waves",
                 static_cast<double>(end.reg.waves - start.reg.waves),
                 "count"});
    const std::uint64_t wave_n = end.reg.waveCount - start.reg.waveCount;
    m.push_back({"sim.queue.wave_size_mean",
                 wave_n ? static_cast<double>(end.reg.waveSum -
                                              start.reg.waveSum) /
                              static_cast<double>(wave_n)
                        : 0.0,
                 "events"});
    m.push_back({"sim.queue.heap_bypass_hits",
                 static_cast<double>(end.reg.bypass - start.reg.bypass),
                 "count"});
    m.push_back({"sim.queue.heap_depth_peak",
                 reg.gauge("sim.queue.heap_depth_peak").max(), "count"});
    m.push_back({"sim.host_ns_per_event",
                 events > 0 ? wait_self / events : 0.0, "ns"});
    m.push_back({"sim.pool.wall_ns", pool_wall / reqs, "ns"});
    m.push_back({"sim.pool.busy_frac_mean",
                 pool_wall > 0
                     ? static_cast<double>(phase_reg1.laneBusy -
                                           phase_reg0.laneBusy) /
                           (pool_wall * workers)
                     : 0.0,
                 "ratio"});
    const NandSums &n = run.nand;
    m.push_back({"nand.senses", static_cast<double>(n.senses), "count"});
    m.push_back(
        {"nand.mws_commands", static_cast<double>(n.mwsCommands), "count"});
    m.push_back(
        {"nand.latch_xors", static_cast<double>(n.latchXors), "count"});
    m.push_back({"nand.fallback_page_reads",
                 static_cast<double>(n.pageReads), "count"});
    m.push_back(
        {"nand.result_pages", static_cast<double>(n.resultPages), "count"});
    m.push_back({"nand.senses_per_result_page",
                 n.resultPages ? static_cast<double>(n.readSenses) /
                                     static_cast<double>(n.resultPages)
                               : 0.0,
                 "ratio"});
    m.push_back({"nand.busy_us", fcos::timeToUs(n.busy), "sim_us"});
    m.push_back({"nand.energy_mj", n.energyJ * 1e3, "mJ"});
    m.push_back({"reliability.inject_ns", total(SpanKind::Inject) / reqs,
                 "ns"});
    m.push_back({"reliability.sensed_bits",
                 static_cast<double>(end.sensedBits - start.sensedBits),
                 "count"});
    m.push_back({"reliability.injected_errors",
                 static_cast<double>(end.injectedErrors -
                                     start.injectedErrors),
                 "count"});
    m.push_back({"engine.stream.peak_pages",
                 static_cast<double>(n.streamPeakPages), "pages"});
    m.push_back({"bench.sink_ns", self(SpanKind::Sink) / reqs, "ns"});
    m.push_back({"bench.gen_ns", total(SpanKind::Gen) / reqs, "ns"});
    m.push_back({"bench.check_ns", total(SpanKind::Check) / reqs, "ns"});
    m.push_back({"bench.outcome_ns", self(SpanKind::Outcome) / reqs, "ns"});
    m.push_back({"host.phase_ns", static_cast<double>(phase_ns), "ns"});
    m.push_back({"host.span_coverage",
                 static_cast<double>(tt.mainTopNs -
                                     setup_totals.mainTopNs) /
                     static_cast<double>(phase_ns),
                 "ratio"});
    m.push_back({"bench.traced_requests_per_s", requests_per_s, "req/s"});

    std::error_code ec;
    std::filesystem::create_directories(opt.outDir, ec);
    const std::string path = opt.outDir + "/spans_" + opt.workload + "_" +
                             std::to_string(opt.seed) + ".tsv";
    if (ec || !tracer.write(path))
        std::fprintf(stderr, "perfbench: could not write %s\n",
                     path.c_str());
    printJson(run, m);
    return 0;
}

} // namespace
} // namespace pb

int
main(int argc, char **argv)
{
    return pb::runMain(argc, argv);
}
