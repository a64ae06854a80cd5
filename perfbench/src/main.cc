/**
 * @file
 * zbench: the repository benchmark's measuring program (see
 * perfbench/README.md; perfbench/run.py builds and drives it).
 *
 *   zbench --workload NAME --seed N --seconds S --trace 0|1
 *          --report PATH [--overhead 0|1] [--commit ID] [--corpus DIR]
 *
 * --trace 0 runs the workload untraced and reports its end-to-end
 * metrics. --trace 1 runs it traced and reports its per-layer
 * metrics; with --overhead 1 it first runs the workload untraced for
 * half the time, and reports the difference as tracing overhead.
 * Human-readable lines go to stdout; the report — provenance,
 * metrics, fingerprint, failed checks — goes to PATH, and the spans
 * of a traced run to PATH with ".spans.json" appended.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include "bench.hh"

#ifndef ZBENCH_COMPILER
#define ZBENCH_COMPILER "unknown"
#endif
#ifndef ZBENCH_BUILD_TYPE
#define ZBENCH_BUILD_TYPE "unknown"
#endif

using namespace zbench;

namespace
{

struct Workload
{
    const char *name;
    Result (*run)(const RunSpec &);
};

const Workload kWorkloads[] = {
    { "icd_cosim", runIcdCosim },
    { "oracle_sweep", runOracleSweep },
    { "concolic_sweep", runConcolicSweep },
    { "fault_campaign", runFaultCampaign },
};

/** fault_campaign's fixed worker count (at most nproc). */
constexpr unsigned kCampaignThreads = 4;

/** The five end-to-end metrics every workload reports, in order.
 *  The tail (tailOf) is reported beside them but not among them: on
 *  the image and program sweeps it is the 11th-largest of tens of
 *  thousands of items, i.e. host hiccups, and spread 100% and more
 *  from run to run. */
std::vector<Metric>
endToEnd(const Result &r, double peakRssMb)
{
    double t = r.timedSeconds();
    return {
        { "setup_s", median(r.setupS), "s" },
        { "work_per_s", t > 0 ? r.work / t : 0, "1/s" },
        { "item_ms_p50", median(r.itemMs), "ms" },
        { "item_ms_p90", percentile(r.itemMs, 90), "ms" },
        { "peak_rss_mb", peakRssMb, "MB" },
    };
}

/**
 * Bring glibc malloc to the state a long-running process converges
 * to. Its mmap and trim thresholds rise to the size of the largest
 * mmapped block freed so far; until some block of a few MiB has been
 * freed, every oracle exec returns its machines' semispaces to the
 * kernel and faults them back in, about 3x slower. Which seeds free
 * such a block early is an accident of their inputs, so without this
 * step oracle_sweep's throughput varied 3x from seed to seed.
 */
void
settleAllocator()
{
    constexpr size_t kBlock = size_t(16) << 20;
    void *p = std::malloc(kBlock);
    if (p) {
        static_cast<volatile char *>(p)[0] = 1;
        std::free(p);
    }
}

double
peakRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (unsigned char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += char(c);
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += char(c);
        }
    }
    return out + "\"";
}

/** Text that reads back as the same double. */
std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metricsObject(const std::vector<Metric> &ms)
{
    std::string s = "{";
    for (size_t i = 0; i < ms.size(); ++i)
        s += std::string(i ? ", " : "") + jsonStr(ms[i].name) +
             ": {\"value\": " + jsonNum(ms[i].value) +
             ", \"unit\": " + jsonStr(ms[i].unit) + "}";
    return s + "}";
}

void
printMetric(const Metric &m, const std::string &note = "")
{
    std::printf("  %-36s %14.6g %-14s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), note.c_str());
}

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 --report PATH [--overhead 0|1] "
                 "[--commit ID] [--corpus DIR]\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, report, commit = "unknown",
                                  corpus = "tests/corpus";
    uint64_t seed = 1;
    double seconds = 10;
    int trace = 0, overhead = 0;
    for (int i = 1; i < argc; ++i) {
        auto val = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--workload"))
            workload = val();
        else if (!std::strcmp(argv[i], "--seed"))
            seed = std::strtoull(val(), nullptr, 10);
        else if (!std::strcmp(argv[i], "--seconds"))
            seconds = std::atof(val());
        else if (!std::strcmp(argv[i], "--trace"))
            trace = std::atoi(val());
        else if (!std::strcmp(argv[i], "--overhead"))
            overhead = std::atoi(val());
        else if (!std::strcmp(argv[i], "--report"))
            report = val();
        else if (!std::strcmp(argv[i], "--commit"))
            commit = val();
        else if (!std::strcmp(argv[i], "--corpus"))
            corpus = val();
        else
            usage(argv[0]);
    }
    const Workload *focus = nullptr;
    for (const Workload &w : kWorkloads)
        if (workload == w.name)
            focus = &w;
    if (!focus || report.empty() || seconds <= 0 ||
        (trace != 0 && trace != 1))
        usage(argv[0]);

    settleAllocator();
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    RunSpec base;
    base.seed = seed;
    base.corpusDir = corpus;
    base.threads = std::min(kCampaignThreads, nproc);

    std::printf("zbench %s seed=%" PRIu64 " seconds=%g trace=%d\n",
                focus->name, seed, seconds, trace);
    std::printf("  commit=%s compiler=%s build=%s%s nproc=%u "
                "campaign_threads=%u\n",
                commit.c_str(), ZBENCH_COMPILER, ZBENCH_BUILD_TYPE,
                std::strcmp(ZBENCH_BUILD_TYPE, "Release")
                    ? " (NOT RELEASE)"
                    : "",
                nproc, base.threads);

    Result main;   // The untraced run (the overhead baseline if traced).
    Result traced; // The traced run (--trace 1).
    std::optional<Tracer> tracer;
    std::vector<Metric> metrics;
    if (!trace) {
        RunSpec s = base;
        s.seconds = seconds;
        main = focus->run(s);
    } else {
        RunSpec s = base;
        s.fingerprint = false;
        s.seconds = overhead ? seconds / 2 : seconds;
        if (overhead)
            main = focus->run(s);
        s.tracer = &tracer.emplace();
        traced = focus->run(s);
        metrics = traced.layer;
        if (overhead) {
            double base50 = median(main.itemMs);
            double tr50 = median(traced.itemMs);
            metrics.push_back({ "trace.untraced_item_ms", base50, "ms" });
            metrics.push_back({ "trace.traced_item_ms", tr50, "ms" });
            metrics.push_back({ "trace.overhead_frac",
                                base50 > 0 ? tr50 / base50 - 1 : 0,
                                "fraction" });
        }
        metrics.push_back(
            { "trace.spans", double(tracer->all().size()), "count" });
        if (tracer->droppedSpans())
            std::printf("  note: %" PRIu64 " spans past the store's "
                        "capacity were not kept\n",
                        tracer->droppedSpans());
        if (!overhead)
            main = traced;
    }

    // ---- Totals over every run this process made. ----
    uint64_t attempted = main.attempted, failed = main.failed;
    std::vector<std::string> failures = main.failures;
    if (trace && overhead) {
        attempted += traced.attempted;
        failed += traced.failed;
        failures.insert(failures.end(), traced.failures.begin(),
                        traced.failures.end());
    }
    const bool correct = failed == 0;

    const std::vector<Metric> e2e = endToEnd(main, peakRssMb());
    if (!trace)
        metrics = e2e;

    // ---- Human-readable summary. ----
    Tail tail = tailOf(main.itemMs);
    double t = main.timedSeconds();
    std::printf("end-to-end (%s, item = %s, %zu items in %.3f s)%s\n",
                main.workload.c_str(), main.itemName.c_str(),
                main.itemMs.size(), t,
                !trace      ? ""
                : overhead ? " [untraced half of a traced run]"
                           : " [traced run]");
    for (const Metric &m : e2e) {
        std::string note;
        if (m.name == "setup_s")
            note = "median of " + std::to_string(main.setupS.size());
        else if (m.name == "work_per_s")
            note = "= " + main.headlineName;
        printMetric(m, note);
    }
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "p%.2f of %zu", tail.percentile,
                      main.itemMs.size());
        printMetric({ "item_ms_tail", tail.value, "ms" }, buf);
    }
    printMetric({ main.headlineName, t > 0 ? main.work / t : 0,
                  main.headlineUnit });
    printMetric({ "failed_frac",
                  attempted ? double(failed) / double(attempted) : 0,
                  "fraction" },
                std::to_string(failed) + "/" + std::to_string(attempted));
    for (const Metric &m : main.extra)
        printMetric(m);
    if (trace) {
        std::printf("per-layer (traced, %zu items)\n",
                    traced.itemMs.size());
        for (const Metric &m : metrics)
            printMetric(m);
    }
    for (const std::string &f : failures)
        std::printf("  FAILED CHECK: %s\n", f.c_str());

    // ---- Report. ----
    FILE *f = std::fopen(report.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "zbench: cannot write %s\n", report.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"schema\": 1,\n");
    std::fprintf(f, "  \"workload\": %s,\n", jsonStr(focus->name).c_str());
    std::fprintf(f,
                 "  \"provenance\": {\"commit\": %s, \"compiler\": %s, "
                 "\"build_type\": %s, \"release\": %s, \"nproc\": %u, "
                 "\"campaign_threads\": %u, \"seed\": %" PRIu64
                 ", \"seconds\": %s, \"trace\": %d, \"samples\": {",
                 jsonStr(commit).c_str(), jsonStr(ZBENCH_COMPILER).c_str(),
                 jsonStr(ZBENCH_BUILD_TYPE).c_str(),
                 std::strcmp(ZBENCH_BUILD_TYPE, "Release") ? "false"
                                                           : "true",
                 nproc, base.threads, seed, jsonNum(seconds).c_str(),
                 trace);
    {
        std::vector<std::pair<std::string, uint64_t>> samples =
            main.samples;
        samples.push_back({ "setup_reps", main.setupS.size() });
        samples.push_back({ "items", main.itemMs.size() });
        for (size_t i = 0; i < samples.size(); ++i)
            std::fprintf(f, "%s%s: %" PRIu64, i ? ", " : "",
                         jsonStr(samples[i].first).c_str(),
                         samples[i].second);
    }
    std::fprintf(f, "}},\n");
    std::fprintf(f,
                 "  \"result\": {\"correct\": %s, \"attempted\": %" PRIu64
                 ", \"failed\": %" PRIu64 ", \"metrics\": %s},\n",
                 correct ? "true" : "false", attempted, failed,
                 metricsObject(metrics).c_str());
    {
        std::vector<Metric> named = e2e;
        named.push_back({ main.headlineName, t > 0 ? main.work / t : 0,
                          main.headlineUnit });
        named.push_back({ "failed_frac",
                          attempted ? double(failed) / double(attempted)
                                    : 0,
                          "fraction" });
        named.push_back({ "item_ms_tail", tail.value, "ms" });
        named.push_back({ "item_ms_tail_percentile", tail.percentile,
                          "%" });
        named.push_back({ "item_count", double(main.itemMs.size()),
                          "count" });
        named.insert(named.end(), main.extra.begin(), main.extra.end());
        std::fprintf(f, "  \"item\": %s,\n",
                     jsonStr(main.itemName).c_str());
        std::fprintf(f, "  \"end_to_end\": %s,\n",
                     metricsObject(named).c_str());
    }
    std::fprintf(f, "  \"setup_s_samples\": [");
    for (size_t i = 0; i < main.setupS.size(); ++i)
        std::fprintf(f, "%s%s", i ? ", " : "", jsonNum(main.setupS[i]).c_str());
    std::fprintf(f, "],\n");
    std::fprintf(f, "  \"fingerprint\": {");
    for (size_t i = 0; i < main.fingerprint.size(); ++i)
        std::fprintf(f, "%s%s: %s", i ? ", " : "",
                     jsonStr(main.fingerprint[i].first).c_str(),
                     jsonStr(main.fingerprint[i].second).c_str());
    std::fprintf(f, "},\n  \"failures\": [");
    for (size_t i = 0; i < failures.size(); ++i)
        std::fprintf(f, "%s%s", i ? ", " : "", jsonStr(failures[i]).c_str());
    std::fprintf(f, "]\n}\n");
    std::fclose(f);

    if (trace) {
        std::string sp = report + ".spans.json";
        FILE *g = std::fopen(sp.c_str(), "w");
        if (!g) {
            std::fprintf(stderr, "zbench: cannot write %s\n", sp.c_str());
            return 1;
        }
        tracer->writeJson(g);
        std::fclose(g);
    }
    return 0;
}
