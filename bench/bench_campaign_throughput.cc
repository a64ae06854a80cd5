/**
 * @file
 * Campaign-scale throughput of the two-layer co-simulation
 * (docs/PERF.md, "Campaign-scale execution"): how many scenarios
 * per second a fault-injection campaign and a refinement sweep
 * sustain under the three load strategies —
 *
 *   cold    — parse + predecode the image per scenario, rebuild
 *             golden runs per campaign (the original path);
 *   shared  — one immutable LoadedImage per campaign, golden shock
 *             logs cached process-wide by content;
 *   fork    — shared, plus scenarios resume from the warm system
 *             snapshot the golden run captured at the fault
 *             window's start, skipping the fault-free prefix.
 *
 * The strategies must be indistinguishable in output: the bench
 * byte-compares every campaign's JSON against the cold reference
 * (and across thread counts) and exits nonzero on any mismatch.
 *
 *   bench_campaign_throughput [--smoke] [--threads N] [--seed N]
 *
 * Emits BENCH_campaign_throughput.json at the repository root (a
 * --smoke run writes it to the working directory instead).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_paths.hh"
#include "fault/campaign.hh"
#include "icd/zarf_icd.hh"
#include "verify/parallel.hh"

using namespace zarf;

namespace
{

double
now()
{
    using clk = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clk::now().time_since_epoch())
        .count();
}

const char *
strategyName(fault::LoadStrategy s)
{
    switch (s) {
      case fault::LoadStrategy::Cold:
        return "cold";
      case fault::LoadStrategy::Shared:
        return "shared";
      case fault::LoadStrategy::Fork:
        return "fork";
    }
    return "?";
}

struct Row
{
    std::string section;
    std::string strategy;
    unsigned threads = 0;
    size_t scenarios = 0;
    double wallSec = 0;

    double
    perSec() const
    {
        return wallSec > 0 ? double(scenarios) / wallSec : 0;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    unsigned threads = 0;
    uint64_t seed = 1;
    for (int i = 1; i < argc; ++i) {
        if (!strcmp(argv[i], "--smoke")) {
            smoke = true;
        } else if (!strcmp(argv[i], "--threads") && i + 1 < argc) {
            threads = unsigned(atoi(argv[++i]));
        } else if (!strcmp(argv[i], "--seed") && i + 1 < argc) {
            seed = uint64_t(atoll(argv[++i]));
        } else {
            fprintf(stderr,
                    "usage: %s [--smoke] [--threads N] [--seed N]\n",
                    argv[0]);
            return 2;
        }
    }
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }

    // Shortened horizons keep the sweep affordable; the fault
    // windows still open inside them, so the fork strategy has a
    // real fault-free prefix to skip.
    fault::CampaignConfig base;
    base.scenarios = smoke ? 11 : 44;
    base.threads = threads;
    base.seedBase = seed;
    base.sinusSeconds = smoke ? 0.35 : 0.4;
    base.vtSeconds = 1.7;

    printf("=== campaign throughput: cold vs shared vs "
           "snapshot-fork%s ===\n\n",
           smoke ? " (smoke)" : "");
    printf("fault campaign: %zu scenarios, %u threads, seed %llu\n\n",
           base.scenarios, threads, (unsigned long long)seed);
    printf("  %-10s %8s %10s %14s\n", "strategy", "threads",
           "host s", "scenarios/s");

    std::vector<Row> rows;
    std::string coldJson;
    bool mismatch = false;
    double coldWall = 0, forkWall = 0;

    for (fault::LoadStrategy s : { fault::LoadStrategy::Cold,
                                   fault::LoadStrategy::Shared,
                                   fault::LoadStrategy::Fork }) {
        fault::CampaignConfig cfg = base;
        cfg.strategy = s;
        double t0 = now();
        fault::CampaignReport report = fault::runCampaign(cfg);
        double t1 = now();

        Row row;
        row.section = "fault-campaign";
        row.strategy = strategyName(s);
        row.threads = threads;
        row.scenarios = report.results.size();
        row.wallSec = t1 - t0;
        printf("  %-10s %8u %10.3f %14.2f\n", row.strategy.c_str(),
               row.threads, row.wallSec, row.perSec());
        rows.push_back(row);

        std::string json = report.toJson();
        if (s == fault::LoadStrategy::Cold) {
            coldJson = std::move(json);
            coldWall = row.wallSec;
        } else if (json != coldJson) {
            fprintf(stderr,
                    "FAIL: %s strategy JSON differs from cold\n",
                    row.strategy.c_str());
            mismatch = true;
        }
        if (s == fault::LoadStrategy::Fork)
            forkWall = row.wallSec;
    }

    // Thread-count determinism: a single-threaded fork campaign
    // must render byte-identically to the multi-threaded one.
    {
        fault::CampaignConfig cfg = base;
        cfg.strategy = fault::LoadStrategy::Fork;
        cfg.threads = 1;
        double t0 = now();
        fault::CampaignReport report = fault::runCampaign(cfg);
        double t1 = now();
        Row row;
        row.section = "fault-campaign";
        row.strategy = "fork";
        row.threads = 1;
        row.scenarios = report.results.size();
        row.wallSec = t1 - t0;
        printf("  %-10s %8u %10.3f %14.2f\n", row.strategy.c_str(),
               row.threads, row.wallSec, row.perSec());
        rows.push_back(row);
        if (report.toJson() != coldJson) {
            fprintf(stderr, "FAIL: fork @1 thread JSON differs "
                            "from cold\n");
            mismatch = true;
        }
    }

    double speedup = forkWall > 0 ? coldWall / forkWall : 0;
    printf("\n  snapshot-fork speedup over cold: %.2fx "
           "(target >= 1.5x)\n\n",
           speedup);

    // Refinement sweep: repeated fan-outs over the process-wide
    // worker pool (verify::detail::poolRun) — the case the pool
    // exists for, since each invocation used to spawn and join its
    // own jthreads.
    Program icdProgram = icd::buildIcdStepProgram();
    const size_t sweepReps = smoke ? 4 : 10;
    const size_t shards = 32;
    const size_t samples = smoke ? 200 : 1000;
    printf("refinement sweep: %zu invocations x %zu shards x %zu "
           "samples\n\n",
           sweepReps, shards, samples);
    printf("  %-10s %8s %10s %14s\n", "threads", "reps", "host s",
           "shards/s");

    std::string sweepSummary1, sweepSummaryN;
    for (unsigned t : { 1u, threads }) {
        if (t == threads && threads == 1 && !sweepSummary1.empty()) {
            sweepSummaryN = sweepSummary1;
            break;
        }
        verify::ParallelConfig pcfg;
        pcfg.threads = t;
        pcfg.seedBase = seed;
        pcfg.shards = shards;
        double t0 = now();
        std::string summary;
        for (size_t rep = 0; rep < sweepReps; ++rep) {
            verify::ParallelReport r = verify::refinementCampaign(
                icdProgram, samples, pcfg);
            summary = r.summary();
        }
        double t1 = now();
        Row row;
        row.section = "refinement-sweep";
        row.strategy = "pool";
        row.threads = t;
        row.scenarios = shards * sweepReps;
        row.wallSec = t1 - t0;
        printf("  %-10u %8zu %10.3f %14.2f\n", t, sweepReps,
               row.wallSec, row.perSec());
        rows.push_back(row);
        (t == 1 ? sweepSummary1 : sweepSummaryN) = summary;
    }
    if (sweepSummary1 != sweepSummaryN) {
        fprintf(stderr, "FAIL: refinement sweep summary differs "
                        "across thread counts\n");
        mismatch = true;
    }
    printf("\n");

    std::string path =
        benchio::outputPath("BENCH_campaign_throughput.json", smoke);
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::perror(path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"smoke\": %s,\n  \"rows\": [\n",
                 smoke ? "true" : "false");
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(f,
                     "    {\"section\": \"%s\", \"strategy\": "
                     "\"%s\", \"threads\": %u, \"scenarios\": %zu, "
                     "\"wall_sec\": %.6f, \"per_sec\": %.2f}%s\n",
                     r.section.c_str(), r.strategy.c_str(),
                     r.threads, r.scenarios, r.wallSec, r.perSec(),
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"fork_speedup_over_cold\": %.3f,\n"
                 "  \"json_identical\": %s\n}\n",
                 speedup, mismatch ? "false" : "true");
    std::fclose(f);
    printf("wrote %s\n", path.c_str());

    return mismatch ? 1 : 0;
}
