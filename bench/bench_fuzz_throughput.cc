/**
 * @file
 * Differential-oracle throughput of the conformance fuzzer
 * (docs/TESTING.md). One oracle execution runs a candidate through
 * all evaluators plus the snapshot replay, so this is the number
 * that sizes nightly campaigns: candidates per wall-clock second
 * across the verify worker pool.
 *
 * The campaign is run once per oracle rotation rung, after one
 * untimed warm-up campaign, so the cost of the fast-functional
 * comparison is visible as its own row:
 *
 *   cycle-tiers      word-walk + µop bit-comparison only
 *   +fast            ... plus the fast-functional outcome check
 *                    (the default rotation nightly fuzz runs)
 *
 * Emits BENCH_fuzz_throughput.json at the repo root (a --smoke run
 * writes it to the working directory instead).
 *
 *   bench_fuzz_throughput [--seed N] [--rounds N] [--per-round N]
 *                         [--threads N] [--smoke]
 *
 * --smoke runs a small fixed-seed campaign and exits nonzero when
 * the full-rotation throughput falls below the 1,000 execs/sec
 * acceptance floor (or when the campaign finds a divergence, which
 * would be a real bug). Under asan/ubsan the floor is informational
 * only — the sanitize preset still runs the campaign (every
 * candidate executes under the sanitizers) but an order-of-magnitude
 * slowdown is expected.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_paths.hh"
#include "fuzz/fuzzer.hh"

using namespace zarf;
using namespace zarf::fuzz;

#if defined(__SANITIZE_ADDRESS__)
#define ZARF_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ZARF_SANITIZED 1
#endif
#endif
#ifndef ZARF_SANITIZED
#define ZARF_SANITIZED 0
#endif

int
main(int argc, char **argv)
{
    FuzzConfig cfg;
    cfg.rounds = 16;
    cfg.perRound = 128;
    cfg.maxDivergences = 1;
    bool smoke = false;

    for (int i = 1; i < argc; ++i) {
        if (!strcmp(argv[i], "--seed") && i + 1 < argc) {
            cfg.seed = uint64_t(atoll(argv[++i]));
        } else if (!strcmp(argv[i], "--rounds") && i + 1 < argc) {
            cfg.rounds = size_t(atoll(argv[++i]));
        } else if (!strcmp(argv[i], "--per-round") && i + 1 < argc) {
            cfg.perRound = size_t(atoll(argv[++i]));
        } else if (!strcmp(argv[i], "--threads") && i + 1 < argc) {
            cfg.threads = unsigned(atoi(argv[++i]));
        } else if (!strcmp(argv[i], "--smoke")) {
            smoke = true;
            cfg.rounds = 6;
            cfg.perRound = 64;
        } else {
            fprintf(stderr,
                    "usage: %s [--seed N] [--rounds N] "
                    "[--per-round N] [--threads N] [--smoke]\n",
                    argv[0]);
            return 2;
        }
    }

    struct Rung
    {
        const char *name;
        bool fast;
        size_t executed = 0;
        double secs = 0;
        double rate = 0;
        bool clean = true;
        std::string summary;
        std::vector<Finding> findings;
    };
    std::vector<Rung> rungs = {
        { "cycle-tiers", false },
        { "+fast", true },
    };

    printf("=== fuzz throughput: oracle rotation rungs%s ===\n\n",
           smoke ? " (smoke)" : "");

    // One untimed campaign with the first rung's config, results
    // discarded: it grows the worker pool and settles the allocator
    // and caches, so the first timed rung does not run cold.
    {
        FuzzConfig wc = cfg;
        wc.oracle.compareFast = rungs.front().fast;
        (void)runFuzz(wc);
    }

    for (Rung &r : rungs) {
        FuzzConfig rc = cfg;
        rc.oracle.compareFast = r.fast;
        auto t0 = std::chrono::steady_clock::now();
        FuzzResult res = runFuzz(rc);
        r.secs = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
        r.executed = res.executed;
        r.rate = r.secs > 0 ? double(res.executed) / r.secs : 0;
        r.clean = res.clean();
        r.summary = res.summary();
        r.findings = std::move(res.findings);
        printf("  %-16s %6zu execs in %7.3f s = %7.0f execs/sec\n",
               r.name, r.executed, r.secs, r.rate);
        printf("  %-16s %s\n\n", "", r.summary.c_str());
    }

    const Rung &base = rungs[0];
    const Rung &full = rungs.back();
    if (base.rate > 0 && full.rate > 0)
        printf("  full rotation runs at %.0f%% of the cycle-tier "
               "rotation's throughput\n\n",
               100.0 * full.rate / base.rate);

    std::string outPath =
        benchio::outputPath("BENCH_fuzz_throughput.json", smoke);
    FILE *f = fopen(outPath.c_str(), "w");
    if (f) {
        fprintf(f, "{\n  \"smoke\": %s,\n  \"rows\": [\n",
                smoke ? "true" : "false");
        for (size_t i = 0; i < rungs.size(); ++i) {
            const Rung &r = rungs[i];
            fprintf(f,
                    "    {\"rotation\": \"%s\", "
                    "\"compare_fast\": %s, "
                    "\"execs\": %zu, \"wall_sec\": %.6f, "
                    "\"execs_per_sec\": %.1f, \"clean\": %s}%s\n",
                    r.name, r.fast ? "true" : "false", r.executed, r.secs,
                    r.rate, r.clean ? "true" : "false",
                    i + 1 < rungs.size() ? "," : "");
        }
        fprintf(f, "  ]\n}\n");
        fclose(f);
        printf("wrote %s\n", outPath.c_str());
    } else {
        perror(outPath.c_str());
    }

    bool bad = false;
    for (const Rung &r : rungs) {
        if (r.clean)
            continue;
        bad = true;
        for (const Finding &fi : r.findings)
            printf("  DIVERGENCE [%s]: %s\n", r.name,
                   fi.detail.c_str());
    }
    if (bad)
        return 1;
    if (smoke && full.rate < 1000.0) {
        if (ZARF_SANITIZED) {
            printf("  below the 1000 execs/sec floor "
                   "(informational: sanitized build)\n");
        } else {
            printf("  FAIL: below the 1000 execs/sec floor\n");
            return 1;
        }
    }
    return 0;
}
