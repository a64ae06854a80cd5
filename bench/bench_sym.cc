/**
 * @file
 * Throughput of the concolic symbolic executor (docs/SYMBOLIC.md):
 * paths explored per wall-clock second, and the fraction of feasible
 * paths that survive full concretize-and-replay validation against
 * the differential oracle. Three rungs isolate where the time goes:
 *
 *   explore           symbolic evaluation + path enumeration only
 *   +solve            ... plus solving every path condition
 *   +solve+replay     ... plus oracle replay of every Sat model
 *                     (the configuration `ctest -L sym` and the
 *                     nightly corpus sweep actually run)
 *
 * Emits BENCH_sym_throughput.json at the repo root (a --smoke run
 * writes it to the working directory instead).
 *
 *   bench_sym [--seed N] [--programs N] [--threads N] [--smoke]
 *
 * --smoke runs a small fixed-seed sweep and exits nonzero on any
 * divergence (a real bug in either the symbolic semantics or the
 * machine) or when full-rung throughput falls below the 200
 * paths/sec acceptance floor. Under asan/ubsan the floor is
 * informational only.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_paths.hh"
#include "fuzz/genprog.hh"
#include "isa/binary.hh"
#include "sym/concolic.hh"
#include "sym/explore.hh"
#include "verify/parallel.hh"

using namespace zarf;
using namespace zarf::sym;

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

namespace
{

struct Totals
{
    uint64_t programs = 0;
    uint64_t paths = 0;
    uint64_t feasible = 0;
    uint64_t replayed = 0;
    uint64_t diverged = 0;
};

Image
genImage(uint64_t seed)
{
    fuzz::GenConfig gc;
    fuzz::ProgramGenerator gen(seed, gc);
    return encodeProgram(gen.generate().build());
}

ConcolicConfig
benchConfig()
{
    ConcolicConfig cfg;
    cfg.eval.maxVars = 6;
    cfg.eval.maxChoices = 16;
    cfg.explore.maxPaths = 24;
    cfg.threads = 1; // parallelism is across programs
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t seed = 1;
    uint64_t programs = 256;
    unsigned threads = 0;
    bool smoke = false;

    for (int i = 1; i < argc; ++i) {
        if (!strcmp(argv[i], "--seed") && i + 1 < argc) {
            seed = uint64_t(atoll(argv[++i]));
        } else if (!strcmp(argv[i], "--programs") && i + 1 < argc) {
            programs = uint64_t(atoll(argv[++i]));
        } else if (!strcmp(argv[i], "--threads") && i + 1 < argc) {
            threads = unsigned(atoi(argv[++i]));
        } else if (!strcmp(argv[i], "--smoke")) {
            smoke = true;
            programs = 64;
        } else {
            fprintf(stderr,
                    "usage: %s [--seed N] [--programs N] "
                    "[--threads N] [--smoke]\n",
                    argv[0]);
            return 2;
        }
    }

    struct Rung
    {
        const char *name;
        bool solve;
        bool replay;
        Totals t;
        double secs = 0;
        double rate = 0;
    };
    std::vector<Rung> rungs = {
        { "explore", false, false, {}, 0, 0 },
        { "+solve", true, false, {}, 0, 0 },
        { "+solve+replay", true, true, {}, 0, 0 },
    };

    printf("=== sym throughput: %llu generated programs%s ===\n\n",
           (unsigned long long)programs, smoke ? " (smoke)" : "");
    for (Rung &r : rungs) {
        verify::ParallelConfig pc;
        pc.threads = threads;
        pc.seedBase = seed;
        pc.shards = size_t(programs);
        auto t0 = std::chrono::steady_clock::now();
        std::vector<Totals> shards = verify::shardMap(
            pc, [&](size_t shard, uint64_t) -> Totals {
                Totals t;
                Image img = genImage(seed + shard);
                if (!r.solve) {
                    DecodeResult dec = decodeProgram(img);
                    if (!dec.ok)
                        return t;
                    SymEvalConfig ec = benchConfig().eval;
                    SymEval ev(dec.program, ec);
                    ExploreResult ex =
                        explorePaths(ev, benchConfig().explore);
                    t.programs = 1;
                    t.paths = ex.paths.size();
                    return t;
                }
                ConcolicConfig cfg = benchConfig();
                cfg.replay = r.replay;
                ConcolicReport rep = runConcolic(img, cfg);
                if (!rep.originalUsable)
                    return t;
                t.programs = 1;
                t.paths = rep.paths.size();
                t.feasible = rep.feasiblePaths;
                t.replayed = rep.replayedPaths;
                t.diverged = rep.divergedPaths;
                return t;
            });
        for (const Totals &s : shards) {
            r.t.programs += s.programs;
            r.t.paths += s.paths;
            r.t.feasible += s.feasible;
            r.t.replayed += s.replayed;
            r.t.diverged += s.diverged;
        }
        r.secs = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
        r.rate = r.secs > 0 ? double(r.t.paths) / r.secs : 0;
        printf("  %-14s %6llu paths in %7.3f s = %8.0f paths/sec\n",
               r.name, (unsigned long long)r.t.paths, r.secs,
               r.rate);
        if (r.replay) {
            double frac =
                r.t.feasible
                    ? double(r.t.replayed) / double(r.t.feasible)
                    : 1.0;
            printf("  %-14s %llu/%llu feasible paths "
                   "replay-validated (%.1f%%), %llu divergences\n",
                   "", (unsigned long long)r.t.replayed,
                   (unsigned long long)r.t.feasible, 100.0 * frac,
                   (unsigned long long)r.t.diverged);
        }
        printf("\n");
    }

    std::string outPath =
        benchio::outputPath("BENCH_sym_throughput.json", smoke);
    FILE *f = fopen(outPath.c_str(), "w");
    if (f) {
        fprintf(f,
                "{\n  \"smoke\": %s,\n  \"programs\": %llu,\n"
                "  \"rows\": [\n",
                smoke ? "true" : "false",
                (unsigned long long)programs);
        for (size_t i = 0; i < rungs.size(); ++i) {
            const Rung &r = rungs[i];
            double frac =
                r.t.feasible
                    ? double(r.t.replayed) / double(r.t.feasible)
                    : 1.0;
            fprintf(f,
                    "    {\"rung\": \"%s\", \"paths\": %llu, "
                    "\"wall_sec\": %.6f, "
                    "\"paths_per_sec\": %.1f, "
                    "\"feasible\": %llu, \"replayed\": %llu, "
                    "\"replay_validated_fraction\": %.4f, "
                    "\"diverged\": %llu}%s\n",
                    r.name, (unsigned long long)r.t.paths, r.secs,
                    r.rate, (unsigned long long)r.t.feasible,
                    (unsigned long long)r.t.replayed, frac,
                    (unsigned long long)r.t.diverged,
                    i + 1 < rungs.size() ? "," : "");
        }
        fprintf(f, "  ]\n}\n");
        fclose(f);
        printf("wrote %s\n", outPath.c_str());
    } else {
        perror(outPath.c_str());
    }

    const Rung &full = rungs.back();
    if (full.t.diverged) {
        printf("  FAIL: %llu divergences\n",
               (unsigned long long)full.t.diverged);
        return 1;
    }
    if (smoke && full.rate < 200.0) {
        if (ZARF_SANITIZED) {
            printf("  below the 200 paths/sec floor "
                   "(informational: sanitized build)\n");
        } else {
            printf("  FAIL: below the 200 paths/sec floor\n");
            return 1;
        }
    }
    return 0;
}
