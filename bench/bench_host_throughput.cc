/**
 * @file
 * Host-side throughput of the λ-machine simulator: simulated cycles
 * and dynamic instructions retired per host second, across the full
 * dispatch-tier ladder (docs/PERF.md) — word-walk, the µop
 * interpreter, and fast-functional. This tracks simulator
 * performance only — the two cycle-accurate tiers execute the same
 * modelled hardware cycle for cycle, which bench_sec6_cpi and the
 * differential suite check; here we measure how fast the host gets
 * through them. The fast-functional tier drops the cycle model
 * entirely, so tiers are compared on dynamic instructions retired
 * per host second, a tier-invariant measure of program progress.
 *
 * Timing covers execution only: machine construction — semispace
 * zeroing, image load, and (on the µop-walking tiers) predecoding —
 * happens outside the timed region. Predecode is a once-per-load
 * cost paid to make every subsequent step cheaper, the same trade
 * the paper's hardware makes by latching decoded declaration
 * metadata; a loaded kernel then runs indefinitely (cf. the ICD
 * workload).
 *
 * Emits BENCH_host_throughput.json at the repo root. Pass --smoke
 * for a seconds-long CI canary run of the same matrix; it writes the
 * JSON to the working directory instead.
 */

#include <cmath>
#include <cstdio>
#include <cstring>

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "bench_paths.hh"
#include "common_progs.hh"
#include "ecg/synth.hh"
#include "icd/zarf_icd.hh"
#include "isa/binary.hh"
#include "machine/machine.hh"
#include "support/random.hh"
#include "system/ports.hh"
#include "zasm/prelude.hh"
#include "zasm/samples.hh"
#include "zasm/zasm.hh"

using namespace zarf;

namespace
{

/** One timed run: simulated work done and host seconds spent. */
struct Sample
{
    double wallSec = 0;
    uint64_t simCycles = 0;
    uint64_t dynInstrs = 0;
};

/** One (workload, tier) measurement. */
struct Row
{
    std::string workload;
    DispatchTier tier = DispatchTier::Uop;
    Sample s;

    double cyclesPerSec() const { return s.simCycles / s.wallSec; }
    double instrsPerSec() const { return s.dynInstrs / s.wallSec; }
};

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/**
 * Run `once` (which constructs a fresh machine untimed, drives it,
 * and reports the simulated work plus the host seconds the driving
 * took) repeatedly until `minWall` timed seconds have accumulated,
 * so short workloads are measured over many instances.
 */
Sample
measure(const std::function<Sample()> &once, double minWall)
{
    // Warm-up instance: page in code and image.
    once();
    Sample total;
    do {
        Sample s = once();
        total.simCycles += s.simCycles;
        total.dynInstrs += s.dynInstrs;
        total.wallSec += s.wallSec;
    } while (total.wallSec < minWall);
    return total;
}

Sample
runToCompletion(const Image &img, MachineConfig cfg)
{
    NullBus bus;
    Machine m(img, bus, cfg);
    double t0 = now();
    Machine::Outcome o = m.run();
    double t1 = now();
    if (o.status != MachineStatus::Done) {
        std::fprintf(stderr, "workload did not finish: %s\n",
                     o.diagnostic.c_str());
        std::exit(1);
    }
    Sample s;
    s.wallSec = t1 - t0;
    s.simCycles = m.cycles();
    s.dynInstrs = m.stats().dynamicInstructions();
    return s;
}

/** Back-to-back ICD rig (as in bench_sec6_cpi). */
class BusyRig : public IoBus
{
  public:
    explicit BusyRig(ecg::Heart &h) : heart(h) {}

    SWord
    getInt(SWord port) override
    {
        if (port == sys::kPortTimer)
            return 1;
        if (port == sys::kPortEcgIn)
            return heart.nextSample();
        return 0;
    }

    void putInt(SWord, SWord) override {}

    ecg::Heart &heart;
};

/** bench::mapProgramText scaled up: map over an n-element list and
 *  fold it to a scalar, so the run is long enough for steady-state
 *  throughput to dominate the per-run fixed costs. */
std::string
mapLargeText(int n)
{
    std::string s = R"(
con Nil
con Cons head tail

fun main =
  let inc = addOne
  let xs = build )";
    s += std::to_string(n);
    s += R"(
  let ys = map inc xs
  let s = sumList ys
  result s

fun addOne x =
  let y = add x 1
  result y

fun build n =
  case n of
    0 =>
      let e = Nil
      result e
    else
      let n' = sub n 1
      let rest = build n'
      let l = Cons n rest
      result l

fun map f list =
  case list of
    Nil =>
      let e = Nil
      result e
    Cons head tail =>
      let head' = f head
      let tail' = map f tail
      let list' = Cons head' tail'
      result list'
  else
    let err = Error 0
    result err

fun sumList list =
  case list of
    Nil =>
      result 0
    Cons head tail =>
      let rest = sumList tail
      let s = add head rest
      result s
  else
    let err = Error 0
    result err
)";
    return s;
}

std::string
countdownText(int n)
{
    std::string s = "fun main =\n  let n = loop ";
    s += std::to_string(n);
    s += "\n  result n\n\n"
         "fun loop n =\n"
         "  case n of\n"
         "    0 =>\n"
         "      result 42\n"
         "    else\n"
         "      let n' = sub n 1\n"
         "      let r = loop n'\n"
         "      result r\n";
    return s;
}

std::vector<VmInstr>
vmWorkload(int len)
{
    Rng rng(7);
    std::vector<VmInstr> prog;
    int depth = 0;
    for (int i = 0; i < len; ++i) {
        double roll = rng.real();
        if (depth < 2 || roll < 0.35) {
            prog.push_back({ 0, SWord(rng.range(-50, 50)) });
            ++depth;
        } else if (roll < 0.6) {
            static const SWord bins[] = { 1, 2, 3, 7 };
            prog.push_back({ bins[rng.below(4)], 0 });
            --depth;
        } else if (roll < 0.75) {
            prog.push_back({ 4, 0 });
            ++depth;
        } else if (roll < 0.9) {
            prog.push_back({ 5, 0 });
        } else {
            prog.push_back({ 6, 0 });
        }
    }
    return prog;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }

    const double minWall = smoke ? 0.05 : 0.5;
    const int countdownN = smoke ? 5'000 : 150'000;
    const int vmLen = smoke ? 400 : 4'000;
    const Cycles icdCycles = smoke ? 400'000 : 6'000'000;

    struct Workload
    {
        std::string name;
        std::function<Sample(MachineConfig)> run;
    };
    std::vector<Workload> workloads;

    Image countdownImg =
        encodeProgram(assembleOrDie(countdownText(countdownN)));
    workloads.push_back({ "countdown", [&](MachineConfig cfg) {
        return runToCompletion(countdownImg, cfg);
    } });

    // Size the heap to the workload so the untimed per-instance
    // setup (semispace zeroing) stays cheap across many iterations.
    Image mapImg =
        encodeProgram(assembleOrDie(mapLargeText(smoke ? 50 : 400)));
    workloads.push_back({ "map", [&](MachineConfig cfg) {
        cfg.semispaceWords = 1u << 15;
        return runToCompletion(mapImg, cfg);
    } });

    Image vmImg = encodeProgram(assembleOrDie(
        vmMainText(vmWorkload(vmLen)) + miniVmText() +
        preludeText()));
    workloads.push_back({ "mini-vm", [&](MachineConfig cfg) {
        return runToCompletion(vmImg, cfg);
    } });

    // The ICD kernel never finishes, so the cycle-accurate tiers
    // run a fixed simulated-cycle budget. The fast tier has no
    // cycle clock; drive it to the same dynamic-instruction count
    // (measured once, untimed) so every tier does identical program
    // work.
    Image icdImg = icd::buildKernelImage();
    uint64_t icdInstrTarget = 0;
    {
        ecg::ScriptedHeart heart(
            { { 20.0, 75.0 }, { 40.0, 190.0 } }, 42);
        BusyRig rig(heart);
        Machine m(icdImg, rig, MachineConfig{});
        while (m.cycles() < icdCycles &&
               m.advance(500'000) == MachineStatus::Running) {}
        icdInstrTarget = m.stats().dynamicInstructions();
    }
    workloads.push_back({ "icd-kernel", [&](MachineConfig cfg) {
        ecg::ScriptedHeart heart(
            { { 20.0, 75.0 }, { 40.0, 190.0 } }, 42);
        BusyRig rig(heart);
        Machine m(icdImg, rig, cfg);
        bool byCycles = tierCycleAccurate(cfg.tier);
        double t0 = now();
        while ((byCycles
                    ? m.cycles() < icdCycles
                    : m.stats().dynamicInstructions() <
                          icdInstrTarget) &&
               m.advance(500'000) == MachineStatus::Running) {}
        double t1 = now();
        Sample s;
        s.wallSec = t1 - t0;
        s.simCycles = m.cycles();
        s.dynInstrs = m.stats().dynamicInstructions();
        return s;
    } });

    static const DispatchTier kTiers[] = {
        DispatchTier::WordWalk,
        DispatchTier::Uop,
        DispatchTier::FastFunctional,
    };
    constexpr size_t kNumTiers = 3;

    std::printf("=== host throughput: the dispatch-tier ladder%s "
                "===\n\n",
                smoke ? " (smoke)" : "");
    std::printf("  %-12s %-10s %10s %14s %14s\n", "workload",
                "tier", "host s", "Mcycles/s", "Minstr/s");

    std::vector<Row> rows;
    double logUop = 0, logFast = 0;
    for (const Workload &w : workloads) {
        for (DispatchTier tier : kTiers) {
            MachineConfig cfg;
            cfg.tier = tier;
            Row row;
            row.workload = w.name;
            row.tier = tier;
            row.s = measure([&] { return w.run(cfg); }, minWall);
            std::printf("  %-12s %-10s %10.3f %14.2f %14.2f\n",
                        row.workload.c_str(),
                        dispatchTierName(tier), row.s.wallSec,
                        row.cyclesPerSec() / 1e6,
                        row.instrsPerSec() / 1e6);
            rows.push_back(std::move(row));
        }
        // Per-workload speedups over the ladder's instrs/s (a
        // tier-invariant measure of program progress): µop relative
        // to word-walk, fast-functional relative to µop.
        const Row *base = &rows[rows.size() - kNumTiers];
        double sUop = base[1].instrsPerSec() / base[0].instrsPerSec();
        double sFast =
            base[2].instrsPerSec() / base[1].instrsPerSec();
        logUop += std::log(sUop);
        logFast += std::log(sFast);
        std::printf("  %-12s uop-vs-word-walk %.2fx, "
                    "fast-vs-uop %.2fx\n\n",
                    w.name.c_str(), sUop, sFast);
    }
    double geomeanUop = std::exp(logUop / workloads.size());
    double geomeanFast = std::exp(logFast / workloads.size());
    std::printf("  geomean speedups: uop-vs-word-walk %.2fx, "
                "fast-vs-uop %.2fx\n\n",
                geomeanUop, geomeanFast);

    // Machine-readable results for trend tracking (bench_paths.hh).
    std::string outPath =
        benchio::outputPath("BENCH_host_throughput.json", smoke);
    FILE *f = std::fopen(outPath.c_str(), "w");
    if (!f) {
        std::perror(outPath.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"smoke\": %s,\n  \"rows\": [\n",
                 smoke ? "true" : "false");
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(
            f,
            "    {\"workload\": \"%s\", \"tier\": \"%s\", "
            "\"wall_sec\": %.6f, \"sim_cycles\": %llu, "
            "\"dyn_instrs\": %llu, \"cycles_per_sec\": %.1f, "
            "\"instrs_per_sec\": %.1f}%s\n",
            r.workload.c_str(), dispatchTierName(r.tier),
            r.s.wallSec, (unsigned long long)r.s.simCycles,
            (unsigned long long)r.s.dynInstrs, r.cyclesPerSec(),
            r.instrsPerSec(), i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"geomean_speedup\": %.3f,\n"
                 "  \"geomean_fast_vs_uop\": %.3f\n}\n",
                 geomeanUop, geomeanFast);
    std::fclose(f);
    std::printf("wrote %s\n", outPath.c_str());
    return 0;
}
