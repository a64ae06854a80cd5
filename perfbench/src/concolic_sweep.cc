/**
 * @file
 * concolic_sweep: sym::runConcolic with replay on, over seeded
 * generated programs. The only workload that exercises sym (explore,
 * solve); its replay is a second, differently shaped consumer of the
 * differential oracle, so an oracle speed-up shows here scaled by
 * the replay share.
 */

#include <array>

#include "bench.hh"
#include "fuzz/genprog.hh"
#include "isa/binary.hh"
#include "sym/concolic.hh"
#include "sym/explore.hh"

namespace zbench
{

namespace
{

using namespace zarf;

constexpr size_t kPrograms = 256;
constexpr int kSetupReps = 15;

/** The configuration bench_sym and `ctest -L sym` run. */
sym::ConcolicConfig
concolicConfig(bool replay)
{
    sym::ConcolicConfig cfg;
    cfg.eval.maxVars = 6;
    cfg.eval.maxChoices = 16;
    cfg.explore.maxPaths = 24;
    cfg.threads = 1;
    cfg.replay = replay;
    return cfg;
}

/** Path-class counts of one report, in a fixed order. */
struct Classes
{
    std::array<uint64_t, 8> v{};
    static constexpr const char *kNames[8] = {
        "paths",   "feasible",  "replayed", "unsat",
        "unknown", "truncated", "skipped",  "diverged",
    };
    static Classes
    of(const sym::ConcolicReport &rep)
    {
        return { { rep.paths.size(), rep.feasiblePaths,
                   rep.replayedPaths, rep.unsatPaths, rep.unknownPaths,
                   rep.truncatedPaths, rep.skippedPaths,
                   rep.divergedPaths } };
    }
    Classes &
    operator+=(const Classes &o)
    {
        for (size_t k = 0; k < v.size(); ++k)
            v[k] += o.v[k];
        return *this;
    }
    bool operator==(const Classes &) const = default;
};

} // namespace

Result
runConcolicSweep(const RunSpec &spec)
{
    Tracer *tr = spec.tracer;
    Result r;
    r.workload = "concolic_sweep";
    r.itemName = "program";
    r.headlineName = "paths_per_s";
    r.headlineUnit = "1/s";

    std::vector<Image> programs;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        Clock::time_point t0 = Clock::now();
        Scope s(tr, "fuzz.generate", uint64_t(rep));
        programs.clear();
        Rng rng(deriveSeed(spec.seed, 3));
        for (size_t i = 0; i < kPrograms; ++i) {
            fuzz::ProgramGenerator gen(rng.next(), fuzz::GenConfig{});
            programs.push_back(encodeProgram(gen.generate().build()));
        }
        r.setupS.push_back(secondsBetween(t0, Clock::now()));
    }
    const size_t n = programs.size();
    r.samples.push_back({ "programs", n });

    // ---- Timed closed loop, at least one full pass. ----
    const sym::ConcolicConfig cfg = concolicConfig(true);
    const size_t minItems = spec.fingerprint ? n : 1;
    std::vector<Classes> classes;
    classes.reserve(kReserveItems);
    r.itemMs.reserve(kReserveItems);
    std::vector<std::string> divergence;
    double timed = 0;
    CpuRotor rotor;
    for (size_t i = 0;; ++i) {
        rotor.tick();
        const Image &img = programs[i % n];
        Clock::time_point t0 = Clock::now();
        Classes c;
        {
            Scope item(tr, "sym.program", i);
            sym::ConcolicReport rep;
            {
                Scope s(tr, "sym.concolic", i, item.spanId());
                rep = sym::runConcolic(img, cfg);
            }
            double dt = secondsBetween(t0, Clock::now());
            timed += dt;
            r.itemMs.push_back(dt * 1e3);
            c = Classes::of(rep);
            for (const sym::PathReport &p : rep.paths)
                if (p.check == sym::PathCheck::Diverged)
                    divergence.push_back(
                        "program " + std::to_string(i % n) + ": " +
                        p.detail);
            if (tr) {
                // Explore alone (solving and replay off), then
                // solving on with replay off; the differences against
                // the full call above price solve and replay.
                {
                    Scope s(tr, "sym.explore", i, item.spanId());
                    DecodeResult dec = decodeProgram(img);
                    if (dec.ok) {
                        sym::SymEval ev(dec.program, cfg.eval);
                        sym::explorePaths(ev, cfg.explore);
                    }
                }
                Scope s(tr, "sym.concolic_no_replay", i, item.spanId());
                sym::runConcolic(img, concolicConfig(false));
            }
        }
        classes.push_back(c);
        if (i + 1 >= minItems && timed >= spec.seconds)
            break;
    }
    const size_t items = classes.size();
    Classes total;
    for (const Classes &c : classes)
        total += c;
    r.attempted = items;
    r.work = double(total.v[0]);
    r.samples.push_back({ "program_runs", items });
    r.samples.push_back({ "paths", total.v[0] });

    // ---- Checks: zero diverged paths; repeats classify alike. ----
    for (const std::string &d : divergence)
        r.fail("diverged path on " + d);
    for (size_t i = n; i < items; ++i)
        if (!(classes[i] == classes[i % n]))
            r.fail("path classes of program " + std::to_string(i % n) +
                   " changed between passes");

    if (spec.fingerprint) {
        Classes first;
        uint64_t h = fnv1a(nullptr, 0);
        for (size_t i = 0; i < n; ++i) {
            first += classes[i];
            h = fnv1a(classes[i].v.data(), sizeof(classes[i].v), h);
        }
        r.fingerprint.push_back({ "programs", std::to_string(n) });
        for (size_t k = 0; k < first.v.size(); ++k)
            r.fingerprint.push_back(
                { Classes::kNames[k], std::to_string(first.v[k]) });
        r.fingerprint.push_back({ "per_program_hash", hex64(h) });
    }

    if (tr) {
        auto perProgramMs = [&](const char *name) {
            std::vector<double> v = tr->durationsUs(name);
            return v.empty() ? 0.0 : mean(v) / 1e3;
        };
        double explore = perProgramMs("sym.explore");
        double noReplay = perProgramMs("sym.concolic_no_replay");
        double full = perProgramMs("sym.concolic");
        auto &L = r.layer;
        L.push_back({ "sym.explore_ms", explore, "ms/program" });
        L.push_back({ "sym.solve_ms", noReplay - explore, "ms/program" });
        L.push_back({ "sym.replay_ms", full - noReplay, "ms/program" });
        L.push_back({ "sym.concolic_ms", full, "ms/program" });
        for (size_t k = 0; k < 6; ++k)
            L.push_back({ std::string("sym.") + Classes::kNames[k],
                          double(total.v[k]), "count" });
        L.push_back({ "sym.replay_validated_frac",
                      total.v[1] ? double(total.v[2]) / double(total.v[1])
                                 : 0,
                      "fraction" });
        L.push_back({ "sym.unknown_frac",
                      total.v[0] ? double(total.v[4]) / double(total.v[0])
                                 : 0,
                      "fraction" });
    }
    return r;
}

} // namespace zbench
