/**
 * @file
 * oracle_sweep: fuzz::runOracle (default OracleConfig, every
 * evaluator including the lifted IR) over a seeded mix of generated
 * program sizes plus the checked-in tests/corpus images. Per-image
 * set-up dominates here and λ dispatch is a small share — the
 * opposite of icd_cosim — so this is where consolidating the
 * interpreter cores should show.
 *
 * The traced run times the oracle per image and then replays the
 * oracle's own sequence of public calls on the same image, one span
 * per call, so the evaluator shares and the unattributed remainder
 * are measured on identical inputs (all spans of an image share its
 * item id).
 */

#include <algorithm>
#include <array>

#include "bench.hh"
#include "fuzz/corpus.hh"
#include "fuzz/coverage.hh"
#include "fuzz/genprog.hh"
#include "fuzz/oracle.hh"
#include "ir/eval.hh"
#include "ir/lift.hh"
#include "isa/binary.hh"
#include "isa/validate.hh"
#include "machine/loaded_image.hh"
#include "obs/trace.hh"
#include "sem/bigstep.hh"
#include "sem/smallstep.hh"

namespace zbench
{

namespace
{

using namespace zarf;

constexpr size_t kGenerated = 1000;
constexpr int kSetupReps = 9;
/** Upper bound on the spans one traced image records. */
constexpr size_t kMaxSpansPerImage = 64;

struct Inputs
{
    std::vector<Image> images;
    size_t corpus = 0;
};

/** Generated programs of varying size, then the corpus. */
Inputs
makeInputs(uint64_t seed, const std::string &corpusDir)
{
    Inputs in;
    Rng rng(deriveSeed(seed, 2));
    for (size_t i = 0; i < kGenerated; ++i) {
        fuzz::GenConfig gc;
        gc.numCons = 1 + unsigned(rng.below(4));
        gc.numFuncs = 2 + unsigned(rng.below(7));
        gc.maxArity = 1 + unsigned(rng.below(3));
        gc.maxDepth = 2 + unsigned(rng.below(4));
        gc.maxBranches = 2 + unsigned(rng.below(2));
        fuzz::ProgramGenerator gen(rng.next(), gc);
        in.images.push_back(encodeProgram(gen.generate().build()));
    }
    fuzz::CorpusLoad cl = fuzz::loadCorpusDir(corpusDir);
    for (fuzz::CorpusEntry &e : cl.entries)
        in.images.push_back(std::move(e.image));
    in.corpus = cl.entries.size();
    return in;
}

/**
 * Replay runOracle's sequence of public calls on one image with a
 * span around each (src/fuzz/oracle.cc is the sequence's source of
 * truth; the gates below follow its early exits). Only the calls
 * are timed; the comparisons between them are not.
 */
void
mirrorOracle(const Image &image, const fuzz::OracleResult &o,
             Tracer *tr, uint64_t item, int64_t parent)
{
    const fuzz::OracleConfig cfg;
    auto span = [&](const char *name) {
        return Scope(tr, name, item, parent);
    };
    auto construct = [&](std::optional<Machine> &m, IoBus &bus,
                         const MachineConfig &mc) {
        Scope s = span("machine.construct");
        m.emplace(image, bus, mc);
    };

    std::optional<obs::Recorder> rec;
    {
        Scope s = span("obs.recorder_construct");
        rec.emplace(obs::TraceConfig{
            1u << 14, static_cast<uint32_t>(obs::Cat::MachineExec) |
                          static_cast<uint32_t>(obs::Cat::MachineGc) });
    }
    MachineConfig mc;
    mc.semispaceWords = cfg.semispaceWords;
    mc.tier = DispatchTier::Uop;
    mc.trace = &*rec;
    mc.fsmTally = true;
    fuzz::RecordBus uopBus;
    std::optional<Machine> uop;
    construct(uop, uopBus, mc);
    Machine::Outcome uopOut;
    {
        Scope s = span("machine.run.uop");
        uopOut = uop->run(cfg.maxCycles);
    }
    {
        Scope s = span("fuzz.coverage");
        fuzz::collectCoverage(uop->fsmTally(), *rec, uop->stats(),
                              uopOut.status, uopOut.value);
    }

    struct TierRun
    {
        DispatchTier tier;
        const char *span;
    };
    for (TierRun t : { TierRun{ DispatchTier::WordWalk,
                                "machine.run.word_walk" },
                       TierRun{ DispatchTier::Threaded,
                                "machine.run.threaded" },
                       TierRun{ DispatchTier::FastFunctional,
                                "machine.run.fast" } }) {
        MachineConfig tc = mc;
        tc.tier = t.tier;
        tc.trace = nullptr;
        tc.fsmTally = t.tier != DispatchTier::FastFunctional;
        fuzz::RecordBus bus;
        std::optional<Machine> m;
        construct(m, bus, tc);
        Scope s = span(t.span);
        m->run(cfg.maxCycles);
    }

    DecodeResult dec;
    {
        Scope s = span("isa.decode");
        dec = decodeProgram(image);
    }
    if (!dec.ok)
        return;
    if (uopOut.status == MachineStatus::Stuck &&
        uopOut.diagnostic.rfind("predecode:", 0) == 0)
        return;
    if (uopOut.status == MachineStatus::HeapCorrupt ||
        uopOut.status == MachineStatus::MemFault)
        return;

    RunResult semOut;
    {
        Scope s = span("sem.smallstep");
        fuzz::RecordBus bus;
        SmallStep sem(dec.program, bus, { cfg.semSteps });
        semOut = sem.runMain();
    }
    if (uopOut.status == MachineStatus::Running ||
        uopOut.status == MachineStatus::OutOfMemory ||
        semOut.status == RunResult::Status::OutOfFuel)
        return;
    if (o.verdict == fuzz::Verdict::Divergence)
        return;

    if (o.irCompared) {
        ir::LiftResult lift;
        {
            Scope s = span("ir.lift");
            lift = ir::liftImage(image);
        }
        Scope s = span("ir.eval");
        fuzz::RecordBus bus;
        ir::EvalConfig ic;
        ic.maxCycles = cfg.maxCycles;
        ic.hardStopCycles = uop->cycles();
        ir::evalModule(lift.module, bus, ic);
    }

    bool eager;
    {
        Scope s = span("isa.validate");
        eager = validateProgram(dec.program).ok() &&
                !fuzz::usesIo(dec.program);
    }
    if (eager) {
        Scope s = span("sem.bigstep");
        NullBus nb;
        BigStepConfig bc;
        bc.maxSteps = cfg.bigSteps;
        BigStep big(dec.program, nb, bc);
        big.runMain();
    }

    if (o.snapshotChecked) {
        MachineConfig sc = mc;
        sc.trace = nullptr;
        sc.fsmTally = false;
        fuzz::RecordBus bus;
        std::optional<Machine> src, fork;
        construct(src, bus, sc);
        {
            Scope s = span("machine.run.replay");
            src->advance(uop->cycles() / 2);
        }
        std::shared_ptr<const MachineSnapshot> snap;
        {
            Scope s = span("machine.snapshot_restore");
            snap = src->snapshot();
        }
        construct(fork, bus, sc);
        {
            Scope s = span("machine.snapshot_restore");
            fork->restore(*snap);
        }
        Scope s = span("machine.run.replay");
        fork->run(cfg.maxCycles);
    }
}

/** Mirror spans whose sum is the oracle time they account for. */
const char *const kAttributed[] = {
    "obs.recorder_construct", "machine.construct", "machine.run.uop",
    "fuzz.coverage",          "machine.run.word_walk",
    "machine.run.threaded",   "machine.run.fast", "isa.decode",
    "sem.smallstep",          "ir.lift",          "ir.eval",
    "isa.validate",           "sem.bigstep",      "machine.run.replay",
    "machine.snapshot_restore",
};

} // namespace

Result
runOracleSweep(const RunSpec &spec)
{
    Tracer *tr = spec.tracer;
    Result r;
    r.workload = "oracle_sweep";
    r.itemName = "image";
    r.headlineName = "oracle_execs_per_s";
    r.headlineUnit = "1/s";

    Inputs in;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        Clock::time_point t0 = Clock::now();
        Scope s(tr, "fuzz.make_inputs", uint64_t(rep));
        in = makeInputs(spec.seed, spec.corpusDir);
        r.setupS.push_back(secondsBetween(t0, Clock::now()));
    }
    const size_t n = in.images.size();
    r.samples.push_back({ "images", n });
    r.samples.push_back({ "corpus_images", in.corpus });
    if (in.corpus == 0)
        r.fail("no corpus images under " + spec.corpusDir);

    // ---- Timed closed loop over the image list, at least one full
    // pass (the fingerprint's span). ----
    const fuzz::OracleConfig cfg;
    const size_t minItems = spec.fingerprint ? n : 1;
    std::vector<fuzz::Verdict> verdicts;
    verdicts.reserve(kReserveItems);
    r.itemMs.reserve(kReserveItems);
    std::vector<std::string> details;
    double timed = 0;
    CpuRotor rotor;
    for (size_t i = 0;; ++i) {
        rotor.tick();
        const Image &img = in.images[i % n];
        fuzz::OracleResult o;
        Clock::time_point t0 = Clock::now();
        if (tr) {
            Scope item(tr, "fuzz.image", i);
            {
                Scope s(tr, "fuzz.oracle", i, item.spanId());
                o = fuzz::runOracle(img, cfg);
            }
            double dt = secondsBetween(t0, Clock::now());
            timed += dt;
            r.itemMs.push_back(dt * 1e3);
            mirrorOracle(img, o, tr, i, item.spanId());
        } else {
            o = fuzz::runOracle(img, cfg);
            double dt = secondsBetween(t0, Clock::now());
            timed += dt;
            r.itemMs.push_back(dt * 1e3);
        }
        verdicts.push_back(o.verdict);
        if (o.verdict == fuzz::Verdict::Divergence)
            details.push_back(o.detail);
        if (i + 1 >= minItems && timed >= spec.seconds)
            break;
        if (tr && tr->room() < kMaxSpansPerImage)
            break;
    }
    const size_t execs = verdicts.size();
    r.attempted = execs;
    r.work = double(execs);
    r.samples.push_back({ "execs", execs });

    // ---- Checks: zero Divergence, and every repeat of an image
    // reaches the verdict its first exec did. ----
    size_t div = 0;
    for (size_t i = 0; i < execs; ++i) {
        if (verdicts[i] == fuzz::Verdict::Divergence) {
            r.fail("divergence on image " + std::to_string(i % n) +
                   ": " + details[div++]);
        } else if (i >= n && verdicts[i] != verdicts[i % n]) {
            r.fail("verdict of image " + std::to_string(i % n) +
                   " changed between passes");
        }
    }

    std::array<uint64_t, 4> hist{};
    for (size_t i = 0; i < std::min(n, execs); ++i)
        ++hist[size_t(verdicts[i])];
    if (spec.fingerprint) {
        uint64_t h = fnv1a(nullptr, 0);
        for (size_t i = 0; i < n; ++i)
            h = fnv1a(&verdicts[i], sizeof(verdicts[i]), h);
        r.fingerprint = {
            { "images", std::to_string(n) },
            { "agree", std::to_string(hist[0]) },
            { "rejected", std::to_string(hist[1]) },
            { "skip", std::to_string(hist[2]) },
            { "divergence", std::to_string(hist[3]) },
            { "verdict_sequence_hash", hex64(h) },
        };
    }

    if (tr) {
        // Verdict counts over every traced exec.
        std::array<uint64_t, 4> all{};
        for (fuzz::Verdict v : verdicts)
            ++all[size_t(v)];
        auto &L = r.layer;
        auto med = [&](const char *name) {
            return median(tr->durationsUs(name));
        };
        // Per-image sums, on images where the span ran at all.
        auto perImage = [&](const char *name) {
            std::vector<double> v;
            for (double x : tr->perItemUs(name, execs))
                if (x > 0)
                    v.push_back(x);
            return v;
        };
        L.push_back({ "fuzz.oracle_us", med("fuzz.oracle"), "us" });
        L.push_back({ "isa.decode_us", med("isa.decode"), "us" });
        L.push_back({ "machine.construct_us", med("machine.construct"),
                      "us" });
        {
            // A Machine from a LoadedImage built once per image.
            Tracer local;
            for (size_t i = 0; i < std::min(n, execs); ++i) {
                std::shared_ptr<const LoadedImage> li;
                {
                    Scope s(&local, "machine.load", i);
                    li = LoadedImage::load(in.images[i]);
                }
                fuzz::RecordBus bus;
                MachineConfig mc;
                mc.semispaceWords = cfg.semispaceWords;
                Scope s(&local, "machine.construct_shared", i);
                Machine m(li, bus, mc);
            }
            L.push_back({ "machine.construct_shared_us",
                          median(local.durationsUs(
                              "machine.construct_shared")),
                          "us" });
            L.push_back({ "machine.load_image_us",
                          median(local.durationsUs("machine.load")),
                          "us" });
        }
        L.push_back({ "machine.run_us.word_walk",
                      med("machine.run.word_walk"), "us" });
        L.push_back({ "machine.run_us.uop", med("machine.run.uop"),
                      "us" });
        L.push_back({ "machine.run_us.threaded",
                      med("machine.run.threaded"), "us" });
        L.push_back({ "machine.run_us.fast", med("machine.run.fast"),
                      "us" });
        L.push_back({ "machine.snapshot_restore_us",
                      median(perImage("machine.snapshot_restore")),
                      "us" });
        L.push_back({ "obs.recorder_construct_us",
                      med("obs.recorder_construct"), "us" });
        L.push_back({ "fuzz.coverage_us", med("fuzz.coverage"), "us" });
        L.push_back({ "sem.smallstep_us", med("sem.smallstep"), "us" });
        L.push_back({ "sem.bigstep_us", med("sem.bigstep"), "us" });
        L.push_back({ "ir.lift_us", med("ir.lift"), "us" });
        L.push_back({ "ir.eval_us", med("ir.eval"), "us" });

        // Like for like: lift+eval against construct+µop run, on the
        // images where the oracle ran the IR.
        {
            std::vector<double> lift = tr->perItemUs("ir.lift", execs);
            std::vector<double> eval = tr->perItemUs("ir.eval", execs);
            std::vector<double> runs =
                tr->perItemUs("machine.run.uop", execs);
            // The µop machine is the first construction of an image.
            std::vector<double> cons(execs, 0.0);
            std::vector<uint8_t> seen(execs, 0);
            for (const Span &s : tr->all()) {
                if (s.item < execs && !seen[s.item] &&
                    std::string_view(s.name) == "machine.construct") {
                    cons[s.item] = double(s.endNs - s.startNs) / 1e3;
                    seen[s.item] = 1;
                }
            }
            std::vector<double> irSide, machSide;
            for (size_t i = 0; i < execs; ++i) {
                if (lift[i] > 0) {
                    irSide.push_back(lift[i] + eval[i]);
                    machSide.push_back(cons[i] + runs[i]);
                }
            }
            double a = median(irSide), b = median(machSide);
            L.push_back({ "ir.lift_plus_eval_us", a, "us" });
            L.push_back(
                { "machine.construct_plus_run_uop_us", b, "us" });
            L.push_back({ "ir.vs_machine_ratio", b > 0 ? a / b : 0,
                          "ratio" });
            L.push_back({ "ir.priced_images", double(irSide.size()),
                          "count" });
        }

        double oracleSum = 0, attributed = 0;
        for (double x : tr->durationsUs("fuzz.oracle"))
            oracleSum += x;
        for (const char *name : kAttributed)
            for (double x : tr->durationsUs(name))
                attributed += x;
        L.push_back({ "fuzz.attributed_us_total", attributed, "us" });
        L.push_back({ "fuzz.oracle_us_total", oracleSum, "us" });
        L.push_back({ "fuzz.unattributed_frac",
                      oracleSum > 0 ? 1 - attributed / oracleSum : 0,
                      "fraction" });
        L.push_back({ "fuzz.verdict.agree", double(all[0]), "count" });
        L.push_back({ "fuzz.verdict.rejected", double(all[1]), "count" });
        L.push_back({ "fuzz.verdict.skip", double(all[2]), "count" });
        L.push_back(
            { "fuzz.verdict.divergence", double(all[3]), "count" });
        L.push_back({ "fuzz.useful_frac",
                      execs ? double(all[0]) / double(execs) : 0,
                      "fraction" });
    }
    return r;
}

} // namespace zbench
