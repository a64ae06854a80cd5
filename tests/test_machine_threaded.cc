/**
 * @file
 * Differential testing of the direct-threaded dispatch cores
 * (machine/threaded.hh).
 *
 * The µop interpreter has one handler body and two dispatch
 * flavours: computed goto, and the switch that
 * testhooks::forceSwitchDispatch forces (the production path on
 * compilers without the extension). The flavours must be
 * bit-identical in results, total cycle counts, every statistic,
 * trace events, and FSM tallies — on random programs, under GC
 * pressure, under fault injection, and on the full ICD kernel — and
 * a snapshot taken under one must finish identically under the
 * other. This suite is the only goto-vs-switch check: the oracle
 * compares the µop interpreter against the word-walking machine
 * (fuzz/oracle.hh). On builds without computed goto both flavours
 * are the switch; the comparisons are then redundant but still run.
 *
 * The fast-functional tier abandons the cycle model, so it is held
 * to outcome equality with the µop tier only: status, diagnostic,
 * value, and the I/O log. Its two dispatch flavours are held
 * bit-identical to each other (step count, statistics, value, I/O),
 * and its accounting contract — no per-µop trace event, tally
 * visit, or class cycle — is checked directly.
 */

#include <optional>

#include <gtest/gtest.h>

#include "common/testprogs.hh"
#include "ecg/synth.hh"
#include "fault/campaign.hh"
#include "fuzz/genprog.hh"
#include "icd/zarf_icd.hh"
#include "isa/binary.hh"
#include "isa/encoding.hh"
#include "machine/machine.hh"
#include "machine/testhooks.hh"
#include "machine/threaded.hh"
#include "obs/trace.hh"
#include "system/ports.hh"
#include "zasm/zasm.hh"

namespace zarf
{
namespace
{

/** Require every statistic to be identical between two tiers. */
void
expectStatsEqual(const MachineStats &a, const MachineStats &b)
{
    EXPECT_EQ(a.let.count, b.let.count);
    EXPECT_EQ(a.let.cycles, b.let.cycles);
    EXPECT_EQ(a.caseInstr.count, b.caseInstr.count);
    EXPECT_EQ(a.caseInstr.cycles, b.caseInstr.cycles);
    EXPECT_EQ(a.result.count, b.result.count);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.branchHeads, b.branchHeads);
    EXPECT_EQ(a.letArgs, b.letArgs);
    EXPECT_EQ(a.allocations, b.allocations);
    EXPECT_EQ(a.allocatedWords, b.allocatedWords);
    EXPECT_EQ(a.forces, b.forces);
    EXPECT_EQ(a.whnfHits, b.whnfHits);
    EXPECT_EQ(a.updates, b.updates);
    EXPECT_EQ(a.errorsCreated, b.errorsCreated);
    EXPECT_EQ(a.loadCycles, b.loadCycles);
    EXPECT_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.callsPerFunc, b.callsPerFunc);
    EXPECT_EQ(a.gcRuns, b.gcRuns);
    EXPECT_EQ(a.gcCycles, b.gcCycles);
    EXPECT_EQ(a.gcObjectsCopied, b.gcObjectsCopied);
    EXPECT_EQ(a.gcWordsCopied, b.gcWordsCopied);
    EXPECT_EQ(a.gcRefChecks, b.gcRefChecks);
    EXPECT_EQ(a.gcMaxLiveWords, b.gcMaxLiveWords);
    EXPECT_EQ(a.gcMaxPauseCycles, b.gcMaxPauseCycles);
}

MachineConfig
tierConfig(DispatchTier tier, size_t semispaceWords = 1u << 20)
{
    MachineConfig cfg;
    cfg.tier = tier;
    cfg.semispaceWords = semispaceWords;
    return cfg;
}

/** Select a dispatch flavour for the advance()/run() calls made
 *  while this is in scope: the switch when `forceSwitch`, computed
 *  goto (where the build has it) otherwise. */
class SwitchForcer
{
  public:
    explicit SwitchForcer(bool forceSwitch)
    {
        testhooks::forceSwitchDispatch = forceSwitch;
    }
    ~SwitchForcer() { testhooks::forceSwitchDispatch = false; }
};

Image
randomImage(uint64_t seed)
{
    fuzz::GenConfig gcfg;
    gcfg.numCons = 4;
    gcfg.numFuncs = 7;
    gcfg.maxDepth = 5;
    fuzz::ProgramGenerator gen(seed * 2654435761u + 7, gcfg);
    BuildResult b = gen.generate().tryBuild();
    EXPECT_TRUE(b.ok) << b.error;
    return encodeProgram(b.program);
}

/** Deterministic logging bus, so I/O-bearing generated programs
 *  contribute comparable read values and write logs. */
class LogBus : public IoBus
{
  public:
    SWord
    getInt(SWord port) override
    {
        SWord v = SWord(((uint64_t(port) * 0x9e3779b97f4a7c15ull +
                          ordinal++ * 0xbf58476d1ce4e5b9ull) >>
                         17) &
                        0xffff) -
                  0x8000;
        ops.push_back({ true, port, v });
        return v;
    }

    void
    putInt(SWord port, SWord value) override
    {
        ops.push_back({ false, port, value });
    }

    struct Op
    {
        bool isGet;
        SWord port;
        SWord value;
        bool
        operator==(const Op &o) const
        {
            return isGet == o.isGet && port == o.port &&
                   value == o.value;
        }
    };
    std::vector<Op> ops;

  private:
    uint64_t ordinal = 0;
};

/** Require two trace recorders to hold identical event streams. */
void
expectTracesEqual(const obs::Recorder &a, const obs::Recorder &b)
{
    EXPECT_EQ(a.emitted(), b.emitted());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        const obs::Event &x = a.at(i);
        const obs::Event &y = b.at(i);
        ASSERT_TRUE(x.kind == y.kind && x.ts == y.ts && x.a == y.a &&
                    x.b == y.b)
            << "trace events differ at index " << i;
    }
}

/**
 * Run one random program under the goto and the switch flavour and
 * require bit-identical machines. A plain pass runs each straight
 * through, untraced. An `observed` pass drives each in small
 * advance() slices — every slice boundary spills and reloads the
 * interpreter's register-cached state — with tracing and the FSM
 * tally on, and also compares the event streams and the tallies.
 */
void
runFlavourDifferential(uint64_t seed, size_t semispaceWords,
                       bool observed)
{
    Image img = randomImage(seed);

    struct Run
    {
        LogBus bus;
        obs::Recorder rec{ obs::TraceConfig{ 1u << 16, obs::kAllCats } };
        std::optional<Machine> m;
        Machine::Outcome out{ MachineStatus::Running, nullptr, "" };
    };
    Run runs[2];
    for (int flavour = 0; flavour < 2; ++flavour) {
        Run &r = runs[flavour];
        SwitchForcer forcer(flavour == 1);
        MachineConfig cfg = tierConfig(DispatchTier::Uop,
                                       semispaceWords);
        if (observed) {
            cfg.trace = &r.rec;
            cfg.fsmTally = true;
        }
        r.m.emplace(img, r.bus, cfg);
        if (observed) {
            while (r.m->advance(997) == MachineStatus::Running) {}
        }
        r.out = r.m->run();
    }
    const Run &a = runs[0];
    const Run &b = runs[1];

    ASSERT_EQ(a.out.status, b.out.status)
        << "goto: " << a.out.diagnostic
        << "\nswitch: " << b.out.diagnostic;
    EXPECT_EQ(a.out.diagnostic, b.out.diagnostic);
    EXPECT_EQ(a.m->cycles(), b.m->cycles());
    if (a.out.status == MachineStatus::Done) {
        ASSERT_TRUE(a.out.value && b.out.value);
        EXPECT_TRUE(Value::equal(*a.out.value, *b.out.value))
            << "goto:   " << a.out.value->toString() << "\n"
            << "switch: " << b.out.value->toString();
    }
    expectStatsEqual(a.m->stats(), b.m->stats());
    EXPECT_EQ(a.bus.ops, b.bus.ops);
    if (observed) {
        expectTracesEqual(a.rec, b.rec);
        EXPECT_EQ(a.m->fsmTally().visits, b.m->fsmTally().visits);
        EXPECT_EQ(a.m->fsmTally().cycles, b.m->fsmTally().cycles);
    }
}

/**
 * Run one random program on the µop tier and on the fast tier under
 * both dispatch flavours. The fast flavours must be bit-identical
 * (step count, every statistic, value, I/O); the `forceSwitch`
 * flavour must match the µop tier's outcome.
 */
void
runFastDifferential(uint64_t seed, size_t semispaceWords,
                    bool forceSwitch)
{
    Image img = randomImage(seed);

    LogBus busA;
    Machine uop(img, busA, tierConfig(DispatchTier::Uop,
                                      semispaceWords));
    Machine::Outcome oa = uop.run();

    struct FastRun
    {
        LogBus bus;
        std::optional<Machine> m;
        Machine::Outcome out{ MachineStatus::Running, nullptr, "" };
    };
    FastRun fastRuns[2];
    for (int flavour = 0; flavour < 2; ++flavour) {
        FastRun &r = fastRuns[flavour];
        SwitchForcer forcer(flavour == 1);
        r.m.emplace(img, r.bus,
                    tierConfig(DispatchTier::FastFunctional,
                               semispaceWords));
        r.out = r.m->run();
    }
    const FastRun &fg = fastRuns[0];
    const FastRun &fs = fastRuns[1];
    ASSERT_EQ(fg.out.status, fs.out.status)
        << "fast goto: " << fg.out.diagnostic
        << "\nfast switch: " << fs.out.diagnostic;
    EXPECT_EQ(fg.out.diagnostic, fs.out.diagnostic);
    EXPECT_EQ(fg.m->cycles(), fs.m->cycles());
    if (fg.out.status == MachineStatus::Done) {
        ASSERT_TRUE(fg.out.value && fs.out.value);
        EXPECT_TRUE(Value::equal(*fg.out.value, *fs.out.value));
    }
    expectStatsEqual(fg.m->stats(), fs.m->stats());
    EXPECT_EQ(fg.bus.ops, fs.bus.ops);

    const Machine::Outcome &ob = fastRuns[forceSwitch ? 1 : 0].out;
    const LogBus &busB = fastRuns[forceSwitch ? 1 : 0].bus;

    // Outcome equality applies when both runs terminated; resource
    // bounds fire at different points on a tier with no cycle clock
    // (fuzz/oracle.hh's equivalence map).
    auto terminal = [](MachineStatus st) {
        return st == MachineStatus::Done || st == MachineStatus::Stuck;
    };
    if (!terminal(oa.status) || !terminal(ob.status))
        return;
    ASSERT_EQ(oa.status, ob.status)
        << "uop: " << oa.diagnostic << "\nfast: " << ob.diagnostic;
    EXPECT_EQ(oa.diagnostic, ob.diagnostic);
    if (oa.status == MachineStatus::Done) {
        ASSERT_TRUE(oa.value && ob.value);
        EXPECT_TRUE(Value::equal(*oa.value, *ob.value))
            << "uop:  " << oa.value->toString() << "\n"
            << "fast: " << ob.value->toString();
    }
    EXPECT_EQ(busA.ops, busB.ops);
}

// seed, observed (ThreadedDifferential, ThreadedGcDifferential) or
// forceSwitch (FastDifferential, FastGcDifferential)
using TierParam = std::tuple<uint64_t, bool>;

class ThreadedDifferential
    : public ::testing::TestWithParam<TierParam>
{};

TEST_P(ThreadedDifferential, BitIdenticalOnRandomPrograms)
{
    auto [seed, observed] = GetParam();
    runFlavourDifferential(seed, 1u << 20, observed);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ThreadedDifferential,
    ::testing::Combine(::testing::Range(uint64_t(0), uint64_t(120)),
                       ::testing::Bool()));

class ThreadedGcDifferential
    : public ::testing::TestWithParam<TierParam>
{};

TEST_P(ThreadedGcDifferential, BitIdenticalUnderGcPressure)
{
    // A heap barely above the safe-point margin forces frequent
    // collections; the interpreter's register-cached state must
    // spill and reload around every GC so roots, copy order, and
    // pause accounting match across the flavours exactly.
    auto [seed, observed] = GetParam();
    runFlavourDifferential(seed, 3 * 4096, observed);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ThreadedGcDifferential,
    ::testing::Combine(::testing::Range(uint64_t(0), uint64_t(60)),
                       ::testing::Bool()));

class FastDifferential : public ::testing::TestWithParam<TierParam>
{};

TEST_P(FastDifferential, OutcomeEqualOnRandomPrograms)
{
    auto [seed, forceSwitch] = GetParam();
    runFastDifferential(seed, 1u << 20, forceSwitch);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FastDifferential,
    ::testing::Combine(::testing::Range(uint64_t(0), uint64_t(120)),
                       ::testing::Bool()));

class FastGcDifferential : public ::testing::TestWithParam<TierParam>
{};

TEST_P(FastGcDifferential, OutcomeEqualUnderGcPressure)
{
    auto [seed, forceSwitch] = GetParam();
    runFastDifferential(seed, 3 * 4096, forceSwitch);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FastGcDifferential,
    ::testing::Combine(::testing::Range(uint64_t(0), uint64_t(60)),
                       ::testing::Bool()));

// ----------------------------------------------------------------
// Fault injection: the flavours must agree bit-for-bit on what a
// physical upset does, including the detection diagnostics.
// ----------------------------------------------------------------

/** Run `drive` on a goto-flavour and a switch-flavour machine over
 *  `img` and require identical status, diagnostic, cycles, and
 *  statistics. */
template <typename Drive>
void
expectFlavoursAgree(const Image &img, Drive drive)
{
    NullBus busA, busB;
    Machine gotoM(img, busA, tierConfig(DispatchTier::Uop));
    Machine switchM(img, busB, tierConfig(DispatchTier::Uop));
    {
        SwitchForcer forcer(false);
        drive(gotoM);
    }
    {
        SwitchForcer forcer(true);
        drive(switchM);
    }
    EXPECT_EQ(gotoM.status(), switchM.status());
    EXPECT_EQ(gotoM.diagnostic(), switchM.diagnostic());
    EXPECT_EQ(gotoM.cycles(), switchM.cycles());
    expectStatsEqual(gotoM.stats(), switchM.stats());
}

TEST(ThreadedFault, HeapBitFlipBitIdentical)
{
    for (uint64_t seed : { 3u, 11u, 27u, 44u }) {
        // Identical schedule on both machines: run a prefix, flip
        // the same heap bit, then run out.
        expectFlavoursAgree(randomImage(seed), [&](Machine &m) {
            m.advance(2000);
            m.injectHeapBitFlip(size_t(seed * 13 + 5),
                                unsigned(seed % 31));
            m.run();
        });
    }
}

TEST(ThreadedFault, UndeclaredThunkIdLatchesHeapCorrupt)
{
    // Right after boot the heap holds exactly the entry thunk: word 0
    // is its header, App with fn = the entry's identifier (0x100).
    // Flip that fn to an undeclared identifier, once above the
    // primitive range and once inside it where no primitive lives,
    // and enter the thunk. Every tier must latch HeapCorrupt at the
    // thunk entry instead of indexing its function tables with the
    // wild identifier; the cycle-accurate tiers agree on the ledger.
    const Image img = encodeProgram(assembleOrDie(R"(
fun main =
  let x = add 2 3
  result x
)"));
    const std::vector<std::vector<unsigned>> flips = {
        { 14 },   // fn 0x4100: above every declaration
        { 8, 6 }, // fn 0x040: in the primitive range, no primitive
    };
    NullBus bus; // stateless; outlives every machine below
    for (const std::vector<unsigned> &bits : flips) {
        auto drive = [&](DispatchTier tier, bool forceSwitch) {
            auto m = std::make_unique<Machine>(img, bus,
                                               tierConfig(tier));
            SwitchForcer forcer(forceSwitch);
            for (unsigned bit : bits)
                EXPECT_TRUE(m->injectHeapBitFlip(0, bit));
            EXPECT_EQ(m->run().status, MachineStatus::HeapCorrupt)
                << dispatchTierName(tier) << " switch=" << forceSwitch
                << ": " << m->diagnostic();
            return m;
        };
        auto ref = drive(DispatchTier::WordWalk, false);
        EXPECT_EQ(ref->diagnostic(),
                  "thunk header names an undeclared identifier");
        for (bool forceSwitch : { false, true }) {
            auto uop = drive(DispatchTier::Uop, forceSwitch);
            EXPECT_EQ(uop->diagnostic(), ref->diagnostic());
            EXPECT_EQ(uop->cycles(), ref->cycles());
            expectStatsEqual(uop->stats(), ref->stats());
            drive(DispatchTier::FastFunctional, forceSwitch);
        }
    }
}

TEST(ThreadedFault, OperandBitFlipBitIdentical)
{
    for (uint64_t seed : { 7u, 19u, 52u }) {
        expectFlavoursAgree(randomImage(seed), [&](Machine &m) {
            m.advance(1500);
            m.injectOperandBitFlip(unsigned(seed % 32));
            m.run();
        });
    }
}

// ----------------------------------------------------------------
// Snapshot/restore: a snapshot taken under one flavour finishes
// identically under the other; the fast tier round-trips within its
// own tier, and a snapshot never crosses tiers.
// ----------------------------------------------------------------

TEST(ThreadedSnapshot, CrossTierRestoreBitIdentical)
{
    Image img = randomImage(23);
    NullBus busA;
    Machine straight(img, busA, tierConfig(DispatchTier::Uop));
    Machine::Outcome whole = straight.run();

    // Snapshot mid-run under one flavour, finish under the other,
    // in both directions, landing exactly where the straight run
    // landed.
    for (bool srcSwitch : { false, true }) {
        NullBus busS, busD;
        Machine source(img, busS, tierConfig(DispatchTier::Uop));
        std::shared_ptr<const MachineSnapshot> snap;
        {
            SwitchForcer forcer(srcSwitch);
            source.advance(straight.cycles() / 2);
            snap = source.snapshot();
        }
        Machine fork(img, busD, tierConfig(DispatchTier::Uop));
        fork.restore(*snap);
        Machine::Outcome out;
        {
            SwitchForcer forcer(!srcSwitch);
            out = fork.run();
        }
        EXPECT_EQ(out.status, whole.status);
        EXPECT_EQ(fork.cycles(), straight.cycles());
        if (whole.status == MachineStatus::Done) {
            ASSERT_TRUE(out.value && whole.value);
            EXPECT_TRUE(Value::equal(*out.value, *whole.value));
        }
        expectStatsEqual(fork.stats(), straight.stats());
    }
}

// ----------------------------------------------------------------
// The fast tier's accounting contract (docs/PERF.md): with tracing
// and the FSM tally on, execution emits no per-µop event, visits no
// apply/eval state, and leaves the class cycle fields and the
// execution cycle ledger where construction left them.
// ----------------------------------------------------------------

TEST(ThreadedFastAccounting, NoPerUopHooksOrCycleLedger)
{
    std::vector<Image> images = {
        encodeProgram(assembleOrDie(testing::countdownProgramText())),
    };
    for (uint64_t seed : { 2u, 9u, 33u, 71u })
        images.push_back(randomImage(seed));
    for (const Image &img : images) {
        for (bool forceSwitch : { false, true }) {
            LogBus bus;
            obs::Recorder rec{ obs::TraceConfig{ 1u << 16,
                                                 obs::kAllCats } };
            MachineConfig cfg = tierConfig(DispatchTier::FastFunctional);
            cfg.trace = &rec;
            cfg.fsmTally = true;
            Machine m(img, bus, cfg);
            const FsmTally boot = m.fsmTally();
            const Cycles bootExec = m.stats().execCycles;
            SwitchForcer forcer(forceSwitch);
            // advance(), not run(): run() exports the value through
            // the cycle-accurate interpreter.
            while (m.advance(997) == MachineStatus::Running) {}
            EXPECT_GT(m.stats().dynamicInstructions(), 0u);

            size_t perUopEvents = 0;
            for (size_t i = 0; i < rec.size(); ++i) {
                obs::EventKind k = rec.at(i).kind;
                perUopEvents += k == obs::EventKind::ExecLet ||
                                k == obs::EventKind::ExecCase ||
                                k == obs::EventKind::ExecResult ||
                                k == obs::EventKind::EvalEnter ||
                                k == obs::EventKind::PrimOp;
            }
            EXPECT_EQ(perUopEvents, 0u);
            for (unsigned s = static_cast<unsigned>(MState::ApFetchLet);
                 s < static_cast<unsigned>(MState::GcIdle); ++s) {
                EXPECT_EQ(m.fsmTally().visits[s], boot.visits[s])
                    << "state " << s;
                EXPECT_EQ(m.fsmTally().cycles[s], boot.cycles[s])
                    << "state " << s;
            }
            const MachineStats &st = m.stats();
            EXPECT_EQ(st.let.cycles, 0u);
            EXPECT_EQ(st.caseInstr.cycles, 0u);
            EXPECT_EQ(st.result.cycles, 0u);
            EXPECT_EQ(st.execCycles, bootExec);
        }
    }
}

TEST(ThreadedSnapshot, FastRoundTripsWithinItsFamily)
{
    Image img = randomImage(31);
    NullBus busA, busB;
    Machine straight(img, busA,
                     tierConfig(DispatchTier::FastFunctional));
    Machine::Outcome whole = straight.run();

    Machine rt(img, busB, tierConfig(DispatchTier::FastFunctional));
    rt.advance(straight.cycles() / 2);
    auto snap = rt.snapshot();
    Machine fork(img, busB, tierConfig(DispatchTier::FastFunctional));
    fork.restore(*snap);
    Machine::Outcome out = fork.run();
    EXPECT_EQ(out.status, whole.status);
    EXPECT_EQ(fork.cycles(), straight.cycles());
    if (whole.status == MachineStatus::Done) {
        ASSERT_TRUE(out.value && whole.value);
        EXPECT_TRUE(Value::equal(*out.value, *whole.value));
    }
}

TEST(ThreadedSnapshotDeathTest, CrossFamilyRestoreIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Image img = randomImage(5);
    NullBus busA, busB;
    Machine fast(img, busA, tierConfig(DispatchTier::FastFunctional));
    fast.advance(1000);
    auto snap = fast.snapshot();
    Machine uop(img, busB, tierConfig(DispatchTier::Uop));
    EXPECT_DEATH(uop.restore(*snap), "dispatch tier mismatch");
}

// ----------------------------------------------------------------
// ICD kernel workload
// ----------------------------------------------------------------

/** Back-to-back rig as in the Sec. 6 trace: the timer always
 *  fires, ECG samples come from a scripted heart. */
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

    void
    putInt(SWord port, SWord v) override
    {
        writes.push_back({ port, v });
    }

    ecg::Heart &heart;
    std::vector<std::pair<SWord, SWord>> writes;
};

TEST(ThreadedIcd, KernelTraceBitIdentical)
{
    // Include a VT episode so therapy paths execute in both runs.
    ecg::ScriptedHeart heartA({ { 20.0, 75.0 }, { 40.0, 190.0 } },
                              42);
    ecg::ScriptedHeart heartB({ { 20.0, 75.0 }, { 40.0, 190.0 } },
                              42);
    BusyRig rigA(heartA), rigB(heartB);
    Image img = icd::buildKernelImage();
    Machine gotoM(img, rigA, tierConfig(DispatchTier::Uop));
    Machine switchM(img, rigB, tierConfig(DispatchTier::Uop));

    while (gotoM.cycles() < 3'000'000 &&
           gotoM.advance(500'000) == MachineStatus::Running) {}
    {
        SwitchForcer forcer(true);
        while (switchM.cycles() < 3'000'000 &&
               switchM.advance(500'000) == MachineStatus::Running) {}
    }

    EXPECT_EQ(gotoM.cycles(), switchM.cycles());
    EXPECT_EQ(rigA.writes, rigB.writes);
    expectStatsEqual(gotoM.stats(), switchM.stats());
}

TEST(ThreadedIcd, KernelOutputFastMatches)
{
    // The fast tier has no cycle clock, so drive both runs by I/O
    // progress instead: the kernel's pacing decisions for the same
    // sample stream must be identical.
    ecg::ScriptedHeart heartA({ { 20.0, 75.0 }, { 40.0, 190.0 } },
                              42);
    ecg::ScriptedHeart heartB({ { 20.0, 75.0 }, { 40.0, 190.0 } },
                              42);
    BusyRig rigA(heartA), rigB(heartB);
    Image img = icd::buildKernelImage();
    Machine uop(img, rigA, tierConfig(DispatchTier::Uop));
    Machine fast(img, rigB, tierConfig(DispatchTier::FastFunctional));

    while (uop.cycles() < 3'000'000 &&
           uop.advance(500'000) == MachineStatus::Running) {}
    while (rigB.writes.size() < rigA.writes.size() &&
           fast.advance(500'000) == MachineStatus::Running) {}

    ASSERT_GE(rigB.writes.size(), rigA.writes.size());
    rigB.writes.resize(rigA.writes.size());
    EXPECT_EQ(rigA.writes, rigB.writes);
}

// ----------------------------------------------------------------
// Campaign flavour invariance: verdicts (and the JSON they render
// to) must not depend on the dispatch flavour.
// ----------------------------------------------------------------

TEST(ThreadedCampaign, VerdictsTierInvariant)
{
    fault::CampaignConfig cfg;
    cfg.scenarios = 44; // one full pass over the scenario space
    cfg.threads = 2;
    cfg.sinusSeconds = 0.35;
    cfg.vtSeconds = 0.35;

    fault::CampaignReport a = fault::runCampaign(cfg);
    // The hook is a plain global read by the pool's workers: set it
    // before the campaign fans out and clear it after the pool has
    // drained (runCampaign joins before returning).
    testhooks::forceSwitchDispatch = true;
    fault::CampaignReport b = fault::runCampaign(cfg);
    testhooks::forceSwitchDispatch = false;
    EXPECT_EQ(a.toJson(), b.toJson());
}

// ----------------------------------------------------------------
// Dispatch capability report
// ----------------------------------------------------------------

TEST(ThreadedDispatch, CapabilityMatchesBuildDefine)
{
#ifdef ZARF_HAVE_COMPUTED_GOTO
    EXPECT_TRUE(threadedDispatchUsesComputedGoto());
#else
    EXPECT_FALSE(threadedDispatchUsesComputedGoto());
#endif
}

} // namespace
} // namespace zarf
