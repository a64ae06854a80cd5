/**
 * @file
 * Property tests for the observability layer (docs/OBSERVABILITY.md):
 * structural invariants of recorded traces (per-track timestamp
 * monotonicity, GC begin/end pairing), agreement between the
 * FSM-state tally and the MachineStats cycle ledger, and the
 * determinism guarantees — identical traces on the predecoded and
 * word-walking paths, across repeated runs, and (for campaign
 * metrics) across worker thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <string>

#include "fuzz/genprog.hh"
#include "common/testprogs.hh"
#include "ecg/synth.hh"
#include "fault/campaign.hh"
#include "icd/baseline.hh"
#include "icd/zarf_icd.hh"
#include "isa/encoding.hh"
#include "machine/machine.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "system/system.hh"
#include "zasm/zasm.hh"

namespace zarf
{
namespace
{

Image
randomImage(uint64_t seed)
{
    fuzz::GenConfig gcfg;
    gcfg.numCons = 4;
    gcfg.numFuncs = 6;
    gcfg.maxDepth = 5;
    fuzz::ProgramGenerator gen(seed * 2654435761u + 11, gcfg);
    BuildResult b = gen.generate().tryBuild();
    EXPECT_TRUE(b.ok) << b.error;
    return encodeProgram(b.program);
}

/** Run `img` to completion with a recorder and (optionally) the
 *  FSM tally attached. */
struct TracedRun
{
    obs::Recorder rec;
    MachineStats stats;
    FsmTally tally;
    Cycles cycles = 0;
    MachineStatus status = MachineStatus::Running;
    std::string json;

    TracedRun(const Image &img, bool predecode,
              size_t semispaceWords = 1u << 16,
              uint32_t mask = obs::kAllCats,
              size_t capacity = 1u << 20)
        : rec(obs::TraceConfig{ capacity, mask })
    {
        MachineConfig cfg;
        cfg.tier = predecode ? DispatchTier::Uop : DispatchTier::WordWalk;
        cfg.semispaceWords = semispaceWords;
        cfg.trace = &rec;
        cfg.fsmTally = true;
        NullBus bus;
        Machine m(img, bus, cfg);
        status = m.run().status;
        stats = m.stats();
        tally = m.fsmTally();
        cycles = m.cycles();
        json = rec.toChromeJson();
    }
};

// ------------------------------------------------------------------
// Structural invariants.
// ------------------------------------------------------------------

/** Timestamps never go backwards within a display track. GcEnd is
 *  excluded: collection runs off the mutator clock, so an end stamp
 *  (begin + pause) may legitimately exceed the next events' mutator
 *  timestamps; the pairing test below pins GcEnd down instead. */
void
expectMonotonePerTrack(const obs::Recorder &rec)
{
    Cycles last[size_t(obs::Track::NumTracks)] = {};
    bool seen[size_t(obs::Track::NumTracks)] = {};
    rec.forEach([&](const obs::Event &e) {
        if (e.kind == obs::EventKind::GcEnd)
            return;
        size_t t = size_t(obs::eventTrack(e.kind));
        if (seen[t])
            EXPECT_GE(e.ts, last[t])
                << "track " << obs::trackName(obs::Track(t))
                << " event " << obs::eventName(e.kind);
        last[t] = e.ts;
        seen[t] = true;
    });
}

class ObsMonotone : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(ObsMonotone, TimestampsMonotonePerTrack)
{
    TracedRun run(randomImage(GetParam()), true);
    expectMonotonePerTrack(run.rec);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObsMonotone,
                         ::testing::Range(uint64_t(0), uint64_t(25)));

TEST(ObsProperty, GcEventsPairAndSumToGcCycles)
{
    // A tight heap on the countdown loop forces many collections.
    Image img = encodeProgram(
        assembleOrDie(testing::countdownProgramText()));
    TracedRun run(img, true, 1u << 14,
                  uint32_t(obs::Cat::MachineGc));
    ASSERT_EQ(run.status, MachineStatus::Done);
    ASSERT_GT(run.stats.gcRuns, 0u);

    uint64_t begins = 0, ends = 0;
    Cycles pauseSum = 0;
    bool open = false;
    Cycles openTs = 0;
    run.rec.forEach([&](const obs::Event &e) {
        if (e.kind == obs::EventKind::GcBegin) {
            EXPECT_FALSE(open) << "nested GcBegin";
            open = true;
            openTs = e.ts;
            ++begins;
        } else if (e.kind == obs::EventKind::GcEnd) {
            ASSERT_TRUE(open) << "GcEnd without GcBegin";
            open = false;
            // End stamps begin + pause so the Perfetto slice spans
            // the pause even though GC runs off the mutator clock.
            EXPECT_EQ(e.ts, openTs + Cycles(e.b));
            pauseSum += Cycles(e.b);
            ++ends;
        }
    });
    EXPECT_FALSE(open) << "unclosed GcBegin";
    EXPECT_EQ(begins, run.stats.gcRuns);
    EXPECT_EQ(ends, run.stats.gcRuns);
    EXPECT_EQ(pauseSum, run.stats.gcCycles);
}

class ObsTally : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(ObsTally, TallyPartitionsTheCycleLedger)
{
    // The per-state tally must partition the ledger exactly: its
    // group sums equal the MachineStats totals, and the machine
    // clock carries load + exec only (GC runs off the clock).
    TracedRun run(randomImage(GetParam()), true, 1u << 14);
    EXPECT_EQ(run.tally.loadCycles(), run.stats.loadCycles);
    EXPECT_EQ(run.tally.execCycles(), run.stats.execCycles);
    EXPECT_EQ(run.tally.gcCycles(), run.stats.gcCycles);
    EXPECT_EQ(run.cycles, run.stats.loadCycles + run.stats.execCycles);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObsTally,
                         ::testing::Range(uint64_t(0), uint64_t(25)));

// ------------------------------------------------------------------
// Determinism.
// ------------------------------------------------------------------

class ObsPathIdentical : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(ObsPathIdentical, TraceIdenticalAcrossExecutionPaths)
{
    // The µop and word-walking paths must emit byte-identical traces:
    // every event at the same cycle with the same arguments. (Events
    // deliberately carry function ids, never word/µop positions.)
    Image img = randomImage(GetParam());
    TracedRun uop(img, true, 1u << 14);
    TracedRun ref(img, false, 1u << 14);
    ASSERT_EQ(uop.status, ref.status);
    EXPECT_EQ(uop.rec.emitted(), ref.rec.emitted());
    EXPECT_EQ(uop.json, ref.json);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObsPathIdentical,
                         ::testing::Range(uint64_t(0), uint64_t(25)));

TEST(ObsProperty, RepeatedSystemRunsAreByteIdentical)
{
    // Two co-simulations of the same seed — trace and metrics JSON
    // byte-identical, including across a watchdog restart.
    auto once = [](std::string &traceJson, std::string &metricsJson) {
        ecg::ScriptedHeart heart({ { 600.0, 75.0 } }, 42);
        sys::SystemConfig cfg;
        cfg.fallbackProgram = icd::baselineIcdProgram();
        cfg.faultPlan.events.push_back(
            { 25'000'000, fault::FaultKind::HeapSeuDouble, 1,
              0x0102 });
        cfg.lambdaFsmTally = true;
        obs::TraceConfig tcfg;
        tcfg.mask = uint32_t(obs::Cat::System) |
                    uint32_t(obs::Cat::MachineLife) |
                    uint32_t(obs::Cat::MachineGc);
        obs::Recorder rec(tcfg);
        cfg.trace = &rec;
        sys::TwoLayerSystem system(icd::buildKernelImage(),
                                   icd::monitorProgram(), heart,
                                   cfg);
        system.runForMs(600.0);
        EXPECT_EQ(system.watchdogRestarts(), 1u);
        traceJson = rec.toChromeJson();
        obs::Metrics m;
        system.exportMetrics(m);
        metricsJson = m.toJson();
    };
    std::string t1, m1, t2, m2;
    once(t1, m1);
    once(t2, m2);
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(m1, m2);
    EXPECT_FALSE(t1.empty());
    EXPECT_FALSE(m1.empty());
}

TEST(ObsProperty, CampaignMetricsIndependentOfThreadCount)
{
    fault::CampaignConfig cfg;
    cfg.scenarios = 8;
    cfg.seedBase = 3;
    cfg.threads = 1;
    fault::CampaignReport serial = fault::runCampaign(cfg);
    cfg.threads = 3;
    fault::CampaignReport parallel = fault::runCampaign(cfg);
    EXPECT_EQ(serial.metricsJson(), parallel.metricsJson());
    EXPECT_EQ(serial.toJson(), parallel.toJson());
}

// ------------------------------------------------------------------
// Metrics registry.
// ------------------------------------------------------------------

TEST(ObsProperty, MetricsJsonIsSortedAndStable)
{
    obs::Metrics m;
    m.setCounter("z.last", 3);
    m.setCounter("a.first", 1);
    m.setGauge("depth", -4);
    m.addBucket("states", "load", 7);
    m.addBucket("states", "exec", 9);
    std::string json = m.toJson();
    // Counters render sorted regardless of insertion order;
    // histogram buckets keep insertion order.
    EXPECT_LT(json.find("a.first"), json.find("z.last"));
    EXPECT_LT(json.find("\"load\""), json.find("\"exec\""));
    EXPECT_NE(json.find("\"depth\": -4"), std::string::npos);
    // Rendering twice is identical.
    EXPECT_EQ(json, m.toJson());
}

TEST(ObsProperty, RecorderDropsOldestAndCounts)
{
    obs::Recorder rec(obs::TraceConfig{ 4, obs::kAllCats });
    for (int i = 0; i < 10; ++i)
        rec.emit(obs::EventKind::TickConsumed, Cycles(i), i, 0);
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.emitted(), 10u);
    EXPECT_EQ(rec.dropped(), 6u);
    // The oldest held event is #6 — the newest window survives.
    EXPECT_EQ(rec.at(0).a, 6);
    EXPECT_EQ(rec.at(3).a, 9);
}

/** The ring's reference model: an unbounded deque trimmed from the
 *  front, with its own emitted/dropped counters. */
struct RingModel
{
    size_t capacity;
    std::deque<obs::Event> held;
    uint64_t emitted = 0;
    uint64_t dropped = 0;

    void
    emit(const obs::Event &e)
    {
        ++emitted;
        held.push_back(e);
        if (held.size() > capacity) {
            held.pop_front();
            ++dropped;
        }
    }

    void
    clear()
    {
        held.clear();
        emitted = 0;
        dropped = 0;
    }

    /** Chrome JSON of the model's window: a recorder just large
     *  enough to hold it without wrapping, with the model's
     *  counters in the trailer. */
    std::string
    chromeJson() const
    {
        obs::Recorder flat(
            obs::TraceConfig{ std::max<size_t>(held.size(), 1),
                              obs::kAllCats });
        for (const obs::Event &e : held)
            flat.emit(e.kind, e.ts, e.a, e.b);
        std::string json = flat.toChromeJson();
        std::string from = "\"emitted\": " +
                           std::to_string(held.size()) +
                           ", \"dropped\": 0}";
        std::string to = "\"emitted\": " + std::to_string(emitted) +
                         ", \"dropped\": " + std::to_string(dropped) +
                         "}";
        size_t at = json.rfind(from);
        EXPECT_NE(at, std::string::npos);
        return json.replace(at, from.size(), to);
    }
};

void
expectMatchesModel(const obs::Recorder &rec, const RingModel &m)
{
    ASSERT_EQ(rec.size(), m.held.size());
    EXPECT_EQ(rec.emitted(), m.emitted);
    EXPECT_EQ(rec.dropped(), m.dropped);
    auto same = [](const obs::Event &x, const obs::Event &y) {
        return x.ts == y.ts && x.a == y.a && x.b == y.b &&
               x.kind == y.kind;
    };
    for (size_t i = 0; i < m.held.size(); ++i)
        ASSERT_TRUE(same(rec.at(i), m.held[i])) << "at(" << i << ")";
    size_t i = 0;
    bool inOrder = true;
    rec.forEach([&](const obs::Event &e) {
        inOrder = inOrder && i < m.held.size() && same(e, m.held[i]);
        ++i;
    });
    EXPECT_TRUE(inOrder);
    EXPECT_EQ(i, m.held.size());
    EXPECT_EQ(rec.toChromeJson(), m.chromeJson());
}

class ObsRingModel : public ::testing::TestWithParam<size_t>
{};

TEST_P(ObsRingModel, RingMatchesDequeModelAcrossWrapAndClear)
{
    const size_t cap = GetParam();
    obs::Recorder rec(obs::TraceConfig{ cap, obs::kAllCats });
    RingModel model{ cap, {}, 0, 0 };
    const obs::EventKind kinds[] = {
        obs::EventKind::MachLoad,     obs::EventKind::GcBegin,
        obs::EventKind::GcEnd,        obs::EventKind::TickConsumed,
        obs::EventKind::MbBranch,     obs::EventKind::ChanPush,
    };
    uint64_t serial = 0;
    auto emitN = [&](size_t n) {
        for (size_t k = 0; k < n; ++k, ++serial) {
            obs::Event e{ Cycles(serial * 3),
                          int64_t(serial) - 17, int64_t(serial * 7),
                          kinds[serial % std::size(kinds)] };
            rec.emit(e.kind, e.ts, e.a, e.b);
            model.emit(e);
        }
    };

    expectMatchesModel(rec, model); // empty
    emitN(cap / 2 + 1);             // part-filled, no wrap yet
    expectMatchesModel(rec, model);
    rec.clear();
    model.clear();
    emitN(cap + 2); // regrow a cleared, part-grown ring past capacity
    expectMatchesModel(rec, model);
    emitN(2 * cap + 3); // across the wrap, several times
    expectMatchesModel(rec, model);

    rec.clear();
    model.clear();
    expectMatchesModel(rec, model);
    emitN(cap / 3 + 1); // refill a cleared, already-grown ring
    expectMatchesModel(rec, model);
    emitN(cap + 2); // and wrap it again
    expectMatchesModel(rec, model);
}

INSTANTIATE_TEST_SUITE_P(Capacities, ObsRingModel,
                         ::testing::Values(size_t(1), size_t(7),
                                           size_t(1) << 15));

} // namespace
} // namespace zarf
