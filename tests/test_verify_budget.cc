/**
 * @file
 * Harness-resilience substrate tests (docs/RESILIENCE.md, "Harness
 * resilience"): the cooperative Budget token and its machine-level
 * enforcement (tier-invariant λ-cycle trips, heap trips, cancellation
 * at awkward points with snapshot-restorable state), the crash-safe
 * verdict journal's torn-tail contract, the capped-exponential retry
 * policy, task supervision, and the quarantine store.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/testprogs.hh"
#include "fuzz/genprog.hh"
#include "machine/machine.hh"
#include "machine/testhooks.hh"
#include "verify/budget.hh"
#include "verify/journal.hh"
#include "verify/quarantine.hh"
#include "verify/supervise.hh"
#include "zasm/zasm.hh"

namespace zarf::verify
{
namespace
{

namespace fs = std::filesystem;

/** Fresh per-test scratch directory under the gtest temp root. */
fs::path
scratchDir(const char *name)
{
    fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

// ----------------------------------------------------------------
// Budget token unit semantics.
// ----------------------------------------------------------------

TEST(Budget, DefaultSpecIsUnlimited)
{
    BudgetSpec spec;
    EXPECT_FALSE(spec.any());
    spec.maxLambdaCycles = 1;
    EXPECT_TRUE(spec.any());
    spec = {};
    spec.maxHostMillis = 1;
    EXPECT_TRUE(spec.any());
    spec = {};
    spec.maxHeapBytes = 1;
    EXPECT_TRUE(spec.any());

    Budget b;
    EXPECT_EQ(b.check(~Cycles(0), ~uint64_t(0)), BudgetTrip::None);
    EXPECT_EQ(b.tripped(), BudgetTrip::None);
}

TEST(Budget, CycleLimitLatchesOnce)
{
    BudgetSpec spec;
    spec.maxLambdaCycles = 100;
    Budget b(spec);
    EXPECT_EQ(b.check(99, 0), BudgetTrip::None);
    EXPECT_EQ(b.check(100, 0), BudgetTrip::Cycles);
    // Latched: even a check that is back within limits reports the
    // original trip — a Budget trips at most once, forever.
    EXPECT_EQ(b.check(0, 0), BudgetTrip::Cycles);
    EXPECT_EQ(b.tripped(), BudgetTrip::Cycles);
}

TEST(Budget, HeapLimitIsStrictlyAbove)
{
    BudgetSpec spec;
    spec.maxHeapBytes = 4096;
    Budget b(spec);
    EXPECT_EQ(b.check(0, 4096), BudgetTrip::None);
    EXPECT_EQ(b.check(0, 4097), BudgetTrip::Heap);
    EXPECT_EQ(b.tripped(), BudgetTrip::Heap);
}

TEST(Budget, DeterministicCausesWinOverTransientOnes)
{
    // A run that blows the λ-cycle limit *and* has a pending cancel
    // must report the reproducible cause, so retries classify it as
    // wedging instead of transient.
    BudgetSpec spec;
    spec.maxLambdaCycles = 10;
    spec.maxHostMillis = 1;
    Budget b(spec);
    b.cancel();
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    EXPECT_EQ(b.check(10, 0), BudgetTrip::Cycles);
}

TEST(Budget, CancelAndHostTimeAreTransient)
{
    {
        Budget b;
        b.cancel();
        EXPECT_TRUE(b.cancelRequested());
        EXPECT_EQ(b.check(0, 0), BudgetTrip::Cancelled);
    }
    {
        BudgetSpec spec;
        spec.maxHostMillis = 1;
        Budget b(spec);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        EXPECT_EQ(b.check(0, 0), BudgetTrip::HostTime);
    }
    EXPECT_FALSE(budgetTripTransient(BudgetTrip::None));
    EXPECT_FALSE(budgetTripTransient(BudgetTrip::Cycles));
    EXPECT_FALSE(budgetTripTransient(BudgetTrip::Heap));
    EXPECT_TRUE(budgetTripTransient(BudgetTrip::HostTime));
    EXPECT_TRUE(budgetTripTransient(BudgetTrip::Cancelled));
}

TEST(Budget, TripNamesAreStable)
{
    EXPECT_STREQ(budgetTripName(BudgetTrip::None), "none");
    EXPECT_STREQ(budgetTripName(BudgetTrip::Cycles),
                 "lambda-cycles");
    EXPECT_STREQ(budgetTripName(BudgetTrip::Heap), "heap-bytes");
    EXPECT_STREQ(budgetTripName(BudgetTrip::HostTime), "host-time");
    EXPECT_STREQ(budgetTripName(BudgetTrip::Cancelled), "cancelled");
}

// ----------------------------------------------------------------
// Machine-level enforcement.
// ----------------------------------------------------------------

Image
budgetTestImage(uint64_t seed)
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

MachineConfig
tierConfig(DispatchTier tier, Budget *budget,
           size_t semispaceWords = 1u << 20)
{
    MachineConfig cfg;
    cfg.tier = tier;
    cfg.budget = budget;
    cfg.semispaceWords = semispaceWords;
    return cfg;
}

constexpr DispatchTier kCycleAccurate[] = {
    DispatchTier::WordWalk,
    DispatchTier::Uop,
};

/** The canonical long-running programs (tests/common/testprogs.hh).
 *  Generated corpus programs are terminating-by-construction and
 *  finish within a few hundred cycles, so every test that needs a
 *  trip to land genuinely mid-run anchors on these: the 100k-step
 *  countdown loop (~4.6M cycles, heavy garbage churn under a tiny
 *  semispace) and the Church-numeral tower (~16k cycles). */
Image
countdownImage()
{
    return encodeProgram(
        assembleOrDie(testing::countdownProgramText()));
}

Image
churchImage()
{
    return encodeProgram(
        assembleOrDie(testing::churchProgramText()));
}

TEST(MachineBudget, CycleTripIsTierInvariant)
{
    // The canonical programs always qualify; the generated ones add
    // ISA breadth whenever the generator happens to emit a long run.
    std::vector<Image> images = { countdownImage(), churchImage() };
    for (uint64_t seed = 0; seed < 6; ++seed)
        images.push_back(budgetTestImage(seed));
    unsigned exercised = 0;
    for (const Image &img : images) {
        NullBus bus;
        Machine ref(img, bus, tierConfig(DispatchTier::Uop, nullptr));
        Machine::Outcome o = ref.run();
        if (o.status != MachineStatus::Done || ref.cycles() < 2000)
            continue; // trivial program; next image
        ++exercised;
        Cycles limit = ref.cycles() / 2;

        BudgetSpec spec;
        spec.maxLambdaCycles = limit;
        Cycles tripCycle = 0;
        for (DispatchTier tier : kCycleAccurate) {
            Budget bud(spec);
            NullBus tbus;
            Machine m(img, tbus, tierConfig(tier, &bud));
            Machine::Outcome to = m.run();
            EXPECT_EQ(to.status, MachineStatus::BudgetExceeded)
                << dispatchTierName(tier);
            EXPECT_EQ(bud.tripped(), BudgetTrip::Cycles);
            EXPECT_GE(m.cycles(), limit);
            // All cycle-accurate tiers stop on the same step
            // boundary — the same cycle, the same statistics.
            if (tripCycle == 0)
                tripCycle = m.cycles();
            EXPECT_EQ(m.cycles(), tripCycle)
                << dispatchTierName(tier);
            // Stats stay coherent at the abort point: the machine
            // clock is exactly load + execution.
            EXPECT_EQ(m.stats().loadCycles + m.stats().execCycles,
                      m.cycles())
                << dispatchTierName(tier);
            EXPECT_NE(m.diagnostic().find("lambda-cycles"),
                      std::string::npos);
        }

        // The fast-functional tier has its own (fused-step) clock;
        // halve *its* total so the trip lands mid-run there too.
        Budget ffProbeBud; // unlimited, just to exercise the path
        NullBus ffbus;
        Machine ffRef(img, ffbus,
                      tierConfig(DispatchTier::FastFunctional,
                                 &ffProbeBud));
        ffRef.run();
        BudgetSpec ffSpec;
        ffSpec.maxLambdaCycles = ffRef.cycles() / 2;
        if (ffSpec.maxLambdaCycles == 0)
            continue;
        Budget ffBud(ffSpec);
        NullBus ffbus2;
        Machine ff(img, ffbus2,
                   tierConfig(DispatchTier::FastFunctional, &ffBud));
        Machine::Outcome ffo = ff.run();
        EXPECT_EQ(ffo.status, MachineStatus::BudgetExceeded);
        EXPECT_EQ(ffBud.tripped(), BudgetTrip::Cycles);
        EXPECT_GE(ff.cycles(), ffSpec.maxLambdaCycles);
    }
    // Guard against vacuity: the countdown loop and the Church
    // tower both run far past the qualifying threshold.
    EXPECT_GE(exercised, 2u);
}

TEST(MachineBudget, GenerousBudgetIsInvisible)
{
    Image img = budgetTestImage(3);
    NullBus busA;
    Machine plain(img, busA, tierConfig(DispatchTier::Uop, nullptr));
    Machine::Outcome oPlain = plain.run();

    BudgetSpec spec;
    spec.maxLambdaCycles = plain.cycles() * 4 + 1000;
    spec.maxHeapBytes = 1u << 30;
    Budget bud(spec);
    NullBus busB;
    Machine budgeted(img, busB, tierConfig(DispatchTier::Uop, &bud));
    Machine::Outcome oBud = budgeted.run();

    ASSERT_EQ(oBud.status, oPlain.status);
    EXPECT_EQ(budgeted.cycles(), plain.cycles());
    EXPECT_EQ(bud.tripped(), BudgetTrip::None);
    EXPECT_EQ(budgeted.stats().allocations,
              plain.stats().allocations);
    if (oPlain.status == MachineStatus::Done) {
        ASSERT_TRUE(oPlain.value && oBud.value);
        EXPECT_TRUE(Value::equal(*oPlain.value, *oBud.value));
    }
}

TEST(MachineBudget, HeapTripUnderGcPressure)
{
    // The countdown loop churns garbage through a 12k-word
    // semispace (dozens of collections, 9-word live set); a heap
    // ceiling far below the between-collection high-water mark MUST
    // trip at a chunk boundary — and at the identical cycle across
    // the cycle-accurate tiers, since the usage the check observes
    // is part of the deterministic machine state.
    {
        Image img = countdownImage();
        BudgetSpec spec;
        spec.maxHeapBytes = 16 * 1024;
        Cycles tripCycle = 0;
        for (DispatchTier tier : kCycleAccurate) {
            Budget bud(spec);
            NullBus bus;
            Machine m(img, bus, tierConfig(tier, &bud, 3 * 4096));
            m.run();
            EXPECT_EQ(m.status(), MachineStatus::BudgetExceeded)
                << dispatchTierName(tier);
            EXPECT_EQ(bud.tripped(), BudgetTrip::Heap);
            if (tripCycle == 0)
                tripCycle = m.cycles();
            EXPECT_EQ(m.cycles(), tripCycle)
                << dispatchTierName(tier);
            EXPECT_NE(m.diagnostic().find("heap-bytes"),
                      std::string::npos);
        }
    }

    // Generated-program breadth: a ceiling below the observed live
    // peak may or may not be seen at a check boundary (short runs
    // check rarely), but when it does trip it must trip identically.
    for (uint64_t seed = 0; seed < 8; ++seed) {
        Image img = budgetTestImage(seed);
        NullBus refBus;
        Machine ref(img, refBus,
                    tierConfig(DispatchTier::Uop, nullptr, 3 * 4096));
        ref.run();
        size_t peakBytes = ref.stats().gcMaxLiveWords * sizeof(Word);
        if (ref.status() != MachineStatus::Done ||
            ref.stats().gcRuns == 0 || peakBytes < 512)
            continue;

        BudgetSpec spec;
        spec.maxHeapBytes = peakBytes / 2;
        Cycles tripCycle = 0;
        for (DispatchTier tier : kCycleAccurate) {
            Budget bud(spec);
            NullBus bus;
            Machine m(img, bus, tierConfig(tier, &bud, 3 * 4096));
            m.run();
            if (bud.tripped() == BudgetTrip::None)
                continue; // heap high-water between checks; fine
            EXPECT_EQ(m.status(), MachineStatus::BudgetExceeded);
            EXPECT_EQ(bud.tripped(), BudgetTrip::Heap);
            if (tripCycle == 0)
                tripCycle = m.cycles();
            EXPECT_EQ(m.cycles(), tripCycle)
                << dispatchTierName(tier);
        }
    }
}

TEST(MachineBudget, CancelledMachineIsSnapshotRestorable)
{
    // Satellite (c): a budget abort mid-run — with GC pressure, so
    // the trip lands in an interesting heap era — leaves consistent,
    // snapshottable state that a fork adopts exactly.
    Image img = countdownImage();
    NullBus refBus;
    Machine ref(img, refBus,
                tierConfig(DispatchTier::Uop, nullptr, 3 * 4096));
    ref.run();
    ASSERT_GE(ref.cycles(), 2000u);

    BudgetSpec spec;
    spec.maxLambdaCycles = ref.cycles() / 2;
    Budget bud(spec);
    NullBus bus;
    Machine m(img, bus, tierConfig(DispatchTier::Uop, &bud, 3 * 4096));
    ASSERT_EQ(m.run().status, MachineStatus::BudgetExceeded);

    std::shared_ptr<const MachineSnapshot> snap = m.snapshot();
    NullBus forkBus;
    Machine fork(img, forkBus,
                 tierConfig(DispatchTier::Uop, nullptr, 3 * 4096));
    fork.restore(*snap);
    EXPECT_EQ(fork.status(), MachineStatus::BudgetExceeded);
    EXPECT_EQ(fork.cycles(), m.cycles());
    EXPECT_EQ(fork.stats().allocations, m.stats().allocations);
    EXPECT_EQ(fork.stats().gcRuns, m.stats().gcRuns);
    EXPECT_EQ(fork.heapUsedWords(), m.heapUsedWords());
}

TEST(MachineBudget, CancelBeforeRestoredRunAbortsWithoutProgress)
{
    // Satellite (c), the snapshot-restore window: a cancel raised
    // before a restored machine resumes must abort it at the very
    // first SYNC point, with the adopted state untouched.
    Image img = churchImage();
    NullBus srcBus;
    Machine source(img, srcBus,
                   tierConfig(DispatchTier::Uop, nullptr));
    NullBus probeBus;
    Machine probe(img, probeBus,
                  tierConfig(DispatchTier::Uop, nullptr));
    probe.run();
    ASSERT_GE(probe.cycles(), 1000u);
    source.advance(probe.cycles() / 2);
    ASSERT_EQ(source.status(), MachineStatus::Running);
    std::shared_ptr<const MachineSnapshot> snap = source.snapshot();

    Budget bud;
    bud.cancel();
    NullBus forkBus;
    Machine fork(img, forkBus, tierConfig(DispatchTier::Uop, &bud));
    fork.restore(*snap);
    EXPECT_EQ(fork.advance(1'000'000'000ull),
              MachineStatus::BudgetExceeded);
    EXPECT_EQ(bud.tripped(), BudgetTrip::Cancelled);
    // No simulated progress past the snapshot point.
    EXPECT_EQ(fork.cycles(), source.cycles());
}

TEST(MachineBudget, CancelInThreadedBatchedWindowStopsAtSyncPoint)
{
    // The µop interpreter's batched cycle-charge window, under
    // both dispatch flavours: a pre-raised cancel aborts before the
    // first chunk, so the machine clock never moves past the
    // construction-time load+boot point.
    Image img = budgetTestImage(9);
    for (bool forceSwitch : { false, true }) {
        Budget bud;
        bud.cancel();
        NullBus bus;
        Machine m(img, bus, tierConfig(DispatchTier::Uop, &bud));
        Cycles atBirth = m.cycles();
        testhooks::forceSwitchDispatch = forceSwitch;
        MachineStatus st = m.advance(1'000'000'000ull);
        testhooks::forceSwitchDispatch = false;
        EXPECT_EQ(st, MachineStatus::BudgetExceeded)
            << "switch flavour: " << forceSwitch;
        EXPECT_EQ(bud.tripped(), BudgetTrip::Cancelled);
        EXPECT_EQ(m.cycles(), atBirth)
            << "switch flavour: " << forceSwitch;
        EXPECT_NE(m.diagnostic().find("cancelled"),
                  std::string::npos);
    }
}

// ----------------------------------------------------------------
// The crash-safe journal.
// ----------------------------------------------------------------

std::string
readFileBytes(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(Journal, RoundTripPreservesRecordsInOrder)
{
    fs::path dir = scratchDir("journal-roundtrip");
    std::string path = (dir / "j.bin").string();

    std::vector<std::string> records = {
        "fingerprint", std::string("\0\x01\x02", 3), "", "verdict-3"
    };
    {
        JournalWriter w(path, JournalWriter::Mode::Truncate);
        ASSERT_TRUE(w.ok());
        for (const std::string &r : records)
            ASSERT_TRUE(w.append(r));
    }
    JournalRead rd = readJournal(path);
    ASSERT_TRUE(rd.ok) << rd.error;
    EXPECT_FALSE(rd.truncatedTail);
    ASSERT_EQ(rd.records.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(rd.records[i], records[i]) << i;
    EXPECT_EQ(rd.intactBytes, fs::file_size(path));
}

TEST(Journal, MissingFileIsNotOk)
{
    fs::path dir = scratchDir("journal-missing");
    JournalRead rd = readJournal((dir / "absent.bin").string());
    EXPECT_FALSE(rd.ok);
    EXPECT_TRUE(rd.records.empty());
}

TEST(Journal, TornTailIsDroppedAndOverwrittenOnResume)
{
    fs::path dir = scratchDir("journal-torn");
    std::string path = (dir / "j.bin").string();
    {
        JournalWriter w(path, JournalWriter::Mode::Truncate);
        ASSERT_TRUE(w.append("alpha"));
        ASSERT_TRUE(w.append("beta"));
    }
    uint64_t goodBytes = fs::file_size(path);

    // Simulate a kill mid-append: a frame header with no payload.
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out.write("\x40\x00\x00\x00\x99", 5);
    }
    JournalRead rd = readJournal(path);
    ASSERT_TRUE(rd.ok);
    EXPECT_TRUE(rd.truncatedTail);
    ASSERT_EQ(rd.records.size(), 2u);
    EXPECT_EQ(rd.records[0], "alpha");
    EXPECT_EQ(rd.records[1], "beta");
    EXPECT_EQ(rd.intactBytes, goodBytes);

    // Resume positions after the last good record; the torn bytes
    // are gone and the next append lands where they were.
    {
        JournalWriter w(path, JournalWriter::Mode::Resume,
                        rd.intactBytes);
        ASSERT_TRUE(w.ok());
        ASSERT_TRUE(w.append("gamma"));
    }
    JournalRead rd2 = readJournal(path);
    ASSERT_TRUE(rd2.ok);
    EXPECT_FALSE(rd2.truncatedTail);
    ASSERT_EQ(rd2.records.size(), 3u);
    EXPECT_EQ(rd2.records[2], "gamma");
}

TEST(Journal, ChecksumFailureTruncatesAtTheCorruptRecord)
{
    fs::path dir = scratchDir("journal-corrupt");
    std::string path = (dir / "j.bin").string();
    {
        JournalWriter w(path, JournalWriter::Mode::Truncate);
        ASSERT_TRUE(w.append("alpha"));
        ASSERT_TRUE(w.append("beta-which-gets-corrupted"));
    }
    // Flip one payload byte of the last record.
    std::string bytes = readFileBytes(path);
    bytes[bytes.size() - 3] ^= 0x20;
    {
        std::ofstream out(path,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), std::streamsize(bytes.size()));
    }
    JournalRead rd = readJournal(path);
    ASSERT_TRUE(rd.ok);
    EXPECT_TRUE(rd.truncatedTail);
    ASSERT_EQ(rd.records.size(), 1u);
    EXPECT_EQ(rd.records[0], "alpha");
}

TEST(Journal, U64CodecRoundTripsAndRejectsShortBuffers)
{
    std::string buf;
    journalPutU64(buf, 0);
    journalPutU64(buf, 0x0123456789abcdefull);
    journalPutU64(buf, ~uint64_t(0));
    ASSERT_EQ(buf.size(), 24u);
    size_t off = 0;
    uint64_t v = 1;
    ASSERT_TRUE(journalGetU64(buf, off, v));
    EXPECT_EQ(v, 0u);
    ASSERT_TRUE(journalGetU64(buf, off, v));
    EXPECT_EQ(v, 0x0123456789abcdefull);
    ASSERT_TRUE(journalGetU64(buf, off, v));
    EXPECT_EQ(v, ~uint64_t(0));
    EXPECT_FALSE(journalGetU64(buf, off, v));
    // Little-endian on every host: byte 0 of the second field.
    EXPECT_EQ(uint8_t(buf[8]), 0xef);
}

// ----------------------------------------------------------------
// Retry policy and supervision.
// ----------------------------------------------------------------

TEST(RetryPolicy, BackoffDoublesAndSaturatesAtTheCap)
{
    RetryPolicy p;
    p.backoffBaseMs = 10;
    p.backoffCapMs = 2000;
    EXPECT_EQ(p.delayBeforeAttemptMs(1), 0u);
    EXPECT_EQ(p.delayBeforeAttemptMs(2), 10u);
    EXPECT_EQ(p.delayBeforeAttemptMs(3), 20u);
    EXPECT_EQ(p.delayBeforeAttemptMs(4), 40u);
    EXPECT_EQ(p.delayBeforeAttemptMs(9), 1280u);
    EXPECT_EQ(p.delayBeforeAttemptMs(10), 2000u);
    // Far past the doubling range: saturates, never wraps.
    EXPECT_EQ(p.delayBeforeAttemptMs(64), 2000u);
    EXPECT_EQ(p.delayBeforeAttemptMs(100), 2000u);
    EXPECT_EQ(p.delayBeforeAttemptMs(~0u), 2000u);

    RetryPolicy quiet;
    quiet.backoffBaseMs = 0;
    EXPECT_EQ(quiet.delayBeforeAttemptMs(50), 0u);
}

RetryPolicy
fastRetry(unsigned maxAttempts)
{
    RetryPolicy p;
    p.maxAttempts = maxAttempts;
    p.backoffBaseMs = 0; // no sleeping in tests
    return p;
}

TEST(Supervise, CleanTaskRunsOnce)
{
    unsigned calls = 0;
    SupervisedRun sr = superviseTask(
        BudgetSpec{}, fastRetry(3),
        [&](Budget &, unsigned) { ++calls; });
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(sr.attempts, 1u);
    EXPECT_EQ(sr.trip, BudgetTrip::None);
    EXPECT_FALSE(sr.wedged);
    EXPECT_EQ(sr.retries(), 0u);
}

TEST(Supervise, TransientTripRetriesWithAFreshBudget)
{
    unsigned calls = 0;
    SupervisedRun sr = superviseTask(
        BudgetSpec{}, fastRetry(3),
        [&](Budget &b, unsigned attempt) {
            ++calls;
            EXPECT_EQ(attempt, calls);
            // The budget must arrive untripped every attempt.
            EXPECT_EQ(b.tripped(), BudgetTrip::None);
            if (attempt == 1) {
                b.cancel();
                b.check(0, 0); // the task observes the cancel
            }
        });
    EXPECT_EQ(calls, 2u);
    EXPECT_EQ(sr.attempts, 2u);
    EXPECT_EQ(sr.trip, BudgetTrip::None);
    EXPECT_FALSE(sr.wedged);
    EXPECT_EQ(sr.retries(), 1u);
}

TEST(Supervise, DeterministicTripWedgesWithoutRetry)
{
    BudgetSpec spec;
    spec.maxLambdaCycles = 10;
    unsigned calls = 0;
    SupervisedRun sr = superviseTask(
        spec, fastRetry(5), [&](Budget &b, unsigned) {
            ++calls;
            b.check(10, 0);
        });
    EXPECT_EQ(calls, 1u); // same input, same trip: no retry
    EXPECT_EQ(sr.attempts, 1u);
    EXPECT_EQ(sr.trip, BudgetTrip::Cycles);
    EXPECT_TRUE(sr.wedged);
}

TEST(Supervise, ExhaustedRetriesWedge)
{
    unsigned calls = 0;
    SupervisedRun sr = superviseTask(
        BudgetSpec{}, fastRetry(3), [&](Budget &b, unsigned) {
            ++calls;
            b.cancel();
            b.check(0, 0);
        });
    EXPECT_EQ(calls, 3u);
    EXPECT_EQ(sr.attempts, 3u);
    EXPECT_EQ(sr.trip, BudgetTrip::Cancelled);
    EXPECT_TRUE(sr.wedged);
    EXPECT_EQ(sr.retries(), 2u);
}

TEST(Supervise, MonitorCancelsAPastDeadlineTask)
{
    // A task wedged between SYNC points: the process-wide monitor
    // raises its cancel flag once the host deadline passes, and the
    // task notices at its next check. Generous timeouts — this is a
    // liveness test, not a latency test.
    BudgetSpec spec;
    spec.maxHostMillis = 40;
    Budget bud(spec);
    {
        Supervisor::Watch watch(bud, spec.maxHostMillis);
        bool noticed = false;
        for (int i = 0; i < 1000 && !noticed; ++i) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
            // A wedged task makes no simulated progress; only the
            // host-side machinery can reel it in.
            BudgetTrip t = bud.check(0, 0);
            noticed = t != BudgetTrip::None;
        }
        EXPECT_TRUE(noticed);
        EXPECT_TRUE(budgetTripTransient(bud.tripped()));
    }
    EXPECT_GE(Supervisor::instance().cancellations(), 0u);
}

// ----------------------------------------------------------------
// The quarantine store.
// ----------------------------------------------------------------

TEST(Quarantine, StoresContentAddressedWithVerdictSidecar)
{
    fs::path dir = scratchDir("quarantine-store");
    std::string payload = "wedging input bytes";
    std::string verdict = "trip lambda-cycles\nattempts 1\n";

    QuarantineEntry e = quarantineStore(dir.string(), payload,
                                        ".scenario", verdict);
    ASSERT_TRUE(e.ok);
    EXPECT_EQ(fs::path(e.inputPath).filename().string(),
              quarantineName(payload) + ".scenario");
    EXPECT_EQ(readFileBytes(e.inputPath), payload);
    EXPECT_EQ(readFileBytes(e.verdictPath), verdict);

    // Content-addressing deduplicates: same payload, same paths.
    QuarantineEntry e2 = quarantineStore(dir.string(), payload,
                                         ".scenario", verdict);
    ASSERT_TRUE(e2.ok);
    EXPECT_EQ(e2.inputPath, e.inputPath);

    EXPECT_EQ(quarantineName(payload).size(), 16u);
    EXPECT_EQ(quarantineHash(payload), quarantineHash(payload));
    EXPECT_NE(quarantineHash(payload), quarantineHash("other"));
}

TEST(Quarantine, UnwritableDirectoryWarnsAndNeverAborts)
{
    fs::path dir = scratchDir("quarantine-unwritable");
    fs::path blocker = dir / "file.txt";
    std::ofstream(blocker) << "a regular file, not a directory\n";

    QuarantineEntry e = quarantineStore(
        (blocker / "sub").string(), "payload", ".zimg", "verdict\n");
    EXPECT_FALSE(e.ok);
    EXPECT_TRUE(e.inputPath.empty());
}

} // namespace
} // namespace zarf::verify
