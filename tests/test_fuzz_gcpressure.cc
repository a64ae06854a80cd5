/**
 * @file
 * GC-pressure differential tests: the heap fast paths must be
 * invisible to semantics and to the deterministic cycle/statistics
 * ledger. Recursive allocation-heavy programs run with deliberately
 * tiny semispaces so the collector fires mid-run — dozens of
 * collections for the countdown loop at 12k words — and generated
 * fuzz-corpus programs add breadth. We assert:
 *
 *  - results, I/O, and the *mutator* cycle clock are heap-size
 *    independent (GC time is ledgered separately; a bigger heap may
 *    only turn OutOfMemory into completion, never change a value);
 *  - allocation/instruction statistics — everything the collector
 *    does not own — are bit-identical across heap sizes;
 *  - at the same heap size the word-walk and predecode paths agree
 *    bit-exactly on the *entire* statistics block, GC included;
 *  - a snapshot taken mid-run under GC pressure forks into a machine
 *    that finishes with an identical outcome and ledger.
 */

#include <gtest/gtest.h>

#include "common/testprogs.hh"
#include "fuzz/genprog.hh"
#include "fuzz/oracle.hh"
#include "isa/encoding.hh"
#include "machine/machine.hh"
#include "zasm/zasm.hh"

namespace zarf::fuzz
{
namespace
{

constexpr size_t kTinyHeap = 3 * 4096; ///< Non-power-of-two, tiny.
constexpr size_t kSmallerHeap = 1u << 13;
constexpr size_t kBigHeap = 1u << 18;

/** Builds an 800-cell list and sums it: unlike the countdown loop
 *  (huge garbage, tiny live set) the whole list is live across the
 *  build, so every collection actually copies a few thousand words. */
const char *kBuildListText = R"(
con Nil
con Cons head tail

fun main =
  let l = build 800
  let s = sum l
  result s

fun build n =
  case n of
    0 =>
      let e = Nil
      result e
    else
      let n' = sub n 1
      let t = build n'
      let c = Cons n t
      result c

fun sum list =
  case list of
    Nil =>
      result 0
    Cons head tail =>
      let r = sum tail
      let s = add head r
      result s
  else
    result 0
)";

/** The allocation-heavy program set: name + assembly text. */
std::vector<std::pair<std::string, std::string>>
pressurePrograms()
{
    return {
        { "countdown", testing::countdownProgramText() },
        { "buildlist", kBuildListText },
        { "church", testing::churchProgramText() },
        { "map", testing::mapProgramText() },
    };
}

struct RunOut
{
    Machine::Outcome out;
    MachineStats stats;
    Cycles cycles = 0;
    std::vector<RecordBus::IoOp> io;
};

RunOut
runAt(const Image &img, size_t heapWords, bool predecode)
{
    RecordBus bus;
    MachineConfig cfg;
    cfg.semispaceWords = heapWords;
    cfg.tier = predecode ? DispatchTier::Uop : DispatchTier::WordWalk;
    Machine m(img, bus, cfg);
    RunOut r;
    r.out = m.run(20'000'000);
    r.stats = m.stats();
    r.cycles = m.cycles();
    r.io = bus.ops;
    return r;
}

/** Compare every statistic the collector does not own — the mutator
 *  ledger must not see the heap size at all. */
void
expectNonGcStatsEqual(const MachineStats &a, const MachineStats &b)
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
}

void
expectSameCompletion(const RunOut &a, const RunOut &b)
{
    ASSERT_EQ(a.out.status, b.out.status);
    if (a.out.status == MachineStatus::Done) {
        ASSERT_TRUE(a.out.value && b.out.value);
        EXPECT_TRUE(Value::equal(*a.out.value, *b.out.value));
    }
    EXPECT_EQ(a.io, b.io);
}

class GcPressureProg
    : public ::testing::TestWithParam<size_t>
{
  protected:
    Image
    image() const
    {
        auto [name, text] = pressurePrograms()[GetParam()];
        return encodeProgram(assembleOrDie(text));
    }
};

TEST_P(GcPressureProg, HeapSizeInvisibleToMutator)
{
    Image img = image();
    RunOut tiny = runAt(img, kTinyHeap, true);
    RunOut smaller = runAt(img, kSmallerHeap, true);
    RunOut big = runAt(img, kBigHeap, true);

    // These programs all fit: anything but Done means the heap
    // profile regressed.
    ASSERT_EQ(tiny.out.status, MachineStatus::Done)
        << tiny.out.diagnostic;
    expectSameCompletion(tiny, big);
    expectSameCompletion(smaller, big);
    // The machine clock is the *mutator* clock; collections are
    // ledgered in stats().gcCycles and must not skew it.
    EXPECT_EQ(tiny.cycles, big.cycles);
    EXPECT_EQ(smaller.cycles, big.cycles);
    expectNonGcStatsEqual(tiny.stats, big.stats);
    expectNonGcStatsEqual(smaller.stats, big.stats);
}

TEST_P(GcPressureProg, RefAndUopBitIdenticalUnderPressure)
{
    Image img = image();
    RunOut uop = runAt(img, kTinyHeap, true);
    RunOut ref = runAt(img, kTinyHeap, false);

    expectSameCompletion(uop, ref);
    EXPECT_EQ(uop.out.diagnostic, ref.out.diagnostic);
    EXPECT_EQ(uop.cycles, ref.cycles);
    // Full ledger, GC included: both paths share one heap design.
    EXPECT_EQ(diffStats(uop.stats, ref.stats), std::string());
}

INSTANTIATE_TEST_SUITE_P(Programs, GcPressureProg,
                         ::testing::Range(size_t(0), size_t(4)));

TEST(GcPressureSuite, TinyHeapActuallyCollects)
{
    // The suite above is vacuous if nothing ever GCs; prove the
    // pressure set exercises the collector, including collections
    // that copy a substantial live set.
    uint64_t totalRuns = 0, maxLive = 0;
    for (const auto &[name, text] : pressurePrograms()) {
        RunOut r = runAt(encodeProgram(assembleOrDie(text)),
                         kTinyHeap, true);
        totalRuns += r.stats.gcRuns;
        maxLive = std::max(maxLive, r.stats.gcMaxLiveWords);
    }
    EXPECT_GT(totalRuns, 10u);
    EXPECT_GT(maxLive, 1000u)
        << "no collection copied a nontrivial live set";
}

/** Generated fuzz programs add breadth: tiny terminating programs
 *  whose results and mutator stats must also be heap-blind. */
class GcPressureGen : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(GcPressureGen, HeapSizeInvisibleToSemantics)
{
    GenConfig g;
    g.numFuncs = 7;
    g.maxDepth = 5;
    ProgramGenerator gen(GetParam() * 127 + 3, g);
    BuildResult b = gen.generate().tryBuild();
    ASSERT_TRUE(b.ok);
    Image img = encodeProgram(b.program);

    RunOut tiny = runAt(img, kSmallerHeap, true);
    RunOut big = runAt(img, kBigHeap, true);
    if (tiny.out.status == MachineStatus::OutOfMemory)
        return; // a bigger heap may legitimately get further
    expectSameCompletion(tiny, big);
    EXPECT_EQ(tiny.cycles, big.cycles);
    expectNonGcStatsEqual(tiny.stats, big.stats);

    RunOut ref = runAt(img, kSmallerHeap, false);
    expectSameCompletion(tiny, ref);
    EXPECT_EQ(diffStats(tiny.stats, ref.stats), std::string());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcPressureGen,
                         ::testing::Range(uint64_t(0), uint64_t(30)));

TEST(GcPressureSuite, SnapshotForkUnderGcPressure)
{
    // Fork the live-list builder mid-run on the tiny heap: the
    // snapshot lands between collections and the forked machine must
    // replay the remaining run bit-exactly — values, I/O, cycles,
    // and the GC ledger.
    Image img = encodeProgram(assembleOrDie(kBuildListText));
    RunOut straight = runAt(img, kTinyHeap, true);
    ASSERT_EQ(straight.out.status, MachineStatus::Done);
    ASSERT_GT(straight.stats.gcRuns, 0u);

    RecordBus bus;
    MachineConfig cfg;
    cfg.semispaceWords = kTinyHeap;
    Machine src(img, bus, cfg);
    (void)src.advance(straight.cycles / 2);
    auto snap = src.snapshot();

    Machine fork(img, bus, cfg);
    fork.restore(*snap);
    Machine::Outcome out = fork.run(20'000'000);

    ASSERT_EQ(out.status, straight.out.status);
    ASSERT_TRUE(out.value && straight.out.value);
    EXPECT_TRUE(Value::equal(*out.value, *straight.out.value));
    EXPECT_EQ(fork.cycles(), straight.cycles);
    EXPECT_EQ(bus.ops, straight.io);
    EXPECT_EQ(diffStats(fork.stats(), straight.stats),
              std::string());
}

} // namespace
} // namespace zarf::fuzz
