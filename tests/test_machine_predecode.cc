/**
 * @file
 * Differential testing of the predecoded µop execution path against
 * the word-walking reference path (machine/predecode.hh). The µop
 * machine must be bit-identical in results, total cycle counts, and
 * every statistic — on random programs, under GC pressure, and on
 * the full ICD kernel — plus the load-time structural validation
 * that predecoding hoists out of the per-step hot path.
 */

#include <gtest/gtest.h>

#include "fuzz/genprog.hh"
#include "ecg/synth.hh"
#include "icd/zarf_icd.hh"
#include "isa/binary.hh"
#include "isa/encoding.hh"
#include "machine/machine.hh"
#include "system/ports.hh"

namespace zarf
{
namespace
{

/** Require every statistic to be identical between the two paths. */
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
pathConfig(bool predecode, size_t semispaceWords = 1u << 20)
{
    MachineConfig cfg;
    cfg.tier = predecode ? DispatchTier::Uop : DispatchTier::WordWalk;
    cfg.semispaceWords = semispaceWords;
    return cfg;
}

void
runDifferential(uint64_t seed, size_t semispaceWords)
{
    fuzz::GenConfig gcfg;
    gcfg.numCons = 4;
    gcfg.numFuncs = 7;
    gcfg.maxDepth = 5;
    fuzz::ProgramGenerator gen(seed * 2654435761u + 7, gcfg);
    BuildResult b = gen.generate().tryBuild();
    ASSERT_TRUE(b.ok) << b.error;
    Image img = encodeProgram(b.program);

    NullBus busA, busB;
    Machine legacy(img, busA, pathConfig(false, semispaceWords));
    Machine uop(img, busB, pathConfig(true, semispaceWords));
    Machine::Outcome oa = legacy.run();
    Machine::Outcome ob = uop.run();

    ASSERT_EQ(oa.status, ob.status)
        << "legacy: " << oa.diagnostic << "\nuop: " << ob.diagnostic;
    EXPECT_EQ(legacy.cycles(), uop.cycles());
    if (oa.status == MachineStatus::Done) {
        ASSERT_TRUE(oa.value && ob.value);
        EXPECT_TRUE(Value::equal(*oa.value, *ob.value))
            << "legacy: " << oa.value->toString() << "\n"
            << "uop:    " << ob.value->toString();
    }
    expectStatsEqual(legacy.stats(), uop.stats());
}

class PredecodeDifferential : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(PredecodeDifferential, BitIdenticalOnRandomPrograms)
{
    runDifferential(GetParam(), 1u << 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredecodeDifferential,
                         ::testing::Range(uint64_t(0), uint64_t(120)));

class PredecodeGcDifferential
    : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(PredecodeGcDifferential, BitIdenticalUnderGcPressure)
{
    // A heap barely above the safe-point margin forces frequent
    // collections; GC cycle accounting and max-pause tracking must
    // still match exactly (same roots visited in the same order).
    runDifferential(GetParam(), 3 * 4096);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredecodeGcDifferential,
                         ::testing::Range(uint64_t(0), uint64_t(60)));

// ----------------------------------------------------------------
// ICD kernel co-simulation workload
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

TEST(PredecodeIcd, KernelTraceBitIdentical)
{
    // Include a VT episode so therapy paths execute in both runs.
    ecg::ScriptedHeart heartA({ { 20.0, 75.0 }, { 40.0, 190.0 } },
                              42);
    ecg::ScriptedHeart heartB({ { 20.0, 75.0 }, { 40.0, 190.0 } },
                              42);
    BusyRig rigA(heartA), rigB(heartB);
    Image img = icd::buildKernelImage();
    Machine legacy(img, rigA, pathConfig(false));
    Machine uop(img, rigB, pathConfig(true));

    while (legacy.cycles() < 3'000'000 &&
           legacy.advance(500'000) == MachineStatus::Running) {}
    while (uop.cycles() < 3'000'000 &&
           uop.advance(500'000) == MachineStatus::Running) {}

    EXPECT_EQ(legacy.cycles(), uop.cycles());
    EXPECT_EQ(rigA.writes, rigB.writes);
    expectStatsEqual(legacy.stats(), uop.stats());
}

// ----------------------------------------------------------------
// Load-time structural validation (hoisted srcFieldValid checks)
// ----------------------------------------------------------------

/** A minimal hand-built image: main with the given body words. */
Image
tinyImage(std::vector<Word> body)
{
    Image img;
    img.push_back(kMagic);
    img.push_back(1);
    img.push_back(packInfo(false, 8, 0));
    img.push_back(Word(body.size()));
    for (Word w : body)
        img.push_back(w);
    return img;
}

TEST(PredecodeLoader, ReservedSrcFieldRejectedAtLoad)
{
    // A result word with the reserved source encoding (value 3).
    Word bad = packResult({ Src::Imm, 42 }) | (3u << 26);
    Image img = tinyImage({ bad });

    NullBus bus;
    Machine m(img, bus, pathConfig(true));
    // Stuck immediately after load, before a single step runs.
    EXPECT_EQ(m.advance(0), MachineStatus::Stuck);
    Machine::Outcome o = m.run();
    EXPECT_EQ(o.status, MachineStatus::Stuck);
    EXPECT_NE(o.diagnostic.find("predecode"), std::string::npos)
        << o.diagnostic;

    // The word-walking path only notices at execution time, but
    // must reach the same verdict.
    NullBus bus2;
    Machine legacy(img, bus2, pathConfig(false));
    EXPECT_EQ(legacy.run().status, MachineStatus::Stuck);
}

TEST(PredecodeLoader, MalformedLetArgumentRejectedAtLoad)
{
    // let with one argument slot holding a non-ARG word.
    Image img = tinyImage({ packLet(CalleeKind::Func, 1, 0x01),
                            packPatElse(),
                            packResult({ Src::Local, 0 }) });
    NullBus bus;
    Machine m(img, bus, pathConfig(true));
    EXPECT_EQ(m.advance(0), MachineStatus::Stuck);

    NullBus bus2;
    Machine legacy(img, bus2, pathConfig(false));
    EXPECT_EQ(legacy.run().status, MachineStatus::Stuck);
}

TEST(PredecodeLoader, TruncatedPatternChainRejectedAtLoad)
{
    // A case whose pattern chain runs past the declaration end.
    Image img = tinyImage({ packCase({ Src::Imm, 1 }),
                            packPatLit(5, 1) });
    NullBus bus;
    Machine m(img, bus, pathConfig(true));
    EXPECT_EQ(m.advance(0), MachineStatus::Stuck);
}

TEST(PredecodeLoader, WellFormedImagesStillLoad)
{
    Image img = tinyImage({ packResult({ Src::Imm, 13 }) });
    NullBus bus;
    Machine m(img, bus, pathConfig(true));
    Machine::Outcome o = m.run();
    ASSERT_EQ(o.status, MachineStatus::Done) << o.diagnostic;
    EXPECT_EQ(o.value->toString(), "13");
}

// ----------------------------------------------------------------
// Poisoned operand resolution (out-of-range slots never produce a
// consumable value)
// ----------------------------------------------------------------

TEST(PredecodePoison, OutOfRangeArgStopsBothPaths)
{
    // main has arity 0; resolving arg #5 must fail, not silently
    // yield the valid tagged integer 0.
    Image img = tinyImage({ packResult({ Src::Arg, 5 }) });
    for (bool predecode : { false, true }) {
        NullBus bus;
        Machine m(img, bus, pathConfig(predecode));
        Machine::Outcome o = m.run();
        EXPECT_EQ(o.status, MachineStatus::Stuck);
        EXPECT_NE(o.diagnostic.find("argument index out of range"),
                  std::string::npos)
            << o.diagnostic;
        EXPECT_EQ(o.value, nullptr);
    }
}

TEST(PredecodePoison, OutOfRangeLetArgumentStopsBothPaths)
{
    Image img =
        tinyImage({ packLet(CalleeKind::Func, 1, 0x01),
                    packOperand({ Src::Local, 9 }),
                    packResult({ Src::Local, 0 }) });
    for (bool predecode : { false, true }) {
        NullBus bus;
        Machine m(img, bus, pathConfig(predecode));
        Machine::Outcome o = m.run();
        EXPECT_EQ(o.status, MachineStatus::Stuck);
        EXPECT_NE(o.diagnostic.find("local index out of range"),
                  std::string::npos)
            << o.diagnostic;
    }
}

} // namespace
} // namespace zarf
