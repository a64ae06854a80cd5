/**
 * @file
 * Loader robustness fuzzing: the binary decoder is the system's
 * trust boundary for untrusted images, so it must never crash,
 * hang, or accept a structurally unsound program — on pure random
 * words, on random words behind a valid header, and on bit-mutated
 * valid images. Whatever it does accept must validate and must not
 * crash any execution engine.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "fuzz/genprog.hh"
#include "fuzz/mutate.hh"
#include "common/testprogs.hh"
#include "isa/binary.hh"
#include "isa/encoding.hh"
#include "isa/validate.hh"
#include "machine/machine.hh"
#include "sem/smallstep.hh"
#include "support/random.hh"
#include "zasm/zasm.hh"

namespace zarf
{
namespace
{

/** Anything the decoder accepts must be safe to validate and run
 *  (bounded); engines may report errors but must not crash. */
void
exerciseAccepted(const Program &prog)
{
    // Scope-invalid programs are still exercised: both engines
    // detect out-of-range references dynamically and stop, so a
    // validation failure must not be a precondition for safety.
    (void)validateProgram(prog);
    NullBus bus;
    SmallStepConfig scfg;
    scfg.maxSteps = 200'000;
    SmallStep ss(prog, bus, scfg);
    (void)ss.runMain(); // any status is acceptable

    // The decoder's fields are wider than the encoder's caps (e.g.
    // a 16-bit arity against kMaxArity), so a decoded mutant is not
    // necessarily re-encodable; encodeProgram dies on overflow.
    if (!fuzz::canEncode(prog))
        return;
    MachineConfig mcfg;
    mcfg.semispaceWords = 1 << 13;
    Machine m(encodeProgram(prog), bus, mcfg);
    (void)m.advance(500'000);
}

/** The machine is itself a loader of raw images; it must reject or
 *  stop on anything, never crash the host. */
void
exerciseMachineRaw(const Image &img)
{
    NullBus bus;
    MachineConfig mcfg;
    mcfg.semispaceWords = 1 << 13;
    Machine m(img, bus, mcfg);
    (void)m.advance(300'000);
}

class FuzzRandomWords : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FuzzRandomWords, NeverCrashes)
{
    Rng rng(GetParam() * 1000003 + 17);
    Image img(rng.below(64) + 2);
    for (Word &w : img)
        w = Word(rng.next());
    DecodeResult d = decodeProgram(img);
    if (d.ok)
        exerciseAccepted(d.program);
    img[0] = kMagic; // push deeper into the machine's loader too
    exerciseMachineRaw(img);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzRandomWords,
                         ::testing::Range(uint64_t(0), uint64_t(150)));

class FuzzHeaderedWords : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FuzzHeaderedWords, NeverCrashes)
{
    Rng rng(GetParam() * 7777777 + 3);
    Image img;
    img.push_back(kMagic);
    img.push_back(Word(rng.below(4) + 1));
    size_t body = rng.below(96) + 2;
    for (size_t i = 0; i < body; ++i) {
        // Bias toward plausible opcodes so decoding goes deeper.
        Word op = Word(rng.below(10)) << 28;
        img.push_back(op | (Word(rng.next()) & 0x0fffffffu));
    }
    DecodeResult d = decodeProgram(img);
    if (d.ok)
        exerciseAccepted(d.program);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzHeaderedWords,
                         ::testing::Range(uint64_t(0), uint64_t(300)));

class FuzzMutations : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FuzzMutations, MutatedValidImagesHandled)
{
    // Start from a real program; flip bits and re-decode.
    fuzz::ProgramGenerator gen(GetParam() * 31 + 7);
    BuildResult b = gen.generate().tryBuild();
    ASSERT_TRUE(b.ok);
    Image img = encodeProgram(b.program);

    Rng rng(GetParam() * 65537 + 29);
    for (int trial = 0; trial < 20; ++trial) {
        Image mut = img;
        int flips = 1 + int(rng.below(4));
        for (int f = 0; f < flips; ++f) {
            size_t at = rng.below(mut.size());
            mut[size_t(at)] ^= Word(1) << rng.below(32);
        }
        DecodeResult d = decodeProgram(mut);
        if (d.ok)
            exerciseAccepted(d.program);
        exerciseMachineRaw(mut);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzMutations,
                         ::testing::Range(uint64_t(0), uint64_t(60)));

/** Run the raw image through the machine loader on both execution
 *  paths; each must reject at load or latch a runtime error. */
void
exerciseBothMachinePaths(const Image &img)
{
    NullBus bus;
    for (bool predecode : { false, true }) {
        MachineConfig mcfg;
        mcfg.semispaceWords = 1 << 13;
        mcfg.tier =
            predecode ? DispatchTier::Uop : DispatchTier::WordWalk;
        Machine m(img, bus, mcfg);
        // Any status is acceptable; a crash would have killed us.
        (void)m.advance(300'000);
    }
}

/** A freshly generated, known-good image plus its declaration spans
 *  (offset of each decl's info word and one-past its body). */
struct SpannedImage
{
    Image img;
    std::vector<std::pair<size_t, size_t>> spans;
};

SpannedImage
generateSpanned(uint64_t seed)
{
    fuzz::ProgramGenerator gen(seed);
    BuildResult b = gen.generate().tryBuild();
    EXPECT_TRUE(b.ok);
    SpannedImage s;
    s.img = encodeProgram(b.program);
    size_t pos = 2;
    for (Word i = 0; i < s.img[1] && pos + 2 <= s.img.size(); ++i) {
        size_t len = s.img[pos + 1];
        s.spans.push_back({ pos, pos + 2 + len });
        pos += 2 + len;
    }
    return s;
}

class FuzzStructured : public ::testing::TestWithParam<uint64_t>
{};

/** Library-level structure-aware mutants: whatever mutateImage
 *  produces, the loader rejects it or the engines stop cleanly. */
TEST_P(FuzzStructured, MutateImageNeverCrashes)
{
    SpannedImage s = generateSpanned(GetParam() * 131 + 5);
    Rng rng(GetParam() * 2654435761u + 11);
    for (int trial = 0; trial < 16; ++trial) {
        Image mut = fuzz::mutateImage(s.img, rng);
        DecodeResult d = decodeProgram(mut);
        if (d.ok)
            exerciseAccepted(d.program);
        exerciseBothMachinePaths(mut);
    }
}

/** Corrupted pattern-skip fields: every PAT_LIT/PAT_CONS word gets
 *  its skip field replaced with hostile values. */
TEST_P(FuzzStructured, CorruptedSkipFields)
{
    SpannedImage s = generateSpanned(GetParam() * 977 + 13);
    for (Word skip : { Word(0), Word(1), kMaxSkip, kMaxSkip / 2 }) {
        Image mut = s.img;
        bool touched = false;
        for (auto [lo, hi] : s.spans) {
            for (size_t w = lo + 2; w < hi; ++w) {
                Op op = opOf(mut[w]);
                if (op != Op::PatLit && op != Op::PatCons)
                    continue;
                mut[w] = (mut[w] & ~(Word(0xfff) << 16)) |
                         (skip << 16);
                touched = true;
            }
        }
        if (!touched)
            continue;
        DecodeResult d = decodeProgram(mut);
        if (d.ok)
            exerciseAccepted(d.program);
        exerciseBothMachinePaths(mut);
    }
}

/** Truncated argument lists: a LET head that promises more argument
 *  words than its body holds must be rejected by the decoder, and the
 *  machine loader must reject or latch — never read past the body. */
TEST_P(FuzzStructured, TruncatedArgLists)
{
    SpannedImage s = generateSpanned(GetParam() * 409 + 1);
    for (auto [lo, hi] : s.spans) {
        for (size_t w = lo + 2; w < hi; ++w) {
            if (opOf(s.img[w]) != Op::Let)
                continue;
            LetWord let = unpackLet(s.img[w]);
            for (Word extra : { Word(1), Word(16), kMaxArgs }) {
                Word nargs = std::min(let.nargs + extra, kMaxArgs);
                if (nargs == let.nargs)
                    continue;
                Image mut = s.img;
                mut[w] = (mut[w] & ~(Word(0x3ff) << 16)) |
                         (nargs << 16);
                DecodeResult d = decodeProgram(mut);
                if (d.ok)
                    exerciseAccepted(d.program);
                exerciseBothMachinePaths(mut);
            }
        }
    }
}

/** Reserved operand-source bits ([27:26] = 3 on ARG/CASE/RESULT
 *  words): the predecode loader must refuse the image at load time —
 *  it must not be Running after load — and the word-walk path must
 *  reject or latch a runtime error. */
TEST_P(FuzzStructured, ReservedSrcBits)
{
    SpannedImage s = generateSpanned(GetParam() * 613 + 9);
    size_t tried = 0;
    for (auto [lo, hi] : s.spans) {
        for (size_t w = lo + 2; w < hi && tried < 8; ++w) {
            Op op = opOf(s.img[w]);
            if (op != Op::Arg && op != Op::Case && op != Op::Result)
                continue;
            ++tried;
            Image mut = s.img;
            mut[w] |= Word(3) << 26;
            DecodeResult d = decodeProgram(mut);
            if (d.ok)
                exerciseAccepted(d.program);

            NullBus bus;
            MachineConfig mcfg;
            mcfg.semispaceWords = 1 << 13;
            Machine pm(mut, bus, mcfg);
            MachineStatus ps = pm.advance(300'000);
            EXPECT_NE(ps, MachineStatus::Running)
                << "predecode accepted reserved source bits";
            EXPECT_NE(ps, MachineStatus::Done)
                << "predecode executed reserved source bits";

            mcfg.tier = DispatchTier::WordWalk;
            Machine wm(mut, bus, mcfg);
            (void)wm.advance(300'000); // reject-or-latch, no UB
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzStructured,
                         ::testing::Range(uint64_t(0), uint64_t(40)));

TEST(FuzzDecoder, TruncationSweep)
{
    // Every prefix of a valid image is either rejected or safe.
    Program p = assembleOrDie(testing::mapProgramText());
    Image img = encodeProgram(p);
    for (size_t n = 0; n <= img.size(); ++n) {
        Image cut(img.begin(), img.begin() + ptrdiff_t(n));
        DecodeResult d = decodeProgram(cut);
        if (d.ok)
            exerciseAccepted(d.program);
    }
}

} // namespace
} // namespace zarf
