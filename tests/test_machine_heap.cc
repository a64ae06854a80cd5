/**
 * @file
 * Heap and collector unit tests: tagged-word helpers, header
 * packing, allocation, indirection chasing, Cheney collection of
 * object graphs with sharing and indirection chains, and the
 * dirty-prefix invariant behind snapshots and store reuse (every
 * store word at or past dirtyEnd() is zero).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "machine/heap.hh"
#include "verify/parallel.hh"

namespace zarf
{
namespace
{

TEST(MVal, TaggedWords)
{
    EXPECT_TRUE(mval::isInt(mval::mkInt(5)));
    EXPECT_TRUE(mval::isInt(mval::mkInt(-5)));
    EXPECT_TRUE(mval::isRef(mval::mkRef(123)));
    EXPECT_EQ(mval::intOf(mval::mkInt(5)), 5);
    EXPECT_EQ(mval::intOf(mval::mkInt(-5)), -5);
    EXPECT_EQ(mval::intOf(mval::mkInt(kIntMin)), kIntMin);
    EXPECT_EQ(mval::intOf(mval::mkInt(kIntMax)), kIntMax);
    EXPECT_EQ(mval::refOf(mval::mkRef(123)), 123u);
}

TEST(MHdr, HeaderFields)
{
    Word h = mhdr::pack(ObjKind::Cons, 3, 0x104);
    EXPECT_EQ(mhdr::kindOf(h), ObjKind::Cons);
    EXPECT_EQ(mhdr::countOf(h), 3u);
    EXPECT_EQ(mhdr::fnOf(h), 0x104u);
    EXPECT_FALSE(mhdr::padOf(h));
    EXPECT_EQ(mhdr::argsOf(h), 3u);

    Word p = mhdr::pack(ObjKind::App, 1, 0x100, true);
    EXPECT_TRUE(mhdr::padOf(p));
    EXPECT_EQ(mhdr::countOf(p), 1u);
    EXPECT_EQ(mhdr::argsOf(p), 0u);
}

struct HeapFixture : ::testing::Test
{
    TimingModel timing;
    MachineStats stats;
    Heap heap{ 4096, timing, stats };
};

TEST_F(HeapFixture, AllocAndRead)
{
    Word a = heap.alloc(ObjKind::Cons, 0x104,
                        { mval::mkInt(1), mval::mkInt(2) });
    EXPECT_EQ(mhdr::kindOf(heap.header(a)), ObjKind::Cons);
    EXPECT_EQ(heap.payload(a, 0), mval::mkInt(1));
    EXPECT_EQ(heap.payload(a, 1), mval::mkInt(2));
    EXPECT_EQ(heap.usedWords(), 3u);
    EXPECT_EQ(stats.allocations, 1u);
}

TEST_F(HeapFixture, ChaseFollowsIndirections)
{
    Word target = heap.alloc(ObjKind::Cons, 0x104, { mval::mkInt(9) });
    Word ind1 = heap.alloc(ObjKind::Ind, 0, { mval::mkRef(target) });
    Word ind2 = heap.alloc(ObjKind::Ind, 0, { mval::mkRef(ind1) });
    EXPECT_EQ(heap.chase(mval::mkRef(ind2)), mval::mkRef(target));
    // An indirection to an integer chases to the integer itself.
    Word ind3 = heap.alloc(ObjKind::Ind, 0, { mval::mkInt(-7) });
    EXPECT_EQ(heap.chase(mval::mkRef(ind3)), mval::mkInt(-7));
}

TEST_F(HeapFixture, CollectPreservesReachableGraph)
{
    // root -> Cons(1, inner), inner = Cons(2, shared), and a second
    // root shares `shared`.
    Word shared = heap.alloc(ObjKind::Cons, 0x105, { mval::mkInt(3) });
    Word inner = heap.alloc(ObjKind::Cons, 0x104,
                            { mval::mkInt(2), mval::mkRef(shared) });
    Word outer = heap.alloc(ObjKind::Cons, 0x104,
                            { mval::mkInt(1), mval::mkRef(inner) });
    Word garbage = heap.alloc(ObjKind::Cons, 0x106,
                              { mval::mkInt(99) });
    (void)garbage;

    Word root1 = mval::mkRef(outer);
    Word root2 = mval::mkRef(shared);
    heap.collect([&](const Heap::RootVisitor &v) {
        v(root1);
        v(root2);
    });

    // Garbage reclaimed: only outer (3 words) + inner (3 words) +
    // shared (2 words) survive.
    EXPECT_EQ(heap.usedWords(), 8u);

    Word o = mval::refOf(root1);
    EXPECT_EQ(heap.payload(o, 0), mval::mkInt(1));
    Word i = mval::refOf(heap.payload(o, 1));
    EXPECT_EQ(heap.payload(i, 0), mval::mkInt(2));
    // Sharing is preserved: inner's tail is the same object root2
    // points at.
    EXPECT_EQ(heap.payload(i, 1), root2);
    EXPECT_EQ(heap.payload(mval::refOf(root2), 0), mval::mkInt(3));
}

TEST_F(HeapFixture, CollectSquashesIndirectionChains)
{
    Word target = heap.alloc(ObjKind::Cons, 0x104, { mval::mkInt(5) });
    Word ind = heap.alloc(ObjKind::Ind, 0, { mval::mkRef(target) });
    Word root = mval::mkRef(ind);
    heap.collect([&](const Heap::RootVisitor &v) { v(root); });
    // The root now points directly at the constructor.
    EXPECT_EQ(mhdr::kindOf(heap.header(mval::refOf(root))),
              ObjKind::Cons);
    EXPECT_EQ(heap.usedWords(), 2u);
}

TEST_F(HeapFixture, CollectChargesPaperCosts)
{
    Word a = heap.alloc(ObjKind::Cons, 0x104,
                        { mval::mkInt(1), mval::mkInt(2) });
    Word root = mval::mkRef(a);
    Cycles before = stats.gcCycles;
    heap.collect([&](const Heap::RootVisitor &v) { v(root); });
    // One 3-word object: setup + (3+4) + one 2-cycle ref check.
    Cycles expect = timing.gcSetup + (3 + 4) + timing.gcRefCheck;
    EXPECT_EQ(stats.gcCycles - before, expect);
    EXPECT_EQ(stats.gcObjectsCopied, 1u);
    EXPECT_EQ(stats.gcWordsCopied, 3u);
}

TEST_F(HeapFixture, RepeatedCollectionsFlipSpaces)
{
    Word a = heap.alloc(ObjKind::Cons, 0x104, { mval::mkInt(4) });
    Word root = mval::mkRef(a);
    for (int i = 0; i < 6; ++i) {
        heap.collect([&](const Heap::RootVisitor &v) { v(root); });
        EXPECT_EQ(heap.payload(mval::refOf(root), 0), mval::mkInt(4));
        EXPECT_EQ(heap.usedWords(), 2u);
    }
    EXPECT_EQ(stats.gcRuns, 6u);
}

TEST_F(HeapFixture, CyclicReferencesViaUpdateSurviveCollection)
{
    // Updates can create cycles (an object updated to point into a
    // structure that references it); the copying collector must
    // terminate and preserve the cycle.
    Word a = heap.alloc(ObjKind::Cons, 0x104,
                        { mval::mkInt(0), mval::mkInt(0) });
    Word b = heap.alloc(ObjKind::Cons, 0x104,
                        { mval::mkInt(1), mval::mkRef(a) });
    heap.setPayload(a, 1, mval::mkRef(b)); // a <-> b cycle
    Word root = mval::mkRef(a);
    heap.collect([&](const Heap::RootVisitor &v) { v(root); });
    Word na = mval::refOf(root);
    Word nb = mval::refOf(heap.payload(na, 1));
    EXPECT_EQ(heap.payload(nb, 1), mval::mkRef(na));
    EXPECT_EQ(heap.usedWords(), 6u);
}

// ------------------------------------------------------------------
// Dirty-prefix invariant: snapshots, restores, and store reuse.
// ------------------------------------------------------------------

/** Slack words past the second semispace (header + 0x7ff payload). */
constexpr Word kSlackWords = 0x800;

/** Every store word, read through header(): both semispaces and the
 *  slack. */
std::vector<Word>
storeWords(const Heap &h)
{
    std::vector<Word> w;
    Word end = Word(2 * h.capacity()) + kSlackWords;
    for (Word a = 0; a < end; ++a)
        w.push_back(h.header(a));
    return w;
}

/** The invariant itself: nothing nonzero at or past dirtyEnd(). */
void
expectZeroPastDirtyEnd(const Heap &h)
{
    std::vector<Word> w = storeWords(h);
    for (size_t a = h.dirtyEnd(); a < w.size(); ++a)
        ASSERT_EQ(w[a], 0u) << "word " << a << " past dirtyEnd "
                            << h.dirtyEnd();
}

/** A heap with its own timing model and statistics block. */
struct OwnedHeap
{
    explicit OwnedHeap(size_t semi) : heap(semi, timing, stats) {}
    TimingModel timing;
    MachineStats stats;
    Heap heap;
};

constexpr size_t kSemi = 1024;

TEST(HeapDirtyPrefix, SnapshotRestoresEveryStoreWord)
{
    OwnedHeap src(kSemi);
    Heap &h = src.heap;
    std::vector<Word> roots;
    for (int i = 0; i < 40; ++i) {
        Word a = h.alloc(ObjKind::Cons, 0x104,
                         { mval::mkInt(i), mval::mkInt(-i) });
        if (i % 3 == 0)
            roots.push_back(mval::mkRef(a));
    }
    auto collect = [&] {
        h.collect([&](const Heap::RootVisitor &v) {
            for (Word &r : roots)
                v(r);
        });
    };
    collect(); // space 0 -> 1
    collect(); // space 1 -> 0: the space left behind stays dirty
    ASSERT_FALSE(h.corrupt());
    expectZeroPastDirtyEnd(h);

    // Wild writes past both bump pointers: into the inactive
    // semispace, then into the slack.
    h.setHeader(Word(kSemi + 700), 0x1234567u);
    expectZeroPastDirtyEnd(h);
    h.setPayload(Word(2 * kSemi - 1), 300, 0x7654321u);
    expectZeroPastDirtyEnd(h);

    // A wild root into the far end of from-space: forwarding writes
    // land past both bump pointers. An Ind header at the last
    // semispace word points at an integer in the slack, so its
    // forwarding word lands in the slack.
    h.setHeader(Word(2 * kSemi - 1), mhdr::pack(ObjKind::Ind, 1, 0));
    roots.push_back(mval::mkRef(Word(2 * kSemi - 1)));
    roots.push_back(mval::mkRef(Word(kSemi - 2)));
    collect();
    ASSERT_FALSE(h.corrupt());
    expectZeroPastDirtyEnd(h);

    // A collection aborted by corruption: one header claims the
    // maximum payload, overflowing to-space.
    Word victim = mval::refOf(roots[1]);
    h.setHeader(victim, mhdr::pack(ObjKind::Cons, 0x7ff, 0));
    collect();
    ASSERT_TRUE(h.corrupt());
    expectZeroPastDirtyEnd(h);

    Heap::Snapshot snap;
    h.save(snap);
    EXPECT_EQ(snap.words.size(), h.dirtyEnd());
    const std::vector<Word> want = storeWords(h);

    OwnedHeap fresh(kSemi);
    fresh.heap.restore(snap);
    EXPECT_EQ(storeWords(fresh.heap), want);
    EXPECT_EQ(fresh.heap.dirtyEnd(), h.dirtyEnd());
    EXPECT_EQ(fresh.heap.usedWords(), h.usedWords());
    EXPECT_TRUE(fresh.heap.corrupt());

    // A target dirtied further than the snapshot: its own words past
    // the snapshot's prefix must read zero afterwards.
    OwnedHeap dirty(kSemi);
    for (int i = 0; i < 400; ++i)
        dirty.heap.alloc(ObjKind::Cons, 0x104, { mval::mkInt(i) });
    dirty.heap.setPayload(Word(2 * kSemi - 1), 0x7fe, 0xabcdefu);
    dirty.heap.setHeader(Word(2 * kSemi - 3), 0x42u);
    ASSERT_GT(dirty.heap.dirtyEnd(), snap.words.size());
    dirty.heap.restore(snap);
    EXPECT_EQ(storeWords(dirty.heap), want);
    expectZeroPastDirtyEnd(dirty.heap);

    // Restoring is idempotent on a heap that already holds the state.
    fresh.heap.restore(snap);
    EXPECT_EQ(storeWords(fresh.heap), want);
}

TEST(HeapDirtyPrefix, GcForwardingWritesStayInsideDirtyPrefix)
{
    OwnedHeap o(kSemi);
    Heap &h = o.heap;
    Word live = mval::mkRef(
        h.alloc(ObjKind::Cons, 0x104, { mval::mkInt(1) }));
    // A wild root at a never-written word of to-space: the collector
    // copies it as an empty object and forwards it in place, past
    // both bump pointers.
    Word wild = mval::mkRef(Word(kSemi + 900));
    h.collect([&](const Heap::RootVisitor &v) {
        v(live);
        v(wild);
    });
    ASSERT_FALSE(h.corrupt());
    expectZeroPastDirtyEnd(h);

    // An indirection to an integer at the last from-space word: its
    // forwarding address lands in the slack.
    Word ind = Word(2 * kSemi - 1);
    h.setHeader(ind, mhdr::pack(ObjKind::Ind, 1, 0));
    Word indRoot = mval::mkRef(ind);
    h.collect([&](const Heap::RootVisitor &v) {
        v(live);
        v(indRoot);
    });
    ASSERT_FALSE(h.corrupt());
    expectZeroPastDirtyEnd(h);
    EXPECT_GT(h.dirtyEnd(), 2 * kSemi);
}

TEST(HeapDirtyPrefix, AbortedCollectionLeavesItsToSpaceDirty)
{
    OwnedHeap o(kSemi);
    Heap &h = o.heap;
    std::vector<Word> roots;
    std::vector<Word> fields(19, mval::mkInt(5));
    for (int i = 0; i < 30; ++i)
        roots.push_back(mval::mkRef(h.alloc(ObjKind::Cons, 0x104,
                                            fields.data(),
                                            fields.size())));
    // The last root claims the maximum payload: to-space overflows
    // after the other 29 objects were already copied.
    h.setHeader(mval::refOf(roots.back()),
                mhdr::pack(ObjKind::Cons, 0x7ff, 0));
    h.collect([&](const Heap::RootVisitor &v) {
        for (Word &r : roots)
            v(r);
    });
    ASSERT_TRUE(h.corrupt());
    EXPECT_GE(h.dirtyEnd(), kSemi + 29 * 20);
    expectZeroPastDirtyEnd(h);

    Heap::Snapshot snap;
    h.save(snap);
    OwnedHeap fresh(kSemi);
    fresh.heap.restore(snap);
    EXPECT_EQ(storeWords(fresh.heap), storeWords(h));
}

// A size no other test uses, so every reused store in the test
// below comes from the heaps it retires.
constexpr size_t kOddSemi = 3001;

TEST(HeapDirtyPrefix, StoresRetiredOnAnotherThreadComeBackZero)
{
    verify::ParallelConfig pc;
    pc.threads = 4;
    pc.shards = 4;
    auto heaps = verify::shardMap(pc, [](size_t shard, uint64_t) {
        auto o = std::make_unique<OwnedHeap>(kOddSemi);
        Heap &h = o->heap;
        Word keep = 0;
        for (int i = 0; i < 2000; ++i) {
            Word a = h.alloc(ObjKind::Cons, 0x104,
                             { mval::mkInt(i), mval::mkInt(int(shard)) });
            if (i % 7 == 0)
                keep = mval::mkRef(a);
            if (h.freeWords() < 8)
                h.collect(
                    [&](const Heap::RootVisitor &v) { v(keep); });
        }
        h.setPayload(Word(2 * kOddSemi - 1), 0x7fe, 0xdeadbeu);
        h.setHeader(Word(kOddSemi + 5), 0x99u);
        return o;
    });
    size_t before = Heap::parkedStores();
    heaps.clear(); // retired on this thread
    size_t parked = Heap::parkedStores();
    ASSERT_GT(parked, before);

    std::vector<std::unique_ptr<OwnedHeap>> again;
    for (size_t i = 0; i < pc.shards; ++i) {
        again.push_back(std::make_unique<OwnedHeap>(kOddSemi));
        std::vector<Word> w = storeWords(again.back()->heap);
        for (size_t a = 0; a < w.size(); ++a)
            ASSERT_EQ(w[a], 0u) << "heap " << i << " word " << a;
        EXPECT_EQ(again.back()->heap.dirtyEnd(), 0u);
    }
    EXPECT_EQ(Heap::parkedStores(), before);
}

TEST(HeapDirtyPrefixDeathTest, HeapOutlivingItsThreadPoolFreesStore)
{
    // Function-local statics are destroyed after this thread's
    // thread_local free list, in reverse order of construction: the
    // heap retires first, then the probe checks nothing was parked
    // on the destroyed list.
    EXPECT_EXIT(
        {
            struct Probe
            {
                ~Probe()
                {
                    if (Heap::parkedStores() != 0)
                        std::_Exit(3);
                }
            };
            static Probe probe;
            static OwnedHeap late(kSemi);
            late.heap.alloc(ObjKind::Cons, 0x104, { mval::mkInt(1) });
            late.heap.setPayload(Word(2 * kSemi - 1), 10, 7u);
            std::exit(0);
        },
        ::testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace zarf
