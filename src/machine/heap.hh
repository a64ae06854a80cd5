/**
 * @file
 * The word-addressed heap and semispace trace collector of the
 * λ-execution layer.
 *
 * Runtime values are single tagged words (paper, Sec. 3.2: "one bit
 * is attached to values at runtime"): bit 31 clear means a 31-bit
 * two's-complement integer; bit 31 set means a heap reference.
 *
 * Heap objects are a header word followed by payload words:
 *
 *   header  [31:28] object kind   [27:16] payload count
 *           [15:0]  function/constructor identifier
 *
 * Kinds: App (an application of a global identifier — a thunk when
 * saturated, a partial-application value otherwise), AppV (callee is
 * itself a value word, payload[0]), Cons (saturated constructor),
 * Ind (updated object; payload[0] is the value), Blackhole (under
 * evaluation), Fwd (GC forwarding pointer, payload[0] is the new
 * address; never visible outside a collection).
 *
 * Collection is a Cheney-style semispace copy. Costs follow Sec.
 * 5.2: N+4 cycles to copy an N-word object and 2 cycles to check a
 * reference that may already have been collected.
 *
 * Integrity: a structurally valid heap can never overflow to-space
 * (the live set is bounded by the from-space allocation) or contain
 * an indirection cycle. Both *can* happen once a single-event upset
 * has corrupted a header or payload word, so instead of aborting the
 * host, the heap detects these conditions — to-space overflow,
 * indirection cycles during evacuation, and runaway indirection
 * chains during chase() — and latches a sticky corruption flag with
 * a reason. The machine surfaces the flag as the recoverable
 * MachineStatus::HeapCorrupt so the system layer's watchdog can
 * restart the λ-layer (docs/RESILIENCE.md).
 *
 * Host hot paths (docs/PERF.md, "Campaign-scale execution"): every
 * store word at or past dirtyEnd() is zero, so a retiring heap zeroes
 * only that dirty prefix and parks its store on a small per-thread
 * free list for the next heap of the same size, and snapshots copy
 * only the prefix; allocation and chase() are inlined
 * bump/short-circuit fast paths that fall out of line only on
 * overflow or an actual indirection; evacuation copies the common
 * non-indirection object without touching the chain scratch. None of
 * this changes a modelled cycle — the charge sequence is
 * byte-for-byte the seed's.
 */

#ifndef ZARF_MACHINE_HEAP_HH
#define ZARF_MACHINE_HEAP_HH

#include <algorithm>
#include <functional>
#include <vector>

#include "machine/stats.hh"
#include "machine/timing.hh"
#include "support/types.hh"

namespace zarf
{

/** Tagged machine value word helpers. */
namespace mval
{

constexpr Word kRefBit = 0x80000000u;

inline bool isRef(Word w) { return (w & kRefBit) != 0; }
inline bool isInt(Word w) { return (w & kRefBit) == 0; }

inline Word
mkInt(SWord v)
{
    return static_cast<Word>(v) & 0x7fffffffu;
}

inline SWord
intOf(Word w)
{
    Word payload = w & 0x7fffffffu;
    if (payload & 0x40000000u)
        payload |= 0x80000000u; // sign-extend bit 30
    return static_cast<SWord>(payload);
}

inline Word mkRef(Word addr) { return addr | kRefBit; }
inline Word refOf(Word w) { return w & 0x7fffffffu; }

} // namespace mval

/** Heap object kinds. */
enum class ObjKind : Word
{
    App = 1,
    AppV = 2,
    Cons = 3,
    Ind = 4,
    Blackhole = 5,
    Fwd = 6,
};

/**
 * Header word helpers.
 *
 * Layout: [31:28] kind, [27] pad flag, [26:16] payload word count,
 * [15:0] function/constructor identifier. The pad flag marks App
 * objects whose payload was padded to at least one word so that an
 * in-place update to an indirection always fits; padded objects
 * carry count() payload words but count()-1 real arguments.
 */
namespace mhdr
{

inline Word
pack(ObjKind kind, Word count, Word fn, bool pad = false)
{
    return (static_cast<Word>(kind) << 28) |
           (static_cast<Word>(pad) << 27) | ((count & 0x7ffu) << 16) |
           (fn & 0xffffu);
}

inline ObjKind kindOf(Word h) { return static_cast<ObjKind>(h >> 28); }
inline bool padOf(Word h) { return ((h >> 27) & 1u) != 0; }
inline Word countOf(Word h) { return (h >> 16) & 0x7ffu; }
inline Word fnOf(Word h) { return h & 0xffffu; }

/** Real argument/field count (payload minus padding). */
inline Word
argsOf(Word h)
{
    return countOf(h) - (padOf(h) ? 1u : 0u);
}

} // namespace mhdr

/**
 * The semispace heap. Allocation bumps a pointer within the active
 * space; collection copies the live graph into the other space.
 */
class Heap
{
  public:
    /**
     * @param semispaceWords capacity of each semispace
     * @param timing cycle-cost model (GC costs)
     * @param stats machine statistics to account into
     */
    Heap(size_t semispaceWords, const TimingModel &timing,
         MachineStats &stats);
    /** Zeroes the dirty prefix and parks the store for reuse. */
    ~Heap();
    Heap(const Heap &) = delete;
    Heap &operator=(const Heap &) = delete;

    /**
     * Allocate an object. Returns the address of the header word,
     * or fails via the outOfMemory flag if even a collection cannot
     * make room (the caller must have registered roots first).
     *
     * @param kind object kind
     * @param fn function/constructor identifier
     * @param payload payload words
     * @param pad payload was padded by one word (see mhdr)
     */
    Word alloc(ObjKind kind, Word fn, const std::vector<Word> &payload,
               bool pad = false);

    /** Span overload: the hot path allocates straight from reused
     *  scratch buffers without materializing a payload vector. The
     *  bump fast path is inlined; only an exhausted space falls into
     *  the collect-hook slow path. */
    Word
    alloc(ObjKind kind, Word fn, const Word *payload, size_t n,
          bool pad = false)
    {
        size_t need = 1 + n;
        if (allocPtr + need > limit) [[unlikely]]
            return allocSlow(kind, fn, payload, n, pad);
        Word addr = static_cast<Word>(allocPtr);
        mem[allocPtr] = mhdr::pack(kind, static_cast<Word>(n), fn, pad);
        for (size_t i = 0; i < n; ++i)
            mem[allocPtr + 1 + i] = payload[i];
        allocPtr += need;
        ++stats.allocations;
        stats.allocatedWords += need;
        return addr;
    }

    /** Read the header of an object. */
    Word header(Word addr) const { return mem[addr]; }
    /** Read payload word i of an object. */
    Word payload(Word addr, Word i) const { return mem[addr + 1 + i]; }
    /** Overwrite the header (update/blackhole). */
    void
    setHeader(Word addr, Word h)
    {
        mem[addr] = h;
        raiseDirty(size_t(addr) + 1);
    }
    /** Overwrite payload word i. */
    void
    setPayload(Word addr, Word i, Word v)
    {
        mem[addr + 1 + i] = v;
        raiseDirty(size_t(addr) + 2 + i);
    }

    /** Follow indirections to a representative value word. Walks at
     *  most one chain link per live object; a longer walk (possible
     *  only on a corrupted heap: an Ind cycle) or a reference outside
     *  the heap latches the corruption flag and yields integer 0 so
     *  the machine can halt with HeapCorrupt instead of spinning.
     *  The common case — an integer, or a reference to a non-Ind
     *  object — is decided inline without entering the walk. */
    /** A header address is valid iff it lies inside the two
     *  semispaces (the trailing slack words are never object
     *  bases). */
    bool validAddr(Word addr) const { return addr < 2 * semiWords; }

    Word
    chase(Word value) const
    {
        if (mval::isInt(value))
            return value;
        Word addr = mval::refOf(value);
        if (validAddr(addr) &&
            mhdr::kindOf(mem[addr]) != ObjKind::Ind) [[likely]]
            return value;
        return chaseSlow(value);
    }

    /**
     * Run a collection. The root provider must call the supplied
     * callback on every root slot; the callback rewrites the slot
     * in place.
     */
    using RootVisitor = std::function<void(Word &slot)>;
    using RootProvider = std::function<void(const RootVisitor &)>;
    void collect(const RootProvider &roots);

    /** Set the hook invoked when alloc must collect. */
    void setCollectHook(RootProvider roots) { hook = std::move(roots); }

    /** Visit every object header in the active space. */
    template <typename F>
    void
    forEachObject(F &&f) const
    {
        size_t p = base;
        while (p < allocPtr) {
            Word h = mem[p];
            f(h);
            p += 1 + mhdr::countOf(h);
        }
    }

    /** Words currently allocated in the active space. */
    size_t usedWords() const { return allocPtr - base; }
    /** Words still free in the active space. */
    size_t freeWords() const { return limit - allocPtr; }
    /** Capacity of one semispace. */
    size_t capacity() const { return semiWords; }
    /** True once an allocation has failed irrecoverably. */
    bool outOfMemory() const { return oom; }
    /** True once heap corruption has been detected (GC to-space
     *  overflow, indirection cycle, out-of-range reference). Sticky;
     *  the heap contents are untrustworthy once set. */
    bool corrupt() const { return corruptFlag; }
    /** Human-readable reason for the latched corruption, or "". */
    const char *corruptWhy() const { return corruptWhyStr; }
    /** Flip one bit of an allocated word in the active space (SEU
     *  injection). `offset` is reduced modulo usedWords(); no-op on
     *  an empty heap. */
    void flipBit(size_t offset, unsigned bit);
    /** One past the last store word that may be nonzero: every
     *  word at or past it is zero. Writes outside the bump region
     *  (wild updates, GC forwarding, the space a collection leaves,
     *  an aborted collection's to-space) raise a high-water mark
     *  this includes. */
    size_t
    dirtyEnd() const
    {
        return std::max({ dirtyMark, allocPtr, toPtr });
    }
    /** Retired stores parked on this thread's free list for reuse
     *  (0 once the list is gone at thread exit). */
    static size_t parkedStores();
    /** Cycles consumed by collections so far. */
    Cycles gcCycles() const { return stats.gcCycles; }

    /** Attribute GC cycle charges to FSM states in t (null to stop).
     *  The tally partitions stats.gcCycles exactly. */
    void setTally(FsmTally *t) { tally = t; }

    /**
     * A captured heap state (Machine::snapshot). The words vector
     * holds the store's dirty prefix [0, dirtyEnd()), not just the
     * active space: after a restore, a fault campaign may inject
     * upsets whose corrupted references read the inactive space or
     * the slack region, and those reads must see exactly what a
     * never-restored run would have seen there. Every word past the
     * prefix is zero in the source, and restore() makes it zero in
     * the target.
     */
    struct Snapshot
    {
        size_t semiWords = 0;
        size_t base = 0;
        size_t allocPtr = 0;
        size_t limit = 0;
        bool oom = false;
        bool corruptFlag = false;
        const char *corruptWhyStr = "";
        std::vector<Word> words;
    };

    /** Capture the complete heap state into `out`. */
    void save(Snapshot &out) const;
    /** Restore a state captured by save(): copy the snapshot's
     *  prefix and zero this heap's own dirty words past it. The
     *  snapshot must come from a heap of the same semispace size
     *  (fatal otherwise). */
    void restore(const Snapshot &s);

  private:
    void
    raiseDirty(size_t end)
    {
        dirtyMark = std::max(dirtyMark, end);
    }

    /** Out-of-line alloc tail: collect via the hook and retry, or
     *  latch outOfMemory. */
    Word allocSlow(ObjKind kind, Word fn, const Word *payload,
                   size_t n, bool pad);

    /** Out-of-line chase tail: the full guarded indirection walk. */
    Word chaseSlow(Word value) const;

    /** Copy one object into to-space; returns its new address. The
     *  inline body handles forwarding pointers and plain objects;
     *  indirections fall into evacuateInd. */
    Word evacuate(Word addr);

    /** Evacuate tail for indirection chains. `h` is the (already
     *  charged and validated) header of `addr`, known to be Ind. */
    Word evacuateInd(Word addr, Word h);

    /** Latch the corruption flag (first reason wins). Const because
     *  detection can happen on read paths (chase). */
    void
    markCorrupt(const char *why) const
    {
        if (!corruptFlag) {
            corruptFlag = true;
            corruptWhyStr = why;
        }
    }

    Word *mem;        // the all-zero-past-dirtyEnd() word store
    size_t semiWords; // semispace size in words
    size_t dirtyMark = 0; // high-water mark of writes (dirtyEnd())
    size_t base = 0;
    size_t allocPtr = 0;
    size_t limit = 0;
    bool oom = false;
    mutable bool corruptFlag = false;
    mutable const char *corruptWhyStr = "";

    // GC working state.
    size_t toBase = 0;
    size_t toPtr = 0;
    std::vector<Word> indChain; // evacuateInd scratch: chain links

    RootProvider hook;
    const TimingModel &timing;
    MachineStats &stats;
    FsmTally *tally = nullptr;
};

} // namespace zarf

#endif // ZARF_MACHINE_HEAP_HH
