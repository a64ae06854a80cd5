#include "machine/heap.hh"

#include <cstdlib>
#include <cstring>

#include "support/logging.hh"

namespace zarf
{

namespace
{

// Largest possible object: header + 0x7ff payload words. The backing
// store carries this much slack past the second semispace so that
// payload reads through a corrupted-but-validated base address can
// never leave the allocation (base validity is checked where words
// become addresses; payload offsets are bounded by the header count
// field, which cannot exceed 0x7ff).
constexpr size_t kMaxObjWords = 1 + 0x7ff;

// Retired stores parked per thread for the next heap of the same
// size. A freed store of oracle size comes back from glibc's arena,
// and calloc then memsets all of it; a parked store was zeroed only
// over the prefix its last heap dirtied.
constexpr size_t kParkedStores = 8;

struct StorePool
{
    struct Parked
    {
        Word *p;
        size_t words;
    };
    Parked slots[kParkedStores] = {};
    size_t count = 0;

    StorePool() = default;
    StorePool(const StorePool &) = delete;
    StorePool &operator=(const StorePool &) = delete;
    ~StorePool();
};

// Trivially destructible, so still readable once this thread's pool
// is destroyed (a Heap that dies during static destruction).
thread_local bool poolGone = false;

StorePool::~StorePool()
{
    for (size_t i = 0; i < count; ++i)
        std::free(slots[i].p);
    count = 0;
    poolGone = true;
}

StorePool *
localPool()
{
    if (poolGone)
        return nullptr;
    thread_local StorePool pool;
    return &pool;
}

/** An all-zero store of `words` words: the most recently parked one
 *  of that size, else a fresh calloc. */
Word *
takeStore(size_t words)
{
    if (StorePool *pool = localPool()) {
        for (size_t i = pool->count; i-- > 0;) {
            if (pool->slots[i].words == words) {
                Word *p = pool->slots[i].p;
                pool->slots[i] = pool->slots[--pool->count];
                return p;
            }
        }
    }
    auto *p = static_cast<Word *>(std::calloc(words, sizeof(Word)));
    if (!p)
        fatal("heap: cannot allocate a %zu-word store", words);
    return p;
}

/** Zero the first `dirty` words and park the store, or free it when
 *  the pool is full or already destroyed. */
void
parkStore(Word *p, size_t words, size_t dirty)
{
    StorePool *pool = localPool();
    if (!pool || pool->count == kParkedStores) {
        std::free(p);
        return;
    }
    std::memset(p, 0, dirty * sizeof(Word));
    pool->slots[pool->count++] = { p, words };
}

} // namespace

Heap::Heap(size_t semispaceWords, const TimingModel &timing,
           MachineStats &stats)
    : mem(takeStore(semispaceWords * 2 + kMaxObjWords)),
      semiWords(semispaceWords), timing(timing), stats(stats)
{
    base = 0;
    allocPtr = 0;
    limit = semiWords;
}

Heap::~Heap()
{
    parkStore(mem, semiWords * 2 + kMaxObjWords, dirtyEnd());
}

size_t
Heap::parkedStores()
{
    StorePool *pool = localPool();
    return pool ? pool->count : 0;
}

Word
Heap::alloc(ObjKind kind, Word fn, const std::vector<Word> &payload,
            bool pad)
{
    return alloc(kind, fn, payload.data(), payload.size(), pad);
}

Word
Heap::allocSlow(ObjKind kind, Word fn, const Word *payload, size_t n,
                bool pad)
{
    if (hook)
        collect(hook);
    size_t need = 1 + n;
    if (allocPtr + need > limit) {
        oom = true;
        return 0;
    }
    Word addr = static_cast<Word>(allocPtr);
    mem[allocPtr] = mhdr::pack(kind, static_cast<Word>(n), fn, pad);
    for (size_t i = 0; i < n; ++i)
        mem[allocPtr + 1 + i] = payload[i];
    allocPtr += need;
    ++stats.allocations;
    stats.allocatedWords += need;
    return addr;
}

Word
Heap::chaseSlow(Word value) const
{
    // A valid chain visits each Ind object at most once and the
    // smallest Ind is two words, so any walk longer than the
    // semispace word count must be a cycle.
    size_t steps = 0;
    while (mval::isRef(value)) {
        Word addr = mval::refOf(value);
        if (!validAddr(addr)) {
            markCorrupt("chase: reference outside the heap");
            return mval::mkInt(0);
        }
        Word h = mem[addr];
        if (mhdr::kindOf(h) != ObjKind::Ind)
            break;
        if (++steps > semiWords) {
            markCorrupt("chase: indirection cycle");
            return mval::mkInt(0);
        }
        value = mem[addr + 1];
    }
    return value;
}

void
Heap::flipBit(size_t offset, unsigned bit)
{
    if (usedWords() == 0)
        return;
    mem[base + offset % usedWords()] ^= 1u << (bit & 31u);
}

Word
Heap::evacuate(Word addr)
{
    // Charge the 2-cycle "already collected?" check for this ref.
    stats.gcCycles += timing.gcRefCheck;
    ++stats.gcRefChecks;
    if (tally)
        tally->add(MState::GcCheckRef, timing.gcRefCheck);

    if (!validAddr(addr)) {
        markCorrupt("GC: reference outside the heap");
        return 0;
    }

    Word h = mem[addr];
    ObjKind kind = mhdr::kindOf(h);
    if (kind == ObjKind::Fwd)
        return mem[addr + 1];
    if (kind == ObjKind::Ind) [[unlikely]]
        return evacuateInd(addr, h);

    // Common case — a plain object: straight Cheney copy, no chain
    // scratch touched. Charges are identical to the chain walk's
    // final-object copy.
    Word count = mhdr::countOf(h);
    size_t need = 1 + count;
    if (toPtr + need > toBase + semiWords) {
        markCorrupt(
            "GC to-space overflow: live set exceeds a semispace");
        return addr;
    }

    Word naddr = static_cast<Word>(toPtr);
    mem[toPtr] = h;
    for (Word i = 0; i < count; ++i)
        mem[toPtr + 1 + i] = mem[addr + 1 + i];
    toPtr += need;

    // N+4 cycles for an N-word object (Sec. 5.2).
    stats.gcCycles +=
        timing.gcPerObjectFixed + need * timing.gcPerWordCopied;
    ++stats.gcObjectsCopied;
    stats.gcWordsCopied += need;
    if (tally) {
        tally->add(MState::GcCopyHeader, timing.gcPerObjectFixed);
        tally->addN(MState::GcCopyWord, need,
                    need * timing.gcPerWordCopied);
    }

    mem[addr] = mhdr::pack(ObjKind::Fwd, 1, 0);
    mem[addr + 1] = naddr;
    raiseDirty(size_t(addr) + 2);
    return naddr;
}

Word
Heap::evacuateInd(Word addr, Word h)
{
    // Walk indirection chains iteratively (the natural recursive
    // formulation would overflow the host stack on a corrupted Ind
    // cycle), remembering every chain link so all of them can be
    // forwarded to the final address. Cycle charges are identical to
    // the recursive version on any valid heap: one gcRefCheck per
    // chain link visited plus one for the final object. The first
    // link's charge, validity check, and header read already
    // happened in evacuate().
    indChain.clear();
    Word fwdTo = 0; // final to-space address every link forwards to
    bool first = true;
    for (;;) {
        if (!first) {
            stats.gcCycles += timing.gcRefCheck;
            ++stats.gcRefChecks;
            if (tally)
                tally->add(MState::GcCheckRef, timing.gcRefCheck);

            if (!validAddr(addr)) {
                markCorrupt("GC: reference outside the heap");
                return 0;
            }
            h = mem[addr];
        }
        first = false;

        ObjKind kind = mhdr::kindOf(h);
        if (kind == ObjKind::Fwd) {
            fwdTo = mem[addr + 1];
            break;
        }

        // Skip indirections: copy the target instead so chains die.
        if (kind == ObjKind::Ind) {
            Word target = mem[addr + 1];
            if (mval::isRef(target)) {
                indChain.push_back(addr);
                // A valid chain visits each (≥2-word) Ind at most
                // once; longer means a cycle.
                if (indChain.size() > semiWords / 2 + 1) {
                    markCorrupt("GC: indirection cycle");
                    return addr;
                }
                addr = mval::refOf(target);
                continue;
            }
            // Integer behind an indirection: copy a tiny Ind object.
            if (toPtr + 2 > toBase + semiWords) {
                markCorrupt(
                    "GC to-space overflow: live set exceeds a semispace");
                return addr;
            }
            Word naddr = static_cast<Word>(toPtr);
            mem[toPtr] = mhdr::pack(ObjKind::Ind, 1, 0);
            mem[toPtr + 1] = target;
            toPtr += 2;
            stats.gcCycles +=
                timing.gcPerObjectFixed + 2 * timing.gcPerWordCopied;
            ++stats.gcObjectsCopied;
            stats.gcWordsCopied += 2;
            if (tally) {
                tally->add(MState::GcCopyHeader,
                           timing.gcPerObjectFixed);
                tally->addN(MState::GcCopyWord, 2,
                            2 * timing.gcPerWordCopied);
            }
            mem[addr] = mhdr::pack(ObjKind::Fwd, 1, 0);
            mem[addr + 1] = naddr;
            raiseDirty(size_t(addr) + 2);
            fwdTo = naddr;
            break;
        }

        Word count = mhdr::countOf(h);
        size_t need = 1 + count;
        if (toPtr + need > toBase + semiWords) {
            markCorrupt(
                "GC to-space overflow: live set exceeds a semispace");
            return addr;
        }

        Word naddr = static_cast<Word>(toPtr);
        mem[toPtr] = h;
        for (Word i = 0; i < count; ++i)
            mem[toPtr + 1 + i] = mem[addr + 1 + i];
        toPtr += need;

        // N+4 cycles for an N-word object (Sec. 5.2).
        stats.gcCycles +=
            timing.gcPerObjectFixed + need * timing.gcPerWordCopied;
        ++stats.gcObjectsCopied;
        stats.gcWordsCopied += need;
        if (tally) {
            tally->add(MState::GcCopyHeader, timing.gcPerObjectFixed);
            tally->addN(MState::GcCopyWord, need,
                        need * timing.gcPerWordCopied);
        }

        mem[addr] = mhdr::pack(ObjKind::Fwd, 1, 0);
        mem[addr + 1] = naddr;
        raiseDirty(size_t(addr) + 2);
        fwdTo = naddr;
        break;
    }

    for (Word link : indChain) {
        mem[link] = mhdr::pack(ObjKind::Fwd, 1, 0);
        mem[link + 1] = fwdTo;
        raiseDirty(size_t(link) + 2);
    }
    return fwdTo;
}

void
Heap::collect(const RootProvider &roots)
{
    ++stats.gcRuns;
    Cycles pauseStart = stats.gcCycles;
    stats.gcCycles += timing.gcSetup;
    if (tally)
        tally->add(MState::GcStart, timing.gcSetup);

    // The space being left, and the to-space of an earlier aborted
    // collection, stay dirty once allocPtr/toPtr move away from them.
    raiseDirty(dirtyEnd());
    toBase = base == 0 ? semiWords : 0;
    toPtr = toBase;

    // Evacuate roots.
    roots([this](Word &slot) {
        if (corruptFlag)
            return;
        if (mval::isRef(slot))
            slot = mval::mkRef(evacuate(mval::refOf(slot)));
    });

    // Cheney scan of to-space.
    size_t scan = toBase;
    while (scan < toPtr && !corruptFlag) {
        Word h = mem[scan];
        Word count = mhdr::countOf(h);
        ObjKind kind = mhdr::kindOf(h);
        Word fieldsStart = 0;
        Word fieldsEnd = count;
        if (kind == ObjKind::AppV) {
            // payload[0] is the callee value: also a value word.
            fieldsStart = 0;
        }
        for (Word i = fieldsStart; i < fieldsEnd; ++i) {
            Word v = mem[scan + 1 + i];
            if (mval::isRef(v)) {
                mem[scan + 1 + i] =
                    mval::mkRef(evacuate(mval::refOf(v)));
            }
        }
        scan += 1 + count;
    }

    if (corruptFlag) {
        // Abort the collection without flipping spaces: the heap is
        // untrustworthy either way, but the allocator bookkeeping
        // stays self-consistent and the machine halts with
        // HeapCorrupt at its next step instead of crashing the host.
        // The aborted to-space stays dirty through toPtr.
        return;
    }

    size_t live = toPtr - toBase;
    if (live > stats.gcMaxLiveWords)
        stats.gcMaxLiveWords = live;

    base = toBase;
    allocPtr = toPtr;
    limit = toBase + semiWords;

    Cycles pause = stats.gcCycles - pauseStart;
    if (pause > stats.gcMaxPauseCycles)
        stats.gcMaxPauseCycles = pause;
}

void
Heap::save(Snapshot &out) const
{
    out.semiWords = semiWords;
    out.base = base;
    out.allocPtr = allocPtr;
    out.limit = limit;
    out.oom = oom;
    out.corruptFlag = corruptFlag;
    out.corruptWhyStr = corruptWhyStr;
    out.words.assign(mem, mem + dirtyEnd());
}

void
Heap::restore(const Snapshot &s)
{
    if (s.semiWords != semiWords) {
        fatal("heap restore: semispace mismatch (%zu vs %zu words)",
              s.semiWords, semiWords);
    }
    size_t prefix = s.words.size();
    size_t dirty = dirtyEnd();
    std::memcpy(mem, s.words.data(), prefix * sizeof(Word));
    if (dirty > prefix)
        std::memset(mem + prefix, 0, (dirty - prefix) * sizeof(Word));
    dirtyMark = prefix;
    toBase = 0;
    toPtr = 0;
    base = s.base;
    allocPtr = s.allocPtr;
    limit = s.limit;
    oom = s.oom;
    corruptFlag = s.corruptFlag;
    corruptWhyStr = s.corruptWhyStr;
}

} // namespace zarf
