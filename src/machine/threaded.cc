/**
 * @file
 * The λ-machine's µop interpreter (machine/threaded.hh): one member
 * function template of Machine::Impl over the same architectural
 * state as the word-walking reference path, instantiated once per
 * accounting policy.
 *
 *  - Accounting::CycleAccurate (DispatchTier::Uop and the deep-force
 *    export of every µop-walking tier): the one cycle-accurate
 *    implementation of the predecoded semantics. The differential
 *    suites hold it to full-ledger bit-equality with the word-walking
 *    machine (fuzz/oracle.hh) and with itself across dispatch
 *    flavours (tests/test_machine_threaded.cc).
 *  - Accounting::Fast (DispatchTier::FastFunctional): the same
 *    handler bodies with the cycle/FSM accounting and the per-µop
 *    trace hooks compiled out, plus outcome-preserving
 *    superinstruction fusions (docs/PERF.md).
 *
 * Each instantiation has two dispatch flavours:
 *
 *  - computed goto (ZARF_HAVE_COMPUTED_GOTO, detected by CMake):
 *    `goto *tab[tcode]` between handler labels;
 *  - a switch over the same labels, used when the extension is
 *    unavailable or when testhooks::forceSwitchDispatch selects it
 *    at runtime.
 */

#include "machine/threaded.hh"

#include "machine/machine_impl.hh"

namespace zarf
{

bool
threadedDispatchUsesComputedGoto()
{
#ifdef ZARF_HAVE_COMPUTED_GOTO
    return true;
#else
    return false;
#endif
}

// ================================================================
// The µop interpreter. One function: hot state (the cycle counter
// `tot`, the value register `vr`, the instruction-class cycle
// bucket) lives in locals across handler labels, and each handler
// jumps to its statically known successor through the inter-step
// boundary. The macros below express the machine's charge and
// status helpers over the locals.
//
// The Fast policy differs only where a macro or an `if constexpr`
// names it: CHARGE/CHARGE_N/SETCLASS/ACCOUNT and the per-µop trace
// hooks compile to nothing; `tot` counts fused steps (NEXT), there
// is no cycle-interval GC, and non-allocating steps take the
// NEXT_NA boundary; CHASE is open-coded; the unevaluated case frame
// is swapped instead of copied; and the fusions documented in
// docs/PERF.md short-cut let, case, result and primitive entry.
// ================================================================

// Charge one visit of state `st` costing n cycles (Impl::charge()).
// The stats-ledger shares (execCycles and the per-class bucket) are
// accumulated in the locals `exc`/`bkt` and folded into the members
// only at SYNC/SETCLASS, so the hot path touches no memory; every
// point where the ledger is externally observable (bus calls, GC,
// fail, return) syncs first, so the members are exact whenever
// anything outside this function can read them.
#define CHARGE(n, st)                                                 \
    do {                                                              \
        if constexpr (!Fast) {                                        \
            Cycles c_ = (n);                                          \
            if (tly)                                                  \
                tally.add(MState::st, c_);                            \
            tot += c_;                                                \
            exc += c_;                                                \
            bkt += c_;                                                \
        }                                                             \
    } while (0)

// Charge `visits` visits of `st` costing n in total (Impl::chargeN()).
#define CHARGE_N(st, visits, n)                                       \
    do {                                                              \
        if constexpr (!Fast) {                                        \
            Cycles c_ = (n);                                          \
            if (tly)                                                  \
                tally.addN(MState::st, (visits), c_);                 \
            tot += c_;                                                \
            exc += c_;                                                \
            bkt += c_;                                                \
        }                                                             \
    } while (0)

// Statistics kept only by the cycle-accurate policy (forces, WHNF
// hits, updates, let arguments).
#define ACCOUNT(stmt)                                                 \
    do {                                                              \
        if constexpr (!Fast) {                                        \
            stmt;                                                     \
        }                                                             \
    } while (0)

// Flush the hot locals into the members (before any call that reads
// them: GC, fail(), noteStatus(), and on return).
#define SYNC()                                                        \
    do {                                                              \
        total = tot;                                                  \
        vreg = vr;                                                    \
        if constexpr (!Fast) {                                        \
            curClass = klass;                                         \
            machineStats.execCycles += exc;                           \
            exc = 0;                                                  \
            *bucket += bkt;                                           \
            bkt = 0;                                                  \
        }                                                             \
    } while (0)

// Reload after a GC rewrote the rooted registers.
#define RELOAD()                                                      \
    do {                                                              \
        tot = total;                                                  \
        vr = vreg;                                                    \
    } while (0)

// fail() with the member mode of the step being executed.
#define FAILX(why, m)                                                 \
    do {                                                              \
        mode = Mode::m;                                               \
        SYNC();                                                       \
        fail(why);                                                    \
        return;                                                       \
    } while (0)

// Switch the instruction-class cycle bucket (the curClass writes).
// Folds the pending charges into the outgoing class first.
#define SETCLASS(cls, field)                                          \
    do {                                                              \
        if constexpr (!Fast) {                                        \
            *bucket += bkt;                                           \
            bkt = 0;                                                  \
            klass = InstrClass::cls;                                  \
            bucket = &machineStats.field.cycles;                      \
        }                                                             \
    } while (0)

// The step gate: budget check, then the step preamble (health gate,
// safe-margin GC, and — cycle-accurate only — interval GC), then a
// direct jump to the next handler. `m` is the Mode the next step
// runs in — stored only on the exit paths, never on the hot path.
// `full` is false only for the Fast policy's non-allocating steps:
// the free-words margin and the OOM latch can only change on an
// allocation, so such a step needs just the budget gate and the
// (sticky, chase-latched) corruption gate. The margin invariant
// holds because every allocating handler still ends in the full
// boundary, which re-checks the margin after its allocation.
#define GATE(L, m, full)                                              \
    do {                                                              \
        if (tot >= target) {                                          \
            mode = Mode::m;                                           \
            SYNC();                                                   \
            return;                                                   \
        }                                                             \
        if (heap.corrupt() || ((full) && heap.outOfMemory()))         \
            [[unlikely]] {                                            \
            mode = Mode::m;                                           \
            SYNC();                                                   \
            heapHealthy();                                            \
            return;                                                   \
        }                                                             \
        if ((full) && gcExh && heap.freeWords() < kGcSafeMargin)      \
            [[unlikely]] {                                            \
            mode = Mode::m;                                           \
            SYNC();                                                   \
            runGc(rootProviderU());                                   \
            if (!heapHealthy())                                       \
                return;                                               \
            if (heap.freeWords() < kGcSafeMargin) {                   \
                noteStatus(MachineStatus::OutOfMemory);               \
                status = MachineStatus::OutOfMemory;                  \
                diagnostic = "live set exceeds semispace capacity";   \
                return;                                               \
            }                                                         \
            RELOAD();                                                 \
        }                                                             \
        if constexpr (!Fast) {                                        \
            if (gcInt && tot - lastGcAt >= gcInt) [[unlikely]] {      \
                mode = Mode::m;                                       \
                SYNC();                                               \
                runGc(rootProviderU());                               \
                if (!heapHealthy())                                   \
                    return;                                           \
                RELOAD();                                             \
            }                                                         \
        }                                                             \
        goto L;                                                       \
    } while (0)

// The inter-step boundary. The Fast policy counts the step (its
// clock counts fused steps, not cycles).
#define NEXT(L, m)                                                    \
    do {                                                              \
        if constexpr (Fast)                                           \
            ++tot;                                                    \
        GATE(L, m, true);                                             \
    } while (0)

// The boundary after a step that cannot allocate: the full boundary
// under the cycle-accurate policy, the light one under Fast.
#define NEXT_NA(L, m)                                                 \
    do {                                                              \
        if constexpr (Fast)                                           \
            ++tot;                                                    \
        GATE(L, m, !Fast);                                            \
    } while (0)

// Under a deep-force export (cycle-accurate only), delivering to the
// export's base frame depth is the export's exit: Done, checked
// before the next step's preamble and without a MachDone event.
#define EXPORT_EXIT()                                                 \
    do {                                                              \
        if constexpr (!Fast) {                                        \
            if (conts.size() == exportBase) [[unlikely]] {            \
                mode = Mode::Deliver;                                 \
                SYNC();                                               \
                status = MachineStatus::Done;                         \
                return;                                               \
            }                                                         \
        }                                                             \
    } while (0)

// Enter Deliver mode, through the export exit.
#define NEXT_DELIVER()                                                \
    do {                                                              \
        EXPORT_EXIT();                                                \
        NEXT(L_deliver, Deliver);                                     \
    } while (0)

#define NEXT_DELIVER_NA()                                             \
    do {                                                              \
        EXPORT_EXIT();                                                \
        NEXT_NA(L_deliver, Deliver);                                  \
    } while (0)

// Follow indirections. The Fast policy open-codes the common cases
// (integer, non-Ind object, short Ind chain) in a few inline loads;
// anything rare — a wild reference or a chain longer than the hop
// budget (only corruption or fault injection builds those) — falls
// back to Heap::chase, which owns the corruption marking and cycle
// detection.
#define CHASE(dst, srcw)                                              \
    do {                                                              \
        Word c__ = (srcw);                                            \
        if constexpr (Fast) {                                         \
            int hops__ = 64;                                          \
            for (;;) {                                                \
                if (mval::isInt(c__))                                 \
                    break;                                            \
                const Word a__ = mval::refOf(c__);                    \
                if (!heap.validAddr(a__)) [[unlikely]] {              \
                    c__ = heap.chase(c__);                            \
                    break;                                            \
                }                                                     \
                if (mhdr::kindOf(heap.header(a__)) != ObjKind::Ind)   \
                    break;                                            \
                if (--hops__ == 0) [[unlikely]] {                     \
                    c__ = heap.chase(c__);                            \
                    break;                                            \
                }                                                     \
                c__ = heap.payload(a__, 0);                           \
            }                                                         \
        } else {                                                      \
            c__ = heap.chase(c__);                                    \
        }                                                             \
        dst = c__;                                                    \
    } while (0)

// Resolve an operand, with the failure jump folded in (no post-call
// status check on the hot path).
#define RESOLVE_TO(dst, op, m)                                        \
    do {                                                              \
        const UOperand &o_ = (op);                                    \
        if (o_.src == Src::Imm) {                                     \
            dst = o_.payload;                                         \
        } else if (o_.src == Src::Arg) {                              \
            if (o_.payload >= act.args.size()) [[unlikely]] {         \
                if (testhooks::poisonedOperandDefect) {               \
                    dst = mval::mkInt(0);                             \
                } else {                                              \
                    FAILX("argument index out of range", m);          \
                }                                                     \
            } else {                                                  \
                dst = act.args[o_.payload];                           \
            }                                                         \
        } else {                                                      \
            if (o_.payload >= act.locals.size()) [[unlikely]] {       \
                if (testhooks::poisonedOperandDefect) {               \
                    dst = mval::mkInt(0);                             \
                } else {                                              \
                    FAILX("local index out of range", m);             \
                }                                                     \
            } else {                                                  \
                dst = act.locals[o_.payload];                         \
            }                                                         \
        }                                                             \
    } while (0)

// The shared Let head: class/count/charge/trace, then fetch and
// resolve every argument word into letScratch.
#define LET_HEAD()                                                    \
    do {                                                              \
        SETCLASS(Let, let);                                           \
        ++machineStats.let.count;                                     \
        CHARGE(tm.letBase, ApFetchLet);                               \
        if (!Fast && traceExec)                                       \
            trace->emit(obs::EventKind::ExecLet, tbias + tot,         \
                        static_cast<int64_t>(act.funcId),             \
                        static_cast<int64_t>(u->nargs));              \
        letScratch.clear();                                           \
        const UOperand *ops_ = operands + u->argsBegin;               \
        for (uint32_t i_ = 0; i_ < u->nargs; ++i_) {                  \
            CHARGE(tm.letPerArg, ApFetchArg);                         \
            Word v_;                                                  \
            RESOLVE_TO(v_, ops_[i_], Exec);                           \
            letScratch.push_back(v_);                                 \
        }                                                             \
        ACCOUNT(machineStats.letArgs += u->nargs);                    \
    } while (0)

// Read the callee value of a Local/Arg-callee let.
#define FETCH_CALLEE(dst)                                             \
    do {                                                              \
        if (u->calleeKind == CalleeKind::Local) {                     \
            if (u->calleeId >= act.locals.size()) [[unlikely]]        \
                FAILX("callee local out of range", Exec);             \
            dst = act.locals[u->calleeId];                            \
        } else {                                                      \
            if (u->calleeId >= act.args.size()) [[unlikely]]          \
                FAILX("callee arg out of range", Exec);               \
            dst = act.args[u->calleeId];                              \
        }                                                             \
    } while (0)

// Apply primitive `p` to its integer operands `ints` (a
// std::vector<SWord>), leaving the result in vr.
#define PRIM_OP(p, ints)                                              \
    do {                                                              \
        switch (p) {                                                  \
          case Prim::GetInt:                                          \
            CHARGE(tm.ioOp, EvIoOp);                                  \
            /* Bus handlers may read cycles() (the system layer    */ \
            /* stamps IO with the λ clock): flush the cached clock. */ \
            SYNC();                                                   \
            vr = mval::mkInt(wrapInt31(bus.getInt((ints)[0])));       \
            break;                                                    \
          case Prim::PutInt:                                          \
            CHARGE(tm.ioOp, EvIoOp);                                  \
            SYNC();                                                   \
            bus.putInt((ints)[0], (ints)[1]);                         \
            vr = mval::mkInt((ints)[1]);                              \
            break;                                                    \
          case Prim::InvokeGc:                                        \
            /* The hardware GC-invocation function: collect now. */   \
            mode = Mode::Deliver;                                     \
            SYNC();                                                   \
            runGc(rootProviderU());                                   \
            RELOAD();                                                 \
            vr = mval::mkInt((ints)[0]);                              \
            break;                                                    \
          default: {                                                  \
            CHARGE(tm.aluOp, EvAluOp);                                \
            PrimResult r_ = evalAlu((p), (ints));                     \
            vr = r_.ok ? mval::mkInt(r_.value)                        \
                       : mval::mkRef(allocErrorL(r_.errCode));        \
            break;                                                    \
          }                                                           \
        }                                                             \
    } while (0)

// Push a PrimArgs frame forcing the words of `args` in order; its
// first operand is evaluated next.
#define PUSH_PRIM(p, args)                                            \
    do {                                                              \
        Frame &f_ = conts.push(Frame::Kind::PrimArgs);                \
        f_.prim = (p);                                                \
        f_.primArgs.assign((args).begin(), (args).end());             \
        f_.nextArg = 0;                                               \
        vr = f_.primArgs[0];                                          \
    } while (0)

// Fast only: chase every word of `args` into fastAluScratch; `ok`
// ends false at the first one that is not an integer.
#define INT_ARGS(ok, args)                                            \
    do {                                                              \
        ok = true;                                                    \
        fastAluScratch.clear();                                       \
        for (Word w_ : (args)) {                                      \
            Word cw_;                                                 \
            CHASE(cw_, w_);                                           \
            if (!mval::isInt(cw_)) {                                  \
                ok = false;                                           \
                break;                                                \
            }                                                         \
            fastAluScratch.push_back(mval::intOf(cw_));               \
        }                                                             \
    } while (0)

// Fast only: true when the µop after `u` is `result` of exactly the
// local this let is about to bind — the universal tail shape `let r
// = ...; result r`, where r dies at the result. Handlers use it to
// deliver the letting's value directly (and, for calls, to elide
// the thunk and update frame entirely).
#define TAIL_RESULT()                                                 \
    (u->next < nUops && uops[u->next].tcode == kTokResult &&          \
     uops[u->next].operand.src == Src::Local &&                       \
     uops[u->next].operand.payload == act.locals.size())

template <Machine::Impl::Accounting A>
void
Machine::Impl::advanceUop(Cycles target, size_t exportBase)
{
    constexpr bool Fast = A == Accounting::Fast;
    if (status != MachineStatus::Running)
        return;

    // Hoisted configuration — constants for the whole call.
    const TimingModel &tm = cfg.timing;
    const bool gcExh = cfg.gcOnExhaustion;
    [[maybe_unused]] const Cycles gcInt = cfg.gcIntervalCycles;
    [[maybe_unused]] const bool tly = tallyOn;
    const Uop *const uops = pre.uops.data();
    const size_t nUops = pre.uops.size();
    const UOperand *const operands = pre.operands.data();
    const UPattern *const patterns = pre.patterns.data();
    [[maybe_unused]] const bool useSwitch =
        testhooks::forceSwitchDispatch;

    // Hot registers.
    Cycles tot = total;
    Word vr = vreg;
    const Uop *u = nullptr;
    Cycles noneSink = 0;
    [[maybe_unused]] InstrClass klass = curClass;
    [[maybe_unused]] Cycles *bucket = &noneSink;
    [[maybe_unused]] Cycles exc = 0; // execCycles not yet folded in
    [[maybe_unused]] Cycles bkt = 0; // ditto for the class bucket
    if constexpr (!Fast) {
        switch (klass) {
          case InstrClass::Let:
            bucket = &machineStats.let.cycles;
            break;
          case InstrClass::Case:
            bucket = &machineStats.caseInstr.cycles;
            break;
          case InstrClass::Result:
            bucket = &machineStats.result.cycles;
            break;
          case InstrClass::None:
            break;
        }
    }

#ifdef ZARF_HAVE_COMPUTED_GOTO
    // Dispatch tables: one label per UTok, one per Frame::Kind.
    static const void *const tokTab[kNumTok] = {
        &&T_letConsSat, &&T_letConsOver, &&T_letApp, &&T_letUnknown,
        &&T_letAlias,   &&T_letBind,     &&T_case,   &&T_result,
        &&T_invalid,
    };
    static const void *const delivTab[4] = {
        &&D_update, &&D_case, &&D_prim, &&D_apply,
    };
#endif

    // Allocation helpers over the locals: each charges the
    // allocation header and one ApWriteArg visit per payload word.
    auto allocAppL = [&](Word fn, const Word *args, size_t n) -> Word {
        bool pad = n == 0;
        Word zero = 0;
        const Word *p = pad ? &zero : args;
        size_t len = pad ? 1 : n;
        CHARGE(tm.allocHeader, ApAllocHeader);
        CHARGE_N(ApWriteArg, len, len * tm.letPerArg);
        return heap.alloc(ObjKind::App, fn, p, len, pad);
    };
    auto allocConsL = [&](Word id, const Word *fields,
                          size_t n) -> Word {
        bool pad = n == 0;
        Word zero = 0;
        const Word *p = pad ? &zero : fields;
        size_t len = pad ? 1 : n;
        CHARGE(tm.allocHeader, ApAllocHeader);
        CHARGE_N(ApWriteArg, len, len * tm.letPerArg);
        return heap.alloc(ObjKind::Cons, id, p, len, pad);
    };
    auto allocAppVL = [&](Word callee, const Word *args,
                          size_t n) -> Word {
        appvScratch.clear();
        appvScratch.push_back(callee);
        appvScratch.insert(appvScratch.end(), args, args + n);
        CHARGE(tm.allocHeader, ApAllocHeader);
        CHARGE_N(ApWriteArg, appvScratch.size(),
                 appvScratch.size() * tm.letPerArg);
        return heap.alloc(ObjKind::AppV, 0, appvScratch.data(),
                          appvScratch.size());
    };
    auto allocErrorL = [&](SWord code) -> Word {
        ++machineStats.errorsCreated;
        Word field = mval::mkInt(code);
        return allocConsL(static_cast<Word>(Prim::Error), &field, 1);
    };
    // Apply the letScratch arguments to a callee value.
    auto bindApplyL = [&](Word callee) -> Word {
        Word c = heap.chase(callee);
        if (mval::isInt(c))
            return mval::mkRef(allocErrorL(kErrBadApply));
        Word h = heap.header(mval::refOf(c));
        ObjKind k = mhdr::kindOf(h);
        if (k == ObjKind::App && objIsWhnfU(h)) {
            Word fn = mhdr::fnOf(h);
            Word have = mhdr::argsOf(h);
            applyScratch.clear();
            applyScratch.reserve(have + letScratch.size());
            for (Word i = 0; i < have; ++i)
                applyScratch.push_back(
                    heap.payload(mval::refOf(c), i));
            CHARGE_N(ApCopyPartial, have,
                     have * tm.copyPartialPerWord);
            applyScratch.insert(applyScratch.end(),
                                letScratch.begin(),
                                letScratch.end());
            if (isConsId(fn) && applyScratch.size() == arityOf(fn))
                return mval::mkRef(allocConsL(fn, applyScratch.data(),
                                              applyScratch.size()));
            if (isConsId(fn) && applyScratch.size() > arityOf(fn))
                return mval::mkRef(allocErrorL(kErrArity));
            return mval::mkRef(allocAppL(fn, applyScratch.data(),
                                         applyScratch.size()));
        }
        if (k == ObjKind::Cons) {
            return mhdr::fnOf(h) == static_cast<Word>(Prim::Error)
                       ? c
                       : mval::mkRef(allocErrorL(kErrArity));
        }
        return mval::mkRef(allocAppVL(callee, letScratch.data(),
                                      letScratch.size()));
    };
    // Match the case µop `cu` against the chased scrutinee `v`:
    // returns the taken branch's pc, having bound a matched
    // constructor's fields as locals.
    auto matchCaseL = [&](const Uop &cu, Word v) -> size_t {
        bool isInt = mval::isInt(v);
        Word h = 0;
        if (!isInt)
            h = heap.header(mval::refOf(v));
        const UPattern *pats = patterns + cu.patBegin;
        for (uint32_t i = 0; i < cu.patCount; ++i) {
            CHARGE(tm.branchHead, EvBranchHead);
            ++machineStats.branchHeads;
            const UPattern &pat = pats[i];
            bool match;
            if (pat.isCons) {
                match = !isInt && mhdr::kindOf(h) == ObjKind::Cons &&
                        mhdr::fnOf(h) == pat.consId;
            } else {
                match = isInt && mval::intOf(v) == pat.lit;
            }
            if (match) {
                if (pat.isCons) {
                    Word caddr = mval::refOf(v);
                    Word n = mhdr::argsOf(h);
                    for (Word j = 0; j < n; ++j) {
                        act.locals.push_back(heap.payload(caddr, j));
                        CHARGE(tm.fieldPush, EvFieldPush);
                    }
                }
                return pat.body;
            }
        }
        return cu.elseBody;
    };

    // Entry: one dynamic dispatch on the resumed mode through the
    // step gate (no step counted: a zero budget is a no-op); from
    // here on every handler jumps to its statically known successor.
    switch (mode) {
      case Mode::EvalVal:
        GATE(L_eval, EvalVal, true);
      case Mode::Exec:
        GATE(L_exec, Exec, true);
      case Mode::Deliver:
        GATE(L_deliver, Deliver, true);
    }
    SYNC();
    return; // unreachable: the switch above covers every mode

    // ------------------------------------------------------------
    // EvalVal
    // ------------------------------------------------------------
L_eval:
    CHASE(vr, vr);
    if (mval::isInt(vr))
        NEXT_DELIVER_NA();
    {
        Word addr = mval::refOf(vr);
        Word h = heap.header(addr);
        CHARGE(tm.whnfCheck, EvWhnfHit);
        ObjKind kind = mhdr::kindOf(h);
        if (kind == ObjKind::Blackhole)
            FAILX("re-entered a thunk under evaluation", EvalVal);
        if (objIsWhnfU(h)) {
            ACCOUNT(++machineStats.whnfHits);
            NEXT_DELIVER_NA();
        }
        Word fn = mhdr::fnOf(h);
        if (kind != ObjKind::AppV && !idExists(fn)) [[unlikely]] {
            mode = Mode::EvalVal;
            SYNC();
            corruptThunk();
            return;
        }

        while (!conts.empty() &&
               conts.top().kind == Frame::Kind::Update) {
            Word prev = conts.top().target;
            Word ph = heap.header(prev);
            heap.setHeader(prev, mhdr::pack(ObjKind::Ind,
                                            mhdr::countOf(ph), 0,
                                            mhdr::padOf(ph)));
            heap.setPayload(prev, 0, vr);
            conts.pop();
            CHARGE(tm.collapseUpdate, EvCollapseUpd);
            ACCOUNT(++machineStats.updates);
        }
        conts.push(Frame::Kind::Update).target = addr;
        CHARGE(tm.enterThunk, EvEnterThunk);
        ACCOUNT(++machineStats.forces);

        Word count = mhdr::argsOf(h);
        if (!Fast && traceExec)
            trace->emit(obs::EventKind::EvalEnter, tbias + tot,
                        static_cast<int64_t>(fn),
                        static_cast<int64_t>(count));

        if (kind == ObjKind::AppV) {
            Word callee = heap.payload(addr, 0);
            Frame &f = conts.push(Frame::Kind::Apply);
            for (Word i = 1; i < mhdr::countOf(h); ++i)
                f.extra.push_back(heap.payload(addr, i));
            blackhole(addr, h);
            vr = callee;
            NEXT_NA(L_eval, EvalVal);
        }

        evalScratch.clear();
        evalScratch.reserve(count);
        for (Word i = 0; i < count; ++i)
            evalScratch.push_back(heap.payload(addr, i));
        blackhole(addr, h);

        Word arity = arityOf(fn);
        if (isConsId(fn)) {
            vr = mval::mkRef(allocErrorL(kErrArity));
            NEXT(L_eval, EvalVal);
        }
        if (evalScratch.size() > arity) {
            Frame &f = conts.push(Frame::Kind::Apply);
            f.extra.assign(evalScratch.begin() + arity,
                           evalScratch.end());
            evalScratch.resize(arity);
            CHARGE(tm.applyExtra, EvApplyExtra);
        }
        if (isPrimId(fn)) {
            // Primitive evaluation is accounted to the let class:
            // the paper's "applying two arguments to a primitive ALU
            // function and evaluating it" is a single let-application
            // unit (Sec. 5.2).
            SETCLASS(Let, let);
            CHARGE(tm.primSetup, EvPrimSetup);
            if (evalScratch.empty())
                FAILX("zero-arity primitive application", EvalVal);
            Prim p = static_cast<Prim>(fn);
            if constexpr (Fast) {
                // Fused all-int primitive application: operands that
                // all chase to integers feed the ALU/IO op directly,
                // skipping the PrimArgs frame and the per-operand
                // forcing round trips.
                bool allInts = false;
                if (p != Prim::InvokeGc)
                    INT_ARGS(allInts, evalScratch);
                if (allInts) {
                    PRIM_OP(p, fastAluScratch);
                    NEXT_DELIVER();
                }
            }
            PUSH_PRIM(p, evalScratch);
            NEXT_NA(L_eval, EvalVal);
        }

        size_t idx = fn - kFirstUserFuncId;
        CHARGE(tm.callSetup, EvCallSetup);
        ++callCounts[idx];
        act.funcId = fn;
        act.args.swap(evalScratch);
        act.locals.clear();
        act.pc = funcs[idx].bodyBegin;
    }
    NEXT_NA(L_exec, Exec);

    // ------------------------------------------------------------
    // Exec: fetch and token-dispatch
    // ------------------------------------------------------------
L_exec:
    if (act.pc >= nUops) [[unlikely]]
        FAILX("program counter ran off the image", Exec);
    u = uops + act.pc;
#ifdef ZARF_HAVE_COMPUTED_GOTO
    if (!useSwitch)
        goto *tokTab[u->tcode];
#endif
    switch (u->tcode) {
      case kTokLetConsSat:
        goto T_letConsSat;
      case kTokLetConsOver:
        goto T_letConsOver;
      case kTokLetApp:
        goto T_letApp;
      case kTokLetUnknown:
        goto T_letUnknown;
      case kTokLetAlias:
        goto T_letAlias;
      case kTokLetBind:
        goto T_letBind;
      case kTokCase:
        goto T_case;
      case kTokResult:
        goto T_result;
      default:
        goto T_invalid;
    }

T_letConsSat:
    LET_HEAD();
    {
        Word c = mval::mkRef(allocConsL(u->calleeId, letScratch.data(),
                                        letScratch.size()));
        if constexpr (Fast) {
            if (TAIL_RESULT()) {
                // Fused `let r = Cons ...; result r`: a constructor
                // is already WHNF, so deliver it without the bind,
                // the refetch, and the eval step.
                ++machineStats.result.count;
                vr = c;
                NEXT_DELIVER();
            }
        }
        act.locals.push_back(c);
    }
    act.pc = u->next;
    NEXT(L_exec, Exec);

T_letConsOver:
    LET_HEAD();
    act.locals.push_back(mval::mkRef(allocErrorL(kErrArity)));
    act.pc = u->next;
    NEXT(L_exec, Exec);

T_letApp:
    LET_HEAD();
    if constexpr (Fast) {
        const Word fn = u->calleeId;
        if (u->nargs == u->calleeArity) {
            if (fn >= kFirstUserFuncId) {
                if (TAIL_RESULT()) {
                    // Fused tail call `let r = f(...); result r`:
                    // the binding's only consumer is the result, so
                    // the App thunk, its update frame, and the
                    // update write are all unobservable — enter the
                    // callee directly. Deep recursion in this shape
                    // (every loop in the source language) runs in
                    // constant frame and heap space.
                    ++machineStats.result.count;
                    const size_t idx = fn - kFirstUserFuncId;
                    ++callCounts[idx];
                    act.funcId = fn;
                    act.args.swap(letScratch);
                    act.locals.clear();
                    act.pc = funcs[idx].bodyBegin;
                    NEXT_NA(L_exec, Exec);
                }
            } else if (TAIL_RESULT() && fn != 0 &&
                       fn != static_cast<Word>(Prim::InvokeGc) &&
                       isPrimId(fn)) {
                // Fused `let r = prim(...); result r`: the result
                // forces the application immediately, so evaluate it
                // strictly under the current continuation — no App
                // thunk, no update frame. Arguments that are already
                // integers complete in place (including the I/O
                // prims, whose effects a force would perform at
                // exactly this point); otherwise the generic
                // PrimArgs frame forces them one by one.
                ++machineStats.result.count;
                const Prim p = static_cast<Prim>(fn);
                bool allInts;
                INT_ARGS(allInts, letScratch);
                if (allInts) {
                    PRIM_OP(p, fastAluScratch);
                    NEXT_DELIVER();
                }
                PUSH_PRIM(p, letScratch);
                NEXT_NA(L_eval, EvalVal);
            } else if (fn >= static_cast<Word>(Prim::Add) &&
                       fn <= static_cast<Word>(Prim::Sru)) {
                // Eager pure-ALU application: when every argument is
                // already an integer, compute now instead of
                // allocating a thunk to force later. Division-style
                // failures fall back to the lazy path so the Error
                // value (and the errorsCreated counter) appear
                // exactly when a force would have produced them.
                bool allInts;
                INT_ARGS(allInts, letScratch);
                if (allInts) {
                    PrimResult r =
                        evalAlu(static_cast<Prim>(fn), fastAluScratch);
                    if (r.ok) {
                        if (TAIL_RESULT()) {
                            ++machineStats.result.count;
                            vr = mval::mkInt(r.value);
                            NEXT_DELIVER_NA();
                        }
                        act.locals.push_back(mval::mkInt(r.value));
                        act.pc = u->next;
                        NEXT_NA(L_exec, Exec);
                    }
                }
            }
        }
    }
    act.locals.push_back(mval::mkRef(allocAppL(
        u->calleeId, letScratch.data(), letScratch.size())));
    act.pc = u->next;
    NEXT(L_exec, Exec);

T_letUnknown:
    LET_HEAD();
    FAILX("let names an unknown function identifier", Exec);

T_letAlias:
    LET_HEAD();
    {
        Word callee;
        FETCH_CALLEE(callee);
        CHARGE(tm.collapseUpdate, ApAliasLocal);
        act.locals.push_back(callee);
    }
    act.pc = u->next;
    NEXT_NA(L_exec, Exec);

T_letBind:
    LET_HEAD();
    {
        Word callee;
        FETCH_CALLEE(callee);
        act.locals.push_back(bindApplyL(callee));
    }
    act.pc = u->next;
    NEXT(L_exec, Exec);

T_case:
    SETCLASS(Case, caseInstr);
    ++machineStats.caseInstr.count;
    CHARGE(tm.caseBase, EvFetchCase);
    if (!Fast && traceExec)
        trace->emit(obs::EventKind::ExecCase, tbias + tot,
                    static_cast<int64_t>(act.funcId));
    {
        Word scrut;
        RESOLVE_TO(scrut, u->operand, Exec);
        if constexpr (Fast) {
            // Fused case-of-value: a scrutinee that is already WHNF
            // (or an integer) matches in place, skipping the
            // continuation frame, the activation copy, and the
            // eval/deliver round trip.
            Word v;
            CHASE(v, scrut);
            if (mval::isInt(v) ||
                objIsWhnfU(heap.header(mval::refOf(v)))) {
                act.pc = matchCaseL(*u, v);
                NEXT_NA(L_exec, Exec);
            }
        }
        Frame &f = conts.push(Frame::Kind::Case);
        f.act.funcId = act.funcId;
        f.act.pc = act.pc;
        if constexpr (Fast) {
            // The activation moves into the frame by swap (the
            // deliver path swaps it back); the recycled vectors left
            // behind are cleared so the GC root walk never sees
            // their stale words.
            f.act.args.swap(act.args);
            f.act.locals.swap(act.locals);
            act.args.clear();
            act.locals.clear();
        } else {
            // Copy (not swap) the activation into the frame: the
            // stale copy left in `act` is part of the GC root walk,
            // as in the word-walking machine, and the evacuation
            // order — part of the ledger the oracle compares —
            // depends on it.
            f.act.args.assign(act.args.begin(), act.args.end());
            f.act.locals.assign(act.locals.begin(), act.locals.end());
        }
        vr = scrut;
    }
    NEXT_NA(L_eval, EvalVal);

T_result:
    SETCLASS(Result, result);
    ++machineStats.result.count;
    CHARGE(tm.resultBase, EvFetchResult);
    if (!Fast && traceExec)
        trace->emit(obs::EventKind::ExecResult, tbias + tot,
                    static_cast<int64_t>(act.funcId));
    RESOLVE_TO(vr, u->operand, Exec);
    if constexpr (Fast) {
        if (mval::isInt(vr))
            NEXT_DELIVER_NA(); // fused: skip the eval step
    }
    NEXT_NA(L_eval, EvalVal);

T_invalid:
    FAILX(strprintf("unexpected opcode at word %zu", act.pc), Exec);

    // ------------------------------------------------------------
    // Deliver
    // ------------------------------------------------------------
L_deliver:
    if (conts.empty()) {
        mode = Mode::Deliver;
        SYNC();
        noteStatus(MachineStatus::Done);
        status = MachineStatus::Done;
        return;
    }
#ifdef ZARF_HAVE_COMPUTED_GOTO
    if (!useSwitch)
        goto *delivTab[static_cast<int>(conts.top().kind)];
#endif
    switch (conts.top().kind) {
      case Frame::Kind::Update:
        goto D_update;
      case Frame::Kind::Case:
        goto D_case;
      case Frame::Kind::PrimArgs:
        goto D_prim;
      case Frame::Kind::Apply:
        goto D_apply;
    }

D_update:
    {
        Word tgt = conts.top().target;
        conts.pop();
        Word h = heap.header(tgt);
        heap.setHeader(tgt, mhdr::pack(ObjKind::Ind, mhdr::countOf(h),
                                       0, mhdr::padOf(h)));
        heap.setPayload(tgt, 0, vr);
        CHARGE(tm.update, EvUpdate);
        ACCOUNT(++machineStats.updates);
    }
    NEXT_DELIVER_NA(); // stay in Deliver

D_case:
    // Swap instead of move: the slot keeps the dead activation's
    // buffers for the next push to recycle. Then walk the flattened
    // jump table, one cycle per branch head.
    std::swap(act, conts.top().act);
    conts.pop();
    CHARGE(tm.returnToCase, EvReturn);
    SETCLASS(Case, caseInstr);
    {
        Word v;
        CHASE(v, vr);
        act.pc = matchCaseL(uops[act.pc], v); // pc saved at the case
    }
    NEXT_NA(L_exec, Exec);

D_prim:
    {
        Frame &f = conts.top();
        SETCLASS(Let, let);
        Word v = heap.chase(vr);
        Prim p = f.prim;
        CHARGE(tm.primPerArg, EvPrimArg);

        if (mval::isRef(v)) {
            Word h = heap.header(mval::refOf(v));
            conts.pop();
            if (mhdr::kindOf(h) == ObjKind::Cons &&
                mhdr::fnOf(h) == static_cast<Word>(Prim::Error)) {
                vr = v;
                NEXT_DELIVER();
            }
            SWord code = (p == Prim::GetInt || p == Prim::PutInt)
                             ? kErrIoNotInt
                             : kErrBadApply;
            vr = mval::mkRef(allocErrorL(code));
            NEXT_DELIVER();
        }

        f.collected.push_back(mval::intOf(v));
        f.nextArg++;
        if (f.nextArg < f.primArgs.size()) {
            // More operands: the frame stays on the stack.
            vr = f.primArgs[f.nextArg];
            NEXT(L_eval, EvalVal);
        }

        conts.pop(); // slot stays readable until the next push
        if (!Fast && traceExec)
            trace->emit(obs::EventKind::PrimOp, tbias + tot,
                        static_cast<int64_t>(p),
                        static_cast<int64_t>(f.collected.size()));
        PRIM_OP(p, f.collected);
    }
    NEXT_DELIVER();

D_apply:
    {
        Frame &f = conts.top();
        conts.pop(); // slot storage stays valid; nothing pushes below
        SETCLASS(Let, let);
        CHARGE(tm.applyExtra, EvApplyExtra);
        Word v = heap.chase(vr);
        if (mval::isInt(v)) {
            vr = mval::mkRef(allocErrorL(kErrBadApply));
            NEXT_DELIVER();
        }
        Word addr = mval::refOf(v);
        Word h = heap.header(addr);
        if (mhdr::kindOf(h) == ObjKind::Cons) {
            vr = mhdr::fnOf(h) == static_cast<Word>(Prim::Error)
                     ? v
                     : mval::mkRef(allocErrorL(kErrArity));
            NEXT_DELIVER();
        }
        // Partial application: extend and re-evaluate.
        Word fn = mhdr::fnOf(h);
        Word have = mhdr::argsOf(h);
        applyScratch.clear();
        applyScratch.reserve(have + f.extra.size());
        for (Word i = 0; i < have; ++i)
            applyScratch.push_back(heap.payload(addr, i));
        CHARGE_N(ApCopyPartial, have, have * tm.copyPartialPerWord);
        applyScratch.insert(applyScratch.end(), f.extra.begin(),
                            f.extra.end());
        if (isConsId(fn) && applyScratch.size() == arityOf(fn)) {
            vr = mval::mkRef(allocConsL(fn, applyScratch.data(),
                                        applyScratch.size()));
        } else if (isConsId(fn) &&
                   applyScratch.size() > arityOf(fn)) {
            vr = mval::mkRef(allocErrorL(kErrArity));
        } else {
            vr = mval::mkRef(allocAppL(fn, applyScratch.data(),
                                       applyScratch.size()));
        }
    }
    NEXT(L_eval, EvalVal);
}

template void Machine::Impl::advanceUop<
    Machine::Impl::Accounting::CycleAccurate>(Cycles, size_t);
template void
Machine::Impl::advanceUop<Machine::Impl::Accounting::Fast>(Cycles,
                                                           size_t);

#undef CHARGE
#undef CHARGE_N
#undef ACCOUNT
#undef SYNC
#undef RELOAD
#undef FAILX
#undef SETCLASS
#undef GATE
#undef NEXT
#undef NEXT_NA
#undef EXPORT_EXIT
#undef NEXT_DELIVER
#undef NEXT_DELIVER_NA
#undef CHASE
#undef RESOLVE_TO
#undef LET_HEAD
#undef FETCH_CALLEE
#undef PRIM_OP
#undef PUSH_PRIM
#undef INT_ARGS
#undef TAIL_RESULT

} // namespace zarf
