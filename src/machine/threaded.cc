/**
 * @file
 * The λ-machine's µop interpreter and fast-functional core
 * (machine/threaded.hh). Both are member functions of Machine::Impl
 * over the same architectural state as the word-walking reference
 * path. The µop interpreter is the one cycle-accurate implementation
 * of the predecoded semantics; the differential suites hold it to
 * full-ledger bit-equality with the word-walking machine
 * (fuzz/oracle.hh) and with itself across dispatch flavours
 * (tests/test_machine_threaded.cc).
 *
 * Each core has one handler body and two dispatch flavours:
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
// preamble. The macros below express the machine's charge and
// status helpers over the locals.
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
        Cycles c_ = (n);                                              \
        if (tly)                                                      \
            tally.add(MState::st, c_);                                \
        tot += c_;                                                    \
        exc += c_;                                                    \
        bkt += c_;                                                    \
    } while (0)

// Charge `visits` visits of `st` costing n in total (Impl::chargeN()).
#define CHARGE_N(st, visits, n)                                       \
    do {                                                              \
        Cycles c_ = (n);                                              \
        if (tly)                                                      \
            tally.addN(MState::st, (visits), c_);                     \
        tot += c_;                                                    \
        exc += c_;                                                    \
        bkt += c_;                                                    \
    } while (0)

// Flush the hot locals into the members (before any call that reads
// them: GC, fail(), noteStatus(), and on return).
#define SYNC()                                                        \
    do {                                                              \
        total = tot;                                                  \
        vreg = vr;                                                    \
        curClass = klass;                                             \
        machineStats.execCycles += exc;                               \
        exc = 0;                                                      \
        *bucket += bkt;                                               \
        bkt = 0;                                                      \
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
        *bucket += bkt;                                               \
        bkt = 0;                                                      \
        klass = InstrClass::cls;                                      \
        bucket = &machineStats.field.cycles;                          \
    } while (0)

// The inter-step boundary: budget check, then the step preamble
// (health gate, safe-margin GC, interval GC), then a direct jump to
// the next handler. `m` is the Mode the next step
// runs in — stored only on the exit paths, never on the hot path.
#define NEXT(L, m)                                                    \
    do {                                                              \
        if (tot >= target) {                                          \
            mode = Mode::m;                                           \
            SYNC();                                                   \
            return;                                                   \
        }                                                             \
        if (heap.corrupt() || heap.outOfMemory()) [[unlikely]] {      \
            mode = Mode::m;                                           \
            SYNC();                                                   \
            heapHealthy();                                            \
            return;                                                   \
        }                                                             \
        if (gcExh && heap.freeWords() < kGcSafeMargin) [[unlikely]] { \
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
        if (gcInt && tot - lastGcAt >= gcInt) [[unlikely]] {          \
            mode = Mode::m;                                           \
            SYNC();                                                   \
            runGc(rootProviderU());                                   \
            if (!heapHealthy())                                       \
                return;                                               \
            RELOAD();                                                 \
        }                                                             \
        goto L;                                                       \
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
        if (traceExec)                                                \
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
        machineStats.letArgs += u->nargs;                             \
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

// Enter Deliver mode. Under a deep-force export, delivering to the
// export's base frame depth is the export's exit: Done, checked
// before the next step's preamble and without a MachDone event.
#define NEXT_DELIVER()                                                \
    do {                                                              \
        if (conts.size() == exportBase) [[unlikely]] {                \
            mode = Mode::Deliver;                                     \
            SYNC();                                                   \
            status = MachineStatus::Done;                             \
            return;                                                   \
        }                                                             \
        NEXT(L_deliver, Deliver);                                     \
    } while (0)

void
Machine::Impl::advanceUop(Cycles target, size_t exportBase)
{
    if (status != MachineStatus::Running)
        return;

    // Hoisted configuration — constants for the whole call.
    const TimingModel &tm = cfg.timing;
    const bool gcExh = cfg.gcOnExhaustion;
    const Cycles gcInt = cfg.gcIntervalCycles;
    const bool tly = tallyOn;
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
    InstrClass klass = curClass;
    Cycles *bucket = &noneSink;
    Cycles exc = 0; // execCycles not yet folded into the stats
    Cycles bkt = 0; // ditto for the current class bucket
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

    // Entry: one dynamic dispatch on the resumed mode; from here on
    // every handler jumps to its statically known successor.
    switch (mode) {
      case Mode::EvalVal:
        NEXT(L_eval, EvalVal);
      case Mode::Exec:
        NEXT(L_exec, Exec);
      case Mode::Deliver:
        NEXT(L_deliver, Deliver);
    }
    SYNC();
    return; // unreachable: the switch above covers every mode

    // ------------------------------------------------------------
    // EvalVal
    // ------------------------------------------------------------
L_eval:
    vr = heap.chase(vr);
    if (mval::isInt(vr))
        NEXT_DELIVER();
    {
        Word addr = mval::refOf(vr);
        Word h = heap.header(addr);
        CHARGE(tm.whnfCheck, EvWhnfHit);
        ObjKind kind = mhdr::kindOf(h);
        if (kind == ObjKind::Blackhole)
            FAILX("re-entered a thunk under evaluation", EvalVal);
        if (objIsWhnfU(h)) {
            ++machineStats.whnfHits;
            NEXT_DELIVER();
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
            ++machineStats.updates;
        }
        conts.push(Frame::Kind::Update).target = addr;
        CHARGE(tm.enterThunk, EvEnterThunk);
        ++machineStats.forces;

        Word count = mhdr::argsOf(h);
        Word fn = mhdr::fnOf(h);
        if (traceExec)
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
            NEXT(L_eval, EvalVal);
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
            Frame &f = conts.push(Frame::Kind::PrimArgs);
            f.prim = static_cast<Prim>(fn);
            f.primArgs.assign(evalScratch.begin(),
                              evalScratch.end());
            f.nextArg = 0;
            vr = f.primArgs[0];
            NEXT(L_eval, EvalVal);
        }

        size_t idx = fn - kFirstUserFuncId;
        CHARGE(tm.callSetup, EvCallSetup);
        ++callCounts[idx];
        act.funcId = fn;
        act.args.swap(evalScratch);
        act.locals.clear();
        act.pc = funcs[idx].bodyBegin;
    }
    NEXT(L_exec, Exec);

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
    act.locals.push_back(mval::mkRef(allocConsL(
        u->calleeId, letScratch.data(), letScratch.size())));
    act.pc = u->next;
    NEXT(L_exec, Exec);

T_letConsOver:
    LET_HEAD();
    act.locals.push_back(mval::mkRef(allocErrorL(kErrArity)));
    act.pc = u->next;
    NEXT(L_exec, Exec);

T_letApp:
    LET_HEAD();
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
    NEXT(L_exec, Exec);

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
    if (traceExec)
        trace->emit(obs::EventKind::ExecCase, tbias + tot,
                    static_cast<int64_t>(act.funcId));
    {
        Word scrut;
        RESOLVE_TO(scrut, u->operand, Exec);
        // Copy (not swap) the activation into the frame: the stale
        // copy left in `act` is part of the GC root walk, as in the
        // word-walking machine, and the evacuation order — part of
        // the ledger the oracle compares — depends on it.
        Frame &f = conts.push(Frame::Kind::Case);
        f.act.funcId = act.funcId;
        f.act.pc = act.pc;
        f.act.args.assign(act.args.begin(), act.args.end());
        f.act.locals.assign(act.locals.begin(), act.locals.end());
        vr = scrut;
    }
    NEXT(L_eval, EvalVal);

T_result:
    SETCLASS(Result, result);
    ++machineStats.result.count;
    CHARGE(tm.resultBase, EvFetchResult);
    if (traceExec)
        trace->emit(obs::EventKind::ExecResult, tbias + tot,
                    static_cast<int64_t>(act.funcId));
    {
        Word v;
        RESOLVE_TO(v, u->operand, Exec);
        vr = v;
    }
    NEXT(L_eval, EvalVal);

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
        ++machineStats.updates;
    }
    NEXT_DELIVER(); // stay in Deliver

D_case:
    // Swap instead of move: the slot keeps the dead activation's
    // buffers for the next push to recycle. Then walk the flattened
    // jump table, one cycle per branch head.
    std::swap(act, conts.top().act);
    conts.pop();
    CHARGE(tm.returnToCase, EvReturn);
    SETCLASS(Case, caseInstr);
    {
        const Uop &cu = uops[act.pc]; // saved at the case head
        Word v = heap.chase(vr);
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
                match = !isInt &&
                        mhdr::kindOf(h) == ObjKind::Cons &&
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
                act.pc = pat.body;
                NEXT(L_exec, Exec);
            }
        }
        act.pc = cu.elseBody;
    }
    NEXT(L_exec, Exec);

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
        if (traceExec)
            trace->emit(obs::EventKind::PrimOp, tbias + tot,
                        static_cast<int64_t>(p),
                        static_cast<int64_t>(f.collected.size()));
        switch (p) {
          case Prim::GetInt:
            CHARGE(tm.ioOp, EvIoOp);
            // Bus handlers may read cycles() (the system layer stamps
            // IO with the λ clock), so flush the cached clock first.
            SYNC();
            vr = mval::mkInt(wrapInt31(bus.getInt(f.collected[0])));
            break;
          case Prim::PutInt:
            CHARGE(tm.ioOp, EvIoOp);
            SYNC();
            bus.putInt(f.collected[0], f.collected[1]);
            vr = mval::mkInt(f.collected[1]);
            break;
          case Prim::InvokeGc:
            // The hardware GC-invocation function: collect now.
            mode = Mode::Deliver;
            SYNC();
            runGc(rootProviderU());
            RELOAD();
            vr = mval::mkInt(f.collected[0]);
            break;
          default: {
            CHARGE(tm.aluOp, EvAluOp);
            PrimResult r = evalAlu(p, f.collected);
            vr = r.ok ? mval::mkInt(r.value)
                      : mval::mkRef(allocErrorL(r.errCode));
            break;
          }
        }
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

#undef CHARGE
#undef CHARGE_N
#undef SYNC
#undef RELOAD
#undef FAILX
#undef SETCLASS
#undef NEXT
#undef RESOLVE_TO
#undef LET_HEAD
#undef FETCH_CALLEE
#undef NEXT_DELIVER

// ================================================================
// Fast-functional tier. One body carries both dispatch flavours, as
// in the µop interpreter: computed goto when the build has it and
// the test hook does not force the switch, otherwise a dense switch
// (a jump table after lowering). The cycle/FSM accounting and the
// per-µop trace hooks are compiled out — total counts *fused steps* — and two
// outcome-preserving superinstruction fusions apply:
//
//  - case-of-value: a scrutinee that is already WHNF (or an
//    integer) matches in place, skipping the continuation frame,
//    the activation copy, and the eval/deliver round trip;
//  - all-int primitive application: operands that all chase to
//    integers feed the ALU/IO op directly, skipping the PrimArgs
//    frame and the per-operand forcing round trips. InvokeGc and
//    reference operands (thunks, WHNF values, Errors) take the
//    generic frame path, so error and forcing semantics are
//    untouched.
//
// Counter statistics that benches report (instruction counts,
// per-function activations, allocations) are maintained; cycle
// fields stop accumulating. GC stays at step boundaries under the
// same safe-margin discipline as the cycle-accurate tiers; the
// cycle-interval GC policy is ignored (there is no cycle clock).
// ================================================================

#define FSYNC()                                                       \
    do {                                                              \
        total = tot;                                                  \
        vreg = vr;                                                    \
    } while (0)

#define FRELOAD()                                                     \
    do {                                                              \
        tot = total;                                                  \
        vr = vreg;                                                    \
    } while (0)

#define FFAIL(why, m)                                                 \
    do {                                                              \
        mode = Mode::m;                                               \
        FSYNC();                                                      \
        fail(why);                                                    \
        return;                                                       \
    } while (0)

// The fused-step boundary: count the step, then the health gate and
// safe-margin GC (no cycle-interval policy in this tier).
#define FNEXT(L, m)                                                   \
    do {                                                              \
        ++tot;                                                        \
        if (tot >= target) {                                          \
            mode = Mode::m;                                           \
            FSYNC();                                                  \
            return;                                                   \
        }                                                             \
        if (heap.corrupt() || heap.outOfMemory()) [[unlikely]] {      \
            mode = Mode::m;                                           \
            FSYNC();                                                  \
            heapHealthy();                                            \
            return;                                                   \
        }                                                             \
        if (gcExh && heap.freeWords() < kGcSafeMargin) [[unlikely]] { \
            mode = Mode::m;                                           \
            FSYNC();                                                  \
            runGc(rootProviderU());                                   \
            if (!heapHealthy())                                       \
                return;                                               \
            if (heap.freeWords() < kGcSafeMargin) {                   \
                noteStatus(MachineStatus::OutOfMemory);               \
                status = MachineStatus::OutOfMemory;                  \
                diagnostic = "live set exceeds semispace capacity";   \
                return;                                               \
            }                                                         \
            FRELOAD();                                                \
        }                                                             \
        goto L;                                                       \
    } while (0)

// Step boundary for handlers that cannot allocate: the free-words
// margin and the OOM latch can only change on an allocation, so a
// non-allocating step needs just the budget gate and the (sticky,
// chase-latched) corruption gate. The margin invariant holds
// because every allocating handler still ends in the full FNEXT,
// which re-checks the margin after its allocation.
#define FNEXT_NA(L, m)                                                \
    do {                                                              \
        ++tot;                                                        \
        if (tot >= target) {                                          \
            mode = Mode::m;                                           \
            FSYNC();                                                  \
            return;                                                   \
        }                                                             \
        if (heap.corrupt()) [[unlikely]] {                            \
            mode = Mode::m;                                           \
            FSYNC();                                                  \
            heapHealthy();                                            \
            return;                                                   \
        }                                                             \
        goto L;                                                       \
    } while (0)

#define FRESOLVE(dst, op, m)                                          \
    do {                                                              \
        const UOperand &o_ = (op);                                    \
        if (o_.src == Src::Imm) {                                     \
            dst = o_.payload;                                         \
        } else if (o_.src == Src::Arg) {                              \
            if (o_.payload >= act.args.size()) [[unlikely]] {         \
                if (testhooks::poisonedOperandDefect) {               \
                    dst = mval::mkInt(0);                             \
                } else {                                              \
                    FFAIL("argument index out of range", m);          \
                }                                                     \
            } else {                                                  \
                dst = act.args[o_.payload];                           \
            }                                                         \
        } else {                                                      \
            if (o_.payload >= act.locals.size()) [[unlikely]] {       \
                if (testhooks::poisonedOperandDefect) {               \
                    dst = mval::mkInt(0);                             \
                } else {                                              \
                    FFAIL("local index out of range", m);             \
                }                                                     \
            } else {                                                  \
                dst = act.locals[o_.payload];                         \
            }                                                         \
        }                                                             \
    } while (0)

// Open-coded indirection chase for the fast core's hot paths. The
// common cases (integer, non-Ind object, short Ind chain) complete
// in the few inline loads below; anything rare — a wild reference or
// a chain longer than the hop budget (only corruption or fault
// injection builds those) — falls back to Heap::chase, which owns
// the corruption marking and cycle detection.
#define FCHASE(dst, srcw)                                             \
    do {                                                              \
        Word c__ = (srcw);                                            \
        int hops__ = 64;                                              \
        for (;;) {                                                    \
            if (mval::isInt(c__))                                     \
                break;                                                \
            const Word a__ = mval::refOf(c__);                        \
            if (!heap.validAddr(a__)) [[unlikely]] {                  \
                c__ = heap.chase(c__);                                \
                break;                                                \
            }                                                         \
            if (mhdr::kindOf(heap.header(a__)) != ObjKind::Ind)       \
                break;                                                \
            if (--hops__ == 0) [[unlikely]] {                         \
                c__ = heap.chase(c__);                                \
                break;                                                \
            }                                                         \
            c__ = heap.payload(a__, 0);                               \
        }                                                             \
        dst = c__;                                                    \
    } while (0)

#define FLET_HEAD()                                                   \
    do {                                                              \
        ++machineStats.let.count;                                     \
        letScratch.clear();                                           \
        const UOperand *ops_ = operands + u->argsBegin;               \
        for (uint32_t i_ = 0; i_ < u->nargs; ++i_) {                  \
            Word v_;                                                  \
            FRESOLVE(v_, ops_[i_], Exec);                             \
            letScratch.push_back(v_);                                 \
        }                                                             \
    } while (0)

#define FFETCH_CALLEE(dst)                                            \
    do {                                                              \
        if (u->calleeKind == CalleeKind::Local) {                     \
            if (u->calleeId >= act.locals.size()) [[unlikely]]        \
                FFAIL("callee local out of range", Exec);             \
            dst = act.locals[u->calleeId];                            \
        } else {                                                      \
            if (u->calleeId >= act.args.size()) [[unlikely]]          \
                FFAIL("callee arg out of range", Exec);               \
            dst = act.args[u->calleeId];                              \
        }                                                             \
    } while (0)

void
Machine::Impl::advanceFast(Cycles target)
{
    if (status != MachineStatus::Running)
        return;

    // Hoisted configuration.
    const bool gcExh = cfg.gcOnExhaustion;
    const Uop *const uops = pre.uops.data();
    const size_t nUops = pre.uops.size();
    const UOperand *const operands = pre.operands.data();
    const UPattern *const patterns = pre.patterns.data();
    [[maybe_unused]] const bool useSwitch =
        testhooks::forceSwitchDispatch;

    // Hot registers: the step counter and the value register.
    Cycles tot = total;
    Word vr = vreg;
    const Uop *u = nullptr;

#ifdef ZARF_HAVE_COMPUTED_GOTO
    static const void *const ftokTab[kNumTok] = {
        &&FT_letConsSat, &&FT_letConsOver, &&FT_letApp,
        &&FT_letUnknown, &&FT_letAlias,    &&FT_letBind,
        &&FT_case,       &&FT_result,      &&FT_invalid,
    };
#endif

    // Allocation helpers: the µop interpreter's, minus the charges.
    auto allocAppF = [&](Word fn, const Word *args, size_t n) -> Word {
        bool pad = n == 0;
        Word zero = 0;
        const Word *p = pad ? &zero : args;
        return heap.alloc(ObjKind::App, fn, p, pad ? 1 : n, pad);
    };
    auto allocConsF = [&](Word id, const Word *fields,
                          size_t n) -> Word {
        bool pad = n == 0;
        Word zero = 0;
        const Word *p = pad ? &zero : fields;
        return heap.alloc(ObjKind::Cons, id, p, pad ? 1 : n, pad);
    };
    auto allocAppVF = [&](Word callee, const Word *args,
                          size_t n) -> Word {
        appvScratch.clear();
        appvScratch.push_back(callee);
        appvScratch.insert(appvScratch.end(), args, args + n);
        return heap.alloc(ObjKind::AppV, 0, appvScratch.data(),
                          appvScratch.size());
    };
    auto allocErrorF = [&](SWord code) -> Word {
        ++machineStats.errorsCreated;
        Word field = mval::mkInt(code);
        return allocConsF(static_cast<Word>(Prim::Error), &field, 1);
    };
    auto bindApplyF = [&](Word callee) -> Word {
        Word c = heap.chase(callee);
        if (mval::isInt(c))
            return mval::mkRef(allocErrorF(kErrBadApply));
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
            applyScratch.insert(applyScratch.end(),
                                letScratch.begin(),
                                letScratch.end());
            if (isConsId(fn) && applyScratch.size() == arityOf(fn))
                return mval::mkRef(allocConsF(fn, applyScratch.data(),
                                              applyScratch.size()));
            if (isConsId(fn) && applyScratch.size() > arityOf(fn))
                return mval::mkRef(allocErrorF(kErrArity));
            return mval::mkRef(allocAppF(fn, applyScratch.data(),
                                         applyScratch.size()));
        }
        if (k == ObjKind::Cons) {
            return mhdr::fnOf(h) == static_cast<Word>(Prim::Error)
                       ? c
                       : mval::mkRef(allocErrorF(kErrArity));
        }
        return mval::mkRef(allocAppVF(callee, letScratch.data(),
                                      letScratch.size()));
    };

    // Entry preamble: no step counted yet (a zero budget must be a
    // no-op, as in the µop interpreter).
    if (tot >= target)
        return;
    if (heap.corrupt() || heap.outOfMemory()) [[unlikely]] {
        heapHealthy();
        return;
    }
    if (gcExh && heap.freeWords() < kGcSafeMargin) [[unlikely]] {
        runGc(rootProviderU());
        if (!heapHealthy())
            return;
        if (heap.freeWords() < kGcSafeMargin) {
            noteStatus(MachineStatus::OutOfMemory);
            status = MachineStatus::OutOfMemory;
            diagnostic = "live set exceeds semispace capacity";
            return;
        }
        FRELOAD();
    }
    switch (mode) {
      case Mode::EvalVal:
        goto F_eval;
      case Mode::Exec:
        goto F_exec;
      case Mode::Deliver:
        goto F_deliver;
    }
    return; // unreachable: the switch above covers every mode

    // ------------------------------------------------------------
    // EvalVal
    // ------------------------------------------------------------
F_eval:
    FCHASE(vr, vr);
    if (mval::isInt(vr))
        FNEXT_NA(F_deliver, Deliver);
    {
        Word addr = mval::refOf(vr);
        Word h = heap.header(addr);
        ObjKind kind = mhdr::kindOf(h);
        if (kind == ObjKind::Blackhole)
            FFAIL("re-entered a thunk under evaluation", EvalVal);
        if (objIsWhnfU(h))
            FNEXT_NA(F_deliver, Deliver);

        while (!conts.empty() &&
               conts.top().kind == Frame::Kind::Update) {
            Word prev = conts.top().target;
            Word ph = heap.header(prev);
            heap.setHeader(prev, mhdr::pack(ObjKind::Ind,
                                            mhdr::countOf(ph), 0,
                                            mhdr::padOf(ph)));
            heap.setPayload(prev, 0, vr);
            conts.pop();
        }
        conts.push(Frame::Kind::Update).target = addr;

        Word count = mhdr::argsOf(h);
        Word fn = mhdr::fnOf(h);

        if (kind == ObjKind::AppV) {
            Word callee = heap.payload(addr, 0);
            Frame &f = conts.push(Frame::Kind::Apply);
            for (Word i = 1; i < mhdr::countOf(h); ++i)
                f.extra.push_back(heap.payload(addr, i));
            blackhole(addr, h);
            vr = callee;
            FNEXT_NA(F_eval, EvalVal);
        }

        evalScratch.clear();
        evalScratch.reserve(count);
        for (Word i = 0; i < count; ++i)
            evalScratch.push_back(heap.payload(addr, i));
        blackhole(addr, h);

        Word arity = arityOf(fn);
        if (isConsId(fn)) {
            vr = mval::mkRef(allocErrorF(kErrArity));
            FNEXT(F_eval, EvalVal);
        }
        if (evalScratch.size() > arity) {
            Frame &f = conts.push(Frame::Kind::Apply);
            f.extra.assign(evalScratch.begin() + arity,
                           evalScratch.end());
            evalScratch.resize(arity);
        }
        if (isPrimId(fn)) {
            if (evalScratch.empty())
                FFAIL("zero-arity primitive application", EvalVal);
            Prim p = static_cast<Prim>(fn);
            // Fused all-int primitive application.
            bool allInts = p != Prim::InvokeGc;
            fastAluScratch.clear();
            if (allInts) {
                for (Word w : evalScratch) {
                    Word cw;
                    FCHASE(cw, w);
                    if (!mval::isInt(cw)) {
                        allInts = false;
                        break;
                    }
                    fastAluScratch.push_back(mval::intOf(cw));
                }
            }
            if (allInts) {
                switch (p) {
                  case Prim::GetInt:
                    // Bus handlers may read cycles(); flush the
                    // cached step counter first.
                    FSYNC();
                    vr = mval::mkInt(
                        wrapInt31(bus.getInt(fastAluScratch[0])));
                    break;
                  case Prim::PutInt:
                    FSYNC();
                    bus.putInt(fastAluScratch[0],
                               fastAluScratch[1]);
                    vr = mval::mkInt(fastAluScratch[1]);
                    break;
                  default: {
                    PrimResult r = evalAlu(p, fastAluScratch);
                    vr = r.ok ? mval::mkInt(r.value)
                              : mval::mkRef(allocErrorF(r.errCode));
                    break;
                  }
                }
                FNEXT(F_deliver, Deliver);
            }
            Frame &f = conts.push(Frame::Kind::PrimArgs);
            f.prim = p;
            f.primArgs.assign(evalScratch.begin(),
                              evalScratch.end());
            f.nextArg = 0;
            vr = f.primArgs[0];
            FNEXT_NA(F_eval, EvalVal);
        }

        size_t idx = fn - kFirstUserFuncId;
        ++callCounts[idx];
        act.funcId = fn;
        act.args.swap(evalScratch);
        act.locals.clear();
        act.pc = funcs[idx].bodyBegin;
    }
    FNEXT_NA(F_exec, Exec);

    // ------------------------------------------------------------
    // Exec: fetch and token-dispatch
    // ------------------------------------------------------------
F_exec:
    if (act.pc >= nUops) [[unlikely]]
        FFAIL("program counter ran off the image", Exec);
    u = uops + act.pc;
#ifdef ZARF_HAVE_COMPUTED_GOTO
    if (!useSwitch)
        goto *ftokTab[u->tcode];
#endif
    switch (u->tcode) {
      case kTokLetConsSat:
        goto FT_letConsSat;
      case kTokLetConsOver:
        goto FT_letConsOver;
      case kTokLetApp:
        goto FT_letApp;
      case kTokLetUnknown:
        goto FT_letUnknown;
      case kTokLetAlias:
        goto FT_letAlias;
      case kTokLetBind:
        goto FT_letBind;
      case kTokCase:
        goto FT_case;
      case kTokResult:
        goto FT_result;
      default:
        goto FT_invalid;
    }

// True when the µop after `u` is `result` of exactly the local this
// let is about to bind — the universal tail shape `let r = ...;
// result r`, where r dies at the result. Handlers use it to deliver
// the letting's value directly (and, for calls, to elide the thunk
// and update frame entirely).
#define FTAIL_RESULT()                                                \
    (u->next < nUops && uops[u->next].tcode == kTokResult &&          \
     uops[u->next].operand.src == Src::Local &&                       \
     uops[u->next].operand.payload == act.locals.size())

FT_letConsSat:
    FLET_HEAD();
    {
        Word c = mval::mkRef(allocConsF(
            u->calleeId, letScratch.data(), letScratch.size()));
        if (FTAIL_RESULT()) {
            // Fused `let r = Cons ...; result r`: a constructor is
            // already WHNF, so deliver it without the bind, the
            // refetch, and the eval step.
            ++machineStats.result.count;
            vr = c;
            FNEXT(F_deliver, Deliver);
        }
        act.locals.push_back(c);
    }
    act.pc = u->next;
    FNEXT(F_exec, Exec);

FT_letConsOver:
    FLET_HEAD();
    act.locals.push_back(mval::mkRef(allocErrorF(kErrArity)));
    act.pc = u->next;
    FNEXT(F_exec, Exec);

FT_letApp:
    FLET_HEAD();
    {
        const Word fn = u->calleeId;
        if (u->nargs == u->calleeArity) {
            if (fn >= kFirstUserFuncId) {
                if (FTAIL_RESULT()) {
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
                    FNEXT_NA(F_exec, Exec);
                }
            } else if (FTAIL_RESULT() && fn != 0 &&
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
                bool allInts = true;
                fastAluScratch.clear();
                for (Word w : letScratch) {
                    Word cw;
                    FCHASE(cw, w);
                    if (!mval::isInt(cw)) {
                        allInts = false;
                        break;
                    }
                    fastAluScratch.push_back(mval::intOf(cw));
                }
                if (allInts) {
                    switch (p) {
                      case Prim::GetInt:
                        FSYNC();
                        vr = mval::mkInt(
                            wrapInt31(bus.getInt(fastAluScratch[0])));
                        break;
                      case Prim::PutInt:
                        FSYNC();
                        bus.putInt(fastAluScratch[0],
                                   fastAluScratch[1]);
                        vr = mval::mkInt(fastAluScratch[1]);
                        break;
                      default: {
                        PrimResult r = evalAlu(p, fastAluScratch);
                        vr = r.ok
                                 ? mval::mkInt(r.value)
                                 : mval::mkRef(allocErrorF(r.errCode));
                        break;
                      }
                    }
                    FNEXT(F_deliver, Deliver);
                }
                Frame &f = conts.push(Frame::Kind::PrimArgs);
                f.prim = p;
                f.primArgs.assign(letScratch.begin(),
                                  letScratch.end());
                f.nextArg = 0;
                vr = f.primArgs[0];
                FNEXT_NA(F_eval, EvalVal);
            } else if (fn >= static_cast<Word>(Prim::Add) &&
                       fn <= static_cast<Word>(Prim::Sru)) {
                // Eager pure-ALU application: when every argument is
                // already an integer, compute now instead of
                // allocating a thunk to force later. Division-style
                // failures fall back to the lazy path so the Error
                // value (and the errorsCreated counter) appear
                // exactly when a force would have produced them.
                bool allInts = true;
                fastAluScratch.clear();
                for (Word w : letScratch) {
                    Word cw;
                    FCHASE(cw, w);
                    if (!mval::isInt(cw)) {
                        allInts = false;
                        break;
                    }
                    fastAluScratch.push_back(mval::intOf(cw));
                }
                if (allInts) {
                    PrimResult r =
                        evalAlu(static_cast<Prim>(fn), fastAluScratch);
                    if (r.ok) {
                        if (FTAIL_RESULT()) {
                            ++machineStats.result.count;
                            vr = mval::mkInt(r.value);
                            FNEXT_NA(F_deliver, Deliver);
                        }
                        act.locals.push_back(mval::mkInt(r.value));
                        act.pc = u->next;
                        FNEXT_NA(F_exec, Exec);
                    }
                }
            }
        }
        act.locals.push_back(mval::mkRef(allocAppF(
            fn, letScratch.data(), letScratch.size())));
    }
    act.pc = u->next;
    FNEXT(F_exec, Exec);

FT_letUnknown:
    FLET_HEAD();
    FFAIL("let names an unknown function identifier", Exec);

FT_letAlias:
    FLET_HEAD();
    {
        Word callee;
        FFETCH_CALLEE(callee);
        act.locals.push_back(callee);
    }
    act.pc = u->next;
    FNEXT_NA(F_exec, Exec);

FT_letBind:
    FLET_HEAD();
    {
        Word callee;
        FFETCH_CALLEE(callee);
        act.locals.push_back(bindApplyF(callee));
    }
    act.pc = u->next;
    FNEXT(F_exec, Exec);

FT_case:
    ++machineStats.caseInstr.count;
    {
        Word scrut;
        FRESOLVE(scrut, u->operand, Exec);
        Word v;
        FCHASE(v, scrut);
        bool isInt = mval::isInt(v);
        Word h = 0;
        if (!isInt)
            h = heap.header(mval::refOf(v));
        if (isInt || objIsWhnfU(h)) {
            // Fused case-of-value: match in place.
            const UPattern *pats = patterns + u->patBegin;
            for (uint32_t i = 0; i < u->patCount; ++i) {
                ++machineStats.branchHeads;
                const UPattern &pat = pats[i];
                bool match;
                if (pat.isCons) {
                    match = !isInt &&
                            mhdr::kindOf(h) == ObjKind::Cons &&
                            mhdr::fnOf(h) == pat.consId;
                } else {
                    match = isInt && mval::intOf(v) == pat.lit;
                }
                if (match) {
                    if (pat.isCons) {
                        Word caddr = mval::refOf(v);
                        Word n = mhdr::argsOf(h);
                        for (Word j = 0; j < n; ++j)
                            act.locals.push_back(
                                heap.payload(caddr, j));
                    }
                    act.pc = pat.body;
                    FNEXT_NA(F_exec, Exec);
                }
            }
            act.pc = u->elseBody;
            FNEXT_NA(F_exec, Exec);
        }
        // Unevaluated scrutinee: the generic frame path. The
        // activation moves into the frame by swap (the deliver path
        // swaps it back); the recycled vectors left behind are
        // cleared so the GC root walk never sees their stale words.
        Frame &f = conts.push(Frame::Kind::Case);
        f.act.funcId = act.funcId;
        f.act.pc = act.pc;
        f.act.args.swap(act.args);
        f.act.locals.swap(act.locals);
        act.args.clear();
        act.locals.clear();
        vr = scrut;
    }
    FNEXT_NA(F_eval, EvalVal);

FT_result:
    ++machineStats.result.count;
    {
        Word v;
        FRESOLVE(v, u->operand, Exec);
        vr = v;
        if (mval::isInt(v))
            FNEXT_NA(F_deliver, Deliver); // fused: skip the eval step
    }
    FNEXT_NA(F_eval, EvalVal);

FT_invalid:
    FFAIL(strprintf("unexpected opcode at word %zu", act.pc), Exec);

    // ------------------------------------------------------------
    // Deliver
    // ------------------------------------------------------------
F_deliver:
    if (conts.empty()) {
        mode = Mode::Deliver;
        FSYNC();
        noteStatus(MachineStatus::Done);
        status = MachineStatus::Done;
        return;
    }
    switch (conts.top().kind) {
      case Frame::Kind::Update: {
        Word tgt = conts.top().target;
        conts.pop();
        Word h = heap.header(tgt);
        heap.setHeader(tgt, mhdr::pack(ObjKind::Ind, mhdr::countOf(h),
                                       0, mhdr::padOf(h)));
        heap.setPayload(tgt, 0, vr);
        FNEXT_NA(F_deliver, Deliver);
      }
      case Frame::Kind::Case:
        std::swap(act, conts.top().act);
        conts.pop();
        goto F_resumeCase;
      case Frame::Kind::PrimArgs:
        goto F_dprim;
      case Frame::Kind::Apply:
        goto F_dapply;
    }

F_resumeCase:
    {
        const Uop &cu = uops[act.pc]; // saved at the case head
        Word v;
        FCHASE(v, vr);
        bool isInt = mval::isInt(v);
        Word h = 0;
        if (!isInt)
            h = heap.header(mval::refOf(v));
        const UPattern *pats = patterns + cu.patBegin;
        for (uint32_t i = 0; i < cu.patCount; ++i) {
            ++machineStats.branchHeads;
            const UPattern &pat = pats[i];
            bool match;
            if (pat.isCons) {
                match = !isInt &&
                        mhdr::kindOf(h) == ObjKind::Cons &&
                        mhdr::fnOf(h) == pat.consId;
            } else {
                match = isInt && mval::intOf(v) == pat.lit;
            }
            if (match) {
                if (pat.isCons) {
                    Word caddr = mval::refOf(v);
                    Word n = mhdr::argsOf(h);
                    for (Word j = 0; j < n; ++j)
                        act.locals.push_back(heap.payload(caddr, j));
                }
                act.pc = pat.body;
                FNEXT_NA(F_exec, Exec);
            }
        }
        act.pc = cu.elseBody;
    }
    FNEXT_NA(F_exec, Exec);

F_dprim:
    {
        Frame &f = conts.top();
        Word v = heap.chase(vr);
        Prim p = f.prim;

        if (mval::isRef(v)) {
            Word h = heap.header(mval::refOf(v));
            conts.pop();
            if (mhdr::kindOf(h) == ObjKind::Cons &&
                mhdr::fnOf(h) == static_cast<Word>(Prim::Error)) {
                vr = v;
                FNEXT(F_deliver, Deliver);
            }
            SWord code = (p == Prim::GetInt || p == Prim::PutInt)
                             ? kErrIoNotInt
                             : kErrBadApply;
            vr = mval::mkRef(allocErrorF(code));
            FNEXT(F_deliver, Deliver);
        }

        f.collected.push_back(mval::intOf(v));
        f.nextArg++;
        if (f.nextArg < f.primArgs.size()) {
            vr = f.primArgs[f.nextArg];
            FNEXT(F_eval, EvalVal);
        }

        conts.pop(); // slot stays readable until the next push
        switch (p) {
          case Prim::GetInt:
            // Bus handlers may read cycles(); flush the cached step
            // counter first.
            FSYNC();
            vr = mval::mkInt(wrapInt31(bus.getInt(f.collected[0])));
            break;
          case Prim::PutInt:
            FSYNC();
            bus.putInt(f.collected[0], f.collected[1]);
            vr = mval::mkInt(f.collected[1]);
            break;
          case Prim::InvokeGc:
            mode = Mode::Deliver;
            FSYNC();
            runGc(rootProviderU());
            FRELOAD();
            vr = mval::mkInt(f.collected[0]);
            break;
          default: {
            PrimResult r = evalAlu(p, f.collected);
            vr = r.ok ? mval::mkInt(r.value)
                      : mval::mkRef(allocErrorF(r.errCode));
            break;
          }
        }
    }
    FNEXT(F_deliver, Deliver);

F_dapply:
    {
        Frame &f = conts.top();
        conts.pop(); // slot storage stays valid; nothing pushes below
        Word v = heap.chase(vr);
        if (mval::isInt(v)) {
            vr = mval::mkRef(allocErrorF(kErrBadApply));
            FNEXT(F_deliver, Deliver);
        }
        Word addr = mval::refOf(v);
        Word h = heap.header(addr);
        if (mhdr::kindOf(h) == ObjKind::Cons) {
            vr = mhdr::fnOf(h) == static_cast<Word>(Prim::Error)
                     ? v
                     : mval::mkRef(allocErrorF(kErrArity));
            FNEXT(F_deliver, Deliver);
        }
        Word fn = mhdr::fnOf(h);
        Word have = mhdr::argsOf(h);
        applyScratch.clear();
        applyScratch.reserve(have + f.extra.size());
        for (Word i = 0; i < have; ++i)
            applyScratch.push_back(heap.payload(addr, i));
        applyScratch.insert(applyScratch.end(), f.extra.begin(),
                            f.extra.end());
        if (isConsId(fn) && applyScratch.size() == arityOf(fn)) {
            vr = mval::mkRef(allocConsF(fn, applyScratch.data(),
                                        applyScratch.size()));
        } else if (isConsId(fn) &&
                   applyScratch.size() > arityOf(fn)) {
            vr = mval::mkRef(allocErrorF(kErrArity));
        } else {
            vr = mval::mkRef(allocAppF(fn, applyScratch.data(),
                                       applyScratch.size()));
        }
    }
    FNEXT(F_eval, EvalVal);
}

#undef FTAIL_RESULT
#undef FSYNC
#undef FRELOAD
#undef FFAIL
#undef FNEXT
#undef FNEXT_NA
#undef FRESOLVE
#undef FCHASE
#undef FLET_HEAD
#undef FFETCH_CALLEE

} // namespace zarf
