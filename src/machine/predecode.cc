#include "machine/predecode.hh"

#include "isa/encoding.hh"
#include "isa/prims.hh"
#include "support/logging.hh"

namespace zarf
{

namespace
{

/** Reserved 2-bit source/kind encodings (value 3) are invalid. */
bool
srcFieldValid(Word w)
{
    return ((w >> 26) & 0x3u) != 3u;
}

/** Classify a Func-kind callee id once, at decode time. */
void
classifyCallee(Word id, const std::vector<PredecodedFunc> &funcs,
               Uop &u)
{
    if (isPrimId(id)) {
        auto p = primById(id);
        if (!p) {
            u.calleeClass = UCallee::Unknown;
            return;
        }
        u.calleeClass =
            p->isConstructor ? UCallee::Cons : UCallee::Other;
        u.calleeArity = p->arity;
        return;
    }
    size_t idx = id - kFirstUserFuncId;
    if (idx >= funcs.size()) {
        u.calleeClass = UCallee::Unknown;
        return;
    }
    u.calleeClass = funcs[idx].isCons ? UCallee::Cons : UCallee::Other;
    u.calleeArity = funcs[idx].arity;
}

/** Predecode one operand, pre-tagging immediates. */
UOperand
makeOperand(const Operand &op)
{
    if (op.src == Src::Imm)
        return { Src::Imm, mval::mkInt(op.val) };
    return { op.src, static_cast<Word>(op.val) };
}

/** Resolve a let µop's direct-threaded dispatch token. Everything
 *  a let would otherwise re-branch on per execution — callee kind,
 *  callee class, saturation vs over/under-application — is static,
 *  so the handler choice is made exactly once, here. */
uint8_t
letToken(const Uop &u)
{
    if (u.calleeKind != CalleeKind::Func)
        return u.nargs == 0 ? kTokLetAlias : kTokLetBind;
    switch (u.calleeClass) {
      case UCallee::Unknown:
        return kTokLetUnknown;
      case UCallee::Cons:
        if (u.nargs == u.calleeArity)
            return kTokLetConsSat;
        if (u.nargs > u.calleeArity)
            return kTokLetConsOver;
        return kTokLetApp; // partial constructor: a thunk
      case UCallee::Other:
        return kTokLetApp;
    }
    return kTokLetUnknown;
}

} // namespace

Predecoded
predecodeImage(const Image &image,
               const std::vector<PredecodedFunc> &funcs)
{
    Predecoded out;
    out.uops.resize(image.size());

    auto fail = [&](std::string why) {
        out.ok = false;
        out.error = std::move(why);
    };

    // Per-declaration recursive descent over the body, iterative via
    // a worklist of block entry positions. Every position the
    // machine's program counter could reach is decoded exactly once;
    // `uops[pos].kind != Invalid` marks positions already done (a
    // position reached twice — e.g. two branches joining — simply
    // terminates the later walk).
    std::vector<size_t> work;
    for (const PredecodedFunc &fe : funcs) {
        const size_t begin = fe.bodyBegin;
        const size_t end = fe.bodyEnd;
        if (begin == end)
            continue; // Empty body: pc immediately runs off; the
                      // machine fails at runtime either way.
        work.clear();
        work.push_back(begin);
        while (!work.empty()) {
            size_t pos = work.back();
            work.pop_back();
            // Decode one straight-line block: lets until a case or
            // result terminator.
            for (;;) {
                if (pos >= end) {
                    fail(strprintf("instruction stream runs past the "
                                   "declaration end at word %zu",
                                   pos));
                    return out;
                }
                if (out.uops[pos].kind != UopKind::Invalid)
                    break; // joined already-decoded code
                Word w = image[pos];
                Uop u;
                switch (opOf(w)) {
                  case Op::Let: {
                    if (!srcFieldValid(w)) {
                        fail(strprintf("reserved callee-kind field "
                                       "in let at word %zu", pos));
                        return out;
                    }
                    LetWord lw = unpackLet(w);
                    if (pos + 1 + lw.nargs > end) {
                        fail(strprintf("let argument list overruns "
                                       "the declaration at word %zu",
                                       pos));
                        return out;
                    }
                    u.kind = UopKind::Let;
                    u.calleeKind = lw.kind;
                    u.calleeId = lw.id;
                    if (lw.kind == CalleeKind::Func)
                        classifyCallee(lw.id, funcs, u);
                    u.nargs = lw.nargs;
                    u.argsBegin =
                        static_cast<uint32_t>(out.operands.size());
                    for (Word i = 0; i < lw.nargs; ++i) {
                        Word aw = image[pos + 1 + i];
                        if (opOf(aw) != Op::Arg ||
                            !srcFieldValid(aw)) {
                            fail(strprintf(
                                "malformed let argument word at "
                                "word %zu", pos + 1 + i));
                            return out;
                        }
                        out.operands.push_back(
                            makeOperand(unpackOperand(aw)));
                    }
                    u.next =
                        static_cast<uint32_t>(pos + 1 + lw.nargs);
                    u.tcode = letToken(u);
                    out.uops[pos] = u;
                    pos = u.next;
                    continue;
                  }
                  case Op::Case: {
                    if (!srcFieldValid(w)) {
                        fail(strprintf("reserved source field in "
                                       "case at word %zu", pos));
                        return out;
                    }
                    u.kind = UopKind::Case;
                    u.operand = makeOperand(unpackCaseScrut(w));
                    u.patBegin =
                        static_cast<uint32_t>(out.patterns.size());
                    size_t p = pos + 1;
                    for (;;) {
                        if (p >= end) {
                            fail(strprintf("case pattern chain runs "
                                           "past the declaration at "
                                           "word %zu", p));
                            return out;
                        }
                        Word pw = image[p];
                        Op op = opOf(pw);
                        if (op == Op::PatElse) {
                            u.elseBody =
                                static_cast<uint32_t>(p + 1);
                            work.push_back(p + 1);
                            break;
                        }
                        if (op != Op::PatLit && op != Op::PatCons) {
                            fail(strprintf("malformed case pattern "
                                           "word at word %zu", p));
                            return out;
                        }
                        PatWord pat = unpackPat(pw);
                        out.patterns.push_back(
                            { pat.isCons, pat.lit, pat.consId,
                              static_cast<uint32_t>(p + 1) });
                        work.push_back(p + 1);
                        p += 1 + pat.skip;
                    }
                    u.patCount =
                        static_cast<uint32_t>(out.patterns.size()) -
                        u.patBegin;
                    u.tcode = kTokCase;
                    out.uops[pos] = u;
                    break; // block terminator
                  }
                  case Op::Result: {
                    if (!srcFieldValid(w)) {
                        fail(strprintf("reserved source field in "
                                       "result at word %zu", pos));
                        return out;
                    }
                    u.kind = UopKind::Result;
                    u.operand = makeOperand(unpackResult(w));
                    u.tcode = kTokResult;
                    out.uops[pos] = u;
                    break; // block terminator
                  }
                  default:
                    fail(strprintf("unexpected opcode at word %zu",
                                   pos));
                    return out;
                }
                break; // Case/Result: block done
            }
        }
    }
    out.ok = true;
    return out;
}

} // namespace zarf
