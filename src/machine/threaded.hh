/**
 * @file
 * The direct-threaded µop interpreter of the λ-machine.
 *
 * Predecoding (machine/predecode.hh) decodes each image word once and
 * resolves each µop's whole handler decision tree (kind, callee kind,
 * callee class, saturation) into a dispatch token (UTok) stored in
 * the µop. Each handler then jumps straight to the next handler — a
 * computed goto (`&&label`) where the compiler supports it, a switch
 * over the same handler labels otherwise (ZARF_HAVE_COMPUTED_GOTO,
 * feature-detected by CMake; testhooks::forceSwitchDispatch selects
 * the switch at runtime). Hot machine state (the value register, the
 * cycle counter, the instruction-class cycle bucket) lives in locals
 * across handlers instead of being reloaded from the Impl per step.
 *
 * One set of handler bodies serves two dispatch tiers (DispatchTier
 * in machine.hh), instantiated from a member function template over
 * a compile-time accounting policy:
 *
 *  - Cycle-accurate (DispatchTier::Uop, the default): the one
 *    cycle-accurate implementation of the predecoded semantics. It
 *    also runs the deep-force export of every µop-walking tier. The
 *    oracle holds it to full-ledger bit-equality with the
 *    word-walking reference machine (fuzz/oracle.hh), and
 *    tests/test_machine_threaded.cc holds its two dispatch flavours
 *    bit-identical to each other.
 *
 *  - Fast (DispatchTier::FastFunctional): the same handlers with the
 *    cycle/FSM accounting and trace hooks compiled out and
 *    outcome-preserving superinstruction fusion applied (tail calls,
 *    eager ALU, case-of-value, ...). Only the outcome — status, IO
 *    stream, exported value — is meaningful; cycles() counts fused
 *    steps. For campaign and fuzz throughput only, never for timing
 *    (docs/PERF.md).
 *
 * Everything here is internal to src/machine: the tiers are selected
 * through MachineConfig::tier and implemented by
 * Machine::Impl::advanceUop (machine/machine_impl.hh) in threaded.cc.
 * This header exists for the documentation above and compile-time
 * dispatch-capability reporting.
 */

#ifndef ZARF_MACHINE_THREADED_HH
#define ZARF_MACHINE_THREADED_HH

namespace zarf
{

/** True when the µop interpreter (both accounting policies)
 *  dispatches by computed goto in this build
 *  (testhooks::forceSwitchDispatch can still select the switch
 *  flavour at runtime); false when only the switch flavour is
 *  compiled in. */
bool threadedDispatchUsesComputedGoto();

} // namespace zarf

#endif // ZARF_MACHINE_THREADED_HH
