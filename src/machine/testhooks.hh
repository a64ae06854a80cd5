/**
 * @file
 * Hidden, test-only switches of the λ-machine.
 *
 * These exist solely so the conformance fuzzer can demonstrate its
 * own detection power (mutation-kill self-tests, docs/TESTING.md):
 * each switch deliberately reintroduces a previously fixed defect,
 * and the fuzz suite asserts the differential oracle finds it within
 * a bounded number of executions. Nothing outside tests may ever set
 * one; production paths read them as constants (false).
 */

#ifndef ZARF_MACHINE_TESTHOOKS_HH
#define ZARF_MACHINE_TESTHOOKS_HH

namespace zarf::testhooks
{

/**
 * Reintroduces the PR-1 poisoned-operand defect: an out-of-range
 * argument/local slot reference silently resolves to the valid
 * tagged integer 0 instead of latching MachineStatus::Stuck, so a
 * malformed image can complete with a fabricated value. Both the
 * µop and the word-walking path are affected (as the original bug
 * was pre-fix), which is exactly why only a cross-evaluator oracle
 * — never the machine-vs-machine differential — can catch it.
 *
 * Not thread-safe against concurrent machine execution: set it
 * before fanning out a campaign and clear it after the pool has
 * drained (verify::shardMap joins before returning).
 */
extern bool poisonedOperandDefect;

/**
 * Forces the µop interpreter (under both accounting policies) to
 * dispatch through its switch flavour even when the build supports
 * computed goto, so the portable flavour — the production path on
 * compilers without the extension — is exercised by
 * `ctest -L threaded` on every platform. Read once per advance()
 * call; same thread-safety caveat as above.
 */
extern bool forceSwitchDispatch;

} // namespace zarf::testhooks

#endif // ZARF_MACHINE_TESTHOOKS_HH
