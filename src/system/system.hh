/**
 * @file
 * The two-layer Zarf system: the λ-execution layer (50 MHz) and the
 * imperative core (100 MHz) co-simulated against a shared device
 * rig — hardware timer, ECG front-end, pacing output, the
 * inter-layer FIFO channel, and the diagnostic channel (paper,
 * Fig. 1 and Sec. 4).
 *
 * The λ-layer is the time master: its cycle counter drives the 5 ms
 * sample timer. The imperative core runs two cycles per λ cycle.
 * The rig records pacing events with timestamps and tracks timer
 * lag, so real-time-deadline adherence (Sec. 5.2) is directly
 * observable.
 *
 * Resilience (docs/RESILIENCE.md): the system carries the
 * detection-and-recovery machinery that makes every modelled failure
 * explicit rather than a host crash —
 *
 *  - the λ->mb FIFO is bounded (SystemConfig::channelCapacity) with
 *    overflow accounting, and drop/duplicate faults are flagged by
 *    the FIFO's integrity tags;
 *  - the ECG front-end has an integrity monitor (flatline and
 *    noise-burst detectors) that raises SensorAlerts;
 *  - a hardware watchdog detects a failed λ-layer (machine status)
 *    or a hung one (no tick consumed within the timeout) and
 *    performs a bounded-blackout restart: flush the channel, reload
 *    the image, resume the λ clock from an epoch base, and replay
 *    the persisted therapy state to the monitor over the diagnostic
 *    channel. Repeated restarts back off exponentially; past
 *    watchdogMaxRestarts the system degrades to the imperative
 *    fallback detector (SystemConfig::fallbackProgram) on the same
 *    device rig;
 *  - an imperative-core fault is captured as a structured record and
 *    reported on the diagnostic response queue.
 *
 * With an empty FaultPlan and a healthy kernel none of this
 * machinery perturbs the simulation: cycles, statistics, and shock
 * logs are bit-identical to the pre-resilience system.
 */

#ifndef ZARF_SYSTEM_SYSTEM_HH
#define ZARF_SYSTEM_SYSTEM_HH

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ecg/synth.hh"
#include "fault/plan.hh"
#include "machine/loaded_image.hh"
#include "machine/machine.hh"
#include "mblaze/cpu.hh"
#include "sem/io.hh"
#include "support/random.hh"
#include "system/ports.hh"

namespace zarf::obs
{
enum class EventKind : uint8_t;
} // namespace zarf::obs

namespace zarf::verify
{
class Budget;
} // namespace zarf::verify

namespace zarf::sys
{

/**
 * The watchdog's backed-off blackout penalty: `latency << shift`,
 * saturating at `ceiling` (SystemConfig::maxBlackoutCycles). The
 * overflow test happens *before* the shift — `latency << shift` on
 * a large configured latency can exceed 2^64 and wrap Cycles to a
 * near-zero blackout, silently defeating the backoff — so the
 * result is exact below the ceiling and exactly the ceiling at or
 * above it. Exposed as a free function so the arithmetic is
 * unit-testable without engineering a 17-restart scenario.
 */
inline Cycles
watchdogBlackoutPenalty(Cycles latency, unsigned shift, Cycles ceiling)
{
    if (latency >= ceiling)
        return ceiling;
    if (shift >= 64 || latency > (ceiling >> shift))
        return ceiling;
    return latency << shift;
}

/** One recorded pacing-port write. */
struct ShockEvent
{
    Cycles lambdaCycle;
    SWord value;
};

/** One watchdog trip and the recovery it performed. */
struct WatchdogEvent
{
    Cycles atCycle = 0;      ///< λ clock at the trip.
    MachineStatus machineStatus =
        MachineStatus::Running; ///< Status that tripped it (Running
                                ///< means a hang, not a failure).
    std::string diagnostic;  ///< The failed machine's diagnostic.
    Cycles blackoutCycles = 0; ///< Backoff penalty + image reload.
    unsigned restartIndex = 0; ///< 1-based restart ordinal.
    size_t flushedChannelWords = 0; ///< In-flight words discarded.
    bool degraded = false;   ///< This trip engaged the fallback.
};

/** One ECG front-end integrity alert. */
struct SensorAlert
{
    enum class Kind
    {
        Flatline,   ///< Stuck-at / dropout: long identical run.
        NoiseBurst, ///< Repeated physiologically impossible jumps.
    };
    Kind kind;
    Cycles atCycle;
};

/** Default λ->mb FIFO depth. The clean-system worst observed depth
 *  is 1 (the monitor drains within microseconds of a push); 8 gives
 *  ample headroom while keeping overflow observable under fault
 *  injection. */
constexpr size_t kDefaultChannelCapacity = 8;

/** Co-simulation sizing and resilience knobs. */
struct SystemConfig
{
    size_t semispaceWords = 1u << 18;
    Cycles sliceCycles = 2000; ///< λ cycles per co-sim slice.

    /** λ-layer timing override (tests slow the kernel down to trip
     *  the deadline machinery). */
    TimingModel lambdaTiming{};

    /** Bounded λ->mb FIFO depth; pushes beyond it are dropped and
     *  counted (channelOverflows). */
    size_t channelCapacity = kDefaultChannelCapacity;

    /** Watchdog: detect a failed/hung λ-layer and restart it. */
    bool watchdogEnabled = true;
    /** No tick consumed for this long => the λ-layer is hung. */
    Cycles watchdogTimeoutCycles = 8 * kTickCycles; // 40 ms
    /** Blackout floor for the first restart; doubles per restart. */
    Cycles restartLatencyCycles = kTickCycles / 5; // 1 ms
    /** Restarts beyond this engage the fallback (or give up). */
    unsigned watchdogMaxRestarts = 3;
    /** Ceiling on the exponentially backed-off blackout penalty.
     *  The doubling in triggerRestart() is a left shift of
     *  restartLatencyCycles; without a ceiling a large configured
     *  latency (or a raised watchdogMaxRestarts) can shift the
     *  penalty past 2^64 and wrap Cycles to a *tiny* blackout —
     *  exactly the wrong failure mode. The penalty saturates here
     *  instead (default: one simulated second, far above any real
     *  recovery but finite). */
    Cycles maxBlackoutCycles = kLambdaHz; // 1 s
    /** Tick lag inside this window after a recovery is attributed
     *  to the blackout backlog, not a steady-state deadline miss. */
    Cycles recoveryGraceCycles = 10 * kTickCycles; // 50 ms

    /** Imperative fallback detector (icd::baselineIcdProgram); an
     *  empty program disables graceful degradation. */
    mblaze::MbProgram fallbackProgram{};

    /** Scheduled fault injections; empty by default. */
    fault::FaultPlan faultPlan{};

    /** Event sink shared by both layers and the device rig (null =
     *  tracing off). Machine events are stamped with the epoch-based
     *  λ clock, imperative-core events with mbCycles/2, so every
     *  incarnation lands on one timeline (docs/OBSERVABILITY.md).
     *  Not owned; must outlive the system. */
    obs::Recorder *trace = nullptr;
    /** Cooperative cancellation/budget token (verify/budget.hh) for
     *  the whole co-simulation. Checked between slices in runUntil()
     *  against the shared λ clock and the live machine's heap, so a
     *  trip is observed within one slice (sliceCycles) of simulated
     *  progress. The machine's own MachineConfig::budget stays null —
     *  arming it there would surface the trip as a machine failure
     *  and spuriously engage the watchdog. Deterministic trips
     *  (λ-cycles, heap) land on the same slice boundary for every
     *  cycle-accurate tier and thread count. Not owned; may be
     *  cancelled from any thread. */
    verify::Budget *budget = nullptr;
    /** Maintain the λ-machine's per-FSM-state tally (it survives
     *  watchdog restarts via aggregatedLambdaTally()). */
    bool lambdaFsmTally = false;
};

/**
 * The complete mutable state of a TwoLayerSystem at a slice boundary
 * (docs/PERF.md, "Campaign-scale execution"). Campaigns capture one
 * snapshot at the end of the fault-free prefix of a golden run and
 * fork every scenario from it instead of re-simulating the prefix.
 * Immutable once built; shareable across threads.
 *
 * The heart is NOT part of the snapshot — it is external to the
 * system (passed by reference) and must be cloned separately
 * (ecg::Heart::clone) at the same instant the snapshot is taken.
 */
struct SystemSnapshot
{
    /** Identity of the λ image the snapshot was taken over. */
    std::shared_ptr<const LoadedImage> li;

    /** λ-machine state (null only if the λ-layer was already dead). */
    std::shared_ptr<const MachineSnapshot> lambda;
    mblaze::MbState monitor;
    bool hasBaseline = false;
    mblaze::MbState baseline;

    // λ clock epoch machinery.
    Cycles machineEpoch = 0;
    Cycles degradedClock = 0;
    Cycles wedgeUntil = 0;
    bool degradedMode = false;
    bool lambdaDead = false;

    // Devices.
    Cycles nextTickDue = 0;
    uint64_t nTicks = 0;
    Cycles maxLag = 0;
    bool missedDeadline = false;
    std::deque<SWord> channel;
    std::deque<SWord> diagCmds;
    std::deque<SWord> diagResps;
    std::vector<ShockEvent> shockLog;
    uint64_t nSamples = 0;
    uint64_t nComm = 0;
    Cycles lastSampleCycle = 0;
    Cycles maxIterCycles = 0;
    size_t maxChanDepth = 0;

    // Persistent therapy state.
    SWord persistLastPace = 0;
    SWord persistEpisodes = 0;

    // Watchdog state.
    unsigned restarts = 0;
    std::vector<WatchdogEvent> wdLog;
    Cycles lastTickConsumed = 0;
    Cycles lastRecoveryAt = 0;
    Cycles steadyMaxLag = 0;
    bool missedOutsideGrace = false;

    // Sensor front-end integrity monitor.
    std::vector<SensorAlert> sensorAlertLog;
    SWord prevSample = 0;
    bool haveSample = false;
    unsigned flatRun = 0;
    unsigned jumpRun = 0;

    /** The source system's fault plan, with its cursor and RNG.
     *  restore() adopts these only when the receiver runs the same
     *  plan (round-trip fidelity); a forked system with a different
     *  plan keeps its own fresh fault context, which is exactly the
     *  state a cold run of that plan has at the end of a fault-free
     *  prefix. */
    fault::FaultPlan plan;
    size_t planCursor = 0;
    Rng faultRng;
    fault::FaultKind sensorFaultKind =
        fault::FaultKind::SensorDropout;
    Cycles sensorFaultUntil = 0;
    SWord sensorStuckValue = 0;
    uint64_t sensorNoiseAmp = 0;
    bool sensorNoiseFlip = false;
    unsigned chanDropArmed = 0;
    unsigned chanDupArmed = 0;
    uint64_t chanOverflowCount = 0;
    uint64_t chanFaultCount = 0;
    uint64_t eccCorrected = 0;
    uint64_t eccUncorrectable = 0;
    uint64_t mbMemFlipCount = 0;
    std::optional<mblaze::MbFaultInfo> monFault;

    // Retired λ incarnation counters.
    MachineStats retiredLambda{};
    FsmTally retiredTally{};
};

/** Co-simulation of the two layers plus devices. */
class TwoLayerSystem
{
  public:
    using Config = SystemConfig;

    /**
     * @param zarfImage λ-layer program (e.g. icd::buildKernelImage)
     * @param monitor imperative-layer program
     * @param heart the signal source / pacing sink
     */
    TwoLayerSystem(const Image &zarfImage,
                   const mblaze::MbProgram &monitor, ecg::Heart &heart,
                   SystemConfig config = SystemConfig());

    /** Same, from a shared load artifact: header parsing and µop
     *  predecoding are reused instead of redone, and watchdog
     *  reloads re-use it too. Bit-identical to the raw-image
     *  constructor (machine/loaded_image.hh). */
    TwoLayerSystem(std::shared_ptr<const LoadedImage> li,
                   const mblaze::MbProgram &monitor, ecg::Heart &heart,
                   SystemConfig config = SystemConfig());

    /** Advance the whole system by `ms` milliseconds of λ time.
     *  Returns the λ-machine's status (Running while degraded: the
     *  system as a whole is still alive on the fallback). */
    MachineStatus runForMs(double ms);

    /** Advance until the shared λ clock reaches `target` (absolute
     *  cycles; no-op if already there). runForMs(ms) is exactly
     *  runUntil(lambdaNow() + ms·kLambdaHz/1000) — campaigns use the
     *  absolute form so a run split at a snapshot point replays the
     *  identical slice sequence as an unsplit one. */
    MachineStatus runUntil(Cycles target);

    /**
     * Capture the complete system state at the current slice
     * boundary. The heart is not included — clone it at the same
     * instant (ecg::Heart::clone) and give each fork its own clone.
     */
    std::shared_ptr<const SystemSnapshot> snapshot() const;

    /**
     * Adopt a state captured by snapshot(). The receiver must have
     * been built from the same image with the same semispace size
     * and the same monitor/fallback programs (the latter is the
     * caller's responsibility; program identity is not checked).
     * Fault context (plan cursor + RNG) transfers only when the
     * receiver's FaultPlan equals the snapshot source's; otherwise
     * the receiver keeps its own fresh context — precisely the state
     * a cold run of its plan has after a fault-free prefix, which is
     * what makes fork-from-snapshot bit-identical to cold runs in
     * campaigns whose fault windows start after the snapshot point.
     */
    void restore(const SystemSnapshot &s);

    /** Send a diagnostic command and collect the response (runs the
     *  system a little to let the monitor answer). */
    std::optional<SWord> queryTreatments();

    /** Replay the persisted therapy state to the monitor over the
     *  diagnostic channel (watchdog recovery does this
     *  automatically; campaigns call it after detecting a count
     *  mismatch). */
    void resyncMonitor();

    // Observers (pre-resilience set; semantics unchanged).
    const std::vector<ShockEvent> &shocks() const { return shockLog; }
    const MachineStats &lambdaStats() const { return machine->stats(); }
    Cycles lambdaCycles() const { return lambdaNow(); }
    Cycles mbCycles() const { return cpu.cycles(); }
    uint64_t samplesRead() const { return nSamples; }
    uint64_t ticksConsumed() const { return nTicks; }
    /** Worst observed delay between a tick being due and the kernel
     *  consuming it, in λ cycles (deadline slack check). */
    Cycles maxTickLag() const { return maxLag; }
    /** True if any tick was consumed after the next was already due
     *  (a missed 5 ms real-time deadline). */
    bool deadlineMissed() const { return missedDeadline; }
    /** Worst λ-cycles from sample read to comm write (per-iteration
     *  compute time, excluding the timer wait). */
    Cycles maxIterationCycles() const { return maxIterCycles; }
    uint64_t commWords() const { return nComm; }

    // Resilience observers.
    unsigned watchdogRestarts() const { return restarts; }
    const std::vector<WatchdogEvent> &watchdogLog() const
    {
        return wdLog;
    }
    /** True once the fallback detector has taken over. */
    bool degraded() const { return degradedMode; }
    /** True if the λ-layer is permanently down with no fallback. */
    bool lambdaDown() const { return lambdaDead; }
    /** True once SystemConfig::budget has tripped and stopped the
     *  co-simulation (runUntil returned early). The system state is
     *  a consistent slice boundary: snapshot(), the observers, and
     *  queryTreatments() all remain usable. */
    bool budgetTripped() const { return budgetStopped; }
    const std::vector<SensorAlert> &sensorAlerts() const
    {
        return sensorAlertLog;
    }
    /** Words dropped because the bounded FIFO was full. */
    uint64_t channelOverflows() const { return chanOverflowCount; }
    /** Drop/duplicate faults flagged by the FIFO integrity tags. */
    uint64_t channelFaultsDetected() const { return chanFaultCount; }
    /** Single-bit heap SEUs corrected by the SECDED code. */
    uint64_t eccCorrectedFaults() const { return eccCorrected; }
    /** Uncorrectable memory faults surfaced as MemFault. */
    uint64_t eccUncorrectableFaults() const { return eccUncorrectable; }
    /** Raw bit flips applied to the imperative core's data memory. */
    uint64_t mbMemFlips() const { return mbMemFlipCount; }
    /** The imperative core's fault record, if it has faulted. */
    const std::optional<mblaze::MbFaultInfo> &monitorFault() const
    {
        return monFault;
    }
    /** System-persisted therapy state (the "NVRAM" the watchdog
     *  replays on recovery). */
    SWord persistedEpisodes() const { return persistEpisodes; }
    SWord persistedLastPace() const { return persistLastPace; }
    /** Worst tick lag observed outside recovery-grace windows. */
    Cycles steadyStateMaxLag() const { return steadyMaxLag; }
    /** deadlineMissed() restricted to outside grace windows. */
    bool missedDeadlineOutsideRecovery() const
    {
        return missedOutsideGrace;
    }
    /** λ clock at the most recent tick consumption. */
    Cycles lastTickConsumedAt() const { return lastTickConsumed; }
    /** Worst FIFO depth observed at push time. */
    size_t maxChannelDepth() const { return maxChanDepth; }

    // Observability.
    /** λ-machine statistics summed across every incarnation this
     *  system has run (watchdog restarts retire the dying machine's
     *  counters into the sum instead of losing them). Equals
     *  lambdaStats() until the first restart. */
    MachineStats aggregatedLambdaStats() const;
    /** Per-FSM-state tally summed across incarnations (all-zero
     *  unless SystemConfig::lambdaFsmTally). */
    FsmTally aggregatedLambdaTally() const;
    /** Export the full system metric set — aggregated λ counters,
     *  channel/watchdog/sensor/ECC counters, deadline stats, and the
     *  imperative core's cycle and instruction counts. */
    void exportMetrics(obs::Metrics &metrics) const;

  private:
    /** The devices' view of λ time. Equals the machine's own cycle
     *  counter until the first watchdog restart; afterwards the
     *  epoch base keeps the clock monotonic across machine
     *  incarnations (and across degradation, where a slice counter
     *  stands in for the dead machine). */
    Cycles
    lambdaNow() const
    {
        if (degradedMode || lambdaDead)
            return machineEpoch + degradedClock;
        return machineEpoch + machine->cycles();
    }

    /** The λ-layer's (and the fallback detector's) view of the
     *  devices. */
    class LambdaBus : public IoBus
    {
      public:
        explicit LambdaBus(TwoLayerSystem &sys) : sys(sys) {}
        SWord getInt(SWord port) override;
        void putInt(SWord port, SWord value) override;

      private:
        TwoLayerSystem &sys;
    };

    /** The imperative core's view. */
    class MbBus : public IoBus
    {
      public:
        explicit MbBus(TwoLayerSystem &sys) : sys(sys) {}
        SWord getInt(SWord port) override;
        void putInt(SWord port, SWord value) override;

      private:
        TwoLayerSystem &sys;
    };

    /** MachineConfig for a (re)started λ incarnation whose trace
     *  timestamps must begin at `epoch` on the shared clock. */
    MachineConfig lambdaConfig(Cycles epoch) const;
    /** Emit a System-category event stamped with lambdaNow(). */
    void emitSys(obs::EventKind k, int64_t a = 0, int64_t b = 0);

    SWord ecgRead();
    SWord timerRead();
    void shockWrite(SWord value);
    void commWrite(SWord value);
    void channelPush(SWord value);
    void sensorIntegrity(SWord sample, Cycles now);
    void applyDueFaults();
    void applyFault(const fault::FaultEvent &e);
    void advanceMonitor(Cycles mbCycles);
    void watchdogCheck();
    void triggerRestart(MachineStatus st);

    ecg::Heart &heart;
    Config cfg;

    LambdaBus lambdaBus{ *this };
    MbBus mbBus{ *this };
    /** Shared load artifact; watchdog reloads and snapshot identity
     *  checks reuse it (was: an owned Image copy re-parsed per
     *  incarnation). */
    std::shared_ptr<const LoadedImage> li;
    std::optional<Machine> machine;
    mblaze::MbCpu cpu; ///< The monitor; never restarted.
    std::optional<mblaze::MbCpu> baselineCpu; ///< Degraded mode.

    // λ clock epoch machinery (see lambdaNow()).
    Cycles machineEpoch = 0;
    Cycles degradedClock = 0;
    Cycles wedgeUntil = 0; ///< λ pipeline wedged until this cycle.
    bool degradedMode = false;
    bool lambdaDead = false;

    // Devices.
    Cycles nextTickDue = kTickCycles;
    uint64_t nTicks = 0;
    Cycles maxLag = 0;
    bool missedDeadline = false;
    std::deque<SWord> channel; ///< λ -> imperative FIFO (bounded).
    std::deque<SWord> diagCmds;
    std::deque<SWord> diagResps;
    std::vector<ShockEvent> shockLog;
    uint64_t nSamples = 0;
    uint64_t nComm = 0;
    Cycles lastSampleCycle = 0;
    Cycles maxIterCycles = 0;
    size_t maxChanDepth = 0;

    // Persistent therapy state (the watchdog's replay source).
    SWord persistLastPace = 0;
    SWord persistEpisodes = 0;

    // Watchdog state.
    unsigned restarts = 0;
    std::vector<WatchdogEvent> wdLog;
    Cycles lastTickConsumed = 0;
    Cycles lastRecoveryAt = 0;
    Cycles steadyMaxLag = 0;
    bool missedOutsideGrace = false;

    // Sensor front-end integrity monitor.
    std::vector<SensorAlert> sensorAlertLog;
    SWord prevSample = 0;
    bool haveSample = false;
    unsigned flatRun = 0;
    unsigned jumpRun = 0;

    // Fault injection state.
    size_t planCursor = 0;
    Rng faultRng;
    fault::FaultKind sensorFaultKind = fault::FaultKind::SensorDropout;
    Cycles sensorFaultUntil = 0;
    SWord sensorStuckValue = 0;
    uint64_t sensorNoiseAmp = 0;
    bool sensorNoiseFlip = false;
    unsigned chanDropArmed = 0;
    unsigned chanDupArmed = 0;
    uint64_t chanOverflowCount = 0;
    uint64_t chanFaultCount = 0;
    uint64_t eccCorrected = 0;
    uint64_t eccUncorrectable = 0;
    uint64_t mbMemFlipCount = 0;
    std::optional<mblaze::MbFaultInfo> monFault;

    // Observability (SystemConfig::trace / lambdaFsmTally).
    bool traceSys = false; ///< Cached trace->wants(Cat::System).
    /** Latched once SystemConfig::budget trips (BudgetTrip event is
     *  emitted exactly once). */
    bool budgetStopped = false;
    /** Counters retired from machine incarnations the watchdog has
     *  replaced; aggregatedLambdaStats() adds the live machine's. */
    MachineStats retiredLambda{};
    FsmTally retiredTally{};
};

} // namespace zarf::sys

#endif // ZARF_SYSTEM_SYSTEM_HH
