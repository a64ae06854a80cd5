#include "system/system.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "verify/budget.hh"

namespace zarf::sys
{

namespace
{

/** Sensor integrity thresholds (docs/RESILIENCE.md). A healthy
 *  synthetic ECG never repeats 40 identical samples (noiseSigma 2.0)
 *  and its steepest R-wave edge moves a few hundred units per
 *  sample, far under the jump limit. */
constexpr unsigned kFlatlineRun = 40;
constexpr SWord kJumpLimit = 800;
constexpr unsigned kJumpRun = 3;

bool
isFailureStatus(MachineStatus st)
{
    return st == MachineStatus::OutOfMemory ||
           st == MachineStatus::Stuck ||
           st == MachineStatus::HeapCorrupt ||
           st == MachineStatus::MemFault;
}

/** Field-wise FaultPlan equality (the struct has no operator==). */
bool
samePlan(const fault::FaultPlan &a, const fault::FaultPlan &b)
{
    if (a.seed != b.seed || a.heapEcc != b.heapEcc ||
        a.operandParity != b.operandParity ||
        a.events.size() != b.events.size())
        return false;
    for (size_t i = 0; i < a.events.size(); ++i) {
        const fault::FaultEvent &x = a.events[i];
        const fault::FaultEvent &y = b.events[i];
        if (x.atCycle != y.atCycle || x.kind != y.kind ||
            x.a != y.a || x.b != y.b)
            return false;
    }
    return true;
}

} // namespace

TwoLayerSystem::TwoLayerSystem(const Image &zarfImage,
                               const mblaze::MbProgram &monitor,
                               ecg::Heart &heart, Config config)
    : TwoLayerSystem(LoadedImage::load(zarfImage), monitor, heart,
                     std::move(config))
{}

TwoLayerSystem::TwoLayerSystem(std::shared_ptr<const LoadedImage> loaded,
                               const mblaze::MbProgram &monitor,
                               ecg::Heart &heart, Config config)
    : heart(heart), cfg(std::move(config)), li(std::move(loaded)),
      cpu(monitor, mbBus), faultRng(cfg.faultPlan.seed)
{
    traceSys = cfg.trace && cfg.trace->wants(obs::Cat::System);
    cpu.setTrace(cfg.trace, kMbCyclesPerLambdaCycle, 0);
    machine.emplace(li, lambdaBus, lambdaConfig(0));
}

MachineConfig
TwoLayerSystem::lambdaConfig(Cycles epoch) const
{
    MachineConfig mc;
    mc.semispaceWords = cfg.semispaceWords;
    mc.timing = cfg.lambdaTiming;
    mc.gcOnExhaustion = true;
    mc.trace = cfg.trace;
    mc.traceBias = epoch;
    mc.fsmTally = cfg.lambdaFsmTally;
    return mc;
}

void
TwoLayerSystem::emitSys(obs::EventKind k, int64_t a, int64_t b)
{
    cfg.trace->emit(k, lambdaNow(), a, b);
}

SWord
TwoLayerSystem::LambdaBus::getInt(SWord port)
{
    switch (port) {
      case kPortEcgIn:
        return sys.ecgRead();
      case kPortTimer:
        return sys.timerRead();
      default:
        return 0;
    }
}

void
TwoLayerSystem::LambdaBus::putInt(SWord port, SWord value)
{
    if (port == kPortShockOut)
        sys.shockWrite(value);
    else if (port == kPortCommOut)
        sys.commWrite(value);
}

SWord
TwoLayerSystem::MbBus::getInt(SWord port)
{
    switch (port) {
      case kMbChanStatus:
        return SWord(sys.channel.size());
      case kMbChanData: {
        if (sys.channel.empty())
            return 0;
        SWord v = sys.channel.front();
        sys.channel.pop_front();
        if (sys.traceSys)
            sys.emitSys(obs::EventKind::ChanPop, v,
                        int64_t(sys.channel.size()));
        return v;
      }
      case kMbDiagCmd: {
        if (sys.diagCmds.empty())
            return 0;
        SWord v = sys.diagCmds.front();
        sys.diagCmds.pop_front();
        return v;
      }
      default:
        return 0;
    }
}

void
TwoLayerSystem::MbBus::putInt(SWord port, SWord value)
{
    if (port == kMbDiagResp)
        sys.diagResps.push_back(value);
}

SWord
TwoLayerSystem::ecgRead()
{
    ++nSamples;
    Cycles now = lambdaNow();
    lastSampleCycle = now;
    SWord raw = heart.nextSample();
    SWord sample = raw;
    if (now < sensorFaultUntil) {
        switch (sensorFaultKind) {
          case fault::FaultKind::SensorDropout:
            sample = 0;
            break;
          case fault::FaultKind::SensorStuck:
            sample = sensorStuckValue;
            break;
          case fault::FaultKind::SensorNoise: {
            // Alternating-sign magnitudes in [amp/2, amp]:
            // consecutive deltas of at least ~amp, guaranteed past
            // the jump limit for the planned amplitudes.
            uint64_t lo = sensorNoiseAmp / 2;
            SWord mag =
                SWord(lo + faultRng.below(sensorNoiseAmp - lo + 1));
            sample = raw + (sensorNoiseFlip ? -mag : mag);
            sensorNoiseFlip = !sensorNoiseFlip;
            break;
          }
          default:
            break;
        }
    }
    sensorIntegrity(sample, now);
    return sample;
}

void
TwoLayerSystem::sensorIntegrity(SWord sample, Cycles now)
{
    if (haveSample) {
        if (sample == prevSample) {
            if (++flatRun == kFlatlineRun) {
                sensorAlertLog.push_back(
                    { SensorAlert::Kind::Flatline, now });
                if (traceSys)
                    emitSys(obs::EventKind::SensorAlert,
                            int64_t(SensorAlert::Kind::Flatline),
                            sample);
            }
        } else {
            flatRun = 0;
        }
        SWord delta = sample - prevSample;
        if (delta > kJumpLimit || delta < -kJumpLimit) {
            if (++jumpRun == kJumpRun) {
                sensorAlertLog.push_back(
                    { SensorAlert::Kind::NoiseBurst, now });
                if (traceSys)
                    emitSys(obs::EventKind::SensorAlert,
                            int64_t(SensorAlert::Kind::NoiseBurst),
                            sample);
            }
        } else {
            jumpRun = 0;
        }
    }
    prevSample = sample;
    haveSample = true;
}

SWord
TwoLayerSystem::timerRead()
{
    Cycles now = lambdaNow();
    if (now >= nextTickDue) {
        Cycles lag = now - nextTickDue;
        if (lag > maxLag)
            maxLag = lag;
        // Consumed after the *next* tick was already due: the
        // 5 ms deadline was missed.
        if (lag >= kTickCycles)
            missedDeadline = true;
        // Lag inside the post-recovery grace window is blackout
        // backlog, not a steady-state miss.
        bool inGrace = restarts > 0 &&
                       now - lastRecoveryAt < cfg.recoveryGraceCycles;
        if (!inGrace) {
            if (lag > steadyMaxLag)
                steadyMaxLag = lag;
            if (lag >= kTickCycles)
                missedOutsideGrace = true;
        }
        nextTickDue += kTickCycles;
        ++nTicks;
        lastTickConsumed = now;
        if (traceSys) {
            emitSys(obs::EventKind::TickConsumed, int64_t(lag),
                    int64_t(nTicks));
            if (lag >= kTickCycles)
                emitSys(obs::EventKind::DeadlineMiss, int64_t(lag),
                        int64_t(nTicks));
        }
        return 1;
    }
    return 0;
}

void
TwoLayerSystem::shockWrite(SWord value)
{
    shockLog.push_back({ lambdaNow(), value });
    persistLastPace = value;
    if (value == kTherapyStartMarker)
        ++persistEpisodes;
    if (traceSys)
        emitSys(obs::EventKind::Shock, value, persistEpisodes);
    heart.onShock(value);
}

void
TwoLayerSystem::commWrite(SWord value)
{
    channelPush(value);
    ++nComm;
    if (nSamples > 0) {
        Cycles it = lambdaNow() - lastSampleCycle;
        if (it > maxIterCycles)
            maxIterCycles = it;
    }
}

void
TwoLayerSystem::channelPush(SWord value)
{
    // Armed drop/dup faults hit the next word through the FIFO; the
    // hardware tags flag them, so they count as detected.
    if (chanDropArmed > 0) {
        --chanDropArmed;
        ++chanFaultCount;
        if (traceSys)
            emitSys(obs::EventKind::ChanFaultDrop, value,
                    int64_t(chanFaultCount));
        return;
    }
    unsigned copies = 1;
    if (chanDupArmed > 0) {
        --chanDupArmed;
        ++chanFaultCount;
        copies = 2;
        if (traceSys)
            emitSys(obs::EventKind::ChanFaultDup, value,
                    int64_t(chanFaultCount));
    }
    for (unsigned i = 0; i < copies; ++i) {
        if (channel.size() >= cfg.channelCapacity) {
            ++chanOverflowCount;
            if (traceSys)
                emitSys(obs::EventKind::ChanOverflow, value,
                        int64_t(channel.size()));
            continue;
        }
        channel.push_back(value);
        if (channel.size() > maxChanDepth)
            maxChanDepth = channel.size();
        if (traceSys)
            emitSys(obs::EventKind::ChanPush, value,
                    int64_t(channel.size()));
    }
}

void
TwoLayerSystem::applyDueFaults()
{
    const auto &events = cfg.faultPlan.events;
    Cycles now = lambdaNow();
    while (planCursor < events.size() &&
           events[planCursor].atCycle <= now) {
        applyFault(events[planCursor]);
        ++planCursor;
    }
}

void
TwoLayerSystem::applyFault(const fault::FaultEvent &e)
{
    using fault::FaultKind;
    bool alive = !degradedMode && !lambdaDead;
    if (traceSys)
        emitSys(obs::EventKind::FaultInjected, int64_t(e.kind),
                int64_t(e.a));
    switch (e.kind) {
      case FaultKind::HeapSeu:
        if (!alive)
            break;
        if (cfg.faultPlan.heapEcc) {
            // SECDED corrects the single-bit flip in place.
            ++eccCorrected;
        } else {
            machine->injectHeapBitFlip(size_t(e.a), unsigned(e.b));
        }
        break;
      case FaultKind::HeapSeuDouble:
        if (!alive)
            break;
        if (cfg.faultPlan.heapEcc) {
            ++eccUncorrectable;
            machine->raiseMemFault(
                "uncorrectable double-bit SEU in heap word");
        } else {
            machine->injectHeapBitFlip(size_t(e.a),
                                       unsigned(e.b & 0xff));
            machine->injectHeapBitFlip(size_t(e.a),
                                       unsigned((e.b >> 8) & 0xff));
        }
        break;
      case FaultKind::OperandSeu:
        if (!alive)
            break;
        if (cfg.faultPlan.operandParity) {
            ++eccUncorrectable;
            machine->raiseMemFault("operand parity error");
        } else {
            machine->injectOperandBitFlip(unsigned(e.b));
        }
        break;
      case FaultKind::SensorDropout:
      case FaultKind::SensorStuck:
      case FaultKind::SensorNoise:
        sensorFaultKind = e.kind;
        // Duration is in samples; one sample per 5 ms tick.
        sensorFaultUntil = lambdaNow() + Cycles(e.a) * kTickCycles;
        sensorStuckValue = prevSample;
        sensorNoiseAmp = e.b;
        sensorNoiseFlip = false;
        break;
      case FaultKind::ChanDrop:
        ++chanDropArmed;
        break;
      case FaultKind::ChanDup:
        ++chanDupArmed;
        break;
      case FaultKind::ChanOverflowBurst:
        // Junk words slam the FIFO. 7 is not a therapy marker, so
        // any that squeeze in inflate the monitor's drain work but
        // not its episode count.
        for (uint64_t i = 0; i < e.a; ++i)
            channelPush(7);
        break;
      case FaultKind::MbMemSeu: {
        // The monitor's live state sits in the first few data words
        // (kMonitorCountWord and scratch); target that region so the
        // flip can actually matter.
        size_t w = size_t(e.a % 8) % cpu.memWords();
        cpu.setMem(w, cpu.mem(w) ^ (SWord(1) << (e.b & 31u)));
        ++mbMemFlipCount;
        break;
      }
      case FaultKind::LambdaWedge:
        if (!alive)
            break;
        {
            Cycles until = lambdaNow() + Cycles(e.a);
            if (until > wedgeUntil)
                wedgeUntil = until;
        }
        break;
    }
}

void
TwoLayerSystem::advanceMonitor(Cycles mbCycles)
{
    if (monFault)
        return;
    cpu.advance(mbCycles);
    if (cpu.status() == mblaze::MbStatus::Fault) {
        monFault = cpu.faultInfo();
        if (traceSys)
            emitSys(obs::EventKind::MonitorFault,
                    int64_t(monFault->cause),
                    int64_t(monFault->pc));
        // Report the structured fault record on the diagnostic
        // response queue: marker, cause, pc, address.
        diagResps.push_back(SWord(kDiagFaultMark));
        diagResps.push_back(SWord(int(monFault->cause)));
        diagResps.push_back(SWord(monFault->pc));
        diagResps.push_back(SWord(monFault->addr));
    }
}

void
TwoLayerSystem::watchdogCheck()
{
    if (degradedMode || lambdaDead)
        return;
    MachineStatus st = machine->status();
    Cycles now = lambdaNow();
    Cycles lastAlive = std::max(lastTickConsumed, lastRecoveryAt);
    bool hung = now > lastAlive + cfg.watchdogTimeoutCycles;
    if (isFailureStatus(st) || hung)
        triggerRestart(st);
}

void
TwoLayerSystem::triggerRestart(MachineStatus st)
{
    ++restarts;
    WatchdogEvent ev;
    ev.atCycle = lambdaNow();
    ev.machineStatus = st;
    ev.diagnostic = machine->diagnostic();
    ev.restartIndex = restarts;
    ev.flushedChannelWords = channel.size();
    if (traceSys)
        emitSys(obs::EventKind::WatchdogTrip, int64_t(st),
                int64_t(restarts));
    // In-flight words are part of the failed incarnation's state.
    channel.clear();
    Cycles tripAt = ev.atCycle;

    if (restarts > cfg.watchdogMaxRestarts) {
        // The λ-layer is beyond saving: degrade to the imperative
        // fallback detector on the same device rig, or — with no
        // fallback configured — mark the λ-layer dead and keep the
        // monitor/diagnostics alive.
        Cycles blackout = watchdogBlackoutPenalty(
            cfg.restartLatencyCycles, 0, cfg.maxBlackoutCycles);
        ev.blackoutCycles = blackout;
        machineEpoch = tripAt + blackout;
        degradedClock = 0;
        wedgeUntil = 0;
        if (cfg.fallbackProgram.code.empty()) {
            lambdaDead = true;
            if (traceSys)
                emitSys(obs::EventKind::LambdaDead,
                        int64_t(restarts), 0);
        } else {
            degradedMode = true;
            baselineCpu.emplace(cfg.fallbackProgram, lambdaBus);
            baselineCpu->setTrace(cfg.trace, kMbCyclesPerLambdaCycle,
                                  machineEpoch);
            resyncMonitor();
            if (traceSys)
                emitSys(obs::EventKind::Degraded,
                        int64_t(restarts), 0);
        }
        ev.degraded = degradedMode;
    } else {
        // Bounded-blackout restart: exponential backoff penalty,
        // image reload, state replay to the monitor. The doubling
        // saturates at maxBlackoutCycles: the pre-shift overflow
        // test keeps a large restartLatencyCycles from shifting
        // past 2^64 and wrapping to a near-zero blackout.
        unsigned shift = std::min(restarts - 1, 16u);
        Cycles penalty = watchdogBlackoutPenalty(
            cfg.restartLatencyCycles, shift, cfg.maxBlackoutCycles);
        // Retire the dying incarnation's counters before the reload
        // replaces it — aggregatedLambdaStats() keeps the full
        // history where lambdaStats() alone would silently reset.
        retiredLambda.accumulate(machine->stats());
        retiredTally.accumulate(machine->fsmTally());
        Cycles newEpoch = tripAt + penalty;
        machine.emplace(li, lambdaBus, lambdaConfig(newEpoch));
        machineEpoch = newEpoch;
        wedgeUntil = 0;
        resyncMonitor();
        ev.blackoutCycles = penalty;
        if (traceSys)
            cfg.trace->emit(obs::EventKind::WatchdogRestart, newEpoch,
                            int64_t(penalty), int64_t(restarts));
        // The monitor is not restarted; it runs through the blackout
        // and processes the replay before the λ-layer resumes.
        advanceMonitor(penalty * kMbCyclesPerLambdaCycle);
    }

    lastRecoveryAt = lambdaNow();
    if (lastRecoveryAt > lastTickConsumed)
        lastTickConsumed = lastRecoveryAt;
    wdLog.push_back(std::move(ev));
}

void
TwoLayerSystem::resyncMonitor()
{
    diagCmds.push_back(kDiagCmdResync);
    diagCmds.push_back(persistEpisodes);
    if (traceSys)
        emitSys(obs::EventKind::Resync, persistEpisodes,
                persistLastPace);
}

MachineStats
TwoLayerSystem::aggregatedLambdaStats() const
{
    MachineStats s = retiredLambda;
    s.accumulate(machine->stats());
    return s;
}

FsmTally
TwoLayerSystem::aggregatedLambdaTally() const
{
    FsmTally t = retiredTally;
    t.accumulate(machine->fsmTally());
    return t;
}

void
TwoLayerSystem::exportMetrics(obs::Metrics &m) const
{
    exportStats(aggregatedLambdaStats(), m, "lambda.");
    if (cfg.lambdaFsmTally)
        exportTally(aggregatedLambdaTally(), m, "lambda.fsm");
    m.setCounter("lambda.status", uint64_t(machine->status()));
    m.setGauge("lambda.heap.used-words",
               int64_t(machine->heapUsedWords()));

    m.setCounter("system.lambda-cycles", lambdaNow());
    m.setCounter("system.ticks", nTicks);
    m.setCounter("system.samples", nSamples);
    m.setCounter("system.comm-words", nComm);
    m.setCounter("system.shocks", shockLog.size());
    m.setCounter("system.max-tick-lag", maxLag);
    m.setCounter("system.steady-max-tick-lag", steadyMaxLag);
    m.setCounter("system.deadline-missed", missedDeadline ? 1 : 0);
    m.setCounter("system.deadline-missed-outside-recovery",
                 missedOutsideGrace ? 1 : 0);
    m.setCounter("system.max-iteration-cycles", maxIterCycles);

    m.setCounter("chan.overflows", chanOverflowCount);
    m.setCounter("chan.faults-detected", chanFaultCount);
    m.setCounter("chan.max-depth", maxChanDepth);
    m.setGauge("chan.depth", int64_t(channel.size()));

    m.setCounter("watchdog.restarts", restarts);
    m.setCounter("watchdog.degraded", degradedMode ? 1 : 0);
    m.setCounter("watchdog.lambda-dead", lambdaDead ? 1 : 0);
    m.setCounter("sensor.alerts", sensorAlertLog.size());
    m.setCounter("ecc.corrected", eccCorrected);
    m.setCounter("ecc.uncorrectable", eccUncorrectable);
    m.setCounter("mb.mem-flips", mbMemFlipCount);

    m.setCounter("mb.cycles", cpu.cycles());
    m.setCounter("mb.instructions", cpu.instructionsRetired());
    m.setCounter("mb.fault", monFault ? 1 : 0);

    m.setGauge("persist.episodes", persistEpisodes);
    m.setGauge("persist.last-pace", persistLastPace);
}

MachineStatus
TwoLayerSystem::runForMs(double ms)
{
    return runUntil(lambdaNow() +
                    Cycles(ms * double(kLambdaHz) / 1000.0));
}

MachineStatus
TwoLayerSystem::runUntil(Cycles target)
{
    while (lambdaNow() < target) {
        // Budget/cancellation between slices: every slice is a
        // consistent boundary (snapshot-able, observers coherent),
        // and a slice bounds the host work between checks. The λ
        // clock is the shared epoch-based one, so deterministic
        // trips land on the same boundary whatever the dispatch
        // tier.
        if (cfg.budget) {
            // A tripped budget stays tripped: later runUntil calls
            // (queryTreatments, resync settling) return immediately
            // instead of resuming the simulation.
            if (budgetStopped)
                break;
            uint64_t heapBytes =
                (degradedMode || lambdaDead)
                    ? 0
                    : machine->heapUsedWords() * sizeof(Word);
            verify::BudgetTrip t =
                cfg.budget->check(lambdaNow(), heapBytes);
            if (t != verify::BudgetTrip::None) {
                budgetStopped = true;
                // Once-per-run event; the recorder's own category
                // mask filters it (BudgetTrip is MachineLife, not
                // System, so don't gate on the cached traceSys).
                if (cfg.trace)
                    emitSys(obs::EventKind::BudgetTrip, int64_t(t),
                            int64_t(lambdaNow()));
                break;
            }
        }
        applyDueFaults();
        if (degradedMode || lambdaDead) {
            degradedClock += cfg.sliceCycles;
            if (degradedMode)
                baselineCpu->advance(cfg.sliceCycles *
                                     kMbCyclesPerLambdaCycle);
            advanceMonitor(cfg.sliceCycles * kMbCyclesPerLambdaCycle);
            continue;
        }
        MachineStatus st;
        if (wedgeUntil > lambdaNow()) {
            // Wedged pipeline: the clock counts, nothing retires.
            machineEpoch += cfg.sliceCycles;
            st = machine->status();
        } else {
            st = machine->advance(cfg.sliceCycles);
        }
        advanceMonitor(cfg.sliceCycles * kMbCyclesPerLambdaCycle);
        if (st == MachineStatus::Done)
            break;
        if (cfg.watchdogEnabled)
            watchdogCheck();
        else if (st != MachineStatus::Running)
            break;
    }
    if (degradedMode)
        return MachineStatus::Running;
    return machine->status();
}

std::shared_ptr<const SystemSnapshot>
TwoLayerSystem::snapshot() const
{
    auto s = std::make_shared<SystemSnapshot>();
    s->li = li;
    s->lambda = machine ? machine->snapshot() : nullptr;
    cpu.save(s->monitor);
    s->hasBaseline = baselineCpu.has_value();
    if (baselineCpu)
        baselineCpu->save(s->baseline);

    s->machineEpoch = machineEpoch;
    s->degradedClock = degradedClock;
    s->wedgeUntil = wedgeUntil;
    s->degradedMode = degradedMode;
    s->lambdaDead = lambdaDead;

    s->nextTickDue = nextTickDue;
    s->nTicks = nTicks;
    s->maxLag = maxLag;
    s->missedDeadline = missedDeadline;
    s->channel = channel;
    s->diagCmds = diagCmds;
    s->diagResps = diagResps;
    s->shockLog = shockLog;
    s->nSamples = nSamples;
    s->nComm = nComm;
    s->lastSampleCycle = lastSampleCycle;
    s->maxIterCycles = maxIterCycles;
    s->maxChanDepth = maxChanDepth;

    s->persistLastPace = persistLastPace;
    s->persistEpisodes = persistEpisodes;

    s->restarts = restarts;
    s->wdLog = wdLog;
    s->lastTickConsumed = lastTickConsumed;
    s->lastRecoveryAt = lastRecoveryAt;
    s->steadyMaxLag = steadyMaxLag;
    s->missedOutsideGrace = missedOutsideGrace;

    s->sensorAlertLog = sensorAlertLog;
    s->prevSample = prevSample;
    s->haveSample = haveSample;
    s->flatRun = flatRun;
    s->jumpRun = jumpRun;

    s->plan = cfg.faultPlan;
    s->planCursor = planCursor;
    s->faultRng = faultRng;
    s->sensorFaultKind = sensorFaultKind;
    s->sensorFaultUntil = sensorFaultUntil;
    s->sensorStuckValue = sensorStuckValue;
    s->sensorNoiseAmp = sensorNoiseAmp;
    s->sensorNoiseFlip = sensorNoiseFlip;
    s->chanDropArmed = chanDropArmed;
    s->chanDupArmed = chanDupArmed;
    s->chanOverflowCount = chanOverflowCount;
    s->chanFaultCount = chanFaultCount;
    s->eccCorrected = eccCorrected;
    s->eccUncorrectable = eccUncorrectable;
    s->mbMemFlipCount = mbMemFlipCount;
    s->monFault = monFault;

    s->retiredLambda = retiredLambda;
    s->retiredTally = retiredTally;
    return s;
}

void
TwoLayerSystem::restore(const SystemSnapshot &s)
{
    if (s.lambda)
        machine->restore(*s.lambda);
    cpu.restore(s.monitor);
    if (s.hasBaseline) {
        baselineCpu.emplace(cfg.fallbackProgram, lambdaBus);
        baselineCpu->setTrace(cfg.trace, kMbCyclesPerLambdaCycle,
                              s.machineEpoch);
        baselineCpu->restore(s.baseline);
    } else {
        baselineCpu.reset();
    }

    machineEpoch = s.machineEpoch;
    degradedClock = s.degradedClock;
    wedgeUntil = s.wedgeUntil;
    degradedMode = s.degradedMode;
    lambdaDead = s.lambdaDead;

    nextTickDue = s.nextTickDue;
    nTicks = s.nTicks;
    maxLag = s.maxLag;
    missedDeadline = s.missedDeadline;
    channel = s.channel;
    diagCmds = s.diagCmds;
    diagResps = s.diagResps;
    shockLog = s.shockLog;
    nSamples = s.nSamples;
    nComm = s.nComm;
    lastSampleCycle = s.lastSampleCycle;
    maxIterCycles = s.maxIterCycles;
    maxChanDepth = s.maxChanDepth;

    persistLastPace = s.persistLastPace;
    persistEpisodes = s.persistEpisodes;

    restarts = s.restarts;
    wdLog = s.wdLog;
    lastTickConsumed = s.lastTickConsumed;
    lastRecoveryAt = s.lastRecoveryAt;
    steadyMaxLag = s.steadyMaxLag;
    missedOutsideGrace = s.missedOutsideGrace;

    sensorAlertLog = s.sensorAlertLog;
    prevSample = s.prevSample;
    haveSample = s.haveSample;
    flatRun = s.flatRun;
    jumpRun = s.jumpRun;

    // Fault-effect latches are system state: transfer always. (At a
    // fault-free snapshot point they are all defaults, so a fork
    // inherits exactly what a cold run would have.)
    sensorFaultKind = s.sensorFaultKind;
    sensorFaultUntil = s.sensorFaultUntil;
    sensorStuckValue = s.sensorStuckValue;
    sensorNoiseAmp = s.sensorNoiseAmp;
    sensorNoiseFlip = s.sensorNoiseFlip;
    chanDropArmed = s.chanDropArmed;
    chanDupArmed = s.chanDupArmed;
    chanOverflowCount = s.chanOverflowCount;
    chanFaultCount = s.chanFaultCount;
    eccCorrected = s.eccCorrected;
    eccUncorrectable = s.eccUncorrectable;
    mbMemFlipCount = s.mbMemFlipCount;
    monFault = s.monFault;

    // Fault *context* (which events have fired, the noise RNG)
    // transfers only to a receiver running the identical plan; a
    // fork with its own plan keeps its fresh cursor and RNG — the
    // state a cold run of that plan has after a fault-free prefix.
    if (samePlan(cfg.faultPlan, s.plan)) {
        planCursor = s.planCursor;
        faultRng = s.faultRng;
    }

    retiredLambda = s.retiredLambda;
    retiredTally = s.retiredTally;
}

std::optional<SWord>
TwoLayerSystem::queryTreatments()
{
    if (monFault)
        return std::nullopt;
    diagCmds.push_back(kDiagCmdReport);
    // Give the monitor a few milliseconds to notice and answer.
    for (int i = 0; i < 10 && diagResps.empty(); ++i)
        runForMs(1.0);
    if (diagResps.empty())
        return std::nullopt;
    SWord v = diagResps.front();
    diagResps.pop_front();
    return v;
}

} // namespace zarf::sys
