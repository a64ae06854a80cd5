/**
 * @file
 * icd_cosim: the paper's flagship system. The two-layer ICD (λ-layer
 * kernel beside the imperative monitor) runs against a scripted
 * heart — sinus, then ventricular tachycardia long enough to reach
 * detection and anti-tachycardia pacing, then sinus again — in
 * closed-loop 100 ms slices on the default Uop tier. Host time goes
 * to λ dispatch, allocation, forcing and GC, and to the mblaze step;
 * the loader, lifter and reference evaluators do no work here.
 */

#include <algorithm>
#include <memory>
#include <optional>

#include "bench.hh"
#include "ecg/synth.hh"
#include "icd/baseline.hh"
#include "icd/spec.hh"
#include "icd/zarf_icd.hh"
#include "machine/loaded_image.hh"
#include "machine/machine.hh"
#include "mblaze/cpu.hh"
#include "obs/metrics.hh"
#include "system/system.hh"

namespace zbench
{

namespace
{

using namespace zarf;

constexpr double kSliceMs = 100.0;
/** Slices the fingerprint covers: 13 simulated seconds, past VT
 *  detection (about 6 s into the episode) and the first ATP burst. */
constexpr size_t kFingerprintSlices = 130;
constexpr int kSetupReps = 31;
constexpr int kSystemProbeReps = 20;

std::vector<ecg::ScriptedHeart::Segment>
schedule()
{
    return { { 2.0, 75.0 }, { 9.0, 190.0 }, { 600.0, 75.0 } };
}

/**
 * Device rig for one core alone, fed by the same scripted heart as
 * the system. Busy: the timer is always due, so the core never idles
 * and runs its compute mix. Timed: the 5 ms timer is due by the
 * machine's own λ clock, as in TwoLayerSystem, so the kernel idles
 * between samples and runs the co-simulated instruction mix.
 */
class ProbeRig : public IoBus
{
  public:
    ProbeRig(ecg::Heart &h, const Machine *clock) : clock(clock), heart(h)
    {}
    SWord
    getInt(SWord port) override
    {
        if (port == sys::kPortTimer) {
            if (!clock)
                return 1;
            if (clock->cycles() < nextTick)
                return 0;
            nextTick += sys::kTickCycles;
            return 1;
        }
        if (port == sys::kPortEcgIn)
            return heart.nextSample();
        return 0;
    }
    void putInt(SWord, SWord) override {}

    const Machine *clock;

  private:
    ecg::Heart &heart;
    Cycles nextTick = sys::kTickCycles;
};

/** Host ns per λ instruction: Machine::advance on the kernel alone. */
double
lambdaNsPerInstr(const std::shared_ptr<const LoadedImage> &li,
                 uint64_t heartSeed, bool timed, double seconds,
                 Tracer *tr)
{
    ecg::ScriptedHeart heart(schedule(), heartSeed);
    ProbeRig rig(heart, nullptr);
    MachineConfig mc;
    mc.semispaceWords = sys::SystemConfig{}.semispaceWords;
    Machine m(li, rig, mc);
    if (timed)
        rig.clock = &m;
    uint64_t n0 = m.stats().dynamicInstructions();
    Scope s(tr, timed ? "machine.advance_probe_timed"
                      : "machine.advance_probe_busy",
            0);
    Clock::time_point t0 = Clock::now();
    double host = 0;
    while (m.status() == MachineStatus::Running && host < seconds) {
        m.advance(sys::SystemConfig{}.sliceCycles * 50);
        host = secondsBetween(t0, Clock::now());
    }
    uint64_t n = m.stats().dynamicInstructions() - n0;
    return n ? host * 1e9 / double(n) : 0;
}

/** Host ns per mblaze instruction: MbCpu::advance on the baseline
 *  imperative ICD (busy rig), or on the system's monitor with an
 *  empty channel (the polling mix it runs co-simulated). */
double
mblazeNsPerInstr(uint64_t heartSeed, bool monitor, double seconds,
                 Tracer *tr)
{
    ecg::ScriptedHeart heart(schedule(), heartSeed);
    ProbeRig busy(heart, nullptr);
    NullBus idle;
    mblaze::MbCpu cpu(monitor ? icd::monitorProgram()
                              : icd::baselineIcdProgram(),
                      monitor ? static_cast<IoBus &>(idle) : busy);
    Scope s(tr, monitor ? "mblaze.advance_probe_monitor"
                        : "mblaze.advance_probe_baseline",
            0);
    Clock::time_point t0 = Clock::now();
    double host = 0;
    while (cpu.status() == mblaze::MbStatus::Running && host < seconds) {
        cpu.advance(200'000);
        host = secondsBetween(t0, Clock::now());
    }
    uint64_t n = cpu.instructionsRetired();
    return n ? host * 1e9 / double(n) : 0;
}

uint64_t
mbInstructions(const sys::TwoLayerSystem &s)
{
    obs::Metrics m;
    s.exportMetrics(m);
    return m.counter("mb.instructions");
}

uint64_t
shockHash(const std::vector<sys::ShockEvent> &log, size_t n)
{
    uint64_t h = fnv1a(nullptr, 0);
    for (size_t k = 0; k < n && k < log.size(); ++k) {
        h = fnv1a(&log[k].lambdaCycle, sizeof(log[k].lambdaCycle), h);
        h = fnv1a(&log[k].value, sizeof(log[k].value), h);
    }
    return h;
}

/** Per-slice deltas of the public λ, mblaze and channel counters. */
struct SliceCounts
{
    double instrs = 0, allocWords = 0, forces = 0, gcRuns = 0,
           gcCycles = 0, mbInstrs = 0, mbCycles = 0, commWords = 0;
};

} // namespace

Result
runIcdCosim(const RunSpec &spec)
{
    Tracer *tr = spec.tracer;
    Result r;
    r.workload = "icd_cosim";
    r.itemName = "100 ms simulated slice";
    r.headlineName = "sim_s_per_host_s";
    r.headlineUnit = "s/s";

    // ---- Set-up: kernel build, monitor assembly, image load. ----
    std::shared_ptr<const LoadedImage> li;
    mblaze::MbProgram monitor;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        Clock::time_point t0 = Clock::now();
        Image image;
        {
            Scope s(tr, "icd.build_kernel", uint64_t(rep));
            image = icd::buildKernelImage();
        }
        {
            Scope s(tr, "icd.monitor_program", uint64_t(rep));
            monitor = icd::monitorProgram();
        }
        {
            Scope s(tr, "machine.load", uint64_t(rep));
            li = LoadedImage::load(image);
        }
        r.setupS.push_back(secondsBetween(t0, Clock::now()));
    }

    const uint64_t heartSeed = deriveSeed(spec.seed, 1);
    ecg::ScriptedHeart heart(schedule(), heartSeed);
    sys::TwoLayerSystem system(li, monitor, heart);

    // ---- Timed closed loop: one caller, 100 ms slices. ----
    const size_t minSlices = spec.fingerprint ? kFingerprintSlices : 1;
    std::vector<size_t> shocksAfter;
    shocksAfter.reserve(kReserveItems);
    r.itemMs.reserve(kReserveItems);
    std::vector<uint8_t> missedAfter;
    std::vector<uint8_t> statusOk;
    std::vector<SliceCounts> counts;
    MachineStats prevStats{};
    uint64_t prevMbInstrs = 0;
    Cycles prevMbCycles = 0;
    uint64_t prevComm = 0;
    MachineStats fpStats{};
    Cycles fpLambdaCycles = 0, fpMbCycles = 0, fpMaxIter = 0;
    uint64_t fpSamples = 0;
    size_t fpShocks = 0;
    double timed = 0;
    CpuRotor rotor;
    for (size_t slice = 0;; ++slice) {
        rotor.tick();
        Clock::time_point t0 = Clock::now();
        MachineStatus st;
        {
            Scope s(tr, "system.slice", slice);
            st = system.runForMs(kSliceMs);
        }
        double dt = secondsBetween(t0, Clock::now());
        timed += dt;
        r.itemMs.push_back(dt * 1e3);
        shocksAfter.push_back(system.shocks().size());
        missedAfter.push_back(system.deadlineMissed());
        statusOk.push_back(st == MachineStatus::Running);
        if (tr) {
            MachineStats now = system.aggregatedLambdaStats();
            uint64_t mbi = mbInstructions(system);
            SliceCounts c;
            c.instrs = double(now.dynamicInstructions() -
                              prevStats.dynamicInstructions());
            c.allocWords =
                double(now.allocatedWords - prevStats.allocatedWords);
            c.forces = double(now.forces - prevStats.forces);
            c.gcRuns = double(now.gcRuns - prevStats.gcRuns);
            c.gcCycles = double(now.gcCycles - prevStats.gcCycles);
            c.mbInstrs = double(mbi - prevMbInstrs);
            c.mbCycles = double(system.mbCycles() - prevMbCycles);
            c.commWords = double(system.commWords() - prevComm);
            counts.push_back(c);
            prevStats = now;
            prevMbInstrs = mbi;
            prevMbCycles = system.mbCycles();
            prevComm = system.commWords();
        }
        if (slice + 1 == kFingerprintSlices) {
            fpStats = system.aggregatedLambdaStats();
            fpLambdaCycles = system.lambdaCycles();
            fpMbCycles = system.mbCycles();
            fpMaxIter = system.maxIterationCycles();
            fpSamples = system.samplesRead();
            fpShocks = system.shocks().size();
        }
        if (slice + 1 >= minSlices && timed >= spec.seconds)
            break;
    }
    const size_t slices = r.itemMs.size();
    r.attempted = slices;
    r.work = double(slices) * kSliceMs / 1e3;
    r.samples.push_back({ "slices", slices });

    // ---- Checks (outside the timed region). The pacing port sees
    // the previous iteration's output: shock[0] is the initial 0 and
    // shock[k] = spec output k-1 (tests/test_system.cc). ----
    std::vector<uint8_t> sliceFailed(slices, 0);
    auto sliceOfShock = [&](size_t k) {
        return size_t(std::upper_bound(shocksAfter.begin(),
                                       shocksAfter.end(), k) -
                      shocksAfter.begin());
    };
    {
        ecg::ScriptedHeart twin(schedule(), heartSeed);
        icd::IcdSpec specModel;
        std::vector<SWord> want;
        for (uint64_t i = 0; i < system.samplesRead(); ++i)
            want.push_back(specModel.step(twin.nextSample()));
        const auto &log = system.shocks();
        if (log.empty() || log[0].value != 0) {
            r.describe("pacing log does not start with the initial 0");
            sliceFailed[0] = 1;
        }
        size_t n = log.empty() ? 0 : std::min(log.size() - 1, want.size());
        if (n + 1 < want.size()) {
            r.describe("pacing log shorter than the samples read");
            sliceFailed[slices - 1] = 1;
        }
        for (size_t k = 0; k < n; ++k) {
            if (log[k + 1].value != want[k]) {
                size_t s = std::min(sliceOfShock(k + 1), slices - 1);
                if (!sliceFailed[s])
                    r.describe("pacing output differs from IcdSpec at "
                           "iteration " + std::to_string(k));
                sliceFailed[s] = 1;
            }
        }
    }
    for (size_t s = 0; s < slices; ++s) {
        if (missedAfter[s] && !(s && missedAfter[s - 1])) {
            r.describe("deadline missed in slice " + std::to_string(s));
            sliceFailed[s] = 1;
        }
        if (!statusOk[s] && !(s && !statusOk[s - 1])) {
            r.describe("λ-layer left Running in slice " + std::to_string(s));
            sliceFailed[s] = 1;
        }
    }
    r.failed = uint64_t(
        std::count(sliceFailed.begin(), sliceFailed.end(), uint8_t(1)));

    // ---- Simulated figures and fingerprint (fixed 13 s prefix). ----
    if (spec.fingerprint) {
        uint64_t instrs = fpStats.dynamicInstructions();
        double cpi = instrs ? double(fpLambdaCycles) / double(instrs) : 0;
        r.extra.push_back({ "lambda_cpi", cpi, "cycles/instr" });
        r.extra.push_back(
            { "max_iter_cycles", double(fpMaxIter), "cycles" });
        r.extra.push_back({ "iter_budget_cycles",
                            double(sys::kTickCycles), "cycles" });
        r.fingerprint = {
            { "slices", std::to_string(kFingerprintSlices) },
            { "lambda_cycles", std::to_string(fpLambdaCycles) },
            { "lambda_instrs", std::to_string(instrs) },
            { "gc_runs", std::to_string(fpStats.gcRuns) },
            { "mblaze_cycles", std::to_string(fpMbCycles) },
            { "samples", std::to_string(fpSamples) },
            { "max_iter_cycles", std::to_string(fpMaxIter) },
            { "shock_log_hash",
              hex64(shockHash(system.shocks(), fpShocks)) },
        };
    }

    // ---- Per-layer figures (traced run). ----
    if (tr) {
        double probeS = std::max(0.2, spec.seconds / 10);
        double lamBusyNs = lambdaNsPerInstr(li, heartSeed, false, probeS, tr);
        double lamNs = lambdaNsPerInstr(li, heartSeed, true, probeS, tr);
        double mbBaseNs = mblazeNsPerInstr(heartSeed, false, probeS, tr);
        double mbNs = mblazeNsPerInstr(heartSeed, true, probeS, tr);
        auto col = [&](double SliceCounts::*f) {
            std::vector<double> v;
            for (const SliceCounts &c : counts)
                v.push_back(c.*f);
            return mean(v);
        };
        double sliceMs = mean(r.itemMs);
        double lamMs = lamNs * col(&SliceCounts::instrs) / 1e6;
        double mbMs = mbNs * col(&SliceCounts::mbInstrs) / 1e6;
        double busyMs = lamBusyNs * col(&SliceCounts::instrs) / 1e6 +
                        mbBaseNs * col(&SliceCounts::mbInstrs) / 1e6;
        // Construct, snapshot and restore, the calls every Fork
        // campaign scenario makes, at this run's last slice boundary.
        for (int k = 0; k < kSystemProbeReps; ++k) {
            std::shared_ptr<const sys::SystemSnapshot> snap;
            {
                Scope s(tr, "system.snapshot", uint64_t(k));
                snap = system.snapshot();
            }
            std::unique_ptr<ecg::Heart> h = heart.clone();
            std::optional<sys::TwoLayerSystem> fork;
            {
                Scope s(tr, "system.construct", uint64_t(k));
                fork.emplace(li, monitor, *h);
            }
            Scope s(tr, "system.restore", uint64_t(k));
            fork->restore(*snap);
        }
        auto &L = r.layer;
        L.push_back({ "system.construct_us",
                      median(tr->durationsUs("system.construct")), "us" });
        L.push_back({ "system.snapshot_us",
                      median(tr->durationsUs("system.snapshot")), "us" });
        L.push_back({ "system.restore_us",
                      median(tr->durationsUs("system.restore")), "us" });
        L.push_back({ "icd.build_kernel_s",
                      median(tr->durationsUs("icd.build_kernel")) / 1e6,
                      "s" });
        L.push_back({ "machine.load_us",
                      median(tr->durationsUs("machine.load")), "us" });
        L.push_back({ "system.slice_ms",
                      median(tr->durationsUs("system.slice")) / 1e3,
                      "ms" });
        L.push_back({ "machine.instrs", col(&SliceCounts::instrs),
                      "count/slice" });
        L.push_back({ "machine.alloc_words",
                      col(&SliceCounts::allocWords), "count/slice" });
        L.push_back({ "machine.forces", col(&SliceCounts::forces),
                      "count/slice" });
        L.push_back({ "machine.gc_runs", col(&SliceCounts::gcRuns),
                      "count/slice" });
        L.push_back({ "machine.gc_cycles", col(&SliceCounts::gcCycles),
                      "cycles/slice" });
        L.push_back({ "mblaze.instrs", col(&SliceCounts::mbInstrs),
                      "count/slice" });
        L.push_back({ "mblaze.cycles", col(&SliceCounts::mbCycles),
                      "cycles/slice" });
        L.push_back({ "system.comm_words", col(&SliceCounts::commWords),
                      "count/slice" });
        L.push_back({ "machine.ns_per_instr", lamBusyNs, "ns" });
        L.push_back({ "machine.ns_per_instr_timed", lamNs, "ns" });
        L.push_back({ "mblaze.ns_per_instr", mbBaseNs, "ns" });
        L.push_back({ "mblaze.ns_per_instr_monitor", mbNs, "ns" });
        L.push_back({ "system.lambda_attributed_ms", lamMs, "ms/slice" });
        L.push_back({ "system.mblaze_attributed_ms", mbMs, "ms/slice" });
        L.push_back({ "system.slice_mean_ms", sliceMs, "ms" });
        L.push_back({ "system.unattributed_frac",
                      sliceMs > 0 ? 1 - (lamMs + mbMs) / sliceMs : 0,
                      "fraction" });
        L.push_back({ "system.unattributed_frac_busy_probes",
                      sliceMs > 0 ? 1 - busyMs / sliceMs : 0,
                      "fraction" });
    }
    return r;
}

} // namespace zbench
