#include "fault/campaign.hh"

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "ecg/synth.hh"
#include "icd/baseline.hh"
#include "icd/zarf_icd.hh"
#include "machine/loaded_image.hh"
#include "obs/metrics.hh"
#include "support/logging.hh"
#include "system/system.hh"
#include "verify/journal.hh"
#include "verify/parallel.hh"
#include "verify/quarantine.hh"

namespace zarf::fault
{

namespace
{

/** Fixed heart seeds: every scenario of a flavor shares the clean
 *  rhythm, so one golden run per flavor serves the whole campaign. */
constexpr uint64_t kSinusHeartSeed = 42;
constexpr uint64_t kVtHeartSeed = 5;

/** VT onset for the episode flavor; the sweep window then spans
 *  detection and therapy delivery. */
constexpr double kVtOnsetSeconds = 1.0;

/** Injection windows in λ cycles. Sinus: [0.3 s, 1.5 s) of a 2 s
 *  run; VT: [1.5 s, 7.5 s) of a 9 s run — across VT onset,
 *  detection, and the ATP burst (therapy starts near 7 s), where a
 *  fault can do the most damage. */
constexpr FaultWindow kSinusWindow{ 15'000'000, 75'000'000 };
constexpr FaultWindow kVtWindow{ 75'000'000, 375'000'000 };

std::unique_ptr<ecg::Heart>
makeHeart(bool vtFlavor)
{
    if (vtFlavor)
        return std::make_unique<ecg::ResponsiveHeart>(
            kVtOnsetSeconds, 75.0, 190.0, 8, kVtHeartSeed);
    return std::make_unique<ecg::ScriptedHeart>(
        std::vector<ecg::ScriptedHeart::Segment>{ { 600.0, 75.0 } },
        kSinusHeartSeed);
}

/** The fault-free reference output for one rhythm flavor, plus —
 *  when built for the Shared/Fork strategies — the warm state the
 *  Fork strategy resumes scenarios from. */
struct Golden
{
    std::vector<sys::ShockEvent> shocks;
    /** System state at the first slice boundary at/after the fault
     *  window's begin; null when the run ends before the window
     *  opens, or when the golden was built for the Cold strategy. */
    std::shared_ptr<const sys::SystemSnapshot> warm;
    /** The heart at the same instant; scenarios clone it again so
     *  each fork owns a private, mid-stream heart. */
    std::shared_ptr<const ecg::Heart> warmHeart;
    /** Absolute λ-cycle the run ends at. */
    Cycles finalTarget = 0;
};

/** The λ-cycle target runForMs(seconds · 1000) computes from cycle
 *  0 — the same floating-point expression, so a run split at a
 *  snapshot point and an unsplit run land on the same cycle. */
Cycles
targetFor(double seconds)
{
    return Cycles(seconds * 1000.0 * double(sys::kLambdaHz) /
                  1000.0);
}

/** Fault-free reference, Cold strategy: the original path, kept
 *  verbatim as the differential baseline. */
Golden
goldenRun(const Image &image, const mblaze::MbProgram &monitor,
          const mblaze::MbProgram &fallback, bool vtFlavor,
          const CampaignConfig &ccfg)
{
    auto heart = makeHeart(vtFlavor);
    sys::SystemConfig scfg;
    scfg.fallbackProgram = fallback;
    sys::TwoLayerSystem system(image, monitor, *heart, scfg);
    double seconds = vtFlavor ? ccfg.vtSeconds : ccfg.sinusSeconds;
    system.runForMs(seconds * 1000.0);
    Golden g;
    g.shocks = system.shocks();
    return g;
}

/** Fault-free reference over the shared LoadedImage, capturing warm
 *  fork state at the fault window's start. Splitting the run at a
 *  slice boundary replays the identical slice sequence, so the
 *  shock log matches goldenRun() bit for bit. */
Golden
goldenRunWarm(std::shared_ptr<const LoadedImage> li,
              const mblaze::MbProgram &monitor,
              const mblaze::MbProgram &fallback, bool vtFlavor,
              double seconds)
{
    auto heart = makeHeart(vtFlavor);
    sys::SystemConfig scfg;
    scfg.fallbackProgram = fallback;
    sys::TwoLayerSystem system(li, monitor, *heart, scfg);
    Golden g;
    g.finalTarget = targetFor(seconds);
    Cycles windowBegin =
        (vtFlavor ? kVtWindow : kSinusWindow).begin;
    if (windowBegin < g.finalTarget) {
        system.runUntil(windowBegin);
        if (std::shared_ptr<const ecg::Heart> h = heart->clone()) {
            g.warm = system.snapshot();
            g.warmHeart = std::move(h);
        }
    }
    system.runUntil(g.finalTarget);
    g.shocks = system.shocks();
    return g;
}

uint64_t
fnv1a(uint64_t h, const void *data, size_t len)
{
    const unsigned char *p =
        static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Content hash of everything a golden run reads. Hashes MbProgram
 *  instructions field-wise (no struct padding). */
uint64_t
goldenKey(const Image &image, const mblaze::MbProgram &monitor,
          const mblaze::MbProgram &fallback, bool vtFlavor,
          double seconds)
{
    uint64_t h = 0xcbf29ce484222325ull;
    h = fnv1a(h, image.data(), image.size() * sizeof(Word));
    auto mixProgram = [&h](const mblaze::MbProgram &p) {
        for (const mblaze::Instr &in : p.code) {
            uint32_t packed[2] = {
                (uint32_t(in.opc) << 24) | (uint32_t(in.rd) << 16) |
                    (uint32_t(in.ra) << 8) | uint32_t(in.rb),
                uint32_t(in.imm),
            };
            h = fnv1a(h, packed, sizeof(packed));
        }
        h = fnv1a(h, "|", 1);
    };
    mixProgram(monitor);
    mixProgram(fallback);
    unsigned char vt = vtFlavor ? 1 : 0;
    h = fnv1a(h, &vt, 1);
    h = fnv1a(h, &seconds, sizeof(seconds));
    return h;
}

/**
 * Process-wide golden cache. Bench sweeps call runCampaign many
 * times with only the seed base varying; goldens are fault-free and
 * so seed-independent, which makes them shareable across runs of
 * the same (image, monitor, fallback, flavor, seconds). The Cold
 * strategy bypasses this entirely. A concurrent miss may compute
 * the golden twice; both computations are deterministic and
 * identical, and the first insert wins.
 */
std::shared_ptr<const Golden>
cachedGolden(std::shared_ptr<const LoadedImage> li,
             const mblaze::MbProgram &monitor,
             const mblaze::MbProgram &fallback, bool vtFlavor,
             double seconds)
{
    static std::mutex mu;
    static std::map<uint64_t, std::shared_ptr<const Golden>> cache;
    uint64_t key =
        goldenKey(li->image, monitor, fallback, vtFlavor, seconds);
    {
        std::lock_guard lk(mu);
        auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
    }
    auto g = std::make_shared<const Golden>(
        goldenRunWarm(std::move(li), monitor, fallback, vtFlavor,
                      seconds));
    std::lock_guard lk(mu);
    return cache.emplace(key, std::move(g)).first->second;
}

ScenarioResult
runScenario(const Image &image,
            const std::shared_ptr<const LoadedImage> &li,
            const mblaze::MbProgram &monitor,
            const mblaze::MbProgram &fallback, const Golden &golden,
            size_t index, uint64_t seed, const CampaignConfig &ccfg,
            verify::Budget *budget)
{
    ScenarioResult r;
    r.index = index;
    r.seed = seed;
    // The scenario space cycles through kind, then rhythm flavor,
    // then protection model, with period 44.
    r.kind = FaultKind(index % kNumFaultKinds);
    r.vtFlavor = (index / kNumFaultKinds) % 2 == 1;
    r.protectedMemory = (index / (2 * kNumFaultKinds)) % 2 == 0;

    FaultPlan plan = singleKindPlan(
        r.kind, seed, r.vtFlavor ? kVtWindow : kSinusWindow, 1);
    plan.heapEcc = r.protectedMemory;
    plan.operandParity = r.protectedMemory;

    sys::SystemConfig scfg;
    scfg.fallbackProgram = fallback;
    scfg.faultPlan = std::move(plan);
    scfg.budget = budget;
    double seconds = r.vtFlavor ? ccfg.vtSeconds : ccfg.sinusSeconds;

    std::unique_ptr<ecg::Heart> heart;
    std::optional<sys::TwoLayerSystem> holder;
    if (ccfg.strategy == LoadStrategy::Cold || !li) {
        heart = makeHeart(r.vtFlavor);
        holder.emplace(image, monitor, *heart, scfg);
        holder->runForMs(seconds * 1000.0);
    } else if (ccfg.strategy == LoadStrategy::Fork && golden.warm) {
        // Fork: resume from the golden run's warm state at the
        // fault window's start. Sound because every plan event sits
        // at/after the window's begin and the fault RNG is untouched
        // until a fault is active, so the warm state is exactly what
        // a cold run reaches at that slice boundary; restore() keeps
        // this scenario's own fault context since its plan differs
        // from the (empty) golden plan.
        heart = golden.warmHeart->clone();
        holder.emplace(li, monitor, *heart, scfg);
        holder->restore(*golden.warm);
        holder->runUntil(golden.finalTarget);
    } else {
        heart = makeHeart(r.vtFlavor);
        holder.emplace(li, monitor, *heart, scfg);
        holder->runUntil(golden.finalTarget);
    }
    sys::TwoLayerSystem &system = *holder;

    // Output integrity: bit-diff of the pacing log (timestamps and
    // values) against the fault-free golden run.
    {
        const auto &log = system.shocks();
        r.shockEvents = log.size();
        r.outputMatchesGolden = log.size() == golden.shocks.size();
        if (r.outputMatchesGolden) {
            for (size_t k = 0; k < log.size(); ++k) {
                if (log[k].lambdaCycle !=
                        golden.shocks[k].lambdaCycle ||
                    log[k].value != golden.shocks[k].value) {
                    r.outputMatchesGolden = false;
                    break;
                }
            }
        }
    }

    r.restarts = system.watchdogRestarts();
    r.degraded = system.degraded();
    r.lambdaDown = system.lambdaDown();
    r.missedDeadline = system.missedDeadlineOutsideRecovery();
    r.eccCorrected = system.eccCorrectedFaults();
    r.eccUncorrectable = system.eccUncorrectableFaults();
    r.chanOverflows = system.channelOverflows();
    r.chanFaults = system.channelFaultsDetected();
    r.sensorAlerts = system.sensorAlerts().size();
    r.episodes = system.persistedEpisodes();

    // Cross-check the monitor's episode count against the system's
    // persisted count; a disagreement means an undetected flip got
    // into one of them — detect it here and repair by state replay.
    auto q = system.queryTreatments();
    r.monitorFaulted = system.monitorFault().has_value();
    if (q.has_value() && *q != system.persistedEpisodes()) {
        r.countMismatch = true;
        system.resyncMonitor();
        system.runForMs(5.0);
        auto again = system.queryTreatments();
        r.resyncRepaired = again.has_value() &&
                           *again == system.persistedEpisodes();
    }

    r.detected = r.restarts > 0 || r.eccCorrected > 0 ||
                 r.eccUncorrectable > 0 || r.chanFaults > 0 ||
                 r.chanOverflows > 0 || r.sensorAlerts > 0 ||
                 r.monitorFaulted || r.countMismatch;

    bool missed = r.missedDeadline || r.lambdaDown;
    if (missed)
        r.outcome = Outcome::MissedDeadline;
    else if (!r.outputMatchesGolden && !r.detected)
        r.outcome = Outcome::SilentCorruption;
    else if (r.detected)
        r.outcome = Outcome::DetectedRecovered;
    else
        r.outcome = Outcome::Masked;

    // A tripped budget overrides the classification: the run was cut
    // short, so the bit-diff and detector observations above are
    // partial — recorded, but not a verdict.
    if (budget) {
        verify::BudgetTrip t = budget->tripped();
        if (t != verify::BudgetTrip::None) {
            r.budgetTrip = uint8_t(t);
            r.outcome = Outcome::BudgetExceeded;
        }
    }
    return r;
}

/** Quarantine descriptor for a scenario whose budget tripped
 *  terminally: enough to re-derive and replay the scenario by hand
 *  (the campaign's inputs are (index, seed) — there is no input
 *  file to capture). */
std::string
scenarioDescriptor(const ScenarioResult &r)
{
    return strprintf("zarf campaign scenario\n"
                     "index %llu\nseed %llu\nkind %s\nvt %d\n"
                     "protected %d\n",
                     (unsigned long long)r.index,
                     (unsigned long long)r.seed,
                     faultKindName(r.kind), int(r.vtFlavor),
                     int(r.protectedMemory));
}

/** Structured verdict sidecar for a quarantined scenario. */
std::string
scenarioVerdict(const ScenarioResult &r)
{
    return strprintf("{ \"type\": \"campaign-scenario\", "
                     "\"index\": %llu, \"seed\": %llu, "
                     "\"kind\": \"%s\", \"vt\": %d, "
                     "\"protected\": %d, \"trip\": \"%s\", "
                     "\"attempts\": %u }\n",
                     (unsigned long long)r.index,
                     (unsigned long long)r.seed,
                     faultKindName(r.kind), int(r.vtFlavor),
                     int(r.protectedMemory),
                     verify::budgetTripName(
                         verify::BudgetTrip(r.budgetTrip)),
                     r.attempts);
}

} // namespace

const char *
outcomeName(Outcome o)
{
    switch (o) {
      case Outcome::Masked:
        return "masked";
      case Outcome::DetectedRecovered:
        return "detected-recovered";
      case Outcome::MissedDeadline:
        return "missed-deadline";
      case Outcome::SilentCorruption:
        return "silent-corruption";
      case Outcome::BudgetExceeded:
        return "budget-exceeded";
    }
    return "?";
}

size_t
CampaignReport::count(Outcome o) const
{
    size_t n = 0;
    for (const ScenarioResult &r : results)
        n += r.outcome == o ? 1 : 0;
    return n;
}

size_t
CampaignReport::protectedSilentCorruptions() const
{
    size_t n = 0;
    for (const ScenarioResult &r : results)
        n += (r.protectedMemory &&
              r.outcome == Outcome::SilentCorruption)
                 ? 1
                 : 0;
    return n;
}

std::string
CampaignReport::toJson() const
{
    std::string s;
    s += "{\n";
    s += strprintf("  \"scenarios\": %llu,\n",
                   (unsigned long long)results.size());
    s += strprintf("  \"seedBase\": %llu,\n",
                   (unsigned long long)config.seedBase);
    s += "  \"outcomes\": {";
    for (size_t o = 0; o < kNumOutcomes; ++o) {
        s += strprintf("%s\"%s\": %llu", o ? ", " : " ",
                       outcomeName(Outcome(o)),
                       (unsigned long long)count(Outcome(o)));
    }
    s += " },\n";
    s += strprintf("  \"protectedSilentCorruptions\": %llu,\n",
                   (unsigned long long)protectedSilentCorruptions());

    // Outcome counts per fault kind, in kind order.
    s += "  \"byKind\": [\n";
    for (size_t k = 0; k < kNumFaultKinds; ++k) {
        size_t per[kNumOutcomes] = {};
        for (const ScenarioResult &r : results)
            if (r.kind == FaultKind(k))
                ++per[size_t(r.outcome)];
        s += strprintf("    { \"kind\": \"%s\"",
                       faultKindName(FaultKind(k)));
        for (size_t o = 0; o < kNumOutcomes; ++o)
            s += strprintf(", \"%s\": %llu",
                           outcomeName(Outcome(o)),
                           (unsigned long long)per[o]);
        s += k + 1 < kNumFaultKinds ? " },\n" : " }\n";
    }
    s += "  ],\n";

    s += "  \"results\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const ScenarioResult &r = results[i];
        s += strprintf(
            "    { \"index\": %llu, \"seed\": %llu, "
            "\"kind\": \"%s\", \"vt\": %d, \"protected\": %d, "
            "\"outcome\": \"%s\", \"outputMatch\": %d, "
            "\"detected\": %d, \"restarts\": %u, \"degraded\": %d, "
            "\"lambdaDown\": %d, \"monitorFault\": %d, "
            "\"countMismatch\": %d, \"resyncRepaired\": %d, "
            "\"missedDeadline\": %d, \"eccCorrected\": %llu, "
            "\"eccUncorrectable\": %llu, \"chanOverflows\": %llu, "
            "\"chanFaults\": %llu, \"sensorAlerts\": %llu, "
            "\"episodes\": %lld, \"shockEvents\": %llu, "
            "\"budgetTrip\": %u, \"attempts\": %u, "
            "\"quarantined\": %d }%s\n",
            (unsigned long long)r.index, (unsigned long long)r.seed,
            faultKindName(r.kind), int(r.vtFlavor),
            int(r.protectedMemory), outcomeName(r.outcome),
            int(r.outputMatchesGolden), int(r.detected), r.restarts,
            int(r.degraded), int(r.lambdaDown), int(r.monitorFaulted),
            int(r.countMismatch), int(r.resyncRepaired),
            int(r.missedDeadline),
            (unsigned long long)r.eccCorrected,
            (unsigned long long)r.eccUncorrectable,
            (unsigned long long)r.chanOverflows,
            (unsigned long long)r.chanFaults,
            (unsigned long long)r.sensorAlerts,
            (long long)r.episodes,
            (unsigned long long)r.shockEvents,
            unsigned(r.budgetTrip), r.attempts, int(r.quarantined),
            i + 1 < results.size() ? "," : "");
    }
    s += "  ]\n";
    s += "}\n";
    return s;
}

std::string
CampaignReport::metricsJson() const
{
    obs::Metrics m;
    m.setCounter("campaign.scenarios", results.size());
    m.setCounter("campaign.seed-base", config.seedBase);
    m.setCounter("campaign.protected-silent-corruptions",
                 protectedSilentCorruptions());
    for (size_t o = 0; o < kNumOutcomes; ++o)
        m.setCounter(std::string("campaign.outcome.") +
                         outcomeName(Outcome(o)),
                     count(Outcome(o)));

    uint64_t restarts = 0, degraded = 0, lambdaDown = 0;
    uint64_t monFaults = 0, mismatches = 0, repaired = 0, missed = 0;
    uint64_t ecc = 0, eccU = 0, overflows = 0, chanFaults = 0;
    uint64_t alerts = 0, shocks = 0;
    for (const ScenarioResult &r : results) {
        restarts += r.restarts;
        degraded += r.degraded ? 1 : 0;
        lambdaDown += r.lambdaDown ? 1 : 0;
        monFaults += r.monitorFaulted ? 1 : 0;
        mismatches += r.countMismatch ? 1 : 0;
        repaired += r.resyncRepaired ? 1 : 0;
        missed += r.missedDeadline ? 1 : 0;
        ecc += r.eccCorrected;
        eccU += r.eccUncorrectable;
        overflows += r.chanOverflows;
        chanFaults += r.chanFaults;
        alerts += r.sensorAlerts;
        shocks += r.shockEvents;
    }
    m.setCounter("campaign.watchdog-restarts", restarts);
    m.setCounter("campaign.degraded", degraded);
    m.setCounter("campaign.lambda-down", lambdaDown);
    m.setCounter("campaign.monitor-faults", monFaults);
    m.setCounter("campaign.count-mismatches", mismatches);
    m.setCounter("campaign.resync-repaired", repaired);
    m.setCounter("campaign.missed-deadlines", missed);
    m.setCounter("campaign.ecc-corrected", ecc);
    m.setCounter("campaign.ecc-uncorrectable", eccU);
    m.setCounter("campaign.chan-overflows", overflows);
    m.setCounter("campaign.chan-faults", chanFaults);
    m.setCounter("campaign.sensor-alerts", alerts);
    m.setCounter("campaign.shock-events", shocks);

    uint64_t retries = 0, quarantined = 0;
    for (const ScenarioResult &r : results) {
        retries += r.attempts > 1 ? r.attempts - 1 : 0;
        quarantined += r.quarantined ? 1 : 0;
    }
    m.setCounter("campaign.retries", retries);
    m.setCounter("campaign.quarantined", quarantined);

    // One histogram per outcome, bucketed by fault kind (kind order).
    for (size_t o = 0; o < kNumOutcomes; ++o) {
        std::string hist =
            std::string("campaign.by-kind.") + outcomeName(Outcome(o));
        for (size_t k = 0; k < kNumFaultKinds; ++k) {
            uint64_t n = 0;
            for (const ScenarioResult &r : results)
                if (r.kind == FaultKind(k) &&
                    r.outcome == Outcome(o))
                    ++n;
            m.addBucket(hist, faultKindName(FaultKind(k)), n);
        }
    }
    return m.toJson();
}

// ----------------------------------------------------------------
// Journal codec. Field-by-field little-endian u64s (no struct
// memcpy/padding); a leading format-version word lets the decoder
// reject records written by a different encoder.
// ----------------------------------------------------------------

namespace
{
/** Bump when the record layout changes; old journals then decode to
 *  nothing instead of to garbage. */
constexpr uint64_t kRecordVersion = 1;
/** Version word + 25 payload fields. */
constexpr size_t kRecordWords = 26;
} // namespace

std::string
campaignFingerprint(const CampaignConfig &cfg)
{
    std::string s = "zarf-campaign-v1";
    verify::journalPutU64(s, kRecordVersion);
    verify::journalPutU64(s, cfg.scenarios);
    verify::journalPutU64(s, cfg.seedBase);
    uint64_t sinusBits, vtBits;
    static_assert(sizeof(double) == sizeof(uint64_t));
    std::memcpy(&sinusBits, &cfg.sinusSeconds, sizeof(sinusBits));
    std::memcpy(&vtBits, &cfg.vtSeconds, sizeof(vtBits));
    verify::journalPutU64(s, sinusBits);
    verify::journalPutU64(s, vtBits);
    return s;
}

std::string
encodeScenarioRecord(const ScenarioResult &r)
{
    std::string s;
    s.reserve(kRecordWords * 8);
    verify::journalPutU64(s, kRecordVersion);
    verify::journalPutU64(s, r.index);
    verify::journalPutU64(s, r.seed);
    verify::journalPutU64(s, uint64_t(r.kind));
    verify::journalPutU64(s, r.vtFlavor);
    verify::journalPutU64(s, r.protectedMemory);
    verify::journalPutU64(s, uint64_t(r.outcome));
    verify::journalPutU64(s, r.outputMatchesGolden);
    verify::journalPutU64(s, r.detected);
    verify::journalPutU64(s, r.restarts);
    verify::journalPutU64(s, r.degraded);
    verify::journalPutU64(s, r.lambdaDown);
    verify::journalPutU64(s, r.monitorFaulted);
    verify::journalPutU64(s, r.countMismatch);
    verify::journalPutU64(s, r.resyncRepaired);
    verify::journalPutU64(s, r.missedDeadline);
    verify::journalPutU64(s, r.eccCorrected);
    verify::journalPutU64(s, r.eccUncorrectable);
    verify::journalPutU64(s, r.chanOverflows);
    verify::journalPutU64(s, r.chanFaults);
    verify::journalPutU64(s, r.sensorAlerts);
    verify::journalPutU64(s, uint64_t(r.episodes));
    verify::journalPutU64(s, r.shockEvents);
    verify::journalPutU64(s, r.budgetTrip);
    verify::journalPutU64(s, r.attempts);
    verify::journalPutU64(s, r.quarantined);
    return s;
}

bool
decodeScenarioRecord(const std::string &rec, ScenarioResult &out)
{
    if (rec.size() != kRecordWords * 8)
        return false;
    size_t off = 0;
    uint64_t v[kRecordWords];
    for (size_t i = 0; i < kRecordWords; ++i)
        if (!verify::journalGetU64(rec, off, v[i]))
            return false;
    if (v[0] != kRecordVersion)
        return false;
    ScenarioResult r;
    r.index = size_t(v[1]);
    r.seed = v[2];
    if (v[3] >= kNumFaultKinds)
        return false;
    r.kind = FaultKind(v[3]);
    r.vtFlavor = v[4] != 0;
    r.protectedMemory = v[5] != 0;
    if (v[6] >= kNumOutcomes)
        return false;
    r.outcome = Outcome(v[6]);
    r.outputMatchesGolden = v[7] != 0;
    r.detected = v[8] != 0;
    r.restarts = unsigned(v[9]);
    r.degraded = v[10] != 0;
    r.lambdaDown = v[11] != 0;
    r.monitorFaulted = v[12] != 0;
    r.countMismatch = v[13] != 0;
    r.resyncRepaired = v[14] != 0;
    r.missedDeadline = v[15] != 0;
    r.eccCorrected = v[16];
    r.eccUncorrectable = v[17];
    r.chanOverflows = v[18];
    r.chanFaults = v[19];
    r.sensorAlerts = v[20];
    r.episodes = int64_t(v[21]);
    r.shockEvents = v[22];
    r.budgetTrip = uint8_t(v[23]);
    r.attempts = unsigned(v[24]);
    r.quarantined = v[25] != 0;
    out = r;
    return true;
}

CampaignReport
runCampaign(const CampaignConfig &cfg)
{
    const Image image = icd::buildKernelImage();
    const mblaze::MbProgram monitor = icd::monitorProgram();
    const mblaze::MbProgram fallback = icd::baselineIcdProgram();

    const bool cold = cfg.strategy == LoadStrategy::Cold;
    const std::shared_ptr<const LoadedImage> li =
        cold ? nullptr : LoadedImage::load(image);

    // Scenario indices 11..21 (mod 44) are the VT flavor; skip its
    // golden when a tiny campaign never reaches them.
    const bool anyVt = cfg.scenarios > kNumFaultKinds;
    std::shared_ptr<const Golden> goldenSinus, goldenVt;
    if (cold) {
        goldenSinus = std::make_shared<const Golden>(
            goldenRun(image, monitor, fallback, false, cfg));
        if (anyVt)
            goldenVt = std::make_shared<const Golden>(
                goldenRun(image, monitor, fallback, true, cfg));
    } else {
        goldenSinus = cachedGolden(li, monitor, fallback, false,
                                   cfg.sinusSeconds);
        if (anyVt)
            goldenVt = cachedGolden(li, monitor, fallback, true,
                                    cfg.vtSeconds);
    }
    if (!goldenVt)
        goldenVt = std::make_shared<const Golden>();

    // ---- Resume: adopt journaled verdicts verbatim. ----
    std::map<size_t, ScenarioResult> journaled;
    bool resumeUsable = false;
    uint64_t resumeIntactBytes = 0;
    if (!cfg.resumePath.empty()) {
        verify::JournalRead jr = verify::readJournal(cfg.resumePath);
        if (jr.ok && !jr.records.empty()) {
            if (jr.records[0] == campaignFingerprint(cfg)) {
                resumeUsable = true;
                resumeIntactBytes = jr.intactBytes;
                for (size_t k = 1; k < jr.records.size(); ++k) {
                    ScenarioResult r;
                    if (decodeScenarioRecord(jr.records[k], r) &&
                        r.index < cfg.scenarios)
                        journaled[r.index] = r;
                }
            } else {
                warn("campaign resume: %s was written by a different "
                     "campaign configuration; ignoring it",
                     cfg.resumePath.c_str());
            }
        }
    }

    // ---- Journal writer. Appends are fsynced per record, under a
    // mutex (shard completion order — harmless, the decoder indexes
    // by scenario). Resuming into the same file keeps its intact
    // prefix; any other case starts a fresh journal. ----
    std::optional<verify::JournalWriter> journal;
    const bool sameFile =
        resumeUsable && cfg.journalPath == cfg.resumePath;
    if (!cfg.journalPath.empty()) {
        if (sameFile) {
            journal.emplace(cfg.journalPath,
                            verify::JournalWriter::Mode::Resume,
                            resumeIntactBytes);
        } else {
            journal.emplace(cfg.journalPath,
                            verify::JournalWriter::Mode::Truncate);
            journal->append(campaignFingerprint(cfg));
        }
    }
    std::mutex journalMu;

    const bool budgeted = cfg.scenarioBudget.any();
    std::atomic<size_t> resumedCount{ 0 };

    verify::ParallelConfig pcfg;
    pcfg.threads = cfg.threads;
    pcfg.seedBase = cfg.seedBase;
    pcfg.shards = cfg.scenarios;

    CampaignReport report;
    report.config = cfg;
    report.results =
        verify::shardMap(pcfg, [&](size_t i, uint64_t seed) {
            if (auto it = journaled.find(i); it != journaled.end()) {
                // Adopt the journaled verdict verbatim — this is
                // what makes a resumed report byte-identical to an
                // uninterrupted one. Re-journal it only into a
                // *fresh* journal (the same-file case already holds
                // the record).
                resumedCount.fetch_add(1, std::memory_order_relaxed);
                if (journal && !sameFile) {
                    std::lock_guard lk(journalMu);
                    journal->append(encodeScenarioRecord(it->second));
                }
                return it->second;
            }
            bool vt = (i / kNumFaultKinds) % 2 == 1;
            const Golden &golden = vt ? *goldenVt : *goldenSinus;
            ScenarioResult r;
            if (!budgeted) {
                r = runScenario(image, li, monitor, fallback, golden,
                                i, seed, cfg, nullptr);
            } else {
                // Supervised: transient (host-time/cancel) trips
                // retry with backoff under a fresh Budget; a
                // deterministic trip or exhausted retries is
                // terminal — record the partial observations as
                // BudgetExceeded and quarantine the descriptor so
                // the campaign completes without the scenario.
                verify::SupervisedRun sr = verify::superviseTask(
                    cfg.scenarioBudget, cfg.retry,
                    [&](verify::Budget &b, unsigned) {
                        r = runScenario(image, li, monitor, fallback,
                                        golden, i, seed, cfg, &b);
                    });
                r.attempts = sr.attempts;
                if (sr.wedged && !cfg.quarantineDir.empty()) {
                    verify::QuarantineEntry q = verify::quarantineStore(
                        cfg.quarantineDir, scenarioDescriptor(r),
                        ".scenario", scenarioVerdict(r));
                    r.quarantined = q.ok;
                }
            }
            if (journal) {
                std::lock_guard lk(journalMu);
                journal->append(encodeScenarioRecord(r));
            }
            return r;
        });
    report.resumedFromJournal = resumedCount.load();
    return report;
}

} // namespace zarf::fault
