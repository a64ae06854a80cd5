/**
 * @file
 * Seeded fault-injection campaigns over the two-layer ICD system.
 *
 * A campaign sweeps thousands of independent scenarios. Each
 * scenario derives — from its index and seed alone — a heart rhythm
 * flavor (steady sinus, or a VT episode that draws therapy), a
 * memory-protection model, and a single-kind FaultPlan, then runs
 * the full co-simulation under that plan and classifies the result
 * against a fault-free golden run of the same flavor:
 *
 *  - Masked: no detection fired and the pacing output is
 *    bit-identical to golden (the fault landed in dead state);
 *  - DetectedRecovered: some detector fired (ECC, watchdog, sensor
 *    integrity, FIFO tags, monitor cross-check) and the system kept
 *    meeting its deadlines outside the bounded recovery blackouts;
 *  - MissedDeadline: a 5 ms deadline was missed outside every
 *    recovery-grace window, or the λ-layer died with no fallback;
 *  - SilentCorruption: the pacing output diverged from golden and
 *    *nothing* detected it — the failure mode the architecture's
 *    protections exist to rule out.
 *
 * Campaigns are deterministic: the same (scenarios, seedBase) yields
 * a bit-identical report — including the JSON rendering — on any
 * thread count (verify/parallel.hh's shardMap discipline).
 */

#ifndef ZARF_FAULT_CAMPAIGN_HH
#define ZARF_FAULT_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/plan.hh"
#include "machine/machine.hh"
#include "verify/budget.hh"
#include "verify/supervise.hh"

namespace zarf::fault
{

/** Scenario classification (see file comment). */
enum class Outcome : uint8_t
{
    Masked = 0,
    DetectedRecovered,
    MissedDeadline,
    SilentCorruption,
    /** The scenario's verify::Budget tripped terminally (λ-cycle or
     *  heap ceiling, or a host-time/cancel trip that exhausted its
     *  retries) before the run completed. The partial observations
     *  are kept; the verdict is this, not a guess. */
    BudgetExceeded,
};

constexpr size_t kNumOutcomes = 5;

/** Stable display name (JSON keys). */
const char *outcomeName(Outcome o);

/**
 * How scenarios obtain a warm machine (docs/PERF.md,
 * "Campaign-scale execution"). Strategies trade construction work
 * for shared artifacts; none of them may affect the report — the
 * differential suite (tests/test_machine_snapshot.cc) holds all
 * three to byte-identical JSON on every thread count.
 */
enum class LoadStrategy : uint8_t
{
    /** Parse and predecode the image per scenario, rebuild golden
     *  runs per campaign (the original path; kept as the reference
     *  for the differential suite). */
    Cold = 0,
    /** Build one immutable machine::LoadedImage per campaign and
     *  share it across scenarios and goldens; golden shock logs are
     *  cached process-wide by content. */
    Shared,
    /** Shared, plus each scenario forks from a warm system snapshot
     *  the golden run captured at its fault window's start, skipping
     *  re-execution of the fault-free prefix. */
    Fork,
};

/** Campaign sizing. */
struct CampaignConfig
{
    /** Independent scenarios to run. The scenario space cycles with
     *  period 44 (11 fault kinds x 2 rhythm flavors x 2 protection
     *  models), so any multiple of 44 covers every combination
     *  evenly. */
    size_t scenarios = 1012;
    /** Worker threads; 0 = hardware concurrency. Never affects the
     *  report, only wall-clock time. */
    unsigned threads = 0;
    /** Base of the deterministic per-scenario seed derivation. */
    uint64_t seedBase = 1;
    /** Simulated seconds for steady-sinus scenarios. */
    double sinusSeconds = 2.0;
    /** Simulated seconds for VT-episode scenarios. Detection needs
     *  18 of 24 RR intervals under 360 ms — about 6 s of VT after
     *  the 1 s onset — so 9 s covers detection, the ATP burst, and
     *  conversion. */
    double vtSeconds = 9.0;
    /** Warm-machine strategy. Not part of the report's JSON: the
     *  report is a function of (scenarios, seedBase, seconds) only,
     *  whatever strategy produced it. */
    LoadStrategy strategy = LoadStrategy::Fork;

    // ---- Resilience (docs/RESILIENCE.md, "Harness resilience") ----

    /** Per-scenario budget. Inactive by default. λ-cycle and heap
     *  ceilings are deterministic (functions of simulated state):
     *  they trip on the same slice for every tier and thread count,
     *  so the report stays byte-identical. Host-time ceilings are
     *  transient by nature and go through the retry policy. */
    verify::BudgetSpec scenarioBudget{};
    /** Retry discipline for transient (host-time/cancel) trips. */
    verify::RetryPolicy retry{};
    /** Append-only verdict journal (verify/journal.hh); empty
     *  disables journaling. Each completed scenario's verdict is
     *  fsynced before the campaign moves on, so a killed campaign
     *  resumes from here. */
    std::string journalPath;
    /** Journal to resume from (typically == journalPath). Verdicts
     *  found here — under a matching campaign fingerprint — are
     *  adopted verbatim instead of re-run, which is what makes a
     *  resumed report byte-identical to an uninterrupted one. */
    std::string resumePath;
    /** Directory for quarantined scenario descriptors (empty
     *  disables). A scenario whose budget trips terminally is
     *  recorded here (content-addressed, with a structured verdict
     *  sidecar) while the campaign completes without it. */
    std::string quarantineDir;
};

/** One scenario's derivation plus everything observed. */
struct ScenarioResult
{
    size_t index = 0;
    uint64_t seed = 0;
    FaultKind kind = FaultKind::HeapSeu;
    bool vtFlavor = false;        ///< VT episode vs steady sinus.
    bool protectedMemory = true;  ///< heap ECC + operand parity on.

    Outcome outcome = Outcome::Masked;
    bool outputMatchesGolden = true; ///< Shock log bit-identical.
    bool detected = false;           ///< Any detector fired.

    unsigned restarts = 0;
    bool degraded = false;
    bool lambdaDown = false;
    bool monitorFaulted = false;
    bool countMismatch = false;   ///< Monitor/system episode counts
                                  ///< disagreed (cross-check).
    bool resyncRepaired = false;  ///< A resync fixed the mismatch.
    bool missedDeadline = false;  ///< Outside recovery grace.
    uint64_t eccCorrected = 0;
    uint64_t eccUncorrectable = 0;
    uint64_t chanOverflows = 0;
    uint64_t chanFaults = 0;
    uint64_t sensorAlerts = 0;
    int64_t episodes = 0;         ///< Therapy episodes delivered.
    uint64_t shockEvents = 0;

    // Resilience bookkeeping (all zero with the default, unbudgeted
    // CampaignConfig, so pre-resilience reports are unchanged in
    // substance).
    uint8_t budgetTrip = 0;  ///< verify::BudgetTrip code at the stop
                             ///< (0 = ran to completion).
    unsigned attempts = 1;   ///< Supervision attempts consumed.
    bool quarantined = false; ///< Descriptor written to quarantine.
};

/** Full campaign result. */
struct CampaignReport
{
    CampaignConfig config;
    std::vector<ScenarioResult> results; ///< In scenario order.

    /** Scenarios adopted verbatim from the resume journal. NOT part
     *  of the JSON renderings: a resumed report must be
     *  byte-identical to an uninterrupted one. */
    size_t resumedFromJournal = 0;

    size_t count(Outcome o) const;
    /** Silent corruptions among protected-memory scenarios. The
     *  architecture's hard gate: must be zero — every protected
     *  fault class is either masked or detected. */
    size_t protectedSilentCorruptions() const;

    /** Deterministic JSON rendering: fixed key order, integers
     *  only, scenario records in index order. Identical for
     *  identical (scenarios, seedBase) on any thread count. */
    std::string toJson() const;

    /** Aggregate metrics rendering (obs::Metrics::toJson schema):
     *  outcome counts, per-kind outcome histograms, and summed
     *  detector counters. Deterministic on any thread count, like
     *  toJson(). */
    std::string metricsJson() const;
};

/** Run a campaign (builds the kernel image, monitor, fallback, and
 *  golden runs internally). */
CampaignReport runCampaign(const CampaignConfig &cfg);

// ----------------------------------------------------------------
// Journal codec (exposed for tests and external tooling). Records
// are encoded field-by-field as little-endian u64s — no struct
// memcpy, so layout/padding changes can't silently corrupt old
// journals; a size change is caught by the decoder instead.
// ----------------------------------------------------------------

/** Record 0 of every campaign journal: the campaign identity the
 *  verdicts were computed under. A resume whose fingerprint differs
 *  ignores the journal (with a warning) rather than adopting
 *  verdicts from a different campaign. */
std::string campaignFingerprint(const CampaignConfig &cfg);

/** Serialize one scenario verdict for the journal. */
std::string encodeScenarioRecord(const ScenarioResult &r);

/** Decode a journal record; false (and an untouched `out`) on any
 *  size or version mismatch. */
bool decodeScenarioRecord(const std::string &rec, ScenarioResult &out);

} // namespace zarf::fault

#endif // ZARF_FAULT_CAMPAIGN_HH
