/**
 * @file
 * fault_campaign: fault::runCampaign with the Fork strategy over
 * whole 44-scenario periods (every fault kind x rhythm flavor x
 * protection model once), with short scenario durations. It uses the
 * machine and system layers unlike any other workload — it writes
 * far more than it reads: full-heap snapshot/restore copies,
 * fault-plan application, watchdog restarts that reload the image,
 * the mblaze fallback detector, and the verify worker pool.
 *
 * Not in BENCHMARK.json yet: for some seed bases runCampaign itself
 * crashes the host — under fault injection, Machine's stepEvalU
 * indexes its per-function call counters out of range
 * (src/machine/machine_impl.hh:865); seed 401 of this workload
 * reproduces it. Run it by hand with `zbench --workload
 * fault_campaign` until that is fixed.
 */

#include <array>
#include <memory>
#include <optional>

#include "bench.hh"
#include "fault/campaign.hh"

namespace zbench
{

namespace
{

using namespace zarf;

constexpr size_t kPeriod = 44;
/**
 * Scenario lengths. The campaign classifies a run against its golden
 * run, so a run must outlast its fault window (src/fault/campaign.cc:
 * sinus [0.3 s, 1.5 s), VT [1.5 s, 7.5 s)) by the slowest detector's
 * latency — the 200 ms flatline monitor — or a fault landing just
 * before the end reads as an undetected divergence. (Cut at 0.6 s,
 * lambda-wedge scenarios did exactly that: protected "silent
 * corruptions" the watchdog would have caught 40 ms later.) Sinus
 * runs therefore cover their whole window; VT runs end before theirs
 * opens, so their faults never fire and they cost a fault-free 1.45 s
 * each — a whole VT window is 40 s per period on four threads, more
 * than a run may measure.
 */
constexpr double kSinusSeconds = 1.75;
constexpr double kVtSeconds = 1.45;
constexpr int kSetupReps = 3;
/** Golden runs are cached process-wide by content, durations
 *  included: each set-up repetition shifts both durations by a
 *  whole number of 5 ms ticks so it pays for fresh goldens. */
constexpr double kSetupShiftSeconds = 0.005;

fault::CampaignConfig
campaignConfig(const RunSpec &spec, uint64_t seedBase, double shift)
{
    fault::CampaignConfig cfg;
    cfg.scenarios = kPeriod;
    cfg.threads = spec.threads;
    cfg.seedBase = seedBase;
    cfg.sinusSeconds = kSinusSeconds + shift;
    cfg.vtSeconds = kVtSeconds + shift;
    cfg.strategy = fault::LoadStrategy::Fork;
    return cfg;
}

/** Set-up priming: 12 scenarios reach both rhythm flavors, so both
 *  golden runs are built. */
double
primeCampaign(const RunSpec &spec, double shift)
{
    fault::CampaignConfig cfg =
        campaignConfig(spec, deriveSeed(spec.seed, 4), shift);
    cfg.scenarios = 12;
    Clock::time_point t0 = Clock::now();
    fault::runCampaign(cfg);
    return secondsBetween(t0, Clock::now());
}

} // namespace

Result
runFaultCampaign(const RunSpec &spec)
{
    Tracer *tr = spec.tracer;
    Result r;
    r.workload = "fault_campaign";
    r.itemName = "44-scenario period";
    r.headlineName = "scenarios_per_s";
    r.headlineUnit = "1/s";

    for (int rep = 0; rep < kSetupReps; ++rep) {
        Scope s(tr, "fault.prime_cold", uint64_t(rep));
        r.setupS.push_back(primeCampaign(
            spec, kSetupShiftSeconds * (kSetupReps - 1 - rep)));
    }
    r.samples.push_back({ "threads", spec.threads });

    // ---- Timed closed loop: one period per call, a fresh seed base
    // per period. ----
    struct Period
    {
        std::array<size_t, fault::kNumOutcomes> outcomes{};
        size_t protectedSilent = 0;
        uint64_t restarts = 0, degraded = 0;
        uint64_t jsonHash = 0;
    };
    std::vector<Period> periods;
    r.itemMs.reserve(kReserveItems);
    double timed = 0;
    for (size_t p = 0;; ++p) {
        fault::CampaignConfig cfg =
            campaignConfig(spec, deriveSeed(spec.seed, 100 + p), 0);
        Clock::time_point t0 = Clock::now();
        fault::CampaignReport rep;
        {
            Scope s(tr, "fault.campaign", p);
            rep = fault::runCampaign(cfg);
        }
        double dt = secondsBetween(t0, Clock::now());
        timed += dt;
        r.itemMs.push_back(dt * 1e3);
        Period per;
        for (size_t o = 0; o < fault::kNumOutcomes; ++o)
            per.outcomes[o] = rep.count(fault::Outcome(o));
        per.protectedSilent = rep.protectedSilentCorruptions();
        for (const fault::ScenarioResult &s : rep.results) {
            per.restarts += s.restarts;
            per.degraded += s.degraded;
        }
        per.jsonHash = fnv1a(rep.toJson());
        periods.push_back(per);
        if (timed >= spec.seconds)
            break;
    }
    r.attempted = periods.size() * kPeriod;
    r.work = double(r.attempted);
    r.samples.push_back({ "periods", periods.size() });
    r.samples.push_back({ "scenarios", r.attempted });

    // ---- Check: no silent corruption under protected memory. ----
    for (size_t p = 0; p < periods.size(); ++p)
        for (size_t k = 0; k < periods[p].protectedSilent; ++k)
            r.fail("protected silent corruption in period " +
                   std::to_string(p));

    if (spec.fingerprint) {
        const Period &p0 = periods[0];
        r.fingerprint.push_back({ "scenarios", std::to_string(kPeriod) });
        for (size_t o = 0; o < fault::kNumOutcomes; ++o)
            r.fingerprint.push_back(
                { fault::outcomeName(fault::Outcome(o)),
                  std::to_string(p0.outcomes[o]) });
        r.fingerprint.push_back({ "campaign_json_hash",
                                  hex64(p0.jsonHash) });
    }

    if (tr) {
        auto &L = r.layer;
        // Goldens are the difference between a priming with durations
        // no earlier campaign in this process used (fresh golden runs)
        // and the same priming again (goldens cached).
        double fresh = kSetupShiftSeconds * (kSetupReps + 1);
        double cold, warm;
        {
            Scope s(tr, "fault.prime_cold", kSetupReps);
            cold = primeCampaign(spec, fresh);
        }
        {
            Scope s(tr, "fault.prime_warm", 0);
            warm = primeCampaign(spec, fresh);
        }
        L.push_back({ "fault.golden_s", cold - warm, "s" });

        L.push_back({ "fault.period_s",
                      median(tr->durationsUs("fault.campaign")) / 1e6,
                      "s" });

        // Report counts, per 44-scenario period.
        const double np = double(periods.size());
        for (size_t o = 0; o < fault::kNumOutcomes; ++o) {
            double sum = 0;
            for (const Period &p : periods)
                sum += double(p.outcomes[o]);
            L.push_back({ std::string("fault.outcome.") +
                              fault::outcomeName(fault::Outcome(o)),
                          sum / np, "count/period" });
        }
        double restarts = 0, degraded = 0;
        for (const Period &p : periods) {
            restarts += double(p.restarts);
            degraded += double(p.degraded);
        }
        L.push_back({ "fault.watchdog_restarts", restarts / np,
                      "count/period" });
        L.push_back({ "fault.degraded", degraded / np, "count/period" });
    }
    return r;
}

} // namespace zbench
