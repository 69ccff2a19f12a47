/**
 * @file
 * Fault campaigns: seeded batch sweeps of fault-injected runs.
 *
 * A campaign replays one experiment configuration N times on the
 * in-process harness::ResilientRunner (deterministic per-run child
 * seeds from a master seed), installs the same FaultPlan on every run
 * — each run's injector derives its streams from that run's child
 * seed, so occurrences differ per run but reproduce exactly — and
 * aggregates per-run outcomes plus resilience metrics into a
 * CampaignSummary that serialises to JSON (bench/bench_fault_campaign).
 */

#ifndef INSURE_FAULT_CAMPAIGN_HH
#define INSURE_FAULT_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "fault/fault_plan.hh"
#include "harness/resilient_runner.hh"
#include "validate/invariant_checker.hh"

namespace insure::fault {

/** Configuration of one campaign. */
struct CampaignConfig {
    /** Per-run experiment (workload, weather, duration, manager). */
    core::ExperimentConfig base;
    /** The fault plan installed on every run. */
    FaultPlan plan;
    /** Seeded runs to execute. */
    std::size_t runs = 50;
    /** Master seed; per-run child seeds derive from it in run order. */
    std::uint64_t masterSeed = kDefaultSeed;
    /** Worker threads (0 = default). */
    unsigned jobs = 0;
    /**
     * Invariant policy attached to every run. Throw records a violating
     * run as failed (the sweep survives); Log keeps counts only.
     */
    validate::Policy policy = validate::Policy::Log;
    /** Optional progress hook (forwarded to the runner). */
    std::function<void(std::size_t done, std::size_t total)> progress;
    /**
     * Self-healing execution policy (checkpoints, watchdog, retry,
     * resume). With every field at its default each run is a plain
     * core::runExperiment: no state directory, no chunking, no watchdog.
     */
    harness::ResilientOptions resilient;
    /**
     * Optional per-run config mutation, applied to run @p i's config
     * after the base copy but before the fault plan and invariant
     * checker are installed. Lets a sweep vary policy parameters across
     * runs (e.g. the distributed SweepSpec's policy grid) while keeping
     * materialisation inside buildCampaignRunSpec, the single place a
     * run spec is ever constructed.
     */
    std::function<void(std::size_t i, core::ExperimentConfig &)> perRunTweak;
};

/** Per-run campaign outcome. */
struct CampaignRun {
    std::string label;
    std::uint64_t seed = 0;
    bool failed = false;
    std::string error;
    std::uint64_t invariantViolations = 0;
    core::ResilienceMetrics resilience;
    double uptime = 0.0;
    double processedGb = 0.0;
    /** SLO summary; set only for interactive-workload runs. */
    std::optional<interactive::SloReport> slo;
};

/** Campaign-level aggregates (completed runs only). */
struct CampaignSummary {
    CampaignConfig config;
    core::SweepSummary sweep;
    std::vector<CampaignRun> perRun;

    // Aggregated resilience over completed runs.
    std::uint64_t faultsInjected = 0;
    std::uint64_t faultsCleared = 0;
    std::uint64_t detectedFaults = 0;
    std::uint64_t quarantines = 0;
    /** Mean of per-run mean TTD over runs with a detection, seconds. */
    double meanTimeToDetect = 0.0;
    Seconds maxTimeToDetect = 0.0;
    double meanTimeToRecover = 0.0;
    Seconds maxTimeToRecover = 0.0;
    Seconds outageSeconds = 0.0;
    Seconds unsafeOperationSeconds = 0.0;
    double energyLostKwh = 0.0;
    double lostVmHours = 0.0;
    std::uint64_t invariantViolations = 0;
};

/** Canonical label of campaign run @p i ("run0042"). */
std::string campaignRunLabel(std::size_t i);

/**
 * Materialise run @p i of a campaign: base config copy, perRunTweak,
 * fault plan, invariant checker, canonical label. The seed is NOT set
 * here — the execution engine derives it from the master seed (see
 * harness::deriveChildSeeds). Every execution path — runFaultCampaign's
 * in-process sweep and every dispatch worker of a distributed campaign
 * (src/dispatch) — builds its specs through this one function, which is
 * what makes a run's behaviour a pure function of (config, index) and
 * the distributed output byte-identical to the single-process oracle.
 */
core::RunSpec buildCampaignRunSpec(const CampaignConfig &cfg, std::size_t i);

/**
 * Aggregate per-run results (in run order, one per campaign run) into a
 * CampaignSummary. Shared by runFaultCampaign and the dispatch czar,
 * which aggregates results collected from remote workers.
 */
CampaignSummary summarizeCampaign(const CampaignConfig &cfg,
                                  const std::vector<core::RunResult> &results);

/** Execute a campaign (see file comment). */
CampaignSummary runFaultCampaign(const CampaignConfig &cfg);

/** Serialise a campaign summary as JSON. */
void writeCampaignJson(const CampaignSummary &summary, std::ostream &os);

/** Human-readable one-screen summary. */
std::string formatCampaignSummary(const CampaignSummary &summary);

} // namespace insure::fault

#endif // INSURE_FAULT_CAMPAIGN_HH
