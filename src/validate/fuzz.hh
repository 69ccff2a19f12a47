/**
 * @file
 * Property-based fuzzing of the simulation invariants.
 *
 * Each fuzz case is derived deterministically from one 64-bit seed: the
 * seed picks the workload, manager (including ablations), weather, plant
 * size, initial charge and run length, and also seeds the run itself.
 * Cases execute concurrently through the harness::ResilientRunner with a
 * per-run validate::InvariantChecker attached; any violation fails the
 * case. Failing cases are shrunk (halving the run length while the
 * failure persists) and reported as a one-line reproduction recipe —
 * re-running fuzzCaseFromSeed(seed, duration) rebuilds the exact run.
 */

#ifndef INSURE_VALIDATE_FUZZ_HH
#define INSURE_VALIDATE_FUZZ_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "harness/resilient_runner.hh"
#include "validate/invariant_checker.hh"

namespace insure::validate {

/** One derived fuzz case. */
struct FuzzCase {
    /** The fully-built run description (config.seed == the case seed). */
    core::ExperimentConfig config;
    /** Human-readable summary of every derived choice. */
    std::string label;
};

/**
 * Derive a fuzz case from @p seed. When @p duration is positive it
 * overrides the derived run length (used by the shrinker); the rest of
 * the configuration is unchanged, so (seed, duration) fully identifies
 * a run.
 */
FuzzCase fuzzCaseFromSeed(std::uint64_t seed, Seconds duration = 0.0);

/** Fuzz sweep configuration. */
struct FuzzOptions {
    /** Master seed; per-case seeds are split off it. */
    std::uint64_t masterSeed = kDefaultSeed;
    /** Number of randomized cases. */
    std::size_t runs = 200;
    /** Worker threads (0 = harness::defaultJobs()). */
    unsigned jobs = 0;
    /** Fixed per-run duration; 0 derives 2-6 sim-hours from the seed. */
    Seconds duration = 0.0;
    /** Shrink failing cases to a shorter still-failing duration. */
    bool shrink = true;
    /** Keep at most this many fully-detailed failures. */
    std::size_t maxFailures = 5;
    /** Per-run progress callback (forwarded to the runner). */
    harness::ResilientRunner::Progress progress;
};

/** One failing fuzz case, after shrinking. */
struct FuzzFailure {
    /** The case seed. */
    std::uint64_t seed = 0;
    /** Label of the derived case. */
    std::string label;
    /** Shortest duration still exhibiting the failure, seconds. */
    Seconds duration = 0.0;
    /** Violations counted at that duration. */
    std::uint64_t violations = 0;
    /** Bounded violation messages from the checker. */
    std::vector<std::string> notes;
    /** One-line reproduction recipe. */
    std::string repro;
};

/** Aggregate outcome of a fuzz sweep. */
struct FuzzReport {
    /** Cases executed. */
    std::size_t runs = 0;
    /** Cases with at least one invariant violation. */
    std::size_t failedRuns = 0;
    /** Total violations across all cases (pre-shrink). */
    std::uint64_t totalViolations = 0;
    /** Total simulated time swept, seconds. */
    Seconds simulatedSeconds = 0.0;
    /** Detailed (shrunk) failures, at most FuzzOptions::maxFailures. */
    std::vector<FuzzFailure> failures;

    bool clean() const { return failedRuns == 0; }
};

/** Run the fuzz sweep. */
FuzzReport fuzzInvariants(const FuzzOptions &opts = {});

/** Format a report as a short human-readable summary. */
std::string formatFuzzReport(const FuzzReport &report);

} // namespace insure::validate

#endif // INSURE_VALIDATE_FUZZ_HH
