/**
 * @file
 * Seed and job-count helpers shared by every execution engine: the
 * in-process harness::ResilientRunner and the distributed campaign
 * czar (src/dispatch).
 *
 * Determinism contract: per-run results are bit-identical whether a
 * batch executes on 1 thread or 16. Two properties guarantee this —
 * every run's seed is fixed *before* any worker starts (child seeds are
 * derived from the master seed sequentially, in spec order, via
 * Rng::split()), and a Simulation shares no mutable state with its
 * siblings (the kernel was audited for statics/singletons; the only
 * global, the log level, is atomic and read-only during a batch).
 */

#ifndef INSURE_HARNESS_BATCH_RUNNER_HH
#define INSURE_HARNESS_BATCH_RUNNER_HH

#include <cstdint>
#include <vector>

#include "core/experiment.hh"

namespace insure::harness {

/**
 * Number of hardware threads, resolved once and cached (minimum 1).
 * std::thread::hardware_concurrency() may issue a system call per query,
 * so callers should use this instead.
 */
unsigned hardwareConcurrency();

/**
 * Clamp a requested worker-thread count to the hardware concurrency,
 * warning (with @p origin naming the source of the request, e.g.
 * "--jobs") when the request would oversubscribe the machine.
 */
unsigned clampJobs(unsigned jobs, const char *origin);

/**
 * Worker-thread count a runner uses when none is given explicitly: the
 * INSURE_JOBS environment variable when set to a positive integer
 * (clamped to the hardware concurrency, with a warning), otherwise the
 * hardware concurrency (minimum 1).
 */
unsigned defaultJobs();

/**
 * THE campaign seed derivation: the i-th run of a sweep always receives
 * the i-th split of Rng(masterSeed), derived sequentially in run order
 * before any run starts. Both execution engines — ResilientRunner and
 * the distributed campaign czar (src/dispatch) — derive per-run seeds
 * through this one function, so a run's seed is a pure function of
 * (masterSeed, run index) and can never drift between the
 * single-process oracle and a remote worker.
 */
std::vector<std::uint64_t> deriveChildSeeds(std::uint64_t masterSeed,
                                            std::size_t count);

/** Assign deriveChildSeeds(masterSeed, specs.size()) into the specs. */
void assignChildSeeds(std::vector<core::RunSpec> &specs,
                      std::uint64_t masterSeed);

} // namespace insure::harness

#endif // INSURE_HARNESS_BATCH_RUNNER_HH
