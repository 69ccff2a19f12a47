#include "harness/batch_runner.hh"

#include <cstdlib>
#include <thread>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace insure::harness {

unsigned
hardwareConcurrency()
{
    // hardware_concurrency() may probe the OS on every call; the value
    // cannot change under us, so resolve it exactly once.
    static const unsigned hw = [] {
        const unsigned probed = std::thread::hardware_concurrency();
        return probed > 0 ? probed : 1u;
    }();
    return hw;
}

unsigned
clampJobs(unsigned jobs, const char *origin)
{
    const unsigned hw = hardwareConcurrency();
    if (jobs > hw) {
        warn("%s requests %u worker threads but only %u hardware "
             "threads exist; clamping to %u",
             origin, jobs, hw, hw);
        return hw;
    }
    return jobs;
}

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("INSURE_JOBS")) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v > 0)
            return clampJobs(static_cast<unsigned>(v), "INSURE_JOBS");
        warn("INSURE_JOBS='%s' is not a positive integer; ignoring", env);
    }
    return hardwareConcurrency();
}

std::vector<std::uint64_t>
deriveChildSeeds(std::uint64_t masterSeed, std::size_t count)
{
    // Sequential, in run order, before any worker starts: the schedule
    // cannot influence any run, and run i's seed is reproducible from
    // (masterSeed, i) alone.
    Rng master(masterSeed);
    std::vector<std::uint64_t> seeds(count);
    for (std::uint64_t &s : seeds)
        s = master.splitSeed();
    return seeds;
}

void
assignChildSeeds(std::vector<core::RunSpec> &specs,
                 std::uint64_t masterSeed)
{
    const std::vector<std::uint64_t> seeds =
        deriveChildSeeds(masterSeed, specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        specs[i].config.seed = seeds[i];
}

} // namespace insure::harness
