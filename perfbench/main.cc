/**
 * @file
 * The measuring program: runs one workload and prints its raw samples as one
 * JSON document on stdout. run.py builds this program, runs it and
 * turns the samples into the benchmark's metrics.
 *
 *   perfbench --workload fault_campaign|plant_10k|twin_live
 *                    --seed N --seconds S [--trace] [--digest]
 *
 * --trace runs the traced pass (spans around the benchmark's calls into
 * each layer) instead of the timed one. --digest prints the digests
 * that pins.json pins for this seed and does no timing.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hh"
#include "sim/logging.hh"

using namespace perfbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "fault_campaign|plant_10k|twin_live --seed N "
                 "--seconds S [--trace] [--digest]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--workload" && hasValue)
            args.workload = argv[++i];
        else if (a == "--seed" && hasValue)
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--seconds" && hasValue)
            args.seconds = std::atof(argv[++i]);
        else if (a == "--trace")
            args.trace = true;
        else if (a == "--digest")
            args.digestOnly = true;
        else
            return usage();
    }
    int (*run)(const Args &, Json &) = nullptr;
    if (args.workload == "plant_10k")
        run = runPlant10k;
    else if (args.workload == "fault_campaign")
        run = runFaultCampaign;
    else if (args.workload == "twin_live")
        run = runTwinLive;
    if (!run || args.seconds <= 0.0)
        return usage();

    // Invariant violations under injected faults are counted, not
    // printed: stderr traffic would time the terminal.
    insure::Logger::setLevel(insure::LogLevel::Error);

    Json out;
    out.beginObject()
        .field("workload", args.workload)
        .field("seed", args.seed)
        .field("seconds", args.seconds)
        .field("trace", args.trace);
    int rc = 0;
    try {
        rc = run(args, out);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    if (args.trace)
        writeSpans(out);
    out.field("peak_rss_mb", peakRssMb()).endObject();
    std::printf("%s\n", out.text().c_str());
    return rc;
}
