/**
 * @file
 * fault_campaign: the research workflow. Full cloudy days of the
 * interactive request workload under the information-battery manager,
 * with faults injected and invariants logged, on the default 6-unit,
 * 4-node plant. Each campaign runs on a 3-worker thread fleet
 * (dispatch) and then on the in-process engine (fault), whose JSON is
 * the byte-compare oracle. Per-tick fixed costs, fault injection,
 * invariant checks, the request model and lease dispatch dominate; the
 * battery kernel (6 units) does almost nothing.
 */
#include <algorithm>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "common.hh"
#include "dispatch/czar.hh"
#include "dispatch/fleet.hh"
#include "dispatch/worker.hh"
#include "harness/batch_runner.hh"
#include "harness/run_result_io.hh"
#include "service/framing.hh"
#include "snapshot/archive.hh"

using namespace insure;

namespace perfbench {

namespace {

/** Fleet size: with the czar and the caller, within nproc = 4. */
constexpr unsigned kWorkers = 3;
/**
 * Runs per campaign: 6 full 16-run leases and one of 4, so the last
 * lease leaves two workers idle and the dispatch tail shows.
 */
constexpr std::size_t kRuns = 100;
/**
 * Measuring budget per campaign pair (fleet, then in-process engine):
 * a pair takes about 10 s on the reference host. A fixed count per run
 * length keeps the campaigns a seed selects the same on any host.
 */
constexpr double kSecondsPerPair = 10.0;
/**
 * Set-up probes per pair: fleets started on campaigns of the same
 * settings cut to one run per worker, leased one run at a time, so each
 * worker's first RESULT is all they do. A fleet start is one set-up
 * sample, and a campaign gives only one. Each probe has its own master
 * seed, so the samples rest on different first runs.
 */
constexpr std::size_t kSetupProbes = 4;

dispatch::SweepSpec
campaignSpec(std::uint64_t seed)
{
    dispatch::SweepSpec spec;
    spec.workload = "interactive";
    spec.manager = core::ManagerKind::InfoBattery;
    spec.day = solar::DayClass::Cloudy;
    spec.days = 1.0;
    spec.faultRatePerHour = 2.0;
    spec.policy = validate::Policy::Log;
    spec.runs = kRuns;
    spec.masterSeed = seed;
    return spec;
}

std::string
campaignJson(const fault::CampaignSummary &summary)
{
    std::ostringstream os;
    fault::writeCampaignJson(summary, os);
    return os.str();
}

/** Appends timestamps from any thread. */
struct Clock {
    std::mutex mu;
    std::vector<double> t;
    void
    mark()
    {
        const double x = now();
        const std::lock_guard<std::mutex> lock(mu);
        t.push_back(x);
    }
};

struct FleetRun {
    double wallS = 0.0;
    /** Arrival of each RESULT, seconds after the spec was handed over. */
    std::vector<double> resultS;
    dispatch::DistributedRunReport report;
};

FleetRun
runFleet(const dispatch::SweepSpec &spec,
         std::size_t chunkRuns = dispatch::CzarOptions{}.chunkRuns)
{
    FleetRun r;
    Clock results;
    dispatch::FleetOptions fleet;
    fleet.mode = dispatch::FleetMode::Thread;
    fleet.workers = kWorkers;
    fleet.czar.chunkRuns = chunkRuns;
    fleet.czar.progress = [&results](std::size_t, std::size_t) {
        results.mark();
    };
    const double t0 = now();
    r.report = dispatch::runDistributedSweepReport(spec, fleet);
    r.wallS = now() - t0;
    for (double t : results.t)
        r.resultS.push_back(t - t0);
    return r;
}

struct BatchRun {
    double wallS = 0.0;
    std::string json;
};

BatchRun
runBatch(const dispatch::SweepSpec &spec)
{
    BatchRun r;
    fault::CampaignConfig cfg = dispatch::toCampaignConfig(spec);
    cfg.jobs = kWorkers;
    const double t0 = now();
    const fault::CampaignSummary summary = fault::runFaultCampaign(cfg);
    r.wallS = now() - t0;
    r.json = campaignJson(summary);
    return r;
}

/**
 * A stream that times its blocking receives and keeps every byte it
 * received: on a worker's end, the time waiting for leases; on the
 * czar's end, the frames the czar decodes.
 */
class RecordingStream : public service::ByteStream
{
  public:
    RecordingStream(std::unique_ptr<service::ByteStream> inner,
                    const char *span)
        : inner_(std::move(inner)), span_(span)
    {
    }
    bool
    send(const std::uint8_t *data, std::size_t len) override
    {
        return inner_->send(data, len);
    }
    std::size_t
    receive(std::uint8_t *buf, std::size_t cap) override
    {
        const double a = now();
        std::size_t n;
        {
            ScopedSpan s(span_);
            n = inner_->receive(buf, cap);
        }
        const std::lock_guard<std::mutex> lock(mu_);
        waitS_ += now() - a;
        lastReceiveStart_ = a;
        bytes_.insert(bytes_.end(), buf, buf + n);
        return n;
    }
    bool
    setReceiveDeadline(double s) override
    {
        return inner_->setReceiveDeadline(s);
    }
    bool
    setSendDeadline(double s) override
    {
        return inner_->setSendDeadline(s);
    }
    void close() override { inner_->close(); }

    double
    waitS() const
    {
        const std::lock_guard<std::mutex> lock(mu_);
        return waitS_;
    }
    double
    lastReceiveStart() const
    {
        const std::lock_guard<std::mutex> lock(mu_);
        return lastReceiveStart_;
    }
    std::vector<std::uint8_t>
    bytes() const
    {
        const std::lock_guard<std::mutex> lock(mu_);
        return bytes_;
    }

  private:
    std::unique_ptr<service::ByteStream> inner_;
    const char *span_;
    mutable std::mutex mu_;
    double waitS_ = 0.0;
    double lastReceiveStart_ = 0.0;
    std::vector<std::uint8_t> bytes_;
};

/**
 * The fleet campaign assembled by hand, so the streams handed to
 * Czar::addWorker and dispatch::runWorker can be recorded.
 */
void
tracedFleet(const dispatch::SweepSpec &spec, const std::string &oracle,
            Json &out)
{
    Clock results;
    dispatch::CzarOptions opts;
    opts.progress = [&results](std::size_t, std::size_t) {
        results.mark();
    };
    dispatch::Czar czar(spec, opts);
    std::vector<RecordingStream *> czarEnds, workerEnds;
    std::vector<std::unique_ptr<RecordingStream>> owned;
    std::vector<std::thread> workers;
    const double t0 = now();
    for (unsigned k = 0; k < kWorkers; ++k) {
        auto pair = service::makeLoopbackPair();
        auto czarEnd = std::make_unique<RecordingStream>(
            std::move(pair.first), "dispatch.czar_receive");
        czarEnds.push_back(czarEnd.get());
        czar.addWorker(std::move(czarEnd));
        owned.push_back(std::make_unique<RecordingStream>(
            std::move(pair.second), "dispatch.lease_wait"));
        workerEnds.push_back(owned.back().get());
    }
    for (unsigned k = 0; k < kWorkers; ++k) {
        workers.emplace_back([w = workerEnds[k], k] {
            dispatch::WorkerOptions wo;
            wo.workerId = "perfbench-" + std::to_string(k);
            try {
                dispatch::runWorker(*w, wo);
            } catch (const std::exception &) {
                // The czar sees the stream die and re-dispatches.
                w->close();
            }
        });
    }
    const auto joinWorkers = [&] {
        for (std::thread &t : workers)
            t.join();
    };
    fault::CampaignSummary summary;
    try {
        ScopedSpan s("dispatch.campaign");
        summary = czar.run();
    } catch (...) {
        for (auto &w : owned)
            w->close();
        joinWorkers();
        throw;
    }
    const double wall = now() - t0;
    joinWorkers();
    const dispatch::CzarStats stats = czar.stats();

    double leaseWait = 0.0;
    double firstIdle = 0.0;
    std::uint64_t leases = 0;
    for (RecordingStream *w : workerEnds) {
        leaseWait += w->waitS();
        const double idle = w->lastReceiveStart();
        firstIdle = firstIdle == 0.0 ? idle : std::min(firstIdle, idle);
        service::FrameDecoder dec;
        dec.feed(w->bytes());
        while (auto f = dec.next())
            leases += f->type == service::FrameType::Lease;
    }
    std::vector<std::uint8_t> czarBytes;
    for (RecordingStream *c : czarEnds) {
        const std::vector<std::uint8_t> b = c->bytes();
        czarBytes.insert(czarBytes.end(), b.begin(), b.end());
    }
    // The decoder over the czar-side bytes, repeated for a steady time.
    std::uint64_t frames = 0;
    for (int rep = 0; rep < 20; ++rep) {
        ScopedSpan s("service.frame_decode");
        service::FrameDecoder dec;
        dec.feed(czarBytes);
        while (dec.next())
            ++frames;
    }

    std::uint64_t requests = 0;
    for (const fault::CampaignRun &r : summary.perRun)
        requests += r.slo ? r.slo->arrived : 0;
    out.beginObject("traced_fleet")
        .field("wall_s", wall)
        .field("json_equal", campaignJson(summary) == oracle)
        .field("lease_wait_s", leaseWait)
        .field("tail_s", results.t.empty() ? 0.0 : results.t.back() - firstIdle)
        .field("czar_bytes", static_cast<std::uint64_t>(czarBytes.size()))
        .field("decoded_frames", frames / 20)
        .endObject();
    out.beginObject("counts")
        .field("dispatch.leases", leases)
        .field("dispatch.frames", stats.framesDecoded)
        .field("dispatch.bytes", static_cast<std::uint64_t>(czarBytes.size()))
        .field("fault.injected", summary.faultsInjected)
        .field("validate.violations", summary.invariantViolations)
        .field("interactive.requests", requests)
        .field("dispatch.requeued_runs", stats.requeuedRuns)
        .field("dispatch.workers_lost", stats.workersLost)
        .endObject();
}

/**
 * One campaign run at a time on the calling thread, built exactly as
 * the engines build it, with invariant checks on (policy Log) and off;
 * then the result codec over the finished results.
 */
void
tracedRuns(const dispatch::SweepSpec &spec, std::size_t count)
{
    const fault::CampaignConfig logCfg = dispatch::toCampaignConfig(spec);
    fault::CampaignConfig offCfg = logCfg;
    offCfg.policy = validate::Policy::Off;
    const std::vector<std::uint64_t> seeds =
        harness::deriveChildSeeds(spec.masterSeed, spec.runs);
    std::vector<core::RunResult> results;
    for (std::size_t i = 0; i < count; ++i) {
        core::RunSpec on = fault::buildCampaignRunSpec(logCfg, i);
        core::RunSpec off = fault::buildCampaignRunSpec(offCfg, i);
        on.config.seed = off.config.seed = seeds[i];
        core::RunResult r;
        r.label = on.label;
        r.seed = seeds[i];
        r.simulatedSeconds = on.config.duration;
        {
            ScopedSpan s("core.run");
            r.result = core::runExperiment(on.config);
        }
        {
            ScopedSpan s("validate.run_off");
            core::runExperiment(off.config);
        }
        results.push_back(std::move(r));
    }
    for (int rep = 0; rep < 50; ++rep) {
        for (const core::RunResult &r : results) {
            ScopedSpan s("snapshot.result_codec");
            snapshot::Archive ar = snapshot::Archive::forSave();
            harness::saveRunResult(ar, r, r.seed);
            snapshot::Archive in = snapshot::Archive::forLoad(ar.payload());
            core::RunResult back;
            harness::loadRunResult(in, back, r.label, r.seed);
        }
    }
}

} // namespace

int
runFaultCampaign(const Args &args, Json &out)
{
    // One campaign pair per kSecondsPerPair of the run, each with its own
    // master seed: when a campaign's first results arrive depends on its
    // first runs alone, so set-up is averaged over several campaigns.
    const std::size_t pairs =
        args.trace ? 1
                   : std::max<std::size_t>(
                         1, static_cast<std::size_t>(args.seconds /
                                                     kSecondsPerPair));
    const std::vector<std::uint64_t> seeds =
        harness::deriveChildSeeds(args.seed, pairs);
    out.field("runs_per_campaign", static_cast<std::uint64_t>(kRuns))
        .field("sim_s_per_run", campaignSpec(args.seed).days * 86400.0)
        .field("workers", static_cast<std::uint64_t>(kWorkers));

    out.beginArray("campaigns");
    std::string oracle;
    for (std::uint64_t seed : seeds) {
        const dispatch::SweepSpec spec = campaignSpec(seed);
        out.beginObject().beginArray("probes");
        for (std::uint64_t probeSeed : harness::deriveChildSeeds(
                 seed, args.trace ? 0 : kSetupProbes)) {
            dispatch::SweepSpec probe = campaignSpec(probeSeed);
            probe.runs = kWorkers;
            out.beginObject()
                .array("result_s", runFleet(probe, 1).resultS)
                .endObject();
        }
        out.endArray();
        const FleetRun fleet = runFleet(spec);
        const BatchRun batch = runBatch(spec);
        out.field("master_seed", seed)
            .field("fleet_wall_s", fleet.wallS)
            .field("batch_wall_s", batch.wallS)
            .field("failed_runs", static_cast<std::uint64_t>(
                                      fleet.report.summary.sweep.failedRuns))
            .field("json_equal",
                   campaignJson(fleet.report.summary) == batch.json)
            .array("result_s", fleet.resultS)
            .endObject();
        if (oracle.empty())
            oracle = batch.json;
    }
    out.endArray();
    if (!args.trace)
        return 0;

    const dispatch::SweepSpec spec = campaignSpec(seeds.front());
    Tracer::instance().enable();
    tracedFleet(spec, oracle, out);
    tracedRuns(spec, 8);
    Tracer::instance().disable();
    return 0;
}

} // namespace perfbench
