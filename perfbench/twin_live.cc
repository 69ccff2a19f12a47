/**
 * @file
 * twin_live: the operator's view of a live 1k-unit digital twin
 * (seismicExperiment(), 500 cabinets x 2) advanced to 08:00 and served
 * over loopback streams by TwinServer::serveStream. Three flows run at
 * once, all open loop on fixed wall schedules:
 *
 *  - one poller connection sends register reads;
 *  - two planner connections send 0.25 h what-if queries; the second
 *    planner mostly repeats the first one's query in the same live
 *    state, so over a third of the queries can hit the what-if cache
 *    (with half, the median would sit between ~5 us hits and ~42 ms
 *    misses and flip between them);
 *  - a ticker advances the live plant by one 60 s control period.
 *
 * Latency is timed from each request's due time, so a stall also
 * counts against the requests queued behind it. The live clock stays
 * inside the morning charging regime (08:00-10:30) for the whole run;
 * a run that crosses into the discharge regime measures another plant.
 *
 * After the traffic, fresh what-ifs are asked in process of the served
 * twin and of a reference twin advanced to the same live state without
 * traffic. Neither has them cached, so every one forks, and the replies
 * must match byte for byte.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common.hh"
#include "service/framing.hh"
#include "service/query.hh"
#include "service/twin_server.hh"
#include "sim/rng.hh"
#include "snapshot/snapshotter.hh"
#include "telemetry/modbus.hh"
#include "telemetry/register_map.hh"

using namespace insure;

namespace perfbench {

namespace {

constexpr unsigned kCabinets = 500;
constexpr double kStartHour = 8.0;
/** Latest live time the run may reach: the charging regime's end. */
constexpr double kEndHour = 10.5;
constexpr double kControlPeriod = 60.0;
/** Open-loop rates. */
constexpr double kReadsPerSecond = 1000.0;
constexpr double kTickerPeriod = 0.2;
/** What-if horizon, hours. */
constexpr double kHorizonHours = 0.25;
/** Share of the second planner's queries that repeat the first's. */
constexpr double kRepeatShare = 0.75;
/**
 * Set-ups timed after the traffic, beside the two before it (reference
 * and served twin); the median of all is setup_s.
 */
constexpr int kLateSetups = 3;
/**
 * What-ifs asked in process after the traffic, each of the served twin
 * and of the reference: twice this many uncached forks.
 */
constexpr int kBatchForks = 16;

/**
 * The plant's own seed is fixed: its solar day keeps 08:00-10:45 in
 * the charging regime, which some seeds' cloudier mornings leave by
 * 09:00. The benchmark seed drives the traffic script instead.
 */
constexpr std::uint64_t kPlantSeed = 2;

core::ExperimentConfig
twinConfig()
{
    core::ExperimentConfig cfg = core::seismicExperiment();
    const double scale = static_cast<double>(kCabinets) /
                         static_cast<double>(cfg.system.cabinetCount);
    cfg.system.cabinetCount = kCabinets;
    cfg.system.seriesCount = 2;
    if (cfg.targetDailyKwh)
        cfg.targetDailyKwh = *cfg.targetDailyKwh * scale;
    cfg.duration = units::hours(12.0);
    cfg.seed = kPlantSeed;
    return cfg;
}

/**
 * Ticker period for a run of @p seconds: one advance per 200 ms, slowed
 * down only when the run is so long that the live clock would leave the
 * charging regime.
 */
double
tickerPeriod(double seconds)
{
    const double maxAdvances =
        (kEndHour - kStartHour) * 3600.0 / kControlPeriod;
    return std::max(kTickerPeriod, seconds / maxAdvances);
}

/** Sleep until time @p t of the now() clock. */
void
sleepUntil(double t)
{
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(t))));
}

/** One request of the script and what became of it. */
struct Request {
    std::uint64_t rid = 0;
    service::FrameType type = service::FrameType::ModbusAdu;
    std::vector<std::uint8_t> payload;
    double due = 0.0;
    double sent = 0.0;
    double done = 0.0;
    bool answered = false;
    bool error = false;
    /** A what-if that repeats an earlier query in the same live state. */
    bool repeat = false;
};

/**
 * Send one frame and block for the reply, with a span around each
 * layer it crosses: frame codec and transport.
 */
std::optional<service::Frame>
exchange(service::ByteStream &stream, service::FrameDecoder &decoder,
         const Request &req)
{
    std::vector<std::uint8_t> bytes;
    {
        ScopedSpan s("service.frame_encode", req.rid);
        bytes = service::encodeFrame(req.type, req.payload);
    }
    {
        ScopedSpan s("transport.send", req.rid);
        if (!stream.send(bytes))
            return std::nullopt;
    }
    std::uint8_t buf[4096];
    for (;;) {
        std::size_t n;
        {
            ScopedSpan s("transport.receive", req.rid);
            n = stream.receive(buf, sizeof buf);
        }
        if (n == 0)
            return std::nullopt;
        ScopedSpan s("service.frame_decode", req.rid);
        decoder.feed(buf, n);
        if (auto f = decoder.next())
            return f;
    }
}

/** A client connection with its serving thread. */
class Connection
{
  public:
    explicit Connection(service::TwinServer &server)
    {
        auto pair = service::makeLoopbackPair();
        client_ = std::move(pair.first);
        server_ = std::move(pair.second);
        thread_ = std::thread(
            [&server, s = server_.get()] { server.serveStream(*s); });
    }
    ~Connection()
    {
        client_->close();
        thread_.join();
    }
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Issue @p reqs at their due times, one outstanding at a time. */
    void
    run(std::vector<Request> &reqs, const char *span)
    {
        for (Request &r : reqs) {
            sleepUntil(r.due);
            r.sent = now();
            ScopedSpan s(span, r.rid);
            std::optional<service::Frame> f;
            try {
                f = exchange(*client_, decoder_, r);
            } catch (const std::exception &) {
                f.reset();
            }
            r.done = now();
            r.answered = f.has_value();
            r.error = f && f->type == service::FrameType::Error;
        }
    }

    service::ByteStream &client() { return *client_; }
    service::FrameDecoder &decoder() { return decoder_; }

  private:
    std::unique_ptr<service::ByteStream> client_;
    std::unique_ptr<service::ByteStream> server_;
    service::FrameDecoder decoder_;
    std::thread thread_;
};

service::WhatIfQuery
randomQuery(Rng &rng)
{
    service::WhatIfQuery q;
    q.horizonHours = kHorizonHours;
    q.socFloor = rng.uniform(0.20, 0.40);
    q.dischargeBudgetAh = rng.uniform(5000.0, 9000.0);
    if (rng.bernoulli(0.5))
        q.chargedSoc = rng.uniform(0.85, 0.95);
    return q;
}

std::vector<std::uint8_t>
readPayload(Rng &rng)
{
    const telemetry::RegisterLayout layout;
    if (rng.bernoulli(0.2))
        return telemetry::modbus::encodeReadRequest(1, 0, 4);
    const int cab = rng.uniformInt(0, static_cast<int>(kCabinets) - 1);
    const int off = rng.uniformInt(0, 6);
    const int count = rng.uniformInt(1, layout.perCabinet - off);
    return telemetry::modbus::encodeReadRequest(
        1,
        static_cast<std::uint16_t>(layout.cabinetBase +
                                   layout.perCabinet * cab + off),
        static_cast<std::uint16_t>(count));
}

/** The seeded script of one traffic phase. */
struct Script {
    std::vector<Request> reads;
    std::vector<Request> planA;
    std::vector<Request> planB;
    std::vector<double> advanceDue;
};

/** Script @p seconds of traffic; due times are relative to its start. */
Script
makeScript(Rng &rng, double seconds, std::uint64_t &rid)
{
    Script s;
    const double period = tickerPeriod(seconds);
    const auto nReads = static_cast<std::size_t>(seconds * kReadsPerSecond);
    for (std::size_t i = 0; i < nReads; ++i) {
        Request r;
        r.rid = ++rid;
        r.type = service::FrameType::ModbusAdu;
        r.payload = readPayload(rng);
        r.due = static_cast<double>(i) / kReadsPerSecond;
        s.reads.push_back(std::move(r));
    }
    // A pair of what-ifs per two live states: the first planner early in
    // a state, the second planner half a period later in the same state.
    const auto nAdvances = static_cast<std::size_t>(seconds / period);
    for (std::size_t k = 0; k + 1 < nAdvances; k += 2) {
        const double stateStart = static_cast<double>(k) * period;
        Request a;
        a.rid = ++rid;
        a.type = service::FrameType::WhatIfQuery;
        a.payload = randomQuery(rng).encode();
        a.due = stateStart + 0.1 * period;
        Request b = a;
        b.rid = ++rid;
        b.repeat = rng.bernoulli(kRepeatShare);
        if (!b.repeat)
            b.payload = randomQuery(rng).encode();
        b.due = stateStart + 0.6 * period;
        s.planA.push_back(std::move(a));
        s.planB.push_back(std::move(b));
    }
    for (std::size_t k = 1; k <= nAdvances; ++k)
        s.advanceDue.push_back(static_cast<double>(k) * period);
    return s;
}

void
writeRequests(Json &out, const char *key, const std::vector<Request> &reqs)
{
    out.beginObject(key);
    std::vector<double> due, sent, done;
    std::uint64_t unanswered = 0, errors = 0;
    for (const Request &r : reqs) {
        due.push_back(r.due);
        sent.push_back(r.sent);
        // A failed request never completes: null, counted as missing
        // every latency limit.
        done.push_back(r.answered && !r.error ? r.done : std::nan(""));
        unanswered += !r.answered;
        errors += r.error;
    }
    out.array("due", due).array("sent", sent).array("done", done);
    out.field("unanswered", unanswered).field("errors", errors);
    out.endObject();
}

/** Run one traffic phase of @p seconds against @p server. */
void
runPhase(service::TwinServer &server, Rng &rng, double seconds,
         std::uint64_t &rid, Json &out, const char *key)
{
    Script script = makeScript(rng, seconds, rid);
    const double t0 = now() + 0.05;
    for (auto *reqs : {&script.reads, &script.planA, &script.planB})
        for (Request &r : *reqs)
            r.due += t0;
    for (double &due : script.advanceDue)
        due += t0;
    std::vector<double> advStart, advEnd;
    {
        Connection poller(server), plannerA(server), plannerB(server);
        std::exception_ptr tickerFailure;
        std::thread ticker([&] {
            try {
                for (double due : script.advanceDue) {
                    sleepUntil(due);
                    const double a = now();
                    {
                        ScopedSpan s("service.advance");
                        server.advance(server.now() + kControlPeriod);
                    }
                    advStart.push_back(a);
                    advEnd.push_back(now());
                }
            } catch (...) {
                tickerFailure = std::current_exception();
            }
        });
        std::thread a([&] { plannerA.run(script.planA, "service.whatif"); });
        std::thread b([&] { plannerB.run(script.planB, "service.whatif"); });
        poller.run(script.reads, "service.read");
        a.join();
        b.join();
        ticker.join();
        if (tickerFailure)
            std::rethrow_exception(tickerFailure);
    }

    std::vector<Request> whatifs = script.planA;
    whatifs.insert(whatifs.end(), script.planB.begin(), script.planB.end());
    std::vector<double> repeat;
    for (const Request &r : whatifs)
        repeat.push_back(r.repeat ? 1.0 : 0.0);
    out.beginObject(key).field("start", t0).field("seconds", seconds);
    writeRequests(out, "reads", script.reads);
    writeRequests(out, "whatifs", whatifs);
    out.array("whatif_repeat", repeat);
    out.array("advance_due", script.advanceDue)
        .array("advance_start", advStart)
        .array("advance_end", advEnd)
        .field("advance_sim_s", kControlPeriod)
        .endObject();
}

/** Time reads and what-ifs called directly and over a fresh loopback. */
void
tracedProbes(service::TwinServer &server, Rng &rng)
{
    for (int i = 0; i < 2000; ++i) {
        service::Frame f{service::FrameType::ModbusAdu, readPayload(rng)};
        ScopedSpan s("service.read_handle");
        server.handleFrame(f);
    }
    {
        Connection conn(server);
        for (int i = 0; i < 2000; ++i) {
            Request r;
            r.payload = readPayload(rng);
            ScopedSpan s("service.read_rtt");
            exchange(conn.client(), conn.decoder(), r);
        }
    }
    std::string payload;
    for (int i = 0; i < 5; ++i) {
        ScopedSpan s("snapshot.serialize");
        payload = snapshot::serializeRigState(server.rig());
    }
    for (int i = 0; i < 5; ++i) {
        core::ExperimentRig fork(server.config());
        ScopedSpan s("snapshot.restore");
        snapshot::restoreRigState(fork, payload);
    }
}

} // namespace

int
runTwinLive(const Args &args, Json &out)
{
    const core::ExperimentConfig cfg = twinConfig();
    const double period = tickerPeriod(args.seconds);
    out.field("cabinets", static_cast<std::uint64_t>(kCabinets))
        .field("ticker_period_s", period);

    // Set-ups are timed at both ends of the run, so that a slow spell of
    // the host at one end moves their median less. The first is the
    // reference plant that sees no traffic; the second serves.
    std::vector<double> setup;
    const auto setUp = [&] {
        const double t0 = now();
        auto s = std::make_unique<service::TwinServer>(cfg);
        s->advance(units::hours(kStartHour));
        setup.push_back(now() - t0);
        return s;
    };
    const std::unique_ptr<service::TwinServer> reference = setUp();
    const std::unique_ptr<service::TwinServer> server = setUp();
    if (args.digestOnly) {
        const auto advances = static_cast<std::size_t>(args.seconds / period);
        reference->advance(units::hours(kStartHour) +
                           kControlPeriod * static_cast<double>(advances));
        out.field("digest", hex(rigDigest(reference->rig())));
        return 0;
    }

    Rng rng(args.seed);
    std::uint64_t rid = 0;
    if (!args.trace) {
        runPhase(*server, rng, args.seconds, rid, out, "traffic");
    } else {
        // Half untraced (the overhead's base), half traced.
        runPhase(*server, rng, args.seconds / 2, rid, out, "traffic");
        Tracer::instance().enable();
        runPhase(*server, rng, args.seconds / 2, rid, out, "traced");
        Tracer::instance().disable();
    }
    const service::TwinServerStats traffic = server->stats();

    // Reads and forks must not have perturbed the live plant.
    reference->advance(server->now());
    out.field("live_end_s", server->now())
        .field("live_limit_s", units::hours(kEndHour))
        .field("end_digest", hex(rigDigest(server->rig())))
        .field("reference_digest", hex(rigDigest(reference->rig())));

    // Fresh what-ifs, each asked of the served twin and of the reference
    // at the same live state. Neither has it cached, so both fork, and
    // the two replies must be byte-identical.
    if (args.trace)
        Tracer::instance().enable();
    std::vector<double> forkMs;
    std::uint64_t mismatches = 0;
    for (int i = 0; i < kBatchForks; ++i) {
        const service::Frame f{service::FrameType::WhatIfQuery,
                               randomQuery(rng).encode()};
        std::vector<std::uint8_t> replies[2];
        for (int k = 0; k < 2; ++k) {
            service::TwinServer &twin = k == 0 ? *server : *reference;
            const double a = now();
            {
                ScopedSpan s("service.whatif_miss");
                replies[k] = twin.handleFrame(f);
            }
            forkMs.push_back(1e3 * (now() - a));
            service::FrameDecoder dec;
            dec.feed(replies[k]);
            const std::optional<service::Frame> reply = dec.next();
            if (!reply || reply->type != service::FrameType::WhatIfReply)
                throw std::runtime_error("in-process what-if failed");
        }
        mismatches += replies[0] != replies[1];
    }
    out.array("fork_ms", forkMs).field("fork_mismatches", mismatches);
    if (args.trace) {
        tracedProbes(*server, rng);
        Tracer::instance().disable();
    }

    out.beginObject("stats")
        .field("whatif_queries", traffic.whatIfQueries)
        .field("cache_hits", traffic.cacheHits)
        .field("cache_misses", traffic.cacheMisses)
        .field("error_frames", traffic.errorFrames)
        .field("snapshots_taken", traffic.snapshotsTaken)
        .field("crc_errors", traffic.streamCrcErrors)
        .field("resyncs", traffic.streamResyncs)
        .field("snapshot_bytes",
               static_cast<std::uint64_t>(
                   snapshot::serializeRigState(server->rig()).size()))
        .endObject();

    for (int i = 0; i < kLateSetups; ++i)
        setUp();
    out.array("setup_s", setup);
    return 0;
}

} // namespace perfbench
