#include "dispatch/worker.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

#include "dispatch/protocol.hh"
#include "fault/campaign.hh"
#include "service/framing.hh"
#include "sim/logging.hh"
#include "snapshot/archive.hh"

namespace insure::dispatch {

namespace {

/** Periodic HEARTBEAT sender (the run loop is busy simulating). */
class HeartbeatThread
{
  public:
    HeartbeatThread(service::ByteStream &stream, std::mutex &sendMutex,
                    const std::atomic<std::uint64_t> &runsCompleted,
                    double periodSeconds)
        : stream_(stream), sendMutex_(sendMutex),
          runsCompleted_(runsCompleted)
    {
        if (periodSeconds <= 0.0)
            return;
        thread_ = std::thread([this, periodSeconds] {
            std::unique_lock<std::mutex> lock(mu_);
            while (!stop_) {
                cv_.wait_for(lock, std::chrono::duration<double>(
                                       periodSeconds));
                if (stop_)
                    return;
                HeartbeatMsg msg;
                msg.runsCompleted = runsCompleted_.load();
                const std::lock_guard<std::mutex> send(sendMutex_);
                stream_.send(encodeHeartbeat(msg));
            }
        });
    }

    ~HeartbeatThread()
    {
        {
            const std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
            cv_.notify_all();
        }
        if (thread_.joinable())
            thread_.join();
    }

  private:
    service::ByteStream &stream_;
    std::mutex &sendMutex_;
    const std::atomic<std::uint64_t> &runsCompleted_;
    std::thread thread_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
};

/**
 * Backoff before retry @p attempt (0-based): base * 2^attempt, capped,
 * then jittered by a uniform factor in [0.5, 1.5). ldexp instead of a
 * shift so attempt counts past 62 saturate instead of overflowing.
 */
double
backoffDelay(double base, double cap, std::size_t attempt, Rng &jitter)
{
    const double raw =
        base * std::ldexp(1.0, static_cast<int>(std::min<std::size_t>(
                                   attempt, 62)));
    return std::min(raw, cap) * jitter.uniform(0.5, 1.5);
}

} // namespace

const char *
workerExitName(WorkerExit e)
{
    switch (e) {
    case WorkerExit::Shutdown:
        return "shutdown";
    case WorkerExit::StreamLost:
        return "stream-lost";
    case WorkerExit::BudgetSpent:
        return "budget-spent";
    case WorkerExit::ProtocolError:
        return "protocol-error";
    }
    return "unknown";
}

WorkerSessionResult
runWorkerSession(service::ByteStream &stream, const WorkerOptions &opts)
{
    std::mutex sendMutex;
    std::atomic<std::uint64_t> runsCompleted{0};
    HeartbeatThread heartbeat(stream, sendMutex, runsCompleted,
                              opts.heartbeatSeconds);

    const auto finish = [&](WorkerExit exit) {
        return WorkerSessionResult{exit, runsCompleted.load()};
    };

    if (opts.receiveDeadlineSeconds > 0.0)
        stream.setReceiveDeadline(opts.receiveDeadlineSeconds);

    {
        HelloMsg hello;
        hello.workerId = opts.workerId;
        const std::lock_guard<std::mutex> lock(sendMutex);
        if (!stream.send(encodeHello(hello)))
            return finish(WorkerExit::StreamLost);
    }

    // Leased runs execute one at a time through runOne; the runner's
    // thread pool is never used.
    harness::ResilientRunner runner(1, opts.runOpts);

    // The campaign config is a pure function of the sweep spec, so one
    // materialisation serves every lease of the same campaign.
    std::optional<SweepSpec> cachedSpec;
    std::optional<fault::CampaignConfig> cachedCfg;

    service::FrameDecoder decoder;
    std::uint8_t buf[4096];
    for (;;) {
        const std::size_t n = stream.receive(buf, sizeof buf);
        if (n == 0)
            return finish(WorkerExit::StreamLost);
        decoder.feed(buf, n);
        while (auto frame = decoder.next()) {
            if (frame->type == service::FrameType::Shutdown) {
                try {
                    decodeShutdown(*frame);
                } catch (const std::exception &e) {
                    warn("worker %s: bad SHUTDOWN from czar: %s",
                         opts.workerId.c_str(), e.what());
                    stream.close();
                    return finish(WorkerExit::ProtocolError);
                }
                stream.close();
                return finish(WorkerExit::Shutdown);
            }
            LeaseMsg lease;
            try {
                lease = decodeLease(*frame);
            } catch (const std::exception &e) {
                warn("worker %s: bad frame from czar: %s",
                     opts.workerId.c_str(), e.what());
                stream.close();
                return finish(WorkerExit::ProtocolError);
            }
            if (!cachedCfg || !(*cachedSpec == lease.spec)) {
                try {
                    cachedCfg = toCampaignConfig(lease.spec);
                } catch (const std::exception &e) {
                    warn("worker %s: unusable sweep spec: %s",
                         opts.workerId.c_str(), e.what());
                    stream.close();
                    return finish(WorkerExit::ProtocolError);
                }
                cachedSpec = lease.spec;
            }
            for (const LeasedRun &r : lease.runs) {
                const auto idx = static_cast<std::size_t>(r.index);
                core::RunSpec spec =
                    fault::buildCampaignRunSpec(*cachedCfg, idx);
                spec.config.seed = r.seed;
                ResultMsg msg;
                msg.index = r.index;
                msg.leaseSeed = r.seed;
                msg.result = runner.runOne(spec, idx);
                {
                    const std::lock_guard<std::mutex> lock(sendMutex);
                    if (!stream.send(encodeResult(msg)))
                        return finish(WorkerExit::StreamLost);
                }
                const std::uint64_t total = ++runsCompleted;
                if (opts.maxRuns > 0 && total >= opts.maxRuns) {
                    // Disposable-worker drill: drop the connection,
                    // abandoning the rest of the lease mid-flight.
                    stream.close();
                    return finish(WorkerExit::BudgetSpent);
                }
            }
        }
    }
}

int
runWorker(service::ByteStream &stream, const WorkerOptions &opts)
{
    const WorkerSessionResult r = runWorkerSession(stream, opts);
    // The one-shot contract predates WorkerExit: every orderly end —
    // shutdown, EOF, spent budget — is 0; only protocol errors are 1.
    return r.exit == WorkerExit::ProtocolError ? 1 : 0;
}

Dialer
makeTcpDialer(std::string host, std::uint16_t port)
{
    return [host = std::move(host), port]()
               -> std::unique_ptr<service::ByteStream> {
        try {
            return service::tcpConnect(host, port);
        } catch (const std::exception &) {
            return nullptr; // czar not up (yet); the caller backs off
        }
    };
}

int
ResilientWorkerReport::exitCode() const
{
    if (neverConnected)
        return 2;
    return lastExit == WorkerExit::ProtocolError ? 1 : 0;
}

ResilientWorkerReport
runResilientWorker(const Dialer &dial, const ResilientWorkerOptions &opts)
{
    ResilientWorkerReport rep;
    Rng jitter = Rng(opts.backoffSeed).derive(streams::kDispatchBackoff);
    std::size_t reconnectsLeft = opts.maxReconnects;
    bool everConnected = false;

    for (;;) {
        std::unique_ptr<service::ByteStream> stream;
        const std::size_t tries =
            std::max<std::size_t>(1, opts.connectRetries);
        for (std::size_t attempt = 0; attempt < tries; ++attempt) {
            if (attempt > 0)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(backoffDelay(
                        opts.connectBackoffSeconds,
                        opts.connectBackoffCapSeconds, attempt - 1,
                        jitter)));
            ++rep.connectAttempts;
            stream = dial();
            if (stream)
                break;
        }
        if (!stream) {
            rep.neverConnected = !everConnected;
            warn("worker %s: czar unreachable after %zu attempts",
                 opts.worker.workerId.c_str(), tries);
            return rep;
        }
        everConnected = true;

        // The churn budget spans sessions: hand the session only what
        // remains, so reconnecting cannot reset a drill's budget.
        WorkerOptions w = opts.worker;
        if (w.maxRuns > 0) {
            if (rep.runsCompleted >= w.maxRuns) {
                rep.lastExit = WorkerExit::BudgetSpent;
                stream->close();
                return rep;
            }
            w.maxRuns -= static_cast<std::size_t>(rep.runsCompleted);
        }

        const WorkerSessionResult r = runWorkerSession(*stream, w);
        rep.runsCompleted += r.runsCompleted;
        rep.lastExit = r.exit;
        if (r.exit != WorkerExit::StreamLost)
            return rep;
        if (reconnectsLeft == 0)
            return rep;
        --reconnectsLeft;
        ++rep.reconnects;
    }
}

} // namespace insure::dispatch
