#include "dispatch/fleet.hh"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#ifndef INSURE_WORKER_EXE
#define INSURE_WORKER_EXE ""
#endif

namespace insure::dispatch {

namespace {

/**
 * Backoff-jitter seed of fleet worker @p idx: one stream per worker, so
 * a fleet re-dialling a recovering czar does not thunder in lockstep.
 */
std::uint64_t
workerBackoffSeed(std::uint64_t idx)
{
    return Rng(kDefaultSeed).deriveSeed(streams::kDispatchBackoff + idx);
}

} // namespace

struct FleetSupervisor::Impl {
    Czar &czar;
    FleetOptions opts;
    std::string exe;

    mutable std::mutex mu;
    SupervisorStats stats;
    std::size_t respawnsLeft = 0;
    std::uint64_t connIndex = 0;
    std::uint64_t nextWorkerIndex = 0;
    bool stopping = false;
    bool stopped = false;

    struct ThreadSlot {
        std::thread th;
    };
    /** Unique_ptr slots: pointer-stable across vector growth. */
    std::vector<std::unique_ptr<ThreadSlot>> threads;

    std::unique_ptr<service::TcpListener> listener;
    std::thread acceptor;
    std::thread monitor;
    std::vector<pid_t> livePids;

    std::shared_ptr<service::ChaosLedger> chaosLedger;

    Impl(Czar &c, FleetOptions o)
        : czar(c), opts(std::move(o)), respawnsLeft(opts.maxRespawns),
          chaosLedger(std::make_shared<service::ChaosLedger>())
    {
    }

    /** Chaos-wrap a czar-side endpoint with its own seed. Lock held. */
    std::unique_ptr<service::ByteStream>
    wrapLocked(std::unique_ptr<service::ByteStream> s)
    {
        const std::uint64_t seed =
            service::chaosConnectionSeed(opts.chaosSeed, connIndex++);
        ++stats.connections;
        return service::wrapWithChaos(std::move(s), opts.chaos, seed,
                                      chaosLedger);
    }

    /**
     * Thread-worker dial: a fresh loopback pair whose czar end (chaos-
     * wrapped) is adopted by the czar. Used for the initial connection
     * AND every worker-side reconnect — which is exactly why redial
     * works without sockets.
     */
    std::unique_ptr<service::ByteStream>
    dialThread()
    {
        std::unique_ptr<service::ByteStream> czarEnd, workerEnd;
        {
            const std::lock_guard<std::mutex> lock(mu);
            if (stopping)
                return nullptr;
            auto pair = service::makeLoopbackPair();
            czarEnd = wrapLocked(std::move(pair.first));
            workerEnd = std::move(pair.second);
        }
        czar.addWorker(std::move(czarEnd));
        return workerEnd;
    }

    void
    threadWorkerBody(std::uint64_t idx, WorkerOptions w)
    {
        ResilientWorkerOptions r;
        r.worker = std::move(w);
        r.maxReconnects = opts.workerReconnects;
        r.backoffSeed = workerBackoffSeed(idx);
        const ResilientWorkerReport report =
            runResilientWorker([this] { return dialThread(); }, r);
        onWorkerExit(report.lastExit == WorkerExit::Shutdown);
    }

    void
    spawnThreadLocked(std::size_t maxRuns)
    {
        const std::uint64_t idx = nextWorkerIndex++;
        ++stats.spawned;
        auto slot = std::make_unique<ThreadSlot>();
        ThreadSlot *raw = slot.get();
        threads.push_back(std::move(slot));
        WorkerOptions w = opts.worker;
        w.workerId = opts.worker.workerId + "-" + std::to_string(idx);
        w.maxRuns = maxRuns;
        raw->th = std::thread(
            [this, idx, w = std::move(w)]() mutable {
                threadWorkerBody(idx, std::move(w));
            });
    }

    void
    spawnProcessLocked()
    {
        const std::uint64_t idx = nextWorkerIndex++;
        ++stats.spawned;
        const std::string id =
            opts.worker.workerId + "-" + std::to_string(idx);
        const std::string port = std::to_string(listener->port());

        // Connect retries and backoff stay at insure_worker's defaults,
        // which are ResilientWorkerOptions' defaults.
        std::vector<std::string> args = {
            exe,
            "--connect", "127.0.0.1",
            "--port", port,
            "--id", id,
            "--backoff-seed", std::to_string(workerBackoffSeed(idx)),
        };
        const auto flag = [&](const char *name, const std::string &v) {
            args.push_back(name);
            args.push_back(v);
        };
        if (opts.worker.maxRuns > 0)
            flag("--max-runs", std::to_string(opts.worker.maxRuns));
        if (opts.worker.heartbeatSeconds > 0.0)
            flag("--heartbeat",
                 std::to_string(opts.worker.heartbeatSeconds));
        if (opts.worker.receiveDeadlineSeconds > 0.0)
            flag("--read-deadline",
                 std::to_string(opts.worker.receiveDeadlineSeconds));
        if (opts.workerReconnects > 0)
            flag("--reconnect", std::to_string(opts.workerReconnects));

        std::vector<char *> argv;
        argv.reserve(args.size() + 1);
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        const pid_t pid = ::fork();
        if (pid < 0)
            throw std::runtime_error("dispatch: fork failed");
        if (pid == 0) {
            ::execv(exe.c_str(), argv.data());
            _exit(127); // exec failed
        }
        livePids.push_back(pid);
    }

    void
    spawnLocked(std::size_t maxRuns)
    {
        if (opts.mode == FleetMode::Thread)
            spawnThreadLocked(maxRuns);
        else
            spawnProcessLocked();
    }

    /**
     * A worker exited. Replace it while the budget lasts — unless the
     * exit was a clean SHUTDOWN handshake (@p clean): the campaign is
     * over for that worker, and respawning would only spin up
     * replacements for a finished czar to shut down again, burning the
     * respawn budget in a pointless cascade at every campaign end.
     * Lock held.
     */
    void
    onWorkerExitLocked(bool clean)
    {
        ++stats.exited;
        if (stopping || clean)
            return;
        if (respawnsLeft > 0) {
            --respawnsLeft;
            ++stats.respawned;
            // Replacements never inherit a churn budget (see
            // FleetOptions::threadWorkerMaxRuns).
            spawnLocked(0);
        } else {
            // Drain mode: the survivors are all the fleet there is.
            ++stats.drained;
        }
    }

    void
    onWorkerExit(bool clean)
    {
        const std::lock_guard<std::mutex> lock(mu);
        onWorkerExitLocked(clean);
    }

    void
    acceptorLoop()
    {
        for (;;) {
            auto s = listener->accept();
            if (!s)
                return; // listener closed: shutting down
            std::unique_ptr<service::ByteStream> wrapped;
            {
                const std::lock_guard<std::mutex> lock(mu);
                wrapped = wrapLocked(std::move(s));
            }
            czar.addWorker(std::move(wrapped));
        }
    }

    /**
     * Reap worker processes as they exit (WNOHANG poll: waitpid(-1)
     * would steal children that are not ours). Keeps reaping after
     * stop() until every pid is collected.
     */
    void
    monitorLoop()
    {
        for (;;) {
            {
                const std::lock_guard<std::mutex> lock(mu);
                for (auto it = livePids.begin();
                     it != livePids.end();) {
                    int status = 0;
                    if (::waitpid(*it, &status, WNOHANG) == *it) {
                        it = livePids.erase(it);
                        // Exit 0 is the orderly path (SHUTDOWN
                        // received, or the worker retired after its
                        // own budgets): no respawn. Signals and
                        // nonzero exits are deaths worth replacing.
                        const bool clean = WIFEXITED(status) &&
                                           WEXITSTATUS(status) == 0;
                        onWorkerExitLocked(clean);
                    } else {
                        ++it;
                    }
                }
                if (stopping && livePids.empty())
                    return;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    }

    void
    start()
    {
        const std::lock_guard<std::mutex> lock(mu);
        if (opts.mode == FleetMode::Process) {
            exe = opts.workerExe.empty() ? std::string(INSURE_WORKER_EXE)
                                         : opts.workerExe;
            if (exe.empty())
                throw std::runtime_error(
                    "dispatch: no insure_worker executable configured");
            // Throws in sandboxes without sockets; callers skip on
            // that, same as the pre-supervisor fleet.
            listener = std::make_unique<service::TcpListener>(0);
            acceptor = std::thread([this] { acceptorLoop(); });
            monitor = std::thread([this] { monitorLoop(); });
            for (unsigned i = 0; i < opts.workers; ++i)
                spawnProcessLocked();
        } else {
            for (unsigned i = 0; i < opts.workers; ++i)
                spawnThreadLocked(i < opts.threadWorkerMaxRuns.size()
                                      ? opts.threadWorkerMaxRuns[i]
                                      : opts.worker.maxRuns);
        }
    }

    void
    stop()
    {
        {
            const std::lock_guard<std::mutex> lock(mu);
            if (stopped)
                return;
            stopped = true;
            stopping = true;
        }
        if (listener)
            listener->close();
        if (acceptor.joinable())
            acceptor.join();
        if (monitor.joinable())
            monitor.join();
        // Thread slots only ever grow and are pointer-stable; walk by
        // index, moving each thread out under the lock and joining
        // outside it (the dying worker needs mu for onWorkerExit).
        for (std::size_t i = 0;; ++i) {
            std::thread th;
            {
                const std::lock_guard<std::mutex> lock(mu);
                if (i >= threads.size())
                    break;
                th = std::move(threads[i]->th);
            }
            if (th.joinable())
                th.join();
        }
    }
};

FleetSupervisor::FleetSupervisor(Czar &czar, FleetOptions opts)
    : impl_(std::make_unique<Impl>(czar, std::move(opts)))
{
}

FleetSupervisor::~FleetSupervisor()
{
    impl_->stop();
}

void
FleetSupervisor::start()
{
    impl_->start();
}

void
FleetSupervisor::stop()
{
    impl_->stop();
}

SupervisorStats
FleetSupervisor::stats() const
{
    SupervisorStats s;
    {
        const std::lock_guard<std::mutex> lock(impl_->mu);
        s = impl_->stats;
    }
    // The ledger has its own lock; sampling it outside mu keeps the
    // lock order supervisor.mu -> ledger.mu one-way.
    s.chaos = impl_->chaosLedger->totals();
    return s;
}

std::vector<pid_t>
FleetSupervisor::pids() const
{
    const std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->livePids;
}

DistributedRunReport
runDistributedSweepReport(const SweepSpec &spec, const FleetOptions &opts)
{
    Czar czar(spec, opts.czar);
    FleetSupervisor supervisor(czar, opts);
    supervisor.start();

    // The worker-death drill: SIGKILL one real process mid-campaign.
    std::thread killer;
    if (opts.mode == FleetMode::Process &&
        opts.killOneAfterSeconds >= 0.0) {
        killer = std::thread([&supervisor,
                              delay = opts.killOneAfterSeconds] {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(delay));
            const std::vector<pid_t> pids = supervisor.pids();
            if (!pids.empty())
                ::kill(pids.front(), SIGKILL);
        });
    }

    DistributedRunReport report;
    std::exception_ptr failure;
    try {
        report.summary = czar.run();
    } catch (...) {
        failure = std::current_exception();
    }
    if (killer.joinable())
        killer.join();
    supervisor.stop();
    report.czar = czar.stats();
    report.supervisor = supervisor.stats();
    if (failure)
        std::rethrow_exception(failure);
    return report;
}

fault::CampaignSummary
runDistributedSweep(const SweepSpec &spec, const FleetOptions &opts)
{
    return runDistributedSweepReport(spec, opts).summary;
}

} // namespace insure::dispatch
