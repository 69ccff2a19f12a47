#include "drills/chaos_drill.hh"

#include <cstdarg>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "fault/campaign.hh"
#include "service/framing.hh"
#include "sim/logging.hh"

namespace insure::dispatch {

namespace {

std::string
strf(const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return buf;
}

std::string
campaignJson(const fault::CampaignSummary &summary)
{
    std::ostringstream os;
    fault::writeCampaignJson(summary, os);
    return os.str();
}

} // namespace

std::size_t
CampaignDrillReport::completedSeeds() const
{
    std::size_t n = 0;
    for (const CampaignDrillSeedOutcome &o : outcomes)
        n += o.completed ? 1 : 0;
    return n;
}

std::size_t
CampaignDrillReport::identicalSeeds() const
{
    std::size_t n = 0;
    for (const CampaignDrillSeedOutcome &o : outcomes)
        n += o.identical ? 1 : 0;
    return n;
}

bool
CampaignDrillReport::passed() const
{
    return !outcomes.empty() && completedSeeds() == outcomes.size() &&
           identicalSeeds() == outcomes.size();
}

CampaignDrillReport
runCampaignChaosDrill(const CampaignDrillOptions &opts)
{
    CampaignDrillReport report;
    report.oracleJson = campaignJson(
        fault::runFaultCampaign(toCampaignConfig(opts.spec)));

    for (std::size_t s = 0; s < opts.seeds; ++s) {
        CampaignDrillSeedOutcome out;
        out.chaosSeed = opts.firstChaosSeed + s;

        FleetOptions fleet;
        fleet.mode = FleetMode::Thread;
        fleet.workers = opts.workers;
        fleet.czar.chunkRuns = opts.chunkRuns;
        fleet.czar.workerTimeoutSeconds = opts.workerTimeoutSeconds;
        fleet.czar.leaseProgressTimeoutSeconds =
            opts.leaseProgressTimeoutSeconds;
        fleet.czar.allDeadGraceSeconds = opts.allDeadGraceSeconds;
        fleet.worker.heartbeatSeconds = opts.heartbeatSeconds;
        fleet.maxRespawns = opts.maxRespawns;
        fleet.workerReconnects = opts.workerReconnects;
        fleet.chaos = opts.chaos;
        fleet.chaosSeed = out.chaosSeed;

        try {
            const DistributedRunReport run =
                runDistributedSweepReport(opts.spec, fleet);
            out.completed = true;
            out.identical =
                campaignJson(run.summary) == report.oracleJson;
            out.czar = run.czar;
            out.supervisor = run.supervisor;
        } catch (const std::exception &e) {
            out.error = e.what();
            warn("chaos drill seed %llu aborted: %s",
                 static_cast<unsigned long long>(out.chaosSeed), e.what());
        }
        report.outcomes.push_back(std::move(out));
    }
    return report;
}

void
writeCampaignDrillJson(const CampaignDrillReport &report, std::ostream &os)
{
    const auto u64 = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
    };
    os << "{\n";
    os << strf("  \"seeds\": %zu,\n", report.outcomes.size());
    os << strf("  \"completed_seeds\": %zu,\n", report.completedSeeds());
    os << strf("  \"identical_seeds\": %zu,\n", report.identicalSeeds());
    os << strf("  \"passed\": %s,\n", report.passed() ? "true" : "false");
    os << "  \"outcomes\": [\n";
    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
        const CampaignDrillSeedOutcome &o = report.outcomes[i];
        os << "    {\n";
        os << strf("      \"chaos_seed\": %llu,\n", u64(o.chaosSeed));
        os << strf("      \"completed\": %s,\n",
                   o.completed ? "true" : "false");
        os << strf("      \"identical\": %s,\n",
                   o.identical ? "true" : "false");
        os << strf("      \"workers_lost\": %llu,\n",
                   u64(o.czar.workersLost));
        os << strf("      \"requeued_runs\": %llu,\n",
                   u64(o.czar.requeuedRuns));
        os << strf("      \"duplicate_results\": %llu,\n",
                   u64(o.czar.duplicateResults));
        os << strf("      \"timeout_evictions\": %llu,\n",
                   u64(o.czar.timeoutEvictions));
        os << strf("      \"lease_timeouts\": %llu,\n",
                   u64(o.czar.leaseTimeouts));
        os << strf("      \"crc_errors\": %llu,\n", u64(o.czar.crcErrors));
        os << strf("      \"resyncs\": %llu,\n", u64(o.czar.resyncs));
        os << strf("      \"skipped_bytes\": %llu,\n",
                   u64(o.czar.skippedBytes));
        os << strf("      \"respawns\": %llu,\n",
                   u64(o.supervisor.respawned));
        os << strf("      \"connections\": %llu,\n",
                   u64(o.supervisor.connections));
        os << "      \"chaos\": {\n";
        os << strf("        \"corrupted_bytes\": %llu,\n",
                   u64(o.supervisor.chaos.corruptedBytes));
        os << strf("        \"truncated_sends\": %llu,\n",
                   u64(o.supervisor.chaos.truncatedSends));
        os << strf("        \"dropped_sends\": %llu,\n",
                   u64(o.supervisor.chaos.droppedSends));
        os << strf("        \"duplicated_sends\": %llu,\n",
                   u64(o.supervisor.chaos.duplicatedSends));
        os << strf("        \"split_sends\": %llu,\n",
                   u64(o.supervisor.chaos.splitSends));
        os << strf("        \"disconnects\": %llu\n",
                   u64(o.supervisor.chaos.disconnects));
        os << "      }";
        if (!o.error.empty()) {
            // Errors are short runtime_error strings; escape the two
            // characters that could break the JSON.
            std::string esc;
            for (const char c : o.error) {
                if (c == '"' || c == '\\')
                    esc += '\\';
                esc += c;
            }
            os << ",\n      \"error\": \"" << esc << "\"";
        }
        os << "\n    }" << (i + 1 < report.outcomes.size() ? "," : "")
           << "\n";
    }
    os << "  ]\n";
    os << "}\n";
}

TwinChaosReport
replayTwinChaos(service::TwinServer &server,
                const std::vector<harness::TwinOp> &ops,
                const TwinChaosOptions &opts)
{
    service::ChaosPlan plan = opts.chaos;
    // No sequence numbers in the request/reply stream: a duplicated
    // request would legitimately earn a second reply and shift the
    // serial alignment (see header). Everything else is fair game.
    plan.duplicateRate = 0.0;

    auto ledger = std::make_shared<service::ChaosLedger>();
    TwinChaosReport report;
    report.replies.resize(ops.size());

    std::unique_ptr<service::ByteStream> client;
    std::thread serverThread;
    std::uint64_t sessionIndex = 0;

    const auto closeSession = [&] {
        if (!client)
            return;
        client->close();
        if (serverThread.joinable())
            serverThread.join();
        client.reset();
    };
    const auto openSession = [&] {
        auto pair = service::makeLoopbackPair();
        client = service::wrapWithChaos(
            std::move(pair.first), plan,
            service::chaosConnectionSeed(opts.chaosSeed, sessionIndex++),
            ledger);
        client->setReceiveDeadline(opts.replyDeadlineSeconds);
        serverThread =
            std::thread([&server, s = std::move(pair.second)]() mutable {
                server.serveStream(*s);
            });
        if (sessionIndex > 1)
            ++report.reconnects;
    };

    bool allAnswered = true;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const service::Frame req = ops[i].toFrame(1);
        const std::vector<std::uint8_t> wire =
            service::encodeFrame(req.type, req.payload);

        bool answered = false;
        for (std::size_t attempt = 0;
             attempt < opts.maxAttemptsPerOp && !answered; ++attempt) {
            if (attempt > 0)
                ++report.resends;
            if (!client)
                openSession();
            if (!client->send(wire.data(), wire.size())) {
                closeSession();
                continue;
            }
            // Wait for one decodable reply frame; a deadline expiry,
            // EOF or CRC-destroyed reply poisons the session — a late
            // reply could otherwise pair with the NEXT request, so
            // retry on a fresh connection, never this one.
            service::FrameDecoder decoder;
            std::uint8_t buf[4096];
            for (;;) {
                const std::size_t n = client->receive(buf, sizeof buf);
                if (n == 0) {
                    closeSession();
                    break;
                }
                decoder.feed(buf, n);
                if (auto reply = decoder.next()) {
                    // Canonical re-encode: exactly the bytes the
                    // server put on the wire (same as TwinClient).
                    report.replies[i] = service::encodeFrame(
                        reply->type, reply->payload);
                    answered = true;
                    break;
                }
            }
        }
        if (!answered) {
            allAnswered = false;
            warn("twin chaos replay: op %zu unanswered after %zu attempts",
                 i, opts.maxAttemptsPerOp);
        }
    }
    closeSession();
    report.completed = allAnswered;
    report.chaos = ledger->totals();
    return report;
}

} // namespace insure::dispatch
