#include "fault/campaign.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "fault/fault_injector.hh"

namespace insure::fault {

namespace {

/** printf-style formatting into a std::string. */
std::string
strf(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

/** Minimal JSON string escaping (quotes, backslashes, control chars). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

} // namespace

std::string
campaignRunLabel(std::size_t i)
{
    return strf("run%04zu", i);
}

core::RunSpec
buildCampaignRunSpec(const CampaignConfig &cfg, std::size_t i)
{
    core::RunSpec spec;
    spec.label = campaignRunLabel(i);
    spec.config = cfg.base;
    if (cfg.perRunTweak)
        cfg.perRunTweak(i, spec.config);
    installFaultPlan(spec.config, cfg.plan);
    if (cfg.policy != validate::Policy::Off)
        validate::attachInvariantChecker(spec.config, cfg.policy);
    return spec;
}

CampaignSummary
runFaultCampaign(const CampaignConfig &cfg)
{
    std::vector<core::RunSpec> specs;
    specs.reserve(cfg.runs);
    for (std::size_t i = 0; i < cfg.runs; ++i)
        specs.push_back(buildCampaignRunSpec(cfg, i));

    harness::ResilientRunner::Progress progress;
    if (cfg.progress) {
        progress = [&cfg](const core::RunResult &, std::size_t done,
                          std::size_t total) {
            cfg.progress(done, total);
        };
    }
    harness::ResilientRunner runner(cfg.jobs, cfg.resilient);
    const std::vector<core::RunResult> results =
        runner.runSeeded(std::move(specs), cfg.masterSeed, progress);
    return summarizeCampaign(cfg, results);
}

CampaignSummary
summarizeCampaign(const CampaignConfig &cfg,
                  const std::vector<core::RunResult> &results)
{
    CampaignSummary s;
    s.config = cfg;
    s.sweep = core::mergeResults(results);

    double ttd_mean_sum = 0.0, ttr_mean_sum = 0.0;
    std::size_t ttd_runs = 0, ttr_runs = 0;
    for (const core::RunResult &r : results) {
        CampaignRun run;
        run.label = r.label;
        run.seed = r.seed;
        run.failed = r.failed;
        run.error = r.error;
        if (!r.failed) {
            run.invariantViolations = r.result.invariantViolations;
            run.uptime = r.result.metrics.uptime;
            run.processedGb = r.result.metrics.processedGb;
            if (r.result.resilience)
                run.resilience = *r.result.resilience;
            run.slo = r.result.slo;
            const core::ResilienceMetrics &m = run.resilience;
            s.faultsInjected += m.faultsInjected;
            s.faultsCleared += m.faultsCleared;
            s.detectedFaults += m.detectedFaults;
            s.quarantines += m.quarantines;
            if (m.detectedFaults > 0 && m.meanTimeToDetect > 0.0) {
                ttd_mean_sum += m.meanTimeToDetect;
                ++ttd_runs;
            }
            s.maxTimeToDetect =
                std::max(s.maxTimeToDetect, m.maxTimeToDetect);
            if (m.meanTimeToRecover > 0.0) {
                ttr_mean_sum += m.meanTimeToRecover;
                ++ttr_runs;
            }
            s.maxTimeToRecover =
                std::max(s.maxTimeToRecover, m.maxTimeToRecover);
            s.outageSeconds += m.outageSeconds;
            s.unsafeOperationSeconds += m.unsafeOperationSeconds;
            s.energyLostKwh += m.energyLostKwh;
            s.lostVmHours += m.lostVmHours;
            s.invariantViolations += run.invariantViolations;
        }
        s.perRun.push_back(std::move(run));
    }
    if (ttd_runs > 0)
        s.meanTimeToDetect =
            ttd_mean_sum / static_cast<double>(ttd_runs);
    if (ttr_runs > 0)
        s.meanTimeToRecover =
            ttr_mean_sum / static_cast<double>(ttr_runs);
    return s;
}

void
writeCampaignJson(const CampaignSummary &s, std::ostream &os)
{
    os << "{\n";
    os << strf("  \"runs\": %zu,\n", s.sweep.runs);
    os << strf("  \"failed_runs\": %zu,\n", s.sweep.failedRuns);
    os << strf("  \"master_seed\": %llu,\n",
               static_cast<unsigned long long>(s.config.masterSeed));
    os << strf("  \"simulated_seconds\": %.1f,\n",
               s.sweep.simulatedSeconds);
    os << "  \"plan\": {\n";
    os << strf("    \"scheduled\": %zu,\n", s.config.plan.scheduled.size());
    os << "    \"processes\": [";
    for (std::size_t i = 0; i < s.config.plan.processes.size(); ++i) {
        const auto &p = s.config.plan.processes[i];
        os << (i ? ", " : "")
           << strf("{\"kind\": \"%s\", \"rate_per_hour\": %.6f}",
                   faultKindName(p.kind), p.ratePerHour);
    }
    os << "]\n  },\n";
    os << "  \"resilience\": {\n";
    os << strf("    \"faults_injected\": %llu,\n",
               static_cast<unsigned long long>(s.faultsInjected));
    os << strf("    \"faults_cleared\": %llu,\n",
               static_cast<unsigned long long>(s.faultsCleared));
    os << strf("    \"detected_faults\": %llu,\n",
               static_cast<unsigned long long>(s.detectedFaults));
    os << strf("    \"quarantines\": %llu,\n",
               static_cast<unsigned long long>(s.quarantines));
    os << strf("    \"mean_time_to_detect_s\": %.1f,\n",
               s.meanTimeToDetect);
    os << strf("    \"max_time_to_detect_s\": %.1f,\n", s.maxTimeToDetect);
    os << strf("    \"mean_time_to_recover_s\": %.1f,\n",
               s.meanTimeToRecover);
    os << strf("    \"max_time_to_recover_s\": %.1f,\n",
               s.maxTimeToRecover);
    os << strf("    \"outage_seconds\": %.1f,\n", s.outageSeconds);
    os << strf("    \"unsafe_operation_seconds\": %.1f,\n",
               s.unsafeOperationSeconds);
    os << strf("    \"energy_lost_kwh\": %.6f,\n", s.energyLostKwh);
    os << strf("    \"lost_vm_hours\": %.4f,\n", s.lostVmHours);
    os << strf("    \"invariant_violations\": %llu\n",
               static_cast<unsigned long long>(s.invariantViolations));
    os << "  },\n";
    os << strf("  \"mean_uptime\": %.4f,\n", s.sweep.meanUptime);
    os << strf("  \"min_uptime\": %.4f,\n", s.sweep.minUptime);
    os << strf("  \"processed_gb\": %.3f,\n", s.sweep.processedGb);
    os << "  \"per_run\": [\n";
    for (std::size_t i = 0; i < s.perRun.size(); ++i) {
        const CampaignRun &r = s.perRun[i];
        os << "    {"
           << strf("\"label\": \"%s\", \"seed\": %llu, ",
                   jsonEscape(r.label).c_str(),
                   static_cast<unsigned long long>(r.seed));
        if (r.failed) {
            os << strf("\"outcome\": \"failed\", \"error\": \"%s\"",
                       jsonEscape(r.error).c_str());
        } else {
            const core::ResilienceMetrics &m = r.resilience;
            os << strf("\"outcome\": \"completed\", "
                       "\"faults\": %llu, \"detected\": %llu, "
                       "\"quarantines\": %llu, \"violations\": %llu, "
                       "\"uptime\": %.4f, \"processed_gb\": %.3f",
                       static_cast<unsigned long long>(m.faultsInjected),
                       static_cast<unsigned long long>(m.detectedFaults),
                       static_cast<unsigned long long>(m.quarantines),
                       static_cast<unsigned long long>(
                           r.invariantViolations),
                       r.uptime, r.processedGb);
            if (r.slo)
                os << strf(", \"slo_p99_s\": %.6f, "
                           "\"slo_miss_rate\": %.6f, "
                           "\"cache_hit_rate\": %.6f",
                           r.slo->p99, r.slo->deadlineMissRate,
                           r.slo->cacheHitRate);
        }
        os << (i + 1 < s.perRun.size() ? "},\n" : "}\n");
    }
    os << "  ]\n";
    os << "}\n";
}

std::string
formatCampaignSummary(const CampaignSummary &s)
{
    std::string out;
    out += strf("fault campaign: %zu runs (%zu failed), seed %llu\n",
                s.sweep.runs, s.sweep.failedRuns,
                static_cast<unsigned long long>(s.config.masterSeed));
    out += strf("  faults injected %llu, cleared %llu, detected %llu, "
                "quarantines %llu\n",
                static_cast<unsigned long long>(s.faultsInjected),
                static_cast<unsigned long long>(s.faultsCleared),
                static_cast<unsigned long long>(s.detectedFaults),
                static_cast<unsigned long long>(s.quarantines));
    out += strf("  TTD mean %.0f s / max %.0f s, TTR mean %.0f s / max "
                "%.0f s\n",
                s.meanTimeToDetect, s.maxTimeToDetect,
                s.meanTimeToRecover, s.maxTimeToRecover);
    out += strf("  outage %.0f s, unsafe operation %.0f s, energy lost "
                "%.3f kWh, lost VM-hours %.2f\n",
                s.outageSeconds, s.unsafeOperationSeconds,
                s.energyLostKwh, s.lostVmHours);
    out += strf("  mean uptime %.3f (min %.3f), processed %.1f GB, "
                "invariant violations %llu\n",
                s.sweep.meanUptime, s.sweep.minUptime,
                s.sweep.processedGb,
                static_cast<unsigned long long>(s.invariantViolations));
    for (const std::string &f : s.sweep.failures)
        out += "  failed: " + f + "\n";
    return out;
}

} // namespace insure::fault
