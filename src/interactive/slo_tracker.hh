/**
 * @file
 * Latency/SLO accounting for the request-level interactive workload.
 *
 * The SloTracker is the request-stream observer: every served request
 * batch lands in a log-spaced latency histogram together with exact
 * 64-bit request counters (arrived, served, cached hits, shed, dropped),
 * so percentiles and deadline-miss rates are reproducible to the bit —
 * no sampling, no floating accumulation across requests. The tracker is
 * part of the plant state: it snapshots with the system and a restored
 * run reports identical SLO numbers to a straight-through one.
 */

#ifndef INSURE_INTERACTIVE_SLO_TRACKER_HH
#define INSURE_INTERACTIVE_SLO_TRACKER_HH

#include <array>
#include <cstdint>

#include "sim/units.hh"

namespace insure::snapshot {
class Archive;
}

namespace insure::interactive {

/** Summary of a run's interactive service quality. */
struct SloReport {
    /** Requests that entered the system. */
    std::uint64_t arrived = 0;
    /** Requests served live by the cluster. */
    std::uint64_t served = 0;
    /** Requests answered from the information-battery store. */
    std::uint64_t cachedHits = 0;
    /** Requests shed on arrival (deficit load-shaping). */
    std::uint64_t shed = 0;
    /** Requests dropped after queueing past the timeout. */
    std::uint64_t droppedTimeout = 0;
    /** In-flight requests lost to server faults / power failures. */
    std::uint64_t droppedFault = 0;
    /** Requests still queued at report time. */
    std::uint64_t queued = 0;
    /** Served requests whose latency exceeded the deadline. */
    std::uint64_t missedDeadline = 0;
    /** Latency percentiles over completed requests, seconds. */
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    /**
     * Fraction of finalised requests (served, cached, shed or dropped)
     * that violated the SLO: late, shed or lost.
     */
    double deadlineMissRate = 0.0;
    /** cachedHits / (cachedHits + served): the information-battery's
     *  share of all answered requests. */
    double cacheHitRate = 0.0;

    bool operator==(const SloReport &) const = default;
};

/** Exact request accounting plus a log-spaced latency histogram. */
class SloTracker
{
  public:
    /** Histogram bins, log-spaced over [kLatFloor, kLatCeil] seconds. */
    static constexpr unsigned kBins = 64;
    static constexpr double kLatFloor = 1e-3;
    static constexpr double kLatCeil = 3600.0;

    /** Count @p n arrivals. */
    void addArrived(std::uint64_t n) { arrived_ += n; }

    /**
     * Count @p n live-served requests at @p latency seconds; @p missed
     * of them exceeded the deadline.
     */
    void addServed(Seconds latency, std::uint64_t n, std::uint64_t missed);

    /** Count @p n information-battery hits at @p latency seconds. */
    void addCachedHit(Seconds latency, std::uint64_t n);

    /** Count @p n requests shed on arrival. */
    void addShed(std::uint64_t n) { shed_ += n; }

    /** Count @p n requests dropped after ageing past the timeout. */
    void addDroppedTimeout(std::uint64_t n) { droppedTimeout_ += n; }

    /** Count @p n in-flight requests lost to a fault. */
    void addDroppedFault(std::uint64_t n) { droppedFault_ += n; }

    std::uint64_t arrived() const { return arrived_; }
    std::uint64_t served() const { return served_; }
    std::uint64_t cachedHits() const { return cachedHits_; }
    std::uint64_t shed() const { return shed_; }
    std::uint64_t droppedTimeout() const { return droppedTimeout_; }
    std::uint64_t droppedFault() const { return droppedFault_; }
    std::uint64_t missedDeadline() const { return missedDeadline_; }

    /**
     * Build the report; @p queued is the requests still waiting (the
     * workload owns the queue, the tracker only counts finalised ones).
     */
    SloReport report(std::uint64_t queued) const;

    /** Latency of the @p q quantile (0..1) over completed requests. */
    Seconds percentile(double q) const;

    /** SloReport::deadlineMissRate, without the histogram walks. */
    double deadlineMissRate() const;

    /** Serialize counters + histogram (versioned, fail-loud). */
    void save(snapshot::Archive &ar) const;

    /** Restore counters + histogram (mirror of save). */
    void load(snapshot::Archive &ar);

    bool operator==(const SloTracker &) const = default;

  private:
    void addLatency(Seconds latency, std::uint64_t n);

    std::array<std::uint64_t, kBins> bins_{};
    std::uint64_t arrived_ = 0;
    std::uint64_t served_ = 0;
    std::uint64_t cachedHits_ = 0;
    std::uint64_t shed_ = 0;
    std::uint64_t droppedTimeout_ = 0;
    std::uint64_t droppedFault_ = 0;
    std::uint64_t missedDeadline_ = 0;
};

} // namespace insure::interactive

#endif // INSURE_INTERACTIVE_SLO_TRACKER_HH
