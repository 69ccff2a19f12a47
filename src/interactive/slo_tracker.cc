#include "interactive/slo_tracker.hh"

#include <algorithm>
#include <cmath>

#include "snapshot/archive.hh"

namespace insure::interactive {

namespace {

/** Versioned snapshot grammar for the tracker block. */
constexpr std::uint32_t kTrackerVersion = 1;

/** Natural-log span of the histogram range (compile-time constant). */
double
logSpan()
{
    static const double span =
        std::log(SloTracker::kLatCeil / SloTracker::kLatFloor);
    return span;
}

} // namespace

void
SloTracker::addLatency(Seconds latency, std::uint64_t n)
{
    const double clamped =
        std::clamp(latency, kLatFloor, kLatCeil);
    const double frac = std::log(clamped / kLatFloor) / logSpan();
    const unsigned bin = std::min(
        kBins - 1, static_cast<unsigned>(frac * kBins));
    bins_[bin] += n;
}

void
SloTracker::addServed(Seconds latency, std::uint64_t n,
                      std::uint64_t missed)
{
    served_ += n;
    missedDeadline_ += missed;
    addLatency(latency, n);
}

void
SloTracker::addCachedHit(Seconds latency, std::uint64_t n)
{
    cachedHits_ += n;
    addLatency(latency, n);
}

Seconds
SloTracker::percentile(double q) const
{
    std::uint64_t total = 0;
    for (const std::uint64_t b : bins_)
        total += b;
    if (total == 0)
        return 0.0;
    const double target = q * static_cast<double>(total);
    std::uint64_t cum = 0;
    for (unsigned i = 0; i < kBins; ++i) {
        cum += bins_[i];
        if (static_cast<double>(cum) >= target) {
            // Geometric bin midpoint: the histogram is log-spaced, so
            // the midpoint in log space is the unbiased representative.
            const double frac = (i + 0.5) / kBins;
            return kLatFloor * std::exp(frac * logSpan());
        }
    }
    return kLatCeil;
}

double
SloTracker::deadlineMissRate() const
{
    const std::uint64_t finalised =
        served_ + cachedHits_ + shed_ + droppedTimeout_ + droppedFault_;
    if (finalised == 0)
        return 0.0;
    const std::uint64_t violating =
        missedDeadline_ + shed_ + droppedTimeout_ + droppedFault_;
    return static_cast<double>(violating) / static_cast<double>(finalised);
}

SloReport
SloTracker::report(std::uint64_t queued) const
{
    SloReport r;
    r.arrived = arrived_;
    r.served = served_;
    r.cachedHits = cachedHits_;
    r.shed = shed_;
    r.droppedTimeout = droppedTimeout_;
    r.droppedFault = droppedFault_;
    r.queued = queued;
    r.missedDeadline = missedDeadline_;
    r.p50 = percentile(0.50);
    r.p95 = percentile(0.95);
    r.p99 = percentile(0.99);
    r.deadlineMissRate = deadlineMissRate();
    const std::uint64_t answered = served_ + cachedHits_;
    if (answered > 0) {
        r.cacheHitRate = static_cast<double>(cachedHits_) /
                         static_cast<double>(answered);
    }
    return r;
}

void
SloTracker::save(snapshot::Archive &ar) const
{
    ar.section("slo_tracker");
    ar.putU32(kTrackerVersion);
    ar.putU64(arrived_);
    ar.putU64(served_);
    ar.putU64(cachedHits_);
    ar.putU64(shed_);
    ar.putU64(droppedTimeout_);
    ar.putU64(droppedFault_);
    ar.putU64(missedDeadline_);
    for (const std::uint64_t b : bins_)
        ar.putU64(b);
}

void
SloTracker::load(snapshot::Archive &ar)
{
    ar.section("slo_tracker");
    const std::uint32_t version = ar.getU32();
    if (version != kTrackerVersion)
        throw snapshot::SnapshotError(
            "slo tracker: version " + std::to_string(version) +
            " != expected " + std::to_string(kTrackerVersion));
    arrived_ = ar.getU64();
    served_ = ar.getU64();
    cachedHits_ = ar.getU64();
    shed_ = ar.getU64();
    droppedTimeout_ = ar.getU64();
    droppedFault_ = ar.getU64();
    missedDeadline_ = ar.getU64();
    for (std::uint64_t &b : bins_)
        b = ar.getU64();
}

} // namespace insure::interactive
