/**
 * @file
 * plant_10k: the 10k-unit scale path. videoExperiment() scaled to 5000
 * cabinets x 2 series with the battery pool at 2 threads, timed over a
 * fixed night window in which every cabinet discharges, so the battery
 * kernel, telemetry sampling and control over 5000 cabinets dominate.
 * A full 10k-unit day costs about two minutes, too long to repeat.
 */
#include <memory>
#include <vector>

#include "common.hh"
#include "core/system_observer.hh"

using namespace insure;

namespace perfbench {

namespace {

constexpr unsigned kCabinets = 5000;
/** End of the set-up: the first control period has run. */
constexpr double kSetupUntil = 60.0;
/** Window start: the second control tick has put every cabinet on the
 *  load bus. */
constexpr double kWindowStart = 120.0;
/** Window length, simulated seconds (0.1 h). */
constexpr double kWindowSeconds = 360.0;

core::ExperimentConfig
plantConfig(std::uint64_t seed, unsigned threads)
{
    core::ExperimentConfig cfg = core::videoExperiment();
    cfg.system.cabinetCount = kCabinets;
    cfg.system.seriesCount = 2;
    cfg.system.workerThreads = threads;
    cfg.seed = seed;
    return cfg;
}

unsigned
dischargingCabinets(const core::ExperimentRig &rig)
{
    const battery::BatteryArray &a = rig.plant().array();
    unsigned n = 0;
    for (unsigned i = 0; i < a.cabinetCount(); ++i)
        n += a.cabinet(i).mode() == battery::UnitMode::Discharging;
    return n;
}

struct Window {
    double setupS = 0.0;
    double wallS = 0.0;
    unsigned discharging = 0;
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    std::uint64_t linkRequests = 0;
    std::uint64_t linkFailures = 0;
};

/**
 * Build a rig, run the set-up and the lead-in, then the window in 1-s
 * steps. With tracing on, every call is a span; the step spans close
 * in simulated-time order, so the trace summary can tell which periodic
 * tasks fired in each.
 */
Window
runWindow(std::uint64_t seed, unsigned threads)
{
    Window w;
    const core::ExperimentConfig cfg = plantConfig(seed, threads);
    const double t0 = now();
    std::unique_ptr<core::ExperimentRig> rig;
    {
        ScopedSpan s("core.rig_build");
        rig = std::make_unique<core::ExperimentRig>(cfg);
    }
    {
        ScopedSpan s("core.first_period");
        rig->runUntil(kSetupUntil);
    }
    w.setupS = now() - t0;
    rig->runUntil(kWindowStart);
    w.discharging = dischargingCabinets(*rig);
    const std::uint64_t ev0 = rig->simulation().eventsExecuted();
    const std::uint64_t rq0 = rig->plant().link().requests();
    const std::uint64_t fl0 = rig->plant().link().failures();
    const double w0 = now();
    for (long t = static_cast<long>(kWindowStart) + 1;
         t <= static_cast<long>(kWindowStart + kWindowSeconds); ++t) {
        ScopedSpan s("core.step");
        rig->runUntil(static_cast<double>(t));
    }
    w.wallS = now() - w0;
    w.events = rig->simulation().eventsExecuted() - ev0;
    w.linkRequests = rig->plant().link().requests() - rq0;
    w.linkFailures = rig->plant().link().failures() - fl0;
    w.digest = rigDigest(*rig);
    return w;
}

void
writeWindow(Json &out, const Window &w)
{
    out.beginObject()
        .field("setup_s", w.setupS)
        .field("wall_s", w.wallS)
        .field("discharging", static_cast<std::uint64_t>(w.discharging))
        .field("digest", hex(w.digest))
        .field("events", w.events)
        .field("link_requests", w.linkRequests)
        .field("link_failures", w.linkFailures)
        .endObject();
}

/** Records the buffer's per-tick deficit for the kernel replay. */
class DeficitRecorder : public core::SystemObserver
{
  public:
    void
    onTick(const core::TickSample &s) override
    {
        if (s.now > kWindowStart && s.now <= kWindowStart + kWindowSeconds)
            deficits.push_back(s.loadPower - s.directPower);
    }
    std::vector<double> deficits;
};

/**
 * Replay the window's recorded deficits into the array of a rig at the
 * window start, timing discharge() and endTick() per tick.
 */
void
replayBatteryKernel(std::uint64_t seed, const std::vector<double> &deficits)
{
    core::ExperimentRig rig(plantConfig(seed, 2));
    rig.runUntil(kWindowStart);
    battery::BatteryArray &array = rig.plant().array();
    battery::ArrayDischargeResult dr;
    for (double deficit : deficits) {
        array.beginTick();
        {
            ScopedSpan s("battery.discharge");
            array.discharge(deficit, 1.0, dr);
        }
        {
            ScopedSpan s("battery.end_tick");
            array.endTick(1.0);
        }
    }
}

int
digestOnly(std::uint64_t seed, Json &out)
{
    core::ExperimentRig rig(plantConfig(seed, 0));
    rig.runUntil(kWindowStart + kWindowSeconds);
    out.field("digest", hex(rigDigest(rig)));
    return 0;
}

} // namespace

int
runPlant10k(const Args &args, Json &out)
{
    out.field("window_start", kWindowStart)
        .field("window_seconds", kWindowSeconds)
        .field("cabinets", static_cast<std::uint64_t>(kCabinets));
    if (args.digestOnly)
        return digestOnly(args.seed, out);

    const double start = now();
    if (!args.trace) {
        // Repeat whole windows from fresh rigs until the budget is
        // spent, so every sample is the same work.
        out.beginArray("windows");
        double rep = 0.0;
        std::size_t n = 0;
        while (n < 3 || now() - start + rep / 2 <= args.seconds) {
            const double r0 = now();
            writeWindow(out, runWindow(args.seed, 2));
            rep = now() - r0;
            ++n;
        }
        out.endArray();
        return 0;
    }

    // Traced pass: alternate an untraced 2-thread window (the tracing
    // overhead's base), an untraced 0-thread window (the pool's cost)
    // and a traced 2-thread window.
    Tracer &tracer = Tracer::instance();
    out.beginArray("untraced");
    std::vector<Window> traced, serial;
    std::size_t n = 0;
    while (n < 2 || now() - start < args.seconds * 0.6) {
        writeWindow(out, runWindow(args.seed, 2));
        serial.push_back(runWindow(args.seed, 0));
        tracer.enable();
        traced.push_back(runWindow(args.seed, 2));
        tracer.disable();
        ++n;
    }
    out.endArray();
    out.beginArray("serial");
    for (const Window &w : serial)
        writeWindow(out, w);
    out.endArray();
    out.beginArray("traced");
    for (const Window &w : traced)
        writeWindow(out, w);
    out.endArray();

    DeficitRecorder recorder;
    {
        core::ExperimentConfig cfg = plantConfig(args.seed, 2);
        cfg.observer = &recorder;
        core::ExperimentRig rig(cfg);
        rig.runUntil(kWindowStart + kWindowSeconds);
    }
    tracer.enable();
    replayBatteryKernel(args.seed, recorder.deficits);
    tracer.disable();
    out.field("replayed_ticks",
              static_cast<std::uint64_t>(recorder.deficits.size()));
    return 0;
}

} // namespace perfbench
