#include "core/in_situ_system.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "snapshot/archive.hh"

namespace insure::core {

using battery::UnitMode;

namespace {

/**
 * Clamp degenerate topology values to runnable ones. Randomised batch
 * and fuzz configs can produce zero cabinets or series strings; a plant
 * cannot operate without a buffer string, so build the smallest one
 * instead of crashing the whole campaign.
 */
SystemConfig
sanitizedConfig(SystemConfig cfg)
{
    cfg.cabinetCount = std::max(1u, cfg.cabinetCount);
    cfg.seriesCount = std::max(1u, cfg.seriesCount);
    return cfg;
}

} // namespace

InSituSystem::InSituSystem(sim::Simulation &sim, const std::string &name,
                           SystemConfig cfg,
                           std::unique_ptr<solar::SolarSource> solar,
                           std::unique_ptr<PowerManager> manager)
    : sim::Component(sim, name), cfg_(sanitizedConfig(std::move(cfg))),
      solar_(std::move(solar)),
      array_(cfg_.battery, cfg_.cabinetCount, cfg_.seriesCount,
             cfg_.initialSoc),
      registers_(telemetry::RegisterLayout::mapSize(cfg_.cabinetCount)),
      monitor_(array_, registers_),
      plc_(1, registers_),
      link_(std::make_unique<telemetry::CoordinationLink>(plc_, 1)),
      history_(cfg_.cabinetCount),
      cluster_(cfg_.nodeCount, cfg_.node),
      manager_(std::move(manager)),
      storedGauge_(nullptr, name + ".stored", "stored energy fraction"),
      pendingGauge_(nullptr, name + ".pending", "work pending"),
      upPendingGauge_(nullptr, name + ".upPending",
                      "productive while pending"),
      log_(name)
{
    if (!solar_)
        fatal("InSituSystem: solar source is required");
    if (!manager_)
        fatal("InSituSystem: power manager is required");

    array_.setWorkerThreads(cfg_.workerThreads);
    cluster_.setWorkloadUtil(cfg_.profile.powerUtil(cfg_.node.type));

    // Workload streams use ordinal split() in this fixed order — the
    // checked-in golden digests lock the derivation, so new subsystems
    // must NOT insert split() calls here. Anything added later (the
    // fault layer, for one) derives its streams advance-free via
    // Rng::derive with a streams:: tag, which cannot perturb these.
    Rng rng = sim.makeRng();
    // The interactive arrival stream is derive()d first, advance-free:
    // it reads the pre-split root state, so it neither shifts the batch/
    // stream splits below nor depends on which of them are configured.
    if (cfg_.interactive)
        interactive_.emplace(
            *cfg_.interactive,
            rng.derive(streams::kInteractiveArrivals));
    if (cfg_.batch)
        batchSrc_.emplace(*cfg_.batch, rng.split());
    if (cfg_.stream)
        streamSrc_.emplace(*cfg_.stream, rng.split());

    lastCurrents_.assign(cfg_.cabinetCount, 0.0);

    auto &eq = sim.events();
    physicsTask_ = std::make_unique<sim::PeriodicTask>(
        eq, cfg_.physicsTick, sim::EventPriority::Physics,
        [this](Seconds now) { physicsTick(now); });
    telemetryTask_ = std::make_unique<sim::PeriodicTask>(
        eq, cfg_.telemetryPeriod, sim::EventPriority::Telemetry,
        [this](Seconds now) { telemetryTick(now); });
    controlTask_ = std::make_unique<sim::PeriodicTask>(
        eq, cfg_.controlPeriod, sim::EventPriority::Control,
        [this](Seconds now) { controlTick(now); });
}

void
InSituSystem::startup()
{
    // Everything starts in standby with the rack powered down; the first
    // control tick decides what to do.
    array_.setAllModes(UnitMode::Standby);
    physicsTask_->start(cfg_.physicsTick);
    telemetryTask_->start(cfg_.telemetryPeriod);
    controlTask_->start(cfg_.controlPeriod);
    if (traceTask_)
        traceTask_->start(0.0);
}

void
InSituSystem::finalize()
{
    // Fold the interval between each gauge's last sample and the end of
    // the run into its integral, so report-time averages cover the whole
    // run even for levels that were set once and never changed again.
    const Seconds now = sim().now();
    storedGauge_.finalize(now);
    pendingGauge_.finalize(now);
    upPendingGauge_.finalize(now);
}

void
InSituSystem::enableTrace(Seconds period)
{
    if (trace_)
        return;
    trace_.emplace(std::vector<std::string>{
        "time_s", "solar_w", "load_w", "delivered_w", "mean_soc",
        "stored_wh", "vms", "duty", "productive", "cab0_v", "cab1_v",
        "cab2_v"});
    traceTask_ = std::make_unique<sim::PeriodicTask>(
        sim().events(), period, sim::EventPriority::Stats,
        [this](Seconds now) {
            const unsigned n = array_.cabinetCount();
            auto cabv = [&](unsigned i) {
                return i < n ? array_.cabinet(i).openCircuitVoltage()
                             : 0.0;
            };
            trace_->append(
                {now, solar_->availablePower(), cluster_.power(),
                 solar_->availablePower(), array_.meanSoc(),
                 array_.storedEnergyWh(),
                 static_cast<double>(cluster_.activeVms()),
                 cluster_.nodeCount() ? cluster_.node(0).dutyCycle() : 1.0,
                 cluster_.anyProductive() ? 1.0 : 0.0, cabv(0), cabv(1),
                 cabv(2)});
        });
}

void
InSituSystem::attachObserver(SystemObserver *obs)
{
    observer_ = obs;
    // Route mode transitions through the observer: unit 0 of each cabinet
    // sees every transition (Cabinet::setMode propagates to all units),
    // and the unit-level hook filters no-op writes (from == to).
    for (unsigned i = 0; i < array_.cabinetCount(); ++i) {
        battery::BatteryUnit &u = array_.cabinet(i).unit(0);
        if (obs) {
            u.setModeObserver(
                [this, i](UnitMode from, UnitMode to) {
                    observer_->onModeChange(i, from, to, sim().now(),
                                            array_.cabinet(i).soc());
                });
        } else {
            u.setModeObserver(nullptr);
        }
    }
}

Watts
InSituSystem::cabinetPeakChargePower() const
{
    const auto &unit = array_.cabinet(0).unit(0);
    return unit.chargeModel().peakChargePower() *
           array_.cabinet(0).seriesCount();
}

void
InSituSystem::physicsTick(Seconds now)
{
    const Seconds dt = cfg_.physicsTick;
    const Seconds prev = now - dt;

    // Exact pre-tick charge inventory, for the conservation invariant.
    // Fault injections fire between ticks (Stats priority), so any
    // exogenous inventory change since the last tick is credited to the
    // inter-tick window here.
    const AmpHours obsAhBefore =
        observer_ ? array_.totalUnitAh() : 0.0;
    const AmpHours obsExoPre =
        observer_ ? array_.totalExogenousAh() - exoAhSeen_ : 0.0;

    // 1. Workload arrivals.
    if (batchSrc_)
        batchSrc_->step(prev, now, queue_);
    if (streamSrc_)
        streamSrc_->step(prev, now, queue_);

    // 2. Solar supply (the source handles day/trace periodicity).
    solar_->step(now, dt);
    const Watts pg = solar_->availablePower();
    offeredWh_ += units::energyWh(pg, dt);
    log_.addSolar(units::energyWh(pg, dt));
    solarAvgAccumWs_ += pg * dt;
    solarAvgWindow_ += dt;

    // 3. Power flow: direct green first, then the buffer.
    const Watts pl = cluster_.power();
    const Watts direct = std::min(pg, pl);
    const Watts deficit = pl - direct;

    array_.beginTick();

    // PLC-speed reconfiguration: if the online cabinets cannot carry the
    // deficit, promote healthy charging cabinets (highest SoC first) onto
    // the load bus before the voltage collapses.
    if (cfg_.fastSwitching && deficit > 0.0 &&
        array_.maxDischargePower(dt) < deficit) {
        std::vector<unsigned> &charging = fastSwitchScratch_;
        charging.clear();
        for (unsigned i = 0; i < array_.cabinetCount(); ++i) {
            if (array_.cabinet(i).mode() == UnitMode::Charging)
                charging.push_back(i);
        }
        std::sort(charging.begin(), charging.end(),
                  [this](unsigned a, unsigned b) {
                      return array_.cabinet(a).soc() >
                             array_.cabinet(b).soc();
                  });
        for (unsigned idx : charging) {
            if (array_.maxDischargePower(dt) >= deficit)
                break;
            if (array_.cabinet(idx).soc() > cfg_.fastSwitchMinSoc)
                array_.cabinet(idx).setMode(UnitMode::Discharging);
        }
    }

    // dr_ is a member so its vectors keep their capacity tick to tick;
    // the out-param discharge() resets every field either way.
    battery::ArrayDischargeResult &dr = dr_;
    array_.discharge(deficit, dt, dr);
    if (dr.cabinetCurrents.empty()) {
        dr.cabinetCurrents.assign(array_.cabinetCount(), 0.0);
        dr.cabinetAh.assign(array_.cabinetCount(), 0.0);
    }
    lastCurrents_ = dr.cabinetCurrents;
    for (unsigned i = 0; i < array_.cabinetCount(); ++i)
        history_.record(i, dr.cabinetAh[i]);
    throughputAh_ += dr.throughputAh;

    // Hardware protection: tripped cabinets disconnect; in the unified
    // wiring one trip takes the whole string down (paper Fig. 5).
    if (!dr.tripped.empty()) {
        bufferTrips_ += dr.tripped.size();
        if (cfg_.unifiedBuffer) {
            array_.setAllModes(UnitMode::Offline);
        } else {
            for (unsigned idx : dr.tripped)
                array_.cabinet(idx).setMode(UnitMode::Offline);
        }
    }

    // Secondary feed (paper Fig. 7): covers whatever deficit the green
    // supply and the buffer could not. Real gensets have a start-up
    // delay and a minimum run time, so once needed the feed stays warm
    // for a while instead of flapping.
    Watts secondary = 0.0;
    const Watts shortfall =
        std::max(0.0, deficit - dr.deliveredPower);
    if (cfg_.secondary) {
        const Seconds min_run = 600.0;
        if (shortfall > 1.0) {
            if (secondaryRunningSince_ < 0.0)
                secondaryRunningSince_ = now;
            secondaryLastNeeded_ = now;
        } else if (secondaryRunningSince_ >= 0.0 &&
                   now - secondaryLastNeeded_ > min_run) {
            secondaryRunningSince_ = -1.0;
        }
        if (secondaryRunningSince_ >= 0.0 &&
            now - secondaryRunningSince_ >=
                cfg_.secondary->startupTime &&
            shortfall > 1.0) {
            secondary = std::min(shortfall, cfg_.secondary->capacity);
            secondaryWh_ += units::energyWh(secondary, dt);
        }
    }

    // Rack power loss when the buses cannot carry the load.
    const Watts supplied = direct + dr.deliveredPower + secondary;
    const bool failed =
        pl > 1.0 && supplied < pl * cfg_.supplyTolerance;
    if (failed && !powerFailedLastTick_) {
        if (Logger::enabled(LogLevel::Debug)) {
            std::string modes;
            for (unsigned i = 0; i < array_.cabinetCount(); ++i) {
                modes += battery::unitModeName(
                    array_.cabinet(i).mode())[0];
                modes += std::to_string(
                    static_cast<int>(array_.cabinet(i).soc() * 100));
                modes += ' ';
            }
            Logger::log(LogLevel::Debug,
                        "%s: power failure t=%.0f pg=%.0f pl=%.0f "
                        "supplied=%.0f cabinets=[%s]",
                        name().c_str(), now, pg, pl, supplied,
                        modes.c_str());
        }
        cluster_.emergencyShutdownAll();
        ++powerFailures_;
        lastPowerFailure_ = now;
    }
    powerFailedLastTick_ = failed;

    // 4. Charge plan execution with the remaining surplus.
    Watts surplus = std::max(0.0, pg - direct);
    Watts charge_used = 0.0;
    AmpHours charge_stored = 0.0;
    if (surplus > 0.0 && !chargePlan_.cabinets.empty()) {
        if (chargePlan_.splitEvenly) {
            const Watts each = surplus / chargePlan_.cabinets.size();
            for (unsigned idx : chargePlan_.cabinets) {
                const auto r = array_.chargeCabinet(
                    idx, each, dt, cfg_.busCoupledCharging);
                charge_used += r.consumedPower;
                charge_stored += r.storedAh;
            }
        } else {
            for (unsigned idx : chargePlan_.cabinets) {
                if (surplus <= 1.0)
                    break;
                const auto r = array_.chargeCabinet(
                    idx, surplus, dt, cfg_.busCoupledCharging);
                charge_used += r.consumedPower;
                charge_stored += r.storedAh;
                surplus -= r.consumedPower;
            }
        }
    }
    array_.endTick(dt);

    greenUsedWh_ += units::energyWh(
        (failed ? 0.0 : direct) + charge_used, dt);

    // 5. Servers and data processing.
    const auto cs = cluster_.step(dt);
    loadWh_ += cs.energyWh;
    effectiveWh_ += cs.productiveEnergyWh;
    log_.addLoad(cs.energyWh);
    log_.addEffective(cs.productiveEnergyWh);

    const double rate = cfg_.profile.gbPerVmHour(cfg_.node.type);
    queue_.process(now, cs.usefulVmHours * rate);

    // Work lost to uncheckpointed shutdowns must be redone.
    const double lost_vmh = cluster_.lostVmHours();
    if (lost_vmh > lostVmHoursSeen_ + 1e-12) {
        queue_.requeue(now, (lost_vmh - lostVmHoursSeen_) * rate);
        lostVmHoursSeen_ = lost_vmh;
    }

    // 5b. Interactive request stream: runs after the power flow and the
    // cluster step so it sees this tick's resolved VM pool and power
    // state. Uncheckpointed shutdowns (faults, rack power loss) drop the
    // in-flight requests — one per VM slot of each killed node — with
    // exact ground-truth accounting.
    if (interactive_) {
        const std::uint64_t shutdowns = cluster_.emergencyShutdowns();
        if (shutdowns > emergencyShutdownsSeen_) {
            interactive_->dropInFlight((shutdowns -
                                        emergencyShutdownsSeen_) *
                                       cfg_.node.vmSlots);
            emergencyShutdownsSeen_ = shutdowns;
        }
        interactive::RequestStepInputs ri;
        ri.now = now;
        ri.dt = dt;
        const unsigned active = cluster_.activeVms();
        const unsigned pre =
            infoCmd_.mode == interactive::ServeMode::Precompute
                ? std::min(infoCmd_.precomputeVms, active)
                : 0;
        ri.serveVms = active - pre;
        ri.precomputeVms = pre;
        ri.duty =
            cluster_.nodeCount() ? cluster_.node(0).dutyCycle() : 1.0;
        ri.powered = !failed;
        ri.mode = infoCmd_.mode;
        ri.shedMisses = infoCmd_.shedMisses;
        interactive_->step(ri);
    }

    // 6. Gauges.
    if (capacityWhCache_ < 0.0)
        capacityWhCache_ = array_.capacityWh();
    const WattHours cap = capacityWhCache_;
    storedGauge_.set(now, cap > 0.0 ? array_.storedEnergyWh() / cap : 0.0);
    const bool pending = queue_.backlog() > 1e-9;
    const bool productive = cluster_.anyProductive();
    pendingGauge_.set(now, pending ? 1.0 : 0.0);
    upPendingGauge_.set(now, pending && productive ? 1.0 : 0.0);

    if (observer_) {
        TickSample s;
        s.now = now;
        s.dt = dt;
        s.solarPower = pg;
        s.loadPower = pl;
        s.directPower = direct;
        s.bufferDischargePower = dr.deliveredPower;
        s.secondaryPower = secondary;
        s.chargePower = charge_used;
        s.dischargeAh = dr.throughputAh;
        s.chargeStoredAh = charge_stored;
        s.unitAhBefore = obsAhBefore;
        s.unitAhAfter = array_.totalUnitAh();
        const AmpHours exoTotal = array_.totalExogenousAh();
        s.exogenousPreTickAh = obsExoPre;
        s.exogenousInTickAh = exoTotal - exoAhSeen_ - obsExoPre;
        exoAhSeen_ = exoTotal;
        s.powerFailed = failed;
        s.activeVms = cluster_.activeVms();
        s.backlogGb = queue_.backlog();
        s.productive = productive;
        s.array = &array_;
        s.config = &cfg_;
        s.chargePlan = &chargePlan_;
        s.interactive = interactive_ ? &*interactive_ : nullptr;
        observer_->onTick(s);
    }
}

void
InSituSystem::telemetryTick(Seconds now)
{
    monitor_.sample(now, lastCurrents_);

    // Live SLO registers for the digital twin. Deterministic (the
    // tracker is plant state), so the register file stays bit-identical
    // across worker-thread counts and snapshot restores.
    if (interactive_) {
        const interactive::SloTracker &t = interactive_->tracker();
        const double p99_ms = t.percentile(0.99) * 1000.0;
        registers_.write(
            telemetry::RegisterLayout::sloP99Ms,
            static_cast<std::uint16_t>(
                std::lround(std::min(p99_ms, 65535.0))));
        registers_.write(
            telemetry::RegisterLayout::sloQueueDepth,
            static_cast<std::uint16_t>(
                std::min<std::uint64_t>(interactive_->queued(), 65535)));
        const double cap = cfg_.interactive->storeCapacity;
        const double fill =
            cap > 0.0 ? interactive_->storeFill() / cap : 0.0;
        registers_.write(
            telemetry::RegisterLayout::sloStoreFill,
            static_cast<std::uint16_t>(
                std::lround(std::clamp(fill, 0.0, 1.0) * 1000.0)));
        const double miss = t.deadlineMissRate();
        registers_.write(
            telemetry::RegisterLayout::sloMissRate,
            static_cast<std::uint16_t>(
                std::lround(std::clamp(miss, 0.0, 1.0) * 10000.0)));
    }
}

SystemView
InSituSystem::buildView(Seconds now) const
{
    SystemView view;
    view.now = now;
    view.solarPower = solar_->availablePower();
    view.solarPowerAvg = solarAvgWindow_ > 0.0
                             ? solarAvgAccumWs_ / solarAvgWindow_
                             : view.solarPower;
    view.solarForecastAvg = solar_->forecastAvg(
        std::fmod(now, units::secPerDay), units::hours(4.0));
    view.loadPower = cluster_.power();
    view.seriesPerCabinet = cfg_.seriesCount;
    // The sensed values travel over the Modbus link, like the
    // prototype's coordination node <-> control panel exchange; a failed
    // exchange leaves the controller acting on its last good snapshot.
    const auto readings = link_->readAll(array_.cabinetCount());
    view.cabinets.resize(array_.cabinetCount());
    for (unsigned i = 0; i < array_.cabinetCount(); ++i) {
        auto &cv = view.cabinets[i];
        cv.voltage = readings[i].voltage;
        cv.current = readings[i].current;
        cv.soc = readings[i].soc;
        cv.mode = array_.cabinet(i).mode();
        cv.dischargeThroughputAh = history_.total(i);
        cv.capacityWh = array_.cabinet(i).capacityWh();
        cv.chargeRelayClosed = readings[i].chargeRelayClosed;
        cv.dischargeRelayClosed = readings[i].dischargeRelayClosed;
        cv.fresh = readings[i].fresh;
    }
    view.activeVms = cluster_.activeVms();
    view.totalVmSlots = cluster_.totalVmSlots();
    view.dutyCycle =
        cluster_.nodeCount() ? cluster_.node(0).dutyCycle() : 1.0;
    view.backlog = queue_.backlog();
    view.oldestJobAge = queue_.oldestAge(now);
    view.workloadKind = cfg_.profile.kind;
    view.peakChargePower = cabinetPeakChargePower();
    view.lastPowerFailureAge =
        lastPowerFailure_ >= 0.0 ? now - lastPowerFailure_ : 1e18;
    view.secondaryCapacity =
        cfg_.secondary ? cfg_.secondary->capacity : 0.0;
    if (interactive_)
        view.interactive = interactive_->view(now);
    return view;
}

void
InSituSystem::controlTick(Seconds now)
{
    const SystemView view = buildView(now);
    const ControlActions act = manager_->control(view);

    if (observer_) {
        ControlSample s;
        s.view = &view;
        s.actions = &act;
        observer_->onControl(s);
    }

    // Apply cabinet modes.
    if (act.cabinetModes.size() == array_.cabinetCount()) {
        for (unsigned i = 0; i < array_.cabinetCount(); ++i) {
            if (array_.cabinet(i).mode() != act.cabinetModes[i])
                array_.cabinet(i).setMode(act.cabinetModes[i]);
        }
    }
    chargePlan_ = act.chargePlan;
    infoCmd_ = act.infoBattery;

    // Apply load controls.
    cluster_.setDutyCycle(act.dutyCycle);
    if (act.checkpointShutdown)
        cluster_.setTargetVms(0);
    else
        cluster_.setTargetVms(act.targetVms);

    // Power-control accounting for the daily log.
    const std::uint64_t actions = manager_->powerCtrlActions();
    log_.countPowerCtrl(actions - lastMgrActions_);
    lastMgrActions_ = actions;

    solarAvgAccumWs_ = 0.0;
    solarAvgWindow_ = 0.0;
    lastControl_ = now;
}

Metrics
InSituSystem::metrics() const
{
    const Seconds now = sim().now();
    Metrics m;
    const double pending_time =
        pendingGauge_.integral(now);
    const double up_pending = upPendingGauge_.integral(now);
    m.uptime = pending_time > 0.0 ? up_pending / pending_time : 1.0;
    const double hours = units::toHours(std::max(1.0, now));
    m.throughputGbPerHour = queue_.processedGb() / hours;
    m.meanLatency = queue_.meanEffectiveDelay(now);
    m.eBufferAvailability = storedGauge_.average(now);
    m.serviceLifeYears = array_.projectedLifeYears(now);
    m.perfPerAh =
        queue_.processedGb() / std::max(1.0, throughputAh_);

    // Work-normalised life: wear per processed GB extrapolated to the full
    // arriving volume.
    const double days = now / units::secPerDay;
    const double daily_gb =
        days > 0.0 ? queue_.arrivedGb() / days : 0.0;
    const double calendar = cfg_.battery.calendarLifeYears;
    if (queue_.processedGb() > 1e-9 && daily_gb > 1e-9 &&
        throughputAh_ > 1e-9) {
        const double ah_per_gb = throughputAh_ / queue_.processedGb();
        const double ah_per_day = ah_per_gb * daily_gb;
        const double lifetime_ah =
            cfg_.battery.lifetimeThroughputAh * array_.cabinetCount();
        m.workNormalizedLifeYears =
            std::min(calendar,
                     lifetime_ah / ah_per_day / units::daysPerYear);
    } else {
        m.workNormalizedLifeYears =
            queue_.arrivedGb() > 1e-9 && queue_.processedGb() <= 1e-9
                ? 0.0 // data arrived, none processed: useless buffer
                : calendar;
    }
    m.processedGb = queue_.processedGb();
    m.solarOfferedKwh = offeredWh_ / 1000.0;
    m.greenUsedKwh = greenUsedWh_ / 1000.0;
    m.loadKwh = loadWh_ / 1000.0;
    m.effectiveKwh = effectiveWh_ / 1000.0;
    m.secondaryKwh = secondaryWh_ / 1000.0;
    m.bufferThroughputAh = throughputAh_;
    m.bufferImbalanceAh = history_.imbalance();
    m.bufferTrips = bufferTrips_;
    m.emergencyShutdowns = cluster_.emergencyShutdowns();
    m.onOffCycles = cluster_.onOffCycles();
    m.vmCtrlOps = cluster_.vmControlOps();
    m.powerCtrlOps = manager_->powerCtrlActions();
    return m;
}

telemetry::DailyLogSummary
InSituSystem::dailySummary() const
{
    telemetry::DailyLog log = log_;
    log.finalize(cluster_.onOffCycles(), cluster_.vmControlOps(),
                 monitor_.minUnitVoltage() * cfg_.seriesCount,
                 monitor_.lastMeanVoltage(), monitor_.voltageSigma(),
                 queue_.completedGb());
    return log.summary();
}


void
InSituSystem::save(snapshot::Archive &ar) const
{
    ar.section("in_situ_system");

    // Plant sub-components, construction order.
    solar_->save(ar);
    array_.save(ar);
    registers_.save(ar);
    monitor_.save(ar);
    plc_.save(ar);
    link_->save(ar);
    history_.save(ar);
    cluster_.save(ar);
    queue_.save(ar);
    ar.putBool(batchSrc_.has_value());
    if (batchSrc_)
        batchSrc_->save(ar);
    ar.putBool(streamSrc_.has_value());
    if (streamSrc_)
        streamSrc_->save(ar);
    ar.putBool(interactive_.has_value());
    if (interactive_)
        interactive_->save(ar);
    manager_->save(ar);

    // Controller and accumulator state.
    ar.putSize(chargePlan_.cabinets.size());
    for (unsigned i : chargePlan_.cabinets)
        ar.putU32(i);
    ar.putBool(chargePlan_.splitEvenly);
    ar.putEnum(infoCmd_.mode);
    ar.putU32(infoCmd_.precomputeVms);
    ar.putBool(infoCmd_.shedMisses);
    ar.putU64(emergencyShutdownsSeen_);
    ar.putF64Vec(lastCurrents_);
    ar.putF64(lastControl_);
    ar.putF64(solarAvgAccumWs_);
    ar.putF64(solarAvgWindow_);
    ar.putU64(lastMgrActions_);
    storedGauge_.save(ar);
    pendingGauge_.save(ar);
    upPendingGauge_.save(ar);
    ar.putF64(offeredWh_);
    ar.putF64(greenUsedWh_);
    ar.putF64(loadWh_);
    ar.putF64(effectiveWh_);
    ar.putF64(throughputAh_);
    ar.putF64(secondaryWh_);
    ar.putF64(secondaryRunningSince_);
    ar.putF64(secondaryLastNeeded_);
    ar.putU64(bufferTrips_);
    ar.putU64(powerFailures_);
    ar.putF64(lastPowerFailure_);
    ar.putBool(powerFailedLastTick_);
    ar.putF64(exoAhSeen_);
    ar.putF64(lostVmHoursSeen_);
    log_.save(ar);
    ar.putBool(trace_.has_value());
    if (trace_)
        trace_->save(ar);

    // Periodic drivers: clock phase of each pending fire.
    physicsTask_->save(ar);
    telemetryTask_->save(ar);
    controlTask_->save(ar);
    ar.putBool(traceTask_ != nullptr);
    if (traceTask_)
        traceTask_->save(ar);
}

void
InSituSystem::load(snapshot::Archive &ar)
{
    ar.section("in_situ_system");

    solar_->load(ar);
    array_.load(ar);
    registers_.load(ar);
    monitor_.load(ar);
    plc_.load(ar);
    link_->load(ar);
    history_.load(ar);
    cluster_.load(ar);
    queue_.load(ar);
    if (ar.getBool() != batchSrc_.has_value())
        throw snapshot::SnapshotError(
            "InSituSystem: batch-source presence differs from snapshot");
    if (batchSrc_)
        batchSrc_->load(ar);
    if (ar.getBool() != streamSrc_.has_value())
        throw snapshot::SnapshotError(
            "InSituSystem: stream-source presence differs from snapshot");
    if (streamSrc_)
        streamSrc_->load(ar);
    if (ar.getBool() != interactive_.has_value())
        throw snapshot::SnapshotError(
            "InSituSystem: interactive-workload presence differs from "
            "snapshot");
    if (interactive_)
        interactive_->load(ar);
    manager_->load(ar);

    chargePlan_.cabinets.assign(ar.getSize(), 0);
    for (unsigned &i : chargePlan_.cabinets)
        i = ar.getU32();
    chargePlan_.splitEvenly = ar.getBool();
    infoCmd_.mode = ar.getEnum<interactive::ServeMode>(
        static_cast<std::uint32_t>(interactive::ServeMode::CacheServe));
    infoCmd_.precomputeVms = ar.getU32();
    infoCmd_.shedMisses = ar.getBool();
    emergencyShutdownsSeen_ = ar.getU64();
    lastCurrents_ = ar.getF64Vec();
    lastControl_ = ar.getF64();
    solarAvgAccumWs_ = ar.getF64();
    solarAvgWindow_ = ar.getF64();
    lastMgrActions_ = ar.getU64();
    storedGauge_.load(ar);
    pendingGauge_.load(ar);
    upPendingGauge_.load(ar);
    offeredWh_ = ar.getF64();
    greenUsedWh_ = ar.getF64();
    loadWh_ = ar.getF64();
    effectiveWh_ = ar.getF64();
    throughputAh_ = ar.getF64();
    secondaryWh_ = ar.getF64();
    secondaryRunningSince_ = ar.getF64();
    secondaryLastNeeded_ = ar.getF64();
    bufferTrips_ = ar.getU64();
    powerFailures_ = ar.getU64();
    lastPowerFailure_ = ar.getF64();
    powerFailedLastTick_ = ar.getBool();
    exoAhSeen_ = ar.getF64();
    lostVmHoursSeen_ = ar.getF64();
    log_.load(ar);
    if (ar.getBool()) {
        if (!trace_)
            throw snapshot::SnapshotError(
                "InSituSystem: snapshot has a trace but tracing is not "
                "enabled (call enableTrace before load)");
        trace_->load(ar);
    } else if (trace_) {
        throw snapshot::SnapshotError(
            "InSituSystem: tracing enabled but snapshot has no trace");
    }

    physicsTask_->load(ar);
    telemetryTask_->load(ar);
    controlTask_->load(ar);
    if (ar.getBool()) {
        if (!traceTask_)
            throw snapshot::SnapshotError(
                "InSituSystem: snapshot has a trace task but tracing is "
                "not enabled");
        traceTask_->load(ar);
    }
}
} // namespace insure::core
