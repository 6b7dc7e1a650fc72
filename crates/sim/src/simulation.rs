//! The tick loop: trace → agents → controller → breaker → metrics.

use recharge_core::{ChargeIndex, SlaTable};
use recharge_dynamo::{
    AgentBus, Controller, ControllerConfig, ControllerReport, FleetBackend, PowerReading,
    SimRackAgent,
};
use recharge_power::{Breaker, BreakerStatus};
use recharge_telemetry::{flight, tcounter, tgauge, tspan, FlightKind, ReasonCode};
use recharge_trace::{LoadAt, RackPowerTrace, SyntheticFleet};
use recharge_units::{DeviceId, Priority, RackId, RackMap, Seconds, SimTime, Watts};

use crate::metrics::{RackSlaOutcome, RunMetrics, SeriesPoint};
use crate::scenario::Scenario;

/// A runnable fleet simulation built from a [`Scenario`].
///
/// The open transition is injected at the first diurnal peak of the trace
/// (§V-B: "we simulate open transitions at the first peak in the trace as
/// this is when the available power for battery recharging is most
/// constrained"), and the run continues until every battery is fully charged
/// or the horizon expires.
pub struct FleetSimulation {
    scenario: Scenario,
    fleet: SyntheticFleet,
    mitigated: bool,
}

struct ChargeTrack {
    started: SimTime,
    priority: Priority,
    dod: recharge_units::Dod,
}

impl FleetSimulation {
    pub(crate) fn new(scenario: Scenario, fleet: SyntheticFleet) -> Self {
        FleetSimulation {
            scenario,
            fleet,
            mitigated: true,
        }
    }

    /// Disables the Dynamo controller entirely — no coordination, no capping.
    /// Used to demonstrate what the recharge spike does to an unprotected
    /// breaker (it trips).
    #[must_use]
    pub fn without_mitigation(mut self) -> Self {
        self.mitigated = false;
        self
    }

    /// The scenario this simulation will run.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Runs the simulation to completion and reports its metrics.
    ///
    /// When the `RECHARGE_TRACE` environment variable names a file path,
    /// telemetry is enabled for the run and a Chrome-trace JSON of every
    /// recorded span is written there when the outermost traced scope ends —
    /// including by unwind, so an aborted run still flushes its partial
    /// per-thread span buffers into a valid trace file. When
    /// `RECHARGE_BLACKBOX` names a path, a breaker trip, the first SLA miss,
    /// or a panic dumps the flight-recorder journal there. Instrumentation
    /// only reads clocks — the returned [`RunMetrics`] are bit-identical
    /// with telemetry and the flight recorder on or off.
    #[must_use]
    pub fn run(self) -> RunMetrics {
        let _trace = recharge_telemetry::env_trace_scope();
        if recharge_telemetry::env_blackbox_path().is_some() {
            recharge_telemetry::install_panic_blackbox_hook();
        }
        let metrics = self.run_inner();
        metrics.publish_sla_gauges();
        metrics
    }

    fn run_inner(&self) -> RunMetrics {
        let _run_span = tspan!("sim.run", "sim");
        let sla = SlaTable::table2();
        let tick = self.scenario.tick;

        // Place the open transition at the first diurnal peak.
        let ot_start = self.fleet.diurnal().first_peak_after(SimTime::ZERO);
        let rack_count = self.fleet.fleet().len();
        let mean_rack_load = self.fleet.aggregate_power(ot_start) / rack_count as f64;
        let ot_duration = self.scenario.ot_duration_for(mean_rack_load);
        let ot_end = ot_start + ot_duration;

        // Build the agents.
        let load_zero = self.fleet.load_at(SimTime::ZERO);
        let agents: Vec<SimRackAgent> = self
            .fleet
            .fleet()
            .iter()
            .map(|entry| {
                SimRackAgent::builder(entry.rack, entry.priority)
                    .charge_policy(self.scenario.charge_policy)
                    .offered_load(self.fleet.rack_power_at(&load_zero, entry.rack))
                    .build()
            })
            .collect();
        // Where the agents execute — the serial oracle, the SoA engine
        // (dense or event, inline or on shard workers), or hosted behind the
        // RPC mesh — is a pluggable [`FleetBackend`]; every backend runs the
        // identical sub-step schedule, so metrics are bit-identical across
        // them (for the mesh: under a clean link).
        //
        // How the controller reads the fleet is decided here too. In process,
        // `readings()` returns exactly the rows the controller's own gather
        // would read, since nothing in a run disconnects a rack, so the
        // controller decides on the simulator's rows and each interval reads
        // the fleet once. The mesh's controller sees the wire snapshot, not
        // host truth, so it keeps reading through its bus.
        let (mut backend, decide): (Box<dyn FleetBackend>, Decide) = match &self.scenario.rpc {
            Some(mesh) => (
                recharge_net::spawn_mesh(agents, mesh, None)
                    .expect("spawning the RPC mesh backend"),
                |controller, now, _, bus| controller.tick(now, bus),
            ),
            None => (
                self.scenario.backend.build(agents),
                |controller, now, rows, bus| controller.tick_on(now, rows, bus),
            ),
        };
        let mut config = ControllerConfig::new(DeviceId::new(0), self.scenario.power_limit);
        if self.scenario.allow_postponing {
            config = config.with_postponing();
        }
        let mut controller = Controller::new(config.clone(), self.scenario.strategy);
        // The hot-standby control plane, when the scenario asks for one.
        // Faults and leases run on the simulation-tick clock (the same clock
        // `FaultClock` uses), so chaos schedules line up across layers.
        let mut ha_set =
            self.scenario.ha.as_ref().map(|ha| {
                recharge_ha::ControllerSet::new(config, self.scenario.strategy, ha.clone())
            });
        let mut breaker = Breaker::new(self.scenario.power_limit);

        let mut t = ot_start - self.scenario.warmup;
        let hard_end = ot_end + self.scenario.max_horizon;
        let sample_every = self.scenario.sample_every;
        let mut next_sample = t;

        let mut series = Vec::new();
        let mut max_total = Watts::ZERO;
        let mut max_recharge = Watts::ZERO;
        let mut max_capped = Watts::ZERO;
        let mut it_before_ot = Watts::ZERO;
        let mut tripped = false;
        let mut tracks: RackMap<ChargeTrack> = RackMap::default();
        let mut outcomes: Vec<RackSlaOutcome> = Vec::new();

        // Between two controller interventions the run performs
        // `control_every` physical sub-steps. The schedule — per-sub-step
        // load frames and input-power states — is computed here by the same
        // repeated-addition recurrence regardless of backend, so the float
        // sequence every agent sees is structurally identical whether the
        // schedule executes serially, sharded per tick, or as one batch.
        // One frame per sub-step holds what every rack's load shares, so
        // each rack's load costs only its own hash and product.
        let control_every = self.scenario.control_every;
        let mut frames: Vec<LoadAt> = Vec::with_capacity(control_every);
        let mut input_power: Vec<bool> = Vec::with_capacity(control_every);

        // Control interval `due` covers sim ticks
        // [due * control_every, (due + 1) * control_every).
        for due in 0u64.. {
            let _tick_span = tspan!("sim.tick", "sim");
            tcounter!("sim.ticks").add(control_every as u64);
            frames.clear();
            input_power.clear();
            let mut t_sub = t;
            // The controller observes the fleet at the interval's last
            // sub-step; commands flush at this schedule boundary.
            let mut now = t;
            for _ in 0..control_every {
                let in_ot = t_sub >= ot_start && t_sub < ot_end;
                frames.push(self.fleet.load_at(t_sub));
                input_power.push(!in_ot);
                now = t_sub;
                t_sub += tick;
            }
            // Anchor ambient flight-recorder time even when no controller
            // runs (unmitigated ticks).
            recharge_telemetry::set_flight_now(now.as_secs());

            // Drive the physical layer through the whole schedule.
            backend.step_schedule(tick, &input_power, &|rack, i| {
                self.fleet.rack_power_at(&frames[i], rack)
            });
            let readings = backend.readings();

            // Control plane (or raw aggregation when unmitigated): the HA
            // set's leader or the simulator's own controller drives the bus.
            let (it_load, recharge, capped) = if self.mitigated {
                if let Some(set) = ha_set.as_mut() {
                    // The interval ends at sim tick (due + 1) * control_every;
                    // that is the instant the leader's lease renews.
                    let tick_now = (due + 1) * control_every as u64;
                    match set.tick(tick_now, now, backend.bus_mut()) {
                        Some(report) => {
                            (report.it_load, report.recharge_power, report.capped_power)
                        }
                        // Leaderless gap: nobody may command, so this
                        // interval degrades to monitoring-only aggregation,
                        // exactly like an unmitigated tick.
                        None => monitor_only(&readings),
                    }
                } else {
                    let report = decide(&mut controller, now, &readings, backend.bus_mut());
                    (report.it_load, report.recharge_power, report.capped_power)
                }
            } else {
                monitor_only(&readings)
            };
            let total = it_load + recharge;

            if breaker.observe(total, now) == BreakerStatus::Tripped {
                if !tripped {
                    // First trip: dump the flight journal if configured.
                    let _ = recharge_telemetry::trigger_blackbox("breaker_trip");
                }
                tripped = true;
            }
            tgauge!("power.breaker_headroom_w").set(breaker.available_power(total).as_watts());
            // Export the analytic trip horizon when one exists (a finite
            // lower bound only arises once the draw could sustain a trip).
            if let Some(horizon) = breaker.next_possible_trip_time(now, total) {
                tgauge!("power.breaker_trip_horizon_s").set(horizon.as_secs());
            }

            // Bookkeeping.
            if now < ot_start {
                it_before_ot = total;
            }
            max_total = max_total.max(total);
            max_recharge = max_recharge.max(recharge);
            max_capped = max_capped.max(capped);
            if now >= next_sample {
                series.push(SeriesPoint {
                    at: now,
                    it_load,
                    recharge_power: recharge,
                    capped_power: capped,
                });
                next_sample = now + sample_every;
            }

            // Track charge starts and completions from the telemetry the
            // control plane itself sees, so the bookkeeping is identical
            // across backends.
            let mut all_settled = true;
            for reading in &readings {
                match reading.bbu_state {
                    recharge_battery::BbuState::Charging => {
                        all_settled = false;
                        tracks.entry(reading.rack).or_insert(ChargeTrack {
                            started: now,
                            priority: reading.priority,
                            dod: reading.event_dod,
                        });
                    }
                    // With nothing tracked (the whole warmup, and every
                    // settled stretch after), there is no track to close.
                    recharge_battery::BbuState::FullyCharged if tracks.is_empty() => {}
                    recharge_battery::BbuState::FullyCharged => {
                        if let Some(track) = tracks.remove(&reading.rack) {
                            let duration = now - track.started;
                            let budget = sla.charge_time_budget(track.priority);
                            let sla_met = duration <= budget;
                            flight(
                                FlightKind::SlaOutcome,
                                if sla_met {
                                    ReasonCode::SlaMet
                                } else {
                                    ReasonCode::SlaMissed
                                },
                                reading.rack.index(),
                                track.priority.rank(),
                                ChargeIndex::dod_bucket(track.dod),
                                duration.as_secs().to_bits(),
                                budget.as_secs().to_bits(),
                            );
                            if !sla_met {
                                let _ = recharge_telemetry::trigger_blackbox("sla_miss");
                            }
                            outcomes.push(RackSlaOutcome {
                                rack: reading.rack,
                                priority: track.priority,
                                event_dod: track.dod,
                                charge_duration: Some(duration),
                                sla_met,
                            });
                        }
                    }
                    _ => all_settled = false,
                }
            }

            t = t_sub;
            if tripped || (t >= ot_end + Seconds::new(60.0) && all_settled) || t >= hard_end {
                break;
            }
        }

        // Racks that never completed within the horizon miss their SLA. They
        // are journaled in rack order, so nothing depends on hash order.
        let mut unfinished: Vec<(RackId, ChargeTrack)> = tracks.into_iter().collect();
        unfinished.sort_unstable_by_key(|&(rack, _)| rack);
        for (rack, track) in unfinished {
            recharge_telemetry::flight_at(
                t.as_secs(),
                FlightKind::SlaOutcome,
                ReasonCode::SlaMissed,
                rack.index(),
                track.priority.rank(),
                ChargeIndex::dod_bucket(track.dod),
                f64::INFINITY.to_bits(),
                sla.charge_time_budget(track.priority).as_secs().to_bits(),
            );
            let _ = recharge_telemetry::trigger_blackbox("sla_miss");
            outcomes.push(RackSlaOutcome {
                rack,
                priority: track.priority,
                event_dod: track.dod,
                charge_duration: None,
                sla_met: false,
            });
        }
        outcomes.sort_by_key(|o| o.rack);

        RunMetrics {
            series,
            power_limit: self.scenario.power_limit,
            max_total_draw: max_total,
            max_recharge_power: max_recharge,
            max_capped_power: max_capped,
            it_load_before_ot: it_before_ot,
            breaker_tripped: tripped,
            rack_outcomes: outcomes,
            ot_start,
            ot_duration,
        }
    }
}

/// One control interval of the simulator's own controller, given the rows
/// the simulator read: [`Controller::tick`] or [`Controller::tick_on`].
type Decide = fn(&mut Controller, SimTime, &[PowerReading], &mut dyn AgentBus) -> ControllerReport;

/// Monitoring-only aggregation for an interval no controller commands (an
/// unmitigated run, or an HA leaderless gap): IT load and recharge draw of
/// the powered racks, summed in fleet order, with nothing capped.
fn monitor_only(readings: &[PowerReading]) -> (Watts, Watts, Watts) {
    let mut it = Watts::ZERO;
    let mut re = Watts::ZERO;
    for reading in readings {
        if reading.input_power_present {
            it += reading.it_load;
            re += reading.recharge_power;
        }
    }
    (it, re, Watts::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::DischargeLevel;
    use recharge_battery::ChargePolicy;
    use recharge_dynamo::Strategy;

    /// A small fleet keeps the (debug-build) tests quick.
    fn small(strategy: Strategy, limit_kw: f64) -> Scenario {
        Scenario::row(3, 2, 2, 7)
            .power_limit(Watts::from_kilowatts(limit_kw))
            .strategy(strategy)
            .discharge(DischargeLevel::Low)
            .tick(Seconds::new(1.0))
            .max_horizon(Seconds::from_hours(2.5))
    }

    #[test]
    fn ample_power_run_charges_everyone_within_sla() {
        let metrics = small(Strategy::PriorityAware, 190.0).build().run();
        assert!(!metrics.breaker_tripped);
        assert_eq!(metrics.max_capped_power, Watts::ZERO);
        assert_eq!(metrics.rack_outcomes.len(), 7);
        assert_eq!(
            metrics.total_sla_met(),
            7,
            "outcomes: {:?}",
            metrics.rack_outcomes
        );
        // DOD landed near the low-discharge target.
        assert!((metrics.mean_event_dod().value() - 0.30).abs() < 0.06);
    }

    #[test]
    fn spike_is_visible_in_series() {
        let metrics = small(Strategy::Uncoordinated, 190.0)
            .charge_policy(ChargePolicy::Original)
            .build()
            .run();
        assert!(metrics.max_recharge_power > Watts::ZERO);
        // Original charger: 7 racks × ≈1.9 kW ≈ 13 kW spike.
        assert!(
            (10.0..16.0).contains(&metrics.spike_magnitude().as_kilowatts()),
            "spike {}",
            metrics.spike_magnitude()
        );
        // The series actually contains the spike.
        let peak_point = metrics
            .series
            .iter()
            .map(|p| p.recharge_power.as_kilowatts())
            .fold(0.0, f64::max);
        assert!(peak_point > 10.0);
    }

    #[test]
    fn variable_charger_reduces_spike_versus_original() {
        let original = small(Strategy::Uncoordinated, 190.0)
            .charge_policy(ChargePolicy::Original)
            .build()
            .run();
        let variable = small(Strategy::Uncoordinated, 190.0)
            .charge_policy(ChargePolicy::Variable)
            .build()
            .run();
        let ratio = original.spike_magnitude() / variable.spike_magnitude();
        // §III-B: ~60% reduction at low discharge (<50% DOD) ⇒ ratio ≈ 2.5.
        assert!((1.8..3.2).contains(&ratio), "spike ratio {ratio:.2}");
    }

    #[test]
    fn tight_limit_forces_capping_for_original_but_not_priority_aware() {
        // Limit barely above the IT load: the original charger must overflow
        // it, priority-aware coordination must not.
        let probe = small(Strategy::PriorityAware, 190.0).build().run();
        let it_peak = probe.it_load_before_ot;
        // Headroom above the 1 A minimum fleet draw (7 × ≈0.37 kW) but far
        // below the original charger's ≈13 kW spike.
        let limit_kw = it_peak.as_kilowatts() + 3.6;

        let original = small(Strategy::Uncoordinated, limit_kw)
            .charge_policy(ChargePolicy::Original)
            .build()
            .run();
        assert!(original.max_capped_power > Watts::ZERO, "original must cap");

        let aware = small(Strategy::PriorityAware, limit_kw).build().run();
        assert_eq!(
            aware.max_capped_power,
            Watts::ZERO,
            "priority-aware must avoid capping (max draw {} vs limit {})",
            aware.max_total_draw,
            aware.power_limit
        );
        assert!(!aware.breaker_tripped);
    }

    #[test]
    fn unmitigated_overload_trips_the_breaker() {
        // No Dynamo at all and a limit low enough that the recharge spike
        // exceeds 130% of it for 30 s.
        let probe = small(Strategy::PriorityAware, 190.0).build().run();
        let limit_kw = probe.it_load_before_ot.as_kilowatts() * 0.85;
        let metrics = small(Strategy::Uncoordinated, limit_kw)
            .charge_policy(ChargePolicy::Original)
            .build()
            .without_mitigation()
            .run();
        assert!(
            metrics.breaker_tripped,
            "max draw {}",
            metrics.max_total_draw
        );
    }

    #[test]
    fn priority_aware_beats_global_under_pressure() {
        // Medium discharge with tight headroom: the priority-aware algorithm
        // must satisfy at least as many P1 racks as the global baseline.
        let probe = small(Strategy::PriorityAware, 190.0)
            .discharge(DischargeLevel::Medium)
            .build()
            .run();
        let limit_kw = probe.it_load_before_ot.as_kilowatts() + 4.0;

        let aware = small(Strategy::PriorityAware, limit_kw)
            .discharge(DischargeLevel::Medium)
            .build()
            .run();
        let global = small(Strategy::Global, limit_kw)
            .discharge(DischargeLevel::Medium)
            .build()
            .run();
        let aware_p1 = aware.sla_summary(Priority::P1);
        let global_p1 = global.sla_summary(Priority::P1);
        assert!(
            aware_p1.met >= global_p1.met,
            "P1 met: aware {} vs global {}",
            aware_p1.met,
            global_p1.met
        );
        assert!(
            aware_p1.met > 0,
            "aware should protect at least one P1 rack"
        );
    }

    #[test]
    fn sharded_backend_matches_in_memory() {
        // `soa_sharded(n)` only moves stepping onto worker threads; the
        // physics, controller decisions, and bookkeeping must be identical.
        let base = small(Strategy::PriorityAware, 190.0);
        let serial = base.clone().build().run();
        for shards in [1, 3] {
            let sharded = base.clone().soa_sharded(shards).build().run();
            assert_eq!(sharded, serial, "diverged with {shards} shards");
        }
    }

    #[test]
    fn event_backend_matches_in_memory() {
        // The event-driven backend only changes *which* rack sub-steps
        // execute, never their results: RunMetrics must be bit-identical.
        let base = small(Strategy::PriorityAware, 190.0);
        let serial = base.clone().build().run();
        let event = base.clone().event_driven().build().run();
        assert_eq!(event, serial, "event-driven run diverged from serial");
        // And with a longer control interval (bigger batches to skip within).
        let serial5 = base.clone().control_every(5).build().run();
        let event5 = base.clone().control_every(5).event_driven().build().run();
        assert_eq!(event5, serial5, "event-driven diverged at control_every=5");
    }

    #[test]
    fn degenerate_shard_counts_clamp_to_the_fleet() {
        // `soa_sharded(0)` and `soa_sharded(99)` (more shards than the 7
        // racks) must clamp to [1, rack_count] at build and run identically
        // to serial — no panic, no idle-worker divergence.
        let base = small(Strategy::PriorityAware, 190.0);
        let serial = base.clone().build().run();
        for shards in [0, 99] {
            let clamped = base.clone().soa_sharded(shards).build().run();
            assert_eq!(clamped, serial, "diverged with {shards} requested shards");
        }
    }

    #[test]
    fn ot_duration_hits_target_dod() {
        for (level, target) in [
            (DischargeLevel::Low, 0.30),
            (DischargeLevel::Medium, 0.50),
            (DischargeLevel::High, 0.70),
        ] {
            let metrics = small(Strategy::PriorityAware, 190.0)
                .discharge(level)
                .build()
                .run();
            let mean = metrics.mean_event_dod().value();
            assert!(
                (mean - target).abs() < 0.07,
                "{level:?}: mean DOD {mean:.3} vs target {target}"
            );
        }
    }
}
