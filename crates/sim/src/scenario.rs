//! Scenario description: everything one simulated experiment needs.

use serde::{Deserialize, Serialize};

use recharge_battery::ChargePolicy;
use recharge_dynamo::{FleetBackendKind, Strategy};
use recharge_ha::HaConfig;
use recharge_net::RpcMeshConfig;
use recharge_trace::{DiurnalModel, SyntheticFleet, SyntheticFleetBuilder};
use recharge_units::{Seconds, Watts};

use crate::simulation::FleetSimulation;

/// The three battery-discharge levels of §V-B1, defined by the average BBU
/// depth of discharge the open transition should produce.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DischargeLevel {
    /// ≈30% average DOD.
    Low,
    /// ≈50% average DOD.
    Medium,
    /// ≈70% average DOD.
    High,
    /// A custom average DOD fraction.
    Custom(f64),
}

impl DischargeLevel {
    /// The average depth of discharge this level targets.
    #[must_use]
    pub fn target_dod(self) -> f64 {
        match self {
            DischargeLevel::Low => 0.30,
            DischargeLevel::Medium => 0.50,
            DischargeLevel::High => 0.70,
            DischargeLevel::Custom(f) => f.clamp(0.0, 1.0),
        }
    }
}

/// One experiment configuration (builder-style, consumed by
/// [`Scenario::build`]).
#[derive(Debug, Clone)]
pub struct Scenario {
    pub(crate) seed: u64,
    pub(crate) priority_counts: (usize, usize, usize),
    pub(crate) mean_rack_power: Watts,
    pub(crate) power_limit: Watts,
    pub(crate) strategy: Strategy,
    pub(crate) charge_policy: ChargePolicy,
    pub(crate) discharge: DischargeLevel,
    pub(crate) explicit_ot_duration: Option<Seconds>,
    pub(crate) tick: Seconds,
    pub(crate) sample_every: Seconds,
    pub(crate) warmup: Seconds,
    pub(crate) max_horizon: Seconds,
    pub(crate) allow_postponing: bool,
    pub(crate) backend: FleetBackendKind,
    pub(crate) rpc: Option<RpcMeshConfig>,
    pub(crate) control_every: usize,
    pub(crate) ha: Option<HaConfig>,
}

impl Scenario {
    /// The §V-B evaluation scenario: the paper's 316-rack MSB (89 P1 /
    /// 142 P2 / 85 P3) at its 2.5 MW limit, priority-aware coordination,
    /// medium discharge, with the open transition at the first diurnal peak.
    #[must_use]
    pub fn paper_msb(seed: u64) -> Self {
        Scenario {
            seed,
            priority_counts: (89, 142, 85),
            mean_rack_power: Watts::from_kilowatts(6.33),
            power_limit: Watts::from_megawatts(2.5),
            strategy: Strategy::PriorityAware,
            charge_policy: ChargePolicy::Variable,
            discharge: DischargeLevel::Medium,
            explicit_ot_duration: None,
            tick: Seconds::new(1.0),
            sample_every: Seconds::new(5.0),
            warmup: Seconds::new(60.0),
            max_horizon: Seconds::from_hours(3.0),
            allow_postponing: false,
            backend: FleetBackendKind::Serial,
            rpc: None,
            control_every: 1,
            ha: None,
        }
    }

    /// A small prototype-row scenario (Figs 7, 10, 11): `p1`/`p2`/`p3` racks
    /// under a 190 kW RPP.
    #[must_use]
    pub fn row(p1: usize, p2: usize, p3: usize, seed: u64) -> Self {
        let mut s = Scenario::paper_msb(seed);
        s.priority_counts = (p1, p2, p3);
        s.mean_rack_power = Watts::from_kilowatts(6.0);
        s.power_limit = Watts::from_kilowatts(190.0);
        s
    }

    /// Sets the fleet priority mix.
    #[must_use]
    pub fn priority_counts(mut self, p1: usize, p2: usize, p3: usize) -> Self {
        self.priority_counts = (p1, p2, p3);
        self
    }

    /// Sets the mean per-rack IT load.
    #[must_use]
    pub fn mean_rack_power(mut self, mean: Watts) -> Self {
        self.mean_rack_power = mean;
        self
    }

    /// Sets the protected breaker's power limit.
    #[must_use]
    pub fn power_limit(mut self, limit: Watts) -> Self {
        self.power_limit = limit;
        self
    }

    /// Sets the coordination strategy.
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the rack-local charger policy (meaningful mainly for
    /// [`Strategy::Uncoordinated`] runs comparing original vs variable).
    #[must_use]
    pub fn charge_policy(mut self, policy: ChargePolicy) -> Self {
        self.charge_policy = policy;
        self
    }

    /// Sets the battery-discharge level of the injected open transition.
    #[must_use]
    pub fn discharge(mut self, level: DischargeLevel) -> Self {
        self.discharge = level;
        self
    }

    /// Forces an explicit open-transition duration instead of deriving it
    /// from the discharge level.
    #[must_use]
    pub fn open_transition_duration(mut self, duration: Seconds) -> Self {
        self.explicit_ot_duration = Some(duration);
        self
    }

    /// Enables the charge-postponing controller extension (§IV-A future
    /// work): under extreme power constraint, defer low-priority racks
    /// entirely instead of capping servers.
    #[must_use]
    pub fn allow_postponing(mut self) -> Self {
        self.allow_postponing = true;
        self
    }

    /// Runs the fleet on the struct-of-arrays physics kernel
    /// ([`SoaBackend`]): one contiguous array pass per sub-step instead of
    /// per-rack object dispatch. Bit-identical to the object backends; the
    /// campus-scale choice.
    ///
    /// [`SoaBackend`]: recharge_dynamo::SoaBackend
    #[must_use]
    pub fn soa(mut self) -> Self {
        self.backend = FleetBackendKind::Soa;
        self
    }

    /// Like [`soa`](Self::soa), but the arrays are split into `n` contiguous
    /// shards, each stepped on its own persistent worker thread, one
    /// round-trip per schedule. `n` is clamped to `[1, rack_count]` when the
    /// fleet is built. Metrics match the in-memory backend exactly.
    #[must_use]
    pub fn soa_sharded(mut self, n: usize) -> Self {
        self.backend = FleetBackendKind::SoaSharded { shards: n };
        self
    }

    /// Runs the fleet on the SoA engine in event mode
    /// ([`SoaBackend::event`]): quiescent racks fast-forward between events
    /// instead of stepping every tick. Bit-identical to the dense backends;
    /// the cheap choice for long, mostly-idle horizons.
    ///
    /// [`SoaBackend::event`]: recharge_dynamo::SoaBackend::event
    #[must_use]
    pub fn event_driven(mut self) -> Self {
        self.backend = FleetBackendKind::Event;
        self
    }

    /// Like [`event_driven`](Self::event_driven), but the shards step on `n`
    /// persistent worker threads ([`SoaBackend::event_sharded`]).
    /// Bit-identical to every other backend; the choice when the horizon is
    /// mostly idle *and* the fleet is campus-scale.
    ///
    /// [`SoaBackend::event_sharded`]: recharge_dynamo::SoaBackend::event_sharded
    #[must_use]
    pub fn event_sharded(mut self, n: usize) -> Self {
        self.backend = FleetBackendKind::EventSharded { shards: n };
        self
    }

    /// Selects the fleet-execution backend explicitly.
    #[must_use]
    pub fn backend(mut self, backend: FleetBackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Runs controller↔agent coordination over the RPC mesh: agents are
    /// hosted behind real sockets (loopback TCP or Unix-domain per the
    /// config) with the config's deadlines, retries, and optional seeded
    /// fault plan. Overrides [`backend`](Self::backend) — physics stepping
    /// stays local either way, so a clean-link run is bit-identical to the
    /// in-memory backends.
    ///
    /// [`spawn_mesh`] builds a [`ShardedRpcFleetBackend`] from the config:
    /// reads and commands cross the wire as one batch per server per control
    /// tick. The default is one server for the whole fleet; a shard plan
    /// ([`RpcMeshConfig::shard_count`] / `sharded_by_rpp`) runs one server
    /// per shard with concurrent fan-out, still bit-identical under a clean
    /// link; with `with_leaf_control` the leaf tier additionally runs
    /// *inside* each shard's server and only per-group aggregates and
    /// budgets cross the wire.
    ///
    /// [`spawn_mesh`]: recharge_net::spawn_mesh
    /// [`RpcMeshConfig::shard_count`]: recharge_net::RpcMeshConfig::shard_count
    /// [`ShardedRpcFleetBackend`]: recharge_net::ShardedRpcFleetBackend
    #[must_use]
    pub fn rpc(mut self, config: RpcMeshConfig) -> Self {
        self.rpc = Some(config);
        self
    }

    /// Sets how many physical sub-steps run between consecutive controller
    /// interventions (default 1: the controller runs every tick). The
    /// simulated schedule is identical for every backend; a batched backend
    /// collapses the interval into one channel round-trip per shard.
    ///
    /// Zero clamps to 1: the controller can run at most once per tick, and a
    /// zero-length schedule would never step the physics at all.
    #[must_use]
    pub fn control_every(mut self, n: usize) -> Self {
        self.control_every = n.max(1);
        self
    }

    /// Runs the upper control plane as a hot-standby
    /// [`ControllerSet`](recharge_ha::ControllerSet) instead of a single
    /// controller: lease-based leader election, deterministic snapshot
    /// replication, and fenced failover under the process faults carried in
    /// `config`. With no faults injected the run is bit-identical to the
    /// single-controller run (pinned by `tests/ha_soak.rs`).
    #[must_use]
    pub fn ha(mut self, config: HaConfig) -> Self {
        self.ha = Some(config);
        self
    }

    /// Sets the simulation tick (default 1 s).
    ///
    /// # Panics
    ///
    /// Panics if `tick` is not positive.
    #[must_use]
    pub fn tick(mut self, tick: Seconds) -> Self {
        assert!(tick > Seconds::ZERO, "tick must be positive");
        self.tick = tick;
        self
    }

    /// Sets the metrics sampling interval (default 5 s): how often the run
    /// records power/SLA samples into [`RunMetrics`].
    ///
    /// A non-positive interval clamps to 1 s — the densest cadence with a
    /// well-defined meaning (a zero interval would sample forever without
    /// advancing).
    ///
    /// [`RunMetrics`]: crate::metrics::RunMetrics
    #[must_use]
    pub fn sample_every(mut self, interval: Seconds) -> Self {
        self.sample_every = if interval > Seconds::ZERO {
            interval
        } else {
            Seconds::new(1.0)
        };
        self
    }

    /// Sets the pre-transition warmup (default 60 s): how long the run
    /// simulates normal wall-power operation before the open transition
    /// begins. Longer warmups exercise the diurnal trace's quiet stretches —
    /// the regime the event-driven backend fast-forwards.
    #[must_use]
    pub fn warmup(mut self, warmup: Seconds) -> Self {
        self.warmup = warmup.max(Seconds::ZERO);
        self
    }

    /// Sets the post-charge horizon cap (default 3 h past the transition).
    #[must_use]
    pub fn max_horizon(mut self, horizon: Seconds) -> Self {
        self.max_horizon = horizon;
        self
    }

    /// The configured breaker power limit.
    #[must_use]
    pub fn limit(&self) -> Watts {
        self.power_limit
    }

    /// The configured (P1, P2, P3) rack counts.
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize) {
        self.priority_counts
    }

    /// Builds the runnable simulation.
    ///
    /// # Panics
    ///
    /// Panics if the fleet is empty.
    #[must_use]
    pub fn build(self) -> FleetSimulation {
        let fleet: SyntheticFleet = SyntheticFleetBuilder::new(self.seed)
            .priority_counts(
                self.priority_counts.0,
                self.priority_counts.1,
                self.priority_counts.2,
            )
            .mean_rack_power(self.mean_rack_power)
            .diurnal(DiurnalModel::standard())
            // The trace resamples its per-rack noise once per simulation
            // tick; a fixed 3 s hold would silently disagree with any other
            // tick length.
            .noise_tick(self.tick.as_secs())
            .build();
        FleetSimulation::new(self, fleet)
    }

    /// The open-transition duration that produces the target average DOD at
    /// the given mean rack load: each of the six BBUs carries one sixth of
    /// the rack, and 100% DOD is 297 kJ per BBU.
    #[must_use]
    pub(crate) fn ot_duration_for(&self, mean_rack_load: Watts) -> Seconds {
        if let Some(explicit) = self.explicit_ot_duration {
            return explicit;
        }
        let params = recharge_battery::BbuParams::production();
        let per_bbu = mean_rack_load / f64::from(params.bbus_per_rack);
        let energy = params.full_discharge_energy * self.discharge.target_dod();
        energy / per_bbu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discharge_levels() {
        assert_eq!(DischargeLevel::Low.target_dod(), 0.30);
        assert_eq!(DischargeLevel::Medium.target_dod(), 0.50);
        assert_eq!(DischargeLevel::High.target_dod(), 0.70);
        assert_eq!(DischargeLevel::Custom(0.42).target_dod(), 0.42);
        assert_eq!(DischargeLevel::Custom(7.0).target_dod(), 1.0);
    }

    #[test]
    fn ot_duration_matches_hand_calculation() {
        let s = Scenario::paper_msb(0).discharge(DischargeLevel::Medium);
        // 6.33 kW rack → 1.055 kW per BBU; 50% × 297 kJ = 148.5 kJ → ≈141 s.
        let d = s.ot_duration_for(Watts::from_kilowatts(6.33));
        assert!((140.0..142.0).contains(&d.as_secs()), "{d}");
    }

    #[test]
    fn explicit_ot_duration_wins() {
        let s = Scenario::paper_msb(0).open_transition_duration(Seconds::new(5.0));
        assert_eq!(
            s.ot_duration_for(Watts::from_kilowatts(6.0)),
            Seconds::new(5.0)
        );
    }

    #[test]
    fn builder_chains() {
        let s = Scenario::row(9, 5, 3, 1)
            .power_limit(Watts::from_kilowatts(100.0))
            .strategy(Strategy::Global)
            .discharge(DischargeLevel::High)
            .tick(Seconds::new(3.0))
            .sample_every(Seconds::new(2.0));
        assert_eq!(s.priority_counts, (9, 5, 3));
        assert_eq!(s.power_limit, Watts::from_kilowatts(100.0));
        assert_eq!(s.strategy, Strategy::Global);
        assert_eq!(s.tick, Seconds::new(3.0));
        assert_eq!(s.sample_every, Seconds::new(2.0));
    }

    #[test]
    fn default_sample_interval_is_five_seconds() {
        assert_eq!(Scenario::paper_msb(0).sample_every, Seconds::new(5.0));
    }

    #[test]
    fn zero_sample_interval_clamps_to_one_second() {
        let s = Scenario::paper_msb(0).sample_every(Seconds::ZERO);
        assert_eq!(s.sample_every, Seconds::new(1.0));
        let s = Scenario::paper_msb(0).sample_every(Seconds::new(-3.0));
        assert_eq!(s.sample_every, Seconds::new(1.0));
        // Positive intervals pass through untouched.
        let s = Scenario::paper_msb(0).sample_every(Seconds::new(0.5));
        assert_eq!(s.sample_every, Seconds::new(0.5));
    }

    #[test]
    fn zero_control_interval_clamps_to_one() {
        assert_eq!(Scenario::paper_msb(0).control_every(0).control_every, 1);
        assert_eq!(Scenario::paper_msb(0).control_every(5).control_every, 5);
    }

    #[test]
    fn event_driven_selects_the_event_backend() {
        let s = Scenario::paper_msb(0).event_driven();
        assert_eq!(s.backend, FleetBackendKind::Event);
    }

    #[test]
    fn event_sharded_selects_the_sharded_event_backend() {
        let s = Scenario::paper_msb(0).event_sharded(4);
        assert_eq!(s.backend, FleetBackendKind::EventSharded { shards: 4 });
    }

    #[test]
    fn warmup_clamps_to_non_negative() {
        let s = Scenario::paper_msb(0).warmup(Seconds::from_hours(4.0));
        assert_eq!(s.warmup, Seconds::from_hours(4.0));
        let s = Scenario::paper_msb(0).warmup(Seconds::new(-5.0));
        assert_eq!(s.warmup, Seconds::ZERO);
    }

    #[test]
    #[should_panic(expected = "tick must be positive")]
    fn zero_tick_panics() {
        let _ = Scenario::paper_msb(0).tick(Seconds::ZERO);
    }
}
