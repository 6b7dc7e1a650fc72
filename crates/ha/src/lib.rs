//! `recharge-ha`: controller high availability for the Dynamo upper layer.
//!
//! The paper's upper controller (§IV-B) is a single process protecting a
//! campus-scale breaker; if it dies, every rack below it falls back to the
//! §III-B standalone variable charger and coordination quality degrades.
//! This crate removes that single point of failure with a hot-standby set:
//!
//! - [`ControllerSet`] runs N redundant [`Controller`] replicas over one
//!   agent bus. Exactly one — the **leader** — issues commands; the rest are
//!   hot standbys that hold a replicated snapshot of the leader's brain.
//! - **Lease-based leader election.** The leader implicitly renews its lease
//!   on every successful control tick. When it stops responding (crash or
//!   freeze, injected via [`ProcessFault`]), standbys wait out the lease
//!   width — nobody may act while a possibly-alive leader could still be
//!   commanding — then campaign. Candidates draw seeded `splitmix64` jitter
//!   (the same generator as the RPC retry backoff) and the lowest
//!   `(draw, id)` pair wins, so elections are deterministic per seed and
//!   never split.
//! - **Monotonic terms as fencing tokens.** Every election increments
//!   `term`, and only the leader is handed the agent bus, so a frozen
//!   ex-leader that thaws mid-failover cannot double-override a rack. The
//!   set fences it in process: it journals the stale and current terms once
//!   (`StaleLeaderFenced`) and never lets the replica act under its old term.
//! - **Deterministic snapshot replication.** On a configurable cadence the
//!   leader serializes its brain ([`Controller::snapshot_bytes`] —
//!   `ChargeIndex` plus parked-charge map, `f64`s as exact bit patterns, in
//!   one pass with no decoded copy) and replicates it
//!   to the standbys. On takeover the new leader
//!   restores the latest snapshot and replays the delta since from live
//!   agent readings: the first post-takeover tick re-reads every rack, so
//!   battery state drifted during the gap is reconciled against ground
//!   truth rather than a stale log.
//!
//! The headline property, pinned by `crates/sim/tests/ha_soak.rs`: with no
//! faults injected, a full simulation over a [`ControllerSet`] produces
//! **bit-identical** `RunMetrics` to the single-controller run — election
//! and snapshotting never touch the bus — and under kill-the-leader chaos a
//! standby takes over within one lease width with zero breaker trips.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;

pub use fault::ProcessFault;

use fault::{crashed_at, frozen_at};
use rand::splitmix64;
use recharge_dynamo::{
    AgentBus, Controller, ControllerConfig, ControllerReport, ControllerSnapshot, Strategy,
};
use recharge_telemetry::{flight_at, tcounter, tgauge, FlightKind, ReasonCode, NO_BUCKET, NO_RACK};
use recharge_units::SimTime;

/// Default replica count (one leader, two hot standbys).
const DEFAULT_REPLICAS: u32 = 3;

/// Default leadership lease width in simulation ticks; mirrors the
/// agent-side [`recharge_net::DEFAULT_LEASE_TICKS`] so the controller set
/// never believes a leader the agents have already given up on.
pub const DEFAULT_LEASE_TICKS: u64 = recharge_net::DEFAULT_LEASE_TICKS;

/// Default brain-snapshot replication cadence in simulation ticks: one
/// lease width. A takeover can begin at most one lease after the leader
/// vanished and always reconciles that window from live agent readings, so
/// replicating more often than the lease buys no freshness a takeover could
/// use — it only costs serialization time (`bench_report`'s
/// `ha_replication_overhead` gate holds that cost under 2 % of a tick).
pub const DEFAULT_SNAPSHOT_EVERY: u64 = DEFAULT_LEASE_TICKS;

/// Configuration of a [`ControllerSet`].
#[derive(Debug, Clone)]
pub struct HaConfig {
    /// Number of redundant controllers (leader + standbys), at least 1.
    pub replicas: u32,
    /// Lease width in simulation ticks: how long after the leader's last
    /// successful tick standbys must wait before campaigning.
    pub lease_ticks: u64,
    /// Brain-snapshot replication cadence in simulation ticks; `0` disables
    /// snapshotting (takeover then starts from a cold brain).
    pub snapshot_every: u64,
    /// Seed for the deterministic election jitter.
    pub seed: u64,
    /// Process faults to inject on the shared deterministic tick clock.
    pub faults: Vec<ProcessFault>,
}

impl Default for HaConfig {
    fn default() -> Self {
        HaConfig {
            replicas: DEFAULT_REPLICAS,
            lease_ticks: DEFAULT_LEASE_TICKS,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            seed: 0xD1A5_0C4A_11E5,
            faults: Vec::new(),
        }
    }
}

impl HaConfig {
    /// Sets the replica count.
    #[must_use]
    pub fn replicas(mut self, n: u32) -> Self {
        self.replicas = n;
        self
    }

    /// Sets the lease width in ticks.
    #[must_use]
    pub fn lease_ticks(mut self, ticks: u64) -> Self {
        self.lease_ticks = ticks;
        self
    }

    /// Sets the election jitter seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds one process fault to the injection schedule.
    #[must_use]
    pub fn fault(mut self, fault: ProcessFault) -> Self {
        self.faults.push(fault);
        self
    }
}

/// A replicated controller-brain snapshot: the leader's term and tick plus
/// the encoded brain ([`Controller::snapshot_bytes`]), decoded only when a
/// takeover restores it.
struct StoredSnapshot {
    /// HA term of the leader that took the snapshot.
    term: u64,
    /// Simulation tick the snapshot was taken at.
    tick: u64,
    /// The serialized controller brain.
    bytes: Vec<u8>,
}

/// One redundant controller: the brain plus its process-fault state.
struct Replica {
    controller: Controller,
    crashed: bool,
    frozen: bool,
    /// The last term this replica led, if any — cleared (with a
    /// [`FlightKind::StaleLeaderFenced`] journal entry) when the replica
    /// comes back under a newer term.
    led_term: Option<u64>,
}

/// A hot-standby set of upper controllers behind a single logical breaker.
///
/// Drive it once per control interval with [`ControllerSet::tick`], passing
/// the deterministic simulation tick (the same clock `FaultClock` and the
/// agent-side lease run on) and the agent bus. Returns the leader's
/// [`ControllerReport`], or `None` while the set is leaderless (lease
/// running out, or every replica faulted).
pub struct ControllerSet {
    replicas: Vec<Replica>,
    ha: HaConfig,
    term: u64,
    leader: Option<u32>,
    /// Tick of the leader's last successful control tick (its lease renewal).
    leader_contact: u64,
    rng: u64,
    snapshot: Option<StoredSnapshot>,
    failovers: u64,
    pending_takeover: bool,
}

impl ControllerSet {
    /// Builds `ha.replicas` identical controllers from one configuration.
    #[must_use]
    pub fn new(config: ControllerConfig, strategy: Strategy, ha: HaConfig) -> Self {
        let n = ha.replicas.max(1) as usize;
        let replicas = (0..n)
            .map(|_| Replica {
                controller: Controller::new(config.clone(), strategy),
                crashed: false,
                frozen: false,
                led_term: None,
            })
            .collect();
        let rng = ha.seed ^ 0x9E37_79B9_7F4A_7C15;
        ControllerSet {
            replicas,
            ha,
            term: 0,
            leader: None,
            leader_contact: 0,
            rng,
            snapshot: None,
            failovers: 0,
            pending_takeover: false,
        }
    }

    /// The current leader's replica id, if any.
    #[must_use]
    pub fn leader(&self) -> Option<u32> {
        self.leader
    }

    /// The current fencing term (0 before the first election).
    #[must_use]
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Completed failovers (elections after the first).
    #[must_use]
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Whether replica `id` is currently neither crashed nor frozen.
    fn is_available(&self, id: u32) -> bool {
        self.replicas
            .get(id as usize)
            .is_some_and(|r| !r.crashed && !r.frozen)
    }

    /// Runs one control interval at deterministic simulation tick `tick_now`
    /// (the `FaultClock` tick) and logical instant `now`.
    ///
    /// Returns `None` while the set is leaderless: an unresponsive leader
    /// may still hold its lease (standbys must not act until it expires), or
    /// every replica is faulted. Callers should fall back to monitoring-only
    /// aggregation for that interval, exactly as for an unmitigated run.
    pub fn tick(
        &mut self,
        tick_now: u64,
        now: SimTime,
        bus: &mut dyn AgentBus,
    ) -> Option<ControllerReport> {
        self.apply_faults(tick_now, now);
        self.fence_stale_ex_leaders(now);

        if let Some(l) = self.leader {
            if !self.is_available(l) {
                if tick_now.saturating_sub(self.leader_contact) >= self.ha.lease_ticks {
                    flight_at(
                        now.as_secs(),
                        FlightKind::LeaderLost,
                        ReasonCode::HaLeaseExpired,
                        NO_RACK,
                        0,
                        NO_BUCKET,
                        u64::from(l),
                        self.term,
                    );
                    self.leader = None;
                } else {
                    // The lease may still be honoured by agents: nobody acts.
                    self.publish_gauges(tick_now);
                    return None;
                }
            }
        }
        if self.leader.is_none() {
            self.campaign(tick_now, now);
        }
        let Some(l) = self.leader else {
            self.publish_gauges(tick_now);
            return None; // every replica is down
        };

        let report = self.replicas[l as usize].controller.tick(now, bus);
        self.leader_contact = tick_now;
        if self.pending_takeover {
            self.pending_takeover = false;
            flight_at(
                now.as_secs(),
                FlightKind::TakeoverComplete,
                ReasonCode::HaTakeover,
                NO_RACK,
                0,
                NO_BUCKET,
                u64::from(l),
                self.term,
            );
        }
        self.maybe_snapshot(tick_now, now, l);
        self.publish_gauges(tick_now);
        Some(report)
    }

    /// Refreshes per-replica fault state from the injection schedule and
    /// journals the moment the leader first becomes unresponsive.
    fn apply_faults(&mut self, tick_now: u64, now: SimTime) {
        let leader = self.leader;
        let term = self.term;
        for (i, r) in self.replicas.iter_mut().enumerate() {
            let id = i as u32;
            let crashed = crashed_at(&self.ha.faults, id, tick_now);
            let frozen = frozen_at(&self.ha.faults, id, tick_now);
            let was_ok = !r.crashed && !r.frozen;
            if leader == Some(id) && was_ok && (crashed || frozen) {
                let reason = if crashed {
                    ReasonCode::HaCrashed
                } else {
                    ReasonCode::HaFrozen
                };
                flight_at(
                    now.as_secs(),
                    FlightKind::LeaderLost,
                    reason,
                    NO_RACK,
                    0,
                    NO_BUCKET,
                    u64::from(id),
                    term,
                );
            }
            r.crashed = crashed;
            r.frozen = frozen;
        }
    }

    /// Journals (once) any thawed ex-leader whose term has been superseded.
    /// The bus only ever reaches the current leader, so this is the whole
    /// fence: the ex-leader's stale term is retired, never replayed.
    fn fence_stale_ex_leaders(&mut self, now: SimTime) {
        let current = self.term;
        let leader = self.leader;
        for (i, r) in self.replicas.iter_mut().enumerate() {
            if r.crashed || r.frozen || leader == Some(i as u32) {
                continue;
            }
            if let Some(t) = r.led_term {
                if t < current {
                    flight_at(
                        now.as_secs(),
                        FlightKind::StaleLeaderFenced,
                        ReasonCode::HaStaleTerm,
                        NO_RACK,
                        0,
                        NO_BUCKET,
                        t,
                        current,
                    );
                    tcounter!("ha.stale_leaders_fenced").inc();
                    r.led_term = None;
                }
            }
        }
    }

    /// Elects a leader among available replicas: every replica draws seeded
    /// jitter (draw count is fixed per election, so the stream stays aligned
    /// whatever the fault pattern) and the lowest `(draw, id)` wins.
    fn campaign(&mut self, tick_now: u64, now: SimTime) {
        let n = self.replicas.len();
        let draws: Vec<f64> = (0..n).map(|_| uniform(&mut self.rng)).collect();
        let winner = (0..n)
            .filter(|&i| self.is_available(i as u32))
            .map(|i| (draws[i], i as u32))
            .min_by(|a, b| a.partial_cmp(b).expect("jitter draws are never NaN"));
        let Some((_, id)) = winner else {
            return;
        };
        self.term += 1;
        let failover = self.term > 1;
        self.leader = Some(id);
        self.leader_contact = tick_now;
        self.replicas[id as usize].led_term = Some(self.term);
        flight_at(
            now.as_secs(),
            FlightKind::LeaderElected,
            ReasonCode::HaCampaignWon,
            NO_RACK,
            0,
            NO_BUCKET,
            u64::from(id),
            self.term,
        );
        tcounter!("ha.elections_total").inc();
        if failover {
            self.failovers += 1;
            tcounter!("ha.failovers_total").inc();
            if let Some(snap) = &self.snapshot {
                if let Ok(decoded) = ControllerSnapshot::from_bytes(&snap.bytes) {
                    self.replicas[id as usize].controller.restore(&decoded);
                    flight_at(
                        now.as_secs(),
                        FlightKind::SnapshotRestored,
                        ReasonCode::HaTakeover,
                        NO_RACK,
                        0,
                        NO_BUCKET,
                        snap.term,
                        snap.bytes.len() as u64,
                    );
                }
            }
            self.pending_takeover = true;
        }
    }

    /// Serializes and replicates the leader's brain when the cadence is due.
    fn maybe_snapshot(&mut self, tick_now: u64, now: SimTime, leader: u32) {
        if self.ha.snapshot_every == 0 {
            return;
        }
        let due = match &self.snapshot {
            None => true,
            Some(s) => tick_now.saturating_sub(s.tick) >= self.ha.snapshot_every,
        };
        if !due {
            return;
        }
        let bytes = self.replicas[leader as usize].controller.snapshot_bytes();
        flight_at(
            now.as_secs(),
            FlightKind::SnapshotTaken,
            ReasonCode::HaSnapshotCadence,
            NO_RACK,
            0,
            NO_BUCKET,
            self.term,
            bytes.len() as u64,
        );
        tcounter!("ha.snapshots_taken").inc();
        self.snapshot = Some(StoredSnapshot {
            term: self.term,
            tick: tick_now,
            bytes,
        });
    }

    fn publish_gauges(&self, tick_now: u64) {
        tgauge!("ha.leader_id").set(self.leader.map_or(-1.0, f64::from));
        tgauge!("ha.term").set(self.term as f64);
        tgauge!("ha.snapshot_age_ticks").set(
            self.snapshot
                .as_ref()
                .map_or(-1.0, |s| tick_now.saturating_sub(s.tick) as f64),
        );
    }
}

/// Uniform draw in `[0, 1)` from a `splitmix64` stream — the same generator
/// the RPC retry backoff uses, so chaos runs stay reproducible end to end.
fn uniform(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    use recharge_dynamo::{InMemoryBus, SimRackAgent};
    use recharge_telemetry::{set_recorder_enabled, take_flight_events};
    use recharge_units::{DeviceId, Priority, RackId, Seconds, Watts};

    use super::*;

    /// Serializes tests that drain the global flight recorder.
    fn lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn fleet(n_per_priority: usize, load_kw: f64) -> InMemoryBus<SimRackAgent> {
        let mut agents = Vec::new();
        let mut id = 0;
        for priority in Priority::ALL {
            for _ in 0..n_per_priority {
                agents.push(
                    SimRackAgent::builder(RackId::new(id), priority)
                        .offered_load(Watts::from_kilowatts(load_kw))
                        .build(),
                );
                id += 1;
            }
        }
        InMemoryBus::new(agents)
    }

    /// Runs an open transition of `secs` over the whole bus so batteries
    /// discharge and the controllers have charging to coordinate.
    fn open_transition(bus: &mut InMemoryBus<SimRackAgent>, secs: f64) {
        for a in bus.agents_mut() {
            a.set_input_power(false);
        }
        for a in bus.agents_mut() {
            a.step(Seconds::new(secs));
        }
        for a in bus.agents_mut() {
            a.set_input_power(true);
        }
        for a in bus.agents_mut() {
            a.step(Seconds::new(1.0));
        }
    }

    fn step(bus: &mut InMemoryBus<SimRackAgent>, secs: f64) {
        for a in bus.agents_mut() {
            a.step(Seconds::new(secs));
        }
    }

    fn config(limit_kw: f64) -> ControllerConfig {
        ControllerConfig::new(DeviceId::new(0), Watts::from_kilowatts(limit_kw))
    }

    /// The tick-0 election winner for a given HA configuration, probed on a
    /// throwaway bus so tests can aim faults at the actual leader.
    fn probe_winner(ha: &HaConfig) -> u32 {
        let mut probe = ControllerSet::new(
            config(190.0),
            Strategy::PriorityAware,
            HaConfig {
                faults: Vec::new(),
                ..ha.clone()
            },
        );
        let mut bus = fleet(1, 6.0);
        probe.tick(0, SimTime::ZERO, &mut bus);
        probe.leader().expect("probe election must succeed")
    }

    #[test]
    fn fault_free_set_is_bit_identical_to_a_single_controller() {
        let _g = lock();
        set_recorder_enabled(false);
        let mut bus_single = fleet(2, 6.0);
        let mut bus_ha = fleet(2, 6.0);
        open_transition(&mut bus_single, 45.0);
        open_transition(&mut bus_ha, 45.0);

        let mut single = Controller::new(config(190.0), Strategy::PriorityAware);
        let mut set = ControllerSet::new(
            config(190.0),
            Strategy::PriorityAware,
            HaConfig::default().seed(7),
        );
        for t in 0..120u64 {
            let now = SimTime::from_secs(t as f64);
            let want = single.tick(now, &mut bus_single);
            let got = set.tick(t, now, &mut bus_ha).expect("leader never lost");
            assert_eq!(want, got, "reports diverged at tick {t}");
            step(&mut bus_single, 1.0);
            step(&mut bus_ha, 1.0);
        }
        assert_eq!(set.term(), 1, "fault-free runs elect exactly once");
        assert_eq!(set.failovers(), 0);
        let single_cmds = single.commanded_currents();
        let leader = set.leader().expect("leader present");
        let set_cmds = set.replicas[leader as usize]
            .controller
            .commanded_currents();
        assert_eq!(single_cmds, set_cmds);
    }

    #[test]
    fn crashed_leader_fails_over_within_one_lease_width() {
        let _g = lock();
        set_recorder_enabled(false);
        let ha = HaConfig::default().seed(11).lease_ticks(30);
        let first = probe_winner(&ha);
        let crash_at = 40u64;
        let ha = ha.fault(ProcessFault::CrashController {
            controller: first,
            at_tick: crash_at,
        });

        let mut bus = fleet(2, 6.0);
        open_transition(&mut bus, 45.0);
        let mut set = ControllerSet::new(config(190.0), Strategy::PriorityAware, ha.clone());
        let mut gap = 0u64;
        let mut recovered_at = None;
        for t in 0..120u64 {
            let report = set.tick(t, SimTime::from_secs(t as f64), &mut bus);
            if t >= crash_at && recovered_at.is_none() {
                match report {
                    None => gap += 1,
                    Some(_) => recovered_at = Some(t),
                }
            }
            step(&mut bus, 1.0);
        }
        let recovered_at = recovered_at.expect("a standby must take over");
        assert!(
            recovered_at - crash_at <= ha.lease_ticks,
            "takeover took {} ticks, lease width is {}",
            recovered_at - crash_at,
            ha.lease_ticks
        );
        assert_eq!(gap, recovered_at - crash_at);
        assert_ne!(set.leader(), Some(first), "a different replica must lead");
        assert_eq!(set.term(), 2);
        assert_eq!(set.failovers(), 1);
    }

    #[test]
    fn frozen_leader_is_fenced_after_thaw() {
        let _g = lock();
        set_recorder_enabled(true);
        let _ = take_flight_events();
        let ha = HaConfig::default().seed(13).lease_ticks(20);
        let first = probe_winner(&ha);
        let _ = take_flight_events(); // drop the probe's election events
        let ha = ha.fault(ProcessFault::FreezeController {
            controller: first,
            from_tick: 30,
            to_tick: 70,
        });

        let mut bus = fleet(1, 6.0);
        let mut set = ControllerSet::new(config(190.0), Strategy::PriorityAware, ha);
        for t in 0..100u64 {
            set.tick(t, SimTime::from_secs(t as f64), &mut bus);
            step(&mut bus, 1.0);
        }
        set_recorder_enabled(false);
        let events = take_flight_events();

        assert_ne!(set.leader(), Some(first));
        assert_eq!(set.term(), 2);
        let lost = events
            .iter()
            .find(|e| e.kind == FlightKind::LeaderLost && e.reason == ReasonCode::HaFrozen)
            .expect("freeze must journal LeaderLost");
        assert_eq!(lost.v0, u64::from(first));
        let fenced = events
            .iter()
            .find(|e| e.kind == FlightKind::StaleLeaderFenced)
            .expect("thawed ex-leader must be fenced");
        assert_eq!(fenced.v0, 1, "stale term");
        assert_eq!(fenced.v1, 2, "current term");
        assert!(
            events
                .iter()
                .any(|e| e.kind == FlightKind::TakeoverComplete),
            "takeover must complete while the old leader is frozen"
        );
    }

    #[test]
    fn snapshots_replicate_on_cadence_and_restore_on_takeover() {
        let _g = lock();
        set_recorder_enabled(true);
        let _ = take_flight_events();
        let ha = HaConfig {
            snapshot_every: 10,
            ..HaConfig::default().seed(17).lease_ticks(15)
        };
        let first = probe_winner(&ha);
        let _ = take_flight_events();
        let ha = ha.fault(ProcessFault::CrashController {
            controller: first,
            at_tick: 35,
        });

        let mut bus = fleet(2, 6.0);
        open_transition(&mut bus, 45.0);
        let mut set = ControllerSet::new(config(190.0), Strategy::PriorityAware, ha);
        for t in 0..80u64 {
            set.tick(t, SimTime::from_secs(t as f64), &mut bus);
            step(&mut bus, 1.0);
        }
        set_recorder_enabled(false);
        let events = take_flight_events();

        let snap = set.snapshot.as_ref().expect("cadence must snapshot");
        assert_eq!(snap.term, 2, "post-takeover leader keeps replicating");
        assert!(
            events.iter().any(|e| e.kind == FlightKind::SnapshotTaken),
            "cadence snapshots must be journaled"
        );
        let restored = events
            .iter()
            .find(|e| e.kind == FlightKind::SnapshotRestored)
            .expect("takeover must restore the replicated snapshot");
        assert_eq!(restored.v0, 1, "restored snapshot carries the old term");
        assert_eq!(set.failovers(), 1);
    }

    #[test]
    fn all_replicas_down_returns_none_until_one_returns() {
        let _g = lock();
        set_recorder_enabled(false);
        let mut ha = HaConfig::default().replicas(2).lease_ticks(5);
        for id in 0..2 {
            ha = ha.fault(ProcessFault::FreezeController {
                controller: id,
                from_tick: 10,
                to_tick: 40,
            });
        }
        let mut bus = fleet(1, 6.0);
        let mut set = ControllerSet::new(config(190.0), Strategy::PriorityAware, ha);
        let mut none_ticks = 0;
        for t in 0..60u64 {
            if set
                .tick(t, SimTime::from_secs(t as f64), &mut bus)
                .is_none()
            {
                none_ticks += 1;
            }
            step(&mut bus, 1.0);
        }
        assert!(none_ticks >= 25, "whole-set outage must be visible");
        assert!(set.leader().is_some(), "leadership resumes after the thaw");
    }

    #[test]
    fn elections_are_deterministic_per_seed() {
        let _g = lock();
        set_recorder_enabled(false);
        for seed in [1u64, 2, 3, 42, 0xDEAD_BEEF] {
            let ha = HaConfig::default().seed(seed);
            assert_eq!(probe_winner(&ha), probe_winner(&ha));
        }
    }
}
