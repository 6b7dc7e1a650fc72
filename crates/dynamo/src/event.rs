//! Event mode of the SoA engine: skip the sub-steps that provably do nothing.
//!
//! Most of a diurnal run is dead time — batteries sit full, no overload, no
//! CC→CV knee — yet dense stepping still executes every rack on every
//! sub-step. In event mode each [`SoaBackend`](crate::SoaBackend) shard
//! carries a per-slot sleep state ([`Lane`]) and only steps the slots whose
//! input has actually changed. Nothing is queued: every wake is a command
//! the engine already holds or a power edge the schedule already names, so
//! its time and order are known before the batch runs.
//!
//! **Equivalence argument.** The skip authority is
//! `SoaShard::is_quiescent`, which grants sleep only when the next dense
//! sub-step would be an *exact* no-op (settled state with zero wall power, or
//! postponed charging) — never from an analytic prediction, because float
//! accumulation is step-size dependent. Three rules keep the arrays
//! bit-identical to the dense pass at every schedule boundary:
//!
//! 1. A rack sleeps only *after* executing a sub-step that left it
//!    quiescent, so boundary effects (the final wall-power reading of a
//!    charge, the state latch flip) are always executed densely.
//! 2. Input-power edges and bus commands wake racks before the sub-step on
//!    which they take effect. An edge is a sub-step whose input power
//!    differs from the one before it (the first is compared with the
//!    previous schedule's last power), and it wakes the whole lane (power
//!    is a global input). A command on a sleeping rack keeps the slot on
//!    its shard's `woken` list until the next schedule's first sub-step.
//!    Sleeping racks therefore never miss an input transition.
//! 3. The only array a skipped sub-step would have written is the
//!    `offered[]` trace mirror; `touch_offered` replays the schedule's final
//!    load for every sleeping rack, which is exactly the value the dense
//!    pass would have left behind (intermediate writes are unobservable —
//!    readings happen only at schedule boundaries, DESIGN.md §11).
//!
//! One more rule makes the result independent of the shard count and of
//! which thread steps a shard:
//!
//! 4. A shard wakes its commanded racks in arrival order, then all of its
//!    sleepers at each edge. Commands arrive between batches, and the
//!    calling thread wakes them before any worker starts; every shard reads
//!    the same edges off the schedule. A wake mutates only its own shard's
//!    lane and arrays (waking an awake slot is a no-op), so any
//!    interleaving of shard timelines yields the same arrays — which is why
//!    the workers can run them concurrently at all.
//!
//! Every sleep→wake transition is recorded as a [`WakeRecord`] and journaled
//! as a `FlightKind::FastForward` event with the number of sub-steps skipped,
//! on the calling thread after the batch, so provenance of the fast-forward
//! is auditable after the fact. `sim.rack_substeps`, `sim.ticks_skipped`,
//! `sim.events_fired` (one delivery per command that landed on a sleeping
//! rack, duplicates included, plus one per edge per shard), and
//! `sim.offered_replays` counters quantify the win per run.

use recharge_units::{RackId, Seconds, Watts};

use crate::soa::SoaShard;

/// A sleep→wake transition recorded during a batch, journaled by the
/// engine after the batch so every flight-recorder write happens on the
/// calling thread.
pub(crate) struct WakeRecord {
    pub(crate) slot: usize,
    pub(crate) skipped: u64,
    pub(crate) now: u64,
}

/// Per-shard sleep bookkeeping, parallel to the SoA arrays.
///
/// `active` and `asleep` are disjoint sorted complements of the slot space,
/// which keeps every operation — including the end-of-batch offered replay —
/// proportional to the slots it touches, not to the shard size.
pub(crate) struct Lane {
    /// Whether each slot is currently fast-forwarding.
    sleeping: Vec<bool>,
    /// Clock of the last sub-step each slot actually executed.
    slept_at: Vec<u64>,
    /// Sorted slot indices still stepping densely.
    active: Vec<u32>,
    /// Sorted slot indices currently fast-forwarding (the complement of
    /// `active`), so the offered replay iterates sleepers instead of
    /// scanning the whole shard.
    asleep: Vec<u32>,
}

impl Lane {
    /// A lane over `len` slots, everyone awake.
    pub(crate) fn new(len: usize) -> Self {
        Lane {
            sleeping: vec![false; len],
            slept_at: vec![0; len],
            active: (0..u32::try_from(len).expect("shard fits u32")).collect(),
            asleep: Vec::new(),
        }
    }

    /// Whether `slot` is currently fast-forwarding.
    pub(crate) fn is_sleeping(&self, slot: usize) -> bool {
        self.sleeping[slot]
    }

    /// The sorted slots still stepping densely.
    pub(crate) fn active_slots(&self) -> &[u32] {
        &self.active
    }

    /// Wakes the commanded slots that still sleep, in command order, at
    /// `now` (the batch's first sub-step), recording each sleep→wake
    /// transition into `wakes`. A slot commanded twice wakes once.
    pub(crate) fn wake_commanded(&mut self, woken: &[u32], now: u64, wakes: &mut Vec<WakeRecord>) {
        for &s in woken {
            let slot = s as usize;
            if !self.sleeping[slot] {
                continue;
            }
            self.sleeping[slot] = false;
            if let Ok(pos) = self.asleep.binary_search(&s) {
                self.asleep.remove(pos);
            }
            if let Err(pos) = self.active.binary_search(&s) {
                self.active.insert(pos, s);
            }
            let skipped = now.saturating_sub(self.slept_at[slot] + 1);
            wakes.push(WakeRecord { slot, skipped, now });
        }
    }

    /// Wakes every sleeping slot at a power edge, recording each transition
    /// into `wakes` in ascending slot order.
    pub(crate) fn wake_all(&mut self, now: u64, wakes: &mut Vec<WakeRecord>) {
        if self.asleep.is_empty() {
            return;
        }
        for &s in &self.asleep {
            let slot = s as usize;
            self.sleeping[slot] = false;
            let skipped = now.saturating_sub(self.slept_at[slot] + 1);
            wakes.push(WakeRecord { slot, skipped, now });
        }
        self.asleep.clear();
        self.active.clear();
        self.active
            .extend(0..u32::try_from(self.sleeping.len()).expect("shard fits u32"));
    }

    /// Executes one sub-step for every active slot, retiring the ones whose
    /// executed step proved the next is a no-op. `load(slot, rack)` supplies
    /// the offered load; returns the number of sub-steps executed.
    pub(crate) fn step_active(
        &mut self,
        shard: &mut SoaShard,
        now: u64,
        power: bool,
        dt: Seconds,
        mut load: impl FnMut(usize, RackId) -> Watts,
    ) -> u64 {
        let Lane {
            sleeping,
            slept_at,
            active,
            asleep,
        } = self;
        let mut executed: u64 = 0;
        active.retain(|&s| {
            let slot = s as usize;
            let offered = load(slot, shard.rack_at(slot));
            shard.substep(slot, offered, power, dt);
            executed += 1;
            if shard.is_quiescent(slot) {
                sleeping[slot] = true;
                slept_at[slot] = now;
                if let Err(pos) = asleep.binary_search(&s) {
                    asleep.insert(pos, s);
                }
                false
            } else {
                true
            }
        });
        executed
    }

    /// Replays the schedule's final offered-load write into every sleeping
    /// slot — the one observable effect the skipped sub-steps had — and
    /// returns the number of writes (each sleeper gets exactly one).
    pub(crate) fn replay_offered(
        &self,
        shard: &mut SoaShard,
        mut load: impl FnMut(usize, RackId) -> Watts,
    ) -> u64 {
        for &s in &self.asleep {
            let slot = s as usize;
            let offered = load(slot, shard.rack_at(slot));
            shard.touch_offered(slot, offered);
        }
        self.asleep.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use crate::backend::{FleetBackend, FleetBackendKind};
    use crate::bus::AgentBus;
    use crate::soa::tests::{agents, assert_lockstep};
    use crate::soa::SoaBackend;

    use super::*;

    fn kw6(_: RackId, _: usize) -> Watts {
        Watts::from_kilowatts(6.0)
    }

    /// The soa lockstep harness, pointed at event mode inline and on worker
    /// threads; both must also make the same skip decisions.
    fn assert_event_lockstep(shards: usize) {
        let mut engines = [
            SoaBackend::event(agents(7)),
            SoaBackend::event_sharded(agents(7), shards),
        ];
        assert_lockstep(|| agents(7), &mut engines, 12);
        assert_eq!(
            engines[0].substeps_executed(),
            engines[1].substeps_executed(),
            "same skip decisions, same executed count"
        );
        assert!(
            engines[0].substeps_skipped() > 0,
            "the schedule lets racks sleep"
        );
    }

    #[test]
    fn event_backend_matches_object_path_bit_for_bit() {
        assert_event_lockstep(1);
    }

    #[test]
    fn sharded_event_backend_matches_bit_for_bit() {
        for shards in [2, 4] {
            assert_event_lockstep(shards);
        }
    }

    #[test]
    fn quiescent_racks_are_actually_skipped() {
        let mut fleet = SoaBackend::event(agents(4));
        // One outage sub-step, then a long quiet charge-and-settle stretch.
        let schedule = [&[false][..], &[true; 2_000][..]].concat();
        fleet.step_schedule(Seconds::new(30.0), &schedule, &kw6);
        assert!(
            fleet.substeps_skipped() > 0,
            "settled racks should fast-forward"
        );
        assert_eq!(
            fleet.substeps_executed() + fleet.substeps_skipped(),
            2_001 * 4,
            "executed + skipped must cover the dense schedule exactly"
        );
        // Everyone finished the recharge and went quiet.
        assert!(FleetBackend::readings(&fleet)
            .iter()
            .all(|r| r.recharge_power == Watts::ZERO));
    }

    #[test]
    fn commands_wake_sleeping_racks() {
        let mut fleet = SoaBackend::event(agents(2));
        // Postpone both racks so they sleep at zero setpoint after an outage.
        fleet.step_schedule(Seconds::new(30.0), &[false], &kw6);
        let bus: &mut dyn AgentBus = &mut fleet;
        bus.set_charge_postponed(RackId::new(0), true);
        bus.set_charge_postponed(RackId::new(1), true);
        fleet.step_schedule(Seconds::new(30.0), &[true; 10], &kw6);
        let before = fleet.substeps_executed();
        // Asleep now; an idle schedule should execute nothing.
        fleet.step_schedule(Seconds::new(30.0), &[true; 5], &kw6);
        assert_eq!(fleet.substeps_executed(), before);
        // Resuming rack 0 must wake it — and only it.
        (&mut fleet as &mut dyn AgentBus).set_charge_postponed(RackId::new(0), false);
        fleet.step_schedule(Seconds::new(30.0), &[true; 3], &kw6);
        assert!(
            fleet.substeps_executed() > before,
            "command must wake the rack"
        );
        let readings = FleetBackend::readings(&fleet);
        assert!(
            readings[0].recharge_power > Watts::ZERO,
            "rack 0 charges again"
        );
        assert_eq!(
            readings[1].recharge_power,
            Watts::ZERO,
            "rack 1 stays postponed"
        );
    }

    #[test]
    fn commands_wake_only_their_shard() {
        let mut fleet = SoaBackend::event_sharded(agents(4), 2);
        // Everyone settles asleep after a full recharge.
        fleet.step_schedule(Seconds::new(30.0), &[true; 2_000], &kw6);
        let before = fleet.substeps_executed();
        fleet.step_schedule(Seconds::new(30.0), &[true; 5], &kw6);
        assert_eq!(fleet.substeps_executed(), before, "everyone sleeps");
        // Postpone one rack: only its shard executes on the next batch.
        (&mut fleet as &mut dyn AgentBus).set_charge_postponed(RackId::new(0), true);
        let per_before = fleet.per_shard_substeps();
        fleet.step_schedule(Seconds::new(30.0), &[true; 3], &kw6);
        let per_after = fleet.per_shard_substeps();
        let touched: Vec<usize> = per_before
            .iter()
            .zip(&per_after)
            .enumerate()
            .filter_map(|(s, (b, a))| (a.0 > b.0).then_some(s))
            .collect();
        assert_eq!(touched.len(), 1, "exactly one shard wakes: {touched:?}");
    }

    #[test]
    fn offered_replay_writes_exactly_one_per_sleeper() {
        let mut fleet = SoaBackend::event(agents(4));
        // One outage sub-step, then a quiet stretch long enough that every
        // rack finishes its recharge and sleeps.
        let schedule = [&[false][..], &[true; 2_000][..]].concat();
        fleet.step_schedule(Seconds::new(30.0), &schedule, &kw6);
        let settled = fleet.offered_replays();
        // A fully-asleep batch performs exactly one offered write per rack,
        // reached via the maintained sleeper list.
        fleet.step_schedule(Seconds::new(30.0), &[true; 5], &kw6);
        assert_eq!(
            fleet.offered_replays() - settled,
            4,
            "one replay write per sleeping rack per batch"
        );
        // And the replay set is exactly the sleeper set: executed + skipped
        // still covers the dense schedule.
        assert_eq!(
            fleet.substeps_executed() + fleet.substeps_skipped(),
            2_006 * 4
        );
    }

    #[test]
    fn per_shard_accounting_is_exact() {
        let mut fleet = SoaBackend::event_sharded(agents(9), 3);
        // One outage sub-step, then a long quiet charge-and-settle stretch.
        let schedule = [&[false][..], &[true; 2_000][..]].concat();
        fleet.step_schedule(Seconds::new(30.0), &schedule, &kw6);
        assert!(fleet.substeps_skipped() > 0, "settled racks fast-forward");
        let per_shard = fleet.per_shard_substeps();
        assert_eq!(per_shard.len(), fleet.shard_count());
        let summed: u64 = per_shard.iter().map(|&(e, _)| e).sum();
        assert_eq!(summed, fleet.substeps_executed());
        for (s, &(executed, skipped)) in per_shard.iter().enumerate() {
            assert_eq!(
                executed + skipped,
                2_001 * 3,
                "shard {s}: executed + skipped must cover the dense schedule"
            );
        }
    }

    #[test]
    fn empty_fleet_is_a_no_op() {
        let mut fleet = SoaBackend::event_sharded(Vec::new(), 4);
        fleet.step_schedule(Seconds::new(1.0), &[true; 3], &|_, _| Watts::ZERO);
        assert!(FleetBackend::readings(&fleet).is_empty());
        assert_eq!(fleet.substeps_executed(), 0);
        assert!(AgentBus::racks(&fleet).is_empty());
    }

    #[test]
    fn kind_builds_the_event_backend() {
        assert_eq!(FleetBackendKind::Event.build(agents(2)).name(), "event");
    }

    #[test]
    fn kind_builds_the_sharded_event_backend() {
        assert_eq!(
            FleetBackendKind::EventSharded { shards: 2 }
                .build(agents(3))
                .name(),
            "event-sharded"
        );
    }
}
