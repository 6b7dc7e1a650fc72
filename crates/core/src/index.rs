//! An incremental priority/DOD index over the charging fleet.
//!
//! Algorithm 1 and its reverse throttling pass both iterate the fleet in
//! (priority, depth-of-discharge) order. Rebuilding that order with a sort on
//! every controller tick costs `O(n log n)` at fleet scale even when nothing
//! changed; the [`ChargeIndex`] instead keeps the order *materialized* and
//! applies battery-state deltas as they arrive — admission, DOD refresh,
//! current overrides, completion — each an `O(log n)` `BTreeSet` operation,
//! and a DOD refresh that stays inside its quantization bucket touches the
//! ordering not at all.
//!
//! The DOD axis is bucketed with the same [`SLA_MEMO_DOD_BINS`] ceil-rounding
//! quantization the memoized [`SlaCurrentPolicy`](crate::SlaCurrentPolicy)
//! uses, so two racks in the same bucket have the *same* memoized SLA current
//! and hence the same upgrade cost: iterating bucket order is
//! cost-equivalent to iterating exact-DOD order, and ties inside a bucket are
//! broken deterministically by rack id.

use std::collections::BTreeSet;

use recharge_units::{Amperes, Dod, Priority, RackId, RackMap};

use crate::algorithm::RackChargeState;
use crate::policy::SLA_MEMO_DOD_BINS;

/// One rack's tracked charging state inside a [`ChargeIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexedCharge {
    /// The rack's service priority.
    pub priority: Priority,
    /// The latest depth-of-discharge estimate.
    pub dod: Dod,
    /// The current last commanded for the rack (zero when uncommanded).
    pub current: Amperes,
}

/// The ordering key: priority rank, then ceil-quantized DOD bucket, then rack
/// id as the deterministic tie-break.
type OrderKey = (u8, u16, RackId);

/// An incrementally maintained (priority, DOD-bucket) ordering of the racks
/// whose batteries are charging or discharging.
///
/// Ascending iteration ([`charge_order`](Self::charge_order)) yields the
/// highest-priority-lowest-discharge-first order Algorithm 1 assigns in;
/// descending iteration ([`throttle_order`](Self::throttle_order)) yields the
/// reverse order the overload response sheds in.
///
/// # Examples
///
/// ```
/// use recharge_core::ChargeIndex;
/// use recharge_units::{Amperes, Dod, Priority, RackId};
///
/// let mut index = ChargeIndex::new();
/// index.upsert(RackId::new(1), Priority::P3, Dod::new(0.4), Amperes::ZERO);
/// index.upsert(RackId::new(2), Priority::P1, Dod::new(0.8), Amperes::ZERO);
/// let order: Vec<RackId> = index.charge_order().map(|(rack, _)| rack).collect();
/// assert_eq!(order, vec![RackId::new(2), RackId::new(1)]); // P1 before P3
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChargeIndex {
    /// Keyed with the cheap rack hasher: the controller looks racks up here
    /// several times per rack per tick, and nothing iterates this map in an
    /// order-sensitive way (order comes from `order`).
    entries: RackMap<IndexedCharge>,
    order: BTreeSet<OrderKey>,
}

impl ChargeIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new() -> Self {
        ChargeIndex::default()
    }

    /// The quantization bucket of a DOD: `ceil(dod × SLA_MEMO_DOD_BINS)`,
    /// identical to the rounding [`sla_current`] memoization uses, so racks
    /// sharing a bucket share their memoized SLA current.
    ///
    /// [`sla_current`]: crate::SlaCurrentPolicy::sla_current
    #[must_use]
    pub fn dod_bucket(dod: Dod) -> u16 {
        // Dod is clamped to [0, 1] on construction; min() guards the
        // 1.0 × BINS float edge, mirroring the memo lookup.
        let bin = (dod.value() * SLA_MEMO_DOD_BINS as f64).ceil() as usize;
        bin.min(SLA_MEMO_DOD_BINS) as u16
    }

    fn key(rack: RackId, entry: &IndexedCharge) -> OrderKey {
        (entry.priority.rank(), Self::dod_bucket(entry.dod), rack)
    }

    /// Inserts a rack or replaces its tracked state entirely.
    pub fn upsert(&mut self, rack: RackId, priority: Priority, dod: Dod, current: Amperes) {
        let entry = IndexedCharge {
            priority,
            dod,
            current,
        };
        if let Some(old) = self.entries.insert(rack, entry) {
            self.order.remove(&Self::key(rack, &old));
        }
        self.order.insert(Self::key(rack, &entry));
    }

    /// Removes a rack, returning its last tracked state.
    pub fn remove(&mut self, rack: RackId) -> Option<IndexedCharge> {
        let entry = self.entries.remove(&rack)?;
        self.order.remove(&Self::key(rack, &entry));
        Some(entry)
    }

    /// Refreshes a rack's DOD estimate. The ordering is only touched when the
    /// new estimate crosses a quantization-bucket boundary; returns whether it
    /// did. Unknown racks are ignored (returns `false`).
    pub fn set_dod(&mut self, rack: RackId, dod: Dod) -> bool {
        let Some(entry) = self.entries.get_mut(&rack) else {
            return false;
        };
        let old_bucket = Self::dod_bucket(entry.dod);
        let new_bucket = Self::dod_bucket(dod);
        entry.dod = dod;
        if old_bucket == new_bucket {
            return false;
        }
        let priority = entry.priority;
        self.order.remove(&(priority.rank(), old_bucket, rack));
        self.order.insert((priority.rank(), new_bucket, rack));
        true
    }

    /// Records the current commanded for a rack (does not affect ordering).
    /// Unknown racks are ignored.
    pub fn set_current(&mut self, rack: RackId, current: Amperes) {
        if let Some(entry) = self.entries.get_mut(&rack) {
            entry.current = current;
        }
    }

    /// The tracked state of a rack.
    #[must_use]
    pub fn get(&self, rack: RackId) -> Option<&IndexedCharge> {
        self.entries.get(&rack)
    }

    /// The current last commanded for a rack.
    #[must_use]
    pub fn current(&self, rack: RackId) -> Option<Amperes> {
        self.entries.get(&rack).map(|e| e.current)
    }

    /// Whether the index tracks the rack.
    #[must_use]
    pub fn contains(&self, rack: RackId) -> bool {
        self.entries.contains_key(&rack)
    }

    /// Number of tracked racks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no rack is tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every tracked rack.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    /// Tracked racks in Algorithm 1's assignment order:
    /// highest-priority-lowest-discharge-first.
    pub fn charge_order(&self) -> impl Iterator<Item = (RackId, &IndexedCharge)> + '_ {
        self.order
            .iter()
            .map(|&(_, _, rack)| (rack, &self.entries[&rack]))
    }

    /// Tracked racks in the overload response's shed order:
    /// lowest-priority-highest-discharge-first (the exact reverse of
    /// [`charge_order`](Self::charge_order)).
    pub fn throttle_order(&self) -> impl Iterator<Item = (RackId, &IndexedCharge)> + '_ {
        self.order
            .iter()
            .rev()
            .map(|&(_, _, rack)| (rack, &self.entries[&rack]))
    }

    /// The tracked racks as plain [`RackChargeState`]s, in charge order.
    #[must_use]
    pub fn states(&self) -> Vec<RackChargeState> {
        self.charge_order()
            .map(|(rack, e)| RackChargeState {
                rack,
                priority: e.priority,
                dod: e.dod,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(index: &ChargeIndex) -> Vec<u32> {
        index.charge_order().map(|(r, _)| r.index()).collect()
    }

    #[test]
    fn orders_by_priority_then_dod_then_rack() {
        let mut index = ChargeIndex::new();
        index.upsert(RackId::new(0), Priority::P2, Dod::new(0.5), Amperes::ZERO);
        index.upsert(RackId::new(1), Priority::P1, Dod::new(0.9), Amperes::ZERO);
        index.upsert(RackId::new(2), Priority::P1, Dod::new(0.2), Amperes::ZERO);
        index.upsert(RackId::new(3), Priority::P3, Dod::new(0.1), Amperes::ZERO);
        assert_eq!(ids(&index), vec![2, 1, 0, 3]);
        let reverse: Vec<u32> = index.throttle_order().map(|(r, _)| r.index()).collect();
        assert_eq!(reverse, vec![3, 0, 1, 2]);
    }

    #[test]
    fn bucket_matches_memo_rounding() {
        assert_eq!(ChargeIndex::dod_bucket(Dod::new(0.0)), 0);
        assert_eq!(ChargeIndex::dod_bucket(Dod::new(1.0)), 1024);
        // 0.5 × 1024 = 512 exactly; the next representable DOD above lands in
        // bucket 513 via the ceil.
        assert_eq!(ChargeIndex::dod_bucket(Dod::new(0.5)), 512);
        assert_eq!(ChargeIndex::dod_bucket(Dod::new(0.5 + 1e-9)), 513);
    }

    #[test]
    fn set_dod_moves_only_on_bucket_crossings() {
        let mut index = ChargeIndex::new();
        index.upsert(RackId::new(7), Priority::P2, Dod::new(0.5), Amperes::ZERO);
        // A refresh inside the same 1/1024 bucket leaves the ordering alone.
        assert!(!index.set_dod(RackId::new(7), Dod::new(0.5 - 1e-9)));
        // A refresh across a bucket boundary re-slots the entry.
        assert!(index.set_dod(RackId::new(7), Dod::new(0.75)));
        assert_eq!(index.get(RackId::new(7)).unwrap().dod, Dod::new(0.75));
        assert!(
            !index.set_dod(RackId::new(99), Dod::new(0.1)),
            "unknown rack"
        );
    }

    #[test]
    fn upsert_replaces_and_remove_unlinks() {
        let mut index = ChargeIndex::new();
        index.upsert(RackId::new(4), Priority::P3, Dod::new(0.8), Amperes::ZERO);
        index.upsert(
            RackId::new(4),
            Priority::P1,
            Dod::new(0.1),
            Amperes::new(2.0),
        );
        assert_eq!(index.len(), 1);
        assert_eq!(index.current(RackId::new(4)), Some(Amperes::new(2.0)));
        let removed = index.remove(RackId::new(4)).unwrap();
        assert_eq!(removed.priority, Priority::P1);
        assert!(index.is_empty());
        assert!(index.remove(RackId::new(4)).is_none());
        // No stale order entries survive the churn.
        assert_eq!(index.charge_order().count(), 0);
    }

    #[test]
    fn set_current_does_not_reorder() {
        let mut index = ChargeIndex::new();
        index.upsert(RackId::new(0), Priority::P1, Dod::new(0.3), Amperes::ZERO);
        index.upsert(RackId::new(1), Priority::P1, Dod::new(0.6), Amperes::ZERO);
        let before = ids(&index);
        index.set_current(RackId::new(1), Amperes::new(4.0));
        assert_eq!(ids(&index), before);
        assert_eq!(index.current(RackId::new(1)), Some(Amperes::new(4.0)));
        index.set_current(RackId::new(9), Amperes::new(1.0)); // ignored
        assert_eq!(index.current(RackId::new(9)), None);
    }

    #[test]
    fn states_round_trip_in_charge_order() {
        let mut index = ChargeIndex::new();
        index.upsert(RackId::new(5), Priority::P2, Dod::new(0.4), Amperes::ZERO);
        index.upsert(RackId::new(3), Priority::P1, Dod::new(0.7), Amperes::ZERO);
        let states = index.states();
        assert_eq!(states.len(), 2);
        assert_eq!(states[0].rack, RackId::new(3));
        assert_eq!(states[1].rack, RackId::new(5));
    }
}
