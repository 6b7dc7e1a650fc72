//! Multi-MSB campus topologies: N independent paper rows, one per breaker.
//!
//! The paper evaluates one MSB of 316 racks (Fig 12); the related work we
//! track operates at multi-MSB campus scale. A [`CampusFleet`] replicates the
//! `paper_msb` row N times under independent MSB breakers, with per-row
//! derived seeds so the rows decorrelate, and presents the whole campus as a
//! single dense [`RackPowerTrace`] for the fleet backends to step.

use serde::{Deserialize, Serialize};

use recharge_units::{RackId, SimTime, Watts};

use crate::model::{FleetEntry, RackPowerTrace};
use crate::synth::{SyntheticFleet, SyntheticFleetBuilder};

/// Odd multiplier decorrelating per-row seeds (splitmix64's golden constant).
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Builder for a [`CampusFleet`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct CampusFleetBuilder {
    msbs: usize,
    seed: u64,
    counts: [usize; 3],
    mean_rack_power: Watts,
    noise_tick: Option<f64>,
    msb_limit: Watts,
}

impl CampusFleetBuilder {
    /// Starts a campus of `msbs` breakers seeded from `seed`, each carrying
    /// the calibrated §V-B row (89/142/85 racks ≈ 2 MW) under a 2.5 MW limit.
    #[must_use]
    pub fn new(msbs: usize, seed: u64) -> Self {
        CampusFleetBuilder {
            msbs,
            seed,
            counts: [89, 142, 85],
            mean_rack_power: Watts::from_kilowatts(6.33),
            noise_tick: None,
            msb_limit: Watts::from_megawatts(2.5),
        }
    }

    /// Sets the per-MSB rack counts per priority (P1, P2, P3).
    #[must_use]
    pub fn priority_counts(mut self, p1: usize, p2: usize, p3: usize) -> Self {
        self.counts = [p1, p2, p3];
        self
    }

    /// Sets the mean per-rack IT load.
    #[must_use]
    pub fn mean_rack_power(mut self, mean: Watts) -> Self {
        self.mean_rack_power = mean;
        self
    }

    /// Sets the noise-hold window of every row (see
    /// [`SyntheticFleetBuilder::noise_tick`]).
    #[must_use]
    pub fn noise_tick(mut self, seconds: f64) -> Self {
        self.noise_tick = Some(seconds);
        self
    }

    /// Sets the per-MSB breaker limit (default 2.5 MW, the paper's).
    #[must_use]
    pub fn msb_limit(mut self, limit: Watts) -> Self {
        self.msb_limit = limit;
        self
    }

    /// Builds the campus.
    ///
    /// # Panics
    ///
    /// Panics if `msbs` is zero or a row is empty.
    #[must_use]
    pub fn build(self) -> CampusFleet {
        assert!(self.msbs > 0, "campus must contain at least one MSB");
        let rows = (0..self.msbs)
            .map(|msb| {
                let row_seed = self
                    .seed
                    .wrapping_add((msb as u64).wrapping_mul(SEED_STRIDE));
                let mut builder = SyntheticFleetBuilder::new(row_seed)
                    .priority_counts(self.counts[0], self.counts[1], self.counts[2])
                    .mean_rack_power(self.mean_rack_power);
                if let Some(tick) = self.noise_tick {
                    builder = builder.noise_tick(tick);
                }
                builder.build()
            })
            .collect();
        CampusFleet::from_rows(rows, self.msb_limit)
    }
}

/// A campus of N independent MSBs, each replaying its own synthetic row.
///
/// Rack ids are dense across the campus: row `i`'s racks occupy the
/// contiguous id range starting at the sum of the preceding rows' sizes, so
/// the fleet backends (and their struct-of-arrays layouts) see one flat
/// fleet while each rack's load still comes from its own row.
///
/// # Examples
///
/// ```
/// use recharge_trace::{CampusFleet, RackPowerTrace};
/// use recharge_units::{SimTime, Watts};
///
/// let campus = CampusFleet::paper_campus(4, 7);
/// assert_eq!(campus.fleet().len(), 4 * 316);
/// // Four ≈2 MW rows, each under its own 2.5 MW breaker.
/// let p = campus.aggregate_power(SimTime::ZERO);
/// assert!(p < campus.msb_limit() * 4.0);
/// assert!(p > Watts::from_megawatts(7.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampusFleet {
    rows: Vec<SyntheticFleet>,
    entries: Vec<FleetEntry>,
    /// Global rack-id offset of each row; `offsets[i]..offsets[i]+len(i)`.
    offsets: Vec<u32>,
    msb_limit: Watts,
}

impl CampusFleet {
    /// A campus of `msbs` copies of the §V-B evaluation row (316 racks,
    /// ≈2 MW each) under independent 2.5 MW breakers, seeded from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `msbs` is zero.
    #[must_use]
    pub fn paper_campus(msbs: usize, seed: u64) -> Self {
        CampusFleetBuilder::new(msbs, seed).build()
    }

    /// Assembles a campus from prebuilt rows, re-identifying their racks into
    /// one dense campus-wide id space.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty.
    #[must_use]
    fn from_rows(rows: Vec<SyntheticFleet>, msb_limit: Watts) -> Self {
        assert!(!rows.is_empty(), "campus must contain at least one MSB");
        let total: usize = rows.iter().map(|r| r.fleet().len()).sum();
        let mut entries = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(rows.len());
        let mut next = 0u32;
        for row in &rows {
            offsets.push(next);
            for entry in row.fleet() {
                entries.push(FleetEntry {
                    rack: RackId::new(next + entry.rack.index()),
                    priority: entry.priority,
                });
            }
            next += u32::try_from(row.fleet().len()).expect("row exceeds u32 racks");
        }
        CampusFleet {
            rows,
            entries,
            offsets,
            msb_limit,
        }
    }

    /// The per-MSB breaker limit.
    #[must_use]
    pub fn msb_limit(&self) -> Watts {
        self.msb_limit
    }

    /// The MSB whose breaker feeds `rack`, or `None` for unknown racks.
    #[must_use]
    fn msb_of(&self, rack: RackId) -> Option<usize> {
        if rack.index() as usize >= self.entries.len() {
            return None;
        }
        // partition_point: first offset strictly greater than the rack, minus
        // one, is the row that contains it.
        Some(self.offsets.partition_point(|&o| o <= rack.index()) - 1)
    }
}

impl RackPowerTrace for CampusFleet {
    fn fleet(&self) -> &[FleetEntry] {
        &self.entries
    }

    fn rack_power(&self, rack: RackId, at: SimTime) -> Watts {
        let Some(msb) = self.msb_of(rack) else {
            return Watts::ZERO;
        };
        let local = RackId::new(rack.index() - self.offsets[msb]);
        self.rows[msb].rack_power(local, at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recharge_units::Priority;

    #[test]
    fn paper_campus_is_n_paper_rows_with_dense_ids() {
        let campus = CampusFleet::paper_campus(3, 1);
        assert_eq!(campus.rows.len(), 3);
        assert_eq!(campus.fleet().len(), 3 * 316);
        for (i, e) in campus.fleet().iter().enumerate() {
            assert_eq!(e.rack.index() as usize, i, "ids must be campus-dense");
        }
        assert_eq!(campus.count_priority(Priority::P1), 3 * 89);
        assert_eq!(campus.count_priority(Priority::P2), 3 * 142);
        assert_eq!(campus.count_priority(Priority::P3), 3 * 85);
    }

    #[test]
    fn msb_of_maps_ranges_to_breakers() {
        let campus = CampusFleet::paper_campus(3, 2);
        assert_eq!(campus.msb_of(RackId::new(0)), Some(0));
        assert_eq!(campus.msb_of(RackId::new(315)), Some(0));
        assert_eq!(campus.msb_of(RackId::new(316)), Some(1));
        assert_eq!(campus.msb_of(RackId::new(2 * 316)), Some(2));
        assert_eq!(campus.msb_of(RackId::new(3 * 316 - 1)), Some(2));
        assert_eq!(campus.msb_of(RackId::new(3 * 316)), None);
    }

    #[test]
    fn each_msb_carries_an_independent_2mw_row() {
        let campus = CampusFleet::paper_campus(4, 5);
        let at = SimTime::from_secs(12_345.0);
        let mut aggregates = Vec::new();
        for (msb, row) in campus.rows.iter().enumerate() {
            let p = row.aggregate_power(at);
            assert!(
                (1.8..2.2).contains(&p.as_megawatts()),
                "MSB {msb} aggregate {p}"
            );
            assert!(p < campus.msb_limit());
            aggregates.push(p);
        }
        // Rows are seeded independently: no two identical aggregates.
        aggregates.dedup();
        assert_eq!(aggregates.len(), 4, "rows must decorrelate");
    }

    #[test]
    fn rack_power_delegates_to_the_owning_row() {
        let campus = CampusFleet::paper_campus(2, 9);
        let at = SimTime::from_secs(777.0);
        let row1 = SyntheticFleetBuilder::new(9u64.wrapping_add(SEED_STRIDE)).build();
        assert_eq!(
            campus.rack_power(RackId::new(316 + 10), at),
            row1.rack_power(RackId::new(10), at)
        );
        assert_eq!(campus.rack_power(RackId::new(9_999), at), Watts::ZERO);
    }

    #[test]
    fn determinism_per_seed() {
        let a = CampusFleet::paper_campus(2, 11);
        let b = CampusFleet::paper_campus(2, 11);
        let c = CampusFleet::paper_campus(2, 12);
        let t = SimTime::from_secs(3_600.0);
        assert_eq!(a.aggregate_power(t), b.aggregate_power(t));
        assert_ne!(a.aggregate_power(t), c.aggregate_power(t));
    }

    #[test]
    fn builder_customization() {
        let campus = CampusFleetBuilder::new(2, 0)
            .priority_counts(4, 3, 3)
            .mean_rack_power(Watts::from_kilowatts(5.0))
            .noise_tick(1.0)
            .msb_limit(Watts::from_kilowatts(80.0))
            .build();
        assert_eq!(campus.fleet().len(), 20);
        assert_eq!(campus.msb_limit(), Watts::from_kilowatts(80.0));
    }

    #[test]
    #[should_panic(expected = "at least one MSB")]
    fn zero_msbs_panics() {
        let _ = CampusFleet::paper_campus(0, 0);
    }
}
