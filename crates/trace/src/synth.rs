//! Synthetic fleet trace generator calibrated to the Fig 12 envelope.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use recharge_units::{Priority, RackId, SimTime, Watts};

use crate::model::{DiurnalModel, FleetEntry, RackPowerTrace};

/// Builder for a [`SyntheticFleet`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct SyntheticFleetBuilder {
    counts: [usize; 3],
    mean_rack_power: Watts,
    rack_power_spread: f64,
    diurnal: DiurnalModel,
    noise_fraction: f64,
    noise_tick: f64,
    seed: u64,
}

impl SyntheticFleetBuilder {
    /// Starts a builder with the calibrated §V-B defaults (aggregate ≈2 MW at
    /// 316 racks, ±5% diurnal swing, 1.5% per-tick noise at 3-second ticks).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SyntheticFleetBuilder {
            counts: [89, 142, 85],
            mean_rack_power: Watts::from_kilowatts(6.33),
            rack_power_spread: 0.15,
            diurnal: DiurnalModel::standard(),
            noise_fraction: 0.015,
            noise_tick: 3.0,
            seed,
        }
    }

    /// Sets the number of racks per priority (P1, P2, P3).
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

    /// Sets the diurnal model.
    #[must_use]
    pub fn diurnal(mut self, model: DiurnalModel) -> Self {
        self.diurnal = model;
        self
    }

    /// Sets the noise-hold window in seconds (default 3 s, the paper trace's
    /// granularity): the per-rack noise factor is resampled every `seconds`.
    ///
    /// The simulator passes its scenario tick here so the trace's noise
    /// granularity agrees with the integration step instead of silently
    /// holding 3-second noise under a different tick.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is not positive and finite.
    #[must_use]
    pub fn noise_tick(mut self, seconds: f64) -> Self {
        assert!(
            seconds > 0.0 && seconds.is_finite(),
            "noise tick must be positive and finite, got {seconds}"
        );
        self.noise_tick = seconds;
        self
    }

    /// Builds the fleet.
    ///
    /// # Panics
    ///
    /// Panics if all priority counts are zero.
    #[must_use]
    pub fn build(self) -> SyntheticFleet {
        let total: usize = self.counts.iter().sum();
        assert!(total > 0, "fleet must contain at least one rack");

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut fleet = Vec::with_capacity(total);
        let mut base = Vec::with_capacity(total);
        let mut next = 0u32;
        for (idx, &count) in self.counts.iter().enumerate() {
            let priority = Priority::ALL[idx];
            for _ in 0..count {
                fleet.push(FleetEntry {
                    rack: RackId::new(next),
                    priority,
                });
                let jitter = 1.0 + rng.gen_range(-self.rack_power_spread..=self.rack_power_spread);
                base.push(self.mean_rack_power * jitter);
                next += 1;
            }
        }

        SyntheticFleet {
            fleet,
            base,
            diurnal: self.diurnal,
            noise_fraction: self.noise_fraction,
            noise_tick: self.noise_tick,
            seed: self.seed,
        }
    }
}

/// A deterministic synthetic fleet trace: per-rack base load × shared diurnal
/// factor × per-rack-per-tick hash noise.
///
/// The trace is *functional* — nothing is materialized — so a week of
/// 3-second samples for hundreds of racks costs no memory, matching how the
/// simulator queries it.
///
/// # Examples
///
/// ```
/// use recharge_trace::{RackPowerTrace, SyntheticFleet};
/// use recharge_units::{Priority, RackId, SimTime};
///
/// let fleet = SyntheticFleet::paper_msb(7);
/// assert_eq!(fleet.fleet().len(), 316);
/// assert_eq!(fleet.count_priority(Priority::P1), 89);
/// // Determinism: same query, same answer.
/// let a = fleet.rack_power(RackId::new(0), SimTime::from_secs(100.0));
/// let b = fleet.rack_power(RackId::new(0), SimTime::from_secs(100.0));
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticFleet {
    fleet: Vec<FleetEntry>,
    base: Vec<Watts>,
    diurnal: DiurnalModel,
    noise_fraction: f64,
    noise_tick: f64,
    seed: u64,
}

impl SyntheticFleet {
    /// The §V-B evaluation fleet: 89 P1 + 142 P2 + 85 P3 racks (316 total)
    /// with a 1.9–2.1 MW diurnal aggregate.
    #[must_use]
    pub fn paper_msb(seed: u64) -> Self {
        SyntheticFleetBuilder::new(seed).build()
    }

    /// A small single-row fleet (used by the prototype experiments): `counts`
    /// racks per priority at a typical 6 kW rack load.
    #[must_use]
    pub fn row(p1: usize, p2: usize, p3: usize, seed: u64) -> Self {
        SyntheticFleetBuilder::new(seed)
            .priority_counts(p1, p2, p3)
            .mean_rack_power(Watts::from_kilowatts(6.0))
            .build()
    }

    /// The diurnal model in use.
    #[must_use]
    pub fn diurnal(&self) -> &DiurnalModel {
        &self.diurnal
    }

    /// Deterministic per-rack-per-tick noise factor around 1.0.
    fn noise(&self, rack: RackId, at: SimTime) -> f64 {
        if self.noise_fraction == 0.0 {
            return 1.0;
        }
        // A signed window, so every hold window before t = 0 draws its own
        // noise; `as u64` keeps the bits of every window in [0, 2^63).
        let window = (at.as_secs() / self.noise_tick).floor() as i64;
        let mut h = self.seed ^ (u64::from(rack.index()).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        h ^= (window as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        // Map to [−1, 1).
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        1.0 + self.noise_fraction * unit
    }
}

impl RackPowerTrace for SyntheticFleet {
    fn fleet(&self) -> &[FleetEntry] {
        &self.fleet
    }

    fn rack_power(&self, rack: RackId, at: SimTime) -> Watts {
        let idx = rack.index() as usize;
        if idx >= self.base.len() {
            return Watts::ZERO;
        }
        self.base[idx] * self.diurnal.factor(at) * self.noise(rack, at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_msb_aggregate_envelope() {
        // Fig 12: aggregate cycles between ≈1.9 and ≈2.1 MW over the week.
        let fleet = SyntheticFleet::paper_msb(1);
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for hour in 0..(7 * 24) {
            let p = fleet.aggregate_power(SimTime::from_secs(f64::from(hour) * 3_600.0));
            min = min.min(p.as_megawatts());
            max = max.max(p.as_megawatts());
        }
        assert!((1.82..1.95).contains(&min), "min {min:.3} MW");
        assert!((2.05..2.18).contains(&max), "max {max:.3} MW");
    }

    #[test]
    fn priority_mix_matches_paper() {
        let fleet = SyntheticFleet::paper_msb(1);
        assert_eq!(fleet.count_priority(Priority::P1), 89);
        assert_eq!(fleet.count_priority(Priority::P2), 142);
        assert_eq!(fleet.count_priority(Priority::P3), 85);
        assert_eq!(fleet.fleet().len(), 316);
    }

    #[test]
    fn racks_are_heterogeneous_but_bounded() {
        let fleet = SyntheticFleet::paper_msb(2);
        let at = SimTime::ZERO;
        let powers: Vec<f64> = fleet
            .fleet()
            .iter()
            .map(|e| fleet.rack_power(e.rack, at).as_kilowatts())
            .collect();
        let min = powers.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = powers.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(min > 4.0, "min rack {min:.2} kW");
        assert!(max < 9.0, "max rack {max:.2} kW");
        assert!(max - min > 0.5, "racks should differ");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SyntheticFleet::paper_msb(5);
        let b = SyntheticFleet::paper_msb(5);
        let c = SyntheticFleet::paper_msb(6);
        let t = SimTime::from_secs(12_345.0);
        assert_eq!(a.aggregate_power(t), b.aggregate_power(t));
        assert_ne!(a.aggregate_power(t), c.aggregate_power(t));
    }

    #[test]
    fn unknown_rack_draws_zero() {
        let fleet = SyntheticFleet::row(2, 2, 2, 0);
        assert_eq!(
            fleet.rack_power(RackId::new(99), SimTime::ZERO),
            Watts::ZERO
        );
    }

    #[test]
    fn noise_changes_between_ticks_but_not_within() {
        let fleet = SyntheticFleet::paper_msb(3);
        let r = RackId::new(10);
        let a = fleet.rack_power(r, SimTime::from_secs(0.0));
        let b = fleet.rack_power(r, SimTime::from_secs(1.0)); // same 3 s tick
        let c = fleet.rack_power(r, SimTime::from_secs(4.0)); // next tick
        assert!(
            (a.as_watts() - b.as_watts()).abs() < 0.2,
            "within-tick drift"
        );
        assert_ne!(a, c);
    }

    #[test]
    fn windows_before_zero_draw_their_own_noise() {
        let fleet = SyntheticFleet::paper_msb(3);
        let r = RackId::new(10);
        let early = fleet.noise(r, SimTime::from_secs(-7.0));
        let late = fleet.noise(r, SimTime::from_secs(-4.0));
        assert_ne!(early, late, "windows [-9, -6) and [-6, -3) share a draw");
        assert_ne!(late, fleet.noise(r, SimTime::from_secs(1.0)));
        // Within one negative window the draw holds.
        assert_eq!(late, fleet.noise(r, SimTime::from_secs(-3.5)));
    }

    #[test]
    fn zero_noise_builder() {
        let fleet = SyntheticFleetBuilder {
            noise_fraction: 0.0,
            ..SyntheticFleetBuilder::new(0)
        }
        .build();
        let r = RackId::new(0);
        let a = fleet.rack_power(r, SimTime::from_secs(0.0));
        let b = fleet.rack_power(r, SimTime::from_secs(3.0));
        assert!((a.as_watts() - b.as_watts()).abs() < 1.0);
    }

    #[test]
    fn builder_customization() {
        let fleet = SyntheticFleetBuilder {
            rack_power_spread: 0.0,
            noise_fraction: 0.0,
            ..SyntheticFleetBuilder::new(1)
                .priority_counts(10, 0, 0)
                .mean_rack_power(Watts::from_kilowatts(10.0))
        }
        .build();
        assert_eq!(fleet.fleet().len(), 10);
        let p = fleet.rack_power(RackId::new(0), SimTime::from_secs(18.0 * 3_600.0));
        // At the diurnal peak: 10 kW × 1.05 (plus tiny weekly term).
        assert!((p.as_kilowatts() - 10.5).abs() < 0.2, "peak rack power {p}");
    }

    #[test]
    #[should_panic(expected = "at least one rack")]
    fn empty_fleet_panics() {
        let _ = SyntheticFleetBuilder::new(0)
            .priority_counts(0, 0, 0)
            .build();
    }

    #[test]
    fn noise_tick_sets_the_hold_window() {
        let fleet = SyntheticFleetBuilder::new(3).noise_tick(1.0).build();
        let r = RackId::new(10);
        let a = fleet.rack_power(r, SimTime::from_secs(0.0));
        let c = fleet.rack_power(r, SimTime::from_secs(1.0)); // next 1 s window
        assert_ne!(a, c, "1 s noise tick must resample every second");
    }

    #[test]
    #[should_panic(expected = "noise tick must be positive")]
    fn zero_noise_tick_panics() {
        let _ = SyntheticFleetBuilder::new(0).noise_tick(0.0);
    }

    #[test]
    #[should_panic(expected = "noise tick must be positive")]
    fn nan_noise_tick_panics() {
        let _ = SyntheticFleetBuilder::new(0).noise_tick(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "noise tick must be positive")]
    fn negative_noise_tick_panics() {
        let _ = SyntheticFleetBuilder::new(0).noise_tick(-3.0);
    }
}
