//! The Monte-Carlo availability-of-redundancy engine (Fig 9a).

use rand::rngs::StdRng;
use rand::SeedableRng;

use recharge_telemetry::{tcounter, tspan};
use recharge_units::Seconds;

use crate::dist::{Exponential, Normal};
use crate::table1::{FailureSource, ANNUAL_MAINTENANCE_STD_DAYS, MEAN_OPEN_TRANSITION_SECS};

/// Monte-Carlo sampler of rack-input-power-loss events.
///
/// Each Table I row is treated as an independent renewal process in a series
/// system (any component failing interrupts the rack's input power, Fig 8b):
///
/// * Exponential inter-failure times (MTBF mean), except annual maintenance
///   which is normally distributed with a one-year mean and a 41-day σ.
/// * Utility failures and maintenances produce **two open transitions** —
///   one when the event begins and one when it ends MTTR later — because the
///   rack rides to and from the alternate source; input power is present (and
///   the battery can recharge) in between.
/// * Power outages keep the rack dark for the whole exponentially distributed
///   repair time.
/// * Open-transition durations are exponential with a 45-second mean.
#[derive(Debug, Clone)]
pub struct AorSimulation {
    sources: Vec<FailureSource>,
    mean_ot: Exponential,
}

impl AorSimulation {
    /// Creates a simulation over the given failure sources with the standard
    /// 45-second mean open transition.
    #[must_use]
    pub fn new(sources: Vec<FailureSource>) -> Self {
        AorSimulation {
            sources,
            mean_ot: Exponential::with_mean(MEAN_OPEN_TRANSITION_SECS),
        }
    }

    /// Samples `horizon_years` of failures with a fixed seed and reduces them
    /// to a merged power-loss timeline.
    #[must_use]
    pub fn run(&self, horizon_years: f64, seed: u64) -> PowerLossTimeline {
        assert!(horizon_years > 0.0, "horizon must be positive");
        let horizon = Seconds::from_years(horizon_years).as_secs();
        let mut rng = StdRng::seed_from_u64(seed);
        let annual_gap = Normal::new(
            Seconds::from_years(1.0).as_secs(),
            Seconds::from_days(ANNUAL_MAINTENANCE_STD_DAYS).as_secs(),
        );

        let mut intervals: Vec<(f64, f64)> = Vec::new();
        for source in &self.sources {
            let mttr = Seconds::from_hours(source.mttr_hours).as_secs();
            let gap = Exponential::with_mean(Seconds::from_hours(source.mtbf_hours).as_secs());
            let mut t = 0.0;
            loop {
                let step = if source.failure_type.is_annual() {
                    annual_gap.sample_above(&mut rng, Seconds::from_days(1.0).as_secs())
                } else {
                    gap.sample(&mut rng)
                };
                t += step;
                if t >= horizon {
                    break;
                }
                if source.failure_type.is_outage() {
                    let repair = Exponential::with_mean(mttr).sample(&mut rng);
                    intervals.push((t, t + repair));
                    t += repair;
                } else {
                    // Transition out, repair on the alternate source,
                    // transition back.
                    let ot1 = self.mean_ot.sample(&mut rng);
                    intervals.push((t, t + ot1));
                    let repair = Exponential::with_mean(mttr).sample(&mut rng);
                    let back = t + ot1 + repair;
                    let ot2 = self.mean_ot.sample(&mut rng);
                    intervals.push((back, back + ot2));
                    t = back + ot2;
                }
            }
        }

        PowerLossTimeline::from_intervals(intervals, horizon)
    }

    /// Samples `trials` independent blocks of `years_per_trial` each and
    /// concatenates them into one timeline spanning
    /// `trials × years_per_trial` years.
    ///
    /// Trial `t` runs on its own RNG stream derived from `(seed, t)` via a
    /// SplitMix64 mix, and its intervals are shifted by `t` block lengths
    /// before the final merge — so the result is a pure function of
    /// `(years_per_trial, trials, seed)`, independent of execution order.
    /// [`run_trials_parallel`](Self::run_trials_parallel) exploits exactly
    /// that: it produces a **bit-identical** timeline on any thread count.
    #[must_use]
    pub fn run_trials(&self, years_per_trial: f64, trials: usize, seed: u64) -> PowerLossTimeline {
        let _trace = recharge_telemetry::env_trace_scope();
        tcounter!("mc.trials").add(trials as u64);
        let timelines: Vec<PowerLossTimeline> = (0..trials)
            .map(|t| {
                let _span = tspan!("mc.trial", "reliability");
                self.run(years_per_trial, trial_seed(seed, t))
            })
            .collect();
        let _concat_span = tspan!("mc.concat", "reliability");
        concat_timelines(&timelines, years_per_trial)
    }

    /// The parallel twin of [`run_trials`](Self::run_trials): distributes the
    /// trials over `threads` OS threads and returns a timeline bit-identical
    /// to the serial result.
    ///
    /// Each thread owns a disjoint chunk of the per-trial result slots, so
    /// no synchronization is needed beyond the scope join. `threads` is
    /// clamped to `[1, trials]`.
    #[must_use]
    pub fn run_trials_parallel(
        &self,
        years_per_trial: f64,
        trials: usize,
        seed: u64,
        threads: usize,
    ) -> PowerLossTimeline {
        let _trace = recharge_telemetry::env_trace_scope();
        let threads = threads.clamp(1, trials.max(1));
        tcounter!("mc.trials").add(trials as u64);
        let mut results: Vec<Option<PowerLossTimeline>> = vec![None; trials];
        let chunk = trials.div_ceil(threads);
        std::thread::scope(|scope| {
            for (c, slots) in results.chunks_mut(chunk.max(1)).enumerate() {
                let sim = &*self;
                scope.spawn(move || {
                    for (offset, slot) in slots.iter_mut().enumerate() {
                        let t = c * chunk + offset;
                        let _span = tspan!("mc.trial", "reliability");
                        *slot = Some(sim.run(years_per_trial, trial_seed(seed, t)));
                    }
                });
            }
        });
        let timelines: Vec<PowerLossTimeline> = results
            .into_iter()
            .map(|r| r.expect("all trials ran"))
            .collect();
        let _concat_span = tspan!("mc.concat", "reliability");
        concat_timelines(&timelines, years_per_trial)
    }

    /// Convenience: evaluates AOR at each charging time over one shared event
    /// stream, producing the Fig 9(a) curve.
    #[must_use]
    pub fn aor_curve(&self, horizon_years: f64, seed: u64, charge_times: &[Seconds]) -> AorCurve {
        let timeline = self.run(horizon_years, seed);
        let points = charge_times
            .iter()
            .map(|&ct| (ct, timeline.aor(ct)))
            .collect();
        AorCurve { points }
    }
}

/// Derives the RNG seed for trial `index` from the caller's master seed.
///
/// Two SplitMix64 steps over the (seed, index) pair decorrelate neighbouring
/// trial streams; the mapping is pure, so serial and parallel execution see
/// identical streams.
#[must_use]
fn trial_seed(seed: u64, index: usize) -> u64 {
    let mut state = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let first = rand::splitmix64(&mut state);
    first ^ rand::splitmix64(&mut state)
}

/// Concatenates per-trial timelines (each spanning `years_per_trial`) into a
/// single timeline over the combined horizon, shifting trial `t`'s intervals
/// by `t` block lengths.
fn concat_timelines(timelines: &[PowerLossTimeline], years_per_trial: f64) -> PowerLossTimeline {
    let block = Seconds::from_years(years_per_trial).as_secs();
    let horizon = block * timelines.len().max(1) as f64;
    let intervals: Vec<(f64, f64)> = timelines
        .iter()
        .enumerate()
        .flat_map(|(t, tl)| {
            let shift = block * t as f64;
            tl.intervals()
                .iter()
                .map(move |&(s, e)| (s + shift, e + shift))
        })
        .collect();
    PowerLossTimeline::from_intervals(intervals, horizon)
}

/// A merged, sorted set of rack-input-power-loss intervals over a horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerLossTimeline {
    /// Non-overlapping `(start, end)` seconds, sorted ascending.
    intervals: Vec<(f64, f64)>,
    horizon: f64,
}

impl PowerLossTimeline {
    /// Builds a timeline from raw (possibly overlapping) intervals, clipping
    /// to `[0, horizon]` and merging.
    #[must_use]
    fn from_intervals(mut intervals: Vec<(f64, f64)>, horizon: f64) -> Self {
        intervals.retain(|&(s, e)| e > s && s < horizon);
        for iv in &mut intervals {
            iv.0 = iv.0.max(0.0);
            iv.1 = iv.1.min(horizon);
        }
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let merged = Self::merge(&intervals);
        PowerLossTimeline {
            intervals: merged,
            horizon,
        }
    }

    fn merge(sorted: &[(f64, f64)]) -> Vec<(f64, f64)> {
        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(sorted.len());
        for &(s, e) in sorted {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        merged
    }

    /// The simulated horizon in seconds.
    #[must_use]
    pub fn horizon_secs(&self) -> f64 {
        self.horizon
    }

    /// The merged power-loss intervals, sorted ascending, as
    /// `(start, end)` seconds.
    #[must_use]
    pub fn intervals(&self) -> &[(f64, f64)] {
        &self.intervals
    }

    /// Number of distinct power-loss episodes.
    #[must_use]
    fn episode_count(&self) -> usize {
        self.intervals.len()
    }

    /// Power-loss episodes per simulated year.
    #[must_use]
    pub fn episodes_per_year(&self) -> f64 {
        self.episode_count() as f64 / (self.horizon / Seconds::from_years(1.0).as_secs())
    }

    /// Total time input power was out, in seconds.
    #[must_use]
    pub fn total_loss_secs(&self) -> f64 {
        self.intervals.iter().map(|&(s, e)| e - s).sum()
    }

    /// Availability of redundancy for a battery that needs `charge_time` to
    /// recharge after every input-power restoration.
    ///
    /// The battery is "not fully charged" during each power-loss interval and
    /// for `charge_time` afterwards; overlapping extensions merge (a second
    /// event during recharge does not double-count).
    #[must_use]
    pub fn aor(&self, charge_time: Seconds) -> f64 {
        let ct = charge_time.as_secs().max(0.0);
        let extended: Vec<(f64, f64)> = self
            .intervals
            .iter()
            .map(|&(s, e)| (s, (e + ct).min(self.horizon)))
            .collect();
        let merged = Self::merge(&extended);
        let lost: f64 = merged.iter().map(|&(s, e)| e - s).sum();
        1.0 - lost / self.horizon
    }

    /// Expected hours per year without redundancy at the given charge time —
    /// the "Loss of redundancy (hr/year)" column of Table II.
    #[must_use]
    pub fn loss_of_redundancy_hours_per_year(&self, charge_time: Seconds) -> f64 {
        (1.0 - self.aor(charge_time)) * 8_760.0
    }
}

/// The AOR-versus-charging-time curve of Fig 9(a).
#[derive(Debug, Clone, PartialEq)]
pub struct AorCurve {
    /// `(charging time, AOR)` points in query order.
    pub points: Vec<(Seconds, f64)>,
}

impl AorCurve {
    /// Linear-regression slope of AOR per minute of charging time (negative).
    #[must_use]
    pub fn slope_per_minute(&self) -> f64 {
        let n = self.points.len() as f64;
        if self.points.len() < 2 {
            return 0.0;
        }
        let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
        for &(t, aor) in &self.points {
            let x = t.as_minutes();
            sx += x;
            sy += aor;
            sxx += x * x;
            sxy += x * aor;
        }
        (n * sxy - sx * sy) / (n * sxx - sx * sx)
    }

    /// Maximum absolute deviation of the points from their own linear fit —
    /// small values confirm the paper's observation that AOR decreases
    /// *linearly* with charging time.
    #[must_use]
    pub fn max_deviation_from_linear(&self) -> f64 {
        if self.points.len() < 2 {
            return 0.0;
        }
        let slope = self.slope_per_minute();
        let n = self.points.len() as f64;
        let mean_x = self.points.iter().map(|(t, _)| t.as_minutes()).sum::<f64>() / n;
        let mean_y = self.points.iter().map(|(_, a)| a).sum::<f64>() / n;
        self.points
            .iter()
            .map(|&(t, a)| (a - (mean_y + slope * (t.as_minutes() - mean_x))).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table1::standard_sources;

    fn timeline() -> PowerLossTimeline {
        AorSimulation::new(standard_sources()).run(5_000.0, 7)
    }

    #[test]
    fn episode_rate_matches_hand_calculation() {
        // Utility ≈1.37/yr ×2 OTs + corrective ≈0.43/yr ×2 + annual 3/yr ×2 +
        // outages ≈0.05/yr ⇒ ≈9.7 episodes/yr.
        let t = timeline();
        let rate = t.episodes_per_year();
        assert!((8.0..11.5).contains(&rate), "episodes/yr = {rate:.2}");
    }

    #[test]
    fn aor_is_monotone_decreasing_in_charge_time() {
        let t = timeline();
        let mut prev = 1.0;
        for minutes in [0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0] {
            let aor = t.aor(Seconds::from_minutes(minutes));
            assert!(aor <= prev, "AOR increased at {minutes} min");
            assert!(aor > 0.99, "AOR {aor} suspiciously low");
            prev = aor;
        }
    }

    #[test]
    fn table2_aor_anchors() {
        // Table II: 30 min → 99.94%, 60 min → 99.90%, 90 min → 99.85%.
        let t = AorSimulation::new(standard_sources()).run(20_000.0, 11);
        let aor30 = t.aor(Seconds::from_minutes(30.0));
        let aor60 = t.aor(Seconds::from_minutes(60.0));
        let aor90 = t.aor(Seconds::from_minutes(90.0));
        assert!((0.9990..0.9997).contains(&aor30), "AOR(30) = {aor30:.5}");
        assert!((0.9985..0.9994).contains(&aor60), "AOR(60) = {aor60:.5}");
        assert!((0.9978..0.9990).contains(&aor90), "AOR(90) = {aor90:.5}");
    }

    #[test]
    fn aor_curve_is_close_to_linear() {
        let sim = AorSimulation::new(standard_sources());
        let times: Vec<Seconds> = (0..=9)
            .map(|i| Seconds::from_minutes(f64::from(i) * 10.0))
            .collect();
        let curve = sim.aor_curve(10_000.0, 3, &times);
        assert!(curve.slope_per_minute() < 0.0);
        assert!(
            curve.max_deviation_from_linear() < 2e-4,
            "deviation {}",
            curve.max_deviation_from_linear()
        );
    }

    #[test]
    fn merging_handles_overlaps() {
        let t = PowerLossTimeline::from_intervals(
            vec![(10.0, 20.0), (15.0, 30.0), (40.0, 50.0), (50.0, 55.0)],
            100.0,
        );
        assert_eq!(t.episode_count(), 2);
        assert!((t.total_loss_secs() - 35.0).abs() < 1e-9);
        // A 5 s charge time bridges nothing new between 30→40.
        assert!((t.aor(Seconds::new(5.0)) - (1.0 - 45.0 / 100.0)).abs() < 1e-9);
    }

    #[test]
    fn clipping_to_horizon() {
        let t = PowerLossTimeline::from_intervals(vec![(-5.0, 10.0), (95.0, 200.0)], 100.0);
        assert!((t.total_loss_secs() - 15.0).abs() < 1e-9);
        // Charge time extension cannot run past the horizon.
        assert!(t.aor(Seconds::new(1_000.0)) >= 0.0);
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let sim = AorSimulation::new(standard_sources());
        let a = sim.run(500.0, 99);
        let b = sim.run(500.0, 99);
        assert_eq!(a, b);
        let c = sim.run(500.0, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn loss_of_redundancy_matches_table2_column() {
        let t = AorSimulation::new(standard_sources()).run(20_000.0, 11);
        // Table II pairs 99.94% with 5.26 h/yr: the identity (1−AOR)·8760.
        let hours = t.loss_of_redundancy_hours_per_year(Seconds::from_minutes(30.0));
        let aor = t.aor(Seconds::from_minutes(30.0));
        assert!((hours - (1.0 - aor) * 8_760.0).abs() < 1e-9);
        assert!((2.0..9.0).contains(&hours), "LoR(30min) = {hours:.2} h/yr");
    }

    #[test]
    fn parallel_trials_are_bit_identical_to_serial() {
        let sim = AorSimulation::new(standard_sources());
        let serial = sim.run_trials(100.0, 12, 42);
        for threads in [1, 2, 3, 5, 12, 64] {
            let parallel = sim.run_trials_parallel(100.0, 12, 42, threads);
            assert_eq!(serial, parallel, "diverged at {threads} threads");
        }
    }

    #[test]
    fn trials_statistics_match_single_stream() {
        // Chopping the horizon into independent trials must not bias the
        // long-run episode rate or AOR (edge effects are O(1/block)).
        let sim = AorSimulation::new(standard_sources());
        let t = sim.run_trials(500.0, 10, 7);
        assert!(
            (8.0..11.5).contains(&t.episodes_per_year()),
            "{}",
            t.episodes_per_year()
        );
        let aor30 = t.aor(Seconds::from_minutes(30.0));
        assert!((0.998..0.99995).contains(&aor30), "AOR(30) = {aor30:.5}");
        assert!((t.horizon_secs() - Seconds::from_years(5_000.0).as_secs()).abs() < 1.0);
    }

    #[test]
    fn trial_seeds_are_decorrelated() {
        let s: Vec<u64> = (0..64).map(|i| trial_seed(9, i)).collect();
        let mut unique = s.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), s.len(), "colliding trial seeds");
        // A different master seed shifts every stream.
        assert!((0..64).all(|i| trial_seed(10, i) != s[i]));
    }

    #[test]
    fn custom_open_transition_mean() {
        let sim = AorSimulation {
            mean_ot: Exponential::with_mean(5.0),
            ..AorSimulation::new(standard_sources())
        };
        let t = sim.run(2_000.0, 5);
        // Shorter OTs reduce raw loss time but episodes stay similar.
        assert!((8.0..11.5).contains(&t.episodes_per_year()));
    }
}
