//! The SLA-current policy of Fig 9(b): charging current required to meet a
//! rack's charging-time SLA given its battery depth of discharge.

use serde::{Deserialize, Serialize};

use recharge_battery::ChargeTimeTable;
use recharge_units::{Amperes, Dod, Priority};

use crate::sla::SlaTable;

/// Quantization of the memoized DOD axis: `sla_current` answers from a
/// precomputed table of this many equal bins over `[0, 1]`, rounding the
/// queried DOD *up* to the next bin edge (conservative: never undershoots the
/// exact current by construction).
pub const SLA_MEMO_DOD_BINS: usize = 1024;

/// Computes the per-rack SLA charging current (Fig 9b).
///
/// The policy inverts the charge-time surface of Fig 5 ("by linearly
/// interpolating the BBU charging time data", §IV-A): the SLA current is the
/// smallest current that charges back within the priority's Table II budget.
/// Two hardware-informed adjustments match the deployed behaviour:
///
/// * **Per-priority floors.** The §V-A prototype assigns 2 A to P1 racks and
///   1 A to P2/P3 racks even at <5% DOD, so P1 never drops below the variable
///   charger's 2 A automatic minimum while lower priorities may be relaxed to
///   the 1 A hardware floor.
/// * **Saturation.** When even 5 A cannot meet the budget (deep discharge
///   against a 30-minute SLA), the policy saturates at 5 A — the SLA is then
///   unattainable but the rack charges as fast as the hardware allows.
///
/// A DOD outside the charge-time table's sampled span is resolved by
/// position, not conflated with unattainability: below the grid the rack
/// needs nothing beyond its priority floor, above the grid it is treated as
/// the deepest sampled discharge.
///
/// Construction precomputes [`sla_current`](Self::sla_current) over a
/// quantized priority × DOD grid ([`SLA_MEMO_DOD_BINS`] ceil-rounded bins),
/// so the per-call cost on the controller's planning path is one table read;
/// [`sla_current_exact`](Self::sla_current_exact) keeps the unquantized
/// inversion. [`meets_sla`](Self::meets_sla) keeps its exact semantics and
/// uses a precomputed threshold-current table to answer most queries without
/// touching the interpolator.
///
/// # Examples
///
/// ```
/// use recharge_core::SlaCurrentPolicy;
/// use recharge_units::{Amperes, Dod, Priority};
///
/// let policy = SlaCurrentPolicy::production();
/// // Fig 10: at <5% DOD, P1 charges at 2 A while P2/P3 charge at 1 A.
/// assert_eq!(policy.sla_current(Priority::P1, Dod::new(0.04)), Amperes::new(2.0));
/// assert_eq!(policy.sla_current(Priority::P2, Dod::new(0.04)), Amperes::new(1.0));
/// assert_eq!(policy.sla_current(Priority::P3, Dod::new(0.04)), Amperes::new(1.0));
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct SlaCurrentPolicy {
    table: ChargeTimeTable,
    sla: SlaTable,
    floors: [Amperes; 3],
    /// `memo_current[p][b]` = exact SLA current at DOD `b / SLA_MEMO_DOD_BINS`
    /// for priority rank `p + 1`.
    memo_current: Vec<Vec<Amperes>>,
    /// `memo_meets_threshold[p][b]` = smallest current meeting the priority's
    /// (unmargined) SLA at DOD `b / SLA_MEMO_DOD_BINS`, `f64::INFINITY` when
    /// unattainable at 5 A. Used as a sound fast accept/reject for
    /// [`meets_sla`](Self::meets_sla).
    memo_meets_threshold: Vec<Vec<f64>>,
}

impl PartialEq for SlaCurrentPolicy {
    fn eq(&self, other: &Self) -> bool {
        // The memo tables are derived data; comparing them would also make a
        // policy over a partial grid unequal to itself (NaN sentinel bins).
        self.table == other.table && self.sla == other.sla && self.floors == other.floors
    }
}

impl core::fmt::Debug for SlaCurrentPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SlaCurrentPolicy")
            .field("table", &self.table)
            .field("sla", &self.sla)
            .field("floors", &self.floors)
            .finish_non_exhaustive()
    }
}

impl SlaCurrentPolicy {
    /// The deployed configuration: the production charge-time table, Table II
    /// SLAs, and floors of 2 A (P1) / 1 A (P2, P3).
    #[must_use]
    pub fn production() -> Self {
        SlaCurrentPolicy::new(ChargeTimeTable::production().clone(), SlaTable::table2())
    }

    /// Creates a policy from a charge-time table and SLA table with the
    /// standard floors.
    #[must_use]
    pub fn new(table: ChargeTimeTable, sla: SlaTable) -> Self {
        let mut policy = SlaCurrentPolicy {
            table,
            sla,
            floors: [Amperes::new(2.0), Amperes::MIN_CHARGE, Amperes::MIN_CHARGE],
            memo_current: Vec::new(),
            memo_meets_threshold: Vec::new(),
        };
        policy.rebuild_memo();
        policy
    }

    /// Overrides the per-priority minimum currents.
    ///
    /// # Panics
    ///
    /// Panics if any floor lies outside the 1–5 A hardware range.
    #[must_use]
    pub fn with_floors(mut self, floors: [Amperes; 3]) -> Self {
        for f in floors {
            assert!(
                (Amperes::MIN_CHARGE..=Amperes::MAX_CHARGE).contains(&f),
                "floors must lie within the 1-5 A hardware range"
            );
        }
        self.floors = floors;
        self.rebuild_memo();
        self
    }

    /// Recomputes the quantized lookup tables after any change to the table,
    /// SLA budgets, or floors.
    fn rebuild_memo(&mut self) {
        let bins = SLA_MEMO_DOD_BINS;
        let mut memo_current = Vec::with_capacity(Priority::ALL.len());
        let mut memo_threshold = Vec::with_capacity(Priority::ALL.len());
        for prio in Priority::ALL {
            let budget = self.sla.charge_time_budget(prio);
            let mut currents = Vec::with_capacity(bins + 1);
            let mut thresholds = Vec::with_capacity(bins + 1);
            for b in 0..=bins {
                let dod = Dod::new(b as f64 / bins as f64);
                currents.push(self.sla_current_exact(prio, dod));
                // Threshold against the *unmargined* budget so the fast
                // accept/reject agrees with `meets_sla`'s exact semantics:
                // +inf = unattainable even at 5 A, NaN = bin outside a
                // partial grid (neither accept nor reject from it).
                thresholds.push(match self.table.required_current(dod, budget) {
                    Ok(Some(c)) => c.as_amps(),
                    Ok(None) => f64::INFINITY,
                    Err(_) => f64::NAN,
                });
            }
            memo_current.push(currents);
            memo_threshold.push(thresholds);
        }
        self.memo_current = memo_current;
        self.memo_meets_threshold = memo_threshold;
    }

    /// The SLA table in force.
    #[must_use]
    pub fn sla(&self) -> &SlaTable {
        &self.sla
    }

    /// The minimum current for a priority.
    #[must_use]
    pub fn floor(&self, priority: Priority) -> Amperes {
        self.floors[(priority.rank() - 1) as usize]
    }

    /// Planning safety margin: SLA currents are sized against 97% of the
    /// budget so that model/physics mismatch and control-loop latency cannot
    /// push a boundary rack just past its SLA.
    const SLA_SAFETY_MARGIN: f64 = 0.97;

    /// The Fig 9(b) SLA charging current for a rack of the given priority
    /// whose battery discharged to `dod`, clamped to the hardware range.
    ///
    /// Answers from the precomputed grid by rounding `dod` *up* to the next
    /// of [`SLA_MEMO_DOD_BINS`] bin edges, so the result never undershoots
    /// [`sla_current_exact`](Self::sla_current_exact) and differs from it by
    /// at most one bin step of discharge depth.
    #[must_use]
    pub fn sla_current(&self, priority: Priority, dod: Dod) -> Amperes {
        // Dod is clamped to [0, 1] on construction, so ceil lands in 0..=BINS;
        // min() guards the 1.0 * BINS float edge only.
        let bin = (dod.value() * SLA_MEMO_DOD_BINS as f64).ceil() as usize;
        self.memo_current[(priority.rank() - 1) as usize][bin.min(SLA_MEMO_DOD_BINS)]
    }

    /// The unquantized Fig 9(b) SLA current: inverts the charge-time table
    /// directly instead of reading the memoized grid.
    #[must_use]
    pub fn sla_current_exact(&self, priority: Priority, dod: Dod) -> Amperes {
        let budget = self.sla.charge_time_budget(priority) * Self::SLA_SAFETY_MARGIN;
        let required = match self.table.required_current(dod, budget) {
            Ok(Some(c)) => c,
            // Even the maximum sampled current misses the budget: saturate.
            Ok(None) => Amperes::MAX_CHARGE,
            // The DOD lies outside a partial table's sampled span. This is
            // *not* unattainability: below the span the battery is shallower
            // than any sample (the floor suffices), above it charge as for
            // the deepest sampled discharge.
            Err(_) => {
                let (shallowest, deepest) = self.table.dod_domain();
                if dod < shallowest {
                    self.floor(priority)
                } else {
                    self.table
                        .required_current(deepest, budget)
                        .ok()
                        .flatten()
                        .unwrap_or(Amperes::MAX_CHARGE)
                }
            }
        };
        required
            .max(self.floor(priority))
            .clamp(Amperes::MIN_CHARGE, Amperes::MAX_CHARGE)
    }

    /// Whether a rack charging at `current` from `dod` meets its priority's
    /// charging-time SLA.
    ///
    /// Semantics are exact (unquantized), but the query is fully memoized:
    /// because the table's charge-time interpolation is monotone in DOD
    /// between grid rows (nondecreasing minutes down every current column, a
    /// property the charge-time physics guarantees and the workspace property
    /// tests pin), the precomputed threshold currents at the two enclosing
    /// 1/[`SLA_MEMO_DOD_BINS`] bin edges bracket the answer. The interpolator
    /// is consulted only inside that one-bin ambiguity band — `current`
    /// strictly between the two edge thresholds — or when a bin edge lies
    /// outside a partial grid's sampled span (NaN sentinel).
    #[must_use]
    pub fn meets_sla(&self, priority: Priority, dod: Dod, current: Amperes) -> bool {
        let current = current.clamp(Amperes::MIN_CHARGE, Amperes::MAX_CHARGE);
        let thresholds = &self.memo_meets_threshold[(priority.rank() - 1) as usize];
        let scaled = dod.value() * SLA_MEMO_DOD_BINS as f64;
        let bin_lo = (scaled.floor() as usize).min(SLA_MEMO_DOD_BINS);
        let bin_hi = (scaled.ceil() as usize).min(SLA_MEMO_DOD_BINS);
        // Fast accept: enough current for the *deeper* bin edge also meets
        // the SLA at `dod` (charge time rises with DOD). Only valid when the
        // exact path would answer from the table at all, i.e. `dod` is inside
        // the sampled span. A NaN threshold (bin outside a partial grid)
        // fails the comparison and falls through.
        let (shallowest, deepest) = self.table.dod_domain();
        let in_span = dod >= shallowest && dod <= deepest;
        if in_span && current.as_amps() >= thresholds[bin_hi] {
            return true;
        }
        // Fast reject: unattainable even at 5 A for the *shallower* bin edge
        // is unattainable at `dod` too.
        if thresholds[bin_lo].is_infinite() {
            return false;
        }
        // Fast reject: by the same monotonicity, less current than the
        // *shallower* bin edge needs cannot charge the deeper `dod` back in
        // budget either. A NaN threshold fails the `<` and falls through.
        if in_span && current.as_amps() < thresholds[bin_lo] {
            return false;
        }
        let budget = self.sla.charge_time_budget(priority);
        self.table
            .charge_time(dod, current)
            .map(|t| t <= budget)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> SlaCurrentPolicy {
        SlaCurrentPolicy::production()
    }

    #[test]
    fn current_rises_with_dod() {
        let p = policy();
        for prio in Priority::ALL {
            let mut prev = Amperes::ZERO;
            for i in 0..=10 {
                let dod = Dod::new(f64::from(i) / 10.0);
                let c = p.sla_current(prio, dod);
                assert!(c >= prev, "{prio} current decreased at {dod}");
                assert!((Amperes::MIN_CHARGE..=Amperes::MAX_CHARGE).contains(&c));
                prev = c;
            }
        }
    }

    #[test]
    fn stricter_sla_needs_more_current() {
        let p = policy();
        for i in 0..=10 {
            let dod = Dod::new(f64::from(i) / 10.0);
            let c1 = p.sla_current(Priority::P1, dod);
            let c2 = p.sla_current(Priority::P2, dod);
            let c3 = p.sla_current(Priority::P3, dod);
            assert!(
                c1 >= c2,
                "P1 ({c1}) must not need less than P2 ({c2}) at {dod}"
            );
            assert!(
                c2 >= c3,
                "P2 ({c2}) must not need less than P3 ({c3}) at {dod}"
            );
        }
    }

    #[test]
    fn prototype_floor_behaviour() {
        // Fig 10: at ~5% DOD, P1 → 2 A, P2/P3 → 1 A.
        let p = policy();
        assert_eq!(
            p.sla_current(Priority::P1, Dod::new(0.05)),
            Amperes::new(2.0)
        );
        assert_eq!(
            p.sla_current(Priority::P2, Dod::new(0.05)),
            Amperes::MIN_CHARGE
        );
        assert_eq!(
            p.sla_current(Priority::P3, Dod::new(0.05)),
            Amperes::MIN_CHARGE
        );
    }

    #[test]
    fn p1_saturates_at_5a_for_deep_discharge() {
        let p = policy();
        let c = p.sla_current(Priority::P1, Dod::FULL);
        assert_eq!(c, Amperes::MAX_CHARGE);
        // At 100% DOD the 30-minute SLA is unattainable even at 5 A.
        assert!(!p.meets_sla(Priority::P1, Dod::FULL, Amperes::MAX_CHARGE));
    }

    #[test]
    fn assigned_sla_current_meets_sla_when_attainable() {
        let p = policy();
        for prio in Priority::ALL {
            for i in 0..=10 {
                let dod = Dod::new(f64::from(i) / 10.0);
                let c = p.sla_current(prio, dod);
                let attainable = p.meets_sla(prio, dod, Amperes::MAX_CHARGE);
                if attainable {
                    assert!(
                        p.meets_sla(prio, dod, c),
                        "{prio} at {dod}: SLA current {c} should meet the SLA"
                    );
                }
            }
        }
    }

    #[test]
    fn p3_meets_sla_at_floor_for_medium_discharge() {
        // The Fig 14(a) observation: P3 racks charging at the 1 A minimum
        // still meet their 90-minute SLA at medium (≈50%) discharge.
        let p = policy();
        assert!(p.meets_sla(Priority::P3, Dod::new(0.5), Amperes::MIN_CHARGE));
        // But not at high (≈70%) discharge — Fig 14(c).
        assert!(!p.meets_sla(Priority::P3, Dod::new(0.7), Amperes::MIN_CHARGE));
    }

    #[test]
    fn custom_floors() {
        let p = policy().with_floors([Amperes::new(3.0); 3]);
        assert_eq!(
            p.sla_current(Priority::P3, Dod::new(0.01)),
            Amperes::new(3.0)
        );
        assert_eq!(p.floor(Priority::P2), Amperes::new(3.0));
    }

    #[test]
    #[should_panic(expected = "hardware range")]
    fn out_of_range_floor_panics() {
        let _ = policy().with_floors([Amperes::new(0.5), Amperes::new(1.0), Amperes::new(1.0)]);
    }

    #[test]
    fn accessors() {
        let p = policy();
        assert_eq!(p.sla(), &SlaTable::table2());
        assert_eq!(p.floor(Priority::P1), Amperes::new(2.0));
        assert!(p.table.grid().dods.len() >= 2);
    }

    /// Builds a policy whose charge-time table only samples DODs in
    /// [0.2, 0.8] — the configuration that exposes the out-of-span bug.
    fn partial_grid_policy() -> SlaCurrentPolicy {
        use recharge_battery::{BbuParams, ChargeTimeGrid};
        use recharge_units::Seconds;
        let table = ChargeTimeTable::generate(
            &BbuParams::production(),
            ChargeTimeGrid {
                dods: vec![0.2, 0.5, 0.8],
                currents: vec![1.0, 2.0, 3.0, 4.0, 5.0],
                step: Seconds::new(1.0),
            },
        )
        .unwrap();
        SlaCurrentPolicy::new(table, SlaTable::table2())
    }

    #[test]
    fn below_grid_dod_gets_floor_not_saturation() {
        // Regression for the `Err`/`Ok(None)` conflation: a DOD below a
        // partial table's sampled span used to be treated as unattainable and
        // assigned the full 5 A, starving the rest of the fleet's budget.
        let p = partial_grid_policy();
        assert_eq!(
            p.sla_current_exact(Priority::P2, Dod::new(0.05)),
            Amperes::MIN_CHARGE
        );
        assert_eq!(
            p.sla_current_exact(Priority::P1, Dod::new(0.05)),
            Amperes::new(2.0)
        );
        // The memoized path agrees.
        assert_eq!(
            p.sla_current(Priority::P2, Dod::new(0.05)),
            Amperes::MIN_CHARGE
        );
        assert_eq!(
            p.sla_current(Priority::P1, Dod::new(0.05)),
            Amperes::new(2.0)
        );
    }

    #[test]
    fn above_grid_dod_charges_like_deepest_sample() {
        let p = partial_grid_policy();
        let (_, deepest) = p.table.dod_domain();
        for prio in Priority::ALL {
            assert_eq!(
                p.sla_current_exact(prio, Dod::new(0.95)),
                p.sla_current_exact(prio, deepest),
                "{prio}: DOD above the sampled span should behave like the deepest sample"
            );
        }
    }

    #[test]
    fn partial_grid_meets_sla_matches_plain_interpolation() {
        // The memo fast paths must not change answers near or beyond the
        // partial span's edges, where bins carry the NaN sentinel.
        let p = partial_grid_policy();
        for prio in Priority::ALL {
            let budget = p.sla().charge_time_budget(prio);
            for i in 0..=40 {
                let dod = Dod::new(f64::from(i) / 40.0);
                for amps in [1.0, 2.5, 5.0] {
                    let current = Amperes::new(amps);
                    let plain = p
                        .table
                        .charge_time(dod, current)
                        .map(|t| t <= budget)
                        .unwrap_or(false);
                    assert_eq!(
                        p.meets_sla(prio, dod, current),
                        plain,
                        "{prio} at {dod} / {current}"
                    );
                }
            }
        }
    }

    #[test]
    fn memoized_current_matches_exact_on_bin_edges() {
        let p = policy();
        for prio in Priority::ALL {
            for b in (0..=SLA_MEMO_DOD_BINS).step_by(7) {
                let dod = Dod::new(b as f64 / SLA_MEMO_DOD_BINS as f64);
                assert_eq!(
                    p.sla_current(prio, dod),
                    p.sla_current_exact(prio, dod),
                    "{prio} at bin {b}"
                );
            }
        }
    }

    #[test]
    fn memoized_current_is_conservative_within_one_bin() {
        let p = policy();
        let step = 1.0 / SLA_MEMO_DOD_BINS as f64;
        let (mut excess, mut queries) = (0.0, 0u32);
        for prio in Priority::ALL {
            for i in 0..=1000 {
                let dod = Dod::new(f64::from(i) / 1000.0 * 0.999 + 0.0003);
                let memo = p.sla_current(prio, dod);
                let exact = p.sla_current_exact(prio, dod);
                let next = p.sla_current_exact(prio, Dod::new((dod.value() + step).min(1.0)));
                assert!(
                    memo >= exact,
                    "{prio} at {dod}: memo {memo} < exact {exact}"
                );
                assert!(
                    memo <= next,
                    "{prio} at {dod}: memo {memo} > one-bin-deeper {next}"
                );
                assert!(
                    memo >= Amperes::MIN_CHARGE,
                    "{prio} at {dod}: memo {memo} below the hardware floor"
                );
                excess += (memo - exact).as_amps().abs();
                queries += 1;
            }
        }
        // Rounding DOD up to the next bin costs at most 0.02 A on average.
        let mean = excess / f64::from(queries);
        assert!(mean <= 0.02, "mean memo excess {mean} A over 0.02 A");
    }

    #[test]
    fn meets_sla_agrees_with_plain_interpolation_on_production_table() {
        let p = policy();
        for prio in Priority::ALL {
            let budget = p.sla().charge_time_budget(prio);
            for i in 0..=100 {
                let dod = Dod::new(f64::from(i) / 100.0);
                for tenths in 10..=50 {
                    let current = Amperes::new(f64::from(tenths) / 10.0);
                    let plain = p
                        .table
                        .charge_time(dod, current)
                        .map(|t| t <= budget)
                        .unwrap_or(false);
                    assert_eq!(
                        p.meets_sla(prio, dod, current),
                        plain,
                        "{prio} at {dod} / {current}"
                    );
                }
            }
        }
    }
}
