//! Property tests for the battery physics and charger policies.

use proptest::prelude::*;

use recharge_battery::{
    variable_current, Bbu, BbuPack, BbuParams, BbuState, ChargePolicy, ChargeTimeTable,
};
use recharge_units::{Amperes, Dod, Joules, Seconds, Watts};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn soc_stays_in_bounds_under_any_schedule(
        ops in proptest::collection::vec((0u8..3, 0.1f64..5_000.0, 1.0f64..300.0), 1..40)
    ) {
        let mut pack = BbuPack::new(BbuParams::production());
        for (op, magnitude, secs) in ops {
            match op {
                0 => {
                    pack.discharge_step(Watts::new(magnitude), Seconds::new(secs));
                }
                1 => {
                    let amps = Amperes::new((magnitude / 1_000.0).clamp(0.0, 5.0));
                    pack.charge_step(amps, Seconds::new(secs));
                }
                _ => {
                    // Interleave both in one step pair.
                    pack.discharge_step(Watts::new(magnitude), Seconds::new(secs / 2.0));
                    pack.charge_step(Amperes::new(2.0), Seconds::new(secs / 2.0));
                }
            }
            let soc = pack.soc().value();
            prop_assert!((0.0..=1.0).contains(&soc), "SoC {soc} out of bounds");
        }
    }

    #[test]
    fn discharge_energy_accounting_is_exact(
        power in 100.0f64..3_300.0,
        secs in 1.0f64..90.0,
    ) {
        let params = BbuParams::production();
        let mut pack = BbuPack::new(params);
        let step = pack.discharge_step(Watts::new(power), Seconds::new(secs));
        let delivered = step.delivered_power * Seconds::new(secs);
        let missing = params.full_discharge_energy * pack.dod().value();
        prop_assert!(
            (delivered.as_joules() - missing.as_joules()).abs() < 1.0,
            "delivered {delivered} vs missing {missing}"
        );
    }

    #[test]
    fn eq1_is_monotone_and_bounded(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let c_lo = variable_current(Dod::new(lo));
        let c_hi = variable_current(Dod::new(hi));
        prop_assert!(c_lo <= c_hi, "Eq.1 not monotone: {c_lo} at {lo} vs {c_hi} at {hi}");
        prop_assert!(c_hi <= Amperes::MAX_CHARGE && c_lo >= Amperes::new(2.0));
    }

    #[test]
    fn charge_time_lookup_is_monotone_in_both_axes(
        d1 in 0.0f64..=1.0, d2 in 0.0f64..=1.0,
        c1 in 1.0f64..=5.0, c2 in 1.0f64..=5.0,
    ) {
        let table = ChargeTimeTable::production();
        let (d_lo, d_hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let (c_lo, c_hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        let t_base = table.charge_time(Dod::new(d_lo), Amperes::new(c_hi)).unwrap();
        let t_deeper = table.charge_time(Dod::new(d_hi), Amperes::new(c_hi)).unwrap();
        let t_slower = table.charge_time(Dod::new(d_lo), Amperes::new(c_lo)).unwrap();
        prop_assert!(t_deeper >= t_base - Seconds::new(1.0));
        prop_assert!(t_slower >= t_base - Seconds::new(1.0));
    }

    #[test]
    fn bbu_state_machine_never_skips_charging(
        load_kw in 1.0f64..3.3,
        ot_secs in 5.0f64..90.0,
    ) {
        let mut bbu = Bbu::new(BbuParams::production(), ChargePolicy::Variable);
        bbu.input_power_lost();
        bbu.step(Watts::from_kilowatts(load_kw), Seconds::new(ot_secs));
        bbu.input_power_restored();
        // Any nonzero discharge must route through Charging before
        // FullyCharged (Fig 8a has no shortcut).
        prop_assert_eq!(bbu.state(), BbuState::Charging);
        prop_assert!(bbu.event_dod() > Dod::ZERO);
    }

    #[test]
    fn required_current_is_consistent_with_lookup(
        dod in 0.0f64..=1.0,
        budget_min in 10.0f64..150.0,
    ) {
        let table = ChargeTimeTable::production();
        let budget = Seconds::from_minutes(budget_min);
        if let Some(current) = table.required_current(Dod::new(dod), budget).unwrap() {
            let t = table.charge_time(Dod::new(dod), current).unwrap();
            prop_assert!(t <= budget + Seconds::new(1.0), "{t} > {budget} at {current}");
        } else {
            let t_max = table.charge_time(Dod::new(dod), Amperes::MAX_CHARGE).unwrap();
            prop_assert!(t_max > budget);
        }
    }

    #[test]
    fn wall_power_is_bounded_by_physical_ceiling(
        dod in 0.01f64..=1.0,
        amps in 1.0f64..=5.0,
    ) {
        let params = BbuParams::production();
        let mut pack = BbuPack::discharged(params, Dod::new(dod));
        let ceiling =
            params.cv_voltage.as_volts() * amps * params.wall_loss_factor + 1e-6;
        let mut guard = 0;
        while !pack.is_fully_charged() {
            let step = pack.charge_step(Amperes::new(amps), Seconds::new(1.0));
            prop_assert!(step.wall_power.as_watts() <= ceiling);
            prop_assert!(step.wall_power >= Watts::ZERO);
            guard += 1;
            prop_assert!(guard < 200_000);
        }
    }

    #[test]
    fn energy_missing_equals_event_dod_at_charge_start(
        load_kw in 0.5f64..3.0,
        secs in 1.0f64..120.0,
    ) {
        let mut bbu = Bbu::new(BbuParams::production(), ChargePolicy::Variable);
        bbu.input_power_lost();
        bbu.step(Watts::from_kilowatts(load_kw), Seconds::new(secs));
        bbu.input_power_restored();
        let expected = (load_kw * 1_000.0 * secs / 297_000.0).min(1.0);
        prop_assert!(
            (bbu.event_dod().value() - expected).abs() < 1e-9,
            "event dod {} vs expected {expected}",
            bbu.event_dod()
        );
    }

    #[test]
    fn charged_energy_never_exceeds_capacity(dod in 0.0f64..=1.0) {
        let params = BbuParams::production();
        let mut pack = BbuPack::discharged(params, Dod::new(dod));
        let mut stored = Joules::ZERO;
        let mut guard = 0;
        while !pack.is_fully_charged() && guard < 200_000 {
            stored += pack.charge_step(Amperes::new(5.0), Seconds::new(1.0)).stored_energy;
            guard += 1;
        }
        prop_assert!(stored <= params.full_discharge_energy * 1.01);
    }
}
