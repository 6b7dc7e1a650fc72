//! Property tests for the Dynamo control plane: capping plans and the
//! controller's protection invariants.

use proptest::prelude::*;

use recharge_battery::BbuState;
use recharge_dynamo::capping::{plan_caps, plan_uncaps, MAX_CAP_FRACTION};
use recharge_dynamo::{
    Controller, ControllerConfig, ControllerSnapshot, FleetBackendKind, InMemoryBus, PowerReading,
    SimRackAgent, Strategy as ControlStrategy,
};
use recharge_units::{DeviceId, Dod, Priority, RackId, Seconds, SimTime, Watts};

fn arb_readings(max: usize) -> impl Strategy<Value = Vec<PowerReading>> {
    proptest::collection::vec((0u8..3, 500.0f64..12_600.0, proptest::bool::ANY), 1..max).prop_map(
        |specs| {
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (p, load, powered))| PowerReading {
                    rack: RackId::new(i as u32),
                    priority: Priority::ALL[p as usize],
                    input_power_present: powered,
                    it_load: Watts::new(load),
                    recharge_power: Watts::ZERO,
                    bbu_state: BbuState::FullyCharged,
                    event_dod: Dod::ZERO,
                    dod: Dod::ZERO,
                    capped_power: Watts::ZERO,
                })
                .collect()
        },
    )
}

/// `f64` bit patterns: in-range values, the values a snapshot must reject
/// (NaN, infinite, negative, above one), and arbitrary bits.
fn arb_f64_bits() -> impl Strategy<Value = u64> {
    (0usize..7, 0u64..u64::MAX).prop_map(|(k, raw)| match k {
        0 => f64::NAN.to_bits(),
        1 => f64::INFINITY.to_bits(),
        2 => (-0.5f64).to_bits(),
        3 => 1.5f64.to_bits(),
        4 => raw,
        _ => (raw as f64 / u64::MAX as f64).to_bits(),
    })
}

/// Snapshot-shaped bytes: a version byte, entries and parked racks with
/// arbitrary priority bytes and `f64` bits, then one optional corruption
/// (truncation, an appended byte, or a flipped byte). One case in four is
/// plain arbitrary bytes instead.
fn arb_snapshot_bytes() -> impl Strategy<Value = Vec<u8>> {
    let entry = (0u32..1000, 0u8..5, arb_f64_bits(), arb_f64_bits());
    let parked = (0u32..1000, 0u8..5, arb_f64_bits());
    (
        (0usize..4, 0u8..=255),
        proptest::collection::vec(entry, 0..4),
        proptest::collection::vec(parked, 0..3),
        (0usize..4, 0usize..256, 0u8..=255),
        proptest::collection::vec(0u8..=255, 0..64),
    )
        .prop_map(
            |((shape, version), entries, parked, (corrupt, at, byte), raw)| {
                if shape == 0 {
                    return raw;
                }
                let mut out = vec![if shape == 1 { version } else { 1 }];
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for (rack, priority, dod, current) in entries {
                    out.extend_from_slice(&rack.to_le_bytes());
                    out.push(priority);
                    out.extend_from_slice(&dod.to_le_bytes());
                    out.extend_from_slice(&current.to_le_bytes());
                }
                out.extend_from_slice(&(parked.len() as u32).to_le_bytes());
                for (rack, priority, dod) in parked {
                    out.extend_from_slice(&rack.to_le_bytes());
                    out.push(priority);
                    out.extend_from_slice(&dod.to_le_bytes());
                }
                match corrupt {
                    1 => out.truncate(at % out.len()),
                    2 => out.push(byte),
                    3 => {
                        let i = at % out.len();
                        out[i] ^= byte;
                    }
                    _ => {}
                }
                out
            },
        )
}

/// Backend-kind prefixes, so random suffixes exercise every parser arm.
const KIND_PREFIXES: [&str; 8] = [
    "",
    "serial",
    "soa",
    "event",
    "sharded:",
    "sharded-batched:",
    "soa-sharded:",
    "event-sharded:",
];

/// Suffix characters: digits and signs for the shard counts, separators,
/// letters, whitespace, a NUL and a few multi-byte characters.
const KIND_CHARS: &str = "0179+-:sa \0é\u{1F50B}٣x_";

fn arb_kind_text() -> impl Strategy<Value = String> {
    (
        0usize..KIND_PREFIXES.len(),
        proptest::collection::vec(0usize..KIND_CHARS.chars().count(), 0..24),
        proptest::collection::vec(0u32..0x11_0000, 0..8),
    )
        .prop_map(|(prefix, suffix, raw)| {
            let mut text = KIND_PREFIXES[prefix].to_owned();
            let pool: Vec<char> = KIND_CHARS.chars().collect();
            text.extend(suffix.into_iter().map(|i| pool[i]));
            if prefix == 0 {
                // Fully arbitrary scalar values, not just the pool.
                text.extend(raw.into_iter().filter_map(char::from_u32));
            }
            text
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn caps_never_exceed_the_fraction_and_cover_or_report(
        readings in arb_readings(25),
        deficit_kw in 0.0f64..80.0,
    ) {
        let deficit = Watts::from_kilowatts(deficit_kw);
        let (caps, uncovered) = plan_caps(&readings, deficit);

        let mut shed_total = Watts::ZERO;
        for cap in &caps {
            let reading = readings.iter().find(|r| r.rack == cap.rack).expect("cap targets a rack");
            prop_assert!(reading.input_power_present, "capped a rack on battery");
            prop_assert!(cap.shed <= reading.it_load * MAX_CAP_FRACTION + Watts::new(1e-9));
            prop_assert!(cap.limit >= Watts::ZERO);
            prop_assert!(
                (cap.limit + cap.shed - reading.it_load).abs() < Watts::new(1e-6),
                "limit + shed must equal the load"
            );
            shed_total += cap.shed;
        }
        prop_assert!(
            (shed_total + uncovered - deficit).abs() < Watts::new(1e-6)
                || shed_total >= deficit,
            "shed {shed_total} + uncovered {uncovered} must account for {deficit}"
        );
    }

    #[test]
    fn capping_respects_priority_order(
        readings in arb_readings(25),
        deficit_kw in 1.0f64..40.0,
    ) {
        let (caps, _) = plan_caps(&readings, Watts::from_kilowatts(deficit_kw));
        // If any P1 rack is capped, every powered P2/P3 rack must already be
        // capped at its maximum shed.
        let capped_p1 = caps.iter().any(|c| {
            readings.iter().any(|r| r.rack == c.rack && r.priority == Priority::P1)
        });
        if capped_p1 {
            for reading in readings.iter().filter(|r| {
                r.input_power_present && r.priority != Priority::P1 && r.it_load > Watts::ZERO
            }) {
                let cap = caps.iter().find(|c| c.rack == reading.rack);
                prop_assert!(
                    cap.is_some_and(|c| {
                        c.shed >= reading.it_load * MAX_CAP_FRACTION - Watts::new(1e-6)
                    }),
                    "P1 capped while {} had slack",
                    reading.rack
                );
            }
        }
    }

    #[test]
    fn uncap_plan_fits_headroom(readings in arb_readings(25), headroom_kw in 0.0f64..30.0) {
        let mut with_caps = readings;
        for (i, r) in with_caps.iter_mut().enumerate() {
            if i % 2 == 0 {
                r.capped_power = r.it_load * 0.25;
            }
        }
        let headroom = Watts::from_kilowatts(headroom_kw);
        let released = plan_uncaps(&with_caps, headroom);
        let total: Watts = released
            .iter()
            .map(|rack| {
                with_caps
                    .iter()
                    .find(|r| r.rack == *rack)
                    .expect("released rack exists")
                    .capped_power
            })
            .sum();
        prop_assert!(total <= headroom + Watts::new(1e-6));
    }

    #[test]
    fn controller_total_never_exceeds_planning_limit_after_settling(
        rack_count in 2usize..8,
        limit_headroom_kw in 4.0f64..40.0,
        ot_secs in 10.0f64..120.0,
    ) {
        // Whatever the fleet size, limit headroom, and event depth, the
        // coordinated draw settles at or below the physical limit within a
        // few control intervals (one settling tick is tolerated).
        let agents: Vec<SimRackAgent> = (0..rack_count as u32)
            .map(|i| {
                SimRackAgent::builder(RackId::new(i), Priority::ALL[(i % 3) as usize])
                    .offered_load(Watts::from_kilowatts(6.0))
                    .build()
            })
            .collect();
        let mut bus = InMemoryBus::new(agents);
        let it_total = 6.0 * rack_count as f64;
        let floor_kw = 0.375 * rack_count as f64;
        let limit = Watts::from_kilowatts(it_total + floor_kw.max(limit_headroom_kw));
        let mut controller = Controller::new(
            ControllerConfig::new(DeviceId::new(0), limit),
            ControlStrategy::PriorityAware,
        );

        for a in bus.agents_mut() {
            a.set_input_power(false);
        }
        for a in bus.agents_mut() {
            a.step(Seconds::new(ot_secs));
        }
        controller.tick(SimTime::ZERO, &mut bus); // pre-plan while dark
        for a in bus.agents_mut() {
            a.set_input_power(true);
        }

        let mut worst_after_settle = Watts::ZERO;
        for s in 0..600u32 {
            for a in bus.agents_mut() {
                a.step(Seconds::new(1.0));
            }
            let report = controller.tick(SimTime::from_secs(f64::from(s + 1)), &mut bus);
            if s > 2 {
                worst_after_settle = worst_after_settle.max(report.total_draw);
            }
        }
        prop_assert!(
            worst_after_settle <= limit + Watts::new(1.0),
            "settled draw {worst_after_settle} exceeded limit {limit}"
        );
    }
}

proptest! {
    // Decoding is cheap; run enough cases to reach the rare byte patterns.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn snapshot_decoder_never_panics(bytes in arb_snapshot_bytes()) {
        // Ok only for a canonical encoding: re-encoding gives the input back.
        if let Ok(snapshot) = ControllerSnapshot::from_bytes(&bytes) {
            prop_assert_eq!(snapshot.to_bytes(), bytes);
        }
    }

    #[test]
    fn backend_kind_parser_never_panics(text in arb_kind_text()) {
        match text.parse::<FleetBackendKind>() {
            Ok(kind) => prop_assert_eq!(kind.to_string().parse::<FleetBackendKind>(), Ok(kind)),
            Err(err) => prop_assert_eq!(err.text, text),
        }
    }
}
