//! Cross-crate property tests: algorithmic invariants checked against the
//! physical battery model.

use proptest::prelude::*;

use recharge::battery::{BbuPack, BbuParams, ChargeTimeTable};
use recharge::core::{
    assign_global, assign_priority_aware, throttle_on_overload, RackChargeState,
    RechargePowerModel, SlaCurrentPolicy, SLA_MEMO_DOD_BINS,
};
use recharge::dynamo::{FleetBackendKind, SimRackAgent};
use recharge::net::ShardPlan;
use recharge::power::facebook;
use recharge::prelude::*;
use recharge::reliability::{table1, AorSimulation};
use recharge::telemetry::{self, FlightEvent, FlightKind, ReasonCode};

/// The shrunken counterexample recorded in `properties.proptest-regressions`
/// for `algorithm1_respects_budget_and_hardware_range`, pinned as a
/// deterministic test: 21 P1 racks at 0% DOD except rack 18 at ≈27.7%, with
/// a 10.04 kW budget that covers the fleet's 1 A floor plus little else.
/// The historical failure came from treating an out-of-span charge-table
/// query (`Err`) like an unattainable SLA (`Ok(None)`) and assigning 5 A.
#[test]
fn pinned_regression_budget_invariant_near_fleet_floor() {
    let policy = SlaCurrentPolicy::production();
    let model = RechargePowerModel::production();
    let racks: Vec<RackChargeState> = (0..21)
        .map(|i| RackChargeState {
            rack: RackId::new(i),
            priority: Priority::P1,
            dod: Dod::new(if i == 18 { 0.2774863304984034 } else { 0.0 }),
        })
        .collect();
    let budget = Watts::from_kilowatts(10.036436199333385);
    let outcome = assign_priority_aware(&racks, budget, &policy, &model);

    let floor = model.rack_power(Amperes::MIN_CHARGE) * racks.len() as f64;
    assert!(
        outcome.total_recharge_power <= budget.max(floor) + Watts::new(1e-6),
        "total {} exceeds cap {}",
        outcome.total_recharge_power,
        budget.max(floor)
    );
    for a in &outcome.assignments {
        assert!(a.current >= Amperes::MIN_CHARGE && a.current <= Amperes::MAX_CHARGE);
    }
    // The shallow racks need exactly the 2 A P1 floor — not 5 A saturation.
    assert_eq!(outcome.assignments[0].current, Amperes::new(2.0));
}

/// `ShardPlan::ByRpp` on the paper's MSB substrate must reproduce the power
/// topology's own RPP rows: `facebook::single_msb` attaches racks to RPPs
/// densely in fleet order, and the sharded mesh's contiguous 14-rack chunks
/// are exactly those rows. Pinned at 28 racks (two full rows) plus the
/// ragged 316-rack paper fleet.
#[test]
fn pinned_by_rpp_sharding_matches_power_topology_rows() {
    for rack_count in [28usize, 316] {
        let plan = facebook::single_msb(rack_count);
        let groups = ShardPlan::ByRpp { racks_per_rpp: 14 }.partition(&plan.racks);
        assert_eq!(groups.len(), plan.rpps.len(), "{rack_count} racks");
        for (group, &rpp) in groups.iter().zip(&plan.rpps) {
            assert_eq!(
                *group,
                plan.topology.racks_under(rpp),
                "shard group diverged from RPP {rpp} ({rack_count} racks)"
            );
        }
    }
}

fn arb_racks(max: usize) -> impl Strategy<Value = Vec<RackChargeState>> {
    proptest::collection::vec((0u8..3, 0.0f64..=1.0), 1..max).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (p, dod))| RackChargeState {
                rack: RackId::new(i as u32),
                priority: Priority::ALL[p as usize],
                dod: Dod::new(dod),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn algorithm1_respects_budget_and_hardware_range(
        racks in arb_racks(40),
        budget_kw in 0.0f64..60.0,
    ) {
        let policy = SlaCurrentPolicy::production();
        let model = RechargePowerModel::production();
        let budget = Watts::from_kilowatts(budget_kw);
        let outcome = assign_priority_aware(&racks, budget, &policy, &model);

        let floor = model.rack_power(Amperes::MIN_CHARGE) * racks.len() as f64;
        prop_assert!(outcome.total_recharge_power <= budget.max(floor) + Watts::new(1e-6));
        for a in &outcome.assignments {
            prop_assert!(a.current >= Amperes::MIN_CHARGE && a.current <= Amperes::MAX_CHARGE);
        }
    }

    #[test]
    fn algorithm1_dominates_global_for_p1(
        racks in arb_racks(30),
        budget_kw in 0.0f64..40.0,
    ) {
        // Algorithm 1 protects P1 at least as well as the global baseline, up
        // to one boundary rack: the SLA policy plans with a 3% safety margin,
        // so a uniform rate can occasionally satisfy a rack with slightly
        // less power than Algorithm 1 would assign it.
        let policy = SlaCurrentPolicy::production();
        let model = RechargePowerModel::production();
        let budget = Watts::from_kilowatts(budget_kw);
        let aware = assign_priority_aware(&racks, budget, &policy, &model);
        let global = assign_global(&racks, budget, &policy, &model);
        prop_assert!(
            aware.sla_met_count(Some(Priority::P1)) + 1
                >= global.sla_met_count(Some(Priority::P1)),
            "P1: aware {} < global {} beyond the margin slack",
            aware.sla_met_count(Some(Priority::P1)),
            global.sla_met_count(Some(Priority::P1))
        );
    }

    #[test]
    fn throttle_covers_overload_or_reports_residual(
        racks in arb_racks(30),
        overload_kw in 0.0f64..30.0,
    ) {
        let policy = SlaCurrentPolicy::production();
        let model = RechargePowerModel::production();
        let assignments =
            assign_priority_aware(&racks, Watts::from_kilowatts(100.0), &policy, &model)
                .assignments;
        let overload = Watts::from_kilowatts(overload_kw);
        let outcome = throttle_on_overload(&assignments, overload, &policy, &model);
        prop_assert!(
            (outcome.power_shed + outcome.residual_overload - overload).abs()
                <= Watts::new(1e-6)
                || outcome.power_shed >= overload
        );
        // Throttling never raises a current.
        for (after, before) in outcome.assignments.iter().zip(&assignments) {
            prop_assert!(after.current <= before.current);
        }
    }

    #[test]
    fn sla_current_assignment_is_physically_sufficient(
        dod in 0.05f64..=1.0,
        priority_idx in 0u8..3,
    ) {
        // The current the policy assigns must actually charge the physical
        // pack within the SLA whenever the SLA is attainable at 5 A.
        let policy = SlaCurrentPolicy::production();
        let priority = Priority::ALL[priority_idx as usize];
        let dod = Dod::new(dod);
        let current = policy.sla_current(priority, dod);
        let attainable = policy.meets_sla(priority, dod, Amperes::MAX_CHARGE);
        prop_assume!(attainable);

        let mut pack = BbuPack::discharged(BbuParams::production(), dod);
        let time = pack
            .charge_to_full(current, Seconds::new(1.0), 100_000)
            .expect("charge converges");
        let budget = policy.sla().charge_time_budget(priority);
        prop_assert!(
            time <= budget + Seconds::new(60.0),
            "{priority} at {dod}: {:.1} min > {:.1} min budget at {current}",
            time.as_minutes(),
            budget.as_minutes()
        );
    }

    #[test]
    fn charge_time_table_brackets_physical_charge(dod in 0.1f64..=1.0, amps in 1.0f64..=5.0) {
        let table = ChargeTimeTable::production();
        let predicted = table
            .charge_time(Dod::new(dod), Amperes::new(amps))
            .expect("in range");
        let mut pack = BbuPack::discharged(BbuParams::production(), Dod::new(dod));
        let actual = pack
            .charge_to_full(Amperes::new(amps), Seconds::new(1.0), 200_000)
            .expect("charge converges");
        let err = (predicted.as_minutes() - actual.as_minutes()).abs();
        prop_assert!(
            err <= actual.as_minutes() * 0.05 + 1.0,
            "table {:.1} min vs physics {:.1} min",
            predicted.as_minutes(),
            actual.as_minutes()
        );
    }

    #[test]
    fn memoized_sla_current_brackets_exact(
        dod in 0.0f64..=1.0,
        priority_idx in 0u8..3,
    ) {
        // The memo rounds the DOD up to the next of SLA_MEMO_DOD_BINS bin
        // edges: it must never undershoot the exact current, and never exceed
        // what one bin step more discharge would require.
        let policy = SlaCurrentPolicy::production();
        let priority = Priority::ALL[priority_idx as usize];
        let dod = Dod::new(dod);
        let memo = policy.sla_current(priority, dod);
        let exact = policy.sla_current_exact(priority, dod);
        prop_assert!(memo >= exact, "{priority} at {dod}: memo {memo} < exact {exact}");
        let step = 1.0 / SLA_MEMO_DOD_BINS as f64;
        let deeper = policy.sla_current_exact(priority, Dod::new((dod.value() + step).min(1.0)));
        prop_assert!(memo <= deeper, "{priority} at {dod}: memo {memo} > one-bin-deeper {deeper}");
    }

    #[test]
    fn charge_time_is_monotone_in_dod_between_grid_rows(
        dod_lo in 0.0f64..=1.0,
        dod_delta in 0.0f64..=0.049,
        amps in 1.0f64..=5.0,
    ) {
        // The `meets_sla` memo fast-accepts at the DOD bin *above* a query
        // and fast-rejects from the bin *below* it. Both shortcuts are sound
        // only if the interpolated charge time never decreases with DOD —
        // including *between* the table's 5% grid rows, where bilinear
        // interpolation (not a physical simulation) supplies the answer. The
        // delta keeps the pair within one grid spacing, so the pair usually
        // straddles the interior of a cell or a row boundary.
        let table = ChargeTimeTable::production();
        let dod_hi = (dod_lo + dod_delta).min(1.0);
        let current = Amperes::new(amps);
        let shallow = table.charge_time(Dod::new(dod_lo), current).expect("in range");
        let deep = table.charge_time(Dod::new(dod_hi), current).expect("in range");
        prop_assert!(
            shallow.as_minutes() <= deep.as_minutes() + 1e-9,
            "T({dod_lo:.4}, {amps:.2} A) = {:.4} min > T({dod_hi:.4}) = {:.4} min",
            shallow.as_minutes(),
            deep.as_minutes()
        );
    }

    #[test]
    fn parallel_montecarlo_is_bit_identical(
        seed in 0u64..1_000_000,
        trials in 1usize..10,
        threads in 1usize..8,
    ) {
        let sim = AorSimulation::new(table1::standard_sources());
        let serial = sim.run_trials(20.0, trials, seed);
        let parallel = sim.run_trials_parallel(20.0, trials, seed, threads);
        prop_assert!(serial == parallel, "diverged: {trials} trials, {threads} threads");
    }

    #[test]
    fn throttle_is_idempotent(
        racks in arb_racks(30),
        overload_kw in 0.0f64..30.0,
    ) {
        // Re-throttling the output against the uncovered residual is a
        // no-op: either the overload was covered (residual zero) or every
        // rack already sits at the 1 A floor with nothing left to shed.
        let policy = SlaCurrentPolicy::production();
        let model = RechargePowerModel::production();
        let assignments =
            assign_priority_aware(&racks, Watts::from_kilowatts(100.0), &policy, &model)
                .assignments;
        let overload = Watts::from_kilowatts(overload_kw);
        let once = throttle_on_overload(&assignments, overload, &policy, &model);
        let again =
            throttle_on_overload(&once.assignments, once.residual_overload, &policy, &model);
        prop_assert!(again.assignments == once.assignments);
        prop_assert!(again.power_shed == Watts::ZERO);
        prop_assert!(again.residual_overload == once.residual_overload);
    }

    #[test]
    fn shard_partition_assigns_every_rack_exactly_once(
        rack_count in 1usize..200,
        by_rpp in proptest::bool::ANY,
        n in 0usize..40,
    ) {
        // Whatever the plan, partitioning is a permutation-free split: every
        // rack lands in exactly one shard, in fleet order, with no shard
        // empty (so no server ever hosts zero racks while another hosts its
        // racks twice).
        let racks: Vec<RackId> = (0..rack_count as u32).map(RackId::new).collect();
        let plan = if by_rpp {
            ShardPlan::ByRpp { racks_per_rpp: n.max(1) }
        } else {
            ShardPlan::Count(n)
        };
        let groups = plan.partition(&racks);
        let flattened: Vec<RackId> = groups.iter().flatten().copied().collect();
        prop_assert_eq!(&flattened, &racks, "{:?} lost or duplicated racks", plan);
        prop_assert!(
            groups.iter().all(|g| !g.is_empty()),
            "{:?} produced an empty shard for {} racks",
            plan,
            rack_count
        );
    }

    #[test]
    fn by_rpp_sharding_preserves_rpp_grouping(
        rack_count in 1usize..150,
        row_size in 1usize..15,
    ) {
        // The mesh's ByRpp chunks must equal the topology's RPP rows for any
        // fleet size and row width, ragged tail included.
        let plan = facebook::single_msb_with_row_size(rack_count, row_size);
        let groups = ShardPlan::ByRpp { racks_per_rpp: row_size }.partition(&plan.racks);
        prop_assert_eq!(groups.len(), plan.rpps.len());
        for (group, &rpp) in groups.iter().zip(&plan.rpps) {
            prop_assert_eq!(group, &plan.topology.racks_under(rpp));
        }
    }

    #[test]
    fn backend_kind_survives_string_round_trip(kind_pick in 0u8..5, shards in 0usize..100) {
        let kind = match kind_pick {
            0 => FleetBackendKind::Serial,
            1 => FleetBackendKind::Soa,
            2 => FleetBackendKind::SoaSharded { shards },
            3 => FleetBackendKind::Event,
            _ => FleetBackendKind::EventSharded { shards },
        };
        let text = kind.to_string();
        prop_assert_eq!(text.parse::<FleetBackendKind>(), Ok(kind), "via {:?}", text);
    }

    #[test]
    fn charge_energy_telescopes_with_soc(
        dod in 0.05f64..=1.0,
        schedule in proptest::collection::vec((0.0f64..=5.0, 0.1f64..=10.0), 1..200),
    ) {
        // Cumulative stored energy over an arbitrary charge schedule —
        // including zero-setpoint (postponed) stretches and the terminating
        // taper step — must telescope exactly with ΔSoC × capacity. This is
        // the accounting identity the termination-step fix restores: the
        // final step snaps the remaining sliver into `stored_energy` instead
        // of dropping it.
        let params = BbuParams::production();
        let mut pack = BbuPack::discharged(params, Dod::new(dod));
        let soc_start = pack.soc().value();
        let mut stored = Joules::ZERO;
        for &(amps, dt) in &schedule {
            stored += pack
                .charge_step(Amperes::new(amps), Seconds::new(dt))
                .stored_energy;
        }
        let delta = (pack.soc().value() - soc_start) * params.full_discharge_energy.as_joules();
        prop_assert!(
            (stored.as_joules() - delta).abs() <= delta.abs().max(1.0) * 1e-9,
            "cumulative stored {} J vs ΔSoC energy {} J",
            stored.as_joules(),
            delta
        );
    }

    #[test]
    fn soa_kernel_is_bit_identical_to_object_path(
        rounds in proptest::collection::vec(
            (0u8..6, 0u32..7, 0.5f64..8.0, 0u8..=255),
            1..12,
        ),
    ) {
        // The struct-of-arrays backend must track the object path bit for bit
        // through arbitrary override / postpone / cap command schedules,
        // input-power patterns, and load shapes.
        let agents = || -> Vec<SimRackAgent> {
            (0..7u32)
                .map(|i| {
                    SimRackAgent::builder(RackId::new(i), Priority::ALL[(i % 3) as usize])
                        .offered_load(Watts::from_kilowatts(6.0))
                        .build()
                })
                .collect()
        };
        let mut backends = [
            FleetBackendKind::Serial.build(agents()),
            FleetBackendKind::Soa.build(agents()),
            FleetBackendKind::SoaSharded { shards: 3 }.build(agents()),
        ];
        for (round, &(cmd, rack_pick, kw, power_bits)) in rounds.iter().enumerate() {
            let rack = RackId::new(rack_pick);
            for backend in &mut backends {
                let bus = backend.bus_mut();
                match cmd {
                    0 => bus.set_charge_override(rack, Amperes::new(kw)),
                    1 => bus.clear_charge_override(rack),
                    2 => bus.set_charge_postponed(rack, true),
                    3 => bus.set_charge_postponed(rack, false),
                    4 => bus.cap_servers(rack, Watts::from_kilowatts(kw)),
                    _ => bus.uncap_servers(rack),
                }
            }
            let schedule: Vec<bool> = (0..8).map(|i| power_bits >> i & 1 == 1).collect();
            let load = |r: RackId, i: usize| {
                Watts::from_kilowatts(kw + 0.2 * f64::from(r.index()) + 0.05 * i as f64)
            };
            for backend in &mut backends {
                backend.step_schedule(Seconds::new(5.0), &schedule, &load);
            }
            let reference = backends[0].readings();
            prop_assert_eq!(&backends[1].readings(), &reference, "soa diverged at round {}", round);
            prop_assert_eq!(
                &backends[2].readings(),
                &reference,
                "soa-sharded diverged at round {}",
                round
            );
        }
    }

    #[test]
    fn battery_energy_is_conserved(dod in 0.05f64..=1.0, amps in 1.0f64..=5.0) {
        let params = BbuParams::production();
        let mut pack = BbuPack::discharged(params, Dod::new(dod));
        let mut wall = Joules::ZERO;
        let dt = Seconds::new(1.0);
        let mut guard = 0;
        while !pack.is_fully_charged() {
            let step = pack.charge_step(Amperes::new(amps), dt);
            wall += step.wall_power * dt;
            guard += 1;
            prop_assert!(guard < 200_000, "charge did not converge");
        }
        let stored = params.full_discharge_energy * dod;
        // Wall energy exceeds the stored energy (losses), but not absurdly.
        prop_assert!(wall >= stored, "wall {wall} < stored {stored}");
        prop_assert!(wall <= stored * 2.5, "wall {wall} implausibly above stored {stored}");
    }
}

/// Characters that steer the JSON reader into each of its branches; a pick
/// past the end of this list draws an arbitrary Unicode scalar instead.
const JSON_CHARS: [char; 24] = [
    '{', '}', '[', ']', '"', ':', ',', '\\', 'u', '-', '+', '.', 'e', '0', '7', 't', 'r', 'f', 'a',
    'l', 's', 'n', ' ', '\n',
];

fn json_char(pick: usize, scalar: u32) -> char {
    JSON_CHARS
        .get(pick)
        .copied()
        .unwrap_or_else(|| char::from_u32(scalar).unwrap_or(char::REPLACEMENT_CHARACTER))
}

/// A valid two-event black-box dump for the loader to chew on.
fn blackbox_dump() -> String {
    let event = |at: f64, kind, reason, rack| FlightEvent {
        at_bits: at.to_bits(),
        kind,
        reason,
        priority: 2,
        bucket: 512,
        rack,
        v0: 1.5f64.to_bits(),
        v1: f64::NAN.to_bits(),
    };
    telemetry::blackbox_json(
        "forced",
        &[
            event(3.0, FlightKind::Admit, ReasonCode::AdmitUpgraded, 41),
            event(4.0, FlightKind::Cap, ReasonCode::CapLastResort, 7),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Untrusted text never panics or aborts the JSON reader or the
    /// black-box loader behind `recharge-ops`: every input is `Ok` or `Err`.
    #[test]
    fn json_and_blackbox_parsers_never_panic_on_arbitrary_text(
        picks in proptest::collection::vec((0usize..32, 0u32..0x11_0000), 0..96),
    ) {
        let text: String = picks.iter().map(|&(pick, scalar)| json_char(pick, scalar)).collect();
        let _ = telemetry::json::parse(&text);
        let _ = telemetry::parse_blackbox(&text);
    }

    /// A valid dump with a few characters overwritten or inserted, so the
    /// loader's own field checks see malformed input, not just the reader.
    #[test]
    fn blackbox_loader_never_panics_on_edited_dumps(
        edits in proptest::collection::vec(
            (0usize..1024, proptest::bool::ANY, 0usize..32, 0u32..0x11_0000),
            1..6,
        ),
    ) {
        let mut doc: Vec<char> = blackbox_dump().chars().collect();
        for &(at, insert, pick, scalar) in &edits {
            let at = at % (doc.len() + 1);
            if insert || at == doc.len() {
                doc.insert(at, json_char(pick, scalar));
            } else {
                doc[at] = json_char(pick, scalar);
            }
        }
        let _ = telemetry::parse_blackbox(&doc.into_iter().collect::<String>());
    }
}
