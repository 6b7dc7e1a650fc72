//! The benchmark's workloads: which scenario each one runs.
//!
//! A [`Spec`] holds every scenario parameter the simulation reads. The same
//! values build the [`Scenario`] handed to the program and configure the
//! outside-in driver, so the two can never simulate different things.

use recharge_battery::ChargePolicy;
use recharge_dynamo::{FleetBackendKind, Strategy};
use recharge_net::{RpcMeshConfig, RpcTransport};
use recharge_sim::{DischargeLevel, Scenario};
use recharge_units::{Seconds, Watts};

/// One fully specified scenario.
#[derive(Debug, Clone)]
pub struct Spec {
    pub seed: u64,
    pub counts: (usize, usize, usize),
    pub mean_rack_power: Watts,
    pub power_limit: Watts,
    pub strategy: Strategy,
    pub charge_policy: ChargePolicy,
    pub discharge: DischargeLevel,
    pub tick: Seconds,
    pub sample_every: Seconds,
    pub warmup: Seconds,
    pub max_horizon: Seconds,
    pub control_every: usize,
    pub backend: FleetBackendKind,
    pub rpc: Option<RpcMeshConfig>,
}

impl Spec {
    /// The §V-B paper MSB: 316 racks under 2.5 MW, priority-aware, medium
    /// discharge, per-tick control on the serial engine.
    pub fn paper_msb(seed: u64) -> Self {
        Spec {
            seed,
            counts: (89, 142, 85),
            mean_rack_power: Watts::from_kilowatts(6.33),
            power_limit: Watts::from_megawatts(2.5),
            strategy: Strategy::PriorityAware,
            charge_policy: ChargePolicy::Variable,
            discharge: DischargeLevel::Medium,
            tick: Seconds::new(1.0),
            sample_every: Seconds::new(5.0),
            warmup: Seconds::new(60.0),
            max_horizon: Seconds::from_hours(3.0),
            control_every: 1,
            backend: FleetBackendKind::Serial,
            rpc: None,
        }
    }

    /// The scenario the program runs. Every parameter is set explicitly, so
    /// a change to a `Scenario` default cannot make it differ from the
    /// driver's copy.
    pub fn scenario(&self) -> Scenario {
        let (p1, p2, p3) = self.counts;
        let scenario = Scenario::paper_msb(self.seed)
            .priority_counts(p1, p2, p3)
            .mean_rack_power(self.mean_rack_power)
            .power_limit(self.power_limit)
            .strategy(self.strategy)
            .charge_policy(self.charge_policy)
            .discharge(self.discharge)
            .tick(self.tick)
            .sample_every(self.sample_every)
            .warmup(self.warmup)
            .max_horizon(self.max_horizon)
            .control_every(self.control_every)
            .backend(self.backend);
        match &self.rpc {
            Some(mesh) => scenario.rpc(mesh.clone()),
            None => scenario,
        }
    }

    /// The same scenario on the serial in-process engine: the oracle every
    /// other engine must match.
    pub fn oracle(&self) -> Spec {
        Spec {
            backend: FleetBackendKind::Serial,
            rpc: None,
            ..self.clone()
        }
    }

    /// Whether this spec already runs on the oracle engine.
    pub fn is_oracle(&self) -> bool {
        self.backend == FleetBackendKind::Serial && self.rpc.is_none()
    }

    /// The open-transition length that produces the target average DOD at
    /// the given mean rack load (a copy of the simulator's rule: six BBUs
    /// share the rack, and 100% DOD is 297 kJ per BBU).
    pub fn ot_duration_for(&self, mean_rack_load: Watts) -> Seconds {
        let params = recharge_battery::BbuParams::production();
        let per_bbu = mean_rack_load / f64::from(params.bbus_per_rack);
        let energy = params.full_discharge_energy * self.discharge.target_dod();
        energy / per_bbu
    }
}

/// A named workload.
pub struct Workload {
    pub name: &'static str,
    pub spec: fn(u64) -> Spec,
}

/// The 1-shard Unix-socket mesh `msb_rpc` runs over.
pub fn unix_mesh() -> RpcMeshConfig {
    RpcMeshConfig {
        transport: RpcTransport::UnixSocket,
        ..RpcMeshConfig::shard_count(1)
    }
}

/// Every workload, in the order a full run measures them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "msb_paper",
        spec: Spec::paper_msb,
    },
    Workload {
        name: "msb_global",
        spec: |seed| Spec {
            power_limit: Watts::from_megawatts(2.3),
            strategy: Strategy::Global,
            backend: FleetBackendKind::Soa,
            ..Spec::paper_msb(seed)
        },
    },
    Workload {
        name: "diurnal_day",
        spec: |seed| Spec {
            counts: (178, 284, 170),
            power_limit: Watts::from_megawatts(5.0),
            backend: FleetBackendKind::Event,
            control_every: 5,
            warmup: Seconds::from_hours(18.0),
            ..Spec::paper_msb(seed)
        },
    },
    Workload {
        name: "msb_rpc",
        spec: |seed| Spec {
            rpc: Some(unix_mesh()),
            ..Spec::paper_msb(seed)
        },
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
