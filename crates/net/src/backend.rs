//! Running a whole fleet behind the mesh: [`RpcMeshConfig`] and
//! [`spawn_mesh`].
//!
//! [`RpcMeshConfig`] is the scenario-carried selector, playing the same role
//! [`FleetBackendKind`](recharge_dynamo::FleetBackendKind) plays for the
//! in-process backends: a plain value describing transport, shard plan, and
//! (optionally) a seeded [`FaultPlan`] for chaos runs. Every mesh runs the
//! default lease ([`DEFAULT_LEASE_TICKS`](crate::DEFAULT_LEASE_TICKS)) and
//! [`RpcBusConfig::default`](crate::RpcBusConfig::default)'s deadline,
//! retry budget and jitter seed. [`spawn_mesh`] turns the config into a
//! [`ShardedRpcFleetBackend`] — one agent server by default, one per shard
//! when the plan asks for more.

use std::convert::Infallible;
use std::io;

use recharge_dynamo::{FleetBackend, SimRackAgent};
use recharge_units::RackId;

use crate::endpoint::Endpoint;
use crate::fault::FaultPlan;
use crate::sharded::ShardedRpcFleetBackend;

/// Which socket family the mesh uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RpcTransport {
    /// Ephemeral loopback TCP (`127.0.0.1:0`); works everywhere.
    #[default]
    TcpLoopback,
    /// A fresh Unix-domain socket under the temp directory (Unix only).
    UnixSocket,
}

/// How the fleet is partitioned into agent servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPlan {
    /// `n` servers over contiguous fleet chunks of near-equal size.
    Count(usize),
    /// One server per RPP row: contiguous chunks of `racks_per_rpp` racks,
    /// matching the row layout of the Facebook topology (racks are dense in
    /// RPP order, so contiguous chunking *is* RPP grouping).
    ByRpp {
        /// Racks hosted under each RPP (the paper's row size is 14).
        racks_per_rpp: usize,
    },
}

impl ShardPlan {
    /// Splits `racks` (fleet order) into per-shard groups. Every rack lands
    /// in exactly one group; groups preserve fleet order and are non-empty
    /// whenever `racks` is.
    #[must_use]
    pub fn partition(&self, racks: &[RackId]) -> Vec<Vec<RackId>> {
        let len = racks.len();
        if len == 0 {
            return vec![Vec::new()];
        }
        match *self {
            ShardPlan::Count(n) => {
                let shards = n.clamp(1, len);
                (0..shards)
                    .map(|i| racks[i * len / shards..(i + 1) * len / shards].to_vec())
                    .collect()
            }
            ShardPlan::ByRpp { racks_per_rpp } => racks
                .chunks(racks_per_rpp.max(1))
                .map(<[RackId]>::to_vec)
                .collect(),
        }
    }
}

/// Scenario-carried configuration for a fleet running over the mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcMeshConfig {
    /// Socket family.
    pub transport: RpcTransport,
    /// Link faults to inject; `None` for a clean link.
    pub fault: Option<FaultPlan>,
    /// Fleet partitioning: `n` servers or one per RPP row (default: one
    /// server for the whole fleet).
    pub shards: ShardPlan,
}

impl Default for RpcMeshConfig {
    fn default() -> Self {
        RpcMeshConfig {
            transport: RpcTransport::TcpLoopback,
            fault: None,
            shards: ShardPlan::Count(1),
        }
    }
}

impl RpcMeshConfig {
    /// The default mesh over Unix-domain sockets.
    #[must_use]
    pub fn unix() -> Self {
        RpcMeshConfig {
            transport: RpcTransport::UnixSocket,
            ..RpcMeshConfig::default()
        }
    }

    /// The default mesh with a fault plan attached.
    #[must_use]
    pub fn with_fault(fault: FaultPlan) -> Self {
        RpcMeshConfig {
            fault: Some(fault),
            ..RpcMeshConfig::default()
        }
    }

    /// A mesh sharded by RPP row (the paper's 14-rack rows): one agent
    /// server per RPP, batched wire ops, concurrent controller fan-out.
    #[must_use]
    pub fn sharded_by_rpp() -> Self {
        RpcMeshConfig {
            shards: ShardPlan::ByRpp { racks_per_rpp: 14 },
            ..RpcMeshConfig::default()
        }
    }

    /// A mesh sharded into `n` contiguous fleet chunks.
    #[must_use]
    pub fn shard_count(n: usize) -> Self {
        RpcMeshConfig {
            shards: ShardPlan::Count(n),
            ..RpcMeshConfig::default()
        }
    }

    /// Attaches a fault plan to this config (each shard's link gets its
    /// projection via [`FaultPlan::for_shard`]).
    #[must_use]
    pub fn faulted(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The endpoint family this config binds.
    pub(crate) fn fresh_endpoint(&self) -> io::Result<Endpoint> {
        match self.transport {
            RpcTransport::TcpLoopback => Ok(Endpoint::loopback()),
            #[cfg(unix)]
            RpcTransport::UnixSocket => Ok(Endpoint::unix_temp()),
            #[cfg(not(unix))]
            RpcTransport::UnixSocket => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are not available on this target",
            )),
        }
    }
}

/// Spawns the [`ShardedRpcFleetBackend`] a mesh config describes.
///
/// The third parameter carries nothing: [`Infallible`] has no values, so it
/// is always `None`. It only keeps three-argument call sites compiling and
/// is due to be dropped.
pub fn spawn_mesh(
    agents: Vec<SimRackAgent>,
    config: &RpcMeshConfig,
    _: Option<Infallible>,
) -> io::Result<Box<dyn FleetBackend>> {
    Ok(Box::new(ShardedRpcFleetBackend::spawn(agents, config)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use recharge_units::{Priority, Seconds, Watts};

    fn agents(n: u32) -> Vec<SimRackAgent> {
        (0..n)
            .map(|i| {
                SimRackAgent::builder(RackId::new(i), Priority::ALL[(i % 3) as usize])
                    .offered_load(Watts::from_kilowatts(6.0))
                    .build()
            })
            .collect()
    }

    #[test]
    fn rpc_backend_matches_serial_physics() {
        use recharge_dynamo::FleetBackendKind;
        let schedule: Vec<bool> = (0..8).map(|i| i % 5 != 2).collect();
        let load = |rack: RackId, i: usize| {
            Watts::from_kilowatts(5.5 + 0.2 * f64::from(rack.index()) + 0.05 * i as f64)
        };
        let mut serial = FleetBackendKind::Serial.build(agents(4));
        let mut rpc = spawn_mesh(agents(4), &RpcMeshConfig::default(), None).expect("spawn");
        serial.step_schedule(Seconds::new(1.0), &schedule, &load);
        rpc.step_schedule(Seconds::new(1.0), &schedule, &load);
        assert_eq!(serial.readings(), rpc.readings());
    }

    #[test]
    fn controller_commands_cross_the_wire() {
        let mut rpc = spawn_mesh(agents(2), &RpcMeshConfig::default(), None).expect("spawn");
        assert_eq!(rpc.name(), "rpc-sharded");
        let racks = rpc.bus_mut().racks();
        assert_eq!(racks, vec![RackId::new(0), RackId::new(1)]);
        rpc.bus_mut()
            .cap_servers(RackId::new(0), Watts::from_kilowatts(3.0));
        // The batch lands at the next schedule boundary.
        rpc.step_schedule(Seconds::new(1.0), &[true], &|_, _| {
            Watts::from_kilowatts(6.0)
        });
        let reading = rpc.bus_mut().read(RackId::new(0)).expect("read");
        assert_eq!(reading.it_load, Watts::from_kilowatts(3.0));
        // The simulator-side (local) view agrees: same host state.
        assert_eq!(rpc.readings()[0].it_load, Watts::from_kilowatts(3.0));
    }

    #[cfg(unix)]
    #[test]
    fn unix_transport_works() {
        let mut rpc = spawn_mesh(agents(1), &RpcMeshConfig::unix(), None).expect("spawn");
        assert!(rpc.bus_mut().read(RackId::new(0)).is_some());
    }

    #[test]
    fn ticks_advance_with_schedules() {
        let mut rpc =
            ShardedRpcFleetBackend::spawn(agents(1), &RpcMeshConfig::default()).expect("spawn");
        assert_eq!(rpc.shard_count(), 1);
        assert_eq!(rpc.host(0).clock().tick(), 0);
        rpc.step_schedule(Seconds::new(1.0), &[true; 5], &|_, _| {
            Watts::from_kilowatts(6.0)
        });
        assert_eq!(rpc.host(0).clock().tick(), 5);
    }
}
