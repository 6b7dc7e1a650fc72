//! The mesh: one [`AgentServer`] per shard, batched wire ops, and a
//! concurrent controller fan-out.
//!
//! The fleet is partitioned by a [`ShardPlan`] (one shard by default) into
//! per-shard [`AgentHost`]s, each behind its own server, and the controller
//! talks to all of them through a [`ShardedRpcBus`]:
//!
//! * **Batched ops** — one `ReadAllReadings` per shard reads all of its
//!   racks; buffered commands flush as one `ApplyCommandBatch` per shard. A
//!   control tick costs O(servers) RPCs, not O(racks).
//! * **Concurrent fan-out** — each shard has a persistent client thread
//!   owning its [`RpcBus`]; the bus hands every worker its job, then joins
//!   on the reply channels. Per-tick network latency is max-over-shards,
//!   not sum-over-racks.
//! * **In-server leaf control** — with [`RpcMeshConfig::leaf_control`], each
//!   shard's server hosts a leaf [`Controller`] ticked by one `TickLeaf` RPC;
//!   only per-group aggregates and power budgets cross the wire (§V's
//!   locality argument), and the upper tier here re-budgets shards from
//!   their reported IT load plus an equal share of the remaining headroom.
//!
//! Degraded modes stay per shard: every shard link carries its own
//! [`FaultPlan`](crate::FaultPlan) projection (derived seed, partitions
//! scoped to the shard's racks), so a partitioned shard's racks fall back to
//! standalone variable charging via the ordinary lease sweep while the other
//! shards never miss an override.
//!
//! Clean-link equivalence: command buffering defers application from the
//! controller tick to the start of the next `step_schedule` — before any
//! physics and before the clock advances. Nothing reads agent state in that
//! window and the flush renews leases at the tick the controller issued the
//! commands, so `RunMetrics` stay bit-identical to [`InMemoryBus`].
//!
//! [`ShardPlan`]: crate::backend::ShardPlan
//! [`RpcMeshConfig::leaf_control`]: crate::backend::RpcMeshConfig
//! [`InMemoryBus`]: recharge_dynamo::InMemoryBus

use std::collections::HashMap;
use std::io;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use recharge_dynamo::{
    step_agents, AgentBus, Controller, ControllerConfig, FleetBackend, HostedControlReport,
    PowerReading, RackAgent, SimRackAgent, Strategy,
};
use recharge_units::{Amperes, DeviceId, RackId, Seconds, SimTime, Watts};

use crate::backend::RpcMeshConfig;
use crate::client::{RpcBus, RpcBusConfig};
use crate::fault::FaultClock;
use crate::server::{AgentHost, AgentServer};
use crate::wire::{AgentCommand, GroupAggregate};

/// Control parameters for the in-server leaf tier: what each shard's hosted
/// [`Controller`] is built from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafControlSpec {
    /// The breaker limit the leaf tier collectively protects; each shard
    /// starts with an equal share and is re-budgeted every control tick.
    pub limit: Watts,
    /// Coordination strategy for every leaf.
    pub strategy: Strategy,
    /// Whether leaves may postpone whole racks under extreme constraint.
    pub allow_postponing: bool,
}

/// One unit of work for a shard's client thread.
enum Job {
    /// Read every rack on the shard; `None` when the shard is unreachable.
    ReadAll(Sender<Option<Vec<PowerReading>>>),
    /// Apply a command batch; `false` when the batch was lost.
    Apply(Vec<AgentCommand>, Sender<bool>),
    /// Run the shard's hosted leaf tick with an optional fresh budget.
    TickLeaf(SimTime, Option<Watts>, Sender<Option<GroupAggregate>>),
}

/// A persistent client thread owning one shard's [`RpcBus`].
///
/// The bus is connected *inside* the thread (readiness reported through a
/// channel) so all shards connect concurrently too.
struct ShardWorker {
    tx: Option<Sender<Job>>,
    handle: Option<JoinHandle<()>>,
}

impl ShardWorker {
    fn spawn(
        endpoint: crate::endpoint::Endpoint,
        config: RpcBusConfig,
        clock: FaultClock,
    ) -> io::Result<(Self, Receiver<io::Result<Vec<RackId>>>)> {
        let (ready_tx, ready_rx) = mpsc::channel();
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let handle = std::thread::Builder::new()
            .name("recharge-net-shard".into())
            .spawn(move || {
                let bus = match RpcBus::connect(&endpoint, config, clock) {
                    Ok(bus) => {
                        let _ = ready_tx.send(Ok(bus.racks().to_vec()));
                        bus
                    }
                    Err(e) => {
                        let _ = ready_tx.send(Err(e));
                        return;
                    }
                };
                while let Ok(job) = job_rx.recv() {
                    match job {
                        Job::ReadAll(reply) => {
                            let _ = reply.send(bus.read_all());
                        }
                        Job::Apply(commands, reply) => {
                            let _ = reply.send(bus.apply_batch(commands).is_some());
                        }
                        Job::TickLeaf(now, budget, reply) => {
                            let _ = reply.send(bus.tick_leaf(now, budget));
                        }
                    }
                }
            })
            .map_err(|e| io::Error::other(format!("spawning shard worker: {e}")))?;
        Ok((
            ShardWorker {
                tx: Some(job_tx),
                handle: Some(handle),
            },
            ready_rx,
        ))
    }

    fn submit(&self, job: Job) -> bool {
        self.tx.as_ref().is_some_and(|tx| tx.send(job).is_ok())
    }
}

impl Drop for ShardWorker {
    fn drop(&mut self) {
        // Closing the job channel ends the worker loop; then join.
        self.tx = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

struct BusState {
    /// Per-control-tick read cache: the first `read` after invalidation fans
    /// `ReadAllReadings` out to every shard; later reads hit the map.
    snapshot: Option<HashMap<RackId, PowerReading>>,
    /// Commands buffered per shard, flushed as one batch per shard at the
    /// start of the next `step_schedule`.
    pending: Vec<Vec<AgentCommand>>,
}

/// An [`AgentBus`] fanning out to one worker per shard.
///
/// Reads are snapshot-cached per control tick; commands are buffered and
/// batch-flushed (see the module docs for why that preserves bit-identity).
pub struct ShardedRpcBus {
    workers: Vec<ShardWorker>,
    shard_of: HashMap<RackId, usize>,
    racks: Vec<RackId>,
    state: Mutex<BusState>,
}

impl ShardedRpcBus {
    fn new(workers: Vec<ShardWorker>, groups: &[Vec<RackId>]) -> Self {
        let mut shard_of = HashMap::new();
        let mut racks = Vec::new();
        for (shard, group) in groups.iter().enumerate() {
            for &rack in group {
                shard_of.insert(rack, shard);
                racks.push(rack);
            }
        }
        ShardedRpcBus {
            workers,
            shard_of,
            racks,
            state: Mutex::new(BusState {
                snapshot: None,
                pending: vec![Vec::new(); groups.len()],
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, BusState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The number of shards this bus fans out to.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.workers.len()
    }

    /// Fans `ReadAllReadings` out to every shard and joins on the replies —
    /// the latch making per-tick latency max-over-shards.
    fn fan_out_reads(&self) -> HashMap<RackId, PowerReading> {
        let replies: Vec<Option<Receiver<Option<Vec<PowerReading>>>>> = self
            .workers
            .iter()
            .map(|worker| {
                let (tx, rx) = mpsc::channel();
                worker.submit(Job::ReadAll(tx)).then_some(rx)
            })
            .collect();
        let mut snapshot = HashMap::with_capacity(self.racks.len());
        for reply in replies.into_iter().flatten() {
            if let Ok(Some(readings)) = reply.recv() {
                for reading in readings {
                    snapshot.insert(reading.rack, reading);
                }
            }
            // An unreachable shard contributes nothing: its racks read as
            // `None`, the same signal a disconnected in-memory rack gives.
        }
        snapshot
    }

    /// Flushes buffered commands, one `ApplyCommandBatch` per shard with any
    /// pending, all shards in flight concurrently.
    pub(crate) fn flush_commands(&self) {
        let pending: Vec<Vec<AgentCommand>> = {
            let mut state = self.lock();
            let shards = state.pending.len();
            std::mem::replace(&mut state.pending, vec![Vec::new(); shards])
        };
        let replies: Vec<Option<Receiver<bool>>> = pending
            .into_iter()
            .enumerate()
            .filter(|(_, commands)| !commands.is_empty())
            .map(|(shard, commands)| {
                let (tx, rx) = mpsc::channel();
                self.workers[shard]
                    .submit(Job::Apply(commands, tx))
                    .then_some(rx)
            })
            .collect();
        for reply in replies.into_iter().flatten() {
            let _ = reply.recv();
        }
    }

    /// Drops the read snapshot so the next read fans out fresh.
    pub(crate) fn invalidate_snapshot(&self) {
        self.lock().snapshot = None;
    }

    /// Runs every shard's hosted leaf tick concurrently; `budgets[k]` is
    /// pushed to shard `k` before its tick. Unreachable shards yield `None`.
    pub(crate) fn tick_leaves(
        &self,
        now: SimTime,
        budgets: &[Option<Watts>],
    ) -> Vec<Option<GroupAggregate>> {
        let replies: Vec<Option<Receiver<Option<GroupAggregate>>>> = self
            .workers
            .iter()
            .enumerate()
            .map(|(shard, worker)| {
                let (tx, rx) = mpsc::channel();
                worker
                    .submit(Job::TickLeaf(
                        now,
                        budgets.get(shard).copied().flatten(),
                        tx,
                    ))
                    .then_some(rx)
            })
            .collect();
        replies
            .into_iter()
            .map(|reply| reply.and_then(|rx| rx.recv().ok().flatten()))
            .collect()
    }

    /// Runs `f` on the per-tick read snapshot, fanning out first if this is
    /// the first read since the last invalidation.
    fn with_snapshot<R>(&self, f: impl FnOnce(&HashMap<RackId, PowerReading>) -> R) -> R {
        let state = self.lock();
        if let Some(snapshot) = &state.snapshot {
            return f(snapshot);
        }
        drop(state);
        let snapshot = self.fan_out_reads();
        f(self.lock().snapshot.insert(snapshot))
    }

    fn buffer(&self, rack: RackId, command: AgentCommand) {
        if let Some(&shard) = self.shard_of.get(&rack) {
            self.lock().pending[shard].push(command);
        }
    }
}

impl AgentBus for ShardedRpcBus {
    fn racks(&self) -> Vec<RackId> {
        self.racks.clone()
    }

    fn read(&self, rack: RackId) -> Option<PowerReading> {
        self.with_snapshot(|snapshot| snapshot.get(&rack).copied())
    }

    fn read_all(&self, out: &mut Vec<PowerReading>) {
        self.with_snapshot(|snapshot| {
            out.extend(self.racks.iter().filter_map(|r| snapshot.get(r).copied()));
        });
    }

    fn set_charge_override(&mut self, rack: RackId, current: Amperes) {
        self.buffer(rack, AgentCommand::SetChargeOverride(rack, current));
    }

    fn clear_charge_override(&mut self, rack: RackId) {
        self.buffer(rack, AgentCommand::ClearChargeOverride(rack));
    }

    fn set_charge_postponed(&mut self, rack: RackId, postponed: bool) {
        self.buffer(rack, AgentCommand::SetChargePostponed(rack, postponed));
    }

    fn cap_servers(&mut self, rack: RackId, limit: Watts) {
        self.buffer(rack, AgentCommand::CapServers(rack, limit));
    }

    fn uncap_servers(&mut self, rack: RackId) {
        self.buffer(rack, AgentCommand::UncapServers(rack));
    }
}

/// Upper-tier state for in-server leaf control.
struct LeafState {
    /// The total protected limit.
    limit: Watts,
    /// The budget each shard runs under; refreshed from reported IT load
    /// plus an equal headroom share after every tick. An unreachable shard
    /// keeps its previous budget *reserved* so the others cannot absorb
    /// power a degraded shard may still be drawing.
    budgets: Vec<Watts>,
}

/// A [`FleetBackend`] running the fleet behind per-shard agent servers.
pub struct ShardedRpcFleetBackend {
    hosts: Vec<Arc<AgentHost<SimRackAgent>>>,
    // Dropped after `bus` (whose workers hold the connections); order is
    // load-bearing only for prompt shutdown.
    _servers: Vec<AgentServer<SimRackAgent>>,
    clock: FaultClock,
    bus: ShardedRpcBus,
    leaf: Option<LeafState>,
    name: &'static str,
}

impl ShardedRpcFleetBackend {
    /// Partitions `agents` per `config.shards`, hosts each group behind its
    /// own server, and connects one client worker per shard (concurrently).
    /// With `leaf`, installs a leaf [`Controller`] into every host.
    pub fn spawn(
        agents: Vec<SimRackAgent>,
        config: &RpcMeshConfig,
        leaf: Option<LeafControlSpec>,
    ) -> io::Result<Self> {
        let racks: Vec<RackId> = agents.iter().map(RackAgent::rack).collect();
        let groups = config.shards.partition(&racks);
        let clock = FaultClock::new();

        let mut agent_iter = agents.into_iter();
        let mut hosts = Vec::with_capacity(groups.len());
        let mut servers = Vec::with_capacity(groups.len());
        let mut pending_workers = Vec::with_capacity(groups.len());
        for (shard, group) in groups.iter().enumerate() {
            let shard_agents: Vec<SimRackAgent> = agent_iter.by_ref().take(group.len()).collect();
            let host = Arc::new(
                AgentHost::new(shard_agents, config.lease_ticks, clock.clone())
                    .with_max_frame_len(config.max_frame_len)
                    .with_shard(shard as u32),
            );
            if let Some(spec) = leaf {
                let mut leaf_config = ControllerConfig::new(
                    DeviceId::new(shard as u32),
                    spec.limit / groups.len() as f64,
                );
                if spec.allow_postponing {
                    leaf_config = leaf_config.with_postponing();
                }
                host.install_leaf_controller(Controller::new(leaf_config, spec.strategy));
            }
            let server = AgentServer::serve(Arc::clone(&host), &config.fresh_endpoint()?)?;
            let bus_config = RpcBusConfig {
                deadline: config.deadline,
                connect_timeout: Duration::from_secs(2),
                retry: config.retry,
                seed: config
                    .seed
                    .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(shard as u64 + 1)),
                fault: config.fault.as_ref().map(|f| f.for_shard(shard, group)),
                max_frame_len: config.max_frame_len,
                shard_label: shard as u32,
            };
            let (worker, ready) =
                ShardWorker::spawn(server.endpoint().clone(), bus_config, clock.clone())?;
            hosts.push(host);
            servers.push(server);
            pending_workers.push((worker, ready));
        }

        // Join the concurrent connects; discovery must agree with the plan.
        let mut workers = Vec::with_capacity(pending_workers.len());
        for ((worker, ready), group) in pending_workers.into_iter().zip(&groups) {
            let discovered = ready
                .recv()
                .map_err(|_| io::Error::other("shard worker died during connect"))??;
            if discovered != *group {
                return Err(io::Error::other(format!(
                    "shard discovery mismatch: expected {group:?}, got {discovered:?}"
                )));
            }
            workers.push(worker);
        }

        let leaf_state = leaf.map(|spec| LeafState {
            limit: spec.limit,
            budgets: vec![spec.limit / groups.len() as f64; groups.len()],
        });
        let name = if leaf_state.is_some() {
            "rpc-sharded-leaf"
        } else {
            "rpc-sharded"
        };
        Ok(ShardedRpcFleetBackend {
            hosts,
            _servers: servers,
            clock,
            bus: ShardedRpcBus::new(workers, &groups),
            leaf: leaf_state,
            name,
        })
    }

    /// The number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.hosts.len()
    }

    /// Shard `k`'s host (inspection for tests and reports).
    #[must_use]
    pub fn host(&self, shard: usize) -> &Arc<AgentHost<SimRackAgent>> {
        &self.hosts[shard]
    }

    /// Whether `rack` is currently coordinated on its shard.
    #[must_use]
    pub fn is_coordinated(&self, rack: RackId) -> bool {
        self.hosts
            .iter()
            .any(|host| host.racks().contains(&rack) && host.is_coordinated(rack))
    }

    /// The sharded bus (inspection; the simulation gets it via `bus_mut`).
    #[must_use]
    pub fn bus(&self) -> &ShardedRpcBus {
        &self.bus
    }

    /// Runs `f` over the agent owning `rack`, if hosted.
    pub fn with_agent<R>(&self, rack: RackId, f: impl FnOnce(&mut SimRackAgent) -> R) -> Option<R> {
        for host in &self.hosts {
            if let Some(i) = host.racks().iter().position(|&r| r == rack) {
                return Some(host.with_agents(|agents| f(&mut agents[i])));
            }
        }
        None
    }
}

impl FleetBackend for ShardedRpcFleetBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn step_schedule(
        &mut self,
        dt: Seconds,
        input_power: &[bool],
        load_of: &dyn Fn(RackId, usize) -> Watts,
    ) {
        // Buffered controller commands land first — before any physics and
        // before the clock advances, i.e. at the exact boundary where
        // in-memory commands become observable. This is the bit-identity
        // linchpin.
        self.bus.flush_commands();

        // Physics: shard outer, the serial step loop inner. Agents are
        // independent across shards, and within a shard the per-agent
        // operation sequence matches SerialBackend exactly.
        for host in &self.hosts {
            host.with_agents(|agents| step_agents(agents, dt, input_power, load_of));
        }

        // One clock shared by all shards: advance once, then sweep each
        // host's leases at the new tick.
        self.clock.advance(input_power.len() as u64);
        for host in &self.hosts {
            host.sweep_leases();
        }
        self.bus.invalidate_snapshot();
    }

    fn readings(&self) -> Vec<PowerReading> {
        // Shard order is fleet order (contiguous partition), so plain
        // concatenation reproduces the serial backend's reading order.
        self.hosts.iter().flat_map(|host| host.readings()).collect()
    }

    fn bus_mut(&mut self) -> &mut dyn AgentBus {
        &mut self.bus
    }

    fn hosted_control_tick(&mut self, now: SimTime) -> Option<HostedControlReport> {
        let leaf = self.leaf.as_mut()?;
        let budgets: Vec<Option<Watts>> = leaf.budgets.iter().map(|&b| Some(b)).collect();
        let aggregates = self.bus.tick_leaves(now, &budgets);

        // Re-budget: reachable shards report their IT load and split the
        // remaining headroom equally; unreachable shards keep their previous
        // budget reserved (their racks are standalone but still drawing).
        let mut it_total = Watts::ZERO;
        let mut recharge_total = Watts::ZERO;
        let mut capped_total = Watts::ZERO;
        let mut reserved = Watts::ZERO;
        let mut reachable = 0usize;
        for (shard, aggregate) in aggregates.iter().enumerate() {
            match aggregate {
                Some(aggregate) => {
                    it_total += aggregate.it_load;
                    recharge_total += aggregate.recharge_power;
                    capped_total += aggregate.capped_power;
                    reachable += 1;
                }
                None => reserved += leaf.budgets[shard],
            }
        }
        if reachable > 0 {
            let headroom = (leaf.limit - it_total - reserved).max(Watts::ZERO);
            let share = headroom / reachable as f64;
            for (shard, aggregate) in aggregates.iter().enumerate() {
                if let Some(aggregate) = aggregate {
                    leaf.budgets[shard] = aggregate.it_load + share;
                }
            }
        }
        Some(HostedControlReport {
            it_load: it_total,
            recharge_power: recharge_total,
            capped_power: capped_total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ShardPlan;
    use recharge_dynamo::FleetBackendKind;
    use recharge_units::Priority;

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
    fn sharded_backend_matches_serial_physics() {
        let schedule: Vec<bool> = (0..8).map(|i| i % 5 != 2).collect();
        let load = |rack: RackId, i: usize| {
            Watts::from_kilowatts(5.5 + 0.2 * f64::from(rack.index()) + 0.05 * i as f64)
        };
        let mut serial = FleetBackendKind::Serial.build(agents(7));
        let mut sharded =
            ShardedRpcFleetBackend::spawn(agents(7), &RpcMeshConfig::shard_count(3), None)
                .expect("spawn");
        assert_eq!(sharded.shard_count(), 3);
        serial.step_schedule(Seconds::new(1.0), &schedule, &load);
        sharded.step_schedule(Seconds::new(1.0), &schedule, &load);
        assert_eq!(serial.readings(), sharded.readings());
    }

    #[test]
    fn sharded_bus_reads_match_single_server() {
        let mut single = ShardedRpcFleetBackend::spawn(agents(6), &RpcMeshConfig::default(), None)
            .expect("spawn");
        assert_eq!(single.shard_count(), 1);
        let mut sharded =
            ShardedRpcFleetBackend::spawn(agents(6), &RpcMeshConfig::shard_count(2), None)
                .expect("spawn");
        let schedule = [true; 3];
        let load = |_: RackId, _: usize| Watts::from_kilowatts(6.0);
        single.step_schedule(Seconds::new(1.0), &schedule, &load);
        sharded.step_schedule(Seconds::new(1.0), &schedule, &load);
        for i in 0..6u32 {
            let rack = RackId::new(i);
            assert_eq!(single.bus_mut().read(rack), sharded.bus_mut().read(rack));
        }
        assert!(sharded.bus_mut().read(RackId::new(42)).is_none());
    }

    /// `read_all` must equal `racks().filter_map(read)` in order, whether it
    /// is the call that fans out or reads a snapshot a `read` already took.
    #[test]
    fn read_all_matches_per_rack_reads_in_rack_order() {
        // Descending ids: fleet order differs from id order.
        let fleet: Vec<SimRackAgent> = (0..7u32)
            .rev()
            .map(|i| {
                SimRackAgent::builder(RackId::new(i * 3), Priority::ALL[(i % 3) as usize])
                    .offered_load(Watts::from_kilowatts(5.0 + f64::from(i)))
                    .build()
            })
            .collect();
        let mut sharded =
            ShardedRpcFleetBackend::spawn(fleet, &RpcMeshConfig::shard_count(3), None)
                .expect("spawn");
        let load =
            |rack: RackId, _: usize| Watts::from_kilowatts(4.0 + 0.1 * f64::from(rack.index()));
        let per_rack = |bus: &dyn AgentBus| -> Vec<PowerReading> {
            bus.racks()
                .into_iter()
                .filter_map(|r| bus.read(r))
                .collect()
        };

        // An outage sub-step so the racks charge with distinct readings.
        sharded.step_schedule(Seconds::new(30.0), &[false, true], &load);
        let bus = sharded.bus_mut();
        let mut bulk = Vec::new();
        bus.read_all(&mut bulk); // fans out
        assert_eq!(bulk.len(), 7);
        assert_eq!(bulk, per_rack(bus));

        sharded.step_schedule(Seconds::new(30.0), &[true], &load);
        let bus = sharded.bus_mut();
        let expected = per_rack(bus); // fans out
        let mut bulk = vec![expected[0]]; // appends, never clears
        bus.read_all(&mut bulk);
        assert_eq!(bulk[1..], expected[..]);
        assert_eq!(bulk[0], expected[0]);
    }

    #[test]
    fn buffered_commands_flush_at_step_start() {
        let mut sharded =
            ShardedRpcFleetBackend::spawn(agents(4), &RpcMeshConfig::shard_count(2), None)
                .expect("spawn");
        sharded
            .bus_mut()
            .set_charge_override(RackId::new(0), Amperes::MAX_CHARGE);
        sharded
            .bus_mut()
            .set_charge_override(RackId::new(3), Amperes::MIN_CHARGE);
        // Still buffered: the agents have not seen the overrides yet.
        assert!(sharded
            .with_agent(RackId::new(0), |a| a
                .battery()
                .bbu()
                .charger()
                .override_current()
                .is_none())
            .unwrap());
        sharded.step_schedule(Seconds::new(1.0), &[true], &|_, _| {
            Watts::from_kilowatts(6.0)
        });
        assert_eq!(
            sharded.with_agent(RackId::new(0), |a| a
                .battery()
                .bbu()
                .charger()
                .override_current()),
            Some(Some(Amperes::MAX_CHARGE))
        );
        assert_eq!(
            sharded.with_agent(RackId::new(3), |a| a
                .battery()
                .bbu()
                .charger()
                .override_current()),
            Some(Some(Amperes::MIN_CHARGE))
        );
    }

    #[test]
    fn leaf_mode_coordinates_without_rack_commands() {
        let spec = LeafControlSpec {
            limit: Watts::from_kilowatts(190.0),
            strategy: Strategy::PriorityAware,
            allow_postponing: false,
        };
        let mut backend = ShardedRpcFleetBackend::spawn(
            agents(4),
            &RpcMeshConfig::shard_count(2).with_leaf_control(),
            Some(spec),
        )
        .expect("spawn");
        assert_eq!(backend.name(), "rpc-sharded-leaf");

        // Discharge, then recharge under hosted leaf control.
        let load = |_: RackId, _: usize| Watts::from_kilowatts(6.0);
        backend.step_schedule(Seconds::new(60.0), &[false], &load);
        for s in 1..60u32 {
            backend.step_schedule(Seconds::new(1.0), &[true], &load);
            let report = backend
                .hosted_control_tick(SimTime::from_secs(f64::from(s)))
                .expect("leaf tick");
            assert!(report.it_load > Watts::ZERO);
        }
        for i in 0..4u32 {
            let rack = RackId::new(i);
            assert!(backend.is_coordinated(rack), "{rack} not coordinated");
            let overridden = backend
                .with_agent(rack, |a| {
                    a.battery().bbu().charger().override_current().is_some()
                })
                .unwrap();
            assert!(overridden, "{rack} has no leaf override");
        }
    }

    #[test]
    fn spawn_rejects_leaf_control_without_spec() {
        let result = crate::backend::spawn_mesh(
            agents(2),
            &RpcMeshConfig::shard_count(2).with_leaf_control(),
            None,
        );
        match result {
            Err(err) => assert_eq!(err.kind(), io::ErrorKind::InvalidInput),
            Ok(_) => panic!("leaf_control without a spec must be rejected"),
        }
    }

    #[test]
    fn shard_plan_partitions_preserve_order_and_cover() {
        let racks: Vec<RackId> = (0..29).map(RackId::new).collect();
        for plan in [
            ShardPlan::Count(0),
            ShardPlan::Count(1),
            ShardPlan::Count(4),
            ShardPlan::Count(64),
            ShardPlan::ByRpp { racks_per_rpp: 14 },
        ] {
            let groups = plan.partition(&racks);
            let flattened: Vec<RackId> = groups.iter().flatten().copied().collect();
            assert_eq!(flattened, racks, "{plan:?} must cover in fleet order");
            assert!(
                groups.iter().all(|g| !g.is_empty()),
                "{plan:?} made an empty shard"
            );
        }
        assert_eq!(
            ShardPlan::ByRpp { racks_per_rpp: 14 }
                .partition(&racks)
                .len(),
            3
        );
        assert_eq!(ShardPlan::Count(64).partition(&racks).len(), 29);
    }
}
