//! The mesh: one [`AgentServer`] per shard, batched wire ops, and a
//! concurrent controller fan-out.
//!
//! The fleet is partitioned by a [`ShardPlan`] (one shard by default) into
//! per-shard [`AgentHost`]s, each behind its own server, and the controller
//! talks to all of them through a [`ShardedRpcBus`]:
//!
//! * **Batched ops** — one `ReadAllReadings` per shard reads all of its
//!   racks; buffered commands flush as one `ApplyCommandBatch` per shard. A
//!   control tick costs O(servers) RPCs, not O(racks). A shard holds at most
//!   [`MAX_READINGS_PER_FRAME`] racks, so its readings fit one frame.
//! * **Concurrent fan-out** — the calling thread owns shard 0's [`RpcBus`]
//!   and calls it itself; every other shard has a persistent client thread
//!   owning its bus. The bus hands every worker its job, serves shard 0
//!   inline, then joins on the reply channels, so per-tick network latency
//!   is max-over-shards, not sum-over-racks, and a single-shard mesh spawns
//!   no client thread and pays no thread hop.
//! * **One-hop reads** — each shard's reply is kept as the fleet-order `Vec`
//!   it arrived as, addressed through a rack → (shard, index) map built at
//!   spawn. A reply whose length or rack ids differ from what discovery
//!   found reads as absent, the same as an unreachable shard.
//!
//! Control stays on the caller's side of the wire: a single `Controller` or
//! a `HierarchicalControl` tree (one scoped leaf per RPP, which a
//! [`ShardPlan::ByRpp`] partition lines up with one server each) drives the
//! [`ShardedRpcBus`] like any other `AgentBus`.
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
//! [`ShardPlan::ByRpp`]: crate::backend::ShardPlan::ByRpp
//! [`InMemoryBus`]: recharge_dynamo::InMemoryBus

use std::io;
use std::ops::Range;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use recharge_dynamo::{step_agents, AgentBus, FleetBackend, PowerReading, RackAgent, SimRackAgent};
use recharge_units::{Amperes, RackId, RackMap, Seconds, Watts};

use crate::backend::RpcMeshConfig;
use crate::client::{RpcBus, RpcBusConfig};
use crate::fault::FaultClock;
use crate::server::{AgentHost, AgentServer, DEFAULT_LEASE_TICKS};
use crate::wire::{AgentCommand, MAX_READINGS_PER_FRAME};

/// One unit of work for a shard's client thread.
enum Job {
    /// Read every rack on the shard; `None` when the shard is unreachable.
    ReadAll(Sender<Option<Vec<PowerReading>>>),
    /// Apply a command batch; `false` when the batch was lost.
    Apply(Vec<AgentCommand>, Sender<bool>),
}

/// A persistent client thread owning the [`RpcBus`] of one shard past the
/// first.
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
    /// Per-control-tick read cache, one entry per shard: the first `read`
    /// after invalidation fans `ReadAllReadings` out to every shard; later
    /// reads index into it. `None` marks a shard that did not answer, or
    /// whose reply did not match its discovered racks.
    snapshot: Option<Vec<Option<Vec<PowerReading>>>>,
    /// Commands buffered per shard, flushed as one batch per shard at the
    /// start of the next `step_schedule`.
    pending: Vec<Vec<AgentCommand>>,
}

/// An [`AgentBus`] over every shard: shard 0 on the calling thread, one
/// worker per further shard.
///
/// Reads are snapshot-cached per control tick; commands are buffered and
/// batch-flushed (see the module docs for why that preserves bit-identity).
pub struct ShardedRpcBus {
    /// Shard 0's client, called on the calling thread.
    first: RpcBus,
    /// Shards 1 and up, one client thread each.
    workers: Vec<ShardWorker>,
    /// Every shard's racks, concatenated in shard order (fleet order).
    racks: Vec<RackId>,
    /// Shard `k`'s slice of `racks`.
    shards: Vec<Range<usize>>,
    /// rack → (shard, index within the shard's reply).
    position: RackMap<(usize, usize)>,
    state: Mutex<BusState>,
}

impl ShardedRpcBus {
    /// A bus over `first` (shard 0) and `workers` (shards 1 and up), which
    /// discovered `groups` (one per shard, in shard order).
    fn new(first: RpcBus, workers: Vec<ShardWorker>, groups: &[Vec<RackId>]) -> Self {
        let mut position = RackMap::default();
        let mut racks = Vec::new();
        let mut shards = Vec::with_capacity(groups.len());
        for (shard, group) in groups.iter().enumerate() {
            let start = racks.len();
            for (index, &rack) in group.iter().enumerate() {
                position.insert(rack, (shard, index));
                racks.push(rack);
            }
            shards.push(start..racks.len());
        }
        ShardedRpcBus {
            first,
            workers,
            racks,
            shards,
            position,
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
        self.shards.len()
    }

    /// `reply` if it lists exactly shard `shard`'s discovered racks, in
    /// order; `None` (the shard reads as absent) otherwise.
    fn checked(&self, shard: usize, reply: Option<Vec<PowerReading>>) -> Option<Vec<PowerReading>> {
        let expected = &self.racks[self.shards[shard].clone()];
        reply.filter(|readings| {
            readings.len() == expected.len()
                && readings
                    .iter()
                    .zip(expected)
                    .all(|(r, &rack)| r.rack == rack)
        })
    }

    /// Fans `ReadAllReadings` out to every worker, reads shard 0 inline,
    /// and joins on the replies — the latch making per-tick latency
    /// max-over-shards.
    fn fan_out_reads(&self) -> Vec<Option<Vec<PowerReading>>> {
        let replies: Vec<Option<Receiver<Option<Vec<PowerReading>>>>> = self
            .workers
            .iter()
            .map(|worker| {
                let (tx, rx) = mpsc::channel();
                worker.submit(Job::ReadAll(tx)).then_some(rx)
            })
            .collect();
        let mut snapshot = Vec::with_capacity(self.shards.len());
        snapshot.push(self.checked(0, self.first.read_all()));
        for (shard, reply) in (1..).zip(replies) {
            // An unreachable shard contributes nothing: its racks read as
            // `None`, the same signal a disconnected in-memory rack gives.
            let readings = reply.and_then(|rx| rx.recv().ok()).flatten();
            snapshot.push(self.checked(shard, readings));
        }
        snapshot
    }

    /// Flushes buffered commands, one `ApplyCommandBatch` per shard with any
    /// pending, all shards in flight concurrently.
    pub(crate) fn flush_commands(&self) {
        let mut pending: Vec<Vec<AgentCommand>> = {
            let mut state = self.lock();
            let shards = state.pending.len();
            std::mem::replace(&mut state.pending, vec![Vec::new(); shards])
        };
        let first = std::mem::take(&mut pending[0]);
        let replies: Vec<Option<Receiver<bool>>> = self
            .workers
            .iter()
            .zip(pending.into_iter().skip(1))
            .filter(|(_, commands)| !commands.is_empty())
            .map(|(worker, commands)| {
                let (tx, rx) = mpsc::channel();
                worker.submit(Job::Apply(commands, tx)).then_some(rx)
            })
            .collect();
        if !first.is_empty() {
            self.first.apply_batch(first);
        }
        for reply in replies.into_iter().flatten() {
            let _ = reply.recv();
        }
    }

    /// Drops the read snapshot so the next read fans out fresh.
    pub(crate) fn invalidate_snapshot(&self) {
        self.lock().snapshot = None;
    }

    /// Runs `f` on the per-tick read snapshot, fanning out first if this is
    /// the first read since the last invalidation.
    fn with_snapshot<R>(&self, f: impl FnOnce(&[Option<Vec<PowerReading>>]) -> R) -> R {
        let state = self.lock();
        if let Some(snapshot) = &state.snapshot {
            return f(snapshot);
        }
        drop(state);
        let snapshot = self.fan_out_reads();
        f(self.lock().snapshot.insert(snapshot))
    }

    fn buffer(&self, rack: RackId, command: AgentCommand) {
        if let Some(&(shard, _)) = self.position.get(&rack) {
            self.lock().pending[shard].push(command);
        }
    }
}

impl AgentBus for ShardedRpcBus {
    fn racks(&self) -> Vec<RackId> {
        self.racks.clone()
    }

    fn read(&self, rack: RackId) -> Option<PowerReading> {
        let &(shard, index) = self.position.get(&rack)?;
        self.with_snapshot(|snapshot| snapshot[shard].as_ref()?.get(index).copied())
    }

    fn read_all(&self, out: &mut Vec<PowerReading>) {
        // Shards are contiguous fleet ranges, so their replies concatenate
        // in `racks` order.
        self.with_snapshot(|snapshot| {
            for readings in snapshot.iter().flatten() {
                out.extend_from_slice(readings);
            }
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

/// A [`FleetBackend`] running the fleet behind per-shard agent servers.
pub struct ShardedRpcFleetBackend {
    // Fields drop in declaration order. The bus goes first and closes every
    // client connection, so each server's connection handlers see their
    // peer close and return at once instead of waiting out a read poll.
    bus: ShardedRpcBus,
    _servers: Vec<AgentServer<SimRackAgent>>,
    hosts: Vec<Arc<AgentHost<SimRackAgent>>>,
    clock: FaultClock,
}

impl ShardedRpcFleetBackend {
    /// Partitions `agents` per `config.shards`, hosts each group behind its
    /// own server, and connects one client worker per shard (concurrently).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when a shard would host more than
    /// [`MAX_READINGS_PER_FRAME`] racks (its readings could never cross the
    /// wire, so every read would find the whole shard unreachable); any
    /// bind, connect or discovery failure otherwise.
    pub fn spawn(agents: Vec<SimRackAgent>, config: &RpcMeshConfig) -> io::Result<Self> {
        let racks: Vec<RackId> = agents.iter().map(RackAgent::rack).collect();
        let groups = config.shards.partition(&racks);
        if let Some((shard, group)) = groups
            .iter()
            .enumerate()
            .find(|(_, group)| group.len() > MAX_READINGS_PER_FRAME)
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "shard {shard} would host {} racks; one readings frame carries at most \
                     {MAX_READINGS_PER_FRAME}",
                    group.len()
                ),
            ));
        }
        let clock = FaultClock::new();

        let mut agent_iter = agents.into_iter();
        let mut hosts = Vec::with_capacity(groups.len());
        let mut servers = Vec::with_capacity(groups.len());
        let mut links = Vec::with_capacity(groups.len());
        for (shard, group) in groups.iter().enumerate() {
            let shard_agents: Vec<SimRackAgent> = agent_iter.by_ref().take(group.len()).collect();
            let host = Arc::new(
                AgentHost::new(shard_agents, DEFAULT_LEASE_TICKS, clock.clone())
                    .with_shard(shard as u32),
            );
            let server = AgentServer::serve(Arc::clone(&host), &config.fresh_endpoint()?)?;
            let defaults = RpcBusConfig::default();
            let bus_config = RpcBusConfig {
                seed: defaults
                    .seed
                    .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(shard as u64 + 1)),
                fault: config.fault.as_ref().map(|f| f.for_shard(shard, group)),
                shard_label: shard as u32,
                ..defaults
            };
            links.push((server.endpoint().clone(), bus_config));
            hosts.push(host);
            servers.push(server);
        }
        // Shards 1 and up connect on their workers while the calling thread
        // connects shard 0.
        let mut links = links.into_iter();
        let (endpoint, bus_config) = links.next().expect("a partition has at least one shard");
        let pending_workers = links
            .map(|(endpoint, config)| ShardWorker::spawn(endpoint, config, clock.clone()))
            .collect::<io::Result<Vec<_>>>()?;
        let first = RpcBus::connect(&endpoint, bus_config, clock.clone())?;

        // Join the concurrent connects; discovery must agree with the plan.
        let check = |group: &Vec<RackId>, discovered: &[RackId]| {
            if discovered == group.as_slice() {
                Ok(())
            } else {
                Err(io::Error::other(format!(
                    "shard discovery mismatch: expected {group:?}, got {discovered:?}"
                )))
            }
        };
        check(&groups[0], first.racks())?;
        let mut workers = Vec::with_capacity(pending_workers.len());
        for ((worker, ready), group) in pending_workers.into_iter().zip(&groups[1..]) {
            let discovered = ready
                .recv()
                .map_err(|_| io::Error::other("shard worker died during connect"))??;
            check(group, &discovered)?;
            workers.push(worker);
        }

        Ok(ShardedRpcFleetBackend {
            bus: ShardedRpcBus::new(first, workers, &groups),
            _servers: servers,
            hosts,
            clock,
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
        "rpc-sharded"
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
        let mut out = Vec::with_capacity(self.bus.racks.len());
        for host in &self.hosts {
            host.append_readings(&mut out);
        }
        out
    }

    fn bus_mut(&mut self) -> &mut dyn AgentBus {
        &mut self.bus
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ShardPlan;
    use crate::endpoint::Endpoint;
    use recharge_dynamo::FleetBackendKind;
    use recharge_units::Priority;
    use std::time::{Duration, Instant};

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
        let mut sharded = ShardedRpcFleetBackend::spawn(agents(7), &RpcMeshConfig::shard_count(3))
            .expect("spawn");
        assert_eq!(sharded.shard_count(), 3);
        serial.step_schedule(Seconds::new(1.0), &schedule, &load);
        sharded.step_schedule(Seconds::new(1.0), &schedule, &load);
        assert_eq!(serial.readings(), sharded.readings());
    }

    #[test]
    fn sharded_bus_reads_match_single_server() {
        let mut single =
            ShardedRpcFleetBackend::spawn(agents(6), &RpcMeshConfig::default()).expect("spawn");
        assert_eq!(single.shard_count(), 1);
        // The calling thread serves the only shard: no client thread.
        assert!(single.bus.workers.is_empty());
        let mut sharded = ShardedRpcFleetBackend::spawn(agents(6), &RpcMeshConfig::shard_count(2))
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
            ShardedRpcFleetBackend::spawn(fleet, &RpcMeshConfig::shard_count(3)).expect("spawn");
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
        let mut sharded = ShardedRpcFleetBackend::spawn(agents(4), &RpcMeshConfig::shard_count(2))
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

    /// A shard larger than one readings frame is refused at spawn rather
    /// than left to read as unreachable on every tick; split over two
    /// shards, the same fleet reads in full.
    #[test]
    fn spawn_refuses_a_shard_beyond_one_readings_frame() {
        let racks = MAX_READINGS_PER_FRAME as u32 + 1;
        let lone = agents(racks);
        match ShardedRpcFleetBackend::spawn(lone, &RpcMeshConfig::default()) {
            Err(err) => {
                assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
                let message = err.to_string();
                assert!(message.contains("shard 0"), "{message}");
                assert!(
                    message.contains(&MAX_READINGS_PER_FRAME.to_string()),
                    "{message}"
                );
            }
            Ok(_) => panic!("a {racks}-rack shard must be refused"),
        }

        let mut split =
            ShardedRpcFleetBackend::spawn(agents(racks), &RpcMeshConfig::shard_count(2))
                .expect("spawn");
        let mut readings = Vec::new();
        split.bus_mut().read_all(&mut readings);
        assert_eq!(readings.len(), racks as usize);
    }

    /// A bus over one server per `hosted` group whose discovery is
    /// overridden by `discovered`, as if each server had listed those racks.
    /// The bus comes first in the tuple, so it drops before the servers.
    fn bus_over(
        hosted: &[&[u32]],
        discovered: &[&[u32]],
    ) -> (ShardedRpcBus, Vec<AgentServer<SimRackAgent>>) {
        let clock = FaultClock::new();
        let servers: Vec<AgentServer<SimRackAgent>> = hosted
            .iter()
            .map(|racks| {
                let agents = racks
                    .iter()
                    .map(|&i| SimRackAgent::builder(RackId::new(i), Priority::P2).build())
                    .collect();
                let host = Arc::new(AgentHost::new(agents, 30, clock.clone()));
                AgentServer::serve(host, &Endpoint::loopback()).expect("serve")
            })
            .collect();
        let config = RpcBusConfig::default();
        let first =
            RpcBus::connect(servers[0].endpoint(), config.clone(), clock.clone()).expect("connect");
        let workers = servers[1..]
            .iter()
            .map(|server| {
                let (worker, ready) =
                    ShardWorker::spawn(server.endpoint().clone(), config.clone(), clock.clone())
                        .expect("spawn");
                ready.recv().expect("ready").expect("connect");
                worker
            })
            .collect();
        let groups: Vec<Vec<RackId>> = discovered
            .iter()
            .map(|racks| racks.iter().copied().map(RackId::new).collect())
            .collect();
        (ShardedRpcBus::new(first, workers, &groups), servers)
    }

    /// A shard whose reply is short, long, reordered or names a foreign rack
    /// reads as absent, and never hands out another rack's reading.
    #[test]
    fn mismatched_shard_replies_read_as_absent() {
        let good: &[u32] = &[0, 1, 2];
        let hosted: &[u32] = &[3, 4, 5];
        for bad in [&[3, 4, 5, 6][..], &[3, 4], &[5, 4, 3], &[3, 4, 9]] {
            for (discovered, bad_shard) in [([good, bad], 1), ([bad, good], 0)] {
                let hosts = if bad_shard == 1 {
                    [good, hosted]
                } else {
                    [hosted, good]
                };
                let (bus, _servers) = bus_over(&hosts, &discovered);
                let mut all = Vec::new();
                bus.read_all(&mut all);
                let racks: Vec<u32> = all.iter().map(|r| r.rack.index()).collect();
                assert_eq!(racks, good, "{bad:?} on shard {bad_shard}");
                for &rack in good {
                    assert!(bus.read(RackId::new(rack)).is_some());
                }
                for &rack in bad {
                    assert_eq!(bus.read(RackId::new(rack)), None, "{bad:?} rack {rack}");
                }
            }
        }
        // The same servers with their true discovery read in full.
        let (bus, _servers) = bus_over(&[good, hosted], &[good, hosted]);
        let mut all = Vec::new();
        bus.read_all(&mut all);
        assert_eq!(all.len(), 6);
        assert!(bus
            .read(RackId::new(5))
            .is_some_and(|r| r.rack == RackId::new(5)));
    }

    /// Neither spawning nor dropping a mesh waits out a poll interval.
    /// Waiting out the 10 ms accept and read polls, a 316-rack mesh took
    /// about 8 ms to spawn and 14 ms to drop on a 2-vCPU host, on every
    /// cycle. The bound is on the third-fastest of 10 cycles, so a few
    /// cycles slowed by a loaded host cannot fail the test.
    #[cfg(unix)]
    #[test]
    fn spawn_and_drop_wait_out_no_poll() {
        const BOUND: Duration = Duration::from_micros(2_500);
        let config = RpcMeshConfig {
            transport: crate::backend::RpcTransport::UnixSocket,
            ..RpcMeshConfig::shard_count(1)
        };
        let (mut spawns, mut drops) = (Vec::new(), Vec::new());
        for _ in 0..10 {
            let fleet = agents(316);
            let start = Instant::now();
            let mesh = ShardedRpcFleetBackend::spawn(fleet, &config).expect("spawn");
            let spawned = Instant::now();
            drop(mesh);
            spawns.push(spawned - start);
            drops.push(spawned.elapsed());
        }
        spawns.sort_unstable();
        drops.sort_unstable();
        assert!(
            spawns[2] < BOUND && drops[2] < BOUND,
            "spawns took {spawns:?} and drops {drops:?}"
        );
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
