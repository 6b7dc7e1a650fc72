//! The agent side of the mesh: hosted racks, degraded-mode state machine,
//! and the socket server.
//!
//! [`AgentHost`] owns the [`RackAgent`]s and tracks, per rack, when the
//! controller last spoke to it. The degraded-mode state machine (§III-B of
//! the paper) is lease-based:
//!
//! ```text
//!            first contact / contact while standalone
//!   standalone ────────────────────────────────────────► coordinated
//!        ▲                                                    │
//!        └──────────── lease expires (no contact for ─────────┘
//!                      `lease_ticks` simulation ticks)
//! ```
//!
//! Falling back to standalone clears any charge override and resumes
//! postponed charging, so the rack's variable charger picks currents
//! autonomously — exactly the uncoordinated policy the paper's chargers run
//! when no controller exists. Server power caps are deliberately **left in
//! place**: caps protect breakers, and dropping one because the control
//! plane hiccupped could trip the very device the cap was guarding. The
//! controller re-evaluates caps as soon as it can reach the rack again.
//!
//! Racks *start* standalone and join on first contact. This matters for the
//! equivalence guarantee: a fleet warms up for many ticks before the
//! controller's first read, and a lease that expired during warm-up would
//! otherwise inject a spurious fallback event into every run.
//!
//! The host keeps its agents' readings as of their last change. Every
//! mutation under the host lock marks them stale (stepping or any other
//! [`AgentHost::with_agents`] access, a command batch that lands, a lease
//! fallback), and the next read refills them. The stepping side reads right
//! after each step ([`AgentHost::readings`]), so a `ReadAllReadings` served
//! from a handler thread copies those rows instead of walking the agents,
//! which would pull their state into another core's cache just before the
//! next physics step.
//!
//! [`AgentServer`] puts an [`AgentHost`] behind a TCP or Unix-domain
//! listener: one accept thread, one handler thread per connection, all
//! plain blocking I/O. The accept thread blocks in `accept` and a dropping
//! server wakes it with a connection of its own; a handler returns as soon
//! as its peer closes and otherwise re-checks the shutdown flag on a short
//! read poll. So neither connecting nor a shutdown whose clients already
//! hung up waits out a poll.

use std::collections::HashMap;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use recharge_dynamo::{PowerReading, RackAgent};
use recharge_telemetry::{flight_at, tcounter, tspan, FlightKind, ReasonCode, NO_BUCKET};
use recharge_units::RackId;

use crate::endpoint::{
    recv_frame, send_frame, Endpoint, FrameBuffer, FrameRead, NetListener, NetStream,
};
use crate::fault::FaultClock;
use crate::wire::{
    decode_request, encode_response, AgentCommand, HealthReport, Request, Response, MAX_FRAME_LEN,
};

/// Default coordination lease, in simulation ticks.
///
/// Must comfortably exceed the controller's `control_every` interval:
/// the controller reads every scoped rack once per control tick, so under a
/// healthy link the lease is renewed long before it expires.
pub const DEFAULT_LEASE_TICKS: u64 = 30;

/// Per-rack coordination state.
#[derive(Debug, Clone, Copy)]
struct RackLease {
    /// Tick of the last controller contact.
    last_contact: u64,
    /// Whether the rack currently follows controller commands.
    coordinated: bool,
    /// Whether the rack has ever been coordinated — distinguishes the
    /// first-contact lease grant from a rejoin after standalone fallback in
    /// the flight-recorder journal. Never read by the lease logic itself.
    ever_coordinated: bool,
}

struct HostState<A> {
    agents: Vec<A>,
    leases: Vec<RackLease>,
    /// Every agent's reading as of its last change, in fleet order; valid
    /// only while `stale` is false.
    readings: Vec<PowerReading>,
    stale: bool,
}

impl<A: RackAgent> HostState<A> {
    /// The agents, to change: the one way to mutate them, so the cached
    /// readings always go stale with them.
    fn agents_mut(&mut self) -> &mut [A] {
        self.stale = true;
        &mut self.agents
    }

    /// The agents' current readings, refilled first if anything changed
    /// since the last fill.
    fn readings(&mut self) -> &[PowerReading] {
        if self.stale {
            self.readings.clear();
            self.readings
                .extend(self.agents.iter().map(RackAgent::read));
            self.stale = false;
        }
        &self.readings
    }
}

/// The racks hosted behind one server, with lease tracking.
///
/// Shared between the stepping side (a fleet backend advancing physics) and
/// the serving side (handler threads executing controller requests); all
/// access goes through one mutex, so a request can never observe a rack
/// mid-step.
pub struct AgentHost<A> {
    state: Mutex<HostState<A>>,
    index_of: HashMap<RackId, usize>,
    racks: Vec<RackId>,
    clock: FaultClock,
    lease_ticks: u64,
    shard: u32,
}

impl<A: RackAgent> AgentHost<A> {
    /// Hosts `agents` with the given lease, sharing `clock` with whoever
    /// advances simulation time.
    #[must_use]
    pub fn new(agents: Vec<A>, lease_ticks: u64, clock: FaultClock) -> Self {
        let racks: Vec<RackId> = agents.iter().map(RackAgent::rack).collect();
        let index_of = racks.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        let leases = vec![
            RackLease {
                last_contact: 0,
                coordinated: false,
                ever_coordinated: false,
            };
            agents.len()
        ];
        AgentHost {
            state: Mutex::new(HostState {
                readings: Vec::with_capacity(agents.len()),
                stale: true,
                agents,
                leases,
            }),
            index_of,
            racks,
            clock,
            lease_ticks,
            shard: 0,
        }
    }

    /// Tags this host with its shard index within the mesh; reported back
    /// through [`Request::ReadHealth`] so scrapes identify the server.
    #[must_use]
    pub fn with_shard(mut self, shard: u32) -> Self {
        self.shard = shard;
        self
    }

    /// The shard index this host reports in health snapshots.
    #[must_use]
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The shared simulation-tick clock.
    #[must_use]
    pub fn clock(&self) -> &FaultClock {
        &self.clock
    }

    /// The hosted racks, in stable (fleet) order.
    #[must_use]
    pub fn racks(&self) -> &[RackId] {
        &self.racks
    }

    fn lock(&self) -> MutexGuard<'_, HostState<A>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` over the mutable agent slice (fleet order) — the stepping
    /// hook for backends. The cached readings go stale.
    pub fn with_agents<R>(&self, f: impl FnOnce(&mut [A]) -> R) -> R {
        f(self.lock().agents_mut())
    }

    /// Post-step telemetry for every hosted rack, in fleet order.
    #[must_use]
    pub fn readings(&self) -> Vec<PowerReading> {
        self.lock().readings().to_vec()
    }

    /// Appends [`readings`](Self::readings) to `out`.
    pub(crate) fn append_readings(&self, out: &mut Vec<PowerReading>) {
        out.extend_from_slice(self.lock().readings());
    }

    /// Whether `rack` is currently coordinated (lease unexpired).
    #[must_use]
    pub fn is_coordinated(&self, rack: RackId) -> bool {
        let state = self.lock();
        self.index_of
            .get(&rack)
            .is_some_and(|&i| state.leases[i].coordinated)
    }

    /// Sweeps leases at the current clock: any coordinated rack whose lease
    /// expired falls back to standalone. Hosts share one clock, so the
    /// backend advances it once and then sweeps every host.
    pub fn sweep_leases(&self) {
        let now = self.clock.tick();
        let mut state = self.lock();
        for i in 0..state.leases.len() {
            let lease = state.leases[i];
            if lease.coordinated && now.saturating_sub(lease.last_contact) > self.lease_ticks {
                state.leases[i].coordinated = false;
                // Standalone: automatic variable-charger current, charging
                // resumed. Caps stay (see module docs).
                let agent = &mut state.agents_mut()[i];
                agent.clear_charge_override();
                agent.set_charge_postponed(false);
                tcounter!("net.standalone_fallbacks").inc();
                flight_at(
                    now as f64,
                    FlightKind::LeaseExpire,
                    ReasonCode::LeaseLapsed,
                    state.agents[i].rack().index(),
                    0,
                    NO_BUCKET,
                    lease.last_contact,
                    self.lease_ticks,
                );
            }
        }
    }

    /// Renews rack `i`'s lease at tick `now`, rejoining it if standalone.
    fn renew_lease(&self, state: &mut HostState<A>, i: usize, now: u64) {
        state.leases[i].last_contact = now;
        if !state.leases[i].coordinated {
            state.leases[i].coordinated = true;
            tcounter!("net.rejoins").inc();
            let reason = if state.leases[i].ever_coordinated {
                ReasonCode::LeaseRejoin
            } else {
                ReasonCode::LeaseFirstContact
            };
            state.leases[i].ever_coordinated = true;
            flight_at(
                now as f64,
                FlightKind::LeaseGrant,
                reason,
                self.racks[i].index(),
                0,
                NO_BUCKET,
                now,
                self.lease_ticks,
            );
        }
    }

    /// Applies `commands` in order to the hosted agents, skipping racks not
    /// hosted here, and returns how many landed.
    fn apply_commands(&self, state: &mut HostState<A>, commands: &[AgentCommand]) -> u32 {
        let mut applied = 0u32;
        for command in commands {
            let Some(&i) = self.index_of.get(&command.rack()) else {
                continue;
            };
            let agent = &mut state.agents_mut()[i];
            match *command {
                AgentCommand::SetChargeOverride(_, current) => agent.set_charge_override(current),
                AgentCommand::ClearChargeOverride(_) => agent.clear_charge_override(),
                AgentCommand::SetChargePostponed(_, postponed) => {
                    agent.set_charge_postponed(postponed);
                }
                AgentCommand::CapServers(_, limit) => agent.cap_servers(limit),
                AgentCommand::UncapServers(_) => agent.uncap_servers(),
            }
            applied += 1;
        }
        applied
    }

    /// Executes one controller request.
    ///
    /// Lease renewal, per op: `ReadAllReadings` renews every hosted rack
    /// (the controller reads every scoped rack each control tick);
    /// `ApplyCommandBatch` renews each addressed rack. `ListRacks` and
    /// `ReadHealth` are lease-neutral.
    pub fn handle(&self, request: &Request) -> Response {
        let _span = tspan!("net.rpc_serve", "net");
        tcounter!("net.rpc_server_requests").inc();
        let mut state = self.lock();
        let now = self.clock.tick();
        match request {
            Request::ReadAllReadings => {
                for i in 0..self.racks.len() {
                    self.renew_lease(&mut state, i, now);
                }
            }
            Request::ApplyCommandBatch(commands) => {
                for command in commands {
                    if let Some(&i) = self.index_of.get(&command.rack()) {
                        self.renew_lease(&mut state, i, now);
                    }
                }
            }
            Request::ListRacks | Request::ReadHealth => {}
        }
        match request {
            Request::ListRacks => Response::Racks(self.racks.clone()),
            Request::ReadAllReadings => Response::Readings(state.readings().to_vec()),
            Request::ApplyCommandBatch(commands) => {
                Response::BatchAck(self.apply_commands(&mut state, commands))
            }
            Request::ReadHealth => {
                let coordinated = state.leases.iter().filter(|l| l.coordinated).count() as u32;
                Response::Health(HealthReport {
                    shard: self.shard,
                    racks: self.racks.len() as u32,
                    coordinated,
                    text: recharge_telemetry::snapshot().to_prometheus(),
                })
            }
        }
    }
}

/// Read poll of a connection handler: how often a handler whose peer stays
/// connected re-checks the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Connect timeout of the connection a dropping server wakes its accept
/// thread with.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// An [`AgentHost`] behind a listening socket.
///
/// Dropping the server stops the accept loop, closes every connection
/// handler, and (for Unix endpoints) removes the socket file.
pub struct AgentServer<A> {
    host: Arc<AgentHost<A>>,
    endpoint: Endpoint,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl<A: RackAgent + Send + 'static> AgentServer<A> {
    /// Binds `endpoint` and starts serving `host`.
    pub fn serve(host: Arc<AgentHost<A>>, endpoint: &Endpoint) -> io::Result<Self> {
        let listener = NetListener::bind(endpoint)?;
        let bound = listener.local_endpoint()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let host = Arc::clone(&host);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("recharge-net-accept".into())
                .spawn(move || accept_loop(&listener, &host, &shutdown))
                .map_err(|e| io::Error::other(format!("spawning accept thread: {e}")))?
        };
        Ok(AgentServer {
            host,
            endpoint: bound,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The endpoint actually bound (ephemeral ports resolved).
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The hosted racks and leases.
    #[must_use]
    pub fn host(&self) -> &Arc<AgentHost<A>> {
        &self.host
    }
}

impl<A> Drop for AgentServer<A> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            // Wake the blocking accept with a connection of our own; the loop
            // sees the flag and returns. An unspecified TCP address is woken
            // on loopback.
            let mut wake = self.endpoint.clone();
            if let Endpoint::Tcp(addr) = &mut wake {
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr.ip() {
                        IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                        IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                    });
                }
            }
            let woken = NetStream::connect(&wake, WAKE_TIMEOUT).is_ok();
            // A loop that could not be woken is left blocked rather than
            // joined forever.
            if woken || handle.is_finished() {
                let _ = handle.join();
            }
        }
    }
}

fn accept_loop<A: RackAgent + Send + 'static>(
    listener: &NetListener,
    host: &Arc<AgentHost<A>>,
    shutdown: &Arc<AtomicBool>,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        // After shutdown, the connection is the dropping server's wake-up
        // (or a late client): either way, stop.
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok(stream) => {
                tcounter!("net.rpc_server_accepts").inc();
                let host = Arc::clone(host);
                let shutdown = Arc::clone(shutdown);
                let spawned = std::thread::Builder::new()
                    .name("recharge-net-conn".into())
                    .spawn(move || connection_loop(stream, &host, &shutdown));
                match spawned {
                    Ok(handle) => handlers.push(handle),
                    Err(_) => continue,
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
        handlers.retain(|h| !h.is_finished());
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

fn connection_loop<A: RackAgent>(
    mut stream: NetStream,
    host: &AgentHost<A>,
    shutdown: &AtomicBool,
) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let mut buffer = FrameBuffer::new();
    while !shutdown.load(Ordering::SeqCst) {
        match recv_frame(&mut stream, &mut buffer, None, MAX_FRAME_LEN) {
            Ok(FrameRead::Frame(payload)) => {
                let Ok((id, request)) = decode_request(&payload) else {
                    // A peer that stops speaking the protocol gets dropped;
                    // answering garbage risks mis-pairing replies.
                    tcounter!("net.rpc_server_bad_frames").inc();
                    return;
                };
                let response = host.handle(&request);
                if send_frame(&mut stream, &encode_response(id, &response), MAX_FRAME_LEN).is_err()
                {
                    return;
                }
            }
            Ok(FrameRead::TimedOut) => {} // poll tick: re-check shutdown
            Ok(FrameRead::Closed) | Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recharge_dynamo::SimRackAgent;
    use recharge_units::{Amperes, Priority, Seconds, Watts};

    fn host(n: u32, lease: u64) -> AgentHost<SimRackAgent> {
        let agents = (0..n)
            .map(|i| SimRackAgent::builder(RackId::new(i), Priority::ALL[(i % 3) as usize]).build())
            .collect();
        AgentHost::new(agents, lease, FaultClock::new())
    }

    /// Advances the host's clock the way a backend does after a step.
    fn advance(host: &AgentHost<SimRackAgent>, ticks: u64) {
        host.clock().advance(ticks);
        host.sweep_leases();
    }

    fn batch(commands: Vec<AgentCommand>) -> Request {
        Request::ApplyCommandBatch(commands)
    }

    #[test]
    fn racks_start_standalone_and_join_on_contact() {
        let host = host(2, 10);
        // Discovery is not controller contact.
        host.handle(&Request::ListRacks);
        assert!(!host.is_coordinated(RackId::new(0)));
        host.handle(&batch(vec![AgentCommand::UncapServers(RackId::new(0))]));
        assert!(host.is_coordinated(RackId::new(0)));
        assert!(!host.is_coordinated(RackId::new(1)));
    }

    #[test]
    fn lease_expiry_falls_back_and_clears_overrides() {
        let host = host(1, 5);
        let rack = RackId::new(0);
        host.handle(&batch(vec![
            AgentCommand::SetChargeOverride(rack, Amperes::MIN_CHARGE),
            AgentCommand::SetChargePostponed(rack, true),
        ]));
        assert!(host.is_coordinated(rack));
        host.with_agents(|agents| {
            assert!(agents[0].battery().is_postponed());
        });

        // Within the lease: still coordinated, override intact.
        advance(&host, 5);
        assert!(host.is_coordinated(rack));

        // One past the lease: standalone, override cleared, charging resumed.
        advance(&host, 1);
        assert!(!host.is_coordinated(rack));
        host.with_agents(|agents| {
            assert!(!agents[0].battery().is_postponed());
            assert!(agents[0]
                .battery()
                .bbu()
                .charger()
                .override_current()
                .is_none());
        });
    }

    #[test]
    fn contact_renews_the_lease() {
        let host = host(1, 5);
        let rack = RackId::new(0);
        host.handle(&Request::ReadAllReadings);
        for _ in 0..10 {
            advance(&host, 3);
            host.handle(&Request::ReadAllReadings);
        }
        assert!(host.is_coordinated(rack), "renewed lease must not expire");
    }

    #[test]
    fn caps_survive_fallback() {
        let host = host(1, 2);
        let rack = RackId::new(0);
        host.handle(&batch(vec![AgentCommand::CapServers(
            rack,
            Watts::from_kilowatts(4.0),
        )]));
        advance(&host, 3); // lease expires
        assert!(!host.is_coordinated(rack));
        let reading = &host.readings()[0];
        assert!(
            reading.capped_power > Watts::ZERO,
            "caps must survive standalone fallback"
        );
    }

    #[test]
    fn unknown_rack_reads_none_and_acks_commands() {
        let host = host(1, 5);
        let ghost = RackId::new(99);
        let Response::Readings(readings) = host.handle(&Request::ReadAllReadings) else {
            panic!("expected readings");
        };
        assert!(readings.iter().all(|r| r.rack != ghost));
        // The batch is acknowledged, but nothing landed and nobody joined.
        assert_eq!(
            host.handle(&batch(vec![AgentCommand::ClearChargeOverride(ghost)])),
            Response::BatchAck(0)
        );
        assert!(!host.is_coordinated(ghost));
    }

    #[test]
    fn server_round_trips_over_loopback() {
        let host = Arc::new(host(3, DEFAULT_LEASE_TICKS));
        let server = AgentServer::serve(Arc::clone(&host), &Endpoint::loopback()).expect("serve");
        let mut stream =
            NetStream::connect(server.endpoint(), Duration::from_secs(1)).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .expect("timeout");
        let mut buffer = FrameBuffer::new();

        let mut call = |id: u64, request: &Request| -> Response {
            send_frame(
                &mut stream,
                &crate::wire::encode_request(id, request),
                MAX_FRAME_LEN,
            )
            .expect("send");
            let deadline = Some(std::time::Instant::now() + Duration::from_secs(5));
            loop {
                match recv_frame(&mut stream, &mut buffer, deadline, MAX_FRAME_LEN).expect("recv") {
                    FrameRead::Frame(payload) => {
                        let (got_id, response) =
                            crate::wire::decode_response(&payload).expect("decode");
                        assert_eq!(got_id, id);
                        return response;
                    }
                    FrameRead::TimedOut => continue,
                    FrameRead::Closed => panic!("server closed connection"),
                }
            }
        };

        let Response::Racks(racks) = call(1, &Request::ListRacks) else {
            panic!("expected racks");
        };
        assert_eq!(racks, vec![RackId::new(0), RackId::new(1), RackId::new(2)]);
        let Response::Readings(readings) = call(2, &Request::ReadAllReadings) else {
            panic!("expected readings");
        };
        assert_eq!(readings[1].rack, RackId::new(1));
        assert_eq!(
            call(
                3,
                &batch(vec![AgentCommand::SetChargeOverride(
                    RackId::new(0),
                    Amperes::MAX_CHARGE
                )])
            ),
            Response::BatchAck(1)
        );
        // The command took effect on the hosted agent.
        host.with_agents(|agents| {
            assert_eq!(
                agents[0].battery().bbu().charger().override_current(),
                Some(Amperes::MAX_CHARGE)
            );
        });
        drop(server);
    }

    #[test]
    fn batched_ops_mirror_per_rack_semantics() {
        let host = host(3, 5);
        // A batched read returns every hosted rack in fleet order and joins
        // all of them.
        let Response::Readings(readings) = host.handle(&Request::ReadAllReadings) else {
            panic!("expected readings");
        };
        assert_eq!(readings.len(), 3);
        for (i, reading) in readings.iter().enumerate() {
            assert_eq!(reading.rack, RackId::new(i as u32));
            assert!(host.is_coordinated(reading.rack));
        }

        // A batch applies each hosted command and counts only those; the
        // ghost rack is skipped without disturbing anything.
        let response = host.handle(&batch(vec![
            AgentCommand::SetChargeOverride(RackId::new(0), Amperes::MAX_CHARGE),
            AgentCommand::CapServers(RackId::new(1), Watts::from_kilowatts(4.0)),
            AgentCommand::SetChargeOverride(RackId::new(99), Amperes::MAX_CHARGE),
        ]));
        assert_eq!(response, Response::BatchAck(2));
        host.with_agents(|agents| {
            assert_eq!(
                agents[0].battery().bbu().charger().override_current(),
                Some(Amperes::MAX_CHARGE)
            );
        });
        assert!(host.readings()[1].capped_power > Watts::ZERO);

        // Repeated batched reads keep every lease alive.
        for _ in 0..10 {
            advance(&host, 3);
            host.handle(&Request::ReadAllReadings);
        }
        for i in 0..3 {
            assert!(host.is_coordinated(RackId::new(i)));
        }
    }

    #[test]
    fn read_health_reports_without_renewing_leases() {
        let host = host(3, 5).with_shard(7);
        let Response::Health(health) = host.handle(&Request::ReadHealth) else {
            panic!("expected health");
        };
        assert_eq!(health.shard, 7);
        assert_eq!(health.racks, 3);
        assert_eq!(health.coordinated, 0);
        // Scraping health is not controller contact: nobody joined.
        assert!(!host.is_coordinated(RackId::new(0)));

        host.handle(&batch(vec![AgentCommand::UncapServers(RackId::new(0))]));
        let Response::Health(health) = host.handle(&Request::ReadHealth) else {
            panic!("expected health");
        };
        assert_eq!(health.coordinated, 1);
    }

    /// Every field of each reading as bits.
    fn bits(readings: &[PowerReading]) -> Vec<[u64; 9]> {
        readings
            .iter()
            .map(|r| {
                [
                    u64::from(r.rack.index()),
                    u64::from(r.priority.rank()),
                    u64::from(r.input_power_present),
                    r.it_load.as_watts().to_bits(),
                    r.recharge_power.as_watts().to_bits(),
                    r.bbu_state as u64,
                    r.event_dod.value().to_bits(),
                    r.dod.value().to_bits(),
                    r.capped_power.as_watts().to_bits(),
                ]
            })
            .collect()
    }

    /// The agents' readings walked fresh, without touching the cache.
    fn fresh(host: &AgentHost<SimRackAgent>) -> Vec<PowerReading> {
        host.lock().agents.iter().map(RackAgent::read).collect()
    }

    /// The host's reading cache is never stale: a seeded loop interleaves
    /// stepping, command batches of every kind, lease fallbacks, health
    /// scrapes and both read paths, and every served row has the bits of a
    /// fresh walk of the agents.
    #[test]
    fn cached_readings_are_never_stale() {
        const RACKS: u32 = 6;
        let host = host(RACKS, 4);
        let mut rng = 0x5eed_u64;
        let mut draw = |n: u64| rand::splitmix64(&mut rng) % n;
        let mut power = true;
        let (mut served, mut fallbacks) = (0, 0);
        for round in 0..3_000 {
            match draw(7) {
                0 => {
                    // One sub-step; outages are rare and short.
                    power = if power { draw(40) != 0 } else { draw(3) == 0 };
                    let load = Watts::from_kilowatts(4.0 + draw(40) as f64 * 0.1);
                    host.with_agents(|agents| {
                        for agent in agents.iter_mut() {
                            agent.set_offered_load(load);
                            agent.set_input_power(power);
                            agent.step(Seconds::new(5.0));
                        }
                    });
                }
                1 | 2 => {
                    let rack = RackId::new(draw(u64::from(RACKS) + 1) as u32);
                    let command = match draw(5) {
                        0 => AgentCommand::SetChargeOverride(rack, Amperes::new(draw(6) as f64)),
                        1 => AgentCommand::ClearChargeOverride(rack),
                        2 => AgentCommand::SetChargePostponed(rack, draw(2) == 0),
                        3 => AgentCommand::CapServers(
                            rack,
                            Watts::from_kilowatts(2.0 + draw(50) as f64 * 0.1),
                        ),
                        _ => AgentCommand::UncapServers(rack),
                    };
                    let _ = host.readings(); // fill the cache before the batch
                    host.handle(&batch(vec![command]));
                    if let AgentCommand::CapServers(_, limit) = command {
                        if let Some(i) = (rack.index() < RACKS).then_some(rack.index() as usize) {
                            // A cap moves `it_load` at once, with no step between.
                            let offered = host.lock().agents[i].offered_load();
                            assert_eq!(host.readings()[i].it_load, offered.min(limit));
                        }
                    }
                }
                3 => {
                    let coordinated = |host: &AgentHost<SimRackAgent>| {
                        (0..RACKS)
                            .filter(|&i| host.is_coordinated(RackId::new(i)))
                            .count()
                    };
                    let before = coordinated(&host);
                    advance(&host, draw(7));
                    fallbacks += before - coordinated(&host);
                }
                4 => {
                    host.handle(&Request::ReadHealth);
                }
                5 => {
                    assert_eq!(bits(&host.readings()), bits(&fresh(&host)), "round {round}");
                    served += 1;
                }
                _ => {
                    let Response::Readings(readings) = host.handle(&Request::ReadAllReadings)
                    else {
                        panic!("expected readings");
                    };
                    assert_eq!(bits(&readings), bits(&fresh(&host)), "round {round}");
                    served += 1;
                }
            }
        }
        assert!(served > 500, "{served} reads");
        assert!(fallbacks > 0, "no lease fell back");
    }

    /// A rack whose reading shows its charge override at once, where a
    /// `SimRackAgent` shows it only after its next step.
    struct Eager(SimRackAgent);

    impl RackAgent for Eager {
        fn rack(&self) -> RackId {
            self.0.rack()
        }

        fn read(&self) -> PowerReading {
            let current = self.0.battery().bbu().charger().override_current();
            PowerReading {
                recharge_power: Watts::new(current.map_or(0.0, Amperes::as_amps)),
                ..self.0.read()
            }
        }

        fn set_charge_override(&mut self, current: Amperes) {
            self.0.set_charge_override(current);
        }

        fn clear_charge_override(&mut self) {
            self.0.clear_charge_override();
        }

        fn set_charge_postponed(&mut self, postponed: bool) {
            self.0.set_charge_postponed(postponed);
        }

        fn cap_servers(&mut self, limit: Watts) {
            self.0.cap_servers(limit);
        }

        fn uncap_servers(&mut self) {
            self.0.uncap_servers();
        }
    }

    /// A lease fallback clears the override under the host lock; the next
    /// read must not serve the rows cached before it.
    #[test]
    fn lease_fallback_refreshes_cached_readings() {
        let rack = RackId::new(0);
        let agent = Eager(SimRackAgent::builder(rack, Priority::P1).build());
        let host = AgentHost::new(vec![agent], 2, FaultClock::new());
        host.handle(&batch(vec![AgentCommand::SetChargeOverride(
            rack,
            Amperes::MAX_CHARGE,
        )]));
        let commanded = Watts::new(Amperes::MAX_CHARGE.as_amps());
        assert_eq!(host.readings()[0].recharge_power, commanded);
        host.clock().advance(3);
        host.sweep_leases();
        assert!(!host.is_coordinated(rack));
        assert_eq!(host.readings()[0].recharge_power, Watts::ZERO);
    }

    #[test]
    fn stepping_and_serving_share_state() {
        let host = Arc::new(host(1, DEFAULT_LEASE_TICKS));
        // Ride through an outage, then read over the host surface.
        host.with_agents(|agents| {
            agents[0].set_input_power(false);
            agents[0].step(Seconds::new(60.0));
            agents[0].set_input_power(true);
            agents[0].step(Seconds::new(1.0));
        });
        let Response::Readings(readings) = host.handle(&Request::ReadAllReadings) else {
            panic!("expected readings");
        };
        assert!(readings[0].is_charging());
        assert_eq!(host.readings(), readings);
    }
}
