//! The controller side of the mesh: [`RpcBus`], one shard's client over a
//! framed socket connection.
//!
//! Every call carries a per-call deadline, a bounded retry budget with
//! exponential backoff and deterministic jitter, and reconnects lazily when
//! the connection is lost. A call that exhausts its budget degrades exactly
//! the way the controller already tolerates: a batched read returns `None`
//! (every rack on the shard looks unreachable, as with
//! [`InMemoryBus::disconnect`]) and a lost command batch is dropped — the
//! agent's own lease machinery (see [`server`](crate::server)) guarantees a
//! rack that stops hearing commands falls back to safe standalone behaviour.
//!
//! The rack list is discovered once at connect time and cached: a bus whose
//! link later degrades still *scopes* the same racks (matching
//! [`InMemoryBus`] semantics, where disconnected racks stay listed but stop
//! answering reads), so the controller keeps trying them and notices the
//! heal.
//!
//! Fault injection (`LinkFaults`) wraps the call path: injected drops
//! consume a retry attempt as a synthetic timeout (without holding the
//! caller for the full wall-clock deadline — see [`fault`](crate::fault)),
//! injected delays are real sleeps, and partitions fail calls fast.
//!
//! [`InMemoryBus`]: recharge_dynamo::InMemoryBus
//! [`InMemoryBus::disconnect`]: recharge_dynamo::InMemoryBus::disconnect

use std::io;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::splitmix64;
use recharge_dynamo::PowerReading;
use recharge_telemetry::{
    flight, histogram, histogram_named, tcounter, tspan, FlightKind, Histogram, ReasonCode,
    NO_BUCKET, NO_RACK,
};
use recharge_units::{RackId, SimTime, Watts};

use crate::endpoint::{recv_frame, send_frame, Endpoint, FrameBuffer, FrameRead, NetStream};
use crate::fault::{FaultClock, FaultPlan, LinkFaults};
use crate::wire::{
    decode_response, encode_request, AgentCommand, GroupAggregate, Request, Response, MAX_FRAME_LEN,
};

/// Bucket upper bounds (microseconds) for the RPC latency histograms — a
/// roughly-logarithmic ladder from sub-frame loopback calls to calls that
/// burned most of a 500 ms deadline on retries.
const LATENCY_BOUNDS_US: [f64; 11] = [
    50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0, 50_000.0, 100_000.0,
];

/// Bounded-retry parameters: exponential backoff with deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per call (first try included); at least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Ceiling on a single backoff sleep.
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: each sleep is scaled by a seeded uniform
    /// factor in `[1 - jitter, 1 + jitter]` to de-synchronise retry storms.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `retry` (1-based), jittered by a
    /// uniform draw `u` in `[0, 1)`.
    fn backoff(&self, retry: u32, u: f64) -> Duration {
        let doubled = self
            .base_backoff
            .saturating_mul(1u32 << (retry - 1).min(16))
            .min(self.max_backoff);
        let factor = 1.0 - self.jitter + 2.0 * self.jitter * u;
        doubled.mul_f64(factor.max(0.0))
    }
}

/// Connection and call parameters for an [`RpcBus`].
#[derive(Debug, Clone, PartialEq)]
pub struct RpcBusConfig {
    /// Per-attempt response deadline.
    pub deadline: Duration,
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Retry budget and backoff shape.
    pub retry: RetryPolicy,
    /// Seed for backoff jitter (distinct from the fault-plan seed).
    pub seed: u64,
    /// Link faults to inject; `None` for a clean link.
    pub fault: Option<FaultPlan>,
    /// Frame cap this side enforces on both sent and received frames.
    pub max_frame_len: u32,
    /// Shard index this bus serves within the mesh; labels the per-shard
    /// RPC latency histogram (`net.rpc_latency_us.shardNNN`) next to the
    /// aggregate series.
    pub shard_label: u32,
}

impl Default for RpcBusConfig {
    fn default() -> Self {
        RpcBusConfig {
            deadline: Duration::from_millis(500),
            connect_timeout: Duration::from_secs(2),
            retry: RetryPolicy::default(),
            seed: 0x0b5e_55ed,
            fault: None,
            max_frame_len: MAX_FRAME_LEN,
            shard_label: 0,
        }
    }
}

struct ClientInner {
    conn: Option<(NetStream, FrameBuffer)>,
    faults: LinkFaults,
    jitter_rng: u64,
    next_id: u64,
    ever_connected: bool,
    /// Last partition state this bus observed; flipping it journals a
    /// partition edge into the flight recorder.
    was_partitioned: bool,
}

/// One shard's client: batched reads and commands, leaf ticks and health,
/// spoken over the framed wire protocol to an [`AgentServer`](crate::server::AgentServer).
///
/// Interior mutability (one mutex around the connection) keeps every call
/// `&self`; each shard's bus is owned by one client thread, so the lock is
/// uncontended in practice.
pub struct RpcBus {
    endpoint: Endpoint,
    config: RpcBusConfig,
    racks: Vec<RackId>,
    inner: Mutex<ClientInner>,
    /// Aggregate call-latency histogram (`net.rpc_latency_us`).
    latency: Histogram,
    /// This shard's call-latency histogram.
    shard_latency: Histogram,
}

impl RpcBus {
    /// Connects to `endpoint` and discovers the hosted racks.
    ///
    /// Discovery uses the same deadline/retry budget as any call; if the
    /// server is unreachable the constructor fails rather than returning a
    /// bus that scopes zero racks.
    pub fn connect(
        endpoint: &Endpoint,
        config: RpcBusConfig,
        clock: FaultClock,
    ) -> io::Result<Self> {
        let faults = LinkFaults::new(config.fault.clone().unwrap_or_default(), clock);
        // Zero-padded shard labels keep the sorted snapshot order numeric.
        let shard_latency = histogram_named(
            format!("net.rpc_latency_us.shard{:03}", config.shard_label),
            &LATENCY_BOUNDS_US,
        );
        let mut bus = RpcBus {
            endpoint: endpoint.clone(),
            racks: Vec::new(),
            inner: Mutex::new(ClientInner {
                conn: None,
                faults,
                jitter_rng: config.seed ^ 0xa5a5_a5a5_a5a5_a5a5,
                next_id: 1,
                ever_connected: false,
                was_partitioned: false,
            }),
            config,
            latency: histogram("net.rpc_latency_us", &LATENCY_BOUNDS_US),
            shard_latency,
        };
        match bus.call(&Request::ListRacks) {
            Some(Response::Racks(racks)) => {
                bus.racks = racks;
                Ok(bus)
            }
            _ => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "rack discovery failed against {endpoint}",
                    endpoint = bus.endpoint
                ),
            )),
        }
    }

    /// The endpoint this bus talks to.
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The racks discovered at connect time, in the server's fleet order.
    #[must_use]
    pub fn racks(&self) -> &[RackId] {
        &self.racks
    }

    /// Issues one request with the full deadline/retry budget.
    ///
    /// `None` means the budget was exhausted: the caller sees the same
    /// signal an unreachable in-memory rack produces.
    fn call(&self, request: &Request) -> Option<Response> {
        let _span = tspan!("net.rpc_call", "net");
        tcounter!("net.rpc_calls").inc();
        // Clock reads cost more than the disabled-path check, so only time
        // the call when the latency histograms can actually consume it.
        let started = recharge_telemetry::enabled().then(Instant::now);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let inner = &mut *inner;
        let shard = u64::from(self.config.shard_label);

        for attempt in 1..=self.config.retry.max_attempts.max(1) {
            if attempt > 1 {
                tcounter!("net.rpc_retries").inc();
                flight(
                    FlightKind::RpcRetry,
                    ReasonCode::RpcDeadline,
                    NO_RACK,
                    0,
                    NO_BUCKET,
                    u64::from(attempt),
                    shard,
                );
                let u = uniform(&mut inner.jitter_rng);
                std::thread::sleep(self.config.retry.backoff(attempt - 1, u));
            }

            // An active partition fails the call fast: partitions persist for
            // whole simulation ticks, so burning wall-clock deadlines against
            // one would only slow the run without changing the outcome.
            let partitioned = inner.faults.partitioned();
            if partitioned != inner.was_partitioned {
                inner.was_partitioned = partitioned;
                flight(
                    FlightKind::PartitionEdge,
                    ReasonCode::RpcPartitioned,
                    NO_RACK,
                    0,
                    NO_BUCKET,
                    u64::from(partitioned),
                    shard,
                );
            }
            if partitioned {
                tcounter!("net.rpc_timeouts").inc();
                break;
            }

            let decision = inner.faults.decide();
            if !decision.delay.is_zero() {
                std::thread::sleep(decision.delay);
            }

            // Ensure a connection.
            if inner.conn.is_none() {
                match NetStream::connect(&self.endpoint, self.config.connect_timeout) {
                    Ok(stream) => {
                        if stream
                            .set_read_timeout(Some(Duration::from_millis(5)))
                            .is_err()
                        {
                            continue;
                        }
                        if inner.ever_connected {
                            tcounter!("net.rpc_reconnects").inc();
                        }
                        inner.ever_connected = true;
                        inner.conn = Some((stream, FrameBuffer::new()));
                    }
                    Err(_) => {
                        tcounter!("net.rpc_connect_failures").inc();
                        continue;
                    }
                }
            }

            let id = inner.next_id;
            inner.next_id += 1;
            let payload = encode_request(id, request);

            if decision.drop_request {
                // The frame never reaches the wire; the attempt times out
                // synthetically (no wall-clock wait — see module docs).
                tcounter!("net.rpc_timeouts").inc();
                continue;
            }

            let (stream, buffer) = inner.conn.as_mut().expect("connection ensured above");
            let mut send = send_frame(stream, &payload, self.config.max_frame_len);
            if send.is_ok() && decision.duplicate {
                send = send_frame(stream, &payload, self.config.max_frame_len);
            }
            if send.is_err() {
                inner.conn = None;
                tcounter!("net.rpc_send_failures").inc();
                continue;
            }

            if decision.drop_response {
                // The server received and executed the request, but the reply
                // is lost. It stays buffered in the stream; the id check
                // below discards it as stale on the next attempt.
                tcounter!("net.rpc_timeouts").inc();
                continue;
            }

            // Await the matching reply within the per-attempt deadline.
            let deadline = Instant::now() + self.config.deadline;
            let mut drop_conn = false;
            let reply = loop {
                match recv_frame(stream, buffer, Some(deadline), self.config.max_frame_len) {
                    Ok(FrameRead::Frame(frame)) => match decode_response(&frame) {
                        Ok((got_id, response)) if got_id == id => break Some(response),
                        Ok(_) => {
                            // A reply to an earlier (timed-out or duplicated)
                            // request; discard and keep waiting.
                            tcounter!("net.rpc_stale_replies").inc();
                        }
                        Err(_) => {
                            tcounter!("net.rpc_bad_frames").inc();
                            drop_conn = true;
                            break None;
                        }
                    },
                    Ok(FrameRead::TimedOut) => {
                        tcounter!("net.rpc_timeouts").inc();
                        break None;
                    }
                    Ok(FrameRead::Closed) | Err(_) => {
                        tcounter!("net.rpc_disconnects").inc();
                        drop_conn = true;
                        break None;
                    }
                }
            };
            if drop_conn {
                inner.conn = None;
            }
            if let Some(response) = reply {
                self.record_latency(started);
                return Some(response);
            }
        }
        tcounter!("net.rpc_failures").inc();
        self.record_latency(started);
        None
    }

    /// Records one call's wall-clock latency (microseconds) into the
    /// aggregate and per-shard histograms.
    fn record_latency(&self, started: Option<Instant>) {
        if let Some(started) = started {
            let us = started.elapsed().as_secs_f64() * 1e6;
            self.latency.record(us);
            self.shard_latency.record(us);
        }
    }

    /// Reads every hosted rack in one round trip (fleet order); `None` when
    /// the retry budget is exhausted (the whole shard looks unreachable).
    #[must_use]
    pub fn read_all(&self) -> Option<Vec<PowerReading>> {
        match self.call(&Request::ReadAllReadings) {
            Some(Response::Readings(readings)) => Some(readings),
            _ => None,
        }
    }

    /// Applies a command batch in one round trip, returning how many commands
    /// landed; `None` when the batch was lost (counted as a lost command).
    pub fn apply_batch(&self, commands: Vec<AgentCommand>) -> Option<u32> {
        match self.call(&Request::ApplyCommandBatch(commands)) {
            Some(Response::BatchAck(applied)) => Some(applied),
            _ => {
                tcounter!("net.rpc_lost_commands").inc();
                None
            }
        }
    }

    /// Runs the server-hosted leaf control tick, returning the group
    /// aggregate; `None` when the shard is unreachable.
    #[must_use]
    pub fn tick_leaf(&self, now: SimTime, budget: Option<Watts>) -> Option<GroupAggregate> {
        match self.call(&Request::TickLeaf { now, budget }) {
            Some(Response::GroupAggregate(aggregate)) => Some(aggregate),
            _ => None,
        }
    }
}

fn uniform(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Partition;
    use crate::server::{AgentHost, AgentServer, DEFAULT_LEASE_TICKS};
    use recharge_dynamo::SimRackAgent;
    use recharge_units::{Amperes, Priority};
    use std::sync::Arc;

    fn spawn_server(
        n: u32,
        clock: &FaultClock,
    ) -> (AgentServer<SimRackAgent>, Arc<AgentHost<SimRackAgent>>) {
        let agents = (0..n)
            .map(|i| SimRackAgent::builder(RackId::new(i), Priority::ALL[(i % 3) as usize]).build())
            .collect();
        let host = Arc::new(AgentHost::new(agents, DEFAULT_LEASE_TICKS, clock.clone()));
        let server = AgentServer::serve(Arc::clone(&host), &Endpoint::loopback()).expect("serve");
        (server, host)
    }

    fn override_of(host: &AgentHost<SimRackAgent>, i: usize) -> Option<Amperes> {
        host.with_agents(|agents| agents[i].battery().bbu().charger().override_current())
    }

    #[test]
    fn bus_discovers_reads_and_commands() {
        let clock = FaultClock::new();
        let (server, host) = spawn_server(3, &clock);
        let bus =
            RpcBus::connect(server.endpoint(), RpcBusConfig::default(), clock).expect("connect");
        assert_eq!(
            bus.racks(),
            [RackId::new(0), RackId::new(1), RackId::new(2)]
        );
        let readings = bus.read_all().expect("read_all");
        assert_eq!(readings[2].rack, RackId::new(2));

        let set = vec![AgentCommand::SetChargeOverride(
            RackId::new(1),
            Amperes::MIN_CHARGE,
        )];
        assert_eq!(bus.apply_batch(set), Some(1));
        assert_eq!(override_of(&host, 1), Some(Amperes::MIN_CHARGE));
        let clear = vec![AgentCommand::ClearChargeOverride(RackId::new(1))];
        assert_eq!(bus.apply_batch(clear), Some(1));
        assert_eq!(override_of(&host, 1), None);
    }

    #[test]
    fn batched_calls_round_trip() {
        let clock = FaultClock::new();
        let (server, host) = spawn_server(3, &clock);
        let bus =
            RpcBus::connect(server.endpoint(), RpcBusConfig::default(), clock).expect("connect");

        let readings = bus.read_all().expect("read_all");
        assert_eq!(readings.len(), 3);
        for (i, reading) in readings.iter().enumerate() {
            assert_eq!(reading.rack, RackId::new(i as u32));
        }
        // Remote readings are bit-identical to the host's local view.
        assert_eq!(readings, host.readings());

        let applied = bus
            .apply_batch(vec![
                AgentCommand::SetChargeOverride(RackId::new(0), Amperes::MAX_CHARGE),
                AgentCommand::SetChargeOverride(RackId::new(2), Amperes::MIN_CHARGE),
                AgentCommand::ClearChargeOverride(RackId::new(42)),
            ])
            .expect("apply_batch");
        assert_eq!(applied, 2);
        assert_eq!(override_of(&host, 0), Some(Amperes::MAX_CHARGE));
        assert_eq!(override_of(&host, 2), Some(Amperes::MIN_CHARGE));

        // No leaf installed: the tick reports a monitoring aggregate.
        let aggregate = bus
            .tick_leaf(SimTime::from_secs(0.0), None)
            .expect("tick_leaf");
        assert_eq!(aggregate.overrides_sent, 0);
        let expected: Watts = readings
            .iter()
            .filter(|r| r.input_power_present)
            .map(|r| r.it_load)
            .sum();
        assert_eq!(aggregate.it_load, expected);
    }

    #[test]
    fn oversize_batch_reply_is_survivable() {
        // A tiny receive cap on the client: the server's ListRacks reply fits,
        // but a batched readings frame does not — the call fails cleanly (the
        // shard looks unreachable) instead of wedging the stream.
        let clock = FaultClock::new();
        let (server, _host) = spawn_server(3, &clock);
        let config = RpcBusConfig {
            max_frame_len: 64,
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_millis(1),
                jitter: 0.0,
            },
            ..RpcBusConfig::default()
        };
        let bus = RpcBus::connect(server.endpoint(), config, clock).expect("connect");
        assert_eq!(bus.racks().len(), 3);
        // 3 readings × 47 bytes ≫ 64: the reply trips the typed cap.
        assert!(bus.read_all().is_none());
        // The bus reconnects and keeps working for frames under the cap.
        assert_eq!(bus.apply_batch(Vec::new()), Some(0));
    }

    #[test]
    fn connect_fails_without_a_server() {
        let config = RpcBusConfig {
            deadline: Duration::from_millis(20),
            connect_timeout: Duration::from_millis(50),
            retry: RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            },
            ..RpcBusConfig::default()
        };
        // A listener that was dropped: the port is closed.
        let endpoint = {
            let listener = crate::endpoint::NetListener::bind(&Endpoint::loopback()).expect("bind");
            listener.local_endpoint().expect("endpoint")
        };
        assert!(RpcBus::connect(&endpoint, config, FaultClock::new()).is_err());
    }

    #[test]
    fn partition_makes_reads_fail_fast_and_heal() {
        let clock = FaultClock::new();
        let (server, _host) = spawn_server(1, &clock);
        let config = RpcBusConfig {
            fault: Some(FaultPlan::partitions_only(vec![Partition::all(5, 10)])),
            ..RpcBusConfig::default()
        };
        let bus = RpcBus::connect(server.endpoint(), config, clock.clone()).expect("connect");
        assert!(bus.read_all().is_some(), "before partition");
        clock.advance(5);
        let start = Instant::now();
        assert!(bus.read_all().is_none(), "during partition");
        assert!(
            start.elapsed() < Duration::from_millis(200),
            "partitioned calls must fail fast, took {:?}",
            start.elapsed()
        );
        // Scoping is unaffected: the cached rack list persists.
        assert_eq!(bus.racks(), [RackId::new(0)]);
        clock.advance(5);
        assert!(bus.read_all().is_some(), "after heal");
    }

    #[test]
    fn dropped_frames_are_retried_transparently() {
        let clock = FaultClock::new();
        let (server, _host) = spawn_server(1, &clock);
        // Heavy request-drop but a generous retry budget: calls still land.
        let config = RpcBusConfig {
            fault: Some(FaultPlan {
                seed: 11,
                drop_request: 0.4,
                duplicate: 0.2,
                ..FaultPlan::default()
            }),
            retry: RetryPolicy {
                max_attempts: 12,
                base_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_millis(2),
                jitter: 0.5,
            },
            ..RpcBusConfig::default()
        };
        let bus = RpcBus::connect(server.endpoint(), config, clock).expect("connect");
        for _ in 0..50 {
            assert!(bus.read_all().is_some());
        }
    }

    #[test]
    fn lost_responses_still_apply_commands() {
        let clock = FaultClock::new();
        let (server, host) = spawn_server(1, &clock);
        let config = RpcBusConfig {
            fault: Some(FaultPlan {
                seed: 3,
                drop_response: 0.5,
                ..FaultPlan::default()
            }),
            retry: RetryPolicy {
                max_attempts: 10,
                base_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_millis(2),
                jitter: 0.5,
            },
            ..RpcBusConfig::default()
        };
        let bus = RpcBus::connect(server.endpoint(), config, clock).expect("connect");
        for _ in 0..20 {
            bus.apply_batch(vec![AgentCommand::SetChargeOverride(
                RackId::new(0),
                Amperes::MAX_CHARGE,
            )]);
            assert!(bus.read_all().is_some());
        }
        assert_eq!(override_of(&host, 0), Some(Amperes::MAX_CHARGE));
    }

    #[test]
    fn reconnects_after_server_restart() {
        let clock = FaultClock::new();
        let (server, _host) = spawn_server(2, &clock);
        let endpoint = server.endpoint().clone();
        let config = RpcBusConfig {
            deadline: Duration::from_millis(100),
            connect_timeout: Duration::from_millis(100),
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(5),
                jitter: 0.0,
            },
            ..RpcBusConfig::default()
        };
        let bus = RpcBus::connect(&endpoint, config, clock.clone()).expect("connect");
        assert!(bus.read_all().is_some());
        drop(server);
        // The controller keeps polling; reads fail while the server is down.
        assert!(bus.read_all().is_none());

        // Restart on the same endpoint (loopback TCP port may be reused only
        // if we bind the exact address — do so explicitly).
        let agents = vec![
            SimRackAgent::builder(RackId::new(0), Priority::P1).build(),
            SimRackAgent::builder(RackId::new(1), Priority::P2).build(),
        ];
        let host = Arc::new(AgentHost::new(agents, DEFAULT_LEASE_TICKS, clock));
        let _server = AgentServer::serve(host, &endpoint).expect("rebind");
        // A few attempts may be needed while the listener comes up.
        let healed = (0..50).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            bus.read_all().is_some()
        });
        assert!(healed, "bus must reconnect after server restart");
    }

    #[test]
    fn read_health_round_trips_over_loopback() {
        let clock = FaultClock::new();
        let (server, _host) = spawn_server(2, &clock);
        let config = RpcBusConfig {
            shard_label: 5,
            ..RpcBusConfig::default()
        };
        let bus = RpcBus::connect(server.endpoint(), config, clock).expect("connect");
        let Some(Response::Health(health)) = bus.call(&Request::ReadHealth) else {
            panic!("health");
        };
        assert_eq!(health.shard, 0, "an untagged host reports shard 0");
        assert_eq!(health.racks, 2);
        // Neither discovery nor the health read is controller contact.
        assert_eq!(health.coordinated, 0);

        // A real read joins the racks; the next scrape sees them.
        assert!(bus.read_all().is_some());
        let Some(Response::Health(health)) = bus.call(&Request::ReadHealth) else {
            panic!("health");
        };
        assert_eq!(health.coordinated, 2);
    }

    #[test]
    fn backoff_shape_is_bounded_and_jittered() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
            jitter: 0.5,
        };
        // No jitter draw at the extremes: u=0.5 is the midpoint (factor 1).
        assert_eq!(policy.backoff(1, 0.5), Duration::from_millis(2));
        assert_eq!(policy.backoff(2, 0.5), Duration::from_millis(4));
        // Capped at max_backoff before jitter.
        assert_eq!(policy.backoff(7, 0.5), Duration::from_millis(20));
        // Jitter spans [0.5, 1.5]× around the nominal sleep.
        assert_eq!(policy.backoff(1, 0.0), Duration::from_millis(1));
        assert_eq!(policy.backoff(1, 1.0), Duration::from_millis(3));
    }
}
