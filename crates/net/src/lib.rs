//! `recharge-net`: the RPC mesh between Dynamo controllers and rack agents.
//!
//! The paper's controllers coordinate rack-level battery charging over a
//! production RPC mesh (§IV-B/C); the simulator historically stood that in
//! with a function call ([`InMemoryBus`](recharge_dynamo::InMemoryBus)).
//! This crate provides the real thing, std-only (no async runtime — plain
//! `std::net` sockets and threads, honouring the workspace's vendored-deps
//! constraint):
//!
//! - [`wire`] — a length-prefixed framed binary protocol for the
//!   `messages.rs` types, `f64`-bit-exact so remote readings equal local
//!   ones. Every rack-facing op is batched per server.
//! - [`endpoint`] — TCP and Unix-domain transports behind one façade, with
//!   short-read- and timeout-safe frame I/O.
//! - [`server`] — [`AgentHost`]/[`AgentServer`]: racks behind a listener,
//!   with the lease-based degraded-mode state machine (coordinated →
//!   standalone → rejoin) from the paper's §III-B standalone variable
//!   charger.
//! - [`client`] — [`RpcBus`]: one shard's client with per-call deadlines,
//!   bounded retry (exponential backoff + seeded jitter), and transparent
//!   reconnect. An exhausted budget makes the whole shard read as
//!   unreachable, the signal the controller already handles.
//! - [`fault`] — deterministic seeded link faults (drop / delay / duplicate /
//!   partition schedules in simulation ticks) for reproducible chaos runs.
//! - [`backend`] — [`RpcMeshConfig`], the per-scenario mesh selector, and
//!   [`spawn_mesh`], which builds the backend it describes.
//! - [`sharded`] — [`ShardedRpcFleetBackend`], the one mesh backend: a
//!   [`FleetBackend`](recharge_dynamo::FleetBackend) whose controller bus
//!   crosses real sockets. The fleet is partitioned into one server per
//!   shard ([`ShardPlan`]; one shard by default), reads and commands travel
//!   as batched wire ops (`ReadAllReadings` / `ApplyCommandBatch`:
//!   O(servers) RPCs per control tick), and per-shard client threads run
//!   concurrently. Control stays with the caller: one controller, or a
//!   `HierarchicalControl` tree of per-RPP leaves and SB/MSB monitors, drives
//!   the mesh's bus as it would an in-memory one.
//!
//! Telemetry: every RPC path records `net.rpc_*` counters (calls, retries,
//! timeouts, reconnects, stale replies, lost commands), `net.rpc_call` /
//! `net.rpc_serve` spans, and call-latency histograms — the aggregate
//! `net.rpc_latency_us` plus a zero-padded per-shard series
//! (`net.rpc_latency_us.shardNNN`).
//! Fallback and rejoin transitions count into `net.standalone_fallbacks` /
//! `net.rejoins`, and the flight recorder journals lease grants/expiries
//! (with rack and tick), RPC retries, and partition edges. The live health
//! plane is [`Request::ReadHealth`]: each server answers with a
//! [`HealthReport`] (shard identity, hosted/coordinated rack counts, and the
//! full metrics registry in Prometheus text exposition).
//!
//! The headline correctness property, pinned by
//! `crates/sim/tests/backend_equivalence.rs`: with a clean link, a full
//! simulation over [`ShardedRpcFleetBackend`] at 1, 2 or 4 shards produces
//! **bit-identical** `RunMetrics` to the in-memory backends.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod client;
pub mod endpoint;
pub mod fault;
pub mod server;
pub mod sharded;
pub mod wire;

pub use backend::{spawn_mesh, RpcMeshConfig, RpcTransport, ShardPlan};
pub use client::{RetryPolicy, RpcBus, RpcBusConfig};
pub use endpoint::{Endpoint, NetListener, NetStream};
pub use fault::{FaultClock, FaultPlan, Partition, PartitionScope};
pub use server::{AgentHost, AgentServer, DEFAULT_LEASE_TICKS};
pub use sharded::{ShardedRpcBus, ShardedRpcFleetBackend};
pub use wire::{AgentCommand, HealthReport, Request, Response, WireError, PROTOCOL_VERSION};
