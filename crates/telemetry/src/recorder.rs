//! The flight recorder: an always-on, bounded-overhead black box.
//!
//! Where the span tracer ([`crate::trace`]) answers "where did the time go"
//! and the registry answers "how many", the flight recorder answers *"why is
//! rack 41 throttled at t = 4120 s"*. It journals compact, fixed-size
//! [`FlightEvent`]s — breaker-margin crossings, per-priority SLA state
//! transitions, every Algorithm 1 admit/postpone/park/throttle/override
//! decision with its machine-readable [`ReasonCode`] and inputs (priority,
//! DOD bucket, headroom), lease grant/expiry/fallback/rejoin, RPC
//! retry/partition edges — into fixed-capacity per-thread rings.
//!
//! Design rules, in the same discipline as the rest of this crate:
//!
//! * **Bounded memory.** Each thread owns a ring of [`RING_CAPACITY`] events
//!   (40 bytes apiece); once full, the oldest event is overwritten and
//!   counted in [`overwritten_events`]. A runaway run keeps the most recent
//!   window — exactly what a post-mortem needs.
//! * **Bounded cost.** Recording is one relaxed atomic load when the
//!   recorder is off, and a thread-local push behind an uncontended mutex
//!   when on (`bench_report`'s `recorder_overhead` gate holds the
//!   steady-state cost under 2 % of a simulation tick). The recorder is
//!   **on by default** — it is the black box, not the profiler.
//! * **No feedback.** Nothing here reads back into simulation state;
//!   `backend_equivalence` pins `RunMetrics` bit-identical recorder on/off.
//! * **Exact floats.** Every `f64` input (currents, headroom, times) is
//!   stored and exported as its IEEE-754 bit pattern, so a dump re-parses to
//!   the same float the controller saw.
//! * **Deterministic merge.** [`take_flight_events`] drains every thread's
//!   ring and sorts by a key derived *only from event content* (logical
//!   time, kind, rack, reason, inputs) — never from thread ids or arrival
//!   order — so the merged timeline of a run with distinct events is
//!   identical across thread interleavings.
//!
//! Setting `RECHARGE_BLACKBOX=<path>` arms trigger-based dumps: the first
//! trigger (breaker trip, first SLA miss, or a panic if
//! [`install_panic_blackbox_hook`] was called) writes the merged timeline as
//! a JSON document to `<path>`; `recharge-ops explain` reconstructs it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};

use crate::json;

/// Events kept per thread before the ring wraps; 40 bytes per event bounds a
/// thread's journal at ~320 KiB.
pub const RING_CAPACITY: usize = 8192;

/// Environment variable naming the black-box dump path; when set, the first
/// trigger (breaker trip / first SLA miss / panic) writes the merged flight
/// timeline there as JSON.
pub const BLACKBOX_ENV_VAR: &str = "RECHARGE_BLACKBOX";

/// What happened: the event's kind. Discriminants are stable wire/JSON codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum FlightKind {
    /// Total draw crossed the breaker limit (margin edge, either direction).
    BreakerMargin = 0,
    /// The breaker latched open.
    BreakerTrip = 1,
    /// A rack's recharge finished and its Table II SLA verdict was decided.
    SlaOutcome = 2,
    /// Algorithm 1 granted a rack charge current.
    Admit = 3,
    /// A rack's charging was postponed (§III-D extension).
    Postpone = 4,
    /// A postponed rack was parked in the controller's resume queue.
    Park = 5,
    /// A parked rack was resumed.
    Resume = 6,
    /// A rack was throttled back to the floor current on overload.
    Throttle = 7,
    /// A charge-current override was sent to a rack agent.
    Override = 8,
    /// Server power was capped as the last resort.
    Cap = 9,
    /// A server power cap was lifted.
    Uncap = 10,
    /// A rack's coordination lease was granted (first contact or rejoin).
    LeaseGrant = 11,
    /// A rack's coordination lease expired; it fell back to standalone.
    LeaseExpire = 12,
    /// An RPC attempt was retried.
    RpcRetry = 13,
    /// A link partition opened or healed.
    PartitionEdge = 14,
    /// The event-driven backend fast-forwarded a quiescent rack: the rack
    /// woke after skipping provably no-op sub-steps. `v0` is the number of
    /// sub-steps skipped, `v1` the sub-step index at which it woke (both
    /// integers, not `f64` bits).
    FastForward = 15,
    /// An HA controller won a leader election. `v0` is the winning
    /// controller id, `v1` the new term (both integers).
    LeaderElected = 16,
    /// The HA leader lost leadership (lease expiry, crash, or freeze).
    /// `v0` is the lost leader's id, `v1` the term it held (integers).
    LeaderLost = 17,
    /// The HA leader captured a brain snapshot for replication. `v0` is the
    /// leader's term, `v1` the snapshot size in bytes (integers).
    SnapshotTaken = 18,
    /// A standby restored a replicated brain snapshot. `v0` is the term the
    /// snapshot carries, `v1` its size in bytes (integers).
    SnapshotRestored = 19,
    /// A new leader finished its takeover tick after a failover. `v0` is the
    /// new leader's id, `v1` its term (integers).
    TakeoverComplete = 20,
    /// A thawed ex-leader was fenced: its term was superseded while it was
    /// frozen. `v0` is the stale term it led, `v1` the current term
    /// (integers).
    StaleLeaderFenced = 21,
}

impl FlightKind {
    /// Every kind, in discriminant order.
    pub const ALL: [FlightKind; 22] = [
        FlightKind::BreakerMargin,
        FlightKind::BreakerTrip,
        FlightKind::SlaOutcome,
        FlightKind::Admit,
        FlightKind::Postpone,
        FlightKind::Park,
        FlightKind::Resume,
        FlightKind::Throttle,
        FlightKind::Override,
        FlightKind::Cap,
        FlightKind::Uncap,
        FlightKind::LeaseGrant,
        FlightKind::LeaseExpire,
        FlightKind::RpcRetry,
        FlightKind::PartitionEdge,
        FlightKind::FastForward,
        FlightKind::LeaderElected,
        FlightKind::LeaderLost,
        FlightKind::SnapshotTaken,
        FlightKind::SnapshotRestored,
        FlightKind::TakeoverComplete,
        FlightKind::StaleLeaderFenced,
    ];

    /// Stable numeric code (the discriminant).
    #[must_use]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Stable snake_case name used in dumps and by `recharge-ops`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::BreakerMargin => "breaker_margin",
            FlightKind::BreakerTrip => "breaker_trip",
            FlightKind::SlaOutcome => "sla_outcome",
            FlightKind::Admit => "admit",
            FlightKind::Postpone => "postpone",
            FlightKind::Park => "park",
            FlightKind::Resume => "resume",
            FlightKind::Throttle => "throttle",
            FlightKind::Override => "override",
            FlightKind::Cap => "cap",
            FlightKind::Uncap => "uncap",
            FlightKind::LeaseGrant => "lease_grant",
            FlightKind::LeaseExpire => "lease_expire",
            FlightKind::RpcRetry => "rpc_retry",
            FlightKind::PartitionEdge => "partition_edge",
            FlightKind::FastForward => "fast_forward",
            FlightKind::LeaderElected => "leader_elected",
            FlightKind::LeaderLost => "leader_lost",
            FlightKind::SnapshotTaken => "snapshot_taken",
            FlightKind::SnapshotRestored => "snapshot_restored",
            FlightKind::TakeoverComplete => "takeover_complete",
            FlightKind::StaleLeaderFenced => "stale_leader_fenced",
        }
    }
}

/// Why it happened: the machine-readable reason carried by every decision.
///
/// The table (also in DESIGN.md §15) maps each code to the Algorithm 1 /
/// mesh rule that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum ReasonCode {
    /// No decision semantics (margin crossings, SLA outcomes, wire edges).
    Observed = 0,
    /// Admitted at the 1 A floor (Algorithm 1 line 1: everyone charges).
    AdmitFloor = 1,
    /// Upgraded to the Table II SLA current in (priority, DOD) order.
    AdmitUpgraded = 2,
    /// Upgrade stopped: the SLA current no longer fit the remaining budget.
    AdmitBudgetExhausted = 3,
    /// Demoted to the floor in reverse (priority, DOD) order on overload.
    ThrottleOverload = 4,
    /// Postponed because overload persisted at all-floor charging.
    PostponeDeficit = 5,
    /// Resumed from the parked queue under recovered headroom (hysteresis).
    ResumeHeadroom = 6,
    /// Servers capped as the last resort after throttling and postponing.
    CapLastResort = 7,
    /// Cap lifted: observed draw left enough headroom.
    UncapHeadroom = 8,
    /// Override sent because the commanded current changed by > 0.01 A.
    OverrideDelta = 9,
    /// Lease granted on a rack's first contact with its server.
    LeaseFirstContact = 10,
    /// Lease renewed after a lapse: the rack rejoined coordination.
    LeaseRejoin = 11,
    /// Lease lapsed: the rack fell back to §III-B standalone charging.
    LeaseLapsed = 12,
    /// The RPC deadline elapsed (includes injected drops).
    RpcDeadline = 13,
    /// The link was administratively partitioned by the fault plan.
    RpcPartitioned = 14,
    /// SLA verdict: recharge finished within the Table II budget.
    SlaMet = 15,
    /// SLA verdict: recharge exceeded the Table II budget.
    SlaMissed = 16,
    /// The HA leader's lease expired without renewal.
    HaLeaseExpired = 17,
    /// An HA standby won the election campaign (lowest seeded jitter draw).
    HaCampaignWon = 18,
    /// A brain snapshot was taken/replicated on the configured cadence.
    HaSnapshotCadence = 19,
    /// State restored or command issued as part of a failover takeover.
    HaTakeover = 20,
    /// A replica's led term is below the current term: fenced.
    HaStaleTerm = 21,
    /// The controller process was crashed (SIGKILL-style) by a process fault.
    HaCrashed = 22,
    /// The controller process was frozen (SIGSTOP-style) by a process fault.
    HaFrozen = 23,
}

impl ReasonCode {
    /// Every reason, in discriminant order.
    pub const ALL: [ReasonCode; 24] = [
        ReasonCode::Observed,
        ReasonCode::AdmitFloor,
        ReasonCode::AdmitUpgraded,
        ReasonCode::AdmitBudgetExhausted,
        ReasonCode::ThrottleOverload,
        ReasonCode::PostponeDeficit,
        ReasonCode::ResumeHeadroom,
        ReasonCode::CapLastResort,
        ReasonCode::UncapHeadroom,
        ReasonCode::OverrideDelta,
        ReasonCode::LeaseFirstContact,
        ReasonCode::LeaseRejoin,
        ReasonCode::LeaseLapsed,
        ReasonCode::RpcDeadline,
        ReasonCode::RpcPartitioned,
        ReasonCode::SlaMet,
        ReasonCode::SlaMissed,
        ReasonCode::HaLeaseExpired,
        ReasonCode::HaCampaignWon,
        ReasonCode::HaSnapshotCadence,
        ReasonCode::HaTakeover,
        ReasonCode::HaStaleTerm,
        ReasonCode::HaCrashed,
        ReasonCode::HaFrozen,
    ];

    /// Stable numeric code (the discriminant).
    #[must_use]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Stable snake_case name used in dumps and by `recharge-ops`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ReasonCode::Observed => "observed",
            ReasonCode::AdmitFloor => "admit_floor",
            ReasonCode::AdmitUpgraded => "admit_upgraded",
            ReasonCode::AdmitBudgetExhausted => "admit_budget_exhausted",
            ReasonCode::ThrottleOverload => "throttle_overload",
            ReasonCode::PostponeDeficit => "postpone_deficit",
            ReasonCode::ResumeHeadroom => "resume_headroom",
            ReasonCode::CapLastResort => "cap_last_resort",
            ReasonCode::UncapHeadroom => "uncap_headroom",
            ReasonCode::OverrideDelta => "override_delta",
            ReasonCode::LeaseFirstContact => "lease_first_contact",
            ReasonCode::LeaseRejoin => "lease_rejoin",
            ReasonCode::LeaseLapsed => "lease_lapsed",
            ReasonCode::RpcDeadline => "rpc_deadline",
            ReasonCode::RpcPartitioned => "rpc_partitioned",
            ReasonCode::SlaMet => "sla_met",
            ReasonCode::SlaMissed => "sla_missed",
            ReasonCode::HaLeaseExpired => "ha_lease_expired",
            ReasonCode::HaCampaignWon => "ha_campaign_won",
            ReasonCode::HaSnapshotCadence => "ha_snapshot_cadence",
            ReasonCode::HaTakeover => "ha_takeover",
            ReasonCode::HaStaleTerm => "ha_stale_term",
            ReasonCode::HaCrashed => "ha_crashed",
            ReasonCode::HaFrozen => "ha_frozen",
        }
    }
}

/// Sentinel for "no rack" in [`FlightEvent::rack`] (fleet-wide events).
pub const NO_RACK: u32 = u32::MAX;
/// Sentinel for "no DOD bucket" in [`FlightEvent::bucket`].
pub const NO_BUCKET: u16 = u16::MAX;

/// One journaled event: 40 bytes, `Copy`, every float as exact bits.
///
/// The two payload words `v0`/`v1` are kind-specific; by convention `v0`
/// carries the decision's primary quantity (granted current, cap limit,
/// elapsed recharge time…) and `v1` the budget it was decided against
/// (remaining headroom, SLA budget, breaker limit…), both as `f64` bits
/// unless the kind says otherwise (RPC kinds carry integer attempt counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Logical (simulation) time of the decision, seconds as `f64` bits.
    pub at_bits: u64,
    /// What happened.
    pub kind: FlightKind,
    /// Why (machine-readable; [`ReasonCode::Observed`] for pure telemetry).
    pub reason: ReasonCode,
    /// Priority rank 1–3 of the rack involved; 0 when not applicable.
    pub priority: u8,
    /// The rack's quantized DOD bucket (see `recharge_core::dod_bucket`);
    /// [`NO_BUCKET`] when not applicable.
    pub bucket: u16,
    /// The rack involved; [`NO_RACK`] for fleet-wide events.
    pub rack: u32,
    /// Kind-specific payload word (usually `f64` bits).
    pub v0: u64,
    /// Kind-specific payload word (usually `f64` bits).
    pub v1: u64,
}

impl FlightEvent {
    /// The logical time in seconds.
    #[must_use]
    pub fn at(&self) -> f64 {
        f64::from_bits(self.at_bits)
    }

    /// `v0` reinterpreted as `f64`.
    #[must_use]
    pub fn v0_f64(&self) -> f64 {
        f64::from_bits(self.v0)
    }

    /// `v1` reinterpreted as `f64`.
    #[must_use]
    pub fn v1_f64(&self) -> f64 {
        f64::from_bits(self.v1)
    }

    /// Orders two events by content only (logical time via `total_cmp`, then
    /// kind, rack, reason, priority, bucket, payloads) — the merged-timeline
    /// order, deterministic across thread interleavings for distinct events.
    #[must_use]
    pub fn timeline_cmp(&self, other: &FlightEvent) -> std::cmp::Ordering {
        self.at()
            .total_cmp(&other.at())
            .then_with(|| self.kind.cmp(&other.kind))
            .then_with(|| self.rack.cmp(&other.rack))
            .then_with(|| self.reason.cmp(&other.reason))
            .then_with(|| self.priority.cmp(&other.priority))
            .then_with(|| self.bucket.cmp(&other.bucket))
            .then_with(|| self.v0.cmp(&other.v0))
            .then_with(|| self.v1.cmp(&other.v1))
    }
}

/// A fixed-capacity overwrite-oldest ring of events.
struct Ring {
    slots: Vec<FlightEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    wrapped: bool,
}

impl Ring {
    fn new() -> Self {
        Ring {
            slots: Vec::new(),
            head: 0,
            wrapped: false,
        }
    }

    fn push(&mut self, event: FlightEvent) {
        if self.slots.len() < RING_CAPACITY {
            self.slots.push(event);
        } else {
            self.slots[self.head] = event;
            self.head = (self.head + 1) % RING_CAPACITY;
            self.wrapped = true;
            OVERWRITTEN.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Copies the ring oldest-first without consuming it.
    fn copy_out(&self, into: &mut Vec<FlightEvent>) {
        if self.wrapped {
            into.extend_from_slice(&self.slots[self.head..]);
            into.extend_from_slice(&self.slots[..self.head]);
        } else {
            into.extend_from_slice(&self.slots);
        }
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.head = 0;
        self.wrapped = false;
    }
}

type SharedRing = Arc<Mutex<Ring>>;

static RECORDER_SINKS: Mutex<Vec<SharedRing>> = Mutex::new(Vec::new());
static RECORDER_ENABLED: AtomicBool = AtomicBool::new(true);
static OVERWRITTEN: AtomicU64 = AtomicU64::new(0);
/// Ambient logical time (seconds as f64 bits) stamped onto events recorded
/// from code that has no `now` in scope (the core assignment kernels).
static AMBIENT_NOW: AtomicU64 = AtomicU64::new(0);
/// Latch: only the first black-box trigger writes the dump.
static BLACKBOX_FIRED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static LOCAL_RING: SharedRing = {
        let ring: SharedRing = Arc::new(Mutex::new(Ring::new()));
        RECORDER_SINKS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Arc::clone(&ring));
        ring
    };
}

/// Turns the flight recorder on or off globally. Unlike the span tracer it
/// is **on by default**: the recorder is the always-on black box.
pub fn set_recorder_enabled(on: bool) {
    RECORDER_ENABLED.store(on, Ordering::SeqCst);
}

/// Whether the flight recorder is currently on.
#[inline]
#[must_use]
pub fn recorder_enabled() -> bool {
    RECORDER_ENABLED.load(Ordering::Relaxed)
}

/// Sets the ambient logical time stamped onto events recorded without an
/// explicit time (controllers call this at the top of every tick).
#[inline]
pub fn set_flight_now(secs: f64) {
    if recorder_enabled() {
        AMBIENT_NOW.store(secs.to_bits(), Ordering::Relaxed);
    }
}

/// Events overwritten because a thread's ring wrapped.
#[must_use]
pub fn overwritten_events() -> u64 {
    OVERWRITTEN.load(Ordering::Relaxed)
}

fn push_event(event: FlightEvent) {
    LOCAL_RING.with(|ring| {
        ring.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(event);
    });
}

/// Journals an event at the ambient logical time. One relaxed load and an
/// immediate return while the recorder is off.
#[inline]
pub fn flight(
    kind: FlightKind,
    reason: ReasonCode,
    rack: u32,
    priority: u8,
    bucket: u16,
    v0: u64,
    v1: u64,
) {
    if !recorder_enabled() {
        return;
    }
    push_event(FlightEvent {
        at_bits: AMBIENT_NOW.load(Ordering::Relaxed),
        kind,
        reason,
        priority,
        bucket,
        rack,
        v0,
        v1,
    });
}

/// Journals an event at an explicit logical time (seconds).
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the FlightEvent fields
pub fn flight_at(
    at_secs: f64,
    kind: FlightKind,
    reason: ReasonCode,
    rack: u32,
    priority: u8,
    bucket: u16,
    v0: u64,
    v1: u64,
) {
    if !recorder_enabled() {
        return;
    }
    push_event(FlightEvent {
        at_bits: at_secs.to_bits(),
        kind,
        reason,
        priority,
        bucket,
        rack,
        v0,
        v1,
    });
}

fn merged(drain: bool) -> Vec<FlightEvent> {
    let sinks = RECORDER_SINKS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut all = Vec::new();
    for ring in sinks.iter() {
        let mut ring = ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ring.copy_out(&mut all);
        if drain {
            ring.clear();
        }
    }
    drop(sinks);
    all.sort_by(FlightEvent::timeline_cmp);
    all
}

/// Drains every thread's ring and returns the merged timeline, sorted by the
/// content-only [`FlightEvent::timeline_cmp`] key.
#[must_use]
pub fn take_flight_events() -> Vec<FlightEvent> {
    merged(true)
}

/// Copies the merged timeline without draining (black-box dumps use this so
/// a later trigger still sees the journal).
#[must_use]
pub fn snapshot_flight_events() -> Vec<FlightEvent> {
    merged(false)
}

/// The black-box dump path configured via [`BLACKBOX_ENV_VAR`], if any.
#[must_use]
pub fn env_blackbox_path() -> Option<PathBuf> {
    std::env::var_os(BLACKBOX_ENV_VAR)
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// Renders events as the black-box JSON document.
#[must_use]
pub fn blackbox_json(trigger: &str, events: &[FlightEvent]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(128 + events.len() * 160);
    out.push_str("{\"version\":1,\"trigger\":\"");
    for c in trigger.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    let _ = write!(
        out,
        "\",\"overwritten\":{},\"events\":[",
        overwritten_events()
    );
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // `at` is convenience (f64 `{:?}` round-trips exactly); the bit
        // patterns are authoritative and travel as hex *strings* because a
        // JSON number (f64) cannot carry all 64 bits.
        let _ = write!(
            out,
            "\n{{\"at\":{:?},\"at_bits\":\"{:016x}\",\"kind\":\"{}\",\"reason\":\"{}\",\
             \"rack\":{},\"priority\":{},\"bucket\":{},\"v0\":\"{:016x}\",\"v1\":\"{:016x}\"}}",
            e.at(),
            e.at_bits,
            e.kind.name(),
            e.reason.name(),
            e.rack,
            e.priority,
            e.bucket,
            e.v0,
            e.v1,
        );
    }
    out.push_str("\n]}");
    out
}

/// A black-box dump read back from disk.
#[derive(Debug, Clone, PartialEq)]
pub struct BlackboxDump {
    /// What fired the dump (`breaker_trip`, `sla_miss`, `panic`, `forced`…).
    pub trigger: String,
    /// Ring overwrites at dump time (non-zero means the window is partial).
    pub overwritten: u64,
    /// The merged timeline, in [`FlightEvent::timeline_cmp`] order.
    pub events: Vec<FlightEvent>,
}

/// Parses a black-box JSON document produced by [`blackbox_json`].
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn parse_blackbox(doc: &str) -> Result<BlackboxDump, String> {
    let parsed = json::parse(doc).map_err(|e| format!("invalid JSON: {e}"))?;
    let trigger = parsed
        .get("trigger")
        .and_then(json::Json::as_str)
        .ok_or("missing trigger")?
        .to_owned();
    let overwritten = whole(&parsed, "overwritten")?;
    let raw = parsed
        .get("events")
        .and_then(json::Json::as_arr)
        .ok_or("missing events array")?;
    let mut events = Vec::with_capacity(raw.len());
    for (i, e) in raw.iter().enumerate() {
        let bits = |name: &str| -> Result<u64, String> {
            let hex = e
                .get(name)
                .and_then(json::Json::as_str)
                .ok_or_else(|| format!("event {i}: missing {name}"))?;
            u64::from_str_radix(hex, 16).map_err(|_| format!("event {i}: bad hex in {name}"))
        };
        let kind_name = e
            .get("kind")
            .and_then(json::Json::as_str)
            .ok_or_else(|| format!("event {i}: missing kind"))?;
        let kind = FlightKind::ALL
            .iter()
            .copied()
            .find(|k| k.name() == kind_name)
            .ok_or_else(|| format!("event {i}: unknown kind {kind_name}"))?;
        let reason_name = e
            .get("reason")
            .and_then(json::Json::as_str)
            .ok_or_else(|| format!("event {i}: missing reason"))?;
        let reason = ReasonCode::ALL
            .iter()
            .copied()
            .find(|r| r.name() == reason_name)
            .ok_or_else(|| format!("event {i}: unknown reason {reason_name}"))?;
        events.push(FlightEvent {
            at_bits: bits("at_bits")?,
            kind,
            reason,
            priority: whole(e, "priority").map_err(|err| format!("event {i}: {err}"))?,
            bucket: whole(e, "bucket").map_err(|err| format!("event {i}: {err}"))?,
            rack: whole(e, "rack").map_err(|err| format!("event {i}: {err}"))?,
            v0: bits("v0")?,
            v1: bits("v1")?,
        });
    }
    Ok(BlackboxDump {
        trigger,
        overwritten,
        events,
    })
}

/// Reads the whole number `name` of `obj` as a `T`. Negative, fractional and
/// out-of-range values are errors; an `as` cast would saturate or truncate
/// them into a plausible-looking wrong value.
fn whole<T: TryFrom<u64>>(obj: &json::Json, name: &str) -> Result<T, String> {
    let v = obj
        .get(name)
        .and_then(json::Json::as_num)
        .ok_or_else(|| format!("missing {name}"))?;
    // 2^64 is the first float past `u64::MAX`.
    let n = (v >= 0.0 && v.fract() == 0.0 && v < 18_446_744_073_709_551_616.0).then_some(v as u64);
    n.and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| format!("{name} {v} is not a {}", std::any::type_name::<T>()))
}

/// Writes the merged timeline (snapshot, not drained) to `path`.
///
/// # Errors
///
/// Returns any I/O error from writing the file.
pub fn write_blackbox(path: &Path, trigger: &str) -> std::io::Result<usize> {
    let events = snapshot_flight_events();
    std::fs::write(path, blackbox_json(trigger, &events))?;
    Ok(events.len())
}

/// Fires a black-box trigger: if [`BLACKBOX_ENV_VAR`] is set and no earlier
/// trigger has fired, writes the dump and returns its path. Later triggers
/// are no-ops — the black box preserves the *first* incident.
pub fn trigger_blackbox(trigger: &str) -> Option<PathBuf> {
    let path = env_blackbox_path()?;
    if BLACKBOX_FIRED.swap(true, Ordering::SeqCst) {
        return None;
    }
    match write_blackbox(&path, trigger) {
        Ok(_) => Some(path),
        Err(_) => None,
    }
}

/// Re-arms the trigger latch (tests and multi-run harnesses).
pub fn reset_blackbox_trigger() {
    BLACKBOX_FIRED.store(false, Ordering::SeqCst);
}

/// Installs a panic hook (once per process) that dumps the black box with
/// trigger `panic` before delegating to the previous hook. A no-op dump-wise
/// unless [`BLACKBOX_ENV_VAR`] is set at panic time.
pub fn install_panic_blackbox_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = trigger_blackbox("panic");
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;

    fn ev(at: f64, rack: u32, kind: FlightKind, reason: ReasonCode) -> FlightEvent {
        FlightEvent {
            at_bits: at.to_bits(),
            kind,
            reason,
            priority: 2,
            bucket: 512,
            rack,
            v0: 1.5f64.to_bits(),
            v1: 2.5f64.to_bits(),
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _g = test_support::guard();
        let _ = take_flight_events();
        set_recorder_enabled(false);
        flight(FlightKind::Admit, ReasonCode::AdmitFloor, 1, 1, 0, 0, 0);
        flight_at(
            9.0,
            FlightKind::Cap,
            ReasonCode::CapLastResort,
            2,
            1,
            0,
            0,
            0,
        );
        assert!(take_flight_events().is_empty());
        set_recorder_enabled(true);
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let _g = test_support::guard();
        let _ = take_flight_events();
        let before = overwritten_events();
        set_recorder_enabled(true);
        let total = RING_CAPACITY + 100;
        for i in 0..total {
            flight_at(
                i as f64,
                FlightKind::Override,
                ReasonCode::OverrideDelta,
                7,
                1,
                0,
                i as u64,
                0,
            );
        }
        let events = take_flight_events();
        assert_eq!(events.len(), RING_CAPACITY);
        assert_eq!(overwritten_events() - before, 100);
        // The oldest 100 were overwritten; the window starts at 100.
        assert_eq!(events.first().unwrap().at(), 100.0);
        assert_eq!(events.last().unwrap().at(), (total - 1) as f64);
    }

    #[test]
    fn merged_timeline_order_is_content_deterministic() {
        let _g = test_support::guard();
        let _ = take_flight_events();
        set_recorder_enabled(true);
        // Three threads each journal a disjoint slice of a known event set,
        // in different local orders, with interleaving-perturbing yields. The
        // merged timeline must equal the content-sorted set every time.
        let mut expected: Vec<FlightEvent> = Vec::new();
        for t in 0..120u32 {
            expected.push(ev(
                f64::from(t % 40),
                t,
                FlightKind::ALL[(t % 15) as usize],
                ReasonCode::ALL[(t % 17) as usize],
            ));
        }
        expected.sort_by(FlightEvent::timeline_cmp);

        for round in 0..3 {
            let mut slices: Vec<Vec<FlightEvent>> = vec![Vec::new(); 3];
            for t in 0..120u32 {
                slices[((t as usize) + round) % 3].push(ev(
                    f64::from(t % 40),
                    t,
                    FlightKind::ALL[(t % 15) as usize],
                    ReasonCode::ALL[(t % 17) as usize],
                ));
            }
            std::thread::scope(|scope| {
                for (i, slice) in slices.into_iter().enumerate() {
                    scope.spawn(move || {
                        for (j, event) in slice.into_iter().enumerate() {
                            if (i + j) % 4 == 0 {
                                std::thread::yield_now();
                            }
                            flight_at(
                                event.at(),
                                event.kind,
                                event.reason,
                                event.rack,
                                event.priority,
                                event.bucket,
                                event.v0,
                                event.v1,
                            );
                        }
                    });
                }
            });
            let merged = take_flight_events();
            assert_eq!(merged, expected, "round {round} diverged");
        }
    }

    #[test]
    fn blackbox_round_trips_exact_bits() {
        let _g = test_support::guard();
        let _ = take_flight_events();
        set_recorder_enabled(true);
        let awkward = f64::from_bits(0x3FB9_9999_9999_999A); // 0.1: not exact in decimal
        flight_at(
            awkward,
            FlightKind::Admit,
            ReasonCode::AdmitUpgraded,
            41,
            1,
            1023,
            awkward.to_bits(),
            f64::NAN.to_bits(),
        );
        let events = snapshot_flight_events();
        let doc = blackbox_json("forced \"test\"", &events);
        let dump = parse_blackbox(&doc).expect("dump parses");
        assert_eq!(dump.trigger, "forced \"test\"");
        assert_eq!(dump.events, events);
        assert_eq!(dump.events[0].v0, awkward.to_bits());
        assert!(dump.events[0].v1_f64().is_nan());
        let _ = take_flight_events();
    }

    #[test]
    fn blackbox_rejects_integers_an_as_cast_would_mangle() {
        let event = ev(1.0, 7, FlightKind::Admit, ReasonCode::AdmitFloor);
        let doc = blackbox_json("t", &[event]);
        let overwritten = parse_blackbox(&doc).expect("dump parses").overwritten;
        for (field, bad) in [
            ("priority", "300"),
            ("priority", "-1"),
            ("priority", "1.5"),
            ("bucket", "65536"),
            ("bucket", "1.5"),
            ("rack", "-1"),
            ("rack", "4294967296"),
            ("rack", "0.5"),
            ("overwritten", "-1"),
            ("overwritten", "2.5"),
            ("overwritten", "1e20"),
        ] {
            let good = match field {
                "priority" => format!("\"priority\":{}", event.priority),
                "bucket" => format!("\"bucket\":{}", event.bucket),
                "rack" => format!("\"rack\":{}", event.rack),
                _ => format!("\"overwritten\":{overwritten}"),
            };
            assert!(doc.contains(&good), "{good} not in the dump");
            let edited = doc.replacen(&good, &format!("\"{field}\":{bad}"), 1);
            let err = parse_blackbox(&edited).expect_err("out-of-range value accepted");
            let scope = if field == "overwritten" {
                ""
            } else {
                "event 0"
            };
            assert!(
                err.contains(field) && err.contains(scope),
                "{field} = {bad}: error {err:?} must name the field and the event"
            );
        }
    }

    #[test]
    fn kind_and_reason_codes_are_stable() {
        for (i, kind) in FlightKind::ALL.iter().enumerate() {
            assert_eq!(kind.code() as usize, i);
        }
        for (i, reason) in ReasonCode::ALL.iter().enumerate() {
            assert_eq!(reason.code() as usize, i);
        }
    }
}
