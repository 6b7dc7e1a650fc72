//! The length-prefixed framed wire protocol.
//!
//! Every message travels as one *frame*: a little-endian `u32` payload length
//! followed by the payload. A payload is
//!
//! ```text
//! [ version: u8 = 3 ][ request id: u64 LE ][ opcode: u8 ][ body ... ]
//! ```
//!
//! Every rack-facing op is batched: one frame reads or commands all of a
//! server's racks. Version 1 also carried per-rack ops (requests
//! `0x02`–`0x08`, replies `0x82`–`0x84`), and version 2 agent-side
//! controller fencing and snapshot storage (requests `0x0D`–`0x0F`, replies
//! `0x89`–`0x8B`); those opcode bytes are retired and decode as
//! [`WireError::BadOpcode`].
//!
//! The request id is chosen by the client and echoed verbatim in the reply,
//! so a client that retried after a timeout (or whose link duplicated a
//! frame) can discard stale replies instead of mis-pairing them. All
//! quantities are encoded exactly: `f64` fields travel as their IEEE-754 bit
//! patterns, so a reading decoded on the far side is bit-identical to the
//! one the agent produced — the foundation of the clean-link equivalence
//! guarantee.
//!
//! The vendored `serde` in this workspace is a compile-only stand-in (no
//! runtime serializer exists in the offline build environment), so the codec
//! here is hand-rolled over the same `messages.rs` types the in-memory bus
//! passes by value.

use recharge_battery::BbuState;
use recharge_dynamo::PowerReading;
use recharge_units::{Amperes, Dod, Priority, RackId, SimTime, Watts};

/// Protocol version carried in every payload; peers reject mismatches.
pub const PROTOCOL_VERSION: u8 = 3;

/// Default upper bound on a frame payload; anything larger is treated as a
/// corrupt stream and the connection is dropped. Batched reading frames for
/// very large fleets can legitimately exceed this — the cap is a knob on
/// [`RpcMeshConfig`](crate::backend::RpcMeshConfig::max_frame_len).
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// One controller command inside a [`Request::ApplyCommandBatch`] frame.
///
/// Exactly the mutating half of the [`AgentBus`](recharge_dynamo::AgentBus)
/// surface, so a batch replays the controller's calls verbatim on the server
/// side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AgentCommand {
    /// Force a rack's BBU charging current.
    SetChargeOverride(RackId, Amperes),
    /// Return a rack's charger to automatic current selection.
    ClearChargeOverride(RackId),
    /// Suspend or resume a rack's battery charging.
    SetChargePostponed(RackId, bool),
    /// Cap a rack's server power.
    CapServers(RackId, Watts),
    /// Remove a rack's server power cap.
    UncapServers(RackId),
}

impl AgentCommand {
    /// The rack this command addresses.
    #[must_use]
    pub fn rack(&self) -> RackId {
        match *self {
            AgentCommand::SetChargeOverride(rack, _)
            | AgentCommand::ClearChargeOverride(rack)
            | AgentCommand::SetChargePostponed(rack, _)
            | AgentCommand::CapServers(rack, _)
            | AgentCommand::UncapServers(rack) => rack,
        }
    }
}

/// Per-group aggregates reported by a server-hosted leaf control tick — the
/// only telemetry that crosses the wire in leaf-in-server mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupAggregate {
    /// Sum of powered racks' IT load.
    pub it_load: Watts,
    /// Sum of powered racks' recharge draw.
    pub recharge_power: Watts,
    /// Sum of server power shed to caps.
    pub capped_power: Watts,
    /// Charge-current overrides the leaf sent this tick.
    pub overrides_sent: u32,
    /// Racks the leaf throttled this tick.
    pub racks_throttled: u32,
}

/// A live-health snapshot served by an agent server — the payload of the
/// mesh's observability plane. The numeric fields are the cheap
/// at-a-glance summary; `text` carries the full metrics registry in the
/// Prometheus text exposition format for scraping or diffing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// The server's shard index within the mesh (0 for a lone server).
    pub shard: u32,
    /// Racks hosted behind this server.
    pub racks: u32,
    /// Hosted racks currently under an unexpired coordination lease.
    pub coordinated: u32,
    /// Prometheus text exposition of the process metrics registry.
    pub text: String,
}

/// A controller → agent-server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// The racks hosted behind this server, in stable order.
    ListRacks,
    /// Read every hosted rack in one round trip (fleet order); renews every
    /// hosted rack's coordination lease.
    ReadAllReadings,
    /// Apply a batch of commands in one round trip; renews each addressed
    /// rack's coordination lease.
    ApplyCommandBatch(Vec<AgentCommand>),
    /// Run the server-hosted leaf control tick at simulation time `now`,
    /// optionally re-budgeting the leaf's power limit first. Renews every
    /// hosted rack's coordination lease.
    TickLeaf {
        /// The controller's current simulation time.
        now: SimTime,
        /// Power budget assigned by the upper tier for this tick; `None`
        /// keeps the leaf's configured limit.
        budget: Option<Watts>,
    },
    /// Read the server's live health snapshot (registry metrics plus lease
    /// and hosting summary). Deliberately lease-neutral: scraping health
    /// must never keep a dead controller's coordination alive.
    ReadHealth,
}

/// An agent-server → controller reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::ListRacks`].
    Racks(Vec<RackId>),
    /// Reply to [`Request::ReadAllReadings`]: every hosted rack, fleet order.
    Readings(Vec<PowerReading>),
    /// Reply to [`Request::ApplyCommandBatch`]: commands applied (addressed
    /// racks actually hosted here).
    BatchAck(u32),
    /// Reply to [`Request::TickLeaf`].
    GroupAggregate(GroupAggregate),
    /// Reply to [`Request::ReadHealth`].
    Health(HealthReport),
}

/// A malformed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the message did.
    Truncated,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Peer speaks a different protocol version.
    BadVersion(u8),
    /// An enum discriminant outside its legal range.
    BadEnum(&'static str, u8),
    /// A number outside its field's legal domain: a DOD outside `[0, 1]`
    /// (NaN included), a non-finite override current, tick time or leaf
    /// budget, or a non-finite or negative cap limit. Carries the field's
    /// name.
    BadValue(&'static str),
    /// Trailing bytes after a complete message.
    TrailingBytes,
    /// A frame longer than the configured cap (carried inside the
    /// `InvalidData` [`io::Error`](std::io::Error) frame I/O returns, so
    /// callers can downcast instead of parsing message text).
    FrameTooLarge {
        /// The offending frame's payload length.
        len: u32,
        /// The configured cap it exceeded.
        limit: u32,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::BadVersion(v) => {
                write!(f, "protocol version {v} (expected {PROTOCOL_VERSION})")
            }
            WireError::BadEnum(what, v) => write!(f, "illegal {what} discriminant {v}"),
            WireError::BadValue(field) => write!(f, "illegal {field} value"),
            WireError::TrailingBytes => write!(f, "trailing bytes after message"),
            WireError::FrameTooLarge { len, limit } => {
                write!(f, "frame length {len} exceeds the {limit}-byte cap")
            }
        }
    }
}

impl std::error::Error for WireError {}

// Request opcodes. 0x02–0x08 (version 1's per-rack ops) and 0x0D–0x0F
// (version 2's fenced batch and snapshot store/fetch) are retired and never
// reassigned, so a stray old frame cannot decode as a different op.
const OP_LIST_RACKS: u8 = 0x01;
const OP_READ_ALL: u8 = 0x09;
const OP_APPLY_BATCH: u8 = 0x0A;
const OP_TICK_LEAF: u8 = 0x0B;
const OP_READ_HEALTH: u8 = 0x0C;
// Response opcodes (high bit set); 0x82–0x84 and 0x89–0x8B are retired
// likewise.
const OP_RACKS: u8 = 0x81;
const OP_READINGS: u8 = 0x85;
const OP_BATCH_ACK: u8 = 0x86;
const OP_GROUP_AGGREGATE: u8 = 0x87;
const OP_HEALTH: u8 = 0x88;

// Command tags inside an `ApplyCommandBatch` body.
const CMD_SET_OVERRIDE: u8 = 0;
const CMD_CLEAR_OVERRIDE: u8 = 1;
const CMD_SET_POSTPONED: u8 = 2;
const CMD_CAP: u8 = 3;
const CMD_UNCAP: u8 = 4;

/// Encoded size of one [`PowerReading`] in a batched frame: rack u32,
/// priority u8, present u8, five f64 fields, bbu state u8.
const READING_WIRE_BYTES: usize = 4 + 1 + 1 + 8 * 5 + 1;
/// Minimum encoded size of one [`AgentCommand`]: tag u8 + rack u32.
const COMMAND_WIRE_MIN_BYTES: usize = 1 + 4;

/// Little-endian byte-buffer writer.
struct Writer(Vec<u8>);

impl Writer {
    fn new() -> Self {
        Writer(Vec::with_capacity(96))
    }

    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn rack(&mut self, rack: RackId) {
        self.u32(rack.index());
    }
}

/// Little-endian byte-buffer reader.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], WireError> {
        if self.0.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// An `f64` that must satisfy `legal`, else a typed error naming `field`.
    fn checked_f64(
        &mut self,
        field: &'static str,
        legal: impl Fn(f64) -> bool,
    ) -> Result<f64, WireError> {
        let v = self.f64()?;
        if legal(v) {
            Ok(v)
        } else {
            Err(WireError::BadValue(field))
        }
    }

    fn rack(&mut self) -> Result<RackId, WireError> {
        Ok(RackId::new(self.u32()?))
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(WireError::BadEnum("bool", v)),
        }
    }

    fn remaining(&self) -> usize {
        self.0.len()
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

fn put_priority(w: &mut Writer, priority: Priority) {
    w.u8(priority.rank());
}

fn get_priority(r: &mut Reader<'_>) -> Result<Priority, WireError> {
    match r.u8()? {
        1 => Ok(Priority::P1),
        2 => Ok(Priority::P2),
        3 => Ok(Priority::P3),
        v => Err(WireError::BadEnum("priority", v)),
    }
}

fn put_bbu_state(w: &mut Writer, state: BbuState) {
    w.u8(match state {
        BbuState::FullyCharged => 0,
        BbuState::Charging => 1,
        BbuState::Discharging => 2,
        BbuState::FullyDischarged => 3,
    });
}

fn get_bbu_state(r: &mut Reader<'_>) -> Result<BbuState, WireError> {
    match r.u8()? {
        0 => Ok(BbuState::FullyCharged),
        1 => Ok(BbuState::Charging),
        2 => Ok(BbuState::Discharging),
        3 => Ok(BbuState::FullyDischarged),
        v => Err(WireError::BadEnum("bbu state", v)),
    }
}

fn put_reading(w: &mut Writer, reading: &PowerReading) {
    w.rack(reading.rack);
    put_priority(w, reading.priority);
    w.u8(u8::from(reading.input_power_present));
    w.f64(reading.it_load.as_watts());
    w.f64(reading.recharge_power.as_watts());
    put_bbu_state(w, reading.bbu_state);
    w.f64(reading.event_dod.value());
    w.f64(reading.dod.value());
    w.f64(reading.capped_power.as_watts());
}

fn is_fraction(v: f64) -> bool {
    (0.0..=1.0).contains(&v)
}

fn get_reading(r: &mut Reader<'_>) -> Result<PowerReading, WireError> {
    Ok(PowerReading {
        rack: r.rack()?,
        priority: get_priority(r)?,
        input_power_present: r.bool()?,
        it_load: Watts::new(r.f64()?),
        recharge_power: Watts::new(r.f64()?),
        bbu_state: get_bbu_state(r)?,
        event_dod: Dod::new(r.checked_f64("event_dod", is_fraction)?),
        dod: Dod::new(r.checked_f64("dod", is_fraction)?),
        capped_power: Watts::new(r.f64()?),
    })
}

fn put_command(w: &mut Writer, command: &AgentCommand) {
    match *command {
        AgentCommand::SetChargeOverride(rack, current) => {
            w.u8(CMD_SET_OVERRIDE);
            w.rack(rack);
            w.f64(current.as_amps());
        }
        AgentCommand::ClearChargeOverride(rack) => {
            w.u8(CMD_CLEAR_OVERRIDE);
            w.rack(rack);
        }
        AgentCommand::SetChargePostponed(rack, postponed) => {
            w.u8(CMD_SET_POSTPONED);
            w.rack(rack);
            w.u8(u8::from(postponed));
        }
        AgentCommand::CapServers(rack, limit) => {
            w.u8(CMD_CAP);
            w.rack(rack);
            w.f64(limit.as_watts());
        }
        AgentCommand::UncapServers(rack) => {
            w.u8(CMD_UNCAP);
            w.rack(rack);
        }
    }
}

fn get_command(r: &mut Reader<'_>) -> Result<AgentCommand, WireError> {
    match r.u8()? {
        CMD_SET_OVERRIDE => {
            let rack = r.rack()?;
            let current = r.checked_f64("override current", f64::is_finite)?;
            Ok(AgentCommand::SetChargeOverride(rack, Amperes::new(current)))
        }
        CMD_CLEAR_OVERRIDE => Ok(AgentCommand::ClearChargeOverride(r.rack()?)),
        CMD_SET_POSTPONED => {
            let rack = r.rack()?;
            Ok(AgentCommand::SetChargePostponed(rack, r.bool()?))
        }
        CMD_CAP => {
            let rack = r.rack()?;
            let limit = r.checked_f64("cap limit", |v| v.is_finite() && v >= 0.0)?;
            Ok(AgentCommand::CapServers(rack, Watts::new(limit)))
        }
        CMD_UNCAP => Ok(AgentCommand::UncapServers(r.rack()?)),
        v => Err(WireError::BadEnum("command", v)),
    }
}

fn put_aggregate(w: &mut Writer, aggregate: &GroupAggregate) {
    w.f64(aggregate.it_load.as_watts());
    w.f64(aggregate.recharge_power.as_watts());
    w.f64(aggregate.capped_power.as_watts());
    w.u32(aggregate.overrides_sent);
    w.u32(aggregate.racks_throttled);
}

fn put_health(w: &mut Writer, health: &HealthReport) {
    w.u32(health.shard);
    w.u32(health.racks);
    w.u32(health.coordinated);
    let bytes = health.text.as_bytes();
    w.u32(bytes.len() as u32);
    w.0.extend_from_slice(bytes);
}

fn get_health(r: &mut Reader<'_>) -> Result<HealthReport, WireError> {
    let shard = r.u32()?;
    let racks = r.u32()?;
    let coordinated = r.u32()?;
    let len = r.u32()? as usize;
    if len > r.remaining() {
        return Err(WireError::Truncated);
    }
    let text = core::str::from_utf8(r.take(len)?)
        .map_err(|_| WireError::BadEnum("utf-8 health text", 0))?
        .to_owned();
    Ok(HealthReport {
        shard,
        racks,
        coordinated,
        text,
    })
}

fn get_aggregate(r: &mut Reader<'_>) -> Result<GroupAggregate, WireError> {
    Ok(GroupAggregate {
        it_load: Watts::new(r.f64()?),
        recharge_power: Watts::new(r.f64()?),
        capped_power: Watts::new(r.f64()?),
        overrides_sent: r.u32()?,
        racks_throttled: r.u32()?,
    })
}

fn header(w: &mut Writer, id: u64, opcode: u8) {
    w.u8(PROTOCOL_VERSION);
    w.u64(id);
    w.u8(opcode);
}

fn read_header(r: &mut Reader<'_>) -> Result<(u64, u8), WireError> {
    let version = r.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let id = r.u64()?;
    let opcode = r.u8()?;
    Ok((id, opcode))
}

/// Encodes a request payload (no length prefix).
#[must_use]
pub fn encode_request(id: u64, request: &Request) -> Vec<u8> {
    let mut w = Writer::new();
    match request {
        Request::ListRacks => header(&mut w, id, OP_LIST_RACKS),
        Request::ReadAllReadings => header(&mut w, id, OP_READ_ALL),
        Request::ApplyCommandBatch(commands) => {
            header(&mut w, id, OP_APPLY_BATCH);
            w.u32(commands.len() as u32);
            for command in commands {
                put_command(&mut w, command);
            }
        }
        Request::TickLeaf { now, budget } => {
            header(&mut w, id, OP_TICK_LEAF);
            w.f64(now.as_secs());
            match budget {
                Some(budget) => {
                    w.u8(1);
                    w.f64(budget.as_watts());
                }
                None => w.u8(0),
            }
        }
        Request::ReadHealth => header(&mut w, id, OP_READ_HEALTH),
    }
    w.0
}

/// Decodes a request payload.
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), WireError> {
    let mut r = Reader(payload);
    let (id, opcode) = read_header(&mut r)?;
    let request = match opcode {
        OP_LIST_RACKS => Request::ListRacks,
        OP_READ_ALL => Request::ReadAllReadings,
        OP_APPLY_BATCH => {
            let count = r.u32()? as usize;
            // A count the remaining payload cannot possibly hold is corrupt.
            if count > r.remaining() / COMMAND_WIRE_MIN_BYTES {
                return Err(WireError::Truncated);
            }
            let mut commands = Vec::with_capacity(count);
            for _ in 0..count {
                commands.push(get_command(&mut r)?);
            }
            Request::ApplyCommandBatch(commands)
        }
        OP_TICK_LEAF => {
            let now = SimTime::from_secs(r.checked_f64("tick time", f64::is_finite)?);
            let budget = match r.u8()? {
                0 => None,
                1 => Some(Watts::new(r.checked_f64("leaf budget", f64::is_finite)?)),
                v => return Err(WireError::BadEnum("option", v)),
            };
            Request::TickLeaf { now, budget }
        }
        OP_READ_HEALTH => Request::ReadHealth,
        op => return Err(WireError::BadOpcode(op)),
    };
    r.finish()?;
    Ok((id, request))
}

/// Encodes a response payload (no length prefix).
#[must_use]
pub fn encode_response(id: u64, response: &Response) -> Vec<u8> {
    let mut w = Writer::new();
    match response {
        Response::Racks(racks) => {
            header(&mut w, id, OP_RACKS);
            w.u32(racks.len() as u32);
            for &rack in racks {
                w.rack(rack);
            }
        }
        Response::Readings(readings) => {
            header(&mut w, id, OP_READINGS);
            w.u32(readings.len() as u32);
            for reading in readings {
                put_reading(&mut w, reading);
            }
        }
        Response::BatchAck(applied) => {
            header(&mut w, id, OP_BATCH_ACK);
            w.u32(*applied);
        }
        Response::GroupAggregate(aggregate) => {
            header(&mut w, id, OP_GROUP_AGGREGATE);
            put_aggregate(&mut w, aggregate);
        }
        Response::Health(health) => {
            header(&mut w, id, OP_HEALTH);
            put_health(&mut w, health);
        }
    }
    w.0
}

/// Decodes a response payload.
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), WireError> {
    let mut r = Reader(payload);
    let (id, opcode) = read_header(&mut r)?;
    let response = match opcode {
        OP_RACKS => {
            let count = r.u32()? as usize;
            // A count that could not fit the remaining payload is corrupt.
            if count > MAX_FRAME_LEN as usize / 4 {
                return Err(WireError::Truncated);
            }
            let mut racks = Vec::with_capacity(count);
            for _ in 0..count {
                racks.push(r.rack()?);
            }
            Response::Racks(racks)
        }
        OP_READINGS => {
            let count = r.u32()? as usize;
            if count > r.remaining() / READING_WIRE_BYTES {
                return Err(WireError::Truncated);
            }
            let mut readings = Vec::with_capacity(count);
            for _ in 0..count {
                readings.push(get_reading(&mut r)?);
            }
            Response::Readings(readings)
        }
        OP_BATCH_ACK => Response::BatchAck(r.u32()?),
        OP_GROUP_AGGREGATE => Response::GroupAggregate(get_aggregate(&mut r)?),
        OP_HEALTH => Response::Health(get_health(&mut r)?),
        op => return Err(WireError::BadOpcode(op)),
    };
    r.finish()?;
    Ok((id, response))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn reading() -> PowerReading {
        PowerReading {
            rack: RackId::new(42),
            priority: Priority::P2,
            input_power_present: true,
            it_load: Watts::new(6_000.123_456_789),
            recharge_power: Watts::new(701.000_000_001),
            bbu_state: BbuState::Charging,
            event_dod: Dod::new(0.300_000_000_000_01),
            dod: Dod::new(0.123_456_789),
            capped_power: Watts::new(0.0),
        }
    }

    /// One request of every op, batches with every command kind.
    fn sample_requests() -> Vec<Request> {
        vec![
            Request::ListRacks,
            Request::ReadAllReadings,
            Request::ApplyCommandBatch(Vec::new()),
            Request::ApplyCommandBatch(vec![
                AgentCommand::SetChargeOverride(RackId::new(0), Amperes::new(3.241_59)),
                AgentCommand::ClearChargeOverride(RackId::new(1)),
                AgentCommand::SetChargePostponed(RackId::new(2), true),
                AgentCommand::CapServers(RackId::new(3), Watts::from_kilowatts(5.5)),
                AgentCommand::UncapServers(RackId::new(4)),
            ]),
            Request::TickLeaf {
                now: SimTime::from_secs(612.0),
                budget: None,
            },
            Request::TickLeaf {
                now: SimTime::from_secs(613.0),
                budget: Some(Watts::from_kilowatts(47.5)),
            },
            Request::ReadHealth,
        ]
    }

    /// One response of every op, including empty collections.
    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Racks(vec![RackId::new(0), RackId::new(9)]),
            Response::Racks(Vec::new()),
            Response::Readings(vec![reading(), reading()]),
            Response::Readings(Vec::new()),
            Response::BatchAck(7),
            Response::GroupAggregate(GroupAggregate {
                it_load: Watts::from_kilowatts(84.0),
                recharge_power: Watts::new(2_801.000_000_001),
                capped_power: Watts::new(17.25),
                overrides_sent: 14,
                racks_throttled: 3,
            }),
            Response::Health(HealthReport {
                shard: 3,
                racks: 12,
                coordinated: 11,
                text: "# TYPE net_rpc_calls counter\nnet_rpc_calls 42\n".to_owned(),
            }),
            Response::Health(HealthReport {
                shard: 0,
                racks: 0,
                coordinated: 0,
                text: String::new(),
            }),
        ]
    }

    #[test]
    fn requests_round_trip() {
        for (i, request) in sample_requests().iter().enumerate() {
            let id = 1000 + i as u64;
            let payload = encode_request(id, request);
            assert_eq!(decode_request(&payload), Ok((id, request.clone())));
        }
    }

    #[test]
    fn responses_round_trip() {
        for (i, response) in sample_responses().iter().enumerate() {
            let id = u64::MAX - i as u64;
            let payload = encode_response(id, response);
            assert_eq!(decode_response(&payload), Ok((id, response.clone())));
        }
    }

    #[test]
    fn readings_survive_bit_exactly() {
        // The equivalence guarantee rests on f64 fields crossing the wire as
        // raw bit patterns — no text formatting, no rounding. Values that
        // compare equal to a neighbour (-0.0 == 0.0) must keep their bits too.
        let original = PowerReading {
            it_load: Watts::new(-0.0),
            recharge_power: Watts::new(f64::MIN_POSITIVE / 2.0),
            capped_power: Watts::new(f64::MAX),
            ..reading()
        };
        let payload = encode_response(1, &Response::Readings(vec![original]));
        let (_, decoded) = decode_response(&payload).expect("decodes");
        let Response::Readings(decoded) = decoded else {
            panic!("wrong variant");
        };
        let [decoded] = decoded[..] else {
            panic!("expected one reading, got {}", decoded.len());
        };
        let bits = |r: &PowerReading| {
            [
                r.it_load.as_watts().to_bits(),
                r.recharge_power.as_watts().to_bits(),
                r.event_dod.value().to_bits(),
                r.dod.value().to_bits(),
                r.capped_power.as_watts().to_bits(),
            ]
        };
        assert_eq!(bits(&decoded), bits(&original));
        assert_eq!(decoded, original);
    }

    #[test]
    fn retired_opcodes_are_rejected_without_panicking() {
        // Version 1's per-rack ops and version 2's fenced-batch and snapshot
        // ops must never decode again, whatever body follows the opcode: a
        // stray frame is a typed error, not a panic.
        let frame = |op: u8, body_len: usize| {
            let mut payload = vec![PROTOCOL_VERSION];
            payload.extend_from_slice(&7u64.to_le_bytes());
            payload.push(op);
            payload.extend((0..body_len).map(|i| (i * 37 + 1) as u8));
            payload
        };
        for body_len in [0, 1, 4, 5, 12, 13, 47, 48, 64] {
            for op in (0x02..=0x08u8).chain(0x0D..=0x0F) {
                assert_eq!(
                    decode_request(&frame(op, body_len)),
                    Err(WireError::BadOpcode(op)),
                    "request opcode {op:#04x} with a {body_len}-byte body"
                );
            }
            for op in (0x82..=0x84u8).chain(0x89..=0x8B) {
                assert_eq!(
                    decode_response(&frame(op, body_len)),
                    Err(WireError::BadOpcode(op)),
                    "response opcode {op:#04x} with a {body_len}-byte body"
                );
            }
        }
    }

    #[test]
    fn corrupt_payloads_are_rejected() {
        assert_eq!(decode_request(&[]), Err(WireError::Truncated));
        // Wrong version byte, including peers still speaking versions 1 or 2.
        for version in [1, 2, 99] {
            let mut payload = encode_request(1, &Request::ListRacks);
            payload[0] = version;
            assert_eq!(
                decode_request(&payload),
                Err(WireError::BadVersion(version))
            );
        }
        // Unknown opcode.
        let mut payload = encode_request(1, &Request::ListRacks);
        payload[9] = 0x7f;
        assert_eq!(decode_request(&payload), Err(WireError::BadOpcode(0x7f)));
        // Truncated body.
        let payload = encode_request(
            1,
            &Request::TickLeaf {
                now: SimTime::from_secs(3.0),
                budget: Some(Watts::from_kilowatts(1.0)),
            },
        );
        assert_eq!(
            decode_request(&payload[..payload.len() - 1]),
            Err(WireError::Truncated)
        );
        // Trailing garbage.
        let mut payload = encode_request(1, &Request::ListRacks);
        payload.push(0);
        assert_eq!(decode_request(&payload), Err(WireError::TrailingBytes));
        // Response decoded as request and vice versa.
        let payload = encode_response(1, &Response::BatchAck(0));
        assert_eq!(
            decode_request(&payload),
            Err(WireError::BadOpcode(OP_BATCH_ACK))
        );
        // A batch whose claimed count cannot fit the remaining bytes.
        let mut payload = encode_request(1, &Request::ApplyCommandBatch(Vec::new()));
        let count_at = payload.len() - 4;
        payload[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_request(&payload), Err(WireError::Truncated));
        // Same for a readings frame.
        let mut payload = encode_response(1, &Response::Readings(Vec::new()));
        let count_at = payload.len() - 4;
        payload[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_response(&payload), Err(WireError::Truncated));
        // A health text length that cannot fit the remaining bytes.
        let mut payload = encode_response(
            1,
            &Response::Health(HealthReport {
                shard: 0,
                racks: 0,
                coordinated: 0,
                text: String::new(),
            }),
        );
        let len_at = payload.len() - 4;
        payload[len_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_response(&payload), Err(WireError::Truncated));
        // Non-UTF-8 health text.
        let mut payload = encode_response(
            1,
            &Response::Health(HealthReport {
                shard: 0,
                racks: 0,
                coordinated: 0,
                text: "a".to_owned(),
            }),
        );
        let last = payload.len() - 1;
        payload[last] = 0xFF;
        assert_eq!(
            decode_response(&payload),
            Err(WireError::BadEnum("utf-8 health text", 0))
        );
        // An unknown command tag inside a batch.
        let mut payload = encode_request(
            1,
            &Request::ApplyCommandBatch(vec![AgentCommand::UncapServers(RackId::new(0))]),
        );
        payload[14] = 99;
        assert_eq!(
            decode_request(&payload),
            Err(WireError::BadEnum("command", 99))
        );
    }

    #[test]
    fn batched_readings_survive_bit_exactly() {
        let original = reading();
        let payload = encode_response(9, &Response::Readings(vec![original, original]));
        let (_, decoded) = decode_response(&payload).expect("decodes");
        let Response::Readings(decoded) = decoded else {
            panic!("wrong variant");
        };
        assert_eq!(decoded.len(), 2);
        for reading in decoded {
            assert_eq!(
                reading.recharge_power.as_watts().to_bits(),
                original.recharge_power.as_watts().to_bits()
            );
            assert_eq!(reading, original);
        }
    }

    #[test]
    fn reading_wire_size_matches_the_sanity_bound() {
        // The count-vs-remaining sanity check in `decode_response` divides by
        // this constant; keep it honest against the real encoder.
        let lone = encode_response(0, &Response::Readings(vec![reading()]));
        let empty = encode_response(0, &Response::Readings(Vec::new()));
        assert_eq!(lone.len() - empty.len(), READING_WIRE_BYTES);
        let lone = encode_request(
            0,
            &Request::ApplyCommandBatch(vec![AgentCommand::UncapServers(RackId::new(1))]),
        );
        let empty = encode_request(0, &Request::ApplyCommandBatch(Vec::new()));
        assert_eq!(lone.len() - empty.len(), COMMAND_WIRE_MIN_BYTES);
    }

    #[test]
    fn command_rack_scope() {
        let rack = RackId::new(6);
        for command in [
            AgentCommand::SetChargeOverride(rack, Amperes::MIN_CHARGE),
            AgentCommand::ClearChargeOverride(rack),
            AgentCommand::SetChargePostponed(rack, false),
            AgentCommand::CapServers(rack, Watts::ZERO),
            AgentCommand::UncapServers(rack),
        ] {
            assert_eq!(command.rack(), rack, "{command:?}");
        }
    }
    /// Decodes `payload` both as a request and as a response. Either decoder
    /// may reject it, neither may panic, and whatever decodes must re-encode
    /// to the same bytes, so no field is silently clamped or rewritten.
    fn decode_both(payload: &[u8]) {
        if let Ok((id, request)) = decode_request(payload) {
            assert_eq!(encode_request(id, &request), payload, "{request:?}");
        }
        if let Ok((id, response)) = decode_response(payload) {
            assert_eq!(encode_response(id, &response), payload, "{response:?}");
        }
    }

    #[test]
    fn single_byte_mutations_of_every_op_never_panic() {
        let mut frames: Vec<Vec<u8>> = sample_requests()
            .iter()
            .map(|request| encode_request(3, request))
            .collect();
        frames.extend(
            sample_responses()
                .iter()
                .map(|response| encode_response(3, response)),
        );
        for frame in &frames {
            for at in 0..frame.len() {
                let mut mutated = frame.clone();
                for byte in 0..=u8::MAX {
                    mutated[at] = byte;
                    decode_both(&mutated);
                }
            }
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        let ops = [
            OP_LIST_RACKS,
            OP_READ_ALL,
            OP_APPLY_BATCH,
            OP_TICK_LEAF,
            OP_READ_HEALTH,
            OP_RACKS,
            OP_READINGS,
            OP_BATCH_ACK,
            OP_GROUP_AGGREGATE,
            OP_HEALTH,
        ];
        let mut rng = StdRng::seed_from_u64(0x5EED_F00D);
        for _ in 0..20_000 {
            let len = rng.gen_range(0..160usize);
            let mut payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect();
            // Uniform bytes almost always stop at the version byte; steer half
            // the cases past the header, and half of those to a small count,
            // so every op's body decoder sees random bytes too.
            if len > 9 && rng.gen_bool(0.5) {
                payload[0] = PROTOCOL_VERSION;
                payload[9] = ops[rng.gen_range(0..ops.len())];
                if len >= 14 && rng.gen_bool(0.5) {
                    payload[10..14].copy_from_slice(&rng.gen_range(0..4u32).to_le_bytes());
                }
            }
            decode_both(&payload);
        }
    }

    fn random_watts(rng: &mut StdRng) -> Watts {
        Watts::new(rng.gen_range(-1e7..1e7))
    }

    fn random_request(rng: &mut StdRng, op: u64) -> Request {
        match op % 5 {
            0 => Request::ListRacks,
            1 => Request::ReadAllReadings,
            2 => Request::ApplyCommandBatch(
                (0..rng.gen_range(0..6usize))
                    .map(|_| {
                        let rack = RackId::new(rng.next_u32());
                        match rng.gen_range(0..5u8) {
                            0 => AgentCommand::SetChargeOverride(
                                rack,
                                Amperes::new(rng.gen_range(-10.0..10.0)),
                            ),
                            1 => AgentCommand::ClearChargeOverride(rack),
                            2 => AgentCommand::SetChargePostponed(rack, rng.gen_bool(0.5)),
                            3 => {
                                AgentCommand::CapServers(rack, Watts::new(rng.gen_range(0.0..1e6)))
                            }
                            _ => AgentCommand::UncapServers(rack),
                        }
                    })
                    .collect(),
            ),
            3 => Request::TickLeaf {
                now: SimTime::from_secs(rng.gen_range(-1e6..1e6)),
                budget: rng.gen_bool(0.5).then(|| random_watts(rng)),
            },
            _ => Request::ReadHealth,
        }
    }

    fn random_response(rng: &mut StdRng, op: u64) -> Response {
        match op % 5 {
            0 => Response::Racks(
                (0..rng.gen_range(0..6usize))
                    .map(|_| RackId::new(rng.next_u32()))
                    .collect(),
            ),
            1 => Response::Readings(
                (0..rng.gen_range(0..6usize))
                    .map(|_| PowerReading {
                        rack: RackId::new(rng.next_u32()),
                        priority: Priority::ALL[rng.gen_range(0..3usize)],
                        input_power_present: rng.gen_bool(0.5),
                        it_load: random_watts(rng),
                        recharge_power: random_watts(rng),
                        bbu_state: [
                            BbuState::FullyCharged,
                            BbuState::Charging,
                            BbuState::Discharging,
                            BbuState::FullyDischarged,
                        ][rng.gen_range(0..4usize)],
                        event_dod: Dod::new(rng.gen_range(0.0..=1.0)),
                        dod: Dod::new(rng.gen_range(0.0..=1.0)),
                        capped_power: random_watts(rng),
                    })
                    .collect(),
            ),
            2 => Response::BatchAck(rng.next_u32()),
            3 => Response::GroupAggregate(GroupAggregate {
                it_load: random_watts(rng),
                recharge_power: random_watts(rng),
                capped_power: random_watts(rng),
                overrides_sent: rng.next_u32(),
                racks_throttled: rng.next_u32(),
            }),
            _ => Response::Health(HealthReport {
                shard: rng.next_u32(),
                racks: rng.next_u32(),
                coordinated: rng.next_u32(),
                text: (0..rng.gen_range(0..40usize))
                    .map(|_| ['a', 'Z', '0', ' ', '\n', '#', 'µ', '⚡'][rng.gen_range(0..8usize)])
                    .collect(),
            }),
        }
    }

    #[test]
    fn every_op_round_trips_on_random_fields() {
        let mut rng = StdRng::seed_from_u64(0xC0DEC);
        for op in 0..2_000u64 {
            let id = rng.next_u64();
            let request = random_request(&mut rng, op);
            assert_eq!(
                decode_request(&encode_request(id, &request)),
                Ok((id, request))
            );
            let response = random_response(&mut rng, op);
            assert_eq!(
                decode_response(&encode_response(id, &response)),
                Ok((id, response))
            );
        }
    }

    /// Overwrites the first eight-byte run equal to `old`'s bits with `new`'s.
    fn patch_f64(payload: &mut [u8], old: f64, new: f64) {
        let at = payload
            .windows(8)
            .position(|w| w == old.to_le_bytes())
            .expect("field present in the frame");
        payload[at..at + 8].copy_from_slice(&new.to_le_bytes());
    }

    #[test]
    fn out_of_domain_numbers_are_typed_errors() {
        let original = reading();
        for (field, old) in [
            ("event_dod", original.event_dod.value()),
            ("dod", original.dod.value()),
        ] {
            for bad in [f64::NAN, -0.5, 1.5, f64::INFINITY] {
                let mut payload = encode_response(1, &Response::Readings(vec![original]));
                patch_f64(&mut payload, old, bad);
                assert_eq!(
                    decode_response(&payload),
                    Err(WireError::BadValue(field)),
                    "{field} = {bad}"
                );
            }
        }
        let command = |current: f64, limit: f64| {
            Request::ApplyCommandBatch(vec![
                AgentCommand::SetChargeOverride(RackId::new(5), Amperes::new(current)),
                AgentCommand::CapServers(RackId::new(5), Watts::new(limit)),
            ])
        };
        let (current, limit) = (3.25, 5_500.5);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut payload = encode_request(1, &command(current, limit));
            patch_f64(&mut payload, current, bad);
            assert_eq!(
                decode_request(&payload),
                Err(WireError::BadValue("override current")),
                "override current = {bad}"
            );
        }
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut payload = encode_request(1, &command(current, limit));
            patch_f64(&mut payload, limit, bad);
            assert_eq!(
                decode_request(&payload),
                Err(WireError::BadValue("cap limit")),
                "cap limit = {bad}"
            );
        }
        let (now, budget) = (612.5, 47_500.5);
        let tick = Request::TickLeaf {
            now: SimTime::from_secs(now),
            budget: Some(Watts::new(budget)),
        };
        for (field, old) in [("tick time", now), ("leaf budget", budget)] {
            for bad in [f64::NAN, f64::INFINITY] {
                let mut payload = encode_request(1, &tick);
                patch_f64(&mut payload, old, bad);
                assert_eq!(
                    decode_request(&payload),
                    Err(WireError::BadValue(field)),
                    "{field} = {bad}"
                );
            }
        }
        assert_eq!(
            WireError::BadValue("event_dod").to_string(),
            "illegal event_dod value"
        );
    }
}
