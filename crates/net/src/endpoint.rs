//! Transport endpoints: TCP and Unix-domain sockets behind one façade.
//!
//! The mesh is std-only — no async runtime — so connections are plain
//! blocking streams served by threads. [`NetStream`] and [`NetListener`]
//! erase the TCP/UDS split so the framing, server, and client layers are
//! written once. Framed I/O lives here too: [`send_frame`] and [`recv_frame`]
//! move one length-prefixed payload at a time and are careful about the two
//! realities of stream sockets — short reads (a frame can arrive in many
//! pieces) and read timeouts used as poll intervals (a timeout mid-frame must
//! keep accumulating, not corrupt the stream position).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::wire::WireError;

/// Where an [`AgentServer`](crate::server::AgentServer) listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP socket address.
    Tcp(SocketAddr),
    /// A Unix-domain socket path (Unix targets only).
    Unix(PathBuf),
}

impl Endpoint {
    /// An ephemeral loopback TCP endpoint (`127.0.0.1:0`); the listener's
    /// [`local_endpoint`](NetListener::local_endpoint) reports the bound port.
    #[must_use]
    pub fn loopback() -> Self {
        Endpoint::Tcp(SocketAddr::from(([127, 0, 0, 1], 0)))
    }

    /// A fresh Unix-domain socket path under the system temp directory,
    /// unique per process and call.
    #[cfg(unix)]
    #[must_use]
    pub fn unix_temp() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let mut path = std::env::temp_dir();
        path.push(format!("recharge-net-{}-{n}.sock", std::process::id()));
        Endpoint::Unix(path)
    }
}

impl core::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            Endpoint::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

/// A connected stream over either transport.
#[derive(Debug)]
pub enum NetStream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl NetStream {
    /// Connects to `endpoint`, bounded by `timeout`.
    ///
    /// TCP uses `connect_timeout` and disables Nagle — without `TCP_NODELAY`
    /// the request/response cadence of the bus would eat a delayed-ack stall
    /// on every call.
    pub fn connect(endpoint: &Endpoint, timeout: Duration) -> io::Result<Self> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect_timeout(addr, timeout)?;
                stream.set_nodelay(true)?;
                Ok(NetStream::Tcp(stream))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => Ok(NetStream::Unix(UnixStream::connect(path)?)),
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are not available on this target",
            )),
        }
    }

    /// Sets the read timeout used as the poll interval by [`recv_frame`].
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            NetStream::Unix(s) => s.set_read_timeout(timeout),
        }
    }
}

impl Read for NetStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            NetStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for NetStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            NetStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            NetStream::Unix(s) => s.flush(),
        }
    }
}

/// A bound listener over either transport.
#[derive(Debug)]
pub enum NetListener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener (kept with its path for cleanup on drop).
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl NetListener {
    /// Binds to `endpoint`; [`accept`](Self::accept) blocks until a
    /// connection arrives (a server wakes its own accept loop on shutdown
    /// by connecting to it).
    pub fn bind(endpoint: &Endpoint) -> io::Result<Self> {
        match endpoint {
            Endpoint::Tcp(addr) => Ok(NetListener::Tcp(TcpListener::bind(addr)?)),
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                // A stale socket file from a crashed prior run would make
                // bind fail with AddrInUse; remove it first.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                Ok(NetListener::Unix(listener, path.clone()))
            }
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are not available on this target",
            )),
        }
    }

    /// The endpoint actually bound — resolves port 0 to the assigned port.
    pub fn local_endpoint(&self) -> io::Result<Endpoint> {
        match self {
            NetListener::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?)),
            #[cfg(unix)]
            NetListener::Unix(_, path) => Ok(Endpoint::Unix(path.clone())),
        }
    }

    /// Accepts one connection, blocking until one arrives.
    pub fn accept(&self) -> io::Result<NetStream> {
        match self {
            NetListener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true)?;
                Ok(NetStream::Tcp(stream))
            }
            #[cfg(unix)]
            NetListener::Unix(l, _) => Ok(NetStream::Unix(l.accept()?.0)),
        }
    }
}

#[cfg(unix)]
impl Drop for NetListener {
    fn drop(&mut self) {
        if let NetListener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The typed oversize error: an `InvalidData` [`io::Error`] wrapping
/// [`WireError::FrameTooLarge`], recoverable by downcasting
/// [`io::Error::get_ref`] instead of parsing message text.
fn oversize(len: u32, limit: u32) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        WireError::FrameTooLarge { len, limit },
    )
}

/// Writes one frame: `u32` little-endian payload length, then the payload.
///
/// A payload longer than `max_frame_len` is refused before any bytes hit the
/// stream, with a typed [`WireError::FrameTooLarge`] inside the error.
pub fn send_frame(stream: &mut NetStream, payload: &[u8], max_frame_len: u32) -> io::Result<()> {
    if payload.len() > max_frame_len as usize {
        return Err(oversize(payload.len() as u32, max_frame_len));
    }
    let len = (payload.len() as u32).to_le_bytes();
    // One write per frame keeps packet boundaries tidy, but correctness only
    // needs the bytes in order.
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&len);
    buf.extend_from_slice(payload);
    stream.write_all(&buf)?;
    stream.flush()
}

/// Outcome of [`recv_frame`].
#[derive(Debug)]
pub enum FrameRead {
    /// A complete payload arrived.
    Frame(Vec<u8>),
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// `deadline` passed (or the poll-interval timeout fired with `deadline`
    /// unset) without a complete frame; no bytes are lost — the partial frame
    /// stays in `pending` for the next call.
    TimedOut,
}

/// Carry-over state for a partially received frame.
///
/// A read timeout can fire with half a length prefix or half a payload
/// already consumed from the socket; dropping those bytes would desynchronise
/// the stream permanently. Each connection owns one `FrameBuffer` that
/// survives across [`recv_frame`] calls.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    pending: Vec<u8>,
}

impl FrameBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Discards any partial frame (used when a connection is abandoned).
    pub fn clear(&mut self) {
        self.pending.clear();
    }
}

/// Receives one frame, accumulating across short reads and poll timeouts.
///
/// The stream's read timeout acts as the poll granularity; `deadline`, when
/// set, bounds the total wait. A clean EOF *between* frames reports
/// [`FrameRead::Closed`]; an EOF *mid-frame* is a protocol error.
pub fn recv_frame(
    stream: &mut NetStream,
    buffer: &mut FrameBuffer,
    deadline: Option<Instant>,
    max_frame_len: u32,
) -> io::Result<FrameRead> {
    let mut chunk = [0u8; 4096];
    loop {
        // A complete frame may already be buffered from a previous over-read.
        if buffer.pending.len() >= 4 {
            let len = u32::from_le_bytes(buffer.pending[..4].try_into().expect("4 bytes"));
            if len > max_frame_len {
                return Err(oversize(len, max_frame_len));
            }
            let total = 4 + len as usize;
            if buffer.pending.len() >= total {
                let payload = buffer.pending[4..total].to_vec();
                buffer.pending.drain(..total);
                return Ok(FrameRead::Frame(payload));
            }
        }
        if let Some(deadline) = deadline {
            if Instant::now() >= deadline {
                return Ok(FrameRead::TimedOut);
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buffer.pending.is_empty() {
                    Ok(FrameRead::Closed)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                };
            }
            Ok(n) => buffer.pending.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if deadline.is_none() {
                    return Ok(FrameRead::TimedOut);
                }
                // Deadline-bounded read: the poll-interval timeout is not the
                // caller's deadline — loop and re-check.
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MAX_FRAME_LEN;

    /// Extracts a [`WireError::FrameTooLarge`] from an I/O error produced by
    /// [`send_frame`] or [`recv_frame`], if that is what it carries.
    fn as_frame_too_large(err: &io::Error) -> Option<WireError> {
        err.get_ref()
            .and_then(|inner| inner.downcast_ref::<WireError>())
            .filter(|wire| matches!(wire, WireError::FrameTooLarge { .. }))
            .copied()
    }

    fn pair() -> (NetStream, NetStream) {
        let listener = NetListener::bind(&Endpoint::loopback()).expect("bind");
        let endpoint = listener.local_endpoint().expect("endpoint");
        let client = NetStream::connect(&endpoint, Duration::from_secs(1)).expect("connect");
        let server = listener.accept().expect("accept");
        (client, server)
    }

    #[test]
    fn frames_round_trip_over_loopback() {
        let (mut client, mut server) = pair();
        server
            .set_read_timeout(Some(Duration::from_millis(20)))
            .expect("timeout");
        let mut buffer = FrameBuffer::new();

        for payload in [&b"hello"[..], &[], &[0xAB; 10_000]] {
            send_frame(&mut client, payload, MAX_FRAME_LEN).expect("send");
            let deadline = Some(Instant::now() + Duration::from_secs(2));
            match recv_frame(&mut server, &mut buffer, deadline, MAX_FRAME_LEN).expect("recv") {
                FrameRead::Frame(got) => assert_eq!(got, payload),
                other => panic!("expected frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn two_frames_in_one_burst_split_correctly() {
        let (mut client, mut server) = pair();
        server
            .set_read_timeout(Some(Duration::from_millis(20)))
            .expect("timeout");
        send_frame(&mut client, b"first", MAX_FRAME_LEN).expect("send");
        send_frame(&mut client, b"second", MAX_FRAME_LEN).expect("send");

        let mut buffer = FrameBuffer::new();
        let deadline = Some(Instant::now() + Duration::from_secs(2));
        let FrameRead::Frame(a) =
            recv_frame(&mut server, &mut buffer, deadline, MAX_FRAME_LEN).expect("recv")
        else {
            panic!("expected first frame");
        };
        let FrameRead::Frame(b) =
            recv_frame(&mut server, &mut buffer, deadline, MAX_FRAME_LEN).expect("recv")
        else {
            panic!("expected second frame");
        };
        assert_eq!(a, b"first");
        assert_eq!(b, b"second");
    }

    #[test]
    fn timeout_mid_frame_preserves_partial_bytes() {
        let (mut client, mut server) = pair();
        server
            .set_read_timeout(Some(Duration::from_millis(10)))
            .expect("timeout");
        let mut buffer = FrameBuffer::new();

        // Send only the length prefix and half the payload.
        let payload = b"split-frame";
        let len = (payload.len() as u32).to_le_bytes();
        {
            use std::io::Write as _;
            client.write_all(&len).expect("write len");
            client.write_all(&payload[..4]).expect("write half");
            client.flush().expect("flush");
        }
        let deadline = Some(Instant::now() + Duration::from_millis(40));
        match recv_frame(&mut server, &mut buffer, deadline, MAX_FRAME_LEN).expect("recv") {
            FrameRead::TimedOut => {}
            other => panic!("expected timeout, got {other:?}"),
        }

        // The remainder arrives; the buffered prefix must still be intact.
        {
            use std::io::Write as _;
            client.write_all(&payload[4..]).expect("write rest");
            client.flush().expect("flush");
        }
        let deadline = Some(Instant::now() + Duration::from_secs(2));
        match recv_frame(&mut server, &mut buffer, deadline, MAX_FRAME_LEN).expect("recv") {
            FrameRead::Frame(got) => assert_eq!(got, payload),
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn clean_close_between_frames_reports_closed() {
        let (client, mut server) = pair();
        server
            .set_read_timeout(Some(Duration::from_millis(20)))
            .expect("timeout");
        drop(client);
        let mut buffer = FrameBuffer::new();
        let deadline = Some(Instant::now() + Duration::from_secs(2));
        match recv_frame(&mut server, &mut buffer, deadline, MAX_FRAME_LEN).expect("recv") {
            FrameRead::Closed => {}
            other => panic!("expected closed, got {other:?}"),
        }
    }

    #[test]
    fn oversize_frame_is_rejected() {
        let (mut client, mut server) = pair();
        server
            .set_read_timeout(Some(Duration::from_millis(20)))
            .expect("timeout");
        {
            use std::io::Write as _;
            let bad_len = (MAX_FRAME_LEN + 1).to_le_bytes();
            client.write_all(&bad_len).expect("write");
            client.flush().expect("flush");
        }
        let mut buffer = FrameBuffer::new();
        let deadline = Some(Instant::now() + Duration::from_secs(2));
        let err =
            recv_frame(&mut server, &mut buffer, deadline, MAX_FRAME_LEN).expect_err("oversize");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            as_frame_too_large(&err),
            Some(WireError::FrameTooLarge {
                len: MAX_FRAME_LEN + 1,
                limit: MAX_FRAME_LEN,
            })
        );
    }

    #[test]
    fn frame_cap_boundary_is_exact() {
        // A payload exactly at the configured cap crosses; one byte more is
        // refused with the typed error — on both the send and receive sides.
        let cap = 64u32;
        let (mut client, mut server) = pair();
        server
            .set_read_timeout(Some(Duration::from_millis(20)))
            .expect("timeout");
        let mut buffer = FrameBuffer::new();

        let at_cap = vec![0x5A; cap as usize];
        send_frame(&mut client, &at_cap, cap).expect("at-cap send");
        let deadline = Some(Instant::now() + Duration::from_secs(2));
        match recv_frame(&mut server, &mut buffer, deadline, cap).expect("at-cap recv") {
            FrameRead::Frame(got) => assert_eq!(got, at_cap),
            other => panic!("expected frame, got {other:?}"),
        }

        // Send side: refused before any bytes hit the stream.
        let over = vec![0x5A; cap as usize + 1];
        let err = send_frame(&mut client, &over, cap).expect_err("oversize send");
        assert_eq!(
            as_frame_too_large(&err),
            Some(WireError::FrameTooLarge {
                len: cap + 1,
                limit: cap,
            })
        );

        // Receive side: a peer holding a larger cap can still send it; the
        // small-cap receiver rejects it with the typed error.
        send_frame(&mut client, &over, MAX_FRAME_LEN).expect("send past small cap");
        let deadline = Some(Instant::now() + Duration::from_secs(2));
        let err = recv_frame(&mut server, &mut buffer, deadline, cap).expect_err("oversize recv");
        assert_eq!(
            as_frame_too_large(&err),
            Some(WireError::FrameTooLarge {
                len: cap + 1,
                limit: cap,
            })
        );
        // Errors that are not FrameTooLarge do not downcast.
        assert_eq!(
            as_frame_too_large(&io::Error::new(io::ErrorKind::InvalidData, "other")),
            None
        );
    }

    #[cfg(unix)]
    #[test]
    fn unix_endpoint_round_trips() {
        let endpoint = Endpoint::unix_temp();
        let listener = NetListener::bind(&endpoint).expect("bind");
        let bound = listener.local_endpoint().expect("endpoint");
        let mut client = NetStream::connect(&bound, Duration::from_secs(1)).expect("connect");
        let mut server = listener.accept().expect("accept");
        server
            .set_read_timeout(Some(Duration::from_millis(20)))
            .expect("timeout");
        send_frame(&mut client, b"over unix", MAX_FRAME_LEN).expect("send");
        let mut buffer = FrameBuffer::new();
        let deadline = Some(Instant::now() + Duration::from_secs(2));
        match recv_frame(&mut server, &mut buffer, deadline, MAX_FRAME_LEN).expect("recv") {
            FrameRead::Frame(got) => assert_eq!(got, b"over unix"),
            other => panic!("expected frame, got {other:?}"),
        }
        // Dropping the listener removes the socket file.
        let Endpoint::Unix(path) = bound else {
            panic!("expected unix endpoint")
        };
        drop(listener);
        assert!(!path.exists());
    }
}
