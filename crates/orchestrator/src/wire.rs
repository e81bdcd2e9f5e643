//! Cancel-aware, length-prefixed socket framing.
//!
//! lint: io-boundary — this module is a sanctioned socket I/O layer;
//! raw reads/writes anywhere else in the workspace trip the
//! `blocking-accept-loop` lint.
//!
//! The byte-level grammar is the one `netshared::protocol` froze in PR 7
//! — `u32 big-endian payload length` followed by exactly that many
//! payload bytes — hoisted here so the coordinator/worker control
//! channel ([`crate::coord`]) and the `netshared` daemon share one
//! implementation. `netshared::protocol` now delegates to these
//! primitives; this module stays payload-agnostic (callers bring their
//! own serde frame enum and size ceiling).
//!
//! Every blocking read/write runs with an [`IO_POLL`] socket timeout and
//! re-checks the caller's [`CancelToken`] between retries, so shutdown
//! latency is bounded without platform-specific interruption machinery.

use crate::cancel::CancelToken;
use crate::fault::{self, Fault};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How long a blocked socket read/write waits before re-checking the
/// cancel token; bounds shutdown latency.
pub const IO_POLL: Duration = Duration::from_millis(50);

/// Why bytes could not be moved across the socket.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Peer closed the connection cleanly between frames.
    Closed,
    /// Peer vanished mid-frame (truncated payload or short write).
    Truncated,
    /// Length prefix of zero or above the caller's ceiling.
    Oversized(u64),
    /// Socket error other than a timeout.
    Io(String),
    /// The cancel token fired while blocked.
    Cancelled,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated => write!(f, "connection closed mid-frame"),
            WireError::Oversized(n) => write!(f, "frame length {n} outside the allowed range"),
            WireError::Io(m) => write!(f, "socket error: {m}"),
            WireError::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Marks a socket for interruptible I/O: blocked reads and writes wake
/// every [`IO_POLL`] so the token can be checked.
pub fn configure(stream: &TcpStream) -> Result<(), WireError> {
    stream
        .set_read_timeout(Some(IO_POLL))
        .and_then(|_| stream.set_write_timeout(Some(IO_POLL)))
        .map_err(|e| WireError::Io(e.to_string()))
}

/// Whether an I/O error kind means "timed out, try again" rather than a
/// real fault. (Unix reports socket timeouts as `WouldBlock`, Windows as
/// `TimedOut`; `Interrupted` is a plain EINTR.)
pub fn is_retry(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::Interrupted
    )
}

/// Fills `buf` completely, resuming across socket timeouts so a partial
/// read is never lost, and aborting if `token` fires. `clean_close` is
/// what a 0-byte read at offset 0 means (`Closed` between frames,
/// `Truncated` inside one).
pub fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    token: &CancelToken,
    clean_close: bool,
) -> Result<(), WireError> {
    let mut off = 0;
    while off < buf.len() {
        if token.is_cancelled() {
            return Err(WireError::Cancelled);
        }
        match stream.read(&mut buf[off..]) {
            Ok(0) => {
                return Err(if clean_close && off == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated
                });
            }
            Ok(n) => off += n,
            Err(e) if is_retry(e.kind()) => continue,
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    Ok(())
}

/// Writes `bytes` completely, resuming across socket timeouts (a short
/// write keeps its offset) and aborting on `token`. An armed wire
/// [`crate::fault`] may strike here: `torn-frame` lands half the bytes
/// and kills the write side, `reset` kills the socket outright.
pub fn write_all(
    stream: &mut TcpStream,
    bytes: &[u8],
    token: &CancelToken,
) -> Result<(), WireError> {
    if let Some((class, _)) = fault::take(&[Fault::TornFrame, Fault::Reset]) {
        if class == Fault::TornFrame {
            let _ = write_all_inner(stream, &bytes[..bytes.len() / 2], token);
            let _ = stream.shutdown(std::net::Shutdown::Write);
        } else {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        return Err(WireError::Io(format!("injected net fault: {}", class.name())));
    }
    write_all_inner(stream, bytes, token)
}

fn write_all_inner(
    stream: &mut TcpStream,
    bytes: &[u8],
    token: &CancelToken,
) -> Result<(), WireError> {
    let mut off = 0;
    while off < bytes.len() {
        if token.is_cancelled() {
            return Err(WireError::Cancelled);
        }
        match stream.write(&bytes[off..]) {
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => off += n,
            Err(e) if is_retry(e.kind()) => continue,
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    Ok(())
}

/// Prepends the big-endian length prefix to a payload, rejecting empty
/// or over-`max` payloads before anything touches the socket.
pub fn frame(payload: &[u8], max: usize) -> Result<Vec<u8>, WireError> {
    if payload.is_empty() || payload.len() > max {
        return Err(WireError::Oversized(payload.len() as u64));
    }
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Reads one length-prefixed frame and returns its payload bytes,
/// validating the prefix against `1..=max` before allocating. An armed
/// wire [`crate::fault`] may strike here: `stall` delays the read by a
/// bounded token-aware pause, `garbage-bytes` corrupts the payload after
/// it arrives (so the caller's decoder meets a malformed frame).
pub fn read_frame_bytes(
    stream: &mut TcpStream,
    token: &CancelToken,
    max: usize,
) -> Result<Vec<u8>, WireError> {
    let struck = fault::take(&[Fault::Stall, Fault::GarbageBytes]);
    if let Some((Fault::Stall, _)) = struck {
        // The delay is fixed and bounded; determinism lives in *which*
        // read stalls (firing order), not in wall-clock measurements.
        let _ = token.wait_timeout(fault::STALL);
    }
    let mut prefix = [0u8; 4];
    read_full(stream, &mut prefix, token, true)?;
    let len = u32::from_be_bytes(prefix) as usize;
    if len == 0 || len > max {
        return Err(WireError::Oversized(len as u64));
    }
    let mut payload = vec![0u8; len];
    read_full(stream, &mut payload, token, false)?;
    if let Some((Fault::GarbageBytes, seed)) = struck {
        fault::garble(&mut payload, seed);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn frame_prefixes_and_bounds_payloads() {
        let bytes = frame(b"abc", 16).unwrap();
        assert_eq!(&bytes[..4], &3u32.to_be_bytes());
        assert_eq!(&bytes[4..], b"abc");
        assert_eq!(frame(b"", 16), Err(WireError::Oversized(0)));
        assert_eq!(frame(b"four byte overrun", 8), Err(WireError::Oversized(17)));
    }

    #[test]
    fn round_trips_a_frame_over_a_loopback_socket() {
        let (mut client, mut server) = pair();
        configure(&client).unwrap();
        configure(&server).unwrap();
        let token = CancelToken::new();
        write_all(&mut client, &frame(b"{\"Claim\":null}", 64).unwrap(), &token).unwrap();
        let payload = read_frame_bytes(&mut server, &token, 64).unwrap();
        assert_eq!(payload, b"{\"Claim\":null}");
    }

    #[test]
    fn clean_close_and_mid_frame_close_are_distinguished() {
        let (client, mut server) = pair();
        configure(&server).unwrap();
        drop(client);
        let token = CancelToken::new();
        assert_eq!(
            read_frame_bytes(&mut server, &token, 64),
            Err(WireError::Closed)
        );

        let (mut client, mut server) = pair();
        configure(&server).unwrap();
        // A prefix promising 8 bytes, then death.
        write_all(&mut client, &8u32.to_be_bytes(), &token).unwrap();
        drop(client);
        assert_eq!(
            read_frame_bytes(&mut server, &token, 64),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let (mut client, mut server) = pair();
        configure(&server).unwrap();
        let token = CancelToken::new();
        write_all(&mut client, &u32::MAX.to_be_bytes(), &token).unwrap();
        assert_eq!(
            read_frame_bytes(&mut server, &token, 64),
            Err(WireError::Oversized(u64::from(u32::MAX)))
        );
    }

    #[test]
    fn cancellation_interrupts_a_blocked_read() {
        let (_client, mut server) = pair();
        configure(&server).unwrap();
        let token = CancelToken::new();
        token.cancel("test shutdown");
        assert_eq!(
            read_frame_bytes(&mut server, &token, 64),
            Err(WireError::Cancelled)
        );
    }
}
