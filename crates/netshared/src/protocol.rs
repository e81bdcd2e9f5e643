//! Wire protocol: length-prefixed, versioned, serde-encoded frames.
//!
//! lint: io-boundary — this module is a sanctioned socket I/O layer;
//! raw reads/writes anywhere else in the workspace trip the
//! `capability-graph` lint.
//!
//! The byte-level framing (prefix grammar, cancel-aware resumable
//! reads/writes, timeout configuration) lives in [`orchestrator::wire`]
//! since the coordinator/worker control channel adopted the same
//! grammar; this module keeps the daemon-specific [`Frame`] vocabulary
//! and error codes, delegating the socket mechanics.
//!
//! ## Frame grammar (frozen, like the JSONL event schema)
//!
//! Every frame on the wire is `u32 big-endian payload length` followed by
//! exactly that many bytes of JSON encoding one [`Frame`] (externally
//! tagged: `{"Hello":{...}}`). A length of zero or above
//! [`MAX_FRAME_BYTES`] is a protocol violation: the peer answers with an
//! [`Frame::Error`] (`code = "oversized-frame"`) where possible and closes.
//!
//! Conversation shape:
//!
//! ```text
//! client                                server
//!   | -- Hello{version, peer, []} -------> |   (version gate)
//!   | <------ Hello{version, "netshared", |
//!   |                artifact names} ----- |
//!   | -- Subscribe{stream, artifact,       |
//!   |              count, credit} -------> |   (one per stream)
//!   | <-------------- Data{stream, seq,..} |   (consumes 1 credit each)
//!   | -- Credit{stream, frames} ---------> |   (top-up, any time)
//!   | <---------------- Eof{stream, total} |   (after `count` samples)
//!   | <- Error{stream?, code, message} --- |   (instead of panicking)
//! ```
//!
//! Credit is counted in DATA *frames*, not samples: a subscription starts
//! with `credit` frames of budget and the server only sends a DATA frame
//! while budget remains, so a stalled client bounds not just server-side
//! buffering (the stream buffer's capacity cap) but also kernel socket
//! queue growth.

use doppelganger::GeneratedSample;
use orchestrator::wire::{self, WireError};
use orchestrator::CancelToken;
use serde::{Deserialize, Serialize};
use std::net::TcpStream;
use std::time::Duration;

/// Protocol version spoken by this build; bumped on any grammar change.
///
/// * **v1** — the PR 7 grammar.
/// * **v2** — `SUBSCRIBE` gains `from_seq` (resume a stream from a DATA
///   frame index) and the retryable `overloaded` error code. v2 is a
///   strict superset: `from_seq` is `#[serde(default)]`, so v1 JSON
///   still decodes (as `from_seq = 0`, i.e. the whole stream) and the
///   HELLO exchange negotiates down to a v1 peer (see [`MIN_VERSION`]).
///   Where a batch is cut into frames depends on each frame's exact
///   length (`EncodedSamples::frame_len`), which counts the digits of
///   the stream id and of the seq and is compared with the daemon's
///   buffer capacity: a `from_seq` names a frame only under the stream
///   id and capacity the delivered frames were cut for, so a resume
///   re-subscribes on the same stream id against a daemon of the same
///   capacity.
pub const PROTOCOL_VERSION: u32 = 2;

/// Oldest protocol version this build still speaks. The server accepts
/// any client HELLO in `MIN_VERSION..=PROTOCOL_VERSION` and answers with
/// the negotiated (minimum of the two) version.
pub const MIN_VERSION: u32 = 1;

/// Hard ceiling on one frame's payload (prefix values above it are
/// rejected before any allocation happens).
pub const MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// How long a blocked socket read/write waits before re-checking the
/// cancel token; bounds shutdown latency.
pub const IO_POLL: Duration = wire::IO_POLL;

/// `ERROR` code: peer's `HELLO.version` is not [`PROTOCOL_VERSION`].
pub const ERR_VERSION: &str = "unsupported-version";
/// `ERROR` code: `SUBSCRIBE.artifact` names nothing the server loaded.
pub const ERR_UNKNOWN_ARTIFACT: &str = "unknown-artifact";
/// `ERROR` code: length prefix of zero or above [`MAX_FRAME_BYTES`].
pub const ERR_OVERSIZED: &str = "oversized-frame";
/// `ERROR` code: payload bytes did not decode as a frame.
pub const ERR_MALFORMED: &str = "malformed-frame";
/// `ERROR` code: frame arrived that the conversation state disallows
/// (e.g. `SUBSCRIBE` reusing a stream id this connection already used,
/// or a missing `HELLO`).
pub const ERR_PROTOCOL: &str = "protocol-violation";
/// `ERROR` code: the server is draining and takes no new subscriptions.
pub const ERR_DRAINING: &str = "draining";
/// `ERROR` code: admission control shed this connection (`--max-sessions`
/// reached). Retryable — clients back off and reconnect.
pub const ERR_OVERLOADED: &str = "overloaded";

/// One protocol frame. Field order and variant names are part of the
/// frozen wire grammar.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Frame {
    /// Handshake, sent by the client first and answered by the server.
    /// The server's answer lists the artifact names it serves.
    Hello {
        /// Speaker's protocol version.
        version: u32,
        /// Free-form speaker name (diagnostics only).
        peer: String,
        /// Artifacts available for subscription (server→client only;
        /// clients send an empty list).
        artifacts: Vec<String>,
    },
    /// Opens a stream: `count` samples of `artifact`, with an initial
    /// budget of `credit` DATA frames.
    Subscribe {
        /// Client-chosen stream id, unique per connection.
        stream: u64,
        /// Which loaded artifact to sample.
        artifact: String,
        /// Total samples wanted.
        count: u64,
        /// Initial DATA-frame budget.
        credit: u32,
        /// First DATA frame wanted (v2): the server regenerates the
        /// stream deterministically and suppresses frames below this
        /// seq, so a reconnecting client resumes bitwise-identically.
        /// A frame index of this `stream` id's cut (see
        /// [`PROTOCOL_VERSION`]). Absent in v1 frames, which decode as 0
        /// (the whole stream).
        #[serde(default)]
        from_seq: u64,
    },
    /// One batch of generated samples; consumes one credit.
    Data {
        /// Stream id from the `SUBSCRIBE`.
        stream: u64,
        /// Consecutive frame number within the stream, from 0.
        seq: u64,
        /// The samples, in generation order.
        samples: Vec<GeneratedSample>,
    },
    /// Client grants the server `frames` more DATA frames on `stream`.
    Credit {
        /// Stream id.
        stream: u64,
        /// Additional DATA-frame budget.
        frames: u32,
    },
    /// Stream complete: `total` samples were sent.
    Eof {
        /// Stream id.
        stream: u64,
        /// Total samples streamed (equals the subscribed `count`).
        total: u64,
    },
    /// Fault report; `stream` is `None` for connection-level faults
    /// (bad handshake, malformed frame).
    Error {
        /// Affected stream, if the fault is scoped to one.
        stream: Option<u64>,
        /// Machine-readable code (one of the `ERR_*` constants).
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

/// Why a frame could not be read/written.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// Peer closed the connection cleanly between frames.
    Closed,
    /// Peer vanished mid-frame (truncated payload).
    Truncated,
    /// Length prefix of zero or above [`MAX_FRAME_BYTES`].
    Oversized(u64),
    /// Payload bytes did not decode as a [`Frame`].
    Malformed(String),
    /// Socket error other than a timeout.
    Io(String),
    /// The cancel token fired while blocked.
    Cancelled,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::Truncated => write!(f, "connection closed mid-frame"),
            ProtoError::Oversized(n) => {
                write!(f, "frame length {n} outside 1..={MAX_FRAME_BYTES}")
            }
            ProtoError::Malformed(m) => write!(f, "malformed frame: {m}"),
            ProtoError::Io(m) => write!(f, "socket error: {m}"),
            ProtoError::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Maps a byte-layer [`WireError`] into this protocol's error type.
fn from_wire(e: WireError) -> ProtoError {
    match e {
        WireError::Closed => ProtoError::Closed,
        WireError::Truncated => ProtoError::Truncated,
        WireError::Oversized(n) => ProtoError::Oversized(n),
        WireError::Io(m) => ProtoError::Io(m),
        WireError::Cancelled => ProtoError::Cancelled,
    }
}

/// Encodes a frame as its on-wire bytes (length prefix + JSON payload).
/// DATA frames, the only ones that carry bulk, go through the direct
/// byte writer the producer uses (`EncodedSamples`); the rest through
/// `serde_json`.
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>, ProtoError> {
    if let Frame::Data { stream, seq, samples } = frame {
        return EncodedSamples::encode(samples).frame(*stream, *seq, 0..samples.len());
    }
    let payload = serde_json::to_string(frame)
        .map_err(|e| ProtoError::Malformed(format!("encode: {e}")))?;
    wire::frame(payload.as_bytes(), MAX_FRAME_BYTES).map_err(from_wire)
}

/// What follows the samples of a DATA payload.
const DATA_TRAILER: &[u8] = b"]}}";

/// What precedes the samples of the DATA payload for `stream`/`seq`.
fn data_header(stream: u64, seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(b"{\"Data\":{\"stream\":");
    write_u64(&mut out, stream);
    out.extend_from_slice(b",\"seq\":");
    write_u64(&mut out, seq);
    out.extend_from_slice(b",\"samples\":[");
    out
}

fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// The text `serde_json` gives an `f32`: the shortest round-trip decimal
/// of the value widened to `f64` (`{:?}`), `null` when it is not finite.
/// Values that `{:?}` prints in exponent form go through `{:?}` itself.
fn write_f32(out: &mut Vec<u8>, v: f32) {
    use std::io::Write;
    if !v.is_finite() {
        out.extend_from_slice(b"null");
    } else if v.fract() == 0.0 && v.abs() < 1e15 { // lint: allow(float-eq) exact integers only: their `{:?}` text is the digits plus ".0"
        // One-hot segments make exact 0.0 / 1.0 the most common values
        // on the wire; below 1e16 `{:?}` never switches to an exponent.
        if v.is_sign_negative() {
            out.push(b'-');
        }
        write_u64(out, v.abs() as u64);
        out.extend_from_slice(b".0");
    } else if (1e-4..8_388_608.0).contains(&f64::from(v.abs())) {
        write_shortest(out, v);
    } else {
        // lint: allow(panic-in-lib) writing into a Vec cannot fail
        write!(out, "{:?}", f64::from(v)).expect("write to Vec");
    }
}

/// `floor(10^j / 2^30)`: half the gap between neighbouring `f64`s at a
/// widened `f32`, in units of the `f32`'s own last place, after `j`
/// decimal digits of its fraction.
const HALF_GAP: [u64; 23] = {
    let mut table = [0u64; 23];
    let (mut pow10, mut j) = (1u128, 0);
    while j < table.len() {
        table[j] = (pow10 >> 30) as u64;
        pow10 *= 10;
        j += 1;
    }
    table
};

/// `{:?}` of `f64::from(v)` for a non-integer `v` of magnitude at least
/// 1e-4 (so normal, below 2^23, and printed without exponent), at less
/// than half of what `{:?}` costs: the format machinery is
/// skipped and the arithmetic fits a `u64` because the widened value has
/// only 24 significant bits.
///
/// The digits are those of the free-format algorithm behind `{:?}`
/// (Steele–White / Burger–Dybvig, `core::num::flt2dec`): the integer
/// part, then fraction digits until what is left of the value (`down`),
/// or what is missing to the next digit (`up`), is within half the gap to
/// the neighbouring `f64` — the bounds count as within, since the widened
/// mantissa is even — then the last digit goes up if that is closer, or
/// as close. `v` is `m · 2^-s` with `2^23 <= m < 2^24`; the half-gap is
/// `2^-30` of `m`'s last place, and half of that below a power of two.
fn write_shortest(out: &mut Vec<u8>, v: f32) {
    let bits = v.to_bits();
    let m = u64::from(bits & 0x7f_ffff | 0x80_0000);
    let s = 150 - (bits >> 23 & 0xff); // 1..=37 for 1e-4 <= |v| < 2^23
    let one = 1u64 << s;
    // A sign, at most 8 integer digits, the point, at most 22 fraction
    // digits: `HALF_GAP[22] >= 2^37`, so digit 22 always ends the loop.
    let mut text = [0u8; 32];
    let mut start = 9;
    let mut int = m >> s;
    loop {
        start -= 1;
        text[start] = b'0' + (int % 10) as u8;
        int /= 10;
        if int == 0 {
            break;
        }
    }
    text[9] = b'.';
    let mut end = 10;
    let mut rest = m & (one - 1);
    let round_up = loop {
        rest *= 10;
        text[end] = b'0' + (rest >> s) as u8;
        end += 1;
        rest &= one - 1;
        let gap = HALF_GAP[end - 10];
        let down = rest <= if m == 0x80_0000 { gap / 2 } else { gap };
        let up = one - rest <= gap;
        if down || up {
            break up && (!down || 2 * rest >= one);
        }
    };
    if round_up {
        let mut at = end;
        loop {
            at -= 1;
            match text[at] {
                b'.' => {}
                b'9' => {
                    text[at] = b'0';
                    if at == start {
                        start -= 1;
                        text[start] = b'1';
                        break;
                    }
                }
                digit => {
                    text[at] = digit + 1;
                    break;
                }
            }
        }
    }
    if v.is_sign_negative() {
        start -= 1;
        text[start] = b'-';
    }
    out.extend_from_slice(&text[start..end]);
}

fn write_f32s(out: &mut Vec<u8>, values: &[f32]) {
    out.push(b'[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_f32(out, v);
    }
    out.push(b']');
}

#[cfg(test)]
thread_local! {
    /// How many samples this thread has encoded, for the tests that count
    /// encodes per batch.
    pub(crate) static SAMPLE_ENCODES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn write_sample(out: &mut Vec<u8>, sample: &GeneratedSample) {
    #[cfg(test)]
    SAMPLE_ENCODES.with(|n| n.set(n.get() + 1));
    out.extend_from_slice(b"{\"meta\":");
    write_f32s(out, &sample.meta);
    out.extend_from_slice(b",\"records\":[");
    for (i, record) in sample.records.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_f32s(out, record);
    }
    out.extend_from_slice(b"]}");
}

/// The JSON text of a run of samples, each encoded once, from which the
/// DATA frame of any contiguous sub-run can be sized exactly and cut
/// without encoding anything again. The bytes are those
/// `serde_json::to_string(&Frame::Data { .. })` produces (the grammar is
/// frozen; `tests::data_writer_matches_serde_json` pins it).
pub(crate) struct EncodedSamples {
    /// Every sample's text followed by a comma, so a sub-run's text minus
    /// its last byte is the comma-joined array body.
    text: Vec<u8>,
    /// `ends[i]` is where sample `i`'s text-and-comma ends in `text`.
    ends: Vec<usize>,
}

impl EncodedSamples {
    pub(crate) fn encode(samples: &[GeneratedSample]) -> Self {
        let mut text = Vec::new();
        let mut ends = Vec::with_capacity(samples.len());
        for sample in samples {
            write_sample(&mut text, sample);
            text.push(b',');
            ends.push(text.len());
        }
        EncodedSamples { text, ends }
    }

    /// The comma-joined text of samples `range`.
    fn body(&self, range: std::ops::Range<usize>) -> &[u8] {
        if range.is_empty() {
            return &[];
        }
        let start = if range.start == 0 { 0 } else { self.ends[range.start - 1] };
        &self.text[start..self.ends[range.end - 1] - 1]
    }

    /// On-wire length (prefix included) of the DATA frame `stream`/`seq`
    /// carrying samples `range`; what [`Self::frame`] would return, were
    /// it within [`MAX_FRAME_BYTES`].
    pub(crate) fn frame_len(&self, stream: u64, seq: u64, range: std::ops::Range<usize>) -> usize {
        4 + data_header(stream, seq).len() + self.body(range).len() + DATA_TRAILER.len()
    }

    /// The on-wire bytes of the DATA frame `stream`/`seq` carrying
    /// samples `range`.
    pub(crate) fn frame(
        &self,
        stream: u64,
        seq: u64,
        range: std::ops::Range<usize>,
    ) -> Result<Vec<u8>, ProtoError> {
        let (header, body) = (data_header(stream, seq), self.body(range));
        let len = header.len() + body.len() + DATA_TRAILER.len();
        if len > MAX_FRAME_BYTES {
            return Err(ProtoError::Oversized(len as u64));
        }
        let mut out = Vec::with_capacity(4 + len);
        out.extend_from_slice(&(len as u32).to_be_bytes());
        out.extend_from_slice(&header);
        out.extend_from_slice(body);
        out.extend_from_slice(DATA_TRAILER);
        Ok(out)
    }
}

/// Decodes one frame from payload bytes (the length prefix already
/// stripped and validated).
pub fn decode_frame(payload: &[u8]) -> Result<Frame, ProtoError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| ProtoError::Malformed(format!("payload not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| ProtoError::Malformed(e.to_string()))
}

/// Marks a socket for interruptible I/O: blocked reads and writes wake
/// every [`IO_POLL`] so the token can be checked.
pub fn configure(stream: &TcpStream) -> Result<(), ProtoError> {
    wire::configure(stream).map_err(from_wire)
}

/// Reads one complete frame, blocking (interruptibly) until it arrives.
pub fn read_frame(stream: &mut TcpStream, token: &CancelToken) -> Result<Frame, ProtoError> {
    let payload = wire::read_frame_bytes(stream, token, MAX_FRAME_BYTES).map_err(from_wire)?;
    decode_frame(&payload)
}

/// Writes pre-encoded frame bytes completely, resuming across socket
/// timeouts (a short write keeps its offset) and aborting on `token`.
pub fn write_encoded(
    stream: &mut TcpStream,
    bytes: &[u8],
    token: &CancelToken,
) -> Result<(), ProtoError> {
    wire::write_all(stream, bytes, token).map_err(from_wire)
}

/// Encodes and writes one frame.
pub fn write_frame(
    stream: &mut TcpStream,
    frame: &Frame,
    token: &CancelToken,
) -> Result<(), ProtoError> {
    let bytes = encode_frame(frame)?;
    write_encoded(stream, &bytes, token)
}

/// The frame bytes as every frame was produced before DATA got its own
/// writer: the derived `Serialize` through `serde_json`, then the prefix.
/// The oracle the DATA writer and the splitter are tested against.
#[cfg(test)]
pub(crate) fn serde_frame(frame: &Frame) -> Result<Vec<u8>, ProtoError> {
    let payload = serde_json::to_string(frame).expect("serde_json encodes every frame");
    wire::frame(payload.as_bytes(), MAX_FRAME_BYTES).map_err(from_wire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `f32` bit patterns with the ones a decimal writer gets wrong
    /// over-represented: non-finite values, signed zeros, subnormals, the
    /// extremes, exact integers on both sides of every cut-over in
    /// `write_f32` and `{:?}` (2^24, 1e15, 1e16), and exponent-form
    /// magnitudes.
    fn hostile_f32() -> impl Strategy<Value = f32> {
        const SPECIAL: &[f32] = &[
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1.0,
            -1.0,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            f32::EPSILON,
            16_777_216.0,
            -16_777_217.0,
            9.999_999e14,
            1e15,
            -1e15,
            9.999_999e15,
            1e16,
            1e-4,
            9.999_999e-5,
            -1e-5,
            0.1,
            0.5,
            1.5,
            -2.5,
            1e-38,
        ];
        prop_oneof![
            any::<u32>().prop_map(f32::from_bits),
            (0usize..SPECIAL.len()).prop_map(|i| SPECIAL[i]),
            // Subnormals: exponent bits zero, either sign.
            any::<u32>().prop_map(|b| f32::from_bits(b & 0x807f_ffff)),
        ]
    }

    fn hostile_u64() -> impl Strategy<Value = u64> {
        prop_oneof![
            any::<u64>(),
            (0usize..6).prop_map(|i| [0, 9, 10, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX][i]),
        ]
    }

    fn hostile_sample() -> impl Strategy<Value = GeneratedSample> {
        (
            prop::collection::vec(hostile_f32(), 0..8),
            prop::collection::vec(prop::collection::vec(hostile_f32(), 0..5), 0..4),
        )
            .prop_map(|(meta, records)| GeneratedSample { meta, records })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn f32_text_is_serde_jsons(v in hostile_f32()) {
            let mut text = Vec::new();
            write_f32(&mut text, v);
            let text = String::from_utf8(text).unwrap();
            prop_assert_eq!(&text, &serde_json::to_string(&v).unwrap(), "{:?} ({:#x})", v, v.to_bits());
        }

        #[test]
        fn data_writer_matches_serde_json(
            stream in hostile_u64(),
            seq in hostile_u64(),
            samples in prop::collection::vec(hostile_sample(), 0..5),
        ) {
            let frame = Frame::Data { stream, seq, samples: samples.clone() };
            let bytes = encode_frame(&frame).unwrap();
            prop_assert_eq!(&bytes, &serde_frame(&frame).unwrap());

            // Finite values come back bit for bit, the rest as NaN.
            let same = |back: &[f32], sent: &[f32]| {
                back.len() == sent.len()
                    && back.iter().zip(sent).all(|(b, s)| {
                        if s.is_finite() { b.to_bits() == s.to_bits() } else { b.is_nan() }
                    })
            };
            match decode_frame(&bytes[4..]) {
                Ok(Frame::Data { stream: s, seq: q, samples: back }) => {
                    prop_assert_eq!((s, q, back.len()), (stream, seq, samples.len()));
                    for (b, sent) in back.iter().zip(&samples) {
                        prop_assert!(same(&b.meta, &sent.meta));
                        prop_assert_eq!(b.records.len(), sent.records.len());
                        for (br, sr) in b.records.iter().zip(&sent.records) {
                            prop_assert!(same(br, sr));
                        }
                    }
                }
                other => return Err(TestCaseError::Fail(format!("bad decode: {other:?}"))),
            }

            // Any sub-run cut from one encoding is the frame of that
            // sub-run, and is sized without being cut.
            let encoded = EncodedSamples::encode(&samples);
            for start in 0..=samples.len() {
                for end in start..=samples.len() {
                    let sub = Frame::Data { stream, seq, samples: samples[start..end].to_vec() };
                    let cut = encoded.frame(stream, seq, start..end).unwrap();
                    prop_assert_eq!(&cut, &serde_frame(&sub).unwrap());
                    prop_assert_eq!(encoded.frame_len(stream, seq, start..end), cut.len());
                }
            }
        }
    }

    #[test]
    fn data_frame_over_the_wire_ceiling_is_oversized() {
        // 0.1f32 widens to 0.10000000149011612: 20 bytes with its comma.
        let big = GeneratedSample { meta: vec![0.1; MAX_FRAME_BYTES / 20 + 1], records: vec![] };
        let frame = Frame::Data { stream: 1, seq: 0, samples: vec![big] };
        assert!(matches!(encode_frame(&frame), Err(ProtoError::Oversized(n)) if n > MAX_FRAME_BYTES as u64));
    }

    #[test]
    fn encode_prepends_big_endian_length() {
        let bytes = encode_frame(&Frame::Credit { stream: 1, frames: 2 }).unwrap();
        let len = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        assert_eq!(len, bytes.len() - 4);
        assert_eq!(decode_frame(&bytes[4..]).unwrap(), Frame::Credit { stream: 1, frames: 2 });
    }

    #[test]
    fn decode_rejects_non_utf8_and_non_frame_payloads() {
        assert!(matches!(decode_frame(&[0xff, 0xfe]), Err(ProtoError::Malformed(_))));
        assert!(matches!(decode_frame(b"{\"Nope\":{}}"), Err(ProtoError::Malformed(_))));
        assert!(matches!(decode_frame(b"[1,2"), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn v1_subscribe_without_from_seq_decodes_as_zero() {
        // Bytes a v1 client puts on the wire, verbatim: no `from_seq`.
        let v1 = br#"{"Subscribe":{"stream":1,"artifact":"demo","count":10,"credit":4}}"#;
        match decode_frame(v1).unwrap() {
            Frame::Subscribe { stream, artifact, count, credit, from_seq } => {
                assert_eq!((stream, count, credit, from_seq), (1, 10, 4, 0));
                assert_eq!(artifact, "demo");
            }
            other => panic!("decoded as {other:?}"),
        }
    }

    #[test]
    fn v2_subscribe_round_trips_from_seq() {
        let f = Frame::Subscribe {
            stream: 3,
            artifact: "demo".into(),
            count: 100,
            credit: 4,
            from_seq: 17,
        };
        let bytes = encode_frame(&f).unwrap();
        assert_eq!(decode_frame(&bytes[4..]).unwrap(), f);
        // v2 is a strict superset of v1.
        const { assert!(PROTOCOL_VERSION > MIN_VERSION) };
    }

    #[test]
    fn error_frame_carries_optional_stream() {
        for stream in [None, Some(7u64)] {
            let f = Frame::Error {
                stream,
                code: ERR_MALFORMED.to_string(),
                message: "x".to_string(),
            };
            let bytes = encode_frame(&f).unwrap();
            assert_eq!(decode_frame(&bytes[4..]).unwrap(), f);
        }
    }
}
