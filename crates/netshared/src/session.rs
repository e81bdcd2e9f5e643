//! Per-connection session: handshake, subscription management, and the
//! per-stream producer/sender thread pair.
//!
//! Thread model, per connection:
//!
//! * the **session thread** (spawned by the server's accept loop) runs
//!   the handshake, then loops reading client frames (`SUBSCRIBE`,
//!   `CREDIT`), beating the watchdog heartbeat on every arrival;
//! * each subscription spawns a **producer** thread — rebuilds the
//!   artifact's sampler, walks a [`SampleCursor`](doppelganger::SampleCursor)
//!   batch-by-batch, encodes DATA frames, and pushes them into the
//!   stream's bounded [`StreamBuf`] (blocking at the capacity cap:
//!   backpressure, not memory growth) — and a **sender** thread that
//!   takes one client credit, pulls the next frame in sequence order,
//!   and writes it to the shared socket;
//! * teardown (client disconnect, malformed frame, watchdog eviction, or
//!   server drain) cancels the session token; every blocked wait in the
//!   buffer, credit gate, and socket I/O polls that token, so the
//!   session unwinds without orphaned threads.

use crate::buffer::{Pulled, StreamBuf};
use crate::{lock, wait_timeout};
use crate::protocol::{
    self, EncodedSamples, Frame, ProtoError, ERR_DRAINING, ERR_MALFORMED, ERR_OVERSIZED, ERR_PROTOCOL,
    ERR_UNKNOWN_ARTIFACT, ERR_VERSION, PROTOCOL_VERSION,
};
use crate::seek::Served;
use crate::server::ServerStats;
use doppelganger::GeneratedSample;
use orchestrator::watchdog::Watchdog;
use orchestrator::{CancelToken, Heartbeat};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use telemetry::metrics::LazyCounter;

static RESUME_SEEKS: LazyCounter = LazyCounter::new("netshared.resume.seeks");
static RESUME_REPLAYED_BATCHES: LazyCounter = LazyCounter::new("netshared.resume.replayed_batches");

/// How long a sender blocked on zero credit sleeps between token checks.
const CREDIT_POLL: Duration = Duration::from_millis(20);

/// DATA-frame budget for one stream: starts at the `SUBSCRIBE` credit,
/// topped up by `CREDIT` frames, drawn down one per DATA frame sent.
struct CreditGate {
    budget: Mutex<u64>,
    cv: Condvar,
    stats: Arc<ServerStats>,
}

impl CreditGate {
    fn new(initial: u32, stats: Arc<ServerStats>) -> Self {
        CreditGate {
            budget: Mutex::new(u64::from(initial)),
            cv: Condvar::new(),
            stats,
        }
    }

    fn add(&self, frames: u32) {
        let mut budget = lock(&self.budget); // lint: lock-order(netshared.credit_budget)
        *budget += u64::from(frames);
        self.cv.notify_all();
    }

    /// Takes one credit, blocking while the budget is zero. Counts one
    /// `netshared.stream.credit_stalls` per stall episode. `false` means
    /// the token fired first.
    fn take(&self, token: &CancelToken) -> bool {
        let mut budget = lock(&self.budget); // lint: lock-order(netshared.credit_budget)
        let mut stalled = false;
        while *budget == 0 {
            if token.is_cancelled() {
                return false;
            }
            if !stalled {
                stalled = true;
                telemetry::metrics::counter("netshared.stream.credit_stalls").inc();
                self.stats.credit_stalls.fetch_add(1, Ordering::Relaxed);
            }
            budget = wait_timeout(&self.cv, budget, CREDIT_POLL);
        }
        *budget -= 1;
        true
    }
}

/// Everything a session needs from the server.
pub(crate) struct SessionCtx {
    /// Session id (diagnostics + watchdog job name).
    pub id: u64,
    /// Artifacts on offer, by name.
    pub bundles: Arc<BTreeMap<String, Arc<Served>>>,
    /// Per-stream buffer capacity cap in bytes.
    pub capacity_bytes: usize,
    /// Session-scoped token; the server cancels it on shutdown, the
    /// watchdog on idle eviction.
    pub token: CancelToken,
    /// Shared server statistics.
    pub stats: Arc<ServerStats>,
    /// Idle-eviction watchdog (None when no idle timeout is configured).
    pub watchdog: Option<Arc<Watchdog>>,
    /// Set while the server drains: new subscriptions are refused.
    pub draining: Arc<AtomicBool>,
}

struct StreamHandle {
    buf: Arc<StreamBuf>,
    credit: Arc<CreditGate>,
    producer: std::thread::JoinHandle<()>,
    sender: std::thread::JoinHandle<()>,
}

/// Sends a frame on the shared write half, swallowing I/O errors (the
/// read side will observe the broken connection and tear down).
fn send(writer: &Mutex<TcpStream>, frame: &Frame, token: &CancelToken) -> bool {
    let mut sock = lock(writer); // lint: lock-order(netshared.socket_writer)
    protocol::write_frame(&mut sock, frame, token).is_ok()
}

fn send_error(
    writer: &Mutex<TcpStream>,
    token: &CancelToken,
    stats: &ServerStats,
    stream: Option<u64>,
    code: &str,
    message: String,
) {
    stats.errors_sent.fetch_add(1, Ordering::Relaxed);
    telemetry::metrics::counter("netshared.errors.sent").inc();
    send(
        writer,
        &Frame::Error { stream, code: code.to_string(), message },
        token,
    );
}

/// Cuts one generated batch into DATA frames and hands each to `push`
/// (the stream buffer): the whole batch as one frame if that fits
/// `capacity` (the buffer's) and the wire ceiling, otherwise its halves,
/// recursively, so one frame never monopolizes the whole buffer. Returns
/// `false` once `push` refuses a frame (the stream closed) or a single
/// sample is over the wire ceiling.
///
/// Every sample is encoded exactly once, up front; the halving works on
/// exact frame lengths computed from the encoded text, and only frames
/// that will be pushed are assembled.
///
/// Frames with `seq < from_seq` are *suppressed*: they are still sized
/// and still advance `next_seq` — so batch-split decisions, frame
/// boundaries, and downstream seq numbers are bitwise-identical to an
/// uninterrupted stream — but they are never assembled and never enter
/// the buffer. This is what makes a v2 resume (`SUBSCRIBE.from_seq`)
/// exact: the producer replays the deterministic generation — from the
/// nearest batch boundary the seek index holds, else from sample 0 —
/// and skips the delivered prefix.
fn push_samples(
    stream: u64,
    samples: &[GeneratedSample],
    next_seq: &mut u64,
    from_seq: u64,
    capacity: usize,
    push: &mut impl FnMut(Vec<u8>) -> bool,
) -> bool {
    let encoded = EncodedSamples::encode(samples);
    push_range(stream, &encoded, 0..samples.len(), next_seq, from_seq, capacity, push)
}

fn push_range(
    stream: u64,
    encoded: &EncodedSamples,
    range: std::ops::Range<usize>,
    next_seq: &mut u64,
    from_seq: u64,
    capacity: usize,
    push: &mut impl FnMut(Vec<u8>) -> bool,
) -> bool {
    if range.is_empty() {
        return true;
    }
    let len = encoded.frame_len(stream, *next_seq, range.clone());
    let over_wire = len - 4 > protocol::MAX_FRAME_BYTES;
    if range.len() > 1 && (over_wire || len > capacity) {
        let mid = range.start + range.len() / 2;
        return push_range(stream, encoded, range.start..mid, next_seq, from_seq, capacity, push)
            && push_range(stream, encoded, mid..range.end, next_seq, from_seq, capacity, push);
    }
    if over_wire {
        return false;
    }
    // Below `from_seq` the client already has the frame.
    if *next_seq >= from_seq && !encoded.frame(stream, *next_seq, range).is_ok_and(&mut *push) {
        return false;
    }
    *next_seq += 1;
    true
}

/// The producer thread body: sampler rebuild + cursor walk + encode +
/// push. Finishes the buffer with the produced total (which the sender
/// turns into EOF) or closes it on failure.
///
/// A resume (`from_seq > 0`) starts the walk at the nearest boundary the
/// artifact's seek index holds for this stream id; what is left between
/// that boundary and `from_seq` — the whole prefix when the index has
/// nothing — is regenerated and suppressed by [`push_samples`].
#[allow(clippy::too_many_arguments)]
fn produce(
    stream: u64,
    count: u64,
    from_seq: u64,
    served: Arc<Served>,
    buf: Arc<StreamBuf>,
    token: CancelToken,
    writer: Arc<Mutex<TcpStream>>,
    stats: Arc<ServerStats>,
) {
    let _span = telemetry::span!("netshared/produce[{}]", stream);
    // Spin-up is milliseconds of uninterrupted arithmetic (rebuild + the
    // first batch) on a thread the scheduler has just handed a fresh
    // slice. When that thread is born on the CPU of the peer that wrote
    // SUBSCRIBE — loopback on a one- or two-core host, where the session
    // thread's wake-up preempted the peer inside its `write` — the peer
    // would sit runnable for that whole slice. Stand aside for what is
    // already queued here: the first yield goes to the sender thread
    // spawned beside this one (it blocks at once on the empty buffer),
    // the second to the peer. Alone on a CPU both return immediately.
    std::thread::yield_now();
    std::thread::yield_now();
    let bundle = &served.bundle;
    let mut model = match bundle.rebuild() {
        Ok(m) => m,
        Err(e) => {
            send_error(
                &writer,
                &token,
                &stats,
                Some(stream),
                ERR_UNKNOWN_ARTIFACT,
                format!("artifact {:?} failed to rebuild: {e}", bundle.name),
            );
            buf.close();
            return;
        }
    };
    let mut cursor = match model.sample_cursor(count as usize) {
        Ok(c) => c,
        Err(e) => {
            send_error(
                &writer,
                &token,
                &stats,
                Some(stream),
                ERR_UNKNOWN_ARTIFACT,
                format!("artifact {:?} cannot stream: {e}", bundle.name),
            );
            buf.close();
            return;
        }
    };
    let mut next_seq = 0u64;
    if from_seq > 0 {
        if let Some((seq, mark)) = served.seeks.nearest(stream, from_seq, count) {
            if cursor.seek(mark).is_ok() {
                next_seq = seq;
                stats.resume_seeks.fetch_add(1, Ordering::Relaxed);
                RESUME_SEEKS.get().inc();
            }
        }
    }
    // Batches regenerated only for `push_samples` to suppress.
    let mut replayed = 0u64;
    let finished = loop {
        // Another batch follows, so every batch so far was a full one.
        if cursor.remaining() > 0 {
            served.seeks.record(stream, next_seq, cursor.mark());
        }
        let Some(batch) = cursor.next_batch() else {
            break true;
        };
        if token.is_cancelled() {
            break false;
        }
        replayed += u64::from(next_seq < from_seq);
        let mut push = |bytes| buf.push(bytes, &token);
        if !push_samples(stream, &batch, &mut next_seq, from_seq, buf.capacity(), &mut push) {
            break false;
        }
    };
    if replayed > 0 {
        stats.resume_replayed_batches.fetch_add(replayed, Ordering::Relaxed);
        RESUME_REPLAYED_BATCHES.get().add(replayed);
    }
    if finished {
        // EOF carries the *full* stream total even on a resume: the client
        // checks its cumulative sample count across reconnects against it.
        buf.finish(cursor.produced() as u64);
    }
}

/// The sender thread body: one credit, one frame, in sequence order.
fn dispatch(
    stream: u64,
    buf: Arc<StreamBuf>,
    credit: Arc<CreditGate>,
    token: CancelToken,
    writer: Arc<Mutex<TcpStream>>,
    stats: Arc<ServerStats>,
    heartbeat: Heartbeat,
) {
    loop {
        if !credit.take(&token) {
            break;
        }
        match buf.pull(&token) {
            Pulled::Frame(_, bytes) => {
                let mut sock = lock(&writer); // lint: lock-order(netshared.socket_writer)
                if protocol::write_encoded(&mut sock, &bytes, &token).is_err() {
                    break;
                }
                drop(sock);
                stats.frames_sent.fetch_add(1, Ordering::Relaxed);
                telemetry::metrics::counter("netshared.frames.sent").inc();
                heartbeat.beat(0);
            }
            Pulled::Finished(total) => {
                if send(&writer, &Frame::Eof { stream, total }, &token) {
                    stats.eofs_sent.fetch_add(1, Ordering::Relaxed);
                }
                break;
            }
            Pulled::Closed => break,
        }
    }
    stats.streams_open.fetch_sub(1, Ordering::Relaxed);
    telemetry::metrics::gauge("netshared.streams.open").add(-1.0);
}

/// Runs one client connection to completion. Returns when the client
/// disconnects, a protocol fault closes the connection, or the session
/// token fires (server shutdown / idle eviction).
pub(crate) fn run_session(stream: TcpStream, ctx: SessionCtx) {
    let _span = telemetry::span!("netshared/session[{}]", ctx.id);
    ctx.stats.sessions_open.fetch_add(1, Ordering::Relaxed);
    telemetry::metrics::gauge("netshared.sessions.open").add(1.0);
    let heartbeat = Heartbeat::new();
    // First beat arms staleness detection: a session idle from the very
    // start must still be evictable.
    heartbeat.beat(0);
    let _watch = ctx.watchdog.as_ref().map(|dog| {
        dog.register(
            &format!("session-{}", ctx.id),
            0,
            heartbeat.clone(),
            ctx.token.clone(),
        )
    });

    let mut streams: BTreeMap<u64, StreamHandle> = BTreeMap::new();
    serve_client(&stream, &ctx, &heartbeat, &mut streams);

    // Teardown: stop producers/senders, then join them.
    ctx.token.cancel("session closed");
    for handle in streams.values() {
        handle.buf.close();
        handle.credit.add(0); // wake a sender blocked on credit
    }
    for handle in std::mem::take(&mut streams).into_values() {
        let _ = handle.producer.join();
        let _ = handle.sender.join();
    }
    if let Some(reason) = ctx.token.reason() {
        if reason.contains("heartbeat stale") || reason.contains("deadline exceeded") {
            ctx.stats.evictions.fetch_add(1, Ordering::Relaxed);
            telemetry::metrics::counter("netshared.evictions").inc();
        }
    }
    ctx.stats.sessions_open.fetch_sub(1, Ordering::Relaxed);
    telemetry::metrics::gauge("netshared.sessions.open").add(-1.0);
}

/// Handshake + read loop. Split out of [`run_session`] so teardown runs
/// on every exit path.
fn serve_client(
    stream: &TcpStream,
    ctx: &SessionCtx,
    heartbeat: &Heartbeat,
    streams: &mut BTreeMap<u64, StreamHandle>,
) {
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    if protocol::configure(stream).is_err() {
        return;
    }
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };

    // Handshake: the client speaks first; the server accepts any version
    // in `MIN_VERSION..=PROTOCOL_VERSION` and answers with the
    // negotiated (minimum) version, so v1 clients keep working against a
    // v2 server (`from_seq` is additive; v1 simply never sends it).
    let negotiated = match protocol::read_frame(&mut reader, &ctx.token) {
        Ok(Frame::Hello { version, .. })
            if (protocol::MIN_VERSION..=PROTOCOL_VERSION).contains(&version) =>
        {
            version
        }
        Ok(Frame::Hello { version, .. }) => {
            send_error(
                &writer,
                &ctx.token,
                &ctx.stats,
                None,
                ERR_VERSION,
                format!(
                    "server speaks versions {}..={PROTOCOL_VERSION}, client sent {version}",
                    protocol::MIN_VERSION
                ),
            );
            return;
        }
        Ok(other) => {
            send_error(
                &writer,
                &ctx.token,
                &ctx.stats,
                None,
                ERR_PROTOCOL,
                format!("expected HELLO, got {}", frame_name(&other)),
            );
            return;
        }
        Err(e) => {
            report_read_error(&writer, ctx, e);
            return;
        }
    };
    heartbeat.beat(0);
    let artifacts: Vec<String> = ctx.bundles.keys().cloned().collect();
    if !send(
        &writer,
        &Frame::Hello {
            version: negotiated,
            peer: "netshared".to_string(),
            artifacts,
        },
        &ctx.token,
    ) {
        return;
    }

    loop {
        match protocol::read_frame(&mut reader, &ctx.token) {
            Ok(frame) => {
                heartbeat.beat(0);
                if !handle_frame(frame, ctx, &writer, streams) {
                    return;
                }
            }
            Err(ProtoError::Closed) | Err(ProtoError::Truncated) | Err(ProtoError::Cancelled) => {
                return;
            }
            Err(e) => {
                report_read_error(&writer, ctx, e);
                return;
            }
        }
    }
}

/// Dispatches one client frame; `false` ends the session.
fn handle_frame(
    frame: Frame,
    ctx: &SessionCtx,
    writer: &Arc<Mutex<TcpStream>>,
    streams: &mut BTreeMap<u64, StreamHandle>,
) -> bool {
    match frame {
        Frame::Subscribe { stream, artifact, count, credit, from_seq } => {
            if ctx.draining.load(Ordering::Relaxed) {
                send_error(
                    writer,
                    &ctx.token,
                    &ctx.stats,
                    Some(stream),
                    ERR_DRAINING,
                    "server is draining; no new subscriptions".to_string(),
                );
                return true;
            }
            if streams.contains_key(&stream) {
                send_error(
                    writer,
                    &ctx.token,
                    &ctx.stats,
                    Some(stream),
                    ERR_PROTOCOL,
                    format!("stream {stream} already subscribed on this connection"),
                );
                return true;
            }
            let Some(served) = ctx.bundles.get(&artifact) else {
                send_error(
                    writer,
                    &ctx.token,
                    &ctx.stats,
                    Some(stream),
                    ERR_UNKNOWN_ARTIFACT,
                    format!("no artifact named {artifact:?} is loaded"),
                );
                return true;
            };
            telemetry::metrics::counter("netshared.subscribes").inc();
            ctx.stats.streams_open.fetch_add(1, Ordering::Relaxed);
            telemetry::metrics::gauge("netshared.streams.open").add(1.0);
            let buf = Arc::new(StreamBuf::with_stats(ctx.capacity_bytes, Arc::clone(&ctx.stats)));
            let gate = Arc::new(CreditGate::new(credit, Arc::clone(&ctx.stats)));
            let producer = {
                let (served, buf) = (Arc::clone(served), Arc::clone(&buf));
                let (token, writer) = (ctx.token.clone(), Arc::clone(writer));
                let stats = Arc::clone(&ctx.stats);
                std::thread::spawn(move || {
                    produce(stream, count, from_seq, served, buf, token, writer, stats)
                })
            };
            let sender = {
                let (buf, gate) = (Arc::clone(&buf), Arc::clone(&gate));
                let (token, writer) = (ctx.token.clone(), Arc::clone(writer));
                let stats = Arc::clone(&ctx.stats);
                let heartbeat = Heartbeat::new();
                std::thread::spawn(move || {
                    dispatch(stream, buf, gate, token, writer, stats, heartbeat)
                })
            };
            streams.insert(stream, StreamHandle { buf, credit: gate, producer, sender });
            true
        }
        Frame::Credit { stream, frames } => {
            // Credit for a finished/unknown stream can race EOF in
            // flight; tolerate it silently.
            if let Some(handle) = streams.get(&stream) {
                handle.credit.add(frames);
            }
            true
        }
        // Informational from a client; ignore.
        Frame::Error { .. } => true,
        other => {
            send_error(
                writer,
                &ctx.token,
                &ctx.stats,
                None,
                ERR_PROTOCOL,
                format!("client may not send {}", frame_name(&other)),
            );
            false
        }
    }
}

/// Answers a framing-level read fault with the matching ERROR frame
/// (framing cannot be resynchronized afterwards, so the caller closes).
fn report_read_error(writer: &Arc<Mutex<TcpStream>>, ctx: &SessionCtx, e: ProtoError) {
    let code = match &e {
        ProtoError::Oversized(_) => ERR_OVERSIZED,
        ProtoError::Malformed(_) => ERR_MALFORMED,
        _ => return, // disconnects and cancellation get no farewell
    };
    send_error(writer, &ctx.token, &ctx.stats, None, code, e.to_string());
}

fn frame_name(frame: &Frame) -> &'static str {
    match frame {
        Frame::Hello { .. } => "HELLO",
        Frame::Subscribe { .. } => "SUBSCRIBE",
        Frame::Data { .. } => "DATA",
        Frame::Credit { .. } => "CREDIT",
        Frame::Eof { .. } => "EOF",
        Frame::Error { .. } => "ERROR",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{serde_frame, SAMPLE_ENCODES};
    use proptest::prelude::*;

    /// The splitter as it was before frames were sized from one encoding:
    /// encode the whole sub-batch through `serde_json`, measure, throw the
    /// bytes away and recurse on the halves when they do not fit. Kept as
    /// the oracle for [`push_samples`].
    fn encode_and_measure(
        stream: u64,
        samples: &[GeneratedSample],
        next_seq: &mut u64,
        from_seq: u64,
        capacity: usize,
        push: &mut impl FnMut(Vec<u8>) -> bool,
    ) -> bool {
        if samples.is_empty() {
            return true;
        }
        let frame = Frame::Data { stream, seq: *next_seq, samples: samples.to_vec() };
        let mut split = |next_seq: &mut u64| {
            let mid = samples.len() / 2;
            encode_and_measure(stream, &samples[..mid], next_seq, from_seq, capacity, push)
                && encode_and_measure(stream, &samples[mid..], next_seq, from_seq, capacity, push)
        };
        match serde_frame(&frame) {
            Ok(bytes) if bytes.len() <= capacity || samples.len() == 1 => {
                let sent = *next_seq < from_seq || push(bytes);
                *next_seq += u64::from(sent);
                sent
            }
            Ok(_) => split(next_seq),
            Err(ProtoError::Oversized(_)) if samples.len() > 1 => split(next_seq),
            Err(_) => false,
        }
    }

    /// What one splitter did with a batch: every pushed frame with the
    /// seq in its header (the bytes name the seq and the samples, so equal
    /// bytes are equal sample ranges), the seq the next batch would start
    /// at, and whether the stream goes on.
    type Outcome = (Vec<(u64, Vec<u8>)>, u64, bool);

    type Splitter =
        fn(u64, &[GeneratedSample], &mut u64, u64, usize, &mut dyn FnMut(Vec<u8>) -> bool) -> bool;

    /// Runs `splitter` on one batch of stream 7 against a buffer that
    /// takes every frame, or refuses push number `refuse_at` as a closed
    /// stream does.
    fn run(
        splitter: Splitter,
        samples: &[GeneratedSample],
        first_seq: u64,
        from_seq: u64,
        capacity: usize,
        refuse_at: Option<usize>,
    ) -> Outcome {
        let mut pushed = Vec::new();
        let mut next_seq = first_seq;
        let mut push = |bytes: Vec<u8>| {
            if refuse_at == Some(pushed.len()) {
                return false;
            }
            match protocol::decode_frame(&bytes[4..]) {
                Ok(Frame::Data { stream: 7, seq, .. }) => pushed.push((seq, bytes)),
                other => panic!("pushed bytes are not a DATA frame of stream 7: {other:?}"),
            }
            true
        };
        let alive = splitter(7, samples, &mut next_seq, from_seq, capacity, &mut push);
        (pushed, next_seq, alive)
    }

    fn new_splitter(
        stream: u64,
        samples: &[GeneratedSample],
        next_seq: &mut u64,
        from_seq: u64,
        capacity: usize,
        mut push: &mut dyn FnMut(Vec<u8>) -> bool,
    ) -> bool {
        push_samples(stream, samples, next_seq, from_seq, capacity, &mut push)
    }

    fn old_splitter(
        stream: u64,
        samples: &[GeneratedSample],
        next_seq: &mut u64,
        from_seq: u64,
        capacity: usize,
        mut push: &mut dyn FnMut(Vec<u8>) -> bool,
    ) -> bool {
        encode_and_measure(stream, samples, next_seq, from_seq, capacity, &mut push)
    }

    /// A sample whose text is about `20 * floats` bytes.
    fn sample_of(floats: usize) -> GeneratedSample {
        let (meta, rest) = (floats.min(3), floats.saturating_sub(3));
        GeneratedSample {
            meta: (0..meta).map(|i| i as f32 + 0.1).collect(),
            records: (0..rest.div_ceil(4))
                .map(|r| (0..4.min(rest - 4 * r)).map(|c| (r * 4 + c) as f32 * 0.3).collect())
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn length_based_split_is_the_encode_and_measure_split(
            sizes in prop::collection::vec(0usize..60, 1..14),
            // One byte to a mebibyte, every magnitude as likely.
            (cap_bits, cap_low) in (0u32..=20, any::<u32>()),
            // Sometimes one sample is over the capacity on its own.
            giant in prop_oneof![Just(None), (0usize..14).prop_map(Some)],
            first_seq in (0usize..4).prop_map(|i| [0, 9, 99, u64::MAX - 1000][i]),
        ) {
            let mut capacity = ((1usize << cap_bits) | (cap_low as usize & ((1 << cap_bits) - 1))).min(1 << 20);
            let mut samples: Vec<GeneratedSample> = sizes.iter().map(|&n| sample_of(n)).collect();
            if let Some(at) = giant {
                // Kept to 16 KiB so the oracle's re-encodes stay cheap.
                capacity = capacity.min(1 << 14);
                samples[at % sizes.len()] = sample_of(capacity / 10 + 8); // ≥ 2 × capacity of text
            }
            let whole = run(old_splitter, &samples, first_seq, 0, capacity, None);
            let frames = whole.0.len();
            prop_assert_eq!(whole.1, first_seq + frames as u64);
            for from_seq in first_seq..=first_seq + frames as u64 + 1 {
                let old = run(old_splitter, &samples, first_seq, from_seq, capacity, None);
                let new = run(new_splitter, &samples, first_seq, from_seq, capacity, None);
                prop_assert_eq!(&new, &old, "from_seq {}", from_seq);
                // A resumed stream is the tail of the whole one.
                let skipped = ((from_seq - first_seq) as usize).min(frames);
                prop_assert_eq!(&new.0[..], &whole.0[skipped..]);
            }
            // Capacities that a frame of this stream fits exactly, and
            // misses by one byte.
            for len in whole.0.iter().map(|(_, bytes)| bytes.len()) {
                for edge in [len - 1, len] {
                    let old = run(old_splitter, &samples, first_seq, 0, edge, None);
                    let new = run(new_splitter, &samples, first_seq, 0, edge, None);
                    prop_assert_eq!(&new, &old, "capacity {}", edge);
                }
            }
            for refuse_at in 0..frames {
                let old = run(old_splitter, &samples, first_seq, 0, capacity, Some(refuse_at));
                let new = run(new_splitter, &samples, first_seq, 0, capacity, Some(refuse_at));
                prop_assert_eq!(&new, &old, "refused push {}", refuse_at);
                prop_assert!(!new.2);
            }
        }
    }

    /// What [`walk`] saw: every pushed frame with its seq, the seq before
    /// each batch walked, and the seq after the last.
    type Walk = (Vec<(u64, Vec<u8>)>, Vec<u64>, u64);

    /// What a producer pushes that starts at batch `start` of a stream,
    /// knowing that batch's first frame is `seq`.
    fn walk(
        batches: &[&[GeneratedSample]],
        start: usize,
        seq: u64,
        from_seq: u64,
        capacity: usize,
    ) -> Walk {
        let (mut frames, mut boundaries, mut next_seq) = (Vec::new(), Vec::new(), seq);
        for batch in &batches[start..] {
            boundaries.push(next_seq);
            let (pushed, after, alive) = run(new_splitter, batch, next_seq, from_seq, capacity, None);
            assert!(alive);
            frames.extend(pushed);
            next_seq = after;
        }
        (frames, boundaries, next_seq)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The seek index hands a resume any boundary at or before its
        /// `from_seq`; whichever it is, the resumed stream is the replay
        /// from sample 0.
        #[test]
        fn a_stream_resumed_from_any_boundary_is_the_replay_from_zero(
            sizes in prop::collection::vec(0usize..60, 1..14),
            batch in 1usize..5,
            (cap_bits, cap_low) in (0u32..=20, any::<u32>()),
        ) {
            let capacity = ((1usize << cap_bits) | (cap_low as usize & ((1 << cap_bits) - 1))).min(1 << 20);
            let samples: Vec<GeneratedSample> = sizes.iter().map(|&n| sample_of(n)).collect();
            let batches: Vec<&[GeneratedSample]> = samples.chunks(batch).collect();
            let (whole, _, _) = walk(&batches, 0, 0, 0, capacity);
            // The capacity drawn, and the ones a frame of this stream
            // fits exactly and misses by one byte.
            let mut capacities: Vec<usize> =
                whole.iter().flat_map(|(_, bytes)| [bytes.len() - 1, bytes.len()]).collect();
            capacities.push(capacity);
            capacities.sort_unstable();
            capacities.dedup();
            for capacity in capacities {
                let (whole, boundaries, end) = walk(&batches, 0, 0, 0, capacity);
                for from_seq in 0..=end + 1 {
                    let cold = walk(&batches, 0, 0, from_seq, capacity);
                    prop_assert_eq!(&cold.0[..], &whole[(from_seq.min(end)) as usize..]);
                    prop_assert_eq!(cold.2, end);
                    for (start, &seq) in boundaries.iter().enumerate().filter(|(_, &seq)| seq <= from_seq) {
                        let sought = walk(&batches, start, seq, from_seq, capacity);
                        prop_assert_eq!(&sought.0, &cold.0, "capacity {} from_seq {} via batch {}", capacity, from_seq, start);
                        prop_assert_eq!(&sought.1[..], &boundaries[start..]);
                        prop_assert_eq!(sought.2, end);
                    }
                }
            }
        }
    }

    #[test]
    fn the_wire_ceiling_splits_a_batch_and_fails_a_single_sample() {
        // 0.1f32 is 20 bytes of text with its comma: each sample is 5 MB,
        // two are over the 8 MiB ceiling whatever the buffer holds.
        let half = GeneratedSample { meta: vec![0.1; 250_000], records: vec![] };
        let pair = [half.clone(), half];
        let old = run(old_splitter, &pair, 0, 0, usize::MAX, None);
        let new = run(new_splitter, &pair, 0, 0, usize::MAX, None);
        assert_eq!((old.0.len(), old.1, old.2), (2, 2, true));
        assert_eq!(new, old);

        let over = [GeneratedSample { meta: vec![0.1; 450_000], records: vec![] }];
        for from_seq in [0, 1] {
            let old = run(old_splitter, &over, 0, from_seq, usize::MAX, None);
            let new = run(new_splitter, &over, 0, from_seq, usize::MAX, None);
            assert_eq!((old.0.len(), old.1, old.2), (0, 0, false));
            assert_eq!(new, old);
        }
    }

    #[test]
    fn a_batch_costs_one_encode_per_sample() {
        // 32 samples of ≈ 4.8 KB against 64 KiB: the batch is cut into
        // quarters, which the old splitter paid for with three encodes of
        // every sample.
        let batch: Vec<GeneratedSample> = (0..32).map(|_| sample_of(240)).collect();
        let encodes = || SAMPLE_ENCODES.with(|n| n.get());
        for from_seq in [0, 2, 4] {
            let before = encodes();
            let (pushed, next_seq, alive) = run(new_splitter, &batch, 0, from_seq, 64 << 10, None);
            assert_eq!(encodes() - before, batch.len());
            assert_eq!((pushed.len() as u64, next_seq, alive), (4 - from_seq, 4, true));
        }
        let before = encodes();
        run(old_splitter, &batch, 0, 0, 64 << 10, None);
        assert_eq!(encodes() - before, 0, "the oracle encodes through serde_json only");
    }
}
