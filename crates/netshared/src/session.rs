//! Per-connection session: handshake, subscription management, and the
//! per-stream producer/sender thread pair.
//!
//! Thread model, per connection:
//!
//! * the **session thread** (spawned by the server's accept loop) runs
//!   the handshake, then loops reading client frames (`SUBSCRIBE`,
//!   `CREDIT`), beating the watchdog heartbeat on every arrival and
//!   joining the threads of streams that have finished;
//! * each subscription is one [`Stream`] machine behind one lock, driven
//!   by a **producer** thread — rebuilds the artifact's sampler, walks a
//!   [`SampleCursor`](doppelganger::SampleCursor) batch-by-batch, encodes
//!   DATA frames and pushes them, waiting while the stream is full
//!   (backpressure, not memory growth) — and a **sender** thread, which
//!   waits once for a frame and a credit for it, EOF, or close, writes
//!   what it got to the shared socket, and beats the session heartbeat:
//!   frames out are activity as much as frames in. The session thread's
//!   `CREDIT` handler grants credit under the same lock;
//! * teardown (client disconnect, malformed frame, watchdog eviction, or
//!   server drain) cancels the session token and closes every stream;
//!   every blocked wait and all socket I/O polls that token, so the
//!   session unwinds without orphaned threads.

use crate::machine::{Pull, Push, Stream};
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
use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use telemetry::metrics::LazyCounter;

static RESUME_SEEKS: LazyCounter = LazyCounter::new("netshared.resume.seeks");
static RESUME_REPLAYED_BATCHES: LazyCounter = LazyCounter::new("netshared.resume.replayed_batches");

/// How long a producer blocked on a full stream sleeps before re-checking
/// its token.
const WAIT_POLL: Duration = Duration::from_millis(20);
/// How long a sender with nothing to send, or no credit to send it with,
/// sleeps between token checks.
const CREDIT_POLL: Duration = Duration::from_millis(20);

/// One subscription as its three threads share it: the [`Stream`] behind
/// one lock, `room` for the producer waiting on a full stream, and
/// `ready` for the sender waiting on a frame and credit, EOF, or close.
struct Subscription {
    stream: Mutex<Stream>,
    room: Condvar,
    ready: Condvar,
    capacity: usize,
    stats: Arc<ServerStats>,
}

impl Subscription {
    /// Runs one transition on the locked stream and mirrors what it
    /// changed into [`ServerStats`] and the `netshared.*` metrics.
    fn step<R>(&self, st: &mut Stream, transition: impl FnOnce(&mut Stream) -> R) -> R {
        let was = st.stats();
        let out = transition(st);
        let now = st.stats();
        let bump = |name: &str, total: &AtomicU64, by: u64| {
            if by > 0 {
                telemetry::metrics::counter(name).add(by);
                total.fetch_add(by, Ordering::Relaxed);
            }
        };
        let stats = &self.stats;
        let credit_stalls = now.credit_stalls - was.credit_stalls;
        bump("netshared.stream.push_stalls", &stats.push_stalls, now.push_stalls - was.push_stalls);
        bump("netshared.stream.credit_stalls", &stats.credit_stalls, credit_stalls);
        bump("netshared.stream.drops", &stats.drops, now.dropped - was.dropped);
        if now.buffered_bytes != was.buffered_bytes {
            let delta = now.buffered_bytes as f64 - was.buffered_bytes as f64;
            telemetry::metrics::gauge("netshared.bytes.buffered").add(delta);
        }
        if now.max_buffered_bytes > was.max_buffered_bytes {
            stats.stream_max_buffered.fetch_max(now.max_buffered_bytes as u64, Ordering::Relaxed);
        }
        out
    }

    /// Producer: queues one encoded frame, waiting while the stream is
    /// full. `false` once the stream is closed (the frame is dropped).
    fn push(&self, mut bytes: Vec<u8>, token: &CancelToken) -> bool {
        let mut st = lock(&self.stream); // lint: lock-order(netshared.stream_state)
        loop {
            match self.step(&mut st, |s| s.push(bytes)) {
                Push::Queued => {
                    if st.ready() {
                        self.ready.notify_one();
                    }
                    return true;
                }
                Push::Dropped => return false,
                Push::Full(back) => {
                    bytes = back;
                    if token.is_cancelled() {
                        self.step(&mut st, Stream::close);
                    } else {
                        st = wait_timeout(&self.room, st, WAIT_POLL);
                    }
                }
            }
        }
    }

    /// Sender: waits for a frame and a credit to send it with, EOF, or
    /// close. Never returns [`Pull::Wait`].
    fn pull(&self, token: &CancelToken) -> Pull {
        let mut st = lock(&self.stream); // lint: lock-order(netshared.stream_state)
        loop {
            match self.step(&mut st, Stream::pull) {
                Pull::Wait if token.is_cancelled() => self.step(&mut st, Stream::close),
                Pull::Wait => st = wait_timeout(&self.ready, st, CREDIT_POLL),
                sent @ Pull::Send(..) => {
                    self.room.notify_one();
                    return sent;
                }
                other => return other,
            }
        }
    }

    /// Runs a transition from outside the two waits (a credit grant or
    /// the producer's finish) and wakes the sender if it can now go on.
    /// Neither frees room, so the producer sleeps on.
    fn update(&self, transition: impl FnOnce(&mut Stream)) {
        let mut st = lock(&self.stream); // lint: lock-order(netshared.stream_state)
        self.step(&mut st, transition);
        let ready = st.ready();
        drop(st);
        if ready {
            self.ready.notify_one();
        }
    }

    /// Closes the stream and wakes both sides.
    fn close(&self) {
        self.update(Stream::close);
        self.room.notify_one();
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
    sub: Arc<Subscription>,
    producer: std::thread::JoinHandle<()>,
    sender: std::thread::JoinHandle<()>,
}

impl StreamHandle {
    fn join(self) {
        let _ = self.producer.join();
        let _ = self.sender.join();
    }
}

/// A connection's subscriptions: the live ones with their threads, and
/// the ids of those already joined, which stay taken (ids are unique per
/// connection).
#[derive(Default)]
struct Streams {
    live: BTreeMap<u64, StreamHandle>,
    retired: BTreeSet<u64>,
}

impl Streams {
    /// Joins the threads of every stream whose producer and sender have
    /// both exited: a finished thread keeps its stack mapped until its
    /// handle is joined or dropped.
    fn reap(&mut self) {
        let done: Vec<u64> = (self.live.iter())
            .filter(|(_, h)| h.producer.is_finished() && h.sender.is_finished())
            .map(|(&id, _)| id)
            .collect();
        for id in done {
            if let Some(handle) = self.live.remove(&id) {
                handle.join();
            }
            self.retired.insert(id);
        }
    }
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
    send(writer, &Frame::Error { stream, code: code.to_string(), message }, token);
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
/// push. Finishes the stream with the produced total (which the sender
/// turns into EOF) or closes it when it stops early.
///
/// A resume (`from_seq > 0`) starts the walk at the nearest boundary the
/// artifact's seek index holds for this stream id; what is left between
/// that boundary and `from_seq` — the whole prefix when the index has
/// nothing — is regenerated and suppressed by [`push_samples`].
fn produce(
    stream: u64,
    count: u64,
    from_seq: u64,
    served: Arc<Served>,
    sub: Arc<Subscription>,
    token: CancelToken,
    writer: Arc<Mutex<TcpStream>>,
) {
    let _span = telemetry::span!("netshared/produce[{}]", stream);
    // Spin-up is milliseconds of uninterrupted arithmetic (rebuild + the
    // first batch) on a thread the scheduler has just handed a fresh
    // slice. When that thread is born on the CPU of the peer that wrote
    // SUBSCRIBE — loopback on a one- or two-core host, where the session
    // thread's wake-up preempted the peer inside its `write` — the peer
    // would sit runnable for that whole slice. Stand aside for what is
    // already queued here: the first yield goes to the sender thread
    // spawned beside this one (it blocks at once on the empty stream),
    // the second to the peer. Alone on a CPU both return immediately.
    std::thread::yield_now();
    std::thread::yield_now();
    let stats = &sub.stats;
    let bundle = &served.bundle;
    let fail = |why: String| {
        let message = format!("artifact {:?} {why}", bundle.name);
        send_error(&writer, &token, stats, Some(stream), ERR_UNKNOWN_ARTIFACT, message);
        sub.close();
    };
    let mut model = match bundle.rebuild() {
        Ok(m) => m,
        Err(e) => return fail(format!("failed to rebuild: {e}")),
    };
    let mut cursor = match model.sample_cursor(count as usize) {
        Ok(c) => c,
        Err(e) => return fail(format!("cannot stream: {e}")),
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
        let mut push = |bytes| sub.push(bytes, &token);
        if !push_samples(stream, &batch, &mut next_seq, from_seq, sub.capacity, &mut push) {
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
        sub.update(|s| s.finish(cursor.produced() as u64));
    } else {
        sub.close();
    }
}

/// The sender thread body: one credit, one frame, in sequence order,
/// then EOF. Every frame written beats the session's heartbeat.
fn dispatch(
    stream: u64,
    sub: Arc<Subscription>,
    token: CancelToken,
    writer: Arc<Mutex<TcpStream>>,
    heartbeat: Heartbeat,
) {
    let stats = &sub.stats;
    loop {
        match sub.pull(&token) {
            Pull::Send(_, bytes) => {
                let mut sock = lock(&writer); // lint: lock-order(netshared.socket_writer)
                if protocol::write_encoded(&mut sock, &bytes, &token).is_err() {
                    break;
                }
                drop(sock);
                stats.frames_sent.fetch_add(1, Ordering::Relaxed);
                telemetry::metrics::counter("netshared.frames.sent").inc();
                heartbeat.beat(0);
            }
            Pull::Eof(total) => {
                if send(&writer, &Frame::Eof { stream, total }, &token) {
                    stats.eofs_sent.fetch_add(1, Ordering::Relaxed);
                    heartbeat.beat(0);
                }
                break;
            }
            Pull::Wait | Pull::Closed => break,
        }
    }
    // Nothing more goes out: a producer still running stops at its next
    // frame.
    sub.close();
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

    let mut streams = Streams::default();
    serve_client(&stream, &ctx, &heartbeat, &mut streams);

    // Teardown: close every stream, then join its threads.
    ctx.token.cancel("session closed");
    for handle in streams.live.values() {
        handle.sub.close();
    }
    std::mem::take(&mut streams.live).into_values().for_each(StreamHandle::join);
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
    streams: &mut Streams,
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
    let refuse = |code, message| send_error(&writer, &ctx.token, &ctx.stats, None, code, message);
    let lo = protocol::MIN_VERSION;
    let negotiated = match protocol::read_frame(&mut reader, &ctx.token) {
        Ok(Frame::Hello { version, .. }) if (lo..=PROTOCOL_VERSION).contains(&version) => version,
        Ok(Frame::Hello { version, .. }) => {
            let message =
                format!("server speaks versions {lo}..={PROTOCOL_VERSION}, client sent {version}");
            return refuse(ERR_VERSION, message);
        }
        Ok(other) => {
            return refuse(ERR_PROTOCOL, format!("expected HELLO, got {}", frame_name(&other)));
        }
        Err(e) => return report_read_error(&writer, ctx, e),
    };
    heartbeat.beat(0);
    let artifacts: Vec<String> = ctx.bundles.keys().cloned().collect();
    let hello = Frame::Hello { version: negotiated, peer: "netshared".to_string(), artifacts };
    if !send(&writer, &hello, &ctx.token) {
        return;
    }

    loop {
        match protocol::read_frame(&mut reader, &ctx.token) {
            Ok(frame) => {
                heartbeat.beat(0);
                streams.reap();
                if !handle_frame(frame, ctx, &writer, heartbeat, streams) {
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
    heartbeat: &Heartbeat,
    streams: &mut Streams,
) -> bool {
    match frame {
        Frame::Subscribe { stream, artifact, count, credit, from_seq } => {
            let refuse = |code, message| {
                send_error(writer, &ctx.token, &ctx.stats, Some(stream), code, message);
                true
            };
            if ctx.draining.load(Ordering::Relaxed) {
                return refuse(ERR_DRAINING, "server is draining; no new subscriptions".into());
            }
            if streams.live.contains_key(&stream) || streams.retired.contains(&stream) {
                let message = format!("stream {stream} already subscribed on this connection");
                return refuse(ERR_PROTOCOL, message);
            }
            let Some(served) = ctx.bundles.get(&artifact) else {
                let message = format!("no artifact named {artifact:?} is loaded");
                return refuse(ERR_UNKNOWN_ARTIFACT, message);
            };
            telemetry::metrics::counter("netshared.subscribes").inc();
            ctx.stats.streams_open.fetch_add(1, Ordering::Relaxed);
            telemetry::metrics::gauge("netshared.streams.open").add(1.0);
            let sub = Arc::new(Subscription {
                stream: Mutex::new(Stream::new(ctx.capacity_bytes, credit, from_seq)),
                room: Condvar::new(),
                ready: Condvar::new(),
                capacity: ctx.capacity_bytes,
                stats: Arc::clone(&ctx.stats),
            });
            let producer = {
                let (served, sub) = (Arc::clone(served), Arc::clone(&sub));
                let (token, writer) = (ctx.token.clone(), Arc::clone(writer));
                std::thread::spawn(move || {
                    produce(stream, count, from_seq, served, sub, token, writer)
                })
            };
            let sender = {
                let sub = Arc::clone(&sub);
                let (token, writer) = (ctx.token.clone(), Arc::clone(writer));
                let heartbeat = heartbeat.clone();
                std::thread::spawn(move || dispatch(stream, sub, token, writer, heartbeat))
            };
            streams.live.insert(stream, StreamHandle { sub, producer, sender });
            true
        }
        Frame::Credit { stream, frames } => {
            // Credit for a finished/unknown stream can race EOF in
            // flight; tolerate it silently.
            if let Some(handle) = streams.live.get(&stream) {
                handle.sub.update(|s| s.credit(frames));
            }
            true
        }
        // Informational from a client; ignore.
        Frame::Error { .. } => true,
        other => {
            let message = format!("client may not send {}", frame_name(&other));
            send_error(writer, &ctx.token, &ctx.stats, None, ERR_PROTOCOL, message);
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
