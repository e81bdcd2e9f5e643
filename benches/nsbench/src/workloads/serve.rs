//! The three serve workloads: a raw-protocol client pulling flows from
//! an in-process `netshared::Server`, one connection at a time (a closed
//! loop: the next request goes out when the previous one is done).

use super::{micro, warm_until_stable, Args, Budget, Workload};
use crate::layers::{self, Artifact, ArtifactBundle, Conn, Frame, GeneratedSample, Server};
use crate::report::Outcome;
use crate::spans::{self, Recorder};
use crate::{host, stats};
use std::time::Instant;

/// The DATA-frame window the shipped client opens with.
const CREDIT: u32 = 4;

/// What `sample_fast` gives offline from the bundle a server serves,
/// kept as the bit patterns of each flow's numbers in one flat buffer:
/// a streamed flow is right when its bits equal the reference's, and
/// the client can check that frame by frame without keeping the stream.
#[derive(Default)]
struct Reference {
    bits: Vec<u32>,
    /// `bits[ends[i - 1]..ends[i]]` is flow `i`.
    ends: Vec<usize>,
}

fn flatten(sample: &GeneratedSample, out: &mut Vec<u32>) {
    out.push(sample.meta.len() as u32);
    out.extend(sample.meta.iter().map(|v| v.to_bits()));
    for record in &sample.records {
        out.push(record.len() as u32);
        out.extend(record.iter().map(|v| v.to_bits()));
    }
}

impl Reference {
    /// `n` flows from `sample_fast`, offline, from a fresh rebuild.
    fn offline(bundle: &ArtifactBundle, n: usize) -> Result<Reference, String> {
        let mut model = layers::rebuild(bundle)?;
        let mut reference = Reference::default();
        // A batch at a time, as the sampler itself proceeds, so the
        // decoded flows never sit in memory all at once.
        layers::stream_batches(&mut model, n, |batch, _| {
            for sample in &batch {
                flatten(sample, &mut reference.bits);
                reference.ends.push(reference.bits.len());
            }
            true
        })?;
        Ok(reference)
    }

    fn flow(&self, i: usize) -> Option<&[u32]> {
        let end = *self.ends.get(i)?;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        Some(&self.bits[start..end])
    }
}

/// One subscription.
struct PullSpec<'a> {
    addr: &'a str,
    artifact: &'a str,
    count: u64,
    credit: u32,
    from_seq: u64,
    /// Read the first DATA frame, then drop the connection.
    first_only: bool,
    /// The offline stream, and which of its flows the first delivered
    /// flow must equal.
    expect: (&'a Reference, usize),
}

/// What one subscription delivered and when.
#[derive(Default)]
struct Pulled {
    /// `connect()` → EOF (or → first DATA frame with `first_only`).
    wall_s: f64,
    /// `connect()` → server HELLO decoded.
    hello_s: f64,
    /// `connect()` → first DATA frame decoded.
    first_s: f64,
    /// SUBSCRIBE written → first DATA frame decoded.
    sub_first_s: f64,
    /// Flows delivered, each equal to the reference's.
    flows: usize,
    /// Flows in each DATA frame, in arrival order.
    frame_flows: Vec<usize>,
    wire_bytes: u64,
    max_frame_bytes: u64,
    /// After each DATA frame: flows delivered so far, and seconds since
    /// `connect()` at which the frame's bytes had arrived.
    arrivals: Vec<(usize, f64)>,
}

impl Pulled {
    /// Seconds between consecutive DATA arrivals.
    fn gaps_s(&self) -> impl Iterator<Item = f64> + '_ {
        self.arrivals.windows(2).map(|w| w[1].1 - w[0].1)
    }

    /// Delivery rate, flows per second, over each run of at least
    /// `window` flows of the stream, from the first frame's arrival on.
    /// A stall that lasts a fraction of a second slows one window, not
    /// the whole pull, so the median over windows is steadier than the
    /// median over pulls.
    fn window_rates(&self, window: usize) -> Vec<f64> {
        let mut rates = Vec::new();
        let Some(&(mut flows0, mut t0)) = self.arrivals.first() else {
            return rates;
        };
        for &(flows, t) in &self.arrivals[1..] {
            if flows - flows0 >= window && t > t0 {
                rates.push((flows - flows0) as f64 / (t - t0));
                (flows0, t0) = (flows, t);
            }
        }
        rates
    }
}

/// Runs one subscription. It fails unless every delivered flow equals
/// the offline one bit for bit, DATA frames arrive in sequence from
/// `from_seq`, and (for a whole pull) EOF reports the subscribed count.
fn pull(spec: &PullSpec<'_>, rec: &mut Recorder) -> Result<Pulled, String> {
    let depth = rec.depth();
    let out = pull_inner(spec, rec);
    rec.unwind(depth);
    out
}

fn pull_inner(spec: &PullSpec<'_>, rec: &mut Recorder) -> Result<Pulled, String> {
    let mut p = Pulled::default();
    let (reference, first_flow) = spec.expect;
    let mut scratch = Vec::new();
    let t0 = Instant::now();
    rec.enter("client.pull");
    rec.enter("client.connect");
    let mut conn = Conn::connect(spec.addr)?;
    rec.exit();
    rec.enter("client.hello");
    conn.send(&layers::hello_frame())?;
    match layers::decode_frame(&conn.read_payload()?)? {
        Frame::Hello { .. } => {}
        other => return Err(format!("expected server HELLO, got {other:?}")),
    }
    rec.exit();
    p.hello_s = t0.elapsed().as_secs_f64();

    rec.enter("client.subscribe_first_data");
    conn.send(&layers::subscribe_frame(
        spec.artifact,
        spec.count,
        spec.credit,
        spec.from_seq,
    ))?;
    let subscribed = Instant::now();
    let mut next_seq = spec.from_seq;
    loop {
        rec.enter("client.socket_wait");
        let payload = conn.read_payload()?;
        rec.exit();
        let arrived = t0.elapsed().as_secs_f64();
        rec.enter("client.decode");
        let frame = layers::decode_frame(&payload)?;
        rec.exit();
        match frame {
            Frame::Data { seq, samples, .. } => {
                if seq != next_seq {
                    return Err(format!("DATA seq {seq}, want {next_seq}"));
                }
                if p.frame_flows.is_empty() {
                    p.first_s = t0.elapsed().as_secs_f64();
                    p.sub_first_s = subscribed.elapsed().as_secs_f64();
                    rec.exit(); // client.subscribe_first_data
                }
                next_seq += 1;
                rec.enter("client.verify");
                for sample in &samples {
                    scratch.clear();
                    flatten(sample, &mut scratch);
                    if reference.flow(first_flow + p.flows) != Some(&scratch[..]) {
                        return Err(format!(
                            "flow {} of frame {seq} differs from offline sample_fast",
                            first_flow + p.flows
                        ));
                    }
                    p.flows += 1;
                }
                rec.exit();
                p.frame_flows.push(samples.len());
                p.arrivals.push((p.flows, arrived));
                p.wire_bytes += payload.len() as u64 + 4;
                p.max_frame_bytes = p.max_frame_bytes.max(payload.len() as u64 + 4);
                if spec.first_only {
                    break;
                }
                rec.enter("client.credit_write");
                conn.send(&layers::credit_frame())?;
                rec.exit();
            }
            Frame::Eof { total, .. } => {
                if total != spec.count || p.flows as u64 != spec.count {
                    return Err(format!(
                        "EOF total {total} after {} flows, subscribed {}",
                        p.flows, spec.count
                    ));
                }
                break;
            }
            Frame::Error { code, message, .. } => {
                return Err(format!("server error {code}: {message}"));
            }
            other => return Err(format!("unexpected frame {other:?}")),
        }
    }
    p.wall_s = t0.elapsed().as_secs_f64();
    Ok(p)
}

/// Index of the first flow of each DATA frame of the uninterrupted stream.
fn frame_starts(frame_flows: &[usize]) -> Vec<usize> {
    let mut at = 0;
    frame_flows
        .iter()
        .map(|n| {
            let start = at;
            at += n;
            start
        })
        .collect()
}

/// A running server, the bundle it serves and the offline reference of
/// that bundle's stream; stops the server when dropped, so an early
/// return leaves no thread behind.
struct Daemon {
    server: Option<Server>,
    addr: String,
    bundle: ArtifactBundle,
    reference: Reference,
    /// First flow of each DATA frame, once a whole stream was captured.
    starts: Vec<usize>,
}

impl Daemon {
    /// A whole pull of `count` flows.
    fn spec(&self, count: usize, credit: u32) -> PullSpec<'_> {
        PullSpec {
            addr: &self.addr,
            artifact: &self.bundle.name,
            count: count as u64,
            credit,
            from_seq: 0,
            first_only: false,
            expect: (&self.reference, 0),
        }
    }

    /// A subscription to `count` flows from DATA frame `from_seq` on,
    /// dropped after its first frame: that frame must be frame
    /// `from_seq` of the uninterrupted stream captured earlier. Returns
    /// once the server has let the session go, so that what the dropped
    /// stream's producer still had in hand is not running beside the
    /// next request (this is a closed loop: one connection at a time).
    fn first_frame(
        &self,
        count: usize,
        from_seq: u64,
        rec: &mut Recorder,
    ) -> Result<Pulled, String> {
        let start = *self
            .starts
            .get(from_seq as usize)
            .ok_or_else(|| format!("the captured stream has no frame {from_seq}"))?;
        let spec = PullSpec {
            from_seq,
            first_only: true,
            expect: (&self.reference, start),
            ..self.spec(count, CREDIT)
        };
        let pulled = pull(&spec, rec);
        let waited = Instant::now();
        while self.counters().sessions_open > 0 && waited.elapsed().as_secs_f64() < 1.0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        pulled
    }

    fn counters(&self) -> layers::ServerCounters {
        self.server
            .as_ref()
            .map(layers::server_counters)
            .unwrap_or_default()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            layers::stop_server(server);
        }
    }
}

/// Set-up, as a user starting the daemon pays it: build the artifact,
/// save it, load it back from disk (what `netshared --artifact` does),
/// start the server, and pull one batch through it. Done `repeats`
/// times; the last daemon stays up, with an offline reference of
/// `reference_flows` flows to check its streams against.
fn setup(
    art: Artifact,
    args: &Args,
    repeats: usize,
    reference_flows: usize,
    out: &mut Outcome,
) -> Result<Daemon, String> {
    let first_batch = Reference::offline(&layers::make_bundle(art, args.seed)?, layers::BATCH)?;
    let mut daemon = None;
    for _ in 0..repeats.max(1) {
        drop(daemon.take());
        let t0 = Instant::now();
        let path = args.work.join(format!("{}.json", art.name()));
        layers::save_bundle(&layers::make_bundle(art, args.seed)?, &path)?;
        let bundle = layers::load_bundle(&path)?;
        let server = layers::start_server(vec![bundle.clone()])?;
        let addr = layers::server_addr(&server);
        let d = Daemon {
            server: Some(server),
            addr,
            bundle,
            reference: Reference::default(),
            starts: Vec::new(),
        };
        pull(
            &PullSpec {
                expect: (&first_batch, 0),
                ..d.spec(layers::BATCH, CREDIT)
            },
            &mut Recorder::disabled(),
        )?;
        out.sample("setup_s", t0.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let mut daemon = daemon.ok_or_else(|| "no set-up ran".to_string())?;
    let t0 = Instant::now();
    daemon.reference = Reference::offline(&daemon.bundle, reference_flows)?;
    out.note("prep_s", t0.elapsed().as_secs_f64());
    Ok(daemon)
}

/// No stream may buffer more than its capacity, or one frame where a
/// single frame is larger.
fn check_buffer_bound(daemon: &Daemon, largest_frame: u64, out: &mut Outcome) {
    let held = daemon.counters().stream_max_buffered;
    let bound = (layers::default_capacity() as u64).max(largest_frame);
    let ok = held <= bound;
    out.op(
        "stream buffer bound",
        if ok {
            Ok(())
        } else {
            Err(format!("{held} B buffered, bound {bound} B"))
        },
    );
}

pub fn run(workload: Workload, args: &Args, out: &mut Outcome) -> Result<(), String> {
    match (workload, args.trace) {
        (Workload::ServeInteractive, false) => interactive(args, out),
        (Workload::ServeInteractive, true) => interactive_traced(args, out),
        (_, false) => bulk(workload, args, out),
        (_, true) => bulk_traced(workload, args, out),
    }
}

/// Sizes of a bulk workload: `(artifact, flows per pull, flows per
/// warm-up pull, frame a mid-stream resume starts from)`.
fn bulk_sizes(workload: Workload, args: &Args) -> (Artifact, usize, usize, u64) {
    match workload {
        Workload::ServeLongseq => (
            Artifact::Seq32,
            args.size(4096, 128),
            args.size(512, 64),
            args.size(16, 4) as u64,
        ),
        _ => (
            Artifact::Flow8,
            args.size(8192, 256),
            args.size(1024, 128),
            args.size(16, 4) as u64,
        ),
    }
}

/// `serve_bulk` and `serve_longseq`: whole-trace pulls, each followed by
/// subscriptions that are dropped after their first frame.
fn bulk(workload: Workload, args: &Args, out: &mut Outcome) -> Result<(), String> {
    let (art, count, warm, resume_from) = bulk_sizes(workload, args);
    let mut daemon = setup(art, args, args.size(7, 2), count, out)?;
    let off = &mut Recorder::disabled();

    let t0 = Instant::now();
    let mut frame_flows = Vec::new();
    let warm_pulls = warm_until_stable(args.seconds * 0.3, || {
        let p = pull(&daemon.spec(warm, CREDIT), off)?;
        frame_flows = p.frame_flows;
        Ok(warm as f64 / p.wall_s)
    })?;
    daemon.starts = frame_starts(&frame_flows);
    out.note("warmup_pulls", warm_pulls as f64);
    out.note("warmup_s", t0.elapsed().as_secs_f64());

    let budget = Budget::new(args.seconds);
    let mut largest_frame = 0;
    let mut rounds = 0;
    while budget.more(rounds, args.size(3, 1)) {
        match pull(&daemon.spec(count, CREDIT), off) {
            Ok(p) => {
                out.op("pull", Ok(()));
                for rate in p.window_rates(count / 8) {
                    out.sample("rate_per_s", rate);
                }
                out.sample("op_ms", p.wall_s * 1e3);
                out.sample("first_ms", p.sub_first_s * 1e3);
                largest_frame = largest_frame.max(p.max_frame_bytes);
            }
            Err(e) => out.op("pull", Err(e)),
        }
        // Subscriptions dropped after their first frame, from the start
        // of the stream and from `resume_from`: three more samples each
        // of the two latencies a whole pull yields once (or not at all).
        for _ in 0..3 {
            for (from_seq, metric) in [(0, "first_ms"), (resume_from, "resume_ms")] {
                match daemon.first_frame(count, from_seq, off) {
                    Ok(p) => {
                        out.op("first frame", Ok(()));
                        out.sample(metric, p.sub_first_s * 1e3);
                    }
                    Err(e) => out.op("first frame", Err(e)),
                }
            }
        }
        rounds += 1;
    }
    check_buffer_bound(&daemon, largest_frame, out);
    Ok(())
}

/// Frames a resumed subscription of `serve_interactive` skips: the
/// timed run resumes at the middle one, the traced run fits a slope
/// through all three.
fn resume_points(args: &Args) -> [u64; 3] {
    if args.smoke {
        [4, 8, 12]
    } else {
        [64, 128, 192]
    }
}

/// Flows a resumed subscription of `serve_interactive` asks for.
fn resume_count(args: &Args) -> usize {
    args.size(4096, 512)
}

/// What `serve_interactive` prepares before timing: the daemon, and the
/// frame boundaries of one uninterrupted stream long enough to hold
/// every resume point.
fn interactive_prep(args: &Args, repeats: usize, out: &mut Outcome) -> Result<Daemon, String> {
    let last = resume_points(args)[2] as usize;
    // Enough of the stream to cover the last resume point's frame.
    let covered = ((last + 2) * layers::BATCH / 2).min(resume_count(args));
    let mut daemon = setup(Artifact::Flow8, args, repeats, covered, out)?;
    let p = pull(&daemon.spec(covered, CREDIT), &mut Recorder::disabled())?;
    daemon.starts = frame_starts(&p.frame_flows);
    Ok(daemon)
}

/// One short pull: one generator batch on a fresh connection.
fn short_pull(daemon: &Daemon, rec: &mut Recorder) -> Result<Pulled, String> {
    pull(&daemon.spec(layers::BATCH, CREDIT), rec)
}

/// `serve_interactive`: rounds of short pulls and resumed subscriptions.
fn interactive(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let daemon = interactive_prep(args, args.size(7, 2), out)?;
    let off = &mut Recorder::disabled();
    let per_round = args.size(40, 10);
    let from_seq = resume_points(args)[1];

    let t0 = Instant::now();
    warm_until_stable(args.seconds * 0.1, || {
        let walls: Result<Vec<f64>, String> = (0..10)
            .map(|_| short_pull(&daemon, off).map(|p| p.wall_s))
            .collect();
        Ok(stats::median(&walls?))
    })?;
    out.note("warmup_s", t0.elapsed().as_secs_f64());

    let budget = Budget::new(args.seconds);
    let mut largest_frame = 0;
    let mut rounds = 0;
    while budget.more(rounds, args.size(2, 1)) {
        for _ in 0..per_round {
            match short_pull(&daemon, off) {
                Ok(p) => {
                    out.op("short pull", Ok(()));
                    out.sample("op_ms", p.wall_s * 1e3);
                    out.sample("first_ms", p.first_s * 1e3);
                    out.sample("rate_per_s", p.flows as f64 / p.wall_s);
                    largest_frame = largest_frame.max(p.max_frame_bytes);
                }
                Err(e) => out.op("short pull", Err(e)),
            }
        }
        for _ in 0..2 {
            match daemon.first_frame(resume_count(args), from_seq, off) {
                Ok(p) => {
                    out.op("resume", Ok(()));
                    out.sample("resume_ms", p.sub_first_s * 1e3);
                }
                Err(e) => out.op("resume", Err(e)),
            }
        }
        rounds += 1;
    }
    check_buffer_bound(&daemon, largest_frame, out);
    Ok(())
}

// ------------------------------------------------------------------ traced

/// Stage times of the server pipeline replayed offline in one thread.
struct Replay {
    flows: usize,
    generate_s: f64,
    encode_s: f64,
    socket_s: f64,
    decode_s: f64,
    total_s: f64,
}

/// Sends one generated batch down the replayed pipeline: `encode_frame`
/// (halving the batch while its encoding exceeds the stream buffer, the
/// way the producer does, wasted encodings included) → loopback write
/// and read → `decode_frame`; each frame must come back unchanged.
fn replay_batch(
    batch: Vec<GeneratedSample>,
    seq: &mut u64,
    (tx, rx): (&mut std::net::TcpStream, &mut std::net::TcpStream),
    rec: &mut Recorder,
) -> Result<(), String> {
    let capacity = layers::default_capacity();
    let mut pending = vec![batch];
    while let Some(mut part) = pending.pop() {
        rec.enter("replay.encode");
        let frame = layers::data_frame(*seq, part.clone());
        let bytes = layers::encode_frame(&frame);
        rec.exit();
        let bytes = bytes?;
        if bytes.len() > capacity && part.len() > 1 {
            let tail = part.split_off(part.len() / 2);
            pending.push(tail);
            pending.push(part);
            continue;
        }
        rec.enter("replay.socket");
        let moved = layers::wire_write(tx, &bytes).and_then(|_| layers::wire_read(rx));
        rec.exit();
        rec.enter("replay.decode");
        let back = moved.and_then(|payload| layers::decode_frame(&payload));
        rec.exit();
        if back? != frame {
            return Err(format!("replayed frame {seq} changed on the wire"));
        }
        *seq += 1;
    }
    Ok(())
}

/// Replays what the server and client do to a stream, serially, on the
/// same artifact: rebuild → `next_batch` → [`replay_batch`]. One thread,
/// so each stage's cost is its span.
fn replay_pipeline(
    bundle: &ArtifactBundle,
    flows: usize,
    rec: &mut Recorder,
) -> Result<Replay, String> {
    let (mut tx, mut rx) = layers::loopback_pair()?;
    let first = rec.spans().len();
    rec.enter("replay.pipeline");
    rec.enter("replay.rebuild");
    let mut model = layers::rebuild(bundle)?;
    rec.exit();
    let mut seq = 0u64;
    let mut failure = Ok(());
    layers::stream_batches(&mut model, flows, |batch, gen_s| {
        let now = Instant::now();
        rec.record(
            "replay.generate",
            now - std::time::Duration::from_secs_f64(gen_s),
            now,
        );
        failure = replay_batch(batch, &mut seq, (&mut tx, &mut rx), rec);
        failure.is_ok()
    })?;
    rec.exit();
    failure?;
    let spans = &rec.spans()[first..];
    let sum = |name: &str| spans::durations_of(spans, name).iter().sum::<f64>();
    Ok(Replay {
        flows,
        generate_s: sum("replay.generate"),
        encode_s: sum("replay.encode"),
        socket_s: sum("replay.socket"),
        decode_s: sum("replay.decode"),
        total_s: sum("replay.pipeline"),
    })
}

/// The traced pass of a serve workload: pulls with spans on and off in
/// alternation, and the per-layer metrics derived from the client's
/// spans, the server's counters, the replay and the micros.
struct TracedPass {
    rec: Recorder,
    before: layers::ServerCounters,
    cpu_before: (f64, f64),
    /// Flows, bytes and frames delivered since `before`.
    flows: usize,
    wire_bytes: u64,
    frames: u64,
    largest_frame: u64,
    /// Flows per second of each whole pull, spans off and spans on.
    plain_rate: Vec<f64>,
    traced_rate: Vec<f64>,
    /// Wall seconds and flows of the whole pulls with spans off.
    plain_wall_s: f64,
    plain_flows: usize,
    hello_ms: Vec<f64>,
    sub_first_ms: Vec<f64>,
    ttff_ms: Vec<f64>,
    pull_ms: Vec<f64>,
    gaps_ms: Vec<f64>,
}

impl TracedPass {
    fn begin(daemon: &Daemon) -> Self {
        TracedPass {
            rec: Recorder::enabled(Instant::now()),
            before: daemon.counters(),
            cpu_before: host::cpu_times(),
            flows: 0,
            wire_bytes: 0,
            frames: 0,
            largest_frame: 0,
            plain_rate: Vec::new(),
            traced_rate: Vec::new(),
            plain_wall_s: 0.0,
            plain_flows: 0,
            hello_ms: Vec::new(),
            sub_first_ms: Vec::new(),
            ttff_ms: Vec::new(),
            pull_ms: Vec::new(),
            gaps_ms: Vec::new(),
        }
    }

    fn count(&mut self, p: &Pulled) {
        self.flows += p.flows;
        self.wire_bytes += p.wire_bytes;
        self.frames += p.frame_flows.len() as u64;
        self.largest_frame = self.largest_frame.max(p.max_frame_bytes);
    }

    /// One whole pull, with spans on when `traced`; an op of `out`.
    fn whole_pull(&mut self, spec: &PullSpec<'_>, traced: bool, out: &mut Outcome) {
        let pulled = if traced {
            pull(spec, &mut self.rec)
        } else {
            pull(spec, &mut Recorder::disabled())
        };
        let p = match pulled {
            Ok(p) => p,
            Err(e) => return out.op("pull", Err(e)),
        };
        out.op("pull", Ok(()));
        self.count(&p);
        let rate = p.flows as f64 / p.wall_s;
        if traced {
            self.traced_rate.push(rate);
            self.gaps_ms.extend(p.gaps_s().map(|g| g * 1e3));
        } else {
            self.plain_rate.push(rate);
            self.plain_wall_s += p.wall_s;
            self.plain_flows += p.flows;
        }
        self.hello_ms.push(p.hello_s * 1e3);
        self.sub_first_ms.push(p.sub_first_s * 1e3);
        self.ttff_ms.push(p.first_s * 1e3);
        self.pull_ms.push(p.wall_s * 1e3);
    }

    /// One resumed subscription with spans on; an op of `out`. Returns
    /// SUBSCRIBE → first DATA frame in milliseconds.
    fn resumed(
        &mut self,
        daemon: &Daemon,
        count: usize,
        from_seq: u64,
        out: &mut Outcome,
    ) -> Option<f64> {
        match daemon.first_frame(count, from_seq, &mut self.rec) {
            Ok(p) => {
                out.op("resume", Ok(()));
                self.count(&p);
                Some(p.sub_first_s * 1e3)
            }
            Err(e) => {
                out.op("resume", Err(e));
                None
            }
        }
    }

    /// Closes the pass: counters, CPU and client-span metrics.
    fn finish(&mut self, daemon: &Daemon, out: &mut Outcome) {
        let after = daemon.counters();
        let sent = after.frames_sent.saturating_sub(self.before.frames_sent) as f64;
        let stalls = |a: u64, b: u64| stats::ratio(a.saturating_sub(b) as f64, sent);
        out.set(
            "netshared.credit_stall_ratio",
            stalls(after.credit_stalls, self.before.credit_stalls),
        );
        out.set(
            "netshared.push_stall_ratio",
            stalls(after.push_stalls, self.before.push_stalls),
        );
        out.set(
            "netshared.stream_max_buffered_bytes",
            after.stream_max_buffered as f64,
        );
        out.set(
            "netshared.wire_bytes_per_flow",
            stats::ratio(self.wire_bytes as f64, self.flows as f64),
        );
        out.set(
            "netshared.flows_per_frame",
            stats::ratio(self.flows as f64, self.frames as f64),
        );

        let (u0, s0) = self.cpu_before;
        let (u1, s1) = host::cpu_times();
        let cpu = (u1 - u0) + (s1 - s0);
        out.set(
            "host.cpu_s_per_kflow",
            stats::ratio(cpu, self.flows as f64 / 1e3),
        );
        out.set("host.sys_share", stats::ratio(s1 - s0, cpu));

        let spans = self.rec.spans();
        let pull_s: f64 = spans::durations_of(spans, "client.pull").iter().sum();
        let share = |name: &str| stats::ratio(spans::self_time_of(spans, name), pull_s);
        out.set("netshared.client_decode_share", share("client.decode"));
        out.set(
            "netshared.client_socket_wait_share",
            share("client.socket_wait"),
        );
        out.set("netshared.frame_gap_ms_p50", stats::median(&self.gaps_ms));
        out.set(
            "netshared.frame_gap_ms_p95",
            stats::percentile(&self.gaps_ms, 95.0),
        );
        out.set("netshared.connect_hello_ms", stats::median(&self.hello_ms));
        out.set(
            "netshared.subscribe_first_data_ms",
            stats::median(&self.sub_first_ms),
        );
        out.set("netshared.ttff_ms_p95", stats::tail(&self.ttff_ms).1);
        out.set("netshared.pull_ms_p95", stats::tail(&self.pull_ms).1);
        out.set(
            "trace.overhead_ratio",
            stats::ratio(
                stats::median(&self.traced_rate),
                stats::median(&self.plain_rate),
            ),
        );
        check_buffer_bound(daemon, self.largest_frame, out);
    }

    /// Replays the pipeline on `flows` flows, runs the micros, derives
    /// what needs both, and writes the spans out.
    fn replay_and_micros(
        mut self,
        workload: Workload,
        daemon: &Daemon,
        flows: usize,
        args: &Args,
        out: &mut Outcome,
    ) -> Result<(), String> {
        // On a thread of its own, as the server's producer is.
        let rec = &mut self.rec;
        let replay = std::thread::scope(|s| {
            let replayed = s.spawn(|| replay_pipeline(&daemon.bundle, flows, rec));
            replayed
                .join()
                .unwrap_or_else(|_| Err("replay thread panicked".to_string()))
        })?;
        micro::run(&daemon.bundle, args, out, &mut self.rec)?;

        let staged = replay.generate_s + replay.encode_s + replay.socket_s + replay.decode_s;
        for (name, secs) in [
            ("trace.share.generate", replay.generate_s),
            ("trace.share.encode", replay.encode_s),
            ("trace.share.socket", replay.socket_s),
            ("trace.share.decode", replay.decode_s),
            ("trace.share.other", (replay.total_s - staged).max(0.0)),
        ] {
            out.set(name, stats::ratio(secs, replay.total_s));
        }
        // Computed, not measured: GRU steps per batch × the micro timings.
        let batches = (replay.flows as f64 / layers::BATCH as f64).ceil();
        let steps = batches * layers::bundle_max_len(&daemon.bundle) as f64;
        let gru_s = steps * out.value("nnet.gru_step_ns") / 1e9;
        let gemm_s = steps * 3.0 * out.value("nnet.gemm_step_ns") / 1e9;
        out.set("trace.share.gru", stats::ratio(gru_s, replay.generate_s));
        out.set("trace.share.gemm", stats::ratio(gemm_s, replay.generate_s));
        // The producer (generate + encode) and the client (socket +
        // decode) run on two cores side by side, so the slower side is
        // the blocking path of a whole pull; its replayed cost is
        // checked against the end-to-end wall of the pulls with spans off.
        let per_flow = (replay.generate_s + replay.encode_s).max(replay.socket_s + replay.decode_s)
            / replay.flows.max(1) as f64;
        out.set(
            "trace.coverage",
            stats::ratio(per_flow * self.plain_flows as f64, self.plain_wall_s),
        );
        out.set(
            "netshared.serve_efficiency",
            stats::ratio(
                stats::median(&self.plain_rate),
                out.value("doppelganger.sample_fast_flows_per_s"),
            ),
        );

        super::write_trace(workload, &self.rec)
    }
}

/// Traced `serve_bulk` / `serve_longseq`: pulls with spans off and on in
/// alternation (their ratio is the tracing overhead), the credit-window
/// and two-connection phases, the offline replay, then the micros.
fn bulk_traced(workload: Workload, args: &Args, out: &mut Outcome) -> Result<(), String> {
    let (art, full, warm, _) = bulk_sizes(workload, args);
    let count = full / 2;
    let daemon = setup(art, args, 1, count, out)?;
    let off = &mut Recorder::disabled();
    for _ in 0..2 {
        pull(&daemon.spec(warm, CREDIT), off)?;
    }

    let mut pass = TracedPass::begin(&daemon);
    let budget = Budget::new(args.seconds * 0.4);
    let mut rounds = 0;
    while budget.more(rounds, args.size(2, 1)) {
        pass.rec.set_req(rounds as u64);
        pass.whole_pull(&daemon.spec(count, CREDIT), false, out);
        pass.whole_pull(&daemon.spec(count, CREDIT), true, out);
        rounds += 1;
    }
    pass.finish(&daemon, out);

    // Credit window and second connection, on warm-up-sized pulls.
    let mut timed = |credit: u32| -> Result<f64, String> {
        Ok(warm as f64 / pull(&daemon.spec(warm, credit), off)?.wall_s)
    };
    let (c1, c16, one) = (timed(1)?, timed(16)?, timed(CREDIT)?);
    out.op("credit window pulls", Ok(()));
    out.set("netshared.credit1_over_credit16", stats::ratio(c1, c16));
    let t0 = Instant::now();
    let both: Vec<Result<(), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| pull(&daemon.spec(warm, CREDIT), &mut Recorder::disabled()).map(drop))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("pull thread panicked".to_string()))
            })
            .collect()
    });
    let two = 2.0 * warm as f64 / t0.elapsed().as_secs_f64();
    out.op("two-connection pulls", both.into_iter().collect());
    out.set("netshared.flows_per_s_2streams", two);
    out.set("netshared.scaling_2streams", stats::ratio(two, one));

    pass.replay_and_micros(workload, &daemon, warm, args, out)
}

/// Traced `serve_interactive`: the same rounds with spans on every
/// other short pull, and the resume slope over the three points.
fn interactive_traced(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let daemon = interactive_prep(args, 1, out)?;
    for _ in 0..10 {
        short_pull(&daemon, &mut Recorder::disabled())?;
    }

    let mut pass = TracedPass::begin(&daemon);
    let (mut skipped, mut resume_ms) = (Vec::new(), Vec::new());
    let budget = Budget::new(args.seconds * 0.45);
    let mut rounds = 0;
    while budget.more(rounds, args.size(2, 1)) {
        pass.rec.set_req(rounds as u64);
        for i in 0..args.size(50, 10) {
            pass.whole_pull(&daemon.spec(layers::BATCH, CREDIT), i % 2 == 1, out);
        }
        for from_seq in resume_points(args) {
            if let Some(ms) = pass.resumed(&daemon, resume_count(args), from_seq, out) {
                skipped.push(from_seq as f64);
                resume_ms.push(ms);
            }
        }
        rounds += 1;
    }
    pass.finish(&daemon, out);
    out.set(
        "netshared.resume_ms_per_skipped_frame",
        stats::slope(&skipped, &resume_ms),
    );

    pass.replay_and_micros(
        Workload::ServeInteractive,
        &daemon,
        args.size(512, 64),
        args,
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_starts_are_running_sums() {
        assert_eq!(frame_starts(&[16, 16, 8, 16]), vec![0, 16, 32, 40]);
        assert!(frame_starts(&[]).is_empty());
    }
}
