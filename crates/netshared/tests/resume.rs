//! Crash-tolerant serving: `from_seq` resume must be bitwise identical
//! to an uninterrupted stream, and a reconnecting client must survive a
//! daemon that dies mid-stream and comes back on the same port — with
//! the assembled output indistinguishable from a single clean pull.
//!
//! lint: io-boundary — raw protocol sockets drive resume scenarios.

use doppelganger::GeneratedSample;
use netshared::protocol::{self, Frame, PROTOCOL_VERSION};
use netshared::{demo_bundle, pull, PullConfig, Server, ServerConfig};
use orchestrator::CancelToken;
use std::sync::atomic::Ordering;
use std::time::Duration;

fn guard_token() -> CancelToken {
    let token = CancelToken::new();
    let t = token.clone();
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(45));
        t.cancel("test guard timeout");
    });
    token
}

fn bits(samples: &[GeneratedSample]) -> Vec<Vec<u32>> {
    samples
        .iter()
        .map(|s| {
            let mut row: Vec<u32> = s.meta.iter().map(|x| x.to_bits()).collect();
            for r in &s.records {
                row.extend(r.iter().map(|x| x.to_bits()));
            }
            row
        })
        .collect()
}

/// `(seq, samples)` of every DATA frame received, plus the EOF total.
type Stream = (Vec<(u64, Vec<GeneratedSample>)>, u64);

/// Subscribes over the raw protocol and drains the stream, returning the
/// `(seq, samples)` frames received plus the EOF total.
fn collect_frames(
    addr: &str,
    artifact: &str,
    count: u64,
    from_seq: u64,
    token: &CancelToken,
) -> Stream {
    let mut sock = subscribe(addr, 1, artifact, count, from_seq, token);
    drain(&mut sock, 1, token)
}

/// Handshake plus `SUBSCRIBE` with a credit of 8.
fn subscribe(
    addr: &str,
    stream: u64,
    artifact: &str,
    count: u64,
    from_seq: u64,
    token: &CancelToken,
) -> std::net::TcpStream {
    let mut sock = std::net::TcpStream::connect(addr).expect("connect");
    protocol::configure(&sock).expect("configure");
    protocol::write_frame(
        &mut sock,
        &Frame::Hello { version: PROTOCOL_VERSION, peer: "resume".into(), artifacts: vec![] },
        token,
    )
    .unwrap();
    match protocol::read_frame(&mut sock, token).expect("server hello") {
        Frame::Hello { version, .. } => assert_eq!(version, PROTOCOL_VERSION),
        other => panic!("expected HELLO, got {other:?}"),
    }
    protocol::write_frame(
        &mut sock,
        &Frame::Subscribe { stream, artifact: artifact.into(), count, credit: 8, from_seq },
        token,
    )
    .unwrap();
    sock
}

/// Reads stream `id` to EOF, returning one credit per frame.
fn drain(sock: &mut std::net::TcpStream, id: u64, token: &CancelToken) -> Stream {
    let mut frames = Vec::new();
    loop {
        match protocol::read_frame(sock, token).expect("frame") {
            Frame::Data { stream, seq, samples } => {
                assert_eq!(stream, id);
                frames.push((seq, samples));
                protocol::write_frame(sock, &Frame::Credit { stream: id, frames: 1 }, token)
                    .unwrap();
            }
            Frame::Eof { stream, total } => {
                assert_eq!(stream, id);
                return (frames, total);
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
}

#[test]
fn from_seq_resume_is_bitwise_identical_to_the_uninterrupted_stream() {
    let server = Server::start(
        ServerConfig { drain: Duration::from_millis(200), ..ServerConfig::default() },
        vec![demo_bundle("demo", 7)],
    )
    .expect("server start");
    let addr = server.local_addr().to_string();
    let token = guard_token();

    let (full, full_total) = collect_frames(&addr, "demo", 60, 0, &token);
    assert_eq!(full_total, 60);
    assert!(full.len() >= 2, "need at least two frames to resume between");

    // Resume from every frame boundary: the suffix must be the same
    // frames, same seqs, same bits — and EOF still reports the full
    // stream total so a client can validate completeness.
    for mid in [1, full.len() / 2, full.len() - 1] {
        let (resumed, total) = collect_frames(&addr, "demo", 60, mid as u64, &token);
        assert_eq!(total, full_total, "EOF total is the stream total, not the suffix");
        assert_eq!(resumed.len(), full.len() - mid, "resume at frame {mid}");
        for ((seq_a, samples_a), (seq_b, samples_b)) in resumed.iter().zip(&full[mid..]) {
            assert_eq!(seq_a, seq_b);
            assert_eq!(bits(samples_a), bits(samples_b), "frame {seq_a} diverged");
        }
    }

    // Resuming past the end of the stream yields EOF alone.
    let (empty, total) = collect_frames(&addr, "demo", 60, 10_000, &token);
    assert!(empty.is_empty(), "no frames past the end");
    assert_eq!(total, 60);
    server.shutdown();
}

#[test]
fn reconnecting_pull_survives_a_daemon_restart_mid_stream() {
    const COUNT: u64 = 20_000;
    // A small buffer cap forces many small DATA frames, so the kill
    // below is guaranteed to land with most of the stream unsent.
    let server = Server::start(
        ServerConfig { drain: Duration::ZERO, capacity_bytes: 2048, ..ServerConfig::default() },
        vec![demo_bundle("demo", 7)],
    )
    .expect("server start");
    let addr = server.local_addr().to_string();

    let puller = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let token = guard_token();
            let mut cfg = PullConfig::new(&addr, "demo", COUNT);
            cfg.credit = 2; // many round trips: the kill lands mid-stream
            cfg.retries = 40;
            cfg.backoff = Duration::from_millis(20);
            pull(&cfg, &token)
        })
    };

    // Wait until the stream is demonstrably live, then die without
    // draining — an abrupt daemon crash from the client's side.
    let stats = server.stats();
    let mut ticks = 0;
    while stats.frames_sent.load(Ordering::Relaxed) < 2 && ticks < 1000 {
        std::thread::sleep(Duration::from_millis(5));
        ticks += 1;
    }
    assert!(stats.frames_sent.load(Ordering::Relaxed) >= 2, "stream never started");
    server.shutdown();

    // Restart on the SAME address (std listeners set SO_REUSEADDR, so
    // TIME_WAIT does not block the rebind). The client's retry budget
    // absorbs the refused connects in between.
    let revived = Server::start(
        ServerConfig {
            addr: addr.clone(),
            drain: Duration::from_millis(200),
            capacity_bytes: 2048,
            ..ServerConfig::default()
        },
        vec![demo_bundle("demo", 7)],
    )
    .expect("server restart");

    let result = puller.join().expect("client thread").expect("reconnecting pull");
    assert_eq!(result.samples.len() as u64, COUNT);
    assert_eq!(result.eof_total, COUNT);
    assert!(result.reconnects >= 1, "the kill should have forced at least one reconnect");

    // The spliced stream is bitwise identical to offline sampling: the
    // restarted daemon regenerated the prefix and resumed exactly where
    // the dead one stopped.
    let mut offline = demo_bundle("demo", 7).rebuild().expect("rebuild");
    assert_eq!(
        bits(&result.samples),
        bits(&offline.sample_fast(COUNT as usize)),
        "resumed pull diverged from offline sampling"
    );
    revived.shutdown();
}

// ---------------------------------------------------------------------
// Seek index: a resume that starts from a recorded batch boundary must
// deliver what the replay from sample 0 delivers — the path a server
// that has recorded nothing still takes, and the oracle below.

/// `demo` with 1 KiB stream buffers: a batch of 8 samples is cut into
/// several DATA frames, so a `from_seq` can fall inside a batch.
fn small_frame_server(seed: u64) -> Server {
    Server::start(
        ServerConfig {
            drain: Duration::from_millis(200),
            capacity_bytes: 1024,
            ..ServerConfig::default()
        },
        vec![demo_bundle("demo", seed)],
    )
    .expect("server start")
}

fn stream_bits(frames: &[(u64, Vec<GeneratedSample>)]) -> Vec<(u64, Vec<Vec<u32>>)> {
    frames.iter().map(|(seq, samples)| (*seq, bits(samples))).collect()
}

/// One subscription against a server that has recorded nothing.
fn cold(stream: u64, count: u64, from_seq: u64, token: &CancelToken) -> Stream {
    let server = small_frame_server(7);
    let mut sock = subscribe(&server.local_addr().to_string(), stream, "demo", count, from_seq, token);
    let out = drain(&mut sock, stream, token);
    assert_eq!(server.stats().resume_seeks.load(Ordering::Relaxed), 0);
    server.shutdown();
    out
}

#[test]
fn warm_and_cold_resumes_deliver_the_same_frames() {
    let token = guard_token();
    let warm = small_frame_server(7);
    let addr = warm.local_addr().to_string();
    let stats = warm.stats();
    let counters = |stats: &netshared::ServerStats| {
        (
            stats.resume_seeks.load(Ordering::Relaxed),
            stats.resume_replayed_batches.load(Ordering::Relaxed),
        )
    };

    // The uninterrupted stream passes, and records, every boundary.
    let (full, total) = collect_frames(&addr, "demo", 60, 0, &token);
    assert_eq!(total, 60);
    assert_eq!(counters(&stats), (0, 0), "from_seq 0 is no resume");
    // The batch (of 8 samples) each frame was cut from.
    let mut before = 0;
    let batch_of: Vec<u64> = full
        .iter()
        .map(|(_, samples)| {
            before += samples.len();
            (before - samples.len()) as u64 / 8
        })
        .collect();
    let batches = batch_of[full.len() - 1] + 1;
    assert_eq!(batches, 8);
    assert!(batch_of.windows(2).any(|w| w[0] == w[1]), "no from_seq falls inside a batch");

    // Every frame of the stream, the first one past its end, and the
    // largest there is.
    let points = || (1..=full.len() as u64).chain([u64::MAX]);
    let check = |from_seq: u64, (resumed, total): Stream| {
        assert_eq!(total, 60, "EOF total is the stream total, not the suffix");
        let skipped = from_seq.min(full.len() as u64) as usize;
        assert_eq!(stream_bits(&resumed), stream_bits(&full[skipped..]), "from_seq {from_seq}");
    };
    // The batch `from_seq` falls inside; past the end, the last one.
    let batch_at = |from_seq: u64| batch_of.get(from_seq as usize).copied().unwrap_or(batches - 1);

    for pass in 0..2 {
        for from_seq in points() {
            let (seeks, replayed) = counters(&stats);
            check(from_seq, collect_frames(&addr, "demo", 60, from_seq, &token));
            let (seeks, replayed) = (counters(&stats).0 - seeks, counters(&stats).1 - replayed);
            // Sample 0 is where a cold stream starts: never an entry.
            assert_eq!(seeks, u64::from(batch_at(from_seq) > 0), "pass {pass} from_seq {from_seq}");
            // One batch is regenerated when the frame before `from_seq`
            // was cut from the same batch; past the end, the last one.
            let inside = batch_of[from_seq.min(full.len() as u64) as usize - 1] == batch_at(from_seq);
            assert_eq!(replayed, u64::from(inside), "pass {pass} from_seq {from_seq}");
        }
    }
    warm.shutdown();

    for from_seq in points() {
        let server = small_frame_server(7);
        check(from_seq, collect_frames(&server.local_addr().to_string(), "demo", 60, from_seq, &token));
        // Every batch that starts below `from_seq` is regenerated.
        let below = batch_of[from_seq.min(full.len() as u64) as usize - 1] + 1;
        assert_eq!(counters(&server.stats()), (0, below), "cold from_seq {from_seq}");
        server.shutdown();
    }
}

#[test]
fn an_entry_serves_other_counts_and_only_its_own_stream_id() {
    let token = guard_token();
    let warm = small_frame_server(7);
    let addr = warm.local_addr().to_string();
    let seeks = || warm.stats().resume_seeks.load(Ordering::Relaxed);
    let on_warm = |stream: u64, count: u64, from_seq: u64| {
        drain(&mut subscribe(&addr, stream, "demo", count, from_seq, &token), stream, &token)
    };

    // Entries at samples 8, 16, … 56 of stream id 9.
    assert_eq!(on_warm(9, 60, 0).1, 60);
    // Longer than the recorded stream (the last entry is the nearest one
    // to a late `from_seq`), shorter than it, shorter than an entry's
    // sample count, and one batch or less (no entry applies).
    for count in [100, 20, 12, 8, 3] {
        for from_seq in [1, 4, 9, 40] {
            let before = seeks();
            let (got, want) = (on_warm(9, count, from_seq), cold(9, count, from_seq, &token));
            // Frame 40 is past the first batch of every stream here: the
            // resume starts from the last entry its count reaches.
            if from_seq == 40 {
                assert_eq!(seeks() - before, u64::from(count >= 8), "count {count}");
            }
            assert_eq!(got.1, count);
            assert_eq!(
                (stream_bits(&got.0), got.1),
                (stream_bits(&want.0), want.1),
                "count {count} from_seq {from_seq}"
            );
        }
    }
    assert!(seeks() > 0);

    // Stream id 10 is one digit wider in every frame header, so its
    // frames are cut for themselves: id 9's entries are not consulted.
    let before = seeks();
    let want = cold(10, 60, 5, &token);
    let first = on_warm(10, 60, 5);
    assert_eq!(seeks(), before, "an entry recorded under id 9 served id 10");
    let second = on_warm(10, 60, 5);
    assert_eq!(seeks(), before + 1, "the first resume under id 10 records its boundaries");
    for got in [first, second] {
        assert_eq!((stream_bits(&got.0), got.1), (stream_bits(&want.0), want.1));
    }
    warm.shutdown();
}

#[test]
fn resumes_run_beside_a_live_producer_and_beside_each_other() {
    const COUNT: u64 = 400;
    let token = guard_token();
    let (full, total) = cold(1, COUNT, 0, &token);
    assert_eq!(total, COUNT);
    let check = |from_seq: usize, (resumed, total): Stream| {
        assert_eq!(total, COUNT);
        assert_eq!(stream_bits(&resumed), stream_bits(&full[from_seq..]), "from_seq {from_seq}");
    };

    let server = small_frame_server(7);
    let addr = server.local_addr().to_string();
    // The interrupted stream: two frames read, no credit returned. Its
    // producer fills the 1 KiB buffer behind the eight credited frames
    // and blocks there, alive, for as long as this socket stays open.
    let mut stalled = subscribe(&addr, 1, "demo", COUNT, 0, &token);
    let mut head = Vec::new();
    for _ in 0..2 {
        match protocol::read_frame(&mut stalled, &token).expect("frame") {
            Frame::Data { seq, samples, .. } => head.push((seq, samples)),
            other => panic!("unexpected frame {other:?}"),
        }
    }
    // Its resume overtakes it, recording what it has not reached.
    check(2, collect_frames(&addr, "demo", COUNT, 2, &token));

    // Two resumes at once, started together.
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for from_seq in [full.len() / 3, full.len() - 2] {
            let (barrier, addr, token, check) = (&barrier, &addr, &token, &check);
            scope.spawn(move || {
                barrier.wait();
                check(from_seq, collect_frames(addr, "demo", COUNT, from_seq as u64, token));
            });
        }
    });

    // The overtaken producer goes on to offer boundaries the index
    // already holds; its own stream and later resumes are unaffected.
    for _ in 0..2 {
        protocol::write_frame(&mut stalled, &Frame::Credit { stream: 1, frames: 1 }, &token).unwrap();
    }
    let (tail, total) = drain(&mut stalled, 1, &token);
    head.extend(tail);
    check(0, (head, total));
    check(full.len() / 2, collect_frames(&addr, "demo", COUNT, (full.len() / 2) as u64, &token));
    assert_eq!(server.stats().resume_seeks.load(Ordering::Relaxed), 4);
    server.shutdown();
}

#[test]
fn two_servers_in_one_process_never_share_an_entry() {
    let token = guard_token();
    let (seven, eight) = (small_frame_server(7), small_frame_server(8));
    let (addr7, addr8) = (seven.local_addr().to_string(), eight.local_addr().to_string());
    // Same artifact name, same stream id, different weights.
    let (full7, _) = collect_frames(&addr7, "demo", 60, 0, &token);
    let (resumed8, total) = collect_frames(&addr8, "demo", 60, 5, &token);
    assert_eq!(total, 60);
    assert_eq!(eight.stats().resume_seeks.load(Ordering::Relaxed), 0);
    let (full8, _) = collect_frames(&addr8, "demo", 60, 0, &token);
    assert_ne!(stream_bits(&full7), stream_bits(&full8), "seeds 7 and 8 generate the same stream");
    assert_eq!(stream_bits(&resumed8), stream_bits(&full8[5..]));
    seven.shutdown();
    eight.shutdown();
}

#[test]
fn the_largest_from_seq_and_an_empty_stream_answer_eof_alone() {
    let token = guard_token();
    let server = small_frame_server(7);
    let addr = server.local_addr().to_string();
    // Against a cold index, then (the first pass recorded) a warm one.
    for _ in 0..2 {
        for (count, from_seq) in [(60, u64::MAX), (0, 0), (0, 5), (0, u64::MAX)] {
            let (frames, total) = collect_frames(&addr, "demo", count, from_seq, &token);
            assert!(frames.is_empty(), "count {count} from_seq {from_seq}");
            assert_eq!(total, count);
        }
    }
    assert_eq!(server.stats().resume_seeks.load(Ordering::Relaxed), 1);
    server.shutdown();
}
