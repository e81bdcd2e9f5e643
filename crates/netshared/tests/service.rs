//! Concurrency and lifecycle: N concurrent clients get bitwise-correct
//! streams, disconnects free their sessions, and silent clients are
//! evicted by the reused orchestrator watchdog.
//!
//! lint: io-boundary — raw sockets simulate disconnecting and silent
//! clients.

use netshared::protocol::{self, Frame, PROTOCOL_VERSION};
use netshared::server::BIND_RETRY_WINDOW;
use netshared::{demo_bundle, pull, PullConfig, Server, ServerConfig};
use orchestrator::timing::Stopwatch;
use orchestrator::CancelToken;
use std::sync::atomic::Ordering;
use std::time::Duration;

fn guard_token() -> CancelToken {
    let token = CancelToken::new();
    let t = token.clone();
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(30));
        t.cancel("test guard timeout");
    });
    token
}

fn bits(samples: &[doppelganger::GeneratedSample]) -> Vec<Vec<u32>> {
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

fn wait_zero(server: &Server) {
    let stats = server.stats();
    for _ in 0..400 {
        if stats.sessions_open.load(Ordering::Relaxed) == 0
            && stats.streams_open.load(Ordering::Relaxed) == 0
        {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!(
        "resources leaked: {} session(s), {} stream(s)",
        stats.sessions_open.load(Ordering::Relaxed),
        stats.streams_open.load(Ordering::Relaxed),
    );
}

#[test]
fn concurrent_clients_get_bitwise_identical_output_to_offline_sampling() {
    let datasets: &[(&str, u64, u64)] = &[("ugr16", 11, 37), ("caida", 23, 50), ("dc", 5, 21)];
    let server = Server::start(
        ServerConfig { drain: Duration::from_millis(200), ..ServerConfig::default() },
        datasets.iter().map(|(name, seed, _)| demo_bundle(name, *seed)).collect(),
    )
    .expect("server start");
    let addr = server.local_addr().to_string();

    // Two clients per dataset, all pulling at once.
    let mut workers = Vec::new();
    for &(name, _seed, count) in datasets {
        for client in 0..2 {
            let addr = addr.clone();
            workers.push(std::thread::spawn(move || {
                let token = guard_token();
                let mut cfg = PullConfig::new(&addr, name, count);
                cfg.credit = 1 + client as u32 * 3; // window sizes must not matter
                cfg.peer = format!("{name}-client-{client}");
                let result = pull(&cfg, &token).expect("pull");
                (name, count, result)
            }));
        }
    }
    for worker in workers {
        let (name, count, result) = worker.join().expect("client thread");
        assert_eq!(result.samples.len() as u64, count);
        assert_eq!(result.eof_total, count);
        let mut names = result.server_artifacts.clone();
        names.sort();
        assert_eq!(names, vec!["caida", "dc", "ugr16"]);

        let (_, seed, _) = datasets.iter().find(|(n, ..)| *n == name).unwrap();
        let mut offline = demo_bundle(name, *seed).rebuild().expect("rebuild");
        assert_eq!(
            bits(&result.samples),
            bits(&offline.sample_fast(count as usize)),
            "{name}: streamed output diverged from offline sample_fast"
        );
    }

    let stats = server.stats();
    assert_eq!(stats.sessions_total.load(Ordering::Relaxed), 6);
    assert!(stats.frames_sent.load(Ordering::Relaxed) >= 6);
    assert_eq!(stats.eofs_sent.load(Ordering::Relaxed), 6);
    wait_zero(&server);
    assert_eq!(server.shutdown(), 0);
}

#[test]
fn one_connection_can_multiplex_interleaved_streams() {
    let server = Server::start(
        ServerConfig { drain: Duration::from_millis(200), ..ServerConfig::default() },
        vec![demo_bundle("a", 1), demo_bundle("b", 2)],
    )
    .expect("server start");
    let token = guard_token();
    let mut sock = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    protocol::configure(&sock).expect("configure");
    protocol::write_frame(
        &mut sock,
        &Frame::Hello { version: PROTOCOL_VERSION, peer: "mux".into(), artifacts: vec![] },
        &token,
    )
    .unwrap();
    protocol::read_frame(&mut sock, &token).expect("server hello");
    for (stream, artifact) in [(10u64, "a"), (20u64, "b")] {
        protocol::write_frame(
            &mut sock,
            &Frame::Subscribe { stream, artifact: artifact.into(), count: 25, credit: 2, from_seq: 0 },
            &token,
        )
        .unwrap();
    }

    let mut got: std::collections::BTreeMap<u64, Vec<doppelganger::GeneratedSample>> =
        [(10, Vec::new()), (20, Vec::new())].into();
    let mut eofs = 0;
    let mut seqs: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    while eofs < 2 {
        match protocol::read_frame(&mut sock, &token).expect("frame") {
            Frame::Data { stream, seq, samples } => {
                let next = seqs.entry(stream).or_insert(0);
                assert_eq!(seq, *next, "stream {stream} out of order");
                *next += 1;
                got.get_mut(&stream).expect("known stream").extend(samples);
                protocol::write_frame(&mut sock, &Frame::Credit { stream, frames: 1 }, &token)
                    .unwrap();
            }
            Frame::Eof { total, .. } => {
                assert_eq!(total, 25);
                eofs += 1;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    for (stream, seed) in [(10u64, 1u64), (20, 2)] {
        let name = if stream == 10 { "a" } else { "b" };
        let mut offline = demo_bundle(name, seed).rebuild().expect("rebuild");
        assert_eq!(bits(&got[&stream]), bits(&offline.sample_fast(25)), "stream {stream}");
    }
    drop(sock);
    wait_zero(&server);
    server.shutdown();
}

#[test]
fn disconnect_mid_stream_frees_the_session() {
    let server = Server::start(
        ServerConfig { drain: Duration::from_millis(200), ..ServerConfig::default() },
        vec![demo_bundle("demo", 7)],
    )
    .expect("server start");
    let token = guard_token();
    let mut sock = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    protocol::configure(&sock).expect("configure");
    protocol::write_frame(
        &mut sock,
        &Frame::Hello { version: PROTOCOL_VERSION, peer: "flaky".into(), artifacts: vec![] },
        &token,
    )
    .unwrap();
    protocol::read_frame(&mut sock, &token).expect("server hello");
    protocol::write_frame(
        &mut sock,
        &Frame::Subscribe { stream: 1, artifact: "demo".into(), count: 1000, credit: 2, from_seq: 0 },
        &token,
    )
    .unwrap();
    // Take a couple of frames to prove the stream was live, then vanish.
    for _ in 0..2 {
        match protocol::read_frame(&mut sock, &token).expect("data") {
            Frame::Data { .. } => {}
            other => panic!("expected DATA, got {other:?}"),
        }
    }
    assert_eq!(server.stats().sessions_open.load(Ordering::Relaxed), 1);
    drop(sock);

    // Producer, sender, and session threads must all unwind; the gauges
    // return to zero without any explicit cleanup call.
    wait_zero(&server);
    assert_eq!(server.shutdown(), 0);
}

#[test]
fn silent_client_is_evicted_by_the_idle_watchdog() {
    let server = Server::start(
        ServerConfig {
            idle_timeout_secs: Some(0.3),
            drain: Duration::from_millis(200),
            ..ServerConfig::default()
        },
        vec![demo_bundle("demo", 7)],
    )
    .expect("server start");
    let token = guard_token();
    let mut sock = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    protocol::configure(&sock).expect("configure");
    protocol::write_frame(
        &mut sock,
        &Frame::Hello { version: PROTOCOL_VERSION, peer: "silent".into(), artifacts: vec![] },
        &token,
    )
    .unwrap();
    protocol::read_frame(&mut sock, &token).expect("server hello");
    // ... and then say nothing at all.

    let stats = server.stats();
    let mut ticks = 0;
    while stats.evictions.load(Ordering::Relaxed) == 0 && ticks < 400 {
        std::thread::sleep(Duration::from_millis(10));
        ticks += 1;
    }
    assert!(stats.evictions.load(Ordering::Relaxed) >= 1, "watchdog never evicted");
    wait_zero(&server);

    // The eviction is visible in the orchestrator event log too.
    let cancelled = server
        .events()
        .events()
        .iter()
        .any(|e| format!("{e:?}").contains("session-"));
    assert!(cancelled, "no watchdog event recorded for the session");

    // An active client on the same server is NOT evicted: activity beats
    // the heartbeat on every frame.
    let cfg = PullConfig::new(&server.local_addr().to_string(), "demo", 40);
    let result = pull(&cfg, &token).expect("active pull");
    assert_eq!(result.samples.len(), 40);
    drop(sock);
    server.shutdown();
}

#[test]
fn frames_out_keep_a_reading_client_alive() {
    let server = Server::start(
        ServerConfig {
            idle_timeout_secs: Some(0.3),
            drain: Duration::from_millis(200),
            ..ServerConfig::default()
        },
        vec![demo_bundle("demo", 7)],
    )
    .expect("server start");
    let token = guard_token();
    let mut sock = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    protocol::configure(&sock).expect("configure");
    protocol::write_frame(
        &mut sock,
        &Frame::Hello { version: PROTOCOL_VERSION, peer: "reader".into(), artifacts: vec![] },
        &token,
    )
    .unwrap();
    protocol::read_frame(&mut sock, &token).expect("server hello");

    // One SUBSCRIBE with all the credit the stream needs, then only
    // reads: the frames the server writes are the session's only
    // activity. Payloads are not decoded (the EOF aside), so the client
    // keeps pace with the producer and the server's writes span the
    // stream. Counts grow until a stream takes over a second, more than
    // three idle timeouts.
    let (mut count, mut elapsed) = (1_000u64, 0.0);
    for id in 1.. {
        let subscribe = Frame::Subscribe {
            stream: id,
            artifact: "demo".into(),
            count,
            credit: u32::MAX,
            from_seq: 0,
        };
        protocol::write_frame(&mut sock, &subscribe, &token).unwrap();
        let clock = Stopwatch::start();
        let total = loop {
            let payload = orchestrator::wire::read_frame_bytes(&mut sock, &token, 1 << 24)
                .unwrap_or_else(|e| {
                    let at = clock.elapsed_seconds();
                    panic!("stream {id} of {count} samples cut after {at:.2} s: {e:?}")
                });
            if payload.starts_with(b"{\"Eof\"") {
                match protocol::decode_frame(&payload) {
                    Ok(Frame::Eof { total, .. }) => break total,
                    other => panic!("expected EOF, got {other:?}"),
                }
            }
        };
        elapsed = clock.elapsed_seconds();
        assert_eq!(total, count);
        assert_eq!(server.stats().evictions.load(Ordering::Relaxed), 0);
        if elapsed > 1.0 || count >= 1 << 22 {
            break;
        }
        count = (count as f64 * 2.0 / elapsed.max(0.05)) as u64;
    }
    assert!(elapsed > 1.0, "the last stream took {elapsed:.2} s");
    drop(sock);
    wait_zero(&server);
    assert_eq!(server.stats().evictions.load(Ordering::Relaxed), 0);
    server.shutdown();
}

#[test]
fn start_outwaits_a_listener_that_is_about_to_die() {
    // What a supervisor restarting a SIGKILLed daemon sees: the port is
    // still bound when the new process starts and frees a moment later.
    let dying = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = dying.local_addr().unwrap().to_string();
    let reaper = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        drop(dying);
    });
    let server =
        Server::start(ServerConfig { addr: addr.clone(), ..Default::default() }, vec![demo_bundle("demo", 7)])
            .expect("the bind is retried until the old listener is gone");
    assert_eq!(server.local_addr().to_string(), addr);
    reaper.join().unwrap();
    server.shutdown();
}

#[test]
fn start_gives_up_on_a_port_held_for_the_whole_window() {
    let squatter = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = squatter.local_addr().unwrap().to_string();
    let clock = Stopwatch::start();
    let err = Server::start(ServerConfig { addr: addr.clone(), ..Default::default() }, Vec::new())
        .err()
        .expect("the port never frees");
    assert!(clock.elapsed_seconds() >= BIND_RETRY_WINDOW.as_secs_f64(), "gave up early");
    assert!(err.starts_with(&format!("bind {addr}: ")), "{err}");
    drop(squatter);
}
