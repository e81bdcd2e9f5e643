//! A finished stream gives its threads' stacks back while its
//! connection stays open.
//!
//! Each subscription runs a producer and a sender thread, and a finished
//! thread keeps its stack mapped until its handle is joined or dropped;
//! a long-lived connection whose streams were only joined at disconnect
//! kept two stacks per stream it ever pulled. This test counts the whole
//! process's memory mappings after 50 and after 500 streams on one
//! connection, so it lives alone in its own binary (see `stacks.rs`).

#![cfg(target_os = "linux")]

use netshared::protocol::{self, Frame, ERR_PROTOCOL, PROTOCOL_VERSION};
use netshared::{demo_bundle, Server, ServerConfig};
use orchestrator::CancelToken;
use std::net::TcpStream;
use std::time::Duration;

fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps").expect("maps").lines().count()
}

/// Opens an empty stream: its producer and sender start, and the answer
/// is one EOF.
fn subscribe(sock: &mut TcpStream, stream: u64, token: &CancelToken) {
    let frame =
        Frame::Subscribe { stream, artifact: "demo".into(), count: 0, credit: 1, from_seq: 0 };
    protocol::write_frame(sock, &frame, token).expect("subscribe");
}

#[test]
fn finished_streams_give_their_stacks_back() {
    let cfg = ServerConfig { drain: Duration::ZERO, ..ServerConfig::default() };
    let server = Server::start(cfg, vec![demo_bundle("demo", 7)]).expect("server start");
    let token = CancelToken::new();
    let guard = token.clone();
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(60));
        guard.cancel("test guard timeout");
    });
    let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
    protocol::configure(&sock).expect("configure");
    let hello = Frame::Hello { version: PROTOCOL_VERSION, peer: "churn".into(), artifacts: vec![] };
    protocol::write_frame(&mut sock, &hello, &token).expect("hello");
    protocol::read_frame(&mut sock, &token).expect("server hello");

    let mut early = 0;
    for id in 0..500 {
        if id == 50 {
            early = mappings();
        }
        subscribe(&mut sock, id, &token);
        match protocol::read_frame(&mut sock, &token).expect("frame") {
            Frame::Eof { stream, total: 0 } if stream == id => {}
            other => panic!("stream {id}: expected an empty EOF, got {other:?}"),
        }
    }
    let late = mappings();
    assert!(late <= early + 50, "{early} mappings after 50 streams, {late} after 500");

    // A joined stream's id stays taken: ids are unique per connection.
    subscribe(&mut sock, 7, &token);
    match protocol::read_frame(&mut sock, &token).expect("answer") {
        Frame::Error { stream: Some(7), code, .. } => assert_eq!(code, ERR_PROTOCOL),
        other => panic!("expected a protocol-violation ERROR, got {other:?}"),
    }
    drop(sock);
    server.shutdown();
}
