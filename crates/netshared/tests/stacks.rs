//! A finished session gives its thread's stack back.
//!
//! Each accepted connection runs on a thread of its own, and a finished
//! thread keeps its stack mapped until its handle is joined or dropped;
//! a daemon that never dropped them aborted near 32 700 connections
//! (`vm.max_map_count`). This test counts the whole process's memory
//! mappings after 200 and after 2 000 bare connections to a demo server,
//! so it lives alone in its own binary: any other test running beside it
//! would map and unmap thread stacks of its own in between.

#![cfg(target_os = "linux")]

use netshared::{demo_bundle, Server, ServerConfig};
use orchestrator::timing::Stopwatch;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

fn wait_until(what: &str, mut holds: impl FnMut() -> bool) {
    let clock = Stopwatch::start();
    while !holds() {
        assert!(clock.elapsed_seconds() < 30.0, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Bare connect/close cycles; when this returns each was accepted and
/// every session is over.
fn churn(server: &Server, cycles: u64) {
    let stats = server.stats();
    let accepted = || stats.sessions_total.load(Ordering::Relaxed);
    let target = accepted() + cycles;
    for left in (0..cycles).rev() {
        drop(TcpStream::connect(server.local_addr()).expect("connect"));
        // The accept loop sleeps between polls; a full accept queue drops
        // SYNs and `connect` stalls for a second.
        wait_until("the accept loop is within a burst", || target - left <= accepted() + 32);
    }
    wait_until("each is accepted and over", || {
        accepted() >= target && stats.sessions_open.load(Ordering::Relaxed) == 0
    });
}

fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps").expect("maps").lines().count()
}

#[test]
fn finished_sessions_give_their_stacks_back() {
    let cfg = ServerConfig { drain: Duration::ZERO, ..ServerConfig::default() };
    let server = Server::start(cfg, vec![demo_bundle("demo", 7)]).expect("server start");
    churn(&server, 200);
    let early = mappings();
    churn(&server, 1800);
    let late = mappings();
    assert!(late <= early + 50, "{early} mappings after 200 connections, {late} after 2000");
    server.shutdown();
}
