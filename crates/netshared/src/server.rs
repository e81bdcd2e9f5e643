//! The daemon core: listener, accept loop, session registry, watchdog,
//! and graceful drain.
//!
//! lint: io-boundary — this module owns the `TcpListener` accept loop;
//! raw accepts anywhere else in the workspace trip the
//! `capability-graph` lint.
//!
//! Lifecycle: [`Server::start`] binds (port 0 for ephemeral), spawns the
//! accept thread (and, when an idle timeout is configured, the reused
//! orchestrator [`Watchdog`] with each session's
//! [`Heartbeat`](orchestrator::Heartbeat)), and
//! returns a handle. [`Server::shutdown`] runs the two-phase drain:
//!
//! 1. **drain**: stop accepting, refuse new `SUBSCRIBE`s (`ERR_DRAINING`),
//!    and give in-flight streams up to `drain` to finish naturally;
//! 2. **cancel**: trip every session token; each session closes its
//!    streams, the producer and sender waits and all socket I/O poll the
//!    token, so sessions unwind, and every thread is joined before
//!    `shutdown` returns.

use crate::lock;
use crate::protocol::{self, Frame, ERR_OVERLOADED};
use crate::seek::{SeekIndex, Served};
use crate::session::{run_session, SessionCtx};
use doppelganger::ArtifactBundle;
use orchestrator::timing::Stopwatch;
use orchestrator::watchdog::{Watchdog, WatchdogOptions};
use orchestrator::{fnv1a64, Backoff, CancelToken, EventLog};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Accept-loop poll interval (bounds shutdown latency).
const ACCEPT_POLL: Duration = Duration::from_millis(20);
/// Drain-phase poll interval.
const DRAIN_POLL: Duration = Duration::from_millis(50);
/// How long [`Server::start`] keeps retrying a bind the OS refuses with
/// `AddrInUse`. A supervisor that restarts a killed daemon on the same
/// port races the kernel reaping the old process: `kill -9` only queues
/// the signal and the dead daemon's listener stays bound until the reap.
pub const BIND_RETRY_WINDOW: Duration = Duration::from_secs(2);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Per-stream buffer capacity cap in bytes.
    pub capacity_bytes: usize,
    /// Evict sessions whose clients go silent (no frames in or out) for
    /// this long; `None` disables the watchdog.
    pub idle_timeout_secs: Option<f64>,
    /// Grace window for in-flight streams during [`Server::shutdown`].
    pub drain: Duration,
    /// Admission control: with this many sessions open, new connections
    /// are answered with a retryable `overloaded` ERROR and dropped
    /// instead of each getting a session's threads and buffers
    /// (`None` = unlimited).
    pub max_sessions: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            capacity_bytes: 64 * 1024,
            idle_timeout_secs: None,
            drain: Duration::from_secs(2),
            max_sessions: None,
        }
    }
}

/// Cheap always-consistent counters for tests and operators; each has a
/// `netshared.*` metrics twin in the global telemetry registry.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Sessions currently connected (`netshared.sessions.open`).
    pub sessions_open: AtomicI64,
    /// Sessions accepted over the server's lifetime.
    pub sessions_total: AtomicU64,
    /// Streams currently subscribed (`netshared.streams.open`).
    pub streams_open: AtomicI64,
    /// DATA frames written (`netshared.frames.sent`).
    pub frames_sent: AtomicU64,
    /// EOF frames written.
    pub eofs_sent: AtomicU64,
    /// ERROR frames written (`netshared.errors.sent`).
    pub errors_sent: AtomicU64,
    /// Sessions evicted by the idle watchdog (`netshared.evictions`).
    pub evictions: AtomicU64,
    /// Times a sender found its credit budget empty
    /// (`netshared.stream.credit_stalls`).
    pub credit_stalls: AtomicU64,
    /// Times a producer found its stream buffer full
    /// (`netshared.stream.push_stalls`).
    pub push_stalls: AtomicU64,
    /// Frames dropped into a closed buffer, or still in it when it
    /// closed (`netshared.stream.drops`).
    pub drops: AtomicU64,
    /// High-water mark of any single stream's buffered bytes — the
    /// bounded-memory invariant the backpressure suite pins.
    pub stream_max_buffered: AtomicU64,
    /// Connections shed by `--max-sessions` admission control
    /// (`netshared.shed`).
    pub shed: AtomicU64,
    /// Resumes (`from_seq > 0`) that started from a seek-index entry
    /// instead of sample 0 (`netshared.resume.seeks`).
    pub resume_seeks: AtomicU64,
    /// Batches resumes regenerated below their `from_seq`, added when a
    /// resumed stream's producer exits
    /// (`netshared.resume.replayed_batches`).
    pub resume_replayed_batches: AtomicU64,
}

/// Session registry entry: the session's cancel token plus its joinable
/// thread handle. The accept loop drops the slots of finished sessions
/// before it adds one, so the registry holds the live sessions plus what
/// finished since the last accept — a finished thread keeps its stack
/// mapped until its handle is joined or dropped.
type SessionSlot = (CancelToken, std::thread::JoinHandle<()>);

/// A running daemon; dropping it without [`Server::shutdown`] aborts
/// sessions without the drain grace.
pub struct Server {
    local_addr: SocketAddr,
    token: CancelToken,
    draining: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    sessions: Arc<Mutex<Vec<SessionSlot>>>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    watchdog: Option<Arc<Watchdog>>,
    watchdog_thread: Option<std::thread::JoinHandle<()>>,
    events: Arc<EventLog>,
    artifacts: Vec<String>,
    drain: Duration,
}

/// Binds `addr`, retrying `AddrInUse` — and only that — under seeded
/// backoff until [`BIND_RETRY_WINDOW`] has passed.
fn bind_with_retry(addr: &str, token: &CancelToken) -> std::io::Result<TcpListener> {
    let clock = Stopwatch::start();
    let mut backoff = Backoff::new(
        Duration::from_millis(10),
        Duration::from_millis(200),
        fnv1a64(addr.as_bytes()),
    );
    loop {
        match TcpListener::bind(addr) {
            Err(e)
                if e.kind() == std::io::ErrorKind::AddrInUse
                    && clock.elapsed_seconds() < BIND_RETRY_WINDOW.as_secs_f64() =>
            {
                if backoff.sleep(token) {
                    return Err(e);
                }
            }
            other => return other,
        }
    }
}

impl Server {
    /// Binds and starts serving `bundles`. Fails on bind errors (an
    /// address still in use only after [`BIND_RETRY_WINDOW`]) and on
    /// duplicate artifact names.
    pub fn start(cfg: ServerConfig, bundles: Vec<ArtifactBundle>) -> Result<Server, String> {
        let mut by_name: BTreeMap<String, Arc<Served>> = BTreeMap::new();
        for bundle in bundles {
            let name = bundle.name.clone();
            let served = Served { bundle, seeks: SeekIndex::default() };
            if by_name.insert(name.clone(), Arc::new(served)).is_some() {
                return Err(format!("duplicate artifact name {name:?}"));
            }
        }
        let artifacts: Vec<String> = by_name.keys().cloned().collect();
        let by_name = Arc::new(by_name);

        let token = CancelToken::new();
        let listener =
            bind_with_retry(&cfg.addr, &token).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;

        let draining = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let sessions: Arc<Mutex<Vec<SessionSlot>>> = Arc::new(Mutex::new(Vec::new()));
        let events = Arc::new(EventLog::new());

        let (watchdog, watchdog_thread) = match cfg.idle_timeout_secs {
            Some(stale) => {
                let dog = Arc::new(Watchdog::new(WatchdogOptions {
                    max_job_secs: None,
                    heartbeat_timeout_secs: Some(stale),
                    poll: Duration::from_millis(50),
                }));
                let thread = {
                    let (dog, events) = (Arc::clone(&dog), Arc::clone(&events));
                    std::thread::spawn(move || dog.run(&events, |_| {}))
                };
                (Some(dog), Some(thread))
            }
            None => (None, None),
        };

        let accept_thread = {
            let token = token.clone();
            let draining = Arc::clone(&draining);
            let stats = Arc::clone(&stats);
            let sessions = Arc::clone(&sessions);
            let watchdog = watchdog.clone();
            let capacity_bytes = cfg.capacity_bytes.max(1);
            let max_sessions = cfg.max_sessions;
            let next_id = AtomicU64::new(0);
            std::thread::spawn(move || {
                let _span = telemetry::span!("netshared/accept");
                while !token.wait_timeout(Duration::ZERO) {
                    match listener.accept() {
                        Ok((mut sock, _peer)) => {
                            // Admission control: at the session cap, shed
                            // the connection with a retryable `overloaded`
                            // ERROR instead of spawning another session's
                            // threads (or leaving it in the kernel accept
                            // queue).
                            let at_cap = max_sessions.is_some_and(|max| {
                                stats.sessions_open.load(Ordering::Relaxed) >= max as i64
                            });
                            if at_cap {
                                stats.shed.fetch_add(1, Ordering::Relaxed);
                                stats.errors_sent.fetch_add(1, Ordering::Relaxed);
                                telemetry::metrics::counter("netshared.shed").inc();
                                telemetry::metrics::counter("netshared.errors.sent").inc();
                                if sock.set_nonblocking(false).is_ok()
                                    && protocol::configure(&sock).is_ok()
                                {
                                    let _ = protocol::write_frame(
                                        &mut sock,
                                        &Frame::Error {
                                            stream: None,
                                            code: ERR_OVERLOADED.to_string(),
                                            message: format!(
                                                "session limit {} reached; retry later",
                                                max_sessions.unwrap_or(0)
                                            ),
                                        },
                                        &token,
                                    );
                                }
                                continue;
                            }
                            let id = next_id.fetch_add(1, Ordering::Relaxed);
                            stats.sessions_total.fetch_add(1, Ordering::Relaxed);
                            // Sessions do their own (timeout-based) blocking I/O.
                            if sock.set_nonblocking(false).is_err() {
                                continue;
                            }
                            let session_token = CancelToken::new();
                            let ctx = SessionCtx {
                                id,
                                bundles: Arc::clone(&by_name),
                                capacity_bytes,
                                token: session_token.clone(),
                                stats: Arc::clone(&stats),
                                watchdog: watchdog.clone(),
                                draining: Arc::clone(&draining),
                            };
                            let handle =
                                std::thread::spawn(move || run_session(sock, ctx));
                            let mut sessions = lock(&sessions); // lint: lock-order(netshared.session_registry)
                            sessions.retain(|(_, done)| !done.is_finished());
                            sessions.push((session_token, handle));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            if token.wait_timeout(ACCEPT_POLL) {
                                break;
                            }
                        }
                        Err(_) => {
                            if token.wait_timeout(ACCEPT_POLL) {
                                break;
                            }
                        }
                    }
                }
            })
        };

        Ok(Server {
            local_addr,
            token,
            draining,
            stats,
            sessions,
            accept_thread: Some(accept_thread),
            watchdog,
            watchdog_thread,
            events,
            artifacts,
            drain: cfg.drain,
        })
    }

    /// The bound address (with the real port when `addr` used port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Names of the artifacts on offer, sorted.
    pub fn artifacts(&self) -> &[String] {
        &self.artifacts
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// The orchestrator event log (watchdog cancellations land here).
    pub fn events(&self) -> Arc<EventLog> {
        Arc::clone(&self.events)
    }

    /// Graceful two-phase shutdown (see module docs). Consumes the
    /// server; returns the number of sessions that were still live when
    /// the cancel phase began.
    pub fn shutdown(mut self) -> usize {
        let _span = telemetry::span!("netshared/shutdown");
        // Phase 1: drain. Stop accepting and refuse new subscriptions,
        // but leave live sessions running for up to the drain window.
        self.draining.store(true, Ordering::Relaxed);
        self.token.cancel("server shutdown");
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let drain_ticks = (self.drain_ticks()).max(1);
        for _ in 0..drain_ticks {
            if self.stats.sessions_open.load(Ordering::Relaxed) == 0 {
                break;
            }
            // Never-cancelled token as an interruptible sleep.
            let _ = CancelToken::new().wait_timeout(DRAIN_POLL);
        }
        // Phase 2: cancel whatever is left and join every session.
        let sessions = std::mem::take(&mut *lock(&self.sessions)); // lint: lock-order(netshared.session_registry)
        let lingering = self.stats.sessions_open.load(Ordering::Relaxed).max(0) as usize;
        for (token, _) in &sessions {
            token.cancel("server shutdown");
        }
        for (_, handle) in sessions {
            let _ = handle.join();
        }
        if let Some(dog) = &self.watchdog {
            dog.stop();
        }
        if let Some(t) = self.watchdog_thread.take() {
            let _ = t.join();
        }
        lingering
    }

    fn drain_ticks(&self) -> u32 {
        (self.drain.as_millis() / DRAIN_POLL.as_millis()).min(u128::from(u32::MAX)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo_bundle;
    use std::net::TcpStream;

    fn demo_server() -> Server {
        let cfg = ServerConfig { drain: Duration::ZERO, ..ServerConfig::default() };
        Server::start(cfg, vec![demo_bundle("demo", 7)]).expect("server start")
    }

    fn wait_until(what: &str, mut holds: impl FnMut() -> bool) {
        let clock = Stopwatch::start();
        while !holds() {
            assert!(clock.elapsed_seconds() < 30.0, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Bare connect/close cycles; when this returns each was accepted
    /// and `held` sessions are open.
    fn churn(server: &Server, cycles: u64, held: i64) {
        let stats = server.stats();
        let accepted = || stats.sessions_total.load(Ordering::Relaxed);
        let target = accepted() + cycles;
        for left in (0..cycles).rev() {
            drop(TcpStream::connect(server.local_addr()).expect("connect"));
            // The accept loop sleeps between polls; a full accept queue
            // drops SYNs and `connect` stalls for a second.
            wait_until("the accept loop is within a burst", || target - left <= accepted() + 32);
        }
        wait_until("each is accepted and over", || {
            accepted() >= target && stats.sessions_open.load(Ordering::Relaxed) == held
        });
    }

    fn registry_len(server: &Server) -> usize {
        server.sessions.lock().unwrap().len()
    }

    #[test]
    fn the_accept_loop_reaps_finished_sessions() {
        let server = demo_server();
        churn(&server, 300, 0);
        // The sweep runs on accept, and a session's thread is finished a
        // moment after it gives up its `sessions_open` count.
        wait_until("one more accept sweeps the registry", || {
            churn(&server, 1, 0);
            registry_len(&server) <= 4
        });
        // A live session stays registered, and shutdown still joins it.
        let held = TcpStream::connect(server.local_addr()).expect("connect");
        wait_until("the held connection is a session", || {
            server.stats.sessions_open.load(Ordering::Relaxed) == 1
        });
        churn(&server, 20, 1);
        wait_until("the sweep leaves the live session", || {
            churn(&server, 1, 1);
            (1..=4).contains(&registry_len(&server))
        });
        assert_eq!(server.shutdown(), 1);
        drop(held);
    }
}
