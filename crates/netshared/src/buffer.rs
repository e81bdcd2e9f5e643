//! Bounded per-stream buffer between the generation producer and the
//! socket sender.
//!
//! Shaped after the flux `Flow` exemplar: an indexed chunk bucket
//! (`seq → encoded frame bytes`) with a byte-capacity cap, push/pull
//! waiter counters, and drop/buffered statistics. The producer pushes
//! encoded DATA frames and *blocks* when the buffer is at capacity —
//! backpressure, not growth — while the sender pulls frames in sequence
//! order as client credit allows. Both sides poll a [`CancelToken`]
//! inside their condvar waits so session teardown never strands a
//! thread.
//!
//! The capacity invariant the slow-consumer test pins: at every instant,
//! `buffered_bytes ≤ max(capacity, first frame's size)` — a single frame
//! larger than the capacity is admitted alone (otherwise it could never
//! be delivered), and everything else waits.

use crate::server::ServerStats;
use crate::{lock, wait_timeout};
use orchestrator::CancelToken;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How long a blocked push/pull sleeps before re-checking its token.
const WAIT_POLL: Duration = Duration::from_millis(20);

/// Running statistics, sampled via [`StreamBuf::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufStats {
    /// Frames accepted by [`StreamBuf::push`].
    pub pushed: u64,
    /// Frames pulled by [`StreamBuf::pull`].
    pub pulled: u64,
    /// Frames rejected because the consumer side closed first.
    pub dropped: u64,
    /// Times a push found the buffer full and had to wait.
    pub push_stalls: u64,
    /// Bytes currently buffered.
    pub buffered_bytes: usize,
    /// High-water mark of `buffered_bytes` over the buffer's lifetime.
    pub max_buffered_bytes: usize,
}

#[derive(Default)]
struct BufState {
    /// `seq → encoded frame`; BTreeMap keeps delivery in push order.
    bucket: BTreeMap<u64, Vec<u8>>,
    /// Next sequence number a push will take.
    next_index: u64,
    /// Next sequence number a pull will deliver.
    tail_index: u64,
    /// Producer finished; holds the total sample count for the EOF frame.
    finished: Option<u64>,
    /// Consumer gone; pushes are dropped and pulls fail.
    closed: bool,
    /// Threads currently blocked in `push` / `pull` (diagnostics).
    waiting_push: u32,
    waiting_pull: u32,
    stats: BufStats,
}

/// What a [`StreamBuf::pull`] yielded.
#[derive(Debug, Clone, PartialEq)]
pub enum Pulled {
    /// The next frame in sequence order: `(seq, encoded bytes)`.
    Frame(u64, Vec<u8>),
    /// Producer is done and the buffer is drained; total sample count.
    Finished(u64),
    /// The buffer was closed or the token fired.
    Closed,
}

/// The bounded buffer (see module docs).
pub struct StreamBuf {
    state: Mutex<BufState>,
    push_cv: Condvar,
    pull_cv: Condvar,
    capacity: usize,
    /// Server-wide stat mirror (None for standalone buffers in tests).
    sink: Option<Arc<ServerStats>>,
}

impl StreamBuf {
    /// A buffer admitting at most `capacity` bytes of encoded frames
    /// (plus the one oversized-frame exception, see module docs).
    pub fn new(capacity: usize) -> Self {
        StreamBuf {
            state: Mutex::new(BufState::default()),
            push_cv: Condvar::new(),
            pull_cv: Condvar::new(),
            capacity: capacity.max(1),
            sink: None,
        }
    }

    /// Like [`StreamBuf::new`], additionally mirroring stall/drop/high-water
    /// statistics into the server-wide [`ServerStats`].
    pub fn with_stats(capacity: usize, sink: Arc<ServerStats>) -> Self {
        let mut buf = StreamBuf::new(capacity);
        buf.sink = Some(sink);
        buf
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BufState> {
        lock(&self.state) // lint: lock-order(netshared.stream_state)
    }

    /// Appends one encoded frame, blocking while the buffer is full.
    /// Returns `false` (and counts a drop) if the buffer closed or the
    /// token fired before the frame fit.
    pub fn push(&self, bytes: Vec<u8>, token: &CancelToken) -> bool {
        let len = bytes.len();
        let mut st = self.lock(); // lint: lock-order(netshared.stream_state)
        let mut stalled = false;
        while !st.closed && st.stats.buffered_bytes + len > self.capacity {
            // An over-capacity frame may enter an empty buffer alone;
            // splitting is the producer's job, delivery is ours.
            if st.bucket.is_empty() {
                break;
            }
            if token.is_cancelled() {
                break;
            }
            if !stalled {
                stalled = true;
                st.stats.push_stalls += 1;
                telemetry::metrics::counter("netshared.stream.push_stalls").inc();
                if let Some(sink) = &self.sink {
                    sink.push_stalls.fetch_add(1, Ordering::Relaxed);
                }
            }
            st.waiting_push += 1;
            st = wait_timeout(&self.push_cv, st, WAIT_POLL);
            st.waiting_push -= 1;
        }
        if st.closed || (token.is_cancelled() && st.stats.buffered_bytes + len > self.capacity) {
            st.stats.dropped += 1;
            telemetry::metrics::counter("netshared.stream.drops").inc();
            if let Some(sink) = &self.sink {
                sink.drops.fetch_add(1, Ordering::Relaxed);
            }
            return false;
        }
        let seq = st.next_index;
        st.next_index += 1;
        st.bucket.insert(seq, bytes);
        st.stats.pushed += 1;
        st.stats.buffered_bytes += len;
        st.stats.max_buffered_bytes = st.stats.max_buffered_bytes.max(st.stats.buffered_bytes);
        telemetry::metrics::gauge("netshared.bytes.buffered").add(len as f64);
        if let Some(sink) = &self.sink {
            sink.stream_max_buffered
                .fetch_max(st.stats.buffered_bytes as u64, Ordering::Relaxed);
        }
        self.pull_cv.notify_one();
        true
    }

    /// Takes the next frame in sequence order, blocking while the buffer
    /// is empty and the producer still running.
    pub fn pull(&self, token: &CancelToken) -> Pulled {
        let mut st = self.lock(); // lint: lock-order(netshared.stream_state)
        loop {
            if st.closed {
                return Pulled::Closed;
            }
            let tail = st.tail_index;
            if let Some(bytes) = st.bucket.remove(&tail) {
                st.tail_index += 1;
                st.stats.pulled += 1;
                st.stats.buffered_bytes -= bytes.len();
                telemetry::metrics::gauge("netshared.bytes.buffered").add(-(bytes.len() as f64));
                self.push_cv.notify_one();
                return Pulled::Frame(st.tail_index - 1, bytes);
            }
            if let Some(total) = st.finished {
                return Pulled::Finished(total);
            }
            if token.is_cancelled() {
                return Pulled::Closed;
            }
            st.waiting_pull += 1;
            st = wait_timeout(&self.pull_cv, st, WAIT_POLL);
            st.waiting_pull -= 1;
        }
    }

    /// Producer-side completion: after the bucket drains, pulls yield
    /// `Finished(total)`.
    pub fn finish(&self, total: u64) {
        let mut st = self.lock(); // lint: lock-order(netshared.stream_state)
        st.finished = Some(total);
        self.pull_cv.notify_all();
    }

    /// Consumer-side teardown: blocked pushes drop, blocked pulls end.
    /// Remaining buffered bytes are released from the gauge.
    pub fn close(&self) {
        let mut st = self.lock(); // lint: lock-order(netshared.stream_state)
        if !st.closed {
            st.closed = true;
            if st.stats.buffered_bytes > 0 {
                telemetry::metrics::gauge("netshared.bytes.buffered")
                    .add(-(st.stats.buffered_bytes as f64));
                st.stats.buffered_bytes = 0;
            }
        }
        self.push_cv.notify_all();
        self.pull_cv.notify_all();
    }

    /// A snapshot of the running statistics.
    pub fn stats(&self) -> BufStats {
        self.lock().stats // lint: lock-order(netshared.stream_state)
    }

    /// Waiter counters `(waiting_push, waiting_pull)` (diagnostics).
    pub fn waiters(&self) -> (u32, u32) {
        let st = self.lock(); // lint: lock-order(netshared.stream_state)
        (st.waiting_push, st.waiting_pull)
    }

    /// The configured capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn frame(n: usize) -> Vec<u8> {
        vec![0xab; n]
    }

    #[test]
    fn frames_flow_in_sequence_order() {
        let buf = StreamBuf::new(1024);
        let token = CancelToken::new();
        assert!(buf.push(frame(3), &token));
        assert!(buf.push(frame(5), &token));
        buf.finish(2);
        assert_eq!(buf.pull(&token), Pulled::Frame(0, frame(3)));
        assert_eq!(buf.pull(&token), Pulled::Frame(1, frame(5)));
        assert_eq!(buf.pull(&token), Pulled::Finished(2));
        let st = buf.stats();
        assert_eq!((st.pushed, st.pulled, st.buffered_bytes), (2, 2, 0));
        assert_eq!(st.max_buffered_bytes, 8);
    }

    #[test]
    fn full_buffer_blocks_push_until_a_pull_frees_space() {
        let buf = Arc::new(StreamBuf::new(10));
        let token = CancelToken::new();
        assert!(buf.push(frame(6), &token));
        let b2 = Arc::clone(&buf);
        let t2 = token.clone();
        let pusher = std::thread::spawn(move || b2.push(frame(6), &t2));
        // The second 6-byte frame cannot fit beside the first.
        while buf.waiters().0 == 0 {
            std::thread::yield_now();
        }
        assert_eq!(buf.stats().buffered_bytes, 6, "cap respected while push waits");
        assert_eq!(buf.pull(&token), Pulled::Frame(0, frame(6)));
        assert!(pusher.join().unwrap());
        assert_eq!(buf.stats().push_stalls, 1);
        assert!(buf.stats().max_buffered_bytes <= 10);
    }

    #[test]
    fn oversized_frame_is_admitted_only_into_an_empty_buffer() {
        let buf = StreamBuf::new(4);
        let token = CancelToken::new();
        assert!(buf.push(frame(9), &token), "lone oversized frame must pass");
        assert_eq!(buf.stats().buffered_bytes, 9);
        assert_eq!(buf.pull(&token), Pulled::Frame(0, frame(9)));
        assert_eq!(buf.stats().buffered_bytes, 0);
    }

    #[test]
    fn close_drops_blocked_push_and_ends_pulls() {
        let buf = Arc::new(StreamBuf::new(4));
        let token = CancelToken::new();
        assert!(buf.push(frame(4), &token));
        let b2 = Arc::clone(&buf);
        let t2 = token.clone();
        let pusher = std::thread::spawn(move || b2.push(frame(4), &t2));
        while buf.waiters().0 == 0 {
            std::thread::yield_now();
        }
        buf.close();
        assert!(!pusher.join().unwrap(), "push into closed buffer drops");
        assert_eq!(buf.pull(&token), Pulled::Closed);
        let st = buf.stats();
        assert_eq!(st.dropped, 1);
        assert_eq!(st.buffered_bytes, 0, "close releases buffered bytes");
    }

    #[test]
    fn cancelled_token_unblocks_both_sides() {
        let buf = StreamBuf::new(4);
        let token = CancelToken::new();
        token.cancel("test teardown");
        assert_eq!(buf.pull(&token), Pulled::Closed);
        assert!(buf.push(frame(2), &token), "non-blocking push still lands");
        assert!(!buf.push(frame(4), &token), "blocking push drops instead");
    }

    #[test]
    fn finish_after_drain_yields_total_forever() {
        let buf = StreamBuf::new(16);
        let token = CancelToken::new();
        buf.finish(40);
        assert_eq!(buf.pull(&token), Pulled::Finished(40));
        assert_eq!(buf.pull(&token), Pulled::Finished(40));
    }
}
