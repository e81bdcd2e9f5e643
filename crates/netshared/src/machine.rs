//! One subscription's stream as a pure state machine.
//!
//! A [`Stream`] owns everything a subscription has between its producer
//! and its sender: the client's DATA-frame credit, the queue of encoded
//! frames and its byte count against the capacity, the seq of the next
//! frame out, the total once the producer finished, whether the stream
//! closed, and the running [`Statistic`]. It has no socket, clock, lock
//! or thread. Each transition is a method that returns what happened;
//! the session module drives it from the producer thread
//! ([`Stream::push`], [`Stream::finish`]), the sender thread
//! ([`Stream::pull`]) and the session thread ([`Stream::credit`]), any
//! of which may [`Stream::close`] it, and the root package's
//! `tests/oracles/stream_sim.rs` drives it from a seeded simulator checked
//! against a reference model.
//!
//! Shaped after the flux `Flow` exemplar, with its seq-indexed bucket as
//! the queue it is. Invariants:
//!
//! * `buffered_bytes ≤ max(capacity, size of a lone frame)`: a frame over
//!   the capacity enters an empty queue alone (otherwise it could never
//!   be delivered), everything else waits for room;
//! * every frame offered to [`Stream::push`] ends up exactly once as
//!   sent, still queued, or dropped;
//! * frames go out in push order with consecutive seqs, one credit each,
//!   never more than the credit granted;
//! * [`Pull::Eof`] comes only once the queue has drained;
//! * after [`Stream::close`] nothing is sent and every push drops.

use std::collections::VecDeque;

/// Running statistics of one stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Statistic {
    /// Frames taken into the queue.
    pub pushed: u64,
    /// Frames handed out by [`Stream::pull`].
    pub sent: u64,
    /// Frames lost to [`Stream::close`]: pushes refused after it, and
    /// frames still queued at it.
    pub dropped: u64,
    /// Times a push found the queue full; a run of refusals of the same
    /// frame counts once.
    pub push_stalls: u64,
    /// Times a queued frame found no credit; a wait for one credit counts
    /// once.
    pub credit_stalls: u64,
    /// Bytes queued now.
    pub buffered_bytes: usize,
    /// High-water mark of `buffered_bytes`.
    pub max_buffered_bytes: usize,
}

/// What [`Stream::push`] did with a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Push {
    /// The frame is queued.
    Queued,
    /// No room: the frame comes back, to be offered again once a frame
    /// has gone out.
    Full(Vec<u8>),
    /// The stream is closed; the frame is dropped.
    Dropped,
}

/// What [`Stream::pull`] hands the sender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pull {
    /// Write this frame: `(seq, encoded bytes)`. One credit is spent.
    Send(u64, Vec<u8>),
    /// Nothing to do until a push, a credit, a finish or a close.
    Wait,
    /// The producer finished and every frame went out: write EOF with
    /// this total.
    Eof(u64),
    /// The stream is closed.
    Closed,
}

/// One subscription's stream (see module docs).
#[derive(Debug)]
pub struct Stream {
    capacity: usize,
    credit: u64,
    queue: VecDeque<Vec<u8>>,
    /// Seq of the queue's front frame; the next queued frame takes
    /// `next_send + queue.len()`.
    next_send: u64,
    finished: Option<u64>,
    closed: bool,
    /// The last push was refused and no push has landed since.
    push_stalled: bool,
    /// A frame waited for credit and none has gone out since.
    credit_stalled: bool,
    stats: Statistic,
}

impl Stream {
    /// A stream that queues at most `capacity` bytes (plus the lone
    /// oversized frame, see module docs), may send `credit` frames before
    /// the client grants more, and numbers its first frame `first_seq`.
    pub fn new(capacity: usize, credit: u32, first_seq: u64) -> Self {
        Stream {
            capacity,
            credit: u64::from(credit),
            queue: VecDeque::new(),
            next_send: first_seq,
            finished: None,
            closed: false,
            push_stalled: false,
            credit_stalled: false,
            stats: Statistic::default(),
        }
    }

    /// Offers one encoded frame.
    pub fn push(&mut self, bytes: Vec<u8>) -> Push {
        if self.closed {
            self.stats.dropped += 1;
            return Push::Dropped;
        }
        let st = &mut self.stats;
        if !self.queue.is_empty() && st.buffered_bytes + bytes.len() > self.capacity {
            st.push_stalls += u64::from(!self.push_stalled);
            self.push_stalled = true;
            return Push::Full(bytes);
        }
        self.push_stalled = false;
        st.pushed += 1;
        st.buffered_bytes += bytes.len();
        st.max_buffered_bytes = st.max_buffered_bytes.max(st.buffered_bytes);
        self.queue.push_back(bytes);
        Push::Queued
    }

    /// The client grants `frames` more DATA frames.
    pub fn credit(&mut self, frames: u32) {
        self.credit = self.credit.saturating_add(u64::from(frames));
    }

    /// What the sender should do now.
    pub fn pull(&mut self) -> Pull {
        if self.closed {
            return Pull::Closed;
        }
        if self.credit == 0 && !self.queue.is_empty() {
            self.stats.credit_stalls += u64::from(!self.credit_stalled);
            self.credit_stalled = true;
            return Pull::Wait;
        }
        let Some(bytes) = self.queue.pop_front() else {
            return self.finished.map_or(Pull::Wait, Pull::Eof);
        };
        self.credit -= 1;
        self.credit_stalled = false;
        self.stats.sent += 1;
        self.stats.buffered_bytes -= bytes.len();
        self.next_send += 1;
        Pull::Send(self.next_send - 1, bytes)
    }

    /// Whether [`Stream::pull`] would hand the sender anything but
    /// [`Pull::Wait`]: the session wakes the sender only then.
    pub fn ready(&self) -> bool {
        self.closed || if self.queue.is_empty() { self.finished.is_some() } else { self.credit > 0 }
    }

    /// The producer is done: once the queue drains, [`Stream::pull`]
    /// yields `Eof(total)`.
    pub fn finish(&mut self, total: u64) {
        self.finished = Some(total);
    }

    /// Teardown: queued frames are dropped, later pushes drop, and
    /// [`Stream::pull`] yields [`Pull::Closed`].
    pub fn close(&mut self) {
        self.closed = true;
        self.stats.dropped += self.queue.len() as u64;
        self.stats.buffered_bytes = 0;
        self.queue.clear();
    }

    /// A snapshot of the running statistics.
    pub fn stats(&self) -> Statistic {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(n: usize) -> Vec<u8> {
        vec![0xab; n]
    }

    #[test]
    fn frames_flow_in_sequence_order() {
        let mut s = Stream::new(1024, 8, 0);
        assert_eq!(s.push(frame(3)), Push::Queued);
        assert_eq!(s.push(frame(5)), Push::Queued);
        s.finish(2);
        assert_eq!(s.pull(), Pull::Send(0, frame(3)));
        assert_eq!(s.pull(), Pull::Send(1, frame(5)));
        assert_eq!(s.pull(), Pull::Eof(2));
        let st = s.stats();
        assert_eq!((st.pushed, st.sent, st.buffered_bytes), (2, 2, 0));
        assert_eq!(st.max_buffered_bytes, 8);
    }

    #[test]
    fn a_full_queue_refuses_until_a_frame_goes_out() {
        let mut s = Stream::new(10, 1, 0);
        assert_eq!(s.push(frame(6)), Push::Queued);
        assert_eq!(s.push(frame(6)), Push::Full(frame(6)));
        assert_eq!(s.push(frame(6)), Push::Full(frame(6)));
        assert_eq!(s.stats().buffered_bytes, 6, "cap respected while the push waits");
        assert_eq!(s.pull(), Pull::Send(0, frame(6)));
        assert_eq!(s.push(frame(6)), Push::Queued);
        assert_eq!(s.stats().push_stalls, 1, "one stall per refused frame");
        assert!(s.stats().max_buffered_bytes <= 10);
    }

    #[test]
    fn an_oversized_frame_enters_only_an_empty_queue() {
        let mut s = Stream::new(4, 1, 0);
        assert_eq!(s.push(frame(9)), Push::Queued, "a lone oversized frame must pass");
        assert_eq!(s.stats().buffered_bytes, 9);
        assert_eq!(s.push(frame(1)), Push::Full(frame(1)));
        assert_eq!(s.pull(), Pull::Send(0, frame(9)));
        assert_eq!(s.stats().buffered_bytes, 0);
    }

    #[test]
    fn a_frame_waits_for_credit_and_eof_does_not() {
        let mut s = Stream::new(64, 0, 7);
        assert_eq!(s.push(frame(2)), Push::Queued);
        s.finish(1);
        assert_eq!(s.pull(), Pull::Wait);
        assert_eq!(s.pull(), Pull::Wait);
        assert_eq!(s.stats().credit_stalls, 1, "one stall per frame waiting");
        s.credit(1);
        assert_eq!(s.pull(), Pull::Send(7, frame(2)));
        assert_eq!(s.pull(), Pull::Eof(1), "EOF spends no credit");
        assert_eq!(s.pull(), Pull::Eof(1), "and repeats");
    }

    #[test]
    fn close_drops_queued_frames_and_later_pushes() {
        let mut s = Stream::new(4, 1, 0);
        assert_eq!(s.push(frame(4)), Push::Queued);
        assert_eq!(s.push(frame(4)), Push::Full(frame(4)));
        s.close();
        assert_eq!(s.push(frame(4)), Push::Dropped, "a push into a closed stream drops");
        assert_eq!(s.pull(), Pull::Closed);
        s.close();
        let st = s.stats();
        assert_eq!((st.pushed, st.sent, st.dropped), (1, 0, 2));
        assert_eq!(st.buffered_bytes, 0, "close releases buffered bytes");
    }
}
