//! The stream machine under a seeded simulator.
//!
//! A producer offers frames of random sizes (some over the capacity) and
//! offers a refused frame again until it lands; a client grants credit
//! in random amounts; the sender asks for its next frame at random
//! moments; the producer finishes, or the session closes the stream, at
//! a random point. A seeded scheduler interleaves them. Every answer of
//! the [`Stream`] is checked against a reference model written over a
//! plain queue and counters, and the invariants the serving path relies
//! on are checked after every step.

use netshared::machine::{Pull, Push, Statistic, Stream};
use proptest::prelude::*;
use std::collections::VecDeque;

/// The reference model.
#[derive(Default)]
struct Model {
    capacity: usize,
    credit: u64,
    queue: VecDeque<Vec<u8>>,
    next_seq: u64,
    finished: Option<u64>,
    closed: bool,
    /// The producer's frame was refused and has been counted as a stall.
    refused: bool,
    /// The queue's front frame has been counted as waiting for credit.
    waiting: bool,
    stats: Statistic,
}

impl Model {
    fn buffered(&self) -> usize {
        self.queue.iter().map(Vec::len).sum()
    }

    fn push(&mut self, bytes: Vec<u8>) -> Push {
        if self.closed {
            self.stats.dropped += 1;
            return Push::Dropped;
        }
        if !self.queue.is_empty() && self.buffered() + bytes.len() > self.capacity {
            self.stats.push_stalls += u64::from(!self.refused);
            self.refused = true;
            return Push::Full(bytes);
        }
        self.refused = false;
        self.stats.pushed += 1;
        self.queue.push_back(bytes);
        self.stats.max_buffered_bytes = self.stats.max_buffered_bytes.max(self.buffered());
        Push::Queued
    }

    fn pull(&mut self) -> Pull {
        match (self.closed, self.queue.front(), self.credit, self.finished) {
            (true, ..) => Pull::Closed,
            (false, None, _, Some(total)) => Pull::Eof(total),
            (false, None, _, None) => Pull::Wait,
            (false, Some(_), 0, _) => {
                self.stats.credit_stalls += u64::from(!self.waiting);
                self.waiting = true;
                Pull::Wait
            }
            (false, Some(_), ..) => {
                self.credit -= 1;
                self.waiting = false;
                self.stats.sent += 1;
                self.next_seq += 1;
                Pull::Send(self.next_seq - 1, self.queue.pop_front().unwrap_or_default())
            }
        }
    }

    fn close(&mut self) {
        self.closed = true;
        self.stats.dropped += self.queue.len() as u64;
        self.queue.clear();
    }
}

/// SplitMix64: the scheduler's only source of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn simulate(seed: u64) {
    let mut rng = Rng(seed);
    let capacity = 1 + rng.below(64) as usize;
    let credit = rng.below(4) as u32;
    let first_seq = rng.below(1000);
    let mut stream = Stream::new(capacity, credit, first_seq);
    let mut model =
        Model { capacity, credit: credit.into(), next_seq: first_seq, ..Model::default() };
    // What the invariants are checked against, kept apart from the model.
    let (mut granted, mut offered, mut sent) = (u64::from(credit), 0u64, 0u64);
    // A frame the stream refused, which the producer offers again.
    let mut held: Option<Vec<u8>> = None;
    let mut trace = Vec::new();
    for _ in 0..400 {
        // Finish and close are rare, so most runs spend long in the
        // streaming state before one ends it.
        match rng.below(1000) {
            0..=399 if model.finished.is_none() => {
                let bytes = held.take().unwrap_or_else(|| {
                    // Every frame's bytes name it: its offer index.
                    let len = 1 + rng.below(2 * capacity as u64) as usize;
                    vec![offered as u8; len]
                });
                trace.push(format!("push {}", bytes.len()));
                let want = model.push(bytes.clone());
                let got = stream.push(bytes);
                assert_eq!(got, want, "seed {seed:#x}: {trace:?}");
                match got {
                    Push::Full(back) => held = Some(back),
                    Push::Queued | Push::Dropped => offered += 1,
                }
            }
            400..=699 => {
                trace.push("pull".into());
                let ready = stream.ready();
                let want = model.pull();
                let got = stream.pull();
                assert_eq!(got, want, "seed {seed:#x}: {trace:?}");
                let waits = got == Pull::Wait;
                assert_eq!(ready, !waits, "seed {seed:#x}: ready() disagrees with pull: {trace:?}");
                match got {
                    Pull::Send(seq, bytes) => {
                        assert_eq!(seq, first_seq + sent, "seed {seed:#x}: out of order");
                        assert_eq!(bytes[0], sent as u8, "seed {seed:#x}: not the frame offered");
                        sent += 1;
                        assert!(sent <= granted, "seed {seed:#x}: sent beyond the credit granted");
                    }
                    Pull::Eof(_) => assert!(
                        stream.stats().buffered_bytes == 0 && model.queue.is_empty(),
                        "seed {seed:#x}: EOF before the queue drained: {trace:?}"
                    ),
                    Pull::Closed | Pull::Wait => {}
                }
            }
            700..=899 => {
                // Mostly a frame or two; now and then a wide window.
                let wide = rng.below(8) == 0;
                let frames = rng.below(if wide { 64 } else { 4 }) as u32;
                trace.push(format!("credit {frames}"));
                granted += u64::from(frames);
                model.credit += u64::from(frames);
                stream.credit(frames);
            }
            900..=904 if held.is_none() && model.finished.is_none() => {
                trace.push(format!("finish {offered}"));
                model.finished = Some(offered);
                stream.finish(offered);
            }
            905..=907 => {
                trace.push("close".into());
                model.close();
                stream.close();
            }
            _ => continue,
        }
        let stats = stream.stats();
        let want = Statistic { buffered_bytes: model.buffered(), ..model.stats };
        assert_eq!(stats, want, "seed {seed:#x}: {trace:?}");
        let lone = model.queue.len() == 1;
        assert!(stats.buffered_bytes <= capacity || lone, "seed {seed:#x}: over capacity");
        let queued = model.queue.len() as u64;
        let accounted = stats.sent + queued + stats.dropped;
        assert_eq!(offered, accounted, "seed {seed:#x}: a frame was lost");
        if model.closed {
            assert_eq!(stream.pull(), Pull::Closed, "seed {seed:#x}: sent after close");
            assert_eq!(stream.push(vec![1]), Push::Dropped, "seed {seed:#x}: queued after close");
            model.stats.dropped += 1;
            offered += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn stream_agrees_with_the_reference_model(seed in any::<u64>()) {
        simulate(seed);
    }
}
