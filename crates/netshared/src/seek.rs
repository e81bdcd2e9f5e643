//! The seek index: where a `from_seq` resume starts generating.
//!
//! Generation is batch-i.i.d. — every batch starts from fresh noise and a
//! zero hidden state — so all a stream carries across a batch boundary
//! is a [`CursorMark`] (sampler RNG + sample count) and the seq of the
//! next DATA frame. Producers record that pair at every boundary they
//! pass; a resume seeks to the last one at or before its `from_seq` and
//! regenerates from there instead of from sample 0.
//!
//! An entry is a fact about the artifact's stream under the inputs that
//! cut its frames: the stream id (its decimal width is part of every
//! frame's length) and the server's buffer capacity. The index therefore
//! lives in its server's per-artifact entry and is keyed by stream id.
//! It holds only full-batch boundaries, so an entry is valid for any
//! `count >= produced` (only a stream's last batch depends on its count).
//! Any process regenerates every entry from the bundle: nothing is ever
//! invalidated, and a missing entry costs a replay, never bytes.

use crate::lock;
use doppelganger::{ArtifactBundle, CursorMark};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Boundaries kept per stream id. Past it nothing more is recorded and a
/// resume replays from the last entry.
const MAX_ENTRIES: usize = 16 * 1024;
/// Stream ids kept per artifact; any further id replays from sample 0.
/// With [`MAX_ENTRIES`] 48-byte entries each, an artifact's index tops
/// out at 3 MiB however many samples or ids clients ask for.
const MAX_STREAM_IDS: usize = 4;

/// A batch boundary: the seq of the first DATA frame after it, and the
/// cursor position that generates that frame's batch.
type Entry = (u64, CursorMark);

/// One artifact on offer, with the boundaries its streams have passed.
pub(crate) struct Served {
    pub bundle: ArtifactBundle,
    pub seeks: SeekIndex,
}

/// Recorded batch boundaries by stream id, each list in stream order.
#[derive(Default)]
pub(crate) struct SeekIndex {
    by_stream: Mutex<BTreeMap<u64, Vec<Entry>>>,
}

impl SeekIndex {
    /// The last recorded boundary of `stream` at or before frame
    /// `from_seq` that a `count`-sample stream passes through.
    pub fn nearest(&self, stream: u64, from_seq: u64, count: u64) -> Option<Entry> {
        let by_stream = lock(&self.by_stream); // lint: lock-order(netshared.seek_index)
        let entries = by_stream.get(&stream)?;
        // Seq and sample count both grow along the list.
        let after = entries
            .partition_point(|(seq, mark)| *seq <= from_seq && mark.produced() as u64 <= count);
        Some(entries[after.checked_sub(1)?])
    }

    /// Records the boundary `mark`, followed by frame `seq`, unless it is
    /// known already or a cap is reached. Callers walk the stream from
    /// sample 0 or from a recorded entry and offer every boundary they
    /// pass, so each list is a gapless prefix of the stream's boundaries
    /// and "known" is "not past the last one".
    pub fn record(&self, stream: u64, seq: u64, mark: CursorMark) {
        if mark.produced() == 0 {
            return; // where every cold stream starts anyway
        }
        {
            let mut by_stream = lock(&self.by_stream); // lint: lock-order(netshared.seek_index)
            if by_stream.len() >= MAX_STREAM_IDS && !by_stream.contains_key(&stream) {
                return;
            }
            let entries = by_stream.entry(stream).or_default();
            let known = entries.last().is_some_and(|(_, last)| last.produced() >= mark.produced());
            if known || entries.len() >= MAX_ENTRIES {
                return;
            }
            entries.push((seq, mark));
        }
        telemetry::metrics::gauge("netshared.seek_index.entries").add(1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo_bundle;

    /// The marks before each batch of a `count`-sample demo stream.
    fn marks(count: usize) -> Vec<CursorMark> {
        let mut model = demo_bundle("demo", 7).rebuild().unwrap();
        let mut cursor = model.sample_cursor(count).unwrap();
        let mut marks = vec![cursor.mark()];
        while cursor.next_batch().is_some() {
            marks.push(cursor.mark());
        }
        marks
    }

    #[test]
    fn nearest_is_the_last_boundary_the_resumed_stream_passes() {
        let index = SeekIndex::default();
        let marks = marks(32); // boundaries at 0, 8, 16, 24, 32 samples
        for (i, mark) in marks.iter().enumerate() {
            index.record(1, 2 * i as u64, *mark); // two frames a batch
            index.record(1, 2 * i as u64, *mark); // known: no second entry
        }
        assert_eq!(index.by_stream.lock().unwrap()[&1].len(), 4, "sample 0 is not an entry");
        let at = |from_seq, count| index.nearest(1, from_seq, count).map(|(seq, m)| (seq, m.produced()));
        assert_eq!(at(1, 32), None, "inside the first batch: replay from 0");
        assert_eq!(at(2, 32), Some((2, 8)));
        assert_eq!(at(5, 32), Some((4, 16)), "inside a batch: its boundary");
        assert_eq!(at(u64::MAX, 32), Some((8, 32)));
        assert_eq!(at(u64::MAX, 20), Some((4, 16)), "a 20-sample stream's batch at 16 is short");
        assert_eq!(at(6, 7), None);
        assert_eq!(index.nearest(2, 6, 32), None, "another id cuts its own frames");
    }

    #[test]
    fn entries_and_stream_ids_are_capped() {
        let index = SeekIndex::default();
        let marks = marks(24);
        for stream in 0..10 {
            index.record(stream, 1, marks[1]);
        }
        assert_eq!(index.by_stream.lock().unwrap().len(), MAX_STREAM_IDS);
        assert!(index.nearest(MAX_STREAM_IDS as u64, 1, 24).is_none());
        // A full list takes nothing more, and still answers.
        index.by_stream.lock().unwrap().get_mut(&0).unwrap().resize(MAX_ENTRIES, (1, marks[1]));
        index.record(0, 2, marks[2]);
        assert_eq!(index.by_stream.lock().unwrap()[&0].len(), MAX_ENTRIES);
        assert_eq!(index.nearest(0, 9, 24).map(|(seq, _)| seq), Some(1));
    }
}
