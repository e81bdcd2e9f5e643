//! Fixed-time chunking with explicit flow tags (paper Insight 3).
//!
//! The merged trace is sliced into `M` equal *time* intervals (splitting
//! by packet count would break DP: one record could shift every later
//! record's chunk assignment). Each five-tuple's records inside a chunk
//! form one training sequence, annotated with the paper's flow tags:
//! a 0/1 flag saying whether the flow *starts* in this chunk, plus an
//! `M`-bit vector of which chunks the flow appears in — the signal that
//! lets independently fine-tuned chunk models stay consistent on
//! cross-chunk flows.

use nettrace::{FiveTuple, FlowRecord, FlowTrace, PacketRecord, PacketTrace};
use std::collections::BTreeMap;

/// One five-tuple's activity inside one chunk.
#[derive(Debug, Clone)]
pub struct FlowGroup<T> {
    /// The flow key.
    pub tuple: FiveTuple,
    /// The tuple's records within this chunk, in time order.
    pub items: Vec<T>,
    /// Flow tag: does the flow's first record fall in this chunk?
    pub starts_here: bool,
    /// Flow tag: chunk-presence bit vector (length `M`).
    pub presence: Vec<bool>,
}

impl<T> FlowGroup<T> {
    /// Appends the flow tags to a metadata row: the start flag, then one
    /// presence bit per chunk. With tags disabled (the Insight-3
    /// ablation) the same columns are written as zeros.
    pub(crate) fn push_tags(&self, enabled: bool, meta: &mut Vec<f32>) {
        if enabled {
            meta.push(if self.starts_here { 1.0 } else { 0.0 });
            meta.extend(self.presence.iter().map(|&p| if p { 1.0 } else { 0.0 }));
        } else {
            meta.resize(meta.len() + 1 + self.presence.len(), 0.0);
        }
    }
}

/// A chunked trace: per-chunk groups plus the chunk time bounds.
#[derive(Debug, Clone)]
pub struct Chunked<T> {
    /// `chunks[c]` holds the groups active in chunk `c`.
    pub chunks: Vec<Vec<FlowGroup<T>>>,
    /// `[start_ms, end_ms)` of each chunk.
    pub bounds: Vec<(f64, f64)>,
}

impl<T> Chunked<T> {
    /// Total number of items across all chunks and groups.
    pub fn total_items(&self) -> usize {
        self.chunks
            .iter()
            .flat_map(|c| c.iter().map(|g| g.items.len()))
            .sum()
    }

    /// Number of chunks `M`.
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }
}

/// Generic chunker over timestamped, tuple-keyed items.
fn chunk_items<T: Clone>(
    items: &[T],
    tuple_of: impl Fn(&T) -> FiveTuple,
    time_of: impl Fn(&T) -> f64,
    m: usize,
) -> Chunked<T> {
    assert!(m >= 1, "need at least one chunk");
    if items.is_empty() {
        return Chunked {
            chunks: vec![Vec::new(); m],
            bounds: vec![(0.0, 1.0); m],
        };
    }
    let t0 = items.iter().map(&time_of).fold(f64::INFINITY, f64::min);
    let t1 = items.iter().map(&time_of).fold(f64::NEG_INFINITY, f64::max);
    let span = (t1 - t0).max(1e-9);
    let chunk_len = span / m as f64 * (1.0 + 1e-12);
    let bounds: Vec<(f64, f64)> = (0..m)
        .map(|c| (t0 + c as f64 * chunk_len, t0 + (c + 1) as f64 * chunk_len))
        .collect();
    let chunk_of = |t: f64| (((t - t0) / chunk_len) as usize).min(m - 1);

    // Group per (tuple, chunk) and track per-tuple presence + first chunk.
    let mut per_tuple: BTreeMap<FiveTuple, (usize, Vec<bool>)> = BTreeMap::new();
    let mut grouped: BTreeMap<(FiveTuple, usize), Vec<T>> = BTreeMap::new();
    for item in items {
        let tuple = tuple_of(item);
        let c = chunk_of(time_of(item));
        let entry = per_tuple.entry(tuple).or_insert((c, vec![false; m]));
        entry.0 = entry.0.min(c);
        entry.1[c] = true;
        grouped.entry((tuple, c)).or_default().push(item.clone());
    }

    let mut chunks: Vec<Vec<FlowGroup<T>>> = vec![Vec::new(); m];
    // BTreeMap drains in sorted key order, so output order is deterministic.
    for ((tuple, c), mut items) in grouped {
        items.sort_by(|a, b| time_of(a).total_cmp(&time_of(b)));
        let (first_chunk, presence) = per_tuple[&tuple].clone();
        chunks[c].push(FlowGroup {
            tuple,
            items,
            starts_here: first_chunk == c,
            presence,
        });
    }
    Chunked { chunks, bounds }
}

/// Chunks a flow trace by record start time.
pub fn chunk_flows(trace: &FlowTrace, m: usize) -> Chunked<FlowRecord> {
    chunk_items(&trace.flows, |f| f.five_tuple, |f| f.start_ms, m)
}

/// Chunks a packet trace by arrival time.
pub fn chunk_packets(trace: &PacketTrace, m: usize) -> Chunked<PacketRecord> {
    chunk_items(&trace.packets, |p| p.five_tuple, |p| p.ts_millis(), m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::Protocol;

    fn ft(sp: u16) -> FiveTuple {
        FiveTuple::new(1, 2, sp, 80, Protocol::Tcp)
    }

    fn rec(sp: u16, start: f64) -> FlowRecord {
        FlowRecord::new(ft(sp), start, 1.0, 1, 40)
    }

    #[test]
    fn no_record_lost_and_bounds_cover() {
        let t = FlowTrace::from_records((0..100).map(|i| rec(i as u16, i as f64)).collect());
        let ch = chunk_flows(&t, 5);
        assert_eq!(ch.total_items(), 100);
        assert_eq!(ch.n_chunks(), 5);
        assert!(ch.bounds.windows(2).all(|w| (w[0].1 - w[1].0).abs() < 1e-9));
    }

    #[test]
    fn cross_chunk_flow_has_correct_tags() {
        // Tuple 7 appears at t=5 and t=95 (chunks 0 and 4 of 5).
        let t = FlowTrace::from_records(vec![
            rec(7, 5.0),
            rec(7, 95.0),
            rec(8, 0.0),
            rec(9, 99.0),
        ]);
        let ch = chunk_flows(&t, 5);
        // Find tuple 7 groups.
        let g0 = ch.chunks[0].iter().find(|g| g.tuple == ft(7)).unwrap();
        let g4 = ch.chunks[4].iter().find(|g| g.tuple == ft(7)).unwrap();
        assert!(g0.starts_here, "first chunk carries the start flag");
        assert!(!g4.starts_here, "later chunk does not");
        let expected = vec![true, false, false, false, true];
        assert_eq!(g0.presence, expected);
        assert_eq!(g4.presence, expected, "presence vector identical in all chunks");
    }

    #[test]
    fn records_within_group_are_time_ordered() {
        let t = FlowTrace::from_records(vec![rec(1, 9.0), rec(1, 3.0), rec(1, 6.0)]);
        let ch = chunk_flows(&t, 1);
        let g = &ch.chunks[0][0];
        assert!(g.items.windows(2).all(|w| w[0].start_ms <= w[1].start_ms));
    }

    #[test]
    fn single_chunk_is_v0_layout() {
        let t = FlowTrace::from_records((0..20).map(|i| rec(i as u16 % 3, i as f64)).collect());
        let ch = chunk_flows(&t, 1);
        assert_eq!(ch.chunks[0].len(), 3, "one group per tuple");
        assert!(ch.chunks[0].iter().all(|g| g.starts_here));
        assert!(ch.chunks[0].iter().all(|g| g.presence == vec![true]));
    }

    #[test]
    fn packet_chunking_uses_arrival_time() {
        let p = |sp: u16, ms: u64| {
            PacketRecord::new(ms * 1000, FiveTuple::new(1, 2, sp, 80, Protocol::Udp), 100)
        };
        let t = PacketTrace::from_records(vec![p(1, 0), p(1, 50), p(2, 99)]);
        let ch = chunk_packets(&t, 2);
        assert_eq!(ch.chunks[0].len(), 1);
        assert_eq!(ch.chunks[1].len(), 2, "tuple 1 reappears in chunk 1 plus tuple 2");
        assert_eq!(ch.total_items(), 3);
    }

    #[test]
    fn empty_trace_chunks_cleanly() {
        let ch = chunk_flows(&FlowTrace::new(), 3);
        assert_eq!(ch.n_chunks(), 3);
        assert_eq!(ch.total_items(), 0);
    }
}
