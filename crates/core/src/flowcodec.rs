//! Flow-dataset codec: encodes chunked flow groups into DoppelGANger
//! training samples and decodes generated samples back to flow records.
//!
//! Per the paper (§4.1, Insight 1): "for NetFlow, each time series element
//! contains flow start time/duration, packets/bytes per flow, type
//! (attack/benign when applicable)". Metadata is the encoded five-tuple
//! plus the flow tags of Insight 3. One deliberate deviation: the
//! benign/attack *type* is modeled as flow **metadata** rather than a
//! per-record field — within a five-tuple group the label is constant in
//! practice, and metadata placement puts it under the auxiliary
//! discriminator's direct supervision (record-level labels collapse to
//! the majority class at CPU training scale).

use crate::chunking::{chunk_flows, Chunked, FlowGroup};
use crate::config::NetShareConfig;
use crate::pipeline::TraceCodec;
use crate::tuplecodec::TupleCodec;
use doppelganger::{FeatureSpec, Segment};
use fieldcodec::ContinuousCodec;
use nettrace::{
    aggregate_flows, AggregationConfig, AttackType, FlowRecord, FlowTrace, PacketTrace,
    TrafficLabel,
};
use std::borrow::Cow;

/// Number of continuous record fields: start fraction, duration, packets,
/// bytes.
const RECORD_CONT: usize = 4;

/// A fitted flow codec (one per pipeline run).
pub struct FlowCodec {
    /// Five-tuple codec (shared with the packet pipeline).
    pub tuples: TupleCodec,
    duration: ContinuousCodec,
    packets: ContinuousCodec,
    bytes: ContinuousCodec,
    with_labels: bool,
    n_chunks: usize,
    /// Whether the Insight-3 flow tags are populated (ablation knob).
    pub tags_enabled: bool,
}

impl FlowCodec {
    /// Fits the continuous ranges on `trace` (private data in the non-DP
    /// pipeline; pass a public trace in DP mode so normalization never
    /// touches private data).
    pub fn fit(trace: &FlowTrace, tuples: TupleCodec, n_chunks: usize, with_labels: bool) -> Self {
        let durations: Vec<f64> = trace.flows.iter().map(|f| f.duration_ms).collect();
        let pkts: Vec<f64> = trace.flows.iter().map(|f| f.packets as f64).collect();
        let byts: Vec<f64> = trace.flows.iter().map(|f| f.bytes as f64).collect();
        FlowCodec {
            tuples,
            duration: ContinuousCodec::fit(&durations, true),
            packets: ContinuousCodec::fit(&pkts, true),
            bytes: ContinuousCodec::fit(&byts, true),
            with_labels,
            n_chunks,
            tags_enabled: true,
        }
    }

    /// Encodes one chunked group into `(metadata, record sequence)`.
    /// Record times are normalized relative to the chunk bounds.
    pub fn encode_group(
        &self,
        group: &FlowGroup<FlowRecord>,
        bounds: (f64, f64),
    ) -> (Vec<f32>, Vec<Vec<f32>>) {
        let mut meta = Vec::with_capacity(self.meta_spec().dim());
        self.tuples.encode_into(&group.tuple, &mut meta);
        if self.with_labels {
            let mut onehot = vec![0.0; TrafficLabel::NUM_CLASSES];
            let cls = group
                .items
                .first()
                .and_then(|f| f.label)
                .map(|l| l.class_index())
                .unwrap_or(0);
            onehot[cls] = 1.0;
            meta.extend(onehot);
        }
        group.push_tags(self.tags_enabled, &mut meta);

        let chunk_len = (bounds.1 - bounds.0).max(1e-9);
        let records = group
            .items
            .iter()
            .map(|f| {
                vec![
                    (((f.start_ms - bounds.0) / chunk_len).clamp(0.0, 1.0)) as f32,
                    self.duration.encode(f.duration_ms),
                    self.packets.encode(f.packets as f64),
                    self.bytes.encode(f.bytes as f64),
                ]
            })
            .collect();
        (meta, records)
    }

    /// Decodes one generated sample into flow records placed inside the
    /// given chunk bounds.
    pub fn decode_sample(
        &self,
        meta: &[f32],
        records: &[Vec<f32>],
        bounds: (f64, f64),
    ) -> Vec<FlowRecord> {
        let tuple = self.tuples.decode(&meta[..self.tuples.dim()]);
        let label = if self.with_labels {
            let onehot = &meta[self.tuples.dim()..self.tuples.dim() + TrafficLabel::NUM_CLASSES];
            let cls = onehot
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            Some(if cls == 0 {
                TrafficLabel::Benign
            } else {
                TrafficLabel::Attack(AttackType::ALL[cls - 1])
            })
        } else {
            None
        };
        let chunk_len = (bounds.1 - bounds.0).max(1e-9);
        records
            .iter()
            .map(|r| {
                let start_ms = bounds.0 + r[0] as f64 * chunk_len;
                let duration_ms = self.duration.decode(r[1]).max(0.0);
                let packets = self.packets.decode(r[2]).round().max(1.0) as u64;
                let bytes = self.bytes.decode(r[3]).round().max(1.0) as u64;
                let mut rec = FlowRecord::new(tuple, start_ms, duration_ms, packets, bytes);
                rec.label = label;
                rec
            })
            .collect()
    }
}

impl TraceCodec for FlowCodec {
    type Record = FlowRecord;
    type Trace = FlowTrace;
    const KIND: &'static str = "flows";

    fn records(trace: &FlowTrace) -> &[FlowRecord] {
        &trace.flows
    }

    /// Remerged in start-time order.
    fn assemble(records: Vec<FlowRecord>, n: usize) -> FlowTrace {
        let mut trace = FlowTrace::from_records(records);
        trace.truncate(n);
        trace
    }

    fn from_packets(public: &PacketTrace) -> Cow<'_, FlowTrace> {
        Cow::Owned(aggregate_flows(public, AggregationConfig::default()))
    }

    fn fit(trace: &FlowTrace, tuples: TupleCodec, cfg: &NetShareConfig) -> Self {
        let mut codec = FlowCodec::fit(trace, tuples, cfg.n_chunks, cfg.with_labels);
        codec.tags_enabled = cfg.use_flow_tags;
        codec
    }

    fn chunk(trace: &FlowTrace, m: usize) -> Chunked<FlowRecord> {
        chunk_flows(trace, m)
    }

    /// Tuple segments (bit IPs continuous, hybrid port/protocol
    /// categoricals + embeddings) + label one-hot (labeled datasets) +
    /// flow-tag bits.
    fn meta_spec(&self) -> FeatureSpec {
        let mut segs = self.tuples.segments();
        if self.with_labels {
            segs.push(Segment::Categorical {
                dim: TrafficLabel::NUM_CLASSES,
            });
        }
        segs.push(Segment::Continuous {
            dim: 1 + self.n_chunks,
        });
        FeatureSpec::new(segs)
    }

    /// 4 continuous fields.
    fn record_spec(&self) -> FeatureSpec {
        FeatureSpec::new(vec![Segment::Continuous { dim: RECORD_CONT }])
    }

    fn encode_group(
        &self,
        group: &FlowGroup<FlowRecord>,
        bounds: (f64, f64),
    ) -> (Vec<f32>, Vec<Vec<f32>>) {
        FlowCodec::encode_group(self, group, bounds)
    }

    fn decode_sample(
        &self,
        meta: &[f32],
        records: &[Vec<f32>],
        bounds: (f64, f64),
    ) -> Vec<FlowRecord> {
        FlowCodec::decode_sample(self, meta, records, bounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::{FiveTuple, Protocol};
    use trace_synth::public::ip2vec_public_corpus;

    fn codec(with_labels: bool) -> FlowCodec {
        let tuples = TupleCodec::fit_public(&ip2vec_public_corpus(1_500, 5), 8, 3);
        let trace = sample_trace();
        FlowCodec::fit(&trace, tuples, 4, with_labels)
    }

    fn sample_trace() -> FlowTrace {
        let ft = |sp| FiveTuple::new(0x0a000001, 0xc0a80001, sp, 80, Protocol::Tcp);
        FlowTrace::from_records(vec![
            FlowRecord::new(ft(1000), 0.0, 50.0, 10, 4000)
                .with_label(TrafficLabel::Benign),
            FlowRecord::new(ft(1000), 500.0, 10.0, 2, 100)
                .with_label(TrafficLabel::Attack(AttackType::Dos)),
            FlowRecord::new(ft(2000), 900.0, 0.0, 1, 40).with_label(TrafficLabel::Benign),
        ])
    }

    #[test]
    fn encode_decode_round_trips_values() {
        let c = codec(true);
        let trace = sample_trace();
        let ch = chunk_flows(&trace, 4);
        for (ci, chunk) in ch.chunks.iter().enumerate() {
            for g in chunk {
                let (meta, recs) = c.encode_group(g, ch.bounds[ci]);
                assert_eq!(meta.len(), c.meta_spec().dim());
                assert!(meta.iter().all(|&x| (0.0..=1.0).contains(&x)));
                let decoded = c.decode_sample(&meta, &recs, ch.bounds[ci]);
                assert_eq!(decoded.len(), g.items.len());
                for (d, o) in decoded.iter().zip(&g.items) {
                    assert_eq!(d.five_tuple.dst_port, 80);
                    assert_eq!(d.five_tuple.src_ip, o.five_tuple.src_ip);
                    assert!((d.start_ms - o.start_ms).abs() < 5.0, "{} vs {}", d.start_ms, o.start_ms);
                    // Log-scale round trip: within ~10% relative error.
                    let rel = (d.packets as f64 - o.packets as f64).abs() / o.packets as f64;
                    assert!(rel < 0.5, "packets {} vs {}", d.packets, o.packets);
                    assert_eq!(d.label, o.label, "label survives");
                }
            }
        }
    }

    #[test]
    fn labels_live_in_the_metadata() {
        let with = codec(true).meta_spec().dim();
        let without = codec(false).meta_spec().dim();
        assert_eq!(with, without + TrafficLabel::NUM_CLASSES);
        assert_eq!(codec(true).record_spec().dim(), codec(false).record_spec().dim());
    }

    #[test]
    fn flow_tags_are_appended_to_metadata() {
        let c = codec(false);
        let trace = sample_trace();
        let ch = chunk_flows(&trace, 4);
        let g = &ch.chunks[0][0];
        let (meta, _) = c.encode_group(g, ch.bounds[0]);
        let tags = &meta[meta.len() - (1 + 4)..];
        assert_eq!(tags.len(), 1 + 4, "start flag + M presence bits");
        assert_eq!(tags[0], 1.0, "starts in its first chunk");
    }
}
