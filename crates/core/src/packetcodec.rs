//! Packet-dataset codec: chunked packet groups ↔ DoppelGANger samples.
//!
//! Per the paper (§4.1, Insight 1): "for PCAP data, each sequence element
//! (packet) includes a raw timestamp, packet size, and other IP header
//! fields (we exclude the IP option field and checksum)". We model
//! timestamp, size, TTL, and TOS; checksum is regenerated in
//! post-processing and options are absent from all modeled traces.

use crate::chunking::{chunk_packets, Chunked, FlowGroup};
use crate::config::NetShareConfig;
use crate::pipeline::TraceCodec;
use crate::tuplecodec::TupleCodec;
use doppelganger::{FeatureSpec, Segment};
use fieldcodec::ContinuousCodec;
use nettrace::{PacketRecord, PacketTrace};
use std::borrow::Cow;

/// Record fields: arrival fraction, size, TTL, TOS.
const RECORD_CONT: usize = 4;

/// A fitted packet codec.
pub struct PacketCodec {
    /// Five-tuple codec.
    pub tuples: TupleCodec,
    size: ContinuousCodec,
    n_chunks: usize,
    /// Whether the Insight-3 flow tags are populated (ablation knob).
    pub tags_enabled: bool,
}

impl TraceCodec for PacketCodec {
    type Record = PacketRecord;
    type Trace = PacketTrace;
    const KIND: &'static str = "packets";

    fn records(trace: &PacketTrace) -> &[PacketRecord] {
        &trace.packets
    }

    /// Remerged by raw timestamp.
    fn assemble(records: Vec<PacketRecord>, n: usize) -> PacketTrace {
        let mut trace = PacketTrace::from_records(records);
        trace.truncate(n);
        trace
    }

    fn from_packets(public: &PacketTrace) -> Cow<'_, PacketTrace> {
        Cow::Borrowed(public)
    }

    /// Fits the size range on `trace`.
    fn fit(trace: &PacketTrace, tuples: TupleCodec, cfg: &NetShareConfig) -> Self {
        let sizes: Vec<f64> = trace.packets.iter().map(|p| p.packet_len as f64).collect();
        PacketCodec {
            tuples,
            size: ContinuousCodec::fit(&sizes, true),
            n_chunks: cfg.n_chunks,
            tags_enabled: cfg.use_flow_tags,
        }
    }

    fn chunk(trace: &PacketTrace, m: usize) -> Chunked<PacketRecord> {
        chunk_packets(trace, m)
    }

    /// Tuple segments (bit IPs continuous, hybrid port/protocol
    /// categoricals + embeddings) + flow-tag bits.
    fn meta_spec(&self) -> FeatureSpec {
        let mut segs = self.tuples.segments();
        segs.push(Segment::Continuous {
            dim: 1 + self.n_chunks,
        });
        FeatureSpec::new(segs)
    }

    /// 4 continuous fields.
    fn record_spec(&self) -> FeatureSpec {
        FeatureSpec::continuous(RECORD_CONT)
    }

    fn encode_group(
        &self,
        group: &FlowGroup<PacketRecord>,
        bounds: (f64, f64),
    ) -> (Vec<f32>, Vec<Vec<f32>>) {
        let mut meta = Vec::with_capacity(self.meta_spec().dim());
        self.tuples.encode_into(&group.tuple, &mut meta);
        group.push_tags(self.tags_enabled, &mut meta);
        let chunk_len = (bounds.1 - bounds.0).max(1e-9);
        let records = group
            .items
            .iter()
            .map(|p| {
                vec![
                    (((p.ts_millis() - bounds.0) / chunk_len).clamp(0.0, 1.0)) as f32,
                    self.size.encode(p.packet_len as f64),
                    p.ttl as f32 / 255.0,
                    p.tos as f32 / 255.0,
                ]
            })
            .collect();
        (meta, records)
    }

    /// Sizes are floored at the protocol minimum (a derived-field
    /// correction, like the regenerated checksum).
    fn decode_sample(
        &self,
        meta: &[f32],
        records: &[Vec<f32>],
        bounds: (f64, f64),
    ) -> Vec<PacketRecord> {
        let tuple = self.tuples.decode(&meta[..self.tuples.dim()]);
        let chunk_len = (bounds.1 - bounds.0).max(1e-9);
        records
            .iter()
            .map(|r| {
                let ts_ms = bounds.0 + r[0] as f64 * chunk_len;
                let size = self
                    .size
                    .decode(r[1])
                    .round()
                    .clamp(tuple.proto.min_packet_size() as f64, 65_535.0)
                    as u16;
                let mut p = PacketRecord::new((ts_ms.max(0.0) * 1000.0) as u64, tuple, size);
                p.ttl = (r[2].clamp(0.0, 1.0) * 255.0).round() as u8;
                p.tos = (r[3].clamp(0.0, 1.0) * 255.0).round() as u8;
                p
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::{FiveTuple, Protocol};
    use trace_synth::public::ip2vec_public_corpus;

    fn codec() -> (PacketCodec, PacketTrace) {
        let tuples = TupleCodec::fit_public(&ip2vec_public_corpus(1_500, 6), 8, 4);
        let trace = sample_trace();
        let mut cfg = NetShareConfig::fast();
        cfg.n_chunks = 3;
        (PacketCodec::fit(&trace, tuples, &cfg), trace)
    }

    fn sample_trace() -> PacketTrace {
        let ft = FiveTuple::new(0x0a000001, 0xc0a80001, 40_000, 443, Protocol::Tcp);
        PacketTrace::from_records(
            (0..9)
                .map(|i| {
                    let mut p = PacketRecord::new(i * 100_000, ft, 1460);
                    p.ttl = 57;
                    p
                })
                .collect(),
        )
    }

    #[test]
    fn encode_decode_round_trips() {
        let (c, trace) = codec();
        let ch = chunk_packets(&trace, 3);
        for (ci, chunk) in ch.chunks.iter().enumerate() {
            for g in chunk {
                let (meta, recs) = c.encode_group(g, ch.bounds[ci]);
                let decoded = c.decode_sample(&meta, &recs, ch.bounds[ci]);
                assert_eq!(decoded.len(), g.items.len());
                for (d, o) in decoded.iter().zip(&g.items) {
                    assert_eq!(d.five_tuple.dst_port, 443);
                    assert_eq!(d.ttl, o.ttl);
                    let rel = (d.packet_len as f64 - 1460.0).abs() / 1460.0;
                    assert!(rel < 0.2, "size {} vs 1460", d.packet_len);
                    let dt = (d.ts_millis() - o.ts_millis()).abs();
                    assert!(dt < 5.0, "timestamp error {dt} ms");
                }
            }
        }
    }

    #[test]
    fn decoded_sizes_respect_protocol_minimum() {
        let (c, trace) = codec();
        let ch = chunk_packets(&trace, 3);
        let g = &ch.chunks[0][0];
        let (meta, mut recs) = c.encode_group(g, ch.bounds[0]);
        // Force the size dimension to 0 (smaller than any TCP packet).
        for r in &mut recs {
            r[1] = 0.0;
        }
        let decoded = c.decode_sample(&meta, &recs, ch.bounds[0]);
        assert!(decoded.iter().all(|p| p.packet_len >= 40));
    }
}
