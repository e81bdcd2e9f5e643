//! PacketCGAN baseline (Wang et al., ICC 2020): "uses conditional GANs to
//! augment the encrypted traffic datasets which converts each byte of the
//! packet (including the cleartext header) into one bit in the vector.
//! It does not generate timestamps, so we append timestamps to each
//! vector during training."
//!
//! Reproduction: byte-encoded packet rows with the timestamp appended as
//! a training dimension (the paper's adaptation), conditioned on the
//! transport protocol (the traffic class PacketCGAN balances).

use crate::common::{proto_codec, PacketByteCodec};
use crate::tabular::{GanLoss, TabularGan, TabularGanConfig};
use crate::PacketSynthesizer;
use fieldcodec::OneHotCodec;
use nettrace::{PacketTrace, Protocol};
use nnet::Tensor;
use rand::prelude::*;

/// The PacketCGAN packet synthesizer.
pub struct PacketCGan {
    codec: PacketByteCodec,
    proto: OneHotCodec<u8>,
    /// Empirical protocol marginal used to sample generation conditions.
    proto_marginal: Vec<(u8, f64)>,
    gan: TabularGan,
    rng: StdRng,
}

impl PacketCGan {
    /// Fits on a packet trace.
    pub fn fit_packets(trace: &PacketTrace, steps: usize, seed: u64) -> Self {
        let codec = PacketByteCodec::fit(trace, true);
        let proto = proto_codec();
        let rows = codec.encode_trace(trace);
        let mut conds = Tensor::zeros(trace.len(), proto.dim());
        let mut counts = std::collections::BTreeMap::new();
        for (i, p) in trace.packets.iter().enumerate() {
            let mut c = Vec::with_capacity(proto.dim());
            proto.encode_into(&p.five_tuple.proto.number(), &mut c);
            conds.row_mut(i).copy_from_slice(&c);
            *counts.entry(p.five_tuple.proto.number()).or_insert(0usize) += 1;
        }
        let total = trace.len().max(1) as f64;
        let proto_marginal = counts
            .into_iter()
            .map(|(k, v)| (k, v as f64 / total))
            .collect();

        let mut cfg = TabularGanConfig::small(codec.spec(), GanLoss::Bce, seed);
        cfg.cond_dim = proto.dim();
        cfg.steps = steps;
        let mut gan = TabularGan::new(cfg);
        gan.fit(&rows, &conds);
        PacketCGan {
            codec,
            proto,
            proto_marginal,
            gan,
            rng: StdRng::seed_from_u64(seed ^ 0x55),
        }
    }

    fn sample_condition(&mut self) -> (u8, Vec<f32>) {
        let mut u = self.rng.gen::<f64>();
        for &(p, w) in &self.proto_marginal {
            if u < w {
                let mut c = Vec::with_capacity(self.proto.dim());
                self.proto.encode_into(&p, &mut c);
                return (p, c);
            }
            u -= w;
        }
        let p = self.proto_marginal.last().map(|&(p, _)| p).unwrap_or(6);
        let mut c = Vec::with_capacity(self.proto.dim());
        self.proto.encode_into(&p, &mut c);
        (p, c)
    }
}

impl PacketSynthesizer for PacketCGan {
    fn name(&self) -> &'static str {
        "PacketCGAN"
    }

    fn generate_packets(&mut self, n: usize) -> PacketTrace {
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            let (proto_num, c) = self.sample_condition();
            let cond = Tensor::from_vec(1, c.len(), c);
            let row = self.gan.sample(1, Some(&cond));
            let mut p = self.codec.decode(row.row(0), None);
            // The condition dictates the class; override the byte-decoded
            // protocol with it (that is the point of the CGAN).
            p.five_tuple.proto = Protocol::from_number(proto_num);
            records.push(p);
        }
        PacketTrace::from_records(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_synth::{generate_packets, DatasetKind};

    #[test]
    fn end_to_end_preserves_protocol_marginal() {
        let real = generate_packets(DatasetKind::Caida, 400, 1);
        let mut model = PacketCGan::fit_packets(&real, 30, 2);
        let synth = model.generate_packets(300);
        assert_eq!(synth.len(), 300);
        let frac = |t: &PacketTrace, p: Protocol| {
            t.packets.iter().filter(|x| x.five_tuple.proto == p).count() as f64 / t.len() as f64
        };
        let (rt, st) = (frac(&real, Protocol::Tcp), frac(&synth, Protocol::Tcp));
        assert!((rt - st).abs() < 0.15, "TCP fraction real {rt} vs synth {st}");
        assert_eq!(model.name(), "PacketCGAN");
    }
}
