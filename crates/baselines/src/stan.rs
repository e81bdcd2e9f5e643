//! STAN baseline (Xu et al., 2020): "an autoregressive neural
//! network-based NetFlow synthesizer that is designed to capture
//! dependency structures between attributes and across time. STAN groups
//! NetFlow records by host and only ensures correct marginal
//! distributions within the same host. To generate data from multiple
//! hosts, we randomly draw host IPs from the real data."
//!
//! Reproduction: records are grouped by source host; an MLP learns the
//! autoregressive transition `(prev record) → (next record)` over the
//! normalized continuous fields, sampled with Gaussian residual noise;
//! ports/protocols/destinations come from per-host empirical marginals
//! (STAN's "correct marginals within the same host"); host IPs are drawn
//! from the real host population, record-count-weighted.

use fieldcodec::ContinuousCodec;
use nettrace::{FiveTuple, FlowRecord, FlowTrace, Protocol};
use nnet::loss::mse;
use nnet::optim::{Adam, Optimizer};
use nnet::{Activation, Layer, Parameterized, Sequential, Tensor};
use rand::prelude::*;
use rand_distr::{Distribution, Normal};
use std::collections::BTreeMap;

/// Continuous fields modeled autoregressively: duration, packets, bytes,
/// inter-record gap.
const F: usize = 4;

struct HostProfile {
    /// (dst_ip, src_port, dst_port, proto, label) marginal within the
    /// host — STAN resamples these jointly, so label/port correlation
    /// survives (its "correct marginals within the same host").
    endpoints: Vec<(u32, u16, u16, Protocol, Option<nettrace::TrafficLabel>)>,
    /// Number of records this host contributed (sampling weight).
    records: usize,
}

/// The STAN flow synthesizer.
pub struct Stan {
    net: Sequential,
    codecs: [ContinuousCodec; F],
    residual_std: [f32; F],
    hosts: Vec<(u32, HostProfile)>,
    host_weights: Vec<f64>,
    first_rows: Vec<[f32; F]>,
    rng: StdRng,
    span_ms: f64,
}

impl Stan {
    /// Fits on a flow trace.
    pub fn fit_flows(trace: &FlowTrace, steps: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Normalizers over the four autoregressive fields.
        let durations: Vec<f64> = trace.flows.iter().map(|f| f.duration_ms).collect();
        let pkts: Vec<f64> = trace.flows.iter().map(|f| f.packets as f64).collect();
        let byts: Vec<f64> = trace.flows.iter().map(|f| f.bytes as f64).collect();

        // Per-host grouping (time-ordered within host), walked in host
        // order so the training rows, and so the fit, follow the seed.
        let mut groups: BTreeMap<u32, Vec<&FlowRecord>> = BTreeMap::new();
        for f in &trace.flows {
            groups.entry(f.five_tuple.src_ip).or_default().push(f);
        }
        let mut gaps: Vec<f64> = Vec::new();
        for g in groups.values_mut() {
            g.sort_by(|a, b| a.start_ms.total_cmp(&b.start_ms));
            for w in g.windows(2) {
                gaps.push((w[1].start_ms - w[0].start_ms).max(0.0));
            }
        }
        if gaps.is_empty() {
            gaps.push(1.0);
        }
        let codecs = [
            ContinuousCodec::fit(&durations, true),
            ContinuousCodec::fit(&pkts, true),
            ContinuousCodec::fit(&byts, true),
            ContinuousCodec::fit(&gaps, true),
        ];
        let norm_row = |f: &FlowRecord, gap: f64| -> [f32; F] {
            [
                codecs[0].encode(f.duration_ms),
                codecs[1].encode(f.packets as f64),
                codecs[2].encode(f.bytes as f64),
                codecs[3].encode(gap),
            ]
        };

        // Transition pairs across all hosts.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut first_rows = Vec::new();
        for g in groups.values() {
            first_rows.push(norm_row(g[0], 0.0));
            for w in g.windows(2) {
                let gap = (w[1].start_ms - w[0].start_ms).max(0.0);
                xs.push(norm_row(w[0], 0.0));
                ys.push(norm_row(w[1], gap));
            }
        }

        // Train the autoregressive MLP (if there are any transitions).
        let mut net = Sequential::mlp(F, &[32, 32], F, Activation::Relu, &mut rng);
        net.push_activation(Activation::Sigmoid);
        let mut residual_std = [0.05f32; F];
        if !xs.is_empty() {
            let x = Tensor::from_vec(xs.len(), F, xs.iter().flatten().cloned().collect());
            let y = Tensor::from_vec(ys.len(), F, ys.iter().flatten().cloned().collect());
            let mut opt = Adam::with_betas(1e-3, 0.9, 0.999);
            for _ in 0..steps {
                let idx: Vec<usize> = (0..64.min(x.rows()))
                    .map(|_| rng.gen_range(0..x.rows()))
                    .collect();
                let xb = x.select_rows(&idx);
                let yb = y.select_rows(&idx);
                let pred = net.forward(&xb);
                let (_, grad) = mse(&pred, &yb);
                net.zero_grad();
                let _ = net.backward(&grad);
                opt.step(&mut net);
            }
            // Residual spread per field, for sampling noise.
            let pred = net.forward(&x);
            for (f, rs) in residual_std.iter_mut().enumerate() {
                let mut ss = 0.0f32;
                for r in 0..x.rows() {
                    let d = pred.get(r, f) - y.get(r, f);
                    ss += d * d;
                }
                *rs = (ss / x.rows() as f32).sqrt().max(0.01);
            }
        }

        // Host profiles for marginal sampling.
        let mut hosts = Vec::new();
        let mut host_weights = Vec::new();
        let mut sorted: Vec<(u32, Vec<&FlowRecord>)> = groups.into_iter().collect();
        sorted.sort_by_key(|(ip, _)| *ip);
        for (ip, g) in sorted {
            let endpoints = g
                .iter()
                .map(|f| {
                    (
                        f.five_tuple.dst_ip,
                        f.five_tuple.src_port,
                        f.five_tuple.dst_port,
                        f.five_tuple.proto,
                        f.label,
                    )
                })
                .collect();
            host_weights.push(g.len() as f64);
            hosts.push((
                ip,
                HostProfile {
                    endpoints,
                    records: g.len(),
                },
            ));
        }

        Stan {
            net,
            codecs,
            residual_std,
            hosts,
            host_weights,
            first_rows,
            rng,
            span_ms: trace.span_ms().max(1.0),
        }
    }

    fn sample_host(&mut self) -> usize {
        let total: f64 = self.host_weights.iter().sum();
        let mut u = self.rng.gen::<f64>() * total;
        for (i, w) in self.host_weights.iter().enumerate() {
            if u < *w {
                return i;
            }
            u -= w;
        }
        self.host_weights.len() - 1
    }
}

impl crate::FlowSynthesizer for Stan {
    fn name(&self) -> &'static str {
        "STAN"
    }

    fn generate_flows(&mut self, n: usize) -> FlowTrace {
        let mut flows = Vec::with_capacity(n);
        let noise = Normal::new(0.0f64, 1.0).unwrap(); // lint: allow(panic-in-lib) constant (0,1) parameters are valid (lint: allow(panic-in-lib) constant (0,1) parameters are valid)
        while flows.len() < n {
            let hi = self.sample_host();
            let (src_ip, records) = {
                let (ip, prof) = &self.hosts[hi];
                (*ip, prof.records.min(n - flows.len()).max(1))
            };
            // Roll the autoregressive chain for this host.
            let mut state = self.first_rows[self.rng.gen_range(0..self.first_rows.len())];
            let mut t = self.rng.gen_range(0.0..self.span_ms);
            for step in 0..records {
                if step > 0 {
                    let s = Tensor::row_vector(&state);
                    let pred = self.net.forward(&s);
                    for (f, s) in state.iter_mut().enumerate() {
                        let eps = noise.sample(&mut self.rng) as f32 * self.residual_std[f];
                        *s = (pred.get(0, f) + eps).clamp(0.0, 1.0);
                    }
                    t += self.codecs[3].decode(state[3]).max(0.0);
                }
                let (dst_ip, src_port, dst_port, proto, label) = {
                    let prof = &self.hosts[hi].1;
                    prof.endpoints[self.rng.gen_range(0..prof.endpoints.len())]
                };
                let mut rec = FlowRecord::new(
                    FiveTuple::new(src_ip, dst_ip, src_port, dst_port, proto),
                    t,
                    self.codecs[0].decode(state[0]).max(0.0),
                    self.codecs[1].decode(state[1]).round().max(1.0) as u64,
                    self.codecs[2].decode(state[2]).round().max(1.0) as u64,
                );
                rec.label = label;
                flows.push(rec);
            }
        }
        flows.truncate(n);
        FlowTrace::from_records(flows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowSynthesizer;
    use trace_synth::{generate_flows, DatasetKind};

    #[test]
    fn end_to_end_uses_real_hosts_and_ports() {
        let real = generate_flows(DatasetKind::Ugr16, 500, 1);
        let mut model = Stan::fit_flows(&real, 100, 2);
        let synth = model.generate_flows(200);
        assert_eq!(synth.len(), 200);
        let real_hosts: std::collections::HashSet<u32> =
            real.flows.iter().map(|f| f.five_tuple.src_ip).collect();
        assert!(synth
            .flows
            .iter()
            .all(|f| real_hosts.contains(&f.five_tuple.src_ip)),
            "STAN draws host IPs from the real data");
        let real_ports: std::collections::HashSet<u16> =
            real.flows.iter().map(|f| f.five_tuple.dst_port).collect();
        assert!(synth
            .flows
            .iter()
            .all(|f| real_ports.contains(&f.five_tuple.dst_port)),
            "ports come from per-host marginals");
        assert_eq!(model.name(), "STAN");
    }

    #[test]
    fn values_stay_positive_and_finite() {
        let real = generate_flows(DatasetKind::Cidds, 300, 3);
        let mut model = Stan::fit_flows(&real, 60, 4);
        let synth = model.generate_flows(100);
        assert!(synth.flows.iter().all(|f| f.packets >= 1));
        assert!(synth.flows.iter().all(|f| f.duration_ms.is_finite() && f.duration_ms >= 0.0));
    }
}
