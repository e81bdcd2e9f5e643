//! # bench
//!
//! Experiment runners: one binary per paper table/figure (in `src/bin/`).
//! This library holds the shared plumbing: experiment scaling, the model
//! zoo, and result formatting/persistence.
//!
//! Every runner prints the same rows/series its figure reports and writes
//! a JSON copy under `results/`. Scale knobs come from the environment so
//! the full suite runs in minutes by default and can be turned up:
//!
//! * `NETSHARE_N` — records/packets per dataset (default 4000);
//! * `NETSHARE_STEPS` — GAN generator steps (default 200).

use baselines::{
    ctgan::CtGanPacket, CtGan, EWganGp, FlowSynthesizer, FlowWgan, PacGan, PacketCGan,
    PacketSynthesizer, Stan,
};
use netshare::{NetShare, NetShareConfig};
use nettrace::{FlowTrace, PacketTrace};
use serde::Serialize;
use std::io::Write as _;

/// Experiment scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExpScale {
    /// Records (flow datasets) / packets (packet datasets) per trace.
    pub n: usize,
    /// Generator training steps for every GAN model.
    pub steps: usize,
}

impl ExpScale {
    /// Reads `NETSHARE_N` / `NETSHARE_STEPS` with CPU-friendly defaults.
    pub fn from_env() -> Self {
        let read = |k: &str, d: usize| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        ExpScale {
            n: read("NETSHARE_N", 4_000),
            steps: read("NETSHARE_STEPS", 200),
        }
    }

    /// The NetShare configuration at this scale.
    pub fn netshare_config(&self, with_labels: bool, seed: u64) -> NetShareConfig {
        let mut cfg = NetShareConfig::default_config();
        cfg.n_chunks = 5;
        cfg.seed_steps = self.steps;
        cfg.finetune_steps = (self.steps / 5).max(10);
        cfg.ip2vec_public_packets = 6_000;
        cfg.embed_dim = 10;
        cfg.with_labels = with_labels;
        cfg.seed = seed;
        cfg
    }
}

/// NetShare wrapped to the baseline-harness flow interface.
pub struct NetShareFlow {
    model: NetShare,
    label: &'static str,
}

impl NetShareFlow {
    /// Fits NetShare on a flow trace.
    pub fn fit(real: &FlowTrace, cfg: &NetShareConfig) -> Self {
        NetShareFlow {
            model: NetShare::fit_flows(real, cfg).expect("non-empty trace"), // lint: allow(panic-in-lib) bench harness, generated traces are non-empty (lint: allow(panic-in-lib) bench harness, generated traces are non-empty)
            label: "NetShare",
        }
    }

    /// Renames the series (for V0/ablation variants).
    pub fn with_label(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }

    /// Summed per-chunk training seconds (the Fig. 4 cost axis).
    pub fn cpu_seconds(&self) -> f64 {
        self.model.cpu_seconds
    }

    /// The DP ε, when trained with DP.
    pub fn epsilon(&self) -> Option<f64> {
        self.model.epsilon()
    }
}

impl FlowSynthesizer for NetShareFlow {
    fn name(&self) -> &'static str {
        self.label
    }
    fn generate_flows(&mut self, n: usize) -> FlowTrace {
        self.model.generate_flows(n)
    }
}

/// NetShare wrapped to the packet interface.
pub struct NetSharePacket {
    model: NetShare<netshare::packetcodec::PacketCodec>,
    label: &'static str,
}

impl NetSharePacket {
    /// Fits NetShare on a packet trace.
    pub fn fit(real: &PacketTrace, cfg: &NetShareConfig) -> Self {
        NetSharePacket {
            model: NetShare::fit_packets(real, cfg).expect("non-empty trace"), // lint: allow(panic-in-lib) bench harness, generated traces are non-empty (lint: allow(panic-in-lib) bench harness, generated traces are non-empty)
            label: "NetShare",
        }
    }

    /// Renames the series.
    pub fn with_label(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }

    /// Summed per-chunk training seconds.
    pub fn cpu_seconds(&self) -> f64 {
        self.model.cpu_seconds
    }

    /// The DP ε, when trained with DP.
    pub fn epsilon(&self) -> Option<f64> {
        self.model.epsilon()
    }
}

impl PacketSynthesizer for NetSharePacket {
    fn name(&self) -> &'static str {
        self.label
    }
    fn generate_packets(&mut self, n: usize) -> PacketTrace {
        self.model.generate_packets(n)
    }
}

/// Fits the paper's NetFlow baselines (CTGAN, STAN, E-WGAN-GP).
pub fn fit_flow_baselines(
    real: &FlowTrace,
    steps: usize,
    seed: u64,
) -> Vec<Box<dyn FlowSynthesizer>> {
    vec![
        Box::new(CtGan::fit_flows(real, steps, seed)),
        Box::new(Stan::fit_flows(real, steps, seed ^ 1)),
        Box::new(EWganGp::fit_flows(real, steps, seed ^ 2)),
    ]
}

/// Fits the paper's PCAP baselines (CTGAN, PAC-GAN, PacketCGAN,
/// Flow-WGAN).
pub fn fit_packet_baselines(
    real: &PacketTrace,
    steps: usize,
    seed: u64,
) -> Vec<Box<dyn PacketSynthesizer>> {
    vec![
        Box::new(CtGanPacket::fit_packets(real, steps, seed)),
        Box::new(PacGan::fit_packets(real, steps, seed ^ 1)),
        Box::new(PacketCGan::fit_packets(real, steps, seed ^ 2)),
        Box::new(FlowWgan::fit_packets(real, steps, seed ^ 3)),
    ]
}


/// Runs the Finding-1 fidelity comparison on a flow dataset: fits every
/// baseline plus NetShare, generates, and scores per-field JSD/EMD against
/// the real trace. Returns `(model name, report)` in plot order.
pub fn flow_fidelity_suite(
    kind: trace_synth::DatasetKind,
    scale: ExpScale,
    seed: u64,
) -> (FlowTrace, Vec<(String, distmetrics::FidelityReport)>) {
    let real = trace_synth::generate_flows(kind, scale.n, seed);
    let mut out = Vec::new();
    // Calibration floor: a second, independent draw of the same real
    // process. No generator can beat this on sparse fields (e.g.
    // ephemeral source ports barely overlap between two real samples).
    let holdout = trace_synth::generate_flows(kind, scale.n, seed + 1_000);
    out.push((
        "Real-holdout".to_string(),
        distmetrics::fidelity_flow(&real, &holdout),
    ));
    for baseline in fit_flow_baselines(&real, scale.steps, seed ^ 0x10).iter_mut() {
        let synth = baseline.generate_flows(scale.n);
        out.push((
            baseline.name().to_string(),
            distmetrics::fidelity_flow(&real, &synth),
        ));
    }
    let with_labels = true; // all three flow datasets are labeled
    let mut ns = NetShareFlow::fit(&real, &scale.netshare_config(with_labels, seed ^ 0x20));
    let synth = ns.generate_flows(scale.n);
    out.push((
        "NetShare".to_string(),
        distmetrics::fidelity_flow(&real, &synth),
    ));
    (real, out)
}

/// Packet-dataset counterpart of [`flow_fidelity_suite`].
pub fn packet_fidelity_suite(
    kind: trace_synth::DatasetKind,
    scale: ExpScale,
    seed: u64,
) -> (PacketTrace, Vec<(String, distmetrics::FidelityReport)>) {
    let real = trace_synth::generate_packets(kind, scale.n, seed);
    let mut out = Vec::new();
    let holdout = trace_synth::generate_packets(kind, scale.n, seed + 1_000);
    out.push((
        "Real-holdout".to_string(),
        distmetrics::fidelity_packet(&real, &holdout),
    ));
    for baseline in fit_packet_baselines(&real, scale.steps, seed ^ 0x10).iter_mut() {
        let synth = baseline.generate_packets(scale.n);
        out.push((
            baseline.name().to_string(),
            distmetrics::fidelity_packet(&real, &synth),
        ));
    }
    let mut ns = NetSharePacket::fit(&real, &scale.netshare_config(false, seed ^ 0x20));
    let synth = ns.generate_packets(scale.n);
    out.push((
        "NetShare".to_string(),
        distmetrics::fidelity_packet(&real, &synth),
    ));
    (real, out)
}

/// Prints the Fig. 10/16/17-style table for a fidelity suite: per-field
/// JSD, per-field normalized EMD, and the two summary means.
pub fn print_fidelity_tables(title: &str, suite: &[(String, distmetrics::FidelityReport)]) {
    let reports: Vec<&distmetrics::FidelityReport> = suite.iter().map(|(_, r)| r).collect();
    let mean_emds = distmetrics::report::mean_normalized_emd(&reports);

    let jsd_fields: Vec<&str> = suite[0].1.jsd.iter().map(|(f, _)| *f).collect();
    let emd_fields: Vec<&str> = suite[0].1.emd.iter().map(|(f, _)| *f).collect();

    let header: Vec<String> = std::iter::once("model".to_string())
        .chain(jsd_fields.iter().map(|f| format!("JSD:{f}")))
        .chain(std::iter::once("meanJSD".into()))
        .chain(emd_fields.iter().map(|f| format!("nEMD:{f}")))
        .chain(std::iter::once("meanNEMD".into()))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();

    // Per-field normalized EMDs need cross-model normalization.
    let mut field_norms: Vec<Vec<f64>> = Vec::new();
    for f in &emd_fields {
        let vals: Vec<f64> = reports.iter().map(|r| r.emd_for(f).unwrap()).collect(); // lint: allow(panic-in-lib) all reports are built over the same field list (lint: allow(panic-in-lib) all reports are built over the same field list)
        field_norms.push(distmetrics::normalize_emds(&vals));
    }

    let rows: Vec<Vec<String>> = suite
        .iter()
        .enumerate()
        .map(|(mi, (name, r))| {
            std::iter::once(name.clone())
                .chain(r.jsd.iter().map(|(_, v)| f3(*v)))
                .chain(std::iter::once(f3(r.mean_jsd())))
                .chain(field_norms.iter().map(|col| f3(col[mi])))
                .chain(std::iter::once(f3(mean_emds[mi])))
                .collect()
        })
        .collect();
    print_table(title, &header_refs, &rows);
}

/// Prints an aligned text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Writes a JSON result file under `results/` (created on demand).
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(mut f) = std::fs::File::create(&path) {
        let _ = f.write_all(serde_json::to_string_pretty(value).unwrap_or_default().as_bytes());
        println!("[saved {}]", path.display());
    }
}

/// Formats an `f64` to 3 decimals (table cells).
pub fn f3(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "inf".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_synth::{generate_flows, DatasetKind};

    #[test]
    fn scale_config_respects_knobs() {
        let s = ExpScale { n: 4_000, steps: 200 };
        let cfg = s.netshare_config(true, 1);
        assert!(cfg.with_labels);
        assert_eq!(cfg.seed_steps, 200);
    }

    #[test]
    fn netshare_adapter_round_trips() {
        let real = generate_flows(DatasetKind::Ugr16, 400, 9);
        let mut cfg = ExpScale { n: 400, steps: 10 }.netshare_config(false, 2);
        cfg.n_chunks = 2;
        cfg.finetune_steps = 3;
        cfg.ip2vec_public_packets = 1_000;
        let mut model = NetShareFlow::fit(&real, &cfg);
        assert_eq!(model.name(), "NetShare");
        assert!(model.cpu_seconds() > 0.0);
        let synth = model.generate_flows(100);
        assert!(!synth.is_empty());
    }
}
