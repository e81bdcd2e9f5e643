//! Privacy: Figure 5 + Table 5 (fidelity along a ladder of DP noise
//! levels, for three ways to start DP training) and Figure 15 (packet
//! CDFs under DP).

use crate::{f3, table, Claim, Data, Error, Expect, Experiment, Run, Stamp};
use distmetrics::cdf::Ecdf;
use distmetrics::emd_1d;
use netshare::packetcodec::PacketCodec;
use netshare::{DpOptions, DpPretrainSource, NetShareConfig};
use nettrace::{FlowTrace, PacketTrace};
use serde::{Deserialize, Serialize};
use trace_synth::DatasetKind::{self, Caida, Ugr16};

/// One DP-trained model.
#[derive(Serialize, Deserialize)]
pub struct DpPoint {
    variant: String,
    sigma: f64,
    /// The accountant's ε at δ = 1e-5 (`None`: the fit reported none).
    epsilon: Option<f64>,
    mean_jsd: f64,
    /// Raw EMD of the panel's `emd_field` against the real trace.
    emd: f64,
    /// Distinct values of `emd_field` in the synthetic trace; 1 means
    /// every synthetic record carries the same value (a point mass).
    distinct: usize,
}

/// One dataset's privacy–fidelity panel.
#[derive(Serialize, Deserialize)]
pub struct DpPanel {
    dataset: String,
    /// The continuous field whose EMD and spread are reported.
    emd_field: String,
    points: Vec<DpPoint>,
}

/// Figure 5 + Table 5 — for DP-SGD noise σ ∈ {4, 2, 1, 0.5}, NetShare
/// trained three ways: naive DP (no pre-training), pre-trained on
/// same-domain public data then DP fine-tuned (SAME), and pre-trained on
/// a different domain (DIFF). The paper: SAME dominates naive DP.
#[derive(Serialize, Deserialize)]
pub struct Fig5 {
    panels: Vec<DpPanel>,
}

const SIGMAS: [f32; 4] = [4.0, 2.0, 1.0, 0.5];

const VARIANTS: [(&str, usize, DpPretrainSource); 3] = [
    ("Naive DP", 0, DpPretrainSource::SameDomain),
    ("DP Pretrained-SAME", 60, DpPretrainSource::SameDomain),
    ("DP Pretrained-DIFF", 60, DpPretrainSource::DifferentDomain),
];

/// NetShare with DP-SGD at noise `sigma`, over two chunks (fewer,
/// larger chunks sample at a better rate).
fn dp_config(run: &Run, seed: u64, sigma: f32, pretrain: usize, source: DpPretrainSource) -> NetShareConfig {
    let mut cfg = run.scale.netshare_config(false, seed);
    cfg.n_chunks = 2;
    cfg.dp = Some(DpOptions {
        noise_multiplier: sigma,
        clip_norm: 1.0,
        delta: 1e-5,
        public_pretrain_steps: pretrain,
        pretrain_source: source,
    });
    cfg
}

/// One panel: every variant at every σ, fit seeds `fit_seed + σ`.
fn dp_panel<T: Data>(run: &mut Run, kind: DatasetKind, seed: u64, fit_seed: u64, field: &str) -> Result<DpPanel, Error> {
    let real: T = run.draw(kind, seed);
    let real_column = real.column(field);
    let mut points = Vec::new();
    for (variant, pretrain, source) in VARIANTS {
        for sigma in SIGMAS {
            let cfg = dp_config(run, fit_seed + sigma as u64, sigma, pretrain, source);
            let label = format!("{variant} σ={sigma}");
            let mut model = run.netshare::<T::Codec>(kind.name(), &label, &real, &cfg)?;
            let synth = model.generate(run.scale.n);
            let column = synth.column(field);
            let distinct = column.iter().map(|x| x.to_bits()).collect::<std::collections::BTreeSet<_>>().len();
            points.push(DpPoint {
                variant: variant.to_string(),
                sigma: sigma.into(),
                epsilon: model.epsilon(),
                mean_jsd: T::fidelity(&real, &synth).mean_jsd(),
                emd: emd_1d(&real_column, &column),
                distinct,
            });
        }
    }
    Ok(DpPanel { dataset: kind.name().to_string(), emd_field: field.to_string(), points })
}

fn eps_cell(epsilon: Option<f64>) -> String {
    epsilon.map_or_else(|| "∞".into(), |e| format!("{e:.2}"))
}

impl Experiment for Fig5 {
    const NAME: &'static str = "fig5";
    const EXPECT: &'static [(&'static str, Expect)] = &[
        ("fig5.ugr16.same_beats_naive", Expect::KnownFailing),
        ("fig5.ugr16.no_point_mass", Expect::KnownFailing),
        ("fig5.caida.same_beats_naive", Expect::Holds),
        ("fig5.caida.no_point_mass", Expect::Holds),
    ];

    fn run(run: &mut Run) -> Result<Self, Error> {
        let flows = dp_panel::<FlowTrace>(run, Ugr16, 42, 100, "PKT")?;
        Ok(Fig5 { panels: vec![flows, dp_panel::<PacketTrace>(run, Caida, 43, 200, "PS")?] })
    }

    fn render(&self, stamp: &Stamp) -> String {
        let titles = ["Fig. 5a/5b — UGR16 (NetFlow)", "Fig. 5c/5d + Table 5 — CAIDA (PCAP)"];
        let panel = |(p, title): (&DpPanel, &str)| {
            let rows: Vec<Vec<String>> = (p.points.iter())
                .map(|d| {
                    let label = format!("{} σ={}", d.variant, d.sigma);
                    let cells = [f3(d.sigma), eps_cell(d.epsilon), stamp.cpu_cell(&p.dataset, &label)];
                    let fidelity = [f3(d.mean_jsd), f3(d.emd), d.distinct.to_string()];
                    std::iter::once(d.variant.clone()).chain(cells).chain(fidelity).collect()
                })
                .collect();
            let header = format!("variant | sigma | epsilon | cpu_s | meanJSD | EMD({0}) | distinct {0}", p.emd_field);
            table(&format!("{title} privacy–fidelity (δ = 1e-5)"), &header, &rows)
        };
        self.panels.iter().zip(titles).map(panel).collect()
    }

    fn claims(&self, _: &Stamp) -> Vec<Claim> {
        let ids = [
            ("fig5.ugr16.same_beats_naive", "fig5.ugr16.no_point_mass"),
            ("fig5.caida.same_beats_naive", "fig5.caida.no_point_mass"),
        ];
        let mut out = Vec::new();
        for (p, (beats, spread)) in self.panels.iter().zip(ids) {
            let jsd = |variant: &str, sigma: f64| {
                let d = p.points.iter().find(|d| d.variant == variant && d.sigma == sigma);
                d.map_or(f64::NAN, |d| d.mean_jsd)
            };
            let gaps = SIGMAS.map(|s| jsd("DP Pretrained-SAME", s.into()) - jsd("Naive DP", s.into()));
            let worst = gaps.into_iter().fold(f64::NEG_INFINITY, f64::max);
            let ds = &p.dataset;
            let text = format!("on {ds}, DP Pretrained-SAME's mean JSD is below naive DP's at every σ: largest gap");
            out.push(Claim::new(beats, &text, worst, 0.0, worst < 0.0));
            let fewest = p.points.iter().map(|d| d.distinct).min().unwrap_or(0) as f64;
            let text = format!("on {ds}, no variant's synthetic {} column is a point mass: fewest values", p.emd_field);
            out.push(Claim::new(spread, &text, fewest, 2.0, fewest >= 2.0));
        }
        out
    }
}

/// One packet-level CDF pair under one privacy setting.
#[derive(Serialize, Deserialize)]
pub struct CdfSeries {
    variant: String,
    /// `None`: no DP (ε = ∞).
    epsilon: Option<f64>,
    port_cdf: Vec<(f64, f64)>,
    len_cdf: Vec<(f64, f64)>,
    port_emd_vs_real: f64,
    len_emd_vs_real: f64,
}

/// Figure 15 — source-port (15a) and packet-length (15b) CDFs on CAIDA
/// for no DP, naive DP and same-domain pre-trained DP at σ = 1. The
/// paper: naive DP distorts both; pre-training mitigates.
#[derive(Serialize, Deserialize)]
pub struct Fig15 {
    series: Vec<CdfSeries>,
}

impl Experiment for Fig15 {
    const NAME: &'static str = "fig15";
    const EXPECT: &'static [(&'static str, Expect)] = &[
        ("fig15.dp_distorts_lengths", Expect::Holds),
        ("fig15.pretraining_mitigates", Expect::KnownFailing),
    ];

    fn run(run: &mut Run) -> Result<Self, Error> {
        let real: PacketTrace = run.draw(Caida, 42);
        let columns = |t: &PacketTrace| {
            let ports = t.packets.iter().map(|p| p.five_tuple.src_port as f64).collect::<Vec<_>>();
            (ports, t.packets.iter().map(|p| p.packet_len as f64).collect::<Vec<_>>())
        };
        let (real_ports, real_lens) = columns(&real);
        let series = |variant: &str, epsilon: Option<f64>, t: &PacketTrace| {
            let (ports, lens) = columns(t);
            CdfSeries {
                variant: variant.to_string(),
                epsilon,
                port_cdf: Ecdf::new(&ports).log_grid(1.0, 65_535.0, 24),
                len_cdf: Ecdf::new(&lens).log_grid(20.0, 1_600.0, 24),
                port_emd_vs_real: emd_1d(&real_ports, &ports),
                len_emd_vs_real: emd_1d(&real_lens, &lens),
            }
        };
        let mut out = vec![series("Real", None, &real)];
        let cfg = run.scale.netshare_config(false, 7);
        let mut model = run.netshare::<PacketCodec>("CAIDA", "NetShare (no DP)", &real, &cfg)?;
        out.push(series("NetShare (no DP)", None, &model.generate(run.scale.n)));
        for (name, pretrain, source) in &VARIANTS[..2] {
            let cfg = dp_config(run, 8, 1.0, *pretrain, *source);
            let mut model = run.netshare::<PacketCodec>("CAIDA", name, &real, &cfg)?;
            let eps = model.epsilon();
            out.push(series(&format!("NetShare ({name})"), eps, &model.generate(run.scale.n)));
        }
        Ok(Fig15 { series: out })
    }

    fn render(&self, _: &Stamp) -> String {
        let rows: Vec<Vec<String>> = (self.series.iter())
            .map(|s| vec![s.variant.clone(), eps_cell(s.epsilon), f3(s.port_emd_vs_real), f3(s.len_emd_vs_real)])
            .collect();
        let header = "variant | epsilon | EMD(src port) | EMD(pkt len)";
        table("Fig. 15 — source-port & packet-length CDF distortion under DP (CAIDA)", header, &rows)
    }

    fn claims(&self, _: &Stamp) -> Vec<Claim> {
        let len = |v: &str| self.series.iter().find(|s| s.variant == v).map_or(f64::NAN, |s| s.len_emd_vs_real);
        let (clean, naive) = (len("NetShare (no DP)"), len("NetShare (Naive DP)"));
        let same = len("NetShare (DP Pretrained-SAME)");
        let text = "naive DP distorts the packet-length CDF: its EMD exceeds no-DP NetShare's";
        let distorts = Claim::new("fig15.dp_distorts_lengths", text, naive, clean, naive > clean);
        let text = "same-domain pre-training lowers the packet-length EMD below naive DP's";
        vec![distorts, Claim::new("fig15.pretraining_mitigates", text, same, naive, same < naive)]
    }
}
