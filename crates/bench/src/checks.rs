//! Protocol consistency (Tables 6–7), encodings (Table 2), the two
//! ablations of Insights 1 and 3, and the §8 memorization check.

use crate::{f3, models, pct, table, Claim, Data, Error, Expect, Experiment, Run, Stamp};
use baselines::{CtGan, FlowSynthesizer};
use distmetrics::fields::flow_records_per_tuple;
use distmetrics::overfitting::{flow_overlap, is_memorizing, packet_overlap, OverlapReport};
use distmetrics::{emd_1d, jsd_from_samples};
use fieldcodec::{BitCodec, ByteCodec, Ip2Vec, Ip2VecConfig, Word};
use netshare::flowcodec::FlowCodec;
use nettrace::validity::{check_flow_trace, check_packet_trace};
use nettrace::{aggregate_flows, AggregationConfig, FlowTrace, PacketTrace};
use rand::prelude::*;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};
use trace_synth::DatasetKind::{Caida, Ugr16};

/// One model's pass rates on the Appendix-B consistency tests.
#[derive(Serialize, Deserialize)]
pub struct ConsistencyRow {
    model: String,
    test1: f64,
    test2: f64,
    test3: f64,
    /// Packet traces only.
    test4: Option<f64>,
}

impl ConsistencyRow {
    fn tests(&self) -> Vec<f64> {
        [self.test1, self.test2, self.test3].into_iter().chain(self.test4).collect()
    }
}

/// Tables 6 & 7 (Appendix B) — Test 1 (IP validity), Test 2
/// (bytes/packets), Test 3 (port/protocol), Test 4 (minimum packet
/// size, PCAP only): NetFlow on UGR16, PCAP on CAIDA.
#[derive(Serialize, Deserialize)]
pub struct Tab6_7 {
    netflow: Vec<ConsistencyRow>,
    pcap: Vec<ConsistencyRow>,
}

impl Experiment for Tab6_7 {
    const NAME: &'static str = "tab6_7";
    const EXPECT: &'static [(&'static str, Expect)] = &[
        ("tab6.netshare_most_consistent", Expect::Holds),
        ("tab7.netshare_most_consistent", Expect::KnownFailing),
    ];

    fn run(run: &mut Run) -> Result<Self, Error> {
        let row = |model: &str, r: nettrace::validity::ConsistencyReport| ConsistencyRow {
            model: model.to_string(),
            test1: r.test1,
            test2: r.test2,
            test3: r.test3,
            test4: r.test4,
        };
        let real: FlowTrace = run.draw(Ugr16, 42);
        let cfg = run.scale.netshare_config(false, 8);
        let mut traces = vec![("Real".to_string(), real.clone())];
        traces.extend(models(run, Ugr16, &real, 51, &cfg)?);
        let netflow = traces.iter().map(|(m, t)| row(m, check_flow_trace(t))).collect();
        let real: PacketTrace = run.draw(Caida, 43);
        let cfg = run.scale.netshare_config(false, 9);
        let mut traces = vec![("Real".to_string(), real.clone())];
        traces.extend(models(run, Caida, &real, 53, &cfg)?);
        let pcap = (traces.iter())
            .map(|(m, t)| row(m, check_packet_trace(t, &aggregate_flows(t, AggregationConfig::default()))))
            .collect();
        Ok(Tab6_7 { netflow, pcap })
    }

    fn render(&self, _: &Stamp) -> String {
        let rows = |rs: &[ConsistencyRow]| -> Vec<Vec<String>> {
            let cells = |r: &ConsistencyRow| r.tests().into_iter().map(|t| pct(t, 2));
            rs.iter().map(|r| std::iter::once(r.model.clone()).chain(cells(r)).collect()).collect()
        };
        let header = "model | Test1 | Test2 | Test3";
        table("Table 6 — NetFlow consistency checks on UGR16", header, &rows(&self.netflow))
            + &table("Table 7 — PCAP consistency checks on CAIDA", &format!("{header} | Test4"), &rows(&self.pcap))
    }

    fn claims(&self, _: &Stamp) -> Vec<Claim> {
        let claim = |id, table: &str, rows: &[ConsistencyRow]| {
            let avg = |r: &ConsistencyRow| crate::mean(r.tests());
            let of = |pred: &dyn Fn(&str) -> bool| rows.iter().filter(|r| pred(&r.model)).map(avg).fold(f64::NAN, f64::max);
            let (ns, best) = (of(&|m| m == "NetShare"), of(&|m| m != "NetShare" && m != "Real"));
            let text = format!("{table}: NetShare's mean pass rate over the tests is at least every baseline's");
            Claim::new(id, &text, ns, best, ns >= best)
        };
        vec![
            claim("tab6.netshare_most_consistent", "Table 6", &self.netflow),
            claim("tab7.netshare_most_consistent", "Table 7", &self.pcap),
        ]
    }
}

/// One encoding of one field, measured.
#[derive(Serialize, Deserialize)]
pub struct EncodingRow {
    field: String,
    encoding: String,
    dims: usize,
    /// JSD between the real values and their encode → noise → decode.
    jsd_after_noise: f64,
    /// Noisy round trips per second, in thousands (wall clock).
    kops_per_s: f64,
    /// Whether the mapping is independent of the (private) data.
    dp_safe: bool,
}

/// Table 2 — bit, byte and vector (IP2Vec) encodings of IPs and ports:
/// fidelity as the JSD after a noisy round trip (σ = 0.03, a stand-in
/// for generator error), scalability as dimensions and throughput,
/// privacy as independence from the training data.
#[derive(Serialize, Deserialize)]
pub struct Tab2 {
    rows: Vec<EncodingRow>,
}

impl Experiment for Tab2 {
    const NAME: &'static str = "tab2";
    const EXPECT: &'static [(&'static str, Expect)] = &[("tab2.bytes_shatter_bits_survive", Expect::Holds)];

    fn run(run: &mut Run) -> Result<Self, Error> {
        let real: FlowTrace = run.draw(Ugr16, 42);
        let ips: Vec<u64> = real.flows.iter().map(|f| f.five_tuple.dst_ip as u64).collect();
        let ports: Vec<u64> = real.flows.iter().map(|f| f.five_tuple.dst_port as u64).collect();
        let config = Ip2VecConfig { dim: 10, epochs: 2, lr: 0.05, negatives: 4, seed: 7 };
        let ip2vec = run.time("UGR16", "IP2Vec", 7, || Ip2Vec::train_on_flows(&real, config));
        let embed = |w: Word| ip2vec.embedding(&w).map_or_else(|| vec![0.0; 10], |e| e.to_vec());
        let noise = Normal::new(0.0f32, 0.03).map_err(|e| Error(format!("noise: {e:?}")))?;
        let mut rows = Vec::new();
        let mut measure = |field: &str, values: &[u64], (encoding, dims, dp_safe): (&str, usize, bool),
                           encode: &dyn Fn(u64) -> Vec<f32>,
                           decode: &dyn Fn(&[f32]) -> u64| {
            let mut rng = StdRng::seed_from_u64(9);
            let clock = orchestrator::timing::Stopwatch::start();
            let noisy = |v| {
                let mut enc = encode(v);
                enc.iter_mut().for_each(|x| *x += noise.sample(&mut rng));
                decode(&enc)
            };
            let decoded: Vec<u64> = values.iter().copied().map(noisy).collect();
            let kops_per_s = values.len() as f64 / clock.elapsed_seconds() / 1_000.0;
            let (field, encoding) = (field.to_string(), encoding.to_string());
            let jsd_after_noise = jsd_from_samples(values, &decoded);
            rows.push(EncodingRow { field, encoding, dims, jsd_after_noise, kops_per_s, dp_safe });
        };
        let (bit, byte) = (BitCodec::ipv4(), ByteCodec::ipv4());
        measure("IP", &ips, ("bit", 32, true), &|v| bit.encode(v), &|e| bit.decode(e));
        measure("IP", &ips, ("byte", 4, true), &|v| byte.encode(v), &|e| byte.decode(e));
        let nearest_ip = |e: &[f32]| match ip2vec.nearest(e, |w| matches!(w, Word::Ip(_))) {
            Some(Word::Ip(ip)) => ip as u64,
            _ => 0,
        };
        measure("IP", &ips, ("vector (IP2Vec)", 10, false), &|v| embed(Word::Ip(v as u32)), &nearest_ip);
        let (bit, byte) = (BitCodec::port(), ByteCodec::port());
        measure("port", &ports, ("bit", 16, true), &|v| bit.encode(v), &|e| bit.decode(e));
        measure("port", &ports, ("byte", 2, true), &|v| byte.encode(v), &|e| byte.decode(e));
        // DP-safe only when trained on public data (NetShare's choice);
        // this dictionary is trained on the trace.
        let nearest_port = |e: &[f32]| ip2vec.nearest_port(e).unwrap_or(0) as u64;
        measure("port", &ports, ("vector (IP2Vec)", 10, false), &|v| embed(Word::Port(v as u16)), &nearest_port);
        Ok(Tab2 { rows })
    }

    fn render(&self, _: &Stamp) -> String {
        let rows: Vec<Vec<String>> = (self.rows.iter())
            .map(|r| {
                let safe = if r.dp_safe { "yes" } else { "no (data-dependent)" };
                let (dims, kops) = (r.dims.to_string(), format!("{:.0}", r.kops_per_s));
                vec![r.field.clone(), r.encoding.clone(), dims, f3(r.jsd_after_noise), kops, safe.into()]
            })
            .collect();
        let title = "Table 2 — encoding trade-offs (fidelity = JSD after a noisy round trip, lower is better)";
        table(title, "field | encoding | dims | JSD@noise | kops/s | DP-safe", &rows)
    }

    fn claims(&self, _: &Stamp) -> Vec<Claim> {
        let jsd = |enc: &str, pick: fn(f64, f64) -> f64| {
            self.rows.iter().filter(|r| r.encoding == enc).map(|r| r.jsd_after_noise).fold(f64::NAN, pick)
        };
        let (byte, bit) = (jsd("byte", f64::min), jsd("bit", f64::max));
        let text = "under the same noise, the byte encoding's best JSD exceeds the bit encoding's worst";
        vec![Claim::new("tab2.bytes_shatter_bits_survive", text, byte, bit, byte > bit)]
    }
}

/// One arm of the Insight-1 ablation.
#[derive(Serialize, Deserialize)]
pub struct Arm {
    name: String,
    mean_jsd: f64,
    records_per_tuple_emd: f64,
    max_records_per_tuple: f64,
}

/// Ablation of Insight 1 on UGR16: a tabular GAN per measurement epoch
/// (the strawman of the paper's Fig. 6a) against the merged flow
/// time series, at the same GAN budget, scored on the cross-record
/// structure the tabular arm cannot express (records per five-tuple).
#[derive(Serialize, Deserialize)]
pub struct AblationReformulation {
    arms: Vec<Arm>,
}

impl Experiment for AblationReformulation {
    const NAME: &'static str = "ablation_reformulation";
    const EXPECT: &'static [(&'static str, Expect)] = &[("ablation.time_series_beats_tabular", Expect::Holds)];

    fn run(run: &mut Run) -> Result<Self, Error> {
        let real: FlowTrace = run.draw(Ugr16, 42);
        let n_epochs = 5;
        let mut tabular = Vec::new();
        for (i, epoch) in nettrace::epoch::split_flow_epochs(&real, n_epochs).iter().enumerate() {
            if epoch.is_empty() {
                continue;
            }
            let (seed, steps) = (400 + i as u64, run.scale.steps / n_epochs);
            let mut gan = run.time("UGR16", &format!("CTGAN epoch {i}"), seed, || CtGan::fit_flows(epoch, steps, seed));
            tabular.extend(gan.generate_flows(epoch.len()).flows);
        }
        let cfg = run.scale.netshare_config(false, 500);
        let netshare = run.netshare::<FlowCodec>("UGR16", "NetShare", &real, &cfg)?.generate(run.scale.n);
        let real_rpt = flow_records_per_tuple(&real);
        let arm = |name: &str, synth: &FlowTrace| {
            let rpt = flow_records_per_tuple(synth);
            Arm {
                name: name.to_string(),
                mean_jsd: FlowTrace::fidelity(&real, synth).mean_jsd(),
                records_per_tuple_emd: emd_1d(&real_rpt, &rpt),
                max_records_per_tuple: rpt.iter().cloned().fold(0.0, f64::max),
            }
        };
        let arms = vec![
            arm("Real", &real),
            arm("per-epoch tabular (strawman)", &FlowTrace::from_records(tabular)),
            arm("merged time-series (NetShare)", &netshare),
        ];
        Ok(AblationReformulation { arms })
    }

    fn render(&self, _: &Stamp) -> String {
        let rows: Vec<Vec<String>> = (self.arms.iter())
            .map(|a| vec![a.name.clone(), f3(a.mean_jsd), f3(a.records_per_tuple_emd), f3(a.max_records_per_tuple)])
            .collect();
        table("Ablation — Insight 1 reformulation (UGR16)", "arm | meanJSD | rec/tuple EMD | max rec/tuple", &rows)
    }

    fn claims(&self, _: &Stamp) -> Vec<Claim> {
        let emd = |prefix: &str| {
            self.arms.iter().find(|a| a.name.starts_with(prefix)).map_or(f64::NAN, |a| a.records_per_tuple_emd)
        };
        let (ts, tab) = (emd("merged"), emd("per-epoch"));
        let text = "the merged time series has a lower records-per-tuple EMD than per-epoch tabular GANs";
        vec![Claim::new("ablation.time_series_beats_tabular", text, ts, tab, ts < tab)]
    }
}

/// One chunking variant.
#[derive(Serialize, Deserialize)]
pub struct ChunkPoint {
    variant: String,
    mean_jsd: f64,
    records_per_tuple_emd: f64,
}

/// Ablation of Insight 3 on UGR16: the chunk count M (1 = NetShare-V0 …
/// 10) against CPU cost and fidelity, and flow tags on vs off at M = 5.
#[derive(Serialize, Deserialize)]
pub struct AblationChunks {
    points: Vec<ChunkPoint>,
}

impl Experiment for AblationChunks {
    const NAME: &'static str = "ablation_chunks";
    const EXPECT: &'static [(&'static str, Expect)] = &[("ablation.cpu_falls_with_chunks", Expect::Holds)];

    fn run(run: &mut Run) -> Result<Self, Error> {
        let real: FlowTrace = run.draw(Ugr16, 42);
        let real_rpt = flow_records_per_tuple(&real);
        let variants =
            [("M=1 (V0)", 1, true), ("M=2", 2, true), ("M=5", 5, true), ("M=10", 10, true), ("M=5, no flow tags", 5, false)];
        let mut points = Vec::new();
        for (variant, m, tags) in variants {
            let mut cfg = run.scale.netshare_config(false, 300 + m as u64);
            cfg.n_chunks = m;
            cfg.use_flow_tags = tags;
            let synth = run.netshare::<FlowCodec>("UGR16", variant, &real, &cfg)?.generate(run.scale.n);
            let (mean_jsd, records_per_tuple_emd) =
                (FlowTrace::fidelity(&real, &synth).mean_jsd(), emd_1d(&real_rpt, &flow_records_per_tuple(&synth)));
            points.push(ChunkPoint { variant: variant.to_string(), mean_jsd, records_per_tuple_emd });
        }
        Ok(AblationChunks { points })
    }

    fn render(&self, stamp: &Stamp) -> String {
        let rows: Vec<Vec<String>> = (self.points.iter())
            .map(|p| {
                let cpu = stamp.cpu_cell("UGR16", &p.variant);
                vec![p.variant.clone(), cpu, f3(p.mean_jsd), f3(p.records_per_tuple_emd)]
            })
            .collect();
        table("Ablation — chunk count M and flow tags (UGR16)", "variant | cpu_s | meanJSD | rec/tuple EMD", &rows)
    }

    fn claims(&self, stamp: &Stamp) -> Vec<Claim> {
        let cpu = |v| stamp.cpu("UGR16", v).unwrap_or(f64::NAN);
        let ratio = cpu("M=1 (V0)") / cpu("M=10");
        let text = "one chunk (V0) costs more CPU than ten: cost ratio M=1 / M=10";
        vec![Claim::new("ablation.cpu_falls_with_chunks", text, ratio, 1.0, ratio > 1.0)]
    }
}

/// One model's overlap with its training values.
#[derive(Serialize, Deserialize)]
pub struct OverlapRow {
    dataset: String,
    model: String,
    src_ip: f64,
    dst_ip: f64,
    five_tuple: f64,
    /// Five-tuple overlap more than 0.15 above the holdout's.
    memorizing: bool,
}

/// §8 overfitting check — the share of synthetic src/dst IPs and
/// five-tuples found in the training trace, per model, against a holdout
/// draw of the same process; on UGR16 and CAIDA.
#[derive(Serialize, Deserialize)]
pub struct Overfitting {
    rows: Vec<OverlapRow>,
}

fn overlap_rows(dataset: &str, overlaps: Vec<(String, OverlapReport)>, holdout: OverlapReport) -> Vec<OverlapRow> {
    let row = |model: String, r: OverlapReport| OverlapRow {
        dataset: dataset.to_string(),
        model,
        src_ip: r.src_ip,
        dst_ip: r.dst_ip,
        five_tuple: r.five_tuple,
        memorizing: is_memorizing(&r, &holdout, 0.15),
    };
    let rows = overlaps.into_iter().map(|(m, r)| row(m, r));
    std::iter::once(row("Real-holdout".into(), holdout)).chain(rows).collect()
}

impl Experiment for Overfitting {
    const NAME: &'static str = "overfitting";
    const EXPECT: &'static [(&'static str, Expect)] = &[
        ("overfitting.netshare_not_memorizing", Expect::Holds),
        ("overfitting.stan_memorizes", Expect::Holds),
    ];

    fn run(run: &mut Run) -> Result<Self, Error> {
        let real: FlowTrace = run.draw(Ugr16, 42);
        let holdout = flow_overlap(&real, &run.draw(Ugr16, 1_042));
        let cfg = run.scale.netshare_config(false, 62);
        let flows = models(run, Ugr16, &real, 61, &cfg)?.into_iter().map(|(m, t)| (m, flow_overlap(&real, &t)));
        let mut rows = overlap_rows("UGR16", flows.collect(), holdout);
        let real: PacketTrace = run.draw(Caida, 43);
        let holdout = packet_overlap(&real, &run.draw(Caida, 1_043));
        let cfg = run.scale.netshare_config(false, 64);
        let packets = models(run, Caida, &real, 63, &cfg)?.into_iter().map(|(m, t)| (m, packet_overlap(&real, &t)));
        rows.extend(overlap_rows("CAIDA", packets.collect(), holdout));
        Ok(Overfitting { rows })
    }

    fn render(&self, _: &Stamp) -> String {
        let rows: Vec<Vec<String>> = (self.rows.iter())
            .map(|r| {
                let verdict = if r.memorizing { "MEMORIZING" } else { "ok" };
                let shares = [r.src_ip, r.dst_ip, r.five_tuple].map(f3);
                [r.dataset.clone(), r.model.clone()].into_iter().chain(shares).chain([verdict.into()]).collect()
            })
            .collect();
        let title = "Overfitting check (§8) — synthetic/real value-overlap ratios";
        table(title, "dataset | model | srcIP | dstIP | 5-tuple | verdict", &rows)
    }

    fn claims(&self, _: &Stamp) -> Vec<Claim> {
        let flagged = |m: &str| self.rows.iter().filter(|r| r.model == m && r.memorizing).count() as f64;
        let (ns, stan) = (flagged("NetShare"), flagged("STAN"));
        vec![
            Claim::new("overfitting.netshare_not_memorizing", "no NetShare trace is flagged: flagged", ns, 0.0, ns == 0.0),
            Claim::new("overfitting.stan_memorizes", "STAN, which resamples tuples, is flagged: flagged", stan, 1.0, stan >= 1.0),
        ]
    }
}
