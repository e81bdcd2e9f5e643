//! Downstream tasks on synthetic data: traffic-type prediction (Fig. 12,
//! Table 3), sketch heavy hitters (Fig. 13) and NetML anomaly detection
//! (Fig. 14 + Table 4).

use crate::{f3, mean, models, pct, table, Claim, Error, Expect, Experiment, Run, Stamp};
use distmetrics::spearman_rank_correlation;
use mlkit::netml::{trace_features, NetmlMode};
use mlkit::taskharness::{accuracy_train_a_test_b, classifier_suite, flow_prediction_dataset};
use mlkit::OneClassSvm;
use nettrace::{FlowTrace, PacketTrace};
use serde::{Deserialize, Serialize};
use sketch::{hh_estimation_error, CountMin, CountSketch, HhKey, NitroSketch, Sketch, UnivMon};
use trace_synth::DatasetKind::{Ca, Caida, Cidds, Dc, Ton};

/// Accuracy of each classifier trained on one source, tested on real A′.
#[derive(Serialize, Deserialize)]
pub struct AccuracyRow {
    training_source: String,
    per_classifier: Vec<(String, f64)>,
}

/// Figure 12 — traffic-type prediction on TON: the five classifiers
/// trained on real data (A) or on each model's synthetic data (B), all
/// tested on the later 20 % of the real data (A′).
#[derive(Serialize, Deserialize)]
pub struct Fig12 {
    rows: Vec<AccuracyRow>,
}

fn mean_accuracy(row: &AccuracyRow) -> f64 {
    mean(row.per_classifier.iter().map(|(_, a)| *a))
}

impl Experiment for Fig12 {
    const NAME: &'static str = "fig12";
    const EXPECT: &'static [(&'static str, Expect)] = &[("fig12.netshare_beats_baselines", Expect::KnownFailing)];

    fn run(run: &mut Run) -> Result<Self, Error> {
        let real: FlowTrace = run.draw(Ton, 42);
        let (train_real, test_real) = flow_prediction_dataset(&real).split_ordered(0.8);
        let mut sources = vec![("Real".to_string(), train_real)];
        let cfg = run.scale.netshare_config(true, 6);
        for (model, synth) in models(run, Ton, &real, 31, &cfg)? {
            sources.push((model, flow_prediction_dataset(&synth).split_ordered(0.8).0));
        }
        let rows = (sources.iter())
            .map(|(name, train)| AccuracyRow {
                training_source: name.clone(),
                per_classifier: (classifier_suite().iter_mut())
                    .map(|clf| (clf.name().to_string(), accuracy_train_a_test_b(clf.as_mut(), train, &test_real)))
                    .collect(),
            })
            .collect();
        Ok(Fig12 { rows })
    }

    fn render(&self, _: &Stamp) -> String {
        let names = self.rows.first().map(|r| r.per_classifier.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>());
        let header = format!("train on | {} | mean", names.unwrap_or_default().join(" | "));
        let rows: Vec<Vec<String>> = (self.rows.iter())
            .map(|r| {
                let accs = r.per_classifier.iter().map(|(_, a)| f3(*a));
                std::iter::once(r.training_source.clone()).chain(accs).chain([f3(mean_accuracy(r))]).collect()
            })
            .collect();
        table("Fig. 12 — traffic-type prediction accuracy on TON (test on real A′)", &header, &rows)
    }

    fn claims(&self, _: &Stamp) -> Vec<Claim> {
        let of = |pred: &dyn Fn(&str) -> bool| {
            let rows = self.rows.iter().filter(|r| pred(&r.training_source));
            rows.map(mean_accuracy).fold(f64::NAN, f64::max)
        };
        let (ns, best) = (of(&|m| m == "NetShare"), of(&|m| m != "NetShare" && m != "Real"));
        let text = "training on NetShare's data gives a higher mean accuracy than any baseline's (vs the best baseline's)";
        vec![Claim::new("fig12.netshare_beats_baselines", text, ns, best, ns > best)]
    }
}

/// One model's classifier-ranking agreement with the real data.
#[derive(Serialize, Deserialize)]
pub struct RankRow {
    dataset: String,
    model: String,
    rank_correlation: Option<f64>,
}

/// Table 3 — Spearman correlation between the classifiers' accuracy
/// ranking on real data (train A / test A′) and on each model's data
/// (train B / test B′), on CIDDS and TON.
#[derive(Serialize, Deserialize)]
pub struct Tab3 {
    rows: Vec<RankRow>,
}

/// Accuracy of every classifier with train and test both from `trace`.
fn ranking_on(trace: &FlowTrace) -> Vec<f64> {
    let (train, test) = flow_prediction_dataset(trace).split_ordered(0.8);
    let mut suite = classifier_suite();
    suite.iter_mut().map(|clf| accuracy_train_a_test_b(clf.as_mut(), &train, &test)).collect()
}

fn rho(r: Option<f64>) -> String {
    r.map_or_else(|| "N/A".into(), f3)
}

impl Experiment for Tab3 {
    const NAME: &'static str = "tab3";
    const EXPECT: &'static [(&'static str, Expect)] = &[("tab3.netshare_best", Expect::KnownFailing)];

    fn run(run: &mut Run) -> Result<Self, Error> {
        let mut rows = Vec::new();
        for (kind, seed) in [(Cidds, 42u64), (Ton, 43)] {
            let real: FlowTrace = run.draw(kind, seed);
            let real_ranking = ranking_on(&real);
            let cfg = run.scale.netshare_config(true, seed ^ 0x50);
            for (model, synth) in models(run, kind, &real, seed ^ 0x40, &cfg)? {
                let rank_correlation = spearman_rank_correlation(&real_ranking, &ranking_on(&synth));
                rows.push(RankRow { dataset: kind.name().to_string(), model, rank_correlation });
            }
        }
        Ok(Tab3 { rows })
    }

    fn render(&self, _: &Stamp) -> String {
        let rows: Vec<Vec<String>> =
            self.rows.iter().map(|r| vec![r.dataset.clone(), r.model.clone(), rho(r.rank_correlation)]).collect();
        table("Table 3 — rank correlation of prediction algorithms (CIDDS, TON)", "dataset | model | spearman", &rows)
    }

    fn claims(&self, _: &Stamp) -> Vec<Claim> {
        // Per dataset: NetShare's ρ minus the best baseline's; the worst
        // dataset's margin is the claim's. A missing ρ counts as -1.
        let margin = |ds: &str| {
            let of = |pred: &dyn Fn(&str) -> bool| {
                let rows = self.rows.iter().filter(|r| r.dataset == ds && pred(&r.model));
                rows.map(|r| r.rank_correlation.unwrap_or(-1.0)).fold(f64::NAN, f64::max)
            };
            of(&|m| m == "NetShare") - of(&|m| m != "NetShare")
        };
        let worst = margin("CIDDS").min(margin("TON"));
        let text = "NetShare preserves the classifier ranking best on CIDDS and TON: smallest margin over a baseline";
        vec![Claim::new("tab3.netshare_best", text, worst, 0.0, worst >= 0.0)]
    }
}

/// One model's sketch-error agreement with the real data.
#[derive(Serialize, Deserialize)]
pub struct ErrorRow {
    dataset: String,
    model: String,
    /// |err_syn − err_real| / max(err_real, 1 %) per sketch or mode;
    /// `None` where the synthetic trace gives nothing to measure.
    relative_errors: Vec<Option<f64>>,
    rank_correlation: Option<f64>,
}

/// The relative errors and rank correlation of `syn` against `real`
/// (per-sketch or per-mode measurements, `None` = unavailable).
fn compare(dataset: &str, model: String, real: &[Option<f64>], syn: &[Option<f64>]) -> ErrorRow {
    let relative_errors = (real.iter().zip(syn))
        .map(|(r, s)| Some((s.as_ref()? - r.as_ref()?).abs() / r.as_ref()?.max(0.01)))
        .collect();
    let (a, b): (Vec<f64>, Vec<f64>) = real.iter().zip(syn).filter_map(|(r, s)| Some(((*r)?, (*s)?))).unzip();
    let rank_correlation = if a.len() >= 2 { spearman_rank_correlation(&a, &b) } else { None };
    ErrorRow { dataset: dataset.to_string(), model, relative_errors, rank_correlation }
}

fn error_table(title: &str, columns: &[&str], rows: &[ErrorRow]) -> String {
    let cells: Vec<Vec<String>> = (rows.iter())
        .map(|r| {
            let errs = r.relative_errors.iter().map(|e| e.map_or_else(|| "N/A".into(), |v| pct(v, 1)));
            [r.dataset.clone(), r.model.clone()].into_iter().chain(errs).chain([rho(r.rank_correlation)]).collect()
        })
        .collect();
    table(title, &format!("dataset | model | {} | rank", columns.join(" | ")), &cells)
}

/// Mean over a model's available relative errors, on every dataset.
fn mean_error(rows: &[ErrorRow], model: &str) -> f64 {
    mean(rows.iter().filter(|r| r.model == model).flat_map(|r| r.relative_errors.iter().flatten().copied()))
}

/// Figure 13 — heavy-hitter count estimation by four sketches at equal
/// memory (4 × 512 counters), real vs synthetic, on CAIDA (destination
/// IP), DC (source IP) and CA (five-tuple); threshold 0.1 %, 10 runs.
#[derive(Serialize, Deserialize)]
pub struct Fig13 {
    rows: Vec<ErrorRow>,
}

const SKETCHES: [&str; 4] = ["CMS", "CS", "UnivMon", "NitroSketch"];

/// Mean (over runs) heavy-hitter estimation error per sketch.
fn sketch_errors(trace: &PacketTrace, key: HhKey) -> Vec<Option<f64>> {
    (0..SKETCHES.len())
        .map(|si| {
            let errs: Vec<f64> = (0..10u64)
                .filter_map(|run| {
                    let mut zoo: Vec<Box<dyn Sketch>> = vec![
                        Box::new(CountMin::new(4, 512)),
                        Box::new(CountSketch::new(4, 512)),
                        Box::new(UnivMon::new(4, 512, 8)),
                        Box::new(NitroSketch::new(4, 512, 0.5, run)),
                    ];
                    hh_estimation_error(trace, zoo[si].as_mut(), key, 0.001)
                })
                .collect();
            Some(mean(errs)).filter(|m| !m.is_nan())
        })
        .collect()
}

impl Experiment for Fig13 {
    const NAME: &'static str = "fig13";
    const EXPECT: &'static [(&'static str, Expect)] = &[("fig13.netshare_smallest_error", Expect::Holds)];

    fn run(run: &mut Run) -> Result<Self, Error> {
        let mut rows = Vec::new();
        for (kind, key, seed) in [(Caida, HhKey::DstIp, 42u64), (Dc, HhKey::SrcIp, 43), (Ca, HhKey::FiveTuple, 44)] {
            let real: PacketTrace = run.draw(kind, seed);
            let real_errors = sketch_errors(&real, key);
            let cfg = run.scale.netshare_config(false, seed ^ 0x70);
            for (model, synth) in models(run, kind, &real, seed ^ 0x60, &cfg)? {
                rows.push(compare(kind.name(), model, &real_errors, &sketch_errors(&synth, key)));
            }
        }
        Ok(Fig13 { rows })
    }

    fn render(&self, _: &Stamp) -> String {
        error_table("Fig. 13 — heavy-hitter estimation relative error (real vs synthetic)", &SKETCHES, &self.rows)
    }

    fn claims(&self, _: &Stamp) -> Vec<Claim> {
        let ns = mean_error(&self.rows, "NetShare");
        let others = self.rows.iter().filter(|r| r.model != "NetShare").map(|r| mean_error(&self.rows, &r.model));
        let best = others.fold(f64::NAN, f64::min);
        let text = "NetShare's mean relative error over sketches and datasets is the smallest (vs the best baseline's)";
        vec![Claim::new("fig13.netshare_smallest_error", text, ns, best, ns < best)]
    }
}

/// Figure 14 + Table 4 — NetML anomaly detection: a one-class SVM per
/// mode, fitted on the first half of the real flows, scores each trace;
/// relative error of the anomaly ratio and the modes' rank correlation.
#[derive(Serialize, Deserialize)]
pub struct Fig14 {
    rows: Vec<ErrorRow>,
}

/// Anomaly ratio per NetML mode (mean of 5 seeded runs) of `target`
/// under an OCSVM fitted on the first half of `real`'s features. (Fitting
/// and scoring the same rows would pin every real ratio to ν.) `None`
/// when too few multi-packet flows exist.
fn anomaly_ratios(real: &PacketTrace, target: &PacketTrace) -> Vec<Option<f64>> {
    (NetmlMode::ALL.iter())
        .map(|&mode| {
            let mut train = trace_features(real, mode);
            let test = trace_features(target, mode);
            if train.len() < 20 || test.len() < 5 {
                return None;
            }
            train.truncate(train.len() / 2);
            let ratios = (0..5u64).map(|run| {
                let mut svm = OneClassSvm::new(0.1).with_seed(13 + run);
                svm.epochs = 20;
                svm.fit(&train);
                svm.anomaly_ratio(&test)
            });
            Some(mean(ratios))
        })
        .collect()
}

impl Experiment for Fig14 {
    const NAME: &'static str = "fig14";
    const EXPECT: &'static [(&'static str, Expect)] = &[
        ("fig14.single_packet_baselines_unevaluable", Expect::Holds),
        ("fig14.netshare_best_mode_rank", Expect::Holds),
    ];

    fn run(run: &mut Run) -> Result<Self, Error> {
        let mut rows = Vec::new();
        for (kind, seed) in [(Caida, 42u64), (Dc, 43), (Ca, 44)] {
            let real: PacketTrace = run.draw(kind, seed);
            let real_ratios = anomaly_ratios(&real, &real);
            let cfg = run.scale.netshare_config(false, seed ^ 0x90);
            for (model, synth) in models(run, kind, &real, seed ^ 0x80, &cfg)? {
                rows.push(compare(kind.name(), model, &real_ratios, &anomaly_ratios(&real, &synth)));
            }
        }
        Ok(Fig14 { rows })
    }

    fn render(&self, _: &Stamp) -> String {
        let modes: Vec<&str> = NetmlMode::ALL.iter().map(|m| m.name()).collect();
        let title = "Fig. 14 + Table 4 — NetML anomaly-ratio relative error and mode rank correlation";
        error_table(title, &modes, &self.rows)
    }

    fn claims(&self, _: &Stamp) -> Vec<Claim> {
        let evaluable = (self.rows.iter())
            .filter(|r| ["PAC-GAN", "PacketCGAN", "Flow-WGAN"].contains(&r.model.as_str()))
            .map(|r| r.relative_errors.iter().flatten().count())
            .sum::<usize>() as f64;
        let mean_rho = |pred: &dyn Fn(&str) -> bool| {
            let rows = self.rows.iter().filter(|r| pred(&r.model));
            mean(rows.filter_map(|r| r.rank_correlation))
        };
        let (ns, ctgan) = (mean_rho(&|m| m == "NetShare"), mean_rho(&|m| m == "CTGAN"));
        let text = "PAC-GAN, PacketCGAN and Flow-WGAN give no evaluable NetML mode: evaluable cells";
        let filter = Claim::new("fig14.single_packet_baselines_unevaluable", text, evaluable, 0.0, evaluable == 0.0);
        let text = "NetShare's mean mode-rank correlation (Table 4) beats CTGAN's, the only other evaluable model";
        vec![filter, Claim::new("fig14.netshare_best_mode_rank", text, ns, ctgan, ns > ctgan)]
    }
}
