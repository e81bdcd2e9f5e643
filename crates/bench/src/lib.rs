//! # bench
//!
//! The paper's evaluation as one registry of experiments. The
//! `experiments` binary runs entries into stamped `results/<name>.json`
//! files (`run [NAME…]`) and renders each entry's tables and computed
//! claims into its `<!-- experiments:NAME -->` block of EXPERIMENTS.md
//! (`report`).
//!
//! Each entry is a report type implementing `Experiment`: `run` fits
//! and measures, `render` builds the tables, `claims` checks the paper's
//! statements as predicates on the report, and `EXPECT` records whether
//! each claim holds or is known to fail, so a change that flips one in
//! either direction is visible. Scale comes from `NETSHARE_N` and
//! `NETSHARE_STEPS` alone ([`ExpScale`]).

mod checks;
mod fidelity;
mod privacy;
mod structure;
mod tasks;

use baselines::{
    ctgan::CtGanPacket, CtGan, EWganGp, FlowSynthesizer, FlowWgan, PacGan, PacketCGan,
    PacketSynthesizer, Stan,
};
use distmetrics::FidelityReport;
use netshare::{NetShare, NetShareConfig, TraceCodec};
use nettrace::{FlowTrace, PacketTrace};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use trace_synth::DatasetKind;

/// Experiment scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExpScale {
    /// Records (flow datasets) / packets (packet datasets) per trace.
    pub n: usize,
    /// Generator training steps for every GAN model.
    pub steps: usize,
}

impl ExpScale {
    /// The documented setting every committed result was produced at.
    pub const DOCUMENTED: ExpScale = ExpScale { n: 4_000, steps: 400 };

    /// Reads `NETSHARE_N` / `NETSHARE_STEPS`, defaulting each to
    /// [`ExpScale::DOCUMENTED`].
    pub fn from_env() -> Self {
        let read = |k: &str, d: usize| std::env::var(k).ok().and_then(|v| v.parse().ok()).unwrap_or(d);
        let d = ExpScale::DOCUMENTED;
        ExpScale { n: read("NETSHARE_N", d.n), steps: read("NETSHARE_STEPS", d.steps) }
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

/// An experiment failure, naming what failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// One model fit: which model, on which data, with which seed, and the
/// process CPU seconds it took.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Fit {
    /// Dataset label.
    pub dataset: String,
    /// Model label.
    pub model: String,
    /// The fit's seed.
    pub seed: u64,
    /// Process CPU seconds across the fit, every thread included.
    pub cpu_s: f64,
}

/// Where a results file came from. `commit` and every `cpu_s` are the
/// only fields that may differ when the same entry is run again.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Stamp {
    /// `git rev-parse --short HEAD` of the source tree, `+dirty` when
    /// it had changes outside `results/` and `EXPERIMENTS.md`.
    pub commit: String,
    /// Records per dataset.
    pub n: usize,
    /// GAN generator steps.
    pub steps: usize,
    /// `(dataset, seed)` of every real trace drawn.
    pub data: Vec<(String, u64)>,
    /// Every model fit, in run order.
    pub fits: Vec<Fit>,
}

impl Stamp {
    /// CPU seconds of `model`'s fit on `dataset`.
    pub fn cpu(&self, dataset: &str, model: &str) -> Option<f64> {
        let fit = self.fits.iter().find(|f| f.dataset == dataset && f.model == model);
        fit.map(|f| f.cpu_s)
    }

    /// [`Stamp::cpu`] as a table cell.
    pub fn cpu_cell(&self, dataset: &str, model: &str) -> String {
        self.cpu(dataset, model).map_or_else(|| "—".into(), f3)
    }
}

/// A run in progress: the scale, and the stamp it is recording.
pub(crate) struct Run {
    /// The scale of this run.
    pub scale: ExpScale,
    stamp: Stamp,
}

impl Run {
    fn new(scale: ExpScale) -> Self {
        let (n, steps, commit) = (scale.n, scale.steps, source_commit());
        Run { scale, stamp: Stamp { commit, n, steps, data: Vec::new(), fits: Vec::new() } }
    }

    /// Draws the real trace of `kind` at this scale, recording its seed.
    pub fn draw<T: Data>(&mut self, kind: DatasetKind, seed: u64) -> T {
        self.stamp.data.push((kind.name().to_string(), seed));
        T::draw(kind, self.scale.n, seed)
    }

    /// Runs one fit, recording its label, seed and process CPU seconds.
    pub fn time<T>(&mut self, dataset: &str, model: &str, seed: u64, fit: impl FnOnce() -> T) -> T {
        let cpu = || orchestrator::process_cpu_seconds().unwrap_or(f64::NAN);
        let before = cpu();
        let out = fit();
        let (dataset, model, cpu_s) = (dataset.to_string(), model.to_string(), cpu() - before);
        self.stamp.fits.push(Fit { dataset, model, seed, cpu_s });
        out
    }

    /// Fits NetShare on `real`, timed under `model`.
    pub fn netshare<C: TraceCodec>(
        &mut self,
        ds: &str,
        model: &str,
        real: &C::Trace,
        cfg: &NetShareConfig,
    ) -> Result<NetShare<C>, Error> {
        let fit = self.time(ds, model, cfg.seed, || NetShare::<C>::fit(real, cfg));
        fit.map_err(|e| Error(format!("{model} on {ds}: {e}")))
    }
}

/// A trace kind the experiments draw, fit and score.
pub(crate) trait Data: Sized + Clone {
    /// NetShare's codec for this kind.
    type Codec: TraceCodec<Trace = Self>;
    /// Draws `n` records of `kind`.
    fn draw(kind: DatasetKind, n: usize, seed: u64) -> Self;
    /// Fits the paper's baselines for this kind on `real` (seeds `seed`,
    /// `seed ^ 1`, …) and generates `run.scale.n` records from each.
    fn baselines(run: &mut Run, dataset: &str, real: &Self, seed: u64) -> Vec<(String, Self)>;
    /// Per-field JSD/EMD of `synth` against `real`.
    fn fidelity(real: &Self, synth: &Self) -> FidelityReport;
    /// One continuous field (`PKT`, `BYT`, `PS`, `FS`, …) as samples.
    fn column(&self, field: &str) -> Vec<f64>;
}

impl Data for FlowTrace {
    type Codec = netshare::flowcodec::FlowCodec;

    fn draw(kind: DatasetKind, n: usize, seed: u64) -> Self {
        trace_synth::generate_flows(kind, n, seed)
    }

    fn baselines(run: &mut Run, ds: &str, real: &Self, seed: u64) -> Vec<(String, Self)> {
        let steps = run.scale.steps;
        let models: Vec<Box<dyn FlowSynthesizer>> = vec![
            run.time(ds, "CTGAN", seed, || Box::new(CtGan::fit_flows(real, steps, seed))),
            run.time(ds, "STAN", seed ^ 1, || Box::new(Stan::fit_flows(real, steps, seed ^ 1))),
            run.time(ds, "E-WGAN-GP", seed ^ 2, || Box::new(EWganGp::fit_flows(real, steps, seed ^ 2))),
        ];
        let n = run.scale.n;
        models.into_iter().map(|mut m| (m.name().to_string(), m.generate_flows(n))).collect()
    }

    fn fidelity(real: &Self, synth: &Self) -> FidelityReport {
        distmetrics::fidelity_flow(real, synth)
    }

    fn column(&self, field: &str) -> Vec<f64> {
        distmetrics::fields::flow_continuous(self, field)
    }
}

impl Data for PacketTrace {
    type Codec = netshare::packetcodec::PacketCodec;

    fn draw(kind: DatasetKind, n: usize, seed: u64) -> Self {
        trace_synth::generate_packets(kind, n, seed)
    }

    fn baselines(run: &mut Run, ds: &str, real: &Self, seed: u64) -> Vec<(String, Self)> {
        let steps = run.scale.steps;
        let models: Vec<Box<dyn PacketSynthesizer>> = vec![
            run.time(ds, "CTGAN", seed, || Box::new(CtGanPacket::fit_packets(real, steps, seed))),
            run.time(ds, "PAC-GAN", seed ^ 1, || Box::new(PacGan::fit_packets(real, steps, seed ^ 1))),
            run.time(ds, "PacketCGAN", seed ^ 2, || Box::new(PacketCGan::fit_packets(real, steps, seed ^ 2))),
            run.time(ds, "Flow-WGAN", seed ^ 3, || Box::new(FlowWgan::fit_packets(real, steps, seed ^ 3))),
        ];
        let n = run.scale.n;
        models.into_iter().map(|mut m| (m.name().to_string(), m.generate_packets(n))).collect()
    }

    fn fidelity(real: &Self, synth: &Self) -> FidelityReport {
        distmetrics::fidelity_packet(real, synth)
    }

    fn column(&self, field: &str) -> Vec<f64> {
        distmetrics::fields::packet_continuous(self, field)
    }
}

/// Every baseline (seeds from `seed`), then NetShare (`cfg`), fitted on
/// `real`: each model's synthetic trace of `run.scale.n` records, in
/// plot order.
pub(crate) fn models<T: Data>(
    run: &mut Run,
    kind: DatasetKind,
    real: &T,
    seed: u64,
    cfg: &NetShareConfig,
) -> Result<Vec<(String, T)>, Error> {
    let mut out = T::baselines(run, kind.name(), real, seed);
    let mut ns = run.netshare::<T::Codec>(kind.name(), "NetShare", real, cfg)?;
    out.push(("NetShare".into(), ns.generate(run.scale.n)));
    Ok(out)
}

/// A claim's expected status, recorded in its entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The claim holds at the documented scale.
    Holds,
    /// The claim is known not to hold; the measured margin is kept.
    KnownFailing,
}

/// One of the paper's statements as a predicate on a report.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Stable identifier, the key of its expectation.
    pub id: &'static str,
    /// The statement, with its comparison.
    pub text: String,
    /// Whether it holds on this report.
    pub holds: bool,
    /// The measured side of the comparison.
    pub measured: f64,
    /// The bound it is compared against.
    pub bound: f64,
}

impl Claim {
    /// A claim whose predicate `holds` on `measured` against `bound`.
    pub fn new(id: &'static str, text: &str, measured: f64, bound: f64, holds: bool) -> Self {
        Claim { id, text: text.into(), holds, measured, bound }
    }

    /// The claim's verdict line, `✓/✗ text (measured vs bound)`.
    pub fn line(&self, expect: Option<Expect>) -> String {
        let mark = if self.holds { '✓' } else { '✗' };
        let tag = match expect {
            Some(Expect::Holds) => "",
            Some(Expect::KnownFailing) => " — known failing",
            None => " — no expectation recorded",
        };
        let (m, b) = (num(self.measured), num(self.bound));
        format!("- {mark} `{}` {} ({m} vs {b}){tag}", self.id, self.text)
    }
}

/// One experiment: its report type, how to produce it, and how to show
/// and check it.
pub(crate) trait Experiment: Serialize + Deserialize {
    /// Entry name: the results file stem and the EXPERIMENTS.md marker.
    const NAME: &'static str;
    /// The expected status of each of [`Experiment::claims`], by id.
    const EXPECT: &'static [(&'static str, Expect)];
    /// Fits, generates and measures.
    fn run(run: &mut Run) -> Result<Self, Error>;
    /// The entry's tables, as markdown.
    fn render(&self, stamp: &Stamp) -> String;
    /// The paper's statements about this entry, checked.
    fn claims(&self, stamp: &Stamp) -> Vec<Claim>;
}

/// A results file: the stamp and the report.
#[derive(Serialize, Deserialize)]
struct Saved<R> {
    stamp: Stamp,
    report: R,
}

/// An entry's rendered tables, and its claims.
pub type Shown = (String, Vec<Claim>);

/// A type-erased registry entry.
pub struct Entry {
    /// Entry name.
    pub name: &'static str,
    /// Expected claim statuses.
    pub expectations: &'static [(&'static str, Expect)],
    run: fn(ExpScale) -> Result<String, Error>,
    show: fn(&str) -> Result<Shown, serde_json::Error>,
}

fn entry<E: Experiment>() -> Entry {
    Entry {
        name: E::NAME,
        expectations: E::EXPECT,
        run: |scale| {
            let mut run = Run::new(scale);
            let report = E::run(&mut run)?;
            let saved = Saved { stamp: run.stamp, report };
            serde_json::to_string_pretty(&saved).map_err(|e| Error(e.to_string()))
        },
        show: |json| {
            let saved: Saved<E> = serde_json::from_str(json)?;
            Ok((saved.report.render(&saved.stamp), saved.report.claims(&saved.stamp)))
        },
    }
}

/// Every experiment, in EXPERIMENTS.md order.
pub fn registry() -> Vec<Entry> {
    use {checks::*, fidelity::*, privacy::*, structure::*, tasks::*};
    vec![
        entry::<Fig1>(), entry::<Fig2>(), entry::<Fig3>(), entry::<Fig4>(), entry::<Fig5>(),
        entry::<Fig10>(), entry::<Fig16_17>(), entry::<Fig12>(), entry::<Tab3>(), entry::<Fig13>(),
        entry::<Fig14>(), entry::<Fig15>(), entry::<Tab6_7>(), entry::<Tab2>(),
        entry::<AblationReformulation>(), entry::<AblationChunks>(), entry::<Overfitting>(),
    ]
}

impl Entry {
    /// The results file of this entry under `dir`.
    pub fn path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}.json", self.name))
    }

    /// Runs the entry at `scale` and writes its results file under `dir`.
    pub fn run(&self, scale: ExpScale, dir: &Path) -> Result<PathBuf, Error> {
        let (json, path) = ((self.run)(scale)?, self.path(dir));
        let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json + "\n"));
        written.map_err(|e| Error(format!("writing {}: {e}", path.display())))?;
        Ok(path)
    }

    /// Reads the entry's results file under `dir`: its rendered tables
    /// and its claims.
    pub fn load(&self, dir: &Path) -> Result<Shown, Error> {
        let path = self.path(dir);
        let fail = |e: &dyn std::fmt::Display| Error(format!("{}: {e}", path.display()));
        let json = std::fs::read_to_string(&path).map_err(|e| fail(&e))?;
        (self.show)(&json).map_err(|e| fail(&e))
    }

    /// The recorded expectation for claim `id`.
    pub fn expected(&self, id: &str) -> Option<Expect> {
        self.expectations.iter().find(|(i, _)| *i == id).map(|(_, e)| *e)
    }

    /// The entry's EXPERIMENTS.md block body: tables, then one verdict
    /// line per claim.
    pub fn block(&self, dir: &Path) -> Result<String, Error> {
        let (tables, claims) = self.load(dir)?;
        let lines: Vec<String> = claims.iter().map(|c| c.line(self.expected(c.id))).collect();
        let verdicts = if lines.is_empty() {
            "No computed claims.".to_string()
        } else {
            format!("Computed claims:\n\n{}", lines.join("\n"))
        };
        Ok(format!("{tables}{verdicts}"))
    }
}

/// `doc` with every entry's marked block rewritten from the results
/// files under `dir`. A missing marker or results file is an error.
pub fn report(doc: &str, dir: &Path) -> Result<String, Error> {
    let mut out = doc.to_string();
    for e in registry() {
        let (open, close) = (format!("<!-- experiments:{} -->", e.name), format!("<!-- /experiments:{} -->", e.name));
        let missing = || Error(format!("EXPERIMENTS.md has no `{open}` … `{close}` block"));
        let start = out.find(&open).ok_or_else(missing)? + open.len();
        let end = start + out[start..].find(&close).ok_or_else(missing)?;
        out.replace_range(start..end, &format!("\n{}\n", e.block(dir)?));
    }
    Ok(out)
}

/// The commit of the source tree this binary was built from, `+dirty`
/// when it has changes outside the files the experiments write.
fn source_commit() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let git = |args: &[&str]| {
        let out = std::process::Command::new("git").arg("-C").arg(root).args(args).output().ok();
        out.filter(|o| o.status.success()).map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let Some(head) = git(&["rev-parse", "--short", "HEAD"]) else {
        return "unknown".into();
    };
    let excluded = [".", ":(exclude)results", ":(exclude)EXPERIMENTS.md"];
    match git(&[&["status", "--porcelain", "--"][..], &excluded].concat()) {
        Some(s) if s.is_empty() => head,
        _ => format!("{head}+dirty"),
    }
}

/// A markdown table under a bold title. `header` is the `|`-separated
/// column names.
pub(crate) fn table(title: &str, header: &str, rows: &[Vec<String>]) -> String {
    let cols = header.split('|').count();
    let mut s = format!("**{title}**\n\n| {header} |\n|{}\n", "---|".repeat(cols));
    for row in rows {
        s += &format!("| {} |\n", row.join(" | "));
    }
    s + "\n"
}

/// Formats an `f64` to 3 decimals (table cells); NaN is "N/A".
pub(crate) fn f3(x: f64) -> String {
    match x {
        x if x.is_nan() => "N/A".into(),
        x if x.is_infinite() => "inf".into(),
        x => format!("{x:.3}"),
    }
}

/// Formats a percentage of a fraction to 1 or 2 decimals.
pub(crate) fn pct(x: f64, decimals: usize) -> String {
    format!("{:.*}%", decimals, x * 100.0)
}

/// A claim's number: integers as such, large or tiny magnitudes in
/// scientific notation, the rest to 3 decimals.
pub(crate) fn num(x: f64) -> String {
    if x.is_finite() && x.fract() == 0.0 && x.abs() < 1e6 {
        format!("{x:.0}")
    } else if x.is_finite() && x != 0.0 && (x.abs() >= 1e4 || x.abs() < 1e-3) {
        format!("{x:.2e}")
    } else {
        f3(x)
    }
}

/// Mean of `xs`; NaN for none.
pub(crate) fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs.into_iter().fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documented_scale_is_the_default() {
        let s = ExpScale::DOCUMENTED;
        assert_eq!((s.n, s.steps), (4_000, 400));
        let cfg = s.netshare_config(true, 1);
        assert!(cfg.with_labels);
        assert_eq!(cfg.seed_steps, 400);
    }

    #[test]
    fn registry_names_are_unique() {
        let names: std::collections::BTreeSet<&str> = registry().iter().map(|e| e.name).collect();
        assert_eq!(names.len(), registry().len());
    }

    #[test]
    fn claim_lines_carry_mark_margin_and_expectation() {
        let c = Claim::new("x", "m ≥ b", 2.0, 4.0, false);
        assert_eq!(c.line(Some(Expect::KnownFailing)), "- ✗ `x` m ≥ b (2 vs 4) — known failing");
        let c = Claim::new("y", "t", 0.25, 0.5, true);
        assert_eq!(c.line(Some(Expect::Holds)), "- ✓ `y` t (0.250 vs 0.500)");
        assert_eq!(num(2.9e3), "2900");
        assert_eq!(num(2.4e6 + 0.5), "2.40e6");
    }

    #[test]
    fn a_timed_fit_is_recorded_in_the_stamp() {
        let mut run = Run::new(ExpScale { n: 10, steps: 1 });
        let v = run.time("D", "M", 7, || (0..100_000u64).sum::<u64>());
        assert_eq!(v, 4_999_950_000);
        assert_eq!(run.stamp.fits.len(), 1);
        assert_eq!(run.stamp.fits[0].seed, 7);
        assert!(run.stamp.cpu("D", "M").is_some_and(|s| s >= 0.0));
    }

    #[test]
    fn report_fails_naming_a_missing_block() {
        let dir = Path::new("results-that-do-not-exist");
        let err = report("no markers here", dir).unwrap_err();
        assert!(err.0.contains("experiments:fig1"), "{err}");
    }
}
