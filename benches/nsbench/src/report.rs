//! The metric schema (names, units, directions, bounds), the result a
//! run produces, its JSON forms, and `nsbench agree`.

use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees. Every workload
/// reports every one of them; `README.md` says what each measures on
/// each workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference value by which the metric may get worse.
    pub bound: f64,
    /// `agree` treats values below this as equal to it, so a reading a
    /// few clock ticks long cannot fail a relative bound.
    pub floor: f64,
}

/// A metric of one layer (layer = crate), measured in the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        floor: 0.05,
    },
    EndToEnd {
        name: "rate_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "op_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        floor: 1.0,
    },
    EndToEnd {
        name: "first_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        floor: 1.0,
    },
    EndToEnd {
        name: "resume_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        floor: 1.0,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
        floor: 0.0,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 66] = [
    layer("nnet.gemm_step_ns", "ns", Lower),
    layer("nnet.gemm_step_best_ns", "ns", Lower),
    layer("nnet.dispatch_loss_ratio", "ratio", Lower),
    layer("nnet.gru_step_ns", "ns", Lower),
    layer("nnet.gemm_tn_ns", "ns", Lower),
    layer("nnet.gemm_nt_ns", "ns", Lower),
    layer("doppelganger.train_step_ms", "ms", Lower),
    layer("doppelganger.sample_fast_flows_per_s", "flows/s", Higher),
    layer("doppelganger.sample_train_flows_per_s", "flows/s", Higher),
    layer("doppelganger.fast_over_train_ratio", "ratio", Higher),
    layer("doppelganger.next_batch_ms", "ms", Lower),
    layer("doppelganger.bundle_load_ms", "ms", Lower),
    layer("doppelganger.rebuild_ms", "ms", Lower),
    layer("doppelganger.first_batch_ms", "ms", Lower),
    layer("netshared.encode_flows_per_s", "flows/s", Higher),
    layer("netshared.decode_flows_per_s", "flows/s", Higher),
    layer("netshared.wire_bytes_per_flow", "B/flow", Lower),
    layer("netshared.flows_per_frame", "flows", Higher),
    layer("netshared.serve_efficiency", "ratio", Higher),
    layer("netshared.client_decode_share", "ratio", Lower),
    layer("netshared.client_socket_wait_share", "ratio", Lower),
    layer("netshared.frame_gap_ms_p50", "ms", Lower),
    layer("netshared.frame_gap_ms_p95", "ms", Lower),
    layer("netshared.credit_stall_ratio", "ratio", Lower),
    layer("netshared.push_stall_ratio", "ratio", Lower),
    layer("netshared.stream_max_buffered_bytes", "B", Lower),
    layer("netshared.credit1_over_credit16", "ratio", Higher),
    layer("netshared.flows_per_s_2streams", "flows/s", Higher),
    layer("netshared.scaling_2streams", "ratio", Higher),
    layer("netshared.connect_hello_ms", "ms", Lower),
    layer("netshared.subscribe_first_data_ms", "ms", Lower),
    layer("netshared.ttff_ms_p95", "ms", Lower),
    layer("netshared.pull_ms_p95", "ms", Lower),
    layer("netshared.resume_ms_per_skipped_frame", "ms", Lower),
    layer("orchestrator.wire_roundtrip_us", "us", Lower),
    layer("orchestrator.wire_stream_mb_per_s", "MB/s", Higher),
    layer("orchestrator.store_put_ms", "ms", Lower),
    layer("orchestrator.store_dedup_put_ms", "ms", Lower),
    layer("orchestrator.store_get_ms", "ms", Lower),
    layer("orchestrator.journal_append_ms", "ms", Lower),
    layer("orchestrator.manifest_store_ms", "ms", Lower),
    layer("orchestrator.worker_busy_share", "ratio", Higher),
    layer("orchestrator.coord_resume_ms_per_job", "ms", Lower),
    layer("orchestrator.pool_ms_per_job", "ms", Lower),
    layer("netshare.train_share", "ratio", Higher),
    layer("netshare.pool_parallel_efficiency", "ratio", Higher),
    layer("netshare.codec_fit_ms", "ms", Lower),
    layer("netshare.encode_group_us", "us", Lower),
    layer("netshare.decode_sample_us", "us", Lower),
    layer("fieldcodec.ip2vec_nearest_us", "us", Lower),
    layer("telemetry.span_ns", "ns", Lower),
    layer("telemetry.counter_inc_ns", "ns", Lower),
    layer("host.calib_ns", "ns", Lower),
    layer("host.cpu_s_per_kflow", "s", Lower),
    layer("host.sys_share", "ratio", Lower),
    layer("host.nproc", "count", Higher),
    layer("host.rayon_threads", "count", Higher),
    layer("trace.share.generate", "ratio", Lower),
    layer("trace.share.encode", "ratio", Lower),
    layer("trace.share.socket", "ratio", Lower),
    layer("trace.share.decode", "ratio", Lower),
    layer("trace.share.other", "ratio", Lower),
    layer("trace.share.gru", "ratio", Lower),
    layer("trace.share.gemm", "ratio", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_ratio", "ratio", Higher),
];

/// What one run of one workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: pulls, resumed subscriptions, fits,
    /// generations, plan runs, and the invariants checked beside them.
    pub ops: u64,
    /// Operations that errored or failed their correctness check.
    pub failed: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// Timing samples by metric name; the metric's value is their
    /// quartile on the good side ([`stats::good_quartile`]).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Metrics that are one number (a count, a ratio, a peak).
    pub values: BTreeMap<&'static str, f64>,
    /// Readings that help read the report but are no metric of the schema.
    pub notes: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one operation; `Err` marks it failed.
    pub fn op(&mut self, what: &str, result: Result<(), String>) {
        self.ops += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.failures.push(format!("{what}: {e}"));
        }
    }

    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    pub fn note(&mut self, name: &'static str, v: f64) {
        self.notes.insert(name, v);
    }

    /// The value of metric `name`: the scalar if one was set, else the
    /// good-side quartile of its samples, else 0 (nothing on this
    /// workload drives it).
    pub fn value(&self, name: &str) -> f64 {
        let lower_is_better = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .is_none_or(|m| m.better == Better::Lower);
        match (self.values.get(name), self.samples.get(name)) {
            (Some(v), _) => *v,
            (None, Some(s)) => stats::good_quartile(s, lower_is_better),
            (None, None) => 0.0,
        }
    }

    /// The schema's metrics for this kind of run, as `(name, unit)`.
    fn schema(trace: bool) -> Vec<(&'static str, &'static str)> {
        if trace {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    /// A run is correct when it attempted something, nothing failed, and
    /// every number it reports is finite.
    pub fn correct(&self, trace: bool) -> bool {
        self.ops > 0
            && self.failed == 0
            && Outcome::schema(trace)
                .iter()
                .all(|(n, _)| self.value(n).is_finite())
    }

    /// The one-line result: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the last holding every metric of the run's kind.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = Outcome::schema(trace).into_iter().map(|(name, unit)| {
            (
                name,
                Json::obj([
                    ("value", Json::Num(self.value(name))),
                    ("unit", Json::str(unit)),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct(trace))),
            ("attempted", Json::Num(self.ops.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// The full record of the run: every metric with its quartiles,
    /// spread, sample count and tail, plus notes and failures.
    pub fn detail(&self, trace: bool) -> Json {
        let metrics = Outcome::schema(trace).into_iter().map(|(name, unit)| {
            let mut m = vec![
                ("value", Json::Num(self.value(name))),
                ("unit", Json::str(unit)),
            ];
            if let Some(s) = self.samples.get(name).filter(|s| !s.is_empty()) {
                let (q1, q3) = stats::quartiles(s);
                let (tail_pct, tail) = stats::tail(s);
                m.extend([
                    ("n", Json::Num(s.len() as f64)),
                    ("median", Json::Num(stats::median(s))),
                    (
                        "min",
                        Json::Num(s.iter().copied().fold(f64::INFINITY, f64::min)),
                    ),
                    (
                        "max",
                        Json::Num(s.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
                    ),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("spread", Json::Num(stats::spread(s))),
                    ("tail_pct", Json::Num(tail_pct)),
                    ("tail", Json::Num(tail)),
                ]);
            }
            (name, Json::obj(m))
        });
        Json::obj([
            ("ops", Json::Num(self.ops as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("metrics", Json::obj(metrics)),
            (
                "notes",
                Json::obj(self.notes.iter().map(|(k, v)| (*k, Json::Num(*v)))),
            ),
        ])
    }

    /// A table of the run for people, one metric per line.
    pub fn table(&self, trace: bool) -> String {
        let mut out = String::new();
        for (name, unit) in Outcome::schema(trace) {
            let v = self.value(name);
            out.push_str(&format!("  {name:<42} {v:>16.4} {unit:<8}"));
            if let Some(s) = self.samples.get(name).filter(|s| s.len() > 1) {
                let (q1, q3) = stats::quartiles(s);
                let (p, t) = stats::tail(s);
                let m = stats::median(s);
                out.push_str(&format!(
                    " n={} median={m:.4} q1={q1:.4} q3={q3:.4} p{p}={t:.4}",
                    s.len()
                ));
            }
            out.push('\n');
        }
        for (k, v) in &self.notes {
            out.push_str(&format!("  ({k:<40}) {v:>16.4}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("  FAILED {f}\n"));
        }
        out
    }
}

/// Checks a suite report against the schema rules. Returns every
/// violation found.
pub fn schema_errors(report: &Json) -> Vec<String> {
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    let mut errs = Vec::new();
    let workloads = report
        .get("workloads")
        .map(Json::members)
        .unwrap_or_default();
    if workloads.is_empty() {
        errs.push("report has no workloads".to_string());
    }
    for (wname, w) in workloads {
        if !name_ok(wname) {
            errs.push(format!(
                "workload name {wname:?} is outside [A-Za-z0-9_.-]+"
            ));
        }
        for key in ["ops", "failed"] {
            if w.get(key).and_then(Json::as_f64).is_none() {
                errs.push(format!("{wname}: missing `{key}`"));
            }
        }
        let e2e = w.get("end_to_end").map(Json::members).unwrap_or_default();
        let layers = w.get("per_layer").map(Json::members).unwrap_or_default();
        if !e2e.iter().any(|(n, _)| n == "setup_s") {
            errs.push(format!("{wname}: missing `setup_s`"));
        }
        if e2e.len() > 16 {
            errs.push(format!(
                "{wname}: {} end-to-end metrics, at most 16",
                e2e.len()
            ));
        }
        if layers.len() > 128 {
            errs.push(format!(
                "{wname}: {} per-layer metrics, at most 128",
                layers.len()
            ));
        }
        for (n, m) in e2e.iter().chain(layers) {
            if !name_ok(n) {
                errs.push(format!(
                    "{wname}: metric name {n:?} is outside [A-Za-z0-9_.-]+"
                ));
            }
            if m.get("value").and_then(Json::as_f64).is_none() || m.get("unit").is_none() {
                errs.push(format!("{wname}: metric {n} lacks a value or a unit"));
            }
        }
    }
    errs
}

/// `nsbench agree`: compares two suite reports of the same code. Every
/// end-to-end metric of every workload must differ by no more than its
/// bound, taken relative to the smaller reading (or the metric's floor,
/// when the readings are smaller still). Returns one line per metric
/// outside its bound.
pub fn disagreements(a: &Json, b: &Json) -> Vec<String> {
    let mut out = Vec::new();
    let workloads = a.get("workloads").map(Json::members).unwrap_or_default();
    for (wname, wa) in workloads {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(wname)) else {
            out.push(format!("{wname}: absent from the second report"));
            continue;
        };
        for m in &END_TO_END {
            let read = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(|e| e.get("value"))
                    .and_then(Json::as_f64)
            };
            let (Some(va), Some(vb)) = (read(wa), read(wb)) else {
                out.push(format!("{wname}.{}: missing from a report", m.name));
                continue;
            };
            let base = va.min(vb).max(m.floor);
            let diff = (va - vb).abs();
            if diff > m.bound * base {
                out.push(format!(
                    "{wname}.{}: {va:.4} vs {vb:.4} {} differ by {:.1} % of {base:.4}, bound {:.0} %",
                    m.name,
                    m.unit,
                    100.0 * diff / base,
                    100.0 * m.bound
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(v: f64, unit: &str) -> Json {
        Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))])
    }

    fn report(rate: f64, setup: f64) -> Json {
        let e2e = END_TO_END.iter().map(|m| {
            let v = match m.name {
                "rate_per_s" => rate,
                "setup_s" => setup,
                _ => 10.0,
            };
            (m.name, metric(v, m.unit))
        });
        let w = Json::obj([
            ("ops", Json::Num(5.0)),
            ("failed", Json::Num(0.0)),
            ("end_to_end", Json::obj(e2e)),
            (
                "per_layer",
                Json::obj([("nnet.gru_step_ns", metric(1.0, "ns"))]),
            ),
        ]);
        Json::obj([("workloads", Json::obj([("serve_bulk", w)]))])
    }

    #[test]
    fn schema_tables_obey_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(name_ok(n), "{n}");
            assert!(unit_ok(u), "{n}: {u}");
            assert!(seen.insert(n), "{n} used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            _ => panic!("BENCHMARK.json lacks {key}"),
        };
        let field = |m: &Json, k: &str| match m.get(k) {
            Some(Json::Str(s)) => s.clone(),
            _ => panic!("metric lacks {k}"),
        };
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
        }
        let names: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        let want: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, want);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.op("pull", Ok(()));
        o.sample("rate_per_s", 4000.0);
        o.sample("rate_per_s", 4100.0);
        o.set("peak_rss_mb", 31.5);
        let line = Json::parse(&o.result_line(false)).unwrap();
        let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap();
        assert_eq!(metrics.members().len(), END_TO_END.len());
        assert_eq!(
            metrics
                .get("rate_per_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(4100.0)
        );
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            Json::parse(&o.result_line(true))
                .unwrap()
                .get("metrics")
                .unwrap()
                .members()
                .len(),
            PER_LAYER.len()
        );

        o.op("check", Err("mismatch".into()));
        let line = Json::parse(&o.result_line(false)).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn schema_rules_catch_missing_and_misnamed_fields() {
        assert!(schema_errors(&report(4000.0, 1.0)).is_empty());

        let bad = Json::obj([(
            "workloads",
            Json::obj([(
                "bad name",
                Json::obj([("end_to_end", Json::obj([("x y", metric(1.0, "s"))]))]),
            )]),
        )]);
        let errs = schema_errors(&bad).join("\n");
        for needle in [
            "workload name",
            "missing `ops`",
            "missing `failed`",
            "missing `setup_s`",
            "metric name",
        ] {
            assert!(errs.contains(needle), "{needle} not in:\n{errs}");
        }

        let many = (0..129).map(|i| (format!("m{i}"), metric(1.0, "s")));
        let crowded = Json::obj([(
            "workloads",
            Json::obj([(
                "w",
                Json::obj([
                    ("ops", Json::Num(1.0)),
                    ("failed", Json::Num(0.0)),
                    ("end_to_end", Json::obj([("setup_s", metric(1.0, "s"))])),
                    ("per_layer", Json::obj(many)),
                ]),
            )]),
        )]);
        assert!(schema_errors(&crowded).join("\n").contains("at most 128"));
    }

    #[test]
    fn agree_applies_relative_bounds_and_floors() {
        // rate bound is 25 % of the smaller reading.
        assert!(disagreements(&report(4000.0, 1.0), &report(4990.0, 1.0)).is_empty());
        let out = disagreements(&report(4000.0, 1.0), &report(5010.0, 1.0));
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].starts_with("serve_bulk.rate_per_s"), "{out:?}");
        // setup_s: 25 % of max(min, 50 ms floor): 10 ms vs 20 ms passes
        // under the floor, 1.0 s vs 1.3 s does not.
        assert!(disagreements(&report(4000.0, 0.010), &report(4000.0, 0.020)).is_empty());
        assert_eq!(
            disagreements(&report(4000.0, 1.0), &report(4000.0, 1.3)).len(),
            1
        );
    }
}
