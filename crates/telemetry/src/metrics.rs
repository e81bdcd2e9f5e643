//! Process-global metrics registry: counters, gauges, fixed-bucket
//! histograms, and a deterministic JSON snapshot.
//!
//! Handles are created on first use and live for the process:
//! `metrics::counter("train.gen_steps").inc()`. All mutation is atomic
//! and lock-free, but every by-name lookup takes the registry lock and
//! allocates the key, so hot paths (GEMM dispatch, GRU sequences) keep
//! their handles in `static` [`LazyCounter`] / [`LazyTimerUs`] cells:
//! one registry lock on first touch and plain atomic ops after.
//!
//! Snapshots ([`snapshot`] / [`snapshot_json`]) iterate `BTreeMap`s, so
//! output ordering is key-sorted and stable across runs and thread
//! interleavings. Given the same recorded events, these parts of a
//! snapshot come out bit-identical whatever order threads record them
//! in: counters, histogram bucket counts and `count`s, and the sums of
//! integer-valued series (the `*_bytes` ones), since f64 addition of
//! integers below 2^53 is exact. The other sums are not order-free:
//!
//! * the fractional series recorded by chunk jobs that run at the same
//!   time (`train.{d,g}_loss`, `train.grad_norm`, `dpsgd.grad_norm`) are
//!   summed by compare-exchange in arrival order, so with two workers
//!   their sums can differ in the last bits between identical runs;
//! * durations ([`ScopedTimer`]'s `*.us`, `orchestrator.job_wall_us`) are
//!   fractional microseconds, and measure the host besides.
//!
//! Gauges are last-write-wins.
//!
//! Non-finite recorded values are counted but excluded from `sum` so a
//! single NaN cannot poison a snapshot.

use crate::{clock, lock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Bucket upper edges (inclusive) for microsecond-scale durations:
/// roughly 1–2.5–10 per decade from 1 µs to 1 s.
pub const DURATION_US_EDGES: [f64; 13] = [
    1.0, 2.5, 10.0, 25.0, 100.0, 250.0, 1_000.0, 2_500.0, 10_000.0, 25_000.0, 100_000.0,
    250_000.0, 1_000_000.0,
];

/// Bucket upper edges (inclusive) for byte counts (checkpoint payloads):
/// powers of four from 256 B to 64 MiB.
pub const BYTES_EDGES: [f64; 10] = [
    256.0, 1_024.0, 4_096.0, 16_384.0, 65_536.0, 262_144.0, 1_048_576.0, 4_194_304.0,
    16_777_216.0, 67_108_864.0,
];

/// Bucket upper edges (inclusive) for gradient L2 norms.
pub const NORM_EDGES: [f64; 10] = [0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 10_000.0];

/// Bucket upper edges (inclusive) for GAN losses (signed, roughly
/// symmetric around zero).
pub const LOSS_EDGES: [f64; 11] = [
    -10.0, -5.0, -2.0, -1.0, -0.25, 0.0, 0.25, 1.0, 2.0, 5.0, 10.0,
];

/// Monotonically increasing `u64`.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins `f64` (stored as bits in an atomic).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge { bits: AtomicU64::new(0f64.to_bits()) }
    }
}

impl Gauge {
    /// Replace the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` (negative to subtract) with a CAS loop, so
    /// concurrent up/down movements (e.g. `netshared.streams.open`
    /// from many sessions) never lose updates the way a
    /// read-modify-`set` would.
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket histogram: `edges.len() + 1` buckets, where bucket
/// `i` counts values `v <= edges[i]` (first matching edge) and the
/// final bucket is the overflow. Tracks total count and the sum of
/// finite recorded values.
#[derive(Debug)]
pub struct Histogram {
    edges: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(edges: &[f64]) -> Self {
        let buckets = (0..=edges.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            edges: edges.to_vec(),
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Record one observation. NaN and infinities land in the
    /// overflow bucket and are excluded from `sum`.
    pub fn record(&self, v: f64) {
        let idx = if v.is_finite() {
            self.edges.partition_point(|e| v > *e)
        } else {
            self.edges.len()
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        if v.is_finite() {
            let mut cur = self.sum_bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + v).to_bits();
                match self.sum_bits.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(observed) => cur = observed,
                }
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of finite observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            edges: self.edges.clone(),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper edges (inclusive).
    pub edges: Vec<f64>,
    /// Per-bucket counts; one longer than `edges` (overflow last).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of finite observations.
    pub sum: f64,
}

/// Point-in-time, key-sorted copy of the whole registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Serialize as deterministic JSON: keys sorted (BTreeMap order),
    /// non-finite floats emitted as `null` so output is always valid.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        push_entries(&mut out, self.counters.iter(), |out, v| {
            out.push_str(&v.to_string());
        });
        out.push_str("},\"gauges\":{");
        push_entries(&mut out, self.gauges.iter(), |out, v| push_f64(out, *v));
        out.push_str("},\"histograms\":{");
        push_entries(&mut out, self.histograms.iter(), |out, h| {
            out.push_str("{\"edges\":[");
            for (i, e) in h.edges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_f64(out, *e);
            }
            out.push_str("],\"buckets\":[");
            for (i, b) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&b.to_string());
            }
            out.push_str("],\"count\":");
            out.push_str(&h.count.to_string());
            out.push_str(",\"sum\":");
            push_f64(out, h.sum);
            out.push('}');
        });
        out.push_str("}}");
        out
    }
}

fn push_entries<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, V)>,
    mut push_value: impl FnMut(&mut String, V),
) {
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(out, k);
        out.push(':');
        push_value(out, v);
    }
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's shortest-round-trip Display for finite f64 is valid
        // JSON except for bare exponents it never produces.
        out.push_str(&v.to_string());
    } else {
        out.push_str("null");
    }
}

/// Registry of named metrics. Usually accessed through the module
/// functions operating on the [`global`] instance; a private registry
/// is still useful in tests.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Counter handle for `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = lock(&self.counters); // lint: lock-order(telemetry.metrics_counters)
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Gauge handle for `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = lock(&self.gauges); // lint: lock-order(telemetry.metrics_gauges)
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Histogram handle for `name`. The first registration fixes the
    /// bucket edges; later calls with different edges get the
    /// existing histogram unchanged.
    pub fn histogram(&self, name: &str, edges: &[f64]) -> Arc<Histogram> {
        let mut map = lock(&self.histograms); // lint: lock-order(telemetry.metrics_histograms)
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new(edges))),
        )
    }

    /// Point-in-time, key-sorted copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let counters = lock(&self.counters); // lint: lock-order(telemetry.metrics_counters)
        let gauges = lock(&self.gauges); // lint: lock-order(telemetry.metrics_gauges)
        let histograms = lock(&self.histograms); // lint: lock-order(telemetry.metrics_histograms)
        Snapshot {
            counters: counters.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: histograms.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect(),
        }
    }

    /// Drop every registered metric. For tests. Handles held elsewhere
    /// outlive the reset: they keep recording into the detached metric,
    /// which no snapshot shows again, and the next by-name lookup
    /// registers a fresh one.
    pub fn reset(&self) {
        lock(&self.counters).clear(); // lint: lock-order(telemetry.metrics_counters)
        lock(&self.gauges).clear(); // lint: lock-order(telemetry.metrics_gauges)
        lock(&self.histograms).clear(); // lint: lock-order(telemetry.metrics_histograms)
    }
}

/// The process-global registry used by the module-level functions.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Global counter handle (`metrics::counter("gemm.calls").inc()`).
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Global gauge handle.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Global histogram handle (first registration fixes the edges).
pub fn histogram(name: &str, edges: &[f64]) -> Arc<Histogram> {
    global().histogram(name, edges)
}

/// Snapshot of the global registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Deterministic JSON snapshot of the global registry.
pub fn snapshot_json() -> String {
    snapshot().to_json()
}

/// Clear the global registry (tests only). Handles handed out before
/// the reset — every [`LazyCounter`] and [`LazyTimerUs`] that has been
/// touched included — outlive it, see [`Registry::reset`]: a process
/// that resets loses those series from its later snapshots.
pub fn reset() {
    global().reset()
}

/// RAII timer: records elapsed microseconds into its histogram on
/// drop.
#[must_use = "dropping the timer immediately records zero elapsed time"]
pub struct ScopedTimer {
    histogram: Arc<Histogram>,
    start_ns: u64,
}

/// Start a scoped duration timer for the global histogram `name`
/// (with [`DURATION_US_EDGES`] buckets).
pub fn scoped_timer_us(name: &'static str) -> ScopedTimer {
    ScopedTimer::on(histogram(name, &DURATION_US_EDGES))
}

impl ScopedTimer {
    fn on(histogram: Arc<Histogram>) -> Self {
        ScopedTimer { histogram, start_ns: clock::monotonic_nanos() }
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        let us = clock::nanos_since(self.start_ns) as f64 / 1_000.0;
        self.histogram.record(us);
    }
}

/// A global counter looked up on first use and cached for the
/// process, for call sites too hot for a by-name lookup per event:
/// `static CALLS: LazyCounter = LazyCounter::new("gemm.calls");`.
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Arc<Counter>>,
}

impl LazyCounter {
    /// A handle for the global counter `name`, resolved on first
    /// [`Self::get`].
    pub const fn new(name: &'static str) -> Self {
        LazyCounter { name, cell: OnceLock::new() }
    }

    /// The counter.
    pub fn get(&self) -> &Counter {
        self.cell.get_or_init(|| counter(self.name))
    }
}

/// The [`LazyCounter`] of duration histograms: [`scoped_timer_us`]
/// without the by-name lookup per timer.
pub struct LazyTimerUs {
    name: &'static str,
    cell: OnceLock<Arc<Histogram>>,
}

impl LazyTimerUs {
    /// A handle for the global histogram `name` (with
    /// [`DURATION_US_EDGES`] buckets), resolved on first
    /// [`Self::start`].
    pub const fn new(name: &'static str) -> Self {
        LazyTimerUs { name, cell: OnceLock::new() }
    }

    /// Start a scoped duration timer on the histogram.
    pub fn start(&self) -> ScopedTimer {
        let histogram = self
            .cell
            .get_or_init(|| histogram(self.name, &DURATION_US_EDGES));
        ScopedTimer::on(Arc::clone(histogram))
    }
}
