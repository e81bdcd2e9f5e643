//! Rule catalogue, severities, and file classification.

use std::collections::BTreeMap;
use std::path::Path;

/// The thirteen shipped rules: ten per-file token scans plus three
/// workspace-graph passes (see [`RuleId::GRAPH`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `HashMap`/`HashSet` in determinism-critical crates: unordered
    /// iteration feeding training or serialization breaks bitwise seed
    /// determinism. Use `BTreeMap`/`BTreeSet` or an explicit sort.
    NondeterministicIteration,
    /// Ambient entropy/clocks (`thread_rng`, `rand::random`,
    /// `SystemTime::now`, `Instant::now`) outside `orchestrator::timing`
    /// and benches.
    AmbientEntropy,
    /// Files tagged `lint: dp-post-noise` must not touch per-example
    /// gradient accessors — only DP-SGD's sanitize boundary may.
    DpBoundary,
    /// `==`/`!=` against float literals in metrics/training code.
    FloatEq,
    /// `unsafe` without a preceding `// SAFETY:` comment.
    UndocumentedUnsafe,
    /// `unwrap`/`expect`/`panic!` in library code (tests/bins exempt).
    PanicInLib,
    /// Raw `telemetry::clock::monotonic_nanos` reads outside the
    /// sanctioned timing shims — product code takes timestamps via
    /// `orchestrator::timing::Stopwatch` or telemetry's span/timer
    /// guards so every duration is anchored to one process epoch.
    TelemetryClock,
    /// Uninterruptible blocking (`std::thread::sleep`, `Condvar::wait`
    /// with no timeout) in library code: a worker stuck in one cannot be
    /// cancelled by the watchdog or woken by a failing run. Use
    /// `CancelToken::wait_timeout` / `Condvar::wait_timeout`.
    UnboundedWait,
    /// Fresh heap allocation (`Vec::new`, `vec![]`, `Tensor::zeros`)
    /// inside a loop tagged `lint: step-loop` — the per-timestep hot
    /// loops of training and sampling. Allocating there costs a malloc
    /// per timestep per batch; hoist the buffer before the loop or take
    /// it from a preallocated `nnet::infer::Arena`.
    AllocInStepLoop,
    /// Raw socket accept/read calls (`.accept(`, `.read_exact(`) in
    /// files not tagged with the `lint: io-boundary` marker. Socket I/O
    /// belongs in `netshared`'s sanctioned modules, whose read/write
    /// loops poll the session `CancelToken` and resume across timeouts;
    /// an untagged accept or `read_exact` loop blocks uninterruptibly
    /// and is invisible to drain/eviction.
    BlockingAcceptLoop,
    /// Workspace-graph pass: cycles in the lock-acquisition order graph
    /// (module A takes `a` then `b`, module B takes `b` then `a`),
    /// recursive re-acquisition of a lock already held, inversions
    /// against the canonical rank list, and guards held across blocking
    /// calls (`wait`, `recv`, `accept`, `read_exact`, `push_blocking`).
    /// Cross-module lock identity comes from `lint: lock-order(<name>)`
    /// annotations on acquisition sites.
    LockOrder,
    /// Workspace-graph pass: a module whose functions transitively reach
    /// a restricted capability (entropy, clock, raw socket I/O) through
    /// calls into unsanctioned helpers — the tag-at-the-leaf blindspot
    /// of `ambient-entropy`/`telemetry-clock`/`blocking-accept-loop`.
    /// Modules declare intentional capabilities with `lint: caps(...)`.
    CapabilityGraph,
    /// Workspace-graph pass: intraprocedural taint from per-example
    /// gradient accessors (`flat_gradients`, `gradients_mut`) to
    /// serialization/event/metric sinks, cleared only by the sanctioned
    /// noise path — `dp-post-noise` as a checked flow property.
    DpTaintFlow,
}

impl RuleId {
    /// Every rule, in catalogue order.
    pub const ALL: [RuleId; 13] = [
        RuleId::NondeterministicIteration,
        RuleId::AmbientEntropy,
        RuleId::DpBoundary,
        RuleId::FloatEq,
        RuleId::UndocumentedUnsafe,
        RuleId::PanicInLib,
        RuleId::TelemetryClock,
        RuleId::UnboundedWait,
        RuleId::AllocInStepLoop,
        RuleId::BlockingAcceptLoop,
        RuleId::LockOrder,
        RuleId::CapabilityGraph,
        RuleId::DpTaintFlow,
    ];

    /// The graph passes — only run under `--workspace-graph`.
    pub const GRAPH: [RuleId; 3] = [
        RuleId::LockOrder,
        RuleId::CapabilityGraph,
        RuleId::DpTaintFlow,
    ];

    /// The kebab-case name used in diagnostics, waivers, and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::NondeterministicIteration => "nondeterministic-iteration",
            RuleId::AmbientEntropy => "ambient-entropy",
            RuleId::DpBoundary => "dp-boundary",
            RuleId::FloatEq => "float-eq",
            RuleId::UndocumentedUnsafe => "undocumented-unsafe",
            RuleId::PanicInLib => "panic-in-lib",
            RuleId::TelemetryClock => "telemetry-clock",
            RuleId::UnboundedWait => "unbounded-wait",
            RuleId::AllocInStepLoop => "alloc-in-step-loop",
            RuleId::BlockingAcceptLoop => "blocking-accept-loop",
            RuleId::LockOrder => "lock-order",
            RuleId::CapabilityGraph => "capability-graph",
            RuleId::DpTaintFlow => "dp-taint-flow",
        }
    }

    /// Parses a rule name as written in waivers/CLI flags.
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.name() == s.trim())
    }

    /// One-line description for `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::NondeterministicIteration => {
                "HashMap/HashSet in determinism-critical crates (use BTreeMap/BTreeSet or sort)"
            }
            RuleId::AmbientEntropy => {
                "thread_rng/rand::random/SystemTime::now/Instant::now outside orchestrator::timing and benches"
            }
            RuleId::DpBoundary => {
                "per-example gradient accessors in files tagged `lint: dp-post-noise`"
            }
            RuleId::FloatEq => "== / != against float literals in metrics/training code",
            RuleId::UndocumentedUnsafe => "`unsafe` without a preceding `// SAFETY:` comment",
            RuleId::PanicInLib => "unwrap/expect/panic! in library code (tests/bins exempt)",
            RuleId::TelemetryClock => {
                "raw telemetry::clock::monotonic_nanos reads outside orchestrator::timing and telemetry's own guards"
            }
            RuleId::UnboundedWait => {
                "thread::sleep / timeout-less Condvar::wait in library code (use CancelToken::wait_timeout)"
            }
            RuleId::AllocInStepLoop => {
                "Vec::new / vec![] / Tensor::zeros inside a `lint: step-loop`-tagged hot loop (hoist or use nnet::infer::Arena)"
            }
            RuleId::BlockingAcceptLoop => {
                "raw .accept( / .read_exact( outside `lint: io-boundary`-tagged modules (use netshared::protocol's interruptible I/O)"
            }
            RuleId::LockOrder => {
                "[workspace-graph] lock-order cycles, rank inversions, re-entrant acquisition, and guards held across blocking calls"
            }
            RuleId::CapabilityGraph => {
                "[workspace-graph] untagged module transitively reaching entropy/clock/socket capabilities through calls (declare with `lint: caps(...)`)"
            }
            RuleId::DpTaintFlow => {
                "[workspace-graph] per-example gradient data flowing to an event/metric/serialization sink before the sanctioned noise path clears it"
            }
        }
    }
}

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Rule disabled.
    Allow,
    /// Reported but does not affect the exit code.
    Warn,
    /// Reported and fails the run.
    Deny,
}

impl Severity {
    /// Name as printed and accepted on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// What kind of target a file belongs to. Derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Library code — the full rule set applies.
    Lib,
    /// Binary target (`src/bin/`, `src/main.rs`).
    Bin,
    /// Integration or unit test file (`tests/`).
    Test,
    /// Benchmark (`benches/`).
    Bench,
    /// Example (`examples/`).
    Example,
    /// `build.rs`.
    Build,
}

/// Per-file lint context.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Crate directory name (`core`, `nnet`, `rand` for shims, …).
    pub crate_name: String,
    /// Target role.
    pub role: Role,
    /// True for `shims/*` — vendored stand-ins for external crates, exempt
    /// from product-code rules (but not from unsafe hygiene).
    pub is_shim: bool,
}

/// The lint configuration. Programmatic with CLI overrides; defaults
/// encode this workspace's invariants.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crate dir names where `HashMap`/`HashSet` are banned.
    pub determinism_crates: Vec<String>,
    /// Crate dir names where float `==`/`!=` is checked.
    pub float_eq_crates: Vec<String>,
    /// Path prefixes (workspace-relative) exempt from `ambient-entropy`.
    pub entropy_whitelist: Vec<String>,
    /// Path prefixes (workspace-relative) allowed to call
    /// `telemetry::clock::monotonic_nanos` directly.
    pub clock_whitelist: Vec<String>,
    /// Path prefixes (workspace-relative) exempt from `unbounded-wait`
    /// (vendored shims implement the blocking primitives themselves).
    pub wait_whitelist: Vec<String>,
    /// Identifiers banned in `dp-post-noise`-tagged files.
    pub dp_banned: Vec<String>,
    /// Marker that tags a file as a post-noise consumer.
    pub dp_marker: String,
    /// Marker that tags a file as a sanctioned socket I/O boundary
    /// (exempting it from `blocking-accept-loop`). Must open the
    /// comment, so prose merely mentioning the marker does not tag.
    pub io_marker: String,
    /// Path prefixes skipped entirely (intentionally-violating fixtures).
    pub exempt_paths: Vec<String>,
    /// Per-rule severity.
    pub severities: BTreeMap<RuleId, Severity>,

    // ---- workspace-graph pass configuration ----
    /// Canonical lock rank order, most-outer first. An acquisition edge
    /// from a later-ranked lock to an earlier-ranked one is an inversion
    /// even when the reverse edge has not (yet) been observed. Names are
    /// the `lint: lock-order(<name>)` annotation names.
    pub lock_ranks: Vec<String>,
    /// Method names that block uninterruptibly; a live lock guard in
    /// scope at such a call is denied. (`wait_timeout` is deliberately
    /// absent: bounded condvar waits atomically release their guard.)
    pub blocking_calls: Vec<String>,
    /// Free functions that acquire a lock passed as their first
    /// argument (project-local guard helpers like orchestrator's
    /// `lock(&shared.state, "...")`).
    pub lock_helper_fns: Vec<String>,
    /// Capabilities (by name) that deny when reached transitively by an
    /// unsanctioned module; the rest are manifest-only.
    pub deny_caps: Vec<String>,
    /// Marker declaring a module's intentional capabilities, e.g.
    /// `lint: caps(net, clock)`. Must open the comment.
    pub caps_marker: String,
    /// Crate dir names whose `Lib` files run the DP taint pass.
    pub taint_crates: Vec<String>,
    /// Identifiers whose call result is per-example gradient data.
    pub taint_sources: Vec<String>,
    /// Method/function names that externalize data (events, metrics,
    /// serialization, wire frames).
    pub taint_sinks: Vec<String>,
    /// Identifiers of the sanctioned noise path; an assignment whose
    /// right-hand side calls one clears taint from its target.
    pub taint_sanitizers: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        let mut severities = BTreeMap::new();
        for r in RuleId::ALL {
            severities.insert(r, Severity::Deny);
        }
        Config {
            determinism_crates: [
                "nnet",
                "doppelganger",
                "core",
                "orchestrator",
                "fieldcodec",
                "nettrace",
                "sketch",
                "telemetry",
            ]
            .map(String::from)
            .to_vec(),
            float_eq_crates: [
                "nnet",
                "doppelganger",
                "core",
                "distmetrics",
                "mlkit",
                "baselines",
                "privacy",
                "telemetry",
            ]
            .map(String::from)
            .to_vec(),
            entropy_whitelist: [
                "crates/orchestrator/src/timing.rs",
                "crates/telemetry/src/clock.rs",
                "crates/bench/",
                "shims/",
            ]
            .map(String::from)
            .to_vec(),
            clock_whitelist: [
                "crates/telemetry/src/",
                "crates/orchestrator/src/timing.rs",
                "shims/",
            ]
            .map(String::from)
            .to_vec(),
            wait_whitelist: ["shims/"].map(String::from).to_vec(),
            dp_banned: ["flat_gradients", "set_flat_gradients", "gradients_mut"]
                .map(String::from)
                .to_vec(),
            dp_marker: "lint: dp-post-noise".to_string(),
            io_marker: "lint: io-boundary".to_string(),
            exempt_paths: ["crates/analyzer/tests/fixtures/"].map(String::from).to_vec(),
            severities,
            lock_ranks: [
                "orchestrator.machine",
                "orchestrator.watchdog_watches",
                "orchestrator.cancel_state",
                "orchestrator.event_sinks",
                "orchestrator.event_memory",
                "orchestrator.manifest",
                "orchestrator.journal",
                "orchestrator.fault",
                "netshared.session_registry",
                "netshared.stream_state",
                "netshared.socket_writer",
                "telemetry.metrics_counters",
                "telemetry.metrics_gauges",
                "telemetry.metrics_histograms",
            ]
            .map(String::from)
            .to_vec(),
            blocking_calls: ["wait", "recv", "accept", "read_exact", "push_blocking"]
                .map(String::from)
                .to_vec(),
            lock_helper_fns: ["lock"].map(String::from).to_vec(),
            deny_caps: ["entropy", "clock", "net"].map(String::from).to_vec(),
            caps_marker: "lint: caps(".to_string(),
            taint_crates: ["nnet", "doppelganger", "core"].map(String::from).to_vec(),
            taint_sources: ["flat_gradients", "gradients_mut"].map(String::from).to_vec(),
            taint_sinks: [
                "emit",
                "record",
                "serialize",
                "to_string",
                "write_frame",
                "write_all",
            ]
            .map(String::from)
            .to_vec(),
            taint_sanitizers: ["sample", "add_noise", "sanitize_batch"]
                .map(String::from)
                .to_vec(),
        }
    }
}

impl Config {
    /// Effective severity of a rule.
    pub fn severity(&self, rule: RuleId) -> Severity {
        self.severities.get(&rule).copied().unwrap_or(Severity::Deny)
    }

    /// True when `rel_path` is under a fully-exempt prefix.
    pub fn is_exempt(&self, rel_path: &str) -> bool {
        self.exempt_paths.iter().any(|p| rel_path.starts_with(p))
    }
}

/// Classifies a workspace-relative path into its crate and role.
pub fn classify(rel_path: &str) -> FileMeta {
    let norm = rel_path.replace('\\', "/");
    let parts: Vec<&str> = norm.split('/').collect();
    let (crate_name, is_shim) = match parts.as_slice() {
        ["crates", name, ..] => ((*name).to_string(), false),
        ["shims", name, ..] => ((*name).to_string(), true),
        _ => ("netshare-suite".to_string(), false),
    };
    let file = parts.last().copied().unwrap_or("");
    let role = if file == "build.rs" {
        Role::Build
    } else if parts.contains(&"benches") {
        Role::Bench
    } else if parts.contains(&"examples") {
        Role::Example
    } else if parts.contains(&"tests") {
        Role::Test
    } else if parts.contains(&"bin") || file == "main.rs" {
        Role::Bin
    } else {
        Role::Lib
    };
    FileMeta {
        rel_path: norm,
        crate_name,
        role,
        is_shim,
    }
}

/// Converts a path under `root` to the workspace-relative form used in
/// diagnostics and configuration matching.
pub fn relative_to(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_workspace_layout() {
        let m = classify("crates/nnet/src/kernel.rs");
        assert_eq!(m.crate_name, "nnet");
        assert_eq!(m.role, Role::Lib);
        assert!(!m.is_shim);

        assert_eq!(classify("crates/core/src/bin/netshare_cli.rs").role, Role::Bin);
        assert_eq!(classify("crates/nnet/tests/gradcheck.rs").role, Role::Test);
        assert_eq!(classify("crates/bench/benches/training_cost.rs").role, Role::Bench);
        assert_eq!(classify("examples/quickstart.rs").role, Role::Example);
        assert_eq!(classify("tests/pipeline_integration.rs").role, Role::Test);
        assert_eq!(classify("src/lib.rs").crate_name, "netshare-suite");

        let shim = classify("shims/rand/src/lib.rs");
        assert!(shim.is_shim);
        assert_eq!(shim.crate_name, "rand");
    }

    #[test]
    fn rule_names_round_trip() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::parse(r.name()), Some(r));
        }
        assert_eq!(RuleId::parse("no-such-rule"), None);
    }

    #[test]
    fn default_config_denies_everything() {
        let cfg = Config::default();
        for r in RuleId::ALL {
            assert_eq!(cfg.severity(r), Severity::Deny);
        }
        assert!(cfg.is_exempt("crates/analyzer/tests/fixtures/panic_in_lib.rs"));
        assert!(!cfg.is_exempt("crates/analyzer/src/lib.rs"));
    }
}
