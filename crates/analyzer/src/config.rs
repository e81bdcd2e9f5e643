//! Rule catalogue and file classification.

use std::path::Path;

/// The shipped rules: six per-file token scans plus three
/// workspace-graph passes, and the check on waivers themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `HashMap`/`HashSet` in determinism-critical crates: unordered
    /// iteration feeding training or serialization breaks bitwise seed
    /// determinism. Use `BTreeMap`/`BTreeSet` or an explicit sort.
    NondeterministicIteration,
    /// Files tagged `lint: dp-post-noise` must not touch per-example
    /// gradient accessors — only DP-SGD's sanitize boundary may.
    DpBoundary,
    /// `==`/`!=` against float literals in metrics/training code.
    FloatEq,
    /// `unwrap`/`expect`/`panic!` in library code (tests/bins exempt).
    PanicInLib,
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
    /// Workspace-graph pass: cycles in the lock-acquisition order graph
    /// (module A takes `a` then `b`, module B takes `b` then `a`),
    /// recursive re-acquisition of a lock already held, inversions
    /// against the canonical rank list, and guards held across blocking
    /// calls (`wait`, `recv`, `accept`, `read_exact`, `push_blocking`).
    /// Cross-module lock identity comes from `lint: lock-order(<name>)`
    /// annotations on acquisition sites.
    LockOrder,
    /// Workspace-graph pass: a restricted capability (entropy, clock,
    /// raw socket I/O) used directly, or reached through calls into
    /// unsanctioned helpers, by a module not sanctioned for it. Modules
    /// declare intentional capabilities with `lint: caps(...)`.
    CapabilityGraph,
    /// Workspace-graph pass: intraprocedural taint from per-example
    /// gradient accessors (`flat_gradients`, `gradients_mut`) to
    /// serialization/event/metric sinks, cleared only by the sanctioned
    /// noise path — `dp-post-noise` as a checked flow property.
    DpTaintFlow,
    /// A `lint: allow(...)` waiver naming no rule. Not in [`RuleId::ALL`],
    /// so it cannot itself be waived.
    UnknownWaiver,
}

impl RuleId {
    /// Every rule a waiver may name, in catalogue order.
    pub const ALL: [RuleId; 9] = [
        RuleId::NondeterministicIteration,
        RuleId::DpBoundary,
        RuleId::FloatEq,
        RuleId::PanicInLib,
        RuleId::UnboundedWait,
        RuleId::AllocInStepLoop,
        RuleId::LockOrder,
        RuleId::CapabilityGraph,
        RuleId::DpTaintFlow,
    ];

    /// The kebab-case name used in diagnostics and waivers.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::NondeterministicIteration => "nondeterministic-iteration",
            RuleId::DpBoundary => "dp-boundary",
            RuleId::FloatEq => "float-eq",
            RuleId::PanicInLib => "panic-in-lib",
            RuleId::UnboundedWait => "unbounded-wait",
            RuleId::AllocInStepLoop => "alloc-in-step-loop",
            RuleId::LockOrder => "lock-order",
            RuleId::CapabilityGraph => "capability-graph",
            RuleId::DpTaintFlow => "dp-taint-flow",
            RuleId::UnknownWaiver => "unknown-waiver",
        }
    }

    /// Parses a rule name as written in a waiver.
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.name() == s.trim())
    }

    /// One-line description for `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::NondeterministicIteration => {
                "HashMap/HashSet in determinism-critical crates (use BTreeMap/BTreeSet or sort)"
            }
            RuleId::DpBoundary => {
                "per-example gradient accessors in files tagged `lint: dp-post-noise`"
            }
            RuleId::FloatEq => "== / != against float literals in metrics/training code",
            RuleId::PanicInLib => "unwrap/expect/panic! in library code (tests/bins exempt)",
            RuleId::UnboundedWait => {
                "thread::sleep / timeout-less Condvar::wait in library code (use CancelToken::wait_timeout)"
            }
            RuleId::AllocInStepLoop => {
                "Vec::new / vec![] / Tensor::zeros inside a `lint: step-loop`-tagged hot loop (hoist or use nnet::infer::Arena)"
            }
            RuleId::LockOrder => {
                "[graph] lock-order cycles, rank inversions, re-entrant acquisition, and guards held across blocking calls"
            }
            RuleId::CapabilityGraph => {
                "[graph] entropy/clock/socket capability used directly or reached through calls by an unsanctioned module (declare with `lint: caps(...)`)"
            }
            RuleId::DpTaintFlow => {
                "[graph] per-example gradient data flowing to an event/metric/serialization sink before the sanctioned noise path clears it"
            }
            RuleId::UnknownWaiver => "a `lint: allow(...)` waiver naming no rule",
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
    /// from product-code rules.
    pub is_shim: bool,
}

/// Path prefixes skipped entirely: the intentionally violating fixtures.
const EXEMPT_PATHS: [&str; 1] = ["crates/analyzer/tests/fixtures/"];

/// True when `rel_path` is under a fully-exempt prefix.
pub fn is_exempt(rel_path: &str) -> bool {
    EXEMPT_PATHS.iter().any(|p| rel_path.starts_with(p))
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
/// diagnostics and path-prefix matching.
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
        assert_eq!(RuleId::parse(RuleId::UnknownWaiver.name()), None);
    }

    #[test]
    fn fixtures_are_exempt() {
        assert!(is_exempt("crates/analyzer/tests/fixtures/panic_in_lib.rs"));
        assert!(!is_exempt("crates/analyzer/src/lib.rs"));
    }
}
