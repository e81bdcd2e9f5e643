//! Workspace capability analysis (`capability-graph`).
//!
//! Every `fn` gets an effect manifest over six capabilities — `entropy`,
//! `clock`, `net`, `fs`, `unsafe`, `panic` — from direct lexical
//! evidence, then capabilities propagate caller-ward over the resolved
//! call graph. Propagation is *absorbed* at sanctioned boundaries: a
//! call into a file that is allowed to hold a capability (the entropy /
//! clock whitelists, `lint: io-boundary` modules for `net`, shims,
//! non-library roles, and `lint: caps(...)` declarations) does not taint
//! the caller — that is the point of a sanctioned boundary.
//!
//! Only `entropy`, `clock`, and `net` deny; `fs`, `unsafe`, and `panic`
//! are manifest-only and appear in the JSON graph dump for auditing. Two
//! kinds of finding:
//!
//! - **direct**: every use of a deny capability in code not sanctioned
//!   for that evidence (`Scope`). OS entropy and raw clock reads
//!   (`thread_rng`, `rand::random`, `SystemTime::now`, `Instant::now`)
//!   are sanctioned only in `telemetry::clock`, `orchestrator::timing`
//!   and the bench crate, whatever the role; the
//!   telemetry epoch clock (`monotonic_nanos`) in telemetry's library,
//!   `orchestrator::timing`, tests and examples; blocking socket reads
//!   (`.accept(`, `.read_exact(`) in `lint: io-boundary` modules, tests
//!   and examples; `.from_entropy()`, `TcpListener::bind` and
//!   `TcpStream::connect` wherever their capability is sanctioned. Only
//!   these last three honour a `lint: caps(...)` declaration.
//!   Test items of a library file answer like a test file; benches and
//!   shims answer for nothing.
//! - **propagated**: a library fn that reaches a deny capability only
//!   through calls into unsanctioned helpers — nothing on its own lines
//!   looks suspicious, so the finding names the carrier in `related`.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::{Role, RuleId};
use crate::graph::WorkspaceModel;
use crate::lexer::TokKind;
use crate::report::{Diagnostic, RelatedSite};
use crate::syntax::FileModel;

/// Pass output.
pub struct CapAnalysis {
    /// Direct and propagated findings.
    pub diagnostics: Vec<Diagnostic>,
    /// `(module rel_path, capability names)` for every module that
    /// carries any capability, sanctioned or not.
    pub manifest: Vec<(String, Vec<String>)>,
}

/// Path prefixes sanctioned for the `entropy` capability, and the only
/// ones where OS entropy or a raw OS clock may be read ([`Scope::Ambient`]).
const ENTROPY_WHITELIST: [&str; 4] = [
    "crates/orchestrator/src/timing.rs",
    "crates/telemetry/src/clock.rs",
    "crates/bench/",
    "shims/",
];
/// Path prefixes sanctioned for the `clock` capability: they may read the
/// telemetry epoch clock, and absorb `clock` for their callers.
const CLOCK_WHITELIST: [&str; 3] =
    ["crates/telemetry/src/", "crates/orchestrator/src/timing.rs", "shims/"];

/// `(call line, callee file, callee fn line, callee name)` — the call
/// through which a propagated capability was inherited.
type Witness = (u32, usize, u32, String);

/// Runs the pass.
pub fn analyze(model: &WorkspaceModel) -> CapAnalysis {
    let mut diagnostics = Vec::new();
    let mut seen: BTreeSet<(usize, u32, &str)> = BTreeSet::new();
    // Direct caps per (file, fn); direct findings as they are found.
    let mut caps: Vec<Vec<BTreeSet<&'static str>>> = Vec::new();
    for (fi, file) in model.files.iter().enumerate() {
        let mut per_fn = vec![BTreeSet::new(); file.fns.len()];
        let found = if file.meta.is_shim { Vec::new() } else { evidence(file) };
        for (tok, cap, what, scope) in found {
            let line = file.lexed.toks[tok].line;
            let in_test = file.in_test_region(line);
            let role = match file.meta.role {
                Role::Bench => Role::Bench,
                _ if in_test => Role::Test,
                role => role,
            };
            if !direct_ok(file, cap, scope, role) && seen.insert((fi, line, cap)) {
                diagnostics.push(Diagnostic::new(
                    RuleId::CapabilityGraph,
                    &file.meta.rel_path,
                    line,
                    format!(
                        "module uses the `{cap}` capability directly (`{what}`) but is \
                         not sanctioned for it; {}",
                        scope.remedy(cap)
                    ),
                ));
            }
            if let (false, Some(f)) = (in_test, file.enclosing_fn(tok)) {
                per_fn[f].insert(cap);
            }
        }
        caps.push(per_fn);
    }

    // Propagate to a fixpoint over resolved calls; record the witness
    // call per gained cap.
    let mut via: BTreeMap<(usize, usize, &str), Witness> = BTreeMap::new();
    loop {
        let mut changed = false;
        for fi in 0..model.files.len() {
            let file = &model.files[fi];
            if file.meta.is_shim {
                continue;
            }
            for call in &file.calls {
                if file.in_test_region(call.line) {
                    continue;
                }
                let Some(caller) = file.enclosing_fn(call.tok) else {
                    continue;
                };
                for (tf, ti) in model.resolve_call(fi, call) {
                    if tf == fi && ti == caller {
                        continue;
                    }
                    let callee_file = &model.files[tf];
                    let gained: Vec<&'static str> = caps[tf][ti]
                        .iter()
                        .copied()
                        .filter(|&c| {
                            callee_file.meta.role == Role::Lib
                                && !sanctioned(callee_file, c, Role::Lib)
                        })
                        .filter(|c| !caps[fi][caller].contains(c))
                        .collect();
                    for c in gained {
                        caps[fi][caller].insert(c);
                        via.entry((fi, caller, c)).or_insert((
                            call.line,
                            tf,
                            callee_file.fns[ti].line,
                            call.name.clone(),
                        ));
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Propagated findings: deny caps a library fn inherited.
    for (&(fi, _, c), (line, tf, tline, callee)) in &via {
        let file = &model.files[fi];
        if file.meta.role != Role::Lib
            || sanctioned(file, c, Role::Lib)
            || !seen.insert((fi, *line, c))
        {
            continue;
        }
        let mut d = Diagnostic::new(
            RuleId::CapabilityGraph,
            &file.meta.rel_path,
            *line,
            format!(
                "call to `{callee}` transitively reaches the `{c}` capability \
                 through unsanctioned helpers; route it through a sanctioned \
                 boundary or declare `lint: caps({c})` on this module"
            ),
        );
        d.related.push(RelatedSite {
            file: model.files[*tf].meta.rel_path.clone(),
            line: *tline,
            note: format!("`{callee}` defined here carries `{c}`"),
        });
        diagnostics.push(d);
    }

    // Module manifests: union over fns.
    let manifest = model
        .files
        .iter()
        .zip(&caps)
        .filter_map(|(file, per_fn)| {
            let all: BTreeSet<&str> = per_fn.iter().flatten().copied().collect();
            (!all.is_empty()).then(|| {
                (file.meta.rel_path.clone(), all.iter().map(|c| c.to_string()).collect())
            })
        })
        .collect();
    CapAnalysis { diagnostics, manifest }
}

/// True when code of role `role` in `file` may use capability `cap`
/// without a finding. A sanctioned library file also absorbs the
/// capability instead of passing it to its callers.
fn sanctioned(file: &FileModel, cap: &str, role: Role) -> bool {
    file.meta.is_shim
        || file.caps_decl.iter().any(|d| d == cap)
        || match (cap, role) {
            ("entropy", _) => listed(file, &ENTROPY_WHITELIST),
            ("clock", _) => listed(file, &CLOCK_WHITELIST),
            ("net", Role::Test | Role::Example) => true,
            ("net", _) => file.io_tagged,
            // fs/unsafe/panic are manifest-only: sanctioned everywhere.
            _ => true,
        }
}

/// True when `file` lies under one of `prefixes`.
fn listed(file: &FileModel, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| file.meta.rel_path.starts_with(p))
}

/// Which code may hold a piece of direct evidence without a finding.
#[derive(Clone, Copy)]
enum Scope {
    /// OS entropy and raw clock reads (`thread_rng`, `rand::random`,
    /// `SystemTime::now`, `Instant::now`): only the entropy whitelist —
    /// the two timing shims and the bench crate. Test code answers too.
    Ambient,
    /// The telemetry epoch clock (`monotonic_nanos`): the clock
    /// whitelist, test and example code.
    EpochClock,
    /// Blocking socket reads (`.accept()`, `.read_exact()`): `lint:
    /// io-boundary` modules, test and example code.
    BlockingIo,
    /// Everything else: whatever sanctions its capability, a `lint:
    /// caps(...)` declaration included. The three scopes above ignore
    /// declarations: each such use is waived on its own line.
    Cap,
}

impl Scope {
    /// The fix a finding of this scope suggests.
    fn remedy(self, cap: &str) -> String {
        match self {
            Scope::Ambient => "route randomness through seeded RNGs and timing through \
                               `orchestrator::timing`"
                .to_string(),
            Scope::EpochClock => "take timestamps via `orchestrator::timing::Stopwatch`, \
                                  `telemetry::span!` or `telemetry::metrics::scoped_timer_us`"
                .to_string(),
            Scope::BlockingIo => "socket I/O belongs in a `lint: io-boundary` module".to_string(),
            Scope::Cap => format!(
                "move this behind a sanctioned boundary or declare it with `lint: caps({cap})`"
            ),
        }
    }
}

/// True when code of role `role` in `file` may use direct evidence of
/// `cap` in `scope` without a finding.
fn direct_ok(file: &FileModel, cap: &str, scope: Scope, role: Role) -> bool {
    let test_like = matches!(role, Role::Test | Role::Example);
    match scope {
        _ if role == Role::Bench => true,
        Scope::Ambient => listed(file, &ENTROPY_WHITELIST),
        Scope::EpochClock => test_like || listed(file, &CLOCK_WHITELIST),
        Scope::BlockingIo => test_like || file.io_tagged,
        Scope::Cap => sanctioned(file, cap, role),
    }
}

/// Every piece of direct evidence in `file`: `(token index, capability,
/// what, scope)`.
fn evidence(file: &FileModel) -> Vec<(usize, &'static str, &'static str, Scope)> {
    let toks = &file.lexed.toks;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
        let path = |head: &str| prev == Some("::") && i >= 2 && toks[i - 2].text == head;
        let next = toks.get(i + 1).map(|n| n.text.as_str());
        let method_call = prev == Some(".") && next == Some("(");
        let (cap, what, scope) = match t.text.as_str() {
            "thread_rng" => ("entropy", "thread_rng()", Scope::Ambient),
            "from_entropy" if method_call => ("entropy", ".from_entropy()", Scope::Cap),
            "random" if path("rand") => ("entropy", "rand::random()", Scope::Ambient),
            "now" if path("SystemTime") => ("clock", "SystemTime::now()", Scope::Ambient),
            "now" if path("Instant") => ("clock", "Instant::now()", Scope::Ambient),
            "monotonic_nanos" => {
                ("clock", "telemetry::clock::monotonic_nanos()", Scope::EpochClock)
            }
            "accept" if method_call => ("net", ".accept()", Scope::BlockingIo),
            "read_exact" if method_call => ("net", ".read_exact()", Scope::BlockingIo),
            "bind" if next == Some("(") && path("TcpListener") => {
                ("net", "TcpListener::bind()", Scope::Cap)
            }
            "connect" if next == Some("(") && path("TcpStream") => {
                ("net", "TcpStream::connect()", Scope::Cap)
            }
            "unsafe" => ("unsafe", "unsafe", Scope::Cap),
            "panic" if next == Some("!") => ("panic", "panic!", Scope::Cap),
            "unwrap" | "expect" if method_call => ("panic", ".unwrap()", Scope::Cap),
            "File" if next == Some("::") => ("fs", "File::", Scope::Cap),
            "OpenOptions" => ("fs", "OpenOptions", Scope::Cap),
            "read_to_string" | "create_dir_all" | "remove_file" | "rename" if path("fs") => {
                ("fs", "std::fs op", Scope::Cap)
            }
            _ => continue,
        };
        out.push((i, cap, what, scope));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::classify;
    use crate::graph::WorkspaceModel;
    use crate::syntax::FileModel;

    fn run(files: &[(&str, &str)]) -> CapAnalysis {
        let model = WorkspaceModel::build(
            files
                .iter()
                .map(|(p, s)| FileModel::build(classify(p), s.to_string()))
                .collect(),
        );
        analyze(&model)
    }

    fn lines(out: &CapAnalysis, file: &str) -> Vec<u32> {
        out.diagnostics.iter().filter(|d| d.file == file).map(|d| d.line).collect()
    }

    #[test]
    fn transitive_net_capability_trips_untagged_caller() {
        let helper = "pub fn raw_read(sock: &mut TcpStream, buf: &mut [u8]) {\n\
                      sock.read_exact(buf).unwrap();\n\
                      }\n";
        let caller = "use beta::raw_read;\n\
                      pub fn pull(sock: &mut TcpStream) { let mut b = [0u8; 4]; raw_read(sock, &mut b); }\n";
        let out = run(&[
            ("crates/beta/src/lib.rs", helper),
            ("crates/alpha/src/lib.rs", caller),
        ]);
        // beta's direct read is reported at its own line; alpha's
        // propagated use names the carrier.
        assert_eq!(lines(&out, "crates/beta/src/lib.rs"), vec![2]);
        let prop: Vec<_> = out
            .diagnostics
            .iter()
            .filter(|d| d.file == "crates/alpha/src/lib.rs")
            .collect();
        assert_eq!(prop.len(), 1, "{:?}", out.diagnostics);
        assert!(prop[0].message.contains("`raw_read` transitively reaches the `net`"));
        assert_eq!(prop[0].related[0].file, "crates/beta/src/lib.rs");
    }

    #[test]
    fn io_tagged_callee_absorbs_net() {
        let helper = "//! lint: io-boundary — sanctioned socket module\n\
                      pub fn raw_read(sock: &mut TcpStream, buf: &mut [u8]) {\n\
                      sock.read_exact(buf).unwrap();\n\
                      }\n";
        let caller = "use beta::raw_read;\n\
                      pub fn pull(sock: &mut TcpStream) { let mut b = [0u8; 4]; raw_read(sock, &mut b); }\n";
        let out = run(&[
            ("crates/beta/src/lib.rs", helper),
            ("crates/alpha/src/lib.rs", caller),
        ]);
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
    }

    #[test]
    fn caps_declaration_sanctions_and_absorbs() {
        let helper = "//! lint: caps(net) — owns the dialing for this crate\n\
                      pub fn dial() { let s = TcpStream::connect(\"127.0.0.1:1\"); }\n";
        let caller = "pub fn open() { beta::dial(); }\n";
        let out = run(&[
            ("crates/beta/src/lib.rs", helper),
            ("crates/alpha/src/lib.rs", caller),
        ]);
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
    }

    #[test]
    fn direct_evidence_is_reported_per_line_outside_fns_too() {
        let src = "use rand::thread_rng;\n\
                   pub fn dial() { let s = TcpStream::connect(\"127.0.0.1:1\"); }\n\
                   pub fn two() -> u64 {\n\
                   let a = Instant::now();\n\
                   let r: u64 = rand::random();\n\
                   0 }\n";
        let out = run(&[("crates/alpha/src/lib.rs", src)]);
        assert_eq!(lines(&out, "crates/alpha/src/lib.rs"), vec![1, 2, 4, 5]);
        assert!(out.diagnostics[1].message.contains("`net` capability directly"));

        // A whitelisted file, and namesakes that are not the capability.
        let timing = "pub fn now() -> u64 { let t = Instant::now(); 0 }\n";
        let namesakes = "fn accept() {}\nfn f() { let read_exact = 3; random(3); }\n";
        let out = run(&[
            ("crates/orchestrator/src/timing.rs", timing),
            ("crates/alpha/src/x.rs", namesakes),
        ]);
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
    }

    #[test]
    fn roles_decide_which_direct_evidence_denies() {
        let src = "fn f(l: &TcpListener) {\n\
                   let t = Instant::now();\n\
                   let r = thread_rng();\n\
                   l.accept();\n\
                   let n = telemetry::clock::monotonic_nanos();\n\
                   }\n";
        // Bins answer for everything; tests and examples for OS entropy
        // and raw clock reads only; benches for none.
        let out = run(&[
            ("crates/alpha/src/bin/cli.rs", src),
            ("crates/alpha/tests/t.rs", src),
            ("examples/e.rs", src),
            ("crates/alpha/benches/b.rs", src),
        ]);
        assert_eq!(lines(&out, "crates/alpha/src/bin/cli.rs"), vec![2, 3, 4, 5]);
        assert_eq!(lines(&out, "crates/alpha/tests/t.rs"), vec![2, 3]);
        assert_eq!(lines(&out, "examples/e.rs"), vec![2, 3]);
        assert!(lines(&out, "crates/alpha/benches/b.rs").is_empty());
        // A test item in a library file answers like a test file.
        let lib = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        let out = run(&[("crates/alpha/src/lib.rs", &lib)]);
        assert_eq!(lines(&out, "crates/alpha/src/lib.rs"), vec![4, 5]);
    }

    #[test]
    fn raw_clock_reads_answer_outside_the_two_timing_shims() {
        let src = "pub fn f() -> u64 {\n\
                   let t = Instant::now();\n\
                   telemetry::clock::monotonic_nanos()\n\
                   }\n";
        // Telemetry's library may read its epoch clock but not the OS
        // clock; its tests may read neither raw; `telemetry::clock` and
        // `orchestrator::timing` may read both.
        let declared = format!("//! lint: caps(clock)\n{src}");
        let out = run(&[
            ("crates/telemetry/src/span.rs", src),
            ("crates/telemetry/tests/t.rs", src),
            ("crates/telemetry/src/clock.rs", src),
            ("crates/orchestrator/src/timing.rs", src),
            ("crates/alpha/src/lib.rs", &declared),
            ("crates/beta/src/lib.rs", "pub fn g() -> u64 { alpha::f() }\n"),
        ]);
        assert_eq!(lines(&out, "crates/telemetry/src/span.rs"), vec![2]);
        assert_eq!(lines(&out, "crates/telemetry/tests/t.rs"), vec![2]);
        assert!(lines(&out, "crates/telemetry/src/clock.rs").is_empty());
        assert!(lines(&out, "crates/orchestrator/src/timing.rs").is_empty());
        // A `caps(clock)` declaration absorbs the capability, so callers
        // inherit nothing, but each raw read in it still answers.
        assert_eq!(lines(&out, "crates/alpha/src/lib.rs"), vec![3, 4]);
        assert!(lines(&out, "crates/beta/src/lib.rs").is_empty());
    }

    #[test]
    fn clock_propagates_through_unsanctioned_chain() {
        let low = "pub fn raw_now() -> u64 { let t = SystemTime::now(); 0 }\n";
        // A fn returning an array has a body too: the `;` of `[u64; 2]`
        // must not end its signature.
        let mid = "pub fn helper() -> [u64; 2] { [beta::raw_now(), 0] }\n";
        let top = "pub fn timestamped() { gamma::helper(); }\n";
        let out = run(&[
            ("crates/beta/src/lib.rs", low),
            ("crates/gamma/src/lib.rs", mid),
            ("crates/alpha/src/lib.rs", top),
        ]);
        assert!(
            out.diagnostics
                .iter()
                .any(|d| d.file == "crates/alpha/src/lib.rs"
                    && d.message.contains("`helper` transitively reaches the `clock`")),
            "{:?}",
            out.diagnostics
        );
    }

    #[test]
    fn manifest_lists_all_six_capabilities() {
        let src = "pub fn f() { unsafe { x(); } panic!(\"no\"); }\n";
        let out = run(&[("crates/alpha/src/lib.rs", src)]);
        let m = out
            .manifest
            .iter()
            .find(|(p, _)| p == "crates/alpha/src/lib.rs")
            .unwrap();
        assert!(m.1.contains(&"unsafe".to_string()));
        assert!(m.1.contains(&"panic".to_string()));
        // Manifest-only caps never deny.
        assert!(out.diagnostics.is_empty());
    }
}
