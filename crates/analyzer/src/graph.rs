//! The workspace model: every file's syntactic model plus name-based
//! call resolution.
//!
//! Call resolution is deliberately conservative and purely nominal — no
//! types exist at this layer. A call resolves to *every* function the
//! name could plausibly mean under the narrowest scope that matches
//! (same file, then same crate, then the crate named by the qualifier or
//! an import). Over-approximating targets makes the capability pass
//! over-taint, never under-taint, which is the right failure mode for a
//! deny gate; precision is recovered with `lint: caps(...)` declarations.

use std::collections::BTreeMap;

use crate::syntax::{CallSite, FileModel};

/// Reference to one `fn` item: (file index, fn index).
pub type FnRef = (usize, usize);

/// The whole workspace, syntactically.
pub struct WorkspaceModel {
    /// Every file's model, in deterministic (sorted-path) order.
    pub files: Vec<FileModel>,
    /// `import root segment -> crate dir name` (package-name aliases:
    /// `netshare` -> `core`, `trace_synth` -> `trace-synth`).
    pub crate_alias: BTreeMap<String, String>,
    /// `(crate, fn name) -> fn refs` — the resolution index.
    fn_index: BTreeMap<(String, String), Vec<FnRef>>,
}

impl WorkspaceModel {
    /// Builds the model from per-file models.
    pub fn build(files: Vec<FileModel>) -> WorkspaceModel {
        let mut crate_alias: BTreeMap<String, String> = BTreeMap::new();
        let mut fn_index: BTreeMap<(String, String), Vec<FnRef>> = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            let name = &f.meta.crate_name;
            crate_alias.insert(name.replace('-', "_"), name.clone());
            for (ii, item) in f.fns.iter().enumerate() {
                fn_index
                    .entry((f.meta.crate_name.clone(), item.name.clone()))
                    .or_default()
                    .push((fi, ii));
            }
        }
        // Package names that differ from their crate directory.
        crate_alias.insert("netshare".to_string(), "core".to_string());
        WorkspaceModel { files, crate_alias, fn_index }
    }

    /// File stem (`buffer` for `.../buffer.rs`) of file `fi`.
    pub fn stem(&self, fi: usize) -> String {
        let rel = &self.files[fi].meta.rel_path;
        let base = rel.rsplit('/').next().unwrap_or(rel);
        base.trim_end_matches(".rs").to_string()
    }

    /// All fns named `name` inside crate `krate`.
    fn in_crate(&self, krate: &str, name: &str) -> Vec<FnRef> {
        self.fn_index
            .get(&(krate.to_string(), name.to_string()))
            .cloned()
            .unwrap_or_default()
    }

    /// Resolves a call site in file `fi` to candidate targets. Empty when
    /// the name is unknown everywhere reachable (std, shim-internal, …).
    pub fn resolve_call(&self, fi: usize, call: &CallSite) -> Vec<FnRef> {
        let file = &self.files[fi];
        let krate = &file.meta.crate_name;

        if call.method {
            // Methods carry no path: resolve within the caller's crate
            // only (cross-crate method calls need a capability
            // declaration on the caller instead).
            return self.in_crate(krate, &call.name);
        }
        if let Some(root) = &call.root_qualifier {
            // `seg::…::name(…)` — root may be a crate, a sibling module
            // file, `crate`/`self`, or a type brought in by `use`.
            if root == "crate" || root == "self" || root == "super" {
                return self.in_crate(krate, &call.name);
            }
            if let Some(target) = self.crate_alias.get(root) {
                return self.in_crate(target, &call.name);
            }
            // Type or module name: find which crate exported it.
            if let Some(imported_from) = file
                .uses
                .iter()
                .find(|u| u.names.contains(root) && u.root != *root)
                .map(|u| u.root.clone())
            {
                if let Some(target) = self.crate_alias.get(&imported_from) {
                    return self.in_crate(target, &call.name);
                }
            }
            // Fall through: same-crate module path (`module::helper()`).
            return self.in_crate(krate, &call.name);
        }
        // Bare `name(…)`: innermost scope first — same file, else an
        // import that names it, else same crate.
        let here: Vec<FnRef> = self
            .in_crate(krate, &call.name)
            .into_iter()
            .filter(|&(f, _)| f == fi)
            .collect();
        if !here.is_empty() {
            return here;
        }
        if let Some(imported_from) = file
            .uses
            .iter()
            .find(|u| u.names.iter().skip(1).any(|n| n == &call.name))
            .map(|u| u.root.clone())
        {
            if let Some(target) = self.crate_alias.get(&imported_from) {
                return self.in_crate(target, &call.name);
            }
        }
        self.in_crate(krate, &call.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::classify;
    use crate::syntax::FileModel;

    fn ws(files: &[(&str, &str)]) -> WorkspaceModel {
        WorkspaceModel::build(
            files
                .iter()
                .map(|(path, src)| FileModel::build(classify(path), src.to_string()))
                .collect(),
        )
    }

    #[test]
    fn resolution_prefers_same_file_then_crate_then_import() {
        let m = ws(&[
            (
                "crates/alpha/src/lib.rs",
                "use beta::helper;\nfn local() {}\nfn caller() { local(); helper(); beta::remote(); }\n",
            ),
            ("crates/alpha/src/other.rs", "fn local() {}\n"),
            ("crates/beta/src/lib.rs", "pub fn helper() {}\npub fn remote() {}\n"),
        ]);
        let calls = &m.files[0].calls;
        let local = calls.iter().find(|c| c.name == "local").unwrap();
        assert_eq!(m.resolve_call(0, local), vec![(0, 0)]);
        let helper = calls.iter().find(|c| c.name == "helper").unwrap();
        assert_eq!(m.resolve_call(0, helper), vec![(2, 0)]);
        let remote = calls.iter().find(|c| c.name == "remote").unwrap();
        assert_eq!(m.resolve_call(0, remote), vec![(2, 1)]);
    }
}
