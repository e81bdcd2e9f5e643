//! The syntactic layer: a per-file item model on top of the lexer.
//!
//! Still no type information — this layer extracts, from one lex of the
//! file, everything the rules and the workspace-graph passes read: `fn`
//! items with brace-matched body spans, `use` declarations, call sites
//! with their qualifier/receiver shape, test-item spans, file tags
//! (`lint: dp-post-noise`, `lint: io-boundary`, `lint: caps(...)`),
//! inline waivers, and positional annotations
//! (`lint: lock-order(<name>)`). Everything is conservative: a construct
//! the extractor cannot parse is skipped, not guessed at, so the passes
//! under-approximate rather than panic.

use crate::config::FileMeta;
use crate::lexer::{lex, Lexed, Tok, TokKind};

/// Keywords that look like calls when followed by `(`.
const CALLISH_KEYWORDS: [&str; 14] = [
    "if", "while", "for", "match", "loop", "return", "fn", "in", "as", "move", "let", "else",
    "unsafe", "use",
];

/// One `fn` item (free function, method, or nested fn — closures are not
/// items). Trait-method declarations without bodies are skipped.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index range of the body, inclusive of both braces.
    pub body: (usize, usize),
}

/// One call site.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called identifier (method or function name).
    pub name: String,
    /// Immediate path qualifier for `seg::name(...)` calls.
    pub qualifier: Option<String>,
    /// Root of the path qualifier chain (`a` in `a::b::name(...)`).
    pub root_qualifier: Option<String>,
    /// True for `.name(...)` method calls.
    pub method: bool,
    /// Token index of the name.
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
}

/// One `use` declaration, flattened: the crate-root segment plus every
/// identifier the declaration brings into scope (group members included).
#[derive(Debug, Clone)]
pub struct UseDecl {
    /// First path segment (`std`, `crate`, a workspace crate, …).
    pub root: String,
    /// All identifiers appearing in the path/group.
    pub names: Vec<String>,
    /// 1-based line.
    pub line: u32,
}

/// A positional `lint: <marker>(<payload>) <rest>` annotation. It must
/// open its comment; the trailing form covers its own line, the
/// standalone form covers the next code line. Waivers
/// (`lint: allow(<rule>) <reason>`) and lock names
/// (`lint: lock-order(<name>)`) are both annotations.
#[derive(Debug, Clone)]
pub struct Annotation {
    /// The text between the parentheses, trimmed.
    pub payload: String,
    /// The text after the closing parenthesis, trimmed (a waiver's
    /// reason).
    pub rest: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// The code line this annotation covers.
    pub covers: u32,
}

/// The syntactic model of one file.
#[derive(Debug)]
pub struct FileModel {
    /// Classification (path, crate, role, shim).
    pub meta: FileMeta,
    /// Raw source, kept for snippets.
    pub src: String,
    /// Token/comment stream.
    pub lexed: Lexed,
    /// `fn` items in order of appearance.
    pub fns: Vec<FnItem>,
    /// `use` declarations.
    pub uses: Vec<UseDecl>,
    /// Call sites in token order.
    pub calls: Vec<CallSite>,
    /// Inline waivers: the payload is the rule name, `rest` the reason.
    pub waivers: Vec<Annotation>,
    /// `(start_line, end_line)` spans of test items.
    pub test_lines: Vec<(u32, u32)>,
    /// True when tagged `lint: dp-post-noise`.
    pub dp_tagged: bool,
    /// True when tagged `lint: io-boundary` (tag must open its comment).
    pub io_tagged: bool,
    /// Capabilities declared via `lint: caps(...)` (tag must open its
    /// comment), lowercased.
    pub caps_decl: Vec<String>,
    /// `lint: lock-order(<name>)` annotations, by covered line.
    pub lock_names: Vec<Annotation>,
}

impl FileModel {
    /// Lexes one file and builds its model.
    pub fn build(meta: FileMeta, src: String) -> FileModel {
        let lexed = lex(&src);
        let fns = extract_fns(&lexed.toks);
        let uses = extract_uses(&lexed.toks);
        let calls = extract_calls(&lexed.toks);
        let waivers = annotations(&lexed, "lint: allow(");
        let test_lines = test_regions(&lexed.toks);
        let dp_tagged = lexed.comments.iter().any(|c| c.text.contains("lint: dp-post-noise"));
        let io_tagged = lexed
            .comments
            .iter()
            .any(|c| comment_opens_with(&c.text, "lint: io-boundary"));
        let caps_decl = annotations(&lexed, "lint: caps(")
            .iter()
            .flat_map(|a| a.payload.split(',').map(|s| s.trim().to_ascii_lowercase()))
            .filter(|s| !s.is_empty())
            .collect();
        let lock_names = annotations(&lexed, "lint: lock-order(");
        FileModel {
            meta,
            src,
            lexed,
            fns,
            uses,
            calls,
            waivers,
            test_lines,
            dp_tagged,
            io_tagged,
            caps_decl,
            lock_names,
        }
    }

    /// The innermost `fn` item whose body contains token `tok`, if any.
    pub fn enclosing_fn(&self, tok: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.body.0 < tok && tok < f.body.1)
            .min_by_key(|(_, f)| f.body.1 - f.body.0)
            .map(|(i, _)| i)
    }

    /// True when `line` sits inside a test item.
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_lines.iter().any(|&(a, b)| line >= a && line <= b)
    }

    /// The trimmed source line (1-based).
    pub fn snippet(&self, line: u32) -> String {
        self.src
            .lines()
            .nth(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// The `lint: lock-order(<name>)` annotation covering `line`, if any.
    pub fn lock_name_for(&self, line: u32) -> Option<&str> {
        self.lock_names
            .iter()
            .find(|a| a.covers == line)
            .map(|a| a.payload.as_str())
    }
}

/// True when the comment body (doc-`!` stripped) starts with `marker`.
fn comment_opens_with(text: &str, marker: &str) -> bool {
    text.trim_start_matches('!').trim_start().starts_with(marker)
}

/// Extracts the positional annotations whose comment opens with
/// `marker`, which must include its opening paren.
fn annotations(lexed: &Lexed, marker: &str) -> Vec<Annotation> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let body = c.text.trim_start_matches('!').trim_start();
        let Some(after) = body.strip_prefix(marker) else {
            continue;
        };
        let Some(close) = after.find(')') else {
            continue;
        };
        let payload = after[..close].trim().to_string();
        if payload.is_empty() {
            continue;
        }
        let covers = if c.trailing {
            c.line
        } else {
            let next = lexed.toks.iter().map(|t| t.line).find(|&l| l > c.end_line);
            next.unwrap_or(c.end_line + 1)
        };
        let rest = after[close + 1..].trim().to_string();
        out.push(Annotation { payload, rest, line: c.line, covers });
    }
    out
}

/// `(start_line, end_line)` spans of `#[cfg(test)]` items and `#[test]`
/// functions, by brace matching from the attribute.
fn test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let attr = match_attr(toks, i, &["cfg", "(", "test", ")"])
            .or_else(|| match_attr(toks, i, &["test"]));
        if let Some(after) = attr {
            if let Some((_, close)) = block_after(toks, after) {
                out.push((toks[i].line, toks[close].line));
            }
            i = after;
        } else {
            i += 1;
        }
    }
    out
}

/// Matches `#[ <body…> ]` starting at `i`; returns the index just past `]`.
fn match_attr(toks: &[Tok], i: usize, body: &[&str]) -> Option<usize> {
    if toks.get(i)?.text != "#" || toks.get(i + 1)?.text != "[" {
        return None;
    }
    for (k, want) in body.iter().enumerate() {
        if toks.get(i + 2 + k)?.text != *want {
            return None;
        }
    }
    if toks.get(i + 2 + body.len())?.text != "]" {
        return None;
    }
    Some(i + 3 + body.len())
}

/// Finds every `fn name … { body }` by walking from the `fn` keyword to
/// the body's opening brace outside any `(…)` or `[…]` (signatures hold
/// no braces there, and a `;` inside `-> [u8; 4]` does not end the
/// item), then brace-matching. `fn name(…);` declarations are skipped.
fn extract_fns(toks: &[Tok]) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text == "fn" {
            let Some(name_tok) = toks.get(i + 1) else {
                break;
            };
            if name_tok.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            let mut depth = 0i64;
            let mut j = i + 2;
            let mut body = None;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    ";" if depth == 0 => break,
                    "{" if depth == 0 => {
                        body = Some(brace_match(toks, j));
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            if let Some(close) = body {
                out.push(FnItem {
                    name: name_tok.text.clone(),
                    line: toks[i].line,
                    body: (j, close),
                });
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

/// Index of the `}` matching the `{` at `open`; EOF-tolerant (unclosed
/// braces match the last token).
pub fn brace_match(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

/// `(open, close)` token indices of the first `{ … }` block at or after
/// `from`.
pub fn block_after(toks: &[Tok], from: usize) -> Option<(usize, usize)> {
    let open = toks[from..].iter().position(|t| t.text == "{")? + from;
    Some((open, brace_match(toks, open)))
}

/// Collects `use` declarations; groups (`use a::{b, c as d};`) are
/// flattened into one declaration carrying every identifier.
fn extract_uses(toks: &[Tok]) -> Vec<UseDecl> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text == "use" {
            let line = toks[i].line;
            let mut names = Vec::new();
            let mut j = i + 1;
            while j < toks.len() && toks[j].text != ";" {
                if toks[j].kind == TokKind::Ident && toks[j].text != "as" {
                    names.push(toks[j].text.clone());
                }
                j += 1;
            }
            if let Some(root) = names.first().cloned() {
                out.push(UseDecl { root, names, line });
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

/// Collects call sites: `name(`, `seg::name(`, `.name(`. Macro
/// invocations (`name!(`) and call-like keywords are excluded.
fn extract_calls(toks: &[Tok]) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        if CALLISH_KEYWORDS.contains(&name) {
            continue;
        }
        match toks.get(i + 1).map(|t| t.text.as_str()) {
            Some("(") => {}
            _ => continue,
        }
        let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
        if prev == Some("fn") {
            continue; // a declaration, not a call
        }
        let method = prev == Some(".");
        let (qualifier, root_qualifier) = if prev == Some("::") {
            let mut segs = Vec::new();
            let mut k = i - 1;
            // Walk back over `ident ::` pairs.
            while k >= 1 && toks[k].text == "::" && toks[k - 1].kind == TokKind::Ident {
                segs.push(toks[k - 1].text.clone());
                if k < 2 {
                    break;
                }
                k -= 2;
            }
            (segs.first().cloned(), segs.last().cloned())
        } else {
            (None, None)
        };
        out.push(CallSite {
            name: name.to_string(),
            qualifier,
            root_qualifier,
            method,
            tok: i,
            line: toks[i].line,
        });
    }
    out
}

/// The dotted receiver path of a method call at token `tok` (the called
/// name): for `self.state.lock()` returns `"self.state"`. Walks back over
/// `ident . ident` links; anything else (chained calls, indexing) stops
/// the walk.
pub fn receiver_path(toks: &[Tok], tok: usize) -> Option<String> {
    if tok < 2 || toks[tok - 1].text != "." {
        return None;
    }
    let mut segs: Vec<String> = Vec::new();
    let mut k = tok - 1; // the `.`
    while k >= 1 && toks[k].text == "." && toks[k - 1].kind == TokKind::Ident {
        segs.push(toks[k - 1].text.clone());
        if k < 2 {
            break;
        }
        k -= 2;
    }
    if segs.is_empty() {
        return None;
    }
    segs.reverse();
    Some(segs.join("."))
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::classify;

    fn model(src: &str) -> FileModel {
        FileModel::build(classify("crates/demo/src/lib.rs"), src.to_string())
    }

    #[test]
    fn fns_uses_calls_extracted() {
        let m = model(
            "use std::collections::{BTreeMap, BTreeSet};\n\
             use orchestrator::CancelToken;\n\
             fn alpha() { beta(); telemetry::metrics::counter(\"x\"); }\n\
             fn beta() { self.state.lock(); }\n\
             trait T { fn decl(&self); }\n",
        );
        assert_eq!(
            m.fns.iter().map(|f| f.name.as_str()).collect::<Vec<_>>(),
            vec!["alpha", "beta"]
        );
        assert_eq!(m.uses.len(), 2);
        assert_eq!(m.uses[0].root, "std");
        assert!(m.uses[0].names.contains(&"BTreeSet".to_string()));
        assert_eq!(m.uses[1].root, "orchestrator");

        let beta_call = m.calls.iter().find(|c| c.name == "beta").unwrap();
        assert!(!beta_call.method);
        assert_eq!(m.enclosing_fn(beta_call.tok), Some(0));

        let counter = m.calls.iter().find(|c| c.name == "counter").unwrap();
        assert_eq!(counter.qualifier.as_deref(), Some("metrics"));
        assert_eq!(counter.root_qualifier.as_deref(), Some("telemetry"));

        let lock = m.calls.iter().find(|c| c.name == "lock").unwrap();
        assert!(lock.method);
        assert_eq!(receiver_path(&m.lexed.toks, lock.tok).as_deref(), Some("self.state"));
    }

    #[test]
    fn fn_returning_an_array_has_a_body() {
        // The `;` of `[u8; 4]` sits outside every paren; it must not end
        // the item, or calls inside the body have no enclosing fn.
        let m = model("fn f() -> [u8; 4] { g() }\n");
        assert_eq!(m.fns.len(), 1);
        let g = m.calls.iter().find(|c| c.name == "g").unwrap();
        assert_eq!(m.enclosing_fn(g.tok), Some(0));
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let m = model("fn f() { if (x) { vec!(1); } }\n");
        assert!(m.calls.is_empty());
    }

    #[test]
    fn caps_and_lock_annotations_parse() {
        let m = model(
            "//! lint: caps(net, clock) — intentional\n\
             fn f() {\n\
                 let g = self.state.lock(); // lint: lock-order(demo.state)\n\
                 // lint: lock-order(demo.other)\n\
                 let h = self.other.lock();\n\
             }\n",
        );
        assert_eq!(m.caps_decl, vec!["net", "clock"]);
        assert_eq!(m.lock_name_for(3), Some("demo.state"));
        assert_eq!(m.lock_name_for(5), Some("demo.other"));
        assert_eq!(m.lock_name_for(2), None);
    }

    #[test]
    fn waivers_cover_trailing_and_next_code_line_and_must_open_the_comment() {
        let m = model(
            "let m = 1; // lint: allow(float-eq) keys sorted below\n\
             // lint: allow(panic-in-lib) config validated at startup\n\
             \n\
             fn f() { x.unwrap(); }\n\
             // prose that mentions `lint: allow(float-eq)` is not a waiver\n",
        );
        let w: Vec<_> = m
            .waivers
            .iter()
            .map(|a| (a.payload.as_str(), a.line, a.covers, a.rest.as_str()))
            .collect();
        assert_eq!(
            w,
            vec![
                ("float-eq", 1, 1, "keys sorted below"),
                ("panic-in-lib", 2, 4, "config validated at startup"),
            ]
        );
    }

    #[test]
    fn test_regions_span_cfg_test_items_and_test_fns() {
        let m = model("fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\nfn g() {}\n");
        assert_eq!(m.test_lines, vec![(2, 6), (4, 5)]);
        assert!(m.in_test_region(5) && !m.in_test_region(7));
    }

    #[test]
    fn fn_bodies_nest_and_enclosing_picks_innermost() {
        let m = model("fn outer() { fn inner() { leaf(); } inner(); }\n");
        assert_eq!(m.fns.len(), 2);
        let leaf = m.calls.iter().find(|c| c.name == "leaf").unwrap();
        let inner_idx = m.enclosing_fn(leaf.tok).unwrap();
        assert_eq!(m.fns[inner_idx].name, "inner");
    }
}
