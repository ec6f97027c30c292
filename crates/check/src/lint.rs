//! The `marconi-check` contract rules.
//!
//! Each rule encodes an invariant this repository's results depend on (see
//! `docs/verification.md` for the catalog) that no compiler lint states.
//! Rules operate on the token stream from [`crate::lexer`], skipping
//! `#[cfg(test)]` / `#[test]` spans — the contracts constrain *lib* code.
//!
//! | rule id | contract |
//! |---|---|
//! | `hash-iter` | no iteration over `HashMap`/`HashSet` (nondeterministic order) in the deterministic crates |
//! | `expect-message` | every `.expect(...)` names the violated contract (`"invariant: …"` or `"lock: …"`) |
//! | `must-use-handle` | leak-prone handle types (`*Ticket`, `*Guard`, `*Handle`, `*Cursor`) carry `#[must_use]` |
//! | `edge-clone` | radix hot paths never materialize edge tokens: no `.clone()`/`.to_vec()` in `crates/radix/src` |
//!
//! The wall-clock, `unwrap` and print bans are clippy lints denied in the
//! root `Cargo.toml` (`disallowed_types`, `unwrap_used`, `print_stdout`,
//! `print_stderr`, `dbg_macro`), and a session cursor's node id is private
//! to the module that holds its generation check.
//!
//! A line can waive a rule with `// check:allow(rule-id): reason` on the
//! same or the preceding line; the reason is mandatory so waivers stay
//! auditable.

use crate::lexer::{lex, Lexed, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// A single rule finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// File the finding is in (as given to the linter).
    pub file: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// Rule id, e.g. `hash-iter`.
    pub rule: &'static str,
    /// Human-readable description of the violated contract.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Which crates the lint pass walks, relative to the workspace root: the
/// deterministic crates whose lib code produces the reported numbers.
pub const LINTED_CRATES: [&str; 6] = [
    "crates/core",
    "crates/radix",
    "crates/sim",
    "crates/workload",
    "crates/metrics",
    "crates/trace",
];

/// `.expect(...)` messages must start with one of these, naming the
/// contract whose violation makes the panic unreachable.
const EXPECT_PREFIXES: [&str; 2] = ["invariant:", "lock:"];

/// Handle-type name suffixes that must carry `#[must_use]` (dropping one
/// on the floor leaks the resource it tracks — e.g. a `PinTicket` leak
/// pins a cache path forever, and a dropped `MatchCursor` silently
/// forfeits the session fast path back to O(prompt) root walks).
const MUST_USE_SUFFIXES: [&str; 4] = ["Ticket", "Guard", "Handle", "Cursor"];

/// Methods banned by `edge-clone` in radix hot paths: edge labels are
/// chains of `(offset, len)` ranges of the tree's shared token store, and
/// these calls are how O(edge) byte copies sneak back in.
const EDGE_CLONE_METHODS: [&str; 2] = ["clone", "to_vec"];

/// Hash-container iteration methods with order-dependent results.
const HASH_ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
];

/// Lints one file's source, returning all findings.
#[must_use]
pub fn lint_source(file: &Path, src: &str) -> Vec<Violation> {
    let lexed = lex(src);
    let toks = &lexed.toks;
    let test = test_spans(toks);
    let waivers = waivers(&lexed);
    let mut out = Vec::new();

    let waived = |line: u32, rule: &str| -> bool {
        [line, line.saturating_sub(1)]
            .iter()
            .any(|l| waivers.get(l).is_some_and(|rules| rules.contains(rule)))
    };
    let mut push = |line: u32, rule: &'static str, message: String| {
        if !waived(line, rule) {
            out.push(Violation {
                file: file.to_owned(),
                line,
                rule,
                message,
            });
        }
    };

    let hash_bound = hash_bound_idents(toks);
    let radix_hot = is_radix_hot_path(file);

    for (i, t) in toks.iter().enumerate() {
        if test[i] {
            continue;
        }
        // expect-message, edge-clone and hash-iter method calls.
        if t.is_punct('.') {
            let (Some(name), paren) = (toks.get(i + 1), toks.get(i + 2)) else {
                continue;
            };
            if !paren.is_some_and(|p| p.is_punct('(')) {
                continue;
            }
            if name.is_ident("expect") {
                let msg = toks.get(i + 3);
                let ok = msg.is_some_and(|m| {
                    m.kind == TokKind::Str && EXPECT_PREFIXES.iter().any(|p| m.text.starts_with(p))
                });
                if !ok {
                    push(
                        name.line,
                        "expect-message",
                        "`.expect(…)` must take a string literal naming the \
                         violated contract, prefixed `invariant:` or `lock:`"
                            .to_owned(),
                    );
                }
            } else if radix_hot && EDGE_CLONE_METHODS.contains(&name.text.as_str()) {
                push(
                    name.line,
                    "edge-clone",
                    format!(
                        "`.{}()` in a radix hot path materializes token bytes; \
                         edge labels are chains of (offset, len) ranges of \
                         the shared store — use `edge_parts()` / offset \
                         arithmetic, or waive with a reason",
                        name.text
                    ),
                );
            } else if HASH_ITER_METHODS.contains(&name.text.as_str())
                && i > 0
                && toks[i - 1].kind == TokKind::Ident
                && hash_bound.contains(&toks[i - 1].text)
            {
                push(
                    name.line,
                    "hash-iter",
                    format!(
                        "iterating hash container `{}` yields nondeterministic \
                         order; use a BTree container or sort first",
                        toks[i - 1].text
                    ),
                );
            }
        }
        // hash-iter via for loops: `for x in &map` / `for x in map`.
        if t.is_ident("for") {
            // Find the matching `in` at depth 0 (patterns can contain
            // parens/brackets but not braces).
            let mut depth = 0i32;
            for j in i + 1..toks.len().min(i + 40) {
                let u = &toks[j];
                if u.is_punct('(') || u.is_punct('[') {
                    depth += 1;
                } else if u.is_punct(')') || u.is_punct(']') {
                    depth -= 1;
                } else if u.is_punct('{') {
                    break;
                } else if depth == 0 && u.is_ident("in") {
                    let mut k = j + 1;
                    while toks
                        .get(k)
                        .is_some_and(|v| v.is_punct('&') || v.is_ident("mut"))
                    {
                        k += 1;
                    }
                    // Walk a field path `a.b.c` to its final segment.
                    while toks.get(k).is_some_and(|v| v.kind == TokKind::Ident)
                        && toks.get(k + 1).is_some_and(|v| v.is_punct('.'))
                        && toks.get(k + 2).is_some_and(|v| v.kind == TokKind::Ident)
                    {
                        k += 2;
                    }
                    if let Some(v) = toks.get(k) {
                        if v.kind == TokKind::Ident
                            && hash_bound.contains(&v.text)
                            && toks.get(k + 1).is_some_and(|w| w.is_punct('{'))
                        {
                            push(
                                v.line,
                                "hash-iter",
                                format!(
                                    "`for … in {}` iterates a hash container in \
                                     nondeterministic order; use a BTree container \
                                     or sort first",
                                    v.text
                                ),
                            );
                        }
                    }
                    break;
                }
            }
        }
        // must-use-handle.
        if t.is_ident("struct") {
            let Some(name) = toks.get(i + 1) else {
                continue;
            };
            if name.kind == TokKind::Ident
                && MUST_USE_SUFFIXES
                    .iter()
                    .any(|s| name.text.ends_with(s) && name.text.len() > s.len())
                && !has_preceding_attr(toks, i, "must_use")
            {
                push(
                    name.line,
                    "must-use-handle",
                    format!(
                        "handle type `{}` must be `#[must_use]`: dropping it \
                         unredeemed leaks the resource it tracks",
                        name.text
                    ),
                );
            }
        }
    }
    out
}

/// Lints every `src/**/*.rs` file of the six deterministic crates under
/// `root`.
///
/// # Errors
///
/// Returns an error when the workspace layout is unreadable (missing crate
/// directories), so a mis-pointed `--root` fails loudly instead of
/// reporting a clean empty run.
pub fn lint_workspace(root: &Path) -> Result<Vec<Violation>, String> {
    let mut files = Vec::new();
    for krate in LINTED_CRATES {
        let dir = root.join(krate).join("src");
        collect_rs_files(&dir, &mut files)
            .map_err(|e| format!("cannot walk {}: {e}", dir.display()))?;
    }
    files.sort();
    let mut out = Vec::new();
    for f in files {
        let src =
            std::fs::read_to_string(&f).map_err(|e| format!("cannot read {}: {e}", f.display()))?;
        let rel = f.strip_prefix(root).unwrap_or(&f);
        out.extend(lint_source(rel, &src));
    }
    Ok(out)
}

/// `true` for files the `edge-clone` rule constrains: the arena engine's
/// sources under `crates/radix/src`. (The verbatim pre-refactor oracle
/// `legacy.rs`, whose `Vec<Token>` edges cloned by design, was the sole
/// exemption until its retirement in PR 10.)
fn is_radix_hot_path(file: &Path) -> bool {
    let p = file.to_string_lossy().replace('\\', "/");
    p.contains("crates/radix/src/")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Marks every token inside a `#[cfg(test)]` or `#[test]` item (the item
/// the attribute is attached to, through its closing `}`, `;`, or `,`).
fn test_spans(toks: &[Tok]) -> Vec<bool> {
    let mut test = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_punct('#') {
            i += 1;
            continue;
        }
        // `#![cfg(test)]` (inner attribute): the whole file is test code.
        let inner = toks.get(i + 1).is_some_and(|t| t.is_punct('!'));
        let open = i + 1 + usize::from(inner);
        if !toks.get(open).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        let Some(close) = matching(toks, open, '[', ']') else {
            break;
        };
        let attr = &toks[open + 1..close];
        let is_test_attr = attr.first().is_some_and(|t| t.is_ident("test"))
            || (attr.first().is_some_and(|t| t.is_ident("cfg"))
                && attr.iter().any(|t| t.is_ident("test")));
        if !is_test_attr {
            i = close + 1;
            continue;
        }
        if inner {
            test.iter_mut().for_each(|t| *t = true);
            return test;
        }
        // Skip any further attributes, then span the item.
        let mut j = close + 1;
        while toks.get(j).is_some_and(|t| t.is_punct('#'))
            && toks.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            match matching(toks, j + 1, '[', ']') {
                Some(c) => j = c + 1,
                None => break,
            }
        }
        let mut end = toks.len().saturating_sub(1);
        let mut depth = 0i32;
        for (k, t) in toks.iter().enumerate().skip(j) {
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct('{') && depth == 0 {
                end = matching(toks, k, '{', '}').unwrap_or(end);
                break;
            } else if (t.is_punct(';') || t.is_punct(',')) && depth == 0 {
                end = k;
                break;
            }
        }
        test[i..=end.min(toks.len() - 1)]
            .iter_mut()
            .for_each(|t| *t = true);
        i = end + 1;
    }
    test
}

/// Index of the token closing the bracket opened at `open`.
fn matching(toks: &[Tok], open: usize, o: char, c: char) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Identifiers bound to `HashMap`/`HashSet` anywhere in the file, from
/// `name: HashMap<…>` (fields, params) and `let name = HashMap::new()`
/// style bindings. File-local and flow-insensitive — good enough, since
/// shadowing a hash map with a non-hash binding of the same name would be
/// its own readability bug.
fn hash_bound_idents(toks: &[Tok]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // Walk back over the path qualifier `std :: collections ::` and
        // reference sigils (`&`, `&'a mut`).
        let mut j = i;
        loop {
            if j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
                j -= 3; // over `:: segment`
            } else if j >= 1
                && (toks[j - 1].is_punct('&')
                    || toks[j - 1].is_ident("mut")
                    || toks[j - 1].kind == TokKind::Lifetime)
            {
                j -= 1;
            } else {
                break;
            }
        }
        // `name : [std::collections::] HashMap` — fields, lets, params.
        if j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].kind == TokKind::Ident {
            out.insert(toks[j - 2].text.clone());
        }
        // `let [mut] name = HashMap::…` / `= HashSet::…`.
        if j >= 2 && toks[j - 1].is_punct('=') && toks[j - 2].kind == TokKind::Ident {
            out.insert(toks[j - 2].text.clone());
        }
    }
    out
}

/// `true` if the item starting at token `item` (e.g. a `struct` keyword)
/// has `#[must_use]` among the attributes immediately preceding it.
fn has_preceding_attr(toks: &[Tok], item: usize, attr: &str) -> bool {
    // Walk backwards over visibility and attribute groups.
    let mut j = item;
    while j > 0 {
        let prev = &toks[j - 1];
        if prev.is_ident("pub") {
            j -= 1;
        } else if prev.is_punct(')') {
            // pub(crate) etc. — walk back to the '(' and the `pub`.
            let mut depth = 0i32;
            let mut k = j - 1;
            loop {
                if toks[k].is_punct(')') {
                    depth += 1;
                } else if toks[k].is_punct('(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == 0 {
                    return false;
                }
                k -= 1;
            }
            j = k;
        } else if prev.is_punct(']') {
            // An attribute `#[…]` — scan it for the ident.
            let mut depth = 0i32;
            let mut k = j - 1;
            loop {
                if toks[k].is_punct(']') {
                    depth += 1;
                } else if toks[k].is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == 0 {
                    return false;
                }
                k -= 1;
            }
            if k == 0 || !toks[k - 1].is_punct('#') {
                return false;
            }
            if toks[k..j].iter().any(|t| t.is_ident(attr)) {
                return true;
            }
            j = k - 1;
        } else {
            return false;
        }
    }
    false
}

/// Waiver annotations by line: `// check:allow(rule-a, rule-b): reason`.
/// Waivers without a reason (no text after the closing paren) are ignored.
fn waivers(lexed: &Lexed) -> BTreeMap<u32, BTreeSet<String>> {
    let mut out: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    for c in &lexed.comments {
        let Some(pos) = c.text.find("check:allow(") else {
            continue;
        };
        let rest = &c.text[pos + "check:allow(".len()..];
        let Some(end) = rest.find(')') else { continue };
        if rest[end + 1..].trim_start_matches([':', ' ']).is_empty() {
            continue; // a waiver must carry a reason
        }
        for rule in rest[..end].split(',') {
            out.entry(c.line)
                .or_default()
                .insert(rule.trim().to_owned());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Violation> {
        lint_source(Path::new("test.rs"), src)
    }

    fn rules(src: &str) -> Vec<&'static str> {
        lint(src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn f(m: &HashMap<u8, u8>) { m.keys(); x.expect(\"oops\"); }\n}";
        assert!(lint(src).is_empty());
        let src = "#[test]\nfn t() { x.expect(\"oops\"); }";
        assert!(lint(src).is_empty());
        let src = "#[cfg(test)]\npub struct PinTicket;\nfn f() { let _ = 1; }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn cfg_test_field_is_exempt_but_siblings_are_not() {
        let src = "fn f() -> S {\n S {\n #[cfg(test)]\n log: x.expect(\"oops\"),\n \
                   later: y.expect(\"oops\"),\n }\n}";
        assert_eq!(rules(src), ["expect-message"]);
        assert_eq!(lint(src)[0].line, 5);
    }

    #[test]
    fn strings_and_comments_do_not_trip_rules() {
        let src = "fn f() { let s = \"x.expect(y) e.to_vec() struct PinTicket\"; } // e.clone()";
        assert!(lint_source(Path::new("crates/radix/src/tree.rs"), src).is_empty());
    }

    #[test]
    fn expect_needs_contract_prefix() {
        assert_eq!(rules("fn f() { x.expect(\"oops\"); }"), ["expect-message"]);
        assert!(lint("fn f() { x.expect(\"invariant: tree is non-empty\"); }").is_empty());
        assert!(lint("fn f() { l.read().expect(\"lock: shard poisoned\"); }").is_empty());
        // `.unwrap()` is clippy's `unwrap_used`, and its relatives are fine.
        assert!(lint("fn f() { x.unwrap(); x.unwrap_or(0); y.unwrap_or_default(); }").is_empty());
    }

    #[test]
    fn hash_iteration_is_denied_direct_and_for_loops() {
        let src = "struct S { index: HashMap<u32, u32> }\n\
                   fn f(s: &S) { for (k, v) in &s.index {} }";
        // field access `s.index` — the final ident before `{` is `index`.
        assert_eq!(rules(src), ["hash-iter"]);
        let src = "fn f() { let mut m = HashMap::new(); for k in m.keys() {} }";
        assert_eq!(rules(src), ["hash-iter"]);
        let src = "fn f(m: &HashMap<u32, u32>) { let v: Vec<_> = m.values().collect(); }";
        assert_eq!(rules(src), ["hash-iter"]);
    }

    #[test]
    fn hash_point_lookups_are_fine() {
        let src = "struct S { index: HashMap<u64, u32> }\n\
                   fn f(s: &mut S) { s.index.get(&1); s.index.insert(1, 2); s.index.remove(&1); }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn btree_iteration_is_fine() {
        let src = "fn f(m: &BTreeMap<u32, u32>) { for (k, v) in m { let _ = (k, v); } }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn must_use_handles() {
        assert_eq!(
            rules("pub struct PinTicket { node: u32 }"),
            ["must-use-handle"]
        );
        assert!(lint("#[must_use]\npub struct PinTicket { node: u32 }").is_empty());
        assert!(lint("#[derive(Debug)]\n#[must_use]\npub struct FooGuard;").is_empty());
        // A struct merely *named* Handle (no prefix) is not a handle type.
        assert!(lint("pub struct Handle;").is_empty());
        assert!(lint("pub struct Plain { x: u32 }").is_empty());
        // Cursors are handles since PR 10: dropping one forfeits the fast
        // path, so the suffix list covers them too.
        assert_eq!(
            rules("pub struct MatchCursor { node: u32 }"),
            ["must-use-handle"]
        );
        assert!(lint("#[must_use]\npub struct MatchCursor { node: u32 }").is_empty());
    }

    #[test]
    fn edge_clone_denied_in_radix_hot_paths_only() {
        let src = "fn merge(head: &[u32]) -> Vec<u32> { head.to_vec() }";
        let hot = Path::new("crates/radix/src/tree.rs");
        let found = lint_source(hot, src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "edge-clone");
        let src = "fn snap(edge: &Vec<u32>) -> Vec<u32> { edge.clone() }";
        assert_eq!(lint_source(hot, src)[0].rule, "edge-clone");
        // Other crates clone freely; every radix source is a hot path now
        // that the `legacy.rs` oracle is retired.
        assert!(lint_source(Path::new("crates/core/src/hybrid.rs"), src).is_empty());
        assert_eq!(
            lint_source(Path::new("crates/radix/src/legacy.rs"), src)[0].rule,
            "edge-clone"
        );
        // Test spans inside radix sources are exempt.
        let src = "#[cfg(test)]\nmod tests {\n fn f(v: &[u32]) { v.to_vec(); }\n}";
        assert!(lint_source(hot, src).is_empty());
        // Waivers work as for every other rule.
        let src = "// check:allow(edge-clone): dot export, off the hot path\n\
                   fn dump(e: &[u32]) -> Vec<u32> { e.to_vec() }";
        assert!(lint_source(hot, src).is_empty());
    }

    #[test]
    fn waiver_with_reason_suppresses_waiver_without_does_not() {
        let src = "// check:allow(expect-message): third-party error text\n\
                   fn f() { x.expect(\"oops\"); }";
        assert!(lint(src).is_empty());
        let src = "// check:allow(expect-message)\nfn f() { x.expect(\"oops\"); }";
        assert_eq!(rules(src), ["expect-message"]);
        // Waiving one rule does not waive another.
        let src = "// check:allow(must-use-handle): reviewed\nfn f() { x.expect(\"oops\"); }";
        assert_eq!(rules(src), ["expect-message"]);
    }
}
