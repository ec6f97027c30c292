//! The `marconi-check` contract rules.
//!
//! Each rule encodes an invariant this repository's results depend on (see
//! `docs/verification.md` for the catalog). Rules operate on the token
//! stream from [`crate::lexer`], skipping `#[cfg(test)]` / `#[test]` spans
//! — the contracts constrain *lib* code, while tests may freely use
//! wall-clocks or `unwrap()`.
//!
//! | rule id | contract |
//! |---|---|
//! | `wall-clock` | reports are pure functions of trace + config: no `Instant`, `SystemTime`, or `thread_rng` in the deterministic crates |
//! | `hash-iter` | no iteration over `HashMap`/`HashSet` (nondeterministic order) in the deterministic crates |
//! | `unwrap` | no `.unwrap()` in non-test lib code |
//! | `expect-message` | every `.expect(...)` names the violated contract (`"invariant: …"` or `"lock: …"`) |
//! | `must-use-handle` | leak-prone handle types (`*Ticket`, `*Guard`, `*Handle`, `*Cursor`) carry `#[must_use]` |
//! | `edge-clone` | radix hot paths never materialize edge tokens: no `.clone()`/`.to_vec()` in `crates/radix/src` |
//! | `no-print` | deterministic lib code never writes to stdio: no `println!`/`eprintln!`/`print!`/`eprint!`/`dbg!` — observability goes through a `TraceSink` |
//! | `cursor-deref` | a cursor's node id is only meaningful after its generation check: no `<cursor>.node` outside the `resume` validators (PR 10) |
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
    /// Rule id, e.g. `wall-clock`.
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

/// Which crates the lint pass walks, relative to the workspace root.
///
/// `crates/bench` is *not* listed: its `figures` binary legitimately times
/// each experiment with `Instant`, which is exactly the allowlist the rules
/// intend.
pub const LINTED_CRATES: [&str; 6] = [
    "crates/core",
    "crates/radix",
    "crates/sim",
    "crates/workload",
    "crates/metrics",
    "crates/trace",
];

/// Identifiers banned by the `wall-clock` rule.
const WALL_CLOCK_IDENTS: [&str; 3] = ["Instant", "SystemTime", "thread_rng"];

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

/// Stdio macros banned by `no-print`: the flight recorder exists precisely
/// so lib code never narrates to a terminal, and `dbg!` left behind after a
/// debugging session perturbs timing and pollutes captured output.
const PRINT_MACROS: [&str; 5] = ["println", "eprintln", "print", "eprint", "dbg"];

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
        // wall-clock: reports must be pure functions of trace + config.
        if t.kind == TokKind::Ident && WALL_CLOCK_IDENTS.contains(&t.text.as_str()) {
            push(
                t.line,
                "wall-clock",
                format!(
                    "`{}` breaks determinism: reports must be pure functions of \
                     trace + config (benches in crates/bench may time things)",
                    t.text
                ),
            );
        }
        // no-print: lib code must stay silent; tracing goes through sinks.
        // The bracket check distinguishes `dbg!(x)` from `dbg != x`.
        if t.kind == TokKind::Ident
            && PRINT_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|b| b.is_punct('!'))
            && toks
                .get(i + 2)
                .is_some_and(|b| b.is_punct('(') || b.is_punct('[') || b.is_punct('{'))
        {
            push(
                t.line,
                "no-print",
                format!(
                    "`{}!` writes to stdio from deterministic lib code; emit a \
                     trace event through the attached `TraceSink` instead (or \
                     waive with a reason for CLI surfaces)",
                    t.text
                ),
            );
        }
        // cursor-deref: a cursor's `node` is a generation-tagged id whose
        // slot may have been freed or recycled; the only sound dereference
        // is through the `resume*` validators (which carry the waiver).
        // Flags `cursor.node` field reads and `.node()` calls alike on any
        // receiver whose name contains "cursor".
        if t.is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_ident("node"))
            && i > 0
            && toks[i - 1].kind == TokKind::Ident
            && toks[i - 1].text.to_ascii_lowercase().contains("cursor")
        {
            push(
                t.line,
                "cursor-deref",
                format!(
                    "`{}.node` reads a cursor's node id without the generation \
                     check; resume through `RadixTree::resume`/`cursor_at` (or \
                     waive with a reason inside a validator)",
                    toks[i - 1].text
                ),
            );
        }
        // unwrap / expect-message.
        if t.is_punct('.') {
            let (Some(name), paren) = (toks.get(i + 1), toks.get(i + 2)) else {
                continue;
            };
            if !paren.is_some_and(|p| p.is_punct('(')) {
                continue;
            }
            if name.is_ident("unwrap") {
                push(
                    name.line,
                    "unwrap",
                    "`.unwrap()` in non-test lib code: convert to \
                     `.expect(\"invariant: …\")` naming the violated contract, \
                     or propagate the error"
                        .to_owned(),
                );
            } else if name.is_ident("expect") {
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
    fn wall_clock_is_denied_outside_tests() {
        assert_eq!(rules("fn f() { let t = Instant::now(); }"), ["wall-clock"]);
        assert_eq!(
            rules("use std::time::SystemTime;\nfn g() {}"),
            ["wall-clock"]
        );
        assert_eq!(rules("fn f() { let r = thread_rng(); }"), ["wall-clock"]);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); Instant::now(); }\n}";
        assert!(lint(src).is_empty());
        let src = "#[test]\nfn t() { x.unwrap(); }";
        assert!(lint(src).is_empty());
        let src = "#[cfg(test)]\nuse std::time::Instant;\nfn f() { let _ = 1; }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn cfg_test_field_is_exempt_but_siblings_are_not() {
        let src = "struct S {\n #[cfg(test)]\n log: Instant,\n later: SystemTime,\n}";
        assert_eq!(rules(src), ["wall-clock"]);
        assert_eq!(lint(src)[0].line, 4);
    }

    #[test]
    fn instantaneous_is_not_instant() {
        assert!(lint("fn f() { let m = ServiceMode::Instantaneous; }").is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_trip_rules() {
        assert!(lint("fn f() { let s = \"Instant .unwrap()\"; } // Instant").is_empty());
    }

    #[test]
    fn unwrap_denied_expect_needs_contract_prefix() {
        assert_eq!(rules("fn f() { x.unwrap(); }"), ["unwrap"]);
        assert_eq!(rules("fn f() { x.expect(\"oops\"); }"), ["expect-message"]);
        assert!(lint("fn f() { x.expect(\"invariant: tree is non-empty\"); }").is_empty());
        assert!(lint("fn f() { l.read().expect(\"lock: shard poisoned\"); }").is_empty());
        // unwrap_or and friends are fine.
        assert!(lint("fn f() { x.unwrap_or(0); y.unwrap_or_default(); }").is_empty());
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
    fn cursor_node_deref_needs_generation_check() {
        assert_eq!(
            rules("fn f(cursor: &C) -> u32 { cursor.node }"),
            ["cursor-deref"]
        );
        // Method-call form and compound receiver names are caught too.
        assert_eq!(
            rules("fn f() { let id = my_cursor.node(); }"),
            ["cursor-deref"]
        );
        // Non-cursor receivers and other cursor fields are fine.
        assert!(lint("fn f(tree: &T) -> u32 { tree.node }").is_empty());
        assert!(lint("fn f(cursor: &C) -> u64 { cursor.matched_len }").is_empty());
        // The resume validators waive the rule with a reason.
        let src = "// check:allow(cursor-deref): this IS the generation check\n\
                   fn resume(cursor: &C) -> u32 { cursor.node }";
        assert!(lint(src).is_empty());
        // Tests dissect cursors freely.
        let src = "#[test]\nfn t() { assert_eq!(cursor.node, expected); }";
        assert!(lint(src).is_empty());
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
    fn print_macros_denied_outside_tests() {
        assert_eq!(rules("fn f() { println!(\"hi\"); }"), ["no-print"]);
        assert_eq!(rules("fn f() { eprintln!(\"warn\"); }"), ["no-print"]);
        assert_eq!(rules("fn f() { let v = dbg!(x); }"), ["no-print"]);
        // `!=` is not a macro bang; writeln! targets a caller's writer.
        assert!(lint("fn f(x: u32) -> bool { dbg != x }").is_empty());
        assert!(lint("fn f(w: &mut W) { writeln!(w, \"ok\"); }").is_empty());
        // Tests may print freely.
        let src = "#[test]\nfn t() { println!(\"debugging a test\"); }";
        assert!(lint(src).is_empty());
        // Waivers carry the usual reason requirement.
        let src = "// check:allow(no-print): CLI progress line, not lib code\n\
                   fn f() { println!(\"running\"); }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn waiver_with_reason_suppresses_waiver_without_does_not() {
        let src = "// check:allow(wall-clock): bench timing, not a report\n\
                   fn f() { let t = Instant::now(); }";
        assert!(lint(src).is_empty());
        let src = "// check:allow(wall-clock)\nfn f() { let t = Instant::now(); }";
        assert_eq!(rules(src), ["wall-clock"]);
        // Waiving one rule does not waive another.
        let src = "// check:allow(unwrap): reviewed\nfn f() { Instant::now(); }";
        assert_eq!(rules(src), ["wall-clock"]);
    }
}
