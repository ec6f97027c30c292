//! The three source contracts no compiler lint states, checked line by line
//! over the lib code of the six deterministic crates (`docs/verification.md`,
//! "Source contracts"):
//!
//! - `expect-message`: an `.expect(` message starts with `"invariant:` or
//!   `"lock:`, naming the contract whose violation it reports.
//! - `must-use-handle`: a `*Ticket`, `*Guard`, `*Handle` or `*Cursor` struct
//!   is `#[must_use]`: a dropped pin ticket leaks its pin, and a dropped
//!   cursor forfeits the session fast path.
//! - `edge-clone`: no `.clone()` / `.to_vec()` in `crates/radix/src`: edge
//!   labels are ranges of the shared token store, never owned copies.
//!
//! Lib lines are a file's lines before its inline `#[cfg(test)]` +
//! `mod tests {`, outside `tests/` directories and the files a parent
//! declares as `#[cfg(test)] mod name;`. A line's code ends at its first
//! `//`, so comments and doc examples are not checked (nor, the scan's known
//! limit, the rest of a line with `//` inside a string literal).

use std::path::{Path, PathBuf};

/// The crates whose lib code produces the reported numbers.
const CRATES: [&str; 6] = ["core", "radix", "sim", "workload", "metrics", "trace"];

/// One scan's findings as `(rule, line)`, and what it saw: a scan that read
/// nothing must not pass.
#[derive(Debug, Default)]
struct Scan {
    findings: Vec<(&'static str, usize)>,
    expects: usize,
    handles: Vec<String>,
}

/// A line's code: everything before its first `//`, trimmed.
fn code(line: &str) -> &str {
    line.split("//").next().unwrap_or_default().trim()
}

/// `(1-based line, code)` of each lib line of `src`.
fn lib_lines(src: &str) -> Vec<(usize, &str)> {
    let mut lines: Vec<(usize, &str)> = (1..).zip(src.lines().map(code)).collect();
    let tests = (lines.windows(2))
        .position(|w| w[0].1 == "#[cfg(test)]" && w[1].1.starts_with("mod tests {"));
    lines.truncate(tests.unwrap_or(lines.len()));
    lines
}

/// The handle type a `struct` item on this line declares, if it is one.
fn handle_name(code: &str) -> Option<&str> {
    let mut words = code.split_whitespace();
    words.find(|&w| w == "struct")?;
    let name = words.next()?.split(['<', '(', '{', ';']).next()?;
    let handle = |x: &&str| name.len() > x.len() && name.ends_with(x);
    ["Ticket", "Guard", "Handle", "Cursor"]
        .iter()
        .any(handle)
        .then_some(name)
}

/// Checks the three rules on the lib lines of `src`, read from `path`.
fn scan(path: &str, src: &str) -> Scan {
    let lines = lib_lines(src);
    let mut s = Scan::default();
    for (k, &(n, c)) in lines.iter().enumerate() {
        for (at, call) in c.match_indices(".expect(") {
            s.expects += 1;
            let mut arg = c[at + call.len()..].trim_start();
            if arg.is_empty() {
                let mut next = lines[k + 1..].iter().map(|&(_, c)| c);
                arg = next.find(|c| !c.is_empty()).unwrap_or_default();
            }
            if !(arg.starts_with("\"invariant:") || arg.starts_with("\"lock:")) {
                s.findings.push(("expect-message", n));
            }
        }
        if let Some(name) = handle_name(c) {
            s.handles.push(name.to_owned());
            let above = lines[..k].iter().rev().map(|&(_, c)| c);
            let mut attributes = above.take_while(|c| c.is_empty() || c.starts_with("#["));
            if !attributes.any(|c| c.starts_with("#[must_use")) {
                s.findings.push(("must-use-handle", n));
            }
        }
        let copies = c.contains(".clone()") || c.contains(".to_vec()");
        if copies && path.contains("crates/radix/src/") {
            s.findings.push(("edge-clone", n));
        }
    }
    s
}

/// Every `.rs` file under `dir` and its source, outside `tests/` directories.
fn sources(dir: &Path, out: &mut Vec<(PathBuf, String)>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for path in entries.map(|e| e.unwrap().path()) {
        if path.is_dir() && !path.ends_with("tests") {
            sources(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push((path.clone(), std::fs::read_to_string(path).unwrap()));
        }
    }
}

/// The files of the modules `file` declares as `#[cfg(test)] mod name;`.
fn test_only_modules(file: &Path, src: &str) -> Vec<PathBuf> {
    let dir = match file.file_stem().unwrap().to_str().unwrap() {
        "mod" | "lib" => file.with_file_name(""),
        stem => file.with_file_name(stem),
    };
    let lines: Vec<&str> = src.lines().map(code).collect();
    let names = lines.windows(2).filter(|w| w[0] == "#[cfg(test)]");
    let names = names.filter_map(|w| w[1].strip_prefix("mod ")?.strip_suffix(';'));
    names.map(|m| dir.join(format!("{m}.rs"))).collect()
}

#[test]
fn lib_code_keeps_the_source_contracts() {
    let mut files = Vec::new();
    for krate in CRATES {
        let before = files.len();
        sources(Path::new(&format!("crates/{krate}/src")), &mut files);
        assert!(files.len() > before, "crates/{krate}/src has no .rs file");
    }
    let test_only: Vec<PathBuf> = (files.iter())
        .flat_map(|(f, src)| test_only_modules(f, src))
        .collect();
    let (mut findings, mut expects, mut handles) = (Vec::new(), 0, Vec::new());
    for (file, src) in files.iter().filter(|(f, _)| !test_only.contains(f)) {
        let s = scan(&file.to_string_lossy(), src);
        let at = |(rule, line)| format!("{}:{line}: [{rule}]", file.display());
        findings.extend(s.findings.into_iter().map(at));
        expects += s.expects;
        handles.extend(s.handles);
    }
    let findings = findings.join("\n");
    assert!(findings.is_empty(), "source contracts broken:\n{findings}");
    // Non-vacuity: the scan read the code it guards.
    assert!(expects >= 20, "only {expects} lib `.expect(` sites seen");
    for handle in ["PinTicket", "SessionCursor", "MatchCursor"] {
        assert!(handles.contains(&handle.to_owned()), "{handle} not seen");
    }
}

// The four fixtures, ported: each rule's seeded violation is reported at its
// rule and line, and its allowed forms are not.
const CORE: &str = "crates/core/src/a.rs";
const RADIX: &str = "crates/radix/src/label.rs";

#[test]
fn expect_needs_contract_prefix() {
    let bare = "fn f(x: Option<u8>) -> u8 {\n    x.expect(\"oops\");\n    x.expect(\n\n        \"oops\",\n    )\n}";
    let expected = [("expect-message", 2), ("expect-message", 3)];
    assert_eq!(scan(CORE, bare).findings, expected);
    let clean = r#"fn f(x: Option<u8>, l: &std::sync::Mutex<u8>) -> u8 {
    let _ = l.lock().expect("lock: poisoned");
    x.expect(
        "invariant: the caller checked",
    )
}"#;
    let s = scan(CORE, clean);
    assert!(s.findings.is_empty(), "{:?}", s.findings);
    assert_eq!(s.expects, 2);
}

#[test]
fn must_use_handles() {
    let leaky =
        "/// Pins a path.\n#[derive(Debug)]\npub struct LeakyPinTicket {\n    pub node: u32,\n}";
    assert_eq!(scan(CORE, leaky).findings, [("must-use-handle", 3)]);
    let clean = r#"#[derive(Debug)]
#[must_use = "dropping it leaks the pin"]
pub struct PinTicket(u32);

/// No prefix, so no handle type.
pub struct Handle;"#;
    let s = scan(CORE, clean);
    assert!(s.findings.is_empty(), "{:?}", s.findings);
    assert_eq!(s.handles, ["PinTicket"]);
}

#[test]
fn edge_clone_denied_in_radix_hot_paths_only() {
    let copies = "fn absorb(h: &[u32]) -> Vec<u32> {\n    h.to_vec()\n}\n\nfn snap(e: &Vec<u32>) -> Vec<u32> {\n    e.clone()\n}";
    let found = |path| scan(path, copies).findings;
    assert_eq!(found(RADIX), [("edge-clone", 2), ("edge-clone", 6)]);
    assert!(found(CORE).is_empty(), "edge-clone is radix-only");
}

#[test]
fn test_code_is_exempt() {
    let tests = "fn f() {}\n\n#[cfg(test)]\nmod tests {\n    fn t(x: Option<u8>, v: &[u8]) -> Vec<u8> {\n        x.expect(\"oops\");\n        v.to_vec()\n    }\n    struct LeakyGuard;\n}";
    let s = scan(RADIX, tests);
    assert!(s.findings.is_empty(), "{:?}", s.findings);
    assert_eq!((s.expects, s.handles.len()), (0, 0));
}
