//! Every `pub fn` under `crates/*/src` has a caller outside the tests.
//!
//! The rule: a function's name must appear somewhere in the non-test source
//! under `crates/*/src`, `src/`, `examples/` or `benchmark/src`, other than
//! in its own definition, in comments, in string literals and in `pub use`
//! lines. Non-test means without the `#[cfg(test)]` items and the `tests.rs`
//! / `reference.rs` test modules. Names match as whole identifiers, so a
//! method shares its fate with every other function of the same name.
//!
//! A function that fails the rule is deleted, or kept in [`KEEP`] under one
//! of three exceptions:
//! - (a) `benchmark/` names it;
//! - (b) a committed document cites it as the home of a call or a result;
//! - (c) a test uses it as an oracle or fault hook for *other* code.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// The kept names the rule flags, as `name (exception) reason`.
const KEEP: &[&str] = &[
    "audit_group (c) paxos tests audit the replicated log the consensus actors build",
    "base_latency (c) net tests check transfer arrival times against the unloaded latency",
    "corrupt_in_flight (c) fault hook: a torn DMA write the ring's integrity check must reject",
    "debug_drop_inflight (c) fault hook: leaks a request so client.conservation must fire",
    "debug_drop_retry_deadline (c) fault hook: drops a deadline so client.retry.timer must fire",
    "decompress (c) round-trip oracle for the data-reduction NF's compress",
    "diff_dse_grid (c) bench::differential: sweep-axis oracle for the DSE grid",
    "diff_fig16_parallel (c) bench::differential: sweep-axis oracle for the Fig 16 grid",
    "diff_sharded (c) bench::differential: shard-axis oracle for every scenario",
    "estimate (c) reads back the count-min sketch the flow monitor updates",
    "first_divergence (c) bench::differential: names the metric a failed diff broke",
    "is_match (c) anchored oracle for the regex compiler the RTA filter uses",
    "ledger_diff (c) figure::ledger_diff compares a fresh figures run with the ledger",
    "memmove (b) core's Table 4 maps the paper's dmo_mmmove to it",
    "region_usage (c) DMO tests read back the accounting of malloc and free",
    "scan (c) walks the chain-replication log that append recycles",
    "scatter_gather_latency (b) EXPERIMENTS.md cites it as the scatter-gather result's home",
    "scv (c) checks the dispersion of ServiceDist, Fig 16's two regimes",
    "side_of (c) DMO tests read which side holds an object after a move",
    "stream_byte (c) TCP tests check delivered bytes against the sender's stream",
    "trace_len (c) obs tests read back what the trace ring recorded",
    "with_corruption (c) fault hook: net and runtime tests corrupt frames",
    "with_link_down (c) fault hook: net tests take a link down",
    "with_link_loss (c) fault hook: net tests drop one link's frames",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for p in entries.map(|e| e.unwrap().path()) {
        let name = p.file_name().unwrap().to_str().unwrap();
        if p.is_dir() {
            rust_files(&p, out);
        } else if name.ends_with(".rs") && name != "tests.rs" && name != "reference.rs" {
            out.push(p);
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `src` with comments dropped and string and char literals emptied; every
/// newline survives, so line numbers still point into the file.
fn code_only(src: &str) -> String {
    let s: Vec<char> = src.chars().collect();
    let at = |k: usize| s.get(k).copied().unwrap_or('\0');
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < s.len() {
        // The end of the span to skip, and what replaces it.
        let (end, with) = match (s[i], at(i + 1)) {
            ('/', '/') => (i + s[i..].iter().take_while(|&&c| c != '\n').count(), ""),
            ('/', '*') => {
                let (mut depth, mut j) = (0, i);
                loop {
                    match (at(j), at(j + 1)) {
                        ('/', '*') => (depth, j) = (depth + 1, j + 2),
                        ('*', '/') if depth == 1 => break (j + 2, ""),
                        ('*', '/') => (depth, j) = (depth - 1, j + 2),
                        ('\0', _) => break (j, ""),
                        _ => j += 1,
                    }
                }
            }
            ('r', '"' | '#') if i == 0 || !is_ident(at(i - 1)) || at(i - 1) == 'b' => {
                let hashes = s[i + 1..].iter().take_while(|&&c| c == '#').count();
                if at(i + 1 + hashes) != '"' {
                    (i + 1, "r")
                } else {
                    let body = i + 2 + hashes;
                    let closes = |j: &usize| s[*j] == '"' && (1..=hashes).all(|h| at(j + h) == '#');
                    (
                        (body..s.len())
                            .find(closes)
                            .map_or(s.len(), |j| j + 1 + hashes),
                        "\"\"",
                    )
                }
            }
            ('"', _) => {
                let mut j = i + 1;
                while j < s.len() && s[j] != '"' {
                    j += if s[j] == '\\' { 2 } else { 1 };
                }
                (j + 1, "\"\"")
            }
            ('\'', '\\') => (
                i + 4 + s[i + 3..].iter().take_while(|&&c| c != '\'').count(),
                "' '",
            ),
            ('\'', _) if at(i + 2) == '\'' => (i + 3, "' '"),
            (c, _) => {
                out.push(c);
                i += 1;
                continue;
            }
        };
        let end = end.min(s.len());
        out.push_str(with);
        out.extend(s[i..end].iter().filter(|&&c| c == '\n'));
        i = end;
    }
    out
}

/// Blank every `#[cfg(test)]` item and every `pub use` declaration: from the
/// marker to the first `;` outside brackets, or to the end of the first
/// brace block. Newlines survive.
fn drop_test_items_and_reexports(code: &str) -> String {
    let mut b = code.as_bytes().to_vec();
    for marker in ["#[cfg(test)]", "pub use "].map(str::as_bytes) {
        let mut from = 0;
        while let Some(p) = b[from..].windows(marker.len()).position(|w| w == marker) {
            let (p, mut depth, mut braces) = (from + p, 0i32, 0i32);
            let mut end = p + marker.len();
            while end < b.len() {
                match b[end] {
                    b'(' | b'[' => depth += 1,
                    b')' | b']' => depth -= 1,
                    b'{' if depth == 0 => braces += 1,
                    b'}' if depth == 0 => braces -= 1,
                    _ => {}
                }
                end += 1;
                if depth == 0 && braces == 0 && matches!(b[end - 1], b';' | b'}') {
                    break;
                }
            }
            b[p..end]
                .iter_mut()
                .filter(|c| **c != b'\n')
                .for_each(|c| *c = b' ');
            from = end;
        }
    }
    String::from_utf8(b).unwrap()
}

/// Identifiers of `code` in order, each with its 1-based line.
fn idents(code: &str) -> Vec<(&str, usize)> {
    let mut out = Vec::new();
    let (mut line, mut start) = (1, None);
    for (i, c) in code.char_indices().chain([(code.len(), ' ')]) {
        if is_ident(c) {
            start.get_or_insert(i);
            continue;
        }
        if let Some(s) = start.take() {
            out.push((&code[s..i], line));
        }
        line += usize::from(c == '\n');
    }
    out
}

#[test]
fn every_pub_fn_has_a_caller() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for crate_dir in fs::read_dir(repo.join("crates")).unwrap() {
        rust_files(&crate_dir.unwrap().path().join("src"), &mut files);
    }
    for root in ["src", "examples", "benchmark/src"] {
        rust_files(&repo.join(root), &mut files);
    }

    // Defined: `pub fn NAME` / `pub const fn NAME` under crates/*/src.
    // Used: every identifier other than the name a `fn` or `mod` defines.
    let mut defined: BTreeMap<String, String> = BTreeMap::new();
    let mut used: BTreeSet<String> = BTreeSet::new();
    for path in &files {
        let rel = path.strip_prefix(repo).unwrap().display().to_string();
        let code = drop_test_items_and_reexports(&code_only(&fs::read_to_string(path).unwrap()));
        let toks = idents(&code);
        for (k, &(tok, line)) in toks.iter().enumerate() {
            let before: Vec<&str> = toks[k.saturating_sub(3)..k]
                .iter()
                .rev()
                .map(|t| t.0)
                .collect();
            match before[..] {
                ["fn", "pub", ..] | ["fn", "const", "pub", ..] if rel.starts_with("crates") => {
                    defined
                        .entry(tok.to_string())
                        .or_insert(format!("{rel}:{line}"));
                }
                ["fn", ..] | ["mod", ..] => {}
                _ => {
                    used.insert(tok.to_string());
                }
            }
        }
    }

    let mut problems = Vec::new();
    let mut kept = BTreeSet::new();
    for entry in KEEP {
        let (name, why) = entry.split_once(' ').unwrap();
        let ok = ["(a) ", "(b) ", "(c) "].iter().any(|e| why.starts_with(e));
        assert!(
            ok && why.len() > 4,
            "KEEP entry `{entry}` needs (a)-(c) and a reason"
        );
        if !defined.contains_key(name) {
            problems.push(format!(
                "KEEP names `{name}`, which no crate defines any more"
            ));
        } else if used.contains(name) {
            problems.push(format!("KEEP names `{name}`, which now has a caller"));
        }
        kept.insert(name);
    }
    for (name, at) in &defined {
        if !used.contains(name) && !kept.contains(name.as_str()) {
            problems.push(format!("`{name}` ({at}) has no caller outside the tests"));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
