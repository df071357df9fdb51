//! `hypdb-lint` — the workspace determinism & safety analyzer.
//!
//! Every PR in this repository stakes correctness on one invariant:
//! reports are byte-identical across `HYPDB_THREADS` ×
//! `HYPDB_SHARD_ROWS` × batching on/off. The example-based pins in
//! `tests/determinism.rs` defend that invariant at a handful of
//! fixtures; this crate defends it at the *source* level, as a
//! token/line-level static analysis over the whole workspace
//! (`vendor/` excluded) with seven rules:
//!
//! | rule | defends against |
//! |------|-----------------|
//! | `nondeterministic-iteration` | emitting `HashMap`/`HashSet`/`ShardedMap` entries in hash order |
//! | `unseeded-rng` | RNG state not derived from the config seed / SplitMix64 streams |
//! | `wall-clock-in-output` | `Instant::now`/`SystemTime::now` leaking into report bytes |
//! | `raw-instant-outside-obs` | `Instant` plumbing that bypasses `hypdb_obs::{Tick, Deadline}` |
//! | `unsafe-without-safety-comment` | undocumented `unsafe` / FFI blocks |
//! | `unwrap-in-request-path` | panics in `hypdb-serve` request handling, wire/SQL request text and CSV ingest |
//! | `float-reduction-order` | float sums in hash-iteration order |
//!
//! Findings carry `file:line:col` spans; suppression is inline via
//! `// lint:allow(<rule>) — <reason>` (the reason is mandatory and the
//! directive syntax itself is checked). The report is deterministic:
//! files are walked in sorted order, diagnostics sorted by
//! `(path, line, col, rule)`, and nothing timestamped — two runs over
//! the same tree emit identical bytes. There is no `--fix`: every fix
//! is a reviewed code change.
//!
//! The binary (`cargo run -p hypdb-lint -- --check .`) exits nonzero
//! on any diagnostic and gates CI next to clippy;
//! `tests/workspace_clean.rs` asserts the workspace itself stays
//! clean under plain `cargo test`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::{Path, PathBuf};

pub mod bindings;
pub mod rules;
pub mod source;

/// One finding, spanned to `path:line:col` (1-based).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path (`/`-separated).
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (byte offset into the line).
    pub col: usize,
    /// Rule name (`lint:allow` target), or `invalid-allow`.
    pub rule: &'static str,
    /// Human-readable description with the suggested fix.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Directory names never descended into: vendored deps are not ours to
/// lint, build output and VCS metadata are not source, and the lint
/// fixtures *must* trip rules (that is their job).
const EXCLUDED_DIRS: &[&str] = &["vendor", "target", ".git", "fixtures", "node_modules"];

/// Collects every `.rs` file under `root` (excluding [`EXCLUDED_DIRS`])
/// in sorted relative-path order. A `root` that is itself a file is
/// linted as-is — its path is kept whole, so path-scoped rules still
/// see the directory context (`hypdb-lint --check path/to/file.rs`).
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    if root.is_file() {
        return Ok(vec![root.to_path_buf()]);
    }
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if path.is_dir() {
                if !EXCLUDED_DIRS.contains(&name.as_str()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints the workspace rooted at `root`; returns diagnostics sorted by
/// `(path, line, col, rule, message)` — a deterministic report.
pub fn run(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let rule_names = rules::names();
    let mut out = Vec::new();
    for path in collect_files(root)? {
        let rel = match path.strip_prefix(root) {
            // Empty when `root` is the file itself — keep the whole
            // path so path-scoped rules see the directory context.
            Ok(p) if !p.as_os_str().is_empty() => p.to_string_lossy().replace('\\', "/"),
            _ => path.to_string_lossy().replace('\\', "/"),
        };
        let text = std::fs::read_to_string(&path)?;
        let file = source::SourceFile::parse(rel, &text, &rule_names);
        rules::check_file(&file, &mut out);
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostic_display_is_span_first() {
        let d = Diagnostic {
            path: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 7,
            rule: "unseeded-rng",
            message: "boom".into(),
        };
        assert_eq!(d.to_string(), "crates/x/src/lib.rs:3:7: unseeded-rng: boom");
    }

    #[test]
    fn rule_names_are_kebab_and_unique() {
        let names = rules::names();
        assert_eq!(names.len(), 7);
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(names
            .iter()
            .all(|n| n.chars().all(|c| c.is_ascii_lowercase() || c == '-')));
    }
}
