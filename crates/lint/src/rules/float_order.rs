//! `float-reduction-order` — floating-point accumulation in hash-map
//! iteration order.
//!
//! Float addition is not associative: summing the same multiset of
//! terms in two different orders can differ in the last ulp, and a
//! last-ulp difference at an `alpha` threshold flips a verdict. The
//! workspace's parallel reductions are safe by construction (a pool
//! fan-out returns its results in item order, never in completion
//! order) — the residual risk is accumulating floats while
//! walking a hash container, where the term *order* is the container's
//! iteration order. Two shapes are flagged:
//!
//! * a `for` loop over a hash-bound container whose body `+=`/`-=`
//!   into a float accumulator, and
//! * a same-statement chain `m.values().…sum::<f64>()` (or
//!   `fold(0.0…)`/`product`).
//!
//! Fix by sorting the entries first (canonical order), switching the
//! container to `BTreeMap`, or accumulating exactly (integer counts)
//! and converting once.

use super::{push, Rule};
use crate::bindings::{self, hash_bindings};
use crate::source::SourceFile;
use crate::Diagnostic;
use std::collections::BTreeSet;

/// Same-statement float reduction chain markers.
const FLOAT_CHAIN_SINKS: &[&str] = &[
    ".sum::<f64>",
    ".sum::<f32>",
    ".product::<f64>",
    ".product::<f32>",
    ".fold(0.0",
    ".fold(0f64",
    ".fold(0f32",
];

/// Hash-order iteration starters (subset of the iteration rule's list
/// that yields entry streams).
const ITER_METHODS: &[&str] = &[
    "iter()",
    "values()",
    "into_values()",
    "into_iter()",
    "drain(",
];

/// The rule.
pub struct FloatReductionOrder;

impl Rule for FloatReductionOrder {
    fn name(&self) -> &'static str {
        "float-reduction-order"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if file.is_test_or_bench_path() {
            return;
        }
        let bound = hash_bindings(file);
        let floats = float_accumulators(file);
        for line in 0..file.len() {
            if file.in_test_code(line) {
                continue;
            }
            let code = &file.code[line];

            // Same-statement chain: `m.values().map(…).sum::<f64>()`.
            for method in ITER_METHODS {
                let needle = format!(".{method}");
                if let Some(pos) = code.find(&needle) {
                    let Some(recv) = bindings::receiver_last_segment(code, pos) else {
                        continue;
                    };
                    if !bound.contains(recv) {
                        continue;
                    }
                    let window = file.statement_window(line, 0);
                    if let Some(sink) = FLOAT_CHAIN_SINKS.iter().find(|s| window.contains(*s)) {
                        push(
                            out,
                            file,
                            line,
                            pos,
                            self.name(),
                            format!(
                                "float reduction `{}` over `{recv}`'s hash-order \
                                 entries; sort the terms first or accumulate exactly",
                                sink.trim_start_matches('.')
                            ),
                        );
                    }
                }
            }

            // Loop accumulation: `for v in m.values() { acc += …; }`.
            let loops_hash = hash_iter_loop_receiver(code, &bound);
            if let Some(recv) = loops_hash {
                for (body_line, body_code) in loop_body(file, line) {
                    for acc in &floats {
                        let pat_add = format!("{acc} +=");
                        let pat_sub = format!("{acc} -=");
                        let hit = body_code
                            .find(&pat_add)
                            .or_else(|| body_code.find(&pat_sub));
                        if let Some(pos) = hit {
                            if crate::source::word_at(&body_code, pos, acc) {
                                push(
                                    out,
                                    file,
                                    body_line,
                                    pos,
                                    self.name(),
                                    format!(
                                        "float accumulator `{acc}` updated while \
                                         iterating hash container `{recv}`; the sum \
                                         order is the container's iteration order — \
                                         sort the entries first"
                                    ),
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `for … in m.values() {` / `for … in &m {` — the hash-bound receiver
/// iterated by a `for` loop on this line, if any.
fn hash_iter_loop_receiver(code: &str, bound: &crate::bindings::Bindings) -> Option<String> {
    if crate::source::find_words(code, "for").is_empty() || !code.contains(" in ") {
        return None;
    }
    if let Some(ident) = bindings::for_loop_iterated_ident(code) {
        if bound.contains(ident) {
            return Some(ident.to_string());
        }
    }
    for method in ITER_METHODS {
        let needle = format!(".{method}");
        if let Some(pos) = code.find(&needle) {
            if let Some(recv) = bindings::receiver_last_segment(code, pos) {
                if bound.contains(recv) {
                    return Some(recv.to_string());
                }
            }
        }
    }
    None
}

/// Lines of the brace-matched body of the loop opening on `line`.
fn loop_body(file: &SourceFile, line: usize) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut opened = false;
    for l in line..file.len() {
        for ch in file.code[l].chars() {
            match ch {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if l > line {
            out.push((l, file.code[l].clone()));
        }
        if opened && depth <= 0 {
            break;
        }
    }
    out
}

/// Identifiers declared as float accumulators: `let mut x = 0.0`,
/// `let mut x: f64`, `let mut x = 0f32;`.
fn float_accumulators(file: &SourceFile) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in 0..file.len() {
        let code = &file.code[line];
        for pos in crate::source::find_words(code, "let") {
            let rest = code[pos + 3..].trim_start();
            let Some(rest) = rest.strip_prefix("mut ") else {
                continue;
            };
            let rest = rest.trim_start();
            let name_end = rest
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            let name = &rest[..name_end];
            if name.is_empty() {
                continue;
            }
            let after = rest[name_end..].trim_start();
            let is_float = if let Some(ann) = after.strip_prefix(':') {
                let t = ann.trim_start();
                t.starts_with("f64") || t.starts_with("f32")
            } else if let Some(rhs) = after.strip_prefix('=') {
                let t = rhs.trim_start();
                float_literal(t)
            } else {
                false
            };
            if is_float {
                out.insert(name.to_string());
            }
        }
    }
    out
}

/// True when `t` starts with a float literal (`0.0`, `1.5f64`, `0f32`).
fn float_literal(t: &str) -> bool {
    let digits = t.chars().take_while(|c| c.is_ascii_digit()).count();
    if digits == 0 {
        return false;
    }
    let rest = &t[digits..];
    rest.starts_with('.') && rest[1..].starts_with(|c: char| c.is_ascii_digit())
        || rest.starts_with("f64")
        || rest.starts_with("f32")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::testutil::run_rule;

    const ACCEPT: &str = include_str!("../../fixtures/float-reduction-order/accept.rs");
    const REJECT: &str = include_str!("../../fixtures/float-reduction-order/reject.rs");

    #[test]
    fn accept_fixture_is_clean() {
        let diags = run_rule(&FloatReductionOrder, "crates/stats/src/x.rs", ACCEPT);
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn reject_fixture_fires() {
        let diags = run_rule(&FloatReductionOrder, "crates/stats/src/x.rs", REJECT);
        assert!(diags.len() >= 2, "got {}: {diags:?}", diags.len());
        assert!(diags.iter().all(|d| d.rule == "float-reduction-order"));
    }
}
