//! `nondeterministic-iteration` — iterating a `HashMap`/`HashSet`
//! (including the oracle's `Memo`) in code that contributes to
//! report or wire bytes.
//!
//! Hash-map iteration order is a function of the hasher and the
//! insertion history: with `RandomState` it changes across *runs*, with
//! a fixed hasher (`FxHashMap`) it still changes whenever the insertion
//! path changes (a cache hit vs a fresh scan, another thread count)
//! — exactly the configuration axes the workspace promises never alter
//! a single output byte. An iteration is accepted when the surrounding
//! statement (plus two look-ahead lines) shows an order-insensitive
//! sink — a `sort` of the drained items, an exact count/len/integer
//! sum, a min/max under a total order, or a collect into an ordered
//! `BTreeMap`/`BTreeSet`. Everything else must either be rewritten
//! (sort before emit, or switch to `BTreeMap`) or carry a reasoned
//! `lint:allow(nondeterministic-iteration)`.
//!
//! Test-only code (`#[cfg(test)]`, `tests/`, `examples/`, benches) is
//! out of scope: it produces no report bytes.

use super::{push, Rule};
use crate::bindings::{self, hash_bindings};
use crate::source::SourceFile;
use crate::Diagnostic;

/// Methods that visit entries in hash order.
const ITER_METHODS: &[&str] = &[
    "iter()",
    "iter_mut()",
    "keys()",
    "values()",
    "values_mut()",
    "into_iter()",
    "into_keys()",
    "into_values()",
    "drain(",
    "fold(",
    "retain(",
];

/// Statement-window tokens that make hash-order iteration harmless:
/// sorted afterwards, reduced exactly/commutatively, or re-ordered into
/// an ordered container.
const ORDER_INSENSITIVE_SINKS: &[&str] = &[
    ".sort",
    "sort_unstable",
    "sort_by",
    ".count()",
    ".len()",
    ".sum::<u",
    ".sum::<i",
    ".sum::<usize",
    ".min()",
    ".max()",
    ".min_by(",
    ".max_by(",
    ".min_by_key(",
    ".max_by_key(",
    ".all(",
    ".any(",
    "BTreeMap",
    "BTreeSet",
];

/// The rule.
pub struct NondeterministicIteration;

impl Rule for NondeterministicIteration {
    fn name(&self) -> &'static str {
        "nondeterministic-iteration"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if file.is_test_or_bench_path() {
            return;
        }
        let bound = hash_bindings(file);
        for line in 0..file.len() {
            if file.in_test_code(line) {
                continue;
            }
            let code = &file.code[line];
            // Method-call iteration: `m.values()`, `self.cache.counts.fold(`.
            for method in ITER_METHODS {
                let needle = format!(".{method}");
                let mut from = 0;
                while let Some(rel) = code[from..].find(&needle) {
                    let pos = from + rel;
                    from = pos + needle.len();
                    // A chain broken before the call (`self.cache.counts` /
                    // `.fold(`) has its receiver at the end of the line above.
                    let recv = if line > 0 && code[..pos].trim().is_empty() {
                        let above = file.code[line - 1].trim_end();
                        bindings::receiver_last_segment(above, above.len())
                    } else {
                        bindings::receiver_last_segment(code, pos)
                    };
                    let Some(recv) = recv else {
                        continue;
                    };
                    if !bound.contains(recv) {
                        continue;
                    }
                    if self.sink_exempt(file, line) {
                        continue;
                    }
                    let m = method.trim_end_matches('(').trim_end_matches("()");
                    push(
                        out,
                        file,
                        line,
                        pos,
                        self.name(),
                        format!(
                            "`{recv}.{m}` visits a hash container in nondeterministic \
                             order; sort before emitting, reduce order-insensitively, \
                             use a BTreeMap, or lint:allow with a reason"
                        ),
                    );
                }
            }
            // Direct `for … in &m` iteration.
            if let Some(ident) = bindings::for_loop_iterated_ident(code) {
                if bound.contains(ident) && !self.sink_exempt(file, line) {
                    let col = code.find("for").unwrap_or(0);
                    push(
                        out,
                        file,
                        line,
                        col,
                        self.name(),
                        format!(
                            "`for … in {ident}` visits a hash container in \
                             nondeterministic order; sort before emitting, reduce \
                             order-insensitively, use a BTreeMap, or lint:allow with \
                             a reason"
                        ),
                    );
                }
            }
        }
    }
}

impl NondeterministicIteration {
    fn sink_exempt(&self, file: &SourceFile, line: usize) -> bool {
        let window = file.statement_window(line, 2);
        ORDER_INSENSITIVE_SINKS.iter().any(|s| window.contains(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::testutil::run_rule;

    const ACCEPT: &str = include_str!("../../fixtures/nondeterministic-iteration/accept.rs");
    const REJECT: &str = include_str!("../../fixtures/nondeterministic-iteration/reject.rs");

    #[test]
    fn accept_fixture_is_clean() {
        let diags = run_rule(&NondeterministicIteration, "crates/core/src/x.rs", ACCEPT);
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn reject_fixture_fires() {
        let diags = run_rule(&NondeterministicIteration, "crates/core/src/x.rs", REJECT);
        assert!(
            diags.len() >= 3,
            "expected ≥ 3 findings, got {}: {diags:?}",
            diags.len()
        );
        assert!(diags.iter().all(|d| d.rule == "nondeterministic-iteration"));
    }

    #[test]
    fn a_receiver_on_the_line_above_is_followed() {
        let src = "struct C { counts: Memo<Vec<u32>, u64> }\n\
                   fn f(c: &C) -> u64 {\n    c\n        .counts\n        .fold(0, |a, _, &v| a ^ v)\n}\n";
        let diags = run_rule(&NondeterministicIteration, "crates/core/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 5);
    }

    #[test]
    fn test_paths_are_out_of_scope() {
        let diags = run_rule(&NondeterministicIteration, "tests/determinism.rs", REJECT);
        assert!(diags.is_empty());
    }
}
