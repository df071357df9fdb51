//! `unwrap-in-request-path` — `unwrap`/`expect`/`panic!` where bytes
//! from outside the process are handled: `hypdb-serve` request
//! handling, the wire schema and SQL front-end a request body passes
//! through, and CSV ingest.
//!
//! A panicking request worker tears down its connection mid-response
//! (or, on the acceptor, the whole server); malformed input and full
//! queues must surface as status codes (400/413/503), never as panics.
//! CSV bytes come from outside the process exactly as request bytes
//! do: a malformed file must surface as an `Error::Csv`, never as a
//! panic in the CLI or in a server loading its datasets. The same goes
//! for the JSON and SQL text of a request: a query nobody anticipated
//! must come back as a 400, not take its worker down.
//!
//! This rule covers `crates/serve/src/` minus `client.rs` (the
//! loopback test/bench client panics on setup failure by design), the
//! request-text path ([`REQUEST_TEXT`]), the ingest path
//! ([`INGEST_FILES`]), and never `#[cfg(test)]` code.
//! Structurally unreachable cases should be rewritten (`let … else`,
//! `unwrap_or_else`) — or, where a panic is genuinely the right
//! response to a broken invariant, allow-listed with the invariant
//! spelled out.

use super::{push, Rule};
use crate::source::SourceFile;
use crate::Diagnostic;

/// Panicking constructs.
const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Where a request's JSON and SQL text is parsed, bound and rendered:
/// the wire schema and the whole SQL crate.
const REQUEST_TEXT: &[&str] = &["crates/core/src/wire.rs", "crates/sql/src/"];

/// The CSV ingest path: the block reader and its sharded sink.
const INGEST_FILES: &[&str] = &["crates/table/src/csv.rs", "crates/store/src/ingest.rs"];

/// The rule.
pub struct UnwrapInRequestPath;

impl Rule for UnwrapInRequestPath {
    fn name(&self) -> &'static str {
        "unwrap-in-request-path"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        // In scope: serve request handling, request text and CSV
        // ingest — plus this rule's own fixture directory, so pointing
        // the binary at the fixtures still exercises the rule (their
        // paths lack the prefixes).
        let in_scope = file.path.starts_with("crates/serve/src/")
            || REQUEST_TEXT.iter().any(|p| file.path.starts_with(p))
            || INGEST_FILES.contains(&file.path.as_str())
            || file.path.contains("unwrap-in-request-path/");
        if !in_scope || file.path.ends_with("/client.rs") {
            return;
        }
        for line in 0..file.len() {
            if file.in_test_code(line) {
                continue;
            }
            let code = &file.code[line];
            for token in PANIC_TOKENS {
                let mut from = 0;
                while let Some(rel) = code[from..].find(token) {
                    let pos = from + rel;
                    from = pos + token.len();
                    push(
                        out,
                        file,
                        line,
                        pos,
                        self.name(),
                        format!(
                            "`{}` can panic in the request path; return an error \
                             status instead, restructure (`let … else`, \
                             `unwrap_or_else`), or lint:allow with the invariant \
                             that makes it unreachable",
                            token.trim_start_matches('.').trim_end_matches('(')
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::testutil::run_rule;

    const ACCEPT: &str = include_str!("../../fixtures/unwrap-in-request-path/accept.rs");
    const REJECT: &str = include_str!("../../fixtures/unwrap-in-request-path/reject.rs");

    #[test]
    fn accept_fixture_is_clean() {
        let diags = run_rule(&UnwrapInRequestPath, "crates/serve/src/server.rs", ACCEPT);
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn reject_fixture_fires() {
        let diags = run_rule(&UnwrapInRequestPath, "crates/serve/src/server.rs", REJECT);
        assert!(diags.len() >= 3, "got {}: {diags:?}", diags.len());
        assert!(diags.iter().all(|d| d.rule == "unwrap-in-request-path"));
    }

    const INGEST_ACCEPT: &str =
        include_str!("../../fixtures/unwrap-in-request-path/ingest_accept.rs");
    const INGEST_REJECT: &str =
        include_str!("../../fixtures/unwrap-in-request-path/ingest_reject.rs");

    #[test]
    fn ingest_path_is_in_scope() {
        for path in INGEST_FILES {
            let diags = run_rule(&UnwrapInRequestPath, path, INGEST_ACCEPT);
            assert!(diags.is_empty(), "{path}: unexpected: {diags:?}");
            let diags = run_rule(&UnwrapInRequestPath, path, INGEST_REJECT);
            assert_eq!(diags.len(), 3, "{path}: {diags:?}");
        }
    }

    const WIRE_ACCEPT: &str = include_str!("../../fixtures/unwrap-in-request-path/wire_accept.rs");
    const WIRE_REJECT: &str = include_str!("../../fixtures/unwrap-in-request-path/wire_reject.rs");

    #[test]
    fn request_text_is_in_scope() {
        for path in [
            "crates/core/src/wire.rs",
            "crates/sql/src/parser.rs",
            "crates/sql/src/exec.rs",
        ] {
            let diags = run_rule(&UnwrapInRequestPath, path, WIRE_ACCEPT);
            assert!(diags.is_empty(), "{path}: unexpected: {diags:?}");
            let diags = run_rule(&UnwrapInRequestPath, path, WIRE_REJECT);
            assert_eq!(diags.len(), 4, "{path}: {diags:?}");
        }
    }

    #[test]
    fn the_rest_of_the_storage_crates_is_out_of_scope() {
        for path in ["crates/table/src/column.rs", "crates/store/src/sharded.rs"] {
            assert!(run_rule(&UnwrapInRequestPath, path, INGEST_REJECT).is_empty());
        }
    }

    #[test]
    fn other_crates_are_out_of_scope() {
        let diags = run_rule(&UnwrapInRequestPath, "crates/core/src/pipeline.rs", REJECT);
        assert!(diags.is_empty());
    }

    #[test]
    fn client_module_is_out_of_scope() {
        let diags = run_rule(&UnwrapInRequestPath, "crates/serve/src/client.rs", REJECT);
        assert!(diags.is_empty());
    }
}
