//! Per-file identifier → "unordered hash container" binding scan.
//!
//! Token-level type inference: an identifier counts as hash-bound when
//! the file declares it with a hash-container type annotation (`let`,
//! struct field, or fn parameter — `name: FxHashMap<…>`, possibly
//! inside shared-ownership wrappers like `Arc<Mutex<…>>`) or
//! initialises it from a hash-container constructor path
//! (`HashMap::new()`, `FxHashSet::default()`, `Memo::default()`).
//! Wrappers that impose an order of their own (`Vec<…>`, `Box<[…]>`)
//! block the binding: iterating a *slice of* maps is ordered.
//!
//! This is deliberately heuristic: a miss means a finding the dynamic
//! determinism tests must catch instead, a false hit costs one reasoned
//! `lint:allow`. Both are cheap; silent nondeterminism is not.

use crate::source::SourceFile;
use std::collections::BTreeSet;

/// Container type names treated as unordered. `FxHashMap`/`FxHashSet`
/// are caught by suffix match, `Memo` is `hypdb_causal`'s once-per-key
/// cache (a hash map of cells underneath).
const HASH_SUFFIXES: &[&str] = &["HashMap", "HashSet", "Memo"];

/// Ownership/interior-mutability wrappers to peel when walking from a
/// hash type token back to the declared name.
const PEELABLE: &[&str] = &[
    "Arc", "Rc", "Mutex", "RwLock", "Box", "Option", "Cell", "RefCell", "OnceLock",
];

/// Identifiers bound to unordered hash containers in one file.
pub struct Bindings {
    names: BTreeSet<String>,
}

impl Bindings {
    /// True when `name` is hash-bound.
    pub fn contains(&self, name: &str) -> bool {
        self.names.contains(name)
    }

    /// The bound names, in sorted order (deterministic reporting).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }
}

/// Scans the whole file for hash-container bindings.
pub fn hash_bindings(file: &SourceFile) -> Bindings {
    let mut names = BTreeSet::new();
    for line in 0..file.len() {
        bind_annotations(&file.code[line], &mut names);
        bind_constructor_lets(file, line, &mut names);
    }
    Bindings { names }
}

/// `name: FxHashMap<…>` / `name: Arc<Mutex<HashMap<…>>>` — find each
/// hash type token and walk back through peelable wrappers to a `:`
/// preceded by an identifier.
fn bind_annotations(code: &str, names: &mut BTreeSet<String>) {
    for suffix in HASH_SUFFIXES {
        let token = format!("{suffix}<");
        let mut from = 0;
        while let Some(rel) = code[from..].find(&token) {
            let pos = from + rel;
            from = pos + token.len();
            // Expand to the start of the word (`FxHashMap<` matched via
            // `HashMap<`): the full word must *end* with the suffix.
            let word_start = code[..pos]
                .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
                .map_or(0, |p| p + 1);
            if !code[word_start..pos + suffix.len()].ends_with(suffix) {
                continue;
            }
            if let Some(name) = declared_name_before(code, word_start) {
                names.insert(name);
            }
        }
    }
}

/// Walks back from a type expression start over peelable wrappers and
/// reference sigils to `name:`; returns the name.
fn declared_name_before(code: &str, mut type_start: usize) -> Option<String> {
    loop {
        let before = code[..type_start].trim_end();
        if let Some(stripped) = before.strip_suffix('<') {
            // `Wrapper<` — peel only known ownership wrappers; anything
            // else (`Vec<`, `[`) imposes its own order or isn't a
            // direct binding.
            let w = stripped.trim_end();
            let word_start = w
                .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
                .map_or(0, |p| p + 1);
            if !PEELABLE.contains(&&w[word_start..]) {
                return None;
            }
            type_start = word_start;
        } else if before.ends_with('&') {
            type_start = code[..type_start].rfind('&').unwrap_or(0);
        } else if trailing_lifetime(before).is_some() {
            type_start = trailing_lifetime(before).expect("checked above");
        } else if before.ends_with("mut") || before.ends_with("dyn") {
            type_start = before.len() - 3;
        } else if let Some(stripped) = before.strip_suffix(':') {
            // `name:` — but `::` is a path, not an annotation.
            if stripped.ends_with(':') {
                return None;
            }
            let w = stripped.trim_end();
            let word_start = w
                .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
                .map_or(0, |p| p + 1);
            let name = &w[word_start..];
            return (!name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit()))
                .then(|| name.to_string());
        } else {
            return None;
        }
    }
}

/// Byte offset of a trailing `'lifetime` token (`&'a `), if present.
fn trailing_lifetime(before: &str) -> Option<usize> {
    let word_start = before
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_' || c == '\''))
        .map_or(0, |p| p + 1);
    before[word_start..].starts_with('\'').then_some(word_start)
}

/// `let [mut] name = <expr with HashMap::…>;` — constructor-based
/// binding for un-annotated `let`s. The expression window spans the
/// statement (multi-line `let`s included).
fn bind_constructor_lets(file: &SourceFile, line: usize, names: &mut BTreeSet<String>) {
    let code = &file.code[line];
    for pos in crate::source::find_words(code, "let") {
        let rest = &code[pos + 3..];
        let rest = rest.trim_start();
        let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
        let name_end = rest
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        let name = &rest[..name_end];
        if name.is_empty() {
            continue;
        }
        // Annotated lets are handled by `bind_annotations`; here only
        // the `= Constructor::…` form matters.
        let window = file.statement_window(line, 0);
        let Some(eq) = window.find('=') else { continue };
        let rhs = &window[eq + 1..];
        let constructed = HASH_SUFFIXES
            .iter()
            .any(|s| rhs.contains(&format!("{s}::")));
        if constructed {
            names.insert(name.to_string());
        }
    }
}

/// Extracts the receiver chain ending just before byte `dot_pos` (the
/// `.` of a method call): `inner.map` for `inner.map.iter()`. Returns
/// the chain's final segment.
pub fn receiver_last_segment(code: &str, dot_pos: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    let mut start = dot_pos;
    while start > 0 {
        let b = bytes[start - 1];
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' {
            start -= 1;
        } else {
            break;
        }
    }
    let chain = &code[start..dot_pos];
    let last = chain.rsplit('.').next()?;
    (!last.is_empty() && !last.as_bytes()[0].is_ascii_digit()).then_some(last)
}

/// For a `for … in <expr> {` line, the iterated expression's final
/// identifier segment when the expression is a plain (possibly
/// referenced) identifier chain: `for (k, v) in &self.map {` → `map`.
pub fn for_loop_iterated_ident(code: &str) -> Option<&str> {
    let for_pos = crate::source::find_words(code, "for").into_iter().next()?;
    let in_rel = code[for_pos..].find(" in ")?;
    let expr_start = for_pos + in_rel + 4;
    let expr_end = code[expr_start..]
        .find('{')
        .map_or(code.len(), |p| expr_start + p);
    let expr = code[expr_start..expr_end].trim();
    let expr = expr.trim_start_matches(['&', '*']).trim_start();
    let expr = expr.strip_prefix("mut ").unwrap_or(expr).trim();
    // Identifier chains only — ranges (`0..n`) and method calls are
    // not direct container iterations (calls are matched separately).
    if expr.is_empty()
        || expr.contains("..")
        || expr.starts_with(|c: char| c.is_ascii_digit())
        || !expr
            .chars()
            .all(|c| c.is_alphanumeric() || c == '_' || c == '.')
    {
        return None;
    }
    expr.rsplit('.').next().filter(|s| !s.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(text: &str) -> SourceFile {
        SourceFile::parse("crates/x/src/lib.rs".into(), text, &[])
    }

    #[test]
    fn binds_let_annotations_and_fields() {
        let f = file(
            "struct S { cache: Mutex<FxHashMap<u64, u32>>, shards: Box<[Mutex<HashMap<K, V>>]> }\n\
             fn f(m: &FxHashMap<u32, u32>) {\n\
             let mut groups: FxHashMap<Box<[u32]>, u64> = FxHashMap::default();\n\
             let seen = std::collections::HashSet::new();\n\
             let counts: BTreeMap<u32, u32> = BTreeMap::new();\n\
             }\n",
        );
        let b = hash_bindings(&f);
        assert!(b.contains("cache"), "peels Mutex");
        assert!(!b.contains("shards"), "slice wrapper blocks binding");
        assert!(b.contains("m"), "fn param");
        assert!(b.contains("groups"));
        assert!(b.contains("seen"), "constructor let");
        assert!(!b.contains("counts"), "BTreeMap is ordered");
    }

    #[test]
    fn memo_binds() {
        let f = file("struct C { counts: Memo<Vec<A>, Arc<T>> }\n");
        assert!(hash_bindings(&f).contains("counts"));
    }

    #[test]
    fn receiver_chains() {
        let code = "let x = inner.map.iter().min();";
        let dot = code.find(".iter").unwrap();
        assert_eq!(receiver_last_segment(code, dot), Some("map"));
        let code2 = "self.cache.counts.fold(None, |a, b, c| a);";
        let dot2 = code2.find(".fold").unwrap();
        assert_eq!(receiver_last_segment(code2, dot2), Some("counts"));
    }

    #[test]
    fn for_loop_idents() {
        assert_eq!(
            for_loop_iterated_ident("for (k, v) in &self.map {"),
            Some("map")
        );
        assert_eq!(for_loop_iterated_ident("for x in 0..n {"), None);
        assert_eq!(for_loop_iterated_ident("for s in m.values() {"), None);
    }
}
