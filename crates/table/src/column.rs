//! Dictionary-encoded categorical columns.

use crate::error::{Error, Result};
use crate::hash::hash_bytes;

/// The hash a value is filed under: the top half of [`hash_bytes`]
/// (its multiply leaves the low bits weak).
#[inline]
pub(crate) fn tag_of(value: &str) -> u32 {
    (hash_bytes(value.as_bytes()) >> 32) as u32
}

/// `a == b`, without a library call for the short strings categorical
/// values mostly are: up to 16 bytes compare as two overlapping words.
#[inline]
fn same(a: &[u8], b: &[u8]) -> bool {
    let n = a.len();
    if n != b.len() {
        return false;
    }
    let word =
        |s: &[u8], at: usize| <[u8; 8]>::try_from(&s[at..at + 8]).map_or(0, u64::from_le_bytes);
    let half =
        |s: &[u8], at: usize| <[u8; 4]>::try_from(&s[at..at + 4]).map_or(0, u32::from_le_bytes);
    match n {
        0 => true,
        1..=3 => a[0] == b[0] && a[n / 2] == b[n / 2] && a[n - 1] == b[n - 1],
        4..=7 => half(a, 0) == half(b, 0) && half(a, n - 4) == half(b, n - 4),
        8..=16 => word(a, 0) == word(b, 0) && word(a, n - 8) == word(b, n - 8),
        _ => a == b,
    }
}

/// One slot of an [`Index`]: an entry number + 1 (`0` = empty) and the
/// tag of that entry's value.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    entry: u32,
    tag: u32,
}

/// Smallest non-empty slot table.
const MIN_SLOTS: usize = 8;

/// An open-addressing index over a list of distinct values kept by its
/// owner: a power-of-two table of [`Slot`]s, linearly probed from the
/// top bits of the value's tag, at a load factor of at most one half.
/// A slot keeps its value's tag, so a probe compares values only on a
/// tag match and growth re-files slots without reading a value.
#[derive(Debug, Clone, Default)]
struct Index {
    slots: Vec<Slot>,
}

impl Index {
    /// The slot a probe for `tag` starts at. `slots` must be non-empty.
    fn home(&self, tag: u32) -> usize {
        let bits = self.slots.len().trailing_zeros();
        ((u64::from(tag) << 32) >> (64 - bits)) as usize
    }

    /// The entry filed under `tag` that `same` accepts, or the free slot
    /// the probe ended at (`None` while the table is still empty).
    fn find(
        &self,
        tag: u32,
        same: impl Fn(u32) -> bool,
    ) -> std::result::Result<u32, Option<usize>> {
        if self.slots.is_empty() {
            return Err(None);
        }
        // The load factor never exceeds one half, so a probe ends.
        let mask = self.slots.len() - 1;
        let mut at = self.home(tag);
        loop {
            let slot = self.slots[at];
            if slot.entry == 0 {
                return Err(Some(at));
            }
            if slot.tag == tag && same(slot.entry - 1) {
                return Ok(slot.entry - 1);
            }
            at = (at + 1) & mask;
        }
    }

    /// Files `entry`, the newest of `entry + 1` entries, under `tag` at
    /// the free slot a missed [`Index::find`] returned. A table that
    /// would pass the load factor is doubled first, re-filing every
    /// slot by its tag.
    fn insert(&mut self, free: Option<usize>, tag: u32, entry: u32) {
        let slot = Slot {
            entry: entry + 1,
            tag,
        };
        match free {
            Some(at) if (entry as usize + 1) * 2 <= self.slots.len() => self.slots[at] = slot,
            _ => {
                let grown = vec![Slot::default(); (self.slots.len() * 2).max(MIN_SLOTS)];
                let old = std::mem::replace(&mut self.slots, grown);
                for filed in old.into_iter().filter(|s| s.entry != 0).chain([slot]) {
                    let mask = self.slots.len() - 1;
                    let mut at = self.home(filed.tag);
                    while self.slots[at].entry != 0 {
                        at = (at + 1) & mask;
                    }
                    self.slots[at] = filed;
                }
            }
        }
    }
}

/// An order-of-first-appearance dictionary mapping category strings to
/// dense `u32` codes.
///
/// Every value is stored once, in one text arena (code order), with its
/// tag — the top half of its Fx hash. Lookup goes through an index
/// over the values: a probe reads a value only when the tags match, and
/// growth reads none. A value costs no allocation of its own, and a
/// dictionary merged into another ([`Column::append`]) hands over its
/// tags, so nothing is hashed twice.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    /// The values, concatenated in code order; value `c` ends at
    /// `ends[c]`.
    text: String,
    ends: Vec<usize>,
    /// Each value's tag, in code order.
    tags: Vec<u32>,
    index: Index,
}

impl Dictionary {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where value `code` starts in `text`.
    fn start(&self, code: usize) -> usize {
        code.checked_sub(1).map_or(0, |c| self.ends[c])
    }

    /// The code of `value`, filed under `tag`, or the free slot its
    /// probe ended at.
    fn find(&self, value: &str, tag: u32) -> std::result::Result<u32, Option<usize>> {
        self.index.find(tag, |code| {
            let code = code as usize;
            same(
                &self.text.as_bytes()[self.start(code)..self.ends[code]],
                value.as_bytes(),
            )
        })
    }

    /// [`Dictionary::intern`] for a value whose tag ([`tag_of`]) the
    /// caller already computed.
    pub(crate) fn intern_tagged(&mut self, value: &str, tag: u32) -> u32 {
        match self.find(value, tag) {
            Ok(code) => code,
            Err(free) => {
                let code = self.tags.len() as u32;
                self.text.push_str(value);
                self.ends.push(self.text.len());
                self.tags.push(tag);
                self.index.insert(free, tag, code);
                code
            }
        }
    }

    /// Interns a value, returning its (possibly fresh) code.
    pub fn intern(&mut self, value: &str) -> u32 {
        self.intern_tagged(value, tag_of(value))
    }

    /// Interns every value of `other` in its code order, each under the
    /// tag `other` keeps — a value this dictionary holds already is
    /// only looked up — and returns the code each got here, indexed by
    /// its code in `other`.
    fn absorb(&mut self, other: &Dictionary) -> Vec<u32> {
        (0..other.len())
            .map(|code| self.intern_tagged(other.value(code as u32), other.tags[code]))
            .collect()
    }

    /// Looks a value up without inserting.
    pub fn code(&self, value: &str) -> Option<u32> {
        self.find(value, tag_of(value)).ok()
    }

    /// The string for a code.
    pub fn value(&self, code: u32) -> &str {
        let code = code as usize;
        &self.text[self.start(code)..self.ends[code]]
    }

    /// Number of distinct values (the attribute's observed cardinality).
    #[inline]
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True when no value has been interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// All values in code order, copied out (production code reads
    /// [`Dictionary::value`]).
    pub fn values(&self) -> Vec<String> {
        (0..self.len() as u32)
            .map(|code| self.value(code).to_string())
            .collect()
    }
}

/// A dictionary-encoded column: one `u32` code per row.
#[derive(Debug, Clone, Default)]
pub struct Column {
    codes: Vec<u32>,
    dict: Dictionary,
}

impl Column {
    /// Empty column.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a column directly from codes and a dictionary. The caller
    /// guarantees every code is `< dict.len()`.
    pub fn from_parts(codes: Vec<u32>, dict: Dictionary) -> Self {
        debug_assert!(codes.iter().all(|&c| (c as usize) < dict.len().max(1)));
        Column { codes, dict }
    }

    /// Appends every row of `other`, which was encoded against its own
    /// dictionary: its values are interned here in its code order (its
    /// first-appearance order) and its codes remapped. Appending the
    /// pieces of a row stream in stream order assigns the codes pushing
    /// the rows one by one would have assigned. Only the values this
    /// column's dictionary lacks are copied, and none is hashed again.
    pub fn append(&mut self, other: Column) {
        let remap = self.dict.absorb(&other.dict);
        self.codes
            .extend(other.codes.iter().map(|&code| remap[code as usize]));
    }

    /// Appends a raw string value.
    pub fn push(&mut self, value: &str) {
        let code = self.dict.intern(value);
        self.codes.push(code);
    }

    /// Drops every row from `rows` on; the dictionary keeps its values.
    pub(crate) fn truncate(&mut self, rows: usize) {
        self.codes.truncate(rows);
    }

    /// Appends an already-interned code (must be valid for this dict).
    pub fn push_code(&mut self, code: u32) {
        debug_assert!((code as usize) < self.dict.len());
        self.codes.push(code);
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The code at `row`.
    #[inline]
    pub fn code_at(&self, row: usize) -> u32 {
        self.codes[row]
    }

    /// The string value at `row`.
    pub fn value_at(&self, row: usize) -> &str {
        self.dict.value(self.codes[row])
    }

    /// The raw code slice.
    #[inline]
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The dictionary.
    #[inline]
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Mutable access to the dictionary (for generators that pre-intern
    /// a domain before pushing codes).
    pub fn dict_mut(&mut self) -> &mut Dictionary {
        &mut self.dict
    }

    /// Observed cardinality (dictionary size).
    #[inline]
    pub fn cardinality(&self) -> u32 {
        self.dict.len() as u32
    }

    /// Per-code numeric interpretation: parses every dictionary entry as
    /// an `f64`. Fails on the first non-numeric entry.
    pub fn numeric_codes(&self, attr_name: &str) -> Result<Vec<f64>> {
        (0..self.cardinality())
            .map(|code| self.dict.value(code))
            .map(|v| {
                v.trim().parse::<f64>().map_err(|_| Error::NonNumericValue {
                    attr: attr_name.to_string(),
                    value: v.to_string(),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern("a"), 0);
        assert_eq!(d.intern("b"), 1);
        assert_eq!(d.intern("a"), 0);
        assert_eq!(d.len(), 2);
        assert_eq!(d.value(1), "b");
        assert_eq!(d.code("b"), Some(1));
        assert_eq!(d.code("zzz"), None);
    }

    /// Heavily duplicated, seeded strings of mixed length.
    fn seeded_strings(n: u64) -> impl Iterator<Item = String> {
        (0..n).map(|i| {
            let draw = hypdb_exec::seed::mix(0xD1C7, i);
            // Three in four draws come from 64 common values.
            let key = if draw % 4 == 0 { draw >> 8 } else { draw % 64 };
            match draw % 3 {
                0 => key.to_string(),
                1 => format!("value-{key}-é"),
                _ => format!("{:x}", key % 4096),
            }
        })
    }

    #[test]
    fn dictionary_agrees_with_a_map_model_through_growth_and_clone() {
        use std::collections::BTreeMap;
        let mut dict = Dictionary::new();
        let mut model: BTreeMap<String, u32> = BTreeMap::new();
        assert_eq!(dict.code("absent"), None);
        for (i, value) in seeded_strings(50_000).enumerate() {
            let fresh = model.len() as u32;
            let want = *model.entry(value.clone()).or_insert(fresh);
            // Alternate hashing here and interning under a given tag.
            let got = if i % 2 == 0 {
                dict.intern(&value)
            } else {
                dict.intern_tagged(&value, tag_of(&value))
            };
            assert_eq!(got, want, "{value:?}");
        }
        assert!(model.len() > 10_000, "the table grew many times");
        assert_eq!(dict.len(), model.len());
        let copy = dict.clone();
        for (value, &code) in &model {
            assert_eq!(dict.code(value), Some(code));
            assert_eq!(dict.value(code), value);
            assert_eq!(copy.code(value), Some(code));
            assert_eq!(dict.code(&format!("{value}?")), None);
        }
        assert_eq!(copy.values(), dict.values());
    }

    /// Distinct value number `k` of a universe: lengths 0 to 30, ASCII
    /// and not, so every branch of `same` and of the hash tail is hit.
    fn universe(k: u64) -> String {
        match k % 4 {
            _ if k == 0 => String::new(),
            0 => k.to_string(),
            1 => format!("x{k}"),
            2 => format!("{k}-ééé-a-longer-value-{k}"),
            _ => format!("{k:o}o"),
        }
    }

    /// A seeded stream of universe numbers: a fresh value (the next
    /// number) or a repeat of an earlier one, half and half. The first
    /// appearance of `k` is its `k`-th fresh draw, so a dictionary fed
    /// the stream must give `universe(k)` the code `k`.
    fn stream(seed: u64, len: u64) -> Vec<u64> {
        let mut fresh = 0;
        (0..len)
            .map(|i| {
                let draw = hypdb_exec::seed::mix(seed, i);
                if fresh == 0 || draw % 2 == 0 {
                    fresh += 1;
                    fresh - 1
                } else {
                    (draw >> 1) % fresh
                }
            })
            .collect()
    }

    /// The naive reference: values in first-appearance order, found by
    /// linear search.
    #[derive(Default)]
    struct Naive(Vec<String>);

    impl Naive {
        fn code(&self, value: &str) -> Option<u32> {
            self.0.iter().position(|v| v == value).map(|c| c as u32)
        }

        fn intern(&mut self, value: &str) -> u32 {
            self.code(value).unwrap_or_else(|| {
                self.0.push(value.to_string());
                self.0.len() as u32 - 1
            })
        }
    }

    #[test]
    fn dictionary_agrees_with_a_linear_search_model() {
        for seed in 0..4 {
            let mut dict = Dictionary::new();
            let mut naive = Naive::default();
            for (i, k) in stream(seed, 3_000).into_iter().enumerate() {
                let value = universe(k);
                let want = naive.intern(&value);
                let got = if i % 2 == 0 {
                    dict.intern(&value)
                } else {
                    dict.intern_tagged(&value, tag_of(&value))
                };
                assert_eq!(got, want, "seed {seed}, op {i}: {value:?}");
                assert_eq!(dict.len(), naive.0.len());
                assert_eq!(dict.code(&value), naive.code(&value));
                assert_eq!(dict.value(got), value);
                let absent = format!("{value}?");
                assert_eq!(dict.code(&absent), naive.code(&absent));
            }
            assert_eq!(dict.values(), naive.0);
            assert_eq!(dict.clone().values(), naive.0);
        }
    }

    #[test]
    fn dictionary_grows_past_two_to_the_seventeen_values() {
        // Linear search over 2^17 values for every draw would be
        // quadratic, so every draw is checked against the stream's own
        // first-appearance numbering and every 4 096th also against a
        // linear search.
        let draws = stream(0x5EED, 300_000);
        let distinct = 1 + *draws.iter().max().unwrap();
        assert!(distinct > 1 << 17, "{distinct} distinct values");
        let mut dict = Dictionary::new();
        let mut order: Vec<String> = Vec::new();
        let mut halfway = None;
        for (i, &k) in draws.iter().enumerate() {
            let value = universe(k);
            if k as usize == order.len() {
                order.push(value.clone());
            }
            let got = if i % 2 == 0 {
                dict.intern(&value)
            } else {
                dict.intern_tagged(&value, tag_of(&value))
            };
            assert_eq!(got as u64, k, "draw {i}: {value:?}");
            if i % 4_096 == 0 {
                let linear = order.iter().position(|v| *v == value);
                assert_eq!(linear, Some(k as usize));
                // `values` is built on demand and must see later values.
                assert_eq!(dict.values(), order);
            }
            if i == draws.len() / 2 {
                halfway = Some((dict.clone(), order.len()));
            }
        }
        assert_eq!(dict.len() as u64, distinct);
        assert_eq!(dict.values(), order);
        for (k, value) in order.iter().enumerate() {
            assert_eq!(dict.code(value), Some(k as u32));
            assert_eq!(dict.value(k as u32), value);
        }
        assert_eq!(dict.code(&universe(distinct)), None);

        // The clone taken halfway is a copy: it knows the first half
        // only, and grows on its own to the same codes.
        let (mut copy, known) = halfway.unwrap();
        assert_eq!(copy.len(), known);
        assert_eq!(copy.code(&order[known]), None);
        for value in &order[known..] {
            copy.intern(value);
        }
        assert_eq!(copy.values(), dict.values());

        // Pieces of the stream encoded on their own, then appended in
        // order, get the codes of the whole stream.
        let mut appended = Column::new();
        for piece in draws.chunks(7_001) {
            let mut local = Column::new();
            for &k in piece {
                local.push(&universe(k));
            }
            let rows = appended.len();
            appended.append(local);
            let want: Vec<u32> = piece.iter().map(|&k| k as u32).collect();
            assert_eq!(appended.codes()[rows..], want);
            assert_eq!(
                appended.cardinality() as usize,
                1 + *piece.iter().max().unwrap() as usize
            );
        }
        assert_eq!(appended.dict().values(), order);
    }

    #[test]
    fn append_assigns_the_codes_of_row_at_a_time_pushes() {
        let values: Vec<String> = seeded_strings(3_000).collect();
        let mut whole = Column::new();
        for v in &values {
            whole.push(v);
        }
        let mut pieced = Column::new();
        for run in values.chunks(700) {
            let mut local = Column::new();
            for v in run {
                local.push(v);
            }
            pieced.append(local);
        }
        assert_eq!(pieced.codes(), whole.codes());
        assert_eq!(pieced.dict().values(), whole.dict().values());
    }

    #[test]
    fn column_roundtrip() {
        let mut c = Column::new();
        for v in ["x", "y", "x", "z"] {
            c.push(v);
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.cardinality(), 3);
        assert_eq!(c.value_at(2), "x");
        assert_eq!(c.codes(), &[0, 1, 0, 2]);
    }

    #[test]
    fn numeric_codes_parse() {
        let mut c = Column::new();
        c.push("1");
        c.push("0");
        c.push(" 2.5 ");
        assert_eq!(c.numeric_codes("v").unwrap(), vec![1.0, 0.0, 2.5]);
    }

    #[test]
    fn numeric_codes_reject_text() {
        let mut c = Column::new();
        c.push("1");
        c.push("oops");
        let err = c.numeric_codes("v").unwrap_err();
        assert!(matches!(err, Error::NonNumericValue { .. }));
    }
}
