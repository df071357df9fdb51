//! Dictionary-encoded categorical columns.

use crate::error::{Error, Result};
use crate::hash::hash_bytes;

/// An order-of-first-appearance dictionary mapping category strings to
/// dense `u32` codes.
///
/// Every string is stored once, in `values` (code order). Lookup goes
/// through `slots`, an open-addressing table over `values`: a
/// power-of-two vector of `code + 1` (`0` = empty), indexed by the Fx
/// hash of the value's bytes, linearly probed and resolved by comparing
/// against `values[code]`.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    values: Vec<String>,
    slots: Vec<u32>,
}

/// Smallest non-empty slot table.
const MIN_SLOTS: usize = 8;

impl Dictionary {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot a probe for `bytes` starts at: the top bits of the Fx
    /// hash (its multiply leaves the low bits weak). `slots` must be
    /// non-empty.
    fn home(&self, bytes: &[u8]) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (hash_bytes(bytes) >> (64 - bits)) as usize
    }

    /// Probes for `value`: its code, or the free slot its probe
    /// sequence ended at (`None` while the table is still empty).
    fn find(&self, value: &str) -> std::result::Result<u32, Option<usize>> {
        if self.slots.is_empty() {
            return Err(None);
        }
        // The load factor never exceeds one half, so a probe ends.
        let mask = self.slots.len() - 1;
        let mut slot = self.home(value.as_bytes());
        loop {
            match self.slots[slot] {
                0 => return Err(Some(slot)),
                entry if self.values[entry as usize - 1] == value => return Ok(entry - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Appends a value that [`Dictionary::find`] missed, ending at
    /// `slot`, and returns its code. Keeps the load factor at or below
    /// one half: a table that would exceed it is doubled and every
    /// value re-inserted in code order.
    fn push_new(&mut self, slot: Option<usize>, value: String) -> u32 {
        let code = self.values.len();
        self.values.push(value);
        match slot {
            Some(slot) if (code + 1) * 2 <= self.slots.len() => self.slots[slot] = code as u32 + 1,
            _ => {
                self.slots = vec![0; (self.slots.len() * 2).max(MIN_SLOTS)];
                let mask = self.slots.len() - 1;
                for code in 0..=code {
                    let mut slot = self.home(self.values[code].as_bytes());
                    while self.slots[slot] != 0 {
                        slot = (slot + 1) & mask;
                    }
                    self.slots[slot] = code as u32 + 1;
                }
            }
        }
        code as u32
    }

    /// Interns a value, returning its (possibly fresh) code.
    pub fn intern(&mut self, value: &str) -> u32 {
        match self.find(value) {
            Ok(code) => code,
            Err(slot) => self.push_new(slot, value.to_string()),
        }
    }

    /// [`Dictionary::intern`] for a value the caller already owns: a
    /// fresh value is moved in, not copied.
    pub fn intern_owned(&mut self, value: String) -> u32 {
        match self.find(&value) {
            Ok(code) => code,
            Err(slot) => self.push_new(slot, value),
        }
    }

    /// Removes the most recently interned value (the highest code), if
    /// any. Nothing was inserted after it, so no other value's probe
    /// sequence passes through its slot and clearing the slot is a
    /// complete removal.
    pub fn pop(&mut self) -> Option<String> {
        let last = self.values.last()?;
        let mask = self.slots.len() - 1;
        let mut slot = self.home(last.as_bytes());
        while self.slots[slot] as usize != self.values.len() {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = 0;
        self.values.pop()
    }

    /// Looks a value up without inserting.
    pub fn code(&self, value: &str) -> Option<u32> {
        self.find(value).ok()
    }

    /// The string for a code.
    pub fn value(&self, code: u32) -> &str {
        &self.values[code as usize]
    }

    /// Number of distinct values (the attribute's observed cardinality).
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no value has been interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All values in code order.
    pub fn values(&self) -> &[String] {
        &self.values
    }

    /// The values in code order, by move.
    pub fn into_values(self) -> Vec<String> {
        self.values
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

    /// Re-expresses the column against `dict`: its values are moved
    /// into `dict` in this column's code order (its first-appearance
    /// order) and its codes, remapped, are returned.
    pub fn recode(self, dict: &mut Dictionary) -> Vec<u32> {
        let remap: Vec<u32> = self
            .dict
            .into_values()
            .into_iter()
            .map(|v| dict.intern_owned(v))
            .collect();
        let mut codes = self.codes;
        for code in &mut codes {
            *code = remap[*code as usize];
        }
        codes
    }

    /// Appends every row of `other`, which was encoded against its own
    /// dictionary (see [`Column::recode`]). Appending the pieces of a
    /// row stream in stream order assigns the codes pushing the rows
    /// one by one would have assigned.
    pub fn append(&mut self, other: Column) {
        let codes = other.recode(&mut self.dict);
        self.codes.extend_from_slice(&codes);
    }

    /// Appends a raw string value.
    pub fn push(&mut self, value: &str) {
        let code = self.dict.intern(value);
        self.codes.push(code);
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
        self.dict
            .values()
            .iter()
            .map(|v| {
                v.trim().parse::<f64>().map_err(|_| Error::NonNumericValue {
                    attr: attr_name.to_string(),
                    value: v.clone(),
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
            // Alternate the borrowing and the owning intern.
            let got = if i % 2 == 0 {
                dict.intern(&value)
            } else {
                dict.intern_owned(value.clone())
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
        assert_eq!(dict.clone().into_values(), dict.values());
    }

    #[test]
    fn pop_removes_only_the_last_value() {
        let mut dict = Dictionary::new();
        assert_eq!(dict.pop(), None);
        let values: Vec<String> = seeded_strings(2_000).collect();
        for v in &values {
            dict.intern(v);
        }
        let mut kept = dict.values().to_vec();
        while kept.len() > 300 {
            assert_eq!(dict.pop(), kept.pop());
            assert_eq!(dict.len(), kept.len());
        }
        for (code, v) in kept.iter().enumerate() {
            assert_eq!(dict.code(v), Some(code as u32));
        }
        // Popped values are gone and can be interned again.
        let gone = values.iter().find(|v| !kept.contains(v)).unwrap();
        assert_eq!(dict.code(gone), None);
        assert_eq!(dict.intern(gone), kept.len() as u32);
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
