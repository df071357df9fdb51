//! The selection image: one `(table, rows)` pair's codes, gathered
//! where the counting kernel wants them.
//!
//! Every statistic over a WHERE-selected sub-population is a `count(*)
//! GROUP BY` over the same rows, asked dozens of times with different
//! attribute lists. Storage keeps a column as 4-byte codes spread over
//! shards; a count wants the *selected* codes of each attribute it names
//! contiguous and as narrow as the dictionary allows. A
//! [`SelectionImage`] is that second layout, built lazily: the first
//! count (or tally) that names an attribute gathers its column — `u8`
//! codes for up to 256 levels, `u16` up to 65 536, `u32` beyond — by
//! walking the selection in per-shard runs, and every later one reads
//! it. Nothing is gathered for an attribute nobody counts.
//!
//! An image lives as long as the call that made it: a discovery run
//! builds one, lends it to preprocessing and then hands it to its
//! oracle; [`ContingencyTable::from_table`] builds one for its single
//! count. It is never cached; at its peak it holds `rows.len()` × the
//! code widths of the attributes touched.

use crate::contingency::ContingencyTable;
use crate::rows::RowSet;
use crate::scan::{for_each_segment, Scan};
use crate::schema::AttrId;
use crate::table::Table;
use std::borrow::Cow;
use std::sync::OnceLock;

/// One attribute's codes over a selection, in selection order, at the
/// narrowest width its dictionary fits.
#[derive(Debug)]
pub(crate) enum Codes {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
}

/// Runs `$body` with `$col` bound to the code slice of `$codes`,
/// whichever width it has.
macro_rules! with_codes {
    ($codes:expr, $col:ident => $body:expr) => {
        match $codes {
            $crate::image::Codes::U8($col) => $body,
            $crate::image::Codes::U16($col) => $body,
            $crate::image::Codes::U32($col) => $body,
        }
    };
}
pub(crate) use with_codes;

impl Codes {
    fn gather<S: Scan + ?Sized>(table: &S, rows: &RowSet, attr: AttrId) -> Codes {
        match table.cardinality(attr) {
            0..=0x100 => Codes::U8(gather_as(table, rows, attr, 0xFF, |code| code as u8)),
            0x101..=0x1_0000 => {
                Codes::U16(gather_as(table, rows, attr, 0xFFFF, |code| code as u16))
            }
            _ => Codes::U32(gather_as(table, rows, attr, u32::MAX, |code| code)),
        }
    }
}

/// The codes of `attr` at `rows`, in order, each through `narrow`,
/// which keeps the bits of `mask`. The selection is walked in per-shard
/// runs: a run's shard is found once, by division, and its rows index
/// that shard's slice directly. Any id list works — an unsorted or
/// repeating one only makes for shorter runs.
fn gather_as<W, S>(
    table: &S,
    rows: &RowSet,
    attr: AttrId,
    mask: u32,
    narrow: impl Fn(u32) -> W,
) -> Vec<W>
where
    S: Scan + ?Sized,
{
    // Every bit any code has: one check at the end instead of one per
    // row, which leaves the whole-table copy to the vector unit.
    let mut bits = 0;
    let mut narrow = |code: u32| {
        bits |= code;
        narrow(code)
    };
    let mut out = Vec::with_capacity(rows.len());
    match rows {
        RowSet::All(n) => for_each_segment(table, &[attr], 0..*n as usize, |slices, local| {
            out.extend(slices[0][local].iter().map(|&code| narrow(code)));
        }),
        RowSet::Ids(ids) => {
            let shard_rows = table.shard_rows().max(1);
            let mut next = 0;
            while let Some(&first) = ids.get(next) {
                let shard = first as usize / shard_rows;
                let codes = table.shard_codes(shard, attr);
                let base = (shard * shard_rows) as u32;
                let run = next;
                // An id below `base` wraps past any slice length, so one
                // lookup tests both ends of the shard.
                while let Some(&code) = ids
                    .get(next)
                    .and_then(|id| codes.get(id.wrapping_sub(base) as usize))
                {
                    out.push(narrow(code));
                    next += 1;
                }
                assert!(next > run, "row {first} is not in the table");
            }
        }
    }
    assert!(bits & !mask == 0, "a code is below its dictionary's length");
    out
}

/// The lazily gathered, dictionary-width columns of one selection (see
/// the module docs).
pub struct SelectionImage<'a, S: Scan + ?Sized = Table> {
    table: &'a S,
    rows: Cow<'a, RowSet>,
    /// One cell per attribute of the schema, filled on first use.
    columns: Vec<OnceLock<Codes>>,
    around_gather: fn(&mut dyn FnMut()),
}

impl<'a, S: Scan + ?Sized> SelectionImage<'a, S> {
    /// An empty image of `rows` (borrowed or owned) over `table`.
    pub fn new(table: &'a S, rows: impl Into<Cow<'a, RowSet>>) -> Self {
        SelectionImage {
            table,
            rows: rows.into(),
            columns: (0..table.nattrs()).map(|_| OnceLock::new()).collect(),
            around_gather: |gather| gather(),
        }
    }

    /// Runs every gather of this image inside `around` — how the caller
    /// that owns a request's image puts a span on each (this crate sits
    /// below the tracing one).
    pub fn with_gather_hook(mut self, around: fn(&mut dyn FnMut())) -> Self {
        self.around_gather = around;
        self
    }

    /// The table the image reads.
    pub fn table(&self) -> &'a S {
        self.table
    }

    /// The selection the image is of.
    pub fn rows(&self) -> &RowSet {
        &self.rows
    }

    /// The gathered column of `attr`; the first caller gathers it.
    pub(crate) fn column(&self, attr: AttrId) -> &Codes {
        self.columns[attr.index()].get_or_init(|| {
            let mut codes = None;
            (self.around_gather)(&mut || {
                codes = Some(Codes::gather(self.table, &self.rows, attr));
            });
            codes.expect("the gather hook runs the gather")
        })
    }

    /// Counts the selection grouped by `attrs`: the table
    /// [`ContingencyTable::from_table`] documents.
    pub fn count(&self, attrs: &[AttrId]) -> ContingencyTable {
        let dims = attrs
            .iter()
            .map(|&a| self.table.cardinality(a).max(1))
            .collect();
        let columns: Vec<&Codes> = attrs.iter().map(|&a| self.column(a)).collect();
        ContingencyTable::count(attrs.to_vec(), dims, &columns, self.rows.len())
    }

    /// Adds one to `counts[code]` for the code of `attr` at each of
    /// `positions` — indices into the selection, not row ids.
    pub fn tally(&self, attr: AttrId, positions: &[u32], counts: &mut [u64]) {
        with_codes!(self.column(attr), col => {
            for &p in positions {
                counts[col[p as usize] as usize] += 1;
            }
        });
    }
}
