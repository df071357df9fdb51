//! Minimal CSV reader/writer for categorical tables.
//!
//! Supports the RFC-4180 subset needed for dataset interchange: comma
//! separation, `"`-quoted fields with doubled-quote escapes, and CRLF or
//! LF line endings. The first record is the header (attribute names).
//! In this dialect a `"` opens a quoted field **only at field start**;
//! anywhere else (`ab"c`) it is a literal. Inside an open quoted field
//! line terminators are data and are kept verbatim.
//!
//! # The block reader
//!
//! There is one ingest path, the block reader behind [`read_csv`]: a
//! stream of parts, read and merged by the calling thread and parsed by
//! every worker of the `hypdb-exec` pool (`ThreadPool::map_stream`).
//!
//! * **Reader (caller).** The input is read in parts of a quarter block
//!   ([`BLOCK_BYTES`] / [`PARTS`]), each cut at its last record boundary
//!   with the tail carried into the next part. A part is read only while
//!   the parts read and not yet merged hold less than the read window,
//!   `threads × block` bytes, so the input is never materialised. The
//!   cut is found with the **parser's own rules**, not by quote parity:
//!   `ab"c` holds one literal quote, and a parity count would take the
//!   next line for the inside of a quoted field and glue two records
//!   together. A part without any `"` byte cuts at its last `\n`; one
//!   with a `"` runs the rules as a byte state machine.
//! * **Parser (any worker, the caller included).** A part's UTF-8 is
//!   validated once. Its lines are walked in one pass that finds the
//!   `,`, `\n` and `"` bytes together, 64 bytes at a time, and each
//!   field is interned as it ends, straight from the part's text, into
//!   the part's own per-column dictionaries (one hash per field, and
//!   the tag it yields is kept with the value). A line with a `"` goes
//!   through [`parse_record`], the one definition of the quoting rules.
//!   A part with invalid UTF-8 walks the whole lines before the bad
//!   byte; the record after them is the faulty one. A part yields its
//!   local [`Column`]s, its row count, and its first fault if any.
//! * **Merge (caller).** Parts are merged strictly in file order
//!   ([`Column::append`]): each local value is looked up in the global
//!   dictionary under the tag its part computed, only the values the
//!   global dictionary lacks are copied in, and the codes are remapped.
//!   The merge of one part overlaps the parse of the next ones, and the
//!   global dictionaries and code columns are allocated on the calling
//!   thread only (an allocation made on a spawned thread stays in that
//!   thread's malloc arena). Because parts merge in file order, every
//!   dictionary is in first-appearance order over the whole stream —
//!   the encoding row-at-a-time pushes assign — at any thread count and
//!   any block size. For the same reason the error returned for a
//!   malformed file is the one for the earliest record in file order,
//!   and carries that record's 1-based number (the header is record 1).
//!
//! Measured on the benchmark's adult file (150 000 rows × 15 columns,
//! 13 MB; one column holds a distinct value in every row) on 2 vCPU,
//! in builds with timers added (medians of 27 reads at 2 threads):
//! the wave reader this replaced took 83 ms — 6 ms reading, 50 ms in
//! parse fan-outs (87 ms of parsing), then 27 ms merging on the caller
//! alone, where every block's values were hashed and interned a second
//! time. The stream takes 58 ms: 5 ms reading, 82 ms of parsing over
//! both threads, and a 28 ms merge that overlaps it. The merge's cost
//! is nearly all the distinct-per-row column, whose every value is new
//! to the global dictionary.

use crate::column::Column;
use crate::error::{Error, Result};
use crate::rows::check_capacity;
use crate::table::{Table, TableBuilder};
use hypdb_exec::{Feed, ThreadPool};
use std::cell::Cell;
use std::io::{Read, Write};
use std::ops::ControlFlow;
use std::path::Path;

/// Input bytes per block: the read window is `threads` blocks.
const BLOCK_BYTES: usize = 1 << 20;

/// Parts a block is read and parsed in. Up to `PARTS × threads` parts
/// are in flight, so a worker that finishes one finds the next already
/// read while the caller merges; a part is longer only when a single
/// record is.
const PARTS: usize = 4;

/// Parses one CSV record from `line` into `fields` (cleared first).
/// Returns `false` when the record continues on the next line (an open
/// quote), in which case the caller appends the next line and retries.
fn parse_record(line: &str, fields: &mut Vec<String>) -> bool {
    fields.clear();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    loop {
        match chars.next() {
            None => {
                if in_quotes {
                    return false; // record continues past the newline
                }
                fields.push(std::mem::take(&mut cur));
                return true;
            }
            Some('"') if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            Some('"') if cur.is_empty() && !in_quotes => in_quotes = true,
            Some(',') if !in_quotes => fields.push(std::mem::take(&mut cur)),
            Some(c) => cur.push(c),
        }
    }
}

/// `line` without its trailing `\r` / `\n` bytes.
fn trim_eol(line: &[u8]) -> &[u8] {
    let end = line
        .iter()
        .rposition(|b| !matches!(b, b'\r' | b'\n'))
        .map_or(0, |i| i + 1);
    &line[..end]
}

/// What is wrong with a record, before its position in the file is
/// known (a part knows only how many records precede it locally).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// The record has this many fields, not the header's.
    Arity(usize),
    InvalidUtf8,
    /// The input ended inside a quoted field.
    Unterminated,
}

impl Fault {
    /// The error for this fault at 1-based `record` of the file.
    fn at(self, record: usize, arity: usize) -> Error {
        Error::Csv(match self {
            Fault::Arity(got) => format!("record {record} has {got} fields, header has {arity}"),
            Fault::InvalidUtf8 => format!("record {record}: invalid UTF-8"),
            Fault::Unterminated => {
                format!("unterminated quoted field at EOF (record {record})")
            }
        })
    }
}

/// The `,`, `\n` and `"` bytes of a text, found a 64-byte chunk at a
/// time: one bit per byte, so a field costs a mask and a bit scan, not
/// a byte loop.
struct Specials<'a> {
    bytes: &'a [u8],
    /// Offset of the chunk in `bits` (a multiple of 64), or `usize::MAX`
    /// before the first.
    base: usize,
    bits: u64,
}

impl<'a> Specials<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Specials {
            bytes,
            base: usize::MAX,
            bits: 0,
        }
    }

    /// Bit `i` set iff byte `i` of `chunk` (at most 64 bytes) is special.
    #[inline]
    fn chunk_bits(chunk: &[u8]) -> u64 {
        const ONES: u64 = 0x0101_0101_0101_0101;
        const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
        // The high bit of every zero byte of `x`, and no other bit.
        let zeros = |x: u64| !(((x & LOW7) + LOW7) | x | LOW7);
        let mut bits = 0;
        for (k, word) in chunk.chunks(8).enumerate() {
            let mut le = [0u8; 8];
            le[..word.len()].copy_from_slice(word);
            let w = u64::from_le_bytes(le);
            let hits = zeros(w ^ (ONES * u64::from(b',')))
                | zeros(w ^ (ONES * u64::from(b'\n')))
                | zeros(w ^ (ONES * u64::from(b'"')));
            // One bit per byte, gathered into the low eight.
            bits |= ((hits >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
        }
        bits
    }

    /// Offset of the first special byte at or after `from`, or the
    /// length of the text.
    #[inline]
    fn find(&mut self, mut from: usize) -> usize {
        loop {
            let base = from & !63;
            if base >= self.bytes.len() {
                return self.bytes.len();
            }
            if base != self.base {
                self.base = base;
                self.bits = Self::chunk_bits(&self.bytes[base..(base + 64).min(self.bytes.len())]);
            }
            let hits = self.bits & (u64::MAX << (from - base));
            if hits != 0 {
                return base + hits.trailing_zeros() as usize;
            }
            from = base + 64;
        }
    }
}

/// One record, as [`Walk::next`] found it.
enum Record {
    /// A line without any `"`, of this many fields, each handed to the
    /// caller as it was found.
    Plain(usize),
    /// A record that went through [`parse_record`]; its fields are in
    /// [`Walk::fields`]. Fields of its first line that ended before the
    /// `"` showed were handed to the caller already; they are the
    /// leading fields of [`Walk::fields`] too.
    Quoted,
}

/// The text ended inside a quoted field.
struct Open;

/// Walks the records of valid UTF-8 text that starts at a record
/// boundary. A plain line is split in one pass that finds its `,`s,
/// its `\n` and any `"` together, each field handed over as it ends; a
/// line with a `"` is handed, from its record's start, to
/// [`parse_record`].
struct Walk<'a> {
    text: &'a str,
    /// Offset just past the last record returned.
    pos: usize,
    /// Fields of the last [`Record::Quoted`].
    fields: Vec<String>,
    specials: Specials<'a>,
}

impl<'a> Walk<'a> {
    fn new(text: &'a str) -> Self {
        Walk {
            text,
            pos: 0,
            fields: Vec::new(),
            specials: Specials::new(text.as_bytes()),
        }
    }

    /// The next record, blank lines skipped, handing each field of a
    /// plain line to `field` with its position; `Ok(None)` when the text
    /// is used up.
    fn next(
        &mut self,
        mut field: impl FnMut(usize, &'a str),
    ) -> std::result::Result<Option<Record>, Open> {
        let text = self.text;
        let bytes = text.as_bytes();
        while self.pos < bytes.len() {
            let (mut start, mut count) = (self.pos, 0);
            loop {
                let at = self.specials.find(start);
                match bytes.get(at) {
                    Some(b',') => {
                        field(count, &text[start..at]);
                        count += 1;
                        start = at + 1;
                    }
                    Some(b'"') => return self.quoted().map(|()| Some(Record::Quoted)),
                    // `\n`, or the end of the text.
                    _ => {
                        let end = start + trim_eol(&bytes[start..at]).len();
                        self.pos = (at + 1).min(bytes.len());
                        if count == 0 && end == start {
                            break; // a blank line
                        }
                        field(count, &text[start..end]);
                        return Ok(Some(Record::Plain(count + 1)));
                    }
                }
            }
        }
        Ok(None)
    }

    /// The record at `pos`, which holds a `"`: [`parse_record`] over its
    /// physical lines, each line's terminator data while a quoted field
    /// is open.
    fn quoted(&mut self) -> std::result::Result<(), Open> {
        let bytes = self.text.as_bytes();
        let from = self.pos;
        let mut line = from;
        while line < bytes.len() {
            let next = bytes[line..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(bytes.len(), |i| line + i + 1);
            let end = line + trim_eol(&bytes[line..next]).len();
            if parse_record(&self.text[from..end], &mut self.fields) {
                self.pos = next;
                return Ok(());
            }
            line = next;
        }
        Err(Open)
    }
}

/// The longest prefix of `bytes` that is whole lines of valid UTF-8,
/// and whether anything was cut off for being invalid. A part is
/// validated once; only a part with a fault walks a prefix, and the
/// record after that prefix is the faulty one.
fn valid_lines(bytes: &[u8]) -> (&str, bool) {
    match std::str::from_utf8(bytes) {
        Ok(text) => (text, false),
        Err(e) => {
            let good = &bytes[..e.valid_up_to()];
            let lines = good.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            (
                std::str::from_utf8(&good[..lines]).unwrap_or_default(),
                true,
            )
        }
    }
}

/// Where a quoting state machine stands after a byte (see
/// [`last_boundary`]).
#[derive(Clone, Copy)]
enum Quoting {
    /// At the start of a field: a `"` here opens a quoted field.
    FieldStart,
    /// Inside an unquoted field, or after a quoted one closed: a `"`
    /// here is a literal.
    Unquoted,
    /// Inside a quoted field: `,` and line terminators are data.
    Quoted,
    /// A `"` inside a quoted field: it closes the field unless the next
    /// byte is another `"` (an escaped quote).
    QuoteInQuoted,
}

/// Offset just past the last complete record of `buf` whose line ends
/// in `\n`, or `None` when `buf` holds no such record yet. `buf` starts
/// at a record boundary.
///
/// A run without any `"` cuts at its last `\n`. Otherwise [`parse_record`]'s
/// rules run as a byte state machine: a `"` opens a quoted field only
/// at field start (`ab"c` holds a literal — quote parity would take the
/// next line for the inside of a quoted field and glue two records),
/// and a line ends a record unless a quoted field is open. Every byte
/// the rules give meaning is ASCII, so the machine agrees with the
/// parse on valid UTF-8; on invalid bytes any cut will do, since the
/// parse reports the record that holds them and nothing after it is
/// merged.
fn last_boundary(buf: &[u8]) -> Option<usize> {
    let lines = buf.iter().rposition(|&b| b == b'\n')? + 1;
    let head = &buf[..lines];
    if !head.contains(&b'"') {
        return Some(lines);
    }
    let mut state = Quoting::FieldStart;
    let mut boundary = None;
    for (i, &byte) in head.iter().enumerate() {
        state = match (state, byte) {
            (Quoting::Quoted, b'"') => Quoting::QuoteInQuoted,
            (Quoting::Quoted, _) | (Quoting::QuoteInQuoted, b'"') => Quoting::Quoted,
            (_, b'\n') => {
                boundary = Some(i + 1);
                Quoting::FieldStart
            }
            (_, b',') => Quoting::FieldStart,
            (Quoting::FieldStart, b'"') => Quoting::Quoted,
            _ => Quoting::Unquoted,
        };
    }
    boundary
}

/// Cuts the input into runs of whole records.
struct Blocks<R> {
    reader: R,
    block: usize,
    /// Bytes read past the last cut.
    carry: Vec<u8>,
    eof: bool,
}

impl<R: Read> Blocks<R> {
    fn new(reader: R, block: usize) -> Self {
        Blocks {
            reader,
            block: block.max(1),
            carry: Vec::new(),
            eof: false,
        }
    }

    /// The next run of whole records: `block` bytes (the carried tail
    /// included) cut at the last record boundary — longer only when no
    /// boundary falls within them, i.e. when one record is longer than
    /// a block — or, at end of input, whatever is left. `None` once the
    /// input is used up.
    fn next(&mut self) -> Result<Option<Vec<u8>>> {
        let mut buf = std::mem::take(&mut self.carry);
        while !self.eof {
            // Fill up to one block; past that (no boundary yet), grow
            // by a block at a time.
            let want = if buf.len() < self.block {
                self.block - buf.len()
            } else {
                self.block
            };
            buf.reserve(want);
            let got = (&mut self.reader).take(want as u64).read_to_end(&mut buf)?;
            self.eof = got < want;
            if !self.eof {
                if let Some(cut) = last_boundary(&buf) {
                    self.carry = buf.split_off(cut);
                    return Ok(Some(buf));
                }
            }
        }
        Ok((!buf.is_empty()).then_some(buf))
    }
}

/// What one part parsed into.
struct Fragment {
    /// One column per header field, encoded against the part's own
    /// value lists. Aligned (`rows` long each) unless `fault` is set.
    columns: Vec<Column>,
    /// Complete records before the fault, or in the whole part.
    rows: usize,
    /// The first thing wrong in the part, in record order.
    fault: Option<Fault>,
}

/// Parses a run of whole records against an `arity`-field header.
fn parse_block(bytes: &[u8], arity: usize) -> Fragment {
    let mut columns: Vec<Column> = (0..arity).map(|_| Column::new()).collect();
    let (text, invalid) = valid_lines(bytes);
    let mut walk = Walk::new(text);
    let mut rows = 0;
    let fault = loop {
        let record = walk.next(|i, value| {
            if let Some(column) = columns.get_mut(i) {
                column.push(value);
            }
        });
        let got = match record {
            Ok(Some(Record::Plain(got))) => got,
            Ok(Some(Record::Quoted)) => {
                // Take back the leading fields handed over before the
                // `"`: they are pushed again, to the same codes, below.
                for column in &mut columns {
                    column.truncate(rows);
                }
                if walk.fields.len() == arity {
                    for (column, value) in columns.iter_mut().zip(&walk.fields) {
                        column.push(value);
                    }
                }
                walk.fields.len()
            }
            // Past the valid lines comes the record with the bad byte.
            Ok(None) => break invalid.then_some(Fault::InvalidUtf8),
            Err(Open) if invalid => break Some(Fault::InvalidUtf8),
            Err(Open) => break Some(Fault::Unterminated),
        };
        if got != arity {
            break Some(Fault::Arity(got));
        }
        rows += 1;
    };
    Fragment {
        columns,
        rows,
        fault,
    }
}

/// Accounts one part's [`Fragment`] after the `records` complete
/// records before it (the header included): its fault as an error at
/// its 1-based record number, else its rows handed to `merge`.
fn absorb(
    records: &mut usize,
    fragment: Fragment,
    arity: usize,
    builder: &mut TableBuilder,
    merge: &mut impl FnMut(&mut TableBuilder, Vec<Column>) -> Result<()>,
) -> Result<()> {
    // The header is the one record that is not a row.
    check_capacity(*records - 1, fragment.rows)?;
    *records += fragment.rows;
    if let Some(fault) = fragment.fault {
        return Err(fault.at(*records + 1, arity));
    }
    if fragment.rows > 0 {
        merge(builder, fragment.columns)?;
    }
    Ok(())
}

/// The single ingest loop (see the module docs) over a read window
/// of `threads × block` bytes on `pool`: reads the header into a
/// [`TableBuilder`], then has `merge` append every part's local columns
/// to it in file order — one [`Column`] per header field, equally long.
/// `merge` is [`TableBuilder::append_columns`]; a test wraps it to watch
/// the read window at every merge.
fn ingest_blocks<R: Read>(
    reader: R,
    block: usize,
    pool: ThreadPool,
    mut merge: impl FnMut(&mut TableBuilder, Vec<Column>) -> Result<()>,
) -> Result<Table> {
    let part = (block / PARTS).max(1);
    let window = pool.threads().saturating_mul(block);
    let mut blocks = Blocks::new(reader, part);

    // The header is the first record; parts of blank lines may precede
    // it. What follows it in its part is the first part to parse.
    let (names, first) = loop {
        let Some(buf) = blocks.next()? else {
            return Err(Error::Csv("empty input".into()));
        };
        let (text, invalid) = valid_lines(&buf);
        let mut walk = Walk::new(text);
        let mut names = Vec::new();
        let header = match walk.next(|_, name| names.push(name.to_string())) {
            Ok(Some(Record::Plain(_))) => Ok(names),
            Ok(Some(Record::Quoted)) => Ok(std::mem::take(&mut walk.fields)),
            Ok(None) | Err(Open) if invalid => Err(Fault::InvalidUtf8),
            Ok(None) => continue,
            Err(Open) => Err(Fault::Unterminated),
        };
        let names = header.map_err(|fault| fault.at(1, 0))?;
        let rest = walk.pos;
        break (names, (buf, rest));
    };
    let arity = names.len();
    let mut builder = TableBuilder::new(names.iter().map(String::as_str));

    // Input bytes of the parts read and not yet merged.
    let held = Cell::new(0usize);
    let mut first = Some(first);
    let mut read_error = None;
    let mut failure = None;
    // Complete records so far, the header included.
    let mut records = 1;
    pool.map_stream(
        || {
            if held.get() > 0 && held.get() + part > window {
                return Feed::Full;
            }
            let next = match first.take() {
                Some(first) => Ok(Some(first)),
                None => blocks.next().map(|buf| buf.map(|buf| (buf, 0))),
            };
            match next {
                Ok(Some((buf, from))) => {
                    held.set(held.get() + buf.len());
                    Feed::Item((buf, from))
                }
                Ok(None) => Feed::End,
                // Reported after the parts read before it, so that a
                // malformed record ahead of the failure wins at any
                // thread count.
                Err(e) => {
                    read_error = Some(e);
                    Feed::End
                }
            }
        },
        |(buf, from): (Vec<u8>, usize)| (buf.len(), parse_block(&buf[from..], arity)),
        |(len, fragment)| {
            held.set(held.get() - len);
            match absorb(&mut records, fragment, arity, &mut builder, &mut merge) {
                Ok(()) => ControlFlow::Continue(()),
                Err(e) => {
                    failure = Some(e);
                    ControlFlow::Break(())
                }
            }
        },
    );
    match failure.or(read_error) {
        Some(e) => Err(e),
        None => Ok(builder.finish()),
    }
}

/// Reads a table from CSV text through the block reader (the input is
/// never held in memory as a whole; only the growing table is).
pub fn read_csv<R: Read>(reader: R) -> Result<Table> {
    read_csv_of(reader, BLOCK_BYTES, ThreadPool::current())
}

/// [`read_csv`] with the block size and the pool as arguments, for
/// tests.
pub(crate) fn read_csv_of<R: Read>(reader: R, block: usize, pool: ThreadPool) -> Result<Table> {
    ingest_blocks(reader, block, pool, TableBuilder::append_columns)
}

/// Reads a table from a CSV file.
pub fn read_csv_path<P: AsRef<Path>>(path: P) -> Result<Table> {
    read_csv(std::fs::File::open(path)?)
}

fn needs_quoting(s: &str) -> bool {
    s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r')
}

fn write_field<W: Write>(w: &mut W, s: &str) -> std::io::Result<()> {
    if needs_quoting(s) {
        write!(w, "\"{}\"", s.replace('"', "\"\""))
    } else {
        w.write_all(s.as_bytes())
    }
}

/// Writes one record. `lone` says the table has a single attribute: an
/// empty value would then be an empty line, which readers skip as
/// blank, so it is written as `""`.
fn write_record<'a, W: Write>(
    w: &mut W,
    fields: impl Iterator<Item = &'a str>,
    lone: bool,
) -> std::io::Result<()> {
    for (i, field) in fields.enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        if lone && field.is_empty() {
            w.write_all(b"\"\"")?;
        } else {
            write_field(w, field)?;
        }
    }
    w.write_all(b"\n")
}

/// Writes a table as CSV.
pub fn write_csv<W: Write>(table: &Table, writer: &mut W) -> Result<()> {
    let schema = table.schema();
    let lone = schema.len() == 1;
    write_record(writer, schema.attr_ids().map(|id| schema.name(id)), lone)?;
    for row in 0..table.nrows() as u32 {
        let values = schema.attr_ids().map(|id| table.value(id, row));
        write_record(writer, values, lone)?;
    }
    Ok(())
}

/// Writes a table to a CSV file.
pub fn write_csv_path<P: AsRef<Path>>(table: &Table, path: P) -> Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_csv(table, &mut f)
}

/// The record-at-a-time reader the block reader replaced, kept as the
/// reference the differential tests diff it against.
#[cfg(test)]
mod reference {
    use super::parse_record;
    use crate::error::{Error, Result};
    use crate::table::{Table, TableBuilder};
    use std::io::{BufRead, BufReader, Read};

    /// Yields one CSV record at a time from any [`BufRead`].
    pub struct CsvRecords<R: BufRead> {
        reader: R,
        line: String,
        /// Accumulates a quoted record that spans lines.
        pending: String,
    }

    impl<R: BufRead> CsvRecords<R> {
        pub fn new(reader: R) -> Self {
            CsvRecords {
                reader,
                line: String::new(),
                pending: String::new(),
            }
        }

        /// Reads the next record into `fields`. `Ok(false)` at end of
        /// input; blank lines are skipped.
        pub fn next_record(&mut self, fields: &mut Vec<String>) -> Result<bool> {
            loop {
                self.line.clear();
                if self.reader.read_line(&mut self.line)? == 0 {
                    if !self.pending.is_empty() {
                        return Err(Error::Csv("unterminated quoted field at EOF".into()));
                    }
                    return Ok(false);
                }
                let line = self.line.trim_end_matches(['\n', '\r']);
                if self.pending.is_empty() && line.is_empty() {
                    continue; // blank line between records
                }
                self.pending.push_str(line);
                if parse_record(&self.pending, fields) {
                    self.pending.clear();
                    return Ok(true);
                }
                // Still inside the quoted field: the terminator is data.
                self.pending.push_str(&self.line[line.len()..]);
            }
        }
    }

    pub fn ingest_csv<R, T, Init, Push>(reader: R, init: Init, mut push: Push) -> Result<T>
    where
        R: Read,
        Init: FnOnce(&[String]) -> T,
        Push: FnMut(&mut T, &[String]) -> Result<()>,
    {
        let mut records = CsvRecords::new(BufReader::new(reader));
        let mut fields = Vec::new();
        if !records.next_record(&mut fields)? {
            return Err(Error::Csv("empty input".into()));
        }
        let arity = fields.len();
        let mut sink = init(&fields);
        while records.next_record(&mut fields)? {
            if fields.len() != arity {
                return Err(Error::Csv(format!(
                    "record has {} fields, header has {arity}",
                    fields.len()
                )));
            }
            push(&mut sink, &fields)?;
        }
        Ok(sink)
    }

    pub fn read_csv<R: Read>(reader: R) -> Result<Table> {
        ingest_csv(
            reader,
            |header| TableBuilder::new(header.iter().map(String::as_str)),
            |builder, fields| builder.push_row(fields.iter().map(String::as_str)),
        )
        .map(TableBuilder::finish)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrId;
    use hypdb_exec::seed::mix;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A counter-based generator: draw `i` of seed `s` is `mix(s, i)`.
    struct Draws(u64, u64);

    impl Draws {
        fn below(&mut self, n: usize) -> usize {
            self.1 += 1;
            (mix(self.0, self.1) % n as u64) as usize
        }
    }

    /// Names, dictionaries in code order, and codes, per attribute.
    fn shape(table: &Table) -> Vec<(String, Vec<String>, Vec<u32>)> {
        table
            .schema()
            .attr_ids()
            .map(|a| {
                let column = table.column(a);
                (
                    table.schema().name(a).to_string(),
                    column.dict().values(),
                    column.codes().to_vec(),
                )
            })
            .collect()
    }

    const BLOCKS: [usize; 3] = [7, 64, BLOCK_BYTES];

    /// The new reader agrees with the reference on `input` at every
    /// block size and thread count: the same table, or an error on
    /// both sides — and the same error at every thread count. Returns
    /// whether the input parsed.
    fn assert_matches_reference(input: &[u8]) -> bool {
        let expected = reference::read_csv(input).map(|t| shape(&t));
        for block in BLOCKS {
            let mut errors = Vec::new();
            for threads in [1, 2, 4] {
                let got = read_csv_of(input, block, ThreadPool::new(threads));
                match (&expected, got) {
                    (Ok(want), Ok(table)) => assert_eq!(
                        &shape(&table),
                        want,
                        "block={block} threads={threads} input={:?}",
                        String::from_utf8_lossy(input)
                    ),
                    (Err(_), Err(e)) => errors.push(e),
                    (want, got) => panic!(
                        "block={block} threads={threads}: reference {want:?}, block reader {:?}, \
                         input={:?}",
                        got.map(|t| shape(&t)),
                        String::from_utf8_lossy(input)
                    ),
                }
            }
            errors.dedup();
            assert!(
                errors.len() <= 1,
                "errors differ by thread count: {errors:?}"
            );
        }
        expected.is_ok()
    }

    #[test]
    fn roundtrip_simple() {
        let input = "a,b\n1,x\n2,y\n";
        let t = read_csv(input.as_bytes()).unwrap();
        assert_eq!(t.nrows(), 2);
        assert_eq!(t.nattrs(), 2);
        let mut out = Vec::new();
        write_csv(&t, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), input);
    }

    #[test]
    fn quoted_fields_and_escapes() {
        let input = "name,quote\nalice,\"hello, world\"\nbob,\"she said \"\"hi\"\"\"\n";
        let t = read_csv(input.as_bytes()).unwrap();
        let q = t.attr("quote").unwrap();
        assert_eq!(t.value(q, 0), "hello, world");
        assert_eq!(t.value(q, 1), "she said \"hi\"");
        // Roundtrip preserves content.
        let mut out = Vec::new();
        write_csv(&t, &mut out).unwrap();
        let t2 = read_csv(&out[..]).unwrap();
        assert_eq!(t2.value(q, 0), "hello, world");
        assert_eq!(t2.value(q, 1), "she said \"hi\"");
    }

    #[test]
    fn embedded_newline_in_quotes() {
        let input = "a,b\n\"line1\nline2\",x\n";
        let t = read_csv(input.as_bytes()).unwrap();
        assert_eq!(t.value(t.attr("a").unwrap(), 0), "line1\nline2");
        assert_eq!(t.nrows(), 1);
    }

    #[test]
    fn line_terminators_inside_quotes_are_kept_verbatim() {
        let input = "a,b\n\"x\r\ny\r\r\n\nz\",1\r\n";
        let t = read_csv(input.as_bytes()).unwrap();
        assert_eq!(t.value(t.attr("a").unwrap(), 0), "x\r\ny\r\r\n\nz");
        assert_eq!(t.value(t.attr("b").unwrap(), 0), "1");
        assert_matches_reference(input.as_bytes());
    }

    #[test]
    fn lone_empty_value_roundtrips() {
        let mut b = TableBuilder::new(["only"]);
        for v in ["x", "", "y", ""] {
            b.push_row([v]).unwrap();
        }
        let t = b.finish();
        let mut out = Vec::new();
        write_csv(&t, &mut out).unwrap();
        assert_eq!(out, b"only\nx\n\"\"\ny\n\"\"\n");
        assert_eq!(shape(&read_csv(&out[..]).unwrap()), shape(&t));
    }

    #[test]
    fn crlf_endings() {
        let input = "a,b\r\n1,2\r\n";
        let t = read_csv(input.as_bytes()).unwrap();
        assert_eq!(t.nrows(), 1);
        assert_eq!(t.value(t.attr("b").unwrap(), 0), "2");
    }

    #[test]
    fn blank_lines_skipped() {
        let input = "a\n1\n\n2\n";
        let t = read_csv(input.as_bytes()).unwrap();
        assert_eq!(t.nrows(), 2);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let input = "a,b\n1\n";
        assert!(read_csv(input.as_bytes()).is_err());
    }

    #[test]
    fn empty_input_rejected() {
        assert!(read_csv("".as_bytes()).is_err());
        assert!(read_csv("\n\r\n\n".as_bytes()).is_err());
    }

    #[test]
    fn header_only_is_an_empty_table() {
        for input in ["a,b", "a,b\n", "\n\na,b\r\n\n"] {
            let t = read_csv(input.as_bytes()).unwrap();
            assert_eq!((t.nattrs(), t.nrows()), (2, 0), "{input:?}");
        }
    }

    #[test]
    fn unterminated_quote_rejected() {
        let input = "a\n\"open\n";
        assert!(read_csv(input.as_bytes()).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("hypdb_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let t = read_csv("a,b\n1,x\n".as_bytes()).unwrap();
        write_csv_path(&t, &path).unwrap();
        let t2 = read_csv_path(&path).unwrap();
        assert_eq!(t2.nrows(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn a_mid_field_quote_is_a_literal_and_does_not_glue_records() {
        // Quote parity would read line 2 as the inside of a quoted
        // field opened on line 1.
        let input = "a,b\nab\"c,1\nd,2\ne\"\"f,\"g\"\"\nh\"\ni,3\n";
        for block in [1, 2, 3, 5, 7, 11, 64] {
            let t = read_csv_of(input.as_bytes(), block, ThreadPool::new(2)).unwrap();
            assert_eq!(t.nrows(), 4, "block={block}");
            assert_eq!(t.value(t.attr("a").unwrap(), 0), "ab\"c");
            assert_eq!(t.value(t.attr("b").unwrap(), 2), "g\"\nh");
        }
        assert_matches_reference(input.as_bytes());
    }

    #[test]
    fn errors_name_the_earliest_record_at_every_thread_count() {
        let mut rows = String::from("k,v\n");
        for i in 0..4000 {
            rows.push_str(&format!("{i},x{}\n", i % 7));
        }
        let cut = |from: &str, to: &str| rows.replacen(from, to, 1).into_bytes();
        // Two short records many blocks apart: the first one wins.
        let mut short = cut("\n100,x2\n", "\n100\n");
        short.extend_from_slice(b"3000\n");
        let mut invalid = cut("\n5,x5\n", "\n5,?5\n");
        let at = invalid.iter().position(|&b| b == b'?').unwrap();
        invalid[at] = 0xff;
        let cases = [
            (short, "record 102 has 1 fields, header has 2"),
            (invalid, "record 7: invalid UTF-8"),
            (
                format!("{rows}\"open,1\nmore\n").into_bytes(),
                "unterminated quoted field at EOF (record 4002)",
            ),
            (b"\n\n".to_vec(), "empty input"),
        ];
        for (input, message) in &cases {
            for block in [64, 1000, BLOCK_BYTES] {
                for threads in [1, 2, 4] {
                    let got = read_csv_of(&input[..], block, ThreadPool::new(threads));
                    assert_eq!(
                        got.err(),
                        Some(Error::Csv(message.to_string())),
                        "block={block} threads={threads}"
                    );
                }
            }
        }
    }

    /// Serves `data`, then fails.
    struct Failing<'a>(&'a [u8]);

    impl Read for Failing<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Err(std::io::Error::other("disk gone"));
            }
            let n = buf.len().min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_malformed_record_ahead_of_a_read_failure_wins_at_every_thread_count() {
        let good = "a,b\n".to_string() + &"1,2\n".repeat(100);
        let bad = good.replacen("\n1,2\n", "\n1\n", 1);
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let read = |input: &str| read_csv_of(Failing(input.as_bytes()), 64, pool);
            assert_eq!(
                read(&bad).err(),
                Some(Error::Csv("record 2 has 1 fields, header has 2".into()))
            );
            assert!(
                matches!(read(&good), Err(Error::Io(_))),
                "threads={threads}"
            );
        }
    }

    /// A byte soup biased towards the bytes the dialect gives meaning.
    fn soup(draws: &mut Draws) -> Vec<u8> {
        const ALPHABET: [&[u8]; 12] = [
            b"a",
            b"a",
            b"b",
            "é".as_bytes(),
            b"\"",
            b"\"",
            b"\n",
            b"\n",
            b"\r\n",
            b"\r",
            b",",
            b"\xff",
        ];
        let len = draws.below(40);
        let mut out = Vec::new();
        for _ in 0..len {
            // Invalid UTF-8 only now and then, or nothing would parse.
            let picks = if draws.below(8) == 0 { 12 } else { 11 };
            let pick = draws.below(picks);
            out.extend_from_slice(ALPHABET[pick]);
        }
        out
    }

    #[test]
    fn byte_soups_match_the_reference() {
        let mut draws = Draws(0xC5F, 0);
        let parsed = (0..400)
            .filter(|_| assert_matches_reference(&soup(&mut draws)))
            .count();
        // Both outcomes must be common, or one side of the check is idle.
        assert!((40..360).contains(&parsed), "{parsed} of 400 soups parsed");
    }

    /// Well-formed files out of hostile values: every field is quoted
    /// when it has to be, so most inputs parse and the tables compare.
    #[test]
    fn hostile_values_match_the_reference() {
        const VALUES: [&str; 10] = [
            "", "a", "b,c", "\"", "x\"y", "l1\nl2", "cr\r\nlf", "\r", "é", "\n\n",
        ];
        let mut draws = Draws(0xBEEF, 0);
        for _ in 0..150 {
            let cols = 1 + draws.below(4);
            let rows = draws.below(12);
            let mut input = Vec::new();
            for r in 0..=rows {
                let record: Vec<&str> = (0..cols)
                    .map(|c| match (r, c) {
                        (0, 0) => "h",
                        _ => VALUES[draws.below(VALUES.len())],
                    })
                    .collect();
                write_record(&mut input, record.into_iter(), cols == 1).unwrap();
                if draws.below(5) == 0 {
                    input.extend_from_slice(b"\r\n\n"); // blank lines
                }
            }
            if draws.below(3) == 0 {
                while matches!(input.last(), Some(b'\n' | b'\r')) {
                    input.pop(); // no final newline
                }
            }
            assert_matches_reference(&input);
        }
    }

    /// One hostile edit of `input`, the `http.rs` / SQL fuzzers' edit
    /// set — delete, insert, truncate, overwrite, swap, repeat a chunk —
    /// with the inserted bytes aimed at what the dialect gives meaning.
    fn mutate(draws: &mut Draws, input: &mut Vec<u8>) {
        const BYTES: [u8; 10] = [b'"', b'"', b',', b',', b'\n', b'\r', b' ', b'a', 0xc3, 0xff];
        let at = draws.below(input.len() + 1);
        let byte = BYTES[draws.below(BYTES.len())];
        match draws.below(6) {
            0 if !input.is_empty() => drop(input.remove(at % input.len())),
            1 => input.insert(at, byte),
            2 => input.truncate(at),
            3 if !input.is_empty() => {
                let i = at % input.len();
                input[i] = byte;
            }
            4 if !input.is_empty() => {
                let (i, j) = (at % input.len(), draws.below(input.len()));
                input.swap(i, j);
            }
            _ => {
                let len = (1 + draws.below(8)).min(input.len() - at);
                let chunk = input[at..at + len].to_vec();
                let times = 1 + draws.below(12);
                let repeated: Vec<u8> = chunk.iter().cycle().take(len * times).copied().collect();
                input.splice(at..at, repeated);
            }
        }
    }

    #[test]
    fn mutated_files_read_the_same_at_every_block_size_and_thread_count() {
        // Well-formed seeds with quoted commas, escaped quotes, quoted
        // line breaks, CRLF, blank lines and UTF-8; blocks of a few dozen
        // bytes, so cuts fall inside the mutated region.
        const SEEDS: [&str; 3] = [
            "a,b,c\n1,\"x,y\",z\n2,\"say \"\"hi\"\"\",w\n3,\"l1\nl2\",é\n",
            "name,city\r\nann,\"Città, IT\"\r\n\r\nbob,\"\"\r\ncy,\"a\r\nb\"\r\n",
            "k\n\"\"\nv1\n\"v,2\"\n\n\"v\"\"3\"\n",
        ];
        let mut draws = Draws(0xF022, 0);
        let (mut parsed, mut refused) = (0, 0);
        for case in 0..20_000 {
            let mut input = SEEDS[case % SEEDS.len()].as_bytes().to_vec();
            for _ in 0..1 + draws.below(3) {
                mutate(&mut draws, &mut input);
            }
            let shown = || String::from_utf8_lossy(&input).into_owned();
            // One 1 MiB block on one thread: the whole input at once.
            let want = read_csv_of(&input[..], BLOCK_BYTES, ThreadPool::new(1)).map(|t| shape(&t));
            for block in [24, 41] {
                for threads in [1, 4] {
                    let got = read_csv_of(&input[..], block, ThreadPool::new(threads));
                    assert_eq!(
                        got.map(|t| shape(&t)),
                        want,
                        "case {case}: block={block} threads={threads} input={:?}",
                        shown()
                    );
                }
            }
            match want {
                Ok(_) => parsed += 1,
                Err(_) => refused += 1,
            }
        }
        // Both outcomes are common, or one side of the check is idle
        // (observed: 7 802 parsed, 12 198 refused).
        assert!(
            parsed >= 2_000 && refused >= 2_000,
            "{parsed} parsed, {refused} refused"
        );
    }

    #[test]
    fn long_headers_and_straddling_quoted_records_match_the_reference() {
        // A header longer than the small blocks, plain and quoted.
        let names: Vec<String> = (0..40).map(|i| format!("attr{i}")).collect();
        let plain = format!("{}\n{}\n", names.join(","), vec!["v"; 40].join(","));
        assert_matches_reference(plain.as_bytes());
        let quoted = format!("\"{}\"\nvalue\n", names.join("\n"));
        assert_matches_reference(quoted.as_bytes());
        // Quoted records over one and over several block boundaries,
        // between plain ones.
        let long = "line\r\n".repeat(40);
        let input = format!("a,b\n1,2\n\"x\ny\",3\n4,5\n\"{long}\",6\n7,\"{long}{long}\"\n8,9");
        assert_matches_reference(input.as_bytes());
    }

    /// Rows shaped like the adult file the benchmark ingests: `key`
    /// holds a distinct value in every row (its dictionary grows with
    /// every part), `late` a value first seen every 97 rows (so some
    /// value is first seen in the last part of a read window at every
    /// block size and thread count), `settled` gains no value after the
    /// first three rows, and `small` cycles through five.
    fn adult_shaped(rows: usize) -> String {
        let mut input = String::from("key,late,settled,small\n");
        for i in 0..rows {
            let settled = ["Private", "Self-emp", "Gov"][i % 3];
            input += &format!("{},v{},{settled},{}\n", 100_000 + 7 * i, i / 97, i % 5);
        }
        input
    }

    #[test]
    fn adult_shaped_files_match_the_reference() {
        let input = adult_shaped(3_000);
        assert!(assert_matches_reference(input.as_bytes()));
        let t = read_csv_of(input.as_bytes(), 64, ThreadPool::new(2)).unwrap();
        let sizes: Vec<usize> = (0..4).map(|a| t.cardinality(AttrId(a)) as usize).collect();
        assert_eq!(sizes, [3_000, 31, 3, 5]);

        // Invalid UTF-8 far past the first part: the same error, naming
        // the same record, at every block size and thread count.
        let mut bad = input.into_bytes();
        let at = bad.len() - 40;
        bad[at] = 0xff;
        let record = 1 + bad[..at].iter().filter(|&&b| b == b'\n').count();
        assert!(!assert_matches_reference(&bad));
        for block in BLOCKS {
            for threads in [1, 2, 4] {
                assert_eq!(
                    read_csv_of(&bad[..], block, ThreadPool::new(threads)).err(),
                    Some(Error::Csv(format!("record {record}: invalid UTF-8"))),
                    "block={block} threads={threads}"
                );
            }
        }
    }

    /// The benchmark's file at full size: 150 000 rows over 15 columns,
    /// one of them a distinct value per row, so the read spans a dozen
    /// blocks. Too large for a debug build; CI runs it in release
    /// (`cargo test --release -p hypdb-table -- --ignored`).
    #[test]
    #[ignore = "release only: a 13 MB file"]
    fn a_full_size_adult_shaped_file_matches_the_reference() {
        let mut input = String::from("key");
        for c in 1..15 {
            input += &format!(",c{c}");
        }
        input.push('\n');
        for i in 0..150_000usize {
            input += &format!("{}", 100_000 + 7 * i);
            for c in 1..15 {
                let draw = mix(c as u64, i as u64);
                // Column `c` has about 2c values, a few of them first
                // seen late in the file.
                let value = if draw % 5_000 == 0 {
                    draw % 100
                } else {
                    draw % (2 * c as u64)
                };
                input += &format!(",value-{value}");
            }
            input.push('\n');
        }
        assert!(input.len() > 12 * BLOCK_BYTES, "{} bytes", input.len());
        let want = reference::read_csv(input.as_bytes()).map(|t| shape(&t));
        assert!(want.is_ok());
        for threads in [1, 2, 4] {
            let got = read_csv_of(input.as_bytes(), BLOCK_BYTES, ThreadPool::new(threads));
            assert_eq!(got.map(|t| shape(&t)), want, "threads={threads}");
        }
        // Invalid UTF-8 in the last block.
        let mut bad = input.into_bytes();
        let at = bad.len() - 1_000;
        bad[at] = 0xff;
        let record = 1 + bad[..at].iter().filter(|&&b| b == b'\n').count();
        for threads in [1, 2, 4] {
            assert_eq!(
                read_csv_of(&bad[..], BLOCK_BYTES, ThreadPool::new(threads)).err(),
                Some(Error::Csv(format!("record {record}: invalid UTF-8"))),
                "threads={threads}"
            );
        }
    }

    /// Hands out at most `step` bytes per `read` and counts them.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
        read: &'a AtomicUsize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            self.read.fetch_add(n, Ordering::Relaxed);
            Ok(n)
        }
    }

    #[test]
    fn the_read_window_is_bounded() {
        // Records of one fixed width, so the bytes behind the rows
        // merged so far are known at every merge.
        const WIDTH: usize = 8;
        let mut input = b"aaa,bbb\n".to_vec();
        for i in 0..5000 {
            input.extend_from_slice(format!("{:03},{:03}\n", i % 1000, i % 7).as_bytes());
        }
        for (block, threads) in [(64, 1), (64, 4), (1000, 2)] {
            let read = AtomicUsize::new(0);
            let reader = Trickle {
                data: &input,
                step: 13,
                read: &read,
            };
            let table = ingest_blocks(
                reader,
                block,
                ThreadPool::new(threads),
                |builder, columns| {
                    let merged = builder.nrows();
                    let held = read.load(Ordering::Relaxed) - WIDTH * (1 + merged);
                    assert!(
                        held <= threads * block + WIDTH,
                        "block={block} threads={threads}: {held} input bytes held"
                    );
                    builder.append_columns(columns)
                },
            );
            assert_eq!(table.map(|t| t.nrows()), Ok(5000));
        }
    }

    #[test]
    fn blocks_are_whole_records_and_no_longer_than_they_must_be() {
        let input = "a,b\n1,2\n\"x\ny\",3\n4,5\n\"0123456789\n0123456789\",6\n7,8\n";
        let longest = "\"0123456789\n0123456789\",6\n".len();
        for block in 1..40 {
            let mut blocks = Blocks::new(input.as_bytes(), block);
            let mut joined = Vec::new();
            while let Some(buf) = blocks.next().unwrap() {
                assert!(buf.len() <= block.max(longest + block), "block={block}");
                let mut walk = Walk::new(std::str::from_utf8(&buf).unwrap());
                while let Ok(Some(_)) = walk.next(|_, _| {}) {}
                assert!(
                    matches!(walk.next(|_, _| {}), Ok(None)),
                    "block={block} ends inside a record"
                );
                joined.extend_from_slice(&buf);
            }
            assert_eq!(joined, input.as_bytes(), "block={block}");
        }
    }
}
