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
//! There is one ingest path, the block reader behind [`read_csv`]. It
//! has three parts:
//!
//! * **Reader.** The input is read in fixed blocks ([`BLOCK_BYTES`]),
//!   at most `ThreadPool::current().threads()` of them in flight, so
//!   the input is never materialised: beyond the growing table, memory
//!   is `threads × block` plus the carried tail. Each block is cut at
//!   its last record boundary and the tail is carried into the next
//!   block. The cut is found with the **parser's own state**, not by
//!   quote parity: `ab"c` holds one literal quote, and a parity count
//!   would take the next line for the inside of a quoted field and glue
//!   two records together. A block without any `"` byte cuts at its
//!   last `\n`; only a block that has one is walked line by line, and
//!   only its quote-carrying lines run the state machine.
//! * **Parser.** The blocks of a wave are parsed on the `hypdb-exec`
//!   pool. A physical line with no `"` and no open quoted record is the
//!   fast path: UTF-8 is validated once for the line, the line is split
//!   on `,` and the `&str` slices are interned straight into the
//!   block's per-column local dictionaries — no allocation per field or
//!   per row. Any other line goes through [`parse_record`], the one
//!   definition of the quoting rules. A block yields its local
//!   [`Column`]s (dictionary in first-appearance order within the
//!   block, local codes), its row count, and its first fault if any.
//! * **Merge.** Fragments are merged strictly in block order on the
//!   calling thread ([`Column::append`]): local values are moved into
//!   the global dictionary and the codes remapped. Blocks are merged in
//!   file order, so the global dictionary is in first-appearance order
//!   over the whole stream — the encoding row-at-a-time pushes assign —
//!   at any thread count and any block size. For the same reason the
//!   error returned for a malformed file is the one for the earliest
//!   record in file order, and carries that record's 1-based number
//!   (the header is record 1).

use crate::column::Column;
use crate::error::{Error, Result};
use crate::rows::check_capacity;
use crate::table::{Table, TableBuilder};
use hypdb_exec::ThreadPool;
use std::io::{Read, Write};
use std::path::Path;

/// Input bytes per block. One block is the unit of parallel parsing;
/// a block is longer only when a single record is.
const BLOCK_BYTES: usize = 1 << 20;

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
/// known (a block knows only how many records precede it locally).
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

/// One complete record, as [`Records::next`] found it.
enum Line<'a> {
    /// A physical line without any `"`, trimmed of its terminator and
    /// not yet checked for UTF-8: the fields are its `,`-separated
    /// pieces.
    Plain(&'a [u8]),
    /// A record that went through [`parse_record`]; its fields are in
    /// [`Records::fields`].
    Quoted,
}

/// Walks the records of a byte run that starts at a record boundary.
/// Both the reader's cut and the block parser use it, so they cannot
/// disagree on where a record ends.
struct Records<'a> {
    bytes: &'a [u8],
    /// Offset of the next unread physical line.
    pos: usize,
    /// Offset just past the last line consumed outside a quoted record.
    boundary: usize,
    /// The open quoted record so far, terminators included; empty when
    /// no record is open.
    pending: String,
    /// Fields of the last [`Line::Quoted`] record.
    fields: Vec<String>,
}

impl<'a> Records<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Records {
            bytes,
            pos: 0,
            boundary: 0,
            pending: String::new(),
            fields: Vec::new(),
        }
    }

    /// True when the bytes consumed so far end inside a quoted field.
    fn open(&self) -> bool {
        !self.pending.is_empty()
    }

    /// The next record; `None` when the bytes are used up (check
    /// [`Records::open`] then). Blank lines between records are skipped.
    fn next(&mut self) -> std::result::Result<Option<Line<'a>>, Fault> {
        while self.pos < self.bytes.len() {
            let rest = &self.bytes[self.pos..];
            let len = rest
                .iter()
                .position(|&b| b == b'\n')
                .map_or(rest.len(), |i| i + 1);
            let raw = &rest[..len];
            self.pos += len;
            let line = trim_eol(raw);
            if !self.open() && !line.contains(&b'"') {
                self.boundary = self.pos;
                if line.is_empty() {
                    continue;
                }
                return Ok(Some(Line::Plain(line)));
            }
            let text = std::str::from_utf8(raw).map_err(|_| Fault::InvalidUtf8)?;
            let (line, eol) = text.split_at(line.len());
            self.pending.push_str(line);
            if parse_record(&self.pending, &mut self.fields) {
                self.pending.clear();
                self.boundary = self.pos;
                return Ok(Some(Line::Quoted));
            }
            // Still inside the quoted field: the terminator is data.
            self.pending.push_str(eol);
        }
        Ok(None)
    }
}

/// Offset just past the last complete record of `buf` whose line ends
/// in `\n`, or `None` when `buf` holds no such record yet. `buf` starts
/// at a record boundary.
fn last_boundary(buf: &[u8]) -> Option<usize> {
    let lines = buf.iter().rposition(|&b| b == b'\n')? + 1;
    let head = &buf[..lines];
    if !head.contains(&b'"') {
        return Some(lines);
    }
    let mut records = Records::new(head);
    loop {
        match records.next() {
            Ok(Some(_)) => {}
            Ok(None) => break,
            // The block parser reports this line; everything after it
            // is never merged, so any cut will do.
            Err(_) => return Some(records.pos),
        }
    }
    (records.boundary > 0).then_some(records.boundary)
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

/// What one block parsed into.
struct Fragment {
    /// One column per header field, encoded against block-local
    /// dictionaries. Aligned (`rows` long each) unless `fault` is set.
    columns: Vec<Column>,
    /// Complete records before the fault, or in the whole block.
    rows: usize,
    /// The first thing wrong in the block, in line order.
    fault: Option<Fault>,
}

/// Splits a quote-free line on `,` and interns the pieces, one per
/// column. No allocation beyond what a fresh dictionary value needs.
fn push_plain(line: &[u8], columns: &mut [Column]) -> std::result::Result<(), Fault> {
    let line = std::str::from_utf8(line).map_err(|_| Fault::InvalidUtf8)?;
    let mut got = 0;
    let mut start = 0;
    let mut push = |field: &str| {
        if let Some(column) = columns.get_mut(got) {
            column.push(field);
        }
        got += 1;
    };
    for (i, byte) in line.bytes().enumerate() {
        if byte == b',' {
            push(&line[start..i]);
            start = i + 1;
        }
    }
    push(&line[start..]);
    if got == columns.len() {
        Ok(())
    } else {
        Err(Fault::Arity(got))
    }
}

/// Parses a run of whole records against an `arity`-field header.
fn parse_block(bytes: &[u8], arity: usize) -> Fragment {
    let mut columns: Vec<Column> = (0..arity).map(|_| Column::new()).collect();
    let mut records = Records::new(bytes);
    let mut rows = 0;
    let fault = loop {
        let pushed = match records.next() {
            Ok(Some(Line::Plain(line))) => push_plain(line, &mut columns),
            Ok(Some(Line::Quoted)) if records.fields.len() != arity => {
                Err(Fault::Arity(records.fields.len()))
            }
            Ok(Some(Line::Quoted)) => {
                for (column, field) in columns.iter_mut().zip(&records.fields) {
                    column.push(field);
                }
                Ok(())
            }
            Ok(None) if records.open() => Err(Fault::Unterminated),
            Ok(None) => break None,
            Err(fault) => Err(fault),
        };
        match pushed {
            Ok(()) => rows += 1,
            Err(fault) => break Some(fault),
        }
    };
    Fragment {
        columns,
        rows,
        fault,
    }
}

/// The fields of the header record.
fn header_fields(
    line: Line<'_>,
    records: &mut Records<'_>,
) -> std::result::Result<Vec<String>, Fault> {
    match line {
        Line::Plain(line) => {
            let line = std::str::from_utf8(line).map_err(|_| Fault::InvalidUtf8)?;
            Ok(line.split(',').map(String::from).collect())
        }
        Line::Quoted => Ok(std::mem::take(&mut records.fields)),
    }
}

/// The single ingest driver (see the module docs) over `block`-byte
/// blocks on `pool`: reads the header, builds a sink with `init`, then
/// hands `merge` every block's local columns in file order — one
/// [`Column`] per header field, equally long, to be appended with
/// [`Column::append`].
pub(crate) fn ingest_blocks_of<R, T, Init, Merge>(
    reader: R,
    block: usize,
    pool: ThreadPool,
    init: Init,
    mut merge: Merge,
) -> Result<T>
where
    R: Read,
    Init: FnOnce(&[String]) -> T,
    Merge: FnMut(&mut T, Vec<Column>) -> Result<()>,
{
    let mut blocks = Blocks::new(reader, block);

    // The header is the first record; blocks of blank lines may precede
    // it. What follows it in its block is the first block to parse.
    let (names, first) = loop {
        let Some(buf) = blocks.next()? else {
            return Err(Error::Csv("empty input".into()));
        };
        let mut records = Records::new(&buf);
        let header = match records.next() {
            Ok(Some(line)) => header_fields(line, &mut records),
            Ok(None) if records.open() => Err(Fault::Unterminated),
            Ok(None) => continue,
            Err(fault) => Err(fault),
        };
        let names = header.map_err(|fault| fault.at(1, 0))?;
        let rest = records.boundary;
        break (names, (buf, rest));
    };
    let arity = names.len();
    let mut sink = init(&names);

    // Complete records so far, the header included.
    let mut records = 1;
    let mut wave = vec![first];
    let mut read_error = None;
    let mut done = false;
    while !done {
        while wave.len() < pool.threads() && !done && read_error.is_none() {
            match blocks.next() {
                Ok(Some(buf)) => wave.push((buf, 0)),
                Ok(None) => done = true,
                // Reported after the blocks read before it, so that a
                // malformed record ahead of the failure wins at any
                // thread count.
                Err(e) => read_error = Some(e),
            }
        }
        let fragments = pool.map_indices(wave.len(), |i| {
            let (buf, from) = &wave[i];
            parse_block(&buf[*from..], arity)
        });
        wave.clear();
        for fragment in fragments {
            // The header is the one record that is not a row.
            check_capacity(records - 1, fragment.rows)?;
            records += fragment.rows;
            if let Some(fault) = fragment.fault {
                return Err(fault.at(records + 1, arity));
            }
            if fragment.rows > 0 {
                merge(&mut sink, fragment.columns)?;
            }
        }
        if let Some(e) = read_error {
            return Err(e);
        }
    }
    Ok(sink)
}

/// Reads a table from CSV text through the block reader (the input is
/// never held in memory as a whole; only the growing table is).
pub fn read_csv<R: Read>(reader: R) -> Result<Table> {
    read_csv_of(reader, BLOCK_BYTES, ThreadPool::current())
}

/// [`read_csv`] with the block size and the pool as arguments, for
/// tests.
pub(crate) fn read_csv_of<R: Read>(reader: R, block: usize, pool: ThreadPool) -> Result<Table> {
    ingest_blocks_of(
        reader,
        block,
        pool,
        |header| TableBuilder::new(header.iter().map(String::as_str)),
        TableBuilder::append_columns,
    )
    .map(TableBuilder::finish)
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
                    column.dict().values().to_vec(),
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
            let rows = ingest_blocks_of(
                reader,
                block,
                ThreadPool::new(threads),
                |_| 0usize,
                |merged, columns| {
                    let held = read.load(Ordering::Relaxed) - WIDTH * (1 + *merged);
                    assert!(
                        held <= threads * block + WIDTH,
                        "block={block} threads={threads}: {held} input bytes held"
                    );
                    *merged += columns[0].len();
                    Ok(())
                },
            );
            assert_eq!(rows, Ok(5000));
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
                let mut records = Records::new(&buf);
                while records.next().unwrap().is_some() {}
                assert!(!records.open(), "block={block} ends inside a record");
                joined.extend_from_slice(&buf);
            }
            assert_eq!(joined, input.as_bytes(), "block={block}");
        }
    }
}
