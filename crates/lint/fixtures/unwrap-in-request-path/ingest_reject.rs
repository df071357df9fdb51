// Reject fixture (ingest scope): a malformed file panics the reader.

fn field_count(line: &[u8]) -> usize {
    let text = std::str::from_utf8(line).unwrap();
    text.split(',').count()
}

fn header(first: Option<&[u8]>) -> usize {
    let line = first.expect("a header line");
    if line.is_empty() {
        panic!("blank header");
    }
    field_count(line)
}
