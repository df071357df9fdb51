// Accept fixture (ingest scope): malformed CSV bytes become errors, and
// the reference reader may panic because it only exists under test.

fn field_count(line: &[u8]) -> Result<usize, String> {
    let text = std::str::from_utf8(line).map_err(|_| "invalid UTF-8".to_string())?;
    Ok(text.split(',').count())
}

fn header(first: Option<&[u8]>) -> Result<usize, String> {
    let Some(line) = first else {
        return Err("empty input".to_string());
    };
    field_count(line)
}

#[cfg(test)]
mod reference {
    fn field_count(line: &[u8]) -> usize {
        std::str::from_utf8(line).unwrap().split(',').count()
    }
}
