// Accept fixture (request-text scope): SQL and JSON nobody anticipated
// come back as typed errors; the parser's own token check is a method
// that returns `Result`, not `Option::expect`.

struct Parser {
    tokens: Vec<String>,
    pos: usize,
}

impl Parser {
    fn require(&mut self, token: &str) -> Result<(), String> {
        if self.tokens.get(self.pos).map(String::as_str) == Some(token) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{token}`"))
        }
    }

    fn call(&mut self) -> Result<(), String> {
        self.require("(")?;
        self.require(")")
    }
}

fn grouped_position(group_by: &[String], column: &str) -> Result<usize, String> {
    group_by
        .iter()
        .position(|g| g == column)
        .ok_or_else(|| format!("column `{column}` must appear in GROUP BY"))
}

fn body(fields: &[(String, String)]) -> String {
    // lint:allow(unwrap-in-request-path) — the fields are plain string pairs; rendering them has no failing branch
    render(fields).expect("string pairs render")
}

fn render(fields: &[(String, String)]) -> Result<String, String> {
    Ok(fields
        .iter()
        .map(|(k, v)| format!("{k:?}:{v:?}"))
        .collect::<Vec<_>>()
        .join(","))
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        super::grouped_position(&["g".to_string()], "g").unwrap();
    }
}
