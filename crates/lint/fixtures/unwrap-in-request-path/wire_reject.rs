// Reject fixture (request-text scope): a request's own text panics the
// worker that parses it.

fn grouped_position(group_by: &[String], column: &str) -> usize {
    group_by.iter().position(|g| g == column).expect("validated")
}

fn limit(text: &str) -> usize {
    text.trim().parse().unwrap()
}

fn operator(token: &str) -> &'static str {
    match token {
        "=" => "eq",
        "<>" => "ne",
        _ => unreachable!("the lexer only emits comparison operators"),
    }
}

fn body(rendered: Result<String, String>) -> String {
    match rendered {
        Ok(text) => text,
        Err(e) => panic!("report does not serialize: {e}"),
    }
}
