//! Tokeniser for the OLAP dialect.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Token {
    /// Keyword or bare identifier (keywords are matched
    /// case-insensitively by the parser).
    Ident(String),
    /// `"quoted identifier"` with `""` escapes resolved: always a name,
    /// never a keyword (`"Group"`, `"count"`).
    QuotedIdent(String),
    /// `'quoted string'` with `''` escapes resolved.
    Str(String),
    /// Numeric literal, kept in written form.
    Num(String),
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `,`.
    Comma,
    /// `=`.
    Eq,
    /// `<>` or `!=`.
    NotEq,
    /// `*`.
    Star,
    /// `.` (qualified names).
    Dot,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::QuotedIdent(s) => write!(f, "{}", crate::ast::Ident(s)),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Num(s) => write!(f, "{s}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
            Token::Eq => write!(f, "="),
            Token::NotEq => write!(f, "<>"),
            Token::Star => write!(f, "*"),
            Token::Dot => write!(f, "."),
        }
    }
}

/// Lexer errors: the offending position and a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset in the input.
    pub pos: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenises `input`. Text inside `'…'` and `"…"` is kept as the
/// UTF-8 it arrived as; outside quotes the dialect is ASCII, and any
/// other character is an error at its byte offset.
pub fn tokenize(input: &str) -> Result<Vec<Token>, LexError> {
    let mut tokens = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some(&(start, c)) = chars.peek() {
        let single = match c {
            '(' => Some(Token::LParen),
            ')' => Some(Token::RParen),
            ',' => Some(Token::Comma),
            '=' => Some(Token::Eq),
            '*' => Some(Token::Star),
            '.' => Some(Token::Dot),
            _ => None,
        };
        if let Some(token) = single {
            tokens.push(token);
            chars.next();
            continue;
        }
        match c {
            c if c.is_ascii() && c.is_whitespace() => {
                chars.next();
            }
            '<' | '!' => {
                chars.next();
                let second = if c == '<' { '>' } else { '=' };
                if chars.next_if(|&(_, n)| n == second).is_none() {
                    return Err(unexpected(start, c));
                }
                tokens.push(Token::NotEq);
            }
            '\'' | '"' => {
                // `'string'` with '' escapes, or a `"quoted identifier"`
                // with "" escapes.
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        None => {
                            let what = if c == '"' {
                                "quoted identifier"
                            } else {
                                "string literal"
                            };
                            return Err(LexError {
                                pos: start,
                                message: format!("unterminated {what}"),
                            });
                        }
                        Some((_, q)) if q == c => {
                            if chars.next_if(|&(_, n)| n == c).is_some() {
                                s.push(c);
                            } else {
                                break;
                            }
                        }
                        Some((_, other)) => s.push(other),
                    }
                }
                tokens.push(if c == '"' {
                    Token::QuotedIdent(s)
                } else {
                    Token::Str(s)
                });
            }
            c if c.is_ascii_digit() => {
                let mut s = String::new();
                loop {
                    let mut ahead = chars.clone();
                    match ahead.next() {
                        Some((_, d)) if d.is_ascii_digit() => s.push(d),
                        // A '.' belongs to the number only when a digit
                        // follows it (`1.x` is not a qualified name we
                        // support).
                        Some((_, '.')) if ahead.next().is_some_and(|(_, d)| d.is_ascii_digit()) => {
                            s.push('.')
                        }
                        _ => break,
                    }
                    chars.next();
                }
                tokens.push(Token::Num(s));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some((_, n)) =
                    chars.next_if(|&(_, n)| n.is_ascii_alphanumeric() || n == '_')
                {
                    s.push(n);
                }
                tokens.push(Token::Ident(s));
            }
            other => return Err(unexpected(start, other)),
        }
    }
    Ok(tokens)
}

fn unexpected(pos: usize, c: char) -> LexError {
    LexError {
        pos,
        message: format!("unexpected character `{c}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_query_tokens() {
        let toks = tokenize("SELECT avg(Delayed) FROM FlightData").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("SELECT".into()),
                Token::Ident("avg".into()),
                Token::LParen,
                Token::Ident("Delayed".into()),
                Token::RParen,
                Token::Ident("FROM".into()),
                Token::Ident("FlightData".into()),
            ]
        );
    }

    #[test]
    fn string_escapes() {
        let toks = tokenize("'O''Hare'").unwrap();
        assert_eq!(toks, vec![Token::Str("O'Hare".into())]);
    }

    #[test]
    fn numbers_and_operators() {
        let toks = tokenize("x = 1, y <> 2.5, z != 3").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("x".into()),
                Token::Eq,
                Token::Num("1".into()),
                Token::Comma,
                Token::Ident("y".into()),
                Token::NotEq,
                Token::Num("2.5".into()),
                Token::Comma,
                Token::Ident("z".into()),
                Token::NotEq,
                Token::Num("3".into()),
            ]
        );
    }

    #[test]
    fn quoted_identifier() {
        let toks = tokenize("\"Departure Time\" \"Group\" \"say \"\"hi\"\"\"").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::QuotedIdent("Departure Time".into()),
                Token::QuotedIdent("Group".into()),
                Token::QuotedIdent("say \"hi\"".into()),
            ]
        );
        assert_eq!(toks[2].to_string(), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("'abc").is_err());
        assert!(tokenize("\"abc").is_err());
    }

    #[test]
    fn unexpected_character_errors() {
        let err = tokenize("a ; b").unwrap_err();
        assert!(err.message.contains(";"));
        assert_eq!(err.pos, 2);
        assert_eq!(tokenize("a < b").unwrap_err().pos, 2);
        // Outside quotes the dialect is ASCII: a multi-byte character is
        // an error at its byte offset, wherever it falls in a token.
        for (sql, pos) in [
            ("SELECT é FROM t", 7),
            ("abé", 2),
            ("1٣", 1),
            ("a \u{a0}b", 2),
        ] {
            let err = tokenize(sql).unwrap_err();
            assert_eq!(err.pos, pos, "{sql}");
            assert!(err.message.contains("unexpected character"), "{sql}");
        }
    }

    #[test]
    fn quoted_text_keeps_its_utf8() {
        let toks = tokenize("\"Café 中\" = 'café''s 😀'").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::QuotedIdent("Café 中".into()),
                Token::Eq,
                Token::Str("café's 😀".into()),
            ]
        );
    }

    #[test]
    fn count_star_tokens() {
        let toks = tokenize("count(*)").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("count".into()),
                Token::LParen,
                Token::Star,
                Token::RParen,
            ]
        );
    }
}
