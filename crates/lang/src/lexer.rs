//! The lexer: source text to a token stream.
//!
//! Accepts C-style `//` line comments, decimal, hex (`0x`), and octal
//! (`0o`) integer literals, and the operator set of [`TokenKind`].

use crate::error::{CompileError, Result};
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Lexes `src` completely; the final token is always [`TokenKind::Eof`].
///
/// # Errors
///
/// Reports stray characters and out-of-range integer literals with their
/// source spans.
pub fn lex(src: &str) -> Result<Vec<Token>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        // Whitespace.
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Line comments.
        if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        let start = i;
        // Identifiers and keywords.
        if b.is_ascii_alphabetic() || b == b'_' {
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let text = &src[start..i];
            let kind = match text {
                "global" => TokenKind::Global,
                "proc" => TokenKind::Proc,
                "let" => TokenKind::Let,
                "if" => TokenKind::If,
                "else" => TokenKind::Else,
                "while" => TokenKind::While,
                "return" => TokenKind::Return,
                _ => TokenKind::Ident(text.to_string()),
            };
            out.push(Token {
                kind,
                span: Span::new(start, i),
            });
            continue;
        }
        // Integer literals.
        if b.is_ascii_digit() {
            let radix = if b == b'0' && matches!(bytes.get(i + 1), Some(b'x' | b'X')) {
                i += 2;
                16
            } else if b == b'0' && matches!(bytes.get(i + 1), Some(b'o' | b'O')) {
                i += 2;
                8
            } else {
                10
            };
            let digits_start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let digits: String = src[digits_start..i].chars().filter(|&c| c != '_').collect();
            let span = Span::new(start, i);
            if digits.is_empty() {
                return Err(CompileError::new(span, "integer literal has no digits"));
            }
            let value = u32::from_str_radix(&digits, radix)
                .map_err(|_| CompileError::new(span, "malformed integer literal"))?;
            let value = u16::try_from(value).map_err(|_| {
                CompileError::new(span, format!("integer {value} does not fit in 16 bits"))
            })?;
            out.push(Token {
                kind: TokenKind::Int(value),
                span,
            });
            continue;
        }
        // Operators, longest match first.
        let two = bytes.get(i + 1).map(|&b2| (b, b2));
        let (kind, len) = match two {
            Some((b'=', b'=')) => (TokenKind::Eq, 2),
            Some((b'!', b'=')) => (TokenKind::Ne, 2),
            Some((b'<', b'=')) => (TokenKind::Le, 2),
            Some((b'>', b'=')) => (TokenKind::Ge, 2),
            Some((b'<', b'<')) => (TokenKind::Shl, 2),
            Some((b'>', b'>')) => (TokenKind::Shr, 2),
            Some((b'&', b'&')) => (TokenKind::AndAnd, 2),
            Some((b'|', b'|')) => (TokenKind::OrOr, 2),
            _ => match b {
                b'(' => (TokenKind::LParen, 1),
                b')' => (TokenKind::RParen, 1),
                b'{' => (TokenKind::LBrace, 1),
                b'}' => (TokenKind::RBrace, 1),
                b',' => (TokenKind::Comma, 1),
                b';' => (TokenKind::Semi, 1),
                b'=' => (TokenKind::Assign, 1),
                b'<' => (TokenKind::Lt, 1),
                b'>' => (TokenKind::Gt, 1),
                b'+' => (TokenKind::Plus, 1),
                b'-' => (TokenKind::Minus, 1),
                b'*' => (TokenKind::Star, 1),
                b'/' => (TokenKind::Slash, 1),
                b'%' => (TokenKind::Percent, 1),
                b'&' => (TokenKind::Amp, 1),
                b'|' => (TokenKind::Pipe, 1),
                b'^' => (TokenKind::Caret, 1),
                b'~' => (TokenKind::Tilde, 1),
                b'!' => (TokenKind::Bang, 1),
                _ => {
                    return Err(CompileError::new(
                        Span::new(start, start + 1),
                        format!(
                            "unexpected character `{}`",
                            src[start..].chars().next().unwrap()
                        ),
                    ));
                }
            },
        };
        i += len;
        out.push(Token {
            kind,
            span: Span::new(start, i),
        });
    }
    out.push(Token {
        kind: TokenKind::Eof,
        span: Span::new(src.len(), src.len()),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            kinds("let while whiles _x"),
            vec![
                TokenKind::Let,
                TokenKind::While,
                TokenKind::Ident("whiles".into()),
                TokenKind::Ident("_x".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn integer_radixes() {
        assert_eq!(
            kinds("10 0x1f 0o17 1_000"),
            vec![
                TokenKind::Int(10),
                TokenKind::Int(0x1f),
                TokenKind::Int(0o17),
                TokenKind::Int(1000),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn two_char_operators_win() {
        assert_eq!(
            kinds("<< <= < == = && & || |"),
            vec![
                TokenKind::Shl,
                TokenKind::Le,
                TokenKind::Lt,
                TokenKind::Eq,
                TokenKind::Assign,
                TokenKind::AndAnd,
                TokenKind::Amp,
                TokenKind::OrOr,
                TokenKind::Pipe,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("1 // two three\n4"),
            vec![TokenKind::Int(1), TokenKind::Int(4), TokenKind::Eof]
        );
    }

    #[test]
    fn out_of_range_literal_is_an_error() {
        let e = lex("70000").unwrap_err();
        assert!(e.msg.contains("16 bits"), "{e}");
        assert_eq!(e.span, Span::new(0, 5));
    }

    #[test]
    fn empty_hex_literal_is_an_error() {
        let e = lex("0x;").unwrap_err();
        assert!(e.msg.contains("no digits"), "{e}");
    }

    #[test]
    fn stray_character_is_an_error() {
        let e = lex("a @ b").unwrap_err();
        assert!(e.msg.contains('@'), "{e}");
        assert_eq!(e.span.start, 2);
    }

    #[test]
    fn spans_cover_tokens() {
        let toks = lex("ab + 12").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 4));
        assert_eq!(toks[2].span, Span::new(5, 7));
    }
}
