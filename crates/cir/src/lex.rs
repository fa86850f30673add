//! Lexer for the C subset (shared vocabulary with the qualifier-definition
//! language, which has its own parser in `stq-qualspec`).

use std::fmt;
use stq_util::{Span, Symbol};

/// A lexical token.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(Symbol),
    /// Integer literal.
    Int(i64),
    /// String literal (contents, unescaped).
    Str(String),
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `{`.
    LBrace,
    /// `}`.
    RBrace,
    /// `[`.
    LBracket,
    /// `]`.
    RBracket,
    /// `;`.
    Semi,
    /// `,`.
    Comma,
    /// `:`.
    Colon,
    /// `*`.
    Star,
    /// `&`.
    Amp,
    /// `|`.
    Pipe,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `/`.
    Slash,
    /// `%`.
    Percent,
    /// `=`.
    Assign,
    /// `==`.
    EqEq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `&&`.
    AndAnd,
    /// `||`.
    OrOr,
    /// `!`.
    Not,
    /// `~`.
    Tilde,
    /// `.`.
    Dot,
    /// `->`.
    Arrow,
    /// `=>`.
    FatArrow,
    /// `...`.
    Ellipsis,
    /// `++`.
    PlusPlus,
    /// `--`.
    MinusMinus,
    /// `+=`.
    PlusEq,
    /// `-=`.
    MinusEq,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::LParen => f.write_str("("),
            Tok::RParen => f.write_str(")"),
            Tok::LBrace => f.write_str("{"),
            Tok::RBrace => f.write_str("}"),
            Tok::LBracket => f.write_str("["),
            Tok::RBracket => f.write_str("]"),
            Tok::Semi => f.write_str(";"),
            Tok::Comma => f.write_str(","),
            Tok::Colon => f.write_str(":"),
            Tok::Star => f.write_str("*"),
            Tok::Amp => f.write_str("&"),
            Tok::Pipe => f.write_str("|"),
            Tok::Plus => f.write_str("+"),
            Tok::Minus => f.write_str("-"),
            Tok::Slash => f.write_str("/"),
            Tok::Percent => f.write_str("%"),
            Tok::Assign => f.write_str("="),
            Tok::EqEq => f.write_str("=="),
            Tok::Ne => f.write_str("!="),
            Tok::Lt => f.write_str("<"),
            Tok::Le => f.write_str("<="),
            Tok::Gt => f.write_str(">"),
            Tok::Ge => f.write_str(">="),
            Tok::AndAnd => f.write_str("&&"),
            Tok::OrOr => f.write_str("||"),
            Tok::Not => f.write_str("!"),
            Tok::Tilde => f.write_str("~"),
            Tok::Dot => f.write_str("."),
            Tok::Arrow => f.write_str("->"),
            Tok::FatArrow => f.write_str("=>"),
            Tok::Ellipsis => f.write_str("..."),
            Tok::PlusPlus => f.write_str("++"),
            Tok::MinusMinus => f.write_str("--"),
            Tok::PlusEq => f.write_str("+="),
            Tok::MinusEq => f.write_str("-="),
            Tok::Eof => f.write_str("<eof>"),
        }
    }
}

/// A token with its source span.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// Source location.
    pub span: Span,
}

/// A lexing failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LexError {
    /// What went wrong.
    pub message: String,
    /// Where.
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes `src`, skipping whitespace, `//` line comments, and `/* */`
/// block comments. The final token is always [`Tok::Eof`].
///
/// # Errors
///
/// Returns a [`LexError`] on unterminated strings or comments, integer
/// overflow, and unexpected characters.
///
/// # Examples
///
/// ```
/// use stq_cir::lex::{lex, Tok};
///
/// let toks = lex("int pos x = 3; // comment").unwrap();
/// assert!(matches!(toks[0].tok, Tok::Ident(_)));
/// assert_eq!(toks[3].tok, Tok::Assign);
/// assert_eq!(toks[4].tok, Tok::Int(3));
/// assert_eq!(toks.last().unwrap().tok, Tok::Eof);
/// ```
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let bytes = src.as_bytes();
    // C text runs about three bytes a token, so one slot per two bytes
    // lexes without reallocating (a reallocation holds two buffers at
    // once), and the unused tail is returned at the end: the tokens stay
    // live next to the whole tree while the parser runs, and a resident
    // daemon keeps each worker's peak.
    let mut toks = Vec::with_capacity(src.len() / 2 + 1);
    let mut i = 0usize;
    let err = |msg: &str, at: usize| LexError {
        message: msg.to_owned(),
        span: Span::new(at as u32, (at + 1).min(src.len()) as u32),
    };
    while i < bytes.len() {
        let c = bytes[i];
        // Whitespace.
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == b'/' && i + 1 < bytes.len() {
            if bytes[i + 1] == b'/' {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            if bytes[i + 1] == b'*' {
                let start = i;
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(err("unterminated block comment", start));
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
                continue;
            }
        }
        let start = i;
        // Identifiers and keywords.
        if c.is_ascii_alphabetic() || c == b'_' {
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let text = &src[start..i];
            toks.push(Token {
                tok: Tok::Ident(Symbol::intern(text)),
                span: Span::new(start as u32, i as u32),
            });
            continue;
        }
        // Integer literals.
        if c.is_ascii_digit() {
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            let text = &src[start..i];
            let value: i64 = text
                .parse()
                .map_err(|_| err("integer literal overflows i64", start))?;
            toks.push(Token {
                tok: Tok::Int(value),
                span: Span::new(start as u32, i as u32),
            });
            continue;
        }
        // String literals.
        if c == b'"' {
            i += 1;
            let mut out = String::new();
            loop {
                if i >= bytes.len() {
                    return Err(err("unterminated string literal", start));
                }
                match bytes[i] {
                    b'"' => {
                        i += 1;
                        break;
                    }
                    b'\\' => {
                        if i + 1 >= bytes.len() {
                            return Err(err("unterminated escape", i));
                        }
                        let esc = bytes[i + 1];
                        out.push(match esc {
                            b'n' => '\n',
                            b't' => '\t',
                            b'r' => '\r',
                            b'0' => '\0',
                            b'\\' => '\\',
                            b'"' => '"',
                            other => {
                                return Err(err(&format!("unknown escape \\{}", other as char), i))
                            }
                        });
                        i += 2;
                    }
                    other => {
                        out.push(other as char);
                        i += 1;
                    }
                }
            }
            toks.push(Token {
                tok: Tok::Str(out),
                span: Span::new(start as u32, i as u32),
            });
            continue;
        }
        // Character literals become integer literals.
        if c == b'\'' {
            if i + 2 < bytes.len() && bytes[i + 1] != b'\\' && bytes[i + 2] == b'\'' {
                toks.push(Token {
                    tok: Tok::Int(i64::from(bytes[i + 1])),
                    span: Span::new(start as u32, (i + 3) as u32),
                });
                i += 3;
                continue;
            }
            if i + 3 < bytes.len() && bytes[i + 1] == b'\\' && bytes[i + 3] == b'\'' {
                let v = match bytes[i + 2] {
                    b'n' => b'\n',
                    b't' => b'\t',
                    b'0' => 0,
                    b'\\' => b'\\',
                    other => other,
                };
                toks.push(Token {
                    tok: Tok::Int(i64::from(v)),
                    span: Span::new(start as u32, (i + 4) as u32),
                });
                i += 4;
                continue;
            }
            return Err(err("malformed character literal", start));
        }
        // Punctuation, longest match first. `get` (not slicing) so a
        // multibyte character straddling the window yields "" and falls
        // through to the unexpected-character diagnostic below instead
        // of panicking on a non-boundary index.
        let two = src.get(i..i + 2).unwrap_or("");
        let three = src.get(i..i + 3).unwrap_or("");
        let (tok, len) = if three == "..." {
            (Tok::Ellipsis, 3)
        } else {
            match two {
                "==" => (Tok::EqEq, 2),
                "!=" => (Tok::Ne, 2),
                "<=" => (Tok::Le, 2),
                ">=" => (Tok::Ge, 2),
                "&&" => (Tok::AndAnd, 2),
                "||" => (Tok::OrOr, 2),
                "->" => (Tok::Arrow, 2),
                "=>" => (Tok::FatArrow, 2),
                "++" => (Tok::PlusPlus, 2),
                "--" => (Tok::MinusMinus, 2),
                "+=" => (Tok::PlusEq, 2),
                "-=" => (Tok::MinusEq, 2),
                _ => match c {
                    b'(' => (Tok::LParen, 1),
                    b')' => (Tok::RParen, 1),
                    b'{' => (Tok::LBrace, 1),
                    b'}' => (Tok::RBrace, 1),
                    b'[' => (Tok::LBracket, 1),
                    b']' => (Tok::RBracket, 1),
                    b';' => (Tok::Semi, 1),
                    b',' => (Tok::Comma, 1),
                    b':' => (Tok::Colon, 1),
                    b'*' => (Tok::Star, 1),
                    b'&' => (Tok::Amp, 1),
                    b'|' => (Tok::Pipe, 1),
                    b'+' => (Tok::Plus, 1),
                    b'-' => (Tok::Minus, 1),
                    b'/' => (Tok::Slash, 1),
                    b'%' => (Tok::Percent, 1),
                    b'=' => (Tok::Assign, 1),
                    b'<' => (Tok::Lt, 1),
                    b'>' => (Tok::Gt, 1),
                    b'!' => (Tok::Not, 1),
                    b'~' => (Tok::Tilde, 1),
                    b'.' => (Tok::Dot, 1),
                    other => {
                        return Err(err(&format!("unexpected character {:?}", other as char), i))
                    }
                },
            }
        };
        toks.push(Token {
            tok,
            span: Span::new(start as u32, (start + len) as u32),
        });
        i += len;
    }
    toks.push(Token {
        tok: Tok::Eof,
        span: Span::new(src.len() as u32, src.len() as u32),
    });
    toks.shrink_to_fit();
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn empty_input_is_just_eof() {
        assert_eq!(kinds(""), vec![Tok::Eof]);
    }

    #[test]
    fn identifiers_and_ints() {
        assert_eq!(
            kinds("foo 42 _bar9"),
            vec![
                Tok::Ident(Symbol::intern("foo")),
                Tok::Int(42),
                Tok::Ident(Symbol::intern("_bar9")),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // line\n b /* block\n still */ c"),
            vec![
                Tok::Ident(Symbol::intern("a")),
                Tok::Ident(Symbol::intern("b")),
                Tok::Ident(Symbol::intern("c")),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(lex("a /* oops").is_err());
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            kinds(r#""a\nb" "%s""#),
            vec![
                Tok::Str("a\nb".to_owned()),
                Tok::Str("%s".to_owned()),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"oops").is_err());
    }

    #[test]
    fn char_literals_are_ints() {
        assert_eq!(kinds("'a'"), vec![Tok::Int(97), Tok::Eof]);
        assert_eq!(kinds("'\\n'"), vec![Tok::Int(10), Tok::Eof]);
        assert_eq!(kinds("'\\0'"), vec![Tok::Int(0), Tok::Eof]);
    }

    #[test]
    fn multi_char_operators() {
        assert_eq!(
            kinds("== != <= >= && || -> ... ++ += --"),
            vec![
                Tok::EqEq,
                Tok::Ne,
                Tok::Le,
                Tok::Ge,
                Tok::AndAnd,
                Tok::OrOr,
                Tok::Arrow,
                Tok::Ellipsis,
                Tok::PlusPlus,
                Tok::PlusEq,
                Tok::MinusMinus,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn arrow_vs_minus() {
        assert_eq!(
            kinds("a - > b"),
            vec![
                Tok::Ident(Symbol::intern("a")),
                Tok::Minus,
                Tok::Gt,
                Tok::Ident(Symbol::intern("b")),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn spans_track_offsets() {
        let toks = lex("ab cd").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 5));
    }

    #[test]
    fn unexpected_character_errors() {
        assert!(lex("a $ b").is_err());
    }

    #[test]
    fn integer_overflow_errors() {
        assert!(lex("999999999999999999999999999").is_err());
    }
}
