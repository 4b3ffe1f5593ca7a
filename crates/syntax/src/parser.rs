//! Parser for NKA expressions.
//!
//! Grammar (multiplication by juxtaposition, as in the paper):
//!
//! ```text
//! expr   := term ('+' term)*
//! term   := factor factor*
//! factor := base '*'*
//! base   := '0' | '1' | ident | '(' expr ')'
//! ident  := [a-zA-Z_][a-zA-Z0-9_']*
//! ```
//!
//! Nesting is bounded by [`MAX_NESTING_DEPTH`]: at most that many open
//! parentheses at any point (they bound the parser's own recursion),
//! and at most that many stars stacked on one operand (each postfix
//! `*` is one level; parentheses do not add to it, so the printed form
//! of a parsed term, which parenthesizes nested stars, parses again).
//! Deeper input is a `nesting too deep` error spanning the offending
//! token. Terms built through the [`Expr`] constructors are not
//! limited.

use crate::{Expr, Symbol};
use std::fmt;
use std::str::FromStr;

/// Error returned when parsing an [`Expr`] from malformed input.
///
/// Carries the half-open byte span `[start, end)` of the offending input
/// (the span of the unexpected token, or an empty span at the end of the
/// input), so diagnostics can point at the exact source location — see
/// [`ParseExprError::caret`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseExprError {
    message: String,
    start: usize,
    end: usize,
}

impl ParseExprError {
    fn new(message: impl Into<String>, start: usize, end: usize) -> Self {
        ParseExprError {
            message: message.into(),
            start,
            end,
        }
    }

    /// Byte offset in the input at which the error occurred.
    pub fn position(&self) -> usize {
        self.start
    }

    /// The half-open byte span `[start, end)` of the offending token.
    /// An empty span (`start == end`) means the error is *at* that point —
    /// typically an unexpected end of input.
    pub fn span(&self) -> (usize, usize) {
        (self.start, self.end)
    }

    /// The bare message, without the byte-offset suffix of `Display`.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Renders the source with a `^^^` caret line under the offending span:
    ///
    /// ```text
    /// a + ?
    ///     ^ unexpected character '?'
    /// ```
    ///
    /// `src` must be the string this error was produced from; columns are
    /// counted in characters, so multi-byte input aligns correctly.
    pub fn caret(&self, src: &str) -> String {
        render_caret(src, self.start, self.end, &self.message)
    }
}

/// Renders `src` with a `^^^` caret line under the byte span
/// `[start, end)` followed by `msg` — the shared diagnostic shape of
/// every span-bearing parse error in the workspace ([`ParseExprError`]
/// here, `ParseProgError` in the quantum surface language). Columns are
/// counted in characters, so multi-byte input aligns; an empty or
/// out-of-range span renders a single caret at the clamped position.
#[must_use]
pub fn render_caret(src: &str, start: usize, end: usize, msg: &str) -> String {
    let start = start.min(src.len());
    let end = end.clamp(start, src.len());
    let col = src[..start].chars().count();
    let width = src[start..end].chars().count().max(1);
    format!(
        "{src}\n{pad}{carets} {msg}",
        pad = " ".repeat(col),
        carets = "^".repeat(width),
    )
}

/// The nesting limit shared by every request parser in the workspace:
/// this expression parser, the quantum surface language, and the wire
/// layer's JSON reader. Input at the limit parses and answers on a
/// default 2 MiB thread stack; one level deeper is a structured
/// `nesting too deep` error rather than a stack overflow.
pub const MAX_NESTING_DEPTH: usize = 256;

/// The message of every nesting-limit error.
#[must_use]
pub fn nesting_too_deep() -> String {
    format!("nesting too deep (the limit is {MAX_NESTING_DEPTH} levels)")
}

impl fmt::Display for ParseExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.start)
    }
}

impl std::error::Error for ParseExprError {}

/// A token; an identifier borrows its text from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Token<'src> {
    Plus,
    Star,
    LParen,
    RParen,
    Zero,
    One,
    Ident(&'src str),
}

/// A token plus its half-open byte span in the source.
type Spanned<'src> = (Token<'src>, usize, usize);

fn tokenize(input: &str) -> Result<Vec<Spanned<'_>>, ParseExprError> {
    // About one token per two bytes: a token and the space after it.
    let mut tokens = Vec::with_capacity(input.len() / 2 + 2);
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let single = |t| (t, i, i + 1);
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'+' => {
                tokens.push(single(Token::Plus));
                i += 1;
            }
            b'*' => {
                tokens.push(single(Token::Star));
                i += 1;
            }
            b'(' => {
                tokens.push(single(Token::LParen));
                i += 1;
            }
            b')' => {
                tokens.push(single(Token::RParen));
                i += 1;
            }
            b'0' => {
                tokens.push(single(Token::Zero));
                i += 1;
            }
            b'1' => {
                tokens.push(single(Token::One));
                i += 1;
            }
            b'.' | b';' => i += 1, // optional explicit composition separators
            _ if b.is_ascii_alphabetic() || b == b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'\'')
                {
                    i += 1;
                }
                tokens.push((Token::Ident(&input[start..i]), start, i));
            }
            _ => {
                // Span the whole character, not just its first byte.
                let ch = input[i..].chars().next().expect("non-empty remainder");
                return Err(ParseExprError::new(
                    format!("unexpected character {ch:?}"),
                    i,
                    i + ch.len_utf8(),
                ));
            }
        }
    }
    Ok(tokens)
}

struct Parser<'src> {
    tokens: Vec<Spanned<'src>>,
    pos: usize,
    input_len: usize,
    /// Parentheses currently open.
    open_parens: usize,
}

impl<'src> Parser<'src> {
    fn peek(&self) -> Option<&Token<'src>> {
        self.tokens.get(self.pos).map(|(t, _, _)| t)
    }

    /// The span of the current token, or the empty end-of-input span.
    fn here(&self) -> (usize, usize) {
        self.tokens
            .get(self.pos)
            .map_or((self.input_len, self.input_len), |&(_, s, e)| (s, e))
    }

    fn bump(&mut self) -> Option<Token<'src>> {
        let t = self.tokens.get(self.pos).map(|&(t, _, _)| t);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Each parse step returns the term and its star level: the most
    /// stars stacked on any operand inside it.
    fn parse_expr(&mut self) -> Result<(Expr, usize), ParseExprError> {
        let (mut acc, mut level) = self.parse_term()?;
        while self.peek() == Some(&Token::Plus) {
            self.bump();
            let (rhs, rhs_level) = self.parse_term()?;
            acc = acc.add(&rhs);
            level = level.max(rhs_level);
        }
        Ok((acc, level))
    }

    fn parse_term(&mut self) -> Result<(Expr, usize), ParseExprError> {
        let (mut acc, mut level) = self.parse_factor()?;
        loop {
            match self.peek() {
                Some(Token::Zero | Token::One | Token::Ident(_) | Token::LParen) => {
                    let (rhs, rhs_level) = self.parse_factor()?;
                    acc = acc.mul(&rhs);
                    level = level.max(rhs_level);
                }
                _ => return Ok((acc, level)),
            }
        }
    }

    fn parse_factor(&mut self) -> Result<(Expr, usize), ParseExprError> {
        let (mut base, mut level) = self.parse_base()?;
        while self.peek() == Some(&Token::Star) {
            if level >= MAX_NESTING_DEPTH {
                let (start, end) = self.here();
                return Err(ParseExprError::new(nesting_too_deep(), start, end));
            }
            self.bump();
            base = base.star();
            level += 1;
        }
        Ok((base, level))
    }

    fn parse_base(&mut self) -> Result<(Expr, usize), ParseExprError> {
        let (at, at_end) = self.here();
        match self.bump() {
            Some(Token::Zero) => Ok((Expr::zero(), 0)),
            Some(Token::One) => Ok((Expr::one(), 0)),
            Some(Token::Ident(name)) => Ok((Expr::atom(Symbol::intern(name)), 0)),
            Some(Token::LParen) => {
                if self.open_parens >= MAX_NESTING_DEPTH {
                    return Err(ParseExprError::new(nesting_too_deep(), at, at_end));
                }
                self.open_parens += 1;
                let inner = self.parse_expr()?;
                self.open_parens -= 1;
                let (close, close_end) = self.here();
                match self.bump() {
                    Some(Token::RParen) => Ok(inner),
                    _ => Err(ParseExprError::new(
                        format!("expected ')' to close the '(' at byte {at}"),
                        close,
                        close_end,
                    )),
                }
            }
            Some(tok) => Err(ParseExprError::new(
                format!("unexpected token {tok:?}"),
                at,
                at_end,
            )),
            None => Err(ParseExprError::new("unexpected end of input", at, at_end)),
        }
    }
}

impl FromStr for Expr {
    type Err = ParseExprError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let tokens = tokenize(s)?;
        let mut parser = Parser {
            tokens,
            pos: 0,
            input_len: s.len(),
            open_parens: 0,
        };
        let (expr, _) = parser.parse_expr()?;
        if parser.pos != parser.tokens.len() {
            let (start, end) = parser.here();
            return Err(ParseExprError::new("trailing input", start, end));
        }
        Ok(expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExprNode;

    #[test]
    fn precedence_star_over_mul_over_add() {
        let e: Expr = "a + b c*".parse().unwrap();
        match e.node() {
            ExprNode::Add(l, r) => {
                assert_eq!(l.to_string(), "a");
                assert_eq!(r.to_string(), "b c*");
            }
            _ => panic!("expected Add at root"),
        }
    }

    #[test]
    fn juxtaposition_is_left_associative() {
        let e: Expr = "a b c".parse().unwrap();
        assert_eq!(e, "(a b) c".parse().unwrap());
    }

    #[test]
    fn iterated_star() {
        let e: Expr = "a**".parse().unwrap();
        assert_eq!(e, Expr::atom_str("a").star().star());
    }

    #[test]
    fn identifiers_with_digits_and_primes() {
        let e: Expr = "m0 u_inv p'".parse().unwrap();
        let mut names: Vec<String> = e.atoms().iter().map(|s| s.name()).collect();
        names.sort();
        assert_eq!(names, vec!["m0", "p'", "u_inv"]);
    }

    #[test]
    fn zero_one_are_constants_not_atoms() {
        let e: Expr = "0 + 1".parse().unwrap();
        assert!(e.atoms().is_empty());
    }

    #[test]
    fn error_spans() {
        let err = "a + ?".parse::<Expr>().unwrap_err();
        assert_eq!(err.span(), (4, 5));
        // An unexpected multi-character token spans the whole token.
        let err = "a * abc + +".parse::<Expr>().unwrap_err();
        assert_eq!(err.span(), (10, 11));
        // End-of-input errors carry the empty span at the end.
        let err = "a + ".parse::<Expr>().unwrap_err();
        assert_eq!(err.span(), (4, 4));
        // Multi-byte characters span all their bytes.
        let err = "a + λ".parse::<Expr>().unwrap_err();
        assert_eq!(err.span(), (4, 6));
    }

    #[test]
    fn caret_rendering_points_at_the_offence() {
        let src = "a + ?";
        let err = src.parse::<Expr>().unwrap_err();
        let rendered = err.caret(src);
        assert_eq!(rendered, "a + ?\n    ^ unexpected character '?'");
        // A multi-byte character spans two bytes but renders one caret.
        let src = "a + λ";
        let err = src.parse::<Expr>().unwrap_err();
        let rendered = err.caret(src);
        assert_eq!(rendered, "a + λ\n    ^ unexpected character 'λ'");
        // End-of-input: a single caret one past the last character.
        let src = "(a + b";
        let err = src.parse::<Expr>().unwrap_err();
        let rendered = err.caret(src);
        assert!(
            rendered.starts_with("(a + b\n      ^"),
            "unexpected rendering: {rendered:?}"
        );
    }

    #[test]
    fn unclosed_paren_names_the_opener() {
        let err = "(a + b".parse::<Expr>().unwrap_err();
        assert!(err.to_string().contains("')'"), "{err}");
        assert!(err.to_string().contains("byte 0"), "{err}");
        // The span sits at the point where ')' was expected, not the '('.
        assert_eq!(err.span(), (6, 6));
        // A stray closer mid-expression is reported at the closer.
        let err = "(a ) b )".parse::<Expr>().unwrap_err();
        assert_eq!(err.span(), (7, 8));
    }

    #[test]
    fn error_positions() {
        let err = "a + ?".parse::<Expr>().unwrap_err();
        assert_eq!(err.position(), 4);
        let err = "(a + b".parse::<Expr>().unwrap_err();
        assert!(err.to_string().contains("expected ')'") || err.to_string().contains("end"));
        let err = "a ) b".parse::<Expr>().unwrap_err();
        assert!(err.to_string().contains("trailing"));
        assert!("".parse::<Expr>().is_err());
        assert!("a + ".parse::<Expr>().is_err());
        assert!("*".parse::<Expr>().is_err());
    }

    /// Parses `src` on a freshly spawned default-stack (2 MiB) thread,
    /// the stack a serve worker answers on.
    fn parse_on_default_stack(src: String) -> Result<Expr, ParseExprError> {
        std::thread::spawn(move || src.parse::<Expr>())
            .join()
            .expect("parser thread survives")
    }

    #[test]
    fn nesting_at_the_limit_parses_and_one_deeper_is_a_spanned_error() {
        let d = MAX_NESTING_DEPTH;
        let parens = |n: usize| format!("{}a{}", "(".repeat(n), ")".repeat(n));
        let stars = |n: usize| format!("a{}", "*".repeat(n));
        assert_eq!(
            parse_on_default_stack(parens(d)).unwrap(),
            Expr::atom_str("a")
        );
        let starred = parse_on_default_stack(stars(d)).unwrap();
        // The printed form parenthesizes nested stars and parses back.
        assert_eq!(
            parse_on_default_stack(starred.to_string()).unwrap(),
            starred
        );

        let err = parse_on_default_stack(parens(d + 1)).unwrap_err();
        assert!(err.message().starts_with("nesting too deep"), "{err}");
        assert_eq!(err.span(), (d, d + 1), "the first '(' past the limit");
        let err = parse_on_default_stack(stars(d + 1)).unwrap_err();
        assert!(err.message().starts_with("nesting too deep"), "{err}");
        assert_eq!(err.span(), (d + 1, d + 2), "the first '*' past the limit");
        // Stars inside parentheses still stack on one operand.
        let err = "((a*)*)"
            .replace("a*", &stars(d))
            .parse::<Expr>()
            .unwrap_err();
        assert!(err.message().starts_with("nesting too deep"), "{err}");
        // Hostile sizes fail fast instead of overflowing the stack.
        assert!(parse_on_default_stack(stars(100_000)).is_err());
        assert!(parse_on_default_stack(parens(8000)).is_err());
    }

    #[test]
    fn separators_are_ignored() {
        let e: Expr = "a; b . c".parse().unwrap();
        assert_eq!(e, "a b c".parse().unwrap());
    }
}
