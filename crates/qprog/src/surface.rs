//! The textual surface language for quantum while-programs and effects.
//!
//! This is the front end of the quantum workload API: `prog_eq` and
//! `hoare` wire queries carry programs (and pre/postconditions) as
//! source text in this language, hand-parsed with the same byte-span
//! caret diagnostics as `nka_syntax::ParseExprError`.
//!
//! # Program grammar
//!
//! ```text
//! program := 'qubits' NAT ';' seq?
//! seq     := stmt (';' stmt)* ';'?
//! stmt    := 'skip' | 'abort'
//!          | 'init' QUBIT              -- q := |0⟩ on one qubit
//!          | GATE QUBIT+               -- h q0 | cnot q0 q1 | …
//!          | 'if' QUBIT block ('else' block)?
//!          | 'while' QUBIT block       -- while M[q] = 1 do … done
//! block   := '{' seq? '}'
//! QUBIT   := 'q' NAT                   -- q0, q1, …
//! GATE    := h | x | y | z | s | t | cnot | cz | swap
//! ```
//!
//! Blocks nest at most [`nka_syntax::MAX_NESTING_DEPTH`] deep; a
//! deeper `{` is a `nesting too deep` error spanning it
//! ([`SurfaceProgram::parse_generated`] lifts the limit for sources
//! the library rewrote itself).
//!
//! `if`/`while` measure one qubit in the computational basis; outcome 1
//! selects the `if` branch / continues the loop, outcome 0 selects
//! `else` / exits — exactly the paper's `while M[q̄] = 1 do P done`.
//! A missing `else` block and an empty `{}` both mean `skip`.
//!
//! Encoder names (Definition 4.4) are derived deterministically, so two
//! programs parsed for one comparison share symbols exactly when they
//! share elementary operations: gate `h q0` ↦ `h_q0`, `cnot q0 q1` ↦
//! `cnot_q0_q1`, `init q2` ↦ `init_q2`, and measuring qubit `k` names
//! its outcomes `m0_qk` / `m1_qk`. The derivation is injective (one
//! name, one superoperator), so [`crate::EncoderSetting`] never sees a
//! collision on surface programs.
//!
//! # The gate table
//!
//! Statements lower through one process-wide table of elementary
//! programs, keyed by (qubit count, gate, targets) for gates and by
//! (qubit count, qubit) for `init` and for the measurement of `if` and
//! `while` with its two branch superoperators. An entry is built on
//! first use: its matrices are embedded once and checked once
//! ([`Program::unitary`]'s unitarity assert, [`Program::elementary`]'s
//! trace check, [`Measurement::new`]'s completeness check). Every later
//! occurrence, in any parse on any thread, shares the entry's
//! `Arc<Superoperator>`, so parsing does no matrix work and the encoder
//! binds a re-used name by pointer. With at most [`MAX_QUBITS`] qubits
//! and nine gates the table has 240 entries, so it never evicts; reads
//! take no lock. The `qK=b` factors of effects read their projectors
//! from the same measurement entries.
//!
//! # Effect grammar
//!
//! Pre/postconditions of `hoare` queries are diagonal-friendly effect
//! expressions over the same qubit count:
//!
//! ```text
//! effect := term ('+' term)*
//! term   := factor ('*'? factor)*     -- '*' optional: 0.5 I ≡ 0.5 * I
//! factor := NUMBER                    -- scalar (alone: NUMBER · I)
//!         | 'I'                       -- identity
//!         | 'ket' '(' BITS ')'        -- |bits⟩⟨bits|, one bit per qubit
//!         | QUBIT '=' (0|1)           -- projector on one qubit's value
//! ```
//!
//! The parsed matrix must be an effect (`0 ⊑ E ⊑ I`, [`crate::hoare::is_effect`]);
//! `0.7 ket(01) + 0.3 q0=1` parses, `2 I` is rejected with a span.
//!
//! # Examples
//!
//! ```
//! use nka_qprog::surface::SurfaceProgram;
//!
//! let p = SurfaceProgram::parse("qubits 1; h q0; while q0 { h q0 }")?;
//! assert_eq!(p.qubits(), 1);
//! // The coin-flip loop almost surely exits into |0⟩.
//! let out = p.program().run(&qsim_quantum::states::basis_density(2, 1));
//! assert!(out.trace().re > 0.0);
//! # Ok::<(), nka_qprog::surface::ParseProgError>(())
//! ```

use crate::program::{NamedMeasurement, Program};
use nka_syntax::{nesting_too_deep, MAX_NESTING_DEPTH};
use qsim_linalg::{CMatrix, Complex};
use qsim_quantum::{gates, Measurement, RegisterSpace, Superoperator};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Hard cap on the declared qubit count. Programs act on a
/// `2^n`-dimensional space and `hoare` queries materialize the
/// `4^n × 4^n` Liouville matrix of the denotation, so this bounds the
/// memory any single wire request can demand (n = 5 ⇒ 1024² complex
/// entries ≈ 16 MiB, answered in well under a second).
pub const MAX_QUBITS: usize = 5;

/// Error raised when parsing a surface program or effect fails.
///
/// Mirrors `nka_syntax::ParseExprError`: carries the half-open byte
/// span `[start, end)` of the offending input and renders a `^^^`
/// caret line — the wire layer surfaces both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProgError {
    message: String,
    start: usize,
    end: usize,
}

impl ParseProgError {
    fn new(message: impl Into<String>, start: usize, end: usize) -> ParseProgError {
        ParseProgError {
            message: message.into(),
            start,
            end,
        }
    }

    /// Byte offset in the input at which the error occurred.
    #[must_use]
    pub fn position(&self) -> usize {
        self.start
    }

    /// The half-open byte span `[start, end)` of the offending token.
    /// An empty span (`start == end`) means the error is *at* that
    /// point — typically an unexpected end of input.
    #[must_use]
    pub fn span(&self) -> (usize, usize) {
        (self.start, self.end)
    }

    /// The bare message, without the byte-offset suffix of `Display`.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Renders the source with a `^^^` caret line under the offending
    /// span — the same renderer as `ParseExprError::caret`
    /// ([`nka_syntax::render_caret`]), so the two error surfaces cannot
    /// drift apart:
    ///
    /// ```text
    /// qubits 1; frob q0
    ///           ^^^^ unknown gate or statement "frob"
    /// ```
    #[must_use]
    pub fn caret(&self, src: &str) -> String {
        nka_syntax::render_caret(src, self.start, self.end, &self.message)
    }
}

impl fmt::Display for ParseProgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.start)
    }
}

impl std::error::Error for ParseProgError {}

/// One surface statement together with its half-open byte span in the
/// source — the unit the static analyzer (`crate::analysis`) reports
/// findings against. Spans cover the whole statement, from its head
/// keyword through its last token (including nested blocks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    /// What the statement is.
    pub kind: StmtKind,
    /// Half-open byte span `[start, end)` in the source text.
    pub span: (usize, usize),
}

/// The statement alternatives of the surface grammar, in parsed (not
/// lowered) form: qubit indices are range-checked, gate names are
/// validated against the gate set, but nothing is embedded into
/// matrices yet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmtKind {
    /// `skip` — the identity program.
    Skip,
    /// `abort` — the zero program.
    Abort,
    /// `init qK` — reset one qubit to `|0⟩`.
    Init(usize),
    /// A gate application: surface name (`h`, `cnot`, …) plus its
    /// target qubits in argument order.
    Gate {
        /// The surface gate name, validated against the gate set.
        name: String,
        /// Target qubit indices, in argument order (no repeats).
        targets: Vec<usize>,
    },
    /// `if qK { … } else { … }` — outcome 1 selects the then-branch.
    If {
        /// The measured qubit.
        qubit: usize,
        /// Statements of the then-branch (outcome 1); empty = `skip`.
        then_branch: Vec<Stmt>,
        /// Statements of the else-branch (outcome 0); empty = `skip`.
        else_branch: Vec<Stmt>,
    },
    /// `while qK { … }` — loop while the measurement yields 1.
    While {
        /// The measured qubit.
        qubit: usize,
        /// Statements of the loop body; empty = `skip`.
        body: Vec<Stmt>,
    },
}

/// A parsed program plus the exact source it came from.
///
/// Equality (and the wire round-trip `decode(encode(q)) == q`) is *by
/// source text*: two different spellings of the same program compare
/// unequal, which is what a request/response protocol wants.
#[derive(Debug, Clone)]
pub struct SurfaceProgram {
    src: String,
    qubits: usize,
    header_span: (usize, usize),
    ast: Vec<Stmt>,
    prog: Program,
}

impl PartialEq for SurfaceProgram {
    fn eq(&self, other: &Self) -> bool {
        self.src == other.src
    }
}

impl Eq for SurfaceProgram {}

impl fmt::Display for SurfaceProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.src)
    }
}

impl SurfaceProgram {
    /// Parses a program from surface syntax.
    ///
    /// # Errors
    ///
    /// A span-bearing [`ParseProgError`] on any lexical, syntactic, or
    /// arity/range error (unknown gate, out-of-range qubit, …).
    pub fn parse(src: &str) -> Result<SurfaceProgram, ParseProgError> {
        SurfaceProgram::parse_nested(src, MAX_NESTING_DEPTH)
    }

    /// Parses a program the library generated from an already parsed
    /// one (an optimizer rewrite, a certificate pair): no nesting
    /// limit, since a rewrite such as loop peeling may nest one block
    /// deeper than its input. Never use it on request input.
    ///
    /// # Errors
    ///
    /// As [`SurfaceProgram::parse`], minus the nesting limit.
    pub fn parse_generated(src: &str) -> Result<SurfaceProgram, ParseProgError> {
        SurfaceProgram::parse_nested(src, usize::MAX)
    }

    fn parse_nested(src: &str, max_depth: usize) -> Result<SurfaceProgram, ParseProgError> {
        let tokens = tokenize(src)?;
        let mut p = Parser::new(tokens, src.len());
        p.max_depth = max_depth;
        let (qubits, header_span, ast) = p.parse_program()?;
        let prog = lower_seq(qubits, &ast);
        Ok(SurfaceProgram {
            src: src.to_owned(),
            qubits,
            header_span,
            ast,
            prog,
        })
    }

    /// The source text, verbatim.
    #[must_use]
    pub fn source(&self) -> &str {
        &self.src
    }

    /// The declared qubit count.
    #[must_use]
    pub fn qubits(&self) -> usize {
        self.qubits
    }

    /// The Hilbert-space dimension `2^qubits`.
    #[must_use]
    pub fn dim(&self) -> usize {
        1 << self.qubits
    }

    /// The parsed program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// The span-carrying statement AST the program was lowered from —
    /// the surface the static analyzer (`crate::analysis`) walks. An
    /// empty slice means the program body is `skip`.
    #[must_use]
    pub fn ast(&self) -> &[Stmt] {
        &self.ast
    }

    /// The byte span of the `qubits N` header — where whole-program
    /// findings (unused qubits, metrics) anchor.
    #[must_use]
    pub fn header_span(&self) -> (usize, usize) {
        self.header_span
    }
}

/// A parsed effect (pre/postcondition) plus its exact source. Equality
/// is by source text and qubit count, like [`SurfaceProgram`].
#[derive(Debug, Clone)]
pub struct SurfaceEffect {
    src: String,
    qubits: usize,
    matrix: CMatrix,
}

impl PartialEq for SurfaceEffect {
    fn eq(&self, other: &Self) -> bool {
        self.src == other.src && self.qubits == other.qubits
    }
}

impl Eq for SurfaceEffect {}

impl fmt::Display for SurfaceEffect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.src)
    }
}

impl SurfaceEffect {
    /// Parses an effect over `qubits` qubits and validates it
    /// ([`crate::hoare::is_effect`] within `1e-8`).
    ///
    /// # Errors
    ///
    /// A span-bearing [`ParseProgError`] on syntax errors or when the
    /// parsed matrix is not an effect (e.g. `2 I`).
    pub fn parse(src: &str, qubits: usize) -> Result<SurfaceEffect, ParseProgError> {
        if qubits == 0 || qubits > MAX_QUBITS {
            return Err(ParseProgError::new(
                format!("effects need a qubit count in 1..={MAX_QUBITS}, got {qubits}"),
                0,
                src.len(),
            ));
        }
        let tokens = tokenize(src)?;
        let mut p = Parser::new(tokens, src.len());
        let matrix = p.parse_effect(qubits)?;
        if !crate::hoare::is_effect(&matrix, 1e-8) {
            return Err(ParseProgError::new(
                "not an effect: the matrix must satisfy 0 \u{2291} E \u{2291} I",
                0,
                src.len(),
            ));
        }
        Ok(SurfaceEffect {
            src: src.to_owned(),
            qubits,
            matrix,
        })
    }

    /// The source text, verbatim.
    #[must_use]
    pub fn source(&self) -> &str {
        &self.src
    }

    /// The qubit count this effect was parsed against.
    #[must_use]
    pub fn qubits(&self) -> usize {
        self.qubits
    }

    /// The validated effect matrix (`2^qubits` square).
    #[must_use]
    pub fn matrix(&self) -> &CMatrix {
        &self.matrix
    }
}

/// A token; identifiers and numbers borrow their text from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Token<'src> {
    Ident(&'src str),
    /// A number, raw text preserved (`ket(010)` needs the leading zero).
    Num(&'src str),
    Semi,
    LBrace,
    RBrace,
    LParen,
    RParen,
    Eq,
    Plus,
    Star,
}

/// A token plus its half-open byte span in the source.
type Spanned<'src> = (Token<'src>, usize, usize);

/// What `parse_program` yields: the qubit count, the `qubits N`
/// header's byte span, and the span-carrying statement AST.
type ParsedProgram = (usize, (usize, usize), Vec<Stmt>);

fn tokenize(input: &str) -> Result<Vec<Spanned<'_>>, ParseProgError> {
    // About one token per two bytes: a token and the space after it.
    let mut tokens = Vec::with_capacity(input.len() / 2 + 2);
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let single = |t| (t, i, i + 1);
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b';' => {
                tokens.push(single(Token::Semi));
                i += 1;
            }
            b'{' => {
                tokens.push(single(Token::LBrace));
                i += 1;
            }
            b'}' => {
                tokens.push(single(Token::RBrace));
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
            b'=' => {
                tokens.push(single(Token::Eq));
                i += 1;
            }
            b'+' => {
                tokens.push(single(Token::Plus));
                i += 1;
            }
            b'*' => {
                tokens.push(single(Token::Star));
                i += 1;
            }
            _ if b.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if i < bytes.len() && bytes[i] == b'.' {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                tokens.push((Token::Num(&input[start..i]), start, i));
            }
            _ if b.is_ascii_alphabetic() || b == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                tokens.push((Token::Ident(&input[start..i]), start, i));
            }
            _ => {
                let ch = input[i..].chars().next().expect("non-empty remainder");
                return Err(ParseProgError::new(
                    format!("unexpected character {ch:?}"),
                    i,
                    i + ch.len_utf8(),
                ));
            }
        }
    }
    Ok(tokens)
}

/// A surface gate: name, qubit arity, matrix.
type Gate = (&'static str, usize, fn() -> CMatrix);

/// The gate set. The six one-qubit gates come first; the gate table's
/// slot layout relies on it.
const GATES: [Gate; 9] = [
    ("h", 1, gates::hadamard),
    ("x", 1, gates::pauli_x),
    ("y", 1, gates::pauli_y),
    ("z", 1, gates::pauli_z),
    ("s", 1, gates::s_gate),
    ("t", 1, gates::t_gate),
    ("cnot", 2, gates::cnot),
    ("cz", 2, gates::cz),
    ("swap", 2, gates::swap),
];

/// Number of one-qubit gates at the head of [`GATES`].
const ONE_QUBIT_GATES: usize = 6;

/// The index of a surface gate name in [`GATES`].
fn gate_index(name: &str) -> Option<usize> {
    GATES.iter().position(|&(n, _, _)| n == name)
}

struct Parser<'src> {
    tokens: Vec<Spanned<'src>>,
    pos: usize,
    input_len: usize,
    /// Blocks currently open, and how many may be.
    depth: usize,
    max_depth: usize,
}

impl<'src> Parser<'src> {
    fn new(tokens: Vec<Spanned<'src>>, input_len: usize) -> Parser<'src> {
        Parser {
            tokens,
            pos: 0,
            input_len,
            depth: 0,
            max_depth: MAX_NESTING_DEPTH,
        }
    }

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

    fn err_here(&self, msg: impl Into<String>) -> ParseProgError {
        let (s, e) = self.here();
        ParseProgError::new(msg, s, e)
    }

    fn expect(&mut self, want: &Token<'_>, what: &str) -> Result<(), ParseProgError> {
        if self.peek() == Some(want) {
            self.bump();
            Ok(())
        } else {
            Err(self.err_here(format!("expected {what}")))
        }
    }

    /// `'q' NAT` — a qubit reference, range-checked against `qubits`.
    fn parse_qubit(&mut self, qubits: usize) -> Result<usize, ParseProgError> {
        let (s, e) = self.here();
        match self.bump() {
            Some(Token::Ident(name)) => {
                let idx = name
                    .strip_prefix('q')
                    .and_then(|d| {
                        (!d.is_empty() && d.bytes().all(|b| b.is_ascii_digit())).then_some(d)
                    })
                    .and_then(|d| d.parse::<usize>().ok())
                    .ok_or_else(|| {
                        ParseProgError::new(format!("expected a qubit like q0, got {name:?}"), s, e)
                    })?;
                if idx >= qubits {
                    return Err(ParseProgError::new(
                        format!(
                            "qubit q{idx} out of range: the program declares {qubits} qubit(s)"
                        ),
                        s,
                        e,
                    ));
                }
                Ok(idx)
            }
            _ => Err(ParseProgError::new("expected a qubit like q0", s, e)),
        }
    }

    /// The end of the most recently consumed token (0 before any).
    fn prev_end(&self) -> usize {
        self.pos
            .checked_sub(1)
            .and_then(|i| self.tokens.get(i))
            .map_or(0, |&(_, _, e)| e)
    }

    /// `program := 'qubits' NAT ';' seq?` — returns the qubit count,
    /// the header's byte span, and the span-carrying statement AST.
    fn parse_program(&mut self) -> Result<ParsedProgram, ParseProgError> {
        let (s, e) = self.here();
        match self.bump() {
            Some(Token::Ident("qubits")) => {}
            _ => {
                return Err(ParseProgError::new(
                    "a program starts with 'qubits N;'",
                    s,
                    e,
                ))
            }
        }
        let (ns, ne) = self.here();
        let qubits = match self.bump() {
            Some(Token::Num(raw)) if !raw.contains('.') => raw
                .parse::<usize>()
                .map_err(|_| ParseProgError::new(format!("bad qubit count {raw:?}"), ns, ne))?,
            _ => return Err(ParseProgError::new("expected the qubit count", ns, ne)),
        };
        if qubits == 0 || qubits > MAX_QUBITS {
            return Err(ParseProgError::new(
                format!("qubit count must be in 1..={MAX_QUBITS}, got {qubits}"),
                ns,
                ne,
            ));
        }
        let header_span = (s, ne);
        self.expect(&Token::Semi, "';' after the qubit count")?;
        let stmts = self.parse_seq(qubits, /* in_block: */ false)?;
        if self.pos != self.tokens.len() {
            return Err(self.err_here("trailing input"));
        }
        Ok((qubits, header_span, stmts))
    }

    /// `seq := stmt (';' stmt)* ';'?` — empty means `skip`. When
    /// `in_block`, the sequence ends at `}` (not consumed here).
    fn parse_seq(&mut self, qubits: usize, in_block: bool) -> Result<Vec<Stmt>, ParseProgError> {
        let mut stmts = Vec::new();
        loop {
            // Skip stray separators, stop at the closer / end.
            while self.peek() == Some(&Token::Semi) {
                self.bump();
            }
            match self.peek() {
                None => break,
                Some(Token::RBrace) if in_block => break,
                _ => {}
            }
            stmts.push(self.parse_stmt(qubits)?);
            // Statements are ';'-separated; a block closer or EOF may
            // follow the last one directly.
            match self.peek() {
                Some(Token::Semi) => {}
                None => break,
                Some(Token::RBrace) if in_block => break,
                _ => return Err(self.err_here("expected ';' between statements")),
            }
        }
        Ok(stmts)
    }

    /// `block := '{' seq? '}'`
    fn parse_block(&mut self, qubits: usize) -> Result<Vec<Stmt>, ParseProgError> {
        if self.depth >= self.max_depth && self.peek() == Some(&Token::LBrace) {
            return Err(self.err_here(nesting_too_deep()));
        }
        self.expect(&Token::LBrace, "'{'")?;
        self.depth += 1;
        let body = self.parse_seq(qubits, true)?;
        self.depth -= 1;
        self.expect(&Token::RBrace, "'}'")?;
        Ok(body)
    }

    fn parse_stmt(&mut self, qubits: usize) -> Result<Stmt, ParseProgError> {
        let (s, e) = self.here();
        let Some(Token::Ident(head)) = self.bump() else {
            return Err(ParseProgError::new("expected a statement", s, e));
        };
        let kind = match head {
            "skip" => StmtKind::Skip,
            "abort" => StmtKind::Abort,
            "init" => StmtKind::Init(self.parse_qubit(qubits)?),
            "if" => {
                let q = self.parse_qubit(qubits)?;
                let then_branch = self.parse_block(qubits)?;
                let has_else = matches!(self.peek(), Some(Token::Ident("else")));
                let else_branch = if has_else {
                    self.bump();
                    self.parse_block(qubits)?
                } else {
                    Vec::new()
                };
                StmtKind::If {
                    qubit: q,
                    then_branch,
                    else_branch,
                }
            }
            "while" => {
                let q = self.parse_qubit(qubits)?;
                let body = self.parse_block(qubits)?;
                StmtKind::While { qubit: q, body }
            }
            gate => {
                let Some(arity) = gate_index(gate).map(|g| GATES[g].1) else {
                    return Err(ParseProgError::new(
                        format!("unknown gate or statement {gate:?}"),
                        s,
                        e,
                    ));
                };
                let mut targets = Vec::with_capacity(arity);
                for _ in 0..arity {
                    let (qs, qe) = self.here();
                    let q = self.parse_qubit(qubits)?;
                    if targets.contains(&q) {
                        return Err(ParseProgError::new(
                            format!("gate {gate:?} lists qubit q{q} twice"),
                            qs,
                            qe,
                        ));
                    }
                    targets.push(q);
                }
                StmtKind::Gate {
                    name: gate.to_owned(),
                    targets,
                }
            }
        };
        Ok(Stmt {
            kind,
            span: (s, self.prev_end()),
        })
    }

    /// `effect := term ('+' term)*`
    fn parse_effect(&mut self, qubits: usize) -> Result<CMatrix, ParseProgError> {
        let mut acc = self.parse_effect_term(qubits)?;
        while self.peek() == Some(&Token::Plus) {
            self.bump();
            let rhs = self.parse_effect_term(qubits)?;
            acc = &acc + &rhs;
        }
        if self.pos != self.tokens.len() {
            return Err(self.err_here("trailing input"));
        }
        Ok(acc)
    }

    /// `term := factor ('*'? factor)*` — scalars multiply, matrix
    /// factors compose; a pure-scalar term means `scalar · I`.
    fn parse_effect_term(&mut self, qubits: usize) -> Result<CMatrix, ParseProgError> {
        let dim = 1usize << qubits;
        let mut scalar = 1.0f64;
        let mut matrix: Option<CMatrix> = None;
        let mut first = true;
        loop {
            match self.peek() {
                Some(Token::Star) if !first => {
                    self.bump();
                }
                Some(Token::Num(_) | Token::Ident(_)) if !first => {}
                _ if first => {}
                _ => break,
            }
            let (s, e) = self.here();
            match self.bump() {
                Some(Token::Num(raw)) => {
                    let v: f64 = raw
                        .parse()
                        .map_err(|_| ParseProgError::new(format!("bad number {raw:?}"), s, e))?;
                    scalar *= v;
                }
                Some(Token::Ident("I")) => {
                    let m = CMatrix::identity(dim);
                    matrix = Some(matrix.map_or(m.clone(), |prev| &prev * &m));
                }
                Some(Token::Ident("ket")) => {
                    self.expect(&Token::LParen, "'(' after ket")?;
                    let (bs, be) = self.here();
                    let bits = match self.bump() {
                        Some(Token::Num(raw)) => raw,
                        _ => {
                            return Err(ParseProgError::new("expected a bitstring like 01", bs, be))
                        }
                    };
                    if bits.len() != qubits || !bits.bytes().all(|b| b == b'0' || b == b'1') {
                        return Err(ParseProgError::new(
                            format!("ket needs one bit per qubit ({qubits} here), got {bits:?}"),
                            bs,
                            be,
                        ));
                    }
                    self.expect(&Token::RParen, "')'")?;
                    // Qubit 0 is the first tensor factor, i.e. the most
                    // significant bit of the basis index.
                    let index = bits
                        .bytes()
                        .fold(0usize, |acc, b| (acc << 1) | usize::from(b == b'1'));
                    let mut m = CMatrix::zeros(dim, dim);
                    m[(index, index)] = Complex::ONE;
                    matrix = Some(matrix.map_or(m.clone(), |prev| &prev * &m));
                }
                Some(Token::Ident(name)) => {
                    // `qK = B`: projector on one qubit's value.
                    self.pos -= 1; // re-read as a qubit reference
                    let q = self.parse_qubit(qubits)?;
                    self.expect(&Token::Eq, "'=' after the qubit")?;
                    let (vs, ve) = self.here();
                    let bit = match self.bump() {
                        Some(Token::Num("0")) => 0usize,
                        Some(Token::Num("1")) => 1usize,
                        _ => {
                            return Err(ParseProgError::new(
                                format!("expected 0 or 1 after {name}="),
                                vs,
                                ve,
                            ))
                        }
                    };
                    let m = TABLE.measurement(qubits, q).measurement().operator(bit);
                    matrix = Some(matrix.map_or_else(|| m.clone(), |prev| &prev * m));
                }
                _ => {
                    return Err(ParseProgError::new(
                        "expected a number, I, ket(bits), or qK=b",
                        s,
                        e,
                    ))
                }
            }
            first = false;
        }
        let base = matrix.unwrap_or_else(|| CMatrix::identity(dim));
        Ok(base.scale(Complex::from(scalar)))
    }
}

/// Lowers a statement sequence to the semantic [`Program`]: statements
/// fold left with `then`, and an empty sequence is `skip` — exactly the
/// shape the pre-AST parser built, so encodings are unchanged.
fn lower_seq(qubits: usize, stmts: &[Stmt]) -> Program {
    let mut acc: Option<Program> = None;
    for stmt in stmts {
        let prog = lower_stmt(qubits, stmt);
        acc = Some(match acc {
            None => prog,
            Some(prev) => Program::Seq(Arc::new(prev), Arc::new(prog)),
        });
    }
    acc.unwrap_or_else(|| Program::skip(1 << qubits))
}

/// Lowers one statement. Gates, `init` and the `if`/`while`
/// measurements come from the gate table, already named and checked.
fn lower_stmt(qubits: usize, stmt: &Stmt) -> Program {
    match &stmt.kind {
        StmtKind::Skip => Program::skip(1 << qubits),
        StmtKind::Abort => Program::abort(1 << qubits),
        StmtKind::Init(q) => TABLE.init(qubits, *q).clone(),
        // Outcome order is case order: branch 0 = else, branch 1 = then.
        StmtKind::If {
            qubit,
            then_branch,
            else_branch,
        } => Program::Case(
            TABLE.measurement(qubits, *qubit).clone(),
            vec![
                lower_seq(qubits, else_branch),
                lower_seq(qubits, then_branch),
            ],
        ),
        StmtKind::While { qubit, body } => Program::While(
            TABLE.measurement(qubits, *qubit).clone(),
            Arc::new(lower_seq(qubits, body)),
        ),
        StmtKind::Gate { name, targets } => {
            let gate = gate_index(name).expect("parser validated the gate name");
            TABLE.gate(qubits, gate, targets).clone()
        }
    }
}

/// The process-wide gate table, filled one entry at a time on first use.
static TABLE: GateTable = GateTable::new();

/// Slots for `n` qubits: each one-qubit gate and `init` on each qubit,
/// each two-qubit gate on each ordered pair of distinct qubits.
const fn elementary_slots(n: usize) -> usize {
    (ONE_QUBIT_GATES + 1) * n + (GATES.len() - ONE_QUBIT_GATES) * n * n.saturating_sub(1)
}

/// The first elementary slot of the `n`-qubit programs.
const fn elementary_offset(n: usize) -> usize {
    let mut sum = 0;
    let mut k = 1;
    while k < n {
        sum += elementary_slots(k);
        k += 1;
    }
    sum
}

const ELEMENTARY_SLOTS: usize = elementary_offset(MAX_QUBITS + 1);
const MEASUREMENT_SLOTS: usize = MAX_QUBITS * (MAX_QUBITS + 1) / 2;

/// Every elementary program and measurement the surface language can
/// name, keyed by (qubit count, statement). Each entry is built — and
/// checked by [`Program::unitary`], [`Program::elementary`] or
/// [`Measurement::new`] — the first time a parse asks for it, then
/// shared: every later occurrence clones an `Arc`, so the encoder binds
/// it by pointer. Gates, `init` and measurements over at most
/// [`MAX_QUBITS`] qubits make 240 entries, so the table needs no
/// eviction.
struct GateTable {
    elementary: [OnceLock<Program>; ELEMENTARY_SLOTS],
    measurements: [OnceLock<NamedMeasurement>; MEASUREMENT_SLOTS],
}

impl GateTable {
    const fn new() -> GateTable {
        GateTable {
            elementary: [const { OnceLock::new() }; ELEMENTARY_SLOTS],
            measurements: [const { OnceLock::new() }; MEASUREMENT_SLOTS],
        }
    }

    /// Gate `GATES[gate]` on `targets` (distinct, in argument order),
    /// encoder name `h_q0`, `cnot_q0_q1`, ….
    fn gate(&self, qubits: usize, gate: usize, targets: &[usize]) -> &Program {
        let n = qubits;
        let slot = match *targets {
            [t] => gate * n + t,
            [a, b] => {
                let pair = a * (n - 1) + b - usize::from(b > a);
                (ONE_QUBIT_GATES + 1) * n + (gate - ONE_QUBIT_GATES) * n * (n - 1) + pair
            }
            _ => unreachable!("gates act on one or two qubits"),
        };
        self.elementary[elementary_offset(n) + slot].get_or_init(|| {
            let (name, _, matrix) = GATES[gate];
            let enc_name = std::iter::once(name.to_owned())
                .chain(targets.iter().map(|q| format!("q{q}")))
                .collect::<Vec<_>>()
                .join("_");
            Program::unitary(&enc_name, &qubit_space(n).embed_gate(&matrix(), targets))
        })
    }

    /// `init qK`, encoder name `init_qK`.
    fn init(&self, qubits: usize, q: usize) -> &Program {
        let slot = elementary_offset(qubits) + ONE_QUBIT_GATES * qubits + q;
        self.elementary[slot].get_or_init(|| {
            Program::elementary(&format!("init_q{q}"), qubit_space(qubits).reset(q))
        })
    }

    /// The computational-basis measurement of `qK`, outcomes named
    /// `m0_qK` and `m1_qK`.
    fn measurement(&self, qubits: usize, q: usize) -> &NamedMeasurement {
        self.measurements[qubits * (qubits - 1) / 2 + q].get_or_init(|| {
            NamedMeasurement::new(
                [format!("m0_q{q}"), format!("m1_q{q}")],
                &qubit_space(qubits).measure(q),
            )
        })
    }
}

/// The `n`-qubit register space with its embedding helpers, built once
/// per table entry.
struct QubitSpace {
    space: RegisterSpace,
    regs: Vec<qsim_quantum::registers::RegisterId>,
}

fn qubit_space(qubits: usize) -> QubitSpace {
    let mut space = RegisterSpace::new();
    let regs = (0..qubits)
        .map(|k| space.add_register(&format!("q{k}"), 2))
        .collect();
    QubitSpace { space, regs }
}

impl QubitSpace {
    /// A gate on the listed qubits, identity elsewhere.
    fn embed_gate(&self, gate: &CMatrix, targets: &[usize]) -> CMatrix {
        let ids: Vec<_> = targets.iter().map(|&q| self.regs[q]).collect();
        self.space.embed(gate, &ids)
    }

    /// The computational-basis measurement of one qubit, embedded.
    fn measure(&self, q: usize) -> Measurement {
        Measurement::new(vec![self.projector(q, 0), self.projector(q, 1)])
    }

    /// `|b⟩⟨b|` on one qubit, embedded.
    fn projector(&self, q: usize, b: usize) -> CMatrix {
        self.space.basis_projector(self.regs[q], b)
    }

    /// The reset channel `q := |0⟩` on one qubit, embedded: Kraus
    /// operators `|0⟩⟨i|` on the target qubit tensor identity.
    fn reset(&self, q: usize) -> Superoperator {
        let dim = self.space.dim();
        let kraus = (0..2)
            .map(|i| {
                let ket0 = CMatrix::basis_ket(2, 0);
                let keti = CMatrix::basis_ket(2, i);
                let local = &ket0 * &keti.adjoint();
                self.space.embed(&local, &[self.regs[q]])
            })
            .collect();
        Superoperator::from_kraus(dim, dim, kraus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EncoderSetting;
    use qsim_quantum::states;

    #[test]
    fn parses_and_encodes_like_the_handbuilt_program() {
        let p = SurfaceProgram::parse("qubits 1; while q0 { h q0 }").unwrap();
        let mut setting = EncoderSetting::new(2);
        let enc = setting.encode(p.program()).unwrap();
        assert_eq!(enc.to_string(), "(m1_q0 h_q0)* m0_q0");
        // Semantics: the coin-flip loop a.s. exits into |0⟩.
        let out = p.program().run(&states::basis_density(2, 1));
        assert!(out.approx_eq(&states::basis_density(2, 0), 1e-9));
    }

    #[test]
    fn sequencing_and_two_qubit_gates() {
        let p = SurfaceProgram::parse("qubits 2; h q0; cnot q0 q1").unwrap();
        assert_eq!(p.dim(), 4);
        // |00⟩ ↦ the Bell state: ρ has ¼ mass on each corner.
        let out = p.program().run(&states::basis_density(4, 0));
        assert!((out[(0, 0)].re - 0.5).abs() < 1e-9);
        assert!((out[(3, 3)].re - 0.5).abs() < 1e-9);
        assert!((out[(0, 3)].re - 0.5).abs() < 1e-9);
    }

    #[test]
    fn if_else_and_init() {
        let p = SurfaceProgram::parse("qubits 1; if q0 { x q0 } else { skip }; init q0").unwrap();
        let mut setting = EncoderSetting::new(2);
        let enc = setting.encode(p.program()).unwrap();
        // case order is outcome order: m0 (else) first.
        assert_eq!(enc.to_string(), "(m0_q0 1 + m1_q0 x_q0) init_q0");
        // Whatever the input, the trailing init lands in |0⟩.
        let mut seed = 11;
        let rho = states::random_density(2, &mut seed);
        let out = p.program().run(&rho);
        assert!(out.approx_eq(&states::basis_density(2, 0), 1e-9));
    }

    #[test]
    fn empty_blocks_and_missing_else_mean_skip() {
        let a = SurfaceProgram::parse("qubits 1; if q0 { x q0 }").unwrap();
        let b = SurfaceProgram::parse("qubits 1; if q0 { x q0 } else { }").unwrap();
        let mut setting = EncoderSetting::new(2);
        assert_eq!(
            setting.encode(a.program()).unwrap(),
            setting.encode(b.program()).unwrap()
        );
        // An empty program is skip.
        let e = SurfaceProgram::parse("qubits 2;").unwrap();
        assert_eq!(setting.encode(e.program()).unwrap().to_string(), "1");
    }

    #[test]
    fn error_spans_point_at_the_offence() {
        let src = "qubits 1; frob q0";
        let err = SurfaceProgram::parse(src).unwrap_err();
        assert_eq!(err.span(), (10, 14));
        assert!(
            err.caret(src).contains("^^^^ unknown gate"),
            "{}",
            err.caret(src)
        );

        let err = SurfaceProgram::parse("qubits 1; h q3").unwrap_err();
        assert_eq!(err.span(), (12, 14));
        assert!(err.message().contains("out of range"));

        let err = SurfaceProgram::parse("qubits 1; while q0 { h q0").unwrap_err();
        assert_eq!(err.span(), (25, 25)); // empty span at end of input

        let err = SurfaceProgram::parse("qubits 9; skip").unwrap_err();
        assert!(err.message().contains("1..=5"), "{}", err.message());

        let err = SurfaceProgram::parse("qubits 2; swap q1 q1").unwrap_err();
        assert!(err.message().contains("twice"));

        let err = SurfaceProgram::parse("qubits 1; h q0 x q0").unwrap_err();
        assert!(err.message().contains("';'"), "{}", err.message());
    }

    #[test]
    fn effects_parse_scale_and_project() {
        let id = SurfaceEffect::parse("I", 1).unwrap();
        assert!(id.matrix().approx_eq(&CMatrix::identity(2), 1e-12));
        let half = SurfaceEffect::parse("0.5 I", 1).unwrap();
        assert!(half.matrix().approx_eq(&states::maximally_mixed(2), 1e-12));
        let k = SurfaceEffect::parse("ket(10)", 2).unwrap();
        assert!(k.matrix().approx_eq(&states::basis_density(4, 2), 1e-12));
        let q = SurfaceEffect::parse("q1=1", 2).unwrap();
        // q1 = 1 holds on indices 1 and 3 (q0 is the high bit).
        assert!((q.matrix()[(1, 1)].re - 1.0).abs() < 1e-12);
        assert!((q.matrix()[(3, 3)].re - 1.0).abs() < 1e-12);
        assert!(q.matrix()[(0, 0)].abs() < 1e-12);
        // Mixed sum with explicit star.
        let m = SurfaceEffect::parse("0.5 * ket(0) + 0.25 ket(1)", 1).unwrap();
        assert!((m.matrix()[(0, 0)].re - 0.5).abs() < 1e-12);
        assert!((m.matrix()[(1, 1)].re - 0.25).abs() < 1e-12);
        // Product of commuting projectors.
        let p = SurfaceEffect::parse("q0=1 q1=0", 2).unwrap();
        assert!(p.matrix().approx_eq(&states::basis_density(4, 2), 1e-12));
        // The zero effect.
        let z = SurfaceEffect::parse("0", 1).unwrap();
        assert!(z.matrix().max_abs() < 1e-12);
    }

    #[test]
    fn non_effects_are_rejected_with_spans() {
        let err = SurfaceEffect::parse("2 I", 1).unwrap_err();
        assert!(err.message().contains("not an effect"), "{}", err.message());
        let err = SurfaceEffect::parse("ket(01)", 1).unwrap_err();
        assert!(err.message().contains("one bit per qubit"));
        assert_eq!(err.span(), (4, 6));
        let err = SurfaceEffect::parse("q0=2", 1).unwrap_err();
        assert!(err.message().contains("0 or 1"));
        assert!(SurfaceEffect::parse("I +", 1).is_err());
        assert!(SurfaceEffect::parse("", 1).is_err());
    }

    #[test]
    fn ast_carries_statement_spans() {
        let src = "qubits 2; h q0; if q1 { x q0 } else { }; while q0 { cnot q0 q1 }";
        let p = SurfaceProgram::parse(src).unwrap();
        assert_eq!(p.header_span(), (0, 8));
        assert_eq!(&src[0..8], "qubits 2");
        let ast = p.ast();
        assert_eq!(ast.len(), 3);
        let slice = |stmt: &Stmt| &src[stmt.span.0..stmt.span.1];
        assert_eq!(slice(&ast[0]), "h q0");
        assert_eq!(slice(&ast[1]), "if q1 { x q0 } else { }");
        assert_eq!(slice(&ast[2]), "while q0 { cnot q0 q1 }");
        let StmtKind::If {
            qubit,
            then_branch,
            else_branch,
        } = &ast[1].kind
        else {
            panic!("expected an if, got {:?}", ast[1].kind);
        };
        assert_eq!(*qubit, 1);
        assert_eq!(slice(&then_branch[0]), "x q0");
        assert!(else_branch.is_empty());
        let StmtKind::While { body, .. } = &ast[2].kind else {
            panic!("expected a while, got {:?}", ast[2].kind);
        };
        assert_eq!(slice(&body[0]), "cnot q0 q1");
        assert_eq!(
            body[0].kind,
            StmtKind::Gate {
                name: "cnot".to_owned(),
                targets: vec![0, 1],
            }
        );
    }

    #[test]
    fn block_nesting_at_the_limit_parses_and_one_deeper_is_a_spanned_error() {
        let nested = |n: usize| format!("qubits 1; {}h q0{}", "if q0 { ".repeat(n), " }".repeat(n));
        // At the limit: parses on a default-stack (2 MiB) thread.
        let src = nested(MAX_NESTING_DEPTH);
        let parsed = std::thread::spawn(move || SurfaceProgram::parse(&src).map(|p| p.ast().len()))
            .join()
            .expect("parser thread survives");
        assert_eq!(parsed, Ok(1));
        let src = nested(MAX_NESTING_DEPTH + 1);
        let err = SurfaceProgram::parse(&src).unwrap_err();
        assert!(err.message().starts_with("nesting too deep"), "{err}");
        let brace = "qubits 1; ".len() + "if q0 { ".len() * MAX_NESTING_DEPTH + "if q0 ".len();
        assert_eq!(
            err.span(),
            (brace, brace + 1),
            "the first '{{' past the limit"
        );
        // Library-generated sources are not limited.
        assert!(SurfaceProgram::parse_generated(&src).is_ok());
    }

    #[test]
    fn surface_equality_is_by_source() {
        let a = SurfaceProgram::parse("qubits 1; h q0").unwrap();
        let b = SurfaceProgram::parse("qubits 1; h q0").unwrap();
        let c = SurfaceProgram::parse("qubits 1;  h q0").unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c); // different spelling, different wire value
    }

    /// The lowering the gate table replaced: every occurrence embeds its
    /// own matrices into a space built once per parse, and re-runs its
    /// unitarity, trace or completeness check.
    mod oracle {
        use super::super::*;

        pub(super) fn lower_seq(space: &QubitSpace, qubits: usize, stmts: &[Stmt]) -> Program {
            let dim = 1usize << qubits;
            let mut acc: Option<Program> = None;
            for stmt in stmts {
                let prog = lower_stmt(space, qubits, stmt);
                acc = Some(match acc {
                    None => prog,
                    Some(prev) => prev.then(&prog),
                });
            }
            acc.unwrap_or_else(|| Program::skip(dim))
        }

        pub(super) fn lower_stmt(space: &QubitSpace, qubits: usize, stmt: &Stmt) -> Program {
            let dim = 1usize << qubits;
            match &stmt.kind {
                StmtKind::Skip => Program::skip(dim),
                StmtKind::Abort => Program::abort(dim),
                StmtKind::Init(q) => Program::elementary(&format!("init_q{q}"), space.reset(*q)),
                StmtKind::If {
                    qubit,
                    then_branch,
                    else_branch,
                } => Program::if_then_else(
                    [format!("m0_q{qubit}"), format!("m1_q{qubit}")],
                    &space.measure(*qubit),
                    lower_seq(space, qubits, then_branch),
                    lower_seq(space, qubits, else_branch),
                ),
                StmtKind::While { qubit, body } => Program::while_loop(
                    [format!("m0_q{qubit}"), format!("m1_q{qubit}")],
                    &space.measure(*qubit),
                    lower_seq(space, qubits, body),
                ),
                StmtKind::Gate { name, targets } => {
                    let gate = gate_index(name).expect("parser validated the gate name");
                    let enc_name = std::iter::once(name.clone())
                        .chain(targets.iter().map(|q| format!("q{q}")))
                        .collect::<Vec<_>>()
                        .join("_");
                    Program::unitary(&enc_name, &space.embed_gate(&GATES[gate].2(), targets))
                }
            }
        }
    }

    fn stmt(kind: StmtKind) -> Stmt {
        Stmt { kind, span: (0, 0) }
    }

    /// Every gate on every ordered list of distinct targets, then every
    /// `init`, over `n` qubits.
    fn elementary_stmts(n: usize) -> Vec<Stmt> {
        let mut out = Vec::new();
        for (name, arity, _) in GATES {
            let lists: Vec<Vec<usize>> = if arity == 1 {
                (0..n).map(|a| vec![a]).collect()
            } else {
                (0..n)
                    .flat_map(|a| (0..n).filter(move |&b| b != a).map(move |b| vec![a, b]))
                    .collect()
            };
            out.extend(lists.into_iter().map(|targets| {
                stmt(StmtKind::Gate {
                    name: name.to_owned(),
                    targets,
                })
            }));
        }
        out.extend((0..n).map(|q| stmt(StmtKind::Init(q))));
        out
    }

    fn elementary(p: &Program) -> (&str, &Arc<Superoperator>) {
        match p {
            Program::Elementary(name, op) => (name, op),
            other => panic!("expected an elementary program, got {other}"),
        }
    }

    fn loop_test(p: &Program) -> &NamedMeasurement {
        match p {
            Program::While(m, _) => m,
            other => panic!("expected a while loop, got {other}"),
        }
    }

    #[test]
    fn every_table_entry_equals_the_oracle_lowering_exactly() {
        assert_eq!(ELEMENTARY_SLOTS + MEASUREMENT_SLOTS, 240);
        let mut slots = std::collections::HashSet::new();
        for n in 1..=MAX_QUBITS {
            let space = qubit_space(n);
            for s in elementary_stmts(n) {
                let table = lower_stmt(n, &s);
                let oracle = oracle::lower_stmt(&space, n, &s);
                let ((name, op), (want_name, want_op)) = (elementary(&table), elementary(&oracle));
                assert_eq!(name, want_name);
                assert_eq!(op.kraus(), want_op.kraus(), "{name} on {n} qubits");
                assert_eq!(
                    (op.dim_in(), op.dim_out()),
                    (want_op.dim_in(), want_op.dim_out())
                );
                slots.insert(Arc::as_ptr(op));
            }
            for q in 0..n {
                let s = stmt(StmtKind::While {
                    qubit: q,
                    body: Vec::new(),
                });
                let (table, oracle) = (lower_stmt(n, &s), oracle::lower_stmt(&space, n, &s));
                let (m, want) = (loop_test(&table), loop_test(&oracle));
                assert_eq!(m.outcome_count(), 2);
                for i in 0..2 {
                    assert_eq!(m.name(i), want.name(i));
                    assert_eq!(m.measurement().operator(i), want.measurement().operator(i));
                    assert_eq!(m.branch(i).kraus(), want.branch(i).kraus());
                }
                slots.insert(Arc::as_ptr(m.branch(0)));
            }
        }
        assert_eq!(slots.len(), 240, "every entry has its own slot");
    }

    #[test]
    fn whole_programs_lower_like_the_oracle() {
        let src = "qubits 3; h q0; if q1 { cnot q0 q2; init q1 } else { swap q2 q0 }; \
                   while q2 { t q1; if q0 { } }; skip; abort";
        let p = SurfaceProgram::parse(src).unwrap();
        let oracle = oracle::lower_seq(&qubit_space(3), 3, p.ast());
        let mut table_setting = EncoderSetting::new(8);
        let mut oracle_setting = EncoderSetting::new(8);
        assert_eq!(
            table_setting.encode(p.program()).unwrap(),
            oracle_setting.encode(&oracle).unwrap()
        );
        assert_eq!(p.program().to_string(), oracle.to_string());
        let rho = states::maximally_mixed(8);
        assert_eq!(p.program().run(&rho), oracle.run(&rho));
    }

    /// Every elementary and measurement-branch superoperator of `p`, in
    /// program order.
    fn shared_ops(p: &Program, out: &mut Vec<*const Superoperator>) {
        match p {
            Program::Skip(_) | Program::Abort(_) => {}
            Program::Elementary(_, op) => out.push(Arc::as_ptr(op)),
            Program::Seq(a, b) => {
                shared_ops(a, out);
                shared_ops(b, out);
            }
            Program::Case(m, branches) => {
                for (i, b) in branches.iter().enumerate() {
                    out.push(Arc::as_ptr(m.branch(i)));
                    shared_ops(b, out);
                }
            }
            Program::While(m, body) => {
                out.extend([Arc::as_ptr(m.branch(0)), Arc::as_ptr(m.branch(1))]);
                shared_ops(body, out);
            }
        }
    }

    #[test]
    fn two_parses_share_one_arc_per_entry() {
        let src = "qubits 4; h q0; cnot q3 q1; init q2; while q3 { x q0; if q1 { h q0 } }";
        let (mut a, mut b) = (Vec::new(), Vec::new());
        shared_ops(SurfaceProgram::parse(src).unwrap().program(), &mut a);
        shared_ops(SurfaceProgram::parse(src).unwrap().program(), &mut b);
        assert_eq!(a.len(), 9);
        assert_eq!(a, b);
        // `h q0` occurs twice and lowers to one superoperator.
        assert_eq!(a[0], a[8]);
    }

    #[test]
    fn eight_threads_filling_one_table_agree_on_one_arc_per_entry() {
        let table = GateTable::new();
        let n = MAX_QUBITS;
        let stmts = elementary_stmts(n);
        let barrier = std::sync::Barrier::new(8);
        // Addresses as `usize`: raw pointers do not cross threads.
        let seen: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|k| {
                    let (table, stmts, barrier) = (&table, &stmts, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        // Each thread starts at a different entry.
                        let mut ops = vec![0; stmts.len() + n];
                        for i in (0..stmts.len()).map(|i| (i + k * 31) % stmts.len()) {
                            let prog = match &stmts[i].kind {
                                StmtKind::Init(q) => table.init(n, *q),
                                StmtKind::Gate { name, targets } => {
                                    table.gate(n, gate_index(name).unwrap(), targets)
                                }
                                other => unreachable!("{other:?}"),
                            };
                            ops[i] = Arc::as_ptr(elementary(prog).1) as usize;
                        }
                        for q in (0..n).rev() {
                            ops[stmts.len() + q] =
                                Arc::as_ptr(table.measurement(n, q).branch(1)) as usize;
                        }
                        ops
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker"))
                .collect()
        });
        assert_eq!(
            seen[0]
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            stmts.len() + n
        );
        assert!(seen.iter().all(|ops| *ops == seen[0]));
    }
}
