//! Query API v1: one typed request/response surface for the whole toolkit.
//!
//! Every consumer of the decision machinery — the `nka` CLI, benches,
//! integration tests, other processes driving `nka serve` — speaks this
//! API instead of the per-module free functions. A [`Session`] owns the
//! memoizing [`Decider`] engine, the auto-prover configuration, and the
//! series evaluator behind a single entry point,
//! [`Session::run`], which maps a [`Query`] to a structured [`Response`].
//!
//! The free functions (`nka_core::decide_eq`, `nka_wfa::ka_equiv`,
//! `nka_series::eval`) remain as documented *one-shot conveniences*; any
//! caller issuing more than one query should hold a `Session` so the
//! engine's expression/DFA/verdict caches amortize across the stream.
//!
//! Each [`Query`] variant is one judgment form of Peng–Ying–Wu
//! (PLDI 2022):
//!
//! * [`Query::NkaEq`] — `⊢NKA e = f`, decided via the rational
//!   power-series model (Remark 2.1 / Theorem A.6);
//! * [`Query::KaEq`] — `⊢KA e = f`, language equivalence of supports,
//!   i.e. the `1*K` embedding of Remark 2.1 (equivalently
//!   `⊢NKA 1*e = 1*f`);
//! * [`Query::Series`] — the truncated semantics `{{e}}` of
//!   Definition A.4, the ground-truth oracle model;
//! * [`Query::Prove`] — rewrite-proof search under Horn-clause
//!   hypotheses (Corollary 4.3), producing a machine-checkable
//!   [`Proof`] object on success;
//! * [`Query::ProgEq`] — equivalence of two quantum while-programs via
//!   the encoder `Enc` (Definition 4.4): both programs are encoded
//!   under one shared [`EncoderSetting`] and `Enc(p) = Enc(q)` is
//!   decided on the warm engine (sound by Theorem 4.5 — an algebraic
//!   `holds` implies the denotations coincide; the converse direction
//!   is checked against superoperator semantics by the differential
//!   test suite);
//! * [`Query::Hoare`] — a propositional quantum Hoare triple
//!   `{A} P {B}` (Section 7.3), checked semantically through the wlp
//!   characterization `A ⊑ wlp(P, B)`; the verdict carries the encoded
//!   inequality `Enc(P)·b̄ ≤ ā` of **Theorem 7.8**.
//!
//! Programs and effects arrive as source text in the surface language
//! of [`nka_qprog::surface`]; parse failures carry the same byte-span
//! caret diagnostics as expression queries
//! ([`ApiError::ParseProgram`]). `prog_eq` queries, Tier B checks and
//! optimizer certifications share one session memo keyed on the
//! `(p, q)` source text. Program encodings are interned through a
//! [`nka_syntax::ScratchScope`] and retired when the query answers —
//! none is promoted, so distinct program traffic cannot grow a
//! long-lived serving process. The caches keyed on a retired query's
//! encodings —
//! the engine's and the session's term-stats memo — log each key they
//! insert under a scratch id, and the next query removes exactly those
//! entries: a purge costs O(entries it evicts), however many persistent
//! entries the session has accumulated, so the cost of a fresh line
//! does not grow with the age of the process answering it.
//!
//! Outcomes are a [`Verdict`] — holds / refuted / proved (with proof
//! size) / search-exhausted / budget-exhausted — plus the engine-counter
//! delta ([`Response::stats_delta`]) and wall-clock time attributable to
//! the query. Failures *of the query itself* (malformed input) are the
//! typed [`ApiError`], which carries byte-span parse diagnostics and can
//! render `^^^` carets.
//!
//! The [`wire`] submodule defines the line-oriented JSONL encoding of
//! queries and responses used by `nka batch` and `nka serve`; [`json`]
//! is the dependency-free JSON support underneath it.
//!
//! Since Expr API v2, expressions are hash-consed `Copy` handles and a
//! `Session` is `Send + Sync`, so a batch can be sharded across worker
//! sessions on scoped threads — [`run_batch_parallel`] answers a query
//! stream in input order with verdicts identical to the single-session
//! path.
//!
//! [`stream`] holds the one request path every surface drives:
//! [`answer_line`] (decode → run → encode → classify, timed as one
//! service) and the ordered worker pool [`run_ordered`] behind
//! `nka batch --jobs N`. [`SessionTotals`] is the one accounting
//! snapshot they report through.
//!
//! # Examples
//!
//! ```
//! use nka_core::api::{Query, Session, Verdict};
//!
//! let mut session = Session::new();
//! let resp = session.run(&Query::nka_eq("(p q)* p", "p (q p)*")?);
//! assert_eq!(resp.verdict, Verdict::Holds);
//! // Same query again: answered from the verdict cache.
//! let resp = session.run(&Query::nka_eq("(p q)* p", "p (q p)*")?);
//! assert_eq!(resp.stats_delta.answer_hits, 1);
//! assert_eq!(resp.stats_delta.compile_misses, 0);
//! # Ok::<(), nka_core::api::ApiError>(())
//! ```

pub mod json;
pub mod stream;
pub mod wire;

pub use stream::{answer_line, run_ordered, Answered, LineClass};

use crate::judgment::Judgment;
use crate::proof::Proof;
use crate::prover::{ProveOutcome, Prover};
use crate::snapshot::{LoadedSnapshot, SnapshotBuilder, WarmStart};
use nka_qprog::optimize::{self, OptimizeStep, RuleSet};
use nka_qprog::{
    analysis, hoare::HoareTriple, Certificate, CertificateStats, EncoderSetting, Finding,
    ParseProgError, SurfaceEffect, SurfaceProgram,
};
use nka_semiring::ExtNat;
use nka_syntax::{Expr, ExprId, ParseExprError, ScratchLog, ScratchScope, Symbol, Word};
use nka_wfa::{DecideOptions, Decider, DeciderStats};
use qsim_linalg::CMatrix;
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::fmt::{self, Write as _};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A typed request against the NKA theory. See the [module docs](self)
/// for the paper construct behind each variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Decide `⊢NKA lhs = rhs` (Remark 2.1 / Theorem A.6: equality of
    /// rational power series over `N̄`).
    NkaEq {
        /// Left-hand side.
        lhs: Expr,
        /// Right-hand side.
        rhs: Expr,
    },
    /// Decide `⊢KA lhs = rhs` — language equivalence of the supports
    /// (Kozen's completeness theorem via the `1*K` embedding of
    /// Remark 2.1).
    KaEq {
        /// Left-hand side.
        lhs: Expr,
        /// Right-hand side.
        rhs: Expr,
    },
    /// Evaluate the truncated power series `{{expr}}` (Definition A.4)
    /// on words of length ≤ `max_len` over the expression's own atoms.
    Series {
        /// The expression to evaluate.
        expr: Expr,
        /// Truncation length (words of length ≤ `max_len`).
        max_len: usize,
    },
    /// Search for a rewrite proof of `lhs = rhs` under Horn-clause
    /// hypotheses (Corollary 4.3). Hypothesis-free goals are first
    /// routed through the decision engine, so non-theorems come back
    /// [`Verdict::Refuted`] without burning the search budget.
    Prove {
        /// Goal left-hand side.
        lhs: Expr,
        /// Goal right-hand side.
        rhs: Expr,
        /// Hypotheses `l = r`, usable as rewrite rules in either
        /// direction.
        hyps: Vec<(Expr, Expr)>,
    },
    /// Decide whether two quantum while-programs are algebraically
    /// equivalent: encode both under one shared [`EncoderSetting`]
    /// (Definition 4.4) and decide `⊢NKA Enc(p) = Enc(q)` on the warm
    /// engine. Sound for program equivalence by Theorem 4.5.
    ProgEq {
        /// Left program, in the [`nka_qprog::surface`] language.
        p: SurfaceProgram,
        /// Right program (same declared qubit count as `p`).
        q: SurfaceProgram,
    },
    /// Check the quantum Hoare triple `{pre} prog {post}` (partial
    /// correctness, Section 7.3) via the wlp characterization
    /// `pre ⊑ wlp(prog, post)`; the verdict carries the Theorem 7.8
    /// encoded inequality `Enc(prog)·b̄ ≤ ā`.
    Hoare {
        /// Precondition `A`, in the effect surface language.
        pre: SurfaceEffect,
        /// The program `P`.
        prog: SurfaceProgram,
        /// Postcondition `B`.
        post: SurfaceEffect,
    },
    /// Run the static analyzer ([`nka_qprog::analysis`]) over a
    /// program: Tier A syntactic/dataflow passes plus Tier B semantic
    /// checks decided on the warm engine (dead code ⇔ zeroness,
    /// Definition 4.4). Every Tier B finding carries a replayable
    /// [`Certificate`]. The Tier B encodings live in a scratch scope,
    /// so analysis traffic cannot grow the persistent arena.
    Analyze {
        /// The program to analyze.
        prog: SurfaceProgram,
        /// Pass filter (validated names from
        /// [`analysis::PASS_NAMES`]); empty means every pass.
        passes: Vec<String>,
    },
    /// Run the certificate-carrying optimizer
    /// ([`nka_qprog::optimize`]): greedily apply catalog rewrites
    /// ("apply what `analyze` reports, then re-analyze until fixpoint"),
    /// validating **every** candidate step with a `prog_eq` decision on
    /// the warm engine before applying it, and certifying the final
    /// program against the input with one more replayable decision.
    /// Hypothesis-bearing catalog rules (gate fusion, …) propose
    /// candidates the free-symbol algebra refutes — they are counted,
    /// never applied, so the output is always covered by the
    /// certificate (Theorem 4.5, one-way).
    Optimize {
        /// The program to optimize.
        prog: SurfaceProgram,
        /// Rule filter (validated names from
        /// [`nka_qprog::analysis::RULE_METADATA`]); empty means the
        /// whole catalog with `loop-peeling` in its shrinking
        /// direction only.
        rules: Vec<String>,
        /// Maximum number of applied rewrite steps before the run
        /// bails with a structured `step budget exhausted` note.
        max_steps: usize,
        /// Beam width: how many engine-validated candidates to collect
        /// per round before picking the smallest rewrite (1 = greedy
        /// first-certified).
        beam: usize,
    },
}

/// The discriminant of a [`Query`], used for display and wire encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// [`Query::NkaEq`].
    NkaEq,
    /// [`Query::KaEq`].
    KaEq,
    /// [`Query::Series`].
    Series,
    /// [`Query::Prove`].
    Prove,
    /// [`Query::ProgEq`].
    ProgEq,
    /// [`Query::Hoare`].
    Hoare,
    /// [`Query::Analyze`].
    Analyze,
    /// [`Query::Optimize`].
    Optimize,
}

impl QueryKind {
    /// The wire-format `op` name (`nka_eq`, `ka_eq`, `series`, `prove`,
    /// `prog_eq`, `hoare`, `analyze`, `optimize`).
    #[must_use]
    pub fn op(self) -> &'static str {
        match self {
            QueryKind::NkaEq => "nka_eq",
            QueryKind::KaEq => "ka_eq",
            QueryKind::Series => "series",
            QueryKind::Prove => "prove",
            QueryKind::ProgEq => "prog_eq",
            QueryKind::Hoare => "hoare",
            QueryKind::Analyze => "analyze",
            QueryKind::Optimize => "optimize",
        }
    }
}

impl fmt::Display for QueryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.op())
    }
}

/// Default truncation length for [`Query::Series`] built from the wire
/// format without an explicit `max_len` (matches the CLI default).
pub const DEFAULT_SERIES_MAX_LEN: usize = 3;

/// Default step budget for [`Query::Optimize`] built without an
/// explicit `max_steps` (matches the CLI default). Generous for greedy
/// shrinking rewrites — real programs reach a fixpoint long before it —
/// while bounding deliberately cycling rule filters.
pub const DEFAULT_OPTIMIZE_MAX_STEPS: usize = 32;

/// Default beam width for [`Query::Optimize`]: greedy (apply the first
/// engine-certified candidate per round).
pub const DEFAULT_OPTIMIZE_BEAM: usize = 1;

impl Query {
    /// The discriminant of this query.
    #[must_use]
    pub fn kind(&self) -> QueryKind {
        match self {
            Query::NkaEq { .. } => QueryKind::NkaEq,
            Query::KaEq { .. } => QueryKind::KaEq,
            Query::Series { .. } => QueryKind::Series,
            Query::Prove { .. } => QueryKind::Prove,
            Query::ProgEq { .. } => QueryKind::ProgEq,
            Query::Hoare { .. } => QueryKind::Hoare,
            Query::Analyze { .. } => QueryKind::Analyze,
            Query::Optimize { .. } => QueryKind::Optimize,
        }
    }

    /// Builds an [`Query::NkaEq`] from source text.
    ///
    /// # Errors
    ///
    /// [`ApiError::Parse`] (with span) if either side fails to parse.
    pub fn nka_eq(lhs: &str, rhs: &str) -> Result<Query, ApiError> {
        Ok(Query::NkaEq {
            lhs: parse_field("lhs", lhs)?,
            rhs: parse_field("rhs", rhs)?,
        })
    }

    /// Builds a [`Query::KaEq`] from source text.
    ///
    /// # Errors
    ///
    /// [`ApiError::Parse`] (with span) if either side fails to parse.
    pub fn ka_eq(lhs: &str, rhs: &str) -> Result<Query, ApiError> {
        Ok(Query::KaEq {
            lhs: parse_field("lhs", lhs)?,
            rhs: parse_field("rhs", rhs)?,
        })
    }

    /// Builds a [`Query::Series`] from source text.
    ///
    /// # Errors
    ///
    /// [`ApiError::Parse`] (with span) if the expression fails to parse.
    pub fn series(expr: &str, max_len: usize) -> Result<Query, ApiError> {
        Ok(Query::Series {
            expr: parse_field("expr", expr)?,
            max_len,
        })
    }

    /// Builds a [`Query::Prove`] from source text; each hypothesis is a
    /// `"l = r"` string.
    ///
    /// # Errors
    ///
    /// [`ApiError::Parse`] on a malformed expression,
    /// [`ApiError::Malformed`] on a hypothesis without `=`.
    pub fn prove<S: AsRef<str>>(lhs: &str, rhs: &str, hyps: &[S]) -> Result<Query, ApiError> {
        let mut parsed = Vec::with_capacity(hyps.len());
        for h in hyps {
            parsed.push(parse_hypothesis(h.as_ref())?);
        }
        Ok(Query::Prove {
            lhs: parse_field("lhs", lhs)?,
            rhs: parse_field("rhs", rhs)?,
            hyps: parsed,
        })
    }

    /// Builds a [`Query::ProgEq`] from two program sources.
    ///
    /// # Errors
    ///
    /// [`ApiError::ParseProgram`] (with span) if either program fails
    /// to parse, [`ApiError::Malformed`] if the qubit counts differ.
    /// (Encoder-name collisions cannot arise from surface programs —
    /// names derive injectively from gate × qubit — so encodability is
    /// not pre-checked here; [`Session::run`] still answers defensively
    /// if a future front end breaks that invariant.)
    pub fn prog_eq(p: &str, q: &str) -> Result<Query, ApiError> {
        let p = parse_prog_field("p", p)?;
        let q = parse_prog_field("q", q)?;
        if p.qubits() != q.qubits() {
            return Err(ApiError::Malformed(format!(
                "prog_eq compares programs over equal qubit counts, got {} vs {}",
                p.qubits(),
                q.qubits()
            )));
        }
        Ok(Query::ProgEq { p, q })
    }

    /// Builds a [`Query::Hoare`] from a precondition, program, and
    /// postcondition. The effects parse against the program's declared
    /// qubit count.
    ///
    /// # Errors
    ///
    /// [`ApiError::ParseProgram`] (with span) on any parse or
    /// effect-validity failure.
    pub fn hoare(pre: &str, prog: &str, post: &str) -> Result<Query, ApiError> {
        let prog = parse_prog_field("prog", prog)?;
        let pre = parse_effect_field("pre", pre, prog.qubits())?;
        let post = parse_effect_field("post", post, prog.qubits())?;
        Ok(Query::Hoare { pre, prog, post })
    }

    /// Builds a [`Query::Analyze`] from a program source and a pass
    /// filter (empty = every pass).
    ///
    /// # Errors
    ///
    /// [`ApiError::ParseProgram`] (with span) if the program fails to
    /// parse, [`ApiError::Malformed`] on an unknown pass name.
    pub fn analyze<S: AsRef<str>>(prog: &str, passes: &[S]) -> Result<Query, ApiError> {
        let prog = parse_prog_field("prog", prog)?;
        let passes: Vec<String> = passes.iter().map(|p| p.as_ref().to_owned()).collect();
        if let Err(unknown) = analysis::validate_passes(&passes) {
            return Err(ApiError::Malformed(format!(
                "unknown analysis pass {unknown:?} (expected one of: {})",
                analysis::PASS_NAMES.join(", ")
            )));
        }
        Ok(Query::Analyze { prog, passes })
    }

    /// Builds a [`Query::Optimize`] from a program source, a rule
    /// filter (empty = the whole catalog, shrinking peel direction
    /// only), a step budget, and a beam width.
    ///
    /// # Errors
    ///
    /// [`ApiError::ParseProgram`] (with span) if the program fails to
    /// parse, [`ApiError::Malformed`] on an unknown rule name or a
    /// zero `max_steps`/`beam`.
    pub fn optimize<S: AsRef<str>>(
        prog: &str,
        rules: &[S],
        max_steps: usize,
        beam: usize,
    ) -> Result<Query, ApiError> {
        let prog = parse_prog_field("prog", prog)?;
        let rules: Vec<String> = rules.iter().map(|r| r.as_ref().to_owned()).collect();
        RuleSet::from_names(&rules).map_err(ApiError::Malformed)?;
        if max_steps == 0 {
            return Err(ApiError::Malformed(
                "max_steps must be at least 1".to_owned(),
            ));
        }
        if beam == 0 {
            return Err(ApiError::Malformed("beam must be at least 1".to_owned()));
        }
        Ok(Query::Optimize {
            prog,
            rules,
            max_steps,
            beam,
        })
    }

    /// The expressions this query mentions, in field order (both sides
    /// of an equality, the series operand, goal plus hypotheses).
    /// Program queries mention none: their encodings are
    /// scratch-transient, built and retired inside [`Session::run`].
    pub fn exprs(&self) -> Vec<Expr> {
        match self {
            Query::NkaEq { lhs, rhs } | Query::KaEq { lhs, rhs } => vec![*lhs, *rhs],
            Query::Series { expr, .. } => vec![*expr],
            Query::Prove { lhs, rhs, hyps } => {
                let mut out = vec![*lhs, *rhs];
                for (l, r) in hyps {
                    out.push(*l);
                    out.push(*r);
                }
                out
            }
            Query::ProgEq { .. }
            | Query::Hoare { .. }
            | Query::Analyze { .. }
            | Query::Optimize { .. } => Vec::new(),
        }
    }

    /// Term-size accounting for this query: `(expr_nodes,
    /// expr_subterms)` — total *tree* node count of all mentioned
    /// expressions versus the number of *distinct* interned subterms
    /// across them. The gap is the sharing the hash-consing arena
    /// recovered; both are surfaced in the JSON verdict payload and
    /// `nka --stats` so cache effectiveness is observable.
    ///
    /// For program queries, `expr_nodes` counts the program AST nodes
    /// and `expr_subterms` is 0: their encodings live in a scratch
    /// scope and leave no persistent arena footprint.
    #[must_use]
    pub fn term_stats(&self) -> (u64, u64) {
        match self {
            Query::ProgEq { p, q } => ((p.program().size() + q.program().size()) as u64, 0),
            Query::Hoare { prog, .. }
            | Query::Analyze { prog, .. }
            | Query::Optimize { prog, .. } => (prog.program().size() as u64, 0),
            _ => term_stats_of(&self.exprs()),
        }
    }
}

fn parse_prog_field(field: &'static str, src: &str) -> Result<SurfaceProgram, ApiError> {
    SurfaceProgram::parse(src).map_err(|err| ApiError::ParseProgram {
        field,
        src: src.to_owned(),
        err,
    })
}

fn parse_effect_field(
    field: &'static str,
    src: &str,
    qubits: usize,
) -> Result<SurfaceEffect, ApiError> {
    SurfaceEffect::parse(src, qubits).map_err(|err| ApiError::ParseProgram {
        field,
        src: src.to_owned(),
        err,
    })
}

/// `(total tree nodes, distinct interned subterms)` across `exprs` —
/// the computation behind [`Query::term_stats`], shared with the
/// session's memo so a cache miss walks the terms exactly once.
fn term_stats_of(exprs: &[Expr]) -> (u64, u64) {
    let nodes = exprs.iter().map(|e| e.size() as u64).sum();
    let mut distinct = HashMap::new();
    for e in exprs {
        let Ok(()) = e.fold(&mut distinct, |_, _| Ok::<(), Infallible>(()));
    }
    (nodes, distinct.len() as u64)
}

/// Parses one `"l = r"` hypothesis.
fn parse_hypothesis(src: &str) -> Result<(Expr, Expr), ApiError> {
    let Some((l, r)) = src.split_once('=') else {
        return Err(ApiError::Malformed(format!(
            "hypothesis {src:?} is not of the form 'l = r'"
        )));
    };
    Ok((parse_field("hyp", l.trim())?, parse_field("hyp", r.trim())?))
}

fn parse_field(field: &'static str, src: &str) -> Result<Expr, ApiError> {
    src.parse().map_err(|err| ApiError::Parse {
        field,
        src: src.to_owned(),
        err,
    })
}

/// The structured outcome of a query: what the theory says.
///
/// Resource exhaustion is a verdict, not an error — the query was
/// well-formed, the engine just hit its configured ceiling; only
/// malformed input is an [`ApiError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The judgment holds (`⊢NKA` / `⊢KA` per the query).
    Holds,
    /// The judgment does not hold: the engine separated the two series
    /// (or languages), or refuted a hypothesis-free proof goal.
    Refuted,
    /// A machine-checked proof was found ([`Response::proof`] carries
    /// the proof object).
    Proved {
        /// Number of rule applications in the checked proof.
        proof_size: usize,
    },
    /// The proof search ran out of its expansion budget.
    Exhausted {
        /// For hypothesis-free goals the engine has already decided the
        /// goal (`Some(true)`: it holds, only the *rewrite* search
        /// failed); under hypotheses the status is genuinely open
        /// (`None`).
        holds_by_decision: Option<bool>,
    },
    /// The truncated power series of a [`Query::Series`] request: the
    /// non-zero coefficients in word order.
    Series {
        /// Truncation length the series was computed to.
        max_len: usize,
        /// `(word, coefficient)` pairs, shortest word first.
        terms: Vec<(Word, ExtNat)>,
    },
    /// The outcome of a [`Query::ProgEq`]: the algebraic decision plus
    /// the shared-setting encodings it was made on (rendered, because
    /// the underlying terms are scratch-scoped).
    ProgEq {
        /// Whether `⊢NKA Enc(p) = Enc(q)` — by Theorem 4.5 this implies
        /// `⟦p⟧ = ⟦q⟧`.
        holds: bool,
        /// `Enc(p)`, rendered.
        enc_p: String,
        /// `Enc(q)`, rendered.
        enc_q: String,
    },
    /// The outcome of a [`Query::Hoare`]: partial correctness by the
    /// wlp check, plus the encoded inequality `Enc(P)·b̄ ≤ ā` of
    /// Theorem 7.8 (same rendering as `nkat::qhl::encode_qhl`'s
    /// conclusion on an atomic derivation).
    Hoare {
        /// Whether `⊨par {A} P {B}` (i.e. `A ⊑ wlp(P, B)`).
        holds: bool,
        /// The encoded inequality, e.g. `(m1_q0 h_q0)* m0_q0 q1_neg ≤ q0_neg`.
        encoded: String,
    },
    /// The outcome of a [`Query::Analyze`]: the analyzer's findings in
    /// source order. Tier B findings carry a replayable
    /// [`Certificate`]; a `holds` replay of `prog_eq(cert.p, cert.q)`
    /// on any session re-establishes the finding independently.
    Analysis {
        /// Findings, sorted by span start (Tier A and Tier B merged).
        findings: Vec<Finding>,
    },
    /// The outcome of a [`Query::Optimize`]: the rewritten program plus
    /// its certificate. Every applied step was individually certified
    /// by a `prog_eq` decision, and `certificate` is the final
    /// replayable `prog_eq(input, optimized)` verdict — a `holds`
    /// replay on any session re-establishes the whole rewrite chain.
    Optimized {
        /// The optimized program, rendered as re-parseable source.
        /// Equal to the input source when no rule fired.
        optimized: String,
        /// The applied rewrite steps in order; each span refers to the
        /// program as it stood before that step.
        steps: Vec<OptimizeStep>,
        /// The final replayable `prog_eq(input, optimized)` certificate
        /// (`expect: "holds"`), decided on the warm engine.
        certificate: Certificate,
        /// Whether the run reached a genuine fixpoint (no candidate
        /// left); `false` means the step budget bailed first — see
        /// `note`.
        fixpoint: bool,
        /// Structured note on early termination (`step budget
        /// exhausted …`) or certification degradation; `None` for a
        /// clean fixpoint.
        note: Option<String>,
    },
    /// The decision engine exceeded its state budget
    /// ([`DecideOptions::max_dfa_states`]); retry with a larger budget.
    BudgetExhausted {
        /// Human-readable description of the exceeded bound.
        detail: String,
    },
}

impl Verdict {
    /// Whether this verdict establishes the queried judgment
    /// (holds / proved / a computed series).
    #[must_use]
    pub fn is_positive(&self) -> bool {
        match self {
            Verdict::Holds | Verdict::Proved { .. } | Verdict::Series { .. } => true,
            Verdict::ProgEq { holds, .. } | Verdict::Hoare { holds, .. } => *holds,
            // An analysis is "positive" when it found nothing worth
            // warning about — info-only findings keep CLI exit 0.
            Verdict::Analysis { findings } => findings
                .iter()
                .all(|f| f.severity != nka_qprog::Severity::Warning),
            // An optimize run always returns a program certified equal
            // to the input (a run whose final certification fails
            // degrades to the input unchanged, with a note), so it
            // keeps CLI exit 0 like an all-clear analysis.
            Verdict::Optimized { .. } => true,
            Verdict::Refuted | Verdict::Exhausted { .. } | Verdict::BudgetExhausted { .. } => false,
        }
    }

    /// The wire-format verdict name. Program verdicts reuse
    /// `holds`/`refuted` (their payload fields distinguish them), so
    /// stream consumers and exit-code rules need no new cases.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Holds => "holds",
            Verdict::Refuted => "refuted",
            Verdict::Proved { .. } => "proved",
            Verdict::Exhausted { .. } => "exhausted",
            Verdict::Series { .. } => "series",
            Verdict::ProgEq { holds, .. } | Verdict::Hoare { holds, .. } => {
                if *holds {
                    "holds"
                } else {
                    "refuted"
                }
            }
            Verdict::Analysis { .. } => "analysis",
            Verdict::Optimized { .. } => "optimized",
            Verdict::BudgetExhausted { .. } => "budget_exhausted",
        }
    }
}

/// The structured result of [`Session::run`].
#[derive(Debug, Clone)]
pub struct Response {
    /// Which kind of query this answers.
    pub kind: QueryKind,
    /// The outcome.
    pub verdict: Verdict,
    /// The checked proof object for [`Verdict::Proved`] (so callers can
    /// re-check or render it); `None` otherwise.
    pub proof: Option<Proof>,
    /// Engine-counter activity attributable to this query
    /// ([`DeciderStats::delta_since`] across the call).
    pub stats_delta: DeciderStats,
    /// Total tree-node count of the query's expressions
    /// ([`Query::term_stats`]).
    pub expr_nodes: u64,
    /// Distinct interned subterms across the query's expressions — its
    /// arena footprint; `expr_nodes / expr_subterms` is the sharing
    /// factor hash-consing recovered.
    pub expr_subterms: u64,
    /// Wall-clock time spent answering.
    pub elapsed: Duration,
}

/// A malformed query: the unified error type of the API layer.
///
/// Resource exhaustion is *not* an `ApiError` — see
/// [`Verdict::BudgetExhausted`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// An expression failed to parse. Carries the field name (`lhs`,
    /// `rhs`, `expr`, `hyp`), the offending source, and the span-bearing
    /// parser error.
    Parse {
        /// Which query field the source came from.
        field: &'static str,
        /// The source text that failed to parse.
        src: String,
        /// The underlying parser error (byte span included).
        err: ParseExprError,
    },
    /// A program or effect failed to parse in the quantum surface
    /// language. Same shape as [`ApiError::Parse`] — field name
    /// (`p`, `q`, `pre`, `prog`, `post`), source, span-bearing error.
    ParseProgram {
        /// Which query field the source came from.
        field: &'static str,
        /// The source text that failed to parse.
        src: String,
        /// The underlying surface-language error (byte span included).
        err: ParseProgError,
    },
    /// A malformed wire-level request: bad JSON, unknown `op`, missing
    /// or ill-typed key, hypothesis without `=`, …
    Malformed(String),
    /// Answering the request panicked. Carries the panic message; the
    /// session that ran it was rebuilt (see [`answer_line`]).
    Internal(String),
}

impl ApiError {
    /// Multi-line rendering with a `^^^` caret under the offending span
    /// for parse errors — what the CLI prints to stderr.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            ApiError::Parse { field, src, err } => {
                format!(
                    "parse error in {field}:\n  {}",
                    err.caret(src).replace('\n', "\n  ")
                )
            }
            ApiError::ParseProgram { field, src, err } => {
                format!(
                    "parse error in {field}:\n  {}",
                    err.caret(src).replace('\n', "\n  ")
                )
            }
            ApiError::Malformed(msg) => format!("malformed request: {msg}"),
            ApiError::Internal(msg) => format!("internal error: {msg}"),
        }
    }

    /// The byte span of the offending input for parse errors (either
    /// surface), `None` for wire-level malformations.
    #[must_use]
    pub fn span(&self) -> Option<(usize, usize)> {
        match self {
            ApiError::Parse { err, .. } => Some(err.span()),
            ApiError::ParseProgram { err, .. } => Some(err.span()),
            ApiError::Malformed(_) | ApiError::Internal(_) => None,
        }
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::Parse { field, src, err } => {
                write!(f, "parse error in {field} {src:?}: {err}")
            }
            ApiError::ParseProgram { field, src, err } => {
                write!(f, "parse error in {field} {src:?}: {err}")
            }
            ApiError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            ApiError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ApiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ApiError::Parse { err, .. } => Some(err),
            ApiError::ParseProgram { err, .. } => Some(err),
            ApiError::Malformed(_) | ApiError::Internal(_) => None,
        }
    }
}

/// Configuration for a [`Session`].
///
/// Since API v1.1 this struct is `#[non_exhaustive]`: external code
/// constructs it through [`SessionOptions::builder`] (validated, with
/// defaults for every field) or starts from
/// [`SessionOptions::default`] — bare struct literals no longer
/// compile outside this crate, so new fields can ship without breaking
/// embedders. See the README migration note.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SessionOptions {
    /// Resource policy of the underlying decision engine.
    pub decide: DecideOptions,
    /// Expansion budget of the auto-prover ([`Prover`]) per
    /// [`Query::Prove`].
    pub prove_max_expansions: usize,
    /// Term-size bound of the auto-prover per [`Query::Prove`].
    pub prove_max_term_size: usize,
    /// Cap on the number of *potential* words `Σ^{≤max_len}` a
    /// [`Query::Series`] may span (the truncated evaluation materializes
    /// at most one coefficient per word, so this bounds its memory). A
    /// request over the cap answers [`Verdict::BudgetExhausted`] —
    /// a wire client cannot OOM the process with a huge `max_len`.
    pub series_max_words: u64,
    /// Engine-recycling backstop: after this many queries the session
    /// empties its `Decider`'s caches, its term-stats memo and its
    /// program-pair memo, bounding cache growth under unbounded
    /// *distinct* traffic; entries loaded from a snapshot stay, exact
    /// for the life of the process. The expression arena itself is
    /// governed separately (prover scratch is scope-reclaimed; the
    /// persistent region grows only with distinct persistent terms).
    /// Cumulative [`Session::stats`] keep counting; verdicts are
    /// unaffected (caches are pure memoization). `None` (the default)
    /// never recycles. Surfaced as
    /// `nka serve|batch --max-queries-per-worker N`.
    pub recycle_after_queries: Option<u64>,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            decide: DecideOptions::default(),
            prove_max_expansions: 2000,
            prove_max_term_size: 120,
            series_max_words: 1_000_000,
            recycle_after_queries: None,
        }
    }
}

impl SessionOptions {
    /// A validated builder starting from the defaults — the supported
    /// construction path for external code now that the struct is
    /// `#[non_exhaustive]`.
    ///
    /// ```
    /// use nka_core::api::SessionOptions;
    /// let opts = SessionOptions::builder()
    ///     .max_dfa_states(50_000)
    ///     .recycle_after_queries(Some(10_000))
    ///     .build()?;
    /// assert_eq!(opts.decide.max_dfa_states, 50_000);
    /// # Ok::<(), nka_core::api::ApiError>(())
    /// ```
    #[must_use]
    pub fn builder() -> SessionOptionsBuilder {
        SessionOptionsBuilder {
            opts: SessionOptions::default(),
        }
    }
}

/// Builder for [`SessionOptions`]: every setter overrides one default,
/// and [`SessionOptionsBuilder::build`] range-checks the combination
/// so a misconfigured session fails loudly at construction instead of
/// silently never answering.
#[derive(Debug, Clone)]
pub struct SessionOptionsBuilder {
    opts: SessionOptions,
}

impl SessionOptionsBuilder {
    /// Replaces the whole engine resource policy.
    #[must_use]
    pub fn decide(mut self, decide: DecideOptions) -> Self {
        self.opts.decide = decide;
        self
    }

    /// State budget of each subset construction and restriction product
    /// ([`DecideOptions::max_dfa_states`]).
    #[must_use]
    pub fn max_dfa_states(mut self, max_dfa_states: usize) -> Self {
        self.opts.decide.max_dfa_states = max_dfa_states;
        self
    }

    /// Auto-prover expansion budget per [`Query::Prove`]. Zero is a
    /// supported degenerate configuration: the search proves nothing,
    /// but prove queries still classify via the decision procedure.
    #[must_use]
    pub fn prove_max_expansions(mut self, prove_max_expansions: usize) -> Self {
        self.opts.prove_max_expansions = prove_max_expansions;
        self
    }

    /// Auto-prover term-size bound per [`Query::Prove`]; must be ≥ 1.
    #[must_use]
    pub fn prove_max_term_size(mut self, prove_max_term_size: usize) -> Self {
        self.opts.prove_max_term_size = prove_max_term_size;
        self
    }

    /// [`Query::Series`] word-count cap; must be ≥ 1.
    #[must_use]
    pub fn series_max_words(mut self, series_max_words: u64) -> Self {
        self.opts.series_max_words = series_max_words;
        self
    }

    /// Engine-recycling backstop; `Some(0)` is rejected by
    /// [`SessionOptionsBuilder::build`] (it would recycle before every
    /// query), `None` never recycles.
    #[must_use]
    pub fn recycle_after_queries(mut self, recycle_after_queries: Option<u64>) -> Self {
        self.opts.recycle_after_queries = recycle_after_queries;
        self
    }

    /// Validates the combination and returns the options.
    ///
    /// # Errors
    ///
    /// [`ApiError::Malformed`] naming the offending field when a value
    /// is out of range: a zero prover term-size bound, a zero series
    /// word cap, or `recycle_after_queries == Some(0)`. (A zero
    /// expansion budget is allowed — it disables the proof search
    /// while the decision procedure still classifies.)
    pub fn build(self) -> Result<SessionOptions, ApiError> {
        let opts = self.opts;
        if opts.prove_max_term_size == 0 {
            return Err(ApiError::Malformed(
                "prove_max_term_size must be at least 1".to_owned(),
            ));
        }
        if opts.series_max_words == 0 {
            return Err(ApiError::Malformed(
                "series_max_words must be at least 1".to_owned(),
            ));
        }
        if opts.recycle_after_queries == Some(0) {
            return Err(ApiError::Malformed(
                "recycle_after_queries must be at least 1 (or None to disable)".to_owned(),
            ));
        }
        Ok(opts)
    }
}

/// A point-in-time snapshot of the memory the session (and the process
/// arena under it) is holding — the observability half of the arena
/// lifecycle. See [`Session::memory_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryStats {
    /// Distinct expressions in the persistent arena region
    /// (process-wide; grows only with distinct persistent terms).
    pub arena_persistent_nodes: usize,
    /// Scratch nodes currently live in unretired scopes (process-wide;
    /// bounded by the in-flight queries' search frontiers).
    pub scratch_live_nodes: usize,
    /// `arena_persistent_nodes + scratch_live_nodes` — the figure a
    /// bounded-memory serving process watches (`nka serve
    /// --max-arena-nodes`).
    pub arena_resident_nodes: usize,
    /// Scratch nodes retired (storage reclaimed) since process start;
    /// the prover's transient search terms all end up here.
    pub scratch_retired_total: u64,
    /// Scratch scopes retired since process start (the cache-eviction
    /// epoch of `nka_syntax::scratch_epoch`).
    pub scratch_scopes_retired: u64,
    /// Times this session recycled its engine
    /// ([`SessionOptions::recycle_after_queries`]).
    pub engine_recycles: u64,
    /// Queries answered by this session ([`Session::queries_run`]).
    pub queries_run: u64,
}

impl MemoryStats {
    /// The process arena's figures now, with the given session figures.
    /// Each arena counter is read once and the resident figure is their
    /// sum, so the snapshot is internally consistent even while other
    /// threads intern or retire concurrently.
    #[must_use]
    pub fn capture(engine_recycles: u64, queries_run: u64) -> MemoryStats {
        let arena_persistent_nodes = nka_syntax::interned_expr_count();
        let scratch_live_nodes = nka_syntax::scratch_live_nodes();
        MemoryStats {
            arena_persistent_nodes,
            scratch_live_nodes,
            arena_resident_nodes: arena_persistent_nodes + scratch_live_nodes,
            scratch_retired_total: nka_syntax::scratch_retired_total(),
            scratch_scopes_retired: nka_syntax::scratch_epoch(),
            engine_recycles,
            queries_run,
        }
    }
}

nka_syntax::counter_table! {
    /// Cumulative counters of the static analyzer ([`Query::Analyze`])
    /// over a session's life — the `analyze` slice of `nka --stats` and
    /// the serve v2 stats block.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct AnalysisStats {
        /// Findings emitted, bucketed by [`analysis::PASS_NAMES`] index.
        pub findings_by_pass: [u64; analysis::PASS_NAMES.len()],
        /// Tier B `prog_eq`/zeroness decisions actually run on the engine
        /// (program-pair memo misses).
        pub tier_b_decides: u64,
        /// Tier B checks answered from the session's program-pair memo
        /// without touching the engine.
        pub cert_cache_hits: u64,
    }
}

impl AnalysisStats {
    /// Total findings across all passes.
    #[must_use]
    pub fn findings_total(&self) -> u64 {
        self.findings_by_pass.iter().sum()
    }
}

nka_syntax::counter_table! {
    /// Cumulative counters of the optimizer ([`Query::Optimize`]) over a
    /// session's life — the `optimize` slice of `nka --stats` and the
    /// serve v2 stats block.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct OptimizeStats {
        /// Optimize queries answered.
        pub queries: u64,
        /// Rewrite steps applied (each one engine-certified).
        pub steps_applied: u64,
        /// Applied steps bucketed by
        /// [`nka_qprog::analysis::RULE_METADATA`] index.
        pub steps_by_rule: [u64; optimize::RULE_COUNT],
        /// Candidates the engine refuted — mostly hypothesis-bearing
        /// (advisory) catalog rules the free-symbol algebra cannot
        /// discharge (Theorem 4.5 is one-way).
        pub candidates_refuted: u64,
        /// Runs that terminated at a genuine fixpoint (no candidate left).
        pub fixpoints: u64,
        /// Runs that bailed on the step budget instead (cycling rule
        /// filters, or `--max-steps` set below the fixpoint distance).
        pub budget_bails: u64,
        /// Candidates skipped because their encoding was already visited
        /// this run — the seen-set that keeps cycling rule pairs finite.
        pub cycle_breaks: u64,
        /// Candidate/final certifications actually run on the engine
        /// (program-pair memo misses).
        pub engine_decides: u64,
        /// Certifications answered from the session's program-pair memo
        /// without touching the engine.
        pub cert_cache_hits: u64,
    }
}

nka_syntax::counter_table! {
    /// Cumulative warm-start counters of a session — the `snapshot` slice
    /// of `nka --stats` and the serve v2 stats block. Together with the
    /// engine's ordinary `answer_hits` these expose the tiered lookup:
    /// an in-process hit is an `answer_hit` that is *not* a
    /// `snapshot_hit`; a snapshot hit is both; everything else recomputes.
    ///
    /// A session counts only its hits, over its whole life: restored
    /// entries survive every engine recycle, so they go on hitting. The
    /// file's facts — entries restored, load warnings, dumps — are
    /// counted once for the whole pool by the [`WarmStart`] that owns
    /// the file ([`WarmStart::stats`]).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SnapshotStats {
        /// Cache entries (verdicts + program pairs) in the loaded file.
        pub restored_entries: u64,
        /// Engine verdict-cache hits served by a restored entry.
        pub snapshot_hits: u64,
        /// Program-pair memo hits served by a restored entry.
        pub cert_snapshot_hits: u64,
        /// Snapshot loads that degraded to cold start (corrupt, stale,
        /// version-mismatched, or config-mismatched files).
        pub load_warnings: u64,
        /// Successful snapshot dumps.
        pub dumps: u64,
        /// Snapshot dumps that failed (I/O); serving goes on.
        pub dump_failures: u64,
    }
}

nka_syntax::counter_table! {
    /// Every cumulative counter of a [`Session`] in one snapshot
    /// ([`Session::totals`]) — the single accounting type behind every
    /// `--stats` surface. Worker pools fold their sessions' totals with
    /// `merged`, which merges each section by its own table.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct SessionTotals {
        /// Engine counters over the session's life, across recycles.
        pub engine: DeciderStats,
        /// Queries answered ([`Session::queries_run`]).
        pub queries: u64,
        /// Tree nodes across queried expressions
        /// ([`Query::term_stats`] summed over the session's life).
        pub expr_nodes: u64,
        /// Distinct interned subterms across queried expressions
        /// (compare `nka_syntax::interned_expr_count()` for the
        /// process-wide arena footprint).
        pub expr_subterms: u64,
        /// Engine recycles ([`SessionOptions::recycle_after_queries`]).
        pub engine_recycles: u64,
        /// Static-analyzer counters ([`Session::analysis_stats`]).
        pub analysis: AnalysisStats,
        /// Optimizer counters ([`Session::optimize_stats`]).
        pub optimize: OptimizeStats,
        /// Warm-start counters: restored entries, snapshot-tier hits,
        /// degraded loads, dumps.
        pub snapshot: SnapshotStats,
    }
}

/// Key bytes past which [`PairMemo`] is cleared, bounding its memory
/// whatever the traffic: about 4,096 pairs of loop-free programs of
/// ~190 bytes a pair.
const PAIR_MEMO_KEY_BYTES: usize = 768 * 1024;

/// A memoized program pair: `(holds, certificate stats, restored)`,
/// where `restored` marks an entry loaded from a snapshot.
type PairEntry = (bool, CertificateStats, bool);

/// The program-pair verdicts of [`Session::decide_program_pair`]. The
/// key of `(p, q)` is `"{p.len()}:{p}{q}"`, one allocation per entry; a
/// probe writes it into `probe`, which keeps its capacity.
#[derive(Debug, Default)]
struct PairMemo {
    entries: HashMap<Box<str>, PairEntry>,
    /// Bytes of every key, at most [`PAIR_MEMO_KEY_BYTES`].
    key_bytes: usize,
    probe: String,
}

impl PairMemo {
    fn write_key(&mut self, p: &str, q: &str) {
        self.probe.clear();
        // A probe of a long line must not keep its buffer for the session.
        self.probe.shrink_to(4096);
        write!(self.probe, "{}:{p}{q}", p.len()).expect("writing to a String cannot fail");
    }

    fn get(&mut self, p: &str, q: &str) -> Option<PairEntry> {
        self.write_key(p, q);
        self.entries.get(self.probe.as_str()).copied()
    }

    /// Stores a new pair's `entry`, first clearing the memo if the key
    /// would take it past [`PAIR_MEMO_KEY_BYTES`]; a key larger than
    /// that is not kept.
    fn insert(&mut self, p: &str, q: &str, entry: PairEntry) {
        self.write_key(p, q);
        let bytes = self.probe.len();
        if self.key_bytes + bytes > PAIR_MEMO_KEY_BYTES {
            self.entries.clear();
            self.key_bytes = 0;
        }
        if bytes <= PAIR_MEMO_KEY_BYTES
            && self
                .entries
                .insert(self.probe.as_str().into(), entry)
                .is_none()
        {
            self.key_bytes += bytes;
        }
    }

    /// Drops every entry this process decided, keeping the restored ones.
    fn keep_restored(&mut self) {
        self.entries.retain(|_, &mut (_, _, restored)| restored);
        self.key_bytes = self.entries.keys().map(|k| k.len()).sum();
    }

    /// Every entry as `(p, q, entry)`.
    fn iter(&self) -> impl Iterator<Item = (&str, &str, &PairEntry)> {
        self.entries.iter().map(|(key, entry)| {
            let (len, pq) = key.split_once(':').expect("a key starts with p's length");
            let (p, q) = pq.split_at(len.parse().expect("a key starts with p's length"));
            (p, q, entry)
        })
    }
}

/// `min(|Σ^{≤max_len}|, cap + 1)` where `|Σ^{≤max_len}| = Σ_{i=0..=max_len} k^i`
/// — the word count, computed only far enough to compare against `cap`
/// (so a pathological `max_len` costs at most `cap` loop steps, and in
/// practice ~log(cap) for any alphabet with two or more symbols).
fn potential_words(alphabet_len: usize, max_len: usize, cap: u64) -> u64 {
    let k = alphabet_len as u64;
    let mut total: u64 = 0;
    let mut layer: u64 = 1; // k^0
    for _ in 0..=max_len {
        total = total.saturating_add(layer);
        if total > cap {
            return cap.saturating_add(1);
        }
        layer = layer.saturating_mul(k);
        if layer == 0 {
            break; // empty alphabet: only ε, ever
        }
    }
    total
}

/// The stateful query facade: one warm engine for a whole stream of
/// queries. See the [module docs](self).
///
/// Since Expr API v2 a `Session` is `Send + Sync` (statically asserted
/// below): expressions are arena handles and the engine's caches hold
/// `Arc`s, so sessions can be moved into worker threads — that is what
/// [`run_batch_parallel`] does.
#[derive(Debug, Default)]
pub struct Session {
    engine: Decider,
    opts: SessionOptions,
    queries_run: u64,
    expr_nodes_seen: u64,
    expr_subterms_seen: u64,
    /// Memoized [`Query::term_stats`] keyed by the query's root
    /// expression ids. Term stats are pure functions of the (interned,
    /// immutable) terms, and the warm serving path repeats queries — a
    /// DAG walk per repeat would dominate sub-microsecond cache hits.
    term_stats_cache: HashMap<TermKey, (u64, u64)>,
    /// The keys of `term_stats_cache` entries keyed (partly) on scratch
    /// ids, and the scratch epoch they are valid under; exactly these
    /// are evicted when the epoch advances (retired ids are reused by
    /// later scopes). Empty on the wire paths, which only ever query
    /// persistent terms.
    term_stats_scratch: ScratchLog<TermKey>,
    engine_recycles: u64,
    queries_since_recycle: u64,
    /// Analyzer counters ([`Session::analysis_stats`]); cumulative,
    /// surviving engine recycling.
    analysis_stats: AnalysisStats,
    /// Optimizer counters ([`Session::optimize_stats`]); cumulative,
    /// surviving engine recycling.
    optimize_stats: OptimizeStats,
    /// Every decided program pair; a recycle keeps the restored ones.
    pair_memo: PairMemo,
    /// Program-pair memo hits served by a restored entry (the
    /// `cert_snapshot_hits` of [`Session::totals`]); the engine counts
    /// its own `snapshot_hits`.
    cert_snapshot_hits: u64,
    /// The snapshot file this session was warmed from and dumps to on
    /// every engine recycle ([`WarmStart::session`]).
    warm: Option<Arc<WarmStart>>,
}

/// The root-id key of [`Session::run`]'s term-stats memo. Equality /
/// series queries get inline `Copy` keys so warm probes allocate
/// nothing; only `Prove` (root pair + hypotheses) boxes its ids.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum TermKey {
    One(ExprId),
    Two(ExprId, ExprId),
    Many(Box<[ExprId]>),
}

impl TermKey {
    /// Whether any root id is scratch — such keys are evicted when the
    /// scratch epoch advances.
    fn has_scratch(&self) -> bool {
        match self {
            TermKey::One(a) => a.is_scratch(),
            TermKey::Two(a, b) => a.is_scratch() || b.is_scratch(),
            TermKey::Many(ids) => ids.iter().any(|id| id.is_scratch()),
        }
    }

    /// The memo key of an expression query; `None` for program
    /// queries, whose (cheap, AST-sized) term stats bypass the memo.
    fn of(query: &Query) -> Option<TermKey> {
        match query {
            Query::NkaEq { lhs, rhs } | Query::KaEq { lhs, rhs } => {
                Some(TermKey::Two(lhs.id(), rhs.id()))
            }
            Query::Series { expr, .. } => Some(TermKey::One(expr.id())),
            Query::Prove { lhs, rhs, hyps } => {
                let mut ids = Vec::with_capacity(2 + 2 * hyps.len());
                ids.push(lhs.id());
                ids.push(rhs.id());
                for (l, r) in hyps {
                    ids.push(l.id());
                    ids.push(r.id());
                }
                Some(TermKey::Many(ids.into_boxed_slice()))
            }
            Query::ProgEq { .. }
            | Query::Hoare { .. }
            | Query::Analyze { .. }
            | Query::Optimize { .. } => None,
        }
    }
}

/// Compile-time proof of the Expr API v2 thread-safety contract at the
/// API layer; the parallel batch path depends on it.
#[allow(dead_code)]
fn _static_assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<Session>();
    check::<Query>();
    check::<Response>();
    check::<ApiError>();
}

impl Session {
    /// A session with default options (100 000-state budget, exact
    /// arithmetic, 2000-expansion proof search).
    #[must_use]
    pub fn new() -> Session {
        Session::default()
    }

    /// A session with explicit options.
    #[must_use]
    pub fn with_options(opts: SessionOptions) -> Session {
        Session {
            engine: Decider::with_options(opts.decide.clone()),
            opts,
            ..Session::default()
        }
    }

    /// A session whose engine enforces the given subset-construction
    /// state budget.
    #[must_use]
    pub fn with_budget(max_dfa_states: usize) -> Session {
        let opts = SessionOptions::builder()
            .max_dfa_states(max_dfa_states)
            .build()
            .expect("default options with a custom budget are valid");
        Session::with_options(opts)
    }

    /// The session's configuration.
    #[must_use]
    pub fn options(&self) -> &SessionOptions {
        &self.opts
    }

    /// Cumulative engine counters over the session's life; they keep
    /// counting across [`SessionOptions::recycle_after_queries`]
    /// recycles.
    #[must_use]
    pub fn stats(&self) -> DeciderStats {
        self.engine.stats()
    }

    /// Cumulative static-analyzer counters over the session's life
    /// (findings per pass, Tier B decide calls, program-pair memo
    /// hits). Zero until the first [`Query::Analyze`].
    #[must_use]
    pub fn analysis_stats(&self) -> AnalysisStats {
        self.analysis_stats
    }

    /// Cumulative optimizer counters over the session's life (steps
    /// applied per rule, refuted candidates, fixpoints vs budget
    /// bails, certification cache traffic). Zero until the first
    /// [`Query::Optimize`].
    #[must_use]
    pub fn optimize_stats(&self) -> OptimizeStats {
        self.optimize_stats
    }

    /// A snapshot of the session's (and the process arena's) memory
    /// accounting: persistent vs scratch nodes, reclamation totals, and
    /// recycling counts. This is the observability surface behind
    /// `nka --stats` and the CI memory-soak gate.
    #[must_use]
    pub fn memory_stats(&self) -> MemoryStats {
        MemoryStats::capture(self.engine_recycles, self.queries_run)
    }

    /// Number of queries answered by this session.
    #[must_use]
    pub fn queries_run(&self) -> u64 {
        self.queries_run
    }

    /// Direct access to the underlying engine, for callers that need
    /// surfaces the query API does not model (e.g. word membership).
    pub fn engine_mut(&mut self) -> &mut Decider {
        &mut self.engine
    }

    /// Every cumulative counter in one snapshot — what `--stats`
    /// reports and worker pools merge.
    #[must_use]
    pub fn totals(&self) -> SessionTotals {
        SessionTotals {
            engine: self.stats(),
            queries: self.queries_run,
            expr_nodes: self.expr_nodes_seen,
            expr_subterms: self.expr_subterms_seen,
            engine_recycles: self.engine_recycles,
            analysis: self.analysis_stats,
            optimize: self.optimize_stats,
            snapshot: SnapshotStats {
                snapshot_hits: self.engine.snapshot_hits(),
                cert_snapshot_hits: self.cert_snapshot_hits,
                ..SnapshotStats::default()
            },
        }
    }

    /// A session under `opts` holding `loaded`'s entries — verdicts in
    /// the engine, program pairs in the pair memo — that absorbs into
    /// and dumps through `warm` on every engine recycle. `loaded` was
    /// config-checked against `opts` by [`WarmStart::open`].
    pub(crate) fn warm_started(
        warm: Arc<WarmStart>,
        opts: &SessionOptions,
        loaded: Option<&LoadedSnapshot>,
    ) -> Session {
        let mut session = Session::with_options(opts.clone());
        if let Some(snap) = loaded {
            for (l, r, v) in &snap.nka {
                session.engine.restore_nka_verdict(l, r, *v);
            }
            for (l, r, v) in &snap.ka {
                session.engine.restore_ka_verdict(l, r, *v);
            }
            for cert in &snap.certs {
                session
                    .pair_memo
                    .insert(&cert.p, &cert.q, (cert.holds, cert.stats, true));
            }
        }
        session.warm = Some(warm);
        session
    }

    /// Stages this session's exportable warm state into `builder`:
    /// persistent-keyed engine verdicts plus the program-pair memo.
    /// [`WarmStart::absorb`] is the one caller.
    pub(crate) fn export_snapshot_into(&self, builder: &mut SnapshotBuilder) {
        for (a, b, v) in self.engine.export_nka_verdicts() {
            if let (Some(l), Some(r)) = (Expr::from_id(a), Expr::from_id(b)) {
                builder.add_nka_verdict(&l, &r, v);
            }
        }
        for (a, b, v) in self.engine.export_ka_verdicts() {
            if let (Some(l), Some(r)) = (Expr::from_id(a), Expr::from_id(b)) {
                builder.add_ka_verdict(&l, &r, v);
            }
        }
        for (p, q, (holds, stats, _)) in self.pair_memo.iter() {
            builder.add_cert(p, q, *holds, *stats);
        }
    }

    /// [`Query::term_stats`] through the session's memo: a warm repeat
    /// costs one allocation-free map probe on the root ids instead of
    /// a DAG walk.
    fn term_stats_memo(&mut self, query: &Query) -> (u64, u64) {
        let Some(key) = TermKey::of(query) else {
            // Program queries: AST-proportional, no ids to key on.
            return query.term_stats();
        };
        if let Some(&hit) = self.term_stats_cache.get(&key) {
            return hit;
        }
        let computed = term_stats_of(&query.exprs());
        if key.has_scratch() {
            self.term_stats_scratch.record(key.clone());
        }
        self.term_stats_cache.insert(key, computed);
        computed
    }

    /// Evicts the logged scratch-keyed memo entries if any scope retired
    /// since the first was cached (mirrors the `Decider`'s own epoch
    /// hygiene); costs O(entries evicted), and nothing unless this
    /// session actually cached scratch-rooted queries.
    fn sync_scratch_epoch(&mut self) {
        if let Some(stale) = self.term_stats_scratch.stale() {
            for key in stale {
                self.term_stats_cache.remove(&key);
            }
        }
    }

    /// Applies [`SessionOptions::recycle_after_queries`]: once the
    /// current engine has answered that many queries, recycle it
    /// ([`Session::retire_engine`]). Runs between queries only, so
    /// verdicts and per-query deltas are unaffected.
    fn maybe_recycle(&mut self) {
        let Some(limit) = self.opts.recycle_after_queries else {
            return;
        };
        if limit == 0 || self.queries_since_recycle < limit {
            return;
        }
        // Fold the warm state about to be discarded into the snapshot's
        // union and, if that added an entry, dump it, so a restart (or
        // the next `--snapshot` boot) can restore it. A failed dump only
        // warns and is counted: recycling proceeds regardless.
        if let Some(warm) = &self.warm {
            if warm.absorb(self) {
                let _ = warm.dump();
            }
        }
        self.retire_engine();
    }

    /// Recycles the engine in place ([`Decider::recycle`]) and drops
    /// every memo this process filled, keeping only the entries restored
    /// from a snapshot, and counts an engine recycle. Options and
    /// cumulative counters survive. Besides recycling, [`answer_line`]
    /// calls this after a query panicked, since the caches may then be
    /// mid-update; restored entries are exact verdicts no query
    /// changes, so they stay.
    pub(crate) fn retire_engine(&mut self) {
        self.engine.recycle();
        self.term_stats_cache = HashMap::new();
        self.term_stats_scratch.clear();
        self.pair_memo.keep_restored();
        self.engine_recycles += 1;
        self.queries_since_recycle = 0;
    }

    /// The cold half of per-query governance, behind one fused branch
    /// in [`Session::run`] so the warm path pays a single predictable
    /// compare for both policies.
    #[cold]
    fn pre_query_governance(&mut self) {
        self.maybe_recycle();
        self.sync_scratch_epoch();
    }

    /// Answers one query. Never panics and never returns a Rust error:
    /// every outcome — including budget exhaustion — is a [`Verdict`].
    pub fn run(&mut self, query: &Query) -> Response {
        if self.opts.recycle_after_queries.is_some() || !self.term_stats_scratch.is_empty() {
            self.pre_query_governance();
        }
        let before = self.engine.stats();
        let (expr_nodes, expr_subterms) = self.term_stats_memo(query);
        let start = Instant::now();
        let (verdict, proof) = self.dispatch(query);
        let elapsed = start.elapsed();
        self.queries_run += 1;
        self.queries_since_recycle += 1;
        self.expr_nodes_seen += expr_nodes;
        self.expr_subterms_seen += expr_subterms;
        Response {
            kind: query.kind(),
            verdict,
            proof,
            stats_delta: self.engine.stats().delta_since(&before),
            expr_nodes,
            expr_subterms,
            elapsed,
        }
    }

    /// Answers a batch in input order on the one warm engine.
    pub fn run_all(&mut self, queries: &[Query]) -> Vec<Response> {
        queries.iter().map(|q| self.run(q)).collect()
    }

    fn dispatch(&mut self, query: &Query) -> (Verdict, Option<Proof>) {
        match query {
            Query::NkaEq { lhs, rhs } => (decision(self.engine.decide(lhs, rhs)), None),
            Query::KaEq { lhs, rhs } => (decision(self.engine.ka_equiv(lhs, rhs)), None),
            Query::Series { expr, max_len } => {
                let alphabet: Vec<Symbol> = expr.atoms().into_iter().collect();
                let cap = self.opts.series_max_words;
                if potential_words(alphabet.len(), *max_len, cap) > cap {
                    return (
                        Verdict::BudgetExhausted {
                            detail: format!(
                                "series truncation ≤{max_len} over {} symbols spans more \
                                 than the session cap of {cap} words",
                                alphabet.len()
                            ),
                        },
                        None,
                    );
                }
                let series = nka_series::eval(expr, &alphabet, *max_len);
                let terms = series.iter().map(|(w, c)| (w.clone(), c)).collect();
                (
                    Verdict::Series {
                        max_len: *max_len,
                        terms,
                    },
                    None,
                )
            }
            Query::Prove { lhs, rhs, hyps } => {
                let judgments: Vec<Judgment> =
                    hyps.iter().map(|(l, r)| Judgment::Eq(*l, *r)).collect();
                let mut prover = Prover::new(&judgments)
                    .with_max_expansions(self.opts.prove_max_expansions)
                    .with_max_term_size(self.opts.prove_max_term_size);
                prover.add_hypothesis_rules();
                match prover.prove_or_refute(&mut self.engine, lhs, rhs) {
                    Ok(ProveOutcome::Proved(proof)) => (
                        Verdict::Proved {
                            proof_size: proof.size(),
                        },
                        Some(proof),
                    ),
                    Ok(ProveOutcome::Refuted) => (Verdict::Refuted, None),
                    Ok(ProveOutcome::Exhausted) => {
                        // Hypothesis-free goals reached Exhausted only
                        // after the engine decided them true (false would
                        // have been Refuted, overflow would be Err).
                        let holds_by_decision = judgments.is_empty().then_some(true);
                        (Verdict::Exhausted { holds_by_decision }, None)
                    }
                    Err(err) => (
                        Verdict::BudgetExhausted {
                            detail: err.to_string(),
                        },
                        None,
                    ),
                }
            }
            Query::ProgEq { p, q } => {
                // On a memo hit the pair is still encoded, to render it.
                let scope = ScratchScope::enter();
                let verdict = encode_pair(p, q).and_then(|(ep, eq)| {
                    let (decided, ..) =
                        self.decide_program_pair(p.source(), q.source(), || Ok((ep, eq)));
                    let (enc_p, enc_q) = (ep.to_string(), eq.to_string());
                    decided.map(|holds| Verdict::ProgEq {
                        holds,
                        enc_p,
                        enc_q,
                    })
                });
                drop(scope);
                (
                    verdict.unwrap_or_else(|detail| Verdict::BudgetExhausted { detail }),
                    None,
                )
            }
            Query::Hoare { pre, prog, post } => (hoare_verdict(pre, prog, post), None),
            Query::Analyze { prog, passes } => (self.dispatch_analyze(prog, passes), None),
            Query::Optimize {
                prog,
                rules,
                max_steps,
                beam,
            } => (self.dispatch_optimize(prog, rules, *max_steps, *beam), None),
        }
    }

    /// Runs the static analyzer: Tier A passes are pure AST walks
    /// ([`analysis::syntactic_findings`]); each Tier B check
    /// ([`analysis::semantic_checks`]) is a program pair
    /// ([`Session::certify`]). A check that holds becomes a [`Finding`]
    /// with a replayable [`Certificate`]; a refuted check emits
    /// nothing.
    fn dispatch_analyze(&mut self, prog: &SurfaceProgram, passes: &[String]) -> Verdict {
        let mut findings = analysis::syntactic_findings(prog, passes);
        for check in analysis::semantic_checks(prog, passes) {
            let (holds, stats, was_hit) = self.certify(&check.p, &check.q);
            self.analysis_stats.cert_cache_hits += u64::from(was_hit);
            self.analysis_stats.tier_b_decides += u64::from(!was_hit);
            if holds {
                findings.push(Finding {
                    pass: check.pass,
                    severity: check.severity,
                    span: check.span,
                    message: check.message,
                    certificate: Some(Certificate {
                        p: check.p,
                        q: check.q,
                        expect: "holds",
                        rule: check.rule,
                        stats,
                    }),
                });
            }
        }
        // Stable by span start: Tier A and Tier B interleave in source
        // order, ties keep pass-generation order — deterministic, so
        // `--jobs N` output byte-matches the sequential run.
        findings.sort_by_key(|f| f.span.0);
        for f in &findings {
            if let Some(i) = analysis::pass_index(f.pass) {
                self.analysis_stats.findings_by_pass[i] += 1;
            }
        }
        Verdict::Analysis { findings }
    }

    /// `⊢NKA Enc(p) = Enc(q)` (Theorem 4.5) for every program pair. A memo
    /// hit makes no engine call; a miss calls `encode` and decides in a
    /// [`ScratchScope`], storing only a decided verdict, never an `Err`
    /// (failed encoding, exhausted budget). Returns `(verdict, tier
    /// stats of the decide, memo hit)`.
    fn decide_program_pair(
        &mut self,
        p: &str,
        q: &str,
        encode: impl FnOnce() -> Result<(Expr, Expr), String>,
    ) -> (Result<bool, String>, CertificateStats, bool) {
        if let Some((holds, stats, restored)) = self.pair_memo.get(p, q) {
            self.cert_snapshot_hits += u64::from(restored);
            return (Ok(holds), stats, true);
        }
        let scope = ScratchScope::enter();
        let before = self.engine.stats();
        let decided = encode()
            .and_then(|(ep, eq)| self.engine.decide(&ep, &eq).map_err(|err| err.to_string()));
        drop(scope);
        let delta = self.engine.stats().delta_since(&before);
        let stats = CertificateStats {
            starfree_hits: delta.starfree_hits,
            prefix_hits: delta.prefix_hits,
            fastpath_fallbacks: delta.fastpath_fallbacks,
        };
        if let Ok(holds) = decided {
            self.pair_memo.insert(p, q, (holds, stats, false));
        }
        (decided, stats, false)
    }

    /// A certification of generated sources: `holds` only if the pair is
    /// decided equal, so a refutation, an exhausted budget or a parse
    /// failure leaves the analyzer silent and the optimizer declining
    /// the step. Returns `(holds, stats, memo hit)`.
    fn certify(&mut self, p: &str, q: &str) -> (bool, CertificateStats, bool) {
        let (decided, stats, hit) = self.decide_program_pair(p, q, || {
            match (
                SurfaceProgram::parse_generated(p),
                SurfaceProgram::parse_generated(q),
            ) {
                (Ok(p), Ok(q)) => encode_pair(&p, &q),
                (Err(err), _) | (_, Err(err)) => Err(err.to_string()),
            }
        });
        (decided == Ok(true), stats, hit)
    }

    /// Runs the optimizer: candidate generation is the engine-free
    /// [`nka_qprog::optimize`]; this loop owns the fixpoint, the
    /// seen-encoding cycle breaker, and every engine certification.
    ///
    /// Each round proposes candidates, skips any whose encoding (under
    /// one shared [`EncoderSetting`], interned in one outer
    /// [`ScratchScope`]) was already visited this run — equal encodings
    /// are provably equal programs, so revisiting one can only cycle —
    /// and certifies the rest with [`Session::certify`] until `beam`
    /// candidates pass; the smallest certified rewrite is applied. The
    /// run ends at a fixpoint (no certified candidate), or bails with a
    /// structured note when `max_steps` is exhausted. Finally the output
    /// is certified against the input on the same memo — for a greedy
    /// single-step run that is the very pair the step validation just
    /// decided, a memo hit. The pair memo (exportable into snapshots) is
    /// the only state that outlives the query.
    fn dispatch_optimize(
        &mut self,
        prog: &SurfaceProgram,
        rules: &[String],
        max_steps: usize,
        beam: usize,
    ) -> Verdict {
        // `Query::optimize` validated the filter; answer (not panic) if
        // a future front end constructs the variant directly.
        let ruleset = match RuleSet::from_names(rules) {
            Ok(rs) => rs,
            Err(msg) => return Verdict::BudgetExhausted { detail: msg },
        };
        self.optimize_stats.queries += 1;
        let scope = ScratchScope::enter();
        let mut setting = EncoderSetting::new(prog.dim());
        let mut seen: HashSet<ExprId> = HashSet::new();
        match setting.encode(prog.program()) {
            Ok(enc) => seen.insert(enc.id()),
            // Unreachable for surface programs (encoder names derive
            // injectively from gate × qubit); answer rather than panic.
            Err(err) => {
                drop(scope);
                return Verdict::BudgetExhausted {
                    detail: format!("encoding failed: {err}"),
                };
            }
        };
        let mut current = prog.clone();
        let mut steps: Vec<OptimizeStep> = Vec::new();
        let mut note: Option<String> = None;
        let mut fixpoint = false;
        loop {
            if steps.len() >= max_steps {
                note = Some(format!(
                    "step budget exhausted after {max_steps} step(s); \
                     certified rewrites may remain"
                ));
                self.optimize_stats.budget_bails += 1;
                break;
            }
            // Collect up to `beam` engine-certified candidates, then
            // apply the smallest; beam 1 is greedy first-certified
            // (candidates arrive certifiable-first, growing-peel last).
            let mut certified: Vec<(optimize::Candidate, SurfaceProgram, ExprId)> = Vec::new();
            for cand in optimize::candidates(&current, &ruleset) {
                if certified.len() >= beam {
                    break;
                }
                let Ok(parsed) = SurfaceProgram::parse_generated(&cand.rewritten) else {
                    continue;
                };
                let Ok(enc) = setting.encode(parsed.program()) else {
                    continue;
                };
                if seen.contains(&enc.id()) {
                    self.optimize_stats.cycle_breaks += 1;
                    continue;
                }
                let (holds, _, was_hit) = self.certify(current.source(), &cand.rewritten);
                self.optimize_stats.cert_cache_hits += u64::from(was_hit);
                self.optimize_stats.engine_decides += u64::from(!was_hit);
                if holds {
                    certified.push((cand, parsed, enc.id()));
                } else {
                    self.optimize_stats.candidates_refuted += 1;
                }
            }
            let Some((cand, parsed, enc_id)) = certified
                .into_iter()
                .min_by_key(|(c, _, _)| c.rewritten.len())
            else {
                fixpoint = true;
                self.optimize_stats.fixpoints += 1;
                break;
            };
            steps.push(OptimizeStep {
                rule: cand.rule,
                span: cand.span,
                note: cand.note,
            });
            seen.insert(enc_id);
            current = parsed;
            self.optimize_stats.steps_applied += 1;
            if let Some(ix) = optimize::rule_index(cand.rule) {
                self.optimize_stats.steps_by_rule[ix] += 1;
            }
        }
        drop(scope);
        // Final certificate: prog_eq(input, output) on the shared
        // pair memo. It holds by transitivity of the per-step
        // certifications; if the single decision still exceeds the
        // budget, degrade to the identity rewrite (trivially certified)
        // rather than returning a program the engine did not confirm.
        let mut optimized = current.source().to_owned();
        let (mut holds, mut stats, was_hit) = self.certify(prog.source(), &optimized);
        self.optimize_stats.cert_cache_hits += u64::from(was_hit);
        self.optimize_stats.engine_decides += u64::from(!was_hit);
        if !holds {
            note = Some(format!(
                "final certification of the {}-step rewrite exceeded the \
                 engine budget; returning the input unchanged",
                steps.len()
            ));
            steps.clear();
            fixpoint = false;
            optimized = prog.source().to_owned();
            let (h, s, hit) = self.certify(prog.source(), &optimized);
            self.optimize_stats.cert_cache_hits += u64::from(hit);
            self.optimize_stats.engine_decides += u64::from(!hit);
            (holds, stats) = (h, s);
        }
        debug_assert!(holds, "reflexive certification cannot fail");
        Verdict::Optimized {
            optimized: optimized.clone(),
            steps,
            certificate: Certificate {
                p: prog.source().to_owned(),
                q: optimized,
                expect: "holds",
                rule: None,
                stats,
            },
            fixpoint,
            note,
        }
    }
}

/// `(Enc(p), Enc(q))` under one shared [`EncoderSetting`] (Def. 4.4).
fn encode_pair(p: &SurfaceProgram, q: &SurfaceProgram) -> Result<(Expr, Expr), String> {
    let mut setting = EncoderSetting::new(p.dim());
    setting
        .encode(p.program())
        .and_then(|ep| setting.encode(q.program()).map(|eq| (ep, eq)))
        .map_err(|err| format!("encoding failed: {err}"))
}

/// Checks `{pre} prog {post}` through the wlp characterization and
/// renders the Theorem 7.8 encoded inequality `Enc(P)·b̄ ≤ ā`.
///
/// The effect-term naming mirrors `nkat::qhl::encode_qhl` on an atomic
/// derivation — `I ↦ (e, 0)`, `O ↦ (0, e)`, then fresh `q0`, `q1`, …
/// in pre-before-post order with `_neg` negations, equal matrices
/// sharing a term — so the rendered inequality matches the conclusion
/// the derivation compiler emits (asserted by an integration test).
fn hoare_verdict(pre: &SurfaceEffect, prog: &SurfaceProgram, post: &SurfaceEffect) -> Verdict {
    let triple = HoareTriple::new(pre.matrix(), prog.program(), post.matrix());
    let holds = triple.holds_partial(1e-8);

    const TOL: f64 = 1e-8;
    let dim = prog.dim();
    let identity = CMatrix::identity(dim);
    let zero = CMatrix::zeros(dim, dim);
    let scope = ScratchScope::enter();
    let top = Expr::atom(Symbol::intern("e"));
    // (matrix, negation term) in registration order.
    let mut registry: Vec<(CMatrix, Expr)> = vec![(identity, Expr::zero()), (zero, top)];
    let mut fresh = 0usize;
    fn neg_term_for(registry: &mut Vec<(CMatrix, Expr)>, fresh: &mut usize, m: &CMatrix) -> Expr {
        if let Some((_, neg)) = registry.iter().find(|(mat, _)| mat.approx_eq(m, TOL)) {
            return *neg;
        }
        let neg = Expr::atom(Symbol::intern(&format!("q{fresh}_neg")));
        *fresh += 1;
        registry.push((m.clone(), neg));
        neg
    }
    let pre_neg = neg_term_for(&mut registry, &mut fresh, pre.matrix());
    let post_neg = neg_term_for(&mut registry, &mut fresh, post.matrix());
    let encoded = match EncoderSetting::new(dim).encode(prog.program()) {
        Ok(enc) => format!("{} ≤ {pre_neg}", enc.mul(&post_neg)),
        Err(err) => format!("(encoding failed: {err})"),
    };
    drop(scope);
    Verdict::Hoare { holds, encoded }
}

fn decision(result: Result<bool, nka_wfa::DecideError>) -> Verdict {
    match result {
        Ok(true) => Verdict::Holds,
        Ok(false) => Verdict::Refuted,
        Err(err) => Verdict::BudgetExhausted {
            detail: err.to_string(),
        },
    }
}

/// Answers a batch of queries on `jobs` worker [`Session`]s, returning
/// one [`Response`] per query **in input order** — the library face of
/// the worker pool behind `nka batch --jobs N` ([`run_ordered`]).
///
/// Query `i` goes to worker `i % jobs`, so a stream with repeated
/// neighborhoods still spreads across workers. Each worker owns a
/// private engine built from `opts` — verdicts are exact and
/// deterministic regardless of cache state, so the verdict set is
/// identical to a single-session run; only the per-response
/// `stats_delta` differs (an expression shared *across* shards compiles
/// once per worker rather than once overall — that is the throughput
/// trade).
///
/// `jobs` is clamped to `1..=queries.len()`; `jobs <= 1` degenerates to
/// [`Session::run_all`] on the calling thread with no thread overhead.
/// Workers inherit expressions by handle (`Expr: Send + Sync`) — no
/// term is re-parsed or deep-copied to cross the thread boundary.
#[must_use]
pub fn run_batch_parallel(queries: &[Query], opts: &SessionOptions, jobs: usize) -> Vec<Response> {
    let jobs = jobs.clamp(1, queries.len().max(1));
    let mut sessions: Vec<Session> = (0..jobs)
        .map(|_| Session::with_options(opts.clone()))
        .collect();
    let mut responses = Vec::with_capacity(queries.len());
    run_ordered(&mut sessions, queries.iter(), Session::run, |resp| {
        responses.push(resp);
    });
    responses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot;

    /// Set in the child process [`in_own_process`] starts.
    const OWN_PROCESS: &str = "NKA_CORE_TEST_IN_OWN_PROCESS";

    /// For tests that assert exact process-wide arena counts, which
    /// sibling tests interning on other threads would disturb: re-runs
    /// the test `name` (of this module) alone in a child process of this
    /// test binary and returns `false` once it passed there; returns
    /// `true` inside that child, where the body should run.
    fn in_own_process(name: &str) -> bool {
        if std::env::var_os(OWN_PROCESS).is_some() {
            return true;
        }
        let module = module_path!().split_once("::").map_or("", |(_, m)| m);
        let test = format!("{module}::{name}");
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([test.as_str(), "--exact", "--test-threads=1"])
            .env(OWN_PROCESS, "1")
            .output()
            .expect("the test binary re-runs itself");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{test} in its own process:\n{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        false
    }

    #[test]
    fn nka_and_ka_verdicts_disagree_on_idempotence() {
        let mut session = Session::new();
        let nka = session.run(&Query::nka_eq("p + p", "p").unwrap());
        assert_eq!(nka.verdict, Verdict::Refuted);
        let ka = session.run(&Query::ka_eq("p + p", "p").unwrap());
        assert_eq!(ka.verdict, Verdict::Holds);
        assert_eq!(session.queries_run(), 2);
        // Both queries ran on the one engine: each side compiled once.
        assert_eq!(session.stats().compile_misses, 2);
    }

    #[test]
    fn series_query_reports_terms() {
        let mut session = Session::new();
        let resp = session.run(&Query::series("a + a", 2).unwrap());
        let Verdict::Series { max_len, terms } = &resp.verdict else {
            panic!("expected a series verdict, got {:?}", resp.verdict);
        };
        assert_eq!(*max_len, 2);
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].1, ExtNat::from(2u64));
        // Series evaluation never touches the engine.
        assert_eq!(resp.stats_delta, DeciderStats::default());
    }

    #[test]
    fn prove_query_returns_a_checkable_proof() {
        let mut session = Session::new();
        let query = Query::prove("m1 (m0 p + m1)", "m1", &["m1 m1 = m1", "m1 m0 = 0"]).unwrap();
        let resp = session.run(&query);
        let Verdict::Proved { proof_size } = resp.verdict else {
            panic!("expected a proof, got {:?}", resp.verdict);
        };
        assert!(proof_size > 0);
        let proof = resp.proof.expect("proof object present");
        let Query::Prove { lhs, rhs, hyps } = &query else {
            unreachable!()
        };
        let judgments: Vec<Judgment> = hyps.iter().map(|(l, r)| Judgment::Eq(*l, *r)).collect();
        assert_eq!(proof.check(&judgments).unwrap(), Judgment::eq(lhs, rhs));
    }

    #[test]
    fn exhausted_search_on_a_theorem_reports_holds_by_decision() {
        // Sliding is a theorem but unprovable by the bare rewrite search
        // (no rules registered beyond hypotheses, of which there are none).
        let mut session = Session::new();
        let resp = session.run(&Query::prove::<&str>("(p q)* p", "p (q p)*", &[]).unwrap());
        assert_eq!(
            resp.verdict,
            Verdict::Exhausted {
                holds_by_decision: Some(true)
            }
        );
    }

    #[test]
    fn oversized_series_requests_are_capped_not_evaluated() {
        // (a + b)* over length ≤ 63 spans 2^64 − 1 words; evaluating it
        // would OOM. The session must answer with a budget verdict
        // instead (a wire client controls max_len).
        let mut session = Session::new();
        let resp = session.run(&Query::series("(a + b)*", 63).unwrap());
        let Verdict::BudgetExhausted { detail } = &resp.verdict else {
            panic!("expected a budget verdict, got {:?}", resp.verdict);
        };
        assert!(detail.contains("session cap"), "{detail}");
        // A single-symbol alphabet with a pathological max_len is also
        // rejected promptly rather than looping for 2^64 iterations.
        let resp = session.run(&Query::series("a*", usize::MAX).unwrap());
        assert!(matches!(resp.verdict, Verdict::BudgetExhausted { .. }));
        // In-cap requests still answer.
        let resp = session.run(&Query::series("(a + b)*", 5).unwrap());
        assert!(matches!(resp.verdict, Verdict::Series { .. }));
    }

    #[test]
    fn budget_exhaustion_is_a_verdict() {
        let mut session = Session::with_budget(1);
        let resp = session.run(&Query::nka_eq("1* a", "1* a a").unwrap());
        let Verdict::BudgetExhausted { detail } = &resp.verdict else {
            panic!("expected budget exhaustion, got {:?}", resp.verdict);
        };
        assert!(detail.contains("out of budget"), "{detail}");
        assert!(!resp.verdict.is_positive());
    }

    #[test]
    fn parse_errors_carry_field_and_span() {
        let err = Query::nka_eq("a + ?", "a").unwrap_err();
        let ApiError::Parse { field, src, err } = &err else {
            panic!("expected a parse error, got {err:?}");
        };
        assert_eq!(*field, "lhs");
        assert_eq!(src, "a + ?");
        assert_eq!(err.span(), (4, 5));
        let rendered = ApiError::Parse {
            field,
            src: src.clone(),
            err: err.clone(),
        }
        .render();
        assert!(rendered.contains('^'), "{rendered}");
    }

    #[test]
    fn malformed_hypotheses_are_rejected() {
        let err = Query::prove("a", "a", &["no equals sign"]).unwrap_err();
        assert!(matches!(err, ApiError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn responses_carry_term_size_accounting() {
        let mut session = Session::new();
        // p + p against p: 3 + 1 tree nodes, 2 distinct subterms
        // ({p, p + p}; `p` is shared across both sides by interning).
        let resp = session.run(&Query::nka_eq("p + p", "p").unwrap());
        assert_eq!(resp.expr_nodes, 4);
        assert_eq!(resp.expr_subterms, 2);
        assert_eq!(session.totals().expr_nodes, 4);
        assert_eq!(session.totals().expr_subterms, 2);
        let resp = session.run(&Query::series("q*", 1).unwrap());
        assert_eq!(resp.expr_nodes, 2);
        assert_eq!(resp.expr_subterms, 2);
        assert_eq!(session.totals().expr_nodes, 6);
        assert_eq!(session.queries_run(), 2);
    }

    #[test]
    fn recycling_preserves_cumulative_stats_and_verdicts() {
        let mut session = Session::with_options(SessionOptions {
            recycle_after_queries: Some(2),
            ..SessionOptions::default()
        });
        let q = Query::nka_eq("(p q)* p", "p (q p)*").unwrap();
        for _ in 0..5 {
            assert_eq!(session.run(&q).verdict, Verdict::Holds);
        }
        // Limit 2: the engine recycles before queries 3 and 5.
        assert_eq!(session.queries_run(), 5);
        assert_eq!(session.totals().engine_recycles, 2);
        // Cumulative stats span every recycle…
        assert_eq!(session.stats().nka_queries, 5);
        // …and each emptied engine recompiled the pair (2 sides × 3).
        assert_eq!(session.stats().compile_misses, 6);
        let mem = session.memory_stats();
        assert_eq!(mem.engine_recycles, 2);
        assert_eq!(mem.queries_run, 5);
        assert_eq!(
            mem.arena_resident_nodes,
            mem.arena_persistent_nodes + mem.scratch_live_nodes
        );
    }

    #[test]
    fn prove_queries_reclaim_their_search_scratch() {
        let mut session = Session::new();
        let before = session.memory_stats();
        // Unique atoms: no sibling test pre-interns this search space.
        let q = Query::prove(
            "apiU (apiU apiM)",
            "apiM (apiU apiU)",
            &["apiU apiM = apiM apiU"],
        )
        .unwrap();
        let resp = session.run(&q);
        assert!(matches!(resp.verdict, Verdict::Proved { .. }));
        let after = session.memory_stats();
        assert!(after.scratch_retired_total > before.scratch_retired_total);
        assert!(after.scratch_scopes_retired > before.scratch_scopes_retired);
        // The proof the caller got is fully persistent.
        let proof = resp.proof.expect("proof object");
        let _ = proof.map_exprs(&mut |e| {
            assert!(!e.id().is_scratch());
            *e
        });
    }

    #[test]
    fn prog_eq_decides_program_equivalence() {
        let mut session = Session::new();
        // skip-elimination and reassociation are NKA-equalities.
        let q = Query::prog_eq("qubits 1; skip; h q0; x q0", "qubits 1; h q0; skip; x q0").unwrap();
        let resp = session.run(&q);
        let Verdict::ProgEq {
            holds,
            enc_p,
            enc_q,
        } = &resp.verdict
        else {
            panic!("expected a ProgEq verdict, got {:?}", resp.verdict);
        };
        assert!(*holds);
        assert_eq!(enc_p, "1 h_q0 x_q0");
        assert_eq!(enc_q, "h_q0 1 x_q0");
        assert!(resp.verdict.is_positive());
        assert_eq!(resp.verdict.name(), "holds");
        // h ≠ x as encodings (and as programs).
        let q = Query::prog_eq("qubits 1; h q0", "qubits 1; x q0").unwrap();
        let resp = session.run(&q);
        assert!(matches!(resp.verdict, Verdict::ProgEq { holds: false, .. }));
        assert_eq!(resp.verdict.name(), "refuted");
        // Loop unrolling: while ≡ its first unfolding (star fixpoint).
        let q = Query::prog_eq(
            "qubits 1; while q0 { h q0 }",
            "qubits 1; if q0 { h q0; while q0 { h q0 } }",
        )
        .unwrap();
        assert!(matches!(
            session.run(&q).verdict,
            Verdict::ProgEq { holds: true, .. }
        ));
    }

    #[test]
    fn repeated_prog_eq_pairs_answer_from_the_memo_and_never_promote() {
        if !in_own_process("repeated_prog_eq_pairs_answer_from_the_memo_and_never_promote") {
            return;
        }
        let mut session = Session::new();
        let refuted = Query::prog_eq(
            "qubits 2; h q0; cnot q0 q1; z q1",
            "qubits 2; h q1; cnot q1 q0; s q0",
        )
        .unwrap();
        let equal = Query::prog_eq("qubits 2; cz q0 q1; skip", "qubits 2; cz q0 q1").unwrap();
        // Interns the constants program encodings use, once per process.
        session.run(&Query::prog_eq("qubits 2; skip", "qubits 2; abort").unwrap());
        let before = nka_syntax::interned_expr_count();
        for (query, holds) in [(&refuted, false), (&equal, true)] {
            let first = session.run(query);
            assert!(first.stats_delta.nka_queries > 0, "{:?}", first.stats_delta);
            // Every repeat answers from the pair memo: same verdict and
            // encodings, not one engine call.
            for _ in 0..20 {
                let repeat = session.run(query);
                assert_eq!(repeat.verdict, first.verdict);
                assert!(matches!(repeat.verdict, Verdict::ProgEq { holds: h, .. } if h == holds));
                assert_eq!(repeat.stats_delta, DeciderStats::default());
                // Program queries report AST nodes, no arena subterms.
                assert!(repeat.expr_nodes > 0);
                assert_eq!(repeat.expr_subterms, 0);
            }
        }
        assert_eq!(
            nka_syntax::interned_expr_count(),
            before,
            "ProgEq queries, refuted or equal, must not grow the persistent arena"
        );
    }

    #[test]
    fn scratch_keyed_term_stats_are_evicted_on_epoch_advance() {
        // Sibling tests retiring scopes would purge mid-test.
        if !in_own_process("scratch_keyed_term_stats_are_evicted_on_epoch_advance") {
            return;
        }
        let mut session = Session::new();
        let persistent = Query::nka_eq("tsA tsB", "tsB tsA").unwrap();
        session.run(&persistent);
        session.run(&Query::series("tsA + tsB", 2).unwrap());
        let persistent_entries = session.term_stats_cache.len();
        {
            let _scope = ScratchScope::enter();
            let (a, b): (Expr, Expr) = ("tsA".parse().unwrap(), "tsB".parse().unwrap());
            for n in 1..4 {
                let lhs = (0..n).fold(b, |acc, _| acc.mul(&b));
                assert!(lhs.id().is_scratch());
                session.run(&Query::NkaEq { lhs, rhs: a });
                session.run(&Query::KaEq { lhs: a, rhs: lhs });
                session.run(&Query::Series {
                    expr: lhs,
                    max_len: 2,
                });
                // Repeats, scratch and persistent, add no entry.
                session.run(&Query::NkaEq { lhs, rhs: a });
                session.run(&persistent);
            }
            let logged: HashSet<&TermKey> = session.term_stats_scratch.keys().iter().collect();
            let scratch_keyed: HashSet<&TermKey> = session
                .term_stats_cache
                .keys()
                .filter(|key| key.has_scratch())
                .collect();
            assert_eq!(logged, scratch_keyed);
            assert_eq!(session.term_stats_scratch.keys().len(), 9);
            assert_eq!(session.term_stats_cache.len(), persistent_entries + 9);
        }
        // The scope retired: the next query evicts exactly the logged
        // entries and keeps the persistent ones.
        session.run(&persistent);
        assert!(session.term_stats_scratch.is_empty());
        assert_eq!(session.term_stats_cache.len(), persistent_entries);
        assert!(session
            .term_stats_cache
            .keys()
            .all(|key| !key.has_scratch()));
    }

    #[test]
    fn session_options_builder_validates_and_defaults() {
        // An all-defaults build is exactly `Default`.
        let built = SessionOptions::builder().build().unwrap();
        let dflt = SessionOptions::default();
        assert_eq!(built.prove_max_expansions, dflt.prove_max_expansions);
        assert_eq!(built.series_max_words, dflt.series_max_words);
        assert_eq!(built.recycle_after_queries, dflt.recycle_after_queries);
        // Zero budgets that would wedge or no-op the session are
        // rejected with a typed error, not accepted silently. (A zero
        // *expansion* budget stays legal: it only disables the proof
        // search, and prove queries still classify.)
        assert!(SessionOptions::builder()
            .prove_max_expansions(0)
            .build()
            .is_ok());
        for result in [
            SessionOptions::builder().prove_max_term_size(0).build(),
            SessionOptions::builder().series_max_words(0).build(),
            SessionOptions::builder()
                .recycle_after_queries(Some(0))
                .build(),
        ] {
            let err = result.unwrap_err();
            assert!(matches!(err, ApiError::Malformed { .. }), "{err:?}");
        }
        // In-range settings all land.
        let opts = SessionOptions::builder()
            .max_dfa_states(7)
            .recycle_after_queries(Some(3))
            .build()
            .unwrap();
        assert_eq!(opts.decide.max_dfa_states, 7);
        assert_eq!(opts.recycle_after_queries, Some(3));
    }

    #[test]
    fn session_snapshot_round_trip_restores_verdicts_and_counts_tiered_hits() {
        let dir = std::env::temp_dir().join(format!("nka-session-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("warm.nkasnap");
        let opts = SessionOptions::default();

        // Warm a session: an NKA refutation, a KA equality, and an
        // analyze pass (certificate cache), then dump.
        let nka_q = Query::nka_eq("p + p", "p").unwrap();
        let ka_q = Query::ka_eq("p + p", "p").unwrap();
        let analyze_q = Query::analyze("qubits 1; h q0; x q0", &["redundant_fragment"]).unwrap();
        let first_boot = WarmStart::open(&path, &opts);
        assert_eq!(first_boot.stats(), SnapshotStats::default());
        let mut warm = first_boot.session();
        let cold_nka = warm.run(&nka_q).verdict;
        let cold_ka = warm.run(&ka_q).verdict;
        let cold_analysis = warm.run(&analyze_q).verdict;
        first_boot.absorb(&warm);
        let exported = first_boot.dump().unwrap();
        assert!(exported > 0, "warm session must export entries");
        assert_eq!(first_boot.stats().dumps, 1);

        // A fresh session restores it and answers every query from the
        // snapshot tier: verdicts identical, zero new compiles, and the
        // tiered counters attribute the hits to the snapshot.
        let reopened = WarmStart::open(&path, &opts);
        assert_eq!(reopened.stats().restored_entries, exported as u64);
        let mut restored = reopened.session();
        assert_eq!(restored.run(&nka_q).verdict, cold_nka);
        assert_eq!(restored.run(&ka_q).verdict, cold_ka);
        assert_eq!(restored.run(&analyze_q).verdict, cold_analysis);
        let stats = restored.totals().snapshot;
        assert!(stats.snapshot_hits >= 2, "{stats:?}");
        assert!(stats.cert_snapshot_hits >= 1, "{stats:?}");
        assert_eq!(restored.stats().compile_misses, 0);
        assert_eq!(
            reopened.created_unix_secs(),
            Some(
                snapshot::Snapshot::read(&path)
                    .unwrap()
                    .summary()
                    .created_unix_secs
            )
        );

        // Under cache-relevant options that differ, the file is refused
        // wholesale — cold, one warning, no wrong answers.
        let mismatched_opts = SessionOptions::builder()
            .decide(DecideOptions {
                starfree_max_words: DecideOptions::default().starfree_max_words + 1,
                ..DecideOptions::default()
            })
            .build()
            .unwrap();
        let mismatched = WarmStart::open(&path, &mismatched_opts);
        let stats = mismatched.stats();
        assert_eq!((stats.restored_entries, stats.load_warnings), (0, 1));
        let mut cold = mismatched.session();
        assert_eq!(cold.run(&nka_q).verdict, cold_nka);
        assert_eq!(cold.totals().snapshot.snapshot_hits, 0);

        std::fs::remove_dir_all(&dir).ok();
    }

    /// A recycle folds the retiring engine into the snapshot's union, so
    /// the final dump holds what every engine decided, not only what
    /// the live one still caches.
    #[test]
    fn a_recycled_engines_verdicts_reach_the_final_dump() {
        let dir = std::env::temp_dir().join(format!("nka-recycle-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("recycle.nkasnap");
        let opts = SessionOptions::builder()
            .recycle_after_queries(Some(1))
            .build()
            .unwrap();
        let warm = WarmStart::open(&path, &opts);
        let mut session = warm.session();
        let first = Query::nka_eq("p + p", "p").unwrap();
        let second = Query::nka_eq("(p q)* p", "p (q p)*").unwrap();
        let _ = session.run(&first);
        // The second query recycles the engine that decided the first:
        // it is absorbed and dumped before it is discarded.
        let _ = session.run(&second);
        assert_eq!(session.totals().engine_recycles, 1);
        assert_eq!(warm.stats().dumps, 1);
        let recycle_dump = snapshot::Snapshot::read(&path).unwrap().summary();
        assert_eq!(recycle_dump.nka_verdicts, 1);
        // The live engine caches only the second verdict; the final
        // dump holds both.
        warm.absorb(&session);
        assert_eq!(warm.dump().unwrap(), 2);
        let reopened = WarmStart::open(&path, &SessionOptions::default());
        assert_eq!(reopened.stats().restored_entries, 2);
        let mut restored = reopened.session();
        assert_eq!(restored.run(&first).stats_delta.answer_hits, 1);
        assert_eq!(restored.run(&second).stats_delta.answer_hits, 1);
        assert_eq!(restored.totals().snapshot.snapshot_hits, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hoare_checks_wlp_and_carries_the_encoded_inequality() {
        let mut session = Session::new();
        // {|1⟩⟨1|} x {|1⟩⟨1|'s image} — X maps |1⟩ to |0⟩.
        let good = Query::hoare("ket(1)", "qubits 1; x q0", "ket(0)").unwrap();
        let resp = session.run(&good);
        let Verdict::Hoare { holds, encoded } = &resp.verdict else {
            panic!("expected a Hoare verdict, got {:?}", resp.verdict);
        };
        assert!(*holds);
        assert_eq!(encoded, "x_q0 q1_neg ≤ q0_neg");
        // A false triple: X does not fix |1⟩.
        let bad = Query::hoare("ket(1)", "qubits 1; x q0", "ket(1)").unwrap();
        let resp = session.run(&bad);
        let Verdict::Hoare { holds, encoded } = &resp.verdict else {
            panic!("expected a Hoare verdict, got {:?}", resp.verdict);
        };
        assert!(!*holds);
        // pre == post here, so both sides share the q0 terms.
        assert_eq!(encoded, "x_q0 q0_neg ≤ q0_neg");
        // Identity/zero effects use the e/0 special terms.
        let top = Query::hoare("I", "qubits 1; abort", "0").unwrap();
        let resp = session.run(&top);
        let Verdict::Hoare { holds, encoded } = &resp.verdict else {
            panic!("expected a Hoare verdict, got {:?}", resp.verdict);
        };
        assert!(*holds, "abort satisfies every partial-correctness triple");
        assert_eq!(encoded, "0 e ≤ 0");
        // Hoare queries never touch the decision engine.
        assert_eq!(resp.stats_delta, DeciderStats::default());
    }

    #[test]
    fn program_query_construction_errors_are_typed() {
        // Parse errors carry field + span.
        let err = Query::prog_eq("qubits 1; frob q0", "qubits 1; skip").unwrap_err();
        let ApiError::ParseProgram { field, err, .. } = &err else {
            panic!("expected a program parse error, got {err:?}");
        };
        assert_eq!(*field, "p");
        assert_eq!(err.span(), (10, 14));
        // Qubit-count mismatch is malformed, not a verdict.
        let err = Query::prog_eq("qubits 1; skip", "qubits 2; skip").unwrap_err();
        assert!(matches!(err, ApiError::Malformed(_)), "{err:?}");
        // Effects parse against the program's qubit count.
        let err = Query::hoare("ket(01)", "qubits 1; skip", "I").unwrap_err();
        let ApiError::ParseProgram { field, .. } = &err else {
            panic!("expected a program parse error, got {err:?}");
        };
        assert_eq!(*field, "pre");
        assert!(err.render().contains('^'), "{}", err.render());
        // Non-effects are rejected at construction.
        let err = Query::hoare("I", "qubits 1; skip", "2 I").unwrap_err();
        assert!(matches!(err, ApiError::ParseProgram { field: "post", .. }));
    }

    #[test]
    fn parallel_batch_matches_single_session_verdicts() {
        let queries: Vec<Query> = [
            Query::nka_eq("(p q)* p", "p (q p)*").unwrap(),
            Query::ka_eq("p + p", "p").unwrap(),
            Query::nka_eq("p + p", "p").unwrap(),
            Query::series("(a + a)*", 3).unwrap(),
            Query::prove("m1 (m0 p + m1)", "m1", &["m1 m1 = m1", "m1 m0 = 0"]).unwrap(),
            Query::nka_eq("1 + p p*", "p*").unwrap(),
            Query::nka_eq("(p q)* p", "p (q p)*").unwrap(), // repeat
            Query::prog_eq("qubits 1; skip; h q0", "qubits 1; h q0").unwrap(),
            Query::prog_eq("qubits 1; h q0", "qubits 1; x q0").unwrap(),
            Query::hoare("ket(1)", "qubits 1; x q0", "ket(0)").unwrap(),
        ]
        .into_iter()
        .collect();
        let sequential = Session::new().run_all(&queries);
        for jobs in [1, 2, 4, 16, 0] {
            let parallel = run_batch_parallel(&queries, &SessionOptions::default(), jobs);
            assert_eq!(parallel.len(), queries.len());
            for (i, (seq, par)) in sequential.iter().zip(&parallel).enumerate() {
                assert_eq!(seq.verdict, par.verdict, "query {i} at jobs={jobs}");
                assert_eq!(seq.kind, par.kind, "query {i} at jobs={jobs}");
                assert_eq!(seq.expr_nodes, par.expr_nodes, "query {i} at jobs={jobs}");
            }
        }
    }

    #[test]
    fn analyze_emits_tiered_findings_with_replayable_certificates() {
        let mut session = Session::new();
        // One program hitting many passes: unused q1, an unreachable
        // tail behind abort (and its certified abort-sink twin), a dead
        // then-branch, a constant guard, a self-inverse pair, metrics.
        let src = "qubits 2; init q0; if q0 { abort } else { h q0 }; h q0; h q0";
        let resp = session.run(&Query::analyze::<&str>(src, &[]).unwrap());
        assert_eq!(resp.kind, QueryKind::Analyze);
        let Verdict::Analysis { findings } = &resp.verdict else {
            panic!("expected an analysis verdict, got {:?}", resp.verdict);
        };
        let passes: HashSet<&str> = findings.iter().map(|f| f.pass).collect();
        for expected in [
            "unused_qubit",
            "constant_guard",
            "self_inverse_pair",
            "dead_branch",
            "metrics",
        ] {
            assert!(
                passes.contains(expected),
                "missing {expected}: {findings:?}"
            );
        }
        // Warnings present ⇒ negative verdict (CLI exit 1).
        assert!(!resp.verdict.is_positive());
        assert_eq!(resp.verdict.name(), "analysis");
        // Findings arrive sorted by span start.
        assert!(findings.windows(2).all(|w| w[0].span.0 <= w[1].span.0));
        // Every certificate replays to `holds` on a fresh session.
        let mut fresh = Session::new();
        for f in findings {
            let Some(cert) = &f.certificate else { continue };
            assert_eq!(cert.expect, "holds");
            let replay = fresh.run(&Query::prog_eq(&cert.p, &cert.q).unwrap());
            assert!(
                matches!(replay.verdict, Verdict::ProgEq { holds: true, .. }),
                "certificate of {:?} failed to replay: {:?}",
                f.pass,
                replay.verdict
            );
        }
        // The dead then-branch is certified, the healthy else is not.
        let dead: Vec<_> = findings
            .iter()
            .filter(|f| f.pass == "dead_branch")
            .collect();
        assert_eq!(dead.len(), 1, "{dead:?}");
        assert!(dead[0].certificate.is_some());
        // Counters moved: Tier B ran, findings bucketed per pass.
        let stats = session.analysis_stats();
        assert!(stats.tier_b_decides >= 1);
        assert_eq!(stats.findings_total(), findings.len() as u64);
        assert!(!stats.is_zero());
    }

    #[test]
    fn analyze_pass_filter_and_unknown_pass_rejection() {
        let mut session = Session::new();
        let src = "qubits 1; h q0; h q0";
        // metrics-only filter: exactly one finding.
        let resp = session.run(&Query::analyze(src, &["metrics"]).unwrap());
        let Verdict::Analysis { findings } = &resp.verdict else {
            panic!("expected analysis, got {:?}", resp.verdict);
        };
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].pass, "metrics");
        // Info-only findings keep the verdict positive.
        assert!(resp.verdict.is_positive());
        // Unknown pass name is malformed, with the candidates listed.
        let err = Query::analyze(src, &["frobnicate"]).unwrap_err();
        let ApiError::Malformed(msg) = &err else {
            panic!("expected Malformed, got {err:?}");
        };
        assert!(
            msg.contains("frobnicate") && msg.contains("metrics"),
            "{msg}"
        );
        // Parse errors carry field + span like every program query.
        let err = Query::analyze::<&str>("qubits 1; frob q0", &[]).unwrap_err();
        assert!(matches!(err, ApiError::ParseProgram { field: "prog", .. }));
    }

    #[test]
    fn analyze_uses_certificate_cache_and_never_promotes() {
        if !in_own_process("analyze_uses_certificate_cache_and_never_promotes") {
            return;
        }
        let mut session = Session::new();
        // Refuted redundant-fragment check only (no while/abort): the
        // one Tier B decide is a cache miss, the repeat a cache hit.
        let q = Query::analyze("qubits 1; h q0; x q0", &["redundant_fragment"]).unwrap();
        let _ = session.run(&q);
        assert_eq!(session.analysis_stats().tier_b_decides, 1);
        assert_eq!(session.analysis_stats().cert_cache_hits, 0);
        let before = nka_syntax::interned_expr_count();
        let resp = session.run(&q);
        assert_eq!(session.analysis_stats().tier_b_decides, 1);
        assert_eq!(session.analysis_stats().cert_cache_hits, 1);
        // No finding: the program is not skip.
        let Verdict::Analysis { findings } = &resp.verdict else {
            panic!("{:?}", resp.verdict)
        };
        assert!(findings.is_empty(), "{findings:?}");
        // Analyses never grow the persistent arena — not even ones
        // whose checks hold (loop-peeling always does).
        let peel = Query::analyze("qubits 1; while q0 { h q0 }", &["peephole"]).unwrap();
        let resp = session.run(&peel);
        let Verdict::Analysis { findings } = &resp.verdict else {
            panic!("{:?}", resp.verdict)
        };
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(
            findings[0].certificate.as_ref().unwrap().rule,
            Some("loop-peeling")
        );
        assert_eq!(
            nka_syntax::interned_expr_count(),
            before,
            "analyze must leave the persistent arena untouched"
        );
    }

    #[test]
    fn parallel_batch_budget_verdicts_are_deterministic() {
        let queries = vec![
            Query::nka_eq("1* a", "1* a a").unwrap(),
            Query::nka_eq("p", "p").unwrap(),
        ];
        let opts = SessionOptions {
            decide: DecideOptions {
                max_dfa_states: 1,
                // Forced off so even `p = p` reaches the 1-state subset
                // construction (the fast path would answer it without
                // consuming DFA budget).
                starfree_max_words: 0,
            },
            ..SessionOptions::default()
        };
        let responses = run_batch_parallel(&queries, &opts, 2);
        assert!(matches!(
            responses[0].verdict,
            Verdict::BudgetExhausted { .. }
        ));
        // With a 1-state budget even `p = p` overflows — the point is
        // the worker answers rather than panics, in input order.
        assert!(matches!(
            responses[1].verdict,
            Verdict::BudgetExhausted { .. }
        ));
    }

    /// The memo never holds more than [`PAIR_MEMO_KEY_BYTES`] of keys;
    /// a key that would pass it clears the memo, so a pair probed after
    /// the clear is decided again, and a restored mark goes with it.
    #[test]
    fn the_pair_memo_is_capped_in_key_bytes() {
        let (p, q) = ("qubits 1; h q0; h q0", "qubits 1; skip");
        let mut builder = SnapshotBuilder::new(snapshot::ConfigGuard::from_options(
            &DecideOptions::default(),
        ));
        builder.add_cert(p, q, false, CertificateStats::default());
        let dir = std::env::temp_dir().join(format!("nka-cert-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cert.nkasnap");
        std::fs::write(&path, builder.encode(0)).unwrap();
        let warm = WarmStart::open(&path, &SessionOptions::default());
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(warm.stats().restored_entries, 1);
        let mut session = warm.session();
        assert!(session.certify(p, q).2);
        assert_eq!(session.totals().snapshot.cert_snapshot_hits, 1);
        let filler = "f".repeat(4096);
        let mut cleared = false;
        for i in 0..2 * PAIR_MEMO_KEY_BYTES / filler.len() {
            let before = session.pair_memo.entries.len();
            session.pair_memo.insert(
                &filler,
                &i.to_string(),
                (false, CertificateStats::default(), false),
            );
            cleared |= session.pair_memo.entries.len() <= before;
            let memo = &session.pair_memo;
            let bytes: usize = memo.entries.keys().map(|k| k.len()).sum();
            assert_eq!(bytes, memo.key_bytes);
            assert!(bytes <= PAIR_MEMO_KEY_BYTES, "{bytes} key bytes");
        }
        assert!(cleared, "filling past the cap clears the memo");
        // A key larger than the cap is answered but never kept.
        let huge = "g".repeat(PAIR_MEMO_KEY_BYTES);
        session
            .pair_memo
            .insert(&huge, "x", (true, CertificateStats::default(), false));
        assert!(session.pair_memo.get(&huge, "x").is_none());
        // The restored entry went with a clear: decided again, then an
        // ordinary (not a snapshot) hit.
        assert!(!session.certify(p, q).2);
        assert!(session.certify(p, q).2);
        assert_eq!(session.totals().snapshot.cert_snapshot_hits, 1);
    }

    /// A budget exhaustion is answered, never memoized: a repeated Tier
    /// B check that exhausts the budget is decided again, and no dump
    /// holds it (restored under a larger budget it would read refuted).
    #[test]
    fn an_exhausted_check_is_decided_again_and_never_dumped() {
        let dir = std::env::temp_dir().join(format!("nka-exhausted-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("exhausted.nkasnap");
        let opts = SessionOptions::builder().max_dfa_states(1).build().unwrap();
        let warm = WarmStart::create(&path, &opts);
        let mut session = warm.session();
        let peel = Query::analyze("qubits 1; while q0 { h q0 }", &["peephole"]).unwrap();
        for _ in 0..2 {
            let resp = session.run(&peel);
            assert_eq!(resp.verdict, Verdict::Analysis { findings: vec![] });
        }
        let stats = session.analysis_stats();
        assert_eq!((stats.tier_b_decides, stats.cert_cache_hits), (2, 0));
        assert!(!warm.absorb(&session), "nothing to dump");
        assert_eq!(warm.dump().unwrap(), 0);
        assert_eq!(snapshot::Snapshot::read(&path).unwrap().summary().certs, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A recycle, like the rebuild after a panic, keeps what was loaded
    /// from the snapshot and drops what this process decided, while
    /// every counter keeps counting.
    #[test]
    fn a_recycle_keeps_the_restored_entries() {
        let (p, q) = ("qubits 1; h q0; h q0", "qubits 1; skip");
        let loaded = Query::nka_eq("p + p", "p").unwrap();
        let decided = Query::nka_eq("(p q)* p", "p (q p)*").unwrap();
        let Query::NkaEq { lhs, rhs } = &loaded else {
            unreachable!()
        };
        let mut builder = SnapshotBuilder::new(snapshot::ConfigGuard::from_options(
            &DecideOptions::default(),
        ));
        builder.add_nka_verdict(lhs, rhs, false);
        builder.add_cert(p, q, false, CertificateStats::default());
        let dir = std::env::temp_dir().join(format!("nka-recycle-keep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("keep.nkasnap");
        std::fs::write(&path, builder.encode(0)).unwrap();
        let warm = WarmStart::open(&path, &SessionOptions::default());
        std::fs::remove_dir_all(&dir).ok();
        let mut session = warm.session();
        assert_eq!(session.run(&decided).verdict, Verdict::Holds);
        assert!(!session.certify("qubits 1; x q0", "qubits 1; x q0").2);
        session.retire_engine();
        assert_eq!(session.run(&loaded).verdict, Verdict::Refuted);
        assert!(session.certify(p, q).2);
        assert!(!session.certify("qubits 1; x q0", "qubits 1; x q0").2);
        let misses = session.stats().compile_misses;
        assert_eq!(session.run(&decided).stats_delta.answer_hits, 0);
        assert!(session.stats().compile_misses > misses);
        let totals = session.totals();
        assert_eq!(totals.engine_recycles, 1);
        // Three queries and two certificate decides.
        assert_eq!(totals.engine.nka_queries, 5);
        assert_eq!(totals.engine.answer_hits, 1);
        assert_eq!(totals.snapshot.snapshot_hits, 1);
        assert_eq!(totals.snapshot.cert_snapshot_hits, 1);
    }
}
