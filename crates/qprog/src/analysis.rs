//! Static analysis of surface programs: certificate-backed semantic
//! lints over the span-carrying AST ([`crate::surface::Stmt`]).
//!
//! The analyzer has two tiers:
//!
//! * **Tier A (syntactic/dataflow, engine-free)** — implemented here in
//!   full: unused qubits, unreachable code after `abort`, adjacent
//!   self-inverse gate pairs, trivially-constant guards, and program
//!   metrics ([`syntactic_findings`]).
//! * **Tier B (semantic, engine-backed)** — *generated* here as
//!   [`SemanticCheck`]s ([`semantic_checks`]) and *decided* by the
//!   Query API layer on its warm engine: dead branches are zeroness
//!   questions (`Enc(guard·body) = 0`, Definition 4.4 — dead code ⇔
//!   zeroness), redundant fragments are `prog_eq`-to-`skip`, and
//!   peephole opportunities cite the Section 5 rule catalog
//!   ([`RULE_METADATA`]). Every check carries the exact `prog_eq`
//!   query (`p`/`q` program sources) a client can replay to re-verify
//!   the resulting [`Finding`]'s [`Certificate`] independently.
//!
//! This split keeps the analyzer engine-free (qprog does not depend on
//! the decision engine): the checks are data, and whoever owns a warm
//! `Decider` turns them into findings. By construction every `p`/`q`
//! pair re-parses under [`SurfaceProgram::parse`] and the expected
//! verdict of a *reported* finding is always `holds`.
//!
//! Soundness note (Theorem 4.5): the algebraic direction is one-way.
//! A `holds` certificate *proves* the semantic fact; the absence of a
//! finding proves nothing — e.g. `h q0; h q0` is semantically `skip`
//! but algebraically distinct from `1`, which is exactly why the
//! adjacent self-inverse pair lint is Tier A (syntactic) and
//! informational rather than a certified rewrite.

use crate::surface::{Stmt, StmtKind, SurfaceProgram};
use std::collections::BTreeSet;
use std::fmt;

/// Every analysis pass, in reporting order. The wire `passes` filter
/// and the `--stats` per-pass counters both index into this list.
pub const PASS_NAMES: [&str; 8] = [
    "unused_qubit",
    "unreachable_code",
    "self_inverse_pair",
    "constant_guard",
    "metrics",
    "dead_branch",
    "redundant_fragment",
    "peephole",
];

/// The index of a pass in [`PASS_NAMES`], or `None` for an unknown
/// name (used both for request validation and stats bucketing).
#[must_use]
pub fn pass_index(name: &str) -> Option<usize> {
    PASS_NAMES.iter().position(|&p| p == name)
}

/// Validates a requested pass filter (empty = all passes).
///
/// # Errors
///
/// The first unknown pass name, for the API layer to wrap into its
/// malformed-request error.
pub fn validate_passes(passes: &[String]) -> Result<(), String> {
    match passes.iter().find(|p| pass_index(p).is_none()) {
        None => Ok(()),
        Some(unknown) => Err(unknown.clone()),
    }
}

/// Whether `name` is enabled under the filter (empty = all).
#[must_use]
pub fn pass_enabled(passes: &[String], name: &str) -> bool {
    passes.is_empty() || passes.iter().any(|p| p == name)
}

/// Finding severity. `Warning` findings make the analysis verdict
/// negative (CLI exit 1); `Info` findings do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Likely-unintended code: dead branches, unreachable statements,
    /// unused qubits, constant guards.
    Warning,
    /// Opportunities and measurements: peephole rewrites, metrics,
    /// self-inverse pairs, redundant fragments.
    Info,
}

impl Severity {
    /// The wire name (`"warning"` / `"info"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

nka_syntax::counter_table! {
    /// The engine-attribution slice of a certificate: which tiered-
    /// equivalence counters the deciding query moved, copied from the
    /// engine's stats delta by the API layer when the check is decided.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CertificateStats {
        /// Star-free word-multiset tier answered the query.
        pub starfree_hits: u64,
        /// Prefix-normalization tier answered the query.
        pub prefix_hits: u64,
        /// Both tiers declined; the generic automata pipeline ran.
        pub fastpath_fallbacks: u64,
    }
}

/// A replayable certificate: the exact `prog_eq` query whose `holds`
/// verdict establishes the finding. Replaying
/// `prog_eq(p, q)` on *any* fresh session must yield `holds` again —
/// the differential suite gates on exactly that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Left program source of the certifying `prog_eq` query.
    pub p: String,
    /// Right program source of the certifying `prog_eq` query.
    pub q: String,
    /// The expected (and, for an emitted finding, obtained) verdict —
    /// always `"holds"`.
    pub expect: &'static str,
    /// The Section 5 catalog rule the finding instantiates, if any
    /// (see [`RULE_METADATA`]).
    pub rule: Option<&'static str>,
    /// Engine fast-path attribution of the deciding query.
    pub stats: CertificateStats,
}

/// One diagnostic: which pass produced it, how severe, where in the
/// source, and — for Tier B findings — the replayable [`Certificate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The producing pass (an element of [`PASS_NAMES`]).
    pub pass: &'static str,
    /// Warning or info.
    pub severity: Severity,
    /// Half-open byte span in the analyzed source.
    pub span: (usize, usize),
    /// Human-readable description.
    pub message: String,
    /// The replayable certificate (Tier B findings only).
    pub certificate: Option<Certificate>,
}

/// A Tier B check the API layer must decide: a `prog_eq` query plus the
/// finding to emit *if the verdict is `holds`*. A refuted check emits
/// nothing — refutation only means the algebra could not certify the
/// fact, not that the fact is false (Theorem 4.5 is one-way).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemanticCheck {
    /// The pass that generated the check.
    pub pass: &'static str,
    /// Severity of the finding if the check holds.
    pub severity: Severity,
    /// Span of the implicated source region.
    pub span: (usize, usize),
    /// Message of the finding if the check holds.
    pub message: String,
    /// Left program source; parses under [`SurfaceProgram::parse`].
    pub p: String,
    /// Right program source; parses under [`SurfaceProgram::parse`].
    pub q: String,
    /// The catalog rule the check instantiates, if any.
    pub rule: Option<&'static str>,
}

/// Catalog metadata for one Section 5 rewrite rule: the algebraic
/// shapes and the paper hook, shared between the analyzer, the
/// `nka_apps::rule_library` Horn proofs, and any future `optimize`
/// query — one source of truth for rule identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleMeta {
    /// Short rule name (matches `nka_apps::rule_library::catalog`).
    pub name: &'static str,
    /// Left-hand algebraic shape.
    pub lhs: &'static str,
    /// Right-hand algebraic shape.
    pub rhs: &'static str,
    /// Horn hypotheses (empty string = unconditional).
    pub hyps: &'static str,
    /// Where in the paper the rule is grounded.
    pub citation: &'static str,
}

/// The nine-rule catalog, in `nka_apps::rule_library::catalog` order.
pub static RULE_METADATA: [RuleMeta; 9] = [
    RuleMeta {
        name: "dead-branch",
        lhs: "m0 p0 + m1 p1",
        rhs: "m0 p0",
        hyps: "m1 = 0",
        citation: "§5 via Cor. 4.3; dead code ⇔ zeroness (Def. 4.4)",
    },
    RuleMeta {
        name: "branch-fusion",
        lhs: "m0 p + m1 p",
        rhs: "m p",
        hyps: "m0 + m1 = m",
        citation: "§5 via Cor. 4.3",
    },
    RuleMeta {
        name: "gate-fusion",
        lhs: "(m1 (u1 u2 p))* m0",
        rhs: "(m1 (u12 p))* m0",
        hyps: "u1 u2 = u12",
        citation: "§5 via Cor. 4.3",
    },
    RuleMeta {
        name: "dead-loop",
        lhs: "(m1 p)* m0",
        rhs: "m0",
        hyps: "m1 = 0",
        citation: "§5 via Cor. 4.3; 0* = 1 from the fixed point (Fig. 3)",
    },
    RuleMeta {
        name: "loop-peeling",
        lhs: "(m1 p)* m0",
        rhs: "m0 + m1 (p ((m1 p)* m0))",
        hyps: "",
        citation: "§5.2 loop unrolling; fixed-point law (Fig. 3)",
    },
    RuleMeta {
        name: "double-reset",
        lhs: "r (r p)",
        rhs: "r p",
        hyps: "r r = r",
        citation: "§5 via Cor. 4.3",
    },
    RuleMeta {
        name: "double-measure",
        lhs: "m0 (m0 p)",
        rhs: "m0 p",
        hyps: "m0 m0 = m0",
        citation: "§5 via Cor. 4.3 (projective measurements, cf. §7 tests)",
    },
    RuleMeta {
        name: "abort-sink",
        lhs: "0 p",
        rhs: "0",
        hyps: "",
        citation: "Def. 4.4 (abort ↦ 0); semiring annihilation",
    },
    RuleMeta {
        name: "uncompute",
        lhs: "u1 u2 (u2_inv u1_inv)",
        rhs: "1",
        hyps: "ui ui_inv = ui_inv ui = 1",
        citation: "§8 Future Directions; unitary-group embedding",
    },
];

/// Iterates the rule catalog metadata in catalog order.
pub fn rule_metadata() -> impl Iterator<Item = &'static RuleMeta> {
    RULE_METADATA.iter()
}

/// Looks one rule up by name.
#[must_use]
pub fn rule_meta(name: &str) -> Option<&'static RuleMeta> {
    RULE_METADATA.iter().find(|m| m.name == name)
}

/// Gates that are their own inverse — an adjacent identical pair is
/// semantically `skip` (but *not* algebraically `1`; see the module
/// docs on Theorem 4.5 incompleteness).
const SELF_INVERSE: [&str; 7] = ["h", "x", "y", "z", "cnot", "cz", "swap"];

/// Runs every enabled Tier A pass. Findings come back in source order
/// (sorted by span start; generation is deterministic).
#[must_use]
pub fn syntactic_findings(prog: &SurfaceProgram, passes: &[String]) -> Vec<Finding> {
    let mut out = Vec::new();
    let ast = prog.ast();
    if pass_enabled(passes, "unused_qubit") {
        unused_qubits(prog, &mut out);
    }
    if pass_enabled(passes, "unreachable_code") {
        for_each_seq(ast, &mut |seq| unreachable_code(seq, &mut out));
    }
    if pass_enabled(passes, "self_inverse_pair") {
        for_each_seq(ast, &mut |seq| self_inverse_pairs(seq, &mut out));
    }
    if pass_enabled(passes, "constant_guard") {
        constant_guards(ast, &mut BTreeSet::new(), &mut out);
    }
    if pass_enabled(passes, "peephole") {
        for_each_seq(ast, &mut |seq| advisory_peepholes(seq, prog, &mut out));
    }
    if pass_enabled(passes, "metrics") {
        out.push(metrics(prog));
    }
    out.sort_by_key(|f| f.span.0);
    out
}

/// Generates every enabled Tier B check, in deterministic order. The
/// caller decides each `prog_eq(p, q)` and emits the finding only on
/// `holds`.
#[must_use]
pub fn semantic_checks(prog: &SurfaceProgram, passes: &[String]) -> Vec<SemanticCheck> {
    let mut out = Vec::new();
    let n = prog.qubits();
    let src = prog.source();
    if pass_enabled(passes, "dead_branch") {
        for_each_stmt(prog.ast(), &mut |stmt| {
            dead_branch_checks(stmt, n, src, &mut out);
        });
    }
    if pass_enabled(passes, "redundant_fragment") {
        if let Some(check) = redundant_fragment_check(prog) {
            out.push(check);
        }
    }
    if pass_enabled(passes, "peephole") {
        for_each_seq(prog.ast(), &mut |seq| {
            abort_sink_checks(seq, n, src, &mut out)
        });
        for_each_stmt(prog.ast(), &mut |stmt| {
            loop_peel_check(stmt, n, src, &mut out);
        });
    }
    out
}

/// Calls `f` on every statement sequence of the AST — the top level and
/// every nested block, outer-first.
fn for_each_seq<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a [Stmt])) {
    f(stmts);
    for stmt in stmts {
        match &stmt.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                for_each_seq(then_branch, f);
                for_each_seq(else_branch, f);
            }
            StmtKind::While { body, .. } => for_each_seq(body, f),
            _ => {}
        }
    }
}

/// Calls `f` on every statement of the AST, outer-first, source order.
fn for_each_stmt<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for stmt in stmts {
        f(stmt);
        match &stmt.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                for_each_stmt(then_branch, f);
                for_each_stmt(else_branch, f);
            }
            StmtKind::While { body, .. } => for_each_stmt(body, f),
            _ => {}
        }
    }
}

/// Whether a statement sequence contains an `abort` anywhere — the
/// pre-filter for zeroness checks: an abort-free program's encoding is
/// a nonzero series, so deciding it against `0` would be wasted work.
fn contains_abort(stmts: &[Stmt]) -> bool {
    let mut found = false;
    for_each_stmt(stmts, &mut |stmt| {
        found |= matches!(stmt.kind, StmtKind::Abort);
    });
    found
}

/// Whether the sequence is *syntactically* `skip` (empty or all-skip),
/// i.e. its encoding is literally `1` with no engine needed.
fn is_syntactic_skip(stmts: &[Stmt]) -> bool {
    stmts.iter().all(|s| matches!(s.kind, StmtKind::Skip))
}

/// The source slice covering a non-empty statement sequence, or
/// `"skip"` for an empty one. Statement spans cover whole statements,
/// so the slice is always balanced and re-parses in block position.
fn seq_src(src: &str, stmts: &[Stmt]) -> String {
    match (stmts.first(), stmts.last()) {
        (Some(first), Some(last)) => src[first.span.0..last.span.1].to_owned(),
        _ => "skip".to_owned(),
    }
}

/// Tier A: qubits declared but never referenced by any statement.
fn unused_qubits(prog: &SurfaceProgram, out: &mut Vec<Finding>) {
    let mut used = BTreeSet::new();
    for_each_stmt(prog.ast(), &mut |stmt| match &stmt.kind {
        StmtKind::Init(q) => {
            used.insert(*q);
        }
        StmtKind::Gate { targets, .. } => used.extend(targets.iter().copied()),
        StmtKind::If { qubit, .. } | StmtKind::While { qubit, .. } => {
            used.insert(*qubit);
        }
        StmtKind::Skip | StmtKind::Abort => {}
    });
    for q in 0..prog.qubits() {
        if !used.contains(&q) {
            out.push(Finding {
                pass: "unused_qubit",
                severity: Severity::Warning,
                span: prog.header_span(),
                message: format!("qubit q{q} is declared but never used"),
                certificate: None,
            });
        }
    }
}

/// Tier A: statements after an `abort` in the same sequence never run.
fn unreachable_code(seq: &[Stmt], out: &mut Vec<Finding>) {
    let Some(i) = seq.iter().position(|s| matches!(s.kind, StmtKind::Abort)) else {
        return;
    };
    if i + 1 < seq.len() {
        let span = (seq[i + 1].span.0, seq[seq.len() - 1].span.1);
        out.push(Finding {
            pass: "unreachable_code",
            severity: Severity::Warning,
            span,
            message: format!(
                "unreachable: {} statement(s) after 'abort' never run",
                seq.len() - 1 - i
            ),
            certificate: None,
        });
    }
}

/// Tier A: adjacent identical self-inverse gates compose to the
/// identity *semantically* — informational because ⊢NKA cannot derive
/// it (the encoder names are free symbols; Theorem 4.5 is one-way).
fn self_inverse_pairs(seq: &[Stmt], out: &mut Vec<Finding>) {
    let mut i = 0;
    while i + 1 < seq.len() {
        let pair = match (&seq[i].kind, &seq[i + 1].kind) {
            (
                StmtKind::Gate {
                    name: a,
                    targets: ta,
                },
                StmtKind::Gate {
                    name: b,
                    targets: tb,
                },
            ) => a == b && ta == tb && SELF_INVERSE.contains(&a.as_str()),
            _ => false,
        };
        if pair {
            let StmtKind::Gate { name, targets } = &seq[i].kind else {
                unreachable!("matched a gate pair above");
            };
            let qs: Vec<String> = targets.iter().map(|q| format!("q{q}")).collect();
            out.push(Finding {
                pass: "self_inverse_pair",
                severity: Severity::Info,
                span: (seq[i].span.0, seq[i + 1].span.1),
                message: format!(
                    "adjacent '{name} {qs}; {name} {qs}' is semantically skip — \
                     not algebraically derivable (Thm 4.5 soundness is one-way)",
                    qs = qs.join(" "),
                ),
                certificate: None,
            });
            i += 2;
        } else {
            i += 1;
        }
    }
}

/// Every qubit a sequence can touch (gate targets and init targets,
/// recursively) — the conservative invalidation set for the
/// constant-guard dataflow.
fn touched_qubits(stmts: &[Stmt], acc: &mut BTreeSet<usize>) {
    for_each_stmt(stmts, &mut |stmt| match &stmt.kind {
        StmtKind::Init(q) => {
            acc.insert(*q);
        }
        StmtKind::Gate { targets, .. } => acc.extend(targets.iter().copied()),
        _ => {}
    });
}

/// Tier A dataflow: a guard qubit known to be `|0⟩` (straight-line
/// after `init qK` with nothing touching `qK` since) makes its
/// measurement outcome constant 0 — the then-branch / loop body never
/// runs. Nested blocks restart with the empty (conservative) fact set.
fn constant_guards(seq: &[Stmt], known_zero: &mut BTreeSet<usize>, out: &mut Vec<Finding>) {
    for stmt in seq {
        match &stmt.kind {
            StmtKind::Skip | StmtKind::Abort => {}
            StmtKind::Init(q) => {
                known_zero.insert(*q);
            }
            StmtKind::Gate { targets, .. } => {
                for t in targets {
                    known_zero.remove(t);
                }
            }
            StmtKind::If {
                qubit,
                then_branch,
                else_branch,
            } => {
                if known_zero.contains(qubit) {
                    out.push(Finding {
                        pass: "constant_guard",
                        severity: Severity::Warning,
                        span: stmt.span,
                        message: format!(
                            "guard qubit q{qubit} is |0⟩ here: the measurement yields \
                             outcome 0 with certainty, so the then-branch never runs"
                        ),
                        certificate: None,
                    });
                }
                constant_guards(then_branch, &mut BTreeSet::new(), out);
                constant_guards(else_branch, &mut BTreeSet::new(), out);
                let mut dirty = BTreeSet::new();
                touched_qubits(then_branch, &mut dirty);
                touched_qubits(else_branch, &mut dirty);
                for q in dirty {
                    known_zero.remove(&q);
                }
            }
            StmtKind::While { qubit, body } => {
                if known_zero.contains(qubit) {
                    out.push(Finding {
                        pass: "constant_guard",
                        severity: Severity::Warning,
                        span: stmt.span,
                        message: format!(
                            "guard qubit q{qubit} is |0⟩ here: the measurement yields \
                             outcome 0 with certainty, so the loop body never runs"
                        ),
                        certificate: None,
                    });
                }
                constant_guards(body, &mut BTreeSet::new(), out);
                let mut dirty = BTreeSet::new();
                touched_qubits(body, &mut dirty);
                for q in dirty {
                    known_zero.remove(&q);
                }
            }
        }
    }
}

/// Tier A advisory peepholes: syntactic matches of catalog rules that
/// would need hypothesis discharge (or symbol-level rewriting) to
/// certify — reported as uncertified opportunities citing the rule.
fn advisory_peepholes(seq: &[Stmt], prog: &SurfaceProgram, out: &mut Vec<Finding>) {
    let src = prog.source();
    let mut i = 0;
    while i + 1 < seq.len() {
        let (a, b) = (&seq[i], &seq[i + 1]);
        let span = (a.span.0, b.span.1);
        match (&a.kind, &b.kind) {
            // Two adjacent resets of the same qubit are one reset.
            (StmtKind::Init(p), StmtKind::Init(q)) if p == q => {
                out.push(Finding {
                    pass: "peephole",
                    severity: Severity::Info,
                    span,
                    message: format!(
                        "resetting q{p} twice in a row is one reset (rule \"double-reset\")"
                    ),
                    certificate: None,
                });
                i += 2;
                continue;
            }
            // Adjacent gates on the same targets fuse into one unitary
            // — unless they are an identical self-inverse pair, which
            // the dedicated pass already reports.
            (
                StmtKind::Gate {
                    name: na,
                    targets: ta,
                },
                StmtKind::Gate {
                    name: nb,
                    targets: tb,
                },
            ) if ta == tb && !(na == nb && SELF_INVERSE.contains(&na.as_str())) => {
                out.push(Finding {
                    pass: "peephole",
                    severity: Severity::Info,
                    span,
                    message: format!(
                        "adjacent gates '{na}' and '{nb}' act on the same qubits and \
                         can fuse into one unitary (rule \"gate-fusion\")"
                    ),
                    certificate: None,
                });
                i += 2;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    // Identical branches: measure, then run the common code once.
    for stmt in seq {
        if let StmtKind::If {
            then_branch,
            else_branch,
            ..
        } = &stmt.kind
        {
            let (t, e) = (seq_src(src, then_branch), seq_src(src, else_branch));
            if t == e && !is_syntactic_skip(then_branch) {
                out.push(Finding {
                    pass: "peephole",
                    severity: Severity::Info,
                    span: stmt.span,
                    message: "both branches are identical: measure, then run the common \
                              code once (rule \"branch-fusion\")"
                        .to_owned(),
                    certificate: None,
                });
            }
        }
    }
}

/// Tier A: one always-emitted metrics finding per program.
fn metrics(prog: &SurfaceProgram) -> Finding {
    let mut stmts = 0usize;
    let mut gates = 0usize;
    let mut measurements = 0usize;
    for_each_stmt(prog.ast(), &mut |stmt| {
        stmts += 1;
        match &stmt.kind {
            StmtKind::Gate { .. } => gates += 1,
            StmtKind::If { .. } | StmtKind::While { .. } => measurements += 1,
            _ => {}
        }
    });
    fn depth(stmts: &[Stmt]) -> usize {
        stmts
            .iter()
            .map(|s| match &s.kind {
                StmtKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => 1 + depth(then_branch).max(depth(else_branch)),
                StmtKind::While { body, .. } => 1 + depth(body),
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }
    Finding {
        pass: "metrics",
        severity: Severity::Info,
        span: prog.header_span(),
        message: format!(
            "{} qubit(s), {stmts} statement(s), {gates} gate(s), \
             {measurements} measurement(s), max nesting {}, encoding size {}",
            prog.qubits(),
            depth(prog.ast()),
            prog.program().size(),
        ),
        certificate: None,
    }
}

/// Builds the zeroness certificate `prog_eq(if qK { body } else
/// { abort }, abort)`: with the else-arm pinned to `abort` (= `0`),
/// the encoding is `m1_qK · Enc(body)`, which is the zero series iff
/// `Enc(body) = 0` — Definition 4.4's dead code ⇔ zeroness, stated as
/// a decidable program equivalence.
fn zeroness_query(n: usize, qubit: usize, body_src: &str) -> (String, String) {
    (
        format!("qubits {n}; if q{qubit} {{ {body_src} }} else {{ abort }}"),
        format!("qubits {n}; abort"),
    )
}

/// Tier B: dead measurement arms. Pre-filtered on `contains_abort` —
/// only an aborting arm can encode to zero.
fn dead_branch_checks(stmt: &Stmt, n: usize, src: &str, out: &mut Vec<SemanticCheck>) {
    match &stmt.kind {
        StmtKind::If {
            qubit,
            then_branch,
            else_branch,
        } => {
            if !then_branch.is_empty() && contains_abort(then_branch) {
                let (p, q) = zeroness_query(n, *qubit, &seq_src(src, then_branch));
                out.push(SemanticCheck {
                    pass: "dead_branch",
                    severity: Severity::Warning,
                    span: stmt.span,
                    message: format!(
                        "then-branch (outcome 1) of 'if q{qubit}' is dead: \
                         Enc(branch) = 0, so the branch contributes nothing"
                    ),
                    p,
                    q,
                    rule: Some("dead-branch"),
                });
            }
            if !else_branch.is_empty() && contains_abort(else_branch) {
                let (p, q) = zeroness_query(n, *qubit, &seq_src(src, else_branch));
                out.push(SemanticCheck {
                    pass: "dead_branch",
                    severity: Severity::Warning,
                    span: stmt.span,
                    message: format!(
                        "else-branch (outcome 0) of 'if q{qubit}' is dead: \
                         Enc(branch) = 0, so the branch contributes nothing"
                    ),
                    p,
                    q,
                    rule: Some("dead-branch"),
                });
            }
        }
        StmtKind::While { qubit, body } if !body.is_empty() && contains_abort(body) => {
            let (p, q) = zeroness_query(n, *qubit, &seq_src(src, body));
            out.push(SemanticCheck {
                pass: "dead_branch",
                severity: Severity::Warning,
                span: stmt.span,
                message: format!(
                    "body of 'while q{qubit}' is dead: Enc(body) = 0, so the \
                     loop reduces to its exit measurement"
                ),
                p,
                q,
                rule: Some("dead-loop"),
            });
        }
        _ => {}
    }
}

/// Tier B: is the whole program semantically `skip`? Always checked
/// (unless the body is *syntactically* skip), so every analysis of a
/// non-trivial program exercises at least one engine decide — the
/// star-free fast path answers loop-free programs in microseconds, and
/// a refuted check retires its scratch encodings without growing the
/// persistent arena.
fn redundant_fragment_check(prog: &SurfaceProgram) -> Option<SemanticCheck> {
    let ast = prog.ast();
    if is_syntactic_skip(ast) {
        return None;
    }
    let span = (ast[0].span.0, ast[ast.len() - 1].span.1);
    Some(SemanticCheck {
        pass: "redundant_fragment",
        severity: Severity::Info,
        span,
        message: "program body is semantically skip: ⊢NKA Enc(P) = 1".to_owned(),
        p: prog.source().to_owned(),
        q: format!("qubits {}; skip", prog.qubits()),
        rule: None,
    })
}

/// Tier B: `abort` absorbs its trailing code — the certified companion
/// of the Tier A unreachable-code warning (rule "abort-sink", which
/// always holds: `0 · t = 0`).
fn abort_sink_checks(seq: &[Stmt], n: usize, src: &str, out: &mut Vec<SemanticCheck>) {
    let Some(i) = seq.iter().position(|s| matches!(s.kind, StmtKind::Abort)) else {
        return;
    };
    if i + 1 >= seq.len() {
        return;
    }
    let tail = &src[seq[i + 1].span.0..seq[seq.len() - 1].span.1];
    out.push(SemanticCheck {
        pass: "peephole",
        severity: Severity::Info,
        span: (seq[i].span.0, seq[seq.len() - 1].span.1),
        message: "'abort' absorbs the trailing code (rule \"abort-sink\")".to_owned(),
        p: format!("qubits {n}; abort; {tail}"),
        q: format!("qubits {n}; abort"),
        rule: Some("abort-sink"),
    });
}

/// Tier B: every loop equals its one-step unfolding (rule
/// "loop-peeling" — the fixed-point law as a program transformation).
fn loop_peel_check(stmt: &Stmt, n: usize, src: &str, out: &mut Vec<SemanticCheck>) {
    let StmtKind::While { qubit, body } = &stmt.kind else {
        return;
    };
    let while_src = &src[stmt.span.0..stmt.span.1];
    let body_src = seq_src(src, body);
    out.push(SemanticCheck {
        pass: "peephole",
        severity: Severity::Info,
        span: stmt.span,
        message: format!(
            "loop can be peeled: 'while q{qubit}' equals its one-step \
             unfolding (rule \"loop-peeling\")"
        ),
        p: format!("qubits {n}; {while_src}"),
        q: format!("qubits {n}; if q{qubit} {{ {body_src}; {while_src} }} else {{ skip }}"),
        rule: Some("loop-peeling"),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SurfaceProgram {
        SurfaceProgram::parse(src).expect("test program parses")
    }

    fn all(prog: &SurfaceProgram) -> Vec<Finding> {
        syntactic_findings(prog, &[])
    }

    #[test]
    fn pass_names_are_distinct_and_indexable() {
        for (i, name) in PASS_NAMES.iter().enumerate() {
            assert_eq!(pass_index(name), Some(i));
        }
        assert_eq!(pass_index("no_such_pass"), None);
        assert!(validate_passes(&["metrics".to_owned()]).is_ok());
        assert_eq!(
            validate_passes(&["metrics".to_owned(), "frob".to_owned()]),
            Err("frob".to_owned())
        );
    }

    #[test]
    fn unused_qubit_and_metrics_anchor_at_the_header() {
        let prog = parse("qubits 3; h q0");
        let findings = all(&prog);
        let unused: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.pass == "unused_qubit")
            .collect();
        assert_eq!(unused.len(), 2, "{findings:?}");
        for f in &unused {
            assert_eq!(f.span, prog.header_span());
            assert_eq!(f.severity, Severity::Warning);
        }
        assert!(unused[0].message.contains("q1"));
        assert!(unused[1].message.contains("q2"));
        let metric = findings.iter().find(|f| f.pass == "metrics").unwrap();
        assert!(metric.message.contains("1 gate(s)"), "{}", metric.message);
    }

    #[test]
    fn unreachable_code_spans_the_dead_tail() {
        let src = "qubits 1; abort; h q0; x q0";
        let prog = parse(src);
        let f = all(&prog)
            .into_iter()
            .find(|f| f.pass == "unreachable_code")
            .expect("dead tail found");
        assert_eq!(&src[f.span.0..f.span.1], "h q0; x q0");
        assert!(f.message.contains("2 statement(s)"));
    }

    #[test]
    fn self_inverse_pairs_are_info_and_skip_nonmembers() {
        let src = "qubits 2; h q0; h q0; s q0; s q0; cnot q0 q1; cnot q0 q1";
        let prog = parse(src);
        let pairs: Vec<Finding> = all(&prog)
            .into_iter()
            .filter(|f| f.pass == "self_inverse_pair")
            .collect();
        // h h and cnot cnot match; s s does not (s is not self-inverse).
        assert_eq!(pairs.len(), 2, "{pairs:?}");
        assert_eq!(&src[pairs[0].span.0..pairs[0].span.1], "h q0; h q0");
        assert!(pairs[1].message.contains("cnot"));
        assert!(pairs.iter().all(|f| f.severity == Severity::Info));
    }

    #[test]
    fn constant_guard_sees_init_and_invalidation() {
        // After init q0 the guard is |0⟩; the h q0 in between clears it.
        let flagged = parse("qubits 1; init q0; if q0 { x q0 } else { skip }");
        assert_eq!(
            all(&flagged)
                .iter()
                .filter(|f| f.pass == "constant_guard")
                .count(),
            1
        );
        let cleared = parse("qubits 1; init q0; h q0; while q0 { x q0 }");
        assert_eq!(
            all(&cleared)
                .iter()
                .filter(|f| f.pass == "constant_guard")
                .count(),
            0
        );
    }

    #[test]
    fn advisory_peepholes_match_fusion_and_double_reset() {
        let prog = parse("qubits 2; s q0; t q0; init q1; init q1; if q0 { x q1 } else { x q1 }");
        let msgs: Vec<String> = all(&prog)
            .into_iter()
            .filter(|f| f.pass == "peephole")
            .map(|f| f.message)
            .collect();
        assert_eq!(msgs.len(), 3, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("gate-fusion")));
        assert!(msgs.iter().any(|m| m.contains("double-reset")));
        assert!(msgs.iter().any(|m| m.contains("branch-fusion")));
    }

    #[test]
    fn dead_branch_checks_are_prefiltered_on_abort() {
        let none = parse("qubits 1; if q0 { x q0 } else { skip }");
        assert!(semantic_checks(&none, &["dead_branch".to_owned()]).is_empty());

        let prog = parse("qubits 1; if q0 { abort } else { h q0 }; while q0 { abort }");
        let checks = semantic_checks(&prog, &["dead_branch".to_owned()]);
        assert_eq!(checks.len(), 2, "{checks:?}");
        assert_eq!(checks[0].p, "qubits 1; if q0 { abort } else { abort }");
        assert_eq!(checks[0].q, "qubits 1; abort");
        assert_eq!(checks[1].rule, Some("dead-loop"));
        // Every generated side re-parses.
        for c in &checks {
            SurfaceProgram::parse(&c.p).unwrap();
            SurfaceProgram::parse(&c.q).unwrap();
        }
    }

    #[test]
    fn redundant_fragment_skips_syntactic_skip() {
        assert!(redundant_fragment_check(&parse("qubits 1; skip")).is_none());
        assert!(redundant_fragment_check(&parse("qubits 1;")).is_none());
        let check = redundant_fragment_check(&parse("qubits 1; h q0; h q0")).unwrap();
        assert_eq!(check.p, "qubits 1; h q0; h q0");
        assert_eq!(check.q, "qubits 1; skip");
    }

    #[test]
    fn peel_and_sink_checks_reparse() {
        let prog = parse("qubits 2; while q0 { h q1; x q0 }; abort; h q0");
        let checks = semantic_checks(&prog, &["peephole".to_owned()]);
        assert_eq!(checks.len(), 2, "{checks:?}");
        for c in &checks {
            SurfaceProgram::parse(&c.p).unwrap_or_else(|e| panic!("{}: {e}", c.p));
            SurfaceProgram::parse(&c.q).unwrap_or_else(|e| panic!("{}: {e}", c.q));
        }
        let peel = checks
            .iter()
            .find(|c| c.rule == Some("loop-peeling"))
            .unwrap();
        assert_eq!(
            peel.q,
            "qubits 2; if q0 { h q1; x q0; while q0 { h q1; x q0 } } else { skip }"
        );
    }

    #[test]
    fn rule_metadata_is_complete_and_unique() {
        assert_eq!(RULE_METADATA.len(), 9);
        let names: BTreeSet<&str> = rule_metadata().map(|m| m.name).collect();
        assert_eq!(names.len(), 9, "duplicate rule names");
        assert!(rule_meta("loop-peeling").unwrap().hyps.is_empty());
        assert!(rule_meta("dead-branch").unwrap().citation.contains("4.4"));
        assert!(rule_meta("nope").is_none());
    }
}
