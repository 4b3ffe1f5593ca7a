//! Candidate generation for the certificate-carrying optimizer
//! (`Query::Optimize`, wire op `optimize`).
//!
//! This module is the *proposal* half of "apply what `analyze` reports,
//! then re-analyze until fixpoint": it pattern-matches the Section 5
//! rewrite catalog ([`crate::analysis::RULE_METADATA`]) against a parsed
//! surface program and produces [`Candidate`] rewrites — each a full
//! re-parseable program source plus the rule cite. Like
//! [`crate::analysis`], it is deliberately **engine-free**: the API
//! layer (`nka_core::api`) owns the fixpoint loop, validates every
//! candidate with a `prog_eq` decision on the warm engine, and only
//! applies candidates the algebra certifies.
//!
//! # One-way soundness shapes the candidate set
//!
//! Theorem 4.5 is one-way: `Enc(p) = Enc(q)` proves semantic equality,
//! but semantically true rewrites whose catalog entry carries *symbol
//! hypotheses* (gate fusion's `u1 u2 = u12`, double-reset's `r r = r`,
//! …) are not derivable for the free encoder symbols — `h q0; h q0` is
//! semantically `skip` but algebraically ≠ 1. Those rules still
//! generate candidates (marked [`Candidate::advisory`]); the engine
//! refutes them and the optimizer counts them as `candidates_refuted`
//! instead of applying them, so the output program is *always* covered
//! by an unconditional certificate. The unconditionally certifiable
//! rules — `abort-sink`, `dead-branch`, `dead-loop`, and the
//! fixed-point law behind `loop-peeling` — are the ones that actually
//! fire.
//!
//! `loop-peeling` is applied **right-to-left** by default (rolling an
//! unfolded iteration back into its loop, which shrinks the program);
//! the growing left-to-right direction only fires when the rule is
//! explicitly named in the rule filter, which is also what makes the
//! rule pair deliberately cyclic for the fixpoint-termination
//! regression tests.

use crate::analysis::{rule_meta, RULE_METADATA};
use crate::surface::{Stmt, StmtKind, SurfaceProgram};

/// Number of rules in the catalog ([`RULE_METADATA`]).
pub const RULE_COUNT: usize = RULE_METADATA.len();

/// Gates that are their own inverse (shared shape with the analyzer's
/// `self_inverse_pair` pass): an adjacent identical pair is
/// semantically `skip`, but only *advisorily* so — see the module docs.
const SELF_INVERSE: [&str; 7] = ["h", "x", "y", "z", "cnot", "cz", "swap"];

/// The position of `name` in [`RULE_METADATA`] (the index every
/// per-rule counter array uses).
#[must_use]
pub fn rule_index(name: &str) -> Option<usize> {
    RULE_METADATA.iter().position(|m| m.name == name)
}

/// Which catalog rules an optimize run may propose, plus whether the
/// growing (left-to-right) direction of `loop-peeling` is armed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSet {
    enabled: [bool; RULE_COUNT],
    peel_forward: bool,
}

impl RuleSet {
    /// Builds the rule set from a user-supplied filter. An empty filter
    /// enables the whole catalog with `loop-peeling` in its shrinking
    /// (roll) direction only; naming rules restricts proposals to those
    /// rules, and naming `loop-peeling` explicitly *also* arms the
    /// growing peel direction.
    ///
    /// # Errors
    ///
    /// A message naming the first unknown rule and listing the catalog.
    pub fn from_names(rules: &[String]) -> Result<RuleSet, String> {
        let mut enabled = [rules.is_empty(); RULE_COUNT];
        for rule in rules {
            let Some(ix) = rule_index(rule) else {
                let known: Vec<&str> = RULE_METADATA.iter().map(|m| m.name).collect();
                return Err(format!(
                    "unknown optimizer rule {rule:?} (expected one of: {})",
                    known.join(", ")
                ));
            };
            enabled[ix] = true;
        }
        Ok(RuleSet {
            enabled,
            peel_forward: rules.iter().any(|r| r == "loop-peeling"),
        })
    }

    /// Whether `name` may propose candidates under this set.
    #[must_use]
    pub fn allows(&self, name: &str) -> bool {
        rule_index(name).is_some_and(|ix| self.enabled[ix])
    }

    /// Whether the growing peel direction is armed (only via an
    /// explicit `loop-peeling` in the filter).
    #[must_use]
    pub fn peel_forward(&self) -> bool {
        self.peel_forward
    }
}

/// One proposed rewrite: the rule, where it matched (byte span in the
/// *current* program's source), and the rewritten program as full
/// re-parseable source. `advisory` marks hypothesis-bearing rules the
/// engine is expected to refute (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The catalog rule that matched (an element of [`RULE_METADATA`]).
    pub rule: &'static str,
    /// Half-open byte span of the matched site in the current source.
    pub span: (usize, usize),
    /// Human-readable description of the rewrite.
    pub note: String,
    /// The rewritten program, rendered as re-parseable source.
    pub rewritten: String,
    /// Whether the rule carries symbol hypotheses that free encoder
    /// symbols cannot discharge (the engine will refute the step).
    pub advisory: bool,
}

/// One *applied* step of an optimize run, as reported in the verdict's
/// trace: the rule cite and where it fired. Spans refer to the program
/// source as it stood *before* this step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizeStep {
    /// The catalog rule applied (an element of [`RULE_METADATA`]).
    pub rule: &'static str,
    /// Half-open byte span of the rewritten site in the pre-step source.
    pub span: (usize, usize),
    /// Human-readable description of the rewrite.
    pub note: String,
}

impl OptimizeStep {
    /// The paper citation of the applied rule.
    #[must_use]
    pub fn citation(&self) -> &'static str {
        rule_meta(self.rule).map_or("", |m| m.citation)
    }
}

/// Renders a statement sequence back to surface syntax that re-parses
/// to a structurally identical AST (there was previously no AST→source
/// direction; candidates need one to produce whole rewritten programs).
#[must_use]
pub fn render_program(qubits: usize, stmts: &[Stmt]) -> String {
    format!("qubits {qubits}; {}", render_seq(stmts))
}

fn render_seq(stmts: &[Stmt]) -> String {
    if stmts.is_empty() {
        return "skip".to_owned();
    }
    let parts: Vec<String> = stmts.iter().map(render_stmt).collect();
    parts.join("; ")
}

fn render_stmt(stmt: &Stmt) -> String {
    match &stmt.kind {
        StmtKind::Skip => "skip".to_owned(),
        StmtKind::Abort => "abort".to_owned(),
        StmtKind::Init(q) => format!("init q{q}"),
        StmtKind::Gate { name, targets } => {
            let mut out = name.clone();
            for q in targets {
                out.push_str(&format!(" q{q}"));
            }
            out
        }
        StmtKind::If {
            qubit,
            then_branch,
            else_branch,
        } => format!(
            "if q{qubit} {{ {} }} else {{ {} }}",
            render_seq(then_branch),
            render_seq(else_branch)
        ),
        StmtKind::While { qubit, body } => {
            format!("while q{qubit} {{ {} }}", render_seq(body))
        }
    }
}

/// Structural statement equality, ignoring spans (the derived
/// `PartialEq` on [`Stmt`] compares spans, which differ between a
/// parsed program and a rendered-then-reparsed one).
fn stmt_eq(a: &Stmt, b: &Stmt) -> bool {
    match (&a.kind, &b.kind) {
        (StmtKind::Skip, StmtKind::Skip) | (StmtKind::Abort, StmtKind::Abort) => true,
        (StmtKind::Init(x), StmtKind::Init(y)) => x == y,
        (
            StmtKind::Gate {
                name: na,
                targets: ta,
            },
            StmtKind::Gate {
                name: nb,
                targets: tb,
            },
        ) => na == nb && ta == tb,
        (
            StmtKind::If {
                qubit: qa,
                then_branch: ta,
                else_branch: ea,
            },
            StmtKind::If {
                qubit: qb,
                then_branch: tb,
                else_branch: eb,
            },
        ) => qa == qb && seq_eq(ta, tb) && seq_eq(ea, eb),
        (
            StmtKind::While {
                qubit: qa,
                body: ba,
            },
            StmtKind::While {
                qubit: qb,
                body: bb,
            },
        ) => qa == qb && seq_eq(ba, bb),
        _ => false,
    }
}

fn seq_eq(a: &[Stmt], b: &[Stmt]) -> bool {
    // A missing else-branch, `{ }` and `{ skip }` all mean skip; the
    // renderer always emits `skip`, so all-skip sequences are equal.
    (seq_is_skip(a) && seq_is_skip(b))
        || (a.len() == b.len() && a.iter().zip(b).all(|(x, y)| stmt_eq(x, y)))
}

fn seq_is_skip(stmts: &[Stmt]) -> bool {
    stmts.iter().all(|s| matches!(s.kind, StmtKind::Skip))
}

fn contains_abort(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match &s.kind {
        StmtKind::Abort => true,
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => contains_abort(then_branch) || contains_abort(else_branch),
        StmtKind::While { body, .. } => contains_abort(body),
        _ => false,
    })
}

/// A candidate still in AST form (before rendering), with the ordering
/// hints the greedy loop relies on.
struct SeqCand {
    rule: &'static str,
    span: (usize, usize),
    note: String,
    stmts: Vec<Stmt>,
    advisory: bool,
    grows: bool,
}

/// Every candidate rewrite of `prog` under `rules`, ordered for the
/// greedy loop: certifiable shrinking rewrites first, the growing peel
/// direction after them, advisory (hypothesis-bearing) proposals last.
/// The order within each class follows source order, so greedy
/// application is deterministic.
#[must_use]
pub fn candidates(prog: &SurfaceProgram, rules: &RuleSet) -> Vec<Candidate> {
    let mut cands: Vec<SeqCand> = Vec::new();
    collect_seq(prog.ast(), rules, &mut cands);
    cands.sort_by_key(|c| (c.advisory, c.grows));
    cands
        .into_iter()
        .map(|c| Candidate {
            rule: c.rule,
            span: c.span,
            note: c.note,
            rewritten: render_program(prog.qubits(), &c.stmts),
            advisory: c.advisory,
        })
        .collect()
}

/// Replaces `stmts[i]` with `replacement` (splicing, so a statement can
/// become several or vanish), keeping everything else.
fn splice_at(stmts: &[Stmt], i: usize, replacement: Vec<Stmt>) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len() + replacement.len());
    out.extend_from_slice(&stmts[..i]);
    out.extend(replacement);
    out.extend_from_slice(&stmts[i + 1..]);
    out
}

fn stmt_at(span: (usize, usize), kind: StmtKind) -> Stmt {
    Stmt { kind, span }
}

fn collect_seq(stmts: &[Stmt], rules: &RuleSet, out: &mut Vec<SeqCand>) {
    // abort-sink: everything after a top-level abort is unreachable.
    if rules.allows("abort-sink") {
        if let Some(i) = stmts.iter().position(|s| matches!(s.kind, StmtKind::Abort)) {
            if i + 1 < stmts.len() {
                let dropped = stmts.len() - 1 - i;
                out.push(SeqCand {
                    rule: "abort-sink",
                    span: (stmts[i + 1].span.0, stmts[stmts.len() - 1].span.1),
                    note: format!("dropped {dropped} unreachable statement(s) after abort"),
                    stmts: stmts[..=i].to_vec(),
                    advisory: false,
                    grows: false,
                });
            }
        }
    }
    for i in 0..stmts.len() {
        adjacent_rules(stmts, i, rules, out);
        stmt_rules(stmts, i, rules, out);
        recurse(stmts, i, rules, out);
    }
}

/// Advisory rules over adjacent statements starting at `i`.
fn adjacent_rules(stmts: &[Stmt], i: usize, rules: &RuleSet, out: &mut Vec<SeqCand>) {
    let Some(next) = stmts.get(i + 1) else {
        return;
    };
    let cur = &stmts[i];
    // gate-fusion (advisory): an adjacent identical self-inverse pair
    // would fuse to the identity — needs the `u1 u2 = u12` hypothesis.
    if rules.allows("gate-fusion") {
        if let (
            StmtKind::Gate {
                name: na,
                targets: ta,
            },
            StmtKind::Gate {
                name: nb,
                targets: tb,
            },
        ) = (&cur.kind, &next.kind)
        {
            if na == nb && ta == tb && SELF_INVERSE.contains(&na.as_str()) {
                out.push(SeqCand {
                    rule: "gate-fusion",
                    span: (cur.span.0, next.span.1),
                    note: format!("adjacent self-inverse {na} pair would fuse to the identity"),
                    stmts: splice_at(&splice_at(stmts, i + 1, Vec::new()), i, Vec::new()),
                    advisory: true,
                    grows: false,
                });
            }
        }
    }
    // double-reset (advisory): init qK; init qK — needs `r r = r`.
    if rules.allows("double-reset") {
        if let (StmtKind::Init(a), StmtKind::Init(b)) = (&cur.kind, &next.kind) {
            if a == b {
                out.push(SeqCand {
                    rule: "double-reset",
                    span: (cur.span.0, next.span.1),
                    note: format!("repeated init q{a} would collapse to one reset"),
                    stmts: splice_at(stmts, i + 1, Vec::new()),
                    advisory: true,
                    grows: false,
                });
            }
        }
    }
    // uncompute (advisory): u1; u2; u2; u1 — needs the unitary-inverse
    // hypotheses.
    if rules.allows("uncompute") && i + 3 < stmts.len() {
        let quad = &stmts[i..i + 4];
        let gates: Vec<Option<(&str, &Vec<usize>)>> = quad
            .iter()
            .map(|s| match &s.kind {
                StmtKind::Gate { name, targets } if SELF_INVERSE.contains(&name.as_str()) => {
                    Some((name.as_str(), targets))
                }
                _ => None,
            })
            .collect();
        if let [Some(g0), Some(g1), Some(g2), Some(g3)] = gates[..] {
            if g0 == g3 && g1 == g2 && g0 != g1 {
                let mut rest = stmts.to_vec();
                rest.drain(i..i + 4);
                out.push(SeqCand {
                    rule: "uncompute",
                    span: (quad[0].span.0, quad[3].span.1),
                    note: format!(
                        "{}; {} followed by its own inverse would uncompute to skip",
                        g0.0, g1.0
                    ),
                    stmts: rest,
                    advisory: true,
                    grows: false,
                });
            }
        }
    }
}

/// Rules matching a single statement at `i` (without recursing into it).
fn stmt_rules(stmts: &[Stmt], i: usize, rules: &RuleSet, out: &mut Vec<SeqCand>) {
    let stmt = &stmts[i];
    match &stmt.kind {
        StmtKind::If {
            qubit,
            then_branch,
            else_branch,
        } => {
            // dead-branch (certifiable): an arm containing abort may
            // encode to zero; collapsing it to plain `abort` is then
            // certified by the engine.
            if rules.allows("dead-branch") {
                for (arm, branch) in [("then", then_branch), ("else", else_branch)] {
                    let already_bare =
                        branch.len() == 1 && matches!(branch[0].kind, StmtKind::Abort);
                    if contains_abort(branch) && !already_bare {
                        let collapsed = vec![stmt_at(stmt.span, StmtKind::Abort)];
                        let (tb, eb) = if arm == "then" {
                            (collapsed, else_branch.clone())
                        } else {
                            (then_branch.clone(), collapsed)
                        };
                        out.push(SeqCand {
                            rule: "dead-branch",
                            span: stmt.span,
                            note: format!("aborting {arm}-branch collapses to abort (Enc = 0)"),
                            stmts: splice_at(
                                stmts,
                                i,
                                vec![stmt_at(
                                    stmt.span,
                                    StmtKind::If {
                                        qubit: *qubit,
                                        then_branch: tb,
                                        else_branch: eb,
                                    },
                                )],
                            ),
                            advisory: false,
                            grows: false,
                        });
                    }
                }
            }
            // branch-fusion (advisory): identical arms — needs
            // `m0 + m1 = 1` for the free measurement symbols.
            if rules.allows("branch-fusion")
                && seq_eq(then_branch, else_branch)
                && !seq_is_skip(then_branch)
            {
                out.push(SeqCand {
                    rule: "branch-fusion",
                    span: stmt.span,
                    note: format!("identical branches of the q{qubit} measurement would fuse"),
                    stmts: splice_at(stmts, i, then_branch.clone()),
                    advisory: true,
                    grows: false,
                });
            }
            // double-measure (advisory): re-measuring the same qubit at
            // the head of an arm — needs `m1 m1 = m1`, `m1 m0 = 0`.
            if rules.allows("double-measure") {
                for (arm, branch, take_then) in
                    [("then", then_branch, true), ("else", else_branch, false)]
                {
                    let Some(first) = branch.first() else {
                        continue;
                    };
                    let StmtKind::If {
                        qubit: q2,
                        then_branch: inner_then,
                        else_branch: inner_else,
                    } = &first.kind
                    else {
                        continue;
                    };
                    if q2 != qubit {
                        continue;
                    }
                    let kept = if take_then { inner_then } else { inner_else };
                    let mut new_branch = kept.clone();
                    new_branch.extend_from_slice(&branch[1..]);
                    let (tb, eb) = if arm == "then" {
                        (new_branch, else_branch.clone())
                    } else {
                        (then_branch.clone(), new_branch)
                    };
                    out.push(SeqCand {
                        rule: "double-measure",
                        span: first.span,
                        note: format!(
                            "re-measuring q{qubit} in the {arm}-branch would collapse (projective measurement)"
                        ),
                        stmts: splice_at(
                            stmts,
                            i,
                            vec![stmt_at(
                                stmt.span,
                                StmtKind::If {
                                    qubit: *qubit,
                                    then_branch: tb,
                                    else_branch: eb,
                                },
                            )],
                        ),
                        advisory: true,
                        grows: false,
                    });
                }
            }
            // loop-peeling applied right-to-left (certifiable): an
            // `if` whose then-branch is one unfolded iteration rolls
            // back into the loop — the Fig. 3 fixed-point law.
            if rules.allows("loop-peeling") && seq_is_skip(else_branch) {
                if let Some(StmtKind::While { qubit: q2, body }) =
                    then_branch.last().map(|s| &s.kind)
                {
                    if q2 == qubit && seq_eq(&then_branch[..then_branch.len() - 1], body) {
                        out.push(SeqCand {
                            rule: "loop-peeling",
                            span: stmt.span,
                            note: "rolled one unfolded iteration back into the loop (fixed-point law, right-to-left)".to_owned(),
                            stmts: splice_at(
                                stmts,
                                i,
                                vec![stmt_at(
                                    stmt.span,
                                    StmtKind::While {
                                        qubit: *qubit,
                                        body: body.clone(),
                                    },
                                )],
                            ),
                            advisory: false,
                            grows: false,
                        });
                    }
                }
            }
        }
        StmtKind::While { qubit, body } => {
            // dead-loop (certifiable): an aborting body means no
            // iteration ever completes — `(m1·0)*·m0 = m0`.
            if rules.allows("dead-loop") && contains_abort(body) {
                out.push(SeqCand {
                    rule: "dead-loop",
                    span: stmt.span,
                    note: "aborting loop body: the loop reduces to its exit measurement (0* = 1)"
                        .to_owned(),
                    stmts: splice_at(
                        stmts,
                        i,
                        vec![stmt_at(
                            stmt.span,
                            StmtKind::If {
                                qubit: *qubit,
                                then_branch: vec![stmt_at(stmt.span, StmtKind::Abort)],
                                else_branch: Vec::new(),
                            },
                        )],
                    ),
                    advisory: false,
                    grows: false,
                });
            }
            // loop-peeling left-to-right (certifiable but growing):
            // only armed when the rule is explicitly requested.
            if rules.allows("loop-peeling") && rules.peel_forward() {
                let mut unfolded = body.clone();
                unfolded.push(stmt_at(
                    stmt.span,
                    StmtKind::While {
                        qubit: *qubit,
                        body: body.clone(),
                    },
                ));
                out.push(SeqCand {
                    rule: "loop-peeling",
                    span: stmt.span,
                    note: "peeled one iteration off the loop (fixed-point law, left-to-right)"
                        .to_owned(),
                    stmts: splice_at(
                        stmts,
                        i,
                        vec![stmt_at(
                            stmt.span,
                            StmtKind::If {
                                qubit: *qubit,
                                then_branch: unfolded,
                                else_branch: Vec::new(),
                            },
                        )],
                    ),
                    advisory: false,
                    grows: true,
                });
            }
        }
        _ => {}
    }
}

/// Recurses into block statements, wrapping inner candidates back into
/// the full sequence.
fn recurse(stmts: &[Stmt], i: usize, rules: &RuleSet, out: &mut Vec<SeqCand>) {
    let stmt = &stmts[i];
    match &stmt.kind {
        StmtKind::If {
            qubit,
            then_branch,
            else_branch,
        } => {
            let mut inner = Vec::new();
            collect_seq(then_branch, rules, &mut inner);
            for c in inner {
                let kind = StmtKind::If {
                    qubit: *qubit,
                    then_branch: c.stmts,
                    else_branch: else_branch.clone(),
                };
                out.push(SeqCand {
                    stmts: splice_at(stmts, i, vec![stmt_at(stmt.span, kind)]),
                    ..c
                });
            }
            let mut inner = Vec::new();
            collect_seq(else_branch, rules, &mut inner);
            for c in inner {
                let kind = StmtKind::If {
                    qubit: *qubit,
                    then_branch: then_branch.clone(),
                    else_branch: c.stmts,
                };
                out.push(SeqCand {
                    stmts: splice_at(stmts, i, vec![stmt_at(stmt.span, kind)]),
                    ..c
                });
            }
        }
        StmtKind::While { qubit, body } => {
            let mut inner = Vec::new();
            collect_seq(body, rules, &mut inner);
            for c in inner {
                let kind = StmtKind::While {
                    qubit: *qubit,
                    body: c.stmts,
                };
                out.push(SeqCand {
                    stmts: splice_at(stmts, i, vec![stmt_at(stmt.span, kind)]),
                    ..c
                });
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SurfaceProgram {
        SurfaceProgram::parse(src).expect("test program parses")
    }

    fn all_rules() -> RuleSet {
        RuleSet::from_names(&[]).unwrap()
    }

    #[test]
    fn rendered_programs_reparse_structurally_identical() {
        for src in [
            "qubits 1; skip",
            "qubits 2; h q0; cnot q0 q1",
            "qubits 2; init q1; if q0 { x q1 } else { }; while q1 { h q0 }",
            "qubits 3; if q2 { if q1 { abort } else { skip } } else { while q0 { s q2 } }",
        ] {
            let prog = parse(src);
            let rendered = render_program(prog.qubits(), prog.ast());
            let back = parse(&rendered);
            assert_eq!(back.qubits(), prog.qubits(), "{src}");
            assert!(seq_eq(back.ast(), prog.ast()), "{src} vs {rendered}");
            // Rendering is a normal form: re-rendering is a fixpoint.
            assert_eq!(render_program(back.qubits(), back.ast()), rendered);
        }
    }

    #[test]
    fn rule_set_validates_names_against_the_catalog() {
        assert!(RuleSet::from_names(&["dead-branch".to_owned()]).is_ok());
        let err = RuleSet::from_names(&["dead-brunch".to_owned()]).unwrap_err();
        assert!(err.contains("unknown optimizer rule"), "{err}");
        assert!(err.contains("abort-sink"), "{err}");
        // Defaults: everything on, peel direction off.
        let rs = all_rules();
        for meta in &RULE_METADATA {
            assert!(rs.allows(meta.name), "{}", meta.name);
        }
        assert!(!rs.peel_forward());
        // Restricting arms only the named rules.
        let rs = RuleSet::from_names(&["loop-peeling".to_owned()]).unwrap();
        assert!(rs.allows("loop-peeling") && rs.peel_forward());
        assert!(!rs.allows("abort-sink"));
    }

    #[test]
    fn abort_sink_drops_unreachable_tails_at_every_depth() {
        let prog = parse("qubits 1; abort; h q0; x q0");
        let cands = candidates(&prog, &all_rules());
        let sink = cands.iter().find(|c| c.rule == "abort-sink").unwrap();
        assert_eq!(sink.rewritten, "qubits 1; abort");
        assert!(!sink.advisory);
        // Nested in a branch.
        let prog = parse("qubits 2; if q0 { abort; h q1 } else { x q1 }");
        let cands = candidates(&prog, &all_rules());
        let sink = cands.iter().find(|c| c.rule == "abort-sink").unwrap();
        assert_eq!(sink.rewritten, "qubits 2; if q0 { abort } else { x q1 }");
    }

    #[test]
    fn dead_branch_and_dead_loop_collapse_aborting_regions() {
        let prog = parse("qubits 2; if q0 { x q1; abort } else { h q1 }");
        let cands = candidates(&prog, &all_rules());
        let dead = cands.iter().find(|c| c.rule == "dead-branch").unwrap();
        assert_eq!(dead.rewritten, "qubits 2; if q0 { abort } else { h q1 }");
        let prog = parse("qubits 1; while q0 { abort }");
        let cands = candidates(&prog, &all_rules());
        let dead = cands.iter().find(|c| c.rule == "dead-loop").unwrap();
        assert_eq!(dead.rewritten, "qubits 1; if q0 { abort } else { skip }");
    }

    #[test]
    fn loop_rolling_matches_the_exact_unfolding_only() {
        let prog = parse("qubits 1; if q0 { x q0; while q0 { x q0 } } else { skip }");
        let cands = candidates(&prog, &all_rules());
        let roll = cands.iter().find(|c| c.rule == "loop-peeling").unwrap();
        assert_eq!(roll.rewritten, "qubits 1; while q0 { x q0 }");
        assert!(!roll.advisory);
        // Guard mismatch: no roll.
        let prog = parse("qubits 2; if q0 { x q0; while q1 { x q0 } } else { skip }");
        assert!(candidates(&prog, &all_rules())
            .iter()
            .all(|c| c.rule != "loop-peeling"));
        // Body mismatch: no roll.
        let prog = parse("qubits 1; if q0 { z q0; while q0 { x q0 } } else { skip }");
        assert!(candidates(&prog, &all_rules())
            .iter()
            .all(|c| c.rule != "loop-peeling"));
    }

    #[test]
    fn peel_direction_is_opt_in_and_inverts_rolling() {
        let prog = parse("qubits 1; while q0 { x q0 }");
        // Default set: the growing direction stays dark.
        assert!(candidates(&prog, &all_rules()).is_empty());
        let rs = RuleSet::from_names(&["loop-peeling".to_owned()]).unwrap();
        let cands = candidates(&prog, &rs);
        let peel = cands.iter().find(|c| c.rule == "loop-peeling").unwrap();
        assert_eq!(
            peel.rewritten,
            "qubits 1; if q0 { x q0; while q0 { x q0 } } else { skip }"
        );
        // Rolling the peeled form yields the original source again —
        // the deliberately cycling pair of the termination regression.
        let peeled = parse(&peel.rewritten);
        let back = candidates(&peeled, &rs);
        let roll = back
            .iter()
            .find(|c| c.rule == "loop-peeling" && c.rewritten == "qubits 1; while q0 { x q0 }")
            .unwrap();
        assert!(!roll.advisory);
    }

    #[test]
    fn hypothesis_bearing_rules_propose_advisory_candidates() {
        let prog = parse("qubits 2; h q0; h q0; init q1; init q1");
        let cands = candidates(&prog, &all_rules());
        let fusion = cands.iter().find(|c| c.rule == "gate-fusion").unwrap();
        assert!(fusion.advisory);
        assert_eq!(fusion.rewritten, "qubits 2; init q1; init q1");
        let reset = cands.iter().find(|c| c.rule == "double-reset").unwrap();
        assert!(reset.advisory);
        assert_eq!(reset.rewritten, "qubits 2; h q0; h q0; init q1");
        // Advisory candidates sort after certifiable ones.
        let prog = parse("qubits 2; h q0; h q0; abort; x q1");
        let cands = candidates(&prog, &all_rules());
        assert_eq!(cands[0].rule, "abort-sink");
        assert!(cands.iter().any(|c| c.rule == "gate-fusion"));
    }

    #[test]
    fn uncompute_and_double_measure_and_branch_fusion_propose() {
        let prog = parse("qubits 2; h q0; x q1; x q1; h q0");
        let cands = candidates(&prog, &all_rules());
        let un = cands.iter().find(|c| c.rule == "uncompute").unwrap();
        assert!(un.advisory);
        assert_eq!(un.rewritten, "qubits 2; skip");
        let prog = parse("qubits 2; if q0 { if q0 { x q1 } else { z q1 } } else { h q1 }");
        let cands = candidates(&prog, &all_rules());
        let dm = cands.iter().find(|c| c.rule == "double-measure").unwrap();
        assert!(dm.advisory);
        assert_eq!(dm.rewritten, "qubits 2; if q0 { x q1 } else { h q1 }");
        let prog = parse("qubits 2; if q0 { h q1 } else { h q1 }");
        let cands = candidates(&prog, &all_rules());
        let bf = cands.iter().find(|c| c.rule == "branch-fusion").unwrap();
        assert!(bf.advisory);
        assert_eq!(bf.rewritten, "qubits 2; h q1");
    }

    #[test]
    fn every_candidate_of_a_generated_program_reparses() {
        let prog = parse(
            "qubits 3; if q0 { h q1; abort; x q1 } else { skip }; h q2; h q2; \
             while q1 { init q0; init q0 }",
        );
        let rs = RuleSet::from_names(&["loop-peeling".to_owned()]).unwrap();
        for set in [all_rules(), rs] {
            for cand in candidates(&prog, &set) {
                let back = SurfaceProgram::parse(&cand.rewritten);
                assert!(back.is_ok(), "{} => {:?}", cand.rewritten, back.err());
            }
        }
    }

    #[test]
    fn steps_carry_their_catalog_citation() {
        let step = OptimizeStep {
            rule: "abort-sink",
            span: (0, 1),
            note: "x".to_owned(),
        };
        assert!(step.citation().contains("Def. 4.4"));
        assert_eq!(rule_index("dead-branch"), Some(0));
        assert_eq!(rule_index("uncompute"), Some(8));
        assert_eq!(rule_index("nope"), None);
    }
}
