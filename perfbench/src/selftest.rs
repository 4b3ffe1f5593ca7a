//! Self-tests of the benchmark's inputs (`cargo test` in `perfbench/`):
//! determinism, decodability, distinctness, the hot-set share, and the
//! by-construction answers — checked against shape recognisers, against
//! the density-matrix semantics, and against the golden corpora's
//! `expect` keys on the shapes they share.

use crate::gen::{Expect, Gen, Item, Mix, Rng, Stmt, FIG2};
use crate::inproc::{HOT_SET, HOT_SHARE};
use nka_core::api::json::Json;
use nka_core::api::wire;
use nka_qprog::surface::{Stmt as SurfaceStmt, StmtKind};
use nka_qprog::SurfaceProgram;
use nka_syntax::{Expr, ExprNode};
use std::collections::{HashMap, HashSet};

const MIXES: [Mix; 4] = [Mix::Looped, Mix::Hot, Mix::Fresh, Mix::Serve];

fn lines(mix: Mix, seed: u64, stream: u64, n: usize) -> Vec<Item> {
    let mut gen = Gen::new(mix, seed, stream);
    (0..n).map(|_| gen.next_item()).collect()
}

/// Converts a parsed surface AST into the generator's representation.
fn from_surface(stmts: &[SurfaceStmt]) -> Vec<Stmt> {
    stmts
        .iter()
        .map(|s| match &s.kind {
            StmtKind::Skip => Stmt::Skip,
            StmtKind::Abort => Stmt::Abort,
            StmtKind::Init(q) => Stmt::Init(*q),
            StmtKind::Gate { name, targets } => Stmt::Gate(name.clone(), targets.clone()),
            StmtKind::If {
                qubit,
                then_branch,
                else_branch,
            } => Stmt::If(*qubit, from_surface(then_branch), from_surface(else_branch)),
            StmtKind::While { qubit, body } => Stmt::While(*qubit, from_surface(body)),
        })
        .collect()
}

/// Skip-free, unrolling-folded form: `skip`s dropped everywhere and
/// `if q { B; while q {B} } else {}` folded back to `while q {B}`.
fn normalize(body: &[Stmt]) -> Vec<Stmt> {
    let mut out = Vec::new();
    for s in body {
        match s {
            Stmt::Skip => {}
            Stmt::If(q, a, b) => {
                let (a, b) = (normalize(a), normalize(b));
                if b.is_empty() {
                    if let Some((Stmt::While(q2, inner), prefix)) = a.split_last() {
                        if q2 == q && prefix == inner.as_slice() {
                            out.push(Stmt::While(*q, inner.clone()));
                            continue;
                        }
                    }
                }
                out.push(Stmt::If(*q, a, b));
            }
            Stmt::While(q, b) => out.push(Stmt::While(*q, normalize(b))),
            other => out.push(other.clone()),
        }
    }
    out
}

fn abort_free(body: &[Stmt]) -> bool {
    body.iter().all(|s| match s {
        Stmt::Abort => false,
        Stmt::If(_, a, b) => abort_free(a) && abort_free(b),
        Stmt::While(_, b) => abort_free(b),
        _ => true,
    })
}

/// The `prog_eq` verdict a pair must get, if it has one of the
/// generator's shapes; `None` for any other pair.
fn classify_prog_pair(p: &[Stmt], q: &[Stmt]) -> Option<bool> {
    let (p, q) = (normalize(p), normalize(q));
    if p == q {
        return Some(true);
    }
    let top_abort = |b: &[Stmt]| b.iter().position(|s| *s == Stmt::Abort);
    if let (Some(i), Some(j)) = (top_abort(&p), top_abort(&q)) {
        if p[..i] == q[..j] {
            return Some(true);
        }
    }
    if !(abort_free(&p) && abort_free(&q)) {
        return None;
    }
    let is_gate = |s: &Stmt| matches!(s, Stmt::Gate(..));
    let (short, long) = if p.len() < q.len() {
        (&p, &q)
    } else {
        (&q, &p)
    };
    if long.len() == short.len() + 1
        && long[..short.len()] == short[..]
        && is_gate(&long[short.len()])
    {
        return Some(false);
    }
    if let (Some((lp, rp)), Some((lq, rq))) = (p.split_last(), q.split_last()) {
        if rp == rq && is_gate(lp) && is_gate(lq) && lp != lq {
            return Some(false);
        }
    }
    None
}

/// Binds template metavariables (`E`, `F`) while matching `pat` against `e`.
fn match_template(pat: Expr, e: Expr, env: &mut HashMap<String, Expr>) -> bool {
    match (pat.node(), e.node()) {
        (ExprNode::Atom(s), _) if s.name() == "E" || s.name() == "F" => match env.get(&s.name()) {
            Some(bound) => *bound == e,
            None => {
                env.insert(s.name(), e);
                true
            }
        },
        (ExprNode::Zero, ExprNode::Zero) | (ExprNode::One, ExprNode::One) => true,
        (ExprNode::Atom(a), ExprNode::Atom(b)) => a == b,
        (ExprNode::Add(a, b), ExprNode::Add(c, d)) | (ExprNode::Mul(a, b), ExprNode::Mul(c, d)) => {
            match_template(a, c, env) && match_template(b, d, env)
        }
        (ExprNode::Star(a), ExprNode::Star(b)) => match_template(a, b, env),
        _ => false,
    }
}

/// Whether `e` is built from atoms with `+` and `·` only (so its series
/// is nonzero and has no ε term).
fn proper_star_free(e: Expr) -> bool {
    match e.node() {
        ExprNode::Atom(_) => true,
        ExprNode::Add(a, b) | ExprNode::Mul(a, b) => proper_star_free(a) && proper_star_free(b),
        _ => false,
    }
}

/// `(nka verdict, ka verdict)` of an expression pair with one of the
/// generator's shapes, either orientation; `None` otherwise.
fn classify_expr_pair(lhs: Expr, rhs: Expr) -> Option<(bool, bool)> {
    for (l, r) in [(lhs, rhs), (rhs, lhs)] {
        for (tl, tr) in FIG2 {
            let (tl, tr): (Expr, Expr) = (tl.parse().ok()?, tr.parse().ok()?);
            let mut env = HashMap::new();
            if match_template(tl, l, &mut env) && match_template(tr, r, &mut env) {
                return Some((true, true));
            }
        }
        if let ExprNode::Add(a, b) = l.node() {
            if a == b && b == r && proper_star_free(r) {
                return Some((false, true));
            }
            if let ExprNode::Add(c, d) = r.node() {
                if a == d && b == c {
                    return Some((true, true));
                }
            }
        }
        if let (ExprNode::Mul(a, b), ExprNode::Star(c)) = (l.node(), r.node()) {
            if a == b && a.node() == ExprNode::Star(c) && proper_star_free(c) {
                return Some((false, true));
            }
        }
        match (l.node(), r.node()) {
            // e (f g) = (e f) g
            (ExprNode::Mul(e, fg), ExprNode::Mul(ef, g)) => {
                if let (ExprNode::Mul(f, g2), ExprNode::Mul(e2, f2)) = (fg.node(), ef.node()) {
                    if e == e2 && f == f2 && g == g2 {
                        return Some((true, true));
                    }
                }
                // a e ≠ b e for distinct atoms a, b and nonzero, ε-free e
                let atoms = matches!(
                    (e.node(), ef.node()),
                    (ExprNode::Atom(_), ExprNode::Atom(_))
                );
                if atoms && e != ef && fg == g && proper_star_free(g) {
                    return Some((false, false));
                }
            }
            // e (f + g) = e f + e g  and  (f + g) e = f e + g e
            (ExprNode::Mul(x, y), ExprNode::Add(s1, s2)) => {
                if let (ExprNode::Add(f, g), ExprNode::Mul(a1, b1), ExprNode::Mul(a2, b2)) =
                    (y.node(), s1.node(), s2.node())
                {
                    if a1 == x && a2 == x && b1 == f && b2 == g {
                        return Some((true, true));
                    }
                }
                if let (ExprNode::Add(f, g), ExprNode::Mul(a1, b1), ExprNode::Mul(a2, b2)) =
                    (x.node(), s1.node(), s2.node())
                {
                    if b1 == y && b2 == y && a1 == f && a2 == g {
                        return Some((true, true));
                    }
                }
            }
            _ => {}
        }
    }
    None
}

/// The verdict of a `hoare` triple whose pre and post are basis states
/// (`ket(bits)` or a full product of `qK=b`) around a program of `x`,
/// `cnot`, `swap`, phase gates and `skip`; `None` for any other triple.
fn classify_hoare(pre: &str, prog: &[Stmt], post: &str, qubits: usize) -> Option<bool> {
    let mut bits = basis_bits(pre, qubits)?;
    let target = basis_bits(post, qubits)?;
    let mut i = 0;
    while i < prog.len() {
        match &prog[i] {
            Stmt::Skip => {}
            Stmt::Gate(name, t) => match name.as_str() {
                "x" => bits[t[0]] ^= 1,
                "z" | "s" | "t" => {}
                "cnot" => bits[t[1]] ^= bits[t[0]],
                "swap" => bits.swap(t[0], t[1]),
                // `h q; h q` is the identity.
                "h" if prog.get(i + 1) == Some(&prog[i]) => i += 1,
                _ => return None,
            },
            _ => return None,
        }
        i += 1;
    }
    Some(bits == target)
}

fn basis_bits(effect: &str, qubits: usize) -> Option<Vec<u8>> {
    let effect = effect.trim();
    if let Some(inner) = effect
        .strip_prefix("ket(")
        .and_then(|s| s.strip_suffix(')'))
    {
        return (inner.len() == qubits).then(|| inner.bytes().map(|b| b - b'0').collect());
    }
    let mut bits = vec![None; qubits];
    for factor in effect.split_whitespace() {
        let (q, b) = factor.strip_prefix('q')?.split_once('=')?;
        let (q, b): (usize, u8) = (q.parse().ok()?, b.parse().ok()?);
        *bits.get_mut(q)? = Some(b);
    }
    bits.into_iter().collect()
}

fn field<'a>(json: &'a Json, key: &str) -> &'a str {
    json.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no {key}"))
}

fn parse_prog(src: &str) -> (usize, Vec<Stmt>) {
    let p = SurfaceProgram::parse(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    (p.qubits(), from_surface(p.ast()))
}

/// Whether a block's encoding is `0` by the shape rule: it holds an
/// `abort`, or an `if` both of whose arms are `0`.
fn zero(block: &[Stmt]) -> bool {
    block.iter().any(|s| match s {
        Stmt::Abort => true,
        Stmt::If(_, a, b) => zero(a) && zero(b),
        _ => false,
    })
}

/// Every `if` arm and `while` body, pre-order.
fn arms(body: &[Stmt], out: &mut Vec<Vec<Stmt>>) {
    for s in body {
        match s {
            Stmt::If(_, a, b) => {
                for arm in [a, b] {
                    out.push(arm.clone());
                    arms(arm, out);
                }
            }
            Stmt::While(_, b) => {
                out.push(b.clone());
                arms(b, out);
            }
            _ => {}
        }
    }
}

/// The expected `dead_branch` finding count: the arms whose encoding is
/// `0`, provided no `if` has two such arms (the generator never builds
/// one; the analyzer would then also flag the enclosing arm).
fn classify_dead_branches(body: &[Stmt]) -> Option<usize> {
    let mut all = Vec::new();
    arms(body, &mut all);
    let both_dead = all.iter().any(|arm| {
        arm.iter()
            .any(|s| matches!(s, Stmt::If(_, a, b) if zero(a) && zero(b)))
    }) || body
        .iter()
        .any(|s| matches!(s, Stmt::If(_, a, b) if zero(a) && zero(b)));
    (!both_dead).then(|| all.iter().filter(|arm| zero(arm)).count())
}

fn expectation_of(line: &str) -> Option<Expect> {
    let req = Json::parse(line).expect("request is JSON");
    match field(&req, "op") {
        "prog_eq" => {
            let ((_, p), (_, q)) = (parse_prog(field(&req, "p")), parse_prog(field(&req, "q")));
            classify_prog_pair(&p, &q).map(Expect::Verdict)
        }
        op @ ("nka_eq" | "ka_eq") => {
            let l: Expr = field(&req, "lhs").parse().expect("lhs parses");
            let r: Expr = field(&req, "rhs").parse().expect("rhs parses");
            classify_expr_pair(l, r)
                .map(|(nka, ka)| Expect::Verdict(if op == "nka_eq" { nka } else { ka }))
        }
        "hoare" => {
            let (qubits, prog) = parse_prog(field(&req, "prog"));
            classify_hoare(field(&req, "pre"), &prog, field(&req, "post"), qubits)
                .map(Expect::Verdict)
        }
        "analyze" => {
            let (_, prog) = parse_prog(field(&req, "prog"));
            classify_dead_branches(&prog).map(Expect::DeadBranches)
        }
        "optimize" => Some(Expect::Optimized(field(&req, "prog").to_owned())),
        op => panic!("unexpected op {op}"),
    }
}

#[test]
fn same_seed_gives_byte_identical_lines() {
    for mix in MIXES {
        let (a, b) = (lines(mix, 42, 3, 400), lines(mix, 42, 3, 400));
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.line == y.line && x.expect == y.expect));
        let c = lines(mix, 43, 3, 400);
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.line != y.line),
            "{mix:?}: seed ignored"
        );
    }
}

#[test]
fn every_generated_line_decodes() {
    for mix in MIXES {
        for item in lines(mix, 7, 0, 1500) {
            match wire::decode_request(&item.line) {
                Ok(Some(_)) => {}
                other => panic!("{mix:?}: {} → {other:?}", item.line),
            }
        }
    }
}

#[test]
fn cold_and_fresh_streams_never_repeat_a_line() {
    // `loops_cold` answers its pool in order; `serve_fresh` splits one
    // stream between its connections by position.
    for mix in [Mix::Looped, Mix::Serve, Mix::Fresh] {
        let all = lines(mix, 11, 0, 6000);
        let distinct: HashSet<&str> = all.iter().map(|i| i.line.as_str()).collect();
        assert_eq!(distinct.len(), all.len(), "{mix:?} repeats a line");
    }
}

#[test]
fn loopfree_hot_set_share_is_as_specified() {
    let hot = lines(Mix::Hot, 5, 12, HOT_SET);
    let hot_lines: HashSet<&str> = hot.iter().map(|i| i.line.as_str()).collect();
    assert_eq!(hot_lines.len(), HOT_SET);
    let mut fresh = Gen::new(Mix::Fresh, 5, 1);
    for item in &hot {
        fresh.exclude(&item.line);
    }
    let mut pick = Rng::stream(5, 2);
    let draws = 100_000;
    let mut hits = 0;
    for _ in 0..draws {
        if pick.percent(HOT_SHARE) {
            hits += 1;
        } else {
            assert!(!hot_lines.contains(fresh.next_item().line.as_str()));
        }
    }
    let share = f64::from(hits) / f64::from(draws) * 100.0;
    assert!((share - HOT_SHARE as f64).abs() < 1.0, "hot share {share}%");
}

#[test]
fn generated_answers_match_the_shape_recognisers() {
    for mix in MIXES {
        for item in lines(mix, 3, 0, 1200) {
            assert_eq!(
                expectation_of(&item.line).as_ref(),
                Some(&item.expect),
                "{mix:?}: {}",
                item.line
            );
        }
    }
}

#[test]
fn dead_arms_are_exactly_the_semantically_dead_ones() {
    // Independent of the engine: an arm is dead iff its density-matrix
    // denotation is zero.
    for mix in [Mix::Looped, Mix::Hot] {
        for item in lines(mix, 9, 0, 600) {
            let Expect::DeadBranches(n) = item.expect else {
                continue;
            };
            let req = Json::parse(&item.line).unwrap();
            let (qubits, prog) = parse_prog(field(&req, "prog"));
            let mut all = Vec::new();
            arms(&prog, &mut all);
            let mut dead = 0;
            for arm in all {
                let src = crate::gen::render(qubits, &arm);
                let d = SurfaceProgram::parse(&src).unwrap().program().denotation();
                if d.approx_eq(&nka_qprog::Denotation::zero(1 << qubits), 1e-9) {
                    dead += 1;
                }
            }
            assert_eq!(dead, n, "{}", item.line);
        }
    }
}

#[test]
fn corpus_expectations_agree_on_shared_shapes() {
    let mut shared = 0;
    let corpora = [
        include_str!("../../tests/data/qprog_25.jsonl"),
        include_str!("../../tests/data/analyze_20.jsonl"),
    ];
    for line in corpora.iter().flat_map(|c| c.lines()) {
        if !line.starts_with('{') {
            continue;
        }
        let req = Json::parse(line).unwrap();
        let Some(mine) = expectation_of(line) else {
            continue;
        };
        let theirs = match mine {
            Expect::Verdict(_) => Expect::Verdict(field(&req, "expect") == "holds"),
            Expect::DeadBranches(_) => {
                let passes = req.get("expect_passes").and_then(Json::as_array).unwrap();
                let dead = passes
                    .iter()
                    .filter(|p| p.as_str() == Some("dead_branch"))
                    .count();
                Expect::DeadBranches(dead)
            }
            Expect::Optimized(_) => continue,
        };
        assert_eq!(mine, theirs, "{line}");
        shared += 1;
    }
    assert!(
        shared >= 20,
        "only {shared} corpus lines share a generator shape"
    );
}

#[test]
fn fig2_templates_are_recognised_on_the_batch_corpus() {
    // `batch_50` carries no `expect` keys; its Fig. 2 lines are theorems
    // and its `p + p = p` lines refute in NKA but hold in KA.
    let corpus = include_str!("../../tests/data/batch_50.jsonl");
    let mut fig2 = 0;
    for line in corpus.lines().filter(|l| l.starts_with('{')) {
        let req = Json::parse(line).unwrap();
        if !matches!(field(&req, "op"), "nka_eq" | "ka_eq") {
            continue;
        }
        let l: Expr = field(&req, "lhs").parse().unwrap();
        let r: Expr = field(&req, "rhs").parse().unwrap();
        let instance = |t: &str| t.replace('E', "p").replace('F', "q");
        let (lhs, rhs) = (field(&req, "lhs"), field(&req, "rhs"));
        if FIG2
            .iter()
            .any(|(tl, tr)| instance(tl) == lhs && instance(tr) == rhs)
        {
            assert_eq!(classify_expr_pair(l, r), Some((true, true)), "{line}");
            fig2 += 1;
        }
    }
    assert!(fig2 >= 7);
}
