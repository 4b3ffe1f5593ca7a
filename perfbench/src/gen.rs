//! Seeded request generators whose answers are known by construction.
//!
//! Every generated request line carries the answer it must receive. The
//! answer comes from how the line was built — a rewrite that provably
//! preserves or breaks the NKA semantics — and never from the engine
//! under test:
//!
//! * equal `prog_eq` pairs: `skip` insertion (`Enc(skip) = 1`), loop
//!   unrolling (`while q {P}` ≡ `if q {P; while q {P}} else {}`, the
//!   fixed-point law of Fig. 2), and abort-sink (`A; abort; C` ≡
//!   `A; abort; C'`, since `0` annihilates);
//! * refuted `prog_eq` pairs: appending a gate to, or replacing the last
//!   gate of, an abort-free program (its encoding is a nonzero series, so
//!   the shortest word, resp. the last letter of every word, differs);
//! * expression pairs: semiring laws and substitution instances of the
//!   Fig. 2 theorems (hold in NKA and KA), and KA-only laws on nonzero,
//!   ε-free terms (`e + e = e`, `e* e* = e*`: refuted in NKA, hold in KA);
//! * `hoare` triples over permutation/phase programs from a basis state:
//!   the classical image of the state is the only basis postcondition
//!   that holds;
//! * `analyze` (dead-branch pass) on programs with a chosen set of arms
//!   poisoned by a top-level `abort`: exactly those arms are dead;
//! * `optimize`: the output's density-matrix denotation must equal the
//!   input's ([`crate::check`]).
//!
//! The self-tests (`selftest.rs`) recognise these shapes on *parsed*
//! requests and check every generated line, and the golden corpora's
//! `expect` keys, against them.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream ^ 0x5DEE_CE66_D1CE_4E5B);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `percent / 100`.
    pub fn percent(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }
}

const ONE_QUBIT_GATES: [&str; 6] = ["h", "x", "y", "z", "s", "t"];
const TWO_QUBIT_GATES: [&str; 3] = ["cnot", "cz", "swap"];

/// A program statement of the surface language, in the generator's own
/// representation (the self-tests also build it from parsed requests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    Gate(String, Vec<usize>),
    Skip,
    Abort,
    /// Never generated; parsed corpus programs use it.
    #[cfg_attr(not(test), allow(dead_code))]
    Init(usize),
    If(usize, Vec<Stmt>, Vec<Stmt>),
    While(usize, Vec<Stmt>),
}

/// Renders a program as surface source: `qubits N; s1; s2; …`.
pub fn render(qubits: usize, body: &[Stmt]) -> String {
    let mut out = format!("qubits {qubits}");
    for s in body {
        out.push_str("; ");
        render_stmt(s, &mut out);
    }
    out
}

fn render_block(body: &[Stmt], out: &mut String) {
    if body.is_empty() {
        out.push_str("{ }");
        return;
    }
    out.push_str("{ ");
    for (i, s) in body.iter().enumerate() {
        if i > 0 {
            out.push_str("; ");
        }
        render_stmt(s, out);
    }
    out.push_str(" }");
}

fn render_stmt(s: &Stmt, out: &mut String) {
    match s {
        Stmt::Gate(name, targets) => {
            out.push_str(name);
            for t in targets {
                out.push_str(&format!(" q{t}"));
            }
        }
        Stmt::Skip => out.push_str("skip"),
        Stmt::Abort => out.push_str("abort"),
        Stmt::Init(q) => out.push_str(&format!("init q{q}")),
        Stmt::If(q, then_b, else_b) => {
            out.push_str(&format!("if q{q} "));
            render_block(then_b, out);
            out.push_str(" else ");
            render_block(else_b, out);
        }
        Stmt::While(q, body) => {
            out.push_str(&format!("while q{q} "));
            render_block(body, out);
        }
    }
}

fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// The gates of one program, dealt without replacement from every
/// (gate, targets) combination on its qubits and reshuffled when spent.
/// Encoder symbols are opaque to the decision procedure, so programs of
/// one shape whose gates are all distinct have automata of the same size
/// whatever the seed; only the gate names change.
struct Gates {
    all: Vec<Stmt>,
    next: usize,
}

impl Gates {
    fn new(rng: &mut Rng, qubits: usize) -> Gates {
        let mut all = Vec::new();
        for q in 0..qubits {
            for name in ONE_QUBIT_GATES {
                all.push(Stmt::Gate(name.to_owned(), vec![q]));
            }
        }
        for a in 0..qubits {
            for b in (0..qubits).filter(|&b| b != a) {
                for name in TWO_QUBIT_GATES {
                    all.push(Stmt::Gate(name.to_owned(), vec![a, b]));
                }
            }
        }
        shuffle(rng, &mut all);
        Gates { all, next: 0 }
    }

    fn take(&mut self, rng: &mut Rng) -> Stmt {
        if self.next == self.all.len() {
            shuffle(rng, &mut self.all);
            self.next = 0;
        }
        self.next += 1;
        self.all[self.next - 1].clone()
    }

    fn take_n(&mut self, rng: &mut Rng, n: usize) -> Vec<Stmt> {
        (0..n).map(|_| self.take(rng)).collect()
    }
}

/// A loop-free program of `n` gates: `n / 5` `if` statements with one
/// gate per arm, the rest top-level gates; it always ends with a
/// top-level gate.
fn loop_free(rng: &mut Rng, gates: &mut Gates, qubits: usize, n: usize) -> Vec<Stmt> {
    let ifs = n / 5;
    let mut body = gates.take_n(rng, n - 2 * ifs);
    for _ in 0..ifs {
        let pos = rng.below(body.len());
        let (then_b, else_b) = (gates.take_n(rng, 1), gates.take_n(rng, 1));
        body.insert(pos, Stmt::If(rng.below(qubits), then_b, else_b));
    }
    body
}

/// A looped workload shape: qubits, loop nesting depth, and how many
/// loops sit side by side at each level (branch width).
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub qubits: usize,
    pub depth: usize,
    pub width: usize,
}

/// The `loops_cold` shape schedule: query `i` uses `SHAPES[i % 9]`, so
/// every run covers the same mix whatever its seed. Single loops are
/// the majority; nested and side-by-side loops cost 2–4× more each.
pub const SHAPES: [Shape; 9] = [
    Shape {
        qubits: 1,
        depth: 1,
        width: 1,
    },
    Shape {
        qubits: 2,
        depth: 1,
        width: 1,
    },
    Shape {
        qubits: 1,
        depth: 2,
        width: 1,
    },
    Shape {
        qubits: 3,
        depth: 1,
        width: 1,
    },
    Shape {
        qubits: 2,
        depth: 1,
        width: 1,
    },
    Shape {
        qubits: 1,
        depth: 1,
        width: 2,
    },
    Shape {
        qubits: 1,
        depth: 1,
        width: 1,
    },
    Shape {
        qubits: 2,
        depth: 2,
        width: 1,
    },
    Shape {
        qubits: 3,
        depth: 1,
        width: 1,
    },
];

/// A loop of nesting `depth`; the `k`-th loop of a program measures
/// qubit `k mod qubits`.
fn loop_stmt(rng: &mut Rng, gates: &mut Gates, shape: Shape, depth: usize, k: &mut usize) -> Stmt {
    // Wider or deeper shapes get one-gate bodies, keeping the dense
    // generic-path product (and so per-query memory) bounded.
    let n = if shape.depth * shape.width > 1 { 1 } else { 2 };
    let qubit = *k % shape.qubits;
    *k += 1;
    let mut body = gates.take_n(rng, n);
    if depth > 1 {
        body.push(loop_stmt(rng, gates, shape, depth - 1, k));
    }
    Stmt::While(qubit, body)
}

/// A looped program: a gate, `width` sibling loops of nesting `depth`,
/// and a final top-level gate.
fn looped(rng: &mut Rng, gates: &mut Gates, shape: Shape) -> Vec<Stmt> {
    let mut body = gates.take_n(rng, 1);
    let mut k = 0;
    for _ in 0..shape.width {
        body.push(loop_stmt(rng, gates, shape, shape.depth, &mut k));
    }
    body.push(gates.take(rng));
    body
}

/// Number of blocks (top level plus every nested arm/body).
fn block_count(body: &[Stmt]) -> usize {
    1 + body
        .iter()
        .map(|s| match s {
            Stmt::If(_, a, b) => block_count(a) + block_count(b),
            Stmt::While(_, b) => block_count(b),
            _ => 0,
        })
        .sum::<usize>()
}

/// Applies `f` to the `target`-th block in pre-order.
fn with_block(body: &mut Vec<Stmt>, target: &mut usize, f: &mut dyn FnMut(&mut Vec<Stmt>)) -> bool {
    if *target == 0 {
        f(body);
        return true;
    }
    *target -= 1;
    for s in body.iter_mut() {
        let done = match s {
            Stmt::If(_, a, b) => with_block(a, target, f) || with_block(b, target, f),
            Stmt::While(_, b) => with_block(b, target, f),
            _ => false,
        };
        if done {
            return true;
        }
    }
    false
}

fn insert_skip(rng: &mut Rng, body: &mut Vec<Stmt>) {
    let mut target = rng.below(block_count(body));
    let pos_seed = rng.next_u64();
    with_block(body, &mut target, &mut |block| {
        let pos = (pos_seed % (block.len() as u64 + 1)) as usize;
        block.insert(pos, Stmt::Skip);
    });
}

/// Number of innermost loops (whose body holds no loop).
fn while_count(body: &[Stmt]) -> usize {
    body.iter()
        .map(|s| match s {
            Stmt::If(_, a, b) => while_count(a) + while_count(b),
            Stmt::While(_, b) => while_count(b).max(1),
            _ => 0,
        })
        .sum()
}

/// Replaces the `target`-th innermost `while` (pre-order) by its one-step
/// unrolling. (Unrolling an outer loop copies a whole nested loop and
/// makes the pair far costlier than the rest of the stream.)
fn unroll_nth(body: &mut [Stmt], target: &mut usize) -> bool {
    for s in body.iter_mut() {
        let done = match s {
            Stmt::While(q, b) if while_count(b) == 0 => {
                if *target == 0 {
                    let mut then_b = b.clone();
                    then_b.push(Stmt::While(*q, b.clone()));
                    *s = Stmt::If(*q, then_b, Vec::new());
                    true
                } else {
                    *target -= 1;
                    false
                }
            }
            Stmt::While(_, b) => unroll_nth(b, target),
            Stmt::If(_, a, b) => unroll_nth(a, target) || unroll_nth(b, target),
            _ => false,
        };
        if done {
            return true;
        }
    }
    false
}

fn unroll(rng: &mut Rng, body: &mut [Stmt]) {
    let n = while_count(body);
    if n > 0 {
        let mut target = rng.below(n);
        unroll_nth(body, &mut target);
    }
}

/// What the response to a generated line must say.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// `holds` (true) or `refuted` (false).
    Verdict(bool),
    /// `optimized`, with a denotation equal to the input program's.
    Optimized(String),
    /// `analysis` with exactly this many `dead_branch` findings.
    DeadBranches(usize),
}

/// One generated request line and its by-construction answer.
#[derive(Debug, Clone)]
pub struct Item {
    pub line: String,
    pub expect: Expect,
}

fn prog_eq_line(p: &str, q: &str) -> String {
    format!(r#"{{"op":"prog_eq","p":"{p}","q":"{q}"}}"#)
}

fn expr_line(op: &str, lhs: &str, rhs: &str) -> String {
    format!(r#"{{"op":"{op}","lhs":"{lhs}","rhs":"{rhs}"}}"#)
}

/// The `prog_eq` rewrite families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairKind {
    Skip,
    Unroll,
    UnrollSkip,
    AbortSink,
    Append,
    ReplaceLast,
}

impl PairKind {
    fn holds(self) -> bool {
        !matches!(self, PairKind::Append | PairKind::ReplaceLast)
    }
}

/// A `prog_eq` pair built from `base` (abort-free, ending in a gate);
/// added gates come from `gates`, the pool `base` was dealt from.
fn prog_pair(
    rng: &mut Rng,
    gates: &mut Gates,
    qubits: usize,
    base: Vec<Stmt>,
    kind: PairKind,
) -> Item {
    let mut p = base;
    let mut q = p.clone();
    match kind {
        PairKind::Skip => {
            for _ in 0..rng.range(1, 2) {
                insert_skip(rng, &mut q);
            }
        }
        PairKind::Unroll => unroll(rng, &mut q),
        PairKind::UnrollSkip => {
            unroll(rng, &mut q);
            insert_skip(rng, &mut q);
            insert_skip(rng, &mut p);
        }
        PairKind::AbortSink => {
            let cut = rng.range(1, p.len());
            p.truncate(cut);
            q.truncate(cut);
            p.push(Stmt::Abort);
            q.push(Stmt::Abort);
            p.extend(gates.take_n(rng, 2));
            q.extend(gates.take_n(rng, 1));
        }
        PairKind::Append => q.push(gates.take(rng)),
        PairKind::ReplaceLast => {
            let last = q.pop().expect("generated programs end with a gate");
            let mut other = gates.take(rng);
            while other == last {
                other = gates.take(rng);
            }
            q.push(other);
        }
    }
    let (ps, qs) = (render(qubits, &p), render(qubits, &q));
    let line = if rng.percent(50) {
        prog_eq_line(&ps, &qs)
    } else {
        prog_eq_line(&qs, &ps)
    };
    Item {
        line,
        expect: Expect::Verdict(kind.holds()),
    }
}

/// Poisons `k` distinct arms/bodies of `body` with a top-level `abort`,
/// never both arms of one `if` (so an arm is dead exactly when it holds
/// a top-level abort). Returns how many arms were poisoned.
fn poison(rng: &mut Rng, body: &mut [Stmt], k: usize) -> usize {
    let arms = block_count(body) - 1;
    if arms == 0 || k == 0 {
        return 0;
    }
    let mut picked: Vec<usize> = (0..arms).collect();
    for i in (1..picked.len()).rev() {
        picked.swap(i, rng.below(i + 1));
    }
    let mut done = 0;
    for &target in picked.iter().take(k) {
        if poison_arm(body, &mut (target + 1), rng) {
            done += 1;
        }
    }
    done
}

/// Inserts a top-level `abort` into the `target`-th nested block
/// (pre-order, counting from 1), unless its sibling arm already holds one.
fn poison_arm(body: &mut [Stmt], target: &mut usize, rng: &mut Rng) -> bool {
    fn aborting(b: &[Stmt]) -> bool {
        b.contains(&Stmt::Abort)
    }
    for s in body.iter_mut() {
        match s {
            Stmt::If(_, a, b) => {
                for side in 0..2 {
                    *target -= 1;
                    let (arm, sibling) = if side == 0 {
                        (&mut *a, &*b)
                    } else {
                        (&mut *b, &*a)
                    };
                    if *target == 0 {
                        if aborting(sibling) || aborting(arm) {
                            return false;
                        }
                        let pos = rng.below(arm.len() + 1);
                        arm.insert(pos, Stmt::Abort);
                        return true;
                    }
                    if poison_arm(arm, target, rng) {
                        return true;
                    }
                    if *target == 0 {
                        return false;
                    }
                }
            }
            Stmt::While(_, b) => {
                *target -= 1;
                if *target == 0 {
                    if aborting(b) {
                        return false;
                    }
                    let pos = rng.below(b.len() + 1);
                    b.insert(pos, Stmt::Abort);
                    return true;
                }
                if poison_arm(b, target, rng) {
                    return true;
                }
                if *target == 0 {
                    return false;
                }
            }
            _ => {}
        }
    }
    false
}

fn count_dead(body: &[Stmt]) -> usize {
    body.iter()
        .map(|s| match s {
            Stmt::If(_, a, b) => {
                usize::from(a.contains(&Stmt::Abort))
                    + usize::from(b.contains(&Stmt::Abort))
                    + count_dead(a)
                    + count_dead(b)
            }
            Stmt::While(_, b) => usize::from(b.contains(&Stmt::Abort)) + count_dead(b),
            _ => 0,
        })
        .sum()
}

fn analyze_item(rng: &mut Rng, qubits: usize, mut body: Vec<Stmt>) -> Item {
    let k = rng.range(0, 2);
    poison(rng, &mut body, k);
    let prog = render(qubits, &body);
    Item {
        line: format!(r#"{{"op":"analyze","prog":"{prog}","passes":["dead_branch"]}}"#),
        expect: Expect::DeadBranches(count_dead(&body)),
    }
}

fn optimize_item(rng: &mut Rng, qubits: usize, mut body: Vec<Stmt>) -> Item {
    if rng.percent(50) {
        poison(rng, &mut body, 1);
    } else if rng.percent(50) {
        let cut = rng.range(1, body.len());
        body.insert(cut, Stmt::Abort);
    }
    let prog = render(qubits, &body);
    Item {
        line: format!(r#"{{"op":"optimize","prog":"{prog}"}}"#),
        expect: Expect::Optimized(prog),
    }
}

/// A nonzero, ε-free, star-free term over `atoms` with `n` leaves.
fn sf_term(rng: &mut Rng, atoms: &[String], n: usize) -> String {
    if n <= 1 {
        return atoms[rng.below(atoms.len())].clone();
    }
    let l = rng.range(1, n - 1);
    let (a, b) = (sf_term(rng, atoms, l), sf_term(rng, atoms, n - l));
    if rng.percent(50) {
        format!("({a} + {b})")
    } else {
        format!("({a} {b})")
    }
}

/// The expression law families: `(nka verdict, ka verdict)` by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Law {
    Comm,
    Assoc,
    DistL,
    DistR,
    Idem,
    Head,
    Fig2(usize),
    StarIdem,
}

/// The star-free law families of expression lines.
const LAWS: [Law; 6] = [
    Law::Comm,
    Law::Assoc,
    Law::DistL,
    Law::DistR,
    Law::Idem,
    Law::Head,
];

/// Substitution templates of the Fig. 2 theorems (`E`, `F` are the
/// metavariables) — the same shapes as the golden `batch_50` corpus.
pub const FIG2: [(&str, &str); 7] = [
    ("1 + E E*", "E*"),
    ("1 + E* E", "E*"),
    ("1 + E (F E)* F", "(E F)*"),
    ("(E F)* E", "E (F E)*"),
    ("(E + F)*", "(E* F)* E*"),
    ("(E + F)*", "E* (F E*)*"),
    ("(E E)* (1 + E)", "E*"),
];

fn instantiate(template: &str, e: &str, f: &str) -> String {
    template.replace('E', e).replace('F', f)
}

fn expr_item(rng: &mut Rng, atoms: &[String], law: Law, ka: bool, max_leaves: usize) -> Item {
    let term = |rng: &mut Rng| {
        let size = rng.range(1, max_leaves);
        sf_term(rng, atoms, size)
    };
    let (e, f, g) = (term(rng), term(rng), term(rng));
    let (lhs, rhs, nka_holds, ka_holds) = match law {
        Law::Comm => (format!("{e} + {f}"), format!("{f} + {e}"), true, true),
        Law::Assoc => (
            format!("{e} ({f} {g})"),
            format!("({e} {f}) {g}"),
            true,
            true,
        ),
        Law::DistL => (
            format!("{e} ({f} + {g})"),
            format!("{e} {f} + {e} {g}"),
            true,
            true,
        ),
        Law::DistR => (
            format!("({f} + {g}) {e}"),
            format!("{f} {e} + {g} {e}"),
            true,
            true,
        ),
        Law::Idem => (format!("{e} + {e}"), e.clone(), false, true),
        Law::Head => {
            let a = rng.below(atoms.len());
            let b = (a + 1 + rng.below(atoms.len() - 1)) % atoms.len();
            (
                format!("{} {e}", atoms[a]),
                format!("{} {e}", atoms[b]),
                false,
                false,
            )
        }
        Law::Fig2(i) => {
            let (l, r) = FIG2[i];
            (instantiate(l, &e, &f), instantiate(r, &e, &f), true, true)
        }
        Law::StarIdem => (format!("({e})* ({e})*"), format!("({e})*"), false, true),
    };
    let (op, holds) = if ka {
        ("ka_eq", ka_holds)
    } else {
        ("nka_eq", nka_holds)
    };
    let (l, r) = if rng.percent(50) {
        (lhs, rhs)
    } else {
        (rhs, lhs)
    };
    Item {
        line: expr_line(op, &l, &r),
        expect: Expect::Verdict(holds),
    }
}

/// A `hoare` triple: a permutation/phase program run from a basis state.
fn hoare_item(rng: &mut Rng) -> Item {
    let qubits = rng.range(1, 2);
    let mut body = Vec::new();
    let mut bits: Vec<u8> = (0..qubits).map(|_| rng.below(2) as u8).collect();
    let pre = effect(&bits);
    for _ in 0..rng.range(1, 5) {
        let k = rng.below(qubits);
        match rng.below(if qubits >= 2 { 6 } else { 4 }) {
            0 => {
                body.push(Stmt::Gate("x".into(), vec![k]));
                bits[k] ^= 1;
            }
            1 => body.push(Stmt::Gate(["z", "s", "t"][rng.below(3)].into(), vec![k])),
            2 => {
                body.push(Stmt::Gate("h".into(), vec![k]));
                body.push(Stmt::Gate("h".into(), vec![k]));
            }
            3 => body.push(Stmt::Skip),
            4 => {
                let j = (k + 1) % qubits;
                body.push(Stmt::Gate("cnot".into(), vec![k, j]));
                bits[j] ^= bits[k];
            }
            _ => {
                let j = (k + 1) % qubits;
                body.push(Stmt::Gate("swap".into(), vec![k, j]));
                bits.swap(j, k);
            }
        }
    }
    let holds = rng.percent(50);
    if !holds {
        let k = rng.below(qubits);
        bits[k] ^= 1;
    }
    let post = effect(&bits);
    let prog = render(qubits, &body);
    Item {
        line: format!(r#"{{"op":"hoare","pre":"{pre}","prog":"{prog}","post":"{post}"}}"#),
        expect: Expect::Verdict(holds),
    }
}

/// The basis projector `|bits⟩⟨bits|` as a product of one-qubit projectors.
fn effect(bits: &[u8]) -> String {
    bits.iter()
        .enumerate()
        .map(|(k, b)| format!("q{k}={b}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Which stream a [`Gen`] produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `loops_cold`: looped `prog_eq` pairs plus ~20% `optimize`/`analyze`.
    Looped,
    /// `loopfree_warm` hot set: of every 8 lines, 5 expression pairs (one
    /// a Fig. 2 instance), 2 loop-free `prog_eq`, 1 `hoare` or `analyze`.
    Hot,
    /// `loopfree_warm` fresh lines: the hot mix without starred terms.
    Fresh,
    /// `serve_fresh`: of every 8 lines, 3 small star-free expression pairs
    /// and 5 loop-free `prog_eq`.
    Serve,
}

/// The looped-stream kind schedule (a 10-cycle, coprime with the shape
/// schedule, so kinds and shapes pair up differently along the stream).
const LOOPED_KINDS: [Option<PairKind>; 10] = [
    Some(PairKind::Skip),
    Some(PairKind::Append),
    Some(PairKind::Unroll),
    None, // optimize
    Some(PairKind::ReplaceLast),
    Some(PairKind::UnrollSkip),
    Some(PairKind::Append),
    Some(PairKind::AbortSink),
    None, // analyze
    Some(PairKind::ReplaceLast),
];

const LOOP_FREE_KINDS: [PairKind; 4] = [
    PairKind::Skip,
    PairKind::Append,
    PairKind::ReplaceLast,
    PairKind::AbortSink,
];

/// A deterministic stream of distinct request lines for one [`Mix`].
pub struct Gen {
    rng: Rng,
    mix: Mix,
    index: usize,
    seen: HashSet<u64>,
    atoms: Vec<String>,
}

impl Gen {
    pub fn new(mix: Mix, seed: u64, stream: u64) -> Gen {
        let atom_count = if mix == Mix::Serve { 12 } else { 6 };
        Gen {
            rng: Rng::stream(seed, stream),
            mix,
            index: 0,
            seen: HashSet::new(),
            atoms: (0..atom_count).map(|i| format!("a{i}")).collect(),
        }
    }

    /// Marks `line` as already used, so this stream never emits it.
    pub fn exclude(&mut self, line: &str) {
        self.seen.insert(line_hash(line));
    }

    /// The next line of the stream; never repeats an earlier one.
    pub fn next_item(&mut self) -> Item {
        loop {
            let item = self.candidate();
            self.index += 1;
            if self.seen.insert(line_hash(&item.line)) {
                return item;
            }
        }
    }

    fn candidate(&mut self) -> Item {
        let i = self.index;
        let rng = &mut self.rng;
        match self.mix {
            Mix::Looped => {
                let shape = SHAPES[i % SHAPES.len()];
                let mut gates = Gates::new(rng, shape.qubits);
                let base = looped(rng, &mut gates, shape);
                match LOOPED_KINDS[i % LOOPED_KINDS.len()] {
                    // Unrolling next to a second loop (or around a nested
                    // one) multiplies the product automaton; those shapes
                    // get skip insertion instead, bounding per-query memory.
                    Some(PairKind::Unroll | PairKind::UnrollSkip)
                        if shape.depth * shape.width > 1 =>
                    {
                        prog_pair(rng, &mut gates, shape.qubits, base, PairKind::Skip)
                    }
                    Some(kind) => prog_pair(rng, &mut gates, shape.qubits, base, kind),
                    None if i % LOOPED_KINDS.len() == 3 => {
                        let small = SHAPES[i % 2];
                        let mut gates = Gates::new(rng, small.qubits);
                        let base = looped(rng, &mut gates, small);
                        optimize_item(rng, small.qubits, base)
                    }
                    None => analyze_item(rng, shape.qubits, base),
                }
            }
            Mix::Hot | Mix::Fresh | Mix::Serve => {
                // Sizes and kinds follow a fixed schedule over `i`; the
                // seed picks gates, qubits and atoms. Every run then sees
                // the same mix of shapes, whatever its seed.
                let slot = i % 8;
                let round = i / 8;
                let expr_slots = if self.mix == Mix::Serve { 3 } else { 5 };
                if slot < expr_slots {
                    let ka = rng.percent(30);
                    if self.mix == Mix::Hot && slot == 4 {
                        let law = match round % 8 {
                            7 => Law::StarIdem,
                            k => Law::Fig2(k % FIG2.len()),
                        };
                        expr_item(rng, &self.atoms, law, ka, 1)
                    } else {
                        expr_item(rng, &self.atoms, LAWS[round % LAWS.len()], ka, 3)
                    }
                } else if self.mix != Mix::Serve && slot == 7 {
                    if round.is_multiple_of(2) {
                        hoare_item(rng)
                    } else {
                        let qubits = 1 + round / 2 % 3;
                        let mut gates = Gates::new(rng, qubits);
                        let body = loop_free(rng, &mut gates, qubits, 4 + (round / 6) % 7);
                        analyze_item(rng, qubits, body)
                    }
                } else {
                    let qubits = 1 + i % 3;
                    let mut gates = Gates::new(rng, qubits);
                    let base = loop_free(rng, &mut gates, qubits, 4 + (i / 3) % 11);
                    let kind = LOOP_FREE_KINDS[(i / 33) % LOOP_FREE_KINDS.len()];
                    prog_pair(rng, &mut gates, qubits, base, kind)
                }
            }
        }
    }
}

/// A 64-bit hash of a line (SipHash with fixed keys) — the dedup key;
/// a collision among a run's lines is ~n²/2⁶⁵, negligible for the
/// ≤10⁷ lines of any run.
fn line_hash(line: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    line.hash(&mut h);
    h.finish()
}
