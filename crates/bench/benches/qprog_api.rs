//! QPROG-API — the quantum workload surface: what a `prog_eq` /
//! `hoare` wire query costs end to end (parse → encode-under-scratch →
//! decide/wlp → retire), and how the promote-on-equal policy amortizes
//! repeated equal comparisons.
//!
//! Three arms:
//!
//! * `prog_eq_cold` — 16 distinct refuted pairs, fresh session per
//!   sweep: the adversarial-traffic steady state (nothing promotes, the
//!   scratch region churns, every decide compiles).
//! * `prog_eq_warm` — one equal pair re-issued on a warm session: after
//!   the first decide promotes the encodings, repeats are an encode
//!   (onto persistent ids) plus a verdict-cache hit.
//! * `hoare` — one triple checked per iteration: wlp is a dense
//!   Liouville computation, so this floor is numeric, not algebraic.
//! * `surface_parse` — parsing alone, on a gate table already holding
//!   every entry the programs name: the 14-gate program, and the wide
//!   five-qubit loop-nest pair of `tests/perf_smoke.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use nka_core::api::{Query, Session, Verdict};
use nka_qprog::SurfaceProgram;
use std::hint::black_box;

const GATES: [&str; 6] = ["h", "x", "y", "z", "s", "t"];

/// A distinct single-qubit `len`-gate program per index (base-6
/// digits).
fn gate_word_n(i: usize, len: usize) -> String {
    let mut k = i;
    let gates = (0..len)
        .map(|_| {
            let g = format!("{} q0", GATES[k % 6]);
            k /= 6;
            g
        })
        .collect::<Vec<_>>()
        .join("; ");
    format!("qubits 1; {gates}")
}

/// A distinct single-qubit 5-gate program per index (base-6 digits).
fn gate_word(i: usize) -> String {
    gate_word_n(i, 5)
}

fn bench_prog_eq(c: &mut Criterion) {
    // Refuted pairs: p vs p;z — nothing promotes, full churn.
    let cold_pairs: Vec<Query> = (0..16)
        .map(|i| {
            let p = gate_word(i);
            Query::prog_eq(&p, &format!("{p}; z q0")).expect("well-formed")
        })
        .collect();
    let mut group = c.benchmark_group("qprog/prog_eq_cold");
    group.sample_size(10);
    group.bench_function("16_refuted_pairs", |b| {
        b.iter(|| {
            let mut session = Session::new();
            for query in &cold_pairs {
                black_box(session.run(black_box(query)));
            }
        });
    });
    group.finish();

    // 14-gate rows (the ISSUE's long-program target; loop-free, so the
    // star-free fast path answers them): same refuted-churn shape as
    // the 5-gate arm, at the program length the tiered pipeline was
    // built for.
    let cold_pairs_14: Vec<Query> = (0..16)
        .map(|i| {
            let p = gate_word_n(i, 14);
            Query::prog_eq(&p, &format!("{p}; z q0")).expect("well-formed")
        })
        .collect();
    let mut group = c.benchmark_group("qprog/prog_eq_cold_14g");
    group.sample_size(10);
    group.bench_function("16_refuted_pairs", |b| {
        b.iter(|| {
            let mut session = Session::new();
            for query in &cold_pairs_14 {
                black_box(session.run(black_box(query)));
            }
        });
    });
    group.finish();

    // The acceptance row: one equal 14-gate pair on a *fresh* session
    // per iteration — parse, encode, and a first-ever decide, nothing
    // amortized. The tiered pipeline targets this in the low-ms range.
    let p14 = gate_word_n(7, 14);
    let equal_14 = Query::prog_eq(&p14, &format!("{p14}; skip")).expect("well-formed");
    let mut group = c.benchmark_group("qprog/prog_eq_equal_14g");
    group.sample_size(10);
    group.bench_function("fresh_session", |b| {
        b.iter(|| {
            let mut session = Session::new();
            black_box(session.run(black_box(&equal_14)));
        });
    });
    group.finish();

    // One equal pair on a warm session: post-promotion steady state.
    let equal = Query::prog_eq(
        "qubits 2; h q0; cnot q0 q1; skip",
        "qubits 2; skip; h q0; cnot q0 q1",
    )
    .expect("well-formed");
    let mut warm_session = Session::new();
    let first = warm_session.run(&equal);
    assert!(matches!(first.verdict, Verdict::ProgEq { holds: true, .. }));
    let mut group = c.benchmark_group("qprog/prog_eq_warm");
    group.bench_function("equal_pair_repeat", |b| {
        b.iter(|| black_box(warm_session.run(black_box(&equal))));
    });
    group.finish();

    let triple = Query::hoare("ket(1)", "qubits 1; x q0; h q0", "0.5 I").expect("well-formed");
    let mut session = Session::new();
    let mut group = c.benchmark_group("qprog/hoare");
    group.bench_function("one_qubit_triple", |b| {
        b.iter(|| black_box(session.run(black_box(&triple))));
    });
    group.finish();
}

fn bench_optimize(c: &mut Criterion) {
    // The acceptance composite: loop-peeling + dead-branch fire (two
    // certified steps), the h;h gate-fusion advisory is refuted, and
    // the final whole-program certificate is decided — an optimize
    // query is several analyze sweeps plus one prog_eq per applied
    // step, so this floor sits well above the single-decide arms.
    let composite = Query::optimize(
        "qubits 2; if q0 { h q1; while q0 { h q1 } } else { skip }; \
         if q1 { x q0; abort } else { skip }; h q0; h q0",
        &[] as &[&str],
        32,
        1,
    )
    .expect("well-formed");
    let mut group = c.benchmark_group("qprog/optimize_cold");
    group.sample_size(10);
    group.bench_function("two_step_composite", |b| {
        b.iter(|| {
            let mut session = Session::new();
            black_box(session.run(black_box(&composite)));
        });
    });
    group.finish();

    // Warm repeat: every candidate verdict and the final certificate
    // hit the per-session caches; what's left is parse + rewrite +
    // re-encode churn.
    let mut warm_session = Session::new();
    let first = warm_session.run(&composite);
    assert!(matches!(
        first.verdict,
        Verdict::Optimized { ref steps, fixpoint: true, .. } if steps.len() == 2
    ));
    let mut group = c.benchmark_group("qprog/optimize_warm");
    group.bench_function("two_step_composite_repeat", |b| {
        b.iter(|| black_box(warm_session.run(black_box(&composite))));
    });
    group.finish();
}

/// Five qubits; a gate, four depth-four `while` nests side by side with
/// two gates per level, and a gate; with `unroll`, every innermost loop
/// is unrolled once. The same pair as `wide_nest` in
/// `tests/perf_smoke.rs`.
fn wide_nest(unroll: bool) -> String {
    let one = ["h", "x", "y", "z", "s", "t"];
    let two = ["cnot", "cz", "swap"];
    let mut gates: Vec<String> = one
        .iter()
        .flat_map(|g| (0..5).map(move |q| format!("{g} q{q}")))
        .collect();
    for g in two {
        for a in 0..5 {
            gates.extend((0..5).filter(|&b| b != a).map(|b| format!("{g} q{a} q{b}")));
        }
    }
    let mut dealt = (0..gates.len()).map(|i| gates[(7 * i + 3) % gates.len()].clone());
    let mut take = |n: usize| dealt.by_ref().take(n).collect::<Vec<_>>();
    let mut k = 0;
    let mut parts = take(1);
    for _ in 0..4 {
        let levels: Vec<(usize, String)> = (0..4)
            .map(|_| {
                k += 1;
                ((k - 1) % 5, take(2).join("; "))
            })
            .collect();
        let (q, body) = &levels[3];
        let mut nest = if unroll {
            format!("if q{q} {{ {body}; while q{q} {{ {body} }} }} else {{ }}")
        } else {
            format!("while q{q} {{ {body} }}")
        };
        for (q, body) in levels[..3].iter().rev() {
            nest = format!("while q{q} {{ {body}; {nest} }}");
        }
        parts.push(nest);
    }
    parts.extend(take(1));
    format!("qubits 5; {}", parts.join("; "))
}

fn bench_surface_parse(c: &mut Criterion) {
    let p14 = gate_word_n(7, 14);
    let (wide_p, wide_q) = (wide_nest(false), wide_nest(true));
    // One parse of each fills every gate-table entry the arms name.
    for src in [&p14, &wide_p, &wide_q] {
        SurfaceProgram::parse(src).expect("well-formed");
    }
    let mut group = c.benchmark_group("qprog/surface_parse");
    group.bench_function("fourteen_gates", |b| {
        b.iter(|| black_box(SurfaceProgram::parse(black_box(&p14))))
    });
    group.bench_function("wide_5q_nest_pair", |b| {
        b.iter(|| {
            (
                black_box(SurfaceProgram::parse(black_box(&wide_p))),
                black_box(SurfaceProgram::parse(black_box(&wide_q))),
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_prog_eq, bench_optimize, bench_surface_parse);
criterion_main!(benches);
