//! DECIDE-SCALE — Remark 2.1: the equational theory of NKA is decidable.
//! Measures the decision procedure across expression sizes, plus the
//! truncated-series semi-oracle ablation (refutation-complete only).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nka_bench::random_exprs;
use nka_core::api::{Query, Session, SessionOptions, Verdict};
use nka_series::eval;
use nka_syntax::Symbol;
use nka_wfa::decide::DecideOptions;
use nka_wfa::ka::{ka_equiv, saturate};
use nka_wfa::Decider;
use std::hint::black_box;

/// A deterministic loop-free `n`-gate two-qubit program: the
/// `prog_eq` scaling subject (its encoding is star-free, so the fast
/// path applies; with the fast path disabled the same pair runs the
/// full generic pipeline).
fn gate_program(n: usize) -> String {
    const G: [&str; 5] = ["h q0", "x q1", "cnot q0 q1", "s q0", "t q1"];
    let body = (0..n)
        .map(|i| G[i % G.len()])
        .collect::<Vec<_>>()
        .join("; ");
    format!("qubits 2; {body}")
}

fn bench_decide(c: &mut Criterion) {
    let alphabet = [Symbol::intern("a"), Symbol::intern("b")];

    let mut group = c.benchmark_group("decide/exact");
    group.sample_size(10);
    for size in [10usize, 20, 40, 80] {
        let exprs = random_exprs(8, size, 0xD5C1DE + size as u64);
        group.bench_with_input(BenchmarkId::from_parameter(size), &exprs, |b, exprs| {
            b.iter(|| {
                // One cold engine per sweep: the honest end-to-end cost of
                // compiling + deciding each pair exactly once.
                let mut engine = Decider::new();
                for pair in exprs.chunks(2) {
                    let _ = engine.decide(black_box(&pair[0]), black_box(&pair[1]));
                }
            });
        });
    }
    group.finish();

    // The same sweeps against a persistent warm `Session` — the Query
    // API steady state `nka batch`/`nka serve` sit on: after the first
    // iteration every verdict is a cache hit, so this arm measures the
    // memoized lookup plus the per-query accounting (stats delta +
    // timing) of the API layer.
    let mut group = c.benchmark_group("decide/session_warm");
    group.sample_size(10);
    for size in [10usize, 20, 40, 80] {
        let exprs = random_exprs(8, size, 0xD5C1DE + size as u64);
        let queries: Vec<Query> = exprs
            .chunks(2)
            .map(|pair| Query::NkaEq {
                lhs: pair[0],
                rhs: pair[1],
            })
            .collect();
        let mut session = Session::new();
        let _ = session.run_all(&queries); // prime the caches
        group.bench_with_input(BenchmarkId::from_parameter(size), &queries, |b, queries| {
            b.iter(|| {
                for query in queries {
                    black_box(session.run(black_box(query)));
                }
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("decide/series_truncation_ablation");
    group.sample_size(10);
    for size in [10usize, 20, 40] {
        let exprs = random_exprs(8, size, 0xD5C1DE + size as u64);
        group.bench_with_input(BenchmarkId::from_parameter(size), &exprs, |b, exprs| {
            b.iter(|| {
                for pair in exprs.chunks(2) {
                    let _ = eval(black_box(&pair[0]), &alphabet, 4)
                        == eval(black_box(&pair[1]), &alphabet, 4);
                }
            });
        });
    }
    group.finish();

    // Remark 2.1's 1*K embedding: deciding the KA (language) theory via
    // the support DFAs, versus pushing the saturated pair through the
    // full weighted pipeline. Both decide the same relation on 1*K; the
    // support route skips the ∞-split and the exact-rational zeroness.
    let mut group = c.benchmark_group("decide/ka_support");
    group.sample_size(10);
    for size in [10usize, 20, 40] {
        let exprs = random_exprs(8, size, 0xD5C1DE + size as u64);
        group.bench_with_input(BenchmarkId::from_parameter(size), &exprs, |b, exprs| {
            b.iter(|| {
                for pair in exprs.chunks(2) {
                    let _ = ka_equiv(black_box(&pair[0]), black_box(&pair[1]));
                }
            });
        });
    }
    group.finish();

    // Tiered-equivalence crossover (star-free fast path): loop-free
    // `prog_eq` pairs at 6/10/14 gates, equal and refuted directions,
    // decided end-to-end on a fresh session with the fast path on
    // (default options) vs off (`starfree_max_words: 0`, the pure
    // generic pipeline). The fast/generic gap at 14 gates is the
    // tentpole win: hundreds of ms generic vs single-digit ms fast.
    let mut group = c.benchmark_group("decide/prog_eq_loop_free");
    group.sample_size(10);
    for gates in [6usize, 10, 14] {
        let p = gate_program(gates);
        let equal = Query::prog_eq(&p, &format!("{p}; skip")).expect("well-formed");
        let refuted = Query::prog_eq(&p, &format!("{p}; z q0")).expect("well-formed");
        for (direction, expect_holds, query) in
            [("equal", true, &equal), ("refuted", false, &refuted)]
        {
            for (pipeline, starfree_max_words) in [("fast", 8192usize), ("generic", 0)] {
                let options = || {
                    SessionOptions::builder()
                        .decide(DecideOptions {
                            starfree_max_words,
                            ..DecideOptions::default()
                        })
                        .build()
                        .expect("bench options are in range")
                };
                // Both pipelines must agree on the verdict before any
                // timing is trusted.
                let verdict = Session::with_options(options()).run(query).verdict;
                assert!(
                    matches!(verdict, Verdict::ProgEq { holds, .. } if holds == expect_holds),
                    "{direction}/{pipeline} at {gates} gates answered {verdict:?}"
                );
                group.bench_with_input(
                    BenchmarkId::new(format!("{direction}_{pipeline}"), gates),
                    query,
                    |b, query| {
                        b.iter(|| {
                            let mut session = Session::with_options(options());
                            black_box(session.run(black_box(query)));
                        });
                    },
                );
            }
        }
    }
    group.finish();

    let mut group = c.benchmark_group("decide/ka_via_saturated_nka");
    group.sample_size(10);
    for size in [10usize, 20, 40] {
        let exprs = random_exprs(8, size, 0xD5C1DE + size as u64);
        group.bench_with_input(BenchmarkId::from_parameter(size), &exprs, |b, exprs| {
            b.iter(|| {
                for pair in exprs.chunks(2) {
                    let _ = nka_wfa::decide_eq(
                        black_box(&saturate(&pair[0])),
                        black_box(&saturate(&pair[1])),
                    );
                }
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = nka_bench::criterion_config();
    targets = bench_decide
}
criterion_main!(benches);
