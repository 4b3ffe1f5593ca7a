//! The Query API v1 exercised through the umbrella crate: one `Session`
//! across mixed NkaEq/KaEq/Series/Prove queries, with per-query stats
//! deltas, verdict-cache hits, and budget behaviour — the contract the
//! CLI, `batch`, and `serve` layers rely on.

use nka_quantum::api::{ApiError, Query, Session, SessionOptions, Verdict};
use nka_quantum::wfa::decide::DecideOptions;

#[test]
fn mixed_queries_share_one_engine_and_report_deltas() {
    let mut session = Session::new();

    // First NKA query: two fresh compilations, no hits.
    let first = session.run(&Query::nka_eq("(p q)* p", "p (q p)*").unwrap());
    assert_eq!(first.verdict, Verdict::Holds);
    assert_eq!(first.stats_delta.nka_queries, 1);
    assert_eq!(first.stats_delta.compile_misses, 2);
    assert_eq!(first.stats_delta.answer_hits, 0);

    // Same query again: pure verdict-cache hit, nothing recompiled.
    let second = session.run(&Query::nka_eq("(p q)* p", "p (q p)*").unwrap());
    assert_eq!(second.verdict, Verdict::Holds);
    assert_eq!(second.stats_delta.answer_hits, 1);
    assert_eq!(second.stats_delta.compile_misses, 0);
    assert_eq!(second.stats_delta.dfa_misses, 0);

    // KA query over the same expressions: separate verdict cache, but
    // the compiled automata are reused.
    let ka = session.run(&Query::ka_eq("(p q)* p", "p (q p)*").unwrap());
    assert_eq!(ka.verdict, Verdict::Holds);
    assert_eq!(ka.stats_delta.ka_queries, 1);
    assert_eq!(ka.stats_delta.compile_misses, 0);
    assert!(ka.stats_delta.compile_hits >= 2);

    // A series query computes off-engine: its delta is empty.
    let series = session.run(&Query::series("(p q)* p", 3).unwrap());
    assert!(matches!(series.verdict, Verdict::Series { .. }));
    assert_eq!(series.stats_delta.nka_queries, 0);
    assert_eq!(series.stats_delta.compile_misses, 0);

    // Totals accumulate across the whole mix.
    assert_eq!(session.queries_run(), 4);
    let total = session.stats();
    assert_eq!(total.nka_queries, 2);
    assert_eq!(total.ka_queries, 1);
    assert_eq!(total.answer_hits, 1);
    assert_eq!(total.compile_misses, 2);
    assert_eq!(
        session
            .run(&Query::nka_eq("p (q p)*", "(p q)* p").unwrap())
            .stats_delta
            .answer_hits,
        1,
        "symmetric orientation is also a verdict hit"
    );
}

#[test]
fn run_all_preserves_order_and_amortizes() {
    let mut session = Session::new();
    let queries = vec![
        Query::nka_eq("1 + p p*", "p*").unwrap(),
        Query::nka_eq("p + p", "p").unwrap(),
        Query::nka_eq("1 + p p*", "p*").unwrap(), // repeat → hit
    ];
    let responses = session.run_all(&queries);
    assert_eq!(responses.len(), 3);
    assert_eq!(responses[0].verdict, Verdict::Holds);
    assert_eq!(responses[1].verdict, Verdict::Refuted);
    assert_eq!(responses[2].verdict, Verdict::Holds);
    assert_eq!(responses[2].stats_delta.answer_hits, 1);
}

#[test]
fn prove_and_decide_share_the_session_caches() {
    let mut session = Session::new();
    // Refuting a hypothesis-free goal goes through the engine…
    let refuted = session.run(&Query::prove::<&str>("p + p", "p", &[]).unwrap());
    assert_eq!(refuted.verdict, Verdict::Refuted);
    assert_eq!(refuted.stats_delta.nka_queries, 1);
    // …so the matching NkaEq query right after is a cache hit.
    let again = session.run(&Query::nka_eq("p + p", "p").unwrap());
    assert_eq!(again.verdict, Verdict::Refuted);
    assert_eq!(again.stats_delta.answer_hits, 1);
}

#[test]
fn zero_budget_session_reports_budget_exhaustion_not_success() {
    // Regression companion to the engine-level fix: a pathological
    // zero-state budget must surface on the very first (trivial) query.
    let mut session = Session::with_options(
        SessionOptions::builder()
            .decide(DecideOptions {
                max_dfa_states: 0,
                // Forced off so the trivial query reaches the subset
                // construction whose budget this regression test pins
                // (the star-free fast path would otherwise answer it
                // exactly without any DFA states).
                starfree_max_words: 0,
            })
            .build()
            .unwrap(),
    );
    let resp = session.run(&Query::nka_eq("1", "1").unwrap());
    assert!(
        matches!(resp.verdict, Verdict::BudgetExhausted { .. }),
        "got {:?}",
        resp.verdict
    );
}

#[test]
fn session_prover_bounds_are_honoured() {
    // With a zero expansion budget the search proves nothing, but the
    // engine still classifies the hypothesis-free theorem.
    let mut session = Session::with_options(
        SessionOptions::builder()
            .prove_max_expansions(0)
            .build()
            .unwrap(),
    );
    let resp = session.run(&Query::prove::<&str>("(p q)* p", "p (q p)*", &[]).unwrap());
    assert_eq!(
        resp.verdict,
        Verdict::Exhausted {
            holds_by_decision: Some(true)
        }
    );
    // Under hypotheses the engine is not a sound oracle: status stays open.
    let resp = session.run(&Query::prove("a", "b", &["a = b"]).unwrap());
    assert_eq!(
        resp.verdict,
        Verdict::Exhausted {
            holds_by_decision: None
        }
    );
}

#[test]
fn api_errors_render_carets() {
    let err = Query::series("a ) b", 3).unwrap_err();
    let ApiError::Parse {
        field,
        ref src,
        ref err,
    } = err
    else {
        panic!("expected a parse error, got {err:?}");
    };
    assert_eq!(field, "expr");
    let rendered = err.caret(src);
    assert!(rendered.contains("a ) b\n"), "{rendered}");
    assert!(rendered.contains('^'), "{rendered}");
}
