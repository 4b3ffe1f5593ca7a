//! Memory-soak gate for the arena lifecycle (Arena lifecycle v1).
//!
//! The PR 3 arena was append-only and the auto-prover interned every
//! transient search term, so a long-lived `serve` process grew without
//! bound under adversarially *distinct* `Prove` traffic (ROADMAP open
//! item). This suite is the enforced, observable boundedness property:
//! it drives 10 000 distinct `Prove` queries through one `Session` and
//! asserts the resident arena stays within a constant of the
//! *persistent query set* — not O(total search terms) — because every
//! search frontier is scratch-interned and retired when its query
//! answers.
//!
//! CI runs this file as its own release-mode step with `--nocapture`,
//! so the counts below land in the build log. `ARENA_SOAK_QUERIES`
//! overrides the query count (e.g. for quick local runs).

use nka_quantum::syntax::{
    arena_resident_nodes, interned_expr_count, scratch_live_nodes, scratch_retired_total, Symbol,
};
use nka_quantum::{Query, Session, SessionOptions, Verdict};
use std::sync::Mutex;

/// Both tests assert on process-global arena counters inside
/// before/after windows; run them serially so neither perturbs the
/// other's window (cargo test runs `#[test]`s on parallel threads).
fn soak_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn soak_queries() -> usize {
    std::env::var("ARENA_SOAK_QUERIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000)
}

/// A distinct 14-letter word over `{sa, sb}` per index — fixed small
/// alphabet (so the symbol table stays constant), distinct structure
/// (so every query is genuinely new to the arena).
fn word(i: usize) -> String {
    (0..14)
        .map(|b| if (i >> b) & 1 == 1 { "sa" } else { "sb" })
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn distinct_prove_traffic_keeps_the_arena_bounded() {
    let _serial = soak_lock();
    let n = soak_queries();
    // Unprovable goals under commuting hypotheses: `sx w = w sy` needs
    // sx to *become* sy, which no rule allows — every search exhausts
    // its (small) expansion budget after materializing a frontier of
    // transient rewrite terms. That frontier is exactly the memory the
    // scope lifecycle must reclaim.
    let hyps = ["sx sa = sa sx", "sx sb = sb sx"];
    let queries: Vec<Query> = (0..n)
        .map(|i| {
            let w = word(i);
            Query::prove(&format!("sx {w}"), &format!("{w} sy"), &hyps).expect("well-formed")
        })
        .collect();

    // Everything the queries themselves intern is now resident: this is
    // the persistent query set the soak is allowed to cost.
    let persistent_before = interned_expr_count();
    let resident_before = arena_resident_nodes();
    let retired_before = scratch_retired_total();

    let mut session = Session::with_options(
        // Small per-query search budget: the soak measures arena
        // behavior, not prover power. Each exhausted search still
        // interns a few dozen scratch terms.
        SessionOptions::builder()
            .prove_max_expansions(12)
            .build()
            .unwrap(),
    );
    for (i, query) in queries.iter().enumerate() {
        let resp = session.run(query);
        assert!(
            matches!(resp.verdict, Verdict::Exhausted { .. }),
            "query {i}: expected an exhausted search, got {:?}",
            resp.verdict
        );
    }

    let persistent_after = interned_expr_count();
    let resident_after = arena_resident_nodes();
    let retired = scratch_retired_total() - retired_before;
    let persistent_growth = persistent_after - persistent_before;
    let mem = session.memory_stats();
    println!(
        "soak: {n} distinct Prove queries; persistent arena {persistent_before} -> \
         {persistent_after} nodes (+{persistent_growth}), resident {resident_before} -> \
         {resident_after}, scratch retired {retired} over {} scopes, live scratch {}",
        mem.scratch_scopes_retired,
        scratch_live_nodes(),
    );

    // The boundedness gate. Searching must not grow the persistent
    // arena at all beyond a constant slack (lazily interned constants
    // and the like) — O(1), not O(n), not O(search terms)…
    assert!(
        persistent_growth <= 16,
        "prover search leaked {persistent_growth} persistent arena nodes over {n} queries \
         (bound: 16 total)"
    );
    // …and every search's scratch must be retired, not left resident.
    assert_eq!(
        resident_after - persistent_after,
        resident_before - persistent_before,
        "live scratch nodes leaked across queries"
    );
    // The gate is only meaningful if the searches really churned: on
    // average well over one transient term per query was reclaimed.
    assert!(
        retired >= 10 * n as u64,
        "searches retired only {retired} scratch nodes over {n} queries — \
         the soak no longer exercises the scratch path"
    );
}

#[test]
fn proved_queries_persist_only_their_promoted_proofs() {
    let _serial = soak_lock();
    // Provable goals (one commutation at the left edge, then pure
    // reassociation): the found proof's terms are *supposed* to outlive
    // the query — they are promoted into the persistent arena — but the
    // growth must be O(proof), with the rest of the search frontier
    // still reclaimed.
    let n = 200;
    let hyps = ["sx sa = sa sx", "sx sb = sb sx"];
    let queries: Vec<Query> = (0..n)
        .map(|i| {
            let w = word(i);
            Query::prove(&format!("sx sa {w}"), &format!("sa sx {w}"), &hyps).expect("well-formed")
        })
        .collect();

    let persistent_before = interned_expr_count();
    let retired_before = scratch_retired_total();
    let mut session = Session::with_options(
        SessionOptions::builder()
            .prove_max_expansions(80)
            .build()
            .unwrap(),
    );
    let mut proved = 0usize;
    let mut proof_nodes = 0u64;
    for query in &queries {
        let resp = session.run(query);
        if let Verdict::Proved { proof_size } = resp.verdict {
            proved += 1;
            proof_nodes += proof_size as u64;
        }
    }
    let persistent_growth = interned_expr_count() - persistent_before;
    let retired = scratch_retired_total() - retired_before;
    println!(
        "promotion: {proved}/{n} proved ({proof_nodes} total rule applications); \
         persistent +{persistent_growth} nodes, scratch retired {retired}"
    );
    assert!(proved > 0, "no goal proved — promotion path unexercised");
    // Promoted proofs cost persistent nodes, but bounded by the proofs
    // themselves (each rule application mentions a handful of terms of
    // ~16 nodes), and far less than the search frontiers explored.
    assert!(
        (persistent_growth as u64) <= 64 * proof_nodes.max(1),
        "promotion leaked {persistent_growth} persistent nodes for {proof_nodes} proof steps"
    );
    assert!(
        retired > 0,
        "proved searches should still retire their unused frontier"
    );
}

/// A distinct single-qubit program per index: a 6-gate sequence
/// spelled by the base-6 digits of `i` (6⁶ ≈ 47k distinct shapes).
/// The alphabet stays constant (six `<gate>_q0` names) while every
/// program is structurally new; six gates keeps the per-query exact
/// decide ~10 ms — the zeroness check scales steeply with encoding
/// length, so the soak measures arena behavior, not decider power.
fn gate_word(i: usize) -> String {
    const GATES: [&str; 6] = ["h", "x", "y", "z", "s", "t"];
    let mut k = i;
    let gates = (0..6)
        .map(|_| {
            let g = format!("{} q0", GATES[k % 6]);
            k /= 6;
            g
        })
        .collect::<Vec<_>>()
        .join("; ");
    format!("qubits 1; {gates}")
}

/// ProgEq soak sizes: the full 10k in release (the CI gate and the
/// acceptance criterion), a smoke-sized sample under the debug-profile
/// tier-1 `cargo test` where each exact decide is ~10× slower.
/// `ARENA_SOAK_QUERIES` overrides both.
fn prog_eq_soak_queries() -> usize {
    std::env::var("ARENA_SOAK_QUERIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 200 } else { 10_000 })
}

#[test]
fn distinct_prog_eq_traffic_keeps_the_arena_bounded() {
    let _serial = soak_lock();
    let n = prog_eq_soak_queries();
    // Refuted pairs (p vs p-with-a-z-appended — always algebraically
    // distinct), then equal ones (p vs p with a `skip` inserted). This is
    // the quantum workload's half of the PR 4 memory model: program
    // encodings are scratch-interned per query and retired when it
    // answers, and no verdict, equal or refuted, promotes them, so 2 × 10k
    // distinct ProgEq queries must add zero persistent arena nodes.
    let queries: Vec<(Query, bool)> = (0..2 * n)
        .map(|i| {
            let p = gate_word(i % n);
            let (q, holds) = if i < n {
                (format!("{p}; z q0"), false)
            } else {
                (
                    format!("qubits 1; skip; {}", &p["qubits 1; ".len()..]),
                    true,
                )
            };
            (Query::prog_eq(&p, &q).expect("well-formed"), holds)
        })
        .collect();

    let persistent_before = interned_expr_count();
    let resident_before = arena_resident_nodes();
    let retired_before = scratch_retired_total();
    let symbols_before = Symbol::interned_count();

    let mut session = Session::new();
    for (i, (query, holds)) in queries.iter().enumerate() {
        let resp = session.run(query);
        assert!(
            matches!(resp.verdict, Verdict::ProgEq { holds: h, .. } if h == *holds),
            "query {i}: expected holds = {holds}, got {:?}",
            resp.verdict
        );
    }

    let persistent_growth = interned_expr_count() - persistent_before;
    let retired = scratch_retired_total() - retired_before;
    let symbol_growth = Symbol::interned_count() - symbols_before;
    println!(
        "prog_eq soak: {n} distinct refuted + {n} equal pairs; persistent +{persistent_growth} nodes, \
         resident {resident_before} -> {}, scratch retired {retired}, symbols +{symbol_growth}",
        arena_resident_nodes(),
    );
    // The acceptance gate: zero persistent growth for program traffic
    // (a small slack for lazily interned constants, as in the Prove
    // soak above).
    assert!(
        persistent_growth <= 16,
        "ProgEq traffic leaked {persistent_growth} persistent arena nodes over {} queries",
        2 * n
    );
    assert_eq!(
        arena_resident_nodes() - interned_expr_count(),
        resident_before - persistent_before,
        "live scratch nodes leaked across ProgEq queries"
    );
    // Each pair's two encodings span ~10 scratch subterms (6/7-gate
    // products minus shared constants); well over half must churn
    // through the scratch region every query.
    assert!(
        retired >= 6 * n as u64,
        "ProgEq encodings retired only {retired} scratch nodes over {n} queries"
    );
    // Surface programs derive encoder names from gate × qubit, so the
    // symbol table cannot grow with query *count*, only with the
    // (constant) alphabet — the bounded-alphabet half of the ROADMAP
    // `Symbol` note.
    assert!(
        symbol_growth <= 8,
        "program traffic grew the symbol table by {symbol_growth} names"
    );
}

#[test]
fn distinct_analyze_traffic_keeps_the_arena_bounded() {
    let _serial = soak_lock();
    let n = prog_eq_soak_queries();
    // Distinct abort-sealed branches: every program carries a genuinely
    // new dead arm, so each query runs a fresh Tier B zeroness decide
    // that *holds* and emits a certificate — the analyzer's memory
    // contract is that even holding checks never promote: Tier B
    // analyses are scratch-scoped end to end, so 10k distinct analyzed
    // programs must add zero persistent arena nodes.
    let queries: Vec<Query> = (0..n)
        .map(|i| {
            let gates = &gate_word(i)["qubits 1; ".len()..];
            let prog = format!("qubits 1; if q0 {{ {gates}; abort }} else {{ skip }}");
            Query::analyze(&prog, &[] as &[&str]).expect("well-formed")
        })
        .collect();

    let persistent_before = interned_expr_count();
    let resident_before = arena_resident_nodes();
    let retired_before = scratch_retired_total();
    let symbols_before = Symbol::interned_count();

    let mut session = Session::new();
    for (i, query) in queries.iter().enumerate() {
        let resp = session.run(query);
        let Verdict::Analysis { findings } = &resp.verdict else {
            panic!(
                "query {i}: expected an Analysis verdict, got {:?}",
                resp.verdict
            );
        };
        assert!(
            findings
                .iter()
                .any(|f| f.pass == "dead_branch" && f.certificate.is_some()),
            "query {i}: the abort-sealed arm must yield a certified dead_branch finding"
        );
    }

    let persistent_growth = interned_expr_count() - persistent_before;
    let retired = scratch_retired_total() - retired_before;
    let symbol_growth = Symbol::interned_count() - symbols_before;
    let analysis = session.analysis_stats();
    println!(
        "analyze soak: {n} distinct programs, {} Tier B decides ({} cache hits); \
         persistent +{persistent_growth} nodes, resident {resident_before} -> {}, \
         scratch retired {retired}, symbols +{symbol_growth}",
        analysis.tier_b_decides,
        analysis.cert_cache_hits,
        arena_resident_nodes(),
    );
    // The acceptance gate: zero persistent growth (the usual slack for
    // lazily interned constants) even though every query's dead-branch
    // check held.
    assert!(
        persistent_growth <= 16,
        "analyze traffic leaked {persistent_growth} persistent arena nodes over {n} queries"
    );
    assert_eq!(
        arena_resident_nodes() - interned_expr_count(),
        resident_before - persistent_before,
        "live scratch nodes leaked across analyze queries"
    );
    // Every query ran at least its dead-branch and whole-program
    // checks through the scratch region.
    assert!(
        retired >= 6 * n as u64,
        "analyze checks retired only {retired} scratch nodes over {n} queries"
    );
    assert!(
        analysis.tier_b_decides >= n as u64,
        "only {} Tier B decides over {n} distinct programs",
        analysis.tier_b_decides
    );
    assert!(
        symbol_growth <= 8,
        "analyze traffic grew the symbol table by {symbol_growth} names"
    );
}

#[test]
fn distinct_optimize_traffic_keeps_the_arena_bounded() {
    let _serial = soak_lock();
    let n = prog_eq_soak_queries();
    // Distinct abort-sealed branches again, but through the optimizer:
    // every query analyzes, *applies* the certified dead-branch
    // rewrite, re-analyzes the rewritten program to fixpoint, and
    // decides the final whole-program certificate. Candidate rewrites,
    // re-analysis encodings, and the certificate decide all run inside
    // the query's outer scratch scope, so even this apply-heavy
    // workload must add zero persistent arena nodes over 10k distinct
    // programs.
    let queries: Vec<Query> = (0..n)
        .map(|i| {
            let gates = &gate_word(i)["qubits 1; ".len()..];
            let prog = format!("qubits 1; if q0 {{ {gates}; abort }} else {{ skip }}");
            Query::optimize(&prog, &[] as &[&str], 32, 1).expect("well-formed")
        })
        .collect();

    let persistent_before = interned_expr_count();
    let resident_before = arena_resident_nodes();
    let retired_before = scratch_retired_total();
    let symbols_before = Symbol::interned_count();

    let mut session = Session::new();
    for (i, query) in queries.iter().enumerate() {
        let resp = session.run(query);
        let Verdict::Optimized {
            steps, fixpoint, ..
        } = &resp.verdict
        else {
            panic!(
                "query {i}: expected an Optimized verdict, got {:?}",
                resp.verdict
            );
        };
        assert!(
            steps.iter().any(|s| s.rule == "dead-branch"),
            "query {i}: the abort-sealed arm must be rewritten away"
        );
        assert!(*fixpoint, "query {i}: expected a fixpoint run");
    }

    let persistent_growth = interned_expr_count() - persistent_before;
    let retired = scratch_retired_total() - retired_before;
    let symbol_growth = Symbol::interned_count() - symbols_before;
    let optimize = session.optimize_stats();
    println!(
        "optimize soak: {n} distinct programs, {} steps applied, {} engine decides \
         ({} cert cache hits); persistent +{persistent_growth} nodes, resident \
         {resident_before} -> {}, scratch retired {retired}, symbols +{symbol_growth}",
        optimize.steps_applied,
        optimize.engine_decides,
        optimize.cert_cache_hits,
        arena_resident_nodes(),
    );
    // The acceptance gate: applying rewrites costs nothing persistent —
    // the rewritten program text lives in the response, not the arena.
    assert!(
        persistent_growth <= 16,
        "optimize traffic leaked {persistent_growth} persistent arena nodes over {n} queries"
    );
    assert_eq!(
        arena_resident_nodes() - interned_expr_count(),
        resident_before - persistent_before,
        "live scratch nodes leaked across optimize queries"
    );
    // Every query ran analysis, at least one certified apply, a
    // re-analysis, and the final certificate decide through scratch.
    assert!(
        retired >= 6 * n as u64,
        "optimize runs retired only {retired} scratch nodes over {n} queries"
    );
    assert!(
        optimize.steps_applied >= n as u64,
        "only {} applied steps over {n} distinct sealed programs",
        optimize.steps_applied
    );
    assert!(
        optimize.engine_decides >= n as u64,
        "only {} engine decides over {n} distinct final certificates",
        optimize.engine_decides
    );
    assert!(
        symbol_growth <= 8,
        "optimize traffic grew the symbol table by {symbol_growth} names"
    );
}

#[test]
fn distinct_atom_names_grow_the_symbol_table_linearly_but_tiny() {
    let _serial = soak_lock();
    let n = soak_queries();
    // The unbounded direction of the ROADMAP `Symbol` note: raw
    // expression traffic with fresh atom names. The table is
    // append-only by design (symbols are identity — folding them into
    // the scratch lifecycle would re-key live engine caches); this
    // soak measures the cost so the README can state it: each name
    // costs its text twice (vec + map key) plus container overhead.
    let symbols_before = Symbol::interned_count();
    let bytes_before = Symbol::interned_bytes();
    let mut session = Session::new();
    let mut name_text = 0usize;
    for i in 0..n {
        let name = format!("symsoak{i}");
        name_text += name.len();
        let resp = session.run(&Query::nka_eq(&name, &name).expect("well-formed"));
        assert!(matches!(resp.verdict, Verdict::Holds));
    }
    let grown = Symbol::interned_count() - symbols_before;
    let bytes = Symbol::interned_bytes() - bytes_before;
    println!(
        "symbol soak: {n} distinct atom names -> +{grown} symbols, +{bytes} name-text bytes \
         ({:.1} bytes/name text; map/vec overhead adds ~48 bytes/name)",
        bytes as f64 / grown.max(1) as f64
    );
    assert_eq!(grown, n, "every distinct name interns exactly once");
    // The measured bound documented in README's memory model: name
    // text is stored twice, nothing else scales with traffic.
    assert_eq!(bytes, 2 * name_text);
    // Re-interning the same names is free.
    let stable = Symbol::interned_count();
    for i in 0..n.min(100) {
        let _ = Symbol::intern(&format!("symsoak{i}"));
    }
    assert_eq!(Symbol::interned_count(), stable);
}
