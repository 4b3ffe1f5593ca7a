//! Concurrency-correctness smoke for the serve-v2 measurement
//! primitives: the lock-free per-op latency histograms
//! ([`OpHistograms`]) and the analyzer counters merged across batch
//! workers ([`AnalysisStats`]). Both are relaxed-atomic / per-worker
//! accumulators whose one hard invariant is *conservation* — no sample
//! and no finding may be lost or double-counted, whatever the thread
//! interleaving — so these tests hammer them from many threads and
//! check the totals exactly.

use nka_quantum::api::{run_ordered, Query, Session, SessionTotals, Verdict};
use nka_quantum::serve::stats::OPS;
use nka_quantum::serve::OpHistograms;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Eight threads hammer one shared [`OpHistograms`] with a known
/// per-op sample plan while a snapshot reader races them; every
/// recorded sample must land in exactly one bucket of exactly one op.
#[test]
fn concurrent_records_are_conserved_across_ops_and_snapshots() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 4_000;
    let hists = OpHistograms::new();
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Writers: thread t records PER_THREAD samples, cycling over
        // every op and a spread of latencies from sub-bucket-exact
        // nanoseconds up into the millisecond octaves.
        for t in 0..THREADS {
            let hists = &hists;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let kind = OPS[(t as u64 + i) as usize % OPS.len()];
                    let ns = 1 + (i % 7) * 150_007 * (1 + t as u64);
                    hists.record(kind, Duration::from_nanos(ns));
                }
            });
        }
        // Reader: snapshots taken mid-hammer are approximate but must
        // never exceed the final total nor be internally inconsistent
        // (the snapshot's count is derived from its own bucket read).
        let (hists, done) = (&hists, &done);
        scope.spawn(move || {
            while !done.load(Ordering::Relaxed) {
                let snap = hists.snapshot();
                assert!(snap.total() <= THREADS as u64 * PER_THREAD);
                for kind in OPS {
                    let op = snap.op(kind);
                    assert_eq!(
                        op.count(),
                        op.nonzero_buckets().iter().map(|(_, n)| n).sum::<u64>(),
                        "mid-hammer snapshot lost samples between buckets and count"
                    );
                }
                std::thread::yield_now();
            }
        });
        // The writer handles drop at scope end; flag the reader once
        // all writers are known-finished by re-joining via a sentinel
        // thread that simply waits on the shared total.
        scope.spawn(move || {
            while hists.total() < THREADS as u64 * PER_THREAD {
                std::thread::yield_now();
            }
            done.store(true, Ordering::Relaxed);
        });
    });

    let expected = THREADS as u64 * PER_THREAD;
    assert_eq!(hists.total(), expected, "samples lost under contention");
    let snap = hists.snapshot();
    assert_eq!(snap.total(), expected);
    // The cyclic plan spreads samples evenly: every op holds exactly
    // THREADS * PER_THREAD / 7 samples (PER_THREAD chosen divisible
    // by OPS.len() is not required — each thread's own cycle covers
    // every op ⌊PER_THREAD/7⌋ or ⌈PER_THREAD/7⌉ times, and the total
    // across the 7 phase-shifted threads still sums to the grand
    // total; assert per-op conservation against an exact replay).
    let mut expected_per_op = [0u64; OPS.len()];
    for t in 0..THREADS as u64 {
        for i in 0..PER_THREAD {
            expected_per_op[(t + i) as usize % OPS.len()] += 1;
        }
    }
    for (kind, want) in OPS.iter().zip(expected_per_op) {
        assert_eq!(
            snap.op(*kind).count(),
            want,
            "op {kind:?} lost or gained samples"
        );
    }
    // Sum conservation: the recorded nanosecond mass is exact (sums are
    // a single fetch_add, not bucketed).
    let mut expected_sum = 0u64;
    for t in 0..THREADS as u64 {
        for i in 0..PER_THREAD {
            expected_sum += 1 + (i % 7) * 150_007 * (1 + t);
        }
    }
    let total_sum: u64 = OPS.iter().map(|&kind| snap.op(kind).sum_ns()).sum();
    assert_eq!(total_sum, expected_sum, "sum_ns drifted under contention");
}

/// Analyzer-counter conservation across parallel batch workers: a
/// 32-query analyze batch (16 distinct dead-branch programs, each
/// duplicated once) must report exactly one finding per query and
/// exactly one Tier B check per query — split between engine decides
/// and certificate-cache hits — for every worker layout.
#[test]
fn parallel_analyze_batches_conserve_findings_and_tier_b_checks() {
    const GATES: [&str; 4] = ["h q0", "x q0", "y q0", "z q0"];
    let distinct: Vec<String> = (0..16)
        .map(|i| {
            // Base-4 digits of i pick a unique two-gate word, so every
            // program's dead arm is encoding-distinct (no cross-query
            // engine-cache coupling to blur the counts).
            let word = format!("{}; {}", GATES[i % 4], GATES[(i / 4) % 4]);
            let pad = if i < 4 {
                String::new()
            } else {
                format!("{}; ", GATES[i % 4])
            };
            format!("qubits 1; if q0 {{ {pad}{word}; abort }} else {{ skip }}")
        })
        .collect();
    let queries: Vec<Query> = distinct
        .iter()
        .chain(distinct.iter())
        .map(|p| Query::analyze(p, &["dead_branch"]).expect("well-formed"))
        .collect();
    assert_eq!(queries.len(), 32);

    for jobs in [1, 2, 4, 8] {
        // The worker pool behind `batch --jobs N`: warm sessions for the
        // whole stream, answers in input order, accounting merged from
        // the sessions' totals afterwards.
        let mut sessions: Vec<Session> = (0..jobs).map(|_| Session::new()).collect();
        let mut responses = Vec::new();
        run_ordered(&mut sessions, queries.iter(), Session::run, |resp| {
            responses.push(resp);
        });
        let stats = sessions
            .iter()
            .fold(SessionTotals::default(), |acc, s| acc.merged(&s.totals()))
            .analysis;
        assert_eq!(responses.len(), 32);
        let mut findings_seen = 0u64;
        for resp in &responses {
            let Verdict::Analysis { findings } = &resp.verdict else {
                panic!("jobs={jobs}: expected an Analysis verdict");
            };
            assert_eq!(findings.len(), 1, "jobs={jobs}: one dead_branch per query");
            assert!(findings[0].certificate.is_some());
            findings_seen += findings.len() as u64;
        }
        // Conservation: the merged counters account for every finding
        // and every Tier B check exactly once, however the 32 queries
        // were sharded. Decides vs cache hits trade off with layout
        // (a duplicate only hits the cache if its twin ran on the same
        // worker), but their sum is invariant.
        assert_eq!(stats.findings_total(), findings_seen, "jobs={jobs}");
        assert_eq!(
            stats.tier_b_decides + stats.cert_cache_hits,
            32,
            "jobs={jobs}: Tier B checks lost or double-counted \
             (decides={}, hits={})",
            stats.tier_b_decides,
            stats.cert_cache_hits
        );
        assert!(
            stats.tier_b_decides >= 16,
            "jobs={jobs}: 16 distinct checks cannot all be cache hits"
        );
        if jobs == 1 {
            // One session sees both copies of each program: exactly 16
            // engine decides and 16 certificate-cache hits.
            assert_eq!(stats.tier_b_decides, 16);
            assert_eq!(stats.cert_cache_hits, 16);
        }
    }
}
