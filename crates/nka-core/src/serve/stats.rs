//! The serve-v2 observability layer: per-op latency histograms, stream
//! counters, and the human/JSON renderings behind `nka --stats` and
//! `--stats --json`.
//!
//! Two layers:
//!
//! * [`OpHistograms`] — one [`LatencyHistogram`] per wire op
//!   (`nka_eq`, …, `hoare`). Shared by every `--stats` surface: the
//!   one-shot CLI, `batch` (sequential and `--jobs N`), the stdin
//!   `serve` loop, and every worker of the socket server.
//! * [`StatsBlock`] — the full `--stats` report: engine counters
//!   ([`DeciderStats`], including the tiered-equivalence
//!   `starfree_hits`/`prefix_hits`/`fastpath_fallbacks`), term-size
//!   accounting, process-arena figures, throughput, the per-op
//!   histograms, and (for the socket server) the [`ServeCounters`]
//!   section. `render_human` produces the free-text lines `--stats` has
//!   always printed (now plus latency lines); `to_json` produces the
//!   single machine-readable object `--stats --json` emits instead.

use super::histogram::{fmt_ns, HistogramSnapshot, LatencyHistogram};
use crate::api::json::Json;
use crate::api::wire::WIRE_VERSION;
use crate::api::{QueryKind, SessionTotals};
use nka_qprog::analysis::{PASS_NAMES, RULE_METADATA};
use nka_wfa::DeciderStats;
use std::time::Duration;

/// Every wire op, in the order stats are reported.
pub const OPS: [QueryKind; 8] = [
    QueryKind::NkaEq,
    QueryKind::KaEq,
    QueryKind::Series,
    QueryKind::Prove,
    QueryKind::ProgEq,
    QueryKind::Hoare,
    QueryKind::Analyze,
    QueryKind::Optimize,
];

fn op_index(kind: QueryKind) -> usize {
    match kind {
        QueryKind::NkaEq => 0,
        QueryKind::KaEq => 1,
        QueryKind::Series => 2,
        QueryKind::Prove => 3,
        QueryKind::ProgEq => 4,
        QueryKind::Hoare => 5,
        QueryKind::Analyze => 6,
        QueryKind::Optimize => 7,
    }
}

/// One latency histogram per wire op. Recording is lock-free; see
/// [`LatencyHistogram`].
#[derive(Debug, Default)]
pub struct OpHistograms {
    per_op: [LatencyHistogram; OPS.len()],
}

impl OpHistograms {
    /// An empty set of per-op histograms.
    #[must_use]
    pub fn new() -> OpHistograms {
        OpHistograms::default()
    }

    /// Records one answered query of kind `kind` that took `elapsed`.
    pub fn record(&self, kind: QueryKind, elapsed: Duration) {
        self.per_op[op_index(kind)].record(elapsed);
    }

    /// Total queries recorded across all ops.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.per_op.iter().map(LatencyHistogram::count).sum()
    }

    /// Snapshots every op's histogram, in [`OPS`] order.
    #[must_use]
    pub fn snapshot(&self) -> OpSnapshots {
        OpSnapshots {
            per_op: OPS.map(|kind| self.per_op[op_index(kind)].snapshot()),
        }
    }
}

/// A point-in-time copy of an [`OpHistograms`].
#[derive(Debug, Clone)]
pub struct OpSnapshots {
    per_op: [HistogramSnapshot; OPS.len()],
}

impl OpSnapshots {
    /// An all-empty snapshot set.
    #[must_use]
    pub fn empty() -> OpSnapshots {
        OpSnapshots {
            per_op: std::array::from_fn(|_| HistogramSnapshot::empty()),
        }
    }

    /// The snapshot for one op.
    #[must_use]
    pub fn op(&self, kind: QueryKind) -> &HistogramSnapshot {
        &self.per_op[op_index(kind)]
    }

    /// Total queries across all ops.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.per_op.iter().map(HistogramSnapshot::count).sum()
    }

    /// Merges another snapshot set in (per-op), for aggregating workers.
    pub fn merge(&mut self, other: &OpSnapshots) {
        for (a, b) in self.per_op.iter_mut().zip(&other.per_op) {
            a.merge(b);
        }
    }
}

/// Socket-server counters, present in the stats report only when the
/// query stream came over `serve --listen`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Connections accepted over the server's life.
    pub connections_opened: u64,
    /// Connections fully closed (reader gone, queue drained).
    pub connections_closed: u64,
    /// Requests answered with a structured `overloaded` error because
    /// the server-wide pending hard cap was exceeded.
    pub rejected_overload: u64,
    /// Requests answered with a structured error because one line
    /// exceeded the per-line byte hard cap.
    pub rejected_line_bytes: u64,
    /// Malformed request lines answered with structured errors.
    pub wire_errors: u64,
    /// Connections dropped mid-response (client went away; EPIPE et
    /// al.). Each costs only its own connection, never the process.
    pub dropped_mid_response: u64,
    /// Requests currently queued or running (point-in-time).
    pub pending_now: u64,
    /// Engine recycles per worker (`--max-queries-per-worker`), indexed
    /// by worker id.
    pub worker_recycles: Vec<u64>,
    /// Queries answered per worker, indexed by worker id.
    pub worker_queries: Vec<u64>,
}

/// Everything one `--stats` report contains. Build it with
/// [`StatsBlock::new`], then call [`StatsBlock::render_human`] or
/// [`StatsBlock::to_json`].
#[derive(Debug, Clone)]
pub struct StatsBlock {
    /// Cumulative counters of every session that answered the stream:
    /// engine, term sizes, recycles, analyzer, optimizer, snapshot.
    pub totals: SessionTotals,
    /// Queries answered (histogram total; includes every op).
    pub queries: u64,
    /// Wall-clock covered by the report.
    pub elapsed: Duration,
    /// Per-op latency snapshots.
    pub ops: OpSnapshots,
    /// Socket-server section, if the stream was served over sockets.
    pub serve: Option<ServeCounters>,
}

impl StatsBlock {
    /// The report of a stream answered by sessions whose merged
    /// accounting is `totals`, with latencies `ops`, over `elapsed`.
    #[must_use]
    pub fn new(
        totals: SessionTotals,
        ops: OpSnapshots,
        elapsed: Duration,
        serve: Option<ServeCounters>,
    ) -> StatsBlock {
        StatsBlock {
            totals,
            queries: ops.total(),
            elapsed,
            ops,
            serve,
        }
    }

    /// Queries per second over the report's wall-clock window.
    #[must_use]
    pub fn qps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.queries as f64 / secs
        }
    }

    /// The free-text multi-line rendering (the default `--stats`
    /// surface, printed to stderr). Keeps the historical line shapes —
    /// `engine stats:`, `fast-path stats:`, `expr stats:`,
    /// `arena stats:` — and adds `latency stats:` + per-op lines and,
    /// when serving sockets, a `serve stats:` line.
    #[must_use]
    pub fn render_human(&self) -> String {
        let t = &self.totals;
        let s = &t.engine;
        let mut out = format!(
            "engine stats: {} NKA + {} KA queries, {} verdict hits, {} compiles ({} cached), {} determinizations ({} cached)\n",
            s.nka_queries,
            s.ka_queries,
            s.answer_hits,
            s.compile_misses,
            s.compile_hits,
            s.dfa_misses,
            s.dfa_hits,
        );
        out.push_str(&format!(
            "fast-path stats: {} star-free hits + {} prefix hits, {} fallbacks to generic\n",
            s.starfree_hits, s.prefix_hits, s.fastpath_fallbacks,
        ));
        out.push_str(&format!(
            "expr stats: {} tree nodes over {} distinct subterms queried; {} expressions interned process-wide\n",
            t.expr_nodes,
            t.expr_subterms,
            nka_syntax::interned_expr_count(),
        ));
        out.push_str(&format!(
            "arena stats: {} resident nodes ({} persistent + {} live scratch), {} scratch retired over {} scopes, {} engine recycles\n",
            nka_syntax::arena_resident_nodes(),
            nka_syntax::interned_expr_count(),
            nka_syntax::scratch_live_nodes(),
            nka_syntax::scratch_retired_total(),
            nka_syntax::scratch_epoch(),
            t.engine_recycles,
        ));
        out.push_str(&format!(
            "latency stats: {} queries in {:.2}s ({:.1} q/s)\n",
            self.queries,
            self.elapsed.as_secs_f64(),
            self.qps(),
        ));
        for kind in OPS {
            let h = self.ops.op(kind);
            if h.count() == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {}: n={} p50={} p99={} p999={} mean={}\n",
                kind.op(),
                h.count(),
                fmt_ns(h.quantile(0.50)),
                fmt_ns(h.quantile(0.99)),
                fmt_ns(h.quantile(0.999)),
                fmt_ns(h.mean_ns()),
            ));
        }
        if !t.analysis.is_zero() {
            let per_pass: Vec<String> = PASS_NAMES
                .iter()
                .zip(t.analysis.findings_by_pass)
                .filter(|(_, n)| *n > 0)
                .map(|(pass, n)| format!("{pass}:{n}"))
                .collect();
            out.push_str(&format!(
                "analysis stats: {} findings [{}], {} Tier B decides, {} certificate cache hits\n",
                t.analysis.findings_total(),
                per_pass.join(" "),
                t.analysis.tier_b_decides,
                t.analysis.cert_cache_hits,
            ));
        }
        if !t.optimize.is_zero() {
            let per_rule: Vec<String> = RULE_METADATA
                .iter()
                .zip(t.optimize.steps_by_rule)
                .filter(|(_, n)| *n > 0)
                .map(|(meta, n)| format!("{}:{n}", meta.name))
                .collect();
            out.push_str(&format!(
                "optimize stats: {} queries, {} steps [{}], {} refuted, {} fixpoints, {} budget bails, {} cycle breaks, {} engine decides, {} certificate cache hits\n",
                t.optimize.queries,
                t.optimize.steps_applied,
                per_rule.join(" "),
                t.optimize.candidates_refuted,
                t.optimize.fixpoints,
                t.optimize.budget_bails,
                t.optimize.cycle_breaks,
                t.optimize.engine_decides,
                t.optimize.cert_cache_hits,
            ));
        }
        if !t.snapshot.is_zero() {
            let sn = &t.snapshot;
            let age = sn.loaded_created_unix_secs.map_or_else(
                || "-".to_owned(),
                |created| {
                    format!(
                        "{}s",
                        crate::snapshot::now_unix_secs().saturating_sub(created)
                    )
                },
            );
            out.push_str(&format!(
                "snapshot stats: {} entries restored (age {}), {} verdict hits + {} cert hits from snapshot, {} dumps ({} failed), {} load warnings\n",
                sn.restored_entries,
                age,
                sn.snapshot_hits,
                sn.cert_snapshot_hits,
                sn.dumps,
                sn.dump_failures,
                sn.load_warnings,
            ));
        }
        if let Some(serve) = &self.serve {
            out.push_str(&format!(
                "serve stats: {} connections ({} closed), {} pending now, {} overload-rejected, {} oversize-rejected, {} wire errors, {} dropped mid-response\n",
                serve.connections_opened,
                serve.connections_closed,
                serve.pending_now,
                serve.rejected_overload,
                serve.rejected_line_bytes,
                serve.wire_errors,
                serve.dropped_mid_response,
            ));
            let recycles: Vec<String> = serve
                .worker_queries
                .iter()
                .zip(&serve.worker_recycles)
                .enumerate()
                .map(|(w, (q, r))| format!("w{w}:{q}q/{r}r"))
                .collect();
            out.push_str(&format!(
                "worker stats: {} workers [{}] (queries/recycles)\n",
                serve.worker_queries.len(),
                recycles.join(" "),
            ));
        }
        out
    }

    /// The machine-readable rendering: one JSON object (`--stats
    /// --json` emits it as a single line on stderr). Field names are
    /// part of the wire contract and covered by a parse test:
    /// `engine.*` (the [`DeciderStats`] counters, including
    /// `starfree_hits`/`prefix_hits`/`fastpath_fallbacks`), `expr.*`,
    /// `arena.*`, `queries`/`elapsed_micros`/`qps`, `ops.<op>` with
    /// `count`/`mean_ns`/`p50_ns`/`p99_ns`/`p999_ns` and log-bucketed
    /// `buckets: [[lower_ns, count], …]`, and `serve.*` when serving
    /// sockets.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let t = &self.totals;
        let int = |n: u64| Json::Int(i64::try_from(n).unwrap_or(i64::MAX));
        let mut fields = vec![
            ("v".to_owned(), Json::Int(WIRE_VERSION)),
            ("queries".to_owned(), int(self.queries)),
            (
                "elapsed_micros".to_owned(),
                int(u64::try_from(self.elapsed.as_micros()).unwrap_or(u64::MAX)),
            ),
            (
                "qps".to_owned(),
                Json::Int((self.qps().round() as i64).max(0)),
            ),
            ("engine".to_owned(), decider_stats_json(&t.engine)),
            (
                "expr".to_owned(),
                Json::Obj(vec![
                    ("nodes".to_owned(), int(t.expr_nodes)),
                    ("subterms".to_owned(), int(t.expr_subterms)),
                    (
                        "interned".to_owned(),
                        int(nka_syntax::interned_expr_count() as u64),
                    ),
                ]),
            ),
            ("arena".to_owned(), arena_stats_json(t.engine_recycles)),
        ];
        let mut ops = Vec::new();
        for kind in OPS {
            let h = self.ops.op(kind);
            if h.count() == 0 {
                continue;
            }
            let buckets = h
                .nonzero_buckets()
                .into_iter()
                .map(|(lower, n)| Json::Arr(vec![int(lower), int(n)]))
                .collect();
            ops.push((
                kind.op().to_owned(),
                Json::Obj(vec![
                    ("count".to_owned(), int(h.count())),
                    ("mean_ns".to_owned(), int(h.mean_ns())),
                    ("p50_ns".to_owned(), int(h.quantile(0.50))),
                    ("p99_ns".to_owned(), int(h.quantile(0.99))),
                    ("p999_ns".to_owned(), int(h.quantile(0.999))),
                    ("buckets".to_owned(), Json::Arr(buckets)),
                ]),
            ));
        }
        fields.push(("ops".to_owned(), Json::Obj(ops)));
        fields.push((
            "analysis".to_owned(),
            Json::Obj(vec![
                (
                    "findings".to_owned(),
                    Json::Obj(
                        PASS_NAMES
                            .iter()
                            .zip(t.analysis.findings_by_pass)
                            .map(|(pass, n)| ((*pass).to_owned(), int(n)))
                            .collect(),
                    ),
                ),
                (
                    "findings_total".to_owned(),
                    int(t.analysis.findings_total()),
                ),
                ("tier_b_decides".to_owned(), int(t.analysis.tier_b_decides)),
                (
                    "cert_cache_hits".to_owned(),
                    int(t.analysis.cert_cache_hits),
                ),
            ]),
        ));
        fields.push((
            "optimize".to_owned(),
            Json::Obj(vec![
                ("queries".to_owned(), int(t.optimize.queries)),
                ("steps_applied".to_owned(), int(t.optimize.steps_applied)),
                (
                    "steps".to_owned(),
                    Json::Obj(
                        RULE_METADATA
                            .iter()
                            .zip(t.optimize.steps_by_rule)
                            .map(|(meta, n)| (meta.name.to_owned(), int(n)))
                            .collect(),
                    ),
                ),
                (
                    "candidates_refuted".to_owned(),
                    int(t.optimize.candidates_refuted),
                ),
                ("fixpoints".to_owned(), int(t.optimize.fixpoints)),
                ("budget_bails".to_owned(), int(t.optimize.budget_bails)),
                ("cycle_breaks".to_owned(), int(t.optimize.cycle_breaks)),
                ("engine_decides".to_owned(), int(t.optimize.engine_decides)),
                (
                    "cert_cache_hits".to_owned(),
                    int(t.optimize.cert_cache_hits),
                ),
            ]),
        ));
        let sn = &t.snapshot;
        fields.push((
            "snapshot".to_owned(),
            Json::Obj(vec![
                ("restored_entries".to_owned(), int(sn.restored_entries)),
                ("snapshot_hits".to_owned(), int(sn.snapshot_hits)),
                ("cert_snapshot_hits".to_owned(), int(sn.cert_snapshot_hits)),
                ("load_warnings".to_owned(), int(sn.load_warnings)),
                ("dumps".to_owned(), int(sn.dumps)),
                ("dump_failures".to_owned(), int(sn.dump_failures)),
                (
                    "age_secs".to_owned(),
                    sn.loaded_created_unix_secs.map_or(Json::Null, |created| {
                        int(crate::snapshot::now_unix_secs().saturating_sub(created))
                    }),
                ),
            ]),
        ));
        if let Some(serve) = &self.serve {
            fields.push((
                "serve".to_owned(),
                Json::Obj(vec![
                    (
                        "connections_opened".to_owned(),
                        int(serve.connections_opened),
                    ),
                    (
                        "connections_closed".to_owned(),
                        int(serve.connections_closed),
                    ),
                    ("pending_now".to_owned(), int(serve.pending_now)),
                    ("rejected_overload".to_owned(), int(serve.rejected_overload)),
                    (
                        "rejected_line_bytes".to_owned(),
                        int(serve.rejected_line_bytes),
                    ),
                    ("wire_errors".to_owned(), int(serve.wire_errors)),
                    (
                        "dropped_mid_response".to_owned(),
                        int(serve.dropped_mid_response),
                    ),
                    (
                        "worker_recycles".to_owned(),
                        Json::Arr(serve.worker_recycles.iter().map(|&n| int(n)).collect()),
                    ),
                    (
                        "worker_queries".to_owned(),
                        Json::Arr(serve.worker_queries.iter().map(|&n| int(n)).collect()),
                    ),
                ]),
            ));
        }
        Json::Obj(fields)
    }
}

/// The [`DeciderStats`] counters as a JSON object — shared between the
/// per-response `stats` field of the wire format and the `--stats
/// --json` report.
#[must_use]
pub fn decider_stats_json(stats: &DeciderStats) -> Json {
    let int = |n: u64| Json::Int(i64::try_from(n).unwrap_or(i64::MAX));
    Json::Obj(vec![
        ("nka_queries".to_owned(), int(stats.nka_queries)),
        ("ka_queries".to_owned(), int(stats.ka_queries)),
        ("answer_hits".to_owned(), int(stats.answer_hits)),
        ("compile_hits".to_owned(), int(stats.compile_hits)),
        ("compile_misses".to_owned(), int(stats.compile_misses)),
        ("dfa_hits".to_owned(), int(stats.dfa_hits)),
        ("dfa_misses".to_owned(), int(stats.dfa_misses)),
        ("starfree_hits".to_owned(), int(stats.starfree_hits)),
        ("prefix_hits".to_owned(), int(stats.prefix_hits)),
        (
            "fastpath_fallbacks".to_owned(),
            int(stats.fastpath_fallbacks),
        ),
    ])
}

/// The process-arena lifecycle figures as a JSON object (the JSON form
/// of the `arena stats:` line).
#[must_use]
pub fn arena_stats_json(engine_recycles: u64) -> Json {
    let int = |n: u64| Json::Int(i64::try_from(n).unwrap_or(i64::MAX));
    Json::Obj(vec![
        (
            "resident_nodes".to_owned(),
            int(nka_syntax::arena_resident_nodes() as u64),
        ),
        (
            "persistent_nodes".to_owned(),
            int(nka_syntax::interned_expr_count() as u64),
        ),
        (
            "scratch_live".to_owned(),
            int(nka_syntax::scratch_live_nodes() as u64),
        ),
        (
            "scratch_retired".to_owned(),
            int(nka_syntax::scratch_retired_total()),
        ),
        (
            "scratch_epochs".to_owned(),
            int(nka_syntax::scratch_epoch()),
        ),
        ("engine_recycles".to_owned(), int(engine_recycles)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block(serve: Option<ServeCounters>) -> StatsBlock {
        let hists = OpHistograms::new();
        hists.record(QueryKind::NkaEq, Duration::from_micros(3));
        hists.record(QueryKind::NkaEq, Duration::from_micros(5));
        hists.record(QueryKind::ProgEq, Duration::from_millis(2));
        let totals = SessionTotals {
            engine: DeciderStats {
                nka_queries: 3,
                starfree_hits: 1,
                ..DeciderStats::default()
            },
            expr_nodes: 10,
            expr_subterms: 7,
            engine_recycles: 2,
            ..SessionTotals::default()
        };
        StatsBlock::new(totals, hists.snapshot(), Duration::from_secs(1), serve)
    }

    #[test]
    fn human_rendering_keeps_the_historical_lines_and_adds_latency() {
        let text = sample_block(None).render_human();
        for needle in [
            "engine stats: 3 NKA",
            "fast-path stats: 1 star-free hits",
            "expr stats: 10 tree nodes over 7 distinct subterms",
            "arena stats:",
            "latency stats: 3 queries",
            "  nka_eq: n=2 p50=",
            "  prog_eq: n=1 p50=",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(!text.contains("serve stats:"), "no serve section expected");
    }

    #[test]
    fn json_rendering_parses_and_carries_the_contract_fields() {
        let serve = ServeCounters {
            connections_opened: 4,
            worker_recycles: vec![1, 0],
            worker_queries: vec![2, 1],
            ..ServeCounters::default()
        };
        let line = sample_block(Some(serve)).to_json().to_string();
        let value = Json::parse(&line).expect("stats JSON parses");
        let engine = value.get("engine").expect("engine section");
        assert_eq!(engine.get("starfree_hits").and_then(Json::as_i64), Some(1));
        assert!(engine.get("prefix_hits").is_some());
        assert!(engine.get("fastpath_fallbacks").is_some());
        let arena = value.get("arena").expect("arena section");
        assert!(arena.get("resident_nodes").and_then(Json::as_i64).is_some());
        let ops = value.get("ops").expect("ops section");
        let nka = ops.get("nka_eq").expect("nka_eq histogram");
        assert_eq!(nka.get("count").and_then(Json::as_i64), Some(2));
        assert!(nka.get("p999_ns").and_then(Json::as_i64).is_some());
        let buckets = nka.get("buckets").and_then(Json::as_array).unwrap();
        assert!(!buckets.is_empty(), "histogram buckets present");
        let serve = value.get("serve").expect("serve section");
        assert_eq!(
            serve.get("connections_opened").and_then(Json::as_i64),
            Some(4)
        );
        assert_eq!(
            serve
                .get("worker_recycles")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn snapshot_section_is_versioned_and_renders_only_when_active() {
        // No snapshot involvement: no human line, but the JSON contract
        // always carries `v` and the zeroed section.
        let quiet = sample_block(None);
        assert!(!quiet.render_human().contains("snapshot stats:"));
        let value = Json::parse(&quiet.to_json().to_string()).unwrap();
        assert_eq!(value.get("v").and_then(Json::as_i64), Some(WIRE_VERSION));
        let snapshot = value.get("snapshot").expect("snapshot section");
        assert_eq!(
            snapshot.get("restored_entries").and_then(Json::as_i64),
            Some(0)
        );
        assert!(matches!(snapshot.get("age_secs"), Some(Json::Null)));
        // With warm-start activity the human line appears and the JSON
        // reports a numeric age.
        let mut warm = sample_block(None);
        warm.totals.snapshot.restored_entries = 9;
        warm.totals.snapshot.snapshot_hits = 4;
        warm.totals.snapshot.cert_snapshot_hits = 2;
        warm.totals.snapshot.dumps = 1;
        warm.totals.snapshot.loaded_created_unix_secs = Some(crate::snapshot::now_unix_secs());
        let text = warm.render_human();
        assert!(
            text.contains("snapshot stats: 9 entries restored"),
            "{text}"
        );
        assert!(text.contains("4 verdict hits + 2 cert hits"), "{text}");
        let value = Json::parse(&warm.to_json().to_string()).unwrap();
        let snapshot = value.get("snapshot").unwrap();
        assert_eq!(
            snapshot.get("snapshot_hits").and_then(Json::as_i64),
            Some(4)
        );
        assert!(snapshot.get("age_secs").and_then(Json::as_i64).is_some());
    }

    #[test]
    fn qps_is_queries_over_elapsed() {
        let block = sample_block(None);
        assert!((block.qps() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn analysis_section_renders_only_when_nonzero_but_is_always_in_json() {
        // All-zero analyzer counters: no human line (the historical
        // line set is unchanged for non-analyze streams), but the JSON
        // contract always carries the section, reading zero.
        let quiet = sample_block(None);
        assert!(!quiet.render_human().contains("analysis stats:"));
        let value = Json::parse(&quiet.to_json().to_string()).unwrap();
        let analysis = value.get("analysis").expect("analysis section");
        assert_eq!(
            analysis.get("tier_b_decides").and_then(Json::as_i64),
            Some(0)
        );
        assert_eq!(
            analysis.get("findings_total").and_then(Json::as_i64),
            Some(0)
        );
        // Non-zero counters: human line lists only the active passes.
        let mut busy = sample_block(None);
        busy.totals.analysis.tier_b_decides = 4;
        busy.totals.analysis.cert_cache_hits = 1;
        busy.totals.analysis.findings_by_pass[0] = 2; // unused_qubit
        busy.totals.analysis.findings_by_pass[5] = 1; // dead_branch
        let text = busy.render_human();
        assert!(
            text.contains(
                "analysis stats: 3 findings [unused_qubit:2 dead_branch:1], \
                 4 Tier B decides, 1 certificate cache hits"
            ),
            "{text}"
        );
        let value = Json::parse(&busy.to_json().to_string()).unwrap();
        let findings = value.get("analysis").unwrap().get("findings").unwrap();
        assert_eq!(findings.get("dead_branch").and_then(Json::as_i64), Some(1));
        assert_eq!(findings.get("metrics").and_then(Json::as_i64), Some(0));
    }

    #[test]
    fn optimize_section_renders_only_when_nonzero_but_is_always_in_json() {
        // All-zero optimizer counters: no human line, but the JSON
        // contract always carries the section, reading zero.
        let quiet = sample_block(None);
        assert!(!quiet.render_human().contains("optimize stats:"));
        let value = Json::parse(&quiet.to_json().to_string()).unwrap();
        let optimize = value.get("optimize").expect("optimize section");
        assert_eq!(optimize.get("queries").and_then(Json::as_i64), Some(0));
        assert_eq!(
            optimize.get("steps_applied").and_then(Json::as_i64),
            Some(0)
        );
        // Non-zero counters: human line lists only the rules that fired.
        let mut busy = sample_block(None);
        busy.totals.optimize.queries = 2;
        busy.totals.optimize.steps_applied = 3;
        let abort_sink = nka_qprog::optimize::rule_index("abort-sink").unwrap();
        let dead_branch = nka_qprog::optimize::rule_index("dead-branch").unwrap();
        busy.totals.optimize.steps_by_rule[abort_sink] = 2;
        busy.totals.optimize.steps_by_rule[dead_branch] = 1;
        busy.totals.optimize.candidates_refuted = 1;
        busy.totals.optimize.fixpoints = 2;
        busy.totals.optimize.engine_decides = 5;
        busy.totals.optimize.cert_cache_hits = 2;
        let text = busy.render_human();
        assert!(
            text.contains(
                "optimize stats: 2 queries, 3 steps [dead-branch:1 abort-sink:2], \
                 1 refuted, 2 fixpoints, 0 budget bails, 0 cycle breaks, \
                 5 engine decides, 2 certificate cache hits"
            ),
            "{text}"
        );
        let value = Json::parse(&busy.to_json().to_string()).unwrap();
        let steps = value.get("optimize").unwrap().get("steps").unwrap();
        assert_eq!(steps.get("abort-sink").and_then(Json::as_i64), Some(2));
        assert_eq!(steps.get("gate-fusion").and_then(Json::as_i64), Some(0));
    }
}
