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
//!   ([`nka_wfa::DeciderStats`], including the tiered-equivalence
//!   `starfree_hits`/`prefix_hits`/`fastpath_fallbacks`), term-size
//!   accounting, process-arena figures, throughput, the per-op
//!   histograms, and (for the socket server) the [`ServeCounters`]
//!   section. `render_human` produces the free-text lines `--stats` has
//!   always printed (now plus latency lines); `to_json` produces the
//!   single machine-readable object `--stats --json` emits instead.

use super::histogram::{fmt_ns, HistogramSnapshot, LatencyHistogram};
use crate::api::json::Json;
use crate::api::wire::WIRE_VERSION;
use crate::api::{MemoryStats, QueryKind, SessionTotals};
use crate::snapshot::WarmStart;
use nka_qprog::analysis::{PASS_NAMES, RULE_METADATA};
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

nka_syntax::counter_table! {
    /// Socket-server counters, present in the stats report only when the
    /// query stream came over `serve --listen`.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct ServeCounters {
        /// Connections accepted over the server's life.
        pub connections_opened: u64,
        /// Connections fully closed (reader gone, queue drained).
        pub connections_closed: u64,
        /// Requests currently queued or running (point-in-time).
        pub pending_now: u64,
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
        /// Requests whose answer panicked: each got a structured
        /// `internal error`, and its worker's session was rebuilt.
        pub worker_panics: u64,
        /// Engine recycles per worker (`--max-queries-per-worker`), indexed
        /// by worker id.
        pub worker_recycles: Vec<u64>,
        /// Queries answered per worker, indexed by worker id.
        pub worker_queries: Vec<u64>,
    }
}

/// Everything one `--stats` report contains. Build it with
/// [`StatsBlock::new`], then call [`StatsBlock::render_human`] or
/// [`StatsBlock::to_json`].
#[derive(Debug, Clone)]
pub struct StatsBlock {
    /// Cumulative counters of every session that answered the stream:
    /// engine, term sizes, recycles, analyzer, optimizer, snapshot.
    pub totals: SessionTotals,
    /// The process arena's figures, read once when the block was built
    /// so both renderings agree with each other and with themselves
    /// (`arena_resident_nodes` is the sum of the other two even while
    /// other threads intern).
    pub memory: MemoryStats,
    /// Queries answered (histogram total; includes every op).
    pub queries: u64,
    /// Wall-clock covered by the report.
    pub elapsed: Duration,
    /// Per-op latency snapshots.
    pub ops: OpSnapshots,
    /// Socket-server section, if the stream was served over sockets.
    pub serve: Option<ServeCounters>,
    /// When the loaded snapshot was written (unix seconds), for the
    /// reported age; `None` if none was loaded.
    pub snapshot_created_unix_secs: Option<u64>,
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
            memory: MemoryStats::capture(totals.engine_recycles, totals.queries),
            totals,
            queries: ops.total(),
            elapsed,
            ops,
            serve,
            snapshot_created_unix_secs: None,
        }
    }

    /// Adds the facts of the snapshot file the stream's sessions were
    /// warmed from (entries restored, load warnings, dumps, age), counted
    /// once for the whole pool.
    #[must_use]
    pub fn with_warm_start(mut self, warm: Option<&WarmStart>) -> StatsBlock {
        if let Some(warm) = warm {
            self.totals.snapshot = self.totals.snapshot.merged(&warm.stats());
            self.snapshot_created_unix_secs = warm.created_unix_secs();
        }
        self
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
        let m = &self.memory;
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
            m.arena_persistent_nodes,
        ));
        out.push_str(&format!(
            "arena stats: {} resident nodes ({} persistent + {} live scratch), {} scratch retired over {} scopes, {} engine recycles\n",
            m.arena_resident_nodes,
            m.arena_persistent_nodes,
            m.scratch_live_nodes,
            m.scratch_retired_total,
            m.scratch_scopes_retired,
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
        if !t.snapshot.is_zero() || self.snapshot_created_unix_secs.is_some() {
            let sn = &t.snapshot;
            let age = self.snapshot_created_unix_secs.map_or_else(
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
                "serve stats: {} connections ({} closed), {} pending now, {} overload-rejected, {} oversize-rejected, {} wire errors, {} dropped mid-response, {} worker panics\n",
                serve.connections_opened,
                serve.connections_closed,
                serve.pending_now,
                serve.rejected_overload,
                serve.rejected_line_bytes,
                serve.wire_errors,
                serve.dropped_mid_response,
                serve.worker_panics,
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
    /// `engine.*` (the [`nka_wfa::DeciderStats`] counters, including
    /// `starfree_hits`/`prefix_hits`/`fastpath_fallbacks`), `expr.*`,
    /// `arena.*`, `queries`/`elapsed_micros`/`qps`, `ops.<op>` with
    /// `count`/`mean_ns`/`p50_ns`/`p99_ns`/`p999_ns` and log-bucketed
    /// `buckets: [[lower_ns, count], …]`, the `analysis`, `optimize` and
    /// `snapshot` counter sections, and `serve.*` when serving sockets.
    /// Every counter section renders its table's `fields()` through
    /// [`counter_entries`].
    #[must_use]
    pub fn to_json(&self) -> Json {
        let t = &self.totals;
        let m = &self.memory;
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
            (
                "engine".to_owned(),
                Json::Obj(counter_entries(&t.engine.fields())),
            ),
            (
                "expr".to_owned(),
                Json::Obj(vec![
                    ("nodes".to_owned(), int(t.expr_nodes)),
                    ("subterms".to_owned(), int(t.expr_subterms)),
                    ("interned".to_owned(), int(m.arena_persistent_nodes as u64)),
                ]),
            ),
            (
                "arena".to_owned(),
                Json::Obj(vec![
                    (
                        "resident_nodes".to_owned(),
                        int(m.arena_resident_nodes as u64),
                    ),
                    (
                        "persistent_nodes".to_owned(),
                        int(m.arena_persistent_nodes as u64),
                    ),
                    ("scratch_live".to_owned(), int(m.scratch_live_nodes as u64)),
                    ("scratch_retired".to_owned(), int(m.scratch_retired_total)),
                    ("scratch_epochs".to_owned(), int(m.scratch_scopes_retired)),
                    ("engine_recycles".to_owned(), int(t.engine_recycles)),
                ]),
            ),
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

        let findings = PASS_NAMES.iter().copied();
        let mut analysis = vec![
            (
                "findings".to_owned(),
                labelled(findings, &t.analysis.findings_by_pass),
            ),
            (
                "findings_total".to_owned(),
                int(t.analysis.findings_total()),
            ),
        ];
        analysis.extend(counter_entries(&t.analysis.fields()));
        fields.push(("analysis".to_owned(), Json::Obj(analysis)));

        // `steps_by_rule` is declared third in `OptimizeStats`, so its
        // `steps` object sits between the first two counters and the rest.
        let mut optimize = counter_entries(&t.optimize.fields());
        let rules = RULE_METADATA.iter().map(|meta| meta.name);
        optimize.insert(
            2,
            (
                "steps".to_owned(),
                labelled(rules, &t.optimize.steps_by_rule),
            ),
        );
        fields.push(("optimize".to_owned(), Json::Obj(optimize)));

        let sn = &t.snapshot;
        let mut snapshot = counter_entries(&sn.fields());
        snapshot.push((
            "age_secs".to_owned(),
            self.snapshot_created_unix_secs
                .map_or(Json::Null, |created| {
                    int(crate::snapshot::now_unix_secs().saturating_sub(created))
                }),
        ));
        fields.push(("snapshot".to_owned(), Json::Obj(snapshot)));

        if let Some(serve) = &self.serve {
            let per_worker = |ns: &[u64]| Json::Arr(ns.iter().map(|&n| int(n)).collect());
            let mut section = counter_entries(&serve.fields());
            section.push((
                "worker_recycles".to_owned(),
                per_worker(&serve.worker_recycles),
            ));
            section.push((
                "worker_queries".to_owned(),
                per_worker(&serve.worker_queries),
            ));
            fields.push(("serve".to_owned(), Json::Obj(section)));
        }
        Json::Obj(fields)
    }
}

/// A count as a JSON integer (saturating at `i64::MAX`).
fn int(n: u64) -> Json {
    Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
}

/// One counter section as JSON object entries: the `(name, value)`
/// pairs of a counter table's `fields()`, in order. The one rendering
/// behind every response's `stats` object, certificate `stats`, and the
/// counter sections of `--stats --json`.
#[must_use]
pub fn counter_entries(fields: &[(&'static str, u64)]) -> Vec<(String, Json)> {
    fields
        .iter()
        .map(|&(name, n)| (name.to_owned(), int(n)))
        .collect()
}

/// Bucketed counters as a JSON object keyed by their labels (pass or
/// rule names), every label present.
fn labelled<'a>(labels: impl Iterator<Item = &'a str>, counts: &[u64]) -> Json {
    Json::Obj(
        labels
            .zip(counts)
            .map(|(label, &n)| (label.to_owned(), int(n)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nka_wfa::DeciderStats;

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
        warm.snapshot_created_unix_secs = Some(crate::snapshot::now_unix_secs());
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

    /// The keys of object `value`, minus `extra` (the labelled arrays
    /// and derived values a section adds to its table's fields).
    fn keys_without(value: &Json, extra: &[&str]) -> Vec<String> {
        let Json::Obj(fields) = value else {
            panic!("not an object: {value}")
        };
        fields
            .iter()
            .map(|(key, _)| key.clone())
            .filter(|key| !extra.contains(&key.as_str()))
            .collect()
    }

    fn names(fields: &[(&'static str, u64)]) -> Vec<String> {
        fields.iter().map(|(name, _)| (*name).to_owned()).collect()
    }

    #[test]
    fn every_counter_section_renders_its_table_fields_in_order() {
        use crate::api::{wire, AnalysisStats, OptimizeStats, Query, Session, SnapshotStats};
        use nka_qprog::CertificateStats;
        let block = sample_block(Some(ServeCounters::default()));
        let value = Json::parse(&block.to_json().to_string()).unwrap();
        let section = |name: &str, extra: &[&str]| keys_without(value.get(name).unwrap(), extra);
        assert_eq!(
            section("engine", &[]),
            names(&DeciderStats::default().fields())
        );
        assert_eq!(
            section("analysis", &["findings", "findings_total"]),
            names(&AnalysisStats::default().fields())
        );
        assert_eq!(
            section("optimize", &["steps"]),
            names(&OptimizeStats::default().fields())
        );
        assert_eq!(
            section("snapshot", &["age_secs"]),
            names(&SnapshotStats::default().fields())
        );
        assert_eq!(
            section("serve", &["worker_recycles", "worker_queries"]),
            names(&ServeCounters::default().fields())
        );
        // The per-response `stats` object and a certificate's `stats`.
        let mut session = Session::new();
        let query = Query::analyze::<&str>("qubits 1; abort; h q0", &[]).unwrap();
        let line = wire::encode_response(&query, &session.run(&query));
        let response = Json::parse(&line).unwrap();
        assert_eq!(
            keys_without(response.get("stats").unwrap(), &[]),
            names(&DeciderStats::default().fields())
        );
        let certificate = response
            .get("findings")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .find_map(|finding| finding.get("certificate"))
            .expect("abort-sink is certified");
        assert_eq!(
            keys_without(certificate.get("stats").unwrap(), &[]),
            names(&CertificateStats::default().fields())
        );
    }

    /// `(resident, persistent, scratch_live, interned)` as one human
    /// rendering reports them.
    fn human_arena_figures(text: &str) -> [u64; 4] {
        let numbers = |line: &str| -> Vec<u64> {
            line.split(|c: char| !c.is_ascii_digit())
                .filter(|s| !s.is_empty())
                .map(|s| s.parse().unwrap())
                .collect()
        };
        let arena = text
            .lines()
            .find(|l| l.starts_with("arena stats:"))
            .unwrap();
        let expr = text.lines().find(|l| l.starts_with("expr stats:")).unwrap();
        let a = numbers(arena);
        [a[0], a[1], a[2], numbers(expr)[2]]
    }

    #[test]
    fn arena_figures_are_read_once_per_report() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Bounded, so a failing assertion below cannot leave
                // the scope waiting on this thread forever.
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) && i < 200_000 {
                    let atom = nka_syntax::Expr::atom(nka_syntax::Symbol::intern(&format!(
                        "stats_arena_race_{i}"
                    )));
                    let _scope = nka_syntax::ScratchScope::enter();
                    let _ = atom.mul(&atom).star();
                    i += 1;
                }
            });
            for _ in 0..200 {
                let block = sample_block(None);
                let json = Json::parse(&block.to_json().to_string()).unwrap();
                let figure = |section: &str, key: &str| {
                    json.get(section)
                        .and_then(|v| v.get(key))
                        .and_then(Json::as_i64)
                        .unwrap()
                };
                assert_eq!(
                    figure("arena", "resident_nodes"),
                    figure("arena", "persistent_nodes") + figure("arena", "scratch_live")
                );
                assert_eq!(
                    figure("expr", "interned"),
                    figure("arena", "persistent_nodes")
                );
                let [resident, persistent, scratch, interned] =
                    human_arena_figures(&block.render_human());
                assert_eq!(resident, persistent + scratch);
                assert_eq!(interned, persistent);
                assert_eq!(persistent, block.memory.arena_persistent_nodes as u64);
            }
            stop.store(true, Ordering::Relaxed);
        });
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
