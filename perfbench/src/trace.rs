//! The traced run: spans recorded around the calls this benchmark makes
//! into each layer's public functions, and a replay of the decision
//! pipeline beside `Session::run`.
//!
//! Spans stay in memory and are written out as JSON lines when the run
//! ends. Each query gets one id; a span's self time is its duration
//! minus the time its child spans cover. The replay calls the same
//! public functions `Session::run` reaches — surface parse, `Enc`, the
//! star-free tiers or Thompson + ε-elimination, ∞-support determinization,
//! DFA equivalence, rational part + difference, product restriction,
//! zeroness — and its verdict must match the session's for every query;
//! a replay that disagrees would be measuring a different program.

use nka_core::api::json::Json;
use nka_core::api::{wire, AnalysisStats, OptimizeStats, Session};
use nka_qprog::optimize::{self, RuleSet};
use nka_qprog::{analysis, EncoderSetting, HoareTriple, SurfaceEffect, SurfaceProgram};
use nka_semiring::{BigRational, ExtNat};
use nka_syntax::{Expr, ScratchScope, Symbol};
use nka_wfa::ka::support_nfa;
use nka_wfa::nfa::{Dfa, Nfa};
use nka_wfa::starfree::{self, PrefixOutcome};
use nka_wfa::zeroness::{is_zero_series, restrict_to_language};
use nka_wfa::{thompson, DecideError, DecideOptions, DeciderStats, Wfa};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub query: u32,
    pub name: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `false` for replayed work the session did not do for this query
    /// (it answered from a cache): kept in the trace file for parity,
    /// left out of the per-layer figures.
    pub attributed: bool,
}

/// Work counts recorded at the same boundaries as the spans.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub encode_nodes: u64,
    pub encodes: u64,
    pub starfree_attempts: u64,
    pub starfree_answered: u64,
    pub starfree_fallbacks: u64,
    pub thompson_states: u64,
    pub thompson_runs: u64,
    pub dfa_states: u64,
    pub dfa_runs: u64,
    pub diff_states: u64,
    pub diff_runs: u64,
    pub product_states: u64,
    pub reachable_states: u64,
    pub restrict_runs: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    pub query: u32,
    pub counts: Counts,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            query: 0,
            counts: Counts::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            query: self.query,
            name,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            attributed: true,
        });
        self.stack.push(id);
        id
    }

    pub fn end(&mut self, id: u32) {
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
    }

    /// Records a span measured elsewhere (a client round trip) as a root
    /// span of query `query`.
    pub fn record(&mut self, name: &'static str, query: u32, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            query,
            name,
            parent: None,
            start_ns: ns(start),
            end_ns: ns(end),
            attributed: true,
        });
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Marks the spans named in `names` opened at or after span index
    /// `from` as unattributed (the session did not do that work).
    pub fn detach_from(&mut self, from: usize, names: &[&str]) {
        for s in &mut self.spans[from..] {
            if names.contains(&s.name) {
                s.attributed = false;
            }
        }
    }

    /// Per-name `(total self ns, span count)` over attributed spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            if !s.attributed {
                continue;
            }
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(child);
            e.1 += 1;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"query":{},"name":"{}","parent":{parent},"start_ns":{},"end_ns":{},"attributed":{}}}"#,
                s.query, s.name, s.start_ns, s.end_ns, s.attributed
            )?;
        }
        out.flush()
    }
}

/// Product states reachable from the initial vector (BFS over nonzero
/// transition entries) — the sparsity of the dense product.
fn reachable_states(wfa: &Wfa<BigRational>) -> u64 {
    let n = wfa.state_count();
    let mut seen = vec![false; n];
    let mut queue: Vec<usize> = (0..n).filter(|&q| !wfa.initial()[q].is_zero()).collect();
    for &q in &queue {
        seen[q] = true;
    }
    let mats: Vec<_> = wfa.symbols().filter_map(|s| wfa.transition(s)).collect();
    while let Some(i) = queue.pop() {
        for m in &mats {
            for j in 0..n {
                if !seen[j] && !m[(i, j)].is_zero() {
                    seen[j] = true;
                    queue.push(j);
                }
            }
        }
    }
    seen.iter().filter(|&&s| s).count() as u64
}

fn shared_alphabet(e: &Expr, f: &Expr) -> Vec<Symbol> {
    let mut atoms: BTreeSet<Symbol> = e.atoms();
    atoms.extend(f.atoms());
    atoms.into_iter().collect()
}

/// The replay of `Decider::decide`: the star-free tiers for star-free
/// pairs, else the generic automaton pipeline, one span per stage.
pub fn replay_decide(t: &mut Tracer, e: &Expr, f: &Expr) -> Result<bool, DecideError> {
    let opts = DecideOptions::default();
    if e.star_height() == 0 && f.star_height() == 0 {
        t.counts.starfree_attempts += 1;
        match t.time("starfree.prefix", || starfree::prefix_normalize(e, f)) {
            PrefixOutcome::Decided(v) => {
                t.counts.starfree_answered += 1;
                return Ok(v);
            }
            PrefixOutcome::Residual(re, rf) => {
                let max = opts.starfree_max_words;
                let decided = t.time("starfree.multiset", || {
                    let (mut memo, mut inserts) = (HashMap::new(), 0);
                    let l = starfree::eval_product(&re, &mut memo, max, &mut inserts)?;
                    let r = starfree::eval_product(&rf, &mut memo, max, &mut inserts)?;
                    Some(l == r)
                });
                if let Some(v) = decided {
                    t.counts.starfree_answered += 1;
                    return Ok(v);
                }
                t.counts.starfree_fallbacks += 1;
            }
        }
    }
    let alphabet = shared_alphabet(e, f);
    let (ce, cf) = compile_pair(t, e, f);
    let (de, df) = determinize_pair(t, &ce, &cf, &alphabet, Wfa::infinity_support)?;
    if !t.time("nfa.equivalent", || de.equivalent(&df)) {
        return Ok(false);
    }
    let diff = t.time("automaton.rational_diff", || {
        ce.rational_part()
            .difference(&cf.rational_part(), |w| -w.clone())
    });
    t.counts.diff_states += diff.state_count() as u64;
    t.counts.diff_runs += 1;
    let restricted = t.time("zeroness.restrict", || {
        restrict_to_language(&diff, &de.complement())
    });
    let reachable = t.time("bench.reachability", || reachable_states(&restricted));
    t.counts.product_states += restricted.state_count() as u64;
    t.counts.reachable_states += reachable;
    t.counts.restrict_runs += 1;
    Ok(t.time("zeroness.is_zero", || is_zero_series(&restricted)))
}

/// The replay of `Decider::ka_equiv`: Thompson, support DFAs, equivalence.
pub fn replay_ka(t: &mut Tracer, e: &Expr, f: &Expr) -> Result<bool, DecideError> {
    let alphabet = shared_alphabet(e, f);
    let (ce, cf) = compile_pair(t, e, f);
    let (de, df) = determinize_pair(t, &ce, &cf, &alphabet, support_nfa)?;
    Ok(t.time("nfa.equivalent", || de.equivalent(&df)))
}

/// Thompson + ε-elimination of both sides (the engine's `compile`).
fn compile_pair(t: &mut Tracer, e: &Expr, f: &Expr) -> (Wfa<ExtNat>, Wfa<ExtNat>) {
    let (ce, cf, states) = t.time("thompson", || {
        let (te, tf) = (thompson(e), thompson(f));
        let states = (te.state_count() + tf.state_count()) as u64;
        (te.eliminate_epsilon(), tf.eliminate_epsilon(), states)
    });
    t.counts.thompson_states += states;
    t.counts.thompson_runs += 2;
    (ce, cf)
}

/// Subset construction of `to_nfa` of both sides over `alphabet`.
fn determinize_pair(
    t: &mut Tracer,
    ce: &Wfa<ExtNat>,
    cf: &Wfa<ExtNat>,
    alphabet: &[Symbol],
    to_nfa: fn(&Wfa<ExtNat>) -> Nfa,
) -> Result<(Dfa, Dfa), DecideError> {
    let max = DecideOptions::default().max_dfa_states;
    let (de, df) = t.time("nfa.determinize", || {
        let de = to_nfa(ce).determinize(alphabet, max)?;
        let df = to_nfa(cf).determinize(alphabet, max)?;
        Ok::<_, DecideError>((de, df))
    })?;
    t.counts.dfa_states += (de.state_count() + df.state_count()) as u64;
    t.counts.dfa_runs += 2;
    Ok((de, df))
}

fn parse_prog(t: &mut Tracer, src: &str) -> Result<SurfaceProgram, String> {
    t.time("surface.parse", || SurfaceProgram::parse(src))
        .map_err(|e| e.to_string())
}

/// Encodes both programs under one shared setting (inside a scratch
/// scope, as `Session::run` does) and decides `Enc(p) = Enc(q)`.
fn encode_and_decide(
    t: &mut Tracer,
    p: &SurfaceProgram,
    q: &SurfaceProgram,
) -> Result<bool, String> {
    let scope = ScratchScope::enter();
    let (ep, eq) = t
        .time("encode", || {
            let mut setting = EncoderSetting::new(p.dim());
            Ok::<_, nka_qprog::EncodeError>((
                setting.encode(p.program())?,
                setting.encode(q.program())?,
            ))
        })
        .map_err(|e| e.to_string())?;
    t.counts.encode_nodes += (ep.size() + eq.size()) as u64;
    t.counts.encodes += 1;
    let verdict = replay_decide(t, &ep, &eq).map_err(|e| e.to_string());
    drop(scope);
    verdict
}

/// `prog_eq` on two sources the session builds itself (analyzer checks,
/// optimizer candidates): parse, encode, decide.
fn replay_prog_eq(t: &mut Tracer, p: &str, q: &str) -> Result<bool, String> {
    let (p, q) = (parse_prog(t, p)?, parse_prog(t, q)?);
    encode_and_decide(t, &p, &q)
}

fn field<'a>(json: &'a Json, key: &str) -> Result<&'a str, String> {
    json.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("request without {key:?}"))
}

/// What the replay concluded for one request, in the response's terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// `holds` / `refuted` (equalities and triples).
    Verdict(&'static str),
    /// Number of dead-branch findings an `analysis` must carry.
    DeadBranches(usize),
    /// The session's `optimized` output re-certifies against the input.
    Optimized(bool),
}

fn verdict_name(holds: bool) -> &'static str {
    if holds {
        "holds"
    } else {
        "refuted"
    }
}

/// A request's parsed fields — the parsing `wire::decode_request` does.
enum Fields {
    Progs(SurfaceProgram, SurfaceProgram),
    Exprs(Expr, Expr),
    Triple(SurfaceEffect, SurfaceProgram, SurfaceEffect),
    Prog(SurfaceProgram),
}

fn parse_fields(t: &mut Tracer, op: &str, req: &Json) -> Result<Fields, String> {
    Ok(match op {
        "prog_eq" => Fields::Progs(
            parse_prog(t, field(req, "p")?)?,
            parse_prog(t, field(req, "q")?)?,
        ),
        "nka_eq" | "ka_eq" => {
            let (l, r) = (field(req, "lhs")?, field(req, "rhs")?);
            let (l, r) = t
                .time("syntax.parse", || {
                    Ok::<_, nka_syntax::ParseExprError>((l.parse()?, r.parse()?))
                })
                .map_err(|e| e.to_string())?;
            Fields::Exprs(l, r)
        }
        "hoare" => {
            let prog = parse_prog(t, field(req, "prog")?)?;
            let (pre, post) = (field(req, "pre")?, field(req, "post")?);
            let (pre, post) = t
                .time("surface.parse", || {
                    Ok::<_, nka_qprog::ParseProgError>((
                        SurfaceEffect::parse(pre, prog.qubits())?,
                        SurfaceEffect::parse(post, prog.qubits())?,
                    ))
                })
                .map_err(|e| e.to_string())?;
            Fields::Triple(pre, prog, post)
        }
        "analyze" | "optimize" => Fields::Prog(parse_prog(t, field(req, "prog")?)?),
        op => return Err(format!("no replay for op {op:?}")),
    })
}

/// Replays one request line through the layer functions. `response` is
/// the session's answer, needed only by `optimize` (whose final
/// certificate the replay re-decides). The request-field parses sit
/// under a `replay.fields` span: they are the parse share of
/// `wire::decode_request`.
pub fn replay_line(t: &mut Tracer, line: &str, response: &Json) -> Result<Outcome, String> {
    let req = Json::parse(line)?;
    let op = field(&req, "op")?;
    let id = t.begin("replay.fields");
    let fields = parse_fields(t, op, &req);
    t.end(id);
    match fields? {
        Fields::Progs(p, q) => {
            encode_and_decide(t, &p, &q).map(|h| Outcome::Verdict(verdict_name(h)))
        }
        Fields::Exprs(l, r) => {
            let holds = if op == "nka_eq" {
                replay_decide(t, &l, &r)
            } else {
                replay_ka(t, &l, &r)
            };
            holds
                .map(|h| Outcome::Verdict(verdict_name(h)))
                .map_err(|e| e.to_string())
        }
        Fields::Triple(pre, prog, post) => {
            let holds = t.time("hoare.wlp", || {
                HoareTriple::new(pre.matrix(), prog.program(), post.matrix()).holds_partial(1e-8)
            });
            Ok(Outcome::Verdict(verdict_name(holds)))
        }
        Fields::Prog(prog) if op == "analyze" => {
            let passes: Vec<String> = req
                .get("passes")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|p| p.as_str().map(str::to_owned))
                .collect();
            let checks = t.time("analysis.checks", || {
                let _ = analysis::syntactic_findings(&prog, &passes);
                analysis::semantic_checks(&prog, &passes)
            });
            let mut dead = 0;
            for check in checks {
                if replay_prog_eq(t, &check.p, &check.q)? && check.pass == "dead_branch" {
                    dead += 1;
                }
            }
            Ok(Outcome::DeadBranches(dead))
        }
        Fields::Prog(prog) => {
            let rules = RuleSet::from_names(&[] as &[String])?;
            let candidates = t.time("optimize.candidates", || {
                optimize::candidates(&prog, &rules)
            });
            // The session's first greedy round: certify candidates in
            // order until one holds.
            for cand in &candidates {
                if replay_prog_eq(t, prog.source(), &cand.rewritten)? {
                    break;
                }
            }
            let output = field(response, "optimized")?;
            Ok(Outcome::Optimized(replay_prog_eq(
                t,
                prog.source(),
                output,
            )?))
        }
    }
}

/// The session response's outcome, in [`Outcome`] terms.
pub fn session_outcome(response: &Json) -> Option<Outcome> {
    match crate::check::verdict(response)? {
        "holds" => Some(Outcome::Verdict("holds")),
        "refuted" => Some(Outcome::Verdict("refuted")),
        "analysis" => crate::check::dead_branch_findings(response).map(Outcome::DeadBranches),
        "optimized" => Some(Outcome::Optimized(true)),
        _ => None,
    }
}

/// Spans of the decision pipeline proper — detached from a query's
/// figures when the session answered it from a cache.
const DECIDE_SPANS: [&str; 9] = [
    "starfree.prefix",
    "starfree.multiset",
    "thompson",
    "nfa.determinize",
    "nfa.equivalent",
    "automaton.rational_diff",
    "zeroness.restrict",
    "bench.reachability",
    "zeroness.is_zero",
];

impl Counts {
    /// Puts back the decision-pipeline counts of `saved` (see
    /// [`DECIDE_SPANS`]); encode counts stay.
    fn restore_decide(&mut self, saved: &Counts) {
        let (nodes, encodes) = (self.encode_nodes, self.encodes);
        *self = saved.clone();
        self.encode_nodes = nodes;
        self.encodes = encodes;
    }
}

/// The traced half of a run: one traced session whose `decode → run →
/// encode` path is wrapped in spans, plus the replay and its
/// verdict-parity check.
pub struct LayerRun {
    pub tracer: Tracer,
    pub session: Session,
    start: (DeciderStats, AnalysisStats, OptimizeStats),
    pub queries: u64,
    pub parity_failures: u64,
}

fn session_counters(s: &Session) -> (DeciderStats, AnalysisStats, OptimizeStats) {
    (s.stats(), s.analysis_stats(), s.optimize_stats())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl LayerRun {
    pub fn new(session: Session) -> LayerRun {
        LayerRun {
            tracer: Tracer::new(),
            start: session_counters(&session),
            session,
            queries: 0,
            parity_failures: 0,
        }
    }

    /// Answers `line` on the traced session and replays it. Returns the
    /// response line and the traced `decode → run → encode` time.
    pub fn run_line(&mut self, line: &str) -> (String, Duration) {
        let t = &mut self.tracer;
        t.query = self.queries as u32;
        self.queries += 1;
        let before = self.session.stats();
        let root = t.begin("query");
        let decoded = t.time("wire.decode_request", || wire::decode_request(line));
        let out = match decoded {
            Ok(Some(query)) => {
                let session = &mut self.session;
                let resp = t.time("session.run", || session.run(&query));
                t.time("wire.encode_response", || {
                    wire::encode_response(&query, &resp)
                })
            }
            Ok(None) => String::new(),
            Err(err) => wire::encode_error(&err),
        };
        t.end(root);
        let span = &t.spans[root as usize];
        let e2e = Duration::from_nanos(span.end_ns - span.start_ns);
        let d = self.session.stats().delta_since(&before);
        let engine_work = d.compile_misses
            + d.dfa_misses
            + d.starfree_hits
            + d.prefix_hits
            + d.fastpath_fallbacks
            > 0;

        let mark = t.spans.len();
        let saved = t.counts.clone();
        let response = Json::parse(&out).unwrap_or(Json::Null);
        let replay = t.begin("replay");
        let outcome = replay_line(t, line, &response);
        t.end(replay);
        if !engine_work {
            t.detach_from(mark, &DECIDE_SPANS);
            t.counts.restore_decide(&saved);
        }
        match (outcome, session_outcome(&response)) {
            (Ok(replayed), Some(answered)) if replayed == answered => {}
            (replayed, answered) => {
                self.parity_failures += 1;
                if self.parity_failures <= 3 {
                    eprintln!("replay parity: {line} → replay {replayed:?}, session {answered:?}");
                }
            }
        }
        (out, e2e)
    }

    /// The per-layer metrics of everything traced so far.
    /// `serve` is `(service_us, wait_us, shed)` for the socket workload.
    pub fn metrics(
        &self,
        overhead_us: f64,
        serve: (f64, f64, f64),
    ) -> Vec<(&'static str, f64, &'static str)> {
        let st = self.tracer.self_times();
        let n = self.queries.max(1) as f64;
        let us = |name: &str| st.get(name).map_or(0.0, |(ns, _)| *ns as f64 / 1000.0 / n);
        let fields_total: u64 = self
            .tracer
            .spans
            .iter()
            .filter(|s| s.name == "replay.fields")
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let c = &self.tracer.counts;
        let (d0, a0, o0) = self.start;
        let (d1, a1, o1) = session_counters(&self.session);
        let d = d1.delta_since(&d0);
        let cert_hits =
            (a1.cert_cache_hits - a0.cert_cache_hits) + (o1.cert_cache_hits - o0.cert_cache_hits);
        let cert_misses =
            (a1.tier_b_decides - a0.tier_b_decides) + (o1.engine_decides - o0.engine_decides);
        let refuted = o1.candidates_refuted - o0.candidates_refuted;
        let applied = o1.steps_applied - o0.steps_applied;
        let mean = |sum: u64, runs: u64| ratio(sum, runs);
        vec![
            (
                "wire.decode_us",
                (us("wire.decode_request") - fields_total as f64 / 1000.0 / n).max(0.0),
                "us",
            ),
            ("wire.encode_us", us("wire.encode_response"), "us"),
            ("session.run_us", us("session.run"), "us"),
            (
                "session.verdict_hit_ratio",
                ratio(d.answer_hits, d.nka_queries + d.ka_queries),
                "ratio",
            ),
            (
                "session.cert_hit_ratio",
                ratio(cert_hits, cert_hits + cert_misses),
                "ratio",
            ),
            (
                "session.persistent_nodes",
                self.session.memory_stats().arena_persistent_nodes as f64,
                "count",
            ),
            ("surface.parse_us", us("surface.parse"), "us"),
            ("syntax.parse_us", us("syntax.parse"), "us"),
            ("encode.us", us("encode"), "us"),
            (
                "encode.expr_nodes",
                mean(c.encode_nodes, c.encodes),
                "count",
            ),
            ("starfree.prefix_us", us("starfree.prefix"), "us"),
            ("starfree.multiset_us", us("starfree.multiset"), "us"),
            (
                "starfree.answered_ratio",
                ratio(c.starfree_answered, c.starfree_attempts),
                "ratio",
            ),
            ("starfree.fallbacks", c.starfree_fallbacks as f64, "count"),
            ("thompson.us", us("thompson"), "us"),
            (
                "thompson.states",
                mean(c.thompson_states, c.thompson_runs),
                "count",
            ),
            ("nfa.determinize_us", us("nfa.determinize"), "us"),
            ("nfa.dfa_states", mean(c.dfa_states, c.dfa_runs), "count"),
            ("nfa.equivalent_us", us("nfa.equivalent"), "us"),
            (
                "automaton.rational_diff_us",
                us("automaton.rational_diff"),
                "us",
            ),
            (
                "automaton.diff_states",
                mean(c.diff_states, c.diff_runs),
                "count",
            ),
            ("zeroness.restrict_us", us("zeroness.restrict"), "us"),
            (
                "zeroness.product_states",
                mean(c.product_states, c.restrict_runs),
                "count",
            ),
            (
                "zeroness.reachable_ratio",
                ratio(c.reachable_states, c.product_states),
                "ratio",
            ),
            ("zeroness.is_zero_us", us("zeroness.is_zero"), "us"),
            ("optimize.candidates_us", us("optimize.candidates"), "us"),
            (
                "optimize.refuted_ratio",
                ratio(refuted, refuted + applied),
                "ratio",
            ),
            ("analysis.checks_us", us("analysis.checks"), "us"),
            ("serve.service_us", serve.0, "us"),
            ("serve.wait_us", serve.1, "us"),
            ("serve.shed", serve.2, "count"),
            ("trace.overhead_us", overhead_us, "us"),
            ("trace.replayed", self.queries as f64, "count"),
        ]
    }
}
