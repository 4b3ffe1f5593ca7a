//! `nka` — a command-line front end for the NKA toolkit.
//!
//! Every subcommand is a thin adapter over the Query API v1
//! ([`nka_core::api`]): arguments become a typed [`Query`], one warm
//! [`Session`] answers it, and the structured [`Verdict`] is rendered as
//! text or (with `--json`) one JSON line.
//!
//! ```text
//! nka [--budget N] [--stats] [--json] decide '<expr>' '<expr>'
//!                                      decide ⊢NKA e = f
//! nka [--budget N] [--stats] [--json] ka '<expr>' '<expr>'
//!                                      decide ⊢KA e = f (Remark 2.1:
//!                                      language equivalence, = NKA on 1*K)
//! nka [--json] series '<expr>' [max-len]
//!                                      print the truncated power series
//! nka [--budget N] [--json] prove '<lhs>' '<rhs>' [hyp]…
//!                                      search for a rewrite proof under
//!                                      hypotheses of the form 'l = r'
//! nka [--budget N] [--stats] [--json] prog-eq '<prog>' '<prog>'
//!                                      decide Enc(p) = Enc(q) for two
//!                                      quantum while-programs (Def. 4.4,
//!                                      sound by Thm 4.5)
//! nka [--stats] [--json] hoare '<effect>' '<prog>' '<effect>'
//!                                      check {pre} prog {post} via wlp;
//!                                      the verdict carries the Thm 7.8
//!                                      encoded inequality
//! nka [--budget N] [--stats] [--json] analyze '<prog>' [pass…]
//!                                      run the static analyzer: Tier A
//!                                      syntactic lints plus Tier B
//!                                      engine-backed findings, each
//!                                      carrying a replayable prog-eq
//!                                      certificate (dead code ⇔
//!                                      zeroness, Def. 4.4)
//! nka [--budget N] [--stats] [--json] [--max-steps N] [--beam N]
//!     optimize '<prog>' [rule…]        greedily apply the rewrite
//!                                      catalog to fixpoint; every
//!                                      applied step is engine-certified
//!                                      and the result carries a
//!                                      replayable prog-eq certificate
//! nka [--budget N] [--stats] [--json] [--jobs N]
//!     [--max-queries-per-worker N] batch [FILE]
//!                                      run a stream of queries (JSONL or
//!                                      'e = f' per line; FILE or '-' =
//!                                      stdin) on one warm engine, or
//!                                      sharded over N worker sessions
//! nka [--budget N] [--stats] [--json] [--max-queries-per-worker N]
//!     [--max-arena-nodes N] serve
//!                                      line-oriented request/response
//!                                      loop on stdin/stdout
//! nka … serve --listen <addr> [--listen <addr>…] [--workers N]
//!     [--queue-depth N] [--max-pending N] [--stats-interval SECS]
//!                                      concurrent socket server (Serve
//!                                      v2): TCP ('host:port') and Unix
//!                                      ('unix:/path') listeners over a
//!                                      worker pool of warm sessions —
//!                                      see [`nka_core::serve`]
//! nka encode-demo                      encode a sample quantum program
//! ```
//!
//! `--budget N` caps every subset construction and restriction product
//! at `N` states (default 100 000) and `--stats` prints the engine's
//! cache counters, per-stream expression-size accounting, the arena
//! lifecycle footprint
//! (persistent vs scratch nodes, reclamation totals), and per-op
//! latency histograms (p50/p99/p999 + queries/sec) to stderr at exit;
//! with `--json` the report is one machine-readable JSON object instead
//! (same counters, plus the raw log-spaced histogram buckets — see
//! [`nka_core::serve::stats::StatsBlock`]). Every surface answers a
//! line through the one handler [`answer_line`] — a one-shot's
//! arguments become one request line — so the histograms record the
//! same service time (decode + run + encode) everywhere. `--jobs N`
//! (batch only) answers the stream on `N` warm worker sessions
//! ([`run_ordered`]) fed over bounded channels, so it streams live
//! pipelines in bounded memory; verdicts, output order, and exit codes
//! are identical to `--jobs 1`.
//!
//! Memory governance (`serve`/`batch`): `--max-queries-per-worker N`
//! recycles a worker session's engine caches after `N` queries, keeping
//! the entries loaded from `--snapshot`, and recycled workers keep
//! cumulative `--stats`; `serve --max-arena-nodes M` exits with code
//! `3` once the process-wide resident arena exceeds `M` nodes — the
//! supervisor restart is the only way to shed *persistent* arena
//! growth, and the exit is the defense-in-depth backstop behind the
//! scoped reclamation the prover already does per query. The socket server drains first
//! (stops accepting and reading, answers everything already read),
//! then exits — same contract on SIGTERM/SIGINT, with exit code `0`.
//! The wire format of `batch`/`serve` is documented in
//! [`nka_core::api::wire`]; `nka-loadgen` (a sibling binary) replays
//! JSONL corpora over M concurrent socket connections and diffs every
//! response against a sequential in-process session.
//!
//! Exit codes: `0` the judgment holds / a proof was found / output was
//! produced; `1` it does not hold (or no proof was found within the
//! search budget); `2` usage or parse error; `3` the decision engine ran
//! out of its state budget. `batch` exits `0` when every line was
//! answered (whatever the verdicts), `2` if any line was malformed, else
//! `3` if any query exhausted the budget. `serve` exits `0` at end of
//! input, or `3` when `--max-arena-nodes` trips mid-stream.
//!
//! Examples:
//!
//! ```sh
//! cargo run --bin nka -- decide '(p q)* p' 'p (q p)*'
//! cargo run --bin nka -- --json ka 'p + p' 'p'
//! cargo run --bin nka -- series '(a + a)*' 4
//! cargo run --bin nka -- prove 'm1 (m0 p + m1)' 'm1' 'm1 m1 = m1' 'm1 m0 = 0'
//! echo '(p q)* p = p (q p)*' | cargo run --bin nka -- batch --json
//! ```

use nka_core::api::json::Json;
use nka_core::api::{
    answer_line, run_ordered, wire, Answered, ApiError, LineClass, Query, Session, SessionOptions,
    SessionTotals, Verdict, DEFAULT_OPTIMIZE_BEAM, DEFAULT_OPTIMIZE_MAX_STEPS,
};
use nka_core::serve::{ListenAddr, OpHistograms, ServeConfig, Server, StatsBlock};
use nka_core::snapshot::{Snapshot, WarmStart};
use nka_core::Judgment;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// `println!` that tolerates a closed stdout (`nka … | head` must exit
/// cleanly, not panic on EPIPE like the std macro does).
macro_rules! out {
    ($($arg:tt)*) => {{
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

/// `print!` with the same EPIPE tolerance.
macro_rules! out_raw {
    ($($arg:tt)*) => {{
        let _ = write!(std::io::stdout(), $($arg)*);
    }};
}

const EXIT_OK: u8 = 0;
const EXIT_NO: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_BUDGET: u8 = 3;

const USAGE: &str = "usage:\n  nka [--budget N] [--stats] [--json] decide '<expr>' '<expr>'\n  nka [--budget N] [--stats] [--json] ka '<expr>' '<expr>'\n  nka [--json] series '<expr>' [max-len]\n  nka [--budget N] [--json] prove '<lhs>' '<rhs>' ['l = r'…]\n  nka [--budget N] [--stats] [--json] prog-eq '<prog>' '<prog>'\n  nka [--stats] [--json] hoare '<effect>' '<prog>' '<effect>'\n  nka [--budget N] [--stats] [--json] analyze '<prog>' [pass…]\n  nka [--budget N] [--stats] [--json] [--max-steps N] [--beam N]\n      optimize '<prog>' [rule…]\n  nka [--budget N] [--stats] [--json] [--jobs N] [--max-queries-per-worker N]\n      [--snapshot FILE] batch [FILE]   (FILE or '-' = stdin)\n  nka [--budget N] [--stats] [--json] [--max-queries-per-worker N]\n      [--max-arena-nodes N] [--snapshot FILE] serve\n  nka … serve --listen ADDR [--listen ADDR…] [--workers N] [--queue-depth N]\n      [--max-pending N] [--max-line-bytes N] [--stats-interval SECS]\n  nka snapshot dump FILE [CORPUS]   (run CORPUS or stdin, dump warm caches)\n  nka [--json] snapshot inspect FILE\n  nka snapshot verify FILE\n  nka encode-demo\n\nprog-eq decides Enc(p) = Enc(q) for two quantum while-programs (one\nshared encoder setting, Definition 4.4); hoare checks the triple\n{pre} prog {post} via wlp and reports the Theorem 7.8 encoding.\nanalyze lints a program: Tier A passes (unused_qubit, unreachable_code,\nself_inverse_pair, constant_guard, metrics) are purely syntactic;\nTier B passes (dead_branch, redundant_fragment, peephole) are decided\nby the engine and every finding carries a replayable prog-eq\ncertificate. Naming passes after the program restricts the run.\noptimize applies what analyze reports, then re-analyzes to fixpoint:\ngreedy rule application over the catalog (dead-branch, branch-fusion,\ngate-fusion, dead-loop, loop-peeling, double-reset, double-measure,\nabort-sink, uncompute) — every applied step is certified prog-eq by\nthe engine before it lands (refuted candidates are counted, never\napplied), and the result carries the step trace plus a final\nreplayable certificate. Naming rules after the program restricts the\ncatalog (and arms the growing peel direction for 'loop-peeling');\n--max-steps caps the fixpoint iteration (default 32), --beam bounds\nhow many certified candidates are weighed per step (default 1).\nPrograms: 'qubits N; h q0; cnot q0 q1; if q0 {…} else {…}; while q0 {…}'\n(gates: h x y z s t cnot cz swap; also init qK, skip, abort).\nEffects: sums of scaled projectors, e.g. 'I', '0.5 I', 'ket(01)', 'q0=1'.\n\nbatch/serve read one request per line: either JSONL\n  {\"op\":\"nka_eq\",\"lhs\":\"(p q)* p\",\"rhs\":\"p (q p)*\"}\n  (ops: nka_eq, ka_eq, series [expr, max_len], prove [lhs, rhs, hyps],\n   prog_eq [p, q], hoare [pre, prog, post], analyze [prog, passes],\n   optimize [prog, rules, max_steps, beam])\nor the shorthand 'e = f'; '#' comments and blank lines are skipped;\na line that is not valid UTF-8 gets a structured error like any\nmalformed line, and nesting deeper than 256 levels (parentheses,\nstacked stars, blocks, JSON arrays) is a 'nesting too deep' error.\n--jobs N answers a batch on N warm worker sessions, streaming (output\nin input order as it is ready); verdicts, output order, and exit codes\nare identical to --jobs 1. --max-queries-per-worker N recycles a\nsession's engine caches every N queries (memory backstop; verdicts\nunchanged; entries loaded from --snapshot are kept); serve\n--max-arena-nodes N exits 3 once the process-wide resident\nexpression arena exceeds N nodes, so a supervisor can restart it.\n\n--snapshot FILE warm-starts batch/serve from a verdict-cache snapshot\nand re-dumps it on exit and on every engine recycle: decided verdicts\nand analyzer certificates survive restarts. A missing file is a cold\nfirst boot; a corrupt, truncated, or config-mismatched file degrades\nto a cold start with a warning — never to a wrong answer. Every worker\n(batch --jobs N, serve --listen) warm-starts from the loaded entries,\nand each dump is the deduplicated union of the loaded entries and\nwhat every engine, recycled ones included, has decided. 'nka snapshot\ndump|inspect|verify' create and examine snapshot files offline.\n\nserve --listen ADDR starts the concurrent socket server instead of the\nstdin loop: ADDR is 'host:port' (TCP; repeatable) or 'unix:/path'.\n--workers N sizes the pool of warm sessions (default: CPU count, max 8);\n--queue-depth N bounds each connection's in-flight window (backpressure:\nthe server stops reading a connection whose window is full, default 64);\n--max-pending N is the server-wide hard cap past which requests are\nanswered with a structured 'overloaded' error (default 1024);\n--max-line-bytes N rejects longer request lines (default 1 MiB);\n--stats-interval SECS prints a --stats snapshot to stderr periodically.\nSIGTERM/SIGINT (and --max-arena-nodes) drain gracefully: stop accepting,\nanswer every request already read, then exit (0 for signals, 3 for the\narena cap). nka-loadgen replays corpora against the server and diffs\nevery response against a sequential in-process session.\n\nexit codes: 0 holds/proved, 1 does not hold/no proof, 2 usage or parse\nerror, 3 budget exceeded; analyze: 0 clean or info-only findings,\n1 any warning-severity finding; optimize: 0 (the result is always\ncertified — rewritten or returned unchanged), 3 only on setup failure;\nbatch: 0 all answered, 2 any malformed\nline, else 3 any budget-exhausted query; serve: 0 at end of input or\nafter a signal-initiated drain, 3 if --max-arena-nodes tripped";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(EXIT_USAGE)
}

/// Prints the `--stats` report to stderr in the selected format.
fn print_stats(block: &StatsBlock, json: bool) {
    if json {
        eprintln!("{}", block.to_json());
    } else {
        eprint!("{}", block.render_human());
    }
}

/// The value of a flag that takes a positive integer, or the usage
/// error saying why it is missing or invalid.
fn positive<T: FromStr + PartialOrd + Default>(
    flag: &str,
    value: Option<String>,
) -> Result<T, ExitCode> {
    let Some(value) = value else {
        eprintln!("{flag} needs a value");
        return Err(usage());
    };
    match value.parse::<T>() {
        Ok(n) if n > T::default() => Ok(n),
        _ => {
            eprintln!("{flag} needs a positive integer, got {value:?}");
            Err(usage())
        }
    }
}

/// The parsed command line.
#[derive(Default)]
struct Cli {
    budget: Option<usize>,
    stats: bool,
    json: bool,
    jobs: Option<usize>,
    max_queries_per_worker: Option<u64>,
    max_arena_nodes: Option<usize>,
    listen: Vec<ListenAddr>,
    workers: Option<usize>,
    queue_depth: Option<usize>,
    max_pending: Option<usize>,
    max_line_bytes: Option<usize>,
    stats_interval: Option<Duration>,
    snapshot_path: Option<PathBuf>,
    max_steps: Option<usize>,
    beam: Option<usize>,
    rest: Vec<String>,
}

impl Cli {
    /// Parses the arguments (flags may come before or after the
    /// subcommand) and checks which flags apply to which subcommand.
    /// `Err` carries the exit code to leave with: usage errors, and
    /// `--help`.
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, ExitCode> {
        let mut cli = Cli::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--listen" => {
                    let Some(value) = args.next() else {
                        eprintln!("--listen needs an address ('host:port' or 'unix:/path')");
                        return Err(usage());
                    };
                    cli.listen.push(ListenAddr::parse(&value));
                }
                "--workers" => cli.workers = Some(positive(&arg, args.next())?),
                "--queue-depth" => cli.queue_depth = Some(positive(&arg, args.next())?),
                "--max-pending" => cli.max_pending = Some(positive(&arg, args.next())?),
                "--max-line-bytes" => cli.max_line_bytes = Some(positive(&arg, args.next())?),
                "--stats-interval" => {
                    let Some(value) = args.next() else {
                        eprintln!("--stats-interval needs a value in seconds");
                        return Err(usage());
                    };
                    match value.parse::<f64>() {
                        Ok(secs) if secs > 0.0 && secs.is_finite() => {
                            cli.stats_interval = Some(Duration::from_secs_f64(secs));
                        }
                        _ => {
                            eprintln!(
                                "--stats-interval needs a positive number of seconds, got {value:?}"
                            );
                            return Err(usage());
                        }
                    }
                }
                "--budget" => cli.budget = Some(positive(&arg, args.next())?),
                "--jobs" => cli.jobs = Some(positive(&arg, args.next())?),
                "--max-queries-per-worker" => {
                    cli.max_queries_per_worker = Some(positive(&arg, args.next())?);
                }
                "--max-arena-nodes" => cli.max_arena_nodes = Some(positive(&arg, args.next())?),
                "--snapshot" => {
                    let Some(value) = args.next() else {
                        eprintln!("--snapshot needs a file path");
                        return Err(usage());
                    };
                    cli.snapshot_path = Some(PathBuf::from(value));
                }
                "--max-steps" => cli.max_steps = Some(positive(&arg, args.next())?),
                "--beam" => cli.beam = Some(positive(&arg, args.next())?),
                "--stats" => cli.stats = true,
                "--json" => cli.json = true,
                "--help" | "-h" => {
                    // An explicit help request is a success, not a usage error.
                    out!("{USAGE}");
                    return Err(ExitCode::from(EXIT_OK));
                }
                _ => cli.rest.push(arg),
            }
        }

        let command = cli.rest.first().map(String::as_str);
        let misplaced = if cli.jobs.unwrap_or(1) > 1 && command != Some("batch") {
            Some("--jobs only applies to batch")
        } else if cli.max_queries_per_worker.is_some()
            && !matches!(command, Some("batch") | Some("serve"))
        {
            Some("--max-queries-per-worker only applies to batch and serve")
        } else if cli.max_arena_nodes.is_some() && command != Some("serve") {
            Some("--max-arena-nodes only applies to serve")
        } else if !cli.listen.is_empty() && command != Some("serve") {
            Some("--listen only applies to serve")
        } else if cli.snapshot_path.is_some() && !matches!(command, Some("batch") | Some("serve")) {
            Some("--snapshot only applies to batch and serve (see 'nka snapshot dump')")
        } else if (cli.max_steps.is_some() || cli.beam.is_some()) && command != Some("optimize") {
            Some("--max-steps/--beam only apply to optimize")
        } else if cli.listen.is_empty()
            && (cli.workers.is_some()
                || cli.queue_depth.is_some()
                || cli.max_pending.is_some()
                || cli.max_line_bytes.is_some()
                || cli.stats_interval.is_some())
        {
            Some("--workers/--queue-depth/--max-pending/--max-line-bytes/--stats-interval only apply to serve --listen")
        } else {
            None
        };
        if let Some(msg) = misplaced {
            eprintln!("{msg}");
            return Err(usage());
        }
        Ok(cli)
    }
}

fn main() -> ExitCode {
    let cli = match Cli::parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(code) => return code,
    };
    let opts = match SessionOptions::builder()
        .max_dfa_states(cli.budget.unwrap_or(100_000))
        .recycle_after_queries(cli.max_queries_per_worker)
        .build()
    {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("{}", err.render());
            return usage();
        }
    };
    let json = cli.json;
    let rest = &cli.rest;
    // Per-op latency histograms behind `--stats`, recorded by every
    // path (the socket server keeps its own inside the pool).
    let hists = OpHistograms::new();
    let started = Instant::now();
    // What `--stats` reports: the answering sessions' totals, or the
    // socket server's own block.
    let mut totals = SessionTotals::default();
    let mut block: Option<StatsBlock> = None;
    let code = match rest.first().map(String::as_str) {
        Some("serve") if rest.len() == 1 && !cli.listen.is_empty() => {
            let defaults = ServeConfig::default();
            let cfg = ServeConfig {
                session: opts.clone(),
                workers: cli.workers.unwrap_or(defaults.workers),
                queue_depth: cli.queue_depth.unwrap_or(defaults.queue_depth),
                max_pending: cli.max_pending.unwrap_or(defaults.max_pending),
                max_line_bytes: cli.max_line_bytes.unwrap_or(defaults.max_line_bytes),
                max_arena_nodes: cli.max_arena_nodes,
                json,
                snapshot_path: cli.snapshot_path.clone(),
            };
            serve_socket(cfg, &cli.listen, cli.stats_interval, json, &mut block)
        }
        Some(cmd @ ("batch" | "serve"))
            if rest.len() <= 2 && (cmd == "batch" || rest.len() == 1) =>
        {
            let Some(reader) = open_source(rest.get(1).map(String::as_str)) else {
                return ExitCode::from(EXIT_USAGE);
            };
            let mut sink = Sink {
                live: cmd == "serve",
                arena_cap: cli.max_arena_nodes,
                ..Sink::new(json, &hists)
            };
            let warm = cli
                .snapshot_path
                .as_deref()
                .map(|path| WarmStart::open(path, &opts));
            let mut sessions: Vec<Session> = (0..cli.jobs.unwrap_or(1))
                .map(|_| {
                    warm.as_ref()
                        .map_or_else(|| Session::with_options(opts.clone()), WarmStart::session)
                })
                .collect();
            stream(&mut sessions, reader, &mut sink);
            if let (Some(warm), Some(path)) = (&warm, &cli.snapshot_path) {
                sessions.iter().for_each(|session| _ = warm.absorb(session));
                if let Ok(n) = warm.dump() {
                    eprintln!("snapshot: dumped {n} entries to {}", path.display());
                }
            }
            let totals = sessions
                .iter()
                .fold(SessionTotals::default(), |acc, s| acc.merged(&s.totals()));
            block = Some(
                StatsBlock::new(totals, hists.snapshot(), started.elapsed(), None)
                    .with_warm_start(warm.as_deref()),
            );
            ExitCode::from(if sink.arena_tripped {
                EXIT_BUDGET
            } else if sink.live {
                EXIT_OK
            } else {
                sink.code
            })
        }
        Some("snapshot") => return snapshot_cmd(&rest[1..], &opts, json),
        Some("encode-demo") => encode_demo(),
        _ => {
            let Some(query) = one_shot_query(&cli) else {
                return usage();
            };
            let mut session = Session::with_options(opts.clone());
            let code = one_shot(&mut session, json, &hists, query);
            totals = session.totals();
            code
        }
    };
    if cli.stats {
        let block = block
            .unwrap_or_else(|| StatsBlock::new(totals, hists.snapshot(), started.elapsed(), None));
        print_stats(&block, json);
    }
    code
}

/// The query a one-shot subcommand's arguments spell; `None` (a usage
/// error) for an unknown subcommand, a wrong argument count, or a bad
/// series length.
fn one_shot_query(cli: &Cli) -> Option<Result<Query, ApiError>> {
    let [cmd, first, args @ ..] = cli.rest.as_slice() else {
        return None;
    };
    Some(match (cmd.as_str(), args) {
        ("decide", [rhs]) => Query::nka_eq(first, rhs),
        ("ka", [rhs]) => Query::ka_eq(first, rhs),
        ("series", []) => Query::series(first, nka_core::api::DEFAULT_SERIES_MAX_LEN),
        ("series", [raw, ..]) => match raw.parse::<usize>() {
            Ok(max_len) => Query::series(first, max_len),
            Err(_) => {
                eprintln!("max-len must be a non-negative integer, got {raw:?}");
                return None;
            }
        },
        ("prove", [rhs, hyps @ ..]) => Query::prove(first, rhs, hyps),
        ("prog-eq", [q]) => Query::prog_eq(first, q),
        ("hoare", [prog, post]) => Query::hoare(first, prog, post),
        ("analyze", passes) => Query::analyze(first, passes),
        ("optimize", rules) => Query::optimize(
            first,
            rules,
            cli.max_steps.unwrap_or(DEFAULT_OPTIMIZE_MAX_STEPS),
            cli.beam.unwrap_or(DEFAULT_OPTIMIZE_BEAM),
        ),
        _ => return None,
    })
}

/// Runs one CLI-argument query: the arguments become one request line,
/// answered through [`answer_line`] like every wire line, then
/// rendered (human mode adds per-finding carets, the optimizer's step
/// trace, a series term per line, or the checked proof).
fn one_shot(
    session: &mut Session,
    json: bool,
    hists: &OpHistograms,
    query: Result<Query, ApiError>,
) -> ExitCode {
    let query = match query {
        Ok(query) => query,
        Err(err) => {
            eprintln!("{}", err.render());
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let answered = answer_line(session, &wire::encode_request(&query), json)
        .expect("an encoded request is never blank");
    let (query, resp) = match &answered.outcome {
        Ok(pair) => pair,
        Err(err) => {
            eprintln!("{}", err.render());
            return ExitCode::from(EXIT_USAGE);
        }
    };
    hists.record(query.kind(), answered.service);
    if json {
        out!("{}", answered.line);
    } else if let (Query::Series { expr, .. }, Verdict::Series { max_len, terms }) =
        (query, &resp.verdict)
    {
        // The wire rendering is one line per response; interactively a
        // term per line reads better.
        out!("{{{{{expr}}}}} up to length {max_len}:");
        for (word, coeff) in terms {
            out!("  {coeff} · {word}");
        }
        if terms.is_empty() {
            out!("  (the zero series)");
        }
    } else if let (Query::Analyze { prog, .. }, Verdict::Analysis { findings }) =
        (query, &resp.verdict)
    {
        // The wire rendering is one summary line; interactively each
        // finding gets its caret on the program source, plus the
        // replayable certificate for the Tier B (engine-backed) ones.
        out!("{}", answered.line);
        for finding in findings {
            out!();
            out!("{} [{}]", finding.severity, finding.pass);
            out!(
                "{}",
                nka_syntax::render_caret(
                    prog.source(),
                    finding.span.0,
                    finding.span.1,
                    &finding.message,
                )
            );
            if let Some(cert) = &finding.certificate {
                out!(
                    "  certificate: prog-eq {:?} {:?} (expect: {})",
                    cert.p,
                    cert.q,
                    cert.expect
                );
                if let Some(rule) = cert.rule {
                    out!("  rule: {rule}");
                }
            }
        }
    } else if let (
        Query::Optimize { prog, .. },
        Verdict::Optimized {
            optimized,
            steps,
            certificate,
            note,
            ..
        },
    ) = (query, &resp.verdict)
    {
        // The wire rendering is one summary line; interactively the
        // before/after pair plus the full engine-certified step trace
        // (every step names its catalog rule and paper citation) reads
        // better, and the final certificate is printed replay-ready.
        out!("{}", answered.line);
        out!();
        out!("before: {}", prog.source());
        out!("after:  {optimized}");
        for (i, step) in steps.iter().enumerate() {
            out!();
            out!(
                "step {}: {} @ {}..{}",
                i + 1,
                step.rule,
                step.span.0,
                step.span.1
            );
            out!("  {}", step.note);
            out!("  cite: {}", step.citation());
        }
        if let Some(note) = note {
            out!();
            out!("note: {note}");
        }
        out!();
        out!(
            "certificate: prog-eq {:?} {:?} (expect: {})",
            certificate.p,
            certificate.q,
            certificate.expect
        );
    } else {
        out!("{}", answered.line);
        if let Verdict::BudgetExhausted { .. } = resp.verdict {
            eprintln!("hint: retry with a larger --budget");
        }
        // The full proof rendering stays a human-surface extra.
        if let (Query::Prove { hyps, .. }, Some(proof)) = (query, &resp.proof) {
            let judgments: Vec<Judgment> = hyps.iter().map(|(l, r)| Judgment::Eq(*l, *r)).collect();
            match proof.check(&judgments) {
                Ok(_) => match nka_core::render::render(proof, &judgments) {
                    Ok(text) => out_raw!("\n{text}"),
                    Err(err) => eprintln!("(rendering failed: {err})"),
                },
                Err(err) => {
                    eprintln!("internal error: prover output failed to re-check: {err}");
                    return ExitCode::from(EXIT_NO);
                }
            }
        }
    }
    ExitCode::from(answered.class.exit_code())
}

/// Opens a stream source: a file, or stdin for `None` / `-`.
fn open_source(source: Option<&str>) -> Option<Box<dyn BufRead>> {
    match source {
        None | Some("-") => Some(Box::new(std::io::stdin().lock())),
        Some(path) => match std::fs::File::open(path) {
            Ok(file) => Some(Box::new(std::io::BufReader::new(file))),
            Err(err) => {
                eprintln!("cannot open {path:?}: {err}");
                None
            }
        },
    }
}

/// The lines of `reader`, numbered from 1 and decoded lossily, the way
/// the socket reader reads: a line that is not valid UTF-8 still gets
/// its structured error answer instead of ending the stream. Stops at
/// the first real read error, which it leaves in `error`.
fn numbered_lines<'a>(
    mut reader: Box<dyn BufRead>,
    error: &'a mut Option<String>,
) -> impl Iterator<Item = (usize, String)> + 'a {
    let mut buf = Vec::new();
    let mut lineno = 0;
    std::iter::from_fn(move || {
        buf.clear();
        lineno += 1;
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => None,
            Ok(_) => {
                if buf.last() == Some(&b'\n') {
                    buf.pop();
                }
                Some((lineno, String::from_utf8_lossy(&buf).into_owned()))
            }
            Err(err) => {
                *error = Some(format!("read error on line {lineno}: {err}"));
                None
            }
        }
    })
}

/// Where a stream's answers go: stdout (unless `snapshot dump`), the
/// latency histograms, stderr carets for malformed lines, and the
/// folded exit code.
struct Sink<'a> {
    json: bool,
    /// Print response lines (`snapshot dump` discards them).
    print: bool,
    /// The stdin `serve` loop: stop quietly once stdout is gone, and
    /// stop with exit `3` once the resident arena passes `arena_cap`.
    live: bool,
    arena_cap: Option<usize>,
    hists: &'a OpHistograms,
    code: u8,
    arena_tripped: bool,
}

impl<'a> Sink<'a> {
    /// A sink that prints every answer, for `batch`.
    fn new(json: bool, hists: &'a OpHistograms) -> Sink<'a> {
        Sink {
            json,
            print: true,
            live: false,
            arena_cap: None,
            hists,
            code: EXIT_OK,
            arena_tripped: false,
        }
    }

    /// Takes the answer (if any) to line `lineno`; `false` stops the
    /// stream.
    fn emit(&mut self, lineno: usize, answered: Option<Answered>) -> bool {
        if let Some(answered) = answered {
            if self.print {
                out!("{}", answered.line);
            }
            match &answered.outcome {
                Ok((query, _)) => self.hists.record(query.kind(), answered.service),
                Err(err) => {
                    eprintln!("{}", err.render());
                    eprintln!("  (line {lineno})");
                }
            }
            self.code = answered.class.fold(self.code);
        }
        if !self.live {
            return true;
        }
        if std::io::stdout().flush().is_err() {
            return false; // downstream went away; exit quietly
        }
        if let Some(cap) = self.arena_cap {
            let resident = nka_syntax::arena_resident_nodes();
            if resident > cap {
                eprintln!(
                    "arena cap exceeded: {resident} resident expression nodes > \
                     --max-arena-nodes {cap}; exiting for worker recycling"
                );
                self.arena_tripped = true;
                return false;
            }
        }
        true
    }
}

/// The one stream loop behind `batch` (with or without `--jobs`), the
/// stdin `serve` loop, and `snapshot dump`: every line of `reader` is
/// answered on `sessions` — inline for one, on warm workers for more —
/// and handed to `sink` in input order. A read error stops the stream
/// after the lines before it are answered, and counts as a malformed
/// line.
fn stream(sessions: &mut [Session], reader: Box<dyn BufRead>, sink: &mut Sink<'_>) {
    let json = sink.json;
    let stop = AtomicBool::new(false);
    let mut read_error = None;
    let lines =
        numbered_lines(reader, &mut read_error).take_while(|_| !stop.load(Ordering::Relaxed));
    run_ordered(
        sessions,
        lines,
        |session, (lineno, line)| (lineno, answer_line(session, &line, json)),
        |(lineno, answered)| {
            if !sink.emit(lineno, answered) {
                stop.store(true, Ordering::Relaxed);
            }
        },
    );
    if let Some(msg) = read_error {
        eprintln!("{msg}");
        sink.code = LineClass::Malformed.fold(sink.code);
    }
}

/// `nka snapshot dump|inspect|verify`: the offline surface of the
/// snapshot format ([`nka_core::snapshot`]).
///
/// * `dump FILE [CORPUS]` — run CORPUS (JSONL / `e = f` lines; `-` or
///   absent = stdin) on a warm session through the batch stream loop,
///   discard the responses, and write the resulting caches to FILE
///   (through a [`WarmStart::create`], which never reads FILE).
///   Exits like `batch` (`2` if any line was malformed), or `2` if the
///   file cannot be written.
/// * `inspect FILE` — print the header and entry counts (one JSON
///   object with `--json`).
/// * `verify FILE` — fully validate magic, version, checksum, and
///   structure; exit 0 iff the snapshot would load.
fn snapshot_cmd(args: &[String], opts: &SessionOptions, json: bool) -> ExitCode {
    match args {
        [cmd, file, corpus @ ..] if cmd == "dump" && corpus.len() <= 1 => {
            let Some(reader) = open_source(corpus.first().map(String::as_str)) else {
                return ExitCode::from(EXIT_USAGE);
            };
            let hists = OpHistograms::new();
            let mut sink = Sink {
                print: false,
                ..Sink::new(json, &hists)
            };
            let warm = WarmStart::create(Path::new(file), opts);
            let mut sessions = [warm.session()];
            stream(&mut sessions, reader, &mut sink);
            warm.absorb(&sessions[0]);
            match warm.dump() {
                Ok(n) => {
                    out!("snapshot: dumped {n} entries to {file}");
                    ExitCode::from(sink.code)
                }
                Err(_) => ExitCode::from(EXIT_USAGE),
            }
        }
        [cmd, file] if cmd == "inspect" => match Snapshot::read(PathBuf::from(file).as_path()) {
            Ok(snap) => {
                let s = snap.summary();
                let int = |n: usize| Json::Int(i64::try_from(n).unwrap_or(i64::MAX));
                if json {
                    out!(
                        "{}",
                        Json::Obj(vec![
                            ("v".to_owned(), Json::Int(i64::from(s.version))),
                            (
                                "created_unix_secs".to_owned(),
                                Json::Int(i64::try_from(s.created_unix_secs).unwrap_or(i64::MAX)),
                            ),
                            (
                                "starfree_max_words".to_owned(),
                                Json::Int(
                                    i64::try_from(s.config.starfree_max_words).unwrap_or(i64::MAX),
                                ),
                            ),
                            ("symbols".to_owned(), int(s.symbols)),
                            ("exprs".to_owned(), int(s.exprs)),
                            ("nka_verdicts".to_owned(), int(s.nka_verdicts)),
                            ("ka_verdicts".to_owned(), int(s.ka_verdicts)),
                            ("certs".to_owned(), int(s.certs)),
                            ("entries".to_owned(), int(s.entry_count())),
                        ])
                    );
                } else {
                    let age =
                        nka_core::snapshot::now_unix_secs().saturating_sub(s.created_unix_secs);
                    out!("snapshot v{} ({file}), written {age}s ago", s.version);
                    out!("config: starfree_max_words={}", s.config.starfree_max_words);
                    out!(
                        "entries: {} ({} NKA + {} KA verdicts, {} certs) over {} exprs / {} symbols",
                        s.entry_count(),
                        s.nka_verdicts,
                        s.ka_verdicts,
                        s.certs,
                        s.exprs,
                        s.symbols,
                    );
                }
                ExitCode::from(EXIT_OK)
            }
            Err(err) => {
                eprintln!("cannot inspect {file}: {err}");
                ExitCode::from(EXIT_NO)
            }
        },
        [cmd, file] if cmd == "verify" => match Snapshot::read(PathBuf::from(file).as_path()) {
            Ok(snap) => {
                out!(
                    "ok: {file} is a valid v{} snapshot with {} entries",
                    snap.summary().version,
                    snap.summary().entry_count()
                );
                ExitCode::from(EXIT_OK)
            }
            Err(err) => {
                eprintln!("invalid snapshot {file}: {err}");
                ExitCode::from(EXIT_NO)
            }
        },
        _ => usage(),
    }
}

/// Minimal POSIX signal plumbing for the socket server: SIGTERM/SIGINT
/// set a flag that [`serve_socket`]'s governor thread turns into a
/// graceful drain. Hand-rolled `signal(2)` binding because the build
/// environment is offline (no `libc`/`signal-hook`); storing to a
/// static atomic is async-signal-safe. (SIGPIPE needs no handling: the
/// Rust runtime ignores it before `main`, so a disconnected client
/// surfaces as an `EPIPE` write error on its own connection only.)
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    #[allow(unsafe_code)]
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    /// Installs the SIGTERM/SIGINT handlers. Call once, before serving.
    #[allow(unsafe_code)]
    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: `signal(2)` with a function pointer of the correct
        // `extern "C" fn(c_int)` ABI; the handler only stores to an
        // atomic, which is async-signal-safe.
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }

    pub fn shutdown_requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn shutdown_requested() -> bool {
        false
    }
}

/// `nka serve --listen …`: the Serve v2 socket server
/// ([`nka_core::serve::server`]). Binds every listener, announces them
/// on stderr, then blocks until a drain completes — triggered by
/// SIGTERM/SIGINT (exit 0) or the `--max-arena-nodes` cap (exit 3,
/// same supervisor contract as the stdin loop). `--stats-interval`
/// prints a full stats snapshot to stderr periodically; the final
/// snapshot is handed back for the exit-time `--stats` report.
fn serve_socket(
    cfg: ServeConfig,
    listen: &[ListenAddr],
    stats_interval: Option<Duration>,
    json: bool,
    block: &mut Option<StatsBlock>,
) -> ExitCode {
    sig::install();
    let server = match Server::bind(cfg, listen) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("cannot listen: {err}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let mut tcp = server.tcp_addrs().iter();
    for addr in listen {
        match addr {
            ListenAddr::Tcp(_) => {
                if let Some(bound) = tcp.next() {
                    eprintln!("listening on tcp:{bound}");
                }
            }
            ListenAddr::Unix(path) => eprintln!("listening on unix:{}", path.display()),
        }
    }

    // Governor: turns the signal flag into a drain. Lives until drain
    // begins for any reason (so it never outlives the server).
    let handle = server.handle();
    let governor = {
        let handle = handle.clone();
        std::thread::spawn(move || loop {
            if sig::shutdown_requested() {
                handle.begin_drain(EXIT_OK, "shutdown signal received");
                return;
            }
            if handle.draining() {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        })
    };
    let snapshotter = stats_interval.map(|period| {
        let handle = handle.clone();
        std::thread::spawn(move || {
            let mut last = Instant::now();
            while !handle.draining() {
                std::thread::sleep(Duration::from_millis(50));
                if last.elapsed() >= period {
                    last = Instant::now();
                    print_stats(&handle.stats_block(), json);
                }
            }
        })
    });

    let code = server.join();
    let _ = governor.join();
    if let Some(thread) = snapshotter {
        let _ = thread.join();
    }
    if let Some(note) = handle.drain_note() {
        eprintln!("drained: {note}");
    }
    *block = Some(handle.stats_block());
    ExitCode::from(code)
}

fn encode_demo() -> ExitCode {
    use nka_qprog::{EncoderSetting, Program};
    use qsim_quantum::{gates, states, Measurement};

    let meas = Measurement::computational_basis(2);
    let h = Program::unitary("h", &gates::hadamard());
    let w = Program::while_loop(["m0", "m1"], &meas, h);
    let mut setting = EncoderSetting::new(2);
    let enc = setting.encode(&w).expect("encoding succeeds");
    out!("program:   {w}");
    out!("encoding:  {enc}");
    let out = w.run(&states::basis_density(2, 1));
    out!("⟦P⟧(|1⟩⟨1|) = |0⟩⟨0| with trace {:.6}", out.trace().re);
    ExitCode::from(EXIT_OK)
}
