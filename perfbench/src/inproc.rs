//! The in-process workloads: one `Session`, driven line by line through
//! `wire::decode_request → Session::run → wire::encode_response`, closed
//! loop (the next line is sent when the previous answer is back).

use crate::check::check;
use crate::gen::{Expect, Gen, Item, Mix, Rng};
use crate::trace::LayerRun;
use crate::{median, peak_rss_mb, Args, Latencies, Report, SETUP_REPS};
use nka_core::api::{wire, Session};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct looped `prog_eq` pairs plus ~20% `optimize`/`analyze`.
    LoopsCold,
    /// ~90% re-issued hot lines (verdict-cache reads), ~10% fresh lines.
    LoopFreeWarm,
}

/// `loops_cold` pre-generates this many lines; a run stops early if it
/// ever answers them all.
const LOOPS_POOL: usize = 2000;
/// `loopfree_warm` hot-set size and the share of traffic re-issuing it.
pub const HOT_SET: usize = 1024;
pub const HOT_SHARE: usize = 90;
/// `peak_rss_mb` is read once this many queries have been answered (or
/// at the end of a shorter run): fresh lines grow the session's caches,
/// so reading at a fixed amount of work keeps a faster session from
/// reporting more memory merely for having answered more lines.
const RSS_AT_COLD: u64 = 270;
const RSS_AT_WARM: u64 = 30_000;
/// `loopfree_warm` figures are medians over chunks of this many queries;
/// `loops_cold` has too few queries to chunk and reports whole-run figures.
const LOOPFREE_CHUNK: usize = 4096;

/// A fixed looped pair that warms the code paths of the generic decide
/// before `loops_cold` starts; its encodings are scratch, so it leaves
/// no cache entry any measured line could hit.
const LOOPS_PRIME: &str = r#"{"op":"prog_eq","p":"qubits 1; while q0 { h q0 }","q":"qubits 1; if q0 { h q0; while q0 { h q0 } } else { }"}"#;

/// decode → run → encode: what a client of the session sees for one line.
pub fn run_line(session: &mut Session, line: &str) -> String {
    match wire::decode_request(line) {
        Ok(Some(query)) => {
            let resp = session.run(&query);
            wire::encode_response(&query, &resp)
        }
        Ok(None) => String::new(),
        Err(err) => wire::encode_error(&err),
    }
}

/// Everything a run needs once set up.
struct Prepared {
    session: Session,
    lines: Vec<Item>,
    /// Priming answers, checked after the set-up clock stops.
    primed: Vec<(Expect, String)>,
}

fn prepare(wl: Workload, seed: u64, rep: u64) -> Prepared {
    match wl {
        Workload::LoopsCold => {
            let mut gen = Gen::new(Mix::Looped, seed, 0);
            let lines = (0..LOOPS_POOL).map(|_| gen.next_item()).collect();
            let mut session = Session::new();
            let primed = vec![(Expect::Verdict(true), run_line(&mut session, LOOPS_PRIME))];
            Prepared {
                session,
                lines,
                primed,
            }
        }
        Workload::LoopFreeWarm => {
            let mut gen = Gen::new(Mix::Hot, seed, 10 + rep);
            let lines: Vec<Item> = (0..HOT_SET).map(|_| gen.next_item()).collect();
            let mut session = Session::new();
            // Two passes: the first decides and promotes, the second
            // settles every line into its steady (cached) state.
            for item in &lines {
                run_line(&mut session, &item.line);
            }
            let primed = lines
                .iter()
                .map(|item| (item.expect.clone(), run_line(&mut session, &item.line)))
                .collect();
            Prepared {
                session,
                lines,
                primed,
            }
        }
    }
}

fn count_failures(results: &[(Expect, String)]) -> u64 {
    let mut failed = 0;
    for (expect, out) in results {
        if let Err(err) = check(expect, out) {
            failed += 1;
            eprintln!("wrong priming answer: {err}: {out}");
        }
    }
    failed
}

/// Answers `item` on the traced session, if this is a traced run.
fn trace_line(layer: &mut Option<LayerRun>, item: &Item, lat: &mut Latencies, failed: &mut u64) {
    if let Some(layer) = layer {
        let (out, e2e) = layer.run_line(&item.line);
        lat.push(e2e);
        *failed += u64::from(check(&item.expect, &out).is_err());
    }
}

pub fn run(args: &Args, wl: Workload) -> Result<Report, String> {
    // Set-up, repeated; each repetition builds its own inputs and
    // session (the hot set of repetition r uses stream r, so each one
    // interns fresh terms), and the last one is kept.
    let mut setup_times = Vec::new();
    let mut prepared = None;
    for rep in 0..SETUP_REPS as u64 {
        drop(prepared.take());
        let t0 = Instant::now();
        let p = prepare(wl, args.seed, rep);
        setup_times.push(t0.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let Prepared {
        mut session,
        lines,
        primed,
    } = prepared.expect("at least one set-up");
    let mut setup_failures = count_failures(&primed);
    // The traced run drives a second, identically prepared session.
    let mut layer = if args.trace {
        let twin = prepare(wl, args.seed, SETUP_REPS as u64 - 1);
        setup_failures += count_failures(&twin.primed);
        Some(LayerRun::new(twin.session))
    } else {
        None
    };

    let mut fresh = Gen::new(Mix::Fresh, args.seed, 1);
    for item in &lines {
        fresh.exclude(&item.line);
    }
    let mut pick = Rng::stream(args.seed, 2);
    let mut lat = Latencies::new(match wl {
        Workload::LoopsCold => usize::MAX,
        Workload::LoopFreeWarm => LOOPFREE_CHUNK,
    });
    let mut traced_lat = Latencies::new(usize::MAX);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut next = 0usize;
    let rss_at = match wl {
        Workload::LoopsCold => RSS_AT_COLD,
        Workload::LoopFreeWarm => RSS_AT_WARM,
    };
    let mut peak_rss = None;
    let deadline = Instant::now() + args.seconds;
    while Instant::now() < deadline {
        let owned;
        let item = match wl {
            Workload::LoopsCold => {
                let Some(item) = lines.get(next) else { break };
                next += 1;
                item
            }
            Workload::LoopFreeWarm => {
                if pick.percent(HOT_SHARE) {
                    &lines[pick.below(lines.len())]
                } else {
                    owned = fresh.next_item();
                    &owned
                }
            }
        };
        // The traced run alternates which session goes first, so neither
        // side of the overhead figure gets the warmer caches.
        let traced_first = attempted % 2 == 1;
        if traced_first {
            trace_line(&mut layer, item, &mut traced_lat, &mut failed);
        }
        let t0 = Instant::now();
        let out = run_line(&mut session, &item.line);
        lat.push(t0.elapsed());
        attempted += 1;
        if attempted == rss_at {
            peak_rss = peak_rss_mb(None);
        }
        if let Err(err) = check(&item.expect, &out) {
            failed += 1;
            if failed <= 5 {
                eprintln!(
                    "wrong answer: {err}\n  request:  {}\n  response: {out}",
                    item.line
                );
            }
        }
        if !traced_first {
            trace_line(&mut layer, item, &mut traced_lat, &mut failed);
        }
    }
    if attempted == 0 {
        return Err("no query completed".to_owned());
    }

    let name = match wl {
        Workload::LoopsCold => "loops_cold",
        Workload::LoopFreeWarm => "loopfree_warm",
    };
    let metrics = if let Some(layer) = &layer {
        failed += layer.parity_failures;
        let path = args.out.join(format!("trace-{name}-{}.jsonl", args.seed));
        layer
            .tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "{name}: traced {} queries, {} spans → {}",
            layer.queries,
            layer.tracer.spans.len(),
            path.display()
        );
        layer.metrics(traced_lat.mean_us() - lat.mean_us(), (0.0, 0.0, 0.0))
    } else {
        // loops_cold has too few samples for p99: its tail is p90.
        let tail_q = if wl == Workload::LoopsCold {
            0.90
        } else {
            0.99
        };
        let (p50, tail, qps) = lat.summary(tail_q);
        eprintln!(
            "{name}: {} queries (tail = p{}), {} failed",
            lat.count,
            (tail_q * 100.0) as u32,
            failed
        );
        vec![
            ("setup_s", median(&setup_times), "s"),
            ("qps", qps, "1/s"),
            ("p50_us", p50, "us"),
            ("tail_us", tail, "us"),
            (
                "peak_rss_mb",
                peak_rss.or_else(|| peak_rss_mb(None)).unwrap_or(0.0),
                "MB",
            ),
        ]
    };
    Ok(Report {
        correct: failed == 0 && setup_failures == 0,
        attempted,
        failed,
        metrics,
    })
}
