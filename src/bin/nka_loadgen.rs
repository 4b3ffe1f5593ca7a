//! `nka-loadgen` — a load generator and differential checker for the
//! Serve v2 socket server.
//!
//! ```text
//! nka-loadgen --connect <addr> [--connections M] [--iterations K]
//!             [--rate QPS] [--json] FILE…
//! ```
//!
//! Replays the request lines of the given JSONL corpora (e.g.
//! `tests/data/*.jsonl`) over `M` concurrent connections, `K` passes
//! each, optionally rate-limited to `QPS` queries/sec per connection —
//! and diffs **every** response against what a sequential in-process
//! [`Session`] answers for the same line (the semantics of `nka batch`),
//! comparing [`wire::stable_response_projection`]s so only the volatile
//! per-response `stats`/`micros` fields are excused. Zero tolerance:
//! any divergence is printed and the exit code is `1`.
//!
//! `--connect` takes the same address syntax as `nka serve --listen`
//! (`host:port` or `unix:/path`); `--json` must match the server's
//! `--json` so the expected rendering agrees. The summary line reports
//! client-observed round-trip latency (p50/p99/p999, the CI smoke gate
//! greps for it) and throughput:
//!
//! ```text
//! loadgen: 1200 queries over 4 connections in 0.52s (2307.7 q/s), \
//! p50=183.2µs p99=412.5µs p999=1.1ms, 0 diffs
//! ```
//!
//! Exit codes: `0` every response matched, `1` any diff, `2` usage /
//! connect / IO error.

use nka_core::api::{answer_line, wire, Session};
use nka_core::serve::{fmt_ns, HistogramSnapshot, LatencyHistogram, ListenAddr};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage:\n  nka-loadgen --connect ADDR [--connections M] [--iterations K]\n              [--rate QPS] [--json] FILE…\n\nReplays the request lines of FILE… over M concurrent connections\n(K passes each) against a running `nka serve --listen ADDR` and diffs\nevery response against a sequential in-process session. ADDR is\n'host:port' or 'unix:/path'; pass --json iff the server runs --json.\n--rate caps each connection at QPS queries/sec (default: unlimited).\n\nexit codes: 0 all responses matched, 1 any diff, 2 usage/IO error";

/// One corpus entry: the raw request line and the expected
/// comparison-stable response projection.
struct Item {
    request: String,
    expected: String,
}

/// What one connection worker brings home.
struct WorkerResult {
    hist: HistogramSnapshot,
    queries: u64,
    diffs: u64,
}

fn connect(addr: &ListenAddr) -> std::io::Result<(Box<dyn BufRead + Send>, Box<dyn Write + Send>)> {
    match addr {
        ListenAddr::Tcp(spec) => {
            let stream = TcpStream::connect(spec.as_str())?;
            stream.set_nodelay(true)?;
            let reader = stream.try_clone()?;
            Ok((Box::new(BufReader::new(reader)), Box::new(stream)))
        }
        #[cfg(unix)]
        ListenAddr::Unix(path) => {
            let stream = UnixStream::connect(path)?;
            let reader = stream.try_clone()?;
            Ok((Box::new(BufReader::new(reader)), Box::new(stream)))
        }
        #[cfg(not(unix))]
        ListenAddr::Unix(path) => Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            format!("unix sockets unsupported here: {}", path.display()),
        )),
    }
}

/// Replays the corpus `iterations` times over one connection,
/// round-trip per request, diffing every response.
fn run_connection(
    id: usize,
    addr: &ListenAddr,
    items: &[Item],
    iterations: usize,
    min_gap: Option<Duration>,
) -> Result<WorkerResult, String> {
    let (mut reader, mut writer) =
        connect(addr).map_err(|err| format!("connection {id}: connect failed: {err}"))?;
    let hist = LatencyHistogram::new();
    let mut diffs = 0u64;
    let mut queries = 0u64;
    let mut line = String::new();
    for _ in 0..iterations {
        for item in items {
            let start = Instant::now();
            writer
                .write_all(item.request.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush())
                .map_err(|err| format!("connection {id}: write failed: {err}"))?;
            line.clear();
            let n = reader
                .read_line(&mut line)
                .map_err(|err| format!("connection {id}: read failed: {err}"))?;
            if n == 0 {
                return Err(format!("connection {id}: server closed mid-stream"));
            }
            let elapsed = start.elapsed();
            hist.record(elapsed);
            queries += 1;
            let got = wire::stable_response_projection(&line);
            if got != item.expected {
                diffs += 1;
                if diffs <= 5 {
                    eprintln!(
                        "diff on connection {id}:\n  request:  {}\n  expected: {}\n  got:      {}",
                        item.request, item.expected, got
                    );
                }
            }
            if let Some(gap) = min_gap {
                if elapsed < gap {
                    std::thread::sleep(gap - elapsed);
                }
            }
        }
    }
    Ok(WorkerResult {
        hist: hist.snapshot(),
        queries,
        diffs,
    })
}

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut connect_addr: Option<ListenAddr> = None;
    let mut connections: usize = 4;
    let mut iterations: usize = 1;
    let mut rate: Option<f64> = None;
    let mut json = false;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => match args.next() {
                Some(value) => connect_addr = Some(ListenAddr::parse(&value)),
                None => {
                    eprintln!("--connect needs an address ('host:port' or 'unix:/path')");
                    return usage();
                }
            },
            "--connections" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => connections = n,
                _ => {
                    eprintln!("--connections needs a positive integer");
                    return usage();
                }
            },
            "--iterations" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => iterations = n,
                _ => {
                    eprintln!("--iterations needs a positive integer");
                    return usage();
                }
            },
            "--rate" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(qps) if qps > 0.0 && qps.is_finite() => rate = Some(qps),
                _ => {
                    eprintln!("--rate needs a positive queries/sec figure");
                    return usage();
                }
            },
            "--json" => json = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::from(0);
            }
            _ => files.push(arg),
        }
    }
    let Some(addr) = connect_addr else {
        eprintln!("--connect is required");
        return usage();
    };
    if files.is_empty() {
        eprintln!("at least one corpus FILE is required");
        return usage();
    }

    // Load the corpora and compute the expected projections with one
    // sequential warm session — exactly the semantics of `nka batch`.
    // Verdicts and payloads are cache-independent, so the projections
    // hold for any pool size and interleaving on the server side.
    let mut session = Session::new();
    let mut items: Vec<Item> = Vec::new();
    for path in &files {
        let content = match std::fs::read_to_string(path) {
            Ok(content) => content,
            Err(err) => {
                eprintln!("cannot read {path:?}: {err}");
                return ExitCode::from(2);
            }
        };
        for line in content.lines() {
            // Blank/comment lines are owed no response.
            if let Some(answered) = answer_line(&mut session, line, json) {
                items.push(Item {
                    request: line.to_owned(),
                    expected: wire::stable_response_projection(&answered.line),
                });
            }
        }
    }
    if items.is_empty() {
        eprintln!("the corpora contain no requests");
        return ExitCode::from(2);
    }

    let min_gap = rate.map(|qps| Duration::from_secs_f64(1.0 / qps));
    let items = Arc::new(items);
    let started = Instant::now();
    let handles: Vec<_> = (0..connections)
        .map(|id| {
            let items = Arc::clone(&items);
            let addr = addr.clone();
            std::thread::spawn(move || run_connection(id, &addr, &items, iterations, min_gap))
        })
        .collect();

    let mut hist = HistogramSnapshot::empty();
    let mut queries = 0u64;
    let mut diffs = 0u64;
    let mut failed = false;
    for handle in handles {
        match handle.join() {
            Ok(Ok(result)) => {
                hist.merge(&result.hist);
                queries += result.queries;
                diffs += result.diffs;
            }
            Ok(Err(msg)) => {
                eprintln!("{msg}");
                failed = true;
            }
            Err(_) => {
                eprintln!("a connection worker panicked");
                failed = true;
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let qps = if elapsed > 0.0 {
        queries as f64 / elapsed
    } else {
        0.0
    };
    println!(
        "loadgen: {queries} queries over {connections} connections in {elapsed:.2}s ({qps:.1} q/s), p50={} p99={} p999={}, {diffs} diffs",
        fmt_ns(hist.quantile(0.50)),
        fmt_ns(hist.quantile(0.99)),
        fmt_ns(hist.quantile(0.999)),
    );
    if failed {
        ExitCode::from(2)
    } else if diffs > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::from(0)
    }
}
