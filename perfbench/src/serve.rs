//! `serve_fresh`: `nka serve --listen` on loopback TCP with two workers,
//! driven closed-loop over two connections by this process. Every line
//! is new to the server.

use crate::check::check;
use crate::gen::{Gen, Item, Mix};
use crate::trace::LayerRun;
use crate::{median, peak_rss_mb, Args, Latencies, Report, SETUP_REPS};
use nka_core::api::json::Json;
use nka_core::api::Session;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 2;
const WORKERS: &str = "2";
/// Lines each connection sends while priming a freshly started server.
const PRIME_PER_CONNECTION: usize = 16;
/// At most this many traced round trips are replayed.
const REPLAY_CAP: usize = 3000;
/// Figures are medians over chunks of this many round trips of one
/// connection (≥ 10 samples beyond p99 in each).
const CHUNK: usize = 2048;
/// The server's `VmHWM` is read once the connections have answered this
/// many lines together (or at the end of a shorter run), so a faster
/// server is not charged for the extra lines it cached.
const RSS_AT: u64 = 30_000;
const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

fn signal(child: &Child, sig: i32) {
    let pid = i32::try_from(child.id()).expect("pid fits in i32");
    // SAFETY: kill(2) takes two integers and touches no memory of this
    // process; `pid` is our own child, not yet reaped (we hold `child`).
    unsafe {
        kill(pid, sig);
    }
}

/// A running `nka serve --listen` process. Dropping it kills and reaps
/// the process, so no error path leaves a server behind.
struct Server {
    child: Option<Child>,
    stderr: Arc<Mutex<Vec<String>>>,
    reader: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl Server {
    fn spawn(nka: &Path) -> Result<Server, String> {
        let mut child = Command::new(nka)
            .args(["--stats", "--json", "serve", "--listen", "127.0.0.1:0"])
            .args(["--workers", WORKERS])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", nka.display()))?;
        let pipe = child.stderr.take().expect("stderr is piped");
        let stderr = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = mpsc::channel();
        let lines = Arc::clone(&stderr);
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("listening on tcp:") {
                    let _ = tx.send(addr.to_owned());
                }
                lines.lock().expect("stderr log lock").push(line);
            }
        });
        let mut server = Server {
            child: Some(child),
            stderr,
            reader: Some(reader),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let addr = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "server did not report its address".to_owned())?;
        server.addr = addr
            .parse()
            .map_err(|e| format!("bad address {addr}: {e}"))?;
        Ok(server)
    }

    fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// SIGTERM (graceful drain), wait, and return the `--stats --json`
    /// block the server printed at exit.
    fn shutdown(mut self) -> Result<Json, String> {
        let mut child = self.child.take().expect("server is running");
        signal(&child, SIGTERM);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    signal(&child, SIGKILL);
                    let _ = child.wait();
                    return Err("server did not drain within 30 s".to_owned());
                }
            }
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        let log = self.stderr.lock().expect("stderr log lock");
        log.iter()
            .rev()
            .find(|l| l.starts_with('{'))
            .ok_or_else(|| "server printed no stats block".to_owned())
            .and_then(|l| Json::parse(l))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            signal(&child, SIGKILL);
            let _ = child.wait();
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// One client connection: a closed loop of write line → read answer.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    /// Sends one line and waits for its answer; `None` if the server
    /// closed the connection instead of answering.
    fn roundtrip(&mut self, line: &str, buf: &mut String) -> Option<String> {
        buf.clear();
        buf.push_str(line);
        buf.push('\n');
        self.stream.write_all(buf.as_bytes()).ok()?;
        buf.clear();
        match self.reader.read_line(buf) {
            Ok(n) if n > 0 => Some(buf.trim_end().to_owned()),
            _ => None,
        }
    }
}

/// The line stream of connection `c`: every `CONNECTIONS`-th line of one
/// deterministic stream of distinct lines, so connections never overlap.
struct ConnLines {
    gen: Gen,
    index: usize,
    c: usize,
}

impl ConnLines {
    fn next(&mut self) -> Item {
        loop {
            let item = self.gen.next_item();
            self.index += 1;
            if (self.index - 1) % CONNECTIONS == self.c {
                return item;
            }
        }
    }
}

/// Starts a server, connects, primes every connection with lines of
/// its own stream. Returns the server, connections, and priming failures.
fn start(
    args: &Args,
    rep: u64,
    prime_lines: &mut Vec<String>,
) -> Result<(Server, Vec<Conn>, u64), String> {
    let server = Server::spawn(&args.nka)?;
    let mut conns = Vec::new();
    for _ in 0..CONNECTIONS {
        conns.push(Conn::open(server.addr)?);
    }
    let mut prime = Gen::new(Mix::Serve, args.seed, 100 + rep);
    let (mut failed, mut buf) = (0, String::new());
    for conn in &mut conns {
        for _ in 0..PRIME_PER_CONNECTION {
            let item = prime.next_item();
            match conn.roundtrip(&item.line, &mut buf) {
                Some(out) if check(&item.expect, &out).is_ok() => {}
                _ => failed += 1,
            }
            prime_lines.push(item.line);
        }
    }
    Ok((server, conns, failed))
}

/// What one connection thread measured.
struct Driven {
    untraced: Latencies,
    traced: Latencies,
    failed: u64,
    attempted: u64,
    /// Traced round trips: `(line, answer, sent, answered)`, the first
    /// [`REPLAY_CAP`]` / CONNECTIONS` of them, kept for the replay.
    kept: Vec<(Item, String, Instant, Instant)>,
}

/// State the connection threads share: lines answered so far, and the
/// server's `VmHWM` once that count reached [`RSS_AT`].
struct Shared {
    server_pid: u32,
    answered: AtomicU64,
    rss_mb: Mutex<Option<f64>>,
}

fn drive(
    mut conn: Conn,
    mut lines: ConnLines,
    shared: &Shared,
    trace: bool,
    deadline: Instant,
) -> Driven {
    let mut d = Driven {
        untraced: Latencies::new(CHUNK),
        traced: Latencies::new(CHUNK),
        failed: 0,
        attempted: 0,
        kept: Vec::new(),
    };
    let mut buf = String::new();
    while Instant::now() < deadline {
        let item = lines.next();
        // A traced run traces every other round trip, so traced and
        // untraced ones share the same stretch of time.
        let traced = trace && d.attempted % 2 == 1;
        let t0 = Instant::now();
        let out = conn.roundtrip(&item.line, &mut buf);
        let t1 = Instant::now();
        let rtt = t1 - t0;
        d.attempted += 1;
        let Some(out) = out else {
            d.failed += 1;
            eprintln!("connection {} closed without an answer", lines.c);
            break;
        };
        if traced {
            d.traced.push(rtt);
        } else {
            d.untraced.push(rtt);
        }
        // A statistic, publishing nothing else: `Relaxed` suffices.
        if shared.answered.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT {
            *shared.rss_mb.lock().expect("rss lock") = peak_rss_mb(Some(shared.server_pid));
        }
        if let Err(err) = check(&item.expect, &out) {
            d.failed += 1;
            if d.failed <= 5 {
                eprintln!(
                    "wrong answer: {err}\n  request:  {}\n  response: {out}",
                    item.line
                );
            }
        }
        if traced && d.kept.len() < REPLAY_CAP / CONNECTIONS {
            d.kept.push((item, out, t0, t1));
        }
    }
    d
}

fn stat(json: &Json, path: &[&str]) -> f64 {
    let mut cur = json;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_i64().unwrap_or(0) as f64
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut setup_times = Vec::new();
    let mut prime_lines = Vec::new();
    let mut setup_failures = 0;
    let mut started = None;
    for rep in 0..SETUP_REPS as u64 {
        if let Some((server, conns, _)) = started.take() {
            drop(conns);
            Server::shutdown(server)?;
        }
        let t0 = Instant::now();
        let s = start(args, rep, &mut prime_lines)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        setup_failures += s.2;
        started = Some(s);
    }
    let (server, conns, _) = started.expect("at least one set-up");

    // Created before the traffic, so its clock origin precedes every
    // client-side span.
    let layer = args.trace.then(|| LayerRun::new(Session::new()));
    let deadline = Instant::now() + args.seconds;
    let shared = Shared {
        server_pid: server.pid().expect("server is running"),
        answered: AtomicU64::new(0),
        rss_mb: Mutex::new(None),
    };
    let driven: Vec<Driven> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let mut gen = Gen::new(Mix::Serve, args.seed, 0);
                for line in &prime_lines {
                    gen.exclude(line);
                }
                let lines = ConnLines { gen, index: 0, c };
                let shared = &shared;
                scope.spawn(move || drive(conn, lines, shared, args.trace, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let at_count = shared.rss_mb.lock().expect("rss lock").take();
    let peak = at_count
        .or_else(|| peak_rss_mb(server.pid()))
        .ok_or("cannot read the server's VmHWM")?;
    let stats = server.shutdown()?;

    let (mut attempted, mut failed) = (0, 0);
    let (mut untraced, mut traced) = (Latencies::new(CHUNK), Latencies::new(CHUNK));
    let mut kept = Vec::new();
    for d in driven {
        attempted += d.attempted;
        failed += d.failed;
        untraced.merge(d.untraced);
        traced.merge(d.traced);
        kept.extend(d.kept);
    }
    // Server-side failures: wire errors and shed requests are answers a
    // client would count as missing.
    let shed = stat(&stats, &["serve", "rejected_overload"]);
    failed += (stat(&stats, &["serve", "wire_errors"]) + shed) as u64;

    let metrics = if let Some(mut layer) = layer {
        let service_us = {
            let ops = stats.get("ops");
            let (mut weighted, mut count) = (0.0, 0.0);
            if let Some(Json::Obj(ops)) = ops {
                for (_, op) in ops {
                    let n = stat(op, &["count"]);
                    weighted += stat(op, &["mean_ns"]) * n;
                    count += n;
                }
            }
            if count > 0.0 {
                weighted / count / 1000.0
            } else {
                0.0
            }
        };
        let mean_rtt_us =
            (untraced.sum_s + traced.sum_s) * 1e6 / (untraced.count + traced.count).max(1) as f64;
        // The replay runs here, after the traffic, on a local session fed
        // the same lines; its verdicts must match the server's too. Each
        // client round trip becomes a `serve.roundtrip` span of the same
        // query as its replay.
        for (item, server_out, sent, answered) in &kept {
            layer
                .tracer
                .record("serve.roundtrip", layer.queries as u32, *sent, *answered);
            let (local, _) = layer.run_line(&item.line);
            if check(&item.expect, &local).is_err()
                || local_verdict(&local) != local_verdict(server_out)
            {
                failed += 1;
            }
        }
        failed += layer.parity_failures;
        let path = args
            .out
            .join(format!("trace-serve_fresh-{}.jsonl", args.seed));
        layer
            .tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        layer.metrics(
            traced.mean_us() - untraced.mean_us(),
            (service_us, mean_rtt_us - service_us, shed),
        )
    } else {
        // Each chunk holds one connection's round trips, so its busy-time
        // throughput is one connection's; the server carries all of them.
        let (p50, p99, conn_qps) = untraced.summary(0.99);
        eprintln!(
            "serve_fresh: {} queries over {CONNECTIONS} connections (tail = p99), {failed} failed",
            untraced.count
        );
        vec![
            ("setup_s", median(&setup_times), "s"),
            ("qps", conn_qps * CONNECTIONS as f64, "1/s"),
            ("p50_us", p50, "us"),
            ("tail_us", p99, "us"),
            ("peak_rss_mb", peak, "MB"),
        ]
    };
    Ok(Report {
        correct: failed == 0 && setup_failures == 0,
        attempted,
        failed,
        metrics,
    })
}

fn local_verdict(line: &str) -> Option<String> {
    Json::parse(line)
        .ok()
        .and_then(|j| crate::check::verdict(&j).map(str::to_owned))
}
