//! The concurrent socket server behind `nka serve --listen`.
//!
//! # Architecture
//!
//! ```text
//!  accept loop (per listener, TCP / Unix)        worker pool (N threads)
//!  ───────────────────────────────────────       ───────────────────────
//!  accept → assign connection to a worker   ┌──▶ worker 0: warm Session
//!           (round-robin) and spawn a       │       pop job → answer_line
//!           reader thread                   │       → write to the job's
//!                                           │       conn
//!  reader (per connection)                  │
//!  ──────────────────────                   │    worker 1: warm Session
//!  read one line (byte-capped) ─────────────┘       …
//!    └─ window.acquire()  ◀── backpressure: blocks (stops reading the
//!       push onto the conn's worker queue       socket) while the
//!                                               connection's in-flight
//!                                               window is full
//! ```
//!
//! Every connection is pinned to one worker, so responses come back in
//! request order with no reorder buffer; concurrency comes from many
//! connections spread across workers, each worker owning one warm
//! [`Session`] over the shared persistent arena (expressions are
//! hash-consed process-wide, so workers share interned terms).
//!
//! # Backpressure and overload
//!
//! * **Per-connection window** ([`ServeConfig::queue_depth`]): a reader
//!   blocks acquiring a window slot before enqueuing the next request,
//!   i.e. the server simply *stops reading that connection's socket*
//!   when its queue is full — the kernel's TCP/UDS buffers fill and the
//!   client's writes stall. Memory per connection is bounded by
//!   `queue_depth` raw lines.
//! * **Server-wide hard cap** ([`ServeConfig::max_pending`]): past it,
//!   requests are answered *in order* with a structured
//!   `{"v":1,"verdict":"error","error":"overloaded: …"}` line instead of
//!   being run — load is shed without breaking the one-line-in /
//!   one-line-out contract.
//! * **Per-line byte cap** ([`ServeConfig::max_line_bytes`]): an
//!   oversized line is discarded as it streams in (never fully
//!   buffered) and answered with a structured error.
//!
//! # Drain
//!
//! [`ServerHandle::begin_drain`] (used by the CLI's SIGTERM/SIGINT
//! handler) or an exceeded [`ServeConfig::max_arena_nodes`] puts the
//! server into drain: listeners stop accepting, readers stop reading,
//! every request already read is answered and flushed, then workers
//! exit and [`Server::join`] returns the exit code (`0` for a requested
//! shutdown, `3` for the arena cap — the same supervisor contract as
//! the stdin loop).
//!
//! A client that disconnects mid-response costs only its own
//! connection: the write fails (Rust ignores `SIGPIPE`, so it surfaces
//! as `EPIPE`), the connection is marked dead, its remaining queued
//! requests are skipped, and every other connection keeps being served.

use super::stats::{OpHistograms, ServeCounters, StatsBlock};
use crate::api::stream::WORKER_STACK_BYTES;
use crate::api::{answer_line, wire, LineClass, Session, SessionOptions, SessionTotals};
use crate::snapshot::WarmStart;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked connection reads re-check the drain flag (the
/// reader's read timeout). Idle workers and window waiters no
/// longer tick on this: they park on their condvars and are woken by a
/// targeted `notify_one` on enqueue/slot-free (plus `notify_all` at
/// drain transitions), so an idle pool stays asleep instead of waking
/// every pool-size × 10 times a second.
const POLL_TICK: Duration = Duration::from_millis(100);
/// Accept-loop poll interval (listeners are non-blocking so they can
/// observe drain).
const ACCEPT_TICK: Duration = Duration::from_millis(20);
/// How long a response write to a stalled client may block before the
/// connection is declared dead. Bounds drain time under pathological
/// readers.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Where the server listens. Parsed from `--listen`:
/// `unix:/path/to.sock` for a Unix-domain socket, anything else
/// (optionally prefixed `tcp:`) as a TCP `host:port`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenAddr {
    /// A TCP listener on `host:port` (port `0` picks a free port;
    /// query it via [`Server::tcp_addrs`]).
    Tcp(String),
    /// A Unix-domain socket at the given path (any stale file is
    /// replaced; the path is removed again on [`Server::join`]).
    Unix(PathBuf),
}

impl ListenAddr {
    /// Parses a `--listen` argument. Never fails: everything that is
    /// not `unix:`-prefixed is a TCP address (bind reports bad ones).
    #[must_use]
    pub fn parse(arg: &str) -> ListenAddr {
        if let Some(path) = arg.strip_prefix("unix:") {
            ListenAddr::Unix(PathBuf::from(path))
        } else if let Some(rest) = arg.strip_prefix("tcp:") {
            ListenAddr::Tcp(rest.to_owned())
        } else {
            ListenAddr::Tcp(arg.to_owned())
        }
    }
}

/// Configuration of the socket server. `Default` gives the CLI
/// defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Options for each worker's [`Session`] (budget, recycling, …).
    pub session: SessionOptions,
    /// Worker threads, each with one warm session. Defaults to the
    /// machine's available parallelism, clamped to `1..=8`.
    pub workers: usize,
    /// Per-connection in-flight window: how many requests may be
    /// queued/running per connection before the server stops reading
    /// its socket (the backpressure bound).
    pub queue_depth: usize,
    /// Server-wide pending-request hard cap: past it, further requests
    /// are answered with a structured `overloaded` error instead of
    /// being run.
    pub max_pending: usize,
    /// Per-request-line byte hard cap; longer lines are answered with a
    /// structured error without ever being buffered whole.
    pub max_line_bytes: usize,
    /// Exit-3 arena governance, as in the stdin loop: once the
    /// process-wide resident expression arena exceeds this, the server
    /// drains (answering everything already read) and
    /// [`Server::join`] returns `3`.
    pub max_arena_nodes: Option<usize>,
    /// Respond in JSONL (`true`, the `--json` flag) or human text.
    pub json: bool,
    /// Warm-start snapshot file, owned by one [`WarmStart`]: loaded once
    /// at bind and restored into every worker; each worker's recycled
    /// and final caches are merged into its union, which is re-dumped
    /// here on every recycle and when the server drains (SIGTERM or the
    /// arena cap). A missing, corrupt, or mismatched file degrades to a
    /// cold start (with a warning counted) — never to a wrong answer.
    pub snapshot_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            session: SessionOptions::default(),
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(2)
                .clamp(1, 8),
            queue_depth: 64,
            max_pending: 1024,
            max_line_bytes: 1 << 20,
            max_arena_nodes: None,
            json: false,
            snapshot_path: None,
        }
    }
}

/// Either kind of accepted stream, unified behind `Read`/`Write`.
#[derive(Debug)]
enum Socket {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Socket {
    fn try_clone(&self) -> io::Result<Socket> {
        match self {
            Socket::Tcp(s) => s.try_clone().map(Socket::Tcp),
            #[cfg(unix)]
            Socket::Unix(s) => s.try_clone().map(Socket::Unix),
        }
    }

    /// Bounds reads by [`POLL_TICK`] and writes by [`WRITE_TIMEOUT`];
    /// the halves [`Socket::try_clone`] splits off share both.
    fn set_timeouts(&self) -> io::Result<()> {
        let (read, write) = (Some(POLL_TICK), Some(WRITE_TIMEOUT));
        match self {
            Socket::Tcp(s) => s.set_read_timeout(read).and(s.set_write_timeout(write)),
            #[cfg(unix)]
            Socket::Unix(s) => s.set_read_timeout(read).and(s.set_write_timeout(write)),
        }
    }
}

impl Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Socket::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Socket::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Socket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Socket::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Socket::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Socket::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Socket::Unix(s) => s.flush(),
        }
    }
}

/// The per-connection in-flight window (a small counting semaphore).
#[derive(Debug, Default)]
struct Window {
    inflight: Mutex<usize>,
    freed: Condvar,
}

impl Window {
    /// Blocks until the window has room, then takes a slot. Progress is
    /// guaranteed because workers release slots as they answer: every
    /// [`Window::release`] signals `freed`, so a plain (untimed) wait
    /// cannot strand the reader.
    fn acquire(&self, depth: usize) {
        let mut n = self.inflight.lock().unwrap();
        while *n >= depth {
            n = self.freed.wait(n).unwrap();
        }
        *n += 1;
    }

    fn release(&self) {
        let mut n = self.inflight.lock().unwrap();
        *n = n.saturating_sub(1);
        drop(n);
        self.freed.notify_one();
    }
}

/// One accepted connection, shared between its reader thread and the
/// worker that answers it.
#[derive(Debug)]
struct Conn {
    window: Window,
    out: Mutex<Socket>,
    /// Set on the first failed response write (client went away):
    /// remaining queued requests for this connection are skipped.
    dead: AtomicBool,
}

impl Conn {
    /// Writes one response line, its newline pushed onto the owned line
    /// so it leaves in one `write_all` (one segment under `TCP_NODELAY`);
    /// on failure marks the connection dead.
    fn write_line(&self, mut line: String, shared: &Shared) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        line.push('\n');
        let mut out = self.out.lock().unwrap();
        let result = out.write_all(line.as_bytes()).and_then(|()| out.flush());
        if result.is_err() {
            // EPIPE / timeout: this client is gone or wedged. Only its
            // own connection dies — the PR 1 stdout contract, per-socket.
            self.dead.store(true, Ordering::Relaxed);
            shared
                .counters
                .dropped_mid_response
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Why a request was shed instead of run.
#[derive(Debug)]
enum RejectReason {
    Overloaded { pending: usize, cap: usize },
    LineTooLong { cap: usize },
}

impl RejectReason {
    fn message(&self) -> String {
        match self {
            RejectReason::Overloaded { pending, cap } => format!(
                "overloaded: {pending} requests pending exceeds the server cap of {cap}; retry later"
            ),
            RejectReason::LineTooLong { cap } => format!("request line exceeds the {cap}-byte cap"),
        }
    }
}

/// A unit of work for a worker.
#[derive(Debug)]
enum Job {
    /// A request line to decode, run, and answer.
    Run { conn: Arc<Conn>, line: String },
    /// A request answered with a structured error without running.
    Reject {
        conn: Arc<Conn>,
        reason: RejectReason,
    },
}

/// A worker's inbound queue. Multiple readers push; one worker pops.
#[derive(Debug, Default)]
struct WorkerQueue {
    jobs: Mutex<VecDeque<Job>>,
    nonempty: Condvar,
}

impl WorkerQueue {
    fn push(&self, job: Job) {
        self.jobs.lock().unwrap().push_back(job);
        self.nonempty.notify_one();
    }
}

/// Plain counters of the serve layer (see [`ServeCounters`]).
#[derive(Debug, Default)]
struct Counters {
    connections_opened: AtomicU64,
    connections_closed: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_line_bytes: AtomicU64,
    wire_errors: AtomicU64,
    dropped_mid_response: AtomicU64,
    worker_panics: AtomicU64,
}

/// State shared by every thread of one server.
#[derive(Debug)]
struct Shared {
    cfg: ServeConfig,
    started: Instant,
    draining: AtomicBool,
    exit_code: AtomicU8,
    drain_note: Mutex<Option<String>>,
    pending_total: AtomicUsize,
    readers_live: AtomicUsize,
    next_worker: AtomicUsize,
    queues: Vec<WorkerQueue>,
    /// Each worker's latest [`Session::totals`], read by stats snapshots.
    published: Vec<Mutex<SessionTotals>>,
    hists: OpHistograms,
    counters: Counters,
    /// The `--snapshot` file's owner, opened at bind.
    warm: Option<Arc<WarmStart>>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Enters drain mode (idempotent; the first caller's code and note
    /// win). Listeners stop accepting, readers stop reading, queued
    /// requests are still answered.
    fn begin_drain(&self, exit_code: u8, note: &str) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        self.exit_code.store(exit_code, Ordering::SeqCst);
        *self.drain_note.lock().unwrap() = Some(note.to_owned());
        for queue in &self.queues {
            queue.nonempty.notify_all();
        }
    }
}

/// The outcome of one capped line read.
enum LineRead {
    Line(String),
    TooLong,
    Timeout,
    Eof,
}

/// Reads one `\n`-terminated line, accumulating across read timeouts
/// (`acc`/`discarding` persist between calls) and never buffering more
/// than `cap` bytes of an oversized line.
fn read_line_capped<R: BufRead>(
    reader: &mut R,
    acc: &mut Vec<u8>,
    discarding: &mut bool,
    cap: usize,
) -> io::Result<LineRead> {
    loop {
        let available = match reader.fill_buf() {
            Ok(bytes) => bytes,
            Err(err)
                if matches!(
                    err.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                return Ok(LineRead::Timeout)
            }
            Err(err) => return Err(err),
        };
        if available.is_empty() {
            // EOF. A final unterminated line still gets answered, like
            // `BufRead::lines` in the stdin loop.
            if !*discarding && !acc.is_empty() {
                let line = String::from_utf8_lossy(acc).into_owned();
                acc.clear();
                return Ok(LineRead::Line(line));
            }
            return Ok(LineRead::Eof);
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let was_discarding = *discarding;
                if !was_discarding {
                    acc.extend_from_slice(&available[..pos]);
                }
                reader.consume(pos + 1);
                *discarding = false;
                if was_discarding || acc.len() > cap {
                    acc.clear();
                    return Ok(LineRead::TooLong);
                }
                let line = String::from_utf8_lossy(acc).into_owned();
                acc.clear();
                return Ok(LineRead::Line(line));
            }
            None => {
                let n = available.len();
                if !*discarding {
                    acc.extend_from_slice(available);
                    if acc.len() > cap {
                        acc.clear();
                        *discarding = true;
                    }
                }
                reader.consume(n);
            }
        }
    }
}

/// The per-connection reader: pulls byte-capped lines off the socket
/// and enqueues them (through the backpressure window) onto the
/// connection's worker.
fn reader_loop(shared: &Arc<Shared>, conn: &Arc<Conn>, sock: Socket, worker: usize) {
    let mut reader = BufReader::new(sock);
    let mut acc = Vec::new();
    let mut discarding = false;
    loop {
        if shared.draining() || conn.dead.load(Ordering::Relaxed) {
            break;
        }
        let job = match read_line_capped(
            &mut reader,
            &mut acc,
            &mut discarding,
            shared.cfg.max_line_bytes,
        ) {
            Ok(LineRead::Timeout) => continue,
            Ok(LineRead::Eof) | Err(_) => break,
            Ok(LineRead::TooLong) => Job::Reject {
                conn: Arc::clone(conn),
                reason: RejectReason::LineTooLong {
                    cap: shared.cfg.max_line_bytes,
                },
            },
            Ok(LineRead::Line(line)) => Job::Run {
                conn: Arc::clone(conn),
                line,
            },
        };
        // Backpressure: block (i.e. stop reading this socket) until the
        // connection's in-flight window has room. Workers keep
        // answering, so this always makes progress — including during
        // drain, where the line just read is still owed an answer.
        conn.window.acquire(shared.cfg.queue_depth);
        let pending = shared.pending_total.fetch_add(1, Ordering::SeqCst) + 1;
        let job = match job {
            // Past the server-wide hard cap the request is shed — but
            // in order, through the same queue, so the one-response-
            // per-request contract survives overload.
            Job::Run { conn, .. } if pending > shared.cfg.max_pending => Job::Reject {
                conn,
                reason: RejectReason::Overloaded {
                    pending,
                    cap: shared.cfg.max_pending,
                },
            },
            job => job,
        };
        shared.queues[worker].push(job);
    }
}

/// One worker: a warm [`Session`] answering its queue until drain
/// completes (drain + empty queue + no readers left anywhere).
fn worker_loop(shared: &Arc<Shared>, index: usize) {
    let publish = |session: &Session| {
        *shared.published[index].lock().unwrap() = session.totals();
    };
    let mut session = shared.warm.as_ref().map_or_else(
        || Session::with_options(shared.cfg.session.clone()),
        WarmStart::session,
    );
    loop {
        let job = {
            let queue = &shared.queues[index];
            let mut jobs = queue.jobs.lock().unwrap();
            loop {
                if let Some(job) = jobs.pop_front() {
                    break Some(job);
                }
                if shared.draining() && shared.readers_live.load(Ordering::SeqCst) == 0 {
                    break None;
                }
                // Untimed park: [`WorkerQueue::push`] notifies on every
                // enqueue, and both drain entry (`begin_drain`) and the
                // last reader's exit broadcast `notify_all`, so every
                // state change that alters the conditions above also
                // wakes this worker.
                jobs = queue.nonempty.wait(jobs).unwrap();
            }
        };
        let Some(job) = job else { break };
        match job {
            Job::Run { conn, line } => {
                // Blank and comment lines are consumed with no response.
                if let Some(answered) = answer_line(&mut session, &line, shared.cfg.json) {
                    let counters = &shared.counters;
                    match (&answered.outcome, answered.class) {
                        (Ok((query, _)), _) => shared.hists.record(query.kind(), answered.service),
                        (Err(_), LineClass::Internal) => {
                            counters.worker_panics.fetch_add(1, Ordering::Relaxed);
                        }
                        (Err(_), _) => {
                            counters.wire_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    conn.write_line(answered.line, shared);
                    if answered.class != LineClass::Malformed {
                        publish(&session);
                    }
                }
                shared.pending_total.fetch_sub(1, Ordering::SeqCst);
                conn.window.release();
            }
            Job::Reject { conn, reason } => {
                let counter = match reason {
                    RejectReason::Overloaded { .. } => &shared.counters.rejected_overload,
                    RejectReason::LineTooLong { .. } => &shared.counters.rejected_line_bytes,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                conn.write_line(wire::encode_shed(reason.message(), shared.cfg.json), shared);
                shared.pending_total.fetch_sub(1, Ordering::SeqCst);
                conn.window.release();
            }
        }
        // Exit-3 governance, checked between requests like the stdin
        // loop: entering drain still answers everything already read.
        if let Some(cap) = shared.cfg.max_arena_nodes {
            let resident = nka_syntax::arena_resident_nodes();
            if resident > cap {
                shared.begin_drain(
                    3,
                    &format!(
                        "arena cap exceeded: {resident} resident expression nodes > \
                         --max-arena-nodes {cap}; draining for worker recycling"
                    ),
                );
            }
        }
    }
    // Drain: fold this worker's caches into the snapshot's union
    // (deduplication across workers happens there).
    if let Some(warm) = &shared.warm {
        warm.absorb(&session);
    }
    publish(&session);
}

/// A bound listener, before its accept loop starts.
#[derive(Debug)]
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Binds one `--listen` address. A stale Unix socket file from a
    /// previous run is replaced; a live server would have to be stopped
    /// first anyway (the supervisor contract).
    fn bind(addr: &ListenAddr) -> io::Result<Listener> {
        match addr {
            ListenAddr::Tcp(spec) => TcpListener::bind(spec.as_str()).map(Listener::Tcp),
            #[cfg(unix)]
            ListenAddr::Unix(path) => {
                let _ = std::fs::remove_file(path);
                UnixListener::bind(path).map(Listener::Unix)
            }
            #[cfg(not(unix))]
            ListenAddr::Unix(path) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!(
                    "unix sockets unsupported on this platform: {}",
                    path.display()
                ),
            )),
        }
    }

    /// Accepts connections until the server drains.
    fn accept_loop(&self, shared: &Arc<Shared>) {
        let nonblocking = match self {
            Listener::Tcp(listener) => listener.set_nonblocking(true),
            #[cfg(unix)]
            Listener::Unix(listener) => listener.set_nonblocking(true),
        };
        nonblocking.expect("listener nonblocking");
        while !shared.draining() {
            let accepted = match self {
                Listener::Tcp(listener) => listener.accept().map(|(stream, _)| {
                    let _ = stream.set_nodelay(true);
                    Socket::Tcp(stream)
                }),
                #[cfg(unix)]
                Listener::Unix(listener) => {
                    listener.accept().map(|(stream, _)| Socket::Unix(stream))
                }
            };
            match accepted {
                Ok(sock) => start_connection(shared, sock),
                Err(_) => std::thread::sleep(ACCEPT_TICK),
            }
        }
    }
}

/// Registers an accepted stream: assigns it a worker, splits it into a
/// reader half and a shared writer half, and spawns the reader thread.
fn start_connection(shared: &Arc<Shared>, sock: Socket) {
    let _ = sock.set_timeouts();
    let Ok(read_half) = sock.try_clone() else {
        return; // the fd went away between accept and clone
    };
    shared
        .counters
        .connections_opened
        .fetch_add(1, Ordering::Relaxed);
    let worker = shared.next_worker.fetch_add(1, Ordering::Relaxed) % shared.queues.len();
    let conn = Arc::new(Conn {
        window: Window::default(),
        out: Mutex::new(sock),
        dead: AtomicBool::new(false),
    });
    // Count the reader *before* spawning so drain can't conclude "no
    // readers" between accept and thread start.
    shared.readers_live.fetch_add(1, Ordering::SeqCst);
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        reader_loop(&shared, &conn, read_half, worker);
        shared
            .counters
            .connections_closed
            .fetch_add(1, Ordering::Relaxed);
        shared.readers_live.fetch_sub(1, Ordering::SeqCst);
        // Idle workers blocked on their queues must re-check the exit
        // condition once the last reader leaves.
        for queue in &shared.queues {
            queue.nonempty.notify_all();
        }
    });
}

/// A cloneable handle onto a running [`Server`]: stats snapshots and
/// drain control, usable from other threads while `join` blocks.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Whether drain has begun.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.shared.draining()
    }

    /// Starts a graceful drain: stop accepting and reading, answer
    /// everything already read, then exit with `exit_code`.
    pub fn begin_drain(&self, exit_code: u8, note: &str) {
        self.shared.begin_drain(exit_code, note);
    }

    /// The drain note, if drain has begun (e.g. the arena-cap message).
    #[must_use]
    pub fn drain_note(&self) -> Option<String> {
        self.shared.drain_note.lock().unwrap().clone()
    }

    /// Requests queued or running right now.
    #[must_use]
    pub fn pending_now(&self) -> usize {
        self.shared.pending_total.load(Ordering::SeqCst)
    }

    /// A full stats snapshot ([`StatsBlock`]) aggregating every worker.
    #[must_use]
    pub fn stats_block(&self) -> StatsBlock {
        let shared = &self.shared;
        let workers: Vec<SessionTotals> = shared
            .published
            .iter()
            .map(|slot| slot.lock().unwrap().clone())
            .collect();
        let totals = workers
            .iter()
            .fold(SessionTotals::default(), |acc, w| acc.merged(w));
        let c = &shared.counters;
        let serve = ServeCounters {
            connections_opened: c.connections_opened.load(Ordering::Relaxed),
            connections_closed: c.connections_closed.load(Ordering::Relaxed),
            rejected_overload: c.rejected_overload.load(Ordering::Relaxed),
            rejected_line_bytes: c.rejected_line_bytes.load(Ordering::Relaxed),
            wire_errors: c.wire_errors.load(Ordering::Relaxed),
            dropped_mid_response: c.dropped_mid_response.load(Ordering::Relaxed),
            worker_panics: c.worker_panics.load(Ordering::Relaxed),
            pending_now: shared.pending_total.load(Ordering::SeqCst) as u64,
            worker_recycles: workers.iter().map(|w| w.engine_recycles).collect(),
            worker_queries: workers.iter().map(|w| w.queries).collect(),
        };
        StatsBlock::new(
            totals,
            shared.hists.snapshot(),
            shared.started.elapsed(),
            Some(serve),
        )
        .with_warm_start(shared.warm.as_deref())
    }
}

/// A running socket server. Construct with [`Server::bind`], control
/// through [`Server::handle`], block on [`Server::join`].
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    accept_threads: Vec<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
    tcp_addrs: Vec<SocketAddr>,
    addrs: Vec<ListenAddr>,
}

impl Server {
    /// Binds every listener, spawns the worker pool, and starts
    /// accepting.
    ///
    /// # Errors
    ///
    /// Any bind failure (bad address, permission, …) or thread spawn
    /// failure. Nothing keeps running on error, and the Unix socket
    /// files this call created are removed.
    pub fn bind(cfg: ServeConfig, addrs: &[ListenAddr]) -> io::Result<Server> {
        assert!(cfg.workers > 0, "a server needs at least one worker");
        assert!(
            cfg.queue_depth > 0,
            "a zero queue depth would deadlock every reader"
        );
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no listen addresses",
            ));
        }
        // Bind every listener before starting any thread, so a failed
        // bind has nothing to stop.
        let mut listeners = Vec::with_capacity(addrs.len());
        let mut tcp_addrs = Vec::new();
        for addr in addrs {
            let bound = Listener::bind(addr).and_then(|listener| {
                if let Listener::Tcp(tcp) = &listener {
                    tcp_addrs.push(tcp.local_addr()?);
                }
                Ok(listener)
            });
            match bound {
                Ok(listener) => listeners.push(listener),
                Err(err) => {
                    remove_socket_files(&addrs[..listeners.len()]);
                    return Err(err);
                }
            }
        }
        // Open the warm-start snapshot once; the pool shares it. A file
        // that fails to load degrades to cold — serving always starts.
        let warm = cfg
            .snapshot_path
            .as_deref()
            .map(|path| WarmStart::open(path, &cfg.session));
        let shared = Arc::new(Shared {
            started: Instant::now(),
            draining: AtomicBool::new(false),
            exit_code: AtomicU8::new(0),
            drain_note: Mutex::new(None),
            pending_total: AtomicUsize::new(0),
            readers_live: AtomicUsize::new(0),
            next_worker: AtomicUsize::new(0),
            queues: (0..cfg.workers).map(|_| WorkerQueue::default()).collect(),
            published: (0..cfg.workers)
                .map(|_| Mutex::new(SessionTotals::default()))
                .collect(),
            hists: OpHistograms::new(),
            counters: Counters::default(),
            warm,
            cfg,
        });
        let mut server = Server {
            shared,
            accept_threads: Vec::new(),
            worker_threads: Vec::new(),
            tcp_addrs,
            addrs: addrs.to_vec(),
        };
        if let Err(err) = server.spawn_threads(listeners) {
            // Drain the threads already running: they answer whatever
            // was read and exit.
            server.shared.begin_drain(0, "server failed to start");
            server.join_threads();
            remove_socket_files(&server.addrs);
            return Err(err);
        }
        Ok(server)
    }

    /// Spawns the worker pool, then one accept thread per listener.
    fn spawn_threads(&mut self, listeners: Vec<Listener>) -> io::Result<()> {
        for index in 0..self.shared.cfg.workers {
            let shared = Arc::clone(&self.shared);
            self.worker_threads.push(
                std::thread::Builder::new()
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn(move || worker_loop(&shared, index))?,
            );
        }
        for listener in listeners {
            let shared = Arc::clone(&self.shared);
            self.accept_threads
                .push(std::thread::Builder::new().spawn(move || listener.accept_loop(&shared))?);
        }
        Ok(())
    }

    /// Waits for every accept loop and worker to exit.
    fn join_threads(&mut self) {
        for handle in self
            .accept_threads
            .drain(..)
            .chain(self.worker_threads.drain(..))
        {
            let _ = handle.join();
        }
    }

    /// The bound TCP addresses (with real ports for `:0` binds), in
    /// `--listen` order.
    #[must_use]
    pub fn tcp_addrs(&self) -> &[SocketAddr] {
        &self.tcp_addrs
    }

    /// A cloneable control/observability handle.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Blocks until the server has fully drained (someone must call
    /// [`ServerHandle::begin_drain`], or the arena cap must trip), then
    /// returns the exit code: `0` for a requested shutdown, `3` for
    /// `--max-arena-nodes`.
    #[must_use]
    pub fn join(mut self) -> u8 {
        self.join_threads();
        // Every worker has folded its caches into the snapshot's union
        // by now; re-dump so the next boot (supervisor restart loop) warm
        // starts. A failed write only warns and is counted — the drain
        // still succeeds.
        if let Some(warm) = &self.shared.warm {
            let _ = warm.dump();
        }
        remove_socket_files(&self.addrs);
        self.shared.exit_code.load(Ordering::SeqCst)
    }
}

/// Removes the socket files of the Unix addresses among `addrs`.
fn remove_socket_files(addrs: &[ListenAddr]) {
    for addr in addrs {
        if let ListenAddr::Unix(path) = addr {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::QueryKind;
    use std::io::BufRead;

    fn connect(server: &Server) -> (BufReader<TcpStream>, TcpStream) {
        let addr = server.tcp_addrs()[0];
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        (BufReader::new(stream.try_clone().expect("clone")), stream)
    }

    #[test]
    fn answers_requests_and_drains_cleanly() {
        let server = Server::bind(
            ServeConfig {
                workers: 2,
                json: true,
                ..ServeConfig::default()
            },
            &[ListenAddr::Tcp("127.0.0.1:0".to_owned())],
        )
        .expect("bind");
        let handle = server.handle();
        let (mut reader, mut writer) = connect(&server);
        writer
            .write_all(
                b"{\"op\":\"nka_eq\",\"lhs\":\"(p q)* p\",\"rhs\":\"p (q p)*\"}\np + p = p\n",
            )
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"verdict\":\"holds\""), "{line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"verdict\":\"refuted\""), "{line}");
        drop((reader, writer));
        handle.begin_drain(0, "test over");
        assert_eq!(server.join(), 0);
        let block = handle.stats_block();
        assert_eq!(block.queries, 2);
        assert!(block.serve.as_ref().unwrap().connections_opened >= 1);
    }

    #[test]
    fn a_panicking_request_is_counted_and_the_worker_answers_on() {
        let server = Server::bind(
            ServeConfig {
                workers: 1,
                json: true,
                ..ServeConfig::default()
            },
            &[ListenAddr::Tcp("127.0.0.1:0".to_owned())],
        )
        .expect("bind");
        let handle = server.handle();
        let (mut reader, mut writer) = connect(&server);
        let panicking = format!("{} = p\np = p\n", crate::api::stream::tests::PANIC_ATOM);
        writer.write_all(panicking.as_bytes()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("internal error: injected test panic"),
            "{line}"
        );
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"verdict\":\"holds\""), "{line}");
        drop((reader, writer));
        handle.begin_drain(0, "done");
        assert_eq!(server.join(), 0);
        let serve = handle.stats_block().serve.unwrap();
        assert_eq!((serve.worker_panics, serve.wire_errors), (1, 0));
        assert_eq!(serve.worker_recycles, [1], "the session was rebuilt");
        assert!(handle
            .stats_block()
            .render_human()
            .contains("1 worker panics"));
    }

    #[test]
    fn oversized_lines_get_structured_errors_without_buffering() {
        let server = Server::bind(
            ServeConfig {
                workers: 1,
                json: true,
                max_line_bytes: 64,
                ..ServeConfig::default()
            },
            &[ListenAddr::Tcp("127.0.0.1:0".to_owned())],
        )
        .expect("bind");
        let handle = server.handle();
        let (mut reader, mut writer) = connect(&server);
        let huge = format!("{}\n", "x".repeat(4096));
        writer.write_all(huge.as_bytes()).unwrap();
        writer.write_all(b"p = p\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.starts_with(r#"{"v":1,"verdict":"error","#) && line.contains("64-byte cap"),
            "shed lines carry the wire version like every error line: {line}"
        );
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"verdict\":\"holds\""), "{line}");
        handle.begin_drain(0, "done");
        assert_eq!(server.join(), 0);
        assert_eq!(handle.stats_block().serve.unwrap().rejected_line_bytes, 1);
    }

    #[test]
    fn idle_pool_parks_until_notified_with_unchanged_verdicts_and_drain() {
        // Workers now block on untimed condvar waits (no poll ticks);
        // this pins the two behaviors that must survive that change:
        // queries enqueued after an idle stretch still get identical
        // verdicts (the notify_one on push wakes the right worker), and
        // drain still terminates every parked worker (the notify_all
        // broadcasts at drain entry / reader exit).
        let server = Server::bind(
            ServeConfig {
                workers: 4,
                json: true,
                ..ServeConfig::default()
            },
            &[ListenAddr::Tcp("127.0.0.1:0".to_owned())],
        )
        .expect("bind");
        let handle = server.handle();
        let (mut reader, mut writer) = connect(&server);
        // Let the whole pool go idle (parked, nothing queued).
        std::thread::sleep(Duration::from_millis(250));
        writer
            .write_all(
                b"{\"op\":\"optimize\",\"prog\":\"qubits 1; abort; h q0\"}\n\
                  {\"op\":\"nka_eq\",\"lhs\":\"(p q)* p\",\"rhs\":\"p (q p)*\"}\n",
            )
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("\"optimized\":\"qubits 1; abort\"")
                && line.contains("\"rule\":\"abort-sink\""),
            "{line}"
        );
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"verdict\":\"holds\""), "{line}");
        drop((reader, writer));
        // Drain with every worker parked again: join would hang here if
        // any wakeup were lost.
        std::thread::sleep(Duration::from_millis(100));
        handle.begin_drain(0, "idle-pool test over");
        assert_eq!(server.join(), 0);
        let block = handle.stats_block();
        assert_eq!(block.queries, 2);
        assert_eq!(block.totals.optimize.queries, 1);
        assert_eq!(block.totals.optimize.steps_applied, 1);
        assert_eq!(block.ops.op(QueryKind::Optimize).count(), 1);
    }

    /// A later listener failing to bind leaves nothing behind: no
    /// accept loop serves the Unix socket bound before it, and its file
    /// is gone.
    #[cfg(unix)]
    #[test]
    fn a_failed_bind_leaves_no_listener_running() {
        let probe = TcpListener::bind("127.0.0.1:0").expect("probe");
        let taken = probe.local_addr().unwrap().to_string();
        let dir = std::env::temp_dir().join(format!("nka-bind-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("first.sock");
        let bound = Server::bind(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            &[ListenAddr::Unix(path.clone()), ListenAddr::Tcp(taken)],
        );
        assert!(bound.is_err(), "the second address is in use");
        let connected = UnixStream::connect(&path);
        std::fs::remove_dir_all(&dir).ok();
        assert!(connected.is_err(), "a listener outlived the failed bind");
        drop(probe);
    }

    #[test]
    fn listen_addr_parsing() {
        assert_eq!(
            ListenAddr::parse("unix:/tmp/x.sock"),
            ListenAddr::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(
            ListenAddr::parse("tcp:0.0.0.0:80"),
            ListenAddr::Tcp("0.0.0.0:80".to_owned())
        );
        assert_eq!(
            ListenAddr::parse("127.0.0.1:7411"),
            ListenAddr::Tcp("127.0.0.1:7411".to_owned())
        );
    }
}
