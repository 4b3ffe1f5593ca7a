//! Snapshot warm-start through the real `nka` binary: a batch run with
//! `--snapshot` dumps its verdict caches on exit, a *fresh process*
//! replaying the same golden corpora answers byte-identically (stable
//! projection) while its restored-hit counters move, and every way a
//! snapshot file can rot — truncation, bit flips, a future version
//! stamp, an empty file — degrades to a clean cold start (exit 0,
//! identical answers, a counted load warning) rather than to a wrong
//! answer or a dead stream. This is the process-restart half of the
//! in-session round-trip tests in `nka-core::api`.

use nka_quantum::api::json::Json;
use nka_quantum::api::{wire, SessionOptions};
use nka_quantum::nka::snapshot;
use nka_quantum::serve::{ListenAddr, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const QPROG: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/qprog_25.jsonl");
const BATCH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/batch_50.jsonl");
const ANALYZE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/analyze_20.jsonl");
const OPTIMIZE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/optimize_20.jsonl");
/// A real version-2 file, written by `nka snapshot dump` over
/// `batch_50.jsonl` before version 3 dropped the word-multiset section
/// (it holds 11 multisets next to 30 verdicts).
const VERSION2: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/snapshot_v2_batch_50.nkasnap"
);

/// A fresh per-test scratch directory (pid-scoped so parallel test
/// binaries cannot collide).
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nka-snapwarm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

impl Run {
    /// Runs `cmd` to completion.
    fn of(cmd: &mut Command) -> Run {
        let output = cmd.output().expect("nka binary runs");
        Run {
            code: output.status.code(),
            stdout: String::from_utf8(output.stdout).expect("stdout is UTF-8"),
            stderr: String::from_utf8(output.stderr).expect("stderr is UTF-8"),
        }
    }

    /// Response lines with `stats`/`micros` stripped — the
    /// byte-comparable projection (`wire::stable_response_projection`).
    fn projected(&self) -> Vec<String> {
        self.stdout
            .lines()
            .map(wire::stable_response_projection)
            .collect()
    }

    /// The single `--stats --json` object on stderr.
    fn stats(&self) -> Json {
        let line = self
            .stderr
            .lines()
            .find(|line| line.starts_with('{'))
            .unwrap_or_else(|| panic!("no JSON stats line on stderr:\n{}", self.stderr));
        Json::parse(line).expect("stats JSON parses")
    }

    fn snapshot_stat(&self, key: &str) -> i64 {
        self.stats()
            .get("snapshot")
            .unwrap_or_else(|| panic!("no snapshot section:\n{}", self.stderr))
            .get(key)
            .and_then(Json::as_i64)
            .unwrap_or_else(|| panic!("no snapshot.{key} counter:\n{}", self.stderr))
    }
}

/// `nka --stats --json [--snapshot FILE] [--jobs N] batch CORPUS`.
fn run_batch_jobs(corpus: &str, snapshot: Option<&Path>, jobs: Option<usize>) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_nka"));
    cmd.args(["--stats", "--json"]);
    if let Some(path) = snapshot {
        cmd.arg("--snapshot").arg(path);
    }
    if let Some(n) = jobs {
        cmd.arg("--jobs").arg(n.to_string());
    }
    Run::of(cmd.arg("batch").arg(corpus))
}

/// `nka --stats --json [--snapshot FILE] batch CORPUS`.
fn run_batch(corpus: &str, snapshot: Option<&Path>) -> Run {
    run_batch_jobs(corpus, snapshot, None)
}

/// The snapshot header layout pinned by `nka_core::snapshot`: 8 magic
/// bytes, a little-endian u32 version, a little-endian u64 checksum,
/// then the body.
const HEADER_LEN: usize = 8 + 4 + 8;

/// A current-version file around `body`, with a valid checksum.
fn with_header(body: &[u8]) -> Vec<u8> {
    let mut bytes = snapshot::MAGIC.to_vec();
    bytes.extend_from_slice(&snapshot::VERSION.to_le_bytes());
    bytes.extend_from_slice(&snapshot::fnv1a64(body).to_le_bytes());
    bytes.extend_from_slice(body);
    bytes
}

/// `(nka_verdicts, ka_verdicts, certs)` of the snapshot at `path`.
fn sections(path: &Path) -> (usize, usize, usize) {
    let s = snapshot::Snapshot::read(path)
        .unwrap_or_else(|err| panic!("{}: {err}", path.display()))
        .summary();
    (s.nka_verdicts, s.ka_verdicts, s.certs)
}

/// The sections `nka [args…] --snapshot FILE batch CORPUS` dumps,
/// starting from no file.
fn dumped_sections(dir: &Path, corpus: &str, args: &[&str]) -> (usize, usize, usize) {
    let snap = dir.join(format!("{}.nkasnap", args.join("_")));
    let _ = std::fs::remove_file(&snap);
    let output = Command::new(env!("CARGO_BIN_EXE_nka"))
        .args(args)
        .arg("--snapshot")
        .arg(&snap)
        .arg("batch")
        .arg(corpus)
        .output()
        .expect("nka binary runs");
    assert_eq!(
        output.status.code(),
        Some(0),
        "{args:?}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    sections(&snap)
}

/// Every engine recycle folds the retiring engine into the snapshot's
/// union, so a recycled run dumps every verdict an unrecycled run
/// dumps — sequentially and on a worker pool. (When the exit dump held
/// only the live engines, these runs dumped 0, 0 and 8 entries.)
#[test]
fn recycled_batches_dump_what_unrecycled_batches_dump() {
    let dir = temp_dir("recycled");
    for (corpus, recycle, entries) in [(QPROG, "5", 8), (BATCH, "10", 30)] {
        let whole = dumped_sections(&dir, corpus, &[]);
        assert_eq!(whole.0 + whole.1 + whole.2, entries, "{corpus}");
        for jobs in ["1", "2"] {
            let recycled = ["--max-queries-per-worker", recycle, "--jobs", jobs];
            assert_eq!(
                dumped_sections(&dir, corpus, &recycled),
                whole,
                "{corpus} {recycled:?}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A recycle keeps the entries loaded from `--snapshot`, so a recycled
/// replay of a dump hits it exactly as often as an unrecycled one and
/// decides nothing more.
#[test]
fn recycled_replays_keep_hitting_the_loaded_snapshot() {
    let dir = temp_dir("recycled-replay");
    let dump = dir.join("dump.nkasnap");
    for corpus in [QPROG, ANALYZE] {
        let status = Command::new(env!("CARGO_BIN_EXE_nka"))
            .args(["snapshot", "dump"])
            .arg(&dump)
            .arg(corpus)
            .stdout(Stdio::null())
            .status()
            .expect("nka binary runs");
        assert!(status.success(), "{corpus}: snapshot dump failed");
        // Each replay warm-starts from its own copy of the dump, since
        // the exit dump rewrites the file.
        let replay = |args: &[&str]| -> [i64; 3] {
            let snap = dir.join("replay.nkasnap");
            std::fs::copy(&dump, &snap).expect("copy the dump");
            let run = Run::of(
                Command::new(env!("CARGO_BIN_EXE_nka"))
                    .args(["--stats", "--json"])
                    .args(args)
                    .arg("--snapshot")
                    .arg(&snap)
                    .arg("batch")
                    .arg(corpus),
            );
            assert_eq!(run.code, Some(0), "{corpus} {args:?}: {}", run.stderr);
            let tier_b_decides = run
                .stats()
                .get("analysis")
                .and_then(|a| a.get("tier_b_decides"))
                .and_then(Json::as_i64)
                .expect("analysis.tier_b_decides counter");
            [
                run.snapshot_stat("snapshot_hits"),
                run.snapshot_stat("cert_snapshot_hits"),
                tier_b_decides,
            ]
        };
        let whole = replay(&[]);
        assert!(whole[0] + whole[1] > 0, "{corpus}: no snapshot hit");
        for jobs in ["1", "2"] {
            let recycled = ["--max-queries-per-worker", "5", "--jobs", jobs];
            assert_eq!(replay(&recycled), whole, "{corpus} {recycled:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The socket server's recycling workers feed the same union: a pool
/// of two workers recycling every 5 queries, drained after the corpus,
/// dumps what an unrecycled batch dumps.
#[test]
fn a_drained_recycling_server_dumps_what_an_unrecycled_batch_dumps() {
    let dir = temp_dir("serve-recycled");
    let whole = dumped_sections(&dir, QPROG, &[]);
    let snap = dir.join("served.nkasnap");
    let server = Server::bind(
        ServeConfig {
            session: SessionOptions::builder()
                .recycle_after_queries(Some(5))
                .build()
                .expect("valid options"),
            workers: 2,
            json: true,
            snapshot_path: Some(snap.clone()),
            ..ServeConfig::default()
        },
        &[ListenAddr::Tcp("127.0.0.1:0".to_owned())],
    )
    .expect("bind");
    let handle = server.handle();
    let corpus = std::fs::read_to_string(QPROG).expect("corpus readable");
    let requests = corpus
        .lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .count();
    // Two connections, one per worker (round-robin), each sending the
    // whole corpus.
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let mut stream = TcpStream::connect(server.tcp_addrs()[0]).expect("connect");
            stream.write_all(corpus.as_bytes()).expect("send corpus");
            stream
        })
        .collect();
    for stream in clients {
        let mut reader = BufReader::new(stream);
        for _ in 0..requests {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read response");
            assert!(line.contains("\"verdict\":"), "{line}");
        }
    }
    handle.begin_drain(0, "corpus answered");
    assert_eq!(server.join(), 0);
    let stats = handle.stats_block();
    assert!(
        stats
            .serve
            .expect("serve section")
            .worker_recycles
            .iter()
            .all(|&n| n > 0),
        "both workers recycled"
    );
    assert_eq!(sections(&snap), whole);
    assert!(stats.totals.snapshot.dumps > 1, "recycles dump too");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_restart_replays_qprog_corpus_identically_with_restored_hits() {
    let dir = temp_dir("qprog");
    let snap = dir.join("warm.nkasnap");

    // Cold pass: no file yet (an info note, not a warning), dumps on
    // exit.
    let cold = run_batch(QPROG, Some(&snap));
    assert_eq!(cold.code, Some(0), "{}", cold.stderr);
    assert!(snap.exists(), "exit dump must write the snapshot");
    assert_eq!(cold.snapshot_stat("load_warnings"), 0, "{}", cold.stderr);
    assert!(cold.snapshot_stat("dumps") >= 1, "{}", cold.stderr);

    // Warm pass in a fresh process: same answers, restored hits move.
    let warm = run_batch(QPROG, Some(&snap));
    assert_eq!(warm.code, Some(0), "{}", warm.stderr);
    assert_eq!(
        cold.projected(),
        warm.projected(),
        "verdict projections must be byte-identical across the restart"
    );
    assert!(
        warm.snapshot_stat("restored_entries") > 0,
        "{}",
        warm.stderr
    );
    assert!(
        warm.snapshot_stat("snapshot_hits") > 0,
        "the replay must hit the restored verdict caches: {}",
        warm.stderr
    );
    assert!(
        warm.stats()
            .get("snapshot")
            .and_then(|s| s.get("age_secs"))
            .and_then(Json::as_i64)
            .is_some(),
        "a loaded snapshot reports its age: {}",
        warm.stderr
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_restart_replays_analyze_corpus_with_certificate_hits() {
    let dir = temp_dir("analyze");
    let snap = dir.join("warm.nkasnap");

    let cold = run_batch(ANALYZE, Some(&snap));
    assert_eq!(cold.code, Some(0), "{}", cold.stderr);

    let warm = run_batch(ANALYZE, Some(&snap));
    assert_eq!(warm.code, Some(0), "{}", warm.stderr);
    assert_eq!(cold.projected(), warm.projected());
    assert!(
        warm.snapshot_stat("cert_snapshot_hits") > 0,
        "the analyze replay must hit restored certificates: {}",
        warm.stderr
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `batch --jobs N --snapshot FILE`: every worker session warm-starts
/// from the loaded entries, and their caches are merged into one dump
/// at end of stream. The dumped file must `snapshot
/// verify`, and a fresh parallel replay must hit the restored caches —
/// on the optimizer corpus, so optimizer-final `prog_eq` verdicts are
/// shown to ride the existing verdict/cert caches across a restart.
#[test]
fn parallel_batch_merges_worker_snapshots_and_replays_warm() {
    let dir = temp_dir("jobs");
    let snap = dir.join("warm.nkasnap");

    // Cold parallel pass: 4 workers, one merged dump.
    let cold = run_batch_jobs(OPTIMIZE, Some(&snap), Some(4));
    assert_eq!(cold.code, Some(0), "{}", cold.stderr);
    assert!(snap.exists(), "parallel batch must write the merged dump");
    assert!(cold.stderr.contains("snapshot: dumped"), "{}", cold.stderr);
    assert!(cold.snapshot_stat("dumps") >= 1, "{}", cold.stderr);

    // The merged dump is a fully valid snapshot file.
    let verify = Command::new(env!("CARGO_BIN_EXE_nka"))
        .args(["snapshot", "verify"])
        .arg(&snap)
        .output()
        .expect("nka snapshot verify runs");
    assert_eq!(
        verify.status.code(),
        Some(0),
        "merged dump failed verification: {}",
        String::from_utf8_lossy(&verify.stderr)
    );

    // Warm parallel pass in a fresh process: byte-identical stable
    // projections, and the restored caches actually get hit (the
    // optimizer's final certifications are cert-cache lookups).
    let warm = run_batch_jobs(OPTIMIZE, Some(&snap), Some(4));
    assert_eq!(warm.code, Some(0), "{}", warm.stderr);
    assert_eq!(
        cold.projected(),
        warm.projected(),
        "verdict projections must be byte-identical across the restart"
    );
    assert!(
        warm.snapshot_stat("restored_entries") > 0,
        "{}",
        warm.stderr
    );
    assert!(
        warm.snapshot_stat("snapshot_hits") + warm.snapshot_stat("cert_snapshot_hits") > 0,
        "the parallel replay must hit the restored caches: {}",
        warm.stderr
    );
    // The warm pass also re-dumps (merge of restored + fresh entries).
    assert!(warm.snapshot_stat("dumps") >= 1, "{}", warm.stderr);

    // Sequential and parallel answers agree warm, too.
    let seq = run_batch_jobs(OPTIMIZE, Some(&snap), None);
    assert_eq!(seq.code, Some(0), "{}", seq.stderr);
    assert_eq!(warm.projected(), seq.projected());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every corruption mode loads as a clean cold start: exit 0, the
/// stream stays alive and answers every line byte-identically to a
/// snapshot-free run, and the failure is *counted* (one load warning)
/// rather than fatal.
#[test]
fn corrupt_snapshots_degrade_to_cold_starts_not_wrong_answers() {
    let dir = temp_dir("corrupt");
    let snap = dir.join("warm.nkasnap");
    let baseline = run_batch(QPROG, None);
    assert_eq!(baseline.code, Some(0), "{}", baseline.stderr);

    // A valid dump to corrupt per-case.
    let seeded = run_batch(QPROG, Some(&snap));
    assert_eq!(seeded.code, Some(0), "{}", seeded.stderr);
    let good = std::fs::read(&snap).expect("dumped snapshot readable");
    assert!(good.len() > HEADER_LEN, "dump is non-trivial");

    let truncated = good[..good.len() / 2].to_vec();
    let mut flipped = good.clone();
    flipped[HEADER_LEN + 4] ^= 0x40;
    let mut future = good.clone();
    future[8..12].copy_from_slice(&99u32.to_le_bytes());
    // A well-formed version-1 file: its header still carried the
    // zeroness-arithmetic flag byte after the creation time.
    let mut v1_body = good[HEADER_LEN..].to_vec();
    v1_body.insert(8, 0);
    let mut version1 = good[..8].to_vec();
    version1.extend_from_slice(&1u32.to_le_bytes());
    version1.extend_from_slice(&snapshot::fnv1a64(&v1_body).to_le_bytes());
    version1.extend_from_slice(&v1_body);
    let version2 = std::fs::read(VERSION2).expect("version-2 fixture readable");
    // Hostile files with a valid checksum whose section counts promise
    // far more than the body holds: `u32::MAX` symbols, and a verdict
    // section running past the end. The reader must not size any
    // allocation by these counts.
    let mut header = 0u64.to_le_bytes().to_vec(); // creation time
    header.extend_from_slice(&8192u64.to_le_bytes()); // starfree_max_words
    let mut symbols = header.clone();
    symbols.extend_from_slice(&u32::MAX.to_le_bytes());
    let mut verdicts = header;
    verdicts.extend_from_slice(&0u32.to_le_bytes()); // no symbols
    verdicts.extend_from_slice(&0u32.to_le_bytes()); // no exprs
    verdicts.extend_from_slice(&1_000_000u32.to_le_bytes()); // NKA verdicts
    let cases: [(&str, Vec<u8>); 8] = [
        ("truncated", truncated),
        ("bit-flipped", flipped),
        ("version-bumped", future),
        ("version-1", version1),
        ("version-2", version2),
        ("zero-length", Vec::new()),
        ("u32-max-symbols", with_header(&symbols)),
        ("verdicts-past-the-end", with_header(&verdicts)),
    ];

    for (name, bytes) in cases {
        let file = dir.join(format!("{name}.nkasnap"));
        std::fs::write(&file, &bytes).expect("write corrupt snapshot");
        let run = run_batch(QPROG, Some(&file));
        assert_eq!(run.code, Some(0), "{name}: {}", run.stderr);
        assert_eq!(
            baseline.projected(),
            run.projected(),
            "{name}: a failed load must not change any answer"
        );
        assert!(
            run.stderr.contains("starting cold"),
            "{name}: the degradation must be reported: {}",
            run.stderr
        );
        assert_eq!(
            run.snapshot_stat("load_warnings"),
            1,
            "{name}: {}",
            run.stderr
        );
        assert_eq!(
            run.snapshot_stat("restored_entries"),
            0,
            "{name}: nothing may be restored from a bad file: {}",
            run.stderr
        );
        // The exit dump replaces the rotten file with a valid one — the
        // restart loop self-heals.
        let verify = Command::new(env!("CARGO_BIN_EXE_nka"))
            .args(["snapshot", "verify"])
            .arg(&file)
            .output()
            .expect("nka snapshot verify runs");
        assert_eq!(verify.status.code(), Some(0), "{name}: dump did not heal");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The offline surface: `snapshot dump` builds a file from a corpus,
/// `inspect --json` reports its header and entry counts, `verify`
/// accepts it and rejects rot with exit 1.
#[test]
fn snapshot_subcommands_dump_inspect_and_verify() {
    let dir = temp_dir("subcmd");
    let snap = dir.join("offline.nkasnap");

    let dump = Command::new(env!("CARGO_BIN_EXE_nka"))
        .args(["snapshot", "dump"])
        .arg(&snap)
        .arg(QPROG)
        .output()
        .expect("nka snapshot dump runs");
    assert_eq!(
        dump.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&dump.stderr)
    );

    let inspect = Command::new(env!("CARGO_BIN_EXE_nka"))
        .args(["--json", "snapshot", "inspect"])
        .arg(&snap)
        .output()
        .expect("nka snapshot inspect runs");
    assert_eq!(inspect.status.code(), Some(0));
    let value = Json::parse(String::from_utf8(inspect.stdout).expect("UTF-8").trim())
        .expect("inspect --json is one JSON object");
    assert_eq!(
        value.get("v").and_then(Json::as_i64),
        Some(i64::from(snapshot::VERSION))
    );
    assert!(value.get("entries").and_then(Json::as_i64) > Some(0));
    assert!(value.get("nka_verdicts").and_then(Json::as_i64).is_some());
    assert!(value.get("certs").and_then(Json::as_i64).is_some());

    let verify = Command::new(env!("CARGO_BIN_EXE_nka"))
        .args(["snapshot", "verify"])
        .arg(&snap)
        .output()
        .expect("nka snapshot verify runs");
    assert_eq!(verify.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&verify.stdout).contains("ok:"));

    let mut bytes = std::fs::read(&snap).expect("snapshot readable");
    let len = bytes.len();
    bytes[len - 1] ^= 0xff;
    std::fs::write(&snap, &bytes).expect("write corrupted snapshot");
    let reject = Command::new(env!("CARGO_BIN_EXE_nka"))
        .args(["snapshot", "verify"])
        .arg(&snap)
        .output()
        .expect("nka snapshot verify runs");
    assert_eq!(reject.status.code(), Some(1), "rot must be rejected");
    assert!(String::from_utf8_lossy(&reject.stderr).contains("invalid snapshot"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Warm-start through the stdin `serve` loop: the same snapshot file
/// boots the interactive loop warm, and the stream both answers
/// identically and reports its version on every line.
#[test]
fn serve_stdin_boots_warm_from_a_snapshot() {
    let dir = temp_dir("serve");
    let snap = dir.join("warm.nkasnap");
    let seeded = run_batch(QPROG, Some(&snap));
    assert_eq!(seeded.code, Some(0), "{}", seeded.stderr);

    let input = std::fs::read_to_string(QPROG).expect("corpus readable");
    let mut child = Command::new(env!("CARGO_BIN_EXE_nka"))
        .args(["--stats", "--json"])
        .arg("--snapshot")
        .arg(&snap)
        .args(["serve"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("nka serve runs");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("write serve input");
    let output = child.wait_with_output().expect("serve completes");
    let run = Run {
        code: output.status.code(),
        stdout: String::from_utf8(output.stdout).expect("UTF-8"),
        stderr: String::from_utf8(output.stderr).expect("UTF-8"),
    };
    assert_eq!(run.code, Some(0), "{}", run.stderr);
    assert_eq!(seeded.projected(), run.projected());
    assert!(run.snapshot_stat("snapshot_hits") > 0, "{}", run.stderr);
    for line in run.stdout.lines() {
        assert!(
            line.starts_with("{\"v\":1,"),
            "response lines lead with the wire version: {line}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `snapshot.restored_entries` counts one load of the file — the
/// entries it holds — however many sessions the file is restored into:
/// sequential `batch`, `batch --jobs N` over a stream far longer than
/// one worker backlog, and the socket server's worker pool.
#[test]
fn restored_entries_count_the_file_once_on_every_pool_shape() {
    let dir = temp_dir("restored");
    let seed = dir.join("seed.nkasnap");
    let seeded = run_batch(QPROG, Some(&seed));
    assert_eq!(seeded.code, Some(0), "{}", seeded.stderr);
    let inspect = Command::new(env!("CARGO_BIN_EXE_nka"))
        .args(["--json", "snapshot", "inspect"])
        .arg(&seed)
        .output()
        .expect("nka snapshot inspect runs");
    let entries = Json::parse(String::from_utf8_lossy(&inspect.stdout).trim())
        .expect("inspect --json parses")
        .get("entries")
        .and_then(Json::as_i64)
        .expect("entry count");
    assert!(entries > 0);

    // 600+ request lines: the corpus, repeated.
    let corpus = std::fs::read_to_string(QPROG).expect("corpus readable");
    let long = dir.join("long.jsonl");
    std::fs::write(&long, corpus.repeat(600 / corpus.lines().count() + 1)).expect("write stream");
    let long = long.to_str().expect("UTF-8 path");

    // Each run re-dumps its file, so each starts from a fresh copy.
    for jobs in [None, Some(2), Some(4)] {
        let snap = dir.join(format!("run-{jobs:?}.nkasnap"));
        std::fs::copy(&seed, &snap).expect("copy seed snapshot");
        let run = run_batch_jobs(long, Some(&snap), jobs);
        assert_eq!(run.code, Some(0), "jobs={jobs:?}: {}", run.stderr);
        assert!(
            run.stderr
                .contains(&format!("snapshot: restored {entries} entries")),
            "{}",
            run.stderr
        );
        assert_eq!(
            run.snapshot_stat("restored_entries"),
            entries,
            "jobs={jobs:?}: {}",
            run.stderr
        );
    }

    let server = Server::bind(
        ServeConfig {
            workers: 3,
            snapshot_path: Some(seed.clone()),
            ..ServeConfig::default()
        },
        &[ListenAddr::Tcp("127.0.0.1:0".to_owned())],
    )
    .expect("bind");
    let handle = server.handle();
    handle.begin_drain(0, "counted");
    assert_eq!(server.join(), 0);
    let stats = handle.stats_block().totals.snapshot;
    assert_eq!(stats.restored_entries, u64::try_from(entries).unwrap());
    // The drain dump is counted like a batch run's exit dump.
    assert_eq!((stats.dumps, stats.dump_failures), (1, 0), "{stats:?}");

    // A dump into a directory that does not exist fails, and is counted.
    let server = Server::bind(
        ServeConfig {
            workers: 2,
            snapshot_path: Some(dir.join("missing").join("warm.nkasnap")),
            ..ServeConfig::default()
        },
        &[ListenAddr::Tcp("127.0.0.1:0".to_owned())],
    )
    .expect("bind");
    let handle = server.handle();
    handle.begin_drain(0, "unwritable");
    assert_eq!(server.join(), 0);
    let stats = handle.stats_block().totals.snapshot;
    assert_eq!((stats.dumps, stats.dump_failures), (0, 1), "{stats:?}");
    assert_eq!(stats.load_warnings, 0, "a missing file is a first boot");
    let _ = std::fs::remove_dir_all(&dir);
}
