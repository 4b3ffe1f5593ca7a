//! The `--stats` reporting contract of the `nka` binary: the default
//! human format keeps its historical free-text lines (now with latency
//! histograms), and `--stats --json` replaces them with exactly one
//! machine-readable JSON object carrying the documented field names —
//! engine counters (including the tiered-equivalence
//! `starfree_hits`/`prefix_hits`/`fastpath_fallbacks`), arena figures,
//! and per-op log-bucketed histograms.

use nka_quantum::api::json::Json;
use std::process::Command;

const BATCH_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/batch_50.jsonl");
const QPROG_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/qprog_25.jsonl");

fn run_stats(json: bool) -> String {
    let mut args = vec!["--stats"];
    if json {
        args.push("--json");
    }
    args.extend(["batch", BATCH_FILE]);
    let output = Command::new(env!("CARGO_BIN_EXE_nka"))
        .args(&args)
        .output()
        .expect("nka runs");
    assert!(output.status.success(), "batch over the fixture succeeds");
    String::from_utf8(output.stderr).expect("stderr is UTF-8")
}

#[test]
fn human_stats_keep_the_historical_lines_and_add_latency() {
    let stderr = run_stats(false);
    for needle in [
        "engine stats: ",
        "fast-path stats: ",
        "expr stats: ",
        "arena stats: ",
        "latency stats: 50 queries",
        " q/s)",
        "  nka_eq: n=",
        "p50=",
        "p99=",
        "p999=",
    ] {
        assert!(stderr.contains(needle), "missing {needle:?} in:\n{stderr}");
    }
    assert!(
        !stderr.trim_start().starts_with('{'),
        "human format must stay the default:\n{stderr}"
    );
}

#[test]
fn json_stats_are_one_parseable_object_with_the_contract_fields() {
    let stderr = run_stats(true);
    // Exactly one stats object, replacing the free-text lines entirely.
    let json_lines: Vec<&str> = stderr
        .lines()
        .filter(|line| line.starts_with('{'))
        .collect();
    assert_eq!(
        json_lines.len(),
        1,
        "expected exactly one JSON stats line:\n{stderr}"
    );
    assert!(
        !stderr.contains("engine stats:"),
        "--json must replace the free-text lines:\n{stderr}"
    );

    let value = Json::parse(json_lines[0]).expect("stats JSON parses");
    assert!(value.get("queries").and_then(Json::as_i64) >= Some(50));
    assert!(value.get("qps").and_then(Json::as_i64).is_some());

    let engine = value.get("engine").expect("engine section");
    for key in [
        "nka_queries",
        "ka_queries",
        "answer_hits",
        "compile_hits",
        "compile_misses",
        "dfa_hits",
        "dfa_misses",
        "starfree_hits",
        "prefix_hits",
        "fastpath_fallbacks",
    ] {
        assert!(
            engine.get(key).and_then(Json::as_i64).is_some(),
            "missing engine counter {key:?}"
        );
    }

    let arena = value.get("arena").expect("arena section");
    for key in [
        "resident_nodes",
        "persistent_nodes",
        "scratch_live",
        "scratch_retired",
        "scratch_epochs",
        "engine_recycles",
    ] {
        assert!(
            arena.get(key).and_then(Json::as_i64).is_some(),
            "missing arena figure {key:?}"
        );
    }

    let ops = value.get("ops").expect("ops section");
    let nka_eq = ops.get("nka_eq").expect("nka_eq op histogram");
    for key in ["count", "mean_ns", "p50_ns", "p99_ns", "p999_ns"] {
        assert!(
            nka_eq.get(key).and_then(Json::as_i64).is_some(),
            "missing histogram field {key:?}"
        );
    }
    let buckets = nka_eq
        .get("buckets")
        .and_then(Json::as_array)
        .expect("log-bucketed histogram");
    assert!(!buckets.is_empty());
    let total: i64 = buckets
        .iter()
        .map(|pair| {
            let pair = pair.as_array().expect("[lower_ns, count] pair");
            assert_eq!(pair.len(), 2);
            pair[1].as_i64().expect("bucket count")
        })
        .sum();
    assert_eq!(
        Some(total),
        nka_eq.get("count").and_then(Json::as_i64),
        "bucket counts must sum to the op count"
    );
}

/// The optimizer gets its own counter section and latency histogram in
/// `--stats --json`: a batch over the golden optimize corpus must
/// report 20 `optimize` op samples and a populated per-rule step
/// breakdown (every catalog rule keyed, fired or not).
#[test]
fn optimizer_counters_and_histogram_appear_in_json_stats() {
    const OPTIMIZE_FILE: &str =
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/optimize_20.jsonl");
    let output = Command::new(env!("CARGO_BIN_EXE_nka"))
        .args(["--stats", "--json", "batch", OPTIMIZE_FILE])
        .output()
        .expect("nka runs");
    assert!(output.status.success());
    let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
    let line = stderr
        .lines()
        .find(|line| line.starts_with('{'))
        .expect("a JSON stats line");
    let value = Json::parse(line).expect("stats JSON parses");

    let optimize = value.get("optimize").expect("optimize section");
    assert_eq!(optimize.get("queries").and_then(Json::as_i64), Some(20));
    for key in [
        "steps_applied",
        "candidates_refuted",
        "fixpoints",
        "budget_bails",
        "cycle_breaks",
        "engine_decides",
        "cert_cache_hits",
    ] {
        assert!(
            optimize.get(key).and_then(Json::as_i64).is_some(),
            "missing optimizer counter {key:?}"
        );
    }
    assert!(optimize.get("steps_applied").and_then(Json::as_i64) > Some(0));
    // The corpus carries one deliberate max_steps:1 budget bail and 19
    // fixpoint runs.
    assert_eq!(optimize.get("fixpoints").and_then(Json::as_i64), Some(19));
    assert_eq!(optimize.get("budget_bails").and_then(Json::as_i64), Some(1));
    let steps = optimize.get("steps").expect("per-rule step breakdown");
    for rule in ["dead-branch", "abort-sink", "loop-peeling", "gate-fusion"] {
        assert!(
            steps.get(rule).and_then(Json::as_i64).is_some(),
            "missing per-rule step key {rule:?}"
        );
    }
    assert!(steps.get("dead-branch").and_then(Json::as_i64) > Some(0));

    let ops = value.get("ops").expect("ops section");
    let entry = ops.get("optimize").expect("optimize op histogram");
    assert_eq!(entry.get("count").and_then(Json::as_i64), Some(20));
}

/// The quantum workloads (`prog_eq`, `hoare`) appear as their own ops
/// in the JSON histogram section when the stream contains them.
#[test]
fn quantum_ops_get_their_own_histograms() {
    let output = Command::new(env!("CARGO_BIN_EXE_nka"))
        .args(["--stats", "--json", "batch", QPROG_FILE])
        .output()
        .expect("nka runs");
    assert!(output.status.success());
    let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
    let line = stderr
        .lines()
        .find(|line| line.starts_with('{'))
        .expect("a JSON stats line");
    let value = Json::parse(line).expect("stats JSON parses");
    let ops = value.get("ops").expect("ops section");
    for op in ["prog_eq", "hoare"] {
        let entry = ops.get(op).unwrap_or_else(|| panic!("missing op {op:?}"));
        assert!(
            entry.get("count").and_then(Json::as_i64) > Some(0),
            "empty histogram for {op:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Byte-level stats pin.
//
// Every counter the `--stats` surfaces report — the `--stats --json`
// object, every response line's per-response `stats` object, the
// certificate `stats` inside analyze/optimize answers, and the human
// `--stats` lines — is compared byte-for-byte, key order included,
// against committed expected files under `tests/data/stats_pin/`. Only
// wall-clock and process-wide arena values are masked, by key:
// response `micros`; `elapsed_micros` and `qps`; the timing fields and
// `buckets` under `ops.*`; `arena.*` except `engine_recycles`;
// `expr.interned`; `snapshot.age_secs`. Runs are sequential, so every
// counter is deterministic.
//
// To regenerate the expected files after an intended surface change,
// run with `NKA_BLESS_STATS_PIN=1`.

const PIN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/stats_pin");
const ANALYZE_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/analyze_20.jsonl");
const OPTIMIZE_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/optimize_20.jsonl");

const MASK: &str = "*";

/// Whether the value at `path` (object keys from the root) is masked.
fn masked_key(path: &[&str]) -> bool {
    match path {
        ["micros" | "elapsed_micros" | "qps"] => true,
        ["ops", _, "mean_ns" | "p50_ns" | "p99_ns" | "p999_ns" | "buckets"] => true,
        ["arena", key] => *key != "engine_recycles",
        ["expr", "interned"] | ["snapshot", "age_secs"] => true,
        _ => false,
    }
}

/// `value` with every masked key's value replaced by [`MASK`] (a
/// `null` stays `null`, so "no snapshot loaded" is still pinned).
fn mask_json(value: Json, path: &mut Vec<String>) -> Json {
    match value {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .map(|(key, v)| {
                    path.push(key.clone());
                    let keys: Vec<&str> = path.iter().map(String::as_str).collect();
                    let v = if masked_key(&keys) && v != Json::Null {
                        Json::Str(MASK.to_owned())
                    } else {
                        mask_json(v, path)
                    };
                    path.pop();
                    (key, v)
                })
                .collect(),
        ),
        other => other,
    }
}

fn mask_json_line(line: &str) -> String {
    let value = Json::parse(line).unwrap_or_else(|err| panic!("{err}: {line}"));
    mask_json(value, &mut Vec::new()).to_string()
}

/// Replaces every run of ASCII digits in `s` with [`MASK`].
fn mask_digits(s: &str) -> String {
    let mut out = String::new();
    let mut in_digits = false;
    for c in s.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push_str(MASK);
            }
            in_digits = true;
        } else {
            out.push(c);
            in_digits = false;
        }
    }
    out
}

/// The human `--stats` lines of `stderr` (other stderr notes, such as
/// the snapshot load/dump messages naming a path, are skipped), with
/// the latency figures, the process-wide arena figures and the
/// snapshot age masked.
fn mask_human(stderr: &str) -> String {
    let mut out = String::new();
    for line in stderr.lines() {
        let masked = if let Some(rest) = line.strip_prefix("latency stats: ") {
            let queries = rest.split(" in ").next().unwrap_or(rest);
            format!("latency stats: {queries} in {MASK}")
        } else if line.starts_with("  ") {
            match line.split_once(" p50=") {
                Some((head, _)) => format!("{head} p50={MASK}"),
                None => line.to_owned(),
            }
        } else if line.starts_with("expr stats: ") {
            let (head, tail) = line
                .split_once("; ")
                .expect("expr stats line has two parts");
            format!("{head}; {}", mask_digits(tail))
        } else if line.starts_with("arena stats: ") {
            let (head, recycles) = line
                .rsplit_once(", ")
                .expect("arena stats line ends with the recycle count");
            format!("{}, {recycles}", mask_digits(head))
        } else if line.starts_with("snapshot stats: ") {
            match (line.find("(age "), line.find("), ")) {
                (Some(start), Some(end)) if start < end => {
                    format!("{}(age {MASK}{}", &line[..start], &line[end..])
                }
                _ => line.to_owned(),
            }
        } else if line.contains(" stats: ") {
            line.to_owned()
        } else {
            continue;
        };
        out.push_str(&masked);
        out.push('\n');
    }
    out
}

/// Runs `nka <args>`, feeding `stdin`, and returns (stdout, stderr).
fn run_nka(args: &[&str], stdin: &str) -> (String, String) {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_nka"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("nka runs");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin.as_bytes())
        .expect("stdin accepted");
    let output = child.wait_with_output().expect("nka exits");
    assert!(
        output.status.success(),
        "nka {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    (
        String::from_utf8(output.stdout).expect("stdout is UTF-8"),
        String::from_utf8(output.stderr).expect("stderr is UTF-8"),
    )
}

/// The masked pin of one `--json --stats` run: every response line,
/// then the stats object.
fn json_pin(stdout: &str, stderr: &str) -> String {
    let mut out = String::new();
    for line in stdout.lines() {
        out.push_str(&mask_json_line(line));
        out.push('\n');
    }
    let stats: Vec<&str> = stderr.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(stats.len(), 1, "one stats object expected:\n{stderr}");
    out.push_str("--- stats ---\n");
    out.push_str(&mask_json_line(stats[0]));
    out.push('\n');
    out
}

fn check_pin(name: &str, actual: &str) {
    let path = std::path::Path::new(PIN_DIR).join(name);
    if std::env::var_os("NKA_BLESS_STATS_PIN").is_some() {
        std::fs::create_dir_all(PIN_DIR).expect("pin directory");
        std::fs::write(&path, actual).expect("pin written");
        return;
    }
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|err| panic!("{}: {err}", path.display()));
    if expected != actual {
        let first = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
        panic!(
            "{name}: stats pin differs at line {}:\nexpected: {}\nactual:   {}",
            first + 1,
            expected.lines().nth(first).unwrap_or("<end>"),
            actual.lines().nth(first).unwrap_or("<end>"),
        );
    }
}

#[test]
fn stats_pin_golden_corpora() {
    for (name, file) in [
        ("batch_50", BATCH_FILE),
        ("qprog_25", QPROG_FILE),
        ("analyze_20", ANALYZE_FILE),
        ("optimize_20", OPTIMIZE_FILE),
    ] {
        let (stdout, stderr) = run_nka(&["--json", "--stats", "batch", file], "");
        check_pin(&format!("{name}.json.pin"), &json_pin(&stdout, &stderr));
        let (_, stderr) = run_nka(&["--stats", "batch", file], "");
        check_pin(&format!("{name}.human.pin"), &mask_human(&stderr));
    }
}

#[test]
fn stats_pin_snapshot_warm_restart() {
    let snap = std::env::temp_dir().join(format!("nka-stats-pin-{}.nkasnap", std::process::id()));
    let _ = std::fs::remove_file(&snap);
    let snap_arg = snap.to_str().expect("UTF-8 temp path").to_owned();
    let corpus = std::fs::read_to_string(QPROG_FILE).unwrap()
        + &std::fs::read_to_string(ANALYZE_FILE).unwrap();
    let json_args = ["--json", "--stats", "--snapshot", &snap_arg, "batch"];
    let (stdout, stderr) = run_nka(&json_args, &corpus);
    check_pin("snapshot_cold.json.pin", &json_pin(&stdout, &stderr));
    let (stdout, stderr) = run_nka(&json_args, &corpus);
    check_pin("snapshot_warm.json.pin", &json_pin(&stdout, &stderr));
    let (_, stderr) = run_nka(&["--stats", "--snapshot", &snap_arg, "batch"], &corpus);
    check_pin("snapshot_warm.human.pin", &mask_human(&stderr));
    let _ = std::fs::remove_file(&snap);
}
