//! Every surface answers a line through the one handler, so every
//! surface must answer alike: the four golden corpora plus a file of
//! hostile lines (invalid UTF-8, over-deep nesting in each request
//! parser, a 300 KB line, a 1 MiB line at the `--max-line-bytes` cap,
//! an unknown key, blank and comment lines,
//! queries whose restriction product or ε-closure used to exhaust
//! memory, whose path counts overflow `u64`, whose 50,000-atom chains
//! overflowed a worker's stack, or whose restriction to an empty
//! ∞-support ran out of budget) go through `batch`,
//! `batch --jobs 4`, the stdin `serve` loop with worker recycling,
//! `serve --listen`, and `snapshot dump` (exit status only). The stable
//! projections (`wire::stable_response_projection`) must be identical,
//! with one response per request line, the exit codes must match each
//! surface family's contract, and the `--stats --json` per-op
//! histograms must count exactly the answered lines.

use nka_quantum::api::json::Json;
use nka_quantum::api::{answer_line, wire, LineClass, Session};
use nka_quantum::syntax::MAX_NESTING_DEPTH;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

#[path = "support/long_line.rs"]
mod long_line;
use long_line::huge_annotation_line;

const CORPORA: [&str; 4] = ["batch_50", "qprog_25", "analyze_20", "optimize_20"];

fn corpus(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(format!("{name}.jsonl"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nka-parity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn nested_ifs(depth: usize) -> String {
    format!(
        "{{\"op\":\"prog_eq\",\"p\":\"qubits 1; {}h q0{}\",\"q\":\"qubits 1; h q0\"}}",
        "if q0 { ".repeat(depth),
        " }".repeat(depth)
    )
}

/// A `prog_eq` of `depth` nested `while` loops against itself plus `skip`.
fn nested_whiles(depth: usize) -> String {
    let p = format!(
        "qubits 1; {}h q0{}",
        "while q0 { ".repeat(depth),
        " }".repeat(depth)
    );
    format!("{{\"op\":\"prog_eq\",\"p\":\"{p}\",\"q\":\"{p}; skip\"}}")
}

/// `count` factors of `(1 + 1)`: 2^count ε-paths, past `u64` from 64 on.
fn doubled(count: usize) -> String {
    vec!["(1 + 1)"; count].join(" ")
}

/// The hostile stream: every crash the request parsers and the decision
/// kernel used to have, each followed by lines that must still be
/// answered.
fn hostile_lines() -> Vec<u8> {
    let mut out = Vec::new();
    let mut line = |bytes: &[u8]| {
        out.extend_from_slice(bytes);
        out.push(b'\n');
    };
    line(b"# hostile lines: every one is answered, none ends the stream");
    line(b"p + p = p");
    line(b"\xff\xfe = a");
    line(b"(p q)* p = p (q p)*");
    line(b"");
    line(format!("a{} = a", "*".repeat(100_000)).as_bytes());
    line(
        format!(
            "{{\"op\":\"nka_eq\",\"lhs\":\"{}a{}\",\"rhs\":\"a\"}}",
            "(".repeat(8000),
            ")".repeat(8000)
        )
        .as_bytes(),
    );
    line(format!("{{\"op\":{}", "[".repeat(200_000)).as_bytes());
    line(nested_ifs(1600).as_bytes());
    line(nested_ifs(MAX_NESTING_DEPTH + 1).as_bytes());
    line(format!("{{\"op\":\"nope\",\"pad\":\"{}\"}}", "x".repeat(300_000)).as_bytes());
    // Exactly the default `--max-line-bytes`: the JSON string parser
    // was quadratic in the line length and took ~39 s on it.
    line(huge_annotation_line(1 << 20).as_bytes());
    line(br#"{"op":"nka_eq","lhs":"a","rhs":"a","lsh":"b"}"#);
    line(b"   ");
    // Within the nesting limit, but the dense restriction product asked
    // for ~1 TB, or 3.8 GB and more for the nested loops.
    let d = MAX_NESTING_DEPTH;
    line(format!("{}a b){}* = a*", "(".repeat(d), " b)".repeat(d - 1)).as_bytes());
    line(nested_whiles(12).as_bytes());
    line(nested_whiles(32).as_bytes());
    // A finite path count past `u64` in ε-elimination.
    line(
        format!(
            "{{\"op\":\"nka_eq\",\"lhs\":\"{}\",\"rhs\":\"1\"}}",
            doubled(64)
        )
        .as_bytes(),
    );
    line(format!("{} a* = a*", doubled(70)).as_bytes());
    // A starred 10,000-atom chain: 20,002 Thompson states. The dense
    // ε-closure asked for 6.4 GB, and a recursive Thompson construction
    // overflows a 2 MiB worker stack in a debug build.
    line(format!("({})* = a*", vec!["a"; 10_000].join(" ")).as_bytes());
    // 50,000-atom chains (~100 KB): the recursive expression walkers
    // overflowed a 2 MiB worker stack on each of these three lines. The
    // first one's Thompson automata gave a restriction product past the
    // default 100,000-state budget; its position automata give about
    // 50,000 states, and it is refuted.
    let chain = vec!["a"; 50_000].join(" ");
    line(format!("({chain})* = a*").as_bytes());
    line(format!("{{\"op\":\"ka_eq\",\"lhs\":\"({chain})*\",\"rhs\":\"a*\"}}").as_bytes());
    line(format!("{{\"op\":\"series\",\"expr\":\"{chain}\",\"max_len\":3}}").as_bytes());
    // `(a⁴⁰)* (a³⁹)* = (a³⁹)* (a⁴⁰)*` holds and has no `∞` weight.
    // Restricting it to the complement of its empty ∞-support through
    // the DFA of the `2n`-state support NFA needed a 137,602-state
    // product, past the default budget.
    let a = |n: usize| vec!["a"; n].join(" ");
    line(format!("({})* ({})* = ({})* ({})*", a(40), a(39), a(39), a(40)).as_bytes());
    line(b"1 + p p* = p*");
    out
}

struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

impl Run {
    fn projections(&self) -> Vec<String> {
        self.stdout
            .lines()
            .map(wire::stable_response_projection)
            .collect()
    }

    /// The `--stats --json` object: the last stderr line that is one.
    fn stats(&self) -> Json {
        let line = self
            .stderr
            .lines()
            .rev()
            .find(|line| line.starts_with('{'))
            .unwrap_or_else(|| panic!("no stats JSON on stderr:\n{}", self.stderr));
        Json::parse(line).expect("stats JSON parses")
    }
}

fn nka(args: &[&str], stdin: &Path) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_nka"))
        .args(args)
        .stdin(std::fs::File::open(stdin).expect("input readable"))
        .output()
        .expect("nka runs");
    Run {
        code: output.status.code(),
        stdout: String::from_utf8(output.stdout).expect("stdout is UTF-8"),
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
    }
}

/// `nka --json --stats serve --listen 127.0.0.1:0`: the whole input
/// pipelined over one connection, responses read to EOF, then SIGTERM.
fn serve_listen(input: &Path) -> Run {
    let mut server = Command::new(env!("CARGO_BIN_EXE_nka"))
        .args(["--json", "--stats", "serve", "--listen", "127.0.0.1:0"])
        .args(["--workers", "2"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("server spawns");
    let mut stderr = BufReader::new(server.stderr.take().expect("piped stderr"));
    let mut announce = String::new();
    let addr = loop {
        announce.clear();
        assert!(stderr.read_line(&mut announce).expect("stderr reads") > 0);
        if let Some(addr) = announce.trim().strip_prefix("listening on tcp:") {
            break addr.to_owned();
        }
    };
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let bytes = std::fs::read(input).expect("input readable");
    let feeder = std::thread::spawn(move || {
        writer.write_all(&bytes).expect("requests write");
        writer.shutdown(Shutdown::Write).expect("half-close");
    });
    let mut stdout = String::new();
    BufReader::new(stream)
        .read_to_string(&mut stdout)
        .expect("responses read");
    feeder.join().expect("feeder thread");
    let kill = Command::new("kill")
        .args(["-TERM", &server.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let status = server.wait().expect("server exits");
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).expect("stderr reads");
    Run {
        code: status.code(),
        stdout,
        stderr: rest,
    }
}

/// Request lines (not blank, not `#` comments), decoded like the
/// surfaces decode them.
fn request_lines(input: &Path) -> usize {
    let bytes = std::fs::read(input).expect("input readable");
    String::from_utf8_lossy(&bytes)
        .lines()
        .filter(|line| {
            let line = line.trim();
            !line.is_empty() && !line.starts_with('#')
        })
        .count()
}

/// Sum of the per-op histogram counts in a `--stats --json` object.
fn histogram_count(stats: &Json) -> usize {
    let Some(Json::Obj(ops)) = stats.get("ops") else {
        panic!("no ops section: {stats}");
    };
    ops.iter()
        .map(|(_, op)| op.get("count").and_then(Json::as_i64).unwrap_or(0) as usize)
        .sum()
}

fn answered_lines(run: &Run) -> usize {
    run.stdout
        .lines()
        .filter(|line| !line.contains(r#""verdict":"error""#))
        .count()
}

#[test]
fn every_surface_answers_every_line_alike() {
    let dir = temp_dir("surfaces");
    let hostile = dir.join("hostile.jsonl");
    std::fs::write(&hostile, hostile_lines()).expect("write hostile input");
    let mut inputs: Vec<(String, PathBuf)> = CORPORA
        .iter()
        .map(|name| ((*name).to_owned(), corpus(name)))
        .collect();
    inputs.push(("hostile".to_owned(), hostile));

    for (name, input) in &inputs {
        let path = input.to_str().expect("UTF-8 path");
        let expected_exit = if name == "hostile" { 2 } else { 0 };
        let owed = request_lines(input);

        let batch = nka(&["--json", "--stats", "batch", path], input);
        let jobs = nka(&["--json", "--stats", "--jobs", "4", "batch", "-"], input);
        let serve = nka(
            &[
                "--json",
                "--stats",
                "--max-queries-per-worker",
                "7",
                "serve",
            ],
            input,
        );
        let listen = serve_listen(input);
        let snap = dir.join(format!("{name}.nkasnap"));
        let dump = nka(
            &["snapshot", "dump", snap.to_str().expect("UTF-8 path"), path],
            input,
        );

        let surfaces = [
            ("batch", &batch, expected_exit),
            ("batch --jobs 4", &jobs, expected_exit),
            ("serve", &serve, 0),
            ("serve --listen", &listen, 0),
        ];
        for (surface, run, exit) in surfaces {
            assert_eq!(run.code, Some(exit), "{name} on {surface}:\n{}", run.stderr);
            assert_eq!(
                run.stdout.lines().count(),
                owed,
                "{name} on {surface}: one response per request line"
            );
            assert_eq!(
                run.projections(),
                batch.projections(),
                "{name}: {surface} diverged from batch"
            );
            assert_eq!(
                histogram_count(&run.stats()),
                answered_lines(run),
                "{name} on {surface}: the op histograms count the answered lines"
            );
        }
        if name == "hostile" {
            let verdicts: Vec<String> = batch
                .stdout
                .lines()
                .map(|line| {
                    let json = Json::parse(line).expect("a JSON response");
                    json.get("verdict")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_owned()
                })
                .collect();
            assert!(
                batch.stdout.lines().any(|line| {
                    let json = Json::parse(line).expect("a JSON response");
                    let field = |key| json.get(key).and_then(Json::as_str);
                    (field("lhs"), field("rhs"), field("verdict"))
                        == (Some("a"), Some("a"), Some("holds"))
                }),
                "the 1 MiB line is answered `holds`"
            );
            let kernel = &verdicts[verdicts.len() - 11..verdicts.len() - 1];
            assert_eq!(
                kernel,
                [
                    "refuted",
                    "holds",
                    "holds",
                    "budget_exhausted",
                    "budget_exhausted",
                    "refuted",
                    "refuted",
                    "refuted",
                    "series",
                    "holds"
                ],
                "the decision-kernel lines get structured verdicts"
            );
        }
        assert_eq!(dump.code, Some(expected_exit), "{name}: {}", dump.stderr);
        assert!(snap.exists(), "{name}: snapshot dump writes its file");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Input exactly at the nesting limit is answered — not rejected, not
/// a stack overflow — for each of the three request parsers, on a
/// default 2 MiB thread: a quarter of the 8 MiB stack that `batch
/// --jobs N` and socket serve workers run on, so the limit keeps a
/// wide margin there.
#[test]
fn input_at_the_nesting_limit_is_answered_on_a_default_stack() {
    let d = MAX_NESTING_DEPTH;
    let lines = [
        format!("{}a{} = a", "(".repeat(d), ")".repeat(d)),
        format!("a{} = a", "*".repeat(d)),
        nested_ifs(d),
        format!(
            "{{\"op\":\"nka_eq\",\"lhs\":\"a\",\"rhs\":\"a\",\"expect\":{}{}}}",
            "[".repeat(d - 1),
            "]".repeat(d - 1)
        ),
    ];
    let classes = std::thread::spawn(move || {
        let mut session = Session::new();
        lines
            .iter()
            .map(|line| answer_line(&mut session, line, true).map(|a| a.class))
            .collect::<Vec<_>>()
    })
    .join()
    .expect("the answering thread survives");
    assert_eq!(
        classes,
        [
            Some(LineClass::Ok),
            Some(LineClass::No),
            Some(LineClass::No),
            Some(LineClass::Ok)
        ]
    );
}

/// A line that is not valid UTF-8 is answered with a structured error
/// like any malformed line, and the lines after it are still answered,
/// on every stream surface.
#[test]
fn invalid_utf8_gets_one_answer_on_every_stream_surface() {
    let dir = temp_dir("utf8");
    let input = dir.join("utf8.txt");
    std::fs::write(&input, b"p + p = p\n\xff\xfe = a\n(p q)* p = p (q p)*\n").expect("write input");
    let snap = dir.join("utf8.nkasnap");
    let runs = [
        ("batch", nka(&["batch"], &input), 2),
        ("batch --jobs 2", nka(&["--jobs", "2", "batch"], &input), 2),
        ("serve", nka(&["serve"], &input), 0),
    ];
    for (surface, run, exit) in runs {
        assert_eq!(run.code, Some(exit), "{surface}: {}", run.stderr);
        let lines: Vec<&str> = run.stdout.lines().collect();
        assert_eq!(lines.len(), 3, "{surface}: {}", run.stdout);
        assert!(lines[1].starts_with("error: "), "{surface}: {}", lines[1]);
        assert!(lines[2].starts_with("⊢NKA"), "{surface}: {}", lines[2]);
    }
    let dump = nka(
        &["snapshot", "dump", snap.to_str().expect("UTF-8 path")],
        &input,
    );
    assert_eq!(dump.code, Some(2), "{}", dump.stderr);
    assert!(dump.stderr.contains("(line 2)"), "{}", dump.stderr);
    let _ = std::fs::remove_dir_all(&dir);
}
