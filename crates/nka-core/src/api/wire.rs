//! The line-oriented wire format of `nka batch` and `nka serve`.
//!
//! One request per line, one response line per request. Requests are
//! either a JSON object (JSONL) or the bare shorthand `e = f`:
//!
//! ```text
//! {"op":"nka_eq","lhs":"(p q)* p","rhs":"p (q p)*"}
//! {"op":"ka_eq","lhs":"p + p","rhs":"p"}
//! {"op":"series","expr":"(a + a)*","max_len":4}
//! {"op":"prove","lhs":"m1 (m0 p + m1)","rhs":"m1","hyps":["m1 m1 = m1","m1 m0 = 0"]}
//! (p q)* p = p (q p)*
//! # comments and blank lines are skipped
//! ```
//!
//! The `op` names match [`QueryKind::op`]. `max_len` defaults to
//! [`DEFAULT_SERIES_MAX_LEN`]; `hyps` defaults to empty.
//!
//! # Forward compatibility
//!
//! Request keys are an *allowlist*: the keys of the chosen `op`, plus
//! every key this protocol version may emit on a response line (so any
//! *response* line is a valid *request* line for the same query — the
//! JSONL stream round-trips, `decode_request(encode_response(q, …)) ==
//! q`). Any other top-level key answers a structured `unsupported
//! field` error instead of being silently ignored — a client using a
//! newer field learns immediately rather than getting a silently
//! different query. Response lines carry the protocol version as
//! `"v":` [`WIRE_VERSION`]; clients should accept unknown *response*
//! keys (additions bump nothing) and treat a `v` greater than what
//! they know as "newer server, same core fields".
//!
//! Responses repeat the query fields and add `verdict` (a
//! [`Verdict::name`]), verdict-specific payload (`proof_size`,
//! `holds_by_decision`, `terms`, `detail`), the term-size accounting
//! `expr_nodes`/`expr_subterms` (tree nodes vs distinct interned
//! subterms — see `Query::term_stats`), the engine-counter delta under
//! `stats`, and wall-clock `micros`. Words in `terms` are
//! space-separated symbol names with `""` for ε; coefficients are
//! decimal strings or `"∞"` (strings, so arbitrary-precision values
//! survive).
//!
//! # Cost
//!
//! Decoding is linear in the line ([`Json::parse`] copies string runs
//! whole), and every encoder writes its line in place through the one
//! `JsonWriter` into a single buffer sized for the line, with no
//! intermediate `Json` tree: a warm `nka_eq` line costs a dozen heap
//! allocations end to end (`tests/alloc_budget.rs`).

use super::json::{Json, JsonWriter};
use super::{
    ApiError, Query, Response, Verdict, DEFAULT_OPTIMIZE_BEAM, DEFAULT_OPTIMIZE_MAX_STEPS,
    DEFAULT_SERIES_MAX_LEN,
};
#[cfg(doc)]
use super::{QueryKind, Session};
use nka_syntax::Word;
use std::fmt;

/// The wire protocol version, emitted as `"v"` on every response line
/// (and on the `--stats --json` object). Bumped only for breaking
/// changes — additive response keys do not bump it.
pub const WIRE_VERSION: i64 = 1;

/// Keys that may appear on a response line beyond the query's own
/// fields. They are accepted (and ignored) on *request* lines so that
/// response lines reparse as their originating request; anything
/// outside this list and the op's own keys is an `unsupported field`
/// error.
const RESPONSE_ONLY_KEYS: &[&str] = &[
    "v",
    "verdict",
    "proof_size",
    "holds_by_decision",
    "terms",
    "enc_p",
    "enc_q",
    "encoded",
    "findings",
    "optimized",
    "steps",
    "fixpoint",
    "note",
    "certificate",
    "detail",
    "expr_nodes",
    "expr_subterms",
    "stats",
    "micros",
    "error",
    "field",
    "span",
];

/// Golden-corpus annotation keys (`tests/data/*.jsonl`): expected
/// verdicts riding along on request lines for the replay harnesses.
/// Accepted (and ignored) on any op so annotated corpora stay valid
/// request streams.
const ANNOTATION_KEYS: &[&str] = &[
    "expect",
    "expect_passes",
    "expect_warnings",
    "expect_steps",
    "expect_final_hash",
];

/// The allowlisted request keys of each op (always including `"op"`
/// itself).
fn request_keys(op: &str) -> &'static [&'static str] {
    match op {
        "nka_eq" | "ka_eq" => &["op", "lhs", "rhs"],
        "series" => &["op", "expr", "max_len"],
        "prog_eq" => &["op", "p", "q"],
        "hoare" => &["op", "pre", "prog", "post"],
        "analyze" => &["op", "prog", "passes"],
        "optimize" => &["op", "prog", "rules", "max_steps", "beam"],
        "prove" => &["op", "lhs", "rhs", "hyps"],
        _ => &["op"],
    }
}

/// Enforces the forward-compat policy (see the [module docs](self)):
/// every top-level key must be either a request key of `op` or a
/// response-only key.
fn check_top_level_keys(value: &Json, op: &str) -> Result<(), ApiError> {
    let Json::Obj(fields) = value else {
        return Ok(());
    };
    let allowed = request_keys(op);
    for (key, _) in fields {
        if !allowed.contains(&key.as_str())
            && !RESPONSE_ONLY_KEYS.contains(&key.as_str())
            && !ANNOTATION_KEYS.contains(&key.as_str())
        {
            return Err(ApiError::Malformed(format!(
                "unsupported field {key:?} for op {op:?} (wire protocol v{WIRE_VERSION} accepts: \
                 {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

/// Decodes one request line. `Ok(None)` means the line is skippable —
/// blank or a `#` comment.
///
/// # Errors
///
/// [`ApiError::Malformed`] for bad JSON / unknown `op` / missing keys,
/// [`ApiError::Parse`] (span-bearing) for an unparsable expression.
pub fn decode_request(line: &str) -> Result<Option<Query>, ApiError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    if !line.starts_with('{') {
        // Bare `e = f` shorthand for an NKA equality query.
        let Some((lhs, rhs)) = line.split_once('=') else {
            return Err(ApiError::Malformed(format!(
                "expected a JSON object or 'e = f', got {line:?}"
            )));
        };
        return Query::nka_eq(lhs.trim(), rhs.trim()).map(Some);
    }
    let value = Json::parse(line).map_err(|msg| ApiError::Malformed(format!("bad JSON: {msg}")))?;
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::Malformed("missing string key \"op\"".to_owned()))?;
    check_top_level_keys(&value, op)?;
    let query = match op {
        "nka_eq" => Query::nka_eq(str_key(&value, "lhs")?, str_key(&value, "rhs")?)?,
        "ka_eq" => Query::ka_eq(str_key(&value, "lhs")?, str_key(&value, "rhs")?)?,
        "series" => {
            let max_len = usize_key(&value, "max_len", DEFAULT_SERIES_MAX_LEN)?;
            Query::series(str_key(&value, "expr")?, max_len)?
        }
        "prog_eq" => Query::prog_eq(str_key(&value, "p")?, str_key(&value, "q")?)?,
        "hoare" => Query::hoare(
            str_key(&value, "pre")?,
            str_key(&value, "prog")?,
            str_key(&value, "post")?,
        )?,
        "analyze" => {
            let passes = str_array(&value, "passes")?;
            Query::analyze(str_key(&value, "prog")?, &passes)?
        }
        "optimize" => {
            let rules = str_array(&value, "rules")?;
            let max_steps = usize_key(&value, "max_steps", DEFAULT_OPTIMIZE_MAX_STEPS)?;
            let beam = usize_key(&value, "beam", DEFAULT_OPTIMIZE_BEAM)?;
            Query::optimize(str_key(&value, "prog")?, &rules, max_steps, beam)?
        }
        "prove" => {
            let hyps = str_array(&value, "hyps")?;
            Query::prove(str_key(&value, "lhs")?, str_key(&value, "rhs")?, &hyps)?
        }
        other => {
            return Err(ApiError::Malformed(format!(
                "unknown op {other:?} (expected nka_eq, ka_eq, series, prove, prog_eq, hoare, \
                 analyze, or optimize)"
            )))
        }
    };
    Ok(Some(query))
}

fn str_key<'a>(value: &'a Json, key: &str) -> Result<&'a str, ApiError> {
    value
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::Malformed(format!("missing string key {key:?}")))
}

/// An optional non-negative integer; absent means `default`.
fn usize_key(value: &Json, key: &str, default: usize) -> Result<usize, ApiError> {
    let Some(v) = value.get(key) else {
        return Ok(default);
    };
    let n = v
        .as_i64()
        .ok_or_else(|| ApiError::Malformed(format!("{key:?} must be an integer")))?;
    usize::try_from(n).map_err(|_| ApiError::Malformed(format!("{key:?} must be ≥ 0")))
}

/// An optional array of strings; absent means empty.
fn str_array<'a>(value: &'a Json, key: &str) -> Result<Vec<&'a str>, ApiError> {
    let Some(v) = value.get(key) else {
        return Ok(Vec::new());
    };
    v.as_array()
        .ok_or_else(|| ApiError::Malformed(format!("{key:?} must be an array")))?
        .iter()
        .map(|s| {
            s.as_str()
                .ok_or_else(|| ApiError::Malformed(format!("{key:?} entries must be strings")))
        })
        .collect()
}

/// Initial capacity of a written line beyond its own source strings:
/// room for the fixed fields and the `stats` object of a response
/// (about 300 bytes), so most lines are written without regrowing.
const LINE_BASE_BYTES: usize = 384;

/// The source text a line repeats, in bytes: the part of its length
/// known before writing it.
fn source_bytes(query: &Query) -> usize {
    match query {
        Query::ProgEq { p, q } => p.source().len() + q.source().len(),
        Query::Hoare { pre, prog, post } => {
            pre.source().len() + prog.source().len() + post.source().len()
        }
        Query::Analyze { prog, .. } | Query::Optimize { prog, .. } => prog.source().len(),
        Query::NkaEq { .. } | Query::KaEq { .. } | Query::Series { .. } | Query::Prove { .. } => 0,
    }
}

/// Writes the query's own fields, as they appear in both request and
/// response lines.
fn write_query_fields(w: &mut JsonWriter<'_>, query: &Query) {
    w.key("op").str(query.kind().op());
    match query {
        Query::NkaEq { lhs, rhs } | Query::KaEq { lhs, rhs } => {
            w.key("lhs").display(lhs);
            w.key("rhs").display(rhs);
        }
        Query::Series { expr, max_len } => {
            w.key("expr").display(expr);
            w.key("max_len").uint(*max_len);
        }
        Query::Prove { lhs, rhs, hyps } => {
            w.key("lhs").display(lhs);
            w.key("rhs").display(rhs);
            w.key("hyps").begin_arr();
            for (l, r) in hyps {
                w.display(&format_args!("{l} = {r}"));
            }
            w.end_arr();
        }
        Query::ProgEq { p, q } => {
            w.key("p").str(p.source());
            w.key("q").str(q.source());
        }
        Query::Hoare { pre, prog, post } => {
            w.key("pre").str(pre.source());
            w.key("prog").str(prog.source());
            w.key("post").str(post.source());
        }
        Query::Analyze { prog, passes } => {
            w.key("prog").str(prog.source());
            write_strs(w.key("passes"), passes);
        }
        Query::Optimize {
            prog,
            rules,
            max_steps,
            beam,
        } => {
            w.key("prog").str(prog.source());
            write_strs(w.key("rules"), rules);
            w.key("max_steps").uint(*max_steps);
            w.key("beam").uint(*beam);
        }
    }
}

/// Writes an array of strings.
fn write_strs(w: &mut JsonWriter<'_>, items: &[String]) {
    w.begin_arr();
    for item in items {
        w.str(item);
    }
    w.end_arr();
}

/// Writes a byte span as a two-integer array.
fn write_span(w: &mut JsonWriter<'_>, (start, end): (usize, usize)) {
    w.begin_arr().uint(start).uint(end).end_arr();
}

/// Encodes a query as one JSONL request line (no trailing newline).
/// [`decode_request`] inverts this exactly: the pretty-printer is
/// precedence-aware, so expressions reparse to equal [`Query`] values.
#[must_use]
pub fn encode_request(query: &Query) -> String {
    let mut line = String::with_capacity(LINE_BASE_BYTES + source_bytes(query));
    let mut w = JsonWriter::new(&mut line);
    w.begin_obj();
    write_query_fields(&mut w, query);
    w.end_obj();
    line
}

/// Writes one analysis finding as a JSON object: `pass`, `severity`,
/// `span` (byte pair), `message`, and — Tier B only — the replayable
/// `certificate` (`p`/`q`/`expect`/`rule`/`stats`); decoding
/// `{"op":"prog_eq","p":cert.p,"q":cert.q}` replays it.
fn write_finding(w: &mut JsonWriter<'_>, f: &nka_qprog::Finding) {
    w.begin_obj();
    w.key("pass").str(f.pass);
    w.key("severity").str(f.severity.name());
    write_span(w.key("span"), f.span);
    w.key("message").str(&f.message);
    if let Some(cert) = &f.certificate {
        write_certificate(w.key("certificate"), cert);
    }
    w.end_obj();
}

/// Writes one replayable certificate as a JSON object
/// (`p`/`q`/`expect`/`rule`/`stats`) — shared between analysis
/// findings and the optimizer's final verdict; decoding
/// `{"op":"prog_eq","p":cert.p,"q":cert.q}` replays it.
fn write_certificate(w: &mut JsonWriter<'_>, cert: &nka_qprog::Certificate) {
    w.begin_obj();
    w.key("p").str(&cert.p);
    w.key("q").str(&cert.q);
    w.key("expect").str(cert.expect);
    match cert.rule {
        Some(rule) => w.key("rule").str(rule),
        None => w.key("rule").null(),
    };
    w.key("stats").counters(&cert.stats.fields());
    w.end_obj();
}

/// A word as space-separated symbol names (`""` for ε).
fn word_string(word: &Word) -> String {
    word.symbols()
        .iter()
        .map(|s| s.name())
        .collect::<Vec<_>>()
        .join(" ")
}

/// The payload strings of a verdict, in bytes: the rest of a response
/// line's length known before writing it.
fn payload_bytes(verdict: &Verdict) -> usize {
    match verdict {
        Verdict::ProgEq { enc_p, enc_q, .. } => enc_p.len() + enc_q.len(),
        Verdict::Hoare { encoded, .. } => encoded.len(),
        Verdict::Optimized { optimized, .. } => optimized.len(),
        Verdict::BudgetExhausted { detail } => detail.len(),
        _ => 0,
    }
}

/// Encodes one response as a JSONL line (no trailing newline), written
/// in place into one buffer sized for it. The line repeats the query
/// fields, so it is itself decodable as the originating request — see
/// the [module docs](self).
#[must_use]
pub fn encode_response(query: &Query, resp: &Response) -> String {
    let mut line =
        String::with_capacity(LINE_BASE_BYTES + source_bytes(query) + payload_bytes(&resp.verdict));
    let mut w = JsonWriter::new(&mut line);
    w.begin_obj();
    w.key("v").int(WIRE_VERSION);
    write_query_fields(&mut w, query);
    w.key("verdict").str(resp.verdict.name());
    match &resp.verdict {
        Verdict::Holds | Verdict::Refuted => {}
        Verdict::Proved { proof_size } => {
            w.key("proof_size").uint(*proof_size);
        }
        Verdict::Exhausted { holds_by_decision } => {
            match holds_by_decision {
                Some(b) => w.key("holds_by_decision").bool(*b),
                None => w.key("holds_by_decision").null(),
            };
        }
        Verdict::Series { terms, .. } => {
            w.key("terms").begin_arr();
            for (word, coeff) in terms {
                w.begin_obj();
                w.key("word").str(&word_string(word));
                w.key("coeff").display(coeff);
                w.end_obj();
            }
            w.end_arr();
        }
        Verdict::ProgEq { enc_p, enc_q, .. } => {
            // `verdict` already says holds/refuted; the payload is the
            // shared-setting encodings the decision was made on.
            w.key("enc_p").str(enc_p);
            w.key("enc_q").str(enc_q);
        }
        Verdict::Hoare { encoded, .. } => {
            w.key("encoded").str(encoded);
        }
        Verdict::Analysis { findings } => {
            w.key("findings").begin_arr();
            for finding in findings {
                write_finding(&mut w, finding);
            }
            w.end_arr();
        }
        Verdict::Optimized {
            optimized,
            steps,
            certificate,
            fixpoint,
            note,
        } => {
            w.key("optimized").str(optimized);
            w.key("steps").begin_arr();
            for step in steps {
                w.begin_obj();
                w.key("rule").str(step.rule);
                write_span(w.key("span"), step.span);
                w.key("note").str(&step.note);
                w.key("citation").str(step.citation());
                w.end_obj();
            }
            w.end_arr();
            w.key("fixpoint").bool(*fixpoint);
            if let Some(note) = note {
                w.key("note").str(note);
            }
            write_certificate(w.key("certificate"), certificate);
        }
        Verdict::BudgetExhausted { detail } => {
            w.key("detail").str(detail);
        }
    }
    w.key("expr_nodes").uint(resp.expr_nodes);
    w.key("expr_subterms").uint(resp.expr_subterms);
    w.key("stats").counters(&resp.stats_delta.fields());
    w.key("micros").uint(resp.elapsed.as_micros());
    w.end_obj();
    line
}

/// Encodes a request-level failure as a JSONL line: `verdict` is
/// `"error"` and `error` holds the rendered message (single-line; the
/// caret rendering stays on the human surface).
#[must_use]
pub fn encode_error(err: &ApiError) -> String {
    let mut line = String::with_capacity(LINE_BASE_BYTES);
    let mut w = JsonWriter::new(&mut line);
    write_error_head(&mut w, err);
    let field = match err {
        ApiError::Parse { field, .. } | ApiError::ParseProgram { field, .. } => Some(*field),
        ApiError::Malformed(_) | ApiError::Internal(_) => None,
    };
    if let (Some(field), Some(span)) = (field, err.span()) {
        w.key("field").str(field);
        write_span(w.key("span"), span);
    }
    w.end_obj();
    line
}

/// Opens an error line and writes its leading fields.
fn write_error_head(w: &mut JsonWriter<'_>, msg: &impl fmt::Display) {
    w.begin_obj();
    w.key("v").int(WIRE_VERSION);
    w.key("verdict").str("error");
    w.key("error").display(msg);
}

/// The response line of a request-level failure: [`encode_error`] in
/// JSON mode, `error: <message>` on the human surface.
#[must_use]
pub fn render_error(err: &ApiError, json: bool) -> String {
    if json {
        encode_error(err)
    } else {
        format!("error: {err}")
    }
}

/// The response line of a request the socket server shed unread (past
/// the pending cap, or over the line-byte cap): the error shape of
/// [`render_error`], `"v":1` included, carrying `msg`.
#[must_use]
pub fn encode_shed(msg: String, json: bool) -> String {
    if json {
        let mut line = String::with_capacity(LINE_BASE_BYTES);
        let mut w = JsonWriter::new(&mut line);
        write_error_head(&mut w, &msg);
        w.end_obj();
        line
    } else {
        format!("error: {msg}")
    }
}

/// The comparison-stable projection of a response line: for JSON lines,
/// the object with the volatile `stats` (engine-counter delta — cache
/// hits depend on what ran before) and `micros` (wall clock) fields
/// removed, re-serialized; text lines (and unparsable input) pass
/// through unchanged, since the text surface carries no volatile
/// fields.
///
/// Two responses to the same query are semantically identical iff their
/// projections are byte-identical — this is what `nka-loadgen` and the
/// e2e socket tests diff, so concurrent socket serving can be held to
/// sequential `batch` output exactly.
#[must_use]
pub fn stable_response_projection(line: &str) -> String {
    let trimmed = line.trim_end();
    if !trimmed.starts_with('{') {
        return trimmed.to_owned();
    }
    let Ok(Json::Obj(fields)) = Json::parse(trimmed) else {
        return trimmed.to_owned();
    };
    let mut kept = String::with_capacity(trimmed.len());
    let mut w = JsonWriter::new(&mut kept);
    w.begin_obj();
    for (key, value) in fields
        .iter()
        .filter(|(key, _)| key != "stats" && key != "micros")
    {
        w.key(key).value(value);
    }
    w.end_obj();
    kept
}

/// Human-readable one-line rendering of a response, used by `nka batch`
/// and `nka serve` without `--json`.
#[must_use]
pub fn encode_response_text(query: &Query, resp: &Response) -> String {
    match (query, &resp.verdict) {
        (Query::NkaEq { lhs, rhs }, Verdict::Holds) => format!("⊢NKA {lhs} = {rhs}"),
        (Query::NkaEq { lhs, rhs }, Verdict::Refuted) => {
            format!("⊬NKA {lhs} = {rhs}   (the power series differ)")
        }
        (Query::KaEq { lhs, rhs }, Verdict::Holds) => format!("⊢KA {lhs} = {rhs}"),
        (Query::KaEq { lhs, rhs }, Verdict::Refuted) => {
            format!("⊬KA {lhs} = {rhs}   (the languages differ)")
        }
        (Query::Series { expr, .. }, Verdict::Series { max_len, terms }) => {
            let mut line = format!("{{{{{expr}}}}} ≤{max_len}:");
            if terms.is_empty() {
                line.push_str(" 0");
            } else {
                for (i, (w, c)) in terms.iter().enumerate() {
                    line.push_str(if i == 0 { " " } else { " + " });
                    line.push_str(&format!("{c}·{w}"));
                }
            }
            line
        }
        (Query::Prove { lhs, rhs, .. }, Verdict::Proved { proof_size }) => {
            format!("proved: {lhs} = {rhs}   ({proof_size} rule applications)")
        }
        (Query::Prove { lhs, rhs, .. }, Verdict::Refuted) => {
            format!("refuted: ⊬NKA {lhs} = {rhs}   (the power series differ)")
        }
        (Query::Prove { lhs, rhs, .. }, Verdict::Exhausted { holds_by_decision }) => {
            match holds_by_decision {
                Some(true) => format!(
                    "⊢NKA {lhs} = {rhs} holds (by decision), but no rewrite proof was found within the search budget"
                ),
                _ => format!("no proof of {lhs} = {rhs} found within the search budget"),
            }
        }
        (Query::ProgEq { .. }, Verdict::ProgEq { holds, enc_p, enc_q }) => {
            if *holds {
                format!("programs equivalent: ⊢NKA {enc_p} = {enc_q}")
            } else {
                format!("programs differ: ⊬NKA {enc_p} = {enc_q}   (the encodings separate)")
            }
        }
        (Query::Hoare { pre, prog, post }, Verdict::Hoare { holds, encoded }) => {
            if *holds {
                format!("⊨par {{{pre}}} {prog} {{{post}}}   (Thm 7.8: {encoded})")
            } else {
                format!("⊭par {{{pre}}} {prog} {{{post}}}   (pre ⋢ wlp; Thm 7.8 target: {encoded})")
            }
        }
        (Query::Analyze { .. }, Verdict::Analysis { findings }) => {
            let warnings = findings
                .iter()
                .filter(|f| f.severity == nka_qprog::Severity::Warning)
                .count();
            if findings.is_empty() {
                "analysis: clean (no findings)".to_owned()
            } else {
                format!(
                    "analysis: {} finding(s) — {warnings} warning(s), {} info",
                    findings.len(),
                    findings.len() - warnings
                )
            }
        }
        (
            Query::Optimize { .. },
            Verdict::Optimized {
                optimized,
                steps,
                fixpoint,
                ..
            },
        ) => {
            if steps.is_empty() {
                format!("optimize: already optimal (0 steps) — {optimized}")
            } else {
                format!(
                    "optimize: {} step(s){} — {optimized}",
                    steps.len(),
                    if *fixpoint { ", fixpoint" } else { ", budget" }
                )
            }
        }
        (_, Verdict::BudgetExhausted { detail }) => {
            format!("budget exhausted: {detail}")
        }
        // Remaining combinations cannot be produced by `Session::run`
        // (e.g. a Series verdict for an equality query); render them
        // generically rather than panicking on a hand-built Response.
        (_, verdict) => format!("{}: {}", query.kind(), verdict.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Session;

    #[test]
    fn requests_round_trip_through_the_wire() {
        let lines = [
            r#"{"op":"nka_eq","lhs":"(p q)* p","rhs":"p (q p)*"}"#,
            r#"{"op":"ka_eq","lhs":"p + p","rhs":"p"}"#,
            r#"{"op":"series","expr":"(a + a)*","max_len":4}"#,
            r#"{"op":"series","expr":"b"}"#,
            r#"{"op":"prove","lhs":"m1 (m0 p + m1)","rhs":"m1","hyps":["m1 m1 = m1","m1 m0 = 0"]}"#,
            r#"{"op":"prog_eq","p":"qubits 1; h q0; skip","q":"qubits 1; h q0"}"#,
            r#"{"op":"hoare","pre":"ket(1)","prog":"qubits 1; x q0","post":"ket(0)"}"#,
            r#"{"op":"analyze","prog":"qubits 1; h q0; h q0"}"#,
            r#"{"op":"analyze","prog":"qubits 1; init q0","passes":["metrics","unused_qubit"]}"#,
            r#"{"op":"optimize","prog":"qubits 1; abort; h q0"}"#,
            r#"{"op":"optimize","prog":"qubits 1; while q0 { x q0 }","rules":["loop-peeling"],"max_steps":3,"beam":2}"#,
            "(p q)* p = p (q p)*",
        ];
        for line in lines {
            let query = decode_request(line).unwrap().expect("a query");
            let encoded = encode_request(&query);
            let again = decode_request(&encoded).unwrap().expect("a query");
            assert_eq!(query, again, "round-trip failed for {line:?}");
        }
    }

    #[test]
    fn blank_and_comment_lines_are_skipped() {
        assert_eq!(decode_request("").unwrap(), None);
        assert_eq!(decode_request("   ").unwrap(), None);
        assert_eq!(decode_request("# a comment").unwrap(), None);
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        assert!(matches!(
            decode_request("{\"op\":\"sing\"}"),
            Err(ApiError::Malformed(_))
        ));
        assert!(matches!(
            decode_request("{\"lhs\":\"a\"}"),
            Err(ApiError::Malformed(_))
        ));
        assert!(matches!(
            decode_request("{not json"),
            Err(ApiError::Malformed(_))
        ));
        assert!(matches!(
            decode_request("no equality here"),
            Err(ApiError::Malformed(_))
        ));
        assert!(matches!(
            decode_request("a + ? = a"),
            Err(ApiError::Parse { .. })
        ));
    }

    #[test]
    fn response_lines_reparse_as_their_request() {
        let mut session = Session::new();
        let queries = [
            decode_request(r#"{"op":"nka_eq","lhs":"1 + p p*","rhs":"p*"}"#)
                .unwrap()
                .unwrap(),
            decode_request(r#"{"op":"series","expr":"1*","max_len":1}"#)
                .unwrap()
                .unwrap(),
            decode_request(r#"{"op":"prog_eq","p":"qubits 1; h q0; h q0","q":"qubits 1; skip"}"#)
                .unwrap()
                .unwrap(),
            decode_request(r#"{"op":"hoare","pre":"0.5 I","prog":"qubits 1; h q0","post":"I"}"#)
                .unwrap()
                .unwrap(),
            decode_request(r#"{"op":"analyze","prog":"qubits 2; abort; h q0"}"#)
                .unwrap()
                .unwrap(),
            decode_request(r#"{"op":"optimize","prog":"qubits 2; abort; h q0"}"#)
                .unwrap()
                .unwrap(),
        ];
        for query in queries {
            let resp = session.run(&query);
            let line = encode_response(&query, &resp);
            let reparsed = decode_request(&line).unwrap().expect("a query");
            assert_eq!(reparsed, query, "response line did not reparse: {line}");
        }
    }

    #[test]
    fn unknown_top_level_keys_answer_unsupported_field() {
        // A typo'd / future key is a typed error naming the field…
        let err = decode_request(r#"{"op":"nka_eq","lhs":"a","rhs":"a","lsh":"b"}"#)
            .expect_err("unsupported field");
        assert!(matches!(err, ApiError::Malformed(_)), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("unsupported field"), "{msg}");
        assert!(msg.contains("\"lsh\""), "{msg}");
        // …and the error line is versioned like every response line.
        let line = encode_error(&err);
        let value = Json::parse(&line).unwrap();
        assert_eq!(value.get("v").and_then(Json::as_i64), Some(WIRE_VERSION));
        assert_eq!(value.get("verdict").and_then(Json::as_str), Some("error"));
        // Response-only keys stay accepted on requests (round-trip).
        let ok = decode_request(r#"{"op":"nka_eq","lhs":"a","rhs":"a","v":1,"micros":7}"#);
        assert!(ok.unwrap().is_some());
        // The check is per-op: `p` belongs to prog_eq, not nka_eq.
        let err = decode_request(r#"{"op":"nka_eq","lhs":"a","rhs":"a","p":"qubits 1; skip"}"#)
            .expect_err("cross-op key");
        assert!(err.to_string().contains("\"p\""), "{err}");
    }

    #[test]
    fn response_lines_lead_with_the_protocol_version() {
        let mut session = Session::new();
        let query = decode_request("a = a").unwrap().unwrap();
        let line = encode_response(&query, &session.run(&query));
        assert!(line.starts_with(r#"{"v":1,"#), "{line}");
        let value = Json::parse(&line).unwrap();
        assert_eq!(value.get("v").and_then(Json::as_i64), Some(WIRE_VERSION));
        // `v` is deterministic, so the stable projection keeps it.
        assert!(stable_response_projection(&line).contains(r#""v":1"#));
    }

    #[test]
    fn analyze_responses_carry_structured_findings() {
        let mut session = Session::new();
        let query = decode_request(r#"{"op":"analyze","prog":"qubits 2; abort; h q0"}"#)
            .unwrap()
            .unwrap();
        let resp = session.run(&query);
        let line = encode_response(&query, &resp);
        let value = Json::parse(&line).expect("response is JSON");
        assert_eq!(
            value.get("verdict").and_then(Json::as_str),
            Some("analysis")
        );
        let findings = value
            .get("findings")
            .and_then(Json::as_array)
            .expect("findings array");
        assert!(!findings.is_empty());
        let mut saw_certificate = false;
        for f in findings {
            assert!(f.get("pass").and_then(Json::as_str).is_some(), "{line}");
            let severity = f.get("severity").and_then(Json::as_str).unwrap();
            assert!(severity == "warning" || severity == "info", "{line}");
            assert_eq!(f.get("span").and_then(Json::as_array).unwrap().len(), 2);
            assert!(f.get("message").and_then(Json::as_str).is_some());
            if let Some(cert) = f.get("certificate") {
                saw_certificate = true;
                // The certificate replays as a prog_eq request line.
                let p = cert.get("p").and_then(Json::as_str).unwrap();
                let q = cert.get("q").and_then(Json::as_str).unwrap();
                assert_eq!(cert.get("expect").and_then(Json::as_str), Some("holds"));
                let replay = format!(r#"{{"op":"prog_eq","p":{:?},"q":{:?}}}"#, p, q);
                let replayed = decode_request(&replay).unwrap().expect("a query");
                assert!(matches!(
                    session.run(&replayed).verdict,
                    Verdict::ProgEq { holds: true, .. }
                ));
                let stats = cert.get("stats").expect("certificate stats");
                assert!(stats.get("starfree_hits").and_then(Json::as_i64).is_some());
            }
        }
        assert!(saw_certificate, "abort-sink must be certified: {line}");
        // Unknown pass names are rejected with the candidate list.
        let err = decode_request(r#"{"op":"analyze","prog":"qubits 1; skip","passes":["bogus"]}"#)
            .expect_err("unknown pass");
        assert!(matches!(err, ApiError::Malformed(_)), "{err:?}");
        assert!(err.to_string().contains("bogus"), "{err}");
    }

    #[test]
    fn stable_projection_drops_only_the_volatile_fields() {
        let mut warm = Session::new();
        let mut cold = Session::new();
        let query = decode_request("(p q)* p = p (q p)*").unwrap().unwrap();
        // Warm the first session so its stats delta differs from the
        // cold session's: raw lines differ, projections agree.
        warm.run(&query);
        let warm_line = encode_response(&query, &warm.run(&query));
        let cold_line = encode_response(&query, &cold.run(&query));
        assert_ne!(warm_line, cold_line, "stats/micros should differ");
        assert_eq!(
            stable_response_projection(&warm_line),
            stable_response_projection(&cold_line)
        );
        assert!(!stable_response_projection(&warm_line).contains("\"micros\""));
        // Text lines pass through (minus the trailing newline).
        assert_eq!(stable_response_projection("⊢NKA a = a\n"), "⊢NKA a = a");
    }

    #[test]
    fn optional_fields_name_their_key_in_errors() {
        for (op, key) in [
            (r#""op":"analyze","prog":"qubits 1; skip""#, "passes"),
            (r#""op":"optimize","prog":"qubits 1; skip""#, "rules"),
            (r#""op":"prove","lhs":"p","rhs":"p""#, "hyps"),
        ] {
            let not_array = decode_request(&format!(r#"{{{op},"{key}":"x"}}"#)).unwrap_err();
            assert_eq!(
                not_array,
                ApiError::Malformed(format!("\"{key}\" must be an array"))
            );
            let not_strings = decode_request(&format!(r#"{{{op},"{key}":["x",1]}}"#)).unwrap_err();
            assert_eq!(
                not_strings,
                ApiError::Malformed(format!("\"{key}\" entries must be strings"))
            );
            assert!(decode_request(&format!(r#"{{{op},"{key}":[]}}"#))
                .unwrap()
                .is_some());
        }
        for (op, key) in [
            (r#""op":"series","expr":"p""#, "max_len"),
            (r#""op":"optimize","prog":"qubits 1; skip""#, "max_steps"),
            (r#""op":"optimize","prog":"qubits 1; skip""#, "beam"),
        ] {
            let not_int = decode_request(&format!(r#"{{{op},"{key}":"3"}}"#)).unwrap_err();
            assert_eq!(
                not_int,
                ApiError::Malformed(format!("\"{key}\" must be an integer"))
            );
            let negative = decode_request(&format!(r#"{{{op},"{key}":-1}}"#)).unwrap_err();
            assert_eq!(
                negative,
                ApiError::Malformed(format!("\"{key}\" must be ≥ 0"))
            );
        }
    }

    #[test]
    fn optimize_responses_carry_trace_and_replayable_certificate() {
        let mut session = Session::new();
        let query = decode_request(r#"{"op":"optimize","prog":"qubits 2; abort; h q0; x q1"}"#)
            .unwrap()
            .unwrap();
        let resp = session.run(&query);
        let line = encode_response(&query, &resp);
        let value = Json::parse(&line).expect("response is JSON");
        assert_eq!(
            value.get("verdict").and_then(Json::as_str),
            Some("optimized")
        );
        assert_eq!(
            value.get("optimized").and_then(Json::as_str),
            Some("qubits 2; abort")
        );
        assert_eq!(value.get("fixpoint"), Some(&Json::Bool(true)));
        let steps = value
            .get("steps")
            .and_then(Json::as_array)
            .expect("steps array");
        assert_eq!(steps.len(), 1, "{line}");
        assert_eq!(
            steps[0].get("rule").and_then(Json::as_str),
            Some("abort-sink")
        );
        assert!(steps[0]
            .get("citation")
            .and_then(Json::as_str)
            .unwrap()
            .contains("Def. 4.4"));
        // The certificate replays as a prog_eq request line.
        let cert = value.get("certificate").expect("certificate");
        let p = cert.get("p").and_then(Json::as_str).unwrap();
        let q = cert.get("q").and_then(Json::as_str).unwrap();
        assert_eq!(cert.get("expect").and_then(Json::as_str), Some("holds"));
        let replay = format!(r#"{{"op":"prog_eq","p":{:?},"q":{:?}}}"#, p, q);
        let replayed = decode_request(&replay).unwrap().expect("a query");
        assert!(matches!(
            session.run(&replayed).verdict,
            Verdict::ProgEq { holds: true, .. }
        ));
        // Unknown rule names are rejected with the catalog list.
        let err = decode_request(r#"{"op":"optimize","prog":"qubits 1; skip","rules":["bogus"]}"#)
            .expect_err("unknown rule");
        assert!(matches!(err, ApiError::Malformed(_)), "{err:?}");
        assert!(err.to_string().contains("bogus"), "{err}");
    }

    #[test]
    fn series_terms_carry_infinite_coefficients_as_strings() {
        let mut session = Session::new();
        let query = decode_request(r#"{"op":"series","expr":"1* a","max_len":1}"#)
            .unwrap()
            .unwrap();
        let resp = session.run(&query);
        let line = encode_response(&query, &resp);
        assert!(line.contains("\"∞\""), "{line}");
        let value = Json::parse(&line).unwrap();
        assert_eq!(value.get("verdict").and_then(Json::as_str), Some("series"));
    }
}
