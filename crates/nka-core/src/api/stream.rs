//! The one request path: [`answer_line`] turns a wire line into a
//! response line on a [`Session`], and [`run_ordered`] streams work
//! through warm worker sessions with answers in input order.
//!
//! Every surface drives these two functions and nothing else: the CLI
//! one-shot (its arguments become one request line), `nka batch`, the
//! stdin `serve` loop, `nka snapshot dump`, `batch --jobs N`, the
//! socket server's workers, and `nka-loadgen`'s expected-response pass.
//! Exit classes, rendering and service timing are therefore defined
//! once, here.

use super::{wire, ApiError, Query, Response, Session, Verdict};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How one answered line counts toward a stream's exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineClass {
    /// A positive verdict (holds, proved, a series, a valid triple, …).
    Ok,
    /// A negative verdict (refuted, no proof, warnings found).
    No,
    /// The line did not decode into a query.
    Malformed,
    /// The engine ran out of budget answering it.
    Budget,
    /// Answering it panicked: the line got an `internal error` and the
    /// session was rebuilt.
    Internal,
}

impl LineClass {
    /// The process exit code of a one-line stream: `0`, `1`, `2`, `3`.
    #[must_use]
    pub fn exit_code(self) -> u8 {
        match self {
            LineClass::Ok => 0,
            LineClass::No => 1,
            LineClass::Malformed | LineClass::Internal => 2,
            LineClass::Budget => 3,
        }
    }

    /// Folds a line into a stream's exit code (start from `0`):
    /// malformed input (or an internal error) dominates, then budget
    /// exhaustion; verdicts themselves are data, not failures.
    #[must_use]
    pub fn fold(self, code: u8) -> u8 {
        match (code, self) {
            (2, _) | (_, LineClass::Malformed | LineClass::Internal) => 2,
            (3, _) | (_, LineClass::Budget) => 3,
            _ => 0,
        }
    }
}

/// One answered request line.
#[derive(Debug, Clone)]
pub struct Answered {
    /// The response line (JSON or human text), without a newline.
    pub line: String,
    /// The exit class of the line.
    pub class: LineClass,
    /// Service time: decode + run + encode. The latency histograms of
    /// every `--stats` surface record this; the wire `micros` field
    /// stays the dispatch time of [`Session::run`].
    pub service: Duration,
    /// The decoded query and its response, or why the line did not
    /// decode.
    pub outcome: Result<(Query, Response), ApiError>,
}

/// Answers one wire line on `session`: decode, run, render the response
/// (or error) line as JSON (`json`) or human text, classify it, and
/// time the whole service. `None` for blank and `#` comment lines, which
/// are owed no response.
///
/// A panic while running or rendering the query costs only that line:
/// it is answered with a structured `internal error`
/// ([`ApiError::Internal`], [`LineClass::Internal`]), and the session,
/// whose caches may be mid-update, drops them as on recycling.
pub fn answer_line(session: &mut Session, line: &str, json: bool) -> Option<Answered> {
    let start = Instant::now();
    let (line, class, outcome) = match wire::decode_request(line) {
        Ok(None) => return None,
        Ok(Some(query)) => {
            match panic::catch_unwind(AssertUnwindSafe(|| run_query(session, &query, json))) {
                Ok((line, class, resp)) => (line, class, Ok((query, resp))),
                Err(payload) => {
                    session.retire_engine();
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "panic while answering the request".to_owned());
                    let err = ApiError::Internal(msg);
                    (
                        wire::render_error(&err, json),
                        LineClass::Internal,
                        Err(err),
                    )
                }
            }
        }
        Err(err) => (
            wire::render_error(&err, json),
            LineClass::Malformed,
            Err(err),
        ),
    };
    Some(Answered {
        line,
        class,
        service: start.elapsed(),
        outcome,
    })
}

/// Runs `query` on `session` and renders and classifies its response.
fn run_query(session: &mut Session, query: &Query, json: bool) -> (String, LineClass, Response) {
    #[cfg(test)]
    tests::maybe_inject_panic(query);
    let resp = session.run(query);
    let line = if json {
        wire::encode_response(query, &resp)
    } else {
        wire::encode_response_text(query, &resp)
    };
    let class = match resp.verdict {
        Verdict::BudgetExhausted { .. } => LineClass::Budget,
        ref v if v.is_positive() => LineClass::Ok,
        _ => LineClass::No,
    };
    (line, class, resp)
}

/// Items a worker may have queued, and outputs it may have waiting,
/// before the stream blocks: the memory bound of [`run_ordered`].
const WORKER_BACKLOG: usize = 64;

/// The stack of every thread that answers request lines off the main
/// thread — [`run_ordered`]'s workers and the socket server's — sized
/// like the main thread's, so a line the sequential `batch` answers is
/// answered on every surface (the 2 MiB default overflowed on a flat
/// 20,000-statement program).
pub(crate) const WORKER_STACK_BYTES: usize = 8 << 20;

/// Streams `items` through the warm `sessions`, one scoped worker
/// thread per session, and hands `work`'s outputs to `emit` **in input
/// order**.
///
/// Item `i` goes to worker `i % n` over a bounded channel, and `emit`
/// (on its own thread) takes outputs from the workers in the same
/// round-robin order, so order needs no reorder buffer and memory stays
/// `O(n · WORKER_BACKLOG)` whatever the stream length: a live pipe gets
/// its answers as they are ready. The sessions stay warm for the whole
/// stream and are left to the caller for accounting and snapshot export.
/// A single session runs inline on the calling thread.
pub fn run_ordered<I, O>(
    sessions: &mut [Session],
    items: impl Iterator<Item = I>,
    work: impl Fn(&mut Session, I) -> O + Sync,
    mut emit: impl FnMut(O) + Send,
) where
    I: Send,
    O: Send,
{
    if let [session] = sessions {
        for item in items {
            emit(work(session, item));
        }
        return;
    }
    let work = &work;
    std::thread::scope(|scope| {
        let mut inputs = Vec::with_capacity(sessions.len());
        let mut outputs = Vec::with_capacity(sessions.len());
        for session in sessions.iter_mut() {
            let (in_tx, in_rx) = mpsc::sync_channel::<I>(WORKER_BACKLOG);
            let (out_tx, out_rx) = mpsc::sync_channel::<O>(WORKER_BACKLOG);
            std::thread::Builder::new()
                .stack_size(WORKER_STACK_BYTES)
                .spawn_scoped(scope, move || {
                    for item in in_rx {
                        if out_tx.send(work(session, item)).is_err() {
                            return;
                        }
                    }
                })
                .expect("a worker thread spawns");
            inputs.push(in_tx);
            outputs.push(out_rx);
        }
        scope.spawn(move || {
            // Worker `i % n` answers item `i`; the first worker with no
            // further output marks the end of the stream.
            for rx in outputs.iter().cycle() {
                match rx.recv() {
                    Ok(out) => emit(out),
                    Err(_) => return,
                }
            }
        });
        for (item, tx) in items.zip(inputs.iter().cycle()) {
            if tx.send(item).is_err() {
                break;
            }
        }
        // Dropping the senders lets the workers, then `emit`, finish.
        drop(inputs);
    });
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The atom whose `nka_eq` query panics in test builds: the hook
    /// that exercises [`answer_line`]'s panic isolation.
    pub(crate) const PANIC_ATOM: &str = "injected_panic";

    pub(super) fn maybe_inject_panic(query: &Query) {
        if let Query::NkaEq { lhs, .. } = query {
            if lhs.to_string() == PANIC_ATOM {
                panic!("injected test panic");
            }
        }
    }

    #[test]
    fn a_panicking_query_costs_one_line_and_rebuilds_the_session() {
        let mut session = Session::new();
        let holds = answer_line(&mut session, "(p q)* p = p (q p)*", true).unwrap();
        assert_eq!(holds.class, LineClass::Ok);
        let recycles = session.totals().engine_recycles;
        let line = format!("{PANIC_ATOM} = p");
        let json = answer_line(&mut session, &line, true).unwrap();
        assert_eq!(json.class, LineClass::Internal);
        assert_eq!(
            json.line,
            r#"{"v":1,"verdict":"error","error":"internal error: injected test panic"}"#
        );
        assert!(matches!(json.outcome, Err(ApiError::Internal(_))));
        assert_eq!(session.totals().engine_recycles, recycles + 1, "rebuilt");
        let text = answer_line(&mut session, &line, false).unwrap();
        assert_eq!(text.line, "error: internal error: injected test panic");
        assert_eq!(LineClass::Internal.exit_code(), 2);
        // The rebuilt session answers on, from cold caches.
        let again = answer_line(&mut session, "(p q)* p = p (q p)*", true).unwrap();
        assert_eq!(again.class, LineClass::Ok);
        let (_, resp) = again.outcome.unwrap();
        assert_eq!(
            resp.stats_delta.answer_hits, 0,
            "the verdict cache was dropped"
        );
    }

    #[test]
    fn lines_answer_classify_and_skip_blanks() {
        let mut session = Session::new();
        assert!(answer_line(&mut session, "  ", true).is_none());
        assert!(answer_line(&mut session, "# note", true).is_none());
        let holds = answer_line(&mut session, "(p q)* p = p (q p)*", true).unwrap();
        assert_eq!(holds.class, LineClass::Ok);
        assert!(holds.line.starts_with(r#"{"v":1,"#), "{}", holds.line);
        let refuted = answer_line(&mut session, "p + p = p", false).unwrap();
        assert_eq!(refuted.class, LineClass::No);
        assert!(refuted.line.starts_with("⊬NKA"), "{}", refuted.line);
        let bad = answer_line(&mut session, "{\"op\":\"nope\"}", true).unwrap();
        assert_eq!(bad.class, LineClass::Malformed);
        assert!(bad.outcome.is_err());
        assert!(bad.line.contains(r#""verdict":"error""#), "{}", bad.line);
        assert_eq!(session.queries_run(), 2, "malformed lines never run");
    }

    #[test]
    fn exit_classes_fold_malformed_over_budget_over_verdicts() {
        let fold = |classes: &[LineClass]| classes.iter().fold(0, |code, c| c.fold(code));
        assert_eq!(fold(&[LineClass::Ok, LineClass::No]), 0);
        assert_eq!(fold(&[LineClass::Budget, LineClass::No]), 3);
        assert_eq!(fold(&[LineClass::Malformed, LineClass::Budget]), 2);
        assert_eq!(
            fold(&[LineClass::Budget, LineClass::Malformed, LineClass::Ok]),
            2
        );
        assert_eq!(LineClass::No.exit_code(), 1);
    }

    #[test]
    fn ordered_pool_keeps_input_order_and_warm_sessions() {
        // Atoms other tests intern too: the arena-growth assertions
        // elsewhere in this test binary share the process arena.
        let lines: Vec<&str> = (0..500).map(|i| ["p = p", "q = q"][i % 2]).collect();
        for jobs in [1, 3] {
            let mut sessions: Vec<Session> = (0..jobs).map(|_| Session::new()).collect();
            let mut seen = Vec::new();
            run_ordered(
                &mut sessions,
                lines.iter().enumerate(),
                |session, (i, line)| (i, answer_line(session, line, true).unwrap()),
                |(i, answered)| seen.push((i, answered.class)),
            );
            assert_eq!(seen.len(), lines.len(), "jobs={jobs}");
            assert!(seen
                .iter()
                .enumerate()
                .all(|(k, &(i, class))| k == i && class == LineClass::Ok));
            // Each worker answered its whole share on one warm session.
            let answered: u64 = sessions.iter().map(Session::queries_run).sum();
            assert_eq!(answered, 500, "jobs={jobs}");
            assert!(
                sessions.iter().all(|s| s.stats().answer_hits > 0),
                "jobs={jobs}"
            );
        }
    }
}
