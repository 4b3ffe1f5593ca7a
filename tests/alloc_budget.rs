//! Allocation budget of the warm request path. A counting global
//! allocator counts the heap allocations (and reallocations) one
//! repeated request line costs in [`answer_line`], after two warm-up
//! answers of the same line: the verdict, the term statistics and every
//! gate-table entry are cached by then, so what is left is the wire path
//! around the cached decision.
//!
//! The budgets are the counts measured when the wire path was made to
//! write in place (debug and release alike); a change that allocates
//! more per warm line fails here. Building a `Json` tree per response
//! and copying every lexer token cost 83 allocations on the `nka_eq`
//! line and 159 on the `prog_eq` line. Run with `--nocapture` to see the
//! decode / run / encode split.

use nka_quantum::api::{answer_line, wire, Session};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations made on this thread; each test counts its own.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// A loop-free `loopfree_warm`-style expression pair.
const NKA_EQ: &str = r#"{"op":"nka_eq","lhs":"(p q)* p","rhs":"p (q p)*"}"#;
/// A loop-free two-qubit program pair that holds.
const PROG_EQ: &str = r#"{"op":"prog_eq","p":"qubits 2; h q0; cnot q0 q1; x q1; skip","q":"qubits 2; h q0; cnot q0 q1; x q1"}"#;

/// Warms `line` on a fresh session, then counts one more answer of it:
/// whole, and split into decode, run and encode.
fn warm_line_allocations(line: &str) -> u64 {
    let mut session = Session::new();
    for _ in 0..2 {
        answer_line(&mut session, line, true).expect("a request line");
    }
    let (decode, query) = allocations(|| wire::decode_request(line));
    let query = query.expect("decodes").expect("a query");
    let (run, resp) = allocations(|| session.run(&query));
    let (encode, _) = allocations(|| wire::encode_response(&query, &resp));
    let (total, answered) = allocations(|| answer_line(&mut session, line, true));
    let answered = answered.expect("a request line");
    assert!(answered.outcome.is_ok(), "{}", answered.line);
    println!("{line}\n  decode {decode}, run {run}, encode {encode}; answer_line {total}");
    total
}

#[test]
fn a_warm_nka_eq_line_stays_within_its_allocation_budget() {
    let total = warm_line_allocations(NKA_EQ);
    assert!(total <= 12, "a warm nka_eq line made {total} allocations");
}

#[test]
fn a_warm_prog_eq_line_stays_within_its_allocation_budget() {
    let total = warm_line_allocations(PROG_EQ);
    assert!(total <= 45, "a warm prog_eq line made {total} allocations");
}
