//! Syntax of NKA expressions (Definition 2.2 of Peng–Ying–Wu, PLDI 2022).
//!
//! An expression over an alphabet Σ is
//!
//! ```text
//! e ::= 0 | 1 | a | e₁ + e₂ | e₁ · e₂ | e₁*        (a ∈ Σ)
//! ```
//!
//! This crate provides interned [`Symbol`]s, the hash-consed [`Expr`]
//! handle over a process-global arena (API v2: `Copy` handles with O(1)
//! equality/hashing, identified by [`ExprId`]), a parser (multiplication
//! by juxtaposition, as written in the paper), a precedence-aware
//! pretty-printer, [`Word`]s over Σ, and a random expression generator
//! used by the test suites and benchmarks of the downstream crates.
//! [`Expr::fold`] is the one structural recursion over an expression:
//! post-order on an explicit stack with a caller-held memo. Every
//! memoized walker is written with it, so input depth never reaches the
//! call stack.
//! It also hosts [`counter_table!`], the one declaration of every stats
//! struct the downstream crates report (see [`counters`]).
//!
//! # Examples
//!
//! ```
//! use nka_syntax::Expr;
//!
//! // Enc(while M[q]=1 do P done) = (m1 p)* m0   — Section 4.2 of the paper.
//! let loop_enc: Expr = "(m1 p)* m0".parse()?;
//! assert_eq!(loop_enc.to_string(), "(m1 p)* m0");
//! assert_eq!(loop_enc.size(), 6);
//! # Ok::<(), nka_syntax::ParseExprError>(())
//! ```

pub mod counters;
mod expr;
mod generator;
mod parser;
mod symbol;
mod word;

pub use expr::{
    arena_resident_nodes, interned_expr_count, promote, promote_memoized, scratch_epoch,
    scratch_live_nodes, scratch_retired_total, Expr, ExprId, ExprNode, Folded, ScratchLog,
    ScratchScope,
};
pub use generator::{random_expr, ExprGenConfig};
pub use parser::{nesting_too_deep, render_caret, ParseExprError, MAX_NESTING_DEPTH};
pub use symbol::Symbol;
pub use word::Word;
