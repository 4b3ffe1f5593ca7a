//! The quantum path model `P(H)` (Section 3 of Peng–Ying–Wu, PLDI 2022).
//!
//! The path model is the paper's central technical device: a sound (and,
//! with the interpretation of Section 4, complete) semantic model of NKA
//! built from *extended positive operators* — equivalence classes of
//! countable multisets of PSD operators that can carry direction-resolved
//! infinities (Definition 3.3). Quantum path actions (Definition 3.4) are
//! linear monotone maps on those classes; lifted superoperators embed
//! `QC(H)` into the model (Definition 3.7 / Lemma 3.8).
//!
//! # Canonical forms
//!
//! [`ExtPosOp`] represents an equivalence class by the pair `(V, A)` of its
//! divergence subspace and compressed finite part. This is a *complete*
//! invariant: a series `⊎ᵢ ρᵢ` induces the lower-semicontinuous weight
//! `m(φ) = sup_J tr(S_J φ)` on PSD `φ`, the paper's relation `≲` holds iff
//! `m_ρ ≤ m_σ` pointwise (a Dini-type compactness argument on the density
//! simplex bridges the quantifier orders), and `m` is exactly
//! `φ ↦ tr(Aφ)` for `supp φ ⊆ V⊥`, `∞` otherwise (the order of
//! Definition 3.3 on the extended positive operators of Section 3.2).
//!
//! # Actions
//!
//! [`Action`] is a term language over lifted superoperators closed under
//! `+`, `;`/`⋄` and `*`, evaluated lazily on canonical forms
//! ([`Action::apply`]). Star evaluation accumulates partial sums with
//! divergence-direction extraction governed by [`StarPolicy`].
//!
//! # Examples
//!
//! `1*` interpreted over any `H` diverges in *every* direction, while the
//! star of a measurement branch stays finite:
//!
//! ```
//! use nka_qpath::{Action, ExtPosOp};
//! use qsim_quantum::{states, Superoperator};
//!
//! let id2 = Action::lift(Superoperator::identity(2));
//! let rho = ExtPosOp::from_operator(&states::basis_density(2, 0));
//! let diverged = id2.star().apply(&rho);
//! assert_eq!(diverged.divergence().dim(), 1); // |0⟩⟨0| repeated forever
//! ```

pub mod action;
pub mod ext_pos;
pub mod interp;

pub use action::{Action, StarPolicy};
pub use ext_pos::ExtPosOp;
pub use interp::Interpretation;
