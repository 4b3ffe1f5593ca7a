//! The budgeted decision engine: one reusable surface for every NKA / KA
//! equivalence query in the workspace.
//!
//! The free functions [`crate::decide_eq`] and [`crate::ka_equiv`] are
//! one-shot conveniences; anything that decides *more than one* query — the
//! auto-prover, the `nka` CLI, the benches, batch test oracles — should hold
//! a [`Decider`] instead. The engine owns the resource policy
//! ([`DecideOptions`]) and memoizes every expensive intermediate across
//! queries:
//!
//! * compiled position automata per expression;
//! * determinized ∞-support and support DFAs per (expression, alphabet);
//! * final verdicts per unordered query pair.
//!
//! The star-free tiers ([`crate::starfree`]) keep nothing else: a
//! star-free query evaluates its word multisets with a memo that lives
//! for that call only, and the verdict cache remembers the answer.
//!
//! Deciding `e = f` and then `e = g` therefore compiles `e` once; deciding
//! the same pair twice is a hash lookup. All entry points return
//! `Result` — the engine never panics on budget exhaustion, it reports
//! [`DecideError`] and leaves the caches intact so a caller may retry with
//! a larger budget via a fresh engine.
//!
//! # Cache keying (Expr API v2)
//!
//! Every cache is keyed on [`ExprId`] — the hash-consed identity of an
//! expression — plus a per-engine interned alphabet id for the DFA maps,
//! so keys are small `Copy` integers and every probe is **allocation-
//! free**. (Regression note: the v1 engine keyed on whole `Expr` trees
//! and `Vec<Symbol>` alphabets, so each `infinity_dfa`/`support_dfa`
//! probe built an owned `(e.clone(), alphabet.to_vec())` key and the
//! symmetric verdict lookup cloned both expressions under *both*
//! orientations per read. With interned ids the symmetric caches key on
//! the normalized pair `(min(id₁, id₂), max(id₁, id₂))` and probe once.
//! Keep it that way — cache probes are the warm-path inner loop.)
//!
//! The engine is `Send + Sync` (statically asserted below): compiled
//! automata are held behind `Arc` and expressions are arena handles, so
//! whole engines — and the `nka_core::api::Session`s wrapping them —
//! can move across worker threads for parallel batch sharding.
//!
//! # Examples
//!
//! ```
//! use nka_wfa::engine::Decider;
//! use nka_syntax::Expr;
//!
//! let mut engine = Decider::new();
//! let lhs: Expr = "(p q)* p".parse()?;
//! let rhs: Expr = "p (q p)*".parse()?;
//! assert!(engine.decide(&lhs, &rhs)?);       // sliding — a theorem
//! assert!(engine.decide(&lhs, &rhs)?);       // answered from the cache
//! assert_eq!(engine.stats().answer_hits, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::automaton::Wfa;
use crate::decide::{DecideError, DecideOptions};
use crate::ka::support_nfa;
use crate::nfa::Dfa;
use crate::position::position_automaton;
use crate::starfree::{self, PrefixOutcome};
use crate::zeroness::{is_zero_integer, restrict_within};
use nka_semiring::ExtNat;
use nka_syntax::{Expr, ExprId, ScratchLog, Symbol};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A per-engine dense id for an interned (sorted) alphabet; pairs with
/// [`ExprId`] to form the `Copy` DFA-cache keys.
type AlphabetId = u32;

nka_syntax::counter_table! {
    /// Cache-effectiveness counters, exposed for tests, logging, and the
    /// CLI's `--stats` output. All counters are cumulative over the
    /// engine's life; `delta_since` between two snapshots of one engine
    /// is the activity of the queries in between, and `merged` folds
    /// per-query deltas or per-worker totals.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DeciderStats {
        /// NKA queries answered (including cache hits).
        pub nka_queries: u64,
        /// KA (language-equivalence) queries answered (including cache hits).
        pub ka_queries: u64,
        /// Queries answered directly from the verdict cache.
        pub answer_hits: u64,
        /// Expression compilations served from the automaton cache.
        pub compile_hits: u64,
        /// Expressions compiled fresh (position automaton).
        pub compile_misses: u64,
        /// Determinizations served from the DFA cache.
        pub dfa_hits: u64,
        /// Subset constructions actually run.
        pub dfa_misses: u64,
        /// NKA queries answered by the tier-1 star-free multiset evaluator
        /// (finite word-multiset comparison; no automaton was built).
        pub starfree_hits: u64,
        /// NKA queries answered by tier-2 prefix normalization (zero-series
        /// sides, full factor cancellation, or a divergent atom head).
        pub prefix_hits: u64,
        /// Star-free queries that exceeded the multiset budget (or
        /// overflowed `u64`) and fell back to the generic pipeline.
        pub fastpath_fallbacks: u64,
    }
}

/// The memoizing, budgeted decision engine. See the [module docs](self).
///
/// # Scratch-epoch hygiene (Arena lifecycle v1)
///
/// Cache keys are [`ExprId`]s, and scratch ids (interned under a
/// `nka_syntax::ScratchScope`) are *reused* after their scope retires.
/// The engine therefore logs every cache key it inserts under a scratch
/// id (a [`ScratchLog`] naming each entry's cache and key, pinned to
/// the [`nka_syntax::scratch_epoch`] of the first) and, on observing an
/// advance at any public entry point, removes exactly the logged
/// entries. A purge costs O(entries it evicts): persistent-keyed
/// entries — wire-decoded terms, promoted verdicts, restored snapshots
/// — are never visited, so a session that has cached millions of them
/// pays per query only for that query's scratch. The common case,
/// where no scratch id entered the engine since the last purge, is a
/// single length check.
#[derive(Debug, Default)]
pub struct Decider {
    opts: DecideOptions,
    exprs: HashMap<ExprId, Arc<Wfa<ExtNat>>>,
    /// Sorted alphabets seen by this engine, interned to dense ids so
    /// DFA-cache keys are `Copy` and probes never allocate. Probed via
    /// `&[Symbol]` (the `Borrow` impl of `Box<[Symbol]>`).
    alphabets: HashMap<Box<[Symbol]>, AlphabetId>,
    /// Determinized ∞-support DFAs, keyed by (expression id, alphabet id).
    infinity_dfas: HashMap<(ExprId, AlphabetId), Arc<Dfa>>,
    /// Determinized support DFAs (the KA side), same keying.
    support_dfas: HashMap<(ExprId, AlphabetId), Arc<Dfa>>,
    /// Verdict caches, keyed on the *normalized* unordered pair
    /// `(min(id₁, id₂), max(id₁, id₂))` — one probe answers both
    /// orientations of a symmetric query. A value is `(verdict,
    /// restored)`: `restored` marks an entry loaded from a snapshot
    /// rather than decided in this process, and a hit on one is a
    /// *warm-start* hit — counted in [`Decider::snapshot_hits`] on top
    /// of the ordinary `answer_hits` bump, so tiered lookup
    /// effectiveness (in-process hit → snapshot hit → recompute) is
    /// observable.
    nka_verdicts: HashMap<(ExprId, ExprId), (bool, bool)>,
    ka_verdicts: HashMap<(ExprId, ExprId), (bool, bool)>,
    /// Verdict-cache hits whose entry came from a snapshot.
    snapshot_hits: u64,
    /// Every live cache entry keyed (partly) on a scratch id, and the
    /// scratch-retirement epoch they are valid under; when empty, an
    /// epoch advance needs no work at all.
    scratch_log: ScratchLog<ScratchKey>,
    /// Scratch-keyed purges performed (observability for tests/stats).
    scratch_purges: u64,
    stats: DeciderStats,
}

/// A cache entry keyed (partly) on a scratch id: the cache it lives in
/// and its key. [`Decider::sync_scratch_epoch`] removes exactly these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ScratchKey {
    Expr(ExprId),
    InfinityDfa((ExprId, AlphabetId)),
    SupportDfa((ExprId, AlphabetId)),
    NkaVerdict((ExprId, ExprId)),
    KaVerdict((ExprId, ExprId)),
}

/// Compile-time proof that whole engines (caches included) move and
/// share across threads — the contract the parallel batch path relies on.
#[allow(dead_code)]
fn _static_assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<Decider>();
    check::<DeciderStats>();
}

impl Decider {
    /// An engine with the default options (100 000-state budget, exact
    /// arithmetic).
    #[must_use]
    pub fn new() -> Decider {
        Decider::default()
    }

    /// An engine with explicit options.
    #[must_use]
    pub fn with_options(opts: DecideOptions) -> Decider {
        Decider {
            opts,
            ..Decider::default()
        }
    }

    /// An engine with the given state budget for each subset
    /// construction and restriction product.
    #[must_use]
    pub fn with_budget(max_dfa_states: usize) -> Decider {
        Decider::with_options(DecideOptions {
            max_dfa_states,
            ..DecideOptions::default()
        })
    }

    /// The resource options this engine enforces.
    #[must_use]
    pub fn options(&self) -> &DecideOptions {
        &self.opts
    }

    /// Cache-effectiveness counters.
    #[must_use]
    pub fn stats(&self) -> DeciderStats {
        self.stats
    }

    /// How many times this engine evicted scratch-keyed cache entries
    /// after observing a scratch-epoch advance. Stays zero for engines
    /// that only ever see persistent expressions.
    #[must_use]
    pub fn scratch_purges(&self) -> u64 {
        self.scratch_purges
    }

    /// Drops every cache entry this process compiled or decided, the
    /// memory backstop of a long-lived session. Verdicts restored from a
    /// snapshot stay (an exact verdict is valid for the life of the
    /// process), and the counters keep counting across the call.
    pub fn recycle(&mut self) {
        self.exprs = HashMap::new();
        self.alphabets = HashMap::new();
        self.infinity_dfas = HashMap::new();
        self.support_dfas = HashMap::new();
        self.scratch_log.clear();
        self.nka_verdicts.retain(|_, &mut (_, restored)| restored);
        self.ka_verdicts.retain(|_, &mut (_, restored)| restored);
    }

    /// Brings the caches in line with the current scratch epoch: if any
    /// scope retired since the first scratch-keyed entry was logged,
    /// exactly the logged entries are evicted (their ids may since name
    /// different terms). Called at every public entry point; costs
    /// O(entries evicted), and one length check when none are logged.
    fn sync_scratch_epoch(&mut self) {
        let Some(stale) = self.scratch_log.stale() else {
            return;
        };
        for key in stale {
            match key {
                ScratchKey::Expr(id) => {
                    self.exprs.remove(&id);
                }
                ScratchKey::InfinityDfa(key) => {
                    self.infinity_dfas.remove(&key);
                }
                ScratchKey::SupportDfa(key) => {
                    self.support_dfas.remove(&key);
                }
                ScratchKey::NkaVerdict(key) => {
                    self.nka_verdicts.remove(&key);
                }
                ScratchKey::KaVerdict(key) => {
                    self.ka_verdicts.remove(&key);
                }
            }
        }
        self.scratch_purges += 1;
    }

    /// Decides `⊢NKA e = f` (Remark 2.1 / Theorem A.6).
    ///
    /// Queries run through a tiered pipeline behind the verdict cache:
    /// **star-free** pairs (loop-free program encodings) are answered
    /// by prefix normalization or finite word-multiset comparison (see
    /// [`crate::starfree`]) without building any automaton — and
    /// therefore without consuming DFA-state budget. Everything else —
    /// and star-free pairs whose multisets exceed
    /// [`DecideOptions::starfree_max_words`] — takes the generic
    /// automaton pipeline. Both paths are exact; the verdict never
    /// depends on the tier that produced it.
    ///
    /// # Errors
    ///
    /// Returns [`DecideError`] if a subset construction or the restriction
    /// product exceeds the engine's state budget, or a finite path count
    /// overflows `u64`. Errors are not cached; retrying the same
    /// query on an engine with a larger budget starts from whatever
    /// intermediates did fit.
    pub fn decide(&mut self, e: &Expr, f: &Expr) -> Result<bool, DecideError> {
        self.sync_scratch_epoch();
        self.stats.nka_queries += 1;
        let key = pair_key(e, f);
        if let Some(&(verdict, restored)) = self.nka_verdicts.get(&key) {
            self.stats.answer_hits += 1;
            self.snapshot_hits += u64::from(restored);
            return Ok(verdict);
        }
        let verdict = match self.starfree_fast_path(e, f) {
            Some(verdict) => verdict,
            None => self.decide_generic(e, f)?,
        };
        if key.0.is_scratch() || key.1.is_scratch() {
            self.scratch_log.record(ScratchKey::NkaVerdict(key));
        }
        self.nka_verdicts.insert(key, (verdict, false));
        Ok(verdict)
    }

    /// The tiered star-free fast path: `Some(verdict)` if the pair is
    /// star-free and decidable within the multiset budget, `None` to
    /// fall back to the generic pipeline. Exact whenever it answers.
    fn starfree_fast_path(&mut self, e: &Expr, f: &Expr) -> Option<bool> {
        let max_words = self.opts.starfree_max_words;
        if max_words == 0 || e.star_height() != 0 || f.star_height() != 0 {
            return None;
        }
        // Tier 2: gate-by-gate prefix normalization of the `·`-spines.
        let (re, rf) = match starfree::prefix_normalize(e, f) {
            PrefixOutcome::Decided(verdict) => {
                self.stats.prefix_hits += 1;
                return Some(verdict);
            }
            PrefixOutcome::Residual(re, rf) => (re, rf),
        };
        // Tier 1: compare the residual products' word multisets, with a
        // memo that lives for this query only (shared subterms of both
        // sides evaluate once).
        let mut memo = HashMap::new();
        let left = starfree::eval_product(&re, &mut memo, max_words, &mut 0);
        let right = match left {
            Some(_) => starfree::eval_product(&rf, &mut memo, max_words, &mut 0),
            None => None,
        };
        match (left, right) {
            (Some(left), Some(right)) => {
                self.stats.starfree_hits += 1;
                Some(left == right)
            }
            _ => {
                self.stats.fastpath_fallbacks += 1;
                None
            }
        }
    }

    /// The generic automaton pipeline (position automata → ∞-support
    /// DFAs → one restriction product of both automata → exact modular
    /// zeroness, first prime first), shared by every query the fast path
    /// does not answer.
    fn decide_generic(&mut self, e: &Expr, f: &Expr) -> Result<bool, DecideError> {
        let alphabet = shared_alphabet(e, f);
        // Step 1: the ∞-supports must coincide as regular languages. A
        // side with no `∞` weight has the one-state empty DFA, so a
        // one-sided pair is an emptiness test here.
        let de = self.infinity_dfa(e, &alphabet)?;
        let df = self.infinity_dfa(f, &alphabet)?;
        if !de.equivalent(&df) {
            return Ok(false);
        }
        // Step 2: the finite parts must agree outside the ∞-support.
        let ce = self.compile(e)?;
        let cf = self.compile(f)?;
        // Path counts, `∞` read as 0, with the right side's final weights
        // negated: one product of both automata with the complement of
        // the support.
        let finite = |w: &ExtNat| w.finite().map_or(0, i128::from);
        let outside_support = |s| !de.is_accepting(s);
        let restricted = restrict_within(
            &ce,
            Some(&cf),
            finite,
            &de,
            outside_support,
            self.opts.max_dfa_states,
        )?;
        Ok(is_zero_integer(&restricted))
    }

    /// Decides `⊢KA e = f`, i.e. language equivalence of the supports
    /// (Kozen's completeness theorem; equivalently `⊢NKA 1*e = 1*f`).
    ///
    /// # Errors
    ///
    /// Returns [`DecideError`] on subset-construction overflow.
    pub fn ka_equiv(&mut self, e: &Expr, f: &Expr) -> Result<bool, DecideError> {
        self.sync_scratch_epoch();
        self.stats.ka_queries += 1;
        let key = pair_key(e, f);
        if let Some(&(verdict, restored)) = self.ka_verdicts.get(&key) {
            self.stats.answer_hits += 1;
            self.snapshot_hits += u64::from(restored);
            return Ok(verdict);
        }
        let alphabet = shared_alphabet(e, f);
        let de = self.support_dfa(e, &alphabet)?;
        let df = self.support_dfa(f, &alphabet)?;
        let verdict = de.equivalent(&df);
        if key.0.is_scratch() || key.1.is_scratch() {
            self.scratch_log.record(ScratchKey::KaVerdict(key));
        }
        self.ka_verdicts.insert(key, (verdict, false));
        Ok(verdict)
    }

    /// Decides a batch of NKA queries, returning one verdict per input
    /// pair **in input order**. Expressions shared between pairs are
    /// compiled once; a budget overflow in one pair does not abort the
    /// rest of the batch.
    pub fn decide_all(&mut self, pairs: &[(Expr, Expr)]) -> Vec<Result<bool, DecideError>> {
        pairs.iter().map(|(e, f)| self.decide(e, f)).collect()
    }

    /// Membership `w ∈ L(e)` on the memoized support DFA.
    ///
    /// # Errors
    ///
    /// Returns [`DecideError`] on subset-construction overflow.
    pub fn ka_accepts(&mut self, e: &Expr, word: &[Symbol]) -> Result<bool, DecideError> {
        self.sync_scratch_epoch();
        let mut alphabet: BTreeSet<Symbol> = e.atoms();
        alphabet.extend(word.iter().copied());
        let alphabet: Vec<Symbol> = alphabet.into_iter().collect();
        let dfa = self.support_dfa(e, &alphabet)?;
        Ok(dfa.accepts(word))
    }

    /// The persistent-keyed NKA verdict-cache entries, sorted by key —
    /// the exportable warm state (scratch-keyed entries name terms whose
    /// ids are reused across epochs and are never exported). Each entry
    /// is `(lhs, rhs, verdict)` with `lhs <= rhs` (the normalized pair).
    #[must_use]
    pub fn export_nka_verdicts(&self) -> Vec<(ExprId, ExprId, bool)> {
        export_verdicts(&self.nka_verdicts)
    }

    /// The persistent-keyed KA verdict-cache entries, sorted by key.
    #[must_use]
    pub fn export_ka_verdicts(&self) -> Vec<(ExprId, ExprId, bool)> {
        export_verdicts(&self.ka_verdicts)
    }

    /// Restores a snapshot-loaded NKA verdict, marked as restored so
    /// later hits on it count in [`Decider::snapshot_hits`]. Scratch
    /// keys are refused (the entry would dangle after the epoch
    /// advances).
    pub fn restore_nka_verdict(&mut self, e: &Expr, f: &Expr, verdict: bool) {
        let key = pair_key(e, f);
        if key.0.is_scratch() || key.1.is_scratch() {
            return;
        }
        self.nka_verdicts.insert(key, (verdict, true));
    }

    /// Restores a snapshot-loaded KA verdict; see
    /// [`Decider::restore_nka_verdict`].
    pub fn restore_ka_verdict(&mut self, e: &Expr, f: &Expr, verdict: bool) {
        let key = pair_key(e, f);
        if key.0.is_scratch() || key.1.is_scratch() {
            return;
        }
        self.ka_verdicts.insert(key, (verdict, true));
    }

    /// Verdict-cache hits whose entry was restored from a snapshot —
    /// the "snapshot hit" tier of the tiered lookup (every such hit is
    /// also an `answer_hit`).
    #[must_use]
    pub fn snapshot_hits(&self) -> u64 {
        self.snapshot_hits
    }

    /// The position automaton of `e`, memoized.
    fn compile(&mut self, e: &Expr) -> Result<Arc<Wfa<ExtNat>>, DecideError> {
        if let Some(hit) = self.exprs.get(&e.id()) {
            self.stats.compile_hits += 1;
            return Ok(Arc::clone(hit));
        }
        self.stats.compile_misses += 1;
        let compiled = Arc::new(position_automaton(e)?);
        if e.id().is_scratch() {
            self.scratch_log.record(ScratchKey::Expr(e.id()));
        }
        self.exprs.insert(e.id(), Arc::clone(&compiled));
        Ok(compiled)
    }

    /// The dense id of `alphabet` in this engine's alphabet table. The
    /// probe borrows the slice; only a first-seen alphabet is copied in.
    fn alphabet_id(&mut self, alphabet: &[Symbol]) -> AlphabetId {
        if let Some(&id) = self.alphabets.get(alphabet) {
            return id;
        }
        let id = AlphabetId::try_from(self.alphabets.len()).expect("alphabet table overflow");
        self.alphabets.insert(alphabet.into(), id);
        id
    }

    /// The determinized ∞-support of `e` over `alphabet`, memoized.
    fn infinity_dfa(&mut self, e: &Expr, alphabet: &[Symbol]) -> Result<Arc<Dfa>, DecideError> {
        let key = (e.id(), self.alphabet_id(alphabet));
        if let Some(hit) = self.infinity_dfas.get(&key) {
            self.stats.dfa_hits += 1;
            return Ok(Arc::clone(hit));
        }
        let compiled = self.compile(e)?;
        self.stats.dfa_misses += 1;
        let dfa = Arc::new(
            compiled
                .infinity_support()
                .determinize(alphabet, self.opts.max_dfa_states)?,
        );
        if key.0.is_scratch() {
            self.scratch_log.record(ScratchKey::InfinityDfa(key));
        }
        self.infinity_dfas.insert(key, Arc::clone(&dfa));
        Ok(dfa)
    }

    /// The determinized support of `e` over `alphabet`, memoized.
    fn support_dfa(&mut self, e: &Expr, alphabet: &[Symbol]) -> Result<Arc<Dfa>, DecideError> {
        let key = (e.id(), self.alphabet_id(alphabet));
        if let Some(hit) = self.support_dfas.get(&key) {
            self.stats.dfa_hits += 1;
            return Ok(Arc::clone(hit));
        }
        let compiled = self.compile(e)?;
        self.stats.dfa_misses += 1;
        let dfa = Arc::new(support_nfa(&compiled).determinize(alphabet, self.opts.max_dfa_states)?);
        if key.0.is_scratch() {
            self.scratch_log.record(ScratchKey::SupportDfa(key));
        }
        self.support_dfas.insert(key, Arc::clone(&dfa));
        Ok(dfa)
    }
}

/// The canonical (sorted) union of the two expressions' atom sets — the
/// only alphabet on which their series can differ.
fn shared_alphabet(e: &Expr, f: &Expr) -> Vec<Symbol> {
    let mut atoms = e.atoms();
    atoms.extend(f.atoms());
    atoms.into_iter().collect()
}

/// The persistent-keyed entries of a verdict cache, sorted for a
/// deterministic dump order.
fn export_verdicts(cache: &HashMap<(ExprId, ExprId), (bool, bool)>) -> Vec<(ExprId, ExprId, bool)> {
    let mut out: Vec<(ExprId, ExprId, bool)> = cache
        .iter()
        .filter(|((a, b), _)| !a.is_scratch() && !b.is_scratch())
        .map(|(&(a, b), &(verdict, _))| (a, b, verdict))
        .collect();
    out.sort_by_key(|&(a, b, _)| (a, b));
    out
}

/// Verdicts are symmetric; the cache key is the unordered pair of
/// interned ids, normalized by the total order on [`ExprId`] so one
/// allocation-free probe answers both orientations.
fn pair_key(e: &Expr, f: &Expr) -> (ExprId, ExprId) {
    let (a, b) = (e.id(), f.id());
    (a.min(b), a.max(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thompson::thompson;
    use crate::zeroness::Table;
    use nka_syntax::{random_expr, ExprGenConfig};
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn e(src: &str) -> Expr {
        src.parse().unwrap()
    }

    /// The cached ∞-support DFA of `x` (the engine decided a pair with it).
    fn cached_infinity_dfa(engine: &Decider, x: &Expr) -> Arc<Dfa> {
        let (_, dfa) = engine
            .infinity_dfas
            .iter()
            .find(|((id, _), _)| *id == x.id())
            .expect("a cached ∞-support DFA");
        Arc::clone(dfa)
    }

    #[test]
    fn pairs_with_an_infinite_weight_keep_the_restricted_path() {
        let mut engine = Decider::new();
        // Both ∞-supports are {a}. The finite parts differ on `a` alone,
        // inside the support, so only the restriction makes this hold.
        let (l, r) = (e("1* a + a + b"), e("1* a + b"));
        assert!(engine.decide(&l, &r).unwrap());
        assert!(!cached_infinity_dfa(&engine, &l).is_empty_language());
        let diff = thompson(&l)
            .eliminate_epsilon()
            .finite_part::<i128>()
            .difference(&thompson(&r).eliminate_epsilon().finite_part(), |w| -w);
        assert!(!is_zero_integer(&Table::of(&diff)));
        // Outside the support the restricted path still refutes.
        assert!(!engine.decide(&e("1* a + b"), &e("1* a + b b")).unwrap());
        // Unequal non-empty supports refute before any finite part.
        let (l, r) = (e("1* a"), e("1* a a"));
        assert!(!engine.decide(&l, &r).unwrap());
        assert!(!cached_infinity_dfa(&engine, &r).is_empty_language());
    }

    #[test]
    fn a_one_sided_pair_is_an_emptiness_test() {
        let mut engine = Decider::new();
        let (l, r) = (e("1* a"), e("a"));
        assert!(!engine.decide(&l, &r).unwrap());
        let (support, empty) = (
            cached_infinity_dfa(&engine, &l),
            cached_infinity_dfa(&engine, &r),
        );
        assert!(!support.is_empty_language());
        assert!(empty.is_empty_language());
        assert_eq!(empty.state_count(), 1);
        // Both sides went through a subset construction all the same.
        assert_eq!(engine.stats().dfa_misses, 2);
        // An ∞ weight off every accepting path adds no word to the
        // support: `1* 0` is the zero series, so this pair holds.
        let l = e("a + 1* 0");
        assert!(thompson(&l).eliminate_epsilon().has_infinite_weight());
        assert!(engine.decide(&l, &e("a")).unwrap());
        assert!(cached_infinity_dfa(&engine, &l).is_empty_language());
    }

    #[test]
    fn engine_agrees_with_one_shot_decision() {
        let mut engine = Decider::new();
        let cases = [
            ("(p q)* p", "p (q p)*", true),
            ("1 + p p*", "p*", true),
            ("p + p", "p", false),
            ("1* p", "1* q", false),
        ];
        for (l, r, expected) in cases {
            assert_eq!(engine.decide(&e(l), &e(r)).unwrap(), expected, "{l} = {r}");
        }
    }

    #[test]
    fn repeated_query_hits_the_verdict_cache() {
        let mut engine = Decider::new();
        let (l, r) = (e("(p + q)*"), e("(p* q)* p*"));
        assert!(engine.decide(&l, &r).unwrap());
        let misses_after_first = engine.stats().compile_misses;
        assert!(engine.decide(&l, &r).unwrap());
        let s = engine.stats();
        assert_eq!(s.answer_hits, 1);
        // The second query did not recompile anything.
        assert_eq!(s.compile_misses, misses_after_first);
        // Symmetric orientation is also a hit.
        assert!(engine.decide(&r, &l).unwrap());
        assert_eq!(engine.stats().answer_hits, 2);
    }

    #[test]
    fn shared_expressions_compile_once_across_queries() {
        let mut engine = Decider::new();
        let (x, y, z) = (e("(a b)*"), e("1 + a (b a)* b"), e("a*"));
        assert!(engine.decide(&x, &y).unwrap());
        assert!(!engine.decide(&x, &z).unwrap());
        let s = engine.stats();
        // Three distinct expressions over the same alphabet {a, b}: three
        // compilations, and the second query reuses x's automaton and DFA.
        assert_eq!(s.compile_misses, 3);
        assert!(s.compile_hits >= 1 || s.dfa_hits >= 1);
    }

    #[test]
    fn budget_exhaustion_is_an_error_not_a_panic() {
        // One DFA state can never fit the subset construction of a live
        // ∞-support automaton over a non-empty alphabet.
        let mut engine = Decider::with_budget(1);
        let err = engine.decide(&e("1* a"), &e("1* a a")).unwrap_err();
        assert!(err.to_string().contains("out of budget"), "{err}");
        // The engine stays usable, and a bigger budget succeeds.
        let mut engine = Decider::with_budget(100_000);
        assert!(!engine.decide(&e("1* a"), &e("1* a a")).unwrap());
    }

    #[test]
    fn restriction_product_over_budget_is_an_error_not_a_panic() {
        let (l, r) = (e("(a + b)* a a"), e("(a + b)* b a"));
        let alphabet = shared_alphabet(&l, &r);
        let dfa_states = |x: &Expr| {
            let wfa = thompson(x).eliminate_epsilon();
            let dfa = wfa.infinity_support().determinize(&alphabet, 100).unwrap();
            dfa.state_count()
        };
        let budget = dfa_states(&l).max(dfa_states(&r));
        // Both ∞-support DFAs fit the budget; the product does not.
        let err = Decider::with_budget(budget).decide(&l, &r).unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("restriction product exceeded {budget} states")),
            "{err}"
        );
        assert!(!Decider::new().decide(&l, &r).unwrap());
    }

    #[test]
    fn path_count_overflow_is_an_error_not_a_panic() {
        let doubled = vec!["(1 + 1)"; 64].join(" ");
        let err = Decider::new().decide(&e(&doubled), &e("1")).unwrap_err();
        assert!(err.to_string().contains("overflowed u64"), "{err}");
        let starred = format!("{} a*", vec!["(1 + 1)"; 70].join(" "));
        assert!(Decider::new().decide(&e(&starred), &e("a*")).is_err());
        assert!(Decider::new().ka_equiv(&e(&starred), &e("a*")).is_err());
    }

    #[test]
    fn zero_budget_errors_on_the_first_query_not_vacuously_succeeds() {
        // Regression: `with_budget(0)` used to admit the initial subset
        // for free, so trivial queries (empty alphabet, self-comparisons)
        // "succeeded" under a budget that can hold no state at all.
        // The star-free fast path is forced off so every pair actually
        // reaches the subset construction this test is about.
        let mut engine = Decider::with_options(DecideOptions {
            max_dfa_states: 0,
            starfree_max_words: 0,
        });
        for (l, r) in [("1", "1"), ("0", "0"), ("a", "a"), ("p q", "p q")] {
            let err = engine.decide(&e(l), &e(r)).unwrap_err();
            assert!(
                err.to_string().contains("out of budget"),
                "{l} = {r}: {err}"
            );
        }
        assert!(engine.ka_equiv(&e("a"), &e("a")).is_err());
        assert!(engine.ka_accepts(&e("a"), &[Symbol::intern("a")]).is_err());
    }

    #[test]
    fn starfree_queries_never_touch_the_dfa_budget() {
        // Star-free pairs are answered by the multiset tiers, which
        // build no automaton at all — so even a zero DFA-state budget
        // decides them exactly (the budget governs subset construction
        // only). KA queries on the same engine still hit the budget.
        let mut engine = Decider::with_budget(0);
        for (l, r, expected) in [
            ("1", "1", true),
            ("a", "a", true),
            ("p q", "p q", true),
            ("p + p", "p", false),
            ("a (b + c)", "a b + a c", true),
        ] {
            assert_eq!(engine.decide(&e(l), &e(r)).unwrap(), expected, "{l} = {r}");
        }
        let s = engine.stats();
        assert_eq!(s.dfa_misses, 0);
        assert_eq!(s.compile_misses, 0);
        assert_eq!(s.prefix_hits + s.starfree_hits, 5);
        assert!(engine.ka_equiv(&e("a"), &e("a")).is_err());
    }

    #[test]
    fn fast_path_tiers_and_counters() {
        let mut engine = Decider::new();
        // Tier 2: long equal spines cancel gate by gate…
        assert!(engine
            .decide(&e("a b c d e f"), &e("a b 1 c d e f"))
            .unwrap());
        // …and divergent atoms refute without evaluating the tail.
        assert!(!engine.decide(&e("a b c d e f"), &e("a b x d e f")).unwrap());
        let s = engine.stats();
        assert_eq!(s.prefix_hits, 2);
        assert_eq!(s.starfree_hits, 0);
        // Tier 1: compound divergence needs the multisets.
        assert!(engine.decide(&e("a (b + c)"), &e("a (c + b)")).unwrap());
        assert!(!engine.decide(&e("a (b + b)"), &e("a b")).unwrap());
        let s = engine.stats();
        assert_eq!(s.starfree_hits, 2);
        assert_eq!(s.fastpath_fallbacks, 0);
        // Starred queries bypass the tiers entirely.
        assert!(engine.decide(&e("(p q)* p"), &e("p (q p)*")).unwrap());
        let s = engine.stats();
        assert_eq!(s.prefix_hits + s.starfree_hits, 4);
        assert!(s.compile_misses >= 2);
        // Fast-path verdicts populate the same verdict cache.
        assert!(engine
            .decide(&e("a b 1 c d e f"), &e("a b c d e f"))
            .unwrap());
        assert_eq!(engine.stats().answer_hits, 1);
    }

    #[test]
    fn fast_path_budget_falls_back_to_generic_exactly() {
        // (a + b)^4 has 16 words; a 10-word cap forces the generic
        // pipeline, which must still answer — identically.
        let l = e("(a + b) (a + b) (a + b) (a + b)");
        let r = e("(b + a) (a + b) (a + b) (a + b)");
        let mut tiny = Decider::with_options(DecideOptions {
            starfree_max_words: 10,
            ..DecideOptions::default()
        });
        assert!(tiny.decide(&l, &r).unwrap());
        let s = tiny.stats();
        assert_eq!(s.fastpath_fallbacks, 1);
        assert_eq!(s.starfree_hits, 0);
        assert!(s.compile_misses >= 2, "generic path must have run");
        let mut roomy = Decider::new();
        assert!(roomy.decide(&l, &r).unwrap());
        assert_eq!(roomy.stats().starfree_hits, 1);
    }

    #[test]
    fn fast_path_agrees_with_generic_on_starfree_family() {
        // Differential pinning at the engine level: every star-free
        // pair must get byte-identical verdicts from the tiers and the
        // automaton pipeline.
        let exprs = [
            "0",
            "1",
            "a",
            "b",
            "a b",
            "b a",
            "a + b",
            "b + a",
            "a + a",
            "1 + a",
            "a (b + c)",
            "a b + a c",
            "(a + b) c",
            "a c + b c",
            "(a + 1) (b + 1)",
            "a b + a + b + 1",
            "(a + a) b",
            "a b + a b",
            "0 a",
            "a 0 + 0",
        ];
        let mut fast = Decider::new();
        let mut generic = Decider::with_options(DecideOptions {
            starfree_max_words: 0,
            ..DecideOptions::default()
        });
        for l in &exprs {
            for r in &exprs {
                assert_eq!(
                    fast.decide(&e(l), &e(r)).unwrap(),
                    generic.decide(&e(l), &e(r)).unwrap(),
                    "fast path diverged from generic on {l} = {r}"
                );
            }
        }
        // The forced-off engine never took a tier.
        let s = generic.stats();
        assert_eq!(s.prefix_hits + s.starfree_hits + s.fastpath_fallbacks, 0);
        // The default engine answered every fresh pair in-tier.
        let s = fast.stats();
        assert_eq!(s.compile_misses, 0);
        assert_eq!(
            s.prefix_hits + s.starfree_hits + s.answer_hits,
            s.nka_queries
        );
    }

    #[test]
    fn a_starfree_decide_on_scratch_terms_logs_only_its_verdict() {
        let mut engine = Decider::new();
        let _scope = nka_syntax::ScratchScope::enter();
        let l = e("msA").mul(&e("msB")).mul(&e("msA + msB"));
        let r = e("msA").mul(&e("msB")).mul(&e("msB + msA"));
        assert!(l.id().is_scratch() && r.id().is_scratch());
        assert!(engine.decide(&l, &r).unwrap());
        assert_eq!(engine.stats().starfree_hits, 1);
        // Tier 1's memo died with the query: no subterm was logged.
        assert_eq!(
            engine.scratch_log.keys(),
            [ScratchKey::NkaVerdict(pair_key(&l, &r))]
        );
    }

    #[test]
    fn stats_deltas_between_snapshots() {
        let mut engine = Decider::new();
        let before = engine.stats();
        assert!(engine.decide(&e("(p q)* p"), &e("p (q p)*")).unwrap());
        let mid = engine.stats();
        let first = mid.delta_since(&before);
        assert_eq!(first.nka_queries, 1);
        assert_eq!(first.compile_misses, 2);
        assert_eq!(first.answer_hits, 0);
        assert!(engine.decide(&e("(p q)* p"), &e("p (q p)*")).unwrap());
        let second = engine.stats().delta_since(&mid);
        assert_eq!(second.nka_queries, 1);
        assert_eq!(second.answer_hits, 1);
        assert_eq!(second.compile_misses, 0);
        // Swapped snapshots saturate instead of underflowing.
        assert_eq!(before.delta_since(&mid).nka_queries, 0);
    }

    #[test]
    fn decide_all_preserves_input_order_and_survives_overflow() {
        let mut engine = Decider::with_budget(64);
        let pairs = vec![
            (e("p"), e("p")),
            (e("p + p"), e("p")),
            (e("(p q)* p"), e("p (q p)*")),
        ];
        let verdicts = engine.decide_all(&pairs);
        assert_eq!(verdicts.len(), 3);
        assert_eq!(verdicts[0].as_ref().unwrap(), &true);
        assert_eq!(verdicts[1].as_ref().unwrap(), &false);
        assert_eq!(verdicts[2].as_ref().unwrap(), &true);
    }

    #[test]
    fn decide_all_batch_shares_the_expression_cache() {
        let mut engine = Decider::new();
        let x = e("(a + b)*");
        let pairs: Vec<(Expr, Expr)> = ["(a* b)* a*", "a* (b a*)*", "a* b*"]
            .iter()
            .map(|r| (x, e(r)))
            .collect();
        let verdicts = engine.decide_all(&pairs);
        assert_eq!(
            verdicts.into_iter().map(Result::unwrap).collect::<Vec<_>>(),
            vec![true, true, false]
        );
        // x compiled once, reused twice.
        assert_eq!(engine.stats().compile_misses, 4);
        assert!(engine.stats().compile_hits >= 2 || engine.stats().dfa_hits >= 2);
    }

    #[test]
    fn ka_and_nka_caches_are_independent() {
        let mut engine = Decider::new();
        let (l, r) = (e("p + p"), e("p"));
        assert!(engine.ka_equiv(&l, &r).unwrap());
        assert!(!engine.decide(&l, &r).unwrap());
        // Same pair again, both sides cached.
        assert!(engine.ka_equiv(&l, &r).unwrap());
        assert!(!engine.decide(&l, &r).unwrap());
        assert_eq!(engine.stats().answer_hits, 2);
    }

    #[test]
    fn scratch_keyed_entries_are_evicted_on_epoch_advance() {
        let mut engine = Decider::new();
        let (l, r) = (e("epochA"), e("epochB"));
        assert!(!engine.decide(&l, &r).unwrap());
        {
            let _scope = nka_syntax::ScratchScope::enter();
            let scratch = l.star().mul(&r.star()).star();
            assert!(scratch.id().is_scratch());
            // Caches a compiled automaton, DFA, and verdict under a
            // scratch id.
            assert!(engine.decide(&scratch, &scratch).unwrap());
            assert_eq!(engine.scratch_purges(), 0);
        }
        // The scope retired; the next entry point must purge the
        // scratch-keyed entries (their id may name a different term
        // now) while the persistent verdict stays a cache hit.
        let hits_before = engine.stats().answer_hits;
        assert!(!engine.decide(&l, &r).unwrap());
        assert_eq!(engine.stats().answer_hits, hits_before + 1);
        assert_eq!(engine.scratch_purges(), 1);
        // A second retirement with no scratch-keyed entries left is a
        // no-op, not another scan.
        {
            let _scope = nka_syntax::ScratchScope::enter();
            let _ = l.star().star().star();
        }
        assert!(!engine.decide(&l, &r).unwrap());
        assert_eq!(engine.scratch_purges(), 1);
    }

    /// Every entry of the five caches whose key involves a scratch id.
    fn scratch_keyed_entries(engine: &Decider) -> HashSet<ScratchKey> {
        let pair = |&(a, b): &(ExprId, ExprId)| a.is_scratch() || b.is_scratch();
        let dfa = |&(id, _): &(ExprId, AlphabetId)| id.is_scratch();
        let exprs = engine.exprs.keys().filter(|id| id.is_scratch());
        exprs
            .map(|&id| ScratchKey::Expr(id))
            .chain(
                engine
                    .infinity_dfas
                    .keys()
                    .filter(|k| dfa(k))
                    .map(|&k| ScratchKey::InfinityDfa(k)),
            )
            .chain(
                engine
                    .support_dfas
                    .keys()
                    .filter(|k| dfa(k))
                    .map(|&k| ScratchKey::SupportDfa(k)),
            )
            .chain(
                engine
                    .nka_verdicts
                    .keys()
                    .filter(|k| pair(k))
                    .map(|&k| ScratchKey::NkaVerdict(k)),
            )
            .chain(
                engine
                    .ka_verdicts
                    .keys()
                    .filter(|k| pair(k))
                    .map(|&k| ScratchKey::KaVerdict(k)),
            )
            .collect()
    }

    /// The sizes of the five caches.
    fn cache_sizes(engine: &Decider) -> [usize; 5] {
        [
            engine.exprs.len(),
            engine.infinity_dfas.len(),
            engine.support_dfas.len(),
            engine.nka_verdicts.len(),
            engine.ka_verdicts.len(),
        ]
    }

    #[test]
    fn the_scratch_log_names_exactly_the_scratch_keyed_entries() {
        let (l, r) = (e("logA"), e("logB"));
        // A scope retiring on another test's thread advances the epoch
        // and purges mid-workload; rerun until a workload runs whole.
        let mut engine = Decider::new();
        let mut persistent_sizes = [0; 5];
        for _ in 0..100 {
            engine = Decider::new();
            // Persistent entries in every cache, restored verdicts too.
            assert!(!engine.decide(&l.star(), &r.star()).unwrap());
            assert!(engine
                .decide(&l.mul(&r), &l.mul(&r).add(&Expr::zero()))
                .unwrap());
            assert!(!engine.ka_equiv(&l.star(), &r.star()).unwrap());
            assert!(engine
                .ka_accepts(&l.star(), &[Symbol::intern("logA")])
                .unwrap());
            for i in 0..50 {
                let atom = e(&format!("logRestored{i}"));
                engine.restore_nka_verdict(&atom, &l, false);
            }
            persistent_sizes = cache_sizes(&engine);
            assert!(
                persistent_sizes.iter().all(|&n| n > 0),
                "{persistent_sizes:?}"
            );
            let _scope = nka_syntax::ScratchScope::enter();
            let (gl, gr) = (l.star().mul(&r.star()).star(), l.add(&r).star());
            let sum = l.add(&r);
            let (sl, sr) = (
                sum.mul(&sum),
                l.mul(&l).add(&l.mul(&r)).add(&r.mul(&l)).add(&r.mul(&r)),
            );
            assert!(gl.id().is_scratch() && sum.id().is_scratch());
            // Generic and star-free decides, a KA query and a membership
            // test, mixed with persistent repeats.
            assert!(!engine.decide(&gl, &gr).unwrap());
            assert!(engine.decide(&sl, &sr).unwrap());
            assert!(!engine.decide(&l.star(), &r.star()).unwrap());
            assert!(engine.ka_equiv(&gl, &gr).unwrap());
            assert!(engine
                .ka_accepts(&sum.star(), &[Symbol::intern("logB")])
                .unwrap());
            assert!(!engine.ka_equiv(&l.star(), &r.star()).unwrap());
            if engine.scratch_purges() == 0 {
                break;
            }
        }
        assert_eq!(engine.scratch_purges(), 0, "no workload ran whole");
        let logged: HashSet<ScratchKey> = engine.scratch_log.keys().iter().copied().collect();
        assert_eq!(
            logged.len(),
            engine.scratch_log.keys().len(),
            "no key logged twice"
        );
        assert_eq!(logged, scratch_keyed_entries(&engine));
        let kinds: HashSet<_> = logged.iter().map(std::mem::discriminant).collect();
        assert_eq!(
            kinds.len(),
            5,
            "every cache holds a scratch key: {logged:?}"
        );
        // The scope retired: one advance evicts every logged entry and
        // keeps every persistent one, with a single purge counted.
        let hits = engine.stats().answer_hits;
        assert!(!engine.decide(&l.star(), &r.star()).unwrap());
        assert_eq!(engine.stats().answer_hits, hits + 1);
        assert_eq!(engine.scratch_purges(), 1);
        assert!(engine.scratch_log.is_empty());
        assert!(scratch_keyed_entries(&engine).is_empty());
        assert_eq!(cache_sizes(&engine), persistent_sizes);
        // The restored verdicts survived the purge with their mark.
        let snapshot_hits = engine.snapshot_hits();
        assert!(!engine.decide(&e("logRestored7"), &l).unwrap());
        assert_eq!(engine.snapshot_hits(), snapshot_hits + 1);
    }

    #[test]
    fn exports_skip_scratch_keys_and_restores_count_snapshot_hits() {
        let mut engine = Decider::new();
        let (l, r) = (e("(p q)* p"), e("p (q p)*"));
        assert!(engine.decide(&l, &r).unwrap());
        {
            // Scratch-decided verdicts must not leak into the export:
            // their ids are reused once the scope retires.
            let _scope = nka_syntax::ScratchScope::enter();
            let s = l.star().mul(&r.star());
            assert!(s.id().is_scratch());
            assert!(engine.decide(&s, &s).unwrap());
        }
        let exported = engine.export_nka_verdicts();
        assert_eq!(exported.len(), 1);
        // Replaying the export into a fresh engine answers from the
        // restored tier: an answer hit that is also a snapshot hit,
        // with nothing recompiled.
        let mut fresh = Decider::new();
        for (a, b, v) in &exported {
            let (a, b) = (Expr::from_id(*a).unwrap(), Expr::from_id(*b).unwrap());
            fresh.restore_nka_verdict(&a, &b, *v);
        }
        assert!(fresh.decide(&l, &r).unwrap());
        assert_eq!(fresh.snapshot_hits(), 1);
        assert_eq!(fresh.stats().answer_hits, 1);
        assert_eq!(fresh.stats().compile_misses, 0);
        // Restoring a scratch key is refused outright.
        {
            let _scope = nka_syntax::ScratchScope::enter();
            let s = l.star().star();
            fresh.restore_nka_verdict(&s, &s, true);
            fresh.restore_ka_verdict(&s, &s, true);
        }
        assert_eq!(fresh.export_nka_verdicts().len(), 1);
        assert_eq!(fresh.export_ka_verdicts().len(), 0);
    }

    #[test]
    fn recycle_keeps_restored_verdicts_and_counters() {
        let mut engine = Decider::new();
        let (l, r) = (e("(p q)* p"), e("p (q p)*"));
        let (rl, rr) = (e("recycleL"), e("recycleR"));
        engine.restore_nka_verdict(&rl, &rr, false);
        engine.restore_ka_verdict(&rl, &rr, false);
        assert!(engine.decide(&l, &r).unwrap());
        assert!(engine.ka_equiv(&l, &r).unwrap());
        assert!(!engine.decide(&rl, &rr).unwrap());
        let before = engine.stats();
        engine.recycle();
        assert_eq!(cache_sizes(&engine), [0, 0, 0, 1, 1]);
        assert!(engine.alphabets.is_empty() && engine.scratch_log.is_empty());
        assert_eq!(engine.stats(), before);
        // Restored verdicts still hit, as snapshot hits; decided ones
        // are recomputed.
        assert!(!engine.decide(&rl, &rr).unwrap());
        assert!(!engine.ka_equiv(&rl, &rr).unwrap());
        assert_eq!(engine.snapshot_hits(), 3);
        assert!(engine.decide(&l, &r).unwrap());
        let after = engine.stats().delta_since(&before);
        assert_eq!((after.nka_queries, after.ka_queries), (2, 1));
        assert_eq!(after.answer_hits, 2);
        assert_eq!(after.compile_misses, 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On random pairs with no `∞` weight, the restriction to the
        /// one-state empty ∞-support DFA, the whole difference automaton
        /// and a product with a many-state DFA that accepts every word
        /// give the same verdict. Half of the shapes are equal pairs.
        #[test]
        fn empty_support_product_agrees_with_a_product_over_every_word(seed in any::<u64>(), shape in 0u8..4) {
            let alphabet = vec![Symbol::intern("a"), Symbol::intern("b")];
            let config = ExprGenConfig::new(alphabet.clone())
                .with_target_size(7)
                .with_constant_weight(0);
            let mut seed = seed;
            let finite = |x: &Expr| !thompson(x).eliminate_epsilon().has_infinite_weight();
            let (l, r) = loop {
                let (x, y) = (random_expr(&config, &mut seed), random_expr(&config, &mut seed));
                let (l, r): (Expr, Expr) = match shape {
                    0 | 1 => (x, y),
                    2 => (x.add(&y), y.add(&x)),
                    _ => (x.mul(&y.star()), x.mul(&e("1").add(&y.star().mul(&y)))),
                };
                if finite(&l) && finite(&r) {
                    break (l, r);
                }
            };
            let (wl, wr) = (thompson(&l).eliminate_epsilon(), thompson(&r).eliminate_epsilon());
            let diff = wl.finite_part::<i128>().difference(&wr.finite_part(), |w| -w);
            let support = wl.infinity_support().determinize(&alphabet, 10).unwrap();
            prop_assert!(support.is_empty_language());
            prop_assert_eq!(support.state_count(), 1);
            let product = restrict_within(&diff, None, |w| *w, &support, |s| !support.is_accepting(s), usize::MAX).unwrap();
            prop_assert!(product.states() <= diff.state_count());
            let verdict = is_zero_integer(&product);
            prop_assert_eq!(is_zero_integer(&Table::of(&diff)), verdict, "{} vs {}", l, r);
            let every_word = support_nfa(&wl).determinize(&alphabet, 10_000).unwrap();
            let wide = restrict_within(&diff, None, |w| *w, &every_word, |_| true, usize::MAX).unwrap();
            prop_assert_eq!(is_zero_integer(&wide), verdict, "{} vs {}", l, r);
            let mut engine = Decider::with_options(DecideOptions {
                starfree_max_words: 0,
                ..DecideOptions::default()
            });
            prop_assert_eq!(engine.decide(&l, &r).unwrap(), verdict, "{} vs {}", l, r);
            if shape >= 2 {
                prop_assert!(verdict, "{} vs {}", l, r);
            }
        }
    }

    #[test]
    fn ka_accepts_uses_the_memoized_support() {
        let mut engine = Decider::new();
        let a = Symbol::intern("a");
        let b = Symbol::intern("b");
        assert!(engine.ka_accepts(&e("a b*"), &[a, b, b]).unwrap());
        assert!(!engine.ka_accepts(&e("a b*"), &[b]).unwrap());
    }
}
