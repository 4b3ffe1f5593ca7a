//! Hash-consed NKA expressions with an epoch/scope arena lifecycle.
//!
//! Every distinct expression structure is interned exactly once; an
//! [`Expr`] is a 4-byte `Copy` handle (an [`ExprId`]), so `Eq`, `Hash`,
//! and `clone` are all O(1) and two expressions are structurally equal
//! *iff* their handles are equal. Since Arena lifecycle v1 the arena has
//! **two regions**:
//!
//! * the **persistent region** — process-global, lock-striped,
//!   append-only. Nodes live in atomically published pages, so resolving
//!   a persistent handle ([`Expr::node`]) takes no lock. Persistent ids
//!   are stable for the life of the process and may cross threads
//!   freely; everything interned outside a scratch scope lands here.
//! * the **scratch region** — thread-local and *reclaimable*. While a
//!   [`ScratchScope`] is open on a thread, newly seen structures intern
//!   into the scratch region instead of the global arena; when the scope
//!   is retired (dropped), their storage is truncated and reused by the
//!   next scope. This is what keeps a long-lived server's arena bounded
//!   by its *persistent* working set rather than by every transient term
//!   an auto-prover search ever materialized (see the soak test
//!   `tests/arena_soak.rs`).
//!
//! The lifecycle contract: a scratch handle is valid only on its owning
//! thread and only until its scope is retired. Anything that must
//! outlive the scope — a found proof, a result term — is rebuilt into
//! the persistent region with [`promote`] (or
//! [`ScratchScope::promote`]) before retirement. Resolving a retired
//! scratch id panics if the slot is gone, or silently aliases a later
//! scope's term if the slot was reused — a logic error the scope API is
//! designed to make hard to write. Downstream caches keyed on [`ExprId`]
//! (the `Decider` engine, session memos) observe [`scratch_epoch`] and
//! evict scratch-keyed entries when it advances, so retirement never
//! leaves dangling keys behind.
//!
//! Memory observability: [`interned_expr_count`] (persistent nodes),
//! [`scratch_live_nodes`], [`arena_resident_nodes`] (their sum), and
//! [`scratch_retired_total`] — surfaced through `Session::memory_stats`
//! and `nka --stats`.

use crate::Symbol;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::convert::Infallible;
use std::fmt;
use std::hash::{BuildHasher, Hash, RandomState};
use std::marker::PhantomData;
use std::ops::{Add, Mul};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The node of an [`Expr`] (Definition 2.2).
///
/// Children are themselves interned handles (ids), so a node is a few
/// machine words, `Copy`, and node equality/hashing is O(1) — the
/// property the hash-consing arena relies on to deduplicate bottom-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExprNode {
    /// The additive unit `0` (encodes `abort`).
    Zero,
    /// The multiplicative unit `1` (encodes `skip`).
    One,
    /// An atomic symbol `a ∈ Σ`.
    Atom(Symbol),
    /// A sum `e₁ + e₂`.
    Add(Expr, Expr),
    /// A product `e₁ · e₂` (sequential composition).
    Mul(Expr, Expr),
    /// Kleene star `e*`.
    Star(Expr),
}

/// An [`ExprNode`] with each child replaced by its value — what
/// [`Expr::fold`] hands its callback.
#[derive(Debug)]
pub enum Folded<'a, T> {
    Zero,
    One,
    Atom(Symbol),
    Add(&'a T, &'a T),
    Mul(&'a T, &'a T),
    Star(&'a T),
}

/// The dense identity of an interned expression — the canonical name of
/// one element of `ExpΣ` (Definition 2.2 of the paper:
/// `e ::= 0 | 1 | a | e₁ + e₂ | e₁ · e₂ | e₁*`).
///
/// Because the arena deduplicates structurally (hash-consing), two
/// expressions denote the same id exactly when they are α-identical
/// terms of `ExpΣ`; the id is therefore a sound *and complete* key for
/// syntactic equality, and downstream caches (the `Decider` engine's
/// automaton, DFA, and verdict maps) key on it instead of on whole
/// trees. Note the identification is *syntactic* — NKA-provable
/// equality (`⊢NKA e = f`) is still the decision procedure's job.
///
/// Ids are `Copy`, 4 bytes, and totally ordered (arbitrarily but
/// consistently within a process), which makes normalized symmetric
/// cache keys like `(min(id₁, id₂), max(id₁, id₂))` trivial.
///
/// Since Arena lifecycle v1 the top bit distinguishes the two arena
/// regions: a **persistent** id (bit 31 clear) is stable for the life
/// of the process; a **scratch** id (bit 31 set, see
/// [`ExprId::is_scratch`]) belongs to the thread-local scratch region of
/// the [`ScratchScope`] that interned it and is reclaimed when that
/// scope is retired. Caches that key on ids must treat the two classes
/// differently: persistent keys are forever, scratch keys must be
/// evicted when [`scratch_epoch`] advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

impl ExprId {
    /// The raw arena index. Stable for the life of the process for
    /// persistent ids; valid only while the owning scope lives for
    /// scratch ids.
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }

    /// Whether this id names a node in a thread-local scratch region
    /// (reclaimed on [`ScratchScope`] retirement) rather than the
    /// persistent arena.
    #[must_use]
    pub fn is_scratch(self) -> bool {
        self.0 & SCRATCH_BIT != 0
    }
}

/// An NKA expression over the global alphabet — an element of `ExpΣ`
/// (Definition 2.2 of the paper).
///
/// An `Expr` is a *hash-consed handle*: the expression structure lives
/// in an interning arena and the handle is `Copy` (a 4-byte
/// [`ExprId`]). Consequences:
///
/// * `==`, `Hash`, and `clone`/copy are **O(1)** — equality is id
///   equality, which coincides with structural (α-)identity of the term
///   by the hash-consing invariant;
/// * shared subterms are stored once, so the paper's large derivations
///   (Appendix C.7) stay compact in memory;
/// * `Expr: Send + Sync` — *persistent* expressions flow freely across
///   threads. Scratch expressions (built inside a [`ScratchScope`]) are
///   resolvable only on their owning thread and only until the scope is
///   retired; [`promote`] rebuilds them persistently.
///
/// Equality is structural, *not* NKA-provable equality — use the
/// decision procedure in `nka-core` for the latter.
///
/// # Examples
///
/// ```
/// use nka_syntax::Expr;
/// let p = Expr::atom_str("p");
/// let q = Expr::atom_str("q");
/// // (p + q)* built with operator sugar:
/// let e = (&p + &q).star();
/// assert_eq!(e.to_string(), "(p + q)*");
/// assert_eq!(e, "(p+q)*".parse()?);
/// // Hash-consing: rebuilding the same structure yields the same handle.
/// assert_eq!(e.id(), p.add(&q).star().id());
/// # Ok::<(), nka_syntax::ParseExprError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Expr {
    id: ExprId,
}

/// Number of lock stripes in the persistent arena. Interning hashes the
/// node to pick a stripe, so concurrent builders (e.g. the parallel
/// batch workers) contend only 1/16th of the time.
const SHARD_BITS: u32 = 4;
const SHARDS: usize = 1 << SHARD_BITS;
/// Bit 31 of an [`ExprId`] marks the thread-local scratch region;
/// persistent ids use bits 0..31 (`local_index << SHARD_BITS | shard`).
const SCRATCH_BIT: u32 = 1 << 31;
/// Per-stripe capacity of the persistent region.
const MAX_PER_SHARD: usize = 1 << (31 - SHARD_BITS);
/// Capacity of a thread's scratch region.
const MAX_SCRATCH: usize = (SCRATCH_BIT - 1) as usize;

/// Persistent nodes live in append-only pages of doubling size
/// (`FIRST_PAGE`, `FIRST_PAGE`·2, `FIRST_PAGE`·4, …) so a fixed, small
/// page table covers the whole id space and a published page never
/// moves — that is what makes [`Expr::node`] lock-free for persistent
/// handles.
const FIRST_PAGE_BITS: u32 = 9;
const FIRST_PAGE: u32 = 1 << FIRST_PAGE_BITS;
/// Pages 0..24 of doubling size cover well past `MAX_PER_SHARD`.
const MAX_PAGES: usize = 24;

/// Maps a shard-local index to its (page, offset) coordinates.
fn page_of(local: u32) -> (usize, usize) {
    let m = local + FIRST_PAGE;
    let page = m.ilog2() - FIRST_PAGE_BITS;
    let start = (1u32 << (FIRST_PAGE_BITS + page)) - FIRST_PAGE;
    (page as usize, (local - start) as usize)
}

fn page_capacity(page: usize) -> usize {
    1usize << (FIRST_PAGE_BITS as usize + page)
}

/// The write-side state of one stripe: the dedup map. `ids.len()` is
/// also the next free local index, since every insert goes through it.
struct ShardMap {
    ids: HashMap<ExprNode, u32>,
}

/// The read-side state of one stripe: atomically published node pages.
/// Writers (holding the stripe mutex) fill slots exactly once; readers
/// resolve ids with two acquire loads and no lock.
struct ShardStore {
    pages: [OnceLock<Box<[OnceLock<ExprNode>]>>; MAX_PAGES],
}

struct ExprPool {
    /// One fixed hasher instance so shard choice is a pure function of
    /// the node for the life of the process.
    hasher: RandomState,
    maps: [Mutex<ShardMap>; SHARDS],
    stores: [ShardStore; SHARDS],
}

fn pool() -> &'static ExprPool {
    static POOL: OnceLock<ExprPool> = OnceLock::new();
    POOL.get_or_init(|| ExprPool {
        hasher: RandomState::new(),
        maps: std::array::from_fn(|_| {
            Mutex::new(ShardMap {
                ids: HashMap::new(),
            })
        }),
        stores: std::array::from_fn(|_| ShardStore {
            pages: [const { OnceLock::new() }; MAX_PAGES],
        }),
    })
}

fn shard_of(pool: &ExprPool, node: &ExprNode) -> usize {
    (pool.hasher.hash_one(node) as usize) & (SHARDS - 1)
}

/// The thread-local scratch region: a truncatable arena for the terms a
/// [`ScratchScope`] interns. `nodes` is append-only while scopes are
/// open and truncated to the scope watermark on retirement, so slot
/// storage (and the dedup map) are *reused* across scopes — the
/// reclamation the append-only persistent region cannot offer.
struct ScratchRegion {
    nodes: Vec<ExprNode>,
    ids: HashMap<ExprNode, u32>,
}

/// Slots in the per-thread persistent-hit cache (power of two). The
/// warm working set this exists for (rebuilding already-interned terms,
/// e.g. the paper's Fig. 2 programs) is tens of nodes, so a small
/// direct-mapped table has essentially no conflict misses there while
/// costing ~10 KiB per interning thread.
const INTERN_CACHE_SLOTS: usize = 512;

/// One slot of the persistent-hit cache: a node plus the raw id
/// `intern_global` answered for it.
type PersistentHitSlot = Cell<Option<(ExprNode, u32)>>;

/// The per-thread scratch state. The live-scope count sits in a [`Cell`]
/// *outside* the region's [`RefCell`] so the overwhelmingly common
/// no-scope intern — every build outside a [`ScratchScope`] — costs one
/// plain load before heading straight to the persistent arena, instead
/// of a `borrow_mut`/drop round-trip on the `RefCell` (the
/// `intern/fig2_warm` cold-probe regression).
struct ScratchTls {
    /// Number of live scopes on this thread.
    depth: Cell<u32>,
    region: RefCell<ScratchRegion>,
    /// Direct-mapped memo of recent **persistent** intern results,
    /// probed before the lock-striped global pool when no scope is
    /// open. Soundness: hash-consing makes `node → id` a pure function
    /// and persistent ids are stable for the life of the process, so a
    /// cached pair can never go stale — a conflict eviction only costs
    /// a fall-through to [`intern_global`]. This is what makes the warm
    /// re-intern path lock-free: one cheap mix plus an array compare
    /// instead of two SipHash passes and a stripe mutex.
    persistent_hits: Box<[PersistentHitSlot]>,
}

thread_local! {
    static SCRATCH: ScratchTls = ScratchTls {
        depth: Cell::new(0),
        region: RefCell::new(ScratchRegion {
            nodes: Vec::new(),
            ids: HashMap::new(),
        }),
        persistent_hits: (0..INTERN_CACHE_SLOTS).map(|_| Cell::new(None)).collect(),
    };
}

/// Slot choice for the thread-local persistent-hit cache. Deliberately
/// *not* the dedup map's `RandomState`: a collision here only demotes a
/// probe to the global pool, so two multiply–xor rounds over the node's
/// raw words beat a full SipHash pass on the warm path.
fn persistent_hit_slot(node: &ExprNode) -> usize {
    let (tag, a, b) = match *node {
        ExprNode::Zero => (0u32, 0, 0),
        ExprNode::One => (1, 0, 0),
        ExprNode::Atom(s) => (2, s.id(), 0),
        ExprNode::Add(l, r) => (3, l.id.0, r.id.0),
        ExprNode::Mul(l, r) => (4, l.id.0, r.id.0),
        ExprNode::Star(e) => (5, e.id.0, 0),
    };
    let mut h = tag.wrapping_mul(0x9E37_79B9);
    h = (h ^ a).wrapping_mul(0x85EB_CA6B);
    h = (h ^ b.rotate_left(16)).wrapping_mul(0xC2B2_AE35);
    h ^= h >> 16;
    (h as usize) & (INTERN_CACHE_SLOTS - 1)
}

/// Scratch nodes currently live across all threads.
static SCRATCH_LIVE: AtomicUsize = AtomicUsize::new(0);
/// Scratch nodes retired (reclaimed) since process start.
static SCRATCH_RETIRED: AtomicU64 = AtomicU64::new(0);
/// Scopes retired since process start; doubles as the cache-invalidation
/// epoch for scratch-keyed downstream caches.
static SCRATCH_EPOCH: AtomicU64 = AtomicU64::new(0);

/// Whether `node` directly references a scratch subterm. Persistent
/// nodes must never do so — a persistent id outlives every scope, so a
/// scratch child would dangle.
fn has_scratch_child(node: &ExprNode) -> bool {
    match node {
        ExprNode::Zero | ExprNode::One | ExprNode::Atom(_) => false,
        ExprNode::Add(l, r) | ExprNode::Mul(l, r) => l.id.is_scratch() || r.id.is_scratch(),
        ExprNode::Star(e) => e.id.is_scratch(),
    }
}

/// Interns `node` into the **persistent** region, bypassing any open
/// scratch scope.
///
/// # Panics
///
/// Panics if `node` references scratch subterms (promote them first), if
/// a stripe exceeds its capacity, or if a stripe mutex was poisoned by a
/// panic on another thread.
fn intern_global(node: ExprNode) -> Expr {
    assert!(
        !has_scratch_child(&node),
        "a persistent expression cannot reference scratch subterms; \
         promote them with nka_syntax::promote before the scope retires"
    );
    let pool = pool();
    let shard_idx = shard_of(pool, &node);
    let mut map = pool.maps[shard_idx]
        .lock()
        .expect("expression interner poisoned");
    if let Some(&local) = map.ids.get(&node) {
        return Expr {
            id: ExprId((local << SHARD_BITS) | shard_idx as u32),
        };
    }
    let local = map.ids.len();
    assert!(local < MAX_PER_SHARD, "expression arena overflow");
    let local = local as u32;
    let (page, offset) = page_of(local);
    let slots = pool.stores[shard_idx].pages[page].get_or_init(|| {
        (0..page_capacity(page))
            .map(|_| OnceLock::new())
            .collect::<Vec<_>>()
            .into_boxed_slice()
    });
    slots[offset]
        .set(node)
        .expect("fresh persistent arena slot written twice");
    map.ids.insert(node, local);
    Expr {
        id: ExprId((local << SHARD_BITS) | shard_idx as u32),
    }
}

/// Read-only probe of the persistent region.
fn global_probe(node: &ExprNode) -> Option<Expr> {
    let pool = pool();
    let shard_idx = shard_of(pool, node);
    let map = pool.maps[shard_idx]
        .lock()
        .expect("expression interner poisoned");
    map.ids.get(node).map(|&local| Expr {
        id: ExprId((local << SHARD_BITS) | shard_idx as u32),
    })
}

/// Resolves a persistent id to its node: two acquire loads, no lock.
fn global_node(raw: u32) -> ExprNode {
    let shard_idx = (raw as usize) & (SHARDS - 1);
    let (page, offset) = page_of(raw >> SHARD_BITS);
    *pool().stores[shard_idx].pages[page]
        .get()
        .and_then(|slots| slots[offset].get())
        .expect("persistent ExprId does not resolve (forged id?)")
}

/// Interns `node`, returning its unique handle.
///
/// Resolution order: with no [`ScratchScope`] open on this thread, the
/// thread's persistent-hit cache is probed first (lock-free; sound
/// because persistent ids never move or retire), then the persistent
/// arena — no scratch borrow at all. Under an open scope: the thread's
/// scratch region first (so a term first seen as scratch keeps one
/// identity for the scope's life), then the persistent region; a miss
/// interns into the scratch region.
fn intern(node: ExprNode) -> Expr {
    SCRATCH.with(|tls| {
        if tls.depth.get() == 0 {
            let slot = &tls.persistent_hits[persistent_hit_slot(&node)];
            if let Some((cached, raw)) = slot.get() {
                if cached == node {
                    return Expr { id: ExprId(raw) };
                }
            }
            let e = intern_global(node);
            slot.set(Some((node, e.id.0)));
            return e;
        }
        let mut region = tls.region.borrow_mut();
        if let Some(&idx) = region.ids.get(&node) {
            return Expr {
                id: ExprId(SCRATCH_BIT | idx),
            };
        }
        if let Some(hit) = global_probe(&node) {
            return hit;
        }
        let idx = region.nodes.len();
        assert!(idx < MAX_SCRATCH, "scratch arena overflow");
        region.nodes.push(node);
        region.ids.insert(node, idx as u32);
        SCRATCH_LIVE.fetch_add(1, Ordering::Relaxed);
        Expr {
            id: ExprId(SCRATCH_BIT | idx as u32),
        }
    })
}

/// A RAII scratch scope: while alive, newly seen structures interned on
/// this thread land in the thread-local scratch region; dropping the
/// scope **retires** them — their storage is truncated for reuse and
/// [`scratch_epoch`] advances so id-keyed caches can evict.
///
/// Scopes nest LIFO (enforced at retirement). Terms that must outlive
/// the scope are rebuilt persistently with [`ScratchScope::promote`].
/// The auto-prover wraps each proof search in one scope, which is what
/// keeps `Prove` traffic from growing the process arena.
///
/// # Examples
///
/// ```
/// use nka_syntax::{arena_resident_nodes, Expr, ScratchScope};
/// let resident = arena_resident_nodes();
/// let kept = {
///     let scope = ScratchScope::enter();
///     let transient: Expr = "(x y)* x y x".parse()?;
///     assert!(transient.id().is_scratch());
///     scope.promote(&transient.star())
/// };
/// // The scope retired its scratch; only the promoted term persists.
/// assert!(!kept.id().is_scratch());
/// assert!(arena_resident_nodes() <= resident + kept.subterm_count());
/// # Ok::<(), nka_syntax::ParseExprError>(())
/// ```
pub struct ScratchScope {
    watermark: usize,
    depth: u32,
    /// Scratch regions are thread-local; the scope must retire on the
    /// thread that opened it.
    _not_send: PhantomData<*const ()>,
}

impl ScratchScope {
    /// Opens a scratch scope on the current thread.
    #[must_use]
    pub fn enter() -> ScratchScope {
        SCRATCH.with(|tls| {
            let depth = tls.depth.get() + 1;
            tls.depth.set(depth);
            ScratchScope {
                watermark: tls.region.borrow().nodes.len(),
                depth,
                _not_send: PhantomData,
            }
        })
    }

    /// Scratch nodes this scope (and any nested scopes) have interned so
    /// far.
    #[must_use]
    pub fn live_nodes(&self) -> usize {
        SCRATCH.with(|tls| tls.region.borrow().nodes.len() - self.watermark)
    }

    /// Rebuilds `e` into the persistent arena so it survives this
    /// scope's retirement. See [`promote`].
    #[must_use]
    pub fn promote(&self, e: &Expr) -> Expr {
        promote(e)
    }
}

impl Drop for ScratchScope {
    fn drop(&mut self) {
        SCRATCH.with(|tls| {
            // LIFO misuse (e.g. scopes swapped across an early drop)
            // would silently retire a live scope's terms; fail loudly
            // instead — unless we are already unwinding, where drop
            // order is LIFO by construction and a double panic aborts.
            if tls.depth.get() != self.depth && !std::thread::panicking() {
                panic!(
                    "ScratchScope retired out of LIFO order \
                     (depth {} live, this scope is level {})",
                    tls.depth.get(),
                    self.depth
                );
            }
            tls.depth.set(self.depth - 1);
            let mut region = tls.region.borrow_mut();
            let retired = region.nodes.len().saturating_sub(self.watermark);
            if retired > 0 {
                region.nodes.truncate(self.watermark);
                let watermark = self.watermark;
                region.ids.retain(|_, idx| (*idx as usize) < watermark);
                SCRATCH_LIVE.fetch_sub(retired, Ordering::Relaxed);
                SCRATCH_RETIRED.fetch_add(retired as u64, Ordering::Relaxed);
                SCRATCH_EPOCH.fetch_add(1, Ordering::Release);
            }
        });
    }
}

/// Rebuilds `e` into the **persistent** region, returning the
/// equivalent persistent handle (memoized per distinct subterm, so the
/// cost is linear in `e`'s arena footprint). Persistent inputs come
/// back unchanged; scratch inputs must still be live. This is how
/// results that outlive a [`ScratchScope`] — found proofs, promoted
/// lemmas — escape retirement.
///
/// Note the promoted handle is a *persistent twin*: while the scope is
/// still open, the original scratch handle stays live and in-scope
/// rebuilds of the same structure keep resolving to the scratch id, so
/// the twin compares `!=` to them (handle equality is per-region
/// identity). Promote at the scope boundary — as the prover does — and
/// let the scratch ids retire, rather than mixing the two on one
/// code path.
#[must_use]
pub fn promote(e: &Expr) -> Expr {
    promote_memoized(e, &mut HashMap::new())
}

/// [`promote`] threading a caller-held memo, for promoting many
/// expressions that share subterms (e.g. every term mentioned by a
/// proof tree): each distinct subterm is rebuilt once across the whole
/// traversal instead of once per mention.
#[must_use]
pub fn promote_memoized(e: &Expr, memo: &mut HashMap<ExprId, Expr>) -> Expr {
    if !e.id.is_scratch() {
        return *e;
    }
    e.fold_total(memo, |e, node| {
        if !e.id.is_scratch() {
            return e;
        }
        intern_global(match node {
            Folded::Zero => ExprNode::Zero,
            Folded::One => ExprNode::One,
            Folded::Atom(s) => ExprNode::Atom(s),
            Folded::Add(&l, &r) => ExprNode::Add(l, r),
            Folded::Mul(&l, &r) => ExprNode::Mul(l, r),
            Folded::Star(&inner) => ExprNode::Star(inner),
        })
    })
}

/// Number of distinct expressions in the **persistent** region — the
/// arena footprint that survives every scratch scope. Monotone;
/// observable via `nka --stats` and the CI memory-soak gate.
#[must_use]
pub fn interned_expr_count() -> usize {
    pool()
        .maps
        .iter()
        .map(|s| s.lock().expect("expression interner poisoned").ids.len())
        .sum()
}

/// Scratch nodes currently live (unretired) across all threads.
#[must_use]
pub fn scratch_live_nodes() -> usize {
    SCRATCH_LIVE.load(Ordering::Relaxed)
}

/// Total resident arena nodes: persistent plus live scratch. This is
/// the number a bounded-memory serving process watches.
#[must_use]
pub fn arena_resident_nodes() -> usize {
    interned_expr_count() + scratch_live_nodes()
}

/// Scratch nodes retired (storage reclaimed) since process start. The
/// gap between this and [`interned_expr_count`]'s growth is the memory
/// the scope lifecycle saved.
#[must_use]
pub fn scratch_retired_total() -> u64 {
    SCRATCH_RETIRED.load(Ordering::Relaxed)
}

/// The scratch-retirement epoch: advances every time a scope retires
/// nodes, on any thread. Caches keyed on [`ExprId`] snapshot this and
/// evict their scratch-keyed entries when it moves — retired ids are
/// reused by later scopes, so a stale scratch key would otherwise alias
/// a different term.
#[must_use]
pub fn scratch_epoch() -> u64 {
    SCRATCH_EPOCH.load(Ordering::Acquire)
}

/// The keys a cache inserted under scratch ids since the scratch epoch
/// last moved. A cache owner records each such key as it inserts it and
/// asks for the [`ScratchLog::stale`] keys at its entry points, so
/// purging after a scope retires costs O(keys it evicts), not a scan of
/// every entry the cache holds.
#[derive(Debug)]
pub struct ScratchLog<K> {
    keys: Vec<K>,
    /// The scratch epoch the logged keys are valid under, pinned when
    /// the first one is recorded.
    epoch: u64,
}

impl<K> Default for ScratchLog<K> {
    fn default() -> Self {
        ScratchLog {
            keys: Vec::new(),
            epoch: 0,
        }
    }
}

impl<K> ScratchLog<K> {
    /// Records a key inserted under a scratch id; the first one pins
    /// the epoch it is valid under.
    pub fn record(&mut self, key: K) {
        if self.keys.is_empty() {
            self.epoch = scratch_epoch();
        }
        self.keys.push(key);
    }

    /// Whether no scratch-keyed entry is logged, so no retirement can
    /// leave the cache stale.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The logged keys, in insertion order.
    #[must_use]
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// If a scope retired since the first key was recorded, empties the
    /// log and yields every key — each may since name a different term,
    /// so the owner must evict them all. `None` otherwise; with an empty
    /// log that costs one length check, not even the epoch load.
    pub fn stale(&mut self) -> Option<std::vec::Drain<'_, K>> {
        if self.keys.is_empty() {
            return None;
        }
        let epoch = scratch_epoch();
        if epoch == self.epoch {
            return None;
        }
        self.epoch = epoch;
        Some(self.keys.drain(..))
    }

    /// Forgets every key, for an owner that cleared its whole cache.
    pub fn clear(&mut self) {
        self.keys.clear();
    }
}

impl Expr {
    /// The constant `0`. Always persistent.
    pub fn zero() -> Expr {
        static ZERO: OnceLock<Expr> = OnceLock::new();
        *ZERO.get_or_init(|| intern_global(ExprNode::Zero))
    }

    /// The constant `1`. Always persistent.
    pub fn one() -> Expr {
        static ONE: OnceLock<Expr> = OnceLock::new();
        *ONE.get_or_init(|| intern_global(ExprNode::One))
    }

    /// An atom for the given symbol.
    pub fn atom(sym: Symbol) -> Expr {
        intern(ExprNode::Atom(sym))
    }

    /// Convenience: intern `name` and wrap it as an atom.
    pub fn atom_str(name: &str) -> Expr {
        Expr::atom(Symbol::intern(name))
    }

    /// The sum `self + rhs` (no simplification; see [`Expr::simplified`]).
    pub fn add(&self, rhs: &Expr) -> Expr {
        intern(ExprNode::Add(*self, *rhs))
    }

    /// The product `self · rhs`.
    pub fn mul(&self, rhs: &Expr) -> Expr {
        intern(ExprNode::Mul(*self, *rhs))
    }

    /// The star `self*`.
    pub fn star(&self) -> Expr {
        intern(ExprNode::Star(*self))
    }

    /// Left-associated sum of `terms`; `0` for an empty iterator.
    pub fn sum<I: IntoIterator<Item = Expr>>(terms: I) -> Expr {
        let mut iter = terms.into_iter();
        match iter.next() {
            None => Expr::zero(),
            Some(first) => iter.fold(first, |acc, t| acc.add(&t)),
        }
    }

    /// Left-associated product of `factors`; `1` for an empty iterator.
    pub fn product<I: IntoIterator<Item = Expr>>(factors: I) -> Expr {
        let mut iter = factors.into_iter();
        match iter.next() {
            None => Expr::one(),
            Some(first) => iter.fold(first, |acc, t| acc.mul(&t)),
        }
    }

    /// The interned identity of this expression. Equal ids ⇔ equal
    /// (α-identical) terms; see [`ExprId`].
    #[must_use]
    pub fn id(&self) -> ExprId {
        self.id
    }

    /// Resolves an id back to its expression, if it is currently
    /// resolvable: persistent ids resolve once interned in this
    /// process; scratch ids only on their owning thread while their
    /// scope is live (a retired slot returns `None` until reused).
    #[must_use]
    pub fn from_id(id: ExprId) -> Option<Expr> {
        if id.is_scratch() {
            let idx = (id.0 & !SCRATCH_BIT) as usize;
            SCRATCH.with(|tls| (idx < tls.region.borrow().nodes.len()).then_some(Expr { id }))
        } else {
            let shard_idx = (id.0 as usize) & (SHARDS - 1);
            let local = (id.0 >> SHARD_BITS) as usize;
            let map = pool().maps[shard_idx]
                .lock()
                .expect("expression interner poisoned");
            (local < map.ids.len()).then_some(Expr { id })
        }
    }

    /// The root node, by value (nodes are a few `Copy` words).
    /// Persistent handles resolve lock-free; scratch handles read the
    /// owning thread's scratch region.
    ///
    /// # Panics
    ///
    /// Panics on a *stale* scratch handle — one whose [`ScratchScope`]
    /// has been retired (promote what must outlive the scope), or one
    /// that crossed to a thread that does not own it.
    pub fn node(&self) -> ExprNode {
        let raw = self.id.0;
        if raw & SCRATCH_BIT == 0 {
            return global_node(raw);
        }
        let idx = (raw & !SCRATCH_BIT) as usize;
        SCRATCH.with(|tls| match tls.region.borrow().nodes.get(idx) {
            Some(&node) => node,
            None => panic!(
                "stale scratch ExprId {idx}: its ScratchScope was retired (or the handle \
                 crossed threads); promote expressions that must outlive their scope"
            ),
        })
    }

    /// The one structural recursion over `ExpΣ` (the shape of `{{−}}`,
    /// Definition A.4), on an explicit stack so no input depth reaches
    /// the call stack. Computes `f` once per distinct subterm not already
    /// in `memo` (which is not descended), left before right and children
    /// before parents — the order of the recursive definition, so what
    /// `f` interns gets the ids a recursive walk gives it. The first
    /// `Err` from `f` stops the walk; finished values stay in `memo`.
    ///
    /// # Errors
    ///
    /// The first error `f` returns.
    pub fn fold<T: Clone, E>(
        &self,
        memo: &mut HashMap<ExprId, T>,
        mut f: impl FnMut(Expr, Folded<'_, T>) -> Result<T, E>,
    ) -> Result<T, E> {
        // A subterm is pushed with its node once its children are; each
        // finished subterm leaves its value on `values` for its parent.
        let (mut stack, mut values) = (Vec::with_capacity(64), Vec::with_capacity(64));
        stack.push((*self, None));
        while let Some((e, pushed)) = stack.pop() {
            let node = match pushed {
                Some(node) => node,
                None => {
                    if let Some(done) = memo.get(&e.id) {
                        values.push(done.clone());
                        continue;
                    }
                    match e.node() {
                        node @ (ExprNode::Add(l, r) | ExprNode::Mul(l, r)) => {
                            stack.extend([(e, Some(node)), (r, None), (l, None)]);
                            continue;
                        }
                        node @ ExprNode::Star(inner) => {
                            stack.extend([(e, Some(node)), (inner, None)]);
                            continue;
                        }
                        leaf => leaf,
                    }
                }
            };
            let mut operand = || values.pop().expect("a finished operand");
            let value = match node {
                ExprNode::Zero => f(e, Folded::Zero)?,
                ExprNode::One => f(e, Folded::One)?,
                ExprNode::Atom(s) => f(e, Folded::Atom(s))?,
                ExprNode::Star(_) => f(e, Folded::Star(&operand()))?,
                ExprNode::Add(..) => {
                    let (r, l) = (operand(), operand());
                    f(e, Folded::Add(&l, &r))?
                }
                ExprNode::Mul(..) => {
                    let (r, l) = (operand(), operand());
                    f(e, Folded::Mul(&l, &r))?
                }
            };
            memo.insert(e.id, value.clone());
            values.push(value);
        }
        Ok(values.pop().expect("the root's value"))
    }

    /// [`Expr::fold`] with an infallible callback.
    fn fold_total<T: Clone>(
        &self,
        memo: &mut HashMap<ExprId, T>,
        mut f: impl FnMut(Expr, Folded<'_, T>) -> T,
    ) -> T {
        let Ok(value) = self.fold(memo, |e, node| Ok::<T, Infallible>(f(e, node)));
        value
    }

    /// Number of nodes in the expression read as a *tree* (shared
    /// subterms counted with multiplicity, saturating at `usize::MAX`).
    ///
    /// Computed by a memoized walk over the interned DAG, so deeply
    /// shared expressions (whose tree reading is exponentially larger
    /// than their arena footprint) still cost linear time.
    pub fn size(&self) -> usize {
        self.fold_total(&mut HashMap::new(), |_, node| match node {
            Folded::Zero | Folded::One | Folded::Atom(_) => 1,
            Folded::Add(l, r) | Folded::Mul(l, r) => 1usize.saturating_add(*l).saturating_add(*r),
            Folded::Star(inner) => 1usize.saturating_add(*inner),
        })
    }

    /// Number of *distinct* interned subterms of this expression
    /// (itself included) — its true arena footprint, as opposed to the
    /// tree reading of [`Expr::size`]. The gap between the two is the
    /// sharing the hash-consing arena recovered.
    pub fn subterm_count(&self) -> usize {
        let mut memo = HashMap::new();
        self.fold_total(&mut memo, |_, _| ());
        memo.len()
    }

    /// Inserts the ids of all distinct subterms (self included) into
    /// `out`. Exposed so callers can take unions across several
    /// expressions (e.g. per-query footprint accounting in the API).
    pub fn collect_subterm_ids(&self, out: &mut HashSet<ExprId>) {
        let mut memo = HashMap::new();
        self.fold_total(&mut memo, |_, _| ());
        out.extend(memo.into_keys());
    }

    /// Star-nesting depth (0 for star-free expressions). Memoized over
    /// the interned DAG like [`Expr::size`].
    pub fn star_height(&self) -> usize {
        self.fold_total(&mut HashMap::<_, usize>::new(), |_, node| match node {
            Folded::Zero | Folded::One | Folded::Atom(_) => 0,
            Folded::Add(l, r) | Folded::Mul(l, r) => *l.max(r),
            Folded::Star(inner) => 1 + inner,
        })
    }

    /// The set of atoms occurring in the expression.
    pub fn atoms(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        self.fold_total(&mut HashMap::new(), |_, node| {
            if let Folded::Atom(s) = node {
                out.insert(s);
            }
        });
        out
    }

    /// Substitutes expressions for atoms (simultaneous substitution).
    ///
    /// Atoms not in `map` are left unchanged. This is the syntactic engine
    /// behind axiom-schema instantiation in `nka-core`. Memoized per
    /// distinct subterm, so substitution into a heavily shared
    /// expression is linear in its arena footprint.
    pub fn subst_atoms(&self, map: &HashMap<Symbol, Expr>) -> Expr {
        self.fold_total(&mut HashMap::<_, Expr>::new(), |e, node| match node {
            Folded::Zero | Folded::One => e,
            Folded::Atom(s) => map.get(&s).copied().unwrap_or(e),
            Folded::Add(l, r) => l.add(r),
            Folded::Mul(l, r) => l.mul(r),
            Folded::Star(inner) => inner.star(),
        })
    }

    /// Whether the root is the constant `0`.
    pub fn is_zero(&self) -> bool {
        matches!(self.node(), ExprNode::Zero)
    }

    /// Whether the root is the constant `1`.
    pub fn is_one(&self) -> bool {
        matches!(self.node(), ExprNode::One)
    }

    /// A lightly simplified copy using only *sound* unit laws of NKA
    /// (`e+0 = e`, `e·1 = e`, `e·0 = 0`, `0* = 1`): the result is provably
    /// equal to the input in NKA. Note `e + e` is **not** collapsed — NKA
    /// has no idempotence. Memoized per distinct subterm.
    pub fn simplified(&self) -> Expr {
        self.fold_total(&mut HashMap::<_, Expr>::new(), |e, node| match node {
            Folded::Zero | Folded::One | Folded::Atom(_) => e,
            Folded::Add(&l, &r) if l.is_zero() => r,
            Folded::Add(&l, &r) if r.is_zero() => l,
            Folded::Add(l, r) => l.add(r),
            Folded::Mul(l, r) if l.is_zero() || r.is_zero() => Expr::zero(),
            Folded::Mul(&l, &r) if l.is_one() => r,
            Folded::Mul(&l, &r) if r.is_one() => l,
            Folded::Mul(l, r) => l.mul(r),
            Folded::Star(inner) if inner.is_zero() => Expr::one(),
            Folded::Star(inner) => inner.star(),
        })
    }

    /// Iterates over all subterm positions in pre-order, calling `f` with
    /// the path (child indices from the root) and the subterm.
    pub fn visit_subterms<F: FnMut(&[usize], &Expr)>(&self, f: &mut F) {
        fn go<F: FnMut(&[usize], &Expr)>(e: Expr, path: &mut Vec<usize>, f: &mut F) {
            f(path, &e);
            match e.node() {
                ExprNode::Zero | ExprNode::One | ExprNode::Atom(_) => {}
                ExprNode::Add(l, r) | ExprNode::Mul(l, r) => {
                    path.push(0);
                    go(l, path, f);
                    path.pop();
                    path.push(1);
                    go(r, path, f);
                    path.pop();
                }
                ExprNode::Star(inner) => {
                    path.push(0);
                    go(inner, path, f);
                    path.pop();
                }
            }
        }
        go(*self, &mut Vec::new(), f);
    }

    /// The subterm at `path` (child indices from the root), if the path is
    /// valid.
    pub fn subterm(&self, path: &[usize]) -> Option<Expr> {
        let mut cur = *self;
        for &i in path {
            cur = match (cur.node(), i) {
                (ExprNode::Add(l, _), 0) | (ExprNode::Mul(l, _), 0) => l,
                (ExprNode::Add(_, r), 1) | (ExprNode::Mul(_, r), 1) => r,
                (ExprNode::Star(e), 0) => e,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// Replaces the subterm at `path` with `replacement`, returning the new
    /// expression; `None` if the path is invalid.
    pub fn replace_at(&self, path: &[usize], replacement: &Expr) -> Option<Expr> {
        if path.is_empty() {
            return Some(*replacement);
        }
        let (head, rest) = (path[0], &path[1..]);
        Some(match (self.node(), head) {
            (ExprNode::Add(l, r), 0) => l.replace_at(rest, replacement)?.add(&r),
            (ExprNode::Add(l, r), 1) => l.add(&r.replace_at(rest, replacement)?),
            (ExprNode::Mul(l, r), 0) => l.replace_at(rest, replacement)?.mul(&r),
            (ExprNode::Mul(l, r), 1) => l.mul(&r.replace_at(rest, replacement)?),
            (ExprNode::Star(e), 0) => e.replace_at(rest, replacement)?.star(),
            _ => return None,
        })
    }
}

impl Add for &Expr {
    type Output = Expr;
    fn add(self, rhs: &Expr) -> Expr {
        Expr::add(self, rhs)
    }
}

impl Mul for &Expr {
    type Output = Expr;
    fn mul(self, rhs: &Expr) -> Expr {
        Expr::mul(self, rhs)
    }
}

impl From<Symbol> for Expr {
    fn from(sym: Symbol) -> Expr {
        Expr::atom(sym)
    }
}

/// Compile-time proof of the API v2 thread-safety contract: handles move
/// and share across threads. (Scratch handles additionally resolve only
/// on their owning thread — a runtime, not a type-level, property.)
#[allow(dead_code)]
fn _static_assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<Expr>();
    check::<ExprId>();
    check::<ExprNode>();
}

impl fmt::Display for Expr {
    /// Prints on an explicit stack. Binding levels: `+` 0, `·` 1, `*` 2;
    /// a subterm is parenthesised when its context binds tighter. Sums
    /// and products print left-associatively, so a right operand of the
    /// same level, and a compound star body, need parentheses.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        #[derive(Clone, Copy)]
        enum Piece {
            Term(Expr, u8),
            Text(&'static str),
        }
        let mut stack = Vec::with_capacity(64);
        stack.push(Piece::Term(*self, 0));
        while let Some(piece) = stack.pop() {
            let (e, context) = match piece {
                Piece::Text(text) => {
                    f.write_str(text)?;
                    continue;
                }
                Piece::Term(e, context) => (e, context),
            };
            let (level, pieces): (u8, &[Piece]) = match e.node() {
                ExprNode::Zero => (3, &[Piece::Text("0")]),
                ExprNode::One => (3, &[Piece::Text("1")]),
                ExprNode::Atom(s) => {
                    write!(f, "{s}")?;
                    continue;
                }
                ExprNode::Add(l, r) => (
                    0,
                    &[Piece::Term(l, 0), Piece::Text(" + "), Piece::Term(r, 1)],
                ),
                ExprNode::Mul(l, r) => {
                    (1, &[Piece::Term(l, 1), Piece::Text(" "), Piece::Term(r, 2)])
                }
                ExprNode::Star(inner) => (2, &[Piece::Term(inner, 3), Piece::Text("*")]),
            };
            let paren = context > level;
            stack.extend(paren.then_some(Piece::Text(")")));
            stack.extend(pieces.iter().rev());
            stack.extend(paren.then_some(Piece::Text("(")));
        }
        Ok(())
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Expr({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Expr {
        Expr::atom_str(s)
    }

    #[test]
    fn display_respects_precedence() {
        let p = a("p");
        let q = a("q");
        let r = a("r");
        assert_eq!((&(&p + &q) * &r).to_string(), "(p + q) r");
        assert_eq!((&p + &(&q * &r)).to_string(), "p + q r");
        assert_eq!((&p * &q).star().to_string(), "(p q)*");
        assert_eq!(p.star().to_string(), "p*");
        assert_eq!((&p * &(&q * &r)).to_string(), "p (q r)");
    }

    #[test]
    fn roundtrip_display_parse() {
        for src in [
            "0",
            "1",
            "p",
            "p + q",
            "p q",
            "p*",
            "(p + q)*",
            "(m0 p)* m1",
            "(m0 p (m0 p + m1 1))* m1",
            "p (q r)",
            "(p + q) (r + s)",
        ] {
            let e: Expr = src.parse().unwrap();
            let printed = e.to_string();
            let reparsed: Expr = printed.parse().unwrap();
            assert_eq!(e, reparsed, "roundtrip failed for {src} -> {printed}");
        }
    }

    #[test]
    fn hash_consing_dedupes_equal_structure() {
        let e1: Expr = "(p q)* + r*".parse().unwrap();
        let e2 = &(&a("p") * &a("q")).star() + &a("r").star();
        assert_eq!(e1, e2);
        assert_eq!(e1.id(), e2.id());
        // Distinct structure, distinct id.
        let e3: Expr = "(q p)* + r*".parse().unwrap();
        assert_ne!(e1.id(), e3.id());
        // Handles resolve back through the arena.
        assert_eq!(Expr::from_id(e1.id()), Some(e1));
        assert!(interned_expr_count() >= e1.subterm_count());
    }

    #[test]
    fn constants_are_singletons() {
        assert_eq!(Expr::zero().id(), Expr::zero().id());
        assert_eq!(Expr::one().id(), Expr::one().id());
        assert_ne!(Expr::zero().id(), Expr::one().id());
        assert_eq!(Expr::zero(), "0".parse().unwrap());
        assert_eq!(Expr::one(), "1".parse().unwrap());
    }

    #[test]
    fn size_and_star_height() {
        let e: Expr = "(p q)* + r*".parse().unwrap();
        assert_eq!(e.size(), 7);
        assert_eq!(e.star_height(), 1);
        let nested: Expr = "((p*)* q)*".parse().unwrap();
        assert_eq!(nested.star_height(), 3);
    }

    #[test]
    fn subterm_count_sees_through_sharing() {
        // p + p: three tree nodes, two distinct subterms.
        let pp: Expr = "p + p".parse().unwrap();
        assert_eq!(pp.size(), 3);
        assert_eq!(pp.subterm_count(), 2);
        // Doubling via self-multiplication: tree size grows
        // exponentially, footprint linearly.
        let mut e = a("x");
        for _ in 0..20 {
            e = e.mul(&e);
        }
        assert_eq!(e.size(), (1 << 21) - 1);
        assert_eq!(e.subterm_count(), 21);
    }

    #[test]
    fn atoms_collected() {
        let e: Expr = "(m0 p)* m1 + 0 1".parse().unwrap();
        let mut names: Vec<String> = e.atoms().iter().map(|s| s.name()).collect();
        names.sort();
        assert_eq!(names, vec!["m0", "m1", "p"]);
    }

    #[test]
    fn substitution() {
        let e: Expr = "(x y)* x".parse().unwrap();
        let mut map = HashMap::new();
        map.insert(Symbol::intern("x"), "p q".parse().unwrap());
        map.insert(Symbol::intern("y"), Expr::one());
        let sub = e.subst_atoms(&map);
        assert_eq!(sub, "(p q 1)* (p q)".parse().unwrap());
    }

    #[test]
    fn simplification_is_unit_laws_only() {
        let e: Expr = "(p + 0) (1 q) + 0*".parse().unwrap();
        assert_eq!(e.simplified(), "p q + 1".parse().unwrap());
        // No idempotence: p + p must stay.
        let pp: Expr = "p + p".parse().unwrap();
        assert_eq!(pp.simplified(), pp);
    }

    #[test]
    fn paths_and_replacement() {
        let e: Expr = "(p q)* r".parse().unwrap();
        // (Mul (Star (Mul p q)) r): path [0,0,1] is q.
        assert_eq!(e.subterm(&[0, 0, 1]).unwrap(), a("q"));
        let replaced = e.replace_at(&[0, 0, 1], &a("z")).unwrap();
        assert_eq!(replaced, "(p z)* r".parse().unwrap());
        assert!(e.subterm(&[5]).is_none());
        assert!(e.replace_at(&[1, 0], &a("z")).is_none());
    }

    #[test]
    fn visit_subterms_preorder() {
        let e: Expr = "p q*".parse().unwrap();
        let mut seen = Vec::new();
        e.visit_subterms(&mut |path, sub| seen.push((path.to_vec(), sub.to_string())));
        assert_eq!(
            seen,
            vec![
                (vec![], "p q*".to_string()),
                (vec![0], "p".to_string()),
                (vec![1], "q*".to_string()),
                (vec![1, 0], "q".to_string()),
            ]
        );
    }

    #[test]
    fn sum_and_product_helpers() {
        assert_eq!(Expr::sum(std::iter::empty()), Expr::zero());
        assert_eq!(Expr::product(std::iter::empty()), Expr::one());
        let e = Expr::sum([a("x"), a("y"), a("z")]);
        assert_eq!(e.to_string(), "x + y + z");
        let m = Expr::product([a("x"), a("y"), a("z")]);
        assert_eq!(m.to_string(), "x y z");
    }

    #[test]
    fn interning_is_thread_safe() {
        // Concurrent builders of the same terms agree on handles.
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let e: Expr = "(m0 p)* m1 + (q r)*".parse().unwrap();
                    e.id()
                })
            })
            .collect();
        let ids: Vec<ExprId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }

    /// The scratch counters (`scratch_live_nodes`, …) are process-global
    /// and only scope-using tests touch them; serialize those tests so
    /// their exact-count assertions don't race each other.
    fn scope_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn scratch_scope_reclaims_new_terms() {
        let _serial = scope_test_lock();
        // Persistent baseline terms, so the scope has something global
        // to dedup against.
        let base: Expr = "scrA scrB".parse().unwrap();
        let live_before = scratch_live_nodes();
        let retired_before = scratch_retired_total();
        {
            let scope = ScratchScope::enter();
            // Known structure stays persistent even inside the scope.
            let again: Expr = "scrA scrB".parse().unwrap();
            assert_eq!(again, base);
            assert!(!again.id().is_scratch());
            // New structure goes to scratch and dedups within the scope.
            let s1 = base.star();
            let s2 = base.star();
            assert!(s1.id().is_scratch());
            assert_eq!(s1, s2);
            assert_eq!(s1.to_string(), "(scrA scrB)*");
            assert_eq!(scope.live_nodes(), 1);
            assert_eq!(scratch_live_nodes(), live_before + 1);
        }
        // Retirement reclaimed every scratch node and advanced the epoch.
        assert_eq!(scratch_live_nodes(), live_before);
        assert_eq!(scratch_retired_total(), retired_before + 1);
    }

    #[test]
    fn promote_survives_retirement() {
        let _serial = scope_test_lock();
        let epoch_before = scratch_epoch();
        let kept = {
            let scope = ScratchScope::enter();
            let t: Expr = "prA (prB + prA)".parse().unwrap();
            assert!(t.id().is_scratch());
            scope.promote(&t)
        };
        assert!(!kept.id().is_scratch());
        assert!(scratch_epoch() > epoch_before);
        // The promoted term is fully resolvable after retirement.
        assert_eq!(kept.to_string(), "prA (prB + prA)");
        assert_eq!(kept, "prA (prB + prA)".parse().unwrap());
        assert!(!kept.subterm(&[1]).unwrap().id().is_scratch());
    }

    #[test]
    fn scopes_nest_lifo_and_truncate_to_watermarks() {
        let _serial = scope_test_lock();
        let outer = ScratchScope::enter();
        let t_outer = a("nestX").add(&a("nestY"));
        assert!(t_outer.id().is_scratch());
        let live_at_inner = scratch_live_nodes();
        {
            let _inner = ScratchScope::enter();
            let t_inner = t_outer.mul(&t_outer).star();
            assert!(t_inner.id().is_scratch());
            assert!(scratch_live_nodes() > live_at_inner);
        }
        // Inner retirement reclaimed only the inner terms.
        assert_eq!(scratch_live_nodes(), live_at_inner);
        assert_eq!(t_outer.to_string(), "nestX + nestY");
        drop(outer);
    }

    #[test]
    fn stale_scratch_ids_do_not_resolve() {
        let _serial = scope_test_lock();
        let id = {
            let _scope = ScratchScope::enter();
            let t = a("staleP").add(&a("staleQ")).star();
            assert!(t.id().is_scratch());
            assert_eq!(Expr::from_id(t.id()), Some(t));
            t.id()
        };
        assert_eq!(Expr::from_id(id), None);
    }

    #[test]
    fn rebuilding_scratch_structure_after_retirement_is_persistent() {
        // A term first seen as scratch gets a fresh persistent identity
        // when rebuilt after the scope — and stays self-consistent.
        let _serial = scope_test_lock();
        {
            let _scope = ScratchScope::enter();
            let t: Expr = "rebA rebB rebC".parse().unwrap();
            assert!(t.id().is_scratch());
        }
        let t: Expr = "rebA rebB rebC".parse().unwrap();
        assert!(!t.id().is_scratch());
        assert_eq!(t, "rebA rebB rebC".parse().unwrap());
    }

    /// The recursive definitions [`Expr::fold`] replaced, kept as the
    /// oracle the stack-safe walkers must agree with.
    mod recursive {
        use super::super::*;

        pub fn size(e: Expr, memo: &mut HashMap<ExprId, usize>) -> usize {
            if let Some(&n) = memo.get(&e.id) {
                return n;
            }
            let n = match e.node() {
                ExprNode::Zero | ExprNode::One | ExprNode::Atom(_) => 1,
                ExprNode::Add(l, r) | ExprNode::Mul(l, r) => 1usize
                    .saturating_add(size(l, memo))
                    .saturating_add(size(r, memo)),
                ExprNode::Star(e) => 1usize.saturating_add(size(e, memo)),
            };
            memo.insert(e.id, n);
            n
        }

        pub fn collect_subterm_ids(e: Expr, out: &mut HashSet<ExprId>) {
            if !out.insert(e.id) {
                return;
            }
            match e.node() {
                ExprNode::Zero | ExprNode::One | ExprNode::Atom(_) => {}
                ExprNode::Add(l, r) | ExprNode::Mul(l, r) => {
                    collect_subterm_ids(l, out);
                    collect_subterm_ids(r, out);
                }
                ExprNode::Star(e) => collect_subterm_ids(e, out),
            }
        }

        pub fn star_height(e: Expr, memo: &mut HashMap<ExprId, usize>) -> usize {
            if let Some(&n) = memo.get(&e.id) {
                return n;
            }
            let n = match e.node() {
                ExprNode::Zero | ExprNode::One | ExprNode::Atom(_) => 0,
                ExprNode::Add(l, r) | ExprNode::Mul(l, r) => {
                    star_height(l, memo).max(star_height(r, memo))
                }
                ExprNode::Star(e) => 1 + star_height(e, memo),
            };
            memo.insert(e.id, n);
            n
        }

        pub fn atoms(e: Expr, out: &mut BTreeSet<Symbol>, seen: &mut HashSet<ExprId>) {
            if !seen.insert(e.id) {
                return;
            }
            match e.node() {
                ExprNode::Zero | ExprNode::One => {}
                ExprNode::Atom(s) => {
                    out.insert(s);
                }
                ExprNode::Add(l, r) | ExprNode::Mul(l, r) => {
                    atoms(l, out, seen);
                    atoms(r, out, seen);
                }
                ExprNode::Star(e) => atoms(e, out, seen),
            }
        }

        pub fn subst_atoms(
            e: Expr,
            map: &HashMap<Symbol, Expr>,
            memo: &mut HashMap<ExprId, Expr>,
        ) -> Expr {
            if let Some(&done) = memo.get(&e.id()) {
                return done;
            }
            let out = match e.node() {
                ExprNode::Zero | ExprNode::One => e,
                ExprNode::Atom(s) => map.get(&s).copied().unwrap_or(e),
                ExprNode::Add(l, r) => subst_atoms(l, map, memo).add(&subst_atoms(r, map, memo)),
                ExprNode::Mul(l, r) => subst_atoms(l, map, memo).mul(&subst_atoms(r, map, memo)),
                ExprNode::Star(inner) => subst_atoms(inner, map, memo).star(),
            };
            memo.insert(e.id(), out);
            out
        }

        pub fn simplified(e: Expr, memo: &mut HashMap<ExprId, Expr>) -> Expr {
            if let Some(&done) = memo.get(&e.id()) {
                return done;
            }
            let out = match e.node() {
                ExprNode::Zero | ExprNode::One | ExprNode::Atom(_) => e,
                ExprNode::Add(l, r) => {
                    let (l, r) = (simplified(l, memo), simplified(r, memo));
                    if l.is_zero() {
                        r
                    } else if r.is_zero() {
                        l
                    } else {
                        l.add(&r)
                    }
                }
                ExprNode::Mul(l, r) => {
                    let (l, r) = (simplified(l, memo), simplified(r, memo));
                    if l.is_zero() || r.is_zero() {
                        Expr::zero()
                    } else if l.is_one() {
                        r
                    } else if r.is_one() {
                        l
                    } else {
                        l.mul(&r)
                    }
                }
                ExprNode::Star(inner) => {
                    let inner = simplified(inner, memo);
                    if inner.is_zero() {
                        Expr::one()
                    } else {
                        inner.star()
                    }
                }
            };
            memo.insert(e.id(), out);
            out
        }

        pub fn promote(e: Expr, memo: &mut HashMap<ExprId, Expr>) -> Expr {
            if !e.id.is_scratch() {
                return e;
            }
            if let Some(&done) = memo.get(&e.id) {
                return done;
            }
            let out = match e.node() {
                ExprNode::Zero => Expr::zero(),
                ExprNode::One => Expr::one(),
                ExprNode::Atom(s) => intern_global(ExprNode::Atom(s)),
                ExprNode::Add(l, r) => {
                    intern_global(ExprNode::Add(promote(l, memo), promote(r, memo)))
                }
                ExprNode::Mul(l, r) => {
                    intern_global(ExprNode::Mul(promote(l, memo), promote(r, memo)))
                }
                ExprNode::Star(inner) => intern_global(ExprNode::Star(promote(inner, memo))),
            };
            memo.insert(e.id, out);
            out
        }

        /// Precedence levels for printing: `+` < `·` < `*`/atoms.
        pub fn fmt_prec(e: &Expr, f: &mut fmt::Formatter<'_>, prec: u8) -> fmt::Result {
            match e.node() {
                ExprNode::Zero => write!(f, "0"),
                ExprNode::One => write!(f, "1"),
                ExprNode::Atom(s) => write!(f, "{s}"),
                ExprNode::Add(l, r) => {
                    let need_paren = prec > 0;
                    if need_paren {
                        write!(f, "(")?;
                    }
                    fmt_prec(&l, f, 0)?;
                    write!(f, " + ")?;
                    fmt_prec(&r, f, 1)?;
                    if need_paren {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                ExprNode::Mul(l, r) => {
                    let need_paren = prec > 1;
                    if need_paren {
                        write!(f, "(")?;
                    }
                    fmt_prec(&l, f, 1)?;
                    write!(f, " ")?;
                    fmt_prec(&r, f, 2)?;
                    if need_paren {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                ExprNode::Star(inner) => {
                    match inner.node() {
                        ExprNode::Zero | ExprNode::One | ExprNode::Atom(_) => {
                            fmt_prec(&inner, f, 2)?;
                        }
                        _ => {
                            write!(f, "(")?;
                            fmt_prec(&inner, f, 0)?;
                            write!(f, ")")?;
                        }
                    }
                    write!(f, "*")
                }
            }
        }

        pub struct Printed(pub Expr);

        impl fmt::Display for Printed {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt_prec(&self.0, f, 0)
            }
        }
    }

    /// A random expression with heavy sharing: each new node combines
    /// earlier nodes picked anywhere from the pool, so subterms recur.
    fn shared_dag(seed: u64, nodes: usize, atoms: &[Expr]) -> Expr {
        let mut state = seed | 1;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut pool = vec![Expr::zero(), Expr::one()];
        pool.extend_from_slice(atoms);
        for _ in 0..nodes {
            let (l, r) = (pool[next(pool.len())], pool[next(pool.len())]);
            pool.push(match next(7) {
                0..=2 => l.add(&r),
                3..=5 => l.mul(&r),
                _ => l.star(),
            });
        }
        *pool.last().expect("a non-empty pool")
    }

    /// The scratch id `build` returns and the scratch nodes it interned,
    /// inside a scope opened on the current watermark. Two builds that
    /// intern the same nodes in the same order report the same pair.
    fn scratch_trace(build: impl FnOnce() -> Expr) -> (ExprId, usize) {
        let scope = ScratchScope::enter();
        let out = build();
        (out.id(), scope.live_nodes())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Every walker on [`Expr::fold`] agrees with its recursive
        /// definition on shared DAGs: equal values, equal result ids,
        /// and — for the walkers that intern — the same interning order.
        #[test]
        fn fold_walkers_match_the_recursive_definitions(
            seed in proptest::prelude::any::<u64>(),
            nodes in 1usize..48,
        ) {
            let _serial = scope_test_lock();
            let atoms = [a("fold_a"), a("fold_b"), a("fold_c")];
            let e = shared_dag(seed, nodes, &atoms);
            assert_eq!(e.size(), recursive::size(e, &mut HashMap::new()));
            let mut ids = HashSet::new();
            recursive::collect_subterm_ids(e, &mut ids);
            let mut folded = HashSet::new();
            e.collect_subterm_ids(&mut folded);
            assert_eq!(folded, ids);
            assert_eq!(e.subterm_count(), ids.len());
            assert_eq!(e.star_height(), recursive::star_height(e, &mut HashMap::new()));
            let mut atom_set = BTreeSet::new();
            recursive::atoms(e, &mut atom_set, &mut HashSet::new());
            assert_eq!(e.atoms(), atom_set);
            assert_eq!(e.to_string(), recursive::Printed(e).to_string());

            let map = HashMap::from([
                (Symbol::intern("fold_a"), shared_dag(seed ^ 0x5eed, 4, &atoms)),
                (Symbol::intern("fold_b"), Expr::zero()),
            ]);
            assert_eq!(
                scratch_trace(|| e.subst_atoms(&map)),
                scratch_trace(|| recursive::subst_atoms(e, &map, &mut HashMap::new()))
            );
            assert_eq!(
                scratch_trace(|| e.simplified()),
                scratch_trace(|| recursive::simplified(e, &mut HashMap::new()))
            );

            // A fresh atom makes every subterm that mentions it scratch.
            let scope = ScratchScope::enter();
            let fresh = [a(&format!("fold_{seed:x}_{nodes}")), atoms[1], atoms[2]];
            let scratch = shared_dag(seed, nodes, &fresh).mul(&fresh[0]);
            assert!(scratch.id().is_scratch());
            let promoted = promote(&scratch);
            assert!(!promoted.id().is_scratch());
            assert_eq!(promoted, recursive::promote(scratch, &mut HashMap::new()));
            drop(scope);
        }
    }

    /// Every walker on [`Expr::fold`], and printing, answers on a
    /// 100,000-deep left `·`-spine and a 100,000-deep star nest on a
    /// 256 KiB thread: input depth never reaches the call stack.
    #[test]
    fn walkers_answer_on_deep_terms_with_a_small_stack() {
        const DEPTH: usize = 100_000;
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let _serial = scope_test_lock();
                let (x, y) = (a("deep_x"), a("deep_y"));
                let spine = (0..DEPTH).fold(x, |acc, _| acc.mul(&x));
                let nest = (0..DEPTH).fold(x, |acc, _| acc.star());
                for (e, size, height) in [(spine, 2 * DEPTH + 1, 0), (nest, DEPTH + 1, DEPTH)] {
                    assert_eq!(e.size(), size);
                    assert_eq!(e.subterm_count(), DEPTH + 1);
                    let mut ids = HashSet::new();
                    e.collect_subterm_ids(&mut ids);
                    assert_eq!(ids.len(), DEPTH + 1);
                    assert_eq!(e.star_height(), height);
                    assert_eq!(e.atoms(), BTreeSet::from([Symbol::intern("deep_x")]));
                    assert_eq!(e.simplified(), e);
                    let swapped = e.subst_atoms(&HashMap::from([(Symbol::intern("deep_x"), y)]));
                    assert_eq!(swapped.size(), size);
                    assert_eq!(swapped.atoms(), BTreeSet::from([Symbol::intern("deep_y")]));
                }
                let printed = spine.to_string();
                assert_eq!(printed.len(), "deep_x ".len() * (DEPTH + 1) - 1);
                assert!(printed.starts_with("deep_x deep_x"));
                let printed = nest.to_string();
                assert_eq!(printed.len(), "deep_x*".len() + "()*".len() * (DEPTH - 1));
                assert!(printed.starts_with("((") && printed.ends_with(")*)*"));

                let scope = ScratchScope::enter();
                let fresh = (0..DEPTH).fold(a("deep_scratch"), |acc, _| acc.mul(&x));
                let fresh_nest = (0..DEPTH).fold(a("deep_scratch"), |acc, _| acc.star());
                assert!(fresh.id().is_scratch() && fresh_nest.id().is_scratch());
                let kept = [promote(&fresh), promote(&fresh_nest)];
                drop(scope);
                assert!(kept.iter().all(|e| !e.id().is_scratch()));
                assert_eq!(kept.map(|e| e.size()), [2 * DEPTH + 1, DEPTH + 1]);
            })
            .expect("thread spawns")
            .join()
            .expect("every walker answers on a 256 KiB stack");
    }
}
