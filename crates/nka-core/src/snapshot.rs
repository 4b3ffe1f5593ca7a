//! Version-stamped, checksummed binary snapshots of warm engine state.
//!
//! Every worker recycle and supervisor restart used to discard the caches
//! that separate the ~hundred-nanosecond warm query path from the
//! ~millisecond cold path. This module makes that warm state a durable
//! artifact: a snapshot captures the promoted arena expressions reachable
//! from the [`Decider`](nka_wfa::Decider) caches (in a canonical,
//! process-independent post-order encoding), the NKA/KA verdict caches and
//! the analyzer certificate cache — and restores them into a fresh
//! process. The star-free tiers keep no state of their own to persist:
//! their word multisets live for one query, and the verdict cache holds
//! the answer.
//!
//! # Lifecycle
//!
//! One [`WarmStart`] owns a snapshot file for every surface (`batch`,
//! with or without `--jobs`, the stdin `serve` loop and the socket
//! server): it reads the file once, restores the loaded entries into
//! each session it creates, folds each session's caches into one union
//! seeded with the loaded entries — on every engine recycle and at the
//! end — and writes that union back. A dump never holds fewer entries
//! than the file booted with, and a verdict decided on an engine since
//! recycled reaches the last dump. `nka snapshot dump FILE` uses a
//! [`WarmStart::create`] that does not read FILE.
//!
//! # Format
//!
//! A snapshot file is `MAGIC ("NKASNAP.") · version (u32) · checksum
//! (u64, FNV-1a over the body) · body`, all integers little-endian. The
//! body is:
//!
//! | section   | contents                                                       |
//! |-----------|----------------------------------------------------------------|
//! | header    | creation time (unix secs), config guard (`starfree_max_words`) |
//! | symbols   | count + length-prefixed UTF-8 names                            |
//! | exprs     | count + tagged nodes in post-order (children precede parents; child indices must be smaller than the node's own index) |
//! | verdicts  | NKA then KA: count + `(lhs idx, rhs idx, verdict)` triples     |
//! | certs     | count + `(p, q, holds, certificate counters)` entries          |
//!
//! Expression identity is *structural*: [`nka_syntax::ExprId`]s
//! are process-local (the arena shards by a per-process hash seed), so
//! the dump remaps every id to a dense table index and the load re-interns
//! each node through the public constructors — hash-consing makes the
//! restored handles canonical again in the new process.
//!
//! # Degradation contract
//!
//! Loading **never** produces a wrong answer. Every defect — bad magic,
//! unsupported version, checksum mismatch, truncation, malformed indices,
//! or a semantically relevant [`DecideOptions`] mismatch — is a typed
//! [`SnapshotError`]; callers degrade to a cold start and surface a
//! warning counter. A verdict restored from a *valid* snapshot is exact
//! by construction: it was decided by the same exact pipeline under the
//! same cache-relevant options.

use crate::api::{Session, SessionOptions, SnapshotStats};
use nka_qprog::analysis::CertificateStats;
use nka_syntax::{Expr, ExprId, Folded, Symbol};
use nka_wfa::DecideOptions;
use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

/// Numbers [`SnapshotBuilder::write_to`]'s temp files within this process.
static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);

/// The 8-byte file magic every snapshot starts with.
pub const MAGIC: [u8; 8] = *b"NKASNAP.";

/// The current snapshot format version. Bump on any layout change; a
/// reader seeing an unknown version degrades to cold start. Version 2
/// dropped the header's zeroness-arithmetic flag byte; version 3 dropped
/// the star-free word-multiset section.
pub const VERSION: u32 = 3;

/// The subset of [`DecideOptions`] that affects what cached entries
/// *carry*. A snapshot written under one guard must not be restored into
/// an engine running under a different one: analyzer certificates carry
/// the tier counters of their decision on the wire (`starfree_hits`,
/// `prefix_hits`, `fastpath_fallbacks`), and `starfree_max_words`
/// decides which tier answers a star-free query. Verdicts do not depend
/// on it. (`max_dfa_states` is
/// a resource budget only — it can differ freely, so it is deliberately
/// not part of the guard.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigGuard {
    /// The star-free fast-path word budget the entries were computed under.
    pub starfree_max_words: u64,
}

impl ConfigGuard {
    /// The guard for a given set of engine options.
    #[must_use]
    pub fn from_options(opts: &DecideOptions) -> ConfigGuard {
        ConfigGuard {
            starfree_max_words: opts.starfree_max_words as u64,
        }
    }
}

/// Why a snapshot could not be written or restored. Every variant is a
/// *degrade-to-cold* signal, never a correctness hazard.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure reading or writing the snapshot.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The file claims a format version this reader does not speak.
    UnsupportedVersion(u32),
    /// The body checksum does not match the header — bit rot or a torn
    /// write.
    ChecksumMismatch {
        /// The checksum recorded in the header.
        expected: u64,
        /// The checksum recomputed over the body.
        actual: u64,
    },
    /// The file ended before a section it promised.
    Truncated,
    /// A structural invariant failed (bad tag, out-of-range index,
    /// non-UTF-8 name); the static message names which.
    Malformed(&'static str),
    /// The snapshot was written under cache-semantics-relevant options
    /// that differ from the loading engine's ([`ConfigGuard`]).
    ConfigMismatch,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads v{VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch (header {expected:#018x}, body {actual:#018x})"
            ),
            SnapshotError::Truncated => write!(f, "snapshot file is truncated"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::ConfigMismatch => {
                write!(f, "snapshot was written under different engine options")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// One analyzer certificate-cache entry: the certifying `prog_eq` query
/// sources, its verdict, and the fast-path counters its decision cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertEntry {
    /// Left program source of the certifying query.
    pub p: String,
    /// Right program source of the certifying query.
    pub q: String,
    /// The cached `prog_eq` verdict.
    pub holds: bool,
    /// The tier counters recorded when the certificate was decided.
    pub stats: CertificateStats,
}

/// A canonically-encoded expression node; children are table indices
/// strictly smaller than the node's own index (post-order invariant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    Zero,
    One,
    Atom(u32),
    Add(u32, u32),
    Mul(u32, u32),
    Star(u32),
}

/// Accumulates warm state for a dump: remaps process-local [`ExprId`]s
/// to dense table indices, dedups entries contributed by multiple
/// workers, and serializes to the binary format. Scratch-keyed
/// expressions are refused at every entry point — their ids are reused
/// across epochs, so persisting them could resurrect a verdict under a
/// different term.
#[derive(Debug)]
pub struct SnapshotBuilder {
    config: ConfigGuard,
    symbols: Vec<String>,
    symbol_ids: HashMap<Symbol, u32>,
    nodes: Vec<Node>,
    expr_ids: HashMap<ExprId, u32>,
    nka: Vec<(u32, u32, bool)>,
    nka_seen: HashMap<(u32, u32), ()>,
    ka: Vec<(u32, u32, bool)>,
    ka_seen: HashMap<(u32, u32), ()>,
    certs: Vec<CertEntry>,
    cert_seen: HashMap<(String, String), ()>,
}

impl SnapshotBuilder {
    /// An empty builder for state computed under `config`.
    #[must_use]
    pub fn new(config: ConfigGuard) -> SnapshotBuilder {
        SnapshotBuilder {
            config,
            symbols: Vec::new(),
            symbol_ids: HashMap::new(),
            nodes: Vec::new(),
            expr_ids: HashMap::new(),
            nka: Vec::new(),
            nka_seen: HashMap::new(),
            ka: Vec::new(),
            ka_seen: HashMap::new(),
            certs: Vec::new(),
            cert_seen: HashMap::new(),
        }
    }

    /// Total entries (verdicts + certificates) staged so far.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.nka.len() + self.ka.len() + self.certs.len()
    }

    fn intern_symbol(&mut self, sym: Symbol) -> u32 {
        if let Some(&ix) = self.symbol_ids.get(&sym) {
            return ix;
        }
        let ix = u32::try_from(self.symbols.len()).expect("snapshot symbol table overflow");
        self.symbols.push(sym.name());
        self.symbol_ids.insert(sym, ix);
        ix
    }

    /// The table index of `e`, interning its subterms first (post-order
    /// on [`Expr::fold`]'s explicit stack — program encodings can be deep
    /// `·`-spines).
    fn intern_expr(&mut self, e: &Expr) -> u32 {
        let mut expr_ids = std::mem::take(&mut self.expr_ids);
        let Ok(ix) = e.fold(&mut expr_ids, |_, node| {
            let node = match node {
                Folded::Zero => Node::Zero,
                Folded::One => Node::One,
                Folded::Atom(sym) => Node::Atom(self.intern_symbol(sym)),
                Folded::Add(&l, &r) => Node::Add(l, r),
                Folded::Mul(&l, &r) => Node::Mul(l, r),
                Folded::Star(&x) => Node::Star(x),
            };
            let ix = u32::try_from(self.nodes.len()).expect("snapshot expr table overflow");
            self.nodes.push(node);
            Ok::<u32, Infallible>(ix)
        });
        self.expr_ids = expr_ids;
        ix
    }

    /// Stages an NKA verdict-cache entry. Duplicate pairs (from several
    /// workers, or from a loaded file and a session that restored it)
    /// collapse to the first occurrence in either orientation: `e = f`
    /// and `f = e` have one verdict.
    pub fn add_nka_verdict(&mut self, lhs: &Expr, rhs: &Expr, verdict: bool) {
        if lhs.id().is_scratch() || rhs.id().is_scratch() {
            return;
        }
        let (l, r) = (self.intern_expr(lhs), self.intern_expr(rhs));
        if self.nka_seen.insert((l.min(r), l.max(r)), ()).is_none() {
            self.nka.push((l, r, verdict));
        }
    }

    /// Stages a KA verdict-cache entry.
    pub fn add_ka_verdict(&mut self, lhs: &Expr, rhs: &Expr, verdict: bool) {
        if lhs.id().is_scratch() || rhs.id().is_scratch() {
            return;
        }
        let (l, r) = (self.intern_expr(lhs), self.intern_expr(rhs));
        if self.ka_seen.insert((l.min(r), l.max(r)), ()).is_none() {
            self.ka.push((l, r, verdict));
        }
    }

    /// Stages an analyzer certificate-cache entry.
    pub fn add_cert(&mut self, p: &str, q: &str, holds: bool, stats: CertificateStats) {
        let key = (p.to_owned(), q.to_owned());
        if self.cert_seen.insert(key, ()).is_some() {
            return;
        }
        self.certs.push(CertEntry {
            p: p.to_owned(),
            q: q.to_owned(),
            holds,
            stats,
        });
    }

    /// Serializes the staged state to the binary format, stamped with
    /// the given creation time.
    #[must_use]
    pub fn encode(&self, created_unix_secs: u64) -> Vec<u8> {
        let mut body = Vec::new();
        push_u64(&mut body, created_unix_secs);
        push_u64(&mut body, self.config.starfree_max_words);
        push_u32(&mut body, self.symbols.len() as u32);
        for name in &self.symbols {
            push_bytes(&mut body, name.as_bytes());
        }
        push_u32(&mut body, self.nodes.len() as u32);
        for node in &self.nodes {
            match *node {
                Node::Zero => body.push(0),
                Node::One => body.push(1),
                Node::Atom(s) => {
                    body.push(2);
                    push_u32(&mut body, s);
                }
                Node::Add(l, r) => {
                    body.push(3);
                    push_u32(&mut body, l);
                    push_u32(&mut body, r);
                }
                Node::Mul(l, r) => {
                    body.push(4);
                    push_u32(&mut body, l);
                    push_u32(&mut body, r);
                }
                Node::Star(x) => {
                    body.push(5);
                    push_u32(&mut body, x);
                }
            }
        }
        for verdicts in [&self.nka, &self.ka] {
            push_u32(&mut body, verdicts.len() as u32);
            for &(l, r, v) in verdicts {
                push_u32(&mut body, l);
                push_u32(&mut body, r);
                body.push(u8::from(v));
            }
        }
        push_u32(&mut body, self.certs.len() as u32);
        for cert in &self.certs {
            push_bytes(&mut body, cert.p.as_bytes());
            push_bytes(&mut body, cert.q.as_bytes());
            body.push(u8::from(cert.holds));
            push_u64(&mut body, cert.stats.starfree_hits);
            push_u64(&mut body, cert.stats.prefix_hits);
            push_u64(&mut body, cert.stats.fastpath_fallbacks);
        }
        let mut out = Vec::with_capacity(20 + body.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&fnv1a64(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Writes the snapshot to `path` atomically (temp file + rename in
    /// the same directory), stamped with the current wall-clock time.
    /// Every write gets its own temp file (pid plus a process-wide
    /// sequence number), so concurrent writers — the workers of one
    /// pool dumping on recycle, or several processes — race benignly:
    /// last rename wins, and readers always see a complete file.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] if the temp file cannot be written
    /// or renamed into place.
    fn write_to(&self, path: &Path) -> Result<(), SnapshotError> {
        let created = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let bytes = self.encode(created);
        let mut tmp = path.as_os_str().to_owned();
        let seq = WRITE_SEQ.fetch_add(1, Ordering::Relaxed);
        tmp.push(format!(".tmp.{}.{seq}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, &bytes)?;
        match std::fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(SnapshotError::Io(e))
            }
        }
    }
}

/// Structural facts about a snapshot, for `nka snapshot inspect` and
/// the `--stats` surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotSummary {
    /// The format version the file carries.
    pub version: u32,
    /// When the snapshot was written (unix seconds).
    pub created_unix_secs: u64,
    /// The engine options the entries were computed under.
    pub config: ConfigGuard,
    /// Interned symbol names in the table.
    pub symbols: usize,
    /// Canonical expression nodes in the table.
    pub exprs: usize,
    /// NKA verdict-cache entries.
    pub nka_verdicts: usize,
    /// KA verdict-cache entries.
    pub ka_verdicts: usize,
    /// Analyzer certificate-cache entries.
    pub certs: usize,
}

impl SnapshotSummary {
    /// Total restorable cache entries (verdicts + certs).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.nka_verdicts + self.ka_verdicts + self.certs
    }
}

/// A decoded snapshot in neutral (table-index) form: validated against
/// the format invariants but not yet interned into this process's arena.
#[derive(Debug)]
pub struct Snapshot {
    /// When the snapshot was written (unix seconds).
    pub created_unix_secs: u64,
    /// The engine options the entries were computed under.
    pub config: ConfigGuard,
    symbols: Vec<String>,
    nodes: Vec<Node>,
    nka: Vec<(u32, u32, bool)>,
    ka: Vec<(u32, u32, bool)>,
    certs: Vec<CertEntry>,
}

impl Snapshot {
    /// Decodes and fully validates a snapshot image: magic, version,
    /// checksum, then every structural invariant (tags, UTF-8, index
    /// ranges, the post-order child constraint).
    ///
    /// # Errors
    ///
    /// A typed [`SnapshotError`] naming the first defect found.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            if bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] != MAGIC {
                return Err(SnapshotError::BadMagic);
            }
            return Err(SnapshotError::Truncated);
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let expected = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        let body = &bytes[20..];
        let actual = fnv1a64(body);
        if expected != actual {
            return Err(SnapshotError::ChecksumMismatch { expected, actual });
        }
        let mut cur = Cursor {
            bytes: body,
            pos: 0,
        };
        let created_unix_secs = cur.u64()?;
        let starfree_max_words = cur.u64()?;
        let symbol_count = cur.u32()? as usize;
        let mut symbols = Vec::new();
        for _ in 0..symbol_count {
            let raw = cur.bytes()?;
            let name = std::str::from_utf8(raw)
                .map_err(|_| SnapshotError::Malformed("symbol name is not UTF-8"))?;
            symbols.push(name.to_owned());
        }
        let node_count = cur.u32()? as usize;
        let mut nodes = Vec::new();
        for ix in 0..node_count {
            let child = |i: u32| -> Result<u32, SnapshotError> {
                if (i as usize) < ix {
                    Ok(i)
                } else {
                    Err(SnapshotError::Malformed(
                        "expr child index not below parent",
                    ))
                }
            };
            let node = match cur.u8()? {
                0 => Node::Zero,
                1 => Node::One,
                2 => {
                    let s = cur.u32()?;
                    if s as usize >= symbols.len() {
                        return Err(SnapshotError::Malformed("atom symbol index out of range"));
                    }
                    Node::Atom(s)
                }
                3 => Node::Add(child(cur.u32()?)?, child(cur.u32()?)?),
                4 => Node::Mul(child(cur.u32()?)?, child(cur.u32()?)?),
                5 => Node::Star(child(cur.u32()?)?),
                _ => return Err(SnapshotError::Malformed("unknown expr node tag")),
            };
            nodes.push(node);
        }
        let read_verdicts = |cur: &mut Cursor<'_>| -> Result<Vec<(u32, u32, bool)>, SnapshotError> {
            let count = cur.u32()? as usize;
            let mut out = Vec::new();
            for _ in 0..count {
                let l = cur.u32()?;
                let r = cur.u32()?;
                if l as usize >= nodes.len() || r as usize >= nodes.len() {
                    return Err(SnapshotError::Malformed("verdict expr index out of range"));
                }
                let v = match cur.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(SnapshotError::Malformed("verdict flag out of range")),
                };
                out.push((l, r, v));
            }
            Ok(out)
        };
        let nka = read_verdicts(&mut cur)?;
        let ka = read_verdicts(&mut cur)?;
        let cert_count = cur.u32()? as usize;
        let mut certs = Vec::new();
        for _ in 0..cert_count {
            let p = std::str::from_utf8(cur.bytes()?)
                .map_err(|_| SnapshotError::Malformed("certificate source is not UTF-8"))?
                .to_owned();
            let q = std::str::from_utf8(cur.bytes()?)
                .map_err(|_| SnapshotError::Malformed("certificate source is not UTF-8"))?
                .to_owned();
            let holds = match cur.u8()? {
                0 => false,
                1 => true,
                _ => return Err(SnapshotError::Malformed("certificate flag out of range")),
            };
            let stats = CertificateStats {
                starfree_hits: cur.u64()?,
                prefix_hits: cur.u64()?,
                fastpath_fallbacks: cur.u64()?,
            };
            certs.push(CertEntry { p, q, holds, stats });
        }
        if cur.pos != body.len() {
            return Err(SnapshotError::Malformed(
                "trailing bytes after last section",
            ));
        }
        Ok(Snapshot {
            created_unix_secs,
            config: ConfigGuard { starfree_max_words },
            symbols,
            nodes,
            nka,
            ka,
            certs,
        })
    }

    /// Reads and validates the snapshot at `path`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failure, otherwise whatever
    /// [`Snapshot::decode`] reports.
    pub fn read(path: &Path) -> Result<Snapshot, SnapshotError> {
        let bytes = std::fs::read(path)?;
        Snapshot::decode(&bytes)
    }

    /// Structural facts for `inspect`/`--stats`.
    #[must_use]
    pub fn summary(&self) -> SnapshotSummary {
        SnapshotSummary {
            version: VERSION,
            created_unix_secs: self.created_unix_secs,
            config: self.config,
            symbols: self.symbols.len(),
            exprs: self.nodes.len(),
            nka_verdicts: self.nka.len(),
            ka_verdicts: self.ka.len(),
            certs: self.certs.len(),
        }
    }

    /// Interns every snapshot expression into this process's arena and
    /// resolves the cache entries to real [`Expr`] handles, ready to be
    /// restored into any number of sessions.
    ///
    /// Call this once per process, **outside any
    /// `nka_syntax::ScratchScope`** — inside a scope the rebuilt terms
    /// would intern as scratch and every downstream restore would
    /// (safely) refuse them.
    #[must_use]
    pub fn instantiate(&self) -> LoadedSnapshot {
        let syms: Vec<Symbol> = self.symbols.iter().map(|s| Symbol::intern(s)).collect();
        let mut exprs: Vec<Expr> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let e = match *node {
                Node::Zero => Expr::zero(),
                Node::One => Expr::one(),
                Node::Atom(s) => Expr::atom(syms[s as usize]),
                Node::Add(l, r) => exprs[l as usize].add(&exprs[r as usize]),
                Node::Mul(l, r) => exprs[l as usize].mul(&exprs[r as usize]),
                Node::Star(x) => exprs[x as usize].star(),
            };
            exprs.push(e);
        }
        let resolve = |entries: &[(u32, u32, bool)]| -> Vec<(Expr, Expr, bool)> {
            entries
                .iter()
                .map(|&(l, r, v)| (exprs[l as usize], exprs[r as usize], v))
                .collect()
        };
        LoadedSnapshot {
            created_unix_secs: self.created_unix_secs,
            nka: resolve(&self.nka),
            ka: resolve(&self.ka),
            certs: self.certs.clone(),
        }
    }
}

/// A snapshot instantiated into this process's arena: `Expr` handles are
/// `Copy` indices into the process-global arena, so one `LoadedSnapshot`
/// is cheaply shared (e.g. behind an `Arc`) across a whole worker pool,
/// each worker restoring the entries into its own session.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// When the snapshot was written (unix seconds).
    pub created_unix_secs: u64,
    /// NKA verdict-cache entries.
    pub nka: Vec<(Expr, Expr, bool)>,
    /// KA verdict-cache entries.
    pub ka: Vec<(Expr, Expr, bool)>,
    /// Analyzer certificate-cache entries.
    pub certs: Vec<CertEntry>,
}

impl LoadedSnapshot {
    /// Total restorable cache entries.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.nka.len() + self.ka.len() + self.certs.len()
    }
}

/// The `expect` message of a poisoned union lock.
const UNION_POISONED: &str = "a thread panicked while folding into the snapshot union";

/// The one owner of a `--snapshot FILE` (see the [module docs](self)):
/// it reads the file once, restores the loaded entries into every
/// session it creates, folds sessions into one union seeded with those
/// entries, writes that union back, and counts the file's facts once
/// for the whole pool ([`WarmStart::stats`]). Every cached verdict is
/// an exact decision made under the options the file's [`ConfigGuard`]
/// pins, so the union is as sound as each part.
#[derive(Debug)]
pub struct WarmStart {
    path: PathBuf,
    opts: SessionOptions,
    loaded: Option<LoadedSnapshot>,
    load_warnings: u64,
    union: Mutex<SnapshotBuilder>,
    dumps: AtomicU64,
    dump_failures: AtomicU64,
}

impl WarmStart {
    /// Opens `path` for sessions under `opts`: reads, config-checks and
    /// instantiates it once. A missing file is a first boot; a file that
    /// fails to load prints one warning line, counts one load warning
    /// and starts cold — never a wrong answer. Call it outside any
    /// `nka_syntax::ScratchScope` ([`Snapshot::instantiate`]).
    #[must_use]
    pub fn open(path: &Path, opts: &SessionOptions) -> Arc<WarmStart> {
        if !path.exists() {
            return WarmStart::create(path, opts);
        }
        let guard = ConfigGuard::from_options(&opts.decide);
        let read = Snapshot::read(path).and_then(|snap| {
            (snap.config == guard)
                .then(|| snap.instantiate())
                .ok_or(SnapshotError::ConfigMismatch)
        });
        match read {
            Ok(snap) => {
                eprintln!(
                    "snapshot: restored {} entries from {}",
                    snap.entry_count(),
                    path.display()
                );
                WarmStart::new(path, opts, Some(snap), 0)
            }
            Err(err) => {
                eprintln!(
                    "warning: snapshot {} not restored ({err}); starting cold",
                    path.display()
                );
                WarmStart::new(path, opts, None, 1)
            }
        }
    }

    /// A warm start for `path` that does not read it: its dumps hold
    /// only what its sessions decide (`nka snapshot dump`).
    #[must_use]
    pub fn create(path: &Path, opts: &SessionOptions) -> Arc<WarmStart> {
        WarmStart::new(path, opts, None, 0)
    }

    fn new(
        path: &Path,
        opts: &SessionOptions,
        loaded: Option<LoadedSnapshot>,
        load_warnings: u64,
    ) -> Arc<WarmStart> {
        let mut union = SnapshotBuilder::new(ConfigGuard::from_options(&opts.decide));
        if let Some(snap) = &loaded {
            for (l, r, v) in &snap.nka {
                union.add_nka_verdict(l, r, *v);
            }
            for (l, r, v) in &snap.ka {
                union.add_ka_verdict(l, r, *v);
            }
            for cert in &snap.certs {
                union.add_cert(&cert.p, &cert.q, cert.holds, cert.stats);
            }
        }
        Arc::new(WarmStart {
            path: path.to_owned(),
            opts: opts.clone(),
            loaded,
            load_warnings,
            union: Mutex::new(union),
            dumps: AtomicU64::new(0),
            dump_failures: AtomicU64::new(0),
        })
    }

    /// A session under the options this warm start was opened with,
    /// holding the loaded entries, which it keeps across every engine
    /// recycle. On each recycle the session [absorbs](WarmStart::absorb)
    /// the engine's caches into the union and [dumps](WarmStart::dump).
    #[must_use]
    pub fn session(self: &Arc<WarmStart>) -> Session {
        Session::warm_started(Arc::clone(self), &self.opts, self.loaded.as_ref())
    }

    /// Folds `session`'s exportable state (persistent-keyed verdicts and
    /// analyzer certificates) into the union.
    pub fn absorb(&self, session: &Session) {
        session.export_snapshot_into(&mut self.union.lock().expect(UNION_POISONED));
    }

    /// Writes the union to the file and counts the dump. The lock is
    /// held through the write, so an older union never replaces a newer
    /// one. A failure prints one warning line and is counted; serving
    /// goes on. Returns the number of entries written.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if the file cannot be written.
    pub fn dump(&self) -> Result<usize, SnapshotError> {
        let union = self.union.lock().expect(UNION_POISONED);
        let written = union.write_to(&self.path).map(|()| union.entry_count());
        let counter = match &written {
            Ok(_) => &self.dumps,
            Err(err) => {
                eprintln!(
                    "warning: snapshot dump to {} failed: {err}",
                    self.path.display()
                );
                &self.dump_failures
            }
        };
        counter.fetch_add(1, Ordering::Relaxed);
        written
    }

    /// The file's facts: entries restored, load warnings, dumps and
    /// failed dumps.
    #[must_use]
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            restored_entries: self.loaded.as_ref().map_or(0, |s| s.entry_count() as u64),
            load_warnings: self.load_warnings,
            dumps: self.dumps.load(Ordering::Relaxed),
            dump_failures: self.dump_failures.load(Ordering::Relaxed),
            ..SnapshotStats::default()
        }
    }

    /// When the loaded file was written (unix seconds); `None` if
    /// nothing was loaded.
    #[must_use]
    pub fn created_unix_secs(&self) -> Option<u64> {
        self.loaded.as_ref().map(|s| s.created_unix_secs)
    }
}

/// The current wall-clock time in unix seconds (0 if the clock is
/// before the epoch), shared by the stats surfaces that report
/// snapshot age.
#[must_use]
pub fn now_unix_secs() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// 64-bit FNV-1a over `bytes` — the body checksum. Not cryptographic;
/// it guards against bit rot and torn writes, not adversaries.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    push_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// A bounds-checked little-endian reader over the snapshot body; every
/// overrun is [`SnapshotError::Truncated`].
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        let b = *self.bytes.get(self.pos).ok_or(SnapshotError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let end = self.pos.checked_add(4).ok_or(SnapshotError::Truncated)?;
        let raw = self
            .bytes
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(u32::from_le_bytes(raw.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let end = self.pos.checked_add(8).ok_or(SnapshotError::Truncated)?;
        let raw = self
            .bytes
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(u64::from_le_bytes(raw.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<&[u8], SnapshotError> {
        let len = self.u32()? as usize;
        let end = self.pos.checked_add(len).ok_or(SnapshotError::Truncated)?;
        let raw = self
            .bytes
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard() -> ConfigGuard {
        ConfigGuard::from_options(&DecideOptions::default())
    }

    fn sample_builder() -> SnapshotBuilder {
        let mut b = SnapshotBuilder::new(guard());
        let l: Expr = "(p q)* p".parse().unwrap();
        let r: Expr = "p (q p)*".parse().unwrap();
        b.add_nka_verdict(&l, &r, true);
        b.add_ka_verdict(&l, &r, true);
        b.add_cert(
            "x := 0",
            "x := 0;; skip",
            true,
            CertificateStats {
                starfree_hits: 1,
                prefix_hits: 0,
                fastpath_fallbacks: 0,
            },
        );
        b
    }

    #[test]
    fn round_trip_preserves_every_section() {
        let b = sample_builder();
        let bytes = b.encode(1_700_000_000);
        let snap = Snapshot::decode(&bytes).unwrap();
        let summary = snap.summary();
        assert_eq!(summary.version, VERSION);
        assert_eq!(summary.created_unix_secs, 1_700_000_000);
        assert_eq!(summary.nka_verdicts, 1);
        assert_eq!(summary.ka_verdicts, 1);
        assert_eq!(summary.certs, 1);
        assert_eq!(summary.entry_count(), 3);
        let loaded = snap.instantiate();
        // Hash-consing makes the restored handles canonical: they are
        // *identical* to freshly parsed terms, not merely equal.
        let l: Expr = "(p q)* p".parse().unwrap();
        let r: Expr = "p (q p)*".parse().unwrap();
        let (rl, rr, v) = loaded.nka[0];
        assert!(v);
        let mut restored = [rl.id(), rr.id()];
        let mut fresh = [l.id(), r.id()];
        restored.sort();
        fresh.sort();
        assert_eq!(restored, fresh);
        assert_eq!(loaded.certs[0].p, "x := 0");
        assert!(loaded.certs[0].holds);
    }

    #[test]
    fn duplicate_entries_collapse() {
        let mut b = sample_builder();
        let l: Expr = "(p q)* p".parse().unwrap();
        let r: Expr = "p (q p)*".parse().unwrap();
        b.add_nka_verdict(&l, &r, true);
        b.add_cert("x := 0", "x := 0;; skip", true, CertificateStats::default());
        assert_eq!(b.entry_count(), 3);
    }

    #[test]
    fn scratch_entries_are_refused() {
        let mut b = SnapshotBuilder::new(guard());
        let p: Expr = "p".parse().unwrap();
        {
            let _scope = nka_syntax::ScratchScope::enter();
            let s = p.star().star();
            assert!(s.id().is_scratch());
            b.add_nka_verdict(&s, &s, true);
            b.add_ka_verdict(&s, &p, true);
        }
        assert_eq!(b.entry_count(), 0);
    }

    #[test]
    fn corruption_degrades_to_typed_errors_never_panics() {
        let bytes = sample_builder().encode(42);
        // Zero-length and sub-header files: truncated.
        assert!(matches!(
            Snapshot::decode(&[]),
            Err(SnapshotError::Truncated)
        ));
        assert!(matches!(
            Snapshot::decode(&bytes[..10]),
            Err(SnapshotError::Truncated)
        ));
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            Snapshot::decode(&bad),
            Err(SnapshotError::BadMagic)
        ));
        // Future version.
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Snapshot::decode(&bad),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
        // A body bit-flip trips the checksum.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            Snapshot::decode(&bad),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // Truncation mid-body also trips the checksum first — still a
        // typed error, still cold start.
        assert!(Snapshot::decode(&bytes[..bytes.len() - 4]).is_err());
        // Every byte-level truncation of the file is *some* typed error.
        for cut in 0..bytes.len() {
            assert!(Snapshot::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn config_mismatch_degrades_to_cold() {
        let bytes = sample_builder().encode(42);
        let snap = Snapshot::decode(&bytes).unwrap();
        assert_eq!(snap.config, guard());
        let other = ConfigGuard {
            starfree_max_words: guard().starfree_max_words + 1,
        };
        // A warm start under other options refuses the file wholesale.
        let dir = std::env::temp_dir().join(format!("nka-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("config.snap");
        std::fs::write(&path, &bytes).unwrap();
        let opts = |starfree_max_words| SessionOptions {
            decide: DecideOptions {
                starfree_max_words,
                ..DecideOptions::default()
            },
            ..SessionOptions::default()
        };
        let refused = WarmStart::open(&path, &opts(other.starfree_max_words as usize)).stats();
        assert_eq!((refused.restored_entries, refused.load_warnings), (0, 1));
        let loaded = WarmStart::open(&path, &opts(guard().starfree_max_words as usize)).stats();
        assert_eq!((loaded.restored_entries, loaded.load_warnings), (3, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_to_is_atomic_and_readable() {
        let dir = std::env::temp_dir().join(format!("nka-snap-write-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("warm.snap");
        sample_builder().write_to(&path).unwrap();
        let snap = Snapshot::read(&path).unwrap();
        assert_eq!(snap.summary().entry_count(), 3);
        // No temp droppings left behind.
        let others = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(others, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_to_one_path_never_tear_it() {
        let dir = std::env::temp_dir().join(format!("nka-snap-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shared.snap");
        std::thread::scope(|s| {
            for t in 0..8 {
                let path = &path;
                s.spawn(move || {
                    for i in 0..50 {
                        // A distinct builder per write, so two torn
                        // images could not checksum alike.
                        let mut b = sample_builder();
                        let cert = (t * 50 + i).to_string();
                        b.add_cert(&cert, &cert, true, CertificateStats::default());
                        b.write_to(path).unwrap();
                    }
                });
            }
        });
        let snap = Snapshot::read(&path).expect("the last rename left a valid file");
        assert_eq!(snap.summary().certs, 2);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Counts that promise more than the body holds are a typed error,
    /// and no allocation is sized by them (`u32::MAX` symbol names would
    /// not fit in memory).
    #[test]
    fn absurd_section_counts_are_truncation_not_allocation() {
        let header = |body: &mut Vec<u8>| {
            push_u64(body, 0);
            push_u64(body, guard().starfree_max_words);
        };
        let file = |body: &[u8]| {
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&VERSION.to_le_bytes());
            bytes.extend_from_slice(&fnv1a64(body).to_le_bytes());
            bytes.extend_from_slice(body);
            bytes
        };
        let mut symbols = Vec::new();
        header(&mut symbols);
        push_u32(&mut symbols, u32::MAX);
        let mut verdicts = Vec::new();
        header(&mut verdicts);
        push_u32(&mut verdicts, 0); // symbols
        push_u32(&mut verdicts, 0); // exprs
        push_u32(&mut verdicts, 1_000_000); // NKA verdicts, none present
        for body in [symbols, verdicts] {
            assert!(matches!(
                Snapshot::decode(&file(&body)),
                Err(SnapshotError::Truncated)
            ));
        }
    }

    /// The union a warm start dumps is seeded with the file it loaded:
    /// entries no session re-exports survive, and a restored verdict a
    /// session exports again (in either orientation) is not doubled.
    #[test]
    fn a_warm_start_dumps_the_loaded_entries_and_what_sessions_add() {
        let dir = std::env::temp_dir().join(format!("nka-snap-union-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("union.snap");
        std::fs::write(&path, sample_builder().encode(7)).unwrap();
        let opts = SessionOptions::default();
        let warm = WarmStart::open(&path, &opts);
        assert_eq!(warm.stats().restored_entries, 3);
        assert_eq!(warm.created_unix_secs(), Some(7));
        // A session holding the loaded entries, and one that decided
        // something new on its own.
        warm.absorb(&warm.session());
        let mut other = Session::new();
        let _ = other.run(&crate::api::Query::nka_eq("unionA", "unionB").unwrap());
        warm.absorb(&other);
        assert_eq!(warm.dump().unwrap(), 4);
        assert_eq!(warm.stats().dumps, 1);
        assert_eq!(WarmStart::open(&path, &opts).stats().restored_entries, 4);
        // Dumping to a missing directory fails and is counted.
        let lost = WarmStart::create(&dir.join("missing").join("x.snap"), &opts);
        assert!(lost.dump().is_err());
        assert_eq!((lost.stats().dumps, lost.stats().dump_failures), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_indices_are_rejected() {
        // Hand-craft a body whose expr table violates the post-order
        // child constraint: node 0 is a Star of node 0.
        let mut body = Vec::new();
        push_u64(&mut body, 0); // created
        push_u64(&mut body, 8192); // starfree_max_words
        push_u32(&mut body, 0); // no symbols
        push_u32(&mut body, 1); // one node
        body.push(5); // Star
        push_u32(&mut body, 0); // child = self
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(&body).to_le_bytes());
        bytes.extend_from_slice(&body);
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(SnapshotError::Malformed(_))
        ));
    }
}
