//! Interned alphabet symbols.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned symbol of the alphabet Σ.
///
/// Symbols are process-global: interning the same name twice yields the same
/// symbol, so expressions built in different modules of a verification task
/// share their alphabet, exactly as the paper's encoder settings assume
/// (Definition 4.4 requires `E` to be injective, which global interning
/// gives for free).
///
/// # Examples
///
/// ```
/// use nka_syntax::Symbol;
/// let m0 = Symbol::intern("m0");
/// assert_eq!(m0, Symbol::intern("m0"));
/// assert_eq!(m0.name(), "m0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    names: Vec<String>,
    ids: HashMap<String, u32>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            names: Vec::new(),
            ids: HashMap::new(),
        })
    })
}

impl Symbol {
    /// Interns `name`, returning its unique symbol.
    ///
    /// # Panics
    ///
    /// Panics if the process-global interner mutex is poisoned (only
    /// possible after a panic while interning on another thread).
    pub fn intern(name: &str) -> Symbol {
        let mut table = interner().lock().expect("symbol interner poisoned");
        if let Some(&id) = table.ids.get(name) {
            return Symbol(id);
        }
        let id = u32::try_from(table.names.len()).expect("symbol table overflow");
        table.names.push(name.to_owned());
        table.ids.insert(name.to_owned(), id);
        Symbol(id)
    }

    /// The interned name.
    pub fn name(&self) -> String {
        let table = interner().lock().expect("symbol interner poisoned");
        table.names[self.0 as usize].clone()
    }

    /// A dense, process-unique numeric id (useful as an array index).
    pub fn id(&self) -> u32 {
        self.0
    }

    /// Number of distinct names interned process-wide. Monotone: the
    /// symbol table is append-only (unlike the expression arena it has
    /// no scratch region), so this is the observability surface for
    /// its growth under distinct-name traffic — soak-tested and
    /// bounded in `tests/arena_soak.rs`.
    pub fn interned_count() -> usize {
        interner()
            .lock()
            .expect("symbol interner poisoned")
            .names
            .len()
    }

    /// Total bytes of interned name text, counting both copies the
    /// table holds (the id→name vector and the name→id map key). A
    /// lower bound on the table's heap footprint — map/vec overhead
    /// adds a small constant per name on top.
    pub fn interned_bytes() -> usize {
        let table = interner().lock().expect("symbol interner poisoned");
        2 * table.names.iter().map(String::len).sum::<usize>()
    }
}

impl fmt::Display for Symbol {
    /// Writes the name straight from the interner, without copying it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let table = interner().lock().expect("symbol interner poisoned");
        f.write_str(&table.names[self.0 as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("interning_test_a");
        let b = Symbol::intern("interning_test_b");
        assert_ne!(a, b);
        assert_eq!(a, Symbol::intern("interning_test_a"));
        assert_eq!(a.name(), "interning_test_a");
    }

    #[test]
    fn ordering_is_total() {
        let a = Symbol::intern("order_x");
        let b = Symbol::intern("order_y");
        assert!(a < b || b < a);
    }
}
