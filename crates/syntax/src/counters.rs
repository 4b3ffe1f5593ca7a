//! One declarative table for the cumulative counters the stats surfaces
//! report.
//!
//! A stats struct is declared once through
//! [`counter_table!`](crate::counter_table!); the macro emits the struct
//! exactly as written and derives its counter surface:
//!
//! * `merged` — the field-wise combination of two workers' counters
//!   (saturating add);
//! * `delta_since` — the field-wise activity since an earlier snapshot
//!   (saturating subtract);
//! * `is_zero` — whether nothing was counted;
//! * `fields()` — every plain `u64` counter as `(name, value)`, in
//!   declaration order, in a fixed-size array (no allocation), so a
//!   renderer can emit every counter section from one function.
//!
//! Each field type says how it combines through [`Counter`]: `u64` is a
//! plain counter, `[u64; N]` and `Vec<u64>` are counted element-wise,
//! and every table struct is itself a [`Counter`], so tables nest.
//! Adding a counter is one line in its table.
//!
//! # Examples
//!
//! ```
//! nka_syntax::counter_table! {
//!     /// Queries seen by a toy cache.
//!     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
//!     pub struct CacheStats {
//!         /// Lookups answered from the cache.
//!         pub hits: u64,
//!         /// Lookups that had to compute.
//!         pub misses: u64,
//!     }
//! }
//!
//! let a = CacheStats { hits: 3, misses: 1 };
//! let b = CacheStats { hits: 2, misses: 0 };
//! assert_eq!(a.merged(&b), CacheStats { hits: 5, misses: 1 });
//! assert_eq!(a.delta_since(&b).hits, 1);
//! assert_eq!(a.fields(), [("hits", 3), ("misses", 1)]);
//! assert!(CacheStats::default().is_zero());
//! ```

/// A value a [`counter_table!`](crate::counter_table!) field can hold:
/// how two workers' values combine, how activity between two snapshots
/// is taken, and whether it is one plain counter listed by the table's
/// `fields()`.
pub trait Counter {
    /// Whether this is one plain `u64` counter (listed by `fields()`).
    const SCALAR: bool = false;

    /// The combination of two workers' values.
    #[must_use]
    fn merged(&self, other: &Self) -> Self;

    /// The activity between `earlier` and `self`, two snapshots of the
    /// same monotone counters; saturates at zero if they are swapped.
    #[must_use]
    fn delta_since(&self, earlier: &Self) -> Self;

    /// Whether nothing was counted.
    fn is_zero(&self) -> bool;

    /// The value of a [`Counter::SCALAR`] counter; `0` for the others.
    fn scalar(&self) -> u64 {
        0
    }
}

impl Counter for u64 {
    const SCALAR: bool = true;

    fn merged(&self, other: &Self) -> Self {
        self.saturating_add(*other)
    }

    fn delta_since(&self, earlier: &Self) -> Self {
        self.saturating_sub(*earlier)
    }

    fn is_zero(&self) -> bool {
        *self == 0
    }

    fn scalar(&self) -> u64 {
        *self
    }
}

/// Counters bucketed by a fixed index (a pass, a rule), element-wise.
impl<const N: usize> Counter for [u64; N] {
    fn merged(&self, other: &Self) -> Self {
        std::array::from_fn(|i| self[i].merged(&other[i]))
    }

    fn delta_since(&self, earlier: &Self) -> Self {
        std::array::from_fn(|i| self[i].delta_since(&earlier[i]))
    }

    fn is_zero(&self) -> bool {
        self.iter().all(|&n| n == 0)
    }
}

/// Counters bucketed by a growable index (a worker), element-wise; the
/// shorter side counts as zero past its end.
impl Counter for Vec<u64> {
    fn merged(&self, other: &Self) -> Self {
        let len = self.len().max(other.len());
        let at = |v: &Vec<u64>, i: usize| v.get(i).copied().unwrap_or(0);
        (0..len)
            .map(|i| at(self, i).merged(&at(other, i)))
            .collect()
    }

    fn delta_since(&self, earlier: &Self) -> Self {
        let at = |i: usize| earlier.get(i).copied().unwrap_or(0);
        self.iter()
            .enumerate()
            .map(|(i, n)| n.delta_since(&at(i)))
            .collect()
    }

    fn is_zero(&self) -> bool {
        self.iter().all(|&n| n == 0)
    }
}

/// Declares a stats struct once and derives its counter surface; see
/// the [module docs](crate::counters).
///
/// Every field is `$(#[doc])* pub name: Type,` where `Type` is a
/// [`Counter`]. The struct gets inherent
/// `merged`, `delta_since`, `is_zero` and `fields`, a `FIELDS` constant
/// (the length of `fields()`), and a [`Counter`] impl so it can nest in
/// another table.
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                $field_vis:vis $field:ident : $ty:ty
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $(
                $(#[$field_meta])*
                $field_vis $field: $ty,
            )*
        }

        impl $name {
            /// The number of plain `u64` counters, i.e. the length of
            /// [`Self::fields`].
            pub const FIELDS: usize =
                0 $(+ <$ty as $crate::counters::Counter>::SCALAR as usize)*;

            /// The field-wise combination `self + other` (saturating),
            /// for folding per-query deltas or per-worker totals.
            #[must_use]
            pub fn merged(&self, other: &$name) -> $name {
                $name {
                    $($field: $crate::counters::Counter::merged(&self.$field, &other.$field),)*
                }
            }

            /// The field-wise activity `self - earlier` between two
            /// snapshots of the same counters (saturating at zero).
            #[must_use]
            pub fn delta_since(&self, earlier: &$name) -> $name {
                $name {
                    $($field: $crate::counters::Counter::delta_since(&self.$field, &earlier.$field),)*
                }
            }

            /// Whether every counter is zero (nothing counted yet).
            #[must_use]
            pub fn is_zero(&self) -> bool {
                true $(&& $crate::counters::Counter::is_zero(&self.$field))*
            }

            /// Every plain `u64` counter as `(name, value)`, in
            /// declaration order.
            #[must_use]
            #[allow(unused_assignments)]
            pub fn fields(&self) -> [(&'static str, u64); $name::FIELDS] {
                let mut out = [("", 0); $name::FIELDS];
                let mut at = 0;
                $(
                    if <$ty as $crate::counters::Counter>::SCALAR {
                        out[at] = (
                            stringify!($field),
                            $crate::counters::Counter::scalar(&self.$field),
                        );
                        at += 1;
                    }
                )*
                out
            }
        }

        impl $crate::counters::Counter for $name {
            fn merged(&self, other: &Self) -> Self {
                $name::merged(self, other)
            }

            fn delta_since(&self, earlier: &Self) -> Self {
                $name::delta_since(self, earlier)
            }

            fn is_zero(&self) -> bool {
                $name::is_zero(self)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::Counter;

    crate::counter_table! {
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        struct Inner {
            a: u64,
            buckets: [u64; 2],
            b: u64,
        }
    }

    crate::counter_table! {
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        struct Outer {
            inner: Inner,
            shared: u64,
            per_worker: Vec<u64>,
            c: u64,
        }
    }

    #[test]
    fn fields_list_the_plain_counters_in_declaration_order() {
        let inner = Inner {
            a: 1,
            buckets: [7, 8],
            b: 2,
        };
        assert_eq!(Inner::FIELDS, 2);
        assert_eq!(inner.fields(), [("a", 1), ("b", 2)]);
        let outer = Outer {
            inner,
            shared: 4,
            c: 3,
            ..Outer::default()
        };
        assert_eq!(outer.fields(), [("shared", 4), ("c", 3)]);
    }

    #[test]
    fn merge_and_delta_are_field_wise_and_saturating() {
        let x = Outer {
            inner: Inner {
                a: u64::MAX,
                buckets: [1, 2],
                b: 5,
            },
            shared: 9,
            per_worker: vec![1],
            c: 1,
        };
        let y = Outer {
            inner: Inner {
                a: 1,
                buckets: [3, 4],
                b: 7,
            },
            shared: 6,
            per_worker: vec![2, 5],
            c: 2,
        };
        let m = x.merged(&y);
        assert_eq!(m.inner.a, u64::MAX, "saturating add");
        assert_eq!(m.inner.buckets, [4, 6]);
        assert_eq!(m.inner.b, 12);
        assert_eq!(m.shared, 15);
        assert_eq!(m.per_worker, vec![3, 5]);
        assert_eq!(m.c, 3);
        let d = x.delta_since(&y);
        assert_eq!(d.inner.b, 0, "saturating subtract");
        assert_eq!(d.inner.a, u64::MAX - 1);
        assert_eq!(d.c, 0);
        assert!(!x.is_zero() && Outer::default().is_zero());
        assert!(Counter::is_zero(&Inner::default()));
    }
}
