//! Offline subset of `proptest`: deterministic seeded random-case
//! testing with the strategy combinators this workspace uses.
//!
//! Differences from upstream (acceptable for an offline build): no
//! shrinking — a failing case panics with the generated inputs left to
//! the assertion message; the RNG stream is derived from the test's
//! module path, so runs are reproducible but do not match upstream
//! proptest's sequences.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::ops::Range;

pub mod collection;
pub mod prelude;

/// The RNG handed to strategies.
pub type TestRng = StdRng;

/// Deterministic per-test RNG, seeded from the test's full path.
pub fn test_rng(test_name: &str) -> TestRng {
    let mut h = DefaultHasher::new();
    test_name.hash(&mut h);
    StdRng::seed_from_u64(h.finish())
}

/// Runner configuration (`cases` = number of generated inputs per test).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test body runs against.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 48 }
    }
}

/// A generator of random values.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> MapStrategy<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        MapStrategy { inner: self, f }
    }

    /// Transform generated values, rejecting those mapped to `None`.
    /// `whence` names the filter in the panic raised if rejection never
    /// terminates.
    fn prop_filter_map<O, F>(self, whence: &'static str, f: F) -> FilterMapStrategy<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> Option<O>,
    {
        FilterMapStrategy {
            inner: self,
            whence,
            f,
        }
    }
}

/// See [`Strategy::prop_map`].
pub struct MapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for MapStrategy<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_filter_map`].
pub struct FilterMapStrategy<S, F> {
    inner: S,
    whence: &'static str,
    f: F,
}

impl<S, O, F> Strategy for FilterMapStrategy<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> Option<O>,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        for _ in 0..10_000 {
            if let Some(v) = (self.f)(self.inner.generate(rng)) {
                return v;
            }
        }
        panic!(
            "prop_filter_map `{}` rejected 10000 draws in a row",
            self.whence
        );
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Define property tests: each `fn name(arg in strategy, ...)` body runs
/// against `cases` random draws (panicking assertions report failures).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@items ($cfg); $($rest)*);
    };
    (@items ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
            for _case in 0..cfg.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)*
                $body
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@items ($crate::ProptestConfig::default()); $($rest)*);
    };
}

/// Assert a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = test_rng("ranges_respect_bounds");
        for _ in 0..200 {
            let v = (3u32..17).generate(&mut rng);
            assert!((3..17).contains(&v));
            let f = (-2.0f64..4.5).generate(&mut rng);
            assert!((-2.0..4.5).contains(&f));
        }
    }

    #[test]
    fn combinators_compose() {
        let mut rng = test_rng("combinators_compose");
        let s = (1u32..10, 1u32..10)
            .prop_filter_map("distinct", |(a, b)| (a != b).then_some((a, b)))
            .prop_map(|(a, b)| a + b);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((3..=17).contains(&v));
        }
    }

    #[test]
    fn same_name_same_stream() {
        let mut a = test_rng("x");
        let mut b = test_rng("x");
        let va: Vec<u32> = (0..8).map(|_| (0u32..1000).generate(&mut a)).collect();
        let vb: Vec<u32> = (0..8).map(|_| (0u32..1000).generate(&mut b)).collect();
        assert_eq!(va, vb);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_binds_and_loops(n in 1u32..50, xs in crate::collection::vec(0.0f64..1.0, 1..6)) {
            prop_assert!(n >= 1 && n < 50);
            prop_assert!(!xs.is_empty() && xs.len() < 6);
            for x in xs {
                prop_assert!((0.0..1.0).contains(&x));
            }
        }
    }

    proptest! {
        #[test]
        fn macro_default_config(pair in (0u8..4, 0u8..4)) {
            prop_assert!(pair.0 < 4);
            prop_assert_eq!(pair.1 < 4, true);
        }
    }
}
