//! Minimal, dependency-free shim of the `proptest` API surface this
//! workspace uses.
//!
//! The build must work fully offline, so instead of the real crate we vendor
//! a small property-testing harness with the same spelling: the `proptest!`
//! macro (both `pat in strategy` and `name: Type` argument forms),
//! `prop_assert!`/`prop_assert_eq!`, `prop_oneof!`, `any::<T>()`, range and
//! tuple strategies, `prop_map`, and `proptest::collection::vec`.
//!
//! Differences from upstream: no shrinking (a failing case reports its seed
//! and input by panicking directly), and a fixed case count of
//! [`CASES`] deterministic cases per property seeded from the property name.

#![forbid(unsafe_code)]

/// Number of cases each property runs.
pub const CASES: u32 = 64;

pub mod test_runner {
    /// Deterministic generator handed to strategies. SplitMix64 core.
    pub struct TestRng(u64);

    impl TestRng {
        pub fn new(seed: u64) -> Self {
            TestRng(seed)
        }

        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            // Widening multiply is unbiased enough for test-case generation.
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }

        /// Uniform in `[0, 1)`.
        pub fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Runs `cases` deterministic cases of `f`, seeding each from `name`.
    pub fn run_cases(name: &str, cases: u32, mut f: impl FnMut(&mut TestRng)) {
        // FNV-1a over the property name makes per-property streams distinct.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        for case in 0..cases {
            let mut rng = TestRng::new(h ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            f(&mut rng);
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A value generator. Unlike upstream there is no shrinking, so a
    /// strategy is just "produce a value from a deterministic RNG".
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(move |rng| self.generate(rng)))
        }
    }

    /// Type-erased strategy (a boxed generator closure).
    pub struct BoxedStrategy<T>(Box<dyn Fn(&mut TestRng) -> T>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// `prop_map` adapter.
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice between boxed alternatives (`prop_oneof!`).
    pub struct OneOf<T>(pub Vec<BoxedStrategy<T>>);

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.0.len() as u64) as usize;
            self.0[idx].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    (self.start as u64).wrapping_add(rng.below(span)) as $t
                }
            }
            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start() as u64, *self.end() as u64);
                    assert!(lo <= hi, "empty range strategy");
                    let span = hi - lo;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo.wrapping_add(rng.below(span + 1)) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize);

    impl Strategy for ::std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical "anything goes" strategy.
    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// Strategy produced by [`any`].
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            rng.unit()
        }
    }

    impl<T: Arbitrary> Arbitrary for Vec<T> {
        fn arbitrary(rng: &mut TestRng) -> Vec<T> {
            let len = rng.below(129) as usize;
            (0..len).map(|_| T::arbitrary(rng)).collect()
        }
    }

    impl Arbitrary for String {
        fn arbitrary(rng: &mut TestRng) -> String {
            // Mix of ASCII and multi-byte codepoints to exercise UTF-8 paths.
            let len = rng.below(65) as usize;
            (0..len)
                .map(|_| match rng.below(8) {
                    0 => char::from_u32(0x00A1 + rng.below(0x500) as u32).unwrap_or('ß'),
                    1 => char::from_u32(0x4E00 + rng.below(0x100) as u32).unwrap_or('中'),
                    _ => (b' ' + rng.below(95) as u8) as char,
                })
                .collect()
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for vectors with per-element strategy and length range.
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// `proptest::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let len = self.len.start
                + if span == 0 {
                    0
                } else {
                    rng.below(span) as usize
                };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Strategy};
    pub use crate::test_runner::TestRng;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
    pub use crate::{ProptestConfig, TestCaseError};
}

/// Explicit test-case failure, for bodies that `return Err(..)` instead of
/// asserting. In this shim an `Err` simply panics (no shrinking).
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "test case failed: {}", self.0)
    }
}

/// Per-block configuration (`#![proptest_config(..)]` inside `proptest!`).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Defines `#[test]` functions that run [`CASES`] deterministic cases.
///
/// Supports both upstream argument forms:
/// `fn p(x in 0u8..4, v in vec(any::<u8>(), 0..9)) { .. }` and
/// `fn p(data: Vec<u8>) { .. }` (sugar for `data in any::<Vec<u8>>()`),
/// plus an optional leading `#![proptest_config(ProptestConfig::..)]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)]
     $($(#[$meta:meta])* fn $name:ident($($args:tt)*) $body:block)*) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                let __pt_cases = ($config).cases;
                $crate::test_runner::run_cases(stringify!($name), __pt_cases, |__pt_rng| {
                    $crate::__proptest_bind!(__pt_rng, $($args)*);
                    #[allow(clippy::redundant_closure_call)]
                    let __pt_result: ::std::result::Result<(), $crate::TestCaseError> =
                        (move || {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = __pt_result {
                        panic!("{e}");
                    }
                });
            }
        )*
    };
    ($($(#[$meta:meta])* fn $name:ident($($args:tt)*) $body:block)*) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                $crate::test_runner::run_cases(stringify!($name), $crate::CASES, |__pt_rng| {
                    $crate::__proptest_bind!(__pt_rng, $($args)*);
                    #[allow(clippy::redundant_closure_call)]
                    let __pt_result: ::std::result::Result<(), $crate::TestCaseError> =
                        (move || {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = __pt_result {
                        panic!("{e}");
                    }
                });
            }
        )*
    };
}

/// Internal: binds one `proptest!` argument list entry per recursion step.
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_bind {
    ($rng:ident $(,)?) => {};
    ($rng:ident, $name:ident: $ty:ty $(, $($rest:tt)*)?) => {
        let $name: $ty = $crate::arbitrary::Arbitrary::arbitrary($rng);
        $crate::__proptest_bind!($rng $(, $($rest)*)?);
    };
    ($rng:ident, $pat:pat in $strat:expr) => {
        let $pat = $crate::strategy::Strategy::generate(&($strat), $rng);
    };
    ($rng:ident, $pat:pat in $strat:expr, $($rest:tt)*) => {
        let $pat = $crate::strategy::Strategy::generate(&($strat), $rng);
        $crate::__proptest_bind!($rng, $($rest)*);
    };
}

/// Like `assert!` (no shrinking in this shim, so failure just panics).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Like `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        fn shim_ranges_and_tuples((a, b) in (0u8..4, 10u64..20), n in 1usize..5) {
            prop_assert!(a < 4);
            prop_assert!((10..20).contains(&b));
            prop_assert!((1..5).contains(&n));
        }

        fn shim_typed_args(data: Vec<u8>, s: String, v: u64) {
            prop_assert!(data.len() <= 128);
            let _ = (s.len(), v);
        }

        fn shim_collections_and_oneof(
            ops in crate::collection::vec(
                prop_oneof![
                    (0u8..3).prop_map(|x| x as u32),
                    any::<u8>().prop_map(|x| 100 + x as u32),
                ],
                1..50,
            )
        ) {
            prop_assert!(!ops.is_empty() && ops.len() < 50);
            for op in ops {
                prop_assert!(op < 3 || (100..356).contains(&op));
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = vec![];
        let mut b = vec![];
        crate::test_runner::run_cases("x", 4, |rng| a.push(rng.next_u64()));
        crate::test_runner::run_cases("x", 4, |rng| b.push(rng.next_u64()));
        assert_eq!(a, b);
    }
}
