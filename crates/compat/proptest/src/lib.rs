//! Offline stand-in for the `proptest` crate.
//!
//! Supports the subset the workspace's property tests use: the
//! [`proptest!`] macro (with optional `#![proptest_config(..)]`), range
//! and tuple strategies, [`any`], [`collection::vec`], and the
//! `prop_assert!` / `prop_assert_eq!` / `prop_assume!` macros.
//!
//! Differences from the real crate, deliberately accepted:
//!
//! * **no shrinking** — a failing case reports its case number and seed
//!   instead of a minimized input;
//! * inputs are drawn from a per-test deterministic PRNG (seeded by the
//!   test name), so failures reproduce across runs and machines.

// The `proptest!` doc example necessarily shows `#[test]` inside the
// macro invocation — that is the crate's API — so the doctest cannot
// execute it as a test; the macro-expansion tests below cover it.
#![allow(clippy::test_attr_in_doctest)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude::*`.
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
        Strategy, TestCaseError,
    };
}

/// Per-test configuration. Only `cases` is honoured, and the
/// `AWARE_PROPTEST_CASES` environment variable overrides it globally
/// (see [`ProptestConfig::effective_cases`]).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }

    /// The case count after the `AWARE_PROPTEST_CASES` override.
    ///
    /// When the variable is set (CI's deep-props sweep exports 1024),
    /// it replaces every per-test count, so raised runs need no edits
    /// to the suites; unset or unparsable, the configured count
    /// stands.
    pub fn effective_cases(&self) -> u32 {
        std::env::var("AWARE_PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(self.cases)
    }
}

/// Why a property case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// Hard failure: the property is violated.
    Fail(String),
    /// The case was rejected by `prop_assume!` and should be skipped.
    Reject(String),
}

impl TestCaseError {
    /// A hard failure with the given message.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(msg.into())
    }

    /// A skipped (assumption-rejected) case.
    pub fn reject(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Reject(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
        }
    }
}

/// The RNG handed to strategies. Deterministic per test name.
#[derive(Debug, Clone)]
pub struct TestRng(SmallRng);

impl TestRng {
    /// Seeds from an arbitrary string (the test's name).
    pub fn deterministic(name: &str) -> TestRng {
        // FNV-1a over the name: stable across runs, compilers, platforms.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng(SmallRng::seed_from_u64(h))
    }
}

impl rand::RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// A generator of test inputs.
pub trait Strategy {
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f` (the real proptest's
    /// `prop_map`, minus shrinking — this shim never shrinks).
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { strategy: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    strategy: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.strategy.generate(rng))
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(f64, usize, u64, u32, i64, i32);

macro_rules! tuple_strategy {
    ($(($($s:ident/$i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
    (A/0, B/1, C/2, D/3, E/4)
    (A/0, B/1, C/2, D/3, E/4, F/5)
}

/// Strategy for "any value of `T`" (standard distribution).
pub struct Any<T>(std::marker::PhantomData<T>);

/// `any::<T>()` — the canonical whole-type strategy.
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any(std::marker::PhantomData)
}

impl Strategy for Any<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.gen::<bool>()
    }
}

impl Strategy for Any<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        // Finite, sign-symmetric, wide dynamic range.
        let m: f64 = rng.gen_range(-1.0..1.0);
        let e: i32 = rng.gen_range(-64..64);
        m * (2.0f64).powi(e)
    }
}

/// A strategy that always yields a clone of one value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

pub mod collection {
    //! Collection strategies (`vec`).

    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Accepted size specifications for [`vec()`]: a fixed length or a
    /// half-open range of lengths.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "vec strategy: empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Strategy producing `Vec`s of `element` with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// ```
/// use proptest::prelude::*;
///
/// proptest! {
///     #[test]
///     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let cases = config.effective_cases();
                let mut rng = $crate::TestRng::deterministic(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for case in 0..cases {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body; ::std::result::Result::Ok(()) })();
                    match outcome {
                        Ok(()) => {}
                        Err($crate::TestCaseError::Reject(_)) => {}
                        Err($crate::TestCaseError::Fail(msg)) => {
                            panic!(
                                "proptest {} failed at case {}/{}: {}",
                                stringify!($name), case + 1, cases, msg
                            );
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts a condition inside a `proptest!` body (fails the case, not the
/// whole process, so the harness can report the case number).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// `prop_assert!(a == b)` with value reporting.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(l == r, "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// `prop_assert!(a != b)` with value reporting.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(
            l != r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 0.05f64..50.0, n in 1usize..40, b in any::<bool>()) {
            prop_assert!((0.05..50.0).contains(&x));
            prop_assert!((1..40).contains(&n));
            let _ = b;
        }

        #[test]
        fn vectors_respect_size(v in crate::collection::vec(0.0f64..=1.0, 3..40)) {
            prop_assert!((3..40).contains(&v.len()));
            prop_assert!(v.iter().all(|x| (0.0..=1.0).contains(x)));
        }

        #[test]
        fn tuples_and_assume(pair in (0u64..10, 0u64..10)) {
            prop_assume!(pair.0 != pair.1);
            prop_assert_ne!(pair.0, pair.1);
        }
    }

    proptest! {
        #[test]
        fn default_config_works(v in crate::collection::vec(any::<bool>(), 8)) {
            prop_assert_eq!(v.len(), 8);
        }
    }

    #[test]
    fn failures_report_case_number() {
        // A deliberately failing property, run through the same machinery.
        // No #[test] attribute on the inner property: it must not register
        // with the harness, we invoke it by hand.
        let result = std::panic::catch_unwind(|| {
            proptest! {
                fn always_fails(x in 0u64..10) {
                    prop_assert!(x > 100, "x = {} is not > 100", x);
                }
            }
            always_fails();
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("always_fails"), "{msg}");
        assert!(msg.contains("case 1/"), "{msg}");
    }
}
