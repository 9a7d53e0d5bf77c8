//! Minimal, deterministic, offline replacement for the `proptest` crate.
//!
//! The build environment has no access to a crates registry, so this
//! in-tree crate provides the subset of proptest's API the workspace
//! actually uses:
//!
//! * the [`proptest!`] macro (with an optional `#![proptest_config(..)]`
//!   inner attribute) wrapping `#[test] fn name(arg in strategy, ..)` items,
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`],
//!   [`prop_assume!`],
//! * [`any`]`::<T>()` for the primitive types used in tests,
//! * integer range strategies (`lo..hi`, `lo..=hi`, `lo..`),
//! * `prop::collection::vec(strategy, len)`.
//!
//! Unlike real proptest there is no shrinking: a failing case panics with
//! the case number and the generator seed, which is enough to replay it
//! (generation is a pure function of the test name and case index).

use std::fmt::Debug;
use std::marker::PhantomData;

/// Number of cases run per property by default (matches proptest).
pub const DEFAULT_CASES: u32 = 256;

/// Run-time configuration for a `proptest!` block.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: DEFAULT_CASES,
        }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Deterministic generator state (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator from a test name (FNV-1a over the name) so each
    /// property gets an independent, reproducible stream.
    pub fn for_test(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng {
            state: h ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Next 128 random bits.
    pub fn next_u128(&mut self) -> u128 {
        ((self.next_u64() as u128) << 64) | self.next_u64() as u128
    }
}

/// A value generator. The shim equivalent of proptest's `Strategy`.
pub trait Strategy {
    /// The type of generated values.
    type Value;
    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

/// Types with a canonical full-range generator (the shim `Arbitrary`).
pub trait Arbitrary: Sized {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u128() as $t
            }
        }
    )+};
}
impl_arbitrary_int!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl<const N: usize> Arbitrary for [u8; N] {
    fn arbitrary(rng: &mut TestRng) -> Self {
        let mut out = [0u8; N];
        for b in out.iter_mut() {
            *b = rng.next_u64() as u8;
        }
        out
    }
}

/// Strategy generating any value of `T` (see [`any`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(PhantomData<T>);

/// The full-range strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Unsigned integer types that can be sampled uniformly from an interval.
pub trait UniformInt: Copy + PartialOrd {
    /// The type's maximum value.
    const MAX: Self;
    /// Lossless widening to u128.
    fn to_u128(self) -> u128;
    /// Narrowing from u128 (caller guarantees the value fits).
    fn from_u128(v: u128) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),+) => {$(
        impl UniformInt for $t {
            const MAX: Self = <$t>::MAX;
            fn to_u128(self) -> u128 {
                self as u128
            }
            fn from_u128(v: u128) -> Self {
                v as $t
            }
        }
    )+};
}
impl_uniform_int!(u8, u16, u32, u64, u128, usize);

/// Uniform sample from `[lo, hi]` (inclusive on both ends).
fn sample_inclusive<T: UniformInt>(rng: &mut TestRng, lo: u128, hi: u128) -> T {
    assert!(lo <= hi, "empty sample interval");
    // The span fits in u128 except for the full-u128 interval, where any
    // draw is in range.
    let span = hi.wrapping_sub(lo);
    if span == u128::MAX {
        return T::from_u128(rng.next_u128());
    }
    T::from_u128(lo.wrapping_add(rng.next_u128() % (span + 1)))
}

impl<T: UniformInt> Strategy for std::ops::Range<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        assert!(self.start < self.end, "empty range strategy");
        sample_inclusive(rng, self.start.to_u128(), self.end.to_u128() - 1)
    }
}

impl<T: UniformInt> Strategy for std::ops::RangeInclusive<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        sample_inclusive(rng, self.start().to_u128(), self.end().to_u128())
    }
}

impl<T: UniformInt> Strategy for std::ops::RangeFrom<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        sample_inclusive(rng, self.start.to_u128(), T::MAX.to_u128())
    }
}

/// `prop::..` namespace mirror.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        pub use crate::collection::vec;
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Strategy producing `Vec`s of a fixed or ranged length.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    /// Lengths accepted by [`vec()`].
    pub trait IntoSizeRange {
        /// Inclusive (min, max) length bounds.
        fn bounds(self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(self) -> (usize, usize) {
            (self, self)
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn bounds(self) -> (usize, usize) {
            (self.start, self.end.saturating_sub(1))
        }
    }

    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn bounds(self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// `prop::collection::vec(element, len)` — a vector strategy.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.max > self.min {
                self.min + (rng.next_u64() as usize) % (self.max - self.min + 1)
            } else {
                self.min
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Asserts a condition inside a `proptest!` body (returns an `Err` that the
/// harness reports with the failing case number).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {}", stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::std::result::Result::Err(format!(
                "assertion failed: `{:?}` != `{:?}` ({} != {})",
                left, right, stringify!($a), stringify!($b)
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::std::result::Result::Err(format!(
                "{} (`{:?}` != `{:?}`)", format!($($fmt)+), left, right
            ));
        }
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if left == right {
            return ::std::result::Result::Err(format!(
                "assertion failed: `{:?}` == `{:?}` ({} == {})",
                left, right, stringify!($a), stringify!($b)
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if left == right {
            return ::std::result::Result::Err(format!(
                "{} (`{:?}` == `{:?}`)", format!($($fmt)+), left, right
            ));
        }
    }};
}

/// Discards the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

/// The property-test wrapper macro. Mirrors proptest's syntax:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///     #[test]
///     fn my_property(x in 0u64..100, flag in any::<bool>()) {
///         prop_assert!(x < 100 || flag);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal item muncher for [`proptest!`]. Not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::for_test(stringify!($name));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let outcome: ::std::result::Result<(), ::std::string::String> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(msg) = outcome {
                    panic!(
                        "property `{}` failed at case {}/{}: {}",
                        stringify!($name), case + 1, config.cases, msg
                    );
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Everything a test file needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Any,
        Arbitrary, ProptestConfig, Strategy, TestRng,
    };
}

// Keep Debug import referenced (used in macro expansions via format!).
#[allow(dead_code)]
fn _debug_used<T: Debug>(_: &T) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::for_test("x");
        let mut b = TestRng::for_test("x");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_test("y");
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn range_strategies_stay_in_bounds() {
        let mut rng = TestRng::for_test("bounds");
        for _ in 0..2000 {
            let v = (10u64..20).generate(&mut rng);
            assert!((10..20).contains(&v));
            let w = (0u8..=255).generate(&mut rng);
            let _ = w;
            let x = (5u32..).generate(&mut rng);
            assert!(x >= 5);
            let y = (2u128..(1 << 126)).generate(&mut rng);
            assert!((2..(1u128 << 126)).contains(&y));
        }
    }

    #[test]
    fn vec_strategy_length() {
        let mut rng = TestRng::for_test("vec");
        let v = collection::vec(any::<bool>(), 8).generate(&mut rng);
        assert_eq!(v.len(), 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn the_macro_itself_works(a in 0u64..1000, b in any::<bool>()) {
            prop_assume!(a != 999);
            prop_assert!(a < 1000);
            if b {
                prop_assert_eq!(a, a);
            } else {
                prop_assert_ne!(a, a + 1);
            }
        }
    }
}
