//! Offline shim for the `proptest` crate.
//!
//! Implements the strategy combinators, assertion macros, and `proptest!`
//! test-runner macro this workspace uses, over a deterministic xoshiro
//! RNG. Differences from real proptest: no shrinking (a failing case
//! reports its generated inputs verbatim) and deterministic seeding, so a
//! failure reproduces by re-running the same test binary.

#![deny(unsafe_code)]

use std::collections::{BTreeSet, HashSet};
use std::fmt::Debug;
use std::hash::Hash;
use std::ops::Range;

/// Deterministic generator driving all strategies.
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seeds deterministically (splitmix64 expansion).
    pub fn new(seed: u64) -> TestRng {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        TestRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next 64 random bits (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw below `bound` (bound > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// How a single generated case failed.
#[derive(Debug)]
pub enum TestCaseError {
    /// Assertion failure with message.
    Fail(String),
    /// Input rejected by `prop_assume!`; the case is retried, not counted.
    Reject,
}

impl TestCaseError {
    /// An assertion failure.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(msg.into())
    }
}

/// A generator of values of `Self::Value`.
///
/// Unlike real proptest there is no intermediate `ValueTree`: strategies
/// produce final values directly and failures are not shrunk.
pub trait Strategy {
    /// The type of generated values.
    type Value: Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: std::rc::Rc::new(self),
        }
    }
}

/// Object-safe view of [`Strategy`] used by [`BoxedStrategy`].
trait DynStrategy<T> {
    fn generate_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A type-erased strategy (cheaply cloneable).
pub struct BoxedStrategy<T> {
    inner: std::rc::Rc<dyn DynStrategy<T>>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> BoxedStrategy<T> {
        BoxedStrategy {
            inner: std::rc::Rc::clone(&self.inner),
        }
    }
}

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.inner.generate_dyn(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Debug + Sized {
    /// Draws a fully random value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u128 {
    fn arbitrary(rng: &mut TestRng) -> u128 {
        (rng.next_u64() as u128) << 64 | rng.next_u64() as u128
    }
}

/// Strategy form of [`Arbitrary`]; see [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for any value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

macro_rules! impl_strategy_for_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
impl_strategy_for_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_strategy_for_tuple {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
impl_strategy_for_tuple!(A.0);
impl_strategy_for_tuple!(A.0, B.1);
impl_strategy_for_tuple!(A.0, B.1, C.2);
impl_strategy_for_tuple!(A.0, B.1, C.2, D.3);
impl_strategy_for_tuple!(A.0, B.1, C.2, D.3, E.4);

/// Weighted union of type-erased strategies (what `prop_oneof!` builds).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T: Debug> Union<T> {
    /// Builds a union; weights must not all be zero.
    pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
        let total: u64 = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof! needs a positive total weight");
        Union { arms, total }
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total);
        for (w, s) in &self.arms {
            if pick < *w as u64 {
                return s.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weighted pick within total")
    }
}

/// Strategy modules mirroring `proptest::prelude::prop`.
pub mod strategies {
    use super::*;

    /// Collection strategies.
    pub mod collection {
        use super::*;

        /// A `Vec` of `len in size` elements from `elem`.
        pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
            VecStrategy { elem, size }
        }

        /// A `HashSet` with size in `size` (best effort when the element
        /// domain is small).
        pub fn hash_set<S>(elem: S, size: Range<usize>) -> HashSetStrategy<S>
        where
            S: Strategy,
            S::Value: Hash + Eq,
        {
            HashSetStrategy { elem, size }
        }

        /// A `BTreeSet` with size in `size` (best effort when the element
        /// domain is small).
        pub fn btree_set<S>(elem: S, size: Range<usize>) -> BTreeSetStrategy<S>
        where
            S: Strategy,
            S::Value: Ord,
        {
            BTreeSetStrategy { elem, size }
        }

        /// See [`vec`].
        pub struct VecStrategy<S> {
            elem: S,
            size: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let len = self.size.generate(rng);
                (0..len).map(|_| self.elem.generate(rng)).collect()
            }
        }

        /// See [`hash_set`].
        pub struct HashSetStrategy<S> {
            elem: S,
            size: Range<usize>,
        }

        impl<S> Strategy for HashSetStrategy<S>
        where
            S: Strategy,
            S::Value: Hash + Eq,
        {
            type Value = HashSet<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> HashSet<S::Value> {
                let target = self.size.generate(rng);
                let mut out = HashSet::new();
                // Bounded attempts: duplicates in a small element domain
                // must not hang generation.
                for _ in 0..target.saturating_mul(10).max(32) {
                    if out.len() >= target {
                        break;
                    }
                    out.insert(self.elem.generate(rng));
                }
                out
            }
        }

        /// See [`btree_set`].
        pub struct BTreeSetStrategy<S> {
            elem: S,
            size: Range<usize>,
        }

        impl<S> Strategy for BTreeSetStrategy<S>
        where
            S: Strategy,
            S::Value: Ord,
        {
            type Value = BTreeSet<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
                let target = self.size.generate(rng);
                let mut out = BTreeSet::new();
                for _ in 0..target.saturating_mul(10).max(32) {
                    if out.len() >= target {
                        break;
                    }
                    out.insert(self.elem.generate(rng));
                }
                out
            }
        }
    }

    /// Option strategies.
    pub mod option {
        use super::*;

        /// `Some` from `inner` ~75% of the time, else `None`.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner }
        }

        /// See [`of`].
        pub struct OptionStrategy<S> {
            inner: S,
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
                if rng.below(4) == 0 {
                    None
                } else {
                    Some(self.inner.generate(rng))
                }
            }
        }
    }

    /// Boolean strategies.
    pub mod bool {
        use super::*;

        /// Either boolean, uniformly.
        #[derive(Clone, Copy, Debug)]
        pub struct AnyBool;

        /// The canonical boolean strategy.
        pub const ANY: AnyBool = AnyBool;

        impl Strategy for AnyBool {
            type Value = ::core::primitive::bool;
            fn generate(&self, rng: &mut TestRng) -> ::core::primitive::bool {
                rng.next_u64() & 1 == 1
            }
        }
    }
}

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of successful cases required.
    pub cases: u32,
    /// Accepted but unused: this shim does not shrink.
    pub max_shrink_iters: u32,
    /// Consecutive `prop_assume!` rejections tolerated before erroring.
    pub max_global_rejects: u32,
}

impl ProptestConfig {
    /// Default config with `cases` successful cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig {
            cases,
            ..ProptestConfig::default()
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 0,
            max_global_rejects: 65536,
        }
    }
}

/// Runs `case` until `config.cases` successes; used by `proptest!`.
///
/// `case` returns the formatted inputs plus the body outcome, with panics
/// already captured so inputs can be reported before resuming the unwind.
pub fn run_proptest<F>(config: &ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> (String, std::thread::Result<Result<(), TestCaseError>>),
{
    let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    });
    let mut successes = 0u32;
    let mut rejects = 0u32;
    let mut case_index = 0u64;
    while successes < config.cases {
        let mut rng = TestRng::new(seed.wrapping_add(case_index));
        case_index += 1;
        let (inputs, outcome) = case(&mut rng);
        match outcome {
            Ok(Ok(())) => successes += 1,
            Ok(Err(TestCaseError::Reject)) => {
                rejects += 1;
                if rejects > config.max_global_rejects {
                    panic!(
                        "proptest {name}: too many prop_assume! rejections \
                         ({rejects}) before reaching {} cases",
                        config.cases
                    );
                }
            }
            Ok(Err(TestCaseError::Fail(msg))) => {
                panic!("proptest {name} failed at case {case_index}:\n  {msg}\n  inputs: {inputs}");
            }
            Err(payload) => {
                eprintln!("proptest {name} panicked at case {case_index}; inputs: {inputs}");
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::strategies as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Defines property tests; see the crate docs for supported syntax.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{ (<$crate::ProptestConfig as ::core::default::Default>::default()) $($rest)* }
    };
}

/// Internal muncher for [`proptest!`]; one test fn per iteration.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            $crate::run_proptest(&__config, stringify!($name), |__rng| {
                $(let $arg = $crate::Strategy::generate(&($strat), __rng);)+
                let __inputs = ::std::format!(
                    concat!($(stringify!($arg), " = {:?}; "),+),
                    $(&$arg),+
                );
                let __outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(
                        || -> ::std::result::Result<(), $crate::TestCaseError> {
                            $body
                            ::std::result::Result::Ok(())
                        }
                    )
                );
                (__inputs, __outcome)
            });
        }
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
}

/// `assert!` that reports the generated inputs on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::TestCaseError::fail(::std::format!($($fmt)*)));
        }
    };
}

/// `assert_eq!` that reports the generated inputs on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(::std::format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), __a, __b
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(::std::format!(
                "{}\n  left: {:?}\n right: {:?}",
                ::std::format!($($fmt)+), __a, __b
            )));
        }
    }};
}

/// `assert_ne!` that reports the generated inputs on failure.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if *__a == *__b {
            return ::std::result::Result::Err($crate::TestCaseError::fail(::std::format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($a),
                stringify!($b),
                __a
            )));
        }
    }};
}

/// Rejects the current case (retried without counting toward `cases`).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Weighted (or unweighted) choice among strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::Union::new_weighted(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new_weighted(vec![
            $((1u32, $crate::Strategy::boxed($strat))),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::new(1);
        for _ in 0..1000 {
            let v = (3u16..9).generate(&mut rng);
            assert!((3..9).contains(&v));
        }
    }

    #[test]
    fn union_respects_weights_roughly() {
        let u = prop_oneof![9 => Just(1u8), 1 => Just(2u8)];
        let mut rng = crate::TestRng::new(2);
        let ones = (0..10_000).filter(|_| u.generate(&mut rng) == 1).count();
        assert!(ones > 8_500, "weight-9 arm drew only {ones}/10000");
    }

    #[test]
    fn collections_hit_requested_sizes() {
        let mut rng = crate::TestRng::new(3);
        for _ in 0..200 {
            let v = prop::collection::vec(any::<u8>(), 2..5).generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            let s = prop::collection::hash_set(any::<u64>(), 3..4).generate(&mut rng);
            assert_eq!(s.len(), 3, "large domain should reach target size");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_macro_itself_works(v in any::<u32>(), flag in prop::bool::ANY) {
            let doubled = v as u64 * 2;
            prop_assert_eq!(doubled / 2, v as u64);
            if flag {
                prop_assert!(doubled.is_multiple_of(2));
            }
        }

        #[test]
        fn assume_rejects_without_failing(v in 0u8..10) {
            prop_assume!(v < 5);
            prop_assert!(v < 5);
        }
    }
}
