//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this crate
//! reimplements the subset of proptest the workspace's property tests
//! use: the [`Strategy`] trait, `any::<T>()`, ranges, [`Just`],
//! `prop_oneof!`, `prop::collection::{vec, btree_set}`, simple
//! regex-literal string strategies, `.prop_map`, and the `proptest!` /
//! `prop_assert*` / `prop_assume!` macros.
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case reports its generated inputs and
//!   panics; it does not minimize them.
//! * **Deterministic.** Cases derive from a fixed seed, so a given test
//!   binary always explores the same inputs (the right trade-off for an
//!   offline CI with no failure-persistence file).
//! * `PROPTEST_CASES` overrides the case count, like the real crate.

use std::ops::{Range, RangeInclusive};

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The RNG driving generation.
pub type TestRng = ChaCha8Rng;

/// How many rejected draws (`prop_assume!`) a test may see before it
/// fails: upstream's default.
pub const MAX_GLOBAL_REJECTS: u32 = 1024;

/// Run-time configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }

    /// The effective case count, honoring `PROPTEST_CASES`.
    pub fn effective_cases(&self) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(self.cases)
    }
}

/// A generator of test values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }

    /// Regenerate until `f` accepts the value (bounded retries).
    fn prop_filter<F>(self, _whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { inner: self, f }
    }

    /// Erase the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// `.prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// `.prop_filter` adapter.
pub struct Filter<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter rejected 1000 consecutive candidates");
    }
}

/// Always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Tuples of strategies generate tuples of values (field order).
macro_rules! impl_tuple_strategy {
    ($($s:ident => $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(S0 => 0);
impl_tuple_strategy!(S0 => 0, S1 => 1);
impl_tuple_strategy!(S0 => 0, S1 => 1, S2 => 2);
impl_tuple_strategy!(S0 => 0, S1 => 1, S2 => 2, S3 => 3);
impl_tuple_strategy!(S0 => 0, S1 => 1, S2 => 2, S3 => 3, S4 => 4);
impl_tuple_strategy!(S0 => 0, S1 => 1, S2 => 2, S3 => 3, S4 => 4, S5 => 5);

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

/// Types with a whole-domain default strategy ([`any`]).
pub trait Arbitrary: Sized {
    /// Generate an unconstrained value.
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
impl_arbitrary_int!(u8, u16, u32, u64, i8, i16, i32, i64, usize, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    /// All bit patterns — including NaNs, infinities, and subnormals —
    /// matching the spirit of proptest's `any::<f64>()`.
    fn arbitrary(rng: &mut TestRng) -> f64 {
        f64::from_bits(rng.next_u64())
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        f32::from_bits(rng.next_u32())
    }
}

/// The `any::<T>()` strategy.
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// Whole-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Uniform choice among boxed alternatives (`prop_oneof!`).
pub struct Union<T> {
    variants: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Build from the alternatives (at least one).
    pub fn new(variants: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!variants.is_empty(), "prop_oneof! needs at least one arm");
        Union { variants }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.gen_range(0..self.variants.len());
        self.variants[i].generate(rng)
    }
}

/// Sizes accepted by the collection strategies.
pub trait SizeRange {
    /// Draw a concrete size.
    fn pick(&self, rng: &mut TestRng) -> usize;
}

impl SizeRange for usize {
    fn pick(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

impl SizeRange for Range<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        if self.is_empty() {
            self.start
        } else {
            rng.gen_range(self.clone())
        }
    }
}

impl SizeRange for RangeInclusive<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        rng.gen_range(self.clone())
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{SizeRange, Strategy, TestRng};
    use std::collections::BTreeSet;

    /// `Vec` of values from `element`, sized by `size`.
    pub fn vec<S: Strategy, Z: SizeRange>(element: S, size: Z) -> VecStrategy<S, Z> {
        VecStrategy { element, size }
    }

    /// `Vec` strategy (see [`vec()`]).
    pub struct VecStrategy<S, Z> {
        element: S,
        size: Z,
    }

    impl<S: Strategy, Z: SizeRange> Strategy for VecStrategy<S, Z> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `BTreeSet` of values from `element`; `size` bounds the target
    /// cardinality (duplicates are retried a bounded number of times).
    pub fn btree_set<S, Z>(element: S, size: Z) -> BTreeSetStrategy<S, Z>
    where
        S: Strategy,
        S::Value: Ord,
        Z: SizeRange,
    {
        BTreeSetStrategy { element, size }
    }

    /// `BTreeSet` strategy (see [`btree_set`]).
    pub struct BTreeSetStrategy<S, Z> {
        element: S,
        size: Z,
    }

    impl<S, Z> Strategy for BTreeSetStrategy<S, Z>
    where
        S: Strategy,
        S::Value: Ord,
        Z: SizeRange,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let n = self.size.pick(rng);
            let mut out = BTreeSet::new();
            let mut attempts = 0;
            while out.len() < n && attempts < n * 10 + 100 {
                out.insert(self.element.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

/// The `prop::` facade module (`prop::collection::vec(...)`).
/// `Option` strategies (`prop::option::of`).
pub mod option {
    use super::{Strategy, TestRng};

    /// Yields `None` about a quarter of the time, `Some` otherwise
    /// (proptest's default weighting).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// `Option` strategy (see [`of`]).
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            use rand::Rng;
            if rng.gen_range(0u32..4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

pub mod prop {
    pub use crate::collection;
    pub use crate::option;
}

// ---------------------------------------------------------------------------
// Regex-literal string strategies.
// ---------------------------------------------------------------------------

/// One regex atom with its repetition range.
#[derive(Debug, Clone)]
enum PatternPiece {
    /// Candidate characters (expanded char class).
    Class {
        chars: Vec<char>,
        min: usize,
        max: usize,
    },
}

fn parse_pattern(pattern: &str) -> Vec<PatternPiece> {
    let mut pieces = Vec::new();
    let mut chars = pattern.chars().peekable();
    while let Some(c) = chars.next() {
        let class: Vec<char> = match c {
            '\\' => match chars.next() {
                // `\PC`: proptest's "any printable char"; ASCII
                // printable is a faithful-enough subset for fuzzing
                // parsers offline.
                Some('P') => {
                    if chars.peek() == Some(&'C') {
                        chars.next();
                    }
                    (' '..='~').collect()
                }
                Some('d') => ('0'..='9').collect(),
                Some(other) => vec![other],
                None => panic!("trailing backslash in pattern {pattern:?}"),
            },
            '[' => {
                let mut cls = Vec::new();
                let mut prev: Option<char> = None;
                loop {
                    match chars.next() {
                        None => panic!("unterminated char class in {pattern:?}"),
                        Some(']') => break,
                        Some('\\') => {
                            let e = chars.next().expect("escape in class");
                            cls.push(e);
                            prev = Some(e);
                        }
                        Some('-') if prev.is_some() && chars.peek() != Some(&']') => {
                            let lo = prev.take().expect("range start");
                            let hi = chars.next().expect("range end");
                            // `lo` is already in `cls`; add the rest.
                            let mut x = lo;
                            while x < hi {
                                x = char::from_u32(x as u32 + 1).expect("char range");
                                cls.push(x);
                            }
                        }
                        Some(ch) => {
                            cls.push(ch);
                            prev = Some(ch);
                        }
                    }
                }
                cls
            }
            lit => vec![lit],
        };
        // Optional repetition suffix.
        let (min, max) = match chars.peek() {
            Some('{') => {
                chars.next();
                let mut spec = String::new();
                for ch in chars.by_ref() {
                    if ch == '}' {
                        break;
                    }
                    spec.push(ch);
                }
                match spec.split_once(',') {
                    Some((lo, hi)) => (
                        lo.trim().parse().expect("repetition lower bound"),
                        hi.trim().parse().expect("repetition upper bound"),
                    ),
                    None => {
                        let n = spec.trim().parse().expect("repetition count");
                        (n, n)
                    }
                }
            }
            Some('*') => {
                chars.next();
                (0, 32)
            }
            Some('+') => {
                chars.next();
                (1, 32)
            }
            Some('?') => {
                chars.next();
                (0, 1)
            }
            _ => (1, 1),
        };
        pieces.push(PatternPiece::Class {
            chars: class,
            min,
            max,
        });
    }
    pieces
}

/// String literals act as generation patterns, as in real proptest:
/// `"[a-z]{1,5}"` yields matching strings.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for piece in parse_pattern(self) {
            let PatternPiece::Class { chars, min, max } = piece;
            let n = if min == max {
                min
            } else {
                rng.gen_range(min..=max)
            };
            for _ in 0..n {
                if chars.is_empty() {
                    continue;
                }
                out.push(chars[rng.gen_range(0..chars.len())]);
            }
        }
        out
    }
}

/// Build the deterministic RNG for one test function.
pub fn test_rng(test_name: &str) -> TestRng {
    // FNV-1a over the test name: distinct tests explore distinct
    // streams while staying reproducible run over run.
    let mut h = 0xcbf29ce484222325u64;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    TestRng::seed_from_u64(h)
}

/// Everything a property test needs, in one import.
pub mod prelude {
    pub use crate::{
        any, collection, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume,
        prop_oneof, proptest, Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy,
        TestCaseError, TestCaseResult,
    };
}

/// A property-test failure (mirrors proptest's type so helper
/// functions can return `Result<(), TestCaseError>` and compose with
/// `?` inside test bodies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The property did not hold.
    Fail(String),
    /// The input should not count as a case (`prop_assume!`): the
    /// runner draws again, and fails the test once
    /// [`MAX_GLOBAL_REJECTS`] draws have been rejected.
    Reject(String),
}

impl TestCaseError {
    /// A failed property.
    pub fn fail(reason: impl Into<String>) -> Self {
        TestCaseError::Fail(reason.into())
    }

    /// A rejected input.
    pub fn reject(reason: impl Into<String>) -> Self {
        TestCaseError::Reject(reason.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(r) => write!(f, "property failed: {r}"),
            TestCaseError::Reject(r) => write!(f, "input rejected: {r}"),
        }
    }
}

/// Shorthand for the result type property-test helpers return.
pub type TestCaseResult = Result<(), TestCaseError>;

// ---------------------------------------------------------------------------
// Macros.
// ---------------------------------------------------------------------------

/// Assert inside a property test: an early `Err` return, so helpers
/// returning [`TestCaseResult`] can compose with `?` (no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Assert equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} == {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: {:?} == {:?}: {}", a, b, format!($($fmt)*)
        );
    }};
}

/// Assert inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} != {:?}", a, b);
    }};
}

/// Reject the current draw unless `cond` holds: an early
/// [`TestCaseError::Reject`] return, so the draw does not count as a
/// case.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        $crate::prop_assume!($cond, concat!("assumption failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(format!($($fmt)*)));
        }
    };
}

/// Uniform choice among strategies with one common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($s)),+])
    };
}

/// Define property tests (see crate docs for the supported subset).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
                let __cases = __config.effective_cases();
                let mut __case = 0;
                let mut __rejects = 0;
                while __case < __cases {
                    // Values are generated into a tuple and formatted
                    // *before* destructuring, because a `pat_param`
                    // capture cannot be re-used in expression position.
                    let __vals = (
                        $($crate::Strategy::generate(&$strat, &mut __rng),)+
                    );
                    let __inputs = format!("{:?}", __vals);
                    // The body runs inside a Result-returning closure
                    // so `prop_assert!` (an early Err return) and `?`
                    // on TestCaseResult helpers both work, and inside
                    // catch_unwind so plain assert!/panics are also
                    // reported with their inputs.
                    let __outcome = std::panic::catch_unwind(
                        std::panic::AssertUnwindSafe(move || -> $crate::TestCaseResult {
                            let ($($arg,)+) = __vals;
                            $body
                            Ok(())
                        })
                    );
                    let __report = || eprintln!(
                        "proptest {} failed at case {}/{} with inputs: {}",
                        stringify!($name), __case + 1, __cases, __inputs
                    );
                    match __outcome {
                        Ok(Ok(())) => __case += 1,
                        Ok(Err($crate::TestCaseError::Reject(_))) => {
                            __rejects += 1;
                            if __rejects >= $crate::MAX_GLOBAL_REJECTS {
                                panic!(
                                    "proptest {}: {} draws rejected (the limit) after {}/{} cases",
                                    stringify!($name), __rejects, __case, __cases
                                );
                            }
                        }
                        Ok(Err(e)) => {
                            __report();
                            panic!("{e}");
                        }
                        Err(e) => {
                            __report();
                            std::panic::resume_unwind(e);
                        }
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Color {
        Red,
        Blue,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in 3usize..10, y in -1.0..1.0f64) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-1.0..1.0).contains(&y));
        }

        #[test]
        fn vec_sizes_respected(v in prop::collection::vec(any::<u64>(), 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
        }

        #[test]
        fn oneof_and_map(c in prop_oneof![Just(Color::Red), Just(Color::Blue)],
                         s in (0u64..5).prop_map(|v| v * 2)) {
            prop_assert!(c == Color::Red || c == Color::Blue);
            prop_assert_eq!(s % 2, 0);
        }

        #[test]
        fn string_patterns_match(s in "[a-c]{2,4}", t in "\\PC{0,10}") {
            prop_assert!(s.len() >= 2 && s.len() <= 4);
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
            prop_assert!(t.len() <= 10);
            prop_assert!(t.chars().all(|c| (' '..='~').contains(&c)));
        }
    }

    #[test]
    fn rejected_draws_do_not_count_as_cases() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static DRAWN: AtomicU32 = AtomicU32::new(0);
        static ACCEPTED: AtomicU32 = AtomicU32::new(0);
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            fn evens_only(x in 0u64..1000) {
                DRAWN.fetch_add(1, Ordering::Relaxed);
                prop_assume!(x % 2 == 0);
                ACCEPTED.fetch_add(1, Ordering::Relaxed);
            }
        }
        evens_only();
        let cases = ProptestConfig::with_cases(32).effective_cases();
        assert_eq!(ACCEPTED.load(Ordering::Relaxed), cases);
        assert!(
            DRAWN.load(Ordering::Relaxed) > cases,
            "odd draws were drawn again"
        );
    }

    #[test]
    #[should_panic(expected = "1024 draws rejected")]
    fn rejecting_every_draw_fails_at_the_limit() {
        proptest! {
            fn never(x in 0u64..10) {
                prop_assume!(x > 10);
            }
        }
        never();
    }

    #[test]
    fn btree_set_sizes() {
        let mut rng = crate::test_rng("btree");
        let s = collection::btree_set(0u64..1000, 5usize);
        let v = crate::Strategy::generate(&s, &mut rng);
        assert_eq!(v.len(), 5);
    }
}
