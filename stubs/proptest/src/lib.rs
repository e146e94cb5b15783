//! Offline stand-in for the `proptest` crate.
//!
//! This workspace builds in environments with no crates.io access, so the
//! subset of proptest it uses is vendored here: the [`strategy::Strategy`]
//! trait with `prop_map`/`boxed`, range / tuple / collection / regex-lite
//! string strategies, [`arbitrary::any`], the [`proptest!`] /
//! [`prop_assert!`] / [`prop_assume!`] / [`prop_oneof!`] macros, and a
//! deterministic [`test_runner::TestRunner`].
//!
//! Differences from upstream, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports the generated input verbatim
//!   instead of minimizing it.
//! * **Deterministic seeding.** Each test's RNG stream is derived from the
//!   test's name, so failures reproduce exactly on re-run; there is no
//!   `PROPTEST_` environment handling and `*.proptest-regressions` files
//!   are ignored.
//! * **String strategies** support only the `[class]{m,n}` pattern shape
//!   (plus plain literals), which is all this workspace uses.

/// Deterministic xoshiro256** generator used by the runner.
#[derive(Clone, Debug)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Builds a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        fn splitmix64(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let mut sm = seed;
        TestRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw from `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128).wrapping_mul(bound as u128) >> 64) as u64
    }

    /// Uniform draw from `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

pub mod test_runner {
    //! The case runner and its configuration / error types.

    use super::strategy::Strategy;
    use super::TestRng;

    /// Per-test configuration; only `cases` is interpreted.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` successful cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum TestCaseError {
        /// The case was rejected by `prop_assume!`; it does not count
        /// toward the required number of cases.
        Reject(String),
        /// The case failed an assertion.
        Fail(String),
    }

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        /// A rejection (assumption not met) with the given message.
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Reject(r) => write!(f, "case rejected: {r}"),
                TestCaseError::Fail(r) => write!(f, "case failed: {r}"),
            }
        }
    }

    /// Result type of one generated case.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Drives a strategy through the configured number of cases.
    pub struct TestRunner {
        config: ProptestConfig,
    }

    impl TestRunner {
        /// Builds a runner with the given config.
        pub fn new(config: ProptestConfig) -> Self {
            TestRunner { config }
        }

        /// Runs `test` on `config.cases` generated inputs, panicking on the
        /// first failure with the offending input. The RNG stream is
        /// derived from `name`, so runs are deterministic per test.
        pub fn run_named<S: Strategy>(
            &mut self,
            name: &str,
            strategy: &S,
            mut test: impl FnMut(S::Value) -> TestCaseResult,
        ) where
            S::Value: std::fmt::Debug,
        {
            let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
            });
            let mut rng = TestRng::seed_from_u64(seed);
            let mut passed = 0u32;
            let mut rejected = 0u32;
            while passed < self.config.cases {
                // Snapshot so a failing input can be regenerated for the
                // report without paying Debug-formatting on every case.
                let snapshot = rng.clone();
                let value = strategy.generate(&mut rng);
                match test(value) {
                    Ok(()) => passed += 1,
                    Err(TestCaseError::Reject(_)) => {
                        rejected += 1;
                        assert!(
                            rejected < self.config.cases.saturating_mul(20).max(1000),
                            "proptest `{name}`: too many rejected cases \
                             ({rejected} rejections before {passed} passes)"
                        );
                    }
                    Err(TestCaseError::Fail(msg)) => {
                        let shown = strategy.generate(&mut snapshot.clone());
                        panic!(
                            "proptest `{name}` failed after {passed} passing case(s): \
                             {msg}\n  input: {shown:?}"
                        );
                    }
                }
            }
        }
    }
}

pub mod strategy {
    //! Strategies: value generators composable with `prop_map`.

    use super::TestRng;

    /// A generator of test-case values, mirroring `proptest::Strategy`
    /// (minus shrinking: `generate` draws a value directly).
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy (needed by [`crate::prop_oneof!`]).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// Object-safe view of [`Strategy`], for [`BoxedStrategy`].
    trait DynStrategy {
        type Value;
        fn generate_dyn(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl<S: Strategy> DynStrategy for S {
        type Value = S::Value;
        fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// A type-erased strategy producing `T`.
    pub struct BoxedStrategy<T>(Box<dyn DynStrategy<Value = T>>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate_dyn(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
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

    /// Uniform choice among type-erased alternatives; built by
    /// [`crate::prop_oneof!`].
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union over `arms`; panics when empty.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.arms.len() as u64) as usize;
            self.arms[idx].generate(rng)
        }
    }

    macro_rules! impl_range_strategy_uint {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u128;
                    let off =
                        ((rng.next_u64() as u128).wrapping_mul(span) >> 64) as $t;
                    self.start + off
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u128 + 1;
                    let off =
                        ((rng.next_u64() as u128).wrapping_mul(span) >> 64) as $t;
                    lo + off
                }
            }
        )*};
    }
    impl_range_strategy_uint!(u8, u16, u32, u64, usize);

    macro_rules! impl_range_strategy_sint {
        ($($t:ty => $u:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = self.end.wrapping_sub(self.start) as $u as u128;
                    let off =
                        ((rng.next_u64() as u128).wrapping_mul(span) >> 64) as $u;
                    self.start.wrapping_add(off as $t)
                }
            }
        )*};
    }
    impl_range_strategy_sint!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+))*) => {$(
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*};
    }
    impl_tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
    }

    /// `&str` patterns as string strategies. Supported shapes: a single
    /// `[class]{m,n}` term (character class with ranges and `\`-escapes,
    /// `{m,n}` / `{m}` repetition) or a plain literal.
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (class, lo, hi) = match parse_class_pattern(self) {
                Some(parsed) => parsed,
                None => return (*self).to_string(),
            };
            let len = lo + rng.below((hi - lo + 1) as u64) as usize;
            (0..len)
                .map(|_| class[rng.below(class.len() as u64) as usize])
                .collect()
        }
    }

    /// Parses `[class]{m,n}` into (alphabet, min_len, max_len).
    fn parse_class_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
        let rest = pat.strip_prefix('[')?;
        let mut chars = rest.chars().peekable();
        let mut class = Vec::new();
        loop {
            let c = chars.next()?;
            match c {
                ']' => break,
                '\\' => class.push(chars.next()?),
                _ => {
                    if chars.peek() == Some(&'-') {
                        let mut look = chars.clone();
                        look.next();
                        match look.peek() {
                            Some(&end) if end != ']' => {
                                chars = look;
                                let end = chars.next()?;
                                for v in c as u32..=end as u32 {
                                    class.push(char::from_u32(v)?);
                                }
                                continue;
                            }
                            _ => {}
                        }
                    }
                    class.push(c);
                }
            }
        }
        if class.is_empty() {
            return None;
        }
        let tail: String = chars.collect();
        if tail.is_empty() {
            return Some((class, 1, 1));
        }
        let counts = tail.strip_prefix('{')?.strip_suffix('}')?;
        let (lo, hi) = match counts.split_once(',') {
            Some((lo, hi)) => (lo.trim().parse().ok()?, hi.trim().parse().ok()?),
            None => {
                let n = counts.trim().parse().ok()?;
                (n, n)
            }
        };
        (lo <= hi).then_some((class, lo, hi))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn class_patterns_parse() {
            let (class, lo, hi) = parse_class_pattern("[a-c,\\\"]{0,8}").unwrap();
            assert_eq!(class, vec!['a', 'b', 'c', ',', '"']);
            assert_eq!((lo, hi), (0, 8));
        }

        #[test]
        fn string_strategy_respects_bounds() {
            let mut rng = TestRng::seed_from_u64(1);
            for _ in 0..200 {
                let s = "[a-z,\"]{0,8}".generate(&mut rng);
                assert!(s.chars().count() <= 8);
                assert!(s
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c == ',' || c == '"'));
            }
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()`: canonical strategies per type.

    use super::strategy::Strategy;
    use super::TestRng;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.unit_f64()
        }
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(std::marker::PhantomData<fn() -> T>);

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
}

pub mod collection {
    //! Collection strategies (`prop::collection::vec`).

    use super::strategy::Strategy;
    use super::TestRng;

    /// A length specification: a fixed size or a range of sizes.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        max_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                min: n,
                max_inclusive: n,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                min: *r.start(),
                max_inclusive: *r.end(),
            }
        }
    }

    /// Generates `Vec`s whose length is drawn from `size` and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_inclusive - self.size.min) as u64 + 1;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! Everything a property test needs, mirroring `proptest::prelude`.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult, TestRunner};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// The `prop::` namespace (`prop::collection::vec`, ...).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Asserts a condition inside a property test, failing the case (not the
/// whole process) so the runner can report the generated input.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Asserts equality inside a property test; see [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: `{:?}` == `{:?}` ({} == {})",
            a, b, stringify!($a), stringify!($b)
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    }};
}

/// Asserts inequality inside a property test; see [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a != *b,
            "assertion failed: `{:?}` != `{:?}` ({} != {})",
            a,
            b,
            stringify!($a),
            stringify!($b)
        );
    }};
}

/// Rejects the current case when the assumption does not hold; rejected
/// cases do not count toward the configured case count.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!{
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            let strategy = ($($strat,)+);
            $crate::test_runner::TestRunner::new(config).run_named(
                stringify!($name),
                &strategy,
                |($($arg,)+)| {
                    $body
                    ::core::result::Result::Ok(())
                },
            );
        }
        $crate::__proptest_tests!{ ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u64..10, y in 1usize..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((1..=4).contains(&y));
        }

        #[test]
        fn maps_and_vecs_compose(
            v in prop::collection::vec((0u32..5).prop_map(|x| x * 2), 0..6),
        ) {
            prop_assert!(v.len() < 6);
            for x in v {
                prop_assert!(x % 2 == 0 && x < 10);
            }
        }

        #[test]
        fn oneof_covers_all_arms(x in prop_oneof![0u32..1, 10u32..11, 20u32..21]) {
            prop_assert!(x == 0 || x == 10 || x == 20);
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    fn runner_is_deterministic_per_name() {
        use crate::strategy::Strategy;
        let strat = 0u64..1_000_000;
        let mut first = Vec::new();
        let mut rng = crate::TestRng::seed_from_u64(1);
        for _ in 0..10 {
            first.push(strat.generate(&mut rng));
        }
        let mut rng = crate::TestRng::seed_from_u64(1);
        let second: Vec<u64> = (0..10).map(|_| strat.generate(&mut rng)).collect();
        assert_eq!(first, second);
    }

    #[test]
    #[should_panic(expected = "proptest `always_fails`")]
    fn failures_panic_with_input() {
        crate::test_runner::TestRunner::new(crate::test_runner::ProptestConfig::with_cases(5))
            .run_named("always_fails", &(0u32..10,), |(_x,)| {
                Err(crate::test_runner::TestCaseError::fail("nope"))
            });
    }
}
