//! Offline stand-in for `proptest`: the strategy/macro surface this
//! workspace uses, implemented as deterministic random *sampling*. Each
//! `proptest!` test draws `ProptestConfig::cases` inputs from its
//! strategies (seeded by the test name, so runs are reproducible) and
//! fails with the first counterexample found. There is no shrinking —
//! a failing case is reported as drawn.

#![forbid(unsafe_code)]

pub mod test_runner {
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    /// Per-test tunables. Only the fields this workspace sets exist.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to draw per test.
        pub cases: u32,
        /// Accepted for compatibility; sampling never shrinks.
        pub max_shrink_iters: u32,
        /// Accepted for compatibility; this runner never forks.
        pub fork: bool,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 256,
                max_shrink_iters: 1024,
                fork: false,
            }
        }
    }

    impl ProptestConfig {
        /// A config overriding just the case count.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig {
                cases,
                ..Default::default()
            }
        }
    }

    /// A failed property: carries the formatted assertion message.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Build a failure from a message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Deterministic generator used to draw strategy samples.
    pub struct TestRng(SmallRng);

    impl TestRng {
        /// Seed from a test name and case index (FNV-1a over the name, so
        /// the stream is stable across runs and independent of std's
        /// randomized hashers).
        pub fn for_case(name: &str, case: u64) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1_0000_0000_01b3);
            }
            TestRng(SmallRng::seed_from_u64(
                h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ))
        }
    }

    impl RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use rand::{RngExt, SampleUniform};
    use std::fmt::Debug;
    use std::ops::Range;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value: Debug;

        /// Draw one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Post-process generated values with `f`.
        fn prop_map<U: Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + Debug>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The [`Strategy::prop_map`] adapter.
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U: Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn sample(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    impl<T: SampleUniform + Copy + Debug> Strategy for Range<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            rng.random_range(self.start..self.end)
        }
    }

    /// Full-domain generation (the `any::<T>()` strategies).
    pub trait ArbitraryValue: Debug + Sized {
        /// Draw from every representable value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary {
        ($($t:ty),*) => {$(
            impl ArbitraryValue for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.random()
                }
            }
        )*};
    }
    impl_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, f64);

    /// Strategy over the whole domain of `T`.
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    /// Uniform draw over all values of `T`.
    pub fn any<T: ArbitraryValue>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    impl<T: ArbitraryValue> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);

    /// One `prop_oneof!` arm: a weight and a type-erased sampler.
    pub type UnionArm<T> = (u32, Box<dyn Fn(&mut TestRng) -> T>);

    /// Weighted choice between same-valued strategies (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<UnionArm<T>>,
        total: u32,
    }

    impl<T> Union<T> {
        /// Build from `(weight, sampler)` arms. Panics if empty or all-zero.
        pub fn new(arms: Vec<UnionArm<T>>) -> Self {
            let total: u32 = arms.iter().map(|(w, _)| *w).sum();
            assert!(total > 0, "prop_oneof! needs at least one positive weight");
            Union { arms, total }
        }
    }

    /// One `prop_oneof!` arm: erase the strategy type behind a sampler
    /// closure so heterogeneous arms unify on their value type.
    pub fn union_arm<S: Strategy + 'static>(weight: u32, strategy: S) -> UnionArm<S::Value> {
        (weight, Box::new(move |rng| strategy.sample(rng)))
    }

    impl<T: Debug> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.random_range(0u32..self.total);
            for (w, f) in &self.arms {
                if pick < *w {
                    return f(rng);
                }
                pick -= w;
            }
            unreachable!("weights sum to total")
        }
    }

    /// String generation from a tiny regex subset: sequences of literal
    /// characters and `[class]` atoms, each optionally quantified with
    /// `{n}` or `{m,n}`. Covers the patterns used in this workspace
    /// (e.g. `"[a-z0-9_.]{1,40}"`).
    impl Strategy for &str {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            let chars: Vec<char> = self.chars().collect();
            let mut out = String::new();
            let mut i = 0;
            while i < chars.len() {
                // One atom: a char class or a literal.
                let alphabet: Vec<char> = if chars[i] == '[' {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == ']')
                        .expect("unclosed [class] in strategy regex")
                        + i;
                    let mut set = Vec::new();
                    let mut j = i + 1;
                    while j < close {
                        if j + 2 < close && chars[j + 1] == '-' {
                            let (lo, hi) = (chars[j] as u32, chars[j + 2] as u32);
                            set.extend((lo..=hi).filter_map(char::from_u32));
                            j += 3;
                        } else {
                            set.push(chars[j]);
                            j += 1;
                        }
                    }
                    i = close + 1;
                    set
                } else {
                    let c = chars[i];
                    i += 1;
                    vec![c]
                };
                // Optional {n} / {m,n} quantifier.
                let (lo, hi) = if i < chars.len() && chars[i] == '{' {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == '}')
                        .expect("unclosed {quantifier} in strategy regex")
                        + i;
                    let body: String = chars[i + 1..close].iter().collect();
                    i = close + 1;
                    match body.split_once(',') {
                        Some((m, n)) => (m.parse().unwrap(), n.parse().unwrap()),
                        None => {
                            let n: usize = body.parse().unwrap();
                            (n, n)
                        }
                    }
                } else {
                    (1, 1)
                };
                let count = if lo == hi {
                    lo
                } else {
                    rng.random_range(lo..hi + 1)
                };
                for _ in 0..count {
                    out.push(alphabet[rng.random_range(0..alphabet.len())]);
                }
            }
            out
        }
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::RngExt;
    use std::ops::Range;

    /// Strategy for vectors with lengths drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generate `Vec`s of `element` values with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.random_range(self.size.start..self.size.end);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// `Option` strategies.
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::RngExt;

    /// Strategy yielding `None` a quarter of the time.
    pub struct OptionStrategy<S>(S);

    /// Generate `Option`s of `inner` values.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.random_bool(0.25) {
                None
            } else {
                Some(self.0.sample(rng))
            }
        }
    }
}

/// The glob-importable surface, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Assert inside a `proptest!` body; failure aborts the current case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(*l == *r, "assertion failed: {:?} != {:?}", l, r);
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l == *r,
                    "assertion failed: {:?} != {:?}: {}",
                    l,
                    r,
                    format!($($fmt)+)
                );
            }
        }
    };
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(*l != *r, "assertion failed: {:?} == {:?}", l, r);
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l != *r,
                    "assertion failed: {:?} == {:?}: {}",
                    l,
                    r,
                    format!($($fmt)+)
                );
            }
        }
    };
}

/// Weighted choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::union_arm($weight as u32, $strat)),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strat),+]
    };
}

/// Define property tests: each `fn` is expanded into a `#[test]` that
/// draws `cases` random inputs and runs the body per draw.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($p:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            for case in 0..u64::from(config.cases) {
                let mut rng = $crate::test_runner::TestRng::for_case(stringify!($name), case);
                $(let $p = $crate::strategy::Strategy::sample(&($strat), &mut rng);)+
                let outcome = (move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!("property failed at case {}/{}: {}", case + 1, config.cases, e);
                }
            }
        }
        $crate::__proptest_impl!(($cfg) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_tuples(x in 0u32..10, (a, b) in (0u8..5, any::<bool>())) {
            prop_assert!(x < 10);
            prop_assert!(a < 5);
            let _ = b;
        }

        #[test]
        fn vec_and_map(mut v in crate::collection::vec(any::<u8>(), 1..20)) {
            v.sort_unstable();
            prop_assert!(!v.is_empty() && v.len() < 20);
        }

        #[test]
        fn regex_strings(name in "[a-z0-9_.]{1,40}") {
            prop_assert!(!name.is_empty() && name.len() <= 40);
            prop_assert!(name.chars().all(|c| c.is_ascii_lowercase()
                || c.is_ascii_digit() || c == '_' || c == '.'));
        }

        #[test]
        fn oneof_weights(v in prop_oneof![3 => Just(1u8), 1 => 10u8..20]) {
            prop_assert!(v == 1 || (10..20).contains(&v));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::{any, Strategy};
        let mut a = crate::test_runner::TestRng::for_case("t", 0);
        let mut b = crate::test_runner::TestRng::for_case("t", 0);
        assert_eq!(any::<u64>().sample(&mut a), any::<u64>().sample(&mut b));
    }
}
