//! Minimal, offline stand-in for the external `proptest` crate.
//!
//! The build environment has no network access, so the workspace cannot
//! pull the real `proptest` from a registry. This crate implements the
//! exact surface our property tests use — [`Strategy`] over ranges,
//! tuples, [`prop_map`](Strategy::prop_map) and
//! [`collection::vec`](fn@collection::vec), the [`proptest!`] macro in both
//! block and closure form, [`prop_assert!`]/[`prop_assert_eq!`], and
//! [`ProptestConfig::with_cases`] — driven by the workspace's
//! deterministic [`sllt_rng`] generators.
//!
//! Differences from the real crate, by design:
//!
//! * **no shrinking** — a failing case reports its case index and seed
//!   instead of a minimized input;
//! * **deterministic** — cases replay identically on every run (the
//!   per-case seed is derived from [`ProptestConfig::seed`]);
//! * far fewer strategies — add impls here as tests need them.
//!
//! Property tests are feature-gated (`--features proptest` on the crates
//! that carry them) so the tier-1 suite stays lean; see `DESIGN.md`.

pub use sllt_rng::{SeedableRng, SplitMix64, StdRng};

/// Test-runner configuration (the subset of the real crate's fields we
/// use).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
    /// Base seed; each case derives its own generator from it.
    pub seed: u64,
}

impl ProptestConfig {
    /// A config running `cases` cases with the default seed.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..ProptestConfig::default()
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 64,
            seed: 0x5117_CA5E,
        }
    }
}

/// Derives the deterministic generator seed for one case.
#[doc(hidden)]
pub fn case_seed(base: u64, case: u32) -> u64 {
    SplitMix64::new(base ^ u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// A source of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f` (the only combinator our tests
    /// use).
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

impl<T> Strategy for std::ops::Range<T>
where
    std::ops::Range<T>: sllt_rng::SampleRange<T> + Clone,
{
    type Value = T;

    fn sample(&self, rng: &mut StdRng) -> T {
        sllt_rng::Rng::random_range(rng, self.clone())
    }
}

impl<T> Strategy for std::ops::RangeInclusive<T>
where
    std::ops::RangeInclusive<T>: sllt_rng::SampleRange<T> + Clone,
{
    type Value = T;

    fn sample(&self, rng: &mut StdRng) -> T {
        sllt_rng::Rng::random_range(rng, self.clone())
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);

pub mod collection {
    //! Collection strategies.

    use super::{StdRng, Strategy};

    /// A `Vec` of `element` samples with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// See [`vec`](fn@vec).
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = sllt_rng::Rng::random_range(rng, self.size.clone());
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Property-test entry point: block form declaring `#[test]` functions,
/// or closure form run inline.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!($cfg; $($rest)*);
    };
    (|($($p:pat in $s:expr),+ $(,)?)| $body:block) => {
        $crate::__proptest_run!($crate::ProptestConfig::default(); $($p in $s),+; $body)
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!($crate::ProptestConfig::default(); $($rest)*);
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_fns {
    ($cfg:expr; $($(#[$attr:meta])* fn $name:ident($($p:pat in $s:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$attr])*
            fn $name() {
                $crate::__proptest_run!($cfg; $($p in $s),+; $body);
            }
        )*
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_run {
    ($cfg:expr; $($p:pat in $s:expr),+; $body:block) => {{
        let __config: $crate::ProptestConfig = $cfg;
        let __strategies = ($($s,)+);
        for __case in 0..__config.cases {
            let __seed = $crate::case_seed(__config.seed, __case);
            let mut __rng =
                <$crate::StdRng as $crate::SeedableRng>::seed_from_u64(__seed);
            let ($($p,)+) = $crate::Strategy::sample(&__strategies, &mut __rng);
            let __guard = $crate::CaseGuard::new(__case, __seed);
            // Bodies may `return Ok(())` to skip a case (real proptest
            // runs them in a `Result`-returning closure); mirror that.
            #[allow(clippy::redundant_closure_call)]
            let __outcome: ::std::result::Result<(), ::std::string::String> = (|| {
                $body
                #[allow(unreachable_code)]
                Ok(())
            })();
            if let Err(__msg) = __outcome {
                panic!("property rejected: {__msg}");
            }
            __guard.disarm();
        }
    }};
}

/// Names the failing case when a property panics (stand-in for the real
/// crate's shrink report).
#[doc(hidden)]
pub struct CaseGuard {
    case: u32,
    seed: u64,
    armed: bool,
}

impl CaseGuard {
    #[doc(hidden)]
    pub fn new(case: u32, seed: u64) -> Self {
        CaseGuard {
            case,
            seed,
            armed: true,
        }
    }

    #[doc(hidden)]
    pub fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if self.armed {
            eprintln!(
                "proptest: property failed at case {} (rng seed {:#x})",
                self.case, self.seed
            );
        }
    }
}

/// `assert!` under a property (no shrinking, so a plain assert).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` under a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

pub mod prelude {
    //! Everything a `use proptest::prelude::*;` site needs.
    pub use crate::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (f64, f64)> {
        (0.0f64..1.0, 0.0f64..1.0).prop_map(|(a, b)| (a.min(b), a.max(b)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_maps_compose(x in 1usize..10, (lo, hi) in arb_pair()) {
            prop_assert!((1..10).contains(&x));
            prop_assert!(lo <= hi);
        }
    }

    #[test]
    fn closure_form_and_vec_strategy() {
        proptest!(|(v in crate::collection::vec(0.1f64..2.0, 1..20))| {
            prop_assert!(!v.is_empty() && v.len() < 20);
            prop_assert!(v.iter().all(|&x| (0.1..2.0).contains(&x)));
        });
    }

    #[test]
    fn cases_are_deterministic() {
        let s = 0.0f64..1.0;
        let mut first = Vec::new();
        proptest!(|(x in s.clone())| { first.push(x); });
        let mut second = Vec::new();
        proptest!(|(x in s)| { second.push(x); });
        prop_assert_eq!(first, second);
    }
}
