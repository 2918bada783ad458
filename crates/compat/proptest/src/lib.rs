//! Offline, dependency-free stand-in for the `proptest` crate.
//!
//! Supports the subset the workspace's property tests use: the `proptest!`
//! macro over functions whose arguments are drawn from range strategies or
//! `proptest::collection::vec`, plus `prop_assert!`, `prop_assert_eq!` and
//! `prop_assume!`. Each test runs [`num_cases`] deterministic random cases
//! (seeded from the test name; [`NUM_CASES`] unless the `PROPTEST_CASES`
//! environment variable overrides it, as upstream honours); failing inputs
//! are reported via panic but not shrunk.

use rand::rngs::StdRng;
use rand::{Rng, SampleUniform, SeedableRng};

/// Cases generated per property test. Upstream defaults to 256; 64 keeps the
/// suite fast while still exercising each property across ranks and bounds.
pub const NUM_CASES: usize = 64;

/// Cases each property runs: `PROPTEST_CASES` when set to a positive
/// integer (CI uses it to run a suite deep), else [`NUM_CASES`].
pub fn num_cases() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(NUM_CASES)
}

/// A property may reject (via `prop_assume!`) at most this many times
/// [`num_cases`] before the test fails — the analogue of upstream's
/// `max_global_rejects` guard against vacuously-passing properties.
pub const MAX_REJECT_FACTOR: usize = 16;

/// Outcome of one generated case: rejected by `prop_assume!`, failed by a
/// `prop_assert!`, or passed.
#[derive(Debug)]
pub enum TestCaseError {
    Reject,
    Fail(String),
}

impl TestCaseError {
    pub fn fail(msg: String) -> Self {
        TestCaseError::Fail(msg)
    }
}

/// Deterministic per-test RNG. Mirrors `proptest::test_runner::TestRng` only
/// in spirit: the seed is an FNV-1a hash of the test name, so runs are
/// reproducible without any persistence files.
pub struct TestRng(StdRng);

impl TestRng {
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng(StdRng::seed_from_u64(h))
    }
}

/// A generator of random values. Mirror of `proptest::strategy::Strategy`,
/// minus shrinking.
pub trait Strategy {
    type Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

impl<T: SampleUniform + Copy> Strategy for core::ops::Range<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        rng.0.gen_range(self.start..self.end)
    }
}

impl<T: SampleUniform + Copy> Strategy for core::ops::RangeInclusive<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        rng.0.gen_range(*self.start()..=*self.end())
    }
}

pub mod collection {
    use super::{Strategy, TestRng};

    /// Mirror of `proptest::collection::vec`: element strategy + length range.
    pub fn vec<S: Strategy, L: Strategy<Value = usize>>(
        element: S,
        length: L,
    ) -> VecStrategy<S, L> {
        VecStrategy { element, length }
    }

    pub struct VecStrategy<S, L> {
        element: S,
        length: L,
    }

    impl<S: Strategy, L: Strategy<Value = usize>> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.length.generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod strategy {
    pub use crate::Strategy;
}

pub mod test_runner {
    pub use crate::TestRng;
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
    pub use crate::{Strategy, TestCaseError, TestRng};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {
        match (&$left, &$right) {
            (left, right) => {
                $crate::prop_assert!(
                    *left == *right,
                    "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                    stringify!($left),
                    stringify!($right),
                    left,
                    right
                );
            }
        }
    };
}

/// Mirror of `proptest::proptest!`: each `#[test] fn name(arg in strategy, …)`
/// becomes a plain `#[test]` running [`num_cases`] generated cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut rng = $crate::TestRng::deterministic(stringify!($name));
                // `prop_assume!` rejections are retried rather than counted
                // against the case budget (as upstream does), so filtered
                // properties still run num_cases() effective cases; a
                // property that rejects nearly everything fails loudly
                // instead of passing vacuously.
                let cases = $crate::num_cases();
                let mut case = 0usize;
                let mut attempts = 0usize;
                while case < cases {
                    attempts += 1;
                    assert!(
                        attempts <= cases * $crate::MAX_REJECT_FACTOR,
                        "property `{}` rejected too many inputs via prop_assume! \
                         ({} accepted out of {} attempts)",
                        stringify!($name),
                        case,
                        attempts - 1,
                    );
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    let result: ::core::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::core::result::Result::Ok(()) })();
                    match result {
                        ::core::result::Result::Ok(()) => case += 1,
                        ::core::result::Result::Err($crate::TestCaseError::Reject) => continue,
                        ::core::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                            panic!(
                                concat!(
                                    "property `", stringify!($name),
                                    "` failed at case {}/{}:\n{}\ninputs:"
                                    $(, "\n  ", stringify!($arg), " = {:?}")+
                                ),
                                case + 1,
                                cases,
                                msg
                                $(, $arg)+
                            );
                        }
                    }
                }
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(
            x in -3.0f32..3.0,
            n in 1usize..=10,
            v in collection::vec(0i32..100, 2..5),
        ) {
            prop_assert!((-3.0..3.0).contains(&x));
            prop_assert!((1..=10).contains(&n));
            prop_assert!(v.len() >= 2 && v.len() < 5);
            prop_assert!(v.iter().all(|&e| (0..100).contains(&e)));
        }
    }

    proptest! {
        #[test]
        fn assume_rejects_without_failing(a in 0u32..10) {
            prop_assume!(a % 2 == 0);
            prop_assert_eq!(a % 2, 0);
        }
    }

    #[test]
    fn assume_rejections_do_not_consume_the_case_budget() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static ACCEPTED: AtomicUsize = AtomicUsize::new(0);
        proptest! {
            fn heavily_filtered(a in 0u32..100) {
                prop_assume!(a < 10); // ~10% acceptance rate
                ACCEPTED.fetch_add(1, Ordering::Relaxed);
                prop_assert!(a < 10);
            }
        }
        ACCEPTED.store(0, Ordering::Relaxed);
        heavily_filtered();
        assert_eq!(ACCEPTED.load(Ordering::Relaxed), crate::num_cases());
    }

    #[test]
    #[should_panic(expected = "rejected too many inputs")]
    fn always_rejecting_property_fails_instead_of_passing_vacuously() {
        proptest! {
            fn rejects_everything(a in 0u32..100) {
                prop_assume!(a > 100);
                let _ = a;
            }
        }
        rejects_everything();
    }

    #[test]
    #[should_panic(expected = "property `always_fails` failed")]
    fn failures_panic_with_context() {
        proptest! {
            #[allow(unreachable_code)]
            fn always_fails(x in 0u32..2) {
                prop_assert!(x > 100, "x={} is never > 100", x);
            }
        }
        always_fails();
    }
}
