//! Offline stand-in for `proptest`.
//!
//! Deterministic property testing with the subset of the proptest API this
//! workspace uses: the [`strategy::Strategy`] trait with `prop_map`, integer
//! range / tuple / `Just` / `bool::ANY` / collection strategies, `prop_oneof!`,
//! the `proptest!` test macro with optional `#![proptest_config(...)]`, and
//! the `prop_assert*` macros.
//!
//! Unlike real proptest there is no shrinking: a failing case panics with the
//! generated inputs so it can be reproduced (generation is fully deterministic
//! — seeds derive from the test's module path, name, and case index, so runs
//! are stable across processes and thread counts).

pub mod strategy;

pub mod arbitrary {
    //! `any::<T>()` — the default strategy behind the `name: Type` argument
    //! shorthand in `proptest!`.

    use crate::strategy::Strategy;
    use crate::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary {
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

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Uniform in [0, 1): always finite, which is what property tests
            // here actually want from an arbitrary float.
            rng.unit_f64()
        }
    }

    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }
}

pub mod collection {
    //! `prop::collection` — sized container strategies.

    use crate::strategy::Strategy;
    use crate::TestRng;
    use std::collections::BTreeMap;
    use std::ops::Range;

    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    /// A `Vec` strategy: `size` elements drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.usize_in(self.size.clone());
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }

    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: Range<usize>,
    }

    /// A `BTreeMap` strategy: up to `size` entries (key collisions collapse,
    /// as in real proptest).
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: Range<usize>,
    ) -> BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        BTreeMapStrategy { key, value, size }
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.usize_in(self.size.clone());
            let mut map = BTreeMap::new();
            for _ in 0..len {
                map.insert(self.key.generate(rng), self.value.generate(rng));
            }
            map
        }
    }
}

pub mod bool {
    //! `prop::bool` — uniform boolean strategy.

    use crate::strategy::Strategy;
    use crate::TestRng;

    pub struct Any;

    /// Uniform `true`/`false`.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude::*`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        ProptestConfig, TestCaseError,
    };

    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
    }
}

/// Per-test configuration. Only `cases` is honoured; as in the published
/// crate, the environment's `PROPTEST_CASES` replaces the default of 256
/// (an explicit `with_cases` wins).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256);
        ProptestConfig { cases }
    }
}

/// A test-case failure (from `prop_assert*`) or rejection (from `prop_assume!`).
#[derive(Debug, Clone)]
pub enum TestCaseError {
    Fail(String),
    Reject(String),
}

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "assertion failed: {m}"),
            TestCaseError::Reject(m) => write!(f, "input rejected: {m}"),
        }
    }
}

/// Deterministic generator RNG (splitmix64). Seeded from the test identity and
/// case index so every run of the suite sees identical inputs.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn for_case(module: &str, test: &str, case: u64) -> Self {
        // FNV-1a over the test identity, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in module.bytes().chain([b':', b':']).chain(test.bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng {
            state: h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        // splitmix64
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)` (`bound > 0`), via 128-bit multiply.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    pub fn usize_in(&mut self, range: std::ops::Range<usize>) -> usize {
        if range.is_empty() {
            return range.start;
        }
        range.start + self.below((range.end - range.start) as u64) as usize
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{} == {} ({:?} vs {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{} ({:?} vs {:?})",
                format!($($fmt)*),
                l,
                r
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{} != {} (both {:?})",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::boxed($arm)),+])
    };
}

/// The test macro. Mirrors real proptest's surface: an optional
/// `#![proptest_config(...)]` header, then test functions whose arguments
/// are either `pat in strategy` or the `name: Type` shorthand (which draws
/// from [`arbitrary::any`]). Write `#[test]` on each function, as with real
/// proptest.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Splits the block into individual functions and hands each to the
/// argument muncher.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($args:tt)* ) $body:block
      $($rest:tt)*
    ) => {
        $crate::__proptest_fn! { ($cfg) $(#[$meta])* fn $name [] [] ( $($args)* ) $body }
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
}

/// Argument muncher: folds `pat in strategy` / `name: Type` arguments into
/// parallel pattern and strategy lists, then emits the test function.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fn {
    // `name: Type` shorthand, more args follow (or trailing comma).
    ( ($cfg:expr) $(#[$meta:meta])* fn $name:ident
      [ $($pats:tt)* ] [ $($strats:tt)* ]
      ( $p:ident : $t:ty, $($rest:tt)* ) $body:block
    ) => {
        $crate::__proptest_fn! { ($cfg) $(#[$meta])* fn $name
            [ $($pats)* ($p) ] [ $($strats)* ($crate::arbitrary::any::<$t>()) ]
            ( $($rest)* ) $body }
    };
    // `name: Type` shorthand, final argument.
    ( ($cfg:expr) $(#[$meta:meta])* fn $name:ident
      [ $($pats:tt)* ] [ $($strats:tt)* ]
      ( $p:ident : $t:ty ) $body:block
    ) => {
        $crate::__proptest_fn! { ($cfg) $(#[$meta])* fn $name
            [ $($pats)* ($p) ] [ $($strats)* ($crate::arbitrary::any::<$t>()) ]
            ( ) $body }
    };
    // `pat in strategy`, more args follow (or trailing comma).
    ( ($cfg:expr) $(#[$meta:meta])* fn $name:ident
      [ $($pats:tt)* ] [ $($strats:tt)* ]
      ( $p:pat_param in $s:expr, $($rest:tt)* ) $body:block
    ) => {
        $crate::__proptest_fn! { ($cfg) $(#[$meta])* fn $name
            [ $($pats)* ($p) ] [ $($strats)* ($s) ]
            ( $($rest)* ) $body }
    };
    // `pat in strategy`, final argument.
    ( ($cfg:expr) $(#[$meta:meta])* fn $name:ident
      [ $($pats:tt)* ] [ $($strats:tt)* ]
      ( $p:pat_param in $s:expr ) $body:block
    ) => {
        $crate::__proptest_fn! { ($cfg) $(#[$meta])* fn $name
            [ $($pats)* ($p) ] [ $($strats)* ($s) ]
            ( ) $body }
    };
    // All arguments consumed: emit the test function.
    ( ($cfg:expr) $(#[$meta:meta])* fn $name:ident
      [ $(($pat:pat_param))+ ] [ $(($strat:expr))+ ]
      ( ) $body:block
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rejected: u32 = 0;
            for __case in 0..__cfg.cases {
                let mut __rng = $crate::TestRng::for_case(
                    ::core::module_path!(),
                    ::core::stringify!($name),
                    __case as u64,
                );
                let __vals = (
                    $($crate::strategy::Strategy::generate(&($strat), &mut __rng),)+
                );
                let __input_desc = format!("{:?}", __vals);
                let ($($pat,)+) = __vals;
                let __outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                match __outcome {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Reject(_)) => {
                        __rejected += 1;
                        if __rejected > __cfg.cases * 8 {
                            panic!("proptest {}: too many rejected inputs", stringify!($name));
                        }
                    }
                    ::std::result::Result::Err(__e) => {
                        panic!(
                            "proptest {} failed at case {}: {}\n  inputs: {}",
                            stringify!($name),
                            __case,
                            __e,
                            __input_desc
                        );
                    }
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (u32, bool)> {
        (0u32..100, prop::bool::ANY)
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 5u64..50, y in 0usize..3) {
            prop_assert!((5..50).contains(&x));
            prop_assert!(y < 3);
        }

        #[test]
        fn mapped_strategy_applies(v in (0u32..10).prop_map(|x| x * 2)) {
            prop_assert_eq!(v % 2, 0);
            prop_assert!(v < 20);
        }

        #[test]
        fn collections_sized(v in prop::collection::vec(0u8..255, 0..20)) {
            prop_assert!(v.len() < 20);
        }

        #[test]
        fn oneof_picks_arms(v in prop_oneof![Just(1u8), Just(2u8)]) {
            prop_assert!(v == 1 || v == 2);
        }

        #[test]
        fn tuples_compose(p in arb_pair()) {
            prop_assert!(p.0 < 100);
        }

        #[test]
        fn any_shorthand_and_floats(seed: u64, flag: bool, f in 0.25f64..0.75) {
            let _ = (seed, flag);
            prop_assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = crate::collection::vec(0u64..1000, 0..50);
        let a: Vec<u64> = {
            let mut rng = crate::TestRng::for_case("m", "t", 7);
            crate::strategy::Strategy::generate(&strat, &mut rng)
        };
        let b: Vec<u64> = {
            let mut rng = crate::TestRng::for_case("m", "t", 7);
            crate::strategy::Strategy::generate(&strat, &mut rng)
        };
        assert_eq!(a, b);
    }
}
