//! A seeded property runner for the workspace's test suites.
//!
//! [`check`] runs a property a fixed number of times, each time with a
//! [`Gen`] the property draws its inputs from. Three choices keep it
//! small:
//!
//! - **Deterministic.** Case `k` is seeded from the source location of the
//!   `check` call and `k`, so a run is the same on every machine and every
//!   rerun; there is no persisted regression file. A case worth keeping
//!   becomes an explicit `#[test]`.
//! - **Smallest first, no shrinker.** Integer draws — and through them
//!   `vec` lengths and `pick` — are confined to the low end of their range
//!   in the first cases and reach the full range halfway through the run,
//!   so the first case to fail is already a small one.
//! - **Plain panics.** A property asserts with `assert!`; when it unwinds,
//!   the case index and seed are printed next to the panic message.
//!
//! ```
//! propcheck::check(64, |g| {
//!     let items = g.vec(0..20, |g| g.u64(0..1000));
//!     let mut sorted = items.clone();
//!     sorted.sort_unstable();
//!     assert_eq!(sorted.len(), items.len());
//! });
//! ```

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use std::ops::Range;
use std::panic::Location;

/// The source of one case's inputs.
pub struct Gen {
    rng: StdRng,
    /// Share of every integer range this case may draw from, in `(0, 1]`.
    scale: f64,
}

impl Gen {
    /// A `u64` from `range`, from its low end in early cases.
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty.
    pub fn u64(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range {range:?}");
        let span = range.end - range.start;
        let reach = ((span as f64 * self.scale).ceil() as u64).clamp(1, span);
        range.start + ((u128::from(self.rng.next_u64()) * u128::from(reach)) >> 64) as u64
    }

    /// A `usize` from `range`, from its low end in early cases.
    pub fn usize(&mut self, range: Range<usize>) -> usize {
        self.u64(range.start as u64..range.end as u64) as usize
    }

    /// An `f64` uniform over `range`, in every case.
    pub fn f64(&mut self, range: Range<f64>) -> f64 {
        self.rng.random_range(range)
    }

    /// An `f32` uniform over `range`, in every case.
    pub fn f32(&mut self, range: Range<f32>) -> f32 {
        self.rng.random_range(range)
    }

    /// A fair coin, in every case.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() >> 63 == 1
    }

    /// A vector whose length is drawn from `len` and whose items come from
    /// `item`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let len = self.usize(len);
        (0..len).map(|_| item(self)).collect()
    }

    /// One of `options`, the earlier ones in early cases.
    pub fn pick<T: Clone>(&mut self, options: &[T]) -> T {
        options[self.usize(0..options.len())].clone()
    }
}

/// Prints which case was running if the property unwinds through it.
struct Running {
    site: &'static Location<'static>,
    case: usize,
    seed: u64,
}

impl Drop for Running {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("propcheck: {} failed on case {} (seed {:#018x})", self.site, self.case, self.seed);
        }
    }
}

/// The seed of case `case` of the `check` call at `site`: FNV-1a over the
/// location, then the case index folded in.
fn case_seed(site: &Location<'_>, case: usize) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let position = [site.line(), site.column()];
    for byte in site.file().bytes().chain(position.iter().flat_map(|p| p.to_le_bytes())) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs `property` on `cases` generated inputs, smallest first. A failing
/// property panics; the case index and seed are printed as it does, and
/// the same case fails on every rerun.
#[track_caller]
pub fn check(cases: usize, mut property: impl FnMut(&mut Gen)) {
    let site = Location::caller();
    for case in 0..cases {
        let seed = case_seed(site, case);
        let _running = Running { site, case, seed };
        let scale = (2.0 * (case + 1) as f64 / cases as f64).min(1.0);
        property(&mut Gen { rng: StdRng::seed_from_u64(seed), scale });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(cases: usize) -> Vec<(usize, u64, f64, bool, Vec<f32>)> {
        let mut seen = Vec::new();
        check(cases, |g| {
            let floats = g.vec(0..6, |g| g.f32(0.0..2.0));
            seen.push((g.usize(3..40), g.u64(0..1 << 40), g.f64(-1.0..1.0), g.bool(), floats));
        });
        seen
    }

    #[test]
    fn a_run_repeats_exactly_and_cases_differ() {
        let (first, second) = (draws(32), draws(32));
        assert_eq!(first, second);
        assert!(first.windows(2).all(|pair| pair[0] != pair[1]));
    }

    #[test]
    fn call_sites_get_their_own_streams() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        check(8, |g| a.push(g.u64(0..u64::MAX)));
        check(8, |g| b.push(g.u64(0..u64::MAX)));
        assert_ne!(a, b);
    }

    #[test]
    fn draws_stay_in_range_and_reach_both_ends() {
        let (mut low, mut high) = (usize::MAX, 0);
        check(400, |g| {
            let n = g.usize(5..25);
            assert!((5..25).contains(&n));
            assert!((0.25..0.5).contains(&g.f64(0.25..0.5)));
            assert!((-3.0..3.0).contains(&g.f32(-3.0..3.0)));
            assert!(g.vec(2..4, |g| g.pick(&['a', 'b'])).len() < 4);
            low = low.min(n);
            high = high.max(n);
        });
        assert_eq!((low, high), (5, 24));
    }

    #[test]
    fn early_cases_are_small() {
        let mut lengths = Vec::new();
        check(100, |g| lengths.push(g.vec(0..1000, |g| g.bool()).len()));
        // Case k draws below 1000 · min(1, 2(k+1)/100).
        assert!(lengths[0] < 20 && lengths[9] < 200, "{lengths:?}");
        assert!(lengths[50..].iter().any(|&len| len > 500), "{lengths:?}");
    }

    #[test]
    fn a_failing_case_fails_again_with_the_same_inputs() {
        let failing = |sink: &mut Vec<u64>| {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                check(64, |g| {
                    let n = g.u64(0..100);
                    if n >= 20 {
                        sink.push(n);
                        panic!("n = {n}");
                    }
                });
            }));
            assert!(caught.is_err());
        };
        let (mut first, mut second) = (Vec::new(), Vec::new());
        for sink in [&mut first, &mut second] {
            failing(sink);
        }
        assert_eq!(first.len(), 1, "check stops at the first failing case");
        assert_eq!(first, second);
    }
}
