//! Property tests: the blocked (and threaded) matmul kernels are
//! numerically equivalent to the naive reference kernels, and the scratch
//! arena honours its sizing contract.
//!
//! Shapes are drawn from ranges that deliberately include the degenerate
//! and awkward cases — `m = 1`, `k = 1`, dimensions that are not multiples
//! of the register tile or cache block — because those exercise the
//! zero-padded panel edges of the packed kernels.

use minidnn::tensor::simd::{self, with_kernel, Kernel};
use minidnn::tensor::threads::with_threads;
use minidnn::tensor::{reference, scratch, Tensor};
use propcheck::{check, Gen};

const CASES: usize = 48;

/// Maximum relative error tolerated between the blocked kernels and the
/// naive reference. Both sum in f32, but blocked kernels reassociate the
/// k-loop across panels, so results differ by a few ulps at these sizes.
const REL_TOL: f32 = 1e-4;

/// `|x - y|` bounded by `REL_TOL` relative to magnitude (with an absolute
/// floor so near-zero sums compare sanely).
fn close(x: f32, y: f32) -> bool {
    let scale = x.abs().max(y.abs()).max(1.0);
    (x - y).abs() <= REL_TOL * scale
}

fn assert_all_close(got: &Tensor, want: &Tensor) {
    assert_eq!(got.shape(), want.shape());
    for (i, (&g, &w)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(close(g, w), "element {}: {} vs {}", i, g, w);
    }
}

/// One dimension, spanning tile-aligned and unaligned sizes, with the
/// degenerate edges pinned in explicitly so every run covers them.
fn dim(g: &mut Gen) -> usize {
    match g.usize(0..4) {
        0 => 1,
        1 => 2,
        2 => 3,
        _ => g.usize(1..80),
    }
}

/// The `(m, k, n, seed)` every kernel property draws.
fn shape_and_seed(g: &mut Gen) -> (usize, usize, usize, u64) {
    (dim(g), dim(g), dim(g), g.u64(0..1024))
}

#[test]
fn blocked_matmul_matches_reference() {
    check(CASES, |g| {
        let (m, k, n, seed) = shape_and_seed(g);
        let a = Tensor::randn(&[m, k], seed);
        let b = Tensor::randn(&[k, n], seed.wrapping_add(1));
        assert_all_close(&minidnn::tensor::matmul(&a, &b), &reference::matmul(&a, &b));
    });
}

#[test]
fn blocked_matmul_at_b_matches_reference() {
    check(CASES, |g| {
        let (m, k, n, seed) = shape_and_seed(g);
        let a = Tensor::randn(&[k, m], seed);
        let b = Tensor::randn(&[k, n], seed.wrapping_add(2));
        assert_all_close(&minidnn::tensor::matmul_at_b(&a, &b), &reference::matmul_at_b(&a, &b));
    });
}

#[test]
fn blocked_matmul_a_bt_matches_reference() {
    check(CASES, |g| {
        let (m, k, n, seed) = shape_and_seed(g);
        let a = Tensor::randn(&[m, k], seed);
        let b = Tensor::randn(&[n, k], seed.wrapping_add(3));
        assert_all_close(&minidnn::tensor::matmul_a_bt(&a, &b), &reference::matmul_a_bt(&a, &b));
    });
}

#[test]
fn threaded_matmul_matches_reference() {
    check(CASES, |g| {
        let (m, k, n, seed) = shape_and_seed(g);
        let a = Tensor::randn(&[m, k], seed);
        let b = Tensor::randn(&[k, n], seed.wrapping_add(4));
        let threaded = with_threads(4, || minidnn::tensor::matmul(&a, &b));
        assert_all_close(&threaded, &reference::matmul(&a, &b));
    });
}

#[test]
fn gemm_accumulation_adds_exactly_one_product() {
    check(CASES, |g| {
        let (m, k, n, seed) = shape_and_seed(g);
        // c = A·B (fresh) followed by c += A·B must equal 2 · (A·B).
        let a = Tensor::randn(&[m, k], seed);
        let b = Tensor::randn(&[k, n], seed.wrapping_add(5));
        let mut c = vec![0.0f32; m * n];
        minidnn::tensor::gemm(m, n, k, a.data(), b.data(), &mut c, false);
        let once = c.clone();
        minidnn::tensor::gemm(m, n, k, a.data(), b.data(), &mut c, true);
        for (i, (&twice, &one)) in c.iter().zip(&once).enumerate() {
            assert!(close(twice, 2.0 * one), "element {}: {} vs {}", i, twice, 2.0 * one);
        }
    });
}

#[test]
fn forced_avx2_matmul_matches_reference() {
    check(CASES, |g| {
        let (m, k, n, seed) = shape_and_seed(g);
        // Shapes drawn here straddle the SMALL_WORK dispatch boundary: tiny
        // products stay on the scalar small-matrix path even when the AVX2
        // kernel is forced, so this covers both sides of the dispatch tree.
        if !simd::avx2_available() {
            return;
        }
        let a = Tensor::randn(&[m, k], seed);
        let b = Tensor::randn(&[k, n], seed.wrapping_add(6));
        let got = with_kernel(Kernel::Avx2, || minidnn::tensor::matmul(&a, &b));
        assert_all_close(&got, &reference::matmul(&a, &b));
    });
}

#[test]
fn forced_avx2_transposed_kernels_match_reference() {
    check(CASES, |g| {
        let (m, k, n, seed) = shape_and_seed(g);
        if !simd::avx2_available() {
            return;
        }
        let at = Tensor::randn(&[k, m], seed);
        let b = Tensor::randn(&[k, n], seed.wrapping_add(7));
        let got = with_kernel(Kernel::Avx2, || minidnn::tensor::matmul_at_b(&at, &b));
        assert_all_close(&got, &reference::matmul_at_b(&at, &b));

        let a = Tensor::randn(&[m, k], seed.wrapping_add(8));
        let bt = Tensor::randn(&[n, k], seed.wrapping_add(9));
        let got = with_kernel(Kernel::Avx2, || minidnn::tensor::matmul_a_bt(&a, &bt));
        assert_all_close(&got, &reference::matmul_a_bt(&a, &bt));
    });
}

#[test]
fn forced_scalar_is_bitwise_stable_across_dispatch() {
    check(CASES, |g| {
        let (m, k, n, seed) = shape_and_seed(g);
        // Forcing the scalar kernel must reproduce the default path exactly
        // on machines without AVX2, and stay self-consistent everywhere:
        // the override changes *which* kernel runs, never the blocking
        // schedule, so repeated forced-scalar runs are bitwise identical.
        let a = Tensor::randn(&[m, k], seed);
        let b = Tensor::randn(&[k, n], seed.wrapping_add(10));
        let first = with_kernel(Kernel::Scalar, || minidnn::tensor::matmul(&a, &b));
        let second = with_kernel(Kernel::Scalar, || minidnn::tensor::matmul(&a, &b));
        assert_eq!(first.data(), second.data());
        assert_all_close(&first, &reference::matmul(&a, &b));
    });
}

#[test]
fn forced_avx2_threaded_matches_reference() {
    check(CASES, |g| {
        let (m, k, n, seed) = shape_and_seed(g);
        if !simd::avx2_available() {
            return;
        }
        let a = Tensor::randn(&[m, k], seed);
        let b = Tensor::randn(&[k, n], seed.wrapping_add(11));
        let got = with_kernel(Kernel::Avx2, || with_threads(4, || minidnn::tensor::matmul(&a, &b)));
        assert_all_close(&got, &reference::matmul(&a, &b));
    });
}

#[test]
fn scratch_take_is_exactly_sized_and_fully_writable() {
    check(CASES, |g| {
        let len = g.usize(1..20_000);
        let mut buf = scratch::take(len);
        assert_eq!(buf.as_slice().len(), len);
        // Contents may be stale by contract; every element must be writable
        // and hold its value.
        for (i, v) in buf.as_mut_slice().iter_mut().enumerate() {
            *v = i as f32;
        }
        for (i, &v) in buf.as_slice().iter().enumerate() {
            assert_eq!(v, i as f32);
        }
    });
}

#[test]
fn scratch_take_zeroed_is_zero() {
    check(CASES, |g| {
        let len = g.usize(1..20_000);
        // Dirty the arena first so reuse paths are exercised.
        {
            let mut dirty = scratch::take(len);
            dirty.as_mut_slice().fill(f32::NAN);
        }
        let buf = scratch::take_zeroed(len);
        assert_eq!(buf.as_slice().len(), len);
        assert!(buf.as_slice().iter().all(|&v| v == 0.0));
    });
}

/// Reuse is observable: after a warm-up call, repeating the same request on
/// the same thread is served from the free list, not a fresh allocation.
#[test]
fn scratch_reuses_buffers_across_calls() {
    {
        let _warm = scratch::take(4096);
    }
    let before = scratch::stats();
    for _ in 0..8 {
        let buf = scratch::take(4096);
        assert_eq!(buf.as_slice().len(), 4096);
    }
    let after = scratch::stats();
    assert_eq!(after.allocations, before.allocations, "steady state must not allocate");
    assert!(after.reuses >= before.reuses + 8, "every take should be a reuse");
}
