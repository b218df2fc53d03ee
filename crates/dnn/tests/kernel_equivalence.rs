//! Property tests: the blocked (and threaded) matmul kernels are
//! numerically equivalent to the naive reference kernels, and the scratch
//! arena honours its sizing contract.
//!
//! Shapes are drawn from ranges that deliberately include the degenerate
//! and awkward cases — `m = 1`, `k = 1`, dimensions that are not multiples
//! of the register tile or cache block — because those exercise the
//! zero-padded panel edges of the packed kernels. The `skinny_*` properties
//! pair a batch of 1–10 with layer widths up to 1100, the shapes the
//! unpacked path exists for and the 1..80 draw never produces.
//!
//! The two SIMD tiles are held to more than closeness: they cut `k` into
//! the same slices and fuse every multiply-add, so
//! `avx512_tile_is_bitwise_the_avx2_tile` compares them by `to_bits`. On a
//! host without `avx512f` a `Kernel::Avx512` guard installs the AVX2 tile
//! and such a comparison would be of a tile with itself, so the properties
//! that pin the wide tile say `skipped: avx512f not detected` instead.

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

/// Whether the wide tile can be pinned here; says so in the log when not,
/// because a `Kernel::Avx512` guard then installs the AVX2 tile and the
/// caller would be comparing a tile with itself.
fn avx512_or_note() -> bool {
    let detected = simd::avx512_available();
    if !detected {
        eprintln!("skipped: avx512f not detected");
    }
    detected
}

/// Every kernel a property can pin in turn on this host.
fn kernels() -> Vec<Kernel> {
    let mut kernels = vec![Kernel::Scalar, Kernel::Avx2];
    if avx512_or_note() {
        kernels.push(Kernel::Avx512);
    }
    kernels
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
        // products take the unpacked path, the rest the packed core, both
        // compiled for the forced kernel, so this covers both sides of the
        // dispatch tree.
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
fn forced_avx512_matches_reference() {
    if !avx512_or_note() {
        return;
    }
    check(CASES, |g| {
        let (m, k, n, seed) = shape_and_seed(g);
        // All three forms; the draw puts `n` on both sides of the 16 columns
        // under which the wide kernel runs the narrow tile.
        with_kernel(Kernel::Avx512, || {
            let a = Tensor::randn(&[m, k], seed);
            let b = Tensor::randn(&[k, n], seed.wrapping_add(15));
            assert_all_close(&minidnn::tensor::matmul(&a, &b), &reference::matmul(&a, &b));
            let at = Tensor::randn(&[k, m], seed.wrapping_add(16));
            assert_all_close(&minidnn::tensor::matmul_at_b(&at, &b), &reference::matmul_at_b(&at, &b));
            let bt = Tensor::randn(&[n, k], seed.wrapping_add(17));
            assert_all_close(&minidnn::tensor::matmul_a_bt(&a, &bt), &reference::matmul_a_bt(&a, &bt));
        });
    });
}

/// `A·B`, `Aᵀ·B` and `A·Bᵀ` at `[m, k] × [k, n]`, overwriting and
/// accumulating, on one thread and on four, under both SIMD kernels: every
/// output must have the same bit pattern.
fn assert_simd_tiles_agree_bitwise(m: usize, k: usize, n: usize, seed: u64) {
    use minidnn::tensor::{gemm, gemm_a_bt, gemm_at_b};
    let a = Tensor::randn(&[m, k], seed);
    let at = a.transpose2d();
    let b = Tensor::randn(&[k, n], seed.wrapping_add(18));
    let bt = b.transpose2d();
    let c0 = Tensor::randn(&[m, n], seed.wrapping_add(19));
    let run = |kernel: Kernel, threads: usize, acc: bool| {
        with_kernel(kernel, || {
            with_threads(threads, || {
                let mut c = [c0.data().to_vec(), c0.data().to_vec(), c0.data().to_vec()];
                gemm(m, n, k, a.data(), b.data(), &mut c[0], acc);
                gemm_at_b(m, n, k, at.data(), b.data(), &mut c[1], acc);
                gemm_a_bt(m, n, k, a.data(), bt.data(), &mut c[2], acc);
                c.map(|c| c.into_iter().map(f32::to_bits).collect::<Vec<_>>())
            })
        })
    };
    for threads in [1, 4] {
        for acc in [false, true] {
            let (narrow, wide) = (run(Kernel::Avx2, threads, acc), run(Kernel::Avx512, threads, acc));
            for (form, (nb, wb)) in ["A·B", "Aᵀ·B", "A·Bᵀ"].iter().zip(narrow.iter().zip(&wide)) {
                assert!(nb == wb, "{form} at m={m} k={k} n={n}, {threads} thread(s), acc={acc}: tiles disagree");
            }
        }
    }
}

#[test]
fn avx512_tile_is_bitwise_the_avx2_tile() {
    if !avx512_or_note() {
        return;
    }
    check(CASES, |g| {
        let (m, k, n, seed) = shape_and_seed(g);
        assert_simd_tiles_agree_bitwise(m, k, n, seed);
    });
    // One dimension at a time across every tile and block edge of either
    // kernel (`MR` 6 and 12, `NR` 16 and 32, `MC` 72 and 120, `NC` 256 and
    // 512, `KC` 256 for both), the other two just large enough that the
    // product is packed; `n` = 15..17 is where the wide kernel switches
    // tiles. Then corners where several edges meet.
    for m in [5, 7, 11, 13, 71, 73, 119, 121] {
        assert_simd_tiles_agree_bitwise(m, 70, 50, m as u64);
    }
    for n in [15, 16, 17, 31, 33, 255, 257, 511, 513] {
        assert_simd_tiles_agree_bitwise(25, 70, n, n as u64);
    }
    for k in [255, 256, 257, 511, 513] {
        assert_simd_tiles_agree_bitwise(25, k, 50, k as u64);
    }
    for (m, k, n) in [(121, 257, 33), (13, 257, 513), (73, 255, 17)] {
        assert_simd_tiles_agree_bitwise(m, k, n, 7);
    }
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

/// Cases for the skinny properties: their references are naive products
/// of up to 10 × 1100 × 1100, so fewer of them.
const SKINNY_CASES: usize = 16;

/// The width of a layer: under a vector, either side of the 128-float run
/// the skinny rule asks for, odd sizes near the layer widths in use, and
/// anything up to 1100.
fn width(g: &mut Gen) -> usize {
    match g.usize(0..4) {
        0 => g.usize(1..8),
        1 => g.usize(120..136),
        2 => g.pick(&[37, 255, 256, 1000, 1024, 1037]),
        _ => g.usize(8..1100),
    }
}

/// A `[batch, p]` input, a `[p, q]` and a `[q, p]` weight and a
/// `[batch, q]` gradient: what a linear layer hands the three kernels,
/// with the batch on both sides of the unpacked path's crossovers (8 rows
/// of C, 4 summed terms for `Aᵀ·B`).
fn skinny_operands(g: &mut Gen) -> (Tensor, Tensor, Tensor, Tensor) {
    let (batch, p, q, seed) = (g.usize(1..11), width(g), width(g), g.u64(0..1024));
    (
        Tensor::randn(&[batch, p], seed),
        Tensor::randn(&[p, q], seed.wrapping_add(12)),
        Tensor::randn(&[q, p], seed.wrapping_add(13)),
        Tensor::randn(&[batch, q], seed.wrapping_add(14)),
    )
}

#[test]
fn skinny_products_match_reference_under_both_kernels() {
    let kernels = kernels();
    check(SKINNY_CASES, |g| {
        let (x, w, wt, dy) = skinny_operands(g);
        let y = reference::matmul(&x, &w);
        let dw = reference::matmul_at_b(&x, &dy);
        let dx = reference::matmul_a_bt(&x, &wt);
        // Without AVX2 the second guard installs the scalar kernel again.
        for &kernel in &kernels {
            with_kernel(kernel, || {
                assert_all_close(&minidnn::tensor::matmul(&x, &w), &y);
                assert_all_close(&minidnn::tensor::matmul_at_b(&x, &dy), &dw);
                assert_all_close(&minidnn::tensor::matmul_a_bt(&x, &wt), &dx);
            });
        }
    });
}

/// `gemm_into(c, false)` must leave the product whatever `c` held, NaN
/// included, and `gemm_into(c, true)` must then add it exactly once more.
fn overwrites_then_adds(form: &str, once: &Tensor, gemm_into: impl Fn(&mut [f32], bool)) {
    let mut c = vec![f32::NAN; once.len()];
    gemm_into(&mut c, false);
    for (i, (&got, &want)) in c.iter().zip(once.data()).enumerate() {
        assert!(close(got, want), "{form} overwrite, element {i}: {got} vs {want}");
    }
    gemm_into(&mut c, true);
    for (i, (&got, &want)) in c.iter().zip(once.data()).enumerate() {
        assert!(close(got, 2.0 * want), "{form} accumulate, element {i}: {got} vs {}", 2.0 * want);
    }
}

#[test]
fn skinny_gemm_overwrites_then_adds_exactly_one_product() {
    use minidnn::tensor::{gemm, gemm_a_bt, gemm_at_b};
    let kernels = kernels();
    check(SKINNY_CASES, |g| {
        let (x, w, wt, dy) = skinny_operands(g);
        let (batch, p, q) = (x.shape()[0], x.shape()[1], w.shape()[1]);
        for &kernel in &kernels {
            with_kernel(kernel, || {
                overwrites_then_adds("A·B", &minidnn::tensor::matmul(&x, &w), |c, acc| {
                    gemm(batch, q, p, x.data(), w.data(), c, acc)
                });
                overwrites_then_adds("Aᵀ·B", &minidnn::tensor::matmul_at_b(&x, &dy), |c, acc| {
                    gemm_at_b(p, q, batch, x.data(), dy.data(), c, acc)
                });
                overwrites_then_adds("A·Bᵀ", &minidnn::tensor::matmul_a_bt(&x, &wt), |c, acc| {
                    gemm_a_bt(batch, q, p, x.data(), wt.data(), c, acc)
                });
            });
        }
    });
}

#[test]
fn forced_scalar_skinny_products_are_bitwise_repeatable() {
    check(SKINNY_CASES, |g| {
        let (x, w, wt, dy) = skinny_operands(g);
        let run = || {
            with_kernel(Kernel::Scalar, || {
                (
                    minidnn::tensor::matmul(&x, &w),
                    minidnn::tensor::matmul_at_b(&x, &dy),
                    minidnn::tensor::matmul_a_bt(&x, &wt),
                )
            })
        };
        let (first, second) = (run(), run());
        assert_eq!(first.0.data(), second.0.data());
        assert_eq!(first.1.data(), second.1.data());
        assert_eq!(first.2.data(), second.2.data());
    });
}

/// The unpacked path reads its operands in place: a two-sample step through
/// a 256 → 1024 layer takes no buffer from the arena, where the packed path
/// takes two per product.
#[test]
fn skinny_products_take_nothing_from_scratch() {
    use minidnn::tensor::{gemm, gemm_a_bt, gemm_at_b};
    let (batch, p, q) = (2, 256, 1024);
    let x = Tensor::randn(&[batch, p], 1);
    let w = Tensor::randn(&[p, q], 2);
    let dy = Tensor::randn(&[batch, q], 3);
    let (mut y, mut dw, mut dx) = (vec![0.0f32; batch * q], vec![0.0f32; p * q], vec![0.0f32; batch * p]);
    for kernel in kernels() {
        with_kernel(kernel, || {
            let before = scratch::stats();
            gemm(batch, q, p, x.data(), w.data(), &mut y, false);
            gemm_at_b(p, q, batch, x.data(), dy.data(), &mut dw, true);
            gemm_a_bt(batch, p, q, dy.data(), w.data(), &mut dx, false);
            assert_eq!(scratch::stats(), before, "{kernel} kernel");
        });
    }
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
