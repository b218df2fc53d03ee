//! Matrix multiplication kernels.
//!
//! Three variants are provided because the linear-layer backward pass needs
//! products against transposed operands; materializing the transpose first
//! would double the memory traffic of every backward step. All three route
//! into one cache-blocked, packed, optionally multithreaded core
//! ([`blocked`]) — the transposed forms only change the strides used while
//! packing. The seed's naive kernels live on in [`reference`] as the
//! correctness baseline for tests and benches.
//!
//! Two API levels:
//!
//! - [`matmul`] / [`matmul_at_b`] / [`matmul_a_bt`] allocate and return a
//!   fresh [`Tensor`] — the convenient form for layer forward passes.
//! - [`gemm`] / [`gemm_at_b`] / [`gemm_a_bt`] write into a caller-provided
//!   slice, optionally accumulating (`acc = true` computes `C += …`). The
//!   layers use these on reused buffers and to accumulate parameter
//!   gradients in place, keeping allocation off the training hot path.

mod blocked;
pub mod reference;
pub mod simd;

use super::Tensor;

/// `C = A × B` for 2-D tensors `A: [m, k]`, `B: [k, n]`.
///
/// # Panics
///
/// Panics if operands are not 2-D or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul lhs");
    let (k2, n) = dims2(b, "matmul rhs");
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    blocked::gemm_strided(m, n, k, a.data(), k, 1, b.data(), n, 1, &mut out);
    Tensor::from_vec(out, &[m, n]).expect("matmul output shape")
}

/// `C = Aᵀ × B` for `A: [k, m]`, `B: [k, n]` — used for weight gradients.
///
/// # Panics
///
/// Panics if operands are not 2-D or the leading dimensions disagree.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = dims2(a, "matmul_at_b lhs");
    let (k2, n) = dims2(b, "matmul_at_b rhs");
    assert_eq!(k, k2, "matmul_at_b leading dimension mismatch: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    blocked::gemm_strided(m, n, k, a.data(), 1, m, b.data(), n, 1, &mut out);
    Tensor::from_vec(out, &[m, n]).expect("matmul_at_b output shape")
}

/// `C = A × Bᵀ` for `A: [m, k]`, `B: [n, k]` — used for input gradients.
///
/// # Panics
///
/// Panics if operands are not 2-D or the trailing dimensions disagree.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul_a_bt lhs");
    let (n, k2) = dims2(b, "matmul_a_bt rhs");
    assert_eq!(k, k2, "matmul_a_bt trailing dimension mismatch: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    blocked::gemm_strided(m, n, k, a.data(), k, 1, b.data(), 1, k, &mut out);
    Tensor::from_vec(out, &[m, n]).expect("matmul_a_bt output shape")
}

/// Slice-level `C (+)= A × B` for row-major `a: [m, k]`, `b: [k, n]`,
/// `c: [m, n]`. With `acc = false` the output is overwritten — bit for bit
/// what zeroing `c` and accumulating gives, so a −0 product lands as +0;
/// with `acc = true` the product is added to the existing contents (the
/// form parameter-gradient accumulation wants).
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions.
pub fn gemm(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32], acc: bool) {
    assert_eq!(a.len(), m * k, "gemm lhs length");
    assert_eq!(b.len(), k * n, "gemm rhs length");
    assert_eq!(c.len(), m * n, "gemm output length");
    blocked::gemm_strided_acc(m, n, k, a, k, 1, b, n, 1, c, acc);
}

/// Slice-level `C (+)= Aᵀ × B` for row-major `a: [k, m]`, `b: [k, n]`,
/// `c: [m, n]`.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions.
pub fn gemm_at_b(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32], acc: bool) {
    assert_eq!(a.len(), k * m, "gemm_at_b lhs length");
    assert_eq!(b.len(), k * n, "gemm_at_b rhs length");
    assert_eq!(c.len(), m * n, "gemm_at_b output length");
    blocked::gemm_strided_acc(m, n, k, a, 1, m, b, n, 1, c, acc);
}

/// Slice-level `C (+)= A × Bᵀ` for row-major `a: [m, k]`, `b: [n, k]`,
/// `c: [m, n]`.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions.
pub fn gemm_a_bt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32], acc: bool) {
    assert_eq!(a.len(), m * k, "gemm_a_bt lhs length");
    assert_eq!(b.len(), n * k, "gemm_a_bt rhs length");
    assert_eq!(c.len(), m * n, "gemm_a_bt output length");
    blocked::gemm_strided_acc(m, n, k, a, k, 1, b, 1, k, c, acc);
}

fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(t.shape().len(), 2, "{what} must be 2-D, got {:?}", t.shape());
    (t.shape()[0], t.shape()[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::threads;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn matmul_known_values() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let eye = t(&[1.0, 0.0, 0.0, 1.0], &[2, 2]);
        assert_eq!(matmul(&a, &eye), a);
        assert_eq!(matmul(&eye, &a), a);
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = t(&[1.0, -2.0, 0.5, 3.0, 4.0, -1.0], &[3, 2]);
        let b = t(&[2.0, 1.0, 0.0, -1.0, 1.5, 2.5], &[3, 2]);
        // Aᵀ B: [2,3]x[3,2] = [2,2]
        let via_kernel = matmul_at_b(&a, &b);
        let via_transpose = matmul(&a.transpose2d(), &b);
        assert_eq!(via_kernel, via_transpose);
        // A Bᵀ: [3,2]x[2,3] = [3,3]
        let via_kernel = matmul_a_bt(&a, &b);
        let via_transpose = matmul(&a, &b.transpose2d());
        assert_eq!(via_kernel, via_transpose);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_mismatch() {
        let _ = matmul(&Tensor::ones(&[2, 3]), &Tensor::ones(&[2, 3]));
    }

    #[test]
    fn matmul_randomized_associativity_with_vector() {
        // (A B) x == A (B x) up to fp error.
        let a = Tensor::randn(&[5, 7], 10);
        let b = Tensor::randn(&[7, 4], 11);
        let x = Tensor::randn(&[4, 1], 12);
        let left = matmul(&matmul(&a, &b), &x);
        let right = matmul(&a, &matmul(&b, &x));
        for (l, r) in left.data().iter().zip(right.data()) {
            assert!((l - r).abs() < 1e-4, "{l} vs {r}");
        }
    }

    fn assert_close(got: &Tensor, want: &Tensor) {
        assert_eq!(got.shape(), want.shape());
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!((g - w).abs() <= 1e-4 * (1.0 + w.abs()), "{g} vs {w}");
        }
    }

    #[test]
    fn blocked_agrees_with_reference_at_awkward_shapes() {
        // Shapes straddling every tile boundary, plus degenerate m/k/n = 1.
        for &(m, k, n) in &[(1, 1, 1), (1, 9, 4), (5, 1, 7), (33, 31, 29), (65, 127, 66), (4, 300, 3)] {
            let a = Tensor::randn(&[m, k], (m * k) as u64);
            let b = Tensor::randn(&[k, n], (k * n + 1) as u64);
            assert_close(&matmul(&a, &b), &reference::matmul(&a, &b));
            let at = Tensor::randn(&[k, m], (m + k) as u64);
            assert_close(&matmul_at_b(&at, &b), &reference::matmul_at_b(&at, &b));
            let bt = Tensor::randn(&[n, k], (n + k) as u64);
            assert_close(&matmul_a_bt(&a, &bt), &reference::matmul_a_bt(&a, &bt));
        }
    }

    #[test]
    fn threaded_kernels_agree_with_reference() {
        let a = Tensor::randn(&[150, 80], 21);
        let b = Tensor::randn(&[80, 60], 22);
        let want = reference::matmul(&a, &b);
        threads::with_threads(4, || assert_close(&matmul(&a, &b), &want));
    }

    #[test]
    fn gemm_accumulate_adds_to_existing_output() {
        let a = Tensor::randn(&[6, 5], 31);
        let b = Tensor::randn(&[5, 4], 32);
        let product = matmul(&a, &b);
        let mut c = vec![1.0f32; 6 * 4];
        gemm(6, 4, 5, a.data(), b.data(), &mut c, true);
        for (got, want) in c.iter().zip(product.data()) {
            assert!((got - (want + 1.0)).abs() < 1e-5);
        }
        // acc = false overwrites.
        gemm(6, 4, 5, a.data(), b.data(), &mut c, false);
        for (got, want) in c.iter().zip(product.data()) {
            assert!((got - want).abs() < 1e-5);
        }
    }

    #[test]
    fn gemm_variants_match_tensor_wrappers() {
        let a = Tensor::randn(&[9, 12], 41);
        let b = Tensor::randn(&[12, 7], 42);
        let mut c = vec![0.0f32; 9 * 7];
        gemm(9, 7, 12, a.data(), b.data(), &mut c, false);
        assert_eq!(c.as_slice(), matmul(&a, &b).data());

        let at = Tensor::randn(&[12, 9], 43);
        let mut c = vec![0.0f32; 9 * 7];
        gemm_at_b(9, 7, 12, at.data(), b.data(), &mut c, false);
        assert_eq!(c.as_slice(), matmul_at_b(&at, &b).data());

        let bt = Tensor::randn(&[7, 12], 44);
        let mut c = vec![0.0f32; 9 * 7];
        gemm_a_bt(9, 7, 12, a.data(), bt.data(), &mut c, false);
        assert_eq!(c.as_slice(), matmul_a_bt(&a, &bt).data());
    }
}
