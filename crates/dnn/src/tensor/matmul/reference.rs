//! Naive scalar matmul kernels — the correctness baseline.
//!
//! These are the seed implementations the blocked kernels in
//! `super::blocked` replaced (minus the old `== 0.0` sparsity skip, whose
//! branchy inner loops blocked vectorization without winning on dense
//! workloads). They remain the ground truth for the equivalence proptests.
//! Production code should call [`super::matmul`] and friends instead.

use crate::tensor::Tensor;

/// `C = A × B` for 2-D tensors `A: [m, k]`, `B: [k, n]`.
///
/// # Panics
///
/// Panics if operands are not 2-D or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = super::dims2(a, "matmul lhs");
    let (k2, n) = super::dims2(b, "matmul rhs");
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    // i-k-j loop order: the inner loop walks both B and C contiguously.
    for i in 0..m {
        for kk in 0..k {
            let aik = ad[i * k + kk];
            let brow = &bd[kk * n..(kk + 1) * n];
            let crow = &mut out[i * n..(i + 1) * n];
            for (c, &bv) in crow.iter_mut().zip(brow) {
                *c += aik * bv;
            }
        }
    }
    Tensor::from_vec(out, &[m, n]).expect("matmul output shape")
}

/// `C = Aᵀ × B` for `A: [k, m]`, `B: [k, n]` — used for weight gradients.
///
/// # Panics
///
/// Panics if operands are not 2-D or the leading dimensions disagree.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = super::dims2(a, "matmul_at_b lhs");
    let (k2, n) = super::dims2(b, "matmul_at_b rhs");
    assert_eq!(k, k2, "matmul_at_b leading dimension mismatch: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    for kk in 0..k {
        let arow = &ad[kk * m..(kk + 1) * m];
        let brow = &bd[kk * n..(kk + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            let crow = &mut out[i * n..(i + 1) * n];
            for (c, &bv) in crow.iter_mut().zip(brow) {
                *c += av * bv;
            }
        }
    }
    Tensor::from_vec(out, &[m, n]).expect("matmul_at_b output shape")
}

/// `C = A × Bᵀ` for `A: [m, k]`, `B: [n, k]` — used for input gradients.
///
/// # Panics
///
/// Panics if operands are not 2-D or the trailing dimensions disagree.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = super::dims2(a, "matmul_a_bt lhs");
    let (n, k2) = super::dims2(b, "matmul_a_bt rhs");
    assert_eq!(k, k2, "matmul_a_bt trailing dimension mismatch: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &bd[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, &[m, n]).expect("matmul_a_bt output shape")
}
