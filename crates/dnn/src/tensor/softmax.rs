//! Row-wise softmax, log-softmax and top-k over a 2-D-viewed tensor.

use super::Tensor;

impl Tensor {
    /// Numerically stable row-wise softmax of a 2-D-viewed tensor.
    pub fn softmax_rows(&self) -> Tensor {
        let (r, c) = (self.rows(), self.cols());
        let mut out = Tensor::zeros(&[r, c]);
        for i in 0..r {
            let row = &self.data()[i * c..(i + 1) * c];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for j in 0..c {
                let e = (row[j] - max).exp();
                out.data_mut()[i * c + j] = e;
                sum += e;
            }
            for j in 0..c {
                out.data_mut()[i * c + j] /= sum;
            }
        }
        out
    }

    /// Numerically stable row-wise log-softmax of a 2-D-viewed tensor.
    pub fn log_softmax_rows(&self) -> Tensor {
        let (r, c) = (self.rows(), self.cols());
        let mut out = Tensor::zeros(&[r, c]);
        for i in 0..r {
            let row = &self.data()[i * c..(i + 1) * c];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let log_z = max + row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln();
            for j in 0..c {
                out.data_mut()[i * c + j] = row[j] - log_z;
            }
        }
        out
    }

    /// Indices of the `k` largest elements of each row, best first.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > cols()`.
    pub fn topk_rows(&self, k: usize) -> Vec<Vec<usize>> {
        let (r, c) = (self.rows(), self.cols());
        assert!(k >= 1 && k <= c, "k = {k} out of range for {c} columns");
        (0..r)
            .map(|i| {
                let row = &self.data()[i * c..(i + 1) * c];
                let mut idx: Vec<usize> = (0..c).collect();
                idx.sort_by(|&a, &b| row[b].total_cmp(&row[a]));
                idx.truncate(k);
                idx
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_are_distributions() {
        let t = Tensor::randn(&[5, 7], 11).scale(4.0);
        let s = t.softmax_rows();
        for i in 0..5 {
            let row = &s.data()[i * 7..(i + 1) * 7];
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_is_stable_at_extreme_logits() {
        let t = Tensor::from_vec(vec![1000.0, 999.0, -1000.0], &[1, 3]).unwrap();
        let s = t.softmax_rows();
        assert!(s.data().iter().all(|v| v.is_finite()));
        assert!(s.data()[0] > s.data()[1] && s.data()[1] > s.data()[2]);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let t = Tensor::randn(&[3, 4], 12);
        let a = t.log_softmax_rows();
        let b = t.softmax_rows().map(f32::ln);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn topk_orders_best_first() {
        let t = Tensor::from_vec(vec![0.1, 0.7, 0.2, 0.9, 0.0, 0.05], &[2, 3]).unwrap();
        let top2 = t.topk_rows(2);
        assert_eq!(top2[0], vec![1, 2]);
        assert_eq!(top2[1], vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn topk_rejects_oversized_k() {
        let _ = Tensor::ones(&[1, 2]).topk_rows(3);
    }
}
