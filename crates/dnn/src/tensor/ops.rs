//! Elementwise and reduction kernels for [`Tensor`].

use super::Tensor;

impl Tensor {
    /// Elementwise addition.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, "mul", |a, b| a * b)
    }

    /// Elementwise division.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, "div", |a, b| a / b)
    }

    /// In-place `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += alpha * other` (axpy).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiply every element by `s`, returning a new tensor.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// In-place multiplication by a scalar.
    pub fn scale_assign(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Apply `f` to every element, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Apply `f` to every element in place.
    pub fn map_assign<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    fn zip_with<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, op: &'static str, f: F) -> Tensor {
        assert_eq!(self.shape, other.shape, "{op} shape mismatch: {:?} vs {:?}", self.shape, other.shape);
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// Sum of all elements (accumulated in `f64` for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| f64::from(x)).sum::<f64>() as f32
    }

    /// Mean of all elements.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn mean(&self) -> f32 {
        assert!(!self.data.is_empty(), "mean of empty tensor");
        self.sum() / self.data.len() as f32
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Squared L2 norm, accumulated in `f64`.
    ///
    /// The gradient-noise-scale estimators consume `|g|^2` values, so this is
    /// the hottest reduction in the functional training path.
    pub fn sq_l2(&self) -> f64 {
        self.data.iter().map(|&x| f64::from(x) * f64::from(x)).sum()
    }

    /// Dot product with another tensor of identical shape, in `f64`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn dot(&self, other: &Tensor) -> f64 {
        assert_eq!(self.shape, other.shape, "dot shape mismatch");
        self.data.iter().zip(&other.data).map(|(&a, &b)| f64::from(a) * f64::from(b)).sum()
    }

    /// Row-wise sum of a 2-D-viewed tensor: returns a tensor of shape
    /// `[cols]` holding the sum over rows for each column.
    pub fn sum_rows(&self) -> Tensor {
        let (r, c) = (self.rows(), self.cols());
        let mut out = vec![0.0f32; c];
        for i in 0..r {
            let row = &self.data[i * c..(i + 1) * c];
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        Tensor { shape: vec![c], data: out }
    }

    /// Add a `[cols]`-shaped bias vector to every row of a 2-D-viewed tensor.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols()`.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        let c = self.cols();
        assert_eq!(bias.len(), c, "broadcast bias length mismatch");
        let mut out = self.clone();
        for (i, v) in out.data.iter_mut().enumerate() {
            *v += bias.data[i % c];
        }
        out
    }

    /// Index of the maximum element in each row of a 2-D-viewed tensor.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let (r, c) = (self.rows(), self.cols());
        (0..r)
            .map(|i| {
                let row = &self.data[i * c..(i + 1) * c];
                row.iter().enumerate().fold((0usize, f32::NEG_INFINITY), |acc, (j, &v)| if v > acc.1 { (j, v) } else { acc }).0
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[4.0, 3.0, 2.0, 1.0], &[2, 2]);
        assert_eq!(a.add(&b).data(), &[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(a.sub(&b).data(), &[-3.0, -1.0, 1.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 6.0, 6.0, 4.0]);
        assert_eq!(a.div(&b).data(), &[0.25, 2.0 / 3.0, 1.5, 4.0]);
    }

    #[test]
    #[should_panic(expected = "add shape mismatch")]
    fn add_rejects_shape_mismatch() {
        let _ = Tensor::ones(&[2]).add(&Tensor::ones(&[3]));
    }

    #[test]
    fn axpy_matches_manual() {
        let mut a = t(&[1.0, 2.0], &[2]);
        let b = t(&[10.0, 20.0], &[2]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6.0, 12.0]);
    }

    #[test]
    fn reductions() {
        let a = t(&[1.0, -2.0, 3.0, -4.0], &[2, 2]);
        assert_eq!(a.sum(), -2.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.sq_l2(), 1.0 + 4.0 + 9.0 + 16.0);
        assert_eq!(a.dot(&a), a.sq_l2());
    }

    #[test]
    fn sum_rows_and_broadcast() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(a.sum_rows().data(), &[5.0, 7.0, 9.0]);
        let bias = t(&[10.0, 20.0, 30.0], &[3]);
        assert_eq!(a.add_row_broadcast(&bias).data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let a = t(&[1.0, 5.0, 5.0, 0.0, -1.0, -2.0], &[2, 3]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn scale_and_map() {
        let a = t(&[1.0, 2.0], &[2]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
        assert_eq!(a.map(|x| x * x).data(), &[1.0, 4.0]);
        let mut b = a.clone();
        b.scale_assign(-1.0);
        assert_eq!(b.data(), &[-1.0, -2.0]);
        b.map_assign(f32::abs);
        assert_eq!(b.data(), &[1.0, 2.0]);
    }

    #[test]
    fn sum_is_stable_for_many_small_values() {
        let a = Tensor::full(&[100_000], 0.1);
        assert!((f64::from(a.sum()) - 10_000.0).abs() < 0.5);
    }
}
