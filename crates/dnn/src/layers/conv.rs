//! 2-D convolution via im2col.

use super::{add_or_store, Grads, Layer, Param};
use crate::tensor::{gemm, gemm_a_bt, gemm_at_b, scratch, Tensor};

/// 2-D convolution over `[batch, in_c, h, w]` inputs.
///
/// The implementation lowers each sample to an im2col matrix of shape
/// `[in_c·kh·kw, oh·ow]` and uses a single matrix multiplication per sample,
/// which is the standard CPU strategy and keeps the backward pass to two
/// more matmuls plus a col2im scatter. The im2col matrices for the whole
/// batch live in one buffer owned by the layer and reused across steps, and
/// the backward scratch comes from the thread-local arena — steady-state
/// training performs no fresh im2col allocations (see
/// `im2col_buffers_are_reused` below).
///
/// # Examples
///
/// ```
/// use minidnn::layers::{Conv2d, Layer};
/// use minidnn::tensor::Tensor;
///
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, 0);
/// let y = conv.forward(&Tensor::randn(&[2, 3, 8, 8], 1), true);
/// assert_eq!(y.shape(), &[2, 8, 8, 8]);
/// ```
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    cache: Option<ConvCache>,
    /// Whole-batch im2col matrix `[batch · in_c·k·k · oh·ow]`, grown on
    /// demand and reused across forward/backward calls.
    col_buf: Vec<f32>,
}

#[derive(Debug)]
struct ConvCache {
    in_shape: Vec<usize>,
    out_hw: (usize, usize),
}

impl Conv2d {
    /// Create a square-kernel convolution.
    ///
    /// # Panics
    ///
    /// Panics if any of `in_channels`, `out_channels`, `kernel` or `stride`
    /// is zero.
    pub fn new(in_channels: usize, out_channels: usize, kernel: usize, stride: usize, padding: usize, seed: u64) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0, "conv dimensions must be positive");
        let fan_in = in_channels * kernel * kernel;
        Conv2d {
            weight: Param::new(Tensor::kaiming(&[out_channels, fan_in], fan_in, seed), "conv.weight"),
            bias: Param::new(Tensor::zeros(&[out_channels]), "conv.bias"),
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            cache: None,
            col_buf: Vec::new(),
        }
    }

    /// Output spatial size for an input of the given height/width.
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let hp = h + 2 * self.padding;
        let wp = w + 2 * self.padding;
        assert!(hp >= self.kernel && wp >= self.kernel, "input {h}x{w} too small for kernel {}", self.kernel);
        ((hp - self.kernel) / self.stride + 1, (wp - self.kernel) / self.stride + 1)
    }

    /// The backward pass, with the input gradient only if `input_grad`.
    fn backward_with(&mut self, grad_out: &Tensor, grads: Grads<'_>, input_grad: bool) -> Option<Tensor> {
        let cache = self.cache.as_ref().expect("backward called before forward");
        let (oh, ow) = cache.out_hw;
        let in_shape = cache.in_shape.clone();
        let batch = in_shape[0];
        let (h, w) = (in_shape[2], in_shape[3]);
        assert_eq!(grad_out.shape(), &[batch, self.out_channels, oh, ow], "conv backward shape mismatch");
        let geom = ColGeom {
            in_channels: self.in_channels,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
            h,
            w,
            oh,
            ow,
        };
        let rows = self.in_channels * self.kernel * self.kernel;
        let spatial = oh * ow;
        let sample = self.in_channels * h * w;
        let lens = (self.weight.len(), self.bias.len());
        let (dw, db, accumulate) = grads.weight_and_bias(&mut self.weight.grad, &mut self.bias.grad, lens);
        let mut dx = input_grad.then(|| (vec![0.0f32; batch * sample], scratch::take(rows * spatial)));
        for b in 0..batch {
            let g = &grad_out.data()[b * self.out_channels * spatial..][..self.out_channels * spatial];
            let col = &self.col_buf[b * rows * spatial..][..rows * spatial];
            // dW (+)= g colᵀ ; db (+)= Σ_spatial g ; dcol = Wᵀ g — the
            // first sample stores unless accumulating, the rest add.
            let accumulate = accumulate || b > 0;
            gemm_a_bt(self.out_channels, rows, spatial, g, col, dw, accumulate);
            add_or_store(db, g.chunks_exact(spatial).map(|g_oc| g_oc.iter().sum::<f32>()), accumulate);
            if let Some((dx, dcol)) = &mut dx {
                gemm_at_b(rows, spatial, self.out_channels, self.weight.value.data(), g, dcol.as_mut_slice(), false);
                col2im(dcol.as_slice(), geom, &mut dx[b * sample..][..sample]);
            }
        }
        dx.map(|(dx, _)| Tensor::from_vec(dx, &in_shape).expect("conv dx shape"))
    }
}

/// Geometry shared by the im2col lowering and the col2im scatter.
#[derive(Debug, Clone, Copy)]
struct ColGeom {
    in_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
}

/// Lower one sample `[in_c, h, w]` to `[in_c·k·k, oh·ow]`, writing every
/// element of `out` (so stale buffer contents are fine).
fn im2col(x: &[f32], g: ColGeom, out: &mut [f32]) {
    let k = g.kernel;
    for c in 0..g.in_channels {
        for ki in 0..k {
            for kj in 0..k {
                let row = (c * k + ki) * k + kj;
                for oi in 0..g.oh {
                    let ii = (oi * g.stride + ki) as isize - g.padding as isize;
                    for oj in 0..g.ow {
                        let jj = (oj * g.stride + kj) as isize - g.padding as isize;
                        let v = if ii >= 0 && jj >= 0 && (ii as usize) < g.h && (jj as usize) < g.w {
                            x[(c * g.h + ii as usize) * g.w + jj as usize]
                        } else {
                            0.0
                        };
                        out[row * (g.oh * g.ow) + oi * g.ow + oj] = v;
                    }
                }
            }
        }
    }
}

/// Scatter a `[in_c·k·k, oh·ow]` gradient back to `[in_c, h, w]`.
fn col2im(col: &[f32], g: ColGeom, out: &mut [f32]) {
    let k = g.kernel;
    for c in 0..g.in_channels {
        for ki in 0..k {
            for kj in 0..k {
                let row = (c * k + ki) * k + kj;
                for oi in 0..g.oh {
                    let ii = (oi * g.stride + ki) as isize - g.padding as isize;
                    for oj in 0..g.ow {
                        let jj = (oj * g.stride + kj) as isize - g.padding as isize;
                        if ii >= 0 && jj >= 0 && (ii as usize) < g.h && (jj as usize) < g.w {
                            out[(c * g.h + ii as usize) * g.w + jj as usize] += col[row * (g.oh * g.ow) + oi * g.ow + oj];
                        }
                    }
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let shape = x.shape();
        assert_eq!(shape.len(), 4, "conv input must be [batch, c, h, w], got {shape:?}");
        assert_eq!(shape[1], self.in_channels, "conv channel mismatch");
        let (batch, h, w) = (shape[0], shape[2], shape[3]);
        let (oh, ow) = self.output_hw(h, w);
        let geom = ColGeom {
            in_channels: self.in_channels,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
            h,
            w,
            oh,
            ow,
        };
        let rows = self.in_channels * self.kernel * self.kernel;
        let spatial = oh * ow;
        let sample = self.in_channels * h * w;
        if self.col_buf.len() != batch * rows * spatial {
            self.col_buf.resize(batch * rows * spatial, 0.0);
        }
        let mut out = vec![0.0f32; batch * self.out_channels * spatial];
        for b in 0..batch {
            let col = &mut self.col_buf[b * rows * spatial..][..rows * spatial];
            im2col(&x.data()[b * sample..][..sample], geom, col);
            let y = &mut out[b * self.out_channels * spatial..][..self.out_channels * spatial];
            gemm(self.out_channels, spatial, rows, self.weight.value.data(), col, y, false);
            for (oc, y_oc) in y.chunks_exact_mut(spatial).enumerate() {
                let bias = self.bias.value.data()[oc];
                for v in y_oc {
                    *v += bias;
                }
            }
        }
        self.cache = Some(ConvCache { in_shape: shape.to_vec(), out_hw: (oh, ow) });
        Tensor::from_vec(out, &[batch, self.out_channels, oh, ow]).expect("conv output shape")
    }

    fn backward_to(&mut self, grad_out: &Tensor, grads: Grads<'_>) -> Tensor {
        self.backward_with(grad_out, grads, true).expect("input gradient requested")
    }

    fn backward_params(&mut self, grad_out: &Tensor, grads: Grads<'_>) {
        self.backward_with(grad_out, grads, false);
    }

    fn parameters(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn parameters_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn replicate(&self) -> Box<dyn Layer> {
        Box::new(Conv2d {
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            cache: None,
            col_buf: Vec::new(),
            ..*self
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_shape_with_padding() {
        let conv = Conv2d::new(1, 4, 3, 1, 1, 0);
        assert_eq!(conv.output_hw(5, 5), (5, 5));
        let conv = Conv2d::new(1, 4, 3, 2, 0, 0);
        assert_eq!(conv.output_hw(7, 7), (3, 3));
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1 and bias 0 is the identity.
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, 0);
        conv.weight.value.data_mut()[0] = 1.0;
        let x = Tensor::randn(&[1, 1, 4, 4], 13);
        let y = conv.forward(&x, true);
        assert_eq!(y, x);
    }

    #[test]
    fn known_3x3_convolution() {
        // All-ones 3x3 kernel over an all-ones 3x3 input, no padding: single
        // output = 9.
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, 0);
        conv.weight.value.data_mut().fill(1.0);
        let y = conv.forward(&Tensor::ones(&[1, 1, 3, 3]), true);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data()[0], 9.0);
    }

    #[test]
    fn gradient_check_weight_and_input() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 17);
        let x = Tensor::randn(&[2, 2, 4, 4], 18);
        let y = conv.forward(&x, true);
        let gx = conv.backward(&Tensor::ones(y.shape()));
        let eps = 1e-2f32;

        // Weight gradient (spot-check a handful of indices).
        let analytic = conv.weight.grad.clone();
        for idx in [0usize, 5, 11, 17] {
            let orig = conv.weight.value.data()[idx];
            conv.weight.value.data_mut()[idx] = orig + eps;
            let plus = conv.forward(&x, true).sum();
            conv.weight.value.data_mut()[idx] = orig - eps;
            let minus = conv.forward(&x, true).sum();
            conv.weight.value.data_mut()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!((numeric - analytic.data()[idx]).abs() < 0.05, "w[{idx}]: {numeric} vs {}", analytic.data()[idx]);
        }

        // Input gradient (spot-check).
        for idx in [0usize, 7, 20, 31] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let numeric = (conv.forward(&xp, true).sum() - conv.forward(&xm, true).sum()) / (2.0 * eps);
            assert!((numeric - gx.data()[idx]).abs() < 0.05, "x[{idx}]: {numeric} vs {}", gx.data()[idx]);
        }
    }

    #[test]
    fn bias_gradient_counts_positions() {
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, 19);
        let x = Tensor::randn(&[3, 1, 4, 4], 20);
        let y = conv.forward(&x, true);
        conv.backward(&Tensor::ones(y.shape()));
        // Each output channel sees batch * oh * ow unit gradients.
        for &g in conv.bias.grad.data() {
            assert_eq!(g, (3 * 4 * 4) as f32);
        }
    }

    #[test]
    fn im2col_buffers_are_reused() {
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, 23);
        let x = Tensor::randn(&[2, 2, 6, 6], 24);
        // Warm-up step: the col buffer and any arena scratch get sized.
        let y = conv.forward(&x, true);
        conv.backward(&Tensor::ones(y.shape()));
        let col_ptr = conv.col_buf.as_ptr();
        let col_len = conv.col_buf.len();
        let arena_before = crate::tensor::scratch::stats();
        for _ in 0..3 {
            let y = conv.forward(&x, true);
            conv.backward(&Tensor::ones(y.shape()));
        }
        assert_eq!(conv.col_buf.as_ptr(), col_ptr, "im2col batch buffer must be reused, not reallocated");
        assert_eq!(conv.col_buf.len(), col_len);
        let arena_after = crate::tensor::scratch::stats();
        assert_eq!(
            arena_after.allocations, arena_before.allocations,
            "warm conv steps must not allocate new scratch buffers"
        );
        assert!(arena_after.reuses > arena_before.reuses, "backward scratch should come from the arena");
    }

    #[test]
    fn reused_buffers_do_not_change_results() {
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, 29);
        let x = Tensor::randn(&[1, 1, 5, 5], 30);
        let y1 = conv.forward(&x, true);
        // A different-shaped pass in between must not corrupt later results.
        let big = Tensor::randn(&[2, 1, 8, 8], 31);
        let _ = conv.forward(&big, true);
        let y2 = conv.forward(&x, true);
        assert_eq!(y1, y2);
    }
}
