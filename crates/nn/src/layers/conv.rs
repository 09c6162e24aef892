//! Trainable 2-D convolution.
//!
//! Forward runs the column-free kernel (`mlcnn_tensor::conv::conv2d_into`,
//! the same one the execution plan calls); backward uses the textbook identities
//! `dW = dY · cols(x)ᵀ`, `db = Σ dY`, `dx = col2im(Wᵀ · dY)`. Batch items
//! are processed in parallel with rayon and the per-item parameter
//! gradients reduced afterwards, so the backward pass is deterministic and
//! race-free.

use crate::layer::{Layer, ParamRef};
use mlcnn_tensor::conv::{conv2d_im2col, conv_geometry};
use mlcnn_tensor::im2col::{col2im, im2col};
use mlcnn_tensor::linalg::{matmul, transpose};
use mlcnn_tensor::shape::Shape2;
use mlcnn_tensor::{init, Result, Shape4, Tensor, TensorError};
use rand::rngs::StdRng;
use rayon::prelude::*;

/// Trainable convolution layer with bias.
pub struct Conv2dLayer {
    name: String,
    weight: Tensor<f32>,
    bias: Tensor<f32>,
    w_grad: Tensor<f32>,
    b_grad: Tensor<f32>,
    stride: usize,
    pad: usize,
    cached_input: Option<Tensor<f32>>,
}

impl Conv2dLayer {
    /// Create with Kaiming-initialized weights.
    pub fn new(
        name: impl Into<String>,
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut StdRng,
    ) -> Self {
        let wshape = Shape4::new(out_ch, in_ch, k, k);
        let bshape = Shape4::new(1, 1, 1, out_ch);
        Self {
            name: name.into(),
            weight: init::kaiming(wshape, rng),
            bias: Tensor::zeros(bshape),
            w_grad: Tensor::zeros(wshape),
            b_grad: Tensor::zeros(bshape),
            stride,
            pad,
            cached_input: None,
        }
    }

    /// Replace the weights (used by tests and quantized evaluation).
    pub fn set_weight(&mut self, w: Tensor<f32>) -> Result<()> {
        if w.shape() != self.weight.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.weight.shape(),
                right: w.shape(),
                op: "set_weight",
            });
        }
        self.weight = w;
        Ok(())
    }

    /// Borrow the weights.
    pub fn weight(&self) -> &Tensor<f32> {
        &self.weight
    }

    /// Borrow the bias (flat, one per output channel).
    pub fn bias(&self) -> &[f32] {
        self.bias.as_slice()
    }

    /// Stride accessor.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Padding accessor.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// Apply a map to the weights in place (used for fake-quantization).
    pub fn map_weights(&mut self, f: impl Fn(&Tensor<f32>) -> Tensor<f32>) {
        self.weight = f(&self.weight);
    }
}

impl Layer for Conv2dLayer {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn forward(&mut self, input: &Tensor<f32>, train: bool) -> Result<Tensor<f32>> {
        if train {
            self.cached_input = Some(input.clone());
        }
        conv2d_im2col(
            input,
            &self.weight,
            Some(self.bias.as_slice()),
            self.stride,
            self.pad,
        )
    }

    fn backward(&mut self, grad_out: &Tensor<f32>) -> Result<Tensor<f32>> {
        let input = self
            .cached_input
            .take()
            .ok_or_else(|| TensorError::BadGeometry {
                reason: "conv backward without cached forward".into(),
            })?;
        let geom = conv_geometry(&input, &self.weight, self.stride, self.pad)?;
        let ishape = input.shape();
        let wshape = self.weight.shape();
        let m = wshape.n; // out channels
        let k = wshape.c * geom.taps(); // unrolled filter length
        let ncols = geom.out_len();
        if grad_out.shape() != Shape4::new(ishape.n, m, geom.out_h, geom.out_w) {
            return Err(TensorError::ShapeMismatch {
                left: grad_out.shape(),
                right: Shape4::new(ishape.n, m, geom.out_h, geom.out_w),
                op: "conv backward",
            });
        }

        let w_t = transpose(self.weight.as_slice(), Shape2::new(m, k));

        struct ItemGrads {
            dw: Vec<f32>,
            db: Vec<f32>,
            dx: Vec<f32>,
        }

        let per_item: Vec<ItemGrads> = (0..ishape.n)
            .into_par_iter()
            .map(|n| {
                let cols = im2col(&input, n, &geom);
                let dy_start = n * m * ncols;
                let dy = &grad_out.as_slice()[dy_start..dy_start + m * ncols];
                // dW = dY (m×ncols) · colsᵀ (ncols×k)
                let cols_t = transpose(&cols, Shape2::new(k, ncols));
                let dw = matmul(dy, &cols_t, m, ncols, k);
                // db = row sums of dY
                let db: Vec<f32> = (0..m)
                    .map(|mi| dy[mi * ncols..(mi + 1) * ncols].iter().sum())
                    .collect();
                // dx = col2im(Wᵀ (k×m) · dY (m×ncols))
                let dcols = matmul(&w_t, dy, k, m, ncols);
                let dx = col2im(&dcols, wshape.c, &geom);
                ItemGrads { dw, db, dx }
            })
            .collect();

        let mut dx_data = Vec::with_capacity(ishape.len());
        for (n, item) in per_item.iter().enumerate() {
            debug_assert_eq!(n * item.dx.len(), dx_data.len());
            dx_data.extend_from_slice(&item.dx);
            for (acc, &g) in self.w_grad.as_mut_slice().iter_mut().zip(&item.dw) {
                *acc += g;
            }
            for (acc, &g) in self.b_grad.as_mut_slice().iter_mut().zip(&item.db) {
                *acc += g;
            }
        }
        Tensor::from_vec(ishape, dx_data)
    }

    fn out_shape(&self, input: Shape4) -> Result<Shape4> {
        let wshape = self.weight.shape();
        if input.c != wshape.c {
            return Err(TensorError::ShapeMismatch {
                left: input,
                right: wshape,
                op: "conv out_shape",
            });
        }
        let geom = mlcnn_tensor::ConvGeometry::new(
            input.h,
            input.w,
            wshape.h,
            wshape.w,
            self.stride,
            self.pad,
        )?;
        Ok(Shape4::new(input.n, wshape.n, geom.out_h, geom.out_w))
    }

    fn params(&mut self) -> Vec<ParamRef<'_>> {
        vec![
            ParamRef {
                value: &mut self.weight,
                grad: &mut self.w_grad,
            },
            ParamRef {
                value: &mut self.bias,
                grad: &mut self.b_grad,
            },
        ]
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn transform_weights(&mut self, f: &dyn Fn(&Tensor<f32>) -> Tensor<f32>) {
        self.weight = f(&self.weight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(in_ch: usize, out_ch: usize, k: usize, stride: usize, pad: usize) -> Conv2dLayer {
        let mut rng = init::rng(7);
        Conv2dLayer::new("c", in_ch, out_ch, k, stride, pad, &mut rng)
    }

    #[test]
    fn forward_shape_and_param_count() {
        let mut l = layer(3, 8, 3, 1, 1);
        assert_eq!(l.param_count(), 8 * 3 * 3 * 3 + 8);
        let x = Tensor::zeros(Shape4::new(2, 3, 8, 8));
        let y = l.forward(&x, false).unwrap();
        assert_eq!(y.shape(), Shape4::new(2, 8, 8, 8));
        assert_eq!(l.out_shape(x.shape()).unwrap(), y.shape());
    }

    /// Numeric gradient check of every parameter and the input, on a tiny
    /// problem. This is the strongest correctness guarantee we have for
    /// the whole training substrate.
    #[test]
    fn gradient_check() {
        let mut rng = init::rng(11);
        let mut l = Conv2dLayer::new("c", 2, 3, 2, 1, 0, &mut rng);
        let x = init::uniform(Shape4::new(2, 2, 4, 4), -1.0, 1.0, &mut rng);
        // scalar objective: sum of outputs weighted by a fixed random mask
        let y0 = l.forward(&x, true).unwrap();
        let mask = init::uniform(y0.shape(), -1.0, 1.0, &mut rng);
        let dx = l.backward(&mask).unwrap();

        let objective = |l: &mut Conv2dLayer, x: &Tensor<f32>| -> f32 {
            let y = l.forward(x, false).unwrap();
            y.as_slice()
                .iter()
                .zip(mask.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let eps = 1e-3_f32;

        // input gradient
        for probe in [0usize, 7, 23, 63] {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let up = objective(&mut l, &xp);
            xp.as_mut_slice()[probe] -= 2.0 * eps;
            let dn = objective(&mut l, &xp);
            let numeric = (up - dn) / (2.0 * eps);
            let analytic = dx.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "input grad at {probe}: numeric {numeric} vs analytic {analytic}"
            );
        }

        // weight gradient
        let w_grad = l.w_grad.clone();
        for probe in [0usize, 5, 11, 23] {
            let orig = l.weight.as_slice()[probe];
            l.weight.as_mut_slice()[probe] = orig + eps;
            let up = objective(&mut l, &x);
            l.weight.as_mut_slice()[probe] = orig - eps;
            let dn = objective(&mut l, &x);
            l.weight.as_mut_slice()[probe] = orig;
            let numeric = (up - dn) / (2.0 * eps);
            let analytic = w_grad.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "weight grad at {probe}: numeric {numeric} vs analytic {analytic}"
            );
        }

        // bias gradient
        let b_grad = l.b_grad.clone();
        for probe in 0..3 {
            let orig = l.bias.as_slice()[probe];
            l.bias.as_mut_slice()[probe] = orig + eps;
            let up = objective(&mut l, &x);
            l.bias.as_mut_slice()[probe] = orig - eps;
            let dn = objective(&mut l, &x);
            l.bias.as_mut_slice()[probe] = orig;
            let numeric = (up - dn) / (2.0 * eps);
            let analytic = b_grad.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "bias grad at {probe}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn gradient_check_with_stride_and_padding() {
        let mut rng = init::rng(13);
        let mut l = Conv2dLayer::new("c", 1, 2, 3, 2, 1, &mut rng);
        let x = init::uniform(Shape4::new(1, 1, 5, 5), -1.0, 1.0, &mut rng);
        let y0 = l.forward(&x, true).unwrap();
        let mask = init::uniform(y0.shape(), -1.0, 1.0, &mut rng);
        let dx = l.backward(&mask).unwrap();
        let eps = 1e-3_f32;
        let objective = |l: &mut Conv2dLayer, x: &Tensor<f32>| -> f32 {
            let y = l.forward(x, false).unwrap();
            y.as_slice()
                .iter()
                .zip(mask.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        for probe in [0usize, 6, 12, 24] {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let up = objective(&mut l, &xp);
            xp.as_mut_slice()[probe] -= 2.0 * eps;
            let dn = objective(&mut l, &xp);
            let numeric = (up - dn) / (2.0 * eps);
            assert!(
                (numeric - dx.as_slice()[probe]).abs() < 2e-2,
                "probe {probe}"
            );
        }
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = init::rng(17);
        let mut l = Conv2dLayer::new("c", 1, 1, 2, 1, 0, &mut rng);
        let x = init::uniform(Shape4::new(1, 1, 3, 3), -1.0, 1.0, &mut rng);
        let ones = Tensor::full(Shape4::new(1, 1, 2, 2), 1.0f32);
        l.forward(&x, true).unwrap();
        l.backward(&ones).unwrap();
        let g1 = l.w_grad.clone();
        l.forward(&x, true).unwrap();
        l.backward(&ones).unwrap();
        assert!(l.w_grad.approx_eq(&g1.scale(2.0), 1e-5));
        l.zero_grad();
        assert_eq!(l.w_grad.sum(), 0.0);
        assert_eq!(l.b_grad.sum(), 0.0);
    }

    #[test]
    fn backward_rejects_wrong_grad_shape() {
        let mut l = layer(1, 1, 2, 1, 0);
        let x = Tensor::zeros(Shape4::new(1, 1, 4, 4));
        l.forward(&x, true).unwrap();
        let bad = Tensor::zeros(Shape4::new(1, 1, 2, 2));
        assert!(l.backward(&bad).is_err());
    }

    #[test]
    fn set_weight_validates_shape() {
        let mut l = layer(1, 1, 2, 1, 0);
        assert!(l.set_weight(Tensor::zeros(Shape4::new(1, 1, 2, 2))).is_ok());
        assert!(l
            .set_weight(Tensor::zeros(Shape4::new(1, 1, 3, 3)))
            .is_err());
    }
}
