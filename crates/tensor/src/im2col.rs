//! im2col / col2im lowering.
//!
//! `im2col` unrolls the sliding convolution windows of an input feature map
//! into the columns of a matrix so that convolution becomes a single GEMM —
//! the classic lowering used by the DCNN baseline accelerator's software
//! model. The forward convolution no longer materializes that matrix for
//! unit stride (see [`crate::conv::conv2d_into`]); what still does is the
//! convolution backward pass in `mlcnn-nn` (`dW = dY · colsᵀ`) and the
//! forward fallback for stride > 1. `col2im` is the scatter-add adjoint,
//! needed for the input gradient.

use crate::scalar::Scalar;
use crate::shape::ConvGeometry;
use crate::tensor::Tensor;

/// Unroll one batch item into a `(c*k_h*k_w) × (out_h*out_w)` row-major
/// matrix. Input positions that fall in the zero-padding contribute zeros.
pub fn im2col<T: Scalar>(input: &Tensor<T>, n: usize, geom: &ConvGeometry) -> Vec<T> {
    let shape = input.shape();
    let item_len = shape.c * shape.h * shape.w;
    let item = &input.as_slice()[n * item_len..(n + 1) * item_len];
    let mut out = vec![T::zero(); shape.c * geom.taps() * geom.out_len()];
    im2col_into(item, shape.c, geom, &mut out);
    out
}

/// Output positions `lo..hi` along one axis whose tap `k` lands inside the
/// un-padded input extent: `0 <= o·stride + k − pad < input`.
fn valid_span(input: usize, out: usize, k: usize, stride: usize, pad: usize) -> (usize, usize) {
    let lo = pad.saturating_sub(k).div_ceil(stride).min(out);
    let hi = (input + pad).saturating_sub(k).div_ceil(stride).min(out);
    (lo, hi.max(lo))
}

/// Allocation-free [`im2col`] over a raw `channels × in_h × in_w` item
/// slice; every position of `out` is written (padding taps become zeros),
/// so the buffer may be reused without clearing. Each matrix row is built
/// one output row at a time: the pad edges are filled and the span between
/// them copied (or gathered, for stride > 1), with no per-element bounds
/// branch. Runs on the calling thread — callers parallelize over items.
pub fn im2col_into<T: Scalar>(item: &[T], channels: usize, geom: &ConvGeometry, out: &mut [T]) {
    let cols = geom.out_len();
    let plane_len = geom.in_h * geom.in_w;
    assert_eq!(
        item.len(),
        channels * plane_len,
        "item buffer/geom mismatch"
    );
    assert_eq!(
        out.len(),
        channels * geom.taps() * cols,
        "col matrix size mismatch"
    );
    for (r, dst) in out.chunks_exact_mut(cols.max(1)).enumerate() {
        let (c, tap) = (r / geom.taps(), r % geom.taps());
        let (kh, kw) = (tap / geom.k_w, tap % geom.k_w);
        let plane = &item[c * plane_len..(c + 1) * plane_len];
        let (oh_lo, oh_hi) = valid_span(geom.in_h, geom.out_h, kh, geom.stride, geom.pad);
        let (ow_lo, ow_hi) = valid_span(geom.in_w, geom.out_w, kw, geom.stride, geom.pad);
        for (oh, drow) in dst.chunks_exact_mut(geom.out_w).enumerate() {
            if oh < oh_lo || oh >= oh_hi || ow_lo == ow_hi {
                drow.fill(T::zero());
                continue;
            }
            let ih = oh * geom.stride + kh - geom.pad;
            let first = ih * geom.in_w + ow_lo * geom.stride + kw - geom.pad;
            drow[..ow_lo].fill(T::zero());
            drow[ow_hi..].fill(T::zero());
            let span = &mut drow[ow_lo..ow_hi];
            if geom.stride == 1 {
                span.copy_from_slice(&plane[first..first + span.len()]);
            } else {
                for (d, &v) in span
                    .iter_mut()
                    .zip(plane[first..].iter().step_by(geom.stride))
                {
                    *d = v;
                }
            }
        }
    }
}

/// Scatter-add adjoint of [`im2col`]: fold a `(c*k_h*k_w) × (out_h*out_w)`
/// matrix back onto an input-shaped plane set, summing overlapping windows.
/// Contributions that would land in the padding ring are dropped.
pub fn col2im<T: Scalar>(cols_mat: &[T], channels: usize, geom: &ConvGeometry) -> Vec<T> {
    let cols = geom.out_len();
    let rows = channels * geom.taps();
    assert_eq!(cols_mat.len(), rows * cols, "col matrix size mismatch");
    let mut out = vec![T::zero(); channels * geom.in_h * geom.in_w];
    let pad = geom.pad as isize;
    for c in 0..channels {
        let plane = &mut out[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
        for kh in 0..geom.k_h {
            for kw in 0..geom.k_w {
                let row = (c * geom.k_h + kh) * geom.k_w + kw;
                let src = &cols_mat[row * cols..(row + 1) * cols];
                let mut col = 0;
                for oh in 0..geom.out_h {
                    let ih = (oh * geom.stride + kh) as isize - pad;
                    for ow in 0..geom.out_w {
                        let iw = (ow * geom.stride + kw) as isize - pad;
                        if ih >= 0
                            && iw >= 0
                            && (ih as usize) < geom.in_h
                            && (iw as usize) < geom.in_w
                        {
                            plane[ih as usize * geom.in_w + iw as usize] += src[col];
                        }
                        col += 1;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape4;

    fn seq_plane(h: usize, w: usize) -> Tensor<f32> {
        Tensor::from_fn(Shape4::hw(h, w), |_, _, r, c| (r * w + c) as f32 + 1.0)
    }

    #[test]
    fn im2col_3x3_input_2x2_kernel() {
        // input 1..9 in 3x3; 2x2 windows stride 1 -> 4 columns of 4 taps.
        let t = seq_plane(3, 3);
        let g = ConvGeometry::square(3, 2, 1).unwrap();
        let m = im2col(&t, 0, &g);
        // rows are taps (kh,kw), columns are output positions.
        // tap (0,0): 1 2 4 5 ; tap (0,1): 2 3 5 6 ; tap (1,0): 4 5 7 8 ; tap (1,1): 5 6 8 9
        assert_eq!(
            m,
            vec![1., 2., 4., 5., 2., 3., 5., 6., 4., 5., 7., 8., 5., 6., 8., 9.]
        );
    }

    #[test]
    fn im2col_respects_stride() {
        let t = seq_plane(4, 4);
        let g = ConvGeometry::square(4, 2, 2).unwrap();
        let m = im2col(&t, 0, &g);
        // windows at (0,0),(0,2),(2,0),(2,2): top-left taps 1,3,9,11.
        assert_eq!(&m[0..4], &[1.0, 3.0, 9.0, 11.0]);
    }

    #[test]
    fn im2col_zero_pads() {
        let t = seq_plane(2, 2);
        let g = ConvGeometry::new(2, 2, 3, 3, 1, 1).unwrap();
        assert_eq!((g.out_h, g.out_w), (2, 2));
        let m = im2col(&t, 0, &g);
        // tap (0,0) looks one up-left of each output: all in padding except
        // output (1,1) which reads input (0,0)=1.
        assert_eq!(&m[0..4], &[0.0, 0.0, 0.0, 1.0]);
        // center tap (1,1) reads the input directly.
        let center_row = (3 + 1) * 4; // tap (1,1) of the 3x3 kernel
        assert_eq!(&m[center_row..center_row + 4], &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn im2col_multichannel_stacks_rows() {
        let t = Tensor::from_fn(Shape4::new(1, 2, 2, 2), |_, c, h, w| {
            (c * 100 + h * 2 + w) as f32
        });
        let g = ConvGeometry::square(2, 2, 1).unwrap();
        let m = im2col(&t, 0, &g);
        assert_eq!(m.len(), 2 * 4); // 2 channels * 4 taps, 1 output col
        assert_eq!(m, vec![0., 1., 2., 3., 100., 101., 102., 103.]);
    }

    #[test]
    fn im2col_into_overwrites_dirty_buffers() {
        // the workspace reuses the scratch buffer across ops; padding taps
        // must be written as zeros, not assumed zero.
        let t = seq_plane(2, 2);
        let g = ConvGeometry::new(2, 2, 3, 3, 1, 1).unwrap();
        let fresh = im2col(&t, 0, &g);
        let mut dirty = vec![7.5_f32; fresh.len()];
        im2col_into(t.as_slice(), 1, &g, &mut dirty);
        assert_eq!(fresh, dirty);
    }

    #[test]
    fn im2col_into_matches_the_per_element_definition() {
        // edge fills + span copies against the obvious bounds-checked gather,
        // including rings wider than the kernel and strided spans
        for &(h, w, kh, kw, s, p) in &[
            (5usize, 7usize, 3usize, 3usize, 1usize, 1usize),
            (4, 4, 2, 3, 1, 2),
            (1, 2, 3, 3, 1, 2),
            (7, 6, 3, 3, 2, 1),
            (9, 5, 3, 2, 3, 2),
            (6, 6, 5, 5, 1, 0),
        ] {
            let g = ConvGeometry::new(h, w, kh, kw, s, p).unwrap();
            let t = Tensor::from_fn(Shape4::new(1, 2, h, w), |_, c, r, q| {
                (c * 100 + r * w + q) as f32 + 1.0
            });
            let got = im2col(&t, 0, &g);
            let mut want = Vec::with_capacity(got.len());
            for c in 0..2 {
                for tap in 0..g.taps() {
                    for o in 0..g.out_len() {
                        let ih = (o / g.out_w * s + tap / kw) as isize - p as isize;
                        let iw = (o % g.out_w * s + tap % kw) as isize - p as isize;
                        let inside = ih >= 0 && iw >= 0 && ih < h as isize && iw < w as isize;
                        want.push(if inside {
                            t.at(0, c, ih as usize, iw as usize)
                        } else {
                            0.0
                        });
                    }
                }
            }
            assert_eq!(got, want, "{h}x{w} k={kh}x{kw} s={s} p={p}");
        }
    }

    #[test]
    fn col2im_counts_window_coverage() {
        // Fold a matrix of ones: each input cell accumulates once per
        // window covering it. For 3x3 input / 2x2 kernel / stride 1 the
        // coverage map is 1 2 1 / 2 4 2 / 1 2 1.
        let g = ConvGeometry::square(3, 2, 1).unwrap();
        let ones = vec![1.0_f32; 4 * 4];
        let folded = col2im(&ones, 1, &g);
        assert_eq!(folded, vec![1., 2., 1., 2., 4., 2., 1., 2., 1.]);
    }

    #[test]
    fn col2im_drops_padding_contributions() {
        let g = ConvGeometry::new(2, 2, 3, 3, 1, 1).unwrap();
        let m = vec![1.0_f32; (3 * 3) * (2 * 2)];
        let folded = col2im(&m, 1, &g);
        // Every interior cell receives taps only from windows that overlap
        // it inside the valid area; total mass folded must be <= total mass
        // in the matrix (padding mass dropped).
        let total: f32 = folded.iter().sum();
        assert!(total < 36.0);
        assert!(total > 0.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint identity,
        // which is exactly what the conv backward pass relies on.
        let x = seq_plane(5, 5);
        let g = ConvGeometry::square(5, 3, 2).unwrap();
        let ix = im2col(&x, 0, &g);
        let y: Vec<f32> = (0..ix.len())
            .map(|i| ((i * 13 + 5) % 7) as f32 - 3.0)
            .collect();
        let lhs: f32 = ix.iter().zip(&y).map(|(a, b)| a * b).sum();
        let folded = col2im(&y, 1, &g);
        let rhs: f32 = x.as_slice().iter().zip(&folded).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }
}
