//! Convolution kernels.
//!
//! Two implementations of the same contract:
//!
//! * [`conv2d_direct`] — the obviously-correct seven-loop reference. Every
//!   other convolution in the repo (the column-free kernel below, the MLCNN
//!   fused conv-pool, the quantized kernels, the accelerator functional
//!   model) is tested against it.
//! * [`conv2d_into`] — the one forward implementation: a GEMM over
//!   [`gemm_windows`] whose right-hand matrix is never built. For unit
//!   stride the item is copied once into a zero-ringed plane set
//!   (`c × (h+2p) × (w+2p)`); in *padded-width* output coordinates
//!   `j = oh·(w+2p) + ow`, row `(c, kh, kw)` of the virtual column matrix is
//!   then the contiguous window starting at `(c·(h+2p) + kh)·(w+2p) + kw`,
//!   and the `k_w − 1` columns per output row that straddle two image rows
//!   are dropped when tiles are written out (bias added in the same
//!   write). Stride `s > 1` splits each padded plane into *phase planes*
//!   of `⌈(h+2p)/s⌉ × ⌈(w+2p)/s⌉`: phase `(a, b)` holds the padded pixels
//!   `(s·r + a, s·q + b)`, so output `(oh, ow)` of tap `(kh, kw)` is pixel
//!   `(oh + kh div s, ow + kw div s)` of phase `(kh mod s, kw mod s)` — a
//!   unit-stride window again, with the phase-plane width as the row pitch.
//!   Only the `min(s, k)` phases per axis that some tap reads are staged,
//!   and unit stride is the one-phase case. [`conv2d_im2col`] (the name
//!   predates the column-free kernel) is the batch-parallel tensor wrapper
//!   the trainable conv layer calls; [`im2col_into`](crate::im2col::im2col_into)
//!   stays for the backward pass and as the bitwise oracle.
//!
//! Every output element is accumulated over `(c, kh, kw)` in ascending
//! order with padding taps contributing `a·0`, exactly like im2col followed
//! by the scalar GEMM loop, so the two are bitwise identical at every
//! stride.
//!
//! Weights are `M × N × K × K` (out-channels × in-channels × kernel), inputs
//! `B × N × H × W`, matching the paper's Figure 1 notation.

use crate::error::TensorError;
use crate::linalg::gemm_windows;
use crate::scalar::Scalar;
use crate::shape::{ConvGeometry, Shape4};
use crate::tensor::Tensor;
use crate::Result;
use rayon::prelude::*;

/// Validate operand shapes and derive the output geometry for a conv call.
pub fn conv_geometry<T: Scalar>(
    input: &Tensor<T>,
    weight: &Tensor<T>,
    stride: usize,
    pad: usize,
) -> Result<ConvGeometry> {
    let ishape = input.shape();
    let wshape = weight.shape();
    if ishape.c != wshape.c {
        return Err(TensorError::ShapeMismatch {
            left: ishape,
            right: wshape,
            op: "conv2d (input channels vs weight in-channels)",
        });
    }
    if wshape.h != wshape.w {
        return Err(TensorError::BadGeometry {
            reason: format!(
                "only square kernels supported, got {}x{}",
                wshape.h, wshape.w
            ),
        });
    }
    ConvGeometry::new(ishape.h, ishape.w, wshape.h, wshape.w, stride, pad)
}

/// Direct (naïve) 2-D convolution with optional per-output-channel bias.
///
/// This is the reference semantics for the whole repository: cross-
/// correlation (no kernel flip), zero padding, floor-division output
/// extent.
pub fn conv2d_direct<T: Scalar>(
    input: &Tensor<T>,
    weight: &Tensor<T>,
    bias: Option<&[T]>,
    stride: usize,
    pad: usize,
) -> Result<Tensor<T>> {
    let geom = conv_geometry(input, weight, stride, pad)?;
    let ishape = input.shape();
    let wshape = weight.shape();
    if let Some(b) = bias {
        if b.len() != wshape.n {
            return Err(TensorError::BadGeometry {
                reason: format!("bias length {} != out channels {}", b.len(), wshape.n),
            });
        }
    }
    let out_shape = Shape4::new(ishape.n, wshape.n, geom.out_h, geom.out_w);
    let mut out = Tensor::zeros(out_shape);
    let pad = pad as isize;
    for n in 0..ishape.n {
        for m in 0..wshape.n {
            let b = bias.map_or(T::zero(), |b| b[m]);
            for oh in 0..geom.out_h {
                for ow in 0..geom.out_w {
                    let mut acc = T::zero();
                    for c in 0..ishape.c {
                        for kh in 0..geom.k_h {
                            let ih = (oh * stride + kh) as isize - pad;
                            if ih < 0 || ih as usize >= geom.in_h {
                                continue;
                            }
                            for kw in 0..geom.k_w {
                                let iw = (ow * stride + kw) as isize - pad;
                                if iw < 0 || iw as usize >= geom.in_w {
                                    continue;
                                }
                                acc += input.at(n, c, ih as usize, iw as usize)
                                    * weight.at(m, c, kh, kw);
                            }
                        }
                    }
                    *out.at_mut(n, m, oh, ow) = acc + b;
                }
            }
        }
    }
    Ok(out)
}

/// Phase planes per channel along each axis and the extent of one plane,
/// `[phases_h, phases_w, plane_h, plane_w]`: a stride-`s` conv reads padded
/// row `s·oh + kh`, which is row `oh + kh div s` of phase `kh mod s` (the
/// same for columns), so `min(s, k)` phases per axis hold every tap. Unit
/// stride is the single zero-ringed plane. `None` when a size leaves
/// `usize`.
fn phases(geom: &ConvGeometry) -> Option<[usize; 4]> {
    let (s, ring) = (geom.stride, geom.pad.checked_mul(2)?);
    Some([
        s.min(geom.k_h),
        s.min(geom.k_w),
        geom.in_h.checked_add(ring)?.div_ceil(s),
        geom.in_w.checked_add(ring)?.div_ceil(s),
    ])
}

/// Scratch elements [`conv2d_into`] needs for `channels` input planes of
/// `geom`: the phase planes (the zero-ringed plane set for unit stride),
/// or nothing for an unpadded unit-stride convolution, which reads the
/// item in place. `None` when the size leaves `usize`.
pub fn conv_scratch_len(channels: usize, geom: &ConvGeometry) -> Option<usize> {
    if geom.stride == 1 && geom.pad == 0 {
        return Some(0);
    }
    let [qh, qw, ph, pw] = phases(geom)?;
    channels
        .checked_mul(qh.checked_mul(qw)?)?
        .checked_mul(ph)?
        .checked_mul(pw)
}

/// Where each row `(c, kh, kw)` of the virtual column matrix starts in the
/// buffer [`conv2d_into`] multiplies against: pixel `(kh div s, kw div s)`
/// of phase plane `(kh mod s, kw mod s)` of channel `c` (for unit stride, a
/// window of the padded plane set, or of the item itself when unpadded).
/// Depends on the geometry only, so the execution plan computes it once at
/// compile.
pub fn conv_tap_offsets(channels: usize, geom: &ConvGeometry) -> Vec<usize> {
    let [qh, qw, ph, pw] = phases(geom).expect("conv geometry extents fit usize");
    let s = geom.stride;
    (0..channels * geom.taps())
        .map(|p| {
            let (c, tap) = (p / geom.taps(), p % geom.taps());
            let (kh, kw) = (tap / geom.k_w, tap % geom.k_w);
            let plane = (c * qh + kh % s) * qw + kw % s;
            (plane * ph + kh / s) * pw + kw / s
        })
        .collect()
}

/// Copy one `channels × in_h × in_w` item into the phase planes of a
/// strided `geom` (see [`conv_tap_offsets`]): phase `(a, b)` of a channel
/// holds padded pixel `(s·r + a, s·q + b)` at `(r, q)`, and zero in the
/// ring and past the padded edge. Writes every element of `staged`, so
/// stale contents never reach a product.
fn stage_phase_planes<T: Scalar>(
    item: &[T],
    channels: usize,
    geom: &ConvGeometry,
    staged: &mut [T],
) {
    let [qh, qw, ph, pw] = phases(geom).expect("conv geometry extents fit usize");
    let (s, pad) = (geom.stride, geom.pad);
    // the cells `lo..hi` of a phase-plane axis at phase `a` whose padded
    // pixel `s·cell + a` lies inside an image extent of `len`
    let inside = |a: usize, len: usize, cells: usize| {
        let lo = pad.saturating_sub(a).div_ceil(s).min(cells);
        let hi = (pad + len).saturating_sub(a).div_ceil(s).clamp(lo, cells);
        (lo, hi)
    };
    let mut planes = staged.chunks_exact_mut(ph * pw);
    for src in item.chunks_exact(geom.in_h * geom.in_w).take(channels) {
        for a in 0..qh {
            let (r0, r1) = inside(a, geom.in_h, ph);
            for b in 0..qw {
                let (q0, q1) = inside(b, geom.in_w, pw);
                let plane = planes.next().expect("scratch sized by conv_scratch_len");
                let (ring_top, rest) = plane.split_at_mut(r0 * pw);
                let (body, ring_bottom) = rest.split_at_mut((r1 - r0) * pw);
                ring_top.fill(T::zero());
                ring_bottom.fill(T::zero());
                let x0 = (s * q0 + b).saturating_sub(pad);
                for (r, row) in (r0..).zip(body.chunks_exact_mut(pw)) {
                    let src_row = &src[(s * r + a - pad) * geom.in_w..][..geom.in_w];
                    row[..q0].fill(T::zero());
                    for (q, d) in row[q0..q1].iter_mut().enumerate() {
                        *d = src_row[x0 + q * s];
                    }
                    row[q1..].fill(T::zero());
                }
            }
        }
    }
}

/// Column-free convolution of every `channels × in_h × in_w` item in `src`
/// with `weight` (`out_ch × channels·k_h·k_w`, row-major), writing
/// `out_ch × out_h × out_w` per item into `dst` (overwritten). `taps` is
/// [`conv_tap_offsets`] and `scratch` holds at least [`conv_scratch_len`]
/// elements for the same `(channels, geom)`; stale scratch contents are
/// fine. See the [module docs](self) for the indexing and why the result is
/// bit-identical to im2col + scalar GEMM.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_into<T: Scalar>(
    src: &[T],
    channels: usize,
    geom: &ConvGeometry,
    weight: &[T],
    bias: Option<&[T]>,
    taps: &[usize],
    scratch: &mut [T],
    dst: &mut [T],
) {
    let k = channels * geom.taps();
    let out_len = geom.out_len();
    let in_item = channels * geom.in_h * geom.in_w;
    assert!(in_item > 0, "empty input item");
    assert_eq!(taps.len(), k, "tap table/geom mismatch");
    assert!(
        weight.len().is_multiple_of(k),
        "weight buffer/geom mismatch"
    );
    let m = weight.len() / k;
    assert!(bias.is_none_or(|b| b.len() == m), "bias/weight mismatch");
    let batch = src.len() / in_item;
    assert_eq!(src.len(), batch * in_item, "input buffer/geom mismatch");
    assert_eq!(
        dst.len(),
        batch * m * out_len,
        "output buffer/geom mismatch"
    );

    let unit = geom.stride == 1;
    let (ph, pw) = (geom.in_h + 2 * geom.pad, geom.in_w + 2 * geom.pad);
    // the phase planes, the zero-ringed planes, or (unpadded) nothing
    let staged_len = conv_scratch_len(channels, geom).expect("caller sized the scratch");
    let staged = &mut scratch[..staged_len];
    // GEMM width and the pitch of one output row inside it: padded-width
    // coordinates for unit stride, phase-plane-width ones otherwise
    let (n, pitch) = if unit {
        ((geom.out_h - 1) * pw + geom.out_w, pw)
    } else {
        let qw = pw.div_ceil(geom.stride);
        ((geom.out_h - 1) * qw + geom.out_w, qw)
    };
    if unit {
        staged.fill(T::zero()); // the ring; items only overwrite interiors
    }

    for (item, out) in src
        .chunks_exact(in_item)
        .zip(dst.chunks_exact_mut((m * out_len).max(1)))
    {
        let b: &[T] = if !unit {
            stage_phase_planes(item, channels, geom, staged);
            staged
        } else if geom.pad == 0 {
            item
        } else {
            let planes = item.chunks_exact(geom.in_h * geom.in_w);
            for (plane, padded) in planes.zip(staged.chunks_exact_mut(ph * pw)) {
                let rows = padded.chunks_exact_mut(pw).skip(geom.pad);
                for (row, prow) in plane.chunks_exact(geom.in_w).zip(rows) {
                    prow[geom.pad..geom.pad + geom.in_w].copy_from_slice(row);
                }
            }
            staged
        };
        gemm_windows(
            weight,
            m,
            k,
            b,
            |p| taps[p],
            n,
            |ch, j0, mut vals| {
                // vals covers columns j0.. of the GEMM; keep the first
                // out_w of every pitch-wide row
                let plane = &mut out[ch * out_len..(ch + 1) * out_len];
                let (mut oh, mut ow) = (j0 / pitch, j0 % pitch);
                while !vals.is_empty() {
                    let take = (pitch - ow).min(vals.len());
                    let keep = geom.out_w.saturating_sub(ow).min(take);
                    if keep > 0 {
                        let run = &mut plane[oh * geom.out_w + ow..][..keep];
                        match bias {
                            Some(bias) => {
                                for (d, &v) in run.iter_mut().zip(vals) {
                                    *d = v + bias[ch];
                                }
                            }
                            None => run.copy_from_slice(&vals[..keep]),
                        }
                    }
                    vals = &vals[take..];
                    (oh, ow) = (oh + 1, 0);
                }
            },
        );
    }
}

/// Batched convolution over tensors through [`conv2d_into`]; the batch is
/// split into one contiguous run of items per rayon worker, each with its
/// own scratch. Semantics identical to [`conv2d_direct`].
pub fn conv2d_im2col<T: Scalar>(
    input: &Tensor<T>,
    weight: &Tensor<T>,
    bias: Option<&[T]>,
    stride: usize,
    pad: usize,
) -> Result<Tensor<T>> {
    let geom = conv_geometry(input, weight, stride, pad)?;
    let ishape = input.shape();
    let wshape = weight.shape();
    if let Some(b) = bias {
        if b.len() != wshape.n {
            return Err(TensorError::BadGeometry {
                reason: format!("bias length {} != out channels {}", b.len(), wshape.n),
            });
        }
    }
    let in_item = ishape.c * ishape.h * ishape.w;
    if in_item == 0 {
        return Err(TensorError::BadGeometry {
            reason: format!("convolution over an empty input item {ishape}"),
        });
    }
    let scratch_len =
        conv_scratch_len(ishape.c, &geom).ok_or_else(|| TensorError::BadGeometry {
            reason: "convolution scratch size overflows usize".into(),
        })?;
    let taps = conv_tap_offsets(ishape.c, &geom);
    let out_item = wshape.n * geom.out_len();
    let mut out = Tensor::zeros(Shape4::new(ishape.n, wshape.n, geom.out_h, geom.out_w));
    let per_worker = ishape.n.div_ceil(rayon::current_num_threads()).max(1);
    out.as_mut_slice()
        .par_chunks_mut((per_worker * out_item).max(1))
        .enumerate()
        .for_each(|(w, dst)| {
            let first = w * per_worker * in_item;
            let src = &input.as_slice()[first..first + dst.len() / out_item * in_item];
            let mut scratch = vec![T::zero(); scratch_len];
            conv2d_into(
                src,
                ishape.c,
                &geom,
                weight.as_slice(), // already M × (N*K*K) row-major
                bias,
                &taps,
                &mut scratch,
                dst,
            );
        });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::im2col::im2col_into;
    use crate::init;

    #[test]
    fn direct_1x1_kernel_is_channel_mix() {
        // 1x1 conv over 2 channels == per-pixel weighted channel sum.
        let input = Tensor::from_fn(Shape4::new(1, 2, 2, 2), |_, c, h, w| {
            (c * 10 + h * 2 + w) as f32
        });
        let weight = Tensor::from_vec(Shape4::new(1, 2, 1, 1), vec![2.0, 3.0]).unwrap();
        let out = conv2d_direct(&input, &weight, None, 1, 0).unwrap();
        for h in 0..2 {
            for w in 0..2 {
                let expect = 2.0 * input.at(0, 0, h, w) + 3.0 * input.at(0, 1, h, w);
                assert_eq!(out.at(0, 0, h, w), expect);
            }
        }
    }

    #[test]
    fn direct_matches_hand_computed_2x2() {
        // Paper Fig. 5 setup: 5x5 input, 2x2 filter, unit stride.
        let input = Tensor::from_fn(Shape4::hw(5, 5), |_, _, h, w| (h * 5 + w) as f32);
        let weight = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, -1.0, 0.5, 2.0]).unwrap();
        let out = conv2d_direct(&input, &weight, None, 1, 0).unwrap();
        assert_eq!(out.shape(), Shape4::new(1, 1, 4, 4));
        // C00 = 1*0 -1*1 +0.5*5 +2*6 = 13.5
        assert_eq!(out.at(0, 0, 0, 0), 13.5);
        // C11 = 1*6 -1*7 +0.5*11 +2*12 = 28.5
        assert_eq!(out.at(0, 0, 1, 1), 28.5);
    }

    #[test]
    fn bias_is_added_per_output_channel() {
        let input = Tensor::full(Shape4::hw(3, 3), 1.0_f32);
        let weight = Tensor::full(Shape4::new(2, 1, 2, 2), 1.0_f32);
        let out = conv2d_direct(&input, &weight, Some(&[10.0, 20.0]), 1, 0).unwrap();
        assert_eq!(out.at(0, 0, 0, 0), 14.0);
        assert_eq!(out.at(0, 1, 0, 0), 24.0);
    }

    #[test]
    fn bad_bias_length_rejected() {
        let input = Tensor::full(Shape4::hw(3, 3), 1.0_f32);
        let weight = Tensor::full(Shape4::new(2, 1, 2, 2), 1.0_f32);
        assert!(conv2d_direct(&input, &weight, Some(&[1.0]), 1, 0).is_err());
        assert!(conv2d_im2col(&input, &weight, Some(&[1.0]), 1, 0).is_err());
    }

    #[test]
    fn channel_mismatch_rejected() {
        let input = Tensor::<f32>::zeros(Shape4::new(1, 3, 4, 4));
        let weight = Tensor::<f32>::zeros(Shape4::new(2, 2, 3, 3));
        assert!(conv2d_direct(&input, &weight, None, 1, 0).is_err());
    }

    #[test]
    fn im2col_path_matches_direct_randomized() {
        let mut rng = init::rng(42);
        for &(b, cin, cout, d, k, s, p) in &[
            (1usize, 1usize, 1usize, 5usize, 2usize, 1usize, 0usize),
            (2, 3, 4, 8, 3, 1, 1),
            (1, 2, 2, 9, 3, 2, 0),
            (3, 4, 8, 7, 5, 1, 2),
            (1, 1, 1, 6, 6, 1, 0),
        ] {
            let input = init::uniform(Shape4::new(b, cin, d, d), -1.0, 1.0, &mut rng);
            let weight = init::uniform(Shape4::new(cout, cin, k, k), -1.0, 1.0, &mut rng);
            let bias: Vec<f32> = (0..cout).map(|i| i as f32 * 0.1).collect();
            let a = conv2d_direct(&input, &weight, Some(&bias), s, p).unwrap();
            let bt = conv2d_im2col(&input, &weight, Some(&bias), s, p).unwrap();
            assert!(
                a.approx_eq(&bt, 1e-4),
                "mismatch at b={b} cin={cin} cout={cout} d={d} k={k} s={s} p={p}: {}",
                a.max_abs_diff(&bt).unwrap()
            );
        }
    }

    /// im2col followed by the scalar ikj GEMM and a bias pass — the forward
    /// path `conv2d_into` replaced, kept as its bitwise oracle.
    fn conv_via_columns(
        item: &[f32],
        channels: usize,
        geom: &ConvGeometry,
        weight: &[f32],
        bias: &[f32],
    ) -> Vec<f32> {
        let (k, n) = (channels * geom.taps(), geom.out_len());
        let mut cols = vec![0.0_f32; k * n];
        im2col_into(item, channels, geom, &mut cols);
        let mut out = vec![0.0_f32; bias.len() * n];
        for (i, row) in out.chunks_exact_mut(n).enumerate() {
            for p in 0..k {
                for (o, &c) in row.iter_mut().zip(&cols[p * n..(p + 1) * n]) {
                    *o += weight[i * k + p] * c;
                }
            }
            for o in row.iter_mut() {
                *o += bias[i];
            }
        }
        out
    }

    #[test]
    fn column_free_kernel_is_bitwise_im2col_gemm() {
        let mut rng = init::rng(7);
        // (cin, cout, h, w, k, stride, pad): unpadded in place, padded
        // ring, wide ring, phase planes, 1x1, full window, ragged tiles,
        // a stride wider than the kernel, an odd padded extent
        for &(cin, cout, h, w, k, s, p) in &[
            (1usize, 1usize, 5usize, 5usize, 2usize, 1usize, 0usize),
            (3, 4, 6, 9, 3, 1, 1),
            (2, 5, 7, 4, 5, 1, 2),
            (2, 3, 9, 8, 3, 2, 1),
            (4, 7, 5, 6, 1, 1, 0),
            (3, 2, 4, 4, 4, 1, 0),
            (1, 13, 3, 21, 3, 1, 1),
            (2, 2, 8, 8, 2, 3, 0),
            (3, 2, 7, 11, 3, 4, 2),
            (2, 3, 9, 8, 5, 2, 2),
        ] {
            let geom = ConvGeometry::new(h, w, k, k, s, p).unwrap();
            let input = init::uniform(Shape4::new(2, cin, h, w), -1.0, 1.0, &mut rng);
            let weight = init::uniform(Shape4::new(cout, cin, k, k), -1.0, 1.0, &mut rng);
            let bias: Vec<f32> = (0..cout).map(|i| i as f32 * 0.3 - 0.7).collect();
            let taps = conv_tap_offsets(cin, &geom);
            // stale scratch: the ring must be rewritten, not assumed zero
            let mut scratch = vec![f32::NAN; conv_scratch_len(cin, &geom).unwrap()];
            let mut got = vec![f32::NAN; 2 * cout * geom.out_len()];
            conv2d_into(
                input.as_slice(),
                cin,
                &geom,
                weight.as_slice(),
                Some(&bias),
                &taps,
                &mut scratch,
                &mut got,
            );
            let want: Vec<f32> = input
                .as_slice()
                .chunks_exact(cin * h * w)
                .flat_map(|item| conv_via_columns(item, cin, &geom, weight.as_slice(), &bias))
                .collect();
            let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&got),
                bits(&want),
                "cin={cin} cout={cout} {h}x{w} k={k} s={s} p={p}"
            );
        }
    }

    #[test]
    fn scratch_is_the_padded_planes_or_the_columns() {
        let g = |s, p| ConvGeometry::new(6, 8, 3, 3, s, p).unwrap();
        assert_eq!(conv_scratch_len(4, &g(1, 0)), Some(0));
        assert_eq!(conv_scratch_len(4, &g(1, 1)), Some(4 * 8 * 10));
        // stride 2 over the 8×10 padded planes: 2×2 phases of 4×5 each
        assert_eq!(conv_scratch_len(4, &g(2, 1)), Some(4 * 4 * 4 * 5));
        // stride 4 > k = 3: only the 3×3 phases a tap reads, of 2×3 each
        assert_eq!(conv_scratch_len(4, &g(4, 1)), Some(4 * 9 * 2 * 3));
        assert_eq!(conv_scratch_len(usize::MAX, &g(1, 1)), None);
    }

    #[test]
    fn stride_2_halves_extent() {
        let input = Tensor::<f32>::zeros(Shape4::new(1, 1, 8, 8));
        let weight = Tensor::full(Shape4::new(1, 1, 2, 2), 1.0_f32);
        let out = conv2d_direct(&input, &weight, None, 2, 0).unwrap();
        assert_eq!((out.shape().h, out.shape().w), (4, 4));
    }

    #[test]
    fn integer_conv_is_exact() {
        let input =
            Tensor::from_fn(Shape4::hw(4, 4), |_, _, h, w| (h * 4 + w) as f32).cast::<i64>();
        let weight = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![1_i64, 2, 3, 4]).unwrap();
        let direct = conv2d_direct(&input, &weight, None, 1, 0).unwrap();
        let gemm = conv2d_im2col(&input, &weight, None, 1, 0).unwrap();
        assert_eq!(direct, gemm);
        // top-left window 0,1,4,5 -> 0+2+12+20 = 34
        assert_eq!(direct.at(0, 0, 0, 0), 34);
    }
}
