//! The fused convolution–pooling operator (paper Section IV, Algorithm 1).
//!
//! After reordering, `conv → avg-pool → ReLU` is a linear pipeline up to
//! the final activation, so the pooling sum can be pushed *through* the
//! convolution: with a `p × p` (stride `p`) average pool over a stride-`S`
//! convolution,
//!
//! ```text
//! p²·P[x,y] = Σ_{i,j} W[i,j] · G[p·x·S + i][p·y·S + j]
//! G[a][b]   = Σ_{dy<p} Σ_{dx<p} I[a + dy·S][b + dx·S]
//! ```
//!
//! The kernel therefore runs Algorithm 1's three phases:
//! 1. **half addition** — vertical `p`-sums `HA[a][b] = Σ_dy I[a+dy·S][b]`;
//! 2. **full addition** — horizontal combine `G[a][b] = Σ_dx HA[a][b+dx·S]`
//!    (the LAR/GAR-shared block-sum plane);
//! 3. **MAC** — one multiplication per weight per *pooled* output (RME:
//!    `1 − 1/p²` of the dense multiplications are gone). The sum over
//!    `(c, i, j)` is a plain convolution of the `G` planes with kernel `k`,
//!    stride `p·S` and no padding, so it runs on the same column-free GEMM
//!    as every regular conv ([`conv2d_into`], which stages the strided `G`
//!    as phase planes) and adds its taps in the same ascending order. One
//!    pass over the output then applies the preprocessing unit's
//!    divide-by-`p²`, bias add and ReLU.
//!
//! Phases 1–2 are slice additions over whole rows (whole planes where the
//! rows are contiguous), each element summed in the order of the formulas
//! above. All temporaries are exact slices of one scratch
//! buffer of [`FusedGeometry::scratch_len`] elements, which the execution
//! plan carves out of its workspace.
//!
//! Functional equivalence with `relu(avg_pool(conv(x)))` is exact in
//! integer arithmetic (modulo the deferred division, see
//! [`FusedConvPool::with_divide`]) and within rounding noise at `f32`.

use mlcnn_tensor::conv::{conv2d_direct, conv2d_into, conv_scratch_len, conv_tap_offsets};
use mlcnn_tensor::pool::{avg_pool2d, sum_pool2d};
use mlcnn_tensor::{ConvGeometry, Result, Scalar, Shape4, Tensor, TensorError};
use rayon::prelude::*;

/// Geometry of a fused conv-pool layer, all derived quantities included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedGeometry {
    /// Input spatial height/width (pre padding).
    pub in_h: usize,
    /// Input spatial width.
    pub in_w: usize,
    /// Kernel extent.
    pub k: usize,
    /// Convolution stride.
    pub conv_stride: usize,
    /// Zero padding.
    pub pad: usize,
    /// Pool window == pool stride.
    pub pool: usize,
    /// Conv output height.
    pub conv_h: usize,
    /// Conv output width.
    pub conv_w: usize,
    /// Pooled output height.
    pub out_h: usize,
    /// Pooled output width.
    pub out_w: usize,
}

impl FusedGeometry {
    /// Derive and validate the geometry.
    pub fn new(
        in_h: usize,
        in_w: usize,
        k: usize,
        conv_stride: usize,
        pad: usize,
        pool: usize,
    ) -> Result<Self> {
        if conv_stride == 0 || pool == 0 || k == 0 {
            return Err(TensorError::BadGeometry {
                reason: "fused geometry requires nonzero kernel/stride/pool".into(),
            });
        }
        let padded_h = in_h + 2 * pad;
        let padded_w = in_w + 2 * pad;
        if k > padded_h || k > padded_w {
            return Err(TensorError::BadGeometry {
                reason: format!("kernel {k} exceeds padded input {padded_h}x{padded_w}"),
            });
        }
        let conv_h = (padded_h - k) / conv_stride + 1;
        let conv_w = (padded_w - k) / conv_stride + 1;
        if pool > conv_h || pool > conv_w {
            return Err(TensorError::BadGeometry {
                reason: format!("pool {pool} exceeds conv output {conv_h}x{conv_w}"),
            });
        }
        Ok(Self {
            in_h,
            in_w,
            k,
            conv_stride,
            pad,
            pool,
            conv_h,
            conv_w,
            out_h: (conv_h - pool) / pool + 1,
            out_w: (conv_w - pool) / pool + 1,
        })
    }

    /// Height and width of the block-sum planes `G`: the padded input less
    /// the pool's span `(p − 1)·S` in each axis.
    fn block_sum_hw(&self) -> (usize, usize) {
        let span = (self.pool - 1) * self.conv_stride;
        (
            self.in_h + 2 * self.pad - span,
            self.in_w + 2 * self.pad - span,
        )
    }

    /// The convolution phase 3 runs over the `G` planes: kernel `k`, stride
    /// `p·S`, no padding. Its output extent is the pooled output's.
    pub fn block_sum_conv(&self) -> Result<ConvGeometry> {
        let (g_h, g_w) = self.block_sum_hw();
        ConvGeometry::new(g_h, g_w, self.k, self.k, self.pool * self.conv_stride, 0)
    }

    /// Lengths of the scratch slices one item uses, in order: the
    /// zero-padded input plane (none when unpadded: the item plane is read
    /// in place), the half-addition plane (the larger of the two LAR
    /// orientations), the `channels` block-sum planes, and the `G`-conv's
    /// staging. `None` when a size leaves `usize`.
    fn scratch_parts(&self, channels: usize) -> Option<[usize; 4]> {
        let ring = self.pad.checked_mul(2)?;
        let (ph, pw) = (self.in_h.checked_add(ring)?, self.in_w.checked_add(ring)?);
        let (g_h, g_w) = self.block_sum_hw();
        let padded = if self.pad == 0 {
            0
        } else {
            ph.checked_mul(pw)?
        };
        let ha = g_h.checked_mul(pw)?.max(ph.checked_mul(g_w)?);
        let g = channels.checked_mul(g_h)?.checked_mul(g_w)?;
        let staging = conv_scratch_len(channels, &self.block_sum_conv().ok()?)?;
        Some([padded, ha, g, staging])
    }

    /// Scratch elements [`FusedConvPool::forward_item_into`] needs for
    /// `channels` input planes. `None` when the size leaves `usize`.
    pub fn scratch_len(&self, channels: usize) -> Option<usize> {
        self.scratch_parts(channels)?
            .into_iter()
            .try_fold(0usize, usize::checked_add)
    }
}

/// The fused operator: weights + bias + geometry knobs.
#[derive(Debug, Clone)]
pub struct FusedConvPool<T = f32> {
    weight: Tensor<T>,
    bias: Vec<T>,
    conv_stride: usize,
    pad: usize,
    pool: usize,
    relu: bool,
    divide: bool,
    row_based: bool,
}

impl<T: Scalar> FusedConvPool<T> {
    /// Create a fused layer. `weight` is `M×N×K×K` (square kernels),
    /// `bias` one entry per output channel, `pool` the non-overlapping
    /// average-pool window that follows the convolution.
    pub fn new(
        weight: Tensor<T>,
        bias: Vec<T>,
        conv_stride: usize,
        pad: usize,
        pool: usize,
    ) -> Result<Self> {
        let w = weight.shape();
        if w.h != w.w {
            return Err(TensorError::BadGeometry {
                reason: format!("square kernels only, got {}x{}", w.h, w.w),
            });
        }
        if bias.len() != w.n {
            return Err(TensorError::BadGeometry {
                reason: format!("bias length {} != out channels {}", bias.len(), w.n),
            });
        }
        Ok(Self {
            weight,
            bias,
            conv_stride,
            pad,
            pool,
            relu: true,
            divide: true,
            row_based: false,
        })
    }

    /// Toggle the trailing ReLU (on by default).
    pub fn with_relu(mut self, relu: bool) -> Self {
        self.relu = relu;
        self
    }

    /// Toggle the divide-by-`p²` (on by default). Disable for exact
    /// integer-arithmetic equivalence against sum-pooling.
    pub fn with_divide(mut self, divide: bool) -> Self {
        self.divide = divide;
        self
    }

    /// Select row-based LAR (half additions over rows first, then the
    /// vertical combine) instead of the default column-based order. The
    /// paper notes "row-based LAR works in a similar way"; the two
    /// orientations produce identical block sums — property-tested
    /// bit-exactly in integer arithmetic — and differ only in which
    /// operand stream the AR unit's registers hold.
    pub fn with_row_based_lar(mut self, row_based: bool) -> Self {
        self.row_based = row_based;
        self
    }

    /// Pool window accessor.
    pub fn pool(&self) -> usize {
        self.pool
    }

    /// Baked weight tensor (`M×N×K×K`).
    pub fn weight(&self) -> &Tensor<T> {
        &self.weight
    }

    /// Baked bias, one entry per output channel.
    pub fn bias(&self) -> &[T] {
        &self.bias
    }

    /// Whether the fused group ends in ReLU.
    pub fn relu(&self) -> bool {
        self.relu
    }

    /// Convolution stride.
    pub fn conv_stride(&self) -> usize {
        self.conv_stride
    }

    /// Zero padding.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// Derived geometry for an input shape.
    pub fn geometry(&self, input: Shape4) -> Result<FusedGeometry> {
        FusedGeometry::new(
            input.h,
            input.w,
            self.weight.shape().h,
            self.conv_stride,
            self.pad,
            self.pool,
        )
    }

    /// Output shape for an input shape.
    pub fn out_shape(&self, input: Shape4) -> Result<Shape4> {
        let g = self.geometry(input)?;
        Ok(Shape4::new(
            input.n,
            self.weight.shape().n,
            g.out_h,
            g.out_w,
        ))
    }

    /// Build the block-sum plane `G` for one padded input plane.
    ///
    /// Writes the `(g_h × g_w)` row-major plane
    /// `G[a][b] = Σ_{dy,dx<p} padded[a+dy·S][b+dx·S]` into `g`, computed
    /// through the half-addition plane exactly as the AR unit does —
    /// column-based (vertical HA, horizontal combine) by default, or the
    /// row-based orientation when selected. Every step adds whole rows (or
    /// whole planes, where the rows are contiguous), in the order of the
    /// sums above.
    fn block_sum_plane_into(&self, padded: &[T], ph: usize, pw: usize, ha: &mut [T], g: &mut [T]) {
        let (p, s) = (self.pool, self.conv_stride);
        let span = (p - 1) * s;
        let (g_h, g_w) = (ph - span, pw - span);
        let add = |acc: &mut [T], xs: &[T]| {
            for (a, &x) in acc.iter_mut().zip(xs) {
                *a += x;
            }
        };
        if self.row_based {
            // phase 1: half additions over rows (horizontal p-sums)
            let ha = &mut ha[..ph * g_w];
            for (src, h) in padded.chunks_exact(pw).zip(ha.chunks_exact_mut(g_w)) {
                h.copy_from_slice(&src[..g_w]);
                for dx in 1..p {
                    add(h, &src[dx * s..][..g_w]);
                }
            }
            // phase 2: vertical combine; HA rows are contiguous at width
            // g_w, so each term is one slice over the whole plane
            g.copy_from_slice(&ha[..g_h * g_w]);
            for dy in 1..p {
                add(g, &ha[dy * s * g_w..][..g_h * g_w]);
            }
            return;
        }
        // phase 1: half additions (vertical p-sums at spacing S) over the
        // full padded width, one slice over the whole plane per term
        let ha = &mut ha[..g_h * pw];
        ha.copy_from_slice(&padded[..g_h * pw]);
        for dy in 1..p {
            add(ha, &padded[dy * s * pw..][..g_h * pw]);
        }
        // phase 2: full additions (horizontal combine at spacing S)
        for (h, row) in ha.chunks_exact(pw).zip(g.chunks_exact_mut(g_w)) {
            row.copy_from_slice(&h[..g_w]);
            for dx in 1..p {
                add(row, &h[dx * s..][..g_w]);
            }
        }
    }

    /// Run the fused operator on one batch item laid out as a raw
    /// `c × in_h × in_w` slice, writing the `out_ch × out_h × out_w` result
    /// into `dst`. `gconv` is [`FusedGeometry::block_sum_conv`] and `taps`
    /// its [`conv_tap_offsets`] for the input channels — both depend on the
    /// geometry only, so the execution plan resolves them at compile. All
    /// temporaries are slices of `scratch`, which holds at least
    /// [`FusedGeometry::scratch_len`] elements; stale contents are fine.
    /// [`Self::forward`] delegates here per item, so the two are bitwise
    /// equal.
    pub fn forward_item_into(
        &self,
        item: &[T],
        geom: &FusedGeometry,
        gconv: &ConvGeometry,
        taps: &[usize],
        dst: &mut [T],
        scratch: &mut [T],
    ) {
        let wshape = self.weight.shape();
        let channels = wshape.c;
        let (ph, pw) = (geom.in_h + 2 * geom.pad, geom.in_w + 2 * geom.pad);
        let (g_h, g_w) = geom.block_sum_hw();
        let in_plane = geom.in_h * geom.in_w;
        assert_eq!(item.len(), channels * in_plane);
        assert_eq!(dst.len(), wshape.n * geom.out_h * geom.out_w);
        let [padded_len, ha_len, g_len, _] = geom
            .scratch_parts(channels)
            .expect("fused scratch size fits usize");
        let (padded, rest) = scratch.split_at_mut(padded_len);
        let (ha, rest) = rest.split_at_mut(ha_len);
        let (g, staging) = rest.split_at_mut(g_len);
        // phase 1+2 per input channel: block-sum planes
        for (plane, gp) in item
            .chunks_exact(in_plane)
            .zip(g.chunks_exact_mut(g_h * g_w))
        {
            let padded: &[T] = if geom.pad == 0 {
                plane
            } else {
                padded.fill(T::zero());
                let rows = padded.chunks_exact_mut(pw).skip(geom.pad);
                for (row, prow) in plane.chunks_exact(geom.in_w).zip(rows) {
                    prow[geom.pad..geom.pad + geom.in_w].copy_from_slice(row);
                }
                padded
            };
            self.block_sum_plane_into(padded, ph, pw, ha, gp);
        }
        // phase 3: MAC over the factored weights, as a conv over G
        conv2d_into(
            g,
            channels,
            gconv,
            self.weight.as_slice(),
            None,
            taps,
            staging,
            dst,
        );
        // preprocessing: /p², bias, activation
        let p = self.pool;
        let inv_area = T::one() / T::from_f32((p * p) as f32);
        for (out, &bias) in dst
            .chunks_exact_mut(geom.out_h * geom.out_w)
            .zip(&self.bias)
        {
            for v in out {
                let mut x = if self.divide { *v * inv_area } else { *v };
                x += bias;
                if self.relu {
                    x = x.relu();
                }
                *v = x;
            }
        }
    }

    /// Run the fused operator. The batch is split into one contiguous run
    /// of items per rayon worker, each writing its chunk of the output in
    /// place out of one scratch buffer of its own.
    pub fn forward(&self, input: &Tensor<T>) -> Result<Tensor<T>> {
        let ishape = input.shape();
        let wshape = self.weight.shape();
        if ishape.c != wshape.c {
            return Err(TensorError::ShapeMismatch {
                left: ishape,
                right: wshape,
                op: "fused conv-pool (channels)",
            });
        }
        let geom = self.geometry(ishape)?;
        let gconv = geom.block_sum_conv()?;
        let in_item = ishape.c * ishape.h * ishape.w;
        if in_item == 0 {
            return Err(TensorError::BadGeometry {
                reason: format!("fused conv-pool over an empty input item {ishape}"),
            });
        }
        let scratch_len = geom
            .scratch_len(ishape.c)
            .ok_or_else(|| TensorError::BadGeometry {
                reason: "fused scratch size overflows usize".into(),
            })?;
        let taps = conv_tap_offsets(ishape.c, &gconv);
        let out_shape = Shape4::new(ishape.n, wshape.n, geom.out_h, geom.out_w);
        let out_item = wshape.n * geom.out_h * geom.out_w;
        let data = input.as_slice();
        let mut out = Tensor::zeros(out_shape);
        let per_worker = ishape.n.div_ceil(rayon::current_num_threads()).max(1);
        out.as_mut_slice()
            .par_chunks_mut((per_worker * out_item).max(1))
            .enumerate()
            .for_each(|(w, dst)| {
                let src = &data[w * per_worker * in_item..];
                let mut scratch = vec![T::zero(); scratch_len];
                for (item, d) in src
                    .chunks_exact(in_item)
                    .zip(dst.chunks_exact_mut(out_item))
                {
                    self.forward_item_into(item, &geom, &gconv, &taps, d, &mut scratch);
                }
            });
        Ok(out)
    }

    /// The unfused reference: `relu?(pool(conv(x) + bias))` with average
    /// (or, when division is disabled, sum) pooling. This is what MLCNN
    /// must match.
    pub fn reference(&self, input: &Tensor<T>) -> Result<Tensor<T>> {
        let conv = conv2d_direct(input, &self.weight, None, self.conv_stride, self.pad)?;
        let mut pooled = if self.divide {
            avg_pool2d(&conv, self.pool, self.pool)?
        } else {
            sum_pool2d(&conv, self.pool, self.pool)?
        };
        // bias after pooling == bias before pooling for average pooling;
        // for the sum variant the caller's bias is in the sum domain.
        let s = pooled.shape();
        for n in 0..s.n {
            for c in 0..s.c {
                let b = self.bias[c];
                for v in pooled.plane_slice_mut(n, c) {
                    *v += b;
                }
            }
        }
        if self.relu {
            pooled.map_inplace(|v| v.relu());
        }
        Ok(pooled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcnn_tensor::init;
    #[cfg(not(miri))]
    use proptest::prelude::*;

    fn rand_setup(
        seed: u64,
        b: usize,
        cin: usize,
        cout: usize,
        d: usize,
        k: usize,
        s: usize,
        pad: usize,
        pool: usize,
    ) -> (Tensor<f32>, FusedConvPool<f32>) {
        let mut rng = init::rng(seed);
        let input = init::uniform(Shape4::new(b, cin, d, d), -1.0, 1.0, &mut rng);
        let weight = init::uniform(Shape4::new(cout, cin, k, k), -1.0, 1.0, &mut rng);
        let bias: Vec<f32> = (0..cout).map(|i| (i as f32 - 1.0) * 0.05).collect();
        let fused = FusedConvPool::new(weight, bias, s, pad, pool).unwrap();
        (input, fused)
    }

    #[test]
    fn matches_reference_on_paper_example_geometry() {
        // Fig. 5: 5x5 input, 2x2 filter, unit stride, 2x2 pool.
        let (input, fused) = rand_setup(1, 1, 1, 1, 5, 2, 1, 0, 2);
        let a = fused.forward(&input).unwrap();
        let b = fused.reference(&input).unwrap();
        assert_eq!(a.shape(), Shape4::new(1, 1, 2, 2));
        assert!(
            a.approx_eq(&b, 1e-5),
            "diff {}",
            a.max_abs_diff(&b).unwrap()
        );
    }

    #[test]
    fn matches_reference_across_geometries() {
        for (seed, b, cin, cout, d, k, s, pad, pool) in [
            (
                2u64, 2usize, 3usize, 4usize, 8usize, 3usize, 1usize, 1usize, 2usize,
            ),
            (3, 1, 2, 2, 12, 5, 1, 0, 2),
            (4, 1, 1, 3, 16, 3, 1, 1, 4),
            (5, 2, 2, 2, 9, 2, 1, 0, 3),
            (6, 1, 4, 1, 16, 5, 2, 2, 2),
            (7, 1, 1, 1, 16, 1, 1, 0, 2), // 1x1 kernel (DenseNet transition)
            (8, 1, 2, 2, 10, 3, 1, 1, 5),
        ] {
            let (input, fused) = rand_setup(seed, b, cin, cout, d, k, s, pad, pool);
            let a = fused.forward(&input).unwrap();
            let r = fused.reference(&input).unwrap();
            assert!(
                a.approx_eq(&r, 1e-4),
                "geometry d={d} k={k} s={s} pad={pad} pool={pool}: diff {}",
                a.max_abs_diff(&r).unwrap()
            );
        }
    }

    #[test]
    fn googlenet_style_8x8_global_pool() {
        // conv output 8x8 pooled by 8 → a single output per channel.
        let (input, fused) = rand_setup(9, 1, 3, 2, 8, 3, 1, 1, 8);
        let a = fused.forward(&input).unwrap();
        let r = fused.reference(&input).unwrap();
        assert_eq!(a.shape(), Shape4::new(1, 2, 1, 1));
        assert!(a.approx_eq(&r, 1e-4));
    }

    #[test]
    fn integer_arithmetic_is_bit_exact() {
        // deferred division => fused == sum-pooled reference exactly in i64.
        let mut rng = init::rng(10);
        let input = init::uniform(Shape4::new(1, 2, 9, 9), -8.0, 8.0, &mut rng).cast::<i64>();
        let weight = init::uniform(Shape4::new(3, 2, 3, 3), -4.0, 4.0, &mut rng).cast::<i64>();
        let fused = FusedConvPool::new(weight, vec![1_i64, -2, 3], 1, 0, 2)
            .unwrap()
            .with_divide(false);
        let a = fused.forward(&input).unwrap();
        let r = fused.reference(&input).unwrap();
        assert_eq!(a, r, "integer fused != reference");
    }

    #[test]
    fn relu_clamps_negative_pooled_outputs() {
        let weight = Tensor::from_vec(Shape4::new(1, 1, 1, 1), vec![-1.0_f32]).unwrap();
        let fused = FusedConvPool::new(weight, vec![0.0], 1, 0, 2).unwrap();
        let input = Tensor::full(Shape4::hw(4, 4), 1.0_f32);
        let out = fused.forward(&input).unwrap();
        // conv output = -1 everywhere, pooled = -1, relu = 0
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
        let no_relu = fused.clone().with_relu(false).forward(&input).unwrap();
        assert!(no_relu.as_slice().iter().all(|&v| v == -1.0));
    }

    #[test]
    fn bias_is_applied_once_after_pooling() {
        let weight = Tensor::from_vec(Shape4::new(1, 1, 1, 1), vec![0.0_f32]).unwrap();
        let fused = FusedConvPool::new(weight, vec![7.5], 1, 0, 2).unwrap();
        let input = Tensor::full(Shape4::hw(4, 4), 3.0_f32);
        let out = fused.forward(&input).unwrap();
        assert!(out.as_slice().iter().all(|&v| v == 7.5));
    }

    #[test]
    fn forward_item_into_reuses_dirty_scratch_across_geometries() {
        // one scratch serving layers of different geometry must not leak
        // state (stale padding ring, oversized G planes) between calls.
        let (input_a, fused_a) = rand_setup(11, 1, 3, 2, 10, 3, 1, 1, 2);
        let (input_b, fused_b) = rand_setup(12, 1, 2, 3, 8, 2, 1, 0, 2);
        let need = |inp: &Tensor<f32>, f: &FusedConvPool<f32>| {
            let c = inp.shape().c;
            f.geometry(inp.shape()).unwrap().scratch_len(c).unwrap()
        };
        let len = need(&input_a, &fused_a).max(need(&input_b, &fused_b));
        let mut scratch = vec![f32::NAN; len];
        for (inp, f) in [
            (&input_a, &fused_a),
            (&input_b, &fused_b),
            (&input_a, &fused_a),
        ] {
            let geom = f.geometry(inp.shape()).unwrap();
            let gconv = geom.block_sum_conv().unwrap();
            let taps = conv_tap_offsets(inp.shape().c, &gconv);
            let expect = f.forward(inp).unwrap();
            let mut dst = vec![0.0_f32; expect.shape().len()];
            f.forward_item_into(inp.as_slice(), &geom, &gconv, &taps, &mut dst, &mut scratch);
            assert_eq!(dst.as_slice(), expect.as_slice());
        }
    }

    /// The per-item kernel before phase 3 moved onto the conv GEMM: scalar
    /// half and full additions, then the MAC loop over `weight.at()`. The
    /// bitwise oracle for [`FusedConvPool::forward_item_into`].
    fn forward_item_scalar(f: &FusedConvPool<f32>, item: &[f32], geom: &FusedGeometry) -> Vec<f32> {
        let wshape = f.weight.shape();
        let (p, s, k) = (f.pool, f.conv_stride, geom.k);
        let (ph, pw) = (geom.in_h + 2 * geom.pad, geom.in_w + 2 * geom.pad);
        let span = (p - 1) * s;
        let (g_h, gw) = (ph - span, pw - span);
        let mut g = vec![0.0_f32; wshape.c * g_h * gw];
        for c in 0..wshape.c {
            let mut padded = vec![0.0_f32; ph * pw];
            for h in 0..geom.in_h {
                for w in 0..geom.in_w {
                    padded[(h + geom.pad) * pw + geom.pad + w] =
                        item[(c * geom.in_h + h) * geom.in_w + w];
                }
            }
            let gp = &mut g[c * g_h * gw..(c + 1) * g_h * gw];
            if f.row_based {
                let mut ha = vec![0.0_f32; ph * gw];
                for a in 0..ph {
                    for b in 0..gw {
                        let mut acc = padded[a * pw + b];
                        for dx in 1..p {
                            acc += padded[a * pw + b + dx * s];
                        }
                        ha[a * gw + b] = acc;
                    }
                }
                for a in 0..g_h {
                    for b in 0..gw {
                        let mut acc = ha[a * gw + b];
                        for dy in 1..p {
                            acc += ha[(a + dy * s) * gw + b];
                        }
                        gp[a * gw + b] = acc;
                    }
                }
            } else {
                let mut ha = vec![0.0_f32; g_h * pw];
                for a in 0..g_h {
                    for b in 0..pw {
                        let mut acc = padded[a * pw + b];
                        for dy in 1..p {
                            acc += padded[(a + dy * s) * pw + b];
                        }
                        ha[a * pw + b] = acc;
                    }
                }
                for a in 0..g_h {
                    for b in 0..gw {
                        let mut acc = ha[a * pw + b];
                        for dx in 1..p {
                            acc += ha[a * pw + b + dx * s];
                        }
                        gp[a * gw + b] = acc;
                    }
                }
            }
        }
        let inv_area = 1.0 / ((p * p) as f32);
        let mut dst = vec![0.0_f32; wshape.n * geom.out_h * geom.out_w];
        for to in 0..wshape.n {
            for x in 0..geom.out_h {
                for y in 0..geom.out_w {
                    let mut acc = 0.0_f32;
                    for ti in 0..wshape.c {
                        let gp = &g[ti * g_h * gw..(ti + 1) * g_h * gw];
                        for i in 0..k {
                            let row = (p * x * s + i) * gw + p * y * s;
                            for j in 0..k {
                                acc += f.weight.at(to, ti, i, j) * gp[row + j];
                            }
                        }
                    }
                    let mut v = if f.divide { acc * inv_area } else { acc };
                    v += f.bias[to];
                    if f.relu {
                        v = v.relu();
                    }
                    dst[(to * geom.out_h + x) * geom.out_w + y] = v;
                }
            }
        }
        dst
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn forward_is_bitwise_the_scalar_kernel() {
        // (seed, b, cin, cout, d, k, s, pad, pool): lenet5r's two fused
        // layers, a padded strided one, a stride wider than the kernel and
        // the 8x8 global pool; the root proptest in plan_equivalence.rs
        // sweeps the rest
        for (seed, b, cin, cout, d, k, s, pad, pool) in [
            (
                13u64, 2usize, 3usize, 6usize, 32usize, 5usize, 1usize, 0usize, 2usize,
            ),
            (14, 1, 6, 16, 14, 5, 1, 0, 2),
            (15, 2, 2, 3, 11, 3, 2, 2, 3),
            (16, 1, 3, 2, 9, 1, 2, 1, 2),
            (17, 1, 3, 2, 8, 3, 1, 1, 8),
        ] {
            let (input, fused) = rand_setup(seed, b, cin, cout, d, k, s, pad, pool);
            let geom = fused.geometry(input.shape()).unwrap();
            for row_based in [false, true] {
                let f = fused.clone().with_row_based_lar(row_based);
                let want: Vec<f32> = input
                    .as_slice()
                    .chunks_exact(cin * d * d)
                    .flat_map(|item| forward_item_scalar(&f, item, &geom))
                    .collect();
                let got = f.forward(&input).unwrap();
                assert_eq!(
                    bits(got.as_slice()),
                    bits(&want),
                    "d={d} k={k} s={s} pad={pad} pool={pool} row_based={row_based}"
                );
            }
        }
    }

    #[test]
    fn rejects_bad_construction() {
        let w = Tensor::<f32>::zeros(Shape4::new(2, 1, 2, 3));
        assert!(FusedConvPool::new(w, vec![0.0; 2], 1, 0, 2).is_err());
        let w = Tensor::<f32>::zeros(Shape4::new(2, 1, 3, 3));
        assert!(FusedConvPool::new(w.clone(), vec![0.0; 1], 1, 0, 2).is_err());
        let ok = FusedConvPool::new(w, vec![0.0; 2], 1, 0, 2).unwrap();
        // pool larger than conv output (3x3 input, 3x3 kernel → 1x1 conv)
        assert!(ok.out_shape(Shape4::new(1, 1, 3, 3)).is_err());
        // channel mismatch
        let input = Tensor::<f32>::zeros(Shape4::new(1, 3, 8, 8));
        assert!(ok.forward(&input).is_err());
    }

    #[test]
    fn geometry_derivation() {
        let g = FusedGeometry::new(32, 32, 3, 1, 1, 2).unwrap();
        assert_eq!((g.conv_h, g.conv_w), (32, 32));
        assert_eq!((g.out_h, g.out_w), (16, 16));
        let g = FusedGeometry::new(14, 14, 5, 1, 0, 2).unwrap();
        assert_eq!((g.conv_h, g.conv_w), (10, 10));
        assert_eq!((g.out_h, g.out_w), (5, 5));
        assert!(FusedGeometry::new(4, 4, 3, 1, 0, 3).is_err());
    }

    #[test]
    fn multiplication_count_is_reduced_by_pool_area() {
        // structural check: the fused MAC loop touches K² weights per
        // pooled output; dense touches K² per conv output. Verify via the
        // geometry: conv outputs / pooled outputs == p².
        let g = FusedGeometry::new(32, 32, 3, 1, 1, 2).unwrap();
        assert_eq!(g.conv_h * g.conv_w, 4 * g.out_h * g.out_w);
        let g = FusedGeometry::new(8, 8, 3, 1, 1, 8).unwrap();
        assert_eq!(g.conv_h * g.conv_w, 64 * g.out_h * g.out_w);
    }

    #[test]
    fn row_based_orientation_is_bit_exact_in_integers() {
        let mut rng = init::rng(41);
        let input = init::uniform(Shape4::new(1, 2, 10, 10), -8.0, 8.0, &mut rng).cast::<i64>();
        let weight = init::uniform(Shape4::new(2, 2, 3, 3), -4.0, 4.0, &mut rng).cast::<i64>();
        let col = FusedConvPool::new(weight.clone(), vec![0_i64, 0], 1, 1, 2)
            .unwrap()
            .with_divide(false);
        let row = col.clone().with_row_based_lar(true);
        assert_eq!(col.forward(&input).unwrap(), row.forward(&input).unwrap());
    }

    #[test]
    fn row_based_orientation_matches_reference_at_f32() {
        let (input, fused) = rand_setup(42, 1, 3, 2, 12, 5, 1, 2, 2);
        let fused = fused.with_row_based_lar(true);
        let a = fused.forward(&input).unwrap();
        let r = fused.reference(&input).unwrap();
        assert!(
            a.approx_eq(&r, 1e-4),
            "diff {}",
            a.max_abs_diff(&r).unwrap()
        );
    }

    #[cfg(not(miri))] // randomized sweeps are far too slow under the interpreter
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_fused_equals_reference(
            seed in 0u64..1000,
            cin in 1usize..4,
            cout in 1usize..4,
            k in 1usize..6,
            pad in 0usize..3,
            pool in 2usize..4,
            extra in 0usize..6,
        ) {
            // build a d large enough for at least one pooled output
            let d = (k + pool * pool + extra).max(pool + k);
            let (input, fused) = rand_setup(seed, 1, cin, cout, d, k, 1, pad, pool);
            let a = fused.forward(&input).unwrap();
            let r = fused.reference(&input).unwrap();
            prop_assert!(
                a.approx_eq(&r, 1e-3),
                "d={} k={} pad={} pool={} diff={}",
                d, k, pad, pool,
                a.max_abs_diff(&r).unwrap()
            );
        }

        #[test]
        fn prop_orientations_agree(
            seed in 0u64..500,
            k in 1usize..5,
            pool in 2usize..4,
            extra in 0usize..5,
        ) {
            let d = k + pool * 2 + extra;
            let mut rng = init::rng(seed);
            let input = init::uniform(Shape4::new(1, 2, d, d), -5.0, 5.0, &mut rng).cast::<i64>();
            let weight = init::uniform(Shape4::new(2, 2, k, k), -3.0, 3.0, &mut rng).cast::<i64>();
            let col = FusedConvPool::new(weight, vec![0, 0], 1, 0, pool)
                .unwrap()
                .with_divide(false);
            let row = col.clone().with_row_based_lar(true);
            prop_assert_eq!(col.forward(&input).unwrap(), row.forward(&input).unwrap());
        }

        #[test]
        fn prop_integer_exactness(
            seed in 0u64..500,
            k in 1usize..5,
            pool in 2usize..4,
            extra in 0usize..5,
        ) {
            let d = k + pool * 2 + extra;
            let mut rng = init::rng(seed);
            let input = init::uniform(Shape4::new(1, 2, d, d), -5.0, 5.0, &mut rng).cast::<i64>();
            let weight = init::uniform(Shape4::new(2, 2, k, k), -3.0, 3.0, &mut rng).cast::<i64>();
            let fused = FusedConvPool::new(weight, vec![0, 0], 1, 0, pool)
                .unwrap()
                .with_divide(false);
            let a = fused.forward(&input).unwrap();
            let r = fused.reference(&input).unwrap();
            prop_assert_eq!(a, r);
        }
    }
}
