//! Plan dataflow verifier (`P0xx` codes): symbolic execution of a
//! compiled `ExecutionPlan` over an abstract ping-pong workspace.
//!
//! PR 2 made the execution plan the single artifact every serving path
//! runs blindly — once compiled, nothing re-checks it. This pass closes
//! that gap: it walks a [`PlanView`] (the read-only introspection surface
//! `mlcnn_core::ExecutionPlan::view` exports) and proves, step by step,
//! the invariants the executor's safe-Rust but unchecked slice
//! arithmetic relies on:
//!
//! * **Shape chain** (`P001`): `step[i].out_shape == step[i+1].in_shape`,
//!   anchored at the plan's declared input and output shapes — the
//!   ping-pong buffers hand data between steps with no copies, so a
//!   single gap means a step reads another step's stale bytes.
//! * **In-place legality** (`P002`): ReLU/Sigmoid run *in place* on the
//!   current buffer and Flatten moves no data; each is legal only if it
//!   provably preserves what it aliases (shape, resp. element count).
//! * **Arena bounds** (`P003`/`P004`): `buf_item_len` and
//!   `conv_scratch_len` must be the *exact* least upper bounds of what the
//!   steps touch — an undersized arena is an out-of-bounds write at run
//!   time, an oversized one silently wastes `workers × batch` multiples of
//!   memory. The kernel scratch is re-derived per step. A conv stages
//!   `min(s,k)²` phase planes of `⌈(h+2p)/s⌉ × ⌈(w+2p)/s⌉` per channel:
//!   for unit stride that is the zero-ringed plane set `c·(h+2p)·(w+2p)`,
//!   and an unpadded unit-stride conv needs nothing. A fused step adds up
//!   its padded plane (none when unpadded), the larger LAR orientation's
//!   half-addition plane, the `c` block-sum planes `G` of
//!   `(h+2p−(q−1)s) × (w+2p−(q−1)s)` for pool `q`, and the staging of the
//!   stride-`q·s` conv over `G` by the same phase-plane rule.
//! * **Parameter agreement** (`P005`): every baked weight/bias length
//!   must match the step's geometry, so a registry artifact cannot
//!   smuggle a truncated bias past compile.
//! * **Step geometry** (`P006`) and **rounding placement** (`P009`):
//!   each step's output shape is re-derived from its input shape and op,
//!   and the `round_after` flags are checked against the precision's
//!   rounding policy.
//! * **Dead steps** (`P007` warn) and **size overflow** (`P008`): a step
//!   that provably cannot change its input, and any shape/arena product
//!   that leaves `usize` (all arithmetic here is checked — hostile plans
//!   cannot crash the verifier, let alone the executor).
//!
//! The companion pass in [`crate::qrange`] propagates value intervals
//! over the same view.

use crate::diag::{Code, Reporter, Span};
use mlcnn_quant::Precision;
use mlcnn_tensor::Shape4;

/// Length and value range of one baked parameter tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamProfile {
    /// Element count of the baked tensor.
    pub len: usize,
    /// Smallest element value.
    pub min: f32,
    /// Largest element value.
    pub max: f32,
}

impl ParamProfile {
    /// Profile a slice (empty slices profile as `[0, 0]`).
    pub fn of(xs: &[f32]) -> Self {
        let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
        for &v in xs {
            min = min.min(v);
            max = max.max(v);
        }
        if xs.is_empty() {
            min = 0.0;
            max = 0.0;
        }
        ParamProfile {
            len: xs.len(),
            min,
            max,
        }
    }
}

/// Per-output-channel weight aggregates: exactly what interval
/// propagation needs, without carrying the weights themselves.
///
/// For output channel `c`, the weights are sign-split *per input group*
/// (per input channel for conv, per input feature for linear): an input
/// whose group `g` carries the interval `[lo_g, hi_g]` contributes
/// `[pos_g·lo_g + neg_g·hi_g, pos_g·hi_g + neg_g·lo_g]`, and the channel's
/// output interval is the sum over groups plus the bias — the tightest
/// linear-form bound given per-group input ranges. (Summing the groups
/// first and using one global input interval is the same formula with
/// every `[lo_g, hi_g]` widened to the global hull; keeping the groups is
/// what stops deep plans from compounding that widening layer over
/// layer.)
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelProfile {
    /// Sum of the channel's positive weights (≥ 0), all groups.
    pub pos: f32,
    /// Sum of the channel's negative weights (≤ 0), all groups.
    pub neg: f32,
    /// The channel's bias term.
    pub bias: f32,
    /// `(pos, neg)` sign-split sums per input group, in input order.
    pub per_input: Vec<(f32, f32)>,
}

impl ChannelProfile {
    /// Aggregate one channel treating all its weights as a single input
    /// group.
    pub fn of(weights: &[f32], bias: f32) -> Self {
        Self::grouped(weights, 1, bias)
    }

    /// Aggregate one channel's weights split into `groups` equal
    /// contiguous chunks (conv: one chunk of `k²` taps per input channel;
    /// linear: one single-weight chunk per input feature). Falls back to
    /// a single group when `groups` does not divide the weight count.
    pub fn grouped(weights: &[f32], groups: usize, bias: f32) -> Self {
        let groups = if groups == 0 || !weights.len().is_multiple_of(groups) {
            1
        } else {
            groups
        };
        let per = weights.len() / groups.max(1);
        let mut per_input = Vec::with_capacity(groups);
        let (mut pos, mut neg) = (0.0_f32, 0.0_f32);
        for g in 0..groups {
            let (mut gp, mut gn) = (0.0_f32, 0.0_f32);
            for &w in &weights[g * per..(g + 1) * per] {
                if w > 0.0 {
                    gp += w;
                } else {
                    gn += w;
                }
            }
            pos += gp;
            neg += gn;
            per_input.push((gp, gn));
        }
        ChannelProfile {
            pos,
            neg,
            bias,
            per_input,
        }
    }
}

/// The op of one plan step, reduced to what static analysis needs.
#[derive(Debug, Clone, PartialEq)]
pub enum OpView {
    /// MLCNN fused conv + non-overlapping avg-pool (+ ReLU) group.
    Fused {
        /// Square kernel extent.
        k: usize,
        /// Convolution stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
        /// Pool window == pool stride.
        pool: usize,
        /// Whether the group ends in ReLU.
        relu: bool,
        /// Baked weight tensor profile (`out_c·in_c·k²` elements).
        weight: ParamProfile,
        /// Baked bias profile (`out_c` elements).
        bias: ParamProfile,
        /// One aggregate per output channel.
        channels: Vec<ChannelProfile>,
    },
    /// Plain convolution (column-free GEMM; phase-plane staging for
    /// stride > 1).
    Conv {
        /// Square kernel extent.
        k: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
        /// Baked weight tensor profile (`out_c·in_c·k²` elements).
        weight: ParamProfile,
        /// Baked bias profile (`out_c` elements).
        bias: ParamProfile,
        /// One aggregate per output channel.
        channels: Vec<ChannelProfile>,
    },
    /// ReLU, in place.
    ReLU,
    /// Sigmoid, in place.
    Sigmoid,
    /// Average pooling.
    AvgPool {
        /// Window extent (square).
        window: usize,
        /// Stride.
        stride: usize,
    },
    /// Max pooling.
    MaxPool {
        /// Window extent (square).
        window: usize,
        /// Stride.
        stride: usize,
    },
    /// Flatten: shape bookkeeping only, no data movement.
    Flatten,
    /// Fully connected layer (weight pre-transposed at compile). Also what
    /// a convolution whose window covers its whole un-padded input lowers
    /// to; its output is then `1×out×1×1` instead of `1×1×1×out`.
    Linear {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
        /// Baked (transposed) weight profile (`in·out` elements).
        weight: ParamProfile,
        /// Baked bias profile (`out` elements).
        bias: ParamProfile,
        /// One aggregate per output feature.
        channels: Vec<ChannelProfile>,
    },
}

impl OpView {
    /// Short op name for messages and reports.
    pub fn name(&self) -> &'static str {
        match self {
            OpView::Fused { .. } => "fused-conv-pool",
            OpView::Conv { .. } => "conv",
            OpView::ReLU => "relu",
            OpView::Sigmoid => "sigmoid",
            OpView::AvgPool { .. } => "avg-pool",
            OpView::MaxPool { .. } => "max-pool",
            OpView::Flatten => "flatten",
            OpView::Linear { .. } => "linear",
        }
    }
}

/// One step of the plan: op plus declared per-item shapes and rounding.
#[derive(Debug, Clone, PartialEq)]
pub struct StepView {
    /// The op.
    pub op: OpView,
    /// Declared per-item input shape (batch dim 1).
    pub in_shape: Shape4,
    /// Declared per-item output shape (batch dim 1).
    pub out_shape: Shape4,
    /// Whether the precision's activation rounding runs after this step.
    pub round_after: bool,
}

/// Read-only introspection surface of a compiled `ExecutionPlan` — the
/// input of the `P0xx`/`Q0xx` passes, built by
/// `mlcnn_core::ExecutionPlan::view`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanView {
    /// Numeric precision the plan was compiled at.
    pub precision: Precision,
    /// Declared single-item input shape.
    pub input_shape: Shape4,
    /// Declared single-item output shape.
    pub output_shape: Shape4,
    /// Declared largest per-item activation buffer (elements).
    pub buf_item_len: usize,
    /// Declared largest kernel scratch any conv or fused step needs
    /// (elements).
    pub conv_scratch_len: usize,
    /// The executable steps, in order.
    pub steps: Vec<StepView>,
}

/// `n·c·h·w` through checked arithmetic; `None` when the product leaves
/// `usize`.
fn checked_len(s: Shape4) -> Option<usize> {
    s.checked_len()
}

/// Derived conv-style output extent `(in + 2·pad − k)/stride + 1`, all
/// checked; `None` on zero stride, overflow, or a kernel that does not
/// fit the padded input.
fn conv_out_extent(input: usize, k: usize, stride: usize, pad: usize) -> Option<usize> {
    if stride == 0 || k == 0 {
        return None;
    }
    let padded = input.checked_add(pad.checked_mul(2)?)?;
    if k > padded {
        return None;
    }
    Some((padded - k) / stride + 1)
}

/// Staging elements the column-free conv kernel needs for an `input` of
/// `c × h × w` planes (see the module docs); `None` on overflow.
fn conv_staging(input: Shape4, k: usize, stride: usize, pad: usize) -> Option<usize> {
    // stride 0 stages nothing the executor could run; P006 reports it
    if stride == 0 || (stride == 1 && pad == 0) {
        return Some(0);
    }
    let ring = pad.checked_mul(2)?;
    let phases = stride.min(k).checked_mul(stride.min(k))?;
    input
        .c
        .checked_mul(phases)?
        .checked_mul(input.h.checked_add(ring)?.div_ceil(stride))?
        .checked_mul(input.w.checked_add(ring)?.div_ceil(stride))
}

/// Scratch elements a fused conv-pool step over `input` needs (see the
/// module docs); `None` on overflow.
fn fused_scratch(input: Shape4, k: usize, stride: usize, pad: usize, pool: usize) -> Option<usize> {
    let ring = pad.checked_mul(2)?;
    let ph = input.h.checked_add(ring)?;
    let pw = input.w.checked_add(ring)?;
    let span = pool.saturating_sub(1).checked_mul(stride)?;
    let g = Shape4::new(1, input.c, ph.saturating_sub(span), pw.saturating_sub(span));
    let padded = if pad == 0 { 0 } else { ph.checked_mul(pw)? };
    let ha = g.h.checked_mul(pw)?.max(ph.checked_mul(g.w)?);
    let staging = conv_staging(g, k, pool.checked_mul(stride)?, 0)?;
    padded
        .checked_add(ha)?
        .checked_add(g.checked_len()?)?
        .checked_add(staging)
}

/// The exact least upper bounds (`buf_item_len`, `conv_scratch_len`) the
/// steps require; `None` when any size product overflows (`P008`).
pub fn expected_arena(view: &PlanView) -> Option<(usize, usize)> {
    let mut buf = checked_len(view.input_shape)?;
    let mut scratch = 0usize;
    for step in &view.steps {
        buf = buf.max(checked_len(step.out_shape)?);
        let need = match step.op {
            OpView::Conv { k, stride, pad, .. } => conv_staging(step.in_shape, k, stride, pad)?,
            OpView::Fused {
                k,
                stride,
                pad,
                pool,
                ..
            } => fused_scratch(step.in_shape, k, stride, pad, pool)?,
            _ => 0,
        };
        scratch = scratch.max(need);
    }
    Some((buf, scratch))
}

/// Run the dataflow verifier over a plan view, emitting `P0xx`
/// diagnostics into `reporter`. Spans index the plan's *steps* (not the
/// source spec list — fusion collapses spec groups into one step).
pub fn check_plan(view: &PlanView, reporter: &mut Reporter) {
    // ---- shape chain (P001), anchored at the declared endpoints ----
    let mut prev = view.input_shape;
    for (i, step) in view.steps.iter().enumerate() {
        if step.in_shape != prev {
            reporter.emit(
                Code::PlanShapeChainBroken,
                Some(Span::layer(i)),
                format!(
                    "step {i} ({}) consumes {} but the chain carries {prev}",
                    step.op.name(),
                    step.in_shape
                ),
            );
        }
        prev = step.out_shape;
    }
    if prev != view.output_shape {
        reporter.emit(
            Code::PlanShapeChainBroken,
            Some(Span::layer(view.steps.len().saturating_sub(1))),
            format!(
                "chain ends at {prev} but the plan declares output {}",
                view.output_shape
            ),
        );
    }

    // ---- per-step geometry, aliasing, parameters ----
    for (i, step) in view.steps.iter().enumerate() {
        check_step(i, step, reporter);
    }

    // ---- dead steps (P007): ops that provably cannot change data ----
    let mut prev_caps_at_zero = false; // output provably ≥ 0
    for (i, step) in view.steps.iter().enumerate() {
        match step.op {
            OpView::ReLU if prev_caps_at_zero => {
                reporter.emit(
                    Code::PlanRedundantStep,
                    Some(Span::layer(i)),
                    "ReLU over an input already proven nonnegative; the step is dead",
                );
            }
            _ => {}
        }
        prev_caps_at_zero = match step.op {
            OpView::ReLU | OpView::Sigmoid => true,
            OpView::Fused { relu, .. } => relu,
            // pooling preserves nonnegativity; flatten moves nothing
            OpView::AvgPool { .. } | OpView::MaxPool { .. } | OpView::Flatten => prev_caps_at_zero,
            OpView::Conv { .. } | OpView::Linear { .. } => false,
        };
    }

    // ---- arena bounds (P003/P004), overflow (P008) ----
    match expected_arena(view) {
        None => reporter.emit(
            Code::PlanSizeOverflow,
            None,
            "plan size arithmetic overflows usize; the arena cannot be sized",
        ),
        Some((buf, scratch)) => {
            if view.buf_item_len != buf {
                let kind = if view.buf_item_len < buf {
                    "undersized arena (out-of-bounds writes at run time)"
                } else {
                    "silent overallocation"
                };
                reporter.emit(
                    Code::PlanArenaMismatch,
                    None,
                    format!(
                        "buf_item_len is {} but the exact least upper bound is {buf}: {kind}",
                        view.buf_item_len
                    ),
                );
            }
            if view.conv_scratch_len != scratch {
                let kind = if view.conv_scratch_len < scratch {
                    "undersized kernel scratch"
                } else {
                    "silent overallocation"
                };
                reporter.emit(
                    Code::PlanConvScratchMismatch,
                    None,
                    format!(
                        "conv_scratch_len is {} but the exact least upper bound is {scratch}: \
                         {kind}",
                        view.conv_scratch_len
                    ),
                );
            }
        }
    }

    // ---- rounding placement (P009) ----
    check_rounding(view, reporter);
}

/// Geometry, aliasing and parameter checks for one step.
fn check_step(i: usize, step: &StepView, reporter: &mut Reporter) {
    let span = Some(Span::layer(i));
    let name = step.op.name();
    let (in_len, out_len) = match (checked_len(step.in_shape), checked_len(step.out_shape)) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            reporter.emit(
                Code::PlanSizeOverflow,
                span,
                format!("step {i} ({name}): shape element count overflows usize"),
            );
            return;
        }
    };
    if in_len == 0 || out_len == 0 {
        reporter.emit(
            Code::PlanBadStepGeometry,
            span,
            format!(
                "step {i} ({name}): zero-element shape ({} -> {})",
                step.in_shape, step.out_shape
            ),
        );
        return;
    }
    if step.in_shape.n != 1 || step.out_shape.n != 1 {
        reporter.emit(
            Code::PlanBadStepGeometry,
            span,
            format!("step {i} ({name}): per-item shapes must have batch dim 1"),
        );
    }

    let expect_out = |reporter: &mut Reporter, want: Option<Shape4>| match want {
        Some(want) if want == step.out_shape => {}
        Some(want) => reporter.emit(
            Code::PlanBadStepGeometry,
            span,
            format!(
                "step {i} ({name}): declared output {} but geometry derives {want}",
                step.out_shape
            ),
        ),
        None => reporter.emit(
            Code::PlanBadStepGeometry,
            span,
            format!(
                "step {i} ({name}): output shape underivable from input {} (degenerate \
                 geometry or overflow)",
                step.in_shape
            ),
        ),
    };

    match &step.op {
        OpView::ReLU | OpView::Sigmoid => {
            // in place on the current ping-pong buffer: aliasing is legal
            // only when the step provably changes nothing about the layout
            if step.in_shape != step.out_shape {
                reporter.emit(
                    Code::PlanIllegalInPlace,
                    span,
                    format!(
                        "step {i} ({name}) runs in place but declares {} -> {}",
                        step.in_shape, step.out_shape
                    ),
                );
            }
        }
        OpView::Flatten => {
            if in_len != out_len {
                reporter.emit(
                    Code::PlanIllegalInPlace,
                    span,
                    format!(
                        "step {i} (flatten) moves no data but declares {in_len} -> {out_len} \
                         elements"
                    ),
                );
            }
            expect_out(reporter, Some(Shape4::new(1, 1, 1, in_len)));
        }
        OpView::Conv {
            k,
            stride,
            pad,
            weight,
            bias,
            channels,
        } => {
            let out_h = conv_out_extent(step.in_shape.h, *k, *stride, *pad);
            let out_w = conv_out_extent(step.in_shape.w, *k, *stride, *pad);
            expect_out(
                reporter,
                match (out_h, out_w) {
                    (Some(h), Some(w)) => Some(Shape4::new(1, step.out_shape.c, h, w)),
                    _ => None,
                },
            );
            check_conv_params(i, name, step, *k, weight, bias, channels, reporter);
        }
        OpView::Fused {
            k,
            stride,
            pad,
            pool,
            weight,
            bias,
            channels,
            ..
        } => {
            let conv_h = conv_out_extent(step.in_shape.h, *k, *stride, *pad);
            let conv_w = conv_out_extent(step.in_shape.w, *k, *stride, *pad);
            let pooled = |conv: Option<usize>| -> Option<usize> {
                let conv = conv?;
                if *pool == 0 || *pool > conv {
                    return None;
                }
                Some((conv - pool) / pool + 1)
            };
            expect_out(
                reporter,
                match (pooled(conv_h), pooled(conv_w)) {
                    (Some(h), Some(w)) => Some(Shape4::new(1, step.out_shape.c, h, w)),
                    _ => None,
                },
            );
            check_conv_params(i, name, step, *k, weight, bias, channels, reporter);
        }
        OpView::AvgPool { window, stride } | OpView::MaxPool { window, stride } => {
            let out = |input: usize| -> Option<usize> {
                if *stride == 0 || *window == 0 || *window > input {
                    return None;
                }
                Some((input - window) / stride + 1)
            };
            expect_out(
                reporter,
                match (out(step.in_shape.h), out(step.in_shape.w)) {
                    (Some(h), Some(w)) => Some(Shape4::new(1, step.in_shape.c, h, w)),
                    _ => None,
                },
            );
        }
        OpView::Linear {
            in_features,
            out_features,
            weight,
            bias,
            channels,
        } => {
            if *in_features != in_len {
                reporter.emit(
                    Code::PlanParamMismatch,
                    span,
                    format!(
                        "step {i} (linear): in_features {} but the input carries {in_len} \
                         elements",
                        in_features
                    ),
                );
            }
            // a feature vector: flat after Flatten, or one 1×1 plane per
            // feature when lowered from a full-window convolution
            let lowered_conv = Shape4::new(1, *out_features, 1, 1);
            if step.out_shape != lowered_conv {
                expect_out(reporter, Some(Shape4::new(1, 1, 1, *out_features)));
            }
            let want_w = in_features.checked_mul(*out_features);
            match want_w {
                None => reporter.emit(
                    Code::PlanSizeOverflow,
                    span,
                    format!("step {i} (linear): in×out weight length overflows usize"),
                ),
                Some(want) if weight.len != want => reporter.emit(
                    Code::PlanParamMismatch,
                    span,
                    format!(
                        "step {i} (linear): weight holds {} elements, geometry requires {want}",
                        weight.len
                    ),
                ),
                _ => {}
            }
            if bias.len != *out_features {
                reporter.emit(
                    Code::PlanParamMismatch,
                    span,
                    format!(
                        "step {i} (linear): bias holds {} entries, geometry requires {}",
                        bias.len, out_features
                    ),
                );
            }
            if channels.len() != *out_features {
                reporter.emit(
                    Code::PlanParamMismatch,
                    span,
                    format!(
                        "step {i} (linear): {} channel profiles for {} output features",
                        channels.len(),
                        out_features
                    ),
                );
            } else if let Some(ch) = channels
                .iter()
                .find(|ch| ch.per_input.len() != *in_features)
            {
                reporter.emit(
                    Code::PlanParamMismatch,
                    span,
                    format!(
                        "step {i} (linear): a channel profile splits its weights into {} \
                         input groups, geometry requires {} (one per input feature)",
                        ch.per_input.len(),
                        in_features
                    ),
                );
            }
        }
    }
}

/// Conv/fused weight+bias agreement with the step geometry (`P005`).
#[allow(clippy::too_many_arguments)]
fn check_conv_params(
    i: usize,
    name: &str,
    step: &StepView,
    k: usize,
    weight: &ParamProfile,
    bias: &ParamProfile,
    channels: &[ChannelProfile],
    reporter: &mut Reporter,
) {
    let span = Some(Span::layer(i));
    let want = step
        .out_shape
        .c
        .checked_mul(step.in_shape.c)
        .and_then(|x| x.checked_mul(k))
        .and_then(|x| x.checked_mul(k));
    match want {
        None => reporter.emit(
            Code::PlanSizeOverflow,
            span,
            format!("step {i} ({name}): weight length overflows usize"),
        ),
        Some(want) if weight.len != want => reporter.emit(
            Code::PlanParamMismatch,
            span,
            format!(
                "step {i} ({name}): weight holds {} elements, geometry \
                 {}x{}x{k}x{k} requires {want}",
                weight.len, step.out_shape.c, step.in_shape.c
            ),
        ),
        _ => {}
    }
    if bias.len != step.out_shape.c {
        reporter.emit(
            Code::PlanParamMismatch,
            span,
            format!(
                "step {i} ({name}): bias holds {} entries, geometry requires {} \
                 (one per output channel)",
                bias.len, step.out_shape.c
            ),
        );
    }
    if channels.len() != step.out_shape.c {
        reporter.emit(
            Code::PlanParamMismatch,
            span,
            format!(
                "step {i} ({name}): {} channel profiles for {} output channels",
                channels.len(),
                step.out_shape.c
            ),
        );
    } else if let Some(ch) = channels
        .iter()
        .find(|ch| ch.per_input.len() != step.in_shape.c)
    {
        reporter.emit(
            Code::PlanParamMismatch,
            span,
            format!(
                "step {i} ({name}): a channel profile splits its weights into {} input \
                 groups, geometry requires {} (one per input channel)",
                ch.per_input.len(),
                step.in_shape.c
            ),
        );
    }
}

/// `round_after` placement against the precision policy (`P009`).
///
/// Mirrors `ExecutionPlan::compile`: FP32 never rounds; FP16 rounds every
/// step except Flatten (which moves no data); INT8 rounds every
/// non-Flatten step except the plan's last (DoReFa leaves the logits
/// unquantized — unless the source spec list ended in a compiled-away
/// no-op such as Dropout, so the *last* step is allowed either way).
fn check_rounding(view: &PlanView, reporter: &mut Reporter) {
    let last = view.steps.len().saturating_sub(1);
    for (i, step) in view.steps.iter().enumerate() {
        let flat = matches!(step.op, OpView::Flatten);
        let want = match view.precision {
            Precision::Fp32 => Some(false),
            Precision::Fp16 => Some(!flat),
            Precision::Int8 => {
                if flat {
                    Some(false)
                } else if i == last {
                    None // either placement compiles legally; see docs
                } else {
                    Some(true)
                }
            }
        };
        if let Some(want) = want {
            if step.round_after != want {
                reporter.emit(
                    Code::PlanRoundingInvalid,
                    Some(Span::layer(i)),
                    format!(
                        "step {i} ({}) has round_after={} but the {} policy requires {}",
                        step.op.name(),
                        step.round_after,
                        view.precision,
                        want
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Reporter;

    /// A hand-built valid two-step view: conv 1→2 ch 3x3 on 4x4 (pad 1),
    /// then relu.
    fn tiny_view() -> PlanView {
        let conv_w = vec![0.1_f32; 2 * 9];
        let conv_b = vec![0.0_f32; 2];
        PlanView {
            precision: Precision::Fp32,
            input_shape: Shape4::new(1, 1, 4, 4),
            output_shape: Shape4::new(1, 2, 4, 4),
            buf_item_len: 32,
            conv_scratch_len: 6 * 6,
            steps: vec![
                StepView {
                    op: OpView::Conv {
                        k: 3,
                        stride: 1,
                        pad: 1,
                        weight: ParamProfile::of(&conv_w),
                        bias: ParamProfile::of(&conv_b),
                        channels: (0..2)
                            .map(|c| ChannelProfile::of(&conv_w[c * 9..(c + 1) * 9], conv_b[c]))
                            .collect(),
                    },
                    in_shape: Shape4::new(1, 1, 4, 4),
                    out_shape: Shape4::new(1, 2, 4, 4),
                    round_after: false,
                },
                StepView {
                    op: OpView::ReLU,
                    in_shape: Shape4::new(1, 2, 4, 4),
                    out_shape: Shape4::new(1, 2, 4, 4),
                    round_after: false,
                },
            ],
        }
    }

    fn run(view: &PlanView) -> Reporter {
        let mut r = Reporter::new();
        check_plan(view, &mut r);
        r
    }

    #[test]
    fn valid_view_is_clean() {
        let r = run(&tiny_view());
        assert!(r.is_clean(), "{}", r.pretty());
    }

    #[test]
    fn broken_shape_link_is_p001() {
        let mut v = tiny_view();
        v.steps[1].in_shape = Shape4::new(1, 3, 4, 4);
        let r = run(&v);
        assert!(
            r.find(Code::PlanShapeChainBroken).is_some(),
            "{}",
            r.pretty()
        );
    }

    #[test]
    fn in_place_shape_change_is_p002() {
        let mut v = tiny_view();
        v.steps[1].out_shape = Shape4::new(1, 2, 2, 8);
        let r = run(&v);
        assert!(r.find(Code::PlanIllegalInPlace).is_some(), "{}", r.pretty());
    }

    #[test]
    fn undersized_and_oversized_arena_are_p003() {
        for bad in [16, 33] {
            let mut v = tiny_view();
            v.buf_item_len = bad;
            let r = run(&v);
            assert!(r.find(Code::PlanArenaMismatch).is_some(), "{}", r.pretty());
        }
    }

    #[test]
    fn conv_scratch_one_short_or_long_is_p004() {
        for bad in [6 * 6 - 1, 6 * 6 + 1] {
            let mut v = tiny_view();
            v.conv_scratch_len = bad;
            let r = run(&v);
            assert!(
                r.find(Code::PlanConvScratchMismatch).is_some(),
                "{}",
                r.pretty()
            );
        }
    }

    #[test]
    fn conv_scratch_follows_the_staging_rule() {
        // tiny_view with its conv changed to produce 2×2 planes
        let with_conv = |set: fn(&mut usize, &mut usize), scratch: usize| {
            let mut v = tiny_view();
            if let OpView::Conv { stride, pad, .. } = &mut v.steps[0].op {
                set(stride, pad);
            }
            let small = Shape4::new(1, 2, 2, 2);
            v.steps[0].out_shape = small;
            v.steps[1].in_shape = small;
            v.steps[1].out_shape = small;
            v.output_shape = small;
            v.buf_item_len = 16;
            v.conv_scratch_len = scratch;
            v
        };
        // unpadded unit stride reads the item in place: no scratch at all
        let v = with_conv(|_, pad| *pad = 0, 0);
        assert!(run(&v).is_clean(), "{}", run(&v).pretty());
        // stride 2 stages the 6×6 padded plane as 2×2 phase planes of 3×3
        let v = with_conv(|stride, _| *stride = 2, 4 * 3 * 3);
        assert!(run(&v).is_clean(), "{}", run(&v).pretty());

        // a fused 3×3 conv (pad 1) + 2×2 pool over the same 1×4×4 input:
        // the 6×6 padded plane, a 5×6 half-addition plane, one 5×5 G
        // plane, and the stride-2 G-conv's 2×2 phase planes of 3×3
        let mut v = with_conv(|_, _| {}, 0);
        let (w, b) = (vec![0.1_f32; 2 * 9], vec![0.0_f32; 2]);
        v.steps[0].op = OpView::Fused {
            k: 3,
            stride: 1,
            pad: 1,
            pool: 2,
            relu: false,
            weight: ParamProfile::of(&w),
            bias: ParamProfile::of(&b),
            channels: (0..2)
                .map(|c| ChannelProfile::of(&w[c * 9..(c + 1) * 9], b[c]))
                .collect(),
        };
        let exact = 6 * 6 + 5 * 6 + 5 * 5 + 4 * 3 * 3;
        v.conv_scratch_len = exact;
        assert!(run(&v).is_clean(), "{}", run(&v).pretty());
        for bad in [exact - 1, exact + 1] {
            v.conv_scratch_len = bad;
            let r = run(&v);
            assert!(
                r.find(Code::PlanConvScratchMismatch).is_some(),
                "{}",
                r.pretty()
            );
        }
    }

    #[test]
    fn linear_output_is_flat_or_one_plane_per_feature() {
        let w = vec![0.1_f32; 16 * 3];
        let linear = |out_shape| PlanView {
            precision: Precision::Fp32,
            input_shape: Shape4::new(1, 1, 4, 4),
            output_shape: out_shape,
            buf_item_len: 16,
            conv_scratch_len: 0,
            steps: vec![StepView {
                op: OpView::Linear {
                    in_features: 16,
                    out_features: 3,
                    weight: ParamProfile::of(&w),
                    bias: ParamProfile::of(&[0.0; 3]),
                    channels: (0..3)
                        .map(|_| ChannelProfile::grouped(&w[..16], 16, 0.0))
                        .collect(),
                },
                in_shape: Shape4::new(1, 1, 4, 4),
                out_shape,
                round_after: false,
            }],
        };
        for ok in [Shape4::new(1, 1, 1, 3), Shape4::new(1, 3, 1, 1)] {
            let r = run(&linear(ok));
            assert!(r.is_clean(), "{}", r.pretty());
        }
        let r = run(&linear(Shape4::new(1, 1, 3, 1)));
        assert!(
            r.find(Code::PlanBadStepGeometry).is_some(),
            "{}",
            r.pretty()
        );
    }

    #[test]
    fn truncated_bias_is_p005() {
        let mut v = tiny_view();
        if let OpView::Conv { bias, .. } = &mut v.steps[0].op {
            bias.len = 1;
        }
        let r = run(&v);
        assert!(r.find(Code::PlanParamMismatch).is_some(), "{}", r.pretty());
    }

    #[test]
    fn underivable_output_is_p006() {
        let mut v = tiny_view();
        v.steps[0].out_shape = Shape4::new(1, 2, 3, 4);
        v.steps[1].in_shape = Shape4::new(1, 2, 3, 4);
        v.steps[1].out_shape = Shape4::new(1, 2, 3, 4);
        v.output_shape = Shape4::new(1, 2, 3, 4);
        v.buf_item_len = 24;
        v.conv_scratch_len = 6 * 6;
        let r = run(&v);
        assert!(
            r.find(Code::PlanBadStepGeometry).is_some(),
            "{}",
            r.pretty()
        );
    }

    #[test]
    fn zero_strides_are_p006_not_a_panic() {
        let mut v = tiny_view();
        if let OpView::Conv { stride, .. } = &mut v.steps[0].op {
            *stride = 0;
        }
        let r = run(&v);
        assert!(
            r.find(Code::PlanBadStepGeometry).is_some(),
            "{}",
            r.pretty()
        );
        let mut v = tiny_view();
        let (w, b) = (vec![0.1_f32; 2 * 9], vec![0.0_f32; 2]);
        v.steps[0].op = OpView::Fused {
            k: 3,
            stride: 0,
            pad: 1,
            pool: 2,
            relu: false,
            weight: ParamProfile::of(&w),
            bias: ParamProfile::of(&b),
            channels: Vec::new(),
        };
        let r = run(&v);
        assert!(
            r.find(Code::PlanBadStepGeometry).is_some(),
            "{}",
            r.pretty()
        );
    }

    #[test]
    fn double_relu_is_p007_warning() {
        let mut v = tiny_view();
        let relu = v.steps[1].clone();
        v.steps.push(relu);
        let r = run(&v);
        let d = r.find(Code::PlanRedundantStep).expect("P007 expected");
        assert_eq!(d.severity, crate::Severity::Warn);
        assert!(!r.has_deny(), "{}", r.pretty());
    }

    #[test]
    fn overflowing_shape_is_p008() {
        let mut v = tiny_view();
        v.steps[0].out_shape = Shape4::new(1, usize::MAX, usize::MAX, 2);
        let r = run(&v);
        assert!(r.find(Code::PlanSizeOverflow).is_some(), "{}", r.pretty());
    }

    #[test]
    fn flipped_round_after_is_p009() {
        // FP32: any rounding is wrong
        let mut v = tiny_view();
        v.steps[0].round_after = true;
        let r = run(&v);
        assert!(
            r.find(Code::PlanRoundingInvalid).is_some(),
            "{}",
            r.pretty()
        );

        // FP16: a missing rounding is wrong
        let mut v = tiny_view();
        v.precision = Precision::Fp16;
        v.steps[0].round_after = true; // correct
        v.steps[1].round_after = false; // last step still requires rounding at FP16
        let r = run(&v);
        assert!(
            r.find(Code::PlanRoundingInvalid).is_some(),
            "{}",
            r.pretty()
        );
    }
}
