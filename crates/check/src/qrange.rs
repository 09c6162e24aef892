//! Quantization range analysis (`Q0xx` codes): interval propagation over
//! a [`PlanView`](crate::plan::PlanView).
//!
//! The executor's FP16/INT8 paths round activations after (almost) every
//! step — binary16 via round-to-nearest-even, INT8 via DoReFa PTQ with a
//! *dynamic* symmetric scale (`max|x| / 127`). Neither rounding can be
//! judged from the spec alone: whether a layer saturates binary16 or
//! collapses onto one INT8 grid level depends on the *value ranges*
//! flowing through it, which depend on the baked weights. This pass
//! derives those ranges statically:
//!
//! * the propagation state is one interval per *group* of contiguous
//!   elements in NCHW memory order — per channel while the tensor is
//!   spatial, per feature once a linear layer has run. A conv/linear
//!   channel maps grouped inputs through its sign-split per-group weight
//!   sums (`Σ_g pos_g·hi_g + neg_g·lo_g + b` is the tightest linear-form
//!   bound given per-group ranges — collapsing to one global `[lo, hi]`
//!   per layer compounds the widening layer over layer and flags healthy
//!   deep plans), ReLU clamps at zero, sigmoid lands in
//!   `[σ(lo), σ(hi)] ⊆ [0, 1]`, and pooling is convex (avg) or selective
//!   (max) — both preserve each group's bound;
//! * steps the plan rounds are then checked against their precision's
//!   failure modes (`Q002`–`Q004`), plus two precision-independent
//!   degeneracies (`Q001` constant layer, `Q005` saturated sigmoid);
//! * the per-step intervals are returned as a [`QRangeReport`] — the
//!   per-layer scale table a static `i8×i8→i32` requantizer needs (today
//!   the INT8 path re-derives scales dynamically per batch; the report is
//!   what lets a future kernel bake them).
//!
//! All `Q0xx` codes default to warnings: a wide interval is a *risk*
//! bound (the worst case over all inputs in the declared range), not a
//! proof that real traffic hits it.

use crate::diag::{Code, Reporter, Span};
use crate::plan::{ChannelProfile, OpView, PlanView};
use mlcnn_quant::Precision;

/// Largest finite binary16 value, as f64.
const F16_MAX: f64 = 65504.0;
/// Smallest positive binary16 subnormal (2⁻²⁴): anything strictly below
/// this in magnitude rounds to zero.
const F16_TINY: f64 = 5.960_464_477_539_063e-8;
/// Input magnitude beyond which `sigmoid` is constant at f32 resolution
/// (σ(17) rounds to exactly 1.0f32; σ(−17) ≈ 4·10⁻⁸ is below half an ulp
/// of 1 — the useful dynamic range is gone either way).
const SIGMOID_SAT: f64 = 17.0;

/// Declared input value range for the propagation. The zoo serves
/// normalized inputs, so the default is `[-1, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QRangeOptions {
    /// Smallest input value the plan will ever see.
    pub input_lo: f64,
    /// Largest input value the plan will ever see.
    pub input_hi: f64,
}

impl Default for QRangeOptions {
    fn default() -> Self {
        QRangeOptions {
            input_lo: -1.0,
            input_hi: 1.0,
        }
    }
}

/// One step's derived value interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRange {
    /// Step index in the plan.
    pub index: usize,
    /// Op name (see `OpView::name`).
    pub op: &'static str,
    /// Worst-case lower bound of the step's output values.
    pub lo: f64,
    /// Worst-case upper bound of the step's output values.
    pub hi: f64,
    /// The symmetric INT8 scale this interval implies
    /// (`max(|lo|, |hi|) / 127`) — what a static requantizer would bake
    /// for this layer.
    pub int8_scale: f64,
    /// Whether the plan rounds activations after this step.
    pub rounded: bool,
}

/// The per-layer range table [`check_qrange`] derives — consumed by the
/// bench report today and by the planned integer INT8 kernel tomorrow.
#[derive(Debug, Clone, PartialEq)]
pub struct QRangeReport {
    /// Precision of the analyzed plan.
    pub precision: Precision,
    /// Input interval the propagation assumed.
    pub input: (f64, f64),
    /// One entry per plan step, in execution order.
    pub steps: Vec<StepRange>,
}

impl QRangeReport {
    /// Render as a GitHub-markdown table (the bench report embeds this).
    pub fn markdown(&self) -> String {
        let mut out = String::from(
            "| step | op | lo | hi | int8 scale | rounded |\n\
             |------|----|----|----|------------|---------|\n",
        );
        for s in &self.steps {
            out.push_str(&format!(
                "| {} | {} | {:.6} | {:.6} | {:.6e} | {} |\n",
                s.index, s.op, s.lo, s.hi, s.int8_scale, s.rounded
            ));
        }
        out
    }

    /// JSON rendering (hand-rolled; the workspace carries no JSON dep).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"precision\":\"{}\",\"input\":[{},{}],\"steps\":[",
            self.precision, self.input.0, self.input.1
        );
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"index\":{},\"op\":\"{}\",\"lo\":{},\"hi\":{},\
                 \"int8_scale\":{},\"rounded\":{}}}",
                s.index, s.op, s.lo, s.hi, s.int8_scale, s.rounded
            ));
        }
        out.push_str("]}");
        out
    }
}

/// The propagation state: one interval per contiguous run of
/// `group_len` elements, in NCHW memory order. Spatial tensors group by
/// channel (`group_len` = plane size), linear outputs by feature
/// (`group_len` = 1). Invariant between steps:
/// `groups.len() · group_len` = the tensor's element count; whenever a
/// (hostile) view breaks it, the state collapses to its hull — sound,
/// just looser.
struct GroupState {
    groups: Vec<(f64, f64)>,
    group_len: usize,
}

impl GroupState {
    /// Global `[lo, hi]` over all groups.
    fn hull(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &(l, h) in &self.groups {
            lo = lo.min(l);
            hi = hi.max(h);
        }
        if self.groups.is_empty() {
            (0.0, 0.0)
        } else {
            (lo, hi)
        }
    }

    fn elements(&self) -> Option<usize> {
        self.groups.len().checked_mul(self.group_len)
    }

    /// Widen to a single group spanning `elements` elements.
    fn collapse(&mut self, elements: usize) {
        let hull = self.hull();
        self.groups = vec![hull];
        self.group_len = elements.max(1);
    }

    fn map(&mut self, f: impl Fn(f64) -> f64) {
        for g in self.groups.iter_mut() {
            *g = (f(g.0), f(g.1));
        }
    }
}

/// Interval image of one conv/linear channel over the grouped state.
///
/// When the channel's per-input-group aggregates line up with the state
/// (`per_feature`: one group per input *feature*, matched by index into
/// the state's groups; otherwise one group per input *channel*, matched
/// one-to-one), the bound sums each group through its own sign-split
/// weights. On any mismatch — a `P005` finding the dataflow pass
/// reports — it degrades to the channel's global aggregate over the
/// state's hull.
fn channel_image(ch: &ChannelProfile, state: &GroupState, per_feature: bool) -> (f64, f64) {
    let aligned = if per_feature {
        state.elements() == Some(ch.per_input.len())
    } else {
        state.groups.len() == ch.per_input.len()
    };
    if aligned {
        let mut lo = ch.bias as f64;
        let mut hi = ch.bias as f64;
        for (g, &(p, n)) in ch.per_input.iter().enumerate() {
            let idx = if per_feature { g / state.group_len } else { g };
            let (gl, gh) = state.groups[idx];
            lo += p as f64 * gl + n as f64 * gh;
            hi += p as f64 * gh + n as f64 * gl;
        }
        (lo, hi)
    } else {
        let (gl, gh) = state.hull();
        let (pos, neg, b) = (ch.pos as f64, ch.neg as f64, ch.bias as f64);
        (pos * gl + neg * gh + b, pos * gh + neg * gl + b)
    }
}

/// Map a whole channel set; `None` when the view carries no channel
/// profiles (a `P005` mismatch — this pass degrades gracefully).
fn channels_image(
    channels: &[ChannelProfile],
    state: &GroupState,
    per_feature: bool,
    relu: bool,
) -> Option<Vec<(f64, f64)>> {
    if channels.is_empty() {
        return None;
    }
    Some(
        channels
            .iter()
            .map(|ch| {
                let (mut lo, mut hi) = channel_image(ch, state, per_feature);
                if relu {
                    lo = lo.max(0.0);
                    hi = hi.max(0.0);
                }
                (lo, hi)
            })
            .collect(),
    )
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Propagate value intervals through the plan, emitting `Q0xx`
/// diagnostics into `reporter` and returning the per-layer range table.
pub fn check_qrange(
    view: &PlanView,
    opts: &QRangeOptions,
    reporter: &mut Reporter,
) -> QRangeReport {
    let (in_lo, in_hi) = (
        opts.input_lo.min(opts.input_hi),
        opts.input_lo.max(opts.input_hi),
    );
    let mut state = GroupState {
        groups: vec![(in_lo, in_hi); view.input_shape.c.max(1)],
        group_len: view.input_shape.h.saturating_mul(view.input_shape.w).max(1),
    };
    let mut steps = Vec::with_capacity(view.steps.len());

    for (i, step) in view.steps.iter().enumerate() {
        let span = Some(Span::layer(i));

        // re-anchor the state against the step's declared input: a view
        // with a broken shape chain (P001's business) degrades to hulls
        if let Some(n) = step.in_shape.checked_len() {
            if state.elements() != Some(n) {
                state.collapse(n);
            }
        }

        let mut constant_candidate = false; // only parameterized compute steps
        match &step.op {
            OpView::Conv { channels, .. } => {
                if let Some(groups) = channels_image(channels, &state, false, false) {
                    state.groups = groups;
                    state.group_len = step.out_shape.h.saturating_mul(step.out_shape.w).max(1);
                }
                constant_candidate = true;
            }
            OpView::Fused { channels, relu, .. } => {
                // conv channels → avg-pool (convex: preserves each
                // channel's bound) → optional ReLU clamp
                if let Some(groups) = channels_image(channels, &state, false, *relu) {
                    state.groups = groups;
                    state.group_len = step.out_shape.h.saturating_mul(step.out_shape.w).max(1);
                }
                constant_candidate = true;
            }
            OpView::Linear { channels, .. } => {
                if let Some(groups) = channels_image(channels, &state, true, false) {
                    state.groups = groups;
                    state.group_len = 1;
                }
                constant_candidate = true;
            }
            OpView::ReLU => state.map(|x| x.max(0.0)),
            OpView::Sigmoid => {
                let (lo, hi) = state.hull();
                if lo >= SIGMOID_SAT || hi <= -SIGMOID_SAT {
                    reporter.emit(
                        Code::RangeSigmoidSaturated,
                        span,
                        format!(
                            "step {i}: sigmoid input interval [{lo:.3}, {hi:.3}] lies \
                             entirely in the saturated tail; the output is effectively \
                             constant {}",
                            if lo >= SIGMOID_SAT { 1 } else { 0 }
                        ),
                    );
                }
                state.map(sigmoid);
            }
            // avg-pool is a convex combination, max-pool a selection;
            // both keep each channel's values inside its interval.
            // Flatten moves nothing — the grouping survives it.
            OpView::AvgPool { .. } | OpView::MaxPool { .. } => {
                state.group_len = step.out_shape.h.saturating_mul(step.out_shape.w).max(1);
            }
            OpView::Flatten => {}
        }

        let (lo, hi) = state.hull();
        if constant_candidate && hi == lo {
            reporter.emit(
                Code::RangeConstant,
                span,
                format!(
                    "step {i} ({}) always computes the constant {lo}; the layer (and \
                     everything it feeds) is wasted compute, and INT8's dynamic scale \
                     degenerates on it",
                    step.op.name()
                ),
            );
        }

        if step.round_after {
            let mag = lo.abs().max(hi.abs());
            match view.precision {
                Precision::Fp32 => {} // P009's business, not ours
                Precision::Fp16 => {
                    if mag > F16_MAX {
                        reporter.emit(
                            Code::RangeFp16Overflow,
                            span,
                            format!(
                                "step {i} ({}) can reach magnitude {mag:.3e}, beyond \
                                 binary16's finite range (±{F16_MAX}); worst-case inputs \
                                 saturate to infinity",
                                step.op.name()
                            ),
                        );
                    } else if mag > 0.0 && mag < F16_TINY {
                        reporter.emit(
                            Code::RangeFp16Underflow,
                            span,
                            format!(
                                "step {i} ({}) is confined to [{lo:.3e}, {hi:.3e}], \
                                 entirely below binary16's smallest subnormal \
                                 ({F16_TINY:.3e}); the whole tensor rounds to zero",
                                step.op.name()
                            ),
                        );
                    }
                }
                Precision::Int8 => {
                    // dynamic symmetric PTQ: worst-case grid step is
                    // max|x| / 127
                    let width = hi - lo;
                    let grid = mag / 127.0;
                    if width > 0.0 && grid > 0.0 && width < grid {
                        reporter.emit(
                            Code::RangeInt8Collapse,
                            span,
                            format!(
                                "step {i} ({}) spans only {width:.3e} but sits at \
                                 magnitude {mag:.3e}; under the dynamic scale \
                                 (max|x|/127 = {grid:.3e}) the whole tensor lands on at \
                                 most two grid levels",
                                step.op.name()
                            ),
                        );
                    }
                }
            }
        }

        steps.push(StepRange {
            index: i,
            op: step.op.name(),
            lo,
            hi,
            int8_scale: lo.abs().max(hi.abs()) / 127.0,
            rounded: step.round_after,
        });
    }

    QRangeReport {
        precision: view.precision,
        input: (opts.input_lo, opts.input_hi),
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ParamProfile, StepView};
    use mlcnn_tensor::Shape4;

    /// One linear step `1 → 1` with a single weight `w` and bias `b`.
    fn linear_view(precision: Precision, w: f32, b: f32, round_after: bool) -> PlanView {
        PlanView {
            precision,
            input_shape: Shape4::new(1, 1, 1, 1),
            output_shape: Shape4::new(1, 1, 1, 1),
            buf_item_len: 1,
            conv_scratch_len: 0,
            steps: vec![StepView {
                op: OpView::Linear {
                    in_features: 1,
                    out_features: 1,
                    weight: ParamProfile::of(&[w]),
                    bias: ParamProfile::of(&[b]),
                    channels: vec![ChannelProfile::of(&[w], b)],
                },
                in_shape: Shape4::new(1, 1, 1, 1),
                out_shape: Shape4::new(1, 1, 1, 1),
                round_after,
            }],
        }
    }

    fn run(view: &PlanView, opts: &QRangeOptions) -> (Reporter, QRangeReport) {
        let mut r = Reporter::new();
        let report = check_qrange(view, opts, &mut r);
        (r, report)
    }

    #[test]
    fn linear_interval_image_is_tight() {
        // w = 2, b = 1 over [-1, 1] → [-1, 3]
        let v = linear_view(Precision::Fp32, 2.0, 1.0, false);
        let (r, report) = run(&v, &QRangeOptions::default());
        assert!(r.is_clean(), "{}", r.pretty());
        assert_eq!((report.steps[0].lo, report.steps[0].hi), (-1.0, 3.0));
        assert!((report.steps[0].int8_scale - 3.0 / 127.0).abs() < 1e-12);
    }

    #[test]
    fn relu_clamps_and_sigmoid_brackets() {
        let mut v = linear_view(Precision::Fp32, 2.0, 1.0, false);
        v.steps.push(StepView {
            op: OpView::ReLU,
            in_shape: Shape4::new(1, 1, 1, 1),
            out_shape: Shape4::new(1, 1, 1, 1),
            round_after: false,
        });
        v.steps.push(StepView {
            op: OpView::Sigmoid,
            in_shape: Shape4::new(1, 1, 1, 1),
            out_shape: Shape4::new(1, 1, 1, 1),
            round_after: false,
        });
        let (r, report) = run(&v, &QRangeOptions::default());
        assert!(r.is_clean(), "{}", r.pretty());
        assert_eq!((report.steps[1].lo, report.steps[1].hi), (0.0, 3.0));
        let s = &report.steps[2];
        assert!(s.lo >= 0.0 && s.hi <= 1.0 && s.lo < s.hi);
    }

    #[test]
    fn constant_layer_is_q001() {
        let v = linear_view(Precision::Fp32, 0.0, 0.5, false);
        let (r, _) = run(&v, &QRangeOptions::default());
        assert!(r.find(Code::RangeConstant).is_some(), "{}", r.pretty());
    }

    #[test]
    fn fp16_overflow_is_q002_only_when_rounded_at_fp16() {
        // gain 1e6 over [-1, 1] blows past 65504…
        let v = linear_view(Precision::Fp16, 1.0e6, 0.0, true);
        let (r, _) = run(&v, &QRangeOptions::default());
        assert!(r.find(Code::RangeFp16Overflow).is_some(), "{}", r.pretty());
        assert!(!r.has_deny(), "Q codes are warnings");

        // …but the same plan at FP32 never rounds, so nothing fires
        let v = linear_view(Precision::Fp32, 1.0e6, 0.0, false);
        let (r, _) = run(&v, &QRangeOptions::default());
        assert!(r.is_clean(), "{}", r.pretty());
    }

    #[test]
    fn fp16_subnormal_collapse_is_q003() {
        let v = linear_view(Precision::Fp16, 1.0e-9, 0.0, true);
        let (r, _) = run(&v, &QRangeOptions::default());
        assert!(r.find(Code::RangeFp16Underflow).is_some(), "{}", r.pretty());
    }

    #[test]
    fn int8_narrow_offset_interval_is_q004() {
        // w = 0.001, b = 100 over [-1, 1] → [99.999, 100.001]: width 2e-3,
        // grid ≈ 0.79 — everything lands on one level
        let v = linear_view(Precision::Int8, 1.0e-3, 100.0, true);
        let (r, _) = run(&v, &QRangeOptions::default());
        assert!(r.find(Code::RangeInt8Collapse).is_some(), "{}", r.pretty());
    }

    #[test]
    fn saturated_sigmoid_is_q005() {
        let mut v = linear_view(Precision::Fp32, 1.0, 20.0, false);
        v.steps.push(StepView {
            op: OpView::Sigmoid,
            in_shape: Shape4::new(1, 1, 1, 1),
            out_shape: Shape4::new(1, 1, 1, 1),
            round_after: false,
        });
        let (r, report) = run(&v, &QRangeOptions::default());
        assert!(
            r.find(Code::RangeSigmoidSaturated).is_some(),
            "{}",
            r.pretty()
        );
        assert_eq!(report.steps[1].hi, 1.0f64.min(report.steps[1].hi));
    }

    #[test]
    fn report_renders_markdown_and_json() {
        let v = linear_view(Precision::Fp32, 2.0, 1.0, false);
        let (_, report) = run(&v, &QRangeOptions::default());
        let md = report.markdown();
        assert!(md.contains("| 0 | linear |"));
        let json = report.to_json();
        assert!(json.starts_with("{\"precision\":\"FP32\""), "{json}");
        assert!(json.contains("\"op\":\"linear\""));
    }
}
