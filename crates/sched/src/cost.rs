//! The cost oracle: exact per-item op counts from a compiled plan's
//! introspection view, fitted to measured time by a short warmup.
//!
//! Counting reuses the paper's accounting verbatim: a fused
//! conv+pool step is priced by [`mlcnn_core::opcount::mlcnn_layer_counts`]
//! on the geometry reconstructed from the step (RME + LAR/GAR reuse),
//! and a plain conv by the dense formula — so the oracle's totals are
//! *exactly* the `opcount` totals, per step, not an approximation
//! (`tests` in `mlcnn-serve` pin this across the zoo × precisions).
//!
//! Predicted service time is an affine model over the batch:
//!
//! ```text
//! predicted(b) = base + b · flops_item · nanos_per_flop
//! ```
//!
//! with `base ≥ 0` and `nanos_per_flop > 0`, so the prediction is
//! monotone nondecreasing in `b` *by construction* — the property the
//! EDF/admission machinery relies on. Calibration measures the plan at
//! batch 1 and at `max_batch` and solves for the two coefficients; the
//! uncalibrated [`CostOracle::analytic`] form uses a nominal scalar-kernel
//! throughput and is what lints and tests use when running the plan is
//! not an option.

use mlcnn_check::{OpView, PlanView, StepView};
use mlcnn_core::opcount::{mlcnn_layer_counts, OpCounts};
use mlcnn_core::{ExecutionPlan, Workspace};
use mlcnn_nn::zoo::{ConvLayerGeom, PoolAfter};
use mlcnn_tensor::{Shape4, Tensor};
use std::time::Instant;

/// Nominal cost of one FLOP on the scalar kernels, in nanoseconds
/// (≈1 GFLOP/s — deliberately conservative for an uncalibrated oracle).
pub const ANALYTIC_NANOS_PER_FLOP: f64 = 1.0;

/// Nominal fixed dispatch overhead per batch, in nanoseconds.
pub const ANALYTIC_BASE_NANOS: f64 = 2_000.0;

/// Floor on the fitted marginal cost: keeps the prediction strictly
/// increasing even when a noisy warmup measures a flat (or inverted)
/// batch curve.
const MIN_NANOS_PER_FLOP: f64 = 1e-6;

/// Timed repetitions per calibration point (median taken).
const CALIBRATION_REPS: usize = 3;

/// Exact per-item op counts of one plan step.
///
/// Fused steps go through the paper's fused accounting
/// ([`mlcnn_layer_counts`] on the reconstructed [`ConvLayerGeom`]); all
/// other ops use the dense conventions `opcount` establishes (conv/linear
/// count `taps` adds per output — `taps−1` accumulations plus one bias).
pub fn step_counts(step: &StepView) -> OpCounts {
    let in_s = step.in_shape;
    let out_s = step.out_shape;
    let out_len = (out_s.c * out_s.h * out_s.w) as u64;
    match &step.op {
        OpView::Fused {
            k,
            stride,
            pad,
            pool,
            ..
        } => mlcnn_layer_counts(&fused_geom(step, *k, *stride, *pad, *pool)),
        OpView::Conv { k, stride, pad, .. } => {
            // dense conv, no activation/pool (those are separate steps)
            let g = ConvLayerGeom {
                name: String::new(),
                in_ch: in_s.c,
                out_ch: out_s.c,
                in_h: in_s.h,
                in_w: in_s.w,
                k: *k,
                stride: *stride,
                pad: *pad,
                pool: None,
            };
            let out_pos = (g.out_h() * g.out_w()) as u64;
            let taps = (g.in_ch * g.k * g.k) as u64;
            OpCounts {
                mults: out_pos * g.out_ch as u64 * taps,
                adds: out_pos * g.out_ch as u64 * taps,
                divs: 0,
                cmps: 0,
            }
        }
        OpView::ReLU => OpCounts {
            cmps: (in_s.c * in_s.h * in_s.w) as u64,
            ..OpCounts::zero()
        },
        // sigmoid: one add + one divide per element, plus a small fixed
        // polynomial cost for exp (counted as multiplications)
        OpView::Sigmoid => {
            let n = (in_s.c * in_s.h * in_s.w) as u64;
            OpCounts {
                mults: 4 * n,
                adds: n,
                divs: n,
                cmps: 0,
            }
        }
        OpView::AvgPool { window, .. } => {
            let win = (window * window) as u64;
            OpCounts {
                adds: out_len * (win - 1),
                divs: out_len,
                ..OpCounts::zero()
            }
        }
        OpView::MaxPool { window, .. } => {
            let win = (window * window) as u64;
            OpCounts {
                cmps: out_len * (win - 1),
                ..OpCounts::zero()
            }
        }
        OpView::Flatten => OpCounts::zero(),
        OpView::Linear {
            in_features,
            out_features,
            ..
        } => {
            let (inf, outf) = (*in_features as u64, *out_features as u64);
            OpCounts {
                mults: inf * outf,
                // per output: in−1 accumulations + 1 bias
                adds: inf * outf,
                divs: 0,
                cmps: 0,
            }
        }
    }
}

/// Reconstruct the conv+pool geometry of a fused step for the `opcount`
/// formulas (fused steps always carry a non-overlapping average pool —
/// `window == stride` — per the fusion legality gate).
fn fused_geom(step: &StepView, k: usize, stride: usize, pad: usize, pool: usize) -> ConvLayerGeom {
    ConvLayerGeom {
        name: String::new(),
        in_ch: step.in_shape.c,
        out_ch: step.out_shape.c,
        in_h: step.in_shape.h,
        in_w: step.in_shape.w,
        k,
        stride,
        pad,
        pool: Some(PoolAfter {
            window: pool,
            stride: pool,
            avg: true,
        }),
    }
}

/// Exact per-item op counts of a whole plan: the sum of
/// [`step_counts`] over every step.
pub fn plan_counts(view: &PlanView) -> OpCounts {
    let mut total = OpCounts::zero();
    for step in &view.steps {
        total += step_counts(step);
    }
    total
}

/// Predicted service time as a function of batch size, anchored on the
/// plan's exact op counts. See the [module docs](self) for the model.
#[derive(Debug, Clone, PartialEq)]
pub struct CostOracle {
    per_item: OpCounts,
    base_nanos: f64,
    nanos_per_flop: f64,
    calibrated: bool,
}

impl CostOracle {
    /// Uncalibrated oracle over a plan view: exact counts, nominal
    /// scalar-kernel throughput. Deterministic — what lints and
    /// compile-time tooling use.
    pub fn analytic(view: &PlanView) -> CostOracle {
        CostOracle {
            per_item: plan_counts(view),
            base_nanos: ANALYTIC_BASE_NANOS,
            nanos_per_flop: ANALYTIC_NANOS_PER_FLOP,
            calibrated: false,
        }
    }

    /// Oracle from explicit coefficients — for tests and for callers
    /// that fitted (or chose) the model elsewhere. The marginal cost is
    /// clamped to the same positive floor calibration uses, so the
    /// monotonicity guarantee holds for any input.
    pub fn with_coefficients(
        per_item: OpCounts,
        base_nanos: f64,
        nanos_per_flop: f64,
    ) -> CostOracle {
        CostOracle {
            per_item,
            base_nanos: base_nanos.max(0.0),
            nanos_per_flop: nanos_per_flop.max(MIN_NANOS_PER_FLOP),
            calibrated: false,
        }
    }

    /// Calibrated oracle: run a short measured warmup on `plan` (batch 1
    /// and batch `max_batch`, [`CALIBRATION_REPS`] reps each, medians)
    /// and fit the affine model to the measurements. INT8 plans execute
    /// per item, so their fitted marginal cost naturally reflects that.
    ///
    /// Fails only if the plan cannot run a zero input (which the P-code
    /// verifier would already have denied).
    pub fn calibrated(plan: &ExecutionPlan, max_batch: usize) -> Result<CostOracle, String> {
        let per_item = plan_counts(&plan.view());
        let flops_item = (per_item.flops().max(1)) as f64;
        let b = max_batch.max(1);
        let mut ws = Workspace::for_plan(plan, b);

        let t1 = measure_nanos(plan, &mut ws, 1)?;
        let (base, slope) = if b > 1 {
            let tb = measure_nanos(plan, &mut ws, b)?;
            if tb > t1 {
                let slope = (tb - t1) as f64 / ((b - 1) as f64 * flops_item);
                let base = (t1 as f64 - slope * flops_item).max(0.0);
                (base, slope)
            } else {
                // flat/inverted measurement (noise): fall back to a pure
                // per-item model, still monotone
                (0.0, t1 as f64 / flops_item)
            }
        } else {
            (0.0, t1 as f64 / flops_item)
        };
        Ok(CostOracle {
            per_item,
            base_nanos: base,
            nanos_per_flop: slope.max(MIN_NANOS_PER_FLOP),
            calibrated: true,
        })
    }

    /// The exact per-item op counts the oracle prices from.
    pub fn per_item_counts(&self) -> OpCounts {
        self.per_item
    }

    /// Whether the coefficients came from a measured warmup.
    pub fn is_calibrated(&self) -> bool {
        self.calibrated
    }

    /// Exact FLOPs of a batch of `batch` items: `batch · flops(1)` —
    /// the plan's compute is strictly linear in the batch.
    pub fn flops(&self, batch: usize) -> u64 {
        self.per_item.flops().saturating_mul(batch as u64)
    }

    /// Predicted service time for one batch of `batch` items, in
    /// nanoseconds. Monotone nondecreasing in `batch`.
    pub fn predicted_service_nanos(&self, batch: usize) -> u64 {
        let b = batch.max(1) as f64;
        let nanos = self.base_nanos + b * self.per_item.flops().max(1) as f64 * self.nanos_per_flop;
        nanos.min(u64::MAX as f64) as u64
    }

    /// Predicted service time of a single item — the floor below which no
    /// latency budget is satisfiable ([`crate::slo`] `D003`).
    pub fn min_service_nanos(&self) -> u64 {
        self.predicted_service_nanos(1)
    }

    /// The batch-latency curve `predicted(1..=max_batch)` the auto-tuner
    /// walks.
    pub fn batch_latency_curve(&self, max_batch: usize) -> Vec<u64> {
        (1..=max_batch.max(1))
            .map(|b| self.predicted_service_nanos(b))
            .collect()
    }
}

/// Median wall time of `CALIBRATION_REPS` forwards at `batch`, after one
/// discarded warmup run.
fn measure_nanos(plan: &ExecutionPlan, ws: &mut Workspace, batch: usize) -> Result<u64, String> {
    let item = plan.input_shape();
    let input = Tensor::<f32>::zeros(Shape4::new(batch, item.c, item.h, item.w));
    plan.forward(&input, ws)
        .map_err(|e| format!("calibration forward failed at batch {batch}: {e}"))?;
    let mut samples = Vec::with_capacity(CALIBRATION_REPS);
    for _ in 0..CALIBRATION_REPS {
        let t = Instant::now();
        plan.forward(&input, ws)
            .map_err(|e| format!("calibration forward failed at batch {batch}: {e}"))?;
        samples.push(t.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
    samples.sort_unstable();
    Ok(samples[samples.len() / 2].max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcnn_check::{ParamProfile, StepView};

    fn fused_step() -> StepView {
        // 4→8 ch, 3x3 conv on 18x18, 2x2 avg pool — mirrors
        // opcount::tests::simple_geom(3, 18, 4, 8, 2)
        StepView {
            op: OpView::Fused {
                k: 3,
                stride: 1,
                pad: 0,
                pool: 2,
                relu: true,
                weight: ParamProfile::of(&[]),
                bias: ParamProfile::of(&[]),
                channels: Vec::new(),
            },
            in_shape: Shape4::new(1, 4, 18, 18),
            out_shape: Shape4::new(1, 8, 8, 8),
            round_after: false,
        }
    }

    #[test]
    fn fused_step_counts_match_opcount_exactly() {
        let step = fused_step();
        let got = step_counts(&step);
        let want = mlcnn_layer_counts(&ConvLayerGeom {
            name: "t".into(),
            in_ch: 4,
            out_ch: 8,
            in_h: 18,
            in_w: 18,
            k: 3,
            stride: 1,
            pad: 0,
            pool: Some(PoolAfter {
                window: 2,
                stride: 2,
                avg: true,
            }),
        });
        assert_eq!(got, want);
    }

    #[test]
    fn linear_and_relu_counts_follow_dense_conventions() {
        let lin = StepView {
            op: OpView::Linear {
                in_features: 120,
                out_features: 10,
                weight: ParamProfile::of(&[]),
                bias: ParamProfile::of(&[]),
                channels: Vec::new(),
            },
            in_shape: Shape4::new(1, 1, 1, 120),
            out_shape: Shape4::new(1, 1, 1, 10),
            round_after: false,
        };
        let c = step_counts(&lin);
        assert_eq!(c.mults, 1200);
        assert_eq!(c.adds, 1200);
        let relu = StepView {
            op: OpView::ReLU,
            in_shape: Shape4::new(1, 2, 3, 4),
            out_shape: Shape4::new(1, 2, 3, 4),
            round_after: false,
        };
        assert_eq!(step_counts(&relu).cmps, 24);
        assert_eq!(step_counts(&relu).flops(), 0);
    }

    fn view_of(steps: Vec<StepView>) -> PlanView {
        PlanView {
            precision: mlcnn_quant::Precision::Fp32,
            input_shape: steps[0].in_shape,
            output_shape: steps[steps.len() - 1].out_shape,
            buf_item_len: 0,
            conv_scratch_len: 0,
            steps,
        }
    }

    #[test]
    fn analytic_prediction_is_monotone_and_linear_in_flops() {
        let o = CostOracle::analytic(&view_of(vec![fused_step()]));
        let curve = o.batch_latency_curve(16);
        for w in curve.windows(2) {
            assert!(w[0] <= w[1], "curve not monotone: {curve:?}");
        }
        for b in 1..=16usize {
            assert_eq!(o.flops(b), b as u64 * o.per_item_counts().flops());
        }
        assert!(!o.is_calibrated());
        assert_eq!(o.min_service_nanos(), o.predicted_service_nanos(1));
    }

    #[test]
    fn plan_counts_sum_steps() {
        let v = view_of(vec![fused_step(), fused_step()]);
        let one = step_counts(&v.steps[0]);
        let total = plan_counts(&v);
        assert_eq!(total.mults, 2 * one.mults);
        assert_eq!(total.adds, 2 * one.adds);
    }
}
