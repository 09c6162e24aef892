//! Read-only plan introspection and the post-lowering self-check.
//!
//! [`ExecutionPlan::view`] exports a compiled plan as an
//! [`mlcnn_check::PlanView`] — shapes, geometry, rounding flags and
//! *profiles* of the baked parameters (lengths, value ranges, per-channel
//! weight aggregates), never the weights themselves. The view is what the
//! `P0xx` dataflow verifier and the `Q0xx` range analysis run over, so
//! `mlcnn-check` needs no access to this crate's `pub(crate)` internals
//! (and no dependency on this crate — the data model lives in check, the
//! builder here).
//!
//! [`ExecutionPlan::verify`] is the deny-mode gate: registry
//! trial-compile and `Router` publish run it so a corrupt or hostile plan
//! is rejected before any service can serve it. `compile` itself re-runs
//! the verifier as a debug assertion — the compiler checking its own
//! output — so any lowering bug that breaks a plan invariant fails loudly
//! in every debug build rather than corrupting an inference.

use super::{ExecutionPlan, Op};
use mlcnn_check::{check_plan, ChannelProfile, OpView, ParamProfile, PlanView, Reporter, StepView};

/// Per-output-channel aggregates of a conv-style weight laid out
/// `out_c × (in_c·k·k)` row-major, sign-split per input channel (`k²`
/// taps per group) so range analysis can keep per-channel intervals.
fn conv_channels(weight: &[f32], bias: &[f32], out_c: usize, in_c: usize) -> Vec<ChannelProfile> {
    if out_c == 0 || !weight.len().is_multiple_of(out_c) || bias.len() != out_c {
        return Vec::new(); // the verifier flags the mismatch as P005
    }
    let per = weight.len() / out_c;
    (0..out_c)
        .map(|c| ChannelProfile::grouped(&weight[c * per..(c + 1) * per], in_c, bias[c]))
        .collect()
}

/// Per-output-feature aggregates of a linear weight stored *transposed*
/// (`in × out` row-major): feature `c`'s weights are the strided column
/// `weight_t[j·out + c]`, sign-split per input feature (group size 1).
fn linear_channels(
    weight_t: &[f32],
    bias: &[f32],
    in_f: usize,
    out_f: usize,
) -> Vec<ChannelProfile> {
    if out_f == 0 || weight_t.len() != in_f * out_f || bias.len() != out_f {
        return Vec::new();
    }
    let mut column = vec![0.0_f32; in_f];
    (0..out_f)
        .map(|c| {
            for (j, slot) in column.iter_mut().enumerate() {
                *slot = weight_t[j * out_f + c];
            }
            ChannelProfile::grouped(&column, in_f, bias[c])
        })
        .collect()
}

impl ExecutionPlan {
    /// Export the plan's structure for static analysis. See the
    /// [module docs](self).
    pub fn view(&self) -> PlanView {
        let steps = self
            .steps
            .iter()
            .map(|step| {
                let op = match &step.op {
                    Op::Fused { kernel, geom, .. } => OpView::Fused {
                        k: geom.k,
                        stride: geom.conv_stride,
                        pad: geom.pad,
                        pool: geom.pool,
                        relu: kernel.relu(),
                        weight: ParamProfile::of(kernel.weight().as_slice()),
                        bias: ParamProfile::of(kernel.bias()),
                        channels: conv_channels(
                            kernel.weight().as_slice(),
                            kernel.bias(),
                            kernel.weight().shape().n,
                            kernel.weight().shape().c,
                        ),
                    },
                    Op::Conv {
                        weight, bias, geom, ..
                    } => OpView::Conv {
                        k: geom.k_h,
                        stride: geom.stride,
                        pad: geom.pad,
                        weight: ParamProfile::of(weight.as_slice()),
                        bias: ParamProfile::of(bias),
                        channels: conv_channels(
                            weight.as_slice(),
                            bias,
                            weight.shape().n,
                            weight.shape().c,
                        ),
                    },
                    Op::ReLU => OpView::ReLU,
                    Op::Sigmoid => OpView::Sigmoid,
                    Op::AvgPool(g) => OpView::AvgPool {
                        window: g.window,
                        stride: g.stride,
                    },
                    Op::MaxPool(g) => OpView::MaxPool {
                        window: g.window,
                        stride: g.stride,
                    },
                    Op::Flatten => OpView::Flatten,
                    Op::Linear {
                        weight_t,
                        bias,
                        in_features,
                        out_features,
                    } => OpView::Linear {
                        in_features: *in_features,
                        out_features: *out_features,
                        weight: ParamProfile::of(weight_t),
                        bias: ParamProfile::of(bias),
                        channels: linear_channels(weight_t, bias, *in_features, *out_features),
                    },
                };
                StepView {
                    op,
                    in_shape: step.in_shape,
                    out_shape: step.out_shape,
                    round_after: step.round_after,
                }
            })
            .collect();
        PlanView {
            precision: self.precision,
            input_shape: self.input_shape,
            output_shape: self.output_shape,
            buf_item_len: self.buf_item_len,
            conv_scratch_len: self.conv_scratch_len,
            steps,
        }
    }

    /// Run the `P0xx` dataflow verifier over this plan, failing on any
    /// denial (warnings pass). The error is the `"; "`-joined denial
    /// diagnostics, the same summary form `check_compile_summary` uses —
    /// this is the gate registry trial-compile and `Router` publish run
    /// before a plan can reach a `Service`.
    pub fn verify(&self) -> Result<(), String> {
        let mut reporter = Reporter::new();
        check_plan(&self.view(), &mut reporter);
        if reporter.has_deny() {
            Err(reporter
                .into_diagnostics()
                .into_iter()
                .filter(|d| d.severity == mlcnn_check::Severity::Deny)
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("; "))
        } else {
            Ok(())
        }
    }

    /// Test hook: corrupt the arena bound so gate tests can exercise the
    /// rejection path on an otherwise valid plan. Hidden — nothing outside
    /// a test should ever shrink a compiled plan's arena.
    #[doc(hidden)]
    pub fn corrupt_buf_item_len_for_tests(&mut self, len: usize) {
        self.buf_item_len = len;
    }

    /// Test hook: flip one step's `round_after` flag (see
    /// [`Self::corrupt_buf_item_len_for_tests`]).
    #[doc(hidden)]
    pub fn corrupt_round_after_for_tests(&mut self, step: usize) {
        let s = &mut self.steps[step];
        s.round_after = !s.round_after;
    }
}

#[cfg(test)]
mod tests {
    use crate::plan::{ExecutionPlan, PlanOptions};
    use mlcnn_nn::zoo;
    use mlcnn_quant::Precision;
    use mlcnn_tensor::Shape4;

    fn lenet_plan(precision: Precision) -> ExecutionPlan {
        let specs = zoo::lenet5_spec(10);
        let input = Shape4::new(1, 3, 32, 32);
        let mut net = mlcnn_nn::spec::build_network(&specs, input, 7).unwrap();
        let params = net.export_params();
        ExecutionPlan::compile(
            &specs,
            &params,
            input,
            PlanOptions::default().with_precision(precision),
        )
        .unwrap()
    }

    #[test]
    fn compiled_plans_verify_clean_at_every_precision() {
        for p in Precision::ALL {
            let plan = lenet_plan(p);
            plan.verify().unwrap_or_else(|e| panic!("{p}: {e}"));
        }
    }

    #[test]
    fn view_mirrors_plan_structure() {
        let plan = lenet_plan(Precision::Fp32);
        let view = plan.view();
        assert_eq!(view.steps.len(), plan.len());
        assert_eq!(view.input_shape, plan.input_shape());
        assert_eq!(view.output_shape, plan.output_shape());
        assert_eq!(view.precision, plan.precision());
        // lenet ends in Linear: its channel profiles cover every output
        let last = view.steps.last().unwrap();
        match &last.op {
            mlcnn_check::OpView::Linear {
                out_features,
                channels,
                ..
            } => assert_eq!(channels.len(), *out_features),
            other => panic!("unexpected last op {}", other.name()),
        }
    }

    #[test]
    fn corrupted_arena_fails_verify_with_p003() {
        let mut plan = lenet_plan(Precision::Fp32);
        plan.corrupt_buf_item_len_for_tests(1);
        let err = plan.verify().unwrap_err();
        assert!(err.contains("P003"), "{err}");
    }

    #[test]
    fn corrupted_rounding_fails_verify_with_p009() {
        let mut plan = lenet_plan(Precision::Fp16);
        plan.corrupt_round_after_for_tests(0);
        let err = plan.verify().unwrap_err();
        assert!(err.contains("P009"), "{err}");
    }

    #[test]
    fn overflow_guard_reports_p008_instead_of_panicking() {
        // a spec whose flatten length arithmetic would overflow usize is
        // unrepresentable through build_network (allocation fails long
        // before); exercise the checked path through the arena summation
        // instead: huge-but-allocatable shapes times batch products.
        let specs = vec![mlcnn_nn::LayerSpec::Flatten];
        let input = Shape4::new(1, 1, 1, 8);
        let plan = ExecutionPlan::compile(&specs, &[], input, PlanOptions::default()).unwrap();
        assert_eq!(plan.output_shape(), Shape4::new(1, 1, 1, 8));
        assert!(plan.verify().is_ok());
    }

    #[test]
    fn qrange_report_covers_every_step() {
        let plan = lenet_plan(Precision::Int8);
        let mut r = mlcnn_check::Reporter::new();
        let report =
            mlcnn_check::check_qrange(&plan.view(), &mlcnn_check::QRangeOptions::default(), &mut r);
        assert_eq!(report.steps.len(), plan.len());
        assert!(report.steps.iter().all(|s| s.lo <= s.hi));
        // every scale the future requantizer would bake is finite
        assert!(report.steps.iter().all(|s| s.int8_scale.is_finite()));
    }
}
