//! Whole-model fused inference: compile a reordered, trained network into
//! an executable pipeline where every `conv → avg-pool [→ ReLU]` group
//! runs through the MLCNN fused operator, and everything else runs the
//! reference kernels.
//!
//! This is the deployment story of the paper: Section III reorders, the
//! accelerator of Section VI executes the fused groups in fused mode and
//! the rest in regular mode. [`FusedNetwork::compile`] performs the same
//! partitioning in software, so a trained `mlcnn_nn::Network` can be run
//! end-to-end with MLCNN arithmetic and checked for prediction
//! equivalence.
//!
//! Since the introduction of [`crate::plan`], `FusedNetwork` is a thin
//! adapter: `compile` delegates to [`ExecutionPlan::compile`] (which does
//! the partitioning, pre-transposes Linear weights, and sizes the
//! workspace arena), and `forward` runs the plan. What remains here is the
//! stage *description* — weight-free [`FusedStage`] descriptors for
//! inspection and the fused-vs-dense op accounting of Figs. 13–15.

use crate::opcount::OpCounts;
use crate::plan::{ExecutionPlan, Op, PlanOptions, Workspace};
use mlcnn_nn::LayerSpec;
use mlcnn_tensor::{Result, Shape4, Tensor};

/// One stage of the compiled pipeline, as a weight-free descriptor. The
/// weights themselves live inside the backing [`ExecutionPlan`] (already
/// transposed/baked for execution); these descriptors exist for display,
/// stage accounting, and the op-count reports.
pub enum FusedStage {
    /// A fused conv + avg-pool (+ optional ReLU) group.
    Fused {
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// Kernel extent.
        k: usize,
        /// Convolution stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
        /// Pool window (equals the pool stride; non-overlapping).
        pool: usize,
    },
    /// A plain convolution (regular mode).
    Conv {
        /// Output channels.
        out_ch: usize,
        /// Kernel extent.
        k: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
    },
    /// ReLU activation.
    ReLU,
    /// Sigmoid activation.
    Sigmoid,
    /// Average pooling (not fusable: overlapping or after non-conv).
    AvgPool {
        /// Window.
        window: usize,
        /// Stride.
        stride: usize,
    },
    /// Max pooling.
    MaxPool {
        /// Window.
        window: usize,
        /// Stride.
        stride: usize,
    },
    /// Flatten to a feature vector.
    Flatten,
    /// Fully connected layer.
    Linear {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
}

impl FusedStage {
    /// Human-readable stage kind.
    pub fn kind(&self) -> &'static str {
        match self {
            FusedStage::Fused { .. } => "fused-conv-pool",
            FusedStage::Conv { .. } => "conv",
            FusedStage::ReLU => "relu",
            FusedStage::Sigmoid => "sigmoid",
            FusedStage::AvgPool { .. } => "avgpool",
            FusedStage::MaxPool { .. } => "maxpool",
            FusedStage::Flatten => "flatten",
            FusedStage::Linear { .. } => "linear",
        }
    }
}

/// A compiled fused-inference pipeline: stage descriptors over a backing
/// [`ExecutionPlan`].
pub struct FusedNetwork {
    plan: ExecutionPlan,
    stages: Vec<FusedStage>,
    input_shape: Shape4,
}

impl FusedNetwork {
    /// Compile a *sequential* spec list plus its trained parameters (in
    /// `Network::export_params` order: conv/linear layers contribute
    /// `[weight, bias]` pairs in execution order).
    ///
    /// Patterns fused: `Conv, AvgPool{w==s}` and
    /// `Conv, AvgPool{w==s}, ReLU` (the post-reorder form), and
    /// `Conv, GlobalAvgPool [ , ReLU]` when the conv output is square.
    /// Composite specs (inception / dense blocks) are rejected — the
    /// accelerator compiles branch pipelines separately.
    pub fn compile(
        specs: &[LayerSpec],
        params: &[Tensor<f32>],
        input: Shape4,
    ) -> Result<FusedNetwork> {
        let plan = ExecutionPlan::compile(specs, params, input, PlanOptions::default())?;
        let stages = plan
            .steps
            .iter()
            .map(|step| match &step.op {
                Op::Fused { geom, .. } => FusedStage::Fused {
                    in_ch: step.in_shape.c,
                    out_ch: step.out_shape.c,
                    k: geom.k,
                    stride: geom.conv_stride,
                    pad: geom.pad,
                    pool: geom.pool,
                },
                Op::Conv { weight, geom, .. } => FusedStage::Conv {
                    out_ch: weight.shape().n,
                    k: geom.k_h,
                    stride: geom.stride,
                    pad: geom.pad,
                },
                Op::ReLU => FusedStage::ReLU,
                Op::Sigmoid => FusedStage::Sigmoid,
                Op::AvgPool(g) => FusedStage::AvgPool {
                    window: g.window,
                    stride: g.stride,
                },
                Op::MaxPool(g) => FusedStage::MaxPool {
                    window: g.window,
                    stride: g.stride,
                },
                Op::Flatten => FusedStage::Flatten,
                Op::Linear {
                    in_features,
                    out_features,
                    ..
                } => FusedStage::Linear {
                    in_features: *in_features,
                    out_features: *out_features,
                },
            })
            .collect();
        Ok(FusedNetwork {
            plan,
            stages,
            input_shape: input,
        })
    }

    /// The compiled stage descriptors.
    pub fn stages(&self) -> &[FusedStage] {
        &self.stages
    }

    /// The backing execution plan (shareable across threads; pair it with
    /// a per-thread [`Workspace`] for allocation-free forwards).
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// Number of fused conv-pool groups in the pipeline.
    pub fn fused_stage_count(&self) -> usize {
        self.plan.fused_op_count()
    }

    /// Expected single-item input shape.
    pub fn input_shape(&self) -> Shape4 {
        self.input_shape
    }

    /// Run inference. Allocates a transient workspace; use
    /// [`FusedNetwork::forward_with`] in loops to reuse one.
    pub fn forward(&self, input: &Tensor<f32>) -> Result<Tensor<f32>> {
        let mut ws = Workspace::for_plan(&self.plan, input.shape().n);
        self.plan.forward(input, &mut ws)
    }

    /// Run inference out of a caller-owned workspace — zero steady-state
    /// allocation beyond the returned tensor.
    pub fn forward_with(&self, input: &Tensor<f32>, ws: &mut Workspace) -> Result<Tensor<f32>> {
        self.plan.forward(input, ws)
    }

    /// Aggregate op counts of the conv stages for a given input: the
    /// MLCNN bill (fused where compiled fused) and the dense-CNN bill for
    /// the same architecture.
    pub fn conv_op_counts(&self) -> (OpCounts, OpCounts) {
        use mlcnn_nn::zoo::{ConvLayerGeom, PoolAfter};
        let mut mlcnn = OpCounts::zero();
        let mut dense = OpCounts::zero();
        for step in &self.plan.steps {
            match &step.op {
                Op::Fused { geom, .. } => {
                    let g = ConvLayerGeom {
                        name: "stage".into(),
                        in_ch: step.in_shape.c,
                        out_ch: step.out_shape.c,
                        in_h: step.in_shape.h,
                        in_w: step.in_shape.w,
                        k: geom.k,
                        stride: geom.conv_stride,
                        pad: geom.pad,
                        pool: Some(PoolAfter {
                            window: geom.pool,
                            stride: geom.pool,
                            avg: true,
                        }),
                    };
                    mlcnn += crate::opcount::mlcnn_layer_counts(&g);
                    dense += crate::opcount::dense_layer_counts(&g);
                }
                // unfused conv layers are billed dense on both sides. A
                // linear step over a square spatial input is one too: a
                // full-window convolution, which is what compile lowers
                // such a conv to.
                Op::Conv { .. } | Op::Linear { .. } => {
                    let (out_ch, k, stride, pad) = match &step.op {
                        Op::Conv { geom, .. } => {
                            (step.out_shape.c, geom.k_h, geom.stride, geom.pad)
                        }
                        Op::Linear { out_features, .. }
                            if step.in_shape.h > 1 && step.in_shape.h == step.in_shape.w =>
                        {
                            (*out_features, step.in_shape.h, 1, 0)
                        }
                        _ => continue,
                    };
                    let g = ConvLayerGeom {
                        name: "stage".into(),
                        in_ch: step.in_shape.c,
                        out_ch,
                        in_h: step.in_shape.h,
                        in_w: step.in_shape.w,
                        k,
                        stride,
                        pad,
                        pool: None,
                    };
                    let c = crate::opcount::dense_layer_counts(&g);
                    mlcnn += c;
                    dense += c;
                }
                _ => {}
            }
        }
        (mlcnn, dense)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reorder::reorder_activation_pool;
    use mlcnn_nn::spec::build_network;
    use mlcnn_nn::zoo;
    use mlcnn_tensor::init;

    fn compile_lenet() -> (FusedNetwork, mlcnn_nn::Network, Shape4) {
        let specs = reorder_activation_pool(&zoo::lenet5_spec(10)).specs;
        let input = Shape4::new(1, 3, 32, 32);
        let mut net = build_network(&specs, input, 17).unwrap();
        let params = net.export_params();
        let fused = FusedNetwork::compile(&specs, &params, input).unwrap();
        (fused, net, input)
    }

    #[test]
    fn compiled_lenet_has_two_fused_stages() {
        let (fused, _, _) = compile_lenet();
        assert_eq!(fused.fused_stage_count(), 2);
        let kinds: Vec<&str> = fused.stages().iter().map(FusedStage::kind).collect();
        // conv1+pool1 fused, conv2+pool2 fused; conv3's 5x5 window covers
        // its whole 5x5 input, so it runs as a third linear stage
        assert_eq!(kinds.iter().filter(|k| **k == "conv").count(), 0);
        assert_eq!(kinds.iter().filter(|k| **k == "linear").count(), 3);
    }

    #[test]
    fn fused_inference_matches_the_layer_network() {
        let (fused, mut net, input) = compile_lenet();
        let x = init::uniform(
            Shape4::new(2, input.c, input.h, input.w),
            -1.0,
            1.0,
            &mut init::rng(3),
        );
        let a = fused.forward(&x).unwrap();
        let b = net.forward(&x).unwrap();
        assert_eq!(a.shape(), b.shape());
        assert!(
            a.approx_eq(&b, 1e-3),
            "fused net diverges: {}",
            a.max_abs_diff(&b).unwrap()
        );
    }

    #[test]
    fn forward_with_reuses_one_workspace_across_calls() {
        let (fused, _, input) = compile_lenet();
        let x = init::uniform(
            Shape4::new(2, input.c, input.h, input.w),
            -1.0,
            1.0,
            &mut init::rng(9),
        );
        let baseline = fused.forward(&x).unwrap();
        let mut ws = Workspace::for_plan(fused.plan(), 2);
        let cap = ws.buffer_capacity();
        for _ in 0..3 {
            let y = fused.forward_with(&x, &mut ws).unwrap();
            assert_eq!(y, baseline);
        }
        assert_eq!(
            ws.buffer_capacity(),
            cap,
            "steady-state forward grew the arena"
        );
    }

    #[test]
    fn vgg_mini_compiles_and_matches() {
        let specs = reorder_activation_pool(&zoo::vgg_mini_spec(3, 10)).specs;
        let input = Shape4::new(1, 3, 32, 32);
        let mut net = build_network(&specs, input, 23).unwrap();
        let params = net.export_params();
        let fused = FusedNetwork::compile(&specs, &params, input).unwrap();
        assert_eq!(fused.fused_stage_count(), 3);
        let x = init::uniform(input, -1.0, 1.0, &mut init::rng(4));
        let a = fused.forward(&x).unwrap();
        let b = net.forward(&x).unwrap();
        assert!(a.approx_eq(&b, 1e-3));
    }

    #[test]
    fn op_counts_report_the_savings() {
        let (fused, _, _) = compile_lenet();
        let (mlcnn, dense) = fused.conv_op_counts();
        assert!(mlcnn.mults < dense.mults);
        assert!(mlcnn.adds < dense.adds);
        // LeNet's two fused layers save 75% of their mults; C3 is dense,
        // and still billed as a conv although it runs as a linear step
        assert_eq!(dense.mults, 6 * 75 * 784 + 16 * 150 * 100 + 120 * 400);
        let ratio = mlcnn.mults as f64 / dense.mults as f64;
        assert!(ratio < 0.7, "mult ratio {ratio}");
    }

    #[test]
    fn rejects_composite_specs() {
        let specs = zoo::googlenet_mini_spec(2, 10);
        let input = Shape4::new(1, 3, 32, 32);
        let mut net = build_network(&specs, input, 1).unwrap();
        let params = net.export_params();
        assert!(FusedNetwork::compile(&specs, &params, input).is_err());
    }

    #[test]
    fn compile_errors_carry_diagnostic_codes() {
        let input = Shape4::new(1, 3, 8, 8);
        let expect_err = |specs: &[LayerSpec]| match FusedNetwork::compile(specs, &[], input) {
            Err(e) => e,
            Ok(_) => panic!("expected a compile error"),
        };
        // the static gate fires before any parameter is consumed
        let err = expect_err(&[LayerSpec::conv3(4), LayerSpec::BatchNorm]);
        assert!(err.to_string().contains("F005"), "{err}");
        let err = expect_err(&[zoo_conv_too_big()]);
        assert!(err.to_string().contains("S003"), "{err}");
    }

    fn zoo_conv_too_big() -> LayerSpec {
        LayerSpec::Conv {
            out_ch: 4,
            k: 64,
            stride: 1,
            pad: 0,
        }
    }

    #[test]
    fn rejects_leftover_or_missing_params() {
        let specs = reorder_activation_pool(&zoo::lenet5_spec(10)).specs;
        let input = Shape4::new(1, 3, 32, 32);
        let mut net = build_network(&specs, input, 17).unwrap();
        let mut params = net.export_params();
        params.push(params[0].clone());
        assert!(FusedNetwork::compile(&specs, &params, input).is_err());
        params.truncate(params.len() - 3);
        assert!(FusedNetwork::compile(&specs, &params, input).is_err());
    }

    #[test]
    fn global_pool_fuses_when_square() {
        let specs = vec![
            LayerSpec::conv3(4),
            LayerSpec::GlobalAvgPool,
            LayerSpec::ReLU,
            LayerSpec::Flatten,
            LayerSpec::Linear { out: 2 },
        ];
        let input = Shape4::new(1, 1, 8, 8);
        let mut net = build_network(&specs, input, 5).unwrap();
        let params = net.export_params();
        let fused = FusedNetwork::compile(&specs, &params, input).unwrap();
        assert_eq!(fused.fused_stage_count(), 1);
        let x = init::uniform(input, -1.0, 1.0, &mut init::rng(6));
        let a = fused.forward(&x).unwrap();
        let b = net.forward(&x).unwrap();
        assert!(a.approx_eq(&b, 1e-4));
    }
}
