//! The system under test, as the benchmark sees it.
//!
//! This is the only module that names an `mlcnn_*` crate. Everything the
//! benchmark times or checks goes through the re-exports and functions
//! below, so the list of public functions the numbers depend on is this
//! file, and API drift in `crates/*` breaks here and nowhere else.
//!
//! Functions used, by layer:
//!
//! * `tensor` — `init::{rng, uniform}`, `linalg::matmul_into`,
//!   `im2col::im2col_into`, `pool::avg_pool2d`, `activation::relu_inplace`,
//!   `conv::conv2d_im2col`, `ConvGeometry::new`, `Tensor::batch_item`,
//!   `Shape4`
//! * `nn` — `spec::build_network`, `Network::{forward, export_params}`,
//!   `LayerSpec`
//! * `quant` — `dorefa::quantize_activations_ptq_slice`, `Precision`
//! * `core` — `ExecutionPlan::{compile, forward, view, verify,
//!   forward_each, arena_bytes}`, `Workspace::for_plan`,
//!   `WorkspacePool::for_plan`, `PlanOptions`,
//!   `FusedConvPool::{new, forward}`, `quantized::round_f16_slice`
//! * `check` — `PlanView`, `StepView`, `OpView` (the data model of
//!   `ExecutionPlan::view`)
//! * `registry` — `Artifact::encode`, `ModelRegistry::{open, plan,
//!   segment_stats}`
//! * `sched` — `plan_counts`, `step_counts`, `CostOracle::{calibrated,
//!   predicted_service_nanos}`, `AdmissionPolicy::{new, admit}`,
//!   `ArrivalSchedule::{bursty, uniform}`, `SloSpec`
//! * `serve` — `find_model`, `ServeModel::artifact`, `SERVE_SEED`,
//!   `ServeConfig`, `Service::{spawn, submit, metrics, shutdown}`,
//!   `Ticket::wait`, `Router::with_slos`, `Frame::{encode, decode_body}`,
//!   `read_frame`, `write_frame`, `Microbatcher::{new, push, poll}`
//! * `net` — `NetServer::{spawn, local_addr, shutdown}`, `NetConfig`,
//!   `FrameDecoder::{new, extend, next}`

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use mlcnn_core::{FusedConvPool, PlanOptions};
use mlcnn_net::{NetConfig, NetServer};
use mlcnn_nn::spec::build_network;
use mlcnn_nn::{LayerSpec, Network};
use mlcnn_registry::ModelRegistry;
use mlcnn_serve::{Router, SERVE_SEED};
use mlcnn_tensor::{init, ConvGeometry};

pub use mlcnn_check::{OpView, PlanView, StepView};
pub use mlcnn_core::{ExecutionPlan, OpCounts, Workspace, WorkspacePool};
pub use mlcnn_net::FrameDecoder;
pub use mlcnn_quant::Precision;
pub use mlcnn_sched::{plan_counts, step_counts, AdmissionPolicy, CostOracle, SloSpec};
pub use mlcnn_serve::{
    read_frame, write_frame, BatchPolicy, Frame, Microbatcher, ServeConfig, ServeModel, Service,
    Ticket,
};
pub use mlcnn_tensor::{Shape4, Tensor};

/// Server-side configuration, fixed for every workload: one reactor
/// shard, one worker, micro-batches of up to [`MAX_BATCH`] formed within
/// [`MAX_WAIT`].
pub const MAX_BATCH: usize = 8;
/// Longest the batcher holds a request while a batch fills.
pub const MAX_WAIT: Duration = Duration::from_millis(1);

/// Byte offset of the correlation id in an encoded frame
/// (`[len u32][kind u8][id u64]`).
const FRAME_ID_OFFSET: usize = 5;

/// Look a serving-zoo model up by name.
pub fn model(name: &str) -> Result<ServeModel, String> {
    mlcnn_serve::find_model(name).map_err(|e| e.to_string())
}

/// `count` input items of `item` geometry, uniform in `[-1, 1)`, drawn
/// from `seed`.
pub fn uniform_items(item: Shape4, count: usize, seed: u64) -> Tensor<f32> {
    init::uniform(
        Shape4::new(count, item.c, item.h, item.w),
        -1.0,
        1.0,
        &mut init::rng(seed),
    )
}

/// The batch items of `batch` as `1×c×h×w` tensors (`Tensor::batch_item`).
pub fn split_items(batch: &Tensor<f32>) -> Result<Vec<Tensor<f32>>, String> {
    (0..batch.shape().n)
        .map(|n| batch.batch_item(n).map_err(|e| e.to_string()))
        .collect()
}

/// The zoo's trained-weight stand-in: parameters drawn from `SERVE_SEED`,
/// in `Network::export_params` order.
pub fn params(model: &ServeModel) -> Result<Vec<Tensor<f32>>, String> {
    Ok(network(&model.specs, model.input)?.export_params())
}

fn network(specs: &[LayerSpec], input: Shape4) -> Result<Network, String> {
    build_network(specs, input, SERVE_SEED).map_err(|e| e.to_string())
}

/// `ExecutionPlan::compile` at `precision` with default fusion.
pub fn compile(
    specs: &[LayerSpec],
    params: &[Tensor<f32>],
    input: Shape4,
    precision: Precision,
) -> Result<ExecutionPlan, String> {
    ExecutionPlan::compile(
        specs,
        params,
        input,
        PlanOptions::default().with_precision(precision),
    )
    .map_err(|e| e.to_string())
}

/// Compile a zoo model the way a server would: weights from `SERVE_SEED`.
pub fn compile_model(model: &ServeModel, precision: Precision) -> Result<ExecutionPlan, String> {
    compile(&model.specs, &params(model)?, model.input, precision)
}

/// The FP32 layerwise reference (`Network::forward`) the accuracy budget
/// is stated against.
pub struct Reference(Network);

impl Reference {
    /// Build the reference network for `model` with the served weights.
    pub fn new(model: &ServeModel) -> Result<Reference, String> {
        network(&model.specs, model.input).map(Reference)
    }

    /// `Network::forward` on a batch.
    pub fn forward(&mut self, x: &Tensor<f32>) -> Result<Tensor<f32>, String> {
        self.0.forward(x).map_err(|e| e.to_string())
    }
}

/// Which per-step line of the ladder a plan step is reported under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// im2col + GEMM convolution.
    Conv,
    /// MLCNN fused conv-pool(-ReLU) kernel.
    Fused,
    /// Fully connected.
    Linear,
    /// Average or max pooling.
    Pool,
    /// ReLU or sigmoid.
    Act,
}

impl StepKind {
    /// Every kind, in report order.
    pub const ALL: [StepKind; 5] = [
        StepKind::Conv,
        StepKind::Fused,
        StepKind::Linear,
        StepKind::Pool,
        StepKind::Act,
    ];

    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            StepKind::Conv => "conv",
            StepKind::Fused => "fused",
            StepKind::Linear => "linear",
            StepKind::Pool => "pool",
            StepKind::Act => "act",
        }
    }

    /// The kind of a plan step; `None` for steps that move no data.
    pub fn of(op: &OpView) -> Option<StepKind> {
        match op {
            OpView::Conv { .. } => Some(StepKind::Conv),
            OpView::Fused { .. } => Some(StepKind::Fused),
            OpView::Linear { .. } => Some(StepKind::Linear),
            OpView::AvgPool { .. } | OpView::MaxPool { .. } => Some(StepKind::Pool),
            OpView::ReLU | OpView::Sigmoid => Some(StepKind::Act),
            OpView::Flatten => None,
        }
    }
}

/// A plan holding only `step`, rebuilt from the geometry its view states
/// (weights redrawn from `SERVE_SEED`: step time does not depend on their
/// values). `None` for steps that move no data.
pub fn one_step_plan(
    step: &StepView,
    precision: Precision,
) -> Result<Option<ExecutionPlan>, String> {
    let out_ch = step.out_shape.c;
    let specs = match &step.op {
        OpView::Conv { k, stride, pad, .. } => vec![conv_spec(out_ch, *k, *stride, *pad)],
        OpView::Fused {
            k,
            stride,
            pad,
            pool,
            relu,
            ..
        } => {
            let mut specs = vec![
                conv_spec(out_ch, *k, *stride, *pad),
                LayerSpec::AvgPool {
                    window: *pool,
                    stride: *pool,
                },
            ];
            if *relu {
                specs.push(LayerSpec::ReLU);
            }
            specs
        }
        OpView::Linear { out_features, .. } => {
            vec![LayerSpec::Flatten, LayerSpec::Linear { out: *out_features }]
        }
        OpView::AvgPool { window, stride } => vec![LayerSpec::AvgPool {
            window: *window,
            stride: *stride,
        }],
        OpView::MaxPool { window, stride } => vec![LayerSpec::MaxPool {
            window: *window,
            stride: *stride,
        }],
        OpView::ReLU => vec![LayerSpec::ReLU],
        OpView::Sigmoid => vec![LayerSpec::Sigmoid],
        OpView::Flatten => return Ok(None),
    };
    let params = network(&specs, step.in_shape)?.export_params();
    compile(&specs, &params, step.in_shape, precision).map(Some)
}

fn conv_spec(out_ch: usize, k: usize, stride: usize, pad: usize) -> LayerSpec {
    LayerSpec::Conv {
        out_ch,
        k,
        stride,
        pad,
    }
}

/// A convolution's geometry plus pooling window (0 = none follows), as the
/// raw kernels need it.
#[derive(Debug, Clone, Copy)]
pub struct ConvShape {
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Square kernel extent.
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub pad: usize,
    /// Input height and width.
    pub in_hw: (usize, usize),
}

impl ConvShape {
    /// The conv geometry of a `Conv` or `Fused` step.
    pub fn of(step: &StepView) -> Option<ConvShape> {
        let (k, stride, pad) = match &step.op {
            OpView::Conv { k, stride, pad, .. } | OpView::Fused { k, stride, pad, .. } => {
                (*k, *stride, *pad)
            }
            _ => return None,
        };
        Some(ConvShape {
            in_c: step.in_shape.c,
            out_c: step.out_shape.c,
            k,
            stride,
            pad,
            in_hw: (step.in_shape.h, step.in_shape.w),
        })
    }

    fn geometry(&self) -> Result<ConvGeometry, String> {
        ConvGeometry::new(
            self.in_hw.0,
            self.in_hw.1,
            self.k,
            self.k,
            self.stride,
            self.pad,
        )
        .map_err(|e| e.to_string())
    }

    /// GEMM dimensions `(m, k, n)` of this conv for one item.
    pub fn gemm_dims(&self) -> Result<(usize, usize, usize), String> {
        let g = self.geometry()?;
        Ok((self.out_c, self.in_c * g.taps(), g.out_len()))
    }

    /// Conv output height and width.
    pub fn out_hw(&self) -> Result<(usize, usize), String> {
        let g = self.geometry()?;
        Ok((g.out_h, g.out_w))
    }

    /// `im2col::im2col_into` on one item; `cols` must hold `k·n` elements
    /// of [`Self::gemm_dims`].
    pub fn im2col(&self, item: &[f32], cols: &mut [f32]) -> Result<(), String> {
        mlcnn_tensor::im2col::im2col_into(item, self.in_c, &self.geometry()?, cols);
        Ok(())
    }

    /// Random `(weight, bias)` of this conv's shape.
    pub fn weights(&self) -> (Tensor<f32>, Vec<f32>) {
        let mut rng = init::rng(SERVE_SEED);
        let w = init::uniform(
            Shape4::new(self.out_c, self.in_c, self.k, self.k),
            -0.5,
            0.5,
            &mut rng,
        );
        let b = init::uniform(Shape4::new(1, 1, 1, self.out_c), -0.5, 0.5, &mut rng);
        (w, b.into_vec())
    }
}

/// `linalg::matmul_into`.
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    mlcnn_tensor::linalg::matmul_into(a, b, c, m, k, n);
}

/// `pool::avg_pool2d`.
pub fn avg_pool(x: &Tensor<f32>, window: usize, stride: usize) -> Result<Tensor<f32>, String> {
    mlcnn_tensor::pool::avg_pool2d(x, window, stride).map_err(|e| e.to_string())
}

/// `activation::relu_inplace`.
pub fn relu(x: &mut Tensor<f32>) {
    mlcnn_tensor::activation::relu_inplace(x);
}

/// `core::quantized::round_f16_slice`.
pub fn round_f16(xs: &mut [f32]) {
    mlcnn_core::quantized::round_f16_slice(xs);
}

/// `dorefa::quantize_activations_ptq_slice(_, 8)`.
pub fn round_int8(xs: &mut [f32]) {
    mlcnn_quant::dorefa::quantize_activations_ptq_slice(xs, 8);
}

/// The fused conv-pool-ReLU kernel and its unfused equivalent over the
/// same weights, for `core.fused_over_unfused`.
pub struct FusedPair {
    fused: FusedConvPool<f32>,
    weight: Tensor<f32>,
    bias: Vec<f32>,
    shape: ConvShape,
    pool: usize,
}

impl FusedPair {
    /// Build both forms for `shape` followed by a `pool × pool` average.
    pub fn new(shape: ConvShape, pool: usize) -> Result<FusedPair, String> {
        let (weight, bias) = shape.weights();
        let fused = FusedConvPool::new(weight.clone(), bias.clone(), shape.stride, shape.pad, pool)
            .map_err(|e| e.to_string())?;
        Ok(FusedPair {
            fused,
            weight,
            bias,
            shape,
            pool,
        })
    }

    /// `FusedConvPool::forward`.
    pub fn fused(&self, x: &Tensor<f32>) -> Result<Tensor<f32>, String> {
        self.fused.forward(x).map_err(|e| e.to_string())
    }

    /// `conv2d_im2col` + `avg_pool2d` + `relu_inplace`.
    pub fn unfused(&self, x: &Tensor<f32>) -> Result<Tensor<f32>, String> {
        let conv = mlcnn_tensor::conv::conv2d_im2col(
            x,
            &self.weight,
            Some(&self.bias),
            self.shape.stride,
            self.shape.pad,
        )
        .map_err(|e| e.to_string())?;
        let mut pooled = avg_pool(&conv, self.pool, self.pool)?;
        relu(&mut pooled);
        Ok(pooled)
    }
}

/// `Artifact::encode` of revision 1 of `model` at `precision`.
pub fn encode_artifact(model: &ServeModel, precision: Precision) -> Result<Vec<u8>, String> {
    model
        .artifact(1, precision, SERVE_SEED)
        .map_err(|e| e.to_string())?
        .encode()
        .map_err(|e| e.to_string())
}

/// Pack `model` into `dir` as `<name>@1.mlcnn` (the directory is created).
pub fn pack(model: &ServeModel, precision: Precision, dir: &Path) -> Result<(), String> {
    let bytes = encode_artifact(model, precision)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let file = dir.join(format!("{}@1.mlcnn", model.name));
    std::fs::write(&file, bytes).map_err(|e| format!("{}: {e}", file.display()))
}

/// `ModelRegistry::open`.
pub fn open_registry(dir: &Path) -> Result<ModelRegistry, String> {
    ModelRegistry::open(dir).map_err(|e| e.to_string())
}

/// `ModelRegistry::plan` for the active revision.
pub fn registry_plan(
    registry: &ModelRegistry,
    model: &str,
    precision: Precision,
) -> Result<Arc<ExecutionPlan>, String> {
    registry
        .plan(model, None, precision)
        .map(|(_, plan)| plan)
        .map_err(|e| e.to_string())
}

/// `ModelRegistry::segment_stats().resident_bytes`.
pub fn registry_resident_bytes(registry: &ModelRegistry) -> usize {
    registry.segment_stats().resident_bytes
}

/// The fixed service configuration at `precision`; `slo` switches the
/// scheduler's admission and EDF machinery on.
pub fn serve_config(precision: Precision, slo: Option<SloSpec>) -> ServeConfig {
    let cfg = ServeConfig::default()
        .with_workers(1)
        .with_batching(MAX_BATCH, MAX_WAIT)
        .with_precision(precision);
    match slo {
        Some(spec) => cfg.with_slo(spec),
        None => cfg,
    }
}

/// What a service worker runs a formed batch through when parallel regions
/// are sequential (`workloads::RAYON_THREADS` = 1): `forward_each` at INT8,
/// where coalescing must not change the activation scale, and plain
/// `forward` on a leased workspace otherwise.
pub fn service_forward(
    plan: &ExecutionPlan,
    batch: &Tensor<f32>,
    pool: &WorkspacePool,
) -> Result<Tensor<f32>, String> {
    if plan.precision() == Precision::Int8 {
        plan.forward_each(batch, pool)
    } else {
        plan.forward(batch, &mut pool.lease())
    }
    .map_err(|e| e.to_string())
}

/// The workspace pool `Service::spawn` builds for the fixed configuration.
pub fn service_pool(plan: &ExecutionPlan) -> WorkspacePool {
    WorkspacePool::for_plan(plan, 1, MAX_BATCH)
}

/// `Service::spawn` over a shared plan with the fixed configuration.
pub fn spawn_service(plan: Arc<ExecutionPlan>, precision: Precision) -> Result<Service, String> {
    Service::spawn(plan, serve_config(precision, None)).map_err(|e| e.to_string())
}

/// An in-process `mlcnn-net` server over a `Router` on a packed registry
/// directory, listening on an ephemeral loopback port.
pub struct Server {
    net: NetServer,
    // keeps the services alive for as long as the reactors dispatch to them
    _router: Arc<Router>,
}

impl Server {
    /// `ModelRegistry::open(dir)` → `Router` → `NetServer::spawn`.
    pub fn start(dir: &Path, precision: Precision, slo: Option<SloSpec>) -> Result<Server, String> {
        let registry = Arc::new(open_registry(dir)?);
        let router = Arc::new(
            Router::with_slos(registry, serve_config(precision, slo), BTreeMap::new())
                .map_err(|e| e.to_string())?,
        );
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let net = NetServer::spawn(
            listener,
            Arc::clone(&router),
            NetConfig::default().with_shards(1),
        )
        .map_err(|e| format!("NetServer::spawn: {e}"))?;
        Ok(Server {
            net,
            _router: router,
        })
    }

    /// The bound loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    /// Stop and join the reactors, then drain and join the services.
    pub fn shutdown(self) {
        self.net.shutdown();
    }
}

/// An encoded inference request for `model` with correlation id 0:
/// `InferSloRequest` when `slo` is given, the classless `InferRequest`
/// otherwise.
pub fn encode_infer(
    model: &str,
    input: &Tensor<f32>,
    slo: Option<SloSpec>,
) -> Result<Vec<u8>, String> {
    let frame = match slo {
        Some(spec) => Frame::InferSloRequest {
            id: 0,
            model: model.to_string(),
            class: spec.class,
            budget_micros: spec.budget_micros(),
            input: input.clone(),
        },
        None => Frame::InferRequest {
            id: 0,
            model: model.to_string(),
            input: input.clone(),
        },
    };
    frame.encode().map_err(|e| e.to_string())
}

/// Rewrite the correlation id of an encoded frame in place.
pub fn patch_frame_id(frame: &mut [u8], id: u64) {
    frame[FRAME_ID_OFFSET..FRAME_ID_OFFSET + 8].copy_from_slice(&id.to_be_bytes());
}

/// `ArrivalSchedule::bursty(..).offsets_nanos()`.
pub fn bursty_offsets(seed: u64, rate_rps: u64, n: usize, burst: usize) -> Vec<u64> {
    mlcnn_sched::ArrivalSchedule::bursty(seed, rate_rps, n, burst)
        .offsets_nanos()
        .to_vec()
}

/// `ArrivalSchedule::uniform(..).offsets_nanos()`.
pub fn uniform_offsets(seed: u64, rate_rps: u64, n: usize) -> Vec<u64> {
    mlcnn_sched::ArrivalSchedule::uniform(seed, rate_rps, n)
        .offsets_nanos()
        .to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patched_id_equals_encoded_id() {
        let x = uniform_items(Shape4::new(1, 3, 4, 4), 1, 3);
        for slo in [
            None,
            Some(SloSpec::best_effort()),
            Some(SloSpec::guaranteed(Duration::from_micros(20_000))),
        ] {
            let mut patched = encode_infer("lenet5", &x, slo).unwrap();
            patch_frame_id(&mut patched, 0x0102_0304_0506_0708);
            match Frame::decode_body(&patched[4..]).unwrap() {
                Frame::InferRequest { id, .. } | Frame::InferSloRequest { id, .. } => {
                    assert_eq!(id, 0x0102_0304_0506_0708)
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }

    #[test]
    fn every_step_of_every_workload_model_rebuilds() {
        for name in ["vgg-mini", "lenet5-reordered", "vgg-nano", "lenet5"] {
            let m = model(name).unwrap();
            for precision in Precision::ALL {
                let plan = compile_model(&m, precision).unwrap();
                for step in &plan.view().steps {
                    let one = one_step_plan(step, precision).unwrap();
                    assert_eq!(one.is_some(), StepKind::of(&step.op).is_some());
                    if let Some(one) = one {
                        assert_eq!(one.output_shape().len(), step.out_shape.len(), "{name}");
                    }
                }
            }
        }
    }
}
