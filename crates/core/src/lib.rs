//! # mlcnn-core
//!
//! The MLCNN contribution (Jiang et al., IPDPS 2022): cross-layer
//! cooperative optimization of convolution + activation + pooling.
//!
//! * [`reorder`] — the accuracy-preserving layer reordering pass
//!   (Section III): `ReLU → AvgPool` becomes `AvgPool → ReLU` as a pure
//!   [`mlcnn_nn::LayerSpec`] transformation, plus the All-Conv baseline
//!   transformation the paper compares against.
//! * [`fused`] — the fused convolution-pooling operator (Section IV,
//!   Algorithm 1): redundant multiplication elimination (RME) by weight
//!   factorization over the pooled block sums, with local (LAR) and global
//!   (GAR) addition reuse realized through shared half-addition and
//!   block-sum planes. Functionally equivalent to
//!   `relu(avg_pool(conv(x)))` — exactly, in integer arithmetic.
//! * [`analytic`] — Section V's closed-form addition/multiplication
//!   accounting: Equations (1)–(7) and the generators for Tables II–VI.
//! * [`reuse_sim`] — a memoized ground-truth simulator of the reuse
//!   schemes; the property-test anchor proving the closed forms.
//! * [`opcount`] — per-layer operation counting for whole models (dense
//!   CNN vs MLCNN), the substrate for Figs. 13–15.
//! * [`quantized`] — quantized-MLCNN evaluation (Fig. 12): run a trained
//!   network with weights and activations rounded through FP16 or DoReFa
//!   k-bit grids.
//! * [`plan`] — the compiled inference engine behind all of the above:
//!   an immutable, `Send + Sync` [`plan::ExecutionPlan`] with pre-resolved
//!   geometry and pre-transposed/pre-quantized weights, executing out of a
//!   reusable [`plan::Workspace`] arena with zero steady-state allocation.
//!   `FusedNetwork`, `Network::eval_plan`, and the quantized evaluation
//!   are thin adapters over it.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod analytic;
pub mod content;
pub mod fused;
pub mod fused_net;
pub mod opcount;
pub mod plan;
pub mod quantized;
pub mod reorder;
pub mod reuse_sim;

pub use fused::FusedConvPool;
pub use fused_net::FusedNetwork;
pub use opcount::OpCounts;
pub use plan::{
    EvalPlan, ExecutionPlan, ParamHandle, PlanOptions, PooledWorkspace, SegmentKey, SegmentStats,
    SegmentStore, Workspace, WorkspacePool,
};
