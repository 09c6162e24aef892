//! Plan execution: one dispatch site over the shared `_into` slice
//! kernels, ping-ponging between the workspace's two activation buffers.
//!
//! Every op body here calls the *same* kernel the legacy paths call
//! (`conv2d_into`, the GEMM micro-kernel, the pool plane kernels,
//! `FusedConvPool::forward_item_into`, the quantizer slice forms), with
//! the same geometry and the same summation order — bitwise equivalence
//! with `Network::forward` / `FusedNetwork` / `forward_quantized` holds by
//! construction, and the golden suite in `tests/plan_equivalence.rs`
//! enforces it. Steps never fork: batch-level parallelism lives in
//! `forward_batch*`, so the conv and linear steps call the serial GEMM
//! driver whatever `RAYON_NUM_THREADS` says.

use super::{ExecutionPlan, Op, Step, Workspace};
use crate::quantized::round_f16_slice;
use mlcnn_quant::{dorefa, Precision};
use mlcnn_tensor::conv::conv2d_into;
use mlcnn_tensor::linalg::matmul_serial_into;
use mlcnn_tensor::pool::{avg_pool_plane_into, max_pool_plane_into};
use mlcnn_tensor::scalar::Scalar;
use mlcnn_tensor::{Result, Tensor};

/// Execute `plan` over `input`, writing the logits into `out` (which must
/// hold exactly `batch × output_item` elements). The only buffers touched
/// are the workspace's — no allocation once the workspace is warm.
pub(crate) fn run(
    plan: &ExecutionPlan,
    input: &Tensor<f32>,
    ws: &mut Workspace,
    out: &mut [f32],
) -> Result<()> {
    let batch = input.shape().n;
    ws.ensure(plan, batch);
    let in_item = plan.input_shape.len();
    let out_item = plan.output_shape.len();
    debug_assert_eq!(out.len(), batch * out_item);

    // disjoint field borrows: a/b ping-pong, conv is kernel scratch
    let Workspace { a, b, conv, .. } = ws;
    a[..batch * in_item].copy_from_slice(input.as_slice());
    let mut cur_in_a = true;

    for step in &plan.steps {
        let in_len = batch * step.in_shape.len();
        let out_len = batch * step.out_shape.len();
        match &step.op {
            // shape bookkeeping only: the data does not move
            Op::Flatten => {}
            // activations run in place on the current buffer
            Op::ReLU => {
                let cur = if cur_in_a { &mut *a } else { &mut *b };
                for v in cur[..in_len].iter_mut() {
                    *v = v.relu();
                }
            }
            Op::Sigmoid => {
                let cur = if cur_in_a { &mut *a } else { &mut *b };
                for v in cur[..in_len].iter_mut() {
                    *v = 1.0 / (1.0 + (-*v).exp());
                }
            }
            op => {
                let (src, dst): (&[f32], &mut [f32]) = if cur_in_a {
                    (&a[..in_len], &mut b[..out_len])
                } else {
                    (&b[..in_len], &mut a[..out_len])
                };
                exec_op(op, step, batch, src, dst, conv)?;
                cur_in_a = !cur_in_a;
            }
        }
        if step.round_after {
            let cur = if cur_in_a { &mut *a } else { &mut *b };
            round_slice(&mut cur[..out_len], plan.precision);
        }
    }

    let cur = if cur_in_a { &a[..] } else { &b[..] };
    out.copy_from_slice(&cur[..batch * out_item]);
    Ok(())
}

/// Re-round activations through the precision's grid — the datapath
/// semantics of `forward_quantized`, in slice form. INT8's scale is the
/// max over the whole (batched) slice, exactly like the legacy
/// whole-tensor quantizer.
fn round_slice(xs: &mut [f32], precision: Precision) {
    match precision {
        Precision::Fp32 => {}
        Precision::Fp16 => round_f16_slice(xs),
        Precision::Int8 => dorefa::quantize_activations_ptq_slice(xs, 8),
    }
}

fn exec_op(
    op: &Op,
    step: &Step,
    batch: usize,
    src: &[f32],
    dst: &mut [f32],
    conv: &mut [f32],
) -> Result<()> {
    let in_item = step.in_shape.len();
    let out_item = step.out_shape.len();
    match op {
        Op::Fused {
            kernel,
            geom,
            gconv,
            taps,
        } => {
            for n in 0..batch {
                kernel.forward_item_into(
                    &src[n * in_item..(n + 1) * in_item],
                    geom,
                    gconv,
                    taps,
                    &mut dst[n * out_item..(n + 1) * out_item],
                    conv,
                );
            }
        }
        Op::Conv {
            weight,
            bias,
            geom,
            taps,
        } => conv2d_into(
            src,
            step.in_shape.c,
            geom,
            weight.as_slice(),
            Some(bias),
            taps,
            conv,
            dst,
        ),
        Op::AvgPool(g) => {
            let in_plane = g.in_h * g.in_w;
            let out_plane = g.out_h * g.out_w;
            let inv_area = 1.0 / (g.area() as f32);
            for p in 0..batch * step.in_shape.c {
                avg_pool_plane_into(
                    &src[p * in_plane..(p + 1) * in_plane],
                    g,
                    inv_area,
                    &mut dst[p * out_plane..(p + 1) * out_plane],
                );
            }
        }
        Op::MaxPool(g) => {
            let in_plane = g.in_h * g.in_w;
            let out_plane = g.out_h * g.out_w;
            for p in 0..batch * step.in_shape.c {
                max_pool_plane_into(
                    &src[p * in_plane..(p + 1) * in_plane],
                    g,
                    &mut dst[p * out_plane..(p + 1) * out_plane],
                    None,
                );
            }
        }
        Op::Linear {
            weight_t,
            bias,
            in_features,
            out_features,
        } => {
            matmul_serial_into(src, weight_t, dst, batch, *in_features, *out_features);
            for bi in 0..batch {
                for (o, bv) in bias.iter().enumerate() {
                    dst[bi * out_features + o] += *bv;
                }
            }
        }
        Op::ReLU | Op::Sigmoid | Op::Flatten => unreachable!("executed in place by run()"),
    }
    Ok(())
}
