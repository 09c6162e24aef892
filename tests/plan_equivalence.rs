//! Golden equivalence for the execution plan: `ExecutionPlan::forward`
//! must be *bit-identical* to every legacy forward path it replaced —
//! the layerwise `Network`, the `FusedNetwork` pipeline, and the
//! quantized layerwise loop — across the compilable model zoo, plus a
//! proptest that anything `mlcnn-check` accepts compiles to a plan that
//! agrees with the trainable network. The kernel pins underneath live here
//! too, where the tier-1 command sees them: the column-free convolution,
//! the fused conv-pool step and the tiled GEMM against the scalar loops
//! they replaced, bit for bit.

use mlcnn::check::OpView;
use mlcnn::core::fused::FusedGeometry;
use mlcnn::core::quantized::{forward_quantized, quantize_network_weights};
use mlcnn::core::reorder::reorder_activation_pool;
use mlcnn::core::{
    EvalPlan, ExecutionPlan, FusedConvPool, FusedNetwork, PlanOptions, Workspace, WorkspacePool,
};
use mlcnn::nn::spec::build_network;
use mlcnn::nn::{zoo, LayerSpec};
use mlcnn::quant::Precision;
use mlcnn::serve::find_model;
use mlcnn::tensor::conv::{conv2d_direct, conv2d_into, conv_scratch_len, conv_tap_offsets};
use mlcnn::tensor::im2col::im2col_into;
use mlcnn::tensor::linalg::matmul_into;
use mlcnn::tensor::{init, ConvGeometry, Scalar, Shape4, Tensor};
use proptest::prelude::*;

/// Every sequential (plan-compilable) model the zoo offers, in both the
/// as-trained and reordered forms, plus a hand-rolled pipeline covering
/// max pool, sigmoid, global pooling, and an unfused tail.
fn compilable_zoo() -> Vec<(&'static str, Vec<LayerSpec>, Shape4)> {
    let cifar = Shape4::new(1, 3, 32, 32);
    vec![
        ("lenet5", zoo::lenet5_spec(10), cifar),
        (
            "lenet5-reordered",
            reorder_activation_pool(&zoo::lenet5_spec(10)).specs,
            cifar,
        ),
        ("vgg-mini", zoo::vgg_mini_spec(3, 10), cifar),
        (
            "vgg-mini-reordered",
            reorder_activation_pool(&zoo::vgg_mini_spec(3, 10)).specs,
            cifar,
        ),
        (
            "maxpool-sigmoid",
            vec![
                LayerSpec::Conv {
                    out_ch: 6,
                    k: 3,
                    stride: 1,
                    pad: 1,
                },
                LayerSpec::Sigmoid,
                LayerSpec::MaxPool {
                    window: 2,
                    stride: 2,
                },
                LayerSpec::Conv {
                    out_ch: 4,
                    k: 3,
                    stride: 1,
                    pad: 0,
                },
                LayerSpec::GlobalAvgPool,
                LayerSpec::ReLU,
                LayerSpec::Flatten,
                LayerSpec::Linear { out: 5 },
            ],
            Shape4::new(1, 3, 16, 16),
        ),
    ]
}

fn batch_input(input: Shape4, n: usize, seed: u64) -> Tensor<f32> {
    init::uniform(
        Shape4::new(n, input.c, input.h, input.w),
        -1.0,
        1.0,
        &mut init::rng(seed),
    )
}

#[test]
fn layerwise_plan_is_bit_identical_to_network_forward() {
    for (name, specs, input) in compilable_zoo() {
        let mut net = build_network(&specs, input, 41).unwrap();
        let plan = net.eval_plan(PlanOptions::layerwise()).unwrap();
        let x = batch_input(input, 3, 7);
        let legacy = net.forward(&x).unwrap();
        let mut ws = Workspace::for_plan(&plan, 3);
        let planned = plan.forward(&x, &mut ws).unwrap();
        assert_eq!(planned, legacy, "{name}: layerwise plan diverges");
    }
}

#[test]
fn fused_plan_is_bit_identical_to_fused_network() {
    for (name, specs, input) in compilable_zoo() {
        let mut net = build_network(&specs, input, 43).unwrap();
        let params = net.export_params();
        let fused = FusedNetwork::compile(&specs, &params, input).unwrap();
        let plan = ExecutionPlan::compile(&specs, &params, input, PlanOptions::default()).unwrap();
        assert_eq!(plan.fused_op_count(), fused.fused_stage_count(), "{name}");
        let x = batch_input(input, 2, 11);
        let a = fused.forward(&x).unwrap();
        let mut ws = Workspace::for_plan(&plan, 2);
        let b = plan.forward(&x, &mut ws).unwrap();
        assert_eq!(a, b, "{name}: fused plan diverges from FusedNetwork");
    }
}

#[test]
fn quantized_plans_are_bit_identical_to_forward_quantized() {
    for (name, specs, input) in compilable_zoo() {
        for precision in [Precision::Fp16, Precision::Int8] {
            let mut net = build_network(&specs, input, 47).unwrap();
            // compile from the original weights: the plan quantizes at compile
            let plan = net
                .eval_plan(PlanOptions::layerwise().with_precision(precision))
                .unwrap();
            // batch > 1 exercises INT8's batch-global activation scale
            let x = batch_input(input, 3, 13);
            let mut ws = Workspace::for_plan(&plan, 3);
            let planned = plan.forward(&x, &mut ws).unwrap();
            quantize_network_weights(&mut net, precision);
            let legacy = forward_quantized(&mut net, &x, precision).unwrap();
            assert_eq!(
                planned, legacy,
                "{name}@{precision:?}: quantized plan diverges"
            );
        }
    }
}

#[test]
fn plan_is_send_sync_and_shareable_across_threads() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ExecutionPlan>();

    let specs = reorder_activation_pool(&zoo::lenet5_spec(10)).specs;
    let input = Shape4::new(1, 3, 32, 32);
    let mut net = build_network(&specs, input, 53).unwrap();
    let plan = net.eval_plan(PlanOptions::default()).unwrap();
    let x = batch_input(input, 2, 17);
    let baseline = plan
        .forward(&x, &mut Workspace::for_plan(&plan, 2))
        .unwrap();
    // one shared &plan, one workspace per thread
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let mut ws = Workspace::new();
                let y = plan.forward(&x, &mut ws).unwrap();
                assert_eq!(y, baseline);
            });
        }
    });
}

#[test]
fn steady_state_forward_does_not_grow_the_workspace() {
    let specs = reorder_activation_pool(&zoo::lenet5_spec(10)).specs;
    let input = Shape4::new(1, 3, 32, 32);
    let mut net = build_network(&specs, input, 59).unwrap();
    let plan = net.eval_plan(PlanOptions::default()).unwrap();
    let x = batch_input(input, 4, 19);
    let mut ws = Workspace::for_plan(&plan, 4);
    let cap = ws.buffer_capacity();
    // the fused steps' planes live in the counted arena, not beside it
    assert_eq!(plan.fused_op_count(), 2);
    assert_eq!(cap * std::mem::size_of::<f32>(), plan.arena_bytes(4));
    let mut out = Tensor::zeros(plan.batched_output_shape(4));
    for _ in 0..5 {
        plan.forward_into(&x, &mut ws, &mut out).unwrap();
        assert_eq!(ws.buffer_capacity(), cap, "forward grew the arena");
    }
    let fresh = plan.forward(&x, &mut ws).unwrap();
    assert_eq!(out, fresh);
}

#[test]
fn forward_batch_matches_sequential_forward() {
    let specs = reorder_activation_pool(&zoo::lenet5_spec(10)).specs;
    let input = Shape4::new(1, 3, 32, 32);
    let mut net = build_network(&specs, input, 61).unwrap();
    for opts in [
        PlanOptions::default(),
        PlanOptions::default().with_precision(Precision::Fp16),
        PlanOptions::default().with_precision(Precision::Int8),
    ] {
        let plan = net.eval_plan(opts).unwrap();
        let x = batch_input(input, 8, 23);
        let mut ws = Workspace::for_plan(&plan, 8);
        let sequential = plan.forward(&x, &mut ws).unwrap();
        let parallel = plan.forward_batch(&x).unwrap();
        assert_eq!(parallel, sequential, "{opts:?}");
    }
}

#[test]
fn forward_batch_with_shares_one_pool_across_threads() {
    // regression for the serving runtime's sharing model: multiple worker
    // threads run batched inference against ONE plan and ONE workspace
    // pool concurrently, without contending on a single workspace and
    // without cross-talk between their arenas
    let specs = reorder_activation_pool(&zoo::lenet5_spec(10)).specs;
    let input = Shape4::new(1, 3, 32, 32);
    let mut net = build_network(&specs, input, 67).unwrap();
    let plan = net.eval_plan(PlanOptions::default()).unwrap();
    let pool = WorkspacePool::for_plan(&plan, 2, 4);
    let xs: Vec<_> = (0..2).map(|i| batch_input(input, 4, 31 + i)).collect();
    let baselines: Vec<_> = xs
        .iter()
        .map(|x| plan.forward(x, &mut Workspace::for_plan(&plan, 4)).unwrap())
        .collect();
    std::thread::scope(|s| {
        for (x, baseline) in xs.iter().zip(&baselines) {
            let (plan, pool) = (&plan, &pool);
            s.spawn(move || {
                for _ in 0..8 {
                    let y = plan.forward_batch_with(x, pool).unwrap();
                    assert_eq!(&y, baseline, "shared-pool batch forward diverged");
                }
            });
        }
    });
    // leases all returned: the pool retains its warm workspaces
    assert!(pool.idle_count() >= 2, "pool lost its workspaces");
}

#[test]
fn forward_each_is_bitwise_per_item_at_every_precision() {
    // the serving runtime's INT8 path: per-item semantics must match
    // running each item through forward() alone, at every precision
    let specs = zoo::lenet5_spec(10);
    let input = Shape4::new(1, 3, 32, 32);
    let mut net = build_network(&specs, input, 71).unwrap();
    for precision in [Precision::Fp32, Precision::Fp16, Precision::Int8] {
        let plan = net
            .eval_plan(PlanOptions::default().with_precision(precision))
            .unwrap();
        let x = batch_input(input, 5, 37);
        let pool = WorkspacePool::new();
        let each = plan.forward_each(&x, &pool).unwrap();
        let mut ws = Workspace::for_plan(&plan, 1);
        for i in 0..5 {
            let alone = plan.forward(&x.batch_item(i).unwrap(), &mut ws).unwrap();
            assert_eq!(
                each.batch_item(i).unwrap(),
                alone,
                "forward_each item {i} diverges at {precision}"
            );
        }
    }
}

#[test]
fn one_workspace_serves_plans_of_different_geometry_and_batch() {
    // the conv scratch holds a zero ring for one plan, im2col columns for
    // the next, and a smaller ring after that: every forward must rewrite
    // what it relies on, so a shared workspace gives a fresh one's bits
    let strided = vec![
        LayerSpec::Conv {
            out_ch: 5,
            k: 3,
            stride: 2,
            pad: 1,
        },
        LayerSpec::ReLU,
        LayerSpec::Conv {
            out_ch: 4,
            k: 3,
            stride: 1,
            pad: 2,
        },
        LayerSpec::Flatten,
        LayerSpec::Linear { out: 7 },
    ];
    let mut models = compilable_zoo();
    models.push(("strided", strided, Shape4::new(1, 2, 13, 9)));
    let plans: Vec<_> = models
        .iter()
        .map(|(_, specs, input)| {
            let mut net = build_network(specs, *input, 73).unwrap();
            (net.eval_plan(PlanOptions::layerwise()).unwrap(), *input)
        })
        .collect();
    let mut shared = Workspace::new();
    for (round, batch) in [3usize, 1, 4, 2].into_iter().enumerate() {
        // alternate the visiting order so every plan follows every other
        let order: Vec<usize> = if round % 2 == 0 {
            (0..plans.len()).collect()
        } else {
            (0..plans.len()).rev().collect()
        };
        for i in order {
            let (plan, input) = &plans[i];
            let x = batch_input(*input, batch, 79 + round as u64);
            let fresh = plan.forward(&x, &mut Workspace::new()).unwrap();
            let reused = plan.forward(&x, &mut shared).unwrap();
            assert_eq!(reused, fresh, "{} at batch {batch}", models[i].0);
        }
    }
}

#[test]
fn full_window_convs_lower_to_linear_steps() {
    // lenet5's conv3 (5x5 window on a 5x5 input) must not run as a GEMM
    // with a one-column right-hand side; bit-identity with the layerwise
    // and quantized paths is pinned by the zoo tests above
    for name in ["lenet5", "lenet5-reordered"] {
        for precision in Precision::ALL {
            let view = find_model(name).unwrap().compile(precision).unwrap().view();
            let lowered = Shape4::new(1, 120, 1, 1);
            assert!(
                view.steps
                    .iter()
                    .any(|s| matches!(s.op, OpView::Linear { .. }) && s.out_shape == lowered),
                "{name}@{precision}: conv3 did not lower"
            );
            for s in &view.steps {
                let one_pixel = s.out_shape.h * s.out_shape.w == 1;
                assert!(
                    !(matches!(s.op, OpView::Conv { .. }) && one_pixel),
                    "{name}@{precision}: a conv step with a 1x1 output survived"
                );
            }
        }
    }
}

#[test]
fn vgg_mini_arena_shrank_with_the_column_matrix() {
    // two 8×3072 ping-pong buffers + conv1's 3×34×34 padded planes; the
    // im2col matrix it replaced (27×1024) made this 307,200 bytes
    let plan = find_model("vgg-mini")
        .unwrap()
        .compile(Precision::Fp32)
        .unwrap();
    assert_eq!(plan.arena_bytes(8), (2 * 8 * 3072 + 3 * 34 * 34) * 4);
    assert!(plan.arena_bytes(8) < 307_200);
}

/// The scalar ikj GEMM every product in the repo used to run through.
fn matmul_ikj(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0_f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let aip = a[i * k + p];
            for j in 0..n {
                c[i * n + j] += aip * b[p * n + j];
            }
        }
    }
    c
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn matmul_into_is_bitwise_the_ikj_loop_for_all_small_shapes() {
    // every tile width, every ragged remainder in both directions
    let mut rng = init::rng(83);
    let a = init::uniform(Shape4::new(1, 1, 20, 20), -1.0, 1.0, &mut rng).into_vec();
    let b = init::uniform(Shape4::new(1, 1, 20, 20), -1.0, 1.0, &mut rng).into_vec();
    for m in 1..=20 {
        for k in 1..=20 {
            for n in 1..=20 {
                let (a, b) = (&a[..m * k], &b[..k * n]);
                let mut c = vec![f32::NAN; m * n];
                matmul_into(a, b, &mut c, m, k, n);
                assert_eq!(bits(&c), bits(&matmul_ikj(a, b, m, k, n)), "{m}x{k}x{n}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The column-free kernel against the path it replaced — im2col, the
    /// scalar ikj GEMM, then a bias pass — bit for bit, over channel counts
    /// that leave ragged tile rows, kernels up to 5×5, rings up to 2,
    /// strides up to 3 (the phase planes) and non-square inputs whose
    /// padded-width rows end in ragged tiles. A read past a window's end
    /// would panic. The seven-loop `conv2d_direct` cross-checks the
    /// values, since the oracle shares `im2col_into` with the backward
    /// pass.
    #[test]
    fn column_free_conv_is_bitwise_im2col_then_ikj(
        seed in 0u64..1_000_000,
        c_in in 1usize..=13,
        out_ch in 1usize..=13,
        k in 1usize..=5,
        pad in 0usize..=2,
        stride in 1usize..=3,
        grow_h in 0usize..=9,
        grow_w in 0usize..=14,
        batch in 1usize..=2,
    ) {
        // at least one window fits; h and w vary independently
        let smallest = k.saturating_sub(2 * pad).max(1);
        let (h, w) = (smallest + grow_h, smallest + grow_w);
        let geom = ConvGeometry::new(h, w, k, k, stride, pad).unwrap();
        let mut rng = init::rng(seed);
        let input = init::uniform(Shape4::new(batch, c_in, h, w), -1.0, 1.0, &mut rng);
        let weight = init::uniform(Shape4::new(out_ch, c_in, k, k), -1.0, 1.0, &mut rng);
        let bias = init::uniform(Shape4::new(1, 1, 1, out_ch), -1.0, 1.0, &mut rng).into_vec();

        let taps = conv_tap_offsets(c_in, &geom);
        let mut scratch = vec![f32::NAN; conv_scratch_len(c_in, &geom).unwrap()];
        let mut got = vec![f32::NAN; batch * out_ch * geom.out_len()];
        conv2d_into(
            input.as_slice(), c_in, &geom, weight.as_slice(), Some(&bias),
            &taps, &mut scratch, &mut got,
        );

        let (kk, n) = (c_in * geom.taps(), geom.out_len());
        let mut cols = vec![0.0_f32; kk * n];
        let mut want = Vec::with_capacity(got.len());
        for item in input.as_slice().chunks_exact(c_in * h * w) {
            im2col_into(item, c_in, &geom, &mut cols);
            let prod = matmul_ikj(weight.as_slice(), &cols, out_ch, kk, n);
            for (row, b) in prod.chunks_exact(n).zip(&bias) {
                want.extend(row.iter().map(|v| v + b));
            }
        }
        prop_assert_eq!(bits(&got), bits(&want), "{:?} c_in={} out_ch={}", geom, c_in, out_ch);

        let direct = conv2d_direct(&input, &weight, Some(&bias), stride, pad).unwrap();
        let got = Tensor::from_vec(direct.shape(), got).unwrap();
        prop_assert!(got.approx_eq(&direct, 1e-4), "{:?}", geom);
    }
}

/// Algorithm 1 one element at a time, in the order the fused step sums:
/// each block sum over the half additions of the chosen LAR orientation,
/// then `Σ_(c,i,j)` ascending from zero, then `×1/p²`, `+bias` and ReLU.
fn fused_scalar(
    f: &FusedConvPool<f32>,
    item: &[f32],
    geom: &FusedGeometry,
    row_based: bool,
) -> Vec<f32> {
    let (p, s, pad) = (f.pool(), f.conv_stride(), geom.pad);
    let w = f.weight();
    let (cout, cin, k) = (w.shape().n, w.shape().c, geom.k);
    let px = |c: usize, y: usize, x: usize| -> f32 {
        let (y, x) = (y.wrapping_sub(pad), x.wrapping_sub(pad));
        if y < geom.in_h && x < geom.in_w {
            item[(c * geom.in_h + y) * geom.in_w + x]
        } else {
            0.0
        }
    };
    let block_sum = |c: usize, a: usize, b: usize| -> f32 {
        let half = |outer: usize| -> f32 {
            let at = |inner: usize| {
                if row_based {
                    px(c, a + outer * s, b + inner * s)
                } else {
                    px(c, a + inner * s, b + outer * s)
                }
            };
            (1..p).fold(at(0), |acc, inner| acc + at(inner))
        };
        (1..p).fold(half(0), |acc, outer| acc + half(outer))
    };
    let inv_area = 1.0 / ((p * p) as f32);
    let mut out = Vec::with_capacity(cout * geom.out_h * geom.out_w);
    for to in 0..cout {
        for x in 0..geom.out_h {
            for y in 0..geom.out_w {
                let mut acc = 0.0_f32;
                for c in 0..cin {
                    for i in 0..k {
                        for j in 0..k {
                            acc += w.at(to, c, i, j) * block_sum(c, p * x * s + i, p * y * s + j);
                        }
                    }
                }
                let v = acc * inv_area + f.bias()[to];
                out.push(if f.relu() { v.relu() } else { v });
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The fused conv-pool step — row-slice block sums, the `G`-conv on the
    /// column-free GEMM over phase planes, one epilogue pass — against
    /// Algorithm 1 evaluated one element at a time, bit for bit, over conv
    /// strides up to 3, pools up to 4, kernels up to 5×5, rings up to 2,
    /// both LAR orientations and non-square inputs. The scratch starts
    /// NaN-poisoned, so any element read before it is written shows.
    #[test]
    fn fused_step_is_bitwise_the_scalar_algorithm(
        seed in 0u64..1_000_000,
        c_in in 1usize..=4,
        out_ch in 1usize..=5,
        k in 1usize..=5,
        stride in 1usize..=3,
        pool in 1usize..=4,
        pad in 0usize..=2,
        grow_h in 0usize..=6,
        grow_w in 0usize..=9,
        row_based in any::<bool>(),
        relu in any::<bool>(),
    ) {
        // the smallest input with one pooled output; h and w vary apart
        let smallest = (k + (pool - 1) * stride).saturating_sub(2 * pad).max(1);
        let (h, w) = (smallest + grow_h, smallest + grow_w);
        let mut rng = init::rng(seed);
        let input = init::uniform(Shape4::new(1, c_in, h, w), -1.0, 1.0, &mut rng);
        let weight = init::uniform(Shape4::new(out_ch, c_in, k, k), -1.0, 1.0, &mut rng);
        let bias = init::uniform(Shape4::new(1, 1, 1, out_ch), -1.0, 1.0, &mut rng).into_vec();
        let f = FusedConvPool::new(weight, bias, stride, pad, pool)
            .unwrap()
            .with_relu(relu)
            .with_row_based_lar(row_based);
        let geom = f.geometry(input.shape()).unwrap();
        let gconv = geom.block_sum_conv().unwrap();
        let taps = conv_tap_offsets(c_in, &gconv);
        let mut scratch = vec![f32::NAN; geom.scratch_len(c_in).unwrap()];
        let mut got = vec![f32::NAN; out_ch * geom.out_h * geom.out_w];
        f.forward_item_into(input.as_slice(), &geom, &gconv, &taps, &mut got, &mut scratch);

        let want = fused_scalar(&f, input.as_slice(), &geom, row_based);
        prop_assert_eq!(bits(&got), bits(&want), "{:?}", geom);
        let batch = f.forward(&input).unwrap();
        prop_assert_eq!(bits(batch.as_slice()), bits(&want), "forward {:?}", geom);
    }
}

// -- proptest: the static gate is sound for the plan compiler too --

fn arb_layer() -> impl Strategy<Value = LayerSpec> {
    prop_oneof![
        ((0usize..=6), (0usize..=5), (0usize..=3), (0usize..=2)).prop_map(
            |(out_ch, k, stride, pad)| LayerSpec::Conv {
                out_ch,
                k,
                stride,
                pad
            }
        ),
        Just(LayerSpec::ReLU),
        Just(LayerSpec::Sigmoid),
        ((0usize..=5), (0usize..=4))
            .prop_map(|(window, stride)| LayerSpec::AvgPool { window, stride }),
        ((0usize..=5), (0usize..=4))
            .prop_map(|(window, stride)| LayerSpec::MaxPool { window, stride }),
        Just(LayerSpec::GlobalAvgPool),
        Just(LayerSpec::Flatten),
        (0usize..=12).prop_map(|out| LayerSpec::Linear { out }),
        (0u8..=90).prop_map(|percent| LayerSpec::Dropout { percent }),
    ]
}

fn arb_specs() -> impl Strategy<Value = Vec<LayerSpec>> {
    proptest::collection::vec(arb_layer(), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any spec list `check_compile` accepts must compile to a plan in
    /// both modes, and the layerwise plan must agree with the trainable
    /// network bit for bit.
    #[test]
    fn check_accepted_specs_compile_to_matching_plans(specs in arb_specs()) {
        let input = Shape4::new(1, 3, 16, 16);
        if mlcnn::check::check_compile(&specs, input).is_ok() {
            let mut net = build_network(&specs, input, 11)
                .expect("check_compile implies buildable");
            let plan = net.eval_plan(PlanOptions::layerwise());
            prop_assert!(plan.is_ok(), "check accepted but plan rejected: {:?}", specs);
            let plan = plan.unwrap();
            prop_assert!(
                net.eval_plan(PlanOptions::default()).is_ok(),
                "fused-mode plan rejected: {:?}",
                specs
            );
            let x = batch_input(input, 2, 29);
            let legacy = net.forward(&x).unwrap();
            let mut ws = Workspace::for_plan(&plan, 2);
            let planned = plan.forward(&x, &mut ws).unwrap();
            prop_assert_eq!(planned, legacy, "plan diverges for {:?}", specs);
        }
    }
}
