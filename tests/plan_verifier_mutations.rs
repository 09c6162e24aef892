//! Mutation-kill harness for the `P0xx`/`Q0xx` plan verifier.
//!
//! The verifier's value is measured by what it *rejects*: every test
//! here takes a genuinely compiled zoo plan, seeds one targeted
//! corruption into its view, and asserts the specific diagnostic code
//! that corruption must trigger. The unmutated views must be completely
//! clean first — a verifier that warns on the compiler's own output
//! can't gate anything.
//!
//! The closing proptest is the soundness direction: any spec list the
//! real pipeline (build → export → compile) accepts yields a plan the
//! verifier passes without denials, at every precision.

use mlcnn::check::{check_plan, check_qrange, Code, OpView, PlanView, QRangeOptions, Reporter};
use mlcnn::core::{ExecutionPlan, PlanOptions};
use mlcnn::nn::spec::build_network;
use mlcnn::nn::LayerSpec;
use mlcnn::quant::Precision;
use mlcnn::serve::{find_model, serving_zoo};
use mlcnn::tensor::Shape4;
use proptest::prelude::*;

/// Compile one serving-zoo model and export its view.
fn zoo_view(name: &str, precision: Precision) -> PlanView {
    find_model(name)
        .unwrap_or_else(|_| panic!("{name} not in serving zoo"))
        .compile(precision)
        .unwrap_or_else(|e| panic!("{name}@{precision}: {e}"))
        .view()
}

/// Run both passes over a view and return the reporter.
fn analyze(view: &PlanView) -> Reporter {
    let mut r = Reporter::new();
    check_plan(view, &mut r);
    check_qrange(view, &QRangeOptions::default(), &mut r);
    r
}

/// Assert the mutation is killed: `code` fired, and (unless the code
/// defaults to a warning) the reporter denies.
fn assert_killed(view: &PlanView, code: Code, what: &str) {
    let r = analyze(view);
    assert!(
        r.find(code).is_some(),
        "{what}: expected {} to fire, got:\n{}",
        code.as_str(),
        r.pretty()
    );
}

#[test]
fn unmutated_zoo_views_are_clean_at_every_precision() {
    for model in serving_zoo() {
        for precision in Precision::ALL {
            let view = zoo_view(model.name, precision);
            let r = analyze(&view);
            assert!(
                r.is_clean(),
                "{}@{precision} should be clean:\n{}",
                model.name,
                r.pretty()
            );
        }
    }
}

#[test]
fn shrunk_arena_is_killed_by_p003() {
    let mut view = zoo_view("lenet5", Precision::Fp32);
    view.buf_item_len /= 2;
    assert_killed(&view, Code::PlanArenaMismatch, "shrunk buf_item_len");
}

#[test]
fn inflated_arena_is_killed_by_p003() {
    let mut view = zoo_view("lenet5", Precision::Fp32);
    view.buf_item_len *= 2;
    assert_killed(&view, Code::PlanArenaMismatch, "inflated buf_item_len");
}

#[test]
fn conv_scratch_one_element_off_is_killed_by_p004() {
    // the bound is exact in both directions: vgg-mini's widest staging
    // area is conv1's zero-ringed 3×34×34 plane set
    let clean = zoo_view("vgg-mini", Precision::Fp32);
    assert_eq!(clean.conv_scratch_len, 3 * 34 * 34);
    for (delta, what) in [(-1isize, "one short"), (1, "one long")] {
        let mut view = clean.clone();
        view.conv_scratch_len = view.conv_scratch_len.wrapping_add_signed(delta);
        assert_killed(&view, Code::PlanConvScratchMismatch, what);
    }
    // lenet5's convs are unpadded (read in place) or lowered to linear:
    // any scratch at all is an overallocation
    let mut view = zoo_view("lenet5", Precision::Fp32);
    assert_eq!(view.conv_scratch_len, 0);
    view.conv_scratch_len = 1;
    assert_killed(&view, Code::PlanConvScratchMismatch, "needless scratch");
}

#[test]
fn fused_scratch_one_element_off_is_killed_by_p004() {
    // lenet5-reordered's widest scratch is its first fused step over the
    // unpadded 3×32×32 input: a 31×32 half-addition plane, three 31×31
    // block-sum planes, and the stride-2 G-conv's 2×2 phase planes of 16×16
    let clean = zoo_view("lenet5-reordered", Precision::Int8);
    assert_eq!(
        clean.conv_scratch_len,
        31 * 32 + 3 * 31 * 31 + 3 * 4 * 16 * 16
    );
    for (delta, what) in [(-1isize, "one short"), (1, "one long")] {
        let mut view = clean.clone();
        view.conv_scratch_len = view.conv_scratch_len.wrapping_add_signed(delta);
        assert_killed(&view, Code::PlanConvScratchMismatch, what);
    }
}

#[test]
fn broken_shape_link_is_killed_by_p001() {
    let mut view = zoo_view("lenet5", Precision::Fp32);
    let mid = view.steps.len() / 2;
    view.steps[mid].in_shape.c += 1;
    assert_killed(
        &view,
        Code::PlanShapeChainBroken,
        "bumped mid-chain channel",
    );
}

#[test]
fn truncated_bias_is_killed_by_p005() {
    let mut view = zoo_view("lenet5", Precision::Fp32);
    let step = view
        .steps
        .iter_mut()
        .find_map(|s| match &mut s.op {
            OpView::Fused { bias, .. }
            | OpView::Conv { bias, .. }
            | OpView::Linear { bias, .. } => Some(bias),
            _ => None,
        })
        .expect("lenet5 has parameterized steps");
    step.len -= 1;
    assert_killed(&view, Code::PlanParamMismatch, "truncated bias profile");
}

#[test]
fn dropped_channel_profile_is_killed_by_p005() {
    let mut view = zoo_view("lenet5", Precision::Fp32);
    for s in &mut view.steps {
        if let OpView::Linear { channels, .. } = &mut s.op {
            channels.pop();
            break;
        }
    }
    assert_killed(&view, Code::PlanParamMismatch, "dropped channel profile");
}

#[test]
fn regrouped_channel_profile_is_killed_by_p005() {
    // merge one conv channel's per-input-channel groups into a single
    // aggregate: the totals still add up, but the grouping the range
    // analysis relies on is gone
    let mut view = zoo_view("lenet5", Precision::Fp32);
    let ch = view
        .steps
        .iter_mut()
        .find_map(|s| match &mut s.op {
            OpView::Fused { channels, .. } | OpView::Conv { channels, .. } if s.in_shape.c > 1 => {
                channels.first_mut()
            }
            _ => None,
        })
        .expect("lenet5 has a multi-input-channel conv");
    ch.per_input = vec![(ch.pos, ch.neg)];
    assert_killed(&view, Code::PlanParamMismatch, "merged per-input groups");
}

#[test]
fn flipped_rounding_is_killed_by_p009() {
    let mut view = zoo_view("lenet5", Precision::Fp16);
    let mid = view.steps.len() / 2;
    view.steps[mid].round_after = !view.steps[mid].round_after;
    assert_killed(&view, Code::PlanRoundingInvalid, "flipped round_after");
}

#[test]
fn zeroed_pool_window_is_killed_by_p006() {
    let mut view = zoo_view("lenet5", Precision::Fp32);
    let w = view
        .steps
        .iter_mut()
        .find_map(|s| match &mut s.op {
            OpView::Fused { pool, .. } => Some(pool),
            OpView::AvgPool { window, .. } | OpView::MaxPool { window, .. } => Some(window),
            _ => None,
        })
        .expect("lenet5 pools");
    *w = 0;
    assert_killed(&view, Code::PlanBadStepGeometry, "zeroed pool window");
}

#[test]
fn in_place_shape_change_is_killed_by_p002() {
    let mut view = zoo_view("vgg-mini", Precision::Fp32);
    let step = view
        .steps
        .iter_mut()
        .find(|s| matches!(s.op, OpView::ReLU))
        .expect("vgg-mini has standalone ReLU steps");
    // transpose the plane: same element count, different layout — an
    // in-place op cannot do that
    std::mem::swap(&mut step.out_shape.h, &mut step.out_shape.c);
    assert_killed(&view, Code::PlanIllegalInPlace, "reshaped in-place ReLU");
}

#[test]
fn exploded_weights_are_killed_by_q002_at_fp16() {
    let mut view = zoo_view("lenet5", Precision::Fp16);
    for s in &mut view.steps {
        if let OpView::Linear { channels, .. } = &mut s.op {
            for ch in channels.iter_mut() {
                ch.pos *= 1.0e9;
                ch.neg *= 1.0e9;
                for g in ch.per_input.iter_mut() {
                    g.0 *= 1.0e9;
                    g.1 *= 1.0e9;
                }
            }
        }
    }
    let r = analyze(&view);
    assert!(
        r.find(Code::RangeFp16Overflow).is_some(),
        "exploded linear weights must trip Q002:\n{}",
        r.pretty()
    );
    assert!(!r.has_deny(), "Q codes stay warnings:\n{}", r.pretty());
}

// ---- soundness: whatever the real pipeline compiles, the verifier accepts ----

fn arb_layer() -> impl Strategy<Value = LayerSpec> {
    prop_oneof![
        ((1usize..=4), (1usize..=3), (1usize..=2), (0usize..=1)).prop_map(
            |(out_ch, k, stride, pad)| LayerSpec::Conv {
                out_ch,
                k,
                stride,
                pad
            }
        ),
        Just(LayerSpec::ReLU),
        Just(LayerSpec::Sigmoid),
        ((1usize..=3), (1usize..=3))
            .prop_map(|(window, stride)| LayerSpec::AvgPool { window, stride }),
        ((1usize..=3), (1usize..=3))
            .prop_map(|(window, stride)| LayerSpec::MaxPool { window, stride }),
        Just(LayerSpec::Flatten),
        (1usize..=8).prop_map(|out| LayerSpec::Linear { out }),
        (0u8..=50).prop_map(|percent| LayerSpec::Dropout { percent }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compiled_random_specs_verify_without_denials(
        specs in proptest::collection::vec(arb_layer(), 1..6),
        precision_idx in 0usize..3,
    ) {
        let input = Shape4::new(1, 2, 12, 12);
        let precision = Precision::ALL[precision_idx];
        // only spec lists the real builder accepts are in scope
        let Ok(mut net) = build_network(&specs, input, 11) else { return Ok(()) };
        let params = net.export_params();
        let opts = PlanOptions::default().with_precision(precision);
        let Ok(plan) = ExecutionPlan::compile(&specs, &params, input, opts) else {
            return Ok(());
        };
        prop_assert!(
            plan.verify().is_ok(),
            "verifier denied a compiled plan for {:?}@{}: {:?}",
            specs,
            precision,
            plan.verify()
        );
        // the range pass must run to completion with finite scales
        let mut r = Reporter::new();
        let report = check_qrange(&plan.view(), &QRangeOptions::default(), &mut r);
        prop_assert_eq!(report.steps.len(), plan.len());
        prop_assert!(report.steps.iter().all(|s| s.lo <= s.hi && s.int8_scale.is_finite()));
    }
}
