//! The `--trace 1` pass: the layer ladder.
//!
//! The same seeded inputs are pushed through successively deeper public
//! entry points — socket → `Service::submit`/`Ticket::wait` →
//! `ExecutionPlan::forward` → one-step plans rebuilt from
//! `ExecutionPlan::view()` → raw kernels — always on the workload's own
//! model and precision. A layer's self time is its rung minus the rung
//! below. Every call is a span; counts are taken at the same boundaries.
//! The share of `--seconds` each group of measurements gets is fixed
//! below, so a traced run takes about as long as an untraced one.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::json;
use crate::measure::{bitwise_eq, Recorder, Window};
use crate::rig::{out_dir, Oracle, PhaseLen, Rig};
use crate::stats::median;
use crate::sut::{
    self, AdmissionPolicy, BatchPolicy, ConvShape, CostOracle, ExecutionPlan, Frame, FrameDecoder,
    FusedPair, Microbatcher, OpView, Precision, ServeModel, StepKind, StepView, Tensor, Workspace,
};
use crate::trace::{SpanId, Tracer, NO_PARENT};
use crate::workloads::{Kind, MetricDef, Workload, BATCH, INPROC_IN_FLIGHT, PER_LAYER};

// Shares of `--seconds`, per group of measurements.
const SHARE_OWN_LOOP: f64 = 0.10; // twice: untraced, then traced
const SHARE_NET_RUNG: f64 = 0.10;
const SHARE_INPROC_RUNG: f64 = 0.10;
const SHARE_FORWARD: f64 = 0.04; // per precision
const SHARE_STEPS: f64 = 0.14; // split over the plan's steps
const SHARE_KERNELS: f64 = 0.14; // split over the kernel measurements
const SHARE_MICRO: f64 = 0.01; // per micro-measurement

/// Fewest timed repetitions of anything, however short the budget.
const MIN_REPS: usize = 5;
/// Fresh connections timed for `net.connect_us`.
const CONNECT_REPS: usize = 15;
/// Repetitions of the measurements that are too slow to fill a time budget
/// (compile, pack, registry open).
const SLOW_REPS: usize = 7;

/// What the ladder measured, plus the operations it attempted on the way.
pub struct LadderResult {
    /// One value per entry of `workloads::PER_LAYER`, same order.
    pub values: Vec<f64>,
    /// Checked operations offered across all rungs.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
}

/// Collects values by metric name and orders them like `PER_LAYER`.
#[derive(Default)]
struct Metrics(Vec<(String, f64)>);

impl Metrics {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    fn ordered(&self, defs: &[MetricDef]) -> Result<Vec<f64>, String> {
        defs.iter()
            .map(|(name, _)| {
                self.get(name)
                    .ok_or_else(|| format!("the ladder produced no value for '{name}'"))
            })
            .collect()
    }
}

/// Time `block` back-to-back calls of `f`, repeatedly, for `budget` (and at
/// least [`MIN_REPS`] times); returns the median nanoseconds per call.
/// Each timed block is one span under `parent`.
fn sample(
    tracer: &mut Tracer,
    name: &'static str,
    parent: SpanId,
    budget: Duration,
    block: u64,
    mut f: impl FnMut(u64),
) -> f64 {
    let until = Instant::now() + budget;
    let mut per_call = Vec::new();
    let mut call = 0u64;
    while per_call.len() < MIN_REPS || Instant::now() < until {
        let start = Instant::now();
        for _ in 0..block {
            f(call);
            call += 1;
        }
        let end = Instant::now();
        tracer.span(name, start, end, parent, call / block);
        per_call.push((end - start).as_nanos() as f64 / block as f64);
    }
    median(&per_call)
}

/// [`sample`] for calls slow enough that a fixed count is the budget.
fn sample_slow<T>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: SpanId,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<f64, String> {
    let mut ns = Vec::with_capacity(SLOW_REPS);
    for rep in 0..SLOW_REPS {
        let start = Instant::now();
        let out = f()?;
        let end = Instant::now();
        drop(std::hint::black_box(out));
        tracer.span(name, start, end, parent, rep as u64);
        ns.push((end - start).as_nanos() as f64);
    }
    Ok(median(&ns))
}

/// Run the ladder for `w`. `rig` is the workload's own rig, already set
/// up; `oracle` its expected outputs.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    rig: &mut Rig,
    oracle: &Oracle,
    tracer: &mut Tracer,
) -> Result<LadderResult, String> {
    let share = |s: f64| Duration::from_secs_f64(seconds * s);
    let mut m = Metrics::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tally = |win: &Window| {
        attempted += win.attempted;
        failed += win.failed;
    };
    let model = sut::model(w.model)?;
    let root = tracer.open("ladder", NO_PARENT);

    // --- the workload's own loop, untraced then traced ---------------------
    let own = tracer.open("rung.workload", root);
    let untraced = rig.phase(
        PhaseLen::Time(share(SHARE_OWN_LOOP)),
        oracle,
        &mut None,
        &mut Tracer::new(false),
        NO_PARENT,
    )?;
    println!("{}", untraced.phase_line("own-loop-untraced"));
    let traced = rig.phase(
        PhaseLen::Time(share(SHARE_OWN_LOOP)),
        oracle,
        &mut None,
        tracer,
        own,
    )?;
    println!("{}", traced.phase_line("own-loop-traced"));
    tracer.close(own);
    tally(&untraced);
    tally(&traced);
    m.set(
        "trace.overhead_ratio",
        traced.throughput_rps() / untraced.throughput_rps().max(f64::MIN_POSITIVE),
    );
    m.set("loadgen.lateness_p99_us", traced.lateness_p99_us());
    m.set(
        "loadgen.limit_miss_ratio",
        traced.limit_miss_ratio(w.latency_limit_us),
    );
    m.set("loadgen.samples", traced.samples() as f64);
    let own_counters = match rig.server_addr() {
        Some(addr) => Some(server_counters(addr, model.name)?),
        None => None,
    };

    // --- socket rung: closed loop over loopback on this model --------------
    let net_w = Workload {
        kind: Kind::NetClosed,
        ..*w
    };
    let net_oracle = Oracle::build(&net_w, seed)?;
    let items = crate::rig::inputs(&net_w, seed)?;
    let span = tracer.open("rung.net", root);
    let mut net_rig = Rig::setup(&net_w, seed, &net_oracle)?;
    let net = net_rig.phase(
        PhaseLen::Time(share(SHARE_NET_RUNG)),
        &net_oracle,
        &mut None,
        tracer,
        span,
    )?;
    println!("{}", net.phase_line("rung-net"));
    tally(&net);
    let addr = net_rig.server_addr().ok_or("the net rung has no server")?;
    let request = sut::encode_infer(model.name, &items[0], None)?;
    let mut connects = Vec::with_capacity(CONNECT_REPS);
    for rep in 0..CONNECT_REPS {
        let start = Instant::now();
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let reply = round_trip(&mut stream, &request)?;
        let end = Instant::now();
        if !matches!(&reply, Frame::InferOk { output, .. } if bitwise_eq(output, &net_oracle.expected[0]))
        {
            return Err("first reply on a fresh connection is wrong".into());
        }
        tracer.span("net.connect", start, end, span, rep as u64);
        connects.push((end - start).as_nanos() as f64);
    }
    m.set("net.connect_us", median(&connects) / 1e3);
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let probe = Frame::MetricsRequest { id: 1 }
        .encode()
        .map_err(|e| e.to_string())?;
    let mut rtt_err = None;
    let rtt = sample(
        tracer,
        "net.metrics_rtt",
        span,
        share(SHARE_MICRO),
        1,
        |_| {
            if let Err(e) = round_trip(&mut stream, &probe) {
                rtt_err = Some(e);
            }
        },
    );
    if let Some(e) = rtt_err {
        return Err(e);
    }
    m.set("net.rtt_floor_us", rtt / 1e3);
    let counters = match own_counters {
        Some(c) => c,
        None => server_counters(addr, model.name)?,
    };
    drop(stream);
    net_rig.teardown();
    tracer.close(span);
    m.set("net.rung_rps", net.throughput_rps());
    m.set("net.rung_p50_us", net.latency_us(0.5));
    m.set("serve.mean_batch_size", counters.mean_batch_size);
    m.set("serve.batches", counters.batches);
    m.set("serve.shed", counters.shed);
    m.set("serve.rejected_full", counters.rejected_full);

    // --- in-process rung: Service::submit → Ticket::wait -------------------
    let plan = Arc::new(sut::compile_model(&model, w.precision)?);
    let span = tracer.open("rung.inproc", root);
    let (inproc, realised_batch) = inproc_rung(
        Arc::clone(&plan),
        w.precision,
        &items,
        &net_oracle,
        share(SHARE_INPROC_RUNG),
        tracer,
        span,
    )?;
    tracer.close(span);
    println!("{}", inproc.phase_line("rung-inproc"));
    tally(&inproc);
    m.set("serve.inproc_rps", inproc.throughput_rps());
    m.set("serve.inproc_p50_us", inproc.latency_us(0.5));
    m.set(
        "net.rps_over_inproc",
        net.throughput_rps() / inproc.throughput_rps().max(f64::MIN_POSITIVE),
    );
    m.set(
        "net.added_p50_us",
        net.latency_us(0.5) - inproc.latency_us(0.5),
    );

    // --- forward rung: whole plan, batch 8, all three precisions -----------
    let span = tracer.open("rung.forward", root);
    let x8 = sut::uniform_items(model.input, BATCH, seed);
    let mut forward8_ns = 0.0;
    for precision in Precision::ALL {
        let p = if precision == w.precision {
            Arc::clone(&plan)
        } else {
            Arc::new(sut::compile_model(&model, precision)?)
        };
        let ns = time_forward(tracer, "core.forward", span, share(SHARE_FORWARD), &p, &x8);
        if precision == w.precision {
            forward8_ns = ns;
        }
        m.set(
            format!(
                "core.forward_ns_per_item.{}",
                precision.to_string().to_lowercase()
            ),
            ns / BATCH as f64,
        );
    }
    // what a worker runs a formed batch through, at the batch size realised
    let xb = sut::uniform_items(model.input, realised_batch, seed);
    let pool = sut::service_pool(&plan);
    let forward_b_ns = sample(
        tracer,
        "core.service_forward",
        span,
        share(SHARE_FORWARD),
        1,
        |_| {
            let _ = std::hint::black_box(sut::service_forward(&plan, &xb, &pool));
        },
    );
    tracer.close(span);
    m.set(
        "core.forward_each_ns_per_item",
        forward_b_ns / realised_batch as f64,
    );
    m.set(
        "serve.dispatch_us_per_item",
        1e6 / inproc.throughput_rps().max(f64::MIN_POSITIVE)
            - forward_b_ns / realised_batch as f64 / 1e3,
    );

    // --- compile, verify, accuracy, exact op counts -------------------------
    let span = tracer.open("rung.plan", root);
    let params = sut::params(&model)?;
    let compile_ns = sample_slow(tracer, "core.compile", span, || {
        sut::compile(&model.specs, &params, model.input, w.precision)
    })?;
    let verify_ns = sample_slow(tracer, "check.verify", span, || plan.verify())?;
    tracer.close(span);
    m.set("core.compile_ms", compile_ns / 1e6);
    m.set("check.verify_ms", verify_ns / 1e6);
    m.set("core.arena_bytes", plan.arena_bytes(BATCH) as f64);
    m.set("core.top1_agree_ratio", oracle.top1_agree);
    m.set("core.max_abs_err", oracle.max_abs_err);
    let view = plan.view();
    let total = sut::plan_counts(&view);
    m.set("core.flops_per_item", total.flops() as f64);
    m.set("core.mults_per_item", total.mults as f64);

    // --- step rung: one-step plans ------------------------------------------
    let span = tracer.open("rung.steps", root);
    let timed_steps: Vec<(&StepView, StepKind)> = view
        .steps
        .iter()
        .filter_map(|s| StepKind::of(&s.op).map(|k| (s, k)))
        .collect();
    let per_step = share(SHARE_STEPS) / timed_steps.len().max(1) as u32;
    let mut step_ns = [0.0_f64; StepKind::ALL.len()];
    let mut step_flops = [0.0_f64; StepKind::ALL.len()];
    for (step, kind) in &timed_steps {
        let one = sut::one_step_plan(step, w.precision)?.ok_or("timed step has no plan")?;
        let x = sut::uniform_items(step.in_shape, BATCH, seed);
        let slot = StepKind::ALL.iter().position(|k| k == kind).unwrap_or(0);
        step_ns[slot] += time_forward(tracer, step_span_name(*kind), span, per_step, &one, &x);
        step_flops[slot] += sut::step_counts(step).flops() as f64;
    }
    tracer.close(span);
    let steps_sum: f64 = step_ns.iter().sum();
    let flops_sum: f64 = step_flops.iter().sum::<f64>().max(1.0);
    let mut share_err_max = 0.0_f64;
    for (slot, kind) in StepKind::ALL.iter().enumerate() {
        let flop_share = step_flops[slot] / flops_sum;
        let time_share = step_ns[slot] / steps_sum.max(1.0);
        share_err_max = share_err_max.max((flop_share - time_share).abs());
        m.set(
            format!("core.step_ns_per_item.{}", kind.name()),
            step_ns[slot] / BATCH as f64,
        );
        m.set(format!("core.step_flop_share.{}", kind.name()), flop_share);
    }
    m.set("core.steps_sum_ratio", steps_sum / forward8_ns.max(1.0));
    m.set("sched.step_share_err_max", share_err_max);

    // --- kernel rung ----------------------------------------------------------
    let span = tracer.open("rung.kernels", root);
    kernel_rung(
        &view.steps,
        view.buf_item_len,
        seed,
        share(SHARE_KERNELS),
        tracer,
        span,
        &mut m,
    )?;
    tracer.close(span);

    // --- registry, scheduler, wire and batcher in isolation -------------------
    let span = tracer.open("rung.micro", root);
    registry_rung(&model, w.precision, tracer, span, &mut m)?;
    let cost = CostOracle::calibrated(&plan, BATCH)?;
    m.set(
        "sched.oracle_pred_over_measured",
        cost.predicted_service_nanos(BATCH) as f64 / forward8_ns.max(1.0),
    );
    let policy = AdmissionPolicy::new(cost, BATCH, 1, sut::MAX_WAIT.as_nanos() as u64);
    let budget_ns = crate::workloads::GUARANTEED_BUDGET_US * 1000;
    let admit = sample(tracer, "sched.admit", span, share(SHARE_MICRO), 1000, |i| {
        let _ = std::hint::black_box(policy.admit((i % 64) as usize, budget_ns));
    });
    m.set("sched.admit_ns", admit);
    wire_rung(&model, &items[0], share(SHARE_MICRO), tracer, span, &mut m)?;
    tracer.close(span);

    tracer.close(root);
    m.set("trace.spans", tracer.total_calls() as f64);
    Ok(LadderResult {
        values: m.ordered(&PER_LAYER)?,
        attempted,
        failed,
    })
}

fn step_span_name(kind: StepKind) -> &'static str {
    match kind {
        StepKind::Conv => "core.step.conv",
        StepKind::Fused => "core.step.fused",
        StepKind::Linear => "core.step.linear",
        StepKind::Pool => "core.step.pool",
        StepKind::Act => "core.step.act",
    }
}

/// Median nanoseconds of `plan.forward(x)` with a reused workspace, each
/// call a span called `name`.
fn time_forward(
    tracer: &mut Tracer,
    name: &'static str,
    parent: SpanId,
    budget: Duration,
    plan: &ExecutionPlan,
    x: &Tensor<f32>,
) -> f64 {
    let mut ws = Workspace::for_plan(plan, x.shape().n);
    sample(tracer, name, parent, budget, 1, |_| {
        let _ = std::hint::black_box(plan.forward(std::hint::black_box(x), &mut ws));
    })
}

/// `Service::submit` → `Ticket::wait` with [`INPROC_IN_FLIGHT`] requests
/// outstanding, every response checked; returns the samples and the
/// realised mean batch size, rounded.
fn inproc_rung(
    plan: Arc<ExecutionPlan>,
    precision: Precision,
    items: &[Tensor<f32>],
    oracle: &Oracle,
    window: Duration,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<(Window, usize), String> {
    let svc = sut::spawn_service(plan, precision)?;
    let mut rec = Recorder::start(window);
    let t_end = rec.t_end();
    let mut inflight: VecDeque<(sut::Ticket, Instant, usize)> = VecDeque::new();
    let mut next = 0usize;
    loop {
        let now = Instant::now();
        rec.tick(now);
        if now < t_end {
            while inflight.len() < INPROC_IN_FLIGHT {
                let i = next % items.len();
                next += 1;
                rec.attempt();
                match svc.submit(items[i].clone()) {
                    Ok(ticket) => inflight.push_back((ticket, Instant::now(), i)),
                    Err(_) => rec.fail(1),
                }
            }
        }
        let Some((ticket, sent, i)) = inflight.pop_front() else {
            break;
        };
        let result = ticket.wait();
        let end = Instant::now();
        match result {
            Ok(out) if bitwise_eq(&out, &oracle.expected[i]) => {
                rec.ok(sent, end, 1);
                tracer.span("serve.request", sent, end, parent, next as u64);
            }
            _ => rec.fail(1),
        }
    }
    let realised = svc.shutdown().mean_batch_size.round().max(1.0) as usize;
    Ok((rec.finish(), realised))
}

/// Raw kernels over the geometries of the plan's steps.
fn kernel_rung(
    steps: &[StepView],
    buf_item_len: usize,
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
    span: SpanId,
    m: &mut Metrics,
) -> Result<(), String> {
    let noise = |len: usize| -> Vec<f32> {
        sut::uniform_items(sut::Shape4::new(1, 1, 1, len), 1, seed).into_vec()
    };
    let convs: Vec<ConvShape> = steps.iter().filter_map(ConvShape::of).collect();
    let linears: Vec<(usize, usize)> = steps
        .iter()
        .filter_map(|s| match &s.op {
            OpView::Linear {
                in_features,
                out_features,
                ..
            } => Some((*in_features, *out_features)),
            _ => None,
        })
        .collect();
    // pooling and activation geometries, including the ones a fused step absorbs
    let mut pools: Vec<(sut::Shape4, usize, usize)> = Vec::new();
    let mut acts: Vec<sut::Shape4> = Vec::new();
    let mut first_pair: Option<(ConvShape, usize, sut::Shape4)> = None;
    for (i, step) in steps.iter().enumerate() {
        match &step.op {
            OpView::AvgPool { window, stride } => pools.push((step.in_shape, *window, *stride)),
            OpView::ReLU | OpView::Sigmoid => acts.push(step.in_shape),
            OpView::Fused { pool, relu, .. } => {
                let shape = ConvShape::of(step).ok_or("fused step without conv geometry")?;
                let (h, w) = shape.out_hw()?;
                pools.push((sut::Shape4::new(1, shape.out_c, h, w), *pool, *pool));
                if *relu {
                    acts.push(step.out_shape);
                }
                first_pair.get_or_insert((shape, *pool, step.in_shape));
            }
            OpView::Conv { .. } if first_pair.is_none() => {
                // a conv whose next data-moving step is an average pool
                let pool = steps[i + 1..]
                    .iter()
                    .find(|s| !matches!(s.op, OpView::ReLU | OpView::Sigmoid))
                    .and_then(|s| match s.op {
                        OpView::AvgPool { window, stride } if window == stride => Some(window),
                        _ => None,
                    });
                if let (Some(pool), Some(shape)) = (pool, ConvShape::of(step)) {
                    first_pair = Some((shape, pool, step.in_shape));
                }
            }
            _ => {}
        }
    }
    let measurements = 2 * convs.len() + linears.len() + pools.len() + acts.len() + 4;
    let each = budget / measurements.max(1) as u32;

    let (mut gemm_ns, mut gemm_flops, mut im2col_ns, mut im2col_bytes) = (0.0, 0.0, 0.0, 0.0);
    for shape in &convs {
        let (mm, kk, nn) = shape.gemm_dims()?;
        let (a, b) = (noise(mm * kk), noise(kk * nn));
        let mut c = vec![0.0_f32; mm * nn];
        gemm_ns += sample(tracer, "tensor.gemm", span, each, 1, |_| {
            sut::gemm(std::hint::black_box(&a), &b, &mut c, mm, kk, nn);
        });
        gemm_flops += 2.0 * (mm * kk * nn) as f64;
        let item = noise(shape.in_c * shape.in_hw.0 * shape.in_hw.1);
        let mut cols = vec![0.0_f32; kk * nn];
        let mut err = None;
        im2col_ns += sample(tracer, "tensor.im2col", span, each, 1, |_| {
            if let Err(e) = shape.im2col(std::hint::black_box(&item), &mut cols) {
                err = Some(e);
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        // computed, not measured: one read of the item, one write of the columns
        im2col_bytes += 4.0 * (item.len() + cols.len()) as f64;
    }
    for &(inf, outf) in &linears {
        let (a, b) = (noise(BATCH * inf), noise(inf * outf));
        let mut c = vec![0.0_f32; BATCH * outf];
        let ns = sample(tracer, "tensor.gemm", span, each, 1, |_| {
            sut::gemm(std::hint::black_box(&a), &b, &mut c, BATCH, inf, outf);
        });
        gemm_ns += ns / BATCH as f64;
        gemm_flops += 2.0 * (inf * outf) as f64;
    }
    m.set("tensor.gemm_ns_per_item", gemm_ns);
    m.set("tensor.gemm_gflops", gemm_flops / gemm_ns.max(1.0));
    m.set("tensor.im2col_ns_per_item", im2col_ns);
    m.set("tensor.im2col_bytes_per_item", im2col_bytes);

    let mut pool_ns = 0.0;
    for &(shape, window, stride) in &pools {
        let x = sut::uniform_items(shape, BATCH, seed);
        pool_ns += sample(tracer, "tensor.pool", span, each, 1, |_| {
            let _ = std::hint::black_box(sut::avg_pool(std::hint::black_box(&x), window, stride));
        });
    }
    m.set("tensor.pool_ns_per_item", pool_ns / BATCH as f64);
    let mut act_ns = 0.0;
    for &shape in &acts {
        let mut x = sut::uniform_items(shape, BATCH, seed);
        act_ns += sample(tracer, "tensor.act", span, each, 1, |_| {
            sut::relu(std::hint::black_box(&mut x));
        });
    }
    m.set("tensor.act_ns_per_item", act_ns / BATCH as f64);

    // activation-sized slices: the largest buffer a batch of 8 rounds
    let mut acts_buf = noise(buf_item_len * BATCH);
    let elems = acts_buf.len().max(1) as f64;
    let f16 = sample(tracer, "quant.round_f16", span, each, 1, |_| {
        sut::round_f16(std::hint::black_box(&mut acts_buf));
    });
    let int8 = sample(tracer, "quant.round_int8", span, each, 1, |_| {
        sut::round_int8(std::hint::black_box(&mut acts_buf));
    });
    m.set("quant.round_f16_ns_per_elem", f16 / elems);
    m.set("quant.round_int8_ns_per_elem", int8 / elems);

    let ratio = match first_pair {
        Some((shape, pool, in_shape)) => {
            let pair = FusedPair::new(shape, pool)?;
            let x = sut::uniform_items(in_shape, BATCH, seed);
            if pair.fused(&x)?.shape() != pair.unfused(&x)?.shape() {
                return Err("fused and unfused stages disagree on the output shape".into());
            }
            let fused = sample(tracer, "core.fused_kernel", span, each, 1, |_| {
                let _ = std::hint::black_box(pair.fused(std::hint::black_box(&x)));
            });
            let unfused = sample(tracer, "core.unfused_stage", span, each, 1, |_| {
                let _ = std::hint::black_box(pair.unfused(std::hint::black_box(&x)));
            });
            fused / unfused.max(1.0)
        }
        // no conv → pool stage in this model
        None => 0.0,
    };
    m.set("core.fused_over_unfused", ratio);
    Ok(())
}

/// Pack → open → plan (cold, then cached) on a scratch registry directory.
fn registry_rung(
    model: &ServeModel,
    precision: Precision,
    tracer: &mut Tracer,
    span: SpanId,
    m: &mut Metrics,
) -> Result<(), String> {
    let dir = out_dir().join(format!("registry-ladder-{}", std::process::id()));
    let pack_ns = sample_slow(tracer, "registry.pack", span, || {
        sut::encode_artifact(model, precision)
    })?;
    sut::pack(model, precision, &dir)?;
    let result = (|| {
        let open_ns = sample_slow(tracer, "registry.open", span, || sut::open_registry(&dir))?;
        let registry = sut::open_registry(&dir)?;
        let start = Instant::now();
        let cold = sut::registry_plan(&registry, model.name, precision)?;
        let end = Instant::now();
        tracer.span("registry.plan_cold", start, end, span, 0);
        let mut err = None;
        let warm_ns = sample(
            tracer,
            "registry.plan_warm",
            span,
            Duration::from_millis(20),
            100,
            |_| {
                if let Err(e) = sut::registry_plan(&registry, model.name, precision) {
                    err = Some(e);
                }
            },
        );
        if let Some(e) = err {
            return Err(e);
        }
        drop(cold);
        Ok((
            open_ns,
            (end - start).as_nanos() as f64,
            warm_ns,
            sut::registry_resident_bytes(&registry),
        ))
    })();
    let _ = std::fs::remove_dir_all(&dir);
    let (open_ns, cold_ns, warm_ns, resident) = result?;
    m.set("registry.pack_ms", pack_ns / 1e6);
    m.set("registry.open_ms", open_ns / 1e6);
    m.set("registry.plan_cold_ms", cold_ns / 1e6);
    m.set("registry.plan_warm_us", warm_ns / 1e3);
    m.set("registry.resident_bytes", resident as f64);
    Ok(())
}

/// Frame encode and decode, the incremental decoder, and the micro-batcher,
/// each on its own.
fn wire_rung(
    model: &ServeModel,
    item: &Tensor<f32>,
    budget: Duration,
    tracer: &mut Tracer,
    span: SpanId,
    m: &mut Metrics,
) -> Result<(), String> {
    let frame = Frame::InferRequest {
        id: 7,
        model: model.name.to_string(),
        input: item.clone(),
    };
    let bytes = frame.encode().map_err(|e| e.to_string())?;
    let encode = sample(tracer, "serve.wire_encode", span, budget, 100, |_| {
        let _ = std::hint::black_box(std::hint::black_box(&frame).encode());
    });
    let decode = sample(tracer, "serve.wire_decode", span, budget, 100, |_| {
        let _ = std::hint::black_box(Frame::decode_body(std::hint::black_box(&bytes[4..])));
    });
    let mut decoder = FrameDecoder::new();
    let incremental = sample(tracer, "net.decoder", span, budget, 100, |_| {
        decoder.extend(std::hint::black_box(&bytes));
        let _ = std::hint::black_box(decoder.next());
    });
    let mut batcher: Microbatcher<u64> = Microbatcher::new(BatchPolicy {
        max_batch: BATCH,
        max_wait_nanos: sut::MAX_WAIT.as_nanos() as u64,
    });
    let microbatch = sample(tracer, "serve.microbatch", span, budget, 100, |i| {
        for j in 0..BATCH as u64 {
            batcher.push(j, i);
        }
        let _ = std::hint::black_box(batcher.poll(i));
    });
    m.set("serve.wire_encode_ns_per_frame", encode);
    m.set("serve.wire_decode_ns_per_frame", decode);
    m.set("net.decoder_ns_per_frame", incremental);
    m.set("serve.microbatch_ns_per_item", microbatch / BATCH as f64);
    Ok(())
}

/// Write one encoded frame and block for the next reply.
fn round_trip(stream: &mut TcpStream, request: &[u8]) -> Result<Frame, String> {
    stream
        .write_all(request)
        .map_err(|e| format!("write: {e}"))?;
    sut::read_frame(stream)
        .map_err(|e| format!("read: {e}"))?
        .ok_or_else(|| "server closed the connection".to_string())
}

/// Counters of the service behind `model`, read over the wire.
struct Counters {
    mean_batch_size: f64,
    batches: f64,
    shed: f64,
    rejected_full: f64,
}

fn server_counters(addr: SocketAddr, model: &str) -> Result<Counters, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let probe = Frame::MetricsRequest { id: 1 }
        .encode()
        .map_err(|e| e.to_string())?;
    let Frame::MetricsOk { json, .. } = round_trip(&mut stream, &probe)? else {
        return Err("metrics request was not answered with metrics".into());
    };
    let doc = json::parse(&json)?;
    let field = |key: &str| {
        doc.path(&["models", model, "metrics", key])
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("metrics frame has no '{key}' for {model}"))
    };
    Ok(Counters {
        mean_batch_size: field("mean_batch_size")?,
        batches: field("batches")?,
        shed: field("shed_expired")? + field("shed_overload")?,
        rejected_full: field("rejected_full")?,
    })
}
