//! The four workloads, the metric names, and every constant of the
//! benchmark. Nothing here is derived at run time: a number that moves
//! between two runs moved because the code under test moved.
//!
//! `BENCHMARK.json` repeats the workload and metric names (the driver
//! reads them there); `tests/smoke.rs` holds the two lists equal.

use crate::sut::Precision;

/// How a workload offers load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One thread calling `ExecutionPlan::forward` on a batch, back to back.
    Offline,
    /// Loopback TCP, closed loop: [`CONNECTIONS`] × [`PIPELINE`] requests
    /// kept in flight, classless (the batcher's FIFO path).
    NetClosed,
    /// Loopback TCP, open loop on a frozen bursty arrival schedule with
    /// mixed SLO classes; latency is timed from each request's due time.
    NetOpen,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Serving-zoo model.
    pub model: &'static str,
    /// Datapath precision.
    pub precision: Precision,
    /// Load shape.
    pub kind: Kind,
    /// Latency limit on one operation, µs; a failed operation misses it.
    pub latency_limit_us: u64,
}

/// The workloads, in report order. Why each exists is in `README.md` and
/// in `BENCHMARK.json`.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "offline-vgg-mini-fp32",
        model: "vgg-mini",
        precision: Precision::Fp32,
        kind: Kind::Offline,
        latency_limit_us: 20_000,
    },
    Workload {
        name: "offline-lenet5r-int8",
        model: "lenet5-reordered",
        precision: Precision::Int8,
        kind: Kind::Offline,
        latency_limit_us: 20_000,
    },
    Workload {
        name: "net-closed-vgg-nano-fp32",
        model: "vgg-nano",
        precision: Precision::Fp32,
        kind: Kind::NetClosed,
        latency_limit_us: 5_000,
    },
    Workload {
        name: "net-open-lenet5-fp32",
        model: "lenet5",
        precision: Precision::Fp32,
        kind: Kind::NetOpen,
        latency_limit_us: OPEN_LATENCY_LIMIT_US,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `RAYON_NUM_THREADS` of the benchmark process. One, like every
/// `BENCH_*.json` in the tree (`"threads": 1`): numbers are per core, do not
/// depend on how many cores the box has, and a parallel region inside a
/// kernel is a plain loop instead of a fork of scoped threads per call,
/// whose scheduling on two shared cores does not repeat from run to run
/// (measured: the same code at the default of 2 flips between regimes 15%
/// apart that last seconds). Thread-count policy is its own axis; a change
/// to it is measured by changing this constant in a benchmark-only PR.
pub const RAYON_THREADS: &str = "1";

/// Items per offline `forward` call (and the server's `max_batch`).
pub const BATCH: usize = 8;
/// Distinct offline input batches, cycled.
pub const OFFLINE_BATCHES: usize = 4;
/// Distinct network input items, cycled.
pub const NET_INPUTS: usize = 32;
/// Client connections of the network workloads (one client thread).
pub const CONNECTIONS: usize = 2;
/// Requests kept in flight per connection in the closed loop.
pub const PIPELINE: usize = 8;
/// Requests in flight for the in-process service rung of the ladder.
pub const INPROC_IN_FLIGHT: usize = CONNECTIONS * PIPELINE;

/// Open-loop arrival rate: the nearest 250 rps at or below half the
/// closed-loop capacity of this server on lenet5 (2.8k rps on the build box
/// when the benchmark was written), chosen once and then frozen. A rate
/// search is deliberately omitted: it does not repeat within a tenth in
/// one run on two shared cores.
pub const OPEN_RATE_RPS: u64 = 1_250;
/// Simultaneous arrivals per burst of the open-loop schedule: three of the
/// server's batches of 8. The latency distribution then has three modes
/// (first, second, third batch of a burst) and the median sits in the
/// middle of the middle one. With a burst of one and a half or two batches
/// the median falls on the gap between two modes and `latency_p50_us`
/// flips between them from run to run (measured: 3.3 ms or 4.4 ms).
pub const OPEN_BURST: usize = 24;
/// Every n-th open-loop request is `guaranteed`; the rest are best-effort.
pub const GUARANTEED_EVERY: usize = 8;
/// Budget of the guaranteed class. It arms admission control and orders
/// the queue (earliest deadline first, ahead of best-effort work); it is
/// set far above [`OPEN_LATENCY_LIMIT_US`] so that a stall of the shared
/// box (200 ms stalls were seen) delays requests instead of shedding them:
/// a workload must be one on which no operation fails.
pub const GUARANTEED_BUDGET_US: u64 = 1_000_000;
/// Latency limit of the open loop, from due time.
pub const OPEN_LATENCY_LIMIT_US: u64 = 20_000;

/// Full set-up cycles per run; `setup_s` is their median. The cheapest
/// set-up (vgg-nano over the network) takes 1 ms, and the median of five
/// such cycles differed by 37% between two runs.
pub const SETUP_CYCLES: usize = 21;
/// Operations run inside each set-up cycle, so lazily deferred work
/// (first-use allocation, cold plan compile) is charged to `setup_s`.
pub const SETUP_WARM_OPS: usize = 32;
/// Untimed warm-up between the last set-up cycle and the timed window, as
/// a share of `--seconds`.
pub const WARMUP_SHARE: f64 = 0.1;
/// Equal slices of the timed window; every end-to-end number but memory
/// and set-up is a median over them. Seven slices of a 25 s window hold
/// over a thousand operations each on the slowest workload, so a slice's
/// 99th percentile has ten samples beyond it.
pub const SLICES: usize = 7;
/// How long the load generator waits for outstanding replies after the
/// window closes before it counts them lost.
pub const DRAIN_GRACE_MS: u64 = 2_000;

/// Accuracy budget of a plan output against FP32 `Network::forward` on the
/// run's inputs: `(min top-1 agreement, max absolute error)`. Recorded when
/// the benchmark landed with every kernel still the scalar reference
/// (measured: FP32 0 / FP16 ≤ 2e-3 / INT8 ≤ 6e-2 on logits of magnitude
/// ~1); a later non-bitwise kernel has to stay inside it.
pub fn accuracy_budget(precision: Precision) -> (f64, f64) {
    match precision {
        Precision::Fp32 => (1.0, 1e-4),
        Precision::Fp16 => (0.95, 2e-2),
        Precision::Int8 => (0.85, 2.5e-1),
    }
}

/// A metric's name and unit.
pub type MetricDef = (&'static str, &'static str);

/// The end-to-end metrics, same on every workload.
pub const END_TO_END: [MetricDef; 6] = [
    ("throughput_rps", "items/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("cpu_s_per_kitem", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// The per-layer metrics of the `--trace 1` pass.
pub const PER_LAYER: [MetricDef; 61] = [
    ("tensor.gemm_ns_per_item", "ns"),
    ("tensor.gemm_gflops", "gflop/s"),
    ("tensor.im2col_ns_per_item", "ns"),
    ("tensor.im2col_bytes_per_item", "bytes"),
    ("tensor.pool_ns_per_item", "ns"),
    ("tensor.act_ns_per_item", "ns"),
    ("quant.round_f16_ns_per_elem", "ns"),
    ("quant.round_int8_ns_per_elem", "ns"),
    ("core.forward_ns_per_item.fp32", "ns"),
    ("core.forward_ns_per_item.fp16", "ns"),
    ("core.forward_ns_per_item.int8", "ns"),
    ("core.forward_each_ns_per_item", "ns"),
    ("core.step_ns_per_item.conv", "ns"),
    ("core.step_ns_per_item.fused", "ns"),
    ("core.step_ns_per_item.linear", "ns"),
    ("core.step_ns_per_item.pool", "ns"),
    ("core.step_ns_per_item.act", "ns"),
    ("core.steps_sum_ratio", "ratio"),
    ("core.fused_over_unfused", "ratio"),
    ("core.flops_per_item", "count"),
    ("core.mults_per_item", "count"),
    ("core.step_flop_share.conv", "ratio"),
    ("core.step_flop_share.fused", "ratio"),
    ("core.step_flop_share.linear", "ratio"),
    ("core.step_flop_share.pool", "ratio"),
    ("core.step_flop_share.act", "ratio"),
    ("core.compile_ms", "ms"),
    ("core.arena_bytes", "bytes"),
    ("check.verify_ms", "ms"),
    ("core.top1_agree_ratio", "ratio"),
    ("core.max_abs_err", "abs"),
    ("registry.pack_ms", "ms"),
    ("registry.open_ms", "ms"),
    ("registry.plan_cold_ms", "ms"),
    ("registry.plan_warm_us", "us"),
    ("registry.resident_bytes", "bytes"),
    ("sched.oracle_pred_over_measured", "ratio"),
    ("sched.step_share_err_max", "ratio"),
    ("sched.admit_ns", "ns"),
    ("serve.inproc_rps", "items/s"),
    ("serve.inproc_p50_us", "us"),
    ("serve.dispatch_us_per_item", "us"),
    ("serve.mean_batch_size", "items"),
    ("serve.batches", "count"),
    ("serve.shed", "count"),
    ("serve.rejected_full", "count"),
    ("serve.wire_encode_ns_per_frame", "ns"),
    ("serve.wire_decode_ns_per_frame", "ns"),
    ("serve.microbatch_ns_per_item", "ns"),
    ("net.rps_over_inproc", "ratio"),
    ("net.added_p50_us", "us"),
    ("net.rtt_floor_us", "us"),
    ("net.decoder_ns_per_frame", "ns"),
    ("net.connect_us", "us"),
    ("loadgen.lateness_p99_us", "us"),
    ("loadgen.limit_miss_ratio", "ratio"),
    ("loadgen.samples", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("net.rung_rps", "items/s"),
    ("net.rung_p50_us", "us"),
];

/// `--seconds` when the command line gives none (`run_seconds` of
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 25.0;
/// `--seconds` under `--smoke`.
pub const SMOKE_SECONDS: f64 = 2.0;
