//! One run of one workload: set up several times, warm up, time the
//! window (or walk the ladder), check, report.

use std::time::{Duration, Instant};

use crate::header::Header;
use crate::json::quote;
use crate::ladder;
use crate::measure::{EndToEnd, Fault};
use crate::rig::{out_dir, Oracle, PhaseLen, Rig};
use crate::stats::{host_cpu_ticks, median};
use crate::trace::{Tracer, NO_PARENT};
use crate::workloads::{MetricDef, Workload, END_TO_END, PER_LAYER, SETUP_CYCLES, WARMUP_SHARE};

/// Settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of the inputs and the arrival schedule.
    pub seed: u64,
    /// Length of the timed window (or of the whole ladder), seconds.
    pub seconds: f64,
    /// Walk the layer ladder instead of timing the end-to-end window.
    pub trace: bool,
    /// Corruption to inject (negative self-test only).
    pub fault: Option<Fault>,
}

/// The result of a run, as the last stdout line reports it.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every checked output was bit-exact and the plan stayed inside its
    /// accuracy budget.
    pub correct: bool,
    /// Operations offered.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, unit)` and value of every metric of this pass.
    pub metrics: Vec<(MetricDef, f64)>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|((name, unit), value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    quote(name),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run `args.workload` once and print the report; the caller prints the
/// final JSON line and picks the exit code.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let w = args.workload;
    let warmup_s = if args.trace {
        0.0
    } else {
        args.seconds * WARMUP_SHARE
    };
    let header = Header::collect(w, args.seed, args.seconds, warmup_s, args.trace);
    println!("{}", header.to_lines());

    let oracle = Oracle::build(w, args.seed)?;
    println!(
        "oracle: {} expected outputs, top1_agree={:.4} max_abs_err={:.3e} within_budget={}",
        oracle.expected.len(),
        oracle.top1_agree,
        oracle.max_abs_err,
        oracle.within_budget
    );

    let mut setups = Vec::with_capacity(SETUP_CYCLES);
    let mut rig: Option<Rig> = None;
    for _ in 0..SETUP_CYCLES {
        if let Some(previous) = rig.take() {
            previous.teardown();
        }
        let start = Instant::now();
        rig = Some(Rig::setup(w, args.seed, &oracle)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut rig = rig.ok_or("no set-up cycle ran")?;
    let setup_s = median(&setups);
    println!("setup: cycles={SETUP_CYCLES} median_s={setup_s:.6} all={setups:.4?}");

    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    let result = if args.trace {
        traced_pass(args, &header, &mut rig, &oracle)
    } else {
        timed_pass(args, &header, &mut rig, &oracle, setup_s)
    };
    rig.teardown();
    result
}

fn timed_pass(
    args: &RunArgs,
    header: &Header,
    rig: &mut Rig,
    oracle: &Oracle,
    setup_s: f64,
) -> Result<Outcome, String> {
    let mut off = Tracer::new(false);
    let warm = rig.phase(
        PhaseLen::Time(Duration::from_secs_f64(header.warmup_s)),
        oracle,
        &mut None,
        &mut off,
        NO_PARENT,
    )?;
    let warm_line = warm.phase_line("warm-up");
    println!("{warm_line}");
    let mut fault = args.fault;
    let host_before = host_cpu_ticks();
    let timed = rig.phase(
        PhaseLen::Time(Duration::from_secs_f64(args.seconds)),
        oracle,
        &mut fault,
        &mut off,
        NO_PARENT,
    )?;
    let host_after = host_cpu_ticks();
    let steal_pct =
        100.0 * (host_after.1 - host_before.1) / (host_after.0 - host_before.0).max(1.0);
    let timed_line = timed.phase_line("timed");
    println!("{timed_line}");
    println!("host: steal_pct={steal_pct:.2} of all cpu time during the window");
    println!("slices: items/s={:.0?}", timed.slice_rates());
    println!(
        "slices: p50_us={:.0?} p99_us={:.0?}",
        timed.slice_latency_us(0.50),
        timed.slice_latency_us(0.99)
    );

    let e2e = EndToEnd::of(&timed, setup_s);
    let metrics: Vec<(MetricDef, f64)> = END_TO_END.iter().copied().zip(e2e.values).collect();
    let samples = timed.samples();
    for ((name, unit), value) in &metrics {
        println!("metric {name} = {value} {unit} (samples={samples})");
    }
    let outcome = Outcome {
        correct: oracle.within_budget && timed.failed == 0 && warm.failed == 0,
        attempted: timed.attempted,
        failed: timed.failed + warm.failed,
        metrics,
    };
    let path = out_dir().join(format!("run-{}.json", args.workload.name));
    let doc = format!(
        "{{\"header\": {},\n \"phases\": {{\"warm-up\": {}, \"timed\": {}}},\n \"samples\": {samples},\n \"host_steal_pct\": {steal_pct:.3},\n \"result\": {}}}\n",
        header.to_json(),
        quote(&warm_line),
        quote(&timed_line),
        outcome.to_json()
    );
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(outcome)
}

fn traced_pass(
    args: &RunArgs,
    header: &Header,
    rig: &mut Rig,
    oracle: &Oracle,
) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(true);
    let ladder = ladder::run(
        args.workload,
        args.seed,
        args.seconds,
        rig,
        oracle,
        &mut tracer,
    )?;
    let metrics: Vec<(MetricDef, f64)> = PER_LAYER.iter().copied().zip(ladder.values).collect();
    for ((name, unit), value) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    let path = out_dir().join(format!("trace-{}.json", args.workload.name));
    std::fs::write(&path, tracer.to_json(&header.to_json()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "trace: {} calls spanned, written to {}",
        tracer.total_calls(),
        path.display()
    );
    Ok(Outcome {
        correct: oracle.within_budget && ladder.failed == 0,
        attempted: ladder.attempted,
        failed: ladder.failed,
        metrics,
    })
}
