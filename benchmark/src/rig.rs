//! Set-up, the correctness oracle, and the timed phases of a workload.
//!
//! A [`Rig`] is everything a workload needs before its first timed
//! operation: generated inputs, and either a compiled plan with its
//! workspace (offline) or a packed registry directory served by an
//! in-process `mlcnn-net` server with client connections (network).
//! Building one is what `setup_s` times.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::loadgen::{drive, Conn, Load, Pacing};
use crate::measure::{bitwise_eq, flip_one_bit, Fault, Recorder, Window, FAULT_AT_OP};
use crate::sut::{self, ExecutionPlan, Server, SloSpec, Tensor, Workspace};
use crate::trace::{SpanId, Tracer};
use crate::workloads::{
    accuracy_budget, Kind, Workload, BATCH, CONNECTIONS, GUARANTEED_BUDGET_US, GUARANTEED_EVERY,
    NET_INPUTS, OFFLINE_BATCHES, OPEN_BURST, OPEN_RATE_RPS, PIPELINE, SETUP_WARM_OPS,
};

/// Where the benchmark writes: `benchmark/out` of the checkout it runs in.
pub fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
    }
}

/// The inputs of a workload, drawn from `seed`: whole batches for the
/// offline loops, single items for the network loops.
pub fn inputs(w: &Workload, seed: u64) -> Result<Vec<Tensor<f32>>, String> {
    let item = sut::model(w.model)?.input;
    match w.kind {
        Kind::Offline => Ok((0..OFFLINE_BATCHES as u64)
            .map(|b| sut::uniform_items(item, BATCH, seed.wrapping_mul(1_000_003).wrapping_add(b)))
            .collect()),
        Kind::NetClosed | Kind::NetOpen => {
            sut::split_items(&sut::uniform_items(item, NET_INPUTS, seed))
        }
    }
}

/// Expected outputs and the accuracy of the plan that produced them.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// `ExecutionPlan::forward` of a directly compiled plan on each input:
    /// what every operation of the run must reproduce bit for bit.
    pub expected: Vec<Tensor<f32>>,
    /// Share of items whose arg-max matches FP32 `Network::forward`.
    pub top1_agree: f64,
    /// Largest absolute difference from FP32 `Network::forward`.
    pub max_abs_err: f64,
    /// Whether both stay inside `workloads::accuracy_budget`.
    pub within_budget: bool,
}

impl Oracle {
    /// Compute the expected outputs of `w` on `seed` and hold them against
    /// the FP32 layerwise reference.
    pub fn build(w: &Workload, seed: u64) -> Result<Oracle, String> {
        let model = sut::model(w.model)?;
        let plan = sut::compile_model(&model, w.precision)?;
        let mut reference = sut::Reference::new(&model)?;
        let mut ws = Workspace::for_plan(&plan, BATCH);
        let mut expected = Vec::new();
        let (mut items, mut agree, mut max_abs_err) = (0usize, 0usize, 0.0_f64);
        for x in inputs(w, seed)? {
            let got = plan.forward(&x, &mut ws).map_err(|e| e.to_string())?;
            let want = reference.forward(&x)?;
            let per_item = got.len() / x.shape().n;
            for (g, r) in got
                .as_slice()
                .chunks(per_item)
                .zip(want.as_slice().chunks(per_item))
            {
                items += 1;
                agree += usize::from(argmax(g) == argmax(r));
                for (a, b) in g.iter().zip(r) {
                    max_abs_err = max_abs_err.max(f64::from((a - b).abs()));
                }
            }
            expected.push(got);
        }
        let top1_agree = agree as f64 / items.max(1) as f64;
        let (min_agree, max_err) = accuracy_budget(w.precision);
        Ok(Oracle {
            expected,
            top1_agree,
            max_abs_err,
            within_budget: top1_agree >= min_agree && max_abs_err <= max_err,
        })
    }
}

fn argmax(xs: &[f32]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

/// How long a phase lasts.
#[derive(Debug, Clone, Copy)]
pub enum PhaseLen {
    /// A fixed number of operations, closed loop (set-up warm operations).
    Ops(u64),
    /// A time window under the workload's own load shape.
    Time(Duration),
}

/// Upper bound on a count-limited phase.
const OPS_PHASE_CAP: Duration = Duration::from_secs(30);

struct OfflineRig {
    plan: ExecutionPlan,
    ws: Workspace,
    batches: Vec<Tensor<f32>>,
}

struct NetRig {
    server: Server,
    dir: PathBuf,
    conns: Vec<Conn>,
    load: Load,
}

enum Inner {
    Offline(OfflineRig),
    Net(NetRig),
}

/// A workload, set up and ready to be timed.
pub struct Rig {
    w: Workload,
    seed: u64,
    inner: Inner,
    phases: u64,
}

static RIG_SERIAL: AtomicU64 = AtomicU64::new(0);

impl Rig {
    /// One full set-up: generate inputs, then compile and verify the plan
    /// and warm its workspace (offline), or pack the artifact, open the
    /// registry, start router, services and server, connect and encode
    /// the request frames (network) — and run [`SETUP_WARM_OPS`] checked
    /// operations so deferred first-use work is inside the measurement.
    pub fn setup(w: &Workload, seed: u64, oracle: &Oracle) -> Result<Rig, String> {
        let model = sut::model(w.model)?;
        let inputs = inputs(w, seed)?;
        let inner = match w.kind {
            Kind::Offline => {
                let plan = sut::compile_model(&model, w.precision)?;
                plan.verify()?;
                let ws = Workspace::for_plan(&plan, BATCH);
                Inner::Offline(OfflineRig {
                    plan,
                    ws,
                    batches: inputs,
                })
            }
            Kind::NetClosed | Kind::NetOpen => {
                let serial = RIG_SERIAL.fetch_add(1, Ordering::Relaxed);
                let dir = out_dir().join(format!(
                    "registry-{}-{}-{serial}",
                    w.name,
                    std::process::id()
                ));
                sut::pack(&model, w.precision, &dir)?;
                let open = w.kind == Kind::NetOpen;
                // a default class switches the scheduler's admission on
                let slo = open.then(SloSpec::best_effort);
                let server = Server::start(&dir, w.precision, slo)?;
                let conns = (0..CONNECTIONS)
                    .map(|_| Conn::connect(server.addr()))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("connect: {e}"))?;
                let encode = |slo: Option<SloSpec>| -> Result<Vec<Vec<u8>>, String> {
                    inputs
                        .iter()
                        .map(|x| sut::encode_infer(model.name, x, slo))
                        .collect()
                };
                let load = if open {
                    let budget = Duration::from_micros(GUARANTEED_BUDGET_US);
                    Load {
                        frames: encode(Some(SloSpec::best_effort()))?,
                        alt_frames: encode(Some(SloSpec::guaranteed(budget)))?,
                        alt_every: GUARANTEED_EVERY,
                        expected: oracle.expected.clone(),
                    }
                } else {
                    Load {
                        frames: encode(None)?,
                        alt_frames: Vec::new(),
                        alt_every: 1,
                        expected: oracle.expected.clone(),
                    }
                };
                Inner::Net(NetRig {
                    server,
                    dir,
                    conns,
                    load,
                })
            }
        };
        let mut rig = Rig {
            w: *w,
            seed,
            inner,
            phases: 0,
        };
        let warm = rig.phase(
            PhaseLen::Ops(SETUP_WARM_OPS as u64),
            oracle,
            &mut None,
            &mut Tracer::new(false),
            crate::trace::NO_PARENT,
        )?;
        if warm.failed > 0 {
            return Err(format!(
                "{} of {} set-up operations failed",
                warm.failed, warm.attempted
            ));
        }
        Ok(rig)
    }

    /// Run one phase and return its raw samples.
    pub fn phase(
        &mut self,
        len: PhaseLen,
        oracle: &Oracle,
        fault: &mut Option<Fault>,
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> Result<Window, String> {
        self.phases += 1;
        let (window, max_ops) = match len {
            PhaseLen::Ops(n) => (OPS_PHASE_CAP, n),
            PhaseLen::Time(d) => (d, u64::MAX),
        };
        match &mut self.inner {
            Inner::Offline(rig) => Ok(rig.phase(window, max_ops, oracle, fault, tracer, parent)),
            Inner::Net(rig) => {
                let pacing = match (self.w.kind, len) {
                    (Kind::NetOpen, PhaseLen::Time(d)) => {
                        let n = (OPEN_RATE_RPS as f64 * d.as_secs_f64()) as usize;
                        // every phase of a run replays its own frozen schedule
                        let seed = self.seed.wrapping_add(self.phases);
                        Pacing::Open {
                            offsets_ns: sut::bursty_offsets(seed, OPEN_RATE_RPS, n, OPEN_BURST),
                        }
                    }
                    _ => Pacing::Closed {
                        pipeline: PIPELINE,
                        max_requests: max_ops,
                    },
                };
                drive(
                    &mut rig.conns,
                    &rig.load,
                    &pacing,
                    window,
                    fault,
                    tracer,
                    parent,
                )
                .map_err(|e| format!("load generator: {e}"))
            }
        }
    }

    /// The loopback address of the rig's server, if it has one.
    pub fn server_addr(&self) -> Option<std::net::SocketAddr> {
        match &self.inner {
            Inner::Net(rig) => Some(rig.server.addr()),
            Inner::Offline(_) => None,
        }
    }

    /// Close connections, stop and join every server thread, and remove
    /// the registry directory.
    pub fn teardown(self) {
        if let Inner::Net(rig) = self.inner {
            drop(rig.conns);
            rig.server.shutdown();
            let _ = std::fs::remove_dir_all(&rig.dir);
        }
    }
}

impl OfflineRig {
    fn phase(
        &mut self,
        window: Duration,
        max_ops: u64,
        oracle: &Oracle,
        fault: &mut Option<Fault>,
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> Window {
        let mut rec = Recorder::start(window);
        let t_end = rec.t_end();
        let mut op = 0u64;
        while op < max_ops {
            let start = Instant::now();
            if start >= t_end {
                break;
            }
            let b = (op % self.batches.len() as u64) as usize;
            let result = self.plan.forward(&self.batches[b], &mut self.ws);
            let end = Instant::now();
            op += 1;
            rec.attempt();
            rec.tick(end);
            let fire = op == FAULT_AT_OP;
            let good = match result {
                Ok(_) if fire && *fault == Some(Fault::DropReply) => {
                    *fault = None;
                    false
                }
                Ok(mut out) => {
                    if fire && *fault == Some(Fault::FlipBit) {
                        *fault = None;
                        flip_one_bit(&mut out);
                    }
                    bitwise_eq(&out, &oracle.expected[b])
                }
                Err(_) => false,
            };
            if good {
                rec.ok(start, end, BATCH as u64);
                tracer.span("forward", start, end, parent, op);
            } else {
                rec.fail(1);
            }
        }
        rec.finish()
    }
}
