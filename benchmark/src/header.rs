//! The run header: the machine and the settings, recorded next to every
//! number the benchmark prints or writes.

use std::path::Path;

use crate::json::quote;
use crate::workloads::{Kind, Workload, CONNECTIONS, RAYON_THREADS, SETUP_CYCLES};

/// SIMD-relevant CPU flags echoed on stdout; the output files carry the
/// full list.
const FLAGS_OF_INTEREST: [&str; 8] = [
    "sse4_2",
    "avx",
    "avx2",
    "fma",
    "avx512f",
    "avx512bw",
    "avx512vnni",
    "neon",
];

/// Everything a reader needs to judge whether two runs are comparable.
#[derive(Debug, Clone)]
pub struct Header {
    /// Workload name.
    pub workload: &'static str,
    /// `--seed`.
    pub seed: u64,
    /// Timed window (or trace budget), seconds.
    pub window_s: f64,
    /// Untimed warm-up before the window, seconds.
    pub warmup_s: f64,
    /// Whether this is the traced pass.
    pub trace: bool,
    /// Load-generator connections.
    pub connections: usize,
    commit: String,
    nproc: usize,
    cpu_model: String,
    cpu_flags: String,
}

impl Header {
    /// Read the machine and record the settings of this run.
    pub fn collect(w: &Workload, seed: u64, window_s: f64, warmup_s: f64, trace: bool) -> Header {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo
                .lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_once(':'))
                .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string())
        };
        Header {
            workload: w.name,
            seed,
            window_s,
            warmup_s,
            trace,
            connections: if w.kind == Kind::Offline {
                0
            } else {
                CONNECTIONS
            },
            commit: git_commit(),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: field("model name"),
            cpu_flags: field("flags"),
        }
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"commit\": {}, ",
                "\"nproc\": {}, \"cpu_model\": {}, \"cpu_flags\": {}, \"rustc\": {}, ",
                "\"profile\": {}, \"rayon_threads\": {}, \"client_threads\": 1, \"connections\": {}, ",
                "\"server\": \"shards=1 workers=1 max_batch=8 max_wait_ms=1\", ",
                "\"setup_cycles\": {}, \"warmup_s\": {:.3}, \"window_s\": {:.3}}}"
            ),
            quote(self.workload),
            self.seed,
            self.trace,
            quote(&self.commit),
            self.nproc,
            quote(&self.cpu_model),
            quote(&self.cpu_flags),
            quote(env!("BENCH_RUSTC_VERSION")),
            quote(profile()),
            RAYON_THREADS,
            self.connections,
            SETUP_CYCLES,
            self.warmup_s,
            self.window_s,
        )
    }

    /// The header as `# `-prefixed stdout lines.
    pub fn to_lines(&self) -> String {
        let flags: Vec<&str> = self
            .cpu_flags
            .split_whitespace()
            .filter(|f| FLAGS_OF_INTEREST.contains(f))
            .collect();
        format!(
            concat!(
                "# workload={} seed={} trace={} window_s={} warmup_s={:.2} setup_cycles={}\n",
                "# commit={} rustc=\"{}\" profile={}\n",
                "# nproc={} cpu=\"{}\" flags=[{}]\n",
                "# rayon_threads={} client_threads=1 connections={} server: shards=1 workers=1 max_batch=8 max_wait_ms=1"
            ),
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.window_s,
            self.warmup_s,
            SETUP_CYCLES,
            self.commit,
            env!("BENCH_RUSTC_VERSION"),
            profile(),
            self.nproc,
            self.cpu_model,
            flags.join(" "),
            RAYON_THREADS,
            self.connections,
        )
    }
}

fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The checked-out commit, read from `.git` of the current directory or of
/// the directory above the benchmark; `unknown` outside a git checkout
/// (the driver's checkouts are plain directories).
fn git_commit() -> String {
    let manifest_parent = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    [Path::new("."), manifest_parent.as_path()]
        .iter()
        .find_map(|root| read_head(&root.join(".git")))
        .unwrap_or_else(|| "unknown".to_string())
}

fn read_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)
            .map(|hash| hash.trim().to_string())
    })
}
