//! Sample bookkeeping shared by every loop the benchmark times: one
//! [`Recorder`] per phase collects `Instant`-based latencies, item counts
//! and CPU readings per time slice, and failure counts; [`EndToEnd`] turns a
//! finished [`Window`] into the six end-to-end metrics.

use std::time::{Duration, Instant};

use crate::stats::{cpu_seconds, median, peak_rss_mib};
use crate::sut::Tensor;
use crate::workloads::SLICES;

/// A deliberate corruption for the negative self-test: the run must report
/// it as a failed operation and exit non-zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Flip one bit of one output before it is checked.
    FlipBit,
    /// Discard one reply as if it never arrived.
    DropReply,
}

impl Fault {
    /// Parse the `--inject` value.
    pub fn parse(s: &str) -> Result<Fault, String> {
        match s {
            "flip-bit" => Ok(Fault::FlipBit),
            "drop-reply" => Ok(Fault::DropReply),
            other => Err(format!("unknown fault '{other}' (flip-bit, drop-reply)")),
        }
    }
}

/// The operation index at which an injected fault fires.
pub const FAULT_AT_OP: u64 = 5;

/// Shape-and-bits equality: `-0.0 != 0.0`, `NaN == NaN` when the payloads
/// match — the transport and the batcher must not change a single bit.
pub fn bitwise_eq(a: &Tensor<f32>, b: &Tensor<f32>) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Flip the lowest mantissa bit of the first element.
pub fn flip_one_bit(t: &mut Tensor<f32>) {
    if let Some(v) = t.as_mut_slice().first_mut() {
        *v = f32::from_bits(v.to_bits() ^ 1);
    }
}

fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Sub-buckets per power of two of [`LatencyHist`]: a bucket is at most
/// 1/256 of its value wide, so a quantile is exact to ±0.2%.
const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above 2³² ns (4.3 s) share the last bucket.
const HIST_BUCKETS: usize = ((32 - SUB_BITS as usize) + 1) << SUB_BITS;

/// Latencies in nanoseconds at 0.4% resolution in fixed memory. Keeping
/// every raw sample instead would make the benchmark's own footprint grow
/// with throughput and show up as a `peak_rss_mb` regression whenever the
/// system got faster.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    counts: Vec<u32>,
    total: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            counts: vec![0; HIST_BUCKETS],
            total: 0,
        }
    }
}

impl LatencyHist {
    fn bucket(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let e = 63 - ns.leading_zeros(); // ≥ SUB_BITS
        let sub = (ns >> (e - SUB_BITS)) & (SUB - 1);
        ((((e - SUB_BITS + 1) as u64) << SUB_BITS) | sub).min(HIST_BUCKETS as u64 - 1) as usize
    }

    /// Midpoint of bucket `idx`, ns.
    fn midpoint(idx: usize) -> f64 {
        let (octave, sub) = ((idx as u64) >> SUB_BITS, (idx as u64) & (SUB - 1));
        if octave == 0 {
            return sub as f64;
        }
        let shift = octave - 1;
        (((SUB + sub) << shift) as f64) + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    /// Record one latency.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `q`-quantile (nearest rank), ns; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((self.total as f64 - 1.0) * q).round() as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen > rank {
                return Self::midpoint(idx);
            }
        }
        Self::midpoint(HIST_BUCKETS - 1)
    }

    /// Samples in buckets wholly above `limit_ns`.
    pub fn count_over(&self, limit_ns: u64) -> u64 {
        self.counts[Self::bucket(limit_ns) + 1..]
            .iter()
            .map(|&c| u64::from(c))
            .sum()
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

/// Collects the samples of one phase (warm-up or timed window).
///
/// The phase is cut into [`SLICES`] slices. A slice ends at the first
/// [`Recorder::tick`] at or after its nominal boundary; the instant and the
/// process CPU time are read there, and completions are counted in the
/// slice that is open when they are recorded, so a slice's items, CPU and
/// duration all refer to the same two instants.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    window: Duration,
    /// Instant and process CPU seconds at the start of each slice so far.
    marks: Vec<(Instant, f64)>,
    slice_items: [u64; SLICES],
    slice_latency: Vec<LatencyHist>,
    lateness: LatencyHist,
    attempted: u64,
    failed: u64,
}

impl Recorder {
    /// Start a phase of length `window` now.
    pub fn start(window: Duration) -> Recorder {
        let t0 = Instant::now();
        let mut marks = Vec::with_capacity(SLICES + 1);
        marks.push((t0, cpu_seconds()));
        Recorder {
            t0,
            window,
            marks,
            slice_items: [0; SLICES],
            slice_latency: vec![LatencyHist::default(); SLICES],
            lateness: LatencyHist::default(),
            attempted: 0,
            failed: 0,
        }
    }

    /// When the phase began.
    pub fn t0(&self) -> Instant {
        self.t0
    }

    /// When the phase stops offering load.
    pub fn t_end(&self) -> Instant {
        self.t0 + self.window
    }

    /// Close every slice whose nominal end `now` has reached (the last
    /// slice stays open until [`Recorder::finish`], so it takes the
    /// replies that drain just after the window closes).
    pub fn tick(&mut self, now: Instant) {
        let slice = self.window / SLICES as u32;
        while self.marks.len() < SLICES && now >= self.t0 + slice * self.marks.len() as u32 {
            self.marks.push((now, cpu_seconds()));
        }
    }

    /// One operation was offered.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// An open-loop request was sent `late` after its due time.
    pub fn lateness(&mut self, late: Duration) {
        self.lateness.record(saturating_ns(late));
    }

    /// An operation carrying `items` items completed correctly at `end`,
    /// its latency counted from `reference`.
    pub fn ok(&mut self, reference: Instant, end: Instant, items: u64) {
        let open = self.marks.len() - 1;
        self.slice_items[open] += items;
        self.slice_latency[open].record(saturating_ns(end.saturating_duration_since(reference)));
    }

    /// `n` operations failed: error frame, refusal, shed, lost, or wrong
    /// output. They get no latency sample.
    pub fn fail(&mut self, n: u64) {
        self.failed += n;
    }

    /// Close the phase.
    pub fn finish(mut self) -> Window {
        let end = (Instant::now(), cpu_seconds());
        // a phase cut short (count-limited set-up warm-up) leaves slices empty
        self.marks.resize(SLICES + 1, end);
        let spans = self.marks.windows(2);
        Window {
            elapsed: end.0 - self.t0,
            slice_secs: spans
                .clone()
                .map(|m| (m[1].0 - m[0].0).as_secs_f64())
                .collect(),
            slice_cpu_s: spans.map(|m| m[1].1 - m[0].1).collect(),
            slice_items: self.slice_items,
            slice_latency: self.slice_latency,
            lateness: self.lateness,
            attempted: self.attempted,
            failed: self.failed,
        }
    }
}

/// The outcome of one phase. Every headline number is a **median over the
/// phase's [`SLICES`] equal time slices**: two shared cores switch between
/// scheduling regimes that last seconds, and the median slice is what
/// repeats from run to run.
#[derive(Debug, Clone)]
pub struct Window {
    /// Wall time from start to the last completion.
    pub elapsed: Duration,
    /// Measured length of each slice, seconds.
    pub slice_secs: Vec<f64>,
    /// Process CPU seconds (`/proc/self/stat`) spent in each slice.
    pub slice_cpu_s: Vec<f64>,
    /// Correct items completed per slice.
    pub slice_items: [u64; SLICES],
    /// Latencies of the successful operations that completed in each slice.
    pub slice_latency: Vec<LatencyHist>,
    /// Send-time minus due-time of open-loop requests.
    pub lateness: LatencyHist,
    /// Operations offered.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Window {
    /// Median over slices of correct items per second.
    pub fn throughput_rps(&self) -> f64 {
        median(&self.slice_rates())
    }

    /// Correct items per second of each slice that has a length.
    pub fn slice_rates(&self) -> Vec<f64> {
        self.slice_items
            .iter()
            .zip(&self.slice_secs)
            .filter(|(_, &secs)| secs > 0.0)
            .map(|(&n, &secs)| n as f64 / secs)
            .collect()
    }

    /// Median over slices of process CPU seconds per thousand items.
    pub fn cpu_s_per_kitem(&self) -> f64 {
        let costs: Vec<f64> = self
            .slice_items
            .iter()
            .zip(&self.slice_cpu_s)
            .filter(|(&n, _)| n > 0)
            .map(|(&n, &cpu)| cpu * 1000.0 / n as f64)
            .collect();
        median(&costs)
    }

    /// Median over the non-empty slices of the slice's `q`-quantile
    /// latency, µs.
    pub fn latency_us(&self, q: f64) -> f64 {
        median(&self.slice_latency_us(q))
    }

    /// The `q`-quantile latency of each non-empty slice, µs.
    pub fn slice_latency_us(&self, q: f64) -> Vec<f64> {
        self.slice_latency
            .iter()
            .filter(|h| !h.is_empty())
            .map(|h| h.quantile_ns(q) / 1000.0)
            .collect()
    }

    /// All latencies of the phase in one histogram.
    pub fn whole(&self) -> LatencyHist {
        let mut all = LatencyHist::default();
        for h in &self.slice_latency {
            all.merge(h);
        }
        all
    }

    /// Successful operations (latency samples).
    pub fn samples(&self) -> u64 {
        self.slice_latency.iter().map(LatencyHist::len).sum()
    }

    /// Items of the successful operations.
    pub fn items_ok(&self) -> u64 {
        self.slice_items.iter().sum()
    }

    /// 99th-percentile generator lateness, µs (0 for closed loops).
    pub fn lateness_p99_us(&self) -> f64 {
        self.lateness.quantile_ns(0.99) / 1000.0
    }

    /// Share of offered operations that missed `limit_us`; a failed
    /// operation counts as a miss.
    pub fn limit_miss_ratio(&self, limit_us: u64) -> f64 {
        let slow = self.whole().count_over(limit_us.saturating_mul(1000));
        (slow + self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// `sent / succeeded / failed` line for one phase, with the whole-phase
    /// (not per-slice) latency quantiles for orientation.
    pub fn phase_line(&self, phase: &str) -> String {
        let whole = self.whole();
        format!(
            "phase {phase}: sent={} succeeded={} failed={} items_ok={} elapsed_s={:.3} whole_p50_us={:.1} whole_p99_us={:.1}",
            self.attempted,
            whole.len(),
            self.failed,
            self.items_ok(),
            self.elapsed.as_secs_f64(),
            whole.quantile_ns(0.5) / 1000.0,
            whole.quantile_ns(0.99) / 1000.0,
        )
    }
}

/// The six end-to-end metrics of one run, in `workloads::END_TO_END` order.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Values, indexed like `workloads::END_TO_END`.
    pub values: [f64; 6],
}

impl EndToEnd {
    /// Derive the metrics from the timed window and the measured set-up.
    pub fn of(window: &Window, setup_s: f64) -> EndToEnd {
        EndToEnd {
            values: [
                window.throughput_rps(),
                window.latency_us(0.50),
                window.latency_us(0.99),
                window.cpu_s_per_kitem(),
                peak_rss_mib(),
                setup_s,
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::Shape4;

    #[test]
    fn bitwise_equality_sees_one_flipped_bit_and_signed_zero() {
        let a = Tensor::from_vec(Shape4::new(1, 1, 1, 2), vec![0.0_f32, 1.5]).unwrap();
        let mut b = a.clone();
        assert!(bitwise_eq(&a, &b));
        flip_one_bit(&mut b);
        assert!(!bitwise_eq(&a, &b));
        let neg = Tensor::from_vec(Shape4::new(1, 1, 1, 2), vec![-0.0_f32, 1.5]).unwrap();
        assert!(!bitwise_eq(&a, &neg));
    }

    #[test]
    fn failures_count_as_limit_misses_and_get_no_sample() {
        let mut rec = Recorder::start(Duration::from_millis(100));
        let t0 = rec.t0();
        for i in 0..8u64 {
            rec.attempt();
            rec.ok(t0, t0 + Duration::from_micros(100 * (i + 1)), 1);
        }
        rec.attempt();
        rec.fail(1);
        rec.attempt();
        rec.fail(1);
        let w = rec.finish();
        assert_eq!((w.attempted, w.failed, w.samples()), (10, 2, 8));
        // 3 samples over 500 µs, plus the 2 failures
        assert!((w.limit_miss_ratio(500) - 0.5).abs() < 1e-9);
        assert_eq!((w.slice_secs.len(), w.slice_cpu_s.len()), (SLICES, SLICES));
    }

    #[test]
    fn histogram_quantiles_are_exact_to_a_quarter_percent() {
        let mut h = LatencyHist::default();
        for ns in [
            0u64,
            1,
            255,
            256,
            257,
            1_000,
            123_456,
            7_654_321,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mid = LatencyHist::midpoint(LatencyHist::bucket(ns));
            let want = ns.min(u64::from(u32::MAX)) as f64;
            assert!((mid - want).abs() <= want / 400.0 + 0.5, "{ns}: {mid}");
        }
        for ns in 1..=1000u64 {
            h.record(ns * 1000);
        }
        assert_eq!(h.len(), 1000);
        assert!((h.quantile_ns(0.5) / 501_000.0 - 1.0).abs() < 0.0025);
        assert!((h.quantile_ns(0.99) / 990_000.0 - 1.0).abs() < 0.0025);
        assert_eq!(h.count_over(900_000), 99);
        assert_eq!(LatencyHist::default().quantile_ns(0.5), 0.0);
    }
}
