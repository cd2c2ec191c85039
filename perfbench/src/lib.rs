//! Host-time benchmark of the orthotrees simulator.
//!
//! One run measures one workload for a fixed number of host seconds in a
//! closed loop (one caller, one process, the next problem starts when the
//! previous one ends) and prints one JSON result line. The untraced run
//! gives the end-to-end metrics; the traced run replays problems as their
//! public calls inside spans and gives the per-layer metrics. See
//! `README.md` beside this crate for the workloads and the metric map.

pub mod measure;
pub mod trace;
pub mod workloads;

use measure::{median, peak_rss_mb, quantile, ProcCounters};
use orthotrees::obs::json::Json;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::Workload;

/// The workload names, in reporting order.
pub const WORKLOADS: [&str; 4] =
    ["otn-sort", "otc-sort-observed", "engine-checkpoint", "paper-repro"];

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Spans of host time a run's throughput is the median over.
pub const THROUGHPUT_BLOCKS: usize = 10;

/// Repetitions of each same-run A/B probe in the traced run.
pub const PROBE_REPS: usize = 5;

/// Named metric values with units, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Names of metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&str> {
        self.0.iter().filter(|(_, v, _)| !v.is_finite()).map(|(n, _, _)| n.as_str()).collect()
    }

    fn to_json(&self) -> Json {
        Json::obj(self.0.iter().map(|(n, v, u)| {
            (n.clone(), Json::obj([("value", Json::f64(*v)), ("unit", Json::str(*u))]))
        }))
    }
}

/// Outcome of a closed loop of problems.
#[derive(Clone, Debug, Default)]
pub struct LoopResult {
    /// Problems started.
    pub attempted: u64,
    /// Problems that returned an error or panicked.
    pub failed: u64,
    /// Host time of each problem, checks included, ms.
    pub latencies_ms: Vec<f64>,
    /// Host time of the whole loop, s.
    pub wall_s: f64,
}

impl LoopResult {
    /// Problems completed without failure per host second: the loop is
    /// cut into `blocks` equal spans of host time (a problem belongs to
    /// the span it starts in) and the median span rate is reported, so
    /// a burst of load from outside the process moves one span, not the
    /// figure.
    pub fn block_throughput(&self, blocks: usize) -> f64 {
        let total: f64 = self.latencies_ms.iter().sum();
        let mut count = vec![0u32; blocks];
        let mut busy_ms = vec![0.0; blocks];
        let mut start = 0.0;
        for &l in &self.latencies_ms {
            let b = ((start / total * blocks as f64) as usize).min(blocks - 1);
            count[b] += 1;
            busy_ms[b] += l;
            start += l;
        }
        let rates: Vec<f64> = (0..blocks)
            .filter(|&b| count[b] > 0)
            .map(|b| f64::from(count[b]) / busy_ms[b] * 1e3)
            .collect();
        median(&rates) * (1.0 - self.error_rate())
    }

    /// Failed problems over problems attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Runs problems `0, 1, …` of `wl` in whole rounds of its pool until
/// `budget` has passed and at least `min_rounds` rounds have run, so that
/// per-problem means weigh every pool entry alike. A problem that panics
/// counts as failed.
pub fn run_loop(
    wl: &mut dyn Workload,
    budget: Duration,
    min_rounds: u64,
    tr: &mut Tracer,
) -> LoopResult {
    let pool = wl.pool().max(1);
    let mut res = LoopResult::default();
    let start = Instant::now();
    while res.attempted < min_rounds * pool || start.elapsed() < budget || res.attempted % pool != 0
    {
        let k = res.attempted;
        tr.set_problem(k);
        let t0 = Instant::now();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| wl.problem(k, tr)));
        res.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        res.attempted += 1;
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(why)) => {
                res.failed += 1;
                eprintln!("problem {k} failed: {why}");
            }
            Err(_) => {
                res.failed += 1;
                tr.unwind();
                eprintln!("problem {k} panicked");
            }
        }
    }
    res.wall_s = start.elapsed().as_secs_f64();
    res
}

/// One run's result line.
#[derive(Clone, Debug)]
pub struct Report {
    /// Problems attempted (probes included in a traced run).
    pub attempted: u64,
    /// Problems failed.
    pub failed: u64,
    /// The run's metrics.
    pub metrics: Metrics,
}

impl Report {
    /// The JSON result line.
    pub fn to_json(&self) -> Json {
        let correct = self.failed == 0 && self.metrics.non_finite().is_empty();
        Json::obj([
            ("correct", Json::bool(correct)),
            ("attempted", Json::u64(self.attempted.max(1))),
            ("failed", Json::u64(self.failed)),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

/// The untraced run: end-to-end metrics of workload `name`.
///
/// # Errors
///
/// Returns a failed set-up.
pub fn run_untraced(name: &str, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut wl = None;
    for _ in 0..SETUP_REPEATS {
        drop(wl.take());
        let t0 = Instant::now();
        wl = Some(workloads::setup(name, seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut wl = wl.ok_or("no set-up ran")?;
    let res = run_loop(wl.as_mut(), Duration::from_secs_f64(seconds), 1, &mut Tracer::off());

    let mut m = Metrics::default();
    m.push("throughput_ops_s", res.block_throughput(THROUGHPUT_BLOCKS), "1/s");
    m.push("latency_p50_ms", quantile(&res.latencies_ms, 0.5), "ms");
    m.push("latency_p90_ms", quantile(&res.latencies_ms, 0.9), "ms");
    m.push("setup_s", median(&setup_s), "s");
    m.push("peak_rss_mb", peak_rss_mb(), "MiB");
    println!(
        "# {name} seed {seed}: {} problems ({} failed) in {:.2} s; latency quantiles over {} samples; \
         error_rate {}; set-up runs {:?} s",
        res.attempted,
        res.failed,
        res.wall_s,
        res.latencies_ms.len(),
        res.error_rate(),
        setup_s
    );
    Ok(Report { attempted: res.attempted, failed: res.failed, metrics: m })
}

/// The traced run: per-layer metrics of every layer, plus the tracing
/// overhead and process counters of workload `name`.
///
/// A third of `seconds` runs `name` untraced (process counters, baseline
/// throughput), a third runs it traced; then every other workload runs
/// one traced round of its pool so that each layer is measured on the
/// workload that owns it, and each workload's A/B probes run. The spans are
/// written to `spans_out` when the run ends.
///
/// # Errors
///
/// Returns a failed set-up or an unwritable span file.
pub fn run_traced(
    name: &str,
    seed: u64,
    seconds: f64,
    spans_out: Option<&Path>,
) -> Result<Report, String> {
    let slice = Duration::from_secs_f64(seconds / 3.0);
    let mut main = workloads::setup(name, seed)?;
    let c0 = ProcCounters::read();
    let plain = run_loop(main.as_mut(), slice, 1, &mut Tracer::off());
    let proc = ProcCounters::read().since(&c0);
    let mut tr = Tracer::on();
    let traced = run_loop(main.as_mut(), slice, 1, &mut tr);

    let mut attempted = plain.attempted + traced.attempted;
    let mut failed = plain.failed + traced.failed;
    let mut m = Metrics::default();
    let mut spans = Vec::new();
    for w in WORKLOADS {
        let mut other;
        let (wl, tr): (&mut dyn Workload, Tracer) = if w == name {
            (main.as_mut(), std::mem::replace(&mut tr, Tracer::off()))
        } else {
            other = workloads::setup(w, seed)?;
            let mut tr = Tracer::on();
            let r = run_loop(other.as_mut(), Duration::ZERO, 1, &mut tr);
            attempted += r.attempted;
            failed += r.failed;
            (other.as_mut(), tr)
        };
        attempted += 1;
        if let Err(why) = wl.layer_metrics(&tr, PROBE_REPS, &mut m) {
            failed += 1;
            eprintln!("{w} probe failed: {why}");
        }
        spans.extend(tr.spans_json(w));
    }

    let problems = plain.attempted as f64;
    m.push("proc.minflt_per_problem", proc.minflt as f64 / problems, "count");
    m.push("proc.cpu_s_per_problem", proc.cpu_s / problems, "s");
    let (plain_rate, traced_rate) =
        (plain.block_throughput(THROUGHPUT_BLOCKS), traced.block_throughput(THROUGHPUT_BLOCKS));
    m.push("trace.overhead_pct", (plain_rate / traced_rate - 1.0) * 100.0, "%");
    m.push("error_rate", failed as f64 / attempted as f64, "ratio");
    println!(
        "# {name} seed {seed} traced: untraced {} problems at {:.3}/s, traced {} at {:.3}/s; \
         {} spans; {attempted} problems and probes, {failed} failed",
        plain.attempted,
        plain_rate,
        traced.attempted,
        traced_rate,
        spans.len()
    );
    if let Some(path) = spans_out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, Json::arr(spans).render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(Report { attempted, failed, metrics: m })
}
