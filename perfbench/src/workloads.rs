//! The four workloads: set-up, one checked problem, and the traced
//! replay of each problem as the public calls it is made of.
//!
//! Every workload draws its inputs from the seed during set-up, into a
//! small pool that problem `k` cycles through (`k % pool`), and computes
//! the reference each problem is checked against. A problem fails on a
//! wrong output, a broken identity check or a simulator error; the
//! runner also counts a panic as a failure.

use crate::measure::{median, ProcCounters};
use crate::trace::Tracer;
use crate::Metrics;
use orthotrees::obs::chrome::chrome_trace;
use orthotrees::obs::json::Json;
use orthotrees::obs::telemetry::{self, Telemetry};
use orthotrees::obs::Recorder;
use orthotrees::otc::{self, Otc};
use orthotrees::otn::sort::SortOutcome;
use orthotrees::otn::{self, Otn};
use orthotrees::primitive::spec_for;
use orthotrees::{FaultStats, ParallelPolicy, Word};
use orthotrees_analysis::report::{self, ReportConfig};
use orthotrees_analysis::tables::ReproTable;
use orthotrees_analysis::{critpath, obsreport, profreport, recovery, telreport, workloads};
use orthotrees_bench::profile::{dense_plan, DENSE_FAULT_RATE};
use orthotrees_bench::{summary, Preset};
use orthotrees_sim::experiments::{self, ProbeKind};
use orthotrees_sim::{CalendarKind, Engine, RunStatus, Snapshot};
use orthotrees_vlsi::CostModel;
use std::fmt::Display;
use std::fmt::Write as _;
use std::time::Instant;

/// One benchmark workload.
pub trait Workload {
    /// Runs problem `k` and checks its output. With an enabled tracer the
    /// problem is replayed as its public calls, each inside a span, and
    /// records its exact counts.
    ///
    /// # Errors
    ///
    /// Returns why the problem failed.
    fn problem(&mut self, k: u64, tr: &mut Tracer) -> Result<(), String>;

    /// Size of the input pool; problem `k` uses entry `k % pool`.
    fn pool(&self) -> u64;

    /// Appends this workload's per-layer metrics, derived from the spans
    /// and counts in `tr` plus same-run A/B probes repeated `reps` times.
    ///
    /// # Errors
    ///
    /// Returns why a probe's output failed its check.
    fn layer_metrics(&mut self, tr: &Tracer, reps: usize, out: &mut Metrics) -> Result<(), String>;
}

/// Builds workload `name` from `seed`: inputs, references and warm-up.
///
/// # Errors
///
/// Returns an unknown name, or a set-up that failed its own checks.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "otn-sort" => Box::new(OtnSort::setup(512, seed, 4)?),
        "otc-sort-observed" => Box::new(OtcObserved::setup(1024, seed, 4)?),
        "engine-checkpoint" => Box::new(EngineCheckpoint::setup(512, seed, 4)?),
        "paper-repro" => Box::new(PaperRepro::setup(Preset::Quick.config(), seed)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

fn err(e: impl Display) -> String {
    e.to_string()
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Median over problems of the per-problem summed self time of `span`, ns.
fn self_ns(tr: &Tracer, span: &str) -> f64 {
    let pp = tr.per_problem();
    let v: Vec<f64> =
        pp.get(span).map(|t| t.iter().map(|t| t.self_ns as f64).collect()).unwrap_or_default();
    median(&v)
}

/// Median host time of one call of `span`, ns.
fn ns_per_call(tr: &Tracer, span: &str) -> f64 {
    let pp = tr.per_problem();
    let v: Vec<f64> = pp
        .get(span)
        .map(|t| t.iter().map(|t| t.total_ns as f64 / t.calls.max(1) as f64).collect())
        .unwrap_or_default();
    median(&v)
}

/// Mean of counter `name` over the problems that recorded it.
fn per_problem(tr: &Tracer, name: &str) -> f64 {
    let v = tr.counter(name);
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Runs `runs` round-robin `reps` times, rotating which goes first; each
/// run returns its own timed host ns. Returns each run's median.
fn ab_medians(
    reps: usize,
    runs: &mut [&mut dyn FnMut() -> Result<f64, String>],
) -> Result<Vec<f64>, String> {
    let mut times = vec![Vec::new(); runs.len()];
    for r in 0..reps {
        for i in 0..runs.len() {
            let j = (i + r) % runs.len();
            times[j].push((runs[j])()?);
        }
    }
    Ok(times.iter().map(|t| median(t)).collect())
}

fn check(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

// ---------------------------------------------------------------------
// otn-sort
// ---------------------------------------------------------------------

/// SORT-OTN at one size, sequential, no fault plan, no instruments.
pub struct OtnSort {
    /// Sort size.
    pub n: usize,
    /// Input pool.
    pub inputs: Vec<Vec<Word>>,
    /// Expected outcome per input: sorted output equal to
    /// `sort_unstable`, no missing words, and the warm-up run's τ and
    /// `OpStats`.
    pub expected: Vec<SortOutcome>,
}

impl OtnSort {
    /// Draws `pool` inputs from `seed` and warms up with one sort each.
    ///
    /// # Errors
    ///
    /// Returns a warm-up sort that fails or disagrees with `sort_unstable`.
    pub fn setup(n: usize, seed: u64, pool: u64) -> Result<OtnSort, String> {
        let inputs: Vec<Vec<Word>> =
            (0..pool).map(|k| workloads::distinct_words(n, seed.wrapping_add(k))).collect();
        let mut expected = Vec::new();
        for xs in &inputs {
            let mut net = Otn::for_sorting(n).map_err(err)?;
            let out = otn::sort::sort(&mut net, xs).map_err(err)?;
            let mut want = xs.clone();
            want.sort_unstable();
            check(out.sorted == want && out.missing.is_empty(), || {
                "otn-sort warm-up: output is not sort_unstable".to_string()
            })?;
            expected.push(out);
        }
        Ok(OtnSort { n, inputs, expected })
    }
}

/// SORT-OTN as its public primitive calls (the body of
/// `otn::sort::sort`), each call in a span.
fn otn_sort_replay(n: usize, xs: &[Word], tr: &mut Tracer) -> Result<SortOutcome, String> {
    use otn::{all, Axis, PhaseCost};
    let id = tr.open("otn.sort");
    let mut net = Otn::for_sorting(n).map_err(err)?;
    let a = net.alloc_reg("A");
    let b = net.alloc_reg("B");
    let flag = net.alloc_reg("flag");
    let r = net.alloc_reg("R");
    net.load_row_roots(xs);
    let before = *net.clock().stats();
    let (_, time) = net.elapsed(|net| {
        net.begin_phase(spec_for("SORT-OTN").name);
        tr.span("otn.root_to_leaf", || net.root_to_leaf(Axis::Rows, a, all));
        tr.span("otn.leaf_to_leaf", || net.leaf_to_leaf(Axis::Cols, a, |i, j, _| i == j, b, all));
        tr.span("otn.bp_phase", || {
            net.bp_phase(PhaseCost::Compare, |i, j, bp| {
                let f = match (bp.get(a), bp.get(b)) {
                    (Some(x), Some(y)) => x > y || (x == y && i > j),
                    _ => false,
                };
                bp.set(flag, Some(Word::from(f)));
            });
        });
        tr.span("otn.count_to_leaf", || net.count_to_leaf(Axis::Rows, flag, r, all));
        tr.span("otn.leaf_to_root", || {
            net.leaf_to_root(Axis::Cols, a, |i, j, v| v.get(r, i, j) == Some(j as Word));
        });
        net.end_phase();
    });
    let mut sorted = Vec::with_capacity(n);
    for (p, v) in net.read_col_roots().into_iter().enumerate() {
        sorted.push(v.ok_or_else(|| format!("otn replay: output port {p} received no word"))?);
    }
    let stats = net.clock().stats().since(&before);
    tr.close(id);
    Ok(SortOutcome { sorted, missing: Vec::new(), time, stats })
}

const OTN_PRIMITIVES: [(&str, &str); 5] = [
    ("otn.root_to_leaf", "otn.root_to_leaf.ns_per_bp"),
    ("otn.leaf_to_leaf", "otn.leaf_to_leaf.ns_per_bp"),
    ("otn.bp_phase", "otn.bp_phase.ns_per_bp"),
    ("otn.count_to_leaf", "otn.count_to_leaf.ns_per_bp"),
    ("otn.leaf_to_root", "otn.leaf_to_root.ns_per_bp"),
];

impl Workload for OtnSort {
    fn pool(&self) -> u64 {
        self.inputs.len() as u64
    }

    fn problem(&mut self, k: u64, tr: &mut Tracer) -> Result<(), String> {
        let i = (k % self.inputs.len() as u64) as usize;
        let xs = &self.inputs[i];
        let out = if tr.enabled() {
            otn_sort_replay(self.n, xs, tr)?
        } else {
            let mut net = Otn::for_sorting(self.n).map_err(err)?;
            otn::sort::sort(&mut net, xs).map_err(err)?
        };
        check(out == self.expected[i], || {
            format!("otn-sort problem {k}: outcome differs from reference")
        })?;
        tr.count("otn.ops", out.stats.total() as f64);
        tr.count("vlsi.sim_tau", out.time.get() as f64);
        Ok(())
    }

    fn layer_metrics(
        &mut self,
        tr: &Tracer,
        _reps: usize,
        out: &mut Metrics,
    ) -> Result<(), String> {
        let bps = (self.n * self.n) as f64;
        out.push("otn.sort.self_ms", ms(self_ns(tr, "otn.sort")), "ms");
        for (span, metric) in OTN_PRIMITIVES {
            out.push(metric, ns_per_call(tr, span) / bps, "ns");
        }
        out.push("otn.ops_per_problem", per_problem(tr, "otn.ops"), "count");
        out.push("vlsi.sim_tau_per_problem", per_problem(tr, "vlsi.sim_tau"), "tau");
        Ok(())
    }
}

// ---------------------------------------------------------------------
// otc-sort-observed
// ---------------------------------------------------------------------

/// Telemetry snapshot interval, τ.
const TELEMETRY_INTERVAL: u64 = 256;

/// Which instruments a SORT-OTC run installs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Instruments {
    None,
    Recorder,
    Telemetry,
    Reach,
    Both,
}

/// SORT-OTC under a dense word-fault plan with the Recorder and
/// Telemetry installed and every export rendered, parsed back and
/// schema-checked.
///
/// Problems run under `ParallelPolicy::Sequential`. `Threads` is timed
/// only by the `primitive.threads.*` probe: with two workers on a
/// two-core host, runs interleaved with Sequential ones swung by up to a
/// quarter in median and a third in p90 host time, while the Sequential
/// runs stayed within a few percent.
pub struct OtcObserved {
    /// Sort size.
    pub n: usize,
    /// Input pool.
    pub inputs: Vec<Vec<Word>>,
    /// Fault-plan seed per input.
    pub plan_seeds: Vec<u64>,
    /// Reference per input: a Sequential, uninstrumented run of the same
    /// input and plan (output, τ, `OpStats`, `FaultStats`).
    pub expected: Vec<(SortOutcome, FaultStats)>,
}

impl OtcObserved {
    /// Draws `pool` inputs and fault plans from `seed`, computes their
    /// Sequential references and warms up with one problem each.
    ///
    /// # Errors
    ///
    /// Returns a reference or warm-up run that fails.
    pub fn setup(n: usize, seed: u64, pool: u64) -> Result<OtcObserved, String> {
        let mut wl =
            OtcObserved { n, inputs: Vec::new(), plan_seeds: Vec::new(), expected: Vec::new() };
        for k in 0..pool {
            let s = seed.wrapping_add(k);
            wl.inputs.push(workloads::distinct_words(n, s));
            wl.plan_seeds.push(s);
            let i = wl.inputs.len() - 1;
            let mut net = wl.network(i, ParallelPolicy::Sequential, Instruments::None)?;
            let out = otc::sort::sort(&mut net, &wl.inputs[i]).map_err(err)?;
            wl.expected.push((out, net.fault_stats()));
        }
        for k in 0..pool {
            wl.problem(k, &mut Tracer::off())?;
        }
        Ok(wl)
    }

    fn network(&self, i: usize, policy: ParallelPolicy, inst: Instruments) -> Result<Otc, String> {
        let mut net = Otc::for_sorting(self.n).map_err(err)?;
        net.set_parallel_policy(policy);
        net.install_fault_plan(dense_plan(self.plan_seeds[i]));
        if matches!(inst, Instruments::Recorder | Instruments::Both | Instruments::Reach) {
            let mut rec = Recorder::new();
            if inst == Instruments::Reach {
                rec.enable_reach();
            }
            net.install_recorder(rec);
        }
        if matches!(inst, Instruments::Telemetry | Instruments::Both) {
            net.install_telemetry(Telemetry::new(TELEMETRY_INTERVAL));
        }
        Ok(net)
    }

    /// One bare-or-instrumented sort of input 0 (network construction
    /// included), checked against its reference; returns its host ns.
    fn probe_sort(&self, policy: ParallelPolicy, inst: Instruments) -> Result<f64, String> {
        let t0 = Instant::now();
        let mut net = self.network(0, policy, inst)?;
        let out = otc::sort::sort(&mut net, &self.inputs[0]).map_err(err)?;
        let ns = t0.elapsed().as_nanos() as f64;
        check((&out, net.fault_stats()) == (&self.expected[0].0, self.expected[0].1), || {
            "otc probe: outcome differs from the Sequential reference".to_string()
        })?;
        Ok(ns)
    }
}

/// SORT-OTC as its public primitive calls (the body of
/// `otc::sort::sort`), each call in a span.
fn otc_sort_replay(net: &mut Otc, xs: &[Word], tr: &mut Tracer) -> Result<SortOutcome, String> {
    use otc::{Axis, PhaseCost};
    let id = tr.open("otc.sort");
    let m = net.side();
    let l = net.cycle_len();
    let n = m * l;
    let a = net.alloc_reg("A");
    let b = net.alloc_reg("B");
    let c = net.alloc_reg("C");
    let r = net.alloc_reg("R");
    let d = net.alloc_reg("D");
    let groups: Vec<Vec<Word>> = (0..m).map(|i| xs[i * l..(i + 1) * l].to_vec()).collect();
    net.load_row_root_buffers(&groups);
    let before = *net.clock().stats();
    let (_, time) = net.elapsed(|net| {
        net.begin_phase(spec_for("SORT-OTC").name);
        tr.span("otc.root_to_cycle", || net.root_to_cycle(Axis::Rows, a, |_, _, _| true));
        tr.span("otc.cycle_to_cycle", || {
            net.cycle_to_cycle(Axis::Cols, a, |i, j, _, _| i == j, b, |_, _, _| true);
        });
        net.clear_reg(c);
        for p in 0..l {
            tr.span("otc.bp_phase", || {
                net.bp_phase(PhaseCost::Compare, |i, j, q, v| {
                    let (Some(av), Some(bv)) = (v.get(a, i, j, q), v.get(b, i, j, q)) else {
                        return None;
                    };
                    let ia = (i * l + q) as Word;
                    let ib = (j * l + (q + p) % l) as Word;
                    if av > bv || (av == bv && ia > ib) {
                        Some((c, Some(v.get(c, i, j, q).unwrap_or(0) + 1)))
                    } else {
                        None
                    }
                });
            });
            tr.span("otc.circulate", || net.circulate(&[b]));
        }
        tr.span("otc.sum_cycle_to_cycle", || {
            net.sum_cycle_to_cycle(Axis::Rows, c, |_, _, _, _| true, r, |_, _, _| true);
        });
        tr.span("otc.cycle_phase", || {
            net.cycle_phase(PhaseCost::Words(l as u64), |_, j, cyc| {
                for q in 0..l {
                    cyc.set(d, q, None);
                }
                for q in 0..l {
                    if let (Some(rank), Some(val)) = (cyc.get(r, q), cyc.get(a, q)) {
                        if rank < 0 || rank as usize >= n {
                            continue;
                        }
                        let rank = rank as usize;
                        if rank % m == j {
                            cyc.set(d, rank / m, Some(val));
                        }
                    }
                }
            });
        });
        tr.span("otc.cycle_to_root", || {
            net.cycle_to_root(Axis::Cols, d, |i, j, q, v| v.get(d, i, j, q).is_some());
        });
        net.end_phase();
    });
    let mut sorted = vec![0; n];
    let mut missing = Vec::new();
    for (j, buf) in net.read_col_root_buffers().iter().enumerate() {
        for (p, v) in buf.iter().enumerate() {
            match v {
                Some(w) => sorted[p * m + j] = *w,
                None => missing.push(p * m + j),
            }
        }
    }
    missing.sort_unstable();
    let stats = net.clock().stats().since(&before);
    tr.close(id);
    Ok(SortOutcome { sorted, missing, time, stats })
}

const OTC_PRIMITIVES: [(&str, &str); 7] = [
    ("otc.root_to_cycle", "otc.root_to_cycle.ns_per_bp"),
    ("otc.cycle_to_cycle", "otc.cycle_to_cycle.ns_per_bp"),
    ("otc.bp_phase", "otc.bp_phase.ns_per_bp"),
    ("otc.circulate", "otc.circulate.ns_per_bp"),
    ("otc.sum_cycle_to_cycle", "otc.sum_cycle_to_cycle.ns_per_bp"),
    ("otc.cycle_phase", "otc.cycle_phase.ns_per_bp"),
    ("otc.cycle_to_root", "otc.cycle_to_root.ns_per_bp"),
];

impl Workload for OtcObserved {
    fn pool(&self) -> u64 {
        self.inputs.len() as u64
    }

    fn problem(&mut self, k: u64, tr: &mut Tracer) -> Result<(), String> {
        let i = (k % self.inputs.len() as u64) as usize;
        let mut net = self.network(i, ParallelPolicy::Sequential, Instruments::Both)?;
        let out = if tr.enabled() {
            otc_sort_replay(&mut net, &self.inputs[i], tr)?
        } else {
            otc::sort::sort(&mut net, &self.inputs[i]).map_err(err)?
        };
        let faults = net.fault_stats();
        let rec = net.take_recorder().ok_or("recorder vanished")?;
        let tel = net.take_telemetry().ok_or("telemetry vanished")?;

        let chrome = tr.span("obs.chrome.render", || chrome_trace(&rec).render());
        let (tel_json, open_metrics) =
            tr.span("obs.telemetry.render", || (tel.to_json().render(), tel.open_metrics()));
        let (chrome_doc, tel_doc) =
            tr.span("obs.json.parse", || (Json::parse(&chrome), Json::parse(&tel_json)));
        let chrome_doc = chrome_doc.map_err(|e| format!("chrome trace does not parse: {e:?}"))?;
        let tel_doc = tel_doc.map_err(|e| format!("telemetry JSON does not parse: {e:?}"))?;
        let violations =
            tr.span("obs.telemetry.schema_check", || telemetry::schema_violations(&tel_doc));

        let (want, want_faults) = &self.expected[i];
        check(&out == want && faults == *want_faults, || {
            format!("otc-sort-observed problem {k}: outcome differs from the Sequential reference")
        })?;
        check(violations.is_empty(), || format!("telemetry schema violations: {violations:?}"))?;
        let events = chrome_doc.get("traceEvents").and_then(Json::as_arr).map_or(0, <[_]>::len);
        check(events >= rec.spans().len() && !rec.spans().is_empty(), || {
            format!("chrome trace holds {events} events for {} spans", rec.spans().len())
        })?;
        check(open_metrics.ends_with("# EOF\n"), || "OpenMetrics text lacks # EOF".to_string())?;

        tr.count("otc.ops", out.stats.total() as f64);
        tr.count("otc.sim_tau", out.time.get() as f64);
        tr.count("resilience.retries", faults.retries as f64);
        tr.count("resilience.erasures", faults.erasures as f64);
        tr.count("resilience.detected", faults.detected as f64);
        tr.count("resilience.corrected", faults.corrected as f64);
        tr.count("obs.recorder.spans", rec.spans().len() as f64);
        tr.count("obs.json.bytes", (chrome.len() + tel_json.len()) as f64);
        tr.count("obs.export.bytes", (chrome.len() + tel_json.len() + open_metrics.len()) as f64);
        Ok(())
    }

    fn layer_metrics(&mut self, tr: &Tracer, reps: usize, out: &mut Metrics) -> Result<(), String> {
        let bps = Otc::for_sorting(self.n).map_err(err)?.base_processors() as f64;
        out.push("otc.sort.self_ms", ms(self_ns(tr, "otc.sort")), "ms");
        for (span, metric) in OTC_PRIMITIVES {
            out.push(metric, ns_per_call(tr, span) / bps, "ns");
        }
        out.push("otc.ops_per_problem", per_problem(tr, "otc.ops"), "count");
        out.push("otc.sim_tau_per_problem", per_problem(tr, "otc.sim_tau"), "tau");

        // Sequential over Threads on the same problem.
        let med = ab_medians(
            reps,
            &mut [
                &mut || self.probe_sort(ParallelPolicy::Sequential, Instruments::None),
                &mut || self.probe_sort(ParallelPolicy::Threads, Instruments::None),
            ],
        )?;
        out.push("primitive.threads.speedup", med[0] / med[1], "ratio");
        // CPU seconds per wall second over back-to-back threaded runs
        // (/proc/self/stat counts every thread, in 10 ms ticks).
        let (t0, c0) = (Instant::now(), ProcCounters::read());
        for _ in 0..reps {
            self.probe_sort(ParallelPolicy::Threads, Instruments::None)?;
        }
        let cpu = ProcCounters::read().since(&c0).cpu_s;
        out.push("primitive.threads.cpu_per_wall", cpu / t0.elapsed().as_secs_f64(), "ratio");

        let med = ab_medians(
            reps,
            &mut [
                &mut || self.probe_sort(ParallelPolicy::Sequential, Instruments::None),
                &mut || self.probe_sort(ParallelPolicy::Sequential, Instruments::Recorder),
                &mut || self.probe_sort(ParallelPolicy::Sequential, Instruments::Telemetry),
                &mut || self.probe_sort(ParallelPolicy::Sequential, Instruments::Reach),
            ],
        )?;
        let pct = |x: f64| (x / med[0] - 1.0) * 100.0;
        out.push("obs.recorder.overhead_pct", pct(med[1]), "%");
        out.push("obs.telemetry.overhead_pct", pct(med[2]), "%");
        out.push("obs.reach.overhead_pct", pct(med[3]), "%");
        out.push("obs.recorder.spans_per_problem", per_problem(tr, "obs.recorder.spans"), "count");

        let detected = tr.counter("resilience.detected").iter().sum::<f64>();
        let corrected = tr.counter("resilience.corrected").iter().sum::<f64>();
        out.push("resilience.retries_per_problem", per_problem(tr, "resilience.retries"), "count");
        out.push(
            "resilience.erasures_per_problem",
            per_problem(tr, "resilience.erasures"),
            "count",
        );
        out.push("resilience.useful_ratio", corrected / detected.max(1.0), "ratio");

        let parse_ns = ns_per_call(tr, "obs.json.parse");
        out.push("obs.chrome.render_ms", ms(ns_per_call(tr, "obs.chrome.render")), "ms");
        out.push("obs.telemetry.render_ms", ms(ns_per_call(tr, "obs.telemetry.render")), "ms");
        out.push("obs.json.parse_ms", ms(parse_ns), "ms");
        out.push("obs.json.parse_mb_s", per_problem(tr, "obs.json.bytes") / parse_ns * 1e3, "MB/s");
        out.push(
            "obs.telemetry.schema_check_ms",
            ms(ns_per_call(tr, "obs.telemetry.schema_check")),
            "ms",
        );
        out.push("obs.export.bytes_per_problem", per_problem(tr, "obs.export.bytes"), "bytes");
        Ok(())
    }
}

// ---------------------------------------------------------------------
// engine-checkpoint
// ---------------------------------------------------------------------

/// Checkpoints taken per engine run.
const CHECKPOINTS: u64 = 8;

/// Result of one uninterrupted engine run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineOutcome {
    /// End time, τ.
    pub end: u64,
    /// Delivered events.
    pub delivered: u64,
    /// Fault counters.
    pub faults: FaultStats,
}

/// The `sim` STREAM probe under a dense link-fault plan, run with
/// checkpoints; the middle checkpoint is rendered, parsed, restored into
/// a fresh engine and resumed to the end.
pub struct EngineCheckpoint {
    /// Tree leaves.
    pub leaves: usize,
    model: CostModel,
    /// Fault-plan seed per pool entry.
    pub plan_seeds: Vec<u64>,
    /// Reference per pool entry: the uninterrupted `try_run`.
    pub expected: Vec<EngineOutcome>,
}

impl EngineCheckpoint {
    /// Draws `pool` fault plans from `seed`, runs each uninterrupted for
    /// its reference and warms up with one problem each.
    ///
    /// # Errors
    ///
    /// Returns a reference or warm-up run that fails.
    pub fn setup(leaves: usize, seed: u64, pool: u64) -> Result<EngineCheckpoint, String> {
        let mut wl = EngineCheckpoint {
            leaves,
            model: CostModel::thompson(leaves),
            plan_seeds: (0..pool).map(|k| seed.wrapping_add(k)).collect(),
            expected: Vec::new(),
        };
        for i in 0..wl.plan_seeds.len() {
            let mut e = wl.engine(i, CalendarKind::Ladder);
            let end = e.try_run().map_err(err)?.get();
            wl.expected.push(Self::outcome(&e, end));
        }
        for k in 0..pool {
            wl.problem(k, &mut Tracer::off())?;
        }
        Ok(wl)
    }

    fn engine(&self, i: usize, calendar: CalendarKind) -> Engine {
        let plan =
            orthotrees::FaultPlan::new(self.plan_seeds[i]).with_link_fault_rate(DENSE_FAULT_RATE);
        experiments::probe_engine(
            ProbeKind::Stream,
            self.leaves,
            &self.model,
            calendar,
            Some(plan),
            false,
        )
    }

    fn interval(&self, i: usize) -> u64 {
        (self.expected[i].delivered / CHECKPOINTS).max(1)
    }

    fn outcome(e: &Engine, end: u64) -> EngineOutcome {
        EngineOutcome { end, delivered: e.delivered_events(), faults: *e.fault_stats() }
    }
}

impl Workload for EngineCheckpoint {
    fn pool(&self) -> u64 {
        self.plan_seeds.len() as u64
    }

    fn problem(&mut self, k: u64, tr: &mut Tracer) -> Result<(), String> {
        let i = (k % self.plan_seeds.len() as u64) as usize;
        let interval = self.interval(i);
        let mut e = tr.span("sim.engine.build", || self.engine(i, CalendarKind::Ladder));
        let (end, checkpoints) = if tr.enabled() {
            // `Engine::run_checkpointed` as its public calls.
            let mut cps = Vec::new();
            loop {
                match tr.span("sim.engine.run_for", || e.try_run_for(interval)).map_err(err)? {
                    RunStatus::Quiescent(t) => break (t, cps),
                    RunStatus::Paused(_) => {
                        cps.push(tr.span("sim.snapshot.capture", || e.snapshot()))
                    }
                }
            }
        } else {
            match e.run_checkpointed(interval, u64::MAX).map_err(err)? {
                (RunStatus::Quiescent(t), cps) => (t, cps),
                (RunStatus::Paused(_), _) => {
                    return Err("checkpointed run paused at its limit".into())
                }
            }
        };
        let want = self.expected[i];
        check(Self::outcome(&e, end.get()) == want, || {
            format!("engine-checkpoint problem {k}: checkpointed run differs from the uninterrupted run")
        })?;

        let mid = checkpoints.get(checkpoints.len() / 2).ok_or("run took no checkpoint")?;
        let text = tr.span("sim.snapshot.render", || mid.render());
        let snap = tr.span("sim.snapshot.parse", || Snapshot::parse(&text)).map_err(err)?;
        let mut resumed = tr.span("sim.engine.build", || self.engine(i, CalendarKind::Ladder));
        tr.span("sim.snapshot.restore", || resumed.restore(&snap)).map_err(err)?;
        let end = tr.span("sim.engine.resume", || resumed.try_run()).map_err(err)?;
        check(Self::outcome(&resumed, end.get()) == want, || {
            format!(
                "engine-checkpoint problem {k}: restored run differs from the uninterrupted run"
            )
        })?;

        tr.count("sim.events", want.delivered as f64);
        tr.count("sim.fault.faulty_bits", want.faults.faulty_bits as f64);
        tr.count("sim.snapshot.bytes", text.len() as f64);
        Ok(())
    }

    fn layer_metrics(&mut self, tr: &Tracer, reps: usize, out: &mut Metrics) -> Result<(), String> {
        let want = self.expected[0];
        // Times the run only; construction stays outside.
        let run = |cal: CalendarKind, ckpt: bool| -> Result<f64, String> {
            let mut e = self.engine(0, cal);
            let t0 = Instant::now();
            let end = if ckpt {
                match e.run_checkpointed(self.interval(0), u64::MAX).map_err(err)?.0 {
                    RunStatus::Quiescent(t) => t,
                    RunStatus::Paused(_) => return Err("checkpointed probe paused".into()),
                }
            } else {
                e.try_run().map_err(err)?
            };
            let ns = t0.elapsed().as_nanos() as f64;
            check(Self::outcome(&e, end.get()) == want, || "engine probe diverged".to_string())?;
            Ok(ns)
        };
        let med = ab_medians(
            reps,
            &mut [
                &mut || run(CalendarKind::Ladder, false),
                &mut || run(CalendarKind::Heap, false),
                &mut || run(CalendarKind::Ladder, true),
            ],
        )?;
        let (ladder, heap, ckpt) = (med[0], med[1], med[2]);
        out.push("sim.engine.run_ms", ms(ladder), "ms");
        out.push("sim.engine.ns_per_event", ladder / want.delivered.max(1) as f64, "ns");
        out.push("sim.engine.events_per_problem", per_problem(tr, "sim.events"), "count");
        out.push(
            "sim.fault.faulty_bits_per_problem",
            per_problem(tr, "sim.fault.faulty_bits"),
            "count",
        );
        out.push("sim.calendar.heap_over_ladder", heap / ladder, "ratio");
        out.push("sim.snapshot.checkpoint_overhead_pct", (ckpt / ladder - 1.0) * 100.0, "%");
        out.push("sim.snapshot.render_ms", ms(ns_per_call(tr, "sim.snapshot.render")), "ms");
        out.push("sim.snapshot.parse_ms", ms(ns_per_call(tr, "sim.snapshot.parse")), "ms");
        out.push("sim.snapshot.restore_ms", ms(ns_per_call(tr, "sim.snapshot.restore")), "ms");
        out.push("sim.snapshot.bytes", per_problem(tr, "sim.snapshot.bytes"), "bytes");
        Ok(())
    }
}

// ---------------------------------------------------------------------
// paper-repro
// ---------------------------------------------------------------------

/// The reproduction report and benchmark summary, in process, no files.
pub struct PaperRepro {
    /// Report grids and seed.
    pub cfg: ReportConfig,
    /// Reference report text (the warm-up run's).
    pub report: String,
    /// Reference summary document, rendered (the warm-up run's).
    pub summary: String,
}

impl PaperRepro {
    /// Runs the report once as warm-up and reference.
    ///
    /// # Errors
    ///
    /// Returns a reference that fails its schema or content checks.
    pub fn setup(mut cfg: ReportConfig, seed: u64) -> Result<PaperRepro, String> {
        cfg.seed = seed;
        let report = report::full_report(&cfg);
        let doc = summary::bench_summary(Preset::Quick.name(), &cfg);
        let errs = summary::schema_violations(&doc);
        check(errs.is_empty(), || format!("summary schema violations: {errs:?}"))?;
        for id in ["Table I", "Table II", "Table III", "Table III′", "Table IV", "Crossovers"] {
            check(report.contains(id), || format!("report lacks {id}"))?;
        }
        Ok(PaperRepro { cfg, report, summary: doc.render() })
    }
}

/// A `report` table builder.
type TableFn = fn(&ReportConfig) -> ReproTable;

/// `report::full_report` as its public calls, each in a span.
fn full_report_replay(cfg: &ReportConfig, tr: &mut Tracer) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "orthotrees reproduction report (seed {}, sort N {:?}, matmul N {:?}, graph N {:?})\n",
        cfg.seed, cfg.sort_ns, cfg.matmul_ns, cfg.graph_ns
    );
    let tables: [(&'static str, TableFn); 5] = [
        ("analysis.table1", report::table1),
        ("analysis.table2", report::table2),
        ("analysis.table3", report::table3),
        ("analysis.table3_mst", report::table3_mst),
        ("analysis.table4", report::table4),
    ];
    for (span, build) in tables {
        let table = tr.span(span, || build(cfg));
        tr.span("analysis.render", || {
            out.push_str(&table.render());
            out.push_str(&report::ranking_check(&table));
        });
        out.push('\n');
    }
    out.push_str("Crossovers (from the paper's Θ forms):\n");
    out.push_str(&tr.span("analysis.crossover", report::crossover_report));
    out.push('\n');
    let obs_n = cfg.sort_ns.iter().copied().filter(|&n| n <= 128).max().unwrap_or(16);
    out.push_str(
        &tr.span("analysis.obsreport", || obsreport::observability_report(obs_n, cfg.seed)),
    );
    out.push('\n');
    out.push_str(&tr.span("analysis.critpath", || critpath::critpath_report(obs_n, cfg.seed)));
    out.push('\n');
    out.push_str(&tr.span("analysis.profreport", || profreport::profile_report(obs_n, cfg.seed)));
    out.push('\n');
    out.push_str(&tr.span("analysis.recovery", || recovery::recovery_report_section(cfg.seed)));
    out.push('\n');
    out.push_str(&tr.span("analysis.telreport", || telreport::telemetry_report_section(cfg.seed)));
    out
}

const ANALYSIS_SPANS: [(&str, &str); 7] = [
    ("analysis.table1", "analysis.table1_ms"),
    ("analysis.table2", "analysis.table2_ms"),
    ("analysis.table3", "analysis.table3_ms"),
    ("analysis.table3_mst", "analysis.table3_mst_ms"),
    ("analysis.table4", "analysis.table4_ms"),
    ("analysis.crossover", "analysis.crossover_ms"),
    ("bench.summary", "bench.summary_ms"),
];

impl Workload for PaperRepro {
    fn pool(&self) -> u64 {
        1
    }

    fn problem(&mut self, k: u64, tr: &mut Tracer) -> Result<(), String> {
        let text = if tr.enabled() {
            let id = tr.open("analysis.full_report");
            let text = full_report_replay(&self.cfg, tr);
            tr.close(id);
            text
        } else {
            report::full_report(&self.cfg)
        };
        let doc =
            tr.span("bench.summary", || summary::bench_summary(Preset::Quick.name(), &self.cfg));
        let errs = summary::schema_violations(&doc);
        check(errs.is_empty(), || {
            format!("paper-repro problem {k}: summary schema violations {errs:?}")
        })?;
        check(text == self.report, || {
            format!("paper-repro problem {k}: report differs from reference")
        })?;
        check(doc.render() == self.summary, || {
            format!("paper-repro problem {k}: summary differs from reference")
        })
    }

    fn layer_metrics(
        &mut self,
        tr: &Tracer,
        _reps: usize,
        out: &mut Metrics,
    ) -> Result<(), String> {
        for (span, metric) in ANALYSIS_SPANS {
            out.push(metric, ms(ns_per_call(tr, span)), "ms");
        }
        Ok(())
    }
}
