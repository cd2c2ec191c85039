//! Time-resolved profile documents — the `simprof` binary's engine.
//!
//! One JSON document per profiling run, schema `orthotrees-profile/v1`
//! (documented in EXPERIMENTS.md). Each row is one workload of the fixed
//! `simprof` matrix with its windowed profile attached:
//!
//! * **word level** — `SORT-OTN` / `SORT-OTC` at the preset's sizes,
//!   clean and under a dense word-fault plan ([`DENSE_FAULT_RATE`] with
//!   [`DENSE_FAULT_RETRIES`] retries), profiles rebuilt from the
//!   recorded causal segments ([`Profiler::from_recorder`]);
//! * **engine level** — the bit-level `ROOTTOLEAF` broadcast at the same
//!   sizes with the engine profiler installed, plus one outage-dense
//!   supervised-recovery run (`SUM-RECOVERY`), both carrying
//!   calendar-depth percentiles and the peak-footprint report.
//!
//! [`profile_violations`] re-verifies the two profiler invariants on the
//! *document* (the `netlint` rules PROF-001/002 police the live
//! profiler): window indices must be gapless from 0, and the row's
//! `totals` must equal the per-window sums — for word rows the
//! wire + queue + compute total must additionally tile the completion
//! time exactly, faults included.
//!
//! [`diff`] compares two documents per metric in the `benchdiff` style:
//! completion and total events gate at 5%, the peak calendar depth at
//! 10% (it moves in whole entries), and a shifted top-1 hot spot is
//! always a regression — hot-spot migration is exactly what the
//! event-core overhaul must not cause silently.

use crate::compare::Status;
use orthotrees::obs::json::Json;
use orthotrees::obs::profile::{Footprint, HotSpot, ProfileTotals, Profiler, Window};
use orthotrees::obs::Recorder;
use orthotrees::otc::{self, Otc};
use orthotrees::otn::{self, Otn};
use orthotrees::FaultPlan;
use orthotrees_analysis::workloads;
use orthotrees_sim::experiments::{self, ProbeKind};
use orthotrees_sim::{CalendarKind, Instruments, RecoveryPolicy};
use orthotrees_vlsi::CostModel;
use std::fmt::Write as _;
use std::time::Instant;

/// The profile document's schema identifier.
pub const SCHEMA: &str = "orthotrees-profile/v1";

/// Word-fault probability of the matrix's dense fault plan — the same
/// "heavy degradation" operating point the fault sweeps use as their
/// worst case.
pub const DENSE_FAULT_RATE: f64 = 0.3;

/// Retry budget of the dense fault plan.
pub const DENSE_FAULT_RETRIES: u32 = 2;

/// Leaf count of the supervised-recovery row (fixed small size; the
/// outage workload's cost is size-stable and the row exists to pin the
/// profile shape under rollback replay, not to sweep).
pub const RECOVERY_LEAVES: usize = 16;

/// The sorting sizes of the workload matrix for a preset: the quick
/// preset runs the smallest column only (the CI smoke row), the full
/// preset the whole `n ∈ {64, 256, 512}` grid.
pub fn matrix_ns(preset_name: &str) -> Vec<usize> {
    if preset_name == "full" {
        vec![64, 256, 512]
    } else {
        vec![64]
    }
}

/// The dense word-fault plan of the matrix's faulty rows.
pub fn dense_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_word_fault_rate(DENSE_FAULT_RATE)
        .with_max_retries(DENSE_FAULT_RETRIES)
}

fn window_json(w: &Window) -> Json {
    Json::obj([
        ("index", Json::u64(w.index)),
        ("events", Json::u64(w.events)),
        ("cal_min", Json::u64(w.cal_min)),
        ("cal_max", Json::u64(w.cal_max)),
        ("cal_mean", Json::f64(w.cal_mean())),
        ("link_bits", Json::u64(w.link_bits)),
        ("queue_wait", Json::u64(w.queue_wait)),
        ("wire", Json::u64(w.wire)),
        ("compute", Json::u64(w.compute)),
        ("faults", Json::u64(w.faults)),
        ("fault_overhead", Json::u64(w.fault_overhead)),
    ])
}

fn totals_json(t: &ProfileTotals) -> Json {
    Json::obj([
        ("events", Json::u64(t.events)),
        ("link_bits", Json::u64(t.link_bits)),
        ("queue_wait", Json::u64(t.queue_wait)),
        ("wire", Json::u64(t.wire)),
        ("compute", Json::u64(t.compute)),
        ("faults", Json::u64(t.faults)),
        ("fault_overhead", Json::u64(t.fault_overhead)),
    ])
}

fn hot_json(hot: &[HotSpot]) -> Json {
    Json::arr(
        hot.iter().map(|h| {
            Json::obj([("name", Json::str(h.name.clone())), ("value", Json::u64(h.value))])
        }),
    )
}

fn footprint_json(f: Option<&Footprint>) -> Json {
    match f {
        None => Json::Null,
        Some(f) => Json::obj([
            ("at", Json::u64(f.at.get())),
            ("calendar_entries", Json::u64(f.calendar_entries)),
            ("busy_links", Json::u64(f.busy_links)),
            ("delivered_events", Json::u64(f.delivered_events)),
        ]),
    }
}

/// Leaf count of the event-core microbench probe: the §IV converging
/// streams at this size push ~30 k events through the calendar per run,
/// the densest traffic the repertoire produces.
pub const EVENTCORE_LEAVES: usize = 512;

/// Timing repetitions per calendar in the event-core microbench
/// (best-of; the quick preset keeps the smoke run cheap).
pub fn eventcore_reps(preset_name: &str) -> u32 {
    if preset_name == "full" {
        5
    } else {
        2
    }
}

/// The event-core microbench section of the profile document: the
/// converging-streams probe at [`EVENTCORE_LEAVES`] under a dense
/// link-fault plan, run on the binary-heap oracle and the ladder
/// calendar. Delivered-event count and end time are deterministic and
/// diffed against the baseline exactly; the ns/event figures are
/// machine-dependent and carried for humans (and for the absolute
/// `--speedup-floor` gate), not diffed numerically.
///
/// Timing covers [`Engine::try_run`](orthotrees_sim::Engine::try_run)
/// only — network construction is excluded, and the delivered-bit log is
/// left off so the measurement sees no allocation churn from
/// instrumentation.
pub fn eventcore_section(preset_name: &str, seed: u64) -> Json {
    let m = CostModel::thompson(EVENTCORE_LEAVES);
    let reps = eventcore_reps(preset_name);
    let mut per_cal = Vec::new();
    for cal in [CalendarKind::Heap, CalendarKind::Ladder] {
        let mut best_ns = u128::MAX;
        let mut events = 0u64;
        let mut end = 0u64;
        for _ in 0..reps {
            let plan = FaultPlan::new(seed).with_link_fault_rate(DENSE_FAULT_RATE);
            let mut e = experiments::probe_engine(
                ProbeKind::Stream,
                EVENTCORE_LEAVES,
                &m,
                cal,
                Some(plan),
                false,
            );
            let t0 = Instant::now();
            e.try_run().expect("stream probe runs within budget");
            best_ns = best_ns.min(t0.elapsed().as_nanos());
            events = e.delivered_events();
            end = e.now().get();
        }
        per_cal.push((events, end, best_ns));
    }
    let (h_events, h_end, h_ns) = per_cal[0];
    let (l_events, l_end, l_ns) = per_cal[1];
    assert_eq!(
        (h_events, h_end),
        (l_events, l_end),
        "heap and ladder calendars diverged inside the microbench"
    );
    let ns_per = |ns: u128| ns as f64 / h_events.max(1) as f64;
    let heap = ns_per(h_ns);
    let ladder = ns_per(l_ns);
    Json::obj([
        ("workload", Json::str("STREAM")),
        ("n", Json::u64(EVENTCORE_LEAVES as u64)),
        ("faulty", Json::bool(true)),
        ("reps", Json::u64(u64::from(reps))),
        ("events", Json::u64(h_events)),
        ("end_bits", Json::u64(h_end)),
        ("heap_ns_per_event", Json::f64(heap)),
        ("ladder_ns_per_event", Json::f64(ladder)),
        ("speedup", Json::f64(heap / ladder.max(f64::MIN_POSITIVE))),
    ])
}

/// One document row: workload identity, the windowed profile, the
/// summed totals, calendar percentiles (engine rows; 0 at word level,
/// which has no calendar) and the peak footprint (engine rows only).
pub fn profile_row(
    workload: &str,
    n: usize,
    level: &str,
    faulty: bool,
    completion_bits: u64,
    cal: Option<(u64, u64)>,
    prof: &Profiler,
) -> Json {
    let (p50, p99) = cal.unwrap_or((0, 0));
    Json::obj([
        ("workload", Json::str(workload)),
        ("n", Json::u64(n as u64)),
        ("level", Json::str(level)),
        ("faulty", Json::bool(faulty)),
        ("completion_bits", Json::u64(completion_bits)),
        ("window_bits", Json::u64(prof.width())),
        ("windows", Json::arr(prof.windows().iter().map(window_json))),
        ("totals", totals_json(&prof.totals())),
        ("peak_calendar_depth", Json::u64(prof.peak_calendar_depth())),
        ("cal_p50", Json::u64(p50)),
        ("cal_p99", Json::u64(p99)),
        ("hot", hot_json(&prof.hot_spots(5))),
        ("footprint", footprint_json(prof.footprint())),
    ])
}

/// Runs one word-level sort with a recorder (and optionally the dense
/// fault plan) installed and re-buckets it into a windowed profile;
/// returns the completion time and the profiler.
fn word_sort_profiled(network: &str, n: usize, seed: u64, faulty: bool) -> (u64, Profiler) {
    let xs = workloads::distinct_words(n, seed);
    let (time, rec) = match network {
        "OTN" => {
            let mut net = Otn::for_sorting(n).expect("power-of-two sort size");
            net.install_recorder(Recorder::new());
            if faulty {
                net.install_fault_plan(dense_plan(seed));
            }
            let out = otn::sort::sort(&mut net, &xs).expect("matched input length");
            (out.time.get(), net.take_recorder().expect("recorder was installed"))
        }
        _ => {
            let mut net = Otc::for_sorting(n).expect("power-of-two sort size");
            net.install_recorder(Recorder::new());
            if faulty {
                net.install_fault_plan(dense_plan(seed));
            }
            let out = otc::sort::sort(&mut net, &xs).expect("matched input length");
            (out.time.get(), net.take_recorder().expect("recorder was installed"))
        }
    };
    (time, Profiler::from_recorder(&rec, Profiler::auto_width(time)))
}

/// The engine rows' instruments: a recorder plus a profiler with an
/// initial window width of 16τ, coalescing as the run grows.
fn profiled() -> Instruments {
    Instruments {
        recorder: Some(Recorder::new()),
        profiler: Some(Profiler::new(16)),
        ..Default::default()
    }
}

/// The recorder and the profiler of a [`profiled`] bundle after its run.
fn profiled_pair(inst: Instruments) -> (Recorder, Profiler) {
    (inst.recorder.expect("recorder was installed"), inst.profiler.expect("profiler was installed"))
}

/// Builds the whole profile document for one preset: the word-level
/// sorting matrix (clean + dense faults), the engine-level broadcast
/// companions, and the supervised-recovery row.
pub fn profile_document(preset_name: &str, seed: u64) -> Json {
    let mut rows = Vec::new();
    for n in matrix_ns(preset_name) {
        for faulty in [false, true] {
            for network in ["OTN", "OTC"] {
                let (t, prof) = word_sort_profiled(network, n, seed, faulty);
                rows.push(profile_row(
                    &format!("SORT-{network}"),
                    n,
                    "word",
                    faulty,
                    t,
                    None,
                    &prof,
                ));
            }
        }
        let m = CostModel::thompson(n);
        if let Ok((t, inst)) = experiments::broadcast_completion_time(n, &m, profiled()) {
            let (rec, prof) = profiled_pair(inst);
            let cal = rec.calendar_depth();
            rows.push(profile_row(
                "ROOTTOLEAF",
                n,
                "engine",
                false,
                t.get(),
                Some((cal.percentile(50.0), cal.percentile(99.0))),
                &prof,
            ));
        }
    }

    // The outage-dense supervised-recovery row: the first attempt always
    // fails, so the profile includes rollback-replayed events — the
    // worst-case calendar shape the event-core overhaul must preserve.
    let values: Vec<u64> = workloads::distinct_words(RECOVERY_LEAVES, seed)
        .into_iter()
        .map(|v| v.unsigned_abs())
        .collect();
    let m = CostModel::thompson(RECOVERY_LEAVES);
    let policy =
        RecoveryPolicy { max_attempts: 12, checkpoint_events: 32, min_checkpoint_events: 4 };
    if let Ok((report, inst, _)) =
        experiments::supervised_sum_recovery(&values, &m, &policy, profiled())
    {
        let (rec, prof) = profiled_pair(inst);
        let cal = rec.calendar_depth();
        rows.push(profile_row(
            "SUM-RECOVERY",
            RECOVERY_LEAVES,
            "engine",
            true,
            report.completion.get(),
            Some((cal.percentile(50.0), cal.percentile(99.0))),
            &prof,
        ));
    }

    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("preset", Json::str(preset_name)),
        ("seed", Json::u64(seed)),
        ("rows", Json::arr(rows)),
        ("eventcore", eventcore_section(preset_name, seed)),
    ])
}

fn row_u64(row: &Json, key: &str) -> Option<u64> {
    row.get(key).and_then(Json::as_u64)
}

/// Checks a parsed profile document against the `orthotrees-profile/v1`
/// schema; returns the violations found (empty = valid). Beyond field
/// shape, this re-verifies the two profiler invariants document-side:
/// gapless consecutive window indices (PROF-002) and totals that equal
/// the per-window sums (PROF-001) — with the word-level rows' τ totals
/// additionally tiling the completion time exactly.
pub fn profile_violations(doc: &Json) -> Vec<String> {
    fn check(errs: &mut Vec<String>, cond: bool, msg: String) {
        if !cond {
            errs.push(msg);
        }
    }
    let mut errs = Vec::new();
    check(
        &mut errs,
        doc.get("schema").and_then(Json::as_str) == Some(SCHEMA),
        "schema tag missing or wrong".to_string(),
    );
    check(
        &mut errs,
        doc.get("preset").and_then(Json::as_str).is_some(),
        "preset missing".to_string(),
    );
    check(&mut errs, doc.get("seed").and_then(Json::as_u64).is_some(), "seed missing".to_string());

    let Some(rows) = doc.get("rows").and_then(Json::as_arr) else {
        errs.push("rows missing".to_string());
        return errs;
    };
    check(&mut errs, !rows.is_empty(), "rows empty".to_string());

    for row in rows {
        let workload = row.get("workload").and_then(Json::as_str).unwrap_or("?");
        let n = row_u64(row, "n").unwrap_or(0);
        let tag = format!("{workload} n={n}");
        let level = row.get("level").and_then(Json::as_str);
        check(
            &mut errs,
            matches!(level, Some("word" | "engine")),
            format!("{tag}: level must be word or engine"),
        );
        check(
            &mut errs,
            row.get("faulty").and_then(Json::as_bool).is_some(),
            format!("{tag}: faulty missing"),
        );
        let completion = row_u64(row, "completion_bits");
        check(&mut errs, completion.is_some(), format!("{tag}: completion_bits missing"));
        check(
            &mut errs,
            row_u64(row, "window_bits").is_some_and(|w| w >= 1),
            format!("{tag}: bad window_bits"),
        );

        let Some(windows) = row.get("windows").and_then(Json::as_arr) else {
            errs.push(format!("{tag}: windows missing"));
            continue;
        };
        // PROF-002, document-side: indices consecutive from 0.
        for (i, w) in windows.iter().enumerate() {
            if row_u64(w, "index") != Some(i as u64) {
                errs.push(format!("{tag}: window sequence not gapless at position {i} (PROF-002)"));
                break;
            }
        }
        // PROF-001, document-side: totals == Σ windows, per metric.
        let sum = |key: &str| windows.iter().filter_map(|w| row_u64(w, key)).sum::<u64>();
        let Some(totals) = row.get("totals") else {
            errs.push(format!("{tag}: totals missing"));
            continue;
        };
        for key in
            ["events", "link_bits", "queue_wait", "wire", "compute", "faults", "fault_overhead"]
        {
            let declared = row_u64(totals, key);
            let summed = sum(key);
            if declared != Some(summed) {
                errs.push(format!(
                    "{tag}: totals.{key} {declared:?} != Σ windows {summed} (PROF-001)"
                ));
            }
        }
        if level == Some("word") {
            let tau = sum("wire") + sum("queue_wait") + sum("compute");
            if Some(tau) != completion {
                errs.push(format!(
                    "{tag}: word windows tile {tau} τ but completion is {completion:?} (PROF-001)"
                ));
            }
        }
        if level == Some("engine") && sum("events") > 0 {
            check(
                &mut errs,
                row.get("footprint").is_some_and(|f| !matches!(f, Json::Null)),
                format!("{tag}: engine row with events but no footprint"),
            );
            let p50 = row_u64(row, "cal_p50").unwrap_or(0);
            let p99 = row_u64(row, "cal_p99").unwrap_or(0);
            let peak = row_u64(row, "peak_calendar_depth").unwrap_or(0);
            check(
                &mut errs,
                p50 <= p99 && p99 <= peak,
                format!("{tag}: calendar percentiles disordered ({p50}, {p99}, peak {peak})"),
            );
        }
    }

    // The event-core microbench section.
    match doc.get("eventcore") {
        None => errs.push("eventcore section missing".to_string()),
        Some(ec) => {
            check(
                &mut errs,
                row_u64(ec, "events").is_some_and(|e| e > 0),
                "eventcore: events missing or zero".to_string(),
            );
            check(
                &mut errs,
                row_u64(ec, "end_bits").is_some(),
                "eventcore: end_bits missing".to_string(),
            );
            for key in ["heap_ns_per_event", "ladder_ns_per_event", "speedup"] {
                check(
                    &mut errs,
                    ec.get(key).and_then(Json::as_f64).is_some_and(|v| v > 0.0),
                    format!("eventcore: {key} missing or non-positive"),
                );
            }
        }
    }
    errs
}

/// Relative regression thresholds for the profile diff, per metric
/// family.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProfileThresholds {
    /// Allowed relative change in a row's `completion_bits` (default 5%).
    pub time_rel: f64,
    /// Allowed relative change in `totals.events` (default 5%).
    pub events_rel: f64,
    /// Allowed relative change in `peak_calendar_depth` (default 10% —
    /// the peak moves in whole calendar entries, so it is noisier).
    pub peak_rel: f64,
    /// Minimum required heap-over-ladder speedup in the event-core
    /// microbench (an absolute gate on the *current* run — the ns/event
    /// figures are machine-dependent, so they are never compared against
    /// the baseline). The default `0.0` disables the gate; CI's release
    /// run passes an explicit `--speedup-floor` (debug-build timings are
    /// too noisy to gate).
    pub speedup_floor: f64,
}

impl Default for ProfileThresholds {
    fn default() -> Self {
        ProfileThresholds { time_rel: 0.05, events_rel: 0.05, peak_rel: 0.10, speedup_floor: 0.0 }
    }
}

/// One compared profile metric: which row, both values, the verdict.
/// Hot-spot entries compare names rather than numbers; `note` carries
/// the `old → new` rendering for them.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileDiffEntry {
    /// Workload name (`SORT-OTN`, `ROOTTOLEAF`, …).
    pub workload: String,
    /// Problem size.
    pub n: u64,
    /// Whether the row ran under a fault plan.
    pub faulty: bool,
    /// Metric name (`completion_bits`, `events`, `peak_calendar_depth`,
    /// `hot_top`).
    pub metric: &'static str,
    /// Baseline value (0 for the name-compared `hot_top`).
    pub baseline: f64,
    /// Current value (0 when [`Status::Missing`]).
    pub current: f64,
    /// Relative change `(current − baseline) / baseline`.
    pub rel: f64,
    /// The verdict.
    pub status: Status,
    /// Extra rendering (the hot-spot names); empty for numeric metrics.
    pub note: String,
}

fn classify(baseline: f64, current: f64, threshold: f64) -> (f64, Status) {
    let rel = if baseline == 0.0 {
        if current == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (current - baseline) / baseline
    };
    let status = if rel > threshold {
        Status::Regressed
    } else if rel < -threshold {
        Status::Improved
    } else {
        Status::Ok
    };
    (rel, status)
}

/// The full diff of two profile documents.
#[derive(Clone, Debug, Default)]
pub struct ProfileDiffReport {
    /// Every compared metric, in document order.
    pub entries: Vec<ProfileDiffEntry>,
}

impl ProfileDiffReport {
    /// True when nothing regressed or went missing.
    pub fn is_clean(&self) -> bool {
        !self.entries.iter().any(|e| matches!(e.status, Status::Regressed | Status::Missing))
    }

    /// Entries with a given status.
    pub fn with_status(&self, status: Status) -> impl Iterator<Item = &ProfileDiffEntry> {
        self.entries.iter().filter(move |e| e.status == status)
    }

    /// Renders the report as text: one line per non-`ok` entry plus a
    /// summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for e in self.entries.iter().filter(|e| e.status != Status::Ok) {
            let fault = if e.faulty { " faulty" } else { "" };
            if e.metric == "hot_top" {
                let _ = writeln!(
                    out,
                    "{:<9} {}{} n={} hot spot shifted: {}",
                    e.status.name(),
                    e.workload,
                    fault,
                    e.n,
                    e.note
                );
            } else {
                let _ = writeln!(
                    out,
                    "{:<9} {}{} n={} {}: {} → {} ({:+.1}%)",
                    e.status.name(),
                    e.workload,
                    fault,
                    e.n,
                    e.metric,
                    e.baseline,
                    e.current,
                    100.0 * e.rel
                );
            }
        }
        let count = |s| self.entries.iter().filter(|e| e.status == s).count();
        let _ = writeln!(
            out,
            "{} compared: {} ok, {} improved, {} regressed, {} missing",
            self.entries.len(),
            count(Status::Ok),
            count(Status::Improved),
            count(Status::Regressed),
            count(Status::Missing)
        );
        out
    }

    /// The report as an `orthotrees-profdiff/v1` JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str("orthotrees-profdiff/v1")),
            (
                "entries",
                Json::arr(self.entries.iter().map(|e| {
                    Json::obj([
                        ("workload", Json::str(e.workload.clone())),
                        ("n", Json::u64(e.n)),
                        ("faulty", Json::bool(e.faulty)),
                        ("metric", Json::str(e.metric)),
                        ("baseline", Json::f64(e.baseline)),
                        ("current", Json::f64(e.current)),
                        ("rel", Json::f64(e.rel)),
                        ("status", Json::str(e.status.name())),
                        ("note", Json::str(e.note.clone())),
                    ])
                })),
            ),
            ("regressed", Json::u64(self.with_status(Status::Regressed).count() as u64)),
            ("missing", Json::u64(self.with_status(Status::Missing).count() as u64)),
            ("clean", Json::bool(self.is_clean())),
        ])
    }
}

fn row_identity(row: &Json) -> (String, u64, String, bool) {
    (
        row.get("workload").and_then(Json::as_str).unwrap_or("?").to_string(),
        row_u64(row, "n").unwrap_or(0),
        row.get("level").and_then(Json::as_str).unwrap_or("?").to_string(),
        row.get("faulty").and_then(Json::as_bool).unwrap_or(false),
    )
}

fn top_hot_name(row: &Json) -> Option<String> {
    row.get("hot")
        .and_then(Json::as_arr)?
        .first()?
        .get("name")
        .and_then(Json::as_str)
        .map(str::to_string)
}

/// Diffs `current` against `baseline` (both parsed `orthotrees-profile/v1`
/// documents) under `thresholds`. Rows are matched by
/// `(workload, n, level, faulty)`; every baseline row must be present in
/// the current run. A shifted top-1 hot spot is always a regression,
/// regardless of the numeric thresholds.
pub fn diff(baseline: &Json, current: &Json, thresholds: &ProfileThresholds) -> ProfileDiffReport {
    let mut report = ProfileDiffReport::default();
    let empty = Vec::new();
    let base_rows = baseline.get("rows").and_then(Json::as_arr).unwrap_or(&empty);
    let cur_rows = current.get("rows").and_then(Json::as_arr).unwrap_or(&empty);
    for row in base_rows {
        let id = row_identity(row);
        let cur = cur_rows.iter().find(|c| row_identity(c) == id);
        let (workload, n, _, faulty) = id;
        let metrics: [(&'static str, Option<u64>, f64); 3] = [
            ("completion_bits", row_u64(row, "completion_bits"), thresholds.time_rel),
            ("events", row.get("totals").and_then(|t| row_u64(t, "events")), thresholds.events_rel),
            ("peak_calendar_depth", row_u64(row, "peak_calendar_depth"), thresholds.peak_rel),
        ];
        for (metric, base_v, thr) in metrics {
            let Some(base_v) = base_v else { continue };
            let cur_v = cur.and_then(|c| match metric {
                "events" => c.get("totals").and_then(|t| row_u64(t, "events")),
                m => row_u64(c, m),
            });
            let mut e = ProfileDiffEntry {
                workload: workload.clone(),
                n,
                faulty,
                metric,
                baseline: base_v as f64,
                current: 0.0,
                rel: 0.0,
                status: Status::Missing,
                note: String::new(),
            };
            if let Some(cur_v) = cur_v {
                e.current = cur_v as f64;
                (e.rel, e.status) = classify(e.baseline, e.current, thr);
            }
            report.entries.push(e);
        }
        // Hot-spot attribution: the single hottest subject must not move.
        if let Some(base_top) = top_hot_name(row) {
            let cur_top = cur.and_then(top_hot_name);
            let (status, note) = match &cur_top {
                None => (Status::Missing, format!("{base_top} → (gone)")),
                Some(c) if *c == base_top => (Status::Ok, String::new()),
                Some(c) => (Status::Regressed, format!("{base_top} → {c}")),
            };
            report.entries.push(ProfileDiffEntry {
                workload: workload.clone(),
                n,
                faulty,
                metric: "hot_top",
                baseline: 0.0,
                current: 0.0,
                rel: 0.0,
                status,
                note,
            });
        }
    }

    // Event-core microbench: the deterministic metrics (delivered events,
    // end time) must match the baseline *exactly* — any drift means the
    // calendars changed behaviour, not just speed. The wall-clock speedup
    // gates against the absolute floor instead of the baseline. A
    // baseline without the section (pre-overhaul) is skipped silently.
    if let Some(base_ec) = baseline.get("eventcore") {
        let cur_ec = current.get("eventcore");
        let ec_n = row_u64(base_ec, "n").unwrap_or(0);
        let mut push = |metric, baseline: f64, current: f64, status, note: String| {
            report.entries.push(ProfileDiffEntry {
                workload: "EVENTCORE".to_string(),
                n: ec_n,
                faulty: true,
                metric,
                baseline,
                current,
                rel: if baseline == 0.0 { 0.0 } else { (current - baseline) / baseline },
                status,
                note,
            });
        };
        for metric in ["events", "end_bits"] {
            let Some(base_v) = row_u64(base_ec, metric) else { continue };
            match cur_ec.and_then(|c| row_u64(c, metric)) {
                None => push(
                    if metric == "events" { "eventcore_events" } else { "eventcore_end_bits" },
                    base_v as f64,
                    0.0,
                    Status::Missing,
                    String::new(),
                ),
                Some(cur_v) => push(
                    if metric == "events" { "eventcore_events" } else { "eventcore_end_bits" },
                    base_v as f64,
                    cur_v as f64,
                    if cur_v == base_v { Status::Ok } else { Status::Regressed },
                    if cur_v == base_v {
                        String::new()
                    } else {
                        "deterministic metric drifted".to_string()
                    },
                ),
            }
        }
        match cur_ec.and_then(|c| c.get("speedup").and_then(Json::as_f64)) {
            None => push(
                "eventcore_speedup",
                thresholds.speedup_floor,
                0.0,
                Status::Missing,
                String::new(),
            ),
            Some(speedup) => {
                let status = if speedup >= thresholds.speedup_floor {
                    Status::Ok
                } else {
                    Status::Regressed
                };
                push("eventcore_speedup", thresholds.speedup_floor, speedup, status, String::new());
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_document_round_trips_and_passes_the_schema_check() {
        let doc = profile_document("quick", 42);
        let parsed = Json::parse(&doc.render()).expect("emitted profile must be valid JSON");
        let errs = profile_violations(&parsed);
        assert!(errs.is_empty(), "schema violations: {errs:?}");
    }

    #[test]
    fn quick_matrix_covers_every_workload_cell() {
        let doc = profile_document("quick", 42);
        let ids: Vec<_> =
            doc.get("rows").and_then(Json::as_arr).unwrap().iter().map(row_identity).collect();
        for expect in [
            ("SORT-OTN", 64, "word", false),
            ("SORT-OTN", 64, "word", true),
            ("SORT-OTC", 64, "word", false),
            ("SORT-OTC", 64, "word", true),
            ("ROOTTOLEAF", 64, "engine", false),
            ("SUM-RECOVERY", RECOVERY_LEAVES as u64, "engine", true),
        ] {
            let want = (expect.0.to_string(), expect.1, expect.2.to_string(), expect.3);
            assert!(ids.contains(&want), "missing row {expect:?} in {ids:?}");
        }
        assert!(matrix_ns("full").len() > matrix_ns("quick").len());
    }

    #[test]
    fn faulty_rows_actually_carry_fault_overhead() {
        let doc = profile_document("quick", 42);
        let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
        let faulty_otn = rows
            .iter()
            .find(|r| row_identity(r) == ("SORT-OTN".to_string(), 64, "word".to_string(), true))
            .unwrap();
        let overhead = faulty_otn.get("totals").and_then(|t| row_u64(t, "fault_overhead")).unwrap();
        assert!(overhead > 0, "dense plan must surface retry overhead");
    }

    #[test]
    fn validator_flags_a_window_gap_and_a_totals_mismatch() {
        let doc = Json::parse(
            r#"{"schema":"orthotrees-profile/v1","preset":"quick","seed":1,
                "rows":[{"workload":"SORT-OTN","n":16,"level":"word","faulty":false,
                "completion_bits":10,"window_bits":5,
                "windows":[
                  {"index":0,"events":0,"cal_min":0,"cal_max":0,"cal_mean":0.0,
                   "link_bits":0,"queue_wait":0,"wire":5,"compute":0,"faults":0,
                   "fault_overhead":0},
                  {"index":2,"events":0,"cal_min":0,"cal_max":0,"cal_mean":0.0,
                   "link_bits":0,"queue_wait":0,"wire":5,"compute":0,"faults":0,
                   "fault_overhead":0}],
                "totals":{"events":0,"link_bits":0,"queue_wait":0,"wire":7,"compute":0,
                "faults":0,"fault_overhead":0},
                "peak_calendar_depth":0,"cal_p50":0,"cal_p99":0,"hot":[],"footprint":null}]}"#,
        )
        .unwrap();
        let errs = profile_violations(&doc);
        assert!(errs.iter().any(|e| e.contains("PROF-002")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("totals.wire")), "{errs:?}");
    }

    #[test]
    fn identical_documents_diff_clean_with_zero_change() {
        let doc = profile_document("quick", 42);
        let report = diff(&doc, &doc, &ProfileThresholds::default());
        assert!(report.is_clean(), "{}", report.render_text());
        assert!(report.entries.iter().all(|e| e.status == Status::Ok && e.rel == 0.0));
        assert!(!report.entries.is_empty());
    }

    fn rows_mut(doc: &mut Json) -> &mut Vec<Json> {
        let Json::Obj(pairs) = doc else { panic!("document is an object") };
        let (_, v) = pairs.iter_mut().find(|(k, _)| k == "rows").expect("rows present");
        let Json::Arr(rows) = v else { panic!("rows is an array") };
        rows
    }

    fn tweak_row<F: FnMut(&mut Vec<(String, Json)>)>(doc: &Json, workload: &str, mut f: F) -> Json {
        let mut doc = doc.clone();
        for row in rows_mut(&mut doc) {
            let is_match = row.get("workload").and_then(Json::as_str) == Some(workload);
            if is_match {
                if let Json::Obj(pairs) = row {
                    f(pairs);
                }
            }
        }
        doc
    }

    #[test]
    fn a_peak_depth_regression_fails_and_a_hot_shift_fails() {
        let base = profile_document("quick", 42);
        let bumped = tweak_row(&base, "ROOTTOLEAF", |pairs| {
            for (k, v) in pairs.iter_mut() {
                if k == "peak_calendar_depth" {
                    let old = v.as_u64().unwrap();
                    *v = Json::u64(old * 2);
                }
            }
        });
        let report = diff(&base, &bumped, &ProfileThresholds::default());
        assert!(!report.is_clean());
        assert!(report.with_status(Status::Regressed).any(|e| e.metric == "peak_calendar_depth"));

        let shifted = tweak_row(&base, "ROOTTOLEAF", |pairs| {
            for (k, v) in pairs.iter_mut() {
                if k == "hot" {
                    *v = Json::arr([Json::obj([
                        ("name", Json::str("node 999")),
                        ("value", Json::u64(1)),
                    ])]);
                }
            }
        });
        let report = diff(&base, &shifted, &ProfileThresholds::default());
        assert!(!report.is_clean());
        let hot: Vec<_> = report.with_status(Status::Regressed).collect();
        assert!(hot.iter().any(|e| e.metric == "hot_top" && e.note.contains("node 999")));
        assert!(report.render_text().contains("hot spot shifted"), "{}", report.render_text());
    }

    fn tweak_eventcore<F: FnMut(&mut Vec<(String, Json)>)>(doc: &Json, mut f: F) -> Json {
        let mut doc = doc.clone();
        let Json::Obj(pairs) = &mut doc else { panic!("document is an object") };
        let (_, ec) = pairs.iter_mut().find(|(k, _)| k == "eventcore").expect("eventcore present");
        let Json::Obj(ec) = ec else { panic!("eventcore is an object") };
        f(ec);
        doc
    }

    #[test]
    fn eventcore_deterministic_drift_is_a_regression() {
        let base = profile_document("quick", 42);
        let drifted = tweak_eventcore(&base, |ec| {
            for (k, v) in ec.iter_mut() {
                if k == "events" {
                    *v = Json::u64(v.as_u64().unwrap() + 1);
                }
            }
        });
        let report = diff(&base, &drifted, &ProfileThresholds::default());
        assert!(!report.is_clean());
        assert!(report
            .with_status(Status::Regressed)
            .any(|e| e.metric == "eventcore_events" && e.note.contains("deterministic")));
    }

    #[test]
    fn eventcore_speedup_floor_gates_only_when_enabled() {
        let base = profile_document("quick", 42);
        let slow = tweak_eventcore(&base, |ec| {
            for (k, v) in ec.iter_mut() {
                if k == "speedup" {
                    *v = Json::f64(0.5);
                }
            }
        });
        let lax = ProfileThresholds::default();
        assert!(diff(&base, &slow, &lax).is_clean(), "floor 0 must not gate");
        let strict = ProfileThresholds { speedup_floor: 1.2, ..lax };
        let report = diff(&base, &slow, &strict);
        assert!(report.with_status(Status::Regressed).any(|e| e.metric == "eventcore_speedup"));
    }

    #[test]
    fn a_vanished_row_is_missing_and_fails() {
        let base = profile_document("quick", 42);
        let mut cur = base.clone();
        rows_mut(&mut cur)
            .retain(|r| r.get("workload").and_then(Json::as_str) != Some("SUM-RECOVERY"));
        let report = diff(&base, &cur, &ProfileThresholds::default());
        assert!(!report.is_clean());
        assert!(report.with_status(Status::Missing).all(|e| e.workload == "SUM-RECOVERY"));
        let doc = Json::parse(&report.to_json().render()).unwrap();
        assert_eq!(doc.get("clean").and_then(Json::as_bool), Some(false));
        assert!(doc.get("missing").and_then(Json::as_u64).unwrap() > 0);
    }
}
