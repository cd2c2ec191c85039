//! Calendar identity suite: the ladder queue versus the binary-heap
//! oracle, end to end.
//!
//! The event engine's pending calendar is pluggable ([`CalendarKind`]):
//! the original binary heap is kept as the oracle and the flat-arena
//! ladder queue is the default. Every scheduled event carries a unique
//! `(at, seq)` ordering key, so delivery order is a total order no
//! correct calendar may perturb. This suite pins that claim at the
//! integration level:
//!
//! 1. **Probe identity** — every engine-level paper primitive
//!    ([`PROBE_KINDS`]), property-swept over sizes, tie-break modes and
//!    dense fault plans, must deliver bit-identical logs, clocks, node
//!    results and fault draws on both calendars.
//! 2. **Snapshot portability** — an `orthotrees-snapshot/v1` document
//!    written by a heap engine restores into a ladder engine (and vice
//!    versa) and resumes bit-identically; the committed fixture in
//!    `tests/fixtures/calendar_snapshot_v1.json` pins the on-disk bytes,
//!    and a copy with one event retargeted onto an unwired input is
//!    rejected at restore.
//! 3. **Supervised recovery** — an outage-tripped soak rolls back and
//!    replays through checkpoints identically on either calendar.
//! 4. **Instrument identity** — every probe with all five engine
//!    instruments installed at once runs exactly like the bare probe, and
//!    a snapshot/restore round trip leaves the bundle installed.

use orthotrees_sim::experiments::{probe_engine, ProbeKind, PROBE_KINDS};
use orthotrees_sim::{
    supervise_engine, CalendarKind, CausalTrace, Engine, EventLog, FaultPlan, FaultStats,
    FlightRecorder, Instruments, NodeId, Profiler, Recorder, RecoveryPolicy, Snapshot, Telemetry,
};
use orthotrees_vlsi::{BitTime, CostModel, SimError};
use proptest::prelude::*;

/// Everything observable about a finished run.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    end: BitTime,
    completion: Option<BitTime>,
    delivered: u64,
    results: Vec<Option<u64>>,
    log: Vec<EventLog>,
    faults: FaultStats,
}

fn results(e: &Engine) -> Vec<Option<u64>> {
    (0..e.node_count()).map(|i| e.node(NodeId(i)).result()).collect()
}

fn run_probe(
    kind: ProbeKind,
    leaves: usize,
    cal: CalendarKind,
    lifo: bool,
    fault_seed: Option<u64>,
) -> Fingerprint {
    let m = CostModel::thompson(leaves);
    let plan = fault_seed.map(|s| FaultPlan::new(s).with_link_fault_rate(0.3));
    let mut e = probe_engine(kind, leaves, &m, cal, plan, true);
    if lifo {
        e = e.with_lifo_ties();
    }
    finished(&mut e)
}

/// Runs `e` to quiescence and fingerprints the finished run.
fn finished(e: &mut Engine) -> Fingerprint {
    let end = e.try_run().expect("probe runs within budget");
    Fingerprint {
        end,
        completion: e.completion_time(),
        delivered: e.delivered_events(),
        results: results(e),
        log: e.log().to_vec(),
        faults: *e.fault_stats(),
    }
}

// ---------------------------------------------------------------------
// 1. Probe identity, property-swept.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_probe_is_bit_identical_across_calendars(
        kind_ix in 0usize..PROBE_KINDS.len(),
        exp in 1u32..=4,
        lifo in any::<bool>(),
        with_faults in any::<bool>(),
        fault_seed in 0u64..1000,
    ) {
        let kind = PROBE_KINDS[kind_ix];
        let leaves = 1usize << exp;
        let seed = with_faults.then_some(fault_seed);
        let heap = run_probe(kind, leaves, CalendarKind::Heap, lifo, seed);
        let ladder = run_probe(kind, leaves, CalendarKind::Ladder, lifo, seed);
        prop_assert_eq!(heap, ladder);
    }
}

/// The exhaustive release-mode sweep CI runs: the full probe grid up to
/// n = 128, both tie-break modes, clean and densely faulted.
#[test]
#[ignore = "release-mode sweep, run explicitly in CI"]
fn full_probe_sweep_across_calendars() {
    for kind in PROBE_KINDS {
        for exp in 2..=7u32 {
            for lifo in [false, true] {
                for seed in [None, Some(7), Some(1234)] {
                    let leaves = 1usize << exp;
                    let heap = run_probe(kind, leaves, CalendarKind::Heap, lifo, seed);
                    let ladder = run_probe(kind, leaves, CalendarKind::Ladder, lifo, seed);
                    assert_eq!(
                        heap,
                        ladder,
                        "{} n={leaves} lifo={lifo} seed={seed:?} diverged",
                        kind.tag()
                    );
                }
            }
        }
    }
}

/// The overhaul flips the default: a plain `Engine::new` runs on the
/// ladder, and the heap stays reachable as the verification oracle.
#[test]
fn ladder_is_the_default_and_the_heap_stays_selectable() {
    let e = Engine::new(orthotrees_vlsi::DelayModel::Logarithmic);
    assert_eq!(e.calendar_kind(), CalendarKind::Ladder);
    assert_eq!(e.with_calendar(CalendarKind::Heap).calendar_kind(), CalendarKind::Heap);
}

// ---------------------------------------------------------------------
// 2. Snapshot portability across calendars.
// ---------------------------------------------------------------------

/// The probe the snapshot tests interrupt: SUM at n = 8 keeps adder
/// carry chains and multi-bit node state in flight at the cut point.
fn snapshot_probe(cal: CalendarKind) -> Engine {
    let m = CostModel::thompson(8);
    probe_engine(ProbeKind::Sum, 8, &m, cal, None, true)
}

/// Event boundary the fixture is cut at (mid-run: adders hold carries,
/// the calendar holds in-flight bits on several tree levels).
const FIXTURE_CUT: u64 = 40;

#[test]
fn snapshots_restore_across_calendars_bit_identically() {
    for (writer, reader) in
        [(CalendarKind::Heap, CalendarKind::Ladder), (CalendarKind::Ladder, CalendarKind::Heap)]
    {
        let baseline = finished(&mut snapshot_probe(reader));
        for cut in [0u64, 1, 17, FIXTURE_CUT, 200] {
            let mut part = snapshot_probe(writer);
            part.try_run_for(cut).expect("partial run stays within budget");
            let text = part.snapshot().render();
            let snap = Snapshot::parse(&text).expect("snapshot text parses");

            let mut resumed = snapshot_probe(reader);
            resumed.restore(&snap).expect("snapshot restores across calendars");
            assert_eq!(resumed.calendar_kind(), reader, "restore must not swap the calendar");
            let resumed = finished(&mut resumed);
            // The pre-cut deliveries happened before the snapshot, so the
            // resumed log is the baseline's suffix; everything else must
            // match the uninterrupted run on the reader's calendar exactly.
            assert_eq!(resumed.end, baseline.end, "{writer:?}→{reader:?} cut {cut}");
            assert_eq!(resumed.completion, baseline.completion);
            assert_eq!(resumed.delivered, baseline.delivered);
            assert_eq!(resumed.results, baseline.results);
            let skip = baseline.log.len() - resumed.log.len();
            assert_eq!(resumed.log.as_slice(), &baseline.log[skip..]);
        }
    }
}

/// The snapshot document is calendar-agnostic *by construction*: the
/// writer sorts pending events by their `(at, seq)` key, so the heap and
/// the ladder render byte-identical `/v1` text at the same boundary.
#[test]
fn both_calendars_render_identical_snapshot_bytes() {
    let mut texts = Vec::new();
    for cal in [CalendarKind::Heap, CalendarKind::Ladder] {
        let mut e = snapshot_probe(cal);
        e.try_run_for(FIXTURE_CUT).expect("partial run stays within budget");
        texts.push(e.snapshot().render());
    }
    assert_eq!(texts[0], texts[1]);
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/calendar_snapshot_v1.json")
}

fn fixture_text() -> String {
    let mut e = snapshot_probe(CalendarKind::Heap);
    e.try_run_for(FIXTURE_CUT).expect("partial run stays within budget");
    e.snapshot().render() + "\n"
}

/// The committed fixture is exactly what today's heap engine writes at
/// the cut — any drift in the `/v1` bytes fails here first. Regenerate
/// with `cargo test -p orthotrees-bench --test calendar_suite -- --ignored
/// regenerate_calendar_snapshot_fixture`.
#[test]
fn committed_snapshot_fixture_is_byte_identical_to_a_fresh_write() {
    let committed = std::fs::read_to_string(fixture_path())
        .expect("tests/fixtures/calendar_snapshot_v1.json is committed");
    assert_eq!(committed, fixture_text(), "fixture drifted: regenerate it");
}

#[test]
#[ignore = "writes tests/fixtures/calendar_snapshot_v1.json"]
fn regenerate_calendar_snapshot_fixture() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, fixture_text()).unwrap();
}

/// A snapshot written by the *previous* engine generation (binary heap,
/// before the calendar abstraction existed) restores into today's
/// default-ladder engine and resumes bit-identically — the on-disk
/// format carries no calendar state at all.
#[test]
fn committed_fixture_restores_into_both_calendars() {
    let committed = std::fs::read_to_string(fixture_path())
        .expect("tests/fixtures/calendar_snapshot_v1.json is committed");
    let snap = Snapshot::parse(&committed).expect("committed fixture parses");
    let mut prints = Vec::new();
    for cal in [CalendarKind::Heap, CalendarKind::Ladder] {
        let mut e = snapshot_probe(cal);
        e.restore(&snap).expect("fixture restores");
        prints.push(finished(&mut e));
    }
    assert_eq!(prints[0], prints[1], "fixture resumes must agree across calendars");
    assert!(prints[0].completion.is_some(), "resumed run must still complete");
}

/// A pending event retargeted onto an input no link feeds — here the
/// first calendar entry, moved from adder node 8's left input (port 1) to
/// its output port 0 — still parses, but `restore` rejects it with a typed
/// error instead of letting the resumed run reach the adder's
/// unexpected-port panic.
#[test]
fn restore_rejects_a_pending_event_on_an_unwired_input() {
    let committed = std::fs::read_to_string(fixture_path())
        .expect("tests/fixtures/calendar_snapshot_v1.json is committed");
    let entry = "\"calendar\":[[8,6,8,1,false,5],";
    assert!(committed.contains(entry), "fixture's first calendar entry moved");
    let hostile = committed.replacen(entry, "\"calendar\":[[8,6,8,0,false,5],", 1);
    let snap = Snapshot::parse(&hostile).expect("the retargeted copy still parses");
    for cal in [CalendarKind::Heap, CalendarKind::Ladder] {
        match snapshot_probe(cal).restore(&snap) {
            Err(SimError::SnapshotMismatch { what: "pending event endpoint", actual, .. }) => {
                assert_eq!(actual, "node 8 port 0", "{cal:?}");
            }
            other => panic!("{cal:?}: expected an endpoint mismatch, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// 3. Supervised recovery on both calendars.
// ---------------------------------------------------------------------

/// An outage on the SUM probe's root sink (always the last node added)
/// swallows deliveries until the supervisor rolls back, heals the plan
/// and replays from a checkpoint — and the whole ordeal must unfold
/// identically, rollback for rollback, on either calendar.
#[test]
fn supervised_recovery_is_identical_across_calendars() {
    let mut reports = Vec::new();
    for cal in [CalendarKind::Heap, CalendarKind::Ladder] {
        let clean = finished(&mut snapshot_probe(cal));

        let mut chaotic = snapshot_probe(cal);
        let sink = NodeId(chaotic.node_count() - 1);
        chaotic = chaotic.with_fault_plan(FaultPlan::new(9).with_outage(
            sink,
            BitTime::new(6),
            BitTime::new(30),
        ));
        let policy =
            RecoveryPolicy { max_attempts: 12, checkpoint_events: 6, min_checkpoint_events: 2 };
        let report = supervise_engine(&mut chaotic, &policy, |e, _failures| {
            e.set_fault_plan(None);
        })
        .expect("soak recovers within the attempt budget");

        assert!(report.rollbacks >= 1, "{cal:?}: the outage must trip the supervisor");
        assert_eq!(report.completion, clean.end, "{cal:?}: recovery is clock-identical to clean");
        assert_eq!(results(&chaotic), clean.results, "{cal:?}: recovery is value-identical");
        reports.push((
            report.attempts,
            report.rollbacks,
            report.replayed_events,
            report.completion,
        ));
    }
    assert_eq!(reports[0], reports[1], "the two calendars recovered differently");
}

// ---------------------------------------------------------------------
// 4. Every engine instrument at once.
// ---------------------------------------------------------------------

/// All five engine instruments.
fn full_bundle() -> Instruments {
    Instruments {
        recorder: Some(Recorder::new()),
        causal: Some(CausalTrace::new()),
        profiler: Some(Profiler::new(16)),
        telemetry: Some(Telemetry::new(16)),
        flight: Some(FlightRecorder::default()),
    }
}

/// Every probe, on both calendars, clean and under a dense link-fault
/// plan: the run with the full bundle installed delivers the same log,
/// completion, fault stats and delivered count as the bare run — also
/// when it is snapshotted and restored mid-run, which must leave the
/// bundle installed. Each instrument saw every delivery.
#[test]
fn the_full_instrument_bundle_perturbs_no_probe() {
    let m = CostModel::thompson(16);
    for kind in PROBE_KINDS {
        for cal in [CalendarKind::Heap, CalendarKind::Ladder] {
            for fault_seed in [None, Some(7)] {
                let build = || {
                    let plan = fault_seed.map(|s| FaultPlan::new(s).with_link_fault_rate(0.3));
                    probe_engine(kind, 16, &m, cal, plan, true)
                };
                let label = format!("{} {cal:?} faults={fault_seed:?}", kind.tag());
                let bare = finished(&mut build());
                assert!(bare.delivered > 0, "{label}: nothing delivered");

                let mut full = build().with_instruments(full_bundle());
                assert_eq!(finished(&mut full), bare, "{label}: instruments changed the run");

                let mut cut = build().with_instruments(full_bundle());
                cut.try_run_for(20).expect("partial run stays within budget");
                let snap = Snapshot::parse(&cut.snapshot().render()).expect("snapshot parses");
                cut.restore(&snap).expect("snapshot restores into its own engine");
                let inst = cut.instruments().expect("restore keeps the bundle");
                assert!(
                    inst.recorder.is_some()
                        && inst.causal.is_some()
                        && inst.profiler.is_some()
                        && inst.telemetry.is_some()
                        && inst.flight.is_some(),
                    "{label}: restore dropped an instrument"
                );
                assert_eq!(finished(&mut cut), bare, "{label}: restored run diverged");

                for mut e in [full, cut] {
                    let inst = e.take_instruments();
                    let n = bare.delivered;
                    assert_eq!(inst.recorder.unwrap().calendar_depth().count(), n, "{label}");
                    assert_eq!(inst.profiler.unwrap().totals().events, n, "{label}");
                    assert_eq!(inst.telemetry.unwrap().counter("engine.delivered"), n, "{label}");
                    assert_eq!(inst.flight.unwrap().recorded(), n, "{label}");
                    assert!(!inst.causal.unwrap().is_empty(), "{label}: no hop traced");
                }
            }
        }
    }
}
