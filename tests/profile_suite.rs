//! Profiler identity and tiling: the windowed [`Profiler`] must be a
//! pure observer. At engine level an installed profiler changes no
//! simulated bit, clock or stat (the Option-gated zero-overhead
//! contract); at word level the profile is rebuilt from the recorded
//! causal segments, so the only question is whether the windows tell
//! the truth — Σ(per-window τ) must tile the recorder's segment total
//! and the completion clock exactly (PROF-001), over a gapless window
//! sequence (PROF-002), for every paper primitive, every size, every
//! window width, with and without an installed fault plan.

use orthotrees::obs::profile::Profiler;
use orthotrees::obs::Recorder;
use orthotrees::otc::Otc;
use orthotrees::otn::{self, Axis, Otn, PhaseCost};
use orthotrees::{BitTime, FaultPlan, FaultStats, OpStats, Word};
use orthotrees_sim::{experiments, Instruments, RecoveryPolicy};
use orthotrees_vlsi::CostModel;
use proptest::prelude::*;

/// The parallel-suite's moderately damaging plan: detectable and silent
/// word faults plus retries, so retry overhead lands in the windows.
/// The engine-level pair PROF-001 compares: a recorder plus a profiler
/// with an initial window width of 16τ.
fn profiled() -> Instruments {
    Instruments {
        recorder: Some(Recorder::new()),
        profiler: Some(Profiler::new(16)),
        ..Default::default()
    }
}

fn plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with_word_fault_rate(0.3).with_max_retries(2)
}

/// Everything observable about a word-level run.
type Snapshot = (Vec<Option<Word>>, BitTime, OpStats, FaultStats);

/// Runs the full OTN primitive repertoire; optionally records, and
/// snapshots the observable state plus the recorder (when installed).
fn run_otn(n: usize, fault_seed: Option<u64>, record: bool) -> (Snapshot, Option<Recorder>) {
    let mut net = Otn::for_sorting(n).unwrap();
    if record {
        net.install_recorder(Recorder::new());
    }
    if let Some(seed) = fault_seed {
        net.install_fault_plan(plan(seed));
    }
    let a = net.alloc_reg("A");
    let b = net.alloc_reg("B");
    net.load_reg(a, |i, j| Some(((i * 31 + j * 7) % 97) as Word - 13));
    net.load_row_roots(&(0..n as Word).collect::<Vec<_>>());

    net.root_to_leaf(Axis::Rows, b, otn::all);
    net.leaf_to_root(Axis::Cols, a, |i, _, _| i == 1);
    net.count_to_root(Axis::Rows, a);
    net.sum_to_root(Axis::Rows, a, otn::all);
    net.min_to_root(Axis::Cols, a, otn::all);
    net.max_to_root(Axis::Rows, a, otn::all);
    net.sum_to_leaf(Axis::Rows, a, |_, j, _| j == 0, b, otn::all);
    net.bp_phase(PhaseCost::Compare, |_, _, _| {});

    let mut cells = Vec::new();
    for r in [a, b] {
        for i in 0..n {
            for j in 0..n {
                cells.push(net.peek(r, i, j));
            }
        }
    }
    let snap = (cells, net.clock().now(), *net.clock().stats(), net.fault_stats());
    (snap, net.take_recorder())
}

/// Runs the full OTC stream repertoire; optionally records.
fn run_otc(n: usize, fault_seed: Option<u64>, record: bool) -> (Snapshot, Option<Recorder>) {
    let mut net = Otc::for_sorting(n).unwrap();
    if record {
        net.install_recorder(Recorder::new());
    }
    if let Some(seed) = fault_seed {
        net.install_fault_plan(plan(seed));
    }
    let (m, cycle) = (net.side(), net.cycle_len());
    let a = net.alloc_reg("A");
    let b = net.alloc_reg("B");
    net.load_reg(a, |i, j, q| Some(((i * 13 + j * 5 + q * 3) % 89) as Word - 7));
    net.load_row_root_buffers(
        &(0..m).map(|t| (0..cycle as Word).map(|q| q + t as Word).collect()).collect::<Vec<_>>(),
    );

    net.circulate(&[a]);
    net.root_to_cycle(Axis::Rows, b, |_, _, _| true);
    net.cycle_to_root(Axis::Rows, a, |_, j, _, _| j == 0);
    net.sum_cycle_to_root(Axis::Rows, a, |_, _, _, _| true);
    net.min_cycle_to_root(Axis::Cols, a, |_, _, _, _| true);
    net.sum_cycle_to_cycle(Axis::Rows, a, |_, _, _, _| true, b, |_, _, _| true);

    let mut cells = Vec::new();
    for r in [a, b] {
        for i in 0..m {
            for j in 0..m {
                for q in 0..cycle {
                    cells.push(net.peek(r, i, j, q));
                }
            }
        }
    }
    let snap = (cells, net.clock().now(), *net.clock().stats(), net.fault_stats());
    (snap, net.take_recorder())
}

/// Asserts the word-level PROF-001/002 pair on a recorded run: windows
/// gapless from 0, and Σ(wire + queue + compute) equal to both the
/// segment total and the completion clock — at an arbitrary width.
fn assert_word_profile(rec: &Recorder, completion: BitTime, width: u64) {
    let prof = Profiler::from_recorder(rec, width);
    for (i, w) in prof.windows().iter().enumerate() {
        assert_eq!(w.index, i as u64, "gapless windows (PROF-002)");
    }
    let t = prof.totals();
    assert_eq!(
        t.wire + t.queue_wait + t.compute,
        rec.segments_total().get(),
        "window τ tiles the segments (PROF-001)"
    );
    assert_eq!(rec.segments_total(), completion, "segments tile the clock");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// OTN: recording changes nothing observable, and the derived
    /// windowed profile tiles the clock at any width — every paper
    /// primitive, 2² to 2⁷ leaves, with and without faults.
    #[test]
    fn otn_profile_tiles_and_perturbs_nothing(
        k in 2u32..=7,
        seed in 0u64..1_000_000,
        faulty in any::<bool>(),
        width in 1u64..=64,
    ) {
        let n = 1usize << k;
        let fault_seed = faulty.then_some(seed);
        let (plain, _) = run_otn(n, fault_seed, false);
        let (recorded, rec) = run_otn(n, fault_seed, true);
        prop_assert_eq!(&plain, &recorded);
        let rec = rec.unwrap();
        assert_word_profile(&rec, recorded.1, width);
    }

    /// OTC: the same identity and tiling over the stream repertoire.
    #[test]
    fn otc_profile_tiles_and_perturbs_nothing(
        size_idx in 0usize..3,
        seed in 0u64..1_000_000,
        faulty in any::<bool>(),
        width in 1u64..=64,
    ) {
        let n = [16usize, 64, 256][size_idx];
        let fault_seed = faulty.then_some(seed);
        let (plain, _) = run_otc(n, fault_seed, false);
        let (recorded, rec) = run_otc(n, fault_seed, true);
        prop_assert_eq!(&plain, &recorded);
        let rec = rec.unwrap();
        assert_word_profile(&rec, recorded.1, width);
    }

    /// Engine level: a profiled bit-level broadcast completes at exactly
    /// the uninstrumented time, and its window sums tile the recorder's
    /// aggregates — events, link bits and queue waits.
    #[test]
    fn engine_profile_is_clock_identical_and_tiles(k in 1u32..=7) {
        let leaves = 1usize << k;
        let m = CostModel::thompson(leaves);
        let (bare, _) =
            experiments::broadcast_completion_time(leaves, &m, Instruments::default()).unwrap();
        let (t, inst) = experiments::broadcast_completion_time(leaves, &m, profiled()).unwrap();
        let (rec, prof) = (inst.recorder.unwrap(), inst.profiler.unwrap());
        prop_assert_eq!(bare, t);
        let totals = prof.totals();
        prop_assert_eq!(totals.events, rec.calendar_depth().count());
        prop_assert_eq!(
            totals.link_bits,
            rec.links().iter().map(|l| l.bits).sum::<u64>()
        );
        prop_assert_eq!(
            totals.queue_wait,
            rec.links().iter().map(|l| l.wait_total).sum::<u64>()
        );
        for (i, w) in prof.windows().iter().enumerate() {
            prop_assert_eq!(w.index, i as u64);
        }
    }
}

/// Supervised crash recovery with the profiler riding along: same
/// recovery report and same computed sum as the unprofiled supervised
/// run, and the profile still tiles the recorder — rollback replays land
/// identically in both instruments.
#[test]
fn profiled_recovery_matches_unprofiled_and_tiles() {
    let values: Vec<u64> = (0..16).collect();
    let m = CostModel::thompson(16);
    let policy =
        RecoveryPolicy { max_attempts: 12, checkpoint_events: 32, min_checkpoint_events: 4 };
    let recorded = Instruments { recorder: Some(Recorder::new()), ..Default::default() };
    let (report_a, _, sum_a) =
        experiments::supervised_sum_recovery(&values, &m, &policy, recorded).unwrap();
    let (report_b, inst, sum_b) =
        experiments::supervised_sum_recovery(&values, &m, &policy, profiled()).unwrap();
    let (rec, prof) = (inst.recorder.unwrap(), inst.profiler.unwrap());
    assert_eq!(report_a, report_b, "profiler must not change recovery behaviour");
    assert_eq!(sum_a, sum_b);
    assert!(report_b.rollbacks >= 1, "the outage must actually trip the supervisor");
    let totals = prof.totals();
    assert_eq!(totals.events, rec.calendar_depth().count(), "tiling survives rollback replay");
    assert!(prof.peak_calendar_depth() > 0);
}

/// The sorting pipeline end to end: the profile of a recorded sort is
/// identical whether it is built at width 1 or rebuilt after coalescing
/// has doubled the width — totals are exact under merging.
#[test]
fn sort_profile_totals_are_width_invariant() {
    let xs: Vec<Word> = (0..64).map(|v| (v * 37) % 64).collect();
    let mut net = Otn::for_sorting(64).unwrap();
    net.install_recorder(Recorder::new());
    let out = otn::sort::sort(&mut net, &xs).unwrap();
    let rec = net.take_recorder().unwrap();
    let fine = Profiler::from_recorder(&rec, 1);
    let coarse = Profiler::from_recorder(&rec, Profiler::auto_width(out.time.get()));
    assert_eq!(fine.totals(), coarse.totals(), "coalescing preserves every sum");
    assert_word_profile(&rec, out.time, 1);
}
