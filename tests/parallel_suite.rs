//! Parallel-execution identity: [`ParallelPolicy::Threads`] fans each
//! primitive's per-tree selector gather over scoped threads, and must be
//! **bit-identical and clock-identical** to the sequential policy —
//! every register, every root, the simulated clock, the operation
//! statistics and the fault statistics. Only the read-only gather is
//! parallelised (writes, transits and charges replay in tree order), so
//! any divergence is an executor bug, not a tolerance.
//!
//! A change both policies share cannot show up as a Threads/Sequential
//! difference, so the last section also pins one faulty, reach-traced
//! sort per network against a committed golden fixture.

use orthotrees::checkpoint::Checkpoint;
use orthotrees::obs::Recorder;
use orthotrees::otc::{self, Otc};
use orthotrees::otn::sort::SortOutcome;
use orthotrees::otn::{self, Axis, Otn, PhaseCost};
use orthotrees::{BitTime, FaultPlan, FaultStats, OpStats, ParallelPolicy, Word};
use orthotrees_analysis::workloads::distinct_words;
use orthotrees_bench::profile::dense_plan;
use proptest::prelude::*;

/// A moderately damaging plan: detectable and silent word faults plus
/// retries, so degraded paths (erasures, First-contention under
/// corruption, retry charges) are all exercised.
fn plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with_word_fault_rate(0.3).with_max_retries(2)
}

/// Everything observable about a run.
type Snapshot =
    (Vec<Option<Word>>, Vec<Option<Word>>, Vec<Option<Word>>, BitTime, OpStats, FaultStats);

/// Runs the full OTN primitive repertoire on an `n × n` net under
/// `policy` and snapshots the final state.
fn run_otn(policy: ParallelPolicy, n: usize, fault_seed: Option<u64>) -> Snapshot {
    let mut net = Otn::for_sorting(n).unwrap();
    net.set_parallel_policy(policy);
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
    (
        cells,
        net.roots(Axis::Rows).to_vec(),
        net.roots(Axis::Cols).to_vec(),
        net.clock().now(),
        *net.clock().stats(),
        net.fault_stats(),
    )
}

/// Everything observable about an OTC run (roots are per-tree buffers).
type OtcSnapshot = (
    Vec<Option<Word>>,
    Vec<Vec<Option<Word>>>,
    Vec<Vec<Option<Word>>>,
    BitTime,
    OpStats,
    FaultStats,
);

/// Runs the full OTC stream repertoire under `policy` and snapshots.
fn run_otc(policy: ParallelPolicy, n: usize, fault_seed: Option<u64>) -> OtcSnapshot {
    let mut net = Otc::for_sorting(n).unwrap();
    net.set_parallel_policy(policy);
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
    (
        cells,
        net.roots(Axis::Rows).to_vec(),
        net.roots(Axis::Cols).to_vec(),
        net.clock().now(),
        *net.clock().stats(),
        net.fault_stats(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Threads ≡ Sequential on the OTN for every paper primitive, over
    /// 2² to 2⁷ leaves, with and without an installed fault plan.
    #[test]
    fn otn_threads_policy_is_bit_and_clock_identical(
        k in 2u32..=7,
        seed in 0u64..1_000_000,
        faulty in any::<bool>(),
    ) {
        let n = 1usize << k;
        let fault_seed = faulty.then_some(seed);
        let seq = run_otn(ParallelPolicy::Sequential, n, fault_seed);
        let par = run_otn(ParallelPolicy::Threads, n, fault_seed);
        prop_assert_eq!(seq, par);
    }

    /// Threads ≡ Sequential on the OTC, with and without faults.
    #[test]
    fn otc_threads_policy_is_bit_and_clock_identical(
        size_idx in 0usize..3,
        seed in 0u64..1_000_000,
        faulty in any::<bool>(),
    ) {
        let n = [16usize, 64, 256][size_idx];
        let fault_seed = faulty.then_some(seed);
        let seq = run_otc(ParallelPolicy::Sequential, n, fault_seed);
        let par = run_otc(ParallelPolicy::Threads, n, fault_seed);
        prop_assert_eq!(seq, par);
    }
}

/// The policy is a per-net knob: setting it is observable and does not
/// leak across instances.
#[test]
fn policy_is_per_instance() {
    let mut a = Otn::for_sorting(4).unwrap();
    let b = Otn::for_sorting(4).unwrap();
    assert_eq!(a.parallel_policy(), ParallelPolicy::Sequential);
    a.set_parallel_policy(ParallelPolicy::Threads);
    assert_eq!(a.parallel_policy(), ParallelPolicy::Threads);
    assert_eq!(b.parallel_policy(), ParallelPolicy::Sequential);
}

/// Sorting — the deepest primitive pipeline in the repo — end to end
/// under the threaded policy: same order, same clock as sequential.
#[test]
fn threaded_sort_matches_sequential_sort() {
    let xs: Vec<Word> = (0..64).map(|v| (v * 37) % 64).collect();
    let mut seq = Otn::for_sorting(64).unwrap();
    let seq_out = otn::sort::sort(&mut seq, &xs).unwrap();
    let mut par = Otn::for_sorting(64).unwrap();
    par.set_parallel_policy(ParallelPolicy::Threads);
    let par_out = otn::sort::sort(&mut par, &xs).unwrap();
    assert_eq!(seq_out.sorted, par_out.sorted);
    assert_eq!(seq_out.time, par_out.time);
    assert_eq!(seq.clock().stats(), par.clock().stats());
}

// ---------------------------------------------------------------------
// Golden identity: one dense-fault, reach-traced sort per network.
// ---------------------------------------------------------------------

/// Renders everything a sort run exposes: the outcome, the fault
/// counters, the recorder's span and reach-event counts with an FNV-1a
/// digest of the reach events, and the post-run checkpoint text.
fn golden_render<N: Checkpoint>(mut net: N, sort: impl FnOnce(&mut N) -> SortOutcome) -> String {
    let mut rec = Recorder::new();
    rec.enable_reach();
    net.install_recorder(rec);
    let out = sort(&mut net);
    let rec = net.take_recorder().expect("recorder installed");
    let digest = rec.reach_events().iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, e| {
        format!("{e:?}").bytes().fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    });
    format!(
        "sorted: {:?}\nmissing: {:?}\ntime: {}\nstats: {:?}\nfaults: {:?}\n\
         spans: {}\nreach_events: {}\nreach_digest: {digest:#018x}\ncheckpoint: {}\n",
        out.sorted,
        out.missing,
        out.time.get(),
        out.stats,
        net.fault_stats(),
        rec.spans().len(),
        rec.reach_events().len(),
        net.checkpoint_text(),
    )
}

fn golden_fixture(name: &str) -> String {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures").join(name);
    std::fs::read_to_string(path).expect("golden sort fixtures are committed")
}

/// SORT-OTN at n = 128 (two 64-leaf selection words per tree) under
/// `dense_plan(11)`: output, τ, `OpStats`, `FaultStats`, recorder output
/// and every register cell are byte-identical to the committed run.
#[test]
fn otn_sort_matches_the_golden_fixture() {
    let mut net = Otn::for_sorting(128).unwrap();
    net.install_fault_plan(dense_plan(11));
    let xs = distinct_words(128, 11);
    let fresh = golden_render(net, |net| otn::sort::sort(net, &xs).unwrap());
    assert!(fresh == golden_fixture("golden_otn_sort_128.txt"), "SORT-OTN n=128 drifted");
}

/// The OTC twin: SORT-OTC at n = 256 (32 × 32 cycles of 8) under
/// `dense_plan(12)`.
#[test]
fn otc_sort_matches_the_golden_fixture() {
    let mut net = Otc::for_sorting(256).unwrap();
    net.install_fault_plan(dense_plan(12));
    let xs = distinct_words(256, 12);
    let fresh = golden_render(net, |net| otc::sort::sort(net, &xs).unwrap());
    assert!(fresh == golden_fixture("golden_otc_sort_256.txt"), "SORT-OTC n=256 drifted");
}
