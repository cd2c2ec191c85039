//! Parallel-execution identity: [`ParallelPolicy::Threads`] fans each
//! primitive's selector gather and upward folds over scoped threads, and
//! must be **bit-identical and clock-identical** to the sequential policy
//! — every register, every root, the simulated clock, the operation
//! statistics and the fault statistics. Only read-only work is
//! parallelised (writes, transits and charges run in one fixed order on
//! the calling thread), so any divergence is an executor bug, not a
//! tolerance.
//!
//! A change both policies share cannot show up as a Threads/Sequential
//! difference, so the last sections also pin one faulty, reach-traced
//! sort per network, and every tree primitive on both axes of two
//! rectangular OTNs and one OTC, against committed golden fixtures.

use orthotrees::checkpoint::Checkpoint;
use orthotrees::obs::Recorder;
use orthotrees::otc::{self, Otc, OtcRegsView};
use orthotrees::otn::sort::SortOutcome;
use orthotrees::otn::{self, Axis, Otn, PhaseCost, RegsView};
use orthotrees::{
    BitTime, CostModel, FaultPlan, FaultStats, OpStats, ParallelPolicy, TreeAxis, Word,
};
use orthotrees_analysis::workloads::distinct_words;
use orthotrees_bench::profile::dense_plan;
use proptest::prelude::*;
use std::fmt::Write as _;

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

// ---------------------------------------------------------------------
// Golden identity: every Down/Up primitive and composite, both axes.
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `dense_plan(seed)` plus one dead sibling pair per tree family, so both
/// axes have dark leaves (row tree 3 loses leaves 0..8, column tree 5
/// leaves 4..8).
fn golden_plan(seed: u64) -> FaultPlan {
    dense_plan(seed)
        .with_dead_ip(TreeAxis::Rows, 3, 2, 0)
        .with_dead_ip(TreeAxis::Rows, 3, 2, 1)
        .with_dead_ip(TreeAxis::Cols, 5, 1, 2)
        .with_dead_ip(TreeAxis::Cols, 5, 1, 3)
}

/// One named primitive call of a golden run.
type Step<'a, N> = (&'static str, &'a dyn Fn(&mut N));

/// A reach-tracing recorder.
fn reach_recorder() -> Recorder {
    let mut rec = Recorder::new();
    rec.enable_reach();
    rec
}

/// Appends one step of a golden run: τ, `OpStats`, `FaultStats`, the
/// count and FNV-1a digest of the reach events the step emitted (in
/// emission order), the length and digest of the post-step
/// `checkpoint_text()`, and the roots of the step's axis verbatim.
fn golden_step<N: Checkpoint>(
    log: &mut String,
    net: &N,
    seen: &mut usize,
    step: &str,
    roots: String,
) {
    let events = net.recorder().expect("recorder installed").reach_events();
    let digest =
        events[*seen..].iter().fold(FNV_OFFSET, |h, e| fnv(h, format!("{e:?}").as_bytes()));
    let reached = events.len() - *seen;
    *seen = events.len();
    let checkpoint = net.checkpoint_text();
    writeln!(
        log,
        "{step}: time {} stats {:?} faults {:?} reach {reached} {digest:#018x} \
         checkpoint {} {:#018x}\n  roots {roots}",
        net.clock().now().get(),
        net.clock().stats(),
        net.fault_stats(),
        checkpoint.len(),
        fnv(FNV_OFFSET, checkpoint.as_bytes()),
    )
    .unwrap();
}

/// Every OTN Down/Up primitive and composite, with register-reading
/// selectors, on both axes of a 128×64 and a 64×128 OTN (so each axis
/// has a 128-leaf family with two mask words per tree) under
/// [`golden_plan`] and reach tracing.
fn golden_otn_primitives(policy: ParallelPolicy) -> String {
    let mut log = String::new();
    for (rows, cols) in [(128, 64), (64, 128)] {
        let mut net = Otn::new(rows, cols, CostModel::thompson(128)).unwrap();
        net.set_parallel_policy(policy);
        net.install_fault_plan(golden_plan(rows as u64));
        net.install_recorder(reach_recorder());
        let a = net.alloc_reg("A");
        let s = net.alloc_reg("S");
        let b = net.alloc_reg("B");
        net.load_reg(a, |i, j| {
            ((i * 7 + j * 3) % 11 != 0).then_some(((i * 31 + j * 17) % 97) as Word - 40)
        });
        net.load_reg(s, |i, j| Some(((i * 5 + j * 13 + i * j) % 7) as Word));
        let one = move |i: usize, j: usize, v: &RegsView<'_>| v.get(s, i, j) == Some(1);
        let even =
            move |i: usize, j: usize, v: &RegsView<'_>| v.get(s, i, j).is_some_and(|k| k % 2 == 0);
        let third =
            move |i: usize, j: usize, v: &RegsView<'_>| v.get(s, i, j).is_some_and(|k| k % 3 == 0);
        let nonneg =
            move |i: usize, j: usize, v: &RegsView<'_>| v.get(a, i, j).is_some_and(|x| x >= 0);
        let mut seen = 0;
        writeln!(log, "OTN {rows}x{cols}").unwrap();
        for axis in [Axis::Rows, Axis::Cols] {
            let trees = net.trees(axis);
            net.set_roots(
                axis,
                (0..trees).map(|t| (t % 5 != 2).then_some(3 * t as Word - 50)).collect(),
            );
            let steps: [Step<'_, Otn>; 11] = [
                ("ROOTTOLEAF", &|n| n.root_to_leaf(axis, b, third)),
                ("LEAFTOROOT", &|n| n.leaf_to_root(axis, a, one)),
                ("COUNT-LEAFTOROOT", &|n| n.count_to_root(axis, s)),
                ("SUM-LEAFTOROOT", &|n| n.sum_to_root(axis, a, even)),
                ("MIN-LEAFTOROOT", &|n| n.min_to_root(axis, a, nonneg)),
                ("MAX-LEAFTOROOT", &|n| n.max_to_root(axis, b, third)),
                ("LEAFTOLEAF", &|n| n.leaf_to_leaf(axis, a, one, b, even)),
                ("COUNT-LEAFTOLEAF", &|n| n.count_to_leaf(axis, s, b, nonneg)),
                ("SUM-LEAFTOLEAF", &|n| n.sum_to_leaf(axis, a, even, b, third)),
                ("MIN-LEAFTOLEAF", &|n| n.min_to_leaf(axis, b, nonneg, a, one)),
                ("MAX-LEAFTOLEAF", &|n| n.max_to_leaf(axis, a, third, s, even)),
            ];
            for (name, step) in steps {
                step(&mut net);
                let roots = format!("{:?}", net.roots(axis));
                golden_step(&mut log, &net, &mut seen, &format!("{name} {axis:?}"), roots);
            }
        }
    }
    log
}

/// The OTC twin: every stream primitive and composite on both axes of a
/// 128×128 OTC of 4-cycles (two mask words per tree).
fn golden_otc_primitives(policy: ParallelPolicy) -> String {
    let mut log = String::new();
    let mut net = Otc::new(128, 4, CostModel::thompson(512)).unwrap();
    net.set_parallel_policy(policy);
    net.install_fault_plan(golden_plan(13));
    net.install_recorder(reach_recorder());
    let a = net.alloc_reg("A");
    let s = net.alloc_reg("S");
    let b = net.alloc_reg("B");
    net.load_reg(a, |i, j, q| {
        ((i * 7 + j * 3 + q) % 11 != 0).then_some(((i * 31 + j * 17 + q * 5) % 97) as Word - 40)
    });
    net.load_reg(s, |i, j, q| Some(((i * 5 + j * 13 + i * j + q * 3) % 7) as Word));
    net.load_row_root_buffers(
        &(0..128).map(|t| (0..4).map(|q| 5 * t - 3 * q - 100).collect()).collect::<Vec<_>>(),
    );
    let one = move |i: usize, j: usize, q: usize, v: &OtcRegsView<'_>| v.get(s, i, j, q) == Some(1);
    let even = move |i: usize, j: usize, q: usize, v: &OtcRegsView<'_>| {
        v.get(s, i, j, q).is_some_and(|k| k % 2 == 0)
    };
    let nonneg = move |i: usize, j: usize, q: usize, v: &OtcRegsView<'_>| {
        v.get(a, i, j, q).is_some_and(|x| x >= 0)
    };
    let third = move |i: usize, j: usize, v: &OtcRegsView<'_>| {
        v.get(s, i, j, (i + j) % 4).is_some_and(|k| k % 3 == 0)
    };
    let mut seen = 0;
    writeln!(log, "OTC 128x128x4").unwrap();
    for axis in [Axis::Rows, Axis::Cols] {
        let steps: [Step<'_, Otc>; 7] = [
            ("CYCLETOROOT", &|n| n.cycle_to_root(axis, a, one)),
            ("ROOTTOCYCLE", &|n| n.root_to_cycle(axis, b, third)),
            ("SUM-CYCLETOROOT", &|n| n.sum_cycle_to_root(axis, a, even)),
            ("MIN-CYCLETOROOT", &|n| n.min_cycle_to_root(axis, b, nonneg)),
            ("CYCLETOCYCLE", &|n| n.cycle_to_cycle(axis, a, one, b, third)),
            ("SUM-CYCLETOCYCLE", &|n| n.sum_cycle_to_cycle(axis, b, even, a, third)),
            ("MIN-CYCLETOCYCLE", &|n| n.min_cycle_to_cycle(axis, a, nonneg, s, third)),
        ];
        for (name, step) in steps {
            step(&mut net);
            let roots = format!("{:?}", net.roots(axis));
            golden_step(&mut log, &net, &mut seen, &format!("{name} {axis:?}"), roots);
        }
    }
    log
}

/// Every OTN tree primitive on both axes, under both policies, is
/// byte-identical to the committed run: τ, `OpStats`, `FaultStats`,
/// roots, reach-event sequence and checkpoint after every step.
#[test]
fn otn_primitives_match_the_golden_fixture() {
    let golden = golden_fixture("golden_otn_primitives.txt");
    for policy in [ParallelPolicy::Sequential, ParallelPolicy::Threads] {
        assert!(golden_otn_primitives(policy) == golden, "OTN primitives drifted under {policy:?}");
    }
}

/// The OTC twin of [`otn_primitives_match_the_golden_fixture`].
#[test]
fn otc_primitives_match_the_golden_fixture() {
    let golden = golden_fixture("golden_otc_primitives.txt");
    for policy in [ParallelPolicy::Sequential, ParallelPolicy::Threads] {
        assert!(golden_otc_primitives(policy) == golden, "OTC primitives drifted under {policy:?}");
    }
}

// ---------------------------------------------------------------------
// Contention: the panic names the lowest contended tree.
// ---------------------------------------------------------------------

/// The panic message of `f`, which must panic.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .expect_err("the primitive must reject contention");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .expect("a string payload")
}

/// Column trees 2 and 5 are both contended, and tree 5's second selected
/// leaf (row 3) comes before tree 2's (row 6) in memory order. Under
/// either policy the panic names tree 2, as the tree-by-tree fold did.
#[test]
fn otn_contention_names_the_lowest_contended_tree() {
    for policy in [ParallelPolicy::Sequential, ParallelPolicy::Threads] {
        let message = panic_message(|| {
            let mut net = Otn::for_sorting(8).unwrap();
            net.set_parallel_policy(policy);
            let a = net.alloc_reg("A");
            net.leaf_to_root(Axis::Cols, a, |i, j, _| {
                matches!((j, i), (2, 1) | (2, 6) | (5, 0) | (5, 3))
            });
        });
        assert_eq!(
            message,
            "LEAFTOROOT contention: tree 2 of Cols selected twice \
             (invariant: the Selector specifies one BP per tree)",
            "{policy:?}"
        );
    }
}

/// The OTC stream `First` fold: column tree 5 is contended at position 0
/// (rows 0 and 3), tree 2 at position 3 (rows 2 and 4) and position 1
/// (rows 1 and 6). The panic names tree 2 and its lowest contended
/// position, 1, under either policy.
#[test]
fn otc_contention_names_the_lowest_contended_tree_and_position() {
    for policy in [ParallelPolicy::Sequential, ParallelPolicy::Threads] {
        let message = panic_message(|| {
            let mut net = Otc::new(8, 4, CostModel::thompson(32)).unwrap();
            net.set_parallel_policy(policy);
            let a = net.alloc_reg("A");
            net.cycle_to_root(Axis::Cols, a, |i, j, q, _| {
                matches!((j, q, i), (2, 1, 1 | 6) | (2, 3, 2 | 4) | (5, 0, 0 | 3))
            });
        });
        assert_eq!(
            message,
            "CYCLETOROOT contention: tree 2 position 1 selected twice \
             (invariant: one cycle per tree and position)",
            "{policy:?}"
        );
    }
}
