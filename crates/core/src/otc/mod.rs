//! The orthogonal tree cycles (paper §V).
//!
//! An `(m × m)`-OTC is an `(m × m)`-OTN in which every BP is replaced by a
//! *cycle* of `L = Θ(log N)` BPs; `BP(0)` of each cycle connects to the row
//! and column trees. A tree root now streams `L` words per operation, one
//! per pipelined round of `{tree primitive; VECTORCIRCULATE}` (§V.B), so
//! every communication operation still takes `Θ(log² N)` — but the layout
//! area drops from `Θ(N² log² N)` to `Θ(N²)`.
//!
//! BPs are addressed by triples `(i, j, q)`: cycle row, cycle column,
//! position within the cycle. Roots hold *buffers* of `L` words (the
//! streamed sequence), not single words.
//!
//! Submodules: [`sort`] (SORT-OTC, §VI.A), [`matmul`], [`cc`] and [`mst`]
//! (the §VI.B direct conversions of the §III matrix and graph algorithms)
//! and [`emulate`] (the §V simulation argument priced from op counts).

pub mod cc;
pub mod emulate;
pub mod matmul;
pub mod mst;
pub mod sort;

use crate::checkpoint::Buffers;
use crate::plane::{self, Plane};
use crate::primitive;
use crate::runtime::{Kind, Runtime};
use crate::word::Word;
use orthotrees_obs::causal::ReachCell;
use orthotrees_vlsi::{log2_ceil, log2_floor, BitTime, CostKind, CostModel, ModelError};
use std::ops::{Deref, DerefMut};

pub use super::otn::Axis;

/// Handle to a register plane allocated with [`Otc::alloc_reg`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Reg(usize);

impl Reg {
    /// The plane's index in allocation order — the `reg` coordinate of
    /// reach events and the key into [`Runtime::reg_names`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// Read-only view of all register planes for selectors.
pub struct OtcRegsView<'a> {
    regs: &'a [Plane],
    m: usize,
    cycle: usize,
}

impl OtcRegsView<'_> {
    /// The value of register `r` at BP `(i, j, q)`.
    ///
    /// # Panics
    ///
    /// Panics if the register or coordinates are out of range.
    #[inline]
    pub fn get(&self, r: Reg, i: usize, j: usize, q: usize) -> Option<Word> {
        self.regs[r.0].get(cell(self.m, self.cycle, i, j, q))
    }
}

/// The flat index `(i·m + j)·L + q` of BP `(i, j, q)`.
///
/// # Panics
///
/// Panics if the coordinates are out of range.
#[inline]
fn cell(m: usize, cycle: usize, i: usize, j: usize, q: usize) -> usize {
    assert!(i < m && j < m && q < cycle, "({i},{j},{q}) out of {m}x{m}x{cycle}");
    (i * m + j) * cycle + q
}

/// Per-cycle register access during a cycle-local compute phase.
pub struct CycleRegs<'a> {
    regs: &'a mut [Plane],
    /// The flat index of the cycle's position 0.
    base: usize,
    cycle: usize,
}

impl CycleRegs<'_> {
    /// This cycle's register `r` at position `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn get(&self, r: Reg, q: usize) -> Option<Word> {
        assert!(q < self.cycle, "cycle position {q} out of range");
        self.regs[r.0].get(self.base + q)
    }

    /// Sets this cycle's register `r` at position `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn set(&mut self, r: Reg, q: usize, v: Option<Word>) {
        assert!(q < self.cycle, "cycle position {q} out of range");
        self.regs[r.0].set(self.base + q, v);
    }

    /// Cycle length.
    pub fn len(&self) -> usize {
        self.cycle
    }

    /// Always false — cycles have at least two BPs.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Cost class of a local compute phase (re-exported shape of the OTN's).
pub use super::otn::PhaseCost;

/// The orthogonal tree cycles network. The clock, instruments, fault
/// plan and parallel policy live in the shared [`Runtime`] the network
/// dereferences to; the OTC's trees have one leaf per *cycle*, so a dark
/// leaf is a whole cycle cut from one of its trees.
#[derive(Clone, Debug)]
pub struct Otc {
    rt: Runtime,
    m: usize,
    cycle: usize,
    regs: Vec<Plane>,
    row_roots: Vec<Vec<Option<Word>>>,
    col_roots: Vec<Vec<Option<Word>>>,
}

impl Deref for Otc {
    type Target = Runtime;

    #[inline]
    fn deref(&self) -> &Runtime {
        &self.rt
    }
}

impl DerefMut for Otc {
    #[inline]
    fn deref_mut(&mut self) -> &mut Runtime {
        &mut self.rt
    }
}

impl Otc {
    /// The paper's decomposition of a problem of size `n` (a power of two)
    /// into `(m, cycle_len)` with `m · cycle_len = n`, both powers of two
    /// and `cycle_len = Θ(log n)` — the same convention as
    /// `orthotrees_layout::otc::otc_dims` (kept in sync by an integration
    /// test).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if `n` is not a power of two or `n < 4`.
    pub fn dims_for(n: usize) -> Result<(usize, usize), ModelError> {
        ModelError::require_power_of_two("OTC problem size", n)?;
        ModelError::require_at_least("OTC problem size", n, 4)?;
        let logn = log2_ceil(n as u64).max(2);
        let cycle = (1usize << log2_floor(u64::from(logn))).min(n / 2);
        Ok((n / cycle, cycle))
    }

    /// Creates an `(m × m)`-OTC of cycles of length `cycle` under `model`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] unless `m` and `cycle` are powers of two with
    /// `cycle ≥ 2`.
    pub fn new(m: usize, cycle: usize, model: CostModel) -> Result<Self, ModelError> {
        ModelError::require_power_of_two("OTC side length", m)?;
        ModelError::require_power_of_two("cycle length", cycle)?;
        ModelError::require_at_least("cycle length", cycle, 2)?;
        // Layout pitch: cycle blocks are Θ(log N) on a side (Fig. 2), and
        // the tree channels add the grid depth (same convention as the
        // layout crate).
        let depth = log2_ceil(m as u64);
        let block = (2 * cycle as u64 - 1).max(u64::from(model.word_bits) + 1);
        let pitch = block + u64::from(depth) + 1;
        Ok(Otc {
            rt: Runtime::new(Kind::Otc, model, pitch, [m, m]),
            m,
            cycle,
            regs: Vec::new(),
            row_roots: vec![vec![None; cycle]; m],
            col_roots: vec![vec![None; cycle]; m],
        })
    }

    /// The OTC that sorts `n` numbers: [`Otc::dims_for`]`(n)` with
    /// Thompson's model at word width `⌈log₂ n⌉`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if `n` is not a power of two or `n < 4`.
    ///
    /// # Example
    ///
    /// ```
    /// use orthotrees::otc::{self, Otc};
    /// let mut net = Otc::for_sorting(16)?;
    /// assert_eq!((net.side(), net.cycle_len()), (4, 4));
    /// let out = otc::sort::sort(&mut net, &(0..16).rev().collect::<Vec<_>>())?;
    /// assert_eq!(out.sorted, (0..16).collect::<Vec<_>>());
    /// # Ok::<(), orthotrees::ModelError>(())
    /// ```
    pub fn for_sorting(n: usize) -> Result<Self, ModelError> {
        let (m, cycle) = Self::dims_for(n)?;
        Otc::new(m, cycle, CostModel::thompson(n))
    }

    /// Cycles per side.
    pub fn side(&self) -> usize {
        self.m
    }

    /// BPs per cycle.
    pub fn cycle_len(&self) -> usize {
        self.cycle
    }

    /// Total base processors (`m² · cycle`).
    pub fn base_processors(&self) -> usize {
        self.m * self.m * self.cycle
    }

    /// Runs `f`, returning its result and the elapsed simulated time.
    pub fn elapsed<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> (R, BitTime) {
        let before = self.clock().now();
        let r = f(self);
        (r, self.clock().now() - before)
    }

    /// Allocates a register plane (one word per BP, initially `NULL`).
    pub fn alloc_reg(&mut self, name: &'static str) -> Reg {
        self.regs.push(Plane::new(self.base_processors()));
        self.rt.reg_names.push(name);
        Reg(self.regs.len() - 1)
    }

    /// Reads one BP register (host-side, free).
    ///
    /// # Panics
    ///
    /// Panics if the register or coordinates are out of range.
    pub fn peek(&self, r: Reg, i: usize, j: usize, q: usize) -> Option<Word> {
        self.regs[r.0].get(cell(self.m, self.cycle, i, j, q))
    }

    /// Loads a register plane from `f(i, j, q)`.
    pub fn load_reg(&mut self, r: Reg, mut f: impl FnMut(usize, usize, usize) -> Option<Word>) {
        let mut at = 0;
        for i in 0..self.m {
            for j in 0..self.m {
                for q in 0..self.cycle {
                    self.regs[r.0].set(at, f(i, j, q));
                    at += 1;
                }
            }
        }
        self.clock_mut().stats_mut().inputs += self.base_processors() as u64;
    }

    /// Places `L` words at each row root's stream buffer (input ports;
    /// §VI.A: "log N numbers will have to be entered through each port").
    ///
    /// # Panics
    ///
    /// Panics unless `values` is `m` buffers of `cycle` words.
    pub fn load_row_root_buffers(&mut self, values: &[Vec<Word>]) {
        assert_eq!(values.len(), self.m, "one buffer per row root");
        for (t, buf) in values.iter().enumerate() {
            assert_eq!(buf.len(), self.cycle, "buffer length must equal the cycle length");
            self.row_roots[t] = buf.iter().map(|&v| Some(v)).collect();
        }
        self.clock_mut().stats_mut().inputs += (self.m * self.cycle) as u64;
    }

    /// Reads the column roots' stream buffers (output ports).
    pub fn read_col_root_buffers(&self) -> Vec<Vec<Option<Word>>> {
        self.col_roots.clone()
    }

    fn roots_mut(&mut self, axis: Axis) -> &mut Vec<Vec<Option<Word>>> {
        match axis {
            Axis::Rows => &mut self.row_roots,
            Axis::Cols => &mut self.col_roots,
        }
    }

    /// The root stream buffers of `axis`.
    pub fn roots(&self, axis: Axis) -> &[Vec<Option<Word>>] {
        match axis {
            Axis::Rows => &self.row_roots,
            Axis::Cols => &self.col_roots,
        }
    }

    /// The cost of one streamed tree operation: `L` pipelined words behind
    /// one tree traversal (§V.B: "a pipeline of length O(log² N) in which
    /// log N elements are transmitted at O(log N) intervals of time").
    pub fn stream_cost(&self, aggregate: bool) -> BitTime {
        let kind = if aggregate { CostKind::StreamAggregate } else { CostKind::StreamBroadcast };
        self.model().primitive_cost(kind, self.m, self.pitch(), self.cycle)
    }

    // ------------------------------------------------------------------
    // The shared descriptor-driven executor (see [`crate::primitive`]).
    // Every §V.B stream primitive below is a thin call into these:
    // selector gather (fanned out per tree under ParallelPolicy::Threads)
    // → fault round → per-stream-word transit → register/root-buffer
    // writes → one registry-derived charge.
    // ------------------------------------------------------------------

    /// The downward stream executor (`ROOTTOCYCLE`): gathers the selected
    /// cycles as a [`Selection`](plane::Selection), then transits and
    /// writes every stream word in memory order (cycle row by cycle row,
    /// each cycle's positions in turn), and charges the registry cost.
    /// Reach events keep the paper's tree → cycle order in a pass of
    /// their own (see [`Otn`](crate::otn::Otn)'s `tree_downward`).
    fn stream_downward(
        &mut self,
        name: &str,
        axis: Axis,
        dest: Reg,
        sel: &(impl Fn(usize, usize, &OtcRegsView<'_>) -> bool + Sync),
    ) {
        let spec = primitive::spec_for(name);
        debug_assert!(
            crate::dflow::shape_of(spec) == Some(crate::dflow::FlowShape::StreamDown),
            "{} is not a StreamDown-shaped primitive",
            spec.name
        );
        self.begin_phase(spec.name);
        let (m, cycle) = (self.m, self.cycle);
        let picked = {
            let view = OtcRegsView { regs: &self.regs, m, cycle };
            plane::Selection::gather(self.parallel_policy(), m, m, |i, j| {
                let (t, l) = axis.coords(i, j);
                sel(i, j, &view) && !self.rt.is_dark(axis, t, l)
            })
        };
        self.begin_fault_round();
        if let Some(rec) = self.rt.recorder.as_mut().filter(|rec| rec.reach_enabled()) {
            rec.reach_round_begin();
            // One reach event per delivered cycle (the program abstracts
            // the whole cycle as one leaf cell), not per stream position.
            for (t, l) in picked.tree_order(axis, m, m) {
                let to = ReachCell::Reg { reg: dest.0 as u64, leaf: l as u64 };
                rec.reach(t as u64, ReachCell::Root, to);
            }
        }
        let mut attempts = 0;
        let roots = self.roots(axis).to_vec();
        let (rt, plane) = (&mut self.rt, &mut self.regs[dest.0]);
        for i in 0..m {
            let (words, valid) = plane.run_mut(i * m * cycle, (i + 1) * m * cycle);
            picked.for_each_in(i, 0..m, |j| {
                let (t, l) = axis.coords(i, j);
                for (q, &word) in roots[t].iter().enumerate() {
                    let (v, att) = rt.word_transit(axis, t, l * cycle + q, word);
                    attempts = attempts.max(att);
                    words[j * cycle + q] = v.unwrap_or(0);
                    valid[j * cycle + q] = v.is_some();
                }
            });
        }
        self.rt.charge_primitive(spec, axis, self.cycle, attempts);
        self.end_phase();
    }

    /// The upward stream executor (`CYCLETOROOT` and the stream
    /// aggregates): per tree and stream position, folds the selected
    /// cycles' words through `spec`'s combine
    /// [`Monoid`](crate::primitive::Monoid): gathers one selection bit per
    /// cycle position, folds the selected words in one memory-order sweep
    /// ([`primitive::fold_trees`]), then transits each root-bound word in
    /// tree order and charges the registry cost.
    ///
    /// # Panics
    ///
    /// Without a fault plan, panics on `First` contention, naming the
    /// lowest contended tree and its lowest contended position.
    fn stream_upward(
        &mut self,
        name: &str,
        axis: Axis,
        src: Reg,
        sel: &(impl Fn(usize, usize, usize, &OtcRegsView<'_>) -> bool + Sync),
    ) {
        let spec = primitive::spec_for(name);
        // Invariant: aggregate executors are only called with registry
        // primitives that declare a combine monoid (pinned by the registry
        // coverage tests) — a `None` is a registry-definition bug.
        let monoid =
            spec.combine.unwrap_or_else(|| panic!("{} declares no combine monoid", spec.name));
        debug_assert!(
            crate::dflow::shape_of(spec) == Some(crate::dflow::FlowShape::StreamUp),
            "{} is not a StreamUp-shaped primitive",
            spec.name
        );
        self.begin_phase(spec.name);
        let (m, cycle) = (self.m, self.cycle);
        let folds = {
            let view = OtcRegsView { regs: &self.regs, m, cycle };
            let policy = self.parallel_policy();
            let shift = cycle.trailing_zeros();
            // One selection bit per cycle position: column `j·L + q`.
            let picked = plane::Selection::gather(policy, m, m * cycle, |i, c| {
                let (j, q) = (c >> shift, c & (cycle - 1));
                let (t, l) = axis.coords(i, j);
                sel(i, j, q, &view) && !self.rt.is_dark(axis, t, l)
            });
            let (tracing, words) = (self.reach_tracing(), &self.regs[src.0]);
            let shape = [m, m, cycle];
            primitive::fold_trees(policy, axis, &picked, shape, monoid, tracing, |at| words.get(at))
        };
        // On First contention under faults, the fold keeps the first word
        // (corrupted selectors legitimately collide); in a healthy net it
        // is an invariant violation.
        if let Some((t, q)) = folds.first_contended() {
            assert!(
                self.has_fault_plan(),
                "{} contention: tree {t} position {q} selected twice \
                 (invariant: one cycle per tree and position)",
                spec.name
            );
        }
        if let Some(rec) = self.rt.recorder.as_mut().filter(|rec| rec.reach_enabled()) {
            rec.reach_round_begin();
            for t in 0..m {
                for l in folds.contributors(t) {
                    rec.reach(
                        t as u64,
                        ReachCell::Reg { reg: src.0 as u64, leaf: l as u64 },
                        ReachCell::Root,
                    );
                }
            }
        }
        let mut new_roots: Vec<Vec<Option<Word>>> =
            (0..m).map(|t| (0..cycle).map(|q| folds.root(t, q)).collect()).collect();
        self.begin_fault_round();
        let mut attempts = 0;
        if self.has_fault_plan() {
            // Root-bound slots sit above the per-cycle broadcast slot
            // range (`m * cycle`), keeping sites injective.
            let site_base = self.m * self.cycle;
            for (t, row) in new_roots.iter_mut().enumerate() {
                for (q, slot) in row.iter_mut().enumerate() {
                    let (v, att) = self.word_transit(axis, t, site_base + q, *slot);
                    attempts = attempts.max(att);
                    *slot = v;
                }
            }
        }
        *self.roots_mut(axis) = new_roots;
        self.rt.charge_primitive(spec, axis, self.cycle, attempts);
        self.end_phase();
    }

    // ------------------------------------------------------------------
    // Primitives (§V.B).
    // ------------------------------------------------------------------

    /// `VECTORCIRCULATE` over every cycle: each listed register rotates one
    /// position (`R(q) := R((q+1) mod L)`).
    pub fn circulate(&mut self, regs: &[Reg]) {
        let tracing = self.reach_tracing();
        if let Some(rec) = self.rt.recorder.as_mut().filter(|_| tracing) {
            rec.reach_round_begin();
        }
        for r in regs {
            self.regs[r.0].rotate_runs_left(self.cycle);
            // The rotate program names cycle positions as leaves and each
            // cycle `(i, j)` as its own tree.
            if tracing {
                let (m, cycle) = (self.m, self.cycle);
                if let Some(rec) = self.rt.recorder.as_mut() {
                    for i in 0..m {
                        for j in 0..m {
                            for q in 0..cycle {
                                rec.reach(
                                    (i * m + j) as u64,
                                    ReachCell::Reg {
                                        reg: r.0 as u64,
                                        leaf: ((q + 1) % cycle) as u64,
                                    },
                                    ReachCell::Reg { reg: r.0 as u64, leaf: q as u64 },
                                );
                            }
                        }
                    }
                }
            }
        }
        // One O(1)-long hop inside the cycle block, then the word tail.
        // Never a faultable tree traversal, so no fault-overhead charge.
        let spec = primitive::spec_for("VECTORCIRCULATE");
        self.begin_phase(spec.name);
        let (model, pitch) = (*self.model(), self.pitch());
        let t = model.primitive_cost(CostKind::CycleStep, self.m, pitch, self.cycle);
        let parts = crate::attribution::primitive_parts(
            &model,
            CostKind::CycleStep,
            self.m,
            pitch,
            self.cycle,
        );
        self.seg_charge(t, &parts);
        self.end_phase();
        self.clock_mut().stats_mut().circulates += 1;
    }

    /// `ROOTTOCYCLE(Vector, Dest)`: each tree of `axis` streams its root
    /// buffer to the selected cycles; `dest[q] := buffer[q]`.
    ///
    /// Under an installed [`FaultPlan`](crate::FaultPlan), every delivered
    /// stream word is an independent transit and dark cycles receive
    /// nothing.
    pub fn root_to_cycle(
        &mut self,
        axis: Axis,
        dest: Reg,
        sel: impl Fn(usize, usize, &OtcRegsView<'_>) -> bool + Sync,
    ) {
        self.stream_downward("ROOTTOCYCLE", axis, dest, &sel);
    }

    /// `CYCLETOROOT(Vector, Source)`: each tree's root receives, for every
    /// stream position `q`, register `src[q]` of the cycle selected for
    /// that position (the paper's per-position selector: "Number (q) is
    /// taken from register B(q) of cycle (i,j) such that register A(q) in
    /// this cycle contains a 1").
    ///
    /// Under an installed [`FaultPlan`](crate::FaultPlan), dark cycles
    /// cannot reach the root, each ascending stream word is one
    /// parity-checked transit, and per-position contention keeps the first
    /// selected cycle instead of panicking (corrupted selectors
    /// legitimately collide).
    ///
    /// # Panics
    ///
    /// Without a fault plan, panics if two cycles of the same tree are
    /// selected for the same stream position — invariant: the per-position
    /// selector specifies at most one cycle per tree.
    pub fn cycle_to_root(
        &mut self,
        axis: Axis,
        src: Reg,
        sel: impl Fn(usize, usize, usize, &OtcRegsView<'_>) -> bool + Sync,
    ) {
        self.stream_upward("CYCLETOROOT", axis, src, &sel);
    }

    /// `SUM-CYCLETOROOT`: root buffer position `q` receives the sum over
    /// the selected cycles of `src[q]` (`NULL` contributes nothing).
    pub fn sum_cycle_to_root(
        &mut self,
        axis: Axis,
        src: Reg,
        sel: impl Fn(usize, usize, usize, &OtcRegsView<'_>) -> bool + Sync,
    ) {
        self.stream_upward("SUM-CYCLETOROOT", axis, src, &sel);
    }

    /// `MIN-CYCLETOROOT`: per-position minimum over the selected cycles.
    pub fn min_cycle_to_root(
        &mut self,
        axis: Axis,
        src: Reg,
        sel: impl Fn(usize, usize, usize, &OtcRegsView<'_>) -> bool + Sync,
    ) {
        self.stream_upward("MIN-CYCLETOROOT", axis, src, &sel);
    }

    /// `CYCLETOCYCLE(Vector, Source, Dest)` (§V.B composite 3).
    ///
    /// # Panics
    ///
    /// Panics on source contention, like [`Otc::cycle_to_root`].
    pub fn cycle_to_cycle(
        &mut self,
        axis: Axis,
        src: Reg,
        src_sel: impl Fn(usize, usize, usize, &OtcRegsView<'_>) -> bool + Sync,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &OtcRegsView<'_>) -> bool + Sync,
    ) {
        Runtime::composite(self, "CYCLETOCYCLE", |n| {
            n.cycle_to_root(axis, src, src_sel);
            n.root_to_cycle(axis, dest, dest_sel);
        });
    }

    /// `SUM-CYCLETOCYCLE`.
    pub fn sum_cycle_to_cycle(
        &mut self,
        axis: Axis,
        src: Reg,
        src_sel: impl Fn(usize, usize, usize, &OtcRegsView<'_>) -> bool + Sync,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &OtcRegsView<'_>) -> bool + Sync,
    ) {
        Runtime::composite(self, "SUM-CYCLETOCYCLE", |n| {
            n.sum_cycle_to_root(axis, src, src_sel);
            n.root_to_cycle(axis, dest, dest_sel);
        });
    }

    /// `MIN-CYCLETOCYCLE`.
    pub fn min_cycle_to_cycle(
        &mut self,
        axis: Axis,
        src: Reg,
        src_sel: impl Fn(usize, usize, usize, &OtcRegsView<'_>) -> bool + Sync,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &OtcRegsView<'_>) -> bool + Sync,
    ) {
        Runtime::composite(self, "MIN-CYCLETOCYCLE", |n| {
            n.min_cycle_to_root(axis, src, src_sel);
            n.root_to_cycle(axis, dest, dest_sel);
        });
    }

    /// One parallel per-BP compute phase (`f(i, j, q, value) → value` over
    /// one register), charged once.
    pub fn bp_phase(
        &mut self,
        cost: PhaseCost,
        mut f: impl FnMut(usize, usize, usize, &OtcRegsView<'_>) -> Option<(Reg, Option<Word>)>,
    ) {
        let mut writes = Vec::new();
        {
            let view = OtcRegsView { regs: &self.regs, m: self.m, cycle: self.cycle };
            let mut at = 0;
            for i in 0..self.m {
                for j in 0..self.m {
                    for q in 0..self.cycle {
                        if let Some((r, v)) = f(i, j, q, &view) {
                            writes.push((r, at, v));
                        }
                        at += 1;
                    }
                }
            }
        }
        for (r, at, v) in writes {
            self.regs[r.0].set(at, v);
        }
        let t = self.phase_cost(cost);
        self.charge_compute("BP-PHASE", t);
    }

    /// Zeroes a register plane as one parallel bit phase (flag reset).
    pub fn clear_reg(&mut self, r: Reg) {
        self.bp_phase(PhaseCost::Bit, move |_, _, _, _| Some((r, Some(0))));
    }

    /// One cycle-local compute phase: `f(i, j, cycle_view)` may read and
    /// write all positions of its cycle; `cost` is charged once for the
    /// parallel phase (use `PhaseCost::Words(L)` for a full cycle scan).
    pub fn cycle_phase(
        &mut self,
        cost: PhaseCost,
        mut f: impl FnMut(usize, usize, &mut CycleRegs<'_>),
    ) {
        for i in 0..self.m {
            for j in 0..self.m {
                let base = (i * self.m + j) * self.cycle;
                let mut view = CycleRegs { regs: &mut self.regs, base, cycle: self.cycle };
                f(i, j, &mut view);
            }
        }
        let t = self.phase_cost(cost);
        self.charge_compute("CYCLE-PHASE", t);
    }
}

impl crate::checkpoint::sealed::Cells for Otc {
    fn shape(&self) -> [usize; 2] {
        [self.m, self.cycle]
    }

    fn save_cells(&self) -> (Buffers, [Buffers; 2]) {
        (
            self.regs.iter().map(Plane::to_vec).collect(),
            [self.row_roots.clone(), self.col_roots.clone()],
        )
    }

    fn load_cells(&mut self, planes: &[Vec<Option<Word>>], roots: &[Buffers; 2]) {
        self.regs.truncate(planes.len());
        for (plane, cells) in self.regs.iter_mut().zip(planes) {
            plane.load(cells);
        }
        self.row_roots.clone_from(&roots[0]);
        self.col_roots.clone_from(&roots[1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Otc {
        // m = 4 cycles per side, cycles of length 4 (problem size 16).
        Otc::for_sorting(16).unwrap()
    }

    #[test]
    fn dims_match_the_convention() {
        assert_eq!(Otc::dims_for(16).unwrap(), (4, 4));
        assert_eq!(Otc::dims_for(64).unwrap(), (16, 4));
        assert_eq!(Otc::dims_for(256).unwrap(), (32, 8));
        assert!(Otc::dims_for(6).is_err());
        assert!(Otc::dims_for(2).is_err());
    }

    #[test]
    fn construction_and_counts() {
        let n = net();
        assert_eq!(n.side(), 4);
        assert_eq!(n.cycle_len(), 4);
        assert_eq!(n.base_processors(), 64);
    }

    #[test]
    fn circulate_rotates_registers() {
        let mut n = net();
        let a = n.alloc_reg("A");
        n.load_reg(a, |_, _, q| Some(q as Word));
        n.circulate(&[a]);
        for q in 0..4 {
            assert_eq!(n.peek(a, 2, 3, q), Some(((q + 1) % 4) as Word));
        }
        assert_eq!(n.clock().stats().circulates, 1);
    }

    #[test]
    fn root_to_cycle_delivers_the_stream() {
        let mut n = net();
        let a = n.alloc_reg("A");
        n.load_row_root_buffers(&[
            vec![0, 1, 2, 3],
            vec![10, 11, 12, 13],
            vec![20, 21, 22, 23],
            vec![30, 31, 32, 33],
        ]);
        n.root_to_cycle(Axis::Rows, a, |_, j, _| j != 0);
        assert_eq!(n.peek(a, 1, 2, 3), Some(13));
        assert_eq!(n.peek(a, 1, 0, 3), None, "unselected cycle untouched");
    }

    #[test]
    fn cycle_to_root_with_per_position_selection() {
        let mut n = net();
        let a = n.alloc_reg("A");
        // Position q is supplied by cycle (q, j) of each column j.
        n.load_reg(a, |i, j, q| Some((100 * i + 10 * j + q) as Word));
        n.cycle_to_root(Axis::Cols, a, |i, _, q, _| i == q);
        let roots = n.roots(Axis::Cols);
        assert_eq!(roots[2][3], Some(300 + 20 + 3));
        assert_eq!(roots[0][0], Some(0));
    }

    #[test]
    #[should_panic(expected = "contention")]
    fn cycle_to_root_detects_contention() {
        let mut n = net();
        let a = n.alloc_reg("A");
        n.load_reg(a, |_, _, _| Some(1));
        n.cycle_to_root(Axis::Rows, a, |_, _, _, _| true);
    }

    #[test]
    fn sum_and_min_aggregate_per_position() {
        let mut n = net();
        let a = n.alloc_reg("A");
        n.load_reg(a, |i, j, q| Some((i + j + q) as Word));
        n.sum_cycle_to_root(Axis::Rows, a, |_, _, _, _| true);
        // Row i, position q: Σ_j (i+j+q) = 4(i+q) + 6.
        assert_eq!(n.roots(Axis::Rows)[1][2], Some(4 * 3 + 6));
        n.min_cycle_to_root(Axis::Cols, a, |_, _, _, _| true);
        // Column j, position q: min_i (i+j+q) = j+q.
        assert_eq!(n.roots(Axis::Cols)[3][1], Some(4));
    }

    #[test]
    fn cycle_to_cycle_moves_streams_between_cycles() {
        let mut n = net();
        let a = n.alloc_reg("A");
        let b = n.alloc_reg("B");
        n.load_reg(a, |i, _, q| Some((10 * i + q) as Word));
        // Column trees: diagonal cycle (j,j) feeds all cycles of column j.
        n.cycle_to_cycle(Axis::Cols, a, |i, j, _, _| i == j, b, |_, _, _| true);
        for i in 0..4 {
            assert_eq!(n.peek(b, i, 2, 1), Some(21));
        }
    }

    #[test]
    fn cycle_phase_permits_cycle_local_shuffles() {
        let mut n = net();
        let a = n.alloc_reg("A");
        n.load_reg(a, |_, _, q| Some(q as Word));
        n.cycle_phase(PhaseCost::Words(4), |_, _, c| {
            let l = c.len();
            for q in 0..l {
                c.set(a, q, Some(((l - 1 - q) as Word) * 2));
            }
        });
        assert_eq!(n.peek(a, 0, 0, 0), Some(6));
        assert_eq!(n.peek(a, 0, 0, 3), Some(0));
    }

    #[test]
    fn stream_cost_is_theta_log_squared() {
        // One streamed op on the OTC ≈ one tree op on the same-size OTN:
        // both Θ(log² N).
        let mut ratios = Vec::new();
        for k in [4u32, 6, 8, 10] {
            let n = 1usize << k;
            let net = Otc::for_sorting(n).unwrap();
            ratios.push(net.stream_cost(false).as_f64() / (k as f64 * k as f64));
        }
        let lo = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ratios.iter().cloned().fold(0.0f64, f64::max);
        assert!(hi / lo < 4.0, "{ratios:?}");
    }

    #[test]
    fn zero_and_null_stay_distinct_in_streams() {
        let mut n = net();
        let a = n.alloc_reg("A");
        // Cycle (i, j) position q: 0 on even q, NULL on odd q of row 0;
        // NULL everywhere in row 1; q - 1 elsewhere (so -1, 0, 1, 2).
        let cell = |i: usize, q: usize| match i {
            0 => q.is_multiple_of(2).then_some(0),
            1 => None,
            _ => Some(q as Word - 1),
        };
        n.load_reg(a, |i, _, q| cell(i, q));
        assert_eq!(n.peek(a, 0, 3, 2), Some(0));
        assert_eq!(n.peek(a, 0, 3, 1), None);
        n.sum_cycle_to_root(Axis::Rows, a, |_, _, _, _| true);
        assert_eq!(n.roots(Axis::Rows)[0], [Some(0); 4], "NULL contributes nothing");
        assert_eq!(n.roots(Axis::Rows)[2], [Some(-4), Some(0), Some(4), Some(8)]);
        n.min_cycle_to_root(Axis::Rows, a, |_, _, _, _| true);
        assert_eq!(n.roots(Axis::Rows)[0], [Some(0), None, Some(0), None], "NULL is no 0");
        assert_eq!(n.roots(Axis::Rows)[1], [None; 4]);
        let b = n.alloc_reg("B");
        n.load_reg(b, |_, _, _| Some(5));
        n.root_to_cycle(Axis::Rows, b, |_, j, _| j == 1);
        assert_eq!(n.peek(b, 0, 1, 0), Some(0));
        assert_eq!(n.peek(b, 0, 1, 1), None, "a relayed NULL clears the cell");
        assert_eq!(n.peek(b, 0, 0, 1), Some(5), "unselected cycle untouched");
    }

    #[test]
    fn an_erasure_clears_a_valid_stream_word() {
        let mut n = net();
        n.install_fault_plan(
            crate::FaultPlan::new(5).with_word_fault_rate(0.5).with_max_retries(0),
        );
        let a = n.alloc_reg("A");
        n.load_reg(a, |_, _, _| Some(-9));
        n.load_row_root_buffers(&vec![vec![3; 4]; 4]);
        n.root_to_cycle(Axis::Rows, a, |_, _, _| true);
        let cells = crate::checkpoint::sealed::Cells::save_cells(&n).0.remove(0);
        let erasures = n.fault_stats().erasures;
        assert!(erasures > 0, "the plan must erase some deliveries");
        assert_eq!(cells.iter().filter(|v| v.is_none()).count() as u64, erasures);
        assert!(!cells.contains(&Some(-9)), "every delivery overwrote its cell");
    }

    /// Cycles on both sides of a 64-bit selection-word boundary, and the
    /// last cycle, on a 128-cycle-per-side network.
    #[test]
    fn selections_across_mask_words_hit_exactly_their_cycles() {
        let mut n = Otc::new(128, 2, CostModel::thompson(256)).unwrap();
        let a = n.alloc_reg("A");
        n.load_row_root_buffers(&(0..128).map(|t| vec![t, -t]).collect::<Vec<_>>());
        n.root_to_cycle(Axis::Rows, a, |i, j, _| matches!((i, j), (0, 127) | (5, 63) | (5, 64)));
        let mut hit = Vec::new();
        for i in 0..128 {
            for j in 0..128 {
                if let Some(v) = n.peek(a, i, j, 0) {
                    assert_eq!((v, n.peek(a, i, j, 1)), (i as Word, Some(-(i as Word))));
                    hit.push((i, j));
                }
            }
        }
        assert_eq!(hit, [(0, 127), (5, 63), (5, 64)]);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn peek_past_the_cycle_panics_even_inside_the_plane() {
        let mut n = net();
        let a = n.alloc_reg("A");
        // (0, 0, 4) would alias (0, 1, 0) in the flat plane.
        let _ = n.peek(a, 0, 0, 4);
    }

    #[test]
    fn bp_phase_writes_through_the_view() {
        let mut n = net();
        let a = n.alloc_reg("A");
        let b = n.alloc_reg("B");
        n.load_reg(a, |i, j, q| Some((i + j + q) as Word));
        n.bp_phase(PhaseCost::Add, |i, j, q, v| v.get(a, i, j, q).map(|x| (b, Some(x * 2))));
        assert_eq!(n.peek(b, 1, 2, 3), Some(12));
    }
}
