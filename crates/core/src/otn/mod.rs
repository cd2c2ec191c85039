//! The orthogonal trees network (paper §II).
//!
//! An `(R × C)`-OTN is a matrix of *base processors* (BPs) in which every
//! row and every column of BPs forms the leaves of a complete binary tree of
//! *internal processors* (IPs). BPs hold a small set of `O(log N)`-bit
//! registers; IPs only relay (and, for the aggregating primitives, combine)
//! words moving between the BPs and the tree roots. The roots of the row
//! trees are the network's input ports and the roots of the column trees its
//! output ports (§II.A).
//!
//! [`Otn`] implements the structure *functionally* while charging every
//! primitive's cost — derived from the layout's wire lengths under the
//! active delay model — to a simulated clock. Algorithms (submodules
//! [`sort`], [`matmul`], [`graph`], [`bitonic`], [`dft`], [`pipeline`]) are
//! written purely in terms of these primitives, exactly as the paper's
//! procedures are.

pub mod bitonic;
pub mod dft;
pub mod graph;
pub mod matmul;
pub mod pipeline;
pub mod prefix;
pub mod sort;

use crate::checkpoint::Buffers;
use crate::plane::{self, Plane};
use crate::primitive;
use crate::resilience;
use crate::runtime::{Kind, Runtime};
use crate::word::Word;
use orthotrees_obs::causal::ReachCell;
use orthotrees_vlsi::{log2_ceil, BitTime, CostModel, ModelError};
use std::ops::{Deref, DerefMut};

/// Handle to a named register plane allocated with [`Otn::alloc_reg`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Reg(usize);

impl Reg {
    /// The plane's index in allocation order — the `reg` coordinate of
    /// reach events and the key into [`Runtime::reg_names`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// Which family of trees an operation runs on.
///
/// The paper writes `ROOTTOLEAF(row(i), …)` / `…(column(i), …)`; because a
/// tree operation costs the same whether one tree or all parallel trees of a
/// family take part (the hardware is there either way), the primitives here
/// always run a whole family in parallel — operating on a single row is the
/// special case of a selector that ignores the others.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Axis {
    /// The row trees: one tree per row, leaves indexed by column.
    Rows,
    /// The column trees: one tree per column, leaves indexed by row.
    Cols,
}

impl Axis {
    /// The opposite family.
    #[must_use]
    pub fn flip(self) -> Axis {
        match self {
            Axis::Rows => Axis::Cols,
            Axis::Cols => Axis::Rows,
        }
    }

    /// Grid (OTN) or cycle (OTC) coordinates of leaf `leaf` of tree
    /// `tree` of this family. The map is its own inverse: `coords(i, j)`
    /// is the `(tree, leaf)` that cell `(i, j)` sits on.
    #[inline]
    pub(crate) fn coords(self, tree: usize, leaf: usize) -> (usize, usize) {
        match self {
            Axis::Rows => (tree, leaf),
            Axis::Cols => (leaf, tree),
        }
    }
}

/// Cost class of a parallel base-processor compute phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseCost {
    /// Single-bit logic (flag set/test).
    Bit,
    /// One bit-serial comparison of two words.
    Compare,
    /// One bit-serial addition.
    Add,
    /// One serial-pipeline multiplication (refs \[6\], \[13\]).
    Multiply,
    /// `k` word-times (compound local step).
    Words(u64),
}

/// Read-only view of all register planes, handed to selectors so they can
/// express the paper's register predicates (e.g. SORT-OTN step 5's
/// `j : R(j, i) = i`).
pub struct RegsView<'a> {
    regs: &'a [Plane],
    shape: [usize; 2],
}

impl RegsView<'_> {
    /// The value of register `r` at BP `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the register or coordinates are out of range.
    #[inline]
    pub fn get(&self, r: Reg, row: usize, col: usize) -> Option<Word> {
        self.regs[r.0].get(cell(self.shape, row, col))
    }
}

/// The flat row-major index of BP `(row, col)` in a `[rows, cols]` grid.
///
/// # Panics
///
/// Panics if the coordinates are out of range.
#[inline]
fn cell([rows, cols]: [usize; 2], row: usize, col: usize) -> usize {
    assert!(row < rows && col < cols, "({row},{col}) out of {rows}x{cols}");
    row * cols + col
}

/// Per-BP register access during a compute phase.
pub struct BpRegs<'a> {
    regs: &'a mut [Plane],
    /// The BP's flat cell index, computed once per BP.
    at: usize,
}

impl BpRegs<'_> {
    /// This BP's value of register `r`.
    #[inline]
    pub fn get(&self, r: Reg) -> Option<Word> {
        self.regs[r.0].get(self.at)
    }

    /// Sets this BP's register `r`.
    #[inline]
    pub fn set(&mut self, r: Reg, v: Option<Word>) {
        self.regs[r.0].set(self.at, v);
    }
}

/// The orthogonal trees network.
///
/// See the [module documentation](self) for the structure; see
/// [`Otn::for_sorting`] / [`Otn::for_graphs`] / [`Otn::wide`] for the
/// constructors the algorithms use. The clock, instruments, fault plan
/// and parallel policy live in the shared [`Runtime`] the network
/// dereferences to.
#[derive(Clone, Debug)]
pub struct Otn {
    rt: Runtime,
    rows: usize,
    cols: usize,
    regs: Vec<Plane>,
    row_roots: Vec<Option<Word>>,
    col_roots: Vec<Option<Word>>,
}

impl Deref for Otn {
    type Target = Runtime;

    #[inline]
    fn deref(&self) -> &Runtime {
        &self.rt
    }
}

impl DerefMut for Otn {
    #[inline]
    fn deref_mut(&mut self) -> &mut Runtime {
        &mut self.rt
    }
}

impl Otn {
    /// Creates an `(rows × cols)`-OTN under `model`.
    ///
    /// The leaf pitch is taken from the layout convention of
    /// `orthotrees-layout`: `word_bits + max(log₂ rows, log₂ cols) + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] unless both dimensions are powers of two.
    pub fn new(rows: usize, cols: usize, model: CostModel) -> Result<Self, ModelError> {
        ModelError::require_power_of_two("OTN row count", rows)?;
        ModelError::require_power_of_two("OTN column count", cols)?;
        let depth = log2_ceil(rows.max(cols) as u64);
        let pitch = u64::from(model.word_bits) + u64::from(depth) + 1;
        Ok(Otn {
            rt: Runtime::new(Kind::Otn, model, pitch, [rows, cols]),
            rows,
            cols,
            regs: Vec::new(),
            row_roots: vec![None; rows],
            col_roots: vec![None; cols],
        })
    }

    /// A square `(n × n)`-OTN under Thompson's model with word width
    /// `⌈log₂ n⌉` — the configuration SORT-OTN assumes.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] unless `n` is a power of two.
    pub fn for_sorting(n: usize) -> Result<Self, ModelError> {
        Otn::new(n, n, CostModel::thompson(n))
    }

    /// A square `(n × n)`-OTN whose words are wide enough for the packed
    /// `(key, index)` pairs the graph algorithms transmit
    /// (`2⌈log₂ n⌉ + 2` bits; see [`crate::pack`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] unless `n` is a power of two.
    pub fn for_graphs(n: usize) -> Result<Self, ModelError> {
        let w = 2 * log2_ceil(n as u64).max(1) + 2;
        Otn::new(n, n, CostModel::thompson(n).with_word_bits(w))
    }

    /// A rectangular OTN (used by the wide matrix-multiplication networks
    /// of §III/§VI, whose row count is the *square* of the matrix side).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] unless both dimensions are powers of two.
    pub fn wide(rows: usize, cols: usize) -> Result<Self, ModelError> {
        Otn::new(rows, cols, CostModel::thompson(rows.max(cols)))
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Runs `f` and returns its result together with the elapsed simulated
    /// time.
    pub fn elapsed<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> (R, BitTime) {
        let before = self.clock().now();
        let r = f(self);
        (r, self.clock().now() - before)
    }

    /// Allocates a fresh register plane (initially all `NULL`).
    pub fn alloc_reg(&mut self, name: &'static str) -> Reg {
        self.regs.push(Plane::new(self.rows * self.cols));
        self.rt.reg_names.push(name);
        Reg(self.regs.len() - 1)
    }

    fn roots_mut(&mut self, axis: Axis) -> &mut Vec<Option<Word>> {
        match axis {
            Axis::Rows => &mut self.row_roots,
            Axis::Cols => &mut self.col_roots,
        }
    }

    /// The root registers of `axis` (row roots = input ports, column roots
    /// = output ports).
    pub fn roots(&self, axis: Axis) -> &[Option<Word>] {
        match axis {
            Axis::Rows => &self.row_roots,
            Axis::Cols => &self.col_roots,
        }
    }

    // ------------------------------------------------------------------
    // I/O (free: the paper assumes operands "initially available at the
    // input ports" / "initially stored in the base"; the pipelined input
    // costs are charged by the algorithms that model streaming input).
    // ------------------------------------------------------------------

    /// Places one word at each row root (input ports).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows`.
    pub fn load_row_roots(&mut self, values: &[Word]) {
        assert_eq!(values.len(), self.rows, "one value per row root");
        self.row_roots = values.iter().map(|&v| Some(v)).collect();
        self.clock_mut().stats_mut().inputs += values.len() as u64;
    }

    /// Reads the column roots (output ports).
    pub fn read_col_roots(&self) -> Vec<Option<Word>> {
        self.col_roots.clone()
    }

    /// Loads a full register plane from `f(row, col)` (initial operand
    /// placement).
    pub fn load_reg(&mut self, r: Reg, mut f: impl FnMut(usize, usize) -> Option<Word>) {
        for i in 0..self.rows {
            for j in 0..self.cols {
                self.regs[r.0].set(i * self.cols + j, f(i, j));
            }
        }
        self.clock_mut().stats_mut().inputs += (self.rows * self.cols) as u64;
    }

    /// Reads one register value (host-side inspection, free).
    ///
    /// # Panics
    ///
    /// Panics if the register or coordinates are out of range.
    pub fn peek(&self, r: Reg, row: usize, col: usize) -> Option<Word> {
        self.regs[r.0].get(cell([self.rows, self.cols], row, col))
    }

    /// Writes one register value without charging time — for use *inside*
    /// primitive implementations whose cost is charged explicitly (e.g.
    /// the scan primitives in [`prefix`]); algorithms should use
    /// [`Otn::bp_phase`] or the communication primitives instead.
    pub(crate) fn poke(&mut self, r: Reg, row: usize, col: usize, v: Option<Word>) {
        let at = cell([self.rows, self.cols], row, col);
        self.regs[r.0].set(at, v);
    }

    // ------------------------------------------------------------------
    // The shared descriptor-driven executor (tentpole of the primitive
    // registry). Every §II.B primitive below is a thin call into these:
    // selector gather (fanned out per tree under ParallelPolicy::Threads)
    // → fault round → per-word transit → register/root writes → one
    // registry-derived charge.
    // ------------------------------------------------------------------

    /// The downward executor (`ROOTTOLEAF`): gathers the selected leaves
    /// as a [`Selection`](plane::Selection), then transits and writes each
    /// delivered word in memory order (row trees: tree by tree; column
    /// trees: leaf row by leaf row, across the trees), then charges the
    /// registry cost. Transits are keyed by site, not by visiting order,
    /// so fault draws and `FaultStats` match any order; reach events keep
    /// the paper's tree → leaf order in a pass of their own.
    fn tree_downward(
        &mut self,
        name: &str,
        axis: Axis,
        dest: Reg,
        sel: &(impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync),
    ) {
        let spec = primitive::spec_for(name);
        debug_assert!(
            crate::dflow::shape_of(spec) == Some(crate::dflow::FlowShape::Down),
            "{} is not a Down-shaped primitive",
            spec.name
        );
        self.begin_phase(spec.name);
        let (rows, cols) = (self.rows, self.cols);
        let picked = {
            let view = RegsView { regs: &self.regs, shape: [rows, cols] };
            plane::Selection::gather(self.parallel_policy(), rows, cols, |i, j| {
                let (t, l) = axis.coords(i, j);
                sel(i, j, &view) && !self.rt.is_dark(axis, t, l)
            })
        };
        self.begin_fault_round();
        let (trees, leaves) = (self.trees(axis), self.leaves(axis));
        if let Some(rec) = self.rt.recorder.as_mut().filter(|rec| rec.reach_enabled()) {
            rec.reach_round_begin();
            for (t, l) in picked.tree_order(axis, trees, leaves) {
                let to = ReachCell::Reg { reg: dest.0 as u64, leaf: l as u64 };
                rec.reach(t as u64, ReachCell::Root, to);
            }
        }
        let mut attempts = 0;
        let roots = self.roots(axis).to_vec();
        let (rt, plane) = (&mut self.rt, &mut self.regs[dest.0]);
        for i in 0..rows {
            let (words, valid) = plane.run_mut(i * cols, (i + 1) * cols);
            picked.for_each_in(i, 0..cols, |j| {
                let (t, l) = axis.coords(i, j);
                let (v, att) = rt.word_transit(axis, t, l, roots[t]);
                attempts = attempts.max(att);
                words[j] = v.unwrap_or(0);
                valid[j] = v.is_some();
            });
        }
        self.charge_primitive(spec, axis, 1, attempts);
        self.end_phase();
    }

    /// The upward executor (`LEAFTOROOT` and the aggregates): folds each
    /// tree's selected leaves through `spec`'s combine [`Monoid`]
    /// (`crate::primitive::Monoid`): gathers the selected leaves as a
    /// [`Selection`](plane::Selection), folds them in one memory-order
    /// sweep ([`primitive::fold_trees`]), then transits each root word in
    /// tree order and charges the registry cost.
    ///
    /// # Panics
    ///
    /// Without a fault plan, panics on `First` contention, naming the
    /// lowest contended tree.
    fn tree_upward(
        &mut self,
        name: &str,
        axis: Axis,
        src: Reg,
        sel: &(impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync),
    ) {
        let spec = primitive::spec_for(name);
        // Invariant: aggregate executors are only called with registry
        // primitives that declare a combine monoid (pinned by the registry
        // coverage tests) — a `None` is a registry-definition bug.
        let monoid =
            spec.combine.unwrap_or_else(|| panic!("{} declares no combine monoid", spec.name));
        debug_assert!(
            crate::dflow::shape_of(spec) == Some(crate::dflow::FlowShape::Up),
            "{} is not an Up-shaped primitive",
            spec.name
        );
        self.begin_phase(spec.name);
        let (rows, cols, trees) = (self.rows, self.cols, self.trees(axis));
        let folds = {
            let view = RegsView { regs: &self.regs, shape: [rows, cols] };
            let policy = self.parallel_policy();
            let picked = plane::Selection::gather(policy, rows, cols, |i, j| {
                let (t, l) = axis.coords(i, j);
                sel(i, j, &view) && !self.rt.is_dark(axis, t, l)
            });
            let (tracing, words) = (self.reach_tracing(), &self.regs[src.0]);
            let shape = [rows, cols, 1];
            primitive::fold_trees(policy, axis, &picked, shape, monoid, tracing, |at| words.get(at))
        };
        // On First contention under faults, the fold keeps the first word
        // (corrupted ranks legitimately collide); in a healthy net it is an
        // invariant violation.
        if let Some((t, _)) = folds.first_contended() {
            assert!(
                self.has_fault_plan(),
                "{} contention: tree {t} of {axis:?} selected twice \
                 (invariant: the Selector specifies one BP per tree)",
                spec.name
            );
        }
        if let Some(rec) = self.rt.recorder.as_mut().filter(|rec| rec.reach_enabled()) {
            rec.reach_round_begin();
            for t in 0..trees {
                for l in folds.contributors(t) {
                    rec.reach(
                        t as u64,
                        ReachCell::Reg { reg: src.0 as u64, leaf: l as u64 },
                        ReachCell::Root,
                    );
                }
            }
        }
        self.begin_fault_round();
        let mut attempts = 0;
        let mut new_roots = Vec::with_capacity(trees);
        for t in 0..trees {
            let (v, att) = self.word_transit(axis, t, resilience::TREE_SITE, folds.root(t, 0));
            attempts = attempts.max(att);
            new_roots.push(v);
        }
        *self.roots_mut(axis) = new_roots;
        self.charge_primitive(spec, axis, 1, attempts);
        self.end_phase();
    }

    // ------------------------------------------------------------------
    // Primitive operations (§II.B). Each charges its model cost once for
    // the whole parallel tree family.
    // ------------------------------------------------------------------

    /// `ROOTTOLEAF(Vector, Dest)`: each tree of `axis` broadcasts its root
    /// register to its selected leaves, which store it in `dest`.
    ///
    /// The selector receives `(row, col, view)` grid coordinates.
    ///
    /// Under an installed [`FaultPlan`](crate::FaultPlan), each leaf's
    /// delivered copy is an independent transit (parity-checked, retried,
    /// possibly erased or silently corrupted), and dark leaves receive
    /// nothing.
    pub fn root_to_leaf(
        &mut self,
        axis: Axis,
        dest: Reg,
        sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
    ) {
        self.tree_downward("ROOTTOLEAF", axis, dest, &sel);
    }

    /// `LEAFTOROOT(Vector, Source)`: in each tree of `axis`, the selected
    /// BP's `src` register travels to the root. Selecting no BP leaves the
    /// root `NULL`.
    ///
    /// Under an installed [`FaultPlan`](crate::FaultPlan), dark leaves
    /// cannot reach their root, the ascending word is one parity-checked
    /// transit per tree, and selector contention keeps the first selected
    /// BP instead of panicking (corrupted ranks legitimately collide).
    ///
    /// # Panics
    ///
    /// Without a fault plan, panics if a tree has more than one selected
    /// BP — invariant: the paper's Selector "specifies one BP in Vector",
    /// the tree being a single channel.
    pub fn leaf_to_root(
        &mut self,
        axis: Axis,
        src: Reg,
        sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
    ) {
        self.tree_upward("LEAFTOROOT", axis, src, &sel);
    }

    /// `COUNT-LEAFTOROOT(Vector)`: each root receives the number of leaves
    /// whose `flag` register is a non-zero word (§II.B primitive 3).
    /// Dark leaves contribute nothing under an installed
    /// [`FaultPlan`](crate::FaultPlan).
    pub fn count_to_root(&mut self, axis: Axis, flag: Reg) {
        let sel = move |i: usize, j: usize, view: &RegsView<'_>| matches!(view.get(flag, i, j), Some(v) if v != 0);
        self.tree_upward("COUNT-LEAFTOROOT", axis, flag, &sel);
    }

    /// `SUM-LEAFTOROOT(Vector, Source)`: each root receives the sum of the
    /// selected leaves' `src` registers (`NULL` values contribute nothing;
    /// an empty selection sums to 0).
    pub fn sum_to_root(
        &mut self,
        axis: Axis,
        src: Reg,
        sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
    ) {
        self.tree_upward("SUM-LEAFTOROOT", axis, src, &sel);
    }

    /// `MIN-LEAFTOROOT(Vector, Source)`: each root receives the minimum of
    /// the selected leaves' non-`NULL` `src` registers (`NULL` if none).
    pub fn min_to_root(
        &mut self,
        axis: Axis,
        src: Reg,
        sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
    ) {
        self.tree_upward("MIN-LEAFTOROOT", axis, src, &sel);
    }

    /// `MAX-LEAFTOROOT`: each root receives the maximum of the selected
    /// leaves' non-`NULL` `src` registers (`NULL` if none) — the mirror of
    /// [`Otn::min_to_root`], same MSB-first bit-serial cost.
    pub fn max_to_root(
        &mut self,
        axis: Axis,
        src: Reg,
        sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
    ) {
        self.tree_upward("MAX-LEAFTOROOT", axis, src, &sel);
    }

    // ------------------------------------------------------------------
    // Composite operations (§II.B): source primitive + ROOTTOLEAF.
    // ------------------------------------------------------------------

    /// `LEAFTOLEAF(Vector, Source, Dest)` (§II.B composite 1).
    ///
    /// # Panics
    ///
    /// Panics on source contention, like [`Otn::leaf_to_root`].
    pub fn leaf_to_leaf(
        &mut self,
        axis: Axis,
        src: Reg,
        src_sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
    ) {
        Runtime::composite(self, "LEAFTOLEAF", |net| {
            net.leaf_to_root(axis, src, src_sel);
            net.root_to_leaf(axis, dest, dest_sel);
        });
    }

    /// `COUNT-LEAFTOLEAF(Vector, Dest)` (composite 2).
    pub fn count_to_leaf(
        &mut self,
        axis: Axis,
        flag: Reg,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
    ) {
        Runtime::composite(self, "COUNT-LEAFTOLEAF", |net| {
            net.count_to_root(axis, flag);
            net.root_to_leaf(axis, dest, dest_sel);
        });
    }

    /// `SUM-LEAFTOLEAF(Vector, Source, Dest)` (composite 3).
    pub fn sum_to_leaf(
        &mut self,
        axis: Axis,
        src: Reg,
        src_sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
    ) {
        Runtime::composite(self, "SUM-LEAFTOLEAF", |net| {
            net.sum_to_root(axis, src, src_sel);
            net.root_to_leaf(axis, dest, dest_sel);
        });
    }

    /// `MIN-LEAFTOLEAF(Vector, Source, Dest)`.
    pub fn min_to_leaf(
        &mut self,
        axis: Axis,
        src: Reg,
        src_sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
    ) {
        Runtime::composite(self, "MIN-LEAFTOLEAF", |net| {
            net.min_to_root(axis, src, src_sel);
            net.root_to_leaf(axis, dest, dest_sel);
        });
    }

    /// `MAX-LEAFTOLEAF(Vector, Source, Dest)`.
    pub fn max_to_leaf(
        &mut self,
        axis: Axis,
        src: Reg,
        src_sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
    ) {
        Runtime::composite(self, "MAX-LEAFTOLEAF", |net| {
            net.max_to_root(axis, src, src_sel);
            net.root_to_leaf(axis, dest, dest_sel);
        });
    }

    // ------------------------------------------------------------------
    // Local compute phases.
    // ------------------------------------------------------------------

    /// One parallel compute phase: `f(row, col, regs)` runs at every BP;
    /// `cost` is charged once for the whole phase (all BPs in parallel).
    pub fn bp_phase(&mut self, cost: PhaseCost, mut f: impl FnMut(usize, usize, &mut BpRegs<'_>)) {
        for i in 0..self.rows {
            for j in 0..self.cols {
                let mut bp = BpRegs { regs: &mut self.regs, at: i * self.cols + j };
                f(i, j, &mut bp);
            }
        }
        let t = self.phase_cost(cost);
        self.charge_compute("BP-PHASE", t);
    }

    /// One parallel compute phase at the roots of `axis`:
    /// `f(tree_index, root_register)`.
    pub fn root_phase(
        &mut self,
        axis: Axis,
        cost: PhaseCost,
        mut f: impl FnMut(usize, &mut Option<Word>),
    ) {
        let t = self.phase_cost(cost);
        for (t_idx, root) in self.roots_mut(axis).iter_mut().enumerate() {
            f(t_idx, root);
        }
        self.charge_compute("ROOT-PHASE", t);
    }

    /// Sets the root registers of `axis` directly (host-side; free).
    pub fn set_roots(&mut self, axis: Axis, values: Vec<Option<Word>>) {
        assert_eq!(values.len(), self.trees(axis), "one value per tree");
        *self.roots_mut(axis) = values;
    }

    /// The cost of one pipelined pairwise exchange at leaf distance `dist`
    /// (see [`Otn::pairwise`]).
    pub fn pairwise_cost(&self, axis: Axis, dist: usize) -> BitTime {
        let _ = self.leaves(axis);
        // Pairs (l, l+dist) all route through the root of their common
        // 2·dist-leaf subtree; the dist words of each subtree pipeline
        // through that root one word-interval apart.
        self.model().tree_leaf_to_leaf(2 * dist, self.pitch())
            + self.model().pipeline_interval() * (dist as u64 - 1)
    }

    /// `COMPEX`-style pairwise combination (paper §IV): within every tree
    /// of `axis`, leaves `l` and `l + dist` (for `l mod 2·dist < dist`)
    /// exchange their `reg` words through their common subtree and replace
    /// them by `f(tree, l, a, b) → (a', b')`.
    ///
    /// Cost: the `dist` words crossing each `2·dist`-leaf subtree's root
    /// pipeline one word-interval apart behind a `LEAFTOLEAF` latency
    /// ([`Otn::pairwise_cost`]), plus one `extra` local phase — this is the
    /// accounting that makes the full bitonic sort `Θ(√N·polylog)` instead
    /// of `Θ(√N · log² N · log N)` (the geometric distance sum of §IV).
    ///
    /// # Panics
    ///
    /// Panics unless `dist` is a power of two, at least 1, and less than
    /// the tree's leaf count.
    pub fn pairwise(
        &mut self,
        axis: Axis,
        dist: usize,
        reg: Reg,
        extra: PhaseCost,
        mut f: impl FnMut(usize, usize, Option<Word>, Option<Word>) -> (Option<Word>, Option<Word>),
    ) {
        let leaves = self.leaves(axis);
        assert!(dist.is_power_of_two() && dist >= 1, "dist must be a positive power of two");
        assert!(dist < leaves, "dist {dist} must be below the leaf count {leaves}");
        for t in 0..self.trees(axis) {
            for l in 0..leaves {
                if l % (2 * dist) >= dist {
                    continue;
                }
                let (ai, aj) = axis.coords(t, l);
                let (bi, bj) = axis.coords(t, l + dist);
                let (a_at, b_at) = (ai * self.cols + aj, bi * self.cols + bj);
                let plane = &mut self.regs[reg.0];
                let (na, nb) = f(t, l, plane.get(a_at), plane.get(b_at));
                plane.set(a_at, na);
                plane.set(b_at, nb);
            }
        }
        let extra_t = self.phase_cost(extra);
        let cost = self.pairwise_cost(axis, dist) + extra_t;
        // Causally: up and down the 2·dist-leaf subtree, the pipelined
        // spacing of the dist contending words, then the local combine.
        let mut parts = crate::attribution::upward_parts(self.model(), 2 * dist, self.pitch());
        parts.extend(crate::attribution::downward_parts(self.model(), 2 * dist, self.pitch()));
        parts.extend(crate::attribution::wait_parts(
            self.model().pipeline_interval() * (dist as u64 - 1),
        ));
        parts.extend(crate::attribution::compute_parts(extra_t));
        self.begin_phase(primitive::spec_for("PAIRWISE").name);
        self.seg_charge(cost, &parts);
        self.end_phase();
        let stats = self.clock_mut().stats_mut();
        stats.sends += 1;
        stats.broadcasts += 1;
        stats.leaf_ops += 1;
    }
}

impl crate::checkpoint::sealed::Cells for Otn {
    fn shape(&self) -> [usize; 2] {
        [self.rows, self.cols]
    }

    fn save_cells(&self) -> (Buffers, [Buffers; 2]) {
        let ports = |roots: &[Option<Word>]| roots.iter().map(|&w| vec![w]).collect();
        (
            self.regs.iter().map(Plane::to_vec).collect(),
            [ports(&self.row_roots), ports(&self.col_roots)],
        )
    }

    fn load_cells(&mut self, planes: &[Vec<Option<Word>>], roots: &[Buffers; 2]) {
        self.regs.truncate(planes.len());
        for (plane, cells) in self.regs.iter_mut().zip(planes) {
            plane.load(cells);
        }
        self.row_roots = roots[0].iter().map(|port| port[0]).collect();
        self.col_roots = roots[1].iter().map(|port| port[0]).collect();
    }
}

/// Selector that accepts every BP — the paper's `all`.
pub fn all(_row: usize, _col: usize, _view: &RegsView<'_>) -> bool {
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net4() -> Otn {
        Otn::for_sorting(4).unwrap()
    }

    #[test]
    fn construction_validates_dimensions() {
        assert!(Otn::for_sorting(6).is_err());
        assert!(Otn::new(4, 8, CostModel::thompson(8)).is_ok());
        let n = net4();
        assert_eq!(n.rows(), 4);
        assert_eq!(n.leaves(Axis::Rows), 4);
        assert_eq!(n.trees(Axis::Cols), 4);
    }

    #[test]
    fn broadcast_reaches_selected_leaves_only() {
        let mut n = net4();
        let a = n.alloc_reg("A");
        n.load_row_roots(&[10, 20, 30, 40]);
        n.root_to_leaf(Axis::Rows, a, |_, j, _| j % 2 == 0);
        assert_eq!(n.peek(a, 1, 0), Some(20));
        assert_eq!(n.peek(a, 1, 2), Some(20));
        assert_eq!(n.peek(a, 1, 1), None, "unselected leaf untouched");
        assert_eq!(n.clock().stats().broadcasts, 1);
        assert!(n.clock().now().get() > 0);
    }

    #[test]
    fn leaf_to_root_moves_one_word_per_tree() {
        let mut n = net4();
        let a = n.alloc_reg("A");
        n.load_reg(a, |i, j| Some((10 * i + j) as Word));
        n.leaf_to_root(Axis::Cols, a, |i, j, _| i == j); // diagonal
        assert_eq!(n.roots(Axis::Cols), &[Some(0), Some(11), Some(22), Some(33)]);
    }

    #[test]
    #[should_panic(expected = "contention")]
    fn leaf_to_root_rejects_multiple_sources() {
        let mut n = net4();
        let a = n.alloc_reg("A");
        n.load_reg(a, |_, _| Some(1));
        n.leaf_to_root(Axis::Rows, a, |_, _, _| true);
    }

    #[test]
    fn leaf_to_root_with_empty_selection_yields_null() {
        let mut n = net4();
        let a = n.alloc_reg("A");
        n.leaf_to_root(Axis::Rows, a, |_, _, _| false);
        assert_eq!(n.roots(Axis::Rows), &[None; 4]);
    }

    #[test]
    fn count_counts_nonzero_flags() {
        let mut n = net4();
        let f = n.alloc_reg("flag");
        n.load_reg(f, |i, j| Some(Word::from(i <= j)));
        n.count_to_root(Axis::Rows, f);
        assert_eq!(
            n.roots(Axis::Rows),
            &[Some(4), Some(3), Some(2), Some(1)],
            "row i has 4−i flags set"
        );
        assert_eq!(n.clock().stats().aggregates, 1);
    }

    #[test]
    fn sum_respects_selector_and_nulls() {
        let mut n = net4();
        let a = n.alloc_reg("A");
        n.load_reg(a, |i, j| if j == 3 { None } else { Some((i * 4 + j) as Word) });
        n.sum_to_root(Axis::Rows, a, |_, j, _| j != 0);
        // Row i: (4i+1) + (4i+2) + NULL = 8i+3.
        assert_eq!(n.roots(Axis::Rows), &[Some(3), Some(11), Some(19), Some(27)]);
    }

    #[test]
    fn min_finds_minimum_and_handles_empty() {
        let mut n = net4();
        let a = n.alloc_reg("A");
        n.load_reg(a, |i, j| Some(((i + 1) * 10 - j) as Word));
        n.min_to_root(Axis::Rows, a, all);
        assert_eq!(n.roots(Axis::Rows), &[Some(7), Some(17), Some(27), Some(37)]);
        n.min_to_root(Axis::Cols, a, |_, _, _| false);
        assert_eq!(n.roots(Axis::Cols), &[None; 4]);
    }

    #[test]
    fn leaf_to_leaf_composes() {
        // Move the diagonal of A into every BP of its column (SORT-OTN
        // step 2 shape).
        let mut n = net4();
        let a = n.alloc_reg("A");
        let b = n.alloc_reg("B");
        n.load_reg(a, |i, _| Some(i as Word * 100));
        n.leaf_to_leaf(Axis::Cols, a, |i, j, _| i == j, b, all);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(n.peek(b, i, j), Some(j as Word * 100));
            }
        }
        assert_eq!(n.clock().stats().sends, 1);
        assert_eq!(n.clock().stats().broadcasts, 1);
    }

    #[test]
    fn selector_sees_registers() {
        let mut n = net4();
        let a = n.alloc_reg("A");
        let b = n.alloc_reg("B");
        n.load_reg(a, |i, j| Some((i * 4 + j) as Word));
        n.load_reg(b, |i, j| Some(Word::from(i == 2 && j == 1)));
        n.leaf_to_root(Axis::Rows, a, |i, j, v| v.get(b, i, j) == Some(1));
        assert_eq!(n.roots(Axis::Rows)[2], Some(9));
        assert_eq!(n.roots(Axis::Rows)[0], None);
    }

    #[test]
    fn bp_phase_charges_once_for_all_bps() {
        let mut n = net4();
        let a = n.alloc_reg("A");
        let before = n.clock().now();
        n.bp_phase(PhaseCost::Compare, |i, j, bp| {
            bp.set(a, Some((i + j) as Word));
        });
        let dt = n.clock().now() - before;
        assert_eq!(dt, n.model().compare(), "one compare for the whole phase");
        assert_eq!(n.peek(a, 3, 3), Some(6));
    }

    #[test]
    fn costs_follow_the_model() {
        let mut n = net4();
        let a = n.alloc_reg("A");
        let (leaves, pitch) = (4, n.pitch());
        let model = *n.model();
        let t0 = n.clock().now();
        n.root_to_leaf(Axis::Rows, a, all);
        assert_eq!(n.clock().now() - t0, model.tree_root_to_leaf(leaves, pitch));
        let t1 = n.clock().now();
        n.count_to_root(Axis::Cols, a);
        assert_eq!(n.clock().now() - t1, model.tree_aggregate(leaves, pitch));
    }

    #[test]
    fn rectangular_network_charges_per_axis() {
        let mut n = Otn::new(16, 4, CostModel::thompson(16)).unwrap();
        let a = n.alloc_reg("A");
        let model = *n.model();
        let pitch = n.pitch();
        let (_, t_rows) = n.elapsed(|n| n.root_to_leaf(Axis::Rows, a, all));
        let (_, t_cols) = n.elapsed(|n| n.root_to_leaf(Axis::Cols, a, all));
        assert_eq!(t_rows, model.tree_root_to_leaf(4, pitch), "row trees have 4 leaves");
        assert_eq!(t_cols, model.tree_root_to_leaf(16, pitch), "col trees have 16 leaves");
        assert!(t_cols > t_rows);
    }

    #[test]
    fn max_mirrors_min() {
        let mut n = net4();
        let a = n.alloc_reg("A");
        n.load_reg(a, |i, j| Some(((i + 1) * 10 - j) as Word));
        n.max_to_root(Axis::Rows, a, all);
        assert_eq!(n.roots(Axis::Rows), &[Some(10), Some(20), Some(30), Some(40)]);
        n.max_to_root(Axis::Cols, a, |_, _, _| false);
        assert_eq!(n.roots(Axis::Cols), &[None; 4]);
        // Composite variant broadcasts the maximum back down.
        let b = n.alloc_reg("B");
        n.max_to_leaf(Axis::Cols, a, all, b, all);
        assert_eq!(n.peek(b, 0, 2), Some(38), "column 2 max = 40-2");
    }

    #[test]
    fn axis_flip() {
        assert_eq!(Axis::Rows.flip(), Axis::Cols);
        assert_eq!(Axis::Cols.flip(), Axis::Rows);
    }

    #[test]
    fn root_phase_updates_roots_with_charge() {
        let mut n = net4();
        n.set_roots(Axis::Rows, vec![Some(1), Some(2), None, Some(4)]);
        n.root_phase(Axis::Rows, PhaseCost::Add, |t, r| {
            *r = r.map(|v| v + t as Word);
        });
        assert_eq!(n.roots(Axis::Rows), &[Some(1), Some(3), None, Some(7)]);
        assert!(n.clock().now().get() > 0);
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;

    #[test]
    fn one_by_n_network_behaves_like_a_single_tree() {
        let mut net = Otn::new(1, 8, CostModel::thompson(8)).unwrap();
        let a = net.alloc_reg("A");
        net.load_reg(a, |_, j| Some(j as Word));
        net.sum_to_root(Axis::Rows, a, all);
        assert_eq!(net.roots(Axis::Rows), &[Some(28)]);
        // Column trees have a single leaf each: a send is a no-op-ish move.
        net.leaf_to_root(Axis::Cols, a, all);
        let cols: Vec<Option<Word>> = (0..8).map(|j| Some(j as Word)).collect();
        assert_eq!(net.roots(Axis::Cols), cols.as_slice());
    }

    #[test]
    fn n_by_one_network_mirrors_one_by_n() {
        let mut net = Otn::new(8, 1, CostModel::thompson(8)).unwrap();
        let a = net.alloc_reg("A");
        net.load_reg(a, |i, _| Some(i as Word));
        net.min_to_root(Axis::Cols, a, all);
        assert_eq!(net.roots(Axis::Cols), &[Some(0)]);
        net.max_to_root(Axis::Cols, a, all);
        assert_eq!(net.roots(Axis::Cols), &[Some(7)]);
    }

    #[test]
    fn single_cell_network_supports_all_primitives() {
        let mut net = Otn::new(1, 1, CostModel::thompson(2)).unwrap();
        let a = net.alloc_reg("A");
        net.load_reg(a, |_, _| Some(5));
        net.sum_to_root(Axis::Rows, a, all);
        assert_eq!(net.roots(Axis::Rows), &[Some(5)]);
        net.count_to_root(Axis::Cols, a);
        assert_eq!(net.roots(Axis::Cols), &[Some(1)]);
        net.bp_phase(PhaseCost::Bit, |_, _, bp| bp.set(a, Some(9)));
        assert_eq!(net.peek(a, 0, 0), Some(9));
    }

    #[test]
    fn unit_and_scaled_models_compose() {
        // Word-parallel + scaled: every primitive is Θ(log N) with tiny
        // constants; sanity that nothing underflows or zeroes out.
        let model = CostModel::unit_delay(64).with_scaling();
        let mut net = Otn::new(64, 64, model).unwrap();
        let a = net.alloc_reg("A");
        let (_, dt) = net.elapsed(|net| net.root_to_leaf(Axis::Rows, a, all));
        assert!(dt.get() >= 6, "at least one unit per level: {dt}");
        assert!(dt.get() <= 20, "scaled unit broadcast stays small: {dt}");
    }

    #[test]
    fn linear_delay_model_sorts_correctly_but_slowly() {
        let xs: Vec<Word> = (0..16).rev().collect();
        let mut lin = Otn::new(16, 16, CostModel::linear_delay(16)).unwrap();
        let slow = super::sort::sort(&mut lin, &xs).unwrap();
        assert_eq!(slow.sorted, (0..16).collect::<Vec<Word>>());
        let mut log = Otn::for_sorting(16).unwrap();
        let fast = super::sort::sort(&mut log, &xs).unwrap();
        assert!(slow.time > fast.time * 2, "{} !>> {}", slow.time, fast.time);
    }

    #[test]
    fn zero_and_null_stay_distinct_through_the_primitives() {
        let cells = [
            [Some(0), None, Some(0), None],
            [None; 4],
            [Some(0), Some(0), Some(7), None],
            [Some(-1), Some(0), None, Some(2)],
        ];
        let mut n = Otn::for_sorting(4).unwrap();
        let a = n.alloc_reg("A");
        n.load_reg(a, |i, j| cells[i][j]);
        for (i, row) in cells.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(n.peek(a, i, j), v, "({i},{j})");
            }
        }
        n.count_to_root(Axis::Rows, a);
        assert_eq!(n.roots(Axis::Rows), &[Some(0), Some(0), Some(1), Some(2)], "0 is no flag");
        n.sum_to_root(Axis::Rows, a, all);
        assert_eq!(n.roots(Axis::Rows), &[Some(0), Some(0), Some(7), Some(1)]);
        n.min_to_root(Axis::Rows, a, all);
        assert_eq!(n.roots(Axis::Rows), &[Some(0), None, Some(0), Some(-1)], "NULL is no 0");
        n.leaf_to_root(Axis::Cols, a, |i, _, _| i == 0);
        assert_eq!(n.roots(Axis::Cols), &[Some(0), None, Some(0), None]);
        // Relayed back down, a 0 lands as 0 and a NULL as NULL.
        let b = n.alloc_reg("B");
        n.load_reg(b, |_, _| Some(5));
        n.root_to_leaf(Axis::Cols, b, all);
        assert_eq!(n.peek(b, 3, 0), Some(0));
        assert_eq!(n.peek(b, 3, 1), None);
    }

    #[test]
    fn an_erasure_clears_a_valid_cell() {
        let mut n = Otn::for_sorting(16).unwrap();
        n.install_fault_plan(
            crate::FaultPlan::new(3).with_word_fault_rate(0.5).with_max_retries(0),
        );
        let a = n.alloc_reg("A");
        n.load_reg(a, |_, _| Some(-9));
        n.load_row_roots(&[5; 16]);
        n.root_to_leaf(Axis::Rows, a, all);
        let cells: Vec<Option<Word>> = (0..16)
            .flat_map(|i| (0..16).map(move |j| (i, j)))
            .map(|(i, j)| n.peek(a, i, j))
            .collect();
        let erasures = n.fault_stats().erasures;
        assert!(erasures > 0, "the plan must erase some deliveries");
        assert_eq!(cells.iter().filter(|v| v.is_none()).count() as u64, erasures);
        assert!(!cells.contains(&Some(-9)), "every delivery overwrote its cell");
        let plane = &n.snapshot_planes()[0];
        assert_eq!(plane, &cells, "the checkpoint sees the cleared flags");
    }

    /// Leaves on both sides of a 64-bit selection-word boundary, and the
    /// last leaf, on both axes of a 128-leaf network.
    #[test]
    fn selections_across_mask_words_hit_exactly_their_leaves() {
        for axis in [Axis::Rows, Axis::Cols] {
            let (rows, cols) = if axis == Axis::Rows { (2, 128) } else { (128, 2) };
            let mut n = Otn::new(rows, cols, CostModel::thompson(128)).unwrap();
            let mut rec = orthotrees_obs::Recorder::new();
            rec.enable_reach();
            n.install_recorder(rec);
            let a = n.alloc_reg("A");
            n.set_roots(axis, vec![Some(1), Some(2)]);
            let leaf = |i: usize, j: usize| if axis == Axis::Rows { j } else { i };
            n.root_to_leaf(axis, a, |i, j, _| leaf(i, j) == 127);
            n.root_to_leaf(axis, a, |i, j, _| matches!(leaf(i, j), 63 | 64));
            let mut hit = Vec::new();
            for t in 0..2 {
                for l in 0..128 {
                    let (i, j) = axis.coords(t, l);
                    if let Some(v) = n.peek(a, i, j) {
                        assert_eq!(v, t as Word + 1);
                        hit.push((t, l));
                    }
                }
            }
            let want = vec![(0, 63), (0, 64), (0, 127), (1, 63), (1, 64), (1, 127)];
            assert_eq!(hit, want, "{axis:?}");
            let leaves: Vec<ReachCell> =
                n.recorder().unwrap().reach_events().iter().map(|e| e.to).collect();
            let reg = |leaf| ReachCell::Reg { reg: 0, leaf };
            assert_eq!(leaves, [127, 127, 63, 64, 63, 64].map(reg), "{axis:?}");
        }
    }

    /// Every register cell of a non-square (or degenerate) network is
    /// addressed row-major: loads, broadcasts, BP phases, gathers and
    /// checkpoints agree on which BP is which.
    #[test]
    fn rectangular_and_degenerate_planes_index_row_major() {
        for (rows, cols) in [(16, 4), (4, 16), (1, 8), (8, 1), (1, 1)] {
            let mut n = Otn::new(rows, cols, CostModel::thompson(16)).unwrap();
            let a = n.alloc_reg("A");
            let b = n.alloc_reg("B");
            let at = |i: usize, j: usize| (100 * i + j) as Word;
            n.load_reg(a, |i, j| Some(at(i, j)));
            n.bp_phase(PhaseCost::Add, |i, j, bp| {
                assert_eq!(bp.get(a), Some(at(i, j)));
                bp.set(b, bp.get(a).map(|v| v + 1));
            });
            n.leaf_to_root(Axis::Rows, b, |_, j, _| j + 1 == cols);
            let want: Vec<Option<Word>> = (0..rows).map(|i| Some(at(i, cols - 1) + 1)).collect();
            assert_eq!(n.roots(Axis::Rows), want.as_slice(), "{rows}x{cols}");
            n.root_to_leaf(Axis::Rows, a, |i, j, _| (i + j) % 2 == 0);
            for i in 0..rows {
                for j in 0..cols {
                    let v = if (i + j) % 2 == 0 { at(i, cols - 1) + 1 } else { at(i, j) };
                    assert_eq!(n.peek(a, i, j), Some(v), "{rows}x{cols} ({i},{j})");
                }
            }
            let flat: Vec<Option<Word>> =
                (0..rows * cols).map(|k| n.peek(a, k / cols, k % cols)).collect();
            assert_eq!(n.snapshot_planes()[0], flat, "{rows}x{cols}");
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn peek_past_the_last_column_panics_even_inside_the_plane() {
        let mut n = Otn::for_sorting(4).unwrap();
        let a = n.alloc_reg("A");
        // (0, 4) would alias cell (1, 0) in the flat plane.
        let _ = n.peek(a, 0, 4);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn peek_past_the_last_row_panics() {
        let mut n = Otn::new(16, 4, CostModel::thompson(16)).unwrap();
        let a = n.alloc_reg("A");
        let _ = n.peek(a, 16, 0);
    }

    impl Otn {
        /// The register planes as a checkpoint would save them.
        fn snapshot_planes(&self) -> Vec<Vec<Option<Word>>> {
            crate::checkpoint::sealed::Cells::save_cells(self).0
        }
    }

    #[test]
    fn pairwise_cost_grows_with_distance() {
        let net = Otn::for_sorting(64).unwrap();
        let c1 = net.pairwise_cost(Axis::Rows, 1);
        let c8 = net.pairwise_cost(Axis::Rows, 8);
        let c32 = net.pairwise_cost(Axis::Rows, 32);
        assert!(c1 < c8 && c8 < c32);
    }
}
