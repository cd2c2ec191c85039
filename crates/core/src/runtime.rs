//! The word-level runtime shared by [`Otn`](crate::otn::Otn) and
//! [`Otc`](crate::otc::Otc).
//!
//! The paper builds the OTC as an OTN whose base processors became cycles
//! (§V): both networks have the same trees, clock, fault model and
//! instruments, and differ only in topology and register layout. A
//! [`Runtime`] holds everything they share — the simulated [`Clock`], the
//! cost model and wire pitch, the register names, the installed fault
//! state, [`Recorder`] and [`Telemetry`], and the [`ParallelPolicy`] — plus
//! the plumbing every primitive runs through: phase spans, segment
//! charges, fault rounds and word transits, the registry-derived primitive
//! charge and the compute-phase charge. Each network owns a `Runtime` and
//! dereferences to it, so `net.clock()`, `net.install_recorder(..)` or
//! `net.fault_stats()` resolve here; the network itself keeps only its
//! shape, register storage, roots, coordinate and fault-site maps, and its
//! executors.

use crate::otn::{Axis, PhaseCost};
use crate::primitive::{self, ParallelPolicy, PrimitiveSpec};
use crate::resilience::{self, FaultPlan, FaultReport, FaultState, FaultStats};
use crate::word::Word;
use orthotrees_obs::telemetry::Telemetry;
use orthotrees_obs::Recorder;
use orthotrees_vlsi::{BitTime, Clock, CostKind, CostModel};
use std::ops::DerefMut;

/// Which network a runtime drives: picks its telemetry names and its
/// snapshot schema.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    /// The orthogonal trees network.
    Otn,
    /// The orthogonal tree cycles.
    Otc,
}

/// The state and plumbing `Otn` and `Otc` share. See the
/// [module documentation](self).
#[derive(Clone, Debug)]
pub struct Runtime {
    pub(crate) kind: Kind,
    model: CostModel,
    pitch: u64,
    clock: Clock,
    pub(crate) reg_names: Vec<&'static str>,
    /// Trees per family, indexed `[Rows, Cols]`. A tree of one family has
    /// one leaf per tree of the other.
    trees: [usize; 2],
    /// Installed fault scenario; `None` keeps every primitive on the exact
    /// fault-free path.
    pub(crate) fault: Option<FaultState>,
    /// Installed observability recorder; `None` (the default) keeps every
    /// primitive free of recording code. Recording never changes a
    /// simulated bit, time, or output.
    pub(crate) recorder: Option<Recorder>,
    /// Installed streaming telemetry bus; same contract as `recorder`.
    telemetry: Option<Telemetry>,
    /// How the read-only gather and folds of each primitive execute.
    parallel: ParallelPolicy,
}

/// The `[Rows, Cols]` index of `axis`.
fn slot(axis: Axis) -> usize {
    match axis {
        Axis::Rows => 0,
        Axis::Cols => 1,
    }
}

impl Runtime {
    /// A fresh runtime (clock at zero, no instruments, no fault plan) for
    /// a network with `trees[0]` row trees and `trees[1]` column trees.
    pub(crate) fn new(kind: Kind, model: CostModel, pitch: u64, trees: [usize; 2]) -> Self {
        Runtime {
            kind,
            model,
            pitch,
            clock: Clock::new(),
            reg_names: Vec::new(),
            trees,
            fault: None,
            recorder: None,
            telemetry: None,
            parallel: ParallelPolicy::default(),
        }
    }

    /// Sets how the per-tree independent portions of each primitive
    /// execute (see [`ParallelPolicy`]). Both policies are bit- and
    /// clock-identical — asserted by property tests; `Threads` trades
    /// scoped-thread overhead for wall-clock speedup on large networks.
    pub fn set_parallel_policy(&mut self, policy: ParallelPolicy) {
        self.parallel = policy;
    }

    /// The active parallel execution policy.
    pub fn parallel_policy(&self) -> ParallelPolicy {
        self.parallel
    }

    /// The active cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The leaf (OTN) or inter-cycle (OTC) pitch used for wire pricing.
    pub fn pitch(&self) -> u64 {
        self.pitch
    }

    /// The simulated clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Resets the clock and statistics (registers keep their contents).
    pub fn reset_clock(&mut self) {
        self.clock.reset();
    }

    /// Mutable clock access for primitive implementations and restore.
    pub(crate) fn clock_mut(&mut self) -> &mut Clock {
        &mut self.clock
    }

    /// The allocated register-plane names, in allocation order — the
    /// register-file shape static analyses resolve reach events against.
    pub fn reg_names(&self) -> &[&'static str] {
        &self.reg_names
    }

    /// Number of allocated register planes.
    pub fn reg_count(&self) -> usize {
        self.reg_names.len()
    }

    /// Number of leaves of one tree of `axis` (an OTC leaf is a cycle).
    pub fn leaves(&self, axis: Axis) -> usize {
        self.trees(axis.flip())
    }

    /// Number of trees of `axis`.
    pub fn trees(&self, axis: Axis) -> usize {
        self.trees[slot(axis)]
    }

    /// Advances the clock by `expected` while recording its causal
    /// decomposition `parts` (see [`crate::attribution`]), and meters the
    /// charge on the installed telemetry bus.
    pub(crate) fn seg_charge(&mut self, expected: BitTime, parts: &[crate::attribution::Part]) {
        crate::attribution::seg_charge(&mut self.clock, &mut self.recorder, expected, parts);
        if let Some(tel) = &mut self.telemetry {
            let (charges, charge_tau) = match self.kind {
                Kind::Otn => ("otn.charges", "otn.charge_tau"),
                Kind::Otc => ("otc.charges", "otc.charge_tau"),
            };
            tel.count(charges, 1);
            tel.observe(charge_tau, expected.get());
            tel.tick(self.clock.now());
        }
    }

    // ------------------------------------------------------------------
    // Observability (see [`orthotrees_obs`]). Every primitive wraps its
    // clock advances in a span named after the paper's primitive, so the
    // recorder's per-phase self times sum exactly to the elapsed time.
    // ------------------------------------------------------------------

    /// Installs an observability [`Recorder`]: subsequent primitives open
    /// spans named after the paper's operations (`ROOTTOLEAF`,
    /// `CYCLETOROOT`, …) on the simulated clock. Recording changes no
    /// simulated bit, time, or output (bit-identity, enforced by tests).
    pub fn install_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// The installed recorder, if any.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// Removes and returns the installed recorder (export after a run).
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.recorder.take()
    }

    /// Installs a streaming [`Telemetry`] bus: every subsequent clock
    /// charge is counted (`otn.charges` / `otc.charges`), its magnitude
    /// fed to the `otn.charge_tau` / `otc.charge_tau` quantile sketch, and
    /// periodic counter snapshots are cut on the simulated clock. Metering
    /// changes no simulated bit, time, or output (bit-identity, enforced
    /// by the telemetry suite).
    pub fn install_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    /// The installed telemetry bus, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Mutable access to the installed telemetry bus (algorithms fold
    /// their own domain counters into the export through this).
    pub fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.telemetry.as_mut()
    }

    /// Removes and returns the installed telemetry bus (export after a
    /// run).
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.telemetry.take()
    }

    /// Opens a named phase span at the current simulated time (no-op
    /// without a recorder). Spans nest; close with
    /// [`Runtime::end_phase`]. Algorithms use this to group primitive
    /// spans under procedure-level phases (e.g. `SORT-OTN`).
    pub fn begin_phase(&mut self, name: impl Into<String>) {
        if let Some(rec) = &mut self.recorder {
            let now = self.clock.now();
            rec.open(name, now);
        }
    }

    /// Closes the most recently opened phase span (no-op without a
    /// recorder).
    pub fn end_phase(&mut self) {
        if let Some(rec) = &mut self.recorder {
            let now = self.clock.now();
            rec.close(now);
        }
    }

    /// Whether the installed recorder asked for reach events. `false`
    /// whenever no recorder is installed or tracing was not enabled, so
    /// the plain profiling path stays free of reach bookkeeping.
    pub(crate) fn reach_tracing(&self) -> bool {
        self.recorder.as_ref().is_some_and(Recorder::reach_enabled)
    }

    // ------------------------------------------------------------------
    // Fault injection, detection and graceful degradation (see
    // [`crate::resilience`]). An installed *empty* plan changes nothing.
    // ------------------------------------------------------------------

    /// Installs a deterministic fault scenario for all subsequent
    /// primitives and returns the degradation verdicts for its dead IPs:
    /// which subtrees were rerouted through their sibling, and which
    /// leaves (OTC: whole cycles) went dark.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) -> &FaultReport {
        let [rows, cols] = self.trees;
        &self.fault.insert(FaultState::new(plan, rows, cols, cols, rows)).report
    }

    /// Whether a fault plan is installed.
    pub fn has_fault_plan(&self) -> bool {
        self.fault.is_some()
    }

    /// The degradation report of the installed plan, if any.
    pub fn fault_report(&self) -> Option<&FaultReport> {
        self.fault.as_ref().map(|f| &f.report)
    }

    /// Counters for the faults injected so far (all zero with no plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Advances the fault-injection epoch: jumps the transit-round cursor
    /// forward so subsequent primitives see *fresh* deterministic fault
    /// draws. The recovery supervisor calls this between retries —
    /// without it, a retry replays the exact transient that killed the
    /// previous attempt, forever.
    pub fn bump_fault_epoch(&mut self) {
        if let Some(fault) = self.fault.as_mut() {
            // A large prime stride keeps every epoch's draw sequence
            // disjoint from every other epoch for any realistic run length.
            fault.set_round(fault.round() + 1_000_003);
        }
    }

    /// Whether `leaf` of `tree` along `axis` is cut off by a dead IP.
    #[inline]
    pub(crate) fn is_dark(&self, axis: Axis, tree: usize, leaf: usize) -> bool {
        self.fault.as_ref().is_some_and(|f| f.is_dark(axis, tree, leaf))
    }

    /// Opens a new transit round for the next faultable primitive.
    pub(crate) fn begin_fault_round(&mut self) {
        if let Some(f) = &mut self.fault {
            f.next_round();
        }
    }

    /// One word transit at fault site `(axis, tree, leaf)` under the
    /// installed plan (identity without one). Returns the delivered word
    /// and extra attempts used. Each network maps its transits to `leaf`
    /// site indices of its own.
    #[inline]
    pub(crate) fn word_transit(
        &mut self,
        axis: Axis,
        tree: usize,
        leaf: usize,
        value: Option<Word>,
    ) -> (Option<Word>, u32) {
        let width = self.model.word_bits;
        match &mut self.fault {
            Some(f) => f.transit(resilience::site(axis, tree, leaf), value, width),
            None => (value, 0),
        }
    }

    /// Charges the time overhead a faultable primitive on `axis` incurred:
    /// `attempts` retransmission rounds of `base`, plus the lateral
    /// crossing penalty when the axis has rerouted subtrees. `base` is the
    /// registry-priced cost the primitive just charged, so charge and
    /// overhead can never disagree.
    fn charge_fault_overhead(&mut self, axis: Axis, attempts: u32, base: BitTime) {
        let Some(f) = &self.fault else { return };
        let span = f.reroute_span[slot(axis)];
        let mut extra = base * u64::from(attempts);
        if span > 0 {
            // Detour through the sibling subtree: down from the common
            // parent and across, like a leaf-to-leaf hop within the
            // doubled subtree.
            extra += self.model.tree_leaf_to_leaf(2 * span, self.pitch);
        }
        if extra > BitTime::ZERO {
            // Attributed as its own (nested) phase so a faulty run's
            // slowdown is visible in the time-attribution table; causally
            // it is pure waiting (retransmission rounds / detour latency).
            self.begin_phase(primitive::spec_for("FAULT-OVERHEAD").name);
            self.seg_charge(extra, &crate::attribution::wait_parts(extra));
            self.end_phase();
        }
        if let Some(rec) = &mut self.recorder {
            rec.count("fault.retry_rounds", u64::from(attempts));
        }
    }

    // ------------------------------------------------------------------
    // Charges shared by every executor.
    // ------------------------------------------------------------------

    /// Charges `spec`'s registry cost kind once for the whole tree family
    /// of `axis`, each root moving `stream` words (1 on the OTN, the cycle
    /// length on the OTC): the clock charge, its causal segment
    /// decomposition, the matching operation statistics (including the
    /// `stream − 1` pipelined circulate hops of a stream) and the
    /// fault-overhead base all derive from the same [`CostKind`], so they
    /// can never disagree.
    pub(crate) fn charge_primitive(
        &mut self,
        spec: &PrimitiveSpec,
        axis: Axis,
        stream: usize,
        attempts: u32,
    ) {
        let leaves = self.leaves(axis);
        // Invariant: executors only charge registry primitives that declare
        // a cost kind (the registry coverage tests pin this statically), so
        // a `None` is a registry-definition bug, not a runtime state.
        let kind = spec.cost.unwrap_or_else(|| panic!("{} declares no cost kind", spec.name));
        let t = self.model.primitive_cost(kind, leaves, self.pitch, stream);
        let parts =
            crate::attribution::primitive_parts(&self.model, kind, leaves, self.pitch, stream);
        self.seg_charge(t, &parts);
        let stats = self.clock.stats_mut();
        match kind {
            CostKind::Broadcast | CostKind::StreamBroadcast => stats.broadcasts += 1,
            CostKind::Send | CostKind::StreamSend => stats.sends += 1,
            CostKind::Aggregate | CostKind::StreamAggregate => stats.aggregates += 1,
            CostKind::CycleStep => stats.circulates += 1,
        }
        if kind.is_stream() {
            stats.circulates += stream as u64 - 1;
        }
        self.charge_fault_overhead(axis, attempts, t);
    }

    /// The composite executor: opens `name`'s enclosing registry span on
    /// `net` and runs its two legs (each charges itself).
    pub(crate) fn composite<N: DerefMut<Target = Runtime>>(
        net: &mut N,
        name: &str,
        f: impl FnOnce(&mut N),
    ) {
        let spec = primitive::spec_for(name);
        debug_assert!(spec.composite_of.is_some(), "{} is not a composite", spec.name);
        net.begin_phase(spec.name);
        f(net);
        net.end_phase();
    }

    /// The model price of a [`PhaseCost`] class.
    pub(crate) fn phase_cost(&self, cost: PhaseCost) -> BitTime {
        match cost {
            PhaseCost::Bit => self.model.bit_op(),
            PhaseCost::Compare => self.model.compare(),
            PhaseCost::Add => self.model.add(),
            PhaseCost::Multiply => self.model.multiply(),
            PhaseCost::Words(k) => self.model.compare() * k,
        }
    }

    /// Charges a local compute phase of duration `t` under its registry
    /// span name.
    pub(crate) fn charge_compute(&mut self, name: &str, t: BitTime) {
        let spec = primitive::spec_for(name);
        self.begin_phase(spec.name);
        self.seg_charge(t, &crate::attribution::compute_parts(t));
        self.end_phase();
        self.clock.stats_mut().leaf_ops += 1;
    }
}
