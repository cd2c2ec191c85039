//! Checkpoint/restore for the word-level networks.
//!
//! The engine-level checkpoint lives in `orthotrees_sim::snapshot`; the
//! word-level networks ([`Otn`](crate::otn::Otn), [`Otc`](crate::otc::Otc))
//! checkpoint through this module, whose natural boundary is a whole
//! primitive or problem rather than a single event — exactly where the
//! recovery supervisor (`orthotrees_sim::recovery`) checkpoints a
//! pipelined multi-problem run.
//!
//! A [`WordSnapshot`] captures everything that changes while algorithms
//! run: the simulated [`Clock`](orthotrees_vlsi::Clock) (time and
//! [`OpStats`]), every allocated register plane (flat: row-major on the
//! OTN, `(i·m + j)·L + q` on the OTC), the row- and column-root ports (one
//! word per tree on the OTN, a buffer of `L` stream words on the OTC) and
//! — when a [`FaultPlan`](crate::resilience::FaultPlan) is installed — the
//! mutable fault state (transit-round cursor and [`FaultStats`]). The
//! network *shape* (dimensions, cost model, register layout) and the plan
//! itself are configuration the caller rebuilds.
//!
//! Snapshots serialize to the workspace's dependency-free JSON — schema
//! `orthotrees-otn-snapshot/v1` or `orthotrees-otc-snapshot/v1`, after
//! the network that wrote them — via [`WordSnapshot::render`] /
//! [`WordSnapshot::parse`], so a checkpoint survives process death.
//! Malformed documents, hostile shapes included, become
//! [`SimError::SnapshotFormat`] instead of panics or aborts.
//!
//! Both networks implement [`Checkpoint`], which provides
//! `snapshot`/`restore`/`checkpoint_text`; the fault-epoch bump a
//! supervisor applies between retries is
//! [`Runtime::bump_fault_epoch`].

use crate::resilience::FaultStats;
use crate::runtime::{Kind, Runtime};
use crate::word::Word;
use orthotrees_obs::json::Json;
use orthotrees_vlsi::{BitTime, DelayModel, OpStats, SimError};
use std::ops::DerefMut;

/// A list of word buffers: register planes, or the root ports of one tree
/// family.
pub(crate) type Buffers = Vec<Vec<Option<Word>>>;

/// Largest magnitude a checkpointed [`Word`] may have: JSON numbers are
/// `f64`, exact only up to 2⁵³.
const WORD_LIMIT: i64 = 1 << 53;

/// The schema tag and the two `network` shape fields — JSON key, and the
/// property named in a restore mismatch — of `kind`'s checkpoints.
fn vocab(kind: Kind) -> (&'static str, [(&'static str, &'static str); 2]) {
    match kind {
        Kind::Otn => {
            ("orthotrees-otn-snapshot/v1", [("rows", "row count"), ("cols", "column count")])
        }
        Kind::Otc => {
            ("orthotrees-otc-snapshot/v1", [("m", "side length"), ("cycle", "cycle length")])
        }
    }
}

/// Cells per register plane, trees per root family and words per root of
/// a `kind` network with shape fields `shape`; `None` if the cell count
/// overflows.
fn layout(kind: Kind, [a, b]: [usize; 2]) -> Option<(usize, [usize; 2], usize)> {
    match kind {
        Kind::Otn => Some((a.checked_mul(b)?, [a, b], 1)),
        Kind::Otc => Some((a.checked_mul(a)?.checked_mul(b)?, [a, a], b)),
    }
}

/// A checkpoint of a running [`Otn`](crate::otn::Otn) or
/// [`Otc`](crate::otc::Otc). See the [module docs](self).
#[derive(Clone, Debug)]
pub struct WordSnapshot {
    kind: Kind,
    shape: [usize; 2],
    word_bits: u32,
    delay: &'static str,
    now: BitTime,
    stats: OpStats,
    reg_names: Vec<String>,
    planes: Buffers,
    /// Row and column root ports: one buffer per tree (one word on the
    /// OTN, `L` stream words on the OTC).
    roots: [Buffers; 2],
    fault: Option<(u64, FaultStats)>,
}

impl WordSnapshot {
    /// Simulated time at the checkpoint.
    pub fn now(&self) -> BitTime {
        self.now
    }

    /// The checkpoint as an `orthotrees-otn-snapshot/v1` or
    /// `orthotrees-otc-snapshot/v1` JSON document.
    pub fn to_json(&self) -> Json {
        let (schema, [(a, _), (b, _)]) = vocab(self.kind);
        let roots = |family: &[Vec<Option<Word>>]| match self.kind {
            Kind::Otn => Json::arr(family.iter().flatten().map(|w| word_to_json(*w))),
            Kind::Otc => Json::arr(family.iter().map(|buf| plane_to_json(buf))),
        };
        Json::obj([
            ("schema", Json::str(schema)),
            (
                "network",
                Json::obj([
                    (a, Json::u64(self.shape[0] as u64)),
                    (b, Json::u64(self.shape[1] as u64)),
                    ("word_bits", Json::u64(u64::from(self.word_bits))),
                    ("delay", Json::str(self.delay)),
                ]),
            ),
            ("clock", clock_to_json(self.now, &self.stats)),
            ("reg_names", Json::arr(self.reg_names.iter().map(Json::str))),
            ("regs", Json::arr(self.planes.iter().map(|p| plane_to_json(p)))),
            ("row_roots", roots(&self.roots[0])),
            ("col_roots", roots(&self.roots[1])),
            ("fault", fault_to_json(self.fault)),
        ])
    }

    /// Renders the checkpoint as JSON text (the on-disk format).
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Loads a checkpoint from a parsed word-level snapshot document of
    /// either schema.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SnapshotFormat`] on an unknown schema tag,
    /// missing field, out-of-range value, or an array whose length
    /// disagrees with the declared shape — checked before anything is
    /// sized from that shape.
    pub fn from_json(doc: &Json) -> Result<Self, SimError> {
        let kind = match doc.get("schema").and_then(Json::as_str) {
            Some(tag) if tag == vocab(Kind::Otn).0 => Kind::Otn,
            Some(tag) if tag == vocab(Kind::Otc).0 => Kind::Otc,
            Some(other) => return Err(bad(format!("unknown schema tag `{other}`"))),
            None => return Err(bad("schema tag missing")),
        };
        let (_, [(a, _), (b, _)]) = vocab(kind);
        let net = req(doc, "network")?;
        let shape = [req_usize(net, a)?, req_usize(net, b)?];
        let (cells, trees, words) =
            layout(kind, shape).ok_or_else(|| bad(format!("network shape {shape:?} overflows")))?;
        let (now, stats) = clock_from_json(req(doc, "clock")?)?;
        let reg_names = req_arr(doc, "reg_names")?
            .iter()
            .map(|n| {
                n.as_str().map(str::to_owned).ok_or_else(|| bad("register name is not a string"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let raw_planes = req_arr(doc, "regs")?;
        if raw_planes.len() != reg_names.len() {
            return Err(bad(format!(
                "{} register planes for {} register names",
                raw_planes.len(),
                reg_names.len()
            )));
        }
        let planes = raw_planes
            .iter()
            .zip(&reg_names)
            .map(|(plane, name)| plane_from_json(plane, &format!("register plane `{name}`"), cells))
            .collect::<Result<Vec<_>, _>>()?;
        let decode_roots = |key: &str, trees: usize| -> Result<Buffers, SimError> {
            let family = req_arr(doc, key)?;
            if family.len() != trees {
                return Err(bad(format!("{key} has {} trees, expected {trees}", family.len())));
            }
            family
                .iter()
                .map(|port| match kind {
                    Kind::Otn => Ok(vec![word_from_json(port, key)?]),
                    Kind::Otc => plane_from_json(port, key, words),
                })
                .collect()
        };
        Ok(WordSnapshot {
            kind,
            shape,
            word_bits: u32::try_from(req_u64(net, "word_bits")?)
                .map_err(|_| bad("word width exceeds u32"))?,
            delay: match req(net, "delay")?.as_str() {
                Some("Constant") => "Constant",
                Some("Logarithmic") => "Logarithmic",
                Some("Linear") => "Linear",
                Some(other) => return Err(bad(format!("unknown delay model `{other}`"))),
                None => return Err(bad("field `delay` is not a string")),
            },
            now,
            stats,
            reg_names,
            planes,
            roots: [decode_roots("row_roots", trees[0])?, decode_roots("col_roots", trees[1])?],
            fault: fault_from_json(req(doc, "fault")?)?,
        })
    }

    /// Parses a checkpoint from JSON text (the inverse of
    /// [`WordSnapshot::render`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SnapshotFormat`] if `text` is not valid JSON or
    /// not a valid word-level snapshot document.
    pub fn parse(text: &str) -> Result<Self, SimError> {
        let doc = Json::parse(text).map_err(|e| bad(format!("not valid JSON: {e}")))?;
        WordSnapshot::from_json(&doc)
    }
}

pub(crate) mod sealed {
    use super::Buffers;
    use crate::word::Word;

    /// The network-specific half of a checkpoint: shape fields, register
    /// planes and root buffers. Unnameable outside the crate, so only the
    /// crate's networks implement [`Checkpoint`](super::Checkpoint).
    pub trait Cells {
        /// The two shape fields the schema records (`rows, cols` on the
        /// OTN, `m, cycle` on the OTC).
        fn shape(&self) -> [usize; 2];

        /// Copies of every register plane (flat) and of the row and column
        /// root buffers (one per tree).
        fn save_cells(&self) -> (Buffers, [Buffers; 2]);

        /// Drops the planes past `planes.len()`, overwrites the rest and
        /// the roots. The caller has checked that shapes agree.
        fn load_cells(&mut self, planes: &[Vec<Option<Word>>], roots: &[Buffers; 2]);
    }
}

/// Checkpoint/restore of a word-level network, provided for
/// [`Otn`](crate::otn::Otn) and [`Otc`](crate::otc::Otc).
pub trait Checkpoint: sealed::Cells + DerefMut<Target = Runtime> {
    /// Captures the network's complete mutable state. Call between
    /// primitives (any point where no primitive is mid-flight — the
    /// network has no other kind of point, since primitives run to
    /// completion).
    fn snapshot(&self) -> WordSnapshot {
        let (planes, roots) = self.save_cells();
        WordSnapshot {
            kind: self.kind,
            shape: self.shape(),
            word_bits: self.model().word_bits,
            delay: delay_tag(self.model().delay),
            now: self.clock().now(),
            stats: *self.clock().stats(),
            reg_names: self.reg_names().iter().map(|n| (*n).to_owned()).collect(),
            planes,
            roots,
            fault: self.fault.as_ref().map(|f| (f.round(), f.stats)),
        }
    }

    /// Restores a checkpoint into this network.
    ///
    /// The network must be of the kind and shape the checkpoint was
    /// written from: dimensions, word width, delay model, and a register
    /// layout (names, in allocation order) that *starts with* the
    /// checkpoint's — planes allocated after the checkpoint are
    /// discarded, so a rollback across an `alloc_reg` boundary works and a
    /// retry re-allocates at the same indices. Anything else is rejected
    /// with a typed [`SimError::SnapshotMismatch`]. The installed fault
    /// *plan*, recorder and parallel policy are configuration and stay
    /// untouched; the mutable fault state (round cursor, stats) is
    /// restored when both the network and the checkpoint carry one. A
    /// checkpoint with fault state restores cleanly into a plan-free
    /// network (the healing path: the plan was removed between checkpoint
    /// and retry).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SnapshotMismatch`] on a kind or shape mismatch.
    /// On error the network is unchanged.
    fn restore(&mut self, snap: &WordSnapshot) -> Result<(), SimError> {
        let (schema, dims) = vocab(self.kind);
        if self.kind != snap.kind {
            return Err(mismatch("network", schema, vocab(snap.kind).0));
        }
        for ((_, what), (have, want)) in
            dims.into_iter().zip(self.shape().into_iter().zip(snap.shape))
        {
            if have != want {
                return Err(mismatch(what, have, want));
            }
        }
        let model = *self.model();
        if model.word_bits != snap.word_bits {
            return Err(mismatch("word width", model.word_bits, snap.word_bits));
        }
        if delay_tag(model.delay) != snap.delay {
            return Err(mismatch("delay model", delay_tag(model.delay), snap.delay));
        }
        let keep = snap.reg_names.len();
        let names = self.reg_names();
        let prefix_matches =
            names.len() >= keep && names.iter().zip(&snap.reg_names).all(|(a, b)| *a == b.as_str());
        if !prefix_matches {
            return Err(mismatch("register layout", names.join(","), snap.reg_names.join(",")));
        }
        // Rolling back across an `alloc_reg` boundary: planes allocated
        // after the checkpoint are discarded, and a retry re-allocates
        // them at the same indices.
        self.load_cells(&snap.planes, &snap.roots);
        let rt: &mut Runtime = self;
        rt.reg_names.truncate(keep);
        let clock = rt.clock_mut();
        clock.reset();
        clock.advance(snap.now);
        *clock.stats_mut() = snap.stats;
        if let (Some(fault), Some((round, stats))) = (rt.fault.as_mut(), snap.fault) {
            fault.set_round(round);
            fault.stats = stats;
        }
        Ok(())
    }

    /// Serializes the current state straight to JSON text — shorthand for
    /// `self.snapshot().render()`.
    fn checkpoint_text(&self) -> String {
        self.snapshot().render()
    }
}

impl<N: sealed::Cells + DerefMut<Target = Runtime>> Checkpoint for N {}

fn bad(detail: impl Into<String>) -> SimError {
    SimError::SnapshotFormat { detail: detail.into() }
}

fn mismatch(what: &'static str, expected: impl ToString, actual: impl ToString) -> SimError {
    SimError::SnapshotMismatch { what, expected: expected.to_string(), actual: actual.to_string() }
}

fn req<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, SimError> {
    doc.get(key).ok_or_else(|| bad(format!("missing field `{key}`")))
}

fn req_u64(doc: &Json, key: &str) -> Result<u64, SimError> {
    req(doc, key)?.as_u64().ok_or_else(|| bad(format!("field `{key}` is not an integer")))
}

fn req_usize(doc: &Json, key: &str) -> Result<usize, SimError> {
    usize::try_from(req_u64(doc, key)?).map_err(|_| bad(format!("field `{key}` exceeds usize")))
}

fn req_arr<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], SimError> {
    req(doc, key)?.as_arr().ok_or_else(|| bad(format!("field `{key}` is not an array")))
}

fn delay_tag(d: DelayModel) -> &'static str {
    match d {
        DelayModel::Constant => "Constant",
        DelayModel::Logarithmic => "Logarithmic",
        DelayModel::Linear => "Linear",
    }
}

/// One register slot (or root port): `null`, or the word as an exact
/// integer.
fn word_to_json(w: Option<Word>) -> Json {
    match w {
        None => Json::Null,
        Some(v) => {
            assert!(v.abs() < WORD_LIMIT, "checkpointed word {v} exceeds JSON exact range");
            Json::f64(v as f64)
        }
    }
}

fn word_from_json(j: &Json, what: &str) -> Result<Option<Word>, SimError> {
    match j {
        Json::Null => Ok(None),
        Json::Num(n) if n.fract() == 0.0 && n.abs() < WORD_LIMIT as f64 => Ok(Some(*n as i64)),
        other => Err(bad(format!("{what} is not null or an exact integer: {}", other.render()))),
    }
}

/// `{"now": t, "stats": {8 counters}}`.
fn clock_to_json(now: BitTime, s: &OpStats) -> Json {
    Json::obj([
        ("now", Json::u64(now.get())),
        (
            "stats",
            Json::obj([
                ("broadcasts", Json::u64(s.broadcasts)),
                ("sends", Json::u64(s.sends)),
                ("aggregates", Json::u64(s.aggregates)),
                ("leaf_ops", Json::u64(s.leaf_ops)),
                ("circulates", Json::u64(s.circulates)),
                ("hops", Json::u64(s.hops)),
                ("inputs", Json::u64(s.inputs)),
                ("outputs", Json::u64(s.outputs)),
            ]),
        ),
    ])
}

fn clock_from_json(doc: &Json) -> Result<(BitTime, OpStats), SimError> {
    let s = req(doc, "stats")?;
    Ok((
        BitTime::new(req_u64(doc, "now")?),
        OpStats {
            broadcasts: req_u64(s, "broadcasts")?,
            sends: req_u64(s, "sends")?,
            aggregates: req_u64(s, "aggregates")?,
            leaf_ops: req_u64(s, "leaf_ops")?,
            circulates: req_u64(s, "circulates")?,
            hops: req_u64(s, "hops")?,
            inputs: req_u64(s, "inputs")?,
            outputs: req_u64(s, "outputs")?,
        },
    ))
}

/// `null`, or `{"round": r, "stats": {8 counters}}`: the *mutable* part of
/// a network's fault state. The plan itself is configuration and never
/// checkpointed — healing legitimately changes it between checkpoint and
/// restore.
fn fault_to_json(state: Option<(u64, FaultStats)>) -> Json {
    match state {
        None => Json::Null,
        Some((round, s)) => Json::obj([
            ("round", Json::u64(round)),
            (
                "stats",
                Json::obj([
                    ("injected", Json::u64(s.injected)),
                    ("detected", Json::u64(s.detected)),
                    ("corrected", Json::u64(s.corrected)),
                    ("retries", Json::u64(s.retries)),
                    ("erasures", Json::u64(s.erasures)),
                    ("silent", Json::u64(s.silent)),
                    ("faulty_bits", Json::u64(s.faulty_bits)),
                    ("suppressed", Json::u64(s.suppressed)),
                ]),
            ),
        ]),
    }
}

fn fault_from_json(doc: &Json) -> Result<Option<(u64, FaultStats)>, SimError> {
    match doc {
        Json::Null => Ok(None),
        obj => {
            let s = req(obj, "stats")?;
            Ok(Some((
                req_u64(obj, "round")?,
                FaultStats {
                    injected: req_u64(s, "injected")?,
                    detected: req_u64(s, "detected")?,
                    corrected: req_u64(s, "corrected")?,
                    retries: req_u64(s, "retries")?,
                    erasures: req_u64(s, "erasures")?,
                    silent: req_u64(s, "silent")?,
                    faulty_bits: req_u64(s, "faulty_bits")?,
                    suppressed: req_u64(s, "suppressed")?,
                },
            )))
        }
    }
}

/// Serializes one plane of register values (or one root buffer).
fn plane_to_json(cells: &[Option<Word>]) -> Json {
    Json::arr(cells.iter().map(|w| word_to_json(*w)))
}

/// Decodes a plane of `len` cells, checking the length before
/// allocating.
fn plane_from_json(j: &Json, what: &str, len: usize) -> Result<Vec<Option<Word>>, SimError> {
    let cells = j.as_arr().ok_or_else(|| bad(format!("{what} is not an array")))?;
    if cells.len() != len {
        return Err(bad(format!("{what} has {} cells, expected {len}", cells.len())));
    }
    cells.iter().map(|cell| word_from_json(cell, what)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::otc::{self, Otc};
    use crate::otn::{self, Otn};
    use orthotrees_vlsi::Clock;

    #[test]
    fn words_round_trip_including_negatives_and_null() {
        for w in [None, Some(0i64), Some(-5), Some(42), Some(-(1 << 40))] {
            let j = word_to_json(w);
            assert_eq!(word_from_json(&j, "cell").unwrap(), w);
        }
        assert!(word_from_json(&Json::f64(2.5), "cell").is_err());
        assert!(word_from_json(&Json::str("x"), "cell").is_err());
    }

    #[test]
    fn clock_round_trips_time_and_stats() {
        let mut c = Clock::new();
        c.advance(BitTime::new(123));
        c.stats_mut().broadcasts = 4;
        c.stats_mut().outputs = 9;
        let doc = clock_to_json(c.now(), c.stats());
        let (now, stats) = clock_from_json(&doc).unwrap();
        let mut back = Clock::new();
        back.advance(now);
        *back.stats_mut() = stats;
        assert_eq!(back, c);
    }

    #[test]
    fn fault_state_round_trips_and_null_means_no_plan() {
        assert_eq!(fault_from_json(&Json::Null).unwrap(), None);
        let stats = FaultStats { injected: 3, retries: 1, ..FaultStats::default() };
        let doc = fault_to_json(Some((7, stats)));
        assert_eq!(fault_from_json(&doc).unwrap(), Some((7, stats)));
    }

    #[test]
    fn plane_length_is_validated() {
        let plane = [Some(1i64), None, Some(-2)];
        let doc = plane_to_json(&plane);
        assert_eq!(plane_from_json(&doc, "plane", 3).unwrap(), plane);
        assert!(plane_from_json(&doc, "plane", 2).is_err());
    }

    #[test]
    fn otn_snapshot_round_trips_through_json_text() {
        let mut net = Otn::for_sorting(8).unwrap();
        let out = otn::sort::sort(&mut net, &[5, 3, 7, 1, 6, 2, 8, 4]).unwrap();
        let snap = net.snapshot();
        let text = snap.render();
        let back = WordSnapshot::parse(&text).unwrap();
        let mut fresh = Otn::for_sorting(8).unwrap();
        // Same register layout: sort() allocates on demand, so replay the
        // allocation by sorting once and restoring over it.
        let _ = otn::sort::sort(&mut fresh, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        fresh.restore(&back).unwrap();
        assert_eq!(fresh.clock(), net.clock());
        assert_eq!(fresh.snapshot().render(), text);
        assert!(out.time > BitTime::ZERO);
    }

    #[test]
    fn otn_restore_rejects_wrong_shape_and_layout() {
        let mut a = Otn::for_sorting(8).unwrap();
        let _ = otn::sort::sort(&mut a, &[5, 3, 7, 1, 6, 2, 8, 4]).unwrap();
        let snap = a.snapshot();

        let mut wrong_size = Otn::for_sorting(16).unwrap();
        match wrong_size.restore(&snap) {
            Err(SimError::SnapshotMismatch { what: "row count", .. }) => {}
            other => panic!("expected row-count mismatch, got {other:?}"),
        }

        let mut wrong_regs = Otn::for_sorting(8).unwrap();
        match wrong_regs.restore(&snap) {
            Err(SimError::SnapshotMismatch { what: "register layout", .. }) => {}
            other => panic!("expected register-layout mismatch, got {other:?}"),
        }

        let mut wrong_kind = Otc::for_sorting(16).unwrap();
        match wrong_kind.restore(&snap) {
            Err(SimError::SnapshotMismatch { what: "network", .. }) => {}
            other => panic!("expected network mismatch, got {other:?}"),
        }
    }

    #[test]
    fn otn_malformed_documents_are_rejected_with_detail() {
        assert!(WordSnapshot::parse("not json").is_err());
        assert!(WordSnapshot::parse("{\"schema\":\"wrong/v9\"}").is_err());
        let mut net = Otn::for_sorting(4).unwrap();
        let _ = otn::sort::sort(&mut net, &[4, 3, 2, 1]).unwrap();
        let text = net.checkpoint_text();
        // Tamper: drop the clock field entirely.
        let tampered = text.replacen("\"clock\"", "\"clokk\"", 1);
        match WordSnapshot::parse(&tampered) {
            Err(SimError::SnapshotFormat { detail }) => {
                assert!(detail.contains("clock"), "{detail}");
            }
            other => panic!("expected format error, got {other:?}"),
        }
    }

    /// A declared shape far larger than the document's arrays, or one whose
    /// cell count overflows, is a format error found before any plane is
    /// sized from it.
    #[test]
    fn otn_hostile_shape_is_a_format_error() {
        let mut net = Otn::for_sorting(4).unwrap();
        let _ = otn::sort::sort(&mut net, &[4, 3, 2, 1]).unwrap();
        let text = net.checkpoint_text();
        for field in ["\"rows\":1099511627776", "\"rows\":4611686018427387904"] {
            let hostile = text.replacen("\"rows\":4", field, 1);
            assert_ne!(hostile, text);
            match WordSnapshot::parse(&hostile) {
                Err(SimError::SnapshotFormat { .. }) => {}
                other => panic!("expected format error for {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn otc_snapshot_round_trips_through_json_text() {
        let mut net = Otc::for_sorting(16).unwrap();
        let _ = otc::sort::sort(&mut net, &(0..16).rev().collect::<Vec<_>>()).unwrap();
        let snap = net.snapshot();
        let text = snap.render();
        let back = WordSnapshot::parse(&text).unwrap();
        let mut fresh = Otc::for_sorting(16).unwrap();
        let _ = otc::sort::sort(&mut fresh, &(0..16).collect::<Vec<_>>()).unwrap();
        fresh.restore(&back).unwrap();
        assert_eq!(fresh.clock(), net.clock());
        assert_eq!(fresh.snapshot().render(), text);
    }

    #[test]
    fn otc_restore_rejects_wrong_cycle_length() {
        let mut a = Otc::for_sorting(16).unwrap();
        let _ = otc::sort::sort(&mut a, &(0..16).rev().collect::<Vec<_>>()).unwrap();
        let snap = a.snapshot();
        let mut b = Otc::new(4, 8, crate::CostModel::thompson(32)).unwrap();
        match b.restore(&snap) {
            Err(SimError::SnapshotMismatch { what: "cycle length", .. }) => {}
            other => panic!("expected cycle-length mismatch, got {other:?}"),
        }
    }

    /// The OTC twin of [`otn_hostile_shape_is_a_format_error`], on both the
    /// register planes and the root stream buffers.
    #[test]
    fn otc_hostile_shape_is_a_format_error() {
        let mut sorted = Otc::for_sorting(16).unwrap();
        let _ = otc::sort::sort(&mut sorted, &(0..16).rev().collect::<Vec<_>>()).unwrap();
        // A fresh net has no planes, so only the root buffers are checked.
        for text in [sorted.checkpoint_text(), Otc::for_sorting(16).unwrap().checkpoint_text()] {
            // 2³² cycles per side also overflows the m²·L cell count.
            for (from, to) in
                [("\"cycle\":4", "\"cycle\":1099511627776"), ("\"m\":4", "\"m\":4294967296")]
            {
                let hostile = text.replacen(from, to, 1);
                assert_ne!(hostile, text);
                match WordSnapshot::parse(&hostile) {
                    Err(SimError::SnapshotFormat { .. }) => {}
                    other => panic!("expected format error for {to}, got {other:?}"),
                }
            }
        }
    }
}
