//! The dense register plane behind every word-level network.
//!
//! A register plane holds one [`Word`] per base processor. The API speaks
//! `Option<Word>` (the paper's `NULL` is `None`), but the storage is two
//! dense arrays indexed by the network's flat cell index — the words and
//! a per-cell validity flag — so a cell costs 9 bytes instead of the 16 of
//! an `Option<i64>`, and a plane of `N²` cells is two contiguous buffers.
//! The [`Otn`](crate::otn::Otn) indexes cells row-major (`i·cols + j`),
//! the [`Otc`](crate::otc::Otc) by `(i·m + j)·L + q`.
//!
//! Planes are recycled across a run of same-sized problems (one fresh
//! network each). Planes of at least one page are dropped in *sets*: the
//! drops between two `Plane::new` calls. A set that repeats the length of
//! the set before it hands its buffers to a thread-local free list, and
//! [`Plane::new`] takes a buffer of the same length from it and clears it
//! instead of asking the OS for fresh zero pages. So such a run faults its
//! registers in once, not once per problem. A one-off length is freed at
//! once, so a sweep over sizes holds nothing back. The list holds only
//! the last set's planes; a request for another length frees them first.
//! It therefore never holds more than was live at once.
//!
//! The module also holds the [`Selection`] every tree executor gathers:
//! one bit per cell of a grid laid out like the plane (OTN BPs, OTC
//! cycles, or OTC cycle positions), stored row by row in memory order
//! and gathered in blocks of rows, one per worker under
//! [`ParallelPolicy::Threads`]. Both tree families are then swept in that
//! order — a row tree's leaves are one mask row; a column tree's leaves
//! are one bit of every mask row. A column-tree broadcast writes the
//! plane front to back through [`Plane::run_mut`] instead of striding
//! `cols` cells per leaf, and the upward folds
//! ([`primitive::fold_trees`](crate::primitive)) hand each worker a range
//! of trees that it folds row by row.

use crate::otn::Axis;
use crate::primitive::{self, ParallelPolicy};
use crate::word::Word;
use std::cell::RefCell;
use std::ops::Range;

/// One register plane. A `NULL` cell stores the word 0, so two planes
/// holding the same values compare and clone identically. Cloning
/// allocates fresh buffers; only [`Plane::new`] reuses dropped ones.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Plane {
    words: Vec<Word>,
    valid: Vec<bool>,
}

/// Planes smaller than one page are freed, not recycled.
const RECYCLE_BYTES: usize = 4096;

/// The buffers of dropped planes, waiting for the next [`Plane::new`].
struct FreeList {
    /// `(words, valid)` pairs, all of length `set_len`.
    buffers: Vec<(Vec<Word>, Vec<bool>)>,
    /// The plane length of the current (or last) drop set.
    set_len: usize,
    /// Whether the current drop set is kept: it repeats the length of
    /// the set before it.
    keep: bool,
    /// Whether a `Plane::new` ran since the last drop: the next drop
    /// starts a new set.
    taken: bool,
}

thread_local! {
    static FREE: RefCell<FreeList> = const {
        RefCell::new(FreeList { buffers: Vec::new(), set_len: 0, keep: false, taken: false })
    };
}

impl Plane {
    /// A plane of `cells` `NULL` cells, on recycled buffers when a
    /// dropped plane of the same length is waiting.
    pub(crate) fn new(cells: usize) -> Self {
        let reused = FREE
            .try_with(|free| {
                let mut free = free.borrow_mut();
                free.taken = true;
                if free.buffers.last().is_some_and(|(words, _)| words.len() != cells) {
                    free.buffers.clear();
                }
                free.buffers.pop()
            })
            .ok()
            .flatten();
        match reused {
            Some((mut words, mut valid)) => {
                words.fill(0);
                valid.fill(false);
                Plane { words, valid }
            }
            None => Plane { words: vec![0; cells], valid: vec![false; cells] },
        }
    }

    /// The value of cell `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is out of range.
    #[inline]
    pub(crate) fn get(&self, at: usize) -> Option<Word> {
        self.valid[at].then(|| self.words[at])
    }

    /// Sets cell `at`; `None` clears its validity flag.
    ///
    /// # Panics
    ///
    /// Panics if `at` is out of range.
    #[inline]
    pub(crate) fn set(&mut self, at: usize, v: Option<Word>) {
        self.valid[at] = v.is_some();
        self.words[at] = v.unwrap_or(0);
    }

    /// Cells `lo..hi` as `(words, validity flags)`: a `NULL` write must
    /// clear the flag and store the word 0.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[inline]
    pub(crate) fn run_mut(&mut self, lo: usize, hi: usize) -> (&mut [Word], &mut [bool]) {
        (&mut self.words[lo..hi], &mut self.valid[lo..hi])
    }

    /// Splits the plane into consecutive runs of `len` cells and rotates
    /// each run left by one (`VECTORCIRCULATE` of every cycle).
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0.
    pub(crate) fn rotate_runs_left(&mut self, len: usize) {
        fn rotate<T: Copy>(cells: &mut [T], len: usize) {
            for run in cells.chunks_exact_mut(len) {
                let first = run[0];
                run.copy_within(1.., 0);
                run[len - 1] = first;
            }
        }
        rotate(&mut self.words, len);
        rotate(&mut self.valid, len);
    }

    /// Every cell in index order (checkpoint save).
    pub(crate) fn to_vec(&self) -> Vec<Option<Word>> {
        (0..self.words.len()).map(|at| self.get(at)).collect()
    }

    /// Overwrites every cell from `cells` (checkpoint restore).
    ///
    /// # Panics
    ///
    /// Panics if `cells` has a different length than the plane.
    pub(crate) fn load(&mut self, cells: &[Option<Word>]) {
        assert_eq!(cells.len(), self.words.len(), "plane length mismatch");
        for (at, &v) in cells.iter().enumerate() {
            self.set(at, v);
        }
    }
}

impl Drop for Plane {
    fn drop(&mut self) {
        if self.words.len() * std::mem::size_of::<Word>() < RECYCLE_BYTES {
            return;
        }
        let buffers = (std::mem::take(&mut self.words), std::mem::take(&mut self.valid));
        // During thread teardown the list may be gone; the buffers are
        // then simply freed. A drop must not panic, so a busy list (never
        // expected: the list holds no planes) frees them too.
        let _ = FREE.try_with(|free| {
            let Ok(mut free) = free.try_borrow_mut() else { return };
            let len = buffers.0.len();
            if std::mem::take(&mut free.taken) || len != free.set_len {
                // A new drop set: free what the last one left over, and
                // keep this one only if it repeats the last one's length.
                free.buffers.clear();
                free.keep = len == free.set_len;
                free.set_len = len;
            }
            if free.keep {
                free.buffers.push(buffers);
            }
        });
    }
}

/// Which cells of a `rows × cols` grid a primitive reads or writes: one
/// mask of `⌈cols / 64⌉` words per grid row, bit `j % 64` of word
/// `j / 64` marking cell `(i, j)`. The grid is the plane in memory order:
/// OTN BPs, OTC cycles (downward), or OTC cycle positions (upward, `cols`
/// = `m·L`).
pub(crate) struct Selection {
    words: usize,
    masks: Vec<u64>,
}

impl Selection {
    /// Evaluates `pick(i, j)` over the whole grid in memory order. Under
    /// [`ParallelPolicy::Threads`] each worker gathers a block of rows.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is 0.
    pub(crate) fn gather(
        policy: ParallelPolicy,
        rows: usize,
        cols: usize,
        pick: impl Fn(usize, usize) -> bool + Sync,
    ) -> Self {
        let words = cols.div_ceil(64);
        let masks = primitive::per_tree(policy, rows, |block| {
            let mut masks = vec![0u64; block.len() * words];
            for (row, i) in masks.chunks_exact_mut(words).zip(block) {
                for (w, mask) in row.iter_mut().enumerate() {
                    let lo = w * 64;
                    let mut bits = 0;
                    for j in lo..cols.min(lo + 64) {
                        bits |= u64::from(pick(i, j)) << (j - lo);
                    }
                    *mask = bits;
                }
            }
            masks
        });
        Selection { words, masks }
    }

    /// Whether cell `(i, j)` is selected.
    #[inline]
    pub(crate) fn contains(&self, i: usize, j: usize) -> bool {
        self.masks[i * self.words + j / 64] >> (j % 64) & 1 == 1
    }

    /// The selected `(tree, leaf)` pairs of `axis` on a grid of `trees`
    /// trees of `leaves` leaves, in the paper's tree → leaf order (the
    /// reach-event order; a strided scan, run only under reach tracing).
    pub(crate) fn tree_order(
        &self,
        axis: Axis,
        trees: usize,
        leaves: usize,
    ) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..trees).flat_map(move |t| (0..leaves).map(move |l| (t, l))).filter(move |&(t, l)| {
            let (i, j) = axis.coords(t, l);
            self.contains(i, j)
        })
    }

    /// Calls `f(j)` for every selected cell `(i, j)` with `j` in `cols`, in
    /// ascending order, skipping empty mask words.
    #[inline(always)]
    pub(crate) fn for_each_in(&self, i: usize, cols: Range<usize>, mut f: impl FnMut(usize)) {
        if cols.is_empty() {
            return;
        }
        let row = &self.masks[i * self.words..(i + 1) * self.words];
        let (first, last) = (cols.start / 64, (cols.end - 1) / 64);
        for (w, &mask) in row.iter().enumerate().take(last + 1).skip(first) {
            let mut bits = mask;
            if w == first {
                bits &= !0 << (cols.start % 64);
            }
            if w == last {
                bits &= !0 >> (63 - (cols.end - 1) % 64);
            }
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_null_stay_distinct() {
        let mut p = Plane::new(3);
        assert_eq!(p.to_vec(), [None, None, None]);
        p.set(0, Some(0));
        p.set(1, Some(-7));
        assert_eq!(p.to_vec(), [Some(0), Some(-7), None]);
        p.set(1, None);
        assert_eq!(p.get(1), None, "writing NULL clears the validity flag");
        let mut q = Plane::new(3);
        q.set(0, Some(0));
        assert_eq!(p, q, "a cleared cell is canonical");
    }

    #[test]
    fn rotate_moves_words_and_flags_together() {
        let mut p = Plane::new(6);
        p.load(&[Some(9), Some(1), None, Some(2), Some(3), None]);
        p.rotate_runs_left(3);
        assert_eq!(p.to_vec(), [Some(1), None, Some(9), Some(3), None, Some(2)]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_get_panics() {
        let _ = Plane::new(4).get(4);
    }

    #[test]
    fn masks_list_their_leaves_in_order() {
        let pick = |i: usize, j: usize, cols: usize| (i + j).is_multiple_of(3) || j == cols - 1;
        for policy in [ParallelPolicy::Sequential, ParallelPolicy::Threads] {
            for cols in [1, 63, 64, 65, 128, 130] {
                let sel = Selection::gather(policy, 3, cols, |i, j| pick(i, j, cols));
                assert_eq!(sel.masks.len(), 3 * cols.div_ceil(64));
                let want: Vec<(usize, usize)> = (0..3)
                    .flat_map(|i| (0..cols).map(move |j| (i, j)))
                    .filter(|&(i, j)| pick(i, j, cols))
                    .collect();
                let mut got = Vec::new();
                for i in 0..3 {
                    sel.for_each_in(i, 0..cols, |j| got.push((i, j)));
                }
                assert_eq!(got, want, "{cols} columns under {policy:?}");
                // Any column window sees exactly its share, in order.
                for (lo, hi) in [(0, 0), (1, cols), (cols / 2, cols), (cols.min(63), cols.min(65))]
                {
                    let mut part = Vec::new();
                    sel.for_each_in(1, lo..hi, |j| part.push((1, j)));
                    let want: Vec<_> = want
                        .iter()
                        .copied()
                        .filter(|&(i, j)| i == 1 && (lo..hi).contains(&j))
                        .collect();
                    assert_eq!(part, want, "columns {lo}..{hi} of {cols}");
                }
                for i in 0..3 {
                    for j in 0..cols {
                        assert_eq!(sel.contains(i, j), pick(i, j, cols), "({i},{j})");
                    }
                }
            }
            let mut none = 0;
            let empty = Selection::gather(policy, 4, 128, |_, _| false);
            (0..4).for_each(|i| empty.for_each_in(i, 0..128, |_| none += 1));
            assert_eq!(none, 0);
        }
    }

    /// A plane large enough to be recycled (8 KiB of words).
    const BIG: usize = 1024;

    /// The buffer lengths on this thread's free list.
    fn retained() -> Vec<usize> {
        FREE.with(|free| free.borrow().buffers.iter().map(|(words, _)| words.len()).collect())
    }

    /// Drops one set of `BIG` planes, so the next set of that length is
    /// kept: a first set of a length is freed at once.
    fn prime() {
        drop(Plane::new(BIG));
        assert_eq!(retained(), [0usize; 0], "a one-off length is not kept");
    }

    #[test]
    fn a_recycled_plane_equals_a_fresh_one() {
        prime();
        let mut p = Plane::new(BIG);
        p.set(0, Some(0));
        p.set(7, Some(-3));
        p.set(BIG - 1, Some(9));
        drop(p);
        assert_eq!(retained(), [BIG]);
        let q = Plane::new(BIG);
        assert_eq!(retained(), [0usize; 0], "the buffer was taken");
        assert_eq!(q, Plane { words: vec![0; BIG], valid: vec![false; BIG] });
        assert!(q.to_vec().iter().all(Option::is_none));
    }

    #[test]
    fn a_request_for_another_length_frees_every_retained_buffer() {
        prime();
        drop((Plane::new(BIG), Plane::new(BIG)));
        assert_eq!(retained(), [BIG, BIG]);
        let other = Plane::new(2 * BIG);
        assert_eq!(retained(), [0usize; 0]);
        assert_eq!(other.to_vec(), vec![None; 2 * BIG]);
        drop(other);
        assert_eq!(retained(), [0usize; 0], "a new length is freed, not kept");
    }

    #[test]
    fn retained_buffers_never_exceed_the_last_dropped_set() {
        prime();
        drop([Plane::new(BIG), Plane::new(BIG), Plane::new(BIG)]);
        assert_eq!(retained().len(), 3);
        let p = Plane::new(BIG);
        assert_eq!(retained().len(), 2);
        drop(p);
        assert_eq!(retained(), [BIG], "the next drop set frees the last set's leftovers");
        drop(Plane::new(16));
        assert_eq!(retained(), [0usize; 0], "another length frees; sub-page planes are not kept");
    }

    #[test]
    fn clones_never_share_storage() {
        prime();
        let mut p = Plane::new(BIG);
        p.set(3, Some(4));
        let mut c = p.clone();
        assert_eq!(c, p);
        c.set(3, Some(5));
        assert_eq!(p.get(3), Some(4), "writing the clone leaves the original alone");
        assert_ne!(c.words.as_ptr(), p.words.as_ptr());
        drop((p, c));
        assert_eq!(retained().len(), 2);
        let (a, b) = (Plane::new(BIG), Plane::new(BIG));
        assert_ne!(a.words.as_ptr(), b.words.as_ptr());
        assert_ne!(a.valid.as_ptr(), b.valid.as_ptr());
    }

    #[test]
    fn load_and_to_vec_round_trip_on_a_recycled_plane() {
        let cells: Vec<Option<Word>> =
            (0..BIG).map(|k| (k % 3 != 0).then_some(k as Word - 500)).collect();
        prime();
        drop(Plane::new(BIG));
        let mut p = Plane::new(BIG);
        assert!(retained().is_empty(), "the plane is the recycled buffer");
        p.load(&cells);
        assert_eq!(p.to_vec(), cells);
    }
}
