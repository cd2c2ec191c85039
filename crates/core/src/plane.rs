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
//! The module also holds the selection masks the downward executors
//! gather: one bit per leaf of a tree (OTC: per cycle), so the gather
//! allocates `⌈leaves / 64⌉` words per tree instead of one write record
//! per selected leaf.

use crate::word::Word;

/// One register plane. A `NULL` cell stores the word 0, so two planes
/// holding the same values compare and clone identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Plane {
    words: Vec<Word>,
    valid: Vec<bool>,
}

impl Plane {
    /// A plane of `cells` `NULL` cells.
    pub(crate) fn new(cells: usize) -> Self {
        Plane { words: vec![0; cells], valid: vec![false; cells] }
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

/// The set leaves of one tree's selection mask, in ascending order: bit
/// `l % 64` of word `l / 64` marks leaf `l`.
pub(crate) fn mask_leaves(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(w, &bits)| {
        let mut rest = bits;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + b
            })
        })
    })
}

/// A selection mask over `leaves` leaves with leaf `l` set iff `pick(l)`.
pub(crate) fn select_mask(leaves: usize, mut pick: impl FnMut(usize) -> bool) -> Vec<u64> {
    let mut mask = vec![0u64; leaves.div_ceil(64)];
    for l in 0..leaves {
        if pick(l) {
            mask[l / 64] |= 1 << (l % 64);
        }
    }
    mask
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
        for leaves in [1, 63, 64, 65, 128, 130] {
            let mask = select_mask(leaves, |l| l % 3 == 0 || l == leaves - 1);
            assert_eq!(mask.len(), leaves.div_ceil(64));
            let want: Vec<usize> = (0..leaves).filter(|l| l % 3 == 0 || *l == leaves - 1).collect();
            assert_eq!(mask_leaves(&mask).collect::<Vec<_>>(), want, "{leaves} leaves");
        }
        assert_eq!(mask_leaves(&select_mask(128, |_| false)).count(), 0);
    }
}
