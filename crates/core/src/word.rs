//! Machine words and the key/index packing trick.
//!
//! The paper assumes all values are `O(log N)`-bit words (§II.B). We use
//! `i64` as the host representation and let each network's
//! [`CostModel`](orthotrees_vlsi::CostModel) state how many bits the words
//! it transports are charged for. The register API speaks `Option<Word>`,
//! with `None` playing the role of the paper's `NULL` (e.g. SORT-OTC step
//! 5.1 loads NULL into `D(0)`). The storage behind it is dense: each
//! register plane is a `Vec<Word>` plus a per-cell validity flag (see
//! `plane.rs`), so `NULL` costs a cleared flag, not a 16-byte `Option`.

/// A machine word. The paper's algorithms manipulate `O(log N)`-bit values;
/// `i64` comfortably hosts the packed pairs the graph algorithms use.
pub type Word = i64;

/// Packs `(key, index)` into a single word: `key · n + index`.
///
/// The graph algorithms select minimum-weight edges by *minimising the
/// packed word*, which orders by key first and index second — the classic
/// way to get an argmin out of a `MIN-LEAFTOROOT` without extra rounds.
/// The packed word is `⌈log₂ key_bound⌉ + ⌈log₂ n⌉` bits, still `O(log N)`
/// when keys are polynomial in `n`; networks built by
/// [`Otn::for_graphs`](crate::otn::Otn::for_graphs) size their cost-model
/// word width accordingly.
///
/// # Panics
///
/// Panics if `index ≥ n`, or if the result would overflow `i64`.
///
/// # Example
///
/// ```
/// use orthotrees::{pack, unpack};
/// let p = pack(7, 3, 16);
/// assert_eq!(unpack(p, 16), (7, 3));
/// // Packing preserves the (key, index) lexicographic order.
/// assert!(pack(7, 3, 16) < pack(7, 4, 16));
/// assert!(pack(7, 15, 16) < pack(8, 0, 16));
/// ```
pub fn pack(key: Word, index: usize, n: usize) -> Word {
    assert!(index < n, "index {index} out of range for n={n}");
    assert!(key >= 0, "packed keys must be non-negative, got {key}");
    key.checked_mul(n as Word)
        .and_then(|k| k.checked_add(index as Word))
        .expect("pack overflow: key too large for i64")
}

/// Inverts [`pack`]: returns `(key, index)`.
///
/// # Panics
///
/// Panics if `n == 0` or the packed value is negative.
pub fn unpack(packed: Word, n: usize) -> (Word, usize) {
    assert!(n > 0, "unpack needs n > 0");
    assert!(packed >= 0, "cannot unpack negative value {packed}");
    (packed / n as Word, (packed % n as Word) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        for key in [0i64, 1, 17, 1000] {
            for idx in [0usize, 1, 14, 15] {
                assert_eq!(unpack(pack(key, idx, 16), 16), (key, idx));
            }
        }
    }

    #[test]
    fn packing_orders_lexicographically() {
        let n = 32;
        let mut packed: Vec<Word> = Vec::new();
        for key in 0..5 {
            for idx in 0..n {
                packed.push(pack(key, idx, n));
            }
        }
        let mut sorted = packed.clone();
        sorted.sort_unstable();
        assert_eq!(packed, sorted, "pack must be monotone in (key, index)");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pack_rejects_large_index() {
        let _ = pack(1, 16, 16);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn pack_rejects_negative_key() {
        let _ = pack(-1, 0, 16);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn pack_rejects_overflow() {
        let _ = pack(Word::MAX / 2, 3, 16);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn unpack_rejects_negative() {
        let _ = unpack(-5, 4);
    }
}
