//! Instances and landmarks of a pattern (Definitions 2.1–2.3).
//!
//! A *landmark* of pattern `P = e1..em` in sequence `S` is an increasing
//! list of 1-based positions `l1 < l2 < ... < lm` with `S[li] = ei`. An
//! *instance* is a pair `(sequence index, landmark)`.
//!
//! Following §III-D ("Compressed Storage of Instances"), the mining
//! algorithms keep only the triple `(seq, first, last)` per instance; the
//! full landmark can be reconstructed on demand (see
//! [`SupportComputer::support_landmarks`](crate::growth::SupportComputer::support_landmarks)).

use std::cmp::Ordering;
use std::fmt;

/// A full landmark: the 1-based positions of one occurrence of a pattern in
/// one sequence (Definition 2.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Landmark {
    /// 0-based index of the sequence in the database.
    pub seq: usize,
    /// Strictly increasing 1-based positions, one per pattern event.
    pub positions: Vec<u32>,
}

impl Landmark {
    /// Creates a landmark, asserting that the positions are strictly
    /// increasing (debug builds only).
    pub fn new(seq: usize, positions: Vec<u32>) -> Self {
        debug_assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "landmark positions must be strictly increasing"
        );
        Self { seq, positions }
    }

    /// The last position of the landmark (`lm`), or `None` for an empty
    /// landmark.
    pub fn last(&self) -> Option<u32> {
        self.positions.last().copied()
    }

    /// The first position of the landmark (`l1`), or `None` for an empty
    /// landmark.
    pub fn first(&self) -> Option<u32> {
        self.positions.first().copied()
    }

    /// Two instances of the *same pattern* overlap iff they are in the same
    /// sequence and share a position at the same pattern index
    /// (Definition 2.3).
    pub fn overlaps(&self, other: &Landmark) -> bool {
        if self.seq != other.seq {
            return false;
        }
        self.positions
            .iter()
            .zip(other.positions.iter())
            .any(|(a, b)| a == b)
    }

    /// The compressed representation `(seq, first, last)` of this landmark.
    ///
    /// # Panics
    ///
    /// Panics on an empty landmark (the empty pattern has no instances).
    pub fn compress(&self) -> Instance {
        Instance {
            seq: self.seq as u32,
            first: self.first().expect("cannot compress an empty landmark"),
            last: self.last().expect("cannot compress an empty landmark"),
        }
    }
}

impl fmt::Display for Landmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let positions: Vec<String> = self.positions.iter().map(u32::to_string).collect();
        write!(f, "({}, <{}>)", self.seq + 1, positions.join(","))
    }
}

/// The compressed instance triple `(i, l1, ln)` of §III-D.
///
/// `Instance` is `Copy` and 12 bytes, so support sets are cache-friendly
/// vectors of plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instance {
    /// 0-based sequence index.
    pub seq: u32,
    /// First landmark position `l1` (1-based).
    pub first: u32,
    /// Last landmark position `lm` (1-based). Equals `first` for size-1
    /// patterns.
    pub last: u32,
}

impl Instance {
    /// Creates an instance triple.
    pub fn new(seq: u32, first: u32, last: u32) -> Self {
        debug_assert!(first <= last, "first position must not exceed last");
        Self { seq, first, last }
    }

    /// The *right-shift order* of Definition 3.1: instances are ordered by
    /// sequence index and, within a sequence, by last landmark position.
    pub fn right_shift_cmp(&self, other: &Instance) -> Ordering {
        (self.seq, self.last).cmp(&(other.seq, other.last))
    }
}

impl PartialOrd for Instance {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Instance {
    fn cmp(&self, other: &Self) -> Ordering {
        self.right_shift_cmp(other)
            .then(self.first.cmp(&other.first))
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}..{})", self.seq + 1, self.first, self.last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_requires_same_position_at_same_pattern_index() {
        // Example 2.1: instances (1,<1,2>) and (1,<1,5>) of AB overlap (same
        // first position); (1,<1,2>) and (1,<4,5>) do not.
        let a = Landmark::new(0, vec![1, 2]);
        let b = Landmark::new(0, vec![1, 5]);
        let c = Landmark::new(0, vec![4, 5]);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c)); // share l2 = 5
    }

    #[test]
    fn aba_instances_sharing_a_position_at_different_indices_do_not_overlap() {
        // Example 2.1, pattern ABA: (1,<1,2,4>) and (1,<4,5,7>) are
        // NON-overlapping although position 4 appears in both (at different
        // pattern indices).
        let a = Landmark::new(0, vec![1, 2, 4]);
        let b = Landmark::new(0, vec![4, 5, 7]);
        assert!(!a.overlaps(&b));
        // (1,<1,2,7>) and (1,<4,5,7>) overlap because l3 = 7 in both.
        let c = Landmark::new(0, vec![1, 2, 7]);
        assert!(c.overlaps(&b));
    }

    #[test]
    fn instances_in_different_sequences_never_overlap() {
        let a = Landmark::new(0, vec![1, 2]);
        let b = Landmark::new(1, vec![1, 2]);
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn compress_keeps_first_and_last() {
        let l = Landmark::new(3, vec![2, 5, 9]);
        let i = l.compress();
        assert_eq!(i, Instance::new(3, 2, 9));
    }

    #[test]
    fn right_shift_order_sorts_by_sequence_then_last_position() {
        let mut instances = vec![
            Instance::new(1, 1, 4),
            Instance::new(0, 4, 9),
            Instance::new(0, 1, 6),
            Instance::new(1, 5, 6),
        ];
        instances.sort();
        assert_eq!(
            instances,
            vec![
                Instance::new(0, 1, 6),
                Instance::new(0, 4, 9),
                Instance::new(1, 1, 4),
                Instance::new(1, 5, 6),
            ]
        );
    }

    #[test]
    fn display_formats_are_one_based_for_sequences() {
        assert_eq!(Landmark::new(0, vec![1, 3, 6]).to_string(), "(1, <1,3,6>)");
        assert_eq!(Instance::new(1, 1, 4).to_string(), "(2, 1..4)");
    }
}
