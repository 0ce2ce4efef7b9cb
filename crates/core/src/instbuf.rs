//! The reusable SoA instance buffer: flat landmark storage for instance
//! growth with full positions.
//!
//! [`InstanceBuffer`] holds the landmarks of one generation of instance
//! growth in structure-of-arrays form: a `seqs` column (one `u32` per
//! instance) and a flat `positions` arena with a fixed *stride* — every
//! landmark of a pattern of length `m` occupies exactly `m` consecutive
//! slots, so landmark `i` is `positions[i * m .. (i + 1) * m]` and nothing
//! is heap-allocated per instance (compare the seed's `Vec<Vec<u32>>` per
//! growth step).
//!
//! The buffer is **double-buffered**: [`InstanceBuffer::grow`] writes the
//! next generation into a spare pair of columns (whose capacity is retained
//! across steps) and swaps. Steady-state growth — re-running reconstruction
//! or growing patterns of similar size — therefore allocates nothing; the
//! zero-allocation property is pinned by a counting-allocator test.
//!
//! One growth routine serves both the unconstrained and the constrained
//! semantics (with [`GapConstraints::unbounded`] the bounds degenerate to
//! exactly Algorithm 2), which is what lets
//! [`SupportSet::reconstruct_landmarks`](crate::SupportSet::reconstruct_landmarks)
//! and the constrained miner share a single landmark-reconstruction loop
//! instead of the seed's copy-paste twins.
//!
//! Landmark reconstruction runs the same per-instance
//! [`seqdb::PostingCursor`] probe loop as the hot growth pass in
//! [`crate::kernel`], but it copies whole landmarks into the strided arena
//! instead of pushing `(seq, first, last)` instances into a support set, so
//! it keeps its own copy of the loop. It runs once per reported pattern, not
//! per growth step.

use seqdb::{EventId, InvertedIndex, PostingCursor};

use crate::constraints::GapConstraints;
use crate::instance::{Instance, Landmark};
use crate::pattern::Pattern;

/// A reusable, double-buffered SoA buffer of full landmarks.
///
/// All landmarks in a buffer belong to the same pattern and therefore share
/// one stride (the pattern length). Instances are kept in `(seq, last)`
/// right-shift order, exactly like a
/// [`SupportSet`](crate::support::SupportSet).
#[derive(Debug, Clone, Default)]
pub struct InstanceBuffer {
    /// Landmark length of the current generation (0 when empty).
    stride: usize,
    /// Sequence index of instance `i`.
    seqs: Vec<u32>,
    /// Flat landmark arena: instance `i` owns
    /// `positions[i * stride .. (i + 1) * stride]`.
    positions: Vec<u32>,
    /// Spare columns for the next generation (double buffering).
    spare_seqs: Vec<u32>,
    spare_positions: Vec<u32>,
}

impl InstanceBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of instances in the current generation.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// Returns `true` when the buffer holds no instances.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// The landmark length of the current generation (the pattern length).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Drops all instances but keeps every allocation.
    pub fn clear(&mut self) {
        self.stride = 0;
        self.seqs.clear();
        self.positions.clear();
    }

    /// The sequence index of instance `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`.
    pub fn seq(&self, i: usize) -> u32 {
        // Documented panic on an out-of-range instance id at the API
        // boundary; the growth loops never call this.
        // audit:allow(indexing): see above
        self.seqs[i]
    }

    /// The landmark positions of instance `i` (a slice into the arena).
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`.
    pub fn landmark(&self, i: usize) -> &[u32] {
        // Documented panic on an out-of-range instance id at the API
        // boundary; the growth loops never call this.
        // audit:allow(indexing): see above
        &self.positions[i * self.stride..(i + 1) * self.stride]
    }

    /// Iterates over `(sequence, landmark positions)` pairs in right-shift
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u32])> + '_ {
        self.seqs
            .iter()
            .copied()
            .zip(self.positions.chunks_exact(self.stride.max(1)))
    }

    /// Seeds the buffer with every occurrence of `event`: the leftmost
    /// support set of the single-event pattern, with stride 1 (line 1 of
    /// Algorithm 1). Reuses the buffer's capacity.
    pub fn seed(&mut self, index: &InvertedIndex, event: EventId) {
        self.clear();
        self.stride = 1;
        for (seq, positions) in index.sequences_with_event(event) {
            for &pos in positions {
                self.seqs.push(seq as u32);
                self.positions.push(pos);
            }
        }
    }

    /// One step of constrained leftmost instance growth carrying **full**
    /// landmarks: extends every instance of a pattern `P` into an instance
    /// of `P ◦ event`, greedily and in right-shift order, admitting only
    /// extensions within the gap/window bounds. With
    /// [`GapConstraints::unbounded`] this is exactly Algorithm 2.
    ///
    /// The next generation is written into the spare columns (capacity
    /// retained across calls) and swapped in — zero allocations once the
    /// buffers are warm.
    pub fn grow(&mut self, index: &InvertedIndex, event: EventId, constraints: &GapConstraints) {
        let stride = self.stride;
        debug_assert!(stride > 0, "grow() needs a seeded buffer");
        let Self {
            seqs,
            positions,
            spare_seqs,
            spare_positions,
            ..
        } = self;
        spare_seqs.clear();
        spare_positions.clear();

        let len = seqs.len();
        let mut rows = index.event_rows(event);
        let mut i = 0;
        while i < len {
            let Some(rest) = seqs.get(i..) else { break };
            let Some(&seq) = rest.first() else { break };
            let end = i + rest.iter().take_while(|&&s| s == seq).count();
            // Within one sequence: greedy right-shift-order extension with
            // the strictly-increasing `last_position` watermark of
            // Algorithm 2, line 5. The `(seq, event)` posting row is
            // resolved once per run (forward-only, through the pass's row
            // handle) and advanced by a monotone cursor instead of
            // re-searching the whole row per instance.
            let Some((hit, row)) = rows.next_row(seq as usize) else {
                break;
            };
            if hit != seq as usize {
                // No sequence from `seq` up to `hit` holds the event.
                i += rest.iter().take_while(|&&s| (s as usize) < hit).count();
                continue;
            }
            let mut cursor = PostingCursor::new(row);
            let mut last_position = 0u32;
            for j in i..end {
                let Some(landmark) = positions.get(j * stride..(j + 1) * stride) else {
                    break;
                };
                // A landmark slice is never empty: stride > 0 is asserted on
                // entry, so first/last always exist.
                let (Some(&first), Some(&prev)) = (landmark.first(), landmark.last()) else {
                    break;
                };
                let lowest = last_position.max(constraints.lowest_exclusive(prev));
                let highest = constraints.highest_inclusive(first, prev);
                match cursor.next_after(lowest) {
                    Some(pos) if pos <= highest => {
                        last_position = pos;
                        spare_seqs.push(seq);
                        spare_positions.extend_from_slice(landmark);
                        spare_positions.push(pos);
                    }
                    // The next occurrence exists but violates a constraint:
                    // this instance cannot be extended, but instances ending
                    // further right might still be, so keep scanning.
                    Some(_) => continue,
                    // No occurrence of `event` remains in this sequence at
                    // all: later instances end even further right, so stop.
                    None => break,
                }
            }
            i = end;
        }

        std::mem::swap(seqs, spare_seqs);
        std::mem::swap(positions, spare_positions);
        self.stride = stride + 1;
    }

    /// Rebuilds the (constrained) leftmost support set of `pattern` with
    /// full landmarks: seed on the first event, then chain [`Self::grow`].
    ///
    /// This is the **shared** landmark-reconstruction loop behind both
    /// [`SupportSet::reconstruct_landmarks`](crate::support::SupportSet::reconstruct_landmarks)
    /// (unbounded constraints) and
    /// [`ConstrainedSupportComputer::support_landmarks`](crate::constrained::ConstrainedSupportComputer::support_landmarks).
    pub fn reconstruct(
        &mut self,
        index: &InvertedIndex,
        pattern: &Pattern,
        constraints: &GapConstraints,
    ) {
        let events = pattern.events();
        let Some((&first, rest)) = events.split_first() else {
            self.clear();
            return;
        };
        self.seed(index, first);
        for &event in rest {
            if self.is_empty() {
                return;
            }
            self.grow(index, event, constraints);
        }
    }

    /// Materializes the buffer as owned [`Landmark`]s (reporting API).
    pub fn to_landmarks(&self) -> Vec<Landmark> {
        self.iter()
            .map(|(seq, positions)| Landmark::new(seq as usize, positions.to_vec()))
            .collect()
    }

    /// The compressed `(seq, first, last)` triple of instance `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`.
    pub fn compressed(&self, i: usize) -> Instance {
        let landmark = self.landmark(i);
        Instance::new(
            self.seq(i),
            landmark.first().copied().unwrap_or(0),
            landmark.last().copied().unwrap_or(0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdb::SequenceDatabase;

    fn running_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"])
    }

    fn pattern(db: &SequenceDatabase, s: &str) -> Pattern {
        Pattern::new(db.pattern_from_str(s).unwrap())
    }

    #[test]
    fn reconstruct_matches_table_iv() {
        // Table IV: the leftmost support set of ACB is
        // {(1,<1,3,6>), (1,<4,5,9>), (2,<1,2,4>)}.
        let db = running_example();
        let index = db.inverted_index();
        let mut buffer = InstanceBuffer::new();
        buffer.reconstruct(&index, &pattern(&db, "ACB"), &GapConstraints::unbounded());
        assert_eq!(buffer.len(), 3);
        assert_eq!(buffer.stride(), 3);
        assert_eq!(
            buffer.to_landmarks(),
            vec![
                Landmark::new(0, vec![1, 3, 6]),
                Landmark::new(0, vec![4, 5, 9]),
                Landmark::new(1, vec![1, 2, 4]),
            ]
        );
        assert_eq!(buffer.compressed(0), Instance::new(0, 1, 6));
        assert_eq!(buffer.compressed(2), Instance::new(1, 1, 4));
    }

    #[test]
    fn constrained_reconstruct_respects_max_gap() {
        // Contiguous AC: (1,<4,5>), (2,<1,2>), (2,<5,6>).
        let db = running_example();
        let index = db.inverted_index();
        let mut buffer = InstanceBuffer::new();
        buffer.reconstruct(&index, &pattern(&db, "AC"), &GapConstraints::max_gap(0));
        assert_eq!(
            buffer.to_landmarks(),
            vec![
                Landmark::new(0, vec![4, 5]),
                Landmark::new(1, vec![1, 2]),
                Landmark::new(1, vec![5, 6]),
            ]
        );
    }

    #[test]
    fn empty_pattern_and_dead_pattern_clear_the_buffer() {
        let db = running_example();
        let index = db.inverted_index();
        let mut buffer = InstanceBuffer::new();
        buffer.reconstruct(&index, &Pattern::empty(), &GapConstraints::unbounded());
        assert!(buffer.is_empty());
        // A pattern whose growth dies: CCCC has no instances.
        buffer.reconstruct(&index, &pattern(&db, "CCCC"), &GapConstraints::unbounded());
        assert!(buffer.is_empty());
    }

    #[test]
    fn buffer_is_reusable_across_patterns() {
        let db = running_example();
        let index = db.inverted_index();
        let mut buffer = InstanceBuffer::new();
        buffer.reconstruct(&index, &pattern(&db, "ACB"), &GapConstraints::unbounded());
        let first = buffer.to_landmarks();
        buffer.reconstruct(&index, &pattern(&db, "AAD"), &GapConstraints::unbounded());
        assert_eq!(
            buffer.to_landmarks(),
            vec![
                Landmark::new(0, vec![1, 4, 7]),
                Landmark::new(1, vec![1, 5, 8]),
                Landmark::new(1, vec![5, 7, 9]),
            ]
        );
        buffer.reconstruct(&index, &pattern(&db, "ACB"), &GapConstraints::unbounded());
        assert_eq!(buffer.to_landmarks(), first);
    }

    #[test]
    fn seed_yields_every_occurrence_in_order() {
        let db = running_example();
        let index = db.inverted_index();
        let a = db.catalog().id("A").unwrap();
        let mut buffer = InstanceBuffer::new();
        buffer.seed(&index, a);
        assert_eq!(buffer.len(), 5);
        assert_eq!(buffer.stride(), 1);
        let triples: Vec<Instance> = (0..buffer.len()).map(|i| buffer.compressed(i)).collect();
        assert_eq!(
            triples,
            vec![
                Instance::new(0, 1, 1),
                Instance::new(0, 4, 4),
                Instance::new(1, 1, 1),
                Instance::new(1, 5, 5),
                Instance::new(1, 7, 7),
            ]
        );
    }
}
