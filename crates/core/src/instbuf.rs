//! The reusable SoA instance buffer: flat landmark storage for instance
//! growth with full positions.
//!
//! [`InstanceBuffer`] holds the landmarks of one generation of instance
//! growth in structure-of-arrays form: an `instances` column of compressed
//! `(seq, first, last)` triples and a flat `positions` arena with a fixed
//! *stride*. Every landmark of a pattern of length `m` occupies exactly `m`
//! consecutive slots, so landmark `i` is `positions[i * m .. (i + 1) * m]`
//! and nothing is heap-allocated per instance.
//!
//! The buffer is **double-buffered**: [`InstanceBuffer::grow`] writes the
//! next generation into a spare pair of columns (whose capacity is retained
//! across steps) and swaps. Steady-state growth — re-running reconstruction
//! or growing patterns of similar size — therefore allocates nothing; the
//! zero-allocation property is pinned by a counting-allocator test.
//!
//! Growth runs the one probe loop of [`crate::kernel`] over the
//! `instances` column, the same loop that grows support sets, so a
//! reconstructed landmark set is the support set instance for instance,
//! under any [`GapConstraints`]. The loop reports each match with the index
//! of the instance it extends; the buffer copies that landmark into the
//! spare arena and appends the new position. It runs once per reported
//! pattern, not per growth step.

use seqdb::{EventId, InvertedIndex};

use crate::constraints::GapConstraints;
use crate::instance::{Instance, Landmark};
use crate::kernel;
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
    /// The compressed `(seq, first, last)` triple of instance `i`.
    instances: Vec<Instance>,
    /// Flat landmark arena: instance `i` owns
    /// `positions[i * stride .. (i + 1) * stride]`.
    positions: Vec<u32>,
    /// Spare columns for the next generation (double buffering).
    spare_instances: Vec<Instance>,
    spare_positions: Vec<u32>,
}

impl InstanceBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of instances in the current generation.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Returns `true` when the buffer holds no instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// The landmark length of the current generation (the pattern length).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Drops all instances but keeps every allocation.
    pub fn clear(&mut self) {
        self.stride = 0;
        self.instances.clear();
        self.positions.clear();
    }

    /// Iterates over `(sequence, landmark positions)` pairs in right-shift
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u32])> + '_ {
        self.instances
            .iter()
            .map(|inst| inst.seq)
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
                self.instances.push(Instance::new(seq as u32, pos, pos));
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
            instances,
            positions,
            spare_instances,
            spare_positions,
            ..
        } = self;
        spare_instances.clear();
        spare_positions.clear();
        let grown_landmark = |i: usize, grown: Instance| {
            spare_instances.push(grown);
            let landmark = positions.get(i * stride..(i + 1) * stride).unwrap_or(&[]);
            spare_positions.extend_from_slice(landmark);
            spare_positions.push(grown.last);
        };
        kernel::grow(
            index,
            event,
            *constraints,
            instances,
            None,
            usize::MAX,
            grown_landmark,
        );
        std::mem::swap(instances, spare_instances);
        std::mem::swap(positions, spare_positions);
        self.stride = stride + 1;
    }

    /// Rebuilds the (constrained) leftmost support set of `pattern` with
    /// full landmarks: seed on the first event, then chain [`Self::grow`].
    ///
    /// This is the landmark-reconstruction loop behind
    /// [`SupportComputer::support_landmarks`](crate::growth::SupportComputer::support_landmarks).
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
        // Documented panic on an out-of-range instance id at the API
        // boundary; the growth loop never calls this.
        // audit:allow(indexing): see above
        self.instances[i]
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
