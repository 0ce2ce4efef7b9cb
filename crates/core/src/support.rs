//! Support sets: non-redundant instance sets of maximum size.
//!
//! A *support set* of a pattern `P` (Definition 2.5) is a non-redundant
//! (pairwise non-overlapping) set of instances of `P` whose size equals the
//! repetitive support `sup(P)`. The mining algorithms always manipulate the
//! *leftmost* support set (Definition 3.2), which is produced incrementally
//! by instance growth.
//!
//! Instances are stored in their compressed form (`(seq, first, last)`,
//! §III-D), sorted by sequence index and, within a sequence, in right-shift
//! order. [`SupportComputer::support_landmarks`](crate::growth::SupportComputer::support_landmarks)
//! rebuilds full landmarks, under the computer's constraints, when they are
//! needed for reporting.

use seqdb::{EventId, SequenceDatabase};

use crate::instance::{Instance, Landmark};

/// The (leftmost) support set of a pattern: a maximum-size set of pairwise
/// non-overlapping instances, in compressed storage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SupportSet {
    instances: Vec<Instance>,
}

impl SupportSet {
    /// Creates an empty support set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a support set from instances already in `(seq, last)` order.
    ///
    /// Debug builds assert the ordering invariant.
    pub fn from_sorted(instances: Vec<Instance>) -> Self {
        debug_assert!(
            instances
                .windows(2)
                .all(|w| (w[0].seq, w[0].last) <= (w[1].seq, w[1].last)),
            "support set instances must be sorted by (seq, last)"
        );
        Self { instances }
    }

    /// The instances of the support set, sorted by `(seq, last)`.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// The size of the support set, i.e. the repetitive support of the
    /// pattern it was computed for.
    pub fn support(&self) -> u64 {
        self.instances.len() as u64
    }

    /// Returns `true` when the set holds no instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Drops all instances but keeps the allocation, so the set can be
    /// refilled by the next growth step without touching the heap.
    pub(crate) fn clear(&mut self) {
        self.instances.clear();
    }

    /// Appends an instance; the caller must respect the `(seq, last)` order.
    pub(crate) fn push(&mut self, instance: Instance) {
        debug_assert!(
            self.instances
                .last()
                .is_none_or(|prev| (prev.seq, prev.last) <= (instance.seq, instance.last)),
            "instances must be appended in (seq, last) order"
        );
        self.instances.push(instance);
    }

    /// Iterates over the maximal runs of instances that belong to the same
    /// sequence, yielding `(sequence index, instances)`.
    pub fn per_sequence(&self) -> impl Iterator<Item = (usize, &[Instance])> {
        PerSequence {
            instances: &self.instances,
            start: 0,
        }
    }

    /// The number of instances contributed by sequence `seq`.
    pub fn count_in_sequence(&self, seq: usize) -> usize {
        self.instances
            .iter()
            .filter(|inst| inst.seq as usize == seq)
            .count()
    }

    /// The last landmark positions of all instances, in `(seq, last)` order.
    ///
    /// These are the "landmark borders" compared by the landmark border
    /// checking strategy (Theorem 5).
    pub fn last_positions(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.instances.iter().map(|inst| (inst.seq, inst.last))
    }
}

struct PerSequence<'a> {
    instances: &'a [Instance],
    start: usize,
}

impl<'a> Iterator for PerSequence<'a> {
    type Item = (usize, &'a [Instance]);

    fn next(&mut self) -> Option<Self::Item> {
        let rest = self.instances.get(self.start..)?;
        let first = rest.first()?;
        let len = rest.iter().take_while(|inst| inst.seq == first.seq).count();
        self.start += len;
        Some((first.seq as usize, rest.get(..len).unwrap_or(rest)))
    }
}

/// Checks that a set of full landmarks of the same pattern is non-redundant
/// (pairwise non-overlapping, Definition 2.4). Exposed for tests and for the
/// reference implementation.
pub fn is_non_redundant(landmarks: &[Landmark]) -> bool {
    for (i, a) in landmarks.iter().enumerate() {
        for b in landmarks.iter().skip(i + 1) {
            if a.overlaps(b) {
                return false;
            }
        }
    }
    true
}

/// Checks that every landmark is a valid occurrence of `pattern` in `db`.
pub fn are_valid_instances(
    db: &SequenceDatabase,
    pattern: &[EventId],
    landmarks: &[Landmark],
) -> bool {
    landmarks.iter().all(|landmark| {
        if landmark.positions.len() != pattern.len() {
            return false;
        }
        let ascending = landmark
            .positions
            .iter()
            .zip(landmark.positions.iter().skip(1))
            .all(|(a, b)| a < b);
        if !ascending {
            return false;
        }
        let Some(sequence) = db.sequence(landmark.seq) else {
            return false;
        };
        landmark
            .positions
            .iter()
            .zip(pattern.iter())
            .all(|(&pos, &event)| sequence.at(pos as usize) == Some(event))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::GapConstraints;
    use crate::growth::SupportComputer;
    use crate::pattern::Pattern;

    /// Table III: S1 = ABCACBDDB, S2 = ACDBACADD.
    fn running_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"])
    }

    /// The landmarks of `pattern`'s leftmost support set.
    fn landmarks_of(db: &SequenceDatabase, pattern: &Pattern) -> Vec<Landmark> {
        SupportComputer::new(db).support_landmarks(pattern)
    }

    #[test]
    fn per_sequence_groups_runs() {
        let set = SupportSet::from_sorted(vec![
            Instance::new(0, 1, 6),
            Instance::new(0, 4, 9),
            Instance::new(1, 1, 4),
        ]);
        let groups: Vec<(usize, usize)> = set.per_sequence().map(|(s, g)| (s, g.len())).collect();
        assert_eq!(groups, vec![(0, 2), (1, 1)]);
        assert_eq!(set.count_in_sequence(0), 2);
        assert_eq!(set.count_in_sequence(1), 1);
        assert_eq!(set.count_in_sequence(2), 0);
    }

    #[test]
    fn reconstruct_landmarks_matches_table_iv() {
        // Table IV: the leftmost support set of ACB is
        // {(1,<1,3,6>), (1,<4,5,9>), (2,<1,2,4>)}.
        let db = running_example();
        let pattern = Pattern::new(db.pattern_from_str("ACB").unwrap());
        let landmarks = landmarks_of(&db, &pattern);
        assert_eq!(
            landmarks,
            vec![
                Landmark::new(0, vec![1, 3, 6]),
                Landmark::new(0, vec![4, 5, 9]),
                Landmark::new(1, vec![1, 2, 4]),
            ]
        );
        assert!(is_non_redundant(&landmarks));
        assert!(are_valid_instances(&db, pattern.events(), &landmarks));
    }

    #[test]
    fn reconstruct_landmarks_of_aca_allows_reuse_at_different_indices() {
        // Example 3.1 step 3': I_ACA = {(1,<1,3,4>), (2,<1,2,5>), (2,<5,6,7>)}.
        let db = running_example();
        let pattern = Pattern::new(db.pattern_from_str("ACA").unwrap());
        let landmarks = landmarks_of(&db, &pattern);
        assert_eq!(
            landmarks,
            vec![
                Landmark::new(0, vec![1, 3, 4]),
                Landmark::new(1, vec![1, 2, 5]),
                Landmark::new(1, vec![5, 6, 7]),
            ]
        );
        assert!(is_non_redundant(&landmarks));
    }

    #[test]
    fn non_redundancy_detects_overlaps() {
        let good = vec![Landmark::new(0, vec![1, 2]), Landmark::new(0, vec![4, 5])];
        let bad = vec![Landmark::new(0, vec![1, 2]), Landmark::new(0, vec![1, 5])];
        assert!(is_non_redundant(&good));
        assert!(!is_non_redundant(&bad));
    }

    #[test]
    fn validity_checks_positions_and_events() {
        let db = running_example();
        let acb = db.pattern_from_str("ACB").unwrap();
        let valid = vec![Landmark::new(0, vec![1, 3, 6])];
        let wrong_event = vec![Landmark::new(0, vec![1, 2, 6])];
        let wrong_len = vec![Landmark::new(0, vec![1, 3])];
        let out_of_range = vec![Landmark::new(7, vec![1, 3, 6])];
        assert!(are_valid_instances(&db, &acb, &valid));
        assert!(!are_valid_instances(&db, &acb, &wrong_event));
        assert!(!are_valid_instances(&db, &acb, &wrong_len));
        assert!(!are_valid_instances(&db, &acb, &out_of_range));
    }

    #[test]
    fn empty_pattern_has_no_landmarks() {
        let db = running_example();
        assert!(landmarks_of(&db, &Pattern::empty()).is_empty());
    }

    #[test]
    fn constrained_landmarks_compress_back_to_the_constrained_set() {
        // With max_gap 0 the set of AC is (0,4,5) (1,1,2) (1,5,6); a replay
        // without the constraints would report (0,<1,3>) (0,<4,5>) (1,<1,2>).
        let db = running_example();
        let sc = SupportComputer::new(&db).with_constraints(GapConstraints::max_gap(0));
        let ac = Pattern::new(db.pattern_from_str("AC").unwrap());
        let set = sc.support_set(&ac);
        assert_eq!(
            set.instances(),
            &[
                Instance::new(0, 4, 5),
                Instance::new(1, 1, 2),
                Instance::new(1, 5, 6),
            ]
        );
        let compressed: Vec<Instance> = sc
            .support_landmarks(&ac)
            .iter()
            .map(Landmark::compress)
            .collect();
        assert_eq!(compressed, set.instances());
    }

    #[test]
    fn last_positions_follow_storage_order() {
        let set = SupportSet::from_sorted(vec![
            Instance::new(0, 1, 6),
            Instance::new(0, 4, 9),
            Instance::new(1, 1, 4),
        ]);
        let lasts: Vec<(u32, u32)> = set.last_positions().collect();
        assert_eq!(lasts, vec![(0, 6), (0, 9), (1, 4)]);
    }
}
