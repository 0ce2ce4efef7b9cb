//! The sibling sweep against the growth kernel: one pass over a node's
//! sequences must count every candidate child's support exactly as one
//! kernel pass per candidate grows it.
//!
//! Seeded corpora cover runs of many instances per sequence and runs of
//! repeated events, on narrow (`u16`) and wide stores, at nodes on both
//! sides of the sweep's cost rule.

use rgs_core::kernel::{node_runs, SiblingSweep, SweepScratch};
use rgs_core::{PreparedDb, SupportComputer, SupportSet};
use seqdb::{EventId, SequenceDatabase};

/// Deterministic LCG (no external randomness in tests).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const LABELS: [&str; 20] = [
    "A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "K", "L", "M", "N", "O", "P", "Q", "R", "S",
    "T",
];

/// `rows` sequences of `len` events drawn from the first `alphabet` labels;
/// with `repeat > 1` each drawn event is repeated up to `repeat` times.
fn corpus(seed: u64, rows: usize, len: usize, alphabet: usize, repeat: usize) -> SequenceDatabase {
    let mut rng = Lcg(seed);
    let rows: Vec<Vec<&str>> = (0..rows)
        .map(|_| {
            let mut row = Vec::with_capacity(len);
            while row.len() < len {
                let label = LABELS[rng.below(alphabet)];
                for _ in 0..1 + rng.below(repeat) {
                    row.push(label);
                }
            }
            row.truncate(len);
            row
        })
        .collect();
    SequenceDatabase::from_token_rows(&rows)
}

/// The seeded corpora: dense runs of many instances per sequence, short
/// rows over a wide candidate list, and rows of repeated events.
fn corpora() -> Vec<(&'static str, SequenceDatabase)> {
    vec![
        ("many instances per run", corpus(0x5EED, 6, 150, 3, 1)),
        ("many candidates", corpus(0xC0FFEE, 60, 12, 20, 1)),
        ("repeated events", corpus(0xBEEF, 12, 60, 5, 6)),
    ]
}

/// Nodes checked on each side of the cost rule.
#[derive(Default)]
struct Seen {
    sweep_pays: usize,
    passes_pay: usize,
}

/// Walks every node of the pattern tree up to length 3 with support of at
/// least one, and checks at each that the sweep counts every candidate
/// child's support as the kernel grows it.
fn check_nodes(label: &str, sc: &SupportComputer<'_>, seen: &mut Seen) {
    let store = sc.database().store();
    let events: Vec<EventId> = sc.database().catalog().ids().collect();
    let sweep = SiblingSweep::new(&events);
    let mut scratch = SweepScratch::new();
    let mut stack: Vec<(usize, SupportSet)> = events
        .iter()
        .map(|&e| (1, sc.initial_support_set(e)))
        .collect();
    while let Some((len, node)) = stack.pop() {
        let (_, steps) = node_runs(store, node.instances());
        if sweep.pays(steps, node.instances().len()) {
            seen.sweep_pays += 1;
        } else {
            seen.passes_pay += 1;
        }
        sweep.count(store, node.instances(), &mut scratch);
        let counts: Vec<u64> = scratch.counts().collect();
        assert_eq!(counts.len(), events.len(), "{label}");
        for (&event, count) in events.iter().zip(counts) {
            let grown = sc.instance_growth(&node, event);
            assert_eq!(count, grown.support(), "{label}: count of {event:?}");
            if len < 3 && !grown.is_empty() {
                stack.push((len + 1, grown));
            }
        }
    }
}

#[test]
fn sweep_counts_equal_kernel_supports() {
    let mut seen = Seen::default();
    for (name, db) in corpora() {
        let mut wide = db.clone();
        wide.widen_store();
        for (width, db) in [("narrow", &db), ("wide", &wide)] {
            assert_eq!(db.store().is_narrow(), width == "narrow");
            check_nodes(
                &format!("{name}, {width}, flat"),
                &PreparedDb::new(db).support_computer(),
                &mut seen,
            );
        }
    }
    // The sweep ran at every node; the cost rule picks it at some of them.
    assert!(seen.sweep_pays > 0, "no node takes the sweep");
    assert!(seen.passes_pay > 0, "no node keeps the passes");
}

/// Unsorted slots, a candidate list that skips events, and a node without
/// instances: the counts follow the candidate order and ignore the rest.
#[test]
fn the_sweep_follows_the_candidate_order() {
    // Table III: S1 = ABCACBDDB, S2 = ACDBACADD.
    let db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
    let prepared = PreparedDb::new(&db);
    let sc = prepared.support_computer();
    let id = |label: &str| db.catalog().id(label).expect("interned");
    let candidates = [id("D"), id("B")];
    let sweep = SiblingSweep::new(&candidates);
    let mut scratch = SweepScratch::new();
    let a = sc.initial_support_set(id("A"));
    sweep.count(db.store(), a.instances(), &mut scratch);
    let expected: Vec<u64> = candidates
        .iter()
        .map(|&e| sc.instance_growth(&a, e).support())
        .collect();
    assert_eq!(scratch.counts().collect::<Vec<_>>(), expected);

    sweep.count(db.store(), &[], &mut scratch);
    assert_eq!(scratch.counts().collect::<Vec<_>>(), [0, 0]);
    assert_eq!(node_runs(db.store(), &[]).1, 0);
}
