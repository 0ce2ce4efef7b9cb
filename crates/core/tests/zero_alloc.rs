//! Pins the columnar-refactor allocation guarantee: steady-state pattern
//! growth performs **zero per-step heap allocations**.
//!
//! A counting global allocator wraps the system allocator; each measured
//! region warms its buffers once, snapshots the counter, re-runs the hot
//! loop many times, and asserts the counter did not move. Everything runs
//! inside ONE test function so unrelated test threads cannot pollute the
//! global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rgs_core::closure::{CheckScratch, Child, ClosureChecker, ClosureStatus};
use rgs_core::kernel::{node_runs, SiblingSweep, SweepScratch};
use rgs_core::{GapConstraints, InstanceBuffer, Pattern, PreparedDb, SupportSet};
use seqdb::SequenceDatabase;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the system allocator; bumping an atomic
// counter on the side does not affect layout or aliasing guarantees.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The `k`-th capital letter.
fn letter(k: u32) -> char {
    char::from_u32(u32::from('A') + k).unwrap_or('A')
}

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Runs `hot` once to warm every buffer, then `repeats` more times under
/// the counter and asserts not a single allocation happened.
///
/// The counter is process-global, and the libtest harness thread
/// occasionally performs a couple of allocations of its own at an
/// unpredictable moment — so a non-zero measurement is re-measured (twice)
/// before failing. A genuine per-step allocation in the hot loop shows up
/// in *every* attempt (at least `repeats` counts each), so the retry can
/// only absorb unrelated O(1) noise, never a real regression.
fn assert_zero_alloc(label: &str, repeats: usize, mut hot: impl FnMut()) {
    hot();
    let mut measured = 0;
    for _ in 0..3 {
        let before = allocations();
        for _ in 0..repeats {
            hot();
        }
        measured = allocations() - before;
        if measured == 0 {
            return;
        }
    }
    panic!("{label}: {measured} allocations in {repeats} warm iterations");
}

#[test]
fn steady_state_growth_allocates_nothing() {
    // A database with enough repetition that growth chains stay non-trivial
    // (the paper's running example, tripled).
    let db = SequenceDatabase::from_str_rows(&[
        "ABCACBDDBABCACBDDB",
        "ACDBACADDACDBACADD",
        "ABCABCAABBCCABCABC",
    ]);
    let prepared = PreparedDb::new(&db);
    let index = prepared.index();
    let sc = prepared.support_computer();
    let pattern = Pattern::new(db.pattern_from_str("ACBD").unwrap());
    let events: Vec<_> = db.catalog().ids().collect();
    let first = pattern.events()[0];

    // 1. Landmark reconstruction through the double-buffered SoA
    //    InstanceBuffer: re-running the same reconstruction reuses both
    //    generations' arenas.
    let mut buffer = InstanceBuffer::new();
    let unbounded = GapConstraints::unbounded();
    assert_zero_alloc("InstanceBuffer::reconstruct", 100, || {
        buffer.reconstruct(index, &pattern, &unbounded);
        assert!(!buffer.is_empty());
    });

    // 2. Constrained reconstruction shares the same loop and the same
    //    buffers.
    let constrained = GapConstraints::max_gap(4);
    assert_zero_alloc("InstanceBuffer::reconstruct (constrained)", 100, || {
        buffer.reconstruct(index, &pattern, &constrained);
    });

    // 3. The compressed-instance growth chain (`supComp`) ping-ponging
    //    between two warm support sets — the exact shape of the DFS hot
    //    loop, where the miners recycle sets through a pool.
    let mut support = SupportSet::new();
    let mut spare = SupportSet::new();
    assert_zero_alloc("instance_growth_into chain", 100, || {
        sc.initial_support_set_into(first, &mut support);
        for &event in &pattern.events()[1..] {
            sc.instance_growth_into(&support, event, usize::MAX, &mut spare);
            std::mem::swap(&mut support, &mut spare);
        }
        assert!(!support.is_empty());
    });

    // 4. A fan of growth attempts from one frequent pattern across the whole
    //    alphabet — the per-node loop of GSgrow — into one recycled set.
    let base = sc.support_set(&Pattern::new(db.pattern_from_str("AC").unwrap()));
    let mut grown = SupportSet::new();
    assert_zero_alloc("per-node growth fan", 100, || {
        for &event in &events {
            sc.instance_growth_into(&base, event, usize::MAX, &mut grown);
        }
    });

    //    The same fan through a computer carrying gap constraints, which
    //    runs the constrained instantiation of the one growth loop.
    let csc = prepared
        .support_computer()
        .with_constraints(GapConstraints::max_gap(4));
    let constrained_base = csc.support_set(&Pattern::new(db.pattern_from_str("AC").unwrap()));
    assert!(!constrained_base.is_empty());
    assert_zero_alloc("per-node growth fan (constrained)", 100, || {
        for &event in &events {
            csc.instance_growth_into(&constrained_base, event, usize::MAX, &mut grown);
        }
    });

    // 5. The closure check (Theorems 4 and 5): the per-sequence instance
    //    counts, the viable candidates and the extension chain all live in
    //    the warm scratch — on a pattern with an interior run (`ADDA`), one with
    //    a trailing run (`ACDD`, grown once as an append) and one the
    //    landmark border prunes (`ABBA`).
    let checker = ClosureChecker::new(&sc, &events);
    let mut scratch = CheckScratch::new();
    for (text, expected) in [
        ("ADDA", ClosureStatus::Closed),
        ("ACDD", ClosureStatus::Closed),
        ("ABBA", ClosureStatus::Prune),
    ] {
        let pattern = Pattern::new(db.pattern_from_str(text).unwrap());
        let stack: Vec<SupportSet> = (1..=pattern.len())
            .map(|len| sc.support_set(&pattern.prefix(len)))
            .collect();
        let label = format!("ClosureChecker::check on {text}");
        assert_zero_alloc(&label, 100, || {
            let verdict = checker.check(&pattern, &stack, false, &mut scratch);
            assert_eq!(verdict, expected, "{text}");
        });

        //    The same checks starting every chain at slot `j >= 1` from the
        //    ancestor's kept child set, as the DFS walk runs them.
        let tables: Vec<Vec<Child>> = (1..pattern.len())
            .map(|len| {
                let prefix = pattern.prefix(len);
                events
                    .iter()
                    .map(|&event| {
                        let set = sc.support_set(&prefix.grow(event));
                        Child {
                            support: set.support(),
                            set: Some(set),
                        }
                    })
                    .collect()
            })
            .collect();
        let label = format!("ClosureChecker::check_with_children on {text}");
        assert_zero_alloc(&label, 100, || {
            let verdict =
                checker.check_with_children(&pattern, &stack, &tables, false, &mut scratch);
            assert_eq!(verdict, expected, "{text}");
        });
    }

    // 6. The sibling sweep of a closed scan's child pass: at nodes where the
    //    cost rule picks it (short rows over many events), the run set, the
    //    one-pass count of every child's support, and the growth of the
    //    children that clear the threshold all reuse warm buffers.
    let rows: Vec<String> = (0u32..40)
        .map(|i| {
            (0u32..10)
                .map(|j| letter((i * 7 + j * j * 3) % 17))
                .collect()
        })
        .collect();
    let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
    let db = SequenceDatabase::from_str_rows(&refs);
    let prepared = PreparedDb::new(&db);
    let sc = prepared.support_computer();
    let store = db.store();
    let events: Vec<_> = db.catalog().ids().collect();
    let sweep = SiblingSweep::new(&events);
    let nodes: Vec<SupportSet> = events
        .iter()
        .flat_map(|&a| events.iter().map(move |&b| Pattern::new(vec![a, b])))
        .map(|pattern| sc.support_set(&pattern))
        .filter(|set| {
            let (_, steps) = node_runs(store, set.instances());
            set.support() >= 5 && sweep.pays(steps, set.instances().len())
        })
        .collect();
    assert!(nodes.len() > 10, "only {} sweep nodes", nodes.len());
    let mut scratch = SweepScratch::new();
    let mut child = SupportSet::new();
    let mut kept = 0usize;
    assert_zero_alloc("sibling sweep child pass", 20, || {
        for node in &nodes {
            let (runs, _) = node_runs(store, node.instances());
            std::hint::black_box(&runs);
            sweep.count(store, node.instances(), &mut scratch);
            for (&event, count) in events.iter().zip(scratch.counts()) {
                if count >= 5 {
                    sc.instance_growth_into(node, event, usize::MAX, &mut child);
                    kept += 1;
                }
            }
        }
    });
    assert!(kept > 0, "no child clears the threshold");
}
