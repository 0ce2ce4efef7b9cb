//! Parallel execution: a two-level (range × seed) work queue feeding
//! deterministic seed-order merges.
//!
//! The DFS driver ([`crate::batch`]) has one outer loop: for each frequent
//! single event (the *seed*), mine the DFS subtree rooted at it. The
//! subtrees are fully independent — they only read the immutable prepared
//! database (flat [`seqdb::SeqStore`] and CSR-index arenas, borrowed as
//! slices through `PreparedRef`, with no per-thread copies; each worker's
//! only mutable state is its own set pool and scratch) — so they can run
//! on any number of threads. Determinism comes from the merge, not the
//! schedule: each worker buffers its per-seed results, and the buffers are
//! reassembled **in seed order**, which is exactly the sequential emission
//! order. The output is therefore bit-identical to a sequential run no
//! matter how many workers raced.
//!
//! # The two levels
//!
//! Under a sharded [`PreparedDb`](crate::PreparedDb) the work decomposes
//! one level further. Its [`seqdb::ShardMap`] splits the sequences into
//! ranges of the one index, and a seed's *initial support set* is the
//! concatenation, in range order, of per-range fragments (every occurrence
//! of the seed inside one range, a slice of its rows) — per-`(seed, range)`
//! units with no mutual dependencies at all, fanned out first by
//! [`fan_out_shard_seeds`]. The *subtree DFS* that consumes the assembled
//! set stays seed-granular by necessity: whether a pattern is grown depends
//! on its support **summed across ranges** (the threshold test of
//! Algorithms 3/4), so ranges cannot explore the tree independently
//! without approximating — instead every growth step inside a subtree
//! reads the whole index, which answers every sequence exactly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Runs `work(seed_index)` for every seed in `0..num_seeds` on up to
/// `threads` scoped workers and returns the results **in seed order**.
///
/// Workers pull seed indices from a shared atomic counter (dynamic
/// load-balancing: seed subtrees are heavily skewed in practice). With
/// `threads <= 1` or a single seed the work runs inline on the caller's
/// thread.
pub(crate) fn fan_out_seeds<R, F>(threads: usize, num_seeds: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.min(num_seeds).max(1);
    if threads <= 1 {
        return (0..num_seeds).map(work).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= num_seeds {
                            break;
                        }
                        out.push((i, work(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("mining worker panicked"))
            .collect()
    });
    indexed.sort_unstable_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// The two-level (range × seed) fan-out: a grid phase computes one
/// *fragment* per `(seed, range)` pair — `num_seeds * num_shards`
/// independent tasks pulled from one atomic queue — then the seed phase
/// hands each seed its fragments (in shard order) and mines the subtree,
/// with results returned **in seed order**.
///
/// Both phases load-balance dynamically; the barrier between them is what
/// keeps the construction simple and deterministic. The grid phase does
/// hold every seed's fragments at once — the price of cross-seed fragment
/// parallelism — so it only runs when there are actually multiple ranges;
/// with one range (or one thread, or one seed) each seed's fragment is
/// computed inside its own worker, which keeps single-range parallel runs
/// at a peak memory of O(threads) live support sets.
pub(crate) fn fan_out_shard_seeds<P, R, PF, SF>(
    threads: usize,
    num_shards: usize,
    num_seeds: usize,
    fragment: PF,
    seed_work: SF,
) -> Vec<R>
where
    P: Send,
    R: Send,
    PF: Fn(usize, usize) -> P + Sync,
    SF: Fn(usize, Vec<P>) -> R + Sync,
{
    let num_shards = num_shards.max(1);
    if threads <= 1 || num_seeds <= 1 || num_shards == 1 {
        // Degenerate grid: fragments are computed inside each seed's work
        // unit (inline, or on the seed's worker thread), nothing is
        // buffered across seeds.
        return fan_out_seeds(threads, num_seeds, |seed| {
            let fragments = (0..num_shards).map(|shard| fragment(seed, shard)).collect();
            seed_work(seed, fragments)
        });
    }

    // Grid phase: (seed, shard) pairs in seed-major order — the same
    // atomic-queue fan-out as the seed phase, over `num_seeds * num_shards`
    // tasks, returned in task order.
    let fragments = fan_out_seeds(threads, num_seeds * num_shards, |task| {
        fragment(task / num_shards, task % num_shards)
    });

    // Group the seed-major fragment list into per-seed vectors, handed to
    // the seed phase through take-once cells (each seed consumes its own).
    let mut per_seed: Vec<Mutex<Option<Vec<P>>>> = Vec::with_capacity(num_seeds);
    let mut iter = fragments.into_iter();
    for _ in 0..num_seeds {
        let fragments: Vec<P> = iter.by_ref().take(num_shards).collect();
        per_seed.push(Mutex::new(Some(fragments)));
    }

    fan_out_seeds(threads, num_seeds, |seed| {
        let fragments = per_seed[seed]
            .lock()
            .expect("fragment cell poisoned")
            .take()
            .expect("each seed consumes its fragments exactly once");
        seed_work(seed, fragments)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_seed_order_regardless_of_schedule() {
        for threads in [1, 2, 3, 8, 64] {
            let results = fan_out_seeds(threads, 37, |i| i * i);
            assert_eq!(results, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_seeds_yield_an_empty_result() {
        assert!(fan_out_seeds(4, 0, |i| i).is_empty());
    }

    #[test]
    fn workers_observe_shared_state() {
        use std::sync::atomic::AtomicU64;
        let total = AtomicU64::new(0);
        let results = fan_out_seeds(4, 100, |i| {
            total.fetch_add(i as u64, Ordering::Relaxed);
            i
        });
        assert_eq!(results.len(), 100);
        assert_eq!(total.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn shard_seed_grid_delivers_fragments_in_shard_order() {
        for threads in [1, 2, 5, 16] {
            for shards in [1, 2, 3, 7] {
                let results = fan_out_shard_seeds(
                    threads,
                    shards,
                    9,
                    |seed, shard| (seed, shard),
                    |seed, fragments| {
                        // Every fragment belongs to this seed, in shard order.
                        assert_eq!(
                            fragments,
                            (0..shards).map(|s| (seed, s)).collect::<Vec<_>>()
                        );
                        seed * 10
                    },
                );
                assert_eq!(
                    results,
                    (0..9).map(|s| s * 10).collect::<Vec<_>>(),
                    "{threads} threads x {shards} shards"
                );
            }
        }
    }

    #[test]
    fn shard_seed_grid_handles_empty_and_single_seed_inputs() {
        let empty = fan_out_shard_seeds(4, 3, 0, |_, _| 0, |_, _| 0);
        assert!(empty.is_empty());
        let single = fan_out_shard_seeds(4, 3, 1, |_, shard| shard, |_, frags| frags.len());
        assert_eq!(single, vec![3]);
    }
}
