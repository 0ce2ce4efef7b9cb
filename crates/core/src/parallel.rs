//! Parallel execution: a seed work queue feeding deterministic seed-order
//! merges.
//!
//! The DFS driver ([`crate::batch`]) has one outer loop: for each frequent
//! single event (the *seed*), mine the DFS subtree rooted at it. The
//! subtrees are fully independent — they only read the immutable prepared
//! database (flat [`seqdb::SeqStore`] and CSR-index arenas, borrowed as
//! slices from the one [`crate::PreparedDb`], with no per-thread copies;
//! each worker's only mutable state is its own set pool and scratch) — so
//! they can run on any number of threads. Determinism comes from the
//! merge, not the schedule: each worker buffers its per-seed results, and
//! the buffers are reassembled **in seed order**, which is exactly the
//! sequential emission order. The output is therefore bit-identical to a
//! sequential run no matter how many workers raced.
//!
//! Each worker builds its own seed's initial support set (one scan of the
//! seed's posting rows), so a parallel run holds at most `threads` seed
//! sets at once.

use std::sync::atomic::{AtomicUsize, Ordering};
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
}
