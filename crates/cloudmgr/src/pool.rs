//! The worker count of the serving loop's sharded phases, and the one
//! chunked map that deploy, the cluster tick and the fleet driver share.
//!
//! [`ShardPool::map_chunks`] splits a slice into contiguous chunks, one
//! per worker, and runs them on `std::thread::scope` threads that borrow
//! the chunks and any shared state directly — nothing is moved in or
//! out, and no thread outlives the call. The calling thread runs the
//! first chunk itself, so a two-worker map spawns a single thread.
//!
//! # Determinism
//!
//! Chunk boundaries depend only on the slice length and the worker
//! count, and results come back **in chunk order** whichever thread
//! finished first. Every consumer reduces sequentially in that order,
//! so worker count and scheduling can never change a result.

use std::panic::resume_unwind;
use std::thread;

/// How many workers a sharded phase splits across (at least one).
#[derive(Debug, Clone, Copy)]
pub struct ShardPool {
    workers: usize,
}

impl ShardPool {
    /// A pool of `workers` workers (at least one).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        ShardPool { workers: workers.max(1) }
    }

    /// Number of workers.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Splits `items` into at most [`ShardPool::workers`] contiguous
    /// chunks of equal length (the last may be shorter), applies `f` to
    /// each in parallel and returns the results **in chunk order**. With
    /// one worker, or at most one item, `f` runs once, inline, on the
    /// whole slice.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any chunk, with its original payload, once
    /// every chunk has finished.
    pub fn map_chunks<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&mut [T]) -> R + Sync,
    {
        if self.workers <= 1 || items.len() <= 1 {
            return vec![f(items)];
        }
        let chunk = items.len().div_ceil(self.workers.min(items.len()));
        let mut chunks = items.chunks_mut(chunk);
        let first = chunks.next().expect("a non-empty slice has a first chunk");
        let f = &f;
        thread::scope(|scope| {
            let handles: Vec<_> = chunks.map(|c| scope.spawn(move || f(c))).collect();
            let mut results = Vec::with_capacity(handles.len() + 1);
            results.push(f(first));
            for handle in handles {
                results.push(handle.join().unwrap_or_else(|panic| resume_unwind(panic)));
            }
            results
        })
    }
}

/// CPU cores available to this process (1 when the probe fails) — the
/// single source for [`resolve_workers`] and for the `cores` column of
/// the bench records, so what gets recorded is exactly what requests
/// were clamped against.
#[must_use]
pub fn cores() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Resolves a requested worker count against the machine and the job
/// count: `0` means one worker per available core, and explicit requests
/// are clamped to the core count — oversubscribing a CPU-bound shard
/// phase only adds scheduling overhead (on a 1-core container, `-t 4`
/// used to triple deploy cost per node against `-t 1`). The result is
/// further clamped to `[1, jobs]`.
#[must_use]
pub fn resolve_workers(requested: usize, jobs: usize) -> usize {
    let cores = cores();
    let workers = if requested == 0 { cores } else { requested.min(cores) };
    workers.clamp(1, jobs.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Maps `0..n` in chunks, returning each chunk's items.
    fn chunked(workers: usize, n: usize) -> Vec<Vec<usize>> {
        let mut items: Vec<usize> = (0..n).collect();
        ShardPool::new(workers).map_chunks(&mut items, |c| c.to_vec())
    }

    #[test]
    fn results_come_back_in_chunk_order() {
        assert_eq!(chunked(1, 7), vec![(0..7).collect::<Vec<_>>()]);
        assert_eq!(chunked(2, 7), vec![vec![0, 1, 2, 3], vec![4, 5, 6]]);
        assert_eq!(chunked(3, 7), vec![vec![0, 1, 2], vec![3, 4, 5], vec![6]]);
        assert_eq!(chunked(16, 3), vec![vec![0], vec![1], vec![2]], "more workers than items");
        assert_eq!(chunked(4, 1), vec![vec![0]]);
        assert_eq!(chunked(4, 0), vec![Vec::<usize>::new()], "an empty slice maps inline");
    }

    #[test]
    fn chunks_write_through_to_the_borrowed_slice() {
        let mut items: Vec<u64> = (0..10).collect();
        let sums = ShardPool::new(3).map_chunks(&mut items, |c| {
            c.iter_mut().for_each(|x| *x *= 10);
            c.iter().sum::<u64>()
        });
        assert_eq!(items, (0..10).map(|x| x * 10).collect::<Vec<_>>());
        assert_eq!(sums, vec![60, 220, 170]);
    }

    /// Maps four items over `workers`, panicking in the chunk that
    /// holds `dying_item`.
    fn die_at(workers: usize, dying_item: usize) {
        let mut items: Vec<usize> = (0..4).collect();
        ShardPool::new(workers).map_chunks(&mut items, |c| {
            assert!(!c.contains(&dying_item), "chunk holding {dying_item} dies");
        });
    }

    #[test]
    #[should_panic(expected = "chunk holding 3 dies")]
    fn a_spawned_chunk_panic_reaches_the_caller_with_its_message() {
        die_at(2, 3);
    }

    #[test]
    #[should_panic(expected = "chunk holding 0 dies")]
    fn a_panic_in_the_callers_own_chunk_reaches_the_caller_with_its_message() {
        die_at(2, 0);
    }

    #[test]
    #[should_panic(expected = "chunk holding 0 dies")]
    fn an_inline_panic_reaches_the_caller_with_its_message() {
        die_at(1, 0);
    }

    #[test]
    fn resolve_workers_clamps_to_cores_and_jobs() {
        let cores = cores();
        assert!(cores >= 1);
        assert_eq!(resolve_workers(0, 1_000_000), cores, "0 means one per core");
        assert_eq!(resolve_workers(10_000, 1_000_000), cores, "requests clamp to cores");
        assert_eq!(resolve_workers(1, 8), 1);
        assert_eq!(resolve_workers(0, 0), 1, "degenerate job counts still get a worker");
        assert!(resolve_workers(64, 3) <= 3, "never more workers than jobs");
    }
}
