//! The sanctioned worker pool for deterministic parallel execution.
//!
//! Everything in this workspace that fans out across threads goes through
//! this module — its thread calls carry the workspace's only grants against
//! clippy's `ambient-thread` bans (DESIGN.md §9). Two primitives are exposed:
//!
//! * [`Pool::submit`] — hand a batch of jobs to the workers and get a
//!   [`Pending`] back at once; [`Pending::wait`] returns the results **in
//!   job order**, regardless of which worker finished first, so the caller
//!   can work between the two. [`Pool::scatter`] is `submit(..).wait()`.
//!   With one thread the jobs run inline on the caller's thread, in index
//!   order, before `submit` returns, so the serial engine and the parallel
//!   engine share a single code path and byte-identical results are a
//!   structural property, not an accident.
//! * [`merge_canonical`] — fold per-shard, key-ordered result streams into
//!   one stream sorted by a canonical key (BitTorrent windows key their
//!   completions by `(time, swarm)`), independent of how items were
//!   sharded.
//!
//! Determinism contract: a job may only touch state it owns (moved in) plus
//! shared read-only context. All cross-shard effects must be returned as
//! data and applied by the caller in canonical order. The differential
//! harness in `tests/parallel_differential.rs` proves the contract holds
//! for the full protocol stack.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A batch handed to [`Pool::submit`] whose results are not collected yet.
///
/// Dropping it without [`Pending::wait`] discards the results; the jobs
/// still run to completion and the pool stays usable.
#[derive(Debug)]
#[must_use = "the batch's results are only returned by `wait`"]
pub struct Pending<R> {
    slots: Vec<Option<R>>,
    /// `None` when the jobs already ran inline (a one-thread pool).
    results: Option<Receiver<(usize, R)>>,
}

impl<R> Pending<R> {
    /// Block until every job of the batch has returned, and return the
    /// results in job-submission order.
    pub fn wait(mut self) -> Vec<R> {
        if let Some(results) = self.results.take() {
            // Every job holds a sender until it returns (or is dropped
            // unrun), so the iteration ends when the batch is done.
            for (index, result) in results {
                self.slots[index] = Some(result);
            }
        }
        let n = self.slots.len();
        let missing = self.slots.iter().filter(|slot| slot.is_none()).count();
        assert!(
            missing == 0,
            "{missing} of {n} pool jobs never returned (a worker died mid-job)"
        );
        self.slots.into_iter().flatten().collect()
    }
}

/// A fixed-size pool of persistent worker threads.
///
/// `Pool::new(1)` spawns no threads at all: `scatter` then runs jobs inline,
/// which is both the fallback for single-core hosts and the reference
/// execution the differential tests compare against.
#[derive(Debug)]
pub struct Pool {
    threads: usize,
    tx: Option<Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Create a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        if threads == 1 {
            return Pool {
                threads,
                tx: None,
                workers: Vec::new(),
            };
        }
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        #[expect(
            clippy::disallowed_methods,
            reason = "the pool's persistent workers: every fan-out goes through this pool, and \
                      tests/parallel_differential.rs proves results are thread-count invariant"
        )]
        let workers = (0..threads)
            .map(|_| {
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || loop {
                    // Dequeueing is serialized by the mutex; execution is
                    // not — the guard is dropped before the job runs.
                    let job = {
                        let guard = match rx.lock() {
                            Ok(guard) => guard,
                            Err(poisoned) => poisoned.into_inner(),
                        };
                        guard.recv()
                    };
                    match job {
                        Ok(job) => job(),
                        Err(_) => break,
                    }
                })
            })
            .collect();
        Pool {
            threads,
            tx: Some(tx),
            workers,
        }
    }

    /// The worker count this pool was built with (minimum 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Hand every job to the workers and return without waiting for them.
    ///
    /// Workers pick jobs up in submission order but may finish in any
    /// order; [`Pending::wait`] re-sequences the results by index, so the
    /// output is identical to running the jobs serially — provided each
    /// job is a pure function of what it captured. A one-thread pool runs
    /// the jobs inline, in index order, before this returns.
    pub fn submit<R: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> R + Send + 'static>>,
    ) -> Pending<R> {
        let Some(tx) = &self.tx else {
            return Pending {
                slots: jobs.into_iter().map(|job| Some(job())).collect(),
                results: None,
            };
        };
        let n = jobs.len();
        let (result_tx, results) = channel::<(usize, R)>();
        for (index, job) in jobs.into_iter().enumerate() {
            let result_tx = result_tx.clone();
            let wrapped: Job = Box::new(move || {
                // A send error means the batch was dropped unwaited; the
                // result is discarded with it.
                let _ = result_tx.send((index, job()));
            });
            if tx.send(wrapped).is_err() {
                break;
            }
        }
        Pending {
            slots: (0..n).map(|_| None).collect(),
            results: Some(results),
        }
    }

    /// Run every job and return the results in job-submission order:
    /// [`Pool::submit`] followed at once by [`Pending::wait`].
    pub fn scatter<R: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> R + Send + 'static>>,
    ) -> Vec<R> {
        self.submit(jobs).wait()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Closing the channel makes every idle worker's recv() fail, which
        // is the shutdown signal.
        self.tx = None;
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Run `f(0..n)` across at most `max_threads` scoped threads and return the
/// results in index order. This is the fan-out primitive for independent
/// *runs* (parameter sweeps, multi-seed averages); the round engine inside
/// one run uses [`Pool::submit`] and [`Pool::scatter`] instead.
pub fn run_indexed<T, F>(n: usize, max_threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = max_threads.max(1).min(n.max(1));
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = Mutex::new(0usize);
    #[expect(
        clippy::disallowed_methods,
        reason = "the pool's scoped fan-out of independent runs: each run is single-threaded, and \
                  results come back in index order whatever the thread count"
    )]
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = {
                    let mut guard = match next.lock() {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    let index = *guard;
                    if index >= n {
                        break;
                    }
                    *guard += 1;
                    index
                };
                let result = f(index);
                let mut slot = match results[index].lock() {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
                *slot = Some(result);
            });
        }
    });
    let mut out = Vec::with_capacity(n);
    for slot in results {
        let value = match slot.into_inner() {
            Ok(value) => value,
            Err(poisoned) => poisoned.into_inner(),
        };
        out.extend(value);
    }
    assert!(
        out.len() == n,
        "a scoped worker exited without storing its result ({} of {n} present)",
        out.len()
    );
    out
}

/// Merge per-shard result streams into one stream in canonical key order.
///
/// The sort is stable, so when equal keys never come from two different
/// shards (BitTorrent windows key completions by `(time, swarm)`, and each
/// swarm's completions are one shard's stream, in the swarm's own order)
/// the output is fully determined by the keys and each stream's order —
/// independent of shard count, shard assignment, and the interleaving in
/// which shards produced items.
/// That invariance is proven by the proptest in `crates/sim/tests`.
pub fn merge_canonical<K: Ord, T>(shards: Vec<Vec<(K, T)>>) -> Vec<(K, T)> {
    let mut out: Vec<(K, T)> = shards.into_iter().flatten().collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// The thread count selected by the `RVS_THREADS` environment variable
/// (the knob the CI matrix sweeps), defaulting to 1 — the serial engine —
/// when unset or unparsable. Clamped to [1, 64].
#[expect(
    clippy::disallowed_methods,
    reason = "RVS_THREADS selects the worker count only; thread-count invariance is proven by \
              tests/parallel_differential.rs, so this env read cannot change results"
)]
pub fn env_threads() -> usize {
    std::env::var("RVS_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|v| v.clamp(1, 64))
        .unwrap_or(1)
}

/// The host's available parallelism, for sizing multi-run fan-outs.
#[expect(
    clippy::disallowed_methods,
    reason = "sizes a fan-out of independent runs only; the pool's results do not depend on the \
              thread count"
)]
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed_jobs(n: usize) -> Vec<Box<dyn FnOnce() -> usize + Send + 'static>> {
        (0..n)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send + 'static>)
            .collect()
    }

    #[test]
    fn scatter_returns_results_in_job_order() {
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            let out = pool.scatter(boxed_jobs(37));
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn submit_then_wait_returns_results_in_job_order() {
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            let pending = pool.submit(boxed_jobs(37));
            assert_eq!(pending.wait(), (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn single_thread_submit_runs_the_jobs_before_it_returns() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ran = Arc::new(AtomicUsize::new(0));
        let jobs = (0..5usize)
            .map(|i| {
                let ran = Arc::clone(&ran);
                Box::new(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    i
                }) as Box<dyn FnOnce() -> usize + Send + 'static>
            })
            .collect();
        let pending = Pool::new(1).submit(jobs);
        assert_eq!(ran.load(Ordering::SeqCst), 5);
        assert_eq!(pending.wait(), vec![0, 1, 2, 3, 4]);
    }

    /// The jobs cannot finish until the caller, after `submit` returned,
    /// says so: `submit` does not wait for them.
    #[test]
    fn the_caller_works_between_submit_and_wait() {
        use std::sync::Condvar;
        use std::time::Duration;
        for threads in [2, 4, 8] {
            let pool = Pool::new(threads);
            let go = Arc::new((Mutex::new(false), Condvar::new()));
            let jobs = (0..threads * 2)
                .map(|i| {
                    let go = Arc::clone(&go);
                    Box::new(move || {
                        let (lock, cvar) = &*go;
                        let guard = lock.lock().unwrap();
                        let (guard, _) = cvar
                            .wait_timeout_while(guard, Duration::from_secs(30), |go| !*go)
                            .unwrap();
                        (*guard, i)
                    }) as Box<dyn FnOnce() -> (bool, usize) + Send + 'static>
                })
                .collect();
            let pending = pool.submit(jobs);
            let work: usize = (0..1000).sum();
            *go.0.lock().unwrap() = true;
            go.1.notify_all();
            let out = pending.wait();
            assert_eq!(work, 499_500);
            assert_eq!(
                out,
                (0..threads * 2).map(|i| (true, i)).collect::<Vec<_>>(),
                "a job finished before the caller released it at {threads} threads"
            );
        }
    }

    #[test]
    fn a_dropped_pending_does_not_wedge_the_pool() {
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            drop(pool.submit(boxed_jobs(9)));
            assert_eq!(pool.scatter(boxed_jobs(4)), vec![0, 1, 4, 9]);
            drop(pool.submit(boxed_jobs(9)));
            // `Drop for Pool` joins every worker, the unwaited jobs included.
            drop(pool);
        }
    }

    #[test]
    fn single_thread_pool_spawns_no_workers() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        assert!(pool.workers.is_empty());
        assert_eq!(pool.scatter(boxed_jobs(3)), vec![0, 1, 4]);
    }

    #[test]
    fn empty_batch_is_fine() {
        let pool = Pool::new(4);
        let out: Vec<usize> = pool.scatter(Vec::new());
        assert!(out.is_empty());
    }

    #[test]
    fn pool_survives_many_batches() {
        let pool = Pool::new(3);
        for round in 0..50 {
            let out = pool.scatter(boxed_jobs(round % 7));
            assert_eq!(out.len(), round % 7);
        }
    }

    #[test]
    fn run_indexed_orders_results() {
        // (runs, threads): more runs than threads, more threads than runs,
        // and no runs at all.
        for (n, threads) in [(25, 4), (2, 16), (0, 4)] {
            let out = run_indexed(n, threads, |i| i + 100);
            assert_eq!(out, (100..100 + n).collect::<Vec<_>>());
            assert_eq!(out, run_indexed(n, 1, |i| i + 100));
        }
    }

    #[test]
    fn merge_canonical_sorts_by_key() {
        let shards = vec![
            vec![(3u64, "c"), (5, "e")],
            vec![(1, "a"), (4, "d")],
            vec![(2, "b")],
        ];
        let merged = merge_canonical(shards);
        assert_eq!(
            merged,
            vec![(1, "a"), (2, "b"), (3, "c"), (4, "d"), (5, "e")]
        );
    }

    #[test]
    fn env_threads_is_at_least_one() {
        assert!(env_threads() >= 1);
        assert!(available_threads() >= 1);
    }
}
