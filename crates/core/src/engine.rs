//! Deterministic parallel experiment executor.
//!
//! Sweep-shaped workloads — grids of independent [`Experiment::run`]
//! calls over `t`, `r`, seeds, and adversary strategies — are
//! embarrassingly parallel, but naive parallelism would threaten the
//! property the whole test/audit stack is built on: *same inputs, same
//! bytes out*. This module provides the one sanctioned way to spend
//! multiple cores on such workloads while keeping output byte-identical
//! for every thread count (including 1):
//!
//! * each task is fixed at construction time (its seed, placement, and
//!   channel are part of the task value — workers share no mutable
//!   state);
//! * workers pull chunks off a shared [`AtomicUsize`] cursor, so
//!   scheduling is dynamic, but every result is stored **by input
//!   index**;
//! * the caller receives `Vec<R>` in input order, so downstream
//!   printing/aggregation cannot observe scheduling.
//!
//! Two entry points share the machinery and differ only in failure
//! behaviour:
//!
//! * `run_indexed` — the infallible path: a worker panic is
//!   re-raised on the calling thread;
//! * `run_indexed_partial` — graceful degradation: every slot a live
//!   worker filled is returned, missing slots are `None`. This is the
//!   substrate the [`crate::supervisor`] builds on.
//!
//! The executor is std-only (`std::thread::scope`); the
//! `raw-thread-spawn` audit rule confines `std::thread` spawning to this
//! module so all parallelism in the workspace flows through it.
//!
//! Thread count resolution: an explicit request wins, then the
//! `RBCAST_THREADS` environment variable, then
//! [`std::thread::available_parallelism`].

use crate::{Experiment, Outcome};
use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

/// Environment variable overriding the default worker-thread count.
const THREADS_ENV: &str = "RBCAST_THREADS";

/// Tasks are claimed in chunks of this size to bound cursor contention;
/// chunking only affects which worker computes a task, never where its
/// result lands.
const CHUNK: usize = 4;

/// Best-effort stringification of a panic payload (the two shapes
/// `panic!` actually produces, then a generic fallback).
pub(crate) fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Resolves the worker-thread count: `requested` if given (clamped to at
/// least 1), else the `RBCAST_THREADS` environment variable, else
/// [`std::thread::available_parallelism`] (1 when unknown).
///
/// An `RBCAST_THREADS` value that is unparseable or zero is clamped to 1
/// — loudly: a one-time stderr warning names the rejected value, so a
/// typo in the environment can no longer silently serialize a sweep.
#[must_use]
pub fn thread_count(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        return n.max(1);
    }
    if let Some(raw) = crate::config::env_var(THREADS_ENV) {
        match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => {
                static WARNED: Once = Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: {THREADS_ENV}={raw:?} is not a positive \
                         integer; running with 1 worker thread"
                    );
                });
                return 1;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f` over every task on `threads` worker threads and returns the
/// results **in input order** — output is byte-identical for any thread
/// count because collection is by index and tasks share no mutable
/// state. `f` receives the task's index alongside the task.
///
/// With `threads <= 1` (or one task) no threads are spawned and the
/// tasks run inline, making the serial path the literal baseline the
/// parallel path is tested against.
///
/// # Panics
///
/// Panics propagate from worker threads: if any task panics, the first
/// worker panic observed is re-raised on the calling thread. Callers
/// that need isolation instead of propagation use
/// [`run_indexed_partial`].
pub(crate) fn run_indexed<T, R, F>(tasks: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(tasks.len().max(1));
    if threads == 1 {
        return tasks.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let (slots, first_panic) = run_chunked(tasks, threads, &f);
    if let Some(payload) = first_panic {
        // Re-raise the worker panic verbatim.
        std::panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("the chunked queue covers every index exactly once"))
        .collect()
}

/// Graceful-degradation variant: every slot some live worker filled is
/// returned in input order; slots lost to a dead worker (a panicking
/// task takes down its worker thread, losing that worker's uncollected
/// chunk results) or to a queue invariant violation are `None` instead
/// of poisoning the whole run.
///
/// This is deliberately coarse — per-*task* isolation (one `None` per
/// failing task, with a reason) is the [`crate::supervisor`]'s job; this
/// layer only guarantees the caller gets everything that survived.
/// Unlike [`run_indexed`], the single-thread path also runs on a worker
/// thread, so a panic is contained at every thread count.
pub(crate) fn run_indexed_partial<T, R, F>(tasks: &[T], threads: usize, f: F) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(tasks.len().max(1));
    run_chunked(tasks, threads, &f).0
}

/// The shared chunked work-queue machinery: runs every task on `threads`
/// scoped workers (at least one — the caller normalizes), collects
/// results by input index, and returns the slot vector together with the
/// first worker panic payload observed (slots computed by a panicked
/// worker since its last hand-off are lost, i.e. `None`).
fn run_chunked<T, R, F>(
    tasks: &[T],
    threads: usize,
    f: &F,
) -> (Vec<Option<R>>, Option<Box<dyn Any + Send>>)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let cursor = AtomicUsize::new(0);
    let worker = |_w: usize| {
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let start = cursor.fetch_add(CHUNK, Ordering::Relaxed);
            if start >= tasks.len() {
                break;
            }
            let end = (start + CHUNK).min(tasks.len());
            for (i, t) in tasks.iter().enumerate().take(end).skip(start) {
                local.push((i, f(i, t)));
            }
        }
        local
    };

    let mut slots: Vec<Option<R>> = Vec::with_capacity(tasks.len());
    slots.resize_with(tasks.len(), || None);
    let mut first_panic: Option<Box<dyn Any + Send>> = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|w| s.spawn(move || worker(w))).collect();
        for h in handles {
            match h.join() {
                Ok(local) => {
                    for (i, r) in local {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
    });
    (slots, first_panic)
}

/// `run_indexed` over a slice of experiments: the deterministic
/// parallel sweep primitive used by the bench binaries and the `rbcast
/// sweep` CLI. Results are outcomes in experiment order.
#[must_use]
pub fn run_experiments(experiments: &[Experiment], threads: usize) -> Vec<Outcome> {
    let _arenas = prewarm_arenas(experiments);
    run_indexed(experiments, threads, |_, e| e.run())
}

/// [`run_experiments`] keeping each run's delivery-trace hash — the
/// cross-thread-count determinism witness (two sweeps agree on these iff
/// they agree on every delivery of every run).
#[must_use]
pub fn run_experiments_traced(experiments: &[Experiment], threads: usize) -> Vec<(Outcome, u64)> {
    let _arenas = prewarm_arenas(experiments);
    run_indexed(experiments, threads, |_, e| e.run_traced())
}

/// Builds each distinct shared arena exactly once, serially, before the
/// sweep fans out, and returns the strong guards that keep them alive
/// for its duration. Without the prewarm, workers racing on a cold cache
/// could each build the same table (correct but wasted work), and
/// back-to-back runs of one experiment would rebuild a table whose last
/// `Arc` died between them. The sweeps here hold the `Result` as it is:
/// an arena that cannot be built fails each run that needs it.
///
/// # Errors
///
/// The first arena that cannot be built ([`Experiment::arena_guard`]).
pub(crate) fn prewarm_arenas(
    experiments: &[Experiment],
) -> Result<Vec<std::sync::Arc<rbcast_grid::NeighborTable>>, rbcast_grid::ArenaError> {
    experiments
        .iter()
        .filter_map(|e| e.arena_guard().transpose())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtocolKind;
    use rbcast_adversary::Placement;

    #[test]
    fn empty_task_list_is_fine() {
        let out: Vec<u32> = run_indexed(&[] as &[u32], 8, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn results_arrive_in_input_order() {
        let tasks: Vec<usize> = (0..103).collect();
        for threads in [1, 2, 3, 8] {
            let out = run_indexed(&tasks, threads, |i, &t| {
                assert_eq!(i, t);
                t * 7
            });
            assert_eq!(out, tasks.iter().map(|t| t * 7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn more_threads_than_tasks() {
        let out = run_indexed(&[10usize, 20], 16, |_, &t| t + 1);
        assert_eq!(out, vec![11, 21]);
    }

    #[test]
    fn thread_count_clamps_to_one() {
        assert_eq!(thread_count(Some(0)), 1);
        assert_eq!(thread_count(Some(5)), 5);
        assert!(thread_count(None) >= 1);
    }

    #[test]
    #[should_panic(expected = "task 3 exploded")]
    fn worker_panics_propagate() {
        let tasks: Vec<usize> = (0..8).collect();
        let _ = run_indexed(&tasks, 4, |i, _| {
            assert!(i != 3, "task {i} exploded");
            i
        });
    }

    #[test]
    fn partial_returns_everything_that_survived() {
        let tasks: Vec<usize> = (0..32).collect();
        for threads in [1, 2, 4] {
            let out = run_indexed_partial(&tasks, threads, |i, &t| {
                assert!(i != 9, "boom");
                t * 2
            });
            assert_eq!(out.len(), tasks.len());
            assert!(out[9].is_none());
            // Whatever made it back is correct and correctly placed.
            for (i, slot) in out.iter().enumerate() {
                if let Some(v) = slot {
                    assert_eq!(*v, i * 2);
                }
            }
        }
    }

    #[test]
    fn partial_is_complete_when_nothing_fails() {
        let tasks: Vec<usize> = (0..11).collect();
        let out = run_indexed_partial(&tasks, 3, |_, &t| t + 100);
        let full: Vec<usize> = out.into_iter().map(Option::unwrap).collect();
        assert_eq!(full, tasks.iter().map(|t| t + 100).collect::<Vec<_>>());
    }

    #[test]
    fn invalid_threads_env_clamps_to_one_with_warning() {
        // Runs in-process: the Once means only the first offender warns,
        // but the clamp itself must hold for every bad shape.
        for bad in ["zero", "0", "-3", "1.5", ""] {
            std::env::set_var(THREADS_ENV, bad);
            assert_eq!(thread_count(None), 1, "RBCAST_THREADS={bad:?}");
        }
        std::env::remove_var(THREADS_ENV);
    }

    #[test]
    fn experiment_sweep_matches_serial() {
        let experiments: Vec<Experiment> = (0..6u64)
            .map(|seed| {
                Experiment::new(1, ProtocolKind::Flood)
                    .with_t(2)
                    .with_placement(Placement::RandomLocal {
                        t: 2,
                        seed,
                        attempts: 40,
                    })
            })
            .collect();
        let serial = run_experiments(&experiments, 1);
        let parallel = run_experiments(&experiments, 4);
        assert_eq!(serial, parallel);
    }
}
