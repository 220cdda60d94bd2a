//! Parallel parameter-sweep runner.
//!
//! Evaluation figures sweep a grid of independent simulation points (card ×
//! load × discipline × …). Each point is a self-contained, seeded simulation,
//! so the sweep is embarrassingly parallel — but the *results* must stay
//! deterministic: the output order is the input order, whatever the worker
//! count or OS scheduling happens to be. Workers claim indices from a shared
//! atomic counter and tag every result with its input index; the runner
//! sorts by index before returning, so `workers = 1` and `workers = N`
//! produce identical vectors (each point still runs its own [`crate::DetRng`]
//! stream, untouched by the other points).
//!
//! ```
//! use ipipe_sim::sweep::parallel_sweep;
//!
//! let loads = [0.1, 0.5, 0.9];
//! let results = parallel_sweep(&loads, 2, |i, &load| (i, (load * 10.0) as u32));
//! assert_eq!(results, vec![(0, 1), (1, 5), (2, 9)]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of workers matching the machine's available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f(index, &input)` over every input on `workers` OS threads, the
/// calling thread included, and return the results **in input order**.
///
/// `f` runs at most once per input. A sweep of independent simulations
/// should derive each point's seed from its index (or its parameters), never
/// from shared mutable state — that keeps every point's result identical to
/// a serial run.
///
/// # Panics
/// Panics if `workers == 0`, or if `f` panics for any input on any thread,
/// the caller's included (the panic is propagated after the remaining
/// workers finish).
pub fn parallel_sweep<I, T, F>(inputs: &[I], workers: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    assert!(workers >= 1, "parallel_sweep needs at least one worker");
    if workers == 1 || inputs.len() <= 1 {
        return inputs.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(input) = inputs.get(i) else { break };
            local.push((i, f(i, input)));
        }
        local
    };
    // The caller is one of the workers: it runs the same claim loop as the
    // `workers - 1` threads it spawns instead of idling in `join`.
    let mut tagged = std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers.min(inputs.len()))
            .map(|_| s.spawn(claim))
            .collect();
        let mut tagged = claim();
        for h in handles {
            tagged.extend(h.join().expect("sweep worker panicked"));
        }
        tagged
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_input_order_for_any_worker_count() {
        let inputs: Vec<u64> = (0..40).collect();
        let serial = parallel_sweep(&inputs, 1, |i, &x| (i as u64) * 1000 + x);
        for workers in [2, 4, 8] {
            // Skew per-item runtime so late inputs finish first and a buggy
            // completion-order collection would show.
            let parallel = parallel_sweep(&inputs, workers, |i, &x| {
                if i % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                (i as u64) * 1000 + x
            });
            assert_eq!(parallel, serial, "workers={workers}");
        }
    }

    #[test]
    fn every_input_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let inputs: Vec<usize> = (0..100).collect();
        let out = parallel_sweep(&inputs, 5, |_, &i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
            i * 2
        });
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "input {i}");
        }
    }

    #[test]
    fn empty_and_singleton_sweeps_work() {
        let none: Vec<u32> = Vec::new();
        assert_eq!(parallel_sweep(&none, 4, |_, &x| x), Vec::<u32>::new());
        assert_eq!(parallel_sweep(&[7u32], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn seeded_rng_points_match_serial_run() {
        // The realistic shape: each point runs an independent seeded stream.
        let seeds: Vec<u64> = (0..16).collect();
        let point = |_: usize, &seed: &u64| {
            let mut rng = crate::DetRng::new(seed);
            (0..1000).map(|_| rng.below(100)).sum::<u64>()
        };
        let serial = parallel_sweep(&seeds, 1, point);
        let parallel = parallel_sweep(&seeds, default_workers().max(2), point);
        assert_eq!(parallel, serial);
    }

    /// Each input sleeps, so every spawned thread has time to claim one:
    /// a sweep whose caller only waits in `join` shows up as three threads.
    #[test]
    fn the_caller_is_one_of_the_workers() {
        let ran = std::sync::Mutex::new(std::collections::HashSet::new());
        let inputs: Vec<u32> = (0..20).collect();
        parallel_sweep(&inputs, 2, |_, _| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            ran.lock().unwrap().insert(std::thread::current().id());
        });
        let mut threads = ran.into_inner().unwrap();
        threads.insert(std::thread::current().id());
        assert!(
            threads.len() <= 2,
            "{} threads for 2 workers",
            threads.len()
        );
    }

    #[test]
    #[should_panic]
    fn a_panic_on_every_thread_still_propagates() {
        let inputs: Vec<u32> = (0..8).collect();
        parallel_sweep(&inputs, 2, |i, _| -> u32 { panic!("input {i}") });
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        parallel_sweep(&[1u32], 0, |_, &x| x);
    }
}
