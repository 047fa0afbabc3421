//! The workspace's one parallel fan-out.
//!
//! Store chunk scans, federated shard scans, simulator sweeps, the
//! report battery and corpus generation all run on [`fold`] or [`map`].
//! Both start `threads.min(n).max(1)` scoped workers that claim the
//! indices `0..n` from one shared counter, so which worker computes an
//! index never changes what that index computes, and the results come
//! back in a fixed order: worker order for [`fold`], index order for
//! [`map`]. There is no pool: every call spawns its own workers, and
//! all of them are joined before it returns.
//!
//! A worker panic is re-raised in the caller with its original payload
//! ([`std::panic::resume_unwind`]), so a `catch_unwind` around the call
//! sees the message a serial run would have raised.
//!
//! ```
//! let squares = swim_obs::par::map(4, 5, |i| i * i);
//! assert_eq!(squares, [0, 1, 4, 9, 16]);
//!
//! let sums = swim_obs::par::fold(3, 10, || Ok::<u64, ()>(0), |sum, i| Ok(sum + i as u64));
//! assert_eq!(sums.unwrap().iter().sum::<u64>(), 45);
//! ```

use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The default worker count: the machine's available parallelism, or 1
/// when it cannot be determined.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Fold the indices `0..n` across `threads.min(n).max(1)` scoped
/// workers, each with its own state.
///
/// A worker builds its state with `init`, then claims unclaimed indices
/// one at a time and replaces its state with `step(state, i)`. The
/// workers' final states come back in worker order, for the caller to
/// reduce with its own merge. Which indices a worker visits is
/// unspecified, so that merge must not depend on it.
///
/// A worker stops at its first error, from `init` or from `step`; the
/// others run on until the indices are exhausted. The first error in
/// worker order is returned.
pub fn fold<S, E, I, F>(threads: usize, n: usize, init: I, step: F) -> Result<Vec<S>, E>
where
    S: Send,
    E: Send,
    I: Fn() -> Result<S, E> + Sync,
    F: Fn(S, usize) -> Result<S, E> + Sync,
{
    let cursor = AtomicUsize::new(0);
    let worker = || -> Result<S, E> {
        let mut state = init()?;
        loop {
            // Relaxed: the counter only hands out distinct indices; the
            // states reach the caller through the scope's join.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return Ok(state);
            }
            state = step(state, i)?;
        }
    };
    // Join every worker before looking at any result, so a panic always
    // wins over an error, whichever worker raised it.
    let joined: Vec<Result<S, E>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.min(n).max(1))
            .map(|_| s.spawn(worker))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    joined.into_iter().collect()
}

/// Compute `f(i)` for every `i` in `0..n` across
/// `threads.min(n).max(1)` scoped workers; the results come back in
/// index order, whatever the thread count.
pub fn map<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = fold(
        threads,
        n,
        || Ok::<_, Infallible>(Vec::new()),
        |mut mine, i| {
            mine.push((i, f(i)));
            Ok(mine)
        },
    );
    let mut indexed: Vec<(usize, T)> = match workers {
        Ok(workers) => workers.into_iter().flatten().collect(),
        Err(never) => match never {},
    };
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn zero_indices_run_one_worker_and_no_step() {
        let inits = AtomicUsize::new(0);
        let states = fold(
            8,
            0,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Ok::<_, ()>(0u32)
            },
            |_, i| panic!("step called for index {i}"),
        )
        .unwrap();
        assert_eq!(states, [0]);
        assert_eq!(inits.load(Ordering::Relaxed), 1);
        assert!(map(8, 0, |i| i).is_empty());
    }

    #[test]
    fn fewer_indices_than_threads_start_one_worker_per_index() {
        let states = fold(8, 3, || Ok::<_, ()>(0u32), |n, _| Ok(n + 1)).unwrap();
        assert_eq!(states.len(), 3);
        assert_eq!(states.iter().sum::<u32>(), 3);
        assert_eq!(
            fold(0, 5, || Ok::<_, ()>(()), |s, _| Ok(s)).unwrap().len(),
            1
        );
    }

    #[test]
    fn every_index_is_visited_exactly_once() {
        for threads in [1, 8] {
            let n = 1_000;
            let visits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            let states = fold(
                threads,
                n,
                || Ok::<_, ()>(Vec::new()),
                |mut mine, i| {
                    visits[i].fetch_add(1, Ordering::Relaxed);
                    mine.push(i);
                    Ok(mine)
                },
            )
            .unwrap();
            assert_eq!(states.len(), threads);
            assert!(visits.iter().all(|v| v.load(Ordering::Relaxed) == 1));
            let mut seen: Vec<usize> = states.into_iter().flatten().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "threads = {threads}");
        }
    }

    #[test]
    fn map_returns_index_order() {
        for threads in [1, 3, 8] {
            // Uneven work so workers finish out of index order.
            let out = map(threads, 64, |i| {
                std::thread::sleep(std::time::Duration::from_micros(
                    ((i * 37) % 11) as u64 * 50,
                ));
                i * 10
            });
            assert_eq!(out, (0..64).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[derive(Debug, PartialEq)]
    enum Fail {
        Init,
        Step(usize),
    }

    #[test]
    fn init_and_step_errors_come_back_typed() {
        let err = fold(4, 10, || Err::<u32, _>(Fail::Init), |s, _| Ok(s)).unwrap_err();
        assert_eq!(err, Fail::Init);

        let err = fold(
            4,
            10,
            || Ok(0u32),
            |s, i| {
                if i == 7 {
                    Err(Fail::Step(i))
                } else {
                    Ok(s + 1)
                }
            },
        )
        .unwrap_err();
        assert_eq!(err, Fail::Step(7));
    }

    #[test]
    fn worker_panic_reaches_the_caller_with_its_payload() {
        let caught = std::panic::catch_unwind(|| {
            map(4, 16, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        })
        .unwrap_err();
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"boom"));
    }
}
