//! Independent jobs spread over scoped threads, results in job order.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The host's core count as `available_parallelism` reads it, 1 when it
/// cannot tell.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `job(&mut state, i)` for every `i` in `0..n`, returned in index order.
/// The jobs run on `threads` scoped threads, this one among them (so at
/// most one starts none), that take blocks of `block` indices from a
/// shared counter; each thread makes its own state with `init`. A job's
/// panic resumes here once every thread has ended.
pub fn map_blocks<S, T: Send>(
    n: usize,
    threads: usize,
    block: usize,
    init: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    assert!(block > 0, "a block holds at least one job");
    // The counter only hands out blocks; each result comes back by join.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut state = init();
        let mut done = Vec::new();
        loop {
            let start = next.fetch_add(1, Ordering::Relaxed).saturating_mul(block);
            if start >= n {
                return done;
            }
            for i in start..n.min(start + block) {
                done.push((i, job(&mut state, i)));
            }
        }
    };
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mine = work();
        let theirs =
            helpers.into_iter().flat_map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)));
        for (i, result) in mine.into_iter().chain(theirs) {
            out[i] = Some(result);
        }
    });
    out.into_iter().map(|result| result.expect("every job reports")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_from_every_thread() {
        for (n, threads, block) in [(0, 1, 1), (1, 1, 4), (37, 1, 5), (37, 2, 1), (100, 3, 7)] {
            let inits = AtomicUsize::new(0);
            let init = || inits.fetch_add(1, Ordering::Relaxed);
            let out = map_blocks(n, threads, block, init, |_, i| (i, std::thread::current().id()));
            assert_eq!(out.iter().map(|r| r.0).collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
            assert_eq!(inits.into_inner(), threads, "one state per thread");
            if threads == 1 {
                let me = std::thread::current().id();
                assert!(out.iter().all(|r| r.1 == me), "one thread starts none");
            }
        }
    }
}
