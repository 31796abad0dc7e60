//! What callers rely on: bounded threads that persist, input order kept,
//! panics propagated, nested calls that do not deadlock.

use rayon::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;

fn thread_ids_of(calls: usize, items: usize) -> BTreeSet<String> {
    let seen: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
    for _ in 0..calls {
        (0..items).collect::<Vec<usize>>().into_par_iter().for_each(|_| {
            let id: ThreadId = std::thread::current().id();
            seen.lock().unwrap().insert(format!("{id:?}"));
        });
    }
    seen.into_inner().unwrap()
}

#[test]
fn threads_are_capped_at_available_parallelism_and_persist_across_calls() {
    let cap = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(rayon::current_num_threads(), cap);
    // Many calls, far more items than threads: the set of threads that
    // ever ran a part is the caller plus the pool, not one per call. A
    // recorder that keeps per-thread state relies on this.
    let ids = thread_ids_of(200, 64);
    assert!(ids.len() <= cap, "{} threads ran parts, cap {cap}", ids.len());
}

#[test]
fn collect_preserves_input_order() {
    let squares: Vec<usize> =
        (0..10_001).collect::<Vec<usize>>().into_par_iter().map(|x| x * x).collect();
    assert!(squares.iter().enumerate().all(|(i, &s)| s == i * i));

    let words = vec!["a".to_string(), "bb".into(), "ccc".into()];
    let lens: Vec<usize> = words.par_iter().map(|w| w.len()).collect();
    assert_eq!(lens, [1, 2, 3]);

    let empty: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x + 1).collect();
    assert!(empty.is_empty());
}

#[test]
fn zipped_mutable_chunks_see_every_row_once() {
    // The row-parallel matmul shape: out rows zipped with input rows.
    let (rows, n, k) = (37, 5, 3);
    let input: Vec<f64> = (0..rows * k).map(|i| i as f64).collect();
    let mut out = vec![0.0f64; rows * n];
    out.par_chunks_mut(n).zip(input.par_chunks(k)).for_each(|(out_row, in_row)| {
        for (j, o) in out_row.iter_mut().enumerate() {
            *o += in_row.iter().sum::<f64>() + j as f64;
        }
    });
    for r in 0..rows {
        let sum: f64 = input[r * k..(r + 1) * k].iter().sum();
        for j in 0..n {
            assert_eq!(out[r * n + j], sum + j as f64);
        }
    }

    let mut values = vec![1u32; 1000];
    let addends: Vec<u32> = (0..1000).collect();
    let doubled: Vec<u32> = values
        .par_iter_mut()
        .zip(addends.par_iter())
        .map(|(v, a)| {
            *v += a;
            *v * 2
        })
        .collect();
    assert!(values.iter().enumerate().all(|(i, &v)| v == 1 + i as u32));
    assert!(doubled.iter().enumerate().all(|(i, &d)| d == 2 * (1 + i as u32)));
}

#[test]
fn a_panic_in_any_part_reaches_the_caller_after_all_parts_ended() {
    let finished = AtomicUsize::new(0);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        (0..64).collect::<Vec<usize>>().into_par_iter().for_each(|i| {
            if i == 63 {
                panic!("part failed on item {i}");
            }
            finished.fetch_add(1, Ordering::SeqCst);
        });
    }));
    let payload = result.expect_err("the panic must propagate");
    let message = payload.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(message.contains("item 63"), "{message}");
    // Every other item ran: no part was abandoned.
    assert_eq!(finished.load(Ordering::SeqCst), 63);
    // The pool survives a panicking job.
    let sum: Vec<usize> = vec![1usize, 2, 3, 4].into_par_iter().map(|x| x + 1).collect();
    assert_eq!(sum, [2, 3, 4, 5]);
}

#[test]
fn nested_calls_complete() {
    // A trial running on a pool thread multiplies matrices in parallel.
    let totals: Vec<usize> = (0..8)
        .collect::<Vec<usize>>()
        .into_par_iter()
        .map(|outer| {
            let inner: Vec<usize> =
                (0..100).collect::<Vec<usize>>().into_par_iter().map(|x| x + outer).collect();
            inner.iter().sum()
        })
        .collect();
    for (outer, total) in totals.iter().enumerate() {
        assert_eq!(*total, 4950 + 100 * outer);
    }
}

#[test]
fn concurrent_callers_share_the_pool() {
    std::thread::scope(|scope| {
        for caller in 0..4usize {
            scope.spawn(move || {
                for _ in 0..50 {
                    let out: Vec<usize> = (0..32)
                        .collect::<Vec<usize>>()
                        .into_par_iter()
                        .map(|x| x * caller)
                        .collect();
                    assert!(out.iter().enumerate().all(|(i, &v)| v == i * caller));
                }
            });
        }
    });
}
