//! Where the parts of a parallel call run.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

type Job = Box<dyn FnOnce() + Send + 'static>;
type Panic = Box<dyn Any + Send + 'static>;

/// The queue the process-wide workers serve.
struct Pool {
    jobs: Mutex<VecDeque<Job>>,
    posted: Condvar,
}

thread_local! {
    /// Set while this thread runs a part of a parallel call: on a pool
    /// worker always, on a caller for as long as it runs its own part.
    static IN_PARALLEL_PART: Cell<bool> = const { Cell::new(false) };
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let pool: &'static Pool =
            Box::leak(Box::new(Pool { jobs: Mutex::new(VecDeque::new()), posted: Condvar::new() }));
        for index in 1..crate::current_num_threads() {
            std::thread::Builder::new()
                .name(format!("rayon-shim-{index}"))
                .spawn(move || serve(pool))
                .expect("the parallel pool's threads start");
        }
        pool
    })
}

fn serve(pool: &'static Pool) {
    IN_PARALLEL_PART.with(|flag| flag.set(true));
    loop {
        let job = {
            let mut jobs = pool.jobs.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                match jobs.pop_front() {
                    Some(job) => break job,
                    None => jobs = pool.posted.wait(jobs).unwrap_or_else(PoisonError::into_inner),
                }
            }
        };
        // A job catches its own panic; nothing unwinds into this loop.
        job();
    }
}

/// What one call shares with its jobs. It is reference-counted, not
/// borrowed, so that a job signalling completion never touches memory of
/// a caller that has already returned.
struct Call<R> {
    results: Mutex<Vec<Option<Result<R, Panic>>>>,
    outstanding: Mutex<usize>,
    done: Condvar,
}

/// Run `work` over every piece — the first on this thread, the rest in
/// parallel — and return the results in piece order. A panic in any piece
/// resumes here after every piece has ended.
pub(crate) fn run<P, R, W>(pieces: Vec<P>, work: W) -> Vec<R>
where
    P: Send,
    R: Send,
    W: Fn(P) -> R + Sync,
{
    if IN_PARALLEL_PART.with(Cell::get) {
        return run_scoped(pieces, &work);
    }
    let count = pieces.len();
    let call: Arc<Call<R>> = Arc::new(Call {
        results: Mutex::new((0..count).map(|_| None).collect()),
        outstanding: Mutex::new(count - 1),
        done: Condvar::new(),
    });
    let mut pieces = pieces.into_iter();
    let first = pieces.next().expect("a parallel call has at least one piece");
    let work = &work;
    let pool = pool();
    for (offset, piece) in pieces.enumerate() {
        let call = call.clone();
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(|| work(piece)));
            call.results.lock().unwrap_or_else(PoisonError::into_inner)[offset + 1] = Some(result);
            let mut outstanding = call.outstanding.lock().unwrap_or_else(PoisonError::into_inner);
            *outstanding -= 1;
            call.done.notify_all();
        });
        // SAFETY: the job borrows `work` and owns `piece` and, until it
        // stores it, the result, all of which may borrow from the caller's
        // frame. Extending the box's lifetime to `'static` is sound
        // because this function does not return or unwind before every
        // job has run to its last borrowed use: the caller's own piece runs
        // under `catch_unwind`, the wait below is unconditional, and a job
        // counts itself out only after it has consumed `piece` and moved
        // the result into `call`, whose values the caller takes before it
        // returns. What a job touches afterwards is owned by the `Arc`.
        let job: Job = unsafe { std::mem::transmute(job) };
        pool.jobs.lock().unwrap_or_else(PoisonError::into_inner).push_back(job);
        pool.posted.notify_one();
    }

    IN_PARALLEL_PART.with(|flag| flag.set(true));
    let own = catch_unwind(AssertUnwindSafe(|| work(first)));
    IN_PARALLEL_PART.with(|flag| flag.set(false));

    let mut outstanding = call.outstanding.lock().unwrap_or_else(PoisonError::into_inner);
    while *outstanding > 0 {
        outstanding = call.done.wait(outstanding).unwrap_or_else(PoisonError::into_inner);
    }
    drop(outstanding);

    let mut results =
        std::mem::take(&mut *call.results.lock().unwrap_or_else(PoisonError::into_inner));
    results[0] = Some(own);
    let mut out = Vec::with_capacity(count);
    let mut panic = None;
    for result in results {
        match result.expect("every piece reported before the call was counted done") {
            Ok(value) => out.push(value),
            Err(payload) => panic = panic.or(Some(payload)),
        }
    }
    match panic {
        Some(payload) => resume_unwind(payload),
        None => out,
    }
}

/// A call from inside a parallel part: scoped threads of its own.
fn run_scoped<P, R, W>(pieces: Vec<P>, work: &W) -> Vec<R>
where
    P: Send,
    R: Send,
    W: Fn(P) -> R + Sync,
{
    std::thread::scope(|scope| {
        let mut pieces = pieces.into_iter();
        let first = pieces.next().expect("a parallel call has at least one piece");
        let handles: Vec<_> = pieces
            .map(|piece| {
                scope.spawn(move || {
                    IN_PARALLEL_PART.with(|flag| flag.set(true));
                    work(piece)
                })
            })
            .collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(work(first));
        for handle in handles {
            match handle.join() {
                Ok(value) => out.push(value),
                Err(payload) => resume_unwind(payload),
            }
        }
        out
    })
}
