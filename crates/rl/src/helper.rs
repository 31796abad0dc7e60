//! The process's one helper thread, for work that must not wait on a
//! thread spawn.
//!
//! SAC's twin critics are independent computations, but each phase of a
//! batch-64 update lasts 30–100 µs: a scoped spawn plus join (35–73 µs on
//! a 2-vCPU guest) or a channel round trip (18–27 µs) costs as much as it
//! saves. A handoff through one atomic that both sides spin on costs
//! ≈ 0.2 µs. So one thread, started at the first [`Lane::claim`], spins
//! on its slot for [`SPIN`] after each job and then parks; a posted job
//! unparks it.
//!
//! * **One per process.** A helper per learner raised `table1`'s peak RSS
//!   from 14 to 44–51 MiB through glibc's per-thread arenas.
//! * **None on one core.** When `available_parallelism()` is below two the
//!   helper never starts: a spinning helper sharing the caller's core
//!   made a SAC update 2.9× slower.
//! * **One lane at a time.** A [`Lane`] holds the helper for a run of
//!   jobs; a caller that finds it held gets an inline lane, which runs
//!   each job where and when it is started. A job touches only what it
//!   owns, so the two lanes compute the same bits.
//! * **A late helper costs no wait.** A caller that joins a job the
//!   helper has not started yet (it is parked, or its core is taken)
//!   takes the job back and runs it itself.
//! * **Panics cross back.** A job's panic is caught on the helper and
//!   re-raised by [`Lane::join`]; the helper serves the next job.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// How long the helper spins for its next job before it parks, and how
/// long a caller spins for a job's end before it yields between checks.
/// It covers the short gaps between the jobs of one SAC update and the
/// environment step between two; across longer gaps the helper parks,
/// and a job it is late to start runs on the caller instead. Spinning
/// through every gap of an update was ≈ 5 % faster on a quiet 2-vCPU
/// guest, but with a quarter of its CPU time stolen by the host it made
/// `table1` slower than no helper at all.
const SPIN: Duration = Duration::from_micros(20);

/// How long every claim stays inline after one found the helper held.
/// Two learners updating at once keep both cores busy without it; the
/// helper would be a third thread on them.
const BACKOFF: Duration = Duration::from_millis(100);

type Job = Box<dyn FnOnce() + Send>;

/// The slot's states: `IDLE` → `POSTED` (a caller put a job in `job`) →
/// `RUNNING` (the helper took it) → `DONE` (and ran it) → `IDLE` (the
/// caller took its outcome); or `POSTED` → `IDLE` when the caller takes
/// the job back first. The two takes are compare-exchanges, so exactly
/// one side gets a posted job. Each store is `Release` and each load or
/// exchange that acts on it `Acquire`, so the side that sees a state also
/// sees the job, or the job's writes and its panic, stored before it.
const IDLE: u8 = 0;
const POSTED: u8 = 1;
const RUNNING: u8 = 2;
const DONE: u8 = 3;

struct Helper {
    state: AtomicU8,
    job: Mutex<Option<Job>>,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Set while a [`Lane`] holds the helper: claimed with `Acquire`,
    /// released with `Release`, so a new holder sees the slot `IDLE`.
    held: AtomicBool,
    /// Claims are inline until this many µs after `epoch`. A hint that
    /// publishes nothing, hence `Relaxed`.
    backoff_until: AtomicU64,
    epoch: Instant,
    thread: OnceLock<Thread>,
}

/// Lock a slot of the helper's. No code that can panic runs while one
/// is held, and each update is one assignment, so poison never leaves
/// it half-written.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spin until `done()` holds; after [`SPIN`], call `idle()` between checks.
fn wait(done: impl Fn() -> bool, idle: impl Fn()) {
    let start = Instant::now();
    let mut spins = 0u32;
    while !done() {
        spins = spins.wrapping_add(1);
        if !spins.is_multiple_of(64) || start.elapsed() < SPIN {
            std::hint::spin_loop();
        } else {
            idle();
        }
    }
}

impl Helper {
    /// The helper, started on first use; `None` on one core, or when the
    /// thread cannot be spawned.
    fn get() -> Option<&'static Helper> {
        static HELPER: OnceLock<Option<&'static Helper>> = OnceLock::new();
        *HELPER.get_or_init(|| {
            if thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
                return None;
            }
            let helper: &'static Helper = Box::leak(Box::new(Helper {
                state: AtomicU8::new(IDLE),
                job: Mutex::new(None),
                panic: Mutex::new(None),
                held: AtomicBool::new(false),
                backoff_until: AtomicU64::new(0),
                epoch: Instant::now(),
                thread: OnceLock::new(),
            }));
            // Never joined: it serves until the process exits, and it
            // cannot panic, since `serve` catches every job's panic.
            let handle =
                thread::Builder::new().name("rl-helper".into()).spawn(|| helper.serve()).ok()?;
            helper.thread.get_or_init(|| handle.thread().clone());
            Some(helper)
        })
    }

    fn serve(&self) {
        loop {
            wait(|| self.state.load(Ordering::Acquire) == POSTED, thread::park);
            if self.take(RUNNING).is_err() {
                continue; // the caller took it back
            }
            let job = lock(&self.job).take();
            if let Some(Err(payload)) = job.map(|job| panic::catch_unwind(AssertUnwindSafe(job))) {
                *lock(&self.panic) = Some(payload);
            }
            self.state.store(DONE, Ordering::Release);
        }
    }

    fn post(&self, job: Job) {
        *lock(&self.job) = Some(job);
        self.state.store(POSTED, Ordering::Release);
        // Cheap unless the helper is parked: one atomic swap.
        if let Some(t) = self.thread.get() {
            t.unpark();
        }
    }

    /// Move a posted job's slot to `to`, if it is still posted.
    fn take(&self, to: u8) -> Result<u8, u8> {
        self.state.compare_exchange(POSTED, to, Ordering::Acquire, Ordering::Relaxed)
    }

    /// The posted job, if the helper has not started it.
    fn take_back(&self) -> Option<Job> {
        self.take(IDLE).ok()?;
        lock(&self.job).take()
    }

    /// Wait for the job the helper took and take its panic, if it raised
    /// one.
    fn finish(&self) -> Option<Box<dyn Any + Send>> {
        wait(|| self.state.load(Ordering::Acquire) == DONE, thread::yield_now);
        let payload = lock(&self.panic).take();
        self.state.store(IDLE, Ordering::Release);
        payload
    }
}

/// Where a run of jobs executes: on the helper, held until the lane
/// drops, or inline on the caller. At most one job is in flight.
pub(crate) struct Lane {
    helper: Option<&'static Helper>,
    in_flight: bool,
}

impl Lane {
    /// Hold the helper if there is one and no other lane holds it;
    /// otherwise an inline lane. A claim that finds the helper held makes
    /// every claim inline for [`BACKOFF`].
    pub(crate) fn claim() -> Lane {
        let helper = Helper::get().filter(|h| {
            let now = h.epoch.elapsed().as_micros() as u64;
            if now < h.backoff_until.load(Ordering::Relaxed) {
                return false;
            }
            let held = h.held.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed);
            if held.is_err() {
                h.backoff_until.store(now + BACKOFF.as_micros() as u64, Ordering::Relaxed);
            }
            held.is_ok()
        });
        Lane { helper, in_flight: false }
    }

    /// Whether this lane's jobs run on the helper.
    #[cfg(test)]
    pub(crate) fn on_helper(&self) -> bool {
        self.helper.is_some()
    }

    /// Start `job`, after joining the one in flight: on the helper, or
    /// here and now on an inline lane.
    pub(crate) fn start(&mut self, job: impl FnOnce() + Send + 'static) {
        self.join();
        match self.helper {
            Some(h) => {
                h.post(Box::new(job));
                self.in_flight = true;
            }
            None => job(),
        }
    }

    /// Wait for the job in flight, or run it here if the helper has not
    /// started it; either way its panic is raised here.
    pub(crate) fn join(&mut self) {
        let Some(h) = self.take_in_flight() else { return };
        match h.take_back() {
            Some(job) => job(),
            None => {
                if let Some(payload) = h.finish() {
                    panic::resume_unwind(payload);
                }
            }
        }
    }

    fn take_in_flight(&mut self) -> Option<&'static Helper> {
        self.helper.filter(|_| std::mem::take(&mut self.in_flight))
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        // A job left in flight by an unwinding caller is dropped if the
        // helper has not started it, and otherwise ends before the helper
        // is released; its own panic, if any, is dropped.
        if let Some(h) = self.take_in_flight() {
            if h.take_back().is_none() {
                drop(h.finish());
            }
        }
        if let Some(h) = self.helper {
            h.held.store(false, Ordering::Release);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;

    /// A lane on the helper, waiting while another test holds it; `None`
    /// on one core.
    pub(crate) fn helper_lane() -> Option<Lane> {
        Helper::get()?;
        loop {
            let lane = Lane::claim();
            if lane.on_helper() {
                return Some(lane);
            }
            thread::yield_now();
        }
    }

    #[test]
    fn the_helper_starts_only_with_a_second_core() {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        drop(Lane::claim());
        assert_eq!(Helper::get().is_some(), cores >= 2, "{cores} cores");
    }

    #[test]
    fn a_job_runs_on_the_helper_thread_and_its_panic_reraises_on_the_caller() {
        let Some(mut lane) = helper_lane() else { return };
        let caller = thread::current().id();
        // Start `job` and join it once it has begun, so that the helper
        // runs it rather than the caller taking it back.
        let run = |lane: &mut Lane, job: fn()| {
            let begun = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&begun);
            lane.start(move || {
                flag.store(true, Ordering::Release);
                job();
            });
            let deadline = Instant::now() + Duration::from_secs(10);
            while !begun.load(Ordering::Acquire) {
                assert!(Instant::now() < deadline, "the helper never began the job");
                std::hint::spin_loop();
            }
            lane.join();
        };

        let payload =
            panic::catch_unwind(AssertUnwindSafe(|| run(&mut lane, || panic!("job failed"))))
                .unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job failed"));

        // The helper serves the next job, on its own thread.
        static RAN_ON: Mutex<Option<thread::ThreadId>> = Mutex::new(None);
        run(&mut lane, || *lock(&RAN_ON) = Some(thread::current().id()));
        let ran_on = lock(&RAN_ON).expect("the job ran");
        assert_ne!(ran_on, caller);
    }

    #[test]
    fn a_held_helper_leaves_other_lanes_inline() {
        let Some(held) = helper_lane() else { return };
        let mut other = Lane::claim();
        assert!(!other.on_helper());
        let caller = thread::current().id();
        let ran_on = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&ran_on);
        other.start(move || *lock(&slot) = Some(thread::current().id()));
        assert_eq!(*lock(&ran_on), Some(caller), "an inline job runs when it is started");
        drop(held);
    }
}
