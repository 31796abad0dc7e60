//! The worker actor: a long-lived state machine owning environment
//! state and a policy snapshot, processing [`Command`]s until shutdown.
//!
//! Workers are spawned once per trial (not per iteration — the old
//! backends re-spawned scoped threads every collection wave) and keep
//! their environments across rounds, exactly like the persistent rollout
//! workers of the real frameworks. Every worker owns a [`Collector`] — a
//! `VecEnv`, one lane per core for a vectorized worker and a single lane
//! for an RLlib rollout worker — and collects through the one lockstep
//! loop, `rl_algos::collect_lockstep`. The `VecEnv` keeps each lane's
//! observation and open episode, so an episode that straddles rounds is
//! logged whole in the round it ends in.
//!
//! The state machine is transport-neutral: `WorkerState::handle` maps
//! one command to events via an `emit` callback, and the two transports
//! wrap it differently — `worker_loop` runs it on an in-process mpsc
//! pair, the `rldt-worker` child process runs it over a socket.
//!
//! Fault containment: a panic inside a collection is caught, reported as
//! a non-fatal [`Event::WorkerFailed`], and the worker *keeps serving
//! commands* after resetting its environment state — the driver decides
//! whether to retry, respawn or quarantine (see
//! [`super::fault::FaultPolicy`]). Only an injected crash (or a send on a
//! dead event channel) ends the worker. Injected faults come from the
//! hosting runtime's [`FaultPlan`], which every worker consults on each
//! `Collect` in every build; the default plan is empty and never fires.

use super::event::{panic_text, Command, Event};
use super::fault::{FaultKind, FaultPlan};
use crate::backends::common::Segment;
use gymrs::{Environment, VecEnv};
use rl_algos::policy::ActorCritic;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

/// The environment state a worker owns: a vectorized environment whose
/// lanes it steps in lockstep. A Stable-Baselines or TF-Agents worker
/// has one lane per core, an RLlib rollout worker a single lane. The
/// `VecEnv` carries every lane's observation and open episode from round
/// to round, and `steps` in a [`Command::Collect`] counts lockstep ticks
/// (each tick advances every lane once).
pub type Collector = VecEnv<Box<dyn Environment>>;

/// What a worker does after handling one command.
pub(crate) enum Flow {
    /// Keep serving commands.
    Continue,
    /// Clean stop: [`Command::Shutdown`] or an unreachable driver.
    Exit,
    /// An injected crash: the hosting loop must report a *fatal*
    /// [`Event::WorkerFailed`] with this round/reason and then die the
    /// way its transport dies (thread return / process exit).
    Died { round: u64, reason: String },
}

/// One worker's complete state, independent of how commands arrive.
pub(crate) struct WorkerState {
    worker: usize,
    node: usize,
    collector: Collector,
    policy: ActorCritic,
    /// The hosting runtime's armed plan, shared with every worker it
    /// hosts, so a respawned worker cannot re-suffer a fault that
    /// already fired. Empty unless the run was given faults.
    plan: Arc<FaultPlan>,
}

impl WorkerState {
    pub(crate) fn new(
        worker: usize,
        node: usize,
        collector: Collector,
        policy: ActorCritic,
        plan: Arc<FaultPlan>,
    ) -> Self {
        Self { worker, node, collector, policy, plan }
    }

    /// Process one command, emitting events through `emit` (which
    /// returns `false` when the driver is unreachable).
    pub(crate) fn handle(&mut self, cmd: Command, emit: &mut dyn FnMut(Event) -> bool) -> Flow {
        let worker = self.worker;
        match cmd {
            Command::Collect { round, steps, mut rng } => {
                let fault = self.plan.take(worker, round);
                match fault {
                    Some(FaultKind::Slow { millis }) | Some(FaultKind::Hang { millis }) => {
                        // A slow worker answers late; a hung worker
                        // answers after the driver's timeout already
                        // fired — either way the work proceeds below and
                        // the driver decides what is stale.
                        std::thread::sleep(Duration::from_millis(millis));
                    }
                    Some(FaultKind::Crash) => {
                        return Flow::Died {
                            round,
                            reason: format!("injected crash in round {round}"),
                        };
                    }
                    Some(FaultKind::Panic) | None => {}
                }
                let collector = &mut self.collector;
                let policy = &self.policy;
                let result = catch_unwind(AssertUnwindSafe(|| {
                    if matches!(fault, Some(FaultKind::Panic)) {
                        panic!("injected panic in round {round}");
                    }
                    Segment::collect(policy, collector, steps, rng.rng_mut())
                }));
                match result {
                    Ok(segment) => {
                        let ev = Event::SegmentReady {
                            worker,
                            node: self.node,
                            round,
                            segment: Box::new(segment),
                            rng,
                        };
                        if !emit(ev) {
                            return Flow::Exit; // driver gone
                        }
                    }
                    Err(payload) => {
                        // Contained: reset to a known-good state and keep
                        // serving. The driver may retry this round.
                        let reason = panic_text(payload.as_ref());
                        self.collector.reset_all();
                        let failed = Event::WorkerFailed { worker, round, reason, fatal: false };
                        if !emit(failed) {
                            return Flow::Exit;
                        }
                    }
                }
                Flow::Continue
            }
            Command::UpdateWeights { round, policy: fresh } => {
                self.policy.copy_params_from(&fresh);
                if !emit(Event::Heartbeat { worker, round }) {
                    return Flow::Exit;
                }
                Flow::Continue
            }
            Command::Shutdown => Flow::Exit,
        }
    }
}

/// The in-process worker loop: block on the command channel, feed the
/// state machine, forward events over the mpsc sender. Runs until
/// [`Command::Shutdown`] or a dropped channel.
pub(crate) fn worker_loop(
    worker: usize,
    node: usize,
    collector: Collector,
    policy: ActorCritic,
    commands: Receiver<Command>,
    events: Sender<Event>,
    plan: Arc<FaultPlan>,
) {
    let mut state = WorkerState::new(worker, node, collector, policy, plan);
    while let Ok(cmd) = commands.recv() {
        match state.handle(cmd, &mut |ev| events.send(ev).is_ok()) {
            Flow::Continue => {}
            Flow::Exit => break,
            Flow::Died { round, reason } => {
                let _ = events.send(Event::WorkerFailed { worker, round, reason, fatal: true });
                return; // the thread dies: only a respawn recovers it
            }
        }
    }
}
