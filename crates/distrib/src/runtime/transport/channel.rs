//! The default in-process transport: one long-lived thread per worker,
//! per-worker `mpsc` command senders, one shared event receiver.
//!
//! This is the pre-transport runtime verbatim, moved behind the
//! [`Transport`] trait: commands and events are moved by ownership, no
//! byte ever gets serialized, and [`TransportStats`] stays all-zero.

use super::super::event::{Command, Event};
use super::super::fault::{FaultPlan, RuntimeError};
use super::super::worker::{self, Collector};
use super::{SendError, Transport, TransportConfig, TransportStats};
use rl_algos::policy::ActorCritic;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

struct ChannelWorker {
    commands: mpsc::Sender<Command>,
    join: Option<JoinHandle<()>>,
    node: usize,
}

pub(crate) struct ChannelTransport {
    workers: Vec<ChannelWorker>,
    events: mpsc::Receiver<Event>,
    event_tx: mpsc::Sender<Event>,
    /// This runtime's armed fault plan; respawned workers share it too.
    plan: Arc<FaultPlan>,
}

impl ChannelTransport {
    /// Spawn one `rt-worker-{i}` thread per `(node, collector)` pair,
    /// each booting from a clone of `initial_policy` and sharing `plan`.
    pub(crate) fn spawn(
        workers: Vec<(usize, Collector)>,
        initial_policy: &ActorCritic,
        plan: Arc<FaultPlan>,
    ) -> Self {
        let (event_tx, events) = mpsc::channel::<Event>();
        let workers = workers
            .into_iter()
            .enumerate()
            .map(|(i, (node, collector))| {
                let (commands, cmd_rx) = mpsc::channel::<Command>();
                let tx = event_tx.clone();
                let policy = initial_policy.clone();
                let plan = plan.clone();
                let join = std::thread::Builder::new()
                    .name(format!("rt-worker-{i}"))
                    .spawn(move || {
                        worker::worker_loop(i, node, collector, policy, cmd_rx, tx, plan)
                    })
                    .expect("spawn runtime worker");
                ChannelWorker { commands, join: Some(join), node }
            })
            .collect();
        Self { workers, events, event_tx, plan }
    }
}

impl Transport for ChannelTransport {
    fn kind(&self) -> TransportConfig {
        TransportConfig::InProcess
    }

    fn send(&mut self, worker: usize, cmd: Command) -> Result<(), SendError> {
        self.workers[worker].commands.send(cmd).map_err(|_| SendError)
    }

    fn recv_deadline(&mut self, deadline: Instant) -> Result<Option<Event>, RuntimeError> {
        let now = Instant::now();
        if deadline <= now {
            return Ok(None);
        }
        match self.events.recv_timeout(deadline - now) {
            Ok(ev) => Ok(Some(ev)),
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(RuntimeError::Disconnected),
        }
    }

    fn reap(&mut self, worker: usize) {
        if let Some(join) = self.workers[worker].join.take() {
            let _ = join.join();
        }
    }

    fn respawn(
        &mut self,
        worker: usize,
        maker: Option<&(dyn Fn() -> Collector + '_)>,
        policy: &ActorCritic,
    ) -> bool {
        // Threads cannot be rebuilt without the spec's closure — the
        // collector owns live environment state that only the backend
        // knows how to recreate.
        let Some(make) = maker else {
            return false;
        };
        let Ok(collector) = catch_unwind(AssertUnwindSafe(make)) else {
            return false;
        };
        let (commands, cmd_rx) = mpsc::channel::<Command>();
        let tx = self.event_tx.clone();
        let policy = policy.clone();
        let node = self.workers[worker].node;
        let plan = self.plan.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("rt-worker-{worker}"))
            .spawn(move || worker::worker_loop(worker, node, collector, policy, cmd_rx, tx, plan));
        match spawned {
            Ok(join) => {
                self.workers[worker] = ChannelWorker { commands, join: Some(join), node };
                true
            }
            Err(_) => false,
        }
    }

    fn shutdown(&mut self, skip: &[bool]) {
        for w in &self.workers {
            let _ = w.commands.send(Command::Shutdown);
        }
        for (i, w) in self.workers.iter_mut().enumerate() {
            // A worker quarantined for a hang may never wake; joining it
            // would block shutdown forever. Leak it — once the event
            // channel closes, its next send fails and the thread exits.
            if skip.get(i).copied().unwrap_or(false) {
                continue;
            }
            if let Some(join) = w.join.take() {
                let _ = join.join();
            }
        }
    }

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}
