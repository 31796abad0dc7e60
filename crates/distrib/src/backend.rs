//! Environment factories and the entry points that run a whole trial.

use crate::backends::train;
use crate::report::ExecReport;
use crate::spec::ExecSpec;
use gymrs::Environment;
use telemetry::SharedRecorder;

/// Creates per-worker environment instances.
///
/// Factories are `Send + Sync` because per-env workers rebuild their
/// environments inside worker threads.
pub trait EnvFactory: Send + Sync {
    /// Build a fresh environment seeded with `seed`.
    fn make(&self, seed: u64) -> Box<dyn Environment>;

    /// The serializable recipe for this factory's environments, if it
    /// has one. Only blueprint-backed factories can run workers on the
    /// process transport (closures cannot cross a process boundary);
    /// the default `None` keeps such factories on the in-process
    /// transport.
    fn blueprint(&self) -> Option<crate::runtime::EnvBlueprint> {
        None
    }
}

/// Closure adapter for [`EnvFactory`].
pub struct FnEnvFactory<F>(pub F);

impl<F> EnvFactory for FnEnvFactory<F>
where
    F: Fn(u64) -> Box<dyn Environment> + Send + Sync,
{
    fn make(&self, seed: u64) -> Box<dyn Environment> {
        (self.0)(seed)
    }
}

/// Run a full training execution: validates the spec, builds the cluster
/// session for the requested deployment, trains on it and finalizes the
/// usage accounting.
pub fn run(spec: &ExecSpec, factory: &dyn EnvFactory) -> Result<ExecReport, String> {
    run_recorded(spec, factory, telemetry::null_recorder())
}

/// [`run`] with a telemetry recorder tapping the whole stack: the cluster
/// session's accounting and execution record (the `session.*` events a
/// Gantt chart is drawn from), the driver's
/// [`crate::keys::TRIAL_ITERATION`] events and step counters, the
/// runtime's dispatch traffic and the tick counters of every in-process
/// worker's `VecEnv` all land on `recorder`. A recorder answering `true` from
/// [`should_stop`](telemetry::Recorder::should_stop) ends the trial at
/// the next iteration boundary — this is how pruners tap a running trial.
pub fn run_recorded(
    spec: &ExecSpec,
    factory: &dyn EnvFactory,
    recorder: SharedRecorder,
) -> Result<ExecReport, String> {
    train(spec, factory, recorder)
}
