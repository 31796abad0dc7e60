//! Execution specifications: what to train, where.

use crate::framework::{Architecture, Framework};
use crate::runtime::{FaultPlan, FaultPolicy, TransportConfig};
use rl_algos::{Algorithm, PpoConfig, SacConfig};

/// The system-level deployment parameters of the study (§V-b): number of
/// nodes and CPU cores per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Deployment {
    /// Nodes in use (1 or 2 in the paper).
    pub nodes: usize,
    /// Cores used on each node (2 or 4 in the paper).
    pub cores_per_node: usize,
}

impl Deployment {
    /// Total worker slots.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// Validate against a framework's capabilities.
    pub fn validate(&self, framework: Framework) -> Result<(), String> {
        self.fits(&framework.architecture())
    }

    fn fits(&self, arch: &Architecture) -> Result<(), String> {
        if self.nodes == 0 || self.cores_per_node == 0 {
            return Err("deployment needs at least one node and one core".into());
        }
        if self.nodes > 1 && !arch.multi_node {
            let name = arch.profile.name;
            return Err(format!("{name} parallelizes on a single node only (paper §V-b)"));
        }
        Ok(())
    }
}

/// The checks every training entry point applies before anything is
/// spawned: a deployment the architecture admits, a positive step budget,
/// a well-formed transport request (in-process when there is none), and
/// for SAC, which trains in process and spawns no runtime, neither a
/// process transport nor a fault plan it would silently drop. Returns the
/// transport.
pub(crate) fn check_run(spec: &ExecSpec, arch: &Architecture) -> Result<TransportConfig, String> {
    spec.deployment.fits(arch)?;
    if spec.total_steps == 0 {
        return Err("total_steps must be positive".into());
    }
    let transport =
        spec.transport.as_deref().map_or(Ok(TransportConfig::InProcess), TransportConfig::parse)?;
    if spec.algorithm == Algorithm::Sac {
        if transport != TransportConfig::InProcess {
            let wire = transport.as_str();
            return Err(format!("SAC trains in process: it cannot run on the `{wire}` transport"));
        }
        if !spec.fault_plan.is_empty() {
            return Err("SAC trains in process with no workers: a fault plan cannot fire".into());
        }
    }
    Ok(transport)
}

/// A full training-execution request.
#[derive(Debug, Clone)]
pub struct ExecSpec {
    /// Which framework architecture to use.
    pub framework: Framework,
    /// PPO or SAC.
    pub algorithm: Algorithm,
    /// Node/core assignment.
    pub deployment: Deployment,
    /// Total environment steps (the paper uses 200,000).
    pub total_steps: usize,
    /// Master seed.
    pub(crate) seed: u64,
    /// PPO hyperparameters.
    pub ppo: PpoConfig,
    /// SAC hyperparameters.
    pub sac: SacConfig,
    /// How the runtime reacts to worker failures. Defaults to
    /// [`FaultPolicy::fail_fast`] — the pre-fault-tolerance behavior,
    /// minus the panic: an unhandled failure becomes a study `Err`.
    pub fault: FaultPolicy,
    /// Transport for the runtime (`inproc` or `uds`).
    /// `None` is in-process; a malformed value, or `uds` on a SAC spec
    /// (SAC spawns no runtime), is rejected by [`dist_exec::run`](crate::run).
    pub(crate) transport: Option<String>,
    /// Faults to inject into this spec's runtime (empty by default). The
    /// spec holds the plan by value — the *schedule*, not shared arming:
    /// `FaultPlan::clone` re-arms, and every run arms its own clone, so
    /// running one spec twice injects the same faults twice and a cloned
    /// spec starts fully armed. Only the runtime and its workers share
    /// one armed copy (an `Arc`), which is what a fault fires on. SAC
    /// spawns no runtime, so a SAC spec with a plan is refused.
    pub fault_plan: FaultPlan,
}

impl ExecSpec {
    /// A spec with framework defaults.
    pub fn new(
        framework: Framework,
        algorithm: Algorithm,
        deployment: Deployment,
        total_steps: usize,
        seed: u64,
    ) -> Self {
        Self {
            framework,
            algorithm,
            deployment,
            total_steps,
            seed,
            ppo: PpoConfig::default(),
            sac: SacConfig::default(),
            fault: FaultPolicy::default(),
            transport: None,
            fault_plan: FaultPlan::new(),
        }
    }

    /// Request a specific transport (`inproc` or `uds`).
    pub fn with_transport(mut self, transport: impl Into<String>) -> Self {
        self.transport = Some(transport.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rllib_accepts_two_nodes() {
        let d = Deployment { nodes: 2, cores_per_node: 4 };
        assert!(d.validate(Framework::RayRllib).is_ok());
        assert_eq!(d.total_cores(), 8);
    }

    #[test]
    fn single_node_frameworks_reject_two_nodes() {
        let d = Deployment { nodes: 2, cores_per_node: 4 };
        assert!(d.validate(Framework::StableBaselines).is_err());
        assert!(d.validate(Framework::TfAgents).is_err());
        let d1 = Deployment { nodes: 1, cores_per_node: 2 };
        assert!(d1.validate(Framework::StableBaselines).is_ok());
    }

    #[test]
    fn degenerate_deployments_rejected() {
        assert!(Deployment { nodes: 0, cores_per_node: 4 }.validate(Framework::RayRllib).is_err());
        assert!(Deployment { nodes: 1, cores_per_node: 0 }.validate(Framework::TfAgents).is_err());
    }

    #[test]
    fn run_check_covers_steps() {
        let d = Deployment { nodes: 1, cores_per_node: 4 };
        let mut spec = ExecSpec::new(Framework::TfAgents, Algorithm::Ppo, d, 1000, 0);
        let arch = spec.framework.architecture();
        assert!(check_run(&spec, &arch).is_ok());
        spec.total_steps = 0;
        assert!(check_run(&spec, &arch).is_err());
    }
}
