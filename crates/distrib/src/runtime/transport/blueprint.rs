//! Serializable recipes for rebuilding a worker's environments in
//! another process.
//!
//! The channel transport moves live `Box<dyn Environment>` values and
//! closures; neither crosses a process boundary. A blueprint is the
//! declarative equivalent: which environment, and one seed per lane of
//! the worker's `VecEnv`. Worker specs without a
//! blueprint (custom closure factories) simply cannot use the process
//! transport — the runtime falls back to the channel transport rather
//! than guessing.

use super::codec::{Body, CodecError};
use crate::backend::EnvFactory;
use crate::runtime::worker::Collector;
use airdrop_sim::{AirdropConfig, AirdropEnv};
use gymrs::envs::{GridWorld, Pendulum, PointMass};
use gymrs::{Environment, VecEnv};

/// The environments the repo can name on the wire: the toy suite plus
/// the paper's airdrop simulator in its two standard configurations.
/// Custom `AirdropConfig`s (bench sweeps) stay closure-built and
/// channel-bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvBlueprint {
    Grid {
        n: usize,
    },
    PointMass,
    Pendulum,
    /// `AirdropConfig::fast_test()`.
    AirdropFast,
    /// `AirdropConfig::default()` — the paper's full scenario.
    AirdropPaper,
}

impl EnvBlueprint {
    /// Instantiate and seed the environment.
    pub fn build(&self, seed: u64) -> Box<dyn Environment> {
        let mut env: Box<dyn Environment> = match self {
            EnvBlueprint::Grid { n } => Box::new(GridWorld::new(*n)),
            EnvBlueprint::PointMass => Box::new(PointMass::new()),
            EnvBlueprint::Pendulum => Box::new(Pendulum::new()),
            EnvBlueprint::AirdropFast => Box::new(AirdropEnv::new(AirdropConfig::fast_test())),
            EnvBlueprint::AirdropPaper => Box::new(AirdropEnv::new(AirdropConfig::default())),
        };
        env.seed(seed);
        env
    }

    pub(super) fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            EnvBlueprint::Grid { n } => {
                buf.push(0);
                super::codec::put_varint(buf, *n as u64);
            }
            EnvBlueprint::PointMass => buf.push(1),
            EnvBlueprint::Pendulum => buf.push(2),
            EnvBlueprint::AirdropFast => buf.push(3),
            EnvBlueprint::AirdropPaper => buf.push(4),
        }
    }

    pub(super) fn decode(b: &mut Body<'_>) -> Result<Self, CodecError> {
        Ok(match b.u8()? {
            0 => EnvBlueprint::Grid { n: b.len()? },
            1 => EnvBlueprint::PointMass,
            2 => EnvBlueprint::Pendulum,
            3 => EnvBlueprint::AirdropFast,
            4 => EnvBlueprint::AirdropPaper,
            _ => return Err(CodecError::BadValue("env blueprint")),
        })
    }
}

/// A blueprint is itself an environment factory, and the only factory
/// that can describe itself on the wire.
impl EnvFactory for EnvBlueprint {
    fn make(&self, seed: u64) -> Box<dyn Environment> {
        self.build(seed)
    }

    fn blueprint(&self) -> Option<EnvBlueprint> {
        Some(self.clone())
    }
}

/// How to rebuild one worker's [`Collector`] from scratch: the
/// environment recipe and one seed per lane (the collector's width is
/// `seeds.len()`). Mirrors exactly what the backends' respawn closures
/// do, so a child process built from a blueprint starts
/// bitwise-identical to a thread built from the closure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectorBlueprint {
    pub(crate) env: EnvBlueprint,
    pub(crate) seeds: Vec<u64>,
}

impl CollectorBlueprint {
    /// One lane per seed (at least one).
    pub(crate) fn lanes(env: EnvBlueprint, seeds: Vec<u64>) -> Self {
        Self { env, seeds }
    }

    /// A single lane: an RLlib rollout worker's environment.
    pub fn per_env(env: EnvBlueprint, seed: u64) -> Self {
        Self::lanes(env, vec![seed])
    }

    /// Build the collector exactly the way the backends do in-process:
    /// pre-seeded envs, then an initial reset.
    pub fn build(&self) -> Collector {
        let envs: Vec<_> = self.seeds.iter().map(|&s| self.env.build(s)).collect();
        let mut venv = VecEnv::new_preseeded(envs);
        venv.reset_all();
        venv
    }

    pub(super) fn encode(&self, buf: &mut Vec<u8>) {
        self.env.encode(buf);
        super::codec::put_varint(buf, self.seeds.len() as u64);
        for &s in &self.seeds {
            super::codec::put_varint(buf, s);
        }
    }

    pub(super) fn decode(b: &mut Body<'_>) -> Result<Self, CodecError> {
        let env = EnvBlueprint::decode(b)?;
        let n = b.len()?;
        if n == 0 {
            return Err(CodecError::BadValue("lane count"));
        }
        let mut seeds = Vec::with_capacity(b.capacity(n, 1));
        for _ in 0..n {
            seeds.push(b.varint()?);
        }
        Ok(Self { env, seeds })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blueprints_round_trip_through_the_codec() {
        let cases = [
            CollectorBlueprint::per_env(EnvBlueprint::Grid { n: 5 }, 42),
            CollectorBlueprint::lanes(EnvBlueprint::PointMass, vec![1, 2, 3, u64::MAX]),
            CollectorBlueprint::per_env(EnvBlueprint::Pendulum, 0),
            CollectorBlueprint::lanes(EnvBlueprint::AirdropFast, vec![7, 8]),
            CollectorBlueprint::per_env(EnvBlueprint::AirdropPaper, 9),
        ];
        for bp in cases {
            let mut buf = Vec::new();
            bp.encode(&mut buf);
            let decoded = CollectorBlueprint::decode(&mut Body::new(&buf)).unwrap();
            assert_eq!(decoded, bp);
        }
    }

    #[test]
    fn a_blueprint_without_lanes_is_rejected_on_decode() {
        // The child would otherwise panic building an empty `VecEnv`.
        let mut buf = Vec::new();
        CollectorBlueprint { env: EnvBlueprint::PointMass, seeds: Vec::new() }.encode(&mut buf);
        let got = CollectorBlueprint::decode(&mut Body::new(&buf));
        assert!(matches!(got, Err(CodecError::BadValue("lane count"))));
    }

    #[test]
    fn blueprint_build_matches_direct_construction() {
        let bp = EnvBlueprint::Grid { n: 4 };
        let mut direct = GridWorld::new(4);
        direct.seed(11);
        let mut built = bp.build(11);
        let a = direct.reset();
        let b = built.reset();
        assert_eq!(a, b);
    }

    #[test]
    fn blueprint_factory_describes_itself() {
        let bp = EnvBlueprint::PointMass;
        assert_eq!(EnvFactory::blueprint(&bp), Some(EnvBlueprint::PointMass));
    }
}
