//! Helpers shared by the integration suites.

use dist_exec::backend::{EnvFactory, FnEnvFactory};
use gymrs::envs::GridWorld;
use gymrs::Environment;

/// A closure-built (blueprint-less, hence in-process only) 3×3 grid world.
pub fn grid_factory() -> impl EnvFactory {
    FnEnvFactory(|seed| {
        let mut e = GridWorld::new(3);
        e.seed(seed);
        Box::new(e) as Box<dyn Environment>
    })
}
