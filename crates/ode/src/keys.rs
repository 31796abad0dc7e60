//! Telemetry keys recorded by [`crate::stepper::Integration`].

use telemetry::Key;

/// Counter: accepted integration steps.
pub const STEPS: Key = Key("ode.steps");

/// Counter: right-hand-side (derivative) evaluations.
pub(crate) const FN_EVALS: Key = Key("ode.fn_evals");

/// Counter: rejected (retried) steps — always zero for fixed-step runs.
pub(crate) const REJECTED: Key = Key("ode.rejected");
