//! Telemetry instrument names for the consequence trace.
//!
//! One `CF_POINT` event per analyzed decision point and one
//! `CF_EPISODE` event per episode make the analyzer's output
//! reconstructible from a telemetry snapshot alone — the per-episode
//! "consequence trace". Counters account for the fan-out volume the
//! dispatch machinery absorbed.

use telemetry::Key;

/// Counter: decision points analyzed.
pub const CF_POINTS: Key = Key("cf.points");
/// Counter: continuation rollouts answered (tasks dispatched).
pub const CF_ROLLOUTS: Key = Key("cf.rollouts");
/// Counter: distinct continuations among them — the lanes the lockstep
/// runner steps ([`LanePlan`](dist_exec::runtime::whatif::LanePlan)),
/// whichever executor ran.
pub(crate) const CF_LANES: Key = Key("cf.lanes");
/// Event: one analyzed decision point (fields: [`F_T`], [`F_JS`],
/// [`F_W1`], [`F_ALTS`]).
pub(crate) const CF_POINT: Key = Key("cf.point");
/// Event: one analyzed episode (fields: [`F_POINTS`], [`F_JS`],
/// [`F_W1`], [`F_RETURN`]).
pub(crate) const CF_EPISODE: Key = Key("cf.episode");

/// Decision-point step index within the episode.
pub(crate) const F_T: Key = Key("t");
/// Aggregated Jensen–Shannon score.
pub(crate) const F_JS: Key = Key("js");
/// Aggregated 1-Wasserstein score.
pub(crate) const F_W1: Key = Key("w1");
/// Number of alternative actions forked.
pub(crate) const F_ALTS: Key = Key("alts");
/// Number of decision points in the episode.
pub(crate) const F_POINTS: Key = Key("points");
/// The recorded episode's factual return.
pub(crate) const F_RETURN: Key = Key("ret");
