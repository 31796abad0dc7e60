//! The fixed names of the ledger: workloads, end-to-end metrics with
//! their bounds, and per-layer metrics. `BENCHMARK.json` at the repository
//! root carries the same lists for the driver; a unit test keeps the two
//! equal.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `base`, as a share of `base`
    /// (negative when it is better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "table1",
        why: "the paper's 18-row study end to end: in-process training, SAC and PPO updates dominate, the wire is idle",
    },
    Workload {
        name: "deploy_uds",
        why: "the same PPO stack over 8 deployments with every round crossing a process boundary: spawn, codec, socket, dispatch",
    },
    Workload {
        name: "whatif",
        why: "counterfactual fan-out bound by batched environment stepping, no network forward at all",
    },
    Workload {
        name: "study_core",
        why: "thousands of cheap trials: WAL append and replay, cache, scheduler, bootstrap and ranking, no environment",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The bounds are what ten runs resolve on the machine the baseline was
/// taken on, whose clock drifts by ten percent and more for minutes at a
/// time. `README.md` says how to make a finer claim.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "wall_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "work_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "cpu_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher }
}

/// Layer names are the crate directories under `crates/`. A name ending in
/// a shape (`.b64`, `.n32`, `.w4`) is a probe at that shape; the others
/// are counts and spans of the traced pass.
pub const PER_LAYER: [PerLayer; 107] = [
    // simd
    lo("simd.matmul_ns.b64", "ns"),
    lo("simd.stage_update_ns.n32", "ns"),
    // ode
    lo("ode.interval_ns.rk3", "ns"),
    lo("ode.interval_ns.rk5", "ns"),
    lo("ode.interval_ns.rk8", "ns"),
    lo("ode.batch_interval_ns_per_lane.rk8.n4", "ns"),
    lo("ode.batch_interval_ns_per_lane.rk8.n32", "ns"),
    lo("ode.fn_evals", "count"),
    // airdrop
    lo("airdrop.step_ns.rk3", "ns"),
    lo("airdrop.step_ns.rk8", "ns"),
    lo("airdrop.ref_step_ns", "ns"),
    lo("airdrop.batch_step_ns_per_lane.n32", "ns"),
    lo("airdrop.snapshot_restore_ns", "ns"),
    // gym
    lo("gym.vecenv_tick_ns_per_env.n2", "ns"),
    lo("gym.vecenv_tick_ns_per_env.n4", "ns"),
    lo("gym.vecenv_tick_ns_per_env.n32", "ns"),
    lo("gym.steps", "count"),
    lo("gym.episodes", "count"),
    hi("gym.batched_tick_share", "ratio"),
    // nn
    lo("nn.forward_ns_per_row.b1", "ns"),
    lo("nn.forward_ns_per_row.b64", "ns"),
    lo("nn.backward_ns_per_row.b64", "ns"),
    lo("nn.adam_step_us", "us"),
    lo("nn.flops_forward", "count"),
    lo("nn.flops_backward", "count"),
    // rl
    lo("rl.act_batch_ns_per_row.b4", "ns"),
    lo("rl.ppo_update_ms", "ms"),
    lo("rl.sac_update_us", "us"),
    lo("rl.replay_sample_us.b64", "us"),
    lo("rl.gae_us.n1024", "us"),
    lo("rl.collect_lockstep_us_per_step.n4", "us"),
    lo("rl.evaluate_ms_per_episode", "ms"),
    hi("rl.single_thread_steps_per_s.ppo", "1/s"),
    hi("rl.single_thread_steps_per_s.sac", "1/s"),
    // distrib
    lo("distrib.spawn_ms.inproc.w4", "ms"),
    lo("distrib.spawn_ms.uds.w4", "ms"),
    lo("distrib.round_us.inproc.w4", "us"),
    lo("distrib.round_us.uds.w4", "us"),
    lo("distrib.dispatch_us.inproc.w4", "us"),
    lo("distrib.shutdown_ms.uds.w4", "ms"),
    lo("distrib.codec_encode_us.rollout256", "us"),
    lo("distrib.codec_decode_us.rollout256", "us"),
    lo("distrib.train_s.rllib", "s"),
    lo("distrib.train_s.sb3", "s"),
    lo("distrib.train_s.tfa", "s"),
    lo("distrib.commands", "count"),
    lo("distrib.events", "count"),
    lo("distrib.broadcasts", "count"),
    lo("distrib.broadcast_bytes", "count"),
    lo("distrib.wire_bytes", "count"),
    lo("distrib.wire_frames", "count"),
    lo("distrib.wire_flushes", "count"),
    lo("distrib.wire_flush_s", "s"),
    hi("distrib.occupancy_mean", "ratio"),
    lo("distrib.retries", "count"),
    lo("distrib.quarantines", "count"),
    lo("distrib.transport_overhead_share", "ratio"),
    hi("distrib.scaling_efficiency.rllib", "ratio"),
    hi("distrib.scaling_efficiency.sb3", "ratio"),
    hi("distrib.scaling_efficiency.tfa", "ratio"),
    // cluster
    lo("cluster.apply_ns", "ns"),
    hi("cluster.sim_over_real", "ratio"),
    // core
    lo("core.wal_append_us.buffered", "us"),
    lo("core.wal_append_us.flush", "us"),
    lo("core.wal_append_us.sync", "us"),
    lo("core.wal_load_ms.n2000", "ms"),
    lo("core.study_overhead_us_per_trial", "us"),
    lo("core.cache_lookup_ns", "ns"),
    lo("core.bootstrap_ci_us.n64.r1000", "us"),
    lo("core.pareto_front_ms.n2000", "ms"),
    lo("core.rank_ci_gate_ms.n2000", "ms"),
    lo("core.report_ms.n2000", "ms"),
    lo("core.cold_s", "s"),
    lo("core.resume_s", "s"),
    lo("core.rank_s", "s"),
    lo("core.trial_wall_s.p50", "s"),
    lo("core.trial_wall_s.max", "s"),
    hi("core.trials_complete", "count"),
    hi("core.trials_reused", "count"),
    hi("core.trials_resumed", "count"),
    lo("core.trials_failed", "count"),
    hi("core.cache_hit_share", "ratio"),
    lo("core.wal_bytes", "count"),
    // counterfactual
    lo("counterfactual.fanout_us.scalar.w32", "us"),
    lo("counterfactual.fanout_us.batched.w32", "us"),
    lo("counterfactual.divergence_us.n16", "us"),
    lo("counterfactual.record_ms", "ms"),
    lo("counterfactual.analyze_s", "s"),
    lo("counterfactual.points", "count"),
    lo("counterfactual.rollouts", "count"),
    // telemetry
    lo("telemetry.counter_add_ns", "ns"),
    lo("telemetry.span_ns", "ns"),
    lo("telemetry.event_ns", "ns"),
    lo("telemetry.export_ms", "ms"),
    lo("telemetry.dropped_events", "count"),
    lo("telemetry.tracing_overhead_share", "ratio"),
    // bench
    lo("bench.train_s", "s"),
    lo("bench.eval_s", "s"),
    lo("bench.metrics_s", "s"),
    lo("bench.unattributed_s", "s"),
    lo("bench.est_share.ode", "ratio"),
    lo("bench.est_share.env", "ratio"),
    lo("bench.est_share.policy_forward", "ratio"),
    lo("bench.est_share.update", "ratio"),
    lo("bench.est_share.runtime", "ratio"),
    lo("bench.est_share.wire", "ratio"),
    lo("bench.est_share.unexplained", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("missing {key}"))
    }

    /// `BENCHMARK.json` is what the driver reads; this file is what the
    /// program prints and what `compare` applies. They must not drift.
    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");

        let workloads = doc.get("workloads").and_then(Json::as_arr).expect("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(entry, "name"), w.name);
            assert_eq!(field(entry, "why"), w.why);
        }

        let e2e = doc.get("end_to_end").and_then(Json::as_arr).expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), m.better.as_str());
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound), "{}", m.name);
        }

        let layers = doc.get("per_layer").and_then(Json::as_arr).expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), m.better.as_str());
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for name in names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric(), "{name}");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }
}
