//! Cross-transport regression tests: training on the process transport
//! (workers in spawned child processes, frames over Unix domain sockets)
//! must be **bitwise indistinguishable** from training on the default
//! in-process transport — same rewards, same simulated wall-clock and
//! energy, bit for bit. The only permitted difference is
//! observational: `Usage::wire_bytes` counts real socket traffic on the
//! process transport and stays zero in process.
//!
//! Also here: wire-codec round-trips over adversarial payload shapes
//! (empty rollouts, varint boundary values, NaN/infinity bit patterns,
//! unicode reasons) checked by exact re-encoding, plus seeded sweeps
//! of the same properties over drawn fields.

mod common;

use common::{fingerprint, ppo_spec};
use dist_exec::backend::run;
use dist_exec::backends::common::Segment;
use dist_exec::runtime::transport::codec::{
    self, decode_command, decode_event, encode_command, encode_event, FrameReader, FrameWriter,
};
use dist_exec::runtime::transport::RngCache;
use dist_exec::runtime::{
    Command, EnvBlueprint, Event, FaultKind, FaultPlan, RngStream, WILDCARD_ROUND,
};
use dist_exec::{ExecSpec, FaultPolicy, Framework};
use gymrs::Space;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl_algos::policy::ActorCritic;

// ---- codec round-trips ------------------------------------------------
//
// Equality via double encoding: encode → decode → re-encode and demand
// identical frames. This checks every field the wire carries (including
// f64 bit patterns and the rng (seed, draws) pair) without requiring
// `PartialEq` on the message enums.

fn reencode_command(frame: &[u8]) -> Vec<u8> {
    let mut r = FrameReader::new();
    let mut cursor = std::io::Cursor::new(frame.to_vec());
    let (t, body) = r.next_frame(&mut cursor).expect("io").expect("frame");
    let mut cmd = decode_command(t, body, &mut RngCache::new()).expect("decodes");
    let mut w = FrameWriter::new();
    encode_command(&mut w, &mut cmd, &mut RngCache::new()).to_vec()
}

fn reencode_event(frame: &[u8]) -> Vec<u8> {
    let mut r = FrameReader::new();
    let mut cursor = std::io::Cursor::new(frame.to_vec());
    let (t, body) = r.next_frame(&mut cursor).expect("io").expect("frame");
    let mut ev = decode_event(t, body, &mut RngCache::new()).expect("decodes");
    let mut w = FrameWriter::new();
    encode_event(&mut w, &mut ev, &mut RngCache::new()).to_vec()
}

fn assert_command_round_trips(cmd: &mut Command) {
    let mut w = FrameWriter::new();
    let frame = encode_command(&mut w, cmd, &mut RngCache::new()).to_vec();
    assert_eq!(reencode_command(&frame), frame, "command frame must survive a round trip");
}

fn assert_event_round_trips(ev: &mut Event) {
    let mut w = FrameWriter::new();
    let frame = encode_event(&mut w, ev, &mut RngCache::new()).to_vec();
    assert_eq!(reencode_event(&frame), frame, "event frame must survive a round trip");
}

/// An rng stream advanced by `draws` draws, as a worker would return it.
fn advanced_stream(seed: u64, draws: usize) -> RngStream {
    let mut s = RngStream::fresh(seed);
    for _ in 0..draws {
        let _: f64 = s.rng_mut().gen();
    }
    s
}

fn policy(seed: u64, hidden: &[usize]) -> ActorCritic {
    ActorCritic::new(3, &Space::Discrete(4), hidden, &mut StdRng::seed_from_u64(seed))
}

fn segment(rows: usize, continuous: bool, episodes: usize) -> Segment {
    let mut rollout = rl_algos::buffer::RolloutBuffer::with_capacity(rows);
    let mut rng = StdRng::seed_from_u64(rows as u64 + 1);
    for i in 0..rows {
        let obs: Vec<f64> = (0..3).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        let action = if continuous {
            gymrs::Action::Continuous(vec![rng.gen(), -rng.gen::<f64>()])
        } else {
            gymrs::Action::Discrete(rng.gen_range(0..4))
        };
        let value = rng.gen::<f64>();
        rollout.push(obs, action, rng.gen(), i % 7 == 0, i % 5 == 0, value, value * 0.5, -1.3);
    }
    Segment {
        rollout,
        env_work: rows as u64 * 3,
        episodes: (0..episodes).map(|e| (e as f64 - 0.5, e + 1)).collect(),
        infer_flops: 123_456,
    }
}

#[test]
fn every_command_variant_round_trips() {
    for (round, steps, seed, draws) in
        [(0u64, 0usize, 0u64, 0usize), (1, 1, u64::MAX, 1), (u64::MAX - 1, 1 << 20, 42, 257)]
    {
        assert_command_round_trips(&mut Command::Collect {
            round,
            steps,
            rng: advanced_stream(seed, draws),
        });
    }
    for hidden in [vec![], vec![8], vec![16, 16]] {
        assert_command_round_trips(&mut Command::UpdateWeights {
            round: 7,
            policy: Box::new(policy(3, &hidden)),
        });
    }
    assert_command_round_trips(&mut Command::Shutdown);
}

#[test]
fn every_event_variant_round_trips() {
    // Adversarial payload sizes: empty, one row, varint length boundaries.
    for rows in [0usize, 1, 127, 128, 300] {
        for continuous in [false, true] {
            assert_event_round_trips(&mut Event::SegmentReady {
                worker: rows,
                node: 1,
                round: rows as u64,
                segment: Box::new(segment(rows, continuous, rows.min(9))),
                rng: advanced_stream(rows as u64, rows % 13),
            });
        }
    }
    assert_event_round_trips(&mut Event::Heartbeat { worker: 0, round: u64::MAX - 1 });
    for reason in ["", "worker process exited", "ünïcode ☂ pänic"] {
        for fatal in [false, true] {
            assert_event_round_trips(&mut Event::WorkerFailed {
                worker: 5,
                round: WILDCARD_ROUND,
                reason: reason.to_string(),
                fatal,
            });
        }
    }
}

#[test]
fn f64_bit_patterns_survive_the_wire() {
    // NaN payloads, signed zero and infinities must come back bit-equal
    // (rewards/values are raw f64 bit patterns on the wire).
    let specials = [f64::NAN, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE];
    let mut rollout = rl_algos::buffer::RolloutBuffer::with_capacity(specials.len());
    for &v in &specials {
        rollout.push(vec![v; 3], gymrs::Action::Discrete(0), v, false, false, v, v, v);
    }
    let mut ev = Event::SegmentReady {
        worker: 0,
        node: 0,
        round: 3,
        segment: Box::new(Segment {
            rollout,
            env_work: 5,
            episodes: vec![(f64::NAN, 1)],
            infer_flops: 0,
        }),
        rng: RngStream::fresh(1),
    };
    assert_event_round_trips(&mut ev);
}

#[test]
fn frames_survive_byte_dribble() {
    // A reader fed one byte at a time (worst-case socket fragmentation)
    // must reassemble the exact frames in order.
    struct Dribble(Vec<u8>, usize);
    impl std::io::Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.1 >= self.0.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.0[self.1];
            self.1 += 1;
            Ok(1)
        }
    }
    let mut w = FrameWriter::new();
    let mut stream = Vec::new();
    stream.extend_from_slice(codec::encode_iam(&mut w, 3));
    let mut cmd = Command::Collect { round: 9, steps: 64, rng: advanced_stream(5, 11) };
    stream.extend_from_slice(encode_command(&mut w, &mut cmd, &mut RngCache::new()));
    let frames = stream.clone();

    let mut r = FrameReader::new();
    let mut src = Dribble(frames, 0);
    let (t1, body1) = r.next_frame(&mut src).expect("io").expect("first frame");
    assert_eq!(codec::decode_iam(body1).expect("iam"), 3);
    assert_eq!(t1, 0);
    let (t2, body2) = r.next_frame(&mut src).expect("io").expect("second frame");
    let mut again = decode_command(t2, body2, &mut RngCache::new()).expect("command");
    let mut w2 = FrameWriter::new();
    let reenc = encode_command(&mut w2, &mut again, &mut RngCache::new()).to_vec();
    let mut w3 = FrameWriter::new();
    let original = encode_command(
        &mut w3,
        &mut Command::Collect { round: 9, steps: 64, rng: advanced_stream(5, 11) },
        &mut RngCache::new(),
    )
    .to_vec();
    assert_eq!(reenc, original);
}

// Seeded sweeps over the same properties, past the cases above.
#[test]
fn collect_commands_round_trip_fuzzed() {
    testkit::sweep(256, 0xC0DEC, |g| {
        let (round, steps) = (g.u64(), g.int_in(0usize..1_000_000));
        let (seed, draws) = (g.u64(), g.int_in(0usize..512));
        let mut w = FrameWriter::new();
        let mut cmd = Command::Collect { round, steps, rng: advanced_stream(seed, draws) };
        let frame = encode_command(&mut w, &mut cmd, &mut RngCache::new()).to_vec();
        assert_eq!(reencode_command(&frame), frame);
    });
}

#[test]
fn worker_failed_round_trips_fuzzed() {
    testkit::sweep(256, 0xC0DEC, |g| {
        let (worker, round, fatal) = (g.int_in(0usize..1024), g.u64(), g.bool());
        // Any scalar values, surrogates mapped to U+FFFD, up to 32 of them.
        let scalar =
            |g: &mut testkit::Gen| char::from_u32(g.int_in(0u32..0x11_0000)).unwrap_or('\u{FFFD}');
        let reason: String = g.vec(0..33, scalar).into_iter().collect();
        let mut w = FrameWriter::new();
        let mut ev = Event::WorkerFailed { worker, round, reason, fatal };
        let frame = encode_event(&mut w, &mut ev, &mut RngCache::new()).to_vec();
        assert_eq!(reencode_event(&frame), frame);
    });
}

// ---- cross-transport determinism --------------------------------------

fn run_framework(framework: Framework, transport: Option<&str>) -> (Vec<u64>, u64) {
    let report =
        run(&ppo_spec(framework, transport), &EnvBlueprint::Grid { n: 3 }).expect("backend runs");
    (fingerprint(&report.train_returns, &report.usage), report.usage.wire_bytes)
}

/// The tentpole acceptance test: for every backend, a UDS process-worker
/// run reports the same bits as the in-process run, and real bytes
/// crossed the wire.
#[test]
fn uds_training_is_bitwise_identical_to_in_process() {
    for framework in Framework::ALL {
        let (inproc, inproc_wire) = run_framework(framework, None);
        let (uds, uds_wire) = run_framework(framework, Some("uds"));
        assert_eq!(
            inproc, uds,
            "{framework:?}: UDS workers must reproduce the in-process report bit for bit"
        );
        assert_eq!(inproc_wire, 0, "{framework:?}: in-process runs touch no socket");
        assert!(uds_wire > 0, "{framework:?}: process workers must move real bytes");
    }
}

#[test]
fn closure_factories_fall_back_to_in_process() {
    // A factory without a blueprint cannot cross a process boundary; the
    // runtime must warn and run in process rather than fail.
    use dist_exec::backend::FnEnvFactory;
    use gymrs::Environment;
    let factory = FnEnvFactory(|seed| {
        let mut e = gymrs::envs::GridWorld::new(3);
        e.seed(seed);
        Box::new(e) as Box<dyn Environment>
    });
    let spec = ppo_spec(Framework::StableBaselines, Some("uds"));
    let report = run(&spec, &factory).expect("falls back and runs");
    assert_eq!(report.usage.wire_bytes, 0, "fallback run must not report wire traffic");
    let (inproc, _) = run_framework(Framework::StableBaselines, None);
    // Same bits as any in-process run: the fallback is the default path.
    let fb = fingerprint(&report.train_returns, &report.usage);
    assert_eq!(fb, inproc);
}

// ---- fault ladder over the process transport --------------------------
//
// A crashed child process must surface as a fatal `WorkerFailed` and walk
// the same retry → respawn → quarantine ladder as an in-process worker.

fn crash_spec(crashes: u32) -> ExecSpec {
    let mut spec = ppo_spec(Framework::RayRllib, Some("uds"));
    spec.total_steps = 512;
    spec.fault = FaultPolicy::resilient();
    spec.fault_plan = FaultPlan::new().repeated(1, 1, FaultKind::Crash, crashes);
    spec
}

#[test]
fn crashed_child_is_respawned_and_the_study_completes() {
    let report = run(&crash_spec(1), &EnvBlueprint::Grid { n: 3 })
        .expect("one crash is absorbed by a respawn");
    assert!(!report.degraded, "a single crash must not quarantine the worker");
    assert!(report.usage.wire_bytes > 0, "the study ran on the process transport");
}

#[test]
fn repeated_child_crashes_exhaust_the_ladder_into_quarantine() {
    // More crashes at (worker 1, round 1) than the policy has
    // retries: every respawned child re-arms the remaining entries
    // from its Hello and dies again, until quarantine.
    let spec = crash_spec(FaultPolicy::resilient().max_retries + 1);
    let report =
        run(&spec, &EnvBlueprint::Grid { n: 3 }).expect("the degraded study must still complete");
    assert!(report.degraded, "exhausting the ladder must quarantine the worker");
}
