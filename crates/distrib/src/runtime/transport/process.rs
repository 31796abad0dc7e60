//! The multi-process transport: workers as spawned `rldt-worker` child
//! processes speaking the [`super::codec`] wire format over Unix domain
//! sockets.
//!
//! Topology: the driver binds one listener; every child connects to it
//! and self-identifies with an `Iam` frame, then receives a `Hello`
//! carrying its starting policy, its collector blueprint, and the
//! still-armed injected faults addressed to it (none unless the run
//! was given a `FaultPlan`).
//! After the handshake the wire speaks exactly the runtime's
//! `Command`/`Event` protocol.
//!
//! Batching: `send` appends frames to a per-child buffer; the buffers
//! hit the socket in one write per child when the driver blocks in
//! `recv_deadline` (flush-before-wait), so a whole dispatch window or
//! weight broadcast costs one syscall per child. The child mirrors
//! this: events are buffered and flushed once its command backlog is
//! drained.
//!
//! Death detection: one reader thread per child forwards decoded events
//! into an internal queue; on EOF it enqueues an end-of-stream marker
//! which `recv_deadline` turns into a fatal [`Event::WorkerFailed`]
//! with [`WILDCARD_ROUND`] (the child didn't say which round it was
//! on — the runtime substitutes the round it is driving). Items are
//! epoch-tagged so a respawned child's stream can't be confused with
//! its predecessor's.
//!
//! Cleanup: a child is a [`WorkerProc`] from the moment it is spawned,
//! and dropping one kills it, then waits for it. That drop is the one
//! cleanup path for a failed `connect`, a failed `respawn` and the
//! transport's own drop, which also unlinks the socket file.

use super::super::event::{Command, Event, WILDCARD_ROUND};
use super::super::fault::{FaultPlan, RuntimeError};
use super::super::worker::{Collector, Flow, WorkerState};
use super::codec::{self, FrameReader, FrameWriter, Hello};
use super::rng::RngCache;
use super::{SendError, Transport, TransportConfig, TransportStats};
use crate::keys;
use crate::runtime::transport::CollectorBlueprint;
use rl_algos::policy::ActorCritic;
use std::io::{self, Write};
use std::ops::Range;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child as ChildProc, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use telemetry::SharedRecorder;

/// How long the driver waits for a spawned child to connect and
/// identify itself before declaring the spawn failed.
pub(crate) const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

// ------------------------------------------------------------- children

/// A spawned `rldt-worker`. Dropping it kills the process and then waits
/// for it, so every way out of a spawn — a failed handshake, a failed
/// respawn, the transport's own drop — leaves no child running or
/// unreaped.
struct WorkerProc(ChildProc);

impl WorkerProc {
    /// Kill, then wait. Killing first matters: a child blocked writing
    /// events would otherwise never exit (the driver no longer reads its
    /// stream). Safe to repeat: a child already waited for is not
    /// signalled again.
    fn reap(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Poll the nonblocking `listener` until a connection arrives or
/// `deadline` passes. The sleep between polls starts at 50 µs, which
/// catches a child that connects a millisecond after spawn, and doubles up
/// to 5 ms; it never runs past the deadline.
fn accept_by(listener: &UnixListener, deadline: Instant) -> io::Result<UnixStream> {
    let mut pause = Duration::from_micros(50);
    loop {
        match listener.accept() {
            Ok((s, _)) => return Ok(s),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "worker process never connected",
                    ));
                }
                std::thread::sleep(pause.min(deadline - now));
                pause = (pause * 2).min(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
}

// --------------------------------------------------------- wire counters

#[derive(Default)]
struct WireCounters {
    frames_out: AtomicU64,
    frames_in: AtomicU64,
    bytes_out: AtomicU64,
    bytes_in: AtomicU64,
    flushes: AtomicU64,
}

// -------------------------------------------------------- reader threads

// `Event` is big for the reason given on it.
#[allow(clippy::large_enum_variant)]
enum ReaderItem {
    Event(Event),
    Eof,
}

fn reader_thread(
    worker: usize,
    epoch: u64,
    mut stream: UnixStream,
    mut reader: FrameReader,
    tx: mpsc::Sender<(usize, u64, ReaderItem)>,
    counters: Arc<WireCounters>,
) {
    let mut cache = RngCache::new();
    loop {
        match reader.next_frame(&mut stream) {
            Ok(Some((tag, body))) => {
                counters.frames_in.fetch_add(1, Ordering::Relaxed);
                counters.bytes_in.fetch_add(body.len() as u64 + 5, Ordering::Relaxed);
                match codec::decode_event(tag, body, &mut cache) {
                    Ok(ev) => {
                        if tx.send((worker, epoch, ReaderItem::Event(ev))).is_err() {
                            return; // driver gone
                        }
                    }
                    Err(_) => {
                        // Undecodable traffic: the stream is useless.
                        let _ = tx.send((worker, epoch, ReaderItem::Eof));
                        return;
                    }
                }
            }
            Ok(None) | Err(_) => {
                let _ = tx.send((worker, epoch, ReaderItem::Eof));
                return;
            }
        }
    }
}

// ------------------------------------------------------- the transport

struct ChildConn {
    proc: WorkerProc,
    stream: UnixStream,
    /// Frames queued for this child; hits the socket on `flush`.
    out: Vec<u8>,
    /// Bumped on respawn; reader items from older epochs are stale.
    epoch: u64,
    /// Cleared when the child's EOF has been surfaced (or it was
    /// reaped); a dead child rejects sends immediately.
    alive: bool,
}

pub(crate) struct ProcessTransport {
    children: Vec<ChildConn>,
    events: mpsc::Receiver<(usize, u64, ReaderItem)>,
    /// Kept so `recv` never sees a disconnect even with all readers gone.
    event_tx: mpsc::Sender<(usize, u64, ReaderItem)>,
    listener: UnixListener,
    /// The listener's socket file: passed to every child, unlinked on drop.
    socket_path: PathBuf,
    /// How long a spawned child has to connect and send its `Iam`.
    handshake: Duration,
    bin: PathBuf,
    blueprints: Vec<CollectorBlueprint>,
    nodes: Vec<usize>,
    writer: FrameWriter,
    /// Per-worker encode caches for outbound `Collect` RNG streams.
    cmd_caches: Vec<RngCache>,
    counters: Arc<WireCounters>,
    recorder: SharedRecorder,
    /// This runtime's armed fault plan: what each child's `Hello` arms.
    plan: Arc<FaultPlan>,
}

static SOCKET_ID: AtomicU64 = AtomicU64::new(0);

impl ProcessTransport {
    /// Bind the listener, spawn one child per blueprint, and complete
    /// the `Iam`/`Hello` handshake with each, giving every child
    /// `handshake` to connect. On failure the error is returned (the
    /// runtime falls back to the in-process transport) and the dropped
    /// transport has reaped every child and unlinked its socket.
    pub(crate) fn connect(
        bin: PathBuf,
        blueprints: Vec<CollectorBlueprint>,
        nodes: Vec<usize>,
        initial_policy: &ActorCritic,
        plan: Arc<FaultPlan>,
        handshake: Duration,
    ) -> io::Result<Self> {
        let socket_path = std::env::temp_dir().join(format!(
            "rldt-{}-{}.sock",
            std::process::id(),
            SOCKET_ID.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&socket_path);
        let listener = UnixListener::bind(&socket_path)?;
        let (event_tx, events) = mpsc::channel();
        let n = blueprints.len();
        let mut transport = Self {
            children: Vec::with_capacity(n),
            events,
            event_tx,
            listener,
            socket_path,
            handshake,
            bin,
            blueprints,
            nodes,
            writer: FrameWriter::new(),
            cmd_caches: (0..n).map(|_| RngCache::new()).collect(),
            counters: Arc::new(WireCounters::default()),
            recorder: telemetry::null_recorder(),
            plan,
        };
        transport.listener.set_nonblocking(true)?;
        transport.children = transport.launch(0..n, initial_policy, 0)?;
        Ok(transport)
    }

    /// Spawn a child for each of `workers`, accept their `Iam`s in
    /// whatever order they connect, and send each its `Hello` and start
    /// its reader at `epoch`. Each child is a [`WorkerProc`] from its
    /// spawn on, so an early return reaps every one spawned so far.
    fn launch(
        &mut self,
        workers: Range<usize>,
        policy: &ActorCritic,
        epoch: u64,
    ) -> io::Result<Vec<ChildConn>> {
        let procs = workers.clone().map(|w| self.spawn_child(w)).collect::<io::Result<Vec<_>>>()?;
        let mut conns: Vec<Option<(UnixStream, FrameReader)>> =
            workers.clone().map(|_| None).collect();
        let deadline = Instant::now() + self.handshake;
        for _ in workers.clone() {
            let (worker, stream, reader) = self.accept_iam(deadline)?;
            let slot = worker
                .checked_sub(workers.start)
                .and_then(|i| conns.get_mut(i))
                .filter(|slot| slot.is_none())
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad Iam worker index")
                })?;
            *slot = Some((stream, reader));
        }
        // Every slot is filled: each accepted `Iam` took a distinct one.
        let mut children = Vec::with_capacity(procs.len());
        for ((worker, proc), (mut stream, reader)) in
            workers.zip(procs).zip(conns.into_iter().flatten())
        {
            self.send_hello(&mut stream, worker, policy)?;
            let read_half = stream.try_clone()?;
            let tx = self.event_tx.clone();
            let counters = self.counters.clone();
            std::thread::Builder::new()
                .name(format!("rt-reader-{worker}"))
                .spawn(move || reader_thread(worker, epoch, read_half, reader, tx, counters))?;
            children.push(ChildConn {
                proc,
                stream,
                out: Vec::with_capacity(4096),
                epoch,
                alive: true,
            });
        }
        Ok(children)
    }

    fn spawn_child(&self, worker: usize) -> io::Result<WorkerProc> {
        std::process::Command::new(&self.bin)
            .arg("--worker")
            .arg(worker.to_string())
            .arg("--uds")
            .arg(&self.socket_path)
            .stdin(Stdio::null())
            .spawn()
            .map(WorkerProc)
    }

    /// Accept one connection and read its `Iam` frame, polling the
    /// nonblocking listener until `deadline`.
    fn accept_iam(&self, deadline: Instant) -> io::Result<(usize, UnixStream, FrameReader)> {
        let mut stream = accept_by(&self.listener, deadline)?;
        stream.set_nonblocking(false)?;
        let mut reader = FrameReader::new();
        let (tag, body) = reader
            .next_frame(&mut stream)?
            .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?;
        if tag != codec::tag::IAM {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "expected Iam frame"));
        }
        let worker = codec::decode_iam(body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.counters.frames_in.fetch_add(1, Ordering::Relaxed);
        self.counters.bytes_in.fetch_add(body.len() as u64 + 5, Ordering::Relaxed);
        Ok((worker, stream, reader))
    }

    fn send_hello(
        &mut self,
        stream: &mut UnixStream,
        worker: usize,
        policy: &ActorCritic,
    ) -> io::Result<()> {
        let mut hello = Hello {
            worker,
            node: self.nodes[worker],
            policy: policy.clone(),
            blueprint: self.blueprints[worker].clone(),
            faults: self.plan.to_wire(worker),
        };
        let frame = codec::encode_hello(&mut self.writer, &mut hello);
        self.counters.frames_out.fetch_add(1, Ordering::Relaxed);
        self.counters.bytes_out.fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.counters.flushes.fetch_add(1, Ordering::Relaxed);
        stream.write_all(frame)
    }
}

impl Transport for ProcessTransport {
    fn kind(&self) -> TransportConfig {
        TransportConfig::Uds
    }

    fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.recorder = recorder;
    }

    fn send(&mut self, worker: usize, mut cmd: Command) -> Result<(), SendError> {
        let child = &mut self.children[worker];
        if !child.alive {
            return Err(SendError);
        }
        let frame = codec::encode_command(&mut self.writer, &mut cmd, &mut self.cmd_caches[worker]);
        child.out.extend_from_slice(frame);
        self.counters.frames_out.fetch_add(1, Ordering::Relaxed);
        self.counters.bytes_out.fetch_add(frame.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn flush(&mut self) {
        let any = self.children.iter().any(|c| c.alive && !c.out.is_empty());
        if !any {
            return;
        }
        let recording = self.recorder.enabled();
        let span = recording.then(|| self.recorder.span_begin(keys::RT_WIRE_FLUSH));
        for child in &mut self.children {
            if child.out.is_empty() {
                continue;
            }
            if child.alive {
                // A failed write means the child died mid-round; drop
                // the bytes — its reader's EOF is already on the way.
                let _ = child.stream.write_all(&child.out);
                self.counters.flushes.fetch_add(1, Ordering::Relaxed);
            }
            child.out.clear();
        }
        if let Some(id) = span {
            self.recorder.span_end(id);
        }
    }

    fn recv_deadline(&mut self, deadline: Instant) -> Result<Option<Event>, RuntimeError> {
        self.flush();
        loop {
            let now = Instant::now();
            if deadline <= now {
                return Ok(None);
            }
            let (worker, epoch, item) = match self.events.recv_timeout(deadline - now) {
                Ok(it) => it,
                Err(mpsc::RecvTimeoutError::Timeout) => return Ok(None),
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(RuntimeError::Disconnected)
                }
            };
            if epoch != self.children[worker].epoch {
                continue; // a replaced child's leftovers
            }
            match item {
                ReaderItem::Event(ev) => {
                    // Mirror the child's fault-plan consumption: when an
                    // injected fault fires over there, disarm the same
                    // entry here so a respawn Hello doesn't re-ship it.
                    // (The channel transport must NOT do this — its plan
                    // is shared with the worker threads, which have
                    // already disarmed the entry themselves.)
                    if let Event::WorkerFailed { worker: w, round, .. } = &ev {
                        if *round != WILDCARD_ROUND {
                            self.plan.take(*w, *round);
                        }
                    }
                    return Ok(Some(ev));
                }
                ReaderItem::Eof => {
                    if !self.children[worker].alive {
                        continue; // already surfaced or reaped
                    }
                    self.children[worker].alive = false;
                    return Ok(Some(Event::WorkerFailed {
                        worker,
                        round: WILDCARD_ROUND,
                        reason: "worker process exited".into(),
                        fatal: true,
                    }));
                }
            }
        }
    }

    fn reap(&mut self, worker: usize) {
        let child = &mut self.children[worker];
        child.alive = false;
        child.out.clear();
        child.proc.reap();
    }

    fn respawn(
        &mut self,
        worker: usize,
        _maker: Option<&(dyn Fn() -> Collector + '_)>,
        policy: &ActorCritic,
    ) -> bool {
        self.reap(worker);
        let epoch = self.children[worker].epoch + 1;
        match self.launch(worker..worker + 1, policy, epoch).map(|mut fresh| fresh.pop()) {
            Ok(Some(child)) => {
                self.children[worker] = child;
                true
            }
            _ => false,
        }
    }

    fn shutdown(&mut self, skip: &[bool]) {
        for worker in 0..self.children.len() {
            if self.children[worker].alive {
                let _ = self.send(worker, Command::Shutdown);
            }
        }
        self.flush();
        for (worker, child) in self.children.iter_mut().enumerate() {
            if skip.get(worker).copied().unwrap_or(false) || !child.alive {
                // Hung (or already-dead) children don't get a graceful
                // wait — mirror the channel transport leaking hung
                // threads, minus the leak.
                child.proc.reap();
            } else {
                let _ = child.proc.0.wait();
            }
            child.alive = false;
        }
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            frames_out: self.counters.frames_out.load(Ordering::Relaxed),
            frames_in: self.counters.frames_in.load(Ordering::Relaxed),
            bytes_out: self.counters.bytes_out.load(Ordering::Relaxed),
            bytes_in: self.counters.bytes_in.load(Ordering::Relaxed),
            flushes: self.counters.flushes.load(Ordering::Relaxed),
        }
    }
}

impl Drop for ProcessTransport {
    /// Unlink the socket file; the children, as [`WorkerProc`]s, reap
    /// themselves when the fields drop.
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.socket_path);
    }
}

// ------------------------------------------------------------ child side

/// Entry point for the `rldt-worker` binary: connect back to the
/// driver, handshake, then serve commands until the stream closes.
///
/// Expected argv (after the program name): `--worker <index> --uds <path>`.
pub fn run_worker_process<I: IntoIterator<Item = String>>(args: I) -> Result<(), String> {
    let mut worker: Option<usize> = None;
    let mut uds: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut grab = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--worker" => worker = Some(grab()?.parse().map_err(|e| format!("--worker: {e}"))?),
            "--uds" => uds = Some(PathBuf::from(grab()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let worker = worker.ok_or("missing --worker")?;
    let path = uds.ok_or("missing --uds")?;
    let mut stream = UnixStream::connect(&path).map_err(|e| format!("connect {path:?}: {e}"))?;

    let mut writer = FrameWriter::new();
    stream
        .write_all(codec::encode_iam(&mut writer, worker))
        .map_err(|e| format!("send Iam: {e}"))?;

    let mut reader = FrameReader::new();
    let (tag, body) = reader
        .next_frame(&mut stream)
        .map_err(|e| format!("read Hello: {e}"))?
        .ok_or("driver closed before Hello")?;
    if tag != codec::tag::HELLO {
        return Err(format!("expected Hello, got tag {tag}"));
    }
    let hello = codec::decode_hello(body).map_err(|e| format!("decode Hello: {e}"))?;
    if hello.worker != worker {
        return Err(format!("Hello addressed to worker {}, I am {worker}", hello.worker));
    }

    let plan = Arc::new(FaultPlan::from_wire(&hello.faults));
    let collector = hello.blueprint.build();
    let mut state = WorkerState::new(worker, hello.node, collector, hello.policy, plan);

    let mut cmd_cache = RngCache::new();
    let mut ev_cache = RngCache::new();
    let mut out: Vec<u8> = Vec::with_capacity(64 * 1024);
    loop {
        let frame = reader.next_frame(&mut stream).map_err(|e| format!("read command: {e}"))?;
        let Some((tag, body)) = frame else {
            return Ok(()); // driver closed the stream: clean exit
        };
        let cmd = codec::decode_command(tag, body, &mut cmd_cache)
            .map_err(|e| format!("decode command: {e}"))?;
        let flow = state.handle(cmd, &mut |mut ev| {
            out.extend_from_slice(codec::encode_event(&mut writer, &mut ev, &mut ev_cache));
            true
        });
        match flow {
            Flow::Continue => {
                // Coalesce: only hit the socket once the command backlog
                // is drained, so a burst of commands answers in one write.
                if !out.is_empty() && !reader.has_buffered() {
                    stream.write_all(&out).map_err(|e| format!("send events: {e}"))?;
                    out.clear();
                }
            }
            Flow::Exit => {
                if !out.is_empty() {
                    let _ = stream.write_all(&out);
                }
                return Ok(());
            }
            Flow::Died { round, reason } => {
                // Injected crash: announce fatally (with the real round,
                // so the driver's recovery ladder attributes it), flush,
                // and die the way a crashed process dies.
                let mut ev = Event::WorkerFailed { worker, round, reason, fatal: true };
                out.extend_from_slice(codec::encode_event(&mut writer, &mut ev, &mut ev_cache));
                let _ = stream.write_all(&out);
                std::process::exit(3);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::EnvBlueprint;
    use gymrs::Space;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::os::unix::fs::PermissionsExt;
    use std::path::Path;

    /// A directory of this test process's own under the temp dir,
    /// removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(name: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("rldt-{}-{name}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("scratch dir");
            Self(dir)
        }

        /// A stand-in worker binary: a shell script that appends its pid
        /// and the socket path it was given to `<script>.log`, then exits
        /// without connecting.
        fn silent_worker(&self) -> PathBuf {
            let bin = self.0.join("worker");
            std::fs::write(&bin, "#!/bin/sh\necho \"$$ $4\" >> \"$0.log\"\n").expect("script");
            std::fs::set_permissions(&bin, std::fs::Permissions::from_mode(0o755))
                .expect("executable script");
            bin
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// `(pid, socket path)` of every stand-in started from `bin` so far.
    fn started(bin: &Path) -> Vec<(u32, PathBuf)> {
        let log = std::fs::read_to_string(bin.with_extension("log")).unwrap_or_default();
        log.lines()
            .filter_map(|line| line.split_once(' '))
            .map(|(pid, path)| (pid.parse().expect("a pid"), PathBuf::from(path)))
            .collect()
    }

    /// Whether `pid` is still in the process table: running, or exited
    /// and never waited for. (Reads procfs; where there is none it reads
    /// false.)
    fn unreaped(pid: u32) -> bool {
        Path::new(&format!("/proc/{pid}")).exists()
    }

    fn policy() -> ActorCritic {
        ActorCritic::new(2, &Space::Discrete(4), &[8], &mut StdRng::seed_from_u64(5))
    }

    fn blueprints(n: u64) -> Vec<CollectorBlueprint> {
        (0..n).map(|w| CollectorBlueprint::per_env(EnvBlueprint::Grid { n: 3 }, w)).collect()
    }

    #[test]
    fn accept_times_out_at_its_deadline_not_a_backoff_step_later() {
        let scratch = Scratch::new("accept");
        let listener = UnixListener::bind(scratch.0.join("listener.sock")).expect("bind");
        listener.set_nonblocking(true).expect("nonblocking listener");
        // 21 ms lies between two 5 ms steps of a sleep that ignored the
        // deadline. The least lateness of three tries discounts a
        // preempted wake-up.
        let late = (0..3)
            .map(|_| {
                let deadline = Instant::now() + Duration::from_millis(21);
                let err = accept_by(&listener, deadline).expect_err("no client ever connects");
                assert_eq!(err.kind(), io::ErrorKind::TimedOut);
                let now = Instant::now();
                assert!(now >= deadline, "timed out early");
                now - deadline
            })
            .min()
            .expect("three tries");
        assert!(late < Duration::from_micros(2_500), "timed out {late:?} after the deadline");
    }

    #[test]
    fn a_failed_connect_reaps_every_child_and_unlinks_its_socket() {
        let scratch = Scratch::new("connect");
        let bin = scratch.silent_worker();
        let handshake = Duration::from_secs(1);
        let err = ProcessTransport::connect(
            bin.clone(),
            blueprints(2),
            vec![0, 0],
            &policy(),
            Arc::default(),
            handshake,
        )
        .err()
        .expect("no child ever connects");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        let started = started(&bin);
        assert_eq!(started.len(), 2, "both stand-ins ran within the handshake: {started:?}");
        for (pid, socket) in started {
            assert!(!unreaped(pid), "child {pid} was left unreaped");
            assert!(!socket.exists(), "{socket:?} was left behind");
        }
    }

    #[test]
    fn a_failed_respawn_reaps_the_child_it_spawned() {
        let scratch = Scratch::new("respawn");
        let bin = scratch.silent_worker();
        // The test plays worker 0's side of the first handshake; the
        // stand-in only tells it where the socket is.
        let peer = {
            let bin = bin.clone();
            std::thread::spawn(move || {
                let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
                let socket = loop {
                    if let Some((_, socket)) = started(&bin).pop() {
                        break socket;
                    }
                    assert!(Instant::now() < deadline, "the stand-in never ran");
                    std::thread::sleep(Duration::from_millis(1));
                };
                let mut stream = UnixStream::connect(socket).expect("connect as worker 0");
                stream.write_all(codec::encode_iam(&mut FrameWriter::new(), 0)).expect("Iam");
                stream
            })
        };
        let policy = policy();
        let mut transport = ProcessTransport::connect(
            bin.clone(),
            blueprints(1),
            vec![0],
            &policy,
            Arc::default(),
            HANDSHAKE_TIMEOUT,
        )
        .expect("the test answered worker 0's handshake");
        let _peer = peer.join().expect("peer thread");
        transport.handshake = Duration::from_secs(1);
        assert!(!transport.respawn(0, None, &policy), "the respawned stand-in never connects");
        let started = started(&bin);
        assert_eq!(started.len(), 2, "connect and respawn each ran a stand-in: {started:?}");
        for &(pid, _) in &started {
            assert!(!unreaped(pid), "child {pid} was left unreaped");
        }
        drop(transport);
        assert!(!started[0].1.exists(), "the socket file was left behind");
    }
}
