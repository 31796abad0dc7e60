//! The multi-process transport: workers as spawned `rldt-worker` child
//! processes speaking the [`super::codec`] wire format over Unix domain
//! sockets (or TCP).
//!
//! Topology: the driver binds one listener; every child connects to it
//! and self-identifies with an `Iam` frame, then receives a `Hello`
//! carrying its starting policy, its collector blueprint, and (under
//! `fault-inject`) the still-armed injected faults addressed to it.
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

use super::super::event::{Command, Event, WILDCARD_ROUND};
use super::super::fault::RuntimeError;
use super::super::worker::{Collector, Flow, WorkerCtx, WorkerState};
use super::codec::{self, FrameReader, FrameWriter, Hello};
use super::rng::RngCache;
use super::{SendError, Transport, TransportConfig, TransportKind, TransportStats};
use crate::keys;
use crate::runtime::transport::CollectorBlueprint;
use rl_algos::policy::ActorCritic;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child as ChildProc, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use telemetry::SharedRecorder;

/// How long the driver waits for a spawned child to connect and
/// identify itself before declaring the spawn failed.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

// ----------------------------------------------------------- stream glue

/// A connected byte stream to one worker, UDS or TCP.
pub(crate) enum Stream {
    #[cfg(unix)]
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.set_nonblocking(nb),
            Stream::Tcp(s) => s.set_nonblocking(nb),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    #[cfg(unix)]
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
        }
    }

    /// Poll the nonblocking listener until a connection arrives or
    /// `deadline` passes. The sleep between polls starts at 50 µs, which
    /// catches a child that connects a millisecond after spawn, and doubles
    /// up to 5 ms; it never runs past the deadline.
    fn accept_by(&self, deadline: Instant) -> io::Result<Stream> {
        let mut pause = Duration::from_micros(50);
        loop {
            match self.accept() {
                Ok(s) => return Ok(s),
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
}

/// How children are told to reach the driver: `--uds <path>` or
/// `--tcp <addr>` argv pairs.
enum ConnectSpec {
    #[cfg(unix)]
    Uds(PathBuf),
    Tcp(String),
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
    mut stream: Stream,
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
    proc: ChildProc,
    stream: Stream,
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
    listener: Listener,
    connect_spec: ConnectSpec,
    /// Socket file to unlink on drop (UDS only).
    socket_path: Option<PathBuf>,
    bin: PathBuf,
    blueprints: Vec<CollectorBlueprint>,
    nodes: Vec<usize>,
    writer: FrameWriter,
    /// Per-worker encode caches for outbound `Collect` RNG streams.
    cmd_caches: Vec<RngCache>,
    counters: Arc<WireCounters>,
    recorder: SharedRecorder,
    kind: TransportKind,
    /// This runtime's hooks: what each child's `Hello` arms.
    ctx: WorkerCtx,
}

static SOCKET_ID: AtomicU64 = AtomicU64::new(0);

impl ProcessTransport {
    /// Bind the listener, spawn one child per blueprint, and complete
    /// the `Iam`/`Hello` handshake with each. Any failure tears down
    /// what was spawned and returns the error (the runtime falls back
    /// to the in-process transport).
    pub(crate) fn connect(
        config: &TransportConfig,
        bin: PathBuf,
        blueprints: Vec<CollectorBlueprint>,
        nodes: Vec<usize>,
        initial_policy: &ActorCritic,
        ctx: WorkerCtx,
    ) -> io::Result<Self> {
        let (listener, connect_spec, socket_path, kind) = match config {
            TransportConfig::Uds => {
                #[cfg(unix)]
                {
                    let path = std::env::temp_dir().join(format!(
                        "rldt-{}-{}.sock",
                        std::process::id(),
                        SOCKET_ID.fetch_add(1, Ordering::Relaxed)
                    ));
                    let _ = std::fs::remove_file(&path);
                    let l = UnixListener::bind(&path)?;
                    (
                        Listener::Unix(l),
                        ConnectSpec::Uds(path.clone()),
                        Some(path),
                        TransportKind::Uds,
                    )
                }
                #[cfg(not(unix))]
                {
                    return Err(io::Error::new(
                        io::ErrorKind::Unsupported,
                        "unix domain sockets unavailable on this platform",
                    ));
                }
            }
            TransportConfig::Tcp { addr } => {
                let l = TcpListener::bind(addr)?;
                let actual = l.local_addr()?;
                (Listener::Tcp(l), ConnectSpec::Tcp(actual.to_string()), None, TransportKind::Tcp)
            }
            TransportConfig::InProcess => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "in-process config has no process transport",
                ));
            }
        };
        listener.set_nonblocking(true)?;
        let (event_tx, events) = mpsc::channel();
        let n = blueprints.len();
        let mut transport = Self {
            children: Vec::with_capacity(n),
            events,
            event_tx,
            listener,
            connect_spec,
            socket_path,
            bin,
            blueprints,
            nodes,
            writer: FrameWriter::new(),
            cmd_caches: (0..n).map(|_| RngCache::new()).collect(),
            counters: Arc::new(WireCounters::default()),
            recorder: telemetry::null_recorder(),
            kind,
            ctx,
        };

        // Spawn everyone first, then collect the handshakes: children
        // may connect in any order, the Iam frame sorts them out.
        let mut procs: Vec<Option<ChildProc>> = Vec::with_capacity(n);
        for worker in 0..n {
            procs.push(Some(transport.spawn_child(worker)?));
        }
        let mut conns: Vec<Option<(Stream, FrameReader)>> = (0..n).map(|_| None).collect();
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        for _ in 0..n {
            let (worker, stream, reader) = match transport.accept_iam(deadline) {
                Ok(hs) => hs,
                Err(e) => {
                    for p in procs.iter_mut().flatten() {
                        let _ = p.kill();
                        let _ = p.wait();
                    }
                    return Err(e);
                }
            };
            if worker >= n || conns[worker].is_some() {
                for p in procs.iter_mut().flatten() {
                    let _ = p.kill();
                    let _ = p.wait();
                }
                return Err(io::Error::new(io::ErrorKind::InvalidData, "bad Iam worker index"));
            }
            conns[worker] = Some((stream, reader));
        }
        for (worker, conn) in conns.into_iter().enumerate() {
            let (mut stream, reader) = conn.expect("all workers handshook");
            transport.send_hello(&mut stream, worker, initial_policy)?;
            let read_half = stream.try_clone()?;
            let tx = transport.event_tx.clone();
            let counters = transport.counters.clone();
            std::thread::Builder::new()
                .name(format!("rt-reader-{worker}"))
                .spawn(move || reader_thread(worker, 0, read_half, reader, tx, counters))
                .expect("spawn transport reader");
            transport.children.push(ChildConn {
                proc: procs[worker].take().expect("spawned"),
                stream,
                out: Vec::with_capacity(4096),
                epoch: 0,
                alive: true,
            });
        }
        Ok(transport)
    }

    fn spawn_child(&self, worker: usize) -> io::Result<ChildProc> {
        let mut cmd = std::process::Command::new(&self.bin);
        cmd.arg("--worker").arg(worker.to_string());
        match &self.connect_spec {
            #[cfg(unix)]
            ConnectSpec::Uds(path) => cmd.arg("--uds").arg(path),
            ConnectSpec::Tcp(addr) => cmd.arg("--tcp").arg(addr),
        };
        cmd.stdin(Stdio::null()).spawn()
    }

    /// Accept one connection and read its `Iam` frame, polling the
    /// nonblocking listener until `deadline`.
    fn accept_iam(&self, deadline: Instant) -> io::Result<(usize, Stream, FrameReader)> {
        let mut stream = self.listener.accept_by(deadline)?;
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
        stream: &mut Stream,
        worker: usize,
        policy: &ActorCritic,
    ) -> io::Result<()> {
        let mut hello = Hello {
            worker,
            node: self.nodes[worker],
            policy: policy.clone(),
            blueprint: self.blueprints[worker].clone(),
            faults: self.ctx.hello_faults(worker),
        };
        let frame = codec::encode_hello(&mut self.writer, &mut hello);
        self.counters.frames_out.fetch_add(1, Ordering::Relaxed);
        self.counters.bytes_out.fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.counters.flushes.fetch_add(1, Ordering::Relaxed);
        stream.write_all(frame)
    }
}

impl Transport for ProcessTransport {
    fn kind(&self) -> TransportKind {
        self.kind
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
                            self.ctx.take(*w, *round);
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
        // Kill before waiting: a child blocked writing events would
        // otherwise never exit (the driver is not reading its stream
        // anymore). No-op if it already exited.
        let _ = child.proc.kill();
        let _ = child.proc.wait();
    }

    fn respawn(
        &mut self,
        worker: usize,
        _maker: Option<&(dyn Fn() -> Collector + '_)>,
        policy: &ActorCritic,
    ) -> bool {
        self.reap(worker);
        let Ok(proc) = self.spawn_child(worker) else {
            return false;
        };
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        let (iam_worker, mut stream, reader) = match self.accept_iam(deadline) {
            Ok(hs) => hs,
            Err(_) => return false,
        };
        if iam_worker != worker {
            return false;
        }
        if self.send_hello(&mut stream, worker, policy).is_err() {
            return false;
        }
        let Ok(read_half) = stream.try_clone() else {
            return false;
        };
        let epoch = self.children[worker].epoch + 1;
        let tx = self.event_tx.clone();
        let counters = self.counters.clone();
        if std::thread::Builder::new()
            .name(format!("rt-reader-{worker}"))
            .spawn(move || reader_thread(worker, epoch, read_half, reader, tx, counters))
            .is_err()
        {
            return false;
        }
        self.children[worker] =
            ChildConn { proc, stream, out: Vec::with_capacity(4096), epoch, alive: true };
        true
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
                let _ = child.proc.kill();
            }
            let _ = child.proc.wait();
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
    fn drop(&mut self) {
        for child in &mut self.children {
            if child.proc.try_wait().ok().flatten().is_none() {
                let _ = child.proc.kill();
                let _ = child.proc.wait();
            }
        }
        if let Some(path) = self.socket_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

// ------------------------------------------------------------ child side

/// Entry point for the `rldt-worker` binary: connect back to the
/// driver, handshake, then serve commands until the stream closes.
///
/// Expected argv (after the program name): `--worker <index>` plus one
/// of `--uds <path>` / `--tcp <addr>`.
pub fn run_worker_process<I: IntoIterator<Item = String>>(args: I) -> Result<(), String> {
    let mut worker: Option<usize> = None;
    let mut uds: Option<PathBuf> = None;
    let mut tcp: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut grab = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--worker" => worker = Some(grab()?.parse().map_err(|e| format!("--worker: {e}"))?),
            "--uds" => uds = Some(PathBuf::from(grab()?)),
            "--tcp" => tcp = Some(grab()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let worker = worker.ok_or("missing --worker")?;
    let mut stream = match (uds, tcp) {
        #[cfg(unix)]
        (Some(path), None) => {
            Stream::Unix(UnixStream::connect(&path).map_err(|e| format!("connect {path:?}: {e}"))?)
        }
        (None, Some(addr)) => {
            let s = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
            let _ = s.set_nodelay(true);
            Stream::Tcp(s)
        }
        _ => return Err("exactly one of --uds / --tcp is required".into()),
    };

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

    let ctx = WorkerCtx::from_hello(&hello.faults);
    let collector = hello.blueprint.build();
    let mut state = WorkerState::new(worker, hello.node, collector, hello.policy, ctx);

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

    #[test]
    fn accept_times_out_at_its_deadline_not_a_backoff_step_later() {
        let listener = Listener::Tcp(TcpListener::bind("127.0.0.1:0").expect("bind loopback"));
        listener.set_nonblocking(true).expect("nonblocking listener");
        // 21 ms lies between two 5 ms steps of a sleep that ignored the
        // deadline. The least lateness of three tries discounts a
        // preempted wake-up.
        let late = (0..3)
            .map(|_| {
                let deadline = Instant::now() + Duration::from_millis(21);
                let err = listener.accept_by(deadline).err().expect("no client ever connects");
                assert_eq!(err.kind(), io::ErrorKind::TimedOut);
                let now = Instant::now();
                assert!(now >= deadline, "timed out early");
                now - deadline
            })
            .min()
            .expect("three tries");
        assert!(late < Duration::from_micros(2_500), "timed out {late:?} after the deadline");
    }
}
