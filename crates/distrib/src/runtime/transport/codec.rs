//! Dependency-free binary codec for the driver⇄worker wire protocol.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! ┌────────────┬─────────┬──────────────────────────────┐
//! │ len: u32   │ tag: u8 │ body (len - 1 bytes)         │
//! └────────────┴─────────┴──────────────────────────────┘
//! ```
//!
//! `len` counts the tag byte plus the body. Inside a body: unsigned
//! integers are LEB128 varints, `f64`s are their raw bit patterns (8
//! bytes, LE) so decode is bit-exact, bools are one byte, strings and
//! byte arrays are varint-length-prefixed. RNG state crosses the wire as
//! a `(seed, draws)` pair (see [`super::rng`]) and is materialized
//! through an [`RngCache`] on the receiving side.
//!
//! Encoding reuses a caller-held scratch buffer ([`FrameWriter`]) and
//! decoding parses in place from the reader's buffer ([`FrameReader`]),
//! so the framing layer allocates nothing per frame once warm.

use super::rng::{RngCache, RngStream};
use crate::runtime::event::{Command, Event};
use crate::runtime::transport::blueprint::CollectorBlueprint;
use gymrs::{Action, Space};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_algos::buffer::RolloutBuffer;
use rl_algos::policy::{ActorCritic, PolicyHead};
use std::fmt;
use std::io::{self, Read};

use crate::backends::common::Segment;

/// Frame type tags. Commands (driver → worker) are low, events
/// (worker → driver) start at 16.
pub mod tag {
    /// Worker self-identification, first frame on a fresh connection.
    pub(crate) const IAM: u8 = 0;
    /// Driver → worker bootstrap: policy, collector blueprint, faults.
    pub(crate) const HELLO: u8 = 1;
    pub(crate) const COLLECT: u8 = 2;
    pub(crate) const UPDATE_WEIGHTS: u8 = 3;
    pub(crate) const SHUTDOWN: u8 = 4;
    pub(crate) const SEGMENT_READY: u8 = 16;
    pub(crate) const HEARTBEAT: u8 = 17;
    pub(crate) const WORKER_FAILED: u8 = 18;
}

/// Upper bound on a single frame; guards against a corrupt length prefix
/// committing us to a multi-gigabyte read.
const MAX_FRAME: u32 = 1 << 28;

/// Decode failure. Carries enough context to identify the bad frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Body ended before the field being read.
    Truncated,
    /// Unknown frame tag.
    BadTag(u8),
    /// Varint ran past 10 bytes.
    VarintOverflow,
    /// String field was not UTF-8.
    BadUtf8,
    /// Structurally valid but semantically impossible (e.g. unknown
    /// enum discriminant inside a body).
    BadValue(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame body truncated"),
            CodecError::BadTag(t) => write!(f, "unknown frame tag {t}"),
            CodecError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            CodecError::BadUtf8 => write!(f, "string field is not utf-8"),
            CodecError::BadValue(what) => write!(f, "invalid {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------- primitives

pub(super) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn put_f64s(buf: &mut Vec<u8>, vs: &[f64]) {
    put_varint(buf, vs.len() as u64);
    for &v in vs {
        put_f64(buf, v);
    }
}

/// In-place cursor over a frame body.
pub(super) struct Body<'a> {
    buf: &'a [u8],
}

impl<'a> Body<'a> {
    pub(super) fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// The end of a frame: a body with bytes left over is malformed.
    fn end(&self) -> Result<(), CodecError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CodecError::BadValue("trailing bytes"))
        }
    }

    /// Capacity to reserve for `n` elements of at least `min_bytes` wire
    /// bytes each: `n` whenever the body can hold them, and never more
    /// than the bytes left — a corrupt count cannot reserve memory the
    /// frame does not back.
    pub(super) fn capacity(&self, n: usize, min_bytes: usize) -> usize {
        n.min(self.buf.len() / min_bytes)
    }

    pub(super) fn u8(&mut self) -> Result<u8, CodecError> {
        let (&b, rest) = self.buf.split_first().ok_or(CodecError::Truncated)?;
        self.buf = rest;
        Ok(b)
    }

    pub(super) fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        for shift in 0..10 {
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7f) << (7 * shift);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::VarintOverflow)
    }

    pub(super) fn len(&mut self) -> Result<usize, CodecError> {
        #[cfg(test)]
        tests::LEN_READS.with(|at| at.borrow_mut().push(self.buf.as_ptr() as usize));
        let v = self.varint()?;
        usize::try_from(v).map_err(|_| CodecError::BadValue("length"))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        let raw = self.take(8)?;
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(raw);
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    pub(super) fn bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.u8()? != 0)
    }

    fn str(&mut self) -> Result<&'a str, CodecError> {
        let n = self.len()?;
        std::str::from_utf8(self.take(n)?).map_err(|_| CodecError::BadUtf8)
    }

    fn f64s(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(self.capacity(n, 8));
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }
}

// ------------------------------------------------------------------- framing

/// Reusable encode scratch. `begin` stamps the tag and a length
/// placeholder; `finish` patches the length and hands back the complete
/// frame. The buffer's capacity is retained across frames.
pub struct FrameWriter {
    scratch: Vec<u8>,
}

impl Default for FrameWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameWriter {
    pub fn new() -> Self {
        Self { scratch: Vec::with_capacity(256) }
    }

    fn begin(&mut self, tag: u8) -> &mut Vec<u8> {
        self.scratch.clear();
        self.scratch.extend_from_slice(&[0, 0, 0, 0, tag]);
        &mut self.scratch
    }

    fn finish(&mut self) -> &[u8] {
        let len = (self.scratch.len() - 4) as u32;
        assert!(len <= MAX_FRAME, "frame exceeds MAX_FRAME");
        self.scratch[..4].copy_from_slice(&len.to_le_bytes());
        &self.scratch
    }
}

/// Incremental frame reader over a byte stream. Keeps an internal buffer
/// so short reads and coalesced frames both work; `has_buffered` reports
/// whether at least one byte of a further frame is already in memory
/// (the child uses this to decide when to flush its event batch).
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameReader {
    pub fn new() -> Self {
        Self { buf: vec![0; 64 * 1024], start: 0, end: 0 }
    }

    /// True when bytes beyond the last returned frame are already
    /// buffered — i.e. another frame is (at least partially) queued.
    pub(crate) fn has_buffered(&self) -> bool {
        self.end > self.start
    }

    fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Ensure `n` contiguous buffered bytes, reading from `r` as needed.
    /// Returns `Ok(false)` on EOF before the first byte of the request
    /// (clean close at a frame boundary is only clean when `n` is the
    /// start of a frame — the caller distinguishes).
    fn fill(&mut self, r: &mut impl Read, n: usize) -> io::Result<bool> {
        if self.buffered() >= n {
            return Ok(true);
        }
        // Compact or grow so the request fits contiguously.
        if self.start + n > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if n > self.buf.len() {
                self.buf.resize(n, 0);
            }
        }
        while self.buffered() < n {
            let got = r.read(&mut self.buf[self.end..])?;
            if got == 0 {
                return Ok(false);
            }
            self.end += got;
        }
        Ok(true)
    }

    /// Read the next complete frame, blocking as needed. Returns
    /// `Ok(None)` on a clean EOF at a frame boundary; a mid-frame EOF is
    /// an `UnexpectedEof` error.
    pub fn next_frame(&mut self, r: &mut impl Read) -> io::Result<Option<(u8, &[u8])>> {
        let at_boundary = self.buffered() == 0;
        if !self.fill(r, 4)? {
            return if at_boundary && self.buffered() == 0 {
                Ok(None)
            } else {
                Err(io::ErrorKind::UnexpectedEof.into())
            };
        }
        let mut len4 = [0u8; 4];
        len4.copy_from_slice(&self.buf[self.start..self.start + 4]);
        let len = u32::from_le_bytes(len4);
        if len == 0 || len > MAX_FRAME {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad frame length"));
        }
        let total = 4 + len as usize;
        if !self.fill(r, total)? {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let frame_start = self.start;
        self.start += total;
        let tag = self.buf[frame_start + 4];
        let body = &self.buf[frame_start + 5..frame_start + total];
        Ok(Some((tag, body)))
    }
}

// ------------------------------------------------------------ policy payload

fn put_policy_arch(buf: &mut Vec<u8>, policy: &ActorCritic) {
    let sizes = policy.actor.sizes();
    put_varint(buf, sizes[0] as u64); // obs_dim
    match policy.head() {
        PolicyHead::Categorical { n } => {
            buf.push(0);
            put_varint(buf, n as u64);
        }
        PolicyHead::Gaussian { dim } => {
            buf.push(1);
            put_varint(buf, dim as u64);
        }
    }
    let hidden = &sizes[1..sizes.len() - 1];
    put_varint(buf, hidden.len() as u64);
    for &h in hidden {
        put_varint(buf, h as u64);
    }
}

fn read_policy_arch(b: &mut Body<'_>) -> Result<ActorCritic, CodecError> {
    let obs_dim = b.len()?;
    let head_tag = b.u8()?;
    let head_n = b.len()?;
    if head_tag > 1 {
        return Err(CodecError::BadValue("policy head"));
    }
    let n_hidden = b.len()?;
    let mut hidden = Vec::with_capacity(b.capacity(n_hidden, 1));
    for _ in 0..n_hidden {
        hidden.push(b.len()?);
    }
    // Every size above came off the wire. The parameters follow the
    // architecture, 8 bytes each, so a shape the rest of the body cannot
    // hold is refused before anything is allocated for it.
    let log_std = if head_tag == 1 { head_n } else { 0 };
    let param_bytes = || {
        let actor = mlp_params(obs_dim, &hidden, head_n)?;
        let critic = mlp_params(obs_dim, &hidden, 1)?;
        actor.checked_add(critic)?.checked_add(log_std)?.checked_mul(8)
    };
    if param_bytes().is_none_or(|bytes| bytes > b.buf.len()) {
        return Err(CodecError::BadValue("policy shape"));
    }
    let space =
        if head_tag == 0 { Space::Discrete(head_n) } else { Space::symmetric_box(head_n, 1.0) };
    // Architecture only — every parameter is overwritten by the caller,
    // so the constructor seed is irrelevant.
    Ok(ActorCritic::new(obs_dim, &space, &hidden, &mut StdRng::seed_from_u64(0)))
}

/// Weights plus biases of an MLP `obs_dim → hidden… → out`; `None` when
/// the count overflows.
fn mlp_params(obs_dim: usize, hidden: &[usize], out: usize) -> Option<usize> {
    let sizes = || std::iter::once(obs_dim).chain(hidden.iter().copied()).chain([out]);
    sizes().zip(sizes().skip(1)).try_fold(0usize, |sum, (fan_in, fan_out)| {
        sum.checked_add(fan_in.checked_mul(fan_out)?.checked_add(fan_out)?)
    })
}

fn put_mlp_params(buf: &mut Vec<u8>, mlp: &mut tinynn::Mlp) {
    mlp.visit_params(|p, _| {
        for &v in p.iter() {
            put_f64(buf, v);
        }
    });
}

fn read_mlp_params(b: &mut Body<'_>, mlp: &mut tinynn::Mlp) -> Result<(), CodecError> {
    let raw = b.take(mlp.param_count() * 8)?;
    let mut off = 0;
    mlp.visit_params(|p, _| {
        for v in p.iter_mut() {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&raw[off..off + 8]);
            *v = f64::from_bits(u64::from_le_bytes(bytes));
            off += 8;
        }
    });
    Ok(())
}

/// Weight payload mirroring `ActorCritic::copy_params_from`: actor and
/// critic parameters plus `log_std`, gradients excluded.
fn put_policy_params(buf: &mut Vec<u8>, policy: &mut ActorCritic) {
    put_mlp_params(buf, &mut policy.actor);
    put_mlp_params(buf, &mut policy.critic);
    put_f64s(buf, &policy.log_std);
}

fn read_policy_params(b: &mut Body<'_>, policy: &mut ActorCritic) -> Result<(), CodecError> {
    read_mlp_params(b, &mut policy.actor)?;
    read_mlp_params(b, &mut policy.critic)?;
    let log_std = b.f64s()?;
    if log_std.len() != policy.log_std.len() {
        return Err(CodecError::BadValue("policy shape"));
    }
    policy.log_std = log_std;
    Ok(())
}

// --------------------------------------------------------------------- hello

/// Bootstrap payload for a freshly spawned worker process: identity,
/// starting policy, how to rebuild its environments, and any still-armed
/// injected faults addressed to it.
pub(crate) struct Hello {
    pub(crate) worker: usize,
    pub(crate) node: usize,
    pub(crate) policy: ActorCritic,
    pub(crate) blueprint: CollectorBlueprint,
    /// `(worker, round, kind, millis)` tuples; kind is the wire tag used
    /// by [`encode_hello`]. Empty unless the run was given a fault plan.
    pub(crate) faults: Vec<(usize, u64, u8, u64)>,
}

/// Fault kind wire tags inside a Hello body.
pub(crate) mod fault_tag {
    pub(crate) const PANIC: u8 = 0;
    pub(crate) const CRASH: u8 = 1;
    pub(crate) const HANG: u8 = 2;
    pub(crate) const SLOW: u8 = 3;
}

pub fn encode_iam(w: &mut FrameWriter, worker: usize) -> &[u8] {
    let buf = w.begin(tag::IAM);
    put_varint(buf, worker as u64);
    w.finish()
}

pub fn decode_iam(body: &[u8]) -> Result<usize, CodecError> {
    let mut b = Body::new(body);
    let worker = b.len()?;
    b.end()?;
    Ok(worker)
}

pub(crate) fn encode_hello<'w>(w: &'w mut FrameWriter, hello: &mut Hello) -> &'w [u8] {
    let buf = w.begin(tag::HELLO);
    put_varint(buf, hello.worker as u64);
    put_varint(buf, hello.node as u64);
    put_policy_arch(buf, &hello.policy);
    // Full state, grads included, so the child starts bit-identical.
    let log_std_grad = hello.policy.log_std_grad.clone();
    put_policy_params(buf, &mut hello.policy);
    put_f64s(buf, &log_std_grad);
    hello.blueprint.encode(buf);
    put_varint(buf, hello.faults.len() as u64);
    for &(worker, round, kind, millis) in &hello.faults {
        put_varint(buf, worker as u64);
        put_varint(buf, round);
        buf.push(kind);
        put_varint(buf, millis);
    }
    w.finish()
}

pub(crate) fn decode_hello(body: &[u8]) -> Result<Hello, CodecError> {
    let mut b = Body::new(body);
    let worker = b.len()?;
    let node = b.len()?;
    let mut policy = read_policy_arch(&mut b)?;
    read_policy_params(&mut b, &mut policy)?;
    policy.log_std_grad = b.f64s()?;
    let blueprint = CollectorBlueprint::decode(&mut b)?;
    let n_faults = b.len()?;
    // worker, round and millis varints plus the kind byte: 4 bytes at least.
    let mut faults = Vec::with_capacity(b.capacity(n_faults, 4));
    for _ in 0..n_faults {
        let fw = b.len()?;
        let round = b.varint()?;
        let kind = b.u8()?;
        let millis = b.varint()?;
        faults.push((fw, round, kind, millis));
    }
    b.end()?;
    Ok(Hello { worker, node, policy, blueprint, faults })
}

// ------------------------------------------------------------------ commands

/// Encode a driver command. Takes `&mut` because encoding a `Collect`
/// syncs its RNG stream (a draw-count measurement, not a state change)
/// and weight payloads visit parameters through `&mut` accessors.
pub fn encode_command<'w>(
    w: &'w mut FrameWriter,
    cmd: &mut Command,
    cache: &mut RngCache,
) -> &'w [u8] {
    match cmd {
        Command::Collect { round, steps, rng } => {
            let (seed, draws) = rng.sync();
            cache.adopt(rng);
            let buf = w.begin(tag::COLLECT);
            put_varint(buf, *round);
            put_varint(buf, *steps as u64);
            put_varint(buf, seed);
            put_varint(buf, draws);
        }
        Command::UpdateWeights { round, policy } => {
            let buf = w.begin(tag::UPDATE_WEIGHTS);
            put_varint(buf, *round);
            put_policy_arch(buf, policy);
            put_policy_params(buf, policy);
        }
        Command::Shutdown => {
            w.begin(tag::SHUTDOWN);
        }
    }
    w.finish()
}

pub fn decode_command(
    frame_tag: u8,
    body: &[u8],
    cache: &mut RngCache,
) -> Result<Command, CodecError> {
    let mut b = Body::new(body);
    let cmd = match frame_tag {
        tag::COLLECT => {
            let round = b.varint()?;
            let steps = b.len()?;
            let seed = b.varint()?;
            let draws = b.varint()?;
            let rng = RngStream::restored(seed, draws, cache.materialize(seed, draws));
            Command::Collect { round, steps, rng }
        }
        tag::UPDATE_WEIGHTS => {
            let round = b.varint()?;
            let mut policy = read_policy_arch(&mut b)?;
            read_policy_params(&mut b, &mut policy)?;
            Command::UpdateWeights { round, policy: Box::new(policy) }
        }
        tag::SHUTDOWN => Command::Shutdown,
        other => return Err(CodecError::BadTag(other)),
    };
    b.end()?;
    Ok(cmd)
}

// -------------------------------------------------------------------- events

fn put_action(buf: &mut Vec<u8>, action: &Action) {
    match action {
        Action::Discrete(a) => {
            buf.push(0);
            put_varint(buf, *a as u64);
        }
        Action::Continuous(v) => {
            buf.push(1);
            put_f64s(buf, v);
        }
    }
}

fn read_action(b: &mut Body<'_>) -> Result<Action, CodecError> {
    match b.u8()? {
        0 => Ok(Action::Discrete(b.len()?)),
        1 => Ok(Action::Continuous(b.f64s()?)),
        _ => Err(CodecError::BadValue("action")),
    }
}

fn put_rollout(buf: &mut Vec<u8>, r: &RolloutBuffer) {
    let n = r.rewards.len();
    put_varint(buf, n as u64);
    for row in &r.obs {
        put_f64s(buf, row);
    }
    for a in &r.actions {
        put_action(buf, a);
    }
    for &v in &r.rewards {
        put_f64(buf, v);
    }
    for &t in &r.terminateds {
        put_bool(buf, t);
    }
    for &d in &r.dones {
        put_bool(buf, d);
    }
    for &v in &r.values {
        put_f64(buf, v);
    }
    for &v in &r.next_values {
        put_f64(buf, v);
    }
    for &v in &r.log_probs {
        put_f64(buf, v);
    }
}

fn read_rollout(b: &mut Body<'_>) -> Result<RolloutBuffer, CodecError> {
    let n = b.len()?;
    // A step is 37 bytes at least: an observation length, a tag and a
    // varint for the action, four f64s and two flags.
    let mut r = RolloutBuffer::with_capacity(b.capacity(n, 37));
    for _ in 0..n {
        r.obs.push(b.f64s()?);
    }
    for _ in 0..n {
        r.actions.push(read_action(b)?);
    }
    for _ in 0..n {
        r.rewards.push(b.f64()?);
    }
    for _ in 0..n {
        r.terminateds.push(b.bool()?);
    }
    for _ in 0..n {
        r.dones.push(b.bool()?);
    }
    for _ in 0..n {
        r.values.push(b.f64()?);
    }
    for _ in 0..n {
        r.next_values.push(b.f64()?);
    }
    for _ in 0..n {
        r.log_probs.push(b.f64()?);
    }
    Ok(r)
}

/// Encode a worker event. `&mut` for the same reason as
/// [`encode_command`]: `SegmentReady` syncs its RNG stream.
pub fn encode_event<'w>(w: &'w mut FrameWriter, ev: &mut Event, cache: &mut RngCache) -> &'w [u8] {
    match ev {
        Event::SegmentReady { worker, node, round, segment, rng } => {
            let (seed, draws) = rng.sync();
            cache.adopt(rng);
            let buf = w.begin(tag::SEGMENT_READY);
            put_varint(buf, *worker as u64);
            put_varint(buf, *node as u64);
            put_varint(buf, *round);
            put_varint(buf, seed);
            put_varint(buf, draws);
            put_rollout(buf, &segment.rollout);
            put_varint(buf, segment.env_work);
            put_varint(buf, segment.episodes.len() as u64);
            for &(ret, len) in &segment.episodes {
                put_f64(buf, ret);
                put_varint(buf, len as u64);
            }
            put_varint(buf, segment.infer_flops);
        }
        Event::Heartbeat { worker, round } => {
            let buf = w.begin(tag::HEARTBEAT);
            put_varint(buf, *worker as u64);
            put_varint(buf, *round);
        }
        Event::WorkerFailed { worker, round, reason, fatal } => {
            let buf = w.begin(tag::WORKER_FAILED);
            put_varint(buf, *worker as u64);
            put_varint(buf, *round);
            put_str(buf, reason);
            put_bool(buf, *fatal);
        }
    }
    w.finish()
}

pub fn decode_event(frame_tag: u8, body: &[u8], cache: &mut RngCache) -> Result<Event, CodecError> {
    let mut b = Body::new(body);
    let ev = match frame_tag {
        tag::SEGMENT_READY => {
            let worker = b.len()?;
            let node = b.len()?;
            let round = b.varint()?;
            let seed = b.varint()?;
            let draws = b.varint()?;
            let rng = RngStream::restored(seed, draws, cache.materialize(seed, draws));
            let rollout = read_rollout(&mut b)?;
            let env_work = b.varint()?;
            let n_eps = b.len()?;
            let mut episodes = Vec::with_capacity(b.capacity(n_eps, 9));
            for _ in 0..n_eps {
                let ret = b.f64()?;
                let len = b.len()?;
                episodes.push((ret, len));
            }
            let infer_flops = b.varint()?;
            let segment = Box::new(Segment { rollout, env_work, episodes, infer_flops });
            Event::SegmentReady { worker, node, round, segment, rng }
        }
        tag::HEARTBEAT => {
            let worker = b.len()?;
            let round = b.varint()?;
            Event::Heartbeat { worker, round }
        }
        tag::WORKER_FAILED => {
            let worker = b.len()?;
            let round = b.varint()?;
            let reason = b.str()?.to_owned();
            let fatal = b.bool()?;
            Event::WorkerFailed { worker, round, reason, fatal }
        }
        other => return Err(CodecError::BadTag(other)),
    };
    b.end()?;
    Ok(ev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::event::WILDCARD_ROUND;
    use crate::runtime::transport::blueprint::EnvBlueprint;
    use rand::Rng;
    use std::cell::RefCell;
    use testkit::Gen;

    thread_local! {
        /// Where each [`Body::len`] read on this thread started, as an
        /// address: the length positions the mutation sweep splices into.
        pub(super) static LEN_READS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every actor and critic parameter, then `log_std`, as raw bits.
    fn policy_bits(policy: &mut ActorCritic) -> Vec<u64> {
        let mut out = Vec::new();
        for mlp in [&mut policy.actor, &mut policy.critic] {
            mlp.visit_params(|p, _| out.extend(bits(p)));
        }
        out.extend(bits(&policy.log_std));
        out
    }

    fn round_trip_event(ev: &mut Event) -> Event {
        let mut w = FrameWriter::new();
        let mut enc_cache = RngCache::new();
        let frame = encode_event(&mut w, ev, &mut enc_cache).to_vec();
        let mut r = FrameReader::new();
        let mut cursor = io::Cursor::new(frame);
        let (t, body) = r.next_frame(&mut cursor).unwrap().unwrap();
        decode_event(t, body, &mut RngCache::new()).unwrap()
    }

    fn round_trip_command(cmd: &mut Command) -> Command {
        let mut w = FrameWriter::new();
        let mut enc_cache = RngCache::new();
        let frame = encode_command(&mut w, cmd, &mut enc_cache).to_vec();
        let mut r = FrameReader::new();
        let mut cursor = io::Cursor::new(frame);
        let (t, body) = r.next_frame(&mut cursor).unwrap().unwrap();
        decode_command(t, body, &mut RngCache::new()).unwrap()
    }

    #[test]
    fn varint_round_trips_extremes() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            assert_eq!(Body::new(&buf).varint().unwrap(), v, "varint {v}");
        }
    }

    #[test]
    fn f64_bits_survive_exactly() {
        let mut buf = Vec::new();
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, f64::NAN, f64::INFINITY, -1e-300] {
            buf.clear();
            put_f64(&mut buf, v);
            let got = Body::new(&buf).f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn collect_round_trips_with_rng_stream() {
        let mut stream = RngStream::fresh(99);
        for _ in 0..37 {
            let _: f64 = stream.rng_mut().gen();
        }
        let mut cmd = Command::Collect { round: 12, steps: 4096, rng: stream };
        let decoded = round_trip_command(&mut cmd);
        match (decoded, cmd) {
            (
                Command::Collect { round, steps, rng: mut got },
                Command::Collect { rng: mut want, .. },
            ) => {
                assert_eq!(round, 12);
                assert_eq!(steps, 4096);
                for _ in 0..8 {
                    assert_eq!(got.rng_mut().gen::<u64>(), want.rng_mut().gen::<u64>());
                }
            }
            _ => panic!("variant changed in transit"),
        }
    }

    #[test]
    fn update_weights_round_trips_bit_exact() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut gaussian = ActorCritic::new(3, &Space::symmetric_box(2, 1.0), &[6, 5], &mut rng);
        gaussian.log_std = vec![-0.3, -1e-300];
        let categorical = ActorCritic::new(4, &Space::Discrete(3), &[7], &mut rng);
        for mut policy in [gaussian, categorical] {
            let want = policy_bits(&mut policy);
            let mut cmd = Command::UpdateWeights { round: 41, policy: Box::new(policy.clone()) };
            match round_trip_command(&mut cmd) {
                Command::UpdateWeights { round, policy: mut got } => {
                    assert_eq!(round, 41);
                    assert_eq!(got.head(), policy.head());
                    assert_eq!(got.actor.sizes(), policy.actor.sizes());
                    assert_eq!(got.critic.sizes(), policy.critic.sizes());
                    assert_eq!(policy_bits(&mut got), want);
                }
                _ => panic!("variant changed in transit"),
            }
        }
    }

    #[test]
    fn hello_round_trips() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut policy = ActorCritic::new(2, &Space::symmetric_box(3, 1.0), &[4], &mut rng);
        let grad = [0.5, -0.0, f64::MIN_POSITIVE];
        policy.log_std_grad = grad.to_vec();
        let want = policy_bits(&mut policy);
        let blueprint = CollectorBlueprint::lanes(EnvBlueprint::AirdropFast, vec![3, u64::MAX]);
        let faults = vec![(1, 4, fault_tag::HANG, 250), (1, u64::MAX, fault_tag::CRASH, 0)];
        let mut hello = Hello {
            worker: 1,
            node: 2,
            policy,
            blueprint: blueprint.clone(),
            faults: faults.clone(),
        };
        let frame = encode_hello(&mut FrameWriter::new(), &mut hello).to_vec();
        assert_eq!(frame[4], tag::HELLO);
        let mut got = decode_hello(&frame[5..]).expect("a valid Hello decodes");
        assert_eq!((got.worker, got.node), (1, 2));
        assert_eq!(policy_bits(&mut got.policy), want);
        assert_eq!(bits(&got.policy.log_std_grad), bits(&grad));
        assert_eq!(got.blueprint, blueprint);
        assert_eq!(got.faults, faults);
    }

    /// Decode `body` the way the receiver of a `frame_tag` frame does.
    fn decode(frame_tag: u8, body: &[u8]) -> Result<(), CodecError> {
        let cache = &mut RngCache::new();
        match frame_tag {
            tag::IAM => decode_iam(body).map(drop),
            tag::HELLO => decode_hello(body).map(drop),
            t if t < tag::SEGMENT_READY => decode_command(t, body, cache).map(drop),
            t => decode_event(t, body, cache).map(drop),
        }
    }

    /// One valid frame of every tag, shaped by `g`, as `(tag, body)`.
    /// Every varint up to and including a stream's draw count is below
    /// 128, so no single-bit flip asks the decoder to replay more than
    /// 2^14 draws.
    fn valid_frames(g: &mut Gen) -> Vec<(u8, Vec<u8>)> {
        let small = |g: &mut Gen| g.int_in(0..128u64);
        let mut rng = StdRng::seed_from_u64(g.u64());
        let space = if g.bool() {
            Space::Discrete(g.int_in(1..4))
        } else {
            Space::symmetric_box(g.int_in(1..3), 1.0)
        };
        let obs_dim = g.int_in(1..4);
        let hidden = g.vec(0..3, |g| g.int_in(1..6));
        let policy = ActorCritic::new(obs_dim, &space, &hidden, &mut rng);
        let mut stream = RngStream::fresh(small(g));
        for _ in 0..small(g) {
            let _: f64 = stream.rng_mut().gen();
        }
        let mut rollout = RolloutBuffer::with_capacity(0);
        for _ in 0..g.below(4) {
            let obs = g.f64s(obs_dim, -1.0..1.0);
            let (action, log_prob, value) = policy.act(&obs, &mut rng);
            let done = g.bool();
            rollout.push(obs, action, g.f64_in(-1.0..1.0), done, done, value, 0.5, log_prob);
        }
        let segment = Segment {
            rollout,
            env_work: g.u64(),
            episodes: g.vec(0..3, |g| (g.f64_in(-9.0..9.0), g.below(500))),
            infer_flops: g.u64(),
        };
        let blueprint = if g.bool() {
            CollectorBlueprint::per_env(EnvBlueprint::Grid { n: g.int_in(2..9) }, g.u64())
        } else {
            CollectorBlueprint::lanes(EnvBlueprint::PointMass, g.vec(1..4, Gen::u64))
        };
        let faults = g.vec(0..3, |g| (g.below(4), g.u64(), fault_tag::SLOW, small(g)));

        let (w, cache) = (&mut FrameWriter::new(), &mut RngCache::new());
        let mut frames = vec![encode_iam(w, g.below(1000)).to_vec()];
        let mut hello = Hello {
            worker: g.below(8),
            node: g.below(8),
            policy: policy.clone(),
            blueprint,
            faults,
        };
        frames.push(encode_hello(w, &mut hello).to_vec());
        let (round, steps) = (small(g), small(g) as usize);
        let collect = &mut Command::Collect { round, steps, rng: stream.clone() };
        frames.push(encode_command(w, collect, cache).to_vec());
        let update = &mut Command::UpdateWeights { round: g.u64(), policy: Box::new(policy) };
        frames.push(encode_command(w, update, cache).to_vec());
        frames.push(encode_command(w, &mut Command::Shutdown, cache).to_vec());
        let (worker, node) = (small(g) as usize, small(g) as usize);
        let segment = Box::new(segment);
        let ready = &mut Event::SegmentReady { worker, node, round, segment, rng: stream };
        frames.push(encode_event(w, ready, cache).to_vec());
        let beat = &mut Event::Heartbeat { worker: g.below(8), round: g.u64() };
        frames.push(encode_event(w, beat, cache).to_vec());
        let reason = format!("boom in round {}", g.u64());
        let failed = &mut Event::WorkerFailed { worker: 1, round, reason, fatal: g.bool() };
        frames.push(encode_event(w, failed, cache).to_vec());
        frames.into_iter().map(|f| (f[4], f[5..].to_vec())).collect()
    }

    #[test]
    fn malformed_frames_decode_to_an_error_never_a_panic() {
        // A value no allocation survives, one past every bound, and a
        // varint that never ends.
        let oversized: Vec<Vec<u8>> = [u64::MAX, 1 << 40]
            .map(|v| {
                let mut buf = Vec::new();
                put_varint(&mut buf, v);
                buf
            })
            .into_iter()
            .chain([[[0xff; 10].as_slice(), &[1]].concat()])
            .collect();
        testkit::sweep(8, 0xC0DEC, |g| {
            for (frame_tag, body) in valid_frames(g) {
                LEN_READS.with(|at| at.borrow_mut().clear());
                assert_eq!(decode(frame_tag, &body), Ok(()), "tag {frame_tag}: valid frame");
                let start = body.as_ptr() as usize;
                let lengths: Vec<usize> =
                    LEN_READS.with(|at| at.take()).into_iter().map(|a| a - start).collect();
                let trailing = [body.as_slice(), &[0]].concat();
                assert_eq!(
                    decode(frame_tag, &trailing),
                    Err(CodecError::BadValue("trailing bytes"))
                );
                for end in 0..body.len() {
                    assert!(
                        decode(frame_tag, &body[..end]).is_err(),
                        "tag {frame_tag}: cut at {end}"
                    );
                }
                for bit in 0..body.len() * 8 {
                    let mut flipped = body.clone();
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    let _ = decode(frame_tag, &flipped);
                }
                for &at in &lengths {
                    let mut rest = Body::new(&body[at..]);
                    rest.varint().expect("a length the valid frame read");
                    let after = body.len() - rest.buf.len();
                    for huge in &oversized {
                        let _ = decode(frame_tag, &[&body[..at], huge, &body[after..]].concat());
                    }
                }
            }
        });
    }

    #[test]
    fn a_policy_the_body_cannot_hold_is_refused_before_it_is_built() {
        // Round 0, obs_dim 2, a Gaussian head of 2^40 dims, no hidden
        // layers — ten bytes that once asked for 2^43 and aborted.
        let head = [2, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0];
        let update = [&[0], head.as_slice()].concat();
        assert_eq!(update.len(), 10);
        let shape = Err(CodecError::BadValue("policy shape"));
        assert_eq!(decode(tag::UPDATE_WEIGHTS, &update), shape);
        // A child's Hello reaches the same constructor: worker 0, node 0.
        assert_eq!(decode(tag::HELLO, &[&[0, 0], head.as_slice()].concat()), shape);
    }

    #[test]
    fn shutdown_is_a_five_byte_frame() {
        let mut w = FrameWriter::new();
        let frame = encode_command(&mut w, &mut Command::Shutdown, &mut RngCache::new());
        assert_eq!(frame.len(), 5);
        assert!(matches!(round_trip_command(&mut Command::Shutdown), Command::Shutdown));
    }

    #[test]
    fn worker_failed_round_trips_including_wildcard_round() {
        let mut ev = Event::WorkerFailed {
            worker: 3,
            round: WILDCARD_ROUND,
            reason: "naïve worker \u{1F4A5} died".into(),
            fatal: true,
        };
        match round_trip_event(&mut ev) {
            Event::WorkerFailed { worker, round, reason, fatal } => {
                assert_eq!(worker, 3);
                assert_eq!(round, WILDCARD_ROUND);
                assert_eq!(reason, "naïve worker \u{1F4A5} died");
                assert!(fatal);
            }
            _ => panic!("variant changed in transit"),
        }
    }

    #[test]
    fn heartbeat_round_trips() {
        match round_trip_event(&mut Event::Heartbeat { worker: 7, round: u64::MAX - 1 }) {
            Event::Heartbeat { worker, round } => {
                assert_eq!((worker, round), (7, u64::MAX - 1));
            }
            _ => panic!("variant changed in transit"),
        }
    }

    #[test]
    fn reader_handles_split_and_coalesced_frames() {
        // Two frames in one buffer, delivered one byte at a time.
        let mut w = FrameWriter::new();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(encode_iam(&mut w, 5));
        bytes.extend_from_slice(encode_event(
            &mut w,
            &mut Event::Heartbeat { worker: 5, round: 1 },
            &mut RngCache::new(),
        ));

        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() || out.is_empty() {
                    return Ok(0);
                }
                out[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }

        let mut src = OneByte(&bytes);
        let mut r = FrameReader::new();
        let (t, body) = r.next_frame(&mut src).unwrap().unwrap();
        assert_eq!(t, tag::IAM);
        assert_eq!(decode_iam(body).unwrap(), 5);
        let (t, _) = r.next_frame(&mut src).unwrap().unwrap();
        assert_eq!(t, tag::HEARTBEAT);
        assert!(r.next_frame(&mut src).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn reader_rejects_mid_frame_eof() {
        let mut w = FrameWriter::new();
        let frame = encode_iam(&mut w, 1).to_vec();
        let truncated = &frame[..frame.len() - 1];
        let mut cursor = io::Cursor::new(truncated.to_vec());
        let mut r = FrameReader::new();
        assert!(r.next_frame(&mut cursor).is_err());
    }

    #[test]
    fn unknown_tags_are_rejected() {
        match decode_command(99, &[], &mut RngCache::new()) {
            Err(e) => assert_eq!(e, CodecError::BadTag(99)),
            Ok(_) => panic!("tag 99 must be rejected"),
        }
        match decode_event(2, &[], &mut RngCache::new()) {
            Err(e) => assert_eq!(e, CodecError::BadTag(2)),
            Ok(_) => panic!("tag 2 is a command tag, not an event tag"),
        }
    }
}
