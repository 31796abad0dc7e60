//! The journal: a durable, append-only study WAL on disk.
//!
//! Long studies (18 trainings × up to 85 simulated minutes each in the
//! paper) must survive interruptions. The journal appends one
//! [`StudyEvent`] per line — the telemetry trace's event line, which
//! [`crate::wal`] writes and reads directly, bit for bit — so a restarted
//! study replays the log and continues from the last durable event.
//!
//! ## Crash tolerance
//!
//! Every append is a single `write_all` of `line + "\n"`, so a crash can
//! tear at most the final line, and a torn line never ends in a newline.
//! [`Journal::load`] therefore tolerates exactly one unparseable,
//! unterminated tail record (dropping it and reporting `torn_tail`);
//! corruption anywhere else — a malformed line *followed by* more data —
//! cannot be produced by a crash and is surfaced as
//! [`JournalError::Corrupt`] instead of being silently skipped.
//!
//! Before its first append, a writer repairs any torn tail by truncating
//! the file back to the last complete line; appending after a torn line
//! without truncating would glue new bytes onto the fragment and turn a
//! benign tear into mid-file corruption.
//!
//! One scan of the file serves both: the first writer opened after a
//! [`Journal::load`] repairs from that load's scan unless the file's
//! length has changed since, and scans afresh otherwise.

use crate::wal::StudyEvent;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// How hard [`Journal::append`] pushes each event toward the platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Accumulate lines in a process-local buffer; bytes reach the OS on
    /// [`Journal::flush`], when the buffer fills, or when a study session
    /// ends. Fastest; a crash can lose every buffered event.
    Buffered,
    /// One `write(2)` per event (the default): the event survives a
    /// process crash as soon as `append` returns, but not a power loss.
    #[default]
    Flush,
    /// `write(2)` + `fdatasync(2)` per event: survives power loss, at the
    /// cost of a disk round-trip per event.
    Sync,
}

/// Typed journal failure.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem error.
    Io(std::io::Error),
    /// A malformed record before the final line — not explicable as a
    /// torn append, so the log cannot be trusted.
    Corrupt {
        /// 1-based line number of the bad record.
        line: usize,
        /// Decoder message.
        message: String,
    },
    /// An event failed to encode or decode.
    Codec(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt { line, message } => {
                write!(f, "journal corrupt at line {line}: {message}")
            }
            JournalError::Codec(m) => write!(f, "journal codec error: {m}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// The result of loading a journal.
#[derive(Debug, Default)]
pub struct WalLoad {
    /// Every decodable event, in log order.
    pub events: Vec<StudyEvent>,
    /// True when a torn (crash-interrupted) final record was dropped.
    pub torn_tail: bool,
}

const BUFFER_HIGH_WATER: usize = 64 * 1024;

struct WalWriter {
    file: File,
    /// Pending lines under [`Durability::Buffered`].
    buf: Vec<u8>,
    /// The line being appended, cleared and reused by every append.
    line: String,
    /// Next event sequence number (= line index in the file).
    seq: u64,
}

/// What a writer needs from a scan of the file: its length then, the
/// bytes to keep (up to the last newline unless what follows decodes),
/// whether the kept bytes end in a record that lost its newline, and the
/// count of records kept (the next sequence number).
#[derive(Clone, Copy)]
struct Tail {
    len: u64,
    keep: u64,
    terminate: bool,
    seq: u64,
}

/// Append-only study WAL.
pub struct Journal {
    path: PathBuf,
    durability: Durability,
    writer: Mutex<Option<WalWriter>>,
    /// What the last [`Journal::load`] found, for the next writer opened.
    scanned: Mutex<Option<Tail>>,
}

impl Journal {
    /// Open (or create lazily, on first append) a journal at `path` with
    /// the default [`Durability::Flush`].
    pub fn new(path: impl Into<PathBuf>) -> Self {
        let (writer, scanned) = (Mutex::default(), Mutex::default());
        Self { path: path.into(), durability: Durability::default(), writer, scanned }
    }

    /// Set the append durability policy.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// The backing file path.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// The writer, poisoned or not: the journal outlives a panicking trial.
    fn writer(&self) -> MutexGuard<'_, Option<WalWriter>> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The last load's scan, poisoned or not, like [`Journal::writer`].
    fn scanned(&self) -> MutexGuard<'_, Option<Tail>> {
        self.scanned.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append one event; returns its sequence number. The line is written
    /// with a single `write_all` on an `O_APPEND` descriptor, so
    /// concurrent appends from parallel trial waves cannot interleave
    /// within a line. The first append repairs a torn tail left by a
    /// previous crash (see the module docs).
    pub fn append(&self, event: &StudyEvent) -> Result<u64, JournalError> {
        self.append_with(|seq, line| event.push_line(seq, line))
    }

    /// [`Self::append`] of the line `push` writes for sequence number
    /// `seq` (no trailing newline): a caller that holds an event's parts
    /// writes them without building the event.
    pub(crate) fn append_with(
        &self,
        push: impl FnOnce(u64, &mut String),
    ) -> Result<u64, JournalError> {
        let mut guard = self.writer();
        let writer = match guard.as_mut() {
            Some(w) => w,
            None => guard.insert(self.open_writer()?),
        };
        let seq = writer.seq;
        let line = &mut writer.line;
        line.clear();
        push(seq, line);
        line.push('\n');
        match self.durability {
            Durability::Buffered => {
                writer.buf.extend_from_slice(line.as_bytes());
                if writer.buf.len() >= BUFFER_HIGH_WATER {
                    let buf = std::mem::take(&mut writer.buf);
                    writer.file.write_all(&buf)?;
                }
            }
            Durability::Flush => writer.file.write_all(line.as_bytes())?,
            Durability::Sync => {
                writer.file.write_all(line.as_bytes())?;
                writer.file.sync_data()?;
            }
        }
        writer.seq = seq + 1;
        Ok(seq)
    }

    /// Push any buffered lines to the OS (meaningful under
    /// [`Durability::Buffered`]; a no-op otherwise).
    pub fn flush(&self) -> Result<(), JournalError> {
        if let Some(w) = self.writer().as_mut() {
            if !w.buf.is_empty() {
                let buf = std::mem::take(&mut w.buf);
                w.file.write_all(&buf)?;
            }
        }
        Ok(())
    }

    /// Open the file for appending and repair its tail: from the last
    /// load's scan when the file still has the length it was scanned at,
    /// otherwise from a fresh scan.
    fn open_writer(&self) -> Result<WalWriter, JournalError> {
        let mut file = OpenOptions::new().create(true).read(true).append(true).open(&self.path)?;
        let len = file.metadata()?.len();
        let tail = match self.scanned().take().filter(|t| t.len == len) {
            Some(tail) => tail,
            None => {
                let mut bytes = Vec::new();
                file.read_to_end(&mut bytes)?;
                scan(&bytes).1
            }
        };
        if tail.keep < len {
            file.set_len(tail.keep)?;
        }
        if tail.terminate {
            file.write_all(b"\n")?;
        }
        Ok(WalWriter { file, buf: Vec::new(), line: String::new(), seq: tail.seq })
    }

    /// Load and decode the full event log (empty when the file does not
    /// exist). Tolerates exactly one torn tail record; any earlier
    /// malformed line is a [`JournalError::Corrupt`] error. Reads only:
    /// the repair of a torn tail waits for the first append.
    pub fn load(&self) -> Result<WalLoad, JournalError> {
        if !self.path.exists() {
            return Ok(WalLoad::default());
        }
        let bytes = std::fs::read(&self.path)?;
        let (load, tail) = scan(&bytes);
        *self.scanned() = Some(tail);
        load
    }

    /// Delete the journal file if it exists (drops any open writer).
    pub fn clear(&self) -> Result<(), JournalError> {
        *self.writer() = None;
        *self.scanned() = None;
        if self.path.exists() {
            std::fs::remove_file(&self.path)?;
        }
        Ok(())
    }
}

/// Read a journal file once: decode its records, in order, and find the
/// tail a writer repairs. After a malformed record the load is
/// [`JournalError::Corrupt`], but later lines still count toward the
/// writer's sequence number.
fn scan(bytes: &[u8]) -> (Result<WalLoad, JournalError>, Tail) {
    let start = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |nl| nl + 1);
    let (body, rest) = bytes.split_at(start);
    let mut tail = Tail { len: bytes.len() as u64, keep: start as u64, terminate: false, seq: 0 };
    let mut load = Ok(WalLoad::default());
    for (i, line) in lines(body).enumerate().filter(|(_, l)| !l.trim_ascii().is_empty()) {
        tail.seq += 1;
        if let Ok(ok) = &mut load {
            match decode(line) {
                Ok(event) => ok.events.push(event),
                Err(message) => load = Err(JournalError::Corrupt { line: i + 1, message }),
            }
        }
    }
    // Past the last newline: nothing, a record that lost only its
    // newline, or a torn one.
    match lines(rest).next().filter(|l| !l.trim_ascii().is_empty()).map(decode) {
        Some(Ok(event)) => {
            if let Ok(ok) = &mut load {
                ok.events.push(event);
            }
            (tail.keep, tail.terminate, tail.seq) = (tail.len, true, tail.seq + 1);
        }
        Some(Err(_)) => load.iter_mut().for_each(|ok| ok.torn_tail = true),
        None => {}
    }
    (load, tail)
}

/// The lines of a journal file as bytes, split like [`str::lines`]: on
/// `\n`, a trailing `\r` dropped, no empty line after a final newline.
/// The file is never decoded as a whole, so a tear inside a multi-byte
/// character spoils only the record it cuts.
fn lines(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    bytes.split_inclusive(|&b| b == b'\n').map(|line| {
        let line = line.strip_suffix(b"\n").unwrap_or(line);
        line.strip_suffix(b"\r").unwrap_or(line)
    })
}

/// Decode one record: UTF-8 first, then the event codec.
fn decode(line: &[u8]) -> Result<StudyEvent, String> {
    let text = std::str::from_utf8(line).map_err(|e| format!("invalid UTF-8: {e}"))?;
    StudyEvent::from_line(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricValues;
    use crate::param::ParamValue;
    use crate::trial::Configuration;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("decision-journal-{name}-{}", std::process::id()));
        p
    }

    fn started(id: usize) -> StudyEvent {
        StudyEvent::TrialStarted {
            trial: id,
            config: Configuration::new().with("k", ParamValue::Int(id as i64)),
        }
    }

    fn completed(id: usize) -> StudyEvent {
        StudyEvent::TrialCompleted {
            trial: id,
            metrics: MetricValues::new().with("reward", -(id as f64) / 10.0),
        }
    }

    #[test]
    fn append_and_load_round_trip() {
        let j = Journal::new(tmp("roundtrip"));
        j.clear().unwrap();
        assert_eq!(j.append(&started(0)).unwrap(), 0);
        assert_eq!(j.append(&completed(0)).unwrap(), 1);
        let load = j.load().unwrap();
        assert_eq!(load.events.len(), 2);
        assert!(!load.torn_tail);
        assert_eq!(load.events[1], completed(0));
        j.clear().unwrap();
    }

    #[test]
    fn loading_missing_file_is_empty() {
        let j = Journal::new(tmp("missing"));
        j.clear().unwrap();
        let load = j.load().unwrap();
        assert!(load.events.is_empty());
        assert!(!load.torn_tail);
    }

    #[test]
    fn torn_tail_is_tolerated_and_repaired_on_append() {
        let path = tmp("torn");
        let j = Journal::new(&path);
        j.clear().unwrap();
        j.append(&started(0)).unwrap();
        j.append(&completed(0)).unwrap();
        drop(j);
        // Simulate a crash mid-append: a partial line with no newline.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"ty\":\"event\",\"key\":\"trial.st").unwrap();
        }
        let j = Journal::new(&path);
        let load = j.load().unwrap();
        assert_eq!(load.events.len(), 2, "torn tail must be dropped, not fatal");
        assert!(load.torn_tail);
        // Appending truncates the fragment first; the log is clean again
        // and sequence numbers continue from the surviving records.
        let seq = j.append(&started(1)).unwrap();
        assert_eq!(seq, 2);
        let load = j.load().unwrap();
        assert_eq!(load.events.len(), 3);
        assert!(!load.torn_tail);
        j.clear().unwrap();
    }

    #[test]
    fn a_writer_after_a_load_appends_like_one_without() {
        // A torn journal and one whose last record lost its newline, each
        // appended to with and without a load first: the writer after a
        // load repairs from that load's scan.
        let (loaded, fresh) = (tmp("scan-loaded"), tmp("scan-fresh"));
        Journal::new(&loaded).append(&started(0)).unwrap();
        let good = std::fs::read(&loaded).unwrap();
        let torn = [&good[..], b"{\"ty\":\"event\",\"key\":\"trial.st"].concat();
        for bytes in [torn, good[..good.len() - 1].to_vec()] {
            std::fs::write(&loaded, &bytes).unwrap();
            std::fs::write(&fresh, &bytes).unwrap();
            let (j, k) = (Journal::new(&loaded), Journal::new(&fresh));
            j.load().unwrap();
            assert_eq!(j.append(&completed(0)).unwrap(), k.append(&completed(0)).unwrap());
            assert_eq!(std::fs::read(&loaded).unwrap(), std::fs::read(&fresh).unwrap());
        }
        // A file that grew after the load is scanned again.
        let j = Journal::new(&loaded);
        j.load().unwrap();
        Journal::new(&loaded).append(&started(1)).unwrap();
        assert_eq!(j.append(&completed(1)).unwrap(), 3);
        j.clear().unwrap();
        Journal::new(&fresh).clear().unwrap();
    }

    #[test]
    fn unterminated_but_complete_tail_is_kept() {
        let path = tmp("noeol");
        let j = Journal::new(&path);
        j.clear().unwrap();
        j.append(&started(0)).unwrap();
        drop(j);
        // Crash delivered the whole line but not its newline.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.trim_end_matches('\n')).unwrap();
        let j = Journal::new(&path);
        assert_eq!(j.load().unwrap().events.len(), 1);
        assert_eq!(j.append(&completed(0)).unwrap(), 1);
        let load = j.load().unwrap();
        assert_eq!(load.events.len(), 2);
        assert!(!load.torn_tail);
        j.clear().unwrap();
    }

    #[test]
    fn mid_file_corruption_is_an_error_not_a_skip() {
        let path = tmp("corrupt");
        let j = Journal::new(&path);
        j.clear().unwrap();
        j.append(&started(0)).unwrap();
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(f, "{{not json").unwrap();
        }
        j.append(&completed(0)).unwrap();
        match j.load() {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        j.clear().unwrap();
    }

    #[test]
    fn buffered_durability_defers_until_flush() {
        let path = tmp("buffered");
        let j = Journal::new(&path).with_durability(Durability::Buffered);
        j.clear().unwrap();
        j.append(&started(0)).unwrap();
        assert_eq!(
            std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
            0,
            "buffered events must not hit the file before flush"
        );
        j.flush().unwrap();
        assert_eq!(j.load().unwrap().events.len(), 1);
        j.clear().unwrap();
    }

    #[test]
    fn sync_durability_appends_like_flush() {
        let j = Journal::new(tmp("sync")).with_durability(Durability::Sync);
        j.clear().unwrap();
        j.append(&started(0)).unwrap();
        j.append(&completed(0)).unwrap();
        assert_eq!(j.load().unwrap().events.len(), 2);
        j.clear().unwrap();
    }

    #[test]
    fn clear_removes_the_file() {
        let path = tmp("clear");
        let j = Journal::new(&path);
        j.append(&started(0)).unwrap();
        assert!(path.exists());
        j.clear().unwrap();
        assert!(!path.exists());
        j.clear().unwrap(); // idempotent
    }

    #[test]
    fn truncated_and_bit_flipped_journals_load_or_report_corruption() {
        // A short real journal with a non-ASCII field in two records.
        let path = tmp("hostile");
        let j = Journal::new(&path);
        j.clear().unwrap();
        j.append(&started(0)).unwrap();
        j.append(&StudyEvent::TrialFailed {
            trial: 0,
            error: "single node only (paper §V-b)".into(),
            metrics: MetricValues::new(),
        })
        .unwrap();
        let config = Configuration::new().with("stage", ParamValue::Str("§VI-D".into()));
        j.append(&StudyEvent::TrialStarted { trial: 1, config }).unwrap();
        j.append(&completed(1)).unwrap();
        drop(j);
        let journal = std::fs::read(&path).unwrap();
        assert!(!journal.is_ascii());
        let load = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            let load = Journal::new(&path).load();
            if let Ok(load) = &load {
                let unterminated = !bytes.is_empty() && !bytes.ends_with(b"\n");
                assert!(!load.torn_tail || unterminated, "{:?}", String::from_utf8_lossy(bytes));
            }
            load
        };
        assert_eq!(load(&journal).unwrap().events.len(), 4);
        // Every prefix is a crash mid-append: a torn tail at worst.
        for end in 0..journal.len() {
            let complete = journal[..end].iter().filter(|&&b| b == b'\n').count();
            let events = load(&journal[..end]).unwrap().events.len();
            assert!(events == complete || events == complete + 1, "prefix {end}");
        }
        // Every flip of one of a byte's low seven bits: a load or a
        // `Corrupt`, never an I/O error.
        for i in 0..journal.len() {
            for bit in 0..7 {
                let mut bytes = journal.clone();
                bytes[i] ^= 1 << bit;
                match load(&bytes) {
                    Ok(_) | Err(JournalError::Corrupt { .. }) => {}
                    Err(e) => panic!("byte {i} bit {bit}: {e}"),
                }
            }
        }
        Journal::new(&path).clear().unwrap();
    }
}
