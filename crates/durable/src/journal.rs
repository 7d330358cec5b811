//! The journal: an append-only record stream, in a file or in memory,
//! plus the recovery pass that turns it back into "latest snapshot +
//! event suffix".
//!
//! A journal is created empty; its run's header goes out with the first
//! record ([`DurableRun::new`](crate::DurableRun::new)).
//!
//! A journal's bytes live in one place. One with a path
//! ([`Journal::create`], [`Journal::reopen`]) *is* its file: each record is
//! framed in a scratch buffer, written through, and forgotten, so the
//! process holds a byte count and not the stream, however long it runs.
//! One without ([`Journal::in_memory`], [`Journal::with_sink`]) keeps the
//! whole stream, which is what kill-point and corruption harnesses slice.
//! [`Journal::discarding`] is for a run that asked for no durability: it
//! frames and counts each record like the others and keeps none of them.
//!
//! Reading is the same rule: recovery streams a file one record at a time
//! through a fixed-size buffer and keeps only where the newest intact
//! snapshot starts and the events after it ([`JournalSource`]), never the
//! file and never a snapshot's text. Each record's CRC is checked as it
//! streams past. The snapshot is then parsed straight from its record,
//! read again and checked again as it is parsed: from a file through a
//! fixed window, from bytes in memory in place. A newest snapshot that
//! fails its check is the torn tail, and the pass simply keeps the one
//! before it. [`load`] returns a handle on the file, not its bytes;
//! [`Journal::reopen`] is that same pass, so a restarted daemon truncates
//! its torn tail and finds what to recover in one read of the file.
//!
//! Appends are write-ahead: the caller journals an event *before*
//! applying it, and file-backed journals flush every record, so after a
//! crash the journal is never behind the in-memory state — at worst it
//! is one torn record ahead, which recovery discards.
//!
//! Flushing hands records to the OS; it does not force them to stable
//! storage. Callers that need a bounded fsync lag opt in with
//! [`Journal::with_fsync_every_n`], which calls [`JournalSink::sync`]
//! every `n` appends and surfaces the error if the device refuses —
//! a failed sync is a lost-durability signal, never swallowed.

use crate::framing::{
    self, FramingError, Kind, PayloadReader, RecordHead, RecordReader, RecordTag,
};
use serde::Deserialize;
use std::borrow::Cow;
use std::cell::OnceCell;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::ops::Deref;
use std::path::{Path, PathBuf};

/// Destination of the file-backed half of a [`Journal`]: a writer that
/// can also force its bytes to stable storage. [`File`] is the real
/// implementation; tests substitute failing sinks to prove write and
/// fsync errors surface to the caller.
pub trait JournalSink: Write + Send {
    /// Forces previously written bytes to stable storage (fsync).
    fn sync(&mut self) -> io::Result<()>;
}

impl JournalSink for File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

/// Typed short-write diagnosis: the sink stopped accepting bytes
/// (`write` returned `Ok(0)`) partway through a record. Carried as the
/// payload of an [`io::ErrorKind::WriteZero`] error so callers can
/// recover the exact torn-record geometry instead of parsing a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShortWrite {
    /// Bytes of the record the sink accepted before refusing.
    pub written: usize,
    /// Full record length the append attempted.
    pub len: usize,
}

impl std::fmt::Display for ShortWrite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "short write: sink accepted {} of {} record bytes",
            self.written, self.len
        )
    }
}

impl std::error::Error for ShortWrite {}

impl ShortWrite {
    /// Extracts the typed diagnosis from an [`io::Error`], if that is
    /// what it carries.
    pub fn from_io(err: &io::Error) -> Option<&ShortWrite> {
        err.get_ref().and_then(|e| e.downcast_ref::<ShortWrite>())
    }
}

/// Drives `sink.write` to completion over `buf`: partial writes loop on
/// the remainder, `Interrupted` retries, and a sink that stops accepting
/// bytes (`Ok(0)`) surfaces as a typed [`ShortWrite`] — never the opaque
/// "failed to write whole buffer" of [`Write::write_all`]. On any error
/// the sink holds exactly a prefix of `buf` past what previous calls
/// acknowledged, which the recovery scan truncates cleanly.
fn write_full(sink: &mut dyn JournalSink, buf: &[u8]) -> io::Result<()> {
    let mut written = 0usize;
    while written < buf.len() {
        match sink.write(&buf[written..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    ShortWrite {
                        written,
                        len: buf.len(),
                    },
                ))
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A scratch buffer larger than this is released once its record is
/// written: command records reuse one allocation, and a snapshot-sized
/// buffer does not stay resident between snapshots.
const SCRATCH_KEEP: usize = 64 * 1024;

/// What a scratch buffer starts at, and restarts at after a release. A
/// buffer left to start empty takes the length of the first record framed
/// in it as its capacity, and a snapshot-sized record then doubles up from
/// that: which command a daemon happened to journal first after a snapshot
/// decided whether the next snapshot's buffer came out a few KB above or
/// below the last one's, and so whether the allocator mapped it or grew
/// the heap for it, and a life's resident memory fell in one of two modes
/// several MB apart. From a fixed start every buffer doubles through the
/// same sizes in every run.
const SCRATCH_START: usize = 4 * 1024;

/// The buffer a file is streamed through when it is read back.
const READ_BUF: usize = 64 * 1024;

/// An append-only snapshot + event journal. See the module docs for where
/// its bytes live.
pub struct Journal {
    /// The whole stream when `keep`; otherwise scratch space for the
    /// record being written.
    buf: Vec<u8>,
    /// Whether `buf` accumulates every record (no `path`, not
    /// discarding) or is reused from one record to the next.
    keep: bool,
    /// Bytes appended so far, header included.
    len: usize,
    /// The header [`begin`](Self::begin) named, until a record carries it.
    header: Option<Kind>,
    sink: Option<Box<dyn JournalSink>>,
    path: Option<PathBuf>,
    /// Sync the sink every this many appends (0 = never, the default:
    /// flush-only, matching pre-knob behavior).
    fsync_every_n: u64,
    appends_since_sync: u64,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("len", &self.len)
            .field("file_backed", &self.sink.is_some())
            .field("path", &self.path)
            .field("fsync_every_n", &self.fsync_every_n)
            .finish()
    }
}

impl Journal {
    /// A journal that lives only in memory.
    pub fn in_memory() -> Self {
        Journal {
            len: 0,
            header: None,
            buf: Vec::new(),
            keep: true,
            sink: None,
            path: None,
            fsync_every_n: 0,
            appends_since_sync: 0,
        }
    }

    /// A journal that keeps nothing: each record is framed in the scratch
    /// buffer, counted in [`len`](Self::len) and forgotten. For a run that
    /// asked for no durability, so that it does not hold a stream nothing
    /// will read; [`bytes`](Self::bytes) is empty and there is nothing to
    /// recover from.
    pub fn discarding() -> Self {
        Journal {
            buf: Vec::with_capacity(SCRATCH_START),
            keep: false,
            ..Journal::in_memory()
        }
    }

    /// A journal that is the open file at `path`, `len` bytes long with
    /// the write cursor at its end.
    fn on_file(file: File, path: PathBuf, len: usize) -> Self {
        Journal {
            len,
            sink: Some(Box::new(file)),
            path: Some(path),
            ..Journal::discarding()
        }
    }

    /// Creates (truncating) a file-backed journal at `path`, empty until
    /// a run writes its header.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(Journal::on_file(file, path, 0))
    }

    /// Reopens an existing journal file for appending: streams it to find
    /// where the intact records end, truncates any torn tail off the file,
    /// and positions the write cursor there, so [`len`](Self::len) is the
    /// valid prefix; a header with no record after it (a torn first write)
    /// is cut too, so a run can begin the journal again. The same pass is
    /// recovery's ([`JournalSource::recovered`]), and what it found is
    /// returned beside the journal: the newest intact snapshot and the
    /// events after it, or `None` when the valid prefix holds no snapshot.
    /// The pass holds one event record at a time and the events after the
    /// newest snapshot, never the file and never a snapshot.
    ///
    /// This is how a restarted service picks its write-ahead log back
    /// up after `kill -9`: [`DurableRun::resume`](crate::DurableRun::resume)
    /// recovers the state from what this pass found, then keeps appending
    /// to the same file.
    pub fn reopen(path: impl AsRef<Path>) -> io::Result<(Self, Option<Recovered>)> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let len = file_len(&file)?;
        let pass = scan(BufReader::with_capacity(READ_BUF, &file), len)?;
        let torn_first_write = pass.valid_len == framing::HEADER_LEN;
        let valid_len = if torn_first_write { 0 } else { pass.valid_len };
        file.set_len(valid_len as u64)?;
        file.seek(SeekFrom::End(0))?;
        Ok((Journal::on_file(file, path, valid_len), pass.recovered))
    }

    /// A journal writing through an arbitrary sink, which receives the
    /// whole stream, header included; the in-memory stream keeps a copy
    /// (tests: failing writers, the chaos harness's disk image).
    pub fn with_sink(sink: Box<dyn JournalSink>) -> Self {
        let mut j = Journal::in_memory();
        j.sink = Some(sink);
        j
    }

    /// Opts into bounded fsync lag: every `n` appends the sink is
    /// [`sync`](JournalSink::sync)ed and any error is returned from the
    /// triggering append. `n = 0` (the default) never syncs — flush-only,
    /// the pre-knob behavior.
    pub fn with_fsync_every_n(mut self, n: u64) -> Self {
        self.fsync_every_n = n;
        self
    }

    /// Names the kind of run this empty journal holds: its header goes out
    /// in the same write as the next record.
    pub(crate) fn begin(&mut self, kind: Kind) -> io::Result<()> {
        if self.len > 0 {
            let msg = format!(
                "a run begins an empty journal, not one of {} bytes",
                self.len
            );
            return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        }
        self.header = Some(kind);
        Ok(())
    }

    fn append(&mut self, tag: RecordTag, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        if !self.keep {
            self.buf.clear();
        }
        let start = self.buf.len();
        if let Some(kind) = self.header.take() {
            framing::write_header(&mut self.buf, kind);
        }
        framing::append_record_with(&mut self.buf, tag, fill);
        self.len += self.buf.len() - start;
        if let Some(sink) = self.sink.as_mut() {
            write_full(sink.as_mut(), &self.buf[start..])?;
            sink.flush()?;
            if self.fsync_every_n > 0 {
                self.appends_since_sync += 1;
                if self.appends_since_sync >= self.fsync_every_n {
                    sink.sync()?;
                    self.appends_since_sync = 0;
                }
            }
        }
        if !self.keep && self.buf.capacity() > SCRATCH_KEEP {
            self.buf = Vec::with_capacity(SCRATCH_START);
        }
        Ok(())
    }

    /// Appends a snapshot record (serialized replay state).
    pub fn append_snapshot(&mut self, payload: &[u8]) -> io::Result<()> {
        self.append_snapshot_with(|buf| buf.extend_from_slice(payload))
    }

    /// Appends a snapshot record whose payload is whatever `fill` appends
    /// to the buffer it is given: the state is serialized straight into
    /// the record, and is never held in a buffer of its own beside it.
    pub fn append_snapshot_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        self.append(RecordTag::Snapshot, fill)
    }

    /// Appends an event record (one sim event, pre-apply).
    pub fn append_event(&mut self, payload: &[u8]) -> io::Result<()> {
        self.append(RecordTag::Event, |buf| buf.extend_from_slice(payload))
    }

    /// Forces the sink to stable storage now, regardless of the
    /// `fsync_every_n` cadence (graceful-shutdown final snapshot).
    pub fn sync(&mut self) -> io::Result<()> {
        if let Some(sink) = self.sink.as_mut() {
            sink.sync()?;
            self.appends_since_sync = 0;
        }
        Ok(())
    }

    /// The full byte stream written so far (header included), for
    /// harnesses. Borrowed from an in-memory journal; a file-backed one
    /// reads its whole file back, so this costs the journal's length in
    /// I/O and memory for as long as the result is held. Empty for a
    /// [`discarding`](Self::discarding) journal, which kept none of it.
    ///
    /// # Panics
    ///
    /// If the file behind a file-backed journal cannot be read back.
    pub fn bytes(&self) -> Cow<'_, [u8]> {
        match &self.path {
            Some(path) => Cow::Owned(std::fs::read(path).unwrap_or_else(|e| {
                panic!("journal file {} cannot be read back: {e}", path.display())
            })),
            None if self.keep => Cow::Borrowed(&self.buf),
            None => Cow::Borrowed(&[]),
        }
    }

    /// Bytes appended so far — a kill point, for harnesses that truncate.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing has been written: no header, no record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing file's path, if file-backed.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }
}

/// Why recovery could not produce a runnable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverError {
    /// The bytes are not a journal of the version and kind the reader reads.
    Framing(FramingError),
    /// The valid prefix contains no intact snapshot record.
    NoSnapshot,
    /// The latest intact snapshot failed to deserialize, or is not a
    /// state the run can be restored from.
    BadSnapshot(String),
    /// An event payload after the snapshot is not an input of the run.
    BadEvent {
        /// Index of the offending event record after the snapshot.
        index: usize,
        /// Parse error detail.
        detail: String,
    },
    /// A journaled input cannot follow the state replay had reached — the
    /// journal belongs to a different run, or records were cut out of it.
    Divergence {
        /// Index of the offending event record after the snapshot.
        index: usize,
        /// Human-readable mismatch description.
        detail: String,
    },
    /// The journal file could not be read.
    Io {
        /// What the operating system reported.
        kind: io::ErrorKind,
        /// The error's message.
        detail: String,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Framing(e) => write!(f, "{e}"),
            RecoverError::NoSnapshot => write!(f, "journal holds no intact snapshot"),
            RecoverError::BadSnapshot(e) => write!(f, "latest snapshot cannot be restored: {e}"),
            RecoverError::BadEvent { index, detail } => {
                write!(
                    f,
                    "journal event {index} is not an input of this run: {detail}"
                )
            }
            RecoverError::Divergence { index, detail } => {
                write!(f, "journal event {index} diverges from replay: {detail}")
            }
            RecoverError::Io { detail, .. } => write!(f, "cannot read the journal: {detail}"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<FramingError> for RecoverError {
    fn from(e: FramingError) -> Self {
        RecoverError::Framing(e)
    }
}

/// A bad header read through a reader stays the typed [`Framing`]
/// error it is; anything else is the reader's [`Io`] error.
///
/// [`Framing`]: RecoverError::Framing
/// [`Io`]: RecoverError::Io
impl From<io::Error> for RecoverError {
    fn from(e: io::Error) -> Self {
        match FramingError::from_io(&e) {
            Some(framing) => RecoverError::Framing(framing.clone()),
            None => RecoverError::Io {
                kind: e.kind(),
                detail: e.to_string(),
            },
        }
    }
}

/// Where a scan found the newest intact snapshot record: where the record
/// starts and what its header says, which is enough to read it again and
/// check that it is still the record the scan checked. Its payload is not
/// kept.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotRecord {
    at: usize,
    head: RecordHead,
}

impl SnapshotRecord {
    /// Where the record starts in the journal.
    pub fn at(&self) -> usize {
        self.at
    }

    /// The error for a record that no longer checks out when it is read
    /// again: the journal changed after the scan.
    fn changed(&self) -> RecoverError {
        RecoverError::Io {
            kind: io::ErrorKind::InvalidData,
            detail: format!(
                "the snapshot record at byte {} no longer checks out: \
                 the journal changed while it was read",
                self.at
            ),
        }
    }
}

/// A record a scan found equals the payload it checked: the length and
/// the CRC its header carries. The scan keeps no payload, so this is how
/// the bytes a snapshot was expected to hold are held up against it.
impl<T: AsRef<[u8]> + ?Sized> PartialEq<T> for SnapshotRecord {
    fn eq(&self, payload: &T) -> bool {
        self.head.is_payload(payload.as_ref())
    }
}

/// The recoverable content of a journal: its kind, where its latest intact
/// snapshot is, and every intact event journaled after it, copied out of
/// the stream.
#[derive(Debug)]
pub struct Recovered {
    /// The kind of run the journal holds.
    pub kind: Kind,
    /// The latest intact snapshot record, which recovery parses from the
    /// journal ([`JournalSource::parse_snapshot`]).
    pub snapshot: SnapshotRecord,
    /// The event payloads after it, end to end.
    events: Vec<u8>,
    /// Where each event payload ends in `events`.
    event_ends: Vec<usize>,
    /// Event records before the chosen snapshot (already folded into it).
    pub events_superseded: usize,
    /// Torn/corrupt trailing bytes that were discarded.
    pub dropped_bytes: usize,
}

impl Recovered {
    /// Event payloads following the snapshot, in journal order.
    pub fn events(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        (0..self.event_ends.len()).map(|i| {
            let start = if i == 0 { 0 } else { self.event_ends[i - 1] };
            &self.events[start..self.event_ends[i]]
        })
    }
}

/// What one pass over a journal found.
struct Pass {
    /// Header plus the intact records.
    valid_len: usize,
    /// `None` when the valid prefix holds no snapshot.
    recovered: Option<Recovered>,
}

/// Reads the `len`-byte journal `reader` holds one record at a time and
/// finds the latest intact snapshot plus its event suffix. Every record's
/// CRC is checked as its bytes stream through the reader's buffer; the
/// pass keeps where the newest intact snapshot starts and the events after
/// it, and nothing of the records before. A snapshot record that fails its
/// check ends the valid prefix like any other, so a torn newest snapshot
/// leaves the one before it as the newest. Corruption in the tail only
/// shrinks the suffix; corruption *before* the latest snapshot is
/// irrelevant by construction (the pass stops there, so such a snapshot is
/// never chosen).
fn scan(reader: impl BufRead + Seek, len: usize) -> io::Result<Pass> {
    let mut records = RecordReader::new(reader, len)?;
    let mut snapshot = None;
    let mut events = Vec::new();
    let mut event_ends = Vec::new();
    let mut events_superseded = 0;
    loop {
        let at = records.valid_len();
        let head = records.next_record(|tag| (tag == RecordTag::Event).then_some(&mut events))?;
        match head {
            None => break,
            Some(head) if head.tag == RecordTag::Event => event_ends.push(events.len()),
            Some(head) => {
                snapshot = Some(SnapshotRecord { at, head });
                events_superseded += event_ends.len();
                events.clear();
                event_ends.clear();
            }
        }
    }
    // What the suffix before the last snapshot grew to is not kept.
    events.shrink_to_fit();
    event_ends.shrink_to_fit();
    Ok(Pass {
        valid_len: records.valid_len(),
        recovered: snapshot.map(|snapshot| Recovered {
            kind: records.kind,
            snapshot,
            events,
            event_ends,
            events_superseded,
            dropped_bytes: records.dropped_bytes(),
        }),
    })
}

/// The pass over a journal recovery makes: its newest intact snapshot and
/// suffix, or [`RecoverError::NoSnapshot`].
fn recover_stream(reader: impl BufRead + Seek, len: usize) -> Result<Recovered, RecoverError> {
    scan(reader, len)?.recovered.ok_or(RecoverError::NoSnapshot)
}

/// Parses the snapshot record `snapshot` locates from `reader`, through a
/// reader that recomputes the record's CRC as the parser reads it. Nothing
/// parsed is returned unless the bytes it was parsed from were the record
/// the scan checked: a record that no longer checks out is the "no longer
/// checks out" [`RecoverError::Io`], whether or not its text parsed.
fn parse_record<S: Deserialize>(
    reader: impl Read + Seek,
    snapshot: &SnapshotRecord,
) -> Result<S, RecoverError> {
    let Some(mut payload) = PayloadReader::open(reader, snapshot.at, &snapshot.head)? else {
        return Err(snapshot.changed());
    };
    let parsed = serde_json::from_reader(&mut payload);
    if !payload.finish()? {
        return Err(snapshot.changed());
    }
    parsed.map_err(|e| RecoverError::BadSnapshot(e.to_string()))
}

/// A journal recovery can read: bytes in memory — anything
/// `AsRef<[u8]>`, such as a `Vec`, a slice of one or [`Journal::bytes`] —
/// or a file opened with [`load`], which is streamed and never read into
/// memory whole. Recovery makes one pass over it
/// ([`recovered`](Self::recovered)) and then parses the snapshot that pass
/// found straight from it ([`parse_snapshot`](Self::parse_snapshot)).
pub trait JournalSource {
    /// Reads the journal one record at a time, checking each, and keeps
    /// where the latest intact snapshot is and the events after it.
    fn recovered(&self) -> Result<Recovered, RecoverError>;

    /// Parses the snapshot record a pass over this journal found, checking
    /// it again as it is read: a record that no longer checks out is
    /// [`RecoverError::Io`] (`InvalidData`), and one that checks out but
    /// does not parse as an `S` is [`RecoverError::BadSnapshot`].
    fn parse_snapshot<S: Deserialize>(&self, snapshot: &SnapshotRecord) -> Result<S, RecoverError>;
}

/// Bytes in memory are scanned through a cursor, and the snapshot is
/// parsed where it lies, with no copy, once its bytes check out.
impl<T: AsRef<[u8]> + ?Sized> JournalSource for T {
    fn recovered(&self) -> Result<Recovered, RecoverError> {
        let bytes = self.as_ref();
        recover_stream(io::Cursor::new(bytes), bytes.len())
    }

    fn parse_snapshot<S: Deserialize>(&self, snapshot: &SnapshotRecord) -> Result<S, RecoverError> {
        let Some(payload) = snapshot.head.payload_in(self.as_ref(), snapshot.at) else {
            return Err(snapshot.changed());
        };
        serde_json::from_slice(payload).map_err(|e| RecoverError::BadSnapshot(e.to_string()))
    }
}

/// A file is scanned through a fixed-size buffer, and the snapshot is
/// parsed from the file through the parser's fixed window.
impl JournalSource for JournalImage {
    fn recovered(&self) -> Result<Recovered, RecoverError> {
        recover_stream(BufReader::with_capacity(READ_BUF, &self.file), self.len)
    }

    fn parse_snapshot<S: Deserialize>(&self, snapshot: &SnapshotRecord) -> Result<S, RecoverError> {
        parse_record(&self.file, snapshot)
    }
}

/// A journal file opened for reading by [`load`], which takes its length
/// and reads nothing. Recovering from it ([`JournalSource`]) streams the
/// file through a fixed-size buffer, then reads the newest snapshot's
/// record again through the parser's fixed window: no snapshot text is
/// held. Dereferencing it as `[u8]` reads the
/// file's first [`len`](Self::len) bytes into memory on first use and
/// keeps them: that view is for harnesses that slice the image, and costs
/// the journal's length in memory for as long as the handle lives.
///
/// # Panics
///
/// Dereferencing panics if the file cannot be read back.
pub struct JournalImage {
    file: File,
    path: PathBuf,
    len: usize,
    bytes: OnceCell<Vec<u8>>,
}

impl JournalImage {
    /// The file's length when it was opened; reads nothing.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for an empty file; reads nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn read_all(&self) -> io::Result<Vec<u8>> {
        let mut file = &self.file;
        file.seek(SeekFrom::Start(0))?;
        let mut bytes = vec![0; self.len];
        file.read_exact(&mut bytes)?;
        Ok(bytes)
    }
}

impl Deref for JournalImage {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes.get_or_init(|| {
            self.read_all().unwrap_or_else(|e| {
                panic!(
                    "journal file {} cannot be read back: {e}",
                    self.path.display()
                )
            })
        })
    }
}

impl std::fmt::Debug for JournalImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalImage")
            .field("path", &self.path)
            .field("len", &self.len)
            .field("read", &self.bytes.get().is_some())
            .finish()
    }
}

/// A journal file's length, which must fit in memory addresses like every
/// other length in this crate.
fn file_len(file: &File) -> io::Result<usize> {
    usize::try_from(file.metadata()?.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "journal file exceeds usize"))
}

/// Opens the journal file at `path` and takes its length, reading none of
/// it: recovery streams the returned handle one record at a time
/// ([`JournalSource`]).
///
/// # Panics
///
/// Never here; dereferencing the returned [`JournalImage`] (the whole-image
/// view harnesses slice) panics if the file cannot be read back.
pub fn load(path: impl AsRef<Path>) -> io::Result<JournalImage> {
    let path = path.as_ref().to_path_buf();
    let file = File::open(&path)?;
    let len = file_len(&file)?;
    Ok(JournalImage {
        file,
        path,
        len,
        bytes: OnceCell::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// `journal`, begun as a site run's.
    fn begun(mut journal: Journal) -> Journal {
        journal.begin(Kind::Site).unwrap();
        journal
    }

    #[test]
    fn recovers_the_latest_snapshot_and_its_suffix() {
        let mut j = begun(Journal::in_memory());
        j.append_snapshot(b"s0").unwrap();
        j.append_event(b"e0").unwrap();
        j.append_event(b"e1").unwrap();
        j.append_snapshot(b"s1").unwrap();
        j.append_event(b"e2").unwrap();
        let bytes = j.bytes();
        let r = bytes.recovered().unwrap();
        assert_eq!(r.kind, Kind::Site);
        assert_eq!(r.snapshot, b"s1");
        assert_eq!(r.events().collect::<Vec<_>>(), vec![b"e2".as_slice()]);
        assert_eq!(r.events_superseded, 2);
        assert_eq!(r.dropped_bytes, 0);
    }

    #[test]
    fn a_torn_tail_falls_back_to_the_previous_snapshot() {
        let mut j = begun(Journal::in_memory());
        j.append_snapshot(b"s0").unwrap();
        j.append_event(b"e0").unwrap();
        let keep = j.len();
        j.append_snapshot(b"s1").unwrap();
        // Cut mid-way through the s1 record: recovery must land on s0.
        let cut = keep + 3;
        let bytes = j.bytes();
        let r = bytes[..cut].recovered().unwrap();
        assert_eq!(r.snapshot, b"s0");
        assert_eq!(r.events().collect::<Vec<_>>(), vec![b"e0".as_slice()]);
        assert_eq!(r.dropped_bytes, cut - keep);
    }

    /// A journal file that another writer rewrites under the reader: the
    /// payload of the record a seek lands on is overwritten first.
    struct RewrittenOnSeek {
        file: File,
        path: PathBuf,
    }

    impl Read for RewrittenOnSeek {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.file.read(buf)
        }
    }

    impl Seek for RewrittenOnSeek {
        fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            if let SeekFrom::Start(at @ 1..) = pos {
                let mut writer = OpenOptions::new().write(true).open(&self.path)?;
                writer.seek(SeekFrom::Start(at + framing::RECORD_OVERHEAD as u64))?;
                writer.write_all(b"s9")?;
            }
            self.file.seek(pos)
        }
    }

    #[test]
    fn a_file_rewritten_before_the_reread_is_a_typed_error() {
        let path = test_path("rewritten");
        let mut j = begun(Journal::create(&path).unwrap());
        j.append_snapshot(b"s0").unwrap();
        j.append_event(b"e0").unwrap();
        j.append_snapshot(b"s1").unwrap();
        drop(j);
        // Corrupt the newest snapshot's payload: its CRC fails, so the pass
        // ends before it, and s0 is the newest intact snapshot.
        let mut writer = OpenOptions::new().write(true).open(&path).unwrap();
        writer.seek(SeekFrom::End(-1)).unwrap();
        writer.write_all(b"x").unwrap();
        drop(writer);
        let r = load(&path).unwrap().recovered().unwrap();
        assert_eq!(r.snapshot, b"s0");
        assert_ne!(r.snapshot, b"s9");
        assert_eq!(r.events().collect::<Vec<_>>(), vec![b"e0".as_slice()]);

        // Read again as it was scanned, a record that is not JSON is a bad
        // snapshot...
        let err = parse_record::<serde::Value>(File::open(&path).unwrap(), &r.snapshot);
        assert!(matches!(err, Err(RecoverError::BadSnapshot(_))), "{err:?}");
        // ...and rewritten between the scan and the parse, it no longer
        // checks out, though its new text fails to parse all the same.
        let rewritten = RewrittenOnSeek {
            file: File::open(&path).unwrap(),
            path: path.clone(),
        };
        let err = parse_record::<serde::Value>(rewritten, &r.snapshot).unwrap_err();
        assert!(
            matches!(
                err,
                RecoverError::Io {
                    kind: io::ErrorKind::InvalidData,
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("no longer checks out"), "{err}");
        // The same holds for bytes in memory that are not the ones scanned.
        let mut bytes = std::fs::read(&path).unwrap();
        assert!(bytes.parse_snapshot::<serde::Value>(&r.snapshot).is_err());
        bytes[r.snapshot.at() + framing::RECORD_OVERHEAD + 1] = b'0';
        assert!(matches!(
            bytes.parse_snapshot::<serde::Value>(&r.snapshot),
            Err(RecoverError::BadSnapshot(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn no_snapshot_is_an_error_not_a_panic() {
        let mut j = begun(Journal::in_memory());
        assert_eq!(
            j.bytes().recovered().unwrap_err(),
            RecoverError::Framing(FramingError::NotAJournal),
            "the header waits for the first record"
        );
        j.append_event(b"orphan event").unwrap();
        assert_eq!(j.bytes().recovered().unwrap_err(), RecoverError::NoSnapshot);
    }

    fn test_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mbts-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.mbtsj", std::process::id()))
    }

    #[test]
    fn file_backed_journals_mirror_the_memory_stream() {
        // The file of a path-backed journal is byte for byte the stream an
        // in-memory journal holds after the same appends.
        let path = test_path("mirror");
        let mut on_file = begun(Journal::create(&path).unwrap());
        let mut in_memory = begun(Journal::in_memory());
        let big = vec![b'x'; 2 * SCRATCH_KEEP];
        for j in [&mut on_file, &mut in_memory] {
            j.append_snapshot(b"state").unwrap();
            j.append_event(b"ev").unwrap();
            j.append_snapshot(&big).unwrap();
            j.append_event(b"after the scratch was released").unwrap();
        }
        assert_eq!(*load(&path).unwrap(), *in_memory.bytes());
        assert_eq!(on_file.len(), in_memory.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_discarding_journal_counts_its_records_and_keeps_none() {
        let mut kept = begun(Journal::in_memory());
        let mut gone = begun(Journal::discarding());
        assert!(gone.is_empty());
        let big = vec![b'x'; 2 * SCRATCH_KEEP];
        for j in [&mut kept, &mut gone] {
            j.append_snapshot(b"state").unwrap();
            j.append_snapshot(&big).unwrap();
            j.append_event(b"after the scratch was released").unwrap();
        }
        assert_eq!(gone.len(), kept.len());
        assert!(gone.bytes().is_empty());
        assert_eq!(gone.buf.capacity(), SCRATCH_START);
        assert_eq!(
            gone.bytes().recovered().unwrap_err(),
            RecoverError::Framing(FramingError::NotAJournal),
            "nothing to recover from is a typed error"
        );
    }

    #[test]
    fn scratch_capacity_does_not_follow_the_first_record() {
        // Two journals whose first command after a released snapshot
        // buffer differs in length grow the next snapshot's buffer
        // through the same capacities.
        let grown = |first: &[u8]| {
            let path = test_path(&format!("scratch-{}", first.len()));
            let mut j = Journal::create(&path).unwrap();
            j.append_snapshot_with(|buf| buf.resize(buf.len() + 2 * SCRATCH_KEEP, b's'))
                .unwrap();
            assert_eq!(j.buf.capacity(), SCRATCH_START);
            j.append_event(first).unwrap();
            assert_eq!(j.buf.capacity(), SCRATCH_START);
            let mut grown = 0;
            j.append_snapshot_with(|buf| {
                for _ in 0..3 * SCRATCH_KEEP {
                    buf.push(b's');
                }
                grown = buf.capacity();
            })
            .unwrap();
            std::fs::remove_file(&path).ok();
            grown
        };
        assert_eq!(grown(&[b'c'; 265]), grown(&[b'c'; 278]));
    }

    #[test]
    fn a_file_backed_journal_counts_its_bytes_and_reads_them_back() {
        let path = test_path("counted");
        let file_len = || std::fs::metadata(&path).unwrap().len() as usize;
        let mut j = begun(Journal::create(&path).unwrap());
        assert!(
            j.is_empty(),
            "a begun journal is empty until its first record"
        );
        assert_eq!(j.len(), file_len());
        for payload in [&b"s0"[..], b"", &vec![7u8; SCRATCH_KEEP + 1], b"e2"] {
            j.append_event(payload).unwrap();
            assert_eq!(j.len(), file_len());
            assert!(!j.is_empty());
        }
        assert_eq!(*j.bytes(), *load(&path).unwrap());
        drop(j);

        // A torn tail: `reopen` counts the valid prefix, not the file it found.
        let intact = file_len();
        let mut torn = load(&path).unwrap().to_vec();
        torn.extend_from_slice(&[2, 9, 0, 0]);
        std::fs::write(&path, &torn).unwrap();
        let (mut j, recovered) = Journal::reopen(&path).unwrap();
        assert!(recovered.is_none(), "events alone hold no snapshot");
        assert_eq!(torn.len() - j.len(), 4);
        assert_eq!(j.len(), intact);
        assert_eq!(j.len(), file_len());
        j.append_event(b"e3").unwrap();
        assert_eq!(j.len(), file_len());
        assert_eq!(*j.bytes(), *load(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_truncates_the_torn_tail_and_appends_after_it() {
        let dir = std::env::temp_dir().join("mbts-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("reopen-{}.mbtsj", std::process::id()));
        let mut j = begun(Journal::create(&path).unwrap());
        j.append_snapshot(b"s0").unwrap();
        j.append_event(b"e0").unwrap();
        let intact = j.len();
        j.append_event(b"torn").unwrap();
        drop(j);
        // Simulate a crash mid-record: chop into the last record.
        let bytes = load(&path).unwrap();
        std::fs::write(&path, &bytes[..intact + 5]).unwrap();

        let (mut j, recovered) = Journal::reopen(&path).unwrap();
        // The pass that truncated the tail found what recovery needs.
        let recovered = recovered.expect("a snapshot");
        assert_eq!(recovered.dropped_bytes, 5);
        assert_eq!(recovered.snapshot, b"s0");
        assert_eq!(
            recovered.events().collect::<Vec<_>>(),
            vec![b"e0".as_slice()]
        );
        assert_eq!(j.len(), intact);
        j.append_event(b"e1").unwrap();
        let r = load(&path).unwrap().recovered().unwrap();
        assert_eq!(r.snapshot, b"s0");
        assert_eq!(
            r.events().collect::<Vec<_>>(),
            vec![b"e0".as_slice(), b"e1".as_slice()]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_journal_holds_one_run_and_a_torn_first_write_holds_none() {
        // The header goes out with the first record, and only an empty
        // journal can be begun.
        let path = test_path("first-write");
        let mut j = begun(Journal::create(&path).unwrap());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        j.append_snapshot(b"s0").unwrap();
        let err = j.begin(Kind::Economy).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        drop(j);
        // Torn after the header: the file holds no record, and reopens
        // as an empty journal a run can begin again.
        let bytes = load(&path).unwrap().to_vec();
        std::fs::write(&path, &bytes[..framing::HEADER_LEN + 3]).unwrap();
        let (j, recovered) = Journal::reopen(&path).unwrap();
        assert!(recovered.is_none());
        assert!(j.is_empty());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        begun(j).append_snapshot(b"s0").unwrap();
        assert_eq!(*load(&path).unwrap(), *bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_refuses_non_journal_files() {
        let dir = std::env::temp_dir().join("mbts-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("notajournal-{}.bin", std::process::id()));
        std::fs::write(&path, b"hello world, definitely not framed").unwrap();
        let err = Journal::reopen(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    /// Sink that counts syncs and can be armed to fail writes or syncs.
    struct FlakySink {
        syncs: Arc<AtomicU64>,
        fail_writes: bool,
        fail_syncs: bool,
    }

    impl Write for FlakySink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.fail_writes {
                return Err(io::Error::other("disk gone"));
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl JournalSink for FlakySink {
        fn sync(&mut self) -> io::Result<()> {
            if self.fail_syncs {
                return Err(io::Error::other("fsync: EIO"));
            }
            self.syncs.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn fsync_every_n_syncs_on_cadence() {
        let syncs = Arc::new(AtomicU64::new(0));
        let mut j = Journal::with_sink(Box::new(FlakySink {
            syncs: syncs.clone(),
            fail_writes: false,
            fail_syncs: false,
        }))
        .with_fsync_every_n(3);
        for i in 0..7 {
            j.append_event(format!("e{i}").as_bytes()).unwrap();
        }
        // 7 appends at a cadence of 3 → syncs after appends 3 and 6.
        assert_eq!(syncs.load(Ordering::Relaxed), 2);
        // Explicit sync fires regardless of cadence position.
        j.sync().unwrap();
        assert_eq!(syncs.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn default_journal_never_syncs() {
        let syncs = Arc::new(AtomicU64::new(0));
        let mut j = Journal::with_sink(Box::new(FlakySink {
            syncs: syncs.clone(),
            fail_writes: false,
            fail_syncs: false,
        }));
        for _ in 0..100 {
            j.append_event(b"e").unwrap();
        }
        assert_eq!(syncs.load(Ordering::Relaxed), 0, "0 = never fsync");
    }

    #[test]
    fn fsync_errors_surface_from_the_triggering_append() {
        let mut j = Journal::with_sink(Box::new(FlakySink {
            syncs: Arc::new(AtomicU64::new(0)),
            fail_writes: false,
            fail_syncs: true,
        }))
        .with_fsync_every_n(2);
        j.append_event(b"e0").unwrap();
        let err = j.append_event(b"e1").unwrap_err();
        assert!(err.to_string().contains("fsync"), "{err}");
    }

    /// Sink that accepts only `1..=k` bytes per call (pattern-driven),
    /// with an optional total-byte fuse after which writes return
    /// `Ok(0)` — a disk that fills up mid-record.
    struct TrickleSink {
        accepted: Vec<u8>,
        chunks: Vec<usize>,
        next_chunk: usize,
        budget: Option<usize>,
    }

    impl TrickleSink {
        fn new(chunks: Vec<usize>, budget: Option<usize>) -> Self {
            TrickleSink {
                accepted: Vec::new(),
                chunks,
                next_chunk: 0,
                budget,
            }
        }
    }

    impl Write for TrickleSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let mut n = self.chunks[self.next_chunk % self.chunks.len()].max(1);
            self.next_chunk += 1;
            if let Some(budget) = self.budget {
                n = n.min(budget - self.accepted.len());
            }
            let n = n.min(buf.len());
            self.accepted.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl JournalSink for TrickleSink {
        fn sync(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Satellite invariant: against a sink that accepts 1..k bytes
        /// per call, the journal either completes every record (the disk
        /// mirrors the memory stream exactly) or — when the disk stops
        /// accepting bytes mid-record — surfaces the typed [`ShortWrite`]
        /// and leaves a torn tail the recovery scan truncates cleanly.
        #[test]
        fn trickling_sinks_complete_records_or_truncate_cleanly(
            chunks in proptest::collection::vec(1usize..7, 1..8),
            payload_lens in proptest::collection::vec(0usize..40, 1..12),
            budget_frac in 0.1f64..1.5,
        ) {
            // Unlimited budget: every record must complete despite the
            // sink never accepting a full record in one call.
            let mut j = begun(Journal::with_sink(Box::new(TrickleSink::new(chunks.clone(), None))));
            j.append_snapshot(b"genesis").expect("unbounded trickle completes");
            for (i, len) in payload_lens.iter().enumerate() {
                let payload = vec![b'a' + (i % 26) as u8; *len];
                j.append_event(&payload).expect("unbounded trickle completes");
            }
            let memory_stream = j.bytes().to_vec();
            // Rebuild against an identical sink to inspect what it got.
            let mut probe = TrickleSink::new(chunks.clone(), None);
            write_full(&mut probe, &memory_stream).expect("unbounded trickle completes");
            proptest::prop_assert_eq!(&probe.accepted, &memory_stream);

            // Bounded budget: the run dies mid-stream; whatever prefix
            // the disk holds must recover without panic, and if the
            // failure was the disk refusing bytes, it is the typed
            // ShortWrite — not an opaque write_all error.
            let body = memory_stream.len();
            let budget = ((body as f64 * budget_frac) as usize).min(body);
            let mut j = begun(Journal::with_sink(Box::new(TrickleSink::new(chunks.clone(), Some(budget)))));
            let mut failed: Option<io::Error> = None;
            if let Err(e) = j.append_snapshot(b"genesis") {
                failed = Some(e);
            }
            if failed.is_none() {
                for (i, len) in payload_lens.iter().enumerate() {
                    let payload = vec![b'a' + (i % 26) as u8; *len];
                    if let Err(e) = j.append_event(&payload) {
                        failed = Some(e);
                        break;
                    }
                }
            }
            if let Some(err) = &failed {
                proptest::prop_assert_eq!(err.kind(), io::ErrorKind::WriteZero);
                let diag = ShortWrite::from_io(err).expect("typed ShortWrite payload");
                proptest::prop_assert!(diag.written < diag.len);
            }
            // Recover from exactly what the disk accepted.
            let mut replay = TrickleSink::new(chunks, Some(budget));
            let _ = write_full(&mut replay, &memory_stream);
            let disk = replay.accepted;
            match disk.recovered() {
                Ok(r) => {
                    // The valid prefix is a true prefix of the memory
                    // stream: dropped bytes are exactly the torn tail.
                    let valid = disk.len() - r.dropped_bytes;
                    proptest::prop_assert_eq!(&disk[..valid], &memory_stream[..valid]);
                }
                Err(RecoverError::NoSnapshot | RecoverError::Framing(FramingError::NotAJournal)) => {
                    // Died inside the header or the genesis record that
                    // shares its write — nothing durable yet, which
                    // recovery reports rather than panics.
                }
                Err(other) => proptest::prop_assert!(false, "unexpected: {other}"),
            }
        }
    }

    #[test]
    fn write_errors_surface_and_memory_stream_stays_scannable() {
        let mut j = begun(Journal::with_sink(Box::new(FlakySink {
            syncs: Arc::new(AtomicU64::new(0)),
            fail_writes: true,
            fail_syncs: false,
        })));
        assert!(j.append_snapshot(b"s").is_err());
        // The in-memory stream got the record before the sink refused;
        // a scan of it still recovers cleanly (write-ahead order means
        // the caller treats the append as failed and halts anyway).
        assert!(j.bytes().recovered().is_ok());
    }
}
