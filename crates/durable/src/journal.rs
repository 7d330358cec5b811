//! The journal: an append-only record stream, in a file or in memory,
//! plus the recovery pass that turns it back into "latest snapshot +
//! event suffix".
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
//! through a fixed-size buffer and keeps only the newest intact snapshot
//! and the events after it ([`JournalSource`]), never the file. Each
//! snapshot is read into the one buffer that holds the newest, so a pass
//! holds one snapshot's text however many the journal has; a newest one
//! that fails its check is the torn tail, and the one it was read over is
//! read again where its record starts. [`load`] returns a handle on the
//! file, not its bytes; [`Journal::reopen`] and
//! [`DurableRun::resume`](crate::DurableRun::resume) stream it too.
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

use crate::framing::{self, FramingError, RecordReader, RecordTag};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
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
        let mut buf = Vec::new();
        framing::write_header(&mut buf);
        Journal {
            len: buf.len(),
            buf,
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
            len: framing::HEADER_LEN,
            sink: None,
            path: None,
            fsync_every_n: 0,
            appends_since_sync: 0,
        }
    }

    /// A journal that is the open file at `path`, `len` bytes long with
    /// the write cursor at its end.
    fn on_file(file: File, path: PathBuf, len: usize) -> Self {
        Journal {
            buf: Vec::with_capacity(SCRATCH_START),
            keep: false,
            len,
            sink: Some(Box::new(file)),
            path: Some(path),
            fsync_every_n: 0,
            appends_since_sync: 0,
        }
    }

    /// Creates (truncating) a file-backed journal at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::create(&path)?;
        let mut header = Vec::new();
        framing::write_header(&mut header);
        file.write_all(&header)?;
        file.flush()?;
        Ok(Journal::on_file(file, path, header.len()))
    }

    /// Reopens an existing journal file for appending: streams it to find
    /// where the intact records end, truncates any torn tail off the file,
    /// and positions the write cursor there. Returns the journal plus the
    /// number of torn bytes discarded. The pass holds one record at a
    /// time, never the file.
    ///
    /// This is how a restarted service picks its write-ahead log back
    /// up after `kill -9`: [`DurableRun::resume`](crate::DurableRun::resume)
    /// recovers the state, then keeps appending to the same file.
    pub fn reopen(path: impl AsRef<Path>) -> io::Result<(Self, usize)> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let (valid_len, dropped_bytes) = {
            let len = file_len(&file)?;
            let mut records = RecordReader::new(BufReader::with_capacity(READ_BUF, &file), len)?;
            let mut record = Vec::new();
            while records.next_into(&mut record)?.is_some() {}
            (records.valid_len(), records.dropped_bytes())
        };
        file.set_len(valid_len as u64)?;
        file.seek(SeekFrom::End(0))?;
        Ok((Journal::on_file(file, path, valid_len), dropped_bytes))
    }

    /// A journal writing through an arbitrary sink (tests: failing
    /// writers; the header is written to the in-memory stream only, so
    /// a sink that fails immediately still constructs).
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

    fn append(&mut self, tag: RecordTag, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        if !self.keep {
            self.buf.clear();
        }
        let start = self.buf.len();
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

    /// `true` when only the header has been written.
    pub fn is_empty(&self) -> bool {
        self.len == framing::HEADER_LEN
    }

    /// The backing file's path, if file-backed.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }
}

/// Why recovery could not produce a runnable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverError {
    /// The bytes are not a journal of a version we can read.
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

/// The recoverable content of a journal: the latest intact snapshot and
/// every intact event journaled after it, copied out of the stream.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Payload of the latest intact snapshot record.
    pub snapshot: Vec<u8>,
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

/// Reads the `len`-byte journal `reader` holds one record at a time and
/// keeps the latest intact snapshot plus its event suffix. A snapshot is
/// read straight into [`Recovered::snapshot`], so one snapshot's text is
/// held, never two; if the newest one then fails its check, it was the
/// journal's torn or corrupt tail, and the one before it is read back
/// from where its record starts, checked again. Besides those the pass
/// holds one event record at a time and nothing of the records before.
/// Corruption in the tail only shrinks the suffix; corruption *before*
/// the latest snapshot is irrelevant by construction (the pass stops
/// there, so such a snapshot is never chosen).
fn recover_stream(reader: impl Read + Seek, len: usize) -> Result<Recovered, RecoverError> {
    let mut records = RecordReader::new(reader, len)?;
    let mut recovered = Recovered::default();
    // Where the record whose payload `recovered.snapshot` holds starts.
    let mut snapshot_at = None;
    // Whether the pass ended in a snapshot record read over that one.
    let mut overwritten = false;
    let mut event = Vec::new();
    loop {
        let at = records.valid_len();
        let tag = records.next_with(|tag| match tag {
            RecordTag::Snapshot => {
                overwritten = true;
                &mut recovered.snapshot
            }
            RecordTag::Event => &mut event,
        })?;
        match tag {
            None => break,
            Some(RecordTag::Event) => {
                recovered.events.extend_from_slice(&event);
                recovered.event_ends.push(recovered.events.len());
            }
            Some(RecordTag::Snapshot) => {
                overwritten = false;
                snapshot_at = Some(at);
                recovered.events_superseded += recovered.event_ends.len();
                recovered.events.clear();
                recovered.event_ends.clear();
            }
        }
    }
    let Some(at) = snapshot_at else {
        return Err(RecoverError::NoSnapshot);
    };
    if overwritten && records.reread(at, &mut recovered.snapshot)? != Some(RecordTag::Snapshot) {
        return Err(RecoverError::Io {
            kind: io::ErrorKind::InvalidData,
            detail: format!(
                "the snapshot record at byte {at} no longer checks out: \
                 the journal changed while it was read"
            ),
        });
    }
    // What the suffix before the last snapshot grew to is not kept.
    recovered.events.shrink_to_fit();
    recovered.event_ends.shrink_to_fit();
    recovered.dropped_bytes = records.dropped_bytes();
    Ok(recovered)
}

/// A journal recovery can read: bytes in memory — anything
/// `AsRef<[u8]>`, such as a `Vec`, a slice of one or [`Journal::bytes`] —
/// or a file opened with [`load`], which is streamed and never read into
/// memory whole.
pub trait JournalSource {
    /// Reads the journal one record at a time and keeps the latest intact
    /// snapshot and the events after it.
    fn recovered(&self) -> Result<Recovered, RecoverError>;
}

impl<T: AsRef<[u8]> + ?Sized> JournalSource for T {
    fn recovered(&self) -> Result<Recovered, RecoverError> {
        let bytes = self.as_ref();
        recover_stream(io::Cursor::new(bytes), bytes.len())
    }
}

impl JournalSource for JournalImage {
    fn recovered(&self) -> Result<Recovered, RecoverError> {
        recover_stream(BufReader::with_capacity(READ_BUF, &self.file), self.len)
    }
}

/// A journal file opened for reading by [`load`], which takes its length
/// and reads nothing. Recovering from it ([`JournalSource`]) streams the
/// file through a fixed-size buffer. Dereferencing it as `[u8]` reads the
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

    #[test]
    fn recovers_the_latest_snapshot_and_its_suffix() {
        let mut j = Journal::in_memory();
        j.append_snapshot(b"s0").unwrap();
        j.append_event(b"e0").unwrap();
        j.append_event(b"e1").unwrap();
        j.append_snapshot(b"s1").unwrap();
        j.append_event(b"e2").unwrap();
        let bytes = j.bytes();
        let r = bytes.recovered().unwrap();
        assert_eq!(r.snapshot, b"s1");
        assert_eq!(r.events().collect::<Vec<_>>(), vec![b"e2".as_slice()]);
        assert_eq!(r.events_superseded, 2);
        assert_eq!(r.dropped_bytes, 0);
    }

    #[test]
    fn a_torn_tail_falls_back_to_the_previous_snapshot() {
        let mut j = Journal::in_memory();
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
        let mut j = Journal::create(&path).unwrap();
        j.append_snapshot(b"s0").unwrap();
        j.append_event(b"e0").unwrap();
        j.append_snapshot(b"s1").unwrap();
        drop(j);
        // Corrupt the newest snapshot's payload: the pass has read it over
        // s0 by the time its CRC fails, and reads s0 again where its record
        // starts. (A cut through a record never gets that far: its length
        // no longer fits, and nothing is read over s0.)
        let len = load(&path).unwrap().len();
        let mut writer = OpenOptions::new().write(true).open(&path).unwrap();
        writer.seek(SeekFrom::End(-1)).unwrap();
        writer.write_all(b"x").unwrap();
        drop(writer);
        let r = load(&path).unwrap().recovered().unwrap();
        assert_eq!(r.snapshot, b"s0");
        assert_eq!(r.events().collect::<Vec<_>>(), vec![b"e0".as_slice()]);

        let rewritten = RewrittenOnSeek {
            file: File::open(&path).unwrap(),
            path: path.clone(),
        };
        let err = recover_stream(BufReader::new(rewritten), len).unwrap_err();
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
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn no_snapshot_is_an_error_not_a_panic() {
        let mut j = Journal::in_memory();
        assert_eq!(j.bytes().recovered().unwrap_err(), RecoverError::NoSnapshot);
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
        let mut on_file = Journal::create(&path).unwrap();
        let mut in_memory = Journal::in_memory();
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
        let mut kept = Journal::in_memory();
        let mut gone = Journal::discarding();
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
        let mut j = Journal::create(&path).unwrap();
        assert!(j.is_empty(), "a header-only journal is empty");
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
        let (mut j, dropped) = Journal::reopen(&path).unwrap();
        assert_eq!(dropped, 4);
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
        let mut j = Journal::create(&path).unwrap();
        j.append_snapshot(b"s0").unwrap();
        j.append_event(b"e0").unwrap();
        let intact = j.len();
        j.append_event(b"torn").unwrap();
        drop(j);
        // Simulate a crash mid-record: chop into the last record.
        let bytes = load(&path).unwrap();
        std::fs::write(&path, &bytes[..intact + 5]).unwrap();

        let (mut j, dropped) = Journal::reopen(&path).unwrap();
        assert_eq!(dropped, 5);
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
            let mut j = Journal::with_sink(Box::new(TrickleSink::new(chunks.clone(), None)));
            j.append_snapshot(b"genesis").expect("unbounded trickle completes");
            for (i, len) in payload_lens.iter().enumerate() {
                let payload = vec![b'a' + (i % 26) as u8; *len];
                j.append_event(&payload).expect("unbounded trickle completes");
            }
            let memory_stream = j.bytes().to_vec();
            // Rebuild against an identical sink to inspect what it got.
            let mut probe = TrickleSink::new(chunks.clone(), None);
            write_full(&mut probe, &memory_stream[framing::HEADER_LEN..])
                .expect("unbounded trickle completes");
            proptest::prop_assert_eq!(&probe.accepted, &memory_stream[framing::HEADER_LEN..]);

            // Bounded budget: the run dies mid-stream; whatever prefix
            // the disk holds must recover without panic, and if the
            // failure was the disk refusing bytes, it is the typed
            // ShortWrite — not an opaque write_all error.
            let body = memory_stream.len() - framing::HEADER_LEN;
            let budget = ((body as f64 * budget_frac) as usize).min(body);
            let mut j = Journal::with_sink(Box::new(TrickleSink::new(chunks.clone(), Some(budget))));
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
            let mut disk = Vec::new();
            framing::write_header(&mut disk);
            let mut replay = TrickleSink::new(chunks, Some(budget));
            let _ = write_full(&mut replay, &memory_stream[framing::HEADER_LEN..]);
            disk.extend_from_slice(&replay.accepted);
            match disk.recovered() {
                Ok(r) => {
                    // The valid prefix is a true prefix of the memory
                    // stream: dropped bytes are exactly the torn tail.
                    let valid = disk.len() - r.dropped_bytes;
                    proptest::prop_assert_eq!(&disk[..valid], &memory_stream[..valid]);
                }
                Err(RecoverError::NoSnapshot) => {
                    // Died inside the genesis record — nothing durable
                    // yet, which recovery reports rather than panics.
                }
                Err(other) => proptest::prop_assert!(false, "unexpected: {other}"),
            }
        }
    }

    #[test]
    fn write_errors_surface_and_memory_stream_stays_scannable() {
        let mut j = Journal::with_sink(Box::new(FlakySink {
            syncs: Arc::new(AtomicU64::new(0)),
            fail_writes: true,
            fail_syncs: false,
        }));
        assert!(j.append_snapshot(b"s").is_err());
        // The in-memory stream got the record before the sink refused;
        // a scan of it still recovers cleanly (write-ahead order means
        // the caller treats the append as failed and halts anyway).
        assert!(j.bytes().recovered().is_ok());
    }
}
