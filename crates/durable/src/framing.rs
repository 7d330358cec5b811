//! Byte-level journal framing.
//!
//! A journal is a 16-byte header followed by a flat sequence of records:
//!
//! ```text
//! header  := magic[8] version:u32le kind:u32le
//! record  := tag:u8 len:u32le crc:u32le payload[len]
//! ```
//!
//! The header names the format [`VERSION`] and the [`Kind`] of run that
//! wrote the records; a reader checks the magic, then the version, then
//! the kind, so a file of another version is refused before its kind is
//! read.
//!
//! `tag` distinguishes snapshots (full replay state) from events (one
//! applied sim event); `crc` is CRC-32 (IEEE) over `tag`, `len` and the
//! payload, so corruption anywhere in a record — including a bit flip in
//! the length field itself — fails the check. [`scan`] walks a byte slice
//! and `RecordReader` a buffered reader, one record at a time; both stop
//! at the first record that does not check out, which turns any torn or
//! corrupted tail into a clean *valid prefix* instead of a panic: exactly
//! the property recovery needs after a crash mid-write. `PayloadReader`
//! reads one record found that way again, checking it as it goes, for a
//! parser to read from. What "checks out" means is written once, in
//! `RecordHead`, and all three apply it.

use std::io::{self, BufRead, Read, Seek, SeekFrom};

/// Journal file magic: identifies the format before any parsing.
pub const MAGIC: [u8; 8] = *b"MBTSJRNL";

/// The format version of every kind of journal (each kind's snapshot holds
/// a site's). Bumped by any change to what a record holds or to the order
/// a run folds its inputs in; [`scan`] refuses every other version.
pub const VERSION: u32 = 5;

/// Header length in bytes (magic + version + kind).
pub const HEADER_LEN: usize = 16;

/// The kind of run a journal holds, which its header names by code. The
/// codes differ pairwise in two bits, so no single flipped bit turns one
/// kind into another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A standalone site run.
    Site = 1,
    /// A market economy run.
    Economy = 2,
    /// The daemon's service machine.
    Service = 4,
}

impl Kind {
    fn from_code(code: u32) -> Option<Self> {
        [Kind::Site, Kind::Economy, Kind::Service]
            .into_iter()
            .find(|k| *k as u32 == code)
    }
}

impl std::fmt::Display for Kind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} run", format!("{self:?}").to_lowercase())
    }
}

/// Per-record overhead in bytes (tag + len + crc).
pub const RECORD_OVERHEAD: usize = 9;

/// What a record's payload contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordTag {
    /// A complete serialized replay state.
    Snapshot,
    /// One input (sim event or service command), journaled before it
    /// was applied.
    Event,
}

impl RecordTag {
    fn to_byte(self) -> u8 {
        match self {
            RecordTag::Snapshot => 1,
            RecordTag::Event => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(RecordTag::Snapshot),
            2 => Some(RecordTag::Event),
            _ => None,
        }
    }
}

/// Slice-by-8 tables for CRC-32 (IEEE, reflected polynomial 0xEDB88320).
/// `[0]` is the classic byte-at-a-time table; `[k][b]` is the CRC state
/// after byte `b` and then `k` zero bytes, which is what lets eight input
/// bytes fold into the state with eight independent lookups.
const fn make_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = make_crc_tables();

/// Feeds `bytes` into a running CRC-32 state (start from `0xFFFF_FFFF`,
/// finish by inverting), eight bytes per step.
fn crc_update(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = state ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        state = t[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// CRC-32 (IEEE 802.3) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc_update(0xFFFF_FFFF, bytes)
}

fn record_crc(tag: u8, len: [u8; 4], payload: &[u8]) -> u32 {
    let mut state = crc_update(0xFFFF_FFFF, &[tag]);
    state = crc_update(state, &len);
    !crc_update(state, payload)
}

/// Appends the header of a journal of `kind` to an empty buffer.
pub fn write_header(buf: &mut Vec<u8>, kind: Kind) {
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(kind as u32).to_le_bytes());
}

/// Frames `payload` as one record and appends it to `buf`.
pub fn append_record(buf: &mut Vec<u8>, tag: RecordTag, payload: &[u8]) {
    append_record_with(buf, tag, |buf| buf.extend_from_slice(payload));
}

/// Appends one record to `buf` whose payload is whatever `fill` appends:
/// the payload is written in place behind a header that is completed once
/// its length and CRC are known, so it never exists in a second buffer.
pub fn append_record_with(buf: &mut Vec<u8>, tag: RecordTag, fill: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    buf.push(tag.to_byte());
    buf.extend_from_slice(&[0; RECORD_OVERHEAD - 1]);
    fill(buf);
    let (header, payload) = buf[start..].split_at_mut(RECORD_OVERHEAD);
    let len = u32::try_from(payload.len()).expect("journal record exceeds 4 GiB");
    let len_bytes = len.to_le_bytes();
    let crc = record_crc(tag.to_byte(), len_bytes, payload);
    header[1..5].copy_from_slice(&len_bytes);
    header[5..].copy_from_slice(&crc.to_le_bytes());
}

/// Why a byte stream could not be scanned at all (a damaged *tail* is
/// not an error — see [`ScanOutcome::dropped_bytes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FramingError {
    /// The stream does not start with the journal magic.
    NotAJournal,
    /// The header names another [`VERSION`], or a kind the reader does
    /// not read.
    Unsupported {
        /// The version the header names.
        version: u32,
        /// The kind's code; `None` when the version was refused first.
        kind: Option<u32>,
        /// The kind the reader reads; `None` for one that reads any.
        expected: Option<Kind>,
    },
}

impl std::fmt::Display for FramingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FramingError::NotAJournal => write!(f, "not a journal (bad magic)"),
            FramingError::Unsupported {
                version,
                kind,
                expected,
            } => {
                let found = match kind.map(|code| (code, Kind::from_code(code))) {
                    None => "kind not read".to_string(),
                    Some((_, Some(kind))) => kind.to_string(),
                    Some((code, None)) => format!("unknown kind {code}"),
                };
                write!(f, "journal holds format version {version} ({found}); ")?;
                match expected {
                    Some(k) => write!(f, "this reader reads version {VERSION} ({k})"),
                    None => write!(f, "this reader reads version {VERSION}"),
                }
            }
        }
    }
}

impl std::error::Error for FramingError {}

impl From<FramingError> for io::Error {
    fn from(e: FramingError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

impl FramingError {
    /// Extracts the typed framing error from an [`io::Error`], if that is
    /// what it carries.
    pub(crate) fn from_io(err: &io::Error) -> Option<&FramingError> {
        err.get_ref().and_then(|e| e.downcast_ref::<FramingError>())
    }
}

/// Checks the header's magic, version and kind, in that order.
fn check_header(header: &[u8]) -> Result<Kind, FramingError> {
    if header.len() < HEADER_LEN || header[..8] != MAGIC {
        return Err(FramingError::NotAJournal);
    }
    let word = |at: usize| {
        u32::from_le_bytes([header[at], header[at + 1], header[at + 2], header[at + 3]])
    };
    let version = word(8);
    if version != VERSION {
        // Refused before the kind is read: its bytes may mean anything.
        return Err(FramingError::Unsupported {
            version,
            kind: None,
            expected: None,
        });
    }
    let code = word(12);
    Kind::from_code(code).ok_or(FramingError::Unsupported {
        version,
        kind: Some(code),
        expected: None,
    })
}

/// A record's header, once it has passed the checks that need no payload:
/// its tag is known and its length fits in the bytes after it. Whether
/// the record is intact is then [`checks`](Self::checks) of the CRC state
/// after its payload. This is the one rule for what "checks out" means:
/// [`scan`], [`RecordReader`] and [`PayloadReader`] all apply it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecordHead {
    header: [u8; RECORD_OVERHEAD],
    /// What the record holds.
    pub(crate) tag: RecordTag,
    /// Its payload's length.
    pub(crate) len: usize,
}

impl RecordHead {
    /// The head `header` describes, if its tag is known and its length fits
    /// in the `remaining` bytes after it. A damaged length field is caught
    /// here, before anything reads, or allocates, past the journal's end.
    fn parse(header: &[u8; RECORD_OVERHEAD], remaining: usize) -> Option<Self> {
        let tag = RecordTag::from_byte(header[0])?;
        let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
        (len <= remaining).then_some(RecordHead {
            header: *header,
            tag,
            len,
        })
    }

    /// The CRC state after the tag and the length, which the payload is
    /// fed into with `crc_update`.
    fn crc_start(&self) -> u32 {
        crc_update(0xFFFF_FFFF, &self.header[..5])
    }

    /// Whether `state`, the CRC state after the whole payload, is the CRC
    /// the header carries.
    fn checks(&self, state: u32) -> bool {
        !state
            == u32::from_le_bytes([
                self.header[5],
                self.header[6],
                self.header[7],
                self.header[8],
            ])
    }

    /// Whether `payload` is this record's payload: its length, and its CRC.
    pub(crate) fn is_payload(&self, payload: &[u8]) -> bool {
        payload.len() == self.len && self.checks(crc_update(self.crc_start(), payload))
    }

    /// The payload of the record at byte `at` of `bytes`, if that record is
    /// still this one: the same header, and a payload that checks out.
    pub(crate) fn payload_in<'b>(&self, bytes: &'b [u8], at: usize) -> Option<&'b [u8]> {
        let (header, rest) = bytes.get(at..)?.split_first_chunk::<RECORD_OVERHEAD>()?;
        let payload = rest.get(..self.len)?;
        (*header == self.header && self.is_payload(payload)).then_some(payload)
    }
}

/// The valid prefix of a journal byte stream.
#[derive(Debug)]
pub struct ScanOutcome<'a> {
    /// The kind of run the header names.
    pub kind: Kind,
    /// Every record that checked out, in order.
    pub records: Vec<(RecordTag, &'a [u8])>,
    /// Byte length of the valid prefix (header + intact records).
    pub valid_len: usize,
    /// Trailing bytes discarded as torn or corrupt.
    pub dropped_bytes: usize,
}

/// Walks `bytes` record by record, stopping at the first record that is
/// truncated, has an unknown tag, or fails its CRC. Never panics on any
/// input; the only hard errors are a missing/foreign header.
pub fn scan(bytes: &[u8]) -> Result<ScanOutcome<'_>, FramingError> {
    let kind = check_header(bytes)?;
    let mut pos = HEADER_LEN;
    let mut records = Vec::new();
    while let Some((header, rest)) = bytes[pos..].split_first_chunk::<RECORD_OVERHEAD>() {
        let Some(head) = RecordHead::parse(header, rest.len()) else {
            break;
        };
        let payload = &rest[..head.len];
        if !head.is_payload(payload) {
            break;
        }
        records.push((head.tag, payload));
        pos += RECORD_OVERHEAD + payload.len();
    }
    Ok(ScanOutcome {
        kind,
        records,
        valid_len: pos,
        dropped_bytes: bytes.len() - pos,
    })
}

/// Reads a journal one record at a time through a buffered reader,
/// checking each record by the same rule as [`scan`]. It holds no record
/// itself: a payload streams through the reader's own buffer into its CRC,
/// and is copied out only into a buffer the caller lends for its tag, so
/// what a pass over a journal keeps is the caller's choice, not the
/// journal's length.
pub(crate) struct RecordReader<R> {
    reader: R,
    /// The kind of run the header names.
    pub(crate) kind: Kind,
    /// Bytes the journal holds, as the caller stated them.
    len: usize,
    /// Header plus the records that checked out so far.
    valid_len: usize,
}

impl<R: BufRead + Seek> RecordReader<R> {
    /// Reads and checks the header of a journal `len` bytes long, which
    /// `reader` holds from its start. A missing or foreign header is an
    /// [`io::ErrorKind::InvalidData`] error carrying the [`FramingError`]
    /// (see [`FramingError::from_io`]).
    pub(crate) fn new(mut reader: R, len: usize) -> io::Result<Self> {
        let mut header = [0; HEADER_LEN];
        if len < HEADER_LEN {
            return Err(FramingError::NotAJournal.into());
        }
        reader.seek(SeekFrom::Start(0))?;
        reader.read_exact(&mut header)?;
        let kind = check_header(&header)?;
        Ok(RecordReader {
            reader,
            kind,
            len,
            valid_len: HEADER_LEN,
        })
    }

    /// Reads the next record and returns its head; `None` where the valid
    /// prefix ends, which ends the pass. `keep` is asked, once the record's
    /// length is known to fit in the journal, for a buffer to append its
    /// payload to; the payload is appended as it is checked, and taken off
    /// again if the record then fails its CRC. An error is the reader's
    /// own.
    pub(crate) fn next_record<'b>(
        &mut self,
        keep: impl FnOnce(RecordTag) -> Option<&'b mut Vec<u8>>,
    ) -> io::Result<Option<RecordHead>> {
        let remaining = self.len.saturating_sub(self.valid_len);
        let Some(remaining) = remaining.checked_sub(RECORD_OVERHEAD) else {
            return Ok(None);
        };
        let mut header = [0; RECORD_OVERHEAD];
        self.reader.read_exact(&mut header)?;
        let Some(head) = RecordHead::parse(&header, remaining) else {
            return Ok(None);
        };
        let mut kept = keep(head.tag).map(|buf| (buf.len(), buf));
        let mut state = head.crc_start();
        let mut left = head.len;
        while left > 0 {
            let chunk = self.reader.fill_buf()?;
            if chunk.is_empty() {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let chunk = &chunk[..chunk.len().min(left)];
            state = crc_update(state, chunk);
            if let Some((_, buf)) = kept.as_mut() {
                buf.extend_from_slice(chunk);
            }
            let n = chunk.len();
            self.reader.consume(n);
            left -= n;
        }
        if !head.checks(state) {
            if let Some((from, buf)) = kept {
                buf.truncate(from);
            }
            return Ok(None);
        }
        self.valid_len += RECORD_OVERHEAD + head.len;
        Ok(Some(head))
    }

    /// Byte length of the valid prefix read so far (header + intact
    /// records).
    pub(crate) fn valid_len(&self) -> usize {
        self.valid_len
    }

    /// Bytes after the valid prefix: the torn or corrupt tail, once
    /// [`next_record`](Self::next_record) has returned `None`.
    pub(crate) fn dropped_bytes(&self) -> usize {
        self.len - self.valid_len
    }
}

/// One record's payload read again from a reader, checked as it is read:
/// its bytes feed the record's CRC on their way to the caller, and
/// [`finish`](Self::finish) says whether they were the bytes a scan
/// checked. The caller parses what it reads, and keeps what it parsed only
/// if the record still checks out.
pub(crate) struct PayloadReader<R> {
    reader: R,
    head: RecordHead,
    /// Payload bytes not yet read.
    left: usize,
    state: u32,
    /// The first error the reader gave, kept for `finish`: the caller sees
    /// it too, as whatever its parser makes of it.
    error: Option<io::Error>,
}

impl<R: Read + Seek> PayloadReader<R> {
    /// Positions `reader` at the payload of the record that starts at byte
    /// `at`, whose head a scan found to be `head`; `None` if the header
    /// there is no longer that one.
    pub(crate) fn open(mut reader: R, at: usize, head: &RecordHead) -> io::Result<Option<Self>> {
        reader.seek(SeekFrom::Start(at as u64))?;
        let mut header = [0; RECORD_OVERHEAD];
        match reader.read_exact(&mut header) {
            Ok(()) if header == head.header => {}
            Ok(()) => return Ok(None),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        Ok(Some(PayloadReader {
            reader,
            head: *head,
            left: head.len,
            state: head.crc_start(),
            error: None,
        }))
    }
}

impl<R: Read> PayloadReader<R> {
    /// Reads whatever of the payload the caller left unread into the CRC,
    /// and says whether the payload was the record's: its full length, and
    /// the CRC its header carries. An error the reader gave, to the caller
    /// or now, is returned instead.
    pub(crate) fn finish(mut self) -> io::Result<bool> {
        let mut rest = [0; 8 * 1024];
        loop {
            match self.read(&mut rest) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Kept in `error`.
                Err(_) => break,
            }
        }
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.left == 0 && self.head.checks(self.state)),
        }
    }
}

impl<R: Read> Read for PayloadReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.left == 0 || self.error.is_some() {
            return Ok(0);
        }
        let want = buf.len().min(self.left);
        match self.reader.read(&mut buf[..want]) {
            Ok(n) => {
                // A read of 0 before the payload's end leaves `left` above
                // 0: the record no longer checks out.
                self.state = crc_update(self.state, &buf[..n]);
                self.left -= n;
                Ok(n)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Err(e),
            Err(e) => {
                let kind = e.kind();
                let detail = e.to_string();
                self.error = Some(e);
                Err(io::Error::new(kind, detail))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal_of(payloads: &[(RecordTag, &[u8])]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_header(&mut buf, Kind::Economy);
        for (tag, p) in payloads {
            append_record(&mut buf, *tag, p);
        }
        buf
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical test vector for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time loop the slice-by-8 update replaced, kept as the
    /// reference.
    fn crc_update_bytewise(mut state: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            state = CRC_TABLES[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
        }
        state
    }

    #[test]
    fn slice_by_8_equals_the_bytewise_loop_at_every_length_and_alignment() {
        assert_eq!(!crc_update_bytewise(0xFFFF_FFFF, b"123456789"), 0xCBF4_3926);
        // xorshift64: no seed, no dependency, the same bytes every run.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let data: Vec<u8> = (0..64 * 1024 + 8).map(|_| next() as u8).collect();
        let mut lens: Vec<usize> = (0..64).chain([64 * 1024]).collect();
        lens.extend((0..200).map(|_| (next() % (64 * 1024 + 1)) as usize));
        for len in lens {
            for align in 0..8 {
                let bytes = &data[align..align + len];
                let state = next() as u32;
                assert_eq!(
                    crc_update(state, bytes),
                    crc_update_bytewise(state, bytes),
                    "len {len} at alignment {align}"
                );
            }
        }
        // Split anywhere, the running state carries over.
        let whole = crc_update(0xFFFF_FFFF, &data[..1000]);
        for split in [0, 1, 7, 8, 9, 500, 999, 1000] {
            let head = crc_update(0xFFFF_FFFF, &data[..split]);
            assert_eq!(crc_update(head, &data[split..1000]), whole);
        }
    }

    #[test]
    fn roundtrips_records_in_order() {
        let buf = journal_of(&[
            (RecordTag::Snapshot, b"{\"s\":1}"),
            (RecordTag::Event, b"{\"e\":1}"),
            (RecordTag::Event, b""),
        ]);
        let scan = scan(&buf).unwrap();
        assert_eq!(scan.dropped_bytes, 0);
        assert_eq!(scan.valid_len, buf.len());
        assert_eq!(
            scan.records,
            vec![
                (RecordTag::Snapshot, b"{\"s\":1}".as_slice()),
                (RecordTag::Event, b"{\"e\":1}".as_slice()),
                (RecordTag::Event, b"".as_slice()),
            ]
        );
    }

    #[test]
    fn a_record_filled_in_place_is_the_record_of_its_payload() {
        for payload in [&b""[..], b"x", b"{\"s\":1}"] {
            let mut copied = b"before".to_vec();
            append_record(&mut copied, RecordTag::Snapshot, payload);
            let mut in_place = b"before".to_vec();
            append_record_with(&mut in_place, RecordTag::Snapshot, |buf| {
                for b in payload {
                    buf.push(*b);
                }
            });
            assert_eq!(in_place, copied);
        }
    }

    #[test]
    fn truncation_drops_only_the_torn_record() {
        let buf = journal_of(&[(RecordTag::Snapshot, b"snap"), (RecordTag::Event, b"event")]);
        // A cut inside the header leaves no journal to scan.
        for cut in 0..HEADER_LEN {
            assert_eq!(scan(&buf[..cut]).unwrap_err(), FramingError::NotAJournal);
        }
        // Every flipped bit of the version or the kind is refused by name:
        // the version before the kind is read, and no single bit turns one
        // kind into another.
        for bit in 8 * 8..HEADER_LEN * 8 {
            let mut bad = buf.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let word = |at: usize| u32::from_le_bytes(bad[at..at + 4].try_into().unwrap());
            let kind = (bit >= 12 * 8).then(|| word(12));
            assert_eq!(
                scan(&bad).unwrap_err(),
                FramingError::Unsupported {
                    version: word(8),
                    kind,
                    expected: None
                },
                "bit {bit}"
            );
            assert!(kind.is_none_or(|code| Kind::from_code(code).is_none()));
        }
        for cut in HEADER_LEN..buf.len() {
            let scan = scan(&buf[..cut]).unwrap();
            assert_eq!(scan.valid_len + scan.dropped_bytes, cut);
            assert!(scan.records.len() <= 2);
            // The prefix that survives is exactly the records wholly
            // before the cut.
            for (_, p) in &scan.records {
                assert!(*p == b"snap" || *p == b"event");
            }
        }
    }

    #[test]
    fn a_flipped_bit_anywhere_in_a_record_fails_its_crc() {
        let buf = journal_of(&[(RecordTag::Snapshot, b"state"), (RecordTag::Event, b"ev")]);
        // Flip each bit of the second record; the first must survive.
        let second_start = HEADER_LEN + RECORD_OVERHEAD + 5;
        for byte in second_start..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[byte] ^= 1 << bit;
                let scan = scan(&bad).unwrap();
                assert_eq!(
                    scan.records.len(),
                    1,
                    "byte {byte} bit {bit} slipped through"
                );
                assert_eq!(scan.records[0].1, b"state");
            }
        }
    }

    #[test]
    fn header_damage_is_a_hard_error() {
        let buf = journal_of(&[(RecordTag::Event, b"x")]);
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert_eq!(scan(&bad).unwrap_err(), FramingError::NotAJournal);
        let mut wrong_version = buf.clone();
        wrong_version[8] = 99;
        let err = scan(&wrong_version).unwrap_err();
        assert_eq!(
            err,
            FramingError::Unsupported {
                version: 99,
                kind: None,
                expected: None
            }
        );
        assert_eq!(
            err.to_string(),
            format!(
                "journal holds format version 99 (kind not read); \
                 this reader reads version {VERSION}"
            )
        );
        let mut unknown_kind = buf;
        unknown_kind[12] = 7;
        assert!(scan(&unknown_kind)
            .unwrap_err()
            .to_string()
            .contains("(unknown kind 7)"));
        assert_eq!(scan(b"short").unwrap_err(), FramingError::NotAJournal);
    }

    #[test]
    fn oversized_length_fields_cannot_overflow() {
        let mut buf = Vec::new();
        write_header(&mut buf, Kind::Site);
        buf.push(2); // Event tag
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        buf.extend_from_slice(&[0; 4]); // crc
        buf.extend_from_slice(b"tiny");
        let scan = scan(&buf).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, HEADER_LEN);

        // The reader refuses the length before a buffer is lent for it.
        let mut reader = RecordReader::new(io::Cursor::new(&buf[..]), buf.len()).unwrap();
        let mut record = Vec::new();
        assert_eq!(reader.next_record(|_| Some(&mut record)).unwrap(), None);
        assert_eq!(record.capacity(), 0);
        assert_eq!(reader.valid_len(), HEADER_LEN);
        assert_eq!(reader.dropped_bytes(), buf.len() - HEADER_LEN);
    }

    /// Kind, records, valid length and dropped bytes.
    type Outcome = (Kind, Vec<(RecordTag, Vec<u8>)>, usize, usize);

    /// Everything `RecordReader` makes of `bytes`, in `scan`'s terms.
    fn read_all(bytes: &[u8]) -> Result<Outcome, FramingError> {
        let mut reader = match RecordReader::new(io::Cursor::new(bytes), bytes.len()) {
            Ok(reader) => reader,
            Err(e) => return Err(FramingError::from_io(&e).expect("a framing error").clone()),
        };
        let mut records = Vec::new();
        let mut record = Vec::new();
        while let Some(head) = reader.next_record(|_| Some(&mut record)).unwrap() {
            assert!(head.is_payload(&record));
            records.push((head.tag, std::mem::take(&mut record)));
        }
        assert!(
            record.is_empty(),
            "a record that fails its CRC is taken off"
        );
        Ok((
            reader.kind,
            records,
            reader.valid_len(),
            reader.dropped_bytes(),
        ))
    }

    #[test]
    fn the_reader_and_the_scan_agree_on_every_cut_and_bit_flip() {
        let buf = journal_of(&[
            (RecordTag::Snapshot, b"state"),
            (RecordTag::Event, b"ev"),
            (RecordTag::Event, b""),
            (RecordTag::Snapshot, b"state 2"),
        ]);
        let agree = |bytes: &[u8]| {
            let by_scan = scan(bytes).map(|s| {
                let records = s.records.iter().map(|(t, p)| (*t, p.to_vec())).collect();
                (s.kind, records, s.valid_len, s.dropped_bytes)
            });
            assert_eq!(read_all(bytes), by_scan);
        };
        for cut in 0..=buf.len() {
            agree(&buf[..cut]);
        }
        for bit in 0..buf.len() * 8 {
            let mut bad = buf.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            agree(&bad);
        }
    }
}
