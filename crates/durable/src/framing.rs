//! Byte-level journal framing.
//!
//! A journal is a 12-byte header followed by a flat sequence of records:
//!
//! ```text
//! header  := magic[8] version:u32le
//! record  := tag:u8 len:u32le crc:u32le payload[len]
//! ```
//!
//! `tag` distinguishes snapshots (full replay state) from events (one
//! applied sim event); `crc` is CRC-32 (IEEE) over `tag`, `len` and the
//! payload, so corruption anywhere in a record — including a bit flip in
//! the length field itself — fails the check. [`scan`] walks a byte slice
//! and `RecordReader` a reader, one record at a time; both stop at the
//! first record that does not check out, which turns any torn or
//! corrupted tail into a clean *valid prefix* instead of a panic: exactly
//! the property recovery needs after a crash mid-write. What "checks out"
//! means is written once, in `check_record`, and both call it.

use std::convert::Infallible;
use std::io::{self, Read, Seek, SeekFrom};

/// Journal file magic: identifies the format before any parsing.
pub const MAGIC: [u8; 8] = *b"MBTSJRNL";

/// Current framing version. Bumped on any incompatible layout change;
/// [`scan`] refuses other versions rather than misparsing them.
pub const VERSION: u32 = 1;

/// Header length in bytes (magic + version).
pub const HEADER_LEN: usize = 12;

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

/// Appends the journal header to an empty buffer.
pub fn write_header(buf: &mut Vec<u8>) {
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
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
    /// The stream is a journal of an unsupported framing version.
    UnsupportedVersion(u32),
}

impl std::fmt::Display for FramingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FramingError::NotAJournal => write!(f, "not a journal (bad magic)"),
            FramingError::UnsupportedVersion(v) => {
                write!(f, "unsupported journal version {v} (expected {VERSION})")
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

/// Checks the journal header: the magic, then the version.
fn check_header(header: &[u8]) -> Result<(), FramingError> {
    if header.len() < HEADER_LEN || header[..8] != MAGIC {
        return Err(FramingError::NotAJournal);
    }
    let version = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if version != VERSION {
        return Err(FramingError::UnsupportedVersion(version));
    }
    Ok(())
}

/// The one rule for whether a record is intact: its tag is known, its
/// length fits in the `remaining` bytes after its header, and its CRC
/// over tag, length and payload matches. `payload` is asked for the
/// record's bytes, given its tag and length, only once that length is
/// known to fit, so a damaged length field never reads, or allocates,
/// past the end of the journal. `Ok(None)` is a record that does not
/// check out; an error is one from `payload` itself.
fn check_record<'p, E>(
    header: &[u8; RECORD_OVERHEAD],
    remaining: usize,
    payload: impl FnOnce(RecordTag, usize) -> Result<&'p [u8], E>,
) -> Result<Option<(RecordTag, &'p [u8])>, E> {
    let Some(tag) = RecordTag::from_byte(header[0]) else {
        return Ok(None);
    };
    let len_bytes = [header[1], header[2], header[3], header[4]];
    let crc = u32::from_le_bytes([header[5], header[6], header[7], header[8]]);
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > remaining {
        return Ok(None);
    }
    let payload = payload(tag, len)?;
    Ok((record_crc(header[0], len_bytes, payload) == crc).then_some((tag, payload)))
}

/// The valid prefix of a journal byte stream.
#[derive(Debug)]
pub struct ScanOutcome<'a> {
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
    check_header(bytes)?;
    let mut pos = HEADER_LEN;
    let mut records = Vec::new();
    while let Some((header, rest)) = bytes[pos..].split_first_chunk::<RECORD_OVERHEAD>() {
        let record = check_record(header, rest.len(), |_, len| {
            Ok::<_, Infallible>(&rest[..len])
        });
        let Ok(Some((tag, payload))) = record else {
            break;
        };
        records.push((tag, payload));
        pos += RECORD_OVERHEAD + payload.len();
    }
    Ok(ScanOutcome {
        records,
        valid_len: pos,
        dropped_bytes: bytes.len() - pos,
    })
}

/// Reads a journal one record at a time through any reader, checking each
/// record by the same rule as [`scan`]. It holds no record itself: each
/// payload is read into a buffer the caller lends, so what a pass over a
/// journal keeps is the caller's choice, not the journal's length. The
/// reader must seek, so that a record read over can be read again where it
/// starts ([`reread`](Self::reread)).
pub(crate) struct RecordReader<R> {
    reader: R,
    /// Bytes the journal holds, as the caller stated them.
    len: usize,
    /// Header plus the records that checked out so far.
    valid_len: usize,
}

impl<R: Read + Seek> RecordReader<R> {
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
        check_header(&header)?;
        Ok(RecordReader {
            reader,
            len,
            valid_len: HEADER_LEN,
        })
    }

    /// Reads the next record into `buf`, replacing what it held, and
    /// returns its tag; `None` (with `buf` emptied) where the valid prefix
    /// ends, which ends the pass. An error is the reader's own.
    pub(crate) fn next_into(&mut self, buf: &mut Vec<u8>) -> io::Result<Option<RecordTag>> {
        buf.clear();
        self.next_with(|_| buf)
    }

    /// Reads the next record into the buffer `choose` lends for its tag,
    /// replacing what that buffer held, and returns the tag; `None` where
    /// the valid prefix ends, which ends the pass. `choose` is called only
    /// for a record whose length fits in the journal, before a byte of its
    /// payload is read, and the buffer it lent is emptied if the record
    /// then fails its CRC: a damaged length costs no memory, and a
    /// buffer that was not lent keeps what it held.
    pub(crate) fn next_with<'b>(
        &mut self,
        choose: impl FnOnce(RecordTag) -> &'b mut Vec<u8>,
    ) -> io::Result<Option<RecordTag>> {
        let tag = self.read_record(self.valid_len, choose)?;
        if let Some((_, len)) = tag {
            self.valid_len += RECORD_OVERHEAD + len;
        }
        Ok(tag.map(|(tag, _)| tag))
    }

    /// Reads the record that starts at byte `at` of the journal into `buf`
    /// again, checked by the same rule, and returns its tag; `None` (with
    /// `buf` emptied) if it no longer checks out. The pass itself does not
    /// move: [`valid_len`](Self::valid_len) and
    /// [`dropped_bytes`](Self::dropped_bytes) stay what they were, and
    /// nothing is read after this.
    pub(crate) fn reread(&mut self, at: usize, buf: &mut Vec<u8>) -> io::Result<Option<RecordTag>> {
        buf.clear();
        self.reader.seek(SeekFrom::Start(at as u64))?;
        Ok(self.read_record(at, |_| buf)?.map(|(tag, _)| tag))
    }

    /// Reads the record the reader stands at, which starts at byte `at`:
    /// its header, then its payload into the buffer `choose` lends.
    /// Returns its tag and payload length if it checks out.
    fn read_record<'b>(
        &mut self,
        at: usize,
        choose: impl FnOnce(RecordTag) -> &'b mut Vec<u8>,
    ) -> io::Result<Option<(RecordTag, usize)>> {
        let remaining = self.len.saturating_sub(at);
        if remaining < RECORD_OVERHEAD {
            return Ok(None);
        }
        let mut header = [0; RECORD_OVERHEAD];
        self.reader.read_exact(&mut header)?;
        let reader = &mut self.reader;
        let mut lent = None;
        let record = check_record(&header, remaining - RECORD_OVERHEAD, |tag, len| {
            let buf = lent.insert(choose(tag));
            buf.clear();
            // Exactly: grown by doubling, a snapshot-sized buffer could
            // hold nearly twice its snapshot.
            buf.reserve_exact(len);
            buf.resize(len, 0);
            reader.read_exact(buf)?;
            Ok::<_, io::Error>(&buf[..])
        })?;
        match record {
            Some((tag, payload)) => Ok(Some((tag, payload.len()))),
            None => {
                if let Some(buf) = lent {
                    buf.clear();
                }
                Ok(None)
            }
        }
    }

    /// Byte length of the valid prefix read so far (header + intact
    /// records).
    pub(crate) fn valid_len(&self) -> usize {
        self.valid_len
    }

    /// Bytes after the valid prefix: the torn or corrupt tail, once
    /// [`next_into`](Self::next_into) has returned `None`.
    pub(crate) fn dropped_bytes(&self) -> usize {
        self.len - self.valid_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal_of(payloads: &[(RecordTag, &[u8])]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_header(&mut buf);
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
        let mut wrong_version = buf;
        wrong_version[8] = 99;
        assert_eq!(
            scan(&wrong_version).unwrap_err(),
            FramingError::UnsupportedVersion(99)
        );
        assert_eq!(scan(b"short").unwrap_err(), FramingError::NotAJournal);
    }

    #[test]
    fn oversized_length_fields_cannot_overflow() {
        let mut buf = Vec::new();
        write_header(&mut buf);
        buf.push(2); // Event tag
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        buf.extend_from_slice(&[0; 4]); // crc
        buf.extend_from_slice(b"tiny");
        let scan = scan(&buf).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, HEADER_LEN);

        // The reader refuses the length before its buffer grows for it.
        let mut reader = RecordReader::new(io::Cursor::new(&buf[..]), buf.len()).unwrap();
        let mut record = Vec::new();
        assert_eq!(reader.next_into(&mut record).unwrap(), None);
        assert_eq!(record.capacity(), 0);
        assert_eq!(reader.valid_len(), HEADER_LEN);
        assert_eq!(reader.dropped_bytes(), buf.len() - HEADER_LEN);
    }

    /// Records, valid length and dropped bytes.
    type Outcome = (Vec<(RecordTag, Vec<u8>)>, usize, usize);

    /// Everything `RecordReader` makes of `bytes`, in `scan`'s terms.
    fn read_all(bytes: &[u8]) -> Result<Outcome, FramingError> {
        let mut reader = match RecordReader::new(io::Cursor::new(bytes), bytes.len()) {
            Ok(reader) => reader,
            Err(e) => return Err(FramingError::from_io(&e).expect("a framing error").clone()),
        };
        let mut records = Vec::new();
        let mut record = Vec::new();
        while let Some(tag) = reader.next_into(&mut record).unwrap() {
            records.push((tag, record.clone()));
        }
        Ok((records, reader.valid_len(), reader.dropped_bytes()))
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
                (records, s.valid_len, s.dropped_bytes)
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
