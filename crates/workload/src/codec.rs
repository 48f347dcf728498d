//! Compact binary trace encoding (the `XBT1` format).
//!
//! The paper's methodology captures each committed instruction stream
//! *once* and replays it through every frontend. The on-disk format this
//! module implements is what makes "once" cheap enough to be the default:
//!
//! * **varint deltas** — instruction pointers are stored as zigzag
//!   varints relative to the previous instruction's `next_ip`, which is a
//!   0-byte field for a connected stream; branch targets are deltas from
//!   the instruction's own IP;
//! * **enum packing** — branch kind, taken bit and presence flags share
//!   one byte; encoded length and uop count share another;
//! * **CRC32 trailer** — a hand-rolled IEEE CRC32 (table-driven
//!   slicing-by-8, eight bytes per step) over everything after the
//!   magic, so truncation and bit-flips are detected on read;
//! * **no serde** — the codec is ~300 lines of std-only Rust, so the
//!   workspace builds offline.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   b"XBT1"
//! version u32                  (= FORMAT_VERSION)
//! name    u16 length + UTF-8 bytes
//! count   u64                  dynamic instruction count
//! stats   5 x u64              ExecStats of the capture
//! records count x record       (see Record encoding below)
//! crc     u32                  CRC32 of version..records
//! ```
//!
//! Record encoding: `flags` byte (bits 0–2 branch kind, 3 taken, 4
//! has-target, 5 next-is-sequential, 6 ip-is-expected), `shape` byte
//! (bits 0–3 length, 4–5 uops−1), then up to three zigzag varints: the
//! IP delta (only when not the expected continuation), the target delta
//! (only for direct branches) and the next-IP delta (only for taken
//! transfers).
//!
//! [`TraceReader`] decodes *streaming*: it reads 64 KiB blocks into its
//! own buffer, parses records from that buffer and CRCs each consumed
//! span whole, so multi-million-instruction traces replay in O(block)
//! memory without materializing a `Vec<DynInst>`. The record grammar is
//! one function with a const-generic decode flag: batch decoding (what
//! `TraceStream` refills use) and the iterator run it decoding, while
//! [`TraceReader::validate`]
//! runs it validate-only — every structural check and the CRC, but no
//! `DynInst` is built — so a stored trace can be checked end to end at
//! close to the cost of reading its bytes, and the two modes cannot
//! disagree about which inputs are valid.

use crate::exec::{DynInst, ExecStats};
use std::fmt;
use std::io::{Read, Seek, SeekFrom, Write};
use xbc_isa::{Addr, BranchKind, Inst};

/// Version stamp of the `XBT1` container. Bump on any layout change so
/// stale cache entries are rejected (and regenerated) instead of
/// misdecoded.
pub const FORMAT_VERSION: u32 = 1;

/// File magic of encoded traces.
pub const MAGIC: [u8; 4] = *b"XBT1";

const FLAG_TAKEN: u8 = 1 << 3;
const FLAG_HAS_TARGET: u8 = 1 << 4;
const FLAG_NEXT_SEQ: u8 = 1 << 5;
const FLAG_IP_EXPECTED: u8 = 1 << 6;

/// Errors produced by the trace codec.
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structurally invalid or corrupted data (bad magic, CRC mismatch,
    /// truncation, out-of-range field). The string says which.
    Corrupt(String),
    /// The file is a valid container of an unsupported format version.
    Version(u32),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
            TraceError::Version(v) => {
                write!(f, "unsupported trace format version {v} (expected {FORMAT_VERSION})")
            }
        }
    }
}

impl fmt::Debug for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        // Short reads surface as UnexpectedEof: that is truncation, which
        // callers treat as corruption, not as an environment error.
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceError::Corrupt("truncated file".into())
        } else {
            TraceError::Io(e)
        }
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected), table-driven slicing-by-8.

/// `CRC_TABLES[0]` is the classic bytewise table; `CRC_TABLES[k][b]` is
/// the CRC state contribution of byte `b` followed by `k` zero bytes, so
/// eight table lookups fold eight input bytes per step.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Feeds `bytes` into a running CRC32 (start from `0`, use the returned
/// value as the next call's `crc`).
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !crc;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Applies a 32×32 GF(2) matrix (columns as `u32` bit-vectors) to a
/// 32-bit vector.
fn gf2_matrix_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0u32;
    let mut i = 0usize;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

/// Squares a GF(2) matrix: `square = mat × mat`.
fn gf2_matrix_square(square: &mut [u32; 32], mat: &[u32; 32]) {
    for n in 0..32 {
        square[n] = gf2_matrix_times(mat, mat[n]);
    }
}

/// Combines two independently computed CRC32s:
/// `crc32_combine(crc32(a), crc32(b), b.len()) == crc32(a ++ b)`.
///
/// This is what lets [`StreamEncoder`] keep a records-only running CRC
/// while the header (whose `ExecStats` are unknown until capture ends)
/// is CRC'd separately and patched in at finalize — no second pass over
/// gigabytes of records. The algorithm is the standard GF(2) matrix
/// trick: appending `len2` zero bytes to `a` multiplies its CRC state by
/// the zero-byte transition matrix `len2` times, done in O(log len2)
/// matrix squarings.
pub fn crc32_combine(crc1: u32, crc2: u32, mut len2: u64) -> u32 {
    if len2 == 0 {
        return crc1;
    }
    let mut even = [0u32; 32]; // zero-byte operator^(2^(2k))
    let mut odd = [0u32; 32]; // zero-byte operator^(2^(2k+1))

    // One zero *bit*: CRC shift with the reflected polynomial.
    odd[0] = 0xEDB8_8320;
    let mut row = 1u32;
    for slot in odd.iter_mut().skip(1) {
        *slot = row;
        row <<= 1;
    }
    gf2_matrix_square(&mut even, &odd); // two zero bits
    gf2_matrix_square(&mut odd, &even); // four zero bits

    // Walk the bits of len2, squaring up to the operator for 8·2^k zero
    // bits (one zero byte doubled each round) and applying it where the
    // corresponding bit of len2 is set.
    let mut crc = crc1;
    loop {
        gf2_matrix_square(&mut even, &odd);
        if len2 & 1 != 0 {
            crc = gf2_matrix_times(&even, crc);
        }
        len2 >>= 1;
        if len2 == 0 {
            break;
        }
        gf2_matrix_square(&mut odd, &even);
        if len2 & 1 != 0 {
            crc = gf2_matrix_times(&odd, crc);
        }
        len2 >>= 1;
        if len2 == 0 {
            break;
        }
    }
    crc ^ crc2
}

// ---------------------------------------------------------------------------
// Varint + zigzag primitives.

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

// ---------------------------------------------------------------------------
// Encoder.

/// Encoded records are buffered up to this many bytes, then CRC'd and
/// written as one span.
const ENCODE_SPAN: usize = 8 * 1024;

/// Writer half of the codec: call [`Encoder::record`] once per dynamic
/// instruction, then [`Encoder::finish`] to emit the CRC trailer.
pub struct Encoder<W: Write> {
    out: W,
    buf: Vec<u8>,
    crc: u32,
    expected_ip: Addr,
    remaining: u64,
}

impl<W: Write> Encoder<W> {
    /// Writes the header for a trace of exactly `count` instructions.
    pub fn new(mut out: W, name: &str, count: u64, stats: ExecStats) -> Result<Self, TraceError> {
        out.write_all(&MAGIC)?;
        let mut buf = Vec::with_capacity(64 + name.len());
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        let name_len = u16::try_from(name.len())
            .map_err(|_| TraceError::Corrupt("trace name longer than 64 KiB".into()))?;
        buf.extend_from_slice(&name_len.to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&count.to_le_bytes());
        for v in
            [stats.insts, stats.uops, stats.elided_calls, stats.wrapped_returns, stats.interrupts]
        {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        out.write_all(&buf)?;
        let crc = crc32_update(0, &buf);
        buf.clear();
        Ok(Encoder { out, buf, crc, expected_ip: Addr::NULL, remaining: count })
    }

    /// Appends one dynamic instruction.
    ///
    /// # Panics
    ///
    /// Panics if called more than `count` times.
    pub fn record(&mut self, d: &DynInst) -> Result<(), TraceError> {
        assert!(self.remaining > 0, "encoder received more records than declared");
        self.remaining -= 1;
        self.expected_ip = encode_record(&mut self.buf, self.expected_ip, d);
        if self.buf.len() >= ENCODE_SPAN {
            self.write_span()?;
        }
        Ok(())
    }

    fn write_span(&mut self) -> Result<(), TraceError> {
        self.crc = crc32_update(self.crc, &self.buf);
        self.out.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    /// Writes the CRC trailer and flushes.
    ///
    /// # Panics
    ///
    /// Panics if fewer records were written than declared in the header.
    pub fn finish(mut self) -> Result<(), TraceError> {
        assert_eq!(self.remaining, 0, "encoder finished before all declared records");
        self.write_span()?;
        self.out.write_all(&self.crc.to_le_bytes())?;
        self.out.flush()?;
        Ok(())
    }
}

/// Encodes one record into `buf` (appending), given the stateful
/// expected continuation IP; returns the next expected IP (`d.next_ip`).
/// Shared by [`Encoder`] and [`StreamEncoder`] so the two paths cannot
/// drift byte-wise.
fn encode_record(buf: &mut Vec<u8>, expected_ip: Addr, d: &DynInst) -> Addr {
    let ip = d.inst.ip;
    let mut flags = branch_kind_code(d.inst.branch);
    if d.taken {
        flags |= FLAG_TAKEN;
    }
    if d.inst.target.is_some() {
        flags |= FLAG_HAS_TARGET;
    }
    let next_seq = d.next_ip == d.inst.next_seq();
    if next_seq {
        flags |= FLAG_NEXT_SEQ;
    }
    let ip_expected = ip == expected_ip;
    if ip_expected {
        flags |= FLAG_IP_EXPECTED;
    }
    buf.push(flags);
    debug_assert!((1..=15).contains(&d.inst.len) && (1..=4).contains(&d.inst.uops));
    buf.push(d.inst.len | ((d.inst.uops - 1) << 4));
    if !ip_expected {
        let delta = ip.raw().wrapping_sub(expected_ip.raw()) as i64;
        write_varint(buf, zigzag(delta));
    }
    if let Some(t) = d.inst.target {
        write_varint(buf, zigzag(t.raw().wrapping_sub(ip.raw()) as i64));
    }
    if !next_seq {
        write_varint(buf, zigzag(d.next_ip.raw().wrapping_sub(ip.raw()) as i64));
    }
    d.next_ip
}

// ---------------------------------------------------------------------------
// Streaming encoder.

/// Streaming writer half of the codec, for captures whose [`ExecStats`]
/// are not known until the last instruction has executed.
///
/// [`Encoder`] requires the stats up front because they sit in the
/// header, *before* the records — fine when the whole trace is resident,
/// wrong for a chunked capture that learns the stats only at the end.
/// `StreamEncoder` writes the header with zeroed stats, streams records
/// with a records-only running CRC, then [`StreamEncoder::finish`] seeks
/// back, patches the real stats in, and emits a trailer computed with
/// [`crc32_combine`] — so the bytes on disk are identical to what
/// [`Encoder`] would have produced, without buffering records or making
/// a second pass over them.
pub struct StreamEncoder<W: Write + Seek> {
    out: W,
    buf: Vec<u8>,
    /// CRC of the header bytes before the stats field (version..count).
    crc_prefix: u32,
    /// Running CRC over record bytes only, seeded from 0.
    crc_records: u32,
    /// Total record bytes written, for [`crc32_combine`].
    records_len: u64,
    /// Absolute file offset of the 40-byte stats field.
    stats_pos: u64,
    expected_ip: Addr,
    remaining: u64,
}

impl<W: Write + Seek> StreamEncoder<W> {
    /// Writes the header for a trace of exactly `count` instructions,
    /// with a zeroed stats field to be patched by
    /// [`StreamEncoder::finish`].
    pub fn new(mut out: W, name: &str, count: u64) -> Result<Self, TraceError> {
        out.write_all(&MAGIC)?;
        let mut buf = Vec::with_capacity(64 + name.len());
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        let name_len = u16::try_from(name.len())
            .map_err(|_| TraceError::Corrupt("trace name longer than 64 KiB".into()))?;
        buf.extend_from_slice(&name_len.to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&count.to_le_bytes());
        let crc_prefix = crc32_update(0, &buf);
        let stats_pos = (MAGIC.len() + buf.len()) as u64;
        buf.extend_from_slice(&[0u8; 40]); // stats placeholder
        out.write_all(&buf)?;
        buf.clear();
        Ok(StreamEncoder {
            out,
            buf,
            crc_prefix,
            crc_records: 0,
            records_len: 0,
            stats_pos,
            expected_ip: Addr::NULL,
            remaining: count,
        })
    }

    /// Appends one dynamic instruction.
    ///
    /// # Panics
    ///
    /// Panics if called more than `count` times.
    pub fn record(&mut self, d: &DynInst) -> Result<(), TraceError> {
        assert!(self.remaining > 0, "encoder received more records than declared");
        self.remaining -= 1;
        self.expected_ip = encode_record(&mut self.buf, self.expected_ip, d);
        if self.buf.len() >= ENCODE_SPAN {
            self.write_span()?;
        }
        Ok(())
    }

    fn write_span(&mut self) -> Result<(), TraceError> {
        self.crc_records = crc32_update(self.crc_records, &self.buf);
        self.records_len += self.buf.len() as u64;
        self.out.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    /// Patches the real `stats` into the header, writes the CRC trailer
    /// and flushes. Until this returns the file is unreadable (zeroed
    /// stats, missing trailer) — callers must treat it as garbage, which
    /// the store's write-to-temp-then-rename finalize guarantees.
    ///
    /// # Panics
    ///
    /// Panics if fewer records were written than declared in the header.
    pub fn finish(mut self, stats: ExecStats) -> Result<(), TraceError> {
        assert_eq!(self.remaining, 0, "encoder finished before all declared records");
        self.write_span()?;
        let mut stats_bytes = [0u8; 40];
        for (i, v) in
            [stats.insts, stats.uops, stats.elided_calls, stats.wrapped_returns, stats.interrupts]
                .into_iter()
                .enumerate()
        {
            stats_bytes[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
        self.out.seek(SeekFrom::Start(self.stats_pos))?;
        self.out.write_all(&stats_bytes)?;
        let crc_header = crc32_update(self.crc_prefix, &stats_bytes);
        let crc = crc32_combine(crc_header, self.crc_records, self.records_len);
        self.out.seek(SeekFrom::Start(self.stats_pos + 40 + self.records_len))?;
        self.out.write_all(&crc.to_le_bytes())?;
        self.out.flush()?;
        Ok(())
    }
}

fn branch_kind_code(k: BranchKind) -> u8 {
    match k {
        BranchKind::None => 0,
        BranchKind::CondDirect => 1,
        BranchKind::UncondDirect => 2,
        BranchKind::CallDirect => 3,
        BranchKind::IndirectJump => 4,
        BranchKind::IndirectCall => 5,
        BranchKind::Return => 6,
    }
}

fn branch_kind_from_code(code: u8) -> Option<BranchKind> {
    Some(match code {
        0 => BranchKind::None,
        1 => BranchKind::CondDirect,
        2 => BranchKind::UncondDirect,
        3 => BranchKind::CallDirect,
        4 => BranchKind::IndirectJump,
        5 => BranchKind::IndirectCall,
        6 => BranchKind::Return,
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Streaming decoder.

/// Size of the decoder's read buffer. Header fields (the name is at
/// most `u16::MAX` bytes) always fit in one block.
const BLOCK: usize = 64 * 1024;

/// Longest possible record: flags, shape and three 10-byte varints.
const MAX_RECORD: usize = 2 + 3 * 10;

// Error constructors stay out of line so the record parser's hot path
// carries no formatting code.

#[cold]
#[inline(never)]
fn corrupt(what: &str) -> TraceError {
    TraceError::Corrupt(what.into())
}

#[cold]
#[inline(never)]
fn truncated() -> TraceError {
    corrupt("truncated file")
}

#[cold]
#[inline(never)]
fn bad_shape(shape: u8) -> TraceError {
    TraceError::Corrupt(format!("invalid shape byte {shape:#04x}"))
}

#[cold]
#[inline(never)]
fn bad_target(branch: BranchKind) -> TraceError {
    TraceError::Corrupt(format!("target presence contradicts branch kind {branch:?}"))
}

/// Reads the varint at `b[*at..]`, advancing `*at` past it.
#[inline(always)]
fn read_varint(b: &[u8], at: &mut usize) -> Result<u64, TraceError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *b.get(*at).ok_or_else(truncated)?;
        *at += 1;
        if shift >= 63 && byte > 1 {
            return Err(corrupt("varint overflows 64 bits"));
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// The record grammar: parses the record at the front of `b`, making
/// every structural check, and returns its length in bytes plus — only
/// when `DECODE` — the decoded instruction. Decoding and validate-only
/// scans both run this one function, so they accept exactly the same
/// inputs; a validate-only scan just never builds the `DynInst`, which
/// lets the compiler drop the address arithmetic. Running off the end
/// of `b` is truncation: callers pass at least [`MAX_RECORD`] bytes
/// unless the input has ended.
#[inline(always)]
fn parse_record<const DECODE: bool>(
    b: &[u8],
    expected_ip: Addr,
) -> Result<(usize, Option<DynInst>), TraceError> {
    let flags = *b.first().ok_or_else(truncated)?;
    if flags & 0x80 != 0 {
        return Err(corrupt("reserved flag bit set"));
    }
    let branch =
        branch_kind_from_code(flags & 0x07).ok_or_else(|| corrupt("invalid branch kind"))?;
    let shape = *b.get(1).ok_or_else(truncated)?;
    let len = shape & 0x0F;
    let uops = (shape >> 4) + 1;
    if len == 0 || uops > Inst::MAX_UOPS || shape >> 6 != 0 {
        return Err(bad_shape(shape));
    }
    let mut at = 2;
    let ip = if flags & FLAG_IP_EXPECTED != 0 {
        expected_ip
    } else {
        let delta = unzigzag(read_varint(b, &mut at)?);
        Addr::new(expected_ip.raw().wrapping_add(delta as u64))
    };
    let wants_target = matches!(
        branch,
        BranchKind::CondDirect | BranchKind::UncondDirect | BranchKind::CallDirect
    );
    if wants_target != (flags & FLAG_HAS_TARGET != 0) {
        return Err(bad_target(branch));
    }
    let target = if wants_target {
        let delta = unzigzag(read_varint(b, &mut at)?);
        Some(Addr::new(ip.raw().wrapping_add(delta as u64)))
    } else {
        None
    };
    let next_delta =
        if flags & FLAG_NEXT_SEQ != 0 { None } else { Some(unzigzag(read_varint(b, &mut at)?)) };
    if !DECODE {
        return Ok((at, None));
    }
    // The grammar above has made every check `Inst::new` asserts.
    let inst = Inst { ip, len, uops, branch, target };
    let next_ip = match next_delta {
        None => inst.next_seq(),
        Some(delta) => Addr::new(ip.raw().wrapping_add(delta as u64)),
    };
    Ok((at, Some(DynInst { inst, taken: flags & FLAG_TAKEN != 0, next_ip })))
}

/// Streaming trace decoder: an iterator of [`DynInst`]s over any byte
/// source. Reads the input in 64 KiB blocks into its own buffer, parses
/// records straight from that buffer, and CRCs each consumed span in
/// one pass — a 30M-instruction replay touches O(block) memory. The CRC
/// trailer is verified as soon as the final record is consumed, before
/// that record is handed out; a mismatch (or any truncation / field
/// corruption) surfaces as an `Err`, never a panic.
///
/// Besides the per-record [`Iterator`], a crate-internal `fill` decodes
/// a batch into a caller's buffer (`TraceStream` refills go through it)
/// and [`TraceReader::validate`] runs the same checks without decoding
/// at all.
///
/// # Examples
///
/// ```
/// use xbc_workload::{standard_traces, Trace, TraceReader};
///
/// let trace = standard_traces()[0].capture(500);
/// let mut buf = Vec::new();
/// trace.save(&mut buf).unwrap();
/// let mut reader = TraceReader::new(buf.as_slice()).unwrap();
/// assert_eq!(reader.name(), trace.name());
/// assert_eq!(reader.inst_count(), 500);
/// let insts: Result<Vec<_>, _> = reader.by_ref().collect();
/// assert_eq!(insts.unwrap(), trace.insts());
/// ```
pub struct TraceReader<R: Read> {
    input: R,
    /// Read buffer: `buf[pos..end]` is read but not yet parsed.
    buf: Box<[u8]>,
    pos: usize,
    end: usize,
    /// `buf[crc_from..pos]` is parsed but not yet folded into `crc`.
    crc_from: usize,
    crc: u32,
    /// `input` has reported end of file.
    eof: bool,
    name: String,
    count: u64,
    stats: ExecStats,
    expected_ip: Addr,
    remaining: u64,
    /// Set after the trailer has been verified (or an error was
    /// returned); the reader yields nothing from then on.
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Reads and validates the header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Corrupt`] on bad magic or malformed header
    /// fields, [`TraceError::Version`] on a format-version mismatch.
    pub fn new(input: R) -> Result<Self, TraceError> {
        let mut r = TraceReader {
            input,
            buf: vec![0u8; BLOCK].into_boxed_slice(),
            pos: 0,
            end: 0,
            crc_from: 0,
            crc: 0,
            eof: false,
            name: String::new(),
            count: 0,
            stats: ExecStats::default(),
            expected_ip: Addr::NULL,
            remaining: 0,
            done: false,
        };
        if r.take_array()? != MAGIC {
            return Err(TraceError::Corrupt("bad magic (not an XBT trace file)".into()));
        }
        // The CRC covers everything after the magic.
        r.crc_from = r.pos;
        let version = u32::from_le_bytes(r.take_array()?);
        if version != FORMAT_VERSION {
            return Err(TraceError::Version(version));
        }
        let name_len = u16::from_le_bytes(r.take_array()?) as usize;
        r.name = String::from_utf8(r.take_bytes(name_len)?.to_vec())
            .map_err(|_| TraceError::Corrupt("trace name is not UTF-8".into()))?;
        r.count = u64::from_le_bytes(r.take_array()?);
        let mut s = [0u64; 5];
        for v in &mut s {
            *v = u64::from_le_bytes(r.take_array()?);
        }
        r.stats = ExecStats {
            insts: s[0],
            uops: s[1],
            elided_calls: s[2],
            wrapped_returns: s[3],
            interrupts: s[4],
        };
        r.remaining = r.count;
        Ok(r)
    }

    /// Trace name from the header.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared dynamic instruction count.
    pub fn inst_count(&self) -> u64 {
        self.count
    }

    /// Capture-time executor statistics from the header.
    pub fn exec_stats(&self) -> ExecStats {
        self.stats
    }

    /// Decodes up to `max` further instructions, appending them to
    /// `out`, and returns how many it appended. Fewer than `max` means
    /// the stream has ended and its CRC trailer has been verified.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] on I/O failure, truncation, an invalid
    /// field or a CRC mismatch. Records decoded before the error may
    /// already be in `out`; the reader yields nothing afterwards.
    pub(crate) fn fill(&mut self, out: &mut Vec<DynInst>, max: usize) -> Result<usize, TraceError> {
        let n = self.scan::<true>(max as u64, |d| out.push(d))?;
        Ok(n as usize)
    }

    /// Checks every remaining record and the CRC trailer without
    /// decoding: the same record grammar and structural checks as
    /// decoding, but no `DynInst` is built. After this the reader is
    /// exhausted.
    ///
    /// # Errors
    ///
    /// Returns exactly the [`TraceError`] that decoding the rest of the
    /// stream would have returned.
    pub fn validate(&mut self) -> Result<(), TraceError> {
        self.scan::<false>(u64::MAX, |_| {}).map(|_| ())
    }

    /// Runs the record grammar over up to `max` records, handing each
    /// decoded instruction to `sink` (validate-only scans hand none), and
    /// verifies the trailer once the last record is consumed. Returns
    /// the number of records consumed.
    fn scan<const DECODE: bool>(
        &mut self,
        max: u64,
        mut sink: impl FnMut(DynInst),
    ) -> Result<u64, TraceError> {
        if self.done {
            return Ok(0);
        }
        let n = max.min(self.remaining);
        let result = self.scan_records::<DECODE>(n, &mut sink);
        self.done = result.is_err() || self.remaining == 0;
        result.map(|()| n)
    }

    fn scan_records<const DECODE: bool>(
        &mut self,
        n: u64,
        sink: &mut impl FnMut(DynInst),
    ) -> Result<(), TraceError> {
        let mut left = n;
        while left > 0 {
            self.fill_buf(MAX_RECORD)?;
            // Parse every record the buffer is sure to hold whole (all of
            // them once the input has ended: running short is then
            // truncation) with the cursor kept in locals.
            let bytes = &self.buf[..self.end];
            let last_whole = if self.eof { usize::MAX } else { bytes.len() - MAX_RECORD };
            let (mut pos, mut ip) = (self.pos, self.expected_ip);
            let result = loop {
                if left == 0 || pos > last_whole {
                    break Ok(());
                }
                match parse_record::<DECODE>(&bytes[pos..], ip) {
                    Ok((len, d)) => {
                        pos += len;
                        left -= 1;
                        if let Some(d) = d {
                            ip = d.next_ip;
                            sink(d);
                        }
                    }
                    Err(e) => break Err(e),
                }
            };
            self.pos = pos;
            self.expected_ip = ip;
            result?;
        }
        self.remaining -= n;
        if self.remaining == 0 {
            self.read_trailer()?;
        }
        Ok(())
    }

    fn read_trailer(&mut self) -> Result<(), TraceError> {
        self.crc = crc32_update(self.crc, &self.buf[self.crc_from..self.pos]);
        self.crc_from = self.pos;
        let stored = u32::from_le_bytes(self.take_array()?);
        if stored != self.crc {
            return Err(TraceError::Corrupt(format!(
                "CRC mismatch: stored {stored:#010x}, computed {:#010x}",
                self.crc
            )));
        }
        Ok(())
    }

    /// Makes at least `want` (≤ [`BLOCK`]) unparsed bytes available in
    /// the buffer unless the input ends first. The parsed span is folded
    /// into the CRC and the unparsed tail slid to the front before
    /// reading more.
    fn fill_buf(&mut self, want: usize) -> Result<(), TraceError> {
        debug_assert!(want <= BLOCK);
        if self.end - self.pos >= want || self.eof {
            return Ok(());
        }
        self.crc = crc32_update(self.crc, &self.buf[self.crc_from..self.pos]);
        self.buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        self.crc_from = 0;
        while self.end < want {
            match self.input.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => self.end += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Consumes the next `n` (≤ [`BLOCK`]) bytes.
    fn take_bytes(&mut self, n: usize) -> Result<&[u8], TraceError> {
        self.fill_buf(n)?;
        if self.end - self.pos < n {
            return Err(truncated());
        }
        self.pos += n;
        Ok(&self.buf[self.pos - n..self.pos])
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], TraceError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take_bytes(N)?);
        Ok(a)
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<DynInst, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        // Fast path: a record the buffer holds whole that is not the last
        // one (whose trailer check the scan makes). Anything else, errors
        // included, goes through the scan, which re-parses and reports.
        if !self.done && self.remaining > 1 && self.end - self.pos >= MAX_RECORD {
            let bytes = &self.buf[self.pos..self.end];
            if let Ok((len, Some(d))) = parse_record::<true>(bytes, self.expected_ip) {
                self.pos += len;
                self.remaining -= 1;
                self.expected_ip = d.next_ip;
                return Some(Ok(d));
            }
        }
        let mut got = None;
        match self.scan::<true>(1, |d| got = Some(d)) {
            Ok(_) => got.map(Ok),
            Err(e) => Some(Err(e)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            (0, Some(0))
        } else {
            // +1 for the possible trailing CRC error item.
            (self.remaining as usize, Some(self.remaining as usize + 1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{standard_traces, Trace};

    fn sample_trace() -> Trace {
        standard_traces()[0].capture(2_000)
    }

    fn encode(trace: &Trace) -> Vec<u8> {
        let mut buf = Vec::new();
        trace.save(&mut buf).unwrap();
        buf
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Incremental == one-shot.
        let a = crc32_update(crc32_update(0, b"1234"), b"56789");
        assert_eq!(a, 0xCBF4_3926);
    }

    #[test]
    fn crc32_combine_matches_sequential() {
        let data: Vec<u8> =
            (0..4096u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        let whole = crc32(&data);
        for split in [0, 1, 2, 7, 40, 255, 256, 1024, 4095, 4096] {
            let (a, b) = data.split_at(split);
            let combined = crc32_combine(crc32(a), crc32(b), b.len() as u64);
            assert_eq!(combined, whole, "split at {split}");
        }
        // Empty-prefix and known-vector sanity.
        assert_eq!(crc32_combine(crc32(b"1234"), crc32(b"56789"), 5), 0xCBF4_3926);
    }

    #[test]
    fn stream_encoder_is_byte_identical_to_encoder() {
        let t = sample_trace();
        let resident = encode(&t);
        let mut cursor = std::io::Cursor::new(Vec::new());
        let mut enc = StreamEncoder::new(&mut cursor, t.name(), t.inst_count() as u64).unwrap();
        for d in t.insts() {
            enc.record(d).unwrap();
        }
        enc.finish(t.exec_stats()).unwrap();
        assert_eq!(cursor.into_inner(), resident);
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample_trace();
        let buf = encode(&t);
        let mut r = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.name(), t.name());
        assert_eq!(r.inst_count(), t.inst_count() as u64);
        assert_eq!(r.exec_stats(), t.exec_stats());
        let decoded: Vec<DynInst> = r.by_ref().map(|d| d.unwrap()).collect();
        assert_eq!(decoded, t.insts());
    }

    #[test]
    fn compact_relative_to_fixed_width() {
        // A connected trace should cost only a few bytes per instruction —
        // far below the ~26-byte fixed-width lower bound (ip, next_ip,
        // target, shape).
        let t = sample_trace();
        let buf = encode(&t);
        let per_inst = buf.len() as f64 / t.inst_count() as f64;
        assert!(per_inst < 6.0, "encoding too fat: {per_inst:.2} bytes/inst");
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        // Flip one byte at a time across a small file: every corruption
        // must surface as Err (CRC at minimum), never a panic, and never
        // a silently different stream.
        let t = standard_traces()[0].capture(50);
        let buf = encode(&t);
        for pos in 0..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0x41;
            let outcome: Result<Vec<DynInst>, TraceError> = match TraceReader::new(bad.as_slice()) {
                Ok(r) => r.collect(),
                Err(e) => Err(e),
            };
            match outcome {
                Err(_) => {}
                Ok(decoded) => {
                    panic!("flip at byte {pos} went undetected ({} insts decoded)", decoded.len())
                }
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let t = sample_trace();
        let buf = encode(&t);
        for cut in [3, 10, buf.len() / 2, buf.len() - 1] {
            let outcome: Result<Vec<DynInst>, TraceError> = match TraceReader::new(&buf[..cut]) {
                Ok(r) => r.collect(),
                Err(e) => Err(e),
            };
            assert!(outcome.is_err(), "truncation at {cut} went undetected");
        }
    }

    #[test]
    fn version_mismatch_is_reported() {
        let t = standard_traces()[0].capture(10);
        let mut buf = encode(&t);
        buf[4] = 99; // version field follows the 4-byte magic
        match TraceReader::new(buf.as_slice()) {
            Err(TraceError::Version(99)) => {}
            Err(other) => panic!("expected version error, got {other}"),
            Ok(_) => panic!("expected version error, got a reader"),
        }
    }

    /// splitmix64: tiny and seedable, for the mutation and split tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// The bytewise CRC32 kernel that slicing-by-8 replaced: the reference
    /// the fast kernel must match.
    fn crc32_bytewise(crc: u32, bytes: &[u8]) -> u32 {
        let mut c = !crc;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_reference() {
        let mut rng = Rng(0x5eed_c3c3);
        let data: Vec<u8> = (0..8192).map(|_| rng.next() as u8).collect();
        // Every length 0..=64 at every start alignment, from a zero and a
        // non-zero running CRC.
        for align in 0..8 {
            for len in 0..=64 {
                let bytes = &data[align..align + len];
                for seed in [0, 0xDEAD_BEEF] {
                    assert_eq!(
                        crc32_update(seed, bytes),
                        crc32_bytewise(seed, bytes),
                        "align {align}, len {len}, seed {seed:#x}"
                    );
                }
            }
        }
        // Random incremental splits fold to the one-shot reference.
        let whole = crc32_bytewise(0, &data);
        for _ in 0..200 {
            let (mut crc, mut at) = (0, 0);
            while at < data.len() {
                let step = 1 + rng.below(97.min(data.len() - at));
                crc = crc32_update(crc, &data[at..at + step]);
                at += step;
            }
            assert_eq!(crc, whole);
        }
    }

    /// Decodes through the batch path in batches of `batch`.
    fn decode_batched(bytes: &[u8], batch: usize) -> Result<Vec<DynInst>, TraceError> {
        let mut r = TraceReader::new(bytes)?;
        let mut out = Vec::new();
        while r.fill(&mut out, batch)? == batch {}
        Ok(out)
    }

    /// Decodes through the per-record iterator.
    fn decode_iter(bytes: &[u8]) -> Result<Vec<DynInst>, TraceError> {
        TraceReader::new(bytes)?.collect()
    }

    fn validate_only(bytes: &[u8]) -> Result<(), TraceError> {
        TraceReader::new(bytes)?.validate()
    }

    /// Runs every reader mode over `bytes`, asserts they agree on
    /// accept/reject (and on the stream, when accepted), and returns the
    /// shared verdict.
    fn agreed_verdict(bytes: &[u8], what: &str) -> bool {
        let whole = decode_batched(bytes, usize::MAX);
        let batched = decode_batched(bytes, 3);
        let iter = decode_iter(bytes);
        let valid = validate_only(bytes);
        let verdicts = [whole.is_ok(), batched.is_ok(), iter.is_ok(), valid.is_ok()];
        assert!(
            verdicts.iter().all(|&v| v == verdicts[0]),
            "{what}: modes disagree (decode, batch-3, iterator, validate-only) = {verdicts:?}"
        );
        if let (Ok(a), Ok(b), Ok(c)) = (&whole, &batched, &iter) {
            assert!(a == b && a == c, "{what}: modes decoded different streams");
        }
        verdicts[0]
    }

    /// Rewrites the last four bytes as the CRC of everything between the
    /// magic and them, so a mutated entry reaches the structural checks
    /// instead of failing on the CRC alone.
    fn resealed(bytes: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        if out.len() >= MAGIC.len() + 4 {
            let body = out.len() - 4;
            let crc = crc32(&out[MAGIC.len()..body]);
            out[body..].copy_from_slice(&crc.to_le_bytes());
        }
        out
    }

    #[test]
    fn validate_only_and_decoding_accept_the_same_inputs() {
        let t = standard_traces()[0].capture(50);
        let buf = encode(&t);
        assert!(agreed_verdict(&buf, "intact entry"));
        // Every single-byte flip and every truncation is rejected by every
        // mode (agreeing with the two detection tests above). Resealed
        // with a matching CRC they exercise the record grammar itself:
        // the modes must still agree, and the grammar must catch some.
        let mut grammar_rejects = 0;
        for pos in 0..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0x41;
            assert!(!agreed_verdict(&bad, &format!("flip at {pos}")), "flip at {pos} accepted");
            if !agreed_verdict(&resealed(&bad), &format!("resealed flip at {pos}")) {
                grammar_rejects += 1;
            }
        }
        for cut in 0..buf.len() {
            assert!(
                !agreed_verdict(&buf[..cut], &format!("cut at {cut}")),
                "cut at {cut} accepted"
            );
            let sealed = resealed(&buf[..cut]);
            assert!(!agreed_verdict(&sealed, &format!("resealed cut at {cut}")));
        }
        assert!(grammar_rejects > 0, "no resealed flip reached a structural check");
        // Seeded multi-byte mutations (overwrites, insertions, deletions),
        // raw and resealed.
        let mut rng = Rng(0x0bad_c0de);
        for round in 0..3000 {
            let mut bad = buf.clone();
            for _ in 0..1 + rng.below(4) {
                let pos = rng.below(bad.len());
                match rng.below(3) {
                    0 => bad[pos] = rng.next() as u8,
                    1 => bad.insert(pos, rng.next() as u8),
                    _ => {
                        bad.remove(pos);
                    }
                }
            }
            agreed_verdict(&bad, &format!("mutation round {round}"));
            agreed_verdict(&resealed(&bad), &format!("resealed mutation round {round}"));
        }
    }

    /// Hands out a byte slice in reads of rotating, mostly odd sizes.
    struct Dribble<'a> {
        bytes: &'a [u8],
        sizes: &'a [usize],
        turn: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.sizes[self.turn % self.sizes.len()].min(out.len()).min(self.bytes.len());
            self.turn += 1;
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn decoding_spans_block_boundaries_and_short_reads() {
        // Several 64 KiB blocks, so records straddle block boundaries.
        let t = standard_traces()[4].capture(120_000);
        let buf = encode(&t);
        assert!(buf.len() > 3 * BLOCK);
        for sizes in [&[BLOCK][..], &[1, 7, 33, 4093], &[65_521, 3, 1000]] {
            let dribble = |bytes| Dribble { bytes, sizes, turn: 0 };
            let mut r = TraceReader::new(dribble(&buf)).unwrap();
            let mut got = Vec::new();
            while r.fill(&mut got, 4099).unwrap() == 4099 {}
            assert_eq!(got, t.insts(), "read sizes {sizes:?}");
            TraceReader::new(dribble(&buf)).unwrap().validate().unwrap();
            // A flip and a cut deep past the first block are still caught
            // by both modes.
            let mut bad = buf.clone();
            bad[2 * BLOCK + 5] ^= 0x10;
            for broken in [&bad[..], &buf[..2 * BLOCK + 17]] {
                assert!(TraceReader::new(dribble(broken)).unwrap().validate().is_err());
                let mut r = TraceReader::new(dribble(broken)).unwrap();
                assert!(r.fill(&mut Vec::new(), usize::MAX).is_err());
            }
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 0x1234_5678_9ABC] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
