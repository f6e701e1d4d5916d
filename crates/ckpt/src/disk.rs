//! Durable on-disk checkpoint tier with a crash-consistent file format.
//!
//! The in-memory [`CheckpointStore`](crate::store::CheckpointStore) models
//! FTI's metadata handling but evaporates with the process — useless for
//! the one scenario checkpointing exists for.  [`DiskStore`] adds the
//! durable tier: every committed checkpoint becomes one self-describing
//! file that a *fresh* process can reopen, validate and resume from.
//!
//! # File format (version 2, all integers little-endian)
//!
//! | offset | field |
//! |---|---|
//! | 0  | magic `LCRCKPT0` (8 bytes) |
//! | 8  | format version `u32` |
//! | 12 | metadata length `M` `u32` |
//! | 16 | metadata block (`M` bytes, layout below) |
//! | 16+M | metadata CRC32 `u32` over bytes `[0, 16+M)` |
//! | 20+M | payloads, concatenated in segment-table order |
//!
//! Metadata block: checkpoint id `u64` · iteration `u64` · completed-at
//! `f64` bits · storage level `u8` · original bytes `u64` · **encoding tag
//! `u8`** (0 = anchor, 1/2 = temporal delta of that order) · **base
//! checkpoint id `u64`** (*only when the tag is 1 or 2*) ·
//! strategy tag (`u16` length + UTF-8) · scalar count `u32` + per scalar
//! (`u16` name length + name + `f64` bits) · segment count `u32` + per
//! segment (`u16` name length + name + payload length `u64` + payload
//! CRC32 `u32`).
//!
//! Only version 2 parses; a file stamped with any other version is
//! corrupt and recovery skips it.
//!
//! # Delta chains
//!
//! A delta-encoded checkpoint stores temporally delta-coded payload
//! streams that decode only against its base checkpoint's streams
//! (see `lcr-compress`); the base link is recorded in the header.
//! Two rules keep the durable tier consistent with that dependency:
//!
//! * **Retention** evicts whole chains: the oldest file is deleted only
//!   together with every file that (transitively) delta-depends on it, so
//!   a live delta never loses its base — the window temporarily stretches
//!   past `retain` instead (`DiskStore::register`).
//! * **Recovery** returns whole chains: [`DiskStore::latest_valid_chain`]
//!   walks candidates newest→oldest, follows base links back to the
//!   nearest anchor, and CRC-validates *every* member.  If any member is
//!   corrupt the whole dependent chain is abandoned and recovery falls
//!   back to the newest older complete chain.
//!
//! # Atomicity and crash consistency
//!
//! * A checkpoint is written to `<name>.tmp`, `fsync`ed, then `rename`d to
//!   its final name (and the directory is fsynced best-effort): the rename
//!   is the commit point, so a crash mid-write leaves only a `.tmp` file
//!   that [`DiskStore::open`] discards.  A complete file never coexists
//!   with a partial one under the same final name.
//! * The segment table pins the exact file length, the metadata CRC covers
//!   everything up to the payloads and each payload carries its own CRC32
//!   — a truncated, extended or bit-flipped file is rejected, and
//!   [`DiskStore::latest_valid`] falls back to the next-newest complete
//!   checkpoint (FTI's rule: only a *completed* write is recoverable).
//!
//! # Write-behind
//!
//! With [`DiskStore::set_write_behind`] the store hands the whole
//! [`CheckpointBuffer`] arena to a background I/O thread and immediately
//! returns a recycled arena, so file I/O overlaps the next solver
//! iterations.  The header (payload CRCs included) is encoded before the
//! hand-off, so invalid arguments fail the push itself.  At most one
//! write is in flight (double buffering): a second push,
//! [`DiskStore::flush`] or any recovery first joins the outstanding
//! write, so recovery never races a half-written file.

use crate::backend::{OsBackend, RetryPolicy, StorageBackend};
use crate::pfs::CheckpointLevel;
use crate::store::{CheckpointBuffer, CheckpointEncoding, CheckpointMetadata};
use crate::{CkptError, Result};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

/// Magic bytes opening every checkpoint file.
pub const MAGIC: [u8; 8] = *b"LCRCKPT0";
/// The on-disk format version, the only one [`read_checkpoint_file`]
/// accepts.
pub const FORMAT_VERSION: u32 = 2;

/// Slicing-by-16 lookup tables for the reflected IEEE polynomial
/// `0xEDB88320`: `CRC_TABLES[0]` is the classic bytewise table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// sixteen lookups advance the CRC over sixteen input bytes at once.
const fn make_crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1usize;
    while t < 16 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = make_crc_tables();

/// IEEE CRC-32 (the zip/PNG polynomial) of `bytes`, computed
/// slicing-by-16: sixteen input bytes per step, bytewise for the tail.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let b: &[u8; 16] = block.try_into().expect("16-byte block");
        let w = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(w & 0xFF) as usize]
            ^ t[14][((w >> 8) & 0xFF) as usize]
            ^ t[13][((w >> 16) & 0xFF) as usize]
            ^ t[12][(w >> 24) as usize]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in blocks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

fn level_to_u8(level: CheckpointLevel) -> u8 {
    match level {
        CheckpointLevel::Local => 0,
        CheckpointLevel::Partner => 1,
        CheckpointLevel::ReedSolomon => 2,
        CheckpointLevel::Pfs => 3,
    }
}

fn level_from_u8(v: u8) -> Result<CheckpointLevel> {
    Ok(match v {
        0 => CheckpointLevel::Local,
        1 => CheckpointLevel::Partner,
        2 => CheckpointLevel::ReedSolomon,
        3 => CheckpointLevel::Pfs,
        _ => return Err(CkptError::Corrupt(format!("unknown storage level {v}"))),
    })
}

fn io_err(context: &str, err: std::io::Error) -> CkptError {
    CkptError::Io(format!("{context}: {err}"))
}

/// One checkpoint read back from the durable tier: everything a fresh
/// process needs to resume — metadata, the strategy tag recorded by the
/// writer, the checkpointed scalars, and the encoded payloads.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskCheckpoint {
    /// Descriptive metadata (unscaled: real stored byte counts).
    pub metadata: CheckpointMetadata,
    /// Name of the strategy that encoded the payloads
    /// (`CheckpointStrategy::name()` in `lcr-core`).
    pub tag: String,
    /// Scalars captured alongside the vectors (exact-recovery state).
    pub scalars: Vec<(String, f64)>,
    /// Encoded payload per variable id.
    pub payloads: Vec<(String, Vec<u8>)>,
}

/// Everything the serializer needs to produce one checkpoint file.
#[derive(Debug, Clone)]
struct FileMeta {
    id: u64,
    iteration: usize,
    completed_at: f64,
    level: CheckpointLevel,
    original_bytes: usize,
    encoding: CheckpointEncoding,
    tag: String,
    scalars: Vec<(String, f64)>,
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<()> {
    let len = u16::try_from(s.len()).map_err(|_| {
        CkptError::InvalidArgument(format!(
            "name of {} bytes exceeds the format's 65535-byte limit",
            s.len()
        ))
    })?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Serializes the header (magic + version + metadata + metadata CRC) for a
/// checkpoint whose payloads are the segments of `buffer`.
///
/// # Errors
/// [`CkptError::InvalidArgument`] if the strategy tag, a scalar name or a
/// variable name is longer than 65,535 bytes.
fn encode_header(meta: &FileMeta, buffer: &CheckpointBuffer) -> Result<Vec<u8>> {
    let mut block = Vec::with_capacity(64 + 32 * buffer.n_variables());
    block.extend_from_slice(&meta.id.to_le_bytes());
    block.extend_from_slice(&(meta.iteration as u64).to_le_bytes());
    block.extend_from_slice(&meta.completed_at.to_bits().to_le_bytes());
    block.push(level_to_u8(meta.level));
    block.extend_from_slice(&(meta.original_bytes as u64).to_le_bytes());
    match meta.encoding {
        CheckpointEncoding::Anchor => block.push(0),
        CheckpointEncoding::Delta { base_id, order } => {
            block.push(order);
            block.extend_from_slice(&base_id.to_le_bytes());
        }
    }
    put_str(&mut block, &meta.tag)?;
    block.extend_from_slice(&(meta.scalars.len() as u32).to_le_bytes());
    for (name, value) in &meta.scalars {
        put_str(&mut block, name)?;
        block.extend_from_slice(&value.to_bits().to_le_bytes());
    }
    block.extend_from_slice(&(buffer.n_variables() as u32).to_le_bytes());
    for (name, payload) in buffer.segments() {
        put_str(&mut block, name)?;
        block.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        block.extend_from_slice(&crc32(payload).to_le_bytes());
    }

    let mut out = Vec::with_capacity(16 + block.len() + 4);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(block.len() as u32).to_le_bytes());
    out.extend_from_slice(&block);
    out.extend_from_slice(&crc32(&out).to_le_bytes());
    Ok(out)
}

/// Bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| CkptError::Corrupt("metadata block truncated".into()))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u16()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| CkptError::Corrupt("non-UTF-8 name in metadata".into()))
    }

    fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Parsed header plus where each payload lives in the file.
struct ParsedHeader {
    meta: FileMeta,
    /// `(variable id, offset-in-file, length, crc)` per segment.
    segments: Vec<(String, usize, usize, u32)>,
    /// Expected total file length.
    file_len: usize,
}

fn parse_header(bytes: &[u8], path: &Path) -> Result<ParsedHeader> {
    let corrupt = |msg: &str| CkptError::Corrupt(format!("{}: {msg}", path.display()));
    if bytes.len() < 20 {
        return Err(corrupt("shorter than the fixed header"));
    }
    if bytes[..8] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(corrupt(&format!("unsupported format version {version}")));
    }
    let meta_len = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
    let crc_at = 16usize
        .checked_add(meta_len)
        .filter(|&e| e + 4 <= bytes.len())
        .ok_or_else(|| corrupt("metadata length exceeds file"))?;
    let stored_crc = u32::from_le_bytes(bytes[crc_at..crc_at + 4].try_into().expect("4 bytes"));
    if crc32(&bytes[..crc_at]) != stored_crc {
        return Err(corrupt("metadata CRC mismatch"));
    }

    let mut r = Reader::new(&bytes[16..crc_at]);
    let id = r.u64()?;
    let iteration = usize::try_from(r.u64()?)
        .map_err(|_| corrupt("iteration does not fit in usize"))?;
    let completed_at = r.f64()?;
    let level = level_from_u8(r.u8()?)?;
    let original_bytes = usize::try_from(r.u64()?)
        .map_err(|_| corrupt("original size does not fit in usize"))?;
    let encoding = match r.u8()? {
        0 => CheckpointEncoding::Anchor,
        order @ (1 | 2) => CheckpointEncoding::Delta {
            base_id: r.u64()?,
            order,
        },
        other => return Err(corrupt(&format!("unknown encoding tag {other}"))),
    };
    let tag = r.string()?;
    let n_scalars = r.u32()? as usize;
    let mut scalars = Vec::with_capacity(n_scalars.min(1024));
    for _ in 0..n_scalars {
        let name = r.string()?;
        let value = r.f64()?;
        scalars.push((name, value));
    }
    let n_segments = r.u32()? as usize;
    let mut segments = Vec::with_capacity(n_segments.min(1024));
    let mut offset = crc_at + 4;
    for _ in 0..n_segments {
        let name = r.string()?;
        let len = usize::try_from(r.u64()?)
            .map_err(|_| corrupt("payload length does not fit in usize"))?;
        let crc = r.u32()?;
        segments.push((name, offset, len, crc));
        offset = offset
            .checked_add(len)
            .ok_or_else(|| corrupt("payload lengths overflow"))?;
    }
    if !r.finished() {
        return Err(corrupt("trailing bytes in metadata block"));
    }
    Ok(ParsedHeader {
        meta: FileMeta {
            id,
            iteration,
            completed_at,
            level,
            original_bytes,
            encoding,
            tag,
            scalars,
        },
        segments,
        file_len: offset,
    })
}

/// Reads and fully validates one checkpoint file: magic, version, metadata
/// CRC, exact file length from the segment table, and every payload CRC.
///
/// # Errors
/// [`CkptError::Io`] if the file cannot be read, [`CkptError::Corrupt`] if
/// any validation fails (a partially written or bit-flipped checkpoint is
/// never returned).
pub fn read_checkpoint_file(path: &Path) -> Result<DiskCheckpoint> {
    read_checkpoint_with(&OsBackend, path)
}

/// [`read_checkpoint_file`] routed through an explicit [`StorageBackend`]
/// (the seam fault injectors and alternative storage tiers plug into).
///
/// # Errors
/// Same contract as [`read_checkpoint_file`].
pub fn read_checkpoint_with(backend: &dyn StorageBackend, path: &Path) -> Result<DiskCheckpoint> {
    let bytes = backend
        .read(path)
        .map_err(|e| io_err("reading checkpoint", e))?;
    parse_checkpoint_bytes(&bytes, path)
}

/// Validates and decodes one fully-read checkpoint image.
fn parse_checkpoint_bytes(bytes: &[u8], path: &Path) -> Result<DiskCheckpoint> {
    let parsed = parse_header(bytes, path)?;
    if bytes.len() != parsed.file_len {
        return Err(CkptError::Corrupt(format!(
            "{}: file is {} bytes, segment table requires {}",
            path.display(),
            bytes.len(),
            parsed.file_len
        )));
    }
    let mut payloads = Vec::with_capacity(parsed.segments.len());
    let mut variable_bytes = Vec::with_capacity(parsed.segments.len());
    for (name, offset, len, expected_crc) in parsed.segments {
        let payload = &bytes[offset..offset + len];
        if crc32(payload) != expected_crc {
            return Err(CkptError::Corrupt(format!(
                "{}: payload CRC mismatch for variable {name:?}",
                path.display()
            )));
        }
        variable_bytes.push((name.clone(), len));
        payloads.push((name, payload.to_vec()));
    }
    let total_bytes = variable_bytes.iter().map(|(_, b)| *b).sum();
    Ok(DiskCheckpoint {
        metadata: CheckpointMetadata {
            id: parsed.meta.id,
            iteration: parsed.meta.iteration,
            completed_at: parsed.meta.completed_at,
            level: parsed.meta.level,
            total_bytes,
            original_bytes: parsed.meta.original_bytes,
            encoding: parsed.meta.encoding,
            variable_bytes,
        },
        tag: parsed.meta.tag,
        scalars: parsed.meta.scalars,
        payloads,
    })
}

/// Writes `header` + `payload` to `tmp`, fsyncs, and renames to `fin` (the
/// commit point); the directory is fsynced best-effort afterwards.  All
/// file I/O goes through `backend` so faults can be injected at each step.
fn write_atomic(
    backend: &dyn StorageBackend,
    tmp: &Path,
    fin: &Path,
    header: &[u8],
    payload: &[u8],
) -> std::io::Result<()> {
    backend.write_file(tmp, &[header, payload])?;
    backend.fsync(tmp)?;
    backend.rename(tmp, fin)?;
    if let Some(dir) = fin.parent() {
        let _ = backend.fsync_dir(dir);
    }
    Ok(())
}

/// Runs one write-behind job with retries; returns the result plus the
/// retry count and backoff schedule so the owning store can account for
/// the supervision work done on the I/O thread.
fn write_job(job: &Job) -> (std::result::Result<(), String>, u32, Vec<f64>) {
    let (result, retries, backoff) = job.retry.run(|| {
        write_atomic(
            job.backend.as_ref(),
            &job.tmp,
            &job.fin,
            &job.header,
            job.buffer.arena_bytes(),
        )
    });
    (
        result.map_err(|e| format!("writing {}: {e}", job.fin.display())),
        retries,
        backoff,
    )
}

struct Job {
    id: u64,
    tmp: PathBuf,
    fin: PathBuf,
    /// Encoded on the pushing thread, so a bad argument fails the push
    /// itself rather than a deferred write.
    header: Vec<u8>,
    buffer: CheckpointBuffer,
    backend: Arc<dyn StorageBackend>,
    retry: RetryPolicy,
}

struct JobDone {
    id: u64,
    buffer: CheckpointBuffer,
    result: std::result::Result<(), String>,
    retries: u32,
    backoff: Vec<f64>,
}

struct WriteBehind {
    tx: mpsc::Sender<Job>,
    done_rx: mpsc::Receiver<JobDone>,
    handle: Option<thread::JoinHandle<()>>,
    in_flight: usize,
}

impl WriteBehind {
    fn spawn() -> Self {
        let (tx, rx) = mpsc::channel::<Job>();
        let (done_tx, done_rx) = mpsc::channel::<JobDone>();
        let handle = thread::Builder::new()
            .name("lcr-ckpt-io".into())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    let (result, retries, backoff) = write_job(&job);
                    let done = JobDone {
                        id: job.id,
                        buffer: job.buffer,
                        result,
                        retries,
                        backoff,
                    };
                    if done_tx.send(done).is_err() {
                        break;
                    }
                }
            })
            .expect("spawning the checkpoint I/O thread");
        WriteBehind {
            tx,
            done_rx,
            handle: Some(handle),
            in_flight: 0,
        }
    }
}

#[derive(Debug, Clone)]
struct DiskEntry {
    id: u64,
    path: PathBuf,
    metadata: CheckpointMetadata,
    /// Header-validated; cleared when a full read later finds corruption or
    /// the write-behind write for this entry fails.
    valid: bool,
}

/// Durable on-disk checkpoint store mirroring the in-memory
/// [`CheckpointStore`](crate::store::CheckpointStore) API: push from a
/// [`CheckpointBuffer`], read the newest *complete* checkpoint back, and
/// evict stale files beyond the retention limit.
pub struct DiskStore {
    dir: PathBuf,
    retain: usize,
    next_id: u64,
    entries: VecDeque<DiskEntry>,
    write_behind: Option<WriteBehind>,
    first_error: Option<String>,
    backend: Arc<dyn StorageBackend>,
    retry: RetryPolicy,
    /// Total transient-I/O retries performed (sync and write-behind).
    io_retries: u64,
    /// Pushes that needed at least one retry but ultimately committed.
    retried_pushes: u64,
    /// Seconds slept before each retry, in order (the backoff schedule).
    backoff_log: Vec<f64>,
    /// Memoized result of the last newest-valid-chain scan; invalidated
    /// on push, eviction, or any entry invalidation.
    chain_cache: Option<Vec<DiskCheckpoint>>,
    /// Cold (uncached) newest-valid scans performed.
    chain_scans: u64,
    /// Cumulative bytes handed to the durable tier (payloads only).
    pub total_bytes_written: u64,
}

impl std::fmt::Debug for DiskStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskStore")
            .field("dir", &self.dir)
            .field("retain", &self.retain)
            .field("next_id", &self.next_id)
            .field("entries", &self.entries.len())
            .field("write_behind", &self.write_behind.is_some())
            .field("io_retries", &self.io_retries)
            .field("total_bytes_written", &self.total_bytes_written)
            .finish()
    }
}

impl DiskStore {
    /// Opens (creating if needed) a checkpoint directory, keeping the
    /// `retain` most recent checkpoints.
    ///
    /// Stray `.tmp` files — the residue of a crash mid-write — are deleted;
    /// existing checkpoint files are header-validated and indexed so a
    /// fresh process can resume from [`DiskStore::latest_valid`].
    /// Corrupt or incomplete files are kept on disk but never selected.
    ///
    /// # Errors
    /// [`CkptError::InvalidArgument`] if `retain` is zero;
    /// [`CkptError::Io`] if the directory cannot be created or scanned.
    pub fn open(dir: impl AsRef<Path>, retain: usize) -> Result<Self> {
        Self::open_with_backend(dir, retain, Arc::new(OsBackend))
    }

    /// [`DiskStore::open`] over an explicit [`StorageBackend`] — the seam
    /// the chaos engine (and any future remote tier) plugs into.  All
    /// subsequent file I/O of this store, including the write-behind
    /// thread's, goes through `backend`.
    ///
    /// # Errors
    /// Same contract as [`DiskStore::open`].
    pub fn open_with_backend(
        dir: impl AsRef<Path>,
        retain: usize,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self> {
        if retain == 0 {
            return Err(CkptError::InvalidArgument(
                "must retain at least one checkpoint".into(),
            ));
        }
        let dir = dir.as_ref().to_path_buf();
        backend
            .create_dir_all(&dir)
            .map_err(|e| io_err("creating checkpoint directory", e))?;

        let mut entries: Vec<DiskEntry> = Vec::new();
        let listing = backend
            .list_dir(&dir)
            .map_err(|e| io_err("scanning checkpoint directory", e))?;
        for path in listing {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.ends_with(".tmp") {
                // A crash interrupted this write before the rename commit
                // point — by construction it is not a checkpoint.
                let _ = backend.remove_file(&path);
                continue;
            }
            let Some(id) = name
                .strip_prefix("ckpt-")
                .and_then(|rest| rest.strip_suffix(".lcr"))
                .and_then(|digits| digits.parse::<u64>().ok())
            else {
                continue;
            };
            let (metadata, valid) = match Self::validate_header(backend.as_ref(), &path) {
                Ok(metadata) => (metadata, true),
                Err(_) => (
                    CheckpointMetadata {
                        id,
                        iteration: 0,
                        completed_at: 0.0,
                        level: CheckpointLevel::Pfs,
                        total_bytes: 0,
                        original_bytes: 0,
                        encoding: CheckpointEncoding::Anchor,
                        variable_bytes: Vec::new(),
                    },
                    false,
                ),
            };
            entries.push(DiskEntry {
                id,
                path,
                metadata,
                valid,
            });
        }
        entries.sort_by_key(|e| e.id);
        let next_id = entries.last().map(|e| e.id + 1).unwrap_or(0);
        Ok(DiskStore {
            dir,
            retain,
            next_id,
            entries: entries.into(),
            write_behind: None,
            first_error: None,
            backend,
            retry: RetryPolicy::default(),
            io_retries: 0,
            retried_pushes: 0,
            backoff_log: Vec::new(),
            chain_cache: None,
            chain_scans: 0,
            total_bytes_written: 0,
        })
    }

    /// Header validation (magic, version, metadata CRC, file length):
    /// cheap enough for the open-time scan — only the header is read, the
    /// payload region is length-checked via the file size; payload CRCs
    /// are checked when a checkpoint is actually read for recovery.
    fn validate_header(backend: &dyn StorageBackend, path: &Path) -> Result<CheckpointMetadata> {
        let file_len = backend
            .file_len(path)
            .map_err(|e| io_err("statting checkpoint", e))?;
        if file_len < 16 {
            return Err(CkptError::Corrupt(format!(
                "{}: shorter than the fixed header",
                path.display()
            )));
        }
        let fixed = backend
            .read_prefix(path, 16)
            .map_err(|e| io_err("reading checkpoint header", e))?;
        let meta_len = u64::from(u32::from_le_bytes(
            fixed[12..16].try_into().expect("4 bytes"),
        ));
        // Bound the header allocation by the real file size before trusting
        // the length field.
        let header_len = 16 + meta_len + 4;
        if header_len > file_len {
            return Err(CkptError::Corrupt(format!(
                "{}: metadata length exceeds file",
                path.display()
            )));
        }
        let header = backend
            .read_prefix(path, header_len as usize)
            .map_err(|e| io_err("reading checkpoint header", e))?;
        let parsed = parse_header(&header, path)?;
        if file_len != parsed.file_len as u64 {
            return Err(CkptError::Corrupt(format!(
                "{}: incomplete checkpoint ({} of {} bytes)",
                path.display(),
                file_len,
                parsed.file_len
            )));
        }
        let variable_bytes: Vec<(String, usize)> = parsed
            .segments
            .iter()
            .map(|(name, _, len, _)| (name.clone(), *len))
            .collect();
        let total_bytes = variable_bytes.iter().map(|(_, b)| *b).sum();
        Ok(CheckpointMetadata {
            id: parsed.meta.id,
            iteration: parsed.meta.iteration,
            completed_at: parsed.meta.completed_at,
            level: parsed.meta.level,
            total_bytes,
            original_bytes: parsed.meta.original_bytes,
            encoding: parsed.meta.encoding,
            variable_bytes,
        })
    }

    /// The directory this store writes to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The retention limit.
    pub fn retain(&self) -> usize {
        self.retain
    }

    /// The storage backend every file operation of this store goes
    /// through.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// Replaces the transient-error retry policy (default:
    /// [`RetryPolicy::default`]).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// The active transient-error retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Total transient-I/O retries performed so far (reads and writes,
    /// sync and write-behind).
    pub fn io_retries(&self) -> u64 {
        self.io_retries
    }

    /// Pushes that needed at least one retry but ultimately committed.
    pub fn retried_pushes(&self) -> u64 {
        self.retried_pushes
    }

    /// Seconds slept before each retry, in order — the realized backoff
    /// schedule.
    pub fn backoff_log(&self) -> &[f64] {
        &self.backoff_log
    }

    /// Cold newest-valid-chain scans performed (cache misses).  The
    /// memoized result is served in between, so repeated recoveries
    /// without new pushes cost one scan.
    pub fn chain_scans(&self) -> u64 {
        self.chain_scans
    }

    /// Number of (header-)valid checkpoints currently indexed.
    pub fn len(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }

    /// Whether no valid checkpoint is available.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Metadata of every valid checkpoint, oldest first.
    pub fn metadata(&self) -> Vec<&CheckpointMetadata> {
        self.entries
            .iter()
            .filter(|e| e.valid)
            .map(|e| &e.metadata)
            .collect()
    }

    /// Enables or disables write-behind.  Disabling joins the outstanding
    /// write first and surfaces any deferred I/O error.
    ///
    /// # Errors
    /// [`CkptError::Io`] if a deferred write failed while disabling.
    pub fn set_write_behind(&mut self, enabled: bool) -> Result<()> {
        if enabled {
            if self.write_behind.is_none() {
                self.write_behind = Some(WriteBehind::spawn());
            }
            Ok(())
        } else {
            let result = self.flush();
            if let Some(wb) = self.write_behind.take() {
                Self::shutdown_worker(wb);
            }
            result
        }
    }

    /// Whether a background I/O thread handles the writes.
    pub fn write_behind_enabled(&self) -> bool {
        self.write_behind.is_some()
    }

    fn paths_for(&self, id: u64) -> (PathBuf, PathBuf) {
        let fin = self.dir.join(format!("ckpt-{id:010}.lcr"));
        let tmp = self.dir.join(format!("ckpt-{id:010}.lcr.tmp"));
        (fin, tmp)
    }

    fn record_done(&mut self, done: JobDone) -> CheckpointBuffer {
        self.io_retries += u64::from(done.retries);
        self.backoff_log.extend_from_slice(&done.backoff);
        match done.result {
            Ok(()) => {
                if done.retries > 0 {
                    self.retried_pushes += 1;
                }
            }
            Err(msg) => {
                if let Some(entry) = self.entries.iter_mut().find(|e| e.id == done.id) {
                    entry.valid = false;
                }
                self.chain_cache = None;
                self.first_error.get_or_insert(msg);
            }
        }
        done.buffer
    }

    /// Joins the outstanding write-behind job, if any, returning its
    /// recycled buffer.
    fn join_one(&mut self) -> Option<CheckpointBuffer> {
        let done = {
            let wb = self.write_behind.as_mut()?;
            if wb.in_flight == 0 {
                return None;
            }
            wb.in_flight -= 1;
            wb.done_rx.recv().ok()
        };
        done.map(|d| self.record_done(d))
    }

    fn join_all(&mut self) {
        while self.join_one().is_some() {}
    }

    /// Waits for all in-flight writes to reach disk.
    ///
    /// # Errors
    /// [`CkptError::Io`] carrying the first deferred write error, if any
    /// write failed since the last flush (the failed checkpoint is marked
    /// invalid and will never be selected for recovery).
    pub fn flush(&mut self) -> Result<()> {
        self.join_all();
        match self.first_error.take() {
            Some(msg) => Err(CkptError::Io(msg)),
            None => Ok(()),
        }
    }

    fn register(&mut self, id: u64, path: PathBuf, metadata: CheckpointMetadata) {
        self.total_bytes_written += metadata.total_bytes as u64;
        self.chain_cache = None;
        self.entries.push_back(DiskEntry {
            id,
            path,
            metadata,
            valid: true,
        });
        // Retention: drop oldest files until at most `retain` valid
        // checkpoints remain — but only whole dependency chains.  Deleting
        // an anchor while a retained delta still decodes against it would
        // orphan that delta, so the front chain is evicted all-or-nothing
        // and the window temporarily stretches past `retain` when the
        // front chain reaches the newest entry.  Only entries strictly
        // older than the newest are ever popped, and pushes join the
        // previous async write first, so an in-flight file is never
        // evicted.
        while self.len() > self.retain {
            let chain_len = self.front_chain_len();
            if chain_len >= self.entries.len() {
                break;
            }
            for _ in 0..chain_len {
                if let Some(old) = self.entries.pop_front() {
                    let _ = self.backend.remove_file(&old.path);
                }
            }
        }
    }

    /// Length of the dependency chain at the front of the index: the
    /// oldest file plus every following file that (directly or
    /// transitively) delta-depends on it.
    fn front_chain_len(&self) -> usize {
        let mut len = 1;
        while len < self.entries.len() {
            let prev_id = self.entries[len - 1].id;
            match self.entries[len].metadata.encoding {
                CheckpointEncoding::Delta { base_id, .. } if base_id == prev_id => len += 1,
                _ => break,
            }
        }
        len
    }

    /// Resolves `delta_order` into the encoding recorded in the header: a
    /// delta is always coded against the checkpoint pushed immediately
    /// before it (the newest indexed entry at push time).
    ///
    /// # Errors
    /// [`CkptError::InvalidArgument`] if a delta is pushed into an empty
    /// store: a delta without a base is undecodable by construction.
    fn encoding_for(&self, delta_order: Option<u8>) -> Result<CheckpointEncoding> {
        let Some(order) = delta_order else {
            return Ok(CheckpointEncoding::Anchor);
        };
        let base = self.entries.back().ok_or_else(|| {
            CkptError::InvalidArgument("delta checkpoint pushed into an empty disk store".into())
        })?;
        Ok(CheckpointEncoding::Delta {
            base_id: base.id,
            order,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn file_meta(
        &self,
        id: u64,
        iteration: usize,
        completed_at: f64,
        level: CheckpointLevel,
        original_bytes: usize,
        encoding: CheckpointEncoding,
        tag: &str,
        scalars: &[(String, f64)],
    ) -> FileMeta {
        FileMeta {
            id,
            iteration,
            completed_at,
            level,
            original_bytes,
            encoding,
            tag: tag.to_string(),
            scalars: scalars.to_vec(),
        }
    }

    fn metadata_for(
        meta: &FileMeta,
        buffer: &CheckpointBuffer,
    ) -> CheckpointMetadata {
        let variable_bytes: Vec<(String, usize)> = buffer
            .segments()
            .map(|(name, payload)| (name.to_string(), payload.len()))
            .collect();
        CheckpointMetadata {
            id: meta.id,
            iteration: meta.iteration,
            completed_at: meta.completed_at,
            level: meta.level,
            total_bytes: buffer.total_bytes(),
            original_bytes: meta.original_bytes,
            encoding: meta.encoding,
            variable_bytes,
        }
    }

    /// Writes one checkpoint synchronously (temp file + fsync + rename),
    /// registers it, and evicts checkpoints beyond the retention limit.
    ///
    /// `delta_order` of `Some(1 | 2)` records the payloads as temporal
    /// deltas of that order against the newest checkpoint in the store
    /// (see the module docs on delta chains); `None` records an anchor.
    ///
    /// # Errors
    /// [`CkptError::Io`] if the write fails (nothing is registered), or if
    /// a previously deferred write-behind error is pending;
    /// [`CkptError::InvalidArgument`] if a delta is pushed into an empty
    /// store or a name is longer than 65,535 bytes (nothing is written).
    #[allow(clippy::too_many_arguments)]
    pub fn push_from_buffer(
        &mut self,
        iteration: usize,
        completed_at: f64,
        level: CheckpointLevel,
        original_bytes: usize,
        delta_order: Option<u8>,
        tag: &str,
        scalars: &[(String, f64)],
        buffer: &CheckpointBuffer,
    ) -> Result<CheckpointMetadata> {
        self.flush()?;
        let encoding = self.encoding_for(delta_order)?;
        let id = self.next_id;
        let meta = self.file_meta(
            id,
            iteration,
            completed_at,
            level,
            original_bytes,
            encoding,
            tag,
            scalars,
        );
        let (fin, tmp) = self.paths_for(id);
        let header = encode_header(&meta, buffer)?;
        let (result, retries, backoff) = self
            .retry
            .run(|| write_atomic(self.backend.as_ref(), &tmp, &fin, &header, buffer.arena_bytes()));
        self.io_retries += u64::from(retries);
        self.backoff_log.extend_from_slice(&backoff);
        match result {
            Ok(()) if retries > 0 => self.retried_pushes += 1,
            Ok(()) => {}
            Err(e) => return Err(io_err("writing checkpoint", e)),
        }
        self.next_id += 1;
        let metadata = Self::metadata_for(&meta, buffer);
        self.register(id, fin, metadata.clone());
        Ok(metadata)
    }

    /// Hands the buffer to the background I/O thread and returns
    /// immediately with a recycled buffer to encode the next checkpoint
    /// into (double buffering).  If write-behind is not enabled, falls back
    /// to a synchronous write and returns the same buffer.
    ///
    /// At most one write is in flight: a second push joins the previous
    /// one first, so checkpoint I/O overlaps at most one checkpoint
    /// interval of solver iterations.
    ///
    /// # Errors
    /// [`CkptError::Io`] if the *previous* deferred write failed (the new
    /// checkpoint is still enqueued) or, in the synchronous fallback, if
    /// this write fails; [`CkptError::InvalidArgument`] as for
    /// [`DiskStore::push_from_buffer`], in which case nothing is enqueued
    /// and `buffer` itself is handed back.
    #[allow(clippy::too_many_arguments)]
    pub fn push_from_buffer_async(
        &mut self,
        iteration: usize,
        completed_at: f64,
        level: CheckpointLevel,
        original_bytes: usize,
        delta_order: Option<u8>,
        tag: &str,
        scalars: &[(String, f64)],
        buffer: CheckpointBuffer,
    ) -> (Result<CheckpointMetadata>, CheckpointBuffer) {
        if self.write_behind.is_none() {
            let result = self.push_from_buffer(
                iteration,
                completed_at,
                level,
                original_bytes,
                delta_order,
                tag,
                scalars,
                &buffer,
            );
            return (result, buffer);
        }
        let id = self.next_id;
        let prepared = self.encoding_for(delta_order).and_then(|encoding| {
            let meta = self.file_meta(
                id,
                iteration,
                completed_at,
                level,
                original_bytes,
                encoding,
                tag,
                scalars,
            );
            let header = encode_header(&meta, &buffer)?;
            Ok((meta, header))
        });
        let (meta, header) = match prepared {
            Ok(prepared) => prepared,
            Err(e) => return (Err(e), buffer),
        };
        let recycled = self.join_one().unwrap_or_default();
        let deferred_error = self.first_error.take();

        self.next_id += 1;
        let (fin, tmp) = self.paths_for(id);
        let metadata = Self::metadata_for(&meta, &buffer);
        let backend = Arc::clone(&self.backend);
        let retry = self.retry;
        let sent = {
            let wb = self.write_behind.as_mut().expect("write-behind checked above");
            let sent = wb.tx.send(Job {
                id,
                tmp,
                fin: fin.clone(),
                header,
                buffer,
                backend,
                retry,
            });
            if sent.is_ok() {
                wb.in_flight += 1;
            }
            sent
        };
        if sent.is_err() {
            // Nothing was enqueued — register nothing, count nothing.
            return (
                Err(CkptError::Io("checkpoint I/O thread is gone".into())),
                recycled,
            );
        }
        self.register(id, fin, metadata.clone());
        let result = match deferred_error {
            // Surface the *previous* checkpoint's deferred write failure on
            // the first push after it (its entry is already invalidated);
            // the current checkpoint is enqueued and will persist.
            Some(msg) => Err(CkptError::Io(msg)),
            None => Ok(metadata),
        };
        (result, recycled)
    }

    /// The newest *complete* checkpoint: the last link of
    /// [`DiskStore::latest_valid_chain`].  For anchor-only stores this is
    /// the historical single-file behaviour; a delta checkpoint returned
    /// here still needs the rest of its chain to decode, so chain-aware
    /// callers should use [`DiskStore::latest_valid_chain`] directly.
    ///
    /// # Errors
    /// [`CkptError::NoCheckpoint`] if no complete checkpoint exists.
    pub fn latest_valid(&mut self) -> Result<DiskCheckpoint> {
        let mut chain = self.latest_valid_chain()?;
        Ok(chain.pop().expect("a recovered chain is never empty"))
    }

    /// The newest *complete* checkpoint chain, anchor first: joins any
    /// in-flight write, then scans candidates newest-to-oldest.  For each
    /// candidate the base links are followed back to the nearest anchor
    /// and every member file is fully CRC-validated; the first candidate
    /// whose whole chain passes is returned.  A member that fails
    /// validation is marked invalid, which abandons every chain that
    /// depends on it, and the scan restarts — so a bit-flipped or
    /// truncated anchor makes recovery fall back to the newest older
    /// complete chain rather than returning undecodable deltas.
    ///
    /// # Errors
    /// [`CkptError::NoCheckpoint`] if no complete chain exists.
    pub fn latest_valid_chain(&mut self) -> Result<Vec<DiskCheckpoint>> {
        // Serve the memoized scan when nothing changed since: recovery can
        // run hundreds of times per soak and each cold scan re-reads and
        // re-CRCs every chain member.  The cache is dropped on push,
        // eviction, and any entry invalidation, and a cache hit implies no
        // push since the last scan, so no write can be in flight either.
        if let Some(chain) = &self.chain_cache {
            return Ok(chain.clone());
        }
        // Deferred write errors only invalidate their own entry; older
        // checkpoints remain recoverable, so do not surface them here.
        self.join_all();
        self.chain_scans += 1;
        // Each restart invalidates at least one previously valid entry, so
        // the scan terminates.
        'scan: loop {
            for idx in (0..self.entries.len()).rev() {
                if !self.entries[idx].valid {
                    continue;
                }
                let Some(member_idx) = self.chain_indices(idx) else {
                    // A base link is missing or invalid — this candidate
                    // can never decode; try the next-newest.
                    continue;
                };
                let mut links = Vec::with_capacity(member_idx.len());
                for &i in &member_idx {
                    let path = self.entries[i].path.clone();
                    match self.read_with_retry(&path) {
                        Ok(ckpt) => links.push(ckpt),
                        Err(_) => {
                            self.entries[i].valid = false;
                            self.chain_cache = None;
                            continue 'scan;
                        }
                    }
                }
                self.chain_cache = Some(links.clone());
                return Ok(links);
            }
            return Err(CkptError::NoCheckpoint);
        }
    }

    /// Fully reads and validates one checkpoint file through the backend,
    /// retrying *transient* read errors per the store's retry policy.
    /// Validation failures (CRC/format) are deterministic and never
    /// retried.
    fn read_with_retry(&mut self, path: &Path) -> Result<DiskCheckpoint> {
        let retry = self.retry;
        let (bytes, retries, backoff) = retry.run(|| self.backend.read(path));
        self.io_retries += u64::from(retries);
        self.backoff_log.extend_from_slice(&backoff);
        let bytes = bytes.map_err(|e| io_err("reading checkpoint", e))?;
        parse_checkpoint_bytes(&bytes, path)
    }

    /// Reads one *specific* self-contained checkpoint back by id,
    /// CRC-validating it — the per-shard epoch-recovery read: a failed
    /// shard must restore the newest *globally committed* epoch, which is
    /// not necessarily this store's newest file (a later epoch may have
    /// failed its commit barrier on another shard).
    ///
    /// Only anchor checkpoints can be addressed this way; a delta link
    /// needs its chain and must go through
    /// [`DiskStore::latest_valid_chain`].
    ///
    /// # Errors
    /// [`CkptError::NoCheckpoint`] if `id` is unknown or already marked
    /// invalid, [`CkptError::Corrupt`] if it names a delta link, or the
    /// validation error if the file fails its CRC check (the entry is
    /// marked invalid so later scans skip it).
    pub fn read_valid_by_id(&mut self, id: u64) -> Result<DiskCheckpoint> {
        self.join_all();
        let Some(idx) = self.entries.iter().position(|e| e.id == id && e.valid) else {
            return Err(CkptError::NoCheckpoint);
        };
        if self.entries[idx].metadata.encoding.is_delta() {
            return Err(CkptError::Corrupt(format!(
                "checkpoint {id} is a delta link; recover via latest_valid_chain"
            )));
        }
        let path = self.entries[idx].path.clone();
        match self.read_with_retry(&path) {
            Ok(ckpt) => Ok(ckpt),
            Err(e) => {
                self.entries[idx].valid = false;
                self.chain_cache = None;
                Err(e)
            }
        }
    }

    /// Entry indices of the chain ending at `idx`, anchor first, or `None`
    /// if any base link is missing from the index or marked invalid.
    fn chain_indices(&self, idx: usize) -> Option<Vec<usize>> {
        let mut chain = vec![idx];
        let mut cur = idx;
        while let CheckpointEncoding::Delta { base_id, .. } = self.entries[cur].metadata.encoding {
            let base = (0..cur)
                .rev()
                .find(|&i| self.entries[i].id == base_id && self.entries[i].valid)?;
            chain.push(base);
            cur = base;
        }
        chain.reverse();
        Some(chain)
    }

    fn shutdown_worker(wb: WriteBehind) {
        let WriteBehind {
            tx,
            done_rx,
            handle,
            ..
        } = wb;
        drop(tx);
        // Drain any completed jobs so the worker's sends do not block.
        while done_rx.recv().is_ok() {}
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        if let Some(wb) = self.write_behind.take() {
            Self::shutdown_worker(wb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lcr-disk-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_buffer() -> CheckpointBuffer {
        let mut buf = CheckpointBuffer::new();
        buf.push_with("x", |out| out.extend_from_slice(&[1u8, 2, 3, 4, 5]));
        buf.push_with("p", |out| out.extend_from_slice(&[9u8; 40]));
        buf.push_with("empty", |_| ());
        buf
    }

    fn push_sample(store: &mut DiskStore, iteration: usize) -> CheckpointMetadata {
        push_sample_delta(store, iteration, None)
    }

    fn push_sample_delta(
        store: &mut DiskStore,
        iteration: usize,
        delta_order: Option<u8>,
    ) -> CheckpointMetadata {
        let buf = sample_buffer();
        store
            .push_from_buffer(
                iteration,
                iteration as f64,
                CheckpointLevel::Pfs,
                800,
                delta_order,
                "traditional",
                &[("rho".to_string(), 0.25), ("beta".to_string(), -3.5)],
                &buf,
            )
            .unwrap()
    }

    fn newest_file(dir: &Path) -> PathBuf {
        let mut files: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().map(|e| e == "lcr").unwrap_or(false))
            .collect();
        files.sort();
        files.pop().expect("at least one checkpoint file")
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let dir = tempdir("roundtrip");
        let mut store = DiskStore::open(&dir, 2).unwrap();
        assert!(store.is_empty());
        let meta = push_sample(&mut store, 7);
        assert_eq!(meta.iteration, 7);
        assert_eq!(meta.total_bytes, 45);
        assert_eq!(meta.original_bytes, 800);

        let ckpt = store.latest_valid().unwrap();
        assert_eq!(ckpt.metadata, meta);
        assert_eq!(ckpt.tag, "traditional");
        assert_eq!(
            ckpt.scalars,
            vec![("rho".to_string(), 0.25), ("beta".to_string(), -3.5)]
        );
        assert_eq!(
            ckpt.payloads,
            vec![
                ("x".to_string(), vec![1u8, 2, 3, 4, 5]),
                ("p".to_string(), vec![9u8; 40]),
                ("empty".to_string(), vec![]),
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_evicts_stale_files() {
        let dir = tempdir("retention");
        let mut store = DiskStore::open(&dir, 2).unwrap();
        for i in 0..5 {
            push_sample(&mut store, i);
        }
        assert_eq!(store.len(), 2);
        let ids: Vec<u64> = store.metadata().iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![3, 4]);
        // Only two files remain on disk.
        let n_files = fs::read_dir(&dir).unwrap().count();
        assert_eq!(n_files, 2);
        assert_eq!(store.total_bytes_written, 5 * 45);
        assert_eq!(store.latest_valid().unwrap().metadata.iteration, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_resumes_ids_and_recovers() {
        let dir = tempdir("reopen");
        {
            let mut store = DiskStore::open(&dir, 2).unwrap();
            for i in 0..3 {
                push_sample(&mut store, 10 * (i + 1));
            }
        }
        let mut reopened = DiskStore::open(&dir, 2).unwrap();
        assert_eq!(reopened.len(), 2);
        let ckpt = reopened.latest_valid().unwrap();
        assert_eq!(ckpt.metadata.iteration, 30);
        assert_eq!(ckpt.scalars.len(), 2);
        // Ids continue after the highest existing one.
        let meta = push_sample(&mut reopened, 40);
        assert_eq!(meta.id, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_bit_flip_falls_back_to_older_checkpoint() {
        let dir = tempdir("bitflip");
        let mut store = DiskStore::open(&dir, 2).unwrap();
        push_sample(&mut store, 10);
        push_sample(&mut store, 20);
        // Flip one payload bit in the newest file (the last byte is payload
        // because `empty` contributes none and `p` ends the region).
        let path = newest_file(&dir);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let mut reopened = DiskStore::open(&dir, 2).unwrap();
        let ckpt = reopened.latest_valid().unwrap();
        assert_eq!(ckpt.metadata.iteration, 10, "must skip the corrupt newest");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_is_never_selected() {
        let dir = tempdir("truncate");
        let mut store = DiskStore::open(&dir, 2).unwrap();
        push_sample(&mut store, 10);
        push_sample(&mut store, 20);
        let path = newest_file(&dir);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let mut reopened = DiskStore::open(&dir, 2).unwrap();
        assert_eq!(reopened.len(), 1, "truncated file fails header validation");
        assert_eq!(reopened.latest_valid().unwrap().metadata.iteration, 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_corruption_is_rejected() {
        let dir = tempdir("header");
        let mut store = DiskStore::open(&dir, 1).unwrap();
        push_sample(&mut store, 10);
        let path = newest_file(&dir);
        let mut bytes = fs::read(&path).unwrap();
        bytes[20] ^= 0x01; // inside the metadata block
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_checkpoint_file(&path),
            Err(CkptError::Corrupt(_))
        ));
        let mut reopened = DiskStore::open(&dir, 1).unwrap();
        assert!(reopened.latest_valid().is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let dir = tempdir("trailing");
        let mut store = DiskStore::open(&dir, 1).unwrap();
        push_sample(&mut store, 10);
        let path = newest_file(&dir);
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0u8; 16]);
        fs::write(&path, &bytes).unwrap();
        assert!(read_checkpoint_file(&path).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_tmp_files_are_cleaned_on_open() {
        let dir = tempdir("straytmp");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("ckpt-0000000009.lcr.tmp"), b"half a checkpoint").unwrap();
        fs::write(dir.join("unrelated.txt"), b"left alone").unwrap();
        let store = DiskStore::open(&dir, 1).unwrap();
        assert!(store.is_empty());
        assert!(!dir.join("ckpt-0000000009.lcr.tmp").exists());
        assert!(dir.join("unrelated.txt").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_behind_overlaps_and_flushes() {
        let dir = tempdir("writebehind");
        let mut store = DiskStore::open(&dir, 2).unwrap();
        store.set_write_behind(true).unwrap();
        assert!(store.write_behind_enabled());

        let mut buffer = CheckpointBuffer::new();
        for i in 0..4usize {
            buffer.clear();
            buffer.push_with("x", |out| out.extend_from_slice(&[i as u8; 100]));
            let (result, recycled) = store.push_from_buffer_async(
                i,
                i as f64,
                CheckpointLevel::Pfs,
                100,
                None,
                "lossy",
                &[],
                buffer,
            );
            result.unwrap();
            buffer = recycled;
        }
        store.flush().unwrap();
        assert_eq!(store.len(), 2);
        let ckpt = store.latest_valid().unwrap();
        assert_eq!(ckpt.metadata.iteration, 3);
        assert_eq!(ckpt.payloads[0].1, vec![3u8; 100]);
        assert_eq!(ckpt.tag, "lossy");

        // Everything is also visible to a fresh store (i.e. on disk).
        store.set_write_behind(false).unwrap();
        let mut reopened = DiskStore::open(&dir, 2).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.latest_valid().unwrap().metadata.iteration, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_joins_outstanding_writes() {
        let dir = tempdir("dropjoin");
        {
            let mut store = DiskStore::open(&dir, 1).unwrap();
            store.set_write_behind(true).unwrap();
            let mut buffer = CheckpointBuffer::new();
            buffer.push_with("x", |out| out.extend_from_slice(&[7u8; 64]));
            let (result, _) = store.push_from_buffer_async(
                1,
                1.0,
                CheckpointLevel::Pfs,
                64,
                None,
                "lossy",
                &[],
                buffer,
            );
            result.unwrap();
            // Dropped with the write possibly still in flight.
        }
        let mut reopened = DiskStore::open(&dir, 1).unwrap();
        assert_eq!(reopened.latest_valid().unwrap().payloads[0].1, vec![7u8; 64]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_retention_is_an_invalid_argument() {
        let dir = tempdir("zero");
        let err = DiskStore::open(&dir, 0).unwrap_err();
        assert!(matches!(err, CkptError::InvalidArgument(ref m) if m.contains("retain")));
        assert!(!dir.exists(), "nothing is created for a rejected open");
    }

    #[test]
    fn delta_encoding_roundtrips_through_the_file_format() {
        let dir = tempdir("deltameta");
        let mut store = DiskStore::open(&dir, 4).unwrap();
        push_sample(&mut store, 10);
        push_sample_delta(&mut store, 20, Some(1));
        push_sample_delta(&mut store, 30, Some(2));

        // Both the live index and a fresh open agree on the chain links.
        for mut s in [store, DiskStore::open(&dir, 4).unwrap()] {
            let encodings: Vec<CheckpointEncoding> =
                s.metadata().iter().map(|m| m.encoding).collect();
            assert_eq!(
                encodings,
                vec![
                    CheckpointEncoding::Anchor,
                    CheckpointEncoding::Delta { base_id: 0, order: 1 },
                    CheckpointEncoding::Delta { base_id: 1, order: 2 },
                ]
            );
            let chain = s.latest_valid_chain().unwrap();
            let ids: Vec<u64> = chain.iter().map(|c| c.metadata.id).collect();
            assert_eq!(ids, vec![0, 1, 2], "anchor first, newest last");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_never_orphans_a_delta_whose_anchor_left_the_window() {
        let dir = tempdir("chainretention");
        let mut store = DiskStore::open(&dir, 2).unwrap();
        push_sample(&mut store, 0);
        for i in 1..4 {
            push_sample_delta(&mut store, i, Some(1));
        }
        // The whole chain depends on the anchor, so nothing could be
        // evicted: the window stretched to hold all four files.
        assert_eq!(store.len(), 4, "anchor kept alive by its dependents");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 4);
        let chain = store.latest_valid_chain().unwrap();
        assert_eq!(chain.len(), 4);

        // A new anchor releases the old chain wholesale.
        push_sample(&mut store, 4);
        let ids: Vec<u64> = store.metadata().iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![4], "old chain evicted as one unit");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        assert_eq!(store.latest_valid_chain().unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_anchor_invalidates_dependents_and_falls_back() {
        let dir = tempdir("chaincorrupt");
        let mut store = DiskStore::open(&dir, 4).unwrap();
        push_sample(&mut store, 10); // id 0, anchor
        push_sample(&mut store, 20); // id 1, anchor
        push_sample_delta(&mut store, 30, Some(1)); // id 2, delta on 1

        // Flip a payload bit in the *anchor* of the newest chain (id 1).
        let path = dir.join("ckpt-0000000001.lcr");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        // The delta (id 2) is intact but undecodable without its base;
        // recovery must fall back to the older standalone anchor.
        let mut reopened = DiskStore::open(&dir, 4).unwrap();
        let chain = reopened.latest_valid_chain().unwrap();
        assert_eq!(chain.len(), 1);
        assert_eq!(chain[0].metadata.iteration, 10, "fell back past the broken chain");
        assert_eq!(reopened.latest_valid().unwrap().metadata.iteration, 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_delta_falls_back_to_its_base_chain() {
        let dir = tempdir("chaintruncate");
        let mut store = DiskStore::open(&dir, 4).unwrap();
        push_sample(&mut store, 10); // id 0, anchor
        push_sample_delta(&mut store, 20, Some(1)); // id 1, delta on 0
        let path = dir.join("ckpt-0000000001.lcr");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let mut reopened = DiskStore::open(&dir, 4).unwrap();
        let chain = reopened.latest_valid_chain().unwrap();
        assert_eq!(chain.len(), 1);
        assert_eq!(chain[0].metadata.iteration, 10, "anchor alone still recovers");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_into_empty_disk_store_is_an_invalid_argument() {
        let dir = tempdir("deltaempty");
        let mut store = DiskStore::open(&dir, 2).unwrap();
        let buf = sample_buffer();
        let err = store
            .push_from_buffer(0, 0.0, CheckpointLevel::Pfs, 800, Some(1), "lossy", &[], &buf)
            .unwrap_err();
        assert!(matches!(err, CkptError::InvalidArgument(ref m) if m.contains("empty disk store")));

        store.set_write_behind(true).unwrap();
        let (result, handed_back) = store.push_from_buffer_async(
            0,
            0.0,
            CheckpointLevel::Pfs,
            800,
            Some(2),
            "lossy",
            &[],
            sample_buffer(),
        );
        assert!(matches!(result, Err(CkptError::InvalidArgument(_))));
        assert_eq!(handed_back.total_bytes(), 45, "the caller's buffer comes back");
        store.flush().unwrap();
        assert!(store.is_empty());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "nothing was written");

        // The store stays usable: an anchor then a delta on it both commit.
        store.set_write_behind(false).unwrap();
        push_sample(&mut store, 1);
        assert_eq!(push_sample_delta(&mut store, 2, Some(1)).id, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn over_long_names_are_invalid_arguments() {
        let dir = tempdir("longname");
        let mut store = DiskStore::open(&dir, 2).unwrap();
        let long = "n".repeat(usize::from(u16::MAX) + 1);
        let buf = sample_buffer();
        let push = |store: &mut DiskStore, tag: &str, scalars: &[(String, f64)], buf| {
            store.push_from_buffer(0, 0.0, CheckpointLevel::Pfs, 800, None, tag, scalars, buf)
        };
        let tag_err = push(&mut store, &long, &[], &buf).unwrap_err();
        assert!(matches!(tag_err, CkptError::InvalidArgument(ref m) if m.contains("65535")));
        let scalar_err = push(&mut store, "lossy", &[(long.clone(), 1.0)], &buf).unwrap_err();
        assert!(matches!(scalar_err, CkptError::InvalidArgument(_)));
        let mut long_var = CheckpointBuffer::new();
        long_var.push_with(&long, |out| out.push(1));
        let var_err = push(&mut store, "lossy", &[], &long_var).unwrap_err();
        assert!(matches!(var_err, CkptError::InvalidArgument(_)));

        // Write-behind rejects before enqueueing, handing the buffer back.
        store.set_write_behind(true).unwrap();
        let (result, handed_back) = store.push_from_buffer_async(
            0,
            0.0,
            CheckpointLevel::Pfs,
            800,
            None,
            &long,
            &[],
            sample_buffer(),
        );
        assert!(matches!(result, Err(CkptError::InvalidArgument(_))));
        assert_eq!(handed_back.n_variables(), 3);
        store.flush().unwrap();
        assert!(store.is_empty());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "nothing was written");

        // A name of exactly the limit still fits the format.
        let limit = "n".repeat(usize::from(u16::MAX));
        push(&mut store, &limit, &[], &buf).unwrap();
        assert_eq!(store.latest_valid().unwrap().tag, limit);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chain_scan_is_memoized_until_the_index_changes() {
        let dir = tempdir("memoize");
        let mut store = DiskStore::open(&dir, 4).unwrap();
        push_sample(&mut store, 10);
        push_sample_delta(&mut store, 20, Some(1));
        assert_eq!(store.chain_scans(), 0);

        // Repeated recoveries hit the cache: exactly one cold scan.
        for _ in 0..3 {
            let chain = store.latest_valid_chain().unwrap();
            assert_eq!(chain.len(), 2);
            assert_eq!(chain.last().unwrap().metadata.iteration, 20);
        }
        assert_eq!(store.latest_valid().unwrap().metadata.iteration, 20);
        assert_eq!(store.chain_scans(), 1, "cache served repeated recoveries");

        // A push invalidates the memo and the next recovery rescans.
        push_sample(&mut store, 30);
        assert_eq!(store.latest_valid().unwrap().metadata.iteration, 30);
        assert_eq!(store.chain_scans(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_read_errors_are_retried_and_counted() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        #[derive(Debug)]
        struct FlakyReads {
            inner: OsBackend,
            fail_next_reads: AtomicUsize,
        }
        impl StorageBackend for FlakyReads {
            fn create_dir_all(&self, d: &Path) -> std::io::Result<()> {
                self.inner.create_dir_all(d)
            }
            fn list_dir(&self, d: &Path) -> std::io::Result<Vec<PathBuf>> {
                self.inner.list_dir(d)
            }
            fn file_len(&self, p: &Path) -> std::io::Result<u64> {
                self.inner.file_len(p)
            }
            fn read_prefix(&self, p: &Path, n: usize) -> std::io::Result<Vec<u8>> {
                self.inner.read_prefix(p, n)
            }
            fn read(&self, p: &Path) -> std::io::Result<Vec<u8>> {
                if self
                    .fail_next_reads
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
                {
                    return Err(std::io::Error::other("injected transient EIO"));
                }
                self.inner.read(p)
            }
            fn write_file(&self, p: &Path, parts: &[&[u8]]) -> std::io::Result<()> {
                self.inner.write_file(p, parts)
            }
            fn fsync(&self, p: &Path) -> std::io::Result<()> {
                self.inner.fsync(p)
            }
            fn rename(&self, a: &Path, b: &Path) -> std::io::Result<()> {
                self.inner.rename(a, b)
            }
            fn fsync_dir(&self, d: &Path) -> std::io::Result<()> {
                self.inner.fsync_dir(d)
            }
            fn remove_file(&self, p: &Path) -> std::io::Result<()> {
                self.inner.remove_file(p)
            }
        }

        let dir = tempdir("flakyread");
        let backend = Arc::new(FlakyReads {
            inner: OsBackend,
            fail_next_reads: AtomicUsize::new(0),
        });
        let mut store = DiskStore::open_with_backend(&dir, 2, backend.clone()).unwrap();
        store.set_retry_policy(RetryPolicy {
            max_retries: 3,
            base_delay_seconds: 0.0,
            multiplier: 2.0,
        });
        push_sample(&mut store, 10);
        backend.fail_next_reads.store(2, Ordering::SeqCst);
        let ckpt = store.latest_valid().unwrap();
        assert_eq!(ckpt.metadata.iteration, 10);
        assert_eq!(store.io_retries(), 2, "both transient read errors retried");
        assert_eq!(store.backoff_log().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_1_files_are_corrupt_and_skipped() {
        let dir = tempdir("v1reject");
        let mut store = DiskStore::open(&dir, 2).unwrap();
        push_sample(&mut store, 5);
        push_sample(&mut store, 10);
        drop(store);

        // Rewrite the newest file in the retired version-1 layout: drop
        // the encoding tag byte (offset 49 = 16-byte fixed header +
        // id/iteration/completed-at u64s + level u8 + original-bytes u64),
        // patch the version and metadata length, and recompute the
        // metadata CRC — a well-formed file of a version no reader keeps.
        let path = dir.join("ckpt-0000000001.lcr");
        let mut bytes = fs::read(&path).unwrap();
        bytes.remove(49);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let meta_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) - 1;
        bytes[12..16].copy_from_slice(&meta_len.to_le_bytes());
        let crc_at = 16 + meta_len as usize;
        let crc = crc32(&bytes[..crc_at]);
        bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &bytes).unwrap();

        match read_checkpoint_file(&path) {
            Err(CkptError::Corrupt(msg)) => assert!(msg.contains("version 1"), "{msg}"),
            other => panic!("version-1 file must be corrupt, got {other:?}"),
        }

        let mut reopened = DiskStore::open(&dir, 2).unwrap();
        assert_eq!(reopened.latest_valid().unwrap().metadata.iteration, 5);
        let _ = fs::remove_dir_all(&dir);
    }
}
