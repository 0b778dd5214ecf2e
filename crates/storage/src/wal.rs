//! Write-ahead log: segmented, CRC-framed logical update records.
//!
//! The durability subsystem logs every committed update *before* it is
//! acknowledged, so a crash between acknowledgement and the next
//! snapshot loses nothing. Records are logical — the raw SciSPARQL
//! update text (or Turtle document) that produced the mutation — and
//! replay simply re-executes them against the recovered snapshot.
//!
//! ## On-disk format
//!
//! A WAL directory holds numbered segment files `wal-NNNNNN.log`. Each
//! segment starts with a 16-byte header:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"SWL1"
//! 4       4     reserved (zero)
//! 8       8     start LSN, u64 LE — the LSN of the first record
//! ```
//!
//! followed by records, each an SCK1 frame (see [`crate::frame`]) whose
//! payload is:
//!
//! ```text
//! offset  size  field
//! 0       8     LSN, u64 LE
//! 8       1     kind (1 = statement, 2 = turtle, 3 = named turtle,
//!               4 = checkpoint marker)
//! 9       ...   kind-specific body (UTF-8 text)
//! ```
//!
//! LSNs are assigned densely from 0 and never reused. A checkpoint
//! rotates the log to a fresh segment whose start LSN equals the
//! snapshot's recovery LSN and deletes every segment wholly below it.
//!
//! ## Recovery invariants
//!
//! * Records are appended with a single `write` each, so a torn write
//!   can only damage the *final* record of the *final* segment.
//! * [`WalReader::scan`] therefore treats any decode failure in the
//!   final segment as a torn tail — the log is truncated at the first
//!   bad CRC/short frame and replay stops there. The truncated record
//!   was never acknowledged (acknowledgement follows the fsync policy),
//!   so dropping it preserves prefix consistency.
//! * A decode failure in a *non-final* segment cannot be produced by a
//!   crash (earlier segments are complete and fsynced before rotation)
//!   and is reported as hard corruption instead.
//!
//! ## Crash injection
//!
//! [`CrashPlan`] arms a byte-budget "power failure": the raw write that
//! crosses the budget persists only a prefix (optionally followed by
//! seeded garbage, modelling a torn sector), and every subsequent
//! operation fails. Because the budget is byte-granular, a seeded sweep
//! of budgets covers every write boundary *and* every intra-record tear.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Process-wide WAL fsync stall histogram: every `sync_data` the writer
/// issues is timed into it, so `METRICS` exposes fsync tail latency.
fn obs_fsync_hist() -> &'static Arc<ssdm_obs::Histogram> {
    static H: OnceLock<Arc<ssdm_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| ssdm_obs::recorder().histogram("ssdm_wal_fsync_seconds"))
}

use crate::frame;
use crate::store::StorageError;

/// Segment header length in bytes.
pub const SEGMENT_HEADER: usize = 16;

/// Segment magic: "Ssdm Wal Log v1".
pub const SEGMENT_MAGIC: [u8; 4] = *b"SWL1";

/// Default segment rotation threshold.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// When the log writer flushes its file to durable media.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every appended record before acknowledging it.
    Always,
    /// fsync at most once per interval; a crash may lose the tail of
    /// acknowledged-but-unsynced records (group commit).
    Interval(Duration),
    /// Never fsync from the writer; rely on the OS page cache. A crash
    /// may lose everything since the last checkpoint.
    Off,
}

impl FsyncPolicy {
    /// Parse a CLI spelling: `always`, `off`, `interval` (default
    /// 100ms) or `interval:MILLIS`. `interval:0` normalises to
    /// `always` — a zero period means "fsync due on every append", and
    /// reporting it as an interval would misstate the durability
    /// contract actually in force.
    pub fn parse(text: &str) -> Option<FsyncPolicy> {
        match text {
            "always" => Some(FsyncPolicy::Always),
            "off" | "none" => Some(FsyncPolicy::Off),
            "interval" => Some(FsyncPolicy::Interval(Duration::from_millis(100))),
            other => {
                let ms: u64 = other.strip_prefix("interval:")?.parse().ok()?;
                if ms == 0 {
                    Some(FsyncPolicy::Always)
                } else {
                    Some(FsyncPolicy::Interval(Duration::from_millis(ms)))
                }
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Interval(d) => write!(f, "interval:{}", d.as_millis()),
            FsyncPolicy::Off => write!(f, "off"),
        }
    }
}

/// A logical update record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A SciSPARQL update statement, logged verbatim.
    Statement(String),
    /// A Turtle document loaded into the default graph.
    TurtleDefault(String),
    /// A Turtle document loaded into a named graph.
    TurtleNamed { graph: String, text: String },
    /// Marks a completed checkpoint at the given recovery LSN.
    /// Informational; replay ignores it.
    Checkpoint { wal_lsn: u64 },
    /// A chunked array announced to a back-end shard (`begin_array`).
    /// Chunk-level records (kinds 5–7) are what the sharded store's
    /// WAL-shipping replicas replay to follow their primary.
    BeginArray { array_id: u64, chunk_bytes: u64 },
    /// One chunk written (`put_chunk`); the body carries the raw
    /// (unframed) chunk payload.
    PutChunk {
        array_id: u64,
        chunk_id: u64,
        data: Vec<u8>,
    },
    /// All chunks of an array dropped (`delete_array`).
    DeleteArray { array_id: u64, chunk_count: u64 },
}

const KIND_STATEMENT: u8 = 1;
const KIND_TURTLE_DEFAULT: u8 = 2;
const KIND_TURTLE_NAMED: u8 = 3;
const KIND_CHECKPOINT: u8 = 4;
const KIND_BEGIN_ARRAY: u8 = 5;
const KIND_PUT_CHUNK: u8 = 6;
const KIND_DELETE_ARRAY: u8 = 7;

/// Serialise `(lsn, record)` into a frame payload.
pub fn encode_payload(lsn: u64, record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + 16);
    out.extend_from_slice(&lsn.to_le_bytes());
    match record {
        WalRecord::Statement(text) => {
            out.push(KIND_STATEMENT);
            out.extend_from_slice(text.as_bytes());
        }
        WalRecord::TurtleDefault(text) => {
            out.push(KIND_TURTLE_DEFAULT);
            out.extend_from_slice(text.as_bytes());
        }
        WalRecord::TurtleNamed { graph, text } => {
            out.push(KIND_TURTLE_NAMED);
            out.extend_from_slice(&(graph.len() as u32).to_le_bytes());
            out.extend_from_slice(graph.as_bytes());
            out.extend_from_slice(text.as_bytes());
        }
        WalRecord::Checkpoint { wal_lsn } => {
            out.push(KIND_CHECKPOINT);
            out.extend_from_slice(&wal_lsn.to_le_bytes());
        }
        WalRecord::BeginArray {
            array_id,
            chunk_bytes,
        } => {
            out.push(KIND_BEGIN_ARRAY);
            out.extend_from_slice(&array_id.to_le_bytes());
            out.extend_from_slice(&chunk_bytes.to_le_bytes());
        }
        WalRecord::PutChunk {
            array_id,
            chunk_id,
            data,
        } => {
            out.push(KIND_PUT_CHUNK);
            out.extend_from_slice(&array_id.to_le_bytes());
            out.extend_from_slice(&chunk_id.to_le_bytes());
            out.extend_from_slice(data);
        }
        WalRecord::DeleteArray {
            array_id,
            chunk_count,
        } => {
            out.push(KIND_DELETE_ARRAY);
            out.extend_from_slice(&array_id.to_le_bytes());
            out.extend_from_slice(&chunk_count.to_le_bytes());
        }
    }
    out
}

/// Parse a frame payload back into `(lsn, record)`.
pub fn decode_payload(bytes: &[u8]) -> Result<(u64, WalRecord), String> {
    if bytes.len() < 9 {
        return Err(format!(
            "wal record payload too short: {} bytes",
            bytes.len()
        ));
    }
    let lsn = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
    let body = &bytes[9..];
    let text = |b: &[u8]| -> Result<String, String> {
        String::from_utf8(b.to_vec()).map_err(|e| format!("wal record not UTF-8: {e}"))
    };
    let record = match bytes[8] {
        KIND_STATEMENT => WalRecord::Statement(text(body)?),
        KIND_TURTLE_DEFAULT => WalRecord::TurtleDefault(text(body)?),
        KIND_TURTLE_NAMED => {
            if body.len() < 4 {
                return Err("named-turtle record missing graph length".into());
            }
            let name_len = u32::from_le_bytes(body[..4].try_into().expect("4 bytes")) as usize;
            if body.len() < 4 + name_len {
                return Err("named-turtle record shorter than its graph name".into());
            }
            WalRecord::TurtleNamed {
                graph: text(&body[4..4 + name_len])?,
                text: text(&body[4 + name_len..])?,
            }
        }
        KIND_CHECKPOINT => {
            if body.len() < 8 {
                return Err("checkpoint record missing LSN".into());
            }
            WalRecord::Checkpoint {
                wal_lsn: u64::from_le_bytes(body[..8].try_into().expect("8 bytes")),
            }
        }
        KIND_BEGIN_ARRAY => {
            if body.len() < 16 {
                return Err("begin-array record too short".into());
            }
            WalRecord::BeginArray {
                array_id: u64::from_le_bytes(body[..8].try_into().expect("8 bytes")),
                chunk_bytes: u64::from_le_bytes(body[8..16].try_into().expect("8 bytes")),
            }
        }
        KIND_PUT_CHUNK => {
            if body.len() < 16 {
                return Err("put-chunk record shorter than its key".into());
            }
            WalRecord::PutChunk {
                array_id: u64::from_le_bytes(body[..8].try_into().expect("8 bytes")),
                chunk_id: u64::from_le_bytes(body[8..16].try_into().expect("8 bytes")),
                data: body[16..].to_vec(),
            }
        }
        KIND_DELETE_ARRAY => {
            if body.len() < 16 {
                return Err("delete-array record too short".into());
            }
            WalRecord::DeleteArray {
                array_id: u64::from_le_bytes(body[..8].try_into().expect("8 bytes")),
                chunk_count: u64::from_le_bytes(body[8..16].try_into().expect("8 bytes")),
            }
        }
        other => return Err(format!("unknown wal record kind {other}")),
    };
    Ok((lsn, record))
}

/// Deterministic "power failure" for crash-recovery testing: the raw
/// write that crosses `at_bytes` (counted from WAL open, headers
/// included) persists only a prefix, and every later WAL operation
/// fails as if the process died.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashPlan {
    /// Total bytes the WAL is allowed to persist before the "failure".
    pub at_bytes: u64,
    /// Model a torn sector: follow the persisted prefix with up to 8
    /// seeded garbage bytes instead of ending cleanly.
    pub garbage: bool,
    /// Seed for the garbage bytes.
    pub seed: u64,
}

struct CrashState {
    remaining: u64,
    garbage: bool,
    rng: u64,
    crashed: bool,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn simulated_crash() -> StorageError {
    StorageError::Backend("simulated crash: wal writer is dead".into())
}

/// Counters the durability layer surfaces through `stats_report`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (acknowledged or not).
    pub records_appended: u64,
    /// Record bytes appended, frame headers included.
    pub bytes_appended: u64,
    /// fsync calls issued by the writer.
    pub fsyncs: u64,
    /// Bytes covered by those fsyncs.
    pub bytes_fsynced: u64,
    /// Segment rotations (size-triggered or checkpoint-triggered).
    pub segments_rotated: u64,
    /// Checkpoint truncations performed.
    pub checkpoints: u64,
}

/// Writer configuration.
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    pub policy: FsyncPolicy,
    /// Rotate to a fresh segment once the current one exceeds this.
    pub segment_bytes: u64,
    /// Optional deterministic crash injection.
    pub crash: Option<CrashPlan>,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            policy: FsyncPolicy::Always,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            crash: None,
        }
    }
}

/// One segment file discovered by a scan.
#[derive(Debug, Clone)]
pub struct SegmentInfo {
    pub index: u64,
    pub start_lsn: u64,
    pub path: PathBuf,
}

/// Result of scanning a WAL directory.
#[derive(Debug)]
pub struct WalScan {
    /// Segments in index order. A final segment with an unreadable
    /// header is *excluded* (see `invalid_final_segment`).
    pub segments: Vec<SegmentInfo>,
    /// Every decodable record, in LSN order.
    pub records: Vec<(u64, WalRecord)>,
    /// Byte offset in the final segment where a torn tail begins, if
    /// one was found.
    pub torn_tail_at: Option<u64>,
    /// A final segment whose 16-byte header itself was torn; the file
    /// carries no records and is deleted on writer open.
    pub invalid_final_segment: Option<PathBuf>,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:06}.log"))
}

fn segment_indices(dir: &Path) -> Result<Vec<u64>, StorageError> {
    let mut indices = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(num) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
        {
            if let Ok(index) = num.parse::<u64>() {
                indices.push(index);
            }
        }
    }
    indices.sort_unstable();
    Ok(indices)
}

fn fsync_dir(dir: &Path) -> Result<(), StorageError> {
    // Directory fsync makes renames/creates/unlinks durable. Some
    // filesystems refuse to sync a directory handle; that is their
    // durability ceiling, not an error we can act on.
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
    Ok(())
}

/// Read-side of the log: scans a WAL directory without modifying it.
pub struct WalReader;

impl WalReader {
    /// Scan every segment, decoding records in order. Corruption in a
    /// non-final segment is a hard error; any decode failure in the
    /// final segment is reported as a torn tail.
    pub fn scan(dir: &Path) -> Result<WalScan, StorageError> {
        let mut scan = WalScan {
            segments: Vec::new(),
            records: Vec::new(),
            torn_tail_at: None,
            invalid_final_segment: None,
        };
        if !dir.exists() {
            return Ok(scan);
        }
        let indices = segment_indices(dir)?;
        let last = match indices.last() {
            Some(&last) => last,
            None => return Ok(scan),
        };
        for &index in &indices {
            let path = segment_path(dir, index);
            let is_final = index == last;
            let mut bytes = Vec::new();
            File::open(&path)?.read_to_end(&mut bytes)?;
            if bytes.len() < SEGMENT_HEADER || bytes[..4] != SEGMENT_MAGIC {
                if is_final {
                    // The creating write itself was torn; no records
                    // can live here.
                    scan.invalid_final_segment = Some(path);
                    break;
                }
                // `Backend`, not `Corrupt`: WAL damage outside the
                // final segment is not transient and must not be
                // retried away.
                return Err(StorageError::Backend(format!(
                    "wal segment {} has a damaged header",
                    path.display()
                )));
            }
            let start_lsn = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
            scan.segments.push(SegmentInfo {
                index,
                start_lsn,
                path: path.clone(),
            });
            let mut offset = SEGMENT_HEADER;
            while offset < bytes.len() {
                let rest = &bytes[offset..];
                let decoded = frame::payload_len(&rest[..rest.len().min(frame::FRAME_HEADER)])
                    .and_then(|len| rest.get(..frame::FRAME_HEADER + len))
                    .map(frame::decode)
                    .unwrap_or(Err(frame::FrameError::Truncated {
                        expected: frame::FRAME_HEADER,
                        got: rest.len(),
                    }));
                // The frame is verified where it lies in the segment
                // buffer; the record is parsed out of the borrowed payload.
                let record = match decoded {
                    Ok(payload) => decode_payload(payload).map(|r| (r, payload.len())),
                    Err(e) => Err(e.to_string()),
                };
                match record {
                    Ok(((lsn, record), len)) => {
                        scan.records.push((lsn, record));
                        offset += frame::FRAME_HEADER + len;
                    }
                    Err(reason) => {
                        if is_final {
                            scan.torn_tail_at = Some(offset as u64);
                            return Ok(scan);
                        }
                        return Err(StorageError::Backend(format!(
                            "wal segment {} corrupt at offset {offset}: {reason}",
                            path.display()
                        )));
                    }
                }
            }
        }
        Ok(scan)
    }
}

/// What `WalWriter::open` recovered before positioning for append.
#[derive(Debug)]
pub struct WalRecovery {
    /// Every complete record on disk, in LSN order.
    pub records: Vec<(u64, WalRecord)>,
    /// Whether a torn tail (or torn segment header) was truncated away.
    pub truncated_tail: bool,
    /// Segments present after recovery.
    pub segments: u64,
}

/// Append-side of the log.
pub struct WalWriter {
    dir: PathBuf,
    file: File,
    /// `(index, start_lsn)` of every live segment, current one last.
    segments: Vec<(u64, u64)>,
    segment_written: u64,
    segment_limit: u64,
    next_lsn: u64,
    policy: FsyncPolicy,
    last_fsync: Instant,
    pending_bytes: u64,
    stats: WalStats,
    crash: Option<CrashState>,
}

impl WalWriter {
    /// Open (or create) the WAL in `dir`: scan existing segments,
    /// truncate any torn tail, and position for append. Returns the
    /// writer plus everything recovered for replay.
    pub fn open(dir: &Path, options: WalOptions) -> Result<(WalWriter, WalRecovery), StorageError> {
        fs::create_dir_all(dir)?;
        let mut scan = WalReader::scan(dir)?;
        let mut truncated_tail = false;
        if let Some(path) = scan.invalid_final_segment.take() {
            fs::remove_file(&path)?;
            truncated_tail = true;
        }
        if let Some(offset) = scan.torn_tail_at {
            let path = &scan
                .segments
                .last()
                .expect("torn tail implies a segment")
                .path;
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(offset)?;
            file.sync_all()?;
            truncated_tail = true;
        }
        let next_lsn = scan
            .records
            .last()
            .map(|&(lsn, _)| lsn + 1)
            .or_else(|| scan.segments.last().map(|s| s.start_lsn))
            .unwrap_or(0);

        let crash = options.crash.map(|plan| CrashState {
            remaining: plan.at_bytes,
            garbage: plan.garbage,
            rng: plan.seed,
            crashed: false,
        });
        let writer = match scan.segments.last() {
            Some(info) => {
                let file = OpenOptions::new().append(true).open(&info.path)?;
                let segment_written = file.metadata()?.len();
                WalWriter {
                    dir: dir.to_path_buf(),
                    file,
                    segments: scan
                        .segments
                        .iter()
                        .map(|s| (s.index, s.start_lsn))
                        .collect(),
                    segment_written,
                    segment_limit: options.segment_bytes.max(SEGMENT_HEADER as u64 + 1),
                    next_lsn,
                    policy: options.policy,
                    last_fsync: Instant::now(),
                    pending_bytes: 0,
                    stats: WalStats::default(),
                    crash,
                }
            }
            None => {
                let path = segment_path(dir, 0);
                let file = OpenOptions::new()
                    .create(true)
                    .truncate(true)
                    .write(true)
                    .open(&path)?;
                let mut writer = WalWriter {
                    dir: dir.to_path_buf(),
                    file,
                    segments: vec![(0, next_lsn)],
                    segment_written: 0,
                    segment_limit: options.segment_bytes.max(SEGMENT_HEADER as u64 + 1),
                    next_lsn,
                    policy: options.policy,
                    last_fsync: Instant::now(),
                    pending_bytes: 0,
                    stats: WalStats::default(),
                    crash,
                };
                writer.write_segment_header(next_lsn)?;
                fsync_dir(dir)?;
                writer
            }
        };
        // Whatever the policy, start from a clean fsync baseline.
        if writer.policy == FsyncPolicy::Always {
            writer.file.sync_all()?;
        }
        let recovery = WalRecovery {
            records: scan.records,
            truncated_tail,
            segments: writer.segments.len() as u64,
        };
        Ok((writer, recovery))
    }

    fn write_segment_header(&mut self, start_lsn: u64) -> Result<(), StorageError> {
        let mut header = Vec::with_capacity(SEGMENT_HEADER);
        header.extend_from_slice(&SEGMENT_MAGIC);
        header.extend_from_slice(&[0u8; 4]);
        header.extend_from_slice(&start_lsn.to_le_bytes());
        self.raw_write(&header)?;
        self.segment_written = SEGMENT_HEADER as u64;
        Ok(())
    }

    /// Write through the crash gate: the write that crosses the byte
    /// budget persists only a prefix (plus optional torn-sector
    /// garbage), then the writer is permanently dead.
    fn raw_write(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        if let Some(crash) = self.crash.as_mut() {
            if crash.crashed {
                return Err(simulated_crash());
            }
            if (bytes.len() as u64) > crash.remaining {
                let keep = crash.remaining as usize;
                let mut torn = bytes[..keep].to_vec();
                if crash.garbage {
                    let junk = (bytes.len() - keep).min(8);
                    for _ in 0..junk {
                        torn.push((splitmix64(&mut crash.rng) & 0xFF) as u8);
                    }
                }
                crash.crashed = true;
                self.file.write_all(&torn)?;
                let _ = self.file.sync_all();
                return Err(simulated_crash());
            }
            crash.remaining -= bytes.len() as u64;
        }
        self.file.write_all(bytes)?;
        Ok(())
    }

    fn fsync(&mut self) -> Result<(), StorageError> {
        if let Some(crash) = &self.crash {
            if crash.crashed {
                return Err(simulated_crash());
            }
        }
        let span = ssdm_obs::Span::start(obs_fsync_hist());
        self.file.sync_data()?;
        drop(span);
        self.stats.fsyncs += 1;
        self.stats.bytes_fsynced += self.pending_bytes;
        self.pending_bytes = 0;
        self.last_fsync = Instant::now();
        Ok(())
    }

    /// Append one record. Returns its LSN once the record is as durable
    /// as the fsync policy promises — an `Ok` here is the commit
    /// acknowledgement.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, StorageError> {
        if self.segment_written >= self.segment_limit {
            self.rotate()?;
        }
        let lsn = self.next_lsn;
        let bytes = frame::encode(&encode_payload(lsn, record));
        self.raw_write(&bytes)?;
        self.segment_written += bytes.len() as u64;
        self.pending_bytes += bytes.len() as u64;
        self.stats.records_appended += 1;
        self.stats.bytes_appended += bytes.len() as u64;
        match self.policy {
            FsyncPolicy::Always => self.fsync()?,
            FsyncPolicy::Interval(period) => {
                if self.last_fsync.elapsed() >= period {
                    self.fsync()?;
                }
            }
            FsyncPolicy::Off => {}
        }
        self.next_lsn = lsn + 1;
        Ok(lsn)
    }

    /// Force pending bytes to durable media regardless of policy.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        if self.pending_bytes > 0 || self.policy != FsyncPolicy::Always {
            self.fsync()?;
        }
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), StorageError> {
        // The finished segment must be fully durable before a later
        // segment exists, or the "corruption only in the final segment"
        // recovery invariant breaks.
        self.fsync()?;
        let index = self.segments.last().expect("at least one segment").0 + 1;
        let start_lsn = self.next_lsn;
        let path = segment_path(&self.dir, index);
        self.file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&path)?;
        self.segments.push((index, start_lsn));
        self.write_segment_header(start_lsn)?;
        fsync_dir(&self.dir)?;
        self.stats.segments_rotated += 1;
        Ok(())
    }

    /// Checkpoint bookkeeping: rotate to a fresh segment starting at
    /// the current LSN and delete every segment wholly below
    /// `up_to_lsn` (the recovery LSN embedded in the just-published
    /// snapshot). Records at or above `up_to_lsn` are always retained.
    pub fn checkpoint_truncate(&mut self, up_to_lsn: u64) -> Result<(), StorageError> {
        self.rotate()?;
        let mut kept = Vec::with_capacity(self.segments.len());
        for pair in 0..self.segments.len() {
            let (index, _start) = self.segments[pair];
            let next_start = self.segments.get(pair + 1).map(|&(_, s)| s);
            match next_start {
                // A segment is disposable iff every LSN it can contain
                // is below the snapshot's recovery LSN.
                Some(next_start) if next_start <= up_to_lsn => {
                    fs::remove_file(segment_path(&self.dir, index))?;
                }
                _ => kept.push(self.segments[pair]),
            }
        }
        self.segments = kept;
        fsync_dir(&self.dir)?;
        self.stats.checkpoints += 1;
        self.append(&WalRecord::Checkpoint { wal_lsn: up_to_lsn })?;
        Ok(())
    }

    /// Next LSN to be assigned; records with `lsn < next_lsn()` are on
    /// disk (subject to the fsync policy).
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Guarantee LSNs at or above `lsn` are never assigned twice, even
    /// if the log was deleted out from under a surviving snapshot.
    pub fn ensure_lsn_at_least(&mut self, lsn: u64) {
        self.next_lsn = self.next_lsn.max(lsn);
    }

    /// Live segment count.
    pub fn segment_count(&self) -> u64 {
        self.segments.len() as u64
    }

    pub fn stats(&self) -> WalStats {
        self.stats
    }
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("dir", &self.dir)
            .field("next_lsn", &self.next_lsn)
            .field("segments", &self.segments)
            .field("policy", &self.policy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ssdm-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Statement("INSERT DATA { <urn:s> <urn:p> 1 . }".into()),
            WalRecord::TurtleDefault("<urn:a> <urn:b> ( 1 2 3 ) .".into()),
            WalRecord::TurtleNamed {
                graph: "http://example.org/g".into(),
                text: "<urn:x> <urn:y> \"z\" .".into(),
            },
            WalRecord::Checkpoint { wal_lsn: 42 },
            WalRecord::BeginArray {
                array_id: 7,
                chunk_bytes: 1024,
            },
            WalRecord::PutChunk {
                array_id: 7,
                chunk_id: 3,
                data: vec![0xDE, 0xAD, 0x00, 0xBE, 0xEF],
            },
            WalRecord::DeleteArray {
                array_id: 7,
                chunk_count: 4,
            },
        ]
    }

    /// A segment written by the commit before the sliced CRC: header
    /// (start LSN 42), a `PutChunk` record and a `Statement` record.
    const GOLDEN_SEGMENT: [u8; 113] = [
        0x53, 0x57, 0x4c, 0x31, 0x00, 0x00, 0x00, 0x00, 0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, // segment header
        0x53, 0x43, 0x4b, 0x31, 0x1f, 0x00, 0x00, 0x00, 0x76, 0x11, 0x3e, 0xa8, 0x00, 0x00, 0x00,
        0x00, 0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x07, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03, 0xfa,
        0xfb, 0xfc, // lsn 42
        0x53, 0x43, 0x4b, 0x31, 0x22, 0x00, 0x00, 0x00, 0x1a, 0xdf, 0xf8, 0x99, 0x00, 0x00, 0x00,
        0x00, 0x2b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x49, 0x4e, 0x53, 0x45, 0x52,
        0x54, 0x20, 0x44, 0x41, 0x54, 0x41, 0x20, 0x7b, 0x20, 0x3c, 0x61, 0x3e, 0x20, 0x3c, 0x62,
        0x3e, 0x20, 0x31, 0x20, 0x7d, // lsn 43
    ];

    #[test]
    fn golden_segment_still_replays_and_appends_byte_identically() {
        let put = WalRecord::PutChunk {
            array_id: 7,
            chunk_id: 3,
            data: vec![1, 2, 3, 250, 251, 252],
        };
        let statement = WalRecord::Statement("INSERT DATA { <a> <b> 1 }".into());
        let dir = tmp_dir("golden");
        fs::write(segment_path(&dir, 0), GOLDEN_SEGMENT).unwrap();
        let scan = WalReader::scan(&dir).unwrap();
        assert_eq!(scan.torn_tail_at, None);
        assert_eq!(scan.segments[0].start_lsn, 42);
        assert_eq!(
            scan.records,
            vec![(42, put.clone()), (43, statement.clone())]
        );
        // What this build appends for the same records is what is there.
        let mut written = GOLDEN_SEGMENT[..SEGMENT_HEADER].to_vec();
        written.extend(frame::encode(&encode_payload(42, &put)));
        written.extend(frame::encode(&encode_payload(43, &statement)));
        assert_eq!(written, GOLDEN_SEGMENT);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn payload_round_trip() {
        for (i, record) in sample_records().iter().enumerate() {
            let payload = encode_payload(i as u64, record);
            let (lsn, decoded) = decode_payload(&payload).unwrap();
            assert_eq!(lsn, i as u64);
            assert_eq!(&decoded, record);
        }
    }

    #[test]
    fn append_reopen_replays_everything() {
        let dir = tmp_dir("reopen");
        let records = sample_records();
        {
            let (mut writer, recovery) = WalWriter::open(&dir, WalOptions::default()).unwrap();
            assert!(recovery.records.is_empty());
            for record in &records {
                writer.append(record).unwrap();
            }
            assert_eq!(writer.stats().records_appended, records.len() as u64);
            assert_eq!(writer.stats().fsyncs, records.len() as u64);
        }
        let (writer, recovery) = WalWriter::open(&dir, WalOptions::default()).unwrap();
        assert!(!recovery.truncated_tail);
        assert_eq!(recovery.records.len(), records.len());
        for (i, (lsn, record)) in recovery.records.iter().enumerate() {
            assert_eq!(*lsn, i as u64);
            assert_eq!(record, &records[i]);
        }
        assert_eq!(writer.next_lsn(), records.len() as u64);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_spreads_records_across_segments() {
        let dir = tmp_dir("rotate");
        let options = WalOptions {
            segment_bytes: 64,
            ..WalOptions::default()
        };
        {
            let (mut writer, _) = WalWriter::open(&dir, options).unwrap();
            for i in 0..10u64 {
                writer
                    .append(&WalRecord::Statement(format!(
                        "INSERT DATA {{ <urn:s{i}> <urn:p> {i} . }}"
                    )))
                    .unwrap();
            }
            assert!(writer.segment_count() > 1);
            assert!(writer.stats().segments_rotated > 0);
        }
        let (_, recovery) = WalWriter::open(&dir, options).unwrap();
        assert_eq!(recovery.records.len(), 10);
        assert!(recovery.segments > 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_at_first_bad_frame() {
        let dir = tmp_dir("torn");
        {
            let (mut writer, _) = WalWriter::open(&dir, WalOptions::default()).unwrap();
            for record in sample_records() {
                writer.append(&record).unwrap();
            }
        }
        // Tear the last record: chop 3 bytes off the segment.
        let path = segment_path(&dir, 0);
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let all = sample_records().len();
        let (mut writer, recovery) = WalWriter::open(&dir, WalOptions::default()).unwrap();
        assert!(recovery.truncated_tail);
        assert_eq!(recovery.records.len(), all - 1);
        // The writer appends cleanly after the truncation point.
        writer
            .append(&WalRecord::Statement("ASK { }".into()))
            .unwrap();
        drop(writer);
        let (_, recovery) = WalWriter::open(&dir, WalOptions::default()).unwrap();
        assert!(!recovery.truncated_tail);
        assert_eq!(recovery.records.len(), all);
        assert_eq!(recovery.records[all - 1].0, (all - 1) as u64);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_non_final_segment_is_a_hard_error() {
        let dir = tmp_dir("hard-corrupt");
        let options = WalOptions {
            segment_bytes: 64,
            ..WalOptions::default()
        };
        {
            let (mut writer, _) = WalWriter::open(&dir, options).unwrap();
            for i in 0..10u64 {
                writer
                    .append(&WalRecord::Statement(format!(
                        "INSERT DATA {{ <urn:s{i}> <urn:p> {i} . }}"
                    )))
                    .unwrap();
            }
            assert!(writer.segment_count() > 2);
        }
        // Flip a payload byte in the middle of the first segment.
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        let mid = SEGMENT_HEADER + frame::FRAME_HEADER + 4;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            WalReader::scan(&dir),
            Err(StorageError::Backend(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncate_drops_old_segments_keeps_tail() {
        let dir = tmp_dir("checkpoint");
        let options = WalOptions {
            segment_bytes: 64,
            ..WalOptions::default()
        };
        let (mut writer, _) = WalWriter::open(&dir, options).unwrap();
        for i in 0..8u64 {
            writer
                .append(&WalRecord::Statement(format!(
                    "INSERT DATA {{ <urn:s{i}> <urn:p> {i} . }}"
                )))
                .unwrap();
        }
        let lsn = writer.next_lsn();
        writer.checkpoint_truncate(lsn).unwrap();
        assert_eq!(writer.stats().checkpoints, 1);
        // Everything below the checkpoint LSN is gone; the checkpoint
        // marker itself survives in the fresh segment.
        let scan = WalReader::scan(&dir).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].1, WalRecord::Checkpoint { wal_lsn: lsn });
        assert!(scan.records[0].0 >= lsn);
        // Post-checkpoint appends land after the marker.
        writer
            .append(&WalRecord::Statement(
                "INSERT DATA { <urn:t> <urn:p> 9 . }".into(),
            ))
            .unwrap();
        drop(writer);
        let (_, recovery) = WalWriter::open(&dir, options).unwrap();
        assert_eq!(recovery.records.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_plan_tears_exactly_at_budget_and_recovery_truncates() {
        let dir = tmp_dir("crash");
        let record = WalRecord::Statement("INSERT DATA { <urn:s> <urn:p> 1 . }".into());
        let record_len = frame::encode(&encode_payload(0, &record)).len() as u64;
        // Budget: header + one full record + half of the second.
        let budget = SEGMENT_HEADER as u64 + record_len + record_len / 2;
        let options = WalOptions {
            crash: Some(CrashPlan {
                at_bytes: budget,
                garbage: true,
                seed: 11,
            }),
            ..WalOptions::default()
        };
        let (mut writer, _) = WalWriter::open(&dir, options).unwrap();
        assert!(writer.append(&record).is_ok());
        assert!(writer.append(&record).is_err());
        // Dead forever after.
        assert!(writer.append(&record).is_err());
        drop(writer);
        let (_, recovery) = WalWriter::open(&dir, WalOptions::default()).unwrap();
        assert!(recovery.truncated_tail);
        assert_eq!(recovery.records.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_during_segment_creation_recovers_to_empty() {
        let dir = tmp_dir("crash-header");
        let options = WalOptions {
            crash: Some(CrashPlan {
                at_bytes: 7,
                garbage: false,
                seed: 1,
            }),
            ..WalOptions::default()
        };
        assert!(WalWriter::open(&dir, options).is_err());
        let (writer, recovery) = WalWriter::open(&dir, WalOptions::default()).unwrap();
        assert!(recovery.truncated_tail);
        assert!(recovery.records.is_empty());
        assert_eq!(writer.next_lsn(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_policy_parses_cli_spellings() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("off"), Some(FsyncPolicy::Off));
        assert_eq!(
            FsyncPolicy::parse("interval:250"),
            Some(FsyncPolicy::Interval(Duration::from_millis(250)))
        );
        assert_eq!(
            FsyncPolicy::parse("interval"),
            Some(FsyncPolicy::Interval(Duration::from_millis(100)))
        );
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        assert_eq!(
            FsyncPolicy::Interval(Duration::from_millis(250)).to_string(),
            "interval:250"
        );
    }

    #[test]
    fn fsync_policy_zero_interval_normalises_to_always() {
        // `interval:0` used to be accepted verbatim: it fsynced on
        // every append (a zero period is always elapsed) while
        // *reporting* itself as `interval:0` — the displayed policy and
        // the durability behaviour disagreed.
        assert_eq!(FsyncPolicy::parse("interval:0"), Some(FsyncPolicy::Always));
        assert_eq!(
            FsyncPolicy::parse("interval:0").unwrap().to_string(),
            "always"
        );
    }

    #[test]
    fn fsync_policy_parse_display_round_trips() {
        for policy in [
            FsyncPolicy::Always,
            FsyncPolicy::Off,
            FsyncPolicy::Interval(Duration::from_millis(1)),
            FsyncPolicy::Interval(Duration::from_millis(100)),
            FsyncPolicy::Interval(Duration::from_millis(250)),
        ] {
            let spelled = policy.to_string();
            assert_eq!(
                FsyncPolicy::parse(&spelled),
                Some(policy),
                "round-trip through {spelled:?}"
            );
        }
    }

    #[test]
    fn off_policy_never_fsyncs_interval_batches() {
        let dir = tmp_dir("policies");
        let options = WalOptions {
            policy: FsyncPolicy::Off,
            ..WalOptions::default()
        };
        let (mut writer, _) = WalWriter::open(&dir, options).unwrap();
        for record in sample_records() {
            writer.append(&record).unwrap();
        }
        assert_eq!(writer.stats().fsyncs, 0);
        writer.sync().unwrap();
        assert_eq!(writer.stats().fsyncs, 1);
        assert_eq!(writer.stats().bytes_fsynced, writer.stats().bytes_appended);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn seek_is_not_needed_records_are_append_only() {
        // Guard against accidental use of seek-based positioning: the
        // append file handle is opened in append mode on reopen, so
        // stream position starts at the end.
        let dir = tmp_dir("append-only");
        {
            let (mut writer, _) = WalWriter::open(&dir, WalOptions::default()).unwrap();
            writer
                .append(&WalRecord::Statement(
                    "INSERT DATA { <urn:s> <urn:p> 1 . }".into(),
                ))
                .unwrap();
        }
        let (mut writer, _) = WalWriter::open(&dir, WalOptions::default()).unwrap();
        writer
            .append(&WalRecord::Statement(
                "INSERT DATA { <urn:s> <urn:p> 2 . }".into(),
            ))
            .unwrap();
        drop(writer);
        let scan = WalReader::scan(&dir).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[1].0, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
