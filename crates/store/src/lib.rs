//! # sdq-store
//!
//! The persistence subsystem of the SD-Query workspace: **build once, query
//! many**. A [`Snapshot`] bundles any subset of the queryable artifacts —
//! the raw [`Dataset`], its dimension roles, the §5 [`SdIndex`], a §4
//! [`TopKIndex`], a §3 [`Top1Index`] and the R*-tree baseline — into one
//! versioned, checksummed binary file that restores without any rebuilding.
//!
//! ## Legacy file formats (versions 1 through 4, read-only)
//!
//! This build writes only version 5 (below). It still reads every older
//! version, so old files keep loading; the next save of a loaded snapshot
//! rewrites it as v5.
//!
//! ```text
//! offset  size  field
//! ------  ----  -----
//!      0     8  magic  b"SDQSNAP\0"
//!      8     4  format version (u32 LE)
//!     12     4  section count (u32 LE)
//!     16   28·n section table: {kind u32, reserved u32, offset u64, len u64, crc32 u32}
//!      …     4  CRC-32 of the section table
//!      …        section payloads (sdq_core::codec bytes), in table order
//! ```
//!
//! **Version 2** adds the sharded engine: an `engine-manifest` section
//! (dimensionality, roles, per-shard row counts) plus one `engine-shard`
//! section per shard — the shard's [`SdIndex`] codec bytes, with the shard
//! ordinal carried in the table entry's previously-reserved `u32`.
//!
//! **Version 3** adds the engine's uncompacted write state: a
//! `mutation-delta` section (the delta-region rows as plain [`Dataset`]
//! codec bytes) and a `mutation-tombstones` section (the addressable row
//! domain as a `u64`, then the dead row ids as a sorted ascending `u32`
//! list). Both are present only when non-empty.
//!
//! **Version 4** adds the `durability` section: the checkpoint generation
//! and epoch that tie a snapshot to its write-ahead log (see the
//! [`durable`] module).
//!
//! Every legacy section payload carries a CRC-32; the table itself is
//! covered by a trailing table checksum, so *any* single flipped byte in
//! the file is detected before decoding begins. Structural validation inside
//! `sdq_core::codec` is the second line of defence: even a checksum
//! collision cannot produce an index that panics at query time.
//!
//! ## File format version 5 (zero-copy / mmap-native)
//!
//! Version 5 keeps the container (magic, version, section table, table
//! CRC-32) but changes the section payloads to the **aligned region
//! encoding** of `sdq_core::codec`: every section payload starts on a
//! 64-byte file offset and consists of framed regions — small `[crc32c]
//! [len]` *metadata* regions verified eagerly at open, and `[crc32c]
//! [count][pad-to-64]` *array* regions whose payload bytes are the exact
//! little-endian in-memory representation of the hot structures (point
//! tables, SoA leaf blocks, sorted columns, coordinate tables). Array
//! checksums are verified **lazily on first touch** (see
//! [`sdq_core::SectionIntegrity`]). Table entries of a v5 file carry
//! `crc32 = 0` — integrity lives in the region headers — and padding bytes
//! between sections must be zero.
//!
//! [`Snapshot::open_mapped`] reinterprets those array regions in place over
//! an `mmap` of the file: open cost is O(metadata), the first query pays
//! one checksum pass over only the regions it touches, and resident memory
//! scales with touched pages rather than file size. [`Snapshot::from_bytes`]
//! reads v5 eagerly (owned copies, checksums up front). Both readers accept
//! every version; [`Snapshot::to_bytes`] and [`Snapshot::save`] always
//! write v5.
//!
//! ## Example
//!
//! ```
//! use sdq_core::{Dataset, DimRole, SdQuery, multidim::SdIndex};
//! use sdq_store::Snapshot;
//!
//! let data = Dataset::from_rows(2, &[vec![1.0, 9.0], vec![1.1, 2.0]]).unwrap();
//! let roles = vec![DimRole::Attractive, DimRole::Repulsive];
//! let index = SdIndex::build(data, &roles).unwrap();
//!
//! let mut snap = Snapshot::new();
//! snap.sd = Some(index);
//! let bytes = snap.to_bytes().unwrap();
//!
//! let restored = Snapshot::from_bytes(&bytes).unwrap();
//! let q = SdQuery::uniform_weights(vec![1.0, 2.0], &roles);
//! let top = restored.sd.as_ref().unwrap().query(&q, 1).unwrap();
//! assert_eq!(top[0].id.index(), 0);
//! ```

pub mod chaos;
mod crc32;
pub mod durable;
pub mod io;
pub mod scrub;
pub mod wal;

use std::path::Path;
use std::sync::Arc;

use sdq_core::codec::{corrupt, decode_from_slice, Codec, Reader, Writer, REGION_ALIGN};
use sdq_core::integrity::ensure_all;
use sdq_core::multidim::SdIndex;
use sdq_core::top1::Top1Index;
use sdq_core::topk::TopKIndex;
use sdq_core::{Dataset, DimRole, SdError, SectionIntegrity};
use sdq_engine::SdEngine;
use sdq_rstar::RStarTree;

pub use chaos::{run_chaos, ChaosConfig, ChaosReport};
pub use crc32::crc32;
pub use durable::{
    DurableEngine, DurableOptions, Health, RecoveryReport, SyncPolicy, WalStatus, RETRY_BUDGET,
};
pub use io::{DiskStorage, Fault, FaultScript, MappedBytes, MemStorage, Storage};
pub use scrub::{scrub_path, RegionFinding, ScrubReport};
pub use sdq_core::CrcState;

/// `b"SDQSNAP\0"` — the first 8 bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"SDQSNAP\0";

/// The newest format version this build reads — and the only one it
/// writes.
pub const FORMAT_VERSION: u32 = 5;

/// The original format (no engine sections). Read-only.
pub const FORMAT_V1: u32 = 1;

/// The sharded-engine format. Read-only.
pub const FORMAT_V2: u32 = 2;

/// The live-mutation format (delta + tombstone sections). Read-only;
/// pinned so section gating cannot shift what these sections require.
pub const FORMAT_V3: u32 = 3;

/// The durability format (checkpoint-generation section tying a snapshot
/// to its WAL). Read-only.
pub const FORMAT_V4: u32 = 4;

/// The zero-copy format: 64-byte-aligned region-framed section payloads
/// whose array regions are the exact in-memory representation, checksummed
/// lazily (CRC-32C) on first touch. Written by [`Snapshot::to_bytes`];
/// mappable via [`Snapshot::open_mapped`].
pub const FORMAT_V5: u32 = 5;

/// Hard cap on the section count, far above anything legitimate; rejects
/// absurd table sizes from corrupt headers before allocation.
const MAX_SECTIONS: u32 = 1024;

/// Bytes per section-table entry: kind + reserved + offset + len + crc32.
const TABLE_ENTRY_BYTES: usize = 4 + 4 + 8 + 8 + 4;

/// What one section of a snapshot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionKind {
    /// A raw [`Dataset`].
    Dataset = 1,
    /// The dimension roles the indexes were built under.
    Roles = 2,
    /// The §5 multi-dimensional [`SdIndex`].
    SdIndex = 3,
    /// A §4 2-D [`TopKIndex`].
    TopKIndex = 4,
    /// A §3 fixed-parameter [`Top1Index`].
    Top1Index = 5,
    /// The R*-tree baseline substrate.
    RStarTree = 6,
    /// The sharded engine's manifest (dims, roles, shard row counts).
    /// Format v2+.
    EngineManifest = 7,
    /// One engine shard's [`SdIndex`]; the shard ordinal lives in the
    /// table entry's reserved `u32`. Format v2+.
    EngineShard = 8,
    /// The engine's delta region: uncompacted inserted rows, as plain
    /// [`Dataset`] codec bytes. Format v3+.
    MutationDelta = 9,
    /// The engine's tombstones: the addressable row domain (`u64`) plus the
    /// dead row ids as a sorted ascending `u32` list. Format v3+.
    MutationTombstones = 10,
    /// Durability metadata: checkpoint generation (`u64`) and checkpoint
    /// epoch (`u64`), linking the snapshot to its WAL. Format v4+.
    Durability = 11,
}

impl SectionKind {
    fn from_u32(v: u32) -> Option<Self> {
        match v {
            1 => Some(SectionKind::Dataset),
            2 => Some(SectionKind::Roles),
            3 => Some(SectionKind::SdIndex),
            4 => Some(SectionKind::TopKIndex),
            5 => Some(SectionKind::Top1Index),
            6 => Some(SectionKind::RStarTree),
            7 => Some(SectionKind::EngineManifest),
            8 => Some(SectionKind::EngineShard),
            9 => Some(SectionKind::MutationDelta),
            10 => Some(SectionKind::MutationTombstones),
            11 => Some(SectionKind::Durability),
            _ => None,
        }
    }

    /// Human-readable section name (used in errors and `sdq inspect`).
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Dataset => "dataset",
            SectionKind::Roles => "roles",
            SectionKind::SdIndex => "sd-index",
            SectionKind::TopKIndex => "topk-index",
            SectionKind::Top1Index => "top1-index",
            SectionKind::RStarTree => "rstar-tree",
            SectionKind::EngineManifest => "engine-manifest",
            SectionKind::EngineShard => "engine-shard",
            SectionKind::MutationDelta => "mutation-delta",
            SectionKind::MutationTombstones => "mutation-tombstones",
            SectionKind::Durability => "durability",
        }
    }

    /// The lowest format version in which this section kind may appear.
    fn min_version(self) -> u32 {
        match self {
            SectionKind::Dataset
            | SectionKind::Roles
            | SectionKind::SdIndex
            | SectionKind::TopKIndex
            | SectionKind::Top1Index
            | SectionKind::RStarTree => FORMAT_V1,
            SectionKind::EngineManifest | SectionKind::EngineShard => FORMAT_V2,
            SectionKind::MutationDelta | SectionKind::MutationTombstones => FORMAT_V3,
            SectionKind::Durability => FORMAT_V4,
        }
    }
}

/// The v4 durability section: ties a snapshot to its write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurabilityInfo {
    /// Checkpoint generation; must match the WAL header's generation for
    /// the log to be replayed (a lower WAL generation means its records
    /// are already folded into this snapshot).
    pub generation: u64,
    /// Engine epoch at the checkpoint that wrote this snapshot.
    pub checkpoint_epoch: u64,
}

impl DurabilityInfo {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.generation);
        w.u64(self.checkpoint_epoch);
        w.into_bytes()
    }

    fn decode_fields(r: &mut Reader<'_>) -> Result<Self, SdError> {
        let generation = r.u64()?;
        let checkpoint_epoch = r.u64()?;
        if generation == 0 {
            return Err(corrupt("durability generation 0 is invalid"));
        }
        Ok(DurabilityInfo {
            generation,
            checkpoint_epoch,
        })
    }

    fn decode(bytes: &[u8]) -> Result<Self, SdError> {
        let mut r = Reader::new(bytes);
        let info = Self::decode_fields(&mut r)?;
        if r.remaining() != 0 {
            return Err(corrupt("trailing bytes after durability section"));
        }
        Ok(info)
    }
}

/// The v2 engine manifest: everything needed to validate and reassemble the
/// shard sections into an [`SdEngine`].
struct EngineManifest {
    dims: usize,
    roles: Vec<DimRole>,
    shard_rows: Vec<u64>,
}

impl EngineManifest {
    fn of(engine: &SdEngine) -> Self {
        EngineManifest {
            dims: engine.dims(),
            roles: engine.roles().to_vec(),
            shard_rows: engine
                .shards()
                .iter()
                .map(|s| s.data().len() as u64)
                .collect(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.usize(self.dims);
        self.roles.encode(&mut w);
        w.usize(self.shard_rows.len());
        for &r in &self.shard_rows {
            w.u64(r);
        }
        w.into_bytes()
    }

    fn decode_fields(r: &mut Reader<'_>) -> Result<Self, SdError> {
        let dims = r.usize()?;
        let roles = Vec::<DimRole>::decode(r)?;
        let count = r.len_prefix(8)?;
        let mut shard_rows = Vec::with_capacity(count);
        for _ in 0..count {
            shard_rows.push(r.u64()?);
        }
        if roles.len() != dims {
            return Err(corrupt(format!(
                "engine manifest names {} roles for {dims} dimensions",
                roles.len()
            )));
        }
        Ok(EngineManifest {
            dims,
            roles,
            shard_rows,
        })
    }

    fn decode(bytes: &[u8]) -> Result<Self, SdError> {
        let mut r = Reader::new(bytes);
        let m = Self::decode_fields(&mut r)?;
        if r.remaining() != 0 {
            return Err(corrupt("trailing bytes after engine manifest"));
        }
        Ok(m)
    }
}

/// Every queryable artifact a snapshot can persist. All slots optional; a
/// snapshot stores whichever are `Some`.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// The raw dataset (for workloads that rebuild or re-index later).
    pub dataset: Option<Dataset>,
    /// Dimension roles, stored alongside so a query session needs no
    /// out-of-band knowledge.
    pub roles: Option<Vec<DimRole>>,
    /// The §5 index (contains its own copy of the dataset).
    pub sd: Option<SdIndex>,
    /// A §4 2-D projection-bound tree.
    pub topk: Option<TopKIndex>,
    /// A §3 fixed-`k`/fixed-weights index.
    pub top1: Option<Top1Index>,
    /// The R*-tree baseline.
    pub rstar: Option<RStarTree>,
    /// The sharded execution engine.
    pub engine: Option<SdEngine>,
    /// Durability metadata written by [`DurableEngine`] checkpoints.
    pub durability: Option<DurabilityInfo>,
}

/// Metadata of one stored section, as reported by [`Snapshot::inspect_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// What the section holds; `None` for kinds this build does not know.
    pub kind: Option<SectionKind>,
    /// Raw kind tag as stored.
    pub raw_kind: u32,
    /// Absolute file offset of the payload.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// Stored CRC-32 of the payload.
    pub crc32: u32,
}

/// Parsed header of a snapshot, without decoding any payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Stored format version.
    pub version: u32,
    /// Total file size in bytes.
    pub file_len: u64,
    /// The section table.
    pub sections: Vec<SectionInfo>,
}

struct TableEntry {
    raw_kind: u32,
    reserved: u32,
    offset: u64,
    len: u64,
    crc: u32,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// `true` when no artifact is present.
    pub fn is_empty(&self) -> bool {
        self.dataset.is_none()
            && self.roles.is_none()
            && self.sd.is_none()
            && self.topk.is_none()
            && self.top1.is_none()
            && self.rstar.is_none()
            && self.engine.is_none()
            && self.durability.is_none()
    }

    /// Verifies every lazily-checksummed region reachable from the
    /// queryable artifacts (mapped §5 indexes, 2-D trees, engine shards).
    /// A no-op on fully owned snapshots. Called by [`Snapshot::to_bytes`]
    /// so corrupt mapped bytes are never re-encoded under fresh checksums.
    pub fn verify_integrity(&self) -> Result<(), SdError> {
        if let Some(sd) = &self.sd {
            sd.verify_integrity()?;
        }
        if let Some(t) = &self.topk {
            t.verify_integrity()?;
        }
        if let Some(e) = &self.engine {
            for shard in e.shards() {
                shard.verify_integrity()?;
            }
        }
        Ok(())
    }

    /// Every present artifact as `(kind, reserved, payload)` in the v5
    /// encoding: hot artifacts as aligned region streams, small metadata
    /// kinds as their legacy bytes wrapped in one eager meta region.
    fn v5_sections(&self) -> Vec<(SectionKind, u32, Vec<u8>)> {
        fn aligned(f: impl FnOnce(&mut Writer)) -> Vec<u8> {
            let mut w = Writer::new_aligned();
            f(&mut w);
            w.into_bytes()
        }
        fn wrapped(f: impl FnOnce(&mut Writer)) -> Vec<u8> {
            let mut w = Writer::new_aligned();
            w.meta_region(f);
            w.into_bytes()
        }
        let mut sections: Vec<(SectionKind, u32, Vec<u8>)> = Vec::new();
        if let Some(d) = &self.dataset {
            sections.push((SectionKind::Dataset, 0, aligned(|w| d.encode(w))));
        }
        if let Some(r) = &self.roles {
            sections.push((SectionKind::Roles, 0, wrapped(|w| r.encode(w))));
        }
        if let Some(i) = &self.sd {
            sections.push((SectionKind::SdIndex, 0, aligned(|w| i.encode(w))));
        }
        if let Some(i) = &self.topk {
            sections.push((SectionKind::TopKIndex, 0, aligned(|w| i.encode(w))));
        }
        if let Some(i) = &self.top1 {
            sections.push((SectionKind::Top1Index, 0, wrapped(|w| i.encode(w))));
        }
        if let Some(t) = &self.rstar {
            sections.push((SectionKind::RStarTree, 0, wrapped(|w| t.encode(w))));
        }
        if let Some(e) = &self.engine {
            sections.push((
                SectionKind::EngineManifest,
                0,
                wrapped(|w| w.bytes(&EngineManifest::of(e).encode())),
            ));
            for (ordinal, shard) in e.shards().iter().enumerate() {
                sections.push((
                    SectionKind::EngineShard,
                    ordinal as u32,
                    aligned(|w| shard.encode(w)),
                ));
            }
            if !e.delta().is_empty() {
                sections.push((
                    SectionKind::MutationDelta,
                    0,
                    aligned(|w| e.delta().encode(w)),
                ));
            }
            let tombstones = e.tombstone_ids();
            if !tombstones.is_empty() {
                sections.push((
                    SectionKind::MutationTombstones,
                    0,
                    wrapped(|w| {
                        w.u64(e.total_rows() as u64);
                        w.u32s(&tombstones);
                    }),
                ));
            }
        }
        if let Some(d) = &self.durability {
            sections.push((
                SectionKind::Durability,
                0,
                wrapped(|w| w.bytes(&d.encode())),
            ));
        }
        sections
    }

    /// Serialises in format v5: section payloads start on 64-byte file
    /// offsets (zero-padded gaps), table CRCs are zero (integrity lives in
    /// the per-region CRC-32C headers) and array payloads are the exact
    /// in-memory representation, so [`Snapshot::open_mapped`] can serve
    /// queries straight off the file.
    ///
    /// Fails only when this snapshot holds mapped views whose deferred
    /// checksums turn out bad — corruption must surface, not be laundered
    /// under fresh checksums.
    pub fn to_bytes(&self) -> Result<Vec<u8>, SdError> {
        self.verify_integrity()?;
        let sections = self.v5_sections();
        let table_bytes = TABLE_ENTRY_BYTES * sections.len();
        let header_len = (8 + 4 + 4 + table_bytes + 4) as u64;

        let mut table = Writer::new();
        let mut offsets = Vec::with_capacity(sections.len());
        let mut offset = header_len.next_multiple_of(REGION_ALIGN as u64);
        for (kind, reserved, payload) in &sections {
            table.u32(*kind as u32);
            table.u32(*reserved);
            table.u64(offset);
            table.u64(payload.len() as u64);
            table.u32(0);
            offsets.push(offset);
            offset = (offset + payload.len() as u64).next_multiple_of(REGION_ALIGN as u64);
        }
        let table = table.into_bytes();

        let mut out = Vec::with_capacity(offset as usize);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_V5.to_le_bytes());
        out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        out.extend_from_slice(&table);
        out.extend_from_slice(&crc32(&table).to_le_bytes());
        for (off, (_, _, payload)) in offsets.iter().zip(&sections) {
            out.resize(*off as usize, 0);
            out.extend_from_slice(payload);
        }
        Ok(out)
    }

    fn parse_header(bytes: &[u8]) -> Result<(u32, Vec<TableEntry>), SdError> {
        let mut r = Reader::new(bytes);
        let magic = r.take(8).map_err(|_| SdError::SnapshotBadMagic)?;
        if magic != MAGIC {
            return Err(SdError::SnapshotBadMagic);
        }
        let version = r.u32()?;
        if version > FORMAT_VERSION {
            return Err(SdError::SnapshotVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        if version == 0 {
            return Err(corrupt("format version 0 is invalid"));
        }
        let count = r.u32()?;
        if count > MAX_SECTIONS {
            return Err(corrupt(format!(
                "section count {count} exceeds the {MAX_SECTIONS} cap"
            )));
        }
        let table_raw = r.take(TABLE_ENTRY_BYTES * count as usize)?;
        let stored_table_crc = r.u32()?;
        if crc32(table_raw) != stored_table_crc {
            return Err(SdError::SnapshotChecksum {
                section: "section table".to_string(),
            });
        }
        let mut entries = Vec::with_capacity(count as usize);
        let mut tr = Reader::new(table_raw);
        for _ in 0..count {
            let raw_kind = tr.u32()?;
            let reserved = tr.u32()?;
            let offset = tr.u64()?;
            let len = tr.u64()?;
            let crc = tr.u32()?;
            entries.push(TableEntry {
                raw_kind,
                reserved,
                offset,
                len,
                crc,
            });
        }
        Ok((version, entries))
    }

    fn section_slice<'a>(bytes: &'a [u8], entry: &TableEntry) -> Result<&'a [u8], SdError> {
        let start =
            usize::try_from(entry.offset).map_err(|_| corrupt("section offset exceeds usize"))?;
        let len =
            usize::try_from(entry.len).map_err(|_| corrupt("section length exceeds usize"))?;
        let end = start
            .checked_add(len)
            .ok_or_else(|| corrupt("section range overflows"))?;
        if end > bytes.len() {
            return Err(corrupt(format!(
                "section [{start}, {end}) outside the {}-byte file (truncated?)",
                bytes.len()
            )));
        }
        Ok(&bytes[start..end])
    }

    /// Checks that the file ends exactly where the section table says it
    /// does — appended garbage is as suspect as truncation.
    fn check_file_len(bytes: &[u8], entries: &[TableEntry]) -> Result<(), SdError> {
        let header_len = (8 + 4 + 4 + TABLE_ENTRY_BYTES * entries.len() + 4) as u64;
        let expected_len = entries
            .iter()
            .fold(header_len, |acc, e| acc.max(e.offset.saturating_add(e.len)));
        if bytes.len() as u64 != expected_len {
            return Err(corrupt(format!(
                "file is {} bytes but the section table accounts for {expected_len}",
                bytes.len()
            )));
        }
        Ok(())
    }

    /// Restores a snapshot from container bytes, verifying the magic, the
    /// format version and every checksum before decoding. Reads every
    /// format version; v5 files are decoded eagerly into owned memory
    /// (use [`Snapshot::open_mapped`] for the zero-copy path).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SdError> {
        let (version, entries) = Self::parse_header(bytes)?;
        Self::check_file_len(bytes, &entries)?;
        if version == FORMAT_V5 {
            return Self::decode_v5(bytes, &entries, None).map(|(snap, _)| snap);
        }
        let mut snap = Snapshot::new();
        let mut manifest: Option<EngineManifest> = None;
        let mut engine_shards: Vec<(u32, SdIndex)> = Vec::new();
        let mut delta: Option<Dataset> = None;
        let mut tombstones: Option<(u64, Vec<u32>)> = None;
        for entry in &entries {
            let payload = Self::section_slice(bytes, entry)?;
            let kind = SectionKind::from_u32(entry.raw_kind)
                .ok_or_else(|| corrupt(format!("unknown section kind {}", entry.raw_kind)))?;
            if crc32(payload) != entry.crc {
                return Err(SdError::SnapshotChecksum {
                    section: kind.name().to_string(),
                });
            }
            if version < kind.min_version() {
                return Err(corrupt(format!(
                    "{} section in a format-v{version} file",
                    kind.name()
                )));
            }
            match kind {
                SectionKind::Dataset => snap.dataset = Some(decode_from_slice(payload)?),
                SectionKind::Roles => snap.roles = Some(decode_from_slice(payload)?),
                SectionKind::SdIndex => snap.sd = Some(decode_from_slice(payload)?),
                SectionKind::TopKIndex => snap.topk = Some(decode_from_slice(payload)?),
                SectionKind::Top1Index => snap.top1 = Some(decode_from_slice(payload)?),
                SectionKind::RStarTree => snap.rstar = Some(decode_from_slice(payload)?),
                SectionKind::EngineManifest => manifest = Some(EngineManifest::decode(payload)?),
                SectionKind::EngineShard => {
                    engine_shards.push((entry.reserved, decode_from_slice(payload)?))
                }
                SectionKind::MutationDelta => delta = Some(decode_from_slice(payload)?),
                SectionKind::MutationTombstones => {
                    tombstones = Some(Self::decode_tombstones(payload)?)
                }
                SectionKind::Durability => snap.durability = Some(DurabilityInfo::decode(payload)?),
            }
        }
        Self::finish_engine(&mut snap, manifest, engine_shards, delta, tombstones)?;
        Ok(snap)
    }

    /// Reassembles the engine (when present) and restores its mutation
    /// state — the shared tail of every decode path.
    fn finish_engine(
        snap: &mut Snapshot,
        manifest: Option<EngineManifest>,
        engine_shards: Vec<(u32, SdIndex)>,
        delta: Option<Dataset>,
        tombstones: Option<(u64, Vec<u32>)>,
    ) -> Result<(), SdError> {
        snap.engine = Self::assemble_engine(manifest, engine_shards)?;
        if delta.is_some() || tombstones.is_some() {
            let Some(engine) = snap.engine.as_mut() else {
                return Err(corrupt("mutation section without an engine"));
            };
            let delta = match delta {
                Some(d) => d,
                None => Dataset::from_flat(engine.dims(), Vec::new())
                    .expect("empty dataset is always valid"),
            };
            let domain = (engine.total_rows() + delta.len()) as u64;
            let ids = match tombstones {
                Some((stored_domain, ids)) => {
                    if stored_domain != domain {
                        return Err(corrupt(format!(
                            "tombstone domain {stored_domain} disagrees with the \
                             {domain} addressable rows (base + delta)"
                        )));
                    }
                    ids
                }
                None => Vec::new(),
            };
            engine.restore_mutations(delta, &ids)?;
        }
        Ok(())
    }

    /// Decodes a format-v5 file. With `keep = Some(...)` the hot array
    /// regions become borrowed views of that buffer (checksums lazy);
    /// otherwise everything is copied and verified eagerly. Returns the
    /// snapshot plus every region walked, for inspection and
    /// [`MappedSnapshot::verify_all`].
    fn decode_v5(
        bytes: &[u8],
        entries: &[TableEntry],
        keep: Option<&MappedBytes>,
    ) -> Result<(Snapshot, Vec<Arc<SectionIntegrity>>), SdError> {
        // Layout discipline before any payload is trusted: entries in
        // ascending offset order, every payload 64-aligned, table CRCs
        // zeroed (integrity lives in the region headers), gaps zero.
        let header_len = (8 + 4 + 4 + TABLE_ENTRY_BYTES * entries.len() + 4) as u64;
        let mut cursor = header_len;
        for entry in entries {
            if entry.crc != 0 {
                return Err(corrupt(
                    "v5 table entry carries a section CRC (regions carry their own)",
                ));
            }
            if entry.offset % REGION_ALIGN as u64 != 0 {
                return Err(corrupt(format!(
                    "v5 section at offset {} is not {REGION_ALIGN}-byte aligned",
                    entry.offset
                )));
            }
            if entry.offset < cursor {
                return Err(corrupt(
                    "v5 sections overlap or are out of table order".to_string(),
                ));
            }
            // The gap is inside the file: offsets were bounds-checked by
            // `check_file_len` only as max(end); re-check begin here.
            let (gap_start, gap_end) = (cursor as usize, entry.offset as usize);
            if gap_end > bytes.len() {
                return Err(corrupt("v5 section offset beyond end of file"));
            }
            if bytes[gap_start..gap_end].iter().any(|&b| b != 0) {
                return Err(corrupt("nonzero padding between v5 sections"));
            }
            cursor = entry
                .offset
                .checked_add(entry.len)
                .ok_or_else(|| corrupt("section range overflows"))?;
        }
        let mut snap = Snapshot::new();
        let mut regions: Vec<Arc<SectionIntegrity>> = Vec::new();
        let mut manifest: Option<EngineManifest> = None;
        let mut engine_shards: Vec<(u32, SdIndex)> = Vec::new();
        let mut delta: Option<Dataset> = None;
        let mut tombstones: Option<(u64, Vec<u32>)> = None;
        for entry in entries {
            let payload = Self::section_slice(bytes, entry)?;
            let kind = SectionKind::from_u32(entry.raw_kind)
                .ok_or_else(|| corrupt(format!("unknown section kind {}", entry.raw_kind)))?;
            let prefix = match kind {
                SectionKind::EngineShard => format!("{}{}", kind.name(), entry.reserved),
                _ => kind.name().to_string(),
            };
            // Only the hot artifacts are worth borrowing; small metadata
            // sections (and the delta, which mutations rewrite anyway) are
            // decoded eagerly even in mapped mode.
            let map_this = matches!(
                kind,
                SectionKind::Dataset
                    | SectionKind::SdIndex
                    | SectionKind::TopKIndex
                    | SectionKind::EngineShard
            );
            let mut r = match (keep, map_this) {
                (Some(mb), true) => {
                    // Safety: `payload` borrows `mb`'s buffer (64-aligned
                    // base + 64-aligned section offset) and `mb.keep()`
                    // pins that memory for as long as any view lives.
                    unsafe { Reader::new_mapped(payload, mb.keep(), prefix, entry.offset) }
                }
                _ => Reader::new_aligned(payload, prefix, entry.offset),
            };
            match kind {
                SectionKind::Dataset => snap.dataset = Some(Dataset::decode(&mut r)?),
                SectionKind::Roles => {
                    snap.roles = Some(r.meta_region("legacy", Vec::<DimRole>::decode)?)
                }
                SectionKind::SdIndex => snap.sd = Some(SdIndex::decode(&mut r)?),
                SectionKind::TopKIndex => snap.topk = Some(TopKIndex::decode(&mut r)?),
                SectionKind::Top1Index => {
                    snap.top1 = Some(r.meta_region("legacy", Top1Index::decode)?)
                }
                SectionKind::RStarTree => {
                    snap.rstar = Some(r.meta_region("legacy", RStarTree::decode)?)
                }
                SectionKind::EngineManifest => {
                    manifest = Some(r.meta_region("legacy", EngineManifest::decode_fields)?)
                }
                SectionKind::EngineShard => {
                    engine_shards.push((entry.reserved, SdIndex::decode(&mut r)?))
                }
                SectionKind::MutationDelta => delta = Some(Dataset::decode(&mut r)?),
                SectionKind::MutationTombstones => {
                    tombstones = Some(r.meta_region("legacy", Self::decode_tombstone_fields)?)
                }
                SectionKind::Durability => {
                    snap.durability = Some(r.meta_region("legacy", DurabilityInfo::decode_fields)?)
                }
            }
            if !r.is_exhausted() {
                return Err(corrupt(format!(
                    "{} trailing bytes in {} section",
                    r.remaining(),
                    kind.name()
                )));
            }
            regions.extend(r.take_regions());
        }
        Self::finish_engine(&mut snap, manifest, engine_shards, delta, tombstones)?;
        Ok((snap, regions))
    }

    /// Decodes `mutation-tombstones` fields: `u64` domain plus sorted
    /// strictly-ascending `u32` ids (canonical, so bytes stay
    /// deterministic across save→load→save).
    fn decode_tombstone_fields(r: &mut Reader<'_>) -> Result<(u64, Vec<u32>), SdError> {
        let domain = r.u64()?;
        let ids = r.u32s()?;
        for pair in ids.windows(2) {
            if pair[0] >= pair[1] {
                return Err(corrupt(format!(
                    "tombstone ids not strictly ascending ({} then {})",
                    pair[0], pair[1]
                )));
            }
        }
        Ok((domain, ids))
    }

    fn decode_tombstones(payload: &[u8]) -> Result<(u64, Vec<u32>), SdError> {
        let mut r = Reader::new(payload);
        let out = Self::decode_tombstone_fields(&mut r)?;
        if r.remaining() != 0 {
            return Err(corrupt("trailing bytes after tombstone list"));
        }
        Ok(out)
    }

    /// Validates the engine manifest against the decoded shard sections and
    /// reassembles the [`SdEngine`].
    fn assemble_engine(
        manifest: Option<EngineManifest>,
        mut shards: Vec<(u32, SdIndex)>,
    ) -> Result<Option<SdEngine>, SdError> {
        let Some(m) = manifest else {
            if shards.is_empty() {
                return Ok(None);
            }
            return Err(corrupt("engine-shard section without engine-manifest"));
        };
        if shards.len() != m.shard_rows.len() {
            return Err(corrupt(format!(
                "engine manifest names {} shards but {} shard sections are present",
                m.shard_rows.len(),
                shards.len()
            )));
        }
        shards.sort_by_key(|&(ordinal, _)| ordinal);
        for (i, (ordinal, shard)) in shards.iter().enumerate() {
            if *ordinal as usize != i {
                return Err(corrupt(format!(
                    "engine shard ordinals are not 0..{} (found {ordinal} at position {i})",
                    shards.len()
                )));
            }
            if shard.data().len() as u64 != m.shard_rows[i] {
                return Err(corrupt(format!(
                    "engine shard {i} holds {} rows but the manifest says {}",
                    shard.data().len(),
                    m.shard_rows[i]
                )));
            }
        }
        let indexes: Vec<SdIndex> = shards.into_iter().map(|(_, s)| s).collect();
        Ok(Some(SdEngine::from_parts(m.dims, m.roles, indexes)?))
    }

    /// Parses only the header and section table — cheap metadata access for
    /// `sdq inspect`.
    pub fn inspect_bytes(bytes: &[u8]) -> Result<SnapshotInfo, SdError> {
        let (version, entries) = Self::parse_header(bytes)?;
        Ok(SnapshotInfo {
            version,
            file_len: bytes.len() as u64,
            sections: entries
                .iter()
                .map(|e| SectionInfo {
                    kind: SectionKind::from_u32(e.raw_kind),
                    raw_kind: e.raw_kind,
                    offset: e.offset,
                    len: e.len,
                    crc32: e.crc,
                })
                .collect(),
        })
    }

    /// Writes the snapshot to `path` in format v5, atomically *and
    /// durably*: temp file → `sync_all` → rename → parent-directory fsync,
    /// so a crash at any point leaves either the old file or the complete
    /// new one. Fails like [`Snapshot::to_bytes`] on corrupt mapped bytes.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SdError> {
        let path = path.as_ref();
        let bytes = self.to_bytes()?;
        io::atomic_write_path(path, &bytes)
            .map_err(|e| SdError::SnapshotIo(format!("{}: {e}", path.display())))
    }

    /// Reads and restores a snapshot from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SdError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| SdError::SnapshotIo(format!("{}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }

    /// Reads only the header/table of the snapshot at `path`.
    pub fn inspect(path: impl AsRef<Path>) -> Result<SnapshotInfo, SdError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| SdError::SnapshotIo(format!("{}: {e}", path.display())))?;
        Self::inspect_bytes(&bytes)
    }

    /// Opens the snapshot at `path` zero-copy: the file is `mmap`ed and a
    /// v5 file's array regions are served straight off the mapping — open
    /// cost is O(metadata), the first query pays one CRC-32C pass over only
    /// the regions it touches, and resident memory scales with touched
    /// pages. Legacy files (v1–v4) fall back to a normal owned decode.
    pub fn open_mapped(path: impl AsRef<Path>) -> Result<MappedSnapshot, SdError> {
        let path = path.as_ref();
        let bytes = MappedBytes::map_file(path)
            .map_err(|e| SdError::SnapshotIo(format!("{}: {e}", path.display())))?;
        Self::from_mapped(bytes)
    }

    /// [`Snapshot::open_mapped`] over an already-acquired buffer. Works
    /// with the owned [`MappedBytes`] fallback too (its buffer is 64-byte
    /// aligned and kept alive by the views, so borrowing stays sound).
    pub fn from_mapped(buffer: MappedBytes) -> Result<MappedSnapshot, SdError> {
        let bytes: &[u8] = &buffer;
        let (version, entries) = Self::parse_header(bytes)?;
        Self::check_file_len(bytes, &entries)?;
        if version < FORMAT_V5 {
            // Pre-v5 payloads are not reinterpretable in place; decode the
            // classic way so every file still opens through this API.
            let snapshot = Self::from_bytes(bytes)?;
            return Ok(MappedSnapshot {
                snapshot,
                version,
                mapped: false,
                sections: Vec::new(),
            });
        }
        let mapped = buffer.is_mapped();
        let (snapshot, sections) = Self::decode_v5(bytes, &entries, Some(&buffer))?;
        Ok(MappedSnapshot {
            snapshot,
            version,
            mapped,
            sections,
        })
    }
}

/// A snapshot opened by [`Snapshot::open_mapped`]: the decoded artifacts
/// plus the integrity handle of every framed region walked, for inspection
/// ([`MappedSnapshot::regions`]) and full-file verification
/// ([`MappedSnapshot::verify_all`]).
#[derive(Debug)]
pub struct MappedSnapshot {
    /// The decoded snapshot; for a v5 file its hot arrays borrow the
    /// underlying buffer.
    pub snapshot: Snapshot,
    version: u32,
    mapped: bool,
    sections: Vec<Arc<SectionIntegrity>>,
}

impl MappedSnapshot {
    /// The container version of the source file.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// `true` when the buffer is a real `mmap` of the file (as opposed to
    /// the owned in-memory fallback). Either way a v5 decode borrows the
    /// buffer zero-copy.
    pub fn is_mapped(&self) -> bool {
        self.mapped
    }

    /// Every framed region of the file, in layout order — name, file
    /// offset, length and checksum state (lazy / verified / failed).
    /// Empty for pre-v5 files.
    pub fn regions(&self) -> &[Arc<SectionIntegrity>] {
        &self.sections
    }

    /// Forces checksum verification of every region, including ones no
    /// query has touched yet. The full-coverage equivalent of the legacy
    /// eager decode; run it before trusting a file end to end.
    pub fn verify_all(&self) -> Result<(), SdError> {
        ensure_all(&self.sections)
    }
}

/// Parses a roles string like `"ar"` / `"rraa"` (`a` = attractive, `r` =
/// repulsive) — the CLI and test shorthand.
pub fn parse_roles(spec: &str) -> Result<Vec<DimRole>, SdError> {
    spec.chars()
        .map(|c| match c {
            'a' | 'A' => Ok(DimRole::Attractive),
            'r' | 'R' => Ok(DimRole::Repulsive),
            other => Err(SdError::SnapshotCorrupt {
                detail: format!("role character {other:?} (want 'a' or 'r')"),
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdq_core::SdQuery;

    fn sample_sd() -> SdIndex {
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                let x = i as f64;
                vec![(x * 0.7).sin(), x * 0.3, 10.0 - x * 0.2]
            })
            .collect();
        let data = Dataset::from_rows(3, &rows).unwrap();
        let roles = parse_roles("arr").unwrap();
        SdIndex::build(data, &roles).unwrap()
    }

    /// A full snapshot whose engine carries uncompacted mutations — the
    /// byte-flip/truncation sweeps below therefore cover the v3 sections.
    fn sample_snapshot() -> Snapshot {
        let mut snap = Snapshot::new();
        let sd = sample_sd();
        snap.dataset = Some(sd.data().clone());
        snap.roles = Some(sd.roles().to_vec());
        snap.topk = Some(TopKIndex::build(&[(0.0, 1.0), (3.0, -2.0), (5.5, 4.0)]).unwrap());
        snap.top1 = Some(Top1Index::build(&[(0.0, 1.0), (3.0, -2.0)], 1.0, 1.0, 1).unwrap());
        snap.rstar = Some(RStarTree::bulk_load(2, &[0.0, 1.0, 3.0, -2.0, 5.5, 4.0], 4));
        let mut engine = SdEngine::build_with(
            sd.data().clone(),
            sd.roles(),
            &sdq_engine::EngineOptions {
                shards: 2,
                ..Default::default()
            },
        )
        .unwrap();
        engine.insert(&[0.5, 4.5, 9.0]).unwrap();
        engine.insert(&[-0.2, 8.0, 1.0]).unwrap();
        engine.delete(sdq_core::PointId::new(3)).unwrap();
        snap.engine = Some(engine);
        snap.sd = Some(sd);
        snap
    }

    // ── legacy fixtures (formats v1–v4, read-only) ──────────────────────
    //
    // This build has no v1–v4 writer. These files were written by the last
    // build that had one, from exactly the snapshots `legacy_sources`
    // rebuilds, and keep every legacy reader path covered.

    const LEGACY_V1: &[u8] = include_bytes!("../tests/fixtures/legacy_v1.bin");
    const LEGACY_V2: &[u8] = include_bytes!("../tests/fixtures/legacy_v2.bin");
    const LEGACY_V3: &[u8] = include_bytes!("../tests/fixtures/legacy_v3.bin");
    const LEGACY_V4: &[u8] = include_bytes!("../tests/fixtures/legacy_v4.bin");
    /// `sample_snapshot()` in format v5, pinned byte for byte.
    const SAMPLE_V5: &[u8] = include_bytes!("../tests/fixtures/sample_v5.bin");

    fn sample_durability() -> DurabilityInfo {
        DurabilityInfo {
            generation: 7,
            checkpoint_epoch: 3,
        }
    }

    /// A snapshot holding only a clean (mutation-free) 2-shard engine.
    fn clean_engine_snapshot() -> Snapshot {
        let sd = sample_sd();
        let mut snap = Snapshot::new();
        snap.engine = Some(
            SdEngine::build_with(
                sd.data().clone(),
                sd.roles(),
                &sdq_engine::EngineOptions {
                    shards: 2,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        snap
    }

    /// Every legacy fixture with its format version and a fresh build of
    /// the snapshot it holds: v1 engine-less, v2 a clean 2-shard engine,
    /// v3 the mutated sample, v4 the sample plus a durability section.
    fn legacy_sources() -> Vec<(u32, &'static [u8], Snapshot)> {
        let mut v1 = sample_snapshot();
        v1.engine = None;
        let mut v4 = sample_snapshot();
        v4.durability = Some(sample_durability());
        vec![
            (FORMAT_V1, LEGACY_V1, v1),
            (FORMAT_V2, LEGACY_V2, clean_engine_snapshot()),
            (FORMAT_V3, LEGACY_V3, sample_snapshot()),
            (FORMAT_V4, LEGACY_V4, v4),
        ]
    }

    /// Answers as `(row, score bits)`, so comparisons are bit-exact.
    fn bits(answers: &[sdq_core::ScoredPoint]) -> Vec<(usize, u64)> {
        answers
            .iter()
            .map(|p| (p.id.index(), p.score.to_bits()))
            .collect()
    }

    /// Asserts both snapshots hold the same artifacts and answer every
    /// probe query bit-identically.
    fn queries_match(a: &Snapshot, b: &Snapshot) {
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.roles, b.roles);
        assert_eq!(a.durability, b.durability);
        assert_eq!(a.rstar.is_some(), b.rstar.is_some());
        let roles = parse_roles("arr").unwrap();
        for (point, k) in [
            (vec![0.2, 3.0, 7.0], 5),
            (vec![-1.0, 0.0, 12.0], 1),
            (vec![0.5, 4.5, 9.0], 40),
        ] {
            let q = SdQuery::uniform_weights(point, &roles);
            match (&a.sd, &b.sd) {
                (Some(x), Some(y)) => {
                    assert_eq!(
                        bits(&x.query(&q, k).unwrap()),
                        bits(&y.query(&q, k).unwrap())
                    )
                }
                (x, y) => assert_eq!(x.is_some(), y.is_some()),
            }
            match (&a.engine, &b.engine) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.tombstone_ids(), y.tombstone_ids());
                    assert_eq!(x.delta_rows(), y.delta_rows());
                    assert_eq!(
                        bits(&x.query(&q, k).unwrap()),
                        bits(&y.query(&q, k).unwrap())
                    );
                }
                (x, y) => assert_eq!(x.is_some(), y.is_some()),
            }
        }
        match (&a.topk, &b.topk) {
            (Some(x), Some(y)) => assert_eq!(
                bits(&x.query(1.0, 1.0, 1.0, 0.5, 2).unwrap()),
                bits(&y.query(1.0, 1.0, 1.0, 0.5, 2).unwrap())
            ),
            (x, y) => assert_eq!(x.is_some(), y.is_some()),
        }
        match (&a.top1, &b.top1) {
            (Some(x), Some(y)) => assert_eq!(x.query(0.0, 0.0), y.query(0.0, 0.0)),
            (x, y) => assert_eq!(x.is_some(), y.is_some()),
        }
    }

    #[test]
    fn legacy_fixtures_load_bit_identical_and_upgrade_to_v5() {
        let dir = std::env::temp_dir().join(format!("sdq-store-upgrade-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (version, bytes, fresh) in legacy_sources() {
            assert_eq!(Snapshot::inspect_bytes(bytes).unwrap().version, version);
            let loaded = Snapshot::from_bytes(bytes).unwrap();
            queries_match(&loaded, &fresh);
            // Any rewrite is v5 — the same file a fresh build writes.
            let upgraded = loaded.to_bytes().unwrap();
            assert_eq!(
                Snapshot::inspect_bytes(&upgraded).unwrap().version,
                FORMAT_V5
            );
            assert_eq!(upgraded, fresh.to_bytes().unwrap(), "v{version} upgrade");
            let path = dir.join(format!("upgraded-v{version}.sdq"));
            loaded.save(&path).unwrap();
            let m = Snapshot::open_mapped(&path).unwrap();
            assert_eq!(m.version(), FORMAT_V5);
            queries_match(&m.snapshot, &fresh);
            m.verify_all().unwrap();
        }
        // A compacted v3 engine also saves as v5 and answers like a fresh
        // engine compacted the same way.
        let mut loaded = Snapshot::from_bytes(LEGACY_V3).unwrap();
        let mut fresh = sample_snapshot();
        loaded.engine.as_mut().unwrap().compact().unwrap();
        fresh.engine.as_mut().unwrap().compact().unwrap();
        let compacted = loaded.to_bytes().unwrap();
        assert_eq!(
            Snapshot::inspect_bytes(&compacted).unwrap().version,
            FORMAT_V5
        );
        queries_match(&Snapshot::from_bytes(&compacted).unwrap(), &fresh);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v5_bytes_are_pinned() {
        // The v5 encoding of the sample snapshot is a checked-in file: any
        // change to the on-disk format shows up here.
        assert_eq!(sample_snapshot().to_bytes().unwrap(), SAMPLE_V5);
        let back = Snapshot::from_bytes(SAMPLE_V5).unwrap();
        queries_match(&back, &sample_snapshot());
    }

    #[test]
    fn full_snapshot_roundtrips() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes().unwrap();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        queries_match(&back, &snap);
        let engine = back.engine.as_ref().unwrap();
        assert_eq!(engine.shard_count(), 2);
        // Mutation state survives the round trip: delta rows, tombstones
        // and the answers that depend on both.
        assert_eq!(engine.delta_rows(), 2);
        assert_eq!(engine.tombstone_count(), 1);
        // Deterministic bytes.
        assert_eq!(back.to_bytes().unwrap(), bytes);
    }

    #[test]
    fn clean_engine_matches_monolithic_and_stays_v2() {
        assert_eq!(
            Snapshot::inspect_bytes(LEGACY_V2).unwrap().version,
            FORMAT_V2
        );
        let back = Snapshot::from_bytes(LEGACY_V2).unwrap();
        let engine = back.engine.as_ref().unwrap();
        assert!(!engine.has_mutations());
        let sd = sample_sd();
        let q = SdQuery::uniform_weights(vec![0.2, 3.0, 7.0], sd.roles());
        // A clean engine answers exactly like the monolithic index.
        assert_eq!(
            bits(&engine.query(&q, 5).unwrap()),
            bits(&sd.query(&q, 5).unwrap())
        );
    }

    #[test]
    fn mutation_sections_in_old_versions_are_rejected() {
        // Downgrading the version field of a v3 file must not silently
        // load (the version is deliberately outside the table CRC; the
        // section gating is the defence).
        for old in [FORMAT_V1, FORMAT_V2] {
            let mut bytes = LEGACY_V3.to_vec();
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            assert!(
                matches!(
                    Snapshot::from_bytes(&bytes).unwrap_err(),
                    SdError::SnapshotCorrupt { .. }
                ),
                "v{old} file with mutation sections loaded"
            );
        }
    }

    #[test]
    fn engineless_snapshots_stay_version_1() {
        // An engine-less v1 file reads as v1 (this build never rewrites a
        // file it only loads).
        let info = Snapshot::inspect_bytes(LEGACY_V1).unwrap();
        assert_eq!(info.version, FORMAT_V1);
        let back = Snapshot::from_bytes(LEGACY_V1).unwrap();
        assert!(back.engine.is_none());
        assert!(back.sd.is_some());
    }

    #[test]
    fn engine_sections_in_v1_are_rejected() {
        // Downgrading the version field of a v2/v3 file must not silently
        // load.
        for bytes in [LEGACY_V2, LEGACY_V3] {
            let mut bytes = bytes.to_vec();
            bytes[8..12].copy_from_slice(&FORMAT_V1.to_le_bytes());
            assert!(matches!(
                Snapshot::from_bytes(&bytes).unwrap_err(),
                SdError::SnapshotCorrupt { .. }
            ));
        }
    }

    #[test]
    fn durability_section_bumps_to_v4_and_roundtrips() {
        assert_eq!(
            Snapshot::inspect_bytes(LEGACY_V4).unwrap().version,
            FORMAT_V4
        );
        let back = Snapshot::from_bytes(LEGACY_V4).unwrap();
        assert_eq!(back.durability, Some(sample_durability()));
        // The durability section survives the upgrade to v5.
        let upgraded = Snapshot::from_bytes(&back.to_bytes().unwrap()).unwrap();
        assert_eq!(upgraded.durability, Some(sample_durability()));
        // Every flipped byte of a v4 file is still detected.
        for pos in 0..LEGACY_V4.len() {
            let mut mutated = LEGACY_V4.to_vec();
            mutated[pos] ^= 0x01;
            assert!(
                Snapshot::from_bytes(&mutated).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn durability_section_in_old_versions_is_rejected() {
        let mut bytes = LEGACY_V4.to_vec();
        for old in [FORMAT_V1, FORMAT_V2, FORMAT_V3] {
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            assert!(
                matches!(
                    Snapshot::from_bytes(&bytes).unwrap_err(),
                    SdError::SnapshotCorrupt { .. }
                ),
                "v{old} file with a durability section loaded"
            );
        }
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let bytes = Snapshot::new().to_bytes().unwrap();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn wrong_magic_is_typed() {
        let mut bytes = sample_snapshot().to_bytes().unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            SdError::SnapshotBadMagic
        ));
        assert!(matches!(
            Snapshot::from_bytes(b"short").unwrap_err(),
            SdError::SnapshotBadMagic
        ));
    }

    #[test]
    fn future_version_is_typed() {
        let mut bytes = sample_snapshot().to_bytes().unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            SdError::SnapshotVersion {
                found: 99,
                supported: FORMAT_VERSION
            }
        ));
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        for pos in 0..LEGACY_V3.len() {
            let mut mutated = LEGACY_V3.to_vec();
            mutated[pos] ^= 0x01;
            let err = Snapshot::from_bytes(&mutated)
                .err()
                .unwrap_or_else(|| panic!("flip at byte {pos} went undetected"));
            assert!(
                matches!(
                    err,
                    SdError::SnapshotBadMagic
                        | SdError::SnapshotVersion { .. }
                        | SdError::SnapshotChecksum { .. }
                        | SdError::SnapshotCorrupt { .. }
                ),
                "flip at byte {pos}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn appended_garbage_is_detected() {
        // Bytes past the section table's accounted end are as suspect as
        // truncation (found by probing: `dd seek=<past-eof>` extended a
        // snapshot and the old parser silently ignored the tail).
        for bytes in [LEGACY_V3, SAMPLE_V5] {
            let mut bytes = bytes.to_vec();
            bytes.extend_from_slice(b"tail");
            assert!(matches!(
                Snapshot::from_bytes(&bytes).unwrap_err(),
                SdError::SnapshotCorrupt { .. }
            ));
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        for cut in 0..LEGACY_V3.len() {
            assert!(
                Snapshot::from_bytes(&LEGACY_V3[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn save_load_via_file() {
        let dir = std::env::temp_dir().join(format!("sdq-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.sdq");
        let snap = sample_snapshot();
        snap.save(&path).unwrap();
        let back = Snapshot::load(&path).unwrap();
        assert_eq!(back.to_bytes().unwrap(), snap.to_bytes().unwrap());

        let info = Snapshot::inspect(&path).unwrap();
        assert_eq!(info.version, FORMAT_V5);
        // 6 classic sections + engine manifest + 2 shard sections + delta
        // + tombstones.
        assert_eq!(info.sections.len(), 11);
        assert!(info.sections.iter().all(|s| s.kind.is_some()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            Snapshot::load("/nonexistent/definitely/missing.sdq").unwrap_err(),
            SdError::SnapshotIo(_)
        ));
    }

    #[test]
    fn parse_roles_shorthand() {
        assert_eq!(
            parse_roles("aR").unwrap(),
            vec![DimRole::Attractive, DimRole::Repulsive]
        );
        assert!(parse_roles("ax").is_err());
    }

    // ── format v5 (zero-copy) ───────────────────────────────────────────

    #[test]
    fn v5_roundtrips_owned() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes().unwrap();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        // Owned decode verifies everything eagerly; nothing stays mapped.
        assert!(!back.sd.as_ref().unwrap().is_mapped());
        queries_match(&back, &snap);
        assert_eq!(back.to_bytes().unwrap(), bytes, "nondeterministic");
        // Layout discipline: 64-aligned payloads, table CRCs zero.
        let info = Snapshot::inspect_bytes(&bytes).unwrap();
        assert_eq!(info.version, FORMAT_V5);
        assert_eq!(info.sections.len(), 11);
        for s in &info.sections {
            assert_eq!(s.offset % REGION_ALIGN as u64, 0);
            assert_eq!(s.crc32, 0);
        }
    }

    #[test]
    fn v5_roundtrips_zero_copy() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes().unwrap();
        let m = Snapshot::from_mapped(MappedBytes::copy_from(&bytes)).unwrap();
        assert_eq!(m.version(), FORMAT_V5);
        assert!(!m.regions().is_empty());
        assert!(m.snapshot.sd.as_ref().unwrap().is_mapped());
        queries_match(&m.snapshot, &snap);
        m.verify_all().unwrap();
        // A mapped snapshot re-encodes to the identical file.
        assert_eq!(m.snapshot.to_bytes().unwrap(), bytes);
    }

    #[test]
    fn v5_crc_state_is_lazy_until_touched() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes().unwrap();
        let m = Snapshot::from_mapped(MappedBytes::copy_from(&bytes)).unwrap();
        assert!(
            m.regions().iter().any(|r| r.state() == CrcState::Lazy),
            "open should defer array checksums"
        );
        let q = SdQuery::uniform_weights(vec![0.2, 3.0, 7.0], snap.roles.as_ref().unwrap());
        m.snapshot.sd.as_ref().unwrap().query(&q, 5).unwrap();
        assert!(m.regions().iter().any(|r| r.state() == CrcState::Verified));
        m.verify_all().unwrap();
        assert!(m.regions().iter().all(|r| r.state() == CrcState::Verified));
    }

    #[test]
    fn v5_every_flipped_byte_is_detected() {
        let bytes = sample_snapshot().to_bytes().unwrap();
        for pos in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 0x01;
            // The owned decode verifies eagerly: the flip surfaces at load.
            let err = Snapshot::from_bytes(&mutated)
                .err()
                .unwrap_or_else(|| panic!("flip at byte {pos} went undetected (owned)"));
            assert!(
                matches!(
                    err,
                    SdError::SnapshotBadMagic
                        | SdError::SnapshotVersion { .. }
                        | SdError::SnapshotChecksum { .. }
                        | SdError::SnapshotCorrupt { .. }
                ),
                "flip at byte {pos}: unexpected owned error {err:?}"
            );
            // The zero-copy open defers array checksums, but open +
            // verify_all must still catch every flip — typed, never UB.
            let err = match Snapshot::from_mapped(MappedBytes::copy_from(&mutated)) {
                Err(e) => e,
                Ok(m) => match m.verify_all() {
                    Err(e) => e,
                    Ok(()) => panic!("flip at byte {pos} went undetected (mapped)"),
                },
            };
            assert!(
                matches!(
                    err,
                    SdError::SnapshotBadMagic
                        | SdError::SnapshotVersion { .. }
                        | SdError::SnapshotChecksum { .. }
                        | SdError::SnapshotCorrupt { .. }
                ),
                "flip at byte {pos}: unexpected mapped error {err:?}"
            );
        }
    }

    #[test]
    fn v5_every_truncation_is_detected() {
        let bytes = sample_snapshot().to_bytes().unwrap();
        for cut in 0..bytes.len() {
            assert!(
                Snapshot::from_bytes(&bytes[..cut]).is_err(),
                "owned: truncation to {cut} bytes went undetected"
            );
            assert!(
                Snapshot::from_mapped(MappedBytes::copy_from(&bytes[..cut])).is_err(),
                "mapped: truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn v5_rejects_misaligned_section() {
        // Shift section 0's payload offset off the 64-byte grid (fixing up
        // the table CRC so only the alignment rule is violated).
        let mut bytes = sample_snapshot().to_bytes().unwrap();
        let n = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let off_at = 16 + 8;
        let old = u64::from_le_bytes(bytes[off_at..off_at + 8].try_into().unwrap());
        bytes[off_at..off_at + 8].copy_from_slice(&(old + 8).to_le_bytes());
        let table_end = 16 + TABLE_ENTRY_BYTES * n;
        let crc = crc32(&bytes[16..table_end]);
        bytes[table_end..table_end + 4].copy_from_slice(&crc.to_le_bytes());
        for result in [
            Snapshot::from_bytes(&bytes),
            Snapshot::from_mapped(MappedBytes::copy_from(&bytes)).map(|m| m.snapshot),
        ] {
            match result {
                Err(SdError::SnapshotCorrupt { detail }) => {
                    assert!(detail.contains("aligned"), "wrong detail: {detail}")
                }
                other => panic!("misaligned section accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn open_mapped_reads_legacy_files() {
        for (version, bytes, fresh) in legacy_sources() {
            let m = Snapshot::from_mapped(MappedBytes::copy_from(bytes)).unwrap();
            assert_eq!(m.version(), version);
            assert!(m.regions().is_empty());
            m.verify_all().unwrap();
            queries_match(&m.snapshot, &fresh);
        }
    }

    #[test]
    fn mapped_engine_accepts_mutations() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes().unwrap();
        let mut m = Snapshot::from_mapped(MappedBytes::copy_from(&bytes)).unwrap();
        let mut owned = Snapshot::from_bytes(&bytes).unwrap();
        let roles = snap.roles.clone().unwrap();
        let q = SdQuery::uniform_weights(vec![0.2, 3.0, 7.0], &roles);
        for s in [&mut m.snapshot, &mut owned] {
            let e = s.engine.as_mut().unwrap();
            e.insert(&[0.9, 2.0, 3.0]).unwrap();
            assert!(e.delete(sdq_core::PointId::new(1)).unwrap());
        }
        assert_eq!(
            m.snapshot.engine.as_ref().unwrap().query(&q, 6).unwrap(),
            owned.engine.as_ref().unwrap().query(&q, 6).unwrap()
        );
        // The mutated mapped snapshot saves (as v5) and reloads.
        let rebytes = m.snapshot.to_bytes().unwrap();
        let back = Snapshot::from_bytes(&rebytes).unwrap();
        assert_eq!(
            back.engine.as_ref().unwrap().query(&q, 6).unwrap(),
            owned.engine.as_ref().unwrap().query(&q, 6).unwrap()
        );
        // Compaction folds the mapped base + delta into fresh owned shards
        // (it renumbers ids, so compact the owned mirror too).
        let report = m.snapshot.engine.as_mut().unwrap().compact().unwrap();
        assert!(report.dropped_tombstones > 0 || report.merged_delta_rows > 0);
        owned.engine.as_mut().unwrap().compact().unwrap();
        assert_eq!(
            m.snapshot.engine.as_ref().unwrap().query(&q, 6).unwrap(),
            owned.engine.as_ref().unwrap().query(&q, 6).unwrap()
        );
    }

    #[test]
    fn mapped_topk_materializes_on_mutation() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes().unwrap();
        let mut m = Snapshot::from_mapped(MappedBytes::copy_from(&bytes)).unwrap();
        let mut owned = Snapshot::from_bytes(&bytes).unwrap();
        for t in [
            m.snapshot.topk.as_mut().unwrap(),
            owned.topk.as_mut().unwrap(),
        ] {
            t.insert(2.5, 2.5).unwrap();
            assert!(t.delete(sdq_core::PointId::new(0)));
        }
        assert_eq!(
            m.snapshot
                .topk
                .as_ref()
                .unwrap()
                .query(1.0, 1.0, 1.0, 0.5, 2)
                .unwrap(),
            owned
                .topk
                .as_ref()
                .unwrap()
                .query(1.0, 1.0, 1.0, 0.5, 2)
                .unwrap()
        );
    }

    #[test]
    fn v5_empty_roundtrip() {
        let bytes = Snapshot::new().to_bytes().unwrap();
        assert!(Snapshot::from_bytes(&bytes).unwrap().is_empty());
        let m = Snapshot::from_mapped(MappedBytes::copy_from(&bytes)).unwrap();
        assert!(m.snapshot.is_empty());
        m.verify_all().unwrap();
    }

    #[test]
    fn save_v5_and_open_mapped_via_file() {
        let dir = std::env::temp_dir().join(format!("sdq-store-v5-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample-v5.sdq");
        let snap = sample_snapshot();
        // `save` always writes format v5.
        snap.save(&path).unwrap();
        let m = Snapshot::open_mapped(&path).unwrap();
        assert!(m.is_mapped(), "a real file should arrive via mmap");
        assert_eq!(m.version(), FORMAT_V5);
        queries_match(&m.snapshot, &snap);
        m.verify_all().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
