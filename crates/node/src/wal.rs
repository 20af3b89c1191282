//! The directory's write-ahead log: crash-safe persistence for
//! placements, repairs, corruption reports, and manifests.
//!
//! PR 7's directory was purely in-memory — a NameNode that forgot the
//! whole cluster on restart. This module gives it an append-only,
//! checksummed log under the data root:
//!
//! ```text
//! header:  magic "XBWL" | version u32 | servers u32 | racks u32 | seed u64
//! record:  len u32 | body[len] | digest u64        (digest = chunk_digest(body))
//! body:    type u8 | fields…
//!   1 STRIPE    stripe u64 | lane_count u16 | server u32 × lane_count
//!   2 REASSIGN  stripe u64 | lane u32 | server u32
//!   3 CORRUPT   stripe u64 | lane u32
//!   4 MANIFEST  manifest bytes (the [`Manifest`] binary format)
//! ```
//!
//! Every record carries its own [`chunk_digest`] so replay can tell a
//! torn tail (the process died mid-append) from good data: replay
//! walks records until the first structural or checksum failure,
//! **truncates** the file back to the last good record, and carries on
//! — a crash never poisons the log, it only loses the unacknowledged
//! suffix. Appends are `sync_data`'d; they sit on the metadata path
//! (one per stripe placement / repair / manifest), not the chunk hot
//! path, so the fsync cost is noise next to the chunk writes they
//! describe.

use crate::cursor::Cursor;
use crate::directory::{ServerId, MAX_STRIPE_ID};
use crate::error::{NodeError, Result};
use crate::manifest::Manifest;
use crate::protocol::chunk_digest;
use std::fs;
use std::io::Write;
use std::path::Path;

const MAGIC: [u8; 4] = *b"XBWL";
/// 2: records carry the GF(2^8)-linear [`chunk_digest`] (1 carried the
/// FxHash-style digest it replaced; the layout is the same).
const VERSION: u32 = 2;
pub(crate) const HEADER_LEN: usize = 24;
/// Largest record body replay will accept; anything bigger is treated
/// as a torn/garbage tail. Bounds replay allocation the same way
/// [`crate::protocol::MAX_BODY`] bounds the wire.
const MAX_RECORD: usize = 16 << 20;

const REC_STRIPE: u8 = 1;
const REC_REASSIGN: u8 = 2;
const REC_CORRUPT: u8 = 3;
const REC_MANIFEST: u8 = 4;

/// The cluster shape pinned in the log header. Replay hands it back so
/// the caller can check the roster it is rebuilding against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalHeader {
    /// Roster size the log was written for.
    pub servers: u32,
    /// Rack count (as passed to [`crate::Directory::new`]).
    pub racks: u32,
    /// Placement RNG seed.
    pub seed: u64,
}

/// One decoded log record, in append order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A stripe was placed (or registered) with this assignment.
    Stripe {
        /// Stripe id.
        stripe: u64,
        /// Lane → server assignment.
        servers: Vec<ServerId>,
    },
    /// A repaired lane moved to a new server.
    Reassign {
        /// Stripe id.
        stripe: u64,
        /// Lane index.
        lane: u32,
        /// The lane's new home.
        server: ServerId,
    },
    /// A chunk failed a digest check.
    Corrupt {
        /// Stripe id.
        stripe: u64,
        /// Lane index.
        lane: u32,
    },
    /// A whole-file manifest was acknowledged.
    Manifest(Manifest),
}

/// What replay found: how much survived and how much a torn tail lost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Records successfully decoded and applied.
    pub records: u64,
    /// Bytes truncated off the tail (0 on a clean log).
    pub dropped_tail_bytes: u64,
}

/// An open, append-position log file.
#[derive(Debug)]
pub struct DirectoryWal {
    file: fs::File,
    scratch: Vec<u8>,
}

impl DirectoryWal {
    /// Creates a fresh log at `path` (truncating any existing file)
    /// and writes the header.
    pub fn create(path: &Path, header: WalHeader) -> Result<Self> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut file = fs::File::create(path)?;
        let mut h = [0u8; HEADER_LEN];
        h[..4].copy_from_slice(&MAGIC);
        h[4..8].copy_from_slice(&VERSION.to_le_bytes());
        h[8..12].copy_from_slice(&header.servers.to_le_bytes());
        h[12..16].copy_from_slice(&header.racks.to_le_bytes());
        h[16..24].copy_from_slice(&header.seed.to_le_bytes());
        file.write_all(&h)?;
        file.sync_data()?;
        Ok(Self {
            file,
            scratch: Vec::new(),
        })
    }

    /// Replays the log at `path`: validates the header, hands every
    /// intact record to `visit` in append order, and — when the tail is
    /// torn — truncates the file back to the last good record. Returns
    /// the header and what was kept/dropped. The file is left ready for
    /// [`DirectoryWal::open_append`].
    ///
    /// A bad header (wrong magic, or a file shorter than one) is a hard
    /// [`NodeError::Malformed`], and another format version a hard
    /// [`NodeError::UnsupportedVersion`]: neither is a torn tail, and
    /// the file is left as it is. (A version-1 log's records carry the
    /// old digest, so replaying it would fail the first record and
    /// truncate the whole log.)
    pub fn replay(
        path: &Path,
        mut visit: impl FnMut(WalRecord),
    ) -> Result<(WalHeader, ReplayStats)> {
        let bytes = fs::read(path)?;
        let header = decode_header(&bytes)?;
        let mut stats = ReplayStats::default();
        let mut good_end = HEADER_LEN;
        let mut pos = HEADER_LEN;
        while let Some((rec, next)) = decode_record(&bytes, pos) {
            visit(rec);
            stats.records += 1;
            good_end = next;
            pos = next;
        }
        if good_end < bytes.len() {
            stats.dropped_tail_bytes = (bytes.len() - good_end) as u64;
            let file = fs::OpenOptions::new().write(true).open(path)?;
            file.set_len(good_end as u64)?;
            file.sync_data()?;
        }
        Ok((header, stats))
    }

    /// Opens an existing (already replayed/validated) log for appends.
    pub fn open_append(path: &Path) -> Result<Self> {
        let file = fs::OpenOptions::new().append(true).open(path)?;
        Ok(Self {
            file,
            scratch: Vec::new(),
        })
    }

    /// Appends a stripe-placement record.
    pub fn append_stripe(&mut self, stripe: u64, servers: &[ServerId]) -> Result<()> {
        self.scratch.clear();
        self.scratch.push(REC_STRIPE);
        self.scratch.extend_from_slice(&stripe.to_le_bytes());
        self.scratch
            .extend_from_slice(&(servers.len() as u16).to_le_bytes());
        for &sid in servers {
            self.scratch.extend_from_slice(&(sid as u32).to_le_bytes());
        }
        self.flush_record()
    }

    /// Appends a lane-reassignment record.
    pub fn append_reassign(&mut self, stripe: u64, lane: u32, server: ServerId) -> Result<()> {
        self.scratch.clear();
        self.scratch.push(REC_REASSIGN);
        self.scratch.extend_from_slice(&stripe.to_le_bytes());
        self.scratch.extend_from_slice(&lane.to_le_bytes());
        self.scratch
            .extend_from_slice(&(server as u32).to_le_bytes());
        self.flush_record()
    }

    /// Appends a corruption report.
    pub fn append_corrupt(&mut self, stripe: u64, lane: u32) -> Result<()> {
        self.scratch.clear();
        self.scratch.push(REC_CORRUPT);
        self.scratch.extend_from_slice(&stripe.to_le_bytes());
        self.scratch.extend_from_slice(&lane.to_le_bytes());
        self.flush_record()
    }

    /// Appends a manifest record.
    pub fn append_manifest(&mut self, manifest: &Manifest) -> Result<()> {
        let bytes = manifest.encode();
        if 1 + bytes.len() > MAX_RECORD {
            return Err(NodeError::Malformed("manifest too large for wal record"));
        }
        self.scratch.clear();
        self.scratch.push(REC_MANIFEST);
        self.scratch.extend_from_slice(&bytes);
        self.flush_record()
    }

    /// Writes `scratch` as one framed record and syncs it. The frame is
    /// assembled into a single buffer first so the kernel sees one
    /// write — a crash can tear a record (replay handles that) but a
    /// torn *interleaving* of two records cannot happen under the
    /// directory lock that serializes all appends.
    fn flush_record(&mut self) -> Result<()> {
        let body_len = self.scratch.len();
        let digest = chunk_digest(&self.scratch);
        let mut frame = Vec::with_capacity(4 + body_len + 8);
        frame.extend_from_slice(&(body_len as u32).to_le_bytes());
        frame.extend_from_slice(&self.scratch);
        frame.extend_from_slice(&digest.to_le_bytes());
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        Ok(())
    }
}

pub(crate) fn decode_header(bytes: &[u8]) -> Result<WalHeader> {
    let mut c = Cursor::new(bytes, "wal shorter than its header");
    if c.take(4)? != MAGIC {
        return Err(NodeError::Malformed("bad wal magic"));
    }
    let version = c.u32()?;
    if version != VERSION {
        return Err(NodeError::UnsupportedVersion {
            format: "wal",
            version,
        });
    }
    Ok(WalHeader {
        servers: c.u32()?,
        racks: c.u32()?,
        seed: c.u64()?,
    })
}

/// What a record cursor calls running out of bytes (never surfaced:
/// [`decode_record`] folds every failure into `None`).
const TORN: &str = "wal record torn";

/// Decodes the record at `pos`. `None` means "no intact record here" —
/// clean end of log and torn tail look the same to the caller, which
/// truncates whatever follows the last `Some`.
pub(crate) fn decode_record(bytes: &[u8], pos: usize) -> Option<(WalRecord, usize)> {
    let mut c = Cursor::new(bytes.get(pos..)?, TORN);
    let body_len = c.u32().ok()? as usize;
    if body_len == 0 || body_len > MAX_RECORD {
        return None;
    }
    let body = c.take(body_len).ok()?;
    if chunk_digest(body) != c.u64().ok()? {
        return None;
    }
    let rec = decode_body(body).ok()?;
    Some((rec, pos + 12 + body_len))
}

fn decode_body(body: &[u8]) -> Result<WalRecord> {
    let mut c = Cursor::new(body, TORN);
    let rec = match c.u8()? {
        REC_STRIPE => {
            let stripe = c.u64()?;
            if stripe > MAX_STRIPE_ID {
                return Err(NodeError::Malformed("stripe id out of range"));
            }
            let count = c.u16()? as usize;
            let servers = (0..count)
                .map(|_| c.u32().map(|sid| sid as ServerId))
                .collect::<Result<_>>()?;
            WalRecord::Stripe { stripe, servers }
        }
        REC_REASSIGN => WalRecord::Reassign {
            stripe: c.u64()?,
            lane: c.u32()?,
            server: c.u32()? as ServerId,
        },
        REC_CORRUPT => WalRecord::Corrupt {
            stripe: c.u64()?,
            lane: c.u32()?,
        },
        REC_MANIFEST => return Manifest::decode(c.rest()).map(WalRecord::Manifest),
        _ => return Err(NodeError::Malformed("unknown wal record type")),
    };
    c.finish("trailing bytes in wal record")?;
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use xorbas_core::{CodeSpec, LrcSpec};

    fn scratch_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("xorbas_wal_{tag}_{}_{n}.wal", std::process::id()))
    }

    fn sample_manifest() -> Manifest {
        let spec = CodeSpec::Lrc(LrcSpec::XORBAS);
        let lanes = spec.total_blocks();
        Manifest {
            spec,
            chunk_bytes: 4096,
            file_len: 3 * 4096 * 10 - 17,
            stripes: (0..3)
                .map(|i| crate::manifest::StripeEntry {
                    id: i,
                    servers: (0..lanes).map(|l| (l + i as usize) % 5).collect(),
                })
                .collect(),
        }
    }

    fn header() -> WalHeader {
        WalHeader {
            servers: 5,
            racks: 5,
            seed: 42,
        }
    }

    #[test]
    fn records_replay_in_order() {
        let path = scratch_path("order");
        let mut wal = DirectoryWal::create(&path, header()).unwrap();
        wal.append_stripe(0, &[0, 1, 2, 3, 4]).unwrap();
        wal.append_corrupt(0, 2).unwrap();
        wal.append_reassign(0, 2, 4).unwrap();
        wal.append_manifest(&sample_manifest()).unwrap();
        drop(wal);

        let mut seen = Vec::new();
        let (h, stats) = DirectoryWal::replay(&path, |r| seen.push(r)).unwrap();
        assert_eq!(h, header());
        assert_eq!(stats.records, 4);
        assert_eq!(stats.dropped_tail_bytes, 0);
        assert_eq!(
            seen,
            vec![
                WalRecord::Stripe {
                    stripe: 0,
                    servers: vec![0, 1, 2, 3, 4]
                },
                WalRecord::Corrupt { stripe: 0, lane: 2 },
                WalRecord::Reassign {
                    stripe: 0,
                    lane: 2,
                    server: 4
                },
                WalRecord::Manifest(sample_manifest()),
            ]
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = scratch_path("torn");
        let mut wal = DirectoryWal::create(&path, header()).unwrap();
        wal.append_stripe(7, &[1, 2, 3]).unwrap();
        wal.append_reassign(7, 1, 4).unwrap();
        drop(wal);
        let clean_len = fs::metadata(&path).unwrap().len();

        // Crash mid-append: a record frame cut off partway, in every
        // possible torn position — the first two records must always
        // survive and the tail must be truncated away.
        let mut torn_frame = Vec::new();
        torn_frame.extend_from_slice(&13u32.to_le_bytes());
        torn_frame.push(REC_CORRUPT);
        torn_frame.extend_from_slice(&7u64.to_le_bytes());
        torn_frame.extend_from_slice(&1u32.to_le_bytes());
        torn_frame.extend_from_slice(&0xDEAD_BEEFu64.to_le_bytes()); // wrong digest
        for cut in 1..torn_frame.len() {
            let clean = fs::read(&path).unwrap();
            let mut bytes = clean[..clean_len as usize].to_vec();
            bytes.extend_from_slice(&torn_frame[..cut]);
            fs::write(&path, &bytes).unwrap();

            let mut seen = 0;
            let (_, stats) = DirectoryWal::replay(&path, |_| seen += 1).unwrap();
            assert_eq!(seen, 2, "cut at {cut}");
            assert_eq!(stats.records, 2);
            assert_eq!(stats.dropped_tail_bytes, cut as u64);
            assert_eq!(fs::metadata(&path).unwrap().len(), clean_len);
        }

        // After truncation the log accepts appends again and replays
        // clean.
        let mut wal = DirectoryWal::open_append(&path).unwrap();
        wal.append_corrupt(7, 0).unwrap();
        drop(wal);
        let mut seen = Vec::new();
        let (_, stats) = DirectoryWal::replay(&path, |r| seen.push(r)).unwrap();
        assert_eq!(stats.records, 3);
        assert_eq!(stats.dropped_tail_bytes, 0);
        assert_eq!(
            seen.last(),
            Some(&WalRecord::Corrupt { stripe: 7, lane: 0 })
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn garbage_and_foreign_files_are_typed_errors() {
        let path = scratch_path("garbage");
        fs::write(&path, b"not a wal at all").unwrap();
        assert!(matches!(
            DirectoryWal::replay(&path, |_| {}).unwrap_err(),
            NodeError::Malformed(_)
        ));
        fs::write(&path, b"xy").unwrap();
        assert!(matches!(
            DirectoryWal::replay(&path, |_| {}).unwrap_err(),
            NodeError::Malformed("wal shorter than its header")
        ));
        let _ = fs::remove_file(&path);
    }

    /// A version-1 log (the same layout, records under the digest this
    /// format replaced) is refused by version, and left alone: its
    /// first record would fail the new digest, and replaying it as a
    /// torn tail would truncate the whole log.
    #[test]
    fn a_version_1_log_is_refused_not_truncated() {
        let path = scratch_path("v1");
        let mut wal = DirectoryWal::create(&path, header()).unwrap();
        wal.append_stripe(1, &[0, 1]).unwrap();
        wal.append_manifest(&sample_manifest()).unwrap();
        drop(wal);
        let mut bytes = fs::read(&path).unwrap();
        assert_eq!(bytes[4..8], 2u32.to_le_bytes());
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let mut seen = 0;
        let err = DirectoryWal::replay(&path, |_| seen += 1).unwrap_err();
        assert!(
            matches!(
                err,
                NodeError::UnsupportedVersion {
                    format: "wal",
                    version: 1
                }
            ),
            "{err:?}"
        );
        assert_eq!(seen, 0);
        assert_eq!(fs::read(&path).unwrap(), bytes, "the log was rewritten");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn mid_log_corruption_drops_everything_after_it() {
        // A flipped byte *inside* an earlier record fails that record's
        // digest; replay keeps what preceded it and truncates the rest
        // (conservative: order matters for reassignments, so replaying
        // past a hole could resurrect stale placements).
        let path = scratch_path("midflip");
        let mut wal = DirectoryWal::create(&path, header()).unwrap();
        wal.append_stripe(1, &[0, 1]).unwrap();
        let first_end = fs::metadata(&path).unwrap().len();
        wal.append_stripe(2, &[2, 3]).unwrap();
        wal.append_stripe(3, &[4, 0]).unwrap();
        drop(wal);

        let mut bytes = fs::read(&path).unwrap();
        let flip_at = first_end as usize + 6; // inside record 2's body
        bytes[flip_at] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let mut seen = Vec::new();
        let (_, stats) = DirectoryWal::replay(&path, |r| seen.push(r)).unwrap();
        assert_eq!(stats.records, 1);
        assert!(stats.dropped_tail_bytes > 0);
        assert_eq!(
            seen,
            vec![WalRecord::Stripe {
                stripe: 1,
                servers: vec![0, 1]
            }]
        );
        assert_eq!(fs::metadata(&path).unwrap().len(), first_end);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn out_of_range_stripe_id_is_dropped_like_any_undecodable_record() {
        // The record is intact (its digest matches) but names a stripe
        // id the directory's allocator has no successor for; applying
        // it used to overflow `stripe + 1`. Replay refuses it where it
        // decodes and truncates from there, as for a torn record.
        let path = scratch_path("maxid");
        let mut wal = DirectoryWal::create(&path, header()).unwrap();
        wal.append_stripe(1, &[0, 1]).unwrap();
        let first_end = fs::metadata(&path).unwrap().len();
        wal.append_stripe(u64::MAX, &[2, 3]).unwrap();
        wal.append_stripe(3, &[4, 0]).unwrap();
        drop(wal);

        let mut seen = Vec::new();
        let (_, stats) = DirectoryWal::replay(&path, |r| seen.push(r)).unwrap();
        assert_eq!(stats.records, 1);
        assert!(stats.dropped_tail_bytes > 0);
        assert_eq!(
            seen,
            vec![WalRecord::Stripe {
                stripe: 1,
                servers: vec![0, 1]
            }]
        );
        assert_eq!(fs::metadata(&path).unwrap().len(), first_end);
        let _ = fs::remove_file(&path);
    }
}
