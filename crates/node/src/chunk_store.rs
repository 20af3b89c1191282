//! On-disk chunk storage for one server: a flat directory of
//! self-describing chunk files.
//!
//! Each chunk lives in its own file named `s{stripe:016x}_l{lane:08x}.chunk`
//! with a fixed 36-byte header:
//!
//! ```text
//! magic "XBCK" | version u32 | stripe u64 | lane u32 | digest u64 | len u64
//! ```
//!
//! Version 2 stores the GF(2^8)-linear [`chunk_digest`]; a version-1 file
//! (the same layout, under the FxHash-style digest it replaced) is
//! refused as [`NodeError::UnsupportedVersion`], which is not rot.
//!
//! Writes go to a per-writer-unique `.tmp` sibling and are renamed into
//! place, so a crash mid-put leaves either the old chunk or none — and
//! concurrent puts of the same chunk from different connection threads
//! each assemble privately, the last rename winning whole. The
//! digest is the client's [`chunk_digest`]
//! of the payload; the store records it verbatim on put (the client just
//! computed it — recomputing server-side would burn the put path's CPU
//! budget). [`ChunkStore::get_into`], the scrubber's read, verifies it on
//! every read. The serving path does not: `open_chunk` checks only the
//! header and the file's length, and the server streams the payload
//! behind the stored digest for the reader to check end to end — piece
//! by piece as it lands, or, for a repair source, through the digest of
//! the lane rebuilt from it — the one check a fetched chunk gets, so rot
//! surfaces exactly where the degraded-read machinery can route around
//! it.

use crate::cursor::Cursor;
use crate::error::{NodeError, Result};
use crate::fault::{self, Site};
use crate::protocol::{chunk_digest, MAX_CHUNK};
use std::fs;
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide temp-file sequence: two connection threads putting the
/// same (stripe, lane) must not interleave writes into one `.tmp`.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

const MAGIC: [u8; 4] = *b"XBCK";
/// 2: the digest is the GF(2^8)-linear [`chunk_digest`] (1 stored the
/// FxHash-style digest it replaced; the layout is the same).
const VERSION: u32 = 2;
pub(crate) const HEADER_LEN: usize = 36;

/// One server's chunk directory.
#[derive(Debug)]
pub struct ChunkStore {
    root: PathBuf,
}

/// A chunk file from [`ChunkStore::open_chunk`]: header and length
/// checked, positioned at the first payload byte.
#[derive(Debug)]
pub(crate) struct OpenChunk {
    pub(crate) file: fs::File,
    /// The digest the header records for the payload.
    pub(crate) digest: u64,
    /// Payload length in bytes; the file holds exactly this many more.
    pub(crate) len: usize,
}

impl ChunkStore {
    /// Opens (creating if needed) the chunk directory at `root`.
    ///
    /// Any `*.tmp` files left by a crash mid-put are removed here:
    /// they were never renamed into place, so they represent puts that
    /// were never acknowledged and must not be allowed to shadow or
    /// confuse later writes. Cleanup failures are non-fatal (a stale
    /// temp is inert — uniqueness of temp names means it can never be
    /// adopted by a later put).
    pub fn open(root: &Path) -> Result<Self> {
        fs::create_dir_all(root)?;
        let store = Self {
            root: root.to_path_buf(),
        };
        store.sweep_orphan_tmps();
        Ok(store)
    }

    /// Removes crash leftovers: every `*.tmp` in the root. Returns how
    /// many files were swept (best-effort; errors are skipped).
    fn sweep_orphan_tmps(&self) -> usize {
        let Ok(entries) = fs::read_dir(&self.root) else {
            return 0;
        };
        let mut swept = 0;
        for entry in entries.flatten() {
            let path = entry.path();
            let is_tmp = path
                .extension()
                .is_some_and(|e| e.eq_ignore_ascii_case("tmp"));
            if is_tmp && fs::remove_file(&path).is_ok() {
                swept += 1;
            }
        }
        swept
    }

    /// The file a chunk lives in (exposed so tests can inject
    /// corruption and the repair smoke can count real bytes on disk).
    pub fn chunk_path(&self, stripe: u64, lane: u32) -> PathBuf {
        self.root.join(format!("s{stripe:016x}_l{lane:08x}.chunk"))
    }

    /// Stores a chunk. `digest` is trusted as the sender's
    /// [`chunk_digest`] of `payload` and
    /// is verified on every subsequent read.
    pub fn put(&self, stripe: u64, lane: u32, digest: u64, payload: &[u8]) -> Result<()> {
        if payload.len() > MAX_CHUNK {
            return Err(NodeError::FrameTooLarge {
                len: payload.len() as u64,
                max: MAX_CHUNK as u64,
            });
        }
        let final_path = self.chunk_path(stripe, lane);
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp_path = self
            .root
            .join(format!("s{stripe:016x}_l{lane:08x}.{seq:016x}.tmp"));
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&MAGIC);
        header[4..8].copy_from_slice(&VERSION.to_le_bytes());
        header[8..16].copy_from_slice(&stripe.to_le_bytes());
        header[16..20].copy_from_slice(&lane.to_le_bytes());
        header[20..28].copy_from_slice(&digest.to_le_bytes());
        header[28..36].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        // Fault site: a torn write dies partway through the temp file
        // and — unlike a real failed put — deliberately leaves the torn
        // `.tmp` behind, exercising the startup sweep in `open`.
        if fault::hit(Site::TornWrite) {
            let torn = (|| {
                let mut f = fs::File::create(&tmp_path)?;
                f.write_all(&header)?;
                f.write_all(payload.get(..payload.len() / 2).unwrap_or(payload))
            })();
            return match torn {
                Ok(()) => Err(NodeError::Injected("torn-write")),
                Err(e) => Err(e.into()),
            };
        }
        let written = (|| {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(&header)?;
            f.write_all(payload)
        })();
        if let Err(e) = written {
            // Unique temp names are never overwritten by a later put,
            // so a failed write must clean up after itself.
            let _ = fs::remove_file(&tmp_path);
            return Err(e.into());
        }
        fs::rename(&tmp_path, &final_path)?;
        // Fault site: silent bit rot. The put succeeded and was acked;
        // one payload byte rots afterwards, for the scrubber (or a
        // digest-checked read) to catch.
        if let Some(h) = fault::hit_value(Site::BitFlip) {
            let _ = flip_payload_byte(&final_path, payload.len(), h);
        }
        Ok(())
    }

    /// Reads a chunk into `out` (resized to fit, reusing its capacity)
    /// and returns the stored digest after verifying it against the
    /// payload. Header damage, a length lie, or a digest mismatch all
    /// come back as [`NodeError::ChunkCorrupt`]; an absent file is
    /// [`NodeError::ChunkNotFound`], and one of another format version
    /// [`NodeError::UnsupportedVersion`]. This is the check at rest, the
    /// scrubber's; the server streams a GET's payload unhashed and
    /// leaves the digest to the client, which folds each piece into it
    /// as the piece lands and compares at the end.
    pub fn get_into(&self, stripe: u64, lane: u32, out: &mut Vec<u8>) -> Result<u64> {
        let mut chunk = self.open_chunk(stripe, lane)?;
        out.resize(chunk.len, 0);
        read_exact_or(&mut chunk.file, out).ok_or(NodeError::ChunkCorrupt { stripe, lane })?;
        if chunk_digest(out) != chunk.digest {
            return Err(NodeError::ChunkCorrupt { stripe, lane });
        }
        Ok(chunk.digest)
    }

    /// Opens a chunk for streaming: the header is checked against the
    /// locator and the file's length against header plus payload, so a
    /// truncated or header-damaged file is [`NodeError::ChunkCorrupt`]
    /// before a payload byte is read; an absent file is
    /// [`NodeError::ChunkNotFound`], and one of another format version
    /// [`NodeError::UnsupportedVersion`]. The payload itself is not
    /// read, let alone digested.
    pub(crate) fn open_chunk(&self, stripe: u64, lane: u32) -> Result<OpenChunk> {
        let mut file = match fs::File::open(self.chunk_path(stripe, lane)) {
            Ok(f) => f,
            Err(e) if e.kind() == ErrorKind::NotFound => {
                return Err(NodeError::ChunkNotFound { stripe, lane })
            }
            Err(e) => return Err(e.into()),
        };
        let corrupt = || NodeError::ChunkCorrupt { stripe, lane };
        let mut header = [0u8; HEADER_LEN];
        read_exact_or(&mut file, &mut header).ok_or_else(corrupt)?;
        let (digest, len) = parse_header(&header, stripe, lane).map_err(|e| match e {
            e @ NodeError::UnsupportedVersion { .. } => e,
            _ => corrupt(),
        })?;
        if file.metadata()?.len() != (HEADER_LEN + len) as u64 {
            return Err(corrupt());
        }
        Ok(OpenChunk { file, digest, len })
    }

    /// Removes a chunk; `Ok(false)` when it was not there.
    pub fn delete(&self, stripe: u64, lane: u32) -> Result<bool> {
        match fs::remove_file(self.chunk_path(stripe, lane)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// Whether a chunk file exists (no integrity check).
    pub fn exists(&self, stripe: u64, lane: u32) -> bool {
        self.chunk_path(stripe, lane).exists()
    }

    /// Appends every `(stripe, lane)` with a chunk file in the store to
    /// `out` (unordered). Files that do not match the chunk naming
    /// scheme are ignored. This is the scrubber's walk list.
    pub fn list_chunks(&self, out: &mut Vec<(u64, u32)>) -> Result<()> {
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(loc) = parse_chunk_name(name) {
                out.push(loc);
            }
        }
        Ok(())
    }
}

/// Parses `s{stripe:016x}_l{lane:08x}.chunk`; `None` for anything else.
fn parse_chunk_name(name: &str) -> Option<(u64, u32)> {
    let rest = name.strip_prefix('s')?;
    let stripe = u64::from_str_radix(rest.get(..16)?, 16).ok()?;
    let rest = rest.get(16..)?.strip_prefix("_l")?;
    let lane = u32::from_str_radix(rest.get(..8)?, 16).ok()?;
    match rest.get(8..)? {
        ".chunk" => Some((stripe, lane)),
        _ => None,
    }
}

/// Flips one bit of one payload byte in a stored chunk file, the byte
/// picked by `entropy`. Used only by the [`Site::BitFlip`] fault site.
fn flip_payload_byte(path: &Path, payload_len: usize, entropy: u64) -> std::io::Result<()> {
    if payload_len == 0 {
        return Ok(());
    }
    let offset = HEADER_LEN as u64 + entropy % payload_len as u64;
    let mut f = fs::OpenOptions::new().read(true).write(true).open(path)?;
    f.seek(SeekFrom::Start(offset))?;
    let mut byte = [0u8; 1];
    f.read_exact(&mut byte)?;
    byte[0] ^= 1 << ((entropy >> 32) & 7) as u8;
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(&byte)?;
    Ok(())
}

/// `read_exact` collapsed to an option: `None` on *any* shortfall
/// (including a clean EOF), since a short chunk file is corruption
/// however it happened.
fn read_exact_or<R: Read>(r: &mut R, buf: &mut [u8]) -> Option<()> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return None,
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
    Some(())
}

/// Parses the header of the chunk file written for `(stripe, lane)`
/// into `(payload digest, payload length)`. A short or foreign header,
/// another chunk's, or a length past [`MAX_CHUNK`] is an error the
/// caller reports as corruption; a whole chunk header of another format
/// version is [`NodeError::UnsupportedVersion`], which it must not.
pub(crate) fn parse_header(header: &[u8], stripe: u64, lane: u32) -> Result<(u64, usize)> {
    const DAMAGED: &str = "chunk header damaged";
    let mut c = Cursor::new(header, DAMAGED);
    let magic = c.take(4)?;
    let (version, for_stripe, for_lane) = (c.u32()?, c.u64()?, c.u32()?);
    let (digest, len) = (c.u64()?, c.u64()?);
    c.finish(DAMAGED)?;
    if magic == MAGIC && version != VERSION {
        return Err(NodeError::UnsupportedVersion {
            format: "chunk",
            version,
        });
    }
    if magic != MAGIC || for_stripe != stripe || for_lane != lane || len > MAX_CHUNK as u64 {
        return Err(NodeError::Malformed(DAMAGED));
    }
    Ok((digest, len as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("xorbas_store_{tag}_{}_{n}", std::process::id()))
    }

    #[test]
    fn put_get_delete_round_trip() {
        let dir = scratch_dir("roundtrip");
        let store = ChunkStore::open(&dir).unwrap();
        let payload = vec![0xABu8; 4096];
        let digest = chunk_digest(&payload);
        store.put(7, 2, digest, &payload).unwrap();
        assert!(store.exists(7, 2));

        let mut out = Vec::new();
        assert_eq!(store.get_into(7, 2, &mut out).unwrap(), digest);
        assert_eq!(out, payload);

        // The read buffer is reused: a smaller chunk shrinks it.
        let small = vec![1u8, 2, 3];
        store.put(7, 3, chunk_digest(&small), &small).unwrap();
        store.get_into(7, 3, &mut out).unwrap();
        assert_eq!(out, small);

        assert!(store.delete(7, 2).unwrap());
        assert!(!store.delete(7, 2).unwrap());
        assert!(matches!(
            store.get_into(7, 2, &mut out).unwrap_err(),
            NodeError::ChunkNotFound { stripe: 7, lane: 2 }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Two connection threads racing a put of the same (stripe, lane)
    /// must each assemble in a private temp file: whichever rename wins,
    /// the stored chunk is one whole put, never an interleaving.
    #[test]
    fn concurrent_puts_of_one_chunk_never_tear() {
        let dir = scratch_dir("race");
        let store = ChunkStore::open(&dir).unwrap();
        let a = vec![0x11u8; 32 * 1024];
        let b = vec![0x22u8; 32 * 1024];
        std::thread::scope(|s| {
            for payload in [&a, &b] {
                for _ in 0..8 {
                    let store = &store;
                    s.spawn(move || {
                        store.put(9, 4, chunk_digest(payload), payload).unwrap();
                    });
                }
            }
        });
        let mut out = Vec::new();
        store.get_into(9, 4, &mut out).unwrap();
        assert!(out == a || out == b, "stored chunk is a whole put");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected_on_read() {
        let dir = scratch_dir("corrupt");
        let store = ChunkStore::open(&dir).unwrap();
        let payload = vec![0x5Au8; 1024];
        store.put(1, 0, chunk_digest(&payload), &payload).unwrap();

        // Flip one payload byte on disk.
        let path = store.chunk_path(1, 0);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let mut out = Vec::new();
        assert!(matches!(
            store.get_into(1, 0, &mut out).unwrap_err(),
            NodeError::ChunkCorrupt { stripe: 1, lane: 0 }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_mislabeled_files_are_corrupt() {
        let dir = scratch_dir("trunc");
        let store = ChunkStore::open(&dir).unwrap();
        let payload = vec![9u8; 512];
        store.put(3, 1, chunk_digest(&payload), &payload).unwrap();

        // The opener the server streams from refuses what the full read
        // refuses, before reading a payload byte.
        let refused_both_ways = |stripe, lane| {
            let mut out = Vec::new();
            let read = store.get_into(stripe, lane, &mut out).unwrap_err();
            let opened = store.open_chunk(stripe, lane).unwrap_err();
            for err in [read, opened] {
                assert!(
                    matches!(err, NodeError::ChunkCorrupt { stripe: s, lane: l } if (s, l) == (stripe, lane)),
                    "{err:?}"
                );
            }
        };
        let whole = store.open_chunk(3, 1).unwrap();
        assert_eq!((whole.digest, whole.len), (chunk_digest(&payload), 512));

        // Truncate mid-payload; then one byte past the payload.
        let path = store.chunk_path(3, 1);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        refused_both_ways(3, 1);
        let mut longer = bytes.clone();
        longer.push(0);
        fs::write(&path, &longer).unwrap();
        refused_both_ways(3, 1);

        // A chunk file renamed under the wrong locator fails the
        // header's stripe/lane check.
        store.put(4, 0, chunk_digest(&payload), &payload).unwrap();
        fs::rename(store.chunk_path(4, 0), store.chunk_path(5, 0)).unwrap();
        refused_both_ways(5, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A chunk file of format version 1 (the same layout, holding the
    /// digest this format replaced) is refused by both readers with an
    /// error that names the version, not reported as corruption.
    #[test]
    fn a_version_1_chunk_is_refused_by_version_not_as_rot() {
        let dir = scratch_dir("v1");
        let store = ChunkStore::open(&dir).unwrap();
        let payload = vec![7u8; 300];
        store.put(6, 1, chunk_digest(&payload), &payload).unwrap();
        let path = store.chunk_path(6, 1);
        let mut bytes = fs::read(&path).unwrap();
        assert_eq!(bytes[4..8], 2u32.to_le_bytes());
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let mut out = Vec::new();
        for err in [
            store.get_into(6, 1, &mut out).unwrap_err(),
            store.open_chunk(6, 1).unwrap_err(),
        ] {
            assert!(
                matches!(
                    err,
                    NodeError::UnsupportedVersion {
                        format: "chunk",
                        version: 1
                    }
                ),
                "{err:?}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Crash consistency at startup: a torn `.tmp` (killed mid-write)
    /// and a stale orphaned `.tmp` (killed between write and rename)
    /// must both be swept on open, the surviving chunks must still be
    /// whole, and the torn put must never be servable.
    #[test]
    fn startup_sweeps_torn_and_orphaned_temps() {
        let dir = scratch_dir("crash");
        let payload = vec![0x3Cu8; 2048];
        let digest = chunk_digest(&payload);
        {
            let store = ChunkStore::open(&dir).unwrap();
            store.put(11, 0, digest, &payload).unwrap();
        }
        // Simulate the two crash shapes by hand. A torn temp: header +
        // half the payload for a chunk that was never acked…
        let torn = dir.join(format!("s{:016x}_l{:08x}.{:016x}.tmp", 12u64, 1u32, 77u64));
        fs::write(&torn, &payload[..payload.len() / 2]).unwrap();
        // …and a stale but *complete* orphan for (11, 0) whose rename
        // never happened (contents differ from the stored chunk so
        // wrongly adopting it would be detectable).
        let orphan = dir.join(format!("s{:016x}_l{:08x}.{:016x}.tmp", 11u64, 0u32, 78u64));
        fs::write(&orphan, b"stale bytes from a dead writer").unwrap();

        let store = ChunkStore::open(&dir).unwrap();
        assert!(!torn.exists(), "torn tmp swept at startup");
        assert!(!orphan.exists(), "orphaned tmp swept at startup");
        // The acked chunk is intact; the torn put is simply absent —
        // a partial chunk is never served.
        let mut out = Vec::new();
        assert_eq!(store.get_into(11, 0, &mut out).unwrap(), digest);
        assert_eq!(out, payload);
        assert!(matches!(
            store.get_into(12, 1, &mut out).unwrap_err(),
            NodeError::ChunkNotFound {
                stripe: 12,
                lane: 1
            }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn list_chunks_walks_exactly_the_chunk_files() {
        let dir = scratch_dir("list");
        let store = ChunkStore::open(&dir).unwrap();
        let payload = vec![1u8; 64];
        store.put(1, 0, chunk_digest(&payload), &payload).unwrap();
        store.put(2, 9, chunk_digest(&payload), &payload).unwrap();
        // Noise the walk must skip.
        fs::write(dir.join("notes.txt"), b"x").unwrap();
        fs::write(dir.join("s00_l0.chunk"), b"x").unwrap();
        let mut locs = Vec::new();
        store.list_chunks(&mut locs).unwrap();
        locs.sort_unstable();
        assert_eq!(locs, vec![(1, 0), (2, 9)]);
        assert_eq!(
            parse_chunk_name("s0000000000000001_l00000000.chunk"),
            Some((1, 0))
        );
        assert_eq!(parse_chunk_name("s0000000000000001_l00000000.tmp"), None);
        assert_eq!(parse_chunk_name("garbage"), None);
        let _ = fs::remove_dir_all(&dir);
    }
}
