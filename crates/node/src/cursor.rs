//! The one bounds-checked little-endian reader behind the node's four
//! binary decoders: frame bodies ([`crate::protocol`]), manifests
//! ([`crate::manifest`]), WAL headers and records ([`crate::wal`]) and
//! chunk-file headers ([`crate::chunk_store`]).
//!
//! Every read checks the bytes actually present, so hostile or torn
//! input becomes the format's own typed [`NodeError::Malformed`] — never
//! a slice-index panic.

use crate::error::{NodeError, Result};

/// A cursor over the unread tail of `bytes`.
pub(crate) struct Cursor<'a> {
    rest: &'a [u8],
    /// What the format calls "ran out of bytes".
    short: &'static str,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8], short: &'static str) -> Self {
        Self { rest: bytes, short }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let (head, tail) = self
            .rest
            .split_at_checked(n)
            .ok_or(NodeError::Malformed(self.short))?;
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut w = [0u8; N];
        w.copy_from_slice(self.take(N)?);
        Ok(w)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    pub(crate) fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Everything not yet consumed (a variable-length trailing payload).
    pub(crate) fn rest(self) -> &'a [u8] {
        self.rest
    }

    /// Requires the input to be fully consumed; `trailing` is what the
    /// format calls leftover bytes.
    pub(crate) fn finish(self, trailing: &'static str) -> Result<()> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(NodeError::Malformed(trailing))
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::chunk_store::{self, ChunkStore};
    use crate::manifest::{Manifest, StripeEntry};
    use crate::protocol::{chunk_digest, parse_body, write_locator, OP_GET};
    use crate::wal::{self, DirectoryWal, WalHeader};
    use xorbas_core::CodeSpec;

    /// Every strict byte-prefix of one valid encoding of each format
    /// must be refused with a typed error (or `None`) — never a panic,
    /// never a decode of half the input. This is the seam a structured
    /// fuzzer of the four decoders plugs into.
    #[test]
    fn every_truncation_of_every_format_is_a_typed_refusal() {
        let root = std::env::temp_dir().join(format!("xorbas_cursor_trunc_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);

        let mut frame = Vec::new();
        write_locator(&mut frame, OP_GET, 7, 3).unwrap();
        let frame_body = frame.split_off(4);

        let manifest = Manifest {
            spec: CodeSpec::LRC_10_6_5,
            chunk_bytes: 1 << 16,
            file_len: 12345,
            stripes: vec![StripeEntry {
                id: 9,
                servers: (0..16).collect(),
            }],
        };

        let wal_path = root.join("dir.wal");
        let header = WalHeader {
            servers: 5,
            racks: 5,
            seed: 1,
        };
        DirectoryWal::create(&wal_path, header)
            .unwrap()
            .append_stripe(9, &[0, 1, 2, 3])
            .unwrap();
        let mut wal_header = std::fs::read(&wal_path).unwrap();
        let wal_record = wal_header.split_off(wal::HEADER_LEN);

        let payload = [0xABu8; 64];
        let store = ChunkStore::open(&root.join("store")).unwrap();
        store.put(9, 2, chunk_digest(&payload), &payload).unwrap();
        let mut chunk_header = std::fs::read(store.chunk_path(9, 2)).unwrap();
        chunk_header.truncate(chunk_store::HEADER_LEN);

        type Decoder = fn(&[u8]) -> bool;
        let table: [(&str, Vec<u8>, Decoder); 5] = [
            ("frame body", frame_body, |b| parse_body(b).is_ok()),
            ("manifest", manifest.encode(), |b| {
                Manifest::decode(b).is_ok()
            }),
            ("wal header", wal_header, |b| wal::decode_header(b).is_ok()),
            ("wal record", wal_record, |b| {
                wal::decode_record(b, 0).is_some()
            }),
            ("chunk header", chunk_header, |b| {
                chunk_store::parse_header(b, 9, 2).is_ok()
            }),
        ];
        for (format, bytes, decodes) in table {
            assert!(decodes(&bytes), "{format}: the whole encoding is valid");
            for cut in 0..bytes.len() {
                assert!(
                    !decodes(&bytes[..cut]),
                    "{format}: a {cut}-byte prefix of {} bytes must be refused",
                    bytes.len()
                );
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
