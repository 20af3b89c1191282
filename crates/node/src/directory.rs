//! The in-memory placement directory: which server holds which chunk,
//! who is alive, and what has been reported lost.
//!
//! This is the prototype's stand-in for the HDFS NameNode's block map.
//! Placement decisions reuse the simulator's rack-aware
//! [`Placement`] policy — the same best-effort
//! spreading the scale experiments validated — so a 16-lane LRC stripe
//! lands on a 5-server cluster with at most ⌈16/5⌉ lanes per server,
//! keeping any single server failure inside the code's erasure budget.
//!
//! The directory is plain data guarded by whatever lock its owner
//! chooses (the client and repair agent share one behind an
//! `Arc<Mutex<_>>`); every mutating call is synchronous and cheap.

use crate::error::{NodeError, Result};
use crate::manifest::Manifest;
use crate::wal::{DirectoryWal, ReplayStats, WalHeader, WalRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::path::Path;
use xorbas_sim::fasthash::{FastMap, FastSet};
use xorbas_sim::Placement;

/// Index of a server in the directory's roster.
pub type ServerId = usize;

/// One chunk server as the directory sees it.
#[derive(Debug, Clone)]
pub struct ServerInfo {
    /// Where the server listens.
    pub addr: SocketAddr,
    /// Rack the server sits in (round-robin, matching [`Placement`]).
    pub rack: usize,
    /// Liveness as last observed (connect failures mark this false).
    pub alive: bool,
}

/// The largest stripe id the directory accepts. The allocator keeps
/// itself one past every id it has seen, so `u64::MAX` has no
/// successor; [`crate::Manifest::decode`] and WAL replay refuse larger
/// ids at the boundary, where they arrive from outside the program.
pub(crate) const MAX_STRIPE_ID: u64 = u64::MAX - 1;

/// The chunk→server map plus liveness and loss bookkeeping.
#[derive(Debug)]
pub struct Directory {
    servers: Vec<ServerInfo>,
    placement: Placement,
    /// Stripe id → per-lane server assignment (index = lane).
    stripes: FastMap<u64, Vec<ServerId>>,
    /// Chunks reported corrupt by a failed digest check.
    corrupt: FastSet<(u64, u32)>,
    next_stripe: u64,
    rng: StdRng,
    alive_scratch: Vec<bool>,
    /// When present, every placement/repair/corruption mutation is
    /// appended here before the call returns (see [`crate::wal`]).
    wal: Option<DirectoryWal>,
    /// Best-effort appends (corruption reports, re-registrations) that
    /// failed; the in-memory state is still authoritative, the log is
    /// just missing those records.
    wal_errors: u64,
}

impl Directory {
    /// A directory over `addrs`, spread round-robin across `racks`.
    pub fn new(addrs: &[SocketAddr], racks: usize, seed: u64) -> Self {
        let racks = racks.clamp(1, addrs.len().max(1));
        let servers = addrs
            .iter()
            .enumerate()
            .map(|(i, &addr)| ServerInfo {
                addr,
                rack: i % racks,
                alive: true,
            })
            .collect::<Vec<_>>();
        Self {
            placement: Placement::new(servers.len(), racks),
            servers,
            stripes: FastMap::default(),
            corrupt: FastSet::default(),
            next_stripe: 0,
            rng: StdRng::seed_from_u64(seed),
            alive_scratch: Vec::new(),
            wal: None,
            wal_errors: 0,
        }
    }

    /// A WAL-backed directory at `wal_path`.
    ///
    /// If the log exists it is replayed — every placement, repair
    /// reassignment, and corruption report is reapplied in order, a
    /// torn tail record is truncated (not fatal), and every logged
    /// manifest is returned so the caller can re-serve the files it
    /// had acknowledged. `addrs` supplies the roster's *current*
    /// addresses (servers restart on fresh ports; [`ServerId`] is the
    /// stable identity) and must match the logged roster size; `racks`
    /// and `seed` are taken from the log header so placement geometry
    /// survives the restart. If the log does not exist it is created
    /// with the given shape.
    pub fn open_persistent(
        wal_path: &Path,
        addrs: &[SocketAddr],
        racks: usize,
        seed: u64,
    ) -> Result<(Self, Vec<Manifest>)> {
        if !wal_path.exists() {
            let mut dir = Directory::new(addrs, racks, seed);
            dir.wal = Some(DirectoryWal::create(
                wal_path,
                WalHeader {
                    servers: addrs.len() as u32,
                    racks: racks as u32,
                    seed,
                },
            )?);
            return Ok((dir, Vec::new()));
        }
        let mut records = Vec::new();
        let (header, _stats): (WalHeader, ReplayStats) =
            DirectoryWal::replay(wal_path, |rec| records.push(rec))?;
        if header.servers as usize != addrs.len() {
            return Err(NodeError::Malformed("wal roster size mismatch"));
        }
        let mut dir = Directory::new(addrs, header.racks as usize, header.seed);
        let mut manifests = Vec::new();
        for rec in records {
            match rec {
                WalRecord::Stripe { stripe, servers } => {
                    dir.register_stripe_unlogged(stripe, servers)
                }
                WalRecord::Reassign {
                    stripe,
                    lane,
                    server,
                } => {
                    // A reassign for a stripe the (truncated) log never
                    // placed: skip it, the stripe is gone anyway.
                    let _ = dir.reassign_unlogged(stripe, lane, server);
                }
                WalRecord::Corrupt { stripe, lane } => {
                    dir.corrupt.insert((stripe, lane));
                }
                WalRecord::Manifest(m) => manifests.push(m),
            }
        }
        // A placement no acknowledged manifest references never
        // finished its put (see `forget_stripe`).
        let acked: FastSet<u64> = manifests
            .iter()
            .flat_map(|m| m.stripes.iter().map(|e| e.id))
            .collect();
        dir.stripes.retain(|stripe, _| acked.contains(stripe));
        dir.corrupt.retain(|(stripe, _)| acked.contains(stripe));
        dir.wal = Some(DirectoryWal::open_append(wal_path)?);
        Ok((dir, manifests))
    }

    /// Count of best-effort WAL appends that failed (0 on a healthy
    /// log, and always 0 for a non-persistent directory).
    pub fn wal_error_count(&self) -> u64 {
        self.wal_errors
    }

    /// Records a manifest in the WAL so a restarted directory can hand
    /// the file back (no-op without a WAL). Call once per acknowledged
    /// put, after the data is on the servers.
    pub fn log_manifest(&mut self, manifest: &Manifest) -> Result<()> {
        match self.wal.as_mut() {
            Some(wal) => wal.append_manifest(manifest),
            None => Ok(()),
        }
    }

    /// Updates the address of `id` — the restart path: the server
    /// process came back on a fresh port with the same data root.
    pub fn set_addr(&mut self, id: ServerId, addr: SocketAddr) {
        if let Some(s) = self.servers.get_mut(id) {
            s.addr = addr;
        }
    }

    /// Number of servers in the roster (alive or not).
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Number of servers currently believed alive.
    pub fn alive_count(&self) -> usize {
        self.servers.iter().filter(|s| s.alive).count()
    }

    /// The roster entry for `id`.
    pub fn server(&self, id: ServerId) -> Option<&ServerInfo> {
        self.servers.get(id)
    }

    /// The whole roster, indexed by [`ServerId`].
    pub fn roster(&self) -> &[ServerInfo] {
        &self.servers
    }

    /// The address of `id` (roster indices are dense and stable).
    pub fn addr_of(&self, id: ServerId) -> Option<SocketAddr> {
        self.servers.get(id).map(|s| s.addr)
    }

    /// Marks a server dead (connect failure, kill switch). Its chunks
    /// become repair candidates on the next [`Directory::scan_lost`].
    pub fn mark_dead(&mut self, id: ServerId) {
        if let Some(s) = self.servers.get_mut(id) {
            s.alive = false;
        }
    }

    /// Marks a server alive again (it answered a probe).
    pub fn mark_alive(&mut self, id: ServerId) {
        if let Some(s) = self.servers.get_mut(id) {
            s.alive = true;
        }
    }

    /// Liveness of `id`.
    pub fn is_alive(&self, id: ServerId) -> bool {
        self.servers.get(id).is_some_and(|s| s.alive)
    }

    /// Allocates a fresh stripe id, or fails once the id space is used
    /// up (only a directly registered id near `u64::MAX` gets there).
    fn next_stripe_id(&mut self) -> Result<u64> {
        let id = self.next_stripe;
        if id > MAX_STRIPE_ID {
            return Err(NodeError::Malformed("stripe id out of range"));
        }
        self.next_stripe = id + 1;
        Ok(id)
    }

    /// Registers a stripe with a known lane→server assignment (manifest
    /// load). Keeps the id allocator ahead of every registered stripe.
    /// Logged to the WAL (best-effort) unless the directory already has
    /// the identical assignment — re-registering a replayed manifest
    /// after a restart must not bloat the log.
    pub fn register_stripe(&mut self, stripe: u64, lane_servers: Vec<ServerId>) {
        if self.stripes.get(&stripe) == Some(&lane_servers) {
            return;
        }
        if let Some(wal) = self.wal.as_mut() {
            if wal.append_stripe(stripe, &lane_servers).is_err() {
                self.wal_errors += 1;
            }
        }
        self.register_stripe_unlogged(stripe, lane_servers);
    }

    fn register_stripe_unlogged(&mut self, stripe: u64, lane_servers: Vec<ServerId>) {
        // Saturating: an id past MAX_STRIPE_ID handed straight to
        // `register_stripe` parks the allocator at its refusing end
        // instead of overflowing.
        self.next_stripe = self.next_stripe.max(stripe.saturating_add(1));
        self.stripes.insert(stripe, lane_servers);
    }

    /// Places a new `lanes`-wide stripe on alive servers, best-effort
    /// rack-aware (lanes collocate only when the cluster is smaller
    /// than the stripe). Returns the fresh stripe id and its
    /// assignment.
    pub fn place_stripe(&mut self, lanes: usize) -> Result<(u64, &[ServerId])> {
        self.alive_scratch.clear();
        self.alive_scratch
            .extend(self.servers.iter().map(|s| s.alive));
        let mut out = Vec::new();
        self.placement
            .place_best_effort(lanes, &self.alive_scratch, &[], &mut self.rng, &mut out)
            .ok_or(NodeError::NoPlacement)?;
        let id = self.next_stripe_id()?;
        // Log before committing: if the append fails the put aborts and
        // the stripe id is simply burned (a crash between the append
        // and the chunk writes leaves the same harmless ghost record —
        // no manifest ever references it).
        if let Some(wal) = self.wal.as_mut() {
            wal.append_stripe(id, &out)?;
        }
        let entry = self.stripes.entry(id).or_default();
        *entry = out;
        Ok((id, entry))
    }

    /// Drops a stripe of a put that failed. The stripe the put died in
    /// has only some of its lanes on a server, so left in place it would
    /// look like lost data to the repair agent and could never be
    /// rebuilt; the stripes before it were stored whole, but no manifest
    /// will ever name them, and the agent would rebuild them for nobody.
    /// In memory only: the WAL keeps the placement record, and replay
    /// drops it again because no manifest references it.
    pub(crate) fn forget_stripe(&mut self, stripe: u64) {
        self.stripes.remove(&stripe);
        self.corrupt.retain(|&(s, _)| s != stripe);
    }

    /// The lane→server assignment of `stripe`.
    pub fn servers_of(&self, stripe: u64) -> Option<&[ServerId]> {
        self.stripes.get(&stripe).map(Vec::as_slice)
    }

    /// Records that `(stripe, lane)` failed its digest check. The WAL
    /// append is best-effort: losing a corruption report on restart
    /// only means the scrubber has to find the rot again.
    pub fn report_corrupt(&mut self, stripe: u64, lane: u32) {
        if self.corrupt.insert((stripe, lane)) {
            if let Some(wal) = self.wal.as_mut() {
                if wal.append_corrupt(stripe, lane).is_err() {
                    self.wal_errors += 1;
                }
            }
        }
    }

    /// Whether `(stripe, lane)` is currently flagged corrupt.
    pub fn is_corrupt(&self, stripe: u64, lane: u32) -> bool {
        self.corrupt.contains(&(stripe, lane))
    }

    /// Collects the lanes of `stripe` that cannot be read right now —
    /// their server is dead or the chunk was reported corrupt — into
    /// `out` (cleared first, ascending).
    pub fn unavailable_lanes(&self, stripe: u64, out: &mut Vec<usize>) -> Result<()> {
        out.clear();
        let lanes = self
            .stripes
            .get(&stripe)
            .ok_or(NodeError::UnknownStripe(stripe))?;
        for (lane, &sid) in lanes.iter().enumerate() {
            let dead = !self.is_alive(sid);
            if dead || self.corrupt.contains(&(stripe, lane as u32)) {
                out.push(lane);
            }
        }
        Ok(())
    }

    /// Scans every registered stripe for lost chunks (dead server or
    /// corrupt report) into `out`, sorted for determinism.
    pub fn scan_lost(&self, out: &mut Vec<(u64, u32)>) {
        out.clear();
        for (&stripe, lanes) in &self.stripes {
            for (lane, &sid) in lanes.iter().enumerate() {
                if !self.is_alive(sid) || self.corrupt.contains(&(stripe, lane as u32)) {
                    out.push((stripe, lane as u32));
                }
            }
        }
        out.sort_unstable();
    }

    /// Picks an alive server to host a repaired `(stripe, lane)`,
    /// preferring one that holds no lane of the stripe yet and falling
    /// back to any alive server on small clusters.
    pub fn choose_replacement(&mut self, stripe: u64) -> Result<ServerId> {
        let lanes = self
            .stripes
            .get(&stripe)
            .ok_or(NodeError::UnknownStripe(stripe))?;
        self.alive_scratch.clear();
        self.alive_scratch
            .extend(self.servers.iter().map(|s| s.alive));
        let choice = self
            .placement
            .place_one(&self.alive_scratch, lanes, &mut self.rng)
            .or_else(|| {
                self.placement
                    .place_one(&self.alive_scratch, &[], &mut self.rng)
            });
        choice.ok_or(NodeError::NoPlacement)
    }

    /// Points `(stripe, lane)` at `new_server` and clears any corrupt
    /// flag — the repair agent calls this after a verified re-put.
    ///
    /// The WAL append happens after the in-memory move; if it fails,
    /// memory is ahead of the log, which self-heals: a restart replays
    /// the old assignment, the scan finds the lane lost, and the agent
    /// repairs it again.
    pub fn reassign(&mut self, stripe: u64, lane: u32, new_server: ServerId) -> Result<()> {
        self.reassign_unlogged(stripe, lane, new_server)?;
        if let Some(wal) = self.wal.as_mut() {
            wal.append_reassign(stripe, lane, new_server)?;
        }
        Ok(())
    }

    fn reassign_unlogged(&mut self, stripe: u64, lane: u32, new_server: ServerId) -> Result<()> {
        let lanes = self
            .stripes
            .get_mut(&stripe)
            .ok_or(NodeError::UnknownStripe(stripe))?;
        let slot = lanes
            .get_mut(lane as usize)
            .ok_or(NodeError::Malformed("lane out of range for stripe"))?;
        *slot = new_server;
        self.corrupt.remove(&(stripe, lane));
        Ok(())
    }

    /// Iterates all registered stripe ids, sorted.
    pub fn stripe_ids(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.stripes.keys().copied());
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<SocketAddr> {
        (0..n)
            .map(|i| format!("127.0.0.1:{}", 42000 + i).parse().unwrap())
            .collect()
    }

    #[test]
    fn small_cluster_spreads_lanes_within_erasure_budget() {
        let mut dir = Directory::new(&addrs(5), 5, 7);
        let (id, lanes) = dir.place_stripe(16).unwrap();
        assert_eq!(id, 0);
        let lanes: Vec<ServerId> = lanes.to_vec();
        assert_eq!(lanes.len(), 16);
        // Best-effort placement on 5 servers: at most ceil(16/5) = 4
        // lanes collocate, so one server death erases at most 4 lanes —
        // inside LRC(10,6,5)'s distance-5 budget.
        for sid in 0..5 {
            let held = lanes.iter().filter(|&&s| s == sid).count();
            assert!(held <= 4, "server {sid} holds {held} lanes");
        }
    }

    #[test]
    fn loss_scan_tracks_death_and_corruption() {
        let mut dir = Directory::new(&addrs(5), 5, 7);
        let (id, _) = dir.place_stripe(14).unwrap();
        let lanes: Vec<ServerId> = dir.servers_of(id).unwrap().to_vec();

        let victim = lanes[3];
        dir.mark_dead(victim);
        dir.report_corrupt(id, 0);

        let mut lost = Vec::new();
        dir.scan_lost(&mut lost);
        let expect: Vec<(u64, u32)> = lanes
            .iter()
            .enumerate()
            .filter(|&(lane, &sid)| sid == victim || lane == 0)
            .map(|(lane, _)| (id, lane as u32))
            .collect();
        let mut expect = expect;
        expect.sort_unstable();
        assert_eq!(lost, expect);

        let mut unavail = Vec::new();
        dir.unavailable_lanes(id, &mut unavail).unwrap();
        assert_eq!(
            unavail,
            expect.iter().map(|&(_, l)| l as usize).collect::<Vec<_>>()
        );

        // Repair: reassign lane 3's victim chunk and clear the corrupt
        // flag on lane 0.
        let replacement = dir.choose_replacement(id).unwrap();
        assert!(dir.is_alive(replacement));
        dir.reassign(id, 3, replacement).unwrap();
        dir.reassign(id, 0, lanes[0]).unwrap();
        dir.unavailable_lanes(id, &mut unavail).unwrap();
        assert!(!unavail.contains(&0));
        assert!(unavail.iter().all(|&l| lanes[l] == victim && l != 3));

        // Revival clears the rest.
        dir.mark_alive(victim);
        dir.unavailable_lanes(id, &mut unavail).unwrap();
        assert!(unavail.is_empty());
    }

    #[test]
    fn persistent_directory_survives_reopen() {
        let wal_path =
            std::env::temp_dir().join(format!("xorbas_dir_persist_{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&wal_path);
        let a5 = addrs(5);

        let (mut dir, manifests) = Directory::open_persistent(&wal_path, &a5, 5, 7).unwrap();
        assert!(manifests.is_empty());
        let (id, lanes) = dir.place_stripe(16).unwrap();
        let lanes: Vec<ServerId> = lanes.to_vec();
        dir.report_corrupt(id, 3);
        let replacement = dir.choose_replacement(id).unwrap();
        dir.reassign(id, 3, replacement).unwrap();
        let manifest = Manifest {
            spec: xorbas_core::CodeSpec::ReedSolomon { k: 10, m: 6 },
            chunk_bytes: 4096,
            file_len: 10 * 4096,
            stripes: vec![crate::manifest::StripeEntry {
                id,
                servers: dir.servers_of(id).unwrap().to_vec(),
            }],
        };
        dir.log_manifest(&manifest).unwrap();
        // A placement whose put never reached its manifest.
        let (unacked, _) = dir.place_stripe(16).unwrap();
        drop(dir);

        // Restart: same roster identity, fresh addresses.
        let new_addrs: Vec<SocketAddr> = (0..5)
            .map(|i| format!("127.0.0.1:{}", 52000 + i).parse().unwrap())
            .collect();
        let (mut dir, manifests) =
            Directory::open_persistent(&wal_path, &new_addrs, 1, 999).unwrap();
        assert_eq!(manifests, vec![manifest]);
        assert_eq!(dir.addr_of(0), Some(new_addrs[0]));
        let mut expect = lanes;
        expect[3] = replacement;
        assert_eq!(dir.servers_of(id).unwrap(), expect.as_slice());
        // The reassign cleared the corrupt flag before the restart.
        assert!(!dir.is_corrupt(id, 3));
        // The unacknowledged placement is gone, its id still burned.
        assert!(dir.servers_of(unacked).is_none());
        let (id2, _) = dir.place_stripe(4).unwrap();
        assert!(id2 > unacked);
        // Re-registering a replayed manifest is a no-op (no log bloat).
        let len_before = std::fs::metadata(&wal_path).unwrap().len();
        dir.register_stripe(id, expect.clone());
        assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), len_before);
        assert_eq!(dir.wal_error_count(), 0);

        // A roster of the wrong size is refused.
        assert!(matches!(
            Directory::open_persistent(&wal_path, &addrs(3), 1, 7).unwrap_err(),
            NodeError::Malformed("wal roster size mismatch")
        ));
        let _ = std::fs::remove_file(&wal_path);
    }

    #[test]
    fn registering_the_last_stripe_id_cannot_overflow_the_allocator() {
        // `stripe + 1` on an id from outside the program: u64::MAX used
        // to panic here (debug) or wrap the allocator to 0 (release).
        let mut dir = Directory::new(&addrs(3), 1, 1);
        dir.register_stripe(u64::MAX, vec![0, 1, 2]);
        assert_eq!(dir.servers_of(u64::MAX).unwrap(), [0, 1, 2]);
        // The id space is used up: placing is a typed error, and the
        // registered stripe keeps its assignment.
        assert!(matches!(
            dir.place_stripe(3).unwrap_err(),
            NodeError::Malformed("stripe id out of range")
        ));
        assert_eq!(dir.servers_of(u64::MAX).unwrap(), [0, 1, 2]);

        // One below the end still leaves exactly one id to hand out.
        let mut dir = Directory::new(&addrs(3), 1, 1);
        dir.register_stripe(u64::MAX - 2, vec![0, 1, 2]);
        assert_eq!(dir.place_stripe(3).unwrap().0, u64::MAX - 1);
        assert!(dir.place_stripe(3).is_err());
    }

    #[test]
    fn unknown_stripe_is_a_typed_error() {
        let dir = Directory::new(&addrs(3), 1, 1);
        let mut out = Vec::new();
        assert!(matches!(
            dir.unavailable_lanes(99, &mut out).unwrap_err(),
            NodeError::UnknownStripe(99)
        ));
    }
}
