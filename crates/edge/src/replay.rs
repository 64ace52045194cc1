//! Store-free edge serving: cache certified response fragments from
//! upstream replicas and replay them to clients.
//!
//! An edge replay node is the cheapest possible read scaler: it holds
//! no partition state, no Merkle tree, and no signing keys — only
//! [`ProofBundle`] fragments it saw go past. Because every fragment is
//! anchored in an `f+1` certificate and per-key proofs, replaying one
//! can serve a later client *without any trust in the edge node*: the
//! client's [`crate::verifier::ReadVerifier`] re-checks everything.
//! This is WedgeChain's lazy-trust pattern applied to TransEdge's ROT
//! protocol.

use std::collections::{BTreeMap, VecDeque};

use transedge_common::{BatchNum, Epoch, Key, SimTime};
use transedge_consensus::Certificate;
use transedge_crypto::ScanRange;

use crate::cache::{CacheStats, LruCache};
use crate::response::{
    BatchCommitment, CertifiedDelta, MultiProofBody, MultiProofBundle, ProofBundle, ProvenRead,
    ScanBundle, ScanProof,
};

/// Counters for the replay path.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayStats {
    /// Bundles absorbed from upstream.
    pub admitted: u64,
    /// Requests answered entirely from cache.
    pub replayed: u64,
    /// Requests that could not be answered (missing batch or keys).
    pub passes: u64,
    /// Requests partially covered from cache (the rest is fetched
    /// upstream, pinned at the anchor batch).
    pub partial: u64,
    /// Individual fragments served from cache, across full replays and
    /// partial assemblies.
    pub fragments_replayed: u64,
    /// Scan proofs absorbed from upstream.
    pub scans_admitted: u64,
    /// Scan requests answered from cache.
    pub scans_replayed: u64,
    /// Scan replays answered by a cached *wider* window covering the
    /// request (overlap-aware reuse; the client filters to its range).
    pub scans_covered_by_wider: u64,
    /// Scan requests with no usable cached window.
    pub scan_passes: u64,
    /// Multiproof bodies absorbed from upstream.
    pub multis_admitted: u64,
    /// Multiproof requests answered from cache (a body covering the
    /// requested keys replayed as-is — a refcount bump on its shared
    /// wire buffer).
    pub multis_replayed: u64,
    /// Multi replays answered by a cached *superset* body (the client
    /// verifies the proven set and picks out its keys).
    pub multis_covered_by_superset: u64,
    /// Multiproof requests with no usable cached body.
    pub multi_passes: u64,
    /// Certified deltas applied to the feed window (already verified by
    /// the caller).
    pub deltas_applied: u64,
    /// Feed windows reset because a delta arrived past a gap (the
    /// contiguity the freshness certificate needs was broken).
    pub feed_resets: u64,
    /// Cached read fragments dropped by push invalidation: a delta
    /// proved their key changed after the batch they snapshot.
    pub fragments_invalidated: u64,
    /// Freshness feeds attached to served responses.
    pub freshness_attached: u64,
    /// Freshness requests refused: the feed could not chain from the
    /// served batch, or a queried key changed inside the window.
    pub freshness_refused: u64,
    /// Cached entries (fragments, scan windows, multiproof bodies)
    /// dropped because their batch aged past `max_batches` — *capacity*
    /// eviction, as opposed to `fragments_invalidated` (a delta proved
    /// the entry superseded). The persistence plane's spill accounting
    /// rides on this split: an evicted entry is still durable on disk,
    /// an invalidated one is provably dead everywhere.
    pub evicted_entries: u64,
}

impl transedge_obs::RegisterMetrics for ReplayStats {
    fn register_metrics(&self, scope: &str, reg: &mut transedge_obs::MetricRegistry) {
        reg.counter(scope, "replay.admitted", self.admitted);
        reg.counter(scope, "replay.replayed", self.replayed);
        reg.counter(scope, "replay.passes", self.passes);
        reg.counter(scope, "replay.partial", self.partial);
        reg.counter(scope, "replay.fragments_replayed", self.fragments_replayed);
        reg.counter(scope, "replay.scans_admitted", self.scans_admitted);
        reg.counter(scope, "replay.scans_replayed", self.scans_replayed);
        reg.counter(
            scope,
            "replay.scans_covered_by_wider",
            self.scans_covered_by_wider,
        );
        reg.counter(scope, "replay.scan_passes", self.scan_passes);
        reg.counter(scope, "replay.multis_admitted", self.multis_admitted);
        reg.counter(scope, "replay.multis_replayed", self.multis_replayed);
        reg.counter(
            scope,
            "replay.multis_covered_by_superset",
            self.multis_covered_by_superset,
        );
        reg.counter(scope, "replay.multi_passes", self.multi_passes);
        reg.counter(scope, "replay.deltas_applied", self.deltas_applied);
        reg.counter(scope, "replay.feed_resets", self.feed_resets);
        reg.counter(
            scope,
            "replay.fragments_invalidated",
            self.fragments_invalidated,
        );
        reg.counter(scope, "replay.freshness_attached", self.freshness_attached);
        reg.counter(scope, "replay.freshness_refused", self.freshness_refused);
        reg.counter(scope, "replay.evicted_entries", self.evicted_entries);
    }
}

/// What the cache can do for a request, given the LCE and freshness
/// floors. Produced by [`ReplayCache::assemble`].
#[derive(Clone, Debug)]
pub enum Assembly<H> {
    /// Every requested key is cached at one admitted batch: a complete
    /// bundle, the classic replay.
    Full(ProofBundle<H>),
    /// Some keys are cached at the anchor batch; `missing` must be
    /// fetched upstream **pinned at `cached.batch()`** so the final
    /// response remains one consistent snapshot cut. Mixing batches
    /// within a partition would permit torn reads the client cannot
    /// detect (the CD/LCE machinery only tracks cross-partition
    /// dependencies), so assembly never does it.
    Partial {
        cached: ProofBundle<H>,
        missing: Vec<Key>,
    },
    /// Nothing usable is cached: forward the whole request upstream.
    Miss,
}

/// Cached scan windows per batch (few per batch, matched by coverage —
/// a linear scan of a short list beats an index here).
const MAX_SCANS_PER_BATCH: usize = 32;

/// Cached multiproof bodies per batch — the coalescer upstream keeps
/// bodies few and wide, so a short list suffices here too.
const MAX_MULTIS_PER_BATCH: usize = 16;

/// Deltas retained in the feed window. The window only has to span the
/// gap between an edge's oldest *servable* snapshot and the feed head,
/// so a small multiple of `max_batches` suffices.
pub const MAX_FEED_DELTAS: usize = 64;

/// The cache an edge replay node runs on.
#[derive(Clone, Debug)]
pub struct ReplayCache<H> {
    /// Certified headers by batch, newest retained up to `max_batches`.
    commitments: BTreeMap<u64, (H, Certificate)>,
    /// Per-`(key, batch)` verified-fragment cache.
    reads: LruCache<(Key, u64), ProvenRead>,
    /// Per-`(range, batch)` scan-proof cache: batch → cached windows,
    /// oldest first. A window serves any request it *covers* (the
    /// client verifies the proven window and filters to its own range),
    /// so wide windows absorbed once keep serving narrower scans.
    scans: BTreeMap<u64, Vec<(ScanRange, ScanProof)>>,
    /// Per-batch multiproof bodies: batch → cached bodies, oldest
    /// first. A body serves any request whose keys it covers, so a wide
    /// coalesced body absorbed once keeps serving narrower reads — the
    /// multiproof analogue of covering scan windows. Bodies share their
    /// wire encoding, so replaying one is a refcount bump.
    multis: BTreeMap<u64, Vec<MultiProofBody>>,
    /// The certified-delta feed window: a *contiguous* run of verified
    /// deltas ending at the feed head, oldest first. Contiguity is the
    /// invariant everything rests on — a freshness certificate is a
    /// gap-free chain, so a delta arriving past a gap resets the
    /// window rather than splicing it.
    feed: VecDeque<CertifiedDelta<H>>,
    max_batches: usize,
    pub stats: ReplayStats,
}

impl<H: BatchCommitment + Clone> ReplayCache<H> {
    pub fn new(read_capacity: usize, max_batches: usize) -> Self {
        ReplayCache {
            commitments: BTreeMap::new(),
            reads: LruCache::new(read_capacity),
            scans: BTreeMap::new(),
            multis: BTreeMap::new(),
            feed: VecDeque::new(),
            max_batches: max_batches.max(1),
            stats: ReplayStats::default(),
        }
    }

    /// Absorb an upstream response: remember the certified header and
    /// every per-key fragment.
    pub fn admit(&mut self, bundle: &ProofBundle<H>) {
        let batch = bundle.commitment.batch();
        self.commitments
            .insert(batch.0, (bundle.commitment.clone(), bundle.cert.clone()));
        // Fragments go in before the eviction pass so that a bundle too
        // old to survive it (a late upstream response) has its
        // fragments swept with its commitment rather than stranded.
        for read in &bundle.reads {
            self.reads.insert((read.key.clone(), batch.0), read.clone());
        }
        self.evict_to_cap();
        self.stats.admitted += 1;
    }

    /// Drop the oldest commitments past `max_batches`, then sweep
    /// fragments and scan windows of evicted batches — they are
    /// unreachable (replay only scans live commitments), so keeping
    /// them would just occupy cache slots.
    fn evict_to_cap(&mut self) {
        let mut evicted_any = false;
        while self.commitments.len() > self.max_batches {
            let (&oldest, _) = self.commitments.iter().next().expect("non-empty");
            self.commitments.remove(&oldest);
            evicted_any = true;
        }
        if evicted_any {
            let before = self.reads.len() + self.scan_window_count() + self.multi_body_count();
            let commitments = &self.commitments;
            self.reads.retain(|(_, b), _| commitments.contains_key(b));
            self.scans.retain(|b, _| commitments.contains_key(b));
            self.multis.retain(|b, _| commitments.contains_key(b));
            let after = self.reads.len() + self.scan_window_count() + self.multi_body_count();
            self.stats.evicted_entries += (before - after) as u64;
        }
    }

    /// Absorb an upstream scan response: remember the certified header
    /// and the proof-carrying window. Windows already covered by a
    /// cached wider window at the same batch are skipped; a new wider
    /// window displaces the narrower ones it covers.
    pub fn admit_scan(&mut self, bundle: &ScanBundle<H>) {
        // Only complete windows are replayable: a prefix-resume answer
        // carries the proof of the whole window but rows for its fresh
        // tail only — caching it would make every later replay fail the
        // client's rows-versus-entries count check. The proof commits
        // to its row count, so the mismatch is detectable locally.
        let proven_rows: usize = bundle
            .scan
            .proof
            .occupied
            .iter()
            .map(|(_, entries)| entries.len())
            .sum();
        if bundle.scan.rows.len() != proven_rows {
            return;
        }
        let batch = bundle.commitment.batch();
        self.commitments
            .insert(batch.0, (bundle.commitment.clone(), bundle.cert.clone()));
        let windows = self.scans.entry(batch.0).or_default();
        if !windows
            .iter()
            .any(|(cached, _)| cached.covers(&bundle.scan.range))
        {
            windows.retain(|(cached, _)| !bundle.scan.range.covers(cached));
            if windows.len() >= MAX_SCANS_PER_BATCH {
                windows.remove(0);
            }
            windows.push((bundle.scan.range, bundle.scan.clone()));
        }
        self.evict_to_cap();
        self.stats.scans_admitted += 1;
    }

    /// Try to answer a scan for `range` from cache: the newest admitted
    /// batch passing the LCE and timestamp floors holding a cached
    /// window that **covers** `range`. The replayed bundle carries the
    /// cached (possibly wider) window — clients verify the proven
    /// window's completeness and filter rows down to what they asked
    /// for, so covering reuse costs bandwidth, never correctness.
    pub fn replay_scan(
        &mut self,
        range: &ScanRange,
        min_lce: Epoch,
        min_timestamp: SimTime,
    ) -> Option<ScanBundle<H>> {
        for batch in self.passing_batches(min_lce, min_timestamp) {
            let Some(windows) = self.scans.get(&batch) else {
                continue;
            };
            // Prefer the tightest covering window (least excess rows).
            let Some((cached_range, scan)) = windows
                .iter()
                .filter(|(cached, _)| cached.covers(range))
                .min_by_key(|(cached, _)| cached.width())
            else {
                continue;
            };
            self.stats.scans_replayed += 1;
            if cached_range != range {
                self.stats.scans_covered_by_wider += 1;
            }
            let (commitment, cert) = self.commitments[&batch].clone();
            return Some(ScanBundle {
                commitment,
                cert,
                scan: scan.clone(),
            });
        }
        self.stats.scan_passes += 1;
        None
    }

    /// Try to answer a scan for `range` **pinned at exactly `batch`**
    /// (a page continuation or an [`crate::SnapshotPolicy::AtBatch`]
    /// query): only a window cached at that batch that covers the
    /// request may serve — no newer batch is an acceptable substitute,
    /// because the client's verifier rejects any other batch as a
    /// snapshot-pin mismatch.
    pub fn replay_scan_at(&mut self, range: &ScanRange, batch: BatchNum) -> Option<ScanBundle<H>> {
        let covering = self.scans.get(&batch.0).and_then(|windows| {
            windows
                .iter()
                .filter(|(cached, _)| cached.covers(range))
                .min_by_key(|(cached, _)| cached.width())
                .cloned()
        });
        let Some((cached_range, scan)) = covering else {
            self.stats.scan_passes += 1;
            return None;
        };
        self.stats.scans_replayed += 1;
        if cached_range != *range {
            self.stats.scans_covered_by_wider += 1;
        }
        let (commitment, cert) = self.commitments[&batch.0].clone();
        Some(ScanBundle {
            commitment,
            cert,
            scan,
        })
    }

    /// Absorb an upstream multiproof response: remember the certified
    /// header and the body. Bodies whose key set is already covered by
    /// a cached body at the same batch are skipped; a new wider body
    /// displaces the subsets it covers — mirroring the covering-window
    /// rules of [`ReplayCache::admit_scan`]. Admission clones the body,
    /// which shares (not copies) its wire encoding.
    pub fn admit_multi(&mut self, bundle: &MultiProofBundle<H>) {
        let batch = bundle.commitment.batch();
        self.commitments
            .insert(batch.0, (bundle.commitment.clone(), bundle.cert.clone()));
        let bodies = self.multis.entry(batch.0).or_default();
        if !bodies.iter().any(|b| b.covers(&bundle.body.keys)) {
            bodies.retain(|b| !bundle.body.covers(&b.keys));
            if bodies.len() >= MAX_MULTIS_PER_BATCH {
                bodies.remove(0);
            }
            bodies.push(bundle.body.clone());
        }
        self.evict_to_cap();
        self.stats.multis_admitted += 1;
    }

    /// Try to answer a batched read for `keys` from cache: the newest
    /// admitted batch passing the LCE and timestamp floors holding a
    /// body that **covers** every requested key. The replayed bundle
    /// carries the cached (possibly superset) body — the client
    /// verifies the proven set and picks out its keys, so superset
    /// reuse costs bandwidth, never correctness. Replaying shares the
    /// body's wire buffer; no proof or encoding work happens here.
    pub fn replay_multi(
        &mut self,
        keys: &[Key],
        min_lce: Epoch,
        min_timestamp: SimTime,
    ) -> Option<MultiProofBundle<H>> {
        for batch in self.passing_batches(min_lce, min_timestamp) {
            let Some(bundle) = self.multi_at(batch, keys) else {
                continue;
            };
            return Some(bundle);
        }
        self.stats.multi_passes += 1;
        None
    }

    /// [`ReplayCache::replay_multi`] **pinned at exactly `batch`** (an
    /// [`crate::SnapshotPolicy::AtBatch`] query): no other batch is an
    /// acceptable substitute.
    pub fn replay_multi_at(
        &mut self,
        keys: &[Key],
        batch: BatchNum,
    ) -> Option<MultiProofBundle<H>> {
        let bundle = self.multi_at(batch.0, keys);
        if bundle.is_none() {
            self.stats.multi_passes += 1;
        }
        bundle
    }

    /// The tightest cached body at `batch` covering `keys`, as a full
    /// bundle; bumps the replay counters on success.
    fn multi_at(&mut self, batch: u64, keys: &[Key]) -> Option<MultiProofBundle<H>> {
        let body = self
            .multis
            .get(&batch)?
            .iter()
            .filter(|b| b.covers(keys))
            .min_by_key(|b| b.keys.len())?
            .clone();
        self.stats.multis_replayed += 1;
        if body.keys.len() != keys.len() {
            self.stats.multis_covered_by_superset += 1;
        }
        let (commitment, cert) = self.commitments[&batch].clone();
        Some(MultiProofBundle {
            commitment,
            cert,
            body,
        })
    }

    /// Cached multiproof bodies across live batches (diagnostics).
    pub fn multi_body_count(&self) -> usize {
        self.multis.values().map(|b| b.len()).sum()
    }

    /// Cached scan windows across live batches (diagnostics).
    pub fn scan_window_count(&self) -> usize {
        self.scans.values().map(|w| w.len()).sum()
    }

    /// Newest admitted batch, if any.
    pub fn latest_batch(&self) -> Option<BatchNum> {
        self.commitments.keys().next_back().map(|b| BatchNum(*b))
    }

    /// Apply a certified delta the caller has **already verified**
    /// (edge nodes run [`crate::ReadVerifier::verify_delta`] before
    /// anything reaches the cache — nothing pushed is trusted until it
    /// recomputes under a replica certificate):
    ///
    /// * head + 1 → extend the window and *push-invalidate*: cached
    ///   read fragments for the changed keys at older batches are now
    ///   provably superseded, so they are dropped instead of aging out;
    /// * at or before the head → duplicate delivery, ignored;
    /// * past a gap → the window restarts at the delta (a freshness
    ///   certificate must be gap-free, so the old run is useless).
    pub fn apply_delta(&mut self, delta: CertifiedDelta<H>) {
        let batch = delta.batch();
        if let Some(head) = self.feed_head() {
            if batch.0 <= head.0 {
                return;
            }
            if batch.0 > head.0 + 1 {
                self.feed.clear();
                self.stats.feed_resets += 1;
            }
        }
        let changed = &delta.changed;
        let before = self.reads.len();
        self.reads
            .retain(|(key, b), _| *b >= batch.0 || changed.binary_search(key).is_err());
        self.stats.fragments_invalidated += (before - self.reads.len()) as u64;
        self.feed.push_back(delta);
        while self.feed.len() > MAX_FEED_DELTAS {
            self.feed.pop_front();
        }
        self.stats.deltas_applied += 1;
    }

    /// The newest batch the feed window reaches, if any.
    pub fn feed_head(&self) -> Option<BatchNum> {
        self.feed.back().map(|d| d.batch())
    }

    /// Deltas currently held in the feed window (diagnostics).
    pub fn feed_len(&self) -> usize {
        self.feed.len()
    }

    /// The freshness certificate for a response served at `from`: the
    /// feed tail `(from, head]`, provided the window chains from the
    /// served batch without a gap and **no queried key changed inside
    /// it** — otherwise the served values are not the head values and
    /// attaching the feed would be the exact lie
    /// [`crate::ReadRejection::BadDelta`] exists to catch. `Some(vec![])`
    /// means the served batch *is* the head.
    pub fn freshness_since(
        &mut self,
        from: BatchNum,
        keys: &[Key],
    ) -> Option<Vec<CertifiedDelta<H>>> {
        let head = self.feed_head();
        if head == Some(from) {
            self.stats.freshness_attached += 1;
            return Some(Vec::new());
        }
        let Some(first) = self.feed.front().map(|d| d.batch()) else {
            self.stats.freshness_refused += 1;
            return None;
        };
        if from.0 + 1 < first.0 || head.is_none_or(|h| h.0 <= from.0) {
            self.stats.freshness_refused += 1;
            return None;
        }
        let tail: Vec<CertifiedDelta<H>> = self
            .feed
            .iter()
            .filter(|d| d.batch().0 > from.0)
            .cloned()
            .collect();
        if tail.iter().any(|d| d.touches(keys)) {
            self.stats.freshness_refused += 1;
            return None;
        }
        self.stats.freshness_attached += 1;
        Some(tail)
    }

    /// Serve as much of `keys` as the cache allows, considering only
    /// admitted batches whose LCE is at least `min_lce` and whose batch
    /// timestamp is at least `min_timestamp`:
    ///
    /// * a batch covering *every* key → [`Assembly::Full`] (the newest
    ///   such batch wins — the classic replay);
    /// * otherwise the batch covering the *most* keys (newest wins
    ///   ties) becomes the anchor → [`Assembly::Partial`] with the
    ///   covered fragments and the keys the caller must fetch upstream
    ///   **at that same batch**;
    /// * no batch covering anything → [`Assembly::Miss`].
    ///
    /// Because the floors apply to the anchor, a hot key whose
    /// fragments have aged past `min_timestamp` (or a round-2 floor the
    /// cached batches cannot reach) simply drops out of the coverage
    /// count: only the stale/missing keys are re-fetched, not the whole
    /// bundle. Round-2 fetches (`min_lce` set) are likewise satisfied
    /// from *newer* admitted batches whenever one covers the keys.
    ///
    /// The timestamp floor is what keeps an honest edge from wedging:
    /// without it, a hot key set would be replayed from the same aging
    /// batch forever, and once that batch fell out of the client's
    /// freshness window every reply would be rejected — while the cache
    /// never refreshed, because every request kept hitting. Pass
    /// [`SimTime::ZERO`] to disable the floor.
    pub fn assemble(
        &mut self,
        keys: &[Key],
        min_lce: Epoch,
        min_timestamp: SimTime,
    ) -> Assembly<H> {
        let mut best: Option<(u64, usize)> = None;
        for batch in self.passing_batches(min_lce, min_timestamp) {
            let covered = self.coverage_at(batch, keys);
            if covered == keys.len() {
                self.stats.replayed += 1;
                return Assembly::Full(self.bundle_at(batch, keys));
            }
            // Scanning newest-first, so strict `>` keeps the newest
            // batch among equal coverage.
            if covered > 0 && best.is_none_or(|(_, c)| covered > c) {
                best = Some((batch, covered));
            }
        }
        match best {
            Some((anchor, _)) => {
                let covered: Vec<Key> = keys
                    .iter()
                    .filter(|k| self.reads.contains(&((*k).clone(), anchor)))
                    .cloned()
                    .collect();
                let missing: Vec<Key> = keys
                    .iter()
                    .filter(|k| !self.reads.contains(&((*k).clone(), anchor)))
                    .cloned()
                    .collect();
                self.stats.partial += 1;
                Assembly::Partial {
                    cached: self.bundle_at(anchor, &covered),
                    missing,
                }
            }
            None => {
                self.stats.passes += 1;
                Assembly::Miss
            }
        }
    }

    /// Admitted batches passing the LCE and timestamp floors, newest
    /// first. Both LCE and leader timestamps are monotone over batches,
    /// so the scan stops at the first batch below either floor —
    /// nothing older can satisfy them.
    fn passing_batches(&self, min_lce: Epoch, min_timestamp: SimTime) -> Vec<u64> {
        self.commitments
            .iter()
            .rev()
            .take_while(|(_, (c, _))| c.lce() >= min_lce && c.timestamp() >= min_timestamp)
            .map(|(b, _)| *b)
            .collect()
    }

    /// How many of `keys` have a cached fragment at `batch`.
    fn coverage_at(&self, batch: u64, keys: &[Key]) -> usize {
        keys.iter()
            .filter(|k| self.reads.contains(&((*k).clone(), batch)))
            .count()
    }

    /// Materialise a bundle for `keys` at `batch`; every fragment must
    /// be cached (callers check coverage first).
    fn bundle_at(&mut self, batch: u64, keys: &[Key]) -> ProofBundle<H> {
        let (commitment, cert) = self.commitments[&batch].clone();
        let reads: Vec<ProvenRead> = keys
            .iter()
            .map(|k| {
                self.reads
                    .get(&(k.clone(), batch))
                    .expect("coverage checked by caller")
                    .clone()
            })
            .collect();
        self.stats.fragments_replayed += reads.len() as u64;
        ProofBundle {
            commitment,
            cert,
            reads,
        }
    }

    /// Fragment-cache counters (hits count replayed fragments).
    pub fn read_stats(&self) -> CacheStats {
        self.reads.stats
    }

    /// Per-key fragments currently cached (only fragments of live
    /// commitments are retained).
    pub fn fragment_count(&self) -> usize {
        self.reads.len()
    }
}
