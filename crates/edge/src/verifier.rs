//! The client-side (trusted) checker for proof-carrying reads.
//!
//! This is the entire trust boundary of the edge read path: a response
//! is accepted only if every link of the chain holds —
//!
//! 1. the commitment names the partition the client asked (a response
//!    for the wrong partition proves nothing);
//! 2. the `f+1` certificate covers the digest recomputed *from the
//!    commitment itself* (so at least one honest replica vouches for
//!    the batch; a forged root would need a forged certificate);
//! 3. the batch timestamp is inside the freshness window (§4.4.2 — an
//!    edge node cannot serve arbitrarily stale snapshots);
//! 4. the snapshot's LCE reaches the requested floor (round two of
//!    Algorithm 2 — an edge node cannot silently downgrade a
//!    dependency fetch);
//! 5. every requested key carries a Merkle (non-)inclusion proof that
//!    verifies against the certified root, and present values hash to
//!    the proven value digest.
//!
//! Anything else is a [`ReadRejection`], which callers count as
//! evidence of a byzantine server and answer by re-asking a different
//! node.
//!
//! Every check reports what it did in a [`VerifyReceipt`] (signatures
//! checked, signatures reused, Merkle leaves hashed), on acceptance and
//! on rejection alike. Callers charge simulated verification cost from
//! the receipt alone, so the cost model can never drift from the work.

use std::collections::HashMap;

use transedge_common::{BatchNum, ClusterId, Epoch, Key, SimDuration, SimTime, Value};
use transedge_consensus::Certificate;
use transedge_crypto::merkle::{value_digest, verify_proof, BucketEntry, Verified};
use transedge_crypto::{
    sha256, verify_multi_proof, verify_range_proof, Digest, KeyStore, ScanRange,
};

use crate::query::{PageToken, QueryAnswer, QueryShape, ReadQuery, ReadResponse};
use crate::response::{
    changed_keys_digest, BatchCommitment, CertifiedDelta, MultiProofBundle, ProofBundle,
    ProvenRead, ScanBundle,
};

/// Verification parameters; must match the deployment's node
/// configuration.
#[derive(Clone, Copy, Debug)]
pub struct VerifyParams {
    /// Merkle tree depth (2^depth buckets) proofs are checked against.
    pub tree_depth: u32,
    /// §4.4.2 freshness window on batch timestamps.
    pub freshness_window: SimDuration,
    /// Signatures a certificate needs (`f+1`).
    pub quorum: usize,
}

/// Why a response was rejected. Every variant is an observable lie an
/// untrusted edge node could try.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadRejection {
    /// Response names a different partition than requested.
    WrongCluster { expected: ClusterId, got: ClusterId },
    /// Certificate missing, mismatched with the commitment, or not
    /// carrying a quorum of valid replica signatures.
    BadCertificate,
    /// Batch timestamp outside the freshness window.
    StaleTimestamp,
    /// Snapshot does not reach the requested dependency floor (a
    /// round-two response below `min_lce` — the "stale root" attack).
    StaleSnapshot { required: Epoch, lce: Epoch },
    /// A requested key has no answer in the response.
    MissingKey(Key),
    /// A proof does not verify against the certified root.
    BadProof(Key),
    /// Proof shows the key present, but the value does not hash to the
    /// proven digest (or is missing).
    ValueMismatch(Key),
    /// Proof shows the key absent, but a value was attached anyway.
    PhantomValue(Key),
    /// Assembled response carried no sections at all.
    EmptyAssembly,
    /// Sections of an assembled response disagree on the snapshot
    /// batch. Accepting mixed cuts within one partition would let an
    /// untrusted edge serve torn reads (key A from an old batch, key B
    /// from a new one) that no other check can catch, so the verifier
    /// requires every section to pin the same batch.
    TornAssembly { anchor: BatchNum, got: BatchNum },
    /// A key was answered by more than one section of an assembled
    /// response.
    DuplicateKey(Key),
    /// The proven scan window does not cover the requested range — a
    /// *boundary truncation*: shrinking the proven window is how a
    /// server would hide rows at the edges of a scan while every
    /// surviving row still verified.
    ScanRangeNotCovered {
        requested: ScanRange,
        proven: ScanRange,
    },
    /// The scan's completeness proof does not verify against the
    /// certified root (malformed, tampered, or spliced from a different
    /// batch's tree — the torn-scan attack).
    BadRangeProof,
    /// The row list does not match the proven window's committed
    /// content: the proof commits to `proven` entries but `returned`
    /// rows came back. Fewer rows than entries is the *omission*
    /// attack a point proof can never catch.
    IncompleteScan { proven: usize, returned: usize },
    /// A returned row does not hash to the committed entry at its
    /// position in the window (wrong value, out of tree order, or a
    /// duplicated/foreign row).
    ScanRowMismatch(Key),
    /// The response payload does not match the query's shape (a scan
    /// answered with point sections or vice versa).
    ShapeMismatch,
    /// The query pinned an exact snapshot (an [`crate::SnapshotPolicy::AtBatch`]
    /// policy or a [`crate::PageToken`]) and the response was served at
    /// a different batch — the page-splice attack: mixing pages of one
    /// scan across batches would produce a row set no single snapshot
    /// ever held.
    SnapshotPinMismatch { pinned: BatchNum, got: BatchNum },
    /// A page token's resume bound lies outside the query's range
    /// (moved backwards to or before the first window, or past the
    /// end) — a tampered or replayed token.
    PageOutOfRange { resume: u64, range: ScanRange },
    /// A prefix-resume response proved (against the new snapshot's
    /// certified root) that the held prefix **changed** between the old
    /// and new batches. **Not a byzantine signal** — committed data
    /// legitimately moved under the scan; the caller restarts the
    /// partition's pagination from page one and must not demote the
    /// server. The only `ReadRejection` that names honest behaviour.
    PrefixDiverged,
    /// A requested key is not in a multiproof response's proven key
    /// set — the multiproof analogue of [`ReadRejection::MissingKey`]:
    /// a server cannot silently drop one key of a batched read, because
    /// the proven set is checked against the request before anything
    /// else.
    MultiProofKeyMissing(Key),
    /// A multiproof body is malformed or its joint proof does not
    /// verify against the certified root: unsorted/duplicated proven
    /// keys, a value slot count that disagrees with the key count, a
    /// dropped or substituted sibling, a spliced bucket — every
    /// single-element mutation of the body lands here.
    BadMultiProof,
    /// A certified delta's changed key set does not hash to the
    /// commitment's certified delta digest (a key added, dropped, or
    /// reordered), or a freshness feed's deltas touch a queried key —
    /// contradicting the response's claim that the served values are
    /// current through the feed head. Either way, a provable lie about
    /// what changed.
    BadDelta,
    /// A freshness feed is not a contiguous batch chain from the served
    /// snapshot: a gap hides the deltas of the skipped batches (where a
    /// queried key may have changed), a backward or repeated batch is a
    /// replayed delta.
    FeedSpliced { expected: BatchNum, got: BatchNum },
}

/// The work one verification did, counted by the checks themselves as
/// they run — on acceptance and on rejection alike, so a rejected
/// response reports exactly the work spent before the failing check.
/// Callers charge simulated CPU from it; nothing else re-describes the
/// verifier's work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyReceipt {
    /// Certificate signatures checked (each distinct signer once).
    pub sig_checks: u64,
    /// Signatures *not* re-checked because an earlier section of the
    /// same response carried a content-identical commitment (the
    /// partial-assembly fast path).
    pub sig_checks_reused: u64,
    /// Merkle leaves authenticated against a certified root: one per
    /// point-proof key, per multiproof key, per bucket of a proven scan
    /// window, and one per delta's changed-set digest.
    pub leaf_hashes: u64,
}

impl std::ops::AddAssign for VerifyReceipt {
    fn add_assign(&mut self, other: VerifyReceipt) {
        self.sig_checks += other.sig_checks;
        self.sig_checks_reused += other.sig_checks_reused;
        self.leaf_hashes += other.leaf_hashes;
    }
}

/// A response that passed [`ReadVerifier::verify_query`], with the
/// work the verification did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Accepted {
    pub answer: QueryAnswer,
    pub receipt: VerifyReceipt,
}

/// A response (or delta) that failed verification, with the work spent
/// before the failing check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rejected {
    pub rejection: ReadRejection,
    pub receipt: VerifyReceipt,
}

/// The verifier. Stateless; cheap to copy into clients.
///
/// Three public entry points: [`ReadVerifier::verify_query`] for every
/// read response (network replies and objects read back from disk
/// alike), [`ReadVerifier::verify_query_resuming`] for scan restarts
/// over a held prefix, and [`ReadVerifier::verify_delta`] for pushed
/// feed deltas. Every one reports a [`VerifyReceipt`].
#[derive(Clone, Copy, Debug)]
pub struct ReadVerifier {
    pub params: VerifyParams,
}

impl ReadVerifier {
    pub fn new(params: VerifyParams) -> Self {
        ReadVerifier { params }
    }

    /// The single verifier entry point of the unified read protocol:
    /// check a [`ReadResponse`] against the [`ReadQuery`] (one
    /// per-partition sub-query) it answers, dispatching to the
    /// point/assembled/multiproof/scan proof chains and enforcing the
    /// query's snapshot policy and page pin on top:
    ///
    /// * shape: the payload must match the query's shape
    ///   ([`ReadRejection::ShapeMismatch`]);
    /// * page token: the resume bound must lie inside the query's range
    ///   past its first window ([`ReadRejection::PageOutOfRange`] — a
    ///   tampered or replayed token), and the response must be served
    ///   at exactly the token's batch
    ///   ([`ReadRejection::SnapshotPinMismatch`] — the page-splice
    ///   attack);
    /// * policy: [`crate::SnapshotPolicy::AtBatch`] pins the batch the
    ///   same way; [`crate::SnapshotPolicy::MinEpoch`] becomes the LCE
    ///   floor of the underlying chain (scans included — the round-two
    ///   semantics point reads always had);
    /// * freshness feed: an attached feed must be a contiguous chain of
    ///   certified deltas from the served batch that touches no queried
    ///   key, with a fresh head.
    ///
    /// On success returns the verified [`QueryAnswer`]; for scans it
    /// includes the [`PageToken`] for the next page, pinned to the
    /// batch this page verified at.
    pub fn verify_query<H: BatchCommitment>(
        &self,
        keys: &KeyStore,
        expected_cluster: ClusterId,
        query: &ReadQuery,
        response: &ReadResponse<H>,
        now: SimTime,
    ) -> Result<Accepted, Rejected> {
        self.verify_query_resuming(keys, expected_cluster, query, response, &[], now)
    }

    /// [`ReadVerifier::verify_query`] for callers holding a verified
    /// prefix: when the query carries a [`crate::PrefixResume`],
    /// `held_prefix` must be the rows (in tree order) the caller
    /// verified for buckets `[range.first, through]` at the *old*
    /// snapshot. The response's completeness proof covers the whole
    /// prefix-plus-page window at the new snapshot, but carries rows
    /// only past the prefix; the held rows are matched against the
    /// prefix's proof entries instead. Matching carries the prefix over
    /// to the new snapshot; divergence (the data changed between
    /// batches — honest behaviour) is
    /// [`ReadRejection::PrefixDiverged`]; anything else is the usual
    /// byzantine evidence. On success returns only the *fresh* rows —
    /// the caller already holds the prefix.
    pub fn verify_query_resuming<H: BatchCommitment>(
        &self,
        keys: &KeyStore,
        expected_cluster: ClusterId,
        query: &ReadQuery,
        response: &ReadResponse<H>,
        held_prefix: &[(Key, Value)],
        now: SimTime,
    ) -> Result<Accepted, Rejected> {
        let mut receipt = VerifyReceipt::default();
        match self.check_query(
            keys,
            expected_cluster,
            query,
            response,
            held_prefix,
            now,
            &mut receipt,
        ) {
            Ok(answer) => Ok(Accepted { answer, receipt }),
            Err(rejection) => Err(Rejected { rejection, receipt }),
        }
    }

    /// Verify one [`CertifiedDelta`]: the commitment names the expected
    /// partition, the `f+1` certificate covers its recomputed digest,
    /// and the carried changed-key set is canonical (sorted, unique)
    /// and hashes to the commitment's certified
    /// [`BatchCommitment::delta_digest`]. Deliberately *no* freshness
    /// check — a delta is a historical fact, and time-dependent checks
    /// belong to the feed head of a response so they can never mask a
    /// cryptographic rejection.
    pub fn verify_delta<H: BatchCommitment>(
        &self,
        keys: &KeyStore,
        expected_cluster: ClusterId,
        delta: &CertifiedDelta<H>,
    ) -> Result<VerifyReceipt, Rejected> {
        let mut receipt = VerifyReceipt::default();
        match self.check_delta(keys, expected_cluster, delta, &mut receipt) {
            Ok(()) => Ok(receipt),
            Err(rejection) => Err(Rejected { rejection, receipt }),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn check_query<H: BatchCommitment>(
        &self,
        keys: &KeyStore,
        expected_cluster: ClusterId,
        query: &ReadQuery,
        response: &ReadResponse<H>,
        held_prefix: &[(Key, Value)],
        now: SimTime,
        receipt: &mut VerifyReceipt,
    ) -> Result<QueryAnswer, ReadRejection> {
        let min_lce = query.min_lce();
        match (&query.shape, response) {
            (QueryShape::Point { keys: expected }, ReadResponse::Point { sections, fresh }) => {
                let Some(first) = sections.first() else {
                    return Err(ReadRejection::EmptyAssembly);
                };
                let check_now = self.check_feed(
                    keys,
                    expected_cluster,
                    &first.commitment,
                    expected,
                    fresh.as_deref(),
                    now,
                    receipt,
                )?;
                let values = self.verify_assembled(
                    keys,
                    expected_cluster,
                    sections,
                    expected,
                    min_lce,
                    check_now,
                    receipt,
                )?;
                check_pin(query, first.batch())?;
                Ok(QueryAnswer::Values(values))
            }
            (QueryShape::Point { keys: expected }, ReadResponse::Multi { bundle, fresh }) => {
                let check_now = self.check_feed(
                    keys,
                    expected_cluster,
                    &bundle.commitment,
                    expected,
                    fresh.as_deref(),
                    now,
                    receipt,
                )?;
                let values = self.verify_multi(
                    keys,
                    expected_cluster,
                    bundle,
                    expected,
                    min_lce,
                    check_now,
                    receipt,
                )?;
                check_pin(query, bundle.batch())?;
                Ok(QueryAnswer::Values(values))
            }
            (QueryShape::Scan { range, .. }, ReadResponse::Scan { bundle }) => {
                if let Some(through) = query.fresh_rows_from() {
                    return self.verify_prefix_resume(
                        keys,
                        expected_cluster,
                        query,
                        bundle,
                        *range,
                        through,
                        held_prefix,
                        now,
                        receipt,
                    );
                }
                if let Some(PageToken { resume, .. }) = query.page {
                    // The first page starts at `range.first` with no
                    // token, so a legitimate token always resumes
                    // strictly inside the range: anything at or before
                    // the start is a token moved backwards (replaying
                    // already-scanned buckets), anything past the end a
                    // fabricated continuation.
                    if resume <= range.first || resume > range.last {
                        return Err(ReadRejection::PageOutOfRange {
                            resume,
                            range: *range,
                        });
                    }
                }
                let Some(window) = query.scan_window() else {
                    return Err(ReadRejection::PageOutOfRange {
                        resume: query.page.as_ref().map_or(range.first, |t| t.resume),
                        range: *range,
                    });
                };
                check_pin(query, bundle.batch())?;
                let rows = self.verify_scan(
                    keys,
                    expected_cluster,
                    bundle,
                    &window,
                    min_lce,
                    now,
                    receipt,
                )?;
                Ok(QueryAnswer::Rows {
                    rows,
                    next: next_page(*range, window, bundle.batch()),
                })
            }
            _ => Err(ReadRejection::ShapeMismatch),
        }
    }

    /// Step 2 of every chain: `cert` names the expected partition and
    /// `slot`, covers `digest`, and carries `f+1` valid replica
    /// signatures. Signatures are checked (and counted) only once the
    /// cheap fields match.
    fn check_cert(
        &self,
        keys: &KeyStore,
        expected_cluster: ClusterId,
        slot: BatchNum,
        digest: Digest,
        cert: &Certificate,
        receipt: &mut VerifyReceipt,
    ) -> Result<(), ReadRejection> {
        if cert.cluster != expected_cluster || cert.slot != slot || cert.digest != digest {
            return Err(ReadRejection::BadCertificate);
        }
        let (checked, verdict) = cert.verify_counting(keys, self.params.quorum);
        receipt.sig_checks += checked;
        verdict.map_err(|_| ReadRejection::BadCertificate)
    }

    /// Steps 1–4 of every proof chain: the commitment names the
    /// expected partition, its recomputed digest is covered by an `f+1`
    /// certificate, its timestamp is inside the freshness window (both
    /// skew directions), and its LCE reaches the dependency floor.
    /// Shared by the point, multiproof, and scan chains.
    #[allow(clippy::too_many_arguments)]
    fn check_commitment<H: BatchCommitment>(
        &self,
        keys: &KeyStore,
        expected_cluster: ClusterId,
        commitment: &H,
        cert: &Certificate,
        min_lce: Epoch,
        now: SimTime,
        receipt: &mut VerifyReceipt,
    ) -> Result<(), ReadRejection> {
        // 1. Right partition.
        if commitment.cluster() != expected_cluster {
            return Err(ReadRejection::WrongCluster {
                expected: expected_cluster,
                got: commitment.cluster(),
            });
        }
        // 2. Certificate chains the commitment to f+1 replicas.
        self.check_cert(
            keys,
            expected_cluster,
            commitment.batch(),
            commitment.certified_digest(),
            cert,
            receipt,
        )?;
        // 3. Freshness, in either direction of clock skew.
        self.check_freshness(commitment.timestamp(), now)?;
        // 4. Dependency floor (round two).
        if commitment.lce() < min_lce {
            return Err(ReadRejection::StaleSnapshot {
                required: min_lce,
                lce: commitment.lce(),
            });
        }
        Ok(())
    }

    /// The freshness window, in either direction of clock skew.
    fn check_freshness(&self, ts: SimTime, now: SimTime) -> Result<(), ReadRejection> {
        let skew = now.saturating_since(ts).max(ts.saturating_since(now));
        if skew > self.params.freshness_window {
            return Err(ReadRejection::StaleTimestamp);
        }
        Ok(())
    }

    /// See [`ReadVerifier::verify_delta`].
    fn check_delta<H: BatchCommitment>(
        &self,
        keys: &KeyStore,
        expected_cluster: ClusterId,
        delta: &CertifiedDelta<H>,
        receipt: &mut VerifyReceipt,
    ) -> Result<(), ReadRejection> {
        if delta.commitment.cluster() != expected_cluster {
            return Err(ReadRejection::WrongCluster {
                expected: expected_cluster,
                got: delta.commitment.cluster(),
            });
        }
        self.check_cert(
            keys,
            expected_cluster,
            delta.commitment.batch(),
            delta.commitment.certified_digest(),
            &delta.cert,
            receipt,
        )?;
        // The changed set must be canonical and recompute to the digest
        // consensus signed: a relaying edge cannot add, drop, or
        // reorder one key without landing here.
        if !delta.changed.windows(2).all(|w| w[0] < w[1]) {
            return Err(ReadRejection::BadDelta);
        }
        receipt.leaf_hashes += 1;
        if changed_keys_digest(&delta.changed) != delta.commitment.delta_digest() {
            return Err(ReadRejection::BadDelta);
        }
        Ok(())
    }

    /// Verify the freshness feed (if any) attached to a point/multi
    /// response served at `served`: a contiguous chain of certified
    /// deltas from the served batch to the claimed feed head, none of
    /// which touches a queried key. A verified feed proves the served
    /// values are the values at the head — the subscription-tier claim
    /// that lets a warm client skip the round-2 `MinEpoch` fetch.
    /// Checks, in order (cryptographic before time-dependent, so
    /// staleness can never mask a lie):
    ///
    /// 1. contiguity: `feed[0]` is `served + 1` and each delta advances
    ///    by exactly one batch ([`ReadRejection::FeedSpliced`] — a gap
    ///    hides changes, a repeat is a replay);
    /// 2. each delta verifies per [`ReadVerifier::verify_delta`]
    ///    (certificate chain + changed-set digest);
    /// 3. no delta's changed set touches `queried`
    ///    ([`ReadRejection::BadDelta`] — the feed itself certifies the
    ///    served values are *not* current, contradicting the claim);
    /// 4. the head's timestamp (the served commitment's own, for an
    ///    empty feed) is inside the freshness window
    ///    ([`ReadRejection::StaleTimestamp`]).
    ///
    /// Returns the clock the served commitment's own chain is checked
    /// at: `now` without a feed; with a verified feed the served
    /// batch's age is no longer a staleness signal, so its own
    /// timestamp.
    #[allow(clippy::too_many_arguments)]
    fn check_feed<H: BatchCommitment>(
        &self,
        keys: &KeyStore,
        expected_cluster: ClusterId,
        served: &H,
        queried: &[Key],
        feed: Option<&[CertifiedDelta<H>]>,
        now: SimTime,
        receipt: &mut VerifyReceipt,
    ) -> Result<SimTime, ReadRejection> {
        let Some(feed) = feed else {
            return Ok(now);
        };
        let mut expected = BatchNum(served.batch().0 + 1);
        for delta in feed {
            let got = delta.batch();
            if got != expected {
                return Err(ReadRejection::FeedSpliced { expected, got });
            }
            self.check_delta(keys, expected_cluster, delta, receipt)?;
            if delta.touches(queried) {
                return Err(ReadRejection::BadDelta);
            }
            expected = BatchNum(got.0 + 1);
        }
        let head_ts = feed
            .last()
            .map_or(served.timestamp(), |d| d.commitment.timestamp());
        self.check_freshness(head_ts, now)?;
        Ok(served.timestamp())
    }

    /// Verify a batched multiproof response end to end: the commitment
    /// chain (steps 1–4), then
    ///
    /// 5. every requested key is in the proven key set (a cached
    ///    superset is fine; a dropped key is
    ///    [`ReadRejection::MultiProofKeyMissing`]);
    /// 6. the body is well-formed (sorted unique keys, one value slot
    ///    per key) and its **one** multiproof verifies against the
    ///    certified root, authenticating every proven key in a single
    ///    root recomputation;
    /// 7. every carried value — requested or not — hashes to its proven
    ///    digest (`Some` ↔ proven present, `None` ↔ proven absent), so
    ///    a tampered slot anywhere in a replayed superset is caught.
    ///
    /// On success returns the verified `(key, value)` pairs in
    /// `expected_keys` order.
    #[allow(clippy::too_many_arguments)]
    fn verify_multi<H: BatchCommitment>(
        &self,
        keys: &KeyStore,
        expected_cluster: ClusterId,
        bundle: &MultiProofBundle<H>,
        expected_keys: &[Key],
        min_lce: Epoch,
        now: SimTime,
        receipt: &mut VerifyReceipt,
    ) -> Result<Vec<(Key, Option<Value>)>, ReadRejection> {
        self.check_commitment(
            keys,
            expected_cluster,
            &bundle.commitment,
            &bundle.cert,
            min_lce,
            now,
            receipt,
        )?;
        let body = &bundle.body;
        // 5. Proven set covers the request. Checked before the proof:
        // a dropped requested key must be reported as the omission it
        // is, not as a generic malformed proof.
        if !body.keys.windows(2).all(|w| w[0] < w[1]) {
            return Err(ReadRejection::BadMultiProof);
        }
        for key in expected_keys {
            if body.keys.binary_search(key).is_err() {
                return Err(ReadRejection::MultiProofKeyMissing(key.clone()));
            }
        }
        // 6. One joint proof for the whole proven set.
        if body.values.len() != body.keys.len() {
            return Err(ReadRejection::BadMultiProof);
        }
        receipt.leaf_hashes += body.keys.len() as u64;
        let verdicts = verify_multi_proof(
            bundle.commitment.merkle_root(),
            self.params.tree_depth,
            &body.keys,
            &body.proof,
        )
        .map_err(|_| ReadRejection::BadMultiProof)?;
        // 7. Every value slot agrees with its proven verdict.
        for ((key, value), verdict) in body.keys.iter().zip(&body.values).zip(&verdicts) {
            match (verdict, value) {
                (Verified::Present(digest), Some(v)) if value_digest(v) == *digest => {}
                (Verified::Present(_), _) => return Err(ReadRejection::ValueMismatch(key.clone())),
                (Verified::Absent, None) => {}
                (Verified::Absent, Some(_)) => {
                    return Err(ReadRejection::PhantomValue(key.clone()))
                }
            }
        }
        Ok(expected_keys
            .iter()
            .map(|key| {
                let i = body.keys.binary_search(key).expect("checked in step 5");
                (key.clone(), body.values[i].clone())
            })
            .collect())
    }

    /// Step 5 of the point chain: every key in `expected_keys` answered
    /// with a Merkle (non-)inclusion proof verifying against
    /// `commitment`'s root, present values hashing to the proven
    /// digests. Only sound once the commitment itself has been chained
    /// to a certificate (steps 1–4).
    fn verify_reads<H: BatchCommitment>(
        &self,
        commitment: &H,
        expected_keys: &[Key],
        reads: &[ProvenRead],
        receipt: &mut VerifyReceipt,
    ) -> Result<Vec<(Key, Option<Value>)>, ReadRejection> {
        let root = commitment.merkle_root();
        let mut out = Vec::with_capacity(expected_keys.len());
        for key in expected_keys {
            let Some(read) = reads.iter().find(|r| &r.key == key) else {
                return Err(ReadRejection::MissingKey(key.clone()));
            };
            receipt.leaf_hashes += 1;
            match verify_proof(root, self.params.tree_depth, key, &read.proof) {
                Ok(Verified::Present(proven_digest)) => match &read.value {
                    Some(value) if value_digest(value) == proven_digest => {
                        out.push((key.clone(), Some(value.clone())));
                    }
                    _ => return Err(ReadRejection::ValueMismatch(key.clone())),
                },
                Ok(Verified::Absent) => {
                    if read.value.is_some() {
                        return Err(ReadRejection::PhantomValue(key.clone()));
                    }
                    out.push((key.clone(), None));
                }
                Err(_) => return Err(ReadRejection::BadProof(key.clone())),
            }
        }
        Ok(out)
    }

    /// Verify a proof-carrying range scan end to end. On top of the
    /// point-read chain (partition → certificate → freshness → LCE
    /// floor), a scan must prove **completeness**: that the returned
    /// rows are *all* the committed rows of the requested window — an
    /// untrusted edge must not be able to silently omit one. The checks:
    ///
    /// 1–4. the commitment chain (cluster, `f+1` certificate over the
    ///      recomputed digest, freshness window, dependency floor);
    /// 5. the *proven* window covers the *requested* range (a cached
    ///    wider window is fine — anything narrower is a boundary
    ///    truncation and rejected);
    /// 6. the Merkle range proof verifies against the certified root,
    ///    yielding the committed entry list of the proven window;
    /// 7. the returned rows match that entry list **exactly** — same
    ///    count, each row hashing to its entry, in tree order. Any
    ///    omitted, injected, reordered, or tampered row breaks this.
    ///
    /// On success returns the verified rows *restricted to the
    /// requested range* (rows of a wider proven window are verified,
    /// then filtered).
    #[allow(clippy::too_many_arguments)]
    fn verify_scan<H: BatchCommitment>(
        &self,
        keys: &KeyStore,
        expected_cluster: ClusterId,
        bundle: &ScanBundle<H>,
        requested: &ScanRange,
        min_lce: Epoch,
        now: SimTime,
        receipt: &mut VerifyReceipt,
    ) -> Result<Vec<(Key, Value)>, ReadRejection> {
        let entries = self.verify_scan_chain(
            keys,
            expected_cluster,
            bundle,
            requested,
            min_lce,
            now,
            receipt,
        )?;
        // 7. Rows ↔ entries, exactly. The entry list is the complete
        // committed content of the window (step 6), so matching it
        // one-to-one in order rules out omission, injection, and
        // duplication in a single pass.
        let rows = &bundle.scan.rows;
        if rows.len() != entries.len() {
            return Err(ReadRejection::IncompleteScan {
                proven: entries.len(),
                returned: rows.len(),
            });
        }
        let mut verified = Vec::with_capacity(rows.len());
        for ((key, value), entry) in rows.iter().zip(&entries) {
            if sha256(key.as_bytes()) != entry.key_hash || value_digest(value) != entry.value_hash {
                return Err(ReadRejection::ScanRowMismatch(key.clone()));
            }
            if requested.contains_bucket(ScanRange::bucket_of_hash(
                &entry.key_hash,
                self.params.tree_depth,
            )) {
                verified.push((key.clone(), value.clone()));
            }
        }
        Ok(verified)
    }

    /// Steps 1–6 of the scan chain (partition → certificate →
    /// freshness → LCE floor → coverage → completeness proof), shared
    /// by [`ReadVerifier::verify_scan`] and the prefix-resume path. On
    /// success returns the **complete** committed entry list of the
    /// *proven* window (which may be wider than `requested`), in tree
    /// order; only then is matching rows against it meaningful.
    #[allow(clippy::too_many_arguments)]
    fn verify_scan_chain<H: BatchCommitment>(
        &self,
        keys: &KeyStore,
        expected_cluster: ClusterId,
        bundle: &ScanBundle<H>,
        requested: &ScanRange,
        min_lce: Epoch,
        now: SimTime,
        receipt: &mut VerifyReceipt,
    ) -> Result<Vec<BucketEntry>, ReadRejection> {
        let commitment = &bundle.commitment;
        // 1–4. Commitment chained to a certificate, fresh, above floor.
        self.check_commitment(
            keys,
            expected_cluster,
            commitment,
            &bundle.cert,
            min_lce,
            now,
            receipt,
        )?;
        // 5. Coverage: the proven window must contain the request.
        let proven_range = bundle.scan.range;
        if !proven_range.covers(requested) {
            return Err(ReadRejection::ScanRangeNotCovered {
                requested: *requested,
                proven: proven_range,
            });
        }
        // 6. Completeness proof against the certified root: one leaf
        // per bucket of the window, once its shape is admissible.
        let depth = self.params.tree_depth;
        if proven_range.is_valid_for_depth(depth) {
            receipt.leaf_hashes += proven_range.width();
        }
        verify_range_proof(
            commitment.merkle_root(),
            depth,
            &proven_range,
            &bundle.scan.proof,
        )
        .map_err(|_| ReadRejection::BadRangeProof)
    }

    /// Verify a partially-assembled response: a sequence of sections
    /// (cached fragments, upstream fill), each a self-contained
    /// [`ProofBundle`] whose per-key proofs are checked against *its
    /// own* certified root. On top of the per-section chain
    /// (partition → certificate → freshness → LCE floor → proofs),
    /// the assembly as a whole must
    ///
    /// * pin every section to the same batch (anything else would
    ///   permit torn reads within the partition — [`ReadRejection::TornAssembly`]);
    /// * answer every key in `expected_keys` exactly once across
    ///   sections (extra unrequested keys are verified but dropped).
    #[allow(clippy::too_many_arguments)]
    fn verify_assembled<H: BatchCommitment>(
        &self,
        keys: &KeyStore,
        expected_cluster: ClusterId,
        sections: &[ProofBundle<H>],
        expected_keys: &[Key],
        min_lce: Epoch,
        now: SimTime,
        receipt: &mut VerifyReceipt,
    ) -> Result<Vec<(Key, Option<Value>)>, ReadRejection> {
        let Some(first) = sections.first() else {
            return Err(ReadRejection::EmptyAssembly);
        };
        let anchor = first.commitment.batch();
        let anchor_digest = first.commitment.certified_digest();
        let mut by_key: HashMap<Key, Option<Value>> = HashMap::new();
        for (i, section) in sections.iter().enumerate() {
            if section.commitment.batch() != anchor {
                return Err(ReadRejection::TornAssembly {
                    anchor,
                    got: section.commitment.batch(),
                });
            }
            if i > 0 && section.commitment.certified_digest() == anchor_digest {
                // Content-identical commitment (the certified digest
                // covers every field, root included): the anchor
                // section already chained it to a certificate and
                // checked freshness and the LCE floor, so only this
                // section's per-key proofs are new work. This is the
                // honest partial-assembly fast path — one certificate
                // verification per response, not one per section.
                receipt.sig_checks_reused += section.cert.sigs.len() as u64;
            } else {
                self.check_commitment(
                    keys,
                    expected_cluster,
                    &section.commitment,
                    &section.cert,
                    min_lce,
                    now,
                    receipt,
                )?;
            }
            // Each section vouches for exactly the keys it carries.
            let section_keys: Vec<Key> = section.reads.iter().map(|r| r.key.clone()).collect();
            for (key, value) in
                self.verify_reads(&section.commitment, &section_keys, &section.reads, receipt)?
            {
                if by_key.insert(key.clone(), value).is_some() {
                    return Err(ReadRejection::DuplicateKey(key));
                }
            }
        }
        expected_keys
            .iter()
            .map(|k| {
                by_key
                    .remove(k)
                    .map(|v| (k.clone(), v))
                    .ok_or_else(|| ReadRejection::MissingKey(k.clone()))
            })
            .collect()
    }

    /// The prefix-resume scan check (see
    /// [`ReadVerifier::verify_query_resuming`]): one proof over the
    /// whole prefix-plus-page window at the new snapshot; held rows
    /// match the prefix's entries, returned rows match the rest.
    #[allow(clippy::too_many_arguments)]
    fn verify_prefix_resume<H: BatchCommitment>(
        &self,
        keys: &KeyStore,
        expected_cluster: ClusterId,
        query: &ReadQuery,
        bundle: &ScanBundle<H>,
        range: ScanRange,
        through: u64,
        held_prefix: &[(Key, Value)],
        now: SimTime,
        receipt: &mut VerifyReceipt,
    ) -> Result<QueryAnswer, ReadRejection> {
        // A prefix bound outside the range is a malformed (or tampered)
        // resume marker, like a bad page token.
        if through < range.first || through > range.last {
            return Err(ReadRejection::PageOutOfRange {
                resume: through,
                range,
            });
        }
        let window = query.scan_window().ok_or(ReadRejection::PageOutOfRange {
            resume: through,
            range,
        })?;
        check_pin(query, bundle.batch())?;
        let entries = self.verify_scan_chain(
            keys,
            expected_cluster,
            bundle,
            &window,
            query.min_lce(),
            now,
            receipt,
        )?;
        // Walk the complete committed entry list of the proven window in
        // tree order, consuming from two cursors: entries inside the
        // held prefix `[range.first, through]` must match the held rows
        // (a mismatch or count difference proves the data changed —
        // divergence, not byzantine); everything else (the fresh page,
        // and any covering-window overhang outside the range) must come
        // from the response's rows, exactly as in the full scan check.
        let depth = self.params.tree_depth;
        let proven = entries.len();
        let rows = &bundle.scan.rows;
        // Count check first, like the full-scan path: the proof
        // commits to exactly the fresh-region row count, so omission
        // and row-stuffing are length errors before they are content
        // errors.
        let expected_rows = entries
            .iter()
            .filter(|e| {
                let bucket = ScanRange::bucket_of_hash(&e.key_hash, depth);
                bucket < range.first || bucket > through
            })
            .count();
        if rows.len() != expected_rows {
            return Err(ReadRejection::IncompleteScan {
                proven,
                returned: rows.len(),
            });
        }
        let mut held = held_prefix.iter();
        let mut rows_idx = 0usize;
        let mut fresh = Vec::new();
        for entry in &entries {
            let bucket = ScanRange::bucket_of_hash(&entry.key_hash, depth);
            if bucket >= range.first && bucket <= through {
                let Some((key, value)) = held.next() else {
                    return Err(ReadRejection::PrefixDiverged);
                };
                if sha256(key.as_bytes()) != entry.key_hash
                    || value_digest(value) != entry.value_hash
                {
                    return Err(ReadRejection::PrefixDiverged);
                }
            } else {
                let Some((key, value)) = rows.get(rows_idx) else {
                    return Err(ReadRejection::IncompleteScan {
                        proven,
                        returned: rows.len(),
                    });
                };
                rows_idx += 1;
                if sha256(key.as_bytes()) != entry.key_hash
                    || value_digest(value) != entry.value_hash
                {
                    return Err(ReadRejection::ScanRowMismatch(key.clone()));
                }
                if range.contains_bucket(bucket) && bucket <= window.last {
                    fresh.push((key.clone(), value.clone()));
                }
            }
        }
        if held.next().is_some() {
            // The new snapshot has fewer prefix rows than we hold.
            return Err(ReadRejection::PrefixDiverged);
        }
        if rows_idx != rows.len() {
            // Injected rows beyond the proven entries.
            return Err(ReadRejection::IncompleteScan {
                proven,
                returned: rows.len(),
            });
        }
        Ok(QueryAnswer::Rows {
            rows: fresh,
            next: next_page(range, window, bundle.batch()),
        })
    }
}

/// A query pinned to an exact snapshot (a page token or an
/// [`crate::SnapshotPolicy::AtBatch`] policy) accepts only a response
/// served at that batch.
fn check_pin(query: &ReadQuery, got: BatchNum) -> Result<(), ReadRejection> {
    match query.pinned_batch() {
        Some(pinned) if pinned != got => Err(ReadRejection::SnapshotPinMismatch { pinned, got }),
        _ => Ok(()),
    }
}

/// The token for the page after `window`, pinned to the batch this page
/// verified at; `None` once the range is exhausted.
fn next_page(range: ScanRange, window: ScanRange, batch: BatchNum) -> Option<PageToken> {
    (window.last < range.last).then_some(PageToken {
        batch,
        resume: window.last + 1,
    })
}
