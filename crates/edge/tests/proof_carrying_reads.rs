//! End-to-end tests of the edge read subsystem against a real
//! partition state: honest responses verify; every class of forgery an
//! untrusted edge node could attempt is rejected.

use transedge_common::{
    BatchNum, ClusterId, ClusterTopology, Epoch, Key, NodeId, SimDuration, SimTime, Value,
};
use transedge_consensus::messages::accept_statement;
use transedge_consensus::Certificate;
use transedge_crypto::merkle::value_digest;
use transedge_crypto::{Digest, KeyStore, MerkleProof, ScanRange, Sha256, VersionedMerkleTree};
use transedge_edge::{
    scan_snapshot, Accepted, Assembly, BatchCommitment, MultiProofBundle, ProofBundle, QueryAnswer,
    ReadPipeline, ReadQuery, ReadRejection, ReadResponse, ReadVerifier, Rejected, ReplayCache,
    ScanBundle, SnapshotPolicy, SnapshotSource, VerifyParams, VerifyReceipt,
};
use transedge_storage::VersionedStore;

const DEPTH: u32 = 8;

/// A minimal certified batch header for tests (the commitment shape
/// `transedge-core` provides in production).
#[derive(Clone, Debug)]
struct TestHeader {
    cluster: ClusterId,
    num: BatchNum,
    merkle_root: Digest,
    lce: Epoch,
    timestamp: SimTime,
}

impl BatchCommitment for TestHeader {
    fn cluster(&self) -> ClusterId {
        self.cluster
    }

    fn batch(&self) -> BatchNum {
        self.num
    }

    fn merkle_root(&self) -> &Digest {
        &self.merkle_root
    }

    fn lce(&self) -> Epoch {
        self.lce
    }

    fn timestamp(&self) -> SimTime {
        self.timestamp
    }

    fn certified_digest(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(b"test/header");
        h.update(&self.cluster.0.to_le_bytes());
        h.update(&self.num.0.to_le_bytes());
        h.update(self.merkle_root.as_bytes());
        h.update(&self.lce.0.to_le_bytes());
        h.update(&self.timestamp.0.to_le_bytes());
        h.finalize()
    }
}

/// One partition's worth of server state: store, tree, keys, and the
/// per-batch certified headers.
struct Partition {
    topo: ClusterTopology,
    keys: KeyStore,
    secrets: std::collections::HashMap<transedge_common::ReplicaId, transedge_crypto::Keypair>,
    store: VersionedStore,
    tree: VersionedMerkleTree,
    headers: Vec<TestHeader>,
    certs: Vec<Certificate>,
}

impl SnapshotSource for Partition {
    fn value_at(&self, key: &Key, batch: BatchNum) -> Option<Value> {
        self.store.read_at(key, batch).map(|v| v.value.clone())
    }

    fn prove_at(&self, key: &Key, batch: BatchNum) -> MerkleProof {
        self.tree.prove_at(key, batch.0)
    }

    fn rows_at(&self, range: &ScanRange, batch: BatchNum) -> Vec<(Key, Value)> {
        self.store
            .range_at(range.digest_bounds(DEPTH), batch)
            .map(|(k, v)| (k.clone(), v.value.clone()))
            .collect()
    }

    fn prove_range(&self, range: &ScanRange, batch: BatchNum) -> transedge_crypto::RangeProof {
        self.tree.prove_range(range, batch.0)
    }

    fn prove_multi(&self, keys: &[Key], batch: BatchNum) -> transedge_crypto::MultiProof {
        self.tree.prove_multi(keys, batch.0)
    }
}

impl Partition {
    fn new() -> Self {
        let topo = ClusterTopology::new(1, 1).unwrap();
        let (keys, secrets) = KeyStore::for_topology(&topo, &[9u8; 32]);
        Partition {
            topo,
            keys,
            secrets,
            store: VersionedStore::new(),
            tree: VersionedMerkleTree::with_depth(DEPTH),
            headers: Vec::new(),
            certs: Vec::new(),
        }
    }

    /// Commit a batch of writes and certify the resulting header.
    fn commit(&mut self, writes: &[(u32, &str)], lce: Epoch, timestamp: SimTime) {
        let num = BatchNum(self.headers.len() as u64);
        let mut updates = Vec::new();
        for (k, v) in writes {
            let key = Key::from_u32(*k);
            let value = Value::from(*v);
            self.store.write(key.clone(), value.clone(), num);
            updates.push((Key::from_u32(*k), value_digest(&value)));
        }
        let root = self
            .tree
            .apply_batch(num.0, updates.iter().map(|(k, d)| (k, *d)));
        let header = TestHeader {
            cluster: ClusterId(0),
            num,
            merkle_root: root,
            lce,
            timestamp,
        };
        let digest = header.certified_digest();
        let stmt = accept_statement(ClusterId(0), num, &digest);
        let quorum = self.topo.certificate_quorum();
        let sigs: Vec<_> = self
            .topo
            .replicas_of(ClusterId(0))
            .take(quorum)
            .map(|r| (NodeId::Replica(r), self.secrets[&r].sign(&stmt)))
            .collect();
        self.headers.push(header);
        self.certs.push(Certificate {
            cluster: ClusterId(0),
            slot: num,
            digest,
            sigs,
        });
    }

    fn bundle(
        &self,
        pipeline: &mut ReadPipeline,
        keys: &[Key],
        at: BatchNum,
    ) -> ProofBundle<TestHeader> {
        ProofBundle {
            commitment: self.headers[at.0 as usize].clone(),
            cert: self.certs[at.0 as usize].clone(),
            reads: pipeline.serve(self, keys, at),
        }
    }

    fn verifier(&self) -> ReadVerifier {
        ReadVerifier::new(VerifyParams {
            tree_depth: DEPTH,
            freshness_window: SimDuration::from_secs(30),
            quorum: self.topo.certificate_quorum(),
        })
    }

    /// Verify point `sections` as the answer to a point query for
    /// `keys` at dependency floor `min_lce`, through the verifier's one
    /// entry point.
    fn verify_sections(
        &self,
        sections: &[ProofBundle<TestHeader>],
        keys: &[Key],
        min_lce: Epoch,
        now: SimTime,
    ) -> Result<Vec<(Key, Option<Value>)>, ReadRejection> {
        let query = ReadQuery::point(keys.to_vec()).with_policy(SnapshotPolicy::MinEpoch(min_lce));
        let response = ReadResponse::Point {
            sections: sections.to_vec(),
            fresh: None,
        };
        match self
            .verifier()
            .verify_query(&self.keys, ClusterId(0), &query, &response, now)
        {
            Ok(accepted) => match accepted.answer {
                QueryAnswer::Values(values) => Ok(values),
                other => panic!("point query must yield values, got {other:?}"),
            },
            Err(rejected) => Err(rejected.rejection),
        }
    }
}

fn two_batch_partition() -> Partition {
    let mut p = Partition::new();
    p.commit(&[(1, "alpha"), (2, "beta")], Epoch::NONE, SimTime(1_000));
    p.commit(&[(1, "alpha-v2")], Epoch(0), SimTime(2_000));
    p
}

fn request_keys() -> Vec<Key> {
    vec![Key::from_u32(1), Key::from_u32(2), Key::from_u32(7)]
}

#[test]
fn honest_reads_verify_cached_and_uncached() {
    let p = two_batch_partition();
    let mut pipeline = ReadPipeline::new(1024);
    let keys = request_keys();
    // Cold (uncached) and warm (cached) bundles must both verify and
    // agree byte for byte.
    for round in 0..2 {
        let bundle = p.bundle(&mut pipeline, &keys, BatchNum(1));
        let values = p
            .verify_sections(
                std::slice::from_ref(&bundle),
                &keys,
                Epoch::NONE,
                SimTime(2_500),
            )
            .unwrap_or_else(|e| panic!("round {round} rejected: {e:?}"));
        assert_eq!(values[0], (Key::from_u32(1), Some(Value::from("alpha-v2"))));
        assert_eq!(values[1], (Key::from_u32(2), Some(Value::from("beta"))));
        assert_eq!(values[2], (Key::from_u32(7), None));
    }
    assert!(
        pipeline.stats().hits >= 3,
        "second round must hit the cache"
    );
    // Historical snapshot still serves the old value, also verified.
    let bundle0 = p.bundle(&mut pipeline, &keys, BatchNum(0));
    let values0 = p
        .verify_sections(
            std::slice::from_ref(&bundle0),
            &keys,
            Epoch::NONE,
            SimTime(1_500),
        )
        .expect("historical snapshot verifies");
    assert_eq!(values0[0].1, Some(Value::from("alpha")));
}

#[test]
fn tampered_value_is_rejected() {
    let p = two_batch_partition();
    let mut pipeline = ReadPipeline::new(1024);
    let keys = request_keys();
    let mut bundle = p.bundle(&mut pipeline, &keys, BatchNum(1));
    bundle.reads[0].value = Some(Value::from("forged"));
    let err = p
        .verify_sections(
            std::slice::from_ref(&bundle),
            &keys,
            Epoch::NONE,
            SimTime(2_500),
        )
        .unwrap_err();
    assert_eq!(err, ReadRejection::ValueMismatch(Key::from_u32(1)));
}

#[test]
fn forged_proof_is_rejected() {
    let p = two_batch_partition();
    let mut pipeline = ReadPipeline::new(1024);
    let keys = request_keys();
    let mut bundle = p.bundle(&mut pipeline, &keys, BatchNum(1));
    // Corrupt one sibling digest in the first key's proof.
    bundle.reads[0].proof.siblings[0] = Digest([0xEE; 32]);
    let err = p
        .verify_sections(
            std::slice::from_ref(&bundle),
            &keys,
            Epoch::NONE,
            SimTime(2_500),
        )
        .unwrap_err();
    assert_eq!(err, ReadRejection::BadProof(Key::from_u32(1)));
}

#[test]
fn phantom_value_on_absent_key_is_rejected() {
    let p = two_batch_partition();
    let mut pipeline = ReadPipeline::new(1024);
    let keys = request_keys();
    let mut bundle = p.bundle(&mut pipeline, &keys, BatchNum(1));
    // Key 7 is proven absent; attach a value anyway.
    bundle.reads[2].value = Some(Value::from("conjured"));
    let err = p
        .verify_sections(
            std::slice::from_ref(&bundle),
            &keys,
            Epoch::NONE,
            SimTime(2_500),
        )
        .unwrap_err();
    assert_eq!(err, ReadRejection::PhantomValue(Key::from_u32(7)));
}

#[test]
fn stale_root_is_rejected() {
    // The "stale root" attack: serve batch-0 state (old root, old
    // values) against the batch-1 commitment, or lie about the root.
    let p = two_batch_partition();
    let mut pipeline = ReadPipeline::new(1024);
    let keys = request_keys();
    // (a) Old proofs under the new certified header: proof fails.
    let mut mixed = p.bundle(&mut pipeline, &keys, BatchNum(0));
    mixed.commitment = p.headers[1].clone();
    mixed.cert = p.certs[1].clone();
    let err = p
        .verify_sections(
            std::slice::from_ref(&mixed),
            &keys,
            Epoch::NONE,
            SimTime(2_500),
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            ReadRejection::BadProof(_) | ReadRejection::ValueMismatch(_)
        ),
        "old state under new commitment must fail proof checks, got {err:?}"
    );
    // (b) Header rewritten to the old root but batch-1 certificate
    // kept: the certificate no longer covers the digest.
    let mut rerooted = p.bundle(&mut pipeline, &keys, BatchNum(1));
    rerooted.commitment.merkle_root = p.headers[0].merkle_root;
    rerooted.cert = p.certs[1].clone();
    let err = p
        .verify_sections(
            std::slice::from_ref(&rerooted),
            &keys,
            Epoch::NONE,
            SimTime(2_500),
        )
        .unwrap_err();
    assert_eq!(err, ReadRejection::BadCertificate);
    // (c) Honest old batch served against a round-2 dependency floor it
    // cannot satisfy: stale snapshot.
    let old = p.bundle(&mut pipeline, &keys, BatchNum(0));
    let err = p
        .verify_sections(std::slice::from_ref(&old), &keys, Epoch(0), SimTime(1_500))
        .unwrap_err();
    assert_eq!(
        err,
        ReadRejection::StaleSnapshot {
            required: Epoch(0),
            lce: Epoch::NONE
        }
    );
}

#[test]
fn certificate_forgeries_are_rejected() {
    let p = two_batch_partition();
    let mut pipeline = ReadPipeline::new(1024);
    let keys = request_keys();
    // Dropped below quorum.
    let mut thin = p.bundle(&mut pipeline, &keys, BatchNum(1));
    thin.cert.sigs.truncate(p.topo.certificate_quorum() - 1);
    assert_eq!(
        p.verify_sections(
            std::slice::from_ref(&thin),
            &keys,
            Epoch::NONE,
            SimTime(2_500)
        )
        .unwrap_err(),
        ReadRejection::BadCertificate
    );
    // Certificate for a different slot.
    let mut wrong_slot = p.bundle(&mut pipeline, &keys, BatchNum(1));
    wrong_slot.cert = p.certs[0].clone();
    assert_eq!(
        p.verify_sections(
            std::slice::from_ref(&wrong_slot),
            &keys,
            Epoch::NONE,
            SimTime(2_500)
        )
        .unwrap_err(),
        ReadRejection::BadCertificate
    );
    // Response for the wrong partition.
    let mut wrong_cluster = p.bundle(&mut pipeline, &keys, BatchNum(1));
    wrong_cluster.commitment.cluster = ClusterId(3);
    assert!(matches!(
        p.verify_sections(
            std::slice::from_ref(&wrong_cluster),
            &keys,
            Epoch::NONE,
            SimTime(2_500)
        )
        .unwrap_err(),
        ReadRejection::WrongCluster { .. }
    ));
}

#[test]
fn stale_timestamp_is_rejected() {
    let p = two_batch_partition();
    let mut pipeline = ReadPipeline::new(1024);
    let keys = request_keys();
    let bundle = p.bundle(&mut pipeline, &keys, BatchNum(1));
    let too_late = SimTime(2_000 + SimDuration::from_secs(31).as_micros());
    assert_eq!(
        p.verify_sections(std::slice::from_ref(&bundle), &keys, Epoch::NONE, too_late)
            .unwrap_err(),
        ReadRejection::StaleTimestamp
    );
}

#[test]
fn missing_key_is_rejected() {
    let p = two_batch_partition();
    let mut pipeline = ReadPipeline::new(1024);
    let keys = request_keys();
    let mut bundle = p.bundle(&mut pipeline, &keys, BatchNum(1));
    bundle.reads.remove(1);
    assert_eq!(
        p.verify_sections(
            std::slice::from_ref(&bundle),
            &keys,
            Epoch::NONE,
            SimTime(2_500)
        )
        .unwrap_err(),
        ReadRejection::MissingKey(Key::from_u32(2))
    );
}

#[test]
fn replay_cache_round_trips_verified_bundles() {
    let p = two_batch_partition();
    let mut pipeline = ReadPipeline::new(1024);
    let keys = request_keys();
    let mut replay: ReplayCache<TestHeader> = ReplayCache::new(1024, 8);
    // Nothing cached yet: the edge node must pass upstream.
    assert!(matches!(
        replay.assemble(&keys, Epoch::NONE, SimTime::ZERO),
        Assembly::Miss
    ));
    assert_eq!(replay.stats.passes, 1);
    // Absorb an upstream response, then replay it to a second client.
    let upstream = p.bundle(&mut pipeline, &keys, BatchNum(1));
    replay.admit(&upstream);
    let Assembly::Full(replayed) = replay.assemble(&keys, Epoch::NONE, SimTime::ZERO) else {
        panic!("cached replay");
    };
    let values = p
        .verify_sections(
            std::slice::from_ref(&replayed),
            &keys,
            Epoch::NONE,
            SimTime(2_500),
        )
        .expect("replayed bundle verifies");
    assert_eq!(values[0].1, Some(Value::from("alpha-v2")));
    assert_eq!(replay.stats.replayed, 1);
    // A dependency floor the cached batch cannot satisfy passes
    // upstream instead of serving stale state.
    assert!(matches!(
        replay.assemble(&keys, Epoch(5), SimTime::ZERO),
        Assembly::Miss
    ));
    // A subset of the cached keys replays too.
    assert!(matches!(
        replay.assemble(&keys[..1], Epoch::NONE, SimTime::ZERO),
        Assembly::Full(_)
    ));
    // Unknown keys pass upstream.
    assert!(matches!(
        replay.assemble(&[Key::from_u32(99)], Epoch::NONE, SimTime::ZERO),
        Assembly::Miss
    ));
}

/// Partial assembly: a request only partially covered by the cache is
/// split into cached fragments at an anchor batch plus the keys to
/// fetch upstream pinned at that batch; the client verifies each
/// section against its own certified root.
#[test]
fn partial_assembly_combines_cached_and_upstream_sections() {
    let p = two_batch_partition();
    let mut pipeline = ReadPipeline::new(1024);
    let mut replay: ReplayCache<TestHeader> = ReplayCache::new(1024, 8);
    // The edge has only keys 1 and 2 cached (at batch 1).
    let cached_keys = vec![Key::from_u32(1), Key::from_u32(2)];
    replay.admit(&p.bundle(&mut pipeline, &cached_keys, BatchNum(1)));
    // A 3-key request: 2 cached, 1 miss.
    let keys = request_keys();
    let Assembly::Partial { cached, missing } = replay.assemble(&keys, Epoch::NONE, SimTime::ZERO)
    else {
        panic!("2-of-3 coverage must assemble partially");
    };
    assert_eq!(cached.batch(), BatchNum(1));
    assert_eq!(cached.reads.len(), 2);
    assert_eq!(missing, vec![Key::from_u32(7)]);
    assert_eq!(replay.stats.partial, 1);
    // The upstream fill, pinned at the anchor batch.
    let fill = p.bundle(&mut pipeline, &missing, BatchNum(1));
    let sections = [cached.clone(), fill];
    let values = p
        .verify_sections(&sections, &keys, Epoch::NONE, SimTime(2_500))
        .expect("assembled response verifies end to end");
    assert_eq!(values[0], (Key::from_u32(1), Some(Value::from("alpha-v2"))));
    assert_eq!(values[1], (Key::from_u32(2), Some(Value::from("beta"))));
    assert_eq!(values[2], (Key::from_u32(7), None));
    // A tampered cached section is caught against its own root.
    let mut forged = [sections[0].clone(), sections[1].clone()];
    forged[0].reads[0].value = Some(Value::from("forged"));
    assert_eq!(
        p.verify_sections(&forged, &keys, Epoch::NONE, SimTime(2_500))
            .unwrap_err(),
        ReadRejection::ValueMismatch(Key::from_u32(1))
    );
    // Sections at different batches would permit torn reads: rejected.
    let torn_fill = p.bundle(&mut pipeline, &[Key::from_u32(7)], BatchNum(0));
    assert_eq!(
        p.verify_sections(
            &[cached.clone(), torn_fill],
            &keys,
            Epoch::NONE,
            SimTime(2_500)
        )
        .unwrap_err(),
        ReadRejection::TornAssembly {
            anchor: BatchNum(1),
            got: BatchNum(0)
        }
    );
    // A key answered twice across sections is rejected.
    let dup_fill = p.bundle(
        &mut pipeline,
        &[Key::from_u32(1), Key::from_u32(7)],
        BatchNum(1),
    );
    assert_eq!(
        p.verify_sections(&[cached, dup_fill], &keys, Epoch::NONE, SimTime(2_500))
            .unwrap_err(),
        ReadRejection::DuplicateKey(Key::from_u32(1))
    );
    // No sections at all is not a response.
    assert_eq!(
        p.verify_sections(&[], &keys, Epoch::NONE, SimTime(2_500))
            .unwrap_err(),
        ReadRejection::EmptyAssembly
    );
}

/// The staleness floor interacts with partial assembly per key: when a
/// key's only fresh-enough fragment set no longer covers the request,
/// just the stale/missing keys are refreshed upstream — not the whole
/// bundle.
#[test]
fn staleness_floor_refreshes_only_stale_keys() {
    let p = two_batch_partition();
    let mut pipeline = ReadPipeline::new(1024);
    let mut replay: ReplayCache<TestHeader> = ReplayCache::new(1024, 8);
    let k1 = Key::from_u32(1);
    let k2 = Key::from_u32(2);
    // Batch 0 (timestamp 1_000) cached both keys; batch 1 (timestamp
    // 2_000) cached only key 1.
    replay.admit(&p.bundle(&mut pipeline, &[k1.clone(), k2.clone()], BatchNum(0)));
    replay.admit(&p.bundle(&mut pipeline, std::slice::from_ref(&k1), BatchNum(1)));
    // Behind a floor both batches pass, the full batch-0 replay wins.
    match replay.assemble(&[k1.clone(), k2.clone()], Epoch::NONE, SimTime(500)) {
        Assembly::Full(bundle) => assert_eq!(bundle.batch(), BatchNum(0)),
        other => panic!("full coverage at batch 0 expected, got {other:?}"),
    }
    // Once batch 0 ages past the floor, key 2's fragments are stale:
    // the fresh batch 1 anchors, key 1 replays from cache, and ONLY
    // key 2 goes upstream — an aging fragment is a per-key refresh, not
    // a whole-bundle miss.
    match replay.assemble(&[k1.clone(), k2.clone()], Epoch::NONE, SimTime(1_500)) {
        Assembly::Partial { cached, missing } => {
            assert_eq!(cached.batch(), BatchNum(1));
            assert_eq!(cached.reads.len(), 1);
            assert_eq!(cached.reads[0].key, k1);
            assert_eq!(missing, vec![k2.clone()]);
        }
        other => panic!("stale fragments must be refreshed per key, got {other:?}"),
    }
    // Past every batch's timestamp: nothing usable, full pass.
    assert!(matches!(
        replay.assemble(&[k1, k2], Epoch::NONE, SimTime(2_500)),
        Assembly::Miss
    ));
}

/// Round-2 `min_epoch` fetches are satisfied from newer admitted
/// batches — fully when one covers the keys, partially (pinned fetch
/// for the rest) when it only covers some.
#[test]
fn round2_floor_served_from_newer_admitted_batches() {
    let p = two_batch_partition();
    let mut pipeline = ReadPipeline::new(1024);
    let keys = vec![Key::from_u32(1), Key::from_u32(2)];
    // Full coverage at the newer batch: a round-2 floor the old batch
    // cannot reach (batch 0 has LCE = NONE, batch 1 has LCE = 0) is
    // served entirely from batch 1.
    let mut replay: ReplayCache<TestHeader> = ReplayCache::new(1024, 8);
    replay.admit(&p.bundle(&mut pipeline, &keys, BatchNum(0)));
    replay.admit(&p.bundle(&mut pipeline, &keys, BatchNum(1)));
    match replay.assemble(&keys, Epoch(0), SimTime::ZERO) {
        Assembly::Full(bundle) => assert_eq!(bundle.batch(), BatchNum(1)),
        other => panic!("round-2 floor must be served from batch 1, got {other:?}"),
    }
    // A floor no admitted batch reaches still passes upstream.
    assert!(matches!(
        replay.assemble(&keys, Epoch(5), SimTime::ZERO),
        Assembly::Miss
    ));
    // Partial coverage at the only floor-satisfying batch: anchor
    // there, fetch the rest pinned — previously a whole-bundle miss.
    let mut sparse: ReplayCache<TestHeader> = ReplayCache::new(1024, 8);
    sparse.admit(&p.bundle(&mut pipeline, &keys, BatchNum(0)));
    sparse.admit(&p.bundle(&mut pipeline, &keys[..1], BatchNum(1)));
    match sparse.assemble(&keys, Epoch(0), SimTime::ZERO) {
        Assembly::Partial { cached, missing } => {
            assert_eq!(cached.batch(), BatchNum(1));
            assert_eq!(missing, vec![Key::from_u32(2)]);
        }
        other => panic!("round-2 floor must anchor at batch 1, got {other:?}"),
    }
}

#[test]
fn replay_respects_freshness_floor_and_gc() {
    let p = two_batch_partition();
    let mut pipeline = ReadPipeline::new(1024);
    let keys = request_keys();
    // Only the newest commitment is retained (max_batches = 1).
    let mut replay: ReplayCache<TestHeader> = ReplayCache::new(1024, 1);
    let b0 = p.bundle(&mut pipeline, &keys, BatchNum(0));
    replay.admit(&b0);
    assert_eq!(replay.fragment_count(), keys.len());
    // Batch 1 (timestamp 2_000) evicts batch 0 and its fragments.
    let b1 = p.bundle(&mut pipeline, &keys, BatchNum(1));
    replay.admit(&b1);
    assert_eq!(replay.latest_batch(), Some(BatchNum(1)));
    assert_eq!(
        replay.fragment_count(),
        keys.len(),
        "fragments of the evicted batch 0 must be dropped"
    );
    // Fresh enough: replays.
    assert!(matches!(
        replay.assemble(&keys, Epoch::NONE, SimTime(1_500)),
        Assembly::Full(_)
    ));
    // Cached bundle older than the floor: pass upstream instead of
    // serving something the client would reject as stale.
    assert!(matches!(
        replay.assemble(&keys, Epoch::NONE, SimTime(2_001)),
        Assembly::Miss
    ));
}

/// Verify `response` as the answer to `query` at the usual test clock,
/// keeping the receipt on both outcomes.
fn verify_receipted(
    p: &Partition,
    query: &ReadQuery,
    response: &ReadResponse<TestHeader>,
) -> Result<Accepted, Rejected> {
    p.verifier()
        .verify_query(&p.keys, ClusterId(0), query, response, SimTime(2_500))
}

fn receipt(sig_checks: u64, sig_checks_reused: u64, leaf_hashes: u64) -> VerifyReceipt {
    VerifyReceipt {
        sig_checks,
        sig_checks_reused,
        leaf_hashes,
    }
}

/// Receipts count what the verifier did on honest responses of every
/// shape: one certificate (f+1 signatures) per distinct commitment, and
/// one leaf hash per proven key or proven window bucket.
#[test]
fn receipts_count_the_work_of_honest_responses() {
    let p = two_batch_partition();
    let mut pipeline = ReadPipeline::new(1024);
    let quorum = p.topo.certificate_quorum() as u64;
    let keys = request_keys();
    let query = ReadQuery::point(keys.clone());

    // A single-section point read: one certificate, one leaf per key.
    let single = ReadResponse::Point {
        sections: vec![p.bundle(&mut pipeline, &keys, BatchNum(1))],
        fresh: None,
    };
    let accepted = verify_receipted(&p, &query, &single).expect("honest point read");
    assert_eq!(accepted.receipt, receipt(quorum, 0, 3));

    // A two-section partial assembly at one batch: the second section's
    // content-identical commitment reuses the first one's certificate.
    let assembled = ReadResponse::Point {
        sections: vec![
            p.bundle(&mut pipeline, &keys[..2], BatchNum(1)),
            p.bundle(&mut pipeline, &keys[2..], BatchNum(1)),
        ],
        fresh: None,
    };
    let accepted = verify_receipted(&p, &query, &assembled).expect("honest assembly");
    assert_eq!(accepted.receipt, receipt(quorum, quorum, 3));

    // A superset multiproof: every proven key is hashed, requested or not.
    let mut proven = vec![
        Key::from_u32(1),
        Key::from_u32(2),
        Key::from_u32(7),
        Key::from_u32(9),
    ];
    proven.sort();
    let multi = ReadResponse::Multi {
        bundle: Box::new(MultiProofBundle {
            commitment: p.headers[1].clone(),
            cert: p.certs[1].clone(),
            body: pipeline.serve_multi(&p, &proven, BatchNum(1)),
        }),
        fresh: None,
    };
    let subset = ReadQuery::point(vec![Key::from_u32(1), Key::from_u32(2)]);
    let accepted = verify_receipted(&p, &subset, &multi).expect("honest superset multiproof");
    assert_eq!(accepted.receipt, receipt(quorum, 0, 4));

    // A covering scan window: the whole proven window is hashed, not
    // just the requested buckets.
    let proven_window = ScanRange::new(0, 15);
    let scan = ReadResponse::Scan {
        bundle: Box::new(ScanBundle {
            commitment: p.headers[1].clone(),
            cert: p.certs[1].clone(),
            scan: scan_snapshot(&p, &proven_window, BatchNum(1)),
        }),
    };
    let narrow = ReadQuery::scan(ClusterId(0), ScanRange::new(4, 7));
    let accepted = verify_receipted(&p, &narrow, &scan).expect("honest covering window");
    assert_eq!(accepted.receipt, receipt(quorum, 0, 16));
}

/// Rejections report the work spent before the failing check.
#[test]
fn receipts_count_the_work_before_a_rejection() {
    let p = two_batch_partition();
    let mut pipeline = ReadPipeline::new(1024);
    let quorum = p.topo.certificate_quorum() as u64;
    let keys = request_keys();
    let query = ReadQuery::point(keys.clone());

    // A certificate below quorum: its one signature is checked, and no
    // proof is hashed under a commitment that never chained.
    let mut thin = p.bundle(&mut pipeline, &keys, BatchNum(1));
    thin.cert.sigs.truncate(p.topo.certificate_quorum() - 1);
    let response = ReadResponse::Point {
        sections: vec![thin],
        fresh: None,
    };
    let rejected = verify_receipted(&p, &query, &response).expect_err("thin certificate");
    assert_eq!(rejected.rejection, ReadRejection::BadCertificate);
    assert_eq!(rejected.receipt, receipt(quorum - 1, 0, 0));

    // A tampered value in the second section: the first section's
    // certificate and proof were checked, the second section reused
    // the certificate and hashed the proof that failed.
    let mut fill = p.bundle(&mut pipeline, &keys[1..], BatchNum(1));
    fill.reads[0].value = Some(Value::from("forged"));
    let response = ReadResponse::Point {
        sections: vec![p.bundle(&mut pipeline, &keys[..1], BatchNum(1)), fill],
        fresh: None,
    };
    let rejected = verify_receipted(&p, &query, &response).expect_err("tampered second section");
    assert_eq!(
        rejected.rejection,
        ReadRejection::ValueMismatch(Key::from_u32(2))
    );
    assert_eq!(rejected.receipt, receipt(quorum, quorum, 2));
}
