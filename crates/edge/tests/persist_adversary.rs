//! Adversarial property tests for the persistence plane: disk is
//! untrusted input. Honest spilled objects re-admit through the
//! client-grade verifier; a forged value, a flipped proof byte, a
//! forged certificate signature, or a splice of payloads across
//! content addresses is rejected at hydration — either by the content
//! address (self-check gate) or by the verifier (proof gate) — and an
//! object that merely aged past the freshness window is classified as
//! stale, not as tampering.

use proptest::prelude::*;
use transedge_common::{
    BatchNum, ClusterId, ClusterTopology, Epoch, Key, NodeId, SimDuration, SimTime, Value,
};
use transedge_consensus::messages::accept_statement;
use transedge_consensus::Certificate;
use transedge_crypto::merkle::value_digest;
use transedge_crypto::{Digest, KeyStore, MerkleProof, ScanRange, Sha256, VersionedMerkleTree};
use transedge_edge::persist::null_digest;
use transedge_edge::{
    is_stale_only, readmit, BatchCommitment, HydrateReject, MultiProofBundle, ProofBundle,
    ProvenRead, ReadPipeline, ReadRejection, ReadVerifier, ScanBundle, ScanProof, SnapshotObject,
    SnapshotSource, SnapshotStore, VerifyParams,
};
use transedge_storage::VersionedStore;

const DEPTH: u32 = 8;
/// "Now" at readmission: shortly after the batch timestamps.
const NOW: SimTime = SimTime(2_500);
/// A restart long after the outage: honest objects have aged out.
const MUCH_LATER: SimTime = SimTime(40_000_000);

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

    fn commit(&mut self, writes: &[(u32, String)], timestamp: SimTime) {
        let num = BatchNum(self.headers.len() as u64);
        let mut updates = Vec::new();
        for (k, v) in writes {
            let key = Key::from_u32(*k);
            let value = Value::from(v.as_str());
            self.store.write(key.clone(), value.clone(), num);
            updates.push((key, value_digest(&value)));
        }
        let root = self
            .tree
            .apply_batch(num.0, updates.iter().map(|(k, d)| (k, *d)));
        let header = TestHeader {
            cluster: ClusterId(0),
            num,
            merkle_root: root,
            lce: Epoch::NONE,
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

    fn point_bundle(&self, keys: &[Key], at: BatchNum) -> ProofBundle<TestHeader> {
        ProofBundle {
            commitment: self.headers[at.0 as usize].clone(),
            cert: self.certs[at.0 as usize].clone(),
            reads: keys
                .iter()
                .map(|k| ProvenRead {
                    key: k.clone(),
                    value: self.value_at(k, at),
                    proof: self.prove_at(k, at),
                })
                .collect(),
        }
    }

    fn scan_bundle(&self, range: ScanRange, at: BatchNum) -> ScanBundle<TestHeader> {
        ScanBundle {
            commitment: self.headers[at.0 as usize].clone(),
            cert: self.certs[at.0 as usize].clone(),
            scan: ScanProof {
                range,
                rows: self.rows_at(&range, at),
                proof: self.prove_range(&range, at),
            },
        }
    }

    fn multi_bundle(
        &self,
        pipeline: &mut ReadPipeline,
        keys: &[Key],
        at: BatchNum,
    ) -> MultiProofBundle<TestHeader> {
        MultiProofBundle {
            commitment: self.headers[at.0 as usize].clone(),
            cert: self.certs[at.0 as usize].clone(),
            body: pipeline.serve_multi(self, keys, at),
        }
    }

    fn verifier(&self) -> ReadVerifier {
        ReadVerifier::new(VerifyParams {
            tree_depth: DEPTH,
            freshness_window: SimDuration::from_secs(30),
            quorum: self.topo.certificate_quorum(),
        })
    }
}

/// Two batches over random keys; batch 1 always overwrites something
/// so the roots differ.
fn world(key_tags: &[(u16, u8)]) -> Partition {
    let mut p = Partition::new();
    let batch0: Vec<(u32, String)> = key_tags
        .iter()
        .map(|(k, v)| (*k as u32 % 512, format!("a{v}")))
        .collect();
    p.commit(&batch0, SimTime(1_000));
    p.commit(
        &[(key_tags[0].0 as u32 % 512, "overwrite".to_string())],
        SimTime(2_000),
    );
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For every shape an edge persists (point bundle, scan window,
    /// multiproof body): the honest object re-admits; any on-disk
    /// corruption is rejected by one of the two gates and never
    /// reaches a cache.
    #[test]
    fn disk_corruption_never_readmits(
        key_tags in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..12),
        forged_tag in any::<u8>(),
    ) {
        let p = world(&key_tags);
        let mut requested: Vec<Key> = key_tags
            .iter()
            .map(|(k, _)| Key::from_u32(*k as u32 % 512))
            .collect();
        requested.sort();
        requested.dedup();

        let mut pipeline = ReadPipeline::new(1024);
        let mut store: SnapshotStore<TestHeader> = SnapshotStore::new(16);
        let d_point =
            store.spill(SnapshotObject::Point(p.point_bundle(&requested, BatchNum(1))));
        let d_scan = store.spill(SnapshotObject::Scan(
            p.scan_bundle(ScanRange::new(0, 255), BatchNum(1)),
        ));
        let d_multi = store.spill(SnapshotObject::Multi(
            p.multi_bundle(&mut pipeline, &requested, BatchNum(1)),
        ));
        let verifier = p.verifier();

        // Honest disk: every stored object re-admits under its address.
        for (_, digest) in store.hydration_set() {
            let object = store.get(&digest).unwrap();
            prop_assert!(readmit(&verifier, &p.keys, &digest, object, NOW).is_ok());
        }

        // An honest object under the wrong address is still refused:
        // the address is part of the trust chain, not a lookup hint.
        prop_assert_eq!(
            readmit(&verifier, &p.keys, &null_digest(), store.get(&d_point).unwrap(), NOW)
                .unwrap_err(),
            HydrateReject::DigestMismatch
        );

        // 1. Value forgery on a point read: the content address breaks
        // (the self-check gate fires before any proof work).
        {
            let mut s = store.clone();
            let forged = Value::from(format!("forged-{forged_tag}").as_str());
            prop_assert!(s.tamper_with(&d_point, |object| {
                if let SnapshotObject::Point(b) = object {
                    b.reads[0].value = Some(forged);
                }
            }));
            prop_assert_eq!(
                readmit(&verifier, &p.keys, &d_point, s.get(&d_point).unwrap(), NOW)
                    .unwrap_err(),
                HydrateReject::DigestMismatch
            );
        }

        // 2. Proof tamper on a point read: proof bytes sit *outside*
        // the content address, so the self-check passes — the verifier
        // gate must catch it.
        {
            let mut s = store.clone();
            prop_assert!(s.tamper_with(&d_point, |object| {
                if let SnapshotObject::Point(b) = object {
                    if let Some(sibling) = b.reads[0].proof.siblings.first_mut() {
                        *sibling = Digest([0xEE; 32]);
                    } else if let Some(entry) = b.reads[0].proof.bucket.first_mut() {
                        entry.value_hash = Digest([0xEE; 32]);
                    }
                }
            }));
            let err = readmit(&verifier, &p.keys, &d_point, s.get(&d_point).unwrap(), NOW)
                .unwrap_err();
            prop_assert!(matches!(err, HydrateReject::Verification(_)), "{err:?}");
            prop_assert!(!is_stale_only(&err));
        }

        // 3. Row forgery inside a scan window: content address breaks.
        {
            let mut s = store.clone();
            prop_assert!(s.tamper_with(&d_scan, |object| {
                if let SnapshotObject::Scan(b) = object {
                    if let Some(row) = b.scan.rows.first_mut() {
                        row.1 = Value::from("forged");
                    } else {
                        b.scan.range.last = b.scan.range.last.wrapping_add(1);
                    }
                }
            }));
            prop_assert_eq!(
                readmit(&verifier, &p.keys, &d_scan, s.get(&d_scan).unwrap(), NOW)
                    .unwrap_err(),
                HydrateReject::DigestMismatch
            );
        }

        // 4. Certificate signature forgery on the multiproof: the
        // signature bytes are outside the content address (only the
        // signed digest and the count are folded), so this must be
        // caught by the verifier's certificate check.
        {
            let mut s = store.clone();
            let replica = p.topo.replicas_of(ClusterId(0)).next().unwrap();
            let forged_sig = p.secrets[&replica].sign(b"not the accept statement");
            prop_assert!(s.tamper_with(&d_multi, |object| {
                if let SnapshotObject::Multi(b) = object {
                    b.cert.sigs[0].1 = forged_sig;
                }
            }));
            let err = readmit(&verifier, &p.keys, &d_multi, s.get(&d_multi).unwrap(), NOW)
                .unwrap_err();
            prop_assert!(matches!(err, HydrateReject::Verification(_)), "{err:?}");
            prop_assert!(!is_stale_only(&err));
        }

        // 5. Splice: swapping the payloads under two addresses (a
        // corrupted directory block) fails both self-checks.
        {
            let mut s = store.clone();
            prop_assert!(s.splice(&d_point, &d_scan));
            for d in [&d_point, &d_scan] {
                prop_assert_eq!(
                    readmit(&verifier, &p.keys, d, s.get(d).unwrap(), NOW).unwrap_err(),
                    HydrateReject::DigestMismatch
                );
            }
        }

        // 6. Honest aging: after a long outage the same honest object
        // is rejected as stale — and classified as such, not as
        // tampering (callers drop it quietly instead of alarming).
        {
            let err = readmit(
                &verifier,
                &p.keys,
                &d_point,
                store.get(&d_point).unwrap(),
                MUCH_LATER,
            )
            .unwrap_err();
            prop_assert!(
                matches!(
                    &err,
                    HydrateReject::Verification(rejected)
                        if rejected.rejection == ReadRejection::StaleTimestamp
                ),
                "{err:?}"
            );
            prop_assert!(is_stale_only(&err));
        }
    }
}
