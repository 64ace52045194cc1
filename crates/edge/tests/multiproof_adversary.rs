//! Adversarial property tests for Merkle multiproof responses: an
//! untrusted edge holding a valid multiproof body must not be able to
//! omit a requested key, substitute a sibling, splice proofs across
//! batches, or tamper with any value slot without tripping a typed
//! rejection from `verify_query`'s multiproof chain.

use proptest::prelude::*;
use transedge_common::{
    BatchNum, ClusterId, ClusterTopology, Epoch, Key, NodeId, SimDuration, SimTime, Value,
};
use transedge_consensus::messages::accept_statement;
use transedge_consensus::Certificate;
use transedge_crypto::merkle::value_digest;
use transedge_crypto::{Digest, KeyStore, MerkleProof, ScanRange, Sha256, VersionedMerkleTree};
use transedge_edge::{
    BatchCommitment, MultiProofBody, MultiProofBundle, QueryAnswer, ReadPipeline, ReadQuery,
    ReadRejection, ReadResponse, ReadVerifier, SnapshotSource, VerifyParams,
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

    fn verify(
        &self,
        bundle: &MultiProofBundle<TestHeader>,
        requested: &[Key],
    ) -> Result<Vec<(Key, Option<Value>)>, ReadRejection> {
        let response = ReadResponse::Multi {
            bundle: Box::new(bundle.clone()),
            fresh: None,
        };
        let verdict = ReadVerifier::new(VerifyParams {
            tree_depth: DEPTH,
            freshness_window: SimDuration::from_secs(30),
            quorum: self.topo.certificate_quorum(),
        })
        .verify_query(
            &self.keys,
            ClusterId(0),
            &ReadQuery::point(requested.to_vec()),
            &response,
            SimTime(2_500),
        );
        match verdict {
            Ok(accepted) => match accepted.answer {
                QueryAnswer::Values(values) => Ok(values),
                other => panic!("point query must yield values, got {other:?}"),
            },
            Err(rejected) => Err(rejected.rejection),
        }
    }
}

/// Rebuild a bundle's body from tampered parts (the wire image is
/// shared and immutable, so an attacker re-encodes — exactly what the
/// simulator's byzantine edge does).
fn rebuild(
    bundle: &MultiProofBundle<TestHeader>,
    keys: Vec<Key>,
    values: Vec<Option<Value>>,
    proof: transedge_crypto::MultiProof,
) -> MultiProofBundle<TestHeader> {
    MultiProofBundle {
        commitment: bundle.commitment.clone(),
        cert: bundle.cert.clone(),
        body: MultiProofBody::new(keys, values, proof),
    }
}

/// Two batches over random keys; batch 1 always overwrites something so
/// the roots differ (the splice attack needs a second, different root).
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Honest multiproofs verify to exactly the committed content;
    /// every omission, sibling substitution, bucket tamper, value
    /// forgery, and cross-batch splice is rejected with the right
    /// typed error.
    #[test]
    fn multiproof_forgeries_never_survive(
        key_tags in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..24),
        absent_tag in 0u16..512,
    ) {
        let p = world(&key_tags);
        // Request the committed keys plus one probably-absent key:
        // multiproofs must prove absences too.
        let mut requested: Vec<Key> = key_tags
            .iter()
            .map(|(k, _)| Key::from_u32(*k as u32 % 512))
            .chain([Key::from_u32(512 + absent_tag as u32)])
            .collect();
        requested.sort();
        requested.dedup();
        let mut pipeline = ReadPipeline::new(1024);
        let honest = p.multi_bundle(&mut pipeline, &requested, BatchNum(1));

        // Honest: verifies, in request order, to the committed state.
        let values = p.verify(&honest, &requested).expect("honest multiproof verifies");
        prop_assert_eq!(values.len(), requested.len());
        for (key, value) in &values {
            prop_assert_eq!(value.clone(), p.value_at(key, BatchNum(1)), "key {:?}", key);
        }
        // The shared wire image matches the structural size exactly.
        prop_assert_eq!(honest.body.encoded_len(), honest.body.wire_bytes().len());

        // 1. Omission: drop each proven key (and its value slot) while
        // keeping the joint proof. The requested-coverage check fires
        // before any hashing, naming the missing key.
        for i in 0..honest.body.keys.len() {
            let mut keys = honest.body.keys.clone();
            let mut vals = honest.body.values.clone();
            let dropped = keys.remove(i);
            vals.remove(i);
            let forged = rebuild(&honest, keys, vals, honest.body.proof.clone());
            prop_assert_eq!(
                p.verify(&forged, &requested).unwrap_err(),
                ReadRejection::MultiProofKeyMissing(dropped)
            );
        }

        // 2. Sibling substitution / removal: the joint fold breaks.
        for j in 0..honest.body.proof.siblings.len() {
            let mut proof = honest.body.proof.clone();
            proof.siblings[j] = Digest([0xEE; 32]);
            let forged = rebuild(
                &honest,
                honest.body.keys.clone(),
                honest.body.values.clone(),
                proof,
            );
            prop_assert_eq!(
                p.verify(&forged, &requested).unwrap_err(),
                ReadRejection::BadMultiProof
            );

            let mut proof = honest.body.proof.clone();
            proof.siblings.remove(j);
            let forged = rebuild(
                &honest,
                honest.body.keys.clone(),
                honest.body.values.clone(),
                proof,
            );
            prop_assert_eq!(
                p.verify(&forged, &requested).unwrap_err(),
                ReadRejection::BadMultiProof
            );
        }

        // 3. Bucket tamper: rewrite a proven value digest inside a
        // bucket — the recomputed root no longer matches.
        for bi in 0..honest.body.proof.buckets.len() {
            for ei in 0..honest.body.proof.buckets[bi].entries.len() {
                let mut proof = honest.body.proof.clone();
                proof.buckets[bi].entries[ei].value_hash = Digest([0xAB; 32]);
                let forged = rebuild(
                    &honest,
                    honest.body.keys.clone(),
                    honest.body.values.clone(),
                    proof,
                );
                prop_assert!(p.verify(&forged, &requested).is_err());
            }
        }

        // 4. Value forgery: a present slot swapped for a lie is a
        // ValueMismatch; a conjured value on a proven absence is a
        // PhantomValue.
        for i in 0..honest.body.values.len() {
            let mut vals = honest.body.values.clone();
            let expect = match &vals[i] {
                Some(_) => ReadRejection::ValueMismatch(honest.body.keys[i].clone()),
                None => ReadRejection::PhantomValue(honest.body.keys[i].clone()),
            };
            vals[i] = Some(Value::from("forged"));
            let forged = rebuild(
                &honest,
                honest.body.keys.clone(),
                vals,
                honest.body.proof.clone(),
            );
            prop_assert_eq!(p.verify(&forged, &requested).unwrap_err(), expect);
        }

        // 5. Cross-batch splice: batch 0's internally consistent body
        // under batch 1's certified commitment folds to the wrong root.
        let mut stale_pipeline = ReadPipeline::new(1024);
        let stale = p.multi_bundle(&mut stale_pipeline, &requested, BatchNum(0));
        let spliced = MultiProofBundle {
            commitment: honest.commitment.clone(),
            cert: honest.cert.clone(),
            body: stale.body,
        };
        prop_assert_eq!(
            p.verify(&spliced, &requested).unwrap_err(),
            ReadRejection::BadMultiProof
        );
    }
}

/// The unified dispatch point: a `ReadResponse::Multi` flows through
/// `verify_query` to the same multiproof chain — honest responses
/// answer the query, forged ones trip the same typed rejections.
#[test]
fn verify_query_dispatches_multi_responses() {
    let mut p = Partition::new();
    p.commit(
        &[(1, "alpha".to_string()), (2, "beta".to_string())],
        SimTime(1_000),
    );
    p.commit(&[(1, "alpha-v2".to_string())], SimTime(2_000));
    let requested = vec![Key::from_u32(1), Key::from_u32(2), Key::from_u32(7)];
    let query = ReadQuery::point(requested.clone());
    let mut pipeline = ReadPipeline::new(1024);
    let honest = p.multi_bundle(&mut pipeline, &requested, BatchNum(1));
    let verifier = ReadVerifier::new(VerifyParams {
        tree_depth: DEPTH,
        freshness_window: SimDuration::from_secs(30),
        quorum: p.topo.certificate_quorum(),
    });

    let response = ReadResponse::Multi {
        bundle: Box::new(honest.clone()),
        fresh: None,
    };
    match verifier
        .verify_query(&p.keys, ClusterId(0), &query, &response, SimTime(2_500))
        .expect("honest multi response verifies through verify_query")
        .answer
    {
        QueryAnswer::Values(values) => {
            assert_eq!(values[0].1, Some(Value::from("alpha-v2")));
            assert_eq!(values[1].1, Some(Value::from("beta")));
            assert_eq!(values[2].1, None);
        }
        other => panic!("point query must yield values, got {other:?}"),
    }

    // Omission through the full dispatch chain.
    let mut keys = honest.body.keys.clone();
    let mut vals = honest.body.values.clone();
    let dropped = keys.remove(0);
    vals.remove(0);
    let forged = ReadResponse::Multi {
        bundle: Box::new(rebuild(&honest, keys, vals, honest.body.proof.clone())),
        fresh: None,
    };
    assert_eq!(
        verifier
            .verify_query(&p.keys, ClusterId(0), &query, &forged, SimTime(2_500))
            .unwrap_err()
            .rejection,
        ReadRejection::MultiProofKeyMissing(dropped)
    );

    // Sibling substitution through the full dispatch chain.
    let mut proof = honest.body.proof.clone();
    proof.siblings[0] = Digest([0xEE; 32]);
    let forged = ReadResponse::Multi {
        bundle: Box::new(rebuild(
            &honest,
            honest.body.keys.clone(),
            honest.body.values.clone(),
            proof,
        )),
        fresh: None,
    };
    assert_eq!(
        verifier
            .verify_query(&p.keys, ClusterId(0), &query, &forged, SimTime(2_500))
            .unwrap_err()
            .rejection,
        ReadRejection::BadMultiProof
    );
}
