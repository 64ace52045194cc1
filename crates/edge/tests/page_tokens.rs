//! Property tests for the unified query verifier's pagination pins:
//! across random partition contents, ranges, and page widths, an
//! honest paginated scan verifies page by page to exactly the
//! committed rows of the full range — and **no tampered or replayed
//! [`PageToken`] survives [`ReadVerifier::verify_query`]**: swapping
//! the pinned batch (the page-splice attack) or moving the resume
//! bound outside the remaining range (replaying already-scanned
//! buckets, or fabricating a continuation) is rejected before any row
//! is accepted.

use std::collections::HashMap;

use proptest::prelude::*;
use transedge_common::{
    BatchNum, ClusterId, ClusterTopology, Epoch, Key, NodeId, SimDuration, SimTime, Value,
};
use transedge_consensus::messages::accept_statement;
use transedge_consensus::Certificate;
use transedge_crypto::merkle::value_digest;
use transedge_crypto::{
    sha256, Digest, KeyStore, MerkleProof, RangeProof, ScanRange, Sha256, VersionedMerkleTree,
};
use transedge_edge::{
    scan_snapshot, BatchCommitment, PageToken, QueryAnswer, ReadQuery, ReadRejection, ReadResponse,
    ReadVerifier, ScanBundle, SnapshotSource, VerifyParams,
};
use transedge_storage::VersionedStore;

/// Shallow tree: 64 buckets → dense windows and short page chains.
const DEPTH: u32 = 6;

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
        h.update(b"test/page-header");
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
    secrets: HashMap<transedge_common::ReplicaId, transedge_crypto::Keypair>,
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

    fn prove_range(&self, range: &ScanRange, batch: BatchNum) -> RangeProof {
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

    /// What an honest server answers a page query with: the scan of the
    /// query's current window, pinned where the query demands (or at
    /// `fallback` for unpinned first pages).
    fn serve(&self, query: &ReadQuery, fallback: BatchNum) -> ReadResponse<TestHeader> {
        let window = query.scan_window().expect("scan query");
        let at = query.pinned_batch().unwrap_or(fallback);
        ReadResponse::Scan {
            bundle: Box::new(ScanBundle {
                commitment: self.headers[at.0 as usize].clone(),
                cert: self.certs[at.0 as usize].clone(),
                scan: scan_snapshot(self, &window, at),
            }),
        }
    }

    fn verifier(&self) -> ReadVerifier {
        ReadVerifier::new(VerifyParams {
            tree_depth: DEPTH,
            freshness_window: SimDuration::from_secs(30),
            quorum: self.topo.certificate_quorum(),
        })
    }

    fn verify(
        &self,
        query: &ReadQuery,
        response: &ReadResponse<TestHeader>,
    ) -> Result<QueryAnswer, ReadRejection> {
        self.verifier()
            .verify_query(&self.keys, ClusterId(0), query, response, SimTime(2_500))
            .map(|accepted| accepted.answer)
            .map_err(|rejected| rejected.rejection)
    }
}

/// Two batches over random keys; batch 1 always overwrites something so
/// the roots differ (the page-splice attack needs a second, different
/// root to splice from).
fn world(key_tags: &[(u16, u8)]) -> Partition {
    let mut p = Partition::new();
    let batch0: Vec<(u32, String)> = key_tags
        .iter()
        .map(|(k, v)| (*k as u32 % 512, format!("a{v}")))
        .collect();
    p.commit(&batch0, SimTime(1_000));
    let batch1: Vec<(u32, String)> = vec![(key_tags[0].0 as u32 % 512, "overwrite".to_string())];
    p.commit(&batch1, SimTime(2_000));
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Honest pagination verifies page by page to exactly the committed
    /// rows of the range; tampered and replayed tokens never survive.
    #[test]
    fn tampered_page_tokens_never_survive(
        key_tags in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..32),
        first in 0u64..40,
        width in 2u64..24,
        window in 1u64..8,
    ) {
        let p = world(&key_tags);
        let last = (first + width - 1).min((1 << DEPTH) - 1);
        let range = ScanRange::new(first, last);
        let base = ReadQuery::scatter_scan(vec![ClusterId(0)], range, window);
        let latest = BatchNum(1);

        // --- Honest pagination: drive the token chain to exhaustion.
        let mut rows: Vec<(Key, Value)> = Vec::new();
        let mut query = base.clone();
        let mut pages = 0u64;
        let mut tokens: Vec<PageToken> = Vec::new();
        loop {
            let response = p.serve(&query, latest);
            let answer = p.verify(&query, &response).expect("honest page verifies");
            let QueryAnswer::Rows { rows: page_rows, next } = answer else {
                panic!("scan answer expected");
            };
            rows.extend(page_rows);
            pages += 1;
            match next {
                Some(token) => {
                    // Tokens pin the serving batch and advance strictly.
                    prop_assert_eq!(token.batch, latest);
                    prop_assert!(token.resume > range.first && token.resume <= range.last);
                    if let Some(prev) = tokens.last() {
                        prop_assert!(token.resume > prev.resume);
                    }
                    tokens.push(token);
                    query = base.clone().with_page(token);
                }
                None => break,
            }
        }
        prop_assert_eq!(pages, range.width().div_ceil(window));
        let mut expected: Vec<(Key, Value)> = p
            .store
            .range_at(range.digest_bounds(DEPTH), latest)
            .map(|(k, v)| (k.clone(), v.value.clone()))
            .collect();
        expected.sort_by_key(|(k, _)| sha256(k.as_bytes()));
        prop_assert_eq!(&rows, &expected, "pages stitch to the full committed range");

        // The attacks below need at least one continuation token
        // (single-page ranges have none).
        if tokens.is_empty() {
            return Ok(());
        }
        let token = tokens[0];

        // --- 1. Batch swapped in the token: the served page (still a
        // perfectly valid proof!) is at the wrong batch → the page
        // splice is rejected before any row is accepted.
        let swapped = PageToken { batch: BatchNum(0), resume: token.resume };
        let q = base.clone().with_page(swapped);
        // An honest-at-batch-1 response does not match the swapped pin…
        let response = p.serve(&base.clone().with_page(token), latest);
        prop_assert_eq!(
            p.verify(&q, &response).unwrap_err(),
            ReadRejection::SnapshotPinMismatch { pinned: BatchNum(0), got: BatchNum(1) }
        );
        // …and a server that *honours* the forged pin serves a batch-0
        // page that can never splice into the batch-1 chain: the
        // verifier rejects it against the token the session actually
        // holds (batch 1).
        let spliced = p.serve(&q, latest);
        let held = base.clone().with_page(token);
        prop_assert_eq!(
            p.verify(&held, &spliced).unwrap_err(),
            ReadRejection::SnapshotPinMismatch { pinned: BatchNum(1), got: BatchNum(0) }
        );

        // --- 2. Resume bound moved backwards (to or before the first
        // window) or past the end: a replayed/fabricated token, rejected
        // outright.
        for resume in [range.first, range.first.saturating_sub(1), range.last + 1] {
            let bad = PageToken { batch: latest, resume };
            let q = base.clone().with_page(bad);
            let response = p.serve(&base.clone().with_page(token), latest);
            let err = p.verify(&q, &response).unwrap_err();
            prop_assert_eq!(
                err,
                ReadRejection::PageOutOfRange { resume, range },
                "resume bound {} must be rejected", resume
            );
        }
    }
}
