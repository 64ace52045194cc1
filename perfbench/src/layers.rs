//! Per-layer metrics of a traced run.
//!
//! Two kinds of number:
//! * counts per committed operation, read from the deployment's
//!   counters (`Deployment::metrics()`, `Simulation::stats()`) and from
//!   the flight recorder's phase split (`breakdown_at_percentile`);
//! * wall-clock microseconds per call, timed from here around each
//!   crate's public functions on inputs drawn from the workload's own
//!   scripts (no simulator involved).
//!
//! The loopback runs the workload's read sub-queries through the whole
//! read path in-process — replica prove → edge admit and replay →
//! encode → decode → client verify — timing every stage, and checks
//! that the stages add up to the end-to-end time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use transedge_common::{
    BatchNum, ClusterId, ClusterTopology, Decode, Encode, Epoch, Key, NodeId, ReplicaId, SimTime,
    Value, WireReader, WireWriter,
};
use transedge_consensus::messages::accept_statement;
use transedge_consensus::{BftValue, Certificate};
use transedge_core::batch::{BatchHeader, CommittedHeader};
use transedge_core::client::ClientOp;
use transedge_core::executor::Executor;
use transedge_core::node::DEFAULT_TREE_DEPTH;
use transedge_core::setup::generate_data;
use transedge_crypto::merkle::value_digest;
use transedge_crypto::{
    sha256, verify_multi_proof, verify_range_proof, Digest, KeyStore, Keypair, MultiProof,
    RangeProof, ScanRange, VersionedMerkleTree,
};
use transedge_edge::{
    multi_snapshot, scan_snapshot, MultiProofBody, MultiProofBundle, QueryShape, ReadPipeline,
    ReadQuery, ReadResponse, ReadVerifier, ReplayCache, ScanBundle, ScanProof, VerifyParams,
};
use transedge_obs::PhaseBreakdown;
use transedge_storage::VersionedStore;

use crate::report::{median, Metric};
use crate::run::{Repetition, SimOutcome};
use crate::workload::{Workload, F, N_KEYS, PARTITIONS};

/// Allowed gap between the loopback's summed stage times and its
/// end-to-end time, as a share of the end-to-end time.
pub const LOOPBACK_TOLERANCE: f64 = 0.05;
/// Timed blocks per layer; the median block is reported.
const BLOCKS: usize = 5;
/// Minimum wall time of one timed block.
const BLOCK_MIN: Duration = Duration::from_millis(20);
/// Workload inputs used per layer (the first ones of the scripts).
const MAX_INPUTS: usize = 96;

/// Message kinds by the layer that sends them.
fn kind_class(kind: &str) -> &'static str {
    if kind.starts_with("read-") || kind == "rot-fetch-at" {
        "read"
    } else if kind.starts_with("directory-")
        || kind.starts_with("feed-")
        || kind.starts_with("state-transfer")
    {
        "gossip"
    } else if matches!(
        kind,
        "occ-read" | "occ-read-resp" | "commit-request" | "txn-result"
    ) {
        "txn"
    } else {
        // BFT agreement and 2PC between replicas.
        "consensus"
    }
}

fn class_bytes(s: &SimOutcome, class: &str) -> u64 {
    s.counter_sum(|n| {
        n.strip_prefix("net.")
            .and_then(|k| k.strip_suffix(".bytes"))
            .is_some_and(|k| kind_class(k) == class)
    })
}

/// Every per-layer metric of a traced run.
pub fn measure(
    seed: u64,
    scripts: &[Vec<ClientOp>],
    plain: &[Repetition],
    traced: &[Repetition],
) -> (Vec<Metric>, Vec<String>) {
    let s = &traced[0].sim;
    let ops = s.ops_committed;
    let reads = s.read_lat_us.len() as u64;
    let per_op = |name: &str, v: u64| Metric::ratio(name, "count", v as f64, ops, "committed ops");
    let per_read =
        |name: &str, v: u64| Metric::ratio(name, "count", v as f64, reads, "committed reads");
    let mut out = Vec::new();

    // ---- simnet ------------------------------------------------------
    let step_us: Vec<f64> = traced
        .iter()
        .map(|r| r.step_time.as_secs_f64() * 1e6 / r.sim.events.max(1) as f64)
        .collect();
    out.push(Metric::new("simnet.step_us", "us", median(&step_us)));
    out.push(per_op("simnet.events_per_op", s.events));
    out.push(per_op("simnet.msgs_per_op", s.counter("messages_sent")));
    for class in ["read", "consensus", "gossip", "txn"] {
        out.push(Metric::ratio(
            format!("simnet.{class}_bytes_per_op"),
            "B",
            class_bytes(s, class) as f64,
            ops,
            "committed ops",
        ));
    }
    let wall = |reps: &[Repetition]| {
        median(
            &reps
                .iter()
                .map(crate::metrics::wall_ops_per_s)
                .collect::<Vec<_>>(),
        )
    };
    let (untraced_ops, traced_ops) = (wall(plain), wall(traced));
    out.push(Metric::new("trace.wall_ops_per_s", "1/s", traced_ops));
    out.push(Metric::new(
        "trace.overhead_frac",
        "fraction",
        1.0 - traced_ops / untraced_ops,
    ));

    // ---- obs: the simulated phase split ------------------------------
    let (p50, p95) = traced[0].phases.unwrap_or_default();
    for (label, b) in [("read_p50", p50), ("read_p95", p95)] {
        out.extend(phase_metrics(label, &b));
    }

    // ---- counters of edges, clients, replicas, consensus -------------
    let c = |n: &str| s.counter(n);
    let edge_requests = c("edge.requests");
    out.push(Metric::ratio(
        "edge.hit_rate",
        "fraction",
        c("edge.served_from_cache") as f64,
        edge_requests,
        "edge requests",
    ));
    out.push(per_read(
        "edge.sibling_forwards_per_read",
        c("edge.foreign_forward_sibling"),
    ));
    out.push(Metric::ratio(
        "edge.bytes_per_read",
        "B",
        class_bytes(s, "read") as f64,
        reads,
        "committed reads",
    ));
    out.push(per_op(
        "edge.feed_deltas_per_op",
        c("edge.feed_deltas_received"),
    ));
    out.push(per_read(
        "client.cert_checks_shared_per_read",
        c("query.cert_checks_shared"),
    ));
    out.push(per_op("client.retries_per_op", c("client.retries")));
    out.push(per_read(
        "client.feed_upgrades_per_rot",
        c("query.freshness_upgrades"),
    ));
    let (admitted, rejected) = (c("node.txns_admitted"), c("node.txns_rejected"));
    out.push(Metric::ratio(
        "node.txns_rejected_frac",
        "fraction",
        rejected as f64,
        admitted + rejected,
        "txns validated",
    ));
    out.push(per_read(
        "node.replica_reads_per_read",
        c("node.rot_served")
            + c("node.rot_fetches_served")
            + c("node.rot_pinned_served")
            + c("node.rot_scans_served"),
    ));
    let batches = c("node.batches_proposed");
    out.push(Metric::ratio(
        "consensus.txns_per_batch",
        "count",
        admitted as f64,
        batches,
        "batches proposed",
    ));
    out.push(Metric::new(
        "consensus.batches_per_sim_s",
        "1/s",
        if s.window_us == 0 {
            0.0
        } else {
            batches as f64 / (s.window_us as f64 / 1e6)
        },
    ));
    out.push(Metric::new(
        "consensus.view_changes",
        "count",
        c("node.view_changes") as f64,
    ));

    // ---- wall-clock per call, on the workload's inputs ---------------
    let fx = Fixture::new(seed);
    let inputs = Inputs::from_scripts(seed, scripts, &fx.topo);
    out.extend(fx.time_layers(&inputs));
    let (loopback, problems) = fx.loopback(&inputs);
    out.extend(loopback);
    (out, problems)
}

fn phase_metrics(label: &str, b: &PhaseBreakdown) -> Vec<Metric> {
    [
        ("queue", b.queue_us),
        ("wire", b.wire_us),
        ("serve", b.serve_us),
        ("verify", b.verify_us),
        ("round2", b.round2_us),
        ("gossip", b.gossip_us),
        ("e2e", b.e2e_us),
    ]
    .into_iter()
    .map(|(phase, us)| Metric::new(format!("obs.{label}.{phase}_us"), "us", us as f64))
    .collect()
}

/// One partition's sub-query of a workload read.
#[derive(Clone, Debug)]
enum SubQuery {
    Point(ClusterId, Vec<Key>),
    Scan(ClusterId, ScanRange),
}

impl SubQuery {
    fn cluster(&self) -> ClusterId {
        match self {
            SubQuery::Point(c, _) | SubQuery::Scan(c, _) => *c,
        }
    }

    fn query(&self) -> ReadQuery {
        match self {
            SubQuery::Point(_, keys) => ReadQuery::point(keys.clone()),
            SubQuery::Scan(c, range) => ReadQuery::scan(*c, *range),
        }
    }
}

/// The workload's inputs, regrouped per layer.
struct Inputs {
    /// Read sub-queries in script order (at most [`MAX_INPUTS`]).
    subs: Vec<SubQuery>,
    points: Vec<(ClusterId, Vec<Key>)>,
    scans: Vec<(ClusterId, ScanRange)>,
    /// Per-transaction write sets (scripted writes; read-only
    /// workloads rewrite the keys they read).
    writes: Vec<Vec<(Key, Value)>>,
    /// Byte strings the operations carry: statements to sign, KiB
    /// blocks to hash.
    statements: Vec<Vec<u8>>,
    kib_blocks: Vec<Vec<u8>>,
}

impl Inputs {
    fn from_scripts(seed: u64, scripts: &[Vec<ClientOp>], topo: &ClusterTopology) -> Self {
        let ops: Vec<&ClientOp> = interleave(scripts);
        let mut subs = Vec::new();
        let mut writes = Vec::new();
        for op in &ops {
            match op {
                ClientOp::ReadOnly { keys } => subs.extend(split_points(topo, keys)),
                ClientOp::Query { query } => match &query.shape {
                    QueryShape::Point { keys } => subs.extend(split_points(topo, keys)),
                    QueryShape::Scan {
                        clusters,
                        range,
                        window,
                    } => {
                        for c in clusters {
                            for page in pages(*range, *window) {
                                subs.push(SubQuery::Scan(*c, page));
                            }
                        }
                    }
                },
                ClientOp::RangeScan { cluster, range } => {
                    subs.push(SubQuery::Scan(*cluster, *range))
                }
                ClientOp::ReadWrite { writes: ws, .. } => {
                    if !ws.is_empty() {
                        writes.push(ws.clone());
                    }
                }
            }
        }
        subs.truncate(MAX_INPUTS);
        let mut points: Vec<(ClusterId, Vec<Key>)> = subs
            .iter()
            .filter_map(|s| match s {
                SubQuery::Point(c, k) => Some((*c, k.clone())),
                SubQuery::Scan(..) => None,
            })
            .collect();
        let mut scans: Vec<(ClusterId, ScanRange)> = subs
            .iter()
            .filter_map(|s| match s {
                SubQuery::Scan(c, r) => Some((*c, *r)),
                SubQuery::Point(..) => None,
            })
            .collect();
        // Workloads without a read shape borrow it from `cold_reads`
        // under the same seed, so every layer metric exists everywhere.
        if points.is_empty() || scans.is_empty() {
            let cold = Inputs::from_scripts(seed, &Workload::ColdReads.scripts(seed), topo);
            if points.is_empty() {
                points = cold.points;
            }
            if scans.is_empty() {
                scans = cold.scans;
            }
        }
        if writes.is_empty() {
            // Rewrite the keys the workload reads, 3 per transaction.
            let keys: Vec<Key> = points.iter().flat_map(|(_, k)| k.clone()).collect();
            writes = keys
                .chunks(3)
                .enumerate()
                .map(|(i, ks)| {
                    ks.iter()
                        .map(|k| (k.clone(), Value::filled(256, (seed as usize + i) as u8)))
                        .collect()
                })
                .collect();
        }
        writes.truncate(MAX_INPUTS);
        let statements: Vec<Vec<u8>> = points
            .iter()
            .enumerate()
            .map(|(i, (c, keys))| {
                let mut w = WireWriter::new();
                w.put_seq(keys);
                accept_statement(*c, BatchNum(i as u64), &sha256(w.as_slice()))
            })
            .collect();
        let values: Vec<Vec<u8>> = writes
            .iter()
            .flatten()
            .map(|(_, v)| v.as_bytes().to_vec())
            .collect();
        let kib_blocks: Vec<Vec<u8>> = values
            .chunks(4)
            .map(|vs| {
                vs.concat()
                    .into_iter()
                    .chain(std::iter::repeat(0))
                    .take(1024)
                    .collect()
            })
            .collect();
        Inputs {
            subs,
            points,
            scans,
            writes,
            statements,
            kib_blocks,
        }
    }
}

/// Operations of all clients, round-robin (the order they start in).
fn interleave(scripts: &[Vec<ClientOp>]) -> Vec<&ClientOp> {
    let longest = scripts.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| scripts.iter().filter_map(move |s| s.get(i)))
        .collect()
}

fn split_points(topo: &ClusterTopology, keys: &[Key]) -> Vec<SubQuery> {
    let mut by: Vec<(ClusterId, Vec<Key>)> = Vec::new();
    for k in keys {
        let c = topo.partition_of(k);
        match by.iter_mut().find(|(bc, _)| *bc == c) {
            Some((_, ks)) => ks.push(k.clone()),
            None => by.push((c, vec![k.clone()])),
        }
    }
    by.into_iter()
        .map(|(c, ks)| SubQuery::Point(c, ks))
        .collect()
}

/// The page windows a paginated scan is served in.
fn pages(range: ScanRange, window: u64) -> Vec<ScanRange> {
    let window = window.max(1);
    let mut out = Vec::new();
    let mut first = range.first;
    while first <= range.last {
        let last = (first + window - 1).min(range.last);
        out.push(ScanRange::new(first, last));
        first = last + 1;
    }
    out
}

/// A certified genesis snapshot of every partition, built from the
/// same seed and dataset as the workload's deployment.
struct Fixture {
    topo: ClusterTopology,
    keys: KeyStore,
    signer: Keypair,
    execs: Vec<Executor>,
    commitments: Vec<CommittedHeader>,
    certs: Vec<Certificate>,
    verifier: ReadVerifier,
    depth: u32,
}

impl Fixture {
    fn new(seed: u64) -> Self {
        let topo = ClusterTopology::new(PARTITIONS, F).expect("valid topology");
        let mut root = [0u8; 32];
        root[..8].copy_from_slice(&seed.to_le_bytes());
        let (keys, secrets) = KeyStore::for_topology(&topo, &root);
        let data = generate_data(N_KEYS, 256);
        let depth = DEFAULT_TREE_DEPTH;
        let node = transedge_core::NodeConfig::default();
        let (mut execs, mut commitments, mut certs) = (Vec::new(), Vec::new(), Vec::new());
        for cluster in topo.clusters() {
            let mut exec = Executor::new(
                topo.clone(),
                ReplicaId::new(cluster, 0),
                keys.clone(),
                depth,
                node.freshness_window,
            );
            let genesis = exec.preload(data.iter().map(|(k, v)| (k, v)), SimTime::ZERO);
            let digest = BftValue::digest(&genesis);
            let stmt = accept_statement(cluster, BatchNum(0), &digest);
            let sigs = topo
                .replicas_of(cluster)
                .take(topo.certificate_quorum())
                .map(|r| (NodeId::Replica(r), secrets[&r].sign(&stmt)))
                .collect();
            certs.push(Certificate {
                cluster,
                slot: BatchNum(0),
                digest,
                sigs,
            });
            commitments.push(CommittedHeader::of(&genesis));
            execs.push(exec);
        }
        let verifier = ReadVerifier::new(VerifyParams {
            tree_depth: depth,
            freshness_window: node.freshness_window,
            quorum: topo.certificate_quorum(),
        });
        let signer = secrets[&ReplicaId::new(ClusterId(0), 0)].clone();
        Fixture {
            topo,
            keys,
            signer,
            execs,
            commitments,
            certs,
            verifier,
            depth,
        }
    }

    fn exec(&self, c: ClusterId) -> &Executor {
        &self.execs[c.as_usize()]
    }

    fn root(&self, c: ClusterId) -> Digest {
        self.commitments[c.as_usize()].header.merkle_root
    }

    fn multi_bundle(
        &self,
        c: ClusterId,
        body: MultiProofBody,
    ) -> MultiProofBundle<CommittedHeader> {
        MultiProofBundle {
            commitment: self.commitments[c.as_usize()].clone(),
            cert: self.certs[c.as_usize()].clone(),
            body,
        }
    }

    fn scan_bundle(&self, c: ClusterId, scan: ScanProof) -> ScanBundle<CommittedHeader> {
        ScanBundle {
            commitment: self.commitments[c.as_usize()].clone(),
            cert: self.certs[c.as_usize()].clone(),
            scan,
        }
    }

    /// Replica-side proof for one sub-query, as a response.
    fn prove(&self, sub: &SubQuery) -> ReadResponse<CommittedHeader> {
        let c = sub.cluster();
        match sub {
            SubQuery::Point(_, keys) => ReadResponse::Multi {
                bundle: Box::new(
                    self.multi_bundle(c, multi_snapshot(self.exec(c), keys, BatchNum(0))),
                ),
                fresh: None,
            },
            SubQuery::Scan(_, range) => ReadResponse::Scan {
                bundle: Box::new(
                    self.scan_bundle(c, scan_snapshot(self.exec(c), range, BatchNum(0))),
                ),
            },
        }
    }

    fn time_layers(&self, inp: &Inputs) -> Vec<Metric> {
        let mut out = Vec::new();
        let mut put = |name: &str, us: f64| out.push(Metric::new(name, "us", us));
        let depth = self.depth;

        // crypto
        let sigs: Vec<_> = inp.statements.iter().map(|m| self.signer.sign(m)).collect();
        put(
            "crypto.ed25519_sign_us",
            per_call(&inp.statements, |m| {
                black_box(self.signer.sign(m));
            }),
        );
        let public = self.signer.public();
        let signed: Vec<(&Vec<u8>, _)> = inp.statements.iter().zip(sigs).collect();
        put(
            "crypto.ed25519_verify_us",
            per_call(&signed, |(m, s)| {
                assert!(public.verify(m, s));
            }),
        );
        put(
            "crypto.sha256_kib_us",
            per_call(&inp.kib_blocks, |b| {
                black_box(sha256(b));
            }),
        );
        let proofs: Vec<(ClusterId, Vec<Key>, MultiProof)> = inp
            .points
            .iter()
            .map(|(c, keys)| {
                let mut sorted = keys.clone();
                sorted.sort();
                sorted.dedup();
                let proof = self.exec(*c).tree.prove_multi(&sorted, 0);
                (*c, sorted, proof)
            })
            .collect();
        put(
            "crypto.multiproof_prove_us",
            per_call(&proofs, |(c, keys, _)| {
                black_box(self.exec(*c).tree.prove_multi(keys, 0));
            }),
        );
        put(
            "crypto.multiproof_verify_us",
            per_call(&proofs, |(c, keys, proof)| {
                verify_multi_proof(&self.root(*c), depth, keys, proof)
                    .expect("honest multiproof verifies");
            }),
        );
        let ranges: Vec<(ClusterId, ScanRange, RangeProof)> = inp
            .scans
            .iter()
            .map(|(c, r)| (*c, *r, self.exec(*c).tree.prove_range(r, 0)))
            .collect();
        put(
            "crypto.range_prove_us",
            per_call(&ranges, |(c, r, _)| {
                black_box(self.exec(*c).tree.prove_range(r, 0));
            }),
        );
        put(
            "crypto.range_verify_us",
            per_call(&ranges, |(c, r, proof)| {
                verify_range_proof(&self.root(*c), depth, r, proof)
                    .expect("honest range proof verifies");
            }),
        );
        let digests: Vec<Vec<(Key, Digest)>> = inp
            .writes
            .iter()
            .map(|ws| {
                ws.iter()
                    .map(|(k, v)| (k.clone(), value_digest(v)))
                    .collect()
            })
            .collect();
        put(
            "crypto.merkle_apply_us",
            per_pass(digests.len(), || {
                let mut tree = VersionedMerkleTree::with_depth(depth);
                for (v, batch) in digests.iter().enumerate() {
                    black_box(tree.apply_batch(v as u64, batch.iter().map(|(k, d)| (k, *d))));
                }
            }),
        );

        // storage
        let writes: Vec<&(Key, Value)> = inp.writes.iter().flatten().collect();
        put(
            "storage.write_us",
            per_pass(writes.len(), || {
                let mut store = VersionedStore::new();
                for (i, (k, v)) in writes.iter().enumerate() {
                    store.write(k.clone(), v.clone(), BatchNum(i as u64 / 8));
                }
                black_box(store);
            }),
        );
        let point_keys: Vec<(ClusterId, &Key)> = inp
            .points
            .iter()
            .flat_map(|(c, ks)| ks.iter().map(move |k| (*c, k)))
            .collect();
        put(
            "storage.read_at_us",
            per_call(&point_keys, |(c, k)| {
                black_box(self.exec(*c).store.read_at(k, BatchNum(0)));
            }),
        );
        put(
            "storage.range_at_us",
            per_call(&inp.scans, |(c, r)| {
                black_box(
                    self.exec(*c)
                        .store
                        .range_at(r.digest_bounds(depth), BatchNum(0))
                        .count(),
                );
            }),
        );

        // consensus
        let quorum = self.topo.certificate_quorum();
        put(
            "consensus.cert_verify_us",
            per_call(&self.certs, |cert| {
                cert.verify(&self.keys, quorum)
                    .expect("genesis certificate verifies");
            }),
        );

        // edge
        let bundles: Vec<MultiProofBundle<CommittedHeader>> = inp
            .points
            .iter()
            .map(|(c, keys)| {
                self.multi_bundle(*c, multi_snapshot(self.exec(*c), keys, BatchNum(0)))
            })
            .collect();
        put(
            "edge.admit_multi_us",
            per_pass(bundles.len(), || {
                let mut caches = self.replay_caches();
                for b in &bundles {
                    caches[b.commitment.header.cluster.as_usize()].admit_multi(b);
                }
                black_box(caches);
            }),
        );
        let mut warm = self.replay_caches();
        for b in &bundles {
            warm[b.commitment.header.cluster.as_usize()].admit_multi(b);
        }
        // A cache keeps a bounded number of bodies per batch: time the
        // replays that hit once every body was admitted.
        let hits: Vec<&(ClusterId, Vec<Key>)> = inp
            .points
            .iter()
            .filter(|(c, keys)| {
                warm[c.as_usize()]
                    .replay_multi(keys, Epoch::NONE, SimTime::ZERO)
                    .is_some()
            })
            .collect();
        put(
            "edge.replay_multi_us",
            per_call(&hits, |(c, keys)| {
                let hit = warm[c.as_usize()].replay_multi(keys, Epoch::NONE, SimTime::ZERO);
                assert!(hit.is_some(), "a cached body keeps replaying");
            }),
        );
        put(
            "edge.serve_multi_us",
            per_pass(inp.points.len(), || {
                let mut pipes: Vec<ReadPipeline> =
                    self.execs.iter().map(|_| ReadPipeline::default()).collect();
                for (c, keys) in &inp.points {
                    black_box(pipes[c.as_usize()].serve_multi(self.exec(*c), keys, BatchNum(0)));
                }
            }),
        );
        put(
            "edge.serve_scan_us",
            per_pass(inp.scans.len(), || {
                let mut pipes: Vec<ReadPipeline> =
                    self.execs.iter().map(|_| ReadPipeline::default()).collect();
                for (c, r) in &inp.scans {
                    black_box(pipes[c.as_usize()].serve_scan(self.exec(*c), r, BatchNum(0)));
                }
            }),
        );
        let responses: Vec<(SubQuery, ReadQuery, ReadResponse<CommittedHeader>)> = inp
            .subs
            .iter()
            .map(|s| (s.clone(), s.query(), self.prove(s)))
            .collect();
        put(
            "edge.verify_query_us",
            per_call(&responses, |(s, q, r)| {
                self.verifier
                    .verify_query(&self.keys, s.cluster(), q, r, SimTime::ZERO)
                    .expect("honest response verifies");
            }),
        );

        // common::wire
        let encoded: Vec<Vec<u8>> = responses.iter().map(|(_, _, r)| encode(r)).collect();
        put(
            "wire.encode_us",
            per_call(&responses, |(_, _, r)| {
                black_box(encode(r));
            }),
        );
        put(
            "wire.decode_us",
            per_call(&encoded, |bytes| {
                black_box(decode(bytes).expect("own encoding decodes"));
            }),
        );
        out
    }

    fn replay_caches(&self) -> Vec<ReplayCache<CommittedHeader>> {
        self.execs
            .iter()
            .map(|_| ReplayCache::new(transedge_edge::pipeline::DEFAULT_CACHE_CAPACITY, 64))
            .collect()
    }

    /// The in-process read path, stage by stage, on every sub-query.
    fn loopback(&self, inp: &Inputs) -> (Vec<Metric>, Vec<String>) {
        const STAGES: [&str; 5] = ["prove", "edge", "encode", "decode", "verify"];
        let mut passes: Vec<([f64; 5], f64)> = Vec::new();
        for _ in 0..BLOCKS {
            let mut caches = self.replay_caches();
            let mut stage = [0f64; 5];
            let pass = Instant::now();
            for sub in &inp.subs {
                let query = sub.query();
                let c = sub.cluster();
                let t0 = Instant::now();
                let served = self.prove(sub);
                let t1 = Instant::now();
                let replayed = edge_replay(&mut caches[c.as_usize()], sub, served);
                let t2 = Instant::now();
                let bytes = encode(&replayed);
                let t3 = Instant::now();
                let decoded = decode(&bytes).expect("own encoding decodes");
                let t4 = Instant::now();
                let answer =
                    self.verifier
                        .verify_query(&self.keys, c, &query, &decoded, SimTime::ZERO);
                let t5 = Instant::now();
                assert!(answer.is_ok(), "loopback read verifies: {answer:?}");
                let ts = [t0, t1, t2, t3, t4, t5];
                for (i, s) in stage.iter_mut().enumerate() {
                    *s += (ts[i + 1] - ts[i]).as_secs_f64();
                }
            }
            // The whole pass, glue included, timed on its own clock.
            passes.push((stage, pass.elapsed().as_secs_f64()));
        }
        let n = inp.subs.len().max(1) as f64;
        let per = |x: f64| x * 1e6 / n;
        let mut out: Vec<Metric> = STAGES
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let v: Vec<f64> = passes.iter().map(|(s, _)| per(s[i])).collect();
                Metric::new(format!("loopback.{name}_us"), "us", median(&v))
            })
            .collect();
        let totals: Vec<f64> = passes.iter().map(|(_, t)| per(*t)).collect();
        let sums: Vec<f64> = passes.iter().map(|(s, _)| per(s.iter().sum())).collect();
        let (read_us, sum_us) = (median(&totals), median(&sums));
        out.push(Metric::new("loopback.read_us", "us", read_us));
        out.push(Metric::new("loopback.layer_sum_us", "us", sum_us));
        let gap = (read_us - sum_us).abs() / read_us;
        let problems = if gap > LOOPBACK_TOLERANCE {
            vec![format!(
                "loopback stages sum to {sum_us:.2} us but the read takes {read_us:.2} us (gap {gap:.3} > {LOOPBACK_TOLERANCE})"
            )]
        } else {
            Vec::new()
        };
        (out, problems)
    }
}

/// The edge's part of the loopback: admit the replica's response into
/// the replay cache, then answer the sub-query from the cache.
fn edge_replay(
    cache: &mut ReplayCache<CommittedHeader>,
    sub: &SubQuery,
    served: ReadResponse<CommittedHeader>,
) -> ReadResponse<CommittedHeader> {
    match (sub, served) {
        (SubQuery::Point(_, keys), ReadResponse::Multi { bundle, .. }) => {
            cache.admit_multi(&bundle);
            let bundle = cache
                .replay_multi(keys, Epoch::NONE, SimTime::ZERO)
                .unwrap_or(*bundle);
            ReadResponse::Multi {
                bundle: Box::new(bundle),
                fresh: None,
            }
        }
        (SubQuery::Scan(_, range), ReadResponse::Scan { bundle }) => {
            cache.admit_scan(&bundle);
            let bundle = cache
                .replay_scan(range, Epoch::NONE, SimTime::ZERO)
                .unwrap_or(*bundle);
            ReadResponse::Scan {
                bundle: Box::new(bundle),
            }
        }
        (_, other) => other,
    }
}

/// Wire image of a multiproof or scan response: commitment,
/// certificate, body.
fn encode(r: &ReadResponse<CommittedHeader>) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(4096);
    match r {
        ReadResponse::Multi { bundle, .. } => {
            w.put_u8(0);
            bundle.commitment.header.encode(&mut w);
            bundle.commitment.body_digest.encode(&mut w);
            bundle.cert.encode(&mut w);
            w.put_seq(&bundle.body.keys);
            w.put_seq(&bundle.body.values);
            bundle.body.proof.encode(&mut w);
        }
        ReadResponse::Scan { bundle } => {
            w.put_u8(1);
            bundle.commitment.header.encode(&mut w);
            bundle.commitment.body_digest.encode(&mut w);
            bundle.cert.encode(&mut w);
            bundle.scan.range.encode(&mut w);
            w.put_seq(&bundle.scan.rows);
            bundle.scan.proof.encode(&mut w);
        }
        _ => unreachable!("the loopback serves multiproofs and scans only"),
    }
    w.into_bytes()
}

fn decode(bytes: &[u8]) -> transedge_common::Result<ReadResponse<CommittedHeader>> {
    let mut r = WireReader::new(bytes);
    let tag = r.get_u8()?;
    let commitment = CommittedHeader {
        header: BatchHeader::decode(&mut r)?,
        body_digest: Digest::decode(&mut r)?,
    };
    let cert = Certificate::decode(&mut r)?;
    Ok(if tag == 0 {
        let keys: Vec<Key> = r.get_seq()?;
        let values: Vec<Option<Value>> = r.get_seq()?;
        let proof = MultiProof::decode(&mut r)?;
        ReadResponse::Multi {
            bundle: Box::new(MultiProofBundle {
                commitment,
                cert,
                body: MultiProofBody::new(keys, values, proof),
            }),
            fresh: None,
        }
    } else {
        let range = ScanRange::decode(&mut r)?;
        let rows: Vec<(Key, Value)> = r.get_seq()?;
        let proof = RangeProof::decode(&mut r)?;
        ReadResponse::Scan {
            bundle: Box::new(ScanBundle {
                commitment,
                cert,
                scan: ScanProof { range, rows, proof },
            }),
        }
    })
}

/// Median over [`BLOCKS`] blocks of the mean wall time per call of `f`
/// over `inputs` (each block repeats the inputs for at least
/// [`BLOCK_MIN`]), in microseconds.
fn per_call<T>(inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    per_pass(inputs.len(), || inputs.iter().for_each(&mut f))
}

/// Median over [`BLOCKS`] blocks of the wall time of `pass` divided by
/// the `calls` it makes, in microseconds. One untimed pass warms up.
fn per_pass(calls: usize, mut pass: impl FnMut()) -> f64 {
    pass();
    let blocks: Vec<f64> = (0..BLOCKS)
        .map(|_| {
            let start = Instant::now();
            let mut n = 0usize;
            while n == 0 || start.elapsed() < BLOCK_MIN {
                pass();
                n += calls.max(1);
            }
            start.elapsed().as_secs_f64() * 1e6 / n as f64
        })
        .collect();
    median(&blocks)
}
