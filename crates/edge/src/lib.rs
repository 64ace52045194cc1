//! # transedge-edge
//!
//! The proof-carrying edge read subsystem: everything between a
//! replica's versioned store and a client accepting a snapshot read
//! from an **untrusted** node, packaged as a reusable layer.
//!
//! TransEdge's headline property (paper §3–§4) is that read-only
//! transactions are served by *single, untrusted* nodes, and clients
//! verify what they get against cryptographic commitments: a Merkle
//! (non-)inclusion proof per key, chained to a batch root, chained to
//! an `f+1`-signed consensus certificate. WedgeChain's lazy-trust
//! edge/cloud split and Axiograph's "untrusted engines compute, a small
//! trusted checker verifies" design argue for isolating exactly that
//! boundary — this crate is that boundary:
//!
//! * [`pipeline`] — the serving side. [`pipeline::SnapshotSource`]
//!   abstracts a replica's multi-version store + versioned Merkle tree;
//!   [`pipeline::ReadPipeline`] assembles [`ProvenRead`]s from it,
//!   memoising per-`(key, batch)` proofs in an LRU cache (snapshot
//!   reads are immutable, so cached entries never go stale).
//! * [`cache`] — the LRU cache with hit/miss/eviction counters, also
//!   used stand-alone by edge replay nodes.
//! * [`replay`] — the store-free serving side: an edge cache node that
//!   holds no partition state and no keys, only certified response
//!   fragments it absorbed from upstream, replayed to clients who
//!   verify them end to end.
//! * [`query`] — the unified typed read protocol: one
//!   [`query::ReadQuery`] ([`query::SnapshotPolicy`] ×
//!   [`query::QueryShape`] × [`query::PageToken`]) names every read
//!   shape — point reads, LCE-floored round-2 fetches, verified scans,
//!   paginated multi-window scans, scatter-gather sub-queries — and
//!   one [`query::ReadResponse`] answers it.
//! * [`verifier`] — the trusted-side checker. [`verifier::ReadVerifier`]
//!   accepts a response only after proof → root → certificate →
//!   freshness → snapshot-epoch checks all pass; everything an edge
//!   node could forge is caught here and reported as a
//!   [`verifier::ReadRejection`]. It has three public entry points:
//!   `verify_query` (every read response, and every object read back
//!   from disk), `verify_query_resuming` (scan restarts over a held
//!   prefix) and `verify_delta` (pushed feed deltas). Each returns a
//!   [`verifier::VerifyReceipt`] counting the signatures and Merkle
//!   leaves it actually checked — the only source of simulated
//!   verification cost.
//!
//! Point reads and range scans share the same shape: [`ScanProof`] /
//! [`ScanBundle`] are the scan analogues of [`ProvenRead`] /
//! [`ProofBundle`], with a Merkle *range* proof
//! (`transedge_crypto::range`) standing in for per-key proofs so the
//! verifier can check **completeness** — an untrusted node cannot omit
//! a row inside a scanned window undetected.
//!
//! Throughput mode adds a third proof shape: [`MultiProofBody`] /
//! [`MultiProofBundle`] batch many point reads behind **one**
//! deduplicated Merkle multiproof, encoded exactly once into a shared
//! byte buffer — caching, replaying, or subset-serving a body is a
//! refcount bump, not a re-serialisation. The serving pipeline
//! coalesces concurrent reads pinned to the same batch into one body
//! ([`ReadPipeline::serve_multi`]).
//!
//! The crate deliberately does not know about network messages or the
//! batch format: commitments enter through the [`BatchCommitment`]
//! trait, which `transedge-core` implements for its certified batch
//! headers. That keeps the trust boundary auditable in one place and
//! lets the read path scale (more edge nodes, bigger caches)
//! independently of the transaction-processing stack.

pub mod cache;
pub mod persist;
pub mod pipeline;
pub mod query;
pub mod replay;
pub mod response;
pub mod verifier;

pub use cache::{CacheStats, LruCache};
pub use persist::{
    is_stale_only, readmit, verify_object, HeadRecord, HydrateReject, PersistPlan, PersistStats,
    SnapshotObject, SnapshotStore, DEFAULT_SPILL_THRESHOLD,
};
pub use pipeline::{
    multi_snapshot, read_snapshot, scan_snapshot, ReadPipeline, SnapshotSource, MAX_COALESCED_KEYS,
};
pub use query::{
    GatherPart, PageToken, PrefixResume, QueryAnswer, QueryShape, ReadQuery, ReadResponse,
    SnapshotPolicy,
};
pub use replay::{Assembly, ReplayCache, ReplayStats, MAX_FEED_DELTAS};
pub use response::{
    changed_keys_digest, BatchCommitment, CertifiedDelta, MultiProofBody, MultiProofBundle,
    ProofBundle, ProvenRead, ScanBundle, ScanProof,
};
pub use verifier::{Accepted, ReadRejection, ReadVerifier, Rejected, VerifyParams, VerifyReceipt};
