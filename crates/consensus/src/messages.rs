//! Consensus message types, signed statements, and certificates.

use transedge_common::{
    BatchNum, ClusterId, Decode, Encode, NodeId, ReplicaId, Result, TransEdgeError, ViewNum,
    WireReader, WireWriter,
};
use transedge_crypto::{Digest, KeyStore, Signature};

/// A value that can go through consensus: it must expose a canonical
/// digest (what WRITE/ACCEPT votes and certificates sign).
pub trait BftValue: Clone {
    fn digest(&self) -> Digest;
}

impl BftValue for Vec<u8> {
    fn digest(&self) -> Digest {
        transedge_crypto::sha256(self)
    }
}

/// The canonical byte statement a WRITE vote signs.
/// Write votes are view-scoped: a write certificate from view `v`
/// must not be confused with one from view `v+1`.
pub fn write_statement(
    cluster: ClusterId,
    view: ViewNum,
    slot: BatchNum,
    digest: &Digest,
) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(64);
    w.put_bytes(b"transedge/write");
    cluster.encode(&mut w);
    view.encode(&mut w);
    slot.encode(&mut w);
    digest.encode(&mut w);
    w.into_bytes()
}

/// The canonical byte statement an ACCEPT vote signs.
/// Accept votes are *not* view-scoped: the decided value for a slot is
/// unique across views, and clients verifying a certificate should not
/// need to know which view decided it.
pub fn accept_statement(cluster: ClusterId, slot: BatchNum, digest: &Digest) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(64);
    w.put_bytes(b"transedge/accept");
    cluster.encode(&mut w);
    slot.encode(&mut w);
    digest.encode(&mut w);
    w.into_bytes()
}

/// Statement signed by a PROPOSE.
pub fn propose_statement(
    cluster: ClusterId,
    view: ViewNum,
    slot: BatchNum,
    digest: &Digest,
) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(64);
    w.put_bytes(b"transedge/propose");
    cluster.encode(&mut w);
    view.encode(&mut w);
    slot.encode(&mut w);
    digest.encode(&mut w);
    w.into_bytes()
}

/// Statement signed by a VIEW-CHANGE vote.
pub fn view_change_statement(
    cluster: ClusterId,
    new_view: ViewNum,
    delivered: BatchNum,
    prepared: &Option<(ViewNum, BatchNum, Digest)>,
) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(96);
    w.put_bytes(b"transedge/view-change");
    cluster.encode(&mut w);
    new_view.encode(&mut w);
    delivered.encode(&mut w);
    match prepared {
        None => w.put_u8(0),
        Some((v, s, d)) => {
            w.put_u8(1);
            v.encode(&mut w);
            s.encode(&mut w);
            d.encode(&mut w);
        }
    }
    w.into_bytes()
}

/// An `f+1` signature certificate over a decided slot.
///
/// This is the object TransEdge attaches to every batch: proof for any
/// client that the batch (identified by its digest) is the decided
/// value of `slot` in this cluster's log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    pub cluster: ClusterId,
    pub slot: BatchNum,
    pub digest: Digest,
    pub sigs: Vec<(NodeId, Signature)>,
}

impl Certificate {
    /// Verify against the public-key directory: at least `quorum`
    /// distinct valid signatures over the accept statement.
    pub fn verify(&self, keys: &KeyStore, quorum: usize) -> Result<()> {
        self.verify_counting(keys, quorum).1
    }

    /// [`Certificate::verify`], also returning how many signatures it
    /// checked: one per distinct signer, or none when a signer is not a
    /// replica of the cluster (that check fails before any signature).
    pub fn verify_counting(&self, keys: &KeyStore, quorum: usize) -> (u64, Result<()>) {
        // Signers must be replicas of the right cluster.
        for (node, _) in &self.sigs {
            match node {
                NodeId::Replica(r) if r.cluster == self.cluster => {}
                other => {
                    let err = TransEdgeError::Verification(format!(
                        "certificate signer {other} is not a replica of {}",
                        self.cluster
                    ));
                    return (0, Err(err));
                }
            }
        }
        let mut signers: Vec<NodeId> = self.sigs.iter().map(|(node, _)| *node).collect();
        signers.sort_unstable();
        signers.dedup();
        let stmt = accept_statement(self.cluster, self.slot, &self.digest);
        (
            signers.len() as u64,
            keys.require_quorum(&stmt, &self.sigs, quorum),
        )
    }
}

impl Encode for Certificate {
    fn encode(&self, w: &mut WireWriter) {
        self.cluster.encode(w);
        self.slot.encode(w);
        self.digest.encode(w);
        w.put_u32(self.sigs.len() as u32);
        for (node, sig) in &self.sigs {
            node.encode(w);
            sig.encode(w);
        }
    }
}

impl Decode for Certificate {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        let cluster = ClusterId::decode(r)?;
        let slot = BatchNum::decode(r)?;
        let digest = Digest::decode(r)?;
        let n = r.get_u32()? as usize;
        let mut sigs = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            sigs.push((NodeId::decode(r)?, Signature::decode(r)?));
        }
        Ok(Certificate {
            cluster,
            slot,
            digest,
            sigs,
        })
    }
}

/// A signed VIEW-CHANGE vote.
#[derive(Clone, Debug)]
pub struct ViewChangeVote {
    pub new_view: ViewNum,
    /// Highest slot this replica has delivered.
    pub delivered: BatchNum,
    /// If the replica holds a 2f+1 WRITE quorum for an undecided slot:
    /// (view it was written in, slot, digest) plus the value itself.
    pub prepared: Option<(ViewNum, BatchNum, Digest)>,
    pub sig: Signature,
}

/// Consensus protocol messages exchanged within one cluster.
#[derive(Clone, Debug)]
pub enum BftMsg<V> {
    /// Leader's proposal for `slot` in `view`.
    Propose {
        view: ViewNum,
        slot: BatchNum,
        value: V,
        sig: Signature,
    },
    /// WRITE vote (phase 2).
    Write {
        view: ViewNum,
        slot: BatchNum,
        digest: Digest,
        sig: Signature,
    },
    /// ACCEPT vote (phase 3). Its signature doubles as a certificate
    /// share.
    Accept {
        slot: BatchNum,
        digest: Digest,
        sig: Signature,
    },
    /// Vote to move to `new_view`. If the voter holds a write-quorum
    /// ("prepared") value for the undecided slot, it ships the value so
    /// the new leader can re-propose it; the vote's signed digest binds
    /// it.
    ViewChange {
        vote: ViewChangeVote,
        prepared_value: Option<V>,
    },
    /// New leader's installation message: the 2f+1 view-change votes
    /// justifying the view, and the value it must re-propose (if any).
    NewView {
        view: ViewNum,
        votes: Vec<(ReplicaId, ViewChangeVote)>,
        /// Re-proposed prepared value, if some vote carried one.
        reproposal: Option<V>,
    },
    /// Catch-up: ask for decided slots starting at `from`.
    StateRequest { from: BatchNum },
    /// Catch-up response: decided values with their certificates.
    StateResponse {
        batches: Vec<(BatchNum, V, Certificate)>,
    },
}

impl<V> BftMsg<V> {
    /// Short tag for logging/metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            BftMsg::Propose { .. } => "propose",
            BftMsg::Write { .. } => "write",
            BftMsg::Accept { .. } => "accept",
            BftMsg::ViewChange { .. } => "view-change",
            BftMsg::NewView { .. } => "new-view",
            BftMsg::StateRequest { .. } => "state-request",
            BftMsg::StateResponse { .. } => "state-response",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transedge_common::ClusterTopology;
    use transedge_crypto::KeyStore;

    #[test]
    fn statements_are_domain_separated() {
        let d = Digest([1; 32]);
        let w = write_statement(ClusterId(0), ViewNum(0), BatchNum(0), &d);
        let a = accept_statement(ClusterId(0), BatchNum(0), &d);
        let p = propose_statement(ClusterId(0), ViewNum(0), BatchNum(0), &d);
        assert_ne!(w, a);
        assert_ne!(w, p);
        assert_ne!(a, p);
    }

    #[test]
    fn write_statement_is_view_scoped_accept_is_not() {
        let d = Digest([2; 32]);
        assert_ne!(
            write_statement(ClusterId(0), ViewNum(0), BatchNum(1), &d),
            write_statement(ClusterId(0), ViewNum(1), BatchNum(1), &d)
        );
        // accept has no view in it at all — same statement regardless.
        assert_eq!(
            accept_statement(ClusterId(0), BatchNum(1), &d),
            accept_statement(ClusterId(0), BatchNum(1), &d)
        );
    }

    #[test]
    fn certificate_verification() {
        let topo = ClusterTopology::new(1, 1).unwrap();
        let (keys, secrets) = KeyStore::for_topology(&topo, &[1u8; 32]);
        let digest = Digest([7; 32]);
        let stmt = accept_statement(ClusterId(0), BatchNum(3), &digest);
        let sigs: Vec<_> = topo
            .replicas_of(ClusterId(0))
            .take(2)
            .map(|r| (NodeId::Replica(r), secrets[&r].sign(&stmt)))
            .collect();
        let cert = Certificate {
            cluster: ClusterId(0),
            slot: BatchNum(3),
            digest,
            sigs,
        };
        assert!(cert.verify(&keys, 2).is_ok());
        assert!(cert.verify(&keys, 3).is_err());
        // Tampered digest invalidates.
        let mut bad = cert.clone();
        bad.digest = Digest([8; 32]);
        assert!(bad.verify(&keys, 2).is_err());
        // Each distinct signer is checked once, valid or not.
        assert_eq!(cert.verify_counting(&keys, 2).0, 2);
        assert_eq!(bad.verify_counting(&keys, 2).0, 2);
        let mut repeated = cert.clone();
        repeated.sigs.push(repeated.sigs[0]);
        assert_eq!(repeated.verify_counting(&keys, 2).0, 2);
    }

    #[test]
    fn certificate_rejects_foreign_signers() {
        let topo = ClusterTopology::new(2, 1).unwrap();
        let (keys, secrets) = KeyStore::for_topology(&topo, &[1u8; 32]);
        let digest = Digest([7; 32]);
        let stmt = accept_statement(ClusterId(0), BatchNum(0), &digest);
        // Signature from a replica of cluster 1 on a cluster-0 cert.
        let foreign = transedge_common::ReplicaId::new(ClusterId(1), 0);
        let cert = Certificate {
            cluster: ClusterId(0),
            slot: BatchNum(0),
            digest,
            sigs: vec![(NodeId::Replica(foreign), secrets[&foreign].sign(&stmt))],
        };
        assert!(cert.verify(&keys, 1).is_err());
        // Rejected on the signer check, before any signature.
        assert_eq!(cert.verify_counting(&keys, 1).0, 0);
    }

    #[test]
    fn certificate_wire_roundtrip() {
        use transedge_common::wire::roundtrip;
        let topo = ClusterTopology::new(1, 1).unwrap();
        let (_, secrets) = KeyStore::for_topology(&topo, &[1u8; 32]);
        let r = transedge_common::ReplicaId::new(ClusterId(0), 0);
        let cert = Certificate {
            cluster: ClusterId(0),
            slot: BatchNum(1),
            digest: Digest([3; 32]),
            sigs: vec![(NodeId::Replica(r), secrets[&r].sign(b"x"))],
        };
        roundtrip(&cert);
    }
}
