//! The output check: every read a client recorded is compared with
//! ground truth, for every client (not only up to the first one with a
//! third ROT round).
//!
//! Two independent truths are used:
//! * the *permissible* values of a key — its genesis value plus every
//!   value a script writes to it; this needs nothing from the system;
//! * the exact value at the snapshot the client was served — read from
//!   the most advanced honest replica's multi-version store at the
//!   partition's snapshot batch. Scans must return exactly the rows
//!   that store holds in the window at that batch.
//!
//! Snapshot atomicity: a read pins each partition it touches exactly
//! once. With only honest edges, no response may fail verification.

use std::collections::{HashMap, HashSet};

use transedge_common::{BatchNum, ClusterId, ClusterTopology, Key, NodeId, ReplicaId, Value};
use transedge_core::client::ClientOp;
use transedge_core::setup::Deployment;
use transedge_core::{ClientActor, QueryShape, TransEdgeNode};
use transedge_crypto::ScanRange;

/// Errors kept verbatim; past this many only the count grows.
const MAX_REPORTED: usize = 8;

#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    pub errors: Vec<String>,
    pub error_count: u64,
    /// Read operations whose results were checked.
    pub reads_checked: u64,
    /// Individual values and scan rows compared with ground truth.
    pub values_checked: u64,
}

impl CheckReport {
    fn fail(&mut self, msg: String) {
        self.error_count += 1;
        if self.errors.len() < MAX_REPORTED {
            self.errors.push(msg);
        }
    }
}

struct Truth<'a> {
    topo: &'a ClusterTopology,
    permissible: HashMap<Key, HashSet<Value>>,
    /// The replica of each partition that applied the most batches.
    oracle: HashMap<ClusterId, &'a TransEdgeNode>,
    depth: u32,
}

impl<'a> Truth<'a> {
    fn new(dep: &'a Deployment, scripts: &[Vec<ClientOp>]) -> Self {
        let mut permissible: HashMap<Key, HashSet<Value>> = HashMap::new();
        for (k, v) in &dep.data {
            permissible.entry(k.clone()).or_default().insert(v.clone());
        }
        for op in scripts.iter().flatten() {
            if let ClientOp::ReadWrite { writes, .. } = op {
                for (k, v) in writes {
                    permissible.entry(k.clone()).or_default().insert(v.clone());
                }
            }
        }
        let oracle = dep
            .topo
            .clusters()
            .map(|c| {
                let best = dep
                    .topo
                    .replicas_of(c)
                    .map(|r: ReplicaId| dep.node(r))
                    .max_by_key(|n| n.exec.applied_batches())
                    .expect("cluster has replicas");
                (c, best)
            })
            .collect();
        Truth {
            topo: &dep.topo,
            permissible,
            oracle,
            depth: dep.config.node.tree_depth,
        }
    }

    /// Check point answers against the snapshot they were served at.
    fn check_values(
        &self,
        report: &mut CheckReport,
        who: &str,
        asked: &[Key],
        got: &[(Key, Option<Value>)],
        snapshot: &[(ClusterId, BatchNum)],
    ) {
        let asked_set: HashSet<&Key> = asked.iter().collect();
        let got_set: HashSet<&Key> = got.iter().map(|(k, _)| k).collect();
        if asked_set != got_set || got_set.len() != got.len() {
            report.fail(format!("{who}: answered keys differ from the keys asked"));
        }
        for (key, value) in got {
            report.values_checked += 1;
            let cluster = self.topo.partition_of(key);
            let Some(batch) = pinned(snapshot, cluster) else {
                report.fail(format!("{who}: no snapshot for {cluster:?}"));
                continue;
            };
            let allowed = value
                .as_ref()
                .is_some_and(|v| self.permissible.get(key).is_some_and(|s| s.contains(v)));
            if !allowed {
                report.fail(format!("{who}: {key:?} read a value never written"));
            }
            let Some(node) = self.live_oracle(report, who, cluster, batch) else {
                continue;
            };
            if node.exec.store.read_at(key, batch).map(|v| &v.value) != value.as_ref() {
                report.fail(format!(
                    "{who}: {key:?} differs from {cluster:?} at {batch:?}"
                ));
            }
        }
    }

    /// Check scan rows: exactly the window's rows at the snapshot.
    fn check_rows(
        &self,
        report: &mut CheckReport,
        who: &str,
        cluster: ClusterId,
        range: &ScanRange,
        batch: BatchNum,
        rows: &[(Key, Value)],
    ) {
        let Some(node) = self.live_oracle(report, who, cluster, batch) else {
            return;
        };
        let expected: Vec<(Key, Value)> = node
            .exec
            .store
            .range_at(range.digest_bounds(self.depth), batch)
            .map(|(k, v)| (k.clone(), v.value.clone()))
            .collect();
        report.values_checked += rows.len() as u64;
        if rows != expected.as_slice() {
            report.fail(format!(
                "{who}: scan of {cluster:?} {}..={} returned {} rows, store holds {}",
                range.first,
                range.last,
                rows.len(),
                expected.len()
            ));
        }
        for (key, value) in rows {
            if !self.permissible.get(key).is_some_and(|s| s.contains(value)) {
                report.fail(format!(
                    "{who}: scan row {key:?} holds a value never written"
                ));
            }
        }
    }

    fn live_oracle(
        &self,
        report: &mut CheckReport,
        who: &str,
        cluster: ClusterId,
        batch: BatchNum,
    ) -> Option<&'a TransEdgeNode> {
        let node = self.oracle[&cluster];
        if node.exec.applied_batches() <= batch.0 {
            report.fail(format!(
                "{who}: served {batch:?} of {cluster:?} was never applied"
            ));
            return None;
        }
        Some(node)
    }
}

fn pinned(snapshot: &[(ClusterId, BatchNum)], cluster: ClusterId) -> Option<BatchNum> {
    snapshot
        .iter()
        .find(|(c, _)| *c == cluster)
        .map(|(_, b)| *b)
}

/// Each touched partition pinned exactly once, and nothing else.
fn check_snapshot(
    report: &mut CheckReport,
    who: &str,
    touched: &[ClusterId],
    snapshot: &[(ClusterId, BatchNum)],
) {
    let mut seen: Vec<ClusterId> = snapshot.iter().map(|(c, _)| *c).collect();
    seen.sort_unstable();
    let pinned_once = seen.windows(2).all(|w| w[0] != w[1]);
    let mut want = touched.to_vec();
    want.sort_unstable();
    want.dedup();
    if !pinned_once || seen != want {
        report.fail(format!(
            "{who}: snapshot {snapshot:?} is not one cut over {want:?}"
        ));
    }
}

/// Check every recorded result of every client against ground truth.
pub fn check_outputs(dep: &Deployment, scripts: &[Vec<ClientOp>]) -> CheckReport {
    let truth = Truth::new(dep, scripts);
    let mut report = CheckReport::default();
    for (id, script) in dep.client_ids.iter().zip(scripts) {
        let client: &ClientActor = dep.sim.actor_as(NodeId::Client(*id)).expect("client actor");
        if client.stats.verification_failures > 0 {
            report.fail(format!(
                "{id}: {} verification failures with only honest edges",
                client.stats.verification_failures
            ));
        }
        let (mut rot, mut scan, mut query, mut txn) = (0usize, 0usize, 0usize, 0usize);
        for (i, op) in script.iter().enumerate() {
            let who = format!("{id} op {i}");
            match op {
                ClientOp::ReadOnly { keys } => {
                    let Some(r) = client.rot_results.get(rot) else {
                        continue;
                    };
                    rot += 1;
                    report.reads_checked += 1;
                    let touched: Vec<ClusterId> =
                        keys.iter().map(|k| truth.topo.partition_of(k)).collect();
                    check_snapshot(&mut report, &who, &touched, &r.snapshot);
                    truth.check_values(&mut report, &who, keys, &r.values, &r.snapshot);
                }
                ClientOp::RangeScan { cluster, range } => {
                    let Some(r) = client.scan_results.get(scan) else {
                        continue;
                    };
                    scan += 1;
                    report.reads_checked += 1;
                    if r.cluster != *cluster || r.range != *range {
                        report.fail(format!("{who}: scan answered a different window"));
                    }
                    truth.check_rows(&mut report, &who, *cluster, range, r.batch, &r.rows);
                }
                ClientOp::Query { query: q } => {
                    let Some(r) = client.query_results.get(query) else {
                        continue;
                    };
                    query += 1;
                    report.reads_checked += 1;
                    match &q.shape {
                        QueryShape::Point { keys } => {
                            let touched: Vec<ClusterId> =
                                keys.iter().map(|k| truth.topo.partition_of(k)).collect();
                            check_snapshot(&mut report, &who, &touched, &r.snapshot);
                            truth.check_values(&mut report, &who, keys, &r.values, &r.snapshot);
                        }
                        QueryShape::Scan {
                            clusters, range, ..
                        } => {
                            check_snapshot(&mut report, &who, clusters, &r.snapshot);
                            let answered: Vec<ClusterId> = r.rows.iter().map(|(c, _)| *c).collect();
                            let mut want = clusters.clone();
                            want.sort_unstable();
                            let mut got = answered.clone();
                            got.sort_unstable();
                            if got != want {
                                report.fail(format!("{who}: scan answered {answered:?}"));
                            }
                            for (cluster, rows) in &r.rows {
                                if let Some(batch) = pinned(&r.snapshot, *cluster) {
                                    truth.check_rows(
                                        &mut report,
                                        &who,
                                        *cluster,
                                        range,
                                        batch,
                                        rows,
                                    );
                                }
                            }
                        }
                    }
                }
                ClientOp::ReadWrite { reads, .. } => {
                    let Some(t) = client.txn_outcomes.get(txn) else {
                        continue;
                    };
                    txn += 1;
                    let asked: HashSet<&Key> = reads.iter().collect();
                    for (key, value) in &t.reads {
                        report.values_checked += 1;
                        let allowed = value.as_ref().is_some_and(|v| {
                            truth.permissible.get(key).is_some_and(|s| s.contains(v))
                        });
                        if !asked.contains(key) || !allowed {
                            report.fail(format!("{who}: OCC read of {key:?} is not permissible"));
                        }
                    }
                }
            }
        }
        let recorded =
            client.rot_results.len() + client.scan_results.len() + client.query_results.len();
        if rot + scan + query != recorded {
            report.fail(format!(
                "{id}: {recorded} read results for {} read ops",
                rot + scan + query
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use transedge_common::SimTime;

    use crate::workload::Workload;

    fn finished(w: Workload) -> (Deployment, Vec<Vec<ClientOp>>) {
        let scripts: Vec<Vec<ClientOp>> = w
            .scripts(5)
            .into_iter()
            .map(|mut s| {
                s.truncate(4);
                s
            })
            .collect();
        let mut dep = Deployment::build_custom(w.config(5), w.plans(&scripts));
        dep.run_until_done(SimTime(600_000_000));
        (dep, scripts)
    }

    fn client_mut(dep: &mut Deployment) -> &mut ClientActor {
        let id = dep.client_ids[0];
        dep.sim
            .actor_as_mut::<ClientActor>(NodeId::Client(id))
            .expect("client actor")
    }

    #[test]
    fn honest_runs_pass_and_tampered_results_fail() {
        for w in Workload::ALL {
            let (mut dep, scripts) = finished(w);
            let clean = check_outputs(&dep, &scripts);
            assert!(clean.errors.is_empty(), "{}: {:?}", w.name(), clean.errors);
            assert!(clean.reads_checked > 0 && clean.values_checked > 0);

            // A value no script wrote, accepted by a client, must fail.
            let client = client_mut(&mut dep);
            let values = client
                .query_results
                .iter_mut()
                .map(|q| &mut q.values)
                .chain(client.rot_results.iter_mut().map(|r| &mut r.values))
                .find(|v| !v.is_empty());
            if let Some(values) = values {
                values[0].1 = Some(Value::filled(256, 0xEE));
                let report = check_outputs(&dep, &scripts);
                assert!(report.error_count > 0, "{}: forged value passed", w.name());
            }
        }
    }

    #[test]
    fn torn_snapshots_and_dropped_rows_fail() {
        let (mut dep, scripts) = finished(Workload::ColdReads);
        let client = client_mut(&mut dep);
        if let Some(q) = client
            .query_results
            .iter_mut()
            .find(|q| !q.snapshot.is_empty())
        {
            let first = q.snapshot[0];
            q.snapshot.push(first);
        } else if let Some(s) = client.scan_results.iter_mut().find(|s| !s.rows.is_empty()) {
            s.rows.pop();
        } else {
            panic!("cold_reads recorded no reads");
        }
        assert!(check_outputs(&dep, &scripts).error_count > 0);
    }
}
