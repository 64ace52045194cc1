//! The three named workloads: deployment shape, client profile and the
//! seeded operation scripts every client runs closed-loop.
//!
//! Each workload loads a different layer (see `README.md`): `hot_reads`
//! the edge replay path and client verification, `cold_reads` replica
//! proof generation and large proof bodies, `mixed_rw` consensus, 2PC,
//! OCC validation and the commit feed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use transedge_common::{ClusterTopology, SimDuration};
use transedge_core::client::ClientOp;
use transedge_core::setup::{ClientPlan, DeploymentConfig};
use transedge_core::{CacheConfig, ClientProfile, EdgeConfig};
use transedge_workload::{KeyDistribution, WorkloadSpec};

/// Partitions (clusters) of every workload.
pub const PARTITIONS: u16 = 5;
/// Tolerated byzantine replicas per cluster (4 replicas, `f+1 = 2`
/// signatures per certificate).
pub const F: u16 = 1;
/// Keys preloaded across all partitions.
pub const N_KEYS: u32 = 10_000;
/// `cold_reads` edge replay-cache capacity in fragments — well under
/// the 2 000 keys each partition holds, so uniform reads mostly miss.
const COLD_CACHE_FRAGMENTS: usize = 256;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HotReads,
    ColdReads,
    MixedRw,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HotReads, Workload::ColdReads, Workload::MixedRw];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotReads => "hot_reads",
            Workload::ColdReads => "cold_reads",
            Workload::MixedRw => "mixed_rw",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients, one operation in flight each.
    fn clients(self) -> usize {
        match self {
            Workload::HotReads | Workload::ColdReads => 8,
            // At 8 clients about half the ROTs finish in the fast
            // one-round mode, so the median flips between modes from
            // seed to seed; at 4 about 60% do and the median is stable.
            Workload::MixedRw => 4,
        }
    }

    /// Operations per client per repetition.
    fn ops_per_client(self) -> usize {
        match self {
            Workload::HotReads => 100,
            Workload::ColdReads => 120,
            Workload::MixedRw => 320,
        }
    }

    /// The deployment every repetition of this workload builds.
    pub fn config(self, seed: u64) -> DeploymentConfig {
        let mut config = DeploymentConfig {
            topo: ClusterTopology::new(PARTITIONS, F).expect("valid topology"),
            seed,
            n_keys: N_KEYS,
            ..DeploymentConfig::default()
        };
        // The output check needs every value a client accepted.
        config.client.record_results = true;
        config.edge = match self {
            Workload::HotReads => EdgeConfig::builder()
                .per_cluster(2)
                .gossip_directory(SimDuration::from_millis(20))
                .build(),
            Workload::ColdReads => EdgeConfig::builder()
                .per_cluster(1)
                .cache(CacheConfig {
                    capacity: COLD_CACHE_FRAGMENTS,
                    ..CacheConfig::default()
                })
                .build(),
            Workload::MixedRw => EdgeConfig::builder()
                .per_cluster(1)
                .commit_feed(SimDuration::from_millis(50))
                .build(),
        }
        .expect("valid edge config");
        config
    }

    fn profile(self) -> ClientProfile {
        match self {
            Workload::HotReads => ClientProfile::new().single_contact(),
            Workload::ColdReads => ClientProfile::new(),
            Workload::MixedRw => ClientProfile::new().subscriber(),
        }
    }

    /// One script per client, derived from `seed` alone.
    pub fn scripts(self, seed: u64) -> Vec<Vec<ClientOp>> {
        let topo = ClusterTopology::new(PARTITIONS, F).expect("valid topology");
        let n = self.ops_per_client();
        (0..self.clients())
            .map(|c| {
                let client_seed = seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                match self {
                    Workload::HotReads => WorkloadSpec {
                        distribution: KeyDistribution::Zipfian { theta: 0.99 },
                        n_keys: N_KEYS,
                        ..WorkloadSpec::scatter_points(topo.clone(), 6, 3)
                    }
                    .generate(n, client_seed),
                    Workload::ColdReads => cold_script(&topo, n, client_seed),
                    Workload::MixedRw => mixed_script(&topo, n, client_seed),
                }
            })
            .collect()
    }

    pub fn plans(self, scripts: &[Vec<ClientOp>]) -> Vec<ClientPlan> {
        scripts
            .iter()
            .map(|ops| ClientPlan::with_profile(ops.clone(), self.profile()))
            .collect()
    }
}

/// Build a script of `n` operations holding exactly `pct` percent of
/// each generator's operations (rounded down, the remainder going to
/// the first), in a seeded random order — so the mix itself does not
/// vary from seed to seed, only the keys and the order.
fn exact_mix(mix: [(WorkloadSpec, usize); 4], n: usize, seed: u64) -> Vec<ClientOp> {
    let mut counts: Vec<usize> = mix.iter().map(|(_, pct)| n * pct / 100).collect();
    counts[0] += n - counts.iter().sum::<usize>();
    let mut ops: Vec<ClientOp> = mix
        .into_iter()
        .zip(counts)
        .enumerate()
        .flat_map(|(i, ((spec, _), count))| {
            WorkloadSpec {
                n_keys: N_KEYS,
                ..spec
            }
            .generate(count, seed ^ i as u64)
        })
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x006d_6978);
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.gen_range(0..=i));
    }
    ops
}

/// `cold_reads`: uniform keys, every proof shape — 55% point queries of
/// 12 keys (4 on each of 3 partitions), 15% single-page scans of 256
/// buckets, 15% paginated scans (3 pages of 128 buckets), 15% scatter
/// scans (2 partitions of 256 buckets).
fn cold_script(topo: &ClusterTopology, n: usize, seed: u64) -> Vec<ClientOp> {
    let t = || topo.clone();
    let points = WorkloadSpec {
        unified_points: true,
        ..WorkloadSpec::read_only(t(), 12, 3)
    };
    exact_mix(
        [
            (points, 55),
            (WorkloadSpec::scans(t(), 256), 15),
            (WorkloadSpec::scatter_scans(t(), 128, 1, 3), 15),
            (WorkloadSpec::scatter_scans(t(), 256, 2, 1), 15),
        ],
        n,
        seed,
    )
}

/// `mixed_rw`: the paper's default mix (§5.1) over uniform keys — 50%
/// ROTs of 5 keys over all 5 partitions, 20% local read-write, 20%
/// distributed read-write (5 reads + 3 writes each), 10% write-only.
fn mixed_script(topo: &ClusterTopology, n: usize, seed: u64) -> Vec<ClientOp> {
    let t = || topo.clone();
    exact_mix(
        [
            (WorkloadSpec::read_only(t(), 5, 5), 50),
            (WorkloadSpec::local_rw(t(), 5, 3), 20),
            (WorkloadSpec::distributed_rw(t(), 5, 3), 20),
            (WorkloadSpec::write_only(t(), 3), 10),
        ],
        n,
        seed,
    )
}
