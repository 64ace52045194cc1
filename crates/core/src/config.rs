//! Typed, validated deployment configuration for the edge tier and
//! the scripted clients.
//!
//! [`EdgeConfig`] replaces the grown-by-accretion `EdgePlan` setter
//! chain (`with_byzantine`, `with_directory`, `with_feed`, …) with one
//! builder that groups related knobs into typed sub-configs —
//! [`CacheConfig`] for replay-cache sizing,
//! [`DirectoryPlan`]/[`FeedPlan`] for the gossip and feed subsystems,
//! [`PersistPlan`] for the durable snapshot plane — and validates the
//! combination once, at [`EdgeConfigBuilder::build`], instead of
//! letting an impossible mix (a byzantine override for an edge that
//! does not exist, a zero-capacity cache, hydration without persistence)
//! surface as a confusing runtime failure deep inside a harness.
//!
//! [`ClientProfile`] does the same for the ad-hoc client booleans:
//! instead of mutating `ClientConfig` fields one by one, a harness
//! names the profile it wants (`subscriber`, `single_contact`, a
//! start delay) and [`ClientProfile::apply`] layers it over the
//! deployment's base client config.

use std::fmt;

use transedge_common::{EdgeId, SimDuration};
use transedge_edge::PersistPlan;

use crate::client::ClientConfig;
use crate::edge_node::{DirectoryPlan, EdgeBehavior, FeedPlan};

/// Replay-cache sizing for one edge node.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Per-node replay-cache capacity in fragments.
    pub capacity: usize,
    /// Certified headers each edge node retains.
    pub max_batches: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: transedge_edge::pipeline::DEFAULT_CACHE_CAPACITY,
            max_batches: 64,
        }
    }
}

/// The validated edge-tier configuration of a deployment. Construct
/// via [`EdgeConfig::builder`] (or [`EdgeConfig::none`] /
/// [`EdgeConfig::honest`] for the two common shapes); the fields are
/// public for reading, and a deployment consumes them as-is.
#[derive(Clone, Debug)]
pub struct EdgeConfig {
    /// Edge read nodes fronting each partition (0 = no edge tier).
    pub per_cluster: usize,
    /// Replay-cache sizing.
    pub cache: CacheConfig,
    /// Edge nodes refuse to replay bundles older than this, forwarding
    /// upstream instead (must sit well inside the clients' freshness
    /// window so honest replays are never rejected as stale).
    pub replay_staleness: SimDuration,
    /// Route clients' read-only rounds through the edge tier (clients
    /// still fall back to replicas on verification failures/retries).
    pub route_clients: bool,
    /// Byzantine behaviour overrides for specific edge nodes.
    pub byzantine: Vec<(EdgeId, EdgeBehavior)>,
    /// Gossiped health/coverage directory + edge-tier scatter-gather.
    pub directory: DirectoryPlan,
    /// Certified commit-feed subscription (push invalidation +
    /// freshness attachments).
    pub feed: FeedPlan,
    /// Durable snapshot store: spill-on-admission, verified hydration
    /// on restart, sibling state-transfer when cold.
    pub persistence: PersistPlan,
}

impl EdgeConfig {
    /// No edge tier (the classic deployment shape).
    pub fn none() -> Self {
        EdgeConfig {
            per_cluster: 0,
            cache: CacheConfig::default(),
            replay_staleness: SimDuration::from_secs(10),
            route_clients: true,
            byzantine: Vec::new(),
            directory: DirectoryPlan::disabled(),
            feed: FeedPlan::disabled(),
            persistence: PersistPlan::disabled(),
        }
    }

    /// `n` honest edge nodes per cluster, clients routed through them.
    pub fn honest(n: usize) -> Self {
        EdgeConfig {
            per_cluster: n,
            ..EdgeConfig::none()
        }
    }

    /// Start a builder at the [`EdgeConfig::none`] defaults.
    pub fn builder() -> EdgeConfigBuilder {
        EdgeConfigBuilder {
            config: EdgeConfig::none(),
        }
    }

    pub(crate) fn behavior_of(&self, edge: EdgeId) -> EdgeBehavior {
        self.byzantine
            .iter()
            .find(|(e, _)| *e == edge)
            .map(|(_, b)| *b)
            .unwrap_or(EdgeBehavior::Honest)
    }
}

/// What [`EdgeConfigBuilder::build`] refuses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A deployed edge tier needs a non-zero fragment capacity.
    NoCacheCapacity,
    /// A deployed edge tier needs a non-zero replay-staleness floor.
    ZeroReplayStaleness,
    /// A byzantine override names an edge the plan does not deploy.
    ByzantineOutOfRange(EdgeId),
    /// Hydration or sibling transfer requested with the persistence
    /// plane off — nothing would ever be spilled to hydrate from.
    PersistenceGatesClosed,
    /// The persistence plane retains zero objects per cluster.
    ZeroSpillThreshold,
    /// The gossip directory is enabled with a zero anti-entropy period.
    ZeroGossipInterval,
    /// The commit feed is enabled with a zero lease-renewal period.
    ZeroFeedInterval,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoCacheCapacity => {
                write!(f, "deployed edge tier needs a non-zero cache capacity")
            }
            ConfigError::ZeroReplayStaleness => {
                write!(
                    f,
                    "deployed edge tier needs a non-zero replay-staleness floor"
                )
            }
            ConfigError::ByzantineOutOfRange(edge) => {
                write!(f, "byzantine override for undeployed edge {edge:?}")
            }
            ConfigError::PersistenceGatesClosed => write!(
                f,
                "hydrate_on_start/sibling_transfer require the persistence plane enabled"
            ),
            ConfigError::ZeroSpillThreshold => {
                write!(f, "enabled persistence plane retains zero objects")
            }
            ConfigError::ZeroGossipInterval => {
                write!(f, "enabled directory needs a non-zero gossip interval")
            }
            ConfigError::ZeroFeedInterval => {
                write!(f, "enabled feed needs a non-zero resubscribe interval")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`EdgeConfig`]; every setter is chainable and
/// [`EdgeConfigBuilder::build`] validates the combination.
#[derive(Clone, Debug)]
pub struct EdgeConfigBuilder {
    config: EdgeConfig,
}

impl EdgeConfigBuilder {
    /// Edge read nodes fronting each partition.
    pub fn per_cluster(mut self, n: usize) -> Self {
        self.config.per_cluster = n;
        self
    }

    /// Replay-cache sizing.
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.config.cache = cache;
        self
    }

    /// Replay-staleness floor.
    pub fn replay_staleness(mut self, staleness: SimDuration) -> Self {
        self.config.replay_staleness = staleness;
        self
    }

    /// Route clients through the edge tier (on by default).
    pub fn route_clients(mut self, route: bool) -> Self {
        self.config.route_clients = route;
        self
    }

    /// Mark one edge node byzantine.
    pub fn byzantine(mut self, edge: EdgeId, behavior: EdgeBehavior) -> Self {
        self.config.byzantine.push((edge, behavior));
        self
    }

    /// Install a directory plan verbatim.
    pub fn directory(mut self, directory: DirectoryPlan) -> Self {
        self.config.directory = directory;
        self
    }

    /// Run the gossip directory (anti-entropy push every `interval`)
    /// with edge-tier scatter-gather forwarding; clients take part.
    pub fn gossip_directory(mut self, interval: SimDuration) -> Self {
        self.config.directory = DirectoryPlan::gossip(interval);
        self
    }

    /// Install a feed plan verbatim.
    pub fn feed(mut self, feed: FeedPlan) -> Self {
        self.config.feed = feed;
        self
    }

    /// Subscribe every edge to its home cluster's certified commit
    /// feed, renewing the lease at `interval`.
    pub fn commit_feed(mut self, interval: SimDuration) -> Self {
        self.config.feed = FeedPlan::subscribed(interval);
        self
    }

    /// Install a persistence plan verbatim.
    pub fn persistence(mut self, persistence: PersistPlan) -> Self {
        self.config.persistence = persistence;
        self
    }

    /// Turn on the full persistence plane (spill on admission, verified
    /// hydration on restart, sibling bootstrap when cold).
    pub fn persistent(mut self) -> Self {
        self.config.persistence = PersistPlan::enabled();
        self
    }

    /// Validate and return the configuration.
    pub fn build(self) -> Result<EdgeConfig, ConfigError> {
        let c = &self.config;
        if c.per_cluster > 0 {
            if c.cache.capacity == 0 {
                return Err(ConfigError::NoCacheCapacity);
            }
            if c.replay_staleness == SimDuration::ZERO {
                return Err(ConfigError::ZeroReplayStaleness);
            }
        }
        for (edge, _) in &c.byzantine {
            if edge.index as usize >= c.per_cluster {
                return Err(ConfigError::ByzantineOutOfRange(*edge));
            }
        }
        let p = &c.persistence;
        if !p.enabled && (p.hydrate_on_start || p.sibling_transfer) {
            return Err(ConfigError::PersistenceGatesClosed);
        }
        if p.enabled && p.spill_threshold == 0 {
            return Err(ConfigError::ZeroSpillThreshold);
        }
        if c.directory.enabled && c.directory.gossip_interval == SimDuration::ZERO {
            return Err(ConfigError::ZeroGossipInterval);
        }
        if c.feed.enabled && c.feed.resubscribe_interval == SimDuration::ZERO {
            return Err(ConfigError::ZeroFeedInterval);
        }
        Ok(self.config)
    }
}

/// A named bundle of per-client behaviour toggles, layered over the
/// deployment's base [`ClientConfig`] by [`ClientProfile::apply`].
/// Booleans only switch behaviour *on* (the base config keeps anything
/// it already enabled); the start delay takes the later of the two.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientProfile {
    /// Keep full results (values read) for inspection by tests.
    pub record_results: bool,
    /// Baseline mode: read-only ops via BFT + 2PC instead of the
    /// commit-free snapshot protocol.
    pub rot_via_2pc: bool,
    /// Take part in the gossiped edge directory (startup pull +
    /// rejection-evidence push).
    pub directory: bool,
    /// Send fresh cross-partition queries to one edge contact
    /// (edge-tier scatter-gather).
    pub single_contact: bool,
    /// Subscription mode: ask edges for feed-tail freshness
    /// attachments to skip round 2 on warm reads.
    pub subscribe: bool,
    /// Delay before the first operation (and the directory pull).
    pub start_delay: SimDuration,
}

impl ClientProfile {
    pub fn new() -> Self {
        ClientProfile::default()
    }

    pub fn record_results(mut self) -> Self {
        self.record_results = true;
        self
    }

    pub fn rot_via_2pc(mut self) -> Self {
        self.rot_via_2pc = true;
        self
    }

    pub fn directory(mut self) -> Self {
        self.directory = true;
        self
    }

    pub fn single_contact(mut self) -> Self {
        self.single_contact = true;
        self
    }

    /// The subscription profile (feed-tail freshness upgrades).
    pub fn subscriber(mut self) -> Self {
        self.subscribe = true;
        self
    }

    pub fn start_delay(mut self, delay: SimDuration) -> Self {
        self.start_delay = delay;
        self
    }

    /// Layer this profile over a base client config.
    pub fn apply(&self, base: &ClientConfig) -> ClientConfig {
        let mut config = base.clone();
        config.record_results |= self.record_results;
        config.rot_via_2pc |= self.rot_via_2pc;
        config.directory |= self.directory;
        config.single_contact |= self.single_contact;
        config.subscribe |= self.subscribe;
        if self.start_delay > config.start_delay {
            config.start_delay = self.start_delay;
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transedge_common::ClusterId;

    #[test]
    fn builder_validates_combinations() {
        assert!(EdgeConfig::builder().per_cluster(2).build().is_ok());
        let byz = EdgeId::new(ClusterId(0), 5);
        assert_eq!(
            EdgeConfig::builder()
                .per_cluster(2)
                .byzantine(byz, EdgeBehavior::TamperValue)
                .build()
                .unwrap_err(),
            ConfigError::ByzantineOutOfRange(byz)
        );
        // Hydration without the master switch is refused, not ignored.
        let mut plan = PersistPlan::disabled();
        plan.hydrate_on_start = true;
        assert_eq!(
            EdgeConfig::builder()
                .per_cluster(1)
                .persistence(plan)
                .build()
                .unwrap_err(),
            ConfigError::PersistenceGatesClosed
        );
        let mut plan = PersistPlan::enabled();
        plan.spill_threshold = 0;
        assert_eq!(
            EdgeConfig::builder()
                .per_cluster(1)
                .persistence(plan)
                .build()
                .unwrap_err(),
            ConfigError::ZeroSpillThreshold
        );
    }

    #[test]
    fn profile_layers_over_base() {
        let base = ClientConfig {
            record_results: true,
            start_delay: SimDuration::from_millis(100),
            ..ClientConfig::default()
        };
        let profile = ClientProfile::new()
            .subscriber()
            .start_delay(SimDuration::from_millis(50));
        let layered = profile.apply(&base);
        assert!(layered.record_results, "base switches survive");
        assert!(layered.subscribe, "profile switches apply");
        assert_eq!(
            layered.start_delay,
            SimDuration::from_millis(100),
            "later of the two delays wins"
        );
    }
}
