//! One repetition: build the deployment (timed as set-up), drive the
//! simulation until every closed-loop client finished its script
//! (timed as the run phase), then summarise what the clients and the
//! network saw and check every recorded read.

use std::time::{Duration, Instant};

use transedge_common::{NodeId, SimTime};
use transedge_core::client::ClientOp;
use transedge_core::metrics::OpKind;
use transedge_core::setup::Deployment;
use transedge_core::ClientActor;
use transedge_obs::{breakdown_at_percentile, CompletedTrace, PhaseBreakdown, TraceLog};

use crate::check::{check_outputs, CheckReport};
use crate::workload::Workload;

/// Simulated time after which unfinished operations count as failed.
const SIM_LIMIT: SimTime = SimTime(3_600_000_000);
/// Steps between checks whether every client is done.
const DONE_POLL: u64 = 1024;

/// Everything a repetition measured. `sim` is a pure function of the
/// workload and seed; the `Duration`s are wall clock.
pub struct Repetition {
    pub setup: Duration,
    pub run: Duration,
    pub sim: SimOutcome,
    pub check: CheckReport,
    /// Wall time spent inside `Simulation::step` (traced runs only).
    pub step_time: Duration,
    /// Phase split of the read operations at p50 and p95 (traced runs).
    pub phases: Option<(PhaseBreakdown, PhaseBreakdown)>,
}

/// The deterministic outcome of one repetition.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimOutcome {
    /// Simulated latencies (µs) of committed read operations, sorted.
    pub read_lat_us: Vec<u64>,
    /// Simulated latencies (µs) of committed read-write and write-only
    /// transactions, sorted.
    pub rw_lat_us: Vec<u64>,
    pub ops_attempted: u64,
    pub ops_committed: u64,
    pub reads_attempted: u64,
    pub reads_round2: u64,
    pub rw_attempted: u64,
    pub rw_aborted: u64,
    pub third_rounds: u64,
    pub gave_up: u64,
    pub unfinished: u64,
    /// First operation start to last operation end, in simulated µs.
    pub window_us: u64,
    pub events: u64,
    /// Fleet counters (`MetricRegistry::fleet_counters`) at the end,
    /// the network plane's per-kind traffic included.
    pub counters: Vec<(String, u64)>,
}

impl SimOutcome {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Sum of every counter whose name satisfies `pick`.
    pub fn counter_sum(&self, pick: impl Fn(&str) -> bool) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _)| pick(n))
            .map(|(_, v)| v)
            .sum()
    }
}

/// Run one repetition of `workload` on `scripts`.
pub fn repetition(
    workload: Workload,
    seed: u64,
    scripts: &[Vec<ClientOp>],
    traced: bool,
) -> Repetition {
    let config = workload.config(seed);
    let plans = workload.plans(scripts);
    let t0 = Instant::now();
    let mut dep = Deployment::build_custom(config, plans);
    let setup = t0.elapsed();
    if traced {
        // Keep every operation's trace for the phase split.
        let ops: usize = scripts.iter().map(Vec::len).sum();
        *dep.sim.trace_log_mut() = TraceLog::with_capacity(ops + 16);
    }

    let mut step_time = Duration::ZERO;
    let mut events = 0u64;
    let t1 = Instant::now();
    'run: loop {
        for _ in 0..DONE_POLL {
            let more = if traced {
                let s = Instant::now();
                let more = dep.sim.step();
                step_time += s.elapsed();
                more
            } else {
                dep.sim.step()
            };
            if !more || dep.sim.now() > SIM_LIMIT {
                break 'run;
            }
            events += 1;
        }
        if dep.clients_done() {
            break;
        }
    }
    let run = t1.elapsed();

    let sim = summarise(&dep, scripts, events);
    let check = check_outputs(&dep, scripts);
    let phases = traced.then(|| {
        let traces: Vec<&CompletedTrace> = dep.completed_traces();
        (
            breakdown_at_percentile(&traces, 0.50).unwrap_or_default(),
            breakdown_at_percentile(&traces, 0.95).unwrap_or_default(),
        )
    });
    Repetition {
        setup,
        run,
        sim,
        check,
        step_time,
        phases,
    }
}

fn is_read(kind: OpKind) -> bool {
    matches!(kind, OpKind::ReadOnly | OpKind::RangeScan)
}

fn summarise(dep: &Deployment, scripts: &[Vec<ClientOp>], events: u64) -> SimOutcome {
    let mut out = SimOutcome {
        events,
        ..SimOutcome::default()
    };
    let mut first_start = u64::MAX;
    let mut last_end = 0u64;
    for (id, script) in dep.client_ids.iter().zip(scripts) {
        let client: &ClientActor = dep.sim.actor_as(NodeId::Client(*id)).expect("client actor");
        out.ops_attempted += script.len() as u64;
        out.reads_attempted += script
            .iter()
            .filter(|op| !matches!(op, ClientOp::ReadWrite { .. }))
            .count() as u64;
        out.rw_attempted += script
            .iter()
            .filter(|op| matches!(op, ClientOp::ReadWrite { .. }))
            .count() as u64;
        out.unfinished += (script.len() - client.samples.len()) as u64;
        out.third_rounds += client.stats.third_round_needed;
        out.gave_up += client.stats.gave_up;
        for s in &client.samples {
            first_start = first_start.min(s.start.0);
            last_end = last_end.max(s.end.0);
            let lat = s.latency().as_micros();
            if is_read(s.kind) {
                if s.committed {
                    out.read_lat_us.push(lat);
                    out.ops_committed += 1;
                    out.reads_round2 += s.rot_round2 as u64;
                }
            } else if s.committed {
                out.rw_lat_us.push(lat);
                out.ops_committed += 1;
            } else {
                out.rw_aborted += 1;
            }
        }
    }
    out.read_lat_us.sort_unstable();
    out.rw_lat_us.sort_unstable();
    out.window_us = last_end.saturating_sub(first_start);
    out.counters = dep.metrics().fleet_counters().into_iter().collect();
    out
}
