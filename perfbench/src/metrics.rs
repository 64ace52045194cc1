//! Turning repetitions into the named metrics.

use transedge_core::client::ClientOp;

use crate::report::{median, percentile_ms, Metric};
use crate::run::{Repetition, SimOutcome};

/// End-to-end metrics with a regression bound (`BENCHMARK.json`),
/// emitted by every untraced run. None of them can be 0.
pub const END_TO_END: [&str; 7] = [
    "read_p50_ms",
    "read_p95_ms",
    "sim_ops_per_s",
    "wall_ops_per_s",
    "setup_s",
    "peak_rss_mb",
    "wire_bytes_per_op",
];

/// End-to-end metrics that are legitimately 0 on some workload (no
/// read-write transactions, no round 2, no failures). Every run prints
/// them; they reach the JSON line with the per-layer metrics.
pub const END_TO_END_UNBOUNDED: [&str; 6] = [
    "rw_p50_ms",
    "rw_p95_ms",
    "rot_round2_frac",
    "rot_round3_frac",
    "abort_frac",
    "fail_frac",
];

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Committed operations per wall-clock second of a repetition's run
/// phase.
pub fn wall_ops_per_s(rep: &Repetition) -> f64 {
    rep.sim.ops_committed as f64 / rep.run.as_secs_f64()
}

/// All thirteen end-to-end metrics. The simulated ones come from the
/// first repetition (every repetition of a seed is identical); the
/// wall-clock ones are medians over the repetitions.
pub fn end_to_end(reps: &[Repetition]) -> Vec<Metric> {
    let s: &SimOutcome = &reps[0].sim;
    let wall: Vec<f64> = reps.iter().map(wall_ops_per_s).collect();
    let setup: Vec<f64> = reps.iter().map(|r| r.setup.as_secs_f64()).collect();
    let window_s = s.window_us as f64 / 1e6;
    vec![
        Metric::new("read_p50_ms", "ms", percentile_ms(&s.read_lat_us, 0.50)),
        Metric::new("read_p95_ms", "ms", percentile_ms(&s.read_lat_us, 0.95)),
        Metric::new("rw_p50_ms", "ms", percentile_ms(&s.rw_lat_us, 0.50)),
        Metric::new("rw_p95_ms", "ms", percentile_ms(&s.rw_lat_us, 0.95)),
        Metric::new(
            "sim_ops_per_s",
            "1/s",
            if window_s > 0.0 {
                s.ops_committed as f64 / window_s
            } else {
                0.0
            },
        ),
        Metric::new("wall_ops_per_s", "1/s", median(&wall)),
        Metric::new("setup_s", "s", median(&setup)),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb()),
        Metric::ratio(
            "wire_bytes_per_op",
            "B",
            s.counter("bytes_sent") as f64,
            s.ops_committed,
            "committed ops",
        ),
        Metric::ratio(
            "rot_round2_frac",
            "fraction",
            s.reads_round2 as f64,
            s.read_lat_us.len() as u64,
            "committed reads",
        ),
        Metric::ratio(
            "rot_round3_frac",
            "fraction",
            s.third_rounds as f64,
            s.reads_attempted,
            "reads attempted",
        ),
        Metric::ratio(
            "abort_frac",
            "fraction",
            s.rw_aborted as f64,
            s.rw_attempted,
            "read-write txns attempted",
        ),
        Metric::ratio(
            "fail_frac",
            "fraction",
            (s.gave_up + s.unfinished) as f64,
            s.ops_attempted,
            "ops attempted",
        ),
    ]
}

/// The traced run's metrics: the unbounded end-to-end ones, then every
/// layer's.
pub fn per_layer(
    seed: u64,
    scripts: &[Vec<ClientOp>],
    plain: &[Repetition],
    traced: &[Repetition],
    e2e: &[Metric],
) -> (Vec<Metric>, Vec<String>) {
    let mut out: Vec<Metric> = e2e
        .iter()
        .filter(|m| END_TO_END_UNBOUNDED.contains(&m.name.as_str()))
        .cloned()
        .collect();
    let (layers, problems) = crate::layers::measure(seed, scripts, plain, traced);
    out.extend(layers);
    (out, problems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::valid_name;
    use crate::run::repetition;
    use crate::workload::Workload;

    /// The `(name, unit)` pairs `BENCHMARK.json` lists under `section`.
    fn listed(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section is a list");
        let field = |entry: &str, key: &str| -> String {
            let from = entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            let rest = &entry[from..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        };
        body[..end]
            .split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn names(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn every_named_metric_is_emitted_once_with_a_valid_name() {
        let bounded: Vec<String> = listed("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(bounded, END_TO_END.to_vec());
        for w in Workload::ALL {
            let scripts: Vec<Vec<ClientOp>> = w
                .scripts(7)
                .into_iter()
                .map(|mut s| {
                    s.truncate(3);
                    s
                })
                .collect();
            let plain = vec![repetition(w, 7, &scripts, false)];
            let traced = vec![repetition(w, 7, &scripts, true)];
            assert!(
                plain[0].check.errors.is_empty(),
                "{:?}",
                plain[0].check.errors
            );
            assert_eq!(
                plain[0].sim,
                traced[0].sim,
                "{}: tracing changed the outcome",
                w.name()
            );

            let e2e = end_to_end(&plain);
            let emitted: Vec<(String, String)> = names(&e2e)
                .into_iter()
                .filter(|(n, _)| END_TO_END.contains(&n.as_str()))
                .collect();
            assert_eq!(emitted, listed("end_to_end"), "{}", w.name());
            let mut all: Vec<&str> = END_TO_END.to_vec();
            all.extend(END_TO_END_UNBOUNDED);
            let mut got: Vec<String> = names(&e2e).into_iter().map(|(n, _)| n).collect();
            got.sort();
            all.sort();
            assert_eq!(got, all, "{}", w.name());

            let (layer, problems) = per_layer(7, &scripts, &plain, &traced, &e2e);
            assert!(problems.is_empty(), "{problems:?}");
            assert_eq!(names(&layer), listed("per_layer"), "{}", w.name());

            for m in e2e.iter().chain(&layer) {
                assert!(valid_name(&m.name), "{}", m.name);
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
                let is_ratio = ["_frac", "_per_op", "_per_read", "_per_rot", "_per_batch"]
                    .iter()
                    .any(|suffix| m.name.ends_with(suffix))
                    || m.name == "edge.hit_rate";
                // A difference of two medians, not a count ratio.
                let exempt = m.name == "trace.overhead_frac";
                if is_ratio && !exempt {
                    assert!(m.base.is_some(), "{} carries no base count", m.name);
                }
            }
        }
    }
}
