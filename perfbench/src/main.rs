//! The TransEdge benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot_reads --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one named workload through the public `Deployment` API in a
//! single process, repeating the whole deployment (set-up and run)
//! until `--seconds` have passed, and prints every metric with its unit
//! followed by one JSON line. `--trace 1` adds the per-layer metrics.
//! See `README.md` in this directory for the definitions.

mod check;
mod layers;
mod metrics;
mod report;
mod run;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::report::{highest_supported_percentile, json_line, table, valid_name, Metric};
use crate::run::{repetition, Repetition};
use crate::workload::Workload;

const USAGE: &str =
    "usage: perfbench --workload <hot_reads|cold_reads|mixed_rw> --seed <n> --seconds <s> --trace <0|1>";

/// Untraced repetitions a run always makes: two, so every run can
/// compare two repetitions of its seed for determinism. A traced run
/// adds at least one traced repetition.
const MIN_REPS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let scripts = w.scripts(args.seed);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);

    // Untraced repetitions fill the time box; a traced run alternates
    // them with traced ones so the tracing overhead is measured on the
    // same inputs.
    let mut plain: Vec<Repetition> = Vec::new();
    let mut traced: Vec<Repetition> = Vec::new();
    loop {
        if args.trace && traced.len() < plain.len() {
            traced.push(repetition(w, args.seed, &scripts, true));
        } else {
            plain.push(repetition(w, args.seed, &scripts, false));
        }
        let enough = plain.len() >= MIN_REPS && (!args.trace || !traced.is_empty());
        if enough && Instant::now() >= deadline {
            break;
        }
    }

    let mut problems: Vec<String> = Vec::new();
    for rep in plain.iter().chain(&traced) {
        problems.extend(rep.check.errors.iter().cloned());
        let unlisted = rep.check.error_count - rep.check.errors.len() as u64;
        if unlisted > 0 {
            problems.push(format!("{unlisted} more check failures"));
        }
    }
    let first = &plain[0].sim;
    if let Some(i) = plain.iter().chain(&traced).position(|r| r.sim != *first) {
        problems.push(format!(
            "repetition {i} of seed {} differs from repetition 0: the simulation is not deterministic",
            args.seed
        ));
    }
    let attempted: u64 = plain
        .iter()
        .chain(&traced)
        .map(|r| r.sim.ops_attempted)
        .sum();
    let failed: u64 = plain
        .iter()
        .chain(&traced)
        .map(|r| r.sim.gave_up + r.sim.unfinished)
        .sum();

    // The reported tail percentile must keep ten samples beyond it.
    let mut tails = String::new();
    for (class, n) in [
        ("read", first.read_lat_us.len()),
        ("rw", first.rw_lat_us.len()),
    ] {
        let best = highest_supported_percentile(n);
        tails += &format!("; {n} {class} samples (highest percentile with 10 beyond: {best:?})");
        if n > 0 && best.is_none_or(|p| p < 0.95) {
            problems.push(format!(
                "{class}_p95_ms rests on {n} samples, fewer than 10 beyond p95"
            ));
        }
    }

    let all_e2e = metrics::end_to_end(&plain);
    let title = format!(
        "{} seed {}: {} untraced repetitions, {} traced; {} ops each; {} reads and {} values checked per repetition{tails}",
        w.name(),
        args.seed,
        plain.len(),
        traced.len(),
        first.ops_attempted,
        plain[0].check.reads_checked,
        plain[0].check.values_checked,
    );
    println!("{}", table(&title, &all_e2e));
    let per_rep: Vec<String> = plain
        .iter()
        .map(|r| format!("{:.1}", metrics::wall_ops_per_s(r)))
        .collect();
    println!("wall_ops_per_s by repetition: {}\n", per_rep.join(" "));
    let emitted: Vec<Metric> = if args.trace {
        let (layer, ledger_problems) =
            metrics::per_layer(args.seed, &scripts, &plain, &traced, &all_e2e);
        problems.extend(ledger_problems);
        println!("{}", table("per-layer (traced run)", &layer));
        layer
    } else {
        all_e2e
            .into_iter()
            .filter(|m| metrics::END_TO_END.contains(&m.name.as_str()))
            .collect()
    };
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    if let Some(m) = emitted
        .iter()
        .find(|m| !m.value.is_finite() || !valid_name(&m.name))
    {
        eprintln!(
            "perfbench: metric {} = {} cannot be reported",
            m.name, m.value
        );
        return ExitCode::FAILURE;
    }
    println!(
        "{}",
        json_line(problems.is_empty(), attempted, failed, &emitted)
    );
    ExitCode::SUCCESS
}
