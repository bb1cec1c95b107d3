//! `rushbench` — one benchmark for the RUSH workspace, end to end and layer
//! by layer.
//!
//! ```text
//! rushbench --workload serve-1k|sim-spot --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload builds its inputs from `--seed` alone; the program under
//! test only ever sees those generated inputs. Human-readable lines (every
//! named metric with its unit and sample count) come first; the last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A failed output check prints
//! `"correct": false` and exits with code 1.
//!
//! See `README.md` next to this crate for why each workload exists and
//! which layer metric should move which end-to-end metric.

mod layers;
mod pin;
mod serve;
mod sim_spot;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// The end-to-end metrics, reported by every workload with tracing off.
/// What each means on each workload is defined in `README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("slo_attainment", "fraction"),
];

/// The per-layer metrics, reported by every workload's traced run. A layer
/// a workload never enters reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.passes", "count"),
    ("core.solve_us", "us"),
    ("core.peel_us", "us"),
    ("core.map_us", "us"),
    ("core.assemble_us", "us"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.peel_replay_ratio", "ratio"),
    ("core.map_reuse_ratio", "ratio"),
    ("core.phase_s", "s"),
    ("planner.spi_assign_us", "us"),
    ("planner.spi_task_complete_us", "us"),
    ("planner.spi_capacity_change_us", "us"),
    ("planner.self_s", "s"),
    ("planner.shard_passes_per_op", "count/op"),
    ("sim.engine_self_s", "s"),
    ("serve.submit_epoch_us", "us"),
    ("serve.epoch_queue_us", "us"),
    ("serve.predict_us", "us"),
    ("serve.report_sample_us", "us"),
    ("codec.rush1_encode_ns", "ns"),
    ("codec.rush1_decode_ns", "ns"),
    ("codec.rush1_bytes_per_frame", "bytes"),
    ("reactor.transport_us", "us"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.core_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Command-line options, as the benchmark contract passes them.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What one run found: output-check verdict, op counts and metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Output checks that failed, one line each.
    pub failures: Vec<String>,
    /// Operations the run attempted.
    pub attempted: u64,
    /// Operations that failed or returned an error.
    pub failed: u64,
    /// End-to-end metrics by name (must cover [`END_TO_END`]).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a failed output check.
    pub fn fail(&mut self, why: impl Into<String>) {
        let why = why.into();
        println!("CHECK FAILED: {why}");
        self.failures.push(why);
    }

    /// Checks `cond`, recording the failure `why` describes when it does
    /// not hold.
    pub fn check(&mut self, cond: bool, why: impl FnOnce() -> String) {
        if !cond {
            self.fail(why());
        }
    }

    /// Starts the per-layer table with every layer at 0: a workload sets
    /// the layers it enters.
    pub fn zero_layers(&mut self) {
        for (name, _) in PER_LAYER {
            self.layers.insert(name, 0.0);
        }
    }
}

/// Prints one named metric for people reading the log.
pub fn show(name: &str, value: f64, unit: &str, note: &str) {
    if note.is_empty() {
        println!("  {name:<32} {value:>14.4} {unit}");
    } else {
        println!("  {name:<32} {value:>14.4} {unit}  ({note})");
    }
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let opts = Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    };
    if opts.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(opts)
}

fn json_line(report: &Report, trace: bool) -> String {
    let (table, values) = if trace {
        (PER_LAYER, &report.layers)
    } else {
        (END_TO_END, &report.e2e)
    };
    let metrics: Vec<String> = table
        .iter()
        .filter_map(|(name, unit)| {
            let value = values.get(name).filter(|v| v.is_finite())?;
            Some(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failures.is_empty(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(serve::DAEMON_FLAG) {
        return serve::daemon_main(&args[1..]);
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("rushbench: {msg}");
            eprintln!(
                "usage: rushbench --workload serve-1k|sim-spot \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "rushbench: workload {} seed {} seconds {} trace {}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );
    match pin::to_one_cpu() {
        Ok(cpu) => println!("rushbench: pinned to CPU {cpu}, the daemon too"),
        Err(msg) => println!("rushbench: running unpinned ({msg})"),
    }
    let result = match opts.workload.as_str() {
        "serve-1k" => serve::run(&opts),
        "sim-spot" => sim_spot::run(&opts),
        other => Err(format!("unknown workload {other}")),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("rushbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let (table, values) = if opts.trace {
        (PER_LAYER, &report.layers)
    } else {
        (END_TO_END, &report.e2e)
    };
    let unmeasured: Vec<&str> = table
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !values.get(n).is_some_and(|v| v.is_finite()))
        .collect();
    if !unmeasured.is_empty() {
        report.fail(format!("metrics not measured: {}", unmeasured.join(", ")));
    }
    if opts.trace {
        println!("per-layer metrics:");
        for (name, unit) in PER_LAYER {
            show(
                name,
                report.layers.get(name).copied().unwrap_or(f64::NAN),
                unit,
                "",
            );
        }
    }
    println!("{}", json_line(&report, opts.trace));
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
