//! Serving benchmark for the VARADE reproduction.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload edge_stream --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (`edge_stream`, `fleet_paced` or `fleet_sparse`, see
//! README.md) against the public API, checks every score against a
//! full-recompute oracle, and prints a metric table followed by one JSON
//! line. `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` adds a traced run and reports the per-layer metrics.

mod common;
mod edge;
mod fleet;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics, reported by every `--trace 0` run.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_sps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("cpu_us_per_sample", "us"),
    ("peak_rss_mb", "MB"),
    ("auc_roc", "ratio"),
];

/// Per-layer metrics, reported by every `--trace 1` run. A layer a workload
/// never calls reads 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("robot.dataset_ms", "ms"),
    ("core.fit_s", "s"),
    ("core.persist_save_ms", "ms"),
    ("core.persist_load_ms", "ms"),
    ("timeseries.normalize_ns", "ns"),
    ("timeseries.window_push_ns", "ns"),
    ("core.push_us", "us"),
    ("core.forward_incremental_us", "us"),
    ("core.forward_full_us", "us"),
    ("core.replay_count", "count"),
    ("tensor.forward_incremental_us.scalar", "us"),
    ("tensor.forward_incremental_us.vector", "us"),
    ("tensor.forward_incremental_us.quant", "us"),
    ("tensor.forward_full_us.scalar", "us"),
    ("tensor.forward_full_us.vector", "us"),
    ("tensor.forward_full_us.quant", "us"),
    ("tensor.flops_per_sample", "flop"),
    ("tensor.weight_bytes.f32", "bytes"),
    ("tensor.weight_bytes.int8", "bytes"),
    ("fleet.register_us", "us"),
    ("fleet.rss_per_stream_bytes", "bytes"),
    ("fleet.push_p50_ns", "ns"),
    ("fleet.push_p99_ns", "ns"),
    ("fleet.drain_ms", "ms"),
    ("fleet.publish_us", "us"),
    ("fleet.worker_busy_pct", "%"),
    ("fleet.generator_cpu_pct", "%"),
    ("fleet.steals", "count"),
    ("fleet.queue_depth_high_water", "count"),
    ("fleet.dropped", "count"),
    ("obs.stage_mean_us.queue_wait", "us"),
    ("obs.stage_mean_us.assembly", "us"),
    ("obs.stage_mean_us.normalize", "us"),
    ("obs.stage_mean_us.forward", "us"),
    ("obs.stage_mean_us.emit", "us"),
    ("obs.snapshot_us", "us"),
    ("bench.gen_late_p99_us", "us"),
    ("bench.residual_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];

/// Metric values a workload run produced, by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Operations attempted and failed, with the reason of each failure kind.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    failures: BTreeMap<&'static str, u64>,
}

impl Ledger {
    pub fn fail(&mut self, reason: &'static str, n: u64) {
        if n > 0 {
            *self.failures.entry(reason).or_default() += n;
        }
    }

    fn failed(&self) -> u64 {
        self.failures.values().sum()
    }
}

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: servebench --workload <edge_stream|fleet_paced|fleet_sparse> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        values.insert(key.to_string(), value);
    }
    let take = |key: &str| values.get(key).ok_or_else(|| format!("missing --{key}"));
    let workload = take("workload")?.clone();
    if !["edge_stream", "fleet_paced", "fleet_sparse"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let forbidden = sys::forbidden_env();
    if !forbidden.is_empty() {
        eprintln!(
            "servebench: refusing to run with {} set; they select other code paths",
            forbidden.join(", ")
        );
        return ExitCode::from(2);
    }

    let mut metrics = Metrics::default();
    let mut ledger = Ledger::default();
    let result = match args.workload.as_str() {
        "edge_stream" => edge::run(&args, &mut metrics, &mut ledger),
        "fleet_paced" => fleet::run_paced(&args, &mut metrics, &mut ledger),
        _ => fleet::run_sparse(&args, &mut metrics, &mut ledger),
    };
    if let Err(e) = result {
        eprintln!("servebench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    report(&args, &metrics, &ledger)
}

/// Prints the metric table, then the JSON result as the last line.
fn report(args: &Args, metrics: &Metrics, ledger: &Ledger) -> ExitCode {
    println!(
        "# servebench workload={} seed={} seconds={} trace={} backend={} incremental={} nproc={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        // Every served detector is loaded onto the scalar backend.
        varade::BackendKind::Scalar.label(),
        if varade::incremental_default() { "on" } else { "off" },
        sys::nproc(),
        sys::git_commit(),
    );
    let failed = ledger.failed();
    let error_rate = failed as f64 / ledger.attempted.max(1) as f64;
    println!("{:<40} {:>16} ratio", "error_rate", error_rate);
    for (reason, n) in &ledger.failures {
        println!("#   failure: {reason}: {n}");
    }

    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = match metrics.get(name) {
            Some(v) => v,
            // Every workload sets every end-to-end metric.
            None if !args.trace => panic!("workload did not measure {name}"),
            None => 0.0,
        };
        assert!(value.is_finite(), "{name} is not finite: {value}");
        println!("{name:<40} {value:>16} {unit}");
        // `{:?}` prints every digit of the value, in a form JSON accepts.
        json.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = failed == 0 && ledger.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        ledger.attempted.max(1),
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
