//! The repository benchmark: one command runs one workload by name and
//! seed, checks the outputs, and prints every metric with its unit.
//!
//! ```text
//! perfbench --workload decide|guard|learn --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced run of the
//! same workload and seed, and the spans are written to
//! `perfbench/out/spans-<workload>-<seed>.jsonl`. The process exits non-zero
//! when any correctness check fails. See `perfbench/README.md`.

mod common;
mod decide;
mod guard;
mod learn;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use jarvis_stdkit::bench::monotonic_ns;
use trace::Tracer;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one run produced: operations attempted and failed, the failure
/// messages, the end-to-end metrics of an untraced run, and the per-layer
/// values of a traced run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub layers: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(
            END_TO_END.contains(&(name, unit)),
            "{name} in {unit} is not a declared end-to-end metric"
        );
        self.metrics.push((name, value, unit));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.layers.insert(name, value);
    }

    /// Record a correctness check covering `failed_ops` failed operations
    /// (0 when it passed).
    pub fn check(&mut self, failed_ops: u64, what: impl FnOnce() -> String) {
        if failed_ops > 0 {
            self.failed += failed_ops;
            self.failures.push(what());
        }
    }
}

/// Every end-to-end metric, in output order, with its unit. Every workload
/// reports all of them from an untraced run; what "event" and "latency"
/// mean for each workload is set out in `perfbench/README.md`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric, in output order, with its unit. A traced run
/// prints all of them; a layer the workload does not exercise reads 0.
pub const LAYER_METRICS: [(&str, &str); 50] = [
    ("sim.generate_s", "s"),
    ("core.learning_phase_s", "s"),
    ("core.episodes", "count"),
    ("policy.spl_s", "s"),
    ("policy.table_entries", "count"),
    ("policy.monitor_checks", "count"),
    ("policy.monitor_ns", "ns"),
    ("policy.benign_alarm_rate", "ratio"),
    ("iot-model.fsm_step_ns", "ns"),
    ("rl.forward_rows", "count"),
    ("rl.forward64_ns_per_row", "ns"),
    ("rl.forward1_ns", "ns"),
    ("runtime.ingest_s", "s"),
    ("runtime.envelopes", "count"),
    ("runtime.serve_s", "s"),
    ("runtime.serve_ns_per_event", "ns"),
    ("runtime.decisions", "count"),
    ("runtime.alarms", "count"),
    ("runtime.forward_share", "ratio"),
    ("runtime.restore_s", "s"),
    ("runtime.snapshot_s", "s"),
    ("runtime.snapshot_bytes", "bytes"),
    ("supervisor.checkpoints", "count"),
    ("supervisor.restarts", "count"),
    ("supervisor.replayed", "count"),
    ("supervisor.replayed_per_restart", "count"),
    ("supervisor.fallback_decisions", "count"),
    ("supervisor.recovery_p50_ms", "ms"),
    ("supervisor.recovery_p90_ms", "ms"),
    ("wal.records", "count"),
    ("online.folds", "count"),
    ("online.admitted", "count"),
    ("policy_store.swaps", "count"),
    ("online.swap_stall_us", "us"),
    ("core.filter_train_s", "s"),
    ("core.optimize_s", "s"),
    ("core.plans", "count"),
    ("core.plan_cost_ratio", "ratio"),
    ("core.rollout_violations", "count"),
    ("core.env_steps", "count"),
    ("core.env_step_ns", "ns"),
    ("rl.replays", "count"),
    ("rl.replay_us", "us"),
    ("rl.act_us", "us"),
    ("stdkit.pool_jobs", "count"),
    ("trace.spans", "count"),
    ("trace.workload_s", "s"),
    ("trace.covered_share", "ratio"),
    ("trace.unaccounted_s", "s"),
    ("trace.overhead_share", "ratio"),
];

/// The host-reference kernel: a fixed naive 128×128 matrix product owned
/// by the benchmark, timed at the start and the end of every run (best of
/// five, milliseconds). It is not a metric of the program; it tells host
/// drift apart from program changes when two runs disagree.
fn host_reference_ms() -> f64 {
    const N: usize = 128;
    let a: Vec<f64> = (0..N * N).map(|i| (i % 17) as f64 * 0.25).collect();
    let b: Vec<f64> = (0..N * N).map(|i| (i % 13) as f64 * 0.5).collect();
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = monotonic_ns();
        let mut c = vec![0.0f64; N * N];
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        std::hint::black_box(&c);
        best = best.min((monotonic_ns() - t0) as f64 / 1e6);
    }
    best
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unparsable VmHWM line")?;
    Ok(kb / 1024.0)
}

fn result_line(report: &Report, trace: bool) -> String {
    let mut metrics = String::new();
    let mut push = |name: &str, value: f64, unit: &str| {
        if !metrics.is_empty() {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    };
    if trace {
        for (name, unit) in LAYER_METRICS {
            push(name, report.layers.get(name).copied().unwrap_or(0.0), unit);
        }
    } else {
        for (name, unit) in END_TO_END {
            if let Some(&(_, value, _)) = report.metrics.iter().find(|m| m.0 == name) {
                push(name, value, unit);
            }
        }
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed
    )
}

fn write_spans(args: &Args, tracer: &Tracer, meta: &str) -> Result<String, String> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let body = format!("{meta}\n{}", tracer.to_json_lines());
    std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn run(args: &Args, start_ns: u64) -> Result<Report, String> {
    let host_ref_start = host_reference_ms();
    let mut tracer = Tracer::new(false);
    let mut report = Report::default();
    match args.workload.as_str() {
        "decide" => decide::run(args, start_ns, &mut tracer, &mut report)?,
        "guard" => guard::run(args, start_ns, &mut tracer, &mut report)?,
        "learn" => learn::run(args, start_ns, &mut tracer, &mut report)?,
        other => return Err(format!("unknown workload {other:?} (decide, guard, learn)")),
    }
    let host_ref_end = host_reference_ms();
    // A result is a number as measured: never NaN or infinite, and an
    // end-to-end metric is never 0 (a ratio against 0 means nothing).
    if let Some((name, value, _)) = report
        .metrics
        .iter()
        .find(|m| !(m.1.is_finite() && m.1 > 0.0))
    {
        return Err(format!("end-to-end metric {name} came out as {value}"));
    }
    if let Some((name, value)) = report.layers.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("per-layer metric {name} came out as {value}"));
    }
    if args.trace {
        report.layer(
            "stdkit.pool_jobs",
            jarvis_stdkit::pool::WorkerPool::global().jobs_run() as f64,
        );
        report.layer("trace.spans", tracer.len() as f64);
    } else {
        report.metric("peak_rss_mb", peak_rss_mb()?, "MiB");
        if let Some((name, _)) = END_TO_END
            .iter()
            .find(|(name, _)| report.metrics.iter().all(|m| m.0 != *name))
        {
            return Err(format!("end-to-end metric {name} was not measured"));
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let meta = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"simd_tier\":\"{:?}\",\"host_ref_start_ms\":{host_ref_start:.4},\
         \"host_ref_end_ms\":{host_ref_end:.4}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        jarvis_neural::SimdTier::detect(),
    );
    println!("meta {meta}");
    if args.trace {
        let path = write_spans(args, &tracer, &meta)?;
        println!("spans written to {path}");
    }
    Ok(report)
}

fn main() {
    let start_ns = monotonic_ns();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload decide|guard|learn --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    match run(&args, start_ns) {
        Ok(report) => {
            for failure in &report.failures {
                eprintln!("check failed: {failure}");
            }
            println!("{}", result_line(&report, args.trace));
            if report.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
