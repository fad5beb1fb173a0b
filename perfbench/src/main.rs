//! End-to-end and per-layer benchmark of the workspace's two verdict
//! paths: sampled campaign runs (`sample-*` workloads) and exhaustive
//! exploration (`explore-*` workloads).
//!
//! ```text
//! scup-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Each invocation runs one workload in this process for about `S`
//! seconds, closed loop (the next operation starts when the last has its
//! verdict), checks every verdict independently of the program's own
//! oracles, and prints one JSON object as the last line of stdout:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, taken by timing the calls this benchmark makes into
//! each layer's public functions. The line before it carries the sample
//! count behind every metric. See README.md for the workloads and
//! metrics.

mod explore;
mod sample;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (0 when the workload never calls the
    /// layer, and the value is 0).
    pub samples: usize,
}

/// What one invocation measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Check failures; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Extra facts for the detail line (tail percentile, rounds, ...).
    pub notes: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Records a failed check (kept to the first few of each run).
    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 20 {
            eprintln!("check failed: {msg}");
        }
        self.errors.push(msg);
    }
}

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
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// SplitMix64: spreads the benchmark seed into per-scenario seeds.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS: /proc/self/status unreadable: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("peak RSS: no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Where the traced run writes its Perfetto document: under the build
/// directory (`CARGO_TARGET_DIR`, else `.bench_build`).
pub fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    std::path::Path::new(&dir)
        .join("perfbench-traces")
        .join(format!("{workload}-seed{seed}.json"))
}

pub fn write_trace(workload: &str, seed: u64, json: &str) -> Result<(), String> {
    let path = trace_path(workload, seed);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("trace: {}", path.display());
    Ok(())
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: scup-perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
                 workloads: {}",
                WORKLOADS.join(", ")
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "sample-adversity" | "sample-scale" => sample::run(&args),
        "explore-sink3" | "explore-bftcup-equiv" => explore::run(&args),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.trace {
        // Every per-layer metric is printed; a layer the workload never
        // calls reads 0 with 0 samples.
        let mut ordered = Vec::with_capacity(PER_LAYER.len());
        for (name, unit) in PER_LAYER {
            match report.metrics.iter().position(|m| m.name == name) {
                Some(i) => ordered.push(report.metrics.swap_remove(i)),
                None => ordered.push(Metric {
                    name,
                    unit,
                    value: 0.0,
                    samples: 0,
                }),
            }
        }
        assert!(
            report.metrics.is_empty(),
            "per-layer metric missing from PER_LAYER"
        );
        report.metrics = ordered;
    }

    let mut detail = String::from("{\"samples\": {");
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(detail, "{sep}\"{}\": {}", m.name, m.samples);
    }
    detail.push('}');
    for (k, v) in &report.notes {
        let _ = write!(detail, ", \"{k}\": {}", num(*v));
    }
    let _ = write!(detail, ", \"check_failures\": {}}}", report.errors.len());
    println!("{detail}");

    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.errors.is_empty(),
        report.attempted,
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
    ExitCode::SUCCESS
}

const WORKLOADS: [&str; 4] = [
    "sample-adversity",
    "sample-scale",
    "explore-sink3",
    "explore-bftcup-equiv",
];

/// Every per-layer metric, in print order.
const PER_LAYER: [(&str, &str); 25] = [
    ("graph.topology_us", "us"),
    ("core.sink_detect_ms", "ms"),
    ("core.sink_detect_deliveries", "count"),
    ("core.build_slices_us", "us"),
    ("cup.bftcup_ms", "ms"),
    ("sim.fault_events", "count"),
    ("harness.oracle_us", "us"),
    ("scp.phase_ms", "ms"),
    ("scp.deliveries", "count"),
    ("scp.dup_envelope_share", "ratio"),
    ("scp.ns_per_delivery", "ns"),
    ("sim.delivered_per_s", "1/s"),
    ("mc.setup_ms", "ms"),
    ("mc.states_per_s", "1/s"),
    ("mc.transitions", "count"),
    ("mc.settle_s", "s"),
    ("mc.canonicalize_s", "s"),
    ("mc.expand_s", "s"),
    ("mc.restore_s", "s"),
    ("mc.fingerprint_s", "s"),
    ("mc.dedup_s", "s"),
    ("mc.worker_transition_ratio", "ratio"),
    ("mc.visited_peak", "count"),
    ("obs.trace_overhead_s", "s"),
    ("bench.unattributed_s", "s"),
];
