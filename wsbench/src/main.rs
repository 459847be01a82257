//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path wsbench/Cargo.toml -- \
//!     --workload <train|serve_miss|serve_hot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) keeps spans around every layer call, writes them to
//! `wsbench/out/`, and reports the per-layer metrics. Either way the output
//! checks run, the line before last is the host stamp, and the last line is
//! the result object. See `wsbench/README.md`.

mod common;
mod serve;
mod trace;
mod train;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;

use util::{json_num, json_str};

/// End-to-end metrics, reported by every untraced run: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "ops/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("eta_mae_s", "s"),
];

/// Span names whose self time the traced run reports as `self.<name>_s`.
pub const LAYERS: &[&str] = &[
    "run",
    "setup",
    "datagen.write",
    "datagen.open",
    "traffic.tci_labeler",
    "graphembed.encoder_build",
    "core.init_weights",
    "core.freeze",
    "core.embed",
    "downstream.task.fit",
    "downstream.task.score",
    "downstream.index.build",
    "serve.warmup",
    "measure.untraced",
    "measure",
    "serve.call",
    "serve.reload",
    "serve.shutdown",
    "core.curriculum",
    "core.curriculum.experts",
    "core.curriculum.stages",
    "core.curriculum.final",
    "train.step",
    "nn.profiled_segment",
    "checks",
    "replay",
];

/// Tape ops reported as `nn.op.<op>_ms` (forward plus backward time in the
/// profiled training segment): the ones that dominate the WSCCL step.
pub const NN_OPS: &[&str] =
    &["LstmCell", "SliceCols", "GatherRow", "CosSim", "ConcatRows", "LogSumExp"];

/// Per-layer metrics, reported by every traced run: (name, unit). A layer
/// a workload never enters reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("datagen.write_s", "s"),
        ("datagen.records_per_s", "records/s"),
        ("datagen.open_s", "s"),
        ("graphembed.encoder_build_s", "s"),
        ("core.curriculum.experts_s", "s"),
        ("core.curriculum.stages_s", "s"),
        ("core.curriculum.final_s", "s"),
        ("train.step_ms.p50", "ms"),
        ("train.step_ms.p90", "ms"),
        ("train.skipped_step_frac", "ratio"),
        ("nn.forward_s", "s"),
        ("nn.backward_s", "s"),
        ("core.freeze_s", "s"),
        ("downstream.task.fit_s", "s"),
        ("serve.batches", "count"),
        ("serve.batch_mean", "items"),
        ("serve.max_batch_seen", "items"),
        ("serve.cache.hit_rate", "ratio"),
        ("serve.cache.evictions", "count"),
        ("serve.reloads", "count"),
        ("serve.reload_errors", "count"),
        ("core.embed_batch_us", "us"),
        ("serve.cache.get_ns", "ns"),
        ("serve.cache.insert_ns", "ns"),
        ("downstream.index.knn_us", "us"),
        ("downstream.index.scan_fraction", "ratio"),
        ("downstream.index.recall_at_10", "ratio"),
        ("downstream.eta_predict_us", "us"),
        ("serve.overhead_us", "us"),
        ("trace.overhead_frac", "ratio"),
        ("trace.wall_s", "s"),
        ("trace.self_sum_s", "s"),
        ("host.wake_rtt_us", "us"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    v.extend(NN_OPS.iter().map(|op| (format!("nn.op.{op}_ms"), "ms")));
    v.extend(LAYERS.iter().map(|l| (format!("self.{l}_s"), "s")));
    v
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Train,
    ServeMiss,
    ServeHot,
}

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a workload run hands back: metric values, operation counts, the
/// output checks, and facts for the stamp (sample counts, sizes).
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool, String)>,
    pub info: Vec<(String, String)>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Record an output check; a failed check also counts as a failed
    /// operation.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[wsbench] CHECK FAILED {name}: {detail}");
        }
        self.checks.push((name.to_string(), ok, detail));
    }

    pub fn info(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.push((key.to_string(), value.to_string()));
    }
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = match get("--workload")?.as_str() {
        "train" => Workload::Train,
        "serve_miss" => Workload::ServeMiss,
        "serve_hot" => Workload::ServeHot,
        w => return Err(format!("unknown workload {w:?} (train, serve_miss, serve_hot)")),
    };
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Opts { workload, seed, seconds, trace })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn simd() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut f = Vec::new();
        if std::arch::is_x86_feature_detected!("avx2") {
            f.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            f.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            f.push("avx512f");
        }
        f.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    String::new()
}

/// The commit checked out, read from `.git` without running git; the
/// benchmark may run from an exported tree that has none.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else { return head };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{r}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines().find(|l| l.ends_with(r)).and_then(|l| l.split(' ').next()).map(String::from)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn stamp(opts: &Opts, report: &Report, wake: &[[f64; 2]; 2]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let host = [
        ("nproc", nproc.to_string()),
        ("cpu", json_str(&cpu_model())),
        ("simd", json_str(&simd())),
        ("kernels", json_str(wsccl_nn::kernels::active_name())),
        ("rustc", json_str(env!("WSBENCH_RUSTC"))),
        ("git_rev", json_str(&git_rev())),
        (
            "wake_rtt_us",
            format!(
                "{{\"one_cpu\": [{}, {}], \"two_cpus\": [{}, {}]}}",
                json_num(wake[0][0]),
                json_num(wake[1][0]),
                json_num(wake[0][1]),
                json_num(wake[1][1])
            ),
        ),
    ];
    let workload = match opts.workload {
        Workload::Train => "train",
        Workload::ServeMiss => "serve_miss",
        Workload::ServeHot => "serve_hot",
    };
    let obj = |pairs: Vec<String>| format!("{{{}}}", pairs.join(", "));
    let host = obj(host.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect());
    let info =
        obj(report.info.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect());
    let checks = obj(report
        .checks
        .iter()
        .map(|(k, ok, d)| format!("{}: {{\"ok\": {ok}, \"detail\": {}}}", json_str(k), json_str(d)))
        .collect());
    format!(
        "{{\"stamp\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {host}, \
         \"info\": {info}, \"checks\": {checks}}}}}",
        json_str(workload),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    )
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("wsbench: {e}");
            eprintln!(
                "usage: wsbench --workload <train|serve_miss|serve_hot> --seed <n> --seconds <s> \
                 --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Round trips on the CPU the serve workloads run on, and across CPUs,
    // before and after the run.
    let cpus = util::allowed_cpus();
    let (first, last) = (cpus.first().copied().unwrap_or(0), cpus.last().copied().unwrap_or(0));
    let probe = || [util::wake_rtt_us([last, last]), util::wake_rtt_us([first, last])];
    let wake_before = probe();
    let mut report = match opts.workload {
        Workload::Train => train::run(&opts),
        _ => serve::run(&opts),
    };
    let wake = [wake_before, probe()];
    report.set("host.wake_rtt_us", (wake[0][0] + wake[1][0]) / 2.0);
    report.set(
        "peak_rss_mb",
        wsccl_obs::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0)),
    );

    let wanted: Vec<(String, &str)> = if opts.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut correct = report.failed == 0 && report.checks.iter().all(|c| c.1);
    let mut fields = Vec::new();
    for (name, unit) in &wanted {
        let value = match report.metrics.get(name) {
            Some(&v) => v,
            None if opts.trace => 0.0,
            None => f64::NAN,
        };
        if !value.is_finite() {
            eprintln!("[wsbench] metric {name} has no finite value");
            correct = false;
        }
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        ));
    }
    println!("{}", stamp(&opts, &report, &wake));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
