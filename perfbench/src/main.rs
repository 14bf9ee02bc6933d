//! End-to-end and per-layer benchmark of the OP2/HPX stack.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload, checks its outputs, and prints a provenance block,
//! informational lines (prefixed `#`) and, as the last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with no trace
//! session active; with `--trace 1` they are the per-layer ones, read from
//! an `op2-trace` session plus the benchmark's own spans. README.md lists
//! every metric, its definition, and the layer-to-end-to-end map.
//!
//! Every workload reports every metric of its mode. End-to-end metrics are
//! defined on every workload (see `E2E`); a per-layer metric of a layer
//! the workload does not run reads 0.

mod airfoil;
mod ledger;
mod serve;
mod swe;

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// End-to-end metrics: `(name, unit)`. The three throughput arms exist on
/// every workload: `base` is the single-threaded reference (serial executor,
/// one-rank march, service on the serial backend), `sync` the
/// bulk-synchronous parallel form (fork-join executor, bulk halo exchange,
/// service on the fork-join backend) and `async` the asynchronous form the
/// paper proposes (dataflow executor, overlapped halo exchange, service on
/// the dataflow backend).
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("base.mcells_per_s", "Mcell/s"),
    ("sync.mcells_per_s", "Mcell/s"),
    ("async.mcells_per_s", "Mcell/s"),
];

/// Arm labels in metric order, shared by every workload.
pub const ARMS: [&str; 3] = ["base", "sync", "async"];

/// The five Airfoil loops in issue order.
pub const LOOPS: [&str; 5] = ["save_soln", "adt_calc", "res_calc", "bres_calc", "update"];

/// Per-layer metrics: `(name, unit)`; see README.md for the definitions.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: String, u: &'static str| m.push((n, u));
    for b in ["omp", "dataflow"] {
        for (k, u) in [
            ("tasks_per_iter", "count"),
            ("steals_per_iter", "count"),
            ("parks_per_iter", "count"),
            ("barrier_waits_per_iter", "count"),
            ("dep_waits_per_iter", "count"),
            ("ns_per_task", "ns"),
        ] {
            add(format!("rt.{b}.{k}"), u);
        }
    }
    add("mesh.declare_ms".into(), "ms");
    add("plan.build_ms".into(), "ms");
    add("plan.blocks_per_iter".into(), "count");
    add("plan.colors_max".into(), "count");
    for l in LOOPS {
        add(format!("kernel.{l}.ms_per_iter"), "ms");
        add(format!("kernel.{l}.bytes_per_iter"), "B");
        add(format!("kernel.{l}.gbs_computed"), "GB/s");
    }
    for b in ["omp", "dataflow"] {
        for l in LOOPS {
            add(format!("exec.{b}.{l}.ms_per_iter"), "ms");
        }
        for k in [
            "overhead_ms_per_iter",
            "barrier_ms_per_iter",
            "dep_wait_ms_per_iter",
            "critical_path_ms_per_iter",
        ] {
            add(format!("exec.{b}.{k}"), "ms");
        }
        add(format!("exec.{b}.idle_frac"), "frac");
    }
    for a in ARMS {
        add(format!("trace.{a}.overhead_frac"), "frac");
        add(format!("trace.{a}.layer_sum_frac"), "frac");
    }
    add("trace.dropped_events".into(), "count");
    for s in ["overlap", "bulk"] {
        for k in [
            "comm_wait_ms_per_step",
            "halo_wait_ms_per_step",
            "allreduce_ms_per_step",
            "send_ms_per_step",
            "compute_ms_per_step",
        ] {
            add(format!("dist.{s}.{k}"), "ms");
        }
        add(format!("dist.{s}.max_rank_idle_frac"), "frac");
    }
    add("dist.msgs_per_step".into(), "count");
    add("dist.halo_cells".into(), "count");
    for (k, u) in [
        ("serve.jobs", "count"),
        ("serve.jobs_per_s", "1/s"),
        ("serve.job_ms_p50", "ms"),
        ("serve.job_ms_p99", "ms"),
        ("serve.queue_peak", "count"),
        ("serve.shed", "count"),
        ("serve.plan_builds", "count"),
        ("serve.plan_topo_hits", "count"),
        ("serve.plan_requests", "count"),
        ("serve.plan_hit_ratio", "frac"),
        ("serve.run_ms_p50", "ms"),
        ("serve.wait_ms_p50", "ms"),
        ("store.appends_per_job", "count"),
        ("store.bytes_per_job", "B"),
        ("store.io_ms_per_job", "ms"),
        ("store.io_frac_of_latency", "frac"),
    ] {
        add(k.into(), u);
    }
    m
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Toy problem sizes (the smoke test); never used by BENCHMARK.json.
    pub toy: bool,
    /// Scratch directory for journals and the span dump.
    pub work_dir: PathBuf,
    /// Watchdog limit override, seconds (the smoke test's stall check).
    pub deadline: Option<f64>,
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Bytes the workload's timed section touches (computed from array
    /// sizes), printed next to the cache sizes.
    pub working_set_bytes: u64,
}

impl Outcome {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Record one correctness check; a mismatch is a failed operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[perfbench] CHECK FAILED: {what}");
        }
    }
}

static STAGE: Mutex<String> = Mutex::new(String::new());

/// Name the stage the run is in; the deadline watchdog reports it on a
/// stall.
pub fn stage(s: impl Into<String>) {
    let s = s.into();
    eprintln!("[perfbench] {s}");
    *STAGE.lock().expect("stage lock poisoned") = s;
}

/// Print an informational (ungated) line.
pub fn note(s: impl AsRef<str>) {
    println!("# {}", s.as_ref());
}

/// Print the distribution of one arm's throughput samples.
pub fn note_samples(label: &str, unit: &str, v: &[f64]) {
    note(format!(
        "{label}: {} samples {unit} min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4}",
        v.len(),
        quantile(v, 0.0),
        quantile(v, 0.25),
        median(v),
        quantile(v, 0.75),
        quantile(v, 1.0)
    ));
}

/// Deterministic input generator (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over the bit patterns of `vals`.
pub fn digest(vals: impl IntoIterator<Item = f64>) -> u64 {
    vals.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Median of `v` (mean of the middle pair); 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; 0 for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Ratio that reads 0 instead of NaN/inf when the base is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Worker threads, ranks and in-flight jobs every workload uses.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown".into(), |v| {
            v.trim_start_matches([' ', '\t', ':']).to_string()
        })
}

/// Summed size of each cache level over its distinct instances, bytes.
fn cache_bytes(level: u32) -> u64 {
    let mut seen = std::collections::BTreeSet::new();
    let mut total = 0u64;
    let Ok(cpus) = std::fs::read_dir("/sys/devices/system/cpu") else {
        return 0;
    };
    for cpu in cpus.flatten() {
        let Ok(idx) = std::fs::read_dir(cpu.path().join("cache")) else {
            continue;
        };
        for index in idx.flatten() {
            let p = index.path();
            let read = |f: &str| std::fs::read_to_string(p.join(f)).unwrap_or_default();
            if read("level").trim() != level.to_string() || read("type").trim() == "Instruction" {
                continue;
            }
            if !seen.insert((read("shared_cpu_list").trim().to_string(), read("type"))) {
                continue;
            }
            let size = read("size");
            let size = size.trim();
            let (num, mult) = match size.strip_suffix('K') {
                Some(n) => (n, 1024),
                None => match size.strip_suffix('M') {
                    Some(n) => (n, 1024 * 1024),
                    None => (size, 1),
                },
            };
            total += num.parse::<u64>().unwrap_or(0) * mult;
        }
    }
    total
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn provenance(args: &Args, working_set: u64) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let (l2, l3) = (cache_bytes(2), cache_bytes(3));
    let fields = [
        ("nproc", nproc().to_string()),
        ("cpu_model", json_str(&cpu_model())),
        ("l2_bytes_total", l2.to_string()),
        ("l3_bytes_total", l3.to_string()),
        ("git_commit", json_str(&env("PERFBENCH_COMMIT"))),
        ("source_digest", json_str(&env("PERFBENCH_SOURCE_DIGEST"))),
        ("rustc", json_str(&env("PERFBENCH_RUSTC"))),
        (
            "build_profile",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (lto=thin)"
            }),
        ),
        (
            "features",
            json_str(if op2_trace::COMPILED {
                "trace=on (op2-trace/record, hpx-rt/trace, op2-hpx/trace, op2-dist/trace, op2-serve/trace); det=off; scalar-kernels=off"
            } else {
                "trace=off; det=off; scalar-kernels=off"
            }),
        ),
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace_session", args.trace.to_string()),
        ("size", json_str(if args.toy { "toy" } else { "full" })),
        ("working_set_bytes_computed", working_set.to_string()),
        (
            "working_set_over_l2",
            format!("{:.3}", ratio(working_set as f64, l2 as f64)),
        ),
        (
            "working_set_over_l3",
            format!("{:.3}", ratio(working_set as f64, l3 as f64)),
        ),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("provenance {{{}}}", body.join(", "))
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <airfoil-paper|airfoil-fine|swe-dist|serve-mixed> \
         --seed <n> --seconds <s> --trace <0|1> [--toy] [--work-dir <dir>] [--deadline <s>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        toy: false,
        work_dir: PathBuf::from(".bench_build/perfbench"),
        deadline: None,
    };
    while let Some(flag) = it.next() {
        if flag == "--toy" {
            args.toy = true;
            continue;
        }
        let Some(val) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => {
                args.seed = val
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be an unsigned integer"))
            }
            "--seconds" => {
                args.seconds = val
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds must be a number"));
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    usage("--seconds must lie in (0, 60]");
                }
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(val),
            "--deadline" => {
                let d: f64 = val
                    .parse()
                    .unwrap_or_else(|_| usage("--deadline must be a number"));
                if !(d > 0.0 && d <= 160.0) {
                    usage("--deadline must lie in (0, 160]");
                }
                args.deadline = Some(d);
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    args
}

/// Per-workload deadline: a stall (e.g. a runtime deadlock) ends the run
/// as a failed run naming the stage that hung, well inside the 180 s a
/// run may take. Never retried.
fn arm_watchdog(args: &Args) {
    let limit = Duration::from_secs_f64(
        args.deadline
            .unwrap_or((60.0 + 4.0 * args.seconds).min(160.0)),
    );
    let workload = args.workload.clone();
    let start = Instant::now();
    std::thread::Builder::new()
        .name("perfbench-watchdog".into())
        .spawn(move || loop {
            std::thread::sleep(Duration::from_millis(200));
            if start.elapsed() > limit {
                let stage = STAGE.lock().map(|s| s.clone()).unwrap_or_default();
                eprintln!(
                    "[perfbench] DEADLINE: workload {workload} exceeded {:.0} s; hung in stage '{stage}'",
                    limit.as_secs_f64()
                );
                note(format!("deadline exceeded: workload={workload} stage={stage}"));
                println!("{}", result_line(false, 1, 1, &[]));
                std::process::exit(3);
            }
        })
        .expect("spawn watchdog");
}

fn main() {
    let args = parse_args();
    if !matches!(
        args.workload.as_str(),
        "airfoil-paper" | "airfoil-fine" | "swe-dist" | "serve-mixed"
    ) {
        usage(&format!("unknown workload '{}'", args.workload));
    }
    if !op2_trace::COMPILED {
        usage("built without op2-trace/record; the per-layer run needs it");
    }
    std::fs::create_dir_all(&args.work_dir).unwrap_or_else(|e| usage(&format!("work dir: {e}")));
    arm_watchdog(&args);

    let mut spans = ledger::Spans::new();
    let out = match args.workload.as_str() {
        "airfoil-paper" | "airfoil-fine" => airfoil::run(&args, &mut spans),
        "swe-dist" => swe::run(&args, &mut spans),
        _ => serve::run(&args, &mut spans),
    };
    stage("report");
    note(provenance(&args, out.working_set_bytes));

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let mut failed = out.failed;
    let lookup = |name: &str| out.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
    if args.trace {
        for (name, unit) in per_layer() {
            let v = lookup(&name).unwrap_or(0.0);
            metrics.push((name, if v.is_finite() { v } else { 0.0 }, unit));
        }
        spans.report();
        let path = args
            .work_dir
            .join(format!("spans-{}-{}.json", args.workload, args.seed));
        if let Err(e) = spans.write(&path) {
            eprintln!("[perfbench] could not write {}: {e}", path.display());
        }
    } else {
        for &(name, unit) in E2E {
            let v = if name == "peak_rss_mb" {
                Some(peak_rss_mb())
            } else {
                lookup(name)
            };
            match v {
                Some(v) if v.is_finite() && v > 0.0 => metrics.push((name.into(), v, unit)),
                _ => {
                    eprintln!("[perfbench] metric {name} missing or not positive: {v:?}");
                    failed += 1;
                    metrics.push((name.into(), 0.0, unit));
                }
            }
        }
    }
    for (name, v, unit) in &metrics {
        note(format!("{name:<40} {v:>16.6} {unit}"));
    }
    let correct = failed == 0;
    println!("{}", result_line(correct, out.attempted, failed, &metrics));
    std::process::exit(if correct { 0 } else { 1 });
}
