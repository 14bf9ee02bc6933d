//! Bulk-synchronous vs futurized (overlapped) distributed march: wall time,
//! communication-wait attribution, and per-rank idle fraction, exported as
//! `results/BENCH_dist.json` (the checked-in seed baseline; see
//! EXPERIMENTS.md for the schema).
//!
//! Usage: `dist_overlap [OUT_DIR]` (default: `results/`). Requires the
//! `trace` feature (on by default for this crate). Both schedules run under
//! the same deterministic compute/send jitter, so the comparison isolates
//! the schedule: identical work, identical (bit-for-bit) results, different
//! placement of waiting. Each schedule marches `REPEATS` times, alternating
//! with the other so host drift hits both alike, and reports its
//! median-comm-wait march: a single march's shrink varied by ±0.04 on a
//! 2-vCPU host.

use std::time::Instant;

use op2_airfoil::{FlowConstants, MeshBuilder};
use op2_dist::exec::{run_distributed_opts, DistOptions, JitterSpec};
use op2_dist::swe::run_swe_distributed_opts;
use op2_dist::Partition;
use op2_swe::{SweApp, SweConfig};
use op2_trace::report::analyze;
use op2_trace::{Collector, EventKind, Timeline};
use serde::Value;

const NRANKS: usize = 4;
const JITTER: JitterSpec = JitterSpec { seed: 11, max_us: 2000 };
/// Marches per schedule; the median one is reported.
const REPEATS: usize = 5;

fn opts(overlap: bool) -> DistOptions {
    DistOptions { overlap, jitter: Some(JITTER), ..DistOptions::default() }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Wait time (blocking recv + barrier + halo polling) per recording thread,
/// as a fraction of the run's wall time. Fabric ranks are OS threads, so
/// grouping spans by `tid` yields per-rank idle; only threads with fabric
/// activity are reported (the driver thread never waits on the fabric).
fn idle_fractions(t: &Timeline, wall_ns: u64) -> Value {
    let mut idle: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
    for e in &t.events {
        match e.kind {
            EventKind::FabricRecv | EventKind::FabricBarrier | EventKind::HaloWait => {
                *idle.entry(e.tid).or_default() += e.dur_ns();
            }
            _ => {}
        }
    }
    Value::Array(
        idle.into_iter()
            .map(|(tid, ns)| {
                obj(vec![
                    ("tid", Value::UInt(u64::from(tid))),
                    ("wait_ns", Value::UInt(ns)),
                    ("idle_fraction", Value::Float(ns as f64 / wall_ns.max(1) as f64)),
                ])
            })
            .collect(),
    )
}

fn traced<F: FnOnce()>(run: F) -> (u64, Timeline) {
    let collector = Collector::start();
    let t0 = Instant::now();
    run();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    (wall_ns, collector.stop())
}

/// March one schedule once; returns `(json, comm_wait_ns)`.
fn measure(label: &str, overlap: bool, run: impl FnOnce()) -> (Value, u64) {
    let (wall_ns, timeline) = traced(run);
    let rep = analyze(&timeline);
    println!(
        "{label:<22} wall {:>8.3} ms | recv {:>8.3} ms | barrier {:>7.3} ms | halo {:>7.3} ms",
        wall_ns as f64 / 1e6,
        rep.fabric_recv_ns as f64 / 1e6,
        rep.fabric_barrier_ns as f64 / 1e6,
        rep.halo_wait_ns as f64 / 1e6,
    );
    let json = obj(vec![
        ("schedule", Value::Str(if overlap { "overlapped" } else { "bulk" }.into())),
        ("wall_ns", Value::UInt(wall_ns)),
        ("fabric_recv_ns", Value::UInt(rep.fabric_recv_ns)),
        ("fabric_barrier_ns", Value::UInt(rep.fabric_barrier_ns)),
        ("fabric_allreduce_ns", Value::UInt(rep.fabric_allreduce_ns)),
        ("fabric_send_ns", Value::UInt(rep.fabric_send_ns)),
        ("halo_wait_ns", Value::UInt(rep.halo_wait_ns)),
        ("comm_wait_ns", Value::UInt(rep.comm_wait_ns())),
        ("per_rank", idle_fractions(&timeline, wall_ns)),
    ]);
    (json, rep.comm_wait_ns())
}

/// March both schedules `REPEATS` times, interleaved, and return each
/// schedule's median-comm-wait march as `(bulk, overlapped)`, each
/// `(json, comm_wait_ns)`. The json gains `comm_wait_ns_runs`, every
/// march's comm wait in run order.
fn measure_median(app: &str, run: impl Fn(bool)) -> ((Value, u64), (Value, u64)) {
    let mut marches: [Vec<(Value, u64)>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..REPEATS {
        for (overlap, out) in [false, true].into_iter().zip(marches.iter_mut()) {
            let label = format!("{app} {}", if overlap { "overlapped" } else { "bulk" });
            out.push(measure(&label, overlap, || run(overlap)));
        }
    }
    let [bulk, lap] = marches.map(|mut runs| {
        let all: Vec<Value> = runs.iter().map(|(_, ns)| Value::UInt(*ns)).collect();
        runs.sort_by_key(|(_, ns)| *ns);
        let (mut json, ns) = runs.swap_remove(REPEATS / 2);
        if let Value::Object(fields) = &mut json {
            fields.push(("comm_wait_ns_runs".to_string(), Value::Array(all)));
        }
        (json, ns)
    });
    (bulk, lap)
}

/// Fractional reduction of comm wait going bulk → overlapped.
fn shrink(bulk_ns: u64, lap_ns: u64) -> Value {
    Value::Float(1.0 - lap_ns as f64 / bulk_ns.max(1) as f64)
}

fn main() {
    if !op2_trace::COMPILED {
        eprintln!("dist_overlap requires the `trace` feature (op2-trace/record)");
        std::process::exit(1);
    }
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| "results".into());
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    // Airfoil: 48x24 channel with a pressure pulse, 4 ranks, 4 iterations.
    let (nx, ny, niter) = (48usize, 24usize, 4usize);
    let consts = FlowConstants::default();
    let builder = MeshBuilder::channel(nx, ny);
    let mesh = builder.build(&consts);
    mesh.add_pulse(1.0, 0.5, 0.25, 0.2, &consts);
    let (data, q0) = (builder.data(), mesh.p_q.to_vec());
    let part = Partition::strips(nx * ny, NRANKS);

    println!("# airfoil {nx}x{ny}, {NRANKS} ranks, {niter} iters, jitter {} us", JITTER.max_us);
    let ((air_bulk, air_bulk_ns), (air_lap, air_lap_ns)) = measure_median("airfoil", |overlap| {
        run_distributed_opts(&data, &consts, &q0, &part, niter, 1, &opts(overlap)).unwrap();
    });

    // Shallow-water: closed 32x16 basin with a dam break, 4 ranks, 4 steps.
    let (imax, jmax, steps) = (32usize, 16usize, 4usize);
    let app = SweApp::new(SweConfig { imax, jmax, ..SweConfig::default() });
    app.dam_break(2.0, 2.0, 1.0);
    let w0 = app.w.to_vec();
    let mut sdata = MeshBuilder::channel(imax, jmax).data();
    sdata.bound.iter_mut().for_each(|b| *b = op2_swe::kernels::SWE_WALL);
    let spart = Partition::strips(imax * jmax, NRANKS);

    println!("# shallow-water {imax}x{jmax}, {NRANKS} ranks, {steps} steps");
    let ((swe_bulk, swe_bulk_ns), (swe_lap, swe_lap_ns)) = measure_median("swe", |overlap| {
        run_swe_distributed_opts(&sdata, 9.81, 0.4, &w0, &spart, steps, 1, &opts(overlap)).unwrap();
    });

    let doc = obj(vec![
        ("bench", Value::Str("dist_overlap".into())),
        ("nranks", Value::UInt(NRANKS as u64)),
        ("repeats", Value::UInt(REPEATS as u64)),
        (
            "jitter",
            obj(vec![
                ("seed", Value::UInt(JITTER.seed)),
                ("max_us", Value::UInt(u64::from(JITTER.max_us))),
            ]),
        ),
        (
            "airfoil",
            obj(vec![
                ("mesh", Value::Str(format!("{nx}x{ny}"))),
                ("iters", Value::UInt(niter as u64)),
                ("runs", Value::Array(vec![air_bulk, air_lap])),
                ("comm_wait_shrink", shrink(air_bulk_ns, air_lap_ns)),
            ]),
        ),
        (
            "shallow_water",
            obj(vec![
                ("mesh", Value::Str(format!("{imax}x{jmax}"))),
                ("steps", Value::UInt(steps as u64)),
                ("runs", Value::Array(vec![swe_bulk, swe_lap])),
                ("comm_wait_shrink", shrink(swe_bulk_ns, swe_lap_ns)),
            ]),
        ),
    ]);
    let path = format!("{out_dir}/BENCH_dist.json");
    std::fs::write(&path, serde_json::to_string(&doc).expect("serialize"))
        .expect("write BENCH_dist.json");
    println!("-> {path}");
}
