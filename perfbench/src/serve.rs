//! `serve-mixed`: the durable job service in a closed loop.
//!
//! `nproc` client threads each keep one durable job in flight (submit,
//! wait for the outcome, submit the next), so `nproc` jobs are in flight.
//! Jobs follow a seeded order and mix: small Airfoil and shallow-water
//! recipes, most on a few shared mesh topologies (plan-cache topology
//! hits), a few on sizes of their own (cold plan builds). Every job goes
//! through `submit_durable`, so journal appends and fsyncs run beside the
//! compute.
//!
//! Arms are the service's backend (serial, fork-join, dataflow). Each arm
//! runs in slices of `JOBS_PER_SLICE` jobs, each on its own fresh service
//! and journal, in round-robin with the other arms. A slice's throughput
//! is the cell-iterations of its completed jobs per second of slice wall
//! time; the arm reports the median slice. Only one service (one pool) is
//! alive at a time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use op2_hpx::{BackendKind, RetryPolicy};
use op2_serve::apps::{airfoil_program, run_solo, swe_program};
use op2_serve::{JobOutcome, PoolMode, Priority, Program, ServeOptions, Service, ServiceReport};
use op2_trace::{Collector, EventKind, Timeline};

use crate::ledger::{self, Spans};
use crate::{median, note, quantile, ratio, stage, Args, Outcome, Rng};

const KINDS: [BackendKind; 3] = [
    BackendKind::Serial,
    BackendKind::ForkJoin,
    BackendKind::Dataflow,
];
/// Part size every job's plans use (the service default).
const PART_SIZE: usize = 64;
/// Jobs per slice. A fixed count (rather than a fixed time) keeps the
/// service's per-slice state, and so the peak RSS, independent of how fast
/// the host happens to run.
const JOBS_PER_SLICE: usize = 400;
/// Length of the seeded job order; a run never gets near it.
const ORDER_LEN: usize = 200_000;

#[derive(Clone, Copy)]
enum App {
    Airfoil,
    Swe,
}

struct Recipe {
    name: String,
    app: App,
    imax: usize,
    jmax: usize,
    iters: usize,
    /// Solo reference digest (serial backend, outside any service).
    reference: u64,
}

fn program(app: App, imax: usize, jmax: usize, iters: usize) -> Program {
    match app {
        App::Airfoil => airfoil_program(imax, jmax, iters),
        App::Swe => swe_program(imax, jmax, iters),
    }
}

impl Recipe {
    fn program(&self) -> Program {
        program(self.app, self.imax, self.jmax, self.iters)
    }

    /// Cell-iterations (or cell-steps) one job performs.
    fn work(&self) -> f64 {
        (self.imax * self.jmax * self.iters) as f64
    }
}

/// The recipes, shared topologies first; returns them with the number of
/// shared ones.
fn recipes(toy: bool, rng: &mut Rng) -> (Vec<Recipe>, usize) {
    let mut specs: Vec<(App, usize, usize, usize)> = if toy {
        vec![(App::Airfoil, 8, 4, 2), (App::Swe, 8, 4, 2)]
    } else {
        vec![
            (App::Airfoil, 32, 16, 4),
            (App::Airfoil, 48, 24, 3),
            (App::Airfoil, 64, 32, 2),
            (App::Swe, 32, 16, 4),
            (App::Swe, 48, 24, 3),
        ]
    };
    let shared = specs.len();
    // Sizes of their own (odd widths, so no other recipe shares their
    // topology); the app and height are seeded.
    let unique = if toy { 2 } else { 12 };
    for k in 0..unique {
        let imax = if toy { 9 + 2 * k } else { 41 + 2 * k };
        let app = if rng.below(3) == 0 {
            App::Swe
        } else {
            App::Airfoil
        };
        specs.push((app, imax, imax / 2 + rng.below(3), 2));
    }
    let recipes = specs
        .into_iter()
        .map(|(app, imax, jmax, iters)| Recipe {
            name: format!(
                "{}-{imax}x{jmax}-{iters}",
                if matches!(app, App::Airfoil) {
                    "air"
                } else {
                    "swe"
                }
            ),
            app,
            imax,
            jmax,
            iters,
            reference: 0,
        })
        .collect();
    (recipes, shared)
}

struct JobRec {
    key: String,
    recipe: usize,
    start: Instant,
    end: Instant,
    ok: bool,
}

struct Slice {
    arm: usize,
    setup_s: f64,
    wall_s: f64,
    /// Submit-to-outcome latency of every job, ms.
    lat_ms: Vec<f64>,
    attempted: usize,
    completed: usize,
    /// Cell-iterations of the completed jobs.
    work: f64,
    /// Per-job records, kept for traced slices only so that the
    /// benchmark's own memory does not grow with the jobs it runs.
    jobs: Vec<JobRec>,
    report: ServiceReport,
    appends: usize,
    bytes: usize,
    timeline: Option<Timeline>,
}

#[allow(clippy::too_many_arguments)]
fn run_slice(
    args: &Args,
    spans: &mut Spans,
    recipes: &[Recipe],
    order: &[(usize, usize)],
    next: &AtomicUsize,
    arm: usize,
    tag: &str,
    quota: usize,
    traced: bool,
) -> Slice {
    let threads = crate::nproc();
    let dir = args
        .work_dir
        .join(format!("journal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = ServeOptions::default()
        .workers(threads)
        .pool(PoolMode::Shared { threads })
        .part_size(PART_SIZE)
        .backend(KINDS[arm])
        .journal(&dir);
    for r in recipes {
        let (app, imax, jmax, iters) = (r.app, r.imax, r.jmax, r.iters);
        opts = opts.recipe(r.name.clone(), move || program(app, imax, jmax, iters));
    }
    let (svc, setup_s) = spans.time("serve.start", || Service::start(opts));

    let taken = AtomicUsize::new(0);
    let records: Mutex<Vec<JobRec>> = Mutex::new(Vec::new());
    let collector = traced.then(Collector::start);
    let sid = spans.enter(&format!("serve.slice.{}", crate::ARMS[arm]));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut mine = Vec::new();
                while taken.fetch_add(1, Ordering::Relaxed) < quota {
                    let n = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(ri, tenant)) = order.get(n) else { break };
                    let key = format!("{tag}-{n}");
                    let start = Instant::now();
                    let outcome = svc
                        .try_submit_durable(&key, &recipes[ri].name, ["a", "b"][tenant], Priority::Normal, 1.0)
                        .map(|h| h.wait());
                    let end = Instant::now();
                    let ok = matches!(&outcome, Ok(JobOutcome::Completed(o)) if o.digest == recipes[ri].reference);
                    if !ok {
                        eprintln!("[perfbench] serve-mixed: job {key} ({}) bad outcome: {:?}", recipes[ri].name, outcome.map(|o| o.label()));
                    }
                    mine.push(JobRec { key, recipe: ri, start, end, ok });
                }
                records.lock().expect("records lock").extend(mine);
            });
        }
    });
    let wall_s = spans.exit(sid);
    let timeline = collector.map(Collector::stop);
    let mut jobs = records.into_inner().expect("records lock");
    let lat_ms = jobs
        .iter()
        .map(|j| (j.end - j.start).as_secs_f64() * 1e3)
        .collect();
    let (attempted, completed) = (jobs.len(), jobs.iter().filter(|j| j.ok).count());
    let work = jobs
        .iter()
        .filter(|j| j.ok)
        .map(|j| recipes[j.recipe].work())
        .sum();
    if traced {
        for j in &jobs {
            spans.record("serve.job", j.start, j.end);
        }
    } else {
        jobs = Vec::new();
    }
    let stats = svc.journal_stats().unwrap_or_default();
    let (report, _) = spans.time("serve.drain", || svc.drain());
    let _ = std::fs::remove_dir_all(&dir);
    Slice {
        arm,
        setup_s,
        wall_s,
        lat_ms,
        attempted,
        completed,
        work,
        jobs,
        report,
        appends: stats.appends,
        bytes: stats.bytes,
        timeline,
    }
}

pub fn run(args: &Args, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let threads = crate::nproc();

    stage("serve-mixed: generate inputs");
    let mut rng = Rng::new(args.seed);
    let (mut recipes, shared) = recipes(args.toy, &mut rng);
    // 95% of jobs on shared topologies, 5% on sizes of their own; two
    // tenants of equal weight.
    let order: Vec<(usize, usize)> = (0..ORDER_LEN)
        .map(|_| {
            let ri = if rng.below(100) < 5 {
                shared + rng.below(recipes.len() - shared)
            } else {
                rng.below(shared)
            };
            (ri, rng.below(2))
        })
        .collect();
    stage("serve-mixed: solo references");
    for r in recipes.iter_mut() {
        let solo = run_solo(
            r.program(),
            threads,
            PART_SIZE,
            BackendKind::Serial,
            RetryPolicy::default(),
        );
        match solo {
            Ok(o) => r.reference = o.digest,
            Err(e) => {
                out.check(
                    false,
                    &format!("serve-mixed: solo reference {} failed: {e:?}", r.name),
                );
            }
        }
    }
    out.working_set_bytes = recipes
        .iter()
        .map(|r| (r.imax * r.jmax * 18 * 8) as u64)
        .max()
        .unwrap_or(0)
        * threads as u64;
    note(format!(
        "serve-mixed: closed loop, {threads} clients ({threads} jobs in flight), {} recipes ({shared} shared topologies), \
         durable journal, arms = service backend serial/omp/dataflow",
        recipes.len()
    ));

    // ---- slices ----------------------------------------------------------
    let next = AtomicUsize::new(0);
    // Traced slices are shorter so the trace rings never overflow; a traced
    // run compares them with untraced slices of the same length.
    let quota = match (args.toy, args.trace) {
        (true, _) => 20,
        (false, false) => JOBS_PER_SLICE,
        (false, true) => JOBS_PER_SLICE / 4,
    };
    let mut slices = Vec::new();
    let t0 = Instant::now();
    let mut round = 0;
    while round < 3 || t0.elapsed().as_secs_f64() < args.seconds {
        for arm in 0..3 {
            for traced in [false, args.trace] {
                let tag = format!("r{round}a{arm}{}", if traced { "t" } else { "" });
                slices.push(run_slice(
                    args, spans, &recipes, &order, &next, arm, &tag, quota, traced,
                ));
                if !args.trace {
                    break;
                }
            }
        }
        round += 1;
    }

    // ---- end-to-end -------------------------------------------------------
    let untraced: Vec<&Slice> = slices.iter().filter(|s| s.timeline.is_none()).collect();
    // Cell-iterations of the slice's completed jobs per second, Mcell/s.
    let rate = |s: &Slice| s.work / s.wall_s / 1e6;
    let mut arm_rate = [0.0f64; 3];
    for (a, arm) in crate::ARMS.iter().enumerate() {
        let r: Vec<f64> = untraced
            .iter()
            .filter(|s| s.arm == a)
            .map(|s| rate(s))
            .collect();
        crate::note_samples(
            &format!("serve-mixed: {} slices", KINDS[a]),
            "Mcell-iter/s",
            &r,
        );
        arm_rate[a] = median(&r);
        out.put(format!("{arm}.mcells_per_s"), arm_rate[a]);
    }
    out.put(
        "setup_s",
        median(&slices.iter().map(|s| s.setup_s).collect::<Vec<_>>()),
    );

    let lat_ms: Vec<f64> = slices
        .iter()
        .flat_map(|s| s.lat_ms.iter().copied())
        .collect();
    let attempted: usize = slices.iter().map(|s| s.attempted).sum();
    let completed: usize = slices.iter().map(|s| s.completed).sum();
    out.attempted += attempted as u64;
    out.failed += (attempted - completed) as u64;
    let total_wall: f64 = slices.iter().map(|s| s.wall_s).sum();
    let (p50, p99) = (quantile(&lat_ms, 0.5), quantile(&lat_ms, 0.99));
    out.put("serve.jobs", completed as f64);
    out.put("serve.jobs_per_s", completed as f64 / total_wall);
    out.put("serve.job_ms_p50", p50);
    out.put("serve.job_ms_p99", p99);
    note(format!(
        "serve-mixed: {} jobs over {} slices ({:.1} jobs/s); latency p50 {p50:.3} ms, p99 {p99:.3} ms \
         ({} samples beyond p99{})",
        attempted,
        slices.len(),
        completed as f64 / total_wall,
        lat_ms.len() / 100,
        if lat_ms.len() >= 1000 { "" } else { "; fewer than 10, p99 is indicative only" }
    ));
    note(format!(
        "serve-mixed: median Mcell-iter/s serial {:.4} omp {:.4} dataflow {:.4}; ratios dataflow/omp {:.4}, \
         omp/serial {:.4}, dataflow/serial {:.4} (informational, ungated)",
        arm_rate[0],
        arm_rate[1],
        arm_rate[2],
        ratio(arm_rate[2], arm_rate[1]),
        ratio(arm_rate[1], arm_rate[0]),
        ratio(arm_rate[2], arm_rate[0])
    ));

    // ---- service and store layers ----------------------------------------
    let sum = |f: &dyn Fn(&Slice) -> f64| slices.iter().map(f).sum::<f64>();
    let builds = sum(&|s| s.report.plan_builds as f64);
    let hits = sum(&|s| s.report.plan_topo_hits as f64);
    out.put(
        "serve.queue_peak",
        slices
            .iter()
            .map(|s| s.report.queue_peak)
            .max()
            .unwrap_or(0) as f64,
    );
    out.put("serve.shed", sum(&|s| s.report.shed as f64));
    out.put("serve.plan_builds", builds);
    out.put("serve.plan_topo_hits", hits);
    out.put("serve.plan_requests", builds + hits);
    out.put("serve.plan_hit_ratio", ratio(hits, builds + hits));
    for s in &slices {
        out.check(
            s.report.is_conserved(),
            "serve-mixed: service report does not conserve jobs",
        );
        out.check(
            s.report.shed == 0,
            &format!("serve-mixed: {} jobs shed", s.report.shed),
        );
    }
    let jobs_f = completed.max(1) as f64;
    out.put("store.appends_per_job", sum(&|s| s.appends as f64) / jobs_f);
    out.put("store.bytes_per_job", sum(&|s| s.bytes as f64) / jobs_f);

    if args.trace {
        let (mut run_ms, mut wait_ms) = (Vec::new(), Vec::new());
        let (mut io_ns, mut lat_ns, mut traced_jobs, mut dropped) = (0u64, 0f64, 0usize, 0u64);
        let (mut traced_rates, mut fracs): (Vec<Vec<f64>>, Vec<Vec<f64>>) =
            (vec![Vec::new(); 3], vec![Vec::new(); 3]);
        for s in &slices {
            let Some(t) = &s.timeline else { continue };
            dropped += t.dropped;
            let mut job_run: std::collections::HashMap<&str, u64> = Default::default();
            let mut intervals = Vec::new();
            for e in t.of_kind(EventKind::Job) {
                if let Some(name) = t.name_of(e.name) {
                    job_run.insert(name, e.dur_ns());
                }
                intervals.push((e.start_ns, e.end_ns));
            }
            io_ns += t
                .of_kind(EventKind::JournalIo)
                .map(|e| e.dur_ns())
                .sum::<u64>();
            for j in &s.jobs {
                let lat = (j.end - j.start).as_nanos() as f64;
                lat_ns += lat;
                traced_jobs += 1;
                if let Some(&run) = job_run.get(j.key.as_str()) {
                    run_ms.push(run as f64 / 1e6);
                    wait_ms.push((lat - run as f64) / 1e6);
                }
            }
            traced_rates[s.arm].push(rate(s));
            fracs[s.arm].push(ledger::layer_sum_frac(&intervals, s.wall_s * 1e9));
        }
        for (a, arm) in crate::ARMS.iter().enumerate() {
            out.put(
                format!("trace.{arm}.overhead_frac"),
                1.0 - ratio(median(&traced_rates[a]), arm_rate[a]),
            );
            out.put(format!("trace.{arm}.layer_sum_frac"), median(&fracs[a]));
        }
        out.put("serve.run_ms_p50", median(&run_ms));
        out.put("serve.wait_ms_p50", median(&wait_ms));
        out.put(
            "store.io_ms_per_job",
            io_ns as f64 / 1e6 / traced_jobs.max(1) as f64,
        );
        out.put("store.io_frac_of_latency", ratio(io_ns as f64, lat_ns));
        out.put("trace.dropped_events", dropped as f64);
    }
    out
}
