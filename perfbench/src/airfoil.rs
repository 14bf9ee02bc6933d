//! `airfoil-paper` and `airfoil-fine`: the Airfoil march on the serial,
//! fork-join (`omp`) and dataflow executors, each with the paper's sync
//! strategy, over one shared runtime of `nproc` workers.
//!
//! The arms march in round-robin chunks so that machine noise falls on all
//! three alike; each chunk is one throughput sample and the arm reports the
//! median. After the timed section every arm has marched the same number
//! of iterations from the same state, so each final state must be bitwise
//! equal to the serial executor's.

use std::sync::Arc;
use std::time::Instant;

use op2_airfoil::mesh::{Mesh, MeshData, MeshOptions};
use op2_airfoil::{AirfoilLoops, FlowConstants, MeshBuilder, Simulation, SyncStrategy};
use op2_core::ParLoop;
use op2_hpx::{make_executor, BackendKind, Op2Runtime};
use op2_trace::{report, Collector};

use crate::ledger::{self, Spans};
use crate::{median, note, ratio, stage, Args, Outcome, Rng, LOOPS};

struct Shape {
    imax: usize,
    jmax: usize,
    /// Block (mini-partition) size; `None` = the library default.
    part_size: Option<usize>,
    /// Iterations per timed chunk (one throughput sample).
    chunk: usize,
    /// Setup repetitions after each round of the timed march; `setup_s`
    /// is the median of all reps.
    setup_reps: usize,
}

fn shape(args: &Args) -> Shape {
    match (args.workload.as_str(), args.toy) {
        // The paper's new_grid.dat has 720k cells; the generated channel
        // mesh stands in at the same cell count.
        ("airfoil-paper", false) => Shape {
            imax: 1200,
            jmax: 600,
            part_size: None,
            chunk: 1,
            setup_reps: 1,
        },
        ("airfoil-paper", true) => Shape {
            imax: 40,
            jmax: 20,
            part_size: None,
            chunk: 1,
            setup_reps: 1,
        },
        // 1250 cells (fits in L2) with 16-element blocks: hundreds of tiny
        // tasks per iteration.
        (_, false) => Shape {
            imax: 50,
            jmax: 25,
            part_size: Some(16),
            chunk: 40,
            setup_reps: 5,
        },
        (_, true) => Shape {
            imax: 16,
            jmax: 8,
            part_size: Some(8),
            chunk: 2,
            setup_reps: 1,
        },
    }
}

const KINDS: [BackendKind; 3] = [
    BackendKind::Serial,
    BackendKind::ForkJoin,
    BackendKind::Dataflow,
];

/// Executions of each loop per Airfoil iteration (save once, the stage
/// loops twice).
fn execs_per_iter(l: usize) -> f64 {
    if l == 0 {
        1.0
    } else {
        2.0
    }
}

fn loops_of(l: &AirfoilLoops) -> [&ParLoop; 5] {
    [
        &l.save_soln,
        &l.adt_calc,
        &l.res_calc,
        &l.bres_calc,
        &l.update,
    ]
}

/// Bytes one execution of `l` moves, computed from its access descriptors:
/// each argument moves its dat's values once per element per direction
/// (read, write, or both for RW/INC) plus a 4-byte map index when
/// indirect. No cache reuse is modelled, so this is a computed figure.
fn loop_bytes(l: &ParLoop, mesh: &Mesh) -> f64 {
    let per_elem: usize = l
        .args()
        .iter()
        .map(|a| {
            let elem = if a.dat_id == mesh.p_bound.id() { 4 } else { 8 };
            let dirs = usize::from(a.access.reads()) + usize::from(a.access.writes());
            a.dat_dim * elem * dirs + if a.is_indirect() { 4 } else { 0 }
        })
        .sum();
    (per_elem * l.set().size()) as f64
}

/// Bytes of the mesh's tables and dats (one arm's working set).
fn mesh_bytes(d: &MeshData) -> u64 {
    let maps = d.edge_nodes.len()
        + d.edge_cells.len()
        + d.bedge_nodes.len()
        + d.bedge_cells.len()
        + d.cell_nodes.len();
    let dats = d.coords.len() * 8 + d.bound.len() * 4 + d.ncells() * (4 + 4 + 1 + 4) * 8;
    (maps * 4 + dats) as u64
}

/// What the traced chunks of one arm add up to.
#[derive(Default)]
struct TracedArm {
    rates: Vec<f64>,
    fracs: Vec<f64>,
    idle: Vec<f64>,
    loop_ns: [u64; 5],
    barrier_ns: u64,
    dep_ns: u64,
    crit_ns: u64,
    tasks: u64,
    dropped: u64,
}

impl TracedArm {
    fn add(&mut self, timeline: &op2_trace::Timeline) {
        let rep = report::analyze(timeline);
        for (i, name) in LOOPS.iter().enumerate() {
            self.loop_ns[i] += rep
                .loops
                .iter()
                .filter(|l| l.name == *name)
                .map(|l| l.total_ns)
                .sum::<u64>();
        }
        self.barrier_ns += rep.barrier_blocked_ns + rep.untagged_barrier_ns;
        self.dep_ns += rep.dep_wait_ns + rep.untagged_dep_ns;
        self.crit_ns += rep.critical_path_ns;
        self.idle.push(rep.idle_fraction);
        self.dropped += timeline.dropped;
    }
}

/// Set-up times: declaration, runtime creation and cold plans.
#[derive(Default)]
struct SetupSamples {
    total_s: Vec<f64>,
    declare_ms: Vec<f64>,
    plan_ms: Vec<f64>,
}

impl SetupSamples {
    /// One set-up from the generated inputs (their copy is not timed).
    fn rep(
        &mut self,
        spans: &mut Spans,
        data: &MeshData,
        consts: &FlowConstants,
        sh: &Shape,
        threads: usize,
    ) -> (Mesh, Arc<Op2Runtime>) {
        let input = data.clone();
        let sid = spans.enter("setup");
        let (mesh, d) = spans.time("mesh.declare", || {
            Mesh::from_data_opts(input, consts, &MeshOptions::default())
        });
        let (runtime, _) = spans.time("rt.create", || {
            Arc::new(match sh.part_size {
                Some(p) => Op2Runtime::new(threads, p),
                None => Op2Runtime::with_threads(threads),
            })
        });
        let (_, p) = spans.time("plan.build", || {
            let loops = AirfoilLoops::new(&mesh, consts);
            for l in loops_of(&loops) {
                runtime.plan_for(l);
            }
        });
        self.total_s.push(spans.exit(sid));
        self.declare_ms.push(d * 1e3);
        self.plan_ms.push(p * 1e3);
        (mesh, runtime)
    }
}

fn state_digest(sim: &Simulation, rms: &[(usize, f64)]) -> u64 {
    crate::digest(
        sim.mesh()
            .unrenumbered_q()
            .into_iter()
            .chain(rms.iter().map(|r| r.1)),
    )
}

pub fn run(args: &Args, spans: &mut Spans) -> Outcome {
    let wl = args.workload.clone();
    let sh = shape(args);
    let mut out = Outcome::default();
    let threads = crate::nproc();

    if wl == "airfoil-paper" {
        note(
            "airfoil-paper is not in BENCHMARK.json: on the 2-vCPU host the benchmark was defined on, \
             its dataflow arm (about ten 0.6 s iterations per run) spread 0.14-0.41 (quartile distance \
             / median) across ten seeds, beyond the 0.24 bound; it stays runnable for the paper-size ledger",
        );
    }
    stage(format!("{wl}: generate inputs"));
    let consts = FlowConstants::default();
    let mut rng = Rng::new(args.seed);
    let (data, _) = MeshBuilder::channel(sh.imax, sh.jmax)
        .data()
        .shuffled(rng.next_u64());
    let (cx, cy) = (rng.range(0.8, 3.2), rng.range(0.3, 0.7));
    let ncells = data.ncells() as f64;
    out.working_set_bytes = mesh_bytes(&data);
    note(format!(
        "{wl}: channel {}x{} = {} cells, shuffled, pulse at ({cx:.3}, {cy:.3}), {} threads, part size {}",
        sh.imax,
        sh.jmax,
        data.ncells(),
        threads,
        sh.part_size.map_or("default".into(), |p| p.to_string())
    ));

    // ---- setup: mesh declaration, runtime creation, cold plans. The
    // first reps make the arms' meshes and runtime; more reps run between
    // the rounds of the timed march, so the median spans the whole run.
    stage(format!("{wl}: setup"));
    let keep = if args.trace { 4 } else { 3 };
    let mut setup = SetupSamples::default();
    let mut meshes: Vec<Mesh> = Vec::new();
    let mut rt: Option<Arc<Op2Runtime>> = None;
    for _ in 0..keep {
        drop(rt.take()); // one pool alive while the arms' meshes are made
        let (mesh, runtime) = setup.rep(spans, &data, &consts, &sh, threads);
        meshes.push(mesh);
        rt = Some(runtime);
    }
    let rt = rt.expect("setup ran");
    for m in &meshes {
        m.add_pulse(cx, cy, 0.25, 0.2, &consts);
    }

    // Plan shape (per iteration, as the executors see it).
    {
        let loops = AirfoilLoops::new(&meshes[0], &consts);
        let (mut blocks, mut colors) = (0.0, 0u32);
        for (i, l) in loops_of(&loops).into_iter().enumerate() {
            let p = rt.plan_for(l);
            blocks += p.nblocks() as f64 * execs_per_iter(i);
            colors = colors.max(p.ncolors);
        }
        out.put("plan.blocks_per_iter", blocks);
        out.put("plan.colors_max", f64::from(colors));
    }

    let kernel_mesh = if args.trace { meshes.pop() } else { None };
    let sims: Vec<Simulation> = meshes
        .into_iter()
        .zip(KINDS)
        .map(|(m, k)| {
            Simulation::new(
                m,
                &consts,
                make_executor(k, Arc::clone(&rt)),
                SyncStrategy::for_backend(k),
            )
        })
        .collect();
    // Warm-up: one chunk per arm lets plans, caches and lazy state settle.
    for (sim, kind) in sims.iter().zip(KINDS) {
        stage(format!("{wl}: warm-up {kind}"));
        sim.run(sh.chunk, sh.chunk);
    }
    let mut last_rms: Vec<Vec<(usize, f64)>> = vec![Vec::new(); 3];

    // Kernel-only time through each loop's registered body (traced run).
    let mut kernel_ms = [0.0f64; 5];
    if let Some(km) = &kernel_mesh {
        stage(format!("{wl}: kernels (single thread)"));
        let loops = AirfoilLoops::new(km, &consts);
        let budget = args.seconds * 0.2;
        let t0 = Instant::now();
        let mut samples: [Vec<f64>; 5] = Default::default();
        while samples[0].len() < 3 || t0.elapsed().as_secs_f64() < budget {
            let mut ns = [0.0f64; 5];
            for _ in 0..sh.chunk {
                for (i, l) in loops_of(&loops).into_iter().enumerate() {
                    for _ in 0..execs_per_iter(i) as usize {
                        let mut gbl = vec![0.0f64; l.gbl_dim()];
                        let n = l.set().size();
                        let (_, s) = spans.time(&format!("kernel.{}", LOOPS[i]), || {
                            l.run_span(0..n, &mut gbl)
                        });
                        ns[i] += s * 1e9;
                    }
                }
            }
            for i in 0..5 {
                samples[i].push(ns[i] / sh.chunk as f64);
            }
        }
        for (i, l) in loops_of(&loops).into_iter().enumerate() {
            kernel_ms[i] = median(&samples[i]) / 1e6;
            let bytes = loop_bytes(l, km) * execs_per_iter(i);
            out.put(format!("kernel.{}.ms_per_iter", LOOPS[i]), kernel_ms[i]);
            out.put(format!("kernel.{}.bytes_per_iter", LOOPS[i]), bytes);
            out.put(
                format!("kernel.{}.gbs_computed", LOOPS[i]),
                ratio(bytes, kernel_ms[i] * 1e6),
            );
        }
    }

    // ---- timed march: round-robin chunks; in a traced run each untraced
    // chunk is followed by a traced chunk of the same arm ------------------
    let budget = if args.trace {
        args.seconds * 0.8
    } else {
        args.seconds
    };
    let mut rates: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut traced: Vec<TracedArm> = (0..3).map(|_| TracedArm::default()).collect();
    let mut pool_delta = [[0u64; 6]; 3];
    let pool = Arc::clone(rt.pool());
    let snap = || {
        pool.metrics().map_or([0; 6], |m| {
            let s = m.snapshot();
            [
                s.tasks_spawned,
                s.tasks_executed,
                s.steals,
                s.parks,
                s.barrier_waits,
                s.dep_waits,
            ]
        })
    };
    let t0 = Instant::now();
    while rates[0].len() < 3 || t0.elapsed().as_secs_f64() < budget {
        for (a, (sim, kind)) in sims.iter().zip(KINDS).enumerate() {
            stage(format!("{wl}: march {kind}"));
            let before = snap();
            let (rms, s) = spans.time(&format!("march.{}", crate::ARMS[a]), || {
                sim.run(sh.chunk, sh.chunk)
            });
            let after = snap();
            for k in 0..6 {
                pool_delta[a][k] += after[k] - before[k];
            }
            out.attempted += 1;
            rates[a].push(ncells * sh.chunk as f64 / s / 1e6);
            last_rms[a] = rms;
            if !args.trace {
                continue;
            }
            stage(format!("{wl}: traced march {kind}"));
            let before = snap();
            let collector = Collector::start();
            let (rms, s) = spans.time(&format!("traced.{}", crate::ARMS[a]), || {
                sim.run(sh.chunk, sh.chunk)
            });
            let timeline = collector.stop();
            last_rms[a] = rms;
            let t = &mut traced[a];
            t.rates.push(ncells * sh.chunk as f64 / s / 1e6);
            t.fracs.push(ledger::layer_sum_frac(
                &ledger::loop_intervals(&timeline),
                s * 1e9,
            ));
            t.tasks += snap()[1] - before[1];
            t.add(&timeline);
        }
        stage(format!("{wl}: setup"));
        for _ in 0..sh.setup_reps {
            // The rep's runtime is dropped at once; the arms' pool is
            // parked meanwhile, so no more than `nproc` threads work.
            setup.rep(spans, &data, &consts, &sh, threads);
        }
    }
    out.put("setup_s", median(&setup.total_s));
    out.put("mesh.declare_ms", median(&setup.declare_ms));
    out.put("plan.build_ms", median(&setup.plan_ms));
    for (r, kind) in rates.iter().zip(KINDS) {
        crate::note_samples(&format!("{wl}: {kind}"), "Mcell-iter/s", r);
    }
    let iters_timed = (rates[0].len() * sh.chunk) as f64;
    let untraced: Vec<f64> = rates.iter().map(|r| median(r)).collect();
    for (a, arm) in crate::ARMS.iter().enumerate() {
        out.put(format!("{arm}.mcells_per_s"), untraced[a]);
    }
    note(format!(
        "{wl}: paper ratios (informational, ungated: a kernel change that speeds the backends unevenly \
         moves them without any regression): dataflow/omp {:.4}, omp/serial {:.4}, dataflow/serial {:.4}",
        ratio(untraced[2], untraced[1]),
        ratio(untraced[1], untraced[0]),
        ratio(untraced[2], untraced[0])
    ));
    for (a, b) in [(1usize, "omp"), (2, "dataflow")] {
        let d = pool_delta[a];
        let per = |x: u64| x as f64 / iters_timed;
        out.put(format!("rt.{b}.tasks_per_iter"), per(d[1]));
        out.put(format!("rt.{b}.steals_per_iter"), per(d[2]));
        out.put(format!("rt.{b}.parks_per_iter"), per(d[3]));
        out.put(format!("rt.{b}.barrier_waits_per_iter"), per(d[4]));
        out.put(format!("rt.{b}.dep_waits_per_iter"), per(d[5]));
        out.check(
            d[0] >= d[1],
            &format!(
                "{wl}/{b}: tasks executed {} exceed tasks spawned {}",
                d[1], d[0]
            ),
        );
    }

    if args.trace {
        let dropped: u64 = traced.iter().map(|t| t.dropped).sum();
        out.put("trace.dropped_events", dropped as f64);
        if dropped > 0 {
            note(format!(
                "{wl}: {dropped} trace events dropped (ring overflow); additivity check skipped"
            ));
        }
        for (a, t) in traced.iter().enumerate() {
            let arm = crate::ARMS[a];
            out.put(
                format!("trace.{arm}.overhead_frac"),
                1.0 - ratio(median(&t.rates), untraced[a]),
            );
            let frac = median(&t.fracs);
            out.put(format!("trace.{arm}.layer_sum_frac"), frac);
            let (lo, hi) = ledger::LAYER_SUM_TOLERANCE;
            out.check(
                dropped > 0 || args.toy || (lo..=hi).contains(&frac),
                &format!("{wl}/{arm}: layer_sum_frac {frac:.4} outside [{lo}, {hi}]"),
            );
            if a == 0 {
                continue;
            }
            let b = if a == 1 { "omp" } else { "dataflow" };
            let it = (t.rates.len() * sh.chunk) as f64;
            let per_iter = |ns: u64| ns as f64 / 1e6 / it;
            let mut overhead_ms = 0.0;
            for (i, name) in LOOPS.iter().enumerate() {
                let wall_ms = per_iter(t.loop_ns[i]);
                out.put(format!("exec.{b}.{name}.ms_per_iter"), wall_ms);
                overhead_ms += wall_ms - kernel_ms[i] / threads as f64;
            }
            out.put(format!("exec.{b}.overhead_ms_per_iter"), overhead_ms);
            out.put(
                format!("exec.{b}.barrier_ms_per_iter"),
                per_iter(t.barrier_ns),
            );
            out.put(format!("exec.{b}.dep_wait_ms_per_iter"), per_iter(t.dep_ns));
            out.put(
                format!("exec.{b}.critical_path_ms_per_iter"),
                per_iter(t.crit_ns),
            );
            out.put(format!("exec.{b}.idle_frac"), median(&t.idle));
            out.put(
                format!("rt.{b}.ns_per_task"),
                ratio(overhead_ms * 1e6 * it, t.tasks as f64),
            );
        }
    }

    // ---- correctness: every backend bitwise equal to serial -------------
    stage(format!("{wl}: check digests"));
    let reference = state_digest(&sims[0], &last_rms[0]);
    for (a, kind) in KINDS.iter().enumerate().skip(1) {
        let d = state_digest(&sims[a], &last_rms[a]);
        out.check(
            d == reference,
            &format!("{wl}: {kind} digest {d:#018x} != serial {reference:#018x}"),
        );
    }
    let finite = sims[0].mesh().p_q.to_vec().iter().all(|v| v.is_finite());
    out.check(finite, &format!("{wl}: serial state not finite"));
    out
}
