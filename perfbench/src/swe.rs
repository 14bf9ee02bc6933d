//! `swe-dist`: the shallow-water dam break on in-process fabric ranks.
//!
//! Arms: `base` marches on one rank, `sync` on `nproc` ranks with the bulk
//! halo exchange, `async` on `nproc` ranks with the overlapped exchange.
//! This path bypasses the `hpx-rt` pool and the `ParLoop` executors; halo
//! exchange and the `dt` allreduce sit on its blocking path. The arms
//! march in round-robin, one full `run_swe_distributed_opts` call per
//! sample (its local-mesh build is internal, so it is inside the sample).

use std::time::Instant;

use op2_airfoil::MeshBuilder;
use op2_dist::exec::DistOptions;
use op2_dist::swe::{run_swe_distributed_opts, SweDistReport};
use op2_dist::{total_halo_cells, Partition};
use op2_swe::{SweApp, SweConfig};
use op2_trace::{report, Collector, EventKind, Timeline};

use crate::ledger::{self, union_ns, Spans};
use crate::{median, note, ratio, stage, Args, Outcome, Rng};

fn final_digest(r: &SweDistReport) -> u64 {
    crate::digest(r.final_w.iter().copied())
}

/// The span kinds the fabric records.
const FABRIC: [EventKind; 5] = [
    EventKind::FabricSend,
    EventKind::FabricRecv,
    EventKind::FabricBarrier,
    EventKind::FabricAllreduce,
    EventKind::HaloWait,
];

/// Per rank thread: union of its fabric spans of the given kinds, ns.
fn per_rank(t: &Timeline, kinds: &[EventKind]) -> Vec<u64> {
    let mut by_tid: std::collections::BTreeMap<u32, Vec<(u64, u64)>> = Default::default();
    for e in &t.events {
        if FABRIC.contains(&e.kind) {
            let v = by_tid.entry(e.tid).or_default();
            if kinds.contains(&e.kind) {
                v.push((e.start_ns, e.end_ns));
            }
        }
    }
    by_tid.into_values().map(|mut v| union_ns(&mut v)).collect()
}

fn fabric_intervals(t: &Timeline) -> Vec<(u64, u64)> {
    t.events
        .iter()
        .filter(|e| FABRIC.contains(&e.kind))
        .map(|e| (e.start_ns, e.end_ns))
        .collect()
}

/// What the traced marches of one arm add up to.
#[derive(Default)]
struct TracedArm {
    rates: Vec<f64>,
    fracs: Vec<f64>,
    /// Largest rank idle fraction of each march.
    idle: Vec<f64>,
    /// Comm wait, halo wait, allreduce, send, compute: ns over all marches.
    sums: [f64; 5],
    sends: usize,
    dropped: u64,
}

impl TracedArm {
    fn add(&mut self, t: &Timeline, rate: f64, wall_ns: f64) {
        self.rates.push(rate);
        self.fracs
            .push(ledger::layer_sum_frac(&fabric_intervals(t), wall_ns));
        let rep = report::analyze(t);
        let compute: f64 = per_rank(t, &FABRIC)
            .iter()
            .map(|&f| (wall_ns - f as f64).max(0.0))
            .sum();
        let parts = [
            rep.comm_wait_ns() as f64,
            rep.halo_wait_ns as f64,
            rep.fabric_allreduce_ns as f64,
            rep.fabric_send_ns as f64,
            compute,
        ];
        for (sum, v) in self.sums.iter_mut().zip(parts) {
            *sum += v;
        }
        let waits = per_rank(
            t,
            &[
                EventKind::FabricRecv,
                EventKind::FabricBarrier,
                EventKind::HaloWait,
            ],
        );
        self.idle.push(
            waits
                .iter()
                .map(|&ns| ns as f64 / wall_ns)
                .fold(0.0, f64::max),
        );
        self.sends += t.of_kind(EventKind::FabricSend).count();
        self.dropped += t.dropped;
    }
}

pub fn run(args: &Args, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let ranks = crate::nproc();
    let (imax, jmax, steps) = if args.toy { (16, 8, 3) } else { (160, 80, 40) };

    stage("swe-dist: generate inputs");
    let mut rng = Rng::new(args.seed);
    let (x_split, h_hi) = (rng.range(1.0, 3.0), rng.range(1.5, 2.5));
    let cfg = SweConfig {
        imax,
        jmax,
        ..SweConfig::default()
    };
    let app = SweApp::new(cfg);
    app.dam_break(x_split, h_hi, 1.0);
    let w0 = app.w.to_aos_vec();
    let inv_area = app.inv_area.to_aos_vec();
    let mass = |w: &[f64]| -> f64 { (0..inv_area.len()).map(|c| w[3 * c] / inv_area[c]).sum() };
    let mass0 = mass(&w0);
    let mut data = MeshBuilder::channel(imax, jmax).data();
    data.bound
        .iter_mut()
        .for_each(|b| *b = op2_swe::kernels::SWE_WALL);
    let ncells = data.ncells();
    let parts = [
        Partition::strips(ncells, 1),
        Partition::strips(ncells, ranks),
        Partition::strips(ncells, ranks),
    ];
    let opts = [
        DistOptions::default(),
        DistOptions::default(),
        DistOptions {
            overlap: true,
            ..DistOptions::default()
        },
    ];
    // State (w, wold, res: 3 each) + coordinates + connectivity.
    out.working_set_bytes = (ncells * 9 * 8
        + data.coords.len() * 8
        + (data.edge_nodes.len() + data.edge_cells.len() + data.cell_nodes.len()) * 4)
        as u64;
    note(format!(
        "swe-dist: closed basin {imax}x{jmax} = {ncells} cells, dam at x={x_split:.3} depth {h_hi:.3}/1.0, \
         {steps} steps per march, ranks 1 / {ranks} bulk / {ranks} overlap"
    ));

    let march = |a: usize, n: usize| {
        run_swe_distributed_opts(&data, cfg.g, cfg.cfl, &w0, &parts[a], n, n, &opts[a])
    };

    // ---- timed marches, round-robin; in a traced run each untraced march
    // is followed by a traced march of the same arm ------------------------
    let mut rates: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut traced: Vec<TracedArm> = (0..3).map(|_| TracedArm::default()).collect();
    let mut digests: Vec<Option<(u64, u64)>> = vec![None; 3];
    let mut last: Vec<Option<SweDistReport>> = vec![None, None, None];
    let mut setup = Vec::new();
    let t0 = Instant::now();
    while rates[0].len() < 3 || t0.elapsed().as_secs_f64() < args.seconds {
        // Setup: the smallest march the API accepts (one step), once per
        // round so that its median spans the whole run.
        stage("swe-dist: setup (one-step march)");
        let (r, s) = spans.time("dist.setup_march", || march(2, 1));
        out.check(r.is_ok(), "swe-dist: one-step march failed");
        setup.push(s);
        for a in 0..3 {
            let arm = crate::ARMS[a];
            for trace in [false, args.trace] {
                stage(format!(
                    "swe-dist: march {arm}{}",
                    if trace { " (traced)" } else { "" }
                ));
                let collector = trace.then(Collector::start);
                let name = format!("{}.{arm}", if trace { "traced" } else { "march" });
                let (r, s) = spans.time(&name, || march(a, steps));
                let timeline = collector.map(Collector::stop);
                out.attempted += 1;
                let Ok(r) = r else {
                    out.failed += 1;
                    eprintln!("[perfbench] swe-dist: {arm} march failed: {:?}", r.err());
                    break;
                };
                let rate = (ncells * steps) as f64 / s / 1e6;
                match &timeline {
                    Some(t) => traced[a].add(t, rate, s * 1e9),
                    None => rates[a].push(rate),
                }
                let d = (final_digest(&r), r.res_digest);
                // Every repeat of an arm must reproduce its first run bitwise.
                if let Some(first) = digests[a] {
                    out.check(first == d, &format!("swe-dist: {arm} not reproducible"));
                }
                digests[a] = Some(d);
                last[a] = Some(r);
                if !args.trace {
                    break;
                }
            }
        }
    }
    for (a, r) in rates.iter().enumerate() {
        crate::note_samples(&format!("swe-dist: {}", crate::ARMS[a]), "Mcell-step/s", r);
    }
    out.put("setup_s", median(&setup));
    let untraced: Vec<f64> = rates.iter().map(|r| median(r)).collect();
    for (a, arm) in crate::ARMS.iter().enumerate() {
        out.put(format!("{arm}.mcells_per_s"), untraced[a]);
    }
    note(format!(
        "swe-dist: ratio overlap/bulk {:.4} (informational, ungated)",
        ratio(untraced[2], untraced[1])
    ));

    if args.trace {
        for (a, t) in traced.iter().enumerate() {
            let arm = crate::ARMS[a];
            out.put(
                format!("trace.{arm}.overhead_frac"),
                1.0 - ratio(median(&t.rates), untraced[a]),
            );
            out.put(format!("trace.{arm}.layer_sum_frac"), median(&t.fracs));
            if a == 0 {
                continue;
            }
            let sched = if a == 1 { "bulk" } else { "overlap" };
            let total_steps = (t.rates.len() * steps) as f64;
            for (k, name) in ["comm_wait", "halo_wait", "allreduce", "send", "compute"]
                .iter()
                .enumerate()
            {
                out.put(
                    format!("dist.{sched}.{name}_ms_per_step"),
                    t.sums[k] / 1e6 / total_steps,
                );
            }
            out.put(format!("dist.{sched}.max_rank_idle_frac"), median(&t.idle));
            if a == 1 {
                out.put("dist.msgs_per_step", t.sends as f64 / total_steps);
            }
        }
        out.put("dist.halo_cells", total_halo_cells(&data, &parts[1]) as f64);
        out.put(
            "trace.dropped_events",
            traced.iter().map(|t| t.dropped).sum::<u64>() as f64,
        );
    }

    // ---- correctness ------------------------------------------------------
    stage("swe-dist: checks");
    out.check(
        digests[1].is_some() && digests[1] == digests[2],
        "swe-dist: overlap and bulk disagree on final_w bits or res_digest",
    );
    for (a, r) in last.iter().enumerate() {
        if let Some(r) = r {
            let m = mass(&r.final_w);
            let rel = ((m - mass0) / mass0).abs();
            out.check(
                rel < 1e-10,
                &format!(
                    "swe-dist: {} mass drift {rel:e} in a closed basin",
                    crate::ARMS[a]
                ),
            );
        } else {
            out.check(
                false,
                &format!("swe-dist: {} produced no result", crate::ARMS[a]),
            );
        }
    }
    out
}
