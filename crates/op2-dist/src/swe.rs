//! The distributed shallow-water time-march — the second application on the
//! crate's one distributed march, bulk-synchronous or comm/compute-overlapped
//! with bit-identical results either way.
//!
//! This module supplies the shallow-water hooks: 3 components per cell, one
//! stage per adaptive step, no per-cell pass (SWE has no `adt` analogue),
//! Rusanov `flux` / `bflux` as the edge kernels, and `update` with
//! `dt · inv_area`. Per step, each rank:
//!
//! 1. saves its owned `w` and folds a local CFL bound (`wave_speed` max);
//! 2. reduces the bound globally — blocking
//!    [`Comm::allreduce_max`](crate::fabric::Comm::allreduce_max) in bulk
//!    mode, posted with
//!    [`Comm::iallreduce_max`](crate::fabric::Comm::iallreduce_max) and
//!    completed right before the update under overlap, so its latency hides
//!    behind the flux compute (max is order-free, hence bitwise-exact);
//! 3. exchanges halos and computes fluxes exactly like the Airfoil march
//!    ([`crate::exec`]): interior edges, per-peer halo groups into scratch,
//!    canonical merge, reverse receives in ascending peer order;
//! 4. updates owned cells with `dt = CFL · min_len / smax`; the RMS sum is
//!    pipelined under overlap exactly like the Airfoil march.
//!
//! The whole recovery ladder applies: message faults are masked by the
//! transport, a panicked step prologue is retried locally, a lost rank is
//! recovered from the newest consistent checkpoint over the survivors
//! ([`SweDistReport::recoveries`]), and with [`DistOptions::store_dir`] set
//! every boundary lands in the crash-consistent `op2-store` log, from which
//! [`resume_swe_distributed_opts`] restarts a dead process bit-identically.

use op2_airfoil::mesh::MeshData;
use op2_swe::kernels;

use crate::checkpoint::CkptStats;
use crate::exec::{DistError, DistOptions, Recovery};
use crate::fault::FaultReport;
use crate::march::{self, xs, MarchApp, Rows};
use crate::partition::{LocalMesh, Partition};

/// Outcome of a distributed shallow-water run.
#[derive(Debug, Clone)]
pub struct SweDistReport {
    /// `(step, dt, sqrt(rms/ncells))` at each report point. `dt` is
    /// bitwise-identical to the single-node march (max is order-free).
    pub reports: Vec<(usize, f64, f64)>,
    /// Final global state `w`, assembled in global cell order (3/cell).
    pub final_w: Vec<f64>,
    /// End-of-run fault/robustness counters (all zero for a clean run).
    pub faults: FaultReport,
    /// Checkpoint recoveries performed, in order.
    pub recoveries: Vec<Recovery>,
    /// Order-free digest over every owned-cell post-exchange `res` of every
    /// step since the last recovery, combined across ranks — bulk and
    /// overlapped marches agree iff every intermediate residual is
    /// bit-identical.
    pub res_digest: u64,
    /// Step the run resumed from (`Some(k)` only for
    /// [`resume_swe_distributed_opts`]).
    pub resumed_from: Option<usize>,
    /// Durable checkpoint-log counters (all zero without a
    /// [`DistOptions::store_dir`]).
    pub ckpt: CkptStats,
}

impl SweDistReport {
    fn from_run(run: march::Run) -> SweDistReport {
        SweDistReport {
            reports: run.merged.history,
            final_w: run.final_w,
            faults: run.faults,
            recoveries: run.merged.recoveries,
            res_digest: run.merged.res_digest,
            resumed_from: run.resumed_from,
            ckpt: run.ckpt,
        }
    }
}

/// March `steps` adaptive shallow-water steps on `nranks` ranks.
///
/// `w0` is the global initial state (`3 × ncells`); `g`/`cfl` mirror
/// [`op2_swe::SweConfig`]. Boundary condition codes come from `data.bound`
/// ([`op2_swe::kernels::SWE_WALL`] / [`op2_swe::kernels::SWE_OPEN`]).
///
/// # Errors
/// See [`DistError`]; a clean network never fails.
pub fn run_swe_distributed(
    data: &MeshData,
    g: f64,
    cfl: f64,
    w0: &[f64],
    nranks: usize,
    steps: usize,
    report_every: usize,
) -> Result<SweDistReport, DistError> {
    let ncells = data.cell_nodes.len() / 4;
    let part = Partition::strips(ncells, nranks);
    run_swe_distributed_opts(data, g, cfl, w0, &part, steps, report_every, &DistOptions::default())
}

/// [`run_swe_distributed`] with an explicit partition and [`DistOptions`]
/// (fault plan, kills and kernel faults with checkpoint recovery, deadlines,
/// overlap, jitter, durable store, renumbering).
///
/// # Errors
/// See [`DistError`].
#[allow(clippy::too_many_arguments)]
pub fn run_swe_distributed_opts(
    data: &MeshData,
    g: f64,
    cfl: f64,
    w0: &[f64],
    part: &Partition,
    steps: usize,
    report_every: usize,
    opts: &DistOptions,
) -> Result<SweDistReport, DistError> {
    march::run(&Swe { g, cfl }, data, w0, part, steps, report_every, opts, false)
        .map(SweDistReport::from_run)
}

/// Restart a shallow-water march whose process died: reopen the durable
/// store at [`DistOptions::store_dir`], restore the newest verified
/// consistent boundary `k`, and march steps `k+1..=steps`. Falls back to
/// `w0` (cold start) if no consistent boundary survived.
///
/// # Errors
/// See [`DistError`].
///
/// # Panics
/// Panics if `opts.store_dir` is `None`.
#[allow(clippy::too_many_arguments)]
pub fn resume_swe_distributed_opts(
    data: &MeshData,
    g: f64,
    cfl: f64,
    w0: &[f64],
    part: &Partition,
    steps: usize,
    report_every: usize,
    opts: &DistOptions,
) -> Result<SweDistReport, DistError> {
    march::run(&Swe { g, cfl }, data, w0, part, steps, report_every, opts, true)
        .map(SweDistReport::from_run)
}

/// Shallow-water march hooks: 3 components, one stage per adaptive step.
struct Swe {
    g: f64,
    cfl: f64,
}

/// Shallow-water per-rank state beside `w` and `res`.
struct Aux {
    /// Saved owned state at the start of the step.
    wold: Vec<f64>,
    /// Owned cells' inverse areas.
    inv_area: Vec<f64>,
    /// `sqrt` of the smallest cell area of the whole mesh.
    min_len: f64,
}

/// Shoelace area of global cell `c`.
fn cell_area(data: &MeshData, c: usize) -> f64 {
    let coords = &data.coords;
    let mut a = 0.0;
    for k in 0..4 {
        let i = data.cell_nodes[4 * c + k] as usize;
        let j = data.cell_nodes[4 * c + (k + 1) % 4] as usize;
        a += coords[2 * i] * coords[2 * j + 1] - coords[2 * j] * coords[2 * i + 1];
    }
    a / 2.0
}

impl MarchApp<3> for Swe {
    const STAGES: usize = 1;
    type Extra = Aux;

    /// `min_len` is a global quantity every rank derives identically (min is
    /// order-free); the owned inverse areas feed the update.
    fn extra(&self, data: &MeshData, local: &LocalMesh) -> Aux {
        let ncells = data.cell_nodes.len() / 4;
        let min_area = (0..ncells).map(|c| cell_area(data, c)).fold(f64::INFINITY, f64::min);
        let owned = &local.cell_l2g[..local.nowned];
        Aux {
            wold: vec![0.0; 3 * local.nowned],
            inv_area: owned.iter().map(|&g| 1.0 / cell_area(data, g as usize)).collect(),
            min_len: min_area.sqrt(),
        }
    }

    fn save(&self, nowned: usize, w: &[f64], x: &mut Aux) -> Option<f64> {
        let mut smax = f64::NEG_INFINITY;
        for c in 0..nowned {
            x.wold[3 * c..3 * c + 3].copy_from_slice(&w[3 * c..3 * c + 3]);
            smax = smax.max(kernels::wave_speed(&w[3 * c..3 * c + 3], self.g));
        }
        Some(smax)
    }

    fn step_size(&self, x: &Aux, smax: f64) -> f64 {
        self.cfl * x.min_len / smax.max(1e-12)
    }

    #[inline]
    fn edge(&self, xy: &[f64], n: (u32, u32), c: (usize, usize), w: &[f64], _: &Aux, r: Rows) {
        let ((n1, n2), (c1, c2)) = (n, c);
        let (w1, w2) = (&w[3 * c1..3 * c1 + 3], &w[3 * c2..3 * c2 + 3]);
        kernels::flux(xs(xy, n1), xs(xy, n2), w1, w2, r.0, r.1, self.g);
    }

    #[inline]
    fn bedge(&self, xy: &[f64], bedge: (u32, u32, u32, i32), w: &[f64], _: &Aux, r: &mut [f64]) {
        let (n1, n2, c, bound) = (bedge.0, bedge.1, bedge.2 as usize, bedge.3);
        kernels::bflux(xs(xy, n1), xs(xy, n2), &w[3 * c..3 * c + 3], r, bound, self.g);
    }

    fn update(&self, nowned: usize, w: &mut [f64], x: &Aux, res: &mut [f64], dt: f64) -> f64 {
        let mut rms = 0.0;
        for c in 0..nowned {
            let r = 3 * c..3 * c + 3;
            let (wold, dt_area) = (&x.wold[r.clone()], dt * x.inv_area[c]);
            kernels::update(wold, &mut w[r.clone()], &mut res[r], dt_area, &mut rms);
        }
        rms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::JitterSpec;
    use crate::fault::FaultPlan;
    use op2_airfoil::MeshBuilder;
    use op2_swe::{SweApp, SweConfig};

    /// Channel mesh data with every boundary reflective (closed basin).
    fn walled_data(imax: usize, jmax: usize) -> MeshData {
        let mut data = MeshBuilder::channel(imax, jmax).data();
        data.bound.iter_mut().for_each(|b| *b = kernels::SWE_WALL);
        data
    }

    /// Serial oracle: the real SweApp in *natural* iteration order (the
    /// order the 1-rank distributed march uses), dam-break IC.
    fn serial_oracle(
        imax: usize,
        jmax: usize,
        steps: usize,
        report_every: usize,
    ) -> (Vec<f64>, Vec<f64>, Vec<(usize, f64, f64)>) {
        let app = SweApp::new(SweConfig { imax, jmax, ..SweConfig::default() });
        app.dam_break(2.0, 2.0, 1.0);
        let w0 = app.w.to_vec();
        let reports = app.run_natural(steps, report_every);
        (w0, app.w.to_vec(), reports)
    }

    #[test]
    fn swe_one_rank_matches_serial_bitwise() {
        let (imax, jmax, steps) = (24, 12, 6);
        let (w0, w_ref, rep_ref) = serial_oracle(imax, jmax, steps, 1);
        let data = walled_data(imax, jmax);
        let dist = run_swe_distributed(&data, 9.81, 0.4, &w0, 1, steps, 1).unwrap();
        assert_eq!(
            dist.final_w.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            w_ref.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(dist.reports.len(), rep_ref.len());
        for ((s, dt, rms), (s2, dt2, rms2)) in dist.reports.iter().zip(&rep_ref) {
            assert_eq!(s, s2);
            assert_eq!(dt.to_bits(), dt2.to_bits());
            assert_eq!(rms.to_bits(), rms2.to_bits());
        }
    }

    #[test]
    fn swe_multi_rank_matches_serial_within_rounding() {
        let (imax, jmax, steps) = (24, 12, 8);
        let (w0, w_ref, rep_ref) = serial_oracle(imax, jmax, steps, 1);
        let data = walled_data(imax, jmax);
        for nranks in [2, 3, 5] {
            let dist = run_swe_distributed(&data, 9.81, 0.4, &w0, nranks, steps, 1).unwrap();
            for (a, b) in dist.final_w.iter().zip(&w_ref) {
                assert!(
                    (a - b).abs() <= 1e-11 * b.abs().max(1.0),
                    "{nranks} ranks: {a} vs {b}"
                );
            }
            // dt flows from an order-free max: bitwise even across ranks.
            for ((_, dt, rms), (_, dt2, rms2)) in dist.reports.iter().zip(&rep_ref) {
                assert_eq!(dt.to_bits(), dt2.to_bits(), "{nranks} ranks dt");
                assert!((rms - rms2).abs() <= 1e-11, "{nranks} ranks rms");
            }
        }
    }

    #[test]
    fn swe_overlapped_march_matches_bulk_bitwise() {
        let (imax, jmax, steps) = (24, 12, 6);
        let (w0, _, _) = serial_oracle(imax, jmax, steps, 1);
        let data = walled_data(imax, jmax);
        let part = Partition::strips(imax * jmax, 3);
        let bulk = run_swe_distributed_opts(
            &data, 9.81, 0.4, &w0, &part, steps, 1, &DistOptions::default(),
        )
        .unwrap();
        let opts = DistOptions {
            overlap: true,
            jitter: Some(JitterSpec { seed: 7, max_us: 80 }),
            ..DistOptions::default()
        };
        let over = run_swe_distributed_opts(&data, 9.81, 0.4, &w0, &part, steps, 1, &opts).unwrap();
        assert_eq!(
            over.final_w.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            bulk.final_w.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(over.reports.len(), bulk.reports.len());
        for ((s, dt, rms), (s2, dt2, rms2)) in over.reports.iter().zip(&bulk.reports) {
            assert_eq!(s, s2);
            assert_eq!(dt.to_bits(), dt2.to_bits());
            assert_eq!(rms.to_bits(), rms2.to_bits());
        }
        assert_eq!(over.res_digest, bulk.res_digest, "res trajectory diverged");
    }

    #[test]
    fn swe_message_faults_are_masked_bit_identically() {
        let (imax, jmax, steps) = (24, 12, 5);
        let (w0, _, _) = serial_oracle(imax, jmax, steps, 1);
        let data = walled_data(imax, jmax);
        let part = Partition::strips(imax * jmax, 4);
        let clean = run_swe_distributed_opts(
            &data, 9.81, 0.4, &w0, &part, steps, 1, &DistOptions::default(),
        )
        .unwrap();
        for overlap in [false, true] {
            let opts = DistOptions {
                plan: Some(FaultPlan::drop_first(3)),
                overlap,
                ..DistOptions::default()
            };
            let faulty =
                run_swe_distributed_opts(&data, 9.81, 0.4, &w0, &part, steps, 1, &opts).unwrap();
            assert_eq!(
                faulty.final_w.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                clean.final_w.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "overlap={overlap}"
            );
            assert_eq!(faulty.res_digest, clean.res_digest, "overlap={overlap}");
            assert!(faulty.faults.dropped > 0);
        }
    }

    #[test]
    fn swe_closed_basin_conserves_mass_distributed() {
        let (imax, jmax, steps) = (24, 12, 10);
        let (w0, _, _) = serial_oracle(imax, jmax, steps, 1);
        let data = walled_data(imax, jmax);
        // Mass = Σ h·area; areas from the shoelace formula as the driver.
        let mass = |w: &[f64]| -> f64 {
            let mut total = 0.0;
            for c in 0..imax * jmax {
                let mut a = 0.0;
                for k in 0..4 {
                    let i = data.cell_nodes[4 * c + k] as usize;
                    let j = data.cell_nodes[4 * c + (k + 1) % 4] as usize;
                    a += data.coords[2 * i] * data.coords[2 * j + 1]
                        - data.coords[2 * j] * data.coords[2 * i + 1];
                }
                total += w[3 * c] * (a / 2.0);
            }
            total
        };
        let mass0 = mass(&w0);
        let opts = DistOptions { overlap: true, ..DistOptions::default() };
        let part = Partition::strips(imax * jmax, 4);
        let dist =
            run_swe_distributed_opts(&data, 9.81, 0.4, &w0, &part, steps, 5, &opts).unwrap();
        let mass1 = mass(&dist.final_w);
        assert!(
            (mass1 - mass0).abs() < 1e-9 * mass0.abs(),
            "mass drifted: {mass0} -> {mass1}"
        );
        assert!(dist.reports.iter().all(|(_, dt, rms)| *dt > 0.0 && rms.is_finite()));
    }
}
