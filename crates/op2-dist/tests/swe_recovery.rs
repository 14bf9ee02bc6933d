//! Rank-loss recovery for the shallow-water march: the same rank loop as
//! the Airfoil march, so a killed rank (or one whose kernels keep failing)
//! is recovered from the newest consistent checkpoint over the survivors.
//!
//! The curated kill scenario mirrors
//! `faults.rs::kill_mid_march_recovers_and_matches_survivors_only_run`: the
//! recovered run must equal, bit for bit, a clean prefix run up to the
//! restored checkpoint followed by a fresh survivors-only run.

use op2_airfoil::mesh::MeshData;
use op2_airfoil::MeshBuilder;
use op2_dist::exec::{DistOptions, KernelFaultSpec};
use op2_dist::swe::run_swe_distributed_opts;
use op2_dist::{FaultPlan, Partition};
use op2_swe::{SweApp, SweConfig};

const G: f64 = 9.81;
const CFL: f64 = 0.4;

/// Closed-basin dam break on an `imax × jmax` channel mesh.
fn swe_setup(imax: usize, jmax: usize) -> (MeshData, Vec<f64>) {
    let app = SweApp::new(SweConfig { imax, jmax, ..SweConfig::default() });
    app.dam_break(2.0, 2.0, 1.0);
    let w0 = app.w.to_vec();
    let mut data = MeshBuilder::channel(imax, jmax).data();
    data.bound
        .iter_mut()
        .for_each(|b| *b = op2_swe::kernels::SWE_WALL);
    (data, w0)
}

fn bits(w: &[f64]) -> Vec<u64> {
    w.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn swe_kill_mid_march_recovers_and_matches_survivors_only_run() {
    let (data, w0) = swe_setup(24, 12);
    let ncells = 24 * 12;
    let steps = 8;
    let part = Partition::strips(ncells, 4);
    let opts = DistOptions {
        plan: Some(FaultPlan::none().with_kill(1, 5)),
        checkpoint_every: 2,
        ..DistOptions::default()
    };
    let rep = run_swe_distributed_opts(&data, G, CFL, &w0, &part, steps, 1, &opts)
        .unwrap_or_else(|e| panic!("march did not survive the kill: {e}"));

    assert_eq!(rep.recoveries.len(), 1);
    let rec = &rep.recoveries[0];
    assert_eq!(rec.failed, vec![1]);
    assert_eq!(rec.survivors, vec![0, 2, 3]);
    assert_eq!(rec.restored_iter, 4, "newest complete checkpoint before the kill");
    assert_eq!(rep.faults.rank_failures, 1);
    assert_eq!(rep.faults.recoveries, 1);
    let reported: Vec<usize> = rep.reports.iter().map(|r| r.0).collect();
    assert_eq!(reported, (1..=steps).collect::<Vec<_>>(), "re-run steps report once");

    let clean = DistOptions::default();
    let pre = run_swe_distributed_opts(&data, G, CFL, &w0, &part, 4, 4, &clean)
        .expect("reference prefix run");
    let survivors = Partition::strips(ncells, 3);
    let post = run_swe_distributed_opts(&data, G, CFL, &pre.final_w, &survivors, steps - 4, 1, &clean)
        .expect("reference survivors-only run");
    assert_eq!(
        bits(&rep.final_w),
        bits(&post.final_w),
        "recovered march not bit-identical to survivors-only run"
    );
    for ((_, dt, rms), (_, dt2, rms2)) in rep.reports[4..].iter().zip(&post.reports) {
        assert_eq!(dt.to_bits(), dt2.to_bits());
        assert_eq!(rms.to_bits(), rms2.to_bits());
    }
}

/// A kernel fault within the local retry budget is masked without any
/// fabric-level recovery; one beyond it escalates to checkpoint recovery.
#[test]
fn swe_kernel_faults_climb_the_recovery_ladder() {
    let (data, w0) = swe_setup(16, 8);
    let part = Partition::strips(16 * 8, 3);
    let steps = 6;
    let clean = run_swe_distributed_opts(&data, G, CFL, &w0, &part, steps, 1, &DistOptions::default())
        .expect("clean run");

    let retried = DistOptions {
        kernel_fault: Some(KernelFaultSpec { rank: 2, at_iter: 3, failures: 1 }),
        ..DistOptions::default()
    };
    let rep = run_swe_distributed_opts(&data, G, CFL, &w0, &part, steps, 1, &retried)
        .expect("local retry masks the fault");
    assert!(rep.recoveries.is_empty());
    assert_eq!(bits(&rep.final_w), bits(&clean.final_w));
    assert_eq!(rep.res_digest, clean.res_digest);

    let escalated = DistOptions {
        kernel_fault: Some(KernelFaultSpec { rank: 2, at_iter: 3, failures: 5 }),
        checkpoint_every: 2,
        ..DistOptions::default()
    };
    let rep = run_swe_distributed_opts(&data, G, CFL, &w0, &part, steps, 1, &escalated)
        .expect("checkpoint recovery absorbs the escalation");
    assert_eq!(rep.recoveries.len(), 1);
    assert_eq!(rep.recoveries[0].failed, vec![2]);
    assert_eq!(rep.recoveries[0].restored_iter, 2);
    assert!(rep.final_w.iter().all(|v| v.is_finite()));
}
