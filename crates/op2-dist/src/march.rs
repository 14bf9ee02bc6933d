//! The one distributed time-march every application runs — bulk-synchronous
//! or comm/compute-overlapped, bit-identical either way.
//!
//! An application supplies only a [`MarchApp`]; the engine owns the rest.
//! Per stage, each rank performs (in *canonical* arithmetic order):
//!
//! 1. **forward sends** of fresh owned state rows to importing peers;
//! 2. the retryable *prologue*: [`MarchApp::cell`] over owned cells;
//! 3. interior and boundary edges straight into `res`, plus one gated
//!    **halo group** per import peer: install the peer's rows, redundant
//!    [`MarchApp::cell`] over them, the group's edges into per-group
//!    *scratch*, and the early **reverse send** of the halo-side scratch;
//! 4. **merge** of group scratch into `res` (ascending group, first-touch
//!    order) and **reverse receives** added in ascending peer order;
//! 5. [`MarchApp::update`] over owned cells; the RMS is an `allreduce`.
//!
//! The bulk schedule runs step 3 as blocking receives, all interior work,
//! then every group. The overlapped schedule is an event loop: interior
//! chunks run while forward receives are outstanding ([`Comm::try_recv`]),
//! each group fires the moment its payload lands, and idle polling is a
//! `halo-wait` trace span. Scratch and canonical merge order make both
//! schedules perform the same additions in the same order. Under overlap
//! report-point RMS sums are pipelined ([`Comm::iallreduce_sum`]); an
//! adaptive step's max-reduction is posted after [`MarchApp::save`] and
//! completed before the update, after the FIFO-earlier pending sum.
//!
//! The rank loop climbs the whole recovery ladder for every app: local
//! prologue retry, then checkpoint recovery over the survivors
//! ([`Partition::strips_over`]), each event recorded as a [`Recovery`];
//! pending reductions from a dead epoch are dropped, never harvested.

use std::time::{Duration, Instant};

use op2_airfoil::mesh::MeshData;
use op2_trace::{pack2, EventKind, NO_NAME};

use crate::checkpoint::{CheckpointStore, CkptStats};
use crate::exec::{DistError, DistOptions, JitterSpec, Recovery};
use crate::fabric::{Comm, CommError, Fabric, PendingReduce};
use crate::fault::FaultReport;
use crate::partition::{build_local, HaloPlan, LocalMesh, Partition};

/// Tags of the two exchange directions. Every run owns its fabric, so one
/// pair serves every march.
pub(crate) const TAG_FORWARD: u64 = 100;
pub(crate) const TAG_REVERSE: u64 = 200;

/// Interior edges per overlap-march chunk (the granularity at which the
/// event loop polls for arrived halo messages).
pub(crate) const INTERIOR_CHUNK: usize = 256;

/// Sentinel chunk id for the pre-send jitter point (distinct from every
/// real interior chunk index). Draws from an 8× larger range than compute
/// chunks: the skew being modelled there is message injection/network
/// latency, which dominates per-chunk compute noise — and it is what makes
/// halo arrival genuinely trail a fast peer's compute in the jittered
/// overlap sweeps.
const SEND_JITTER_CHUNK: usize = usize::MAX;

/// A report point: `(iteration, dt, sqrt(rms/ncells))`; `dt` is 0 for apps
/// without an adaptive step.
pub(crate) type ReportPoint = (usize, f64, f64);

/// An edge's two residual rows, in endpoint order.
pub(crate) type Rows<'r> = (&'r mut [f64], &'r mut [f64]);

/// What an application supplies to the march; `N` is its state components
/// per cell. Every hook runs on one rank over its local mesh slice (owned
/// cells `0..nowned`, then halo copies). Hooks are monomorphised, so each
/// kernel call compiles as if written inline.
pub(crate) trait MarchApp<const N: usize>: Sync {
    /// Flux stages per iteration, each with its own exchanges and update.
    const STAGES: usize;

    /// Per-rank state beyond the state `w` and residual `res`, rebuilt with
    /// the mesh slice after a recovery.
    type Extra;

    /// Build the extra state for `local`.
    fn extra(&self, data: &MeshData, local: &LocalMesh) -> Self::Extra;

    /// Start of an iteration, over owned cells: save the state. Apps with an
    /// adaptive step return their local bound for the global max-reduction
    /// whose result [`MarchApp::step_size`] turns into `dt`.
    fn save(&self, nowned: usize, w: &[f64], x: &mut Self::Extra) -> Option<f64>;

    /// `dt` from the global max of [`MarchApp::save`]'s bounds.
    fn step_size(&self, _x: &Self::Extra, _smax: f64) -> f64 {
        0.0
    }

    /// Per-cell value the edge kernels read, computed for owned cells in the
    /// stage prologue and redundantly for halo cells as their rows land. It
    /// must write only values that are a pure function of `w` and the mesh,
    /// so a retry after a panic overwrites any partial writes.
    #[inline]
    fn cell(
        &self,
        _coords: &[f64],
        _local: &LocalMesh,
        _w: &[f64],
        _x: &mut Self::Extra,
        _c: usize,
    ) {
    }

    /// One interior edge between local cells `cells`, incrementing their
    /// residual rows `r`.
    fn edge(
        &self,
        coords: &[f64],
        nodes: (u32, u32),
        cells: (usize, usize),
        w: &[f64],
        x: &Self::Extra,
        r: Rows,
    );

    /// One boundary edge `(n1, n2, c, bound)` of owned cell `c`, incrementing
    /// its residual row `r`.
    fn bedge(
        &self,
        coords: &[f64],
        bedge: (u32, u32, u32, i32),
        w: &[f64],
        x: &Self::Extra,
        r: &mut [f64],
    );

    /// Bits of owned cell `c`'s per-cell value folded into the run's
    /// `adt_digest` (`None` = the app has no such value).
    fn digest_bits(_x: &Self::Extra, _c: usize) -> Option<u64> {
        None
    }

    /// Update the owned cells from their residuals (zeroing them); returns
    /// the local RMS partial.
    fn update(
        &self,
        nowned: usize,
        w: &mut [f64],
        x: &Self::Extra,
        res: &mut [f64],
        dt: f64,
    ) -> f64;
}

/// Node `n`'s coordinate pair.
#[inline]
pub(crate) fn xs(coords: &[f64], n: u32) -> &[f64] {
    &coords[2 * n as usize..2 * n as usize + 2]
}

/// splitmix64 finalizer — the digest/jitter hash.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The deterministic pre-chunk sleep of [`JitterSpec`].
fn jitter_sleep(jitter: Option<JitterSpec>, rank: usize, iter: usize, stage: usize, chunk: usize) {
    let Some(j) = jitter else { return };
    if j.max_us == 0 {
        return;
    }
    let key = mix64(
        j.seed
            ^ ((rank as u64) << 48)
            ^ ((iter as u64) << 32)
            ^ ((stage as u64) << 24)
            ^ chunk as u64,
    );
    let cap = if chunk == SEND_JITTER_CHUNK {
        u64::from(j.max_us).saturating_mul(8)
    } else {
        u64::from(j.max_us)
    };
    let us = key % (cap + 1);
    if us > 0 {
        std::thread::sleep(Duration::from_micros(us));
    }
}

/// Two disjoint `N`-wide mutable rows out of one array, in argument order.
pub(crate) fn two_rows_mut<const N: usize>(v: &mut [f64], a: usize, b: usize) -> Rows<'_> {
    assert_ne!(a, b, "edge endpoints must be distinct");
    if a < b {
        let (lo, hi) = v.split_at_mut(N * b);
        (&mut lo[N * a..N * a + N], &mut hi[..N])
    } else {
        let (lo, hi) = v.split_at_mut(N * a);
        let (bpart, apart) = (&mut lo[N * b..N * b + N], &mut hi[..N]);
        (apart, bpart)
    }
}

/// Rows `rows` of `src`, concatenated — an exchange payload.
pub(crate) fn pack_rows<const N: usize>(src: &[f64], rows: &[u32]) -> Vec<f64> {
    let mut payload = Vec::with_capacity(rows.len() * N);
    for &l in rows {
        payload.extend_from_slice(&src[N * l as usize..N * l as usize + N]);
    }
    payload
}

/// Copy a forward payload into rows `rows` of `dst` (the halo slots).
pub(crate) fn install_rows<const N: usize>(dst: &mut [f64], rows: &[u32], payload: &[f64]) {
    assert_eq!(payload.len(), rows.len() * N);
    for (i, &l) in rows.iter().enumerate() {
        dst[N * l as usize..N * l as usize + N].copy_from_slice(&payload[N * i..N * i + N]);
    }
}

/// Forward sends: the rows each importing peer needs, ascending peer.
pub(crate) fn send_exports<const N: usize>(
    comm: &Comm,
    exports: &[(usize, Vec<u32>)],
    w: &[f64],
) -> Result<(), CommError> {
    for (peer, rows) in exports {
        comm.send(*peer, TAG_FORWARD, pack_rows::<N>(w, rows))?;
    }
    Ok(())
}

/// Reverse receives: each peer's halo contributions added into the owned
/// rows it imports, in ascending peer order (deterministic).
pub(crate) fn recv_add<const N: usize>(
    comm: &Comm,
    exports: &[(usize, Vec<u32>)],
    res: &mut [f64],
) -> Result<(), CommError> {
    for (peer, rows) in exports {
        let payload = comm.recv(*peer, TAG_REVERSE)?;
        assert_eq!(payload.len(), rows.len() * N);
        for (i, &l) in rows.iter().enumerate() {
            for k in 0..N {
                res[N * l as usize + k] += payload[N * i + k];
            }
        }
    }
    Ok(())
}

/// Arrival bookkeeping of one forward exchange received with `try_recv`.
pub(crate) struct ImportPoll<'a> {
    comm: &'a Comm,
    imports: &'a [(usize, Vec<u32>)],
    got: Vec<bool>,
    ngot: usize,
    last_progress: Instant,
    deadline: Duration,
    at: u64,
}

impl<'a> ImportPoll<'a> {
    /// Start polling the forward payloads of `imports` during `(iter, stage)`.
    pub(crate) fn new(
        comm: &'a Comm,
        imports: &'a [(usize, Vec<u32>)],
        deadline: Duration,
        iter: usize,
        stage: usize,
    ) -> ImportPoll<'a> {
        ImportPoll {
            comm,
            imports,
            got: vec![false; imports.len()],
            ngot: 0,
            last_progress: Instant::now(),
            deadline,
            at: pack2(iter as u32, stage as u32),
        }
    }

    /// Whether some peer's payload has not landed yet.
    pub(crate) fn pending(&self) -> bool {
        self.ngot < self.imports.len()
    }

    /// One pass over the outstanding peers (ascending): hand each payload
    /// that has landed to `arrived` with its import index. Returns whether
    /// any landed.
    pub(crate) fn pass(
        &mut self,
        mut arrived: impl FnMut(usize, &[f64]) -> Result<(), CommError>,
    ) -> Result<bool, CommError> {
        let mut progressed = false;
        for (gi, (peer, _)) in self.imports.iter().enumerate() {
            if self.got[gi] {
                continue;
            }
            if let Some(payload) = self.comm.try_recv(*peer, TAG_FORWARD)? {
                arrived(gi, &payload)?;
                self.got[gi] = true;
                self.ngot += 1;
                progressed = true;
            }
        }
        Ok(progressed)
    }

    /// After a round of polling and compute: on progress restart the quiet
    /// timer; otherwise record a `halo-wait` span, sleep briefly, and fail
    /// with the [`CommError::Timeout`] a blocking `recv` would have produced
    /// once the quiet period exceeds the receive deadline.
    pub(crate) fn settle(&mut self, progressed: bool) -> Result<(), CommError> {
        if progressed {
            self.last_progress = Instant::now();
            return Ok(());
        }
        let rank = self.comm.rank();
        let span = op2_trace::begin();
        self.comm.beat();
        std::thread::sleep(Duration::from_micros(100));
        op2_trace::end(
            span,
            EventKind::HaloWait,
            NO_NAME,
            pack2(rank as u32, (self.imports.len() - self.ngot) as u32),
            self.at,
        );
        let waited = self.last_progress.elapsed();
        if waited > self.deadline {
            let from = self
                .imports
                .iter()
                .zip(&self.got)
                .find(|(_, g)| !**g)
                .map_or(0, |((p, _), _)| *p);
            return Err(CommError::Timeout {
                rank,
                from,
                tag: TAG_FORWARD,
                waited_ms: waited.as_millis() as u64,
            });
        }
        Ok(())
    }
}

/// One rank's report points: blocking reductions in bulk mode; under
/// overlap at most one pipelined reduction, harvested one report later (or
/// at the next pre-update max, checkpoint boundary or end of march).
pub(crate) struct Reports {
    overlap: bool,
    ncells_global: usize,
    pending: Option<(usize, f64, PendingReduce)>,
    pub(crate) done: Vec<ReportPoint>,
}

impl Reports {
    pub(crate) fn new(overlap: bool, ncells_global: usize) -> Reports {
        Reports {
            overlap,
            ncells_global,
            pending: None,
            done: Vec::new(),
        }
    }

    fn push(&mut self, iter: usize, dt: f64, total: f64) {
        self.done
            .push((iter, dt, (total / self.ncells_global as f64).sqrt()));
    }

    /// Complete the outstanding reduction, if any, and record its report.
    /// Collective: every rank holds the same pending state at the same march
    /// point, so the deferred gather/bcast pairs up.
    pub(crate) fn harvest(&mut self, comm: &Comm) -> Result<(), CommError> {
        if let Some((iter, dt, p)) = self.pending.take() {
            let total = comm.complete_reduce(p)?[0];
            self.push(iter, dt, total);
        }
        Ok(())
    }

    /// Reduce a report point's RMS partial (pipelined: harvest the previous
    /// reduction, then post this one).
    pub(crate) fn post(
        &mut self,
        comm: &Comm,
        iter: usize,
        dt: f64,
        rms: f64,
    ) -> Result<(), CommError> {
        if self.overlap {
            self.harvest(comm)?;
            self.pending = Some((iter, dt, comm.iallreduce_sum(&[rms])?));
        } else {
            let total = comm.allreduce_sum(&[rms])?[0];
            self.push(iter, dt, total);
        }
        Ok(())
    }
}

/// A surviving rank's result — or, merged by [`launch`], the run's: history
/// and recoveries of the first survivor, retries and digests summed.
#[derive(Default)]
pub(crate) struct RankOut {
    /// Final owned global cells (post-recovery ownership) and their rows.
    pub owned_g: Vec<u32>,
    pub owned_w: Vec<f64>,
    pub history: Vec<ReportPoint>,
    pub recoveries: Vec<Recovery>,
    /// Prologue panics retried locally.
    pub local_retries: usize,
    /// Owned-cell digests since the last recovery.
    pub adt_digest: u64,
    pub res_digest: u64,
    /// True if the rank stopped at [`DistOptions::die_at`]: its in-memory
    /// results are void.
    pub died: bool,
}

/// A whole run's result.
pub(crate) struct Run {
    /// Final global state, in global cell order.
    pub final_w: Vec<f64>,
    pub merged: RankOut,
    pub faults: FaultReport,
    pub resumed_from: Option<usize>,
    pub ckpt: CkptStats,
}

/// Launch `rank_fn` on a fabric of `nranks` ranks configured from `opts` and
/// assemble the survivors' results; each scatters its owned rows back to
/// global cell order (post-recovery ownership covers every cell).
pub(crate) fn launch<const N: usize>(
    nranks: usize,
    ncells: usize,
    opts: &DistOptions,
    rank_fn: impl Fn(Comm) -> Result<RankOut, CommError> + Send + Sync,
) -> Result<Run, DistError> {
    let mut builder = Fabric::builder(nranks).config(opts.config.clone());
    if let Some(plan) = &opts.plan {
        builder = builder.faults(plan.clone());
    }
    let run = builder.launch(rank_fn).map_err(DistError::Fabric)?;

    let kill = opts.plan.as_ref().and_then(|p| p.kill);
    let mut final_w = vec![0.0; N * ncells];
    let mut merged: Option<RankOut> = None;
    let mut errors: Vec<(usize, CommError)> = Vec::new();
    for (r, res) in run.results.into_iter().enumerate() {
        match res {
            Ok(rank) => {
                for (i, &g) in rank.owned_g.iter().enumerate() {
                    final_w[N * g as usize..N * g as usize + N]
                        .copy_from_slice(&rank.owned_w[N * i..N * i + N]);
                }
                let Some(m) = merged.as_mut() else {
                    merged = Some(rank);
                    continue;
                };
                m.died |= rank.died;
                m.local_retries += rank.local_retries;
                // Per-cell digest terms are position-independent hashes, so
                // a wrapping sum combines ranks without ordering concerns.
                m.adt_digest = m.adt_digest.wrapping_add(rank.adt_digest);
                m.res_digest = m.res_digest.wrapping_add(rank.res_digest);
            }
            // The planned kill victim dying is the *expected* outcome, and
            // so is a rank that exhausted its local kernel-retry budget and
            // escalated to fabric-level recovery.
            Err(CommError::Fenced { .. })
                if kill.is_some_and(|k| k.rank == r)
                    || opts.kernel_fault.is_some_and(|f| f.rank == r) => {}
            Err(error) => errors.push((r, error)),
        }
    }
    if let Some((rank, error)) = root_cause(errors) {
        return Err(DistError::Rank { rank, error });
    }
    let merged = merged.unwrap_or_default();
    if merged.died {
        // The simulated crash: whatever the ranks computed in memory is
        // lost; only the durable store speaks for this run.
        return Err(DistError::Died {
            iter: opts.die_at.expect("died flag implies die_at"),
        });
    }
    Ok(Run {
        final_w,
        merged,
        faults: run.faults,
        resumed_from: None,
        ckpt: CkptStats::default(),
    })
}

/// Pick the most informative rank error to surface. Deadline timeouts and
/// failure notifications are usually *cascades* from a root cause on some
/// other rank (a sender exhausting its retry budget fails one rank; its
/// peers then time out waiting on it), so any other error class wins.
fn root_cause(mut errors: Vec<(usize, CommError)>) -> Option<(usize, CommError)> {
    if errors.is_empty() {
        return None;
    }
    let cascade = |e: &CommError| {
        matches!(
            e,
            CommError::Timeout { .. } | CommError::RankFailed { .. } | CommError::Fenced { .. }
        )
    };
    let idx = errors.iter().position(|(_, e)| !cascade(e)).unwrap_or(0);
    Some(errors.remove(idx))
}

/// What every rank of one run shares.
struct Job<'a, A> {
    app: &'a A,
    data: &'a MeshData,
    opts: &'a DistOptions,
    checkpoints: CheckpointStore,
    niter: usize,
    report_every: usize,
}

/// March `app` for iterations `1..=niter` from the global initial state
/// `w0` (`N × ncells`), reporting every `report_every` iterations plus the
/// last. With `resume` the durable store at [`DistOptions::store_dir`] is
/// replayed first and the march continues from its newest verified
/// consistent boundary (cold start from `w0` if none survived).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<const N: usize, A: MarchApp<N>>(
    app: &A,
    data: &MeshData,
    w0: &[f64],
    part: &Partition,
    niter: usize,
    report_every: usize,
    opts: &DistOptions,
    resume: bool,
) -> Result<Run, DistError> {
    let ncells = data.cell_nodes.len() / 4;
    assert_eq!(w0.len(), N * ncells, "initial state must cover every cell");
    assert!(
        !resume || opts.store_dir.is_some(),
        "resume requires DistOptions::store_dir"
    );
    if opts.renumber {
        // Mesh, ownership and state move into the RCM-renumbered id space
        // (ownership follows the cell) and the final state maps back. The
        // permutation is bit-stable, so a resume finds the renumbered log.
        let (rdata, ren) = data.renumber_rcm();
        let inner = DistOptions {
            renumber: false,
            ..opts.clone()
        };
        let (rw0, rpart) = (ren.cells.permute_rows(w0, N), part.renumbered(&ren.cells));
        let mut out = run(
            app,
            &rdata,
            &rw0,
            &rpart,
            niter,
            report_every,
            &inner,
            resume,
        )?;
        out.final_w = ren.cells.unpermute_rows(&out.final_w, N);
        return Ok(out);
    }
    let checkpoints = match &opts.store_dir {
        Some(dir) => {
            CheckpointStore::open_durable(dir, part.nranks, ncells, N, opts.store_faults.clone())
                .map_err(DistError::Store)?
        }
        None => CheckpointStore::with_comp(part.nranks, ncells, N),
    };
    let restored = if resume {
        let latest = checkpoints.latest_consistent();
        // Stragglers' incomplete entries past the restore point must not
        // shadow post-restart commits (same rule as in-process recovery).
        checkpoints.truncate_after(latest.as_ref().map_or(0, |(k, _)| *k));
        latest
    } else {
        None
    };
    let (start, wstart) = match &restored {
        Some((k, wk)) => (*k, wk.as_slice()),
        None => (0, w0),
    };
    let job = Job {
        app,
        data,
        opts,
        checkpoints,
        niter,
        report_every,
    };
    let mut out = launch::<N>(part.nranks, ncells, opts, |comm| {
        Rank::<N, A>::new(&job, comm, part, wstart).march(start)
    })?;
    out.resumed_from = resume.then_some(start);
    out.ckpt = job.checkpoints.stats();
    Ok(out)
}

/// One rank's mesh slice, interior/boundary schedule, per-group scratch and
/// working arrays — rebuilt wholesale (digests included) when a recovery
/// re-partitions the mesh.
struct MarchState<X> {
    local: LocalMesh,
    plan: HaloPlan,
    /// State over owned + halo cells.
    w: Vec<f64>,
    /// Residuals; halo rows stay zero (group edges accumulate in scratch).
    res: Vec<f64>,
    x: X,
    /// Per halo group: `N × nslots` residual scratch.
    scratch: Vec<Vec<f64>>,
    adt_digest: u64,
    res_digest: u64,
}

/// One rank of a march.
struct Rank<'a, const N: usize, A: MarchApp<N>> {
    job: &'a Job<'a, A>,
    comm: Comm,
    st: MarchState<A::Extra>,
    reports: Reports,
    recoveries: Vec<Recovery>,
    /// Injected prologue failures still to fire on this rank.
    faults_left: usize,
    local_retries: usize,
}

impl<'a, const N: usize, A: MarchApp<N>> Rank<'a, N, A> {
    fn new(job: &'a Job<'a, A>, comm: Comm, part: &Partition, wg: &[f64]) -> Self {
        let me = comm.rank();
        let opts = job.opts;
        Rank {
            st: Self::state(job, part, me, wg),
            job,
            comm,
            reports: Reports::new(opts.overlap, job.data.cell_nodes.len() / 4),
            recoveries: Vec::new(),
            faults_left: opts
                .kernel_fault
                .filter(|f| f.rank == me)
                .map_or(0, |f| f.failures),
            local_retries: 0,
        }
    }

    fn state(job: &Job<'_, A>, part: &Partition, rank: usize, wg: &[f64]) -> MarchState<A::Extra> {
        let local = build_local(job.data, part, rank);
        let plan = HaloPlan::build(&local);
        let nlocal = local.ncells_local();
        let mut w = vec![0.0f64; N * nlocal];
        for (l, &g) in local.cell_l2g.iter().enumerate() {
            w[N * l..N * l + N].copy_from_slice(&wg[N * g as usize..N * g as usize + N]);
        }
        MarchState {
            w,
            res: vec![0.0f64; N * nlocal],
            x: job.app.extra(job.data, &local),
            scratch: plan
                .groups
                .iter()
                .map(|g| vec![0.0f64; N * g.nslots])
                .collect(),
            adt_digest: 0,
            res_digest: 0,
            local,
            plan,
        }
    }

    fn owned(&self) -> (&[u32], &[f64]) {
        let nowned = self.st.local.nowned;
        (&self.st.local.cell_l2g[..nowned], &self.st.w[..N * nowned])
    }

    /// Commit this rank's slice of checkpoint boundary `iter`.
    fn commit(&self, iter: usize) -> Result<(), CommError> {
        let (cells, w) = self.owned();
        self.job
            .checkpoints
            .commit(iter, self.comm.rank(), cells, w)
            .map_err(|e| CommError::Checkpoint {
                rank: self.comm.rank(),
                detail: e.to_string(),
            })
    }

    /// Coordinated checkpoint at `iter`: drain the reduction pipeline (so a
    /// later restore to this boundary never loses a report to a dropped
    /// pending reduce), commit, then barrier so no rank — in particular a
    /// planned kill victim — can race ahead and fail before every peer's
    /// slice has landed. That pins the restore point deterministically.
    fn checkpoint(&mut self, iter: usize) -> Result<(), CommError> {
        self.reports.harvest(&self.comm)?;
        self.commit(iter)?;
        self.comm.barrier()
    }

    /// The rank loop: iterations `start+1..=niter` with checkpoints, the
    /// halt/die points, and checkpoint recovery on any rank failure.
    fn march(mut self, start: usize) -> Result<RankOut, CommError> {
        let me = self.comm.rank();
        let opts = self.job.opts;
        let kill = self.comm.plan().and_then(|p| p.kill);
        // Every rank must commit checkpoints whenever *any* rank might
        // escalate (a consistent boundary needs every slice) — and always
        // when the store is durable, since restartability needs the
        // boundaries on disk. On resume the restored boundary is already
        // durable.
        let ckpt_active = opts.checkpoint_every > 0
            || kill.is_some()
            || opts.kernel_fault.is_some()
            || self.job.checkpoints.is_durable();
        if ckpt_active && start == 0 {
            self.commit(0)?;
        }
        let mut died = false;
        let mut iter = start + 1;
        while iter <= self.job.niter {
            if opts.die_at == Some(iter) {
                // Simulated whole-process death: stop before touching
                // iteration `iter`. No commit, no drain — the disk keeps
                // exactly what was durable, everything in memory is void.
                died = true;
                break;
            }
            if kill.is_some_and(|k| k.rank == me && k.at_iter == iter) {
                return Err(self.comm.kill_self());
            }
            self.comm.beat();
            let outcome = if self.comm.recovery_pending() {
                // A failure was flagged between iterations — join the
                // re-formation without touching the fabric first.
                Err(CommError::RankFailed {
                    rank: me,
                    failed: me,
                })
            } else {
                self.iteration(iter).and_then(|()| {
                    if ckpt_active && opts.checkpoint_every > 0 && iter % opts.checkpoint_every == 0
                    {
                        self.checkpoint(iter)?;
                    }
                    Ok(())
                })
            };
            match outcome {
                // Graceful stop at a durable boundary: the reference leg of
                // crash-restart equivalence tests.
                Ok(()) if opts.halt_after == Some(iter) => {
                    self.checkpoint(iter)?;
                    break;
                }
                Ok(()) => iter += 1,
                // Any outstanding reduce belongs to the failed epoch; the
                // fabric refuses to complete it, and the restored iteration
                // range re-runs the report it carried.
                Err(CommError::RankFailed { .. }) => iter = self.recover()? + 1,
                Err(e) => return Err(e),
            }
        }
        if !died {
            self.reports.harvest(&self.comm)?;
        }
        let (owned_g, owned_w) = self.owned();
        Ok(RankOut {
            owned_g: owned_g.to_vec(),
            owned_w: owned_w.to_vec(),
            history: self.reports.done,
            recoveries: self.recoveries,
            local_retries: self.local_retries,
            adt_digest: self.st.adt_digest,
            res_digest: self.st.res_digest,
            died,
        })
    }

    /// Re-form the fabric with the survivors, re-partition the mesh over
    /// them, and restore march state from the newest consistent checkpoint.
    /// Returns the restored iteration (resume at `+ 1`).
    fn recover(&mut self) -> Result<usize, CommError> {
        self.reports.pending = None;
        let old_group = self.comm.group();
        let survivors = self.comm.recover()?;
        let failed = old_group
            .into_iter()
            .filter(|r| !survivors.contains(r))
            .collect();
        let checkpoints = &self.job.checkpoints;
        let Some((restored_iter, wg)) = checkpoints.latest_consistent() else {
            return Err(CommError::NoCheckpoint);
        };
        // Stragglers may have committed incomplete entries past the restore
        // point; drop them so they cannot shadow post-recovery checkpoints.
        checkpoints.truncate_after(restored_iter);
        let part = Partition::strips_over(checkpoints.ncells(), &survivors, self.comm.nranks());
        self.st = Self::state(self.job, &part, self.comm.rank(), &wg);
        self.reports.done.retain(|(it, ..)| *it <= restored_iter);
        self.recoveries.push(Recovery {
            failed,
            survivors,
            restored_iter,
        });
        Ok(restored_iter)
    }

    /// One full iteration: save (and the adaptive-step max-reduction, if
    /// any), every stage, and — at report points — the RMS reduction.
    fn iteration(&mut self, iter: usize) -> Result<(), CommError> {
        let (app, overlap) = (self.job.app, self.job.opts.overlap);
        let mut dt = 0.0;
        let mut pending_max = None;
        if let Some(s) = app.save(self.st.local.nowned, &self.st.w, &mut self.st.x) {
            if overlap {
                pending_max = Some(self.comm.iallreduce_max(&[s])?);
            } else {
                dt = app.step_size(&self.st.x, self.comm.allreduce_max(&[s])?[0]);
            }
        }
        let mut rms = 0.0;
        for stage in 0..A::STAGES {
            // Per-stage partial, added to the iteration total afterwards —
            // the same association order as the per-loop reductions of the
            // single-node driver, keeping 1-rank runs bitwise identical.
            rms += self.stage(iter, stage, &mut pending_max, &mut dt)?;
        }
        if iter % self.job.report_every.max(1) == 0 || iter == self.job.niter {
            self.reports.post(&self.comm, iter, dt, rms)?;
        }
        Ok(())
    }

    /// One stage in canonical order (see the module docs); returns the
    /// stage's RMS partial.
    fn stage(
        &mut self,
        iter: usize,
        stage: usize,
        pending_max: &mut Option<PendingReduce>,
        dt: &mut f64,
    ) -> Result<f64, CommError> {
        // 1. Forward sends, before any kernel work so no peer waits on this
        //    rank's compute. The jittered sweeps perturb the send *instant*
        //    too, so halo arrival can genuinely trail a fast peer's compute.
        let (opts, rank) = (self.job.opts, self.comm.rank());
        jitter_sleep(opts.jitter, rank, iter, stage, SEND_JITTER_CHUNK);
        send_exports::<N>(&self.comm, &self.st.local.exports, &self.st.w)?;

        // 2. Prologue; owned per-cell values must exist before any group
        //    fires (group edges read both endpoints).
        self.prologue(iter)?;

        // 3. Interior + halo-group work.
        self.halo_phase(iter, stage)?;

        let st = &mut self.st;

        // 4. Merge, then reverse receives.
        for (group, sc) in st.plan.groups.iter().zip(&st.scratch) {
            for &(slot, c) in &group.merge {
                let (c, s) = (N * c as usize, N * slot as usize);
                for k in 0..N {
                    st.res[c + k] += sc[s + k];
                }
            }
        }
        recv_add::<N>(&self.comm, &st.local.exports, &mut st.res)?;

        // Digest the stage's owned values (res before update, which zeroes
        // it). Keys are position-independent, so the running digest is
        // schedule- and partition-order-free.
        for c in 0..st.local.nowned {
            let g = u64::from(st.local.cell_l2g[c]);
            let key = mix64(g ^ ((iter as u64) << 32) ^ ((stage as u64) << 56));
            if let Some(bits) = A::digest_bits(&st.x, c) {
                st.adt_digest = st.adt_digest.wrapping_add(mix64(key ^ bits));
            }
            let mut h = key;
            for k in 0..N {
                h = mix64(h ^ st.res[N * c + k].to_bits());
            }
            st.res_digest = st.res_digest.wrapping_add(h);
        }

        // The adaptive step completes after the FIFO-earlier pending sum.
        if let Some(p) = pending_max.take() {
            self.reports.harvest(&self.comm)?;
            *dt = self
                .job
                .app
                .step_size(&st.x, self.comm.complete_reduce(p)?[0]);
        }

        // 5. Update over owned cells.
        Ok(self
            .job
            .app
            .update(st.local.nowned, &mut st.w, &st.x, &mut st.res, *dt))
    }

    /// Fault injection + [`MarchApp::cell`] over owned cells. A panic is
    /// retried locally (the pass rewrites everything it wrote) without
    /// involving the fabric; only when the budget is exhausted does the rank
    /// escalate to checkpoint recovery via `kill_self`.
    fn prologue(&mut self, iter: usize) -> Result<(), CommError> {
        let (app, opts, coords) = (self.job.app, self.job.opts, &self.job.data.coords[..]);
        let fires = opts.kernel_fault.is_some_and(|f| f.at_iter == iter);
        for attempt in 0.. {
            let (st, faults_left) = (&mut self.st, &mut self.faults_left);
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if fires && *faults_left > 0 {
                    *faults_left -= 1;
                    panic!("injected kernel fault at iter {iter}");
                }
                for c in 0..st.local.nowned {
                    app.cell(coords, &st.local, &st.w, &mut st.x, c);
                }
            }));
            if run.is_ok() {
                break;
            }
            if attempt >= opts.kernel_retries {
                return Err(self.comm.kill_self());
            }
            self.local_retries += 1;
        }
        Ok(())
    }

    /// Step 3. Group residuals go through per-group scratch in BOTH
    /// schedules; interior edges write `res` directly in plan order. The two
    /// schedules therefore perform identical arithmetic — they differ only
    /// in when each piece runs.
    fn halo_phase(&mut self, iter: usize, stage: usize) -> Result<(), CommError> {
        let (app, opts, coords) = (self.job.app, self.job.opts, &self.job.data.coords[..]);
        let (comm, st) = (&self.comm, &mut self.st);
        let (local, plan, w, x, res) = (&st.local, &st.plan, &mut st.w, &mut st.x, &mut st.res);
        let scratch = &mut st.scratch;
        let nchunks = plan.interior.len().div_ceil(INTERIOR_CHUNK);
        // Interior-edge chunk `c < nchunks`, or the boundary-edge pass (the
        // `== nchunks` pseudo-chunk). Writes owned `res` only.
        let chunk = |c: usize, w: &[f64], x: &A::Extra, res: &mut [f64]| {
            jitter_sleep(opts.jitter, comm.rank(), iter, stage, c);
            if c < nchunks {
                let lo = c * INTERIOR_CHUNK;
                let hi = (lo + INTERIOR_CHUNK).min(plan.interior.len());
                for &e in &plan.interior[lo..hi] {
                    let (c1, c2) = local.edge_cells[e as usize];
                    let (c1, c2) = (c1 as usize, c2 as usize);
                    let r = two_rows_mut::<N>(res, c1, c2);
                    app.edge(coords, local.edge_nodes[e as usize], (c1, c2), w, x, r);
                }
            } else {
                for &b in &local.bedges {
                    let c = b.2 as usize;
                    app.bedge(coords, b, w, x, &mut res[N * c..N * c + N]);
                }
            }
        };
        // Fire group `gi`: install the peer's rows, redundant per-cell pass
        // over them, the group's edges into scratch, and the halo-side
        // scratch back to the owner (in the peer's import order).
        let fire = |gi: usize, w: &mut [f64], x: &mut A::Extra, sc: &mut [f64], payload: &[f64]| {
            let (group, halos) = (&plan.groups[gi], &local.imports[gi].1);
            install_rows::<N>(w, halos, payload);
            for &l in halos {
                app.cell(coords, local, w, x, l as usize);
            }
            sc.fill(0.0);
            for (&e, &(s1, s2)) in group.edges.iter().zip(&group.slots) {
                let (c1, c2) = local.edge_cells[e as usize];
                let r = two_rows_mut::<N>(sc, s1 as usize, s2 as usize);
                app.edge(
                    coords,
                    local.edge_nodes[e as usize],
                    (c1 as usize, c2 as usize),
                    w,
                    x,
                    r,
                );
            }
            comm.send(
                group.peer,
                TAG_REVERSE,
                pack_rows::<N>(sc, &group.send_slots),
            )
        };

        if !opts.overlap {
            // Bulk-synchronous schedule: blocking forward receives
            // (ascending peer), all interior compute, then every group —
            // reverse sends leave last, after the full interior phase.
            let payloads = local
                .imports
                .iter()
                .map(|(peer, _)| comm.recv(*peer, TAG_FORWARD))
                .collect::<Result<Vec<_>, _>>()?;
            for c in 0..=nchunks {
                chunk(c, w, x, res);
            }
            for (gi, payload) in payloads.iter().enumerate() {
                fire(gi, w, x, &mut scratch[gi], payload)?;
            }
        } else {
            // Overlapped schedule: poll for arrived halo messages between
            // interior chunks and fire each group — reverse send included —
            // the moment its payload lands.
            let deadline = opts.config.recv_deadline;
            let mut poll = ImportPoll::new(comm, &local.imports, deadline, iter, stage);
            let mut next = 0;
            while poll.pending() || next <= nchunks {
                let mut progressed =
                    poll.pass(|gi, payload| fire(gi, w, x, &mut scratch[gi], payload))?;
                if next <= nchunks {
                    chunk(next, w, x, res);
                    next += 1;
                    progressed = true;
                }
                poll.settle(progressed)?;
            }
        }
        Ok(())
    }
}
