//! Work-stealing thread pool.
//!
//! This is the analogue of the HPX thread scheduler: a fixed set of OS worker
//! threads, each owning a local work-stealing deque, plus a global injector
//! queue for tasks submitted from outside the pool. Tasks are plain
//! `FnOnce()` closures ("HPX lightweight threads"); suspension is modelled by
//! *work-helping* — a thread that must wait for an event keeps executing other
//! pool tasks instead of blocking (see [`ThreadPool::try_execute_one`]), which
//! is what makes `future.get()` deadlock-free even on a single-worker pool.
//!
//! # Sleep protocol
//!
//! Idle workers and helpers (threads in [`ThreadPool::help_until`]) sleep on
//! an *eventcount*: one atomic word holding the number of registered
//! sleepers (low 32 bits) and a wake epoch (high 32 bits), plus a mutex and
//! condvar used only to block.
//!
//! * The pool counts tasks spawned and not yet taken. The count is raised
//!   before a task is queued and lowered after it is taken, so it never reads
//!   below the number of queued tasks.
//! * A thread that has run a task since it last went idle first spins: it
//!   polls the count (and its predicate) `SPIN_POLLS` times, yielding its
//!   core every `SPIN_YIELD_EVERY` polls, and looks in the queues only when
//!   the count is non-zero, so spinners stay off the queue locks that
//!   spawning threads need. A cold thread skips the spin.
//! * To sleep, it registers (adding one sleeper and reading the epoch in one
//!   atomic step), then re-checks the queued count, the shutdown flag and
//!   its predicate with no pool lock held, and only if all are still quiet
//!   takes the lock and blocks — as long as the epoch has not moved — with a
//!   timeout.
//! * A notifier (a spawn, a completed future, an opened latch, shutdown)
//!   publishes its event first, then loads the word; only when someone is
//!   registered does it take the lock, bump the epoch and signal.
//!
//! A `SeqCst` fence between each side's write and read means either the
//! sleeper's re-check sees the event or the notifier sees the registration,
//! and an epoch bump after registration makes the sleeper skip or leave its
//! wait, so no wakeup is lost.
//!
//! **Lock-order rule:** the pool's lock is a leaf. It is held only to read
//! the epoch and wait, or to bump the epoch and signal; no caller predicate,
//! queue operation or foreign lock is ever taken under it. Notifiers may hold
//! their own locks (a future's state) when they notify.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam_deque::{Injector, Steal, Stealer, Worker};
use parking_lot::{Condvar, Mutex};

use crate::metrics::PoolMetrics;

/// A unit of work scheduled on a pool ("HPX lightweight thread").
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// The task-scheduling surface shared by [`ThreadPool`] and
/// [`crate::DetPool`].
///
/// Every runtime primitive in this crate (futures, latches, `for_each`,
/// dataflow, scans) is generic over `Pool`, so the same executor code can run
/// either on the real work-stealing pool or under the deterministic
/// single-threaded scheduler used for schedule exploration and race checking.
///
/// The trait is object-safe: `Arc<dyn Pool>` is how `op2-hpx`'s
/// `Op2Runtime` holds its pool.
pub trait Pool: Send + Sync {
    /// Number of (possibly virtual) worker threads; used for chunk planning.
    fn num_threads(&self) -> usize;

    /// Schedule a task for execution.
    fn spawn_boxed(&self, task: Task);

    /// Try to execute one pending task on the calling thread; returns `true`
    /// if a task ran (the work-helping primitive).
    fn try_execute_one(&self) -> bool;

    /// A cheap cloneable handle that futures and latches embed so they can
    /// schedule continuations and work-help without borrowing the pool.
    fn spawner(&self) -> Spawner;

    /// This pool's execution counters, when it keeps any. The deterministic
    /// pool returns `None`; the work-stealing pool always returns `Some`.
    fn metrics(&self) -> Option<&PoolMetrics> {
        None
    }
}

/// Polls a hot thread makes before it parks (see the module docs).
const SPIN_POLLS: u32 = 2000;
/// A spinning thread yields its core once every this many polls.
const SPIN_YIELD_EVERY: u32 = 16;
/// Longest a worker blocks before it re-checks the queues on its own.
const WORKER_PARK: Duration = Duration::from_millis(5);
/// Longest a helper blocks before it re-checks its predicate on its own,
/// bounding the latency of a predicate that changes without a notify.
const HELPER_PARK: Duration = Duration::from_micros(200);

/// One registered sleeper in [`Inner::sleep`].
const SLEEPER: u64 = 1;
/// One wake epoch in [`Inner::sleep`].
const EPOCH: u64 = 1 << 32;

/// Keeps a value on its own cache line, away from the pool's other counters
/// (128 bytes also covers adjacent-line prefetch). Sharing a line with the
/// per-task metrics cost the fork-join arm about 30% of its throughput on
/// Airfoil's fine-grained loops.
#[repr(align(128))]
struct OwnLine<T>(T);

struct Inner {
    injector: Injector<Task>,
    stealers: Vec<Stealer<Task>>,
    num_threads: usize,
    shutdown: AtomicBool,
    /// Tasks spawned and not yet taken: raised before a task is queued and
    /// lowered after it is taken, so it never reads below the number of
    /// queued tasks. Spinners poll it, so it gets a cache line of its own.
    /// `Relaxed` throughout: it publishes no data (tasks travel through the
    /// queues' locks), and the fences in `notify` and `park` order it
    /// against a sleeper's registration.
    queued: OwnLine<AtomicUsize>,
    /// The eventcount: registered sleepers in the low 32 bits, wake epoch in
    /// the high 32 bits (see the module docs). Epoch bumps and the sleeper's
    /// epoch check happen under `sleep_lock`, which orders them.
    sleep: AtomicU64,
    /// Held only to check the epoch and block, or to bump it and signal.
    sleep_lock: Mutex<()>,
    wakeup: Condvar,
    metrics: PoolMetrics,
    /// Rotating start index so helpers don't always steal from worker 0.
    steal_seed: AtomicUsize,
}

thread_local! {
    static CURRENT: RefCell<Option<WorkerCtx>> = const { RefCell::new(None) };
    /// Set when this thread runs a pool task, cleared when it goes idle: a
    /// thread that goes idle hot spins before it parks, a cold one parks at
    /// once.
    static HOT: Cell<bool> = const { Cell::new(false) };
}

struct WorkerCtx {
    inner: Arc<Inner>,
    local: Worker<Task>,
}

/// A fixed-size work-stealing thread pool.
///
/// Dropping the pool signals shutdown and joins all worker threads.
pub struct ThreadPool {
    inner: Arc<Inner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// Builder for a [`ThreadPool`] with non-default configuration.
pub struct PoolBuilder {
    num_threads: usize,
    thread_name: String,
}

impl Default for PoolBuilder {
    fn default() -> Self {
        PoolBuilder {
            num_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            thread_name: "hpx-worker".to_owned(),
        }
    }
}

impl PoolBuilder {
    /// Create a builder with defaults (one worker per available core).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the number of worker threads (clamped to at least 1).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n.max(1);
        self
    }

    /// Set the base name for worker threads.
    pub fn thread_name(mut self, name: impl Into<String>) -> Self {
        self.thread_name = name.into();
        self
    }

    /// Spawn the workers and return the pool.
    pub fn build(self) -> ThreadPool {
        let n = self.num_threads;
        let workers: Vec<Worker<Task>> = (0..n).map(|_| Worker::new_fifo()).collect();
        let stealers = workers.iter().map(Worker::stealer).collect();
        let inner = Arc::new(Inner {
            injector: Injector::new(),
            stealers,
            num_threads: n,
            shutdown: AtomicBool::new(false),
            queued: OwnLine(AtomicUsize::new(0)),
            sleep: AtomicU64::new(0),
            sleep_lock: Mutex::new(()),
            wakeup: Condvar::new(),
            metrics: PoolMetrics::default(),
            steal_seed: AtomicUsize::new(0),
        });
        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(index, local)| {
                let inner = Arc::clone(&inner);
                let name = format!("{}-{index}", self.thread_name);
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || worker_main(inner, local))
                    .expect("failed to spawn hpx-rt worker thread")
            })
            .collect();
        ThreadPool { inner, handles }
    }
}

impl ThreadPool {
    /// Create a pool with `num_threads` workers (at least 1).
    pub fn new(num_threads: usize) -> Self {
        PoolBuilder::new().num_threads(num_threads).build()
    }

    /// Number of worker threads in the pool.
    pub fn num_threads(&self) -> usize {
        self.inner.num_threads
    }

    /// Execution counters for this pool (tasks spawned/executed, steals, parks).
    pub fn metrics(&self) -> &PoolMetrics {
        &self.inner.metrics
    }

    /// True if the calling thread is a worker of this pool.
    pub fn is_worker_thread(&self) -> bool {
        CURRENT.with(|c| {
            c.borrow()
                .as_ref()
                .is_some_and(|ctx| std::ptr::eq(Arc::as_ptr(&ctx.inner), Arc::as_ptr(&self.inner)))
        })
    }

    /// Try to execute one pending task on the calling thread.
    ///
    /// Returns `true` if a task was run. This is the *work-helping* primitive:
    /// blocking operations ([`crate::Future::get`],
    /// [`crate::CountdownLatch::wait_helping`]) call it in their wait loops so
    /// that waiting threads contribute to progress instead of deadlocking the
    /// pool.
    pub fn try_execute_one(&self) -> bool {
        self.inner.try_execute_one()
    }

    /// Block the calling thread until `pred` returns true, running pool tasks
    /// while waiting.
    ///
    /// When no task is available the thread spins briefly if it has just run
    /// a task, then parks until notified (see the module docs). Futures and
    /// latches notify when they open; the park also times out after a short
    /// while, bounding the latency of a predicate that changes without a
    /// notify. `pred` is never called under a pool lock.
    pub fn help_until(&self, pred: impl FnMut() -> bool) {
        self.inner.help_until(pred);
    }

    /// A cheap cloneable handle that futures and latches embed so they can
    /// schedule continuations and work-help without borrowing the pool.
    pub fn spawner(&self) -> Spawner {
        Spawner {
            kind: SpawnerKind::Threads(Arc::downgrade(&self.inner)),
        }
    }
}

impl<P: Pool + ?Sized> Pool for Arc<P> {
    fn num_threads(&self) -> usize {
        (**self).num_threads()
    }

    fn spawn_boxed(&self, task: Task) {
        (**self).spawn_boxed(task);
    }

    fn try_execute_one(&self) -> bool {
        (**self).try_execute_one()
    }

    fn spawner(&self) -> Spawner {
        (**self).spawner()
    }

    fn metrics(&self) -> Option<&PoolMetrics> {
        (**self).metrics()
    }
}

impl Pool for ThreadPool {
    fn num_threads(&self) -> usize {
        ThreadPool::num_threads(self)
    }

    fn spawn_boxed(&self, task: Task) {
        self.inner.spawn(task);
    }

    fn try_execute_one(&self) -> bool {
        ThreadPool::try_execute_one(self)
    }

    fn spawner(&self) -> Spawner {
        ThreadPool::spawner(self)
    }

    fn metrics(&self) -> Option<&PoolMetrics> {
        Some(ThreadPool::metrics(self))
    }
}

/// Cloneable weak handle to a pool, embedded in futures/latches.
///
/// If the pool has been dropped, `spawn` reports failure (callers then run the
/// work inline) and `help_until` degrades to a spin/park wait.
#[derive(Clone)]
pub struct Spawner {
    kind: SpawnerKind,
}

#[derive(Clone)]
enum SpawnerKind {
    Threads(std::sync::Weak<Inner>),
    Det(std::sync::Weak<crate::det::DetInner>),
}

impl Spawner {
    pub(crate) fn det(inner: std::sync::Weak<crate::det::DetInner>) -> Spawner {
        Spawner {
            kind: SpawnerKind::Det(inner),
        }
    }

    /// Schedule `task` on the pool; hands the task back if the pool is gone
    /// so the caller can run it inline.
    pub fn spawn(&self, task: Task) -> Result<(), Task> {
        match &self.kind {
            SpawnerKind::Threads(weak) => {
                if let Some(inner) = weak.upgrade() {
                    inner.spawn(task);
                    Ok(())
                } else {
                    Err(task)
                }
            }
            SpawnerKind::Det(weak) => {
                if let Some(inner) = weak.upgrade() {
                    inner.enqueue(task);
                    Ok(())
                } else {
                    Err(task)
                }
            }
        }
    }

    /// Work-helping wait; falls back to yielding if the pool is gone.
    pub fn help_until(&self, mut pred: impl FnMut() -> bool) {
        match &self.kind {
            SpawnerKind::Threads(weak) => {
                if let Some(inner) = weak.upgrade() {
                    inner.help_until(pred);
                } else {
                    while !pred() {
                        std::thread::yield_now();
                    }
                }
            }
            SpawnerKind::Det(weak) => {
                if let Some(inner) = weak.upgrade() {
                    inner.help_until(&mut pred);
                } else {
                    while !pred() {
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    /// Count one blocking barrier wait on the owning pool's metrics (no-op
    /// when the pool is gone or keeps no metrics).
    pub fn count_barrier_wait(&self) {
        if let SpawnerKind::Threads(weak) = &self.kind {
            if let Some(inner) = weak.upgrade() {
                inner.metrics.count_barrier_wait();
            }
        }
    }

    /// Count one blocking dependency wait on the owning pool's metrics.
    pub fn count_dep_wait(&self) {
        if let SpawnerKind::Threads(weak) = &self.kind {
            if let Some(inner) = weak.upgrade() {
                inner.metrics.count_dep_wait();
            }
        }
    }

    /// Wake parked waiters after an event (promise fulfilled, latch opened).
    pub fn notify(&self) {
        match &self.kind {
            SpawnerKind::Threads(weak) => {
                if let Some(inner) = weak.upgrade() {
                    inner.notify(true);
                }
            }
            // The deterministic pool is single-threaded and never parks:
            // progress is driven entirely by help_until, so there is nobody
            // to wake.
            SpawnerKind::Det(_) => {}
        }
    }
}

impl Inner {
    /// Schedule a task: onto the calling worker's local deque when it is a
    /// worker of this pool, else onto the global injector; then wake one
    /// sleeper.
    fn spawn(&self, task: Task) {
        self.metrics.tasks_spawned.fetch_add(1, Ordering::Relaxed);
        op2_trace::instant(op2_trace::EventKind::TaskSpawn, op2_trace::NO_NAME, 0, 0);
        self.queued.0.fetch_add(1, Ordering::Relaxed);
        let mut task = Some(task);
        CURRENT.with(|c| {
            if let Some(ctx) = c.borrow().as_ref() {
                if std::ptr::eq(Arc::as_ptr(&ctx.inner), self as *const Inner) {
                    ctx.local.push(task.take().expect("task consumed twice"));
                }
            }
        });
        if let Some(task) = task {
            self.injector.push(task);
        }
        self.notify(false);
    }

    /// Wake one (`all == false`) or every registered sleeper, after the
    /// caller has published its event (queued a task, readied a future).
    fn notify(&self, all: bool) {
        // Pairs with the fence in `park`: either the sleeper's re-check sees
        // the caller's event, or this load sees the sleeper's registration.
        fence(Ordering::SeqCst);
        if self.sleep.load(Ordering::Relaxed) & (EPOCH - 1) == 0 {
            return;
        }
        let _guard = self.sleep_lock.lock();
        self.sleep.fetch_add(EPOCH, Ordering::Relaxed);
        if all {
            self.wakeup.notify_all();
        } else {
            self.wakeup.notify_one();
        }
    }

    /// Whether a task may be queued (lock-free; never false while one is).
    fn has_work(&self) -> bool {
        self.queued.0.load(Ordering::Relaxed) != 0
    }

    /// One idle step of a thread that found no task: spin if it is hot, then
    /// park until notified or `timeout`. `done` is the caller's exit
    /// condition. Returns `true` if the thread actually blocked.
    fn idle(&self, timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
        if HOT.replace(false) {
            for poll in 1..=SPIN_POLLS {
                if done() || (self.has_work() && self.try_execute_one()) {
                    return false;
                }
                if poll % SPIN_YIELD_EVERY == 0 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
        self.park(timeout, || done() || self.has_work())
    }

    /// Register as a sleeper, re-check `ready` with no lock held, and block
    /// until the epoch moves or `timeout` passes. Returns `true` if the
    /// thread actually blocked.
    fn park(&self, timeout: Duration, ready: impl FnOnce() -> bool) -> bool {
        let epoch = self.sleep.fetch_add(SLEEPER, Ordering::SeqCst) / EPOCH;
        // Pairs with the fence in `notify` (see there).
        fence(Ordering::SeqCst);
        let blocked = !ready() && {
            let mut guard = self.sleep_lock.lock();
            let quiet = self.sleep.load(Ordering::Relaxed) / EPOCH == epoch;
            if quiet {
                let span = op2_trace::begin();
                self.wakeup.wait_for(&mut guard, timeout);
                op2_trace::end(span, op2_trace::EventKind::Park, op2_trace::NO_NAME, 0, 0);
            }
            quiet
        };
        self.sleep.fetch_sub(SLEEPER, Ordering::Relaxed);
        blocked
    }

    /// Find a runnable task: local deque first (on a worker of this pool),
    /// then the global injector, then stealing from sibling workers.
    fn find_task(&self) -> Option<Task> {
        let local = CURRENT.with(|c| {
            c.borrow().as_ref().and_then(|ctx| {
                if std::ptr::eq(Arc::as_ptr(&ctx.inner), self as *const Inner) {
                    ctx.local.pop()
                } else {
                    None
                }
            })
        });
        if local.is_some() {
            return local;
        }
        loop {
            match self.injector.steal() {
                Steal::Success(t) => return Some(t),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
        let n = self.stealers.len();
        let start = self.steal_seed.fetch_add(1, Ordering::Relaxed) % n;
        for off in 0..n {
            let s = &self.stealers[(start + off) % n];
            loop {
                match s.steal() {
                    Steal::Success(t) => {
                        self.metrics.steals.fetch_add(1, Ordering::Relaxed);
                        op2_trace::instant(
                            op2_trace::EventKind::Steal,
                            op2_trace::NO_NAME,
                            ((start + off) % n) as u64,
                            0,
                        );
                        return Some(t);
                    }
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }

    fn try_execute_one(&self) -> bool {
        if let Some(task) = self.find_task() {
            self.queued.0.fetch_sub(1, Ordering::Relaxed);
            HOT.set(true);
            self.metrics.tasks_executed.fetch_add(1, Ordering::Relaxed);
            let span = op2_trace::begin();
            task();
            op2_trace::end(span, op2_trace::EventKind::Task, op2_trace::NO_NAME, 0, 0);
            true
        } else {
            false
        }
    }

    fn help_until(&self, mut pred: impl FnMut() -> bool) {
        while !pred() {
            if !self.try_execute_one() {
                self.idle(HELPER_PARK, &mut pred);
            }
        }
    }
}

fn worker_main(inner: Arc<Inner>, local: Worker<Task>) {
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(WorkerCtx {
            inner: Arc::clone(&inner),
            local,
        });
    });
    loop {
        if inner.try_execute_one() {
            continue;
        }
        if inner.shutdown.load(Ordering::Acquire) {
            break;
        }
        if inner.idle(WORKER_PARK, || inner.shutdown.load(Ordering::Acquire)) {
            inner.metrics.parks.fetch_add(1, Ordering::Relaxed);
        }
    }
    CURRENT.with(|c| {
        *c.borrow_mut() = None;
    });
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.notify(true);
        // The last owner of the pool may be a task closure dropped *on a
        // worker* (e.g. a dataflow body whose caller already observed the
        // promise and released its runtime). That worker cannot join itself
        // — pthread_join would return EDEADLK and std panics — so it is
        // skipped and exits on its own via the shutdown flag above.
        let me = std::thread::current().id();
        for h in self.handles.drain(..) {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }
}
