//! Regression test for the `hpx-rt` pool's wait path.
//!
//! A thread outside the pool hands tiny tasks to a 2-worker pool and waits
//! for each one with `Future::get`, hundreds of thousands of times. Every
//! handoff races the completing worker's wakeup (`Shared::complete` →
//! `Spawner::notify`) against the waiter's park in `help_until`, which
//! evaluates the future's readiness predicate. A lock-order inversion
//! between those two paths used to deadlock this loop within about a second;
//! a lost wakeup would show as a stall too.
//!
//! A watchdog thread ends the process with a non-zero status, naming the
//! loop and its iteration count, if progress stops for `STALL`, so a
//! regression fails the run instead of hanging it.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use hpx_rt::{async_spawn, for_each_index_task, par_task, ThreadPool};

const ITERS: u64 = 200_000;
const STALL: Duration = Duration::from_secs(10);

/// Run `body` under a watchdog that exits the process with status 2 when the
/// shared progress counter stops moving for `STALL`.
fn with_watchdog(label: &'static str, body: impl FnOnce(&AtomicU64)) {
    let progress = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let watchdog = {
        let (progress, done) = (Arc::clone(&progress), Arc::clone(&done));
        thread::spawn(move || {
            let mut last = (0, Instant::now());
            while !done.load(Ordering::Acquire) {
                thread::sleep(Duration::from_millis(50));
                let now = progress.load(Ordering::Relaxed);
                if now != last.0 {
                    last = (now, Instant::now());
                } else if last.1.elapsed() >= STALL {
                    // Straight to stderr: the harness captures `eprintln!`
                    // and the capture is lost when the process exits.
                    let _ = writeln!(
                        std::io::stderr(),
                        "runtime_wait_path: `{label}` made no progress for {STALL:?} \
                         after {now} of {ITERS} iterations (pool wait path stuck)"
                    );
                    std::process::exit(2);
                }
            }
        })
    };
    body(&progress);
    done.store(true, Ordering::Release);
    watchdog.join().expect("watchdog panicked");
}

#[test]
fn external_get_on_spawned_tasks_never_stalls() {
    let pool = ThreadPool::new(2);
    with_watchdog("async_spawn(..).get()", |progress| {
        for i in 0..ITERS {
            assert_eq!(async_spawn(&pool, || 1u64).get(), 1);
            progress.store(i + 1, Ordering::Relaxed);
        }
    });
}

#[test]
fn external_get_on_task_loops_never_stalls() {
    let pool = ThreadPool::new(2);
    let hits = Arc::new(AtomicU64::new(0));
    with_watchdog("for_each_index_task(0..2).get()", |progress| {
        for i in 0..ITERS {
            let h = Arc::clone(&hits);
            for_each_index_task(&pool, par_task(), 0..2, move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            })
            .get();
            progress.store(i + 1, Ordering::Relaxed);
        }
    });
    assert_eq!(hits.load(Ordering::Relaxed), 2 * ITERS);
}
