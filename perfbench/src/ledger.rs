//! The benchmark's own spans and the helpers that read `op2-trace`
//! timelines.
//!
//! Spans are recorded around each call the benchmark makes into a layer
//! (name, start, end, parent), kept in memory and written out once at the
//! end of a traced run. A span's self time is its duration minus the part
//! of it its child spans cover.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use op2_trace::{EventKind, Timeline};

struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name` nested in the innermost open span;
    /// returns its result and duration in seconds.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.enter(name);
        let r = f();
        (r, self.exit(id))
    }

    /// Open a span that the caller closes with [`Spans::exit`] (for spans
    /// that enclose other timed calls).
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Close the span `id` opened by [`Spans::enter`]; returns seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let pos = self
            .open
            .iter()
            .rposition(|&o| o == id)
            .expect("span is open");
        self.open.truncate(pos);
        self.spans[id].end_ns = end;
        (end - self.spans[id].start_ns) as f64 / 1e9
    }

    /// Record a span timed on another thread, nested in the innermost open
    /// span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Per-name `(count, total ns, self ns)`.
    fn ledger(&self) -> BTreeMap<&str, (u64, u64, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = union_ns(&mut children[i]);
            let e = out.entry(s.name.as_str()).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(covered);
        }
        out
    }

    /// Print the self-time ledger of the benchmark's spans.
    pub fn report(&self) {
        crate::note("span ledger (benchmark-side spans; self = span minus its child spans)");
        for (name, (n, total, own)) in self.ledger() {
            crate::note(format!(
                "  {name:<40} n={n:<6} total {:>10.3} ms  self {:>10.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            ));
        }
    }

    /// Write every span as JSON lines: `{"id","parent","name","start_ns","end_ns"}`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::new();
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            s.push_str(&format!(
                "{{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}\n",
                sp.name, sp.start_ns, sp.end_ns
            ));
        }
        std::fs::write(path, s)
    }
}

/// Measure of the union of `[start, end)` intervals (sorts in place).
pub fn union_ns(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in iv.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Loop-instance intervals `(begin, end)` of a timeline, from the
/// executors' `LoopBegin`/`LoopEnd` events.
pub fn loop_intervals(t: &Timeline) -> Vec<(u64, u64)> {
    let mut begins: BTreeMap<u64, u64> = BTreeMap::new();
    let mut out = Vec::new();
    for e in &t.events {
        match e.kind {
            EventKind::LoopBegin => {
                begins.insert(e.a, e.start_ns);
            }
            EventKind::LoopEnd => {
                if let Some(b) = begins.remove(&e.a) {
                    out.push((b, e.start_ns));
                }
            }
            _ => {}
        }
    }
    out
}

/// The additivity check: per-loop walls, with time where loops run
/// concurrently counted once, plus the driver gaps between loops, divided
/// by the benchmark-timed march wall. Reads 1 when the trace accounts for
/// the whole march; the time before the first loop starts and after the
/// last one ends (issue and final fence) is what it leaves out.
pub fn layer_sum_frac(intervals: &[(u64, u64)], march_wall_ns: f64) -> f64 {
    if intervals.is_empty() {
        return 0.0;
    }
    let mut iv = intervals.to_vec();
    let sum: u64 = iv.iter().map(|(s, e)| e - s).sum();
    let union = union_ns(&mut iv);
    let first = iv.iter().map(|i| i.0).min().unwrap_or(0);
    let last = iv.iter().map(|i| i.1).max().unwrap_or(0);
    let overlap = sum - union;
    let gaps = (last - first) - union;
    crate::ratio((sum - overlap + gaps) as f64, march_wall_ns)
}

/// Accepted range of [`layer_sum_frac`] for the Airfoil marches at full
/// size; outside it the traced run fails. Toy marches hold ~100 µs of loop
/// work, so one worker wake-up can outweigh the loops: they are not gated.
pub const LAYER_SUM_TOLERANCE: (f64, f64) = (0.90, 1.02);
