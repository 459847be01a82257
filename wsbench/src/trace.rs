//! In-memory spans recorded by the benchmark around each call into a layer,
//! written out when the run ends, plus the per-layer self-time sweep.
//!
//! A span is `(id, parent, call, name, start, end)`. Spans of one client
//! call share `call`. With tracing off nothing is stored; [`Tracer::span`]
//! still times the closure, so untraced runs read the same clocks.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// Client-call id (0 outside client calls).
    pub call: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self { on, t0: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn new_id(&self) -> u64 {
        if self.on {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// A span value for `[start, end]`; callers on hot paths buffer these
    /// locally and hand them over with [`Tracer::extend`].
    pub fn make(
        &self,
        id: u64,
        parent: u64,
        call: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> Span {
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        Span { id, parent, call, name, start_ns: ns(start), end_ns: ns(end) }
    }

    pub fn record(&self, id: u64, parent: u64, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            let span = self.make(id, parent, 0, name, start, end);
            self.spans().push(span);
        }
    }

    pub fn extend(&self, spans: Vec<Span>) {
        if self.on {
            self.spans().extend(spans);
        }
    }

    /// Run `f` inside a span named `name`; `f` receives the span id (the
    /// parent for nested spans). Returns `f`'s result and its seconds.
    pub fn span<R>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> (R, f64) {
        let id = self.new_id();
        let start = Instant::now();
        let r = f(id);
        let end = Instant::now();
        self.record(id, parent, name, start, end);
        (r, (end - start).as_secs_f64())
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans())
    }

    fn spans(&self) -> MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("no span recorder panics while holding the lock")
    }
}

/// Write spans as tab-separated lines, one per span, under a header.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tcall\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.call, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Spans that break the tree the self-time sweep relies on: a span that
/// ends before it starts, names a parent that was never recorded, or is not
/// inside its parent's interval. Exactly one span may be a root.
pub fn nesting_faults(spans: &[Span]) -> Vec<String> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut faults = Vec::new();
    let roots = spans.iter().filter(|s| s.parent == 0).count();
    if roots != 1 {
        faults.push(format!("{roots} root spans"));
    }
    for s in spans {
        if s.end_ns < s.start_ns {
            faults.push(format!("{} #{} ends before it starts", s.name, s.id));
        }
        if s.parent == 0 {
            continue;
        }
        match by_id.get(&s.parent) {
            None => {
                faults.push(format!("{} #{} has no recorded parent #{}", s.name, s.id, s.parent))
            }
            Some(p) if s.start_ns < p.start_ns || s.end_ns > p.end_ns => faults.push(format!(
                "{} #{} [{}, {}] is outside its parent {} #{} [{}, {}]",
                s.name, s.id, s.start_ns, s.end_ns, p.name, p.id, p.start_ns, p.end_ns
            )),
            Some(_) => {}
        }
    }
    faults
}

/// Self time per span name, in seconds.
///
/// A span is *self* while it is open and none of its children is. Every
/// instant is shared equally among the spans that are self at that instant,
/// so concurrent client calls on several threads split the wall clock
/// instead of each claiming it, and the self times of all names sum to the
/// time during which any span is open — never more than the run's wall
/// time. Children are clamped into their parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let parent: Vec<Option<usize>> = spans.iter().map(|s| index.get(&s.parent).copied()).collect();

    let mut depth = vec![usize::MAX; spans.len()];
    fn depth_of(i: usize, parent: &[Option<usize>], depth: &mut [usize]) -> usize {
        if depth[i] == usize::MAX {
            // Guard against cycles: provisionally a root.
            depth[i] = 0;
            depth[i] = parent[i].map_or(0, |p| depth_of(p, parent, depth) + 1);
        }
        depth[i]
    }
    for i in 0..spans.len() {
        depth_of(i, &parent, &mut depth);
    }

    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| depth[i]);
    let mut bounds: Vec<(u64, u64)> = spans.iter().map(|s| (s.start_ns, s.end_ns)).collect();
    for &i in &order {
        if let Some(p) = parent[i] {
            let (ps, pe) = bounds[p];
            let (s, e) = bounds[i];
            bounds[i] = (s.clamp(ps, pe), e.clamp(ps, pe));
        }
    }

    let mut names: Vec<&'static str> = Vec::new();
    let mut name_of = HashMap::new();
    let layer: Vec<usize> = spans
        .iter()
        .map(|s| {
            *name_of.entry(s.name).or_insert_with(|| {
                names.push(s.name);
                names.len() - 1
            })
        })
        .collect();

    // Events: (time, ends before starts, parents open first / close last, span).
    let mut events: Vec<(u64, u8, i64, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, &(s, e)) in bounds.iter().enumerate() {
        if e > s {
            events.push((s, 1, depth[i] as i64, i));
            events.push((e, 0, -(depth[i] as i64), i));
        }
    }
    events.sort_unstable();

    let mut open = vec![false; spans.len()];
    let mut open_children = vec![0u32; spans.len()];
    let mut self_count = vec![0u32; names.len()];
    let mut self_total = 0u32;
    let mut self_ns = vec![0f64; names.len()];
    let mut last = events.first().map_or(0, |e| e.0);
    for &(t, kind, _, i) in &events {
        if t > last && self_total > 0 {
            let dt = (t - last) as f64 / self_total as f64;
            for (acc, &n) in self_ns.iter_mut().zip(&self_count) {
                *acc += dt * n as f64;
            }
        }
        last = t;
        let p = parent[i].filter(|&p| open[p]);
        if kind == 1 {
            open[i] = true;
            if let Some(p) = p {
                if open_children[p] == 0 {
                    self_count[layer[p]] -= 1;
                    self_total -= 1;
                }
                open_children[p] += 1;
            }
            self_count[layer[i]] += 1;
            self_total += 1;
        } else {
            if open_children[i] == 0 {
                self_count[layer[i]] -= 1;
                self_total -= 1;
            }
            open[i] = false;
            if let Some(p) = p {
                open_children[p] -= 1;
                if open_children[p] == 0 {
                    self_count[layer[p]] += 1;
                    self_total += 1;
                }
            }
        }
    }
    names.into_iter().zip(self_ns.into_iter().map(|ns| ns / 1e9)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, s: u64, e: u64) -> Span {
        Span { id, parent, call: 0, name, start_ns: s * 1_000_000_000, end_ns: e * 1_000_000_000 }
    }

    fn get(t: &[(&str, f64)], name: &str) -> f64 {
        t.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, s)| *s)
    }

    #[test]
    fn nested_spans_subtract_children() {
        let t =
            self_times(&[span(1, 0, "run", 0, 10), span(2, 1, "a", 1, 4), span(3, 2, "b", 2, 3)]);
        assert_eq!(get(&t, "run"), 7.0);
        assert_eq!(get(&t, "a"), 2.0);
        assert_eq!(get(&t, "b"), 1.0);
    }

    #[test]
    fn nesting_faults_are_found() {
        let good = [span(1, 0, "run", 0, 10), span(2, 1, "a", 1, 4), span(3, 2, "b", 2, 3)];
        assert!(nesting_faults(&good).is_empty());
        let bad = [span(1, 0, "run", 0, 10), span(2, 1, "a", 1, 4), span(3, 2, "b", 3, 5)];
        assert_eq!(nesting_faults(&bad).len(), 1);
        let orphan = [span(1, 0, "run", 0, 10), span(2, 9, "a", 1, 4)];
        assert_eq!(nesting_faults(&orphan).len(), 1);
        assert_eq!(nesting_faults(&[span(1, 0, "run", 0, 10), span(2, 0, "x", 1, 2)]).len(), 1);
    }

    #[test]
    fn concurrent_children_share_the_clock() {
        // Two overlapping calls under one parent, plus a reload beside them.
        let t = self_times(&[
            span(1, 0, "run", 0, 10),
            span(2, 1, "call", 0, 6),
            span(3, 1, "call", 2, 8),
            span(4, 1, "reload", 4, 5),
        ]);
        let sum: f64 = t.iter().map(|(_, s)| s).sum();
        assert!((sum - 10.0).abs() < 1e-9, "self times sum to the wall time: {t:?}");
        assert!((get(&t, "reload") - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(get(&t, "run"), 2.0);
    }
}
