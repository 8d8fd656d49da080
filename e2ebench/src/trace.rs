//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions, written out when the run ends.
//!
//! A span has a name (`<layer>.<what>`), a start and an end on one
//! monotonic clock, the span that caused it (0 for a root), and the id
//! of the request it belongs to. Roots are the workload's operations
//! (`op.*`); their children are the layer calls made on its behalf.
//! Self time is a span's duration minus the part of it that its
//! children cover.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Where a span was recorded: on the workload's own path, or in the
/// sweep that fills in layers the path does not reach.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    /// The workload's own operations.
    Path,
    /// The short all-layer sweep run after the path.
    Sweep,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Path => "path",
            Phase::Sweep => "sweep",
        }
    }
}

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub phase: Phase,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span; close it with [`Tracer::close`].
pub struct Open {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start_ns: u64,
}

/// The span recorder. When disabled every call is a plain function call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    phase: AtomicU8,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            phase: AtomicU8::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_phase(&self, phase: Phase) {
        self.phase.store(phase as u8, Ordering::Relaxed);
    }

    fn phase(&self) -> Phase {
        if self.phase.load(Ordering::Relaxed) == Phase::Sweep as u8 {
            Phase::Sweep
        } else {
            Phase::Path
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a root span: a new request.
    pub fn root(&self, name: &'static str) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open {
            id,
            parent: 0,
            req: id,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Open a span under `parent` (same request).
    pub fn open(&self, parent: &Open, name: &'static str) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open {
            id,
            parent: parent.id,
            req: parent.req,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Close a span and keep it; returns its duration in nanoseconds.
    pub fn close(&self, open: Open) -> u64 {
        let end_ns = self.now_ns();
        if self.enabled {
            let rec = SpanRec {
                id: open.id,
                parent: open.parent,
                req: open.req,
                name: open.name,
                phase: self.phase(),
                start_ns: open.start_ns,
                end_ns,
            };
            self.spans.lock().expect("span list poisoned").push(rec);
        }
        end_ns - open.start_ns
    }

    /// Run `f` inside a span under `parent`.
    pub fn child<R>(&self, parent: &Open, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.open(parent, name);
        let out = f();
        self.close(open);
        out
    }

    pub fn take(&self) -> Vec<SpanRec> {
        std::mem::take(&mut *self.spans.lock().expect("span list poisoned"))
    }
}

/// Per-name totals over one phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Span totals, split by phase.
#[derive(Debug, Default)]
pub struct Summary {
    pub by_name: BTreeMap<(&'static str, u8), NameStat>,
}

impl Summary {
    pub fn of(spans: &[SpanRec]) -> Summary {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut by_name: BTreeMap<(&'static str, u8), NameStat> = BTreeMap::new();
        for s in spans {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            let e = by_name.entry((s.name, s.phase as u8)).or_default();
            e.count += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += s.dur_ns() - covered;
        }
        Summary { by_name }
    }

    /// The phase a metric is read from: the path when it has the span,
    /// else the sweep.
    pub fn stat(&self, name: &str) -> Option<(NameStat, Phase)> {
        for phase in [Phase::Path, Phase::Sweep] {
            if let Some((_, s)) = self
                .by_name
                .iter()
                .find(|((n, p), _)| *n == name && *p == phase as u8)
            {
                return Some((*s, phase));
            }
        }
        None
    }

    /// Mean duration of `name` spans in milliseconds.
    pub fn mean_ms(&self, name: &str) -> Option<(f64, Phase)> {
        self.stat(name)
            .map(|(s, p)| (s.total_ns as f64 / s.count as f64 / 1e6, p))
    }

    /// Self time of every span of `layer` per root operation, in ms,
    /// from the path if the path has any span of the layer, else the sweep.
    pub fn layer_self_ms_per_op(&self, layer: &str) -> Option<(f64, Phase)> {
        for phase in [Phase::Path, Phase::Sweep] {
            let roots: u64 = self
                .by_name
                .iter()
                .filter(|((n, p), _)| n.starts_with("op.") && *p == phase as u8)
                .map(|(_, s)| s.count)
                .sum();
            let (hits, self_ns) = self
                .by_name
                .iter()
                .filter(|((n, p), _)| layer_of(n) == layer && *p == phase as u8)
                .fold((0u64, 0u64), |(c, t), (_, s)| (c + s.count, t + s.self_ns));
            if hits > 0 && roots > 0 {
                return Some((self_ns as f64 / roots as f64 / 1e6, phase));
            }
        }
        None
    }

    /// Share of the path's root-operation time that no child span covers.
    pub fn uncovered_ratio(&self) -> Option<f64> {
        let (total, own) = self
            .by_name
            .iter()
            .filter(|((n, p), _)| n.starts_with("op.") && *p == Phase::Path as u8)
            .fold((0u64, 0u64), |(t, o), (_, s)| {
                (t + s.total_ns, o + s.self_ns)
            });
        (total > 0).then(|| own as f64 / total as f64)
    }
}

/// The layer a span belongs to: its name up to the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered
}

/// Write the spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"phase\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent,
            s.req,
            s.name,
            s.phase.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            req: 1,
            name,
            phase: Phase::Path,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec(1, 0, "op.x", 0, 100),
            rec(2, 1, "core.a", 10, 40),
            rec(3, 1, "core.b", 30, 50), // overlaps core.a
            rec(4, 1, "web.c", 90, 120), // runs past its parent
        ];
        let s = Summary::of(&spans);
        let root = s.stat("op.x").unwrap().0;
        assert_eq!(root.total_ns, 100);
        assert_eq!(root.self_ns, 100 - 40 - 10);
        assert_eq!(s.uncovered_ratio(), Some(0.5));
        let (core, phase) = s.layer_self_ms_per_op("core").unwrap();
        assert_eq!(phase, Phase::Path);
        assert!((core - 50.0 / 1e6).abs() < 1e-12);
        assert!(s.layer_self_ms_per_op("storage").is_none());
    }

    #[test]
    fn path_spans_win_over_sweep_spans() {
        let mut spans = vec![rec(1, 0, "op.x", 0, 10), rec(2, 1, "core.a", 0, 4)];
        spans.push(SpanRec {
            phase: Phase::Sweep,
            ..rec(3, 0, "core.a", 0, 8)
        });
        spans.push(SpanRec {
            phase: Phase::Sweep,
            ..rec(4, 0, "video.d", 0, 6)
        });
        let s = Summary::of(&spans);
        assert_eq!(s.mean_ms("core.a").unwrap().1, Phase::Path);
        assert_eq!(s.mean_ms("video.d").unwrap().1, Phase::Sweep);
        assert!(s.mean_ms("web.none").is_none());
    }
}
