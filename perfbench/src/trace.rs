//! Host-time spans recorded by the benchmark around calls into each layer.
//!
//! A span holds a name, start, end, the span that encloses it and the run
//! (scenario, session or request) it belongs to. Calls, total and self
//! time per span name are summed as spans close; the first
//! [`KEPT_SPANS`] spans also stay in memory and are written out once the
//! workload is done. A disabled tracer runs the closure and records
//! nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

/// Least share of a replica's wall time its child spans must cover.
pub const MIN_COVERAGE: f64 = 0.95;

/// Spans kept for the span file; later spans are only summed.
pub const KEPT_SPANS: usize = 100_000;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub run: u32,
}

/// Totals of one span name. Self time is a span's duration minus the
/// part its child spans cover.
#[derive(Default, Clone, Copy)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span not yet closed.
struct Open {
    start_ns: u64,
    child_ns: u64,
    kept: u32,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    /// Spans recorded, kept or not.
    pub recorded: u64,
    stack: Vec<Open>,
    agg: BTreeMap<&'static str, Agg>,
    /// Per root span name: time covered by its children, and its total.
    roots: BTreeMap<&'static str, (u64, u64)>,
    /// Run id stamped on new spans.
    pub run: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            recorded: 0,
            stack: Vec::new(),
            agg: BTreeMap::new(),
            roots: BTreeMap::new(),
            run: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let start_ns = self.now_ns();
        let kept = if self.spans.len() < KEPT_SPANS {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().map_or(NO_PARENT, |p| p.kept),
                run: self.run,
            });
            self.spans.len() as u32 - 1
        } else {
            NO_PARENT
        };
        self.stack.push(Open {
            start_ns,
            child_ns: 0,
            kept,
        });
        let r = f(self);
        let open = self.stack.pop().expect("the span pushed above");
        let end_ns = self.now_ns();
        let dur = end_ns - open.start_ns;
        if let Some(s) = self.spans.get_mut(open.kept as usize) {
            s.end_ns = end_ns;
        }
        let a = self.agg.entry(name).or_default();
        a.calls += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
        match self.stack.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None => {
                let root = self.roots.entry(name).or_default();
                root.0 += open.child_ns.min(dur);
                root.1 += dur;
            }
        }
        self.recorded += 1;
        r
    }

    /// Calls, total and self time per span name.
    pub fn aggregate(&self) -> &BTreeMap<&'static str, Agg> {
        &self.agg
    }

    /// Total time of the spans whose names start with `prefix`.
    pub fn total_ns(&self, prefix: &str) -> u64 {
        self.agg
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, a)| a.total_ns)
            .sum()
    }

    /// The share of the time of root spans called `root` that their child
    /// spans cover.
    pub fn coverage(&self, root: &str) -> f64 {
        let (covered, total) = self.roots.get(root).copied().unwrap_or((0, 0));
        covered as f64 / total.max(1) as f64
    }

    /// Write the kept spans as one JSON object per line, then the totals
    /// per span name.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.run
            );
        }
        for (name, a) in &self.agg {
            let _ = writeln!(
                out,
                "{{\"summary\":\"{name}\",\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}",
                a.calls, a.total_ns, a.self_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
