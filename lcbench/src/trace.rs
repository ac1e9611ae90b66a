//! In-memory spans for the traced run, and the per-layer self-time
//! table built from them.
//!
//! Every span is recorded by the benchmark's own code around a call it
//! makes. A *core op* (`core.submit`, `core.advance`, ...) is a root span
//! timed around the public `UdcCloud` call. Layers reached only inside
//! that call are measured by a replay pass right after it, which sends
//! the same inputs into the layer's public entry point; each replay span
//! names the core op as its parent. A span's self time is its duration
//! minus the durations of its children, so the self times of one core op
//! and all its descendants add up to the op's measured time by
//! construction. The replays run after the call returns, so the op's own
//! self time, its `unattributed` remainder, is the op's time minus its
//! replays' time: an estimate, negative when a replay runs slower than
//! the same work inside the call.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Index of the root (core op) span; equals the span's own index
    /// for roots.
    pub root: u32,
    /// The tenant op the span belongs to.
    pub op: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<SpanRec>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            op: 0,
        }
    }
}

/// Handle of a recorded span, used as a parent.
pub type SpanId = u32;

impl Tracer {
    /// Starts the next tenant op; spans recorded until the next call
    /// share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        let id = self.spans.len() as u32;
        let (root, op) = parent.map_or((id, self.op), |p| {
            let p = &self.spans[p as usize];
            (p.root, p.op)
        });
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            root,
            op,
        });
        id
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (out, self.record(name, start, end, parent))
    }

    /// Records set-up work: op id 0, which no tenant op uses.
    pub fn record_setup(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> SpanId {
        let saved = std::mem::replace(&mut self.op, 0);
        let id = self.record(name, start_ns, end_ns, None);
        self.op = saved;
        id
    }

    /// Distinct tenant ops that recorded spans.
    pub fn ops(&self) -> u64 {
        let mut ids: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.op)
            .filter(|&op| op > 0)
            .collect();
        ids.dedup();
        ids.len() as u64
    }

    /// Per-root-name aggregation: for each core op name, how many ops
    /// ran, their mean duration, and the mean self time per op of every
    /// span name beneath them (the op's own name is its unattributed
    /// remainder).
    pub fn table(&self) -> BTreeMap<&'static str, OpProfile> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, OpProfile> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let root = &self.spans[s.root as usize];
            let prof = out.entry(root.name).or_default();
            if s.parent.is_none() {
                prof.count += 1;
                prof.total_ns += s.dur_ns();
            }
            let self_ns = s.dur_ns() as i128 - child_ns[i] as i128;
            *prof.self_ns.entry(s.name).or_default() += self_ns;
        }
        out
    }
}

/// Aggregated self times of one core op.
#[derive(Debug, Default, Clone)]
pub struct OpProfile {
    pub count: u64,
    pub total_ns: u64,
    /// Span name → summed self time (signed: a replay that runs slower
    /// than the work inside the op leaves a negative remainder).
    pub self_ns: BTreeMap<&'static str, i128>,
}

impl OpProfile {
    /// Mean duration of the op in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Mean self time per op of `name`, in microseconds.
    pub fn self_us(&self, name: &str) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / self.count as f64 / 1e3
    }
}
