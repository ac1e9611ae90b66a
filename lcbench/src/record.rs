//! What one pass over a workload records: per-call and per-op wall
//! times, set-up times, correctness failures, layer counts, the
//! sim-clock identity of the first epoch, and (traced passes only) the
//! span list.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::trace::{SpanId, Tracer};

pub struct Record {
    t0: Instant,
    /// Seconds after `t0` at which the pass stops starting new work.
    deadline_s: f64,
    /// Wall time of every public `UdcCloud` call, by span name.
    pub calls: BTreeMap<&'static str, Vec<u64>>,
    /// Wall time of every tenant op (the sum of its calls).
    pub op_ns: Vec<u64>,
    /// Wall time of every epoch's set-up.
    pub setup_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
    /// Layer counts: name → (sum, samples).
    pub counts: BTreeMap<&'static str, (f64, u64)>,
    /// Sim-clock outputs of the identity prefix, in print order.
    pub identity: Vec<(&'static str, String)>,
    pub epochs: u64,
    pub tracer: Option<Tracer>,
    cur_op_ns: u64,
    cur_op_ok: bool,
}

impl Record {
    pub fn new(traced: bool, deadline_s: f64) -> Self {
        Self {
            t0: Instant::now(),
            deadline_s,
            calls: BTreeMap::new(),
            op_ns: Vec::new(),
            setup_ns: Vec::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            counts: BTreeMap::new(),
            identity: Vec::new(),
            epochs: 0,
            tracer: traced.then(Tracer::default),
            cur_op_ns: 0,
            cur_op_ok: true,
        }
    }

    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    pub fn past_deadline(&self) -> bool {
        self.t0.elapsed().as_secs_f64() >= self.deadline_s
    }

    fn now_ns(&self) -> u64 {
        match &self.tracer {
            Some(t) => t.now_ns(),
            None => self.t0.elapsed().as_nanos() as u64,
        }
    }

    pub fn begin_op(&mut self) {
        self.cur_op_ns = 0;
        self.cur_op_ok = true;
        if let Some(t) = &mut self.tracer {
            t.next_op();
        }
    }

    /// Closes the current op; it counts as failed if any call in it
    /// errored or any check on it failed.
    pub fn end_op(&mut self) {
        self.op_ns.push(self.cur_op_ns);
        self.attempted += 1;
        if !self.cur_op_ok {
            self.failed += 1;
        }
    }

    /// Times one public call of the control plane as part of the
    /// current op. In a traced pass it is also a root span.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Option<SpanId>) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.calls.entry(name).or_default().push(end - start);
        self.cur_op_ns += end - start;
        let span = self
            .tracer
            .as_mut()
            .map(|t| t.record(name, start, end, None));
        (out, span)
    }

    /// Times set-up work (not part of any op). In a traced pass it is a
    /// root span too, so its layers can be replayed beneath it.
    pub fn setup_call<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, Option<SpanId>) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let span = self
            .tracer
            .as_mut()
            .map(|t| t.record_setup(name, start, end));
        (out, span)
    }

    /// Runs a replay of one layer under `parent` (traced passes only).
    pub fn replay<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        self.tracer
            .as_mut()
            .expect("replays run only in traced passes")
            .time(name, Some(parent), f)
    }

    /// Records a failed check against the current op.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.cur_op_ok = false;
            self.note(what());
        }
    }

    /// Records a failed check that belongs to no single op (epoch-end
    /// and cross-pass checks); it counts as one more failed op.
    pub fn check_extra(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what());
        }
    }

    fn note(&mut self, s: String) {
        if self.notes.len() < 8 {
            self.notes.push(s);
        }
    }

    pub fn count(&mut self, name: &'static str, v: f64) {
        let e = self.counts.entry(name).or_insert((0.0, 0));
        e.0 += v;
        e.1 += 1;
    }

    /// Mean of a layer count's samples (0 when never sampled: the layer
    /// is not on this workload's path).
    pub fn mean(&self, name: &str) -> f64 {
        match self.counts.get(name) {
            Some(&(sum, n)) if n > 0 => sum / n as f64,
            _ => 0.0,
        }
    }

    pub fn ident(&mut self, key: &'static str, value: impl ToString) {
        self.identity.push((key, value.to_string()));
    }

    /// The identity as one JSON object with a fixed key order.
    pub fn identity_json(&self) -> String {
        let body: Vec<String> = self
            .identity
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}
