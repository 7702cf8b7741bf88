//! In-memory span tracer for the traced run.
//!
//! Spans are opened and closed around the benchmark's own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Calls too frequent to keep one span each (the forwarding wrappers on
//! `Abr::select`, `RolloutPredictor::predict`, `ExitModel::decide` and
//! `BandwidthProcess::download`) are kept as per-(parent span, layer)
//! call counts and durations, folded into the innermost open span
//! whenever a span opens or closes. Those calls take tens of nanoseconds
//! and a clock read pair costs about as much, so a pseudo-random one in
//! [`SAMPLE_EVERY`] calls is timed and the rest are estimated from the
//! timed ones.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Calls and (estimated) time of one leaf layer under one span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Leaf {
    pub calls: u64,
    pub ns: f64,
}

/// One in this many leaf calls is timed.
pub const SAMPLE_EVERY: u64 = 16;

/// Running totals a forwarding wrapper keeps for its layer.
#[derive(Debug, Clone, Copy)]
pub struct LeafCounter {
    pub calls: u64,
    /// Calls that were timed, and their summed duration net of the clock.
    pub timed: u64,
    pub timed_ns: f64,
    /// xorshift state choosing which calls to time.
    state: u64,
}

impl Default for LeafCounter {
    fn default() -> Self {
        Self {
            calls: 0,
            timed: 0,
            timed_ns: 0.0,
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl LeafCounter {
    /// Forward one call, timing it if it is sampled.
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.calls += 1;
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        // The first call is always timed, so every layer that ran has a
        // duration estimate.
        if self.timed > 0 && !self.state.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        // `t1 - t0` is the call plus one clock read; `t2 - t1` is one
        // clock read taken under the same conditions, subtracted here.
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let t2 = Instant::now();
        self.timed_ns += (t1 - t0).as_nanos() as f64 - (t2 - t1).as_nanos() as f64;
        self.timed += 1;
        out
    }

    /// Mean duration of the timed calls.
    fn mean_ns(&self) -> f64 {
        self.timed_ns / self.timed.max(1) as f64
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Leaf calls folded into spans: (span, layer, totals).
    leaves: Vec<(usize, &'static str, Leaf)>,
    /// Leaf totals already folded, in the order `sync` receives them.
    seen: Vec<LeafCounter>,
}

/// Per-layer totals derived from a finished trace.
#[derive(Debug, Default)]
pub struct LayerTotals {
    /// Self-time per layer (seconds).
    pub self_s: BTreeMap<&'static str, f64>,
    /// Span or leaf-call count per layer.
    pub calls: BTreeMap<&'static str, u64>,
    /// Wall time of the root span (seconds).
    pub wall_s: f64,
}

impl Tracer {
    /// A tracer whose root span opens now.
    pub fn new(root: &'static str) -> Self {
        let mut t = Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            leaves: Vec::new(),
            seen: Vec::new(),
        };
        t.enter(root);
        t
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Fold the wrappers' running totals into the innermost open span.
    pub fn sync(&mut self, counters: &[(&'static str, LeafCounter)]) {
        if let Some(&top) = self.stack.last() {
            self.sync_into(top, counters);
        }
    }

    /// Fold the wrappers' running totals into span `span`. `counters`
    /// must list the same layers in the same order on every call. The
    /// calls since the last fold are charged the mean duration of the
    /// timed calls among them, or the layer's running mean if none was.
    pub fn sync_into(&mut self, span: usize, counters: &[(&'static str, LeafCounter)]) {
        self.seen.resize(counters.len(), LeafCounter::default());
        for (&(layer, now), seen) in counters.iter().zip(self.seen.iter_mut()) {
            let calls = now.calls - seen.calls;
            if calls > 0 {
                let timed = now.timed - seen.timed;
                let mean = if timed > 0 {
                    (now.timed_ns - seen.timed_ns) / timed as f64
                } else {
                    now.mean_ns()
                };
                let ns = mean.max(0.0) * calls as f64;
                self.leaves.push((span, layer, Leaf { calls, ns }));
            }
            *seen = now;
        }
    }

    /// Record a span that already ended, under the innermost open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
        });
        self.spans.len() - 1
    }

    /// Open a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let end = self.now_ns();
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end;
    }

    /// Close the root span.
    pub fn finish(&mut self) {
        while let Some(&id) = self.stack.last() {
            self.exit(id);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self-time per layer: a span's duration minus its child spans and
    /// the leaf calls folded into it; a leaf's self-time is its summed
    /// duration. Self-times tile the root exactly: an error in a sampled
    /// leaf estimate moves time between the leaf and its parent span.
    pub fn totals(&self) -> LayerTotals {
        let mut child_ns = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += (s.end_ns - s.start_ns) as f64;
            }
        }
        let mut out = LayerTotals::default();
        for &(span, layer, leaf) in &self.leaves {
            child_ns[span] += leaf.ns;
            *out.self_s.entry(layer).or_default() += leaf.ns * 1e-9;
            *out.calls.entry(layer).or_default() += leaf.calls;
        }
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns) as f64 - child_ns[i];
            *out.self_s.entry(s.name).or_default() += own * 1e-9;
            *out.calls.entry(s.name).or_default() += 1;
        }
        out.wall_s = self
            .spans
            .first()
            .map_or(0.0, |r| (r.end_ns - r.start_ns) as f64 * 1e-9);
        out
    }

    /// Spans as tab-separated `id parent start_ns end_ns name` lines,
    /// followed by the folded leaf records `leaf parent calls ns layer`.
    pub fn dump(&self) -> String {
        let mut s = String::from("# id\tparent\tstart_ns\tend_ns\tname\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                s,
                "{i}\t{parent}\t{}\t{}\t{}",
                span.start_ns, span.end_ns, span.name
            );
        }
        for &(span, layer, leaf) in &self.leaves {
            let _ = writeln!(s, "leaf\t{span}\t{}\t{:.0}\t{layer}", leaf.calls, leaf.ns);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_leaves() {
        let mut t = Tracer::new("root");
        let a = t.enter("a");
        std::thread::sleep(std::time::Duration::from_millis(4));
        let mut leaf = LeafCounter::default();
        for _ in 0..3 {
            leaf.time(|| std::thread::sleep(std::time::Duration::from_micros(300)));
        }
        t.sync(&[("leaf", leaf)]);
        let b = t.enter("b");
        std::thread::sleep(std::time::Duration::from_millis(4));
        t.exit(b);
        t.exit(a);
        t.finish();
        let tot = t.totals();
        assert_eq!(tot.calls["leaf"], 3);
        assert!(tot.self_s["leaf"] >= 9e-4, "three 300 us calls");
        let sum: f64 = tot.self_s.values().sum();
        assert!((sum - tot.wall_s).abs() < 1e-6, "self-times tile the root");
        assert!(tot.self_s["a"] >= 0.002 && tot.self_s["b"] >= 0.003);
    }
}
