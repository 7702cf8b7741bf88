//! One run's outcome and its JSON line, plus small shared helpers.

use std::fmt::Write as _;

use lingxi_abtest::DayMetrics;

use crate::trace::Tracer;

/// SplitMix64 finalizer, for deriving the benchmark's own input streams.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the exact bits of a run's simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Simulated per-session means: the paper's three A/B metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Qoe {
    pub watch_s: f64,
    pub stall_s: f64,
    pub bitrate_kbps: f64,
}

impl Qoe {
    /// Session-weighted means over day aggregates.
    pub fn from_days(days: &[DayMetrics]) -> Self {
        let mut watch = 0.0;
        let mut stall = 0.0;
        let mut rate = 0.0;
        let mut sessions = 0usize;
        for d in days {
            watch += d.watch_time;
            stall += d.stall_time;
            rate += d.mean_bitrate * d.sessions as f64;
            sessions += d.sessions;
        }
        let per = 1.0 / sessions.max(1) as f64;
        Self {
            watch_s: watch * per,
            stall_s: stall * per,
            bitrate_kbps: rate * per,
        }
    }
}

/// Everything one run reports to `run.py`.
#[derive(Debug)]
pub struct Outcome {
    /// World, engine and backend construction (seconds).
    pub setup_s: f64,
    /// The timed simulation loop (seconds).
    pub loop_s: f64,
    /// The span of the run the traced run is compared against.
    pub timed_s: f64,
    pub sessions: usize,
    /// Sessions per epoch, as the run reports them.
    pub epoch_sessions: Vec<usize>,
    pub segments: usize,
    pub qoe: Qoe,
    pub fingerprint: String,
    /// Durable state on disk at the end of the run.
    pub state_bytes: u64,
    /// Per-layer work counts and times, by metric name.
    pub layers: Vec<(String, f64)>,
    /// Failed output checks.
    pub failures: Vec<String>,
    /// Traced run only: wall time of the traced counterpart of `timed_s`.
    pub traced_run_s: f64,
    /// Mean time of the reference kernel around the run (seconds).
    pub kernel_s: f64,
    pub trace: Option<Tracer>,
}

impl Outcome {
    pub fn new(setup_s: f64, loop_s: f64) -> Self {
        Self {
            setup_s,
            loop_s,
            timed_s: loop_s,
            sessions: 0,
            epoch_sessions: Vec::new(),
            segments: 0,
            qoe: Qoe::default(),
            fingerprint: String::new(),
            state_bytes: 0,
            layers: Vec::new(),
            failures: Vec::new(),
            traced_run_s: 0.0,
            kernel_s: 0.0,
            trace: None,
        }
    }

    /// Record a per-layer metric (the last write of a name wins).
    pub fn counter(&mut self, name: &str, value: f64) {
        match self.layers.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.layers.push((name.to_string(), value)),
        }
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// The run's JSON line. Checks that need the whole run (session
    /// counts, finiteness) are applied here, so they cover every field.
    pub fn render(&mut self, workload: &str, seed: u64) -> String {
        let epoch_sum: usize = self.epoch_sessions.iter().sum();
        if epoch_sum != self.sessions {
            self.fail(format!(
                "sessions {} != sum of per-epoch sessions {epoch_sum}",
                self.sessions
            ));
        }
        if self.sessions == 0 {
            self.fail("no sessions ran");
        }
        let mut nums: Vec<(String, f64)> = vec![
            ("setup_s".into(), self.setup_s),
            ("loop_s".into(), self.loop_s),
            ("timed_s".into(), self.timed_s),
            ("sessions".into(), self.sessions as f64),
            ("segments".into(), self.segments as f64),
            ("qoe_watch_s".into(), self.qoe.watch_s),
            ("qoe_stall_s".into(), self.qoe.stall_s),
            ("qoe_bitrate_kbps".into(), self.qoe.bitrate_kbps),
            ("state_bytes".into(), self.state_bytes as f64),
            ("traced_run_s".into(), self.traced_run_s),
            ("kernel_s".into(), self.kernel_s),
        ];
        let mut layers = self.layers.clone();
        if let Some(t) = &self.trace {
            let totals = t.totals();
            let mut covered = 0.0;
            for (layer, s) in &totals.self_s {
                if *layer != "bench" {
                    covered += s;
                }
                layers.push((format!("{layer}.self_s"), *s));
            }
            layers.push(("trace.wall_s".into(), totals.wall_s));
            layers.push(("trace.coverage".into(), covered / totals.wall_s));
            layers.push(("trace.spans".into(), t.spans().len() as f64));
        }
        nums.extend(layers.iter().map(|(k, v)| (format!("layer:{k}"), *v)));
        for (k, v) in &nums {
            if !v.is_finite() {
                self.fail(format!("{k} is not finite"));
            }
        }
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"workload\":\"{workload}\",\"seed\":{seed},\"fingerprint\":\"{}\"",
            self.fingerprint
        );
        for (k, v) in &nums {
            let v = if v.is_finite() { *v } else { -1.0 };
            let _ = write!(s, ",\"{k}\":{v:?}");
        }
        s.push_str(",\"failures\":[");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let esc = f.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = write!(s, "\"{esc}\"");
        }
        s.push_str("]}");
        s
    }
}
