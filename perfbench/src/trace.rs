//! The benchmark's own spans and the per-layer metric table.
//!
//! In the traced build (`--features obs`) every call the benchmark makes
//! into a layer's public API is wrapped in a [`Tracer`] span: a name, the
//! op it belongs to (one identifier per op), the enclosing span, and start
//! and end times. Spans stay in memory and are written as JSONL when the
//! run ends. In the plain build the tracer is off and never reads the
//! clock, so the end-to-end numbers carry no tracing cost.

use crate::util::{json_num, json_str, Obj};
use mca_obs::{Report, SpanKind};
use std::time::Instant;

/// Whether this binary is the traced build.
pub const TRACED: bool = cfg!(feature = "obs");

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `core.repair`.
    pub name: &'static str,
    /// The op the span belongs to (`u64::MAX` for set-up work).
    pub op: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Op id of spans recorded during set-up.
pub const SETUP_OP: u64 = u64::MAX;

/// An in-memory span recorder; a no-op unless [`TRACED`].
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span nested in the innermost open one (an op's span, whose
    /// layer calls become its children).
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if !TRACED {
            return;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !TRACED {
            return;
        }
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.t0.elapsed().as_nanos() as u64;
        }
    }

    /// Records a span timed elsewhere (inside a pool task), nested in the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !TRACED {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, op);
        let r = f();
        self.exit();
        r
    }

    /// Durations (ms) of every span called `name`, optionally only those
    /// of timed ops.
    pub fn durations_ms(&self, name: &str, timed_only: bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && !(timed_only && s.op == SETUP_OP))
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Total ms of spans called `name` over timed ops.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name, true).iter().sum()
    }

    /// Self time of span `i`: its duration minus what its children cover.
    fn self_ns(&self, i: usize) -> u64 {
        let child: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(Span::ns)
            .sum();
        self.spans[i].ns().saturating_sub(child)
    }

    /// All spans as JSONL, one object per line, with self times.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut o = Obj::default();
            o.int("id", i as u64).str("span", s.name);
            match s.op {
                SETUP_OP => o.raw("op", "null".into()),
                op => o.int("op", op),
            };
            match s.parent {
                Some(p) => o.int("parent", p as u64),
                None => o.raw("parent", "null".into()),
            };
            o.int("start_ns", s.start_ns)
                .int("end_ns", s.end_ns)
                .int("self_ns", self.self_ns(i));
            out.push_str(&o.render());
            out.push('\n');
        }
        out
    }
}

/// Every per-layer metric the traced binary reports, with its unit. A
/// workload leaves a metric at 0 when it never calls that layer (see the
/// map in `perfbench/README.md`); the run lists those names as `absent`.
/// `run.py` adds `obs.overhead_frac`, which compares the two builds.
pub const LAYER_METRICS: [(&str, &str); 35] = [
    ("geom.deploy_ms", "ms"),
    ("sinr.unit_self_ms", "ms"),
    ("sinr.halo_ms", "ms"),
    ("sinr.index_builds", "count"),
    ("sinr.index_build_ms", "ms"),
    ("sinr.resolve_ns_per_listener", "ns"),
    ("sinr.work_per_listener", "count"),
    ("sinr.listeners_per_slot", "count"),
    ("radio.step_ms", "ms"),
    ("radio.event_drain_ms", "ms"),
    ("radio.gather_ms", "ms"),
    ("radio.stage_ms", "ms"),
    ("radio.merge_ms", "ms"),
    ("radio.pool_wait_ms", "ms"),
    ("radio.deliver_ms", "ms"),
    ("radio.slot_coverage", "fraction"),
    ("pool.steals", "count/op"),
    ("pool.tasks", "count/op"),
    ("pool.parks", "count/op"),
    ("pool.injected", "count/op"),
    ("pool.cpu_util", "fraction"),
    ("core.build_ms", "ms"),
    ("core.build.dominate_ms", "ms"),
    ("core.build.cluster_ms", "ms"),
    ("core.build.csa_ms", "ms"),
    ("core.build.election_ms", "ms"),
    ("core.repair_ms", "ms"),
    ("core.repair_slots", "slots"),
    ("core.repair_incremental_frac", "fraction"),
    ("scenario.sim_new_ms", "ms"),
    ("scenario.env_us_per_slot", "us"),
    ("scenario.expand_ms", "ms"),
    ("sweep.trial_ms_p50", "ms"),
    ("sweep.overhead_frac", "fraction"),
    ("sweep.bytes_per_trial", "bytes"),
];

/// Per-layer values collected by a traced run.
#[derive(Debug, Default)]
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    /// Sets metric `name` (must be one of [`LAYER_METRICS`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Fills the engine-layer metrics from an `mca-obs` report covering
    /// `slots` engine slots: phase self times per slot, resolve-unit and
    /// halo time per slot, resolver-index rebuilds per slot, coverage.
    pub fn set_engine(&mut self, rep: &Report, slots: u64) {
        if slots == 0 {
            return;
        }
        let per_slot_ms = |k: SpanKind, self_time: bool| {
            rep.kind(k).map_or(0.0, |s| {
                (if self_time { s.self_ns } else { s.total_ns }) as f64 / 1e6 / slots as f64
            })
        };
        self.set("sinr.unit_self_ms", per_slot_ms(SpanKind::Unit, true));
        self.set("sinr.halo_ms", per_slot_ms(SpanKind::Halo, false));
        self.set("radio.step_ms", per_slot_ms(SpanKind::Slot, false));
        self.set(
            "radio.event_drain_ms",
            per_slot_ms(SpanKind::EventDrain, true),
        );
        self.set("radio.gather_ms", per_slot_ms(SpanKind::Gather, true));
        self.set("radio.stage_ms", per_slot_ms(SpanKind::Stage, true));
        self.set("radio.merge_ms", per_slot_ms(SpanKind::Merge, true));
        self.set("radio.pool_wait_ms", per_slot_ms(SpanKind::Pool, true));
        self.set("radio.deliver_ms", per_slot_ms(SpanKind::Deliver, true));
        self.set("radio.slot_coverage", rep.slot_coverage().unwrap_or(0.0));
        let counter = |name: &str| {
            rep.counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |&(_, v)| v)
        };
        self.set(
            "sinr.index_builds",
            counter("resolver_cache_builds") as f64 / slots as f64,
        );
        self.set(
            "sinr.index_build_ms",
            counter("resolver_cache_build_ns") as f64 / 1e6 / slots as f64,
        );
    }

    /// Renders the `metrics` object over every [`LAYER_METRICS`] name,
    /// plus the list of names this workload left unmeasured.
    pub fn render(&self) -> (String, Vec<&'static str>) {
        let mut absent = Vec::new();
        let fields: Vec<String> = LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let v = self.get(name).unwrap_or_else(|| {
                    absent.push(name);
                    0.0
                });
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(v),
                    json_str(unit)
                )
            })
            .collect();
        (format!("{{{}}}", fields.join(", ")), absent)
    }
}

/// Pool activity over the timed ops: [`rayon::pool_stats`] deltas from
/// [`PoolProbe::start`], and process CPU and wall time summed over the
/// calls wrapped in [`PoolProbe::time`] only, so the benchmark's own
/// checking and bookkeeping between ops do not dilute `pool.cpu_util`.
#[derive(Debug, Clone, Copy)]
pub struct PoolProbe {
    stats: rayon::PoolStats,
    cpu_s: f64,
    wall_s: f64,
}

impl PoolProbe {
    /// Snapshots the pool counters now.
    pub fn start() -> Self {
        PoolProbe {
            stats: rayon::pool_stats(),
            cpu_s: 0.0,
            wall_s: 0.0,
        }
    }

    /// Runs one timed op, adding its process CPU and wall time (traced
    /// build only; the plain build never reads the clocks here).
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if !TRACED {
            return f();
        }
        let (cpu, wall) = (crate::util::process_cpu_s(), Instant::now());
        let r = f();
        self.wall_s += wall.elapsed().as_secs_f64();
        self.cpu_s += crate::util::process_cpu_s() - cpu;
        r
    }

    /// Sets the `pool.*` metrics for `ops` ops since the snapshot, with
    /// `workers` pool threads.
    pub fn finish(&self, layers: &mut Layers, ops: u64, workers: usize) {
        let now = rayon::pool_stats();
        let per_op = |a: u64, b: u64| a.saturating_sub(b) as f64 / ops.max(1) as f64;
        layers.set("pool.steals", per_op(now.steals, self.stats.steals));
        layers.set("pool.tasks", per_op(now.tasks, self.stats.tasks));
        layers.set("pool.parks", per_op(now.parks, self.stats.parks));
        layers.set("pool.injected", per_op(now.injected, self.stats.injected));
        layers.set(
            "pool.cpu_util",
            self.cpu_s / (self.wall_s.max(1e-9) * workers.max(1) as f64),
        );
    }
}
