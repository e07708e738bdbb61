//! `perfbench`: one workload per invocation, timed from outside the
//! program's public API. `run.py` builds this binary (plain and traced),
//! runs it, and prints the benchmark's result line; see
//! `perfbench/README.md` for the workloads and the metric map.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s>
//! [--workers <k>] [--setup-reps <r>] [--tiny] [--out-dir <dir>]
//! [--corrupt-record cut|dup]`
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics` (end-to-end from the plain build, per-layer from the
//! traced one) and `detail` (host, sample counts, tail percentile, failure
//! messages, per-layer metrics a workload does not exercise).

mod churn;
mod dense;
mod sweep;
mod trace;
mod util;

use std::path::PathBuf;
use std::time::Instant;
use trace::{Layers, Tracer, TRACED};
use util::{json_list, json_str, median, tail, Obj};

/// Command-line options shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Pool worker threads (never more than the host's cores).
    pub workers: usize,
    /// Self-test sizes: every workload shrunk to run in about a second.
    pub tiny: bool,
    /// Where reports, spans and scratch files go.
    pub out_dir: PathBuf,
    /// Damage one sweep batch's record stream before checking it
    /// (self-test).
    pub corrupt: Option<Corrupt>,
    /// Set-up repetitions, spread over the run; `setup_s` is their median.
    pub setup_reps: usize,
}

/// How the self-test damages a sweep record stream.
#[derive(Debug, Clone, Copy)]
pub enum Corrupt {
    /// Cut the first record in half.
    Cut,
    /// Append a duplicate of the last record.
    Dup,
}

/// One workload's fixed reporting choices.
struct Workload {
    name: &'static str,
    /// Tail percentile: the highest its op count supports on a 2-core host
    /// in a 25-second run (see `util::tail`).
    tail_pct: f64,
    /// Set-up repetitions; more where a set-up is short and so noisier.
    setup_reps: usize,
}

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "dense-100k",
        tail_pct: 75.0,
        setup_reps: 5,
    },
    Workload {
        name: "sweep-dynamic",
        tail_pct: 75.0,
        setup_reps: 7,
    },
    Workload {
        name: "maintain-churn",
        tail_pct: 75.0,
        setup_reps: 5,
    },
];

fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Times set-ups and ops, counts attempts and failures.
pub struct Harness {
    /// The run's options.
    pub opts: Opts,
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall ms of each timed op sample.
    pub op_ms: Vec<f64>,
    /// Ops completed in the timed phase (one sample can cover several).
    pub ops: u64,
    /// Wall seconds spent inside timed ops.
    pub timed_s: f64,
    /// Ops attempted (timed and warm-up).
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    failures: Vec<String>,
    /// The benchmark's own spans (traced build only).
    pub tracer: Tracer,
    /// Per-layer metrics (traced build only).
    pub layers: Layers,
    /// Extra `detail` fields, already JSON-encoded.
    pub detail: Obj,
    /// The program's own recorder report, as folded stacks.
    pub folded: String,
    started: Instant,
}

impl Harness {
    fn new(opts: Opts) -> Self {
        Harness {
            opts,
            setup_s: Vec::new(),
            op_ms: Vec::new(),
            ops: 0,
            timed_s: 0.0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            tracer: Tracer::default(),
            layers: Layers::default(),
            detail: Obj::default(),
            folded: String::new(),
            started: Instant::now(),
        }
    }

    /// Whether the timed phase has used up its seconds.
    pub fn time_left(&self) -> bool {
        self.timed_s < self.opts.seconds
    }

    /// Whether the next set-up repetition is due. Repetitions are spread
    /// evenly over the timed phase (the first one before any timed op), so
    /// their median samples the host over the whole run, not only its
    /// first seconds.
    pub fn setup_due(&self) -> bool {
        let done = self.setup_s.len();
        done < self.opts.setup_reps
            && self.timed_s >= done as f64 * self.opts.seconds / self.opts.setup_reps as f64
    }

    /// Retires the live pool so the next parallel call spawns a fresh one:
    /// pool spawn belongs to every set-up repetition.
    pub fn respawn_pool(&self) {
        rayon::set_num_threads(self.opts.workers + 1);
        rayon::set_num_threads(self.opts.workers);
    }

    /// Records one timed sample of `ops` ops taking `ms`.
    pub fn sample(&mut self, ms: f64, ops: u64) {
        self.op_ms.push(ms / ops.max(1) as f64);
        self.ops += ops;
        self.timed_s += ms / 1e3;
    }

    /// Counts `n` attempted ops of which `bad` failed their check.
    pub fn checked(&mut self, n: u64, bad: u64, why: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            if self.failures.len() < 8 {
                self.failures.push(why());
            }
        }
    }

    fn end_to_end(&self, t: util::Tail) -> String {
        let mut metrics = Obj::default();
        let mut metric = |name: &str, value: f64, unit: &str| {
            let mut m = Obj::default();
            m.num("value", value).str("unit", unit);
            metrics.raw(name, m.render());
        };
        metric("ops_per_s", self.ops as f64 / self.timed_s.max(1e-9), "1/s");
        metric("op_ms_p50", median(&self.op_ms), "ms");
        metric("op_ms_tail", t.value, "ms");
        metric("setup_s", median(&self.setup_s), "s");
        metric("peak_rss_mb", util::peak_rss_mb(), "MiB");
        metrics.render()
    }

    fn render(&self) -> String {
        let preferred = workload(&self.opts.workload).map_or(50.0, |w| w.tail_pct);
        let t = tail(&self.op_ms, preferred);
        let (metrics, absent) = if TRACED {
            self.layers.render()
        } else {
            (self.end_to_end(t), Vec::new())
        };
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut detail = Obj::default();
        detail
            .str("workload", &self.opts.workload)
            .int("seed", self.opts.seed)
            .str("build", if TRACED { "traced" } else { "plain" })
            .int("nproc", nproc as u64)
            .int("workers", self.opts.workers as u64)
            .int("simd_bits", util::simd_bits() as u64)
            .int("ops", self.ops)
            .int("samples", self.op_ms.len() as u64)
            .num("op_ms_p50", median(&self.op_ms))
            .num("tail_pct", t.pct)
            .int("tail_beyond", t.beyond as u64)
            .num("timed_s", self.timed_s)
            .raw(
                "setup_s_reps",
                json_list(self.setup_s.iter().map(|&s| util::json_num(s))),
            )
            .num("wall_s", self.started.elapsed().as_secs_f64())
            .raw(
                "failures",
                json_list(self.failures.iter().map(|f| json_str(f))),
            )
            .raw("absent", json_list(absent.iter().map(|a| json_str(a))))
            .raw("extra", self.detail.render());
        let mut o = Obj::default();
        o.raw(
            "correct",
            (self.failed == 0 && self.attempted > 0).to_string(),
        )
        .int("attempted", self.attempted)
        .int("failed", self.failed)
        .raw("metrics", metrics)
        .raw("detail", detail.render());
        o.render()
    }

    /// Writes the spans and the program's folded report next to the other
    /// run outputs (traced build only).
    fn write_trace(&self) {
        if !TRACED {
            return;
        }
        let stem = format!("{}-seed{}", self.opts.workload, self.opts.seed);
        let dir = &self.opts.out_dir;
        let spans = dir.join(format!("{stem}.spans.jsonl"));
        let folded = dir.join(format!("{stem}.obs.folded"));
        if let Err(e) = std::fs::write(&spans, self.tracer.to_jsonl())
            .and_then(|()| std::fs::write(&folded, &self.folded))
        {
            eprintln!("perfbench: cannot write trace files: {e}");
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> [--workers <k>] \
         [--setup-reps <r>] [--tiny] [--out-dir <dir>] [--corrupt-record cut|dup]",
        WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Opts {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        workers: nproc,
        tiny: false,
        out_dir: PathBuf::from(".bench_build/reports"),
        corrupt: None,
        setup_reps: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => opts.workload = val(),
            "--seed" => opts.seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = val().parse().unwrap_or_else(|_| usage()),
            "--workers" => opts.workers = val().parse().unwrap_or_else(|_| usage()),
            "--setup-reps" => opts.setup_reps = val().parse().unwrap_or_else(|_| usage()),
            "--out-dir" => opts.out_dir = PathBuf::from(val()),
            "--tiny" => opts.tiny = true,
            "--corrupt-record" => {
                opts.corrupt = Some(match val().as_str() {
                    "cut" => Corrupt::Cut,
                    "dup" => Corrupt::Dup,
                    _ => usage(),
                })
            }
            _ => usage(),
        }
    }
    let Some(w) = workload(&opts.workload) else {
        usage()
    };
    if opts.seconds <= 0.0 {
        usage();
    }
    if opts.setup_reps == 0 {
        opts.setup_reps = w.setup_reps;
    }
    // Never more workers than cores.
    opts.workers = opts.workers.clamp(1, nproc);
    opts
}

fn main() {
    let opts = parse_args();
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.out_dir.display());
        std::process::exit(1);
    }
    rayon::set_num_threads(opts.workers);
    let mut h = Harness::new(opts);
    match h.opts.workload.as_str() {
        "dense-100k" => dense::run(&mut h),
        "sweep-dynamic" => sweep::run(&mut h),
        "maintain-churn" => churn::run(&mut h),
        _ => unreachable!("validated in parse_args"),
    }
    h.write_trace();
    println!("{}", h.render());
}
