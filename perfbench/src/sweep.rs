//! `sweep-dynamic`: the trial service, one trial per op.
//!
//! A closed loop from one client: each batch is a `[matrix]` file
//! generated from the seed (random-waypoint motion plus churn, n ∈ {120,
//! 300, 600} × channels ∈ {1, 4, 8}, exact resolve) and run through
//! `run_sweep_file`, which writes the record stream and the journal; the
//! next batch is submitted when it returns. Trials run in parallel chunks
//! inside the service, so an op sample is one batch's wall time divided by
//! its trial count.

use crate::churn::Idle;
use crate::trace::{PoolProbe, SETUP_OP, TRACED};
use crate::util::{median, ms_since};
use crate::{Corrupt, Harness};
use mca_analysis::{trial_seed, KeyedTrial};
use mca_bench::sweep::trial_record;
use mca_bench::{run_sweep_file, scenario_flood_trial, scenario_flood_trial_observed, SweepConfig};
use mca_obs::{trial_line, validate_jsonl_line, Recorder, SpanKind};
use mca_radio::rng::derive_seed;
use mca_scenario::{ScenarioSim, SweepFile, TrialSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seeds per batch: every batch is 9 combinations × this many trials.
const SEEDS_PER_BATCH: u64 = 4;

/// The matrix file of batch `batch`.
fn matrix_toml(seed: u64, batch: u64, tiny: bool) -> String {
    let seeds: Vec<String> = (0..SEEDS_PER_BATCH)
        .map(|j| trial_seed(derive_seed(seed, 0x5EED), batch * SEEDS_PER_BATCH + j).to_string())
        .collect();
    let (ns, side, slots) = if tiny {
        ("[12, 24, 48]", 6.0, 60)
    } else {
        ("[120, 300, 600]", 20.0, 200)
    };
    format!(
        r#"name = "perfbench-sweep"
channels = 4
max_slots = {slots}
par_channels = false

[sinr]
resolve = "exact"

[deployment]
kind = "uniform"
n = 120
side = {side:?}

[mobility]
kind = "random-waypoint"
speed_min = 0.1
speed_max = 0.3
pause = 5

[churn]
kind = "random"
join_fraction = 0.15
join_window = [1, {join_end}]
crash_fraction = 0.1
crash_window = [{join_end}, {slots}]

[matrix]
seeds = [{seeds}]

[matrix.axes]
n = {ns}
channels = [1, 4, 8]
"#,
        join_end = slots / 2,
        seeds = seeds.join(", "),
    )
}

/// The record a trial must produce, computed in-process.
fn expected_line(set: &TrialSet, i: usize) -> String {
    let (s, seed) = set.pair(i);
    trial_line(&trial_record(&KeyedTrial {
        key: set.key_at(i),
        result: scenario_flood_trial(s, seed),
    }))
}

fn lines(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .map(|t| t.lines().map(str::to_string).collect())
        .unwrap_or_default()
}

/// One submitted batch: its files and expanded trial set.
struct Batch {
    input: PathBuf,
    cfg: SweepConfig,
    set: TrialSet,
}

fn submit(h: &mut Harness, dir: &Path, batch: u64) -> Batch {
    let input = dir.join(format!("batch{batch}.toml"));
    std::fs::write(&input, matrix_toml(h.opts.seed, batch, h.opts.tiny))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", input.display()));
    let op = if batch == 0 { SETUP_OP } else { batch };
    let set = h.tracer.span("scenario.expand", op, || {
        SweepFile::load(&input)
            .unwrap_or_else(|e| panic!("generated matrix does not load: {e}"))
            .trial_set()
            .expect("generated matrix names are unique")
    });
    let mut cfg = SweepConfig::for_input(&input);
    cfg.fresh = true;
    Batch { input, cfg, set }
}

/// Checks a finished batch (`note`: what the service reported, if it did
/// not complete); returns the record stream's size in bytes.
fn check(h: &mut Harness, b: &Batch, batch: u64, note: Option<String>) -> u64 {
    if batch == 1 {
        if let Some(how) = h.opts.corrupt {
            corrupt(&b.cfg.out_path, how);
        }
    }
    let total = b.set.len();
    let records = lines(&b.cfg.out_path);
    let journal = lines(&b.cfg.journal_path);
    let bytes = std::fs::metadata(&b.cfg.out_path).map_or(0, |m| m.len());
    let mut bad = vec![false; total];
    let mut why: Vec<String> = note.into_iter().collect();
    if records.len() != total || journal.len() != total {
        // Surplus or missing lines: the batch's output as a whole is not
        // what the service must produce, so every trial in it fails.
        why.push(format!(
            "{} records and {} journal lines for {total} trials",
            records.len(),
            journal.len()
        ));
        bad.fill(true);
    }
    for (i, slot) in bad.iter_mut().enumerate() {
        let rec = records.get(i);
        if let Some(Err(e)) = rec.map(|l| validate_jsonl_line(l)) {
            why.push(format!("record {i}: {e}"));
            *slot = true;
        } else if rec.is_none() {
            why.push(format!("record {i} missing"));
            *slot = true;
        }
        if journal.get(i) != Some(&b.set.key_at(i).journal_line()) {
            why.push(format!(
                "journal line {i} does not match the key enumeration"
            ));
            *slot = true;
        }
    }
    // One sampled record per batch, rotating, must match an in-process run
    // byte for byte.
    let i = (batch as usize * 7) % total;
    if !bad[i] && records.get(i) != Some(&expected_line(&b.set, i)) {
        why.push(format!("record {i} differs from the in-process trial"));
        bad[i] = true;
    }
    let failed = bad.iter().filter(|&&x| x).count() as u64;
    h.checked(total as u64, failed, || {
        format!("batch {batch}: {}", why.join("; "))
    });
    bytes
}

/// Damages a finished record stream the way the self-test asks for.
fn corrupt(path: &Path, how: Corrupt) {
    let mut recs = lines(path);
    match how {
        Corrupt::Cut => {
            if let Some(first) = recs.first_mut() {
                first.truncate(first.len() / 2);
            }
        }
        Corrupt::Dup => {
            if let Some(last) = recs.last().cloned() {
                recs.push(last);
            }
        }
    }
    let text: String = recs.iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(path, text).expect("rewrite record stream");
}

/// Runs one submitted batch through the service; returns its wall ms and
/// what the service reported if it did not complete.
fn run_batch(h: &mut Harness, b: &Batch, op: u64) -> (f64, Option<String>) {
    let t = Instant::now();
    let summary = h.tracer.span("sweep.run_sweep_file", op, || {
        run_sweep_file(&b.input, &b.cfg)
    });
    let ms = ms_since(t);
    let note = match summary {
        Ok(s) if s.complete && s.executed == b.set.len() => None,
        Ok(s) => Some(s.line()),
        Err(e) => Some(e.to_string()),
    };
    (ms, note)
}

fn remove(b: &Batch) {
    for p in [&b.input, &b.cfg.out_path, &b.cfg.journal_path] {
        let _ = std::fs::remove_file(p);
    }
}

/// A sequential replay of one batch for the per-layer metrics: each trial
/// once through `scenario_flood_trial_observed` (trial time, engine phase
/// spans, listens), plus `ScenarioSim::new` on the trial's scenario and
/// seed with an idle payload (the construction cost inside the trial).
fn replay(h: &mut Harness, set: &TrialSet, batch_ms: f64) {
    let mut rec = Recorder::new().with_channel_stream(false);
    let (mut trial_ms, mut slots, mut listens) = (Vec::new(), 0u64, 0u64);
    for i in 0..set.len() {
        let (s, seed) = set.pair(i);
        h.tracer.span("scenario.sim_new", SETUP_OP, || {
            ScenarioSim::new(s, seed, |_, _| Idle)
        });
        let t = Instant::now();
        let (trial, r) = h.tracer.span("sweep.trial", SETUP_OP, || {
            scenario_flood_trial_observed(s, seed)
        });
        trial_ms.push(ms_since(t));
        slots += trial.slots;
        listens += r
            .channel_records()
            .iter()
            .map(|c| u64::from(c.listens))
            .sum::<u64>();
        rec.merge(&r);
    }
    let sum: f64 = trial_ms.iter().sum();
    let sim_new = h.tracer.durations_ms("scenario.sim_new", false);
    h.layers.set("sweep.trial_ms_p50", median(&trial_ms));
    h.layers.set(
        "sweep.overhead_frac",
        1.0 - sum / (batch_ms * h.opts.workers as f64),
    );
    let rep = rec.report();
    h.layers.set_engine(&rep, slots);
    h.layers.set(
        "sinr.listeners_per_slot",
        listens as f64 / slots.max(1) as f64,
    );
    let slot_ms = rep
        .kind(SpanKind::Slot)
        .map_or(0.0, |k| k.total_ns as f64 / 1e6);
    h.layers.set(
        "scenario.env_us_per_slot",
        (sum - sim_new.iter().sum::<f64>() - slot_ms) * 1e3 / slots.max(1) as f64,
    );
    h.layers.set("scenario.sim_new_ms", median(&sim_new));
    h.folded = rep.to_folded();
}

/// Runs the workload.
pub fn run(h: &mut Harness) {
    let dir = h
        .opts
        .out_dir
        .join(format!("sweep-work-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create sweep work dir");

    let mut probe = PoolProbe::start();
    let (mut bytes, mut first) = (0u64, None);
    let mut batch = 1;
    loop {
        if h.setup_due() {
            // A set-up: the pool spawns, the batch file is written and
            // expanded, and one warm-up batch (the unit a timed sample
            // covers) runs through the service.
            h.respawn_pool();
            let t = Instant::now();
            let b = submit(h, &dir, 0);
            let (_, note) = run_batch(h, &b, SETUP_OP);
            h.setup_s.push(t.elapsed().as_secs_f64());
            check(h, &b, 0, note);
            remove(&b);
        }
        if !h.time_left() {
            break;
        }
        let b = submit(h, &dir, batch);
        let (ms, note) = probe.time(|| run_batch(h, &b, batch));
        h.sample(ms, b.set.len() as u64);
        bytes += check(h, &b, batch, note);
        if first.is_none() {
            first = Some((b.set.clone(), ms));
        }
        remove(&b);
        batch += 1;
    }
    let _ = std::fs::remove_dir_all(&dir);

    h.detail
        .int("batches", batch - 1)
        .int("trials_per_batch", 9 * SEEDS_PER_BATCH);
    if !TRACED {
        return;
    }
    probe.finish(&mut h.layers, h.ops, h.opts.workers);
    h.layers
        .set("sweep.bytes_per_trial", bytes as f64 / h.ops.max(1) as f64);
    h.layers.set(
        "scenario.expand_ms",
        median(&h.tracer.durations_ms("scenario.expand", false)),
    );
    if let Some((set, ms)) = first {
        replay(h, &set, ms);
    }
}
