//! `maintain-churn`: structure upkeep, one repair epoch per op.
//!
//! The `mobile-churn` catalog world (0.003–0.01 units/slot motion, 15% late
//! joins, 10% crashes) scaled to n = 300 at the catalog's density. A
//! `StructureMaintainer` subscribes to the engine's lifecycle events and
//! repairs every 50 slots; the structure is audited after each epoch. An
//! op is one epoch: 50 world slots, event drain, and the repair.
//!
//! A closed loop from one client tending [`WORLDS`] such networks: each
//! timed sample is one round, an epoch of every world run as pool tasks,
//! so an op sample is the round's wall time divided by its epochs. A repair is
//! sequential, and on a shared host each core's speed can change by a
//! third within seconds; spreading the epochs over the pool lets work
//! stealing average the cores where one sequential stream follows the
//! core it happens to run on.

use crate::trace::{PoolProbe, SETUP_OP, TRACED};
use crate::util::{median, ms_since};
use crate::Harness;
use mca_core::{
    build_structure_observed, AlgoConfig, MaintainConfig, NetworkEnv, RepairKind, StructureConfig,
    StructureMaintainer,
};
use mca_obs::{Recorder, SpanKind};
use mca_radio::rng::derive_seed;
use mca_radio::{Action, Observation, Protocol};
use mca_scenario::{builtin_scenarios, ChurnSpec, DeploymentSpec, Scenario, ScenarioSim};
use rand::rngs::SmallRng;
use rayon::prelude::*;
use std::time::Instant;

/// Catalog world this workload scales.
const WORLD: &str = "mobile-churn";
/// Epochs of one world's life; the churn windows stretch with it. When a
/// run outlives its worlds, the next ones (next seeds) are set up untimed.
const WORLD_EPOCHS: u64 = 8;
/// Worlds tended side by side: four pool tasks per core on a 2-core host,
/// so the faster core can steal from the slower.
const WORLDS: u64 = 8;

/// The world clock's payload: the traffic happens inside the repair
/// phases.
pub struct Idle;

impl Protocol for Idle {
    type Msg = ();
    fn act(&mut self, _slot: u64, _rng: &mut SmallRng) -> Action<()> {
        Action::Idle
    }
    fn observe(&mut self, _slot: u64, _obs: Observation<()>, _rng: &mut SmallRng) {}
}

fn scenario(n: usize) -> Scenario {
    let mut s = builtin_scenarios()
        .into_iter()
        .find(|e| e.scenario.name == WORLD)
        .unwrap_or_else(|| panic!("catalog world `{WORLD}` missing"))
        .scenario;
    let every = s.maintenance.expect("mobile-churn is maintained").every;
    let (
        DeploymentSpec::Uniform { n: n0, side },
        ChurnSpec::Random {
            join_window,
            crash_window,
            ..
        },
    ) = (&s.deployment, &mut s.churn)
    else {
        panic!("`{WORLD}` is a uniform world with random churn");
    };
    // Same density at n nodes; churn windows stretched to the world's life.
    let side = side * (n as f64 / *n0 as f64).sqrt();
    let horizon = WORLD_EPOCHS * every;
    let stretch = |slot: u64| slot * horizon / s.max_slots;
    *join_window = (stretch(join_window.0).max(1), stretch(join_window.1));
    *crash_window = (stretch(crash_window.0), stretch(crash_window.1));
    s.deployment = DeploymentSpec::Uniform { n, side };
    s.max_slots = horizon;
    s.name = format!("{WORLD}-n{n}");
    s
}

/// One live world: the scenario sim and its maintainer.
struct World {
    sim: ScenarioSim<Idle>,
    maintainer: StructureMaintainer,
    seed: u64,
    epoch: u64,
}

/// When a layer call inside a pool task started and ended.
type Timed = (Instant, Instant);

/// What setting up one world produced besides the world.
struct Built {
    world: World,
    sim_new: Timed,
    build: Timed,
    /// `build_structure_observed`'s stage spans (traced build).
    stages: Option<Recorder>,
}

/// Sets up a world: the scenario sim and a maintainer over the structure
/// `build_structure_observed` builds on its live nodes (what
/// `StructureMaintainer::build` does, with the build's stage spans kept).
fn world(s: &Scenario, seed: u64) -> Built {
    let n = s.len();
    let algo = AlgoConfig::practical(s.channels, &s.params, n);
    let cfg = StructureConfig::new(algo, derive_seed(seed, 0xB01D));
    let m = s.maintenance.expect("maintained world");
    let mcfg = MaintainConfig {
        handover_hysteresis: m.handover_hysteresis,
        rebuild_threshold: m.rebuild_threshold,
        ..MaintainConfig::default()
    };
    let t0 = Instant::now();
    let mut sim = ScenarioSim::new(s, seed, |_, _| Idle);
    let t1 = Instant::now();
    let faults = s.faults_for(seed);
    let alive: Vec<bool> = (0..n as u32).map(|i| !faults.is_absent(i, 0)).collect();
    let env = NetworkEnv {
        params: s.params,
        positions: sim.positions().to_vec(),
    };
    let mut stages = TRACED.then(Recorder::new);
    let t2 = Instant::now();
    let structure = build_structure_observed(&env, &cfg, Some(&alive), stages.as_mut());
    let t3 = Instant::now();
    let maintainer = StructureMaintainer::adopt(structure, cfg, mcfg, alive);
    sim.engine_mut().watch_events(maintainer.move_threshold());
    Built {
        world: World {
            sim,
            maintainer,
            seed,
            epoch: 0,
        },
        sim_new: (t0, t1),
        build: (t2, t3),
        stages,
    }
}

/// Attaches fresh recorders to the world's engine and maintainer (traced
/// build), returning the old ones.
fn attach(w: &mut World) -> (Option<Recorder>, Option<Recorder>) {
    let old = (w.sim.take_obs(), w.maintainer.take_obs());
    if TRACED {
        w.sim
            .engine_mut()
            .attach_obs(Recorder::new().with_channel_stream(false));
        w.maintainer.attach_obs(Recorder::new());
    }
    old
}

/// What one epoch produced.
struct Epoch {
    kind: RepairKind,
    slots: u64,
    run: Timed,
    repair: Timed,
}

/// One epoch of one world: `every` world slots, the event drain, the
/// repair.
fn epoch(w: &mut World, every: u64) -> Epoch {
    let t0 = Instant::now();
    w.sim.run(every);
    let t1 = Instant::now();
    for event in w.sim.engine_mut().drain_events() {
        w.maintainer.observe(&event);
    }
    let env = NetworkEnv {
        params: *w.sim.engine().params(),
        positions: w.sim.positions().to_vec(),
    };
    let seed = derive_seed(w.seed, 0xE70C ^ w.epoch);
    let t2 = Instant::now();
    let report = w.maintainer.repair(&env, seed);
    let t3 = Instant::now();
    w.epoch += 1;
    Epoch {
        kind: report.kind,
        slots: report.total_slots(),
        run: (t0, t1),
        repair: (t2, t3),
    }
}

fn audit(h: &mut Harness, w: &World, op: u64) {
    let env = NetworkEnv {
        params: *w.sim.engine().params(),
        positions: w.sim.positions().to_vec(),
    };
    let verdict = w.maintainer.audit(&env).check(&w.maintainer.tolerances());
    h.checked(1, u64::from(verdict.is_err()), || {
        format!(
            "op {op} (world seed {}, epoch {}): {}",
            w.seed,
            w.epoch,
            verdict.unwrap_err()
        )
    });
}

/// The program's recordings (traced build).
#[derive(Default)]
struct Recs {
    /// Engine phase spans of the timed epochs.
    engine: Recorder,
    /// Repair spans and events of the timed epochs.
    repair: Recorder,
    /// `build_structure_observed` stage spans of every world built.
    build: Recorder,
}

impl Recs {
    /// Keeps a world's recordings of its timed epochs.
    fn absorb(&mut self, (engine, repair): (Option<Recorder>, Option<Recorder>)) {
        if let Some(r) = engine {
            self.engine.merge(&r);
        }
        if let Some(r) = repair {
            self.repair.merge(&r);
        }
    }
}

/// Sets up the next [`WORLDS`] worlds as pool tasks (seeds derived from
/// `first..`), recording their set-up spans under `op`.
fn worlds(h: &mut Harness, recs: &mut Recs, s: &Scenario, first: u64, op: u64) -> Vec<World> {
    let seeds: Vec<u64> = (first..first + WORLDS)
        .map(|i| derive_seed(h.opts.seed, i))
        .collect();
    let built: Vec<Built> = seeds.into_par_iter().map(|seed| world(s, seed)).collect();
    built
        .into_iter()
        .map(|b| {
            h.tracer
                .record("scenario.sim_new", op, b.sim_new.0, b.sim_new.1);
            h.tracer.record("core.build", op, b.build.0, b.build.1);
            if let Some(r) = &b.stages {
                recs.build.merge(r);
            }
            b.world
        })
        .collect()
}

/// One round: an epoch of every world, as pool tasks; spans go under
/// `op`.
fn round(h: &mut Harness, live: Vec<World>, every: u64, op: u64) -> (Vec<World>, Vec<Epoch>) {
    let done: Vec<(World, Epoch)> = live
        .into_par_iter()
        .map(|mut w| {
            let e = epoch(&mut w, every);
            (w, e)
        })
        .collect();
    for (_, e) in &done {
        h.tracer.record("scenario.run", op, e.run.0, e.run.1);
        h.tracer.record("core.repair", op, e.repair.0, e.repair.1);
    }
    done.into_iter().unzip()
}

/// Runs the workload.
pub fn run(h: &mut Harness) {
    let n = if h.opts.tiny { 60 } else { 300 };
    let s = scenario(n);
    let every = s.maintenance.expect("maintained world").every;
    let mut recs = Recs::default();
    let mut live: Vec<World> = Vec::new();
    let mut probe = PoolProbe::start();
    let (mut generations, mut repair_slots, mut incremental) = (0u64, 0u64, 0u64);
    let mut op = 1;
    loop {
        if h.setup_due() {
            // A set-up: the pool spawns, fresh worlds are built, and one
            // warm-up epoch of each runs.
            for w in &mut live {
                recs.absorb(attach(w));
            }
            h.respawn_pool();
            let t = Instant::now();
            let fresh = worlds(h, &mut recs, &s, generations * WORLDS, SETUP_OP);
            let (fresh, _) = round(h, fresh, every, SETUP_OP);
            h.setup_s.push(t.elapsed().as_secs_f64());
            generations += 1;
            live = fresh;
            for w in &mut live {
                audit(h, w, 0);
                // Timed epochs get fresh recorders, without the warm-up's.
                attach(w);
            }
        }
        if !h.time_left() {
            break;
        }
        if live[0].epoch >= WORLD_EPOCHS {
            // The worlds' lives are over: keep their recordings, set up
            // the next ones.
            for w in &mut live {
                recs.absorb(attach(w));
            }
            live = worlds(h, &mut recs, &s, generations * WORLDS, op);
            generations += 1;
            for w in &mut live {
                attach(w);
            }
        }
        // The probe reads its clocks outside the sample's own timing.
        h.tracer.enter("churn.round", op);
        let (ms, (next, epochs)) = probe.time(|| {
            let t = Instant::now();
            let r = round(h, std::mem::take(&mut live), every, op);
            (ms_since(t), r)
        });
        h.tracer.exit();
        h.sample(ms, WORLDS);
        live = next;
        for e in &epochs {
            repair_slots += e.slots;
            incremental += u64::from(e.kind != RepairKind::Rebuilt);
        }
        for w in &live {
            audit(h, w, op);
        }
        op += 1;
    }
    for w in &mut live {
        recs.absorb(attach(w));
    }
    let ops = h.ops;
    let world_slots = ops * every;
    h.detail
        .int("n", n as u64)
        .int("worlds_per_round", WORLDS)
        .int("worlds", generations * WORLDS)
        .int("epochs_per_world", WORLD_EPOCHS)
        .num(
            "repair_slots_per_epoch",
            repair_slots as f64 / ops.max(1) as f64,
        );
    if !TRACED {
        return;
    }
    probe.finish(&mut h.layers, ops, h.opts.workers);
    let tr = &h.tracer;
    let l = &mut h.layers;
    let per_op = |ms: f64| ms / ops.max(1) as f64;
    l.set("core.repair_ms", per_op(tr.total_ms("core.repair")));
    l.set("core.repair_slots", repair_slots as f64 / ops.max(1) as f64);
    l.set(
        "core.repair_incremental_frac",
        incremental as f64 / ops.max(1) as f64,
    );
    let builds = tr.durations_ms("core.build", false);
    l.set("core.build_ms", median(&builds));
    let stages = recs.build.report();
    let per_build = |k: SpanKind| {
        stages.kind(k).map_or(0.0, |st| {
            st.total_ns as f64 / 1e6 / builds.len().max(1) as f64
        })
    };
    l.set("core.build.dominate_ms", per_build(SpanKind::BuildDominate));
    l.set("core.build.cluster_ms", per_build(SpanKind::BuildCluster));
    l.set("core.build.csa_ms", per_build(SpanKind::BuildCsa));
    l.set("core.build.election_ms", per_build(SpanKind::BuildElection));
    l.set(
        "scenario.sim_new_ms",
        median(&tr.durations_ms("scenario.sim_new", false)),
    );
    let engine = recs.engine.report();
    l.set_engine(&engine, world_slots);
    let slot_ms = engine
        .kind(SpanKind::Slot)
        .map_or(0.0, |k| k.total_ns as f64 / 1e6);
    l.set(
        "scenario.env_us_per_slot",
        (tr.total_ms("scenario.run") - slot_ms) * 1e3 / world_slots.max(1) as f64,
    );
    let repair = recs.repair.report();
    h.folded = format!(
        "{}{}{}",
        engine.to_folded(),
        repair.to_folded(),
        stages.to_folded()
    );
}
