//! `dense-100k`: one engine slot per op on the shard-bench/profile world.
//!
//! 100k nodes at 4 per unit², 16 channels, Fast resolve, 8×8 shards with
//! `par_channels` + `par_shards`, flood max-aggregation with q = 0.2 (about
//! 20k transmitters per slot). Resolve units are nearly all of the slot
//! time, so SINR, shard and pool changes show here.

use crate::trace::{PoolProbe, SETUP_OP, TRACED};
use crate::util::{median, ms_since};
use crate::Harness;
use mca_bench::shard_bench::shards_for;
use mca_core::aggregate::intercluster::{FloodCfg, FloodCombine};
use mca_core::{MaxAgg, Tdma};
use mca_geom::{BoundingBox, Point};
use mca_obs::Recorder;
use mca_radio::rng::derive_seed;
use mca_radio::Metrics;
use mca_scenario::{DeploymentSpec, Scenario, ScenarioSim};
use mca_sinr::{ChannelResolver, ResolveMode, SinrParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

const CHANNELS: u16 = 16;
const DENSITY: f64 = 4.0;
const Q: f64 = 0.2;
/// Slot budget of the flood: far beyond any run, so every timed slot is a
/// flood slot with q·n transmitters.
const MAX_SLOTS: u64 = 1 << 30;

type Sim = ScenarioSim<FloodCombine<MaxAgg>>;

fn scenario(n: usize) -> Scenario {
    Scenario::builder("perfbench-dense")
        .deployment(DeploymentSpec::Uniform {
            n,
            side: (n as f64 / DENSITY).sqrt(),
        })
        .sinr(SinrParams::default().with_resolve(ResolveMode::fast()))
        .channels(CHANNELS)
        .max_slots(MAX_SLOTS)
        .par_channels(true)
        .shards(shards_for(n))
        .par_shards(true)
        .build()
}

fn flood_cfg() -> FloodCfg {
    FloodCfg {
        q: Q,
        flood_rounds: MAX_SLOTS - 100,
        tail_rounds: 100,
        tdma: Tdma::new(1, 1),
        hop_channels: CHANNELS,
    }
}

/// Per-slot checks: every listen accounted exactly once, and every node's
/// value a valid id that never decreases.
struct Checker {
    before: Metrics,
    values: Vec<i64>,
}

impl Checker {
    fn new(sim: &Sim) -> Self {
        Checker {
            before: sim.metrics().clone(),
            values: sim.protocols().iter().map(|p| *p.value()).collect(),
        }
    }

    /// Checks the slot just run; returns a description of the first fault.
    fn slot(&mut self, sim: &Sim) -> Result<(), String> {
        let m = sim.metrics();
        let b = &self.before;
        let heard = (m.receptions - b.receptions)
            + (m.busy_failures - b.busy_failures)
            + (m.silent_listens - b.silent_listens);
        let listens = m.listens - b.listens;
        let mut fault = (heard != listens).then(|| {
            format!(
                "slot {}: receptions + busy + silent = {heard} != listens {listens}",
                sim.slot() - 1
            )
        });
        let max_id = self.values.len() as i64 - 1;
        for (i, (p, old)) in sim.protocols().iter().zip(&mut self.values).enumerate() {
            let v = *p.value();
            if fault.is_none() && !(v >= *old && v <= max_id) {
                fault = Some(format!(
                    "slot {}: node {i} value {v} (was {old}, max id {max_id})",
                    sim.slot() - 1
                ));
            }
            *old = v;
        }
        self.before = m.clone();
        fault.map_or(Ok(()), Err)
    }
}

/// Digest of the run's metrics and values so far.
fn digest(sim: &Sim) -> u64 {
    let m = sim.metrics();
    let mut h = DefaultHasher::new();
    (
        m.slots,
        m.transmissions,
        m.listens,
        m.receptions,
        m.busy_failures,
        m.silent_listens,
        m.env_drops,
    )
        .hash(&mut h);
    for p in sim.protocols() {
        p.value().hash(&mut h);
    }
    h.finish()
}

/// Replays one dense channel through the resolver: transmitters drawn with
/// probability q, the listeners of the central quarter of the field.
/// Returns (ns per listener, estimated work per listener).
fn sinr_replay(positions: &[Point], params: &SinrParams, seed: u64) -> (f64, f64) {
    let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 0x5111));
    let (mut tx, mut rx) = (Vec::new(), Vec::new());
    for &p in positions {
        if rng.gen_bool(Q) {
            tx.push(p);
        } else {
            rx.push(p);
        }
    }
    if let Some(bb) = BoundingBox::from_points(positions.iter().copied()) {
        let c = bb.center();
        let (hw, hh) = (bb.width() / 4.0, bb.height() / 4.0);
        rx.retain(|p| (p.x - c.x).abs() <= hw && (p.y - c.y).abs() <= hh);
    }
    let resolver = ChannelResolver::new(params, &tx);
    let mut out = Vec::with_capacity(rx.len());
    let ns: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            resolver.resolve_batch_into(&rx, 0.0, &mut out);
            t.elapsed().as_nanos() as f64 / rx.len().max(1) as f64
        })
        .collect();
    (median(&ns), resolver.estimated_work_per_listener() as f64)
}

/// Runs the workload.
pub fn run(h: &mut Harness) {
    let n = if h.opts.tiny { 4_000 } else { 100_000 };
    let seed = h.opts.seed;
    let s = scenario(n);
    let cfg = flood_cfg();
    let mut live: Option<(Sim, Checker, u64)> = None;
    let mut first_digest = None;
    // Engine recordings and listens of the timed slots, over every world.
    let mut rec = Recorder::new().with_channel_stream(false);
    let mut listens = 0u64;
    let mut probe = PoolProbe::start();
    loop {
        if h.setup_due() {
            // A set-up: the previous world is retired first (so peak
            // memory holds one world), the pool spawns, the world is
            // deployed and built, and one warm-up slot runs.
            if let Some((mut old, _, listens0)) = live.take() {
                listens += old.metrics().listens - listens0;
                if let Some(r) = old.take_obs() {
                    rec.merge(&r);
                }
            }
            h.respawn_pool();
            let t = Instant::now();
            let mut sim = h.tracer.span("scenario.sim_new", SETUP_OP, || {
                Sim::new(&s, seed, |i, _| {
                    FloodCombine::dominator(MaxAgg, cfg, 0, i as i64)
                })
            });
            let mut check = Checker::new(&sim);
            sim.step();
            h.setup_s.push(t.elapsed().as_secs_f64());
            let d = digest(&sim);
            let first = *first_digest.get_or_insert(d);
            let fault = check.slot(&sim).err().or_else(|| {
                (d != first)
                    .then(|| format!("warm-up slot digest {d:x} != first set-up's {first:x}"))
            });
            h.checked(1, u64::from(fault.is_some()), || fault.unwrap_or_default());
            // The timed slots get their own recorder, without the warm-up.
            if TRACED {
                sim.engine_mut()
                    .attach_obs(Recorder::new().with_channel_stream(false));
            }
            let listens0 = sim.metrics().listens;
            live = Some((sim, check, listens0));
        }
        if !h.time_left() {
            break;
        }
        let (sim, check, _) = live.as_mut().expect("set up before the first op");
        // The probe reads its clocks outside the op's own timing.
        let ms = probe.time(|| {
            let t = Instant::now();
            sim.step();
            ms_since(t)
        });
        h.sample(ms, 1);
        let fault = check.slot(sim).err();
        h.checked(1, u64::from(fault.is_some()), || fault.unwrap_or_default());
    }
    let (mut sim, _, listens0) = live.expect("at least one set-up");
    listens += sim.metrics().listens - listens0;
    if let Some(r) = sim.take_obs() {
        rec.merge(&r);
    }
    let slots = h.ops;
    let listeners = listens as f64 / slots.max(1) as f64;
    h.detail
        .int("n", n as u64)
        .int("channels", u64::from(CHANNELS))
        .int("shards", u64::from(s.shards))
        .num("listeners_per_slot", listeners);
    if !TRACED {
        return;
    }
    probe.finish(&mut h.layers, slots, h.opts.workers);
    let rep = rec.report();
    h.layers.set_engine(&rep, slots);
    let slot_ms = rep
        .kind(mca_obs::SpanKind::Slot)
        .map_or(0.0, |k| k.total_ns as f64 / 1e6);
    h.layers.set(
        "scenario.env_us_per_slot",
        (h.timed_s * 1e3 - slot_ms) * 1e3 / slots.max(1) as f64,
    );
    h.layers.set("sinr.listeners_per_slot", listeners);
    h.layers.set(
        "scenario.sim_new_ms",
        median(&h.tracer.durations_ms("scenario.sim_new", false)),
    );
    // The deployment is generated inside `ScenarioSim::new`; time the
    // same call on its own.
    h.tracer
        .span("geom.deploy", SETUP_OP, || s.deployment_for(seed));
    h.layers.set(
        "geom.deploy_ms",
        median(&h.tracer.durations_ms("geom.deploy", false)),
    );
    let (ns, work) = h.tracer.span("sinr.replay", SETUP_OP, || {
        sinr_replay(sim.positions(), &s.params, seed)
    });
    h.layers.set("sinr.resolve_ns_per_listener", ns);
    h.layers.set("sinr.work_per_listener", work);
    h.folded = rep.to_folded();
}
