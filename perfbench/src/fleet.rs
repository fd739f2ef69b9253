//! `fleet_outage`: many short sessions, one after another, against the
//! 32-shard fleet under the seeded outage schedule. The router, the
//! neighbour-halo failover and the fleet session layer do the work.

use crate::trace::Layers;
use crate::workload::{
    build_scene, round_tours, set_seed, Keep, Round, Row, SetTiming, FLEET_GRID, FLEET_SETS, OUTAGE,
};
use mar_bench::serve::{fnv1a64, ServeConfig};
use mar_core::{
    FleetConfig, FleetHealth, FleetServer, FramePlanner, LinearSpeedMap, SmoothedSpeed,
    SpeedResolutionMap,
};
use mar_link::ShardOutagePlan;
use mar_workload::{frame_at, Scene, Tour};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Builds the scene and the 32-shard fleet over it, timing scene and
/// fleet into `l`. Returns them with the time to ready-to-serve.
pub fn build(cfg: &ServeConfig, l: &mut Layers) -> (Scene, FleetServer, f64) {
    let t = Instant::now();
    let (scene, data, scene_s) = build_scene(cfg);
    let tf = Instant::now();
    let fleet = FleetServer::build(
        &Arc::new(data),
        scene.config.space,
        &FleetConfig::ram(FLEET_GRID.0, FLEET_GRID.1, false),
    )
    .expect("the 8x4 grid is a valid fleet");
    l.setup.fleet_s.push(tf.elapsed().as_secs_f64());
    l.setup.scene_s.push(scene_s);
    (scene, fleet, t.elapsed().as_secs_f64())
}

/// A round's sets: each set's tours with its own outage schedule (or
/// none, for the outage-free reference), both drawn from the set's seed.
pub fn sets(cfg: &ServeConfig, scene: &Scene, outages: bool) -> Vec<(Vec<Tour>, ShardOutagePlan)> {
    round_tours(cfg, scene, FLEET_SETS)
        .into_iter()
        .enumerate()
        .map(|(b, tours)| {
            let seed = set_seed(cfg.tour_seed, b);
            let plan = if outages {
                ShardOutagePlan::new(seed, OUTAGE.0, OUTAGE.1).expect("outage fits its period")
            } else {
                ShardOutagePlan::none(seed)
            };
            (tours, plan)
        })
        .collect()
}

/// The fleet's invariant evidence from one round.
#[derive(Debug, Default, PartialEq)]
pub struct Evidence {
    /// Per-session fingerprint of the resident set over the final frame
    /// at the final band, after the recovery pass.
    pub fingerprints: Vec<u64>,
    /// Whether every session holds all of that set.
    pub covered: bool,
    /// Frames issued while a shard was down, and those answered in full.
    pub outage_frames: (u64, u64),
}

/// One round: set after set, each session connects, replays its tour under the outage
/// schedule (a frame is committed only when answered in full), refetches
/// what it still owes with every shard up, and disconnects.
pub fn round(
    fleet: &FleetServer,
    scene: &Scene,
    sets: &[(Vec<Tour>, ShardOutagePlan)],
    cfg: &ServeConfig,
    mut layers: Option<&mut Layers>,
    keep: Keep,
) -> (Round, Evidence) {
    let shards = fleet.shard_count();
    let router = fleet.router();
    let mut out = Round::new(keep);
    let mut ev = Evidence {
        covered: true,
        ..Evidence::default()
    };
    let per_set = sets.first().map_or(1, |(t, _)| t.len().max(1));
    let sessions = sets
        .iter()
        .flat_map(|(tours, outage)| tours.iter().map(move |t| (t, outage)));
    for (k, (tour, outage)) in sessions.enumerate() {
        if k % per_set == 0 {
            out.sets.push(SetTiming::default());
        }
        let set = out.sets.len() - 1;
        let t = Instant::now();
        let session = fleet.connect();
        out.sets[set].busy_ns += t.elapsed().as_nanos() as u64;
        let mut planner = FramePlanner::new();
        let mut smooth = SmoothedSpeed::default();
        let mut last = None;
        for tick in 0..=tour.samples.len() {
            // The extra tick is the recovery pass over the final frame.
            let (frame, speed, health) = match tour.samples.get(tick) {
                Some(s) => (
                    frame_at(&scene.config.space, &s.pos, cfg.frame_frac),
                    smooth.update(s.speed),
                    FleetHealth::from_down_mask(outage.down_mask(tick as u64, shards)),
                ),
                None => {
                    let (frame, speed) = last.expect("tours are non-empty");
                    (frame, speed, FleetHealth::all_up())
                }
            };
            let band = LinearSpeedMap.band_for(speed);
            let t0 = Instant::now();
            let regions = planner.plan(&frame, band);
            let t_plan = t0.elapsed().as_nanos() as u64;
            let mut row = Row::new(tick, k, [0; 3], 0.0, speed);
            let mut fleet_ns = 0u64;
            for q in &regions {
                let tq = Instant::now();
                let r = fleet.query(session, health, &q.region, q.band);
                fleet_ns += tq.elapsed().as_nanos() as u64;
                let Ok(r) = r else {
                    out.outcomes.errors += 1;
                    continue;
                };
                row.coeffs += r.result.coeffs as u64;
                row.new_objects += r.result.new_objects as u64;
                row.bytes += r.result.bytes;
                row.io += r.result.io;
                row.fleet[0] += r.tasks;
                row.fleet[1] += r.replica_promotions;
                row.fleet[2] += r.degraded_subqueries;
                row.fleet[3] += r.unserved_subqueries;
                row.complete &= r.complete;
            }
            let tc = Instant::now();
            if row.complete {
                planner.commit(frame, band);
            }
            let now = Instant::now();
            let dt = (now - t0).as_nanos() as u64;
            let timing = &mut out.sets[set];
            timing.lat_ns.push(dt);
            timing.busy_ns += dt;
            timing.queries += 1;
            row.response_s = Row::response_s(row.bytes, speed);
            out.record(row);
            out.outcomes.attempted += 1;
            out.outcomes.degraded += u64::from(!row.complete);
            if health.down_count() > 0 {
                ev.outage_frames.0 += 1;
                ev.outage_frames.1 += u64::from(row.complete);
            }
            if let Some(l) = layers.as_deref_mut() {
                l.plan_ns += t_plan + (now - tc).as_nanos() as u64;
                l.plan_q += 1;
                l.windows += regions.len() as u64;
                l.fleet_ns += fleet_ns;
                l.fleet_q += 1;
                for (c, v) in l.fleet_counts.iter_mut().zip(row.fleet) {
                    *c += u64::from(v);
                }
                // The router on its own, outside the timed frame.
                for q in &regions {
                    let tr = Instant::now();
                    std::hint::black_box(router.plan(health, &q.region, q.band));
                    l.route_ns += tr.elapsed().as_nanos() as u64;
                }
            }
            last = Some((frame, speed));
        }
        // The invariant's object: the resident set over the final frame
        // at the final band (untimed harness work).
        let (frame, speed) = last.expect("tours are non-empty");
        let (want, _) = fleet.query_stateless(&frame, LinearSpeedMap.band_for(speed));
        let sent = fleet.session_sent_set(session).unwrap_or_default();
        let mut fp = String::new();
        for id in &want {
            if sent.binary_search(id).is_ok() {
                let _ = write!(fp, "{}:{};", id.object, id.coeff);
            } else {
                ev.covered = false;
            }
        }
        ev.fingerprints.push(fnv1a64(&fp));
        if let Some(l) = layers.as_deref_mut() {
            l.filter_peak = l.filter_peak.max(fleet.resident_filter_entries() as u64);
        }
        let t = Instant::now();
        if fleet.disconnect(session).is_err() {
            out.outcomes.errors += 1;
        }
        out.sets[set].busy_ns += t.elapsed().as_nanos() as u64;
    }
    if fleet.resident_filter_entries() != 0 {
        out.outcomes.errors += 1;
    }
    if let Some(l) = layers {
        l.outage_frames.0 += ev.outage_frames.0;
        l.outage_frames.1 += ev.outage_frames.1;
    }
    (out, ev)
}
