//! `serve_ram` and `serve_paged`: 32 sessions, tick-major, one
//! `Server::query_batch` group descent per tick, on one thread.

use crate::trace::Layers;
use crate::workload::{build_scene, Keep, Round, Row, SetTiming, Traffic};
use mar_bench::serve::ServeConfig;
use mar_core::{
    CachePolicy, FramePlanner, LinearSpeedMap, QueryRegion, SceneIndexData, Server, ServerCore,
    SmoothedSpeed, SpeedResolutionMap, WaveletIndex,
};
use mar_store::PAGE_SIZE;
use mar_workload::{frame_at, Scene, Tour};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Buffer-pool pages of `serve_paged`: about a quarter of the page file,
/// so eviction runs throughout a round.
pub const POOL_PAGES: usize = 256;

/// Where a rig's index lives.
#[derive(Debug)]
pub enum Backend {
    /// The in-RAM index, shared by every round.
    Ram(Arc<WaveletIndex>),
    /// The page file; every round opens it with a cold pool.
    Paged(PathBuf),
}

/// A scene plus its index, ready to serve.
#[derive(Debug)]
pub struct Rig {
    /// The generated scene.
    pub scene: Scene,
    /// Its coefficient records.
    pub data: Arc<SceneIndexData>,
    /// The index backend.
    pub backend: Backend,
}

impl Rig {
    /// Builds the rig, timing scene, index and store into `layers`.
    /// Returns it with the time to ready-to-serve.
    pub fn build(cfg: &ServeConfig, store: Option<&Path>, layers: &mut Layers) -> (Self, f64) {
        let t0 = Instant::now();
        let (scene, data, scene_s) = build_scene(cfg);
        let t = Instant::now();
        let backend = match store {
            None => Backend::Ram(Arc::new(WaveletIndex::build(&data))),
            Some(path) => {
                mar_core::write_store(path, &data).expect("write the page file");
                Backend::Paged(path.to_path_buf())
            }
        };
        let index_s = t.elapsed().as_secs_f64();
        let rig = Self {
            scene,
            data: Arc::new(data),
            backend,
        };
        let t = Instant::now();
        // A server over the first core is what ready-to-serve means.
        let core = rig.core();
        drop(Server::from_core(core));
        let store_s = t.elapsed().as_secs_f64();
        layers.setup.scene_s.push(scene_s);
        layers.setup.index_s.push(index_s);
        if store.is_some() {
            layers.setup.store_s.push(store_s);
        }
        (rig, t0.elapsed().as_secs_f64())
    }

    /// A fresh core: the shared RAM index, or the page file behind a
    /// cold pool of [`POOL_PAGES`] pages.
    pub fn core(&self) -> ServerCore {
        let index = match &self.backend {
            Backend::Ram(index) => Arc::clone(index),
            Backend::Paged(path) => Arc::new(
                WaveletIndex::open_paged(path, POOL_PAGES * PAGE_SIZE, CachePolicy::MotionAware)
                    .expect("open the page file"),
            ),
        };
        ServerCore::from_parts(Arc::clone(&self.data), index)
    }
}

/// One closed-loop round. Set by set, 32 sessions connect; every tick,
/// each plans its frame, then the tick's sub-queries run as one
/// `query_batch` group descent. A query's latency is its tick batch's.
/// With `layers`, planning and serving are timed apart and the session
/// filter's size is sampled per tick. Kept rows come back session-major.
pub fn round(
    core: ServerCore,
    scene: &Scene,
    sets: &[Vec<Tour>],
    cfg: &ServeConfig,
    mut layers: Option<&mut Layers>,
    keep: Keep,
) -> Round {
    let server = Server::from_core(core);
    let capture = keep == Keep::Traffic;
    let mut out = Round::new(keep);
    out.traffic = capture.then(|| Traffic {
        sessions: sets.iter().map(Vec::len).sum(),
        groups: Vec::with_capacity(sets.len() * cfg.ticks),
    });
    let cache0 = server.index().cache_stats().unwrap_or_default();
    let mut base = 0;
    for tours in sets {
        let mut timing = SetTiming {
            queries: (tours.len() * cfg.ticks) as u64,
            ..SetTiming::default()
        };
        let ids: Vec<u64> = tours.iter().map(|_| server.connect()).collect();
        let mut planners: Vec<FramePlanner> = tours.iter().map(|_| FramePlanner::new()).collect();
        let mut smooth = vec![SmoothedSpeed::default(); tours.len()];
        let mut plans: Vec<(Vec<QueryRegion>, f64)> = vec![(Vec::new(), 0.0); tours.len()];
        for tick in 0..cfg.ticks {
            let t0 = Instant::now();
            for (k, tour) in tours.iter().enumerate() {
                let s = tour.samples[tick];
                let frame = frame_at(&scene.config.space, &s.pos, cfg.frame_frac);
                let speed = smooth[k].update(s.speed);
                let band = LinearSpeedMap.band_for(speed);
                let tp = layers.is_some().then(Instant::now);
                plans[k] = (planners[k].plan(&frame, band), speed);
                planners[k].commit(frame, band);
                if let (Some(l), Some(tp)) = (layers.as_deref_mut(), tp) {
                    l.plan_ns += tp.elapsed().as_nanos() as u64;
                }
            }
            let batch: Vec<(u64, &[QueryRegion])> = ids
                .iter()
                .zip(&plans)
                .map(|(&id, (regions, _))| (id, regions.as_slice()))
                .collect();
            let tq = layers.is_some().then(Instant::now);
            let (results, _) = server.query_batch(&batch);
            let now = Instant::now();
            if let (Some(l), Some(tq)) = (layers.as_deref_mut(), tq) {
                l.server_ns += (now - tq).as_nanos() as u64;
            }
            let dt = (now - t0).as_nanos() as u64;
            timing.lat_ns.push(dt);
            timing.busy_ns += dt;

            let mut group = Vec::new();
            for (k, result) in results.iter().enumerate() {
                out.outcomes.attempted += 1;
                let Ok(r) = result else {
                    out.outcomes.errors += 1;
                    continue;
                };
                let row = Row::new(
                    tick,
                    base + k,
                    [r.coeffs as u64, r.new_objects as u64, r.io],
                    r.bytes,
                    plans[k].1,
                );
                out.record(row);
                if capture {
                    group.push((base + k, plans[k].0.clone(), row));
                }
            }
            if let Some(t) = out.traffic.as_mut() {
                t.groups.push(group);
            }
            if let Some(l) = layers.as_deref_mut() {
                l.plan_q += tours.len() as u64;
                l.windows += plans.iter().map(|p| p.0.len() as u64).sum::<u64>();
                l.server_q += tours.len() as u64;
                l.delivered += results
                    .iter()
                    .flatten()
                    .map(|r| r.coeffs as u64)
                    .sum::<u64>();
                l.filter_peak = l.filter_peak.max(server.resident_filter_entries() as u64);
            }
        }
        for id in ids {
            if server.disconnect(id).is_err() {
                out.outcomes.errors += 1;
            }
        }
        base += tours.len();
        out.sets.push(timing);
    }
    out.rows.sort_by_key(|r| (r.session, r.tick));
    if let (Some(l), Some(c)) = (layers, server.index().cache_stats()) {
        l.cache.lookups += c.lookups - cache0.lookups;
        l.cache.hits += c.hits - cache0.hits;
        l.cache.faults += c.faults - cache0.faults;
        l.cache.evictions += c.evictions - cache0.evictions;
        l.cache.bypasses += c.bypasses - cache0.bypasses;
        l.store_q += out.outcomes.attempted;
    }
    if server.resident_filter_entries() != 0 {
        out.outcomes.errors += 1;
    }
    out
}
