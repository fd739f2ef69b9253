//! The seeded inputs every workload is generated from, the per-query
//! accounting rows its correctness checks compare, and the run totals.

use crate::stats::{percentile, Outcomes};
use mar_bench::serve::TRANSCRIPT_HEADER;
use mar_bench::serve::{fnv1a64, serve_scene, session_tour, transcript_row, ServeConfig};
use mar_core::{QueryRegion, SceneIndexData};
use mar_link::LinkConfig;
use mar_workload::{Scene, Tour};
use std::time::Instant;

/// The tour seed of the pinned serve configuration.
pub const PINNED_SEED: u64 = 901;

/// Transcript fingerprint of the pinned serve configuration (`BENCH_serve.json`).
pub const PINNED_FINGERPRINT: u64 = 0x9ddc_f55d_83bf_ce42;

/// Fleet shard grid (8 × 4 = 32 shards, no replicas).
pub const FLEET_GRID: (u32, u32) = (8, 4);

/// Outage schedule: one victim shard every 8 ticks, down for 3.
pub const OUTAGE: (u64, u64) = (8, 3);

/// Tour sets per round. One set of the pinned configuration is 32 tours;
/// a round replays this many sets, each drawn from its own seed, so that
/// a run's figures average over enough tours not to depend on the seed.
pub const SETS: usize = 16;

/// Short fleet sessions: ticks per session.
pub const FLEET_TICKS: usize = 48;
/// Fleet sessions per set, run one after another.
pub const FLEET_SESSIONS: usize = 16;
/// Fleet sets per round, each with its own tours and outage schedule.
pub const FLEET_SETS: usize = 128;

/// The seed of tour set `set` of a run seeded `seed`.
pub fn set_seed(seed: u64, set: usize) -> u64 {
    mar_link::splitmix64(seed ^ (set as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 16
}

/// The pinned serve configuration with its tours drawn from `seed`:
/// 32 sessions × 300 ticks over the 60-object scene, one thread.
pub fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        tour_seed: seed,
        ..ServeConfig::full(1)
    }
}

/// The fleet workload's tours: many short sessions over the same scene.
pub fn fleet_config(seed: u64) -> ServeConfig {
    ServeConfig {
        sessions: FLEET_SESSIONS,
        ticks: FLEET_TICKS,
        ..serve_config(seed)
    }
}

/// Every session's tour under `cfg`.
pub fn tours(cfg: &ServeConfig, scene: &Scene) -> Vec<Tour> {
    (0..cfg.sessions)
        .map(|k| session_tour(cfg, scene.config.space, k))
        .collect()
}

/// The tour sets of a round: `sets` configurations drawn from `seed`.
pub fn round_tours(cfg: &ServeConfig, scene: &Scene, sets: usize) -> Vec<Vec<Tour>> {
    (0..sets)
        .map(|b| {
            let c = ServeConfig {
                tour_seed: set_seed(cfg.tour_seed, b),
                ..*cfg
            };
            tours(&c, scene)
        })
        .collect()
}

/// Scene generation plus the scene-wide coefficient records, timed.
pub fn build_scene(cfg: &ServeConfig) -> (Scene, SceneIndexData, f64) {
    let t = Instant::now();
    let scene = serve_scene(cfg);
    let data = SceneIndexData::build(&scene);
    (scene, data, t.elapsed().as_secs_f64())
}

/// One answered query's exact accounting: the serve transcript row plus
/// the fleet's routing counters (zero off the fleet).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Row {
    /// Tick within the session's tour (one past the last for the fleet's
    /// recovery pass).
    pub tick: u32,
    /// Session index within the round, across its sets.
    pub session: u32,
    /// Coefficients delivered.
    pub coeffs: u64,
    /// Objects whose base mesh was delivered.
    pub new_objects: u64,
    /// Payload bytes.
    pub bytes: f64,
    /// Logical index node accesses.
    pub io: u64,
    /// Eq. 1 response time over the paper's link.
    pub response_s: f64,
    /// Fleet shard tasks, promotions, degraded and unserved sub-rects.
    pub fleet: [u32; 4],
    /// Whether the answer had full fidelity.
    pub complete: bool,
}

impl Row {
    /// A served row; the response time follows Eq. 1 at the smoothed speed.
    pub fn new(tick: usize, session: usize, r: [u64; 3], bytes: f64, speed: f64) -> Self {
        Self {
            tick: tick as u32,
            session: session as u32,
            coeffs: r[0],
            new_objects: r[1],
            bytes,
            io: r[2],
            response_s: Self::response_s(bytes, speed),
            fleet: [0; 4],
            complete: true,
        }
    }

    /// Eq. 1: a request moving `bytes` over the paper's link at `speed`
    /// (a request that found nothing new costs nothing).
    pub fn response_s(bytes: f64, speed: f64) -> f64 {
        if bytes > 0.0 {
            LinkConfig::paper().request_time(bytes, speed)
        } else {
            0.0
        }
    }
}

impl Row {
    /// Folds every bit of the row into an FNV-1a digest.
    fn fold(&self, h: u64) -> u64 {
        let f = |a: u32, b: u32| u64::from(a) << 32 | u64::from(b);
        [
            f(self.tick, self.session),
            self.coeffs,
            self.new_objects,
            self.bytes.to_bits(),
            self.io,
            self.response_s.to_bits(),
            f(self.fleet[0], self.fleet[1]),
            f(self.fleet[2], self.fleet[3]),
            u64::from(self.complete),
        ]
        .iter()
        .fold(h, |h, w| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3))
    }
}

/// Fingerprint of the serve transcript the rows spell, in tick-major
/// order — the same bytes `mar-bench serve` hashes.
pub fn serve_fingerprint(rows: &[Row]) -> u64 {
    let mut sorted = rows.to_vec();
    sorted.sort_by_key(|r| (r.tick, r.session));
    let mut t = String::from(TRANSCRIPT_HEADER);
    for r in &sorted {
        t.push_str(&transcript_row(
            r.tick as usize,
            r.session as usize,
            r.coeffs,
            r.new_objects,
            r.bytes,
            r.io,
            r.response_s,
        ));
    }
    fnv1a64(&t)
}

/// The queries one round issued, grouped as the serving call ran them (a
/// tick batch, or one query), kept so that the traced run can replay them
/// through the layers beneath that call.
#[derive(Debug, Default, Clone)]
pub struct Traffic {
    /// Sessions in the round.
    pub sessions: usize,
    /// `(session, sub-queries, row)` per call of the native path.
    pub groups: Vec<Vec<(usize, Vec<QueryRegion>, Row)>>,
}

/// What a round keeps besides its digest and timings.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    /// Nothing more: a measured round.
    #[default]
    Digest,
    /// Its rows, for the correctness checks.
    Rows,
    /// Its queries, for the traced run's layer passes.
    Traffic,
}

/// What one round produced.
#[derive(Debug, Default)]
pub struct Round {
    /// Per-query accounting, session-major, with [`Keep::Rows`]; other
    /// rounds keep only the tally, so their rows do not add to the peak
    /// RSS.
    pub rows: Vec<Row>,
    /// Digest and sums of every row.
    pub tally: Tally,
    /// What the round keeps.
    pub keep: Keep,
    /// Each set's serving time and latencies.
    pub sets: Vec<SetTiming>,
    /// Queries attempted and how they ended.
    pub outcomes: Outcomes,
    /// The round's queries, with [`Keep::Traffic`].
    pub traffic: Option<Traffic>,
}

impl Round {
    /// An empty round.
    pub fn new(keep: Keep) -> Self {
        Self {
            tally: Tally {
                digest: 0xcbf2_9ce4_8422_2325,
                ..Tally::default()
            },
            keep,
            ..Self::default()
        }
    }

    /// Records one answered query.
    pub fn record(&mut self, row: Row) {
        let t = &mut self.tally;
        t.digest = row.fold(t.digest);
        t.queries += 1;
        t.bytes += row.bytes;
        t.response_s += row.response_s;
        if self.keep == Keep::Rows {
            self.rows.push(row);
        }
    }
}

/// Every row of a round in the order it produced them: a digest of their
/// bits, and the sums the exact end-to-end metrics divide. Every measured
/// round must reproduce the checking round's tally.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Tally {
    /// FNV-1a over every bit of every row.
    pub digest: u64,
    /// Queries answered.
    pub queries: u64,
    /// Payload bytes.
    pub bytes: f64,
    /// Eq. 1 response time.
    pub response_s: f64,
}

/// One set's replay within a round: its serving time and latency samples.
#[derive(Debug, Default, Clone)]
pub struct SetTiming {
    /// Nanoseconds spent serving the set (harness bookkeeping excluded).
    pub busy_ns: u64,
    /// Latency samples, ns (one per query, or one per tick batch).
    pub lat_ns: Vec<u64>,
    /// Queries the set issued.
    pub queries: u64,
}

/// What the measured rounds of one workload add up to.
///
/// Every round replays the same sets, and on a shared host a replay is
/// only ever slowed down: the host alternates between a fast and a slow
/// phase, each lasting seconds. So for each set the fastest of its
/// replays is kept, and throughput and latency come from those.
#[derive(Debug, Default)]
pub struct Totals {
    /// The fastest replay of each set so far.
    pub best: Vec<SetTiming>,
    /// Queries per second of each round.
    pub round_qps: Vec<f64>,
    /// Each round's median and 99th-percentile latency over all its
    /// samples, ns.
    pub round_pcts: Vec<(u64, u64)>,
}

impl Totals {
    /// Folds one round in.
    pub fn add_round(&mut self, sets: &[SetTiming], out: &Outcomes) {
        let busy: u64 = sets.iter().map(|s| s.busy_ns).sum();
        self.round_qps
            .push(out.attempted as f64 / (busy.max(1) as f64 * 1e-9));
        let mut lat: Vec<u64> = sets.iter().flat_map(|s| s.lat_ns.iter().copied()).collect();
        lat.sort_unstable();
        if !lat.is_empty() {
            self.round_pcts
                .push((percentile(&lat, 50.0), percentile(&lat, 99.0)));
        }
        if self.best.len() != sets.len() {
            self.best = sets.to_vec();
        }
        for (best, s) in self.best.iter_mut().zip(sets) {
            if s.busy_ns < best.busy_ns {
                *best = s.clone();
            }
        }
    }

    /// Queries per second over the kept replays.
    pub fn qps(&self) -> f64 {
        let q: u64 = self.best.iter().map(|s| s.queries).sum();
        let ns: u64 = self.best.iter().map(|s| s.busy_ns).sum();
        q as f64 / (ns.max(1) as f64 * 1e-9)
    }

    /// The kept replays' latency samples, ascending.
    pub fn latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .best
            .iter()
            .flat_map(|s| s.lat_ns.iter().copied())
            .collect();
        v.sort_unstable();
        v
    }
}
