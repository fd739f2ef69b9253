//! `wire_ram`: a `mar-served` daemon in a child process over loopback,
//! driven from one thread over `nproc` connections (one session each)
//! with synchronous round trips.

use crate::child::Helper;
use crate::stats::rss_peak_mb;
use crate::trace::Layers;
use crate::workload::{
    build_scene, serve_config, Keep, Round, Row, SetTiming, Traffic, PINNED_SEED,
};
use mar_bench::serve::ServeConfig;
use mar_core::{
    FramePlanner, LinearSpeedMap, Server, ServerCore, SmoothedSpeed, SpeedResolutionMap,
    WaveletIndex,
};
use mar_served::{spawn_daemon, DaemonConfig, DaemonStats, QueryReply, WireClient};
use mar_workload::{frame_at, Scene, Tour};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A CPU set laid out as glibc's `cpu_set_t`: 1024 bits.
type CpuMask = [u64; 16];

/// The CPUs this process could run on when it started.
fn cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: `mask` is a writable buffer of the size passed.
        let got =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
        let cpus: Vec<usize> = (0..1024)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        if got == 0 && !cpus.is_empty() {
            cpus
        } else {
            (0..std::thread::available_parallelism().map_or(1, |n| n.get())).collect()
        }
    })
}

/// Concurrent connections: one per available core.
pub fn connections() -> usize {
    cpus().len()
}

/// The CPUs of the load thread and of the daemon: the first two the
/// process may use, so each side has a core of its own, as a client and a
/// server on two hosts would. Left to the scheduler, runs fell into two
/// modes 1.4x apart, by whether the kernel happened to put the daemon's
/// connection threads next to the load thread.
pub fn placement() -> (usize, usize) {
    let c = cpus();
    (c[0], c[1 % c.len()])
}

/// Pins the calling thread, and the threads it starts later, to `cpu`.
/// Returns whether the kernel agreed.
pub fn pin(cpu: usize) -> bool {
    let mut mask: CpuMask = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

/// The daemon side: pins itself to `cpu`, builds the serve scene and its
/// in-RAM index, serves `max_conns` connections, then prints its counters
/// and peak RSS. Exits early if the parent closes stdin.
pub fn daemon_child(max_conns: usize, cpu: usize) -> Result<(), String> {
    let pinned = pin(cpu);
    std::thread::spawn(|| {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        std::process::exit(3);
    });
    let (_, data, scene_s) = build_scene(&serve_config(PINNED_SEED));
    let t = Instant::now();
    let index = WaveletIndex::build(&data);
    let index_s = t.elapsed().as_secs_f64();
    let server = Arc::new(Server::from_core(ServerCore::from_parts(
        Arc::new(data),
        Arc::new(index),
    )));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let cfg = DaemonConfig {
        max_conns: Some(max_conns),
        ..DaemonConfig::default()
    };
    let handle = spawn_daemon(server, listener, cfg).map_err(|e| e.to_string())?;
    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "ready {} {scene_s:?} {index_s:?} {}",
        handle.addr.port(),
        u8::from(pinned)
    )
    .map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    let s = handle.join();
    writeln!(
        out,
        "done {} {} {} {} {} {:?}",
        s.connections,
        s.frames_in,
        s.frames_out,
        s.overloads,
        s.errors,
        rss_peak_mb()
    )
    .map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())
}

/// A running daemon child.
pub struct Daemon {
    child: Helper,
    /// Where it listens.
    pub addr: SocketAddr,
    /// Whether it runs pinned to the daemon's CPU of [`placement`].
    pub pinned: bool,
}

/// What a daemon reported when it finished.
#[derive(Debug, Default, Clone, Copy)]
pub struct DaemonReport {
    /// Its frame counters.
    pub stats: DaemonStats,
    /// Its peak RSS, MiB.
    pub rss_mb: f64,
}

impl Daemon {
    /// Starts a daemon that serves `max_conns` connections. Returns it with
    /// the seconds from spawn to accepting, and records its set-up layers.
    pub fn spawn(max_conns: usize, l: &mut Layers) -> Result<(Self, f64), String> {
        let t = Instant::now();
        let cpu = placement().1;
        let mut child = Helper::spawn(
            &["--daemon-child", &max_conns.to_string(), &cpu.to_string()].map(String::from),
        )?;
        let line = child.line()?;
        let f: Vec<&str> = line.split_whitespace().collect();
        let (Some(&"ready"), Some(port), Some(scene_s), Some(index_s), Some(pinned)) =
            (f.first(), f.get(1), f.get(2), f.get(3), f.get(4))
        else {
            return Err(format!("daemon did not start: {line:?}"));
        };
        let setup_s = t.elapsed().as_secs_f64();
        let port = port.parse().map_err(|_| "bad port".to_string())?;
        l.setup.scene_s.push(scene_s.parse().unwrap_or(0.0));
        l.setup.index_s.push(index_s.parse().unwrap_or(0.0));
        l.setup.daemon_s.push(setup_s);
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let pinned = *pinned == "1";
        Ok((
            Self {
                child,
                addr,
                pinned,
            },
            setup_s,
        ))
    }

    /// Waits for the daemon to finish serving and returns its report.
    pub fn finish(mut self) -> Result<DaemonReport, String> {
        let line = self.child.line()?;
        let n: Vec<f64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        if !line.starts_with("done") || n.len() != 6 {
            return Err(format!("daemon did not finish: {line:?}"));
        }
        self.child.wait(false)?;
        Ok(DaemonReport {
            stats: DaemonStats {
                connections: n[0] as u64,
                frames_in: n[1] as u64,
                frames_out: n[2] as u64,
                overloads: n[3] as u64,
                errors: n[4] as u64,
            },
            rss_mb: n[5],
        })
    }
}

/// One closed-loop round of the serve sessions over the wire, set after
/// set, `connections()` sessions at a time: every tick, each session's
/// frame is planned by Algorithm 1 and sent, then every reply is drained
/// in session order and its frame committed. Kept rows come back
/// session-major, comparable with the in-process round's.
pub fn round(
    addr: SocketAddr,
    scene: &Scene,
    sets: &[Vec<Tour>],
    cfg: &ServeConfig,
    layers: Option<&mut Layers>,
    keep: Keep,
) -> Result<Round, String> {
    let tours: Vec<(usize, &Tour)> = sets
        .iter()
        .enumerate()
        .flat_map(|(b, t)| t.iter().map(move |t| (b, t)))
        .collect();
    let traced = layers.is_some();
    let capture = keep == Keep::Traffic;
    let mut out = Round::new(keep);
    out.sets = vec![SetTiming::default(); sets.len()];
    let mut groups = Vec::new();
    let (mut plan_ns, mut windows, mut rtt_ns) = (0u64, 0u64, 0u64);
    let (mut served, mut overloads, mut wire_bytes) = (0u64, 0u64, 0u64);
    let mut first = 0;
    while first < tours.len() {
        let t0 = Instant::now();
        let ks = first..tours.len().min(first + connections());
        let mut clients = Vec::with_capacity(ks.len());
        for _ in ks.clone() {
            clients.push(WireClient::connect(addr).map_err(|e| format!("connect: {e}"))?);
        }
        let mut planners: Vec<FramePlanner> = ks.clone().map(|_| FramePlanner::new()).collect();
        let mut smooth = vec![SmoothedSpeed::default(); ks.len()];
        let mut pending = Vec::with_capacity(ks.len());
        for tick in 0..cfg.ticks {
            for (i, k) in ks.clone().enumerate() {
                let s = tours[k].1.samples[tick];
                let frame = frame_at(&scene.config.space, &s.pos, cfg.frame_frac);
                let speed = smooth[i].update(s.speed);
                let band = LinearSpeedMap.band_for(speed);
                let tp = traced.then(Instant::now);
                let regions = planners[i].plan(&frame, band);
                if let Some(tp) = tp {
                    plan_ns += tp.elapsed().as_nanos() as u64;
                }
                windows += regions.len() as u64;
                let sent = Instant::now();
                clients[i]
                    .send_query(&regions)
                    .map_err(|e| format!("send: {e}"))?;
                pending.push((frame, band, speed, sent, regions));
            }
            for (i, (frame, band, speed, sent, regions)) in pending.drain(..).enumerate() {
                let k = ks.start + i;
                let r = match clients[i].recv_result().map_err(|e| format!("recv: {e}"))? {
                    QueryReply::Served(r) => r,
                    QueryReply::Overloaded { .. } => {
                        overloads += 1;
                        continue;
                    }
                };
                let rtt = sent.elapsed().as_nanos() as u64;
                let tp = traced.then(Instant::now);
                planners[i].commit(frame, band);
                if let Some(tp) = tp {
                    plan_ns += tp.elapsed().as_nanos() as u64;
                }
                let row = Row::new(tick, k, [r.coeffs, r.new_objects, r.io], r.bytes, speed);
                out.record(row);
                let set = &mut out.sets[tours[k].0];
                set.lat_ns.push(rtt);
                set.queries += 1;
                rtt_ns += rtt;
                served += 1;
                if capture {
                    groups.push(vec![(k, regions, row)]);
                }
            }
        }
        for c in clients {
            wire_bytes += c.bye().map_err(|e| format!("bye: {e}"))?;
        }
        out.sets[tours[first].0].busy_ns += t0.elapsed().as_nanos() as u64;
        first = ks.end;
    }
    let queries = served + overloads;
    out.outcomes.attempted = queries;
    out.outcomes.overloads = overloads;
    out.rows.sort_by_key(|r| (r.session, r.tick));
    if let Some(l) = layers {
        l.plan_ns += plan_ns;
        l.plan_q += queries;
        l.windows += windows;
        l.rtt_ns += rtt_ns;
        l.wire_q += queries;
        l.wire_bytes += wire_bytes;
    }
    if capture {
        out.traffic = Some(Traffic {
            sessions: tours.len(),
            groups,
        });
    }
    Ok(out)
}
