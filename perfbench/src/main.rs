//! Steady serving benchmark for the motion-aware retrieval server.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_ram --seed 7 --seconds 20 --trace 0
//! ```
//!
//! One process, one load thread, closed loops: every client waits for its
//! reply before it sends again. Each run checks every output against a
//! reference, then repeats identical rounds until `--seconds` have passed,
//! while a helper process sets the workload up again between rounds
//! (`setup_s` is the fastest set-up). Every round must reproduce the first
//! bit for bit. The last stdout line is the result object; the line before
//! it is the host record. With `--trace 1` the run prints per-layer
//! metrics instead: every other round runs with spans, then one traced
//! round's queries are replayed through the layers beneath the serving
//! call (see `README.md`).

mod child;
mod fleet;
mod serve;
mod stats;
mod trace;
mod wire;
mod workload;

use child::SetupHelper;
use stats::{percentile, result_line, tail_percentile, Metrics, Outcomes};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use trace::Layers;
use workload::{Keep, Row, Tally, Totals, Traffic};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["serve_ram", "serve_paged", "wire_ram", "fleet_outage"];

/// Set-ups per run; `setup_s` is the fastest, by the rule the rounds
/// follow: the host's slow phases only ever slow a set-up down.
const SETUPS: usize = 41;

/// The parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: workload::PINNED_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("{flag}: bad value"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("{flag}: bad value {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Where the benchmark keeps page files and counter records: inside the
/// build directory of the checkout.
fn work_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    let dir = base.join("perfbench");
    std::fs::create_dir_all(&dir).expect("create the benchmark work directory");
    dir
}

/// What a run found.
#[derive(Debug, Default)]
struct Report {
    problems: Vec<String>,
    setups: Vec<f64>,
    /// The untraced measurement.
    totals: Totals,
    /// Queries attempted over every measured round, traced or not.
    outcomes: Outcomes,
    /// The checking round's tally: every measured round reproduced its
    /// digest, and its sums give the exact per-query metrics.
    reference: Tally,
    /// Peak RSS of the serving process over the measured rounds.
    rss_mb: f64,
    connections: usize,
    /// The load thread's and the daemon's CPUs, when both are pinned.
    placement: Option<[usize; 2]>,
    layers: Layers,
}

impl Report {
    fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
        }
    }
}

/// Repeats `round` until `seconds` have passed or `max_rounds` have run,
/// but at least once (twice with `alternate`).
/// Every round must reproduce the reference digest. With `alternate`, odd
/// rounds are traced, so that traced and untraced rounds meet the same
/// host phases; the untraced totals come back, and the traced ones only
/// as the tracing overhead. Set-ups are spread over the
/// measurement, so that they meet those phases as the rounds do, until
/// `rep` holds [`SETUPS`] of them.
fn measure(
    rep: &mut Report,
    seconds: f64,
    max_rounds: usize,
    alternate: bool,
    setup: &mut dyn FnMut(&mut Layers) -> Result<f64, String>,
    mut round: impl FnMut(Option<&mut Layers>, Keep) -> Result<workload::Round, String>,
) -> Result<(Totals, Layers, Option<Traffic>), String> {
    let start = Instant::now();
    let owed = SETUPS.saturating_sub(rep.setups.len());
    let have = rep.setups.len();
    let mut totals = [Totals::default(), Totals::default()];
    let mut l = Layers::default();
    let mut traffic = None;
    let mut rounds = 0;
    let min_rounds = 1 + usize::from(alternate);
    loop {
        let progress =
            (start.elapsed().as_secs_f64() / seconds).max(rounds as f64 / max_rounds as f64);
        if progress >= 1.0 && rounds >= min_rounds {
            break;
        }
        while ((rep.setups.len() - have) as f64) < owed as f64 * progress.min(1.0) {
            let s = setup(&mut rep.layers)?;
            rep.setups.push(s);
        }
        let traced = alternate && rounds % 2 == 1;
        let keep = if traced && traffic.is_none() {
            Keep::Traffic
        } else {
            Keep::Digest
        };
        let mut r = round(traced.then_some(&mut l), keep)?;
        rounds += 1;
        if r.tally.digest != rep.reference.digest || r.outcomes.failed() != 0 {
            return Err("nondeterminism: a repeated round differs from the first".to_string());
        }
        traffic = traffic.or(r.traffic.take());
        totals[usize::from(traced)].add_round(&r.sets, &r.outcomes);
        rep.outcomes.add(&r.outcomes);
    }
    while rep.setups.len() < have + owed {
        let s = setup(&mut rep.layers)?;
        rep.setups.push(s);
    }
    let [plain, traced] = totals;
    if alternate {
        l.qps = (plain.qps(), traced.qps());
    }
    Ok((plain, l, traffic))
}

/// Ends a measurement: the untraced totals become the run's, and the
/// set-up samples join the traced layers.
fn conclude(rep: &mut Report, plain: Totals, mut l: Layers) {
    rep.totals = plain;
    l.setup.absorb(std::mem::take(&mut rep.layers.setup));
    rep.layers = l;
}

fn run_serve(args: &Args, paged: bool, rep: &mut Report) -> Result<(), String> {
    let cfg = workload::serve_config(args.seed);
    let dir = work_dir();
    let store = dir.join(format!("serve-{}.pages", std::process::id()));
    let (rig, s) = serve::Rig::build(&cfg, paged.then_some(store.as_path()), &mut rep.layers);
    rep.setups.push(s);
    let scene = &rig.scene;
    let tours = workload::round_tours(&cfg, scene, workload::SETS);

    // Correctness: the pinned transcript.
    let pcfg = workload::serve_config(workload::PINNED_SEED);
    let pinned = serve::round(
        rig.core(),
        scene,
        &[workload::tours(&pcfg, scene)],
        &pcfg,
        None,
        Keep::Rows,
    );
    rep.check(
        workload::serve_fingerprint(&pinned.rows) == workload::PINNED_FINGERPRINT,
        "pinned serve transcript fingerprint differs from 9ddcf55d83bfce42",
    );
    rep.reference = serve::round(rig.core(), scene, &tours, &cfg, None, Keep::Digest).tally;

    let mut helper = SetupHelper::spawn(&args.workload, args.seed)?;
    stats::reset_rss_peak();
    let (totals, mut l, traffic) = measure(
        rep,
        args.seconds,
        usize::MAX,
        args.trace,
        &mut |l| helper.setup(l),
        |layers, keep| Ok(serve::round(rig.core(), scene, &tours, &cfg, layers, keep)),
    )?;
    rep.rss_mb = stats::rss_peak_mb();
    helper.finish()?;

    // RAM == paged on this seed: the other backend must produce the same
    // rows in the same order. It builds a second index, so it runs after
    // the peak RSS is read.
    let spare = dir.join(format!("check-{}.pages", std::process::id()));
    let other = if paged {
        let index = mar_core::WaveletIndex::build(&rig.data);
        mar_core::ServerCore::from_parts(Arc::clone(&rig.data), Arc::new(index))
    } else {
        mar_core::write_store(&spare, &rig.data).map_err(|e| e.to_string())?;
        serve::Rig {
            scene: rig.scene.clone(),
            data: Arc::clone(&rig.data),
            backend: serve::Backend::Paged(spare.clone()),
        }
        .core()
    };
    let other = serve::round(other, scene, &tours, &cfg, None, Keep::Digest);
    rep.check(
        other.tally == rep.reference,
        "serve_ram and serve_paged transcripts differ",
    );
    if let Some(traffic) = traffic {
        // The inner layer on a second, identically built index: the same
        // page file behind its own pool, or a second in-RAM build.
        let shadow = if paged {
            rig.core()
        } else {
            let index = mar_core::WaveletIndex::build(&rig.data);
            mar_core::ServerCore::from_parts(Arc::clone(&rig.data), Arc::new(index))
        };
        trace::index_pass(shadow.index(), &traffic, &mut l);
    }
    conclude(rep, totals, l);
    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_file(&spare);
    Ok(())
}

/// Set-up alone: a daemon that accepts one connection and exits.
fn daemon_setup(l: &mut Layers) -> Result<f64, String> {
    let (d, s) = wire::Daemon::spawn(1, l)?;
    drop(std::net::TcpStream::connect(d.addr).map_err(|e| e.to_string())?);
    d.finish()?;
    Ok(s)
}

fn run_wire(args: &Args, rep: &mut Report) -> Result<(), String> {
    let cfg = workload::serve_config(args.seed);
    rep.connections = wire::connections();
    let (load_cpu, daemon_cpu) = wire::placement();
    let load_pinned = wire::pin(load_cpu);
    // The in-process reference replay of the same sessions.
    let (rig, _) = serve::Rig::build(&cfg, None, &mut Layers::default());
    let scene = &rig.scene;
    let tours = workload::round_tours(&cfg, scene, workload::SETS);
    let sessions: usize = tours.iter().map(Vec::len).sum();
    let in_process = serve::round(rig.core(), scene, &tours, &cfg, None, Keep::Rows);

    // Daemon 1: the pinned transcript over the wire.
    let pcfg = workload::serve_config(workload::PINNED_SEED);
    let (d, s) = wire::Daemon::spawn(pcfg.sessions, &mut rep.layers)?;
    rep.setups.push(s);
    let pinned = wire::round(
        d.addr,
        scene,
        &[workload::tours(&pcfg, scene)],
        &pcfg,
        None,
        Keep::Rows,
    )?;
    check_daemon(rep, &d.finish()?, exchanged(&pinned.rows));
    rep.check(
        workload::serve_fingerprint(&pinned.rows) == workload::PINNED_FINGERPRINT,
        "pinned wire transcript fingerprint differs from 9ddcf55d83bfce42",
    );
    // Daemon 2: this seed's sessions must match the in-process replay;
    // the round also sizes the measured daemon's connection budget.
    let (d, s) = wire::Daemon::spawn(sessions, &mut rep.layers)?;
    rep.setups.push(s);
    let first = wire::round(d.addr, scene, &tours, &cfg, None, Keep::Rows)?;
    let per_round = exchanged(&first.rows);
    check_daemon(rep, &d.finish()?, per_round);
    rep.check(
        first.rows == in_process.rows,
        "wire transcript differs from the in-process replay",
    );
    // Measured rounds must reproduce the wire order's digest; the sums
    // come from the in-process order, which does not depend on `nproc`.
    rep.reference = Tally {
        digest: first.tally.digest,
        ..in_process.tally
    };
    let round_s = first.sets.iter().map(|s| s.busy_ns).sum::<u64>() as f64 * 1e-9;

    let rounds =
        ((args.seconds / round_s).ceil() as usize).clamp(1 + usize::from(args.trace), 100_000);
    let (d, s) = wire::Daemon::spawn(sessions * rounds, &mut rep.layers)?;
    rep.setups.push(s);
    let mut served = 0;
    let (totals, mut l, traffic) = measure(
        rep,
        f64::INFINITY,
        rounds,
        args.trace,
        &mut daemon_setup,
        |layers, keep| {
            served += 1;
            wire::round(d.addr, scene, &tours, &cfg, layers, keep)
        },
    )?;
    let apart = load_pinned && d.pinned;
    let report = d.finish()?;
    check_daemon(rep, &report, per_round.map(|n| n * served));
    rep.placement = apart.then_some([load_cpu, daemon_cpu]);
    rep.rss_mb = report.rss_mb;
    if let Some(traffic) = traffic {
        l.daemon = (report.stats, per_round[1] * served);
        // The layers beneath the daemon's call, on a second, identically
        // built in-RAM index and server.
        trace::index_pass(rig.core().index(), &traffic, &mut l);
        rep.check(
            trace::scalar_pass(rig.core(), &traffic, &mut l),
            "scalar Server::query differs from the captured answers",
        );
        trace::codec_pass(&traffic, &mut l);
        // What the clients counted on their sockets must be exactly what
        // the codec puts on the wire for these queries and sessions.
        let expected = l.codec_bytes + traffic.sessions as u64 * trace::handshake_bytes();
        rep.check(
            u128::from(l.wire_bytes) * u128::from(l.codec_q)
                == u128::from(expected) * u128::from(l.wire_q),
            format!(
                "wire bytes {} over {} queries do not match the codec's {expected} over {}",
                l.wire_bytes, l.wire_q, l.codec_q
            ),
        );
    }
    conclude(rep, totals, l);
    Ok(())
}

/// Sessions, queries and acknowledged results a round's rows stand for.
fn exchanged(rows: &[Row]) -> [u64; 3] {
    let sessions = rows
        .iter()
        .map(|r| r.session)
        .collect::<std::collections::BTreeSet<_>>();
    let acks = rows.iter().filter(|r| r.bytes > 0.0).count();
    [sessions.len() as u64, rows.len() as u64, acks as u64]
}

/// The daemon's frame counters must match what the clients exchanged:
/// `HELLO` and `BYE` per session, a `QUERY` per query and an `ACK` per
/// non-empty result in; `WELCOME`, `RESULT` and `BYE` out.
fn check_daemon(rep: &mut Report, d: &wire::DaemonReport, [sessions, queries, acks]: [u64; 3]) {
    let s = &d.stats;
    rep.check(
        s.connections == sessions
            && s.frames_in == 2 * sessions + queries + acks
            && s.frames_out == 2 * sessions + queries
            && s.overloads == 0
            && s.errors == 0,
        format!("daemon counters {s:?} do not match {sessions} sessions, {queries} queries, {acks} acks"),
    );
}

fn run_fleet(args: &Args, rep: &mut Report) -> Result<(), String> {
    let cfg = workload::fleet_config(args.seed);
    let (scene, fleet, s) = fleet::build(&cfg, &mut rep.layers);
    rep.setups.push(s);
    let scene = &scene;
    let sets = fleet::sets(&cfg, scene, true);

    // The invariant: availability > 0, and after recovery every session's
    // resident set equals the outage-free reference's.
    let clean = fleet::sets(&cfg, scene, false);
    let (_, reference) = fleet::round(&fleet, scene, &clean, &cfg, None, Keep::Digest);
    let (first, ev) = fleet::round(&fleet, scene, &sets, &cfg, None, Keep::Digest);
    rep.check(
        ev.outage_frames.0 > 0 && ev.outage_frames.1 > 0,
        "fleet availability is zero",
    );
    rep.check(
        ev.covered && reference.covered && ev.fingerprints == reference.fingerprints,
        "post-recovery resident sets differ from the outage-free reference",
    );
    rep.reference = first.tally;

    let mut helper = SetupHelper::spawn(&args.workload, args.seed)?;
    stats::reset_rss_peak();
    let (totals, l, _) = measure(
        rep,
        args.seconds,
        usize::MAX,
        args.trace,
        &mut |l| helper.setup(l),
        |layers, keep| {
            let (r, e) = fleet::round(&fleet, scene, &sets, &cfg, layers, keep);
            if e != ev {
                return Err(
                    "nondeterminism: fleet invariant evidence differs between rounds".to_string(),
                );
            }
            Ok(r)
        },
    )?;
    rep.rss_mb = stats::rss_peak_mb();
    helper.finish()?;
    conclude(rep, totals, l);
    Ok(())
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(rep: &Report) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let lat = rep.totals.latencies();
    let tail = tail_percentile(lat.len()).unwrap_or(0.0);
    if tail < 99.0 {
        return Err(format!(
            "{} latency samples cannot support a p99",
            lat.len()
        ));
    }
    let queries = rep.reference.queries.max(1) as f64;
    m.put("setup_s", trace::fastest(&rep.setups), "s");
    m.put("queries_per_s", rep.totals.qps(), "1/s");
    m.put("query_p50_us", percentile(&lat, 50.0) as f64 * 1e-3, "us");
    m.put("query_p99_us", percentile(&lat, 99.0) as f64 * 1e-3, "us");
    m.put("bytes_per_query", rep.reference.bytes / queries, "B");
    m.put("link_s_per_query", rep.reference.response_s / queries, "s");
    m.put("rss_peak_mb", rep.rss_mb, "MB");
    m.put(
        "complete_share",
        1.0 - rep.outcomes.incomplete_share(),
        "share",
    );
    Ok(m)
}

/// Exact counters are recorded per build, workload, seed and mode; a
/// later run that disagrees is nondeterminism, not noise.
fn check_counters(args: &Args, rep: &mut Report, metrics: &Metrics) {
    let exact = |name: &str, unit: &str| {
        matches!(unit, "count" | "ratio" | "B" | "share") && !name.starts_with("trace.")
            || name == "link_s_per_query"
    };
    let now: String = metrics
        .0
        .iter()
        .filter(|(name, _, unit)| exact(name, unit))
        .map(|(name, value, _)| format!("{name} {:016x}\n", value.to_bits()))
        .collect();
    let build = std::env::current_exe()
        .and_then(std::fs::read)
        .map_or(0, |exe| mar_store::fnv1a64_bytes(&exe));
    let path = work_dir().join(format!(
        "counters-{build:016x}-{}-{}-{}.txt",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    match std::fs::read_to_string(&path) {
        Ok(before) if before != now => rep.problems.push(format!(
            "nondeterminism: exact counters differ from an earlier run ({})",
            path.display()
        )),
        Ok(_) => {}
        Err(_) => {
            let _ = std::fs::write(&path, now);
        }
    }
}

fn run(args: &Args) -> Result<(Report, Metrics), String> {
    let mut rep = Report::default();
    match args.workload.as_str() {
        "serve_ram" => run_serve(args, false, &mut rep)?,
        "serve_paged" => run_serve(args, true, &mut rep)?,
        "wire_ram" => run_wire(args, &mut rep)?,
        _ => run_fleet(args, &mut rep)?,
    }
    let metrics = if args.trace {
        rep.layers.metrics()
    } else {
        end_to_end(&rep)?
    };
    check_counters(args, &mut rep, &metrics);
    Ok((rep, metrics))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let child = match argv.first().map(String::as_str) {
        Some("--daemon-child") => Some(wire::daemon_child(
            argv.get(1).and_then(|v| v.parse().ok()).unwrap_or(1),
            argv.get(2).and_then(|v| v.parse().ok()).unwrap_or(0),
        )),
        Some("--setup-child") => Some(child::setup_child(
            argv.get(1).map_or("", String::as_str),
            argv.get(2).and_then(|v| v.parse().ok()).unwrap_or(0),
        )),
        _ => None,
    };
    if let Some(result) = child {
        if let Err(e) = result {
            eprintln!("perfbench child: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let (steal0, total0) = stats::cpu_jiffies();
    let (rep, metrics) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let (steal1, total1) = stats::cpu_jiffies();
    let steal = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
    let lat = rep.totals.latencies();
    let tail = tail_percentile(lat.len()).unwrap_or(50.0);
    let problems: Vec<String> = rep.problems.iter().map(|p| format!("{p:?}")).collect();
    println!(
        "{{\"host\": {{\"nproc\": {}, \"cpu\": {:?}, \"load_threads\": 1, \"connections\": {}, \"placement\": {}, \"steal_share\": {}}}, \
         \"workload\": {:?}, \"seed\": {}, \"trace\": {}, \"rounds\": {}, \"latency_samples\": {}, \
         \"tail_percentile\": {tail}, \"tail_us\": {}, \"round_qps_min\": {}, \"round_qps_max\": {}, \"round_qps\": {:?}, \"round_p50_us\": {:?}, \"round_p99_us\": {:?}, \"setup_s\": {:?}, \"problems\": [{}]}}",
        wire::connections(),
        stats::cpu_model(),
        rep.connections,
        rep.placement.map_or_else(|| "null".to_string(), |p| format!("{p:?}")),
        stats::json_num(steal),
        args.workload,
        args.seed,
        u8::from(args.trace),
        rep.totals.round_qps.len(),
        lat.len(),
        stats::json_num(if lat.is_empty() { 0.0 } else { percentile(&lat, tail) as f64 * 1e-3 }),
        stats::json_num(rep.totals.round_qps.iter().copied().fold(f64::INFINITY, f64::min)),
        stats::json_num(rep.totals.round_qps.iter().copied().fold(0.0, f64::max)),
        rep.totals.round_qps.iter().map(|q| q.round()).collect::<Vec<_>>(),
        rep.totals.round_pcts.iter().map(|p| p.0 as f64 * 1e-3).collect::<Vec<_>>(),
        rep.totals.round_pcts.iter().map(|p| p.1 as f64 * 1e-3).collect::<Vec<_>>(),
        rep.setups,
        problems.join(", "),
    );
    let correct = rep.problems.is_empty();
    println!("{}", result_line(correct, &rep.outcomes, &metrics));
    if !correct {
        for p in &rep.problems {
            eprintln!("perfbench: {p}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric name the benchmark prints is a valid name, and each
    /// appears in `BENCHMARK.json` with the same unit.
    #[test]
    fn metric_names_are_valid_and_declared() {
        let declared =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let layers = Layers::default().metrics();
        let e2e = [
            "setup_s",
            "queries_per_s",
            "query_p50_us",
            "query_p99_us",
            "bytes_per_query",
            "link_s_per_query",
            "rss_peak_mb",
            "complete_share",
        ];
        for (name, _, unit) in &layers.0 {
            assert!(stats::valid_name(name), "{name}");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                declared.contains(&entry),
                "{entry} missing from BENCHMARK.json"
            );
        }
        for name in e2e {
            assert!(stats::valid_name(name), "{name}");
            assert!(
                declared.contains(&format!("\"name\": \"{name}\"")),
                "{name}"
            );
        }
        for w in WORKLOADS {
            assert!(stats::valid_name(w));
            assert!(declared.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }
}
