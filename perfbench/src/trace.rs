//! The traced run: spans around the calls into each layer's public
//! functions, and passes that replay a round's captured queries through
//! the layer beneath a serving call on a second, identically built
//! instance, so the served instance's counters stay untouched.

use crate::stats::Metrics;
use crate::workload::Traffic;
use mar_core::{PageCacheStats, Server, ServerCore, WaveletIndex};
use mar_served::{decode, encode, DaemonStats, Frame};
use std::time::Instant;

/// Set-up samples per layer, seconds.
#[derive(Debug, Default)]
pub struct Setup {
    /// Scene generation and coefficient records.
    pub scene_s: Vec<f64>,
    /// Index bulk load (or the page-file write).
    pub index_s: Vec<f64>,
    /// Opening the page file behind its pool.
    pub store_s: Vec<f64>,
    /// Building the 32-shard fleet.
    pub fleet_s: Vec<f64>,
    /// Daemon process start to accepting connections.
    pub daemon_s: Vec<f64>,
}

impl Setup {
    fn fields(&mut self) -> [&mut Vec<f64>; 5] {
        [
            &mut self.scene_s,
            &mut self.index_s,
            &mut self.store_s,
            &mut self.fleet_s,
            &mut self.daemon_s,
        ]
    }

    /// Adds another set of samples.
    pub fn absorb(&mut self, mut o: Setup) {
        for (a, b) in self.fields().into_iter().zip(o.fields()) {
            a.append(b);
        }
    }

    /// The samples as one line: each layer's samples joined by `,`, `-`
    /// for a layer without any, layers separated by spaces.
    pub fn line(&self) -> String {
        let field = |v: &Vec<f64>| {
            if v.is_empty() {
                "-".to_string()
            } else {
                v.iter()
                    .map(|x| format!("{x:?}"))
                    .collect::<Vec<_>>()
                    .join(",")
            }
        };
        [
            &self.scene_s,
            &self.index_s,
            &self.store_s,
            &self.fleet_s,
            &self.daemon_s,
        ]
        .map(field)
        .join(" ")
    }

    /// Adds the samples of a line written by [`Setup::line`].
    pub fn absorb_line(&mut self, line: &str) -> Result<(), String> {
        let words: Vec<&str> = line.split_whitespace().collect();
        if words.len() != 5 {
            return Err(format!("bad set-up line {line:?}"));
        }
        for (v, w) in self.fields().into_iter().zip(words) {
            for x in w.split(',').filter(|x| *x != "-") {
                v.push(x.parse().map_err(|_| format!("bad set-up sample {x:?}"))?);
            }
        }
        Ok(())
    }
}

/// Per-layer work, time and counts, summed over what each layer served.
/// Each layer keeps its own query count, since the replay passes run one
/// round while the native pass may run many. A layer a workload bypasses
/// keeps zeros.
#[derive(Debug, Default)]
pub struct Layers {
    /// `FramePlanner::plan` + `commit`.
    pub plan_ns: u64,
    /// Queries planned.
    pub plan_q: u64,
    /// Sub-query windows planned.
    pub windows: u64,
    /// `WaveletIndex::for_each_batch`.
    pub descent_ns: u64,
    /// Queries descended.
    pub index_q: u64,
    /// Logical node accesses.
    pub logical: u64,
    /// Unique node visits of the grouped descents.
    pub unique: u64,
    /// Coefficients the descents matched.
    pub hits: u64,
    /// The session-layer call that served the workload: `query_batch`
    /// per tick, or the daemon's scalar `Server::query` replayed.
    pub server_ns: u64,
    /// Queries it served.
    pub server_q: u64,
    /// Coefficients delivered past the session filter.
    pub delivered: u64,
    /// Peak resident session-filter entries.
    pub filter_peak: u64,
    /// Buffer-pool counters.
    pub cache: PageCacheStats,
    /// Queries the pool served.
    pub store_q: u64,
    /// `Router::plan`.
    pub route_ns: u64,
    /// `FleetServer::query`, summed per frame.
    pub fleet_ns: u64,
    /// Frames the fleet served.
    pub fleet_q: u64,
    /// Shard tasks, replica promotions, degraded and unserved sub-rects.
    pub fleet_counts: [u64; 4],
    /// Frames issued during an outage, and those answered in full.
    pub outage_frames: (u64, u64),
    /// Codec encode and decode of the query and result frames.
    pub encode_ns: u64,
    /// See `encode_ns`.
    pub decode_ns: u64,
    /// Frames encoded per direction.
    pub codec_q: u64,
    /// QUERY + RESULT + ACK bytes, length prefixes included.
    pub codec_bytes: u64,
    /// Client-observed wire round trips.
    pub rtt_ns: u64,
    /// Round trips.
    pub wire_q: u64,
    /// Bytes the wire clients counted on their sockets.
    pub wire_bytes: u64,
    /// The daemon's own frame counters, and the queries it served.
    pub daemon: (DaemonStats, u64),
    /// Set-up samples.
    pub setup: Setup,
    /// Queries per second of the native pass without and with spans.
    pub qps: (f64, f64),
}

fn per(ns: u64, q: u64) -> f64 {
    ns as f64 * 1e-3 / q.max(1) as f64
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// The fastest sample; zero for none.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

impl Layers {
    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let descent_us = per(self.descent_ns, self.index_q);
        let server_us = per(self.server_ns, self.server_q);
        let codec_us = per(self.encode_ns + self.decode_ns, self.codec_q);
        m.put("retrieval.plan_us", per(self.plan_ns, self.plan_q), "us");
        m.put(
            "retrieval.windows_per_query",
            ratio(self.windows, self.plan_q),
            "count",
        );
        m.put("index.descent_us", descent_us, "us");
        m.put(
            "index.logical_nodes_per_query",
            ratio(self.logical, self.index_q),
            "count",
        );
        m.put(
            "index.unique_nodes_per_query",
            ratio(self.unique, self.index_q),
            "count",
        );
        m.put(
            "index.share_ratio",
            ratio(self.logical, self.unique),
            "ratio",
        );
        m.put(
            "index.hits_per_query",
            ratio(self.hits, self.index_q),
            "count",
        );
        m.put("server.query_us", server_us, "us");
        m.put("server.filter_us", server_us - descent_us, "us");
        m.put(
            "server.delivered_per_hit",
            ratio(self.delivered, self.server_q)
                / ratio(self.hits, self.index_q).max(f64::MIN_POSITIVE),
            "ratio",
        );
        m.put(
            "server.filter_entries_peak",
            self.filter_peak as f64,
            "count",
        );
        let c = &self.cache;
        m.put(
            "store.lookups_per_query",
            ratio(c.lookups, self.store_q),
            "count",
        );
        m.put("store.hit_ratio", ratio(c.hits, c.lookups), "ratio");
        m.put(
            "store.faults_per_query",
            ratio(c.faults, self.store_q),
            "count",
        );
        m.put(
            "store.evictions_per_query",
            ratio(c.evictions, self.store_q),
            "count",
        );
        m.put(
            "store.bypasses_per_query",
            ratio(c.bypasses, self.store_q),
            "count",
        );
        m.put("fleet.route_us", per(self.route_ns, self.fleet_q), "us");
        m.put("fleet.query_us", per(self.fleet_ns, self.fleet_q), "us");
        let [tasks, promotions, degraded, unserved] = self.fleet_counts;
        m.put("fleet.tasks_per_query", ratio(tasks, self.fleet_q), "count");
        m.put(
            "fleet.promotions_per_query",
            ratio(promotions, self.fleet_q),
            "count",
        );
        m.put(
            "fleet.degraded_per_query",
            ratio(degraded, self.fleet_q),
            "count",
        );
        m.put(
            "fleet.unserved_per_query",
            ratio(unserved, self.fleet_q),
            "count",
        );
        let (outage, complete) = self.outage_frames;
        m.put("fleet.availability", ratio(complete, outage), "ratio");
        m.put("codec.encode_us", per(self.encode_ns, self.codec_q), "us");
        m.put("codec.decode_us", per(self.decode_ns, self.codec_q), "us");
        m.put(
            "codec.wire_bytes_per_query",
            ratio(self.codec_bytes, self.codec_q),
            "B",
        );
        let rtt_us = per(self.rtt_ns, self.wire_q);
        m.put("wire.rtt_us", rtt_us, "us");
        let overhead_us = if self.wire_q == 0 {
            0.0
        } else {
            rtt_us - server_us - codec_us
        };
        m.put("wire.overhead_us", overhead_us, "us");
        m.put(
            "wire.bytes_per_query",
            ratio(self.wire_bytes, self.wire_q),
            "B",
        );
        let (d, q) = &self.daemon;
        m.put("daemon.frames_in", ratio(d.frames_in, *q), "count");
        m.put("daemon.frames_out", ratio(d.frames_out, *q), "count");
        m.put("daemon.overloads", d.overloads as f64, "count");
        m.put("daemon.errors", d.errors as f64, "count");
        m.put("setup.scene_s", fastest(&self.setup.scene_s), "s");
        m.put("setup.index_s", fastest(&self.setup.index_s), "s");
        m.put("setup.store_s", fastest(&self.setup.store_s), "s");
        m.put("setup.fleet_s", fastest(&self.setup.fleet_s), "s");
        m.put("setup.daemon_s", fastest(&self.setup.daemon_s), "s");
        m.put("trace.untraced_queries_per_s", self.qps.0, "1/s");
        m.put("trace.queries_per_s", self.qps.1, "1/s");
        m.put(
            "trace.overhead_ratio",
            self.qps.0 / self.qps.1.max(f64::MIN_POSITIVE),
            "ratio",
        );
        m
    }
}

/// Replays each traffic group as one grouped descent on `index`.
pub fn index_pass(index: &WaveletIndex, traffic: &Traffic, l: &mut Layers) {
    for g in &traffic.groups {
        let windows: Vec<_> = g
            .iter()
            .flat_map(|(_, regions, _)| regions.iter().map(|q| (q.region, q.band)))
            .collect();
        let mut hits = 0u64;
        let t = Instant::now();
        let acc = index.for_each_batch(&windows, |_, _| hits += 1);
        l.descent_ns += t.elapsed().as_nanos() as u64;
        l.index_q += g.len() as u64;
        l.logical += acc.logical_total();
        l.unique += acc.unique;
        l.hits += hits;
    }
}

/// Replays every query through scalar `Server::query` on a fresh server
/// over `core`, the call the daemon makes per `QUERY` frame. A session
/// connects at its first query and disconnects after its last, as it
/// would on the wire. Returns whether every answer equals the captured
/// row.
pub fn scalar_pass(core: ServerCore, traffic: &Traffic, l: &mut Layers) -> bool {
    let server = Server::from_core(core);
    let mut left = vec![0usize; traffic.sessions];
    for (k, _, _) in traffic.groups.iter().flatten() {
        left[*k] += 1;
    }
    let mut ids: Vec<Option<u64>> = vec![None; traffic.sessions];
    let mut ok = true;
    for (k, regions, row) in traffic.groups.iter().flatten() {
        let id = *ids[*k].get_or_insert_with(|| server.connect());
        let t = Instant::now();
        let r = server.query(id, regions);
        l.server_ns += t.elapsed().as_nanos() as u64;
        l.server_q += 1;
        l.delivered += row.coeffs;
        ok &= matches!(r, Ok(r) if r.coeffs as u64 == row.coeffs
            && r.new_objects as u64 == row.new_objects && r.io == row.io
            && r.bytes.to_bits() == row.bytes.to_bits());
        left[*k] -= 1;
        if left[*k] == 0 {
            l.filter_peak = l.filter_peak.max(server.resident_filter_entries() as u64);
            ok &= server.disconnect(id).is_ok();
        }
    }
    ok
}

/// Bytes a session's `HELLO`, `WELCOME` and two `BYE` frames put on the
/// wire, length prefixes included.
pub fn handshake_bytes() -> u64 {
    let frames = [
        Frame::Hello {
            version: mar_served::PROTOCOL_VERSION,
        },
        Frame::Welcome {
            session: 0,
            token: 0,
        },
        Frame::Bye,
        Frame::Bye,
    ];
    frames
        .iter()
        .map(|f| encode(f).expect("handshake frames fit").len() as u64)
        .sum()
}

/// Encodes and decodes each query's `QUERY` and `RESULT` frames, the
/// codec work one wire round trip does on both ends.
pub fn codec_pass(traffic: &Traffic, l: &mut Layers) {
    for g in &traffic.groups {
        for (_, regions, row) in g {
            let frames = [
                Frame::Query {
                    regions: regions.clone(),
                },
                Frame::Result {
                    coeffs: row.coeffs,
                    new_objects: row.new_objects,
                    bytes: row.bytes,
                    io: row.io,
                },
            ];
            for f in &frames {
                let t = Instant::now();
                let buf = encode(f).expect("frames fit MAX_PAYLOAD");
                l.encode_ns += t.elapsed().as_nanos() as u64;
                let t = Instant::now();
                let back = decode(&buf[4..]).expect("own encoding decodes");
                l.decode_ns += t.elapsed().as_nanos() as u64;
                debug_assert_eq!(&back, f);
                l.codec_bytes += buf.len() as u64;
            }
            if row.bytes > 0.0 {
                l.codec_bytes += encode(&Frame::Ack { bytes: row.bytes })
                    .expect("ACK fits")
                    .len() as u64;
            }
            l.codec_q += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The set-up helper's line carries every sample back exactly.
    #[test]
    fn setup_line_round_trips() {
        let a = Setup {
            scene_s: vec![0.012_345_678_9],
            fleet_s: vec![0.1, 2.5e-3],
            ..Setup::default()
        };
        let line = a.line();
        assert_eq!(line, "0.0123456789 - - 0.1,0.0025 -");
        let mut b = Setup::default();
        b.absorb_line(&line).expect("own line parses");
        assert_eq!(b.scene_s, a.scene_s);
        assert_eq!(b.fleet_s, a.fleet_s);
        assert!(b.index_s.is_empty() && b.store_s.is_empty() && b.daemon_s.is_empty());
        assert!(b.absorb_line("1 2 3").is_err());
        assert!(b.absorb_line("x - - - -").is_err());
    }
}
