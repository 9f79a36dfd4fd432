//! The `geomap stats` / `geomap observe` subcommands: fleet-wide
//! observability over running daemons.
//!
//! `stats` scatter-gathers detailed counters from one or more daemons,
//! merges the per-shard latency histograms **bucket-wise** (exact under
//! the shared schema — never percentile averaging), and prints either
//! the merged stats JSON line or a Prometheus text exposition.
//!
//! `observe` is the fleet-timeline collector: it spins up an N-shard
//! loopback federation with per-daemon trace rings, drives a traced
//! request through the reconciling router (client → router → home
//! shard → solver), dumps every daemon's ring over the wire
//! ([`Request::TraceDump`]), aligns the per-daemon clocks via a
//! request/response handshake (each dump reports the daemon's trace
//! clock; the collector brackets it with its own and uses the
//! midpoint offset), and merges everything into one Chrome/Perfetto
//! trace-event JSON where each daemon is its own process group.

use crate::args::Args;
use crate::files;
use geomap_core::{Metrics, RingBufferSink, Trace};
use geomap_service::federation::merge_stats;
use geomap_service::hist::{bucket_bound, HistKind};
use geomap_service::proto::{Response, StatsResponse, TraceDumpResponse, WireTraceEvent};
use geomap_service::{
    MapRequest, MappingServer, MappingService, RetryPolicy, ServiceClient, ServiceConfig,
    ShardRouter, TcpConnector, TraceContext, WireFormat,
};
use geonet::io as netio;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// `geomap stats` — fetch and merge daemon counters. Unreachable
/// daemons are skipped (noted as a comment in the Prometheus mode);
/// when *every* address is unreachable the command fails with a
/// one-line diagnostic instead of emitting an empty exposition.
pub fn stats(args: &Args) -> Result<String, String> {
    let addrs: Vec<String> = args
        .required("addr")?
        .split(',')
        .map(str::to_string)
        .collect();
    let timeout = Duration::from_millis(args.parsed_or("timeout-ms", 60_000u64)?);
    let mut gathered = Vec::with_capacity(addrs.len());
    let mut unreachable = Vec::new();
    for addr in &addrs {
        match fetch_stats(addr, timeout) {
            Ok(s) => gathered.push(s),
            Err(e) => unreachable.push(format!("{addr}: {e}")),
        }
    }
    if gathered.is_empty() {
        return Err(format!(
            "stats: all {} daemon(s) unreachable — {}",
            addrs.len(),
            unreachable.join("; ")
        ));
    }
    let merged = merge_stats(&gathered);
    if args.switch("prometheus") {
        let mut out = String::new();
        for miss in &unreachable {
            let _ = writeln!(out, "# unreachable: {miss}");
        }
        out.push_str(&prometheus_text(&merged));
        Ok(out)
    } else {
        Ok(format!("{}\n", Response::Stats(merged).to_line()))
    }
}

/// One daemon's detailed stats over a fresh connection.
fn fetch_stats(addr: &str, timeout: Duration) -> Result<StatsResponse, String> {
    let mut client = ServiceClient::connect_with(addr, Some(timeout), WireFormat::V2Binary)?;
    match client.stats_detailed("geomap-stats")? {
        Response::Stats(s) => Ok(s),
        Response::Error(e) => Err(format!("{}: {}", e.code.label(), e.message)),
        other => Err(format!("unexpected stats answer: {other:?}")),
    }
}

/// Render merged stats as a Prometheus text exposition: counters as
/// `counter`, inventory/queue as `gauge`, and every latency histogram
/// both as a cumulative-bucket `histogram` (exact, mergeable upstream)
/// and as `geomap_latency_quantile_seconds` gauges precomputed from
/// the merged buckets.
pub fn prometheus_text(s: &StatsResponse) -> String {
    let mut out = String::new();
    let counters = [
        ("geomap_served_total", s.served),
        ("geomap_result_hits_total", s.result_hits),
        ("geomap_problem_hits_total", s.problem_hits),
        ("geomap_misses_total", s.misses),
        ("geomap_rejected_total", s.rejected),
        ("geomap_replays_total", s.replays),
    ];
    for (name, v) in counters {
        let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
    }
    let _ = writeln!(
        out,
        "# TYPE geomap_active_leases gauge\ngeomap_active_leases {}",
        s.active_leases
    );
    let _ = writeln!(out, "# TYPE geomap_free_nodes gauge");
    for (site, free) in s.free_nodes.iter().enumerate() {
        let _ = writeln!(out, "geomap_free_nodes{{site=\"{site}\"}} {free}");
    }
    let Some(d) = &s.detail else { return out };
    let _ = writeln!(
        out,
        "# TYPE geomap_queue_depth gauge\ngeomap_queue_depth {}",
        d.queue_depth
    );
    let _ = writeln!(
        out,
        "# TYPE geomap_queue_depth_max gauge\ngeomap_queue_depth_max {}",
        d.max_queue_depth
    );
    let _ = writeln!(
        out,
        "# TYPE geomap_stats_shards gauge\ngeomap_stats_shards {}",
        d.shards
    );
    let _ = writeln!(out, "# TYPE geomap_leased_nodes gauge");
    for (site, leased) in d.leased_nodes.iter().enumerate() {
        let _ = writeln!(out, "geomap_leased_nodes{{site=\"{site}\"}} {leased}");
    }
    let _ = writeln!(out, "# TYPE geomap_latency_seconds histogram");
    let _ = writeln!(out, "# TYPE geomap_latency_quantile_seconds gauge");
    // Kinds with no samples yet are omitted entirely — a lone +Inf
    // bucket with zeroed quantiles is noise, not telemetry.
    for h in d.hists.iter().filter(|h| h.count > 0) {
        let kind = &h.name;
        let mut cumulative = 0u64;
        for &(idx, count) in &h.buckets {
            cumulative += count;
            let le = bucket_bound(idx as usize) as f64 / 1e6;
            let _ = writeln!(
                out,
                "geomap_latency_seconds_bucket{{kind=\"{kind}\",le=\"{le:.6}\"}} {cumulative}"
            );
        }
        let _ = writeln!(
            out,
            "geomap_latency_seconds_bucket{{kind=\"{kind}\",le=\"+Inf\"}} {}",
            h.count
        );
        let _ = writeln!(
            out,
            "geomap_latency_seconds_sum{{kind=\"{kind}\"}} {:.6}",
            h.sum_us as f64 / 1e6
        );
        let _ = writeln!(
            out,
            "geomap_latency_seconds_count{{kind=\"{kind}\"}} {}",
            h.count
        );
        for (q, v) in [
            ("0.5", h.p50_us),
            ("0.9", h.p90_us),
            ("0.99", h.p99_us),
            ("0.999", h.p999_us),
        ] {
            let _ = writeln!(
                out,
                "geomap_latency_quantile_seconds{{kind=\"{kind}\",quantile=\"{q}\"}} {:.6}",
                v as f64 / 1e6
            );
        }
    }
    out
}

/// One collected ring: a daemon's dump plus the clock offset that maps
/// its timestamps onto the collector's timeline.
struct CollectedRing {
    /// Process-group label prefix ("shard0", ..., or "collector").
    label: String,
    dump: TraceDumpResponse,
    /// Seconds to add to every event timestamp.
    offset_s: f64,
}

/// `geomap observe` — capture a fleet timeline from a loopback
/// federation and export one merged Chrome/Perfetto JSON.
pub fn observe(args: &Args) -> Result<String, String> {
    let network_csv = files::read(args.required("network")?)?;
    let out_path = args.required("out")?;
    let shards = args.parsed_or("shards", 3usize)?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let ranks = args.parsed_or("ranks", 8usize)?;
    let warm = args.parsed_or("requests", 4usize)?;
    let ring_cap = args.parsed_or("ring", 65_536usize)?;
    let timeout = Duration::from_millis(args.parsed_or("timeout-ms", 60_000u64)?);

    // One daemon per shard, each tracing into its own ring.
    let mut servers = Vec::with_capacity(shards);
    let mut addrs = Vec::with_capacity(shards);
    for _ in 0..shards {
        let network = netio::from_csv(&network_csv)?;
        let ring = Arc::new(RingBufferSink::new(ring_cap));
        let config = ServiceConfig {
            metrics: Metrics::off().with_trace(Trace::new(ring.clone())),
            trace_ring: Some(ring),
            workers: 2,
            ..ServiceConfig::default()
        };
        let server = MappingServer::bind(MappingService::new(network, config), "127.0.0.1:0")
            .map_err(|e| format!("cannot bind observe daemon: {e}"))?;
        addrs.push(server.local_addr().to_string());
        servers.push(server);
    }

    // The collector's own ring holds the client and router tracks.
    let local_ring = Arc::new(RingBufferSink::new(ring_cap));
    let local_trace = Trace::new(local_ring.clone());
    let client_track = local_trace.track("client", "client");

    let connectors: Vec<(String, TcpConnector)> = addrs
        .iter()
        .map(|a| {
            (
                a.clone(),
                TcpConnector::new(a, Some(timeout)).with_format(WireFormat::V2Binary),
            )
        })
        .collect();
    let mut router = ShardRouter::new(connectors, RetryPolicy::default());
    router.set_trace(local_trace.clone());

    let pattern_csv = commgraph::apps::AppKind::parse("sp")
        .expect("sp is a known app")
        .workload(ranks)
        .pattern()
        .to_csv();

    // Warm the fleet (untraced): distinct problems fill caches and
    // latency histograms across shards.
    for i in 0..warm {
        let request = MapRequest {
            ranks: Some(ranks),
            seed: 0x0B5E + i as u64,
            ..MapRequest::new(format!("observe-warm-{i}"), pattern_csv.clone())
        };
        let routed = router
            .map(request)
            .map_err(|e| format!("warm map {i}: {e}"))?;
        if let Response::Error(e) = &routed.response {
            return Err(format!(
                "warm map {i} rejected: {}: {}",
                e.code.label(),
                e.message
            ));
        }
    }

    // The traced request: a fresh problem (cache miss, so the solver
    // runs) that reserves (so the inventory span appears), under one
    // sampled trace context that every hop tags.
    let ctx = TraceContext::root(0x0b5e_c0de ^ (shards as u64) << 32 | ranks as u64);
    let request = MapRequest {
        ranks: Some(ranks),
        seed: 0xF1EE7,
        reserve: true,
        trace: Some(ctx),
        ..MapRequest::new("observe-traced", pattern_csv.clone())
    };
    local_trace.span_begin(client_track, "map", local_trace.now());
    #[allow(clippy::cast_precision_loss)] // trace ids are 53-bit
    local_trace.counter(
        client_track,
        "trace",
        local_trace.now(),
        ctx.trace_id as f64,
    );
    let routed = router
        .map(request)
        .map_err(|e| format!("traced map: {e}"))?;
    local_trace.span_end(client_track, "map", local_trace.now());
    let lease = match &routed.response {
        Response::Map(m) => m
            .lease
            .ok_or_else(|| "traced map granted no lease".to_string())?,
        other => return Err(format!("traced map: unexpected {other:?}")),
    };
    router
        .release(routed.shard, lease)
        .map_err(|e| format!("release of traced lease: {e}"))?;

    // Merged fleet stats (histograms merged bucket-wise) before the
    // daemons drain; optionally exported as a Prometheus exposition.
    let merged = router
        .merged_stats()
        .map_err(|e| format!("merged stats: {e}"))?;
    if let Some(path) = args.optional("prom-out") {
        files::write(path, &prometheus_text(&merged))?;
    }

    // Collect every daemon's ring. The handshake brackets the daemon's
    // reported clock between two collector clock reads; the midpoint
    // is the best single-sample offset estimate (symmetric-delay
    // assumption — exact for virtual clocks, ~µs on loopback).
    let mut rings = Vec::with_capacity(shards + 1);
    for (d, addr) in addrs.iter().enumerate() {
        let mut client = ServiceClient::connect_with(addr, Some(timeout), WireFormat::V2Binary)?;
        let t0 = local_trace.now();
        let resp = client.trace_dump(&format!("observe-dump-{d}"))?;
        let t1 = local_trace.now();
        let Response::TraceDump(dump) = resp else {
            return Err(format!("shard {d} answered trace_dump with {resp:?}"));
        };
        rings.push(CollectedRing {
            label: format!("shard{d}"),
            offset_s: (t0 + t1) / 2.0 - dump.now_s,
            dump,
        });
    }

    // Shut the fleet down before exporting.
    for (d, addr) in addrs.iter().enumerate() {
        let mut client = ServiceClient::connect_with(addr, Some(timeout), WireFormat::V2Binary)?;
        client.shutdown(&format!("observe-bye-{d}"))?;
    }
    for server in servers {
        server.join();
    }

    // The collector's own ring joins the merge with zero offset.
    local_trace.flush();
    rings.push(CollectedRing {
        label: "collector".to_string(),
        dump: TraceDumpResponse {
            id: "local".to_string(),
            now_s: local_trace.now(),
            dropped: local_ring.dropped(),
            tracks: local_ring
                .tracks()
                .into_iter()
                .map(|t| geomap_service::proto::WireTrack {
                    track: t.id.0,
                    process: t.process,
                    name: t.name,
                })
                .collect(),
            events: local_ring
                .snapshot()
                .into_iter()
                .map(|e| WireTraceEvent {
                    track: e.track.0,
                    name: e.name.to_string(),
                    kind: match e.kind {
                        geomap_core::TraceEventKind::SpanBegin => WireTraceEvent::SPAN_BEGIN,
                        geomap_core::TraceEventKind::SpanEnd => WireTraceEvent::SPAN_END,
                        geomap_core::TraceEventKind::Instant => WireTraceEvent::INSTANT,
                        geomap_core::TraceEventKind::Counter => WireTraceEvent::COUNTER,
                    },
                    ts_s: e.ts,
                    value: e.value,
                })
                .collect(),
        },
        offset_s: 0.0,
    });

    let dropped: u64 = rings.iter().map(|r| r.dump.dropped).sum();
    let events: usize = rings.iter().map(|r| r.dump.events.len()).sum();
    let json = merge_chrome_json(&rings);
    files::write(out_path, &json)?;

    let mut hist_note = String::new();
    if let Some(d) = &merged.detail {
        if let Some(h) = d.hists.iter().find(|h| h.name == HistKind::MapE2e.label()) {
            let _ = write!(
                hist_note,
                ", fleet map p50/p99 {}/{} µs over {} requests",
                h.p50_us, h.p99_us, h.count
            );
        }
    }
    Ok(format!(
        "observed {shards} shards on loopback: trace id {} spans client -> router -> shard \
         -> solver; merged {events} events from {} rings ({dropped} dropped) into {out_path}{hist_note}\n",
        ctx.trace_id,
        rings.len(),
    ))
}

/// Merge collected rings into one Chrome trace-event JSON. Every
/// `(ring, process)` pair becomes its own pid so daemons never share a
/// process row; track ids stay per-ring (`tid` collisions across pids
/// are fine in the trace-event model).
fn merge_chrome_json(rings: &[CollectedRing]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    let mut pids: Vec<(String, u32)> = Vec::new();
    let mut pid_of = |label: &str, process: &str| -> u32 {
        let key = format!("{label}/{process}");
        if let Some((_, pid)) = pids.iter().find(|(k, _)| *k == key) {
            return *pid;
        }
        let pid = (pids.len() + 1) as u32;
        pids.push((key, pid));
        pid
    };
    let push = |out: &mut String, first: &mut bool, line: String| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };
    for ring in rings {
        for t in &ring.dump.tracks {
            let pid = pid_of(&ring.label, &t.process);
            push(
                &mut out,
                &mut first,
                format!(
                    r#"{{"name":"process_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":"{}"}}}}"#,
                    escape(&format!("{}/{}", ring.label, t.process))
                ),
            );
            push(
                &mut out,
                &mut first,
                format!(
                    r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{},"args":{{"name":"{}"}}}}"#,
                    t.track,
                    escape(&t.name)
                ),
            );
        }
    }
    for ring in rings {
        let mut events: Vec<&WireTraceEvent> = ring.dump.events.iter().collect();
        events.sort_by(|a, b| a.ts_s.total_cmp(&b.ts_s));
        for e in events {
            let process = ring
                .dump
                .tracks
                .iter()
                .find(|t| t.track == e.track)
                .map_or("", |t| t.process.as_str());
            let pid = pid_of(&ring.label, process);
            let ts_us = (e.ts_s + ring.offset_s) * 1e6;
            let name = escape(&e.name);
            let line = match e.kind {
                WireTraceEvent::SPAN_BEGIN | WireTraceEvent::SPAN_END => {
                    let ph = if e.kind == WireTraceEvent::SPAN_BEGIN {
                        "B"
                    } else {
                        "E"
                    };
                    format!(
                        r#"{{"name":"{name}","ph":"{ph}","ts":{ts_us:.3},"pid":{pid},"tid":{}}}"#,
                        e.track
                    )
                }
                WireTraceEvent::INSTANT => format!(
                    r#"{{"name":"{name}","ph":"i","s":"t","ts":{ts_us:.3},"pid":{pid},"tid":{}}}"#,
                    e.track
                ),
                _ => format!(
                    r#"{{"name":"{name}","ph":"C","ts":{ts_us:.3},"pid":{pid},"tid":{},"args":{{"value":{}}}}}"#,
                    e.track, e.value
                ),
            };
            push(&mut out, &mut first, line);
        }
    }
    out.push_str("\n]\n");
    out
}

/// Minimal JSON string escaping for track/event names.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn argv(s: &str) -> Args {
        Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("geomap-observe-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn observe_requires_a_network_and_out() {
        assert!(observe(&argv("")).unwrap_err().contains("--network"));
    }

    #[test]
    fn stats_requires_an_addr() {
        assert!(stats(&argv("")).unwrap_err().contains("--addr"));
    }

    /// Satellite: when *every* address is unreachable, `stats` exits
    /// non-zero with a one-line diagnostic instead of emitting an
    /// empty exposition.
    #[test]
    fn stats_all_unreachable_is_a_one_line_error() {
        let err = stats(&argv(
            "--addr 127.0.0.1:9,127.0.0.1:13 --timeout-ms 300 --prometheus",
        ))
        .unwrap_err();
        assert!(err.contains("all 2 daemon(s) unreachable"), "{err}");
        assert!(!err.contains('\n'), "diagnostic must be one line: {err}");
    }

    #[test]
    fn prometheus_exposition_has_counters_even_without_detail() {
        let s = StatsResponse {
            id: "x".into(),
            served: 7,
            ..StatsResponse::default()
        };
        let text = prometheus_text(&s);
        assert!(text.contains("geomap_served_total 7"), "{text}");
        assert!(!text.contains("geomap_latency_seconds"), "{text}");
    }

    /// End-to-end: a 3-shard loopback observation produces one merged
    /// Chrome JSON whose every track balances B/E and carries exactly
    /// one trace id across client, router and shard processes.
    #[test]
    fn observe_round_trip_on_loopback() {
        let net_path = tmp("observe-net.csv");
        let out_path = tmp("observe-trace.json");
        let prom_path = tmp("observe-prom.txt");
        crate::commands::network(&argv(&format!("--provider ec2 --nodes 4 --out {net_path}")))
            .unwrap();
        let out = observe(&argv(&format!(
            "--network {net_path} --shards 3 --ranks 8 --requests 2 \
             --out {out_path} --prom-out {prom_path}"
        )))
        .unwrap();
        assert!(out.contains("observed 3 shards"), "got {out}");

        // The merged trace parses as JSON-ish and balances B/E per
        // (pid, tid) — the same invariant the CI smoke checks.
        let json = std::fs::read_to_string(&out_path).unwrap();
        let mut depth: std::collections::HashMap<(u64, u64), i64> =
            std::collections::HashMap::new();
        let mut trace_values: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut trace_pids: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for line in json.lines() {
            let line = line.trim().trim_end_matches(',');
            if !line.starts_with('{') {
                continue;
            }
            let field = |key: &str| -> Option<u64> {
                let tag = format!("\"{key}\":");
                let rest = &line[line.find(&tag)? + tag.len()..];
                let end = rest
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(rest.len());
                rest[..end].parse().ok()
            };
            let (pid, tid) = (field("pid").unwrap(), field("tid").unwrap_or(0));
            if line.contains("\"ph\":\"B\"") {
                *depth.entry((pid, tid)).or_default() += 1;
            } else if line.contains("\"ph\":\"E\"") {
                *depth.entry((pid, tid)).or_default() -= 1;
            } else if line.contains("\"name\":\"trace\"") && line.contains("\"ph\":\"C\"") {
                trace_values.insert(field("value").unwrap());
                trace_pids.insert(pid);
            }
        }
        assert!(
            depth.values().all(|&d| d == 0),
            "unbalanced spans: {depth:?}"
        );
        assert_eq!(
            trace_values.len(),
            1,
            "expected one trace id: {trace_values:?}"
        );
        assert!(
            trace_pids.len() >= 3,
            "trace id should span client, router and shard processes: {trace_pids:?}"
        );

        // The exposition carries merged histogram percentiles that are
        // consistent with their own bucket dumps.
        let prom = std::fs::read_to_string(&prom_path).unwrap();
        assert!(prom.contains("geomap_latency_seconds_bucket"), "{prom}");
        assert!(
            prom.contains("geomap_latency_quantile_seconds{kind=\"map_e2e\",quantile=\"0.5\"}"),
            "{prom}"
        );
        assert!(prom.contains("geomap_queue_depth_max"), "{prom}");
        assert!(prom.contains("geomap_stats_shards 3"), "{prom}");
    }
}
