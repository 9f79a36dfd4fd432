//! The `geomap serve` / `geomap request` subcommands: the daemon
//! front-end and its line-mode client.
//!
//! `serve` blocks until a `shutdown` request arrives over the wire
//! (graceful drain), then returns a one-paragraph summary — so a CI
//! job can start it in the background, point clients at the port from
//! `--addr-file`, and assert a clean zero exit after shutdown.
//!
//! `request` prints the server's raw response JSON line to stdout and
//! exits non-zero with a one-line diagnostic whenever anything goes
//! wrong: unreachable address, malformed response JSON, or a rejection
//! (`over_capacity`, `bad_request`, ...) from the daemon.
//!
//! The daemon answers both wire protocols on one port, sniffing each
//! connection's first byte, so `serve` needs no protocol flag;
//! `request --protocol v2` switches the client to binary frames, and
//! `--pool N` sends through N pooled pipelined connections.

use crate::args::Args;
use crate::files;
use geomap_core::{JsonLinesSink, Metrics, RingBufferSink, StreamingSink, Trace};
use geomap_service::proto::{CalibSpec, MultilevelSpec, Response};
use geomap_service::{
    FederatedPool, MapRequest, MappingServer, MappingService, PooledClient, Reconciler,
    ReconcilerConfig, RemapRequest, Request, RetryPolicy, RetryingClient, ServiceClient,
    ServiceConfig, ShardRouter, TcpConnector, WatchedPlacement, WireFormat,
};
use geonet::io as netio;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// `geomap serve` — run the mapping daemon until shutdown.
pub fn serve(args: &Args) -> Result<String, String> {
    let network = netio::from_csv(&files::read(args.required("network")?)?)?;
    let defaults = ServiceConfig::default();
    let metrics = match args.optional("metrics") {
        None => Metrics::off(),
        Some(path) => Metrics::new(Arc::new(
            JsonLinesSink::create(std::path::Path::new(path))
                .map_err(|e| format!("cannot create metrics file {path:?}: {e}"))?,
        )),
    };
    // --trace-ring CAP keeps the newest CAP events in memory and
    // answers TraceDump requests (the fleet-timeline collector);
    // --trace FILE streams every event to disk. Ring wins when both
    // are given — a dumpable daemon is what `observe` needs.
    let (trace, trace_ring) = match args.optional("trace-ring") {
        Some(cap) => {
            let cap: usize = cap
                .parse()
                .map_err(|e| format!("--trace-ring {cap:?}: {e}"))?;
            let ring = Arc::new(RingBufferSink::new(cap.max(1)));
            (Trace::new(ring.clone()), Some(ring))
        }
        None => match args.optional("trace") {
            None => (Trace::off(), None),
            Some(path) => {
                let file = std::fs::File::create(path)
                    .map_err(|e| format!("cannot create trace file {path:?}: {e}"))?;
                (
                    Trace::new(Arc::new(StreamingSink::from_writer(
                        std::io::BufWriter::new(file),
                    ))),
                    None,
                )
            }
        },
    };
    let config = ServiceConfig {
        workers: args.parsed_or("workers", defaults.workers)?,
        queue_capacity: args.parsed_or("queue", defaults.queue_capacity)?,
        problem_cache_capacity: args.parsed_or("problem-cache", defaults.problem_cache_capacity)?,
        result_cache_capacity: args.parsed_or("result-cache", defaults.result_cache_capacity)?,
        idempotency_cache_capacity: args
            .parsed_or("idem-cache", defaults.idempotency_cache_capacity)?,
        default_deadline: args
            .optional("deadline-ms")
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|e| format!("--deadline-ms {v:?}: {e}"))
            })
            .transpose()?
            .map(Duration::from_millis),
        default_lease_ttl: args
            .optional("lease-ttl-ms")
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|e| format!("--lease-ttl-ms {v:?}: {e}"))
            })
            .transpose()?
            .map(Duration::from_millis),
        metrics: metrics.with_trace(trace),
        trace_ring,
        record_hists: defaults.record_hists,
        clock: defaults.clock,
    };
    let summary = network.summary();
    let service = MappingService::new(network, config);
    let addr = args.optional("addr").unwrap_or("127.0.0.1:0");
    let server =
        MappingServer::bind(service, addr).map_err(|e| format!("cannot bind {addr:?}: {e}"))?;
    let bound = server.local_addr();
    if let Some(path) = args.optional("addr-file") {
        files::write(path, &format!("{bound}\n"))?;
    }

    // Block until a client asks for graceful shutdown, then drain.
    while !server.service().is_shutting_down() {
        std::thread::sleep(Duration::from_millis(50));
    }
    let stats = server.service().stats("serve-exit", false);
    server.join();
    Ok(format!(
        "served {} on {bound} until shutdown: {} mapped ({} result hits, {} problem hits, {} misses), {} rejected, {} leases still active\n",
        summary,
        stats.served,
        stats.result_hits,
        stats.problem_hits,
        stats.misses,
        stats.rejected,
        stats.active_leases,
    ))
}

/// `geomap federate` — spin up an N-daemon federation on loopback,
/// drive it through both federation clients, and verify the global
/// ledger.
///
/// Three phases, mirroring the `service_load` bench and the chaos
/// suite:
///
/// 1. **Affinity** (pooled pipelined v2): prime `--requests` distinct
///    problems through the [`FederatedPool`], then repeat the batch —
///    the repeats must land on the shards whose result caches already
///    hold them, measured as the federation-wide result-hit rate.
/// 2. **Reserve/reconcile** (retrying router): keyed reserving maps
///    through the [`ShardRouter`], then release every granted lease
///    and drain reconciliation to empty.
/// 3. **Conservation**: scatter-gather stats and require every daemon
///    back at full capacity with zero active leases.
pub fn federate(args: &Args) -> Result<String, String> {
    let network_csv = files::read(args.required("network")?)?;
    let shards = args.parsed_or("shards", 3usize)?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let requests = args.parsed_or("requests", 24usize)?;
    if requests == 0 {
        return Err("--requests must be at least 1".into());
    }
    let ranks = args.parsed_or("ranks", 8usize)?;
    let pool = args.parsed_or("pool", 2usize)?;
    let timeout = Duration::from_millis(args.parsed_or("timeout-ms", 60_000u64)?);

    // One daemon per shard, each owning its own full-capacity copy of
    // the network (shards are disjoint capacity pools).
    let mut servers = Vec::with_capacity(shards);
    let mut addrs = Vec::with_capacity(shards);
    let caps = netio::from_csv(&network_csv)?.capacities();
    for _ in 0..shards {
        let network = netio::from_csv(&network_csv)?;
        let server = MappingServer::bind(
            MappingService::new(network, ServiceConfig::default()),
            "127.0.0.1:0",
        )
        .map_err(|e| format!("cannot bind federation daemon: {e}"))?;
        addrs.push(server.local_addr().to_string());
        servers.push(server);
    }

    // Distinct problems: same pattern, distinct solver seeds (the seed
    // is a problem-defining field, so each gets its own ring position
    // and its own result-cache entry).
    let pattern_csv = commgraph::apps::AppKind::parse("sp")
        .expect("sp is a known app")
        .workload(ranks)
        .pattern()
        .to_csv();
    let batch: Vec<MapRequest> = (0..requests)
        .map(|i| MapRequest {
            ranks: Some(ranks),
            seed: 0x5C17 + i as u64,
            ..MapRequest::new(format!("fed-prime-{i}"), pattern_csv.clone())
        })
        .collect();

    // Phase 1: prime, then repeat; affinity = result hits on repeat.
    let mut fed_pool = FederatedPool::new(&addrs, pool, Some(timeout));
    for response in fed_pool.map_batch(&batch)? {
        if let Response::Error(e) = response {
            return Err(format!(
                "prime batch rejected: {}: {}",
                e.code.label(),
                e.message
            ));
        }
    }
    let hits_before: u64 = fed_pool.stats()?.iter().map(|s| s.result_hits).sum();
    let repeats: Vec<MapRequest> = batch
        .iter()
        .enumerate()
        .map(|(i, m)| MapRequest {
            id: format!("fed-repeat-{i}"),
            ..m.clone()
        })
        .collect();
    for response in fed_pool.map_batch(&repeats)? {
        if let Response::Error(e) = response {
            return Err(format!(
                "repeat batch rejected: {}: {}",
                e.code.label(),
                e.message
            ));
        }
    }
    let hits_after: u64 = fed_pool.stats()?.iter().map(|s| s.result_hits).sum();
    let affinity = (hits_after - hits_before) as f64 / requests as f64;

    // Phase 2: keyed reserving maps through the retrying router, then
    // release everything and reconcile to quiescence.
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
    let reserving = requests.min(8);
    for i in 0..reserving {
        let request = MapRequest {
            ranks: Some(ranks),
            seed: 0x5C17 + i as u64,
            reserve: true,
            ..MapRequest::new(format!("fed-reserve-{i}"), pattern_csv.clone())
        };
        let routed = router
            .map(request)
            .map_err(|e| format!("reserving map {i}: {e}"))?;
        // Reserve-then-release per round: several problems share a home
        // shard, and one shard cannot hold many ranks-sized leases at
        // once on a small network.
        match &routed.response {
            Response::Map(m) => {
                let lease = m
                    .lease
                    .ok_or_else(|| format!("reserving map {i} granted no lease"))?;
                router
                    .release(routed.shard, lease)
                    .map_err(|e| format!("release of lease {lease}: {e}"))?;
            }
            Response::Error(e) => {
                return Err(format!(
                    "reserving map {i} rejected: {}: {}",
                    e.code.label(),
                    e.message
                ))
            }
            other => return Err(format!("reserving map {i}: unexpected {other:?}")),
        }
    }
    let homes = router.home_answers();
    let failovers = router.failovers();
    let mut spins = 0;
    while router.pending_reconciliations() > 0 {
        router.reconcile();
        spins += 1;
        if spins > 32 {
            return Err("journal reconciliation never settled".into());
        }
    }

    // Phase 3: the global ledger must balance — every shard fully free.
    let stats = router
        .stats()
        .map_err(|e| format!("federated stats: {e}"))?;
    for (i, s) in stats.iter().enumerate() {
        if s.active_leases != 0 || s.free_nodes != caps {
            return Err(format!(
                "shard {i} broke conservation: {} active leases, free {:?} vs capacity {:?}",
                s.active_leases, s.free_nodes, caps
            ));
        }
    }
    let served: u64 = stats.iter().map(|s| s.served).sum();

    fed_pool.shutdown()?;
    for server in servers {
        server.join();
    }
    Ok(format!(
        "federated {shards} shards on loopback: {requests} problems primed + repeated, \
         affinity hit rate {affinity:.2}, {reserving} reserving maps routed \
         ({homes} home, {failovers} failover), {served} served total, \
         all leases reconciled to zero, ledger conserved\n"
    ))
}

/// `geomap churn` — drive a loopback daemon through a seeded drift
/// scenario end-to-end.
///
/// The scenario is the reconciler control loop in miniature:
///
/// 1. place an application on the daemon with a reserving `map` over
///    the wire (real TCP loopback, binary frames);
/// 2. put the placement under [`Reconciler`] watch;
/// 3. for `--rounds` rounds, inject drift with a seeded capacity flip
///    and tick the reconciler — every repair it publishes is printed as
///    a `remap_response` JSON line (lease rebooked in place);
/// 4. finish with one advisory `remap` request over the wire and print
///    its diff too.
///
/// Every printed diff is checked on the spot: migrations within the
/// budget, Eq. 3 cost monotone, `migrations == |moved|` — the CI
/// churn-smoke validator re-checks the same invariants from the
/// emitted lines. Exits non-zero on any violation.
pub fn churn(args: &Args) -> Result<String, String> {
    let network = netio::from_csv(&files::read(args.required("network")?)?)?;
    let ranks = args.parsed_or("ranks", 16usize)?;
    let rounds = args.parsed_or("rounds", 4usize)?;
    let seed = args.parsed_or("seed", 0xD21F7u64)?;
    let budget = args.parsed_or("budget", ranks.div_ceil(4) as u64)?;
    let alpha = args.parsed_or("alpha", 0.0f64)?;
    if !(alpha.is_finite() && alpha >= 0.0) {
        return Err(format!("--alpha {alpha}: must be finite and >= 0"));
    }
    let timeout = Duration::from_millis(args.parsed_or("timeout-ms", 60_000u64)?);

    let server = MappingServer::bind(
        MappingService::new(network, ServiceConfig::default()),
        "127.0.0.1:0",
    )
    .map_err(|e| format!("cannot bind churn daemon: {e}"))?;
    let addr = server.local_addr().to_string();
    let service = Arc::clone(server.service());

    // Phase 1: place the application over the wire.
    let pattern_csv = commgraph::apps::AppKind::parse("sp")
        .expect("sp is a known app")
        .workload(ranks)
        .pattern()
        .to_csv();
    let mut client = ServiceClient::connect_with(&addr, Some(timeout), WireFormat::V2Binary)?;
    let place = MapRequest {
        ranks: Some(ranks),
        reserve: true,
        seed,
        ..MapRequest::new("churn-place", pattern_csv.clone())
    };
    let (mapping, lease) = match client.map(place)? {
        Response::Map(m) => {
            let lease = m
                .lease
                .ok_or_else(|| "placement granted no lease".to_string())?;
            (m.mapping.clone(), lease)
        }
        Response::Error(e) => {
            return Err(format!(
                "placement rejected: {}: {}",
                e.code.label(),
                e.message
            ))
        }
        other => return Err(format!("placement answered {other:?}")),
    };

    // Phase 2: watch it. budget_frac reproduces the caller's absolute
    // budget exactly: ceil(frac * ranks) == budget.
    let rec = Reconciler::new(
        Arc::clone(&service),
        ReconcilerConfig {
            budget_frac: budget as f64 / ranks as f64,
            alpha,
            ..ReconcilerConfig::default()
        },
    );
    let mut placement = WatchedPlacement::new("churn-app", pattern_csv.clone(), mapping);
    placement.lease = Some(lease);
    rec.watch(placement);

    // Phase 3: seeded drift rounds.
    let caps = service.inventory().capacities();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::new();
    let mut moved_total = 0u64;
    let check = |d: &geomap_service::RemapDiffResponse| -> Result<(), String> {
        if d.migrations > budget {
            return Err(format!(
                "diff {} moved {} ranks past the budget of {budget}",
                d.id, d.migrations
            ));
        }
        if d.migrations as usize != d.moved.len() {
            return Err(format!(
                "diff {}: migrations {} disagrees with moved {:?}",
                d.id, d.migrations, d.moved
            ));
        }
        if d.new_cost > d.old_cost {
            return Err(format!(
                "diff {} worsened Eq. 3: {} -> {}",
                d.id, d.old_cost, d.new_cost
            ));
        }
        Ok(())
    };
    for round in 0..rounds {
        let site = rng.random_range(0..caps.len());
        let target = rng.random_range(1..=caps[site] * 2);
        let applied = service.inventory().set_capacity(site, target);
        let report = rec.tick();
        let _ = writeln!(
            out,
            "# round {round}: site {site} capacity -> {applied}, drift score {}",
            report.drift_score
        );
        for diff in &report.diffs {
            check(diff)?;
            moved_total += diff.migrations;
            let _ = writeln!(out, "{}", Response::RemapDiff(diff.clone()).to_line());
        }
    }

    // Phase 4: one advisory remap over the wire from the placement's
    // current (possibly repaired) mapping.
    let current = rec
        .watched_mapping("churn-app")
        .ok_or_else(|| "placement fell off the watch list".to_string())?;
    let mut wire = RemapRequest::new("churn-wire", pattern_csv, current);
    wire.budget = Some(budget);
    wire.alpha = alpha;
    match client.remap(wire)? {
        Response::RemapDiff(d) => {
            check(&d)?;
            let _ = writeln!(out, "{}", Response::RemapDiff(d).to_line());
        }
        Response::Error(e) => {
            return Err(format!(
                "wire remap rejected: {}: {}",
                e.code.label(),
                e.message
            ))
        }
        other => return Err(format!("wire remap answered {other:?}")),
    }

    client.shutdown("churn-bye")?;
    server.join();
    let _ = writeln!(
        out,
        "churn: {rounds} seeded drift rounds on loopback, {} reconciler repairs, \
         {moved_total} ranks migrated (budget {budget}/repair), lease {lease} rebooked in \
         place, wire remap diff verified",
        rec.remaps()
    );
    Ok(out)
}

/// `geomap request` — send one request to a running daemon.
pub fn request(args: &Args) -> Result<String, String> {
    let addr = args.required("addr")?;
    let timeout = Duration::from_millis(args.parsed_or("timeout-ms", 60_000u64)?);
    let id = args.optional("id").unwrap_or("cli").to_string();

    let request = if args.switch("stats") || args.switch("detail") {
        Request::Stats {
            id,
            detail: args.switch("detail"),
        }
    } else if args.switch("trace-dump") {
        Request::TraceDump { id }
    } else if args.switch("shutdown") {
        Request::Shutdown { id }
    } else if let Some(lease) = args.optional("release") {
        Request::Release {
            id,
            lease: lease
                .parse::<u64>()
                .map_err(|e| format!("--release {lease:?}: {e}"))?,
        }
    } else {
        let pattern_csv = files::read(args.required("pattern")?)?;
        let constraints_csv = args.optional("constraints").map(files::read).transpose()?;
        let defaults = CalibSpec::default();
        // `--multilevel` (or `--algorithm multilevel`) routes the solve
        // through the coarsen–map–refine hierarchy; `--ml-cutoff`,
        // `--ml-rounds` and `--ml-passes` tune it.
        let algorithm = if args.switch("multilevel") {
            "multilevel".to_string()
        } else {
            args.optional("algorithm").unwrap_or("geo").to_string()
        };
        let ml = MultilevelSpec::default();
        let multilevel = (algorithm == "multilevel")
            .then(|| -> Result<MultilevelSpec, String> {
                Ok(MultilevelSpec {
                    coarsen_cutoff: args.parsed_or("ml-cutoff", ml.coarsen_cutoff)?,
                    match_rounds: args.parsed_or("ml-rounds", ml.match_rounds)?,
                    refine_passes: args.parsed_or("ml-passes", ml.refine_passes)?,
                })
            })
            .transpose()?;
        Request::Map(MapRequest {
            ranks: args
                .optional("ranks")
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|e| format!("--ranks {v:?}: {e}"))
                })
                .transpose()?,
            constraints_csv,
            algorithm,
            multilevel,
            seed: args.parsed_or("seed", 0x5C17u64)?,
            kappa: args.parsed_or("kappa", 4usize)?,
            samples: args.parsed_or("samples", 10_000usize)?,
            calibration: CalibSpec {
                days: args.parsed_or("calib-days", defaults.days)?,
                probes_per_day: args.parsed_or("calib-probes", defaults.probes_per_day)?,
                noise_cv: args.parsed_or("calib-noise", defaults.noise_cv)?,
                loss_rate: args.parsed_or("calib-loss", defaults.loss_rate)?,
                seed: args.parsed_or("calib-seed", defaults.seed)?,
            },
            idempotency_key: args.optional("idem").map(String::from),
            deadline_ms: args
                .optional("deadline-ms")
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|e| format!("--deadline-ms {v:?}: {e}"))
                })
                .transpose()?,
            reserve: args.switch("reserve"),
            lease_ttl_ms: args
                .optional("lease-ttl-ms")
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|e| format!("--lease-ttl-ms {v:?}: {e}"))
                })
                .transpose()?,
            use_result_cache: !args.switch("no-cache"),
            ..MapRequest::new(id, pattern_csv)
        })
    };

    // `--protocol v1|v2` picks the wire encoding (JSON lines by
    // default); `--pool N` with N > 1 routes through the pooled
    // pipelined client instead of a single connection.
    let format = match args.optional("protocol").unwrap_or("v1") {
        "v1" => WireFormat::V1Json,
        "v2" => WireFormat::V2Binary,
        other => return Err(format!("--protocol {other:?}: expected v1 or v2")),
    };
    let pool = args.parsed_or("pool", 1usize)?;

    // `--retries N` switches to the resilient client: N retries after
    // the first attempt, capped exponential backoff with deterministic
    // jitter starting at `--backoff-ms` (reserving map requests get an
    // auto idempotency key, so a retry can never double-reserve).
    let retries = args.parsed_or("retries", 0u32)?;
    let response = if pool > 1 {
        if retries > 0 {
            return Err("--retries is not supported with --pool; pooled batches fail whole".into());
        }
        let mut client = PooledClient::with_format(addr, pool, Some(timeout), format);
        client
            .pipeline(std::slice::from_ref(&request))?
            .pop()
            .ok_or_else(|| "pooled client returned no response".to_string())?
    } else if retries > 0 {
        let policy = RetryPolicy {
            max_attempts: retries + 1,
            base_backoff: Duration::from_millis(args.parsed_or("backoff-ms", 50u64)?),
            ..RetryPolicy::default()
        };
        let connector = TcpConnector::new(addr, Some(timeout)).with_format(format);
        let mut client = RetryingClient::new(connector, policy);
        match request {
            Request::Map(m) => client.map(m),
            other => client.send(&other),
        }
        .map_err(|e| e.to_string())?
    } else {
        let mut client = ServiceClient::connect_with(addr, Some(timeout), format)?;
        client.send(&request)?
    };
    let line = response.to_line();
    match &response {
        Response::Error(e) => Err(format!(
            "request {:?} rejected: {}: {}",
            e.id,
            e.code.label(),
            e.message
        )),
        Response::Map(m) => {
            if let Some(path) = args.optional("out") {
                let mapping = geomap_core::Mapping::from(m.mapping.clone());
                files::write(path, &files::mapping_to_csv(&mapping))?;
            }
            Ok(format!("{line}\n"))
        }
        _ => Ok(format!("{line}\n")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn argv(s: &str) -> Args {
        Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("geomap-service-cmd-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn request_to_unreachable_address_fails_with_one_line() {
        // TEST-NET-1 is guaranteed unroutable; the refusal must be a
        // single-line diagnostic, not a hang or a panic.
        let pat = tmp("unreachable-pattern.csv");
        files::write(&pat, "src,dst,bytes,msgs\n0,1,10,1\n").unwrap();
        let err = request(&argv(&format!(
            "--addr 127.0.0.1:9 --timeout-ms 300 --pattern {pat}"
        )))
        .unwrap_err();
        assert!(err.contains("connect"), "diagnostic was {err:?}");
        assert!(!err.contains('\n'), "diagnostic must be one line: {err:?}");
    }

    #[test]
    fn serve_requires_a_network() {
        assert!(serve(&argv("")).unwrap_err().contains("--network"));
    }

    #[test]
    fn request_requires_addr_and_pattern() {
        assert!(request(&argv("")).unwrap_err().contains("--addr"));
        assert!(request(&argv("--addr 127.0.0.1:1"))
            .unwrap_err()
            .contains("--pattern"));
    }

    #[test]
    fn federate_requires_a_network_and_sane_counts() {
        assert!(federate(&argv("")).unwrap_err().contains("--network"));
        let net_path = tmp("federate-zero-net.csv");
        crate::commands::network(&argv(&format!("--provider ec2 --nodes 4 --out {net_path}")))
            .unwrap();
        assert!(federate(&argv(&format!("--network {net_path} --shards 0")))
            .unwrap_err()
            .contains("--shards"));
    }

    #[test]
    fn federate_round_trip_on_loopback() {
        let net_path = tmp("federate-net.csv");
        crate::commands::network(&argv(&format!("--provider ec2 --nodes 4 --out {net_path}")))
            .unwrap();
        let out = federate(&argv(&format!(
            "--network {net_path} --shards 3 --requests 9 --ranks 8 --pool 2"
        )))
        .unwrap();
        assert!(out.contains("federated 3 shards"), "got {out}");
        // Routing is deterministic, so every repeat rides straight into
        // its home shard's result cache: perfect affinity.
        assert!(out.contains("affinity hit rate 1.00"), "got {out}");
        assert!(out.contains("ledger conserved"), "got {out}");
    }

    #[test]
    fn churn_requires_a_network_and_sane_alpha() {
        assert!(churn(&argv("")).unwrap_err().contains("--network"));
        let net_path = tmp("churn-alpha-net.csv");
        crate::commands::network(&argv(&format!("--provider ec2 --nodes 4 --out {net_path}")))
            .unwrap();
        assert!(churn(&argv(&format!("--network {net_path} --alpha -1")))
            .unwrap_err()
            .contains("--alpha"));
    }

    /// End-to-end churn on loopback: pinned seed, every emitted
    /// remap_response line respects the budget and cost monotonicity
    /// (the command itself rechecks; this asserts the output shape the
    /// CI validator parses).
    #[test]
    fn churn_round_trip_on_loopback() {
        let net_path = tmp("churn-net.csv");
        crate::commands::network(&argv(&format!("--provider ec2 --nodes 4 --out {net_path}")))
            .unwrap();
        let out = churn(&argv(&format!(
            "--network {net_path} --ranks 16 --rounds 4 --budget 4 --seed 42"
        )))
        .unwrap();
        assert!(out.contains("seeded drift rounds"), "got {out}");
        assert!(out.contains("wire remap diff verified"), "got {out}");
        // At least the wire diff is always emitted.
        let diffs: Vec<&str> = out
            .lines()
            .filter(|l| l.contains("\"kind\":\"remap_response\""))
            .collect();
        assert!(!diffs.is_empty(), "no remap_response lines in {out}");
        for line in diffs {
            assert!(line.contains("\"old_cost\":"), "{line}");
            assert!(line.contains("\"new_cost\":"), "{line}");
            assert!(line.contains("\"moved\":"), "{line}");
        }
    }

    #[test]
    fn serve_then_request_round_trip_on_loopback() {
        let net_path = tmp("serve-net.csv");
        let addr_path = tmp("serve-addr.txt");
        let pat_path = tmp("serve-pattern.csv");
        let map_path = tmp("serve-mapping.csv");
        // A leftover address file from a previous run would point at a
        // dead port; the daemon must be the one to (re)create it.
        let _ = std::fs::remove_file(&addr_path);
        crate::commands::network(&argv(&format!("--provider ec2 --nodes 4 --out {net_path}")))
            .unwrap();
        crate::commands::profile(&argv(&format!("--app sp --ranks 16 --out {pat_path}"))).unwrap();

        let serve_args = argv(&format!(
            "--network {net_path} --addr 127.0.0.1:0 --addr-file {addr_path} --workers 2"
        ));
        let server = std::thread::spawn(move || serve(&serve_args));

        // Wait for the daemon to publish its port.
        let addr = {
            let mut tries = 0;
            loop {
                match std::fs::read_to_string(&addr_path) {
                    Ok(s) if s.trim().contains(':') => break s.trim().to_string(),
                    _ if tries > 100 => panic!("daemon never published its address"),
                    _ => {
                        tries += 1;
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
            }
        };

        let out = request(&argv(&format!(
            "--addr {addr} --pattern {pat_path} --out {map_path}"
        )))
        .unwrap();
        assert!(out.contains("\"kind\":\"map_response\""), "got {out}");
        assert!(std::fs::read_to_string(&map_path)
            .unwrap()
            .starts_with("process,site"));

        // A malformed pattern is a non-zero one-line rejection.
        let bad_pat = tmp("serve-bad-pattern.csv");
        files::write(&bad_pat, "not,a,pattern\n").unwrap();
        let err = request(&argv(&format!("--addr {addr} --pattern {bad_pat}"))).unwrap_err();
        assert!(err.contains("bad_request"), "got {err:?}");
        assert!(!err.contains('\n'));

        // The same map over binary frames (cache hit now) and through
        // the pooled pipelined client: identical response lines modulo
        // the cache tier and timing fields.
        let v2_out = request(&argv(&format!(
            "--addr {addr} --pattern {pat_path} --protocol v2"
        )))
        .unwrap();
        assert!(v2_out.contains("\"kind\":\"map_response\""), "got {v2_out}");
        assert!(v2_out.contains("\"cached\":\"result\""), "got {v2_out}");
        let pooled_out = request(&argv(&format!(
            "--addr {addr} --pattern {pat_path} --pool 3"
        )))
        .unwrap();
        assert!(
            pooled_out.contains("\"cached\":\"result\""),
            "got {pooled_out}"
        );
        assert!(
            request(&argv(&format!("--addr {addr} --protocol v3 --stats")))
                .unwrap_err()
                .contains("expected v1 or v2")
        );

        let stats_out = request(&argv(&format!("--addr {addr} --stats --protocol v2"))).unwrap();
        assert!(stats_out.contains("\"served\":3"), "got {stats_out}");

        let bye = request(&argv(&format!("--addr {addr} --shutdown"))).unwrap();
        assert!(bye.contains("\"kind\":\"shutdown_response\""), "got {bye}");
        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("until shutdown"), "got {summary}");
    }
}
