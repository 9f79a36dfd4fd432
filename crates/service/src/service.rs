//! The mapping engine behind the daemon: request handling, the
//! two-tier cache and the inventory, independent of any transport.
//!
//! [`MappingService::handle`] is the whole service as a plain function
//! call — the **single-process in-memory mode**. The TCP front-end
//! ([`crate::server`]) adds sockets, the admission queue and the worker
//! pool around it; deterministic tests drive this type directly so no
//! scheduler interleaving can hide in the assertions.
//!
//! A `map` request runs the same stages as the batch pipeline
//! (`geomap_core::pipeline::run_with_pattern`) and is bit-identical to
//! it for the same seeds — verified by `tests/service_behavior.rs`:
//!
//! 1. parse + validate the embedded pattern/constraints CSV — once per
//!    problem text: two memos over the verbatim request fields map a
//!    request (or, for new solver fields, its problem text) straight to
//!    the cache keys below,
//! 2. **result cache**: identical `(problem, algorithm, seed)` → the
//!    stored mapping, no solve at all,
//! 3. **problem cache**: identical `(network, calibration, pattern,
//!    constraints)` → the calibrated estimate and assembled
//!    [`MappingProblem`] (with its cached partner lists) are reused, so
//!    only the solve runs — repeated topologies skip the probing
//!    campaign and problem assembly, though each solve and remap still
//!    builds its own `CostTables`,
//! 4. full miss: calibrate, assemble, solve, populate both tiers,
//! 5. optionally reserve the placement in the [`ClusterInventory`].

use crate::cache::FingerprintCache;
use crate::clock::{Clock, WallClock};
use crate::federation::LeaseJournal;
use crate::fingerprint::Fingerprint;
use crate::hist::{HistKind, HistSet, SCHEMA_VERSION};
use crate::inventory::{ClusterInventory, RebookError};
use crate::proto::{
    CacheTier, CalibSpec, ErrorCode, ErrorResponse, HistSummary, JournalResponse, MapRequest,
    MapResponse, RemapDiffResponse, RemapRequest, Request, Response, StatsDetail, StatsResponse,
    TraceDumpResponse, WireTraceEvent, WireTrack,
};
use baselines::MapperSpec;
use commgraph::CommPattern;
use geomap_core::{
    cost, repair_with_tables, ConstraintVector, CostModel, CostTables, Mapping, MappingProblem,
    Metrics, MultilevelConfig, RemapConfig, RingBufferSink, TraceEventKind, TraceScope,
};
use geonet::{io as netio, Calibrator, SiteId, SiteNetwork};
use std::collections::HashSet;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for a service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads the TCP front-end runs (the in-memory mode is
    /// whatever the caller's thread structure is).
    pub workers: usize,
    /// Admission queue bound; requests beyond it are rejected with
    /// `over_capacity` (backpressure, not buffering).
    pub queue_capacity: usize,
    /// Entries held by the calibration/problem cache.
    pub problem_cache_capacity: usize,
    /// Entries held by the solved-result cache.
    pub result_cache_capacity: usize,
    /// Entries held by the idempotency-replay cache (successful `map`
    /// responses remembered per client key so retries never re-execute;
    /// 0 disables replay).
    pub idempotency_cache_capacity: usize,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline: Option<Duration>,
    /// Lease TTL applied to reservations that don't carry their own
    /// (`None`: leases live until explicit teardown).
    pub default_lease_ttl: Option<Duration>,
    /// Observability: request-phase timings and cache/inventory
    /// counters land under the `service` scope. Its trace gets one
    /// track per front-end worker and is also threaded into the
    /// mappers' own search spans (the mappers' metrics stay off).
    pub metrics: Metrics,
    /// The ring behind the trace, when the daemon should answer
    /// [`Request::TraceDump`] — `geomap observe` collects these rings
    /// fleet-wide and merges them into one timeline. `None` (the
    /// default) rejects dump requests; the trace handle itself may
    /// still stream elsewhere.
    pub trace_ring: Option<Arc<RingBufferSink>>,
    /// Record per-request-kind latency histograms (queue wait, solve,
    /// end-to-end), sharded per worker and merged on `stats` reads.
    /// The off path is a single bool check per request — the criterion
    /// contract in `bench` pins its overhead.
    pub record_hists: bool,
    /// The clock lease expiry (inventory and journal) reads. Production
    /// is [`WallClock`]; deterministic tests inject a
    /// [`crate::clock::VirtualClock`] shared with the fault plan so
    /// chaos storms can expire leases mid-scenario on schedule.
    pub clock: Arc<dyn Clock>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(2, |p| p.get().min(8)),
            queue_capacity: 256,
            problem_cache_capacity: 64,
            result_cache_capacity: 512,
            idempotency_cache_capacity: 1024,
            default_deadline: None,
            default_lease_ttl: None,
            metrics: Metrics::off(),
            trace_ring: None,
            record_hists: true,
            clock: Arc::new(WallClock),
        }
    }
}

/// A calibrated, assembled problem shared across requests.
#[derive(Debug)]
pub struct PreparedProblem {
    /// The problem as the optimizer sees it (estimated network,
    /// partner lists built).
    pub problem: Arc<MappingProblem>,
    /// Probes the calibration campaign issued (stats surface).
    pub calibration_probes: usize,
    /// True when the campaign starved some site pair and fell back to
    /// last-known-good `LT`/`BT` entries.
    pub degraded: bool,
    /// How many calibration generations old those fallback entries are.
    pub staleness: u64,
}

/// A solved mapping shared across identical requests.
#[derive(Debug)]
pub struct SolvedResult {
    /// The mapping.
    pub mapping: Mapping,
    /// Its Eq. 3 cost under the calibrated estimate.
    pub cost: f64,
    /// Degradation carried from the problem this was solved against.
    pub degraded: bool,
    /// Staleness carried from the problem this was solved against.
    pub staleness: u64,
}

/// The last calibration that measured every pair, kept as the fallback
/// for campaigns that lose probes.
#[derive(Debug, Clone)]
struct LastGoodCalibration {
    estimated: SiteNetwork,
    generation: u64,
}

/// A remembered successful `map` response, replayed when its
/// idempotency key comes back.
#[derive(Debug)]
struct IdemEntry {
    /// Fingerprint of the request the key was first used with; a key
    /// reused with a different request is a client bug, not a retry.
    request_fp: u64,
    response: Response,
}

/// Idempotency keys with a solve currently in flight. Lookup and
/// execution must be single-flight per key: a retry that lands while
/// the original request is still solving would miss the replay cache
/// (the entry is only published after the solve), solve again, and
/// reserve a second lease. Duplicates park on the condvar until the
/// owner releases the key.
#[derive(Debug, Default)]
struct Inflight {
    keys: Mutex<HashSet<u64>>,
    done: Condvar,
}

/// Ownership of an in-flight idempotency key; dropping it (any exit
/// path out of `handle_map` — success, rejection, or solver panic)
/// releases the key and wakes parked duplicates.
struct InflightGuard<'a> {
    inflight: &'a Inflight,
    key_fp: u64,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let mut keys = self.inflight.keys.lock().expect("inflight lock");
        keys.remove(&self.key_fp);
        drop(keys);
        self.inflight.done.notify_all();
    }
}

/// Feed a calibration spec's fields to a request-key hasher.
fn hash_calibration(c: &CalibSpec, h: &mut DefaultHasher) {
    c.days.hash(h);
    c.probes_per_day.hash(h);
    c.noise_cv.to_bits().hash(h);
    c.loss_rate.to_bits().hash(h);
    c.seed.hash(h);
}

/// The transport-independent mapping service.
pub struct MappingService {
    network: SiteNetwork,
    network_fp: u64,
    config: ServiceConfig,
    inventory: ClusterInventory,
    problems: FingerprintCache<Arc<PreparedProblem>>,
    results: FingerprintCache<Arc<SolvedResult>>,
    /// Raw-request fingerprint → `(problem_key, result_key)`. Parsing
    /// and re-canonicalizing the embedded CSV dominates a cache-hit
    /// request, so requests whose *raw text* already validated skip
    /// straight to the cache keys. Only successfully validated requests
    /// are memoized — error paths always re-derive their message.
    request_memo: FingerprintCache<(u64, u64)>,
    /// Raw problem-field fingerprint → `problem_key`: the second memo,
    /// behind `request_memo`. It answers a request whose solver fields
    /// are new but whose problem text already validated — the same
    /// pattern under another solver seed, or a remap of a mapped
    /// problem — so each problem text is parsed once per daemon (while
    /// its entries stay cached).
    problem_memo: FingerprintCache<u64>,
    /// Pattern/constraints CSV parses run ([`MappingService::parses`]).
    parses: AtomicU64,
    idempotent: FingerprintCache<Arc<IdemEntry>>,
    journal: LeaseJournal,
    inflight: Inflight,
    last_good: Mutex<Option<LastGoodCalibration>>,
    calib_generation: AtomicU64,
    metrics: Metrics,
    hists: HistSet,
    queue_depth: AtomicU64,
    max_queue_depth: AtomicU64,
    served: AtomicU64,
    result_hits: AtomicU64,
    problem_hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    replays: AtomicU64,
    shutdown: AtomicBool,
}

impl MappingService {
    /// A service fronting `network` (the ground-truth cluster whose
    /// nodes the inventory tracks and whose calibration requests see).
    pub fn new(network: SiteNetwork, config: ServiceConfig) -> Self {
        let network_fp = Fingerprint::new().str(&netio::to_csv(&network)).finish();
        let memo_capacity = config
            .result_cache_capacity
            .max(config.problem_cache_capacity);
        Self {
            inventory: ClusterInventory::with_clock(
                network.capacities(),
                Arc::clone(&config.clock),
            ),
            problems: FingerprintCache::new(config.problem_cache_capacity),
            results: FingerprintCache::new(config.result_cache_capacity),
            request_memo: FingerprintCache::new(memo_capacity),
            problem_memo: FingerprintCache::new(memo_capacity),
            parses: AtomicU64::new(0),
            idempotent: FingerprintCache::new(config.idempotency_cache_capacity),
            journal: LeaseJournal::new(Arc::clone(&config.clock)),
            inflight: Inflight::default(),
            last_good: Mutex::new(None),
            calib_generation: AtomicU64::new(0),
            metrics: config.metrics.scoped("service"),
            hists: if config.record_hists {
                HistSet::new(config.workers)
            } else {
                HistSet::off()
            },
            queue_depth: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
            network,
            network_fp,
            config,
            served: AtomicU64::new(0),
            result_hits: AtomicU64::new(0),
            problem_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            replays: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// The cluster this service fronts.
    pub fn network(&self) -> &SiteNetwork {
        &self.network
    }

    /// The configuration this service runs with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// How many times this service parsed a request's pattern and
    /// constraints CSV, failed parses included. The memos keep it at one
    /// parse per distinct problem text while its entries stay cached.
    pub fn parses(&self) -> u64 {
        self.parses.load(Ordering::Relaxed)
    }

    /// The inventory (tests assert conservation through this).
    pub fn inventory(&self) -> &ClusterInventory {
        &self.inventory
    }

    /// The shard-local lease journal (the federation router reconciles
    /// through [`Request::Journal`]; tests inspect it directly).
    pub fn journal(&self) -> &LeaseJournal {
        &self.journal
    }

    /// Ask the service to stop accepting new mapping work. In-flight
    /// and queued requests still complete (the front-end drains).
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once [`MappingService::begin_shutdown`] was called.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Handle any request in-process (queue wait = 0). This is the
    /// deterministic single-process mode; the TCP server routes every
    /// decoded request through the same code. New mapping work is
    /// refused once shutdown began — the TCP front-end gates admission
    /// itself (at accept time) so already-queued requests still drain.
    pub fn handle(&self, request: &Request) -> Response {
        self.handle_on(request, 0, TraceScope::off())
    }

    /// [`MappingService::handle`] with an explicit histogram shard (the
    /// TCP front-end passes its worker index so recording never
    /// contends across reactors) and a trace scope (the worker's track)
    /// for request-internal spans.
    pub fn handle_on(&self, request: &Request, shard: usize, scope: TraceScope<'_>) -> Response {
        let start = self.hists.enabled().then(Instant::now);
        let (response, kind) = match request {
            Request::Map(m) => {
                if self.is_shutting_down() {
                    return self.reject(
                        &m.id,
                        ErrorCode::ShuttingDown,
                        "daemon is draining; not accepting new mapping requests".into(),
                    );
                }
                return self.handle_map_on(m, 0.0, shard, scope);
            }
            Request::Release { id, lease } => {
                (self.handle_release(id, *lease), HistKind::ReleaseE2e)
            }
            Request::Stats { id, detail } => {
                (Response::Stats(self.stats(id, *detail)), HistKind::StatsE2e)
            }
            Request::TraceDump { id } => return self.trace_dump(id),
            Request::Journal { id, key } => return self.handle_journal(id, key),
            Request::Remap(r) => {
                if self.is_shutting_down() {
                    return self.reject(
                        &r.id,
                        ErrorCode::ShuttingDown,
                        "daemon is draining; not accepting new mapping requests".into(),
                    );
                }
                return self.handle_remap(r, scope);
            }
            Request::Shutdown { id } => {
                self.begin_shutdown();
                return Response::Shutdown {
                    id: id.clone(),
                    draining: 0,
                };
            }
        };
        if let Some(start) = start {
            self.hists
                .record_secs(kind, shard, start.elapsed().as_secs_f64());
        }
        response
    }

    /// Handle a `map` request that already waited `queue_wait_s` in an
    /// admission queue (0 for the in-memory mode). No shutdown gate
    /// here: the caller decides admission, so a draining server can
    /// still finish what it admitted.
    pub fn handle_map(&self, m: &MapRequest, queue_wait_s: f64) -> Response {
        self.handle_map_on(m, queue_wait_s, 0, TraceScope::off())
    }

    /// [`MappingService::handle_map`] with an explicit histogram shard
    /// and the worker's trace scope. When the request carries a sampled
    /// [`TraceContext`](crate::proto::TraceContext), the scope's track
    /// is tagged with the trace id (a `trace` counter sample) so the
    /// fleet-timeline merge can follow one request across daemons.
    pub fn handle_map_on(
        &self,
        m: &MapRequest,
        queue_wait_s: f64,
        shard: usize,
        scope: TraceScope<'_>,
    ) -> Response {
        let start = self.hists.enabled().then(Instant::now);
        if scope.enabled() {
            if let Some(t) = &m.trace {
                if t.sampled {
                    #[allow(clippy::cast_precision_loss)] // trace ids are 53-bit
                    scope.counter("trace", t.trace_id as f64);
                }
            }
        }
        let response = self.handle_map_inner(m, queue_wait_s, shard, scope);
        if let Some(start) = start {
            let e2e = queue_wait_s + start.elapsed().as_secs_f64();
            self.hists.record_secs(HistKind::MapE2e, shard, e2e);
            self.hists
                .record_secs(HistKind::MapQueueWait, shard, queue_wait_s);
        }
        response
    }

    fn handle_map_inner(
        &self,
        m: &MapRequest,
        queue_wait_s: f64,
        shard: usize,
        scope: TraceScope<'_>,
    ) -> Response {
        self.metrics.counter("requests", 1);
        self.metrics.timing("phase.queue_wait", queue_wait_s);

        // Parse + validate everything the request embeds before any
        // expensive work; every failure is a `bad_request`, never a
        // panic (this is a network-facing daemon).
        let n = m.ranks.unwrap_or_else(|| self.network.total_nodes());
        if n == 0 {
            return self.reject(
                &m.id,
                ErrorCode::BadRequest,
                "ranks must be positive".into(),
            );
        }
        if self.network.total_nodes() < n {
            return self.reject(
                &m.id,
                ErrorCode::BadRequest,
                format!(
                    "{n} processes exceed the cluster's {} nodes",
                    self.network.total_nodes()
                ),
            );
        }
        // Fast path: a request whose raw text already parsed, validated
        // and produced cache keys skips the CSV parse entirely — on a
        // result-cache hit the parse *was* the request. Keyed over the
        // verbatim request fields (any formatting difference falls
        // through to the slow path, whose parsed-problem keys still
        // unify it with its equivalents). This key never leaves the
        // process, so it is std's SipHash, which reads a pattern CSV
        // about 5x faster than a byte-wise FNV — on a result hit, that
        // hash was most of the work.
        let raw_fp = {
            let mut h = DefaultHasher::new();
            self.network_fp.hash(&mut h);
            n.hash(&mut h);
            hash_calibration(&m.calibration, &mut h);
            m.pattern_csv.hash(&mut h);
            m.constraints_csv.hash(&mut h);
            m.algorithm.hash(&mut h);
            m.seed.hash(&mut h);
            m.kappa.hash(&mut h);
            m.samples.hash(&mut h);
            m.multilevel
                .map(|ml| (ml.coarsen_cutoff, ml.match_rounds, ml.refine_passes))
                .hash(&mut h);
            h.finish()
        };
        let mut parsed: Option<(CommPattern, ConstraintVector)> = None;
        let (problem_key, result_key) = match self.request_memo.get(raw_fp) {
            Some(keys) => keys,
            None => {
                // New solver fields; the problem text may still be known.
                let text_fp = self.problem_text_fp(
                    n,
                    &m.calibration,
                    &m.pattern_csv,
                    m.constraints_csv.as_deref(),
                );
                let problem_key = match self.problem_memo.get(text_fp) {
                    Some(key) => key,
                    None => {
                        let (pattern, constraints) = match self.parse_and_validate(
                            &m.id,
                            n,
                            &m.pattern_csv,
                            m.constraints_csv.as_deref(),
                        ) {
                            Ok(pc) => pc,
                            Err(resp) => return *resp,
                        };
                        let key = self.problem_key(n, &m.calibration, &pattern, &constraints);
                        self.problem_memo.insert(text_fp, key);
                        parsed = Some((pattern, constraints));
                        key
                    }
                };
                // The multilevel spec is fingerprinted as (presence,
                // values): the same problem solved direct and
                // multilevel — or with different knobs — are different
                // results and must never share a cache entry.
                let result_key = Fingerprint::new()
                    .u64(problem_key)
                    .str(&m.algorithm)
                    .u64(m.seed)
                    .u64(m.kappa as u64)
                    .u64(m.samples as u64)
                    .u64(m.multilevel.is_some() as u64)
                    .u64(m.multilevel.map_or(0, |ml| ml.coarsen_cutoff as u64))
                    .u64(m.multilevel.map_or(0, |ml| ml.match_rounds as u64))
                    .u64(m.multilevel.map_or(0, |ml| ml.refine_passes as u64))
                    .finish();
                self.request_memo.insert(raw_fp, (problem_key, result_key));
                (problem_key, result_key)
            }
        };

        // Idempotency: a key that already produced a successful response
        // replays it verbatim — same mapping, same lease — so a client
        // that lost the response can retry without re-reserving. The
        // key is bound to the request it first arrived with; reuse with
        // different content is a client bug. Lookup is single-flight:
        // a duplicate arriving while the original is still solving
        // parks until the first response is published, so even a
        // mid-solve retry can never reserve a second lease.
        let idem = m.idempotency_key.as_deref().map(|key| {
            let key_fp = Fingerprint::new().str(key).finish();
            // The TTL is fingerprinted as (presence, value): folding
            // absence into a sentinel value would make an explicit
            // `lease_ttl_ms = <sentinel>` indistinguishable from "no
            // TTL" and replay the wrong cached response.
            let request_fp = Fingerprint::new()
                .u64(result_key)
                .u64(m.reserve as u64)
                .u64(m.lease_ttl_ms.is_some() as u64)
                .u64(m.lease_ttl_ms.unwrap_or(0))
                .finish();
            (key_fp, request_fp)
        });
        let _inflight = match idem {
            Some((key_fp, request_fp)) => match self.claim_key(&m.id, key_fp, request_fp) {
                Ok(guard) => Some(guard),
                Err(response) => return *response,
            },
            None => None,
        };

        let solve_start = Instant::now();
        let (solved, tier) = if let Some(hit) = m
            .use_result_cache
            .then(|| self.results.get(result_key))
            .flatten()
        {
            self.result_hits.fetch_add(1, Ordering::Relaxed);
            self.metrics.counter("cache.result_hit", 1);
            scope.instant("cache.result_hit");
            (hit, CacheTier::Result)
        } else {
            let (prepared, tier) = match self.problems.get(problem_key) {
                Some(p) => {
                    self.count_problem_hit(scope);
                    (p, CacheTier::Problem)
                }
                None => {
                    self.count_miss(scope);
                    // A memo hit skipped the parse; a problem-cache miss
                    // is the one path that still needs the parsed
                    // pattern and constraints, so they materialize here
                    // (the memo only holds requests that validated, so
                    // this re-parse cannot newly fail).
                    let (pattern, constraints) = match parsed.take() {
                        Some(pc) => pc,
                        None => match self.parse_and_validate(
                            &m.id,
                            n,
                            &m.pattern_csv,
                            m.constraints_csv.as_deref(),
                        ) {
                            Ok(pc) => pc,
                            Err(resp) => return *resp,
                        },
                    };
                    let prepared = match self.calibrate_prepare(
                        &m.id,
                        pattern,
                        constraints,
                        &m.calibration,
                        scope,
                    ) {
                        Ok(p) => p,
                        Err(resp) => return *resp,
                    };
                    self.problems.insert(problem_key, prepared.clone());
                    (prepared, CacheTier::Miss)
                }
            };
            scope.span_begin("solve");
            let outcome = self.solve(m, &prepared);
            scope.span_end("solve");
            match outcome {
                Ok(solved) => {
                    let solved = Arc::new(solved);
                    self.results.insert(result_key, solved.clone());
                    (solved, tier)
                }
                Err(resp) => return *resp,
            }
        };
        let solve_s = if tier == CacheTier::Result {
            0.0
        } else {
            let s = solve_start.elapsed().as_secs_f64();
            self.hists.record_secs(HistKind::MapSolve, shard, s);
            s
        };
        self.metrics.timing("phase.solve", solve_s);

        // Optional placement: all-or-nothing against the inventory.
        let site_counts = solved.mapping.site_counts(self.network.num_sites());
        let lease = if m.reserve {
            let ttl = m
                .lease_ttl_ms
                .map(Duration::from_millis)
                .or(self.config.default_lease_ttl);
            scope.span_begin("reserve");
            let reserved = self.inventory.reserve(&site_counts, ttl);
            scope.span_end("reserve");
            match reserved {
                Ok(lease) => {
                    // Journal keyed reservations: the federation router
                    // reconciles cross-shard retries by asking "which
                    // lease does this key hold *here*?"
                    if let Some(key) = m.idempotency_key.as_deref() {
                        self.journal.record(key, lease, &site_counts);
                    }
                    Some(lease)
                }
                Err(e) => {
                    return self.reject(&m.id, ErrorCode::InsufficientNodes, e.to_string());
                }
            }
        } else {
            None
        };

        self.served.fetch_add(1, Ordering::Relaxed);
        let free_nodes = self.inventory.free_nodes();
        self.metrics.gauge(
            "inventory.free_total",
            free_nodes.iter().sum::<usize>() as f64,
        );
        let response = Response::Map(MapResponse {
            id: m.id.clone(),
            mapping: solved
                .mapping
                .as_slice()
                .iter()
                .map(|s| s.index())
                .collect(),
            cost: solved.cost,
            cached: tier,
            queue_wait_s,
            solve_s,
            lease,
            site_counts,
            free_nodes,
            degraded: solved.degraded,
            staleness: solved.staleness,
        });
        // Remember the success under its idempotency key so a retry of
        // the same request replays this exact response (same lease —
        // never a second reservation). Must happen before `_inflight`
        // drops: parked duplicates re-check the cache the moment the
        // key is released.
        if let Some((key_fp, request_fp)) = idem {
            if self.config.idempotency_cache_capacity > 0 {
                self.idempotent.insert(
                    key_fp,
                    Arc::new(IdemEntry {
                        request_fp,
                        response: response.clone(),
                    }),
                );
            }
        }
        response
    }

    /// Parse and validate the CSV payloads a `map` or `remap` request
    /// embeds; every failure is a `bad_request`, never a panic (this is
    /// a network-facing daemon).
    fn parse_and_validate(
        &self,
        id: &str,
        n: usize,
        pattern_csv: &str,
        constraints_csv: Option<&str>,
    ) -> Result<(CommPattern, ConstraintVector), Box<Response>> {
        self.parses.fetch_add(1, Ordering::Relaxed);
        let pattern = CommPattern::from_csv(n, pattern_csv).map_err(|e| {
            Box::new(self.reject(id, ErrorCode::BadRequest, format!("bad pattern CSV: {e}")))
        })?;
        let constraints = match constraints_csv {
            None => ConstraintVector::none(n),
            Some(csv) => crate::parse_constraints(n, csv).map_err(|e| {
                Box::new(self.reject(
                    id,
                    ErrorCode::BadRequest,
                    format!("bad constraints CSV: {e}"),
                ))
            })?,
        };
        if let Err(e) = self.feasible(&constraints) {
            return Err(Box::new(self.reject(id, ErrorCode::BadRequest, e)));
        }
        Ok((pattern, constraints))
    }

    /// SipHash of the fields that define a problem, verbatim as the
    /// request carries them — the `problem_memo` key. Text that differs
    /// only in formatting hashes apart here and is unified by
    /// [`MappingService::problem_key`] after its one parse.
    fn problem_text_fp(
        &self,
        n: usize,
        calibration: &CalibSpec,
        pattern_csv: &str,
        constraints_csv: Option<&str>,
    ) -> u64 {
        let mut h = DefaultHasher::new();
        self.network_fp.hash(&mut h);
        n.hash(&mut h);
        hash_calibration(calibration, &mut h);
        pattern_csv.hash(&mut h);
        constraints_csv.hash(&mut h);
        h.finish()
    }

    /// The problem-cache key, shared by `map` and `remap`: the network,
    /// the rank count (neither CSV encodes it), the calibration campaign
    /// and the parsed problem — every edge as `(src, dst, bytes, msgs)`
    /// bits and every pin — so requests that differ only in CSV
    /// formatting, row order or split repeated rows share one entry.
    /// SipHash: the key never leaves the process.
    fn problem_key(
        &self,
        n: usize,
        calibration: &CalibSpec,
        pattern: &CommPattern,
        constraints: &ConstraintVector,
    ) -> u64 {
        let mut h = DefaultHasher::new();
        self.network_fp.hash(&mut h);
        n.hash(&mut h);
        hash_calibration(calibration, &mut h);
        // The edge count delimits the edges from the pins that follow.
        pattern.num_edges().hash(&mut h);
        for src in 0..pattern.n() {
            for e in pattern.out_edges(src) {
                (src, e.dst, e.bytes.to_bits(), e.msgs.to_bits()).hash(&mut h);
            }
        }
        for (i, pin) in constraints.iter().enumerate() {
            if let Some(site) = pin {
                (i, site.index()).hash(&mut h);
            }
        }
        h.finish()
    }

    /// Count a problem-cache hit (service counter, metric, trace instant).
    fn count_problem_hit(&self, scope: TraceScope<'_>) {
        self.problem_hits.fetch_add(1, Ordering::Relaxed);
        self.metrics.counter("cache.problem_hit", 1);
        scope.instant("cache.problem_hit");
    }

    /// Count a full cache miss (service counter, metric, trace instant).
    fn count_miss(&self, scope: TraceScope<'_>) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.metrics.counter("cache.miss", 1);
        scope.instant("cache.miss");
    }

    /// Run a calibration campaign and assemble the [`PreparedProblem`]
    /// — the problem-cache miss path, shared by `map` and `remap` (both
    /// key the same cache, so a remap for a pattern the daemon already
    /// mapped skips the campaign entirely). Each fresh campaign is a
    /// calibration generation; lossy campaigns that starve a pair fall
    /// back to the last generation that measured everything and report
    /// how many generations old that is.
    fn calibrate_prepare(
        &self,
        id: &str,
        pattern: CommPattern,
        constraints: ConstraintVector,
        calibration: &CalibSpec,
        scope: TraceScope<'_>,
    ) -> Result<Arc<PreparedProblem>, Box<Response>> {
        let generation = self.calib_generation.fetch_add(1, Ordering::SeqCst) + 1;
        let fallback = self.last_good.lock().expect("calibration lock").clone();
        let report = self
            .metrics
            .phase(scope, "calibrate", "phase.calibrate", || {
                Calibrator::new(calibration.to_config())
                    .calibrate_resilient(&self.network, fallback.as_ref().map(|g| &g.estimated))
            });
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                return Err(Box::new(self.reject(
                    id,
                    ErrorCode::Degraded,
                    format!("calibration failed: {e}"),
                )))
            }
        };
        let staleness = if report.degraded {
            self.metrics.counter("calibration.degraded", 1);
            // Saturating: a concurrent request can take a later
            // generation, finish clean, and store a last-good *newer*
            // than this thread's generation — staleness then floors at
            // 0 instead of underflowing.
            fallback
                .as_ref()
                .map_or(0, |g| generation.saturating_sub(g.generation))
        } else {
            let mut good = self.last_good.lock().expect("calibration lock");
            let fresher = good.as_ref().is_none_or(|g| g.generation < generation);
            if fresher {
                *good = Some(LastGoodCalibration {
                    estimated: report.estimated.clone(),
                    generation,
                });
            }
            0
        };
        Ok(Arc::new(PreparedProblem {
            problem: Arc::new(MappingProblem::new(
                pattern,
                report.estimated.clone(),
                constraints,
            )),
            calibration_probes: report.probes,
            degraded: report.degraded,
            staleness,
        }))
    }

    /// Single-flight admission for an idempotency key: exactly one
    /// request per key may execute at a time. The first caller claims
    /// the key (guard returned); concurrent duplicates park here until
    /// the owner publishes its response and releases the key, then
    /// replay the stored response — or, if the owner failed (nothing
    /// published, nothing reserved), claim the key themselves. `Err` is
    /// the finished response to return: a replay, or a `bad_request`
    /// when the key is reused with different request content.
    fn claim_key(
        &self,
        id: &str,
        key_fp: u64,
        request_fp: u64,
    ) -> Result<InflightGuard<'_>, Box<Response>> {
        let mut keys = self.inflight.keys.lock().expect("inflight lock");
        loop {
            if !keys.contains(&key_fp) {
                // No owner in flight, so the replay cache is settled for
                // this key: an owner publishes its entry before the
                // guard releases the key.
                if let Some(entry) = self.idempotent.get(key_fp) {
                    if entry.request_fp != request_fp {
                        drop(keys);
                        return Err(Box::new(self.reject(
                            id,
                            ErrorCode::BadRequest,
                            "idempotency key reused with a different request".into(),
                        )));
                    }
                    self.replays.fetch_add(1, Ordering::Relaxed);
                    self.metrics.counter("idempotency.replay", 1);
                    return Err(Box::new(entry.response.clone()));
                }
                keys.insert(key_fp);
                return Ok(InflightGuard {
                    inflight: &self.inflight,
                    key_fp,
                });
            }
            keys = self.inflight.done.wait(keys).expect("inflight lock");
        }
    }

    /// Run the requested mapper; panics inside the solver surface as an
    /// `internal` error response instead of killing a worker thread.
    fn solve(
        &self,
        m: &MapRequest,
        prepared: &PreparedProblem,
    ) -> Result<SolvedResult, Box<Response>> {
        let problem = &*prepared.problem;
        let ml = m.multilevel.unwrap_or_default();
        let spec = MapperSpec {
            seed: m.seed,
            kappa: m.kappa,
            samples: m.samples,
            multilevel: MultilevelConfig {
                coarsen_cutoff: ml.coarsen_cutoff,
                match_rounds: ml.match_rounds,
                refine_passes: ml.refine_passes,
            },
            metrics: Metrics::off().with_trace(self.metrics.trace().clone()),
        };
        let mapper = baselines::mapper_for(&m.algorithm, &spec)
            .map_err(|e| Box::new(self.reject(&m.id, ErrorCode::BadRequest, e)))?;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mapping = mapper.map(problem);
            let cost = cost(problem, &mapping);
            mapping.validate(problem).map(|()| SolvedResult {
                mapping,
                cost,
                degraded: prepared.degraded,
                staleness: prepared.staleness,
            })
        }));
        match outcome {
            Ok(Ok(solved)) => Ok(solved),
            Ok(Err(e)) => Err(Box::new(self.reject(
                &m.id,
                ErrorCode::Internal,
                format!("solver produced an infeasible mapping: {e}"),
            ))),
            Err(panic) => {
                let what = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("unknown panic");
                Err(Box::new(self.reject(
                    &m.id,
                    ErrorCode::Internal,
                    format!("solver panicked: {what}"),
                )))
            }
        }
    }

    fn handle_release(&self, id: &str, lease: u64) -> Response {
        match self.inventory.release(lease) {
            Ok(freed) => {
                self.journal.forget_lease(lease);
                Response::Release {
                    id: id.to_string(),
                    freed,
                    free_nodes: self.inventory.free_nodes(),
                }
            }
            Err(message) => self.reject(id, ErrorCode::UnknownLease, message),
        }
    }

    /// Answer a lease-journal lookup: does this daemon hold a *live*
    /// lease granted under `key`? The journal remembers the grant, the
    /// inventory decides liveness (released or TTL-expired leases
    /// answer `held: false`, and their journal entries are evicted).
    fn handle_journal(&self, id: &str, key: &str) -> Response {
        let entry = self.journal.lookup(key);
        match entry {
            Some(e) => match self.inventory.lease_counts(e.lease) {
                Some(site_counts) => Response::Journal(JournalResponse {
                    id: id.to_string(),
                    key: key.to_string(),
                    held: true,
                    lease: Some(e.lease),
                    site_counts,
                }),
                None => {
                    // The lease died since it was journaled (expired,
                    // or released by lease id without a key in hand).
                    // Evict conditionally: a concurrent keyed
                    // re-reserve may have journaled a fresh live lease
                    // under this key since the lookup above, and that
                    // entry must stay findable.
                    self.journal.forget_if(key, e.lease);
                    Response::Journal(JournalResponse {
                        id: id.to_string(),
                        key: key.to_string(),
                        held: false,
                        lease: None,
                        site_counts: Vec::new(),
                    })
                }
            },
            None => Response::Journal(JournalResponse {
                id: id.to_string(),
                key: key.to_string(),
                held: false,
                lease: None,
                site_counts: Vec::new(),
            }),
        }
    }

    /// Repair a drifted mapping online: bounded-migration local search
    /// from the request's current assignment
    /// ([`geomap_core::remap::repair_with_tables`]) against the *live*
    /// inventory — the capacity offered to the repair at each site is
    /// the free pool plus what the caller already holds there (its
    /// named lease, or its current footprint when no lease is named),
    /// so a migration never lands on nodes another tenant has leased.
    /// When the request names a lease, the repaired placement is
    /// rebooked onto it atomically (same lease id — the exactly-once
    /// story never sees a release/reserve pair).
    pub fn handle_remap(&self, r: &RemapRequest, scope: TraceScope<'_>) -> Response {
        self.metrics.counter("remap.requests", 1);
        let n = r.mapping.len();
        let num_sites = self.network.num_sites();
        if n == 0 {
            return self.reject(
                &r.id,
                ErrorCode::BadRequest,
                "remap needs a non-empty mapping".into(),
            );
        }
        if let Some(&bad) = r.mapping.iter().find(|&&s| s >= num_sites) {
            return self.reject(
                &r.id,
                ErrorCode::BadRequest,
                format!("mapping references site {bad}, cluster has {num_sites} sites"),
            );
        }
        if !(r.alpha.is_finite() && r.alpha >= 0.0) {
            return self.reject(
                &r.id,
                ErrorCode::BadRequest,
                "remap alpha must be finite and >= 0".into(),
            );
        }
        let start_sites: Vec<SiteId> = r.mapping.iter().map(|&s| SiteId(s)).collect();
        let pins_violated = || {
            self.reject(
                &r.id,
                ErrorCode::BadRequest,
                "starting mapping violates its pin constraints".into(),
            )
        };
        // Problem cache shared with `map`, through the same memo and
        // key: a remap of a problem the daemon already holds checks its
        // pins against the held problem and skips the parse.
        let text_fp = self.problem_text_fp(
            n,
            &r.calibration,
            &r.pattern_csv,
            r.constraints_csv.as_deref(),
        );
        let held = self
            .problem_memo
            .get(text_fp)
            .and_then(|key| self.problems.get(key));
        let prepared = match held {
            Some(p) => {
                if !p.problem.constraints().satisfied_by(&start_sites) {
                    return pins_violated();
                }
                self.count_problem_hit(scope);
                p
            }
            None => {
                let (pattern, constraints) = match self.parse_and_validate(
                    &r.id,
                    n,
                    &r.pattern_csv,
                    r.constraints_csv.as_deref(),
                ) {
                    Ok(pc) => pc,
                    Err(resp) => return *resp,
                };
                let problem_key = self.problem_key(n, &r.calibration, &pattern, &constraints);
                self.problem_memo.insert(text_fp, problem_key);
                if !constraints.satisfied_by(&start_sites) {
                    return pins_violated();
                }
                match self.problems.get(problem_key) {
                    Some(p) => {
                        self.count_problem_hit(scope);
                        p
                    }
                    None => {
                        self.count_miss(scope);
                        let p = match self.calibrate_prepare(
                            &r.id,
                            pattern,
                            constraints,
                            &r.calibration,
                            scope,
                        ) {
                            Ok(p) => p,
                            Err(resp) => return *resp,
                        };
                        self.problems.insert(problem_key, p.clone());
                        p
                    }
                }
            }
        };
        let start = Mapping::new(start_sites);

        // Live capacity view: the free pool plus the caller's own
        // holdings (a site that is "full" counting the caller's current
        // nodes is still a valid destination for the caller's ranks).
        let own = if let Some(lease) = r.lease {
            match self.inventory.lease_counts(lease) {
                Some(counts) => counts,
                None => {
                    return self.reject(
                        &r.id,
                        ErrorCode::UnknownLease,
                        format!("unknown lease {lease} (expired or never granted)"),
                    )
                }
            }
        } else {
            start.site_counts(num_sites)
        };
        let capacities: Vec<usize> = self
            .inventory
            .free_nodes()
            .iter()
            .zip(&own)
            .map(|(free, held)| free + held)
            .collect();

        let config = RemapConfig {
            budget: r.budget.map(|b| usize::try_from(b).unwrap_or(usize::MAX)),
            alpha: r.alpha,
            ..RemapConfig::default()
        };
        let outcome = self.metrics.phase(scope, "remap", "phase.remap", || {
            let tables = CostTables::build(&prepared.problem, CostModel::Full);
            repair_with_tables(
                &tables,
                prepared.problem.constraints(),
                &capacities,
                &start,
                &config,
            )
        });

        let lease = if let Some(lease) = r.lease {
            let new_counts = outcome.mapping.site_counts(num_sites);
            match self.inventory.rebook(lease, &new_counts) {
                Ok(()) => Some(lease),
                Err(RebookError::UnknownLease) => {
                    return self.reject(
                        &r.id,
                        ErrorCode::UnknownLease,
                        format!("lease {lease} expired during the remap"),
                    )
                }
                Err(RebookError::Insufficient(e)) => {
                    // The free pool shifted between the capacity read
                    // and the rebook; nothing was taken, retrying sees
                    // the new inventory.
                    return self.reject(
                        &r.id,
                        ErrorCode::Retryable,
                        format!("inventory shifted during the remap: {e}"),
                    );
                }
            }
        } else {
            None
        };

        self.metrics
            .counter("remap.migrations", outcome.moved.len() as u64);
        Response::RemapDiff(RemapDiffResponse {
            id: r.id.clone(),
            mapping: outcome
                .mapping
                .as_slice()
                .iter()
                .map(|s| s.index())
                .collect(),
            moved: outcome.moved.clone(),
            old_cost: outcome.old_cost,
            new_cost: outcome.new_cost,
            migrations: outcome.moved.len() as u64,
            lease,
            free_nodes: self.inventory.free_nodes(),
        })
    }

    /// How many calibration generations the last fully-measured
    /// campaign lags the newest one — nonzero means fresh mappings are
    /// being cut against stale link estimates (a reconciler drift
    /// signal).
    pub fn calibration_staleness(&self) -> u64 {
        let generation = self.calib_generation.load(Ordering::SeqCst);
        let good = self
            .last_good
            .lock()
            .expect("calibration lock")
            .as_ref()
            .map_or(generation, |g| g.generation);
        generation.saturating_sub(good)
    }

    /// Current counters and inventory state. With `detail`, also the
    /// admission-queue watermarks, the per-site lease ledger, and every
    /// latency histogram (summaries + full bucket dumps, so a
    /// federation router can merge them exactly).
    pub fn stats(&self, id: &str, detail: bool) -> StatsResponse {
        let detail = detail.then(|| {
            let (_free, leased) = self.inventory.ledger();
            StatsDetail {
                hist_schema: SCHEMA_VERSION,
                queue_depth: self.queue_depth.load(Ordering::Relaxed),
                max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
                leased_nodes: leased,
                hists: HistKind::ALL
                    .iter()
                    .map(|k| HistSummary::from_histogram(k.label(), &self.hists.merged(*k)))
                    .collect(),
                shards: 1,
            }
        });
        StatsResponse {
            id: id.to_string(),
            served: self.served.load(Ordering::Relaxed),
            result_hits: self.result_hits.load(Ordering::Relaxed),
            problem_hits: self.problem_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            replays: self.replays.load(Ordering::Relaxed),
            free_nodes: self.inventory.free_nodes(),
            active_leases: self.inventory.active_leases() as u64,
            detail,
        }
    }

    /// Dump the daemon's trace ring for the fleet-timeline collector.
    /// `now_s` is the daemon's trace clock at dump time — the collector
    /// brackets the request with its own clock reads and aligns tracks
    /// by the midpoint offset.
    fn trace_dump(&self, id: &str) -> Response {
        let Some(ring) = &self.config.trace_ring else {
            return self.reject(
                id,
                ErrorCode::BadRequest,
                "tracing ring is not enabled on this daemon".into(),
            );
        };
        let tracks = ring
            .tracks()
            .into_iter()
            .map(|t| WireTrack {
                track: t.id.0,
                process: t.process,
                name: t.name,
            })
            .collect();
        let events = ring
            .snapshot()
            .into_iter()
            .map(|e| WireTraceEvent {
                track: e.track.0,
                name: e.name.to_string(),
                kind: match e.kind {
                    TraceEventKind::SpanBegin => WireTraceEvent::SPAN_BEGIN,
                    TraceEventKind::SpanEnd => WireTraceEvent::SPAN_END,
                    TraceEventKind::Instant => WireTraceEvent::INSTANT,
                    TraceEventKind::Counter => WireTraceEvent::COUNTER,
                },
                ts_s: e.ts,
                value: e.value,
            })
            .collect();
        let mut dump = TraceDumpResponse {
            id: id.to_string(),
            now_s: self.metrics.trace().now(),
            dropped: ring.dropped(),
            tracks,
            events,
        };
        dump.fit_frame();
        Response::TraceDump(dump)
    }

    /// The latency histograms (bench read-back and tests).
    pub fn hists(&self) -> &HistSet {
        &self.hists
    }

    /// Note the admission queue's current depth (the TCP front-end
    /// reports after every push/pop); `stats` detail exposes the
    /// current value and the high-water mark.
    pub fn note_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Record a rejection and build the error response. The TCP
    /// front-end also routes its queue-level rejections (over-capacity,
    /// deadline) through this so `stats.rejected` covers every path.
    pub fn reject(&self, id: &str, code: ErrorCode, message: String) -> Response {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .counter(&format!("rejected.{}", code.label()), 1);
        Response::Error(ErrorResponse {
            id: id.to_string(),
            code,
            message,
        })
    }

    /// The feasibility preconditions `MappingProblem::new` asserts,
    /// rephrased as recoverable errors.
    fn feasible(&self, constraints: &ConstraintVector) -> Result<(), String> {
        let caps = self.network.capacities();
        let mut used = vec![0usize; caps.len()];
        for (i, pin) in constraints.iter().enumerate() {
            if let Some(site) = pin {
                if site.index() >= caps.len() {
                    return Err(format!(
                        "process {i} constrained to {site}, cluster has {} sites",
                        caps.len()
                    ));
                }
                used[site.index()] += 1;
                if used[site.index()] > caps[site.index()] {
                    return Err(format!(
                        "constraints alone overflow {site} (capacity {})",
                        caps[site.index()]
                    ));
                }
            }
        }
        Ok(())
    }

    /// Record the time a response spent being written back (the TCP
    /// front-end's third request phase next to queue-wait and solve).
    pub fn record_respond(&self, seconds: f64) {
        self.metrics.timing("phase.respond", seconds);
    }

    /// Flush the metrics sink (the front-end calls this on shutdown).
    pub fn flush(&self) {
        self.metrics.flush();
    }
}

impl std::fmt::Debug for MappingService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappingService")
            .field("network", &self.network.summary())
            .field("problems", &self.problems.len())
            .field("results", &self.results.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{self, Frame, MAX_FRAME_BYTES};
    use geomap_core::Trace;

    /// A full ring used to encode to a frame past `MAX_FRAME_BYTES`,
    /// which every peer's decoder (the daemon's own included) refuses.
    #[test]
    fn trace_dump_of_a_huge_ring_fits_one_frame() {
        const EVENTS: usize = 150_000;
        let ring = Arc::new(RingBufferSink::new(EVENTS + 1024));
        let trace = Trace::new(ring.clone());
        let track = trace.track("service", "worker-0");
        for i in 0..EVENTS {
            trace.instant(track, "request", i as f64);
        }
        let config = ServiceConfig {
            metrics: Metrics::off().with_trace(trace),
            trace_ring: Some(ring),
            ..ServiceConfig::default()
        };
        let net = geonet::presets::paper_ec2_network(1, geonet::InstanceType::M4Xlarge, 1);
        let svc = MappingService::new(net, config);
        let response = svc.handle(&Request::TraceDump { id: "td".into() });
        let wire = frame::encode_response(&response, 7);
        assert!(wire.len() <= frame::FRAME_HEADER_BYTES + MAX_FRAME_BYTES);
        let (f, used) = Frame::decode(&wire).expect("the daemon's own dump must decode");
        assert_eq!(used, wire.len());
        let back = frame::decode_response_payload(&f.payload).expect("payload decodes");
        assert_eq!(back, response);
        let Response::TraceDump(dump) = back else {
            panic!("expected a trace dump, got {back:?}");
        };
        // The oldest events are the ones cut, and they are counted.
        let instants: Vec<f64> = dump
            .events
            .iter()
            .filter(|e| e.kind == WireTraceEvent::INSTANT)
            .map(|e| e.ts_s)
            .collect();
        assert!(dump.dropped > 0 && instants[0] > 0.0, "nothing was cut");
        assert!(instants.windows(2).all(|w| w[1] == w[0] + 1.0));
        assert_eq!(instants.last(), Some(&((EVENTS - 1) as f64)));
    }
}
