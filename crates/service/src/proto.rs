//! The daemon's versioned request/response schema, declared once.
//!
//! One request per line (v1 JSON) or frame (v2 binary), one response
//! per request. Every v1 message carries the schema version `"v"` so
//! the daemon can refuse clients from a different protocol generation
//! instead of mis-parsing them ([`PROTOCOL_VERSION`]).
//!
//! Each struct and message enum below is a field table
//! (the `schema` module): the entry that declares a field also names it
//! on the wire and gives its v1 default, and the same table drives the
//! v1 JSON codec ([`Request::to_line`], [`Request::from_line`]) and the
//! v2 binary codec ([`crate::frame`]). The types also derive the
//! workspace's `serde` markers (the vendored serde is a marker-trait
//! shim — see `third_party/README.md`). Bulk payloads (communication
//! pattern, constraints) are embedded as the same CSV the `geomap`
//! file-based commands exchange, so a request is exactly "the files, on
//! a socket".

use crate::json::Json;
use crate::schema::{wire_codes, wire_enum, wire_struct, Message};
use serde::{Deserialize, Serialize};

/// The wire schema generation. Bump on any incompatible change.
pub const PROTOCOL_VERSION: u64 = 1;

wire_struct! {
    /// Calibration campaign parameters carried by a request (a subset of
    /// `geonet::CalibrationConfig`; probe sizes stay at their defaults).
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct CalibSpec with Default {
        /// Simulated measurement days.
        pub days: usize = 3,
        /// Probes per site pair per day.
        pub probes_per_day as "probes": usize = 10,
        /// Inter-site noise CV (intra-site uses 2.5x, matching
        /// `geomap calibrate`).
        pub noise_cv as "noise": f64 = 0.02,
        /// Probability in `[0, 1)` that one campaign sample is lost.
        /// Starved site pairs fall back to the daemon's last-known-good
        /// estimate (surfaced as `degraded` on the response).
        pub loss_rate as "loss": f64 = 0.0,
        /// Campaign RNG seed.
        pub seed: u64 = 0xCA11,
    }
    check CalibSpec::bounds;
}

impl CalibSpec {
    /// The full calibration config this spec denotes.
    pub fn to_config(&self) -> geonet::CalibrationConfig {
        geonet::CalibrationConfig {
            days: self.days,
            probes_per_day: self.probes_per_day,
            inter_noise_cv: self.noise_cv,
            intra_noise_cv: self.noise_cv * 2.5,
            loss_rate: self.loss_rate,
            seed: self.seed,
            ..geonet::CalibrationConfig::default()
        }
    }

    fn bounds(&self) -> Result<(), &'static str> {
        if !(self.noise_cv.is_finite() && self.noise_cv >= 0.0) {
            return Err("calibration noise must be finite and >= 0");
        }
        if !(self.loss_rate.is_finite() && (0.0..1.0).contains(&self.loss_rate)) {
            return Err("calibration loss must be in [0, 1)");
        }
        Ok(())
    }
}

wire_struct! {
    /// Distributed trace context carried by a request: ties the spans a
    /// daemon emits (queue wait, worker dispatch, cache tier, reserve,
    /// solver) to one client-initiated trace across every hop —
    /// router, failover shard, home shard.
    ///
    /// The field is **optional on the wire and absent by default**: a
    /// request without a trace context encodes bit-identically to the
    /// pre-observability protocol (pinned by the golden fixtures), so old
    /// and new peers interoperate as long as the feature is off.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub struct TraceContext {
        /// Client-generated trace id, nonzero. Kept below 2^53 so it
        /// survives the f64-valued trace event payloads and JSON numbers
        /// losslessly.
        pub trace_id as "id": u64,
        /// Span id of the caller's enclosing span (0 = root).
        pub parent_span as "parent": u64 = 0,
        /// Whether the daemon should emit spans for this request. Carried
        /// explicitly so a sampling decision made at the edge is honored
        /// by every hop.
        pub sampled: bool = true,
    }
}

impl TraceContext {
    /// A sampled root context for `trace_id` (masked into the f64-safe
    /// 53-bit range, never zero).
    #[must_use]
    pub fn root(trace_id: u64) -> Self {
        let masked = trace_id & ((1 << 53) - 1);
        Self {
            trace_id: if masked == 0 { 1 } else { masked },
            parent_span: 0,
            sampled: true,
        }
    }
}

wire_struct! {
    /// Multilevel solver knobs riding a map request. Present only when the
    /// caller selects the `multilevel` algorithm (or tunes it explicitly);
    /// absent, the request bytes are identical to the pre-multilevel
    /// encoding on both wire versions. The defaults mirror
    /// `geomap_core::MultilevelConfig::default()`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub struct MultilevelSpec with Default {
        /// Stop coarsening at this many vertices (≥ 1). A cutoff at or
        /// above the rank count degenerates to the direct solver.
        pub coarsen_cutoff as "cutoff": usize = 1024,
        /// Randomized matchings tried per level (≥ 1).
        pub match_rounds as "rounds": usize = 2,
        /// Refinement passes per uncoarsening step.
        pub refine_passes as "passes": usize = 2,
    }
    check MultilevelSpec::bounds;
}

impl MultilevelSpec {
    fn bounds(&self) -> Result<(), &'static str> {
        if self.coarsen_cutoff == 0 {
            return Err("multilevel cutoff must be >= 1");
        }
        if self.match_rounds == 0 {
            return Err("multilevel rounds must be >= 1");
        }
        Ok(())
    }
}

wire_struct! {
    /// A mapping request: solve the pipeline for an embedded communication
    /// pattern against the cluster the daemon fronts.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct MapRequest with Default {
        /// Caller-chosen correlation id, echoed on the response.
        pub id: String = String::new(),
        /// The communication pattern as `src,dst,bytes,msgs` CSV.
        pub pattern_csv: String,
        /// Number of processes (default: the cluster's total node count).
        pub ranks: Option<usize> = None,
        /// Optional data-movement constraints as `process,site` CSV.
        pub constraints_csv: Option<String> = None,
        /// Mapper: `geo|greedy|mpipp|random|montecarlo|multilevel`.
        pub algorithm: String = "geo".into(),
        /// Mapper seed.
        pub seed: u64 = 0x5C17,
        /// `κ` for the geo mapper's site grouping.
        pub kappa: usize = 4,
        /// Sample budget for the montecarlo mapper.
        pub samples: usize = 10_000,
        /// Calibration campaign to run (or reuse from cache).
        pub calibration: CalibSpec = CalibSpec::default(),
        /// Admission deadline: reject if still queued after this long.
        pub deadline_ms: Option<u64> = None,
        /// Reserve the mapped nodes in the cluster inventory on success.
        pub reserve: bool = false,
        /// Lease time-to-live for a reservation (`None`: server default).
        pub lease_ttl_ms: Option<u64> = None,
        /// Consult the solved-result cache (`false` forces a fresh solve —
        /// the load generator uses this to measure the miss path).
        pub use_result_cache as "cache": bool = true,
        /// Client-generated idempotency key. The service remembers the
        /// successful response per key and replays it verbatim (same lease
        /// id) when the key comes back, so a client that lost a response
        /// can retry without double-reserving inventory. Reusing a key with
        /// a *different* request is a `bad_request`.
        pub idempotency_key as "idem": Option<String> = None,
    }
    ext {
        /// Optional distributed trace context ([`TraceContext`]). Excluded
        /// from every cache/affinity fingerprint: tracing a request must
        /// not change where it routes or whether it hits.
        pub trace: Option<TraceContext> = 1,
        /// Multilevel solver knobs (used by the `multilevel` algorithm;
        /// defaults apply when absent). Unlike `trace`, this *is* part of
        /// the cache fingerprints — the same pattern solved direct and
        /// multilevel are different results.
        pub multilevel: Option<MultilevelSpec> = 2,
    }
}

impl MapRequest {
    /// A request with protocol defaults for everything but the pattern.
    pub fn new(id: impl Into<String>, pattern_csv: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            pattern_csv: pattern_csv.into(),
            ..Self::default()
        }
    }
}

wire_struct! {
    /// An online-remap request: repair the caller's current (drifted)
    /// mapping with a bounded-migration local search instead of solving
    /// cold. The daemon runs `geomap_core::remap::repair` against the live
    /// inventory capacities, so the repaired mapping never lands on nodes
    /// another tenant holds.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct RemapRequest with Default {
        /// Caller-chosen correlation id, echoed on the response.
        pub id: String = String::new(),
        /// The communication pattern as `src,dst,bytes,msgs` CSV (same
        /// payload a map request carries — the daemon reuses its prepared
        /// problem cache across map and remap).
        pub pattern_csv: String,
        /// The current process → site assignment to repair from. Its
        /// length fixes the rank count.
        pub mapping: Vec<usize>,
        /// Optional data-movement constraints as `process,site` CSV; the
        /// repair never moves a pinned rank.
        pub constraints_csv: Option<String> = None,
        /// Hard migration budget (`None`: unbounded — the repair degrades
        /// to a warm-started cold re-solve).
        pub budget: Option<u64> = None,
        /// Per-migration cost penalty α in `Eq3 + α·moved_ranks`.
        pub alpha: f64 = 0.0,
        /// Calibration campaign to run (or reuse from cache).
        pub calibration: CalibSpec = CalibSpec::default(),
        /// A live lease to rebook onto the repaired mapping's site counts
        /// (atomic: same lease id, new counts). `None` leaves inventory
        /// untouched — the response is advisory.
        pub lease: Option<u64> = None,
    }
    check RemapRequest::bounds;
}

impl RemapRequest {
    /// A request with protocol defaults for everything but the pattern
    /// and the starting mapping.
    pub fn new(id: impl Into<String>, pattern_csv: impl Into<String>, mapping: Vec<usize>) -> Self {
        Self {
            id: id.into(),
            pattern_csv: pattern_csv.into(),
            mapping,
            ..Self::default()
        }
    }

    fn bounds(&self) -> Result<(), &'static str> {
        if self.mapping.is_empty() {
            return Err("remap request needs a non-empty mapping");
        }
        if !(self.alpha.is_finite() && self.alpha >= 0.0) {
            return Err("remap alpha must be finite and >= 0");
        }
        Ok(())
    }
}

wire_enum! {
    /// Every request kind a connection can submit.
    ///
    /// `Map` dwarfs the other variants, but requests are decoded once per
    /// wire line and passed by reference everywhere, so boxing it would
    /// buy nothing and cost an allocation per request.
    #[allow(clippy::large_enum_variant)]
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub enum Request as "request" {
        /// Solve a mapping.
        Map(MapRequest) = 1 "map",
        /// Release an inventory lease (explicit teardown).
        Release {
            /// Correlation id.
            id: String = String::new(),
            /// The lease to tear down.
            lease: u64,
        } = 2 "release",
        /// Read service counters and inventory state.
        Stats {
            /// Correlation id.
            id: String = String::new(),
        } ext {
            /// Ask for the extended [`StatsDetail`] section (latency
            /// histograms, queue watermarks, per-site leases). Off by
            /// default so the base exchange — and its wire bytes — stay
            /// exactly as they were before observability existed; old
            /// servers understand the request, old clients never see the
            /// extension uninvited.
            detail: bool = 1,
        } = 3 "stats",
        /// Begin graceful shutdown: drain the queue, reject new work.
        Shutdown {
            /// Correlation id.
            id: String = String::new(),
        } = 4 "shutdown",
        /// Look up an idempotency key in the daemon's lease journal. The
        /// federation router sends this to reconcile ambiguous failures: a
        /// retried reservation may have landed on several shards, and only
        /// the journal says which of them actually holds a live lease.
        Journal {
            /// Correlation id.
            id: String = String::new(),
            /// The idempotency key to look up.
            key: String,
        } = 5 "journal",
        /// Dump the daemon's in-memory trace ring (tracks + events) so a
        /// collector (`geomap observe`) can merge per-daemon rings into
        /// one fleet timeline.
        TraceDump {
            /// Correlation id.
            id: String = String::new(),
        } = 6 "trace_dump",
        /// Repair a drifted mapping in place (bounded-migration local
        /// search from the caller's current assignment).
        Remap(RemapRequest) = 7 "remap",
    }
}

wire_codes! {
    /// Which cache tier satisfied a map request.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub enum CacheTier {
        /// Nothing cached: calibrate, build the problem, solve.
        Miss = 0 "miss",
        /// Calibration + prepared problem reused; the solve still ran.
        Problem = 1 "problem",
        /// The solved mapping itself was reused.
        Result = 2 "result",
    }
}

wire_struct! {
    /// A successful mapping response.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct MapResponse {
        /// Echo of the request id.
        pub id: String = String::new(),
        /// Process → site assignment.
        pub mapping: Vec<usize>,
        /// Eq. 3 cost under the calibrated estimate.
        pub cost: f64,
        /// Which cache tier answered.
        pub cached: CacheTier,
        /// Seconds the request waited in the admission queue.
        pub queue_wait_s: f64 = 0.0,
        /// Seconds spent in calibration + solve (0 on a result hit).
        pub solve_s: f64 = 0.0,
        /// Granted inventory lease, when `reserve` was set.
        pub lease: Option<u64> = None,
        /// Nodes the mapping uses per site.
        pub site_counts: Vec<usize>,
        /// Free nodes per site after this response.
        pub free_nodes: Vec<usize>,
        /// True when the calibration behind this mapping fell back to
        /// last-known-good entries for at least one starved site pair.
        pub degraded: bool = false,
        /// Calibration generations between the fallback entries and this
        /// response (0 when fresh).
        pub staleness: u64 = 0,
    }
}

wire_struct! {
    /// Summary + sparse bucket dump of one latency histogram
    /// (`crate::hist`), carried inside [`StatsDetail`]. Quantiles are
    /// precomputed for display, but the bucket dump is authoritative: the
    /// federation router merges shards bucket-wise and recomputes
    /// quantiles from the merged distribution — percentiles are never
    /// averaged.
    #[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
    pub struct HistSummary {
        /// Stable histogram name (`hist::HistKind::label`).
        pub name: String,
        /// Total samples.
        pub count: u64 = 0,
        /// Saturating sum of samples (µs).
        pub sum_us: u64 = 0,
        /// Smallest sample (µs), absent when empty.
        pub min_us: Option<u64> = None,
        /// Largest sample (µs), absent when empty.
        pub max_us: Option<u64> = None,
        /// Median (µs; 0 when empty).
        pub p50_us: u64 = 0,
        /// 90th percentile (µs; 0 when empty).
        pub p90_us: u64 = 0,
        /// 99th percentile (µs; 0 when empty).
        pub p99_us: u64 = 0,
        /// 99.9th percentile (µs; 0 when empty).
        pub p999_us: u64 = 0,
        /// Sparse `(bucket index, count)` pairs in the fixed
        /// `hist::SCHEMA_VERSION` schema, ascending by index.
        pub buckets: Vec<(u32, u64)>,
    }
}

impl HistSummary {
    /// Summarize a histogram under its wire name.
    #[must_use]
    pub fn from_histogram(name: &str, h: &crate::hist::Histogram) -> Self {
        Self {
            name: name.to_string(),
            count: h.count(),
            sum_us: h.sum(),
            min_us: h.min(),
            max_us: h.max(),
            p50_us: h.quantile(0.50).unwrap_or(0),
            p90_us: h.quantile(0.90).unwrap_or(0),
            p99_us: h.quantile(0.99).unwrap_or(0),
            p999_us: h.quantile(0.999).unwrap_or(0),
            buckets: h.nonzero_buckets(),
        }
    }

    /// Rebuild the histogram this summary was taken from (bucket
    /// resolution).
    pub fn to_histogram(&self) -> Result<crate::hist::Histogram, String> {
        crate::hist::Histogram::from_parts(&self.buckets, self.sum_us, self.min_us, self.max_us)
    }
}

wire_struct! {
    /// The extended stats section, present only when the stats request
    /// asked for `detail` — which keeps the base `StatsResponse` bytes
    /// identical to the pre-observability wire format in both directions.
    #[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
    pub struct StatsDetail {
        /// `hist::SCHEMA_VERSION` of the bucket schema in `hists`.
        pub hist_schema: u64 = 0,
        /// Admission-queue depth right now.
        pub queue_depth: u64 = 0,
        /// High-water mark of the admission queue since startup.
        pub max_queue_depth: u64 = 0,
        /// Leased nodes per site right now (complements the base
        /// response's `free_nodes`; `free + leased == capacity` site-wise).
        pub leased_nodes: Vec<usize>,
        /// Per-kind latency histograms, in `hist::HistKind::ALL` order.
        pub hists: Vec<HistSummary>,
        /// Daemons folded into this response: 1 from a single daemon,
        /// the shard count from a federation scatter-gather merge.
        pub shards: u64 = 1,
    }
}

wire_struct! {
    /// Service counters and inventory state.
    #[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
    pub struct StatsResponse {
        /// Echo of the request id.
        pub id: String = String::new(),
        /// Map requests answered (any tier).
        pub served: u64,
        /// Result-cache hits.
        pub result_hits: u64,
        /// Problem-cache hits (calibration reused, solve ran).
        pub problem_hits: u64,
        /// Full misses.
        pub misses: u64,
        /// Requests rejected (queue full, deadline, inventory, shutdown).
        pub rejected: u64,
        /// Responses replayed from the idempotency cache (a retry arrived
        /// for work already done).
        pub replays: u64 = 0,
        /// Free nodes per site right now.
        pub free_nodes: Vec<usize>,
        /// Live (unexpired, unreleased) leases.
        pub active_leases: u64,
    }
    ext {
        /// Extended section (histograms, queue watermarks, leases per
        /// site); only present when the request set `detail`. Unmarked:
        /// its payload follows the base fields directly on v2.
        pub detail: Option<StatsDetail> = _,
    }
}

wire_struct! {
    /// What the lease journal knows about one idempotency key.
    #[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
    pub struct JournalResponse {
        /// Echo of the request id.
        pub id: String = String::new(),
        /// Echo of the queried idempotency key.
        pub key: String,
        /// True when this daemon granted a reservation under the key and
        /// the lease is still live (journaled, unreleased, unexpired).
        pub held: bool,
        /// The live lease id, when `held`.
        pub lease: Option<u64> = None,
        /// Per-site node counts of the live lease (empty when not held).
        pub site_counts: Vec<usize>,
    }
}

wire_struct! {
    /// One track definition from a daemon's trace ring (mirror of the
    /// in-memory `geomap_core::trace` track registry, with owned names so
    /// it can cross the wire).
    #[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
    pub struct WireTrack {
        /// Daemon-local track id (unique per daemon only — the collector
        /// namespaces by daemon when merging).
        pub track: u32,
        /// Process label (Perfetto process row).
        pub process: String,
        /// Thread/track label within the process.
        pub name: String,
    }
}

wire_struct! {
    /// One trace event from a daemon's ring. `kind` uses the stable byte
    /// codes [`WireTraceEvent::SPAN_BEGIN`] … [`WireTraceEvent::COUNTER`].
    #[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
    pub struct WireTraceEvent {
        /// Daemon-local track id.
        pub track: u32,
        /// Event name (span or counter name).
        pub name: String,
        /// Event kind byte code.
        pub kind: u8,
        /// Seconds since the daemon's trace epoch.
        pub ts_s: f64,
        /// Counter value, or the trace id tagged onto a span (0 = untagged).
        pub value: f64 = 0.0,
    }
}

impl WireTraceEvent {
    /// Chrome `"B"` — span begin.
    pub const SPAN_BEGIN: u8 = 0;
    /// Chrome `"E"` — span end.
    pub const SPAN_END: u8 = 1;
    /// Chrome `"i"` — instant.
    pub const INSTANT: u8 = 2;
    /// Chrome `"C"` — counter sample.
    pub const COUNTER: u8 = 3;
}

wire_struct! {
    /// A daemon's entire trace ring, with the clock metadata the collector
    /// needs to place it on the fleet-wide timeline.
    #[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
    pub struct TraceDumpResponse {
        /// Echo of the request id.
        pub id: String = String::new(),
        /// Seconds since this daemon's trace epoch at the moment the dump
        /// was taken. The collector reads its own clock around the
        /// request/response exchange and solves for the epoch offset
        /// (handshake alignment; exact when both ends share a virtual
        /// clock).
        pub now_s: f64 = 0.0,
        /// Events discarded because the ring was full, or cut so the dump
        /// fits one frame (`TraceDumpResponse::fit_frame`).
        pub dropped: u64 = 0,
        /// Track definitions referenced by `events`.
        pub tracks: Vec<WireTrack>,
        /// Ring contents in recording order.
        pub events: Vec<WireTraceEvent>,
    }
}

impl TraceDumpResponse {
    /// Drop the oldest events until the v2 payload fits one frame
    /// ([`MAX_FRAME_BYTES`](crate::frame::MAX_FRAME_BYTES)), counting
    /// them in `dropped`. A ring has no size bound of its own, and a
    /// frame over the limit is one every peer's decoder refuses.
    pub(crate) fn fit_frame(&mut self) {
        use crate::schema::Wire;
        let mut buf = Vec::new();
        self.write(&mut buf);
        // The tag byte precedes the fields in a response payload.
        let mut excess = (1 + buf.len()).saturating_sub(crate::frame::MAX_FRAME_BYTES);
        let cut = self
            .events
            .iter()
            .take_while(|e| {
                if excess == 0 {
                    return false;
                }
                buf.clear();
                e.write(&mut buf);
                excess = excess.saturating_sub(buf.len());
                true
            })
            .count();
        self.events.drain(..cut);
        self.dropped += cut as u64;
    }
}

wire_struct! {
    /// The result of an online remap: the repaired mapping plus the diff
    /// an orchestrator needs to execute the migration — which ranks moved,
    /// what the move bought (old vs. new Eq. 3 cost), and how many
    /// migrations it costs.
    #[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
    pub struct RemapDiffResponse {
        /// Echo of the request id.
        pub id: String = String::new(),
        /// The repaired process → site assignment.
        pub mapping: Vec<usize>,
        /// Ranks whose site changed vs. the request's starting mapping,
        /// ascending.
        pub moved: Vec<usize>,
        /// Eq. 3 cost of the starting mapping under the daemon's
        /// calibrated estimate.
        pub old_cost: f64,
        /// Eq. 3 cost of the repaired mapping (never above `old_cost`).
        pub new_cost: f64,
        /// `moved.len()` on the wire as its own field so shallow
        /// consumers (CI validators, dashboards) need not parse the list.
        pub migrations: u64 = 0,
        /// The rebooked lease id, when the request named one.
        pub lease: Option<u64> = None,
        /// Free nodes per site after any rebook (current inventory view
        /// when no lease was named).
        pub free_nodes: Vec<usize>,
    }
}

wire_struct! {
    /// A refused or failed request. `code` is stable for programmatic
    /// handling; `message` is the one-line human diagnostic.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct ErrorResponse {
        /// Echo of the request id (empty when the line was unparseable).
        pub id: String = String::new(),
        /// Machine-readable reason.
        pub code: ErrorCode,
        /// Human-readable one-liner.
        pub message: String = String::new(),
    }
}

wire_codes! {
    /// Stable error codes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub enum ErrorCode {
        /// Malformed JSON or invalid field values.
        BadRequest = 1 "bad_request",
        /// The `"v"` field is not [`PROTOCOL_VERSION`].
        UnsupportedVersion = 2 "unsupported_version",
        /// Admission queue full — backpressure.
        OverCapacity = 3 "over_capacity",
        /// The request's deadline passed while it was queued.
        DeadlineExceeded = 4 "deadline_exceeded",
        /// The inventory has too few free nodes for the placement.
        InsufficientNodes = 5 "insufficient_nodes",
        /// `release` named a lease that does not exist (or expired).
        UnknownLease = 6 "unknown_lease",
        /// The daemon is draining; no new work accepted.
        ShuttingDown = 7 "shutting_down",
        /// The solver failed (bug surface, never expected in tests).
        Internal = 8 "internal",
        /// A transient failure: nothing about the request was wrong, trying
        /// again may succeed. Clients synthesize this when a retry budget
        /// runs out; servers may use it for any condition that retrying can
        /// fix.
        Retryable = 9 "retryable",
        /// Calibration could not produce an estimate (a site pair lost
        /// every probe with no last-known-good fallback); the request is
        /// fine, the measurement layer is not.
        Degraded = 10 "degraded",
    }
}

impl ErrorCode {
    /// True for codes a client may retry: the refusal was about the
    /// server's momentary state (full queue, missed deadline, explicit
    /// `retryable`), not about the request itself. `shutting_down` is
    /// deliberately not retryable — this daemon is going away.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::OverCapacity | ErrorCode::DeadlineExceeded | ErrorCode::Retryable
        )
    }
}

wire_enum! {
    /// Every response kind.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub enum Response as "response" {
        /// A solved mapping.
        Map(MapResponse) = 1 "map_response",
        /// A lease was torn down.
        Release {
            /// Echo of the request id.
            id: String = String::new(),
            /// Nodes returned per site.
            freed: Vec<usize>,
            /// Free nodes per site after the release.
            free_nodes: Vec<usize>,
        } = 2 "release_response",
        /// Counters and inventory state.
        Stats(StatsResponse) = 3 "stats_response",
        /// Shutdown acknowledged; the queue will drain.
        Shutdown {
            /// Echo of the request id.
            id: String = String::new(),
            /// Requests still queued at the moment of acknowledgement.
            draining: u64,
        } = 4 "shutdown_response",
        /// Lease-journal lookup result.
        Journal(JournalResponse) = 6 "journal_response",
        /// The daemon's trace ring.
        TraceDump(TraceDumpResponse) = 7 "trace_dump_response",
        /// A repaired mapping with its migration diff.
        RemapDiff(RemapDiffResponse) = 8 "remap_response",
        /// A refusal or failure.
        Error(ErrorResponse) = 5 "error",
    }
}

impl Request {
    /// Encode as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        Message::to_json(self).emit()
    }

    /// Decode one line. Failures come back as a ready-to-send
    /// [`ErrorResponse`] carrying the best-effort request id; the field
    /// bounds are the ones the v2 decoder enforces, with the same
    /// messages.
    pub fn from_line(line: &str) -> Result<Request, ErrorResponse> {
        let bad = |id: &str, message: String| ErrorResponse {
            id: id.to_string(),
            code: ErrorCode::BadRequest,
            message,
        };
        let doc = Json::parse(line).map_err(|e| bad("", format!("malformed JSON: {e}")))?;
        let id = doc.get("id").and_then(Json::as_str).unwrap_or("");
        let version = doc
            .get("v")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad(id, "missing schema version \"v\"".into()))?;
        if version != PROTOCOL_VERSION {
            return Err(ErrorResponse {
                id: id.to_string(),
                code: ErrorCode::UnsupportedVersion,
                message: format!(
                    "protocol v{version} not supported (this daemon speaks v{PROTOCOL_VERSION})"
                ),
            });
        }
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| bad(id, "missing \"kind\"".into()))?;
        let request = <Request as Message>::from_json(kind, &doc).map_err(|missing| {
            bad(
                id,
                match missing {
                    Some(key) => format!("{kind} request needs {key:?}"),
                    None => format!("unknown request kind {kind:?}"),
                },
            )
        })?;
        request.check().map_err(|m| bad(id, m.into()))?;
        Ok(request)
    }
}

impl Response {
    /// Encode as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        Message::to_json(self).emit()
    }

    /// Decode one line (the client side).
    pub fn from_line(line: &str) -> Result<Response, String> {
        let doc = Json::parse(line).map_err(|e| format!("malformed response JSON: {e}"))?;
        let version = doc
            .get("v")
            .and_then(Json::as_u64)
            .ok_or("response missing schema version \"v\"")?;
        if version != PROTOCOL_VERSION {
            return Err(format!("unsupported response protocol v{version}"));
        }
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("response missing \"kind\"")?;
        <Response as Message>::from_json(kind, &doc).map_err(|missing| match missing {
            Some(key) => format!("{kind} needs {key:?}"),
            None => format!("unknown response kind {kind:?}"),
        })
    }

    /// Convenience: the error payload, if this is an error.
    pub fn as_error(&self) -> Option<&ErrorResponse> {
        match self {
            Response::Error(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_request_roundtrips_with_all_fields() {
        let mut m = MapRequest::new("r1", "src,dst,bytes,msgs\n0,1,5,2\n");
        m.ranks = Some(16);
        m.constraints_csv = Some("process,site\n0,3\n".into());
        m.algorithm = "mpipp".into();
        m.seed = 99;
        m.kappa = 3;
        m.samples = 500;
        m.calibration = CalibSpec {
            days: 1,
            probes_per_day: 2,
            noise_cv: 0.1,
            loss_rate: 0.25,
            seed: 7,
        };
        m.deadline_ms = Some(250);
        m.reserve = true;
        m.lease_ttl_ms = Some(60_000);
        m.use_result_cache = false;
        m.idempotency_key = Some("client-7/42".into());
        let req = Request::Map(m);
        let back = Request::from_line(&req.to_line()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn map_request_defaults_fill_in() {
        let line = r#"{"v":1,"kind":"map","id":"d","pattern_csv":"src,dst,bytes,msgs\n"}"#;
        let Request::Map(m) = Request::from_line(line).unwrap() else {
            panic!("not a map request")
        };
        assert_eq!(m.algorithm, "geo");
        assert_eq!(m.kappa, 4);
        assert_eq!(m.calibration, CalibSpec::default());
        assert!(m.use_result_cache);
        assert!(!m.reserve);
    }

    #[test]
    fn control_requests_roundtrip() {
        for req in [
            Request::Release {
                id: "a".into(),
                lease: 7,
            },
            Request::Stats {
                id: "b".into(),
                detail: false,
            },
            Request::Stats {
                id: "b2".into(),
                detail: true,
            },
            Request::Shutdown { id: "c".into() },
            Request::Journal {
                id: "d".into(),
                key: "client-7/42".into(),
            },
            Request::TraceDump { id: "t".into() },
        ] {
            assert_eq!(Request::from_line(&req.to_line()).unwrap(), req);
        }
    }

    #[test]
    fn traced_map_request_roundtrips_and_absent_trace_is_unchanged() {
        let plain = MapRequest::new("r1", "src,dst,bytes,msgs\n0,1,5,2\n");
        let line = Request::Map(plain.clone()).to_line();
        assert!(
            !line.contains("trace"),
            "untraced request leaked a trace key"
        );
        let mut traced = plain;
        traced.trace = Some(TraceContext {
            trace_id: 0xBEEF,
            parent_span: 7,
            sampled: true,
        });
        let req = Request::Map(traced);
        assert_eq!(Request::from_line(&req.to_line()).unwrap(), req);
    }

    #[test]
    fn plain_stats_request_has_no_detail_key() {
        let line = Request::Stats {
            id: "s".into(),
            detail: false,
        }
        .to_line();
        assert!(!line.contains("detail"), "{line}");
    }

    #[test]
    fn root_trace_context_is_nonzero_and_f64_safe() {
        assert_eq!(TraceContext::root(0).trace_id, 1);
        assert_eq!(TraceContext::root(u64::MAX).trace_id, (1 << 53) - 1);
        let t = TraceContext::root(42);
        assert_eq!(t.trace_id, 42);
        assert!(t.sampled);
        assert_eq!(t.parent_span, 0);
    }

    #[test]
    fn remap_request_roundtrips_with_all_fields() {
        let mut r = RemapRequest::new("rm1", "src,dst,bytes,msgs\n0,1,5,2\n", vec![0, 1, 1, 0]);
        r.constraints_csv = Some("process,site\n0,0\n".into());
        r.budget = Some(2);
        r.alpha = 0.125;
        r.calibration = CalibSpec {
            days: 1,
            probes_per_day: 2,
            noise_cv: 0.1,
            loss_rate: 0.25,
            seed: 7,
        };
        r.lease = Some(42);
        let req = Request::Remap(r);
        assert_eq!(Request::from_line(&req.to_line()).unwrap(), req);
        let defaults = Request::Remap(RemapRequest::new("rm2", "src,dst,bytes,msgs\n", vec![0]));
        assert_eq!(Request::from_line(&defaults.to_line()).unwrap(), defaults);
    }

    #[test]
    fn remap_request_validation() {
        let err = Request::from_line(r#"{"v":1,"kind":"remap","id":"a"}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        let err = Request::from_line(
            r#"{"v":1,"kind":"remap","id":"a","pattern_csv":"src,dst,bytes,msgs\n","mapping":[]}"#,
        )
        .unwrap_err();
        assert!(err.message.contains("non-empty"), "{}", err.message);
        let err = Request::from_line(
            r#"{"v":1,"kind":"remap","id":"a","pattern_csv":"s\n","mapping":[0],"alpha":-1.0}"#,
        )
        .unwrap_err();
        assert!(err.message.contains("alpha"), "{}", err.message);
    }

    #[test]
    fn remap_responses_roundtrip() {
        for resp in [
            Response::RemapDiff(RemapDiffResponse {
                id: "rm".into(),
                mapping: vec![1, 1, 0, 0],
                moved: vec![0, 2],
                old_cost: 9.5,
                new_cost: 7.25,
                migrations: 2,
                lease: Some(3),
                free_nodes: vec![2, 2],
            }),
            Response::RemapDiff(RemapDiffResponse {
                id: "noop".into(),
                mapping: vec![0],
                moved: vec![],
                old_cost: 1.0,
                new_cost: 1.0,
                migrations: 0,
                lease: None,
                free_nodes: vec![4],
            }),
        ] {
            assert_eq!(
                Response::from_line(&resp.to_line()).unwrap(),
                resp,
                "{resp:?}"
            );
        }
    }

    #[test]
    fn journal_responses_roundtrip() {
        for resp in [
            Response::Journal(JournalResponse {
                id: "j1".into(),
                key: "auto-00ff-3".into(),
                held: true,
                lease: Some(12),
                site_counts: vec![2, 0, 1],
            }),
            Response::Journal(JournalResponse {
                id: "j2".into(),
                key: "gone".into(),
                held: false,
                lease: None,
                site_counts: vec![],
            }),
        ] {
            assert_eq!(
                Response::from_line(&resp.to_line()).unwrap(),
                resp,
                "{resp:?}"
            );
        }
    }

    #[test]
    fn journal_request_without_key_is_bad_request() {
        let err = Request::from_line(r#"{"v":1,"kind":"journal","id":"a"}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("key"), "{}", err.message);
    }

    #[test]
    fn responses_roundtrip() {
        let responses = [
            Response::Map(MapResponse {
                id: "r".into(),
                mapping: vec![0, 1, 1, 0],
                cost: 1.25,
                cached: CacheTier::Problem,
                queue_wait_s: 0.001,
                solve_s: 0.5,
                lease: Some(3),
                site_counts: vec![2, 2],
                free_nodes: vec![0, 0],
                degraded: true,
                staleness: 2,
            }),
            Response::Release {
                id: "x".into(),
                freed: vec![2, 2],
                free_nodes: vec![4, 4],
            },
            Response::Stats(StatsResponse {
                id: "s".into(),
                served: 10,
                result_hits: 4,
                problem_hits: 3,
                misses: 3,
                rejected: 1,
                replays: 2,
                free_nodes: vec![1, 2],
                active_leases: 2,
                detail: None,
            }),
            Response::Stats(StatsResponse {
                id: "s2".into(),
                served: 3,
                free_nodes: vec![4],
                detail: Some(StatsDetail {
                    hist_schema: crate::hist::SCHEMA_VERSION,
                    queue_depth: 2,
                    max_queue_depth: 9,
                    leased_nodes: vec![1],
                    hists: vec![HistSummary {
                        name: "map_e2e".into(),
                        count: 2,
                        sum_us: 300,
                        min_us: Some(100),
                        max_us: Some(200),
                        p50_us: 103,
                        p90_us: 207,
                        p99_us: 207,
                        p999_us: 207,
                        buckets: vec![(52, 1), (60, 1)],
                    }],
                    shards: 1,
                }),
                ..StatsResponse::default()
            }),
            Response::TraceDump(TraceDumpResponse {
                id: "td".into(),
                now_s: 1.5,
                dropped: 3,
                tracks: vec![WireTrack {
                    track: 0,
                    process: "service".into(),
                    name: "worker-0".into(),
                }],
                events: vec![
                    WireTraceEvent {
                        track: 0,
                        name: "request".into(),
                        kind: WireTraceEvent::SPAN_BEGIN,
                        ts_s: 0.25,
                        value: 48879.0,
                    },
                    WireTraceEvent {
                        track: 0,
                        name: "request".into(),
                        kind: WireTraceEvent::SPAN_END,
                        ts_s: 0.75,
                        value: 0.0,
                    },
                ],
            }),
            Response::Shutdown {
                id: "q".into(),
                draining: 5,
            },
            Response::Error(ErrorResponse {
                id: "e".into(),
                code: ErrorCode::OverCapacity,
                message: "queue full (64 waiting)".into(),
            }),
        ];
        for r in responses {
            assert_eq!(Response::from_line(&r.to_line()).unwrap(), r, "{r:?}");
        }
    }

    #[test]
    fn wrong_version_is_refused_with_code() {
        let line = r#"{"v":2,"kind":"stats","id":"z"}"#;
        let err = Request::from_line(line).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnsupportedVersion);
        assert_eq!(err.id, "z");
    }

    #[test]
    fn malformed_json_is_bad_request() {
        let err = Request::from_line("{not json").unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("malformed JSON"), "{}", err.message);
    }

    #[test]
    fn missing_fields_are_bad_request() {
        for line in [
            r#"{"v":1,"id":"a"}"#,
            r#"{"v":1,"kind":"map","id":"a"}"#,
            r#"{"v":1,"kind":"release","id":"a"}"#,
            r#"{"v":1,"kind":"frobnicate","id":"a"}"#,
            r#"{"kind":"stats","id":"a"}"#,
        ] {
            let err = Request::from_line(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
            assert_eq!(err.id, if line.contains("\"id\"") { "a" } else { "" });
        }
    }

    #[test]
    fn all_error_codes_roundtrip_their_labels() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::UnsupportedVersion,
            ErrorCode::OverCapacity,
            ErrorCode::DeadlineExceeded,
            ErrorCode::InsufficientNodes,
            ErrorCode::UnknownLease,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
            ErrorCode::Retryable,
            ErrorCode::Degraded,
        ] {
            assert_eq!(ErrorCode::parse(code.label()), Some(code));
            assert_eq!(ErrorCode::from_code(code.code()), Some(code));
        }
        assert_eq!(ErrorCode::parse("nope"), None);
        assert_eq!(ErrorCode::from_code(0), None);
        assert_eq!(ErrorCode::from_code(11), None);
    }

    #[test]
    fn cache_tier_byte_codes_roundtrip() {
        for tier in [CacheTier::Miss, CacheTier::Problem, CacheTier::Result] {
            assert_eq!(CacheTier::from_code(tier.code()), Some(tier));
        }
        assert_eq!(CacheTier::from_code(3), None);
    }

    #[test]
    fn retryable_classification_is_stable() {
        for (code, retryable) in [
            (ErrorCode::BadRequest, false),
            (ErrorCode::UnsupportedVersion, false),
            (ErrorCode::OverCapacity, true),
            (ErrorCode::DeadlineExceeded, true),
            (ErrorCode::InsufficientNodes, false),
            (ErrorCode::UnknownLease, false),
            (ErrorCode::ShuttingDown, false),
            (ErrorCode::Internal, false),
            (ErrorCode::Retryable, true),
            (ErrorCode::Degraded, false),
        ] {
            assert_eq!(code.is_retryable(), retryable, "{}", code.label());
        }
    }

    #[test]
    fn invalid_loss_rate_is_bad_request() {
        for loss in ["1.0", "-0.1", "2"] {
            let line = format!(
                r#"{{"v":1,"kind":"map","id":"a","pattern_csv":"src,dst,bytes,msgs\n","calibration":{{"loss":{loss}}}}}"#
            );
            let err = Request::from_line(&line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
            assert!(err.message.contains("loss"), "{}", err.message);
        }
    }

    #[test]
    fn missing_degradation_fields_decode_as_fresh() {
        // A v1 response written before the degradation fields existed.
        let line = concat!(
            r#"{"v":1,"kind":"map_response","id":"old","mapping":[0],"cost":1.0,"#,
            r#""cached":"miss","site_counts":[1],"free_nodes":[3]}"#
        );
        let Response::Map(r) = Response::from_line(line).unwrap() else {
            panic!("not a map response")
        };
        assert!(!r.degraded);
        assert_eq!(r.staleness, 0);
    }
}
