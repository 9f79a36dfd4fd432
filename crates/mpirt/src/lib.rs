//! A simulated message-passing runtime (the paper's MPI substitute).
//!
//! The paper evaluates real MPI binaries on EC2; we cannot bind MPI, so
//! this crate *executes* [`commgraph::Program`]s — per-rank lists of
//! eager sends, blocking receives and computation blocks — on the
//! `simnet` discrete-event network, under a process→site mapping.
//!
//! Semantics:
//!
//! * **Send** is eager (buffered): the sender pays a small overhead and
//!   continues; the message transits the α–β link (queueing on shared
//!   WAN links) and is delivered to the destination's mailbox.
//! * **Recv** blocks until the matching message (FIFO per source —
//!   MPI's non-overtaking rule) has arrived.
//! * **Compute** advances the rank's clock.
//!
//! Execution uses smallest-local-clock-first scheduling, which preserves
//! causality on the shared link state; runs are fully deterministic.
//! The result is the application **makespan** (Fig. 5's total time) or,
//! with [`RunConfig::zero_compute`], the pure communication time the
//! paper's simulations report (Fig. 6).

#![warn(missing_docs)]

use commgraph::{Program, RankOp};
use geomap_core::{Trace, TrackId};
use geonet::{SiteId, SiteNetwork};
use simnet::{EventQueue, LinkConfig, LinkState, LinkStats};
use std::collections::VecDeque;

/// Execution options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Skip `Compute` ops — isolates communication time, as the paper's
    /// simulation study does ("we focus on the communication time ...
    /// and ignore the computation and I/O time", §5.4).
    pub zero_compute: bool,
    /// Per-send CPU overhead in seconds (the LogP `o` parameter; eager
    /// sends are not free).
    pub send_overhead: f64,
    /// Link contention model.
    pub links: LinkConfig,
    /// Record one [`MessageRecord`] per message (depart/arrival times)
    /// for post-mortem analysis and visualization. Off by default — the
    /// timeline of a long run is large.
    pub record_timeline: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            zero_compute: false,
            send_overhead: 5e-6,
            links: LinkConfig::default(),
            record_timeline: false,
        }
    }
}

/// One message's journey, recorded when
/// [`RunConfig::record_timeline`] is set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageRecord {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Payload size.
    pub bytes: u64,
    /// Time the sender issued the message.
    pub depart: f64,
    /// Time the message became available at the receiver.
    pub arrival: f64,
}

impl RunConfig {
    /// Communication-only configuration (Fig. 6 / §5.4).
    pub fn comm_only() -> Self {
        Self {
            zero_compute: true,
            ..Self::default()
        }
    }
}

/// Where one rank's simulated time went, split by activity.
///
/// The three components need not sum to the rank's finish time: queueing
/// and serialization inside the network are attributed to the *receiver*
/// as `recv_wait_s` only while it is actually blocked, and ranks may
/// finish early and idle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankBreakdown {
    /// CPU time spent issuing eager sends ([`RunConfig::send_overhead`]
    /// per send).
    pub send_s: f64,
    /// Time spent blocked in `Recv`, waiting for the matching message
    /// to arrive.
    pub recv_wait_s: f64,
    /// Time spent in `Compute` ops (zero under
    /// [`RunConfig::zero_compute`]).
    pub compute_s: f64,
}

/// Outcome of one simulated execution.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Time the last rank finished (the application's execution time).
    pub makespan: f64,
    /// Per-rank finish times.
    pub rank_finish: Vec<f64>,
    /// Per-rank time breakdown (send / receive-wait / compute).
    pub rank_breakdown: Vec<RankBreakdown>,
    /// Network statistics of the run.
    pub stats: LinkStats,
    /// Message timeline (empty unless [`RunConfig::record_timeline`]).
    pub timeline: Vec<MessageRecord>,
}

impl RunResult {
    /// Export the run's telemetry through a [`geomap_core::Metrics`]
    /// handle: the makespan, per-link traffic/busy/queue-wait (quiet
    /// links are skipped), per-rank breakdowns and aggregate totals.
    /// A disabled handle makes this a no-op.
    pub fn emit_metrics(&self, metrics: &geomap_core::Metrics) {
        if !metrics.enabled() {
            return;
        }
        metrics.gauge("makespan_s", self.makespan);
        metrics.counter("total_messages", self.stats.total_messages());
        metrics.counter("total_bytes", self.stats.total_bytes());
        metrics.gauge("wan_fraction", self.stats.wan_fraction());
        let m = self.stats.num_sites();
        for f in 0..m {
            for t in 0..m {
                let (from, to) = (SiteId(f), SiteId(t));
                let msgs = self.stats.messages(from, to);
                if msgs == 0 {
                    continue;
                }
                metrics.counter(&format!("link.{f}.{t}.msgs"), msgs);
                metrics.counter(&format!("link.{f}.{t}.bytes"), self.stats.bytes(from, to));
                metrics.gauge(
                    &format!("link.{f}.{t}.busy_s"),
                    self.stats.busy_time(from, to),
                );
                metrics.gauge(
                    &format!("link.{f}.{t}.queue_wait_s"),
                    self.stats.queue_wait(from, to),
                );
                metrics.counter(
                    &format!("link.{f}.{t}.max_queue_depth"),
                    self.stats.max_queue_depth(from, to) as u64,
                );
            }
        }
        for (r, bd) in self.rank_breakdown.iter().enumerate() {
            metrics.gauge(&format!("rank.{r}.send_s"), bd.send_s);
            metrics.gauge(&format!("rank.{r}.recv_wait_s"), bd.recv_wait_s);
            metrics.gauge(&format!("rank.{r}.compute_s"), bd.compute_s);
            metrics.gauge(&format!("rank.{r}.finish_s"), self.rank_finish[r]);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum RankState {
    /// In the ready queue (or currently executing).
    Ready,
    /// Blocked in `Recv { from }`.
    Waiting(usize),
    /// Program exhausted.
    Done,
}

/// Execute `program` on `net` under `assignment` (rank → site).
///
/// ```
/// use commgraph::ProgramBuilder;
/// use geomap_core::Trace;
/// use geonet::{presets, InstanceType, SiteId};
///
/// let net = presets::paper_ec2_network(2, InstanceType::M4Xlarge, 1);
/// let mut b = ProgramBuilder::new(2);
/// b.transfer(0, 1, 1_000_000);
/// // Rank 0 in us-east-1, rank 1 in Singapore: one WAN transfer.
/// let result = mpirt::execute(
///     &b.build(), &net, &[SiteId(0), SiteId(2)], &mpirt::RunConfig::default(), &Trace::off());
/// assert!(result.makespan > 0.05); // dominated by the long-haul link
/// ```
///
/// `trace` gets per-rank `compute` / `send` / `recv_wait` spans on one
/// `"mpirt"` track per rank, plus the simnet link tracks (message
/// lifecycle + queue depth) via [`simnet::LinkState::with_trace`]. All
/// timestamps are *simulated* seconds. The schedule, makespan and
/// statistics do not depend on `trace`; with [`Trace::off`] every event
/// site is a `None` check (the `simnet_trace_off` bench group times
/// that path).
///
/// # Panics
/// Panics if the assignment length differs from the rank count, if a
/// site is out of range, or if the program deadlocks (blocked cycle with
/// no messages in flight) — matched acyclic programs never do.
pub fn execute(
    program: &Program,
    net: &SiteNetwork,
    assignment: &[SiteId],
    config: &RunConfig,
    trace: &Trace,
) -> RunResult {
    let n = program.num_ranks();
    assert_eq!(assignment.len(), n, "assignment must map every rank");
    for s in assignment {
        assert!(s.index() < net.num_sites(), "{s} out of range");
    }

    let tracks: Vec<TrackId> = if trace.enabled() {
        (0..n)
            .map(|r| trace.track("mpirt", &format!("rank {r}")))
            .collect()
    } else {
        vec![TrackId::DISABLED; n]
    };
    let mut links = LinkState::with_trace(net.clone(), config.links, trace.clone());
    let mut clock = vec![0.0f64; n];
    let mut breakdown = vec![RankBreakdown::default(); n];
    let mut pc = vec![0usize; n];
    let mut state = vec![RankState::Ready; n];
    // mailbox[src * n + dst]: arrival times of undelivered messages, in
    // send order (non-overtaking is enforced at insertion).
    let mut mailbox: Vec<VecDeque<f64>> = vec![VecDeque::new(); n * n];
    let mut last_arrival = vec![0.0f64; n * n];

    let mut timeline: Vec<MessageRecord> = Vec::new();
    let mut ready: EventQueue<usize> = EventQueue::new();
    for (r, s) in state.iter_mut().enumerate() {
        if program.rank_ops(r).is_empty() {
            *s = RankState::Done;
        } else {
            ready.push(0.0, r);
        }
    }

    let mut done = state.iter().filter(|s| **s == RankState::Done).count();
    while let Some((_, r)) = ready.pop() {
        if state[r] != RankState::Ready {
            continue; // stale entry
        }
        let ops = program.rank_ops(r);
        debug_assert!(pc[r] < ops.len());
        match ops[pc[r]] {
            RankOp::Compute { secs } => {
                if !config.zero_compute {
                    trace.span_begin(tracks[r], "compute", clock[r]);
                    clock[r] += secs;
                    trace.span_end(tracks[r], "compute", clock[r]);
                    breakdown[r].compute_s += secs;
                }
                pc[r] += 1;
            }
            RankOp::Send { to, bytes } => {
                trace.span_begin(tracks[r], "send", clock[r]);
                clock[r] += config.send_overhead;
                trace.span_end(tracks[r], "send", clock[r]);
                breakdown[r].send_s += config.send_overhead;
                let arrival = links.send(assignment[r], assignment[to], bytes, clock[r]);
                // MPI non-overtaking: a later send from r to `to` may not
                // be received before an earlier one.
                let slot = r * n + to;
                let arrival = arrival.max(last_arrival[slot]);
                last_arrival[slot] = arrival;
                if config.record_timeline {
                    timeline.push(MessageRecord {
                        src: r,
                        dst: to,
                        bytes,
                        depart: clock[r],
                        arrival,
                    });
                }
                mailbox[slot].push_back(arrival);
                pc[r] += 1;
                // If the destination is blocked on us, wake it.
                if state[to] == RankState::Waiting(r) {
                    let a = mailbox[slot].pop_front().expect("just pushed");
                    if a > clock[to] {
                        trace.span_begin(tracks[to], "recv_wait", clock[to]);
                        trace.span_end(tracks[to], "recv_wait", a);
                    }
                    breakdown[to].recv_wait_s += (a - clock[to]).max(0.0);
                    clock[to] = clock[to].max(a);
                    pc[to] += 1;
                    advance(
                        to, program, &mut pc, &mut state, &mut clock, &mut ready, &mut done,
                    );
                }
            }
            RankOp::Recv { from } => {
                let slot = from * n + r;
                if let Some(a) = mailbox[slot].pop_front() {
                    if a > clock[r] {
                        trace.span_begin(tracks[r], "recv_wait", clock[r]);
                        trace.span_end(tracks[r], "recv_wait", a);
                    }
                    breakdown[r].recv_wait_s += (a - clock[r]).max(0.0);
                    clock[r] = clock[r].max(a);
                    pc[r] += 1;
                } else {
                    state[r] = RankState::Waiting(from);
                    continue;
                }
            }
        }
        advance(
            r, program, &mut pc, &mut state, &mut clock, &mut ready, &mut done,
        );
    }

    assert_eq!(
        done,
        n,
        "deadlock: {} ranks blocked with no messages in flight",
        n - done
    );
    let makespan = clock.iter().copied().fold(0.0, f64::max);
    RunResult {
        makespan,
        rank_finish: clock,
        rank_breakdown: breakdown,
        stats: links.stats().clone(),
        timeline,
    }
}

/// Re-enqueue rank `r` (or mark it done) after executing an op.
fn advance(
    r: usize,
    program: &Program,
    pc: &mut [usize],
    state: &mut [RankState],
    clock: &mut [f64],
    ready: &mut EventQueue<usize>,
    done: &mut usize,
) {
    if pc[r] >= program.rank_ops(r).len() {
        if state[r] != RankState::Done {
            state[r] = RankState::Done;
            *done += 1;
        }
    } else {
        state[r] = RankState::Ready;
        ready.push(clock[r], r);
    }
}

/// Convenience: execute a [`commgraph::apps::Workload`] under a mapping.
pub fn execute_workload(
    workload: &dyn commgraph::apps::Workload,
    net: &SiteNetwork,
    assignment: &[SiteId],
    config: &RunConfig,
    trace: &Trace,
) -> RunResult {
    execute(&workload.program(), net, assignment, config, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use commgraph::apps::AppKind;
    use commgraph::ProgramBuilder;
    use geonet::{presets, InstanceType};

    fn net() -> SiteNetwork {
        presets::paper_ec2_network(4, InstanceType::M4Xlarge, 1)
    }

    fn all_in(site: usize, n: usize) -> Vec<SiteId> {
        vec![SiteId(site); n]
    }

    #[test]
    fn single_transfer_time_matches_alpha_beta() {
        let net = net();
        let mut b = ProgramBuilder::new(2);
        b.transfer(0, 1, 1_000_000);
        let prog = b.build();
        let assignment = vec![SiteId(0), SiteId(3)];
        let cfg = RunConfig {
            send_overhead: 0.0,
            ..RunConfig::default()
        };
        let r = execute(&prog, &net, &assignment, &cfg, &Trace::off());
        let expect = net
            .alpha_beta(SiteId(0), SiteId(3))
            .transfer_time(1_000_000);
        assert!(
            (r.makespan - expect).abs() < 1e-9,
            "{} vs {expect}",
            r.makespan
        );
    }

    #[test]
    fn compute_only_makespan_is_max_rank_time() {
        let net = net();
        let mut b = ProgramBuilder::new(3);
        b.compute(0, 1.0).compute(1, 2.5).compute(2, 0.5);
        let r = execute(
            &b.build(),
            &net,
            &all_in(0, 3),
            &RunConfig::default(),
            &Trace::off(),
        );
        assert_eq!(r.makespan, 2.5);
        assert_eq!(r.rank_finish, vec![1.0, 2.5, 0.5]);
    }

    #[test]
    fn zero_compute_strips_computation() {
        let net = net();
        let mut b = ProgramBuilder::new(2);
        b.compute_all(10.0);
        b.transfer(0, 1, 1000);
        let full = execute(
            &b.clone_build(),
            &net,
            &all_in(1, 2),
            &RunConfig::default(),
            &Trace::off(),
        );
        let comm = execute(
            &b.clone_build(),
            &net,
            &all_in(1, 2),
            &RunConfig::comm_only(),
            &Trace::off(),
        );
        assert!(full.makespan > 10.0);
        assert!(comm.makespan < 0.1);
    }

    // Helper because ProgramBuilder::build consumes self.
    trait CloneBuild {
        fn clone_build(&self) -> Program;
    }
    impl CloneBuild for ProgramBuilder {
        fn clone_build(&self) -> Program {
            self.clone().build()
        }
    }

    #[test]
    fn recv_blocks_until_message_arrives() {
        let net = net();
        // Rank 1 computes for 5s before sending; rank 0 just receives.
        let mut b = ProgramBuilder::new(2);
        b.compute(1, 5.0);
        b.send(1, 0, 1000);
        b.recv(0, 1);
        let r = execute(
            &b.build(),
            &net,
            &all_in(2, 2),
            &RunConfig::default(),
            &Trace::off(),
        );
        assert!(
            r.rank_finish[0] >= 5.0,
            "receiver finished at {}",
            r.rank_finish[0]
        );
    }

    #[test]
    fn pipeline_chain_accumulates_latency() {
        let net = net();
        // 0 -> 1 -> 2 -> 3 forwarding chain across all four sites.
        let mut b = ProgramBuilder::new(4);
        b.send(0, 1, 1000);
        b.recv(1, 0);
        b.send(1, 2, 1000);
        b.recv(2, 1);
        b.send(2, 3, 1000);
        b.recv(3, 2);
        let assignment: Vec<SiteId> = (0..4).map(SiteId).collect();
        let cfg = RunConfig {
            send_overhead: 0.0,
            ..RunConfig::default()
        };
        let r = execute(&b.build(), &net, &assignment, &cfg, &Trace::off());
        let hop = |a: usize, c: usize| net.alpha_beta(SiteId(a), SiteId(c)).transfer_time(1000);
        let expect = hop(0, 1) + hop(1, 2) + hop(2, 3);
        assert!((r.makespan - expect).abs() < 1e-9);
    }

    #[test]
    fn messages_are_fifo_per_pair() {
        let net = net();
        // Rank 0 sends big then small; rank 1's first recv must get the
        // big one (non-overtaking), so its clock after recv #1 is >= the
        // big message's arrival.
        let mut b = ProgramBuilder::new(2);
        b.send(0, 1, 8_000_000);
        b.send(0, 1, 1);
        b.recv(1, 0);
        b.recv(1, 0);
        let cfg = RunConfig {
            send_overhead: 0.0,
            links: LinkConfig {
                shared_wan: false,
                shared_intra: false,
                shared_egress: false,
            },
            ..RunConfig::default()
        };
        let r = execute(
            &b.build(),
            &net,
            &[SiteId(0), SiteId(3)],
            &cfg,
            &Trace::off(),
        );
        let big = net
            .alpha_beta(SiteId(0), SiteId(3))
            .transfer_time(8_000_000);
        assert!(r.rank_finish[1] >= big);
    }

    #[test]
    fn all_apps_run_to_completion_on_all_mappings() {
        let net = net();
        for kind in AppKind::ALL {
            let w = kind.workload(16);
            let round_robin: Vec<SiteId> = (0..16).map(|i| SiteId(i % 4)).collect();
            let blocks: Vec<SiteId> = (0..16).map(|i| SiteId(i / 4)).collect();
            for a in [&round_robin, &blocks] {
                let r =
                    execute_workload(w.as_ref(), &net, a, &RunConfig::comm_only(), &Trace::off());
                assert!(r.makespan > 0.0, "{kind}");
                assert!(r.stats.total_messages() > 0);
            }
        }
    }

    #[test]
    fn locality_aware_mapping_is_faster_for_lu() {
        let net = net();
        let w = AppKind::Lu.workload(16);
        // Blocks keep grid rows together; the scatter permutation splits
        // almost every neighbour pair across sites.
        let blocks: Vec<SiteId> = (0..16).map(|i| SiteId(i / 4)).collect();
        let scatter: Vec<SiteId> = (0..16usize).map(|i| SiteId((i * 5 + 3) % 16 / 4)).collect();
        let t_blocks = execute_workload(
            w.as_ref(),
            &net,
            &blocks,
            &RunConfig::comm_only(),
            &Trace::off(),
        );
        let t_scatter = execute_workload(
            w.as_ref(),
            &net,
            &scatter,
            &RunConfig::comm_only(),
            &Trace::off(),
        );
        assert!(
            t_blocks.makespan < t_scatter.makespan,
            "blocks {} vs scatter {}",
            t_blocks.makespan,
            t_scatter.makespan
        );
        assert!(t_blocks.stats.wan_fraction() < t_scatter.stats.wan_fraction());
    }

    #[test]
    fn deterministic() {
        let net = net();
        let w = AppKind::KMeans.workload(16);
        let a: Vec<SiteId> = (0..16).map(|i| SiteId(i % 4)).collect();
        let r1 = execute_workload(w.as_ref(), &net, &a, &RunConfig::default(), &Trace::off());
        let r2 = execute_workload(w.as_ref(), &net, &a, &RunConfig::default(), &Trace::off());
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.rank_finish, r2.rank_finish);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let net = net();
        let mut b = ProgramBuilder::new(2);
        // Both ranks receive first: classic deadlock (under our blocking
        // recv semantics) — build_unchecked since it's also unmatched.
        b.recv(0, 1);
        b.recv(1, 0);
        let prog = b.build_unchecked();
        execute(
            &prog,
            &net,
            &all_in(0, 2),
            &RunConfig::default(),
            &Trace::off(),
        );
    }

    #[test]
    fn emitted_link_telemetry_sums_match_link_stats() {
        use geomap_core::{MemorySink, Metrics};
        use std::sync::Arc;

        let net = net();
        let w = AppKind::Lu.workload(16);
        let a: Vec<SiteId> = (0..16).map(|i| SiteId(i % 4)).collect();
        let r = execute_workload(w.as_ref(), &net, &a, &RunConfig::default(), &Trace::off());

        let sink = Arc::new(MemorySink::new());
        r.emit_metrics(&Metrics::new(sink.clone()).scoped("run"));

        // Per-link counters must reconstruct the LinkStats aggregates.
        let (mut msgs, mut bytes, mut busy, mut wait) = (0.0, 0.0, 0.0, 0.0);
        for f in 0..r.stats.num_sites() {
            for t in 0..r.stats.num_sites() {
                msgs += sink.sum("run", &format!("link.{f}.{t}.msgs"));
                bytes += sink.sum("run", &format!("link.{f}.{t}.bytes"));
                busy += sink.sum("run", &format!("link.{f}.{t}.busy_s"));
                wait += sink.sum("run", &format!("link.{f}.{t}.queue_wait_s"));
            }
        }
        assert_eq!(msgs, r.stats.total_messages() as f64);
        assert_eq!(bytes, r.stats.total_bytes() as f64);
        let busy_total: f64 = (0..4)
            .flat_map(|f| (0..4).map(move |t| (f, t)))
            .map(|(f, t)| r.stats.busy_time(SiteId(f), SiteId(t)))
            .sum();
        assert!((busy - busy_total).abs() < 1e-9);
        assert!(wait >= 0.0);
        assert_eq!(sink.sum("run", "makespan_s"), r.makespan);
        assert_eq!(sink.sum("run", "wan_fraction"), r.stats.wan_fraction());
        // Per-rank gauges cover every rank.
        for rank in 0..16 {
            assert!(sink.has("run", &format!("rank.{rank}.finish_s")));
            assert_eq!(
                sink.sum("run", &format!("rank.{rank}.recv_wait_s")),
                r.rank_breakdown[rank].recv_wait_s
            );
        }
        // A disabled handle emits nothing and does not panic.
        r.emit_metrics(&Metrics::off());
    }

    #[test]
    fn rank_breakdown_accounts_for_sends_computes_and_waits() {
        let net = net();
        // Rank 1 computes 5s then sends; rank 0 blocks in recv the whole
        // time. Rank 0's wait must be ≈ 5s (plus transfer), rank 1's
        // compute exactly 5s and its send time one overhead.
        let mut b = ProgramBuilder::new(2);
        b.compute(1, 5.0);
        b.send(1, 0, 1000);
        b.recv(0, 1);
        let cfg = RunConfig::default();
        let r = execute(&b.build(), &net, &all_in(2, 2), &cfg, &Trace::off());
        let bd = &r.rank_breakdown;
        assert_eq!(bd[1].compute_s, 5.0);
        assert_eq!(bd[1].send_s, cfg.send_overhead);
        assert_eq!(bd[1].recv_wait_s, 0.0);
        assert_eq!(bd[0].send_s, 0.0);
        assert_eq!(bd[0].compute_s, 0.0);
        assert!(
            bd[0].recv_wait_s >= 5.0 && bd[0].recv_wait_s <= r.makespan,
            "receiver waited {}",
            bd[0].recv_wait_s
        );
        // Under zero_compute the compute component disappears.
        let mut b2 = ProgramBuilder::new(2);
        b2.compute(1, 5.0);
        b2.send(1, 0, 1000);
        b2.recv(0, 1);
        let rc = execute(
            &b2.build(),
            &net,
            &all_in(2, 2),
            &RunConfig::comm_only(),
            &Trace::off(),
        );
        assert_eq!(rc.rank_breakdown[1].compute_s, 0.0);
    }

    #[test]
    fn traced_run_is_bit_identical_to_plain() {
        use geomap_core::RingBufferSink;
        use std::sync::Arc;
        let net = net();
        for kind in [AppKind::Lu, AppKind::KMeans] {
            let w = kind.workload(16);
            let a: Vec<SiteId> = (0..16).map(|i| SiteId(i % 4)).collect();
            let plain =
                execute_workload(w.as_ref(), &net, &a, &RunConfig::default(), &Trace::off());
            let sink = Arc::new(RingBufferSink::new(1 << 16));
            let traced = execute_workload(
                w.as_ref(),
                &net,
                &a,
                &RunConfig::default(),
                &Trace::new(sink.clone()),
            );
            assert_eq!(plain.makespan, traced.makespan, "{kind}");
            assert_eq!(plain.rank_finish, traced.rank_finish, "{kind}");
            assert_eq!(plain.rank_breakdown, traced.rank_breakdown, "{kind}");
            assert!(!sink.snapshot().is_empty(), "{kind}: no events recorded");
        }
    }

    #[test]
    fn traced_run_covers_rank_and_link_tracks() {
        use geomap_core::{RingBufferSink, TraceEventKind};
        use std::sync::Arc;
        let net = net();
        let w = AppKind::Lu.workload(16);
        let a: Vec<SiteId> = (0..16).map(|i| SiteId(i % 4)).collect();
        let sink = Arc::new(RingBufferSink::new(1 << 16));
        execute_workload(
            w.as_ref(),
            &net,
            &a,
            &RunConfig::default(),
            &Trace::new(sink.clone()),
        );
        let tracks = sink.tracks();
        let rank_tracks: Vec<_> = tracks.iter().filter(|t| t.process == "mpirt").collect();
        assert_eq!(rank_tracks.len(), 16, "one track per rank");
        assert!(
            tracks.iter().any(|t| t.process == "simnet"),
            "link tracks missing"
        );
        let ev = sink.snapshot();
        let on_rank = |name: &str| {
            ev.iter().any(|e| {
                e.name == name
                    && e.kind == TraceEventKind::SpanBegin
                    && rank_tracks.iter().any(|t| t.id == e.track)
            })
        };
        assert!(on_rank("compute"), "no compute spans");
        assert!(on_rank("send"), "no send spans");
        assert!(on_rank("recv_wait"), "no recv_wait spans");
        assert!(
            ev.iter().any(|e| e.kind == TraceEventKind::Counter),
            "no queue-depth samples"
        );
        // Spans on each track pair up (every B has its E).
        for t in &tracks {
            let begins = ev
                .iter()
                .filter(|e| e.track == t.id && e.kind == TraceEventKind::SpanBegin)
                .count();
            let ends = ev
                .iter()
                .filter(|e| e.track == t.id && e.kind == TraceEventKind::SpanEnd)
                .count();
            assert_eq!(begins, ends, "unbalanced spans on {}", t.name);
        }
    }

    #[test]
    fn emitted_max_queue_depth_matches_stats() {
        use geomap_core::{MemorySink, Metrics};
        use std::sync::Arc;
        let net = net();
        let w = AppKind::KMeans.workload(16);
        let a: Vec<SiteId> = (0..16).map(|i| SiteId(i % 4)).collect();
        let r = execute_workload(w.as_ref(), &net, &a, &RunConfig::default(), &Trace::off());
        let sink = Arc::new(MemorySink::new());
        r.emit_metrics(&Metrics::new(sink.clone()).scoped("run"));
        let mut saw_contention = false;
        for f in 0..4 {
            for t in 0..4 {
                let (from, to) = (SiteId(f), SiteId(t));
                if r.stats.messages(from, to) == 0 {
                    continue;
                }
                let d = r.stats.max_queue_depth(from, to);
                assert!(d >= 1, "active link with zero depth");
                assert_eq!(
                    sink.sum("run", &format!("link.{f}.{t}.max_queue_depth")),
                    d as f64
                );
                saw_contention |= d > 1;
            }
        }
        assert!(saw_contention, "expected at least one contended WAN link");
    }

    #[test]
    #[should_panic(expected = "assignment")]
    fn wrong_assignment_length_panics() {
        let net = net();
        let mut b = ProgramBuilder::new(2);
        b.transfer(0, 1, 1);
        execute(
            &b.build(),
            &net,
            &[SiteId(0)],
            &RunConfig::default(),
            &Trace::off(),
        );
    }
}
