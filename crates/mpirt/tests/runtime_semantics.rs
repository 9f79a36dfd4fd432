//! Integration tests of the simulated runtime's timing semantics:
//! collectives, contention, and the interplay with the link model.

use commgraph::collectives::{allreduce, barrier, broadcast};
use commgraph::ProgramBuilder;
use geomap_core::Trace;
use geonet::{presets, AlphaBeta, GeoCoord, InstanceType, Site, SiteId, SiteNetwork};
use mpirt::{execute, RunConfig};
use simnet::LinkConfig;

fn single_site(n: usize) -> (SiteNetwork, Vec<SiteId>) {
    let net = SiteNetwork::single_site(
        Site::new("cluster", GeoCoord::new(0.0, 0.0), n),
        AlphaBeta::from_ms_mbps(0.2, 100.0),
    );
    (net, vec![SiteId(0); n])
}

fn no_overhead() -> RunConfig {
    RunConfig {
        send_overhead: 0.0,
        ..RunConfig::comm_only()
    }
}

#[test]
fn binomial_broadcast_takes_log_rounds_on_a_cluster() {
    // On a uniform cluster, a binomial broadcast of a tiny message
    // completes in ceil(log2 n) sequential latency steps.
    for n in [2usize, 4, 8, 16, 32] {
        let (net, assignment) = single_site(n);
        let mut b = ProgramBuilder::new(n);
        broadcast(&mut b, &(0..n).collect::<Vec<_>>(), 0, 1);
        let r = execute(&b.build(), &net, &assignment, &no_overhead(), &Trace::off());
        let hop = net.alpha_beta(SiteId(0), SiteId(0)).transfer_time(1);
        let rounds = (n as f64).log2().ceil();
        assert!(
            (r.makespan - rounds * hop).abs() < 1e-9,
            "n={n}: makespan {} vs {} rounds x {hop}",
            r.makespan,
            rounds
        );
    }
}

#[test]
fn recursive_doubling_allreduce_takes_log_rounds() {
    for n in [4usize, 8, 16] {
        let (net, assignment) = single_site(n);
        let mut b = ProgramBuilder::new(n);
        allreduce(&mut b, &(0..n).collect::<Vec<_>>(), 1);
        let r = execute(&b.build(), &net, &assignment, &no_overhead(), &Trace::off());
        let hop = net.alpha_beta(SiteId(0), SiteId(0)).transfer_time(1);
        let rounds = (n as f64).log2();
        // Each exchange round is two opposite sends that overlap.
        assert!(
            r.makespan <= (rounds + 0.5) * 2.0 * hop + 1e-9,
            "n={n}: makespan {} vs {} rounds",
            r.makespan,
            rounds
        );
        assert!(r.makespan >= rounds * hop - 1e-9);
    }
}

#[test]
fn barrier_synchronizes_everyone() {
    // A rank that computes 1s before the barrier delays everyone past 1s.
    let n = 8;
    let (net, assignment) = single_site(n);
    let mut b = ProgramBuilder::new(n);
    b.compute(3, 1.0);
    barrier(&mut b, &(0..n).collect::<Vec<_>>());
    let cfg = RunConfig {
        zero_compute: false,
        ..no_overhead()
    };
    let r = execute(&b.build(), &net, &assignment, &cfg, &Trace::off());
    for (rank, t) in r.rank_finish.iter().enumerate() {
        assert!(
            *t >= 1.0,
            "rank {rank} finished at {t} before the slow rank"
        );
    }
}

#[test]
fn shared_wan_is_never_faster_than_unshared() {
    let net = presets::paper_ec2_network(8, InstanceType::M4Xlarge, 3);
    let n = 32;
    let assignment: Vec<SiteId> = (0..n).map(|i| SiteId(i % 4)).collect();
    let mut b = ProgramBuilder::new(n);
    // Burst: every rank sends 1 MB to its +1 neighbour (mod n) twice.
    for _ in 0..2 {
        for i in 0..n {
            b.send(i, (i + 1) % n, 1_000_000);
        }
        for i in 0..n {
            b.recv(i, (i + n - 1) % n);
        }
    }
    let prog = b.build();
    let shared = execute(&prog, &net, &assignment, &no_overhead(), &Trace::off());
    let unshared_cfg = RunConfig {
        links: LinkConfig {
            shared_wan: false,
            shared_intra: false,
            shared_egress: false,
        },
        ..no_overhead()
    };
    let unshared = execute(&prog, &net, &assignment, &unshared_cfg, &Trace::off());
    assert!(
        shared.makespan >= unshared.makespan - 1e-12,
        "contention made things faster? {} vs {}",
        shared.makespan,
        unshared.makespan
    );
    // And with 8 concurrent 1MB transfers per directed pair, strictly slower.
    assert!(shared.makespan > unshared.makespan);
}

#[test]
fn makespan_at_least_bottleneck_estimate_under_contention() {
    // The aggregate bottleneck-link time is a lower bound on the DES
    // makespan when the WAN serializes.
    let net = presets::paper_ec2_network(4, InstanceType::M4Xlarge, 5);
    let n = 16;
    let assignment: Vec<SiteId> = (0..n).map(|i| SiteId(i % 4)).collect();
    let w = commgraph::apps::AppKind::Sp.workload(n);
    let prog = w.program();
    let r = execute(&prog, &net, &assignment, &no_overhead(), &Trace::off());
    // The bottleneck estimate uses msgs*alpha + bytes/beta on the busiest
    // link; serialization alone (bytes/beta part) must fit within the
    // makespan.
    let mut worst_ser = 0.0f64;
    for k in 0..4 {
        for l in 0..4 {
            if k != l {
                worst_ser = worst_ser.max(r.stats.busy_time(SiteId(k), SiteId(l)));
            }
        }
    }
    assert!(
        r.makespan >= worst_ser - 1e-9,
        "makespan {} below busiest link serialization {}",
        r.makespan,
        worst_ser
    );
}

#[test]
fn compute_overlaps_with_other_ranks_communication() {
    // Rank 2 computes for 1s while ranks 0/1 exchange; total should be
    // ~max(1s, exchange), not the sum.
    let (net, assignment) = single_site(3);
    let mut b = ProgramBuilder::new(3);
    b.compute(2, 1.0);
    b.transfer(0, 1, 50_000_000); // 0.5s at 100 MB/s
    let cfg = RunConfig {
        zero_compute: false,
        ..no_overhead()
    };
    let r = execute(&b.build(), &net, &assignment, &cfg, &Trace::off());
    assert!(
        (r.makespan - 1.0).abs() < 0.01,
        "no overlap: {}",
        r.makespan
    );
}

#[test]
fn send_overhead_accumulates_on_the_sender() {
    let (net, assignment) = single_site(2);
    let mut b = ProgramBuilder::new(2);
    for _ in 0..100 {
        b.send(0, 1, 1);
    }
    for _ in 0..100 {
        b.recv(1, 0);
    }
    let cfg = RunConfig {
        send_overhead: 1e-3,
        ..RunConfig::comm_only()
    };
    let r = execute(&b.build(), &net, &assignment, &cfg, &Trace::off());
    assert!(
        r.rank_finish[0] >= 0.1 - 1e-9,
        "sender overhead missing: {}",
        r.rank_finish[0]
    );
}

#[test]
fn timeline_records_every_message() {
    let net = presets::paper_ec2_network(4, InstanceType::M4Xlarge, 3);
    use commgraph::apps::AppKind;
    let w = AppKind::Sp.workload(16);
    let a: Vec<SiteId> = (0..16).map(|i| SiteId(i % 4)).collect();
    let cfg = RunConfig {
        record_timeline: true,
        ..RunConfig::comm_only()
    };
    let r = mpirt::execute_workload(w.as_ref(), &net, &a, &cfg, &Trace::off());
    assert_eq!(r.timeline.len() as u64, r.stats.total_messages());
    for m in &r.timeline {
        assert!(m.arrival >= m.depart, "{m:?}");
        assert!(m.arrival <= r.makespan + 1e-9);
    }
    // Off by default.
    let r2 = mpirt::execute_workload(w.as_ref(), &net, &a, &RunConfig::comm_only(), &Trace::off());
    assert!(r2.timeline.is_empty());
}

#[test]
fn empty_program_finishes_at_time_zero() {
    let (net, assignment) = single_site(4);
    let prog = ProgramBuilder::new(4).build();
    let r = execute(
        &prog,
        &net,
        &assignment,
        &RunConfig::default(),
        &Trace::off(),
    );
    assert_eq!(r.makespan, 0.0);
    assert_eq!(r.stats.total_messages(), 0);
}
