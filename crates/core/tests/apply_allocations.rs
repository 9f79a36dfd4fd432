//! Exact allocation count of the Δ engine's applies.
//!
//! A counting global allocator counts the heap allocations made on the
//! test's own thread while a flag is up. Once an evaluator's site table
//! and bound columns exist, an apply only updates them in place, so 100
//! applies on K-means N=128 over EC2 4×32 must allocate nothing.

use commgraph::apps::AppKind;
use geomap_core::delta::{Candidates, CostEval, CostEvaluator, CostTables, SwapScope};
use geomap_core::{CostModel, MappingProblem};
use geonet::{presets, InstanceType, SiteId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// counting touches only const-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

#[test]
fn applies_on_a_warmed_evaluator_allocate_nothing() {
    // The counter sees what it should.
    let (v, counted) = allocations(|| Vec::<u64>::with_capacity(4));
    assert_eq!(counted, 1);
    drop(v);

    let n = 128;
    let net = presets::paper_ec2_network(32, InstanceType::M4Xlarge, 1);
    let m = net.num_sites();
    let problem = MappingProblem::unconstrained(AppKind::KMeans.workload(n).pattern(), net);
    let tables = CostTables::build(&problem, CostModel::Full);
    let mut eval = CostEvaluator::new(&tables, (0..n).map(|i| SiteId(i % m)).collect());

    // Warm up: one row-kernel call per row builds the site table and
    // the row kernel's scratch; a bound query from a row on each site
    // builds that site's bound column; the first apply sizes the table
    // shift's per-site scratch.
    let permits = |_: usize, _: SiteId| true;
    let scope = SwapScope::new(n, |_| true, &permits);
    for a in 0..n {
        eval.first_improving_swap(a, Candidates::Range(a + 1..n), &scope, -1e-12);
    }
    for a in 0..m {
        let other = SiteId((eval.sites()[a].index() + 1) % m);
        eval.bucket_rejects(a, other, &scope, 0.0);
    }
    let d = eval.swap_delta(0, 1);
    eval.apply_swap(0, 1, d);

    let mut total = 0;
    for k in 0..100 {
        let a = (7 * k) % n;
        if k % 5 == 4 {
            let to = SiteId((eval.sites()[a].index() + 1) % m);
            let d = eval.move_delta(a, to);
            total += allocations(|| eval.apply_move(a, to, d)).1;
        } else {
            let b = (13 * k + 5) % n;
            let d = eval.swap_delta(a, b);
            total += allocations(|| eval.apply_swap(a, b, d)).1;
        }
    }
    assert_eq!(total, 0, "100 applies allocated {total} times");
}
