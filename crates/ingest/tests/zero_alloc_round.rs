//! Proof that a warm ingest round allocates nothing per batch: once the
//! shards' byte arenas, batch queues and session decoders have reached
//! steady-state capacity, an `offer` + `process_round` round carrying 8
//! or 64 batches makes exactly as many heap allocations as a round
//! carrying none.
//!
//! The same counting-allocator wrapper as `distscroll-host`'s
//! `zero_alloc_decode` test, tallying per thread so the multi-threaded
//! test harness cannot pollute the count. `process_round(1)` runs the
//! shards on the calling thread, so their work is counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use distscroll_ingest::loadgen::inorder_template;
use distscroll_ingest::{IngestConfig, IngestService};

thread_local! {
    /// Allocation calls (alloc + realloc) made by the current thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocation calls, then forwards everything to [`System`].
struct CountingAlloc;

// SAFETY: every operation forwards verbatim to the system allocator;
// the only addition is a thread-local counter bump, which allocates
// nothing and upholds the GlobalAlloc contract by construction.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: counting aside, this is the system allocator verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds GlobalAlloc's contract for `layout`;
        // it is forwarded to the system allocator unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: frees are not counted; the call is the system allocator verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `Self::alloc`, i.e. from `System`, with
        // this same `layout`; both are forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: counting aside, this is the system allocator verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `Self::alloc`, i.e. from `System`, with
        // this same `layout`; all arguments are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

const DEVICES: usize = 64;
const WARM_ROUNDS: usize = 4;

#[test]
fn warm_round_allocations_do_not_grow_with_batches() {
    // Clean, in-order streams: every chunk continues its device's
    // sequence exactly, so no decoder ever parks a frame.
    let template = inorder_template(WARM_ROUNDS as u64 + 2, 6);
    let mut svc = IngestService::new(&IngestConfig::unbounded(4));
    // Each device's position in the template.
    let mut next = [0usize; DEVICES];

    // One round offering the next chunk of the first `devices` devices;
    // returns the allocations it made.
    let mut round = |svc: &mut IngestService, devices: usize| {
        let before = allocations_on_this_thread();
        for (device, at) in next.iter_mut().enumerate().take(devices) {
            assert!(svc.offer(device as u64, &template.rounds[*at]));
            *at += 1;
        }
        svc.process_round(1);
        allocations_on_this_thread() - before
    };

    // Warm-up: every session opens, and the arenas, queues and frame
    // scratch buffers reach the capacity a full round needs.
    for _ in 0..WARM_ROUNDS {
        round(&mut svc, DEVICES);
    }
    assert_eq!(svc.live_sessions(), DEVICES, "all sessions resident");

    let idle = round(&mut svc, 0);
    let few = round(&mut svc, 8);
    let many = round(&mut svc, DEVICES);
    assert_eq!(
        (few, many),
        (idle, idle),
        "a warm round allocates per batch: 0 batches made {idle} allocations, \
         8 made {few}, {DEVICES} made {many}"
    );

    let stats = svc.finish();
    assert_eq!(stats.totals.evicted, 0);
    assert_eq!(stats.totals.resyncs, 0);
    assert_eq!(stats.totals.crc_failures, 0);
    assert_eq!(stats.totals.link.out_of_order, 0, "streams stayed in order");
    let offered = (WARM_ROUNDS * DEVICES + 8 + DEVICES) as u64;
    assert_eq!(stats.totals.batches_in, offered);
    assert_eq!(stats.totals.records, offered * 6);
}
