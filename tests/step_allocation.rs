//! A simulated cycle does not allocate: once the pipeline has warmed up,
//! every per-cycle list the stages build lives in storage the simulator
//! keeps, so stepping a program to completion touches the heap only when
//! a long-lived structure (the debug log, a copy-on-write memory page)
//! grows for the first time.
//!
//! A counting global allocator counts the allocations made on the calling
//! thread while the simulator steps.

mod common;

use common::quicksort;
use riscv_superscalar_sim::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static RECORDING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    if RECORDING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the calls reads
// and writes const-initialized thread-locals, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WARM_UP_CYCLES: u64 = 1_000;

/// Step the quicksort on `config` to completion after a warm-up, and return
/// the cycles stepped after the warm-up and the allocations they made.
fn allocations_after_warm_up(config: &ArchitectureConfig) -> (u64, u64) {
    let mut sim = Simulator::from_assembly(quicksort(), config).expect("assembles");
    for _ in 0..WARM_UP_CYCLES {
        sim.step();
    }
    ALLOCATIONS.with(|n| n.set(0));
    RECORDING.with(|r| r.set(true));
    while !sim.is_halted() && sim.cycle() < 10_000_000 {
        sim.step();
    }
    RECORDING.with(|r| r.set(false));
    assert_eq!(sim.halt_reason(), Some(&HaltReason::MainReturned), "the sort finishes");
    (sim.cycle() - WARM_UP_CYCLES, ALLOCATIONS.with(Cell::get))
}

fn assert_allocation_free(preset: &str, config: &ArchitectureConfig) {
    let (cycles, allocations) = allocations_after_warm_up(config);
    eprintln!("{preset}: {allocations} allocations in {cycles} cycles after warm-up");
    assert!(
        allocations * 1_000 < cycles,
        "{preset}: {allocations} allocations in {cycles} cycles, one per 1,000 allowed"
    );
}

#[test]
fn a_2_wide_cycle_allocates_nothing_after_warm_up() {
    assert_allocation_free("2-wide", &ArchitectureConfig::default());
}

#[test]
fn a_wide_4_cycle_allocates_nothing_after_warm_up() {
    assert_allocation_free("wide-4", &ArchitectureConfig::wide());
}
