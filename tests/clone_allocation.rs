//! A simulator clone (what a step-back checkpoint costs) copies only the
//! mutable pipeline state: the program image is shared, and main memory is
//! copy-on-write pages, so no clone copies the 64 KiB memory.
//!
//! A counting global allocator sums the bytes allocated on the calling
//! thread while one clone runs.

mod common;

use common::quicksort;
use riscv_superscalar_sim::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static RECORDING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    if RECORDING.with(Cell::get) {
        BYTES.with(|b| b.set(b.get() + size));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the calls reads
// and writes const-initialized thread-locals, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Clone `sim` and return the bytes the clone allocated.
fn bytes_allocated_by_clone(sim: &Simulator) -> usize {
    BYTES.with(|b| b.set(0));
    RECORDING.with(|r| r.set(true));
    let copy = sim.clone();
    RECORDING.with(|r| r.set(false));
    drop(copy);
    BYTES.with(Cell::get)
}

#[test]
fn a_clone_of_the_2_wide_quicksort_at_16k_cycles_copies_less_than_memory() {
    let mut sim =
        Simulator::from_assembly(quicksort(), &ArchitectureConfig::default()).expect("assembles");
    sim.run(16_000).unwrap();
    assert_eq!(sim.halt_reason(), Some(&HaltReason::MaxCyclesReached), "still sorting");
    let memory = sim.memory().memory().capacity();
    let bytes = bytes_allocated_by_clone(&sim);
    eprintln!("one clone at cycle 16,000: {bytes} bytes allocated ({memory}-byte memory)");
    assert!(bytes < 64 * 1024 && bytes < memory, "a clone allocated {bytes} bytes");
}
