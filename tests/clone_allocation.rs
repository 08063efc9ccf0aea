//! A simulator clone (what a step-back checkpoint costs) copies only the
//! mutable pipeline state: the program image is shared, main memory is
//! copy-on-write pages, so no clone copies the 64 KiB memory, and the debug
//! log's older records are chunks that clones share, so a clone does not
//! grow with the log.
//!
//! A counting global allocator sums the bytes allocated on the calling
//! thread while one clone runs.

mod common;

use common::quicksort;
use riscv_superscalar_sim::core::DebugLog;
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

/// A branch that alternates between taken and not taken, forever.
const ALTERNATING: &str = "
main:
    li   t0, 0
loop:
    andi t1, t0, 1
    beqz t1, even
    addi a0, a0, 1
even:
    addi t0, t0, 1
    j    loop
";

#[test]
fn a_clone_with_a_full_debug_log_copies_less_than_64_kib() {
    // Without history bits the predictor keeps mispredicting the
    // alternating branch, and every mispredict is a log record.
    let mut config = ArchitectureConfig::default();
    config.predictor.history_bits = 0;
    let mut sim = Simulator::from_assembly(ALTERNATING, &config).expect("assembles");
    while sim.log().len() < DebugLog::DEFAULT_CAPACITY {
        sim.step();
    }
    assert!(!sim.is_halted());
    let bytes = bytes_allocated_by_clone(&sim);
    eprintln!(
        "one clone at cycle {} with {} log records: {bytes} bytes allocated",
        sim.cycle(),
        sim.log().len()
    );
    assert!(bytes < 64 * 1024, "a clone allocated {bytes} bytes");
}
