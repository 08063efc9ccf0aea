//! `decompress` must not trust the length its 4-byte header claims: the
//! reservation it makes up front is bounded by what the input can decode
//! to.  Past the header, a two-byte back-reference yields at most 18 bytes
//! and a literal byte one, so an `n`-byte stream decodes to at most
//! `9 * (n - 4)` bytes.
//!
//! A counting global allocator records the largest single allocation made
//! on the calling thread while a decode runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static RECORDING: Cell<bool> = const { Cell::new(false) };
}

fn note(size: usize) {
    if RECORDING.with(Cell::get) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the calls reads
// a const-initialized thread-local and updates an atomic, neither of which
// allocates.
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

/// Decode `input` and return the largest single allocation it made.
fn largest_allocation(input: &[u8]) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    RECORDING.with(|r| r.set(true));
    let result = rvsim_compress::decompress(input);
    RECORDING.with(|r| r.set(false));
    drop(result);
    LARGEST.load(Ordering::Relaxed)
}

fn bound(input: &[u8]) -> usize {
    9 * (input.len() - 4)
}

#[test]
fn headers_claiming_4_gib_reserve_within_what_the_stream_decodes_to() {
    // Under a 4 GiB claim: nothing else (the bound is 0), three literals,
    // then one literal followed by three longest back-references (flag
    // bits 1-3 set; distance 1, length 18).
    let header_only = [0xff; 4];
    let literals = [0xff, 0xff, 0xff, 0xff, 0x00, b'a', b'b', b'c'];
    let references = [0xff, 0xff, 0xff, 0xff, 0x0e, b'x', 0x0f, 0x00, 0x0f, 0x00, 0x0f, 0x00];
    for input in [&header_only[..], &literals[..], &references[..]] {
        assert!(rvsim_compress::decompress(input).is_err());
        let largest = largest_allocation(input);
        assert!(largest <= bound(input), "reserved {largest} bytes for {input:?}");
    }
}

#[test]
fn valid_payloads_still_round_trip() {
    let text = "{\"type\":\"state\",\"registers\":[0,0,0,0,0,0,0,0]}".repeat(64);
    for payload in [&b""[..], b"a", text.as_bytes()] {
        let packed = rvsim_compress::compress(payload);
        assert_eq!(rvsim_compress::decompress(&packed).unwrap(), payload);
        assert_eq!(largest_allocation(&packed), payload.len(), "reserves exactly the payload");
    }
}
