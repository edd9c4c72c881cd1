//! What reading a WAL allocates, counted: a record header's length field
//! reserves nothing the bytes present could not fill, so one rotted length
//! cannot make `DurableDetector::open` ask the allocator for 4 GiB.

use rrr_store::WalReader;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes allocated by this thread; per thread because the test harness
    /// runs this file's tests side by side.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// thread-local `Cell` with a const initialiser, so touching it never
// allocates or re-enters the allocator. `alloc_zeroed` is forwarded too, so
// a huge zeroed request is counted without being written.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread allocated while `f` ran.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

#[test]
fn a_rotted_length_field_reads_as_a_torn_tail_without_reserving_it() {
    // Header claiming 0xFFFF_FFF0 payload bytes, any CRC, four bytes present.
    let mut log = 0xFFFF_FFF0u32.to_le_bytes().to_vec();
    log.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4]);
    assert_eq!(log.len(), 12);

    let (records, bytes) = allocated_by(|| WalReader::new(&log[..]).read_all());
    assert_eq!(
        records.expect("a short payload is a torn tail, not an error"),
        Vec::<Vec<u8>>::new()
    );
    assert!(bytes <= 16 * log.len() as u64, "{bytes} bytes allocated for a 12-byte log");
}
