//! What decode allocates, counted. The codecs read the reader's scratch
//! buffer in place, so a single-NLRI announcement costs its path, its
//! communities and its one-element NLRI list — and a count field read from
//! the wire reserves nothing the bytes present could not fill.

use rrr_mrt::{Error, MrtFileWriter, MrtRecord, StreamFilter, UpdateStream, VpDirectory};
use rrr_types::{AsPath, Asn, BgpElem, BgpUpdate, Community, Timestamp, VpId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// (calls, bytes) allocated by this thread; per thread because the test
    /// harness runs this file's tests side by side.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|c| {
        let (calls, total) = c.get();
        c.set((calls + 1, total + bytes as u64));
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// thread-local `Cell` with a const initialiser, so touching it never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
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

/// (calls, bytes) this thread allocated while `f` ran.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (calls0, bytes0) = ALLOCATED.with(Cell::get);
    let out = f();
    let (calls1, bytes1) = ALLOCATED.with(Cell::get);
    (out, calls1 - calls0, bytes1 - bytes0)
}

#[test]
fn single_nlri_announcement_costs_three_allocations() {
    const UPDATES: u64 = 1_000;
    let mut dir = VpDirectory::default();
    dir.register(VpId(0), Asn(13030));
    let mut w = MrtFileWriter::new(Vec::new());
    for i in 0..UPDATES {
        let u = BgpUpdate {
            time: Timestamp(1_600_000_000 + i),
            vp: VpId(0),
            prefix: format!("10.{}.{}.0/24", i / 256, i % 256).parse().expect("prefix"),
            elem: BgpElem::Announce {
                path: AsPath::from_asns([13030, 1299, 2914, 18747]),
                communities: vec![Community::new(13030, 2), Community::new(13030, 51701)],
            },
        };
        w.write_update(&dir, &u).expect("in-memory write");
    }
    let bytes = w.finish().expect("flush");

    let (decoded, calls, _) = allocated_by(|| {
        let mut stream = UpdateStream::new(&bytes[..], dir, StreamFilter::default());
        let n = stream.by_ref().map(std::hint::black_box).count() as u64;
        assert!(stream.finished_with.is_none());
        n
    });
    assert_eq!(decoded, UPDATES);
    // Path, communities, NLRI list; the constant covers the reader's scratch
    // buffer and the pending queue.
    assert!(calls <= 3 * UPDATES + 16, "{calls} allocations for {UPDATES} updates");
}

/// A 12-byte MRT header of TABLE_DUMP_V2 / `sub` over `body`.
fn table_dump_record(sub: u16, body: &[u8]) -> Vec<u8> {
    let mut rec = vec![0, 0, 0, 0, 0, 13];
    rec.extend_from_slice(&sub.to_be_bytes());
    rec.extend_from_slice(&(body.len() as u32).to_be_bytes());
    rec.extend_from_slice(body);
    rec
}

#[test]
fn a_count_field_reserves_no_more_than_the_body_can_hold() {
    // RIB_IPV4_UNICAST: seq, 10.0.0.0/24, 65 535 entries claimed, one
    // minimal entry (no attributes) present.
    let mut rib = vec![0, 0, 0, 1, 24, 10, 0, 0, 0xFF, 0xFF];
    rib.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0, 0]);
    // PEER_INDEX_TABLE: collector id, no view name, 65 535 peers claimed,
    // ten bytes present (less than one peer).
    let mut peers = vec![0, 0, 0, 0, 0, 0, 0xFF, 0xFF];
    peers.extend_from_slice(&[2, 0, 0, 0, 0, 0, 0, 0, 0, 0]);

    for (sub, body, what) in [(2, rib, "rib peer index"), (1, peers, "peer as")] {
        let rec = table_dump_record(sub, &body);
        assert_eq!(rec.len(), 30);
        let (verdict, _, bytes) = allocated_by(|| MrtRecord::parse(&mut &rec[..]));
        assert_eq!(verdict, Err(Error::Truncated(what)));
        assert!(bytes <= 16 * rec.len() as u64, "{bytes} bytes allocated for a 30-byte record");
    }
}
