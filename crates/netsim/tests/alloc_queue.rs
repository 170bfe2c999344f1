//! What the event queue keeps once its events are gone, pinned.
//!
//! A pending event is one slab record; the calendar ring threads its buckets
//! through those records and owns no storage of its own. So however many
//! buckets a run's clock has swept, a drained queue holds its slab (the peak
//! population), the front heap's buffer and the fixed ring heads — nothing
//! that grows with the buckets visited. A counting allocator checks that,
//! and that a second identical sweep allocates nothing at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use bgpsdn_netsim::{EventBody, EventQueue, NodeId, SimTime};

thread_local! {
    // Per thread, so the tests of this file can run side by side.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
    static RESIZES: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is handed to `System` unchanged; the counters are
// plain thread-local cells without destructors, so touching them allocates
// nothing and never re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.with(|c| c.set(c.get() + 1));
        LIVE.with(|c| c.set(c.get() + layout.size() as isize));
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|c| c.set(c.get() - layout.size() as isize));
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        RESIZES.with(|c| c.set(c.get() + 1));
        LIVE.with(|c| c.set(c.get() + new_size as isize - layout.size() as isize));
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[derive(Debug, Clone)]
struct NoMsg;
impl bgpsdn_netsim::Message for NoMsg {}

/// Events in flight throughout the hold model.
const PEAK: usize = 1_000;
/// One calendar bucket, 2^17 ns.
const BUCKET_NS: u64 = 1 << 17;
/// The calendar's window: 2 048 buckets, ≈ 268 ms.
const HORIZON_NS: u64 = 2_048 * BUCKET_NS;
/// A `(time, seq, slot)` ordering key of the front heap.
const KEY_BYTES: usize = 24;
/// Bytes a slot may add to its payload: time, sequence and list link.
const SLOT_OVERHEAD: usize = 24;

/// One hold-model sweep from `base`: `PEAK` events within 5 ms, then pop
/// the earliest and push one 1–5 ms after it until the clock has run three
/// laps of the ring, then drain. Returns the time of the last pop.
fn sweep(q: &mut EventQueue<NoMsg>, base: u64) -> u64 {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let start = EventBody::Start { node: NodeId(0) };
    for _ in 0..PEAK {
        q.push(SimTime::from_nanos(base + rnd() % 5_000_000), start.clone());
    }
    let mut now = base;
    while now < base + 3 * HORIZON_NS {
        let ev = q.pop().expect("the hold model keeps its population");
        now = ev.at.as_nanos();
        let later = now + 1_000_000 + rnd() % 4_000_000;
        q.push(SimTime::from_nanos(later), start.clone());
    }
    while let Some(ev) = q.pop() {
        now = ev.at.as_nanos();
    }
    now
}

#[test]
fn a_drained_queue_keeps_its_slab_and_front_heap_only() {
    let before = LIVE.get();
    let mut q = EventQueue::<NoMsg>::with_capacity(PEAK);
    let last = sweep(&mut q, 0);
    let retained = (LIVE.get() - before) as usize;

    let slab = PEAK * (size_of::<EventBody<NoMsg>>() + SLOT_OVERHEAD);
    // The front heap never holds more keys than are in flight.
    let front = PEAK.next_power_of_two() * KEY_BYTES;
    let ring_heads = 2_048 * size_of::<u32>();
    let bound = slab + front + ring_heads;
    assert!(
        retained <= bound,
        "a drained queue holds {retained} B; slab {slab} + front heap {front} \
         + ring heads {ring_heads} = {bound} B"
    );

    // The same sweep again, on the same bucket boundaries: every record
    // comes off the freelist and every buffer is already big enough.
    let base = last.next_multiple_of(BUCKET_NS);
    let (blocks, resizes) = (BLOCKS.get(), RESIZES.get());
    sweep(&mut q, base);
    assert_eq!(
        (BLOCKS.get() - blocks, RESIZES.get() - resizes),
        (0, 0),
        "blocks and resizes of the second sweep"
    );
}
