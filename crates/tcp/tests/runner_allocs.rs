//! A TCP run's heap traffic must not scale with the packets it sends:
//! the runner drains the network's logs in place and reuses one packet
//! buffer for every poll, so a run ten times longer allocates only what
//! its RTT sample list needs to keep doubling.
//!
//! This test binary installs a counting global allocator (the library
//! crates forbid `unsafe`; an integration test is its own crate). The
//! counter is per thread, so the harness's other threads cannot disturb
//! it.

use augur_elements::{build_cellular, CellularParams, RateProcess, TraceEnd};
use augur_sim::{BitRate, Bits, Dur, Ppm, Time};
use augur_tcp::{Reno, TcpConfig, TcpRunner, TcpTrace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. The counter is a const-initialised
// `Cell<u64>` thread-local: it has no destructor and needs no lazy
// initialisation, so touching it here can neither allocate nor re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The `replay-cellular` preset's path: a 6 Mbit drop-tail buffer feeding
/// a radio link that replays the `lte-fade` rate trace in a loop, with
/// 10 % loss hidden by 40 ms ARQ retries and 25 ms propagation.
fn replay_cellular() -> CellularParams {
    let csv = include_str!("../../../experiments/traces/lte-fade.csv");
    let samples = (csv.lines())
        .filter(|l| l.starts_with(|c: char| c.is_ascii_digit()))
        .map(|l| {
            let (t, bps) = l.split_once(',').expect("time_s,bps");
            let t = Dur::from_secs_f64(t.parse().expect("time_s"));
            (t, BitRate::from_bps(bps.parse().expect("bps")))
        })
        .collect();
    CellularParams {
        buffer_capacity: Bits::new(6_000_000),
        rate: RateProcess::Trace {
            label: "lte-fade".into(),
            samples,
            end: TraceEnd::Loop,
        },
        arq_loss: Ppm::new(100_000),
        arq_retry_delay: Dur::from_millis(40),
        propagation: Dur::from_millis(25),
    }
}

/// The allocations of one Reno download's `run` (not its construction).
fn allocations_of_run(seconds: u64) -> (u64, TcpTrace) {
    let cell = build_cellular(&replay_cellular());
    let cfg = TcpConfig {
        max_window: 1_000,
        ..TcpConfig::default()
    };
    let mut runner = TcpRunner::new(
        cell.net,
        cell.entry,
        cell.rx,
        cfg,
        7,
        Box::<Reno>::default(),
    );
    let before = ALLOCATIONS.with(Cell::get);
    let trace = runner.run(Time::from_secs(seconds));
    (ALLOCATIONS.with(Cell::get) - before, trace)
}

#[test]
fn run_allocations_do_not_scale_with_packets() {
    let (short, short_trace) = allocations_of_run(60);
    let (long, long_trace) = allocations_of_run(600);
    eprintln!(
        "{short} allocations over {} segments in 60 s, {long} over {} in 600 s",
        short_trace.segments_sent, long_trace.segments_sent
    );
    assert!(short > 0, "the counting allocator is not installed");
    assert!(
        long_trace.segments_sent > 9 * short_trace.segments_sent,
        "the long run must send about ten times the packets"
    );
    assert!(
        long_trace.overflow_drops > 0 && long_trace.retransmissions > 0,
        "the run must exercise overflow and recovery"
    );
    // Ten times the samples is log2(10) < 4 more doublings of
    // `rtt_samples`; the queues and rings are bounded by the buffer and
    // the window, which the first minute already fills. An allocation
    // per poll or per delivery would add tens of thousands.
    assert!(
        long <= short + 8,
        "allocations grew with packets: {short} in 60 s, {long} in 600 s"
    );
}
