//! Properties of the element language that must hold for any bottleneck
//! parameters and any workload: conservation, FIFO order, link-rate
//! conformance and the tail-drop bound. Inputs are drawn from `SimRng`
//! streams derived from fixed seeds, so a failure reproduces exactly.

use augur_elements::{Buffer, Element, Link, NetworkBuilder, ReceiverEl};
use augur_sim::{BitRate, Bits, FlowId, Packet, SimRng, Time};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `check` on 64 generated cases; a failing case names its seed.
fn for_each_case(base_seed: u64, check: impl Fn(&mut SimRng)) {
    for case in 0..64 {
        let seed = SimRng::derive_seed(base_seed, case);
        let run = || check(&mut SimRng::seed_from_u64(seed));
        assert!(
            catch_unwind(AssertUnwindSafe(run)).is_ok(),
            "failing case {case}: SimRng seed {seed:#x}"
        );
    }
}

/// `(send time in ms, size in bits)` pairs in send order.
fn workload(
    rng: &mut SimRng,
    max_len: u64,
    max_ms: u64,
    (min_bits, max_bits): (u64, u64),
) -> Vec<(u64, u64)> {
    let mut sends: Vec<(u64, u64)> = (0..rng.uniform_u64(1, max_len))
        .map(|_| {
            (
                rng.uniform_u64(0, max_ms),
                rng.uniform_u64(min_bits, max_bits),
            )
        })
        .collect();
    sends.sort();
    sends
}

/// What came out of a drop-tail buffer → constant-rate link → receiver
/// path after the workload and a 10 000 s drain (far beyond any queue
/// here): deliveries as `(seq, time)` in delivery order, and dropped
/// sequence numbers.
fn run_path(
    capacity_bits: u64,
    rate_bps: u64,
    sends: &[(u64, u64)],
) -> (Vec<(u64, Time)>, Vec<u64>) {
    let mut b = NetworkBuilder::new();
    let buf = b.add(Element::Buffer(Buffer::drop_tail(Bits::new(capacity_bits))));
    let link = b.add(Element::Link(Link::constant(BitRate::from_bps(rate_bps))));
    let rx = b.add(Element::Receiver(ReceiverEl));
    b.connect(buf, link);
    b.connect(link, rx);
    let mut net = b.build();
    for (seq, &(t_ms, bits)) in sends.iter().enumerate() {
        let t = Time::from_millis(t_ms);
        net.run_until(t);
        net.inject(
            buf,
            Packet::new(FlowId::SELF, seq as u64, Bits::new(bits), t),
        );
    }
    net.run_until(Time::from_secs(10_000));
    let deliveries = net
        .take_deliveries()
        .into_iter()
        .map(|(_, d)| (d.packet.seq, d.at))
        .collect();
    let drops = net.take_drops().iter().map(|d| d.packet.seq).collect();
    (deliveries, drops)
}

#[test]
fn every_injected_packet_is_delivered_or_dropped_exactly_once() {
    for_each_case(0xC0_5E57, |rng| {
        let capacity = rng.uniform_u64(12_000, 199_999);
        let rate = rng.uniform_u64(1_000, 999_999);
        let sends = workload(rng, 39, 4_999, (100, 11_999));
        let (deliveries, drops) = run_path(capacity, rate, &sends);
        // Nothing is still in flight after the drain, nothing is
        // duplicated, nothing is invented.
        let mut seen: Vec<u64> = deliveries
            .iter()
            .map(|&(seq, _)| seq)
            .chain(drops)
            .collect();
        seen.sort_unstable();
        let injected: Vec<u64> = (0..sends.len() as u64).collect();
        assert_eq!(seen, injected);
    });
}

#[test]
fn deliveries_keep_injection_order_and_times_never_decrease() {
    for_each_case(0xF1_F0, |rng| {
        let rate = rng.uniform_u64(1_000, 99_999);
        let sends = workload(rng, 29, 2_999, (1_000, 11_999));
        // A buffer nothing here can fill: pure queueing.
        let (deliveries, drops) = run_path(10_000_000, rate, &sends);
        assert!(drops.is_empty());
        assert_eq!(deliveries.len(), sends.len());
        for w in deliveries.windows(2) {
            assert!(w[0].0 < w[1].0, "sequence order violated: {w:?}");
            assert!(w[0].1 <= w[1].1, "delivery times went backwards: {w:?}");
        }
    });
}

#[test]
fn link_never_delivers_faster_than_its_rate() {
    for_each_case(0x4A_7E, |rng| {
        let rate = rng.uniform_u64(1_000, 199_999);
        let sends = workload(rng, 24, 999, (1_000, 11_999));
        let (deliveries, _) = run_path(10_000_000, rate, &sends);
        // The k-th delivery cannot complete before everything delivered
        // up to and including it has been serialized.
        let mut bits_so_far = 0u128;
        for &(seq, at) in &deliveries {
            bits_so_far += u128::from(sends[seq as usize].1);
            let min_us = bits_so_far * 1_000_000 / u128::from(rate);
            assert!(
                u128::from(at.as_micros()) >= min_us,
                "seq {seq} delivered at {at}, before {min_us} us"
            );
        }
    });
}

#[test]
fn tail_drop_keeps_exactly_capacity_plus_the_packet_in_service() {
    for_each_case(0x7A_11, |rng| {
        let pkts = rng.uniform_u64(2, 29);
        let capacity_pkts = rng.uniform_u64(1, 9);
        // One burst at t = 0 of 1 s packets.
        let sends = vec![(0, 12_000); pkts as usize];
        let (deliveries, drops) = run_path(capacity_pkts * 12_000, 12_000, &sends);
        let kept = (capacity_pkts + 1).min(pkts);
        assert_eq!(deliveries.len() as u64, kept);
        assert_eq!(drops.len() as u64, pkts - kept);
    });
}
