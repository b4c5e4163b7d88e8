//! Forwarding conservation over generated topologies: whatever the
//! graph, the routes and the queues, every packet injected into a
//! compiled topology is delivered exactly once at its own flow's
//! receiver or dropped exactly once — never lost, duplicated or
//! misrouted by the per-link diverter chains. Inputs are drawn from
//! `SimRng` streams derived from fixed seeds, so a failure reproduces
//! exactly.

use augur_sim::{BitRate, Bits, Dur, FlowId, Packet, Ppm, SimRng, Time};
use augur_topo::{compile, FlowSpec, GraphTopology, LinkSpec, QueueSpec};
use std::cell::Cell;
use std::collections::BTreeMap;
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

fn coin(rng: &mut SimRng) -> bool {
    rng.bernoulli(Ppm::from_prob(0.5))
}

fn queue(rng: &mut SimRng) -> QueueSpec {
    match rng.uniform_u64(0, 3) {
        0 => QueueSpec::Red {
            min_th: Bits::new(8_000),
            max_th: Bits::new(24_000),
            max_p: Ppm::from_prob(0.3),
            w_shift: 1,
        },
        1 => QueueSpec::CoDel {
            target: Dur::from_millis(5),
            interval: Dur::from_millis(100),
        },
        _ => QueueSpec::DropTail,
    }
}

/// A DAG over 3–6 nodes — the spine `n0 → n1 → …` plus random forward
/// skip links — carrying 2–4 flows. Half the cases start every flow at
/// `n0` so that spine links carry three or more flows; half the flows
/// pin the spine as an explicit path while the others take the BFS
/// shortest path over the skips.
fn topology(rng: &mut SimRng) -> GraphTopology {
    let n = rng.uniform_u64(3, 6) as usize;
    let node = |i: usize| format!("n{i}");
    let mut links = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            if j == i + 1 || rng.uniform_u64(0, 3) == 0 {
                links.push(LinkSpec {
                    name: format!("n{i}-n{j}"),
                    from: node(i),
                    to: node(j),
                    rate: BitRate::from_bps(rng.uniform_u64(12_000, 96_000)),
                    delay: if coin(rng) {
                        Dur::from_millis(rng.uniform_u64(1, 40))
                    } else {
                        Dur::ZERO
                    },
                    buffer: Bits::new(rng.uniform_u64(24_000, 96_000)),
                    queue: queue(rng),
                });
            }
        }
    }
    let from_the_root = coin(rng);
    let flows = (0..rng.uniform_u64(2, 4))
        .map(|f| {
            let src = if from_the_root {
                0
            } else {
                rng.uniform_u64(0, n as u64 - 2) as usize
            };
            let dst = rng.uniform_u64(src as u64 + 1, n as u64 - 1) as usize;
            FlowSpec {
                name: format!("f{f}"),
                class: "c".into(),
                src: node(src),
                dst: node(dst),
                path: coin(rng).then(|| (src..=dst).map(node).collect()),
            }
        })
        .collect();
    GraphTopology {
        nodes: (0..n).map(node).collect(),
        links,
        flows,
        packet_size: Bits::from_bytes(1_500),
    }
}

#[test]
fn every_injected_packet_is_delivered_or_dropped_exactly_once() {
    let longest_chain = Cell::new(0);
    let delayed_routes = Cell::new(0);
    let drops_seen = Cell::new(0);
    for_each_case(0xF0_2A_4D, |rng| {
        let topo = topology(rng);
        let c = compile(&topo).expect("a forward DAG with its spine compiles");
        let mut net = c.net;

        // Each flow's own schedule, merged into one injection order.
        let mut sends: Vec<(u64, usize, u64, u64)> = Vec::new(); // (ms, flow, seq, bits)
        for f in 0..topo.flows.len() {
            let mut times: Vec<u64> = (0..rng.uniform_u64(1, 12))
                .map(|_| rng.uniform_u64(0, 2_000))
                .collect();
            times.sort();
            for (seq, ms) in times.into_iter().enumerate() {
                sends.push((ms, f, seq as u64, rng.uniform_u64(4_000, 12_000)));
            }
        }
        sends.sort();
        for &(ms, f, seq, bits) in &sends {
            let t = Time::from_millis(ms);
            net.run_until_sampled(t, rng);
            net.inject(
                c.entries[f],
                Packet::new(FlowId(f as u16), seq, Bits::new(bits), t),
            );
        }
        let mut until = net.now();
        loop {
            net.run_until_sampled(until, rng);
            match net.next_event_time() {
                Some(t) => until = t,
                None => break,
            }
        }

        // (flow, seq) → how often it came out, either way.
        let mut fates: BTreeMap<(usize, u64), usize> = BTreeMap::new();
        let mut last_seq: Vec<Option<u64>> = vec![None; topo.flows.len()];
        for (node, d) in net.take_deliveries() {
            let f = usize::from(d.packet.flow.0);
            assert_eq!(node, c.rxs[f], "flow {f} delivered at another receiver");
            assert!(last_seq[f] < Some(d.packet.seq), "flow {f} reordered");
            last_seq[f] = Some(d.packet.seq);
            let floor = c.routes[f].iter().fold(d.packet.sent_at, |t, &l| {
                t + topo.links[l].delay + topo.links[l].rate.service_time(d.packet.size)
            });
            assert!(d.at >= floor, "flow {f} seq {} beat its path", d.packet.seq);
            *fates.entry((f, d.packet.seq)).or_default() += 1;
        }
        for drop in net.take_drops() {
            let f = usize::from(drop.packet.flow.0);
            *fates.entry((f, drop.packet.seq)).or_default() += 1;
            drops_seen.set(drops_seen.get() + 1);
        }
        let injected: BTreeMap<(usize, u64), usize> =
            sends.iter().map(|&(_, f, seq, _)| ((f, seq), 1)).collect();
        assert_eq!(fates, injected);

        // What the generator is there to reach.
        for l in 0..topo.links.len() {
            let flows_on = c.routes.iter().filter(|r| r.contains(&l)).count();
            longest_chain.set(longest_chain.get().max(flows_on.saturating_sub(1)));
        }
        let delayed = |r: &Vec<usize>| r.iter().any(|&l| topo.links[l].delay > Dur::ZERO);
        delayed_routes.set(delayed_routes.get() + c.routes.iter().filter(|r| delayed(r)).count());
    });
    assert!(longest_chain.get() >= 2, "no link carried three flows");
    assert!(delayed_routes.get() > 0, "no route had propagation delay");
    assert!(drops_seen.get() > 0, "no queue ever dropped");
}
