//! What more than one test binary needs. Each binary uses a part of it.
#![allow(dead_code, reason = "each test binary uses a part of this module")]

use augur_scenario::{presets, Axis, SenderSpec, SweepGrid};
use augur_sim::Dur;

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The grid `sweep <args>` runs: a preset name, then `--duration <s>`,
/// `--replicates <k>`, `--branches <n>`, `--trace-events` or
/// `--belief-snapshots <s>`, each applied as `sweep` applies it.
pub fn grid_of(args: &str) -> SweepGrid {
    let mut words = args.split(' ');
    let mut grid = presets::by_name(words.next().unwrap()).expect("a preset");
    while let Some(flag) = words.next() {
        if flag == "--trace-events" {
            grid.base.observe.trace_events = true;
            continue;
        }
        let value: u64 = words.next().unwrap().parse().unwrap();
        match flag {
            "--duration" => grid.set_duration(Dur::from_secs(value)),
            "--replicates" => assert!(grid.set_replicates(value as usize)),
            "--branches" => assert!(grid.set_max_branches(value as usize)),
            "--belief-snapshots" => grid.base.observe.snapshot_every = Some(Dur::from_secs(value)),
            _ => panic!("`{args}`: unknown flag {flag}"),
        }
    }
    grid
}

/// The shipped `scaling` sweep over the prior `sizes`, its particle
/// filter drawing `n_particles`.
pub fn scaling_grid(sizes: &[usize], n_particles: usize) -> SweepGrid {
    let mut grid = presets::by_name("scaling").expect("scaling is shipped");
    for axis in &mut grid.axes {
        match axis {
            Axis::PriorSize(shipped) => *shipped = sizes.to_vec(),
            Axis::Sender(senders) => {
                for sender in senders {
                    if let SenderSpec::IsenderParticle { n_particles: n, .. } = sender {
                        *n = n_particles;
                    }
                }
            }
            _ => {}
        }
    }
    grid
}
