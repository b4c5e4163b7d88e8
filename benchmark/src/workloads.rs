//! The four workloads and the inputs generated for them.
//!
//! Each workload is one shipped sweep. The spec text is compiled into
//! the benchmark from `experiments/specs/`; input generation edits it,
//! writes it (and, for the trace replay, the trace files it refers to)
//! under `benchmark/out/`, and the sweep is then loaded from those
//! files only.

use augur_scenario::{presets, SweepGrid};
use augur_sim::Dur;
use std::path::{Path, PathBuf};

/// The `--seconds` value the iteration counts below are sized for.
pub const NOMINAL_SECONDS: u64 = 30;

pub struct Workload {
    pub name: &'static str,
    /// Why it was chosen (one line, recorded in `BENCHMARK.json`).
    pub why: &'static str,
    spec_text: &'static str,
    /// `duration_s` written over the shipped one.
    duration_s: Option<u64>,
    /// Whether a non-zero `--seed` is written over `base_seed`. Off where
    /// the sweep's work moves between seeds by more than the time bounds
    /// can hold next to host noise: runs that differ only in `--seed`
    /// are pooled into one median and their spread is held to the bound.
    reseed: bool,
    /// Timed iterations at `NOMINAL_SECONDS`, and the fewest ever run.
    timed_iterations: usize,
    min_iterations: usize,
    /// No sender carries a belief, so `hypothesis_updates` must be 0.
    pub belief_free: bool,
}

// The iteration counts make every timed phase about 30 s on the
// reference box, which is as long as the driver's total-time cap allows.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fig3",
        why: "exact belief advance/fork/compact and planner rollouts over the paper prior do nearly all the work; the sweep the belief speed-up target is stated on",
        spec_text: include_str!("../../experiments/specs/fig3.toml"),
        duration_s: None,
        // Over base seeds 1 to 20 one iteration took 6.1 to 11.7 s (IQR
        // 16 % of the median) and peaked at 65, 123 or 169 MiB.
        reseed: false,
        timed_iterations: 5,
        min_iterations: 3,
        belief_free: false,
    },
    Workload {
        name: "dumbbell-cross",
        why: "the same belief and planner code on a small prior with frequent restarts and three agents over a compiled graph topology with diverter-chain forwarding",
        spec_text: include_str!("../../experiments/specs/dumbbell-cross.toml"),
        duration_s: None,
        reseed: true,
        timed_iterations: 80,
        min_iterations: 9,
        belief_free: false,
    },
    Workload {
        name: "ext-scaling-flows",
        why: "no belief at all: driver dispatch, the per-event timer scan on one large network and TCP endpoints do the work; the bypass workload for belief and planner changes",
        spec_text: include_str!("../../experiments/specs/ext-scaling-flows.toml"),
        duration_s: None,
        reseed: true,
        timed_iterations: 100,
        min_iterations: 9,
        belief_free: true,
    },
    Workload {
        name: "replay-cellular",
        why: "no belief, few nodes, many packets: rate-process integration, AQM queues, TCP and per-run summary and CSV work have their largest share here",
        spec_text: include_str!("../../experiments/specs/replay-cellular.toml"),
        // The traces loop. At the shipped 60 s one sweep takes 25 ms and
        // single iterations spread by 17 %.
        duration_s: Some(600),
        // Over base seeds 1 to 20 `sim.events` ran from 1.51 M to 1.73 M
        // (IQR 4 % of the median over the first ten, 8 % over the rest)
        // at a steady 0.15 us per event.
        reseed: false,
        timed_iterations: 100,
        min_iterations: 9,
        belief_free: true,
    },
];

const TRACES: [(&str, &str); 2] = [
    (
        "lte-fade.csv",
        include_str!("../../experiments/traces/lte-fade.csv"),
    ),
    (
        "lte-scatter.csv",
        include_str!("../../experiments/traces/lte-scatter.csv"),
    ),
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Timed iterations for a `--seconds` value: a fixed count, never a
    /// time box, so two commits given the same value do identical work.
    pub fn timed_iterations(&self, seconds: u64) -> usize {
        let scaled =
            (self.timed_iterations as u64 * seconds + NOMINAL_SECONDS / 2) / NOMINAL_SECONDS;
        (scaled as usize).max(self.min_iterations)
    }

    /// Whether the spec generated for `seed` is the shipped sweep.
    pub fn is_shipped_sweep(&self, seed: u64) -> bool {
        seed == 0 || !self.reseed
    }

    /// The spec text the sweep is loaded from: the shipped text, with
    /// `seed` written over `base_seed` unless the sweep is the shipped
    /// one, every other byte unchanged.
    pub fn spec_text(&self, seed: u64) -> String {
        let mut text = self.spec_text.to_string();
        if let Some(d) = self.duration_s {
            text = rewrite_scalar(&text, "duration_s", &format!("{d}.0"));
        }
        if !self.is_shipped_sweep(seed) {
            text = rewrite_scalar(&text, "base_seed", &seed.to_string());
        }
        text
    }

    /// What `sweep <name>` itself expands for this workload, from the
    /// preset constructors and not from any spec file.
    pub fn preset_grid(&self) -> SweepGrid {
        match self.duration_s {
            None => presets::by_name(self.name).expect("every verbatim workload is a preset"),
            Some(d) => presets::replay_cellular(Dur::from_secs(d)),
        }
    }
}

/// Replace the value of the first `key = value` line, leaving every
/// other byte as it was.
///
/// # Panics
/// Panics if no line starts with `key = `: the shipped specs all carry
/// the keys the benchmark rewrites.
pub fn rewrite_scalar(text: &str, key: &str, value: &str) -> String {
    let prefix = format!("{key} = ");
    let mut offset = 0;
    for line in text.split_inclusive('\n') {
        if line.starts_with(&prefix) {
            let start = offset + prefix.len();
            let end = offset + line.trim_end_matches(['\n', '\r']).len();
            return format!("{}{value}{}", &text[..start], &text[end..]);
        }
        offset += line.len();
    }
    panic!("spec has no `{key} = ` line");
}

/// The generated input files of one process, removed when dropped.
pub struct Inputs {
    dir: PathBuf,
    pub spec_path: PathBuf,
}

impl Inputs {
    /// Write the workload's spec, and the trace files it names relative
    /// to itself, under `benchmark/out/`.
    pub fn generate(w: &Workload, seed: u64) -> Result<Inputs, String> {
        let dir = out_dir()?.join(format!("inputs-{}", std::process::id()));
        let write = |rel: &str, text: &str| -> Result<PathBuf, String> {
            let path = dir.join(rel);
            let parent = path.parent().expect("input files sit in a directory");
            std::fs::create_dir_all(parent)
                .and_then(|()| std::fs::write(&path, text))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Ok(path)
        };
        let spec = w.spec_text(seed);
        if spec.contains("../traces/") {
            for (file, text) in TRACES {
                write(&format!("traces/{file}"), text)?;
            }
        }
        let spec_path = write(&format!("specs/{}.toml", w.name), &spec)?;
        Ok(Inputs { dir, spec_path })
    }
}

impl Drop for Inputs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `benchmark/out/` under the current directory, which has to be the
/// root of the repository.
pub fn out_dir() -> Result<PathBuf, String> {
    let home = Path::new("benchmark");
    if !home.join("Cargo.toml").is_file() {
        return Err("run the benchmark from the root of the repository".to_string());
    }
    let out = home.join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_rewrite_leaves_every_other_byte_unchanged() {
        for w in WORKLOADS.iter().filter(|w| w.reseed) {
            let shipped = w.spec_text(0);
            let seeded = w.spec_text(123_456_789);
            let at = shipped.find("base_seed = ").unwrap() + "base_seed = ".len();
            let old_len = shipped[at..].find('\n').unwrap();
            assert_eq!(&seeded[..at], &shipped[..at], "{}", w.name);
            assert_eq!(&seeded[at..at + 9], "123456789", "{}", w.name);
            assert_eq!(&seeded[at + 9..], &shipped[at + old_len..], "{}", w.name);
            assert!(!w.is_shipped_sweep(123_456_789), "{}", w.name);
        }
    }

    #[test]
    fn a_workload_that_does_not_reseed_ships_at_every_seed() {
        for w in &WORKLOADS {
            assert_eq!(w.spec_text(7) == w.spec_text(0), !w.reseed, "{}", w.name);
            assert_eq!(w.is_shipped_sweep(7), !w.reseed, "{}", w.name);
        }
    }

    #[test]
    fn verbatim_workloads_ship_unedited() {
        for w in WORKLOADS.iter().filter(|w| w.duration_s.is_none()) {
            assert_eq!(w.spec_text(0), w.spec_text, "{}", w.name);
        }
        let replay = by_name("replay-cellular").unwrap();
        assert_eq!(
            replay.spec_text(0),
            replay
                .spec_text
                .replace("duration_s = 60.0", "duration_s = 600.0")
        );
    }

    #[test]
    fn rewrite_touches_only_the_first_matching_line() {
        let text = "a = 1\nkey = old # note\r\nkey = second\n";
        assert_eq!(
            rewrite_scalar(text, "key", "new"),
            "a = 1\nkey = new\r\nkey = second\n"
        );
    }

    #[test]
    fn iteration_counts_scale_with_seconds_down_to_a_floor() {
        let fig3 = by_name("fig3").unwrap();
        assert_eq!(fig3.timed_iterations(NOMINAL_SECONDS), 5);
        assert_eq!(fig3.timed_iterations(1), 3);
        assert_eq!(fig3.timed_iterations(60), 10);
        let flows = by_name("ext-scaling-flows").unwrap();
        assert_eq!(flows.timed_iterations(NOMINAL_SECONDS), 100);
        assert_eq!(flows.timed_iterations(15), 50);
        assert_eq!(flows.timed_iterations(1), 9);
    }
}
