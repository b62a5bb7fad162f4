//! Shared plumbing for the per-figure benchmark harness binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! PIM-MMU paper (see `EXPERIMENTS.md` for recorded paper-vs-measured
//! results). Run with `cargo run --release -p pim-bench --bin <experiment>`;
//! pass `--full` for the paper-scale transfer sizes (slower).

pub mod goldens;
pub mod json;
pub mod perfetto;
pub mod report;

use json::Json;
use pim_sim::{DesignPoint, SystemConfig, TimingStats};
use std::time::Instant;

/// Parse harness CLI flags (`--full` for paper-scale sizes, `--smoke`
/// for the cheapest CI-gate sizes, `--threads N` to bound the
/// batch-harness worker pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarnessArgs {
    /// Run the full paper-scale sweep.
    pub full: bool,
    /// Run the minimal CI-smoke sweep (wins over `full` when both are
    /// passed — CI gates must stay cheap no matter what).
    pub smoke: bool,
    /// Explicit worker count for `pim_sim::batch` (default: all cores).
    pub threads: Option<usize>,
}

impl HarnessArgs {
    /// Read from `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics if `--threads` is present without a positive integer value.
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let smoke = args.iter().any(|a| a == "--smoke");
        let full = !smoke && args.iter().any(|a| a == "--full");
        let threads = args.iter().position(|a| a == "--threads").map(|i| {
            args.get(i + 1)
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .expect("--threads requires a positive integer")
        });
        HarnessArgs {
            full,
            smoke,
            threads,
        }
    }

    /// The worker-pool size to hand to [`pim_sim::run_batch`].
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(pim_sim::default_threads)
    }
}

/// The value following a `--flag` on the command line, if present.
///
/// # Panics
///
/// Panics if the flag is the last argument, with no value after it.
pub fn flag_val(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("{name} needs a value"))
            .clone()
    })
}

/// Table-I config with a given design point and a sampling interval that
/// yields useful time series at microbenchmark scale.
pub fn cfg(design: DesignPoint) -> SystemConfig {
    let mut c = SystemConfig::table1(design);
    c.sample_ns = 50_000.0;
    c
}

/// Pretty-print a ratio table row.
pub fn row(label: &str, values: &[f64]) {
    print!("{label:<24}");
    for v in values {
        print!(" {v:>9.3}");
    }
    println!();
}

/// Wall-clock and event-scheduler metadata for one sweep cell, so every
/// benchmark's JSON records how much simulated time the run covered,
/// how hard the timing core worked for it, and what the idle-skip
/// machinery saved (`edges_skipped` is zero under the cycle-stepped
/// reference by construction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepMeta {
    /// Wall-clock time the run took, milliseconds.
    pub wall_ms: f64,
    /// Simulated span covered, nanoseconds.
    pub sim_ns: f64,
    /// Scheduler events processed ([`TimingStats::events_fired`]).
    pub events_fired: u64,
    /// Per-domain edges actually delivered ([`TimingStats::domain_ticks`]).
    pub domain_ticks: u64,
    /// Idle edges elided by deferral/parking ([`TimingStats::edges_skipped`]).
    pub edges_skipped: u64,
}

impl SweepMeta {
    /// Run `f`, timing it on the wall clock; `f` returns the simulated
    /// span and the system's final [`TimingStats`].
    #[allow(
        clippy::disallowed_methods,
        reason = "wall_ms reports the harness's own run time"
    )]
    pub fn measure(f: impl FnOnce() -> (f64, TimingStats)) -> Self {
        let start = Instant::now();
        let (sim_ns, stats) = f();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        SweepMeta {
            wall_ms,
            sim_ns,
            events_fired: stats.events_fired,
            domain_ticks: stats.domain_ticks,
            edges_skipped: stats.edges_skipped,
        }
    }

    /// Simulation rate: simulated nanoseconds per wall-clock second.
    pub fn sim_ns_per_wall_s(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.sim_ns / (self.wall_ms / 1e3)
    }

    /// The metadata as a JSON object for a sweep cell.
    pub fn json(&self) -> Json {
        Json::obj([
            ("wall_ms", Json::num(self.wall_ms)),
            ("sim_ns", Json::num(self.sim_ns)),
            ("events_fired", Json::int(self.events_fired)),
            ("domain_ticks", Json::int(self.domain_ticks)),
            ("edges_skipped", Json::int(self.edges_skipped)),
            ("sim_ns_per_wall_s", Json::num(self.sim_ns_per_wall_s())),
        ])
    }
}

/// Geometric mean of a slice.
///
/// # Panics
///
/// Panics if `xs` is empty or contains non-positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    let s: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean requires positive values, got {x}");
            x.ln()
        })
        .sum();
    (s / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn cfg_wires_design() {
        assert_eq!(cfg(DesignPoint::BaseDHP).design, DesignPoint::BaseDHP);
    }

    #[test]
    fn threads_defaults_to_host_parallelism() {
        let args = HarnessArgs {
            full: false,
            smoke: false,
            threads: None,
        };
        assert_eq!(args.threads(), pim_sim::default_threads());
        let pinned = HarnessArgs {
            full: false,
            smoke: false,
            threads: Some(3),
        };
        assert_eq!(pinned.threads(), 3);
    }
}
