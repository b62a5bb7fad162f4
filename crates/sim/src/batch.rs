//! Parallel experiment harness.
//!
//! Paper-scale evaluations (Figs. 13–16) are sweeps of hundreds of
//! independent (configuration, experiment) points; each point is a
//! self-contained cycle-level simulation, so the sweep parallelizes
//! perfectly across host cores. [`run_batch`] executes a slice of
//! [`BatchPoint`]s on a scoped work-stealing thread pool built from
//! `std::thread` only (the build environment has no network access for
//! rayon), returning results in input order.

use crate::config::SystemConfig;
use crate::result::TransferResult;
use crate::transfer::{run_memcpy, run_transfer, TransferSpec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// What a batch point simulates.
#[derive(Debug, Clone)]
pub enum Experiment {
    /// A DRAM↔PIM transfer (Figs. 13/15/16).
    Transfer(TransferSpec),
    /// The DRAM→DRAM `memcpy` microbenchmark (Fig. 14).
    Memcpy {
        /// Payload bytes.
        bytes: u64,
        /// Simulation cap in nanoseconds.
        max_ns: f64,
    },
}

/// One independent experiment point of a sweep.
#[derive(Debug, Clone)]
pub struct BatchPoint {
    /// Caller-chosen tag identifying the point in diagnostics (results
    /// themselves are matched to points by input order).
    pub label: String,
    /// Full system configuration for this point.
    pub cfg: SystemConfig,
    /// The experiment to run.
    pub experiment: Experiment,
}

impl BatchPoint {
    /// A transfer experiment point.
    pub fn transfer(label: impl Into<String>, cfg: SystemConfig, spec: TransferSpec) -> Self {
        BatchPoint {
            label: label.into(),
            cfg,
            experiment: Experiment::Transfer(spec),
        }
    }

    /// A memcpy experiment point.
    pub fn memcpy(label: impl Into<String>, cfg: SystemConfig, bytes: u64, max_ns: f64) -> Self {
        BatchPoint {
            label: label.into(),
            cfg,
            experiment: Experiment::Memcpy { bytes, max_ns },
        }
    }

    /// Run this point serially on the calling thread.
    pub fn run(&self) -> TransferResult {
        match &self.experiment {
            Experiment::Transfer(spec) => run_transfer(&self.cfg, spec),
            Experiment::Memcpy { bytes, max_ns } => run_memcpy(&self.cfg, *bytes, *max_ns),
        }
    }
}

/// The host's available parallelism (fallback: 1).
pub fn default_threads() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run every point and return results in input order, using up to
/// `threads` worker threads (clamped to the point count; `0` and `1`
/// both mean serial execution on the calling thread).
///
/// # Panics
///
/// Propagates any panic raised by a point (e.g. a transfer exceeding its
/// `max_ns` cap).
pub fn run_batch(points: &[BatchPoint], threads: usize) -> Vec<TransferResult> {
    let threads = threads.max(1).min(points.len().max(1));
    if threads == 1 {
        return points.iter().map(BatchPoint::run).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<TransferResult>>> =
        points.iter().map(|_| Mutex::new(None)).collect();
    thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(point) = points.get(i) else { break };
                let result = point.run();
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("result slot poisoned")
                .unwrap_or_else(|| {
                    panic!("batch point {i} ({}) produced no result", points[i].label)
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DesignPoint;
    use pim_mmu::XferKind;

    fn points(n: usize) -> Vec<BatchPoint> {
        (0..n)
            .map(|i| {
                let mut cfg = SystemConfig::table1(DesignPoint::BaseDHP);
                cfg.sample_ns = 50_000.0;
                let spec = TransferSpec {
                    n_cores: 64,
                    ..TransferSpec::simple(XferKind::DramToPim, 1 << 20)
                };
                BatchPoint::transfer(format!("p{i}"), cfg, spec)
            })
            .collect()
    }

    #[test]
    fn parallel_matches_serial_in_order() {
        let pts = points(4);
        let serial = run_batch(&pts, 1);
        let parallel = run_batch(&pts, 4);
        assert_eq!(serial.len(), 4);
        assert_eq!(parallel.len(), 4);
        for (s, p) in serial.iter().zip(&parallel) {
            // The simulation is deterministic: identical points must
            // produce bit-identical timings regardless of the pool.
            assert_eq!(s.elapsed_ns, p.elapsed_ns);
            assert_eq!(s.bytes, p.bytes);
        }
    }

    #[test]
    fn thread_count_is_clamped() {
        let pts = points(2);
        let r = run_batch(&pts, 64);
        assert_eq!(r.len(), 2);
        assert!(run_batch(&[], 8).is_empty());
    }

    #[test]
    fn memcpy_points_run() {
        let mut cfg = SystemConfig::table1(DesignPoint::Baseline);
        cfg.sample_ns = 50_000.0;
        let p = BatchPoint::memcpy("m", cfg, 1 << 20, 1e9);
        let r = run_batch(std::slice::from_ref(&p), 2);
        assert_eq!(r[0].bytes, 1 << 20);
        assert!(r[0].throughput_gbps() > 0.0);
    }
}
