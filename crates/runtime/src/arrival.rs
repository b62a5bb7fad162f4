//! Open-loop traffic generation: seeded arrival processes and job-size
//! samplers.
//!
//! Everything is driven by a deterministic xorshift64* generator, so a
//! fixed seed replays the exact same trace — the property the serving
//! benchmarks rely on for bit-identical reruns.

use pim_workloads::PRIM_SUITE;

/// Deterministic xorshift64* PRNG (the same generator family the
/// workspace's proptest stub and contender streams use).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seed a generator; zero maps to a fixed non-zero state.
    pub fn new(seed: u64) -> Self {
        Rng(if seed == 0 { 0x9E3779B97F4A7C15 } else { seed })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform value in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty sampling range");
        self.next_u64() % n
    }

    /// Exponentially distributed value with the given mean (inverse-CDF
    /// sampling; used for Poisson interarrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        // 1 - u ∈ (0, 1], so ln is finite.
        -(1.0 - self.next_f64()).ln() * mean
    }
}

/// When jobs arrive.
#[derive(Debug, Clone)]
pub enum ArrivalProcess {
    /// Open-loop Poisson arrivals with the given mean interarrival gap.
    Poisson {
        /// Mean gap between arrivals, ns.
        mean_ns: f64,
    },
    /// Open-loop bursts: `burst` jobs arrive back to back, then a fixed
    /// gap — the bursty half of a serving workload.
    Bursty {
        /// Jobs per burst.
        burst: u32,
        /// Gap between burst starts, ns.
        gap_ns: f64,
    },
    /// Closed-loop feedback: keep `inflight` requests outstanding,
    /// re-issuing `think_ns` after each completion (a synchronous client
    /// pool).
    ClosedLoop {
        /// Outstanding requests maintained.
        inflight: u32,
        /// Client think time between completion and re-issue, ns.
        think_ns: f64,
    },
    /// An explicit list of arrival times (ns, ascending) — fixed traces
    /// for tests and reproductions.
    Trace(Vec<f64>),
}

/// Stateful generator for one tenant's arrivals.
#[derive(Debug)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: Rng,
    /// Next due arrival times (ascending).
    due: std::collections::VecDeque<f64>,
    /// Next gap-derived arrival, for the open-loop processes.
    next_ns: f64,
    trace_idx: usize,
}

impl ArrivalGen {
    /// Build a generator; `seed` only matters for [`ArrivalProcess::Poisson`].
    ///
    /// # Panics
    ///
    /// Panics on degenerate rates that would generate unboundedly many
    /// arrivals at one instant: a non-positive Poisson mean gap, a
    /// non-positive burst gap, a zero-size burst, or a negative think
    /// time.
    pub fn new(process: ArrivalProcess, seed: u64) -> Self {
        match &process {
            ArrivalProcess::Poisson { mean_ns } => {
                assert!(*mean_ns > 0.0, "Poisson mean gap must be positive");
            }
            ArrivalProcess::Bursty { burst, gap_ns } => {
                assert!(*gap_ns > 0.0, "burst gap must be positive");
                assert!(*burst > 0, "bursts must carry at least one job");
            }
            ArrivalProcess::ClosedLoop { think_ns, .. } => {
                assert!(*think_ns >= 0.0, "think time cannot be negative");
            }
            ArrivalProcess::Trace(times) => {
                assert!(
                    times.windows(2).all(|w| w[0] <= w[1]),
                    "trace arrival times must be ascending"
                );
            }
        }
        let mut gen = ArrivalGen {
            process,
            rng: Rng::new(seed),
            due: std::collections::VecDeque::new(),
            next_ns: 0.0,
            trace_idx: 0,
        };
        match gen.process {
            // The first Poisson gap is sampled like every other, so
            // tenants do not start synchronized at t = 0 (which would
            // bias FCFS toward the lowest tenant index on every seed).
            ArrivalProcess::Poisson { mean_ns } => gen.next_ns = gen.rng.exp(mean_ns),
            // Bursty tenants deliberately fire their first burst at
            // t = 0: the phase is part of the workload's definition.
            ArrivalProcess::ClosedLoop { inflight, .. } => {
                // The client pool issues its whole window at t = 0.
                for _ in 0..inflight {
                    gen.due.push_back(0.0);
                }
            }
            _ => {}
        }
        gen
    }

    /// Pop every arrival due at or before `now_ns` (while `now_ns` is
    /// below `open_until_ns` for the open-loop processes) into `out`.
    pub fn poll(&mut self, now_ns: f64, open_until_ns: f64, out: &mut Vec<f64>) {
        match &mut self.process {
            ArrivalProcess::Poisson { mean_ns } => {
                while self.next_ns <= now_ns && self.next_ns < open_until_ns {
                    out.push(self.next_ns);
                    self.next_ns += self.rng.exp(*mean_ns);
                }
            }
            ArrivalProcess::Bursty { burst, gap_ns } => {
                while self.next_ns <= now_ns && self.next_ns < open_until_ns {
                    for _ in 0..*burst {
                        out.push(self.next_ns);
                    }
                    self.next_ns += *gap_ns;
                }
            }
            ArrivalProcess::ClosedLoop { .. } => {
                while self
                    .due
                    .front()
                    .is_some_and(|&t| t <= now_ns && t < open_until_ns)
                {
                    out.push(self.due.pop_front().unwrap().max(0.0));
                }
            }
            ArrivalProcess::Trace(times) => {
                while times.get(self.trace_idx).is_some_and(|&t| t <= now_ns) {
                    out.push(times[self.trace_idx]);
                    self.trace_idx += 1;
                }
            }
        }
    }

    /// The earliest time a [`poll`](Self::poll) could deliver an
    /// arrival, or `None` if none can ever come. Mirrors `poll`'s gating
    /// exactly (open-window filtering for the open-loop processes, head
    /// -of-queue for closed-loop, unwindowed for traces), so a host
    /// clock sleeping until this instant observes the same arrivals it
    /// would have polling every edge.
    pub fn next_arrival_ns(&self, open_until_ns: f64) -> Option<f64> {
        match &self.process {
            ArrivalProcess::Poisson { .. } | ArrivalProcess::Bursty { .. } => {
                (self.next_ns < open_until_ns).then_some(self.next_ns)
            }
            ArrivalProcess::ClosedLoop { .. } => self
                .due
                .front()
                .and_then(|&t| (t < open_until_ns).then_some(t)),
            ArrivalProcess::Trace(times) => times.get(self.trace_idx).copied(),
        }
    }

    /// Feedback hook: a job of this tenant completed at `now_ns`
    /// (meaningful for [`ArrivalProcess::ClosedLoop`] only).
    pub fn on_complete(&mut self, now_ns: f64) {
        if let ArrivalProcess::ClosedLoop { think_ns, .. } = self.process {
            self.due.push_back(now_ns + think_ns);
        }
    }

    /// Whether this generator can never produce another arrival inside
    /// the open window `open_until_ns`. Deliberately independent of the
    /// current time: an arrival already scheduled inside the window but
    /// not yet polled (the host clock hasn't reached it) still
    /// counts as pending.
    pub fn exhausted(&self, open_until_ns: f64) -> bool {
        match &self.process {
            ArrivalProcess::Poisson { .. } | ArrivalProcess::Bursty { .. } => {
                self.next_ns >= open_until_ns
            }
            // No pending re-issue lands inside the open window. (Whether
            // future completions could still push one is the runtime's
            // call: with no queued or in-flight job, they cannot.)
            ArrivalProcess::ClosedLoop { .. } => self.due.iter().all(|&t| t >= open_until_ns),
            ArrivalProcess::Trace(times) => self.trace_idx >= times.len(),
        }
    }
}

/// How large each arriving job is.
#[derive(Debug, Clone, Copy)]
pub enum JobSizer {
    /// Every job moves `per_core_bytes` to each of `n_cores` cores.
    Fixed {
        /// Bytes per core (nonzero multiple of 64).
        per_core_bytes: u64,
        /// Cores per job.
        n_cores: u32,
    },
    /// Job sizes sampled from the PrIM suite's inputs
    /// ([`pim_workloads::PRIM_SUITE`]), rescaled so the largest suite
    /// input maps to `cap_bytes`.
    Suite {
        /// Total bytes the largest suite input maps to.
        cap_bytes: u64,
        /// Cores per job.
        n_cores: u32,
    },
}

impl JobSizer {
    /// Cores every job of this sizer targets (both variants pin it).
    pub fn n_cores(&self) -> u32 {
        match *self {
            JobSizer::Fixed { n_cores, .. } | JobSizer::Suite { n_cores, .. } => n_cores,
        }
    }

    /// Sample `(per_core_bytes, n_cores)` for the next job.
    pub fn sample(&self, rng: &mut Rng) -> (u64, u32) {
        match *self {
            JobSizer::Fixed {
                per_core_bytes,
                n_cores,
            } => (per_core_bytes, n_cores),
            JobSizer::Suite { cap_bytes, n_cores } => {
                // `below` returns a value < len, which fits usize.
                let w = PRIM_SUITE[usize::try_from(rng.below(PRIM_SUITE.len() as u64)).unwrap()];
                (w.scaled_per_core(cap_bytes, n_cores), n_cores)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_and_open_loop() {
        let mk = || ArrivalGen::new(ArrivalProcess::Poisson { mean_ns: 100.0 }, 42);
        let mut a = mk();
        let mut b = mk();
        let (mut ta, mut tb) = (Vec::new(), Vec::new());
        a.poll(10_000.0, f64::INFINITY, &mut ta);
        b.poll(10_000.0, f64::INFINITY, &mut tb);
        assert_eq!(ta, tb, "same seed, same trace");
        // ~100 arrivals in 100 mean gaps; loose 3x band.
        assert!(ta.len() > 33 && ta.len() < 300, "{}", ta.len());
        assert!(ta.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn poisson_respects_the_open_window() {
        let mut g = ArrivalGen::new(ArrivalProcess::Poisson { mean_ns: 50.0 }, 7);
        let mut t = Vec::new();
        g.poll(10_000.0, 1_000.0, &mut t);
        assert!(t.iter().all(|&x| x < 1_000.0));
        assert!(g.exhausted(1_000.0));
    }

    #[test]
    fn bursts_arrive_together() {
        let mut g = ArrivalGen::new(
            ArrivalProcess::Bursty {
                burst: 4,
                gap_ns: 1_000.0,
            },
            0,
        );
        let mut t = Vec::new();
        g.poll(2_500.0, f64::INFINITY, &mut t);
        assert_eq!(t.len(), 12); // bursts at 0, 1000, 2000
        assert_eq!(&t[..4], &[0.0; 4]);
        assert_eq!(&t[4..8], &[1000.0; 4]);
    }

    #[test]
    fn closed_loop_reissues_after_completion() {
        let mut g = ArrivalGen::new(
            ArrivalProcess::ClosedLoop {
                inflight: 2,
                think_ns: 10.0,
            },
            0,
        );
        let mut t = Vec::new();
        g.poll(0.0, f64::INFINITY, &mut t);
        assert_eq!(t, vec![0.0, 0.0]);
        t.clear();
        g.poll(100.0, f64::INFINITY, &mut t);
        assert!(t.is_empty(), "no completions, no new arrivals");
        g.on_complete(100.0);
        g.poll(200.0, f64::INFINITY, &mut t);
        assert_eq!(t, vec![110.0]);
    }

    #[test]
    fn traces_replay_and_exhaust() {
        let mut g = ArrivalGen::new(ArrivalProcess::Trace(vec![5.0, 7.0, 9.0]), 0);
        let mut t = Vec::new();
        g.poll(7.0, f64::INFINITY, &mut t);
        assert_eq!(t, vec![5.0, 7.0]);
        assert!(!g.exhausted(f64::INFINITY));
        g.poll(100.0, f64::INFINITY, &mut t);
        assert!(g.exhausted(f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "burst gap must be positive")]
    fn zero_burst_gap_is_rejected() {
        // Regression: a zero gap would loop forever emitting arrivals at
        // one instant.
        ArrivalGen::new(
            ArrivalProcess::Bursty {
                burst: 4,
                gap_ns: 0.0,
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "mean gap must be positive")]
    fn zero_poisson_mean_is_rejected() {
        ArrivalGen::new(ArrivalProcess::Poisson { mean_ns: 0.0 }, 0);
    }

    #[test]
    fn sizers_produce_valid_shapes() {
        let mut rng = Rng::new(3);
        let fixed = JobSizer::Fixed {
            per_core_bytes: 4096,
            n_cores: 16,
        };
        assert_eq!(fixed.sample(&mut rng), (4096, 16));
        let suite = JobSizer::Suite {
            cap_bytes: 1 << 20,
            n_cores: 32,
        };
        for _ in 0..100 {
            let (per_core, n) = suite.sample(&mut rng);
            assert_eq!(n, 32);
            assert!(per_core >= 64 && per_core.is_multiple_of(64));
        }
    }
}
