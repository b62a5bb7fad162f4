//! Measurement plumbing shared by every workload: metric records and
//! their JSON line, order statistics (median, tail percentile), the
//! peak-RSS probe, benchmark spans and the output digest.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, better: Better) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            better,
        }
    }
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// The machine-readable result: the last line the benchmark prints.
/// Values are written with every digit (`{}` on `f64` round-trips).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Candidate tail percentiles in basis points, highest first.
const TAIL_LADDER_BP: [u64; 5] = [9_999, 9_990, 9_900, 9_500, 9_000];

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_MIN_BEYOND: u64 = 10;

/// A tail latency: the highest ladder percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, by nearest rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile in basis points (9_990 is p99.9).
    pub bp: u64,
    pub value: f64,
    /// Samples strictly past the percentile's rank.
    pub beyond: u64,
    pub n: u64,
}

impl Tail {
    pub fn label(&self) -> String {
        let whole = self.bp / 100;
        match self.bp % 100 {
            0 => format!("p{whole}"),
            f if f % 10 == 0 => format!("p{whole}.{}", f / 10),
            f => format!("p{whole}.{f:02}"),
        }
    }
}

/// Nearest-rank index (0-based) of percentile `bp` among `n` samples.
fn rank(bp: u64, n: u64) -> u64 {
    (bp * n).div_ceil(10_000).max(1) - 1
}

/// Pick the tail percentile for `samples` (any order). `None` when even
/// p90 has fewer than [`TAIL_MIN_BEYOND`] samples beyond it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let n = v.len() as u64;
    TAIL_LADDER_BP.iter().find_map(|&bp| {
        let r = rank(bp, n);
        let beyond = n.checked_sub(r + 1)?;
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            bp,
            value: v[usize::try_from(r).expect("rank fits usize")],
            beyond,
            n,
        })
    })
}

/// Peak resident set size in KiB, from the `VmHWM:` line of a
/// `/proc/<pid>/status` text.
pub fn vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kib = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(kib)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    vm_hwm_kib(&status).map(|k| k as f64 / 1024.0)
}

/// One closed span of benchmark work.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in [`Spans::spans`].
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// In-memory span log of the benchmark's own calls into the program,
/// timed from one origin.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    /// Close span `id` and return its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let s = &mut self.spans[id];
        s.end = self.origin.elapsed();
        (s.end - s.start).as_secs_f64()
    }

    /// Run `f` inside a span named `name`; returns its result and
    /// duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Seconds since the origin.
    pub fn elapsed_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Count and total seconds of the spans at each path (`pass/run`,
    /// `construct`, ...), in first-seen order.
    pub fn summary(&self) -> Vec<(String, usize, f64)> {
        let mut out: Vec<(String, usize, f64)> = Vec::new();
        for s in &self.spans {
            let path = match s.parent {
                Some(p) => format!("{}/{}", self.spans[p].name, s.name),
                None => s.name.to_string(),
            };
            let secs = (s.end - s.start).as_secs_f64();
            match out.iter_mut().find(|(p, _, _)| *p == path) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += secs;
                }
                None => out.push((path, 1, secs)),
            }
        }
        out
    }
}

/// FNV-1a over 64-bit words: a digest of every simulated output, so
/// bit-identity across passes, runs and trace modes is one comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

/// SplitMix64: the benchmark's own input generator, so generated inputs
/// do not change when the program's generators do.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Seconds the calibration kernel takes at the reference host speed:
/// its typical time on a 2.1 GHz, 2-CPU Xeon container. Host times are
/// reported at this speed.
pub const REFERENCE_KERNEL_S: f64 = 0.022;

/// A fixed calibration kernel that tracks the host's speed.
///
/// On a shared host the same pass runs up to 1.45x faster or slower for
/// minutes at a time as other tenants come and go, which no number of
/// passes in one run averages away. The kernel is timed between passes,
/// and each host time is scaled by `REFERENCE_KERNEL_S / kernel time`.
/// Like the simulator's own work it chases pointers, churns ordered maps
/// and runs branchy code, in four parts that feel the host differently:
/// dependent loads through a 256 KiB cycle that stays in a core's
/// private cache (plus churn of a 4,000-key map), through an 8 MiB cycle
/// that does not, churn of a 50,000-key map, and a round trip of floats
/// through text, whose code is large. The kernel time is the geometric
/// mean of the parts, each the median of three runs. It uses the
/// standard library only, so no change to the program moves it.
pub struct Calibration {
    near: Vec<u32>,
    far: Vec<u32>,
}

impl Calibration {
    const NEAR_SLOTS: u32 = 1 << 16;
    const FAR_SLOTS: u32 = 1 << 21;
    /// Bytes of the two cycles, resident from `new` to the end of the
    /// run; `peak_rss_mb` leaves them out.
    pub const RESIDENT_BYTES: u64 = 4 * (Self::NEAR_SLOTS as u64 + Self::FAR_SLOTS as u64);

    pub fn new() -> Self {
        Calibration {
            near: cycle(Self::NEAR_SLOTS),
            far: cycle(Self::FAR_SLOTS),
        }
    }

    /// Seconds the kernel takes now.
    pub fn time_s(&self) -> f64 {
        let parts = [
            median_of_three(|| chase(&self.near, 1_000_000).wrapping_add(churn(100_000, 4_000))),
            median_of_three(|| chase(&self.far, 500_000)),
            median_of_three(|| churn(100_000, 50_000)),
            median_of_three(|| floats_through_text(20_000)),
        ];
        (parts.iter().map(|s| s.ln()).sum::<f64>() / parts.len() as f64).exp()
    }
}

/// A random single cycle through `slots` slots (Sattolo's shuffle).
fn cycle(slots: u32) -> Vec<u32> {
    let mut next: Vec<u32> = (0..slots).collect();
    let mut rng = SplitMix64::new(0x5EED);
    for i in (1..next.len()).rev() {
        let j = usize::try_from(rng.next_u64() % i as u64).expect("below a usize index");
        next.swap(i, j);
    }
    next
}

/// Follow `next` for `loads` dependent loads.
fn chase(next: &[u32], loads: usize) -> u64 {
    let (mut slot, mut sum) = (0u32, 0u64);
    for _ in 0..loads {
        slot = next[slot as usize];
        sum = sum.wrapping_add(u64::from(slot));
    }
    sum
}

/// `ops` inserts, and a remove every third op, over `keys` keys.
fn churn(ops: u64, keys: u64) -> u64 {
    let mut map = std::collections::BTreeMap::new();
    for i in 0..ops {
        map.insert(i.wrapping_mul(0x9E37_79B9) % keys, i);
        if i % 3 == 0 {
            map.remove(&(i % keys));
        }
    }
    map.len() as u64
}

/// Print `n` pseudo-random floats in two notations and parse them back.
fn floats_through_text(n: usize) -> u64 {
    let mut rng = SplitMix64::new(3);
    let mut sum = 0u64;
    let mut text = String::new();
    for _ in 0..n {
        let x = rng.unit() * 1e6;
        text.clear();
        let _ = write!(text, "{x} {:e}", x * 3.7);
        for word in text.split(' ') {
            let y: f64 = word.parse().expect("a printed float parses");
            sum = sum.wrapping_add(y.to_bits());
        }
    }
    sum
}

fn median_of_three(f: impl Fn() -> u64) -> f64 {
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in [
            "wall_s",
            "dram.ns_per_fire",
            "trace.overhead_s",
            "p99-9",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".dot", "_under", "has space", "slash/", "quote\"", "é"] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
        assert!(!valid_metric_name(&"a".repeat(65)));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs = |n: u64| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 16,000 samples: p99.9 is rank 15,984 with 16 beyond; p99.99
        // would leave 1.
        let t = tail(&xs(16_000)).unwrap();
        assert_eq!(
            (t.bp, t.beyond, t.n, t.value),
            (9_990, 16, 16_000, 15_984.0)
        );
        assert_eq!(t.label(), "p99.9");
        // 495 samples: p99 leaves 4 beyond, p95 leaves 24.
        let t = tail(&xs(495)).unwrap();
        assert_eq!((t.bp, t.beyond, t.value), (9_500, 24, 471.0));
        assert_eq!(t.label(), "p95");
        // Exactly ten beyond is enough; nine is not.
        let t = tail(&xs(1_000)).unwrap();
        assert_eq!((t.bp, t.beyond), (9_900, 10));
        assert_eq!(tail(&xs(99)), None);
        assert_eq!(tail(&xs(100)).unwrap().beyond, 10);
        assert_eq!(tail(&[]), None);
        // Order of the input does not matter.
        let mut rev = xs(1_000);
        rev.reverse();
        assert_eq!(tail(&rev), tail(&xs(1_000)));
        assert_eq!(
            Tail {
                bp: 9_999,
                value: 0.0,
                beyond: 0,
                n: 0
            }
            .label(),
            "p99.99"
        );
    }

    #[test]
    fn spans_nest_under_their_parent() {
        let mut sp = Spans::new();
        let pass = sp.open("pass", None);
        let (v, secs) = sp.time("run", Some(pass), || 7);
        sp.time("run", Some(pass), || ());
        sp.close(pass);
        sp.time("construct", None, || ());
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        let paths: Vec<(String, usize)> =
            sp.summary().into_iter().map(|(p, n, _)| (p, n)).collect();
        assert_eq!(
            paths,
            vec![
                ("pass".into(), 1),
                ("pass/run".into(), 2),
                ("construct".into(), 1)
            ]
        );
        assert!(
            sp.spans[0].end >= sp.spans[2].end,
            "a parent outlasts its children"
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(5_120));
        assert_eq!(vm_hwm_kib("VmRSS:\t 4000 kB\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\t lots kB\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
        // The live probe works on this platform.
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric::new("wall_s", 1.25, "s", Better::Lower),
                Metric::new("goodput_gbps", 0.1, "GB/s", Better::Higher),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"goodput_gbps\": {\"value\": 0.1, \"unit\": \"GB/s\"}}}"
        );
    }

    #[test]
    fn digest_and_generator_are_deterministic() {
        let run = || {
            let mut d = Digest::new();
            let mut g = SplitMix64::new(7);
            for _ in 0..4 {
                d.f64(g.unit());
            }
            d
        };
        assert_eq!(run(), run());
        let mut other = Digest::new();
        other.word(1);
        assert_ne!(other, Digest::new());
        let mut g = SplitMix64::new(1);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&g.unit())));
    }
}
