//! Small shared helpers: a seeded generator, order statistics, a Zipf
//! sampler and the hand-written JSON the benchmark prints.

use std::fmt::Write as _;

/// SplitMix64: every input the benchmark generates derives from the
/// workload seed through this generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
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

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of ascending `sorted`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median per-operation time of `op`, in nanoseconds: `chunks` timed loops
/// of `per_chunk` calls each. The closure gets the global call index.
pub fn time_per_op_ns(chunks: usize, per_chunk: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut per_op = Vec::with_capacity(chunks);
    for c in 0..chunks {
        let t = std::time::Instant::now();
        for i in 0..per_chunk {
            op(c * per_chunk + i);
        }
        per_op.push(t.elapsed().as_nanos() as f64 / per_chunk as f64);
    }
    median(&per_op)
}

/// Median round trip, in microseconds, of a message sent to another thread
/// that sends it straight back: two thread wake-ups, what every served call
/// pays. The sender runs on `cpus[0]` and the echo thread on `cpus[1]`. On
/// a 2-vCPU VM a round trip across vCPUs cost about three times one on a
/// single vCPU, and the wake cost drifts with the host's load, so the stamp
/// records both to tell runs taken in different host states apart.
pub fn wake_rtt_us(cpus: [usize; 2]) -> f64 {
    let _pin = Pinned::to(cpus[0]);
    let (to_echo, echo_rx) = std::sync::mpsc::channel::<u32>();
    let (echo_tx, back) = std::sync::mpsc::channel::<u32>();
    let echo = std::thread::spawn(move || {
        let _pin = Pinned::to(cpus[1]);
        while let Ok(x) = echo_rx.recv() {
            if echo_tx.send(x).is_err() {
                break;
            }
        }
    });
    let rtt = time_per_op_ns(21, 100, |i| {
        to_echo.send(i as u32).expect("echo thread alive");
        back.recv().expect("echo thread alive");
    }) / 1e3;
    drop(to_echo);
    echo.join().expect("echo thread");
    rtt
}

/// While alive, the thread that made it runs on one CPU, and threads it
/// spawns inherit that CPU; dropping it restores the thread's CPU set.
/// Where the kernel refuses (or off Linux), nothing is pinned.
pub struct Pinned {
    prev: Vec<usize>,
    pub cpu: Option<usize>,
}

impl Pinned {
    pub fn to(cpu: usize) -> Self {
        let prev = allowed_cpus();
        let cpu = Some(cpu).filter(|&c| set_cpus(&[c]));
        Self { prev, cpu }
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if self.cpu.is_some() {
            set_cpus(&self.prev);
        }
    }
}

/// The CPUs the calling thread may run on (Linux), in ascending order.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a 1024-bit cpu_set_t the call writes at most
    // `size` bytes into.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..1024).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

/// Restrict the calling thread to `cpus` (Linux); threads it spawns later
/// inherit the set. Returns whether the kernel accepted it.
#[cfg(target_os = "linux")]
pub fn set_cpus(cpus: &[usize]) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a valid 1024-bit cpu_set_t of `size` bytes.
    !cpus.is_empty()
        && unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } == 0
}

#[cfg(not(target_os = "linux"))]
pub fn set_cpus(_cpus: &[usize]) -> bool {
    false
}

/// Latency histogram: 1024 log-spaced buckets per doubling (0.07% wide)
/// from 1 us to 2^30 ns; shorter and longer values land in the end
/// buckets. Its size does not grow with the number of calls recorded, so
/// recording leaves the measured process's memory alone.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

impl Hist {
    const PER_DOUBLING: f64 = 1024.0;
    const MIN_LOG2: f64 = 10.0;
    const BUCKETS: usize = 20 * 1024;

    pub fn new() -> Self {
        Self { counts: vec![0; Self::BUCKETS], n: 0 }
    }

    pub fn record(&mut self, ns: u64) {
        let b =
            (((ns.max(1) as f64).log2() - Self::MIN_LOG2).max(0.0) * Self::PER_DOUBLING) as usize;
        self.counts[b.min(Self::BUCKETS - 1)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// Nearest-rank `q`-quantile in nanoseconds (the bucket's geometric
    /// midpoint); NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        let b = self
            .counts
            .iter()
            .position(|&c| {
                seen += u64::from(c);
                seen >= rank
            })
            .unwrap_or(Self::BUCKETS - 1);
        2f64.powf(Self::MIN_LOG2 + (b as f64 + 0.5) / Self::PER_DOUBLING)
    }
}

/// Zipf(`s`) over ranks `0..n` by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let cdf = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit() * self.cdf.last().copied().unwrap_or(0.0);
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (not representable in JSON) become `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn hist_quantiles_within_a_bucket() {
        let mut h = Hist::new();
        for ns in 1..=10_000u64 {
            h.record(ns * 1000);
        }
        for (q, exact) in [(0.5, 5_000_000.0), (0.99, 9_900_000.0)] {
            let got = h.quantile(q);
            assert!((got / exact - 1.0).abs() < 0.001, "q{q}: {got} vs {exact}");
        }
        let mut m = Hist::new();
        m.merge(&h);
        assert_eq!(m.len(), 10_000);
        assert!(Hist::new().quantile(0.5).is_nan());
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 1.1);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[99]);
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(0.5), "0.5");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
