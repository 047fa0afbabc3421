//! Small shared pieces: a seeded RNG, nearest-rank quantiles, a Zipf
//! sampler, peak-memory readings, body digests and the result-line
//! JSON writer.

use std::hash::{DefaultHasher, Hasher};
use std::time::{Duration, Instant};

use crate::Fail;

/// splitmix64: a tiny, well-mixed generator. The benchmark owns its
/// RNG so that the query streams it draws never depend on the program
/// under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Nearest-rank quantile of an unsorted sample (0 for an empty one).
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Time a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Reset this process's peak resident set (`VmHWM`) to its current
/// resident set, through `/proc/self/clear_refs`.
pub fn reset_peak_rss() -> Result<(), Fail> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| Fail::new(format!("reset peak resident set: {e}")))
}

/// Peak resident set of this process in MiB since the last
/// [`reset_peak_rss`], from `/proc/self/status` (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, Fail> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| Fail::new(format!("read /proc/self/status: {e}")))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| Fail::new("no VmHWM line in /proc/self/status"))
}

/// A 128-bit digest of `bytes`: two SipHash passes under different
/// prefixes. Clients keep it instead of the body, so that their own
/// memory does not grow with the answers of a run.
pub fn digest(bytes: &[u8]) -> u128 {
    let half = |salt: u8| {
        let mut hasher = DefaultHasher::new();
        hasher.write_u8(salt);
        hasher.write(bytes);
        hasher.finish()
    };
    (u128::from(half(0)) << 64) | u128::from(half(1))
}

/// Hand memory the allocator holds but no longer uses back to the
/// system, so that set-up garbage does not count towards the timed
/// phase's resident set.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and is safe to
        // call from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// One named metric with its unit, in output order.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The result line the benchmark prints last.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Shortest round-trip decimal, always with a fraction or exponent so a
/// JSON reader sees a number with all its digits.
fn json_number(v: f64) -> String {
    let text = format!("{v:?}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(7, 0);
        let hits = (0..10_000).filter(|_| z.sample(&mut rng) < 10).count();
        assert!(hits > 4_000, "{hits}");
    }

    #[test]
    fn json_line_shape() {
        let line = result_json(true, 3, 0, &[metric("a_ms", "ms", 1.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.0, \"unit\": \"ms\"}}}"
        );
    }
}
