//! Clock, seeded generator and exact order statistics.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process. Every span and
/// sample is on this one clock.
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Sleep most of the way to `deadline_ns`, then spin the rest, so that
/// a scheduled send is not late by the kernel's timer slack.
pub fn wait_until(deadline_ns: u64) {
    const SPIN_WINDOW_NS: u64 = 200_000;
    loop {
        let now = now_ns();
        if now >= deadline_ns {
            return;
        }
        let left = deadline_ns - now;
        if left > SPIN_WINDOW_NS {
            std::thread::sleep(std::time::Duration::from_nanos(left - SPIN_WINDOW_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// splitmix64: every input of a run is drawn from one of these, seeded
/// from `--seed` and a per-stream tag.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `0..n`, `s` not 1, by rejection-inversion
/// (Hörmann and Derflinger 1996). No table: a draw is a few logarithms
/// and exponentials, so generating a stream is arithmetic, not cache
/// misses, and `setup_s` does not move with the host's memory traffic
/// (an inverse-CDF table's binary search made it drift by a quarter).
pub struct Zipf {
    n: f64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    threshold: f64,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1 && s > 0.0 && s != 1.0);
        let mut z = Zipf {
            n: n as f64,
            s,
            h_x1: 0.0,
            h_n: 0.0,
            threshold: 0.0,
        };
        z.h_x1 = z.h_integral(1.5) - 1.0;
        z.h_n = z.h_integral(z.n + 0.5);
        z.threshold = 2.0 - z.h_integral_inverse(z.h_integral(2.5) - z.h(2.0));
        z
    }

    /// The density `x^-s`.
    fn h(&self, x: f64) -> f64 {
        (-self.s * x.ln()).exp()
    }

    /// Its integral, `(x^(1-s) - 1) / (1 - s)`.
    fn h_integral(&self, x: f64) -> f64 {
        let log_x = x.ln();
        let t = (1.0 - self.s) * log_x;
        (if t.abs() > 1e-8 { t.exp_m1() / t } else { 1.0 + t / 2.0 }) * log_x
    }

    fn h_integral_inverse(&self, x: f64) -> f64 {
        let t = (x * (1.0 - self.s)).max(-1.0);
        ((if t.abs() > 1e-8 { t.ln_1p() / t } else { 1.0 - t / 2.0 }) * x).exp()
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        loop {
            let u = self.h_n + rng.unit() * (self.h_x1 - self.h_n);
            let x = self.h_integral_inverse(u);
            let k = x.round().clamp(1.0, self.n);
            if k - x <= self.threshold || u >= self.h_integral(k + 0.5) - self.h(k) {
                return k as usize - 1;
            }
        }
    }
}

/// Nearest-rank percentile of sorted raw samples (`p` in 0..=1).
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let n = v.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Jain's fairness index of per-actor counts.
pub fn jain(counts: &[u64]) -> f64 {
    let sum: f64 = counts.iter().map(|&c| c as f64).sum();
    let sq: f64 = counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
    if sq == 0.0 {
        0.0
    } else {
        sum * sum / (counts.len() as f64 * sq)
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn zipf_draws_follow_the_exact_probabilities() {
        let (n, s, draws) = (50, 0.99, 400_000);
        let z = Zipf::new(n, s);
        let mut rng = Rng::new(1, 0);
        let mut seen = vec![0u32; n];
        for _ in 0..draws {
            seen[z.sample(&mut rng)] += 1;
        }
        let norm: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        for (rank, &count) in seen.iter().enumerate() {
            let expected = ((rank + 1) as f64).powf(-s) / norm;
            let got = f64::from(count) / draws as f64;
            assert!(
                (got - expected).abs() < 0.05 * expected + 0.0005,
                "rank {rank}: {got} against {expected}"
            );
        }
    }
}
