//! Deterministic random numbers.
//!
//! Every stochastic choice in the emulator (workload key selection, device
//! self-test jitter, fault injection) draws from a [`DetRng`] seeded at system
//! construction. Identical seeds therefore reproduce identical event traces —
//! the property the rest of the test suite leans on.

/// A seeded deterministic RNG with convenience helpers and cheap splitting.
///
/// Splitting derives an independent child stream from the parent, so each
/// device can own a private RNG without global draw-order coupling: adding a
/// draw in one device does not perturb another device's stream.
///
/// The generator is xoshiro256++ seeded through a SplitMix64 expansion —
/// self-contained, allocation-free, and identical across platforms, which is
/// exactly the reproducibility property the test suite leans on.
pub struct DetRng {
    state: [u64; 4],
    seed: u64,
}

/// SplitMix64 step: advances `x` and returns a well-mixed output word.
#[inline]
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // Expand the 64-bit seed into 256 bits of state via SplitMix64, the
        // construction recommended by the xoshiro authors. The state of a
        // SplitMix64-seeded xoshiro256++ is never all-zero.
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { state, seed }
    }

    /// The seed this stream was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream identified by `salt`.
    ///
    /// The same `(seed, salt)` pair always yields the same child stream.
    pub fn split(&self, salt: u64) -> DetRng {
        // SplitMix64 finalizer mixes seed and salt into a well-distributed
        // child seed; this is the standard construction for seed derivation.
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(salt.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        DetRng::new(z)
    }

    /// A uniform `u64` (xoshiro256++ output function).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "DetRng::below(0)");
        // Widening-multiply rejection (Lemire): unbiased and nearly always a
        // single draw for the bounds we use.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "DetRng::range: empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 high bits scaled into [0, 1): the standard double conversion.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Fills `buf` with uniform bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let w = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&w[..rem.len()]);
        }
    }

    /// A Zipfian-distributed rank in `[0, n)` with exponent `theta`.
    ///
    /// Uses rejection-inversion (Jacobson's approximation) which is accurate
    /// enough for workload skew modelling and allocation-free. `theta = 0`
    /// degenerates to uniform; YCSB's default skew is `theta = 0.99`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn zipf(&mut self, n: u64, theta: f64) -> u64 {
        assert!(n > 0, "DetRng::zipf(0, _)");
        if theta <= f64::EPSILON {
            return self.below(n);
        }
        // Classic YCSB-style Zipfian generator.
        let n_f = n as f64;
        let zeta = zeta(n, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n_f).powf(1.0 - theta)) / (1.0 - zeta_static(theta) / zeta);
        let u = self.unit();
        let uz = u * zeta;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(theta) {
            return 1;
        }
        ((n_f * (eta * u - eta + 1.0).powf(alpha)) as u64).min(n - 1)
    }
}

/// Harmonic number H_{n,theta}, capped for cost: beyond the cap the tail
/// contribution is negligible for the skews we use.
fn zeta(n: u64, theta: f64) -> f64 {
    let cap = n.min(10_000);
    let mut sum = 0.0;
    for i in 1..=cap {
        sum += 1.0 / (i as f64).powf(theta);
    }
    if n > cap {
        // Integral approximation of the tail.
        let a = cap as f64;
        let b = n as f64;
        sum += (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta);
    }
    sum
}

fn zeta_static(theta: f64) -> f64 {
    zeta(2, theta)
}

impl lastcpu_snap::Snapshot for DetRng {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        for s in self.state {
            w.put_u64(s);
        }
        w.put_u64(self.seed);
    }
}

impl std::fmt::Debug for DetRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DetRng(seed={})", self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn split_is_deterministic_and_independent() {
        let parent = DetRng::new(99);
        let mut c1 = parent.split(5);
        let mut c2 = parent.split(5);
        let c3 = parent.split(6);
        assert_eq!(c1.next_u64(), c2.next_u64());
        assert_ne!(c1.seed(), c3.seed());
    }

    #[test]
    fn below_stays_in_bounds() {
        let mut r = DetRng::new(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // Out-of-range probabilities are clamped, not UB.
        assert!(r.chance(2.0));
        assert!(!r.chance(-1.0));
    }

    #[test]
    fn zipf_skews_towards_small_ranks() {
        let mut r = DetRng::new(5);
        let n = 1000u64;
        let draws = 20_000;
        let mut head = 0u64;
        for _ in 0..draws {
            let v = r.zipf(n, 0.99);
            assert!(v < n);
            if v < n / 10 {
                head += 1;
            }
        }
        // With theta=0.99 the hottest 10% of keys should receive well over
        // half the draws; uniform would give ~10%.
        assert!(
            head as f64 / draws as f64 > 0.5,
            "head share {head}/{draws}"
        );
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let mut r = DetRng::new(6);
        let n = 10u64;
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[r.zipf(n, 0.0) as usize] += 1;
        }
        for &c in &counts {
            assert!((600..1500).contains(&c), "count {c} far from uniform");
        }
    }
}
