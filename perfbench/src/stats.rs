//! Order statistics and a small content digest.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let last = v.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    let frac = pos - lo as f64;
    Some(v[lo] + (v[hi] - v[lo]) * frac)
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Sub-buckets per power of two: values keep their top 10 bits, so a
/// bucket is at most 0.1 % wide.
const SUB: u64 = 1024;

/// A latency histogram with fixed log-linear buckets: constant memory
/// however many samples it holds, 0.1 % resolution.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; Self::index(u64::MAX) + 1],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let e = u64::from(63 - v.leading_zeros());
        let mantissa = (v >> (e - 10)) - SUB;
        ((e - 9) * SUB + mantissa) as usize
    }

    /// Lowest value of bucket `i` and the bucket's width.
    fn bucket(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB {
            return (i as f64, 1.0);
        }
        let shift = i / SUB - 1;
        let lower = (SUB + i % SUB) << shift;
        (lower as f64, (1_u64 << shift) as f64)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile, interpolated linearly inside its bucket;
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0_u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 > rank {
                let (lower, width) = Self::bucket(i);
                return Some(lower + width * (rank - below as f64 + 0.5) / c as f64);
            }
            below += c;
        }
        None
    }
}

/// FNV-1a over a stream of 64-bit words: a digest for comparing
/// outputs bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn float(&mut self, x: f64) -> &mut Self {
        self.word(x.to_bits())
    }

    pub fn opt(&mut self, x: Option<f64>) -> &mut Self {
        match x {
            Some(v) => self.word(1).float(v),
            None => self.word(0),
        }
    }

    pub fn floats(&mut self, xs: &[f64]) -> &mut Self {
        for &x in xs {
            self.float(x);
        }
        self
    }

    pub fn text(&mut self, s: &str) -> &mut Self {
        for chunk in s.as_bytes().chunks(8) {
            let mut w = [0_u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
        self.word(s.len() as u64)
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn histogram_quantiles_stay_within_a_bucket() {
        let mut h = Histogram::default();
        for v in 1..=100_000_u64 {
            h.record(v * 37);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = quantile(
                &(1..=100_000).map(|v| (v * 37) as f64).collect::<Vec<_>>(),
                q,
            )
            .unwrap();
            let got = h.quantile(q).unwrap();
            assert!(
                (got - exact).abs() / exact < 2e-3,
                "q={q}: {got} vs {exact}"
            );
        }
        let mut small = Histogram::default();
        small.record(5);
        assert_eq!(small.quantile(0.5), Some(5.5));
        assert_eq!(Histogram::default().quantile(0.5), None);
    }

    #[test]
    fn digest_separates_bit_patterns() {
        let a = Digest::default().float(0.0).finish();
        let b = Digest::default().float(-0.0).finish();
        assert_ne!(a, b);
    }
}
