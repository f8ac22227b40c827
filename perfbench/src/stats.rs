//! Small statistics helpers: medians, geometric means, and a 1-ns
//! resolution latency histogram for caller-timed dispatches.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Geometric mean of strictly positive values; `None` when empty or when
/// any value is not positive (a geomean over a zero is meaningless).
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Samples below this many nanoseconds land in exact 1-ns buckets; the
/// rest are kept verbatim.
const FINE_NS: usize = 1 << 17;

/// Latency histogram with 1-ns buckets up to ~131 µs and exact storage
/// above. Recording is one bounds check and one increment, so timing
/// every dispatch of a multi-million-dispatch run stays cheap.
#[derive(Debug, Clone)]
pub struct FineHist {
    buckets: Vec<u32>,
    over: Vec<u64>,
    count: u64,
}

impl Default for FineHist {
    fn default() -> FineHist {
        FineHist {
            buckets: vec![0; FINE_NS],
            over: Vec::new(),
            count: 0,
        }
    }
}

impl FineHist {
    /// Record one sample in nanoseconds.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        match self.buckets.get_mut(ns as usize) {
            Some(b) => *b += 1,
            None => self.over.push(ns),
        }
        self.count += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The recorded samples as `(ns, count)` pairs, leaving this
    /// histogram empty.
    pub fn take_sparse(&mut self) -> Vec<(u64, u32)> {
        let mut out: Vec<(u64, u32)> = Vec::new();
        for (ns, c) in self.buckets.iter_mut().enumerate() {
            if *c > 0 {
                out.push((ns as u64, std::mem::take(c)));
            }
        }
        out.extend(self.over.drain(..).map(|ns| (ns, 1)));
        self.count = 0;
        out
    }

    /// Record `(ns, count)` pairs from [`FineHist::take_sparse`].
    pub fn add_sparse(&mut self, pairs: &[(u64, u32)]) {
        for &(ns, c) in pairs {
            match self.buckets.get_mut(ns as usize) {
                Some(b) => *b += c,
                None => self.over.extend(std::iter::repeat_n(ns, c as usize)),
            }
            self.count += u64::from(c);
        }
    }

    /// Fold `other`'s samples into this histogram.
    pub fn merge(&mut self, other: &FineHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.over.extend_from_slice(&other.over);
        self.count += other.count;
    }

    /// The `q`-quantile (`0 < q < 1`) in nanoseconds; `None` when empty.
    /// Samples in a 1-ns bucket are taken as spread evenly across it, so
    /// the result carries sub-nanosecond digits.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for (ns, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = u64::from(c);
            if (seen + c) as f64 >= rank {
                let within = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return Some(ns as f64 + within);
            }
            seen += c;
        }
        let mut over = self.over.clone();
        over.sort_unstable();
        let idx = ((rank - seen as f64).ceil() as usize).clamp(1, over.len()) - 1;
        Some(over[idx] as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn fine_hist_quantiles_track_the_samples() {
        let mut h = FineHist::default();
        for ns in 1..=1000u64 {
            h.record(ns);
        }
        h.record(1_000_000);
        let p50 = h.quantile(0.5).unwrap();
        assert!((500.0..=502.0).contains(&p50), "p50 {p50}");
        assert_eq!(h.quantile(1.0), Some(1_000_000.0));
        let mut other = FineHist::default();
        other.record(7);
        other.record(1 << 20);
        let sparse = other.take_sparse();
        assert_eq!(other.count(), 0);
        h.add_sparse(&sparse);
        assert_eq!(h.count(), 1003);
        let mut third = FineHist::default();
        third.record(9);
        h.merge(&third);
        assert_eq!(h.count(), 1004);
    }
}
