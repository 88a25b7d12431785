//! Percentiles under the ten-beyond rule, and the metric records a run
//! prints.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; below that the tail is a handful of anecdotes.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut samples: Vec<f64>) -> Dist {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// 1-based nearest rank of quantile `q` among `n` samples.
    fn rank(&self, q: f64) -> usize {
        let n = self.sorted.len();
        ((q * n as f64).ceil() as usize).clamp(1, n)
    }

    /// Nearest-rank percentile `q` in (0, 1), refused (`None`) when fewer
    /// than [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let rank = self.rank(q);
        if self.sorted.len() - rank < MIN_BEYOND {
            return None;
        }
        Some(self.sorted[rank - 1])
    }

    /// Nearest-rank percentile without the ten-beyond rule: a per-layer
    /// diagnostic, always printed beside its sample count. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[self.rank(q) - 1]
    }

    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }
}

/// Median of a small set of repeated measurements (set-up times); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let d = Dist::new(values.to_vec());
    d.quantile(0.5)
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub n: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            n,
        }
    }
}

/// An ordered, name-unique metric list.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    pub fn push(&mut self, m: Metric) {
        assert!(
            self.get(&m.name).is_none(),
            "metric {} recorded twice",
            m.name
        );
        self.items.push(m);
    }

    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.push(Metric::new(name, value, unit, n));
    }

    /// Adds percentile `q` of `d` under the ten-beyond rule; a refused
    /// percentile is left out and its name returned.
    pub fn add_checked(
        &mut self,
        name: &str,
        d: &Dist,
        q: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        match d.percentile(q) {
            Some(v) => {
                self.add(name, v, unit, d.len());
                Ok(())
            }
            None => Err(format!(
                "{name}: {} samples leave fewer than {MIN_BEYOND} beyond p{}",
                d.len(),
                q * 100.0
            )),
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.items.iter().find(|m| m.name == name)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.items.iter()
    }
}

/// Renders a finite number as JSON with every digit Rust's shortest
/// round-trip formatting keeps.
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Dist {
        Dist::new((1..=n).map(|i| i as f64).collect())
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_beyond() {
        // p99 of 999 samples: rank 990, only 9 beyond
        assert_eq!(ramp(999).percentile(0.99), None);
        // p99 of 1000 samples: rank 990, exactly 10 beyond
        assert_eq!(ramp(1000).percentile(0.99), Some(990.0));
        // p90 needs 100 samples
        assert_eq!(ramp(99).percentile(0.9), None);
        assert_eq!(ramp(100).percentile(0.9), Some(90.0));
        // the median needs 20
        assert_eq!(ramp(19).percentile(0.5), None);
        assert_eq!(ramp(20).percentile(0.5), Some(10.0));
        assert_eq!(Dist::default().percentile(0.5), None);
    }

    #[test]
    fn checked_add_reports_the_refusal_and_records_nothing() {
        let mut m = Metrics::default();
        assert!(m.add_checked("lat_p99_ms", &ramp(500), 0.99, "ms").is_err());
        assert!(m.get("lat_p99_ms").is_none());
        m.add_checked("lat_p50_ms", &ramp(500), 0.5, "ms").unwrap();
        let got = m.get("lat_p50_ms").unwrap();
        assert_eq!((got.value, got.n), (250.0, 500));
    }

    #[test]
    fn unchecked_quantile_and_median() {
        let d = Dist::new(vec![5.0, 1.0, 3.0]);
        assert_eq!(d.quantile(0.5), 3.0);
        assert_eq!(d.quantile(0.99), 5.0);
        assert_eq!(d.max(), 5.0);
        assert_eq!(median(&[0.3, 0.1, 0.2]), 0.2);
        assert_eq!(Dist::default().quantile(0.5), 0.0);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(3.0), "3");
        assert_eq!(json_number(0.000123456789), "0.000123456789");
    }
}
