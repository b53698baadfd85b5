//! Percentiles and the regression-bound arithmetic `--compare` applies.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics. Sorts a copy; an empty slice yields 0.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The smallest sample; an empty slice yields 0. The benchmark's
/// estimate of what an operation costs on a quiet host: the other
/// tenants of a shared host only ever add to a timing.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// By what share of `base` the value `new` is *worse* than `base`
/// (negative when it is better).
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if base == 0.0 {
        return if delta > 0.0 { f64::INFINITY } else { 0.0 };
    }
    delta / base.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(fastest(&v), 1.0);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn bound_arithmetic_respects_direction() {
        // Lower is better: 10 % slower trips a 5 % bound, not a 15 % one,
        // and getting faster is a negative worsening.
        let slower = worsening(100.0, 110.0, Better::Lower);
        assert!(slower > 0.05 && slower < 0.15);
        assert!((worsening(100.0, 80.0, Better::Lower) + 0.2).abs() < 1e-12);
        // Higher is better: losing throughput is the regression.
        assert!((worsening(50.0, 40.0, Better::Higher) - 0.2).abs() < 1e-12);
        assert!(worsening(50.0, 60.0, Better::Higher) < 0.0);
        // A zero baseline cannot absorb any worsening.
        assert_eq!(worsening(0.0, 1.0, Better::Lower), f64::INFINITY);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
    }
}
