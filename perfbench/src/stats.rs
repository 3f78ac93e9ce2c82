//! Order statistics over timing samples.

/// Beyond the tail sample there are at least this many samples.
pub const TAIL_BEYOND: usize = 10;

/// The median (mean of the middle pair for an even count); 0 for none.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail: the highest-ranked sample with at least [`TAIL_BEYOND`]
/// samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// 1-based rank in ascending order.
    pub rank: usize,
    pub count: usize,
}

impl Tail {
    /// The percentile the rank sits at.
    #[must_use]
    pub fn percentile(&self) -> f64 {
        100.0 * self.rank as f64 / self.count as f64
    }
}

/// The tail of `samples`, or `None` with too few samples to leave
/// [`TAIL_BEYOND`] beyond any of them.
#[must_use]
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: v[rank - 1],
        rank,
        count: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rank_leaves_ten_samples_beyond() {
        for n in 11..300 {
            let samples: Vec<f64> = (0..n).rev().map(f64::from).collect();
            let t = tail(&samples).expect("enough samples");
            let beyond = samples.iter().filter(|&&s| s > t.value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n={n}");
            assert_eq!(t.rank + TAIL_BEYOND, t.count);
        }
        assert!(tail(&[1.0; 10]).is_none());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
