//! The benchmark's own arithmetic: medians, tail-percentile selection, the
//! capacity ladder search and the record-stream digest.

use abacus_metrics::{QueryOutcome, QueryRecord};

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `p` of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    sorted[rank_index(sorted.len(), p)]
}

/// Zero-based nearest-rank index of percentile `p` among `n` samples.
/// Integer arithmetic in basis points, so 99.99% of 100 000 is rank 99 990
/// exactly rather than one past it.
fn rank_index(n: usize, p: f64) -> usize {
    let bp = (p.clamp(0.0, 100.0) * 100.0).round() as usize;
    let rank = (bp * n).div_ceil(10_000);
    rank.clamp(1, n) - 1
}

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_PERCENTILES: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest of [`TAIL_PERCENTILES`] that has at least [`MIN_BEYOND`]
/// of `n` samples strictly beyond it, or `None` when even the median has
/// fewer (under 20 samples).
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| n > 0 && n - (rank_index(n, p) + 1) >= MIN_BEYOND)
}

/// Highest rung of an ascending offered-load ladder whose violation ratio
/// meets `limit`. The ladder must bracket the limit: its lowest rung must
/// meet it and its highest must not, otherwise the capacity is off the
/// ladder and the measurement is refused.
pub fn ladder_capacity(rungs: &[f64], viol: &[f64], limit: f64) -> Result<f64, String> {
    if rungs.len() < 2 || rungs.len() != viol.len() {
        return Err(format!(
            "ladder needs >= 2 rungs with one ratio each, got {} rungs and {} ratios",
            rungs.len(),
            viol.len()
        ));
    }
    if !rungs.windows(2).all(|w| w[0] < w[1]) {
        return Err("ladder rungs must strictly ascend".into());
    }
    let last = rungs.len() - 1;
    if viol[0] > limit {
        return Err(format!(
            "lowest rung {} qps misses the limit (viol {:.4} > {limit})",
            rungs[0], viol[0]
        ));
    }
    if viol[last] <= limit {
        return Err(format!(
            "highest rung {} qps meets the limit (viol {:.4} <= {limit}): ladder does not bracket",
            rungs[last], viol[last]
        ));
    }
    let best = (0..=last)
        .rev()
        .find(|&i| viol[i] <= limit)
        .expect("rung 0 meets the limit");
    Ok(rungs[best])
}

/// FNV-1a over a record stream: every field, bit for bit, in order.
pub fn digest_records(hash: &mut u64, records: &[QueryRecord]) {
    for r in records {
        let outcome = match r.outcome {
            QueryOutcome::Completed => 0u64,
            QueryOutcome::Dropped => 1,
            QueryOutcome::TimedOut => 2,
        };
        for word in [
            r.service as u64,
            r.arrival_ms.to_bits(),
            r.latency_ms.to_bits(),
            r.qos_ms.to_bits(),
            outcome,
            u64::from(r.requests),
            r.queue_ms.to_bits(),
        ] {
            for byte in word.to_le_bytes() {
                *hash ^= u64::from(byte);
                *hash = hash.wrapping_mul(FNV_PRIME);
            }
        }
    }
}

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&xs, 50.0), 50.0);
        assert_eq!(percentile_sorted(&xs, 99.0), 99.0);
        assert_eq!(percentile_sorted(&xs, 100.0), 100.0);
        assert_eq!(percentile_sorted(&xs, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly 10 lie beyond it.
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(999), Some(90.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(100_000), Some(99.99));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(99), Some(50.0));
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn capacity_is_highest_rung_meeting_limit() {
        let rungs = [50.0, 100.0, 150.0, 200.0];
        assert_eq!(
            ladder_capacity(&rungs, &[0.0, 0.01, 0.2, 0.5], 0.05),
            Ok(100.0)
        );
        // A non-monotone ladder still reports the highest rung that meets.
        assert_eq!(
            ladder_capacity(&rungs, &[0.0, 0.1, 0.04, 0.5], 0.05),
            Ok(150.0)
        );
        // The limit itself counts as met.
        assert_eq!(
            ladder_capacity(&rungs, &[0.0, 0.05, 0.06, 0.5], 0.05),
            Ok(100.0)
        );
    }

    #[test]
    fn capacity_requires_a_bracketing_ladder() {
        let rungs = [50.0, 100.0, 150.0];
        assert!(ladder_capacity(&rungs, &[0.1, 0.2, 0.3], 0.05)
            .unwrap_err()
            .contains("lowest rung"));
        assert!(ladder_capacity(&rungs, &[0.0, 0.01, 0.02], 0.05)
            .unwrap_err()
            .contains("does not bracket"));
        assert!(ladder_capacity(&[50.0], &[0.0], 0.05).is_err());
        assert!(ladder_capacity(&[100.0, 50.0], &[0.0, 0.5], 0.05).is_err());
        assert!(ladder_capacity(&rungs, &[0.0, 0.5], 0.05).is_err());
    }

    #[test]
    fn digest_sees_every_bit() {
        let r = QueryRecord {
            service: 1,
            arrival_ms: 2.0,
            latency_ms: 3.0,
            qos_ms: 4.0,
            outcome: QueryOutcome::Completed,
            requests: 8,
            queue_ms: 0.5,
        };
        let digest = |rs: &[QueryRecord]| {
            let mut h = FNV_OFFSET;
            digest_records(&mut h, rs);
            h
        };
        let base = digest(&[r]);
        assert_eq!(base, digest(&[r]));
        let mut nudged = r;
        nudged.latency_ms = f64::from_bits(r.latency_ms.to_bits() + 1);
        assert_ne!(base, digest(&[nudged]));
        let mut dropped = r;
        dropped.outcome = QueryOutcome::Dropped;
        assert_ne!(base, digest(&[dropped]));
        assert_ne!(digest(&[r, nudged]), digest(&[nudged, r]));
    }
}
