//! Exact order statistics over kept samples, and the outage window.

/// A sample that failed or was shed: slower than every success.
pub const FAILED: u64 = u64::MAX;

/// Exact nearest-rank quantile: the smallest sample with at least
/// `q * n` samples at or below it. `None` for an empty set.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted floats (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The longest window in which some transaction was due (arrived, not yet
/// settled) and none succeeded. Each transaction is `(arrival, settled,
/// succeeded)`; a window opens when work becomes due with no success since,
/// and closes at the next success or when nothing is due any more.
pub fn longest_outage_us(txs: &[(u64, u64, bool)]) -> u64 {
    // Events at equal times: arrivals first, so an instantly settled
    // transaction still counts as due.
    let mut events: Vec<(u64, u8, bool)> = Vec::with_capacity(txs.len() * 2);
    for &(a, d, ok) in txs {
        events.push((a, 0, false));
        events.push((d, 1, ok));
    }
    events.sort_unstable();
    let mut due = 0u64;
    let mut open: Option<u64> = None;
    let mut longest = 0u64;
    for (t, kind, ok) in events {
        if kind == 0 {
            due += 1;
            open.get_or_insert(t);
            continue;
        }
        due -= 1;
        if ok || due == 0 {
            if let Some(start) = open.take() {
                longest = longest.max(t - start);
            }
            if due > 0 {
                open = Some(t);
            }
        }
    }
    longest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_of_a_known_set() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&v, 0.5), Some(500));
        assert_eq!(quantile(&v, 0.99), Some(990));
        assert_eq!(quantile(&v, 0.999), Some(999));
        assert_eq!(quantile(&v, 1.0), Some(1000));
        assert_eq!(quantile(&v, 0.0), Some(1));
        assert_eq!(quantile(&[], 0.5), None);
        // Not bucketed: values between powers of two come back exactly.
        let odd = [1695, 1700, 2900, 3001, 4100];
        assert_eq!(quantile(&odd, 0.5), Some(2900));
        assert_eq!(quantile(&odd, 0.99), Some(4100));
    }

    #[test]
    fn failures_rank_above_every_success() {
        let mut v = vec![10, 20, 30, FAILED];
        v.sort_unstable();
        assert_eq!(quantile(&v, 0.75), Some(30));
        assert_eq!(quantile(&v, 0.99), Some(FAILED));
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn outage_spans_due_work_without_success() {
        // One transaction alone: due for its whole sojourn.
        assert_eq!(longest_outage_us(&[(0, 100, true)]), 100);
        // Overlapping successes split the window at each success.
        assert_eq!(longest_outage_us(&[(0, 100, true), (50, 400, true)]), 300);
        // A failure ends a window only when nothing else is due.
        assert_eq!(
            longest_outage_us(&[(0, 500, false), (10, 200, false), (600, 610, true)]),
            500
        );
        // Idle gaps are not outages.
        assert_eq!(
            longest_outage_us(&[(0, 10, true), (1_000, 1_020, true)]),
            20
        );
    }
}
