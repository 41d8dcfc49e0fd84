//! Lemma 1 machinery: the optimal per-round price allocation equalizes
//! node finish times.
//!
//! The paper proves that under `OP_PS` the optimal allocation of a fixed
//! per-round total price minimizes the sum of idle time, by repeatedly
//! moving price from fast nodes to the straggler until finish times meet
//! (or boundaries bind). [`equalizing_prices`] computes that fixed point
//! directly by bisecting on the common target finish time; it is used as a
//! reference ("oracle") allocation in tests and ablations, and the inner
//! DRL agent is expected to learn allocations close to it.

use crate::EdgeNode;

/// The price that makes `node`'s *optimal response* finish exactly at
/// `target_time`, clamped to the node's feasible price interval
/// `[price_floor, price_cap]`.
///
/// Inverts Eqn. 12: `T = T^com + σcd/ζ*` with `ζ* = p/(2σαcd)` gives
/// `p = 2σαcd · σcd / (T − T^com)`.
///
/// Returns the price cap if the target is unreachable even at `ζ_max`
/// (i.e. the node's lower bound on time exceeds the target).
pub fn price_for_time(node: &EdgeNode, sigma: u32, target_time: f64) -> f64 {
    let p = node.params();
    let cycles = sigma as f64 * p.cycles_per_bit * p.data_bits;
    let cmp_budget = target_time - p.upload_time;
    if cmp_budget <= 0.0 {
        return node.price_cap(sigma); // run as fast as possible
    }
    let zeta_needed = (cycles / cmp_budget).clamp(p.freq_min, p.freq_max);
    let denom = 2.0 * sigma as f64 * p.capacitance * p.cycles_per_bit * p.data_bits;
    (zeta_needed * denom).clamp(node.price_floor(sigma), node.price_cap(sigma))
}

/// Splits `total_price` across `nodes` so that the induced finish times are
/// as equal as the feasible ranges allow — the Lemma 1 optimum.
///
/// Bisects on the common target time: a larger target needs less total
/// price (every node's price-for-time is non-increasing in the target), so
/// the mapping is monotone and the fixed point unique.
///
/// The bisection halves the bracket at most 200 times and stops early at
/// its floating-point fixed point: each step is a deterministic map on
/// `(lo, hi)`, so once a step leaves both ends unchanged every later step
/// would too, and the result is bitwise the one 200 halvings give. A
/// 100k-node fleet reaches it in about 50 halvings.
///
/// The returned prices sum to at most `total_price` (exactly, unless every
/// node is pinned at a boundary).
///
/// # Panics
///
/// Panics if `nodes` is empty or `total_price` is not positive.
pub fn equalizing_prices(nodes: &[EdgeNode], sigma: u32, total_price: f64) -> Vec<f64> {
    assert!(!nodes.is_empty(), "need at least one node");
    assert!(
        total_price > 0.0,
        "total price must be positive, got {total_price}"
    );

    let total_for_time = |t: f64| -> f64 {
        nodes
            .iter()
            .map(|n| price_for_time(n, sigma, t))
            .sum::<f64>()
    };

    // Bracket the target time: the fastest possible finish on one end and a
    // generously slow finish on the other.
    let t_min = nodes
        .iter()
        .map(|n| n.params().upload_time + n.compute_time(n.params().freq_max, sigma))
        .fold(f64::INFINITY, f64::min);
    let t_max = nodes
        .iter()
        .map(|n| n.params().upload_time + n.compute_time(n.params().freq_min, sigma))
        .fold(0.0f64, f64::max);

    let (mut lo, mut hi) = (t_min, t_max);
    let target = if total_for_time(lo) <= total_price {
        // Even the fastest target is affordable.
        lo
    } else if total_for_time(hi) >= total_price {
        // Even the slowest target is unaffordable; hand out the floors.
        hi
    } else {
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            let before = (lo.to_bits(), hi.to_bits());
            if total_for_time(mid) > total_price {
                lo = mid; // too expensive → allow more time
            } else {
                hi = mid;
            }
            if (lo.to_bits(), hi.to_bits()) == before {
                break; // fixed point: every further halving repeats this one
            }
        }
        hi
    };

    // Boundary re-pass (case 1 of Lemma 1): a node pinned at its price cap
    // may still finish *after* the target — it is the true straggler. The
    // other nodes should then relax to the straggler's realized time rather
    // than waste budget finishing early. One pass suffices because the
    // realized straggler time is the max over per-node lower bounds.
    let realized = |t: f64| -> f64 {
        nodes
            .iter()
            .map(|n| {
                let p = price_for_time(n, sigma, t);
                let z = n.optimal_frequency(p, sigma);
                n.params().upload_time + n.compute_time(z, sigma)
            })
            .fold(0.0f64, f64::max)
    };
    let t_real = realized(target).max(target);
    nodes
        .iter()
        .map(|n| price_for_time(n, sigma, t_real))
        .collect()
}

/// The round wall-clock time the Lemma 1 allocation of `total_price` would
/// realize: every responding node's finish time under the equalizing
/// prices, maximized over responders.
///
/// This is the time-consistency reference the resilience layer derives its
/// per-round deadline from — a node finishing later than
/// `slack × equalized_round_time` is a straggler by the paper's own
/// optimality criterion, not merely unlucky.
///
/// Returns `f64::INFINITY` if no node responds at the equalizing prices
/// (so an infinite deadline, i.e. no eviction).
///
/// # Panics
///
/// Panics if `nodes` is empty or `total_price` is not positive.
pub fn equalized_round_time(nodes: &[EdgeNode], sigma: u32, total_price: f64) -> f64 {
    let prices = equalizing_prices(nodes, sigma, total_price);
    nodes
        .iter()
        .zip(&prices)
        .filter_map(|(n, &p)| n.respond(p, sigma).map(|r| r.total_time))
        .fold(None, |acc: Option<f64>, t| {
            Some(acc.map_or(t, |a| a.max(t)))
        })
        .unwrap_or(f64::INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{build_fleet, FleetConfig};
    use crate::metrics::total_idle_time;
    use chiron_data::DatasetSpec;

    fn fleet(n: usize, seed: u64) -> Vec<EdgeNode> {
        build_fleet(&FleetConfig::paper(n), &DatasetSpec::mnist_like(), seed)
    }

    fn times_under(nodes: &[EdgeNode], prices: &[f64], sigma: u32) -> Vec<f64> {
        nodes
            .iter()
            .zip(prices)
            .filter_map(|(n, &p)| n.respond(p, sigma).map(|r| r.total_time))
            .collect()
    }

    #[test]
    fn price_for_time_round_trips() {
        let nodes = fleet(3, 1);
        let sigma = 5;
        for node in &nodes {
            let target = node.params().upload_time + 10.0;
            let p = price_for_time(node, sigma, target);
            if let Some(r) = node.respond(p, sigma) {
                // If no boundary bound the price, the node finishes on target.
                if p > node.price_floor(sigma) * 1.001 && p < node.price_cap(sigma) * 0.999 {
                    assert!(
                        (r.total_time - target).abs() < 0.05,
                        "target {target}, got {}",
                        r.total_time
                    );
                }
            }
        }
    }

    #[test]
    fn equalizing_prices_equalize_times() {
        let nodes = fleet(5, 2);
        let sigma = 5;
        // A mid-range affordable total.
        let total: f64 = nodes.iter().map(|n| n.price_cap(sigma)).sum::<f64>() * 0.4;
        let prices = equalizing_prices(&nodes, sigma, total);
        let times = times_under(&nodes, &prices, sigma);
        assert_eq!(times.len(), 5, "all nodes should participate");
        let max = times.iter().copied().fold(0.0f64, f64::max);
        let min = times.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            (max - min) / max < 0.02,
            "times should be near-equal: {times:?}"
        );
    }

    #[test]
    fn equalizing_prices_respect_total() {
        let nodes = fleet(5, 3);
        let sigma = 5;
        let total: f64 = nodes.iter().map(|n| n.price_cap(sigma)).sum::<f64>() * 0.5;
        let prices = equalizing_prices(&nodes, sigma, total);
        let sum: f64 = prices.iter().sum();
        assert!(
            sum <= total * 1.001,
            "allocation {sum} exceeds total {total}"
        );
        assert!(sum >= total * 0.95, "allocation {sum} far below {total}");
    }

    #[test]
    fn lemma_one_beats_uniform_split_on_idle_time() {
        let nodes = fleet(5, 4);
        let sigma = 5;
        let total: f64 = nodes.iter().map(|n| n.price_cap(sigma)).sum::<f64>() * 0.4;

        let eq_prices = equalizing_prices(&nodes, sigma, total);
        let eq_idle = total_idle_time(&times_under(&nodes, &eq_prices, sigma));

        let uniform = vec![total / 5.0; 5];
        let uni_idle = total_idle_time(&times_under(&nodes, &uniform, sigma));

        assert!(
            eq_idle <= uni_idle,
            "Lemma 1 allocation (idle {eq_idle:.2}) must not lose to uniform (idle {uni_idle:.2})"
        );
    }

    #[test]
    fn overfunded_fleet_equalizes_to_best_straggler() {
        // With unlimited money the binding constraint is the slowest node's
        // best possible finish time; everyone else relaxes to match it
        // (Lemma 1's boundary case) instead of burning budget on speed that
        // cannot reduce the round time.
        let nodes = fleet(3, 5);
        let sigma = 5;
        let straggler_best = nodes
            .iter()
            .map(|n| n.params().upload_time + n.compute_time(n.params().freq_max, sigma))
            .fold(0.0f64, f64::max);
        let total: f64 = nodes.iter().map(|n| n.price_cap(sigma)).sum::<f64>() * 10.0;
        let prices = equalizing_prices(&nodes, sigma, total);
        for (n, &p) in nodes.iter().zip(&prices) {
            let r = n.respond(p, sigma).expect("rich prices ⇒ participation");
            assert!(
                (r.total_time - straggler_best).abs() < 0.1,
                "node should finish at the straggler's best time {straggler_best}, got {}",
                r.total_time
            );
        }
        // And the allocation never pays above any node's cap.
        for (n, &p) in nodes.iter().zip(&prices) {
            assert!(p <= n.price_cap(sigma) * 1.0001);
        }
    }

    #[test]
    fn equalized_round_time_matches_realized_times() {
        let nodes = fleet(5, 2);
        let sigma = 5;
        let total: f64 = nodes.iter().map(|n| n.price_cap(sigma)).sum::<f64>() * 0.4;
        let t = equalized_round_time(&nodes, sigma, total);
        let prices = equalizing_prices(&nodes, sigma, total);
        let realized_max = times_under(&nodes, &prices, sigma)
            .into_iter()
            .fold(0.0f64, f64::max);
        assert!(t.is_finite());
        assert!((t - realized_max).abs() < 1e-12);
    }

    #[test]
    fn underfunded_fleet_gets_floors() {
        let nodes = fleet(3, 6);
        let sigma = 5;
        let floor_total: f64 = nodes.iter().map(|n| n.price_floor(sigma)).sum();
        let prices = equalizing_prices(&nodes, sigma, floor_total * 0.1);
        for (n, &p) in nodes.iter().zip(&prices) {
            assert!((p - n.price_floor(sigma)).abs() < n.price_floor(sigma) * 0.01);
        }
    }
}
