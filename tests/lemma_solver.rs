//! Regression guard for the Lemma-1 solver. `equalizing_prices` stops its
//! bisection once the bracket stops moving; it must return exactly the
//! bits of the solver that always ran 200 halvings, frozen below, on every
//! branch: a total affordable at the fastest target, one that only buys
//! the floors, and one the bisection has to split.

use chiron_repro::chiron_fedsim::fleet::build_fleet;
use chiron_repro::chiron_fedsim::lemma::{equalizing_prices, price_for_time};
use chiron_repro::prelude::*;

/// Which branch picked the common target time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Branch {
    Affordable,
    Floors,
    /// `binds`: the bisected target itself set the prices, rather than a
    /// straggler pinned at its cap finishing later. Only then does a target
    /// that stopped short of the 200-halving one show in the prices.
    Bisection {
        binds: bool,
    },
}

/// `equalizing_prices` with its fixed 200-halving bisection, frozen, also
/// reporting the branch it took.
fn frozen_equalizing_prices(
    nodes: &[EdgeNode],
    sigma: u32,
    total_price: f64,
) -> (Vec<f64>, Branch) {
    let total_for_time = |t: f64| -> f64 {
        nodes
            .iter()
            .map(|n| price_for_time(n, sigma, t))
            .sum::<f64>()
    };
    let t_min = nodes
        .iter()
        .map(|n| n.params().upload_time + n.compute_time(n.params().freq_max, sigma))
        .fold(f64::INFINITY, f64::min);
    let t_max = nodes
        .iter()
        .map(|n| n.params().upload_time + n.compute_time(n.params().freq_min, sigma))
        .fold(0.0f64, f64::max);
    let (mut lo, mut hi) = (t_min, t_max);
    let (target, mut branch) = if total_for_time(lo) <= total_price {
        (lo, Branch::Affordable)
    } else if total_for_time(hi) >= total_price {
        (hi, Branch::Floors)
    } else {
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if total_for_time(mid) > total_price {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (hi, Branch::Bisection { binds: false })
    };
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
    if let Branch::Bisection { binds } = &mut branch {
        *binds = t_real == target;
    }
    let prices = nodes
        .iter()
        .map(|n| price_for_time(n, sigma, t_real))
        .collect();
    (prices, branch)
}

/// Totals that reach every branch: twice the cap sum is affordable at the
/// fastest target, half the floor sum buys only floors, and totals in
/// between need the bisection. Just above the floor sum the target binds
/// even on a large fleet, whose slowest node is pinned at its cap for
/// every larger total.
fn totals(nodes: &[EdgeNode], sigma: u32) -> Vec<f64> {
    let caps: f64 = nodes.iter().map(|n| n.price_cap(sigma)).sum();
    let floors: f64 = nodes.iter().map(|n| n.price_floor(sigma)).sum();
    vec![
        2.0 * caps,
        0.5 * floors,
        1.001 * floors,
        0.1 * caps,
        0.4 * caps,
        0.85 * caps,
    ]
}

/// Solves every total on `nodes` both ways, asserts identical bits and
/// returns the branches the totals took.
fn assert_matches_frozen(nodes: &[EdgeNode], sigma: u32) -> Vec<Branch> {
    totals(nodes, sigma)
        .into_iter()
        .map(|total| {
            let (want, branch) = frozen_equalizing_prices(nodes, sigma, total);
            let got = equalizing_prices(nodes, sigma, total);
            let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&got),
                bits(&want),
                "{} nodes, σ = {sigma}, total {total} ({branch:?})",
                nodes.len()
            );
            branch
        })
        .collect()
}

fn assert_every_branch(branches: &[Branch]) {
    for branch in [
        Branch::Affordable,
        Branch::Floors,
        Branch::Bisection { binds: true },
    ] {
        assert!(branches.contains(&branch), "no total reached {branch:?}");
    }
}

#[test]
fn early_stop_matches_two_hundred_halvings_on_random_fleets() {
    let mut rng = TensorRng::seed_from(0x1E33A);
    let mut branches = Vec::new();
    for case in 0..48 {
        let n = 1 + rng.index(257);
        let mut config = FleetConfig::paper(n);
        match case % 3 {
            0 => {}
            1 => config.data_volumes = DataVolumes::Dirichlet { alpha: 0.5 },
            _ => {
                config.upload = UploadModel::Bandwidth {
                    model_bits: 2.0e6,
                    range: (1.0e5, 1.0e6),
                }
            }
        }
        let mut dataset = DatasetSpec::mnist_like();
        dataset.train_size = dataset.train_size.max(n);
        let nodes = build_fleet(&config, &dataset, rng.index(1 << 20) as u64);
        let sigma = 1 + rng.index(8) as u32;
        branches.extend(assert_matches_frozen(&nodes, sigma));
    }
    assert_every_branch(&branches);
}

#[test]
fn early_stop_matches_two_hundred_halvings_on_a_100k_fleet() {
    let n = 100_000;
    let mut dataset = DatasetSpec::mnist_like();
    dataset.train_size = n;
    let nodes = build_fleet(&FleetConfig::paper(n), &dataset, 1);
    assert_every_branch(&assert_matches_frozen(&nodes, 5));
}
