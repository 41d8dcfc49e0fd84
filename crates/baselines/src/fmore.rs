//! The FMore-style multi-dimensional procurement auction
//! (Zeng et al., "FMore: An Incentive Scheme of Multi-dimensional Auction
//! for Federated Learning in MEC", ICDCS 2020).
//!
//! Each round is a sealed-bid reverse auction: every edge node submits a
//! multi-dimensional bid — the resources it promises (its peak frequency
//! and local data share) together with an ask price — and the parameter
//! server scores the bids, selects the top-`K` winners, and settles
//! **pay-as-bid**: each winner is posted exactly its asked per-unit price,
//! losers are posted zero and sit the round out.
//!
//! Bids are derived from the node's observable economics: the ask is a
//! per-`(seed, node, round)` pseudo-random fraction of the node's price
//! cap (nodes shade their asks differently round to round), and the
//! promised quality is the normalized peak frequency blended with the
//! node's data share. The stream is *stateless* — keyed off the
//! environment's round counter — so repeated evaluation episodes are
//! bitwise-identical, and the mechanism needs no learning:
//! [`Mechanism::train`] is a no-op.

use crate::memo::FleetMemo;
use crate::MechanismError;
use chiron::{Mechanism, MechanismParams};
use chiron_fedsim::{EdgeLearningEnv, RoundOutcome};
use std::cmp::Ordering;

/// One sealed bid: `(score, node index, ask price)`.
type Bid = (f64, usize, f64);

/// Configuration of the [`FMoreAuction`], validated by
/// [`try_validate`](FMoreConfig::try_validate) (`EnvConfigError`-style:
/// every constructor that accepts a config returns a typed
/// [`MechanismError::Invalid`] naming the offending field).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FMoreConfig {
    /// Number of auction winners `K` per round (clamped to the fleet size
    /// at decision time).
    pub winners: usize,
    /// Score weight of the promised quality (resources + data share).
    pub quality_weight: f64,
    /// Score weight of the normalized ask price.
    pub price_weight: f64,
    /// Minimum ask as a fraction of the node's price cap.
    pub ask_floor: f64,
    /// Span of the per-round pseudo-random ask shading above the floor;
    /// `ask_floor + ask_jitter` must stay within the price cap (≤ 1).
    pub ask_jitter: f64,
}

impl Default for FMoreConfig {
    fn default() -> Self {
        Self {
            winners: 3,
            quality_weight: 1.0,
            price_weight: 1.0,
            ask_floor: 0.35,
            ask_jitter: 0.30,
        }
    }
}

impl FMoreConfig {
    /// Validates every field, naming the first offender.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::Invalid`] if a field is out of range.
    pub fn try_validate(&self) -> Result<(), MechanismError> {
        let invalid = |field: &'static str, reason: String| MechanismError::Invalid {
            mechanism: "fmore",
            field,
            reason,
        };
        if self.winners == 0 {
            return Err(invalid("winners", "must be at least 1".into()));
        }
        if !(self.quality_weight >= 0.0 && self.quality_weight.is_finite()) {
            return Err(invalid(
                "quality_weight",
                format!("must be finite and >= 0, got {}", self.quality_weight),
            ));
        }
        if !(self.price_weight >= 0.0 && self.price_weight.is_finite()) {
            return Err(invalid(
                "price_weight",
                format!("must be finite and >= 0, got {}", self.price_weight),
            ));
        }
        if self.quality_weight == 0.0 && self.price_weight == 0.0 {
            return Err(invalid(
                "quality_weight",
                "quality_weight and price_weight cannot both be zero".into(),
            ));
        }
        if !(self.ask_floor > 0.0 && self.ask_floor <= 1.0) {
            return Err(invalid(
                "ask_floor",
                format!("must be in (0, 1], got {}", self.ask_floor),
            ));
        }
        if !(self.ask_jitter >= 0.0 && self.ask_floor + self.ask_jitter <= 1.0) {
            return Err(invalid(
                "ask_jitter",
                format!(
                    "must be >= 0 with ask_floor + ask_jitter <= 1, got {}",
                    self.ask_jitter
                ),
            ));
        }
        Ok(())
    }
}

/// The FMore-style auction mechanism (see module docs).
///
/// # Examples
///
/// ```
/// use chiron::{EpisodeRun, MechanismParams};
/// use chiron_baselines::{FMoreAuction, FMoreConfig};
/// use chiron_fedsim::{EdgeLearningEnv, EnvConfig};
/// use chiron_data::DatasetKind;
///
/// let mut env = EdgeLearningEnv::new(
///     EnvConfig::paper_small(DatasetKind::MnistLike, 40.0), 0);
/// let mut auction = FMoreAuction::new(
///     FMoreConfig::default(), MechanismParams::new(7)).expect("valid");
/// let (summary, _) = auction.run_episode(&mut env);
/// assert!(summary.spent <= 40.0 + 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FMoreAuction {
    config: FMoreConfig,
    params: MechanismParams,
    /// The fleet maxima bids are normalized by: `(freq_max, data weight,
    /// price cap)`.
    maxima: FleetMemo<(f64, f64, f64)>,
}

impl FMoreAuction {
    /// Builds the auction.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::Invalid`] if the config fails
    /// [`FMoreConfig::try_validate`].
    pub fn new(config: FMoreConfig, params: MechanismParams) -> Result<Self, MechanismError> {
        config.try_validate()?;
        Ok(Self {
            config,
            params,
            maxima: FleetMemo::new(),
        })
    }

    /// The validated configuration.
    pub fn config(&self) -> &FMoreConfig {
        &self.config
    }

    /// The ask fraction node `node` shades its bid with in round `round`:
    /// `ask_floor + ask_jitter · u` with `u` drawn from a stateless
    /// per-`(seed, node, round)` stream, so evaluation never drifts.
    fn ask_fraction(&self, node: usize, round: usize) -> f64 {
        let h = splitmix(
            self.params.seed
                ^ splitmix((node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (round as u64)),
        );
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.config.ask_floor + self.config.ask_jitter * u
    }

    /// Scores every node's bid for the current round and returns the
    /// posted price vector: winners get their ask, losers get zero.
    fn settle(&mut self, env: &EdgeLearningEnv) -> Vec<f64> {
        let sigma = env.sigma();
        let round = env.round();
        let weights = env.data_weights();
        let n = env.num_nodes();
        let (max_freq, max_weight, max_cap) = *self.maxima.get(env, 0.0, || {
            let max_freq = env
                .nodes()
                .iter()
                .map(|node| node.params().freq_max)
                .fold(f64::MIN_POSITIVE, f64::max);
            let max_weight = weights.iter().copied().fold(f64::MIN_POSITIVE, f64::max);
            let max_cap = env
                .nodes()
                .iter()
                .map(|node| node.price_cap(sigma))
                .fold(f64::MIN_POSITIVE, f64::max);
            (max_freq, max_weight, max_cap)
        });

        let bids = env.nodes().iter().enumerate().map(|(i, node)| {
            let ask = self.ask_fraction(i, round) * node.price_cap(sigma);
            let quality = 0.5 * node.params().freq_max / max_freq + 0.5 * weights[i] / max_weight;
            let score =
                self.config.quality_weight * quality - self.config.price_weight * ask / max_cap;
            (score, i, ask)
        });
        let mut prices = vec![0.0; n];
        for (_, i, ask) in top_k(bids, self.config.winners.min(n)) {
            prices[i] = ask;
        }
        prices
    }
}

/// The auction's total order on bids: highest score first, ties broken by
/// lower node index, so winner selection is deterministic.
fn bid_order(a: &Bid, b: &Bid) -> Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// The first `k` of `bids` under [`bid_order`], best first — what sorting
/// every bid and taking `k` gives, but streamed through a `k`-entry buffer.
fn top_k(bids: impl Iterator<Item = Bid>, k: usize) -> Vec<Bid> {
    let mut best: Vec<Bid> = Vec::with_capacity(k + 1);
    for bid in bids {
        if best.len() == k
            && best
                .last()
                .is_none_or(|worst| bid_order(&bid, worst).is_ge())
        {
            continue; // no better than the worst kept bid
        }
        let at = best.partition_point(|kept| bid_order(kept, &bid).is_lt());
        best.insert(at, bid);
        best.truncate(k);
    }
    best
}

impl Mechanism for FMoreAuction {
    fn name(&self) -> String {
        format!("fmore_k{}", self.config.winners)
    }

    fn params(&self) -> MechanismParams {
        self.params
    }

    fn begin_episode(&mut self, _env: &EdgeLearningEnv) {}

    fn decide_prices(&mut self, env: &EdgeLearningEnv, _explore: bool) -> Vec<f64> {
        self.settle(env)
    }

    fn observe(&mut self, _outcome: &RoundOutcome, _prices: &[f64]) {}

    fn train(&mut self, _env: &mut EdgeLearningEnv, episodes: usize) -> Vec<f64> {
        vec![0.0; episodes] // the auction carries no learned state
    }
}

/// splitmix64 finalizer (same mix the simulator's stateless fault streams
/// use) — keyed bid shading without any mutable RNG state.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron::EpisodeRun;
    use chiron_data::DatasetKind;
    use chiron_fedsim::fleet::{FleetConfig, UploadModel};
    use chiron_fedsim::EnvConfig;

    fn env(seed: u64) -> EdgeLearningEnv {
        EdgeLearningEnv::new(
            EnvConfig {
                oracle_noise: 0.0,
                ..EnvConfig::paper_small(DatasetKind::MnistLike, 60.0)
            },
            seed,
        )
    }

    fn auction(seed: u64) -> FMoreAuction {
        FMoreAuction::new(FMoreConfig::default(), MechanismParams::new(seed)).expect("valid")
    }

    #[test]
    fn config_validation_names_the_field() {
        let err = FMoreAuction::new(
            FMoreConfig {
                winners: 0,
                ..FMoreConfig::default()
            },
            MechanismParams::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            MechanismError::Invalid {
                mechanism: "fmore",
                field: "winners",
                ..
            }
        ));
        let err = FMoreConfig {
            ask_floor: 0.8,
            ask_jitter: 0.5,
            ..FMoreConfig::default()
        }
        .try_validate()
        .unwrap_err();
        assert!(matches!(
            err,
            MechanismError::Invalid {
                field: "ask_jitter",
                ..
            }
        ));
    }

    #[test]
    fn name_is_parameterized_by_k() {
        assert_eq!(auction(0).name(), "fmore_k3");
        let a = FMoreAuction::new(
            FMoreConfig {
                winners: 8,
                ..FMoreConfig::default()
            },
            MechanismParams::default(),
        )
        .expect("valid");
        assert_eq!(a.name(), "fmore_k8");
    }

    #[test]
    fn at_most_k_winners_are_posted_nonzero_prices() {
        let mut e = env(0);
        let mut a = auction(1);
        for _ in 0..5 {
            let prices = a.decide_prices(&e, false);
            let winners = prices.iter().filter(|&&p| p > 0.0).count();
            assert!(winners <= 3, "got {winners} winners");
            assert!(winners >= 1);
            for (p, node) in prices.iter().zip(e.nodes()) {
                assert!(*p <= node.price_cap(e.sigma()) + 1e-12);
            }
            e.step(&prices);
        }
    }

    #[test]
    fn episode_bits_are_pinned_across_instances_and_calls() {
        let mut e = env(3);
        let mut a = auction(9);
        let (s1, r1) = a.run_episode(&mut e);
        let (s2, r2) = a.run_episode(&mut e);
        let mut twin = auction(9);
        let (s3, _) = twin.run_episode(&mut e);
        assert_eq!(s1.rounds, s2.rounds);
        assert_eq!(s1.rounds, s3.rounds);
        assert_eq!(s1.final_accuracy.to_bits(), s2.final_accuracy.to_bits());
        assert_eq!(s1.final_accuracy.to_bits(), s3.final_accuracy.to_bits());
        assert_eq!(s1.spent.to_bits(), s2.spent.to_bits());
        assert_eq!(s1.spent.to_bits(), s3.spent.to_bits());
        assert_eq!(s1.total_time.to_bits(), s3.total_time.to_bits());
        for (a, b) in r1.iter().zip(&r2) {
            assert_eq!(a.payment.to_bits(), b.payment.to_bits());
        }
    }

    #[test]
    fn different_seeds_shade_asks_differently() {
        let a = auction(1);
        let b = auction(2);
        let differs = (0..16).any(|r| a.ask_fraction(0, r) != b.ask_fraction(0, r));
        assert!(differs, "seed must reach the bid stream");
        // And the stream varies over rounds for a fixed node.
        let varies = (1..16).any(|r| a.ask_fraction(0, r) != a.ask_fraction(0, 0));
        assert!(varies, "asks must be shaded per round");
    }

    /// The selection `settle` made before it streamed its bids: score
    /// every bid, sort them all, post the first `K`.
    fn sorted_settle(a: &FMoreAuction, env: &EdgeLearningEnv) -> Vec<f64> {
        let sigma = env.sigma();
        let weights = env.data_weights();
        let max_freq = env
            .nodes()
            .iter()
            .map(|node| node.params().freq_max)
            .fold(f64::MIN_POSITIVE, f64::max);
        let max_weight = weights.iter().copied().fold(f64::MIN_POSITIVE, f64::max);
        let max_cap = env
            .nodes()
            .iter()
            .map(|node| node.price_cap(sigma))
            .fold(f64::MIN_POSITIVE, f64::max);
        let mut bids: Vec<Bid> = env
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let ask = a.ask_fraction(i, env.round()) * node.price_cap(sigma);
                let quality =
                    0.5 * node.params().freq_max / max_freq + 0.5 * weights[i] / max_weight;
                let score =
                    a.config.quality_weight * quality - a.config.price_weight * ask / max_cap;
                (score, i, ask)
            })
            .collect();
        bids.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut prices = vec![0.0; env.num_nodes()];
        for &(_, i, ask) in bids.iter().take(a.config.winners.min(env.num_nodes())) {
            prices[i] = ask;
        }
        prices
    }

    fn bits(prices: &[f64]) -> Vec<u64> {
        prices.iter().map(|p| p.to_bits()).collect()
    }

    #[test]
    fn streaming_top_k_matches_a_full_sort_under_ties() {
        // Four distinct scores over up to 300 bids: nearly every bid ties
        // exactly with others, so only the index tie-break orders them.
        for n in [1usize, 2, 5, 40, 300] {
            let bids: Vec<Bid> = (0..n)
                .map(|i| {
                    let h = splitmix((n as u64) ^ ((i as u64) << 20));
                    ([-0.5, 0.0, 0.25, 1.0][(h % 4) as usize], i, i as f64)
                })
                .collect();
            let mut sorted = bids.clone();
            sorted.sort_by(bid_order);
            for k in [0, 1, 3, 7, n, n + 2] {
                let want: Vec<Bid> = sorted.iter().copied().take(k).collect();
                assert_eq!(top_k(bids.iter().copied(), k), want, "n = {n}, k = {k}");
            }
        }
    }

    #[test]
    fn streaming_settle_picks_the_sorted_winners_and_prices() {
        // Identical nodes with unshaded asks score exactly alike, so the
        // winners are decided by the index tie-break alone.
        let identical = EnvConfig {
            fleet: FleetConfig {
                freq_max_range: (1.5e9, 1.5e9),
                upload: UploadModel::FixedTime {
                    range: (15.0, 15.0),
                },
                reserve_range: (0.01, 0.01),
                ..FleetConfig::paper(12)
            },
            oracle_noise: 0.0,
            ..EnvConfig::paper_small(DatasetKind::MnistLike, 60.0)
        };
        let flat = FMoreConfig {
            ask_jitter: 0.0,
            winners: 4,
            ..FMoreConfig::default()
        };
        let cases = [
            (identical.clone(), flat),
            (identical.clone(), FMoreConfig::default()),
            (
                EnvConfig::paper_large(DatasetKind::MnistLike, 60.0),
                FMoreConfig::default(),
            ),
        ];
        for (config, auction_config) in cases {
            let mut e = EdgeLearningEnv::new(config, 7);
            let mut a = FMoreAuction::new(auction_config, MechanismParams::new(3)).expect("valid");
            for _ in 0..4 {
                let prices = a.decide_prices(&e, false);
                assert_eq!(bits(&prices), bits(&sorted_settle(&a, &e)));
                e.step(&prices);
            }
        }
        let e = EdgeLearningEnv::new(identical, 7);
        let mut a = FMoreAuction::new(flat, MechanismParams::new(3)).expect("valid");
        let prices = a.decide_prices(&e, false);
        let winners: Vec<usize> = (0..12).filter(|&i| prices[i] > 0.0).collect();
        assert_eq!(winners, [0, 1, 2, 3]);
    }

    #[test]
    fn budget_is_respected() {
        let mut e = env(4);
        let mut a = auction(4);
        let (summary, _) = a.run_episode(&mut e);
        assert!(summary.spent <= 60.0 + 1e-6);
        assert!(summary.rounds > 0);
    }
}
