//! Non-learning reference mechanisms.

use crate::memo::FleetMemo;
use chiron::{Mechanism, MechanismParams};
use chiron_fedsim::lemma::equalizing_prices;
use chiron_fedsim::{EdgeLearningEnv, RoundOutcome};

/// Pays every node the same fixed fraction of its price cap each round —
/// the simplest possible policy, useful as a floor in benchmarks and for
/// sanity-checking the environment.
///
/// # Examples
///
/// ```
/// use chiron::EpisodeRun;
/// use chiron_baselines::StaticPrice;
/// use chiron_fedsim::{EdgeLearningEnv, EnvConfig};
/// use chiron_data::DatasetKind;
///
/// let mut env = EdgeLearningEnv::new(
///     EnvConfig::paper_small(DatasetKind::MnistLike, 40.0), 0);
/// let mut mech = StaticPrice::new(0.5);
/// let (summary, _) = mech.run_episode(&mut env);
/// assert!(summary.rounds > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StaticPrice {
    fraction: f64,
    params: MechanismParams,
    /// The cap-fraction vector, per fleet.
    prices: FleetMemo<Vec<f64>>,
}

impl StaticPrice {
    /// Creates the mechanism paying `fraction · price_cap` to each node,
    /// with default [`MechanismParams`].
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction <= 1`.
    pub fn new(fraction: f64) -> Self {
        Self::with_params(fraction, MechanismParams::default())
    }

    /// [`new`](StaticPrice::new) with explicit [`MechanismParams`] (the
    /// seed is unused — the policy is deterministic).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction <= 1`.
    pub fn with_params(fraction: f64, params: MechanismParams) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0,1], got {fraction}"
        );
        Self {
            fraction,
            params,
            prices: FleetMemo::new(),
        }
    }

    /// The configured fraction.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }
}

impl Mechanism for StaticPrice {
    fn name(&self) -> String {
        "static".to_string()
    }

    fn params(&self) -> MechanismParams {
        self.params
    }

    fn begin_episode(&mut self, _env: &EdgeLearningEnv) {}

    fn decide_prices(&mut self, env: &EdgeLearningEnv, _explore: bool) -> Vec<f64> {
        let fraction = self.fraction;
        self.prices
            .get(env, fraction, || {
                env.nodes()
                    .iter()
                    .map(|n| n.price_cap(env.sigma()) * fraction)
                    .collect()
            })
            .clone()
    }

    fn observe(&mut self, _outcome: &RoundOutcome, _prices: &[f64]) {}

    fn train(&mut self, _env: &mut EdgeLearningEnv, episodes: usize) -> Vec<f64> {
        vec![0.0; episodes] // nothing to learn
    }
}

/// Allocates a fixed total price with the Lemma 1 equalizing split — the
/// analytic optimum of the *inner* objective at a hand-picked pacing. Not
/// a contender from the paper, but a useful upper reference: a learned
/// inner agent should approach its time efficiency, and a learned exterior
/// agent should beat its fixed pacing on final accuracy.
#[derive(Debug, Clone, PartialEq)]
pub struct LemmaOracle {
    total_fraction: f64,
    params: MechanismParams,
    /// The equalizing split of the per-round total, per fleet.
    prices: FleetMemo<Vec<f64>>,
}

impl LemmaOracle {
    /// Creates the oracle spending `total_fraction · Σ price_cap` per
    /// round, with default [`MechanismParams`].
    ///
    /// # Panics
    ///
    /// Panics unless `0 < total_fraction <= 1`.
    pub fn new(total_fraction: f64) -> Self {
        Self::with_params(total_fraction, MechanismParams::default())
    }

    /// [`new`](LemmaOracle::new) with explicit [`MechanismParams`] (the
    /// seed is unused — the policy is deterministic).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < total_fraction <= 1`.
    pub fn with_params(total_fraction: f64, params: MechanismParams) -> Self {
        assert!(
            total_fraction > 0.0 && total_fraction <= 1.0,
            "total_fraction must be in (0,1], got {total_fraction}"
        );
        Self {
            total_fraction,
            params,
            prices: FleetMemo::new(),
        }
    }
}

impl Mechanism for LemmaOracle {
    fn name(&self) -> String {
        "lemma-oracle".to_string()
    }

    fn params(&self) -> MechanismParams {
        self.params
    }

    fn begin_episode(&mut self, _env: &EdgeLearningEnv) {}

    fn decide_prices(&mut self, env: &EdgeLearningEnv, _explore: bool) -> Vec<f64> {
        let total = env.total_price_cap() * self.total_fraction;
        self.prices
            .get(env, total, || {
                equalizing_prices(env.nodes(), env.sigma(), total)
            })
            .clone()
    }

    fn observe(&mut self, _outcome: &RoundOutcome, _prices: &[f64]) {}

    fn train(&mut self, _env: &mut EdgeLearningEnv, episodes: usize) -> Vec<f64> {
        vec![0.0; episodes]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron::EpisodeRun;
    use chiron_data::DatasetKind;
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

    #[test]
    fn static_price_completes_rounds() {
        let mut e = env(0);
        let mut mech = StaticPrice::new(0.4);
        let (summary, records) = mech.run_episode(&mut e);
        assert!(summary.rounds > 0);
        assert_eq!(summary.rounds, records.len());
        assert!(summary.spent <= 60.0 + 1e-6);
    }

    #[test]
    fn cheaper_static_pricing_buys_more_rounds() {
        let rounds = |frac: f64| {
            let mut e = env(1);
            StaticPrice::new(frac).run_episode(&mut e).0.rounds
        };
        assert!(rounds(0.3) > rounds(0.9));
    }

    #[test]
    fn lemma_oracle_achieves_high_time_efficiency() {
        let mut e = env(2);
        let mut oracle = LemmaOracle::new(0.4);
        let (summary, _) = oracle.run_episode(&mut e);
        assert!(
            summary.mean_time_efficiency > 0.95,
            "Lemma allocation should be near-perfectly consistent, got {}",
            summary.mean_time_efficiency
        );
    }

    #[test]
    fn lemma_oracle_beats_static_on_time_efficiency() {
        let te = |mech: &mut dyn Mechanism| {
            let mut e = env(3);
            mech.run_episode(&mut e).0.mean_time_efficiency
        };
        let lemma = te(&mut LemmaOracle::new(0.4));
        let fixed = te(&mut StaticPrice::new(0.4));
        assert!(
            lemma >= fixed,
            "lemma {lemma} should be at least static {fixed}"
        );
    }

    #[test]
    #[should_panic(expected = "fraction must be")]
    fn static_validates_fraction() {
        let _ = StaticPrice::new(0.0);
    }
}
