//! Stackelberg leader/follower pricing (after Sarikaya & Ercetin,
//! "Motivating Workers in Federated Learning: A Stackelberg Game
//! Perspective") — a closed-form equilibrium baseline with no learning.
//!
//! The game per round: the parameter server (leader) commits to per-node
//! prices; each node (follower) best-responds by choosing the CPU
//! frequency that maximizes its own utility — exactly the simulator's
//! `EdgeNode::respond`. The leader, knowing the follower reaction
//! functions, plays its best response in two closed-form pieces:
//!
//! 1. **Pacing.** The leader plans a horizon of `rounds_target` rounds and
//!    targets a per-round spend of `remaining_budget / remaining_rounds`,
//!    re-planning every round from the realized ledger (so refunds and
//!    declined bids roll forward instead of being lost).
//! 2. **Allocation.** For a given total price, the utility-maximizing
//!    split across followers is the Lemma-1 *equalizing* allocation (all
//!    responders finish together — zero idle time). The leader inverts
//!    the aggregate follower response by bisecting the total price until
//!    the realized spend `Σ pᵢ·ζᵢ*(pᵢ)` meets the round's target.
//!
//! Both pieces are deterministic functions of the environment state, so
//! the mechanism is seedless: repeated episodes are bitwise-identical by
//! construction, and [`Mechanism::train`] is a no-op.

use crate::memo::FleetMemo;
use crate::MechanismError;
use chiron::{Mechanism, MechanismParams};
use chiron_fedsim::lemma::equalizing_prices;
use chiron_fedsim::{EdgeLearningEnv, RoundOutcome};

/// Configuration of [`StackelbergPricing`], validated by
/// [`try_validate`](StackelbergConfig::try_validate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackelbergConfig {
    /// The leader's planned episode length in rounds; the per-round spend
    /// target is `remaining_budget / remaining_rounds`.
    pub rounds_target: usize,
    /// Fixed bisection iteration count used to invert the aggregate
    /// follower response (fixed — not tolerance-driven — so every thread
    /// count and platform runs the identical arithmetic).
    pub bisection_iters: usize,
}

impl Default for StackelbergConfig {
    fn default() -> Self {
        Self {
            rounds_target: 20,
            bisection_iters: 48,
        }
    }
}

impl StackelbergConfig {
    /// Validates every field, naming the first offender.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::Invalid`] if a field is out of range.
    pub fn try_validate(&self) -> Result<(), MechanismError> {
        let invalid = |field: &'static str, reason: String| MechanismError::Invalid {
            mechanism: "stackelberg",
            field,
            reason,
        };
        if self.rounds_target == 0 {
            return Err(invalid("rounds_target", "must be at least 1".into()));
        }
        if self.bisection_iters < 8 {
            return Err(invalid(
                "bisection_iters",
                format!("must be at least 8, got {}", self.bisection_iters),
            ));
        }
        Ok(())
    }
}

/// The closed-form Stackelberg pricing mechanism (see module docs).
///
/// # Examples
///
/// ```
/// use chiron::{EpisodeRun, MechanismParams};
/// use chiron_baselines::{StackelbergConfig, StackelbergPricing};
/// use chiron_fedsim::{EdgeLearningEnv, EnvConfig};
/// use chiron_data::DatasetKind;
///
/// let mut env = EdgeLearningEnv::new(
///     EnvConfig::paper_small(DatasetKind::MnistLike, 60.0), 0);
/// let mut leader = StackelbergPricing::new(
///     StackelbergConfig::default(), MechanismParams::default()).expect("valid");
/// let (summary, _) = leader.run_episode(&mut env);
/// assert!(summary.spent <= 60.0 + 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StackelbergPricing {
    config: StackelbergConfig,
    params: MechanismParams,
    /// The full-cap probe per fleet: the spend at the price-cap total and
    /// the equalizing split that realizes it.
    full_cap: FleetMemo<(f64, Vec<f64>)>,
}

impl StackelbergPricing {
    /// Builds the leader.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::Invalid`] if the config fails
    /// [`StackelbergConfig::try_validate`].
    pub fn new(config: StackelbergConfig, params: MechanismParams) -> Result<Self, MechanismError> {
        config.try_validate()?;
        Ok(Self {
            config,
            params,
            full_cap: FleetMemo::new(),
        })
    }

    /// The validated configuration.
    pub fn config(&self) -> &StackelbergConfig {
        &self.config
    }

    /// The realized spend `Σ pᵢ·ζᵢ*` if the leader posts the Lemma-1
    /// equalizing split of `total` — the aggregate follower response.
    fn spend_at(env: &EdgeLearningEnv, total: f64) -> f64 {
        Self::spend_of(env, &equalizing_prices(env.nodes(), env.sigma(), total))
    }

    /// The realized spend `Σ pᵢ·ζᵢ*` of posting `prices`.
    fn spend_of(env: &EdgeLearningEnv, prices: &[f64]) -> f64 {
        let sigma = env.sigma();
        env.nodes()
            .iter()
            .zip(prices)
            .filter_map(|(node, &p)| node.respond(p, sigma).map(|r| r.payment))
            .sum()
    }
}

impl Mechanism for StackelbergPricing {
    fn name(&self) -> String {
        "stackelberg".to_string()
    }

    fn params(&self) -> MechanismParams {
        self.params
    }

    fn begin_episode(&mut self, _env: &EdgeLearningEnv) {}

    fn decide_prices(&mut self, env: &EdgeLearningEnv, _explore: bool) -> Vec<f64> {
        let remaining_rounds = self.config.rounds_target.saturating_sub(env.round()).max(1);
        let target = env.remaining_budget() / remaining_rounds as f64;
        let cap = env.total_price_cap();

        // Invert the aggregate follower response: find the total price
        // whose realized spend meets the round's target. The spend is
        // monotone non-decreasing in the total, so bisection converges;
        // if even the full cap cannot spend the target, post the cap. The
        // full-cap probe depends on the fleet alone and is computed once.
        let (cap_spend, cap_prices) = self.full_cap.get(env, cap, || {
            let prices = equalizing_prices(env.nodes(), env.sigma(), cap);
            (Self::spend_of(env, &prices), prices)
        });
        if *cap_spend <= target {
            return cap_prices.clone();
        }
        let mut lo = cap * 1e-6;
        let mut hi = cap;
        // The spend at `lo`, once a probe has moved it there.
        let mut spend_lo = None;
        for _ in 0..self.config.bisection_iters {
            let mid = 0.5 * (lo + hi);
            let spend = Self::spend_at(env, mid);
            if spend <= target {
                lo = mid;
                spend_lo = Some(spend);
            } else {
                hi = mid;
            }
        }
        // Engage-or-exit: if the kept total sits below every follower's
        // participation threshold (spend 0 — e.g. the paced target has
        // shrunk beneath the cheapest engagement), posting it would burn a
        // ghost round that nobody accepts and the ledger never closes.
        // Post the other bracket end instead: the smallest engaging total.
        // It either spends real money (slightly over target) or overdraws
        // the remaining budget, which ends the episode through
        // `BudgetExhausted`.
        let spend_lo = spend_lo.unwrap_or_else(|| Self::spend_at(env, lo));
        let total = if spend_lo > 0.0 { lo } else { hi };
        equalizing_prices(env.nodes(), env.sigma(), total)
    }

    fn observe(&mut self, _outcome: &RoundOutcome, _prices: &[f64]) {}

    fn train(&mut self, _env: &mut EdgeLearningEnv, episodes: usize) -> Vec<f64> {
        vec![0.0; episodes] // the equilibrium is closed-form
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron::EpisodeRun;
    use chiron_data::DatasetKind;
    use chiron_fedsim::EnvConfig;

    fn env(budget: f64, seed: u64) -> EdgeLearningEnv {
        EdgeLearningEnv::new(
            EnvConfig {
                oracle_noise: 0.0,
                ..EnvConfig::paper_small(DatasetKind::MnistLike, budget)
            },
            seed,
        )
    }

    fn leader() -> StackelbergPricing {
        StackelbergPricing::new(StackelbergConfig::default(), MechanismParams::default())
            .expect("valid")
    }

    #[test]
    fn config_validation_names_the_field() {
        let err = StackelbergPricing::new(
            StackelbergConfig {
                rounds_target: 0,
                ..StackelbergConfig::default()
            },
            MechanismParams::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            MechanismError::Invalid {
                mechanism: "stackelberg",
                field: "rounds_target",
                ..
            }
        ));
    }

    #[test]
    fn episode_bits_are_pinned_across_instances_and_calls() {
        let mut e = env(60.0, 1);
        let mut a = leader();
        let (s1, _) = a.run_episode(&mut e);
        let (s2, _) = a.run_episode(&mut e);
        let mut twin = leader();
        let (s3, _) = twin.run_episode(&mut e);
        assert_eq!(s1.rounds, s2.rounds);
        assert_eq!(s1.rounds, s3.rounds);
        assert_eq!(s1.final_accuracy.to_bits(), s2.final_accuracy.to_bits());
        assert_eq!(s1.final_accuracy.to_bits(), s3.final_accuracy.to_bits());
        assert_eq!(s1.spent.to_bits(), s3.spent.to_bits());
        assert_eq!(s1.total_time.to_bits(), s3.total_time.to_bits());
    }

    #[test]
    fn pacing_tracks_the_per_round_target() {
        let budget = 100.0;
        let mut e = env(budget, 2);
        let mut a = leader();
        let (summary, records) = a.run_episode(&mut e);
        assert!(summary.spent <= budget + 1e-6);
        assert!(summary.rounds > 1);
        // The first round's target is budget / rounds_target; the realized
        // spend lands at or below it (bisection approaches from below,
        // stepping over at most one follower's participation threshold).
        let target = budget / 20.0;
        assert!(
            records[0].payment <= target * 1.5 + 1e-9,
            "first-round spend {} should track target {target}",
            records[0].payment
        );
    }

    #[test]
    fn equalizing_split_keeps_time_efficiency_high() {
        let mut e = env(80.0, 3);
        let mut a = leader();
        let (summary, _) = a.run_episode(&mut e);
        assert!(
            summary.mean_time_efficiency > 0.9,
            "Lemma-1 equalizing split should be near-consistent, got {}",
            summary.mean_time_efficiency
        );
    }

    #[test]
    fn spend_is_monotone_in_total_price() {
        let e = env(60.0, 4);
        let cap = e.total_price_cap();
        let mut last = 0.0;
        for i in 1..=10 {
            let s = StackelbergPricing::spend_at(&e, cap * i as f64 / 10.0);
            assert!(s + 1e-9 >= last, "spend must be monotone, {s} < {last}");
            last = s;
        }
    }
}
