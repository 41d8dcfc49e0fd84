//! # chiron-baselines
//!
//! The comparison mechanisms of the paper's evaluation (Section VI-A),
//! implementing the shared [`chiron::Mechanism`] trait:
//!
//! * [`DrlSingleRound`] — the "DRL-based" state of the art
//!   (Zhan & Zhang, INFOCOM 2020): a single flat PPO agent that prices
//!   every node directly and optimizes a **myopic single-round** objective
//!   built from resource consumption (round time + energy), with no
//!   accuracy term and no budget pacing.
//! * [`Greedy`] — seeds a replay memory with random pricing actions, then
//!   replays the best-scoring action with high probability and explores
//!   with small probability.
//! * [`StaticPrice`] — non-learning reference: a fixed fraction of every
//!   node's price cap each round.
//! * [`LemmaOracle`] — non-learning reference that allocates a fixed total
//!   price with the Lemma 1 equalizing split (perfect time consistency);
//!   an upper bound for the inner agent's objective.
//! * [`DpPlanner`] — a **full-information** dynamic-programming planner:
//!   given the node private parameters and the accuracy curve it solves
//!   the budget-pacing problem by backward induction, upper-bounding what
//!   any incomplete-information mechanism can achieve.
//! * [`FMoreAuction`] — FMore-style multi-dimensional reverse auction
//!   (Zeng et al., ICDCS 2020): per-round sealed bids scored on promised
//!   resources vs. ask price, top-`K` winners, pay-as-bid settlement.
//! * [`StackelbergPricing`] — closed-form Stackelberg leader/follower
//!   equilibrium (after Sarikaya & Ercetin): budget pacing over a planned
//!   horizon with the Lemma-1 equalizing split, no learning.
//!
//! The whole zoo — including Chiron itself and the flat-PPO ablation — is
//! constructible by id through the typed [`registry`]; see
//! [`MechanismSpec`] for the contract.
//!
//! ## Example
//!
//! ```
//! use chiron::{EpisodeRun, Mechanism};
//! use chiron_baselines::Greedy;
//! use chiron_fedsim::{EdgeLearningEnv, EnvConfig};
//! use chiron_data::DatasetKind;
//!
//! let mut env = EdgeLearningEnv::new(
//!     EnvConfig::paper_small(DatasetKind::MnistLike, 40.0), 0);
//! let mut greedy = Greedy::new(&env, 0);
//! greedy.train(&mut env, 3);
//! let (summary, _) = greedy.run_episode(&mut env);
//! assert!(summary.spent <= 40.0 + 1e-6);
//! ```

mod drl_single;
mod error;
mod fmore;
mod greedy;
mod memo;
mod planner;
mod registry;
mod stackelberg;
mod statics;

pub use drl_single::{DrlSingleRound, DrlSingleRoundConfig};
pub use error::MechanismError;
pub use fmore::{FMoreAuction, FMoreConfig};
pub use greedy::{Greedy, GreedyConfig};
pub use planner::DpPlanner;
pub use registry::{build_by_id, find, parse_ids, registry, BuildFn, MechanismSpec};
pub use stackelberg::{StackelbergConfig, StackelbergPricing};
pub use statics::{LemmaOracle, StaticPrice};

#[cfg(test)]
mod proptests;
