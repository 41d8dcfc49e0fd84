//! A one-entry cache for pricing state that depends only on the fleet.

use chiron_fedsim::EdgeLearningEnv;
use std::fmt;

/// `(fleet_id, σ, total.to_bits())`.
type MemoKey = (u64, u32, u64);

/// Holds one value computed from an environment's immutable fleet, σ and a
/// total price, so a non-learned mechanism prices a fleet once instead of
/// every round. A call under a different key — another fleet, another σ or
/// another total — recomputes and replaces the entry, so a mechanism moved
/// to a new environment never prices from a stale fleet.
///
/// Every memo compares equal to every other and prints only its key: a
/// mechanism's derived `PartialEq` and `Debug` then see its configuration,
/// not what it happens to have cached.
#[derive(Clone, Copy)]
pub(crate) struct FleetMemo<T> {
    entry: Option<(MemoKey, T)>,
}

impl<T> FleetMemo<T> {
    /// An empty memo.
    pub(crate) const fn new() -> Self {
        Self { entry: None }
    }

    /// The value cached for `(env.fleet_id(), env.sigma(), total)`, running
    /// `compute` first if the memo holds another key or none. `compute`
    /// must be a pure function of the fleet, σ and `total`; a caller whose
    /// value depends on no total passes a constant.
    pub(crate) fn get(
        &mut self,
        env: &EdgeLearningEnv,
        total: f64,
        compute: impl FnOnce() -> T,
    ) -> &T {
        let key = (env.fleet_id(), env.sigma(), total.to_bits());
        if self.entry.as_ref().map(|(k, _)| *k) != Some(key) {
            self.entry = Some((key, compute()));
        }
        &self.entry.as_ref().expect("filled above").1
    }
}

impl<T> PartialEq for FleetMemo<T> {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl<T> fmt::Debug for FleetMemo<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetMemo")
            .field("key", &self.entry.as_ref().map(|(k, _)| k))
            .finish_non_exhaustive()
    }
}
