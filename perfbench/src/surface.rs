//! The decision-surface episode loop, the delegating oracle wrapper and
//! the per-op correctness gate.
//!
//! [`drive_episode`] plays the same protocol as `EpisodeRun::run_episode`
//! (reset, `begin_episode`, then `decide_prices` → `EdgeLearningEnv::step`
//! → `observe` until the budget runs out or the environment is done), so
//! its summaries and records are bitwise the ones `run_episode` returns.
//! Driving it from outside lets the benchmark time each round and each
//! pricing call, open its own spans around every public call, and check
//! every round's outputs.

use crate::stats::Digest;
use chiron::Mechanism;
use chiron_fedsim::metrics::{EpisodeSummary, RoundRecord};
use chiron_fedsim::oracle::{AccuracyOracle, OracleState, OracleStateError, RoundContext};
use chiron_fedsim::{EdgeLearningEnv, RoundOutcome, StepStatus};
use chiron_telemetry::span;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The least wall time between two runs of the reference kernel.
pub const REFERENCE_EVERY: Duration = Duration::from_millis(10);

/// Relative slack for the floating-point comparisons of the gate.
const REL_EPS: f64 = 1e-9;

/// Milliseconds in `d`.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Everything one pass of a workload measured and checked.
#[derive(Debug, Default)]
pub struct Tally {
    /// Wall time of every episode, ms.
    pub episode_ms: Vec<f64>,
    /// Wall time of every individually timed recorded round, ms.
    pub round_ms: Vec<f64>,
    /// Whether to run the reference kernel between episodes and rounds.
    pub calibrate: bool,
    /// When the reference kernel last ran for this tally.
    pub last_reference: Option<Instant>,
    /// Time of every reference kernel run, ms; see [`reference_ms`].
    pub reference_ms: Vec<f64>,
    /// Recorded rounds, timed individually or not.
    pub rounds: usize,
    /// Per-call `decide_prices` time in µs, by mechanism id.
    pub decide_us: BTreeMap<&'static str, Vec<f64>>,
    /// Selected nodes over the driven rounds.
    pub selected: usize,
    /// Participating nodes over the driven rounds.
    pub participants: usize,
    /// Checked operations.
    pub attempted: u64,
    /// Operations that broke an invariant.
    pub failed: u64,
    /// The first few violations, for the report.
    pub violations: Vec<String>,
}

impl Tally {
    /// An empty tally that calibrates when `calibrate` is set.
    #[must_use]
    pub fn new(calibrate: bool) -> Self {
        Self {
            calibrate,
            ..Self::default()
        }
    }

    /// Runs the reference kernel if this tally calibrates and it has not
    /// run for [`REFERENCE_EVERY`], and returns the time it took, 0 if it
    /// did not run. Sampling by time rather than by call spreads the runs
    /// evenly over the wall time of every workload, whether it times 12 µs
    /// rounds or 200 ms ones, at a cost of at most a few percent.
    pub fn sample_reference(&mut self) -> f64 {
        if !self.calibrate
            || self
                .last_reference
                .is_some_and(|t| t.elapsed() < REFERENCE_EVERY)
        {
            return 0.0;
        }
        let t = reference_ms();
        self.reference_ms.push(t);
        self.last_reference = Some(Instant::now());
        t
    }

    /// Counts one checked operation; `violation` is `None` when it held.
    pub fn check(&mut self, violation: Option<String>) {
        self.attempted += 1;
        if let Some(v) = violation {
            self.failed += 1;
            if self.violations.len() < 8 {
                self.violations.push(v);
            }
        }
    }

    /// Folds `other` into `self`.
    pub fn absorb(&mut self, mut other: Tally) {
        self.episode_ms.append(&mut other.episode_ms);
        self.round_ms.append(&mut other.round_ms);
        self.rounds += other.rounds;
        self.absorb_counts(other);
    }

    /// Folds an episode played alongside the ones already in `self`: its
    /// episode time adds to the single episode sample, its round k adds
    /// to round k, and its rounds count once.
    pub fn absorb_in_step(&mut self, mut other: Tally) {
        let episode: f64 = other.episode_ms.iter().sum();
        match self.episode_ms.first_mut() {
            Some(total) => *total += episode,
            None => self.episode_ms.push(episode),
        }
        let shared = self.round_ms.len().min(other.round_ms.len());
        for (mine, theirs) in self.round_ms.iter_mut().zip(&other.round_ms) {
            *mine += theirs;
        }
        self.round_ms.extend(other.round_ms.drain(shared..));
        self.rounds = self.rounds.max(other.rounds);
        self.absorb_counts(other);
    }

    fn absorb_counts(&mut self, mut other: Tally) {
        self.reference_ms.append(&mut other.reference_ms);
        for (id, xs) in other.decide_us {
            self.decide_us.entry(id).or_default().extend(xs);
        }
        self.selected += other.selected;
        self.participants += other.participants;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for v in other.violations {
            if self.violations.len() < 8 {
                self.violations.push(v);
            }
        }
    }
}

/// The invariants every recorded or discarded round must keep: finite,
/// non-negative prices; no node paid above its posted price for the
/// frequency it supplied; cumulative spend within η; accuracies in [0, 1].
/// Returns the first violation.
#[must_use]
pub fn round_violation(
    prices: &[f64],
    outcome: &RoundOutcome,
    spent_after: f64,
    budget: f64,
) -> Option<String> {
    let r = outcome.round;
    if let Some(p) = prices.iter().find(|p| !(p.is_finite() && **p >= 0.0)) {
        return Some(format!(
            "round {r}: posted price {p} is not finite and >= 0"
        ));
    }
    let full = prices.len() != outcome.selection.len();
    let mut owed = 0.0;
    for (j, resp) in outcome.responses.iter().enumerate() {
        let Some(resp) = resp else { continue };
        let price = if full {
            prices[outcome.selection[j]]
        } else {
            prices[j]
        };
        let posted = price * resp.frequency;
        if resp.payment > posted * (1.0 + REL_EPS) {
            return Some(format!(
                "round {r}: node {} paid {} above its posted {posted}",
                outcome.selection[j], resp.payment
            ));
        }
        owed += resp.payment;
    }
    if outcome.payment_total > owed * (1.0 + REL_EPS) + REL_EPS {
        return Some(format!(
            "round {r}: charged {} for responses worth {owed}",
            outcome.payment_total
        ));
    }
    if spent_after > budget * (1.0 + REL_EPS) || outcome.remaining_budget < -budget * REL_EPS {
        return Some(format!("round {r}: spent {spent_after} of budget {budget}"));
    }
    for acc in [outcome.accuracy, outcome.prev_accuracy] {
        if !(0.0..=1.0).contains(&acc) {
            return Some(format!("round {r}: accuracy {acc} outside [0, 1]"));
        }
    }
    None
}

/// Plays one deterministic episode of `mech` on `env` through the decision
/// surface, timing and checking every round into `tally`. Bitwise equal to
/// `EpisodeRun::run_episode` (the benchmark's tests pin this).
pub fn drive_episode(
    id: &'static str,
    mech: &mut dyn Mechanism,
    env: &mut EdgeLearningEnv,
    tally: &mut Tally,
) -> (EpisodeSummary, Vec<RoundRecord>) {
    let episode_start = Instant::now();
    {
        let _s = span("bench.reset");
        env.reset();
    }
    {
        let _s = span("bench.begin_episode");
        mech.begin_episode(env);
    }
    let initial_accuracy = env.accuracy();
    let budget = env.total_budget();
    let mut records = Vec::new();
    let mut spent = 0.0;
    let mut reference = 0.0;
    loop {
        let round_start = Instant::now();
        let prices = {
            let _s = span("bench.decide_prices");
            mech.decide_prices(env, false)
        };
        let decided = round_start.elapsed();
        let outcome = {
            let _s = span("bench.step");
            env.step(&prices)
        };
        tally
            .decide_us
            .entry(id)
            .or_default()
            .push(decided.as_secs_f64() * 1e6);
        tally.selected += outcome.selection.len();
        tally.participants += outcome.num_participants();
        tally.check(round_violation(
            &prices,
            &outcome,
            spent + outcome.payment_total,
            budget,
        ));
        if outcome.status == StepStatus::BudgetExhausted {
            break;
        }
        spent += outcome.payment_total;
        records.push(RoundRecord {
            round: outcome.round,
            accuracy: outcome.accuracy,
            round_time: outcome.round_time,
            time_efficiency: outcome.time_efficiency,
            payment: outcome.payment_total,
            spent,
            participants: outcome.num_participants(),
        });
        {
            let _s = span("bench.observe");
            mech.observe(&outcome, &prices);
        }
        tally.round_ms.push(ms(round_start.elapsed()));
        tally.rounds += 1;
        reference += tally.sample_reference();
        if outcome.done() {
            break;
        }
    }
    tally
        .episode_ms
        .push(ms(episode_start.elapsed()) - reference);
    (
        EpisodeSummary::from_rounds(&records, initial_accuracy, mech.lambda()),
        records,
    )
}

/// Times one run of the reference kernel, ms: a fixed 32×64 by 64×64 f32
/// product in plain bounds-checked loops, independent of every crate the
/// benchmark measures, so a change to the program cannot change its time,
/// only the host can. The kernel runs once untimed first, so the timed run
/// finds its operands in cache whatever ran before it. The end-to-end
/// timings are calibrated by it (see `crate::REFERENCE_MS`).
#[must_use]
pub fn reference_ms() -> f64 {
    const M: usize = 32;
    const K: usize = 64;
    const N: usize = 64;
    thread_local! {
        static OPERANDS: std::cell::RefCell<(Vec<f32>, Vec<f32>, Vec<f32>)> =
            std::cell::RefCell::new((
                (0..M * K).map(|i| (i % 7) as f32 * 0.1).collect(),
                (0..K * N).map(|i| (i % 5) as f32 * 0.1).collect(),
                vec![0f32; M * N],
            ));
    }
    OPERANDS.with_borrow_mut(|(a, b, c)| {
        let mut run = || {
            let (a, b) = (std::hint::black_box(&*a), std::hint::black_box(&*b));
            for i in 0..M {
                for k in 0..K {
                    let x = a[i * K + k];
                    for j in 0..N {
                        c[i * N + j] += x * b[k * N + j];
                    }
                }
            }
            std::hint::black_box(&mut *c);
        };
        run();
        let start = Instant::now();
        run();
        ms(start.elapsed())
    })
}

/// Feeds an episode's summary and records to `digest`.
pub fn digest_episode(digest: &mut Digest, summary: &EpisodeSummary, records: &[RoundRecord]) {
    digest.u64(summary.rounds as u64);
    for x in [
        summary.final_accuracy,
        summary.total_time,
        summary.mean_time_efficiency,
        summary.spent,
        summary.server_utility,
    ] {
        digest.f64(x);
    }
    for r in records {
        digest.u64(r.round as u64);
        digest.u64(r.participants as u64);
        for x in [
            r.accuracy,
            r.round_time,
            r.time_efficiency,
            r.payment,
            r.spent,
        ] {
            digest.f64(x);
        }
    }
}

/// An [`AccuracyOracle`] that delegates every call to `inner` and opens the
/// `bench.execute_round` span around each round, so the traced run can
/// time the oracle from outside it. It adds no state and changes no bit.
pub struct TimedOracle<O> {
    inner: O,
}

impl<O> TimedOracle<O> {
    /// Wraps `inner`.
    pub fn new(inner: O) -> Self {
        Self { inner }
    }
}

impl<O: AccuracyOracle> AccuracyOracle for TimedOracle<O> {
    fn reset(&mut self) {
        self.inner.reset();
    }

    fn execute_round(&mut self, ctx: &RoundContext<'_>) -> f64 {
        let _s = span("bench.execute_round");
        self.inner.execute_round(ctx)
    }

    fn accuracy(&self) -> f64 {
        self.inner.accuracy()
    }

    fn capture_state(&self) -> OracleState {
        self.inner.capture_state()
    }

    fn restore_state(&mut self, state: &OracleState) -> Result<(), OracleStateError> {
        self.inner.restore_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron_fedsim::NodeResponse;

    #[test]
    fn reference_runs_only_when_calibrating_and_at_most_every_interval() {
        let mut off = Tally::new(false);
        assert_eq!(off.sample_reference(), 0.0);
        assert!(off.reference_ms.is_empty());
        let mut on = Tally::new(true);
        assert!(on.sample_reference() > 0.0);
        assert_eq!(on.sample_reference(), 0.0, "too soon after the last run");
        std::thread::sleep(REFERENCE_EVERY);
        assert!(on.sample_reference() > 0.0);
        assert_eq!(on.reference_ms.len(), 2);
        let mut sum = Tally::default();
        sum.absorb(on);
        assert_eq!(sum.reference_ms.len(), 2);
    }

    fn outcome(payment: f64, accuracy: f64) -> RoundOutcome {
        let response = NodeResponse {
            frequency: 2.0,
            compute_time: 1.0,
            upload_time: 1.0,
            total_time: 2.0,
            energy: 0.1,
            payment,
            utility: payment - 0.1,
        };
        RoundOutcome {
            status: StepStatus::Ok,
            round: 1,
            selection: vec![0, 1],
            responses: vec![Some(response), None],
            accuracy,
            prev_accuracy: 0.1,
            round_time: 2.0,
            idle_time: 0.0,
            time_efficiency: 1.0,
            payment_total: payment,
            remaining_budget: 10.0 - payment,
            events: Vec::new(),
        }
    }

    #[test]
    fn gate_accepts_a_sound_round_and_names_each_violation() {
        assert_eq!(
            round_violation(&[3.0, 1.0], &outcome(6.0, 0.5), 6.0, 10.0),
            None
        );
        let cases = [
            (vec![3.0, f64::NAN], outcome(6.0, 0.5), 6.0, "not finite"),
            (vec![3.0, -1.0], outcome(6.0, 0.5), 6.0, "not finite"),
            (vec![2.0, 1.0], outcome(6.0, 0.5), 6.0, "above its posted"),
            (vec![3.0, 1.0], outcome(6.0, 0.5), 11.0, "of budget"),
            (vec![3.0, 1.0], outcome(6.0, 1.5), 6.0, "outside [0, 1]"),
        ];
        for (prices, out, spent, expected) in cases {
            let v = round_violation(&prices, &out, spent, 10.0).expect("a violation");
            assert!(v.contains(expected), "{v}");
        }
    }
}
