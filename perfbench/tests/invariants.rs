//! The benchmark's own guarantees: its episode loop, oracle wrapper and timing
//! change no bit of what the program computes, its passes repeat exactly,
//! and its metric table matches `BENCHMARK.json`.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use chiron::{Chiron, ChironConfig, EpisodeRun, Mechanism, MechanismParams};
use chiron_baselines::{build_by_id, LemmaOracle};
use chiron_data::DatasetKind;
use chiron_fedsim::metrics::{EpisodeSummary, RoundRecord};
use chiron_fedsim::oracle::OracleState;
use chiron_fedsim::{EdgeLearningEnv, EnvConfig, Participation};
use chiron_perfbench::stats::Digest;
use chiron_perfbench::surface::{digest_episode, drive_episode, Tally, TimedOracle};
use chiron_perfbench::workloads::{
    real_config, real_oracle, Workload, FLEET_IDS, PAPER_BUDGET, PAPER_ROUNDS,
};
use chiron_perfbench::{END_TO_END, PER_LAYER};
use serde::Deserialize;

fn digest_of(summary: &EpisodeSummary, records: &[RoundRecord]) -> u64 {
    let mut d = Digest::default();
    digest_episode(&mut d, summary, records);
    d.value()
}

fn paper_env(seed: u64) -> EdgeLearningEnv {
    let mut config = EnvConfig::paper_small(DatasetKind::MnistLike, PAPER_BUDGET);
    config.max_rounds = PAPER_ROUNDS;
    EdgeLearningEnv::new(config, seed)
}

/// Drives `mech` through the benchmark's decision-surface loop and through
/// `run_episode` on the same environment, and asserts equal bits.
fn assert_loop_matches_run_episode(
    id: &'static str,
    mech: &mut dyn Mechanism,
    env: &mut EdgeLearningEnv,
) {
    let mut tally = Tally::default();
    let (s1, r1) = drive_episode(id, mech, env, &mut tally);
    let (s2, r2) = mech.run_episode(env);
    assert_eq!(
        digest_of(&s1, &r1),
        digest_of(&s2, &r2),
        "{id}: decision-surface loop vs run_episode"
    );
    assert!(!r1.is_empty(), "{id}: the episode recorded rounds");
    assert_eq!(tally.failed, 0, "{id}: {:?}", tally.violations);
}

#[test]
fn decision_surface_loop_gives_the_bits_of_run_episode() {
    let mut env = paper_env(3);
    let mut chiron = Chiron::new(&env, ChironConfig::paper(), 3);
    chiron.train(&mut env, 3);
    assert_loop_matches_run_episode("chiron", &mut chiron, &mut env);

    let mut config = EnvConfig::paper_large(DatasetKind::MnistLike, 300.0);
    config.participation = Participation::Sampled { per_round: 16 };
    config.max_rounds = 12;
    let mut env = EdgeLearningEnv::try_new(config, 5).expect("valid sampled config");
    for id in FLEET_IDS {
        let mut mech = build_by_id(id, &env, &MechanismParams::new(5)).expect("registered");
        assert_loop_matches_run_episode(id, mech.as_mut(), &mut env);
    }

    let mut env = EdgeLearningEnv::with_oracle(real_config(), Box::new(real_oracle(2)), 2);
    assert_loop_matches_run_episode("lemma-oracle", &mut LemmaOracle::new(0.5), &mut env);
}

#[test]
fn one_episode_train_calls_give_the_bits_of_one_long_call() {
    let episodes = 6;
    let mut env_a = paper_env(9);
    let mut a = Chiron::new(&env_a, ChironConfig::paper(), 9);
    let rewards_a: Vec<f64> = (0..episodes).flat_map(|_| a.train(&mut env_a, 1)).collect();
    let mut env_b = paper_env(9);
    let mut b = Chiron::new(&env_b, ChironConfig::paper(), 9);
    let rewards_b = b.train(&mut env_b, episodes);
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&rewards_a), bits(&rewards_b));
    assert_eq!(a.snapshot().to_json(), b.snapshot().to_json());
    let (sa, ra) = a.run_episode(&mut env_a);
    let (sb, rb) = b.run_episode(&mut env_b);
    assert_eq!(digest_of(&sa, &ra), digest_of(&sb, &rb));
}

#[test]
fn timed_oracle_wrapper_is_bitwise_invisible() {
    let run = |wrapped: bool| {
        let oracle = real_oracle(4);
        let mut env = if wrapped {
            EdgeLearningEnv::with_oracle(real_config(), Box::new(TimedOracle::new(oracle)), 4)
        } else {
            EdgeLearningEnv::with_oracle(real_config(), Box::new(oracle), 4)
        };
        let (summary, records) = LemmaOracle::new(0.5).run_episode(&mut env);
        let Ok(OracleState::Training { global_params, .. }) = env.capture_state().map(|s| s.oracle)
        else {
            panic!("the training oracle captures its parameters");
        };
        let mut d = Digest::default();
        digest_episode(&mut d, &summary, &records);
        d.f32s(&global_params);
        d.value()
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn same_seed_gives_the_same_digest_twice() {
    for wl in Workload::ALL {
        let a = wl.setup(7).pass(false);
        let b = wl.setup(7).pass(false);
        assert_eq!(a.digest, b.digest, "{}", wl.name());
        assert_eq!(a.tally.failed, 0, "{}: {:?}", wl.name(), a.tally.violations);
        assert!(a.tally.attempted > 0 && a.tally.rounds > 0, "{}", wl.name());
        assert_ne!(
            a.digest,
            wl.setup(8).pass(false).digest,
            "{}: the seed reaches the inputs",
            wl.name()
        );
    }
}

#[derive(Deserialize)]
struct Declared {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<DeclaredWorkload>,
    end_to_end: Vec<EndToEnd>,
    per_layer: Vec<PerLayer>,
}

#[derive(Deserialize)]
struct DeclaredWorkload {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct EndToEnd {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Deserialize)]
struct PerLayer {
    name: String,
    unit: String,
    better: String,
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn every_metric_is_well_named_and_declared_in_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let declared: Declared = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    assert!(!declared.command.is_empty() && declared.paths.contains(&"perfbench".to_string()));
    assert!((1..=60).contains(&declared.run_seconds));

    let names: Vec<&str> = declared.workloads.iter().map(|w| w.name.as_str()).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    assert!(declared
        .workloads
        .iter()
        .all(|w| !w.why.is_empty() && w.why.len() <= 200));

    let e2e: Vec<(&str, &str)> = declared
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(e2e, END_TO_END);
    for m in &declared.end_to_end {
        assert!(
            ["higher", "lower"].contains(&m.better.as_str()),
            "{}",
            m.name
        );
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    let setup = declared
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert!(setup.better == "lower" && declared.end_to_end.iter().all(|m| m.bound <= setup.bound));

    let layers: Vec<(&str, &str)> = declared
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(layers, PER_LAYER);
    assert!(declared
        .per_layer
        .iter()
        .all(|m| ["higher", "lower"].contains(&m.better.as_str())));

    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(is_name(name), "bad metric name {name}");
        assert!(is_unit(unit), "bad unit {unit} of {name}");
        assert!(seen.insert(*name), "{name} declared twice");
    }
}
