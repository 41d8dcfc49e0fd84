//! End-to-end benchmark of the Chiron reproduction.
//!
//! Three workloads run in-process through the crates' public APIs (see
//! [`workloads`]). An untraced run reports the end-to-end metrics; a traced
//! run installs the [`rollup::Rollup`] telemetry sink and reports the
//! per-layer metrics. Every op is checked by the correctness gate in
//! [`surface`]. `README.md` beside this crate documents every metric.

pub mod rollup;
pub mod stats;
pub mod surface;
pub mod workloads;

use chiron_telemetry as telemetry;
use rollup::Rollup;
use stats::{beyond, median, percentile};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use surface::Tally;
use workloads::{Pass, Workload, World, FLEET_IDS};

/// End-to-end metrics and their units, as declared in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("episodes_per_s", "1/s"),
    ("episode_p50_ms", "ms"),
    ("episode_tail_ms", "ms"),
    ("rounds_per_s", "1/s"),
    ("round_p50_ms", "ms"),
    ("round_tail_ms", "ms"),
    ("final_accuracy", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, as declared in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("chiron.pricing.self_ms", "ms"),
    ("chiron.round.self_ms", "ms"),
    ("drl.ppo_update.count", "count"),
    ("drl.ppo_update.self_ms", "ms"),
    ("drl.ppo_update.share", "ratio"),
    ("drl.ppo_update.gflops", "GF/s"),
    ("drl.ppo.rollbacks", "count"),
    ("tensor.kernel.calls", "count"),
    ("tensor.kernel.flops", "flop"),
    ("tensor.kernel.pack.hit_ratio", "ratio"),
    ("tensor.kernel.autotune.tunes", "count"),
    ("tensor.pool.regions", "count"),
    ("tensor.pool.inline_regions", "count"),
    ("tensor.scope.tasks", "count"),
    ("tensor.scratch.miss_ratio", "ratio"),
    ("nn.optimizer.steps", "count"),
    ("nn.batch.rows_mean", "rows"),
    ("fedsim.env_step.self_ms", "ms"),
    ("fedsim.node_response.ms", "ms"),
    ("fedsim.oracle.round_ms", "ms"),
    ("fedsim.oracle.local_sgd_ms", "ms"),
    ("fedsim.oracle.eval_ms", "ms"),
    ("fedsim.oracle.eval_cache_hits", "count"),
    ("fedsim.oracle.new_ms", "ms"),
    ("fedsim.env.new_ms", "ms"),
    ("fedsim.accept_ratio", "ratio"),
    ("baselines.decide_prices.static.p50_us", "us"),
    ("baselines.decide_prices.lemma-oracle.p50_us", "us"),
    ("baselines.decide_prices.dp-planner.p50_us", "us"),
    ("baselines.decide_prices.fmore.p50_us", "us"),
    ("baselines.decide_prices.stackelberg.p50_us", "us"),
    ("baselines.decide_prices.share", "ratio"),
    ("baselines.build.static_ms", "ms"),
    ("baselines.build.lemma-oracle_ms", "ms"),
    ("baselines.build.dp-planner_ms", "ms"),
    ("baselines.build.fmore_ms", "ms"),
    ("baselines.build.stackelberg_ms", "ms"),
    ("telemetry.overhead_frac", "ratio"),
    ("telemetry.span_coverage", "ratio"),
];

/// About the reference kernel's time on an uncontended core of the
/// recording host, ms. An untraced run times [`surface::reference_ms`]
/// after each set-up and, at most every [`surface::REFERENCE_EVERY`],
/// between episodes and rounds. It scales the set-up time by this over
/// the mean reference time of the whole run, and every other end-to-end
/// timing by this over that of the passes: the figures read as times on
/// that core, whatever share of it the shared host gave the run.
pub const REFERENCE_MS: f64 = 0.1;

/// Reference kernel runs after each set-up.
const REFERENCE_RUNS_PER_SETUP: usize = 8;

/// Passes the traced run records; a fixed count keeps its counts exact.
pub const TRACED_PASSES: usize = 2;

/// The least share of the traced run's wall time the benchmark's spans
/// around public calls must cover.
pub const MIN_SPAN_COVERAGE: f64 = 0.9;

/// One invocation of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is made from.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced (per-layer) rather than untraced (end-to-end) run.
    pub trace: bool,
}

/// A finished run: human-readable notes, the gate, and the metrics.
#[derive(Debug)]
pub struct Report {
    /// Lines printed before the result.
    pub notes: Vec<String>,
    /// Checked operations.
    pub attempted: u64,
    /// Operations that broke an invariant.
    pub failed: u64,
    /// Metrics by name, in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Whether every op held and every metric is a finite number.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The one-line JSON result.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `cfg` to completion.
#[must_use]
pub fn run(cfg: &RunConfig) -> Report {
    // One core is left to the rest of the host. On a shared 2-vCPU host a
    // full-width pool stalls at every join while a neighbour holds the
    // other vCPU: tails then spread 23-33% across runs of the same code,
    // against under 10% with the spare core.
    let threads =
        std::thread::available_parallelism().map_or(1, |n| n.get().saturating_sub(1).max(1));
    chiron_tensor::pool::set_threads(threads);
    let mut notes = vec![format!(
        "workload {} seed {} seconds {} trace {} threads {threads}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    )];
    let (mut tally, values) = if cfg.trace {
        traced(cfg, &mut notes)
    } else {
        untraced(cfg, &mut notes)
    };
    let table = if cfg.trace { PER_LAYER } else { END_TO_END };
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let value = values.get(name).copied().unwrap_or(f64::NAN);
            notes.push(format!("{name} = {value} {unit}"));
            (name, value, unit)
        })
        .collect::<Vec<_>>();
    for (name, value, _) in &metrics {
        tally.check((!value.is_finite()).then(|| format!("metric {name} is {value}")));
    }
    for v in &tally.violations {
        notes.push(format!("violation: {v}"));
    }
    Report {
        notes,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

/// Repeats passes until `deadline`, at least once.
fn passes_until(world: &mut World, deadline: Instant, calibrate: bool) -> Vec<Pass> {
    let mut passes = vec![world.pass(calibrate)];
    while Instant::now() < deadline {
        passes.push(world.pass(calibrate));
    }
    passes
}

/// What one pass timed.
#[derive(Debug, Clone)]
struct PassTimes {
    episode_ms: Vec<f64>,
    round_ms: Vec<f64>,
    wall_s: f64,
}

/// The least number of samples a percentile is taken over; see
/// [`block_mean`].
pub const MIN_BLOCK: usize = 100;

/// The samples `of` each pass, in consecutive blocks of whole passes that
/// hold at least [`MIN_BLOCK`] samples each; the last block takes any
/// remainder, and a run with fewer samples is one block.
fn blocks(times: &[PassTimes], of: impl Fn(&PassTimes) -> &[f64]) -> Vec<Vec<f64>> {
    let mut blocks: Vec<Vec<f64>> = vec![Vec::new()];
    for t in times {
        let last = blocks.last_mut().expect("at least one block");
        if last.len() >= MIN_BLOCK {
            blocks.push(of(t).to_vec());
        } else {
            last.extend_from_slice(of(t));
        }
    }
    if blocks.len() > 1 && blocks.last().is_some_and(|b| b.len() < MIN_BLOCK) {
        let rest = blocks.pop().expect("more than one block");
        blocks.last_mut().expect("more than one block").extend(rest);
    }
    blocks
}

/// Percentile `p` within each block, averaged over the blocks.
///
/// The host switches between a fast and a slow state every few seconds. A
/// percentile over a whole run jumps from one state to the other as their
/// mix crosses it; the mean over short blocks moves smoothly with the mix.
fn block_mean(blocks: &[Vec<f64>], p: f64) -> f64 {
    blocks.iter().map(|b| percentile(b, p)).sum::<f64>() / blocks.len() as f64
}

/// Folds the passes' tallies, and checks that every pass digests like the
/// first: a pass is a fixed amount of deterministic work. Returns the
/// folded tally, the first pass, and what each pass timed.
fn fold(passes: Vec<Pass>, notes: &mut Vec<String>) -> (Tally, Pass, Vec<PassTimes>) {
    let mut total = Tally::default();
    let mut times = Vec::new();
    let mut first: Option<Pass> = None;
    let mut walls = Vec::new();
    for mut pass in passes {
        let tally = std::mem::take(&mut pass.tally);
        walls.push(format!("{:.1}", pass.wall_ms));
        times.push(PassTimes {
            episode_ms: tally.episode_ms.clone(),
            round_ms: tally.round_ms.clone(),
            wall_s: pass.wall_ms / 1e3,
        });
        total.absorb(tally);
        match &first {
            None => {
                notes.push(format!("digest {:016x}", pass.digest));
                first = Some(pass);
            }
            Some(f) => total.check((pass.digest != f.digest).then(|| {
                format!(
                    "pass digest {:016x} differs from the first pass {:016x}",
                    pass.digest, f.digest
                )
            })),
        }
    }
    notes.push(format!("pass wall ms: {}", walls.join(" ")));
    (total, first.expect("at least one pass"), times)
}

fn untraced(cfg: &RunConfig, notes: &mut Vec<String>) -> (Tally, BTreeMap<String, f64>) {
    let wl = cfg.workload;
    let mut setup_s = Vec::with_capacity(wl.setups());
    let mut reference = Vec::new();
    let mut world = None;
    for _ in 0..wl.setups() {
        drop(world.take());
        let start = Instant::now();
        world = Some(wl.setup(cfg.seed));
        setup_s.push(start.elapsed().as_secs_f64());
        reference.extend((0..REFERENCE_RUNS_PER_SETUP).map(|_| surface::reference_ms()));
    }
    let mut world = world.expect("at least one set-up");
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let passes = passes_until(&mut world, deadline, true);
    let n_passes = passes.len();
    let (ep_pct, round_pct) = (workloads::EPISODE_TAIL_PCT, wl.round_tail_pct());
    let (tally, first, times) = fold(passes, notes);
    notes.push(format!("{n_passes} passes after {} set-ups", setup_s.len()));
    let episode_blocks = blocks(&times, |t| &t.episode_ms);
    let round_blocks = blocks(&times, |t| &t.round_ms);
    for (what, bs, pct) in [
        ("episode", &episode_blocks, ep_pct),
        ("round", &round_blocks, round_pct),
    ] {
        let smallest = bs.iter().map(Vec::len).min().unwrap_or(0);
        notes.push(format!(
            "{what}_tail_ms is p{pct} in each of {} blocks of at least {smallest} {what}s, \
{} beyond it",
            bs.len(),
            beyond(smallest, pct),
        ));
    }
    // Deterministic per seed, but its spread across seeds on
    // paper_pipeline (the pacing each seed learns) is beyond any bound the
    // benchmark can gate, so it is reported and not gated.
    notes.push(format!(
        "server_utility = {} utility (reported, not gated)",
        first.server_utility
    ));
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    // A few dozen runs after the set-ups are too few to calibrate by on
    // their own; the set-ups take their scale from the whole run.
    reference.extend_from_slice(&tally.reference_ms);
    let (setup_scale, scale) = (
        REFERENCE_MS / mean(&reference),
        REFERENCE_MS / mean(&tally.reference_ms),
    );
    for (what, xs, timings, factor) in [
        ("whole run", &reference, "set-up time", setup_scale),
        ("passes", &tally.reference_ms, "other timings", scale),
    ] {
        notes.push(format!(
            "reference kernel over the {what}: {} runs, mean {:.5} ms, p10 {:.5} ms, \
p90 {:.5} ms; {timings} scaled by {factor:.5}",
            xs.len(),
            mean(xs),
            percentile(xs, 10.0),
            percentile(xs, 90.0),
        ));
    }
    // (name, as measured, calibration factor)
    let timings = [
        ("setup_s", median(&setup_s), setup_scale),
        (
            "episodes_per_s",
            tally.episode_ms.len() as f64 / (tally.episode_ms.iter().sum::<f64>() / 1e3),
            1.0 / scale,
        ),
        ("episode_p50_ms", block_mean(&episode_blocks, 50.0), scale),
        (
            "episode_tail_ms",
            block_mean(&episode_blocks, ep_pct),
            scale,
        ),
        (
            "rounds_per_s",
            tally.rounds as f64 / times.iter().map(|t| t.wall_s).sum::<f64>(),
            1.0 / scale,
        ),
        ("round_p50_ms", block_mean(&round_blocks, 50.0), scale),
        ("round_tail_ms", block_mean(&round_blocks, round_pct), scale),
    ];
    let mut values = BTreeMap::new();
    for (name, measured, factor) in timings {
        notes.push(format!("as measured, {name} = {measured}"));
        values.insert(name.to_string(), measured * factor);
    }
    values.insert("final_accuracy".to_string(), first.final_accuracy);
    values.insert("peak_rss_mb".to_string(), peak_rss_mb());
    (tally, values)
}

fn traced(cfg: &RunConfig, notes: &mut Vec<String>) -> (Tally, BTreeMap<String, f64>) {
    let wl = cfg.workload;
    let start = Instant::now();
    let rollup = Rollup::new();
    telemetry::reset_metrics();
    let sink = telemetry::add_sink(rollup.clone());
    telemetry::set_enabled(true);
    let mut world = wl.setup(cfg.seed);
    let traced: Vec<Pass> = (0..TRACED_PASSES).map(|_| world.pass(false)).collect();
    let window_ms = crate::surface::ms(start.elapsed());
    telemetry::flush();
    telemetry::set_enabled(false);
    telemetry::remove_sink(sink);
    telemetry::reset_metrics();
    let traced_last_ms = traced.last().map_or(0.0, |p| p.wall_ms);

    // Untraced passes of the same warm world for the tracing overhead.
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let untraced = passes_until(&mut world, deadline, false);
    let untraced_ms = median(&untraced.iter().map(|p| p.wall_ms).collect::<Vec<_>>());
    let (mut tally, first, _) = fold(traced, notes);
    let (rest, rest_first, _) = fold(untraced, notes);
    tally.check((rest_first.digest != first.digest).then(|| {
        format!(
            "untraced digest {:016x} differs from traced {:016x}",
            rest_first.digest, first.digest
        )
    }));
    tally.attempted += rest.attempted;
    tally.failed += rest.failed;
    tally.violations.extend(rest.violations);

    let coverage = rollup.root_bench_ns() as f64 / 1e6 / window_ms;
    tally.check((coverage < MIN_SPAN_COVERAGE).then(|| {
        format!("span coverage {coverage:.4} below {MIN_SPAN_COVERAGE} of the traced wall")
    }));
    notes.push(format!(
        "traced window {window_ms:.1} ms: one set-up and {TRACED_PASSES} passes; span coverage {coverage:.4}"
    ));
    for (name, s) in rollup.spans() {
        notes.push(format!(
            "span {name}: count {} wall {:.3} ms self {:.3} ms",
            s.count,
            s.wall_ms(),
            s.self_ms()
        ));
    }

    let mean = |total: f64, count: u64| {
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let span = |name: &str| rollup.span(name);
    let m = |name: &str| rollup.metric(name);
    let paper = wl == Workload::PaperPipeline;

    let (pricing, decide) = (span("pricing"), span("bench.decide_prices"));
    let (chiron_decide, baseline_decide) = if paper {
        (decide, rollup::SpanTotals::default())
    } else {
        (rollup::SpanTotals::default(), decide)
    };
    let ppo = span("ppo_update");
    let mut values: BTreeMap<String, f64> = [
        (
            "chiron.pricing.self_ms",
            mean(
                pricing.self_ms() + chiron_decide.self_ms(),
                pricing.count + chiron_decide.count,
            ),
        ),
        (
            "chiron.round.self_ms",
            mean(span("round").self_ms(), span("round").count),
        ),
        ("drl.ppo_update.count", ppo.count as f64),
        ("drl.ppo_update.self_ms", mean(ppo.self_ms(), ppo.count)),
        (
            "drl.ppo_update.share",
            ratio(ppo.wall_ms(), span("episode").wall_ms()),
        ),
        (
            "drl.ppo_update.gflops",
            ratio(m("tensor.kernel.flops"), ppo.wall_ns as f64),
        ),
        ("drl.ppo.rollbacks", m("drl.ppo.rollbacks")),
        ("tensor.kernel.calls", m("tensor.kernel.calls")),
        ("tensor.kernel.flops", m("tensor.kernel.flops")),
        (
            "tensor.kernel.pack.hit_ratio",
            ratio(
                m("tensor.kernel.pack.hits"),
                m("tensor.kernel.pack.hits") + m("tensor.kernel.pack.misses"),
            ),
        ),
        (
            "tensor.kernel.autotune.tunes",
            m("tensor.kernel.autotune.tunes"),
        ),
        ("tensor.pool.regions", m("tensor.pool.regions")),
        (
            "tensor.pool.inline_regions",
            m("tensor.pool.inline_regions"),
        ),
        ("tensor.scope.tasks", m("tensor.scope.tasks")),
        (
            "tensor.scratch.miss_ratio",
            ratio(m("tensor.scratch.misses"), m("tensor.scratch.takes")),
        ),
        ("nn.optimizer.steps", m("nn.optimizer.steps")),
        (
            "nn.batch.rows_mean",
            ratio(m("nn.batch.rows.sum"), m("nn.batch.rows.count")),
        ),
        (
            "fedsim.env_step.self_ms",
            mean(span("bench.step").self_ms(), span("bench.step").count),
        ),
        (
            "fedsim.node_response.ms",
            mean(
                span("local_training").wall_ms(),
                span("local_training").count,
            ),
        ),
        (
            "fedsim.oracle.round_ms",
            mean(
                span("bench.execute_round").wall_ms(),
                span("bench.execute_round").count,
            ),
        ),
        (
            "fedsim.oracle.local_sgd_ms",
            mean(
                span("oracle.local_training").wall_ms(),
                span("oracle.local_training").count,
            ),
        ),
        (
            "fedsim.oracle.eval_ms",
            mean(
                span("bench.execute_round").self_ms(),
                span("bench.execute_round").count,
            ),
        ),
        (
            "fedsim.oracle.eval_cache_hits",
            m("fedsim.oracle.eval_cache_hits"),
        ),
        (
            "fedsim.oracle.new_ms",
            mean(
                span("bench.oracle_new").wall_ms(),
                span("bench.oracle_new").count,
            ),
        ),
        (
            "fedsim.env.new_ms",
            mean(span("bench.env_new").wall_ms(), span("bench.env_new").count),
        ),
        (
            "fedsim.accept_ratio",
            ratio(tally.participants as f64, tally.selected as f64),
        ),
        (
            "baselines.decide_prices.share",
            ratio(baseline_decide.wall_ms(), window_ms),
        ),
        (
            "telemetry.overhead_frac",
            traced_last_ms / untraced_ms - 1.0,
        ),
        ("telemetry.span_coverage", coverage),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let builds = match &world {
        World::Fleet { build_ms, .. } => build_ms.clone(),
        _ => Vec::new(),
    };
    for id in FLEET_IDS {
        let p50 = if paper {
            0.0
        } else {
            tally.decide_us.get(id).map_or(0.0, |xs| median(xs))
        };
        values.insert(format!("baselines.decide_prices.{id}.p50_us"), p50);
        let build = builds
            .iter()
            .find(|(b, _)| *b == id)
            .map_or(0.0, |(_, t)| *t);
        values.insert(format!("baselines.build.{id}_ms"), build);
    }
    (tally, values)
}

/// Peak resident set size of this process in MiB, from `VmHWM`; 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(n: usize, ms: f64) -> PassTimes {
        PassTimes {
            episode_ms: vec![ms; n],
            round_ms: Vec::new(),
            wall_s: 1.0,
        }
    }

    #[test]
    fn blocks_hold_whole_passes_of_at_least_min_block() {
        let times = [pass(60, 1.0), pass(60, 2.0), pass(100, 3.0), pass(30, 4.0)];
        let bs = blocks(&times, |t| &t.episode_ms);
        assert_eq!(bs.iter().map(Vec::len).collect::<Vec<_>>(), [120, 130]);
        assert_eq!(block_mean(&bs, 50.0), (1.0 + 3.0) / 2.0);
    }

    #[test]
    fn a_short_run_is_one_block() {
        let times = [pass(1, 1.0), pass(1, 5.0), pass(1, 3.0)];
        let bs = blocks(&times, |t| &t.episode_ms);
        assert_eq!(bs.len(), 1);
        assert_eq!(block_mean(&bs, 50.0), 3.0);
        assert_eq!(block_mean(&blocks(&[], |t| &t.round_ms), 50.0), 0.0);
    }
}
