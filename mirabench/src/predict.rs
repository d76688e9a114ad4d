//! `predict`: the `mira-ops predict` pipeline as a closed loop.
//!
//! Each pass builds a fresh simulation, as the CLI does, so the
//! engine's floor-median cache starts cold; then builds the
//! dataset over 150 CMFs, trains the predictor for 30 epochs and
//! evaluates it at a 3 h lead. This is the scalar random-access
//! `TelemetryProvider::sample` path, the hydraulic memo and `mira-nn`;
//! the batched kernel, the summary fold, serve and store are not used.

use std::collections::BTreeMap;
use std::time::{Duration as StdDuration, Instant};

use mira_core::{
    CmfPredictor, DatasetBuilder, Duration, FeatureConfig, PredictorConfig, SimConfig, Simulation,
};
use mira_nn::BinaryMetrics;
use mira_predictor::pipeline::pooled_dataset;

use crate::alloc::allocations;
use crate::common::{closed_loop, hydro_hit_ratio, ms, world, References, DEFAULT_SEED};
use crate::outcome::Outcome;
use crate::stats::Samples;
use crate::trace;
use crate::wrappers::CountingProvider;

const EVENTS: usize = 150;
const EPOCHS: usize = 30;
const LEAD: Duration = Duration::from_hours(3);

/// `(test, at_lead)` confusion counts `(tp, tn, fp, fn)` for
/// [`DEFAULT_SEED`].
pub const GOLDEN: [[u64; 4]; 2] = [[178, 202, 17, 23], [150, 142, 8, 0]];

fn counts(m: &BinaryMetrics) -> [u64; 4] {
    [m.tp, m.tn, m.fp, m.fn_]
}

fn inputs(sim: &Simulation) -> (DatasetBuilder, PredictorConfig) {
    let mut cmfs = sim.cmf_ground_truth();
    cmfs.truncate(EVENTS);
    let builder = DatasetBuilder::new(FeatureConfig::mira(), cmfs, sim.config().span());
    let config = PredictorConfig {
        epochs: EPOCHS,
        ..PredictorConfig::default()
    };
    (builder, config)
}

/// One untraced pass, as the CLI runs it; also returns how long its
/// `Simulation::new` took.
pub fn pass(seed: u64) -> ([[u64; 4]; 2], StdDuration) {
    let started = Instant::now();
    let sim = Simulation::new(SimConfig::with_seed(seed));
    let new = started.elapsed();
    let (builder, config) = inputs(&sim);
    let (predictor, test) = CmfPredictor::train(sim.telemetry(), &builder, &config);
    let at_lead = predictor.evaluate_at(sim.telemetry(), &builder, LEAD);
    ([counts(&test), counts(&at_lead)], new)
}

/// Per-pass counts of the traced run.
#[derive(Default)]
struct Layers {
    sample_calls: Samples,
    floor_calls: Samples,
    sample_us: Samples,
    hydro_hit_ratio: Samples,
    op_allocs: Samples,
}

/// One traced pass: the calls `CmfPredictor::train` makes, one by one,
/// with spans around each layer and the engine behind
/// [`CountingProvider`].
fn traced_pass(seed: u64, op: u64, layers: &mut Layers) -> ([[u64; 4]; 2], usize) {
    trace::set_op(op);
    let allocs_before = allocations();
    trace::span("predict.pass", || {
        let sim = trace::span("core.simulation.new", || {
            Simulation::new(SimConfig::with_seed(seed))
        });
        let hydro_before = sim.telemetry().hydro_cache_stats();
        let (builder, config) = inputs(&sim);
        let provider = CountingProvider::new(sim.telemetry());
        let data = trace::span("predictor.dataset.build", || {
            pooled_dataset(&provider, &builder, &config.train_leads)
        });
        let (predictor, test) = trace::span("nn.train", || CmfPredictor::train_on(&data, &config));
        let at_lead = trace::span("predictor.evaluate", || {
            predictor.evaluate_at(&provider, &builder, LEAD)
        });
        let calls = provider.sample_calls.get();
        layers.sample_calls.push(calls as f64);
        layers
            .floor_calls
            .push(provider.floor_median_calls.get() as f64);
        layers
            .sample_us
            .push(provider.sample_ns.get() as f64 / 1e3 / calls.max(1) as f64);
        layers
            .hydro_hit_ratio
            .push(hydro_hit_ratio(sim.telemetry(), hydro_before));
        layers
            .op_allocs
            .push((allocations() - allocs_before) as f64);
        let windows = data.len()
            + usize::try_from(at_lead.tp + at_lead.tn + at_lead.fp + at_lead.fn_).unwrap_or(0);
        ([counts(&test), counts(&at_lead)], windows)
    })
}

/// Checks a pass over [`DEFAULT_SEED`] against `golden`.
fn check_golden(got: [[u64; 4]; 2], golden: [[u64; 4]; 2]) -> Option<String> {
    (got != golden)
        .then(|| format!("world {DEFAULT_SEED}: metrics {got:?} differ from golden {golden:?}"))
}

/// Checks a pass over `world` against the world's first pass.
fn check(got: [[u64; 4]; 2], world: u64, refs: &mut References<[[u64; 4]; 2]>) -> Option<String> {
    refs.check(world, got)
}

/// Labelled windows one pass over `world` builds: the pooled training
/// set plus the evaluation set. Computed once per world, untimed.
fn windows_per_pass(cache: &mut BTreeMap<u64, f64>, world: u64) -> f64 {
    *cache.entry(world).or_insert_with(|| {
        let sim = Simulation::new(SimConfig::with_seed(world));
        let (builder, config) = inputs(&sim);
        let train = pooled_dataset(sim.telemetry(), &builder, &config.train_leads).len();
        let eval = builder.build(sim.telemetry(), LEAD).len();
        (train + eval) as f64
    })
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    run_against(GOLDEN, seed, seconds, traced)
}

/// [`run`], with the golden metrics of [`DEFAULT_SEED`] as an argument.
fn run_against(golden: [[u64; 4]; 2], seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    // An untimed first pass, over the default world whatever the seed,
    // is checked against the golden metrics.
    out.op(check_golden(pass(DEFAULT_SEED).0, golden));

    let mut refs = References::default();
    let mut windows = BTreeMap::new();
    let budget = StdDuration::from_secs(seconds);
    let untraced_budget = if traced { budget / 2 } else { budget };
    let mut failures = Vec::new();
    let mut rates = Samples::default();
    // Set-up is the `Simulation::new` inside each pass, timed on its own.
    let mut new_ms = Samples::default();
    let untraced = closed_loop(untraced_budget, |i| {
        let w = world(seed, i);
        let started = Instant::now();
        let (got, new) = pass(w);
        let elapsed = started.elapsed();
        new_ms.push(ms(new));
        failures.push(check(got, w, &mut refs));
        rates.push(windows_per_pass(&mut windows, w) / elapsed.as_secs_f64());
        elapsed
    });
    for f in failures.drain(..) {
        out.op(f);
    }
    let lat = untraced.latency;
    out.set("setup_s", new_ms.median() / 1e3);
    out.set("core.simulation.new_ms", new_ms.median());
    out.set("peak_rss_mb", untraced.peak_rss_mb);
    out.set("latency_p50_ms", lat.median());
    // The median pass's rate, a median like the latency: the host's
    // fast phases move it no more than they move the median pass.
    out.set("throughput_per_s", rates.median());

    if traced {
        trace::start(Instant::now());
        let mut layers = Layers::default();
        let traced_lat = closed_loop(budget / 2, |op| {
            let w = world(seed, op);
            let started = Instant::now();
            let (got, traced_windows) = traced_pass(w, op, &mut layers);
            let elapsed = started.elapsed();
            let want = windows_per_pass(&mut windows, w);
            failures.push(check(got, w, &mut refs).or_else(|| {
                ((traced_windows as f64 - want).abs() > 0.5)
                    .then(|| format!("traced pass built {traced_windows} windows, not {want}"))
            }));
            elapsed
        });
        let spans = trace::finish();
        for f in failures.drain(..) {
            out.op(f);
        }
        let per_op_ms = |name: &str| trace::per_op_median_ns(&spans, name) / 1e6;
        out.set(
            "predictor.dataset.build_ms",
            per_op_ms("predictor.dataset.build"),
        );
        out.set("nn.train_ms", per_op_ms("nn.train"));
        out.set("predictor.evaluate_ms", per_op_ms("predictor.evaluate"));
        out.set("predictor.sample_calls", layers.sample_calls.median());
        out.set("predictor.floor_median_calls", layers.floor_calls.median());
        out.set("core.telemetry.sample_us", layers.sample_us.median());
        out.set(
            "cooling.hydro_memo_hit_ratio",
            layers.hydro_hit_ratio.median(),
        );
        out.set("alloc.allocs_per_op", layers.op_allocs.median());
        out.set(
            "trace.overhead_ratio",
            traced_lat.latency.median() / lat.median() - 1.0,
        );
        out.spans = spans;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::WORLDS;
    use crate::outcome::result_line;

    #[test]
    fn default_seed_matches_the_golden_metrics() {
        let (got, _) = pass(DEFAULT_SEED);
        assert_eq!(got, GOLDEN);
        assert_eq!(check_golden(got, GOLDEN), None);
        let mut corrupted = got;
        corrupted[1][0] += 1;
        assert!(check_golden(corrupted, GOLDEN).is_some(), "golden");
        let mut refs = References::default();
        assert_eq!(check(got, 99, &mut refs), None, "first pass over world 99");
        assert!(
            check(corrupted, 99, &mut refs).is_some(),
            "differs from the first pass"
        );
    }

    #[test]
    fn every_run_checks_the_golden_metrics() {
        let seed = 7;
        assert!((0..WORLDS).all(|k| world(seed, k) != DEFAULT_SEED));
        let mut wrong = GOLDEN;
        wrong[0][1] += 1;
        let out = run_against(wrong, seed, 0, false);
        assert_eq!(out.failed, 1, "{:?}", out.failures);
        assert!(result_line(&out, false).starts_with("{\"correct\":false,"));
    }
}
