//! `reproduce`: the `mira-ops report` pipeline as a closed loop.
//!
//! Each pass sweeps the full six-year span at one-hour steps on one
//! thread (52,584 grid instants through the batched kernel and the
//! summary fold), derives every figure with `analysis::full_report`,
//! and renders the headline lines. Serve, store, the predictor and the
//! scalar random-access sample path are not touched.

use std::fmt::Write as _;
use std::time::{Duration as StdDuration, Instant};

use mira_core::sweep::SWEEP_BLOCK;
use mira_core::{analysis, Duration, FigureReport, FullSpan, SimConfig, Simulation, SweepSummary};

use crate::alloc::allocations;
use crate::common::{closed_loop, hydro_hit_ratio, ms, world, References, DEFAULT_SEED};
use crate::fingerprint::Fnv;
use crate::outcome::Outcome;
use crate::stats::Samples;
use crate::trace;
use crate::wrappers::TimedRecorder;

const STEP: Duration = Duration::from_hours(1);

/// FNV-1a digests of the summary, the figure report and the headline
/// text for [`DEFAULT_SEED`].
pub const GOLDEN: [u64; 3] = [0xa10c9b2338c50fe3, 0x4a6d3c779638d25e, 0x8ae3006fda367aef];

/// One pass's outputs.
pub struct Pass {
    pub summary: SweepSummary,
    pub report: FigureReport,
    pub text: String,
}

impl Pass {
    pub fn digests(&self) -> [u64; 3] {
        [
            Fnv::of(&format!("{:?}", self.summary)),
            Fnv::of(&format!("{:?}", self.report)),
            Fnv::of(&self.text),
        ]
    }
}

/// The headline lines `mira-ops report` prints.
pub fn render(r: &FigureReport) -> String {
    let mean = |rows: &[mira_timeseries::YearProfile], i: usize| {
        rows.get(i).map_or(f64::NAN, |row| row.mean)
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "[Fig 2] power {:.2} -> {:.2} MW | utilization {:.1} -> {:.1} %",
        mean(&r.fig2.power_by_year, 0),
        mean(&r.fig2.power_by_year, 5),
        mean(&r.fig2.utilization_by_year, 0),
        mean(&r.fig2.utilization_by_year, 5)
    );
    let _ = writeln!(
        out,
        "[Fig 3] flow {:.0} -> {:.0} GPM | sigmas {:.1} GPM / {:.2} F / {:.2} F",
        r.fig3.flow_before_theta,
        r.fig3.flow_after_theta,
        r.fig3.flow_stddev,
        r.fig3.inlet_stddev,
        r.fig3.outlet_stddev
    );
    let _ = writeln!(
        out,
        "[Fig 6] leaders {} / {} | spread {:.1}% | corr {:.2}",
        r.fig6.power_leader,
        r.fig6.utilization_leader,
        r.fig6.power_spread * 100.0,
        r.fig6.power_utilization_correlation
    );
    let _ = writeln!(
        out,
        "[Fig 10] {} CMFs | 2016 share {:.0}% | gap {:.0} d",
        r.fig10.total,
        r.fig10.share_2016 * 100.0,
        r.fig10.longest_gap_days
    );
    out
}

/// One untraced pass, as the CLI runs it.
pub fn pass(sim: &Simulation) -> Result<Pass, mira_core::Error> {
    let summary = sim.sweep_plan(FullSpan).step(STEP).threads(1).summary()?;
    let report = analysis::full_report(sim, &summary);
    let text = render(&report);
    Ok(Pass {
        summary,
        report,
        text,
    })
}

/// Per-pass counts of the traced run.
#[derive(Default)]
struct Layers {
    sweep_allocs: Samples,
    op_allocs: Samples,
    hydro_hit_ratio: Samples,
}

/// One traced pass: the same calls, with spans around each layer and
/// the summary fold behind [`TimedRecorder`].
fn traced_pass(sim: &Simulation, op: u64, layers: &mut Layers) -> Result<Pass, String> {
    trace::set_op(op);
    let hydro_before = sim.telemetry().hydro_cache_stats();
    let allocs_before = allocations();
    trace::span("reproduce.pass", || {
        let (from, to) = sim.config().span();
        let sweep_allocs = allocations();
        let (summary, record_calls) = trace::span("core.sweep.run", || {
            sim.sweep_plan(FullSpan)
                .step(STEP)
                .threads(1)
                .run(|| TimedRecorder::new(SweepSummary::empty((from, to), STEP)))
        })
        .map_err(|e| e.to_string())?;
        layers
            .sweep_allocs
            .push((allocations() - sweep_allocs) as f64);
        if record_calls != 0 {
            return Err(format!(
                "fold took the per-instant path {record_calls} times"
            ));
        }
        let report = trace::span("core.analysis.full_report", || {
            analysis::full_report(sim, &summary)
        });
        let text = trace::span("report.render", || render(&report));
        layers
            .op_allocs
            .push((allocations() - allocs_before) as f64);
        layers
            .hydro_hit_ratio
            .push(hydro_hit_ratio(sim.telemetry(), hydro_before));
        Ok(Pass {
            summary,
            report,
            text,
        })
    })
}

/// Checks a pass over [`DEFAULT_SEED`] against `golden`.
fn check_golden(pass: &Pass, golden: [u64; 3]) -> Option<String> {
    let d = pass.digests();
    (d != golden)
        .then(|| format!("world {DEFAULT_SEED}: digests {d:x?} differ from golden {golden:x?}"))
}

/// Checks a pass over `world` against the world's first pass.
fn check(pass: &Pass, world: u64, refs: &mut References<[u64; 3]>) -> Option<String> {
    refs.check(world, pass.digests())
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    run_against(GOLDEN, seed, seconds, traced)
}

/// [`run`], with the golden digests of [`DEFAULT_SEED`] as an argument.
fn run_against(golden: [u64; 3], seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    // An untimed first pass, over the default world whatever the seed,
    // warms the allocator and page tables and is checked against the
    // golden digests.
    let sim = Simulation::new(SimConfig::with_seed(DEFAULT_SEED));
    let n = instants(&sim);
    match pass(&sim) {
        Ok(first) => out.op(check_golden(&first, golden)),
        Err(e) => {
            out.op(Some(format!("first pass failed: {e}")));
            return out;
        }
    }
    // One simulation alive at a time, as in a `mira-ops report` process.
    drop(sim);
    let mut refs = References::default();
    let budget = StdDuration::from_secs(seconds);
    let untraced_budget = if traced { budget / 2 } else { budget };
    let mut failures = Vec::new();
    // Set-up is the `Simulation::new` each pass makes, timed on its own:
    // the operation is the sweep, the figures and the rendering.
    let mut new_ms = Samples::default();
    let untraced = closed_loop(untraced_budget, |i| {
        let w = world(seed, i);
        let started = Instant::now();
        let sim = Simulation::new(SimConfig::with_seed(w));
        new_ms.push(ms(started.elapsed()));
        let started = Instant::now();
        let result = pass(&sim);
        let elapsed = started.elapsed();
        failures.push(match result {
            Ok(p) => check(&p, w, &mut refs),
            Err(e) => Some(e.to_string()),
        });
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
    // Work of one pass over its median time: a median, like the
    // latency, so the host's fast phases move it no more than they move
    // the median pass.
    out.set("throughput_per_s", n / (lat.median() / 1e3));

    if traced {
        trace::start(Instant::now());
        let mut layers = Layers::default();
        let mut t1 = None;
        let traced_lat = closed_loop(budget / 2, |op| {
            let w = world(seed, op);
            let sim = Simulation::new(SimConfig::with_seed(w));
            let started = Instant::now();
            let result = traced_pass(&sim, op, &mut layers);
            let elapsed = started.elapsed();
            failures.push(match result {
                Ok(p) => {
                    let failure = check(&p, w, &mut refs);
                    t1.get_or_insert((w, p.summary));
                    failure
                }
                Err(e) => Some(e),
            });
            elapsed
        });
        let spans = trace::finish();
        for f in failures.drain(..) {
            out.op(f);
        }
        let per_op = |name: &str| trace::per_op_median_ns(&spans, name);
        out.set(
            "core.summary.fold_ns_per_instant",
            per_op("core.summary.record_block") / n,
        );
        out.set("core.sweep.merge_ms", per_op("core.sweep.merge") / 1e6);
        out.set(
            "core.analysis.full_report_ms",
            per_op("core.analysis.full_report") / 1e6,
        );
        out.set("report.render_us", per_op("report.render") / 1e3);
        out.set(
            "core.sweep.allocs_per_instant",
            layers.sweep_allocs.median() / n,
        );
        out.set("alloc.allocs_per_op", layers.op_allocs.median());
        out.set(
            "cooling.hydro_memo_hit_ratio",
            layers.hydro_hit_ratio.median(),
        );
        out.set(
            "trace.overhead_ratio",
            traced_lat.latency.median() / lat.median() - 1.0,
        );
        out.set(
            "core.telemetry.kernel_ns_per_instant",
            kernel_ns_per_instant(&Simulation::new(SimConfig::with_seed(world(seed, 0)))),
        );

        // Thread-count invariance: the two-worker sweep must reproduce
        // the one-worker summary bit for bit.
        out.op(match t1 {
            Some((w, t1)) => {
                let sim = Simulation::new(SimConfig::with_seed(w));
                match sim.sweep_plan(FullSpan).step(STEP).threads(2).summary() {
                    Ok(t2) if t2 == t1 => None,
                    Ok(_) => Some(format!("world {w}: t2 summary differs from t1")),
                    Err(e) => Some(e.to_string()),
                }
            }
            None => Some("no traced pass completed".to_owned()),
        });
        out.spans = spans;
    }
    out
}

/// Grid instants one pass sweeps.
fn instants(sim: &Simulation) -> f64 {
    let (from, to) = sim.config().span();
    ((to - from).as_seconds() / STEP.as_seconds()) as f64
}

/// The batched kernel alone: the full grid through
/// `sweep_steps_into` with no recorder, median of three passes.
fn kernel_ns_per_instant(sim: &Simulation) -> f64 {
    let engine = sim.telemetry();
    let (from, to) = sim.config().span();
    let n = usize::try_from((to - from).as_seconds() / STEP.as_seconds()).unwrap_or(0);
    let mut scratch = engine.sweep_scratch();
    let mut times = Samples::default();
    for _ in 0..3 {
        let started = Instant::now();
        trace::span("core.telemetry.sweep_steps_into", || {
            let mut k = 0;
            while k < n {
                let len = (n - k).min(SWEEP_BLOCK);
                let t = from + STEP * i64::try_from(k).unwrap_or(i64::MAX);
                engine.sweep_steps_into(t, STEP, len, &mut scratch);
                std::hint::black_box(scratch.block());
                k += len;
            }
        });
        times.push(ms(started.elapsed()) * 1e6);
    }
    times.median() / n.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::WORLDS;
    use crate::outcome::result_line;

    #[test]
    fn default_seed_matches_the_golden_digests() {
        let sim = Simulation::new(SimConfig::with_seed(DEFAULT_SEED));
        let p = pass(&sim).expect("full span");
        assert_eq!(p.digests(), GOLDEN);
        assert_eq!(check_golden(&p, GOLDEN), None);
    }

    #[test]
    fn a_corrupted_output_counts_as_a_failure() {
        let sim = Simulation::new(SimConfig::with_seed(DEFAULT_SEED));
        let mut p = pass(&sim).expect("full span");
        let mut refs = References::default();
        assert_eq!(check(&p, 99, &mut refs), None, "first pass over world 99");
        p.text.push(' ');
        let mut out = Outcome::default();
        out.op(check(&p, 99, &mut refs));
        assert_eq!(out.failed, 1);
        assert!(check_golden(&p, GOLDEN).is_some(), "golden");
    }

    #[test]
    fn every_run_checks_the_golden_digests() {
        let seed = 7;
        assert!((0..WORLDS).all(|k| world(seed, k) != DEFAULT_SEED));
        let mut wrong = GOLDEN;
        wrong[2] ^= 1;
        let out = run_against(wrong, seed, 0, false);
        assert_eq!(out.failed, 1, "{:?}", out.failures);
        assert!(result_line(&out, false).starts_with("{\"correct\":false,"));
        let out = run_against(GOLDEN, seed, 0, false);
        assert_eq!(out.failed, 0, "{:?}", out.failures);
    }
}
