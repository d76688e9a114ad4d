//! Instrumented stand-ins the traced run puts in front of two layer
//! interfaces. Both forward every call the program would make, and
//! override every method the wrapped type overrides, so the traced run
//! executes the same program as the untraced one (see the tests).

use std::cell::Cell;
use std::time::Instant;

use mira_core::{
    CoolantMonitorSample, Duration, RackId, Recorder, SimTime, SweepBlock, SweepStep,
    TelemetryProvider,
};

use crate::trace;

/// A [`Recorder`] timing the summary fold and the shard merge.
///
/// `record_block` and `merge` are overridden: the trait's default
/// `record_block` would materialize every instant and fold it through
/// `record`, a different (and slower) program.
#[derive(Debug)]
pub struct TimedRecorder<R> {
    pub inner: R,
    /// Per-instant `record` calls; 0 when the batched path is taken.
    pub record_calls: u64,
}

impl<R> TimedRecorder<R> {
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            record_calls: 0,
        }
    }
}

impl<R: Recorder> Recorder for TimedRecorder<R> {
    type Output = (R::Output, u64);

    fn record(&mut self, step: &SweepStep) {
        self.record_calls += 1;
        self.inner.record(step);
    }

    fn record_block(&mut self, block: &SweepBlock, staging: &mut SweepStep) {
        trace::span("core.summary.record_block", || {
            self.inner.record_block(block, staging);
        });
    }

    fn merge(&mut self, later: Self) {
        self.record_calls += later.record_calls;
        let inner = later.inner;
        trace::span("core.sweep.merge", || self.inner.merge(inner));
    }

    fn finish(self) -> Self::Output {
        (self.inner.finish(), self.record_calls)
    }
}

/// A [`TelemetryProvider`] counting and timing the random-access
/// sample path in front of the telemetry engine.
///
/// `floor_median` and `interval` forward to the engine's overrides: the
/// trait's default `floor_median` re-samples all 48 racks per call and
/// skips the engine's median cache.
#[derive(Debug)]
pub struct CountingProvider<'a, P> {
    inner: &'a P,
    pub sample_calls: Cell<u64>,
    pub sample_ns: Cell<u64>,
    pub floor_median_calls: Cell<u64>,
}

impl<'a, P> CountingProvider<'a, P> {
    pub fn new(inner: &'a P) -> Self {
        Self {
            inner,
            sample_calls: Cell::new(0),
            sample_ns: Cell::new(0),
            floor_median_calls: Cell::new(0),
        }
    }
}

impl<P: TelemetryProvider> TelemetryProvider for CountingProvider<'_, P> {
    fn sample(&self, rack: RackId, t: SimTime) -> CoolantMonitorSample {
        let started = Instant::now();
        let s = self.inner.sample(rack, t);
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.sample_calls.set(self.sample_calls.get() + 1);
        self.sample_ns.set(self.sample_ns.get() + ns);
        s
    }

    fn interval(&self) -> Duration {
        self.inner.interval()
    }

    fn floor_median(&self, t: SimTime) -> [f64; 6] {
        self.floor_median_calls
            .set(self.floor_median_calls.get() + 1);
        self.inner.floor_median(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_core::{
        CmfPredictor, DatasetBuilder, Date, FeatureConfig, PredictorConfig, SimConfig, Simulation,
        SweepSummary,
    };
    use mira_predictor::pipeline::pooled_dataset;
    use mira_predictor::FeatureMode;

    fn sim() -> Simulation {
        Simulation::new(SimConfig::with_seed(11))
    }

    #[test]
    fn timed_recorder_takes_the_batched_path_and_keeps_the_summary() {
        let sim = sim();
        let span = (
            SimTime::from_date(Date::new(2015, 1, 20)),
            SimTime::from_date(Date::new(2015, 4, 5)),
        );
        let step = Duration::from_hours(2);
        let plan = sim.sweep_plan(span).step(step).threads(1);
        let plain = plan.summary().expect("non-empty span");
        let (timed, record_calls) = plan
            .run(|| TimedRecorder::new(SweepSummary::empty(span, step)))
            .expect("non-empty span");
        assert_eq!(record_calls, 0, "default record_block would call record");
        assert_eq!(timed, plain);
        let two = sim.sweep_plan(span).step(step).threads(2);
        let (timed2, _) = two
            .run(|| TimedRecorder::new(SweepSummary::empty(span, step)))
            .expect("non-empty span");
        assert_eq!(timed2, plain, "merge must forward");
    }

    #[test]
    fn counting_provider_gives_identical_datasets_and_metrics() {
        let sim = sim();
        let mut cmfs = sim.cmf_ground_truth();
        cmfs.truncate(24);
        let builder = DatasetBuilder::new(FeatureConfig::mira(), cmfs, sim.config().span());
        let config = PredictorConfig {
            epochs: 3,
            ..PredictorConfig::default()
        };
        let engine = sim.telemetry();
        let counting = CountingProvider::new(engine);
        let plain = pooled_dataset(engine, &builder, &config.train_leads);
        let counted = pooled_dataset(&counting, &builder, &config.train_leads);
        assert_eq!(plain.features(), counted.features());
        assert_eq!(plain.labels(), counted.labels());
        assert!(counting.sample_calls.get() > 0);
        assert_eq!(counting.interval(), engine.interval());

        // Differential features divide by the floor median on every
        // window: the path the wrapper must forward to the engine.
        let differential = DatasetBuilder::new(
            FeatureConfig {
                mode: FeatureMode::DifferentialDeltas,
                ..FeatureConfig::mira()
            },
            builder.cmfs().to_vec(),
            sim.config().span(),
        );
        let lead = Duration::from_hours(1);
        let before = counting.sample_calls.get();
        let _ = builder.build(&counting, lead);
        let deltas_calls = counting.sample_calls.get() - before;
        let before = counting.sample_calls.get();
        let counted_diff = differential.build(&counting, lead);
        assert_eq!(
            differential.build(engine, lead).features(),
            counted_diff.features()
        );
        assert!(counting.floor_median_calls.get() > 0);
        assert_eq!(
            counting.sample_calls.get() - before,
            deltas_calls,
            "floor medians must not re-sample the floor"
        );

        let (p1, t1) = CmfPredictor::train(engine, &builder, &config);
        let (p2, t2) = CmfPredictor::train_on(&counted, &config);
        assert_eq!(t1, t2);
        let lead = Duration::from_hours(3);
        assert_eq!(
            p1.evaluate_at(engine, &builder, lead),
            p2.evaluate_at(&counting, &builder, lead)
        );
    }

    #[test]
    fn counting_provider_uses_the_engine_floor_median() {
        // The trait default re-samples 48 racks per call: if the wrapper
        // fell back to it, one floor_median would cost 48 sample calls.
        let sim = sim();
        let counting = CountingProvider::new(sim.telemetry());
        let t = SimTime::from_date(Date::new(2016, 3, 1));
        assert_eq!(counting.floor_median(t), sim.telemetry().floor_median(t));
        assert_eq!(counting.sample_calls.get(), 0);
        assert_eq!(counting.floor_median_calls.get(), 1);
    }
}
