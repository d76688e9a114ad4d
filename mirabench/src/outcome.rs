//! What a workload run hands back, and how it is printed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::Span;

/// End-to-end metrics every workload reports (untraced runs), with
/// units. Each workload fills all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, with units. A layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.simulation.new_ms", "ms"),
    ("core.telemetry.kernel_ns_per_instant", "ns"),
    ("core.summary.fold_ns_per_instant", "ns"),
    ("core.sweep.merge_ms", "ms"),
    ("core.sweep.allocs_per_instant", "count"),
    ("core.analysis.full_report_ms", "ms"),
    ("report.render_us", "us"),
    ("alloc.allocs_per_op", "count"),
    ("core.archive.sweep_records_rows_per_s", "1/s"),
    ("store.pack_rows_per_s", "1/s"),
    ("store.replay_decoded_per_returned", "1"),
    ("store.groups_scanned_ratio", "1"),
    ("serve.protocol.parse_us", "us"),
    ("serve.state.handle_us.status", "us"),
    ("serve.state.handle_us.metrics", "us"),
    ("serve.state.handle_us.report", "us"),
    ("serve.state.handle_us.figure", "us"),
    ("serve.state.handle_us.replay", "us"),
    ("serve.state.handle_us.ingest", "us"),
    ("serve.server.transport_ms", "ms"),
    ("serve.state.lock_wait_p90_ms", "ms"),
    ("core.incremental.ingest_ns_per_instant", "ns"),
    ("core.incremental.summary_us", "us"),
    ("predictor.dataset.build_ms", "ms"),
    ("predictor.sample_calls", "count"),
    ("predictor.floor_median_calls", "count"),
    ("core.telemetry.sample_us", "us"),
    ("cooling.hydro_memo_hit_ratio", "1"),
    ("nn.train_ms", "ms"),
    ("predictor.evaluate_ms", "ms"),
    ("loadgen.lag_p90_ms", "ms"),
    ("loadgen.late_ratio", "1"),
    ("trace.overhead_ratio", "1"),
];

/// Results of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (pipeline passes, requests, final checks).
    pub attempted: u64,
    /// Error replies, timeouts and failed output checks.
    pub failed: u64,
    /// Why each failure counted, for the log.
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Metrics that only apply to some workloads; printed in the table
    /// and the record, not part of the result line.
    pub extra: Vec<(&'static str, f64, &'static str)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts one attempted operation, failing it with `why` if given.
    pub fn op(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }

    pub fn error_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }

    /// The metrics the result line carries: end-to-end or per-layer.
    pub fn selected(&self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let names = if traced { PER_LAYER } else { END_TO_END };
        names
            .iter()
            .map(|&(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                (name, if v.is_finite() { v } else { 0.0 }, unit)
            })
            .collect()
    }

    /// Everything the table and the record show: the result line's
    /// metrics, the workload-specific ones and the error ratio.
    pub fn reported(&self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let mut all = self.selected(traced);
        all.extend(self.extra.iter().copied());
        all.push(("error_ratio", self.error_ratio(), "1"));
        all
    }
}

/// A JSON number with every digit of Rust's shortest round-trip form;
/// `null` when not finite (a percentile without enough samples).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// The result object: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in outcome.selected(traced).iter().enumerate() {
        if i > 0 {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            num(*value)
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_of_the_run_kind() {
        let mut o = Outcome::default();
        o.op(None);
        o.set("setup_s", 0.25);
        let line = result_line(&o, false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\":{{\"value\":")), "{name}");
        }
        assert!(line.contains("\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}"));
        let traced = result_line(&o, true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.op(None);
        o.op(Some("digest mismatch".to_owned()));
        assert_eq!(o.error_ratio(), 0.5);
        assert!(
            result_line(&o, false).starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1,")
        );
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
