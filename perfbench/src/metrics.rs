//! Metric names, units and the printed result.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run of every workload.
/// An *operation* is one full report (report workloads) or one request
/// (`serve_mixed`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_per_s", "1/s"),
    ("op_cpu_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run of every workload (0 for
/// a layer the workload does not exercise).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.prepare_s", "s"),
    ("bench.section.other_s", "s"),
    ("bench.section.fig05_s", "s"),
    ("bench.section.fig06_s", "s"),
    ("bench.section.fig07_s", "s"),
    ("bench.section.fig08_s", "s"),
    ("bench.section.fig09_s", "s"),
    ("bench.section.fig10_s", "s"),
    ("bench.section.fig11_s", "s"),
    ("bench.section.obfuscation_s", "s"),
    ("uarch.batch.calls", "count"),
    ("uarch.batch.insts", "count"),
    ("uarch.batch.lanes", "count"),
    ("uarch.batch.busy_s", "s"),
    ("uarch.batch.minst_per_s", "Minst/s"),
    ("uarch.pipeline.calls", "count"),
    ("uarch.pipeline.insts", "count"),
    ("uarch.pipeline.busy_s", "s"),
    ("uarch.pipeline.minst_per_s", "Minst/s"),
    ("uarch.cache.insts", "count"),
    ("uarch.cache.busy_s", "s"),
    ("uarch.branch.insts", "count"),
    ("uarch.branch.busy_s", "s"),
    ("uarch.exec.calls", "count"),
    ("uarch.exec.insts", "count"),
    ("uarch.exec.busy_s", "s"),
    ("uarch.exec.minst_per_s", "Minst/s"),
    ("similarity.calls", "count"),
    ("similarity.bytes", "bytes"),
    ("similarity.busy_s", "s"),
    ("runtime.disk.hits", "count"),
    ("runtime.disk.writes", "count"),
    ("runtime.disk.bytes_read", "bytes"),
    ("runtime.disk.bytes_written", "bytes"),
    ("runtime.disk.busy_s", "s"),
    ("runtime.store.requests", "count"),
    ("runtime.store.builds", "count"),
    ("runtime.store.hit_ratio", "ratio"),
    ("runtime.store.busy_s", "s"),
    ("compiler.calls", "count"),
    ("compiler.busy_s", "s"),
    ("uarch.image.calls", "count"),
    ("uarch.image.busy_s", "s"),
    ("profile.calls", "count"),
    ("profile.insts", "count"),
    ("profile.busy_s", "s"),
    ("core.calls", "count"),
    ("core.busy_s", "s"),
    ("ir.cemit.calls", "count"),
    ("ir.cemit.busy_s", "s"),
    ("server.proto.encode_s", "s"),
    ("server.proto.decode_s", "s"),
    ("server.proto.bytes", "bytes"),
    ("server.batches", "count"),
    ("server.max_queue_depth", "count"),
    ("server.shed", "count"),
    ("serve.requests", "count"),
    ("serve.req_p99_ms", "ms"),
    ("serve.measure_p50_ms", "ms"),
    ("serve.profile_p50_ms", "ms"),
    ("serve.synthesize_p50_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
];

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations that failed or produced a wrong output.
    pub failed: u64,
    /// Metric values by name (units come from the tables above).
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable diagnostics, printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one checked operation; `Err` carries why it failed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            // One line per distinct failure is enough to diagnose a run.
            if self.notes.len() < 20 {
                self.notes.push(format!("FAILED: {why}"));
            }
        }
    }

    /// Share of checked operations that failed.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// `name value unit` lines for `table`, then the closing JSON line.
    pub fn render(&self, table: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        let mut json = Vec::new();
        for &(name, unit) in table {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = writeln!(out, "{name} {value} {unit}");
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let _ = writeln!(out, "failed_share {} ratio", self.failed_share());
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
        out
    }

    /// Fills every [`PER_LAYER`] name the trace can answer: `<layer>.calls`
    /// and `<layer>.busy_s` from the spans, `bench.*_s` as the wall time
    /// of those spans, `server.proto.*_s` as their self time, throughputs
    /// from `<layer>.insts` over busy time, and everything else from the
    /// tracer's counters.  Names set already are left alone.
    pub fn fill_layers(&mut self, tracer: &Tracer) {
        let times = tracer.layer_times();
        let spans = tracer.spans();
        let wall_of = |name: &str| -> f64 {
            spans
                .iter()
                .filter(|s| s.name == name)
                .fold(0.0, |total, s| total + (s.end - s.start))
        };
        let busy = |layer: &str| times.get(layer).map_or(0.0, |t| t.busy_s);
        for &(name, _) in PER_LAYER {
            if self.values.contains_key(name) {
                continue;
            }
            let value = if let Some(layer) = name.strip_suffix(".calls") {
                times.get(layer).map_or(0.0, |t| t.calls as f64)
            } else if let Some(layer) = name.strip_suffix(".busy_s") {
                busy(layer)
            } else if let Some(layer) = name.strip_suffix(".minst_per_s") {
                let b = busy(layer);
                let insts = tracer.counter(&format!("{layer}.insts"));
                if b > 0.0 {
                    insts / b / 1e6
                } else {
                    0.0
                }
            } else if let Some(span) = name.strip_prefix("bench.").and(name.strip_suffix("_s")) {
                wall_of(span)
            } else if let Some(span) = name
                .strip_prefix("server.proto.")
                .and(name.strip_suffix("_s"))
            {
                busy(span)
            } else {
                tracer.counter(name)
            };
            self.values.insert(name, value);
        }
        let requests = tracer.counter("runtime.store.requests");
        let builds = tracer.counter("runtime.store.builds");
        if requests > 0.0 {
            self.values
                .insert("runtime.store.hit_ratio", 1.0 - builds / requests);
        }
    }
}

/// Span names that are layers (for `trace.coverage`): everything but the
/// benchmark's own grouping spans.
pub fn is_layer(name: &str) -> bool {
    !name.starts_with("bench.") && name != "serve.request"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in_benchmark_json(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let end = text[start..].find(']').expect("section closes") + start;
        text[start..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let names = |t: &[(&str, &str)]| t.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names_in_benchmark_json("end_to_end"), names(END_TO_END));
        assert_eq!(names_in_benchmark_json("per_layer"), names(PER_LAYER));
    }

    #[test]
    fn render_ends_with_one_json_line_and_counts_failures() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        o.check(Err("wrong bytes".into()));
        o.values.insert("setup_s", 1.5);
        let text = o.render(END_TO_END);
        let last = text.lines().last().expect("output");
        assert!(last.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert!(last.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(text.contains("failed_share 0.5 ratio"));
        assert!(text.contains("# FAILED: wrong bytes"));
    }
}
