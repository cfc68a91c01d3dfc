//! Every metric the benchmark reports, declared once: name, unit,
//! direction and — for end-to-end metrics — the regression bound.
//! `BENCHMARK.json` is generated from these tables (`--manifest`) and a
//! unit test fails if the committed file has drifted from them.

use crate::workload::SPECS;

pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The timing bounds sit at the contract's ceiling, not at the 10/15/10 %
/// the issue proposed. Ten consecutive runs of one workload spread by
/// 2–8 % here (interquartile distance over median; the README's
/// "Agreement" section has the runs), but single runs stray 15–20 % when
/// the shared host is busy for their whole length, the same code has run
/// 20 % slower an hour later, and the driver's box measured twice the
/// spread this one did. `peak_rss_mb` gets 15 %, three times its widest
/// spread, as the contract advises.
///
/// `fail_share` is deliberately not in this table: it is 0 on a correct
/// run, and a metric that is always 0 has no spread and no ratio. It is
/// reported as `failed` / `attempted` in every result line instead, and
/// any `failed > 0` makes the run `"correct": false`.
pub const END_TO_END: [EndToEndMetric; 5] = [
    EndToEndMetric {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEndMetric {
        name: "op_p99_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEndMetric {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEndMetric {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
];

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> LayerMetric {
    LayerMetric { name, unit, better }
}

/// Per-layer metrics of the traced run, layer = crate. Times are medians
/// over the peel ladder's spans unless the name says otherwise.
pub const PER_LAYER: [LayerMetric; 48] = [
    layer("data.selection_miss_ns", "ns", "lower"),
    layer("data.selection_hit_ns", "ns", "lower"),
    layer("data.predicate_eval_ns", "ns", "lower"),
    layer("data.histogram_ns", "ns", "lower"),
    layer("data.invariants_ns", "ns", "lower"),
    layer("data.cache_hit_ratio", "ratio", "higher"),
    layer("data.server_probe_hit_ratio", "ratio", "higher"),
    layer("data.rows_scanned_per_op", "count", "lower"),
    layer("data.census_gen_s", "s", "lower"),
    layer("data.cache_bytes", "bytes", "lower"),
    layer("stats.pvalue_ns", "ns", "lower"),
    layer("mht.decide_ns", "ns", "lower"),
    layer("mht.restore_ns_per_entry", "ns", "lower"),
    layer("core.add_viz_self_ns", "ns", "lower"),
    layer("core.snapshot_ns", "ns", "lower"),
    layer("core.restore_ns", "ns", "lower"),
    layer("core.gauge_render_ns", "ns", "lower"),
    layer("serve.wire_decode_ns", "ns/cmd", "lower"),
    layer("serve.wire_encode_ns", "ns/cmd", "lower"),
    layer("serve.json_decode_ns", "ns/cmd", "lower"),
    layer("serve.json_encode_ns", "ns/cmd", "lower"),
    layer("serve.request_bytes_per_cmd", "bytes", "lower"),
    layer("serve.reply_bytes_per_cmd", "bytes", "lower"),
    layer("serve.dispatch_self_ns", "ns", "lower"),
    layer("serve.batch_dispatch_ns_per_cmd", "ns/cmd", "lower"),
    layer("serve.front_self_ns", "ns", "lower"),
    layer("serve.image_encode_ns", "ns", "lower"),
    layer("serve.image_decode_ns", "ns", "lower"),
    layer("serve.image_bytes", "bytes", "lower"),
    layer("serve.store_save_ns", "ns", "lower"),
    layer("serve.store_load_ns", "ns", "lower"),
    layer("serve.stage_queue_wait_us", "us", "lower"),
    layer("serve.stage_execute_us", "us", "lower"),
    layer("serve.stage_snapshot_flush_us", "us", "lower"),
    layer("serve.stage_wire_encode_us", "us", "lower"),
    layer("serve.sessions_evicted", "count", "lower"),
    layer("serve.persisted", "count", "lower"),
    layer("reactor.decode_ns", "ns/msg", "lower"),
    layer("reactor.front_self_ns", "ns", "lower"),
    layer("cluster.ring_route_ns", "ns", "lower"),
    layer("cluster.hop_self_ns", "ns", "lower"),
    layer("cluster.forwarded", "count", "higher"),
    layer("cluster.shard_errors", "count", "lower"),
    layer("cluster.replication_lag_max_epochs", "count", "lower"),
    layer("obs.record_ns", "ns", "lower"),
    layer("obs.metrics_render_ns", "ns", "lower"),
    layer("trace.layer_sum_share", "ratio", "higher"),
    layer("trace.overhead_share", "ratio", "lower"),
];

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads: Vec<String> = SPECS
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(s.name),
                quoted(s.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result line the benchmark contract asks for: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Reported]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quoted(m.name),
                json_number(m.value),
                quoted(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// JSON has no NaN or infinity; a value that is not finite is a defect
/// upstream and is reported as `null` so the reader rejects the run.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = crate::procs::repo_root().join("BENCHMARK.json");
        let committed =
            std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- --manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn manifest_respects_the_contract_limits() {
        let mut names = HashSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(SPECS.iter().map(|s| (s.name, "x")));
        for (name, unit) in all {
            assert!(names.insert(name), "{name} is declared twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(
            SPECS
                .iter()
                .all(|s| s.why.len() <= 200 && !s.why.contains('\n')),
            "a why is too long"
        );
        assert!(manifest().len() < 64 * 1024);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            10,
            0,
            &[Reported {
                name: "op_p50_us",
                unit: "us",
                value: 1.25,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"op_p50_us\": {\"value\": 1.25, \"unit\": \"us\"}}}"
        );
        assert_eq!(json_number(f64::NAN), "null");
    }
}
