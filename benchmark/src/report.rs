//! Metric names, units and the output lines.  `BENCHMARK.json` lists the same
//! names; a test keeps the two in step.

use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off, printed by every workload.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("lat_p50_ms", "ms"), ("lat_p90_ms", "ms"), ("peak_rss_mb", "MiB")];

pub const PRESETS: [&str; 3] = ["scalar", "2wide", "wide4"];
pub const PROGRAMS: [&str; 2] = ["quicksort", "matmul"];
pub const AGES: [&str; 3] = ["age1k", "age4k", "age16k"];
pub const PHASES: [&str; 4] = ["header_read", "queue_wait", "handler", "write_drain"];

/// Per-layer metrics of a traced run, in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("cc.compile_ms".into(), "ms"),
        ("core.build_ms".into(), "ms"),
        ("core.reset_us".into(), "us"),
        ("core.render_us".into(), "us"),
    ];
    out.extend(PRESETS.iter().map(|p| (format!("core.ns_per_cycle.{p}"), "ns")));
    out.extend(AGES.iter().map(|a| (format!("core.step_back_ms.{a}"), "ms")));
    for (metric, unit) in [
        ("core.ipc", "instr/cycle"),
        ("mem.hit_ratio", "ratio"),
        ("mem.accesses", "count"),
        ("predictor.accuracy", "ratio"),
    ] {
        for program in PROGRAMS {
            out.extend(PRESETS.iter().map(|p| (format!("{metric}.{program}.{p}"), unit)));
        }
    }
    out.push(("compress.us".into(), "us"));
    out.push(("compress.ratio".into(), "ratio"));
    out.push(("server.decode_us.step".into(), "us"));
    out.push(("server.decode_us.get_state".into(), "us"));
    for case in ["step", "get_state_fresh", "get_state_cached", "step_back"] {
        out.push((format!("server.handle_raw_us.{case}"), "us"));
    }
    for phase in PHASES {
        out.push((format!("net.phase.{phase}.p50_us"), "us"));
        out.push((format!("net.phase.{phase}.p99_us"), "us"));
    }
    out.extend([
        ("net.endpoint.us_per_op".into(), "us"),
        ("net.wire_us".into(), "us"),
        ("server.cpu_us_per_op".into(), "us"),
        ("client.cpu_us_per_op".into(), "us"),
        ("client.late_p99_ms".into(), "ms"),
        ("trace.lat_p50_ms".into(), "ms"),
        ("trace.capacity_ops_s".into(), "1/s"),
        ("trace.joined_requests".into(), "count"),
    ]);
    out
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// The human-readable line printed for each metric.
pub fn metric_line(metric: &Metric) -> String {
    format!("{:<44} {:>16} {}", metric.name, format!("{:.6}", metric.value), metric.unit)
}

/// The machine-readable result: one JSON object, the last line of stdout.
/// Values keep every digit (`{:?}` is Rust's shortest exact form).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ =
            write!(out, "{sep}\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}", m.name, m.value, m.unit);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_exact_values() {
        let metrics = [
            Metric { name: "lat_p50_ms".into(), unit: "ms", value: 1.203_456_789_012_3 },
            Metric { name: "capacity_ops_s".into(), unit: "1/s", value: 5_000.0 },
        ];
        let line = result_line(true, 1000, 0, &metrics);
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!((v["attempted"].as_u64(), v["failed"].as_u64()), (Some(1000), Some(0)));
        assert_eq!(v["metrics"]["lat_p50_ms"]["value"].as_f64(), Some(1.203_456_789_012_3));
        assert_eq!(v["metrics"]["capacity_ops_s"]["unit"].as_str(), Some("1/s"));
        assert_eq!(v["metrics"].as_object().map(|m| m.len()), Some(2));
        assert!(!line.contains('\n'));
        let text = metric_line(&metrics[0]);
        assert!(
            text.starts_with("lat_p50_ms ") && text.ends_with(" ms") && text.contains("1.203457")
        );
    }

    /// Names and units here and in `BENCHMARK.json` must agree.
    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            eprintln!("skipping: {path} not found");
            return;
        };
        let spec: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| (m["name"].as_str().unwrap().into(), m["unit"].as_str().unwrap().into()))
                .collect()
        };
        let ours = |list: Vec<(String, &str)>| -> Vec<(String, String)> {
            list.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            listed("end_to_end"),
            ours(END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect())
        );
        assert_eq!(listed("per_layer"), ours(per_layer()));
        let workloads: Vec<&str> = spec["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::workload::Workload::ALL.map(|w| w.name()));
    }
}
