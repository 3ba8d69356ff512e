//! Smoke tests of the `spinstreams` command-line tool: every sub-command
//! runs against a temporary XML topology and produces the expected output.

use std::process::Command;

const TOPOLOGY: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<topology name="cli-test">
  <operator id="0" name="src" kind="source" type="stateless" service-time="100" time-unit="us"/>
  <operator id="1" name="stage-a" kind="identity-map" type="stateless" service-time="60" time-unit="us">
    <param name="work_ns" value="60000"/>
  </operator>
  <operator id="2" name="stage-b" kind="arithmetic-map" type="stateless" service-time="400" time-unit="us">
    <param name="work_ns" value="400000"/>
  </operator>
  <operator id="3" name="tail-a" kind="identity-map" type="stateless" service-time="30" time-unit="us">
    <param name="work_ns" value="30000"/>
  </operator>
  <operator id="4" name="tail-b" kind="projection" type="stateless" service-time="20" time-unit="us">
    <param name="keep" value="2"/>
    <param name="work_ns" value="20000"/>
  </operator>
  <edge from="0" to="1" probability="1.0"/>
  <edge from="1" to="2" probability="1.0"/>
  <edge from="2" to="3" probability="1.0"/>
  <edge from="3" to="4" probability="1.0"/>
</topology>
"#;

fn topology_file() -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("ss-cli-{}.xml", std::process::id()));
    std::fs::write(&path, TOPOLOGY).expect("write temp topology");
    path
}

fn run_cli(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_spinstreams-cli"))
        .args(args)
        .output()
        .expect("spawn spinstreams CLI");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn analyze_reports_bottleneck() {
    let path = topology_file();
    let (stdout, _, ok) = run_cli(&["analyze", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("predicted throughput: 2500.00 items/s"));
    assert!(stdout.contains("bottlenecks detected at: stage-b"));
    assert!(stdout.contains("fusion candidates"));
}

#[test]
fn optimize_prints_fission_plan() {
    let path = topology_file();
    let (stdout, _, ok) = run_cli(&["optimize", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("all bottlenecks removed"));
    assert!(stdout.contains("predicted throughput: 10000.00 items/s"));
}

#[test]
fn fuse_underutilized_tail_is_feasible() {
    let path = topology_file();
    let (stdout, _, ok) = run_cli(&["fuse", path.to_str().unwrap(), "--members", "3,4"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("fusion is feasible"));
    assert!(stdout.contains("F(tail-a+tail-b)"));
}

#[test]
fn fuse_rejects_invalid_subgraph() {
    let path = topology_file();
    // {1, 3} is not connected with a single front end.
    let (_, stderr, ok) = run_cli(&["fuse", path.to_str().unwrap(), "--members", "1,3"]);
    assert!(!ok);
    assert!(stderr.contains("cannot fuse"));
}

#[test]
fn autofuse_merges_the_tail() {
    let path = topology_file();
    let (stdout, _, ok) = run_cli(&["autofuse", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("5 -> 4 operators") || stdout.contains("5 -> 3 operators"));
}

#[test]
fn codegen_emits_compilable_looking_source() {
    let path = topology_file();
    let (stdout, _, ok) = run_cli(&["codegen", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("fn main()"));
    assert!(stdout.contains("build_actor_graph"));
}

#[test]
fn dot_renders_graphviz() {
    let path = topology_file();
    let (stdout, _, ok) = run_cli(&["dot", path.to_str().unwrap(), "--optimized"]);
    assert!(ok);
    assert!(stdout.starts_with("digraph topology {"));
    assert!(stdout.contains("×4 replicas"), "{stdout}");
}

#[test]
fn run_compares_model_and_measurement() {
    let path = topology_file();
    let (stdout, _, ok) = run_cli(&["run", path.to_str().unwrap(), "--items", "8000"]);
    assert!(ok);
    assert!(stdout.contains("predicted vs"));
    assert!(stdout.contains("measured items/s"));
}

#[test]
fn chaos_injects_faults_and_reports_supervision() {
    let path = topology_file();
    let (stdout, stderr, ok) = run_cli(&[
        "chaos",
        path.to_str().unwrap(),
        "--items",
        "3000",
        "--panic-prob",
        "0.05",
        "--seed",
        "11",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("panic probability 5.0%"), "{stdout}");
    assert!(stdout.contains("delivered fraction"), "{stdout}");
    // With 3000 items at 5% per worker, panics/restarts/dead letters are
    // all but certain; the report lists nonzero totals.
    assert!(!stdout.contains("totals: 0 panics"), "{stdout}");
    assert!(!stdout.contains("0 dead letters"), "{stdout}");
}

#[test]
fn chaos_rejects_bad_probability() {
    let path = topology_file();
    let (_, stderr, ok) = run_cli(&["chaos", path.to_str().unwrap(), "--panic-prob", "1.5"]);
    assert!(!ok);
    assert!(stderr.contains("--panic-prob"));
}

#[test]
fn analyze_rejects_unusable_service_times() {
    for bad in ["-5", "NaN", "inf", "0"] {
        let doc = TOPOLOGY.replace(
            r#"service-time="400" time-unit="us""#,
            &format!(r#"service-time="{bad}" time-unit="us""#),
        );
        let path = std::env::temp_dir().join(format!(
            "ss-cli-bad-time-{}-{}.xml",
            std::process::id(),
            bad
        ));
        std::fs::write(&path, doc).expect("write temp topology");
        let out = Command::new(env!("CARGO_BIN_EXE_spinstreams-cli"))
            .args(["analyze", path.to_str().unwrap()])
            .output()
            .expect("spawn spinstreams CLI");
        let stderr = String::from_utf8_lossy(&out.stderr);
        // A typed error (exit 1), not a panic (exit 101).
        assert_eq!(out.status.code(), Some(1), "service-time={bad}: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(stderr.contains("operator 2"), "{stderr}");
        assert!(stderr.contains(&format!("{bad:?}")), "{stderr}");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn analyze_rejects_unusable_integer_params() {
    for (param, bad) in [("work_ns", "-7"), ("keep", "2.5"), ("work_ns", "NaN")] {
        let doc = TOPOLOGY.replace(
            r#"<param name="keep" value="2"/>"#,
            &format!(r#"<param name="{param}" value="{bad}"/>"#),
        );
        let path = std::env::temp_dir().join(format!(
            "ss-cli-bad-param-{}-{param}-{bad}.xml",
            std::process::id()
        ));
        std::fs::write(&path, doc).expect("write temp topology");
        let out = Command::new(env!("CARGO_BIN_EXE_spinstreams-cli"))
            .args(["analyze", path.to_str().unwrap()])
            .output()
            .expect("spawn spinstreams CLI");
        let stderr = String::from_utf8_lossy(&out.stderr);
        // A typed error (exit 1), not a panic (exit 101).
        assert_eq!(out.status.code(), Some(1), "{param}={bad}: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(stderr.contains("operator 4"), "{stderr}");
        assert!(stderr.contains(&format!("{param}={bad:?}")), "{stderr}");
        let _ = std::fs::remove_file(&path);
    }
}

/// The schema's integer-valued `<param>`s are exactly the fields the
/// operator registry would truncate: a fractional value is rejected for
/// those and parses for every other parameter.
#[test]
fn xml_rejects_exactly_the_params_the_registry_truncates() {
    use spinstreams_operators::OperatorParams;
    for name in OperatorParams::default().to_spec_params().keys() {
        let m = std::collections::BTreeMap::from([(name.clone(), 2.5)]);
        let truncated = OperatorParams::from_spec_params(&m).to_spec_params()[name] != 2.5;
        let doc = format!(
            r#"<topology>
              <operator id="0" name="a" type="stateless" service-time="1">
                <param name="{name}" value="2.5"/>
              </operator>
            </topology>"#
        );
        let parsed = spinstreams_xml::topology_from_xml(&doc);
        assert_eq!(parsed.is_err(), truncated, "{name}: {parsed:?}");
    }
}

#[test]
fn bad_usage_and_bad_file_fail_cleanly() {
    let (_, stderr, ok) = run_cli(&["analyze"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
    let (_, stderr, ok) = run_cli(&["analyze", "/nonexistent.xml"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
    let (_, stderr, ok) = run_cli(&["frobnicate", "/nonexistent.xml"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read") || stderr.contains("usage:"));
}

#[test]
fn run_with_telemetry_exports_jsonl_with_drift() {
    let path = topology_file();
    let out = std::env::temp_dir().join(format!("ss-cli-telemetry-{}.jsonl", std::process::id()));
    let (stdout, stderr, ok) = run_cli(&[
        "run",
        path.to_str().unwrap(),
        "--items",
        "6000",
        "--telemetry",
        out.to_str().unwrap(),
        "--interval-ms",
        "50",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("telemetry:"), "{stdout}");
    assert!(stdout.contains("drift:"), "{stdout}");
    let jsonl = std::fs::read_to_string(&out).expect("telemetry file");
    let _ = std::fs::remove_file(&out);
    let snapshots: Vec<&str> = jsonl
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"snapshot\""))
        .collect();
    assert!(!snapshots.is_empty(), "no snapshot records:\n{jsonl}");
    for line in &snapshots {
        assert!(
            line.contains("\"drift\":["),
            "snapshot without drift: {line}"
        );
        assert!(line.contains("\"departure_rate\":"));
        assert!(line.contains("\"latency\":["));
    }
    assert!(
        jsonl.lines().any(|l| l.starts_with("{\"type\":\"trace\"")),
        "no trace records"
    );
}

#[test]
fn chaos_with_telemetry_exports_fault_traces() {
    let path = topology_file();
    let out = std::env::temp_dir().join(format!(
        "ss-cli-chaos-telemetry-{}.jsonl",
        std::process::id()
    ));
    let (stdout, stderr, ok) = run_cli(&[
        "chaos",
        path.to_str().unwrap(),
        "--items",
        "3000",
        "--panic-prob",
        "0.05",
        "--seed",
        "11",
        "--telemetry",
        out.to_str().unwrap(),
        "--interval-ms",
        "20",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("telemetry:"), "{stdout}");
    let jsonl = std::fs::read_to_string(&out).expect("telemetry file");
    let _ = std::fs::remove_file(&out);
    assert!(jsonl
        .lines()
        .any(|l| l.starts_with("{\"type\":\"snapshot\"")));
    assert!(
        jsonl.contains("\"event\":\"operator-panicked\""),
        "fault traces missing:\n{}",
        jsonl.lines().rev().take(5).collect::<Vec<_>>().join("\n")
    );
    assert!(jsonl.contains("\"event\":\"operator-restarted\""));
}

#[test]
fn monitor_streams_jsonl_snapshots() {
    let path = topology_file();
    let (stdout, stderr, ok) = run_cli(&[
        "monitor",
        path.to_str().unwrap(),
        "--items",
        "3000",
        "--interval-ms",
        "50",
        "--format",
        "jsonl",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(
        stdout
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"snapshot\""))
            .count()
            >= 1,
        "no live snapshots:\n{stdout}"
    );
    assert!(stdout.contains("run complete:"), "{stdout}");
}

#[test]
fn monitor_rejects_unknown_format() {
    let path = topology_file();
    let (_, stderr, ok) = run_cli(&["monitor", path.to_str().unwrap(), "--format", "xml"]);
    assert!(!ok);
    assert!(stderr.contains("--format"));
}
