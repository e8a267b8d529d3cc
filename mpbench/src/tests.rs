//! Self-tests of the benchmark: its metric set matches `BENCHMARK.json`,
//! seeds change inputs but not the metric set, and a corrupted fetch is
//! counted as a failure. Run with `cargo test --release` from this
//! package's directory (debug builds work, more slowly).

use mptcp::{MptcpConnection, ReadOutcome, WriteOutcome};
use mptcp_netsim::SimTime;
use mptcp_runtime::{AppFactory, ConnApp, Keystream};

use crate::report::{Outcome, END_TO_END, PER_LAYER};
use crate::sim::SimInputs;
use crate::wire;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// read with a scan sufficient for the file's flat layout.
fn benchmark_json_metrics(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| -> String {
        let k = format!("\"{key}\"");
        let at = obj.find(&k).unwrap_or_else(|| panic!("no {key} in {obj}")) + k.len();
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn names_units(defs: &[crate::report::MetricDef]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect()
}

#[test]
fn registry_matches_benchmark_json() {
    assert_eq!(
        benchmark_json_metrics("end_to_end"),
        names_units(END_TO_END)
    );
    assert_eq!(benchmark_json_metrics("per_layer"), names_units(PER_LAYER));
}

/// Every metric of the mode appears in the result line with its unit.
fn assert_prints_all(out: &Outcome, traced: bool) {
    let line = out.json(traced).expect("every metric measured");
    let defs = if traced { PER_LAYER } else { END_TO_END };
    for d in defs {
        let entry = format!("\"{}\": {{\"value\": ", d.name);
        let at = line
            .find(&entry)
            .unwrap_or_else(|| panic!("{} missing from {line}", d.name));
        let unit = format!("\"unit\": \"{}\"}}", d.unit);
        assert!(
            line[at..].starts_with(&entry) && line[at..].contains(&unit),
            "{} printed without unit {}",
            d.name,
            d.unit
        );
    }
    assert_eq!(line.matches("\"value\"").count(), defs.len());
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let plain = wire::rr(7, 0.3).expect("wire_rr runs");
    assert_prints_all(&plain, false);
    let dir = std::env::temp_dir().join(format!("mpbench-test-{}", std::process::id()));
    let traced = wire::rr_traced(7, 0.6, &dir.join("spans.jsonl")).expect("traced wire_rr runs");
    assert_prints_all(&traced, true);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_end_to_end_metric_is_an_error() {
    let mut out = Outcome::new();
    out.set("setup_s", 1.0);
    assert!(out.json(false).is_err());
    // Per-layer metrics a workload does not exercise read 0.
    assert!(out.json(true).is_ok());
}

#[test]
fn seed_changes_inputs_but_not_metric_set() {
    assert_ne!(SimInputs::bulk(1).links(), SimInputs::bulk(2).links());
    assert_ne!(SimInputs::http(1).links(), SimInputs::http(2).links());
    assert_eq!(SimInputs::bulk(3).links(), SimInputs::bulk(3).links());
    let a = wire::rr(1, 0.2).expect("wire_rr runs");
    let b = wire::rr(2, 0.2).expect("wire_rr runs");
    let keys = |o: &Outcome| o.metrics.keys().copied().collect::<Vec<_>>();
    assert_eq!(keys(&a), keys(&b));
    assert_eq!(wire::fetch_seeds(1, 4), wire::fetch_seeds(1, 4));
    assert_ne!(wire::fetch_seeds(1, 4), wire::fetch_seeds(2, 4));
}

#[test]
fn client_ports_are_fresh_until_the_allocator_is_remade() {
    let mut ports = wire::ClientPorts::new();
    let first = ports.take().expect("ports left");
    let second = ports.take().expect("ports left");
    assert_eq!(first.len(), second.len());
    assert!(first.iter().all(|p| !second.contains(p)));
    assert_eq!(wire::ClientPorts::new().take().expect("ports left"), first);
}

/// A fetch server that answers every request with the keystream of a
/// different seed: every byte the client checks is wrong.
struct LyingServer {
    request: Vec<u8>,
    body: Option<(u64, Keystream)>,
}

impl ConnApp for LyingServer {
    fn drive(&mut self, conn: &mut MptcpConnection, _now: SimTime) {
        if self.body.is_none() {
            while let ReadOutcome::Data(d) = conn.read(256) {
                self.request.extend_from_slice(&d);
            }
            let Some(nl) = self.request.iter().position(|&b| b == b'\n') else {
                return;
            };
            let line = String::from_utf8_lossy(&self.request[..nl]).into_owned();
            let mut parts = line.split_ascii_whitespace().skip(1);
            let size: u64 = parts.next().and_then(|s| s.parse().ok()).expect("size");
            let seed: u64 = parts.next().and_then(|s| s.parse().ok()).expect("seed");
            self.body = Some((size, Keystream::new(seed ^ 1)));
        }
        let Some((left, ks)) = self.body.as_mut() else {
            return;
        };
        while *left > 0 {
            let mut chunk = vec![0u8; (*left).min(1024) as usize];
            ks.fill(&mut chunk);
            // A partial write skips keystream bytes: still wrong data.
            match conn.write(&chunk) {
                WriteOutcome::Accepted(n) | WriteOutcome::FellBack(n) => {
                    *left -= n as u64;
                    if n < chunk.len() {
                        return;
                    }
                }
                WriteOutcome::WouldBlock | WriteOutcome::Closed => return,
            }
        }
        conn.close();
    }

    fn finished(&self) -> bool {
        matches!(self.body, Some((0, _)))
    }
}

fn lying_factory() -> AppFactory {
    Box::new(|| {
        Box::new(LyingServer {
            request: Vec::new(),
            body: None,
        })
    })
}

#[test]
fn corrupted_fetch_counts_as_failure() {
    let run = wire::rr_run(5, 0.3, false, lying_factory).expect("wire_rr runs");
    let out = wire::rr_outcome(&run);
    assert!(out.attempted > 0);
    assert_eq!(out.failed, out.attempted, "every corrupted fetch fails");
    assert!(
        !out.correct,
        "a verification failure marks the run incorrect"
    );
}

#[test]
fn traced_simulation_reproduces_the_untraced_one() {
    let dir = std::env::temp_dir().join(format!("mpbench-sim-{}", std::process::id()));
    let out = crate::sim::run_traced(crate::sim::SimWorkload::Http, 3, &dir.join("spans.jsonl"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.correct, "{:?}", out.problems);
    assert!(out.attempted > 0);
    assert_prints_all(&out, true);
}
