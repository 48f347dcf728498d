//! Tiny-size smoke runs of every workload, untraced and traced:
//! printed metric names and units must match `BENCHMARK.json`, the span
//! file must be well formed, and the per-layer self times of each
//! single-threaded traced cell must sum to within the cell span.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::Command;
use xbc_sim::json::Json;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let j = Json::parse(BENCHMARK).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = j.get(list) else { panic!("BENCHMARK.json lacks {list}") };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit").to_owned();
            (s("name"), s("unit"))
        })
        .collect()
}

/// Runs the benchmark at smoke scale in its own directory and returns
/// (the directory, the parsed last stdout line).
fn run(workload: &str, trace: u8) -> (PathBuf, Json) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace"])
        .arg(trace.to_string())
        .arg("--tiny")
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    (dir, Json::parse(last).expect("the last line is JSON"))
}

fn printed(result: &Json) -> BTreeMap<String, String> {
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    let Some(Json::Obj(metrics)) = result.get("metrics") else { panic!("no metrics object") };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some_and(f64::is_finite),
                "{name} has no value"
            );
            (name.clone(), m.get("unit").and_then(Json::as_str).unwrap().to_owned())
        })
        .collect()
}

struct Span {
    parent: Option<u64>,
    request: u64,
    start: u64,
    end: u64,
}

fn check_spans(dir: &Path, workload: &str) {
    let text =
        std::fs::read_to_string(dir.join(format!(".perfbench_out/spans-{workload}-seed1.jsonl")))
            .expect("span file written");
    let spans: HashMap<u64, Span> = text
        .lines()
        .map(|l| {
            let j = Json::parse(l).expect("span line parses");
            let n = |k: &str| j.get(k).and_then(Json::as_u64).unwrap();
            let parent = j.get("parent").and_then(Json::as_u64);
            (
                n("id"),
                Span { parent, request: n("request"), start: n("start_ns"), end: n("end_ns") },
            )
        })
        .collect();
    assert!(!spans.is_empty(), "traced run recorded no spans");
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.values() {
        assert!(s.end >= s.start);
        if let Some(p) = s.parent {
            let parent = spans.get(&p).expect("every parent exists");
            assert!(parent.start <= s.start && s.end <= parent.end, "parent encloses child");
            assert_eq!(parent.request, s.request, "a request's spans share its id");
            *child_ns.entry(p).or_default() += s.end - s.start;
        }
    }
    let self_ns = |id: u64| {
        let s = &spans[&id];
        (s.end - s.start) as i64 - *child_ns.get(&id).unwrap_or(&0) as i64
    };
    for &id in spans.keys() {
        assert!(self_ns(id) >= 0, "span {id} has negative self time");
    }
    // Each root is one single-threaded cell: the self times of its
    // subtree, whatever layer they belong to, sum to within its span.
    let root_of = |mut id: u64| {
        while let Some(p) = spans[&id].parent {
            id = p;
        }
        id
    };
    let mut subtree: HashMap<u64, i64> = HashMap::new();
    for &id in spans.keys() {
        *subtree.entry(root_of(id)).or_default() += self_ns(id);
    }
    for (root, total) in subtree {
        let s = &spans[&root];
        assert!(total <= (s.end - s.start) as i64, "self times of cell {root} exceed its span");
    }
}

fn smoke(workload: &str) {
    let (_, untraced) = run(workload, 0);
    assert_eq!(printed(&untraced), declared("end_to_end"), "end-to-end names and units");
    let (dir, traced) = run(workload, 1);
    assert_eq!(printed(&traced), declared("per_layer"), "per-layer names and units");
    check_spans(&dir, workload);
}

#[test]
fn cold_sweep_smoke() {
    smoke("cold-sweep");
}

#[test]
fn replay_serve_smoke() {
    smoke("replay-serve");
}

#[test]
fn warm_serve_smoke() {
    smoke("warm-serve");
}
