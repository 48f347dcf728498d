//! Event-stream ↔ metrics reconciliation, across every frontend.
//!
//! The observability layer's core contract: the aggregate counters are
//! *derivable from the event stream, bit-for-bit*. Because the live
//! probe and the [`Reconciler`] fold share one `apply_event`, this holds
//! by construction — these tests pin it end to end, plus the two
//! side-contracts: tracing must not perturb the simulation (traced and
//! untraced runs produce identical metrics), and traced sweeps must be
//! deterministic across thread counts (byte-identical event files).

use std::sync::Arc;
use xbc::{XbcConfig, XbcFrontend};
use xbc_frontend::{
    BbtcConfig, BbtcFrontend, Frontend, IcFrontend, IcFrontendConfig, Reconciler, TcConfig,
    TraceCacheFrontend, UopCacheConfig, UopCacheFrontend,
};
use xbc_obs::{Event, VecSink};
use xbc_sim::{to_json, FrontendSpec, Row, Sweep};
use xbc_store::Store;
use xbc_workload::{standard_traces, TraceSpec};

fn all_frontends(total_uops: usize) -> Vec<Box<dyn Frontend>> {
    vec![
        Box::new(IcFrontend::new(IcFrontendConfig::default())),
        Box::new(UopCacheFrontend::new(UopCacheConfig { total_uops, ..Default::default() })),
        Box::new(TraceCacheFrontend::new(TcConfig { total_uops, ..Default::default() })),
        Box::new(BbtcFrontend::new(BbtcConfig { total_uops, ..Default::default() })),
        Box::new(XbcFrontend::new(XbcConfig { total_uops, ..Default::default() })),
    ]
}

#[test]
fn fold_of_events_equals_live_metrics_for_every_frontend_and_trace() {
    for spec in standard_traces() {
        let trace = spec.capture(6_000);
        for fe in &mut all_frontends(8192) {
            let mut sink = VecSink::new();
            let live = fe.run_traced(&trace, &mut sink);
            let folded = Reconciler::fold(sink.events.iter());
            assert_eq!(
                folded,
                live,
                "{} on {}: folding the event stream must reproduce the live metrics exactly",
                fe.name(),
                spec.name
            );
        }
    }
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    // The traced step path must compute the same machine; the sink is
    // write-only. Compare against a fresh untraced frontend.
    let trace = standard_traces()[4].capture(20_000);
    for (traced, plain) in all_frontends(8192).iter_mut().zip(&mut all_frontends(8192)) {
        let mut sink = VecSink::new();
        let tm = traced.run_traced(&trace, &mut sink);
        let pm = plain.run(&trace);
        assert_eq!(tm, pm, "{}: tracing changed the simulated metrics", plain.name());
        assert!(!sink.events.is_empty(), "{}: traced run emitted no events", plain.name());
    }
}

#[test]
fn every_step_closes_exactly_one_cycle() {
    // The stream's framing convention: `Cycle` events are the cycle
    // delimiters, so their count is the cycle count, and every stream
    // ends on one (the last step's closer).
    let trace = standard_traces()[0].capture(5_000);
    for fe in &mut all_frontends(4096) {
        let mut sink = VecSink::new();
        let m = fe.run_traced(&trace, &mut sink);
        let cycle_events =
            sink.events.iter().filter(|e| matches!(e, Event::Cycle(_))).count() as u64;
        assert_eq!(cycle_events, m.cycles, "{}: one Cycle event per cycle", fe.name());
        assert!(
            matches!(sink.events.last(), Some(Event::Cycle(_))),
            "{}: a step's last event must be its Cycle closer",
            fe.name()
        );
    }
}

#[test]
fn d2b_causes_sum_to_delivery_to_build_on_every_frontend() {
    // Satellite fix for the cause-accounting hole: every delivery→build
    // switch must charge exactly one cause, on every frontend, so the
    // cause breakdown is a partition — `FrontendMetrics::check_identities`
    // is the reusable form of that check.
    for spec in standard_traces() {
        let trace = spec.capture(6_000);
        for fe in &mut all_frontends(8192) {
            let m = fe.run(&trace);
            m.check_identities(trace.uop_count()).unwrap_or_else(|(_, e)| {
                panic!("{} on {}: {e}", fe.name(), spec.name);
            });
            assert_eq!(
                m.d2b_cause_sum(),
                m.delivery_to_build,
                "{} on {}: d2b cause counters must partition the switch count",
                fe.name(),
                spec.name
            );
        }
    }
}

fn traced_sweep_file(
    threads: usize,
    path: &std::path::Path,
    store: Option<&Arc<Store>>,
) -> Vec<Row> {
    let traces: Vec<TraceSpec> = standard_traces().into_iter().take(3).collect();
    let frontends = vec![
        FrontendSpec::Ic,
        FrontendSpec::Tc { total_uops: 8192, ways: 4 },
        FrontendSpec::Xbc { total_uops: 8192, ways: 2, promotion: true },
    ];
    let mut sweep = Sweep::new(traces, frontends, 4_000);
    sweep.progress = false;
    sweep.threads = threads;
    sweep.check = true; // reconcile every cell while we're at it
    sweep.trace_events = Some(path.to_string_lossy().into_owned());
    if let Some(store) = store {
        sweep = sweep.with_store(Arc::clone(store));
    }
    let rows = sweep.run();
    assert_eq!(rows.len(), 9);
    rows
}

#[test]
fn traced_sweep_is_byte_identical_across_thread_counts() {
    let dir = std::env::temp_dir().join(format!("xbc-event-reconcile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let single = dir.join("events-t1.jsonl");
    let parallel = dir.join("events-t0.jsonl");
    traced_sweep_file(1, &single, None);
    traced_sweep_file(0, &parallel, None);
    let a = std::fs::read(&single).unwrap();
    let b = std::fs::read(&parallel).unwrap();
    assert!(!a.is_empty());
    assert_eq!(a, b, "event files must not depend on worker scheduling");
    // And the file is a valid, foldable xbc-events-v1 stream.
    let sections = xbc_obs::jsonl::parse_jsonl(std::str::from_utf8(&a).unwrap()).unwrap();
    assert_eq!(sections.len(), 9, "one section per (trace × frontend) cell");
    for s in &sections {
        let m = Reconciler::fold(s.events.iter());
        assert!(m.cycles > 0, "{} on {}: empty section", s.frontend, s.trace);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_backed_traced_sweep_matches_storeless() {
    // With a store, checked and traced cells stream their trace: the
    // cold run's leaders replay off the capture channel, the warm run's
    // cells (a traced sweep skips the row cache) stream stored entries.
    // Both must write the storeless event file byte for byte.
    let dir = std::env::temp_dir().join(format!("xbc-event-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let strip = |mut rows: Vec<Row>| {
        rows.iter_mut().for_each(|r| r.elapsed_ms = 0);
        to_json(&rows)
    };
    let resident = dir.join("resident.jsonl");
    let expected_rows = strip(traced_sweep_file(2, &resident, None));
    let expected = std::fs::read(&resident).unwrap();
    let store = Arc::new(Store::open(dir.join("cache")).unwrap());
    for run in ["cold", "warm"] {
        let path = dir.join(format!("{run}.jsonl"));
        let rows = strip(traced_sweep_file(2, &path, Some(&store)));
        assert_eq!(rows, expected_rows, "{run} store-backed rows differ");
        assert!(std::fs::read(&path).unwrap() == expected, "{run} store-backed event file differs");
    }
    assert_eq!(store.stats().trace_misses, 3, "each trace captured once, then streamed");
    let _ = std::fs::remove_dir_all(&dir);
}
