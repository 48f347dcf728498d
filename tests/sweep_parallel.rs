//! Regression tests for the cell-level sweep scheduler: a grid with
//! more frontends than traces must (a) produce rows identical to the
//! single-threaded run — the scheduler only changes *when* cells run,
//! never *what* they compute — and (b) account every measured
//! millisecond of capture + simulation to some row (no remainder
//! dropped by the capture-cost split), with or without a store, through
//! `Sweep` and through the daemon.

use std::sync::Arc;
use xbc_serve::protocol::SweepRequest;
use xbc_serve::{shutdown, submit, Endpoint, ServeConfig, Server};
use xbc_sim::{FrontendSpec, Sweep, SweepBench};
use xbc_store::Store;
use xbc_workload::{standard_traces, TraceSpec};

/// A fig9-style grid: many configurations, few traces — the shape a
/// trace-major scheduler serializes.
fn eight_frontends() -> Vec<FrontendSpec> {
    let mut fes = Vec::new();
    for &s in &[2048usize, 4096, 8192, 16384] {
        fes.push(FrontendSpec::Tc { total_uops: s, ways: 4 });
        fes.push(FrontendSpec::Xbc { total_uops: s, ways: 2, promotion: true });
    }
    fes
}

/// Everything but `elapsed_ms` (which is wall-clock measurement, not
/// simulation output) must match across thread counts.
fn assert_rows_identical(a: &[xbc_sim::Row], b: &[xbc_sim::Row]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.trace, y.trace);
        assert_eq!(x.frontend, y.frontend);
        assert_eq!(x.insts, y.insts);
        assert_eq!(x.uops, y.uops);
        assert_eq!(x.cycles, y.cycles);
        assert_eq!(x.miss_rate, y.miss_rate);
        assert_eq!(x.bandwidth, y.bandwidth);
        assert_eq!(x.uops_per_cycle, y.uops_per_cycle);
        assert_eq!(x.cond_mispredicts, y.cond_mispredicts);
        assert_eq!(x.target_mispredicts, y.target_mispredicts);
        assert_eq!(x.delivery_to_build, y.delivery_to_build);
        assert_eq!(x.bank_conflict_uops, y.bank_conflict_uops);
        assert_eq!(x.promotions, y.promotions);
    }
}

#[test]
fn one_trace_eight_configs_parallel_matches_single_thread() {
    // 1 trace × 8 configs: the old trace-major scheduler would cap this
    // sweep at one worker; the cell scheduler spreads it over four. The
    // rows must not care.
    let traces: Vec<TraceSpec> = standard_traces().into_iter().take(1).collect();
    let mut sweep = Sweep::new(traces, eight_frontends(), 4_000);
    sweep.progress = false;
    sweep.threads = 4;
    let (par, bench) = sweep.run_with_bench();
    assert_eq!(bench.threads, 4);
    assert_eq!(bench.total_cells, 8);
    assert_eq!(bench.simulated_cells, 8);
    assert_eq!(bench.captures, 1, "one trace is captured exactly once, not per worker");
    assert_eq!(bench.workers.len(), 4, "all four workers participate despite one trace");
    sweep.threads = 1;
    let seq = sweep.run();
    assert_rows_identical(&par, &seq);
}

#[test]
fn more_frontends_than_traces_keeps_row_order() {
    let traces: Vec<TraceSpec> = standard_traces().into_iter().take(2).collect();
    let fes = eight_frontends();
    let mut sweep = Sweep::new(traces.clone(), fes.clone(), 3_000);
    sweep.progress = false;
    sweep.threads = 4;
    let rows = sweep.run();
    assert_eq!(rows.len(), 16);
    // Trace-major, frontend-minor, regardless of completion order.
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.trace, traces[i / fes.len()].name);
        assert_eq!(row.frontend, fes[i % fes.len()]);
    }
}

/// Σ `elapsed_ms` over the rows a run simulated must equal its bench's
/// `capture_ms + sim_ms`: both are folded from the same cell costs.
fn assert_elapsed_identity(what: &str, simulated: &[xbc_sim::Row], bench: &SweepBench) {
    let row_total: u64 = simulated.iter().map(|r| r.elapsed_ms).sum();
    assert_eq!(
        row_total,
        bench.capture_ms + bench.sim_ms,
        "{what}: per-row elapsed_ms must account for every measured capture+sim millisecond"
    );
}

#[test]
fn elapsed_ms_sums_to_measured_capture_plus_sim_time() {
    // The capture-cost split distributes its remainder instead of
    // truncating it, so the per-row elapsed times reconstruct the
    // measured wall time exactly — not "up to missing-1 ms short".
    let traces: Vec<TraceSpec> = standard_traces().into_iter().take(2).collect();
    let mut sweep = Sweep::new(traces.clone(), eight_frontends(), 20_000);
    sweep.progress = false;
    sweep.threads = 4;
    let (rows, bench) = sweep.run_with_bench();
    assert_elapsed_identity("uncached sweep", &rows, &bench);
    // And the bench's own ledger is internally consistent.
    assert_eq!(bench.total_cells, bench.cached_cells + bench.simulated_cells);
    assert_eq!(bench.workers.iter().map(|w| w.cells).sum::<usize>(), bench.simulated_cells);

    // With a store: a cold sweep (overlapped leaders, sibling stream
    // opens), then one whose traces are stored but whose rows are not
    // (every cell opens a stream). Traces long enough that their opens
    // take measurable milliseconds.
    sweep.insts = 200_000;
    let dir = std::env::temp_dir().join(format!("xbc-sweep-identity-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let stored = sweep.clone().with_store(Arc::new(Store::open(dir.join("sweep")).unwrap()));
    let (rows, bench) = stored.run_with_bench();
    assert_eq!((bench.captures, bench.overlapped_cells), (2, 2));
    assert_elapsed_identity("cold store-backed sweep", &rows, &bench);
    std::fs::remove_dir_all(dir.join("sweep/results")).unwrap();
    let stored = sweep.clone().with_store(Arc::new(Store::open(dir.join("sweep")).unwrap()));
    let (rows, bench) = stored.run_with_bench();
    assert_eq!((bench.captures, bench.simulated_cells), (0, 16));
    assert_elapsed_identity("stored-trace sweep", &rows, &bench);

    // The daemon's done trailer folds the same costs: a cold request,
    // then a request whose traces are stored but whose rows are not.
    let endpoint = Endpoint::unix(dir.join("d.sock"));
    let mut config = ServeConfig::new(endpoint.clone());
    config.threads = 4;
    config.store = Some(Arc::new(Store::open(dir.join("daemon")).unwrap()));
    let server = Server::bind(config).unwrap();
    let daemon = std::thread::spawn(move || server.run());
    let names: Vec<String> = traces.iter().map(|t| t.name.to_owned()).collect();
    let frontends = eight_frontends();
    let (cold_grid, warm_grid) = frontends.split_at(4);
    for (what, grid) in
        [("cold daemon request", cold_grid), ("stored-trace daemon request", warm_grid)]
    {
        let req = SweepRequest {
            traces: names.clone(),
            frontends: grid.to_vec(),
            insts: 200_000,
            priority: 0,
        };
        let out = submit(&endpoint, &req).unwrap();
        assert_eq!(
            out.bench.simulated_cells,
            out.rows.len(),
            "{what}: one client simulates every cell"
        );
        assert_elapsed_identity(what, &out.rows, &out.bench);
    }
    shutdown(&endpoint).unwrap();
    daemon.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
