//! The sweep engine: runs (trace × frontend-configuration) grids in
//! parallel and collects result rows.
//!
//! Parallelism is **cell-level**: the unit of scheduled work is one
//! `(trace, frontend)` cell pulled from a single shared queue, so a
//! sweep of N configurations over M traces scales to `min(threads, N×M)`
//! busy workers — not `min(threads, M)` as a trace-major scheduler
//! would. The cells themselves run through the [`CellExecutor`] the
//! `xbc-serve` daemon uses too, which captures each trace at most once
//! per run and shares it among the trace's cells. Row order stays
//! deterministic (trace-major, frontend-minor) regardless of threading.
//!
//! When a [`Store`] is attached ([`Sweep::with_store`]), the engine is
//! fully cached: each (trace, frontend, insts) cell first consults the
//! result cache, and only cells that miss cost a capture + simulation.
//! A re-run with unchanged parameters performs zero captures and zero
//! simulations — it is a pure replay of cached rows.

use crate::bench::{CellCost, SweepBench, WorkerStat};
use crate::exec::{plan, CellExecutor};
use crate::report::Row;
use crate::spec::FrontendSpec;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use xbc_frontend::{Frontend, FrontendMetrics};
use xbc_obs::{jsonl, VecSink};
use xbc_store::Store;
use xbc_workload::{Trace, TraceSpec};

/// Bumped whenever simulator semantics change, so stale cached results
/// are invalidated rather than silently replayed.
pub const CODE_VERSION: u32 = 1;

/// The result-cache key of one (trace, frontend, insts) cell: every
/// input that determines the row, plus [`CODE_VERSION`]. Public so
/// tests and tooling can address individual cells (e.g. to forge or
/// evict an entry).
pub fn result_key(spec: &TraceSpec, fe: &FrontendSpec, insts: usize) -> String {
    format!(
        "row|name={}|suite={}|seed={}|functions={}|insts={insts}|fe={}|code={CODE_VERSION}",
        spec.name,
        spec.suite,
        spec.seed,
        spec.functions,
        fe.key()
    )
}

/// Resolves a requested worker count: `0` means one worker per
/// available core (falling back to 4 when the core count is unknown).
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        requested
    }
}

/// Runs `work(i)` for every cell index in `0..cells`, distributing the
/// cells over at most `threads` workers that pull from one shared
/// atomic queue. Returns one [`WorkerStat`] per spawned worker.
fn parallel_cells<F>(cells: usize, threads: usize, work: F) -> Vec<WorkerStat>
where
    F: Fn(usize) + Sync,
{
    let next = AtomicUsize::new(0);
    let stats: Mutex<Vec<WorkerStat>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads.min(cells) {
            scope.spawn(|| {
                let mut busy = Duration::ZERO;
                let mut done = 0usize;
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= cells {
                        break;
                    }
                    let t0 = Instant::now();
                    work(idx);
                    busy += t0.elapsed();
                    done += 1;
                }
                stats
                    .lock()
                    .expect("worker stats lock")
                    .push(WorkerStat { cells: done, busy_ms: busy.as_millis() as u64 });
            });
        }
    });
    stats.into_inner().expect("workers joined")
}

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Traces to replay.
    pub traces: Vec<TraceSpec>,
    /// Frontend configurations to run each trace through.
    pub frontends: Vec<FrontendSpec>,
    /// Dynamic instructions per trace.
    pub insts: usize,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Optional trace/result store; `None` disables caching.
    pub store: Option<Arc<Store>>,
    /// Emit per-trace progress lines to stderr (default on).
    pub progress: bool,
    /// Verify accounting identities and structural invariants while
    /// simulating (default off). Checked runs produce *identical* rows —
    /// the checks observe, they never perturb — so [`CODE_VERSION`] is
    /// unaffected; cells replayed from the result cache are not re-run.
    pub check: bool,
    /// Write a cycle-level `xbc-events-v1` JSONL event stream for every
    /// cell to this path. Tracing bypasses the result cache (every cell
    /// is simulated so the stream is complete) and the file is written
    /// in deterministic trace-major cell order after all workers join —
    /// byte-identical regardless of `threads`. Rows are unaffected:
    /// tracing observes, it never perturbs.
    pub trace_events: Option<String>,
}

impl Sweep {
    /// Creates an uncached sweep over the given traces and frontends
    /// with `insts` instructions per trace.
    ///
    /// # Panics
    ///
    /// Panics if any list is empty or `insts` is zero.
    pub fn new(traces: Vec<TraceSpec>, frontends: Vec<FrontendSpec>, insts: usize) -> Self {
        assert!(!traces.is_empty(), "sweep needs at least one trace");
        assert!(!frontends.is_empty(), "sweep needs at least one frontend");
        assert!(insts > 0, "sweep needs a positive instruction budget");
        Sweep {
            traces,
            frontends,
            insts,
            threads: 0,
            store: None,
            progress: true,
            check: false,
            trace_events: None,
        }
    }

    /// Attaches a trace/result store; subsequent [`run`](Sweep::run)
    /// calls consult it before capturing or simulating anything.
    pub fn with_store(mut self, store: Arc<Store>) -> Self {
        self.store = Some(store);
        self
    }

    /// Runs the sweep. Every `(trace, frontend)` cell is one unit of
    /// work on a shared queue; each trace is captured at most once and
    /// shared by all its cells, so every configuration sees the
    /// identical committed path (the paper's trace-driven methodology).
    /// With a store attached, cells whose results are cached skip both
    /// the capture and the simulation.
    ///
    /// Rows are returned grouped by trace (in input order), then by
    /// frontend (in input order) — deterministic regardless of threading.
    pub fn run(&self) -> Vec<Row> {
        self.run_with_bench().0
    }

    /// Runs the sweep and also returns the scheduler's performance
    /// accounting: wall time, capture/sim split, cache effectiveness,
    /// and per-worker utilization (the `--bench-json` payload).
    pub fn run_with_bench(&self) -> (Vec<Row>, SweepBench) {
        let wall0 = Instant::now();
        let n_fe = self.frontends.len();
        let n_cells = self.traces.len() * n_fe;
        let exec = CellExecutor::new(
            self.traces.clone(),
            self.frontends.clone(),
            self.insts,
            self.store.clone(),
        )
        .checked(self.check);

        // Phase 1: probe the result cache. A traced sweep skips it:
        // cached cells would leave holes in the event stream, so every
        // cell is simulated (traces stay cached).
        let mut rows = if self.trace_events.is_none() { exec.probe() } else { vec![None; n_cells] };

        // Phase 2: plan the missing cells.
        let cells = plan(&rows, n_fe);
        if self.progress {
            for (ti, spec) in self.traces.iter().enumerate() {
                if !cells.iter().any(|c| c.trace == ti) {
                    eprintln!("[sweep] {:<18} {n_fe} cached, 0 simulated", spec.name);
                }
            }
        }

        // Phase 3: drain the cell queue through the executor.
        let threads = resolve_threads(self.threads);
        // One slot per planned cell: its row, cost and event section.
        type Done = (Row, CellCost, Option<String>);
        let done: Mutex<Vec<Option<Done>>> = Mutex::new(vec![None; cells.len()]);
        let workers = parallel_cells(cells.len(), threads, |i| {
            let cell = &cells[i];
            let spec = &self.traces[cell.trace];
            let mut sink = self.trace_events.as_ref().map(|_| VecSink::new());
            let (row, cost) = exec.execute(cell, sink.as_mut());
            let section = sink.map(|sink| {
                let mut section = String::new();
                let label = self.frontends[cell.fe].label();
                jsonl::write_section(&mut section, &label, spec.name, &sink.events);
                section
            });
            let mut done = done.lock().expect("sweep result lock");
            done[i] = Some((row, cost, section));
            // The trace's cells are contiguous in the plan; report the
            // trace once the last of them finishes.
            let trace_cells = &done[i - cell.rank..i - cell.rank + cell.missing];
            if self.progress && trace_cells.iter().all(Option::is_some) {
                let costs = trace_cells.iter().flatten().map(|(_, c, _)| c);
                let (cap, sim) = costs.fold((0, 0), |(a, b), c| (a + c.capture_ms, b + c.sim_ms));
                eprintln!(
                    "[sweep] {:<18} {} cached, {} simulated, capture {cap} ms, sim {sim} ms",
                    spec.name,
                    n_fe - cell.missing,
                    cell.missing,
                );
            }
        });
        // The plan is trace-major, so the event file comes out in
        // deterministic cell order, whatever the thread interleaving was.
        let mut costs = Vec::with_capacity(cells.len());
        let mut events = String::new();
        for (cell, slot) in cells.iter().zip(done.into_inner().expect("workers joined")) {
            let (row, cost, section) = slot.expect("every planned cell ran");
            rows[cell.index(n_fe)] = Some(row);
            costs.push(cost);
            events.extend(section);
        }
        if let Some(path) = &self.trace_events {
            match std::fs::write(path, events) {
                Ok(()) => {
                    if self.progress {
                        eprintln!("[sweep] wrote event trace {path}");
                    }
                }
                Err(e) => eprintln!("[sweep] failed to write event trace {path}: {e}"),
            }
        }

        let bench = SweepBench {
            threads,
            traces: self.traces.len(),
            frontends: n_fe,
            total_cells: n_cells,
            cached_cells: n_cells - cells.len(),
            wall_ms: wall0.elapsed().as_millis() as u64,
            workers,
            ..SweepBench::fold(&costs)
        };
        if self.progress {
            if let Some(store) = &self.store {
                eprintln!("[xbc-store] {}", store.stats());
            }
            eprintln!("[sweep-bench] {bench}");
        }
        (rows.into_iter().map(|r| r.expect("every cell filled")).collect(), bench)
    }
}

/// One `(trace, label, metrics)` result of [`sweep_custom`].
pub type CustomRow = (String, String, FrontendMetrics);

/// A fully custom sweep for ablations: `make(config_index)` builds a cold
/// frontend for each labelled configuration. Scheduling is cell-level,
/// like [`Sweep::run`]: every (trace, label) cell is one queue item, and
/// each trace is captured once and shared by all its cells. Returns
/// `(trace, label, metrics)` tuples in deterministic trace-major order.
///
/// With a `store`, captures go through the trace cache; results are not
/// cached (the configurations are opaque closures, so they have no
/// stable identity to key on).
pub fn sweep_custom<F>(
    traces: &[TraceSpec],
    insts: usize,
    labels: &[&str],
    threads: usize,
    store: Option<&Store>,
    make: F,
) -> Vec<CustomRow>
where
    F: Fn(usize) -> Box<dyn Frontend + Send> + Sync,
{
    assert!(!traces.is_empty() && !labels.is_empty() && insts > 0, "empty custom sweep");
    let n_cfg = labels.len();
    let shared: Vec<OnceLock<Arc<Trace>>> = (0..traces.len()).map(|_| OnceLock::new()).collect();
    let results: Mutex<Vec<(usize, CustomRow)>> = Mutex::new(Vec::new());
    parallel_cells(traces.len() * n_cfg, resolve_threads(threads), |cell| {
        let (ti, ci) = (cell / n_cfg, cell % n_cfg);
        let spec = &traces[ti];
        let trace = Arc::clone(shared[ti].get_or_init(|| {
            Arc::new(match store {
                Some(s) => s.get_or_capture(spec, insts),
                None => spec.capture(insts),
            })
        }));
        let mut fe = make(ci);
        let m = fe.run(&trace);
        results
            .lock()
            .expect("sweep result lock")
            .push((cell, (spec.name.to_owned(), labels[ci].to_owned(), m)));
    });
    let mut rows = results.into_inner().expect("workers joined");
    rows.sort_by_key(|(idx, _)| *idx);
    rows.into_iter().map(|(_, row)| row).collect()
}

/// Captures (or loads, with a `store`) each trace and applies `f` to it,
/// distributing the traces over `threads` workers. Results come back in
/// input order. This is the per-trace building block for harnesses that
/// analyze traces without sweeping frontends (e.g. fig1), so they scale
/// with `--threads` too.
pub fn map_traces_parallel<T, F>(
    specs: &[TraceSpec],
    insts: usize,
    threads: usize,
    store: Option<&Store>,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(&TraceSpec, &Trace) -> T + Sync,
{
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::new());
    parallel_cells(specs.len(), resolve_threads(threads), |i| {
        let spec = &specs[i];
        let trace = match store {
            Some(s) => s.get_or_capture(spec, insts),
            None => spec.capture(insts),
        };
        results.lock().expect("map result lock").push((i, f(spec, &trace)));
    });
    let mut out = results.into_inner().expect("workers joined");
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbc_workload::standard_traces;

    #[test]
    fn small_sweep_is_deterministic_and_ordered() {
        let traces: Vec<TraceSpec> = standard_traces().into_iter().take(3).collect();
        let frontends = vec![
            FrontendSpec::Tc { total_uops: 4096, ways: 4 },
            FrontendSpec::Xbc { total_uops: 4096, ways: 2, promotion: true },
        ];
        let sweep = Sweep::new(traces.clone(), frontends.clone(), 5_000);
        let a = sweep.run();
        let b = sweep.run();
        assert_eq!(a.len(), 6);
        // Ordering: trace-major, frontend-minor.
        assert_eq!(a[0].trace, traces[0].name);
        assert_eq!(a[1].trace, traces[0].name);
        assert_eq!(a[2].trace, traces[1].name);
        assert_eq!(a[0].frontend.label(), "tc-4k");
        assert_eq!(a[1].frontend.label(), "xbc-4k");
        // Determinism.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.miss_rate, y.miss_rate);
            assert_eq!(x.cycles, y.cycles);
        }
    }

    #[test]
    fn single_thread_matches_parallel() {
        let traces: Vec<TraceSpec> = standard_traces().into_iter().take(2).collect();
        let frontends = vec![FrontendSpec::Ic];
        let mut sweep = Sweep::new(traces, frontends, 3_000);
        let par = sweep.run();
        sweep.threads = 1;
        let seq = sweep.run();
        assert_eq!(par.len(), seq.len());
        for (x, y) in par.iter().zip(&seq) {
            assert_eq!(x.cycles, y.cycles);
        }
    }

    #[test]
    fn streamed_sweep_overlaps_and_matches_resident() {
        let dir =
            std::env::temp_dir().join(format!("xbc-sweep-overlap-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let traces: Vec<TraceSpec> = standard_traces().into_iter().take(2).collect();
        let frontends = vec![FrontendSpec::Ic, FrontendSpec::xbc_default()];

        // Baseline rows: no store, resident capture.
        let mut resident = Sweep::new(traces.clone(), frontends.clone(), 4_000);
        resident.progress = false;
        let baseline = resident.run();

        // Cold streamed sweep: every trace is captured overlapped with
        // its leader cell's simulation.
        let store = Arc::new(Store::open(&dir).unwrap());
        let mut streamed = Sweep::new(traces.clone(), frontends, 4_000).with_store(store);
        streamed.progress = false;
        let (rows, bench) = streamed.run_with_bench();
        assert_eq!(bench.captures, traces.len() as u64, "one capture per distinct trace");
        assert_eq!(bench.overlapped_cells, traces.len(), "every cold trace overlaps one cell");
        assert!(bench.overlap_ms <= bench.capture_ms);
        assert!(bench.overlap_fraction() <= 1.0);
        for (b, r) in baseline.iter().zip(&rows) {
            assert_eq!(b.trace, r.trace);
            assert_eq!(b.cycles, r.cycles, "streamed capture must not perturb results");
            assert_eq!(b.miss_rate, r.miss_rate);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn thread_resolution() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn empty_traces_rejected() {
        let _ = Sweep::new(vec![], vec![FrontendSpec::Ic], 10);
    }

    #[test]
    fn cached_rerun_simulates_nothing_and_matches() {
        let dir = std::env::temp_dir().join(format!("xbc-sweep-cache-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let traces: Vec<TraceSpec> = standard_traces().into_iter().take(2).collect();
        let frontends = vec![FrontendSpec::Ic, FrontendSpec::xbc_default()];
        let store = Arc::new(Store::open(&dir).unwrap());
        let mut sweep = Sweep::new(traces, frontends, 3_000).with_store(Arc::clone(&store));
        sweep.progress = false;
        let fresh = sweep.run();
        let after_fresh = store.stats();
        assert_eq!(after_fresh.result_misses, 4);
        assert_eq!(after_fresh.result_hits, 0);
        let (cached, bench) = sweep.run_with_bench();
        let after_cached = store.stats();
        // The re-run hit every result cell and never touched a trace
        // (the fresh run's sibling cells streamed the freshly captured
        // entries from disk, so trace hits exist — but must not grow).
        assert_eq!(after_cached.result_hits, 4);
        assert_eq!(after_cached.trace_hits, after_fresh.trace_hits);
        assert_eq!(after_cached.trace_misses, after_fresh.trace_misses);
        assert_eq!(bench.cached_cells, 4);
        assert_eq!(bench.simulated_cells, 0);
        assert_eq!(bench.captures, 0);
        assert!(bench.workers.is_empty(), "a fully cached sweep spawns no workers");
        for (f, c) in fresh.iter().zip(&cached) {
            assert_eq!(f.trace, c.trace);
            assert_eq!(f.frontend, c.frontend);
            assert_eq!(f.cycles, c.cycles);
            assert_eq!(f.miss_rate, c.miss_rate);
            assert_eq!(f.elapsed_ms, c.elapsed_ms, "cached rows keep the original cost");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checked_sweep_rows_match_unchecked() {
        // Checked cells run through the executor like plain ones: resident
        // without a store, streamed with one — off a cold store's leader
        // captures, or off traces stored by an earlier run whose rows were
        // not. Every path must give the unchecked rows.
        let dir =
            std::env::temp_dir().join(format!("xbc-sweep-checked-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let traces: Vec<TraceSpec> = standard_traces().into_iter().take(2).collect();
        let frontends = vec![FrontendSpec::Ic, FrontendSpec::xbc_default()];
        let mut plain = Sweep::new(traces.clone(), frontends.clone(), 4_000);
        plain.progress = false;
        let expected = plain.run();

        let cold = Arc::new(Store::open(dir.join("cold")).unwrap());
        let traces_only = Arc::new(Store::open(dir.join("traces-only")).unwrap());
        for spec in &traces {
            traces_only.get_or_capture(spec, 4_000);
        }
        let cases =
            [("no store", None, 2), ("cold", Some(cold), 2), ("traces only", Some(traces_only), 0)];
        for (case, store, captures) in cases {
            let mut checked = Sweep::new(traces.clone(), frontends.clone(), 4_000);
            checked.store = store;
            checked.progress = false;
            checked.check = true;
            let (rows, bench) = checked.run_with_bench();
            assert_eq!(bench.simulated_cells, 4, "{case}: every cell simulated");
            assert_eq!(bench.captures, captures, "{case}: captures");
            for (p, c) in expected.iter().zip(&rows) {
                assert_eq!(p.cycles, c.cycles, "{case}: --check must observe, never perturb");
                assert_eq!(p.miss_rate, c.miss_rate);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn custom_sweep_runs_all_configs() {
        use xbc::{XbcConfig, XbcFrontend};
        let traces: Vec<TraceSpec> = standard_traces().into_iter().take(2).collect();
        let rows = sweep_custom(&traces, 3_000, &["promo", "nopromo"], 0, None, |i| {
            use xbc::PromotionMode;
            Box::new(XbcFrontend::new(XbcConfig {
                total_uops: 4096,
                promotion: if i == 0 { PromotionMode::Chain } else { PromotionMode::Off },
                ..XbcConfig::default()
            }))
        });
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].1, "promo");
        assert_eq!(rows[1].1, "nopromo");
        assert_eq!(rows[0].0, traces[0].name);
    }

    #[test]
    fn map_traces_parallel_keeps_input_order() {
        let specs: Vec<TraceSpec> = standard_traces().into_iter().take(3).collect();
        let names = map_traces_parallel(&specs, 1_000, 0, None, |spec, trace| {
            assert_eq!(trace.inst_count(), 1_000);
            spec.name.to_owned()
        });
        let expected: Vec<String> = specs.iter().map(|s| s.name.to_owned()).collect();
        assert_eq!(names, expected);
    }
}
