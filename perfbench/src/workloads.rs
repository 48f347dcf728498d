//! The three workloads, driven only through public entry points:
//! `Sweep::run_with_bench` on a store, and an in-process `Server` on a
//! Unix socket driven by `submit` and `ping`. Each run is a sequence of
//! rounds; a round is one grid (cold-sweep) or one batch of requests
//! from two closed-loop clients (replay-serve, warm-serve).

use crate::check::{self, Digests};
use crate::plan::{self, Grid};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use xbc_serve::protocol::SweepRequest;
use xbc_serve::{Endpoint, ServeConfig, Server, SubmitOutcome};
use xbc_sim::{Row, Sweep};
use xbc_store::Store;

/// Worker threads for the sweep and the daemon, and client threads:
/// sized for a 2-vCPU host.
pub const THREADS: usize = 2;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// A run keeps going past `--seconds` (up to 3×) until this many
/// requests completed, so at least 10 lie beyond the p90.
pub const MIN_REQUESTS: usize = 110;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdSweep,
    ReplayServe,
    WarmServe,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::ColdSweep, Workload::ReplayServe, Workload::WarmServe];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSweep => "cold-sweep",
            Workload::ReplayServe => "replay-serve",
            Workload::WarmServe => "warm-serve",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Everything one invocation needs.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Smoke-test scale: tiny instruction counts, no digest table.
    pub tiny: bool,
    /// Private scratch directory of this process (stores, sockets).
    pub work: PathBuf,
    pub digests: Digests,
}

impl Ctx {
    pub fn insts(&self) -> usize {
        match (self.workload, self.tiny) {
            (_, true) => 20_000,
            (Workload::WarmServe, false) => 200_000,
            (_, false) => 1_000_000,
        }
    }

    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        remove_dir(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

pub fn remove_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).ok();
    }
}

pub fn open_store(dir: &Path) -> Result<Arc<Store>, String> {
    Store::open(dir).map(Arc::new).map_err(|e| format!("open store {}: {e}", dir.display()))
}

/// Deletes every cached row, keeping the captured traces.
pub fn clear_results(store: &Store) -> Result<(), String> {
    let dir = store.root().join("results");
    for entry in std::fs::read_dir(&dir).map_err(|e| format!("list {}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        std::fs::remove_file(&path).map_err(|e| format!("remove {}: {e}", path.display()))?;
    }
    Ok(())
}

/// An in-process daemon on a Unix socket.
pub struct Daemon {
    pub endpoint: Endpoint,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    pub fn start(store: Arc<Store>, socket: PathBuf) -> Result<Daemon, String> {
        let mut config = ServeConfig::new(Endpoint::unix(socket));
        config.threads = THREADS;
        config.store = Some(store);
        let server = Server::bind(config).map_err(|e| format!("bind daemon: {e}"))?;
        let endpoint = server.endpoint().clone();
        let handle = std::thread::spawn(move || server.run());
        xbc_serve::ping(&endpoint).map_err(|e| format!("daemon did not answer ping: {e}"))?;
        Ok(Daemon { endpoint, handle })
    }

    pub fn stop(self) -> Result<(), String> {
        xbc_serve::shutdown(&self.endpoint)?;
        match self.handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon exited with {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// What one request (or one sweep call) returned.
pub struct Reply {
    pub client: usize,
    pub grid: Grid,
    pub latency_ms: f64,
    pub result: Result<SubmitOutcome, String>,
}

/// One finished round.
pub struct Round {
    pub wall_s: f64,
    pub replies: Vec<Reply>,
}

/// All measurements of one untraced run.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub round_wall_s: Vec<f64>,
    pub latency_ms: Vec<f64>,
    pub rows: u64,
    pub row_insts: u64,
    /// Rows and million instructions per round (per-round rates).
    pub round_rows: Vec<f64>,
    pub round_insts_m: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Outcome {
    fn error(&mut self, e: String) {
        if self.errors.len() < 20 {
            eprintln!("[perfbench] check failed: {e}");
        }
        self.errors.push(e);
    }

    /// Accounts one round: latencies, row counts, failures and the
    /// per-row output checks.
    fn absorb(
        &mut self,
        round: &Round,
        digests: &Digests,
        mut check_row: impl FnMut(&Row) -> Result<(), String>,
    ) {
        self.round_wall_s.push(round.wall_s);
        let (rows0, insts0) = (self.rows, self.row_insts);
        for reply in &round.replies {
            self.attempted += 1;
            self.latency_ms.push(reply.latency_ms);
            match &reply.result {
                Ok(out) => {
                    if out.rows.len() != reply.grid.len() {
                        self.error(format!(
                            "request of {} cells returned {} rows",
                            reply.grid.len(),
                            out.rows.len()
                        ));
                    }
                    for (row, (t, f)) in out.rows.iter().zip(reply.grid.cells()) {
                        if row.trace != t.name || row.frontend != *f {
                            self.error(format!(
                                "row for {} x {} out of grid order",
                                row.trace,
                                row.frontend.label()
                            ));
                        }
                        if let Err(e) = digests.check(row).and_then(|()| check_row(row)) {
                            self.error(e);
                        }
                        self.rows += 1;
                        self.row_insts += row.insts as u64;
                    }
                }
                Err(e) => {
                    self.failed += 1;
                    self.error(format!("client {} request failed: {e}", reply.client));
                }
            }
        }
        self.round_rows.push((self.rows - rows0) as f64);
        self.round_insts_m.push((self.row_insts - insts0) as f64 / 1e6);
    }

    fn done(&self, ctx: &Ctx, started: Instant) -> bool {
        let elapsed = started.elapsed().as_secs_f64();
        let need_requests = !matches!(ctx.workload, Workload::ColdSweep);
        let enough = !need_requests || self.latency_ms.len() >= MIN_REQUESTS;
        !self.round_wall_s.is_empty()
            && elapsed >= ctx.seconds
            && (enough || elapsed >= 3.0 * ctx.seconds)
    }
}

fn request(grid: &Grid, insts: usize) -> SweepRequest {
    SweepRequest {
        traces: grid.traces.iter().map(|t| t.name.to_owned()).collect(),
        frontends: grid.frontends.clone(),
        insts,
        priority: 0,
    }
}

/// Runs two closed-loop clients, each submitting its grids in order and
/// waiting for every reply before sending the next.
pub fn run_clients(endpoint: &Endpoint, insts: usize, per_client: [Vec<Grid>; 2]) -> Round {
    let t0 = Instant::now();
    let replies = std::thread::scope(|scope| {
        let handles: Vec<_> = per_client
            .into_iter()
            .enumerate()
            .map(|(client, grids)| {
                scope.spawn(move || {
                    grids
                        .into_iter()
                        .map(|grid| {
                            let req = request(&grid, insts);
                            let s = Instant::now();
                            let result = xbc_serve::submit(endpoint, &req);
                            let latency_ms = s.elapsed().as_secs_f64() * 1e3;
                            Reply { client, grid, latency_ms, result }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    Round { wall_s: t0.elapsed().as_secs_f64(), replies }
}

/// Distinct (trace, frontend) cells of a round's requests.
pub fn distinct_cells(round: &Round) -> BTreeSet<String> {
    round
        .replies
        .iter()
        .flat_map(|r| r.grid.cells().map(|(t, f)| check::cell_key(t.name, f, 0)))
        .collect()
}

/// Cell counters summed over a round's successful replies.
#[derive(Default)]
pub struct CellCounts {
    pub simulated: u64,
    pub deduped: u64,
    pub captures: u64,
}

pub fn cell_counts(round: &Round) -> CellCounts {
    let mut c = CellCounts::default();
    for b in round.replies.iter().filter_map(|r| r.result.as_ref().ok()).map(|o| &o.bench) {
        c.simulated += b.simulated_cells as u64;
        c.deduped += b.deduped_cells as u64;
        c.captures += b.captures;
    }
    c
}

// ---------------------------------------------------------------- cold

/// A `cold-sweep` round's set-up: the previous round's store emptied,
/// a fresh store opened and the sweep built.
pub struct ColdSetup {
    pub grid: Grid,
    pub store: Arc<Store>,
    pub dir: PathBuf,
    pub sweep: Sweep,
}

pub fn cold_setup(ctx: &Ctx, round: u64) -> Result<ColdSetup, String> {
    let grid = plan::cold_round(ctx.seed, round);
    let dir = ctx.fresh_dir("cold")?;
    let store = open_store(&dir)?;
    let mut sweep = Sweep::new(grid.traces.clone(), grid.frontends.clone(), ctx.insts());
    sweep.threads = THREADS;
    sweep.progress = false;
    let sweep = sweep.with_store(Arc::clone(&store));
    Ok(ColdSetup { grid, store, dir, sweep })
}

/// Runs one cold grid as one request: the `run_with_bench` call.
pub fn cold_exec(setup: &ColdSetup) -> Round {
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| setup.sweep.run_with_bench()))
        .map(|(rows, bench)| SubmitOutcome {
            rows,
            bench,
            store: Some(setup.store.stats()),
            sched: None,
        })
        .map_err(|_| "sweep panicked".to_owned());
    let wall_s = t0.elapsed().as_secs_f64();
    Round {
        wall_s,
        replies: vec![Reply {
            client: 0,
            grid: setup.grid.clone(),
            latency_ms: wall_s * 1e3,
            result,
        }],
    }
}

fn run_cold(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    for round in 0.. {
        let t0 = Instant::now();
        let setup = match cold_setup(ctx, round) {
            Ok(s) => s,
            Err(e) => {
                out.failed += 1;
                out.error(e);
                break;
            }
        };
        out.setup_s.push(t0.elapsed().as_secs_f64());
        let r = cold_exec(&setup);
        out.absorb(&r, &ctx.digests, |_| Ok(()));
        let (captures, distinct) = (cell_counts(&r).captures, setup.grid.traces.len() as u64);
        if r.replies.iter().all(|r| r.result.is_ok()) && captures != distinct {
            out.error(format!("cold round {round}: {captures} captures for {distinct} traces"));
        }
        // The next round's set-up empties the store again.
        if out.done(ctx, started) {
            remove_dir(&setup.dir);
            break;
        }
    }
    out.attempted = out.attempted.max(1);
    out
}

// -------------------------------------------------------------- replay

/// A `replay-serve` set-up: traces captured into a store, daemon up.
pub struct ServeSetup {
    pub grid: Grid,
    pub store: Arc<Store>,
    pub daemon: Daemon,
    pub dir: PathBuf,
    /// Rows stored by set-up (warm-serve only), by cell key.
    pub stored: BTreeMap<String, Row>,
}

impl ServeSetup {
    pub fn teardown(self) -> Result<(), String> {
        let r = self.daemon.stop();
        remove_dir(&self.dir);
        r
    }
}

pub fn replay_setup(ctx: &Ctx, k: usize) -> Result<ServeSetup, String> {
    let grid = plan::replay_run();
    let dir = ctx.fresh_dir(&format!("replay-{k}"))?;
    let store = open_store(&dir)?;
    // Capture on THREADS workers pulling from one queue.
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| -> Result<(), String> {
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(t) = grid.traces.get(i) else { return Ok(()) };
                        store
                            .capture_to_store(t, ctx.insts(), |_, _| {})
                            .map_err(|e| format!("capture {}: {e}", t.name))?;
                    }
                })
            })
            .collect();
        workers.into_iter().try_for_each(|w| w.join().expect("capture worker panicked"))
    })?;
    let daemon = Daemon::start(Arc::clone(&store), dir.join("s.sock"))?;
    Ok(ServeSetup { grid, store, daemon, dir, stored: BTreeMap::new() })
}

/// One replay round: the store holds traces only; two clients submit.
pub fn replay_exec(ctx: &Ctx, setup: &ServeSetup, round: u64) -> Result<Round, String> {
    clear_results(&setup.store)?;
    let grids = plan::replay_round(&setup.grid, ctx.seed, round);
    Ok(run_clients(&setup.daemon.endpoint, ctx.insts(), grids))
}

/// Σ simulated cells over a replay round equals its distinct cells.
pub fn check_replay_accounting(round: &Round) -> Result<(), String> {
    let simulated = cell_counts(round).simulated;
    let distinct = distinct_cells(round).len() as u64;
    if round.replies.iter().all(|r| r.result.is_ok()) && simulated != distinct {
        return Err(format!(
            "replay round simulated {simulated} cells for {distinct} distinct cells"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------- warm

pub fn warm_setup(ctx: &Ctx, k: usize) -> Result<ServeSetup, String> {
    let grid = plan::warm_run(ctx.seed);
    let dir = ctx.fresh_dir(&format!("warm-{k}"))?;
    let store = open_store(&dir)?;
    let mut sweep = Sweep::new(grid.traces.clone(), grid.frontends.clone(), ctx.insts());
    sweep.threads = THREADS;
    sweep.progress = false;
    let rows = sweep.with_store(Arc::clone(&store)).run();
    let stored =
        rows.into_iter().map(|r| (check::cell_key(&r.trace, &r.frontend, r.insts), r)).collect();
    let daemon = Daemon::start(Arc::clone(&store), dir.join("s.sock"))?;
    Ok(ServeSetup { grid, store, daemon, dir, stored })
}

pub fn warm_exec(ctx: &Ctx, setup: &ServeSetup, round: u64) -> Round {
    let grids = [0, 1].map(|c| plan::warm_round(&setup.grid, ctx.seed, round, c));
    run_clients(&setup.daemon.endpoint, ctx.insts(), grids)
}

/// A warm row must be the stored row, byte for byte (`elapsed_ms` too).
pub fn check_warm_row(stored: &BTreeMap<String, Row>, row: &Row) -> Result<(), String> {
    match stored.get(&check::cell_key(&row.trace, &row.frontend, row.insts)) {
        Some(s) if s.to_json(0) == row.to_json(0) => Ok(()),
        Some(_) => Err(format!(
            "served row {} x {} differs from the stored row",
            row.trace,
            row.frontend.label()
        )),
        None => {
            Err(format!("served row {} x {} was never stored", row.trace, row.frontend.label()))
        }
    }
}

/// Repeats set-up [`SETUP_REPEATS`] times, timing each, and keeps the
/// last.
pub fn repeated_setup(
    ctx: &Ctx,
    out: &mut Outcome,
    setup: impl Fn(&Ctx, usize) -> Result<ServeSetup, String>,
) -> Option<ServeSetup> {
    let mut kept = None;
    for k in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        match setup(ctx, k) {
            Ok(s) => {
                out.setup_s.push(t0.elapsed().as_secs_f64());
                if let Some(old) = kept.replace(s) {
                    if let Err(e) = ServeSetup::teardown(old) {
                        out.error(e);
                    }
                }
            }
            Err(e) => {
                out.failed += 1;
                out.error(e);
                return None;
            }
        }
    }
    kept
}

fn run_serve(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let setup = match ctx.workload {
        Workload::ReplayServe => repeated_setup(ctx, &mut out, replay_setup),
        _ => repeated_setup(ctx, &mut out, warm_setup),
    };
    let Some(setup) = setup else {
        out.attempted = out.attempted.max(1);
        return out;
    };
    let started = Instant::now();
    for round in 0.. {
        let r = match ctx.workload {
            Workload::ReplayServe => match replay_exec(ctx, &setup, round) {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    out.error(e);
                    break;
                }
            },
            _ => warm_exec(ctx, &setup, round),
        };
        if ctx.workload == Workload::ReplayServe {
            out.absorb(&r, &ctx.digests, |_| Ok(()));
            if let Err(e) = check_replay_accounting(&r) {
                out.error(e);
            }
        } else {
            out.absorb(&r, &ctx.digests, |row| check_warm_row(&setup.stored, row));
        }
        if out.done(ctx, started) {
            break;
        }
    }
    if let Err(e) = setup.teardown() {
        out.error(e);
    }
    out
}

/// The untraced end-to-end run of `ctx.workload`.
pub fn run(ctx: &Ctx) -> Outcome {
    match ctx.workload {
        Workload::ColdSweep => run_cold(ctx),
        _ => run_serve(ctx),
    }
}
