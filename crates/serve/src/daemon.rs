//! The sweep service daemon.
//!
//! One process holds the content-addressed [`Store`] and a fixed worker
//! pool; clients connect over a Unix-domain or TCP socket (see
//! [`Endpoint`]), submit sweep grids, and stream rows back as cells
//! complete. A request runs through the same [`CellExecutor`] as
//! `xbc_sim::Sweep` — the same result-cache probe, plan, trace
//! acquisition, replay and per-cell [`CellCost`] — so a
//! daemon-simulated row is indistinguishable from a `Sweep`-simulated
//! one, and the `done` trailer's bench is the same fold over cell costs.
//! Only the scheduling differs: cells from *all* concurrent requests
//! drain through one shared [`Scheduler`] (priority classes,
//! round-robin across clients within a class), and each request's rows
//! are reassembled in deterministic trace-major order.
//!
//! **Single-flight dedup.** Concurrent requests overlapping on a cell
//! simulate it once: cells are keyed by the same content hash as the
//! result cache (`result_key`), the first worker to reach a key leads
//! the simulation, and every other request's worker shares the leader's
//! finished row. Before simulating, a leader re-probes the result cache
//! — a concurrent request may have stored the row after this request's
//! cache probe — so a cell is never re-simulated (and its stored
//! `elapsed_ms` never overwritten) just because two clients raced.
//! Shared rows are counted as `deduped_cells`, keeping the accounting
//! identity: summed over concurrent clients, `simulated_cells` equals
//! the number of *distinct* cold cells. Trace capture dedups the same
//! way inside the executor, through [`Store::stream_capture_shared`]'s
//! flight, so summed `captures` equal the distinct cold traces.
//!
//! **Shutdown drains.** A `shutdown` request flips the scheduler into
//! drain mode: new sweeps are refused, but every already-registered
//! cell is simulated and streamed before the workers exit, so a
//! shutdown racing an active sweep reports the remaining cell count in
//! its `bye` line instead of severing the active stream.

use crate::protocol::{self, Request, SweepRequest};
#[cfg(feature = "check")]
use crate::scheduler::MAX_CELL_ATTEMPTS;
use crate::scheduler::{CellTicket, Scheduler};
use crate::transport::{self, Conn, Endpoint, Listener};
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use xbc_sim::{plan, resolve_threads, Cell, CellCost, CellExecutor, Row, SweepBench};
use xbc_store::{Flight, SingleFlight, Store};
use xbc_workload::{standard_traces, TraceSpec};

#[cfg(feature = "check")]
use crate::faults::{FaultInjector, RowFault};

/// How often blocked connection reads wake to check the shutdown flag
/// and idle budget.
const READ_POLL: Duration = Duration::from_millis(200);

/// Daemon configuration for [`serve`] / [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Where to listen: a Unix-domain socket path or a TCP `host:port`
    /// (port 0 binds ephemeral; [`Server::endpoint`] reports the
    /// resolved address).
    pub listen: Endpoint,
    /// Worker threads for the shared cell pool (0 = one per core,
    /// resolved via `xbc_sim::resolve_threads`).
    pub threads: usize,
    /// Shared trace/result store; `None` disables caching (every
    /// request re-simulates, nothing streams).
    pub store: Option<Arc<Store>>,
    /// Emit per-request progress lines to stderr.
    pub progress: bool,
    /// Concurrent-connection cap; excess clients get one `error` line
    /// ("server at capacity") and a clean close instead of a hang.
    pub max_connections: usize,
    /// Close a connection that sends no request for this long
    /// (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// Per-connection send timeout, bounding how long a stalled client
    /// can pin a connection thread mid-row (`None` = block forever).
    pub write_timeout: Option<Duration>,
    /// Fault-injection triggers for this daemon (tests only; the hooks
    /// compile only under the `check` feature).
    #[cfg(feature = "check")]
    pub faults: Option<Arc<FaultInjector>>,
}

impl ServeConfig {
    /// A config with defaults: 0 threads (one per core), no store, no
    /// progress, 64-connection cap, no idle/write timeouts.
    pub fn new(listen: Endpoint) -> ServeConfig {
        ServeConfig {
            listen,
            threads: 0,
            store: None,
            progress: false,
            max_connections: 64,
            idle_timeout: None,
            write_timeout: None,
            #[cfg(feature = "check")]
            faults: None,
        }
    }
}

/// One submitted sweep: the grid, its pending cells, and the slots its
/// connection thread drains in index order.
struct Job {
    client: u64,
    /// Read by the retry path, which only exists under `check` (the
    /// sole source of worker deaths is the fault injector).
    #[cfg_attr(not(feature = "check"), allow(dead_code))]
    priority: u32,
    /// The request's grid and its per-trace slots.
    exec: CellExecutor,
    cells: Vec<Cell>,
    /// The full grid; workers fill cells, the connection thread takes
    /// them in trace-major order as the filled prefix grows.
    rows: Mutex<Vec<Option<Row>>>,
    row_cv: Condvar,
    /// Set when the job cannot finish (worker died twice in a cell);
    /// the connection thread reports it as an `error` line.
    failed: Mutex<Option<String>>,
    /// One cost per cell this request simulated; every other planned
    /// cell was deduped (shared from another request's flight or a late
    /// result-cache hit).
    costs: Mutex<Vec<CellCost>>,
}

impl Job {
    #[cfg_attr(not(feature = "check"), allow(dead_code))]
    fn fail(&self, why: &str) {
        {
            let mut failed = self.failed.lock().expect("job failed lock");
            if failed.is_none() {
                *failed = Some(why.to_owned());
            }
        }
        // Serialize with the connection thread's wait loop: it checks
        // `failed` while holding the rows mutex, so taking (and
        // releasing) that mutex before notifying guarantees the waiter
        // either saw the failure before parking or receives this wake.
        drop(self.rows.lock().expect("job rows lock"));
        self.row_cv.notify_all();
    }
}

/// State shared by the accept loop, connection threads, and workers.
struct Shared {
    endpoint: Endpoint,
    store: Option<Arc<Store>>,
    threads: usize,
    progress: bool,
    max_connections: usize,
    idle_timeout: Option<Duration>,
    sched: Scheduler<Arc<Job>>,
    /// Daemon-wide in-flight table keyed by `result_key` content hash:
    /// the single-flight dedup for concurrently requested cells.
    cell_flights: SingleFlight<Row>,
    shutdown: AtomicBool,
    active_conns: AtomicUsize,
    next_client: AtomicU64,
    #[cfg(feature = "check")]
    faults: Option<Arc<FaultInjector>>,
}

/// Fills a finished cell's slot and wakes the connection thread. `cost`
/// is `None` for a deduped cell.
fn deliver(shared: &Shared, job: &Job, ci: usize, row: Row, cost: Option<CellCost>) {
    match cost {
        Some(cost) => job.costs.lock().expect("job costs lock").push(cost),
        None => shared.sched.note_deduped(1),
    }
    let mut rows = job.rows.lock().expect("job rows lock");
    rows[job.cells[ci].index(job.exec.frontends().len())] = Some(row);
    drop(rows);
    job.row_cv.notify_all();
}

/// Resolves one dispatched cell through the single-flight table: lead
/// the simulation, or share a concurrent leader's row.
fn run_cell(shared: &Shared, job: &Job, ci: usize) {
    let cell = &job.cells[ci];
    let key = job.exec.key(cell);
    loop {
        match shared.cell_flights.join(&key) {
            Flight::Leader(lead) => {
                // Re-probe the result cache before simulating: a
                // concurrent request may have stored this cell after
                // our cache probe. Re-simulating would overwrite the
                // stored row with a different `elapsed_ms` and break
                // byte-identical replay.
                if let Some(row) = job.exec.cached_row(&key) {
                    lead.complete(row.clone());
                    deliver(shared, job, ci, row, None);
                    return;
                }
                let (row, cost) = job.exec.execute(cell, None);
                lead.complete(row.clone());
                deliver(shared, job, ci, row, Some(cost));
                return;
            }
            Flight::Shared(row) => {
                deliver(shared, job, ci, row, None);
                return;
            }
            // The leader died without publishing (injected worker
            // kill); re-race the key — somebody has to do the work.
            Flight::Failed(_) => continue,
        }
    }
}

/// Worker loop: drain the scheduler; exit once it reports drained
/// (drain flag set *and* no queued or running cells — graceful shutdown
/// finishes every accepted request).
fn worker(shared: &Shared) {
    while let Some(CellTicket { job, cell, attempt }) = shared.sched.pop() {
        #[cfg(feature = "check")]
        if let Some(faults) = &shared.faults {
            if faults.take_worker_kill() {
                // The worker "died" inside this cell. Retry the cell
                // once; a second death fails the owning request.
                if attempt + 1 < MAX_CELL_ATTEMPTS {
                    shared.sched.requeue(
                        job.client,
                        job.priority,
                        Arc::clone(&job),
                        cell,
                        attempt + 1,
                    );
                } else {
                    job.fail(&format!(
                        "worker died {MAX_CELL_ATTEMPTS} times in cell {cell}; request failed"
                    ));
                    shared.sched.cancel(job.client);
                    shared.sched.complete();
                }
                continue;
            }
        }
        let _ = attempt;
        run_cell(shared, &job, cell);
        shared.sched.complete();
    }
}

/// Writes one line and flushes.
fn send_line(out: &mut Conn, line: &str) -> std::io::Result<()> {
    writeln!(out, "{line}")?;
    out.flush()
}

/// Streams the job's rows in index order. `Ok(true)` means all rows and
/// the `done` trailer went out; `Ok(false)` means the job failed and an
/// `error` line was sent instead (connection stays usable).
fn stream_rows(
    shared: &Shared,
    job: &Arc<Job>,
    out: &mut Conn,
    wall0: Instant,
    cached_cells: usize,
    stats0: Option<xbc_store::StoreStats>,
) -> std::io::Result<bool> {
    enum Got {
        Row(Row),
        Failed(String),
    }
    let n_fe = job.exec.frontends().len();
    let n_cells = job.exec.traces().len() * n_fe;
    for idx in 0..n_cells {
        let got = {
            let mut slots = job.rows.lock().expect("job rows lock");
            loop {
                if let Some(r) = slots[idx].take() {
                    break Got::Row(r);
                }
                // Checked under the rows mutex (which `Job::fail` also
                // takes before notifying), so the failure wake cannot
                // slip between this check and the wait.
                if let Some(why) = job.failed.lock().expect("job failed lock").clone() {
                    break Got::Failed(why);
                }
                slots = job.row_cv.wait(slots).expect("job row cv");
            }
        };
        let row = match got {
            Got::Row(row) => row,
            Got::Failed(why) => {
                send_line(out, &protocol::error_line(&why))?;
                return Ok(false);
            }
        };
        #[cfg(feature = "check")]
        if let Some(faults) = &shared.faults {
            match faults.next_row_fault() {
                RowFault::None => {}
                RowFault::Delay(ms) => std::thread::sleep(Duration::from_millis(ms)),
                RowFault::Drop => {
                    return Err(std::io::Error::other("injected connection drop"));
                }
                RowFault::Truncate => {
                    let line = protocol::row_line(idx, &row);
                    let bytes = line.as_bytes();
                    out.write_all(&bytes[..bytes.len() / 2])?;
                    out.flush()?;
                    return Err(std::io::Error::other("injected connection truncate"));
                }
            }
        }
        send_line(out, &protocol::row_line(idx, &row))?;
    }

    // Every row has been sent, so every planned cell was delivered:
    // simulated (one cost each) or deduped.
    let costs = job.costs.lock().expect("job costs lock");
    let bench = SweepBench {
        threads: shared.threads,
        traces: job.exec.traces().len(),
        frontends: n_fe,
        total_cells: n_cells,
        cached_cells,
        // The dedup identity: over concurrent clients, simulated_cells
        // sums to the number of distinct cold cells.
        deduped_cells: job.cells.len() - costs.len(),
        wall_ms: wall0.elapsed().as_millis() as u64,
        // The pool is daemon-global, not per-request: per-worker stats
        // are not attributable to one request, so the trailer's worker
        // list is empty by design.
        workers: Vec::new(),
        ..SweepBench::fold(&costs)
    };
    drop(costs);
    let delta = stats0.map(|before| {
        protocol::stats_delta(
            &before,
            &shared.store.as_ref().expect("stats0 implies store").stats(),
        )
    });
    let sched = shared.sched.stats();
    send_line(out, &protocol::done_line(n_cells, &bench, delta.as_ref(), Some(&sched)))?;
    if shared.progress {
        eprintln!(
            "[xbc-serve] client {}: {} cells ({} cached, {} simulated, {} deduped, \
             {} overlapped) in {} ms (queue depth {})",
            job.client,
            n_cells,
            cached_cells,
            bench.simulated_cells,
            bench.deduped_cells,
            bench.overlapped_cells,
            bench.wall_ms,
            sched.queue_depth,
        );
    }
    Ok(true)
}

/// Serves one sweep request on an open connection: probe the result
/// cache, register the missing cells with the scheduler, stream rows
/// back in trace-major index order as the completed prefix grows, close
/// with the `done` trailer (per-request bench + store-stats delta +
/// scheduler snapshot).
fn handle_sweep(
    shared: &Shared,
    out: &mut Conn,
    client: u64,
    req: SweepRequest,
) -> std::io::Result<()> {
    let wall0 = Instant::now();
    let all = standard_traces();
    let mut specs: Vec<TraceSpec> = Vec::with_capacity(req.traces.len());
    for name in &req.traces {
        match all.iter().find(|t| t.name == *name) {
            Some(s) => specs.push(s.clone()),
            None => {
                return send_line(out, &protocol::error_line(&format!("unknown trace: {name}")));
            }
        }
    }
    if specs.is_empty() || req.frontends.is_empty() || req.insts == 0 {
        return send_line(
            out,
            &protocol::error_line("sweep needs at least one trace, one frontend, and insts > 0"),
        );
    }
    let stats0 = shared.store.as_ref().map(|s| s.stats());
    // Probe the result cache and plan the missing cells, exactly as
    // `Sweep::run_with_bench` does.
    let exec = CellExecutor::new(specs, req.frontends, req.insts, shared.store.clone());
    let rows = exec.probe();
    let cells = plan(&rows, exec.frontends().len());
    let cached_cells = rows.len() - cells.len();

    let job = Arc::new(Job {
        client,
        priority: req.priority,
        exec,
        cells,
        rows: Mutex::new(rows),
        row_cv: Condvar::new(),
        failed: Mutex::new(None),
        costs: Mutex::new(Vec::new()),
    });
    if !job.cells.is_empty() {
        if let Err(refused) =
            shared.sched.register(client, req.priority, Arc::clone(&job), 0..job.cells.len())
        {
            return send_line(out, &protocol::error_line(&refused));
        }
    }

    // Stream rows in index order as soon as each is available; cached
    // rows flow out immediately. On any stream error — the client hung
    // up, or a fault severed the connection — drop the client's
    // still-queued cells so one dead client cannot occupy the pool.
    let streamed = stream_rows(shared, &job, out, wall0, cached_cells, stats0);
    if streamed.is_err() {
        shared.sched.cancel(client);
    }
    streamed.map(|_| ())
}

/// Reads one request line, polling so blocked reads observe shutdown
/// and the idle budget. Returns `Ok(None)` on EOF, idle timeout, or
/// daemon drain.
fn read_request_line(
    shared: &Shared,
    reader: &mut BufReader<Conn>,
) -> std::io::Result<Option<String>> {
    // Partial lines accumulate across poll timeouts: read_until appends
    // whatever arrived before the timeout, so the buffer must persist
    // (and must NOT be cleared) between retries.
    let mut buf: Vec<u8> = Vec::new();
    let idle0 = Instant::now();
    loop {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => return Ok(None), // EOF
            Ok(_) => {
                // Requests are not required to be valid UTF-8 — a
                // malformed byte is a parse error, not a dead daemon.
                return Ok(Some(String::from_utf8_lossy(&buf).into_owned()));
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::Acquire) {
                    return Ok(None);
                }
                if let Some(limit) = shared.idle_timeout {
                    if buf.is_empty() && idle0.elapsed() > limit {
                        return Ok(None);
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// One client connection: hello, then serve requests line by line until
/// the client disconnects (or asks for shutdown).
fn handle_connection(shared: &Shared, conn: Conn, client: u64) -> std::io::Result<()> {
    conn.set_read_timeout(Some(READ_POLL))?;
    let mut out = conn.try_clone()?;
    let mut reader = BufReader::new(conn);
    send_line(&mut out, &protocol::hello_line(shared.threads))?;
    while let Some(line) = read_request_line(shared, &mut reader)? {
        if line.trim().is_empty() {
            continue;
        }
        match protocol::parse_request(&line) {
            Err(e) => send_line(&mut out, &protocol::error_line(&e))?,
            Ok(Request::Ping) => send_line(&mut out, &protocol::pong_line())?,
            Ok(Request::Shutdown) => {
                let draining = shared.sched.begin_drain();
                shared.shutdown.store(true, Ordering::Release);
                send_line(&mut out, &protocol::bye_line(draining))?;
                // Unblock the accept loop so it observes the flag.
                transport::connect(&shared.endpoint).ok();
                return Ok(());
            }
            Ok(Request::Sweep(req)) => handle_sweep(shared, &mut out, client, req)?,
        }
    }
    Ok(())
}

/// A bound, not-yet-running daemon. Splitting bind from run lets
/// callers learn the resolved endpoint (TCP port 0) before the accept
/// loop blocks.
pub struct Server {
    listener: Listener,
    config: ServeConfig,
}

impl Server {
    /// Binds the configured endpoint without serving yet.
    ///
    /// # Errors
    ///
    /// Returns the bind error — including "another live daemon already
    /// answers on this Unix socket".
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = Listener::bind(&config.listen)?;
        Ok(Server { listener, config })
    }

    /// The resolved listening endpoint (actual port for TCP `:0`).
    pub fn endpoint(&self) -> &Endpoint {
        self.listener.endpoint()
    }

    /// Runs the daemon: spawns the worker pool and accepts clients
    /// until one of them sends `shutdown`. Queued work is drained
    /// before returning; a Unix socket file is removed on exit.
    ///
    /// # Errors
    ///
    /// Returns the accept-loop IO error if the listener dies.
    pub fn run(self) -> std::io::Result<()> {
        let Server { listener, config } = self;
        let threads = resolve_threads(config.threads);
        let shared = Shared {
            endpoint: listener.endpoint().clone(),
            store: config.store.clone(),
            threads,
            progress: config.progress,
            max_connections: config.max_connections.max(1),
            idle_timeout: config.idle_timeout,
            sched: Scheduler::new(),
            cell_flights: SingleFlight::new(),
            shutdown: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            next_client: AtomicU64::new(1),
            #[cfg(feature = "check")]
            faults: config.faults.clone(),
        };
        if config.progress {
            eprintln!(
                "[xbc-serve] listening on {} ({} workers, store {}, max {} connections)",
                shared.endpoint,
                threads,
                match &shared.store {
                    Some(s) => s.root().display().to_string(),
                    None => "off".to_owned(),
                },
                shared.max_connections,
            );
        }
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| worker(&shared));
            }
            loop {
                let conn = listener.accept();
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                match conn {
                    Ok(conn) => {
                        if shared.active_conns.load(Ordering::Acquire) >= shared.max_connections {
                            let mut conn = conn;
                            let refusal = protocol::error_line(&format!(
                                "server at capacity ({} connections); retry later",
                                shared.max_connections
                            ));
                            send_line(&mut conn, &refusal).ok();
                            continue;
                        }
                        shared.active_conns.fetch_add(1, Ordering::AcqRel);
                        let client = shared.next_client.fetch_add(1, Ordering::Relaxed);
                        if let Some(budget) = config.write_timeout {
                            conn.set_write_timeout(Some(budget)).ok();
                        }
                        let shared = &shared;
                        scope.spawn(move || {
                            if let Err(e) = handle_connection(shared, conn, client) {
                                // A client hanging up mid-response is its
                                // prerogative, not a daemon failure.
                                if shared.progress {
                                    eprintln!("[xbc-serve] client {client} ended: {e}");
                                }
                            }
                            shared.active_conns.fetch_sub(1, Ordering::AcqRel);
                        });
                    }
                    Err(e) => {
                        if shared.progress {
                            eprintln!("[xbc-serve] accept failed: {e}");
                        }
                    }
                }
            }
            // Shutdown: the drain flag is set; wake any workers parked
            // on an empty queue so they observe it.
            shared.sched.begin_drain();
        });
        listener.cleanup();
        if config.progress {
            eprintln!("[xbc-serve] shut down");
        }
        Ok(())
    }
}

/// Binds and runs the daemon — see [`Server`].
///
/// # Errors
///
/// Returns the bind/IO error if the endpoint cannot be set up, or if
/// another live daemon already answers on it.
pub fn serve(config: &ServeConfig) -> std::io::Result<()> {
    Server::bind(config.clone())?.run()
}
