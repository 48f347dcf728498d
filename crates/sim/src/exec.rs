//! The cell executor: the one implementation of the sweep cell model,
//! shared by [`Sweep`](crate::Sweep) and the `xbc-serve` daemon.
//!
//! A sweep is a grid of `(trace, frontend)` cells. Every caller runs it
//! in the same three steps:
//!
//! 1. **Probe** ([`CellExecutor::probe`]) — load each cell's cached row,
//!    evicting undecodable or wrong-count entries.
//! 2. **Plan** ([`plan`]) — list the missing cells trace-major, each
//!    with its rank among its trace's misses.
//! 3. **Execute** ([`CellExecutor::execute`]) — simulate one cell and
//!    return its row plus a [`CellCost`]; callers schedule the cells
//!    however they like and fold the costs into a
//!    [`SweepBench`](crate::SweepBench) with
//!    [`SweepBench::fold`](crate::SweepBench::fold).
//!
//! Trace acquisition has one policy per store mode. **With a store**
//! every cell streams its trace from disk
//! ([`Store::open_trace_stream`]); on a miss the cell leads the trace's
//! streamed capture ([`Store::stream_capture_shared`]) and replays its
//! own cell live off the capture channel, so capture overlaps
//! simulation. **Without a store** the trace's first cell captures it
//! in memory and its sibling cells share that capture by `Arc` — as they
//! do with a store whose entry exists but cannot be opened.

use crate::bench::CellCost;
use crate::report::{rows_from_json, to_json, Row};
use crate::spec::FrontendSpec;
use crate::sweep::result_key;
use std::fs::File;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use xbc_frontend::{Frontend, FrontendMetrics, Reconciler, Replay};
use xbc_obs::VecSink;
use xbc_store::{OverlappedCapture, Store};
use xbc_workload::{Trace, TraceSpec, TraceStream};

/// How many times a cell tries to open a stored trace that a concurrent
/// capture reports as on disk before bypassing the store. Each failed
/// open evicts a corrupt entry, so the next round leads a fresh capture;
/// running out means an entry exists that can neither be opened nor
/// removed (e.g. one the process may not read).
const OPEN_ATTEMPTS: usize = 4;

/// One cell the result cache missed: grid coordinates plus the cell's
/// rank among its trace's `missing` cells, which apportions a shared
/// resident capture's cost deterministically (see [`CellCost`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Index into the executor's traces.
    pub trace: usize,
    /// Index into the executor's frontends.
    pub fe: usize,
    /// 0-based rank among the trace's missing cells.
    pub rank: usize,
    /// Number of the trace's cells that missed the cache.
    pub missing: usize,
}

impl Cell {
    /// The cell's position in a trace-major grid of `n_fe` columns.
    pub fn index(&self, n_fe: usize) -> usize {
        self.trace * n_fe + self.fe
    }
}

/// Lists the cells of a trace-major grid (`rows.len() / n_fe` traces ×
/// `n_fe` frontends) whose row is `None`, trace-major, so each cell's
/// rank among its trace's misses is deterministic.
pub fn plan(rows: &[Option<Row>], n_fe: usize) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (trace, trace_rows) in rows.chunks(n_fe).enumerate() {
        let missing = trace_rows.iter().filter(|r| r.is_none()).count();
        let misses = trace_rows.iter().enumerate().filter(|(_, r)| r.is_none());
        for (rank, (fe, _)) in misses.enumerate() {
            cells.push(Cell { trace, fe, rank, missing });
        }
    }
    cells
}

/// How a trace's cells reach its committed stream, resolved once per
/// executor by the trace's first executed cell.
enum TraceHandle {
    /// No store: captured in memory by the first cell and shared by
    /// `Arc`, with the capture's wall milliseconds.
    Resident(Arc<Trace>, u64),
    /// In the store: the first cell opened (validated) the entry or led
    /// its capture; every cell streams it.
    Stored,
}

/// What a store-backed cell got when it asked for its trace.
enum Acquired<'s> {
    /// A validated stream over the stored entry, and the open's wall
    /// milliseconds.
    Opened(TraceStream<File>, u64),
    /// This cell leads the entry's capture and replays off its channel.
    Leader(OverlappedCapture<'s>),
    /// The entry is on disk but could not be opened [`OPEN_ATTEMPTS`]
    /// times; the cell captures its trace in memory instead.
    Unopenable,
}

/// Executes the cells of one `(traces × frontends × insts)` grid. It
/// holds the grid, the optional store, and one trace slot per trace; a
/// fresh executor per run (or per daemon request) gives each run its
/// own slots.
pub struct CellExecutor {
    traces: Vec<TraceSpec>,
    frontends: Vec<FrontendSpec>,
    insts: usize,
    store: Option<Arc<Store>>,
    check: bool,
    slots: Vec<OnceLock<TraceHandle>>,
}

fn ms_since(t0: Instant) -> u64 {
    t0.elapsed().as_millis() as u64
}

/// The cost of an overlapped leader cell whose wall time `wall` covered
/// its trace's capture (`cap_ms` of capture-thread wall) and its own
/// replay together: the capture's part of the wall is capture, the rest
/// simulation, so the two sum to exactly `wall`. The capture thread
/// starts just before the cell's clock, hence the clamp.
fn overlapped_cost(wall: u64, cap_ms: u64) -> CellCost {
    let capture_ms = cap_ms.min(wall);
    CellCost { capture_ms, sim_ms: wall - capture_ms, captured: true, overlapped: true }
}

/// The capture-cost share of the `rank`-th cell (0-based) among the
/// `missing` cells whose shared capture cost `total_ms`: every cell
/// gets the truncated average, and the first `total_ms % missing` cells
/// get one extra millisecond, so the shares sum to exactly `total_ms`
/// — no remainder is dropped.
fn capture_share(total_ms: u64, missing: usize, rank: usize) -> u64 {
    debug_assert!(rank < missing, "share rank out of range");
    total_ms / missing as u64 + u64::from((rank as u64) < total_ms % missing as u64)
}

impl CellExecutor {
    /// An executor over `traces × frontends` at `insts` instructions per
    /// trace, caching through `store` when one is given.
    pub fn new(
        traces: Vec<TraceSpec>,
        frontends: Vec<FrontendSpec>,
        insts: usize,
        store: Option<Arc<Store>>,
    ) -> CellExecutor {
        let slots = traces.iter().map(|_| OnceLock::new()).collect();
        CellExecutor { traces, frontends, insts, store, check: false, slots }
    }

    /// Replays every cell [`checked`](Replay::checked) (and, on traced
    /// cells, asserts that the event stream folds back to the metrics).
    /// Rows are unchanged.
    pub fn checked(mut self, check: bool) -> CellExecutor {
        self.check = check;
        self
    }

    /// The grid's traces.
    pub fn traces(&self) -> &[TraceSpec] {
        &self.traces
    }

    /// The grid's frontend configurations.
    pub fn frontends(&self) -> &[FrontendSpec] {
        &self.frontends
    }

    /// The result-cache key of `cell`.
    pub fn key(&self, cell: &Cell) -> String {
        result_key(&self.traces[cell.trace], &self.frontends[cell.fe], self.insts)
    }

    /// Loads every cell's cached row, trace-major (see
    /// [`CellExecutor::cached_row`]).
    pub fn probe(&self) -> Vec<Option<Row>> {
        let keys = self
            .traces
            .iter()
            .flat_map(|spec| self.frontends.iter().map(move |fe| result_key(spec, fe, self.insts)));
        keys.map(|key| self.cached_row(&key)).collect()
    }

    /// Loads the cached row stored under `key` (`None` without a store).
    /// A CRC-valid entry that does not decode to exactly one row (e.g.
    /// one written by an older schema) is evicted, so the stale entry
    /// stops costing a recompute on every run, and reads as a miss.
    pub fn cached_row(&self, key: &str) -> Option<Row> {
        let store = self.store.as_ref()?;
        let body = store.load_result(key)?;
        match rows_from_json(&body) {
            Ok(parsed) if parsed.len() == 1 => parsed.into_iter().next(),
            Ok(parsed) => {
                store.evict_result(key, &format!("expected 1 cached row, found {}", parsed.len()));
                None
            }
            Err(e) => {
                store.evict_result(key, &format!("undecodable cached row: {e}"));
                None
            }
        }
    }

    /// Simulates `cell`, stores its row in the result cache (with a
    /// store), and returns the row with its cost. The row's
    /// `elapsed_ms` is [`CellCost::elapsed_ms`]. With `events`, every
    /// cycle's `xbc-obs` events are recorded into it.
    ///
    /// # Panics
    ///
    /// Panics on a livelock or a failed check (with
    /// [`CellExecutor::checked`]).
    pub fn execute(&self, cell: &Cell, mut events: Option<&mut VecSink>) -> (Row, CellCost) {
        let spec = &self.traces[cell.trace];
        let fe = &self.frontends[cell.fe];
        let mut frontend = fe.instantiate();
        let (m, cost) = match &self.store {
            Some(store) => self.replay_stored(store, cell, &mut *frontend, events.as_deref_mut()),
            None => self.replay_storeless(cell, &mut *frontend, events.as_deref_mut()),
        };
        if let (true, Some(sink)) = (self.check, events) {
            assert_eq!(
                Reconciler::fold(sink.events.iter()),
                m,
                "[--check] {} on {}: event stream does not reconcile to metrics",
                fe.label(),
                spec.name
            );
        }
        let mut row = Row::new(spec.name, &spec.suite.to_string(), *fe, self.insts, &m);
        row.elapsed_ms = cost.elapsed_ms();
        if let Some(store) = &self.store {
            store.store_result(&self.key(cell), &to_json(std::slice::from_ref(&row)));
        }
        (row, cost)
    }

    /// Store-less cell: the trace's first cell captures it resident.
    fn replay_storeless(
        &self,
        cell: &Cell,
        fe: &mut dyn Frontend,
        events: Option<&mut VecSink>,
    ) -> (FrontendMetrics, CellCost) {
        let mut captured = false;
        let handle = self.slots[cell.trace].get_or_init(|| {
            captured = true;
            let (trace, cap_ms) = self.capture(cell);
            TraceHandle::Resident(trace, cap_ms)
        });
        let TraceHandle::Resident(trace, cap_ms) = handle else {
            unreachable!("a store-less executor resolves every trace resident")
        };
        self.replay_resident(cell, trace, *cap_ms, captured, fe, events)
    }

    /// Captures `cell`'s trace in memory, with the capture's wall
    /// milliseconds.
    fn capture(&self, cell: &Cell) -> (Arc<Trace>, u64) {
        let c0 = Instant::now();
        let trace = Arc::new(self.traces[cell.trace].capture(self.insts));
        (trace, ms_since(c0))
    }

    /// Replays `cell` from a resident capture that cost `cap_ms` and is
    /// shared by the trace's `missing` cells; the cell takes its
    /// [`capture_share`]. `captured` when this cell made the capture.
    fn replay_resident(
        &self,
        cell: &Cell,
        trace: &Trace,
        cap_ms: u64,
        captured: bool,
        fe: &mut dyn Frontend,
        events: Option<&mut VecSink>,
    ) -> (FrontendMetrics, CellCost) {
        let sim0 = Instant::now();
        let m = self.replay(cell, fe, Replay::resident(trace), events);
        let cost = CellCost {
            capture_ms: capture_share(cap_ms, cell.missing, cell.rank),
            sim_ms: ms_since(sim0),
            captured,
            overlapped: false,
        };
        (m, cost)
    }

    /// Store-backed cell: stream the stored entry, or lead its capture
    /// and replay this cell live off it. An entry that cannot be opened
    /// is bypassed: the trace is captured in memory, shared by the
    /// trace's cells like a store-less capture when its first cell finds
    /// it so.
    fn replay_stored(
        &self,
        store: &Arc<Store>,
        cell: &Cell,
        fe: &mut dyn Frontend,
        events: Option<&mut VecSink>,
    ) -> (FrontendMetrics, CellCost) {
        let spec = &self.traces[cell.trace];
        // The trace's first cell opens the entry under the slot, so its
        // siblings never race it to validate (and evict) the same
        // corrupt file. They wait only for that open, or for a cold
        // entry to be claimed; the capture itself they wait for in the
        // store's capture flight.
        let mut first = None;
        let mut captured = false;
        let handle = self.slots[cell.trace].get_or_init(|| match self.acquire(store, spec) {
            Acquired::Unopenable => {
                captured = true;
                let (trace, cap_ms) = self.capture(cell);
                TraceHandle::Resident(trace, cap_ms)
            }
            acquired => {
                first = Some(acquired);
                TraceHandle::Stored
            }
        });
        if let TraceHandle::Resident(trace, cap_ms) = handle {
            return self.replay_resident(cell, trace, *cap_ms, captured, fe, events);
        }
        match first.unwrap_or_else(|| self.acquire(store, spec)) {
            Acquired::Opened(mut stream, open_ms) => {
                let sim0 = Instant::now();
                let m = self.replay(cell, fe, Replay::streamed(&mut stream), events);
                let cost =
                    CellCost { capture_ms: open_ms, sim_ms: ms_since(sim0), ..CellCost::default() };
                (m, cost)
            }
            Acquired::Leader(mut cap) => {
                let t0 = Instant::now();
                let mut source = cap.take_source();
                let m = self.replay(cell, fe, Replay::streamed(&mut source), events);
                let cap_ms = cap.finish();
                (m, overlapped_cost(ms_since(t0), cap_ms))
            }
            // The entry went bad after the trace's first cell opened it:
            // this cell captures a copy of its own and bears its cost.
            Acquired::Unopenable => {
                let (trace, cap_ms) = self.capture(cell);
                let alone = Cell { rank: 0, missing: 1, ..*cell };
                self.replay_resident(&alone, &trace, cap_ms, true, fe, events)
            }
        }
    }

    /// Opens `spec`'s stored entry or, on a miss, leads its streamed
    /// capture. When the entry turns out to be on disk after all (a
    /// concurrent capture landed it) the cell opens it; an open that
    /// fails then evicted a corrupt entry, so the next round leads its
    /// recapture. An entry still unopenable after [`OPEN_ATTEMPTS`]
    /// rounds is reported (and left for the caller to bypass).
    fn acquire<'s>(&self, store: &'s Arc<Store>, spec: &TraceSpec) -> Acquired<'s> {
        for _ in 0..OPEN_ATTEMPTS {
            let open0 = Instant::now();
            if let Some(stream) = store.open_trace_stream(spec, self.insts) {
                return Acquired::Opened(stream, ms_since(open0));
            }
            if let Some(cap) = store.stream_capture_shared(spec, self.insts) {
                return Acquired::Leader(cap);
            }
        }
        eprintln!(
            "[xbc-sim] stored trace {} x {} insts failed to open {OPEN_ATTEMPTS} times; \
             capturing it in memory",
            spec.name, self.insts
        );
        Acquired::Unopenable
    }

    /// Runs `replay` of `cell` in this executor's mode: traced into
    /// `events` when given, checked with [`CellExecutor::checked`].
    fn replay<'a>(
        &self,
        cell: &Cell,
        fe: &mut dyn Frontend,
        mut replay: Replay<'a>,
        events: Option<&'a mut VecSink>,
    ) -> FrontendMetrics {
        if let Some(sink) = events {
            replay = replay.traced(sink);
        }
        if self.check {
            replay = replay.checked();
        }
        replay.run(fe).unwrap_or_else(|d| {
            let (fe, spec) = (&self.frontends[cell.fe], &self.traces[cell.trace]);
            panic!("{} on {}: {d}", fe.label(), spec.name)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_shares_sum_to_the_measured_time() {
        // The remainder is spread over the first `total % missing`
        // cells, one extra millisecond each, so nothing is dropped.
        for (total, missing) in
            [(0u64, 1usize), (1, 3), (7, 3), (9, 3), (100, 7), (6, 6), (5, 8), (1234, 11)]
        {
            let shares: Vec<u64> = (0..missing).map(|r| capture_share(total, missing, r)).collect();
            assert_eq!(shares.iter().sum::<u64>(), total, "total={total} missing={missing}");
            // Shares are within 1 ms of each other, largest first.
            assert!(shares.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1));
        }
        // Overlapped cells use a different split of the same invariant:
        // the leader's wall clock covers capture and simulation
        // together, the capture attribution is the capture's own wall
        // (clamped to the cell's), and the rest is sim — so the two
        // attributions sum to exactly the measured cell time, never
        // more (a strictly serial split would sum to wall + capture,
        // double-counting the hidden capture).
        for (wall, cap_ms) in [(100u64, 60u64), (100, 100), (50, 80), (0, 0), (7, 0)] {
            let cost = overlapped_cost(wall, cap_ms);
            assert_eq!(cost.capture_ms, cap_ms.min(wall), "wall={wall} cap={cap_ms}");
            assert_eq!(cost.elapsed_ms(), wall, "wall={wall} cap={cap_ms}");
            assert!(cost.captured && cost.overlapped);
        }
    }
}
