//! The traced run: per-layer numbers for one workload.
//!
//! It runs one round of the workload through the program (sweep or
//! daemon) for the trailer counters, then performs the same cells
//! itself, single-threaded, through the public calls the sweep and the
//! daemon make, once untraced and once with a span around every call.
//! The recomputed rows must equal the program's, the store counters of
//! the two passes must agree exactly, and the traced minus untraced
//! pass time is the tracing overhead. Last come timed probes of each
//! layer's public calls on the workload's own traces and columns.

use crate::alloc::allocs_in;
use crate::check::same_simulation;
use crate::plan::Grid;
use crate::spans::{self, Tracer};
use crate::stats::median;
use crate::workloads::{self, Ctx, Round, ServeSetup, Workload, THREADS};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Cursor, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::Instant;
use xbc::{BankMask, XbPtr, XbcArray, XbcConfig};
use xbc_frontend::FrontendMetrics;
use xbc_isa::BranchKind;
use xbc_predict::{Gshare, GshareConfig};
use xbc_sim::json::Json;
use xbc_sim::{FrontendSpec, Row, SweepBench};
use xbc_store::Store;
use xbc_workload::{codec, InstSource, Trace, TraceSpec, TraceStream};

/// Everything the traced run reports.
#[derive(Default)]
pub struct Layered {
    pub metrics: BTreeMap<&'static str, f64>,
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<spans::Span>,
}

impl Layered {
    fn error(&mut self, e: String) {
        eprintln!("[perfbench] check failed: {e}");
        self.errors.push(e);
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Median seconds of `reps` timed calls of `f`.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Seconds per call of `f`, calling it in batches until `budget_s` has
/// passed; the median batch is reported.
fn time_per_call(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let mut batch = 1usize;
    let t0 = Instant::now();
    let mut per_call = Vec::new();
    while t0.elapsed().as_secs_f64() < budget_s || per_call.len() < 3 {
        let b0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        let dt = b0.elapsed().as_secs_f64();
        per_call.push(dt / batch as f64);
        if dt < budget_s / 20.0 {
            batch *= 2;
        }
    }
    median(&per_call)
}

/// A `Write + Seek` sink that keeps no bytes (capture-speed probe).
#[derive(Default)]
struct NullSeek {
    pos: u64,
    len: u64,
}

impl Write for NullSeek {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.pos += buf.len() as u64;
        self.len = self.len.max(self.pos);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Seek for NullSeek {
    fn seek(&mut self, to: SeekFrom) -> std::io::Result<u64> {
        self.pos = match to {
            SeekFrom::Start(p) => p,
            SeekFrom::End(d) => self.len.saturating_add_signed(d),
            SeekFrom::Current(d) => self.pos.saturating_add_signed(d),
        };
        Ok(self.pos)
    }
}

/// The span name of a replay: XBC lives in the `xbc` core crate, the
/// baselines in `xbc-frontend`.
fn replay_span(fe: &FrontendSpec) -> &'static str {
    match fe {
        FrontendSpec::Xbc { .. } => "core.run_streamed",
        _ => "frontend.run_streamed",
    }
}

/// The distinct cells of a program round, in a deterministic order,
/// with the row the program returned for each.
fn round_cells(round: &Round, traces: &[TraceSpec]) -> Vec<(TraceSpec, FrontendSpec, Row)> {
    let mut by_key: BTreeMap<(usize, String), (TraceSpec, FrontendSpec, Row)> = BTreeMap::new();
    for reply in &round.replies {
        let Ok(out) = &reply.result else { continue };
        for ((t, f), row) in reply.grid.cells().zip(&out.rows) {
            let ti = traces.iter().position(|x| x.name == t.name).unwrap_or(usize::MAX);
            by_key.entry((ti, f.key())).or_insert_with(|| (t.clone(), *f, row.clone()));
        }
    }
    by_key.into_values().collect()
}

/// One pass over the cells through the public calls, recording a span
/// per call when `tracer` is enabled. Returns the recomputed rows.
fn pass(
    ctx: &Ctx,
    tracer: &mut Tracer,
    store: &Store,
    cells: &[(TraceSpec, FrontendSpec, Row)],
) -> Result<Vec<Row>, String> {
    let insts = ctx.insts();
    let mut rows = Vec::new();
    let mut captured: Vec<&str> = Vec::new();
    for (req, (spec, fe, _)) in cells.iter().enumerate() {
        let req = req as u64;
        let row = tracer.span("perfbench.cell", req, |tr| -> Result<Row, String> {
            let key = xbc_sim::result_key(spec, fe, insts);
            if ctx.workload == Workload::WarmServe {
                let body = tr
                    .span("store.load_result", req, |_| store.load_result(&key))
                    .ok_or_else(|| format!("stored row {} x {} missing", spec.name, fe.label()))?;
                let parsed =
                    tr.span("sim.rows_from_json", req, |_| xbc_sim::rows_from_json(&body))?;
                let row = parsed.into_iter().next().ok_or("stored entry holds no row")?;
                let line =
                    tr.span("serve.row_line", req, |_| xbc_serve::protocol::row_line(0, &row));
                return tr.span("serve.row_from_json", req, |_| {
                    let j = Json::parse(&line).map_err(|e| e.to_string())?;
                    Row::from_json(j.get("row").ok_or("row line without row")?)
                });
            }
            if ctx.workload == Workload::ColdSweep && !captured.contains(&spec.name) {
                tr.span("store.capture_to_store", req, |_| {
                    store.capture_to_store(spec, insts, |_, _| {})
                })
                .map_err(|e| format!("capture {}: {e}", spec.name))?;
                captured.push(spec.name);
            } else if tr.span("store.load_result", req, |_| store.load_result(&key)).is_some() {
                return Err(format!("cell {} x {} unexpectedly cached", spec.name, fe.label()));
            }
            let mut stream = tr
                .span("store.open_trace_stream", req, |_| store.open_trace_stream(spec, insts))
                .ok_or_else(|| format!("trace {} missing from the store", spec.name))?;
            let m = tr.span(replay_span(fe), req, |_| fe.instantiate().run_streamed(&mut stream));
            let row = Row::new(spec.name, &spec.suite.to_string(), *fe, insts, &m);
            let body =
                tr.span("sim.to_json", req, |_| xbc_sim::to_json(std::slice::from_ref(&row)));
            tr.span("store.store_result", req, |_| store.store_result(&key, &body));
            Ok(row)
        })?;
        rows.push(row);
    }
    Ok(rows)
}

/// What the program round ran on: a cold sweep's store, or a serve
/// workload's store and daemon.
enum Harness {
    Cold(workloads::ColdSetup),
    Serve(ServeSetup),
}

impl Harness {
    fn store(&self) -> &Store {
        match self {
            Harness::Cold(c) => &c.store,
            Harness::Serve(s) => &s.store,
        }
    }

    fn traces(&self) -> &[TraceSpec] {
        match self {
            Harness::Cold(c) => &c.grid.traces,
            Harness::Serve(s) => &s.grid.traces,
        }
    }

    fn teardown(self) -> Result<(), String> {
        match self {
            Harness::Cold(c) => {
                workloads::remove_dir(&c.dir);
                Ok(())
            }
            Harness::Serve(s) => s.teardown(),
        }
    }
}

/// Runs round 0 of the workload through the program.
fn program_round(ctx: &Ctx) -> Result<(Harness, Round), String> {
    Ok(match ctx.workload {
        Workload::ColdSweep => {
            let setup = workloads::cold_setup(ctx, 0)?;
            let round = workloads::cold_exec(&setup);
            (Harness::Cold(setup), round)
        }
        Workload::ReplayServe => {
            let setup = workloads::replay_setup(ctx, 0)?;
            let round = workloads::replay_exec(ctx, &setup, 0);
            (Harness::Serve(setup), round?)
        }
        Workload::WarmServe => {
            let setup = workloads::warm_setup(ctx, 0)?;
            let round = workloads::warm_exec(ctx, &setup, 0);
            (Harness::Serve(setup), round)
        }
    })
}

/// Scheduler numbers from the round's trailers: capture/sim split,
/// overlap, worker utilization and queue wait (threads × wall − busy).
fn sim_metrics(out: &mut Layered, round: &Round) {
    let benches: Vec<&SweepBench> =
        round.replies.iter().filter_map(|r| r.result.as_ref().ok()).map(|o| &o.bench).collect();
    let capture_ms: u64 = benches.iter().map(|b| b.capture_ms).sum();
    let sim_ms: u64 = benches.iter().map(|b| b.sim_ms).sum();
    let overlap_ms: u64 = benches.iter().map(|b| b.overlap_ms).sum();
    // The sweep reports per-worker busy time; the daemon's trailers do
    // not, so there busy time is the cells' capture + sim time.
    let worker_busy: u64 = benches.iter().flat_map(|b| &b.workers).map(|w| w.busy_ms).sum();
    let busy = if worker_busy > 0 { worker_busy } else { capture_ms + sim_ms } as f64;
    let capacity = THREADS as f64 * round.wall_s * 1e3;
    out.set("sim.capture_ms", capture_ms as f64);
    out.set("sim.sim_ms", sim_ms as f64);
    out.set(
        "sim.overlap_fraction",
        if capture_ms == 0 { 0.0 } else { overlap_ms as f64 / capture_ms as f64 },
    );
    out.set("sim.worker_utilization", busy / capacity);
    out.set("sim.queue_wait_ms", (capacity - busy).max(0.0));
}

/// Daemon-side numbers: request overhead over the trailer wall time,
/// dedup and queue counters, ping round trip.
fn serve_metrics(out: &mut Layered, round: &Round, endpoint: &xbc_serve::Endpoint) {
    let ok: Vec<_> =
        round.replies.iter().filter_map(|r| r.result.as_ref().ok().map(|o| (r, o))).collect();
    let overhead: Vec<f64> =
        ok.iter().map(|(r, o)| r.latency_ms - o.bench.wall_ms as f64).collect();
    let counts = workloads::cell_counts(round);
    out.set("serve.request_overhead_ms", median(&overhead));
    out.set("serve.simulated_cells", counts.simulated as f64);
    out.set("serve.deduped_cells", counts.deduped as f64);
    let depth = ok.iter().filter_map(|(_, o)| o.sched.as_ref()).map(|s| s.queue_depth).max();
    out.set("serve.queue_depth_max", depth.unwrap_or(0) as f64);
    let rtt: Vec<f64> = (0..50)
        .filter_map(|_| {
            let t0 = Instant::now();
            xbc_serve::ping(endpoint).ok().map(|()| t0.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    if rtt.len() != 50 {
        out.error(format!("{} of 50 pings failed", 50 - rtt.len()));
    }
    out.set("serve.ping_rtt_us", median(&rtt));
}

/// Untraced/traced pass pairs per traced run.
const PASS_PAIRS: usize = 3;

/// The untraced and traced passes plus their checks.
fn passes(
    ctx: &Ctx,
    out: &mut Layered,
    store: &Store,
    cells: &[(TraceSpec, FrontendSpec, Row)],
) -> Result<(), String> {
    let mut deltas = Vec::new();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut tracer = Tracer::new(false);
    // Untraced and traced passes alternate, so a host slowdown hits
    // both sides of the overhead alike.
    for traced in [false, true].repeat(PASS_PAIRS) {
        match ctx.workload {
            Workload::ColdSweep => {
                // Each pass starts from an empty store directory.
                let dir = store.root().to_path_buf();
                workloads::remove_dir(&dir.join("traces"));
                workloads::remove_dir(&dir.join("results"));
                std::fs::create_dir_all(dir.join("traces")).map_err(|e| e.to_string())?;
                std::fs::create_dir_all(dir.join("results")).map_err(|e| e.to_string())?;
            }
            Workload::ReplayServe => workloads::clear_results(store)?,
            Workload::WarmServe => {}
        }
        tracer = Tracer::new(traced);
        let before = store.stats();
        let t0 = Instant::now();
        let rows = pass(ctx, &mut tracer, store, cells)?;
        let wall = t0.elapsed().as_secs_f64();
        if traced { &mut traced_s } else { &mut untraced_s }.push(wall);
        deltas.push(xbc_serve::protocol::stats_delta(&before, &store.stats()));
        for (row, (spec, fe, program)) in rows.iter().zip(cells) {
            let same = if ctx.workload == Workload::WarmServe {
                row.to_json(0) == program.to_json(0)
            } else {
                same_simulation(row, program)
            };
            if !same {
                out.error(format!(
                    "recomputed {} x {} differs from the program's row",
                    spec.name,
                    fe.label()
                ));
            }
        }
    }
    if let Some(other) = deltas.iter().find(|d| **d != deltas[0]) {
        out.error(format!(
            "store counters differ between identical passes: {:?} vs {other:?}",
            deltas[0]
        ));
    }
    let d = deltas[0];
    let n = cells.len().max(1) as f64;
    out.set("store.bytes_read_per_cell", d.bytes_read as f64 / n);
    out.set("store.bytes_written_per_cell", d.bytes_written as f64 / n);
    let probes = d.result_hits + d.result_misses;
    out.set(
        "store.result_hit_ratio",
        if probes == 0 { 0.0 } else { d.result_hits as f64 / probes as f64 },
    );
    let untraced = median(&untraced_s);
    out.set("trace.overhead_pct", 100.0 * (median(&traced_s) - untraced) / untraced);
    let layers = spans::layer_self_ms(tracer.spans());
    for (layer, name) in [
        ("perfbench", "selftime.perfbench_ms"),
        ("store", "selftime.store_ms"),
        ("frontend", "selftime.frontend_ms"),
        ("core", "selftime.core_ms"),
        ("sim", "selftime.sim_ms"),
        ("serve", "selftime.serve_ms"),
    ] {
        out.set(name, layers.get(layer).copied().unwrap_or(0.0));
    }
    spans::validate(tracer.spans())?;
    out.spans = tracer.spans().to_vec();
    Ok(())
}

/// The workload's column of each frontend family, or the paper's
/// default size when the workload has none.
fn family_columns(columns: &[FrontendSpec]) -> [(&'static str, FrontendSpec); 5] {
    let pick = |want: fn(&FrontendSpec) -> bool, default: FrontendSpec| {
        columns.iter().copied().find(want).unwrap_or(default)
    };
    [
        ("ic", FrontendSpec::Ic),
        (
            "uopcache",
            pick(
                |c| matches!(c, FrontendSpec::UopCache { .. }),
                FrontendSpec::UopCache { total_uops: 2048 },
            ),
        ),
        (
            "bbtc",
            pick(
                |c| matches!(c, FrontendSpec::Bbtc { .. }),
                FrontendSpec::Bbtc { total_uops: 32 * 1024 },
            ),
        ),
        ("tc", pick(|c| matches!(c, FrontendSpec::Tc { .. }), FrontendSpec::tc_default())),
        ("xbc", pick(|c| matches!(c, FrontendSpec::Xbc { .. }), FrontendSpec::xbc_default())),
    ]
}

const REPLAY_METRICS: [[&str; 3]; 5] = [
    [
        "frontend.ic.replay_muops_per_s",
        "frontend.ic.streamed_muops_per_s",
        "frontend.ic.allocs_per_replay",
    ],
    [
        "frontend.uopcache.replay_muops_per_s",
        "frontend.uopcache.streamed_muops_per_s",
        "frontend.uopcache.allocs_per_replay",
    ],
    [
        "frontend.bbtc.replay_muops_per_s",
        "frontend.bbtc.streamed_muops_per_s",
        "frontend.bbtc.allocs_per_replay",
    ],
    [
        "frontend.tc.replay_muops_per_s",
        "frontend.tc.streamed_muops_per_s",
        "frontend.tc.allocs_per_replay",
    ],
    ["core.xbc.replay_muops_per_s", "core.xbc.streamed_muops_per_s", "core.xbc.allocs_per_replay"],
];

fn stream_of(bytes: &[u8]) -> TraceStream<Cursor<&[u8]>> {
    TraceStream::new(Cursor::new(bytes)).expect("captured bytes decode")
}

/// Timed probes of each layer's public calls on the workload's trace.
fn probes(
    ctx: &Ctx,
    out: &mut Layered,
    spec: &TraceSpec,
    columns: &[FrontendSpec],
    rows: &[Row],
) -> Result<(), String> {
    let insts = ctx.insts();
    let minsts = insts as f64 / 1e6;

    // workload: capture, XBT1 decode, CRC.
    let capture_s = time_median(3, || spec.capture_streamed(insts, NullSeek::default(), |_, _| {}));
    out.set("workload.capture_minsts_per_s", minsts / capture_s);
    let mut cursor = Cursor::new(Vec::new());
    spec.capture_streamed(insts, &mut cursor, |_, _| {}).map_err(|e| e.to_string())?;
    let bytes = cursor.into_inner();
    let decode_s = time_median(3, || {
        let mut s = stream_of(&bytes);
        let mut n = 0u64;
        while let Some(d) = s.next_inst() {
            n += u64::from(d.taken);
        }
        n
    });
    out.set("workload.decode_minsts_per_s", minsts / decode_s);
    let crc_s = time_per_call(0.1, || {
        black_box(codec::crc32(black_box(&bytes)));
    });
    out.set("workload.crc_gb_per_s", bytes.len() as f64 / crc_s / 1e9);

    // frontend / core: resident and streamed replay, allocations.
    let trace = Trace::load(Cursor::new(&bytes[..])).map_err(|e| e.to_string())?;
    let uops = trace.uop_count() as f64;
    for ((family, fe), names) in family_columns(columns).into_iter().zip(REPLAY_METRICS) {
        let mut m = FrontendMetrics::default();
        let resident_s = time_median(1, || m = fe.instantiate().run(&trace));
        let mut ms = FrontendMetrics::default();
        let streamed_s =
            time_median(1, || ms = fe.instantiate().run_streamed(&mut stream_of(&bytes)));
        if m != ms {
            out.error(format!("{family}: streamed replay metrics differ from resident replay"));
        }
        let (a1, _) = allocs_in(|| fe.instantiate().run(&trace));
        let (a2, _) = allocs_in(|| fe.instantiate().run(&trace));
        if a1 != a2 {
            out.error(format!("{family}: allocations per replay not exact ({a1} vs {a2})"));
        }
        out.set(names[0], uops / resident_s / 1e6);
        out.set(names[1], uops / streamed_s / 1e6);
        out.set(names[2], a1 as f64);
        if family == "xbc" {
            out.set("core.xbc.host_ns_per_sim_cycle", resident_s * 1e9 / m.cycles.max(1) as f64);
            // obs: a NullSink run_traced against run, sampled interleaved.
            let (mut plain, mut null) = (Vec::new(), Vec::new());
            for _ in 0..3 {
                plain.push(time_median(1, || fe.instantiate().run(&trace)));
                null.push(time_median(1, || {
                    fe.instantiate().run_traced(&trace, &mut xbc_obs::NullSink)
                }));
            }
            out.set("obs.null_sink_overhead_pct", 100.0 * (median(&null) / median(&plain) - 1.0));
        }
    }

    // core: XB insert + fetch on the trace's own instruction groups.
    let cfg = XbcConfig { total_uops: 8192, ..XbcConfig::default() };
    let groups: Vec<(xbc_isa::Addr, Vec<xbc_isa::Uop>)> = trace
        .insts()
        .chunks(3)
        .take(256)
        .map(|c| {
            (
                c[0].inst.ip,
                c.iter().flat_map(|d| xbc_isa::decode(&d.inst)).take(16).collect::<Vec<_>>(),
            )
        })
        .filter(|(_, u)| !u.is_empty())
        .collect();
    let per_round = time_per_call(0.1, || {
        let mut a = XbcArray::new(&cfg);
        for (ip, u) in &groups {
            let mask = a.insert(*ip, u, 0, BankMask::EMPTY, BankMask::EMPTY);
            let mut used = BankMask::EMPTY;
            black_box(a.fetch_one(&XbPtr::new(*ip, *ip, mask, u.len() as u8), &mut used));
        }
    });
    out.set("core.array_insert_fetch_ns", per_round * 1e9 / groups.len().max(1) as f64);

    // predict: gshare updates over the trace's conditional branches.
    let branches: Vec<(xbc_isa::Addr, bool)> = trace
        .insts()
        .iter()
        .filter(|d| d.inst.branch == BranchKind::CondDirect)
        .map(|d| (d.inst.ip, d.taken))
        .collect();
    let per_pass = time_per_call(0.1, || {
        let mut g = Gshare::new(GshareConfig::default());
        for &(ip, taken) in &branches {
            black_box(g.update(ip, taken));
        }
    });
    out.set("predict.gshare_update_ns", per_pass * 1e9 / branches.len().max(1) as f64);

    // store: capture, stream open (with its validation scan), row
    // store and load, on a scratch store.
    let dir = ctx.fresh_dir("probe-store")?;
    let store = workloads::open_store(&dir)?;
    let cap = time_median(1, || store.capture_to_store(spec, insts, |_, _| {}));
    out.set("store.capture_to_store_ms", cap * 1e3);
    let open = time_median(5, || store.open_trace_stream(spec, insts).is_some());
    out.set("store.open_trace_stream_ms", open * 1e3);
    let keyed: Vec<(String, String)> = rows
        .iter()
        .map(|r| {
            (
                format!("probe|{}|{}", r.trace, r.frontend.key()),
                xbc_sim::to_json(std::slice::from_ref(r)),
            )
        })
        .collect();
    let store_us: Vec<f64> =
        keyed.iter().map(|(k, b)| time_median(1, || store.store_result(k, b)) * 1e6).collect();
    let load_us: Vec<f64> =
        keyed.iter().map(|(k, _)| time_median(1, || store.load_result(k)) * 1e6).collect();
    out.set("store.store_result_us", median(&store_us));
    out.set("store.load_result_us", median(&load_us));
    drop(store);
    workloads::remove_dir(&dir);

    // sim / serve row encodings over the program's rows.
    let per = |f: &mut dyn FnMut(&Row)| {
        time_per_call(0.05, || rows.iter().for_each(&mut *f)) * 1e6 / rows.len() as f64
    };
    out.set(
        "sim.row_to_json_us",
        per(&mut |r| {
            black_box(xbc_sim::to_json(std::slice::from_ref(r)));
        }),
    );
    out.set(
        "serve.row_line_us",
        per(&mut |r| {
            black_box(xbc_serve::protocol::row_line(0, r));
        }),
    );
    let lines: Vec<String> = rows.iter().map(|r| xbc_serve::protocol::row_line(0, r)).collect();
    let parse_s = time_per_call(0.05, || {
        for l in &lines {
            let j = Json::parse(l).expect("row line parses");
            black_box(Row::from_json(j.get("row").expect("row field")).expect("row decodes"));
        }
    });
    out.set("serve.row_from_json_us", parse_s * 1e6 / lines.len() as f64);
    Ok(())
}

/// The traced run of `ctx.workload`.
pub fn run(ctx: &Ctx) -> Layered {
    let mut out = Layered::default();
    if let Err(e) = traced(ctx, &mut out) {
        out.failed += 1;
        out.error(e);
    }
    out.attempted = out.attempted.max(1);
    out
}

fn traced(ctx: &Ctx, out: &mut Layered) -> Result<(), String> {
    let (harness, round) = program_round(ctx)?;
    let result = measure(ctx, out, &harness, &round);
    let teardown = harness.teardown();
    result.and(teardown)
}

/// Serves a freshly swept store to two clients, checking that the
/// served rows are the swept rows, for the daemon numbers of
/// `cold-sweep`.
fn serve_swept(
    ctx: &Ctx,
    out: &mut Layered,
    cold: &workloads::ColdSetup,
    cells: &[(TraceSpec, FrontendSpec, Row)],
) -> Result<(), String> {
    let daemon = workloads::Daemon::start(cold.store.clone(), cold.dir.join("s.sock"))?;
    let traces = &cold.grid.traces;
    let half = |r: std::ops::Range<usize>| {
        vec![Grid { traces: traces[r].to_vec(), frontends: cold.grid.frontends.clone() }]
    };
    let n = traces.len();
    let round =
        workloads::run_clients(&daemon.endpoint, ctx.insts(), [half(0..n / 2), half(n / 2..n)]);
    for reply in &round.replies {
        let Ok(served) = &reply.result else { continue };
        for row in &served.rows {
            let swept = cells.iter().find(|(t, f, _)| t.name == row.trace && *f == row.frontend);
            if swept.is_none_or(|(_, _, r)| r.to_json(0) != row.to_json(0)) {
                out.error(format!(
                    "served {} x {} differs from the swept row",
                    row.trace,
                    row.frontend.label()
                ));
            }
        }
    }
    serve_metrics(out, &round, &daemon.endpoint);
    daemon.stop()
}

fn measure(ctx: &Ctx, out: &mut Layered, harness: &Harness, round: &Round) -> Result<(), String> {
    for reply in &round.replies {
        out.attempted += 1;
        if let Err(e) = &reply.result {
            out.failed += 1;
            out.error(format!("program request failed: {e}"));
        }
    }
    match harness {
        Harness::Cold(cold) => {
            let captures = workloads::cell_counts(round).captures;
            if captures != cold.grid.traces.len() as u64 {
                out.error(format!(
                    "{captures} captures for {} distinct traces",
                    cold.grid.traces.len()
                ));
            }
        }
        Harness::Serve(_) if ctx.workload == Workload::ReplayServe => {
            workloads::check_replay_accounting(round)?;
        }
        Harness::Serve(_) => {}
    }
    sim_metrics(out, round);
    let cells = round_cells(round, harness.traces());
    for (_, _, row) in &cells {
        ctx.digests.check(row)?;
    }
    // Daemon numbers: the serve workloads' own daemon; cold-sweep
    // serves its freshly swept store to two clients.
    match harness {
        Harness::Serve(setup) => serve_metrics(out, round, &setup.daemon.endpoint),
        Harness::Cold(cold) => serve_swept(ctx, out, cold, &cells)?,
    }
    passes(ctx, out, harness.store(), &cells)?;
    let rows: Vec<Row> = cells.iter().map(|(_, _, r)| r.clone()).collect();
    let columns: Vec<FrontendSpec> = cells.iter().map(|(_, f, _)| *f).collect();
    let first = &cells.first().ok_or("the program round returned no rows")?.0;
    probes(ctx, out, first, &columns, &rows)
}

/// Writes the spans and re-reads them to confirm the file is well
/// formed.
pub fn write_spans(path: &Path, spans: &[spans::Span]) -> Result<(), String> {
    std::fs::write(path, spans::to_jsonl(spans))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    spans::validate(&spans::from_jsonl(&text)?)
}
