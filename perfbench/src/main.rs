//! perfbench — the repository benchmark.
//!
//! ```text
//! perfbench --workload <cold-sweep|replay-serve|warm-serve> --seed N --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload untraced for `S` seconds and
//! prints the end-to-end metrics; with `--trace 1` it runs the traced
//! per-layer pass (see `layers.rs`) and prints the per-layer metrics.
//! Either way the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; a failed output check exits 1.
//! Provenance and each metric's quartiles go to
//! `.perfbench_out/<workload>-seed<N>-trace<T>.json`, spans of a traced
//! run to `.perfbench_out/spans-<workload>-seed<N>.jsonl`.
//!
//! `--tiny` shrinks every workload for smoke tests; `--write-digests
//! PATH` regenerates the committed row digests.

mod alloc;
mod check;
mod layers;
mod plan;
mod spans;
mod stats;
mod workloads;

use stats::{percentile, summarize, Summary};
use std::fmt::Write as _;
use std::path::PathBuf;
use workloads::{Ctx, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_minsts_per_s", "Minsts/s"),
    ("rows_per_s", "rows/s"),
    ("req_p50_ms", "ms"),
    ("req_p90_ms", "ms"),
    ("peak_heap_mib", "MiB"),
];

/// Per-layer metrics of the traced run: (name, unit).
pub const PER_LAYER: [(&str, &str); 49] = [
    ("workload.capture_minsts_per_s", "Minsts/s"),
    ("workload.decode_minsts_per_s", "Minsts/s"),
    ("workload.crc_gb_per_s", "GB/s"),
    ("store.capture_to_store_ms", "ms"),
    ("store.open_trace_stream_ms", "ms"),
    ("store.load_result_us", "us"),
    ("store.store_result_us", "us"),
    ("store.bytes_read_per_cell", "bytes"),
    ("store.bytes_written_per_cell", "bytes"),
    ("store.result_hit_ratio", "ratio"),
    ("frontend.ic.replay_muops_per_s", "Muops/s"),
    ("frontend.ic.streamed_muops_per_s", "Muops/s"),
    ("frontend.ic.allocs_per_replay", "count"),
    ("frontend.uopcache.replay_muops_per_s", "Muops/s"),
    ("frontend.uopcache.streamed_muops_per_s", "Muops/s"),
    ("frontend.uopcache.allocs_per_replay", "count"),
    ("frontend.bbtc.replay_muops_per_s", "Muops/s"),
    ("frontend.bbtc.streamed_muops_per_s", "Muops/s"),
    ("frontend.bbtc.allocs_per_replay", "count"),
    ("frontend.tc.replay_muops_per_s", "Muops/s"),
    ("frontend.tc.streamed_muops_per_s", "Muops/s"),
    ("frontend.tc.allocs_per_replay", "count"),
    ("core.xbc.replay_muops_per_s", "Muops/s"),
    ("core.xbc.streamed_muops_per_s", "Muops/s"),
    ("core.xbc.allocs_per_replay", "count"),
    ("core.xbc.host_ns_per_sim_cycle", "ns"),
    ("core.array_insert_fetch_ns", "ns"),
    ("predict.gshare_update_ns", "ns"),
    ("obs.null_sink_overhead_pct", "%"),
    ("sim.capture_ms", "ms"),
    ("sim.sim_ms", "ms"),
    ("sim.overlap_fraction", "ratio"),
    ("sim.worker_utilization", "ratio"),
    ("sim.queue_wait_ms", "ms"),
    ("sim.row_to_json_us", "us"),
    ("serve.request_overhead_ms", "ms"),
    ("serve.ping_rtt_us", "us"),
    ("serve.row_line_us", "us"),
    ("serve.row_from_json_us", "us"),
    ("serve.simulated_cells", "count"),
    ("serve.deduped_cells", "count"),
    ("serve.queue_depth_max", "count"),
    ("selftime.perfbench_ms", "ms"),
    ("selftime.store_ms", "ms"),
    ("selftime.frontend_ms", "ms"),
    ("selftime.core_ms", "ms"),
    ("selftime.sim_ms", "ms"),
    ("selftime.serve_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Result<Args, PathBuf>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--tiny" => tiny = true,
            "--write-digests" => return Ok(Err(PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        tiny,
    }))
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", xbc_sim::json::escape(s))
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// One reported metric: value plus the spread of its samples.
struct Reported {
    name: &'static str,
    unit: &'static str,
    value: f64,
    spread: Summary,
}

fn end_to_end(out: &workloads::Outcome) -> Vec<Reported> {
    let wall: f64 = out.round_wall_s.iter().sum();
    let per_round =
        |v: &[f64]| -> Vec<f64> { v.iter().zip(&out.round_wall_s).map(|(x, w)| x / w).collect() };
    let heap = alloc::peak_heap_bytes() as f64 / (1024.0 * 1024.0);
    let values = [
        (stats::median(&out.setup_s), summarize(&out.setup_s)),
        (stats::median(&out.round_wall_s), summarize(&out.round_wall_s)),
        (out.row_insts as f64 / 1e6 / wall, summarize(&per_round(&out.round_insts_m))),
        (out.rows as f64 / wall, summarize(&per_round(&out.round_rows))),
        (stats::median(&out.latency_ms), summarize(&out.latency_ms)),
        (percentile(&out.latency_ms, 0.9), summarize(&out.latency_ms)),
        (heap, summarize(&[heap])),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, spread))| Reported { name, unit, value, spread })
        .collect()
}

fn per_layer(l: &layers::Layered) -> Vec<Reported> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = l.metrics.get(name).copied().unwrap_or(f64::NAN);
            Reported { name, unit, value, spread: summarize(&[value]) }
        })
        .collect()
}

fn write_digests(path: &PathBuf) -> Result<(), String> {
    use xbc_sim::Sweep;
    let mut rows = Vec::new();
    let pools = [
        (plan::cheap_pool(), 1_000_000),
        (plan::expensive_pool(), 1_000_000),
        ([plan::cheap_pool(), plan::expensive_pool()].concat(), 200_000),
    ];
    for (columns, insts) in pools {
        // One trace per sweep keeps a single resident trace alive.
        for spec in xbc_workload::standard_traces() {
            let mut sweep = Sweep::new(vec![spec.clone()], columns.clone(), insts);
            sweep.threads = workloads::THREADS;
            sweep.progress = false;
            rows.extend(sweep.run());
            eprintln!("[perfbench] digests: {} at {insts}", spec.name);
        }
    }
    std::fs::write(path, check::render_digests(&rows)).map_err(|e| e.to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(Ok(a)) => a,
        Ok(Err(path)) => {
            if let Err(e) = write_digests(&path) {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            }
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".perfbench_work").join(std::process::id().to_string());
    let out_dir = PathBuf::from(".perfbench_out");
    for d in [&work, &out_dir] {
        if let Err(e) = std::fs::create_dir_all(d) {
            eprintln!("perfbench: create {}: {e}", d.display());
            std::process::exit(2);
        }
    }
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        tiny: args.tiny,
        work: work.clone(),
        digests: check::Digests::load(!args.tiny),
    };

    let (reported, attempted, failed, mut errors, samples) = if args.trace {
        let l = layers::run(&ctx);
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload.name(), args.seed));
        let mut errors = l.errors.clone();
        if let Err(e) = layers::write_spans(&path, &l.spans) {
            errors.push(format!("span file: {e}"));
        }
        (per_layer(&l), l.attempted, l.failed, errors, l.spans.len())
    } else {
        let o = workloads::run(&ctx);
        (end_to_end(&o), o.attempted, o.failed, o.errors.clone(), o.latency_ms.len())
    };
    workloads::remove_dir(&work);
    std::fs::remove_dir(".perfbench_work").ok();

    for r in &reported {
        if !r.value.is_finite() {
            errors.push(format!("metric {} was not measured", r.name));
        }
    }
    let correct = errors.is_empty() && failed == 0;

    // Provenance and spread for people; tools read only the last line.
    let mut prov = String::new();
    write!(
        prov,
        "{{\"schema\":\"perfbench-result-v1\",\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"tiny\":{},\
         \"nproc\":{},\"cpu_model\":{},\"vm_hwm_mib\":{},\"rustc\":{},\"commit\":{},\"samples\":{samples},\"correct\":{correct},\
         \"errors\":[{}],\"metrics\":{{",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.tiny,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&cpu_model()),
        num(peak_rss_mib()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_COMMIT")),
        errors.iter().map(|e| json_str(e)).collect::<Vec<_>>().join(","),
    )
    .expect("write to String");
    for (i, r) in reported.iter().enumerate() {
        println!(
            "{:<40} {:>14.4} {:<9} median {:.4} q1 {:.4} q3 {:.4} n {}",
            r.name, r.value, r.unit, r.spread.median, r.spread.q1, r.spread.q3, r.spread.n
        );
        write!(
            prov,
            "{}{}:{{\"value\":{},\"unit\":{},\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
            if i == 0 { "" } else { "," },
            json_str(r.name),
            num(r.value),
            json_str(r.unit),
            num(r.spread.median),
            num(r.spread.q1),
            num(r.spread.q3),
            r.spread.n
        )
        .expect("write to String");
    }
    prov.push_str("}}\n");
    let result_path = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&result_path, &prov) {
        eprintln!("perfbench: write {}: {e}", result_path.display());
    }

    let metrics: Vec<String> = reported
        .iter()
        .map(|r| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(r.name),
                num(r.value),
                json_str(r.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
