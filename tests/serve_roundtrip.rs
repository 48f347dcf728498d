//! In-process round-trip of the `xbc-serve-v1` daemon: boot `serve` on
//! a background thread, drive it with the library client, and hold it
//! to the same answers as a one-shot `Sweep` — byte-identical rows when
//! the shared store is warm, zero simulations on repeat submissions,
//! well-behaved errors, a clean graceful shutdown, and a shutdown that
//! *drains* an active sweep instead of severing it mid-stream.

use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use xbc_serve::protocol::SweepRequest;
use xbc_serve::{ping, shutdown, submit, Endpoint, ServeConfig};
use xbc_sim::{to_json, FrontendSpec, Row, Sweep, SweepBench};
use xbc_store::Store;
use xbc_workload::standard_traces;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xbc-serve-rt-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn wait_until_live(endpoint: &Endpoint) {
    for _ in 0..500 {
        if ping(endpoint).is_ok() {
            return;
        }
        thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never came up on {endpoint}");
}

fn sweep_req(names: &[String], frontends: &[FrontendSpec], insts: usize) -> SweepRequest {
    SweepRequest { traces: names.to_vec(), frontends: frontends.to_vec(), insts, priority: 0 }
}

/// Row JSON with the one wall-clock field zeroed.
fn strip_elapsed(rows: &[Row]) -> String {
    let mut rows = rows.to_vec();
    rows.iter_mut().for_each(|r| r.elapsed_ms = 0);
    to_json(&rows)
}

#[test]
fn daemon_matches_sweep_and_never_resimulates() {
    let dir = scratch_dir("main");
    let socket = dir.join("d.sock");
    let endpoint = Endpoint::unix(&socket);
    let store = Arc::new(Store::open(dir.join("cache")).unwrap());

    let traces: Vec<_> = standard_traces().into_iter().take(2).collect();
    let names: Vec<String> = traces.iter().map(|t| t.name.to_owned()).collect();
    let frontends = vec![FrontendSpec::tc_default(), FrontendSpec::xbc_default()];

    // One-shot sweep populates the store and fixes the expected bytes.
    let mut oneshot =
        Sweep::new(traces.clone(), frontends.clone(), 4_000).with_store(Arc::clone(&store));
    oneshot.progress = false;
    let expected = oneshot.run();

    let mut config = ServeConfig::new(endpoint.clone());
    config.threads = 2;
    config.store = Some(Arc::clone(&store));
    let daemon = thread::spawn(move || xbc_serve::serve(&config));
    wait_until_live(&endpoint);

    // Two concurrent clients submit the same warm grid: both must get
    // rows byte-identical to the one-shot sweep, from cache alone.
    let req = sweep_req(&names, &frontends, 4_000);
    let (a, b) = thread::scope(|s| {
        let ha = s.spawn(|| submit(&endpoint, &req));
        let hb = s.spawn(|| submit(&endpoint, &req));
        (ha.join().unwrap().unwrap(), hb.join().unwrap().unwrap())
    });
    for out in [&a, &b] {
        assert_eq!(to_json(&out.rows), to_json(&expected), "warm daemon rows differ from sweep");
        assert_eq!(out.bench.simulated_cells, 0, "warm submission must simulate nothing");
        assert_eq!(out.bench.deduped_cells, 0, "warm submission has nothing in flight to share");
        assert_eq!(out.bench.captures, 0, "warm submission must capture nothing");
        assert_eq!(out.bench.cached_cells, expected.len());
        let stats = out.store.as_ref().expect("cached daemon reports a store delta");
        assert_eq!(stats.result_misses, 0, "warm probe must not miss");
        let sched = out.sched.as_ref().expect("daemon reports a scheduler snapshot");
        assert_eq!(sched.retried_cells, 0);
        assert_eq!(sched.cancelled_cells, 0);
    }

    // A cold grid (different budget) goes through the daemon's own
    // simulation path; a one-shot sweep over the same grid then replays
    // the daemon's cached rows byte-for-byte — the two entry points
    // share one result space.
    let cold_req = sweep_req(&names, &frontends, 3_000);
    let cold = submit(&endpoint, &cold_req).unwrap();
    assert_eq!(cold.rows.len(), names.len() * frontends.len());
    assert_eq!(
        cold.bench.simulated_cells + cold.bench.deduped_cells,
        cold.rows.len(),
        "one client alone shares nothing, but the identity must hold"
    );
    let mut replay = Sweep::new(traces, frontends.clone(), 3_000).with_store(Arc::clone(&store));
    replay.progress = false;
    assert_eq!(
        to_json(&replay.run()),
        to_json(&cold.rows),
        "sweep must replay daemon-cached rows byte-identically"
    );

    // Errors keep the daemon usable: an unknown trace is refused with a
    // message, then the same socket still answers pings and sweeps.
    let bad = SweepRequest {
        traces: vec!["no-such-trace".into()],
        frontends: vec![FrontendSpec::tc_default()],
        insts: 1_000,
        priority: 0,
    };
    let err = submit(&endpoint, &bad).unwrap_err();
    assert!(err.contains("no-such-trace"), "error should name the offender: {err}");
    ping(&endpoint).unwrap();
    let again = submit(&endpoint, &req).unwrap();
    assert_eq!(again.bench.simulated_cells, 0);

    shutdown(&endpoint).unwrap();
    daemon.join().unwrap().unwrap();
    assert!(!socket.exists(), "daemon must remove its socket on exit");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cold_sweep_and_daemon_report_the_same_trailer() {
    // One cold grid, each entry point on its own fresh store: the two
    // run the same cell executor and fold the same cell costs, so their
    // accounting agrees and their rows differ in `elapsed_ms` alone.
    let dir = scratch_dir("parity");
    let endpoint = Endpoint::unix(dir.join("d.sock"));
    let traces: Vec<_> = standard_traces().into_iter().take(2).collect();
    let names: Vec<String> = traces.iter().map(|t| t.name.to_owned()).collect();
    let frontends = vec![FrontendSpec::Ic, FrontendSpec::tc_default(), FrontendSpec::xbc_default()];

    let sweep_store = Arc::new(Store::open(dir.join("sweep")).unwrap());
    let mut oneshot = Sweep::new(traces, frontends.clone(), 5_000).with_store(sweep_store);
    oneshot.progress = false;
    oneshot.threads = 2;
    let (rows, bench) = oneshot.run_with_bench();

    let mut config = ServeConfig::new(endpoint.clone());
    config.threads = 2;
    config.store = Some(Arc::new(Store::open(dir.join("daemon")).unwrap()));
    let daemon = thread::spawn(move || xbc_serve::serve(&config));
    wait_until_live(&endpoint);
    let out = submit(&endpoint, &sweep_req(&names, &frontends, 5_000)).unwrap();
    shutdown(&endpoint).unwrap();
    daemon.join().unwrap().unwrap();

    let accounting =
        |b: &SweepBench| (b.captures, b.cached_cells, b.simulated_cells, b.overlapped_cells);
    assert_eq!(accounting(&out.bench), accounting(&bench), "{:?} vs {bench:?}", out.bench);
    assert_eq!(accounting(&bench), (2, 0, 6, 2), "one overlapped capture per cold trace");
    assert_eq!(
        strip_elapsed(&out.rows),
        strip_elapsed(&rows),
        "daemon rows differ from sweep rows"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tcp_daemon_serves_the_same_protocol() {
    // The identical conversation over TCP loopback: ephemeral-port
    // bind, warm byte-identity, graceful shutdown.
    let dir = scratch_dir("tcp");
    let store = Arc::new(Store::open(dir.join("cache")).unwrap());
    let traces: Vec<_> = standard_traces().into_iter().take(1).collect();
    let names: Vec<String> = traces.iter().map(|t| t.name.to_owned()).collect();
    let frontends = vec![FrontendSpec::xbc_default()];

    let mut oneshot = Sweep::new(traces, frontends.clone(), 3_000).with_store(Arc::clone(&store));
    oneshot.progress = false;
    let expected = oneshot.run();

    let mut config = ServeConfig::new(Endpoint::tcp("127.0.0.1:0"));
    config.threads = 1;
    config.store = Some(Arc::clone(&store));
    let server = xbc_serve::Server::bind(config).unwrap();
    let endpoint = server.endpoint().clone();
    let daemon = thread::spawn(move || server.run());
    wait_until_live(&endpoint);

    let out = submit(&endpoint, &sweep_req(&names, &frontends, 3_000)).unwrap();
    assert_eq!(to_json(&out.rows), to_json(&expected), "TCP rows differ from sweep");
    assert_eq!(out.bench.simulated_cells, 0);

    shutdown(&endpoint).unwrap();
    daemon.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_racing_an_active_sweep_drains_it() {
    // Regression: a `shutdown` arriving while a sweep is mid-simulation
    // must drain — the sweeping client still gets every row and its
    // `done` trailer — and the `bye` line reports how many cells were
    // still outstanding. (The old daemon's workers exited as soon as
    // the queue emptied momentarily, which could strand a sweep whose
    // cells were not all enqueued yet.)
    let dir = scratch_dir("drain");
    let endpoint = Endpoint::unix(dir.join("d.sock"));
    let store = Arc::new(Store::open(dir.join("cache")).unwrap());

    let traces: Vec<_> = standard_traces().into_iter().take(2).collect();
    let names: Vec<String> = traces.iter().map(|t| t.name.to_owned()).collect();
    // 2 traces × 5 frontends = 10 cold cells on one worker: enough work
    // that the shutdown lands while most cells are still queued. The
    // inst count must keep the sweep busy well past the 150ms sleep
    // below even on a fast host, or `draining` legitimately reads 0.
    let frontends: Vec<FrontendSpec> = [8, 16, 32, 64, 128]
        .into_iter()
        .map(|kb| FrontendSpec::Xbc { total_uops: kb * 1024, ways: 2, promotion: true })
        .collect();
    let insts = 500_000;

    let mut config = ServeConfig::new(endpoint.clone());
    config.threads = 1;
    config.store = Some(Arc::clone(&store));
    let daemon = thread::spawn(move || xbc_serve::serve(&config));
    wait_until_live(&endpoint);

    let req = sweep_req(&names, &frontends, insts);
    let (outcome, draining) = thread::scope(|s| {
        let sweeping = s.spawn(|| submit(&endpoint, &req));
        // Let the sweep get registered and into simulation first.
        thread::sleep(Duration::from_millis(150));
        let draining = shutdown(&endpoint).expect("shutdown during active sweep");
        (sweeping.join().unwrap(), draining)
    });
    let outcome = outcome.expect("active sweep must drain to completion, not sever");
    assert_eq!(outcome.rows.len(), names.len() * frontends.len());
    assert!(
        draining >= 1,
        "bye must report the outstanding cells of the racing sweep, got {draining}"
    );

    daemon.join().unwrap().unwrap();

    // The drained rows are real: a one-shot sweep replays them.
    let all = standard_traces();
    let specs: Vec<_> =
        names.iter().map(|n| all.iter().find(|t| t.name == *n).cloned().unwrap()).collect();
    let mut replay = Sweep::new(specs, frontends, insts).with_store(store);
    replay.progress = false;
    assert_eq!(to_json(&replay.run()), to_json(&outcome.rows));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn refused_sweeps_after_drain_and_connection_cap() {
    // After shutdown begins, new sweeps are refused with an error, and
    // the connection cap turns excess clients away with a message
    // instead of a hang.
    let dir = scratch_dir("refuse");
    let endpoint = Endpoint::unix(dir.join("d.sock"));

    let mut config = ServeConfig::new(endpoint.clone());
    config.threads = 1;
    config.max_connections = 1;
    let daemon = thread::spawn(move || xbc_serve::serve(&config));
    wait_until_live(&endpoint);

    // Hold one connection open at the cap: the next connect is refused.
    // The liveness ping's slot frees asynchronously, so retry until the
    // held connection is actually greeted (hello) rather than refused.
    let path = match &endpoint {
        Endpoint::Unix(path) => path.clone(),
        Endpoint::Tcp(_) => unreachable!(),
    };
    let held = (0..50)
        .find_map(|_| {
            use std::io::BufRead;
            let conn = std::os::unix::net::UnixStream::connect(&path).unwrap();
            let mut reader = std::io::BufReader::new(conn.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line.contains("\"hello\"") {
                return Some(conn);
            }
            thread::sleep(Duration::from_millis(100));
            None
        })
        .expect("a held connection is eventually admitted");
    let err = ping(&endpoint).unwrap_err();
    assert!(err.contains("capacity"), "cap refusal should say so: {err}");
    drop(held);
    thread::sleep(Duration::from_millis(300)); // connection thread notices EOF
    ping(&endpoint).expect("capacity frees once the held connection closes");

    // The ping's own slot frees only once the daemon notices its EOF
    // (one read-poll interval); at cap 1 the shutdown may briefly race
    // that accounting, so retry until the slot opens up.
    let mut bye = shutdown(&endpoint);
    for _ in 0..50 {
        if bye.is_ok() {
            break;
        }
        thread::sleep(Duration::from_millis(100));
        bye = shutdown(&endpoint);
    }
    bye.unwrap();
    daemon.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn uncached_daemon_still_serves_correct_rows() {
    // Without a store the daemon captures traces in-process and reports
    // no store delta; rows still match a storeless sweep modulo timing.
    let dir = scratch_dir("uncached");
    let endpoint = Endpoint::unix(dir.join("d.sock"));
    let traces: Vec<_> = standard_traces().into_iter().take(1).collect();
    let names: Vec<String> = traces.iter().map(|t| t.name.to_owned()).collect();
    let frontends = vec![FrontendSpec::xbc_default()];

    let mut sweep = Sweep::new(traces, frontends.clone(), 2_000);
    sweep.progress = false;
    let expected = sweep.run();

    let mut config = ServeConfig::new(endpoint.clone());
    config.threads = 1;
    let daemon = thread::spawn(move || xbc_serve::serve(&config));
    wait_until_live(&endpoint);

    let out = submit(&endpoint, &sweep_req(&names, &frontends, 2_000)).unwrap();
    assert!(out.store.is_none(), "uncached daemon must not report store stats");
    assert_eq!(strip_elapsed(&out.rows), strip_elapsed(&expected));

    shutdown(&endpoint).unwrap();
    daemon.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
