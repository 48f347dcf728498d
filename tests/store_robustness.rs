//! Exhaustive single-byte corruption sweep over the on-disk store formats.
//!
//! For a small cached `XBT1` trace entry and an `XBR1` result entry, flip
//! every byte of the file in turn and verify that the store (a) never
//! panics, (b) detects the corruption, logs it, evicts the entry, and
//! reports a miss, and (c) regenerates a byte-identical replacement. This
//! pins the whole corruption-handling surface — magic, header fields,
//! varint payload, CRC trailer — not just one lucky offset.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use xbc_serve::protocol::SweepRequest;
use xbc_serve::{shutdown, submit, Endpoint, ServeConfig, Server};
use xbc_sim::{result_key, to_json, FrontendSpec, Row, Sweep};
use xbc_store::Store;
use xbc_workload::{standard_traces, TraceSpec};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xbc-robust-{}-{tag}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// The single file in a store subdirectory.
fn only_file(dir: &std::path::Path) -> PathBuf {
    let mut it = fs::read_dir(dir).unwrap();
    let path = it.next().expect("one cache file").unwrap().path();
    assert!(it.next().is_none(), "expected exactly one cache file");
    path
}

#[test]
fn every_single_byte_flip_in_a_trace_entry_is_caught() {
    let dir = scratch("trace-flips");
    let store = Store::open(&dir).unwrap();
    let spec = &standard_traces()[0];
    // Small on purpose: the sweep is O(file size) loads.
    let original = store.get_or_capture(spec, 40);
    let path = only_file(&dir.join("traces"));
    let pristine = fs::read(&path).unwrap();
    assert!(pristine.len() < 4096, "keep the exhaustive sweep cheap");

    for i in 0..pristine.len() {
        let mut raw = pristine.clone();
        raw[i] ^= 0xA5;
        fs::write(&path, &raw).unwrap();
        // Must be detected: a miss, never a panic, never wrong data.
        assert!(
            store.load_trace(spec, 40).is_none(),
            "flip at byte {i}/{} went undetected",
            pristine.len()
        );
        assert!(!path.exists(), "flip at byte {i}: corrupt entry must be deleted");
    }
    assert_eq!(store.stats().corrupt_entries, pristine.len() as u64);

    // Regeneration restores a byte-identical entry.
    let regenerated = store.get_or_capture(spec, 40);
    assert_eq!(regenerated.insts(), original.insts());
    assert_eq!(fs::read(&path).unwrap(), pristine, "regenerated entry must be byte-identical");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_single_byte_flip_in_a_result_entry_is_caught() {
    let dir = scratch("result-flips");
    let store = Store::open(&dir).unwrap();
    let key = "row|trace=spec.gcc|fe=xbc-32k|insts=1000|code=1";
    let body = "{\"miss_rate\":0.25,\"uops_per_cycle\":11.5}";
    store.store_result(key, body);
    let path = only_file(&dir.join("results"));
    let pristine = fs::read(&path).unwrap();

    for i in 0..pristine.len() {
        let mut raw = pristine.clone();
        raw[i] ^= 0xA5;
        fs::write(&path, &raw).unwrap();
        assert!(
            store.load_result(key).is_none(),
            "flip at byte {i}/{} went undetected",
            pristine.len()
        );
        assert!(!path.exists(), "flip at byte {i}: corrupt entry must be deleted");
    }
    assert_eq!(store.stats().corrupt_entries, pristine.len() as u64);

    // Regenerate and verify the store serves the true body again.
    store.store_result(key, body);
    assert_eq!(store.load_result(key).as_deref(), Some(body));
    assert_eq!(fs::read(&path).unwrap(), pristine, "rewritten entry must be byte-identical");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn undecodable_cached_row_is_evicted_and_regenerated() {
    // A result entry can pass the store's CRC yet fail to decode at the
    // sweep layer (e.g. a row written by an older schema). The sweep
    // must evict the stale entry — not just recompute around it — so the
    // next run replays a freshly written, decodable row.
    let dir = scratch("undecodable-row");
    let store = Arc::new(Store::open(&dir).unwrap());
    let traces: Vec<TraceSpec> = standard_traces().into_iter().take(2).collect();
    let frontends = vec![FrontendSpec::Ic, FrontendSpec::xbc_default()];
    let mut sweep =
        Sweep::new(traces.clone(), frontends.clone(), 2_000).with_store(Arc::clone(&store));
    sweep.progress = false;
    let fresh = sweep.run();
    assert_eq!(store.stats().result_misses, 4);

    // Forge a CRC-valid entry whose body is not a single-row array.
    let key = result_key(&traces[0], &frontends[1], 2_000);
    store.store_result(&key, "[]");
    let before = store.stats();
    let again = sweep.run();
    let after = store.stats();
    assert_eq!(after.corrupt_entries, before.corrupt_entries + 1, "stale entry must be evicted");
    for (f, a) in fresh.iter().zip(&again) {
        assert_eq!(f.cycles, a.cycles);
        assert_eq!(f.miss_rate, a.miss_rate);
    }

    // The recomputed cell was written back: a third run decodes all four
    // rows from cache with no further eviction and no simulation.
    let third = sweep.run();
    let done = store.stats();
    assert_eq!(done.corrupt_entries, after.corrupt_entries, "no repeat eviction");
    assert_eq!(done.result_hits, after.result_hits + 4);
    assert_eq!(done.trace_hits, after.trace_hits, "a fully cached run touches no trace");
    for (f, t) in fresh.iter().zip(&third) {
        assert_eq!(f.cycles, t.cycles);
    }
    fs::remove_dir_all(&dir).ok();
}

/// Runs one trace × 2 columns at 200K insts uncached, then through a
/// `Sweep` at `threads` 1 and 2 and through a daemon request, each on a
/// fresh store made by `make_store(tag)`. Calls `check(what, store,
/// captures)` after each store-backed run and asserts its rows equal the
/// uncached ones (but for `elapsed_ms`).
fn sweep_everywhere(
    spec: &TraceSpec,
    make_store: impl Fn(&str) -> Arc<Store>,
    check: impl Fn(&str, &Store, u64),
) {
    let frontends = vec![FrontendSpec::Ic, FrontendSpec::xbc_default()];
    let insts = 200_000;
    let strip = |mut rows: Vec<Row>| {
        rows.iter_mut().for_each(|r| r.elapsed_ms = 0);
        to_json(&rows)
    };
    let mut uncached = Sweep::new(vec![spec.clone()], frontends.clone(), insts);
    uncached.progress = false;
    let expected = strip(uncached.run());

    for threads in [1, 2] {
        let store = make_store(&format!("t{threads}"));
        let mut sweep =
            Sweep::new(vec![spec.clone()], frontends.clone(), insts).with_store(Arc::clone(&store));
        sweep.progress = false;
        sweep.threads = threads;
        let (rows, bench) = sweep.run_with_bench();
        check(&format!("threads {threads}"), &store, bench.captures);
        assert_eq!(strip(rows), expected, "threads {threads}");
        fs::remove_dir_all(store.root()).ok();
    }

    let store = make_store("daemon");
    let endpoint = Endpoint::unix(store.root().join("d.sock"));
    let mut config = ServeConfig::new(endpoint.clone());
    config.threads = 2;
    config.store = Some(Arc::clone(&store));
    let server = Server::bind(config).unwrap();
    let daemon = std::thread::spawn(move || server.run());
    let req = SweepRequest { traces: vec![spec.name.to_owned()], frontends, insts, priority: 0 };
    let out = submit(&endpoint, &req).unwrap();
    shutdown(&endpoint).unwrap();
    daemon.join().unwrap().unwrap();
    check("daemon", &store, out.bench.captures);
    assert_eq!(strip(out.rows), expected, "daemon");
    fs::remove_dir_all(store.root()).ok();
}

/// A fresh store holding `spec`'s 200K-inst trace entry, rewritten by
/// `spoil` (given the entry's path).
fn spoiled_store(tag: &str, spec: &TraceSpec, spoil: impl Fn(&std::path::Path)) -> Arc<Store> {
    let dir = scratch(tag);
    Store::open(&dir).unwrap().capture_to_store(spec, 200_000, |_, _| {}).unwrap();
    spoil(&only_file(&dir.join("traces")));
    Arc::new(Store::open(&dir).unwrap())
}

#[test]
fn corrupt_stored_trace_is_evicted_and_recaptured_once() {
    // Store-backed cells stream their trace. A corrupt stored entry is
    // caught by the validating open of the trace's first cell, evicted
    // once and recaptured once — at any thread count and through either
    // entry point — and the rows match an uncached sweep.
    let spec = standard_traces()[0].clone();
    let flip_a_byte = |path: &std::path::Path| {
        let mut raw = fs::read(path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x5A;
        fs::write(path, &raw).unwrap();
    };
    sweep_everywhere(
        &spec,
        |tag| spoiled_store(&format!("corrupt-trace-{tag}"), &spec, flip_a_byte),
        |what, store, captures| {
            assert_eq!(store.stats().corrupt_entries, 1, "{what}: evicted once");
            assert_eq!(captures, 1, "{what}: recaptured once");
        },
    );
}

#[test]
fn unopenable_stored_trace_is_bypassed() {
    // An entry that exists but can be neither read nor removed — here a
    // directory where the trace file should be — defeats both the
    // validating open and the eviction. The cells then capture the trace
    // in memory once, share it, and still return correct rows: no panic,
    // no hung daemon request.
    let spec = standard_traces()[0].clone();
    let replace_with_a_directory = |path: &std::path::Path| {
        fs::remove_file(path).unwrap();
        fs::create_dir(path).unwrap();
        fs::write(path.join("blocker"), b"not a trace").unwrap();
    };
    sweep_everywhere(
        &spec,
        |tag| spoiled_store(&format!("unopenable-trace-{tag}"), &spec, replace_with_a_directory),
        |what, store, captures| {
            assert!(store.stats().corrupt_entries >= 1, "{what}: the failed opens are logged");
            assert_eq!(captures, 1, "{what}: captured in memory once");
        },
    );
}

#[test]
fn truncation_at_every_length_is_caught() {
    // Complement of the flip sweep: drop the tail at every possible
    // length, including zero-length files.
    let dir = scratch("trunc-all");
    let store = Store::open(&dir).unwrap();
    let spec = &standard_traces()[1];
    store.get_or_capture(spec, 30);
    let path = only_file(&dir.join("traces"));
    let pristine = fs::read(&path).unwrap();

    for len in 0..pristine.len() {
        fs::write(&path, &pristine[..len]).unwrap();
        assert!(store.load_trace(spec, 30).is_none(), "truncation to {len} bytes went undetected");
    }
    fs::write(&path, &pristine).unwrap();
    assert!(store.load_trace(spec, 30).is_some(), "pristine entry must still load");
    fs::remove_dir_all(&dir).ok();
}
