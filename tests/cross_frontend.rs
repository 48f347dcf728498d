//! Cross-crate integration tests: every frontend model replays the same
//! committed stream faithfully, deterministically, and with sane cycle
//! accounting.

use xbc::{XbcConfig, XbcFrontend};
use xbc_frontend::{
    BbtcConfig, BbtcFrontend, Frontend, FrontendMetrics, IcFrontend, IcFrontendConfig, Replay,
    TcConfig, TraceCacheFrontend, UopCacheConfig, UopCacheFrontend,
};
use xbc_workload::standard_traces;

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
fn every_frontend_survives_the_differential_oracle_on_every_suite() {
    // Lockstep replay of EVERY standard trace through every frontend: the
    // checked replay compares the stream with the reference and asserts
    // uop conservation, the cycle and d2b-cause partitions after every
    // single cycle, and runs the structural audits along the way — far
    // stronger than the old end-of-run uop-count comparison, so a short
    // per-trace budget suffices.
    for spec in standard_traces() {
        let trace = spec.capture(6_000);
        for fe in &mut all_frontends(8192) {
            let m = Replay::resident(&trace)
                .checked()
                .against(&trace)
                .run(&mut **fe)
                .unwrap_or_else(|d| panic!("{} diverged on {}:\n{d}", fe.name(), spec.name));
            assert_eq!(
                m.total_uops(),
                trace.uop_count(),
                "{} lost or duplicated uops on {}",
                fe.name(),
                spec.name
            );
        }
    }
}

#[test]
fn cycle_accounting_is_closed() {
    let trace = standard_traces()[8].capture(20_000);
    for fe in &mut all_frontends(8192) {
        let m = fe.run(&trace);
        assert_eq!(
            m.cycles,
            m.build_cycles + m.delivery_cycles + m.stall_cycles,
            "{}: cycles must partition into build/delivery/stall",
            fe.name()
        );
        assert!(m.cycles > 0);
    }
}

#[test]
fn frontends_are_deterministic() {
    let trace = standard_traces()[16].capture(15_000);
    for make in [0usize, 1, 2, 3] {
        let run = |i: usize| {
            let mut fes = all_frontends(4096);
            fes[i].run(&trace)
        };
        let a = run(make);
        let b = run(make);
        assert_eq!(a, b, "frontend {make} differs between identical runs");
    }
}

#[test]
fn structures_beat_the_plain_ic() {
    let trace = standard_traces()[0].capture(60_000);
    let mut ic = IcFrontend::new(IcFrontendConfig::default());
    let base = ic.run(&trace).overall_uops_per_cycle();
    for fe in &mut all_frontends(32 * 1024)[1..] {
        let upc = fe.run(&trace).overall_uops_per_cycle();
        assert!(
            upc > base,
            "{} ({upc:.2} uops/cyc) should outperform the raw IC ({base:.2})",
            fe.name()
        );
    }
}

#[test]
fn warm_restart_reuses_state() {
    // Frontend instances keep their caches across runs: the second replay
    // of the same trace must miss less.
    let trace = standard_traces()[0].capture(30_000);
    let mut fe = XbcFrontend::new(XbcConfig { total_uops: 32 * 1024, ..Default::default() });
    let cold = fe.run(&trace);
    let warm = fe.run(&trace);
    assert!(
        warm.uop_miss_rate() < cold.uop_miss_rate(),
        "warm {} vs cold {}",
        warm.uop_miss_rate(),
        cold.uop_miss_rate()
    );
}

#[test]
fn cached_sweep_rows_are_byte_identical_to_fresh() {
    use std::sync::Arc;
    use xbc_sim::{to_json, FrontendSpec, Sweep};
    use xbc_store::Store;

    let dir = std::env::temp_dir().join(format!("xbc-cross-frontend-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let traces: Vec<_> = standard_traces().into_iter().step_by(9).collect();
    let frontends = vec![FrontendSpec::tc_default(), FrontendSpec::xbc_default()];

    // Fresh: no store at all.
    let mut fresh_sweep = Sweep::new(traces.clone(), frontends.clone(), 8_000);
    fresh_sweep.progress = false;
    let fresh = fresh_sweep.run();

    // Cached: populate the store, then replay purely from it.
    let store = Arc::new(Store::open(&dir).unwrap());
    let mut cached_sweep = Sweep::new(traces, frontends, 8_000).with_store(Arc::clone(&store));
    cached_sweep.progress = false;
    cached_sweep.run();
    let replayed = cached_sweep.run();
    assert_eq!(store.stats().result_hits, replayed.len() as u64, "replay must be all hits");

    // Timing aside (wall clock is the one legitimately nondeterministic
    // field), the replayed rows serialize byte-for-byte like fresh ones.
    let strip = |rows: &[xbc_sim::Row]| {
        let mut rows = rows.to_vec();
        for r in &mut rows {
            r.elapsed_ms = 0;
        }
        to_json(&rows)
    };
    assert_eq!(strip(&fresh), strip(&replayed));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streamed_replay_is_bit_identical_to_resident() {
    // The guarantee of the streaming oracle and of the one replay
    // driver: for every frontend on every standard trace, all eight
    // replays — {resident, streamed} × {untraced, traced} × {unchecked,
    // checked} — produce the SAME metrics, and the four traced ones the
    // SAME cycle-level event stream. Bit-identical, not approximately
    // equal: streaming changes where instructions live, never what the
    // frontend observes, and tracing and checking only observe.
    use xbc_obs::{Event, VecSink};
    use xbc_workload::TraceStream;

    for spec in standard_traces() {
        let trace = spec.capture(4_000);
        let mut encoded = Vec::new();
        trace.save(&mut encoded).unwrap();
        for i in 0..all_frontends(8192).len() {
            let mut runs: Vec<(String, FrontendMetrics, Option<Vec<Event>>)> = Vec::new();
            for streamed in [false, true] {
                for traced in [false, true] {
                    for checked in [false, true] {
                        let mut stream = TraceStream::new(encoded.as_slice()).unwrap();
                        let mut replay = if streamed {
                            Replay::streamed(&mut stream)
                        } else {
                            Replay::resident(&trace)
                        };
                        let mut sink = VecSink::new();
                        if traced {
                            replay = replay.traced(&mut sink);
                        }
                        if checked {
                            replay = replay.checked();
                        }
                        let mut fe = all_frontends(8192).swap_remove(i);
                        let label = format!(
                            "{} on {} (streamed={streamed} traced={traced} checked={checked})",
                            fe.name(),
                            spec.name
                        );
                        let m = replay.run(&mut *fe).unwrap_or_else(|d| panic!("{label}:\n{d}"));
                        runs.push((label, m, traced.then_some(sink.events)));
                    }
                }
            }
            let (base_label, base, _) = &runs[0];
            let (events_label, events) =
                runs.iter().find_map(|(l, _, e)| Some((l, e.as_ref()?))).unwrap();
            for (label, m, ev) in &runs {
                assert_eq!(base, m, "{label}: metrics differ from {base_label}");
                let Some(ev) = ev else { continue };
                assert_eq!(
                    events.len(),
                    ev.len(),
                    "{label}: event count differs from {events_label}"
                );
                if let Some(k) = (0..ev.len()).find(|&k| events[k] != ev[k]) {
                    panic!(
                        "{label}: event {k} differs: {:?} vs {:?} in {events_label}",
                        ev[k], events[k]
                    );
                }
            }
        }
    }
}

#[test]
fn checked_streamed_replay_matches_too() {
    // A checked replay over the streaming source on a longer trace:
    // identical metrics to the plain resident replay, with every
    // per-cycle accounting identity asserted along the way.
    use xbc_workload::TraceStream;

    let spec = &standard_traces()[0];
    let trace = spec.capture(6_000);
    let mut encoded = Vec::new();
    trace.save(&mut encoded).unwrap();
    for (res_fe, str_fe) in all_frontends(8192).iter_mut().zip(&mut all_frontends(8192)) {
        let resident = res_fe.run(&trace);
        let mut stream = TraceStream::new(encoded.as_slice()).unwrap();
        let checked = Replay::streamed(&mut stream)
            .checked()
            .run(&mut **str_fe)
            .unwrap_or_else(|d| panic!("{} checked-streamed diverged:\n{d}", str_fe.name()));
        assert_eq!(resident, checked, "{} checked-streamed differs", res_fe.name());
    }
}

#[test]
fn xbc_redundancy_stays_negligible_across_suites() {
    for spec in standard_traces().iter().step_by(5) {
        let trace = spec.capture(40_000);
        let mut fe = XbcFrontend::new(XbcConfig::default());
        fe.run(&trace);
        let (stored, distinct) = fe.array().redundancy();
        let dup = (stored - distinct) as f64 / stored.max(1) as f64;
        assert!(dup < 0.05, "{}: {:.1}% duplicated uops", spec.name, 100.0 * dup);
    }
}
