//! The one replay driver.
//!
//! [`Replay`] steps a [`Frontend`] over a committed instruction stream
//! until the stream drains. It is the only caller of [`Frontend::step`]
//! and [`Frontend::step_traced`] outside tests: the
//! `Frontend::run*` entry points, the sweep's cell executor, `xbcsim
//! run` and the `xbc-check` fuzzer all replay through it, so every
//! per-cycle identity is defined, and worded, once:
//!
//! * **forward progress** (always on) — a frontend that delivers no uop
//!   for 10,000 consecutive cycles is livelocked (the longest legal
//!   stall is one misprediction penalty plus an IC miss);
//! * [`Replay::checked`] — every step adds at least one cycle, the
//!   identities of [`FrontendMetrics::check_identities`] (cycle
//!   partition, d2b-cause partition, uop conservation) hold after every
//!   step, and [`Frontend::check_invariants`] passes every 4096 steps and
//!   at the end of the run;
//! * [`Replay::against`] — every completed instruction equals a
//!   reference stream's instruction at the same index, and the run ends
//!   exactly where the reference does.
//!
//! The first violation stops the replay with a [`Divergence`] carrying
//! the cycle, the instruction and uop index, the frontend's mode and
//! state, and a window of recently completed instructions.

// A `Divergence` carries its full diagnostic context (state snapshot plus
// an 8-instruction window); it is built once, at the moment a run fails,
// so the Err path's size is irrelevant to the hot loop.
#![allow(clippy::result_large_err)]

use crate::frontend::Frontend;
use crate::metrics::FrontendMetrics;
use crate::oracle::OracleStream;
use std::fmt;
use xbc_obs::EventSink;
use xbc_workload::{DynInst, InstSource, Trace};

/// Steps a frontend may run without delivering a uop before the replay
/// declares livelock.
const STUCK_LIMIT: u32 = 10_000;

/// A checked replay runs [`Frontend::check_invariants`] every this many
/// steps (and once more at the end of the run).
const AUDIT_PERIOD: u64 = 4096;

/// How many recently completed instructions a [`Divergence`] carries.
const WINDOW: usize = 8;

/// What went wrong, where, with a window of context.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Which check tripped.
    pub kind: DivergenceKind,
    /// Human-readable detail of the mismatch.
    pub detail: String,
    /// Frontend name (`"xbc"`, `"tc"`, …).
    pub frontend: String,
    /// Frontend mode label at the failing cycle.
    pub mode: &'static str,
    /// Frontend state summary at the failing cycle.
    pub state: String,
    /// Index of the instruction being delivered when the check tripped.
    pub inst_index: usize,
    /// Fetch IP at the failing cycle (`None` at end of stream).
    pub ip: Option<xbc_isa::Addr>,
    /// Uops delivered before the check tripped.
    pub uop_index: u64,
    /// Cycle count at the failing step.
    pub cycle: u64,
    /// The last few completed instructions, oldest first, then (against
    /// a reference) the next expected reference instruction. Empty for a
    /// streamed source, which keeps no history.
    pub window: Vec<String>,
}

/// Classification of a [`Divergence`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivergenceKind {
    /// A completed instruction differs from the reference stream.
    Stream,
    /// `total_uops()` disagrees with the oracle cursor.
    Conservation,
    /// `cycles != build + delivery + stall`, or a step cost no cycle.
    CycleAccounting,
    /// The per-cause delivery→build counters do not sum to
    /// `delivery_to_build`: a switch recorded no cause, or two.
    D2bCause,
    /// No uop delivered for 10,000 consecutive cycles.
    Livelock,
    /// [`Frontend::check_invariants`] reported a violation.
    Invariant,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:?} divergence in `{}` at inst {} (ip {}), uop {}, cycle {} [mode {}]",
            self.kind,
            self.frontend,
            self.inst_index,
            self.ip.map(|a| a.to_string()).unwrap_or_else(|| "<end>".into()),
            self.uop_index,
            self.cycle,
            self.mode,
        )?;
        writeln!(f, "  {}", self.detail)?;
        if !self.state.is_empty() {
            writeln!(f, "  state: {}", self.state)?;
        }
        for line in &self.window {
            writeln!(f, "  | {line}")?;
        }
        Ok(())
    }
}

/// One replay of a committed stream through a frontend: the source, an
/// optional event sink, and the checks to run. Build it, then
/// [`run`](Replay::run) it once.
///
/// ```
/// use xbc_frontend::{IcFrontend, IcFrontendConfig, Replay};
/// use xbc_workload::standard_traces;
///
/// let trace = standard_traces()[0].capture(2_000);
/// let mut ic = IcFrontend::new(IcFrontendConfig::default());
/// let m = Replay::resident(&trace).checked().run(&mut ic).unwrap();
/// assert_eq!(m.total_uops(), trace.uop_count());
/// ```
pub struct Replay<'a> {
    oracle: OracleStream<'a>,
    /// The resident trace being replayed (`None` for a streamed source).
    subject: Option<&'a Trace>,
    sink: Option<&'a mut dyn EventSink>,
    checked: bool,
    reference: Option<&'a Trace>,
    /// Completed instructions already compared with `reference`.
    compared: usize,
}

impl<'a> Replay<'a> {
    /// A replay of a resident trace.
    pub fn resident(trace: &'a Trace) -> Self {
        Self::over(OracleStream::new(trace), Some(trace))
    }

    /// A replay of a streaming source through a bounded window (see
    /// [`OracleStream::streaming`]): host memory is O(window) however
    /// long the stream is, and the metrics and events are bit-identical
    /// to a resident replay of the same committed stream.
    pub fn streamed(source: &'a mut dyn InstSource) -> Self {
        Self::over(OracleStream::streaming(source), None)
    }

    fn over(oracle: OracleStream<'a>, subject: Option<&'a Trace>) -> Self {
        Replay { oracle, subject, sink: None, checked: false, reference: None, compared: 0 }
    }

    /// Steps with [`Frontend::step_traced`], recording every cycle's
    /// `xbc-obs` events into `sink`.
    pub fn traced(mut self, sink: &'a mut dyn EventSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Asserts the accounting identities after every step and the
    /// frontend's structural invariants periodically and at the end (see
    /// the module docs). The checks observe; they never change the
    /// metrics.
    pub fn checked(mut self) -> Self {
        self.checked = true;
        self
    }

    /// Compares every completed instruction with `reference` at the same
    /// index (the fuzzer replays a deliberately corrupted subject against
    /// the pristine capture).
    ///
    /// # Panics
    ///
    /// Panics on a streamed replay: the comparison reads the subject's
    /// completed instructions, which only a resident trace keeps.
    pub fn against(mut self, reference: &'a Trace) -> Self {
        assert!(self.subject.is_some(), "Replay::against needs a resident subject");
        self.reference = Some(reference);
        self
    }

    /// Replays the whole stream through `fe`, returning its metrics.
    ///
    /// A frontend is single-shot per run: its predictor and cache state
    /// persists across runs, which models a warm restart; create a fresh
    /// instance for an independent run.
    ///
    /// # Errors
    ///
    /// Returns the first [`Divergence`]: a livelock, or a violation of a
    /// check this replay was built with.
    ///
    /// # Panics
    ///
    /// Panics if a streamed source yields corrupt data mid-stream (see
    /// `xbc_workload::TraceStream`).
    pub fn run<F: Frontend + ?Sized>(self, fe: &mut F) -> Result<FrontendMetrics, Divergence> {
        // An unchecked replay compiles to the bare loop: the audits are
        // a separate instantiation, not a per-cycle branch.
        if self.checked || self.reference.is_some() {
            self.drive::<F, true>(fe)
        } else {
            self.drive::<F, false>(fe)
        }
    }

    /// The replay loop; `AUDIT` compiles in the per-step checks.
    fn drive<F: Frontend + ?Sized, const AUDIT: bool>(
        mut self,
        fe: &mut F,
    ) -> Result<FrontendMetrics, Divergence> {
        let mut metrics = FrontendMetrics::default();
        let mut last_delivered = 0u64;
        let mut stuck = 0u32;
        let mut steps = 0u64;
        while !self.oracle.done() {
            let cycles_before = metrics.cycles;
            match self.sink.as_deref_mut() {
                Some(s) => fe.step_traced(&mut self.oracle, &mut metrics, s),
                None => fe.step(&mut self.oracle, &mut metrics),
            }
            if AUDIT {
                steps += 1;
                self.audit_step(fe, &metrics, cycles_before, steps)?;
            }
            if self.oracle.delivered_uops() == last_delivered {
                stuck += 1;
                if stuck >= STUCK_LIMIT {
                    let detail = format!("no uop delivered for {STUCK_LIMIT} cycles");
                    return Err(self.diverge(fe, &metrics, DivergenceKind::Livelock, detail));
                }
            } else {
                last_delivered = self.oracle.delivered_uops();
                stuck = 0;
            }
        }
        if AUDIT {
            self.audit_end(fe, &metrics)?;
        }
        Ok(metrics)
    }

    /// The checks after step number `steps`, which began at
    /// `cycles_before` cycles.
    fn audit_step<F: Frontend + ?Sized>(
        &mut self,
        fe: &F,
        m: &FrontendMetrics,
        cycles_before: u64,
        steps: u64,
    ) -> Result<(), Divergence> {
        if self.checked {
            if m.cycles <= cycles_before {
                let detail = format!("step added no cycle (still {})", m.cycles);
                return Err(self.diverge(fe, m, DivergenceKind::CycleAccounting, detail));
            }
            if let Err((kind, detail)) = m.check_identities(self.oracle.delivered_uops()) {
                return Err(self.diverge(fe, m, kind, detail));
            }
        }
        self.compare(fe, m)?;
        if self.checked && steps.is_multiple_of(AUDIT_PERIOD) {
            self.audit_structure(fe, m)?;
        }
        Ok(())
    }

    /// The checks once the stream has drained.
    fn audit_end<F: Frontend + ?Sized>(
        &self,
        fe: &F,
        m: &FrontendMetrics,
    ) -> Result<(), Divergence> {
        if self.checked {
            self.audit_structure(fe, m)?;
        }
        match self.reference {
            Some(reference) if self.compared != reference.inst_count() => {
                let detail = format!(
                    "run ended after {} insts; the reference has {}",
                    self.compared,
                    reference.inst_count()
                );
                Err(self.diverge(fe, m, DivergenceKind::Stream, detail))
            }
            _ => Ok(()),
        }
    }

    fn audit_structure<F: Frontend + ?Sized>(
        &self,
        fe: &F,
        m: &FrontendMetrics,
    ) -> Result<(), Divergence> {
        fe.check_invariants().map_err(|e| self.diverge(fe, m, DivergenceKind::Invariant, e))
    }

    /// Compares every instruction completed since the last step with
    /// the reference stream at the same index.
    fn compare<F: Frontend + ?Sized>(
        &mut self,
        fe: &F,
        m: &FrontendMetrics,
    ) -> Result<(), Divergence> {
        let (Some(subject), Some(reference)) = (self.subject, self.reference) else {
            return Ok(());
        };
        while self.compared < self.oracle.inst_index() {
            let got = &subject.insts()[self.compared];
            let detail = match reference.insts().get(self.compared) {
                Some(want) if want == got => {
                    self.compared += 1;
                    continue;
                }
                Some(want) => format!(
                    "inst {} differs from the reference: delivered {} but expected {}",
                    self.compared,
                    brief(got),
                    brief(want)
                ),
                None => format!(
                    "delivered {} insts but the reference has only {}",
                    self.compared + 1,
                    reference.inst_count()
                ),
            };
            return Err(self.diverge(fe, m, DivergenceKind::Stream, detail));
        }
        Ok(())
    }

    /// Builds the [`Divergence`] report for a failed check.
    #[cold]
    #[inline(never)]
    fn diverge<F: Frontend + ?Sized>(
        &self,
        fe: &F,
        m: &FrontendMetrics,
        kind: DivergenceKind,
        detail: String,
    ) -> Divergence {
        // Against a reference the window ends at the last instruction
        // that matched it; otherwise at the last one completed.
        let done = if self.reference.is_some() { self.compared } else { self.oracle.inst_index() };
        let mut window: Vec<String> = match self.subject {
            Some(subject) => {
                let first = done.saturating_sub(WINDOW);
                let recent = subject.insts()[first..done].iter();
                recent.enumerate().map(|(i, d)| format!("[{}] {}", first + i, brief(d))).collect()
            }
            None => Vec::new(),
        };
        if let Some(next) = self.reference.and_then(|r| r.insts().get(done)) {
            window.push(format!("next expected ref[{done}]: {}", brief(next)));
        }
        Divergence {
            kind,
            detail,
            frontend: fe.name().to_owned(),
            mode: fe.mode_label(),
            state: fe.state_brief(),
            inst_index: self.oracle.inst_index(),
            ip: self.oracle.current().map(|d| d.inst.ip),
            uop_index: self.oracle.delivered_uops(),
            cycle: m.cycles,
            window,
        }
    }
}

/// One-line rendering of a dynamic instruction for context windows.
fn brief(d: &DynInst) -> String {
    format!(
        "{} ({} uops, {:?}{}) -> {}",
        d.inst.ip,
        d.inst.uops,
        d.inst.branch,
        if d.taken { ", taken" } else { "" },
        d.next_ip
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IcFrontend, IcFrontendConfig};
    use xbc_workload::{standard_traces, TraceStream};

    /// The one identity a [`Faulty`] frontend breaks.
    #[derive(Clone, Copy, Debug)]
    enum Fault {
        /// A step that adds no cycle.
        NoCycle,
        /// A cycle counted in no build/delivery/stall bucket.
        Partition,
        /// A delivery→build switch with no cause.
        UncausedSwitch,
        /// A uop the metrics lose.
        LostUop,
        /// Stalls forever once 100 uops are out.
        Livelock,
        /// A structural audit that always fails.
        Invariant,
    }

    /// An [`IcFrontend`] that breaks exactly one identity.
    struct Faulty {
        inner: IcFrontend,
        fault: Fault,
    }

    impl Faulty {
        fn new(fault: Fault) -> Self {
            Faulty { inner: IcFrontend::new(IcFrontendConfig::default()), fault }
        }
    }

    impl Frontend for Faulty {
        fn name(&self) -> &str {
            "faulty"
        }

        fn step(&mut self, oracle: &mut OracleStream<'_>, metrics: &mut FrontendMetrics) {
            let before = *metrics;
            if matches!(self.fault, Fault::Livelock) && oracle.delivered_uops() >= 100 {
                metrics.cycles += 1;
                metrics.stall_cycles += 1;
                return;
            }
            self.inner.step(oracle, metrics);
            match self.fault {
                Fault::NoCycle => {
                    metrics.cycles = before.cycles;
                    metrics.build_cycles = before.build_cycles;
                    metrics.delivery_cycles = before.delivery_cycles;
                    metrics.stall_cycles = before.stall_cycles;
                }
                Fault::Partition => metrics.cycles += 1,
                Fault::UncausedSwitch => metrics.delivery_to_build += 1,
                Fault::LostUop => metrics.ic_uops = metrics.ic_uops.saturating_sub(1),
                Fault::Livelock | Fault::Invariant => {}
            }
        }

        fn check_invariants(&self) -> Result<(), String> {
            match self.fault {
                Fault::Invariant => Err("planted violation".into()),
                _ => Ok(()),
            }
        }
    }

    fn trace_and_encoding(insts: usize) -> (Trace, Vec<u8>) {
        let trace = standard_traces()[0].capture(insts);
        let mut encoded = Vec::new();
        trace.save(&mut encoded).unwrap();
        (trace, encoded)
    }

    #[test]
    fn each_broken_identity_is_caught_on_both_sources() {
        let (trace, encoded) = trace_and_encoding(6_000);
        let cases = [
            (Fault::NoCycle, DivergenceKind::CycleAccounting, "added no cycle"),
            (Fault::Partition, DivergenceKind::CycleAccounting, "partition"),
            (Fault::UncausedSwitch, DivergenceKind::D2bCause, "delivery_to_build"),
            (Fault::LostUop, DivergenceKind::Conservation, "conservation"),
            (Fault::Livelock, DivergenceKind::Livelock, "no uop delivered"),
            (Fault::Invariant, DivergenceKind::Invariant, "planted violation"),
        ];
        for (fault, kind, detail) in cases {
            let resident =
                Replay::resident(&trace).checked().run(&mut Faulty::new(fault)).unwrap_err();
            let mut stream = TraceStream::new(encoded.as_slice()).unwrap();
            let streamed =
                Replay::streamed(&mut stream).checked().run(&mut Faulty::new(fault)).unwrap_err();
            for d in [&resident, &streamed] {
                assert_eq!(d.kind, kind, "{fault:?}: {d}");
                assert!(d.detail.contains(detail), "{fault:?}: {d}");
                assert_eq!(d.frontend, "faulty");
            }
            assert_eq!(
                (resident.cycle, resident.inst_index, resident.uop_index),
                (streamed.cycle, streamed.inst_index, streamed.uop_index),
                "{fault:?}: both sources stop at the same step"
            );
            let history = resident.inst_index.min(WINDOW);
            assert_eq!(resident.window.len(), history, "{fault:?}: a resident replay has history");
            assert!(streamed.window.is_empty(), "{fault:?}: a stream keeps no history");
        }
    }

    #[test]
    fn invariants_are_audited_periodically_and_at_the_end() {
        // A long run trips the audit mid-stream, on the 4096th step…
        let (long, _) = trace_and_encoding(6_000);
        let d = Replay::resident(&long).checked().run(&mut Faulty::new(Fault::Invariant));
        let d = d.unwrap_err();
        assert!(d.ip.is_some(), "the periodic audit fires before the end: {d}");
        // …a short one only at the end.
        let (short, _) = trace_and_encoding(200);
        let d = Replay::resident(&short).checked().run(&mut Faulty::new(Fault::Invariant));
        let d = d.unwrap_err();
        assert_eq!((d.ip, d.inst_index), (None, short.inst_count()), "{d}");
    }

    #[test]
    fn unchecked_replays_only_watch_for_livelock() {
        let (trace, encoded) = trace_and_encoding(2_000);
        let clean = IcFrontend::new(IcFrontendConfig::default()).run(&trace);
        for fault in [Fault::NoCycle, Fault::Partition, Fault::UncausedSwitch, Fault::Invariant] {
            let m = Replay::resident(&trace).run(&mut Faulty::new(fault)).unwrap();
            assert_eq!(m.total_uops(), clean.total_uops(), "{fault:?}");
        }
        for d in [
            Replay::resident(&trace).run(&mut Faulty::new(Fault::Livelock)).unwrap_err(),
            Replay::streamed(&mut TraceStream::new(encoded.as_slice()).unwrap())
                .run(&mut Faulty::new(Fault::Livelock))
                .unwrap_err(),
        ] {
            assert_eq!(d.kind, DivergenceKind::Livelock, "{d}");
            assert!(d.uop_index >= 100, "{d}");
        }
    }

    #[test]
    #[should_panic(expected = "Livelock divergence in `faulty`")]
    fn run_panics_on_livelock() {
        let (trace, _) = trace_and_encoding(2_000);
        Faulty::new(Fault::Livelock).run(&trace);
    }

    #[test]
    fn against_reports_the_first_differing_instruction() {
        let (trace, _) = trace_and_encoding(2_000);
        let mut ic = IcFrontend::new(IcFrontendConfig::default());
        let m = Replay::resident(&trace).checked().against(&trace).run(&mut ic).unwrap();
        assert_eq!(m, IcFrontend::new(IcFrontendConfig::default()).run(&trace));

        let mut insts = trace.insts().to_vec();
        insts[100].taken = !insts[100].taken;
        let reference = Trace::from_parts("edited", insts);
        let mut ic = IcFrontend::new(IcFrontendConfig::default());
        let d = Replay::resident(&trace).against(&reference).run(&mut ic).unwrap_err();
        assert_eq!(d.kind, DivergenceKind::Stream, "{d}");
        assert!(d.detail.starts_with("inst 100 differs"), "{d}");
        assert_eq!(d.window.len(), WINDOW + 1, "8 matched insts, then the expected one");
        assert!(d.window[WINDOW].starts_with("next expected ref[100]"), "{d}");

        // A reference the subject outruns, or one it falls short of.
        let head = Trace::from_parts("head", trace.insts()[..500].to_vec());
        let mut ic = IcFrontend::new(IcFrontendConfig::default());
        let d = Replay::resident(&trace).against(&head).run(&mut ic).unwrap_err();
        assert!(d.detail.contains("reference has only 500"), "{d}");
        let mut ic = IcFrontend::new(IcFrontendConfig::default());
        let d = Replay::resident(&head).against(&trace).run(&mut ic).unwrap_err();
        assert!(d.detail.starts_with("run ended after 500 insts"), "{d}");
    }

    #[test]
    #[should_panic(expected = "needs a resident subject")]
    fn against_rejects_a_streamed_subject() {
        let (trace, encoded) = trace_and_encoding(200);
        let mut stream = TraceStream::new(encoded.as_slice()).unwrap();
        let _ = Replay::streamed(&mut stream).against(&trace);
    }
}
