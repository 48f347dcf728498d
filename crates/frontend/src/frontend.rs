//! The common frontend interface.

use crate::metrics::FrontendMetrics;
use crate::oracle::OracleStream;
use crate::replay::Replay;
use xbc_obs::EventSink;
use xbc_workload::{InstSource, Trace};

/// A trace-driven frontend model: replays a committed instruction stream
/// and reports how many cycles it took and where the uops came from.
///
/// Implementations in this workspace: [`crate::IcFrontend`] (pure
/// instruction cache), [`crate::UopCacheFrontend`] (decoded cache, paper
/// §2.2), [`crate::TraceCacheFrontend`] (paper §2.3), and the XBC frontend
/// in the `xbc` crate (paper §3).
///
/// The unit of progress is [`Frontend::step`]: one machine cycle against
/// the oracle cursor. [`Replay`] is the one loop that drives it: the
/// provided `run*` methods are one-line replays, and checkers (`--check`,
/// the `xbc-check` fuzzer) build a checked [`Replay`] that audits the
/// accounting identities and state *between* cycles instead of only at
/// the end of a run.
pub trait Frontend {
    /// Short machine-readable name (used in report tables).
    fn name(&self) -> &str;

    /// Advances the model by exactly one cycle against `oracle`,
    /// accumulating into `metrics`. Every call must add at least one cycle
    /// to `metrics.cycles`.
    ///
    /// # Panics
    ///
    /// May panic if called when `oracle.done()` — callers check first.
    fn step(&mut self, oracle: &mut OracleStream<'_>, metrics: &mut FrontendMetrics);

    /// [`Frontend::step`], with cycle-level event tracing into `sink`.
    ///
    /// Emits one `Event` per counter bump (so a `Reconciler` fold of
    /// the stream reproduces `metrics` exactly) plus observability-only
    /// detail, closing with exactly one `Event::Cycle`. The default
    /// ignores `sink` and just steps — every frontend in this workspace
    /// overrides it; the default exists so external `Frontend` impls
    /// (if any) keep compiling, degrading to an empty trace.
    ///
    /// # Panics
    ///
    /// Same contract as [`Frontend::step`].
    fn step_traced(
        &mut self,
        oracle: &mut OracleStream<'_>,
        metrics: &mut FrontendMetrics,
        sink: &mut dyn EventSink,
    ) {
        let _ = sink;
        self.step(oracle, metrics);
    }

    /// Label of the current internal mode (`"build"` / `"delivery"`), for
    /// divergence reports. Single-mode frontends report `"build"`.
    fn mode_label(&self) -> &'static str {
        "build"
    }

    /// One-line summary of internal state for watchdog / divergence
    /// diagnostics. Default: empty.
    fn state_brief(&self) -> String {
        String::new()
    }

    /// Structural self-audit: verifies the model's internal invariants
    /// (duplicate-free arrays, consistent counters, valid pointers).
    /// Returns a description of the first violation found. Frontends
    /// without auditable structure report `Ok(())`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    fn check_invariants(&self) -> Result<(), String> {
        Ok(())
    }

    /// Replays the whole trace, returning accumulated metrics.
    ///
    /// A frontend is single-shot per run: internal predictor/cache state
    /// persists across calls, which models a warm restart; create a fresh
    /// instance for an independent run.
    ///
    /// # Panics
    ///
    /// Panics with the [`Divergence`](crate::Divergence) if the frontend
    /// livelocks (see [`Replay`]).
    fn run(&mut self, trace: &Trace) -> FrontendMetrics {
        Replay::resident(trace).run(self).unwrap_or_else(|d| panic!("{d}"))
    }

    /// [`Frontend::run`], tracing every cycle's events into `sink`
    /// through [`Frontend::step_traced`].
    ///
    /// # Panics
    ///
    /// Same livelock watchdog as [`Frontend::run`].
    fn run_traced(&mut self, trace: &Trace, sink: &mut dyn EventSink) -> FrontendMetrics {
        Replay::resident(trace).traced(sink).run(self).unwrap_or_else(|d| panic!("{d}"))
    }

    /// [`Frontend::run`] over a streaming instruction source (see
    /// [`Replay::streamed`]): host memory is O(window) however long the
    /// trace is, and the metrics are bit-identical to a resident
    /// [`Frontend::run`] of the same committed stream.
    ///
    /// # Panics
    ///
    /// Same livelock watchdog as [`Frontend::run`]; additionally panics
    /// if the source yields corrupt data mid-stream (see
    /// `xbc_workload::TraceStream`).
    fn run_streamed(&mut self, source: &mut dyn InstSource) -> FrontendMetrics {
        Replay::streamed(source).run(self).unwrap_or_else(|d| panic!("{d}"))
    }
}
