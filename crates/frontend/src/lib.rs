//! # xbc-frontend — frontend framework and baselines
//!
//! The trace-driven frontend machinery shared by every instruction-supply
//! model in the workspace, plus the paper's baselines:
//!
//! * [`OracleStream`] — uop-granular replay cursor over a captured trace,
//! * [`FrontendMetrics`] — cycle/uop accounting (miss rate, bandwidth),
//! * [`Frontend`] — the common `run(trace) -> metrics` interface,
//! * [`Replay`] — the one replay loop behind every run, with the
//!   livelock watchdog and optional per-cycle checks ([`Divergence`]),
//! * [`BuildEngine`] / [`Predictors`] / [`FillSink`] — the shared IC + BTB +
//!   decoder build-mode pipeline of paper Figure 6 (upper path),
//! * [`IcFrontend`] — instruction-cache-only baseline (§2.1),
//! * [`UopCacheFrontend`] — decoded-cache baseline (§2.2),
//! * [`TraceCacheFrontend`] — the trace-cache baseline the XBC is compared
//!   against (§2.3, §4),
//! * [`BbtcFrontend`] — the block-based trace cache (§2.4, Black et al.).
//!
//! The XBC frontend itself lives in the `xbc` crate and plugs into the same
//! interfaces.
//!
//! # Example
//!
//! ```
//! use xbc_frontend::{Frontend, TcConfig, TraceCacheFrontend};
//! use xbc_workload::standard_traces;
//!
//! let trace = standard_traces()[0].capture(10_000);
//! let mut tc = TraceCacheFrontend::new(TcConfig::default());
//! let metrics = tc.run(&trace);
//! println!("TC miss rate {:.1}%", 100.0 * metrics.uop_miss_rate());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bbtc;
mod build;
mod frontend;
mod icfe;
mod metrics;
mod oracle;
mod probe;
mod replay;
mod tc;
mod uopcache;

pub use bbtc::{BbtcConfig, BbtcFrontend};
pub use build::{BuildEngine, FillSink, NoFill, Predictors, TimingConfig};
pub use frontend::Frontend;
pub use icfe::{IcFrontend, IcFrontendConfig};
pub use metrics::FrontendMetrics;
pub use oracle::{OracleStream, DEFAULT_STREAM_LOOKAHEAD, DEFAULT_STREAM_WINDOW};
pub use probe::{Probe, Reconciler};
pub use replay::{Divergence, DivergenceKind, Replay};
pub use tc::{TcConfig, TraceCacheFrontend};
pub use uopcache::{UopCacheConfig, UopCacheFrontend};
