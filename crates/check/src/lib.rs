//! # xbc-check — correctness harness for the XBC reproduction
//!
//! Performance models rot silently: a refactor that flips a stall cycle or
//! drops a uop still "runs", it just reports subtly wrong numbers. This
//! crate is the workspace's defense, in three layers:
//!
//! 1. **Lockstep differential oracle** — a checked
//!    [`Replay`](xbc_frontend::Replay) `.against` the committed
//!    reference stream advances any [`Frontend`](xbc_frontend::Frontend)
//!    step by step and stops at the *first*
//!    [`Divergence`](xbc_frontend::Divergence) (stream mismatch, a broken
//!    cycle, d2b-cause or uop-conservation identity, livelock), reporting
//!    the IP, instruction/uop index, cycle, mode, and a window of recent
//!    history. `xbcsim --check` runs the same checks, minus the reference.
//! 2. **Structural invariants** — [`xbc::XbcInvariants`] audits the XBC
//!    array, XBTB, and fill unit; a checked replay invokes them through
//!    [`Frontend::check_invariants`](xbc_frontend::Frontend::check_invariants)
//!    every 4096 steps and at the end of the run, and the `xbc` crate
//!    additionally self-audits after every install/extend in debug builds
//!    or under its `check` feature.
//! 3. **Seeded fuzzing with shrinking** — [`FuzzCase`] derives a random
//!    workload + configuration point from a `u64` seed, [`run_case`]
//!    replays it through every frontend that way, and [`shrink`]
//!    greedily reduces a failure to a minimal JSON reproducer that
//!    `tests/repro_replay.rs` picks up automatically.
//!
//! The `xbc-check` binary drives fuzz campaigns; see `xbc-check --help`.
//!
//! # Example
//!
//! ```
//! use xbc_check::FuzzCase;
//! use xbc_frontend::{IcFrontend, IcFrontendConfig, Replay};
//!
//! let case = FuzzCase { insts: 800, functions: 3, ..FuzzCase::from_seed(1) };
//! let (reference, subject) = case.traces();
//! let mut ic = IcFrontend::new(IcFrontendConfig::default());
//! let metrics = Replay::resident(&subject).checked().against(&reference).run(&mut ic).unwrap();
//! assert_eq!(metrics.total_uops(), reference.uop_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A `Divergence` carries its full diagnostic context (state snapshot plus
// an 8-instruction window); it is built once, at the moment a run fails,
// so the Err path's size is irrelevant to the hot loop.
#![allow(clippy::result_large_err)]

mod fuzz;
mod shrink;

pub use fuzz::{run_case, Failure, FuzzCase};
pub use shrink::{shrink, Shrunk, MIN_INSTS};
