#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Full-system simulator: SM cores + write-through L1s + crossbar NoC +
//! L2 partitions + GDDR DRAM, generic over the coherence protocol.
//!
//! The [`system::System`] wires one protocol's controllers into the timed
//! substrate and advances everything cycle by cycle; [`runner::simulate`]
//! dispatches a [`ProtocolKind`](rcc_core::ProtocolKind) to the right
//! concrete system and returns [`metrics::RunMetrics`] — the measurements
//! every figure of the paper is computed from. The SC scoreboard can
//! verify any SC-capable run, and [`litmus`] drives the litmus tests of
//! `rcc-workloads` and extracts the observed outcomes.
//!
//! # Example
//!
//! ```
//! use rcc_common::GpuConfig;
//! use rcc_core::ProtocolKind;
//! use rcc_sim::runner::{simulate, SimOptions};
//! use rcc_workloads::{Benchmark, Scale};
//!
//! let cfg = GpuConfig::small();
//! let wl = Benchmark::Hsp.generate(&cfg, &Scale::quick(), 1);
//! let m = simulate(ProtocolKind::RccSc, &cfg, &wl, &SimOptions::checked());
//! assert!(m.cycles > 0);
//! assert_eq!(m.sc_violations, 0);
//! ```

pub mod checkpoint;
pub mod error;
pub mod litmus;
pub mod metrics;
pub mod observe;
pub mod runner;
pub mod sched;
pub mod system;

pub use checkpoint::Checkpoint;
pub use error::{HangDump, RunOutcome, SimError};
pub use metrics::{RunMetrics, SchedStats};
pub use observe::Observer;
pub use runner::{
    resume, resume_slice, simulate, try_simulate, try_simulate_slice, SimOptions, SliceOutcome,
    SliceProgress, SliceRun,
};
pub use sched::EventQueue;
pub use system::System;
