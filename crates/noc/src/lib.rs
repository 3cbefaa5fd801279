#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Interconnect model: one flit-level crossbar per direction (Table III)
//! plus an ORION-2.0-style energy model for Fig. 9b.
//!
//! The [`network::Network`] models injection-port serialization (one
//! 32-bit flit per NoC cycle per port at half the core clock), crossbar
//! traversal latency, and ejection-port serialization. Packets between a
//! given source and destination are delivered in injection order, which
//! is stronger than real virtual-channel routers guarantee but safe for
//! every protocol in this suite; virtual channels are tracked for
//! occupancy statistics and leakage energy (MESI needs 5 VCs for deadlock
//! freedom, the timestamp protocols 2 — Table III).
//!
//! # Example
//!
//! ```
//! use rcc_common::config::GpuConfig;
//! use rcc_common::time::Cycle;
//! use rcc_noc::Network;
//!
//! let cfg = GpuConfig::small();
//! let mut net: Network<&'static str> = Network::new(&cfg.noc, 4, 2, 2);
//! net.inject(Cycle(0), 0, 1, 0, 34, "a full cache line");
//! // Nothing arrives before serialization + traversal completes.
//! let mut arrived = Vec::new();
//! net.deliver(Cycle(1), &mut arrived);
//! assert!(arrived.is_empty());
//! // Then the packet pops out of its destination port.
//! let at = net.next_event().expect("in flight");
//! net.deliver(at, &mut arrived);
//! assert_eq!(arrived, vec![(1, "a full cache line")]);
//! ```

pub mod energy;
pub mod network;

pub use energy::{EnergyBreakdown, NocEnergyModel};
pub use network::Network;
