#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Coherence protocols: **RCC** (the paper's contribution) and the three
//! baselines it is evaluated against (MESI, TC-Strong, TC-Weak), plus the
//! SC-IDEAL limit study used in Fig. 1d.
//!
//! All protocols are *message-level finite state machines* behind the
//! [`protocol::L1Cache`] / [`protocol::L2Bank`] traits: they react to core
//! accesses, network messages and DRAM fills by mutating cache state and
//! emitting messages into outboxes. All *timing* (network latency,
//! bandwidth, queueing, DRAM service) lives in `rcc-sim`, which makes the
//! FSMs directly unit-testable — the walkthrough of the paper's Fig. 3 is
//! literally a test in [`rcc`].
//!
//! | protocol | time base | SC? | stall-free store permissions? |
//! |----------|-----------|-----|-------------------------------|
//! | [`mesi`] | none (invalidations) | yes | no (invalidate sharers) |
//! | [`tc`] TC-Strong | physical | yes | no (wait for lease expiry) |
//! | [`tc`] TC-Weak | physical | no | yes (but fences stall) |
//! | [`rcc`] | **logical** | **yes** | **yes** |
//!
//! # Example
//!
//! ```
//! use rcc_common::GpuConfig;
//! use rcc_core::{rcc::RccProtocol, protocol::Protocol};
//!
//! let cfg = GpuConfig::small();
//! let protocol = RccProtocol::sequential(&cfg);
//! let l1 = protocol.make_l1(rcc_common::CoreId(0), &cfg);
//! # let _ = l1;
//! ```

mod bank;
pub mod census;
pub mod ideal;
pub mod kind;
mod l1;
pub mod mesi;
pub mod msg;
pub mod protocol;
pub mod rcc;
pub mod scoreboard;
pub mod tc;
#[cfg(test)]
pub(crate) mod testrig;

pub use kind::ProtocolKind;
pub use msg::{
    Access, AccessKind, AccessOutcome, AtomicOp, Completion, CompletionKind, RejectReason, ReqId,
    ReqMsg, ReqPayload, RespMsg, RespPayload,
};
pub use protocol::{L1Cache, L1Outbox, L1Stats, L2Bank, L2Outbox, L2Stats, Protocol};
