#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! GPU core (SM) model: warp contexts, a loose round-robin scheduler,
//! and a load-store unit that enforces the consistency model.
//!
//! The model follows the paper's methodology (Section IV-A): for
//! sequentially consistent configurations the core "executes global
//! memory instructions sequentially" — at most one outstanding global
//! access per warp, the *naïve SC* baseline of Singh et al. [MICRO 2015]
//! — while weakly ordered configurations let a warp's accesses overlap
//! and stall only at FENCEs. Fine-grained multithreading across the 48
//! warps per core is what hides memory latency either way.
//!
//! The core also implements the synchronization idioms the benchmarks
//! need ([ops](op::MemOp)): spin locks built from CAS retry loops with
//! backoff, inter-workgroup "fast barriers" built from atomic arrivals
//! plus atomic polling [Xiao & Feng, IPDPS 2010], and intra-workgroup
//! barrier waits that are free of memory traffic.
//!
//! Stall accounting mirrors the paper's Figs. 1 and 8: every cycle a
//! warp's next memory operation is ready but blocked by the ordering
//! rules counts as an SC stall, attributed to the kind of the operation
//! being waited on (prior store/atomic vs prior load), and each issued
//! operation records whether it ever stalled and for how long.

pub mod core;
pub mod op;
pub mod stats;

pub use self::core::{
    Core, CoreOutput, CoreParams, FencePolicy, OutstandingAccess, SchedPolicy, WarpState,
    MAX_WARPS_PER_CORE,
};
pub use op::{MemOp, WarpProgram};
pub use stats::{CoreStats, PrevOpKind};
