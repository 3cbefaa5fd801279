#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Foundation types shared by every crate in the RCC reproduction.
//!
//! This crate deliberately contains no simulation logic: it defines the
//! vocabulary — [addresses](addr), [identifiers](ids), [timestamps](time),
//! the [machine configuration](config) of Table III in the paper, the
//! [statistics](stats) plumbing that every figure is computed from, and a
//! tiny deterministic [RNG](rng) so that whole-system simulations are
//! bit-reproducible from a seed.
//!
//! # Example
//!
//! ```
//! use rcc_common::config::GpuConfig;
//!
//! let cfg = GpuConfig::gtx480();
//! assert_eq!(cfg.num_cores, 16);
//! assert_eq!(cfg.l2.num_partitions, 8);
//! ```

pub mod addr;
pub mod config;
pub mod hash;
pub mod ids;
pub mod rng;
pub mod snap;
pub mod stats;
pub mod time;
pub mod unwind;

pub use addr::{Addr, LineAddr, WordAddr};
pub use config::GpuConfig;
pub use hash::{FxHashMap, FxHashSet};
pub use ids::{CoreId, PartitionId, WarpId, WorkgroupId};
pub use rng::Pcg32;
pub use snap::{SnapError, SnapReader, SnapWriter, StateDigest};
pub use time::{Cycle, Timestamp};
