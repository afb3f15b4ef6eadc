//! # `ftl` — a page-mapping flash translation layer
//!
//! The fine-grained baseline of the DAC 2007 static wear leveling study:
//! every logical page has its own entry in a RAM translation table, updates
//! are written out-of-place to a log-structured *frontier* block, and a
//! greedy garbage collector reclaims invalid pages.
//!
//! Faithful to the paper's experimental setup (§5.1):
//!
//! - **Greedy cost/benefit Cleaner** — victims are found by a cyclic scan
//!   over the chip; a block qualifies when its benefit (invalid pages)
//!   outweighs its cost (valid pages to copy).
//! - **GC trigger** — garbage collection runs when free blocks drop under
//!   0.2 % of capacity (configurable).
//! - **Dynamic wear leveling** — the allocator always takes the free block
//!   with the lowest erase count.
//! - **Static wear leveling** — optional [`swl_core::SwLeveler`] integration
//!   through [`nand::pool::SwlDriver`]: every erase is reported to
//!   SWL-BETUpdate, and SWL-Procedure forces cold blocks through GC.
//!
//! ## Pool and policy
//!
//! The block-level half of the Cleaner is the shared
//! [`nand::pool::BlockPool`], the same one under the `nftl` crate: the free
//! ladder and its min-wear pop, erase-and-free, bad-block retirement,
//! GC-vs-SWL erase attribution, the free-target threshold and causal spans.
//! This crate is the page-mapping policy on top of it, [`PageMapping`]: the
//! translation table, the write frontiers (with optional hot/cold
//! separation), copy-on-write snapshots, the data-page half of mount, and
//! greedy victim scoring per block. [`PageMappedFtl`] is that policy in the
//! shared [`nand::pool::SwlDriver`] shell.
//!
//! ## Example
//!
//! ```
//! use ftl::{FtlConfig, PageMappedFtl};
//! use nand::{CellKind, Geometry, NandDevice};
//! use swl_core::SwlConfig;
//!
//! # fn main() -> Result<(), ftl::FtlError> {
//! let device = NandDevice::new(Geometry::new(64, 16, 2048), CellKind::Mlc2.spec());
//! let mut ftl = PageMappedFtl::with_swl(device, FtlConfig::default(), SwlConfig::new(100, 0))?;
//!
//! ftl.write(10, 0xAA)?;
//! ftl.write(10, 0xBB)?; // out-of-place update
//! assert_eq!(ftl.read(10)?, Some(0xBB));
//! assert_eq!(ftl.counters().host_writes, 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod counters;
mod error;
pub mod merge;
mod snapshot;
mod translation;

pub use config::{FtlConfig, SnapshotConfig};
pub use counters::FtlCounters;
pub use error::FtlError;
pub use translation::{PageMappedFtl, PageMapping, SnapshotAudit};
