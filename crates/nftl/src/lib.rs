//! # `nftl` — a block-mapping NAND flash translation layer
//!
//! The coarse-grained baseline of the DAC 2007 static wear leveling study,
//! after the M-Systems NFTL design: a logical address splits into a *virtual
//! block address* (VBA) and a *block offset*; each VBA maps to a **primary**
//! physical block, written in place at the offset, plus (once offsets start
//! being overwritten) a **replacement** block that absorbs updates
//! sequentially. A full replacement block triggers a *merge*: the newest
//! copy of every offset is gathered into a fresh primary and the two old
//! blocks are erased.
//!
//! As in the paper's experiments:
//!
//! - garbage collection (merging the pair with the most invalid pages,
//!   found by cyclic scan) runs when free blocks drop under 0.2 % of
//!   capacity;
//! - the allocator takes the lowest-erase-count free block (dynamic wear
//!   leveling);
//! - the [`SwLeveler`](swl_core::SwLeveler) plugs in through
//!   [`nand::pool::SwlDriver`] to force cold blocks through recycling.
//!
//! ## Pool and policy
//!
//! The block-level half of the Cleaner is the shared
//! [`nand::pool::BlockPool`], the same one under the `ftl` crate: the free
//! ladder and its min-wear pop, erase-and-free, bad-block retirement,
//! erase attribution, the free-target threshold and causal spans. This
//! crate is the block-mapping policy on top of it, [`BlockMapping`]:
//! primary/replacement pairs per virtual block, merges (which attribute
//! their own erases by merge cause), the data-page half of mount, and
//! greedy victim scoring per VBA. [`BlockMappedNftl`] is that policy in the
//! shared [`nand::pool::SwlDriver`] shell.
//!
//! ## Example
//!
//! ```
//! use nand::{CellKind, Geometry, NandDevice};
//! use nftl::{BlockMappedNftl, NftlConfig};
//!
//! # fn main() -> Result<(), nftl::NftlError> {
//! let device = NandDevice::new(Geometry::new(32, 8, 2048), CellKind::Mlc2.spec());
//! let mut nftl = BlockMappedNftl::new(device, NftlConfig::default())?;
//!
//! nftl.write(9, 0x11)?;
//! nftl.write(9, 0x22)?; // overwrite goes to a replacement block
//! assert_eq!(nftl.read(9)?, Some(0x22));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod counters;
mod error;
mod translation;

pub use config::NftlConfig;
pub use counters::NftlCounters;
pub use error::NftlError;
pub use translation::{BlockMappedNftl, BlockMapping};
