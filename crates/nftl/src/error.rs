//! NFTL error type.

use std::error::Error;
use std::fmt;

use nand::pool::FreeExhausted;
use nand::NandError;
use swl_core::SwlError;

/// Errors surfaced by [`crate::BlockMappedNftl`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum NftlError {
    /// The logical address is beyond the exported capacity.
    LbaOutOfRange {
        /// Offending logical page address.
        lba: u64,
        /// Exported logical capacity in pages.
        logical_pages: u64,
    },
    /// No virtual block has a replacement to merge: nothing can be
    /// reclaimed. The virtual-block space is over-committed; reserve more
    /// blocks.
    NoReclaimableSpace,
    /// The free-block pool ran dry during a merge.
    FreeExhausted,
    /// Mounting found an inconsistent on-flash layout at this block.
    MountCorrupt {
        /// The block whose contents could not be interpreted.
        block: u32,
    },
    /// The underlying device rejected an operation.
    Device(NandError),
    /// The attached SW Leveler rejected its configuration.
    Swl(SwlError),
}

impl fmt::Display for NftlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NftlError::LbaOutOfRange { lba, logical_pages } => {
                write!(f, "lba {lba} out of range ({logical_pages} logical pages)")
            }
            NftlError::NoReclaimableSpace => {
                f.write_str("no reclaimable space: no replacement block to merge")
            }
            NftlError::FreeExhausted => f.write_str("free block pool exhausted during merge"),
            NftlError::MountCorrupt { block } => {
                write!(f, "mount found inconsistent state in block {block}")
            }
            NftlError::Device(e) => write!(f, "device error: {e}"),
            NftlError::Swl(e) => write!(f, "wear leveler error: {e}"),
        }
    }
}

impl Error for NftlError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NftlError::Device(e) => Some(e),
            NftlError::Swl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NandError> for NftlError {
    fn from(e: NandError) -> Self {
        NftlError::Device(e)
    }
}

impl From<FreeExhausted> for NftlError {
    fn from(_: FreeExhausted) -> Self {
        NftlError::FreeExhausted
    }
}

impl From<SwlError> for NftlError {
    fn from(e: SwlError) -> Self {
        NftlError::Swl(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = NftlError::LbaOutOfRange {
            lba: 3,
            logical_pages: 2,
        };
        assert!(e.to_string().contains("lba 3"));
        assert!(e.source().is_none());
        let e = NftlError::Device(NandError::BlockOutOfRange {
            block: 0,
            blocks: 0,
        });
        assert!(e.source().is_some());
    }
}
