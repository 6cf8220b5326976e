//! The on-disk superblock (block 0) and mount-time validation errors.
//!
//! # On-disk layout (version 1)
//!
//! All integers big-endian, matching the inode encoding:
//!
//! | offset | size | field                                         |
//! |--------|------|-----------------------------------------------|
//! | 0      | 8    | magic `b"FFSDISC1"`                           |
//! | 8      | 4    | format version (currently 1)                  |
//! | 12     | 8    | `total_blocks` — volume geometry              |
//! | 20     | 4    | `inode_count`                                 |
//! | 24     | 8    | `ibmap_start` — first inode-bitmap block      |
//! | 32     | 8    | `bbmap_start` — first block-bitmap block      |
//! | 40     | 8    | `itable_start` — first inode-table block      |
//! | 48     | 8    | `data_start` — first data block               |
//! | 56     | 8    | `tick` — filesystem clock at the last sync    |
//! | 64     | 1    | `clean` — 1 when the on-disk bitmaps are valid|
//! | 65     | 31   | reserved (zero)                               |
//! | 96     | 32   | SHA-256 over bytes `0..96`                    |
//!
//! The checksum makes "refuse to mount garbage" cheap: random bytes,
//! a truncated image, or a bit-flipped header all fail closed instead
//! of producing a half-mounted volume. The `clean` flag is written as
//! 1 by [`crate::Ffs::sync`] together with fresh bitmap copies, and
//! flipped to 0 by the first mutation afterwards — so a mount sees
//! either trustworthy bitmaps or an explicit signal to rebuild state
//! from the inode table.

use discfs_crypto::sha256::Sha256;
use discfs_crypto::Digest;

use store::BLOCK_SIZE;

/// Superblock magic: identifies a formatted volume.
pub(crate) const SB_MAGIC: [u8; 8] = *b"FFSDISC1";
/// Current on-disk format version.
pub(crate) const SB_VERSION: u32 = 1;
/// Bytes covered by the superblock checksum.
const SB_HASHED: usize = 96;
/// Checksum offset.
const SB_CHECKSUM_AT: usize = 96;

/// Why a store could not be mounted as an existing volume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MountError {
    /// Block 0 carries no superblock magic — the store was never
    /// formatted (or holds something else entirely).
    NoSuperblock,
    /// The superblock magic matched but the format version is not one
    /// this build understands.
    UnsupportedVersion(u32),
    /// The superblock checksum does not match its contents (torn
    /// superblock write or corrupted image).
    ChecksumMismatch,
    /// The stored geometry is internally inconsistent (layout offsets
    /// do not follow from `total_blocks`/`inode_count`).
    CorruptGeometry,
    /// The volume claims more blocks than the backing store provides.
    DiskTooSmall {
        /// Blocks the superblock says the volume spans.
        volume_blocks: u64,
        /// Blocks the backing store actually has.
        disk_blocks: u64,
    },
    /// The superblock was valid but the volume state behind it is not
    /// recoverable (e.g. the root directory inode is gone).
    CorruptVolume(String),
}

impl std::fmt::Display for MountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MountError::NoSuperblock => write!(f, "no superblock: store is not a formatted volume"),
            MountError::UnsupportedVersion(v) => write!(f, "unsupported volume format version {v}"),
            MountError::ChecksumMismatch => write!(f, "superblock checksum mismatch"),
            MountError::CorruptGeometry => write!(f, "superblock geometry is inconsistent"),
            MountError::DiskTooSmall {
                volume_blocks,
                disk_blocks,
            } => write!(
                f,
                "volume spans {volume_blocks} blocks but the store only has {disk_blocks}"
            ),
            MountError::CorruptVolume(why) => write!(f, "volume unrecoverable: {why}"),
        }
    }
}

impl std::error::Error for MountError {}

/// Parsed superblock contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Superblock {
    pub total_blocks: u64,
    pub inode_count: u32,
    pub ibmap_start: u64,
    pub bbmap_start: u64,
    pub itable_start: u64,
    pub data_start: u64,
    /// Filesystem tick at the last sync (mount resumes past it).
    pub tick: u64,
    /// Whether the on-disk bitmaps match the inode table.
    pub clean: bool,
}

impl Superblock {
    /// Serializes to a full superblock block (checksummed).
    pub fn to_block(self) -> Vec<u8> {
        let mut out = vec![0u8; BLOCK_SIZE];
        out[0..8].copy_from_slice(&SB_MAGIC);
        out[8..12].copy_from_slice(&SB_VERSION.to_be_bytes());
        out[12..20].copy_from_slice(&self.total_blocks.to_be_bytes());
        out[20..24].copy_from_slice(&self.inode_count.to_be_bytes());
        out[24..32].copy_from_slice(&self.ibmap_start.to_be_bytes());
        out[32..40].copy_from_slice(&self.bbmap_start.to_be_bytes());
        out[40..48].copy_from_slice(&self.itable_start.to_be_bytes());
        out[48..56].copy_from_slice(&self.data_start.to_be_bytes());
        out[56..64].copy_from_slice(&self.tick.to_be_bytes());
        out[64] = self.clean as u8;
        let checksum = Sha256::digest(&out[..SB_HASHED]);
        out[SB_CHECKSUM_AT..SB_CHECKSUM_AT + 32].copy_from_slice(&checksum);
        out
    }

    /// Parses and validates a superblock read from block 0.
    ///
    /// # Errors
    ///
    /// [`MountError::NoSuperblock`] when the magic is absent,
    /// [`MountError::UnsupportedVersion`] /
    /// [`MountError::ChecksumMismatch`] for recognizable-but-unusable
    /// headers.
    pub fn from_block(data: &[u8]) -> Result<Superblock, MountError> {
        if data.len() < BLOCK_SIZE || data[0..8] != SB_MAGIC {
            return Err(MountError::NoSuperblock);
        }
        let version = u32::from_be_bytes(data[8..12].try_into().expect("4 bytes"));
        if version != SB_VERSION {
            return Err(MountError::UnsupportedVersion(version));
        }
        let checksum = Sha256::digest(&data[..SB_HASHED]);
        if data[SB_CHECKSUM_AT..SB_CHECKSUM_AT + 32] != checksum[..] {
            return Err(MountError::ChecksumMismatch);
        }
        let u64_at =
            |off: usize| u64::from_be_bytes(data[off..off + 8].try_into().expect("8 bytes"));
        Ok(Superblock {
            total_blocks: u64_at(12),
            inode_count: u32::from_be_bytes(data[20..24].try_into().expect("4 bytes")),
            ibmap_start: u64_at(24),
            bbmap_start: u64_at(32),
            itable_start: u64_at(40),
            data_start: u64_at(48),
            tick: u64_at(56),
            clean: data[64] == 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Superblock {
        Superblock {
            total_blocks: 2048,
            inode_count: 1024,
            ibmap_start: 1,
            bbmap_start: 2,
            itable_start: 3,
            data_start: 35,
            tick: 42,
            clean: true,
        }
    }

    #[test]
    fn round_trip() {
        let sb = sample();
        assert_eq!(Superblock::from_block(&sb.to_block()), Ok(sb));
    }

    #[test]
    fn garbage_is_no_superblock() {
        let block = vec![0xA5u8; BLOCK_SIZE];
        assert_eq!(
            Superblock::from_block(&block),
            Err(MountError::NoSuperblock)
        );
        assert_eq!(
            Superblock::from_block(&vec![0u8; BLOCK_SIZE]),
            Err(MountError::NoSuperblock)
        );
    }

    #[test]
    fn bit_flip_fails_checksum() {
        let mut block = sample().to_block();
        block[13] ^= 0x80; // corrupt total_blocks
        assert_eq!(
            Superblock::from_block(&block),
            Err(MountError::ChecksumMismatch)
        );
    }

    #[test]
    fn future_version_is_rejected() {
        let mut block = sample().to_block();
        block[8..12].copy_from_slice(&7u32.to_be_bytes());
        assert_eq!(
            Superblock::from_block(&block),
            Err(MountError::UnsupportedVersion(7))
        );
    }
}
