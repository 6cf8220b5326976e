//! `ffs` — an inode-based Unix filesystem over a simulated block device.
//!
//! This crate plays two roles in the DisCFS reproduction:
//!
//! 1. **The `FFS` baseline** of the paper's Figures 7–12: benchmarks run
//!    directly against this filesystem to obtain the "local file
//!    system" series.
//! 2. **The backing store** for the user-level NFS servers (CFS-NE and
//!    DisCFS) — the paper's prototype stored files in the server's
//!    local filesystem, identified by inode numbers; our `discfs` crate
//!    does the same, with the generation numbers the paper lists as
//!    future work.
//!
//! The design is a deliberately classic Berkeley-style layout on 8 KB
//! blocks: superblock, inode/block bitmaps, a fixed inode table, then
//! data blocks. Files grow through 12 direct pointers, one single- and
//! one double-indirect block. Directories store real `.`/`..` entries.
//! An [`fsck`][Ffs::check]-style invariant checker backs the property
//! tests.
//!
//! # Storage backends
//!
//! The filesystem is written against the [`BlockStore`] trait from the
//! `store` crate rather than a concrete device. Every constructor
//! takes the store as an `Arc<dyn BlockStore>`:
//!
//! * [`Ffs::format_in_memory`] — an untimed in-memory simulated disk.
//! * [`Ffs::format_on`] / [`Ffs::mount_on`] / [`Ffs::open_or_format`]
//!   — any store: hand-built, or built from a `store::StoreBackend`
//!   description (a base plus bottom-up layers; the grammar is in the
//!   [`store`] crate docs) with
//!   `backend.build(&clock, config.total_blocks)`. On a journaled
//!   `File` base, call [`Ffs::sync`] to apply the WAL; a `Dedup` base
//!   reports its hit ratio through [`BlockStore::stats`].
//!
//! **Hot-path note:** `BlockStore::read_block` returns a shared
//! `Bytes` handle, and the filesystem's read path consumes it without
//! copying per block at the store layer — on in-memory, dedup, and
//! cache-hit paths a block read performs **zero heap allocations**
//! (`crates/bench/benches/micro_store.rs` pins this with a counting
//! allocator). Writes on a `File` base are group-committed: journal
//! records reach disk in one syscall per [`store::JOURNAL_BATCH_RECORDS`]
//! batch with the on-disk record format unchanged.
//!
//! # Parallel I/O engine (the pipelined file path)
//!
//! File reads and writes no longer loop the store per block: each
//! operation resolves its whole block mapping first, then moves the
//! extent in **one vectored call** (`BlockStore::read_blocks` /
//! `write_blocks`; a one-block extent stays scalar). Partial head and
//! tail blocks are still read-modify-written through
//! `read_block_into`, but the RMW'd buffers ride in the same vectored
//! write as the full blocks, in ascending file order — so the journal
//! records of a journaled backend are the same records, in the same
//! order, as the per-block loop produced (the crash matrix is
//! unchanged and passing). What the batching buys per backend:
//!
//! * `Layer::Sharded { workers: true, .. }` fans the extent out one
//!   job per involved shard through bounded submission queues, so a
//!   *single* client's streaming burst drives all N shards concurrently
//!   (`crates/bench/benches/streaming.rs` pins the ≥ 2× speedup on
//!   ≥ 4 cores).
//! * A `File` base seals a W-block vectored write into exactly
//!   `ceil(W / JOURNAL_BATCH_RECORDS)` journal append syscalls — the
//!   vectored write is a durability unit (its records are sealed when
//!   the call returns).
//! * `Layer::Cached` with a nonzero `readahead` detects ascending
//!   strides on the scalar read path (NFS-style 8 KB transfers) and
//!   prefetches that window from the inner store vectored, so a
//!   sequential consumer finds its next blocks already cached
//!   (`StoreStats::readahead_blocks` counts the traffic).
//! * `Layer::Timed` charges a contiguous run one seek + rotation plus
//!   per-block transfer — exactly what the looped path charged for
//!   the same access order, so the paper's virtual-time figures are
//!   byte-stable.
//!
//! Shutdown/flush ordering: `Ffs::sync` still flushes before writing
//! the clean marker and flushes again after; on a worker-enabled
//! sharded backend each flush is a job submitted behind any queued
//! work (FIFO), so the clean marker can never overtake an in-flight
//! vectored write, and dropping the volume joins the workers before
//! the per-shard journals seal their final batches.
//!
//! # Persistence lifecycle
//!
//! A volume is a long-lived entity: format once, then mount on every
//! later life. The constructors split three ways:
//!
//! * **format** ([`Ffs::format_on`] and friends) — creates a fresh
//!   volume. Since the store now carries a checksummed superblock,
//!   the `format_*` paths *refuse* to touch a store that already
//!   holds one (the pre-mount behavior of silently reformatting — and
//!   destroying — an existing journaled volume is gone);
//!   [`Ffs::force_format_on`] is the explicit eraser.
//! * **mount** ([`Ffs::mount_on`]) — reopens an existing volume:
//!   validates the superblock (magic, version, SHA-256 checksum,
//!   geometry against the store size — garbage fails closed with a
//!   [`MountError`]) and rebuilds in-memory state from disk.
//! * **open-or-format** ([`Ffs::open_or_format`]) — mounts when a
//!   superblock is present, formats when the store is virgin; a
//!   *damaged* superblock is still an error, never a silent reformat.
//!
//! Durability is sync-granular: [`Ffs::sync`] writes the in-memory
//! inode/block bitmaps to their durable regions, flushes the backend
//! (journaled backends apply their WAL; write-back caches write their
//! dirty blocks down first), marks the superblock clean, and flushes
//! once more — the flush *before* the clean marker guarantees the
//! marker can never reach the journal ahead of a mutation it claims
//! to cover, even through a `Layer::Cached` write-back cache. A
//! mount of a clean volume trusts the durable bitmaps; the
//! first mutation after a sync flips the superblock dirty, so a mount
//! after an unclean shutdown runs an fsck-style recovery sweep
//! instead: the inode table is authoritative, bitmaps are rebuilt
//! from it, directory entries pointing at lost inodes are dropped,
//! orphaned inodes/blocks are freed, and link counts are repaired —
//! landing on the last consistent state. On a journaled `File` base
//! every write is also journaled *before* [`Ffs::sync`], so an
//! acknowledged write survives a crash unless the journal record
//! itself was torn; the crash-injection tests truncate the journal at
//! every byte offset to pin that behavior down.
//!
//! The on-disk superblock layout (block 0) is documented in the
//! crate-private `sb` module: magic `FFSDISC1`, version, geometry
//! (`total_blocks`, `inode_count`, bitmap/inode-table/data offsets),
//! the sync tick, the clean flag, and a SHA-256 checksum over the
//! header.
//!
//! # Example
//!
//! ```
//! use ffs::{Ffs, FsConfig};
//!
//! let fs = Ffs::format_in_memory(FsConfig::small());
//! let root = fs.root();
//! let ino = fs.create(root, "hello.txt", 0o644, 0, 0).unwrap();
//! fs.write(ino, 0, b"hello world").unwrap();
//! assert_eq!(fs.read(ino, 0, 5).unwrap(), b"hello");
//! fs.check().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod fs;
mod inode;
mod sb;
#[cfg(test)]
mod tests;

pub use fs::{Attr, DirEntry, Ffs, FsConfig, FsStats, Ino, SetAttr};
pub use inode::FileKind;
pub use sb::MountError;
pub use store::{BlockStore, BLOCK_SIZE};

/// Errors returned by filesystem operations (errno-flavored).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsError {
    /// No such file or directory.
    NoEnt,
    /// Entry already exists.
    Exists,
    /// Operation requires a directory.
    NotDir,
    /// Operation cannot apply to a directory.
    IsDir,
    /// Directory not empty.
    NotEmpty,
    /// Out of data blocks or inodes.
    NoSpace,
    /// Name too long or contains `/` or NUL.
    BadName,
    /// The handle's generation number is outdated (file was deleted and
    /// the inode reused) — NFS `ESTALE`.
    Stale,
    /// Inode number out of range or not allocated.
    BadInode,
    /// File too large for the pointer geometry.
    TooBig,
    /// Operation not supported on this file type.
    BadType,
    /// Cannot move a directory into its own subtree.
    InvalidMove,
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FsError::NoEnt => "no such file or directory",
            FsError::Exists => "file exists",
            FsError::NotDir => "not a directory",
            FsError::IsDir => "is a directory",
            FsError::NotEmpty => "directory not empty",
            FsError::NoSpace => "no space left on device",
            FsError::BadName => "invalid file name",
            FsError::Stale => "stale file handle",
            FsError::BadInode => "invalid inode",
            FsError::TooBig => "file too large",
            FsError::BadType => "inappropriate file type",
            FsError::InvalidMove => "invalid directory move",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for FsError {}
