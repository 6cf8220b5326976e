//! Filesystem operations: allocation, block mapping, directories, and
//! the inode-level API the NFS layer exposes.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::inode::{FileKind, Inode, INODES_PER_BLOCK, INODE_SIZE, NDIRECT, PTRS_PER_BLOCK};
use crate::sb::{MountError, Superblock};
use crate::FsError;
use store::{zero_block, BlockStore, BLOCK_SIZE};

/// An inode number. 0 is invalid; 1 is the root directory.
pub type Ino = u32;

/// Maximum file-name length in a directory entry.
const MAX_NAME: usize = 255;

/// Filesystem geometry parameters.
#[derive(Debug, Clone, Copy)]
pub struct FsConfig {
    /// Total blocks on the device (8 KB each).
    pub total_blocks: u64,
    /// Number of inodes in the table.
    pub inode_count: u32,
}

impl FsConfig {
    /// 16 MB / 1024 inodes: quick unit tests.
    pub fn small() -> FsConfig {
        FsConfig {
            total_blocks: 2048,
            inode_count: 1024,
        }
    }

    /// 256 MB / 8192 inodes: enough for the 100 MB Bonnie file.
    pub fn standard() -> FsConfig {
        FsConfig {
            total_blocks: 32768,
            inode_count: 8192,
        }
    }
}

/// Bits per bitmap block.
const BITS_PER_BLOCK: u64 = (BLOCK_SIZE * 8) as u64;

/// Static block layout derived from an [`FsConfig`].
///
/// Block 0 is the checksummed superblock (see [`crate::sb`]); the
/// inode and block bitmaps follow it, then the inode table, then data.
/// The bitmaps are the durable copies written by [`Ffs::sync`] — the
/// live copies stay in memory and the inode table remains
/// authoritative, so a mount of an uncleanly closed volume rebuilds
/// them with a recovery sweep instead of trusting stale bits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    pub(crate) total_blocks: u64,
    pub(crate) ibmap_start: u64,
    pub(crate) bbmap_start: u64,
    pub(crate) itable_start: u64,
    pub(crate) data_start: u64,
}

impl Layout {
    fn new(config: &FsConfig) -> Layout {
        let ibmap_start = 1;
        let ibmap_blocks = (config.inode_count as u64).div_ceil(BITS_PER_BLOCK);
        let bbmap_start = ibmap_start + ibmap_blocks;
        let bbmap_blocks = config.total_blocks.div_ceil(BITS_PER_BLOCK);
        let itable_start = bbmap_start + bbmap_blocks;
        let itable_blocks = (config.inode_count as u64).div_ceil(INODES_PER_BLOCK as u64);
        let data_start = itable_start + itable_blocks;
        Layout {
            total_blocks: config.total_blocks,
            ibmap_start,
            bbmap_start,
            itable_start,
            data_start,
        }
    }

    fn superblock(&self, inode_count: u32, tick: u64, clean: bool) -> Superblock {
        Superblock {
            total_blocks: self.total_blocks,
            inode_count,
            ibmap_start: self.ibmap_start,
            bbmap_start: self.bbmap_start,
            itable_start: self.itable_start,
            data_start: self.data_start,
            tick,
            clean,
        }
    }
}

/// Mutable allocation state (the "buffer cache" view of the bitmaps).
struct FsInner {
    inode_bitmap: Vec<bool>,
    block_bitmap: Vec<bool>,
    free_blocks: u64,
    free_inodes: u32,
    /// Monotonic tick used for atime/mtime/ctime (deterministic).
    tick: u64,
    /// Rotating allocation hint for data blocks.
    alloc_hint: u64,
    /// Whether in-memory state has diverged from the on-disk bitmaps
    /// since the last [`Ffs::sync`] (mirrors the superblock's `clean`
    /// flag, inverted).
    dirty: bool,
}

impl FsInner {
    /// Empty state for a volume about to be mounted: bitmaps all
    /// clear, counters zero, resuming the clock past `tick`.
    fn cold(layout: &Layout, inode_count: u32, tick: u64) -> FsInner {
        FsInner {
            inode_bitmap: vec![false; inode_count as usize],
            block_bitmap: vec![false; layout.total_blocks as usize],
            free_blocks: 0,
            free_inodes: 0,
            tick,
            alloc_hint: layout.data_start,
            dirty: false,
        }
    }
}

/// File attributes as reported by [`Ffs::getattr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attr {
    /// Inode number.
    pub ino: Ino,
    /// File kind.
    pub kind: FileKind,
    /// Permission bits (low 12 bits).
    pub mode: u32,
    /// Owner uid.
    pub uid: u32,
    /// Owner gid.
    pub gid: u32,
    /// Hard-link count.
    pub nlink: u32,
    /// Size in bytes.
    pub size: u64,
    /// Access time (ticks).
    pub atime: u64,
    /// Modification time (ticks).
    pub mtime: u64,
    /// Change time (ticks).
    pub ctime: u64,
    /// Inode generation (for stale-handle detection).
    pub generation: u32,
}

/// Attribute updates for [`Ffs::setattr`]; `None` leaves a field alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetAttr {
    /// New permission bits.
    pub mode: Option<u32>,
    /// New owner uid.
    pub uid: Option<u32>,
    /// New owner gid.
    pub gid: Option<u32>,
    /// New size (truncate/extend).
    pub size: Option<u64>,
    /// New access time.
    pub atime: Option<u64>,
    /// New modification time.
    pub mtime: Option<u64>,
}

/// One directory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name.
    pub name: String,
    /// Target inode.
    pub ino: Ino,
}

/// Filesystem usage statistics ([`Ffs::statfs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsStats {
    /// Block size in bytes.
    pub block_size: u32,
    /// Total data blocks.
    pub total_blocks: u64,
    /// Free data blocks.
    pub free_blocks: u64,
    /// Total inodes.
    pub total_inodes: u32,
    /// Free inodes.
    pub free_inodes: u32,
}

/// The filesystem, generic over its storage backend via the
/// [`BlockStore`] trait (dyn dispatch; block I/O dominates the call
/// cost).
pub struct Ffs {
    pub(crate) disk: Arc<dyn BlockStore>,
    pub(crate) inode_count: u32,
    layout: Layout,
    inner: Mutex<FsInner>,
}

/// Maximum file size supported by the pointer geometry.
fn max_file_size() -> u64 {
    ((NDIRECT + PTRS_PER_BLOCK + PTRS_PER_BLOCK * PTRS_PER_BLOCK) as u64) * BLOCK_SIZE as u64
}

fn validate_name(name: &str) -> Result<(), FsError> {
    if name.is_empty()
        || name.len() > MAX_NAME
        || name.contains('/')
        || name.contains('\0')
        || name == "."
        || name == ".."
    {
        return Err(FsError::BadName);
    }
    Ok(())
}

impl Ffs {
    /// Formats a fresh filesystem on any [`BlockStore`] backend,
    /// refusing to destroy an existing volume.
    ///
    /// # Panics
    ///
    /// Panics when the store is too small for the requested inode
    /// table, or when the store already carries a volume superblock —
    /// reformatting a live volume silently destroyed every file, so
    /// that now requires the explicit [`Ffs::force_format_on`] (or use
    /// [`Ffs::mount_on`] / [`Ffs::open_or_format`] to keep the data).
    pub fn format_on(disk: Arc<dyn BlockStore>, config: FsConfig) -> Ffs {
        assert!(
            !Ffs::is_formatted(&*disk),
            "store already holds a formatted volume; mount it with Ffs::mount_on or \
             Ffs::open_or_format, or erase it explicitly with Ffs::force_format_on"
        );
        Ffs::force_format_on(disk, config)
    }

    /// Whether `disk` carries a volume superblock (even a damaged
    /// one): the signal that a `format_*` path would destroy data.
    pub fn is_formatted(disk: &dyn BlockStore) -> bool {
        disk.block_count() > 0
            && !matches!(
                Superblock::from_block(&disk.read_block_meta(0)),
                Err(MountError::NoSuperblock)
            )
    }

    /// Whether `disk` looks never-written: block 0 reads as all zeros
    /// (every backend presents unwritten blocks that way). A store
    /// that is neither formatted nor virgin holds *something* —
    /// foreign data, or a volume decrypted with the wrong key — and
    /// [`Ffs::open_or_format`] refuses to format over it.
    pub fn is_virgin(disk: &dyn BlockStore) -> bool {
        disk.block_count() == 0 || disk.read_block_meta(0).iter().all(|&b| b == 0)
    }

    /// Formats unconditionally, overwriting any existing volume on the
    /// store.
    ///
    /// # Panics
    ///
    /// Panics when the store is too small for the requested inode
    /// table.
    pub fn force_format_on(disk: Arc<dyn BlockStore>, config: FsConfig) -> Ffs {
        // Invalidate any existing superblock FIRST: on a journaled
        // backend this is the first replayed record, so a crash
        // mid-reformat can never resurrect the old clean superblock
        // over a half-zeroed volume — the image reads as virgin
        // instead.
        if disk.block_count() > 0 && !Ffs::is_virgin(&*disk) {
            disk.write_block_meta(0, &zero_block());
        }
        let layout = Layout::new(&config);
        assert!(
            layout.data_start + 8 <= config.total_blocks,
            "disk too small for inode table"
        );
        assert!(
            disk.block_count() >= config.total_blocks,
            "disk smaller than config"
        );

        let mut inner = FsInner {
            inode_bitmap: vec![false; config.inode_count as usize],
            block_bitmap: vec![false; config.total_blocks as usize],
            free_blocks: config.total_blocks - layout.data_start,
            free_inodes: config.inode_count - 2, // 0 reserved, 1 = root
            tick: 1,
            alloc_hint: layout.data_start,
            dirty: false,
        };
        // Metadata region is permanently allocated.
        for b in 0..layout.data_start {
            inner.block_bitmap[b as usize] = true;
        }
        // Inode 0 is reserved so that pointer value 0 can mean "none".
        inner.inode_bitmap[0] = true;

        let fs = Ffs {
            disk,
            inode_count: config.inode_count,
            layout,
            inner: Mutex::new(inner),
        };

        // Zero the inode table: one shared zero block (no allocation),
        // one vectored metadata call for the whole region.
        let zero = zero_block();
        let writes: Vec<(u64, &[u8])> = (fs.layout.itable_start..fs.layout.data_start)
            .map(|b| (b, &zero[..]))
            .collect();
        fs.disk.write_blocks_meta(&writes);

        // Create the root directory (inode 1), with "." and ".." both
        // pointing at itself.
        {
            let mut inner = fs.inner.lock();
            inner.inode_bitmap[1] = true;
            let tick = inner.tick;
            let mut root = Inode::empty(1);
            root.mode = FileKind::Directory.mode_bits() | 0o755;
            root.nlink = 2;
            root.atime = tick;
            root.mtime = tick;
            root.ctime = tick;
            fs.write_inode(1, &root);
            let entries = vec![
                DirEntry {
                    name: ".".into(),
                    ino: 1,
                },
                DirEntry {
                    name: "..".into(),
                    ino: 1,
                },
            ];
            fs.write_dir(&mut inner, 1, &entries)
                .expect("fresh filesystem has space for the root directory");
            // Durable baseline: bitmaps, then the superblock last, so a
            // replayed crash mid-format never yields a valid superblock
            // over a half-formatted volume.
            fs.write_bitmaps(&inner);
            fs.write_superblock(inner.tick, true);
        }
        fs
    }

    /// Mounts an existing volume when the store carries a superblock,
    /// and formats a fresh one when the store is virgin — the right
    /// default for persistent backends that may or may not have been
    /// used before.
    ///
    /// # Errors
    ///
    /// [`MountError`] when a superblock is present but damaged
    /// (checksum mismatch, unknown version, impossible geometry), and
    /// also when block 0 holds unrecognized *nonzero* data — which is
    /// what an encrypted volume opened with the wrong key
    /// looks like. Either way the data is *not* silently destroyed —
    /// recover it (or fix the key), or erase explicitly with
    /// [`Ffs::force_format_on`].
    pub fn open_or_format(disk: Arc<dyn BlockStore>, config: FsConfig) -> Result<Ffs, MountError> {
        if Ffs::is_formatted(&*disk) {
            Ffs::mount_on(disk)
        } else if Ffs::is_virgin(&*disk) {
            Ok(Ffs::force_format_on(disk, config))
        } else {
            Err(MountError::CorruptVolume(
                "block 0 holds unrecognized data (foreign contents, or a volume opened \
                 with the wrong encryption key); refusing to format over it"
                    .into(),
            ))
        }
    }

    /// Mounts the volume already present on `disk`.
    ///
    /// The superblock is validated (magic, version, checksum, geometry
    /// against the store size) before anything else is touched, so
    /// garbage fails closed. A volume whose superblock says `clean`
    /// loads its durable bitmaps directly; an uncleanly closed volume
    /// gets a full recovery sweep that rebuilds the bitmaps from the
    /// inode table, drops directory entries pointing at lost inodes,
    /// frees orphaned inodes and blocks, and repairs link counts — so
    /// the mount lands on the last consistent state instead of
    /// propagating torn mid-operation writes.
    ///
    /// # Errors
    ///
    /// [`MountError`] describing why the store cannot be mounted.
    pub fn mount_on(disk: Arc<dyn BlockStore>) -> Result<Ffs, MountError> {
        if disk.block_count() == 0 {
            return Err(MountError::NoSuperblock);
        }
        let sb = Superblock::from_block(&disk.read_block_meta(0))?;
        if sb.inode_count < 2 {
            return Err(MountError::CorruptGeometry);
        }
        let config = FsConfig {
            total_blocks: sb.total_blocks,
            inode_count: sb.inode_count,
        };
        let layout = Layout::new(&config);
        if layout.ibmap_start != sb.ibmap_start
            || layout.bbmap_start != sb.bbmap_start
            || layout.itable_start != sb.itable_start
            || layout.data_start != sb.data_start
            || layout.data_start + 8 > sb.total_blocks
        {
            return Err(MountError::CorruptGeometry);
        }
        if disk.block_count() < sb.total_blocks {
            return Err(MountError::DiskTooSmall {
                volume_blocks: sb.total_blocks,
                disk_blocks: disk.block_count(),
            });
        }
        let fs = Ffs {
            disk,
            inode_count: sb.inode_count,
            layout,
            inner: Mutex::new(FsInner::cold(&layout, sb.inode_count, sb.tick)),
        };
        if sb.clean {
            fs.mount_clean(&sb)?;
        } else {
            fs.mount_recover(&sb)?;
        }
        Ok(fs)
    }

    /// Formats a filesystem on a fresh untimed in-memory disk.
    pub fn format_in_memory(config: FsConfig) -> Ffs {
        let disk = store::SimStore::untimed(config.total_blocks);
        Ffs::format_on(Arc::new(disk), config)
    }

    /// The root directory inode (always 1).
    pub fn root(&self) -> Ino {
        1
    }

    /// Access to the underlying block store (I/O counters, stats).
    pub fn disk(&self) -> &dyn BlockStore {
        &*self.disk
    }

    /// Syncs the volume: writes the in-memory bitmaps to their durable
    /// on-disk regions, flushes the backing store, marks the
    /// superblock clean, and flushes again.
    ///
    /// The flush *before* the clean marker is load-bearing for
    /// write-back compositions (`store::CachedStore`): it forces every
    /// buffered mutation down into the backend's journal first, so the
    /// clean marker can never precede a mutation it claims to cover —
    /// a crash between the two flushes replays to a volume that is
    /// either still marked dirty (recovery sweep runs) or clean with
    /// *all* mutations applied. Cost: the first flush does the bulk
    /// apply (that work existed before), and the second pays one extra
    /// small fsync + journal truncate for just the clean-marker record
    /// — the price of ordering correctness under a write-back cache,
    /// paid on every backend because `Ffs` cannot see through the
    /// composition to know whether one is present.
    ///
    /// After a successful sync, [`Ffs::mount_on`] takes the fast path:
    /// it trusts the durable bitmaps instead of sweeping the inode
    /// table.
    ///
    /// # Errors
    ///
    /// I/O failure of the underlying medium.
    pub fn sync(&self) -> std::io::Result<()> {
        let mut inner = self.inner.lock();
        if inner.dirty {
            self.write_bitmaps(&inner);
            self.disk.flush()?;
            self.write_superblock(inner.tick, true);
            inner.dirty = false;
        }
        self.disk.flush()
    }

    // -- durable metadata ---------------------------------------------------

    /// Writes both bitmaps to their durable on-disk regions.
    fn write_bitmaps(&self, inner: &FsInner) {
        self.write_bitmap_region(self.layout.ibmap_start, &inner.inode_bitmap);
        self.write_bitmap_region(self.layout.bbmap_start, &inner.block_bitmap);
    }

    fn write_bitmap_region(&self, start: u64, bits: &[bool]) {
        // Pack the whole region, then push it as one vectored metadata
        // call: one lock/journal batch/RPC instead of one per block.
        let blocks: Vec<Vec<u8>> = bits
            .chunks(BITS_PER_BLOCK as usize)
            .map(|chunk| {
                let mut block = vec![0u8; BLOCK_SIZE];
                for (j, &bit) in chunk.iter().enumerate() {
                    if bit {
                        block[j / 8] |= 1 << (j % 8);
                    }
                }
                block
            })
            .collect();
        let writes: Vec<(u64, &[u8])> = blocks
            .iter()
            .enumerate()
            .map(|(i, block)| (start + i as u64, &block[..]))
            .collect();
        self.disk.write_blocks_meta(&writes);
    }

    pub(crate) fn read_bitmap_region(&self, start: u64, nbits: u64) -> Vec<bool> {
        let mut bits = Vec::with_capacity(nbits as usize);
        for i in 0..nbits.div_ceil(BITS_PER_BLOCK) {
            let data = self.disk.read_block_meta(start + i);
            let take = (nbits as usize - bits.len()).min(BITS_PER_BLOCK as usize);
            for j in 0..take {
                bits.push(data[j / 8] & (1 << (j % 8)) != 0);
            }
        }
        bits
    }

    fn write_superblock(&self, tick: u64, clean: bool) {
        let sb = self.layout.superblock(self.inode_count, tick, clean);
        self.disk.write_block_meta(0, &sb.to_block());
    }

    /// Flips the volume to "dirty" on the first mutation after a sync,
    /// so a later mount knows the durable bitmaps are stale. Written
    /// before the mutation's own blocks: any journal prefix that
    /// contains mutated state also contains the dirty marker.
    fn mark_dirty(&self, inner: &mut FsInner) {
        if !inner.dirty {
            inner.dirty = true;
            self.write_superblock(inner.tick, false);
        }
    }

    /// Fast mount path for a cleanly synced volume: load the durable
    /// bitmaps directly.
    fn mount_clean(&self, sb: &Superblock) -> Result<(), MountError> {
        let inode_bitmap =
            self.read_bitmap_region(self.layout.ibmap_start, self.inode_count as u64);
        let block_bitmap =
            self.read_bitmap_region(self.layout.bbmap_start, self.layout.total_blocks);
        if !inode_bitmap[0] || !inode_bitmap[1] {
            return Err(MountError::CorruptVolume(
                "clean volume lost its reserved inodes".into(),
            ));
        }
        if block_bitmap[..self.layout.data_start as usize]
            .iter()
            .any(|&b| !b)
        {
            return Err(MountError::CorruptVolume(
                "metadata region not marked allocated".into(),
            ));
        }
        let root = self.read_inode(1);
        if FileKind::from_mode(root.mode) != Some(FileKind::Directory) {
            return Err(MountError::CorruptVolume(
                "root inode is not a directory".into(),
            ));
        }
        let free_blocks = block_bitmap[self.layout.data_start as usize..]
            .iter()
            .filter(|&&b| !b)
            .count() as u64;
        let free_inodes = inode_bitmap[1..].iter().filter(|&&b| !b).count() as u32;
        let mut inner = self.inner.lock();
        inner.inode_bitmap = inode_bitmap;
        inner.block_bitmap = block_bitmap;
        inner.free_blocks = free_blocks;
        inner.free_inodes = free_inodes;
        inner.tick = sb.tick + 1;
        inner.dirty = false;
        Ok(())
    }

    /// Reads a file's contents during recovery, range-checking every
    /// pointer: a block number outside the volume reads as a hole
    /// instead of panicking the backend (only block 0 is checksummed,
    /// so a corrupt image can carry wild pointers in its inode table).
    /// The length is capped at both the pointer-geometry maximum and
    /// the volume size, so an absurd size field cannot balloon the
    /// read.
    fn read_file_guarded(&self, inode: &Inode) -> Vec<u8> {
        let ptrs = PTRS_PER_BLOCK as u64;
        let in_range =
            |p: u32| p as u64 >= self.layout.data_start && (p as u64) < self.layout.total_blocks;
        let guarded_table =
            |p: u32| -> Option<Vec<u32>> { in_range(p).then(|| self.read_ptr_block(p as u64)) };
        let len = inode
            .size
            .min(max_file_size())
            .min(self.layout.total_blocks.saturating_mul(BLOCK_SIZE as u64))
            as usize;
        let mut out = Vec::with_capacity(len);
        let mut fbn = 0u64;
        while out.len() < len {
            let take = (len - out.len()).min(BLOCK_SIZE);
            let ptr = if fbn < NDIRECT as u64 {
                inode.direct[fbn as usize]
            } else if fbn < NDIRECT as u64 + ptrs {
                guarded_table(inode.indirect)
                    .map(|t| t[(fbn - NDIRECT as u64) as usize])
                    .unwrap_or(0)
            } else {
                let idx = fbn - NDIRECT as u64 - ptrs;
                guarded_table(inode.double_indirect)
                    .and_then(|outer| guarded_table(outer[(idx / ptrs) as usize]))
                    .map(|t| t[(idx % ptrs) as usize])
                    .unwrap_or(0)
            };
            if ptr != 0 && in_range(ptr) {
                out.extend_from_slice(&self.disk.read_block_meta(ptr as u64)[..take]);
            } else {
                out.extend(std::iter::repeat_n(0u8, take));
            }
            fbn += 1;
        }
        out
    }

    /// Recovery sweep for an uncleanly closed volume: the inode table
    /// is authoritative, everything else is rebuilt or repaired.
    ///
    /// 1. Scan the inode table; clear records with an impossible kind
    ///    (a torn inode-table write).
    /// 2. Walk the directory tree from the root, planning repairs:
    ///    entries pointing at free/invalid inodes are dropped,
    ///    duplicate names collapse to the first, `.`/`..` are pinned to
    ///    self/parent, and a directory already claimed by another
    ///    parent is dropped.
    /// 3. Rebuild the block bitmap from reachable inodes, clearing
    ///    pointers that fell outside the volume or beyond a file's
    ///    size (a torn write that placed a block before the size
    ///    update landed).
    /// 4. Clear orphaned inodes (allocated but unreachable — their
    ///    directory entry never made it to disk), apply the planned
    ///    directory rewrites, and repair link counts.
    fn mount_recover(&self, sb: &Superblock) -> Result<(), MountError> {
        let n_inodes = self.inode_count;
        let data_start = self.layout.data_start;
        let total = self.layout.total_blocks;

        // Pass 1: inode table scan.
        let mut allocated = vec![false; n_inodes as usize];
        let mut max_tick = sb.tick;
        for ino in 1..n_inodes {
            let inode = self.read_inode(ino);
            if inode.mode == 0 {
                continue;
            }
            if FileKind::from_mode(inode.mode).is_none() {
                self.write_inode(ino, &Inode::empty(inode.generation));
                continue;
            }
            allocated[ino as usize] = true;
            max_tick = max_tick.max(inode.atime).max(inode.mtime).max(inode.ctime);
        }
        if !allocated[1] || self.read_inode(1).kind() != FileKind::Directory {
            return Err(MountError::CorruptVolume(
                "root directory inode missing".into(),
            ));
        }

        // Pass 2: read-only tree walk, planning repaired directories.
        // Directory data is read through the guarded path: only block 0
        // is checksummed, so a corrupt image can carry wild pointers,
        // and those must read as holes here — the claim_block sweep in
        // pass 3 clears them from the inodes afterwards.
        let mut claimed: HashSet<Ino> = HashSet::from([1]);
        let mut reachable: HashSet<Ino> = HashSet::from([1]);
        let mut entry_refs: HashMap<Ino, u32> = HashMap::new();
        let mut planned_dirs: Vec<(Ino, Vec<DirEntry>, bool)> = Vec::new();
        let mut queue: VecDeque<(Ino, Ino)> = VecDeque::from([(1, 1)]);
        while let Some((dir, parent)) = queue.pop_front() {
            let dir_inode = self.read_inode(dir);
            let data = self.read_file_guarded(&dir_inode);
            let mut changed = false;
            let mut planned: Vec<DirEntry> = Vec::new();
            let mut seen: HashSet<String> = HashSet::new();
            let (mut has_dot, mut has_dotdot) = (false, false);
            for entry in Ffs::parse_dir(&data) {
                match entry.name.as_str() {
                    "." => {
                        if has_dot {
                            changed = true;
                            continue;
                        }
                        has_dot = true;
                        changed |= entry.ino != dir;
                        planned.push(DirEntry {
                            name: ".".into(),
                            ino: dir,
                        });
                    }
                    ".." => {
                        if has_dotdot {
                            changed = true;
                            continue;
                        }
                        has_dotdot = true;
                        changed |= entry.ino != parent;
                        planned.push(DirEntry {
                            name: "..".into(),
                            ino: parent,
                        });
                    }
                    _ => {
                        if !seen.insert(entry.name.clone())
                            || entry.ino == 0
                            || entry.ino >= n_inodes
                            || !allocated[entry.ino as usize]
                        {
                            changed = true;
                            continue;
                        }
                        if self.read_inode(entry.ino).kind() == FileKind::Directory {
                            if !claimed.insert(entry.ino) {
                                changed = true;
                                continue;
                            }
                            queue.push_back((entry.ino, dir));
                        }
                        reachable.insert(entry.ino);
                        planned.push(entry);
                    }
                }
            }
            if !has_dot {
                planned.insert(
                    0,
                    DirEntry {
                        name: ".".into(),
                        ino: dir,
                    },
                );
                changed = true;
            }
            if !has_dotdot {
                planned.insert(
                    1,
                    DirEntry {
                        name: "..".into(),
                        ino: parent,
                    },
                );
                changed = true;
            }
            for e in &planned {
                *entry_refs.entry(e.ino).or_insert(0) += 1;
            }
            planned_dirs.push((dir, planned, changed));
        }

        // Pass 3: rebuild the block bitmap from reachable inodes.
        fn claim_block(bitmap: &mut [bool], data_start: u64, blk: u64) -> bool {
            if blk < data_start || blk >= bitmap.len() as u64 || bitmap[blk as usize] {
                return false;
            }
            bitmap[blk as usize] = true;
            true
        }
        let mut block_bitmap = vec![false; total as usize];
        for b in 0..data_start {
            block_bitmap[b as usize] = true;
        }
        // Directories that lose a data block here must be rewritten in
        // pass 4 from their planned entries even when those entries
        // parsed clean — otherwise the cleared block silently empties
        // the directory while its children stay allocated.
        let mut dirs_lost_blocks: HashSet<Ino> = HashSet::new();
        for ino in 1..n_inodes {
            if !reachable.contains(&ino) {
                continue;
            }
            let mut inode = self.read_inode(ino);
            let max_fbn = inode.size.div_ceil(BLOCK_SIZE as u64);
            let mut inode_changed = false;
            let mut lost_block = false;
            for slot in 0..NDIRECT {
                let ptr = inode.direct[slot] as u64;
                if ptr != 0
                    && ((slot as u64) >= max_fbn
                        || !claim_block(&mut block_bitmap, data_start, ptr))
                {
                    inode.direct[slot] = 0;
                    inode_changed = true;
                    lost_block = true;
                }
            }
            if inode.indirect != 0 {
                if !claim_block(&mut block_bitmap, data_start, inode.indirect as u64) {
                    inode.indirect = 0;
                    inode_changed = true;
                    lost_block = true;
                } else {
                    let table = self.read_ptr_block(inode.indirect as u64);
                    for (i, &ptr) in table.iter().enumerate() {
                        if ptr != 0
                            && ((NDIRECT + i) as u64 >= max_fbn
                                || !claim_block(&mut block_bitmap, data_start, ptr as u64))
                        {
                            self.write_ptr(inode.indirect as u64, i, 0);
                            lost_block = true;
                        }
                    }
                }
            }
            if inode.double_indirect != 0 {
                if !claim_block(&mut block_bitmap, data_start, inode.double_indirect as u64) {
                    inode.double_indirect = 0;
                    inode_changed = true;
                    lost_block = true;
                } else {
                    let outer = self.read_ptr_block(inode.double_indirect as u64);
                    for (o, &mid) in outer.iter().enumerate() {
                        if mid == 0 {
                            continue;
                        }
                        if !claim_block(&mut block_bitmap, data_start, mid as u64) {
                            self.write_ptr(inode.double_indirect as u64, o, 0);
                            lost_block = true;
                            continue;
                        }
                        let table = self.read_ptr_block(mid as u64);
                        for (i, &ptr) in table.iter().enumerate() {
                            let fbn = (NDIRECT + PTRS_PER_BLOCK + o * PTRS_PER_BLOCK + i) as u64;
                            if ptr != 0
                                && (fbn >= max_fbn
                                    || !claim_block(&mut block_bitmap, data_start, ptr as u64))
                            {
                                self.write_ptr(mid as u64, i, 0);
                                lost_block = true;
                            }
                        }
                    }
                }
            }
            if inode_changed {
                self.write_inode(ino, &inode);
            }
            if lost_block && claimed.contains(&ino) {
                dirs_lost_blocks.insert(ino);
            }
        }

        // Pass 4: clear orphans, install state, apply repairs.
        for ino in 2..n_inodes {
            if allocated[ino as usize] && !reachable.contains(&ino) {
                let generation = self.read_inode(ino).generation;
                self.write_inode(ino, &Inode::empty(generation));
            }
        }
        let mut inode_bitmap = vec![false; n_inodes as usize];
        inode_bitmap[0] = true;
        for &ino in &reachable {
            inode_bitmap[ino as usize] = true;
        }
        let free_blocks = block_bitmap[data_start as usize..]
            .iter()
            .filter(|&&b| !b)
            .count() as u64;
        let free_inodes = inode_bitmap[1..].iter().filter(|&&b| !b).count() as u32;
        let mut inner = self.inner.lock();
        inner.inode_bitmap = inode_bitmap;
        inner.block_bitmap = block_bitmap;
        inner.free_blocks = free_blocks;
        inner.free_inodes = free_inodes;
        inner.tick = max_tick + 1;
        inner.dirty = false;
        for (dir, planned, changed) in &planned_dirs {
            if *changed || dirs_lost_blocks.contains(dir) {
                self.write_dir(&mut inner, *dir, planned).map_err(|e| {
                    MountError::CorruptVolume(format!("repairing directory {dir}: {e}"))
                })?;
            }
        }
        for ino in 1..n_inodes {
            if !reachable.contains(&ino) {
                continue;
            }
            let refs = entry_refs.get(&ino).copied().unwrap_or(0);
            let mut inode = self.read_inode(ino);
            if inode.nlink != refs {
                inode.nlink = refs;
                self.write_inode(ino, &inode);
            }
        }
        // The repaired state is the new durable baseline.
        self.write_bitmaps(&inner);
        self.write_superblock(inner.tick, true);
        Ok(())
    }

    // -- inode table ------------------------------------------------------

    pub(crate) fn read_inode(&self, ino: Ino) -> Inode {
        let block = self.layout.itable_start + (ino as u64) / INODES_PER_BLOCK as u64;
        let offset = (ino as usize % INODES_PER_BLOCK) * INODE_SIZE;
        let data = self.disk.read_block_meta(block);
        Inode::from_bytes(&data[offset..offset + INODE_SIZE])
    }

    pub(crate) fn write_inode(&self, ino: Ino, inode: &Inode) {
        let block = self.layout.itable_start + (ino as u64) / INODES_PER_BLOCK as u64;
        let offset = (ino as usize % INODES_PER_BLOCK) * INODE_SIZE;
        let mut data = vec![0u8; BLOCK_SIZE];
        self.disk.read_block_meta_into(block, &mut data);
        data[offset..offset + INODE_SIZE].copy_from_slice(&inode.to_bytes());
        self.disk.write_block_meta(block, &data);
    }

    /// Loads an inode, verifying it is allocated.
    fn load(&self, ino: Ino) -> Result<Inode, FsError> {
        if ino == 0 || ino >= self.inode_count {
            return Err(FsError::BadInode);
        }
        let inode = self.read_inode(ino);
        if !inode.is_allocated() {
            return Err(FsError::BadInode);
        }
        Ok(inode)
    }

    fn alloc_inode(&self, inner: &mut FsInner) -> Result<Ino, FsError> {
        let start = 2; // skip reserved 0 and root 1
        for ino in start..self.inode_count {
            if !inner.inode_bitmap[ino as usize] {
                inner.inode_bitmap[ino as usize] = true;
                inner.free_inodes -= 1;
                // Bump the generation on reuse.
                let mut inode = self.read_inode(ino);
                inode = Inode::empty(inode.generation.wrapping_add(1));
                self.write_inode(ino, &inode);
                return Ok(ino);
            }
        }
        Err(FsError::NoSpace)
    }

    fn free_inode(&self, inner: &mut FsInner, ino: Ino) {
        let generation = self.read_inode(ino).generation;
        self.write_inode(ino, &Inode::empty(generation));
        inner.inode_bitmap[ino as usize] = false;
        inner.free_inodes += 1;
    }

    // -- block allocation ---------------------------------------------------

    fn alloc_block(&self, inner: &mut FsInner) -> Result<u64, FsError> {
        if inner.free_blocks == 0 {
            return Err(FsError::NoSpace);
        }
        let total = self.layout.total_blocks;
        let mut idx = inner.alloc_hint.max(self.layout.data_start);
        for _ in 0..total {
            if idx >= total {
                idx = self.layout.data_start;
            }
            if !inner.block_bitmap[idx as usize] {
                inner.block_bitmap[idx as usize] = true;
                inner.free_blocks -= 1;
                inner.alloc_hint = idx + 1;
                // Zero the block so stale data never leaks into reads
                // (the shared zero block: no allocation per alloc).
                self.disk.write_block_meta(idx, &zero_block());
                return Ok(idx);
            }
            idx += 1;
        }
        Err(FsError::NoSpace)
    }

    fn free_block(&self, inner: &mut FsInner, idx: u64) {
        debug_assert!(idx >= self.layout.data_start);
        debug_assert!(
            inner.block_bitmap[idx as usize],
            "double free of block {idx}"
        );
        inner.block_bitmap[idx as usize] = false;
        inner.free_blocks += 1;
    }

    // -- block mapping ------------------------------------------------------

    fn read_ptr_block(&self, block: u64) -> Vec<u32> {
        let data = self.disk.read_block_meta(block);
        data.chunks_exact(4)
            .map(|c| u32::from_be_bytes(c.try_into().expect("4 bytes")))
            .collect()
    }

    fn write_ptr(&self, block: u64, index: usize, value: u32) {
        let mut data = vec![0u8; BLOCK_SIZE];
        self.disk.read_block_meta_into(block, &mut data);
        data[index * 4..index * 4 + 4].copy_from_slice(&value.to_be_bytes());
        self.disk.write_block_meta(block, &data);
    }

    /// Maps file block `fbn` to a disk block, allocating if requested.
    fn bmap(
        &self,
        inner: &mut FsInner,
        inode: &mut Inode,
        fbn: u64,
        allocate: bool,
    ) -> Result<Option<u64>, FsError> {
        let ptrs = PTRS_PER_BLOCK as u64;
        if fbn < NDIRECT as u64 {
            let slot = fbn as usize;
            if inode.direct[slot] == 0 {
                if !allocate {
                    return Ok(None);
                }
                inode.direct[slot] = self.alloc_block(inner)? as u32;
            }
            return Ok(Some(inode.direct[slot] as u64));
        }
        let fbn = fbn - NDIRECT as u64;
        if fbn < ptrs {
            if inode.indirect == 0 {
                if !allocate {
                    return Ok(None);
                }
                inode.indirect = self.alloc_block(inner)? as u32;
            }
            let table = self.read_ptr_block(inode.indirect as u64);
            let mut entry = table[fbn as usize];
            if entry == 0 {
                if !allocate {
                    return Ok(None);
                }
                entry = self.alloc_block(inner)? as u32;
                self.write_ptr(inode.indirect as u64, fbn as usize, entry);
            }
            return Ok(Some(entry as u64));
        }
        let fbn = fbn - ptrs;
        if fbn < ptrs * ptrs {
            if inode.double_indirect == 0 {
                if !allocate {
                    return Ok(None);
                }
                inode.double_indirect = self.alloc_block(inner)? as u32;
            }
            let outer_idx = (fbn / ptrs) as usize;
            let inner_idx = (fbn % ptrs) as usize;
            let outer = self.read_ptr_block(inode.double_indirect as u64);
            let mut mid = outer[outer_idx];
            if mid == 0 {
                if !allocate {
                    return Ok(None);
                }
                mid = self.alloc_block(inner)? as u32;
                self.write_ptr(inode.double_indirect as u64, outer_idx, mid);
            }
            let table = self.read_ptr_block(mid as u64);
            let mut entry = table[inner_idx];
            if entry == 0 {
                if !allocate {
                    return Ok(None);
                }
                entry = self.alloc_block(inner)? as u32;
                self.write_ptr(mid as u64, inner_idx, entry);
            }
            return Ok(Some(entry as u64));
        }
        Err(FsError::TooBig)
    }

    /// Frees every data/indirect block at or beyond file block `from_fbn`.
    fn free_blocks_from(&self, inner: &mut FsInner, inode: &mut Inode, from_fbn: u64) {
        let ptrs = PTRS_PER_BLOCK as u64;
        for slot in 0..NDIRECT {
            if (slot as u64) >= from_fbn && inode.direct[slot] != 0 {
                self.free_block(inner, inode.direct[slot] as u64);
                inode.direct[slot] = 0;
            }
        }
        if inode.indirect != 0 {
            let base = NDIRECT as u64;
            let table = self.read_ptr_block(inode.indirect as u64);
            let mut any_left = false;
            for (i, &entry) in table.iter().enumerate() {
                if entry == 0 {
                    continue;
                }
                if base + i as u64 >= from_fbn {
                    self.free_block(inner, entry as u64);
                    self.write_ptr(inode.indirect as u64, i, 0);
                } else {
                    any_left = true;
                }
            }
            if !any_left {
                self.free_block(inner, inode.indirect as u64);
                inode.indirect = 0;
            }
        }
        if inode.double_indirect != 0 {
            let base = NDIRECT as u64 + ptrs;
            let outer = self.read_ptr_block(inode.double_indirect as u64);
            let mut any_outer_left = false;
            for (o, &mid) in outer.iter().enumerate() {
                if mid == 0 {
                    continue;
                }
                let mid_base = base + o as u64 * ptrs;
                let table = self.read_ptr_block(mid as u64);
                let mut any_left = false;
                for (i, &entry) in table.iter().enumerate() {
                    if entry == 0 {
                        continue;
                    }
                    if mid_base + i as u64 >= from_fbn {
                        self.free_block(inner, entry as u64);
                        self.write_ptr(mid as u64, i, 0);
                    } else {
                        any_left = true;
                    }
                }
                if !any_left {
                    self.free_block(inner, mid as u64);
                    self.write_ptr(inode.double_indirect as u64, o, 0);
                } else {
                    any_outer_left = true;
                }
            }
            if !any_outer_left {
                self.free_block(inner, inode.double_indirect as u64);
                inode.double_indirect = 0;
            }
        }
    }

    // -- data I/O (the pipelined file path) ---------------------------------
    //
    // Both directions gather each operation's whole block extent into
    // **one vectored store call** (`read_blocks` / `write_blocks`)
    // instead of a per-block loop: the block mapping is resolved first
    // (allocating on the write path), then the extent travels to the
    // store in a single call that a sharded backend can fan out across
    // its per-shard workers, a journaled backend can group-commit, and
    // a timed backend charges as contiguous runs. A one-block extent
    // takes the scalar path — there is nothing to batch.

    fn read_inode_data(
        &self,
        inner: &mut FsInner,
        inode: &mut Inode,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, FsError> {
        if offset >= inode.size {
            return Ok(Vec::new());
        }
        let len = len.min((inode.size - offset) as usize);
        let end = offset + len as u64;
        // Resolve the extent's mapping up front; holes stay `None`.
        let first_fbn = offset / BLOCK_SIZE as u64;
        let last_fbn = (end - 1) / BLOCK_SIZE as u64;
        let mut mapped: Vec<Option<u64>> = Vec::with_capacity((last_fbn - first_fbn + 1) as usize);
        for fbn in first_fbn..=last_fbn {
            mapped.push(self.bmap(inner, inode, fbn, false)?);
        }
        // One vectored read for every mapped block of the extent.
        let idxs: Vec<u64> = mapped.iter().flatten().copied().collect();
        let blocks = match idxs.len() {
            0 => Vec::new(),
            1 => vec![self.disk.read_block(idxs[0])],
            _ => self.disk.read_blocks(&idxs),
        };
        // Assemble: partial head/tail slices come straight off the
        // shared handles; holes read as zeros.
        let mut out = Vec::with_capacity(len);
        let mut next_block = 0usize;
        let mut pos = offset;
        for entry in &mapped {
            let in_block = (pos % BLOCK_SIZE as u64) as usize;
            let take = (BLOCK_SIZE - in_block).min((end - pos) as usize);
            match entry {
                Some(_) => {
                    out.extend_from_slice(&blocks[next_block][in_block..in_block + take]);
                    next_block += 1;
                }
                None => out.extend(std::iter::repeat_n(0u8, take)),
            }
            pos += take as u64;
        }
        Ok(out)
    }

    fn write_inode_data(
        &self,
        inner: &mut FsInner,
        inode: &mut Inode,
        offset: u64,
        data: &[u8],
    ) -> Result<(), FsError> {
        let end = offset + data.len() as u64;
        if end > max_file_size() {
            return Err(FsError::TooBig);
        }
        // Map (allocating) the whole extent first, staging each
        // block's source: full blocks borrow the caller's buffer
        // directly; partial head/tail blocks are read-modify-written
        // into owned buffers via `read_block_into`. The staged extent
        // then reaches the store as one vectored write, in ascending
        // file order — the same per-block journal records, in the same
        // order, as the old loop.
        enum Src {
            /// Byte range into the caller's `data` (a full block).
            Caller(usize),
            /// Index into the RMW buffers (a partial block).
            Rmw(usize),
        }
        let mut staged: Vec<(u64, Src)> = Vec::new();
        let mut rmw: Vec<Vec<u8>> = Vec::new();
        let mut pos = offset;
        let mut src = 0usize;
        while pos < end {
            let fbn = pos / BLOCK_SIZE as u64;
            let in_block = (pos % BLOCK_SIZE as u64) as usize;
            let take = (BLOCK_SIZE - in_block).min((end - pos) as usize);
            let block = self
                .bmap(inner, inode, fbn, true)?
                .expect("bmap with allocate=true returns a block");
            if take == BLOCK_SIZE {
                staged.push((block, Src::Caller(src)));
            } else {
                let mut buf = vec![0u8; BLOCK_SIZE];
                self.disk.read_block_into(block, &mut buf);
                buf[in_block..in_block + take].copy_from_slice(&data[src..src + take]);
                staged.push((block, Src::Rmw(rmw.len())));
                rmw.push(buf);
            }
            pos += take as u64;
            src += take;
        }
        match staged.len() {
            0 => {}
            1 => {
                let (block, source) = &staged[0];
                match source {
                    Src::Caller(at) => self.disk.write_block(*block, &data[*at..*at + BLOCK_SIZE]),
                    Src::Rmw(i) => self.disk.write_block(*block, &rmw[*i]),
                }
            }
            _ => {
                let writes: Vec<(u64, &[u8])> = staged
                    .iter()
                    .map(|(block, source)| {
                        let bytes: &[u8] = match source {
                            Src::Caller(at) => &data[*at..*at + BLOCK_SIZE],
                            Src::Rmw(i) => &rmw[*i],
                        };
                        (*block, bytes)
                    })
                    .collect();
                self.disk.write_blocks(&writes);
            }
        }
        if end > inode.size {
            inode.size = end;
        }
        Ok(())
    }

    // -- directories ----------------------------------------------------------

    fn parse_dir(data: &[u8]) -> Vec<DirEntry> {
        let mut entries = Vec::new();
        let mut pos = 0usize;
        while pos + 5 <= data.len() {
            let ino = u32::from_be_bytes(data[pos..pos + 4].try_into().expect("4 bytes"));
            let name_len = data[pos + 4] as usize;
            pos += 5;
            if pos + name_len > data.len() {
                break;
            }
            let name = String::from_utf8_lossy(&data[pos..pos + name_len]).into_owned();
            pos += name_len;
            if ino != 0 {
                entries.push(DirEntry { name, ino });
            }
        }
        entries
    }

    fn serialize_dir(entries: &[DirEntry]) -> Vec<u8> {
        let mut out = Vec::new();
        for e in entries {
            out.extend_from_slice(&e.ino.to_be_bytes());
            out.push(e.name.len() as u8);
            out.extend_from_slice(e.name.as_bytes());
        }
        out
    }

    fn read_dir(&self, inner: &mut FsInner, ino: Ino) -> Result<Vec<DirEntry>, FsError> {
        let mut inode = self.load(ino)?;
        if inode.kind() != FileKind::Directory {
            return Err(FsError::NotDir);
        }
        let size = inode.size;
        let data = self.read_inode_data(inner, &mut inode, 0, size as usize)?;
        Ok(Self::parse_dir(&data))
    }

    fn write_dir(
        &self,
        inner: &mut FsInner,
        ino: Ino,
        entries: &[DirEntry],
    ) -> Result<(), FsError> {
        let mut inode = self.load(ino).or_else(|e| {
            // During format the root inode is written just before this call.
            if ino == 1 {
                Ok(self.read_inode(1))
            } else {
                Err(e)
            }
        })?;
        let data = Self::serialize_dir(entries);
        // Shrink then rewrite.
        let new_blocks = (data.len() as u64).div_ceil(BLOCK_SIZE as u64);
        self.free_blocks_from(inner, &mut inode, new_blocks.max(1));
        inode.size = 0;
        self.write_inode_data(inner, &mut inode, 0, &data)?;
        inode.size = data.len() as u64;
        inode.mtime = inner.tick;
        inode.ctime = inner.tick;
        self.write_inode(ino, &inode);
        Ok(())
    }

    // -- public API -----------------------------------------------------------

    /// Looks up `name` in directory `dir`.
    ///
    /// # Errors
    ///
    /// [`FsError::NoEnt`] if absent, [`FsError::NotDir`] if `dir` is not
    /// a directory.
    pub fn lookup(&self, dir: Ino, name: &str) -> Result<Ino, FsError> {
        let mut inner = self.inner.lock();
        let entries = self.read_dir(&mut inner, dir)?;
        entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.ino)
            .ok_or(FsError::NoEnt)
    }

    /// Creates a regular file.
    ///
    /// # Errors
    ///
    /// [`FsError::Exists`], [`FsError::BadName`], [`FsError::NoSpace`],
    /// [`FsError::NotDir`].
    pub fn create(
        &self,
        dir: Ino,
        name: &str,
        mode: u32,
        uid: u32,
        gid: u32,
    ) -> Result<Ino, FsError> {
        validate_name(name)?;
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let mut entries = self.read_dir(&mut inner, dir)?;
        if entries.iter().any(|e| e.name == name) {
            return Err(FsError::Exists);
        }
        self.mark_dirty(&mut inner);
        let ino = self.alloc_inode(&mut inner)?;
        let tick = inner.tick;
        let mut inode = self.read_inode(ino);
        inode.mode = FileKind::Regular.mode_bits() | (mode & 0o7777);
        inode.uid = uid;
        inode.gid = gid;
        inode.nlink = 1;
        inode.atime = tick;
        inode.mtime = tick;
        inode.ctime = tick;
        self.write_inode(ino, &inode);
        entries.push(DirEntry {
            name: name.to_string(),
            ino,
        });
        self.write_dir(&mut inner, dir, &entries)?;
        Ok(ino)
    }

    /// Creates a directory (with `.` and `..` entries).
    ///
    /// # Errors
    ///
    /// Same as [`Ffs::create`].
    pub fn mkdir(
        &self,
        dir: Ino,
        name: &str,
        mode: u32,
        uid: u32,
        gid: u32,
    ) -> Result<Ino, FsError> {
        validate_name(name)?;
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let mut entries = self.read_dir(&mut inner, dir)?;
        if entries.iter().any(|e| e.name == name) {
            return Err(FsError::Exists);
        }
        self.mark_dirty(&mut inner);
        let ino = self.alloc_inode(&mut inner)?;
        let tick = inner.tick;
        let mut inode = self.read_inode(ino);
        inode.mode = FileKind::Directory.mode_bits() | (mode & 0o7777);
        inode.uid = uid;
        inode.gid = gid;
        inode.nlink = 2;
        inode.atime = tick;
        inode.mtime = tick;
        inode.ctime = tick;
        self.write_inode(ino, &inode);
        let child_entries = vec![
            DirEntry {
                name: ".".into(),
                ino,
            },
            DirEntry {
                name: "..".into(),
                ino: dir,
            },
        ];
        self.write_dir(&mut inner, ino, &child_entries)?;
        entries.push(DirEntry {
            name: name.to_string(),
            ino,
        });
        self.write_dir(&mut inner, dir, &entries)?;
        // The child's ".." references the parent.
        let mut parent = self.load(dir)?;
        parent.nlink += 1;
        self.write_inode(dir, &parent);
        Ok(ino)
    }

    /// Creates a symbolic link containing `target`.
    ///
    /// # Errors
    ///
    /// Same as [`Ffs::create`]; also [`FsError::TooBig`] for an
    /// oversized target.
    pub fn symlink(
        &self,
        dir: Ino,
        name: &str,
        target: &str,
        uid: u32,
        gid: u32,
    ) -> Result<Ino, FsError> {
        validate_name(name)?;
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let mut entries = self.read_dir(&mut inner, dir)?;
        if entries.iter().any(|e| e.name == name) {
            return Err(FsError::Exists);
        }
        self.mark_dirty(&mut inner);
        let ino = self.alloc_inode(&mut inner)?;
        let tick = inner.tick;
        let mut inode = self.read_inode(ino);
        inode.mode = FileKind::Symlink.mode_bits() | 0o777;
        inode.uid = uid;
        inode.gid = gid;
        inode.nlink = 1;
        inode.atime = tick;
        inode.mtime = tick;
        inode.ctime = tick;
        self.write_inode_data(&mut inner, &mut inode, 0, target.as_bytes())?;
        self.write_inode(ino, &inode);
        entries.push(DirEntry {
            name: name.to_string(),
            ino,
        });
        self.write_dir(&mut inner, dir, &entries)?;
        Ok(ino)
    }

    /// Reads a symlink's target.
    ///
    /// # Errors
    ///
    /// [`FsError::BadType`] when `ino` is not a symlink.
    pub fn readlink(&self, ino: Ino) -> Result<String, FsError> {
        let mut inner = self.inner.lock();
        let mut inode = self.load(ino)?;
        if inode.kind() != FileKind::Symlink {
            return Err(FsError::BadType);
        }
        let size = inode.size;
        let data = self.read_inode_data(&mut inner, &mut inode, 0, size as usize)?;
        Ok(String::from_utf8_lossy(&data).into_owned())
    }

    /// Creates a hard link to a regular file.
    ///
    /// # Errors
    ///
    /// [`FsError::IsDir`] for directories, plus the usual name errors.
    pub fn link(&self, ino: Ino, dir: Ino, name: &str) -> Result<(), FsError> {
        validate_name(name)?;
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let mut target = self.load(ino)?;
        if target.kind() == FileKind::Directory {
            return Err(FsError::IsDir);
        }
        let mut entries = self.read_dir(&mut inner, dir)?;
        if entries.iter().any(|e| e.name == name) {
            return Err(FsError::Exists);
        }
        self.mark_dirty(&mut inner);
        entries.push(DirEntry {
            name: name.to_string(),
            ino,
        });
        self.write_dir(&mut inner, dir, &entries)?;
        target.nlink += 1;
        target.ctime = inner.tick;
        self.write_inode(ino, &target);
        Ok(())
    }

    /// Removes a non-directory entry, freeing the inode when its link
    /// count reaches zero.
    ///
    /// # Errors
    ///
    /// [`FsError::IsDir`] for directories, [`FsError::NoEnt`] if absent.
    pub fn unlink(&self, dir: Ino, name: &str) -> Result<(), FsError> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let mut entries = self.read_dir(&mut inner, dir)?;
        let idx = entries
            .iter()
            .position(|e| e.name == name)
            .ok_or(FsError::NoEnt)?;
        let ino = entries[idx].ino;
        let mut inode = self.load(ino)?;
        if inode.kind() == FileKind::Directory {
            return Err(FsError::IsDir);
        }
        self.mark_dirty(&mut inner);
        entries.remove(idx);
        self.write_dir(&mut inner, dir, &entries)?;
        inode.nlink -= 1;
        if inode.nlink == 0 {
            self.free_blocks_from(&mut inner, &mut inode, 0);
            self.write_inode(ino, &inode);
            self.free_inode(&mut inner, ino);
        } else {
            inode.ctime = inner.tick;
            self.write_inode(ino, &inode);
        }
        Ok(())
    }

    /// Removes an empty directory.
    ///
    /// # Errors
    ///
    /// [`FsError::NotEmpty`], [`FsError::NotDir`], [`FsError::NoEnt`].
    pub fn rmdir(&self, dir: Ino, name: &str) -> Result<(), FsError> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let mut entries = self.read_dir(&mut inner, dir)?;
        let idx = entries
            .iter()
            .position(|e| e.name == name)
            .ok_or(FsError::NoEnt)?;
        let ino = entries[idx].ino;
        let mut inode = self.load(ino)?;
        if inode.kind() != FileKind::Directory {
            return Err(FsError::NotDir);
        }
        let children = self.read_dir(&mut inner, ino)?;
        if children.iter().any(|e| e.name != "." && e.name != "..") {
            return Err(FsError::NotEmpty);
        }
        self.mark_dirty(&mut inner);
        entries.remove(idx);
        self.write_dir(&mut inner, dir, &entries)?;
        // Free the directory's data and inode.
        self.free_blocks_from(&mut inner, &mut inode, 0);
        self.write_inode(ino, &inode);
        self.free_inode(&mut inner, ino);
        // The child's ".." no longer references the parent.
        let mut parent = self.load(dir)?;
        parent.nlink -= 1;
        parent.ctime = inner.tick;
        self.write_inode(dir, &parent);
        Ok(())
    }

    /// Renames `src_name` in `src_dir` to `dst_name` in `dst_dir`,
    /// replacing a compatible existing target.
    ///
    /// # Errors
    ///
    /// [`FsError::InvalidMove`] when moving a directory under itself;
    /// [`FsError::Exists`]/[`FsError::NotEmpty`] for incompatible
    /// targets; the usual lookup errors.
    pub fn rename(
        &self,
        src_dir: Ino,
        src_name: &str,
        dst_dir: Ino,
        dst_name: &str,
    ) -> Result<(), FsError> {
        validate_name(dst_name)?;
        let mut inner = self.inner.lock();
        inner.tick += 1;

        let src_entries = self.read_dir(&mut inner, src_dir)?;
        let src_entry = src_entries
            .iter()
            .find(|e| e.name == src_name)
            .ok_or(FsError::NoEnt)?
            .clone();
        let moving = self.load(src_entry.ino)?;
        let moving_is_dir = moving.kind() == FileKind::Directory;

        if src_dir == dst_dir && src_name == dst_name {
            return Ok(());
        }

        // A directory must not move into its own subtree.
        if moving_is_dir && src_dir != dst_dir {
            let mut cursor = dst_dir;
            loop {
                if cursor == src_entry.ino {
                    return Err(FsError::InvalidMove);
                }
                if cursor == 1 {
                    break;
                }
                let entries = self.read_dir(&mut inner, cursor)?;
                cursor = entries
                    .iter()
                    .find(|e| e.name == "..")
                    .map(|e| e.ino)
                    .ok_or(FsError::NoEnt)?;
            }
        }

        // Handle an existing destination.
        let dst_entries = self.read_dir(&mut inner, dst_dir)?;
        if let Some(existing) = dst_entries.iter().find(|e| e.name == dst_name) {
            let existing_inode = self.load(existing.ino)?;
            let existing_is_dir = existing_inode.kind() == FileKind::Directory;
            match (moving_is_dir, existing_is_dir) {
                (false, false) => {
                    drop(inner);
                    self.unlink(dst_dir, dst_name)?;
                    inner = self.inner.lock();
                }
                (true, true) => {
                    drop(inner);
                    self.rmdir(dst_dir, dst_name)?;
                    inner = self.inner.lock();
                }
                _ => return Err(FsError::Exists),
            }
        }

        // Remove from source, add to destination.
        self.mark_dirty(&mut inner);
        let mut src_entries = self.read_dir(&mut inner, src_dir)?;
        let idx = src_entries
            .iter()
            .position(|e| e.name == src_name)
            .ok_or(FsError::NoEnt)?;
        src_entries.remove(idx);
        self.write_dir(&mut inner, src_dir, &src_entries)?;

        let mut dst_entries = self.read_dir(&mut inner, dst_dir)?;
        dst_entries.push(DirEntry {
            name: dst_name.to_string(),
            ino: src_entry.ino,
        });
        self.write_dir(&mut inner, dst_dir, &dst_entries)?;

        // Fix ".." and parent link counts for moved directories.
        if moving_is_dir && src_dir != dst_dir {
            let mut child_entries = self.read_dir(&mut inner, src_entry.ino)?;
            for e in child_entries.iter_mut() {
                if e.name == ".." {
                    e.ino = dst_dir;
                }
            }
            self.write_dir(&mut inner, src_entry.ino, &child_entries)?;
            let mut old_parent = self.load(src_dir)?;
            old_parent.nlink -= 1;
            self.write_inode(src_dir, &old_parent);
            let mut new_parent = self.load(dst_dir)?;
            new_parent.nlink += 1;
            self.write_inode(dst_dir, &new_parent);
        }
        Ok(())
    }

    /// Reads up to `len` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// [`FsError::IsDir`] when reading a directory.
    pub fn read(&self, ino: Ino, offset: u64, len: usize) -> Result<Vec<u8>, FsError> {
        let mut inner = self.inner.lock();
        let mut inode = self.load(ino)?;
        if inode.kind() == FileKind::Directory {
            return Err(FsError::IsDir);
        }
        let data = self.read_inode_data(&mut inner, &mut inode, offset, len)?;
        self.mark_dirty(&mut inner);
        inner.tick += 1;
        inode.atime = inner.tick;
        self.write_inode(ino, &inode);
        Ok(data)
    }

    /// Writes `data` at `offset`, extending the file as needed.
    ///
    /// # Errors
    ///
    /// [`FsError::IsDir`], [`FsError::NoSpace`], [`FsError::TooBig`].
    pub fn write(&self, ino: Ino, offset: u64, data: &[u8]) -> Result<usize, FsError> {
        let mut inner = self.inner.lock();
        let mut inode = self.load(ino)?;
        if inode.kind() == FileKind::Directory {
            return Err(FsError::IsDir);
        }
        self.mark_dirty(&mut inner);
        self.write_inode_data(&mut inner, &mut inode, offset, data)?;
        inner.tick += 1;
        inode.mtime = inner.tick;
        inode.ctime = inner.tick;
        self.write_inode(ino, &inode);
        Ok(data.len())
    }

    /// Returns the attributes of `ino`.
    ///
    /// # Errors
    ///
    /// [`FsError::BadInode`] for free or out-of-range inodes.
    pub fn getattr(&self, ino: Ino) -> Result<Attr, FsError> {
        let inode = self.load(ino)?;
        Ok(Attr {
            ino,
            kind: inode.kind(),
            mode: inode.mode & 0o7777,
            uid: inode.uid,
            gid: inode.gid,
            nlink: inode.nlink,
            size: inode.size,
            atime: inode.atime,
            mtime: inode.mtime,
            ctime: inode.ctime,
            generation: inode.generation,
        })
    }

    /// Applies attribute changes (chmod/chown/truncate/utimes).
    ///
    /// # Errors
    ///
    /// Propagates [`Ffs::getattr`] errors; size changes can hit
    /// [`FsError::NoSpace`].
    pub fn setattr(&self, ino: Ino, set: SetAttr) -> Result<Attr, FsError> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let mut inode = self.load(ino)?;
        self.mark_dirty(&mut inner);
        if let Some(mode) = set.mode {
            inode.mode = (inode.mode & 0o170000) | (mode & 0o7777);
        }
        if let Some(uid) = set.uid {
            inode.uid = uid;
        }
        if let Some(gid) = set.gid {
            inode.gid = gid;
        }
        if let Some(size) = set.size {
            if inode.kind() == FileKind::Directory {
                return Err(FsError::IsDir);
            }
            if size < inode.size {
                let keep_blocks = size.div_ceil(BLOCK_SIZE as u64);
                self.free_blocks_from(&mut inner, &mut inode, keep_blocks);
                // Zero the tail of the boundary block.
                let in_block = (size % BLOCK_SIZE as u64) as usize;
                if in_block != 0 {
                    if let Some(block) =
                        self.bmap(&mut inner, &mut inode, size / BLOCK_SIZE as u64, false)?
                    {
                        let mut buf = vec![0u8; BLOCK_SIZE];
                        self.disk.read_block_into(block, &mut buf);
                        for b in buf[in_block..].iter_mut() {
                            *b = 0;
                        }
                        self.disk.write_block(block, &buf);
                    }
                }
            }
            inode.size = size;
            inode.mtime = inner.tick;
        }
        if let Some(atime) = set.atime {
            inode.atime = atime;
        }
        if let Some(mtime) = set.mtime {
            inode.mtime = mtime;
        }
        inode.ctime = inner.tick;
        self.write_inode(ino, &inode);
        drop(inner);
        self.getattr(ino)
    }

    /// Lists a directory (including `.` and `..`).
    ///
    /// # Errors
    ///
    /// [`FsError::NotDir`] for non-directories.
    pub fn readdir(&self, ino: Ino) -> Result<Vec<DirEntry>, FsError> {
        let mut inner = self.inner.lock();
        self.read_dir(&mut inner, ino)
    }

    /// Filesystem usage statistics.
    pub fn statfs(&self) -> FsStats {
        let inner = self.inner.lock();
        FsStats {
            block_size: BLOCK_SIZE as u32,
            total_blocks: self.layout.total_blocks - self.layout.data_start,
            free_blocks: inner.free_blocks,
            total_inodes: self.inode_count,
            free_inodes: inner.free_inodes,
        }
    }

    /// Validates a `(ino, generation)` handle pair.
    ///
    /// # Errors
    ///
    /// [`FsError::Stale`] when the generation does not match (the inode
    /// was recycled), [`FsError::BadInode`] when unallocated.
    pub fn validate_handle(&self, ino: Ino, generation: u32) -> Result<(), FsError> {
        let inode = self.load(ino)?;
        if inode.generation != generation {
            return Err(FsError::Stale);
        }
        Ok(())
    }

    /// Walks a `/`-separated path from the root (convenience for tests
    /// and examples).
    ///
    /// # Errors
    ///
    /// The usual lookup errors.
    pub fn resolve_path(&self, path: &str) -> Result<Ino, FsError> {
        let mut cur = self.root();
        for part in path.split('/').filter(|p| !p.is_empty()) {
            cur = self.lookup(cur, part)?;
        }
        Ok(cur)
    }

    /// Snapshot of internal bitmaps for the consistency checker
    /// (inode bitmap, block bitmap, free blocks, free inodes, dirty).
    pub(crate) fn bitmaps(&self) -> (Vec<bool>, Vec<bool>, u64, u32, bool) {
        let inner = self.inner.lock();
        (
            inner.inode_bitmap.clone(),
            inner.block_bitmap.clone(),
            inner.free_blocks,
            inner.free_inodes,
            inner.dirty,
        )
    }

    /// The first data block number (metadata lives below this).
    pub(crate) fn data_start(&self) -> u64 {
        self.layout.data_start
    }

    /// The static block layout (consistency checker).
    pub(crate) fn layout(&self) -> &Layout {
        &self.layout
    }
}
