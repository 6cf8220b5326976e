//! `store` — the pluggable block-store subsystem.
//!
//! The paper's DisCFS prototype kept files on one local disk. This
//! crate turns the storage layer into an abstraction the rest of the
//! stack programs against: a [`BlockStore`] trait for 8 KB
//! block-addressed devices, three base stores, four wrappers that
//! compose over any store, and a network tier of remote and
//! replicated nodes. A [`StoreBackend`] describes a whole stack as
//! data (see *Describing a stack* below).
//!
//! # Base stores
//!
//! * [`SimStore`] — the original simulated timing-model disk
//!   (seek/rotation/transfer charged to a shared [`netsim::SimClock`]);
//!   the default for paper-figure reproduction.
//! * [`FileStore`] — a persistent file-backed store with a write-ahead
//!   journal: every write is appended (checksummed) to the journal
//!   before the data file is touched, so a crash mid-update replays
//!   cleanly on reopen. Journal appends are **group-committed**:
//!   records accumulate in a memory buffer and reach the journal file
//!   in one syscall per batch (the on-disk byte format is unchanged —
//!   the crash matrix pins it).
//! * [`DedupStore`] — a content-addressed deduplicating store: blocks
//!   are keyed by their SHA-256, identical blocks share one stored
//!   chunk, and the [`StoreStats::dedup_hit_ratio`] stat reports how
//!   much of the write stream was absorbed. [`DedupStore::open`]
//!   attaches a snapshot file so the chunk table (and its stats)
//!   survives a restart.
//!
//! # Wrappers
//!
//! * [`EncryptedStore`] — encryption-at-rest over any other store,
//!   using the same ChaCha20 + HMAC-SHA256 key-derivation
//!   construction as the CFS cipher.
//! * [`CachedStore`] — a sharded write-back LRU buffer cache over any
//!   backend: repeated reads are served from memory as cheap handle
//!   clones, writes are held dirty until `flush`/eviction, and the
//!   superblock (block 0) is written through so the filesystem's
//!   clean-flag discipline survives composition.
//! * [`ShardedStore`] — stripes one volume's blocks across N inner
//!   stores (`idx % N`), giving per-shard locking and a parallel
//!   flush — the ROADMAP's sharded block store.
//! * [`TimedStore`] — charges [`DiskModel`] virtual-time costs on any
//!   backend, so virtual-time figures can compare persistent backends,
//!   not just wall time.
//!
//! # Hot-path performance
//!
//! [`BlockStore::read_block`] returns [`Bytes`] — a cheaply-clonable
//! reference-counted handle, not a fresh allocation. The in-memory
//! backends keep their blocks as shared handles, so a read is a
//! refcount bump: **zero heap allocations on the hot read path**
//! (`micro_store` proves it with a counting allocator). Callers that
//! need a mutable view use [`BlockStore::read_block_into`] or
//! `Bytes::to_vec`. The shared all-zero block ([`zero_block`]) serves
//! holes and freshly-allocated blocks without materializing zeros.
//!
//! # Parallel I/O engine
//!
//! Multi-block operations go through the **vectored** trait methods
//! [`BlockStore::read_blocks`] / [`BlockStore::write_blocks`]: one
//! call carries a whole extent, so a backend can amortize its lock,
//! its journal batching, and its timing charges over the run instead
//! of paying them per block. Every backend implements them natively:
//!
//! * [`FileStore`] takes its state lock once and seals the burst's
//!   journal records through the group-commit buffer — a W-block
//!   vectored write reaches `journal.wal` in exactly
//!   `ceil(W / JOURNAL_BATCH_RECORDS)` append syscalls, and the
//!   trailing partial batch is sealed before the call returns (the
//!   vectored write is a durability unit).
//! * [`CachedStore`] partitions a vectored read into hits (served
//!   under shard read locks) and misses (fetched from the inner store
//!   in **one** vectored call, then inserted clean). It also carries
//!   the engine's *sequential readahead*: a configurable window
//!   ([`CachedStore::with_readahead`] / [`Layer::Cached`]'s
//!   `readahead`) is prefetched — vectored —
//!   from the inner store once an ascending stride is detected,
//!   counted by [`StoreStats::readahead_blocks`].
//! * [`TimedStore`] charges a contiguous ascending run as **one**
//!   seek + rotation plus per-block transfer time
//!   ([`DiskModel::run_cost`]) — the same total a per-block loop over
//!   the same run produces, so virtual-time figures are unchanged for
//!   equal access patterns; only non-contiguous jumps pay more seeks.
//! * [`ShardedStore`] partitions the block list by shard and — with
//!   the optional **per-shard worker threads**
//!   ([`ShardedStore::with_workers`] / `Layer::Sharded { workers:
//!   true, .. }`) — submits one job per involved shard to a
//!   bounded submission queue and joins the replies, so a *single*
//!   client's streaming burst drives every shard concurrently.
//!   Workers drain their queues on `flush` (the flush job is FIFO
//!   behind any submitted work) and on `Drop` (senders disconnect,
//!   threads are joined). Jobs are counted by
//!   [`StoreStats::worker_jobs`]; vectored calls by
//!   [`StoreStats::vectored_reads`] / `vectored_writes` (each layer of
//!   a composition counts the calls it receives, so a wrapped stack
//!   sums them).
//!
//! The filesystem layer (`ffs`) gathers each file operation's block
//! extent into one vectored call, which is what turns these per-layer
//! optimizations into end-to-end streaming throughput.
//!
//! # Distributed volume tier
//!
//! The paper's DisCFS is a *distributed* filesystem; this tier puts
//! the block layer itself behind simulated network boundaries:
//!
//! * [`BlockServer`] serves any backend over a [`netsim::Transport`]
//!   with a checksummed, length-prefixed request/response protocol —
//!   one simulated storage node per server thread.
//! * [`RemoteStore`] is the client: a [`BlockStore`] whose every call
//!   is an RPC (vectored calls are single round-trips), with per-node
//!   timeout/retry and a **dead-node latch** once the link fails.
//!   [`Layer::Remote`] composes it under the cache and sharding
//!   wrappers — layers `[Remote, Sharded, Cached]` are a buffer cache
//!   over a striped set of network nodes.
//! * [`ReplicatedStore`] stripes one volume R-way across N nodes with
//!   **epoch-stamped commits**: each flush lands on every node as one
//!   journaled durability unit whose last record stamps the new
//!   epoch, so a node torn mid-flush replays to the *previous* epoch
//!   and reopening rebuilds it from the fresh replicas — the volume
//!   always recovers to one consistent epoch, never a mix of old and
//!   new shards. A node death is detected on the failing RPC, reads
//!   fail over to the nearest live replica
//!   ([`StoreStats::replica_reads`]), and the dead node's replica set
//!   is rebuilt onto a spare ([`StoreStats::rebuilds`]).
//!   [`Layer::Replicated`] builds the whole fleet.
//!
//! Wire traffic shows up in the stats ([`StoreStats::rpc_calls`],
//! [`StoreStats::bytes_on_wire`], [`StoreStats::retries`]) and is
//! charged to the shared [`netsim::SimClock`], so virtual-time figures
//! capture network latency and serialization alongside disk time.
//!
//! # Failure model
//!
//! The distributed tier is built to survive a *lossy* network, not
//! just a cleanly-severed one. Three layers cooperate:
//!
//! **Faults.** Any netsim link can carry a seeded
//! [`netsim::FaultPlan`]: per-message drop and duplicate
//! probabilities, extra delay jitter, scheduled partition windows
//! (`partition(from, until)` on the virtual clock), and a `flap(n)`
//! test hook that drops exactly the next `n` sends. Injected faults
//! (drops and duplicates — jitter is charged, not counted) surface as
//! [`StoreStats::faults_injected`]. The wire protocol is fault-safe by
//! construction: every request carries a fresh req-id, so a stale or
//! duplicated reply is drained and ignored, and re-sent block writes
//! are idempotent.
//!
//! **Retry and death.** [`RemoteStore`] retries a timed-out attempt
//! under exponential backoff with decorrelated jitter
//! ([`RemoteOptions`]: `base`, `multiplier`, `max_backoff`), counting
//! [`StoreStats::backoff_retries`]; backoff waits are charged to the
//! virtual clock, never slept on the wall. Only when the accumulated
//! waiting budget reaches [`RemoteOptions::deadline`] is the node
//! declared dead, and death is **not terminal**: the latch records a
//! [`DeadCause`]. A `Timeout` looks like loss or a partition, so the
//! replicated tier puts the node in *probation* and periodically
//! probes it with a cheap un-retried length RPC
//! ([`RemoteStore::probe`]); a successful probe revives the node
//! ([`StoreStats::nodes_revived`]). If its epoch record matches the
//! committed epoch it rejoins live with **no data copied**; if it
//! missed commits it is re-synced from its peers first. A
//! `Disconnected`/`Protocol` cause means the process is gone — only a
//! spare-rebuild brings the data back.
//!
//! **Background rebuild.** The operation that detects a death only
//! marks the node and enqueues the lost replica set; a rate-limited
//! rebuilder ([`RebuildConfig`]: `blocks_per_tick` copies per
//! `tick_interval` of virtual time) drains the queue off the hot path
//! while degraded reads keep failing over. The backlog is observable
//! as [`StoreStats::rebuild_backlog`]; a completed rebuild stamps the
//! node's epoch record *last*, so a torn rebuild reads as stale and is
//! simply redone. See the `remote` and `replicated` module docs for
//! the full protocol.
//!
//! **Leases and fencing.** With more than one front-end, idempotence
//! is no longer enough: a coordinator that lost ownership during a
//! partition must not land *any* write on a healed node. Each storage
//! node keeps a `(coordinator_id, fence_token)` lease
//! ([`NodeLease`]) with a virtual-clock expiry. The invariants:
//!
//! - **Who may write:** any client whose stamped token is ≥ the node's
//!   granted token. Token 0 vs token 0 is the unleased legacy mode —
//!   single-coordinator stacks never touch leases and keep working.
//! - **What bumps the token:** only a *fresh* grant through
//!   [`RemoteStore::try_acquire_lease`] — first lease, takeover, or
//!   post-expiry re-acquisition. The node's counter is monotonic for
//!   its lifetime; expiry alone never lowers or reuses a token, so a
//!   frame stamped under a superseded lease is always recognizable.
//!   Renewal — and re-acquisition by the unexpired current holder,
//!   e.g. a retransmitted acquire frame — extends expiry without
//!   bumping.
//! - **Why a fenced write is never partially applied:** the server
//!   checks the token *before touching the store*, and one mutating
//!   frame (scalar, vectored, or flush) is applied by one serve loop
//!   in one step — so a frame is either entirely below the fence
//!   (rejected with [`RemoteError::Fenced`], store untouched) or
//!   entirely at it.
//!
//! A `Fenced` reply is a server verdict, not a network failure: the
//! client counts it in [`StoreStats::fenced`], does **not** retry, and
//! does not declare the node dead. [`ReplicatedStore`] reacts by
//! latching the whole volume read-only until
//! [`ReplicatedStore::reacquire`] wins a fresh lease and re-syncs.
//! Epoch flushes commit on a *majority* of each block's replica set
//! acking under the current token (the minority goes to
//! probation/rebuild instead of blocking the flush), and a read that
//! observes a replica behind the committed epoch schedules a
//! read-repair through the rebuild queue, counted as
//! [`StoreStats::read_repairs`].
//!
//! # Describing a stack
//!
//! A [`StoreBackend`] names a whole stack as data, so
//! `discfs::Testbed::with_backend` and the benchmark harness
//! (`bench_harness::build_world_on`) can compare stacks without
//! touching filesystem code. It is one [`Base`] plus a list of
//! [`Layer`]s, **bottom-up** — each layer wraps everything listed
//! before it:
//!
//! ```text
//! stack := base [layer, ...]
//! base  := Sim { timed } | File { dir } | Dedup { dir: Option }
//! layer := Encrypted { key }
//!        | Cached { capacity, readahead }        (readahead 0 = off)
//!        | Timed
//!        | Sharded { shards, workers }           copies below: shard-i
//!        | Remote { ethernet, opts }             copy below:   node
//!        | Replicated { nodes, replicas, spares, ethernet, opts }
//!                                                copies below: node-i, spare-i
//! ```
//!
//! [`StoreBackend::build`] is the one place a description becomes
//! stores. The fan-out layers (`Sharded`, `Remote`, `Replicated`)
//! build the stack below them once per shard or node, and a
//! persistent base (`File`, or `Dedup` with a `dir`) gets one
//! subdirectory per copy, named as above and nested in layer order.
//! Whether a stack survives a rebuild
//! ([`StoreBackend::is_persistent`]) depends on its base alone. A
//! stack's label is its top layer's (its base's when it has none).
//!
//! Common stacks: an encrypted journaled volume is `File` under
//! `[Encrypted]`; an encrypted dedup store is `Dedup { dir: None }`
//! under `[Encrypted]`; a production-shaped server volume is `File`
//! under `[Sharded, Cached]`; a buffer cache over a replicated fleet
//! is `Sim { timed: true }` under `[Replicated { .. }, Cached { .. }]`.
//! A bare base converts with `From`:
//!
//! ```
//! use netsim::SimClock;
//! use store::{Base, BlockStore, Layer, StoreBackend};
//!
//! let dir = std::env::temp_dir().join(format!("store-doc-{}", std::process::id()));
//! // A read-ahead cache over an encrypted volume striped across two
//! // journaled shards.
//! let spec = StoreBackend {
//!     base: Base::File { dir: dir.clone() },
//!     layers: vec![
//!         Layer::Sharded { shards: 2, workers: false },
//!         Layer::Encrypted { key: [7; 32] },
//!         Layer::Cached { capacity: 64, readahead: 8 },
//!     ],
//! };
//! assert!(spec.is_persistent());
//! let store = spec.build(&SimClock::new(), 128);
//! assert_eq!(store.label(), "cached");
//! assert!(dir.join("shard-1").join("journal.wal").exists());
//! drop(store);
//! std::fs::remove_dir_all(&dir).ok();
//!
//! let in_memory: StoreBackend = Base::Dedup { dir: None }.into();
//! assert!(!in_memory.is_persistent());
//! ```
//!
//! # Example
//!
//! ```
//! use store::{BlockStore, DedupStore, BLOCK_SIZE};
//!
//! let store = DedupStore::new(128);
//! let block = vec![0xAB; BLOCK_SIZE];
//! store.write_block(0, &block);
//! store.write_block(1, &block); // identical content: deduplicated
//! assert_eq!(store.read_block(1), block);
//! let stats = store.stats();
//! assert_eq!(stats.dedup_hits, 1);
//! assert!(stats.dedup_hit_ratio() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cached;
mod dedup;
mod encrypted;
mod file;
mod remote;
mod replicated;
mod sharded;
mod sim;
mod timed;

pub use bytes::Bytes;
pub use cached::CachedStore;
pub use dedup::DedupStore;
pub use encrypted::EncryptedStore;
#[doc(hidden)]
pub use file::temp_dir_for_tests;
pub use file::{FileStore, JOURNAL_BATCH_RECORDS, JOURNAL_RECORD_LEN};
pub use remote::{
    BlockServer, DeadCause, LeaseGrant, NodeLease, RemoteError, RemoteOptions, RemoteStore,
};
pub use replicated::{RebuildConfig, ReplicatedStore};
pub use sharded::{ShardedStore, WORKER_QUEUE_DEPTH};
pub use sim::{DiskModel, SimStore};
pub use timed::TimedStore;

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use netsim::SimClock;

/// Block size shared by every backend: 8 KB, the classic NFSv2
/// transfer size.
pub const BLOCK_SIZE: usize = 8192;

/// The shared all-zero block: one allocation for the whole process,
/// cloned as a cheap handle wherever a hole or freshly-allocated block
/// is read. Backends return it instead of materializing zeros.
pub fn zero_block() -> Bytes {
    static ZERO: OnceLock<Bytes> = OnceLock::new();
    ZERO.get_or_init(|| Bytes::from(vec![0u8; BLOCK_SIZE]))
        .clone()
}

/// Counters every backend reports through [`BlockStore::stats`].
///
/// Fields irrelevant to a backend stay zero (e.g. `dedup_hits` on the
/// sim store). Wrappers merge their own counters into the inner
/// backend's snapshot, so the stats of a composed stack read top-down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Charged block reads.
    pub reads: u64,
    /// Charged block writes.
    pub writes: u64,
    /// Writes absorbed by deduplication (content already stored).
    pub dedup_hits: u64,
    /// All-zero block writes elided entirely (dedup backend). Tracked
    /// apart from `dedup_hits`: the filesystem zeroes every block it
    /// allocates, and counting those as hits would inflate the ratio.
    pub zero_elisions: u64,
    /// Distinct content chunks currently stored (dedup backend).
    pub unique_blocks: u64,
    /// Journal records written since the last flush (file backend).
    pub journal_records: u64,
    /// Journal records committed through the group-commit buffer since
    /// open (file backend) — each reached the journal file as part of
    /// a batched append rather than its own syscall.
    pub batched_records: u64,
    /// Group-commit batches written since open (file backend): the
    /// actual journal write syscalls. An N-write burst costs at most
    /// `ceil(N / JOURNAL_BATCH_RECORDS)` of these.
    pub journal_batches: u64,
    /// Reads served from a [`CachedStore`] without touching the inner
    /// backend.
    pub cache_hits: u64,
    /// Reads a [`CachedStore`] had to forward to the inner backend.
    pub cache_misses: u64,
    /// Eviction write-back batches a [`CachedStore`] issued: when a
    /// cache shard overflows, a *batch* of LRU victims is written back
    /// in ascending block order (sequential journal appends on
    /// journaled inners) instead of one victim per insert.
    pub writeback_batches: u64,
    /// Dirty blocks written back through those eviction batches.
    pub writeback_blocks: u64,
    /// Multi-block [`BlockStore::read_blocks`] calls handled. Each
    /// layer of a composition counts the vectored calls *it* receives
    /// (a cache forwards only its misses, a sharded store fans one
    /// call out to its shards), so the merged stats of a wrapped stack
    /// sum the layers.
    pub vectored_reads: u64,
    /// Multi-block [`BlockStore::write_blocks`] calls handled (same
    /// per-layer accounting as `vectored_reads`).
    pub vectored_writes: u64,
    /// Jobs submitted to a [`ShardedStore`]'s per-shard worker threads
    /// (reads, writes, and flushes; zero without workers).
    pub worker_jobs: u64,
    /// Blocks a [`CachedStore`] prefetched through its sequential
    /// readahead window (zero when readahead is disabled or the access
    /// pattern never forms an ascending stride).
    pub readahead_blocks: u64,
    /// Completed [`BlockStore::flush`] calls.
    pub flushes: u64,
    /// RPC round-trips a `RemoteStore` client issued: one per request
    /// frame that reached the wire, retries included.
    pub rpc_calls: u64,
    /// Request plus response frame bytes a `RemoteStore` moved over
    /// its link.
    pub bytes_on_wire: u64,
    /// Request frames a `RemoteStore` re-sent after a timeout.
    pub retries: u64,
    /// Request frames a `RemoteStore` re-sent under its exponential
    /// backoff schedule (today every retry backs off, so this tracks
    /// `retries`; the two are kept distinct because `retries` counts
    /// wire traffic and this counts policy decisions).
    pub backoff_retries: u64,
    /// Messages dropped or duplicated by a [`netsim::FaultPlan`] on a
    /// `RemoteStore`'s link (both directions; jitter is not counted).
    pub faults_injected: u64,
    /// Reads a `ReplicatedStore` served from a non-primary replica —
    /// failover traffic, zero while every node is healthy.
    pub replica_reads: u64,
    /// Replica sets a `ReplicatedStore` rebuilt onto a spare node
    /// after declaring a node dead.
    pub rebuilds: u64,
    /// Probation nodes a `ReplicatedStore` revived after a successful
    /// probe (a partitioned-then-healed node coming back, with or
    /// without an epoch re-sync).
    pub nodes_revived: u64,
    /// Blocks still queued for the background rebuilder — a gauge, not
    /// a counter, but merged additively like everything else (layers
    /// other than `ReplicatedStore` report zero).
    pub rebuild_backlog: u64,
    /// Mutating frames a `RemoteStore` had rejected by a node's fence
    /// (the write was never applied — a newer coordinator holds the
    /// lease), plus 1 while a `ReplicatedStore` is latched read-only
    /// by such a rejection.
    pub fenced: u64,
    /// Read-repairs a `ReplicatedStore` scheduled: a replica observed
    /// behind the committed epoch, queued for re-sync through the
    /// background rebuilder.
    pub read_repairs: u64,
}

impl StoreStats {
    /// Fraction of writes absorbed by deduplication, in `[0, 1]`.
    ///
    /// Zero when the backend does not deduplicate or nothing was
    /// written yet.
    pub fn dedup_hit_ratio(&self) -> f64 {
        let total = self.writes + self.dedup_hits;
        if total == 0 {
            return 0.0;
        }
        self.dedup_hits as f64 / total as f64
    }

    /// Fraction of cached reads served without touching the backend,
    /// in `[0, 1]`. Zero when nothing was read through a cache.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }

    /// Field-wise sum — how [`ShardedStore`] aggregates its shards.
    pub fn merge(&self, other: &StoreStats) -> StoreStats {
        StoreStats {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            dedup_hits: self.dedup_hits + other.dedup_hits,
            zero_elisions: self.zero_elisions + other.zero_elisions,
            unique_blocks: self.unique_blocks + other.unique_blocks,
            journal_records: self.journal_records + other.journal_records,
            batched_records: self.batched_records + other.batched_records,
            journal_batches: self.journal_batches + other.journal_batches,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            writeback_batches: self.writeback_batches + other.writeback_batches,
            writeback_blocks: self.writeback_blocks + other.writeback_blocks,
            vectored_reads: self.vectored_reads + other.vectored_reads,
            vectored_writes: self.vectored_writes + other.vectored_writes,
            worker_jobs: self.worker_jobs + other.worker_jobs,
            readahead_blocks: self.readahead_blocks + other.readahead_blocks,
            flushes: self.flushes + other.flushes,
            rpc_calls: self.rpc_calls + other.rpc_calls,
            bytes_on_wire: self.bytes_on_wire + other.bytes_on_wire,
            retries: self.retries + other.retries,
            backoff_retries: self.backoff_retries + other.backoff_retries,
            faults_injected: self.faults_injected + other.faults_injected,
            replica_reads: self.replica_reads + other.replica_reads,
            rebuilds: self.rebuilds + other.rebuilds,
            nodes_revived: self.nodes_revived + other.nodes_revived,
            rebuild_backlog: self.rebuild_backlog + other.rebuild_backlog,
            fenced: self.fenced + other.fenced,
            read_repairs: self.read_repairs + other.read_repairs,
        }
    }
}

/// A block-addressed storage device of fixed-size [`BLOCK_SIZE`]
/// blocks.
///
/// The filesystem layer validates block numbers before issuing I/O, so
/// out-of-range access is a bug and implementations panic on it.
///
/// Reads return [`Bytes`]: a cheaply-clonable shared handle. Backends
/// that hold blocks in memory serve reads as refcount bumps with no
/// allocation or copy; callers that need to mutate use
/// [`BlockStore::read_block_into`] (or `Bytes::to_vec`).
///
/// `*_meta` variants exist for hot metadata (bitmaps, inode table,
/// indirect blocks) that real filesystems absorb in the buffer cache:
/// timing-model backends skip the seek charge there. Content semantics
/// are identical to the plain variants.
pub trait BlockStore: Send + Sync {
    /// Number of addressable blocks.
    fn block_count(&self) -> u64;

    /// Reads block `idx` as a shared handle.
    fn read_block(&self, idx: u64) -> Bytes;

    /// Reads block `idx` into `buf` (exactly one block) — the
    /// read-modify-write path, saving the intermediate handle.
    fn read_block_into(&self, idx: u64, buf: &mut [u8]) {
        buf.copy_from_slice(&self.read_block(idx));
    }

    /// Writes block `idx`; `data` must be exactly one block.
    fn write_block(&self, idx: u64, data: &[u8]);

    /// Reads every block in `idxs` (any order, duplicates allowed),
    /// returning the blocks in matching order — the vectored read
    /// path. Backends override this to amortize locks, journal
    /// batching, timing charges, and (sharded) worker dispatch over
    /// the whole extent; the default is the per-block loop, so the two
    /// paths are byte-identical by construction everywhere else.
    fn read_blocks(&self, idxs: &[u64]) -> Vec<Bytes> {
        idxs.iter().map(|&idx| self.read_block(idx)).collect()
    }

    /// Writes every `(idx, block)` pair **in order** (a later pair for
    /// the same index wins, exactly like the per-block loop) — the
    /// vectored write path. Each block must be exactly [`BLOCK_SIZE`]
    /// bytes. Journaled backends treat one vectored write as a
    /// durability unit: its records are sealed to the journal before
    /// the call returns.
    fn write_blocks(&self, writes: &[(u64, &[u8])]) {
        for (idx, data) in writes {
            self.write_block(*idx, data);
        }
    }

    /// Reads a metadata block (no timing charge).
    fn read_block_meta(&self, idx: u64) -> Bytes {
        self.read_block(idx)
    }

    /// Reads a metadata block into `buf` (no timing charge).
    fn read_block_meta_into(&self, idx: u64, buf: &mut [u8]) {
        buf.copy_from_slice(&self.read_block_meta(idx));
    }

    /// Writes a metadata block (no timing charge).
    fn write_block_meta(&self, idx: u64, data: &[u8]) {
        self.write_block(idx, data)
    }

    /// Writes every `(idx, block)` pair through the metadata path —
    /// the vectored counterpart of [`BlockStore::write_block_meta`],
    /// with the same in-order, later-pair-wins semantics as
    /// [`BlockStore::write_blocks`]. Backends override it so a bitmap
    /// or inode-table sweep pays one lock / journal batch / RPC
    /// instead of one per block.
    fn write_blocks_meta(&self, writes: &[(u64, &[u8])]) {
        for (idx, data) in writes {
            self.write_block_meta(*idx, data);
        }
    }

    /// Makes completed writes durable (write-back caches write their
    /// dirty blocks down; journaled backends apply and truncate their
    /// journal).
    ///
    /// # Errors
    ///
    /// I/O failure of the underlying medium; in-memory backends never
    /// fail.
    fn flush(&self) -> std::io::Result<()> {
        Ok(())
    }

    /// Snapshot of this backend's counters.
    fn stats(&self) -> StoreStats;

    /// Short human-readable backend name (figure labels).
    fn label(&self) -> &'static str;
}

macro_rules! forward_block_store {
    ($($ty:ty),*) => {$(
        impl<S: BlockStore + ?Sized> BlockStore for $ty {
            fn block_count(&self) -> u64 {
                (**self).block_count()
            }
            fn read_block(&self, idx: u64) -> Bytes {
                (**self).read_block(idx)
            }
            fn read_block_into(&self, idx: u64, buf: &mut [u8]) {
                (**self).read_block_into(idx, buf)
            }
            fn write_block(&self, idx: u64, data: &[u8]) {
                (**self).write_block(idx, data)
            }
            fn read_blocks(&self, idxs: &[u64]) -> Vec<Bytes> {
                (**self).read_blocks(idxs)
            }
            fn write_blocks(&self, writes: &[(u64, &[u8])]) {
                (**self).write_blocks(writes)
            }
            fn read_block_meta(&self, idx: u64) -> Bytes {
                (**self).read_block_meta(idx)
            }
            fn read_block_meta_into(&self, idx: u64, buf: &mut [u8]) {
                (**self).read_block_meta_into(idx, buf)
            }
            fn write_block_meta(&self, idx: u64, data: &[u8]) {
                (**self).write_block_meta(idx, data)
            }
            fn write_blocks_meta(&self, writes: &[(u64, &[u8])]) {
                (**self).write_blocks_meta(writes)
            }
            fn flush(&self) -> std::io::Result<()> {
                (**self).flush()
            }
            fn stats(&self) -> StoreStats {
                (**self).stats()
            }
            fn label(&self) -> &'static str {
                (**self).label()
            }
        }
    )*};
}

forward_block_store!(Arc<S>, Box<S>, &'_ S);

/// A declarative block-store stack: the [`Base`] the blocks live on
/// plus the [`Layer`]s wrapped over it, listed **bottom-up** (the last
/// layer is the one the filesystem talks to). Threaded through `ffs`,
/// `discfs` and the benchmark harness; see the crate docs,
/// *Describing a stack*, for the grammar.
#[derive(Debug, Clone)]
pub struct StoreBackend {
    /// Where the blocks finally live.
    pub base: Base,
    /// Wrappers over the base, innermost first.
    pub layers: Vec<Layer>,
}

/// The bottom of a [`StoreBackend`] stack.
#[derive(Debug, Clone)]
pub enum Base {
    /// In-memory [`SimStore`]; `timed` charges the paper's Quantum
    /// Fireball disk model to the shared clock, otherwise it is
    /// instant (fast unit tests).
    Sim {
        /// Charge the paper's disk timing model.
        timed: bool,
    },
    /// Persistent [`FileStore`] with a write-ahead journal: journaled
    /// writes survive a crash and replay on the next open, and a
    /// volume formatted here reopens with its files intact through
    /// `ffs::Ffs::mount_on` / `Ffs::open_or_format` (the `format_*`
    /// paths refuse to clobber an existing volume).
    File {
        /// Directory holding `blocks.dat` and `journal.wal`.
        dir: PathBuf,
    },
    /// Content-addressed deduplicating [`DedupStore`]. With a `dir`,
    /// the chunk table is snapshotted to `dedup.snap` there on every
    /// flush and restored on reopen (see [`DedupStore::open`]).
    Dedup {
        /// Directory holding `dedup.snap`; `None` keeps it in memory.
        dir: Option<PathBuf>,
    },
}

/// One wrapper in a [`StoreBackend`] stack, applied over everything
/// listed before it. The fan-out layers (`Sharded`, `Remote`,
/// `Replicated`) build the stack below them once per shard or node,
/// each persistent base under its own subdirectory.
#[derive(Debug, Clone)]
pub enum Layer {
    /// Encryption-at-rest ([`EncryptedStore`]): blocks are
    /// ChaCha20-encrypted before they reach the layer below. A volume
    /// reopens with the same key; a different key reads keystream
    /// noise.
    Encrypted {
        /// Master key; per-purpose subkeys are derived from it.
        key: [u8; 32],
    },
    /// A write-back buffer cache ([`CachedStore`]): hot reads become
    /// handle clones, repeated writes are absorbed until the next
    /// flush.
    Cached {
        /// Cache capacity in blocks.
        capacity: usize,
        /// Sequential readahead window in blocks (0 disables it): once
        /// an ascending stride is detected on the scalar read path,
        /// the next `readahead` blocks are prefetched in one vectored
        /// call ([`StoreStats::readahead_blocks`] counts them).
        readahead: usize,
    },
    /// One volume striped across N copies of the stack below
    /// ([`ShardedStore`]): block `i` lives on shard `i % shards`, each
    /// shard has its own lock, and flushes run in parallel. Shard `i`
    /// lives in `shard-i`.
    Sharded {
        /// Number of shards.
        shards: u32,
        /// Spawn one worker thread per shard with a bounded submission
        /// queue: vectored calls then fan out one job per involved
        /// shard and join, so a single client's burst drives all
        /// shards concurrently (see [`ShardedStore::with_workers`]).
        workers: bool,
    },
    /// The paper's disk timing model charged over the stack below
    /// ([`TimedStore`]), so virtual-time figures can compare
    /// persistent backends.
    Timed,
    /// The stack below served from a [`BlockServer`] thread behind a
    /// simulated link, reached through a [`RemoteStore`] client — one
    /// storage node, living in `node`.
    Remote {
        /// Charge the paper's 100 Mbps Ethernet timing on the link
        /// (`false` = an instant link for correctness tests).
        ethernet: bool,
        /// Timeout/backoff/deadline policy for the client
        /// ([`RemoteOptions::default`] for the stock schedule).
        opts: RemoteOptions,
    },
    /// One volume replicated R-way across N [`RemoteStore`] nodes
    /// (plus idle spares), each serving its own copy of the stack
    /// below, with epoch-stamped commits and rebuild-onto-spare after
    /// a node death ([`ReplicatedStore`]). Nodes live in `node-i`,
    /// spares in `spare-i`.
    Replicated {
        /// Number of storage nodes.
        nodes: u32,
        /// Copies kept of every block (1 ≤ replicas ≤ nodes).
        replicas: u32,
        /// Idle spare nodes available for rebuilds.
        spares: u32,
        /// Charge the paper's 100 Mbps Ethernet timing on every link.
        ethernet: bool,
        /// Timeout/backoff/deadline policy shared by every node's
        /// client ([`RemoteOptions::default`] for the stock schedule).
        opts: RemoteOptions,
    },
}

impl From<Base> for StoreBackend {
    /// The bare base, with no layers.
    fn from(base: Base) -> StoreBackend {
        StoreBackend {
            base,
            layers: Vec::new(),
        }
    }
}

impl StoreBackend {
    /// Builds the stack, attaching timing-model stores to `clock`.
    ///
    /// # Panics
    ///
    /// Panics when a persistent base's directory cannot be created or
    /// opened — backend construction happens at format time where the
    /// caller cannot continue anyway — or when a fan-out layer asks
    /// for zero shards or nodes.
    pub fn build(&self, clock: &SimClock, block_count: u64) -> Arc<dyn BlockStore> {
        build_stack(&self.base, &self.layers, clock, block_count)
    }

    /// Whether stores built from this stack keep their contents
    /// across a rebuild (i.e. state lives on the filesystem, not in
    /// the store object).
    pub fn is_persistent(&self) -> bool {
        matches!(self.base, Base::File { .. } | Base::Dedup { dir: Some(_) })
    }

    /// The label of the stack's top store, without building it.
    pub fn label(&self) -> &'static str {
        match (self.layers.last(), &self.base) {
            (Some(Layer::Encrypted { .. }), _) => "encrypted",
            (Some(Layer::Cached { .. }), _) => "cached",
            (Some(Layer::Sharded { .. }), _) => "sharded",
            (Some(Layer::Timed), _) => "timed",
            (Some(Layer::Remote { .. }), _) => "remote",
            (Some(Layer::Replicated { .. }), _) => "replicated",
            (None, Base::Sim { timed: true }) => "sim-timed",
            (None, Base::Sim { timed: false }) => "sim-instant",
            (None, Base::File { .. }) => "file-journal",
            (None, Base::Dedup { dir: None }) => "dedup",
            (None, Base::Dedup { dir: Some(_) }) => "dedup-persistent",
        }
    }
}

impl Base {
    /// This base with its persistence directory pushed down into
    /// `name` — how a fan-out layer gives each shard or node its own
    /// subdirectory. In-memory bases are unchanged.
    fn with_subdir(&self, name: &str) -> Base {
        match self {
            Base::File { dir } => Base::File {
                dir: dir.join(name),
            },
            Base::Dedup { dir: Some(dir) } => Base::Dedup {
                dir: Some(dir.join(name)),
            },
            in_memory => in_memory.clone(),
        }
    }
}

/// Builds `layers` (bottom-up) over `base`: the top layer wraps what
/// the layers below it build, and a fan-out layer builds them once per
/// shard or node under that shard's or node's subdirectory.
fn build_stack(
    base: &Base,
    layers: &[Layer],
    clock: &SimClock,
    block_count: u64,
) -> Arc<dyn BlockStore> {
    let Some((top, below)) = layers.split_last() else {
        return match base {
            Base::Sim { timed } => {
                let model = if *timed {
                    DiskModel::quantum_fireball_ct10()
                } else {
                    DiskModel::instant()
                };
                Arc::new(SimStore::new(clock, model, block_count))
            }
            Base::File { dir } => {
                Arc::new(FileStore::open(dir, block_count).expect("open file-backed block store"))
            }
            Base::Dedup { dir: None } => Arc::new(DedupStore::new(block_count)),
            Base::Dedup { dir: Some(dir) } => {
                Arc::new(DedupStore::open(dir, block_count).expect("open persistent dedup store"))
            }
        };
    };
    let below_here = || build_stack(base, below, clock, block_count);
    let below_in =
        |subdir: &str, count: u64| build_stack(&base.with_subdir(subdir), below, clock, count);
    match top {
        Layer::Encrypted { key } => Arc::new(EncryptedStore::new(below_here(), key)),
        Layer::Cached {
            capacity,
            readahead,
        } => Arc::new(CachedStore::with_readahead(
            below_here(),
            *capacity,
            *readahead,
        )),
        Layer::Sharded { shards, workers } => {
            assert!(*shards > 0, "sharded store needs at least one shard");
            let per_shard = block_count.div_ceil(*shards as u64);
            let stores = (0..*shards)
                .map(|i| below_in(&format!("shard-{i}"), per_shard))
                .collect();
            if *workers {
                Arc::new(ShardedStore::with_workers(stores, block_count))
            } else {
                Arc::new(ShardedStore::new(stores, block_count))
            }
        }
        Layer::Timed => Arc::new(TimedStore::new(
            below_here(),
            clock,
            DiskModel::quantum_fireball_ct10(),
        )),
        Layer::Remote { ethernet, opts } => Arc::new(RemoteStore::serve_local(
            below_in("node", block_count),
            clock,
            link_config(*ethernet),
            *opts,
        )),
        Layer::Replicated {
            nodes,
            replicas,
            spares,
            ethernet,
            opts,
        } => {
            assert!(*nodes > 0, "replicated store needs at least one node");
            let node_bc =
                ReplicatedStore::node_block_count(block_count, *nodes as usize, *replicas as usize);
            let serve = |subdir: String| {
                RemoteStore::serve_local(
                    below_in(&subdir, node_bc),
                    clock,
                    link_config(*ethernet),
                    *opts,
                )
            };
            Arc::new(ReplicatedStore::new(
                (0..*nodes).map(|i| serve(format!("node-{i}"))).collect(),
                (0..*spares).map(|i| serve(format!("spare-{i}"))).collect(),
                block_count,
                *replicas as usize,
            ))
        }
    }
}

/// Link parameters for the network layers.
fn link_config(ethernet: bool) -> netsim::LinkConfig {
    if ethernet {
        netsim::LinkConfig::ethernet_100mbps()
    } else {
        netsim::LinkConfig::instant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every file under `dir` as (relative path, contents), sorted.
    fn files_under(dir: &std::path::Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files = Vec::new();
        let mut pending = vec![dir.to_path_buf()];
        while let Some(at) = pending.pop() {
            let Ok(entries) = std::fs::read_dir(&at) else {
                continue;
            };
            for entry in entries {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    pending.push(path);
                } else {
                    let contents = std::fs::read(&path).unwrap();
                    files.push((path.strip_prefix(dir).unwrap().to_path_buf(), contents));
                }
            }
        }
        files.sort();
        files
    }

    #[test]
    fn backend_builder_produces_working_stores() {
        let clock = SimClock::new();
        let dir = crate::file::temp_dir_for_tests("builder");
        let file = |name: &str| Base::File {
            dir: dir.join(name),
        };
        let remote = Layer::Remote {
            ethernet: false,
            opts: RemoteOptions::default(),
        };
        let backends = [
            Base::Sim { timed: true }.into(),
            Base::Sim { timed: false }.into(),
            file("file").into(),
            Base::Dedup { dir: None }.into(),
            Base::Dedup {
                dir: Some(dir.join("dedup")),
            }
            .into(),
            StoreBackend {
                base: Base::Dedup { dir: None },
                layers: vec![Layer::Encrypted { key: [7; 32] }],
            },
            StoreBackend {
                base: file("enc"),
                layers: vec![Layer::Encrypted { key: [8; 32] }],
            },
            StoreBackend {
                base: file("cached"),
                layers: vec![Layer::Cached {
                    capacity: 8,
                    readahead: 0,
                }],
            },
            StoreBackend {
                base: file("sharded"),
                layers: vec![Layer::Sharded {
                    shards: 4,
                    workers: false,
                }],
            },
            StoreBackend {
                base: file("sharded-workers"),
                layers: vec![Layer::Sharded {
                    shards: 4,
                    workers: true,
                }],
            },
            StoreBackend {
                base: Base::Dedup { dir: None },
                layers: vec![Layer::Timed],
            },
            StoreBackend {
                base: Base::Sim { timed: false },
                layers: vec![
                    Layer::Sharded {
                        shards: 2,
                        workers: false,
                    },
                    Layer::Cached {
                        capacity: 8,
                        readahead: 0,
                    },
                ],
            },
            StoreBackend {
                base: Base::Sim { timed: false },
                layers: vec![Layer::Cached {
                    capacity: 8,
                    readahead: 4,
                }],
            },
            StoreBackend {
                base: file("remote"),
                layers: vec![remote.clone()],
            },
            StoreBackend {
                base: Base::Sim { timed: false },
                layers: vec![
                    remote,
                    Layer::Sharded {
                        shards: 2,
                        workers: false,
                    },
                    Layer::Cached {
                        capacity: 8,
                        readahead: 0,
                    },
                ],
            },
            StoreBackend {
                base: file("replicated"),
                layers: vec![Layer::Replicated {
                    nodes: 4,
                    replicas: 2,
                    spares: 1,
                    ethernet: false,
                    opts: RemoteOptions::default(),
                }],
            },
        ];
        for spec in backends {
            let store = spec.build(&clock, 16);
            let mut block = vec![0u8; BLOCK_SIZE];
            block[0] = 0x42;
            store.write_block(3, &block);
            assert_eq!(store.read_block(3), block, "{}", spec.label());
            assert_eq!(store.block_count(), 16, "{}", spec.label());
            store.flush().unwrap();
        }
        // A stack built from its description equals the same stores
        // composed by hand: same size, same counters after the same
        // I/O, same files on disk.
        const N: u64 = 16;
        let (built_dir, hand_dir) = (dir.join("built"), dir.join("hand"));
        type HandBuilt = Box<dyn Fn(&std::path::Path) -> Arc<dyn BlockStore>>;
        let cases: Vec<(StoreBackend, HandBuilt)> = vec![
            (
                Base::Dedup {
                    dir: Some(built_dir.clone()),
                }
                .into(),
                Box::new(|dir| Arc::new(DedupStore::open(dir, N).unwrap())),
            ),
            (
                StoreBackend {
                    base: Base::Dedup { dir: None },
                    layers: vec![Layer::Encrypted { key: [7; 32] }],
                },
                Box::new(|_| Arc::new(EncryptedStore::new(DedupStore::new(N), &[7; 32]))),
            ),
            (
                StoreBackend {
                    base: Base::File {
                        dir: built_dir.clone(),
                    },
                    layers: vec![Layer::Encrypted { key: [8; 32] }],
                },
                Box::new(|dir| {
                    Arc::new(EncryptedStore::new(
                        FileStore::open(dir, N).unwrap(),
                        &[8; 32],
                    ))
                }),
            ),
            (
                StoreBackend {
                    base: Base::Sim { timed: false },
                    layers: vec![Layer::Cached {
                        capacity: 8,
                        readahead: 4,
                    }],
                },
                Box::new(|_| {
                    let clock = SimClock::new();
                    let sim = SimStore::new(&clock, DiskModel::instant(), N);
                    Arc::new(CachedStore::with_readahead(sim, 8, 4))
                }),
            ),
        ];
        for (spec, hand_built) in cases {
            let label = spec.label();
            let exercise = |store: Arc<dyn BlockStore>| {
                let a = vec![0xA1u8; BLOCK_SIZE];
                let b = vec![0xB2u8; BLOCK_SIZE];
                store.write_block(1, &a);
                store.write_block(2, &a);
                store.write_blocks(&[(3, &b[..]), (4, &a[..])]);
                for idx in 0..8 {
                    store.read_block(idx);
                }
                store.read_blocks(&[4, 2, 9]);
                store.flush().unwrap();
                (store.block_count(), store.stats())
            };
            let built = exercise(spec.build(&clock, N));
            let hand = exercise(hand_built(&hand_dir));
            assert_eq!(built, hand, "{label}");
            let (built_files, hand_files) = (files_under(&built_dir), files_under(&hand_dir));
            let names = |files: &[(PathBuf, Vec<u8>)]| -> Vec<PathBuf> {
                files.iter().map(|(name, _)| name.clone()).collect()
            };
            assert_eq!(names(&built_files), names(&hand_files), "{label}");
            assert!(built_files == hand_files, "{label}: file contents differ");
            std::fs::remove_dir_all(&built_dir).ok();
            std::fs::remove_dir_all(&hand_dir).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hit_ratio_zero_cases() {
        let stats = StoreStats::default();
        assert_eq!(stats.dedup_hit_ratio(), 0.0);
        assert_eq!(stats.cache_hit_ratio(), 0.0);
    }

    #[test]
    fn subdir_rewrites_nested_persistence_dirs() {
        let dir = crate::file::temp_dir_for_tests("subdir");
        let spec = StoreBackend {
            base: Base::File { dir: dir.clone() },
            layers: vec![
                Layer::Sharded {
                    shards: 2,
                    workers: false,
                },
                Layer::Cached {
                    capacity: 4,
                    readahead: 0,
                },
            ],
        };
        assert!(spec.is_persistent());
        let store = spec.build(&SimClock::new(), 8);
        store.flush().unwrap();
        drop(store);
        let mut top: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        top.sort();
        assert_eq!(top, ["shard-0", "shard-1"]);
        for shard in ["shard-0", "shard-1"] {
            assert!(dir.join(shard).join("blocks.dat").is_file(), "{shard}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_block_is_shared_and_zero() {
        let a = zero_block();
        let b = zero_block();
        assert_eq!(a.len(), BLOCK_SIZE);
        assert!(a.iter().all(|&x| x == 0));
        assert_eq!(a, b);
    }

    #[test]
    fn merge_sums_fieldwise() {
        let a = StoreStats {
            reads: 1,
            writes: 2,
            cache_hits: 3,
            ..StoreStats::default()
        };
        let b = StoreStats {
            reads: 10,
            journal_batches: 4,
            ..StoreStats::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.reads, 11);
        assert_eq!(m.writes, 2);
        assert_eq!(m.cache_hits, 3);
        assert_eq!(m.journal_batches, 4);
    }

    #[test]
    fn merge_sums_chaos_counters() {
        let a = StoreStats {
            faults_injected: 5,
            backoff_retries: 2,
            nodes_revived: 1,
            rebuild_backlog: 7,
            ..StoreStats::default()
        };
        let b = StoreStats {
            faults_injected: 3,
            backoff_retries: 4,
            rebuild_backlog: 1,
            ..StoreStats::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.faults_injected, 8);
        assert_eq!(m.backoff_retries, 6);
        assert_eq!(m.nodes_revived, 1);
        assert_eq!(m.rebuild_backlog, 8);
    }

    #[test]
    fn merge_sums_fencing_counters() {
        let a = StoreStats {
            fenced: 2,
            read_repairs: 5,
            ..StoreStats::default()
        };
        let b = StoreStats {
            fenced: 1,
            read_repairs: 3,
            ..StoreStats::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.fenced, 3);
        assert_eq!(m.read_repairs, 8);
    }
}
