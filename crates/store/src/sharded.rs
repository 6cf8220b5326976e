//! One volume striped across N inner block stores, with optional
//! per-shard worker threads.
//!
//! The ROADMAP's sharded block store: block `i` lives on shard
//! `i % N` at inner index `i / N`, so sequential block runs spread
//! round-robin across shards and every shard carries its own lock —
//! concurrent I/O to different shards never contends. Flushes run the
//! shards in parallel, which matters for persistent inners whose flush
//! does real disk work.
//!
//! # Per-shard worker threads (the parallel I/O engine)
//!
//! Per-shard locking removes *contention*, but a single client still
//! drives one shard at a time: its thread executes every block's I/O
//! itself. [`ShardedStore::with_workers`] attaches the ROADMAP's
//! "NUMA-style per-shard worker threads with a submission queue": one
//! thread per shard, each owning a **bounded** submission queue
//! ([`WORKER_QUEUE_DEPTH`] jobs — a slow shard back-pressures its
//! callers instead of buffering unbounded work). A vectored call
//! ([`BlockStore::read_blocks`] / [`BlockStore::write_blocks`])
//! partitions its block list by shard, submits **one job per involved
//! shard**, and joins the replies — so a single client's streaming
//! burst executes on all N shards concurrently. Jobs are counted by
//! [`StoreStats::worker_jobs`].
//!
//! Ordering and shutdown guarantees:
//!
//! * A vectored call returns only after every shard job completed, so
//!   scalar reads/writes (which go straight to the shard, bypassing
//!   the queue) can never observe a half-applied vectored write.
//! * Per-shard job order equals submission order (the queue is FIFO),
//!   and within one job the shard applies blocks in the caller's
//!   order — so each shard's journal holds the same records in the
//!   same order as the workers-off path, byte-identical.
//! * `flush` is submitted as a job per shard and therefore drains
//!   everything queued before it; `Drop` disconnects the queues, lets
//!   each worker drain what remains, and joins the threads before the
//!   shard stores (and their journal-sealing `Drop`s) run.
//! * A vectored call whose blocks all land on one shard skips the
//!   queue and runs inline — dispatch only pays off when there is
//!   parallelism to win.
//!
//! # Crash model
//!
//! Each shard journals (or snapshots) independently; there is no
//! cross-shard commit record. A process crash — every shard's journal
//! intact on disk — replays completely and is covered by the test
//! matrix; a torn *single* shard journal replays to a record prefix of
//! that shard's write order, identical with workers on or off (the
//! property tests pin the journals byte-identical). Ordering *across*
//! shards is a multi-device failure the current design does not cover
//! (it would need a distributed commit record); the ROADMAP tracks
//! that as an open item.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use bytes::Bytes;

use crate::{BlockStore, StoreStats};

/// Bounded submission-queue depth per worker: enough for a handful of
/// concurrent callers, small enough that a stalled shard back-pressures
/// instead of buffering unbounded block copies.
pub const WORKER_QUEUE_DEPTH: usize = 4;

/// A unit of work submitted to one shard's worker.
enum Job {
    /// Read these shard-local indices, reply with the blocks in order.
    Read {
        idxs: Vec<u64>,
        reply: mpsc::Sender<Vec<Bytes>>,
    },
    /// Write these `(shard-local index, block)` pairs in order,
    /// through the metadata path when `meta` is set.
    Write {
        blocks: Vec<(u64, Bytes)>,
        meta: bool,
        reply: mpsc::Sender<()>,
    },
    /// Flush the shard (FIFO: drains everything queued before it).
    Flush {
        reply: mpsc::Sender<std::io::Result<()>>,
    },
}

/// The per-shard worker threads and their submission queues.
struct WorkerPool {
    senders: Vec<mpsc::SyncSender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

fn worker_loop(shard: Arc<dyn BlockStore>, jobs: mpsc::Receiver<Job>) {
    while let Ok(job) = jobs.recv() {
        match job {
            Job::Read { idxs, reply } => {
                // A dropped caller is not an error for the worker.
                let _ = reply.send(shard.read_blocks(&idxs));
            }
            Job::Write {
                blocks,
                meta,
                reply,
            } => {
                let refs: Vec<(u64, &[u8])> =
                    blocks.iter().map(|(idx, data)| (*idx, &data[..])).collect();
                if meta {
                    shard.write_blocks_meta(&refs);
                } else {
                    shard.write_blocks(&refs);
                }
                let _ = reply.send(());
            }
            Job::Flush { reply } => {
                let _ = reply.send(shard.flush());
            }
        }
    }
}

/// A block store striping one volume across N inner stores.
pub struct ShardedStore {
    shards: Vec<Arc<dyn BlockStore>>,
    block_count: u64,
    flushes: AtomicU64,
    vectored_reads: AtomicU64,
    vectored_writes: AtomicU64,
    worker_jobs: AtomicU64,
    workers: Option<WorkerPool>,
}

impl ShardedStore {
    /// Stripes a volume of `block_count` blocks across `shards`,
    /// without worker threads (I/O runs on the caller's thread).
    ///
    /// Every shard must hold at least `ceil(block_count / N)` blocks
    /// (the builder for [`crate::Layer::Sharded`] sizes them
    /// that way).
    ///
    /// # Panics
    ///
    /// Panics on zero shards or an undersized shard.
    pub fn new(shards: Vec<Arc<dyn BlockStore>>, block_count: u64) -> ShardedStore {
        assert!(!shards.is_empty(), "sharded store needs at least one shard");
        let per_shard = block_count.div_ceil(shards.len() as u64);
        for (i, shard) in shards.iter().enumerate() {
            assert!(
                shard.block_count() >= per_shard,
                "shard {i} holds {} blocks, needs {per_shard}",
                shard.block_count()
            );
        }
        ShardedStore {
            shards,
            block_count,
            flushes: AtomicU64::new(0),
            vectored_reads: AtomicU64::new(0),
            vectored_writes: AtomicU64::new(0),
            worker_jobs: AtomicU64::new(0),
            workers: None,
        }
    }

    /// Like [`ShardedStore::new`], plus one worker thread per shard
    /// behind a bounded submission queue: vectored calls fan out one
    /// job per involved shard and join, so a single caller's burst
    /// drives all shards concurrently (see the module docs for the
    /// ordering and shutdown guarantees).
    pub fn with_workers(shards: Vec<Arc<dyn BlockStore>>, block_count: u64) -> ShardedStore {
        let mut store = ShardedStore::new(shards, block_count);
        let mut senders = Vec::with_capacity(store.shards.len());
        let mut handles = Vec::with_capacity(store.shards.len());
        for shard in &store.shards {
            let (tx, rx) = mpsc::sync_channel(WORKER_QUEUE_DEPTH);
            let shard = Arc::clone(shard);
            senders.push(tx);
            handles.push(std::thread::spawn(move || worker_loop(shard, rx)));
        }
        store.workers = Some(WorkerPool { senders, handles });
        store
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether per-shard worker threads are attached.
    pub fn has_workers(&self) -> bool {
        self.workers.is_some()
    }

    /// Which shard serves block `idx` — exposed so tests can pin the
    /// routing function (every block maps to exactly one shard).
    pub fn shard_of(&self, idx: u64) -> usize {
        (idx % self.shards.len() as u64) as usize
    }

    /// Per-shard counter snapshots (figures, routing tests).
    pub fn shard_stats(&self) -> Vec<StoreStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    fn route(&self, idx: u64) -> (&Arc<dyn BlockStore>, u64) {
        assert!(idx < self.block_count, "block {idx} out of range");
        let n = self.shards.len() as u64;
        (&self.shards[(idx % n) as usize], idx / n)
    }

    /// Splits a block list into per-shard `(output positions,
    /// shard-local indices)` sublists, preserving the caller's order
    /// within each shard.
    fn partition(&self, idxs: &[u64]) -> Vec<(Vec<usize>, Vec<u64>)> {
        let n = self.shards.len() as u64;
        let mut per_shard: Vec<(Vec<usize>, Vec<u64>)> = (0..self.shards.len())
            .map(|_| (Vec::new(), Vec::new()))
            .collect();
        for (pos, &idx) in idxs.iter().enumerate() {
            assert!(idx < self.block_count, "block {idx} out of range");
            let (positions, inner) = &mut per_shard[(idx % n) as usize];
            positions.push(pos);
            inner.push(idx / n);
        }
        per_shard
    }

    /// The shared vectored-write body: partition by shard, fan out one
    /// (meta-flagged) write job per involved shard with workers, run
    /// inline otherwise. Per-shard order is the caller's order on both
    /// paths.
    fn write_blocks_impl(&self, writes: &[(u64, &[u8])], meta: bool) {
        let idxs: Vec<u64> = writes.iter().map(|(idx, _)| *idx).collect();
        let per_shard = self.partition(&idxs);
        let involved = per_shard.iter().filter(|(p, _)| !p.is_empty()).count();
        if involved > 1 && self.workers.is_some() {
            let mut pending: Vec<mpsc::Receiver<()>> = Vec::new();
            for (shard, (positions, inner_idxs)) in per_shard.into_iter().enumerate() {
                if positions.is_empty() {
                    continue;
                }
                // Copied into the job: the bounded queue crosses a
                // thread boundary, so the caller's slices cannot ride.
                let blocks: Vec<(u64, Bytes)> = positions
                    .into_iter()
                    .zip(inner_idxs)
                    .map(|(pos, inner)| (inner, Bytes::copy_from_slice(writes[pos].1)))
                    .collect();
                let (reply, rx) = mpsc::channel();
                self.submit(
                    shard,
                    Job::Write {
                        blocks,
                        meta,
                        reply,
                    },
                );
                pending.push(rx);
            }
            for rx in pending {
                rx.recv().expect("shard worker reply");
            }
        } else {
            for (shard, (positions, inner_idxs)) in per_shard.into_iter().enumerate() {
                if positions.is_empty() {
                    continue;
                }
                let blocks: Vec<(u64, &[u8])> = positions
                    .into_iter()
                    .zip(inner_idxs)
                    .map(|(pos, inner)| (inner, writes[pos].1))
                    .collect();
                if meta {
                    self.shards[shard].write_blocks_meta(&blocks);
                } else {
                    self.shards[shard].write_blocks(&blocks);
                }
            }
        }
    }

    fn submit(&self, shard: usize, job: Job) {
        let pool = self.workers.as_ref().expect("submit requires workers");
        self.worker_jobs.fetch_add(1, Ordering::Relaxed);
        pool.senders[shard]
            .send(job)
            .expect("shard worker thread alive");
    }
}

impl Drop for ShardedStore {
    fn drop(&mut self) {
        if let Some(pool) = self.workers.take() {
            // Disconnect the queues first: each worker drains whatever
            // is still queued, then exits; joining before the shard
            // Arcs drop means the workers' clones are gone and the
            // shards' own Drop (journal batch sealing on FileStore)
            // runs exactly once, after all work finished.
            drop(pool.senders);
            for handle in pool.handles {
                handle.join().ok();
            }
        }
    }
}

impl BlockStore for ShardedStore {
    fn block_count(&self) -> u64 {
        self.block_count
    }

    fn read_block(&self, idx: u64) -> Bytes {
        let (shard, inner_idx) = self.route(idx);
        shard.read_block(inner_idx)
    }

    fn read_block_into(&self, idx: u64, buf: &mut [u8]) {
        let (shard, inner_idx) = self.route(idx);
        shard.read_block_into(inner_idx, buf)
    }

    fn write_block(&self, idx: u64, data: &[u8]) {
        let (shard, inner_idx) = self.route(idx);
        shard.write_block(inner_idx, data)
    }

    /// Vectored read: the block list is partitioned by shard; with
    /// workers and ≥ 2 involved shards, one read job per shard runs
    /// concurrently and the replies are scattered back into caller
    /// order. Otherwise each involved shard gets one inline vectored
    /// subcall (still amortizing its lock and charges).
    fn read_blocks(&self, idxs: &[u64]) -> Vec<Bytes> {
        self.vectored_reads.fetch_add(1, Ordering::Relaxed);
        let per_shard = self.partition(idxs);
        let involved = per_shard.iter().filter(|(p, _)| !p.is_empty()).count();
        let mut out: Vec<Option<Bytes>> = vec![None; idxs.len()];
        if involved > 1 && self.workers.is_some() {
            let mut pending: Vec<(Vec<usize>, mpsc::Receiver<Vec<Bytes>>)> = Vec::new();
            for (shard, (positions, inner_idxs)) in per_shard.into_iter().enumerate() {
                if positions.is_empty() {
                    continue;
                }
                let (reply, rx) = mpsc::channel();
                self.submit(
                    shard,
                    Job::Read {
                        idxs: inner_idxs,
                        reply,
                    },
                );
                pending.push((positions, rx));
            }
            for (positions, rx) in pending {
                let blocks = rx.recv().expect("shard worker reply");
                for (pos, block) in positions.into_iter().zip(blocks) {
                    out[pos] = Some(block);
                }
            }
        } else {
            for (shard, (positions, inner_idxs)) in per_shard.into_iter().enumerate() {
                if positions.is_empty() {
                    continue;
                }
                let blocks = self.shards[shard].read_blocks(&inner_idxs);
                for (pos, block) in positions.into_iter().zip(blocks) {
                    out[pos] = Some(block);
                }
            }
        }
        out.into_iter()
            .map(|block| block.expect("every position served by exactly one shard"))
            .collect()
    }

    /// Vectored write: partitioned by shard like
    /// [`ShardedStore::read_blocks`]; the worker path copies each
    /// block into its job (the bounded queue crosses a thread
    /// boundary), the inline path passes the caller's slices through.
    /// Per-shard order is the caller's order either way.
    fn write_blocks(&self, writes: &[(u64, &[u8])]) {
        self.vectored_writes.fetch_add(1, Ordering::Relaxed);
        self.write_blocks_impl(writes, false);
    }

    fn read_block_meta(&self, idx: u64) -> Bytes {
        let (shard, inner_idx) = self.route(idx);
        shard.read_block_meta(inner_idx)
    }

    fn read_block_meta_into(&self, idx: u64, buf: &mut [u8]) {
        let (shard, inner_idx) = self.route(idx);
        shard.read_block_meta_into(inner_idx, buf)
    }

    fn write_block_meta(&self, idx: u64, data: &[u8]) {
        let (shard, inner_idx) = self.route(idx);
        shard.write_block_meta(inner_idx, data)
    }

    /// Vectored metadata write: same partition/fan-out as
    /// [`ShardedStore::write_blocks`], but each shard receives its
    /// sublist through the metadata path (no timing charge, no data
    /// counters — matching the scalar meta ops).
    fn write_blocks_meta(&self, writes: &[(u64, &[u8])]) {
        self.write_blocks_impl(writes, true);
    }

    /// Flushes every shard **in parallel** — through the worker queues
    /// when attached (FIFO behind any submitted work, so the queues
    /// drain first), one scoped thread per shard otherwise — and
    /// returns the first error, if any.
    fn flush(&self) -> std::io::Result<()> {
        let results: Vec<std::io::Result<()>> = if self.workers.is_some() {
            let rxs: Vec<mpsc::Receiver<std::io::Result<()>>> = (0..self.shards.len())
                .map(|shard| {
                    let (reply, rx) = mpsc::channel();
                    self.submit(shard, Job::Flush { reply });
                    rx
                })
                .collect();
            rxs.into_iter()
                .map(|rx| rx.recv().expect("shard worker reply"))
                .collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter()
                    .map(|shard| scope.spawn(move || shard.flush()))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard flush thread"))
                    .collect()
            })
        };
        for result in results {
            result?;
        }
        self.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Field-wise sum of the shard counters, except `flushes`, which
    /// reports sharded flush calls (each fans out to every shard); the
    /// store's own vectored-call and worker-job counters are added on
    /// top of whatever its shards counted for the subcalls they
    /// received.
    fn stats(&self) -> StoreStats {
        let mut stats = self
            .shards
            .iter()
            .fold(StoreStats::default(), |acc, s| acc.merge(&s.stats()));
        stats.flushes = self.flushes.load(Ordering::Relaxed);
        stats.vectored_reads += self.vectored_reads.load(Ordering::Relaxed);
        stats.vectored_writes += self.vectored_writes.load(Ordering::Relaxed);
        stats.worker_jobs += self.worker_jobs.load(Ordering::Relaxed);
        stats
    }

    fn label(&self) -> &'static str {
        "sharded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimStore, BLOCK_SIZE};

    fn sharded(n: usize, total: u64) -> ShardedStore {
        ShardedStore::new(shards_of(n, total), total)
    }

    fn shards_of(n: usize, total: u64) -> Vec<Arc<dyn BlockStore>> {
        let per = total.div_ceil(n as u64);
        (0..n)
            .map(|_| Arc::new(SimStore::untimed(per)) as Arc<dyn BlockStore>)
            .collect()
    }

    #[test]
    fn stripes_round_robin_and_reads_back() {
        let store = sharded(4, 64);
        for i in 0..64u64 {
            let mut block = vec![0u8; BLOCK_SIZE];
            block[0] = i as u8;
            store.write_block(i, &block);
        }
        for i in 0..64u64 {
            assert_eq!(store.read_block(i)[0], i as u8);
        }
        // Exactly one write landed on a shard per block, evenly.
        let per_shard: Vec<u64> = store.shard_stats().iter().map(|s| s.writes).collect();
        assert_eq!(per_shard, vec![16, 16, 16, 16]);
        assert_eq!(store.stats().writes, 64);
    }

    #[test]
    fn every_block_maps_to_exactly_one_shard() {
        let store = sharded(3, 31);
        for i in 0..31u64 {
            assert_eq!(store.shard_of(i), (i % 3) as usize);
        }
    }

    #[test]
    fn parallel_flush_reaches_every_shard() {
        let store = sharded(4, 16);
        store.write_block(1, &vec![1u8; BLOCK_SIZE]);
        store.flush().unwrap();
        assert_eq!(store.stats().flushes, 1);
    }

    #[test]
    fn vectored_ops_scatter_and_gather_in_caller_order() {
        for workers in [false, true] {
            let store = if workers {
                ShardedStore::with_workers(shards_of(4, 64), 64)
            } else {
                sharded(4, 64)
            };
            assert_eq!(store.has_workers(), workers);
            // A deliberately scattered, multi-shard write order.
            let idxs: Vec<u64> = vec![7, 0, 63, 12, 33, 1, 40, 8];
            let blocks: Vec<Vec<u8>> = idxs
                .iter()
                .map(|&i| {
                    let mut b = vec![0u8; BLOCK_SIZE];
                    b[0] = i as u8 + 1;
                    b
                })
                .collect();
            let writes: Vec<(u64, &[u8])> = idxs
                .iter()
                .zip(&blocks)
                .map(|(&i, b)| (i, b.as_slice()))
                .collect();
            store.write_blocks(&writes);
            // Vectored read returns the blocks in the caller's order.
            let read = store.read_blocks(&idxs);
            for (i, block) in read.iter().enumerate() {
                assert_eq!(block[0], idxs[i] as u8 + 1, "workers={workers}");
            }
            let stats = store.stats();
            assert!(stats.vectored_writes >= 1, "workers={workers}");
            if workers {
                // 8 blocks over 4 shards: one job per involved shard,
                // for the write and for the read.
                assert!(stats.worker_jobs >= 2, "workers must have run jobs");
            } else {
                assert_eq!(stats.worker_jobs, 0);
            }
        }
    }

    #[test]
    fn single_shard_vectored_call_runs_inline() {
        let store = ShardedStore::with_workers(shards_of(4, 64), 64);
        // Blocks 0, 4, 8 all live on shard 0: no dispatch.
        let block = vec![9u8; BLOCK_SIZE];
        store.write_blocks(&[(0, &block), (4, &block), (8, &block)]);
        assert_eq!(store.stats().worker_jobs, 0, "single shard stays inline");
        assert_eq!(store.read_block(4), block);
    }

    #[test]
    fn worker_flush_drains_and_reaches_every_shard() {
        let store = ShardedStore::with_workers(shards_of(3, 30), 30);
        let block = vec![3u8; BLOCK_SIZE];
        let writes: Vec<(u64, &[u8])> = (0..30).map(|i| (i, block.as_slice())).collect();
        store.write_blocks(&writes);
        store.flush().unwrap();
        let stats = store.stats();
        assert_eq!(stats.flushes, 1);
        // One write job per shard plus one flush job per shard.
        assert_eq!(stats.worker_jobs, 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        sharded(2, 10).read_block(10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_vectored_panics() {
        sharded(2, 10).read_blocks(&[3, 10]);
    }
}
