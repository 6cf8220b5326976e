//! Spans for the traced run, recorded by wrappers that implement each
//! layer's public trait around the real implementation:
//!
//! * [`TracedLink`] — `netsim::Transport` under the client's ESP
//!   channel (link time, messages and wire bytes);
//! * [`TracedChannel`] — `ipsec::SecureTransport` under the NFS client
//!   (ESP seal and open);
//! * [`TracedService`] — `nfsv2::NfsService` around `DiscfsService`
//!   (authorization plus the NFS/ffs work below it);
//! * [`TracedStore`] — `store::BlockStore` at the cached, replicated
//!   and node levels.
//!
//! A span records a name, start, end, parent and request id. The
//! request id is `peer index << 32 | sequence`: the client side numbers
//! its sends per peer, the server side numbers its calls per peer, and
//! with one outstanding request per connection and one connection per
//! peer at a time the two sequences name the same request.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use discfs::DiscfsService;
use discfs_crypto::ed25519::VerifyingKey;
use ipsec::{IpsecError, SecureTransport};
use netsim::{FaultPlan, NetError, ReadySet, SimClock, Transport};
use nfsv2::{
    DirOpArgs, FHandle, Fattr, NfsService, NfsStat, ReaddirEntry, RequestCtx, Sattr, StatfsRes,
};
use onc_rpc::AcceptStat;
use store::{BlockStore, Bytes, StoreStats};

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Enclosing span (0 for a root).
    pub parent: u64,
    /// Client request this span belongs to (0 for none).
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct PeerSeq {
    index: u64,
    client: u64,
    server: u64,
}

/// Span sink plus the per-peer request numbering.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    peers: Mutex<HashMap<[u8; 32], PeerSeq>>,
    /// `(span, request)` of the replicated-store call in flight. Node
    /// stores run on their server threads, so their spans take the
    /// parent from here rather than from a thread-local stack.
    store_owner: Mutex<(u64, u64)>,
}

thread_local! {
    /// Open spans on this thread: `(span id, request id)`.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        // The request id may have been assigned while the span was open
        // (a client op learns its id at send time), so read it back.
        let req = STACK.with(|s| {
            let mut s = s.borrow_mut();
            match s.iter().rposition(|&(id, _)| id == self.id) {
                Some(pos) => s.remove(pos).1,
                None => 0,
            }
        });
        self.tracer.spans.lock().expect("span sink").push(Span {
            id: self.id,
            parent: self.parent,
            req,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            peers: Mutex::new(HashMap::new()),
            store_owner: Mutex::new((0, 0)),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in this thread's innermost open span.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let (parent, req) = STACK.with(|s| s.borrow().last().copied().unwrap_or((0, 0)));
        self.enter_with(name, parent, req)
    }

    /// Opens a span with an explicit parent and request.
    pub fn enter_with(&self, name: &'static str, parent: u64, req: u64) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push((id, req)));
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Tags every open span on this thread with `req`.
    fn set_request(&self, req: u64) {
        STACK.with(|s| {
            for frame in s.borrow_mut().iter_mut() {
                frame.1 = req;
            }
        });
    }

    fn next_request(&self, peer: &VerifyingKey, server: bool) -> u64 {
        let mut peers = self.peers.lock().expect("peer table");
        let next_index = peers.len() as u64 + 1;
        let seq = peers.entry(peer.0).or_insert_with(|| PeerSeq {
            index: next_index,
            ..PeerSeq::default()
        });
        let n = if server {
            &mut seq.server
        } else {
            &mut seq.client
        };
        *n += 1;
        seq.index << 32 | *n
    }

    /// Forgets every span and request number (a fresh world starts).
    pub fn reset(&self) {
        self.spans.lock().expect("span sink").clear();
        self.peers.lock().expect("peer table").clear();
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink").clone()
    }
}

/// Message and byte counts of the client links.
#[derive(Default)]
pub struct LinkCounters {
    pub msgs: AtomicU64,
    pub bytes: AtomicU64,
}

impl LinkCounters {
    fn count(&self, len: usize) {
        self.msgs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(len as u64, Ordering::Relaxed);
    }
}

/// The client's link, under its ESP channel.
pub struct TracedLink<T> {
    inner: T,
    tracer: Arc<Tracer>,
    counters: Arc<LinkCounters>,
}

impl<T: Transport> TracedLink<T> {
    pub fn new(inner: T, tracer: Arc<Tracer>, counters: Arc<LinkCounters>) -> Self {
        TracedLink {
            inner,
            tracer,
            counters,
        }
    }
}

impl<T: Transport> Transport for TracedLink<T> {
    fn send(&self, msg: Vec<u8>) -> Result<(), NetError> {
        self.counters.count(msg.len());
        let _span = self.tracer.enter("link.send");
        self.inner.send(msg)
    }

    fn recv(&self) -> Result<Vec<u8>, NetError> {
        let _span = self.tracer.enter("link.recv");
        let msg = self.inner.recv()?;
        self.counters.count(msg.len());
        Ok(msg)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        let _span = self.tracer.enter("link.recv");
        let msg = self.inner.recv_timeout(timeout)?;
        self.counters.count(msg.len());
        Ok(msg)
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, NetError> {
        let msg = self.inner.try_recv()?;
        if let Some(m) = &msg {
            self.counters.count(m.len());
        }
        Ok(msg)
    }

    fn register_ready(&self, set: &Arc<ReadySet>, token: u64) {
        self.inner.register_ready(set, token)
    }

    fn fault_plan(&self) -> Option<FaultPlan> {
        self.inner.fault_plan()
    }

    fn sim_clock(&self) -> Option<SimClock> {
        self.inner.sim_clock()
    }
}

/// The client's ESP channel, under the NFS client. Each send starts a
/// new client request.
pub struct TracedChannel {
    inner: Box<dyn SecureTransport>,
    tracer: Arc<Tracer>,
    peer: VerifyingKey,
}

impl TracedChannel {
    pub fn new(inner: Box<dyn SecureTransport>, tracer: Arc<Tracer>, peer: VerifyingKey) -> Self {
        TracedChannel {
            inner,
            tracer,
            peer,
        }
    }
}

impl SecureTransport for TracedChannel {
    fn send(&self, msg: Vec<u8>) -> Result<(), IpsecError> {
        let req = self.tracer.next_request(&self.peer, false);
        self.tracer.set_request(req);
        let _span = self.tracer.enter("esp.send");
        self.inner.send(msg)
    }

    fn recv(&self) -> Result<Vec<u8>, IpsecError> {
        let _span = self.tracer.enter("esp.recv");
        self.inner.recv()
    }

    fn peer_identity(&self) -> Option<VerifyingKey> {
        self.inner.peer_identity()
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, IpsecError> {
        self.inner.try_recv()
    }

    fn register_ready(&self, set: &Arc<ReadySet>, token: u64) {
        self.inner.register_ready(set, token)
    }
}

/// The DisCFS service as the engine sees it. Counts every call.
pub struct TracedService {
    inner: Arc<DiscfsService>,
    tracer: Arc<Tracer>,
    pub calls: AtomicU64,
}

impl TracedService {
    pub fn new(inner: Arc<DiscfsService>, tracer: Arc<Tracer>) -> Self {
        TracedService {
            inner,
            tracer,
            calls: AtomicU64::new(0),
        }
    }

    fn begin(&self, ctx: &RequestCtx, name: &'static str) -> SpanGuard<'_> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let req = ctx
            .peer
            .map(|p| self.tracer.next_request(&p, true))
            .unwrap_or(0);
        self.tracer.enter_with(name, 0, req)
    }
}

impl NfsService for TracedService {
    fn mount(&self, ctx: &RequestCtx, path: &str) -> Result<FHandle, NfsStat> {
        let _span = self.begin(ctx, "discfs.mount");
        self.inner.mount(ctx, path)
    }

    fn getattr(&self, ctx: &RequestCtx, fh: &FHandle) -> Result<Fattr, NfsStat> {
        let _span = self.begin(ctx, "discfs.getattr");
        self.inner.getattr(ctx, fh)
    }

    fn setattr(&self, ctx: &RequestCtx, fh: &FHandle, sattr: &Sattr) -> Result<Fattr, NfsStat> {
        let _span = self.begin(ctx, "discfs.setattr");
        self.inner.setattr(ctx, fh, sattr)
    }

    fn lookup(&self, ctx: &RequestCtx, args: &DirOpArgs) -> Result<(FHandle, Fattr), NfsStat> {
        let _span = self.begin(ctx, "discfs.lookup");
        self.inner.lookup(ctx, args)
    }

    fn readlink(&self, ctx: &RequestCtx, fh: &FHandle) -> Result<String, NfsStat> {
        let _span = self.begin(ctx, "discfs.readlink");
        self.inner.readlink(ctx, fh)
    }

    fn read(
        &self,
        ctx: &RequestCtx,
        fh: &FHandle,
        offset: u32,
        count: u32,
    ) -> Result<(Fattr, Vec<u8>), NfsStat> {
        let _span = self.begin(ctx, "discfs.read");
        self.inner.read(ctx, fh, offset, count)
    }

    fn write(
        &self,
        ctx: &RequestCtx,
        fh: &FHandle,
        offset: u32,
        data: &[u8],
    ) -> Result<Fattr, NfsStat> {
        let _span = self.begin(ctx, "discfs.write");
        self.inner.write(ctx, fh, offset, data)
    }

    fn create(
        &self,
        ctx: &RequestCtx,
        args: &DirOpArgs,
        sattr: &Sattr,
    ) -> Result<(FHandle, Fattr), NfsStat> {
        let _span = self.begin(ctx, "discfs.create");
        self.inner.create(ctx, args, sattr)
    }

    fn remove(&self, ctx: &RequestCtx, args: &DirOpArgs) -> Result<(), NfsStat> {
        let _span = self.begin(ctx, "discfs.remove");
        self.inner.remove(ctx, args)
    }

    fn rename(&self, ctx: &RequestCtx, from: &DirOpArgs, to: &DirOpArgs) -> Result<(), NfsStat> {
        let _span = self.begin(ctx, "discfs.rename");
        self.inner.rename(ctx, from, to)
    }

    fn link(&self, ctx: &RequestCtx, from: &FHandle, to: &DirOpArgs) -> Result<(), NfsStat> {
        let _span = self.begin(ctx, "discfs.link");
        self.inner.link(ctx, from, to)
    }

    fn symlink(
        &self,
        ctx: &RequestCtx,
        args: &DirOpArgs,
        target: &str,
        sattr: &Sattr,
    ) -> Result<(), NfsStat> {
        let _span = self.begin(ctx, "discfs.symlink");
        self.inner.symlink(ctx, args, target, sattr)
    }

    fn mkdir(
        &self,
        ctx: &RequestCtx,
        args: &DirOpArgs,
        sattr: &Sattr,
    ) -> Result<(FHandle, Fattr), NfsStat> {
        let _span = self.begin(ctx, "discfs.mkdir");
        self.inner.mkdir(ctx, args, sattr)
    }

    fn rmdir(&self, ctx: &RequestCtx, args: &DirOpArgs) -> Result<(), NfsStat> {
        let _span = self.begin(ctx, "discfs.rmdir");
        self.inner.rmdir(ctx, args)
    }

    fn readdir(
        &self,
        ctx: &RequestCtx,
        fh: &FHandle,
        cookie: u32,
        count: u32,
    ) -> Result<(Vec<ReaddirEntry>, bool), NfsStat> {
        let _span = self.begin(ctx, "discfs.readdir");
        self.inner.readdir(ctx, fh, cookie, count)
    }

    fn statfs(&self, ctx: &RequestCtx, fh: &FHandle) -> Result<StatfsRes, NfsStat> {
        let _span = self.begin(ctx, "discfs.statfs");
        self.inner.statfs(ctx, fh)
    }

    fn extension(
        &self,
        ctx: &RequestCtx,
        prog: u32,
        proc_num: u32,
        args: &[u8],
    ) -> Option<Result<Vec<u8>, AcceptStat>> {
        use discfs::rpc::proc_discfs;
        let name = match proc_num {
            proc_discfs::SUBMIT_CRED => "discfs.submit",
            proc_discfs::CREATE | proc_discfs::MKDIR => "discfs.create_cred",
            proc_discfs::REVOKE_KEY | proc_discfs::REVOKE_CRED => "discfs.revoke",
            _ => "discfs.extension",
        };
        let _span = self.begin(ctx, name);
        self.inner.extension(ctx, prog, proc_num, args)
    }

    fn connection_closed(&self, ctx: &RequestCtx) {
        self.inner.connection_closed(ctx)
    }

    fn connection_aborted(&self, ctx: &RequestCtx, reason: &str) {
        self.inner.connection_aborted(ctx, reason)
    }
}

/// Where in the store stack a [`TracedStore`] sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Above the block cache: every block the filesystem asks for.
    Cached,
    /// Between the cache and the replicated volume: cache misses and
    /// write-backs.
    Replicated,
    /// Between a node's block server and its disk.
    Node,
}

/// Block counts at one level (summed over the nodes at `Node`).
#[derive(Default)]
pub struct StoreCounters {
    pub reads: AtomicU64,
    pub writes: AtomicU64,
}

/// One level of the store stack.
pub struct TracedStore<S> {
    inner: S,
    tracer: Arc<Tracer>,
    level: Level,
    counters: Arc<StoreCounters>,
}

impl<S: BlockStore> TracedStore<S> {
    pub fn new(inner: S, tracer: Arc<Tracer>, level: Level, counters: Arc<StoreCounters>) -> Self {
        TracedStore {
            inner,
            tracer,
            level,
            counters,
        }
    }

    fn reads(&self, n: usize) {
        self.counters.reads.fetch_add(n as u64, Ordering::Relaxed);
    }

    fn writes(&self, n: usize) {
        self.counters.writes.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Runs `f` inside this level's span.
    fn span<R>(&self, flush: bool, f: impl FnOnce() -> R) -> R {
        match self.level {
            Level::Cached => {
                let _span = self
                    .tracer
                    .enter(if flush { "store.flush" } else { "store.cached" });
                f()
            }
            Level::Replicated => {
                let span = self.tracer.enter("store.replicated");
                let req = STACK.with(|s| s.borrow().last().map(|f| f.1).unwrap_or(0));
                let prev = std::mem::replace(
                    &mut *self.tracer.store_owner.lock().expect("store owner"),
                    (span.id, req),
                );
                let out = f();
                *self.tracer.store_owner.lock().expect("store owner") = prev;
                drop(span);
                out
            }
            Level::Node => {
                let (parent, req) = *self.tracer.store_owner.lock().expect("store owner");
                let _span = self.tracer.enter_with("store.node", parent, req);
                f()
            }
        }
    }
}

impl<S: BlockStore> BlockStore for TracedStore<S> {
    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }

    fn read_block(&self, idx: u64) -> Bytes {
        self.reads(1);
        self.span(false, || self.inner.read_block(idx))
    }

    fn read_block_into(&self, idx: u64, buf: &mut [u8]) {
        self.reads(1);
        self.span(false, || self.inner.read_block_into(idx, buf))
    }

    fn write_block(&self, idx: u64, data: &[u8]) {
        self.writes(1);
        self.span(false, || self.inner.write_block(idx, data))
    }

    fn read_blocks(&self, idxs: &[u64]) -> Vec<Bytes> {
        self.reads(idxs.len());
        self.span(false, || self.inner.read_blocks(idxs))
    }

    fn write_blocks(&self, writes: &[(u64, &[u8])]) {
        self.writes(writes.len());
        self.span(false, || self.inner.write_blocks(writes))
    }

    fn read_block_meta(&self, idx: u64) -> Bytes {
        self.reads(1);
        self.span(false, || self.inner.read_block_meta(idx))
    }

    fn read_block_meta_into(&self, idx: u64, buf: &mut [u8]) {
        self.reads(1);
        self.span(false, || self.inner.read_block_meta_into(idx, buf))
    }

    fn write_block_meta(&self, idx: u64, data: &[u8]) {
        self.writes(1);
        self.span(false, || self.inner.write_block_meta(idx, data))
    }

    fn write_blocks_meta(&self, writes: &[(u64, &[u8])]) {
        self.writes(writes.len());
        self.span(false, || self.inner.write_blocks_meta(writes))
    }

    fn flush(&self) -> std::io::Result<()> {
        self.span(true, || self.inner.flush())
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}
