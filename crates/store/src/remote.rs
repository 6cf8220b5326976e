//! The network block server and its client — the distributed volume
//! tier's transport layer.
//!
//! The paper's DisCFS vision is *global* file sharing, but every
//! backend so far lived inside one process. This module puts a
//! [`BlockStore`] behind a network boundary: a [`BlockServer`] serves
//! any store over a [`netsim::Transport`] (one simulated storage
//! node), and a [`RemoteStore`] is the client-side [`BlockStore`] that
//! speaks to it — so dedup, encryption, caching and sharding compose
//! over remote storage exactly as they do over local backends
//! (layers `[Remote, Sharded, Cached]` are just another stack).
//!
//! # Wire format
//!
//! Every message — request or response — is one checksummed frame:
//!
//! ```text
//! [u32 LE remaining length] [u64 LE request id] [u8 op] [body]
//! [32-byte SHA-256 over (request id ‖ op ‖ body)]
//! ```
//!
//! Request ops carry the operand layout of the [`BlockStore`] call
//! they mirror (indices as `u64` LE, blocks as raw 8 KB payloads,
//! vectored bodies prefixed with a `u32` LE count); responses echo the
//! request id, so a client that timed out and re-sent can drain the
//! stale first reply. Block payloads ride the zero-copy [`Bytes`]
//! path: the server reads handles from its store and the client slices
//! response frames into handles without re-copying per block.
//!
//! # Failure model
//!
//! [`RemoteStore`] retries a timed-out request (same id, so a late
//! or fault-duplicated reply is recognized and drained) under
//! exponential backoff with decorrelated jitter: after each timeout it
//! waits `min(max_backoff, uniform(base, prev × multiplier))` — waits
//! are charged to the link's virtual clock, never the wall — and keeps
//! re-sending until the accumulated waiting budget (attempt timeouts
//! plus backoff sleeps) crosses [`RemoteOptions::deadline`]. Only then
//! is the node declared **dead**, with a [`DeadCause`] recording *why*:
//!
//! - [`DeadCause::Timeout`] — the deadline lapsed with no reply. This
//!   is what a lossy link or a partition window looks like, so death is
//!   **non-terminal**: [`RemoteStore::probe`] issues one cheap,
//!   un-retried length request that bypasses the dead latch, and a
//!   reply revives the node. `ReplicatedStore` holds such nodes in
//!   *probation*, probes them in the background, and re-syncs a
//!   revived node from its peers before it serves reads again.
//! - [`DeadCause::Disconnected`] — the link dropped, which is how a
//!   killed [`BlockServer`] thread manifests; the process is gone and
//!   only a rebuild onto a spare brings the data back.
//! - [`DeadCause::Protocol`] — a frame failed to parse or checksum. A
//!   node that cannot frame correctly cannot be trusted with retries.
//!
//! A dead node fails every later call without touching the wire;
//! `ReplicatedStore` uses that latch to fail over (see
//! [`crate::ReplicatedStore`]). Fault injection ([`netsim::FaultPlan`])
//! plugs in below this whole policy: [`RemoteStore::serve_local_with_faults`]
//! runs the wire protocol over a lossy, duplicating, jittery,
//! partitionable link, and the client counts the plan's injected
//! faults in its [`StoreStats::faults_injected`].
//!
//! # Leases and fencing
//!
//! Retries and fault-duplicated frames are safe against *one*
//! coordinator because block writes are idempotent — but with two
//! front-ends on one node, a frame from a coordinator that has since
//! lost ownership must not be applied at all. The server enforces that
//! with **fencing tokens**:
//!
//! - [`OP_ACQUIRE_LEASE`](RemoteStore::try_acquire_lease) grants a
//!   `(coordinator_id, fence_token)` lease with a virtual-clock expiry
//!   (the transport's [`netsim::SimClock`]). The token is a per-node
//!   monotonic counter: every *fresh* grant — first lease, takeover,
//!   post-expiry re-acquisition — bumps it, and it **never** goes back
//!   down, not even when a lease expires. Re-acquisition by the
//!   current holder while its lease is unexpired is **idempotent**
//!   (same token, expiry extended): a retransmitted or
//!   fault-duplicated acquire frame cannot fence its own coordinator.
//! - Every mutating request (`write`, `write_blocks`,
//!   `write_blocks_meta`, `flush`) carries the client's current token.
//!   The server checks it **before touching the store** and rejects
//!   the frame with a typed [`RemoteError::Fenced`] reply whenever a
//!   higher token has been granted — so a fenced write is never
//!   partially applied: the whole frame (scalar or vectored) is either
//!   below the fence and dropped, or at the fence and applied in full.
//! - A second coordinator can only acquire once the current lease has
//!   expired on the virtual clock (or by re-acquiring under the same
//!   coordinator id); until then it gets [`RemoteError::LeaseHeld`].
//!   On a clockless transport leases never expire — takeover then
//!   requires the same coordinator id.
//! - Token `0` is the *unleased* legacy mode: while no lease has ever
//!   been granted on a node, bare clients write freely (the
//!   single-coordinator stacks keep working unchanged). The first
//!   grant fences them out.
//!
//! Lease state lives in a [`NodeLease`] shared by every serve loop
//! attached to the same node ([`RemoteStore::serve_shared`]), so two
//! coordinators' connections to one node see one fence. A `Fenced`
//! reply is a *server verdict*, not a network failure: the client
//! surfaces it without retrying and without latching the node dead
//! (counting it in [`StoreStats::fenced`]) — `ReplicatedStore` reacts
//! by latching the whole volume read-only.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use discfs_crypto::sha256::Sha256;
use discfs_crypto::Digest;
use netsim::{Endpoint, Link, LinkConfig, NetError, SimClock, Transport};
use parking_lot::Mutex;

use crate::{BlockStore, StoreStats, BLOCK_SIZE};

// Request opcodes.
const OP_READ: u8 = 1;
const OP_READ_BLOCKS: u8 = 2;
const OP_WRITE: u8 = 3;
const OP_WRITE_BLOCKS: u8 = 4;
const OP_FLUSH: u8 = 5;
const OP_LEN: u8 = 6;
const OP_READ_META: u8 = 7;
const OP_WRITE_META: u8 = 8;
const OP_WRITE_BLOCKS_META: u8 = 9;
const OP_SHUTDOWN: u8 = 10;
const OP_ACQUIRE_LEASE: u8 = 11;
const OP_RENEW_LEASE: u8 = 12;

// Response opcodes (high bit set).
const RESP_BLOCKS: u8 = 0x81;
const RESP_OK: u8 = 0x82;
const RESP_LEN: u8 = 0x83;
const RESP_ERR: u8 = 0x84;
const RESP_FENCED: u8 = 0x85;
const RESP_LEASE: u8 = 0x86;
const RESP_LEASE_HELD: u8 = 0x87;

/// Length prefix + request id + op + trailing checksum.
const FRAME_OVERHEAD: usize = 4 + 8 + 1 + 32;

/// Errors a [`RemoteStore`] request can fail with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteError {
    /// The link failed (node dead or request timed out past the retry
    /// budget).
    Net(NetError),
    /// A frame failed to parse or checksum, or an unexpected response
    /// op arrived.
    Protocol(String),
    /// The server reported an error (e.g. a failed flush).
    Server(String),
    /// A mutating request carried a fence token below the node's
    /// current grant: a newer lease exists, this coordinator must stop
    /// writing. Never retried, and the frame was not applied at all.
    Fenced {
        /// The node's currently-granted fence token.
        granted: u64,
    },
    /// A lease acquisition was refused because another coordinator's
    /// lease is still unexpired.
    LeaseHeld {
        /// The coordinator id holding the lease.
        holder: u64,
        /// When the lease expires on the node's virtual clock.
        expires: Duration,
    },
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Net(e) => write!(f, "network error: {e}"),
            RemoteError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            RemoteError::Server(msg) => write!(f, "server error: {msg}"),
            RemoteError::Fenced { granted } => {
                write!(f, "fenced: node granted fence token {granted}")
            }
            RemoteError::LeaseHeld { holder, expires } => {
                write!(f, "lease held by coordinator {holder} until {expires:?}")
            }
        }
    }
}

impl std::error::Error for RemoteError {}

fn frame_checksum(req_id: u64, op: u8, body: &[u8]) -> Vec<u8> {
    let mut h = Sha256::new();
    h.update(&req_id.to_le_bytes());
    h.update(&[op]);
    h.update(body);
    h.finalize()
}

fn encode_frame(req_id: u64, op: u8, body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_OVERHEAD + body.len());
    frame.extend_from_slice(&((FRAME_OVERHEAD - 4 + body.len()) as u32).to_le_bytes());
    frame.extend_from_slice(&req_id.to_le_bytes());
    frame.push(op);
    frame.extend_from_slice(body);
    frame.extend_from_slice(&frame_checksum(req_id, op, body));
    frame
}

fn decode_frame(msg: &[u8]) -> Result<(u64, u8, &[u8]), RemoteError> {
    if msg.len() < FRAME_OVERHEAD {
        return Err(RemoteError::Protocol(format!(
            "frame too short: {} bytes",
            msg.len()
        )));
    }
    let len = u32::from_le_bytes(msg[0..4].try_into().expect("4 bytes")) as usize;
    if len != msg.len() - 4 {
        return Err(RemoteError::Protocol(format!(
            "length prefix {len} != {} remaining bytes",
            msg.len() - 4
        )));
    }
    let req_id = u64::from_le_bytes(msg[4..12].try_into().expect("8 bytes"));
    let op = msg[12];
    let body = &msg[13..msg.len() - 32];
    if frame_checksum(req_id, op, body) != msg[msg.len() - 32..] {
        return Err(RemoteError::Protocol("frame checksum mismatch".into()));
    }
    Ok((req_id, op, body))
}

/// Server-side lease state for one storage node: the current
/// `(coordinator_id, fence_token)` grant and its virtual-clock expiry.
///
/// Shared (via `Arc`) by every serve loop attached to the same node —
/// two coordinators' connections see one fence — and by tests and
/// benches that want the server's own view of rejections. The fence
/// token is monotonic for the node's lifetime: grants bump it, nothing
/// lowers it, so a frame stamped under an older lease can always be
/// recognized and refused (module docs, *Leases and fencing*).
#[derive(Debug, Default)]
pub struct NodeLease {
    slot: Mutex<LeaseSlot>,
    fenced_rejections: AtomicU64,
}

#[derive(Debug, Default)]
struct LeaseSlot {
    holder: u64,
    token: u64,
    expires: Duration,
}

impl NodeLease {
    /// The currently-granted fence token (0 while the node has never
    /// been leased).
    pub fn granted(&self) -> u64 {
        self.slot.lock().token
    }

    /// The coordinator id holding the current grant (0 while unleased).
    pub fn holder(&self) -> u64 {
        self.slot.lock().holder
    }

    /// Mutating frames this node refused because their token was below
    /// the current grant — the server-side count of fenced writes,
    /// none of which touched the store.
    pub fn fenced_rejections(&self) -> u64 {
        self.fenced_rejections.load(Ordering::Relaxed)
    }

    /// Grants a lease to `coordinator` unless another coordinator's
    /// lease is unexpired at `now`. A fresh grant — first lease,
    /// takeover, or post-expiry re-acquisition — bumps the fence
    /// token; re-acquisition by the *current holder while unexpired*
    /// is idempotent (same token, expiry extended), so a retransmitted
    /// or fault-duplicated acquire frame can never fence its own
    /// coordinator. Without a clock (`now == None`) leases never
    /// expire.
    fn acquire(
        &self,
        coordinator: u64,
        ttl: Duration,
        now: Option<Duration>,
    ) -> Result<(u64, Duration), (u64, Duration)> {
        let mut s = self.slot.lock();
        let expired = now.is_some_and(|t| t >= s.expires);
        let fresh = now.map_or(Duration::MAX, |t| t.saturating_add(ttl));
        if s.token != 0 && s.holder == coordinator && !expired {
            s.expires = s.expires.max(fresh);
            return Ok((s.token, s.expires));
        }
        if s.token != 0 && !expired {
            return Err((s.holder, s.expires));
        }
        s.token += 1;
        s.holder = coordinator;
        s.expires = fresh;
        Ok((s.token, s.expires))
    }

    /// Extends the expiry of the lease identified by `(coordinator,
    /// token)` — only while that grant is still the current one; a
    /// renewal under a superseded token is fenced.
    fn renew(
        &self,
        coordinator: u64,
        token: u64,
        ttl: Duration,
        now: Option<Duration>,
    ) -> Result<(u64, Duration), u64> {
        let mut s = self.slot.lock();
        if s.token != token || s.holder != coordinator || token == 0 {
            return Err(s.token);
        }
        let fresh = now.map_or(Duration::MAX, |t| t.saturating_add(ttl));
        s.expires = s.expires.max(fresh);
        Ok((s.token, s.expires))
    }

    /// Admits a mutating frame stamped `token` iff no higher token has
    /// been granted (token 0 vs token 0 is the unleased legacy mode).
    fn check(&self, token: u64) -> Result<(), u64> {
        let granted = self.slot.lock().token;
        if token >= granted {
            Ok(())
        } else {
            self.fenced_rejections.fetch_add(1, Ordering::Relaxed);
            Err(granted)
        }
    }
}

/// A granted lease as seen by the client: the fence token to stamp on
/// mutating frames and when the grant expires on the node's virtual
/// clock ([`Duration::MAX`]-ish on a clockless transport: never).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseGrant {
    /// The fence token granted to this coordinator.
    pub token: u64,
    /// Virtual-clock instant the lease expires.
    pub expires: Duration,
}

/// Serves one [`BlockStore`] over a [`Transport`] — one simulated
/// storage node.
///
/// The serve loop handles one request frame at a time (the paper's
/// sequential RPC model) and exits on a disconnected link, a shutdown
/// request, or — without replying, simulating a crashed node — when
/// its kill switch is set (see [`RemoteStore::kill_server`]).
///
/// Every mutating request is admitted through the node's [`NodeLease`]
/// fence *before* the store is touched; serve loops sharing one store
/// must share one lease ([`BlockServer::with_lease`]) or the fence has
/// holes.
pub struct BlockServer<S> {
    store: S,
    lease: Arc<NodeLease>,
}

impl<S: BlockStore> BlockServer<S> {
    /// Wraps `store` for serving, with a private lease table.
    pub fn new(store: S) -> BlockServer<S> {
        BlockServer::with_lease(store, Arc::new(NodeLease::default()))
    }

    /// Wraps `store` for serving under a shared lease table — the
    /// multi-coordinator path: every serve loop attached to the same
    /// node store passes the same `lease` so all connections see one
    /// fence.
    pub fn with_lease(store: S, lease: Arc<NodeLease>) -> BlockServer<S> {
        BlockServer { store, lease }
    }

    /// The node's lease table.
    pub fn lease(&self) -> &Arc<NodeLease> {
        &self.lease
    }

    /// Serves requests until the peer disconnects or sends a shutdown
    /// request.
    pub fn serve<T: Transport>(&self, link: &T) {
        self.serve_until(link, &AtomicBool::new(false));
    }

    /// Like [`BlockServer::serve`], plus a kill switch: once `kill` is
    /// set, the next incoming request wakes the loop and it exits
    /// *without replying* — the client observes the dropped link as a
    /// dead node, exactly like a crashed machine.
    pub fn serve_until<T: Transport>(&self, link: &T, kill: &AtomicBool) {
        let clock = link.sim_clock();
        while let Ok(msg) = link.recv() {
            if kill.load(Ordering::SeqCst) {
                return;
            }
            // A malformed frame is dropped: the client times out and
            // retries (or declares this node dead).
            let Ok((req_id, op, body)) = decode_frame(&msg) else {
                continue;
            };
            let shutdown = op == OP_SHUTDOWN;
            let now = clock.as_ref().map(netsim::SimClock::now);
            let reply = self.handle(req_id, op, body, now);
            if link.send(reply).is_err() || shutdown {
                return;
            }
        }
    }

    fn handle(&self, req_id: u64, op: u8, body: &[u8], now: Option<Duration>) -> Vec<u8> {
        match op {
            OP_READ | OP_READ_META if body.len() == 8 => {
                let idx = u64::from_le_bytes(body.try_into().expect("8 bytes"));
                let block = if op == OP_READ {
                    self.store.read_block(idx)
                } else {
                    self.store.read_block_meta(idx)
                };
                encode_blocks_resp(req_id, &[block])
            }
            OP_READ_BLOCKS => match decode_idx_list(body) {
                Some(idxs) => encode_blocks_resp(req_id, &self.store.read_blocks(&idxs)),
                None => encode_frame(req_id, RESP_ERR, b"malformed index list"),
            },
            OP_WRITE | OP_WRITE_META if body.len() == 16 + BLOCK_SIZE => {
                let token = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
                if let Err(granted) = self.lease.check(token) {
                    return encode_frame(req_id, RESP_FENCED, &granted.to_le_bytes());
                }
                let idx = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
                if op == OP_WRITE {
                    self.store.write_block(idx, &body[16..]);
                } else {
                    self.store.write_block_meta(idx, &body[16..]);
                }
                encode_frame(req_id, RESP_OK, &[])
            }
            OP_WRITE_BLOCKS | OP_WRITE_BLOCKS_META if body.len() >= 8 => {
                let token = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
                if let Err(granted) = self.lease.check(token) {
                    return encode_frame(req_id, RESP_FENCED, &granted.to_le_bytes());
                }
                match decode_write_list(&body[8..]) {
                    Some(writes) => {
                        if op == OP_WRITE_BLOCKS {
                            self.store.write_blocks(&writes);
                        } else {
                            self.store.write_blocks_meta(&writes);
                        }
                        encode_frame(req_id, RESP_OK, &[])
                    }
                    None => encode_frame(req_id, RESP_ERR, b"malformed write list"),
                }
            }
            OP_FLUSH if body.len() == 8 => {
                let token = u64::from_le_bytes(body.try_into().expect("8 bytes"));
                if let Err(granted) = self.lease.check(token) {
                    return encode_frame(req_id, RESP_FENCED, &granted.to_le_bytes());
                }
                match self.store.flush() {
                    Ok(()) => encode_frame(req_id, RESP_OK, &[]),
                    Err(e) => encode_frame(req_id, RESP_ERR, e.to_string().as_bytes()),
                }
            }
            OP_ACQUIRE_LEASE if body.len() == 16 => {
                let coordinator = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
                let ttl =
                    Duration::from_nanos(u64::from_le_bytes(body[8..16].try_into().expect("8")));
                match self.lease.acquire(coordinator, ttl, now) {
                    Ok((token, expires)) => encode_lease_resp(req_id, RESP_LEASE, token, expires),
                    Err((holder, expires)) => {
                        encode_lease_resp(req_id, RESP_LEASE_HELD, holder, expires)
                    }
                }
            }
            OP_RENEW_LEASE if body.len() == 24 => {
                let coordinator = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
                let token = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
                let ttl =
                    Duration::from_nanos(u64::from_le_bytes(body[16..24].try_into().expect("8")));
                match self.lease.renew(coordinator, token, ttl, now) {
                    Ok((token, expires)) => encode_lease_resp(req_id, RESP_LEASE, token, expires),
                    Err(granted) => encode_frame(req_id, RESP_FENCED, &granted.to_le_bytes()),
                }
            }
            OP_LEN => encode_frame(req_id, RESP_LEN, &self.store.block_count().to_le_bytes()),
            OP_SHUTDOWN => encode_frame(req_id, RESP_OK, &[]),
            _ => encode_frame(req_id, RESP_ERR, format!("bad request op {op}").as_bytes()),
        }
    }
}

/// `[u64 token-or-holder][u64 expiry nanos]` lease reply (`RESP_LEASE`
/// on a grant, `RESP_LEASE_HELD` on a refusal).
fn encode_lease_resp(req_id: u64, resp: u8, word: u64, expires: Duration) -> Vec<u8> {
    let mut body = Vec::with_capacity(16);
    body.extend_from_slice(&word.to_le_bytes());
    body.extend_from_slice(&duration_nanos(expires).to_le_bytes());
    encode_frame(req_id, resp, &body)
}

/// Nanoseconds of `d`, saturating (a clockless lease "expires" at
/// `Duration::MAX`, which overflows u64 nanos).
fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn encode_blocks_resp(req_id: u64, blocks: &[Bytes]) -> Vec<u8> {
    let mut body = Vec::with_capacity(4 + blocks.len() * BLOCK_SIZE);
    body.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
    for block in blocks {
        body.extend_from_slice(block);
    }
    encode_frame(req_id, RESP_BLOCKS, &body)
}

fn decode_idx_list(body: &[u8]) -> Option<Vec<u64>> {
    let count = u32::from_le_bytes(body.get(..4)?.try_into().ok()?) as usize;
    let rest = &body[4..];
    if rest.len() != count * 8 {
        return None;
    }
    Some(
        rest.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect(),
    )
}

fn decode_write_list(body: &[u8]) -> Option<Vec<(u64, &[u8])>> {
    let count = u32::from_le_bytes(body.get(..4)?.try_into().ok()?) as usize;
    let rest = &body[4..];
    if rest.len() != count * (8 + BLOCK_SIZE) {
        return None;
    }
    Some(
        rest.chunks_exact(8 + BLOCK_SIZE)
            .map(|c| {
                (
                    u64::from_le_bytes(c[..8].try_into().expect("8 bytes")),
                    &c[8..],
                )
            })
            .collect(),
    )
}

/// Retry policy for a [`RemoteStore`]: exponential backoff with
/// decorrelated jitter under an overall per-operation deadline.
///
/// After a timed-out attempt the client waits
/// `min(max_backoff, uniform(base, prev × multiplier))` before
/// re-sending (the AWS "decorrelated jitter" schedule — retries from
/// many clients de-synchronize instead of stampeding a recovering
/// node). Backoff waits are charged to the link's virtual clock, never
/// slept on the wall, and the node is declared dead only once the
/// accumulated waiting budget — attempt timeouts plus backoff sleeps —
/// reaches `deadline`.
#[derive(Debug, Clone, Copy)]
pub struct RemoteOptions {
    /// Wait per request attempt before it counts as timed out.
    pub timeout: Duration,
    /// Floor of every backoff sleep (and the first retry's window).
    pub base: Duration,
    /// Growth factor of the decorrelated-jitter window: each sleep is
    /// drawn from `[base, prev × multiplier]`.
    pub multiplier: f64,
    /// Hard cap on any single backoff sleep.
    pub max_backoff: Duration,
    /// Total waiting budget per operation (timeouts + backoff sleeps)
    /// before the node is declared dead.
    pub deadline: Duration,
}

impl Default for RemoteOptions {
    fn default() -> RemoteOptions {
        RemoteOptions {
            timeout: Duration::from_millis(200),
            base: Duration::from_millis(10),
            multiplier: 2.0,
            max_backoff: Duration::from_millis(160),
            deadline: Duration::from_secs(2),
        }
    }
}

/// Why a [`RemoteStore`] declared its node dead. `ReplicatedStore`
/// branches on this: a [`DeadCause::Timeout`] looks like loss or a
/// partition, so the node goes into probation and is probed for
/// revival; the other causes mean the process or its framing is gone,
/// so only a spare-rebuild brings the data back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadCause {
    /// The per-operation deadline lapsed with no reply — possibly a
    /// transient partition; the node may come back.
    Timeout,
    /// The link dropped: the server side is gone.
    Disconnected,
    /// The node sent an unparseable or mis-checksummed frame.
    Protocol,
}

/// The local server thread behind a [`RemoteStore::serve_local`]
/// store: its kill switch and join handle.
struct ServerHandle {
    kill: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

/// A client-side [`BlockStore`] speaking the block-server wire
/// protocol over a [`Transport`].
///
/// Requests are issued sequentially under one link lock (the paper's
/// single-flow RPC model; the virtual clock charges each frame's
/// latency and serialization time). A request that times out is
/// re-sent under exponential backoff with decorrelated jitter until
/// the [`RemoteOptions::deadline`] waiting budget lapses — response
/// frames echo the request id, so a stale or fault-duplicated reply
/// from an earlier attempt is drained, never mistaken for the current
/// one. A disconnected link or a lapsed deadline declares the node
/// **dead** (with a [`DeadCause`]): every later call fails
/// immediately, and the fallible `try_*` methods surface that to
/// `ReplicatedStore`'s failover, while [`RemoteStore::probe`] can
/// revive a node whose death was only a timeout. The infallible
/// [`BlockStore`] methods panic on a dead node — using a bare
/// `RemoteStore` as a volume's backend (a `Layer::Remote` stack)
/// treats node death like any other fatal storage failure.
pub struct RemoteStore {
    link: Mutex<Box<dyn Transport>>,
    next_req_id: AtomicU64,
    block_count: u64,
    opts: RemoteOptions,
    /// One-way link latency, used by `ReplicatedStore` to rank
    /// replicas (read-from-nearest).
    latency_hint: Duration,
    dead: AtomicBool,
    cause: Mutex<Option<DeadCause>>,
    /// The link's fault plan and clock, captured at connect so
    /// `stats()` and backoff never have to take the link lock (held
    /// across `recv_timeout` for up to a full deadline).
    faults: Option<netsim::FaultPlan>,
    clock: Option<SimClock>,
    /// SplitMix64 state for the decorrelated-jitter draws.
    backoff_rng: AtomicU64,
    server: Mutex<Option<ServerHandle>>,
    /// The fence token granted by the node's last lease reply (0 =
    /// unleased legacy mode), stamped on every mutating frame.
    fence: AtomicU64,
    /// This client's coordinator id (0 until a lease is acquired).
    coordinator: AtomicU64,
    fenced_writes: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    vectored_reads: AtomicU64,
    vectored_writes: AtomicU64,
    flushes: AtomicU64,
    rpc_calls: AtomicU64,
    bytes_on_wire: AtomicU64,
    retries: AtomicU64,
    backoff_retries: AtomicU64,
}

/// A permanently-disconnected transport, swapped in on drop so the
/// server loop wakes even if a fault plan swallowed the shutdown frame.
struct SeveredLink;

impl Transport for SeveredLink {
    fn send(&self, _msg: Vec<u8>) -> Result<(), NetError> {
        Err(NetError::Disconnected)
    }
    fn recv(&self) -> Result<Vec<u8>, NetError> {
        Err(NetError::Disconnected)
    }
    fn recv_timeout(&self, _timeout: Duration) -> Result<Vec<u8>, NetError> {
        Err(NetError::Disconnected)
    }
}

impl RemoteStore {
    /// Connects over an arbitrary transport, learning the node's block
    /// count with an initial length request.
    ///
    /// # Errors
    ///
    /// Any [`RemoteError`] from the length request.
    pub fn connect<T: Transport + 'static>(
        link: T,
        opts: RemoteOptions,
    ) -> Result<RemoteStore, RemoteError> {
        RemoteStore::connect_with_hint(link, opts, Duration::ZERO)
    }

    fn connect_with_hint<T: Transport + 'static>(
        link: T,
        opts: RemoteOptions,
        latency_hint: Duration,
    ) -> Result<RemoteStore, RemoteError> {
        let faults = link.fault_plan();
        let clock = link.sim_clock();
        let store = RemoteStore {
            link: Mutex::new(Box::new(link)),
            next_req_id: AtomicU64::new(1),
            block_count: 0,
            opts,
            latency_hint,
            dead: AtomicBool::new(false),
            cause: Mutex::new(None),
            faults,
            clock,
            backoff_rng: AtomicU64::new(0x5DEE_CE66_D0F1_5A4D),
            server: Mutex::new(None),
            fence: AtomicU64::new(0),
            coordinator: AtomicU64::new(0),
            fenced_writes: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            vectored_reads: AtomicU64::new(0),
            vectored_writes: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            rpc_calls: AtomicU64::new(0),
            bytes_on_wire: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            backoff_retries: AtomicU64::new(0),
        };
        let mut store = store;
        let (op, body) = store.rpc(OP_LEN, &[])?;
        if op != RESP_LEN || body.len() != 8 {
            return Err(RemoteError::Protocol("bad length response".into()));
        }
        store.block_count = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
        Ok(store)
    }

    /// Spawns a [`BlockServer`] thread over a fresh link on `clock`
    /// and connects to it — one self-contained simulated storage node.
    /// Dropping the returned store shuts the server down cleanly and
    /// joins the thread (so e.g. a journaled node store seals its
    /// batches deterministically).
    pub fn serve_local<S: BlockStore + Send + 'static>(
        store: S,
        clock: &SimClock,
        config: LinkConfig,
        opts: RemoteOptions,
    ) -> RemoteStore {
        let (client_end, server_end) = Link::pair(clock, config);
        RemoteStore::serve_on(
            store,
            Arc::new(NodeLease::default()),
            client_end,
            server_end,
            config,
            opts,
        )
    }

    /// Spawns a serve loop for one more connection to a *shared* node:
    /// `store` and `lease` are `Arc`s that other serve loops (other
    /// coordinators' connections) hold too, so every connection sees
    /// the same blocks behind the same fence. This is the
    /// multi-coordinator path — see the module docs, *Leases and
    /// fencing*.
    pub fn serve_shared(
        store: Arc<dyn BlockStore>,
        lease: Arc<NodeLease>,
        clock: &SimClock,
        config: LinkConfig,
        opts: RemoteOptions,
        faults: Option<&netsim::FaultPlan>,
    ) -> RemoteStore {
        let (client_end, server_end) = match faults {
            Some(plan) => Link::pair_faulty(clock, config, plan),
            None => Link::pair(clock, config),
        };
        RemoteStore::serve_on(store, lease, client_end, server_end, config, opts)
    }

    /// Like [`RemoteStore::serve_local`], but with a
    /// [`netsim::FaultPlan`] installed on both directions of the link:
    /// every request and reply is subject to the plan's loss,
    /// duplication, jitter, and partition schedule. The connect-time
    /// length request already rides the faulty link, so the plan's
    /// loss rate must leave the backoff schedule room to get one
    /// request through within the deadline.
    pub fn serve_local_with_faults<S: BlockStore + Send + 'static>(
        store: S,
        clock: &SimClock,
        config: LinkConfig,
        opts: RemoteOptions,
        faults: &netsim::FaultPlan,
    ) -> RemoteStore {
        let (client_end, server_end) = Link::pair_faulty(clock, config, faults);
        RemoteStore::serve_on(
            store,
            Arc::new(NodeLease::default()),
            client_end,
            server_end,
            config,
            opts,
        )
    }

    fn serve_on<S: BlockStore + Send + 'static>(
        store: S,
        lease: Arc<NodeLease>,
        client_end: Endpoint,
        server_end: Endpoint,
        config: LinkConfig,
        opts: RemoteOptions,
    ) -> RemoteStore {
        let kill = Arc::new(AtomicBool::new(false));
        let server_kill = Arc::clone(&kill);
        let handle = std::thread::spawn(move || {
            BlockServer::with_lease(store, lease).serve_until(&server_end, &server_kill);
        });
        let remote = RemoteStore::connect_with_hint(client_end, opts, config.latency)
            .expect("local block server must answer the length request");
        *remote.server.lock() = Some(ServerHandle {
            kill,
            handle: Some(handle),
        });
        remote
    }

    /// Number of addressable blocks on the node (learned at connect).
    pub fn remote_block_count(&self) -> u64 {
        self.block_count
    }

    /// Whether this node has been declared dead (disconnected link,
    /// lapsed deadline, or a protocol violation).
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Why the node was declared dead (`None` while it is healthy).
    /// The first cause wins: a probe failure on an already-dead node
    /// never overwrites the original diagnosis.
    pub fn dead_cause(&self) -> Option<DeadCause> {
        *self.cause.lock()
    }

    /// Cheap revival probe: one un-retried length request that
    /// bypasses the dead latch. A valid reply clears the latch — the
    /// node is revived and serves normal calls again — and returns its
    /// current block count. The caller (`ReplicatedStore`) still
    /// compares epoch records before trusting the node's data: a
    /// partitioned-then-healed node is *revived*, a node that missed
    /// commits is additionally *re-synced*.
    ///
    /// # Errors
    ///
    /// Any [`RemoteError`]; a failed probe leaves the dead latch and
    /// [`DeadCause`] untouched.
    pub fn probe(&self) -> Result<u64, RemoteError> {
        let link = self.link.lock();
        let req_id = self.next_req_id.fetch_add(1, Ordering::Relaxed);
        let frame = encode_frame(req_id, OP_LEN, &[]);
        let (op, body) = self.attempt(&**link, &frame, req_id)?;
        if op != RESP_LEN || body.len() != 8 {
            return Err(RemoteError::Protocol("bad length response".into()));
        }
        *self.cause.lock() = None;
        self.dead.store(false, Ordering::SeqCst);
        Ok(u64::from_le_bytes(body[..8].try_into().expect("8 bytes")))
    }

    /// The one-way link latency hint used for replica ranking.
    pub fn latency_hint(&self) -> Duration {
        self.latency_hint
    }

    /// The link's virtual clock, when connected over a simulated link
    /// (`ReplicatedStore` rate-limits its background work against it).
    pub(crate) fn sim_clock(&self) -> Option<&SimClock> {
        self.clock.as_ref()
    }

    /// Crashes the local server thread (test/bench hook): the kill
    /// switch is set, so the server exits without replying on the next
    /// request — the client then observes a dead node. No-op for
    /// stores connected over an external transport.
    pub fn kill_server(&self) {
        if let Some(server) = self.server.lock().as_ref() {
            server.kill.store(true, Ordering::SeqCst);
        }
    }

    /// Acquires (or re-acquires) the node's lease for `coordinator`:
    /// on a grant the returned fence token is remembered and stamped
    /// on every later mutating frame. Refused with
    /// [`RemoteError::LeaseHeld`] while another coordinator's lease is
    /// unexpired on the node's virtual clock.
    ///
    /// # Errors
    ///
    /// [`RemoteError::LeaseHeld`] on a refusal; any transport-level
    /// [`RemoteError`] otherwise (network errors declare the node
    /// dead, as for any RPC).
    pub fn try_acquire_lease(
        &self,
        coordinator: u64,
        ttl: Duration,
    ) -> Result<LeaseGrant, RemoteError> {
        let mut body = Vec::with_capacity(16);
        body.extend_from_slice(&coordinator.to_le_bytes());
        body.extend_from_slice(&duration_nanos(ttl).to_le_bytes());
        let grant = Self::expect_lease(self.rpc(OP_ACQUIRE_LEASE, &body)?)?;
        self.coordinator.store(coordinator, Ordering::SeqCst);
        self.fence.store(grant.token, Ordering::SeqCst);
        Ok(grant)
    }

    /// Extends the current lease's expiry without bumping the fence
    /// token. Fenced (and *not* retried) if a newer lease superseded
    /// ours in the meantime.
    ///
    /// # Errors
    ///
    /// [`RemoteError::Fenced`] when our grant is no longer current;
    /// any transport-level [`RemoteError`] otherwise.
    pub fn try_renew_lease(&self, ttl: Duration) -> Result<LeaseGrant, RemoteError> {
        let mut body = Vec::with_capacity(24);
        body.extend_from_slice(&self.coordinator.load(Ordering::SeqCst).to_le_bytes());
        body.extend_from_slice(&self.fence.load(Ordering::SeqCst).to_le_bytes());
        body.extend_from_slice(&duration_nanos(ttl).to_le_bytes());
        Self::expect_lease(self.rpc(OP_RENEW_LEASE, &body)?)
    }

    /// The fence token this client stamps on mutating frames (0 =
    /// unleased legacy mode).
    pub fn fence_token(&self) -> u64 {
        self.fence.load(Ordering::SeqCst)
    }

    fn expect_lease(resp: (u8, Vec<u8>)) -> Result<LeaseGrant, RemoteError> {
        let (op, body) = resp;
        if op != RESP_LEASE || body.len() != 16 {
            return Err(RemoteError::Protocol(format!("bad lease response op {op}")));
        }
        Ok(LeaseGrant {
            token: u64::from_le_bytes(body[..8].try_into().expect("8 bytes")),
            expires: Duration::from_nanos(u64::from_le_bytes(
                body[8..16].try_into().expect("8 bytes"),
            )),
        })
    }

    fn mark_dead(&self, cause: DeadCause) {
        let mut slot = self.cause.lock();
        if slot.is_none() {
            *slot = Some(cause);
        }
        self.dead.store(true, Ordering::SeqCst);
    }

    /// A uniform draw in `[0, 1)` from the store's SplitMix64 stream
    /// (deterministic: backoff schedules replay exactly).
    fn backoff_draw(&self) -> f64 {
        let mut s = self
            .backoff_rng
            .load(Ordering::Relaxed)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.backoff_rng.store(s, Ordering::Relaxed);
        s = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        s = (s ^ (s >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((s ^ (s >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One send + await-matching-reply attempt: no retries, no dead
    /// latch. Stale replies (timed-out or fault-duplicated earlier
    /// attempts) are drained by the request-id check.
    fn attempt(
        &self,
        link: &dyn Transport,
        frame: &[u8],
        req_id: u64,
    ) -> Result<(u8, Vec<u8>), RemoteError> {
        self.rpc_calls.fetch_add(1, Ordering::Relaxed);
        self.bytes_on_wire
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        if link.send(frame.to_vec()).is_err() {
            return Err(RemoteError::Net(NetError::Disconnected));
        }
        loop {
            let msg = link
                .recv_timeout(self.opts.timeout)
                .map_err(RemoteError::Net)?;
            self.bytes_on_wire
                .fetch_add(msg.len() as u64, Ordering::Relaxed);
            let (resp_id, resp_op, resp_body) = decode_frame(&msg)?;
            if resp_id != req_id {
                // Stale reply from a timed-out or duplicated attempt.
                continue;
            }
            if resp_op == RESP_ERR {
                return Err(RemoteError::Server(
                    String::from_utf8_lossy(resp_body).into_owned(),
                ));
            }
            if resp_op == RESP_FENCED {
                let granted = resp_body
                    .get(..8)
                    .ok_or_else(|| RemoteError::Protocol("short fenced response".into()))?;
                return Err(RemoteError::Fenced {
                    granted: u64::from_le_bytes(granted.try_into().expect("8 bytes")),
                });
            }
            if resp_op == RESP_LEASE_HELD {
                if resp_body.len() != 16 {
                    return Err(RemoteError::Protocol("short lease-held response".into()));
                }
                return Err(RemoteError::LeaseHeld {
                    holder: u64::from_le_bytes(resp_body[..8].try_into().expect("8 bytes")),
                    expires: Duration::from_nanos(u64::from_le_bytes(
                        resp_body[8..16].try_into().expect("8 bytes"),
                    )),
                });
            }
            return Ok((resp_op, resp_body.to_vec()));
        }
    }

    /// One request/response exchange: send, await the matching reply,
    /// re-send on timeout under backoff until the deadline, fail fast
    /// on a dead node or link.
    fn rpc(&self, op: u8, body: &[u8]) -> Result<(u8, Vec<u8>), RemoteError> {
        if self.is_dead() {
            return Err(RemoteError::Net(NetError::Disconnected));
        }
        let link = self.link.lock();
        let req_id = self.next_req_id.fetch_add(1, Ordering::Relaxed);
        let frame = encode_frame(req_id, op, body);
        // The deadline meters *waiting*, deterministically: per-attempt
        // timeouts plus backoff sleeps, not wall time.
        let mut waited = Duration::ZERO;
        let mut prev = self.opts.base;
        loop {
            match self.attempt(&**link, &frame, req_id) {
                Ok(resp) => return Ok(resp),
                Err(RemoteError::Net(NetError::Timeout)) => {
                    waited += self.opts.timeout;
                    if waited >= self.opts.deadline {
                        self.mark_dead(DeadCause::Timeout);
                        return Err(RemoteError::Net(NetError::Timeout));
                    }
                    // Decorrelated jitter, clamped to [base, max_backoff].
                    let hi = prev.mul_f64(self.opts.multiplier.max(1.0));
                    let span = hi.saturating_sub(self.opts.base);
                    let sleep = (self.opts.base + span.mul_f64(self.backoff_draw()))
                        .min(self.opts.max_backoff);
                    prev = sleep;
                    waited += sleep;
                    // Charge the wait to the virtual clock so partition
                    // windows heal and WAN figures see the backoff.
                    if let Some(clock) = &self.clock {
                        clock.advance(sleep);
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.backoff_retries.fetch_add(1, Ordering::Relaxed);
                    // Re-send the same frame (same id).
                }
                Err(RemoteError::Net(NetError::Disconnected)) => {
                    self.mark_dead(DeadCause::Disconnected);
                    return Err(RemoteError::Net(NetError::Disconnected));
                }
                Err(e @ RemoteError::Protocol(_)) => {
                    // A node that cannot frame cannot be trusted with
                    // a retry.
                    self.mark_dead(DeadCause::Protocol);
                    return Err(e);
                }
                Err(e @ RemoteError::Fenced { .. }) => {
                    // A server *verdict*, not a network failure: the
                    // node is healthy, this coordinator is superseded.
                    // Never retried — a fenced write must stay unwritten.
                    if matches!(
                        op,
                        OP_WRITE
                            | OP_WRITE_META
                            | OP_WRITE_BLOCKS
                            | OP_WRITE_BLOCKS_META
                            | OP_FLUSH
                    ) {
                        self.fenced_writes.fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(e);
                }
                Err(e @ RemoteError::LeaseHeld { .. }) => return Err(e),
                Err(e @ RemoteError::Server(_)) => return Err(e),
            }
        }
    }

    fn expect_blocks(resp: (u8, Vec<u8>), want: usize) -> Result<Vec<Bytes>, RemoteError> {
        let (op, body) = resp;
        if op != RESP_BLOCKS {
            return Err(RemoteError::Protocol(format!("bad response op {op}")));
        }
        let count = u32::from_le_bytes(
            body.get(..4)
                .ok_or_else(|| RemoteError::Protocol("short blocks response".into()))?
                .try_into()
                .expect("4 bytes"),
        ) as usize;
        if count != want || body.len() != 4 + count * BLOCK_SIZE {
            return Err(RemoteError::Protocol(
                "blocks response size mismatch".into(),
            ));
        }
        // One allocation for the whole response: each block is a
        // zero-copy slice handle into it.
        let payload = Bytes::from(body).slice(4..);
        Ok((0..count)
            .map(|i| payload.slice(i * BLOCK_SIZE..(i + 1) * BLOCK_SIZE))
            .collect())
    }

    fn expect_ok(resp: (u8, Vec<u8>)) -> Result<(), RemoteError> {
        if resp.0 != RESP_OK {
            return Err(RemoteError::Protocol(format!("bad response op {}", resp.0)));
        }
        Ok(())
    }

    /// Fallible scalar read (`meta` selects the metadata path).
    ///
    /// # Errors
    ///
    /// Any [`RemoteError`]; network errors declare the node dead.
    pub fn try_read_block(&self, idx: u64, meta: bool) -> Result<Bytes, RemoteError> {
        assert!(idx < self.block_count, "block {idx} out of range");
        let op = if meta { OP_READ_META } else { OP_READ };
        let blocks = Self::expect_blocks(self.rpc(op, &idx.to_le_bytes())?, 1)?;
        if !meta {
            self.reads.fetch_add(1, Ordering::Relaxed);
        }
        Ok(blocks.into_iter().next().expect("one block"))
    }

    /// Fallible vectored read.
    ///
    /// # Errors
    ///
    /// Any [`RemoteError`]; network errors declare the node dead.
    pub fn try_read_blocks(&self, idxs: &[u64]) -> Result<Vec<Bytes>, RemoteError> {
        let mut body = Vec::with_capacity(4 + idxs.len() * 8);
        body.extend_from_slice(&(idxs.len() as u32).to_le_bytes());
        for &idx in idxs {
            assert!(idx < self.block_count, "block {idx} out of range");
            body.extend_from_slice(&idx.to_le_bytes());
        }
        let blocks = Self::expect_blocks(self.rpc(OP_READ_BLOCKS, &body)?, idxs.len())?;
        self.vectored_reads.fetch_add(1, Ordering::Relaxed);
        self.reads.fetch_add(idxs.len() as u64, Ordering::Relaxed);
        Ok(blocks)
    }

    /// Fallible scalar write (`meta` selects the metadata path).
    ///
    /// # Errors
    ///
    /// Any [`RemoteError`]; network errors declare the node dead.
    pub fn try_write_block(&self, idx: u64, data: &[u8], meta: bool) -> Result<(), RemoteError> {
        assert!(idx < self.block_count, "block {idx} out of range");
        assert_eq!(data.len(), BLOCK_SIZE, "partial block write");
        let mut body = Vec::with_capacity(16 + BLOCK_SIZE);
        body.extend_from_slice(&self.fence_token().to_le_bytes());
        body.extend_from_slice(&idx.to_le_bytes());
        body.extend_from_slice(data);
        let op = if meta { OP_WRITE_META } else { OP_WRITE };
        Self::expect_ok(self.rpc(op, &body)?)?;
        if !meta {
            self.writes.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Fallible vectored write (`meta` selects the metadata path).
    ///
    /// # Errors
    ///
    /// Any [`RemoteError`]; network errors declare the node dead.
    pub fn try_write_blocks(&self, writes: &[(u64, &[u8])], meta: bool) -> Result<(), RemoteError> {
        let mut body = Vec::with_capacity(12 + writes.len() * (8 + BLOCK_SIZE));
        body.extend_from_slice(&self.fence_token().to_le_bytes());
        body.extend_from_slice(&(writes.len() as u32).to_le_bytes());
        for &(idx, data) in writes {
            assert!(idx < self.block_count, "block {idx} out of range");
            assert_eq!(data.len(), BLOCK_SIZE, "partial block write");
            body.extend_from_slice(&idx.to_le_bytes());
            body.extend_from_slice(data);
        }
        let op = if meta {
            OP_WRITE_BLOCKS_META
        } else {
            OP_WRITE_BLOCKS
        };
        Self::expect_ok(self.rpc(op, &body)?)?;
        if !meta {
            self.vectored_writes.fetch_add(1, Ordering::Relaxed);
            self.writes
                .fetch_add(writes.len() as u64, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Fallible flush.
    ///
    /// # Errors
    ///
    /// Any [`RemoteError`]; network errors declare the node dead,
    /// server errors carry the node's flush failure.
    pub fn try_flush(&self) -> Result<(), RemoteError> {
        Self::expect_ok(self.rpc(OP_FLUSH, &self.fence_token().to_le_bytes())?)?;
        self.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl Drop for RemoteStore {
    fn drop(&mut self) {
        if let Some(mut server) = self.server.lock().take() {
            // Best-effort clean shutdown; a killed or disconnected
            // server ignores it but still wakes and exits, so the join
            // is deterministic either way.
            let req_id = self.next_req_id.fetch_add(1, Ordering::Relaxed);
            let _ = self
                .link
                .lock()
                .send(encode_frame(req_id, OP_SHUTDOWN, &[]));
            // Sever the link too: if a fault plan swallowed the
            // shutdown frame, the disconnect still wakes the serve
            // loop, so the join below cannot hang.
            *self.link.lock() = Box::new(SeveredLink);
            if let Some(handle) = server.handle.take() {
                handle.join().ok();
            }
        }
    }
}

impl BlockStore for RemoteStore {
    fn block_count(&self) -> u64 {
        self.block_count
    }

    fn read_block(&self, idx: u64) -> Bytes {
        self.try_read_block(idx, false).expect("remote read failed")
    }

    fn write_block(&self, idx: u64, data: &[u8]) {
        self.try_write_block(idx, data, false)
            .expect("remote write failed")
    }

    fn read_blocks(&self, idxs: &[u64]) -> Vec<Bytes> {
        self.try_read_blocks(idxs).expect("remote read failed")
    }

    fn write_blocks(&self, writes: &[(u64, &[u8])]) {
        self.try_write_blocks(writes, false)
            .expect("remote write failed")
    }

    fn read_block_meta(&self, idx: u64) -> Bytes {
        self.try_read_block(idx, true).expect("remote read failed")
    }

    fn write_block_meta(&self, idx: u64, data: &[u8]) {
        self.try_write_block(idx, data, true)
            .expect("remote write failed")
    }

    fn write_blocks_meta(&self, writes: &[(u64, &[u8])]) {
        self.try_write_blocks(writes, true)
            .expect("remote write failed")
    }

    fn flush(&self) -> std::io::Result<()> {
        self.try_flush().map_err(std::io::Error::other)
    }

    /// Client-side counters only: logical reads/writes as issued by
    /// callers, plus the wire-level `rpc_calls` / `bytes_on_wire` /
    /// `retries` / `backoff_retries`, and the link fault plan's
    /// injected-fault count when one is installed. The node's own
    /// store counters live on the server side of the link.
    fn stats(&self) -> StoreStats {
        StoreStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            vectored_reads: self.vectored_reads.load(Ordering::Relaxed),
            vectored_writes: self.vectored_writes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            rpc_calls: self.rpc_calls.load(Ordering::Relaxed),
            bytes_on_wire: self.bytes_on_wire.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            backoff_retries: self.backoff_retries.load(Ordering::Relaxed),
            fenced: self.fenced_writes.load(Ordering::Relaxed),
            faults_injected: self
                .faults
                .as_ref()
                .map_or(0, netsim::FaultPlan::faults_injected),
            ..StoreStats::default()
        }
    }

    fn label(&self) -> &'static str {
        "remote"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimStore;

    fn local_node(blocks: u64) -> RemoteStore {
        RemoteStore::serve_local(
            SimStore::untimed(blocks),
            &SimClock::new(),
            LinkConfig::instant(),
            RemoteOptions::default(),
        )
    }

    #[test]
    fn frame_round_trips_and_rejects_corruption() {
        let frame = encode_frame(7, OP_READ, &42u64.to_le_bytes());
        let (id, op, body) = decode_frame(&frame).unwrap();
        assert_eq!((id, op), (7, OP_READ));
        assert_eq!(body, 42u64.to_le_bytes());
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            assert!(decode_frame(&bad).is_err(), "flip at byte {i} undetected");
        }
    }

    #[test]
    fn remote_round_trip_scalar_and_vectored() {
        let store = local_node(16);
        assert_eq!(store.block_count(), 16);
        let a = vec![0xA1u8; BLOCK_SIZE];
        let b = vec![0xB2u8; BLOCK_SIZE];
        store.write_block(3, &a);
        store.write_blocks(&[(5, &b), (6, &a)]);
        store.write_block_meta(0, &b);
        assert_eq!(store.read_block(3), a);
        assert_eq!(
            store.read_blocks(&[5, 6, 3]),
            vec![
                Bytes::from(b.clone()),
                Bytes::from(a.clone()),
                Bytes::from(a.clone())
            ]
        );
        assert_eq!(store.read_block_meta(0), b);
        store.flush().unwrap();
        let stats = store.stats();
        assert_eq!(stats.reads, 4);
        assert_eq!(stats.writes, 3, "meta writes uncounted");
        assert_eq!(stats.flushes, 1);
        // connect (LEN) + 3 writes + 3 reads + flush.
        assert_eq!(stats.rpc_calls, 8);
        assert_eq!(stats.retries, 0);
        assert!(stats.bytes_on_wire > 6 * BLOCK_SIZE as u64);
    }

    #[test]
    fn virtual_clock_charges_wire_time() {
        let clock = SimClock::new();
        let store = RemoteStore::serve_local(
            SimStore::untimed(8),
            &clock,
            LinkConfig::ethernet_100mbps(),
            RemoteOptions::default(),
        );
        clock.reset();
        store.write_block(1, &vec![1u8; BLOCK_SIZE]);
        // Request carries 8 KB at 12.5 MB/s (~655 µs) + 120 µs latency
        // each way.
        let t = clock.now();
        assert!(t > Duration::from_micros(700), "write charged {t:?}");
    }

    #[test]
    fn killed_server_declares_the_node_dead() {
        let store = local_node(8);
        store.write_block(2, &vec![9u8; BLOCK_SIZE]);
        assert!(!store.is_dead());
        store.kill_server();
        assert!(store.try_read_block(2, false).is_err());
        assert!(store.is_dead());
        // Dead latch: later calls fail without touching the wire.
        let calls = store.stats().rpc_calls;
        assert!(store.try_flush().is_err());
        assert_eq!(store.stats().rpc_calls, calls);
    }

    #[test]
    fn timeout_retries_then_succeeds() {
        // A transport that swallows the first request (send succeeds,
        // reply never comes) — the retry must carry the same id and
        // the late... nothing: the swallowed request simply never
        // reaches the server.
        struct Flaky {
            inner: Endpoint,
            drop_first: AtomicBool,
        }
        impl Transport for Flaky {
            fn send(&self, msg: Vec<u8>) -> Result<(), NetError> {
                if self.drop_first.swap(false, Ordering::SeqCst) {
                    return Ok(()); // swallowed
                }
                self.inner.send(msg)
            }
            fn recv(&self) -> Result<Vec<u8>, NetError> {
                self.inner.recv()
            }
            fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
                self.inner.recv_timeout(timeout)
            }
        }
        // Armed from the start: the connect-time LEN request itself is
        // swallowed, times out, and the retry succeeds.
        let clock = SimClock::new();
        let (client_end, server_end) = Link::loopback(&clock);
        let node = SimStore::untimed(8);
        let server = std::thread::spawn(move || BlockServer::new(node).serve(&server_end));
        let store = RemoteStore::connect(
            Flaky {
                inner: client_end,
                drop_first: AtomicBool::new(true),
            },
            RemoteOptions {
                timeout: Duration::from_millis(50),
                ..RemoteOptions::default()
            },
        )
        .unwrap();
        assert_eq!(store.block_count(), 8);
        assert_eq!(store.stats().retries, 1);
        assert_eq!(store.stats().backoff_retries, 1);
        drop(store);
        server.join().ok();
    }

    /// Chaos-grade options: tight per-attempt timeout so lossy-link
    /// tests stay fast on the wall clock, generous deadline so they
    /// never spuriously declare death.
    fn chaos_opts() -> RemoteOptions {
        RemoteOptions {
            timeout: Duration::from_millis(10),
            base: Duration::from_millis(2),
            multiplier: 2.0,
            max_backoff: Duration::from_millis(40),
            deadline: Duration::from_millis(500),
        }
    }

    #[test]
    fn duplicated_write_rpc_is_idempotent_and_dup_replies_drain() {
        let clock = SimClock::new();
        // Every frame is delivered twice: the server applies each write
        // twice (a no-op the second time) and every reply arrives in
        // duplicate, so each rpc leaves a stale reply behind that the
        // next rpc's request-id check must drain.
        let plan = netsim::FaultPlan::seeded(11).with_duplication(1.0);
        let store = RemoteStore::serve_local_with_faults(
            SimStore::untimed(8),
            &clock,
            LinkConfig::instant(),
            chaos_opts(),
            &plan,
        );
        let a = vec![0xAAu8; BLOCK_SIZE];
        let b = vec![0xBBu8; BLOCK_SIZE];
        store.write_block(1, &a);
        store.write_blocks(&[(2, &b[..]), (3, &a[..])]);
        assert_eq!(store.read_block(1), a);
        assert_eq!(store.read_block(2), b);
        assert_eq!(store.read_block(3), a);
        let stats = store.stats();
        // No timeout ever fired: duplication alone never stalls an op.
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.backoff_retries, 0);
        assert!(stats.faults_injected >= 6, "{}", stats.faults_injected);
        assert!(!store.is_dead());
    }

    #[test]
    fn lossy_link_retries_with_backoff_and_succeeds() {
        let clock = SimClock::new();
        let plan = netsim::FaultPlan::seeded(12).with_loss(0.25);
        let store = RemoteStore::serve_local_with_faults(
            SimStore::untimed(16),
            &clock,
            LinkConfig::instant(),
            chaos_opts(),
            &plan,
        );
        let data = vec![0x5Au8; BLOCK_SIZE];
        for i in 0..16 {
            store.write_block(i, &data);
        }
        for i in 0..16 {
            assert_eq!(store.read_block(i), data);
        }
        let stats = store.stats();
        assert!(!store.is_dead());
        assert!(stats.faults_injected > 0);
        // 25% loss over 30+ round trips: some attempt timed out and
        // was re-sent under backoff.
        assert!(stats.backoff_retries > 0);
        // Backoff waits were charged to the virtual clock.
        assert!(clock.now() > Duration::ZERO);
    }

    #[test]
    fn timeout_death_is_probation_and_probe_revives() {
        let clock = SimClock::new();
        let plan = netsim::FaultPlan::seeded(13);
        let store = RemoteStore::serve_local_with_faults(
            SimStore::untimed(8),
            &clock,
            LinkConfig::instant(),
            chaos_opts(),
            &plan,
        );
        let data = vec![0x77u8; BLOCK_SIZE];
        store.write_block(4, &data);
        // Partition the link for longer than any deadline can wait
        // out: every re-send is dropped, the waiting budget lapses,
        // and the node dies with the probation-eligible cause.
        plan.partition(clock.now(), clock.now() + Duration::from_secs(60));
        assert!(store.try_read_block(4, false).is_err());
        assert!(store.is_dead());
        assert_eq!(store.dead_cause(), Some(DeadCause::Timeout));
        // Heal: jump the virtual clock past the window, then probe.
        clock.advance(Duration::from_secs(60));
        assert_eq!(store.probe().unwrap(), 8);
        assert!(!store.is_dead());
        assert_eq!(store.dead_cause(), None);
        assert_eq!(store.read_block(4), data);
    }

    #[test]
    fn disconnect_cause_is_terminal_for_probes() {
        let store = local_node(8);
        store.kill_server();
        assert!(store.try_flush().is_err());
        assert_eq!(store.dead_cause(), Some(DeadCause::Disconnected));
        // The server thread is gone: probing cannot revive it, and the
        // original cause survives the failed probe.
        assert!(store.probe().is_err());
        assert!(store.is_dead());
        assert_eq!(store.dead_cause(), Some(DeadCause::Disconnected));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_is_caught_client_side() {
        local_node(4).read_block(4);
    }

    /// Two coordinator clients on one shared node (one store, one
    /// lease) — the multi-coordinator unit under test.
    fn shared_node(blocks: u64) -> (Arc<SimStore>, Arc<NodeLease>) {
        (
            Arc::new(SimStore::untimed(blocks)),
            Arc::new(NodeLease::default()),
        )
    }

    fn coordinator(store: &Arc<SimStore>, lease: &Arc<NodeLease>, clock: &SimClock) -> RemoteStore {
        RemoteStore::serve_shared(
            Arc::clone(store) as Arc<dyn BlockStore>,
            Arc::clone(lease),
            clock,
            LinkConfig::instant(),
            RemoteOptions::default(),
            None,
        )
    }

    #[test]
    fn lease_grants_renews_and_expires_on_the_virtual_clock() {
        let clock = SimClock::new();
        let (store, lease) = shared_node(8);
        let a = coordinator(&store, &lease, &clock);
        let b = coordinator(&store, &lease, &clock);
        let ttl = Duration::from_secs(10);
        let grant = a.try_acquire_lease(1, ttl).unwrap();
        assert_eq!(grant.token, 1);
        assert_eq!(a.fence_token(), 1);
        assert_eq!(lease.holder(), 1);
        // B is refused while A's lease is unexpired.
        match b.try_acquire_lease(2, ttl) {
            Err(RemoteError::LeaseHeld { holder, .. }) => assert_eq!(holder, 1),
            other => panic!("expected LeaseHeld, got {other:?}"),
        }
        assert!(!b.is_dead(), "a refusal is a verdict, not a failure");
        // Renewal extends expiry without bumping the token.
        let renewed = a.try_renew_lease(ttl).unwrap();
        assert_eq!(renewed.token, 1);
        assert!(renewed.expires >= grant.expires);
        // Past expiry B takes over, and the token only ever goes up.
        clock.advance(Duration::from_secs(30));
        let grant_b = b.try_acquire_lease(2, ttl).unwrap();
        assert_eq!(grant_b.token, 2);
        // A's renewal is now fenced — its grant was superseded.
        match a.try_renew_lease(ttl) {
            Err(RemoteError::Fenced { granted }) => assert_eq!(granted, 2),
            other => panic!("expected Fenced, got {other:?}"),
        }
    }

    #[test]
    fn stale_token_write_is_fenced_not_applied_and_node_stays_alive() {
        let clock = SimClock::new();
        let (store, lease) = shared_node(8);
        let a = coordinator(&store, &lease, &clock);
        let b = coordinator(&store, &lease, &clock);
        let ttl = Duration::from_millis(1);
        a.try_acquire_lease(1, ttl).unwrap();
        a.try_write_block(3, &vec![0xAA; BLOCK_SIZE], false)
            .unwrap();
        clock.advance(Duration::from_secs(1));
        b.try_acquire_lease(2, ttl).unwrap();
        b.try_write_block(3, &vec![0xBB; BLOCK_SIZE], false)
            .unwrap();
        // A still stamps token 1: every mutating op is refused, the
        // store is untouched, and the node is NOT declared dead.
        let errs = [
            a.try_write_block(3, &vec![0xCC; BLOCK_SIZE], false)
                .unwrap_err(),
            a.try_write_blocks(&[(4, &[0xCC; BLOCK_SIZE][..])], false)
                .unwrap_err(),
            a.try_flush().unwrap_err(),
        ];
        for e in errs {
            assert!(matches!(e, RemoteError::Fenced { granted: 2 }), "{e}");
        }
        assert!(!a.is_dead());
        assert_eq!(a.stats().fenced, 3);
        assert_eq!(lease.fenced_rejections(), 3);
        assert_eq!(b.try_read_block(3, false).unwrap()[0], 0xBB);
        // Reads are not fenced: A may still serve while superseded.
        assert_eq!(a.try_read_block(3, false).unwrap()[0], 0xBB);
    }

    #[test]
    fn token_zero_is_legacy_mode_until_the_first_grant() {
        let clock = SimClock::new();
        let (store, lease) = shared_node(8);
        let bare = coordinator(&store, &lease, &clock);
        let leased = coordinator(&store, &lease, &clock);
        // Never-leased node: a bare (token 0) client writes freely.
        bare.try_write_block(1, &vec![0x11; BLOCK_SIZE], false)
            .unwrap();
        // The first grant fences the bare client out.
        leased.try_acquire_lease(7, Duration::from_secs(1)).unwrap();
        assert!(matches!(
            bare.try_write_block(1, &vec![0x22; BLOCK_SIZE], false),
            Err(RemoteError::Fenced { granted: 1 })
        ));
        assert_eq!(leased.try_read_block(1, false).unwrap()[0], 0x11);
    }

    /// Regression for the fault-duplication hole: a mutating frame
    /// duplicated by a `FaultPlan` and re-delivered *after* the lease
    /// changed hands must be rejected by its stale fence token — the
    /// exact bytes that were once accepted must now bounce. Without the
    /// server-side token check the replay would silently overwrite the
    /// new coordinator's data.
    #[test]
    fn duplicated_frame_replayed_after_lease_change_is_fenced() {
        let clock = SimClock::new();
        let (client_end, server_end) = Link::pair(&clock, LinkConfig::instant());
        let lease = Arc::new(NodeLease::default());
        let server_lease = Arc::clone(&lease);
        let server = std::thread::spawn(move || {
            BlockServer::with_lease(SimStore::untimed(8), server_lease).serve(&server_end);
        });
        let exchange = |frame: Vec<u8>| {
            client_end.send(frame).unwrap();
            let reply = client_end.recv().unwrap();
            let (_, op, body) = decode_frame(&reply).unwrap();
            (op, body.to_vec())
        };
        let acquire = |req_id: u64, coordinator: u64| {
            let mut body = Vec::new();
            body.extend_from_slice(&coordinator.to_le_bytes());
            body.extend_from_slice(&Duration::from_millis(1).as_nanos().to_le_bytes()[..8]);
            encode_frame(req_id, OP_ACQUIRE_LEASE, &body)
        };
        let write = |req_id: u64, token: u64, byte: u8| {
            let mut body = Vec::with_capacity(16 + BLOCK_SIZE);
            body.extend_from_slice(&token.to_le_bytes());
            body.extend_from_slice(&3u64.to_le_bytes());
            body.extend_from_slice(&[byte; BLOCK_SIZE]);
            encode_frame(req_id, OP_WRITE, &body)
        };
        // Coordinator 1 acquires token 1 and lands a write.
        let (op, body) = exchange(acquire(1, 1));
        assert_eq!(op, RESP_LEASE);
        assert_eq!(u64::from_le_bytes(body[..8].try_into().unwrap()), 1);
        let stale_frame = write(2, 1, 0xAA);
        assert_eq!(exchange(stale_frame.clone()).0, RESP_OK);
        // The lease changes hands; coordinator 2 writes its own data.
        clock.advance(Duration::from_secs(1));
        assert_eq!(exchange(acquire(3, 2)).0, RESP_LEASE);
        assert_eq!(exchange(write(4, 2, 0xBB)).0, RESP_OK);
        // The fault-duplicated replay of coordinator 1's frame — the
        // byte-identical message a `FaultPlan` dup would re-deliver —
        // bounces off the fence and the block keeps coordinator 2's
        // data.
        let (op, body) = exchange(stale_frame);
        assert_eq!(op, RESP_FENCED, "stale replay must be rejected");
        assert_eq!(u64::from_le_bytes(body[..8].try_into().unwrap()), 2);
        assert_eq!(lease.fenced_rejections(), 1);
        let (op, body) = exchange(encode_frame(5, OP_READ, &3u64.to_le_bytes()));
        assert_eq!(op, RESP_BLOCKS);
        assert_eq!(body[4], 0xBB, "the replay must not have been applied");
        let _ = exchange(encode_frame(6, OP_SHUTDOWN, &[]));
        server.join().ok();
    }
}
