//! The server and its volume, assembled from the crates' public
//! constructors (the same parts `discfs::Testbed` uses), so the
//! tracing wrappers can be slotted in between the layers:
//!
//! ```text
//! client: NfsClient > [TracedChannel] > ESP > [TracedLink] > 100 Mbps link
//! server: Engine > [TracedService] > DiscfsService > ffs
//!         > [TracedStore] > CachedStore(512) > [TracedStore] > ReplicatedStore(4 nodes, R=2)
//!         > RemoteStore (100 Mbps, default RemoteOptions) > [TracedStore] > SimStore (timed disk)
//! ```
//!
//! Bracketed layers exist only in the traced run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use discfs::{DiscfsClient, DiscfsConfig, DiscfsService, PolicyCharge};
use discfs_crypto::ed25519::{SigningKey, VerifyingKey};
use discfs_crypto::rng::DetRng;
use ffs::{Ffs, FsConfig};
use ipsec::SecureTransport;
use netsim::{Link, LinkConfig, SimClock};
use nfsv2::{Engine, EngineConfig, NfsService};
use store::{
    BlockStore, CachedStore, DiskModel, RemoteOptions, RemoteStore, ReplicatedStore, SimStore,
};

use crate::stats::{cpu_ns, Recorder};
use crate::trace::{
    Level, LinkCounters, StoreCounters, TracedChannel, TracedLink, TracedService, TracedStore,
    Tracer,
};

/// Block-cache capacity in 8 KB blocks (4 MB).
pub const CACHE_BLOCKS: usize = 512;
/// Policy-cache capacity: the paper's 128 entries.
pub const POLICY_CACHE: usize = 128;
pub const NODES: usize = 4;
pub const REPLICAS: usize = 2;

/// 64 MB volume, 1024 inodes.
pub fn fs_config() -> FsConfig {
    FsConfig {
        total_blocks: 8192,
        inode_count: 1024,
    }
}

/// One line describing the stack, printed with every result.
pub fn describe() -> String {
    let e = EngineConfig::default();
    let l = LinkConfig::ethernet_100mbps();
    let o = RemoteOptions::default();
    format!(
        "{{\"engine\": {{\"workers\": {}, \"queue_bound\": {}, \"batch\": {}}}, \
         \"policy_cache\": {POLICY_CACHE}, \
         \"client_link\": {{\"latency_us\": {}, \"bytes_per_s\": {}}}, \
         \"store\": \"cached({CACHE_BLOCKS} blocks) > replicated({NODES} nodes, R={REPLICAS}) > \
         remote(100 Mbps, timeout {} ms) > sim-timed(quantum_fireball_ct10)\", \
         \"volume_blocks\": {}, \"journal\": false}}",
        e.workers,
        e.queue_bound,
        e.batch,
        l.latency.as_micros(),
        l.bandwidth,
        o.timeout.as_millis(),
        fs_config().total_blocks,
    )
}

/// Wrapper counters, present in the traced run.
#[derive(Default)]
pub struct Probes {
    pub link: Arc<LinkCounters>,
    pub cached: Arc<StoreCounters>,
    pub replicated: Arc<StoreCounters>,
    pub node: Arc<StoreCounters>,
    pub service: Option<Arc<TracedService>>,
}

pub struct World {
    pub clock: SimClock,
    pub service: Arc<DiscfsService>,
    pub engine: Engine,
    pub fs: Arc<Ffs>,
    pub admin: SigningKey,
    server_public: VerifyingKey,
    /// The store the filesystem sits on (the block cache).
    pub top: Arc<dyn BlockStore>,
    pub replicated: Arc<ReplicatedStore>,
    pub tracer: Option<Arc<Tracer>>,
    pub probes: Probes,
    next_conn: AtomicU64,
}

impl World {
    pub fn build(tracer: Option<Arc<Tracer>>) -> Result<World, String> {
        let clock = SimClock::new();
        let cfg = fs_config();
        let mut probes = Probes::default();
        let link = LinkConfig::ethernet_100mbps();
        let node_bc = ReplicatedStore::node_block_count(cfg.total_blocks, NODES, REPLICAS);
        let nodes: Vec<RemoteStore> = (0..NODES)
            .map(|_| {
                let disk = SimStore::new(&clock, DiskModel::quantum_fireball_ct10(), node_bc);
                let opts = RemoteOptions::default();
                match &tracer {
                    Some(t) => RemoteStore::serve_local(
                        TracedStore::new(disk, t.clone(), Level::Node, probes.node.clone()),
                        &clock,
                        link,
                        opts,
                    ),
                    None => RemoteStore::serve_local(disk, &clock, link, opts),
                }
            })
            .collect();
        let replicated = Arc::new(ReplicatedStore::new(
            nodes,
            Vec::new(),
            cfg.total_blocks,
            REPLICAS,
        ));
        let top: Arc<dyn BlockStore> = match &tracer {
            Some(t) => {
                let below = TracedStore::new(
                    Arc::clone(&replicated),
                    t.clone(),
                    Level::Replicated,
                    probes.replicated.clone(),
                );
                Arc::new(TracedStore::new(
                    CachedStore::new(below, CACHE_BLOCKS),
                    t.clone(),
                    Level::Cached,
                    probes.cached.clone(),
                ))
            }
            None => Arc::new(CachedStore::new(Arc::clone(&replicated), CACHE_BLOCKS)),
        };
        let fs = Arc::new(
            Ffs::open_or_format(Arc::clone(&top), cfg)
                .map_err(|e| format!("format the volume: {e:?}"))?,
        );
        let admin = SigningKey::from_seed(&[0xAD; 32]);
        let server_key = SigningKey::from_seed(&[0x5E; 32]);
        let server_public = server_key.public();
        let mut config = DiscfsConfig::standard(admin.public(), server_key.clone());
        config.cache_size = POLICY_CACHE;
        let service = Arc::new(DiscfsService::new(Arc::clone(&fs), config));
        // The cost model `Testbed` charges: a policy-cache hit is a hash
        // lookup, a miss a signature-verified KeyNote query.
        service.set_policy_charge(PolicyCharge {
            clock: clock.clone(),
            cache_hit: Duration::from_micros(2),
            cache_miss: Duration::from_micros(200),
        });
        let served: Arc<dyn NfsService> = match &tracer {
            Some(t) => {
                let traced = Arc::new(TracedService::new(Arc::clone(&service), t.clone()));
                probes.service = Some(Arc::clone(&traced));
                traced
            }
            None => service.clone(),
        };
        let engine = Engine::start(served, server_key, EngineConfig::default());
        Ok(World {
            clock,
            service,
            engine,
            fs,
            admin,
            server_public,
            top,
            replicated,
            tracer,
            probes,
            next_conn: AtomicU64::new(1),
        })
    }

    /// Connects `identity`: IKE, MOUNT, then each credential in order.
    /// Records one attach sample (CPU time) when `sample` is set.
    pub fn attach(
        &self,
        identity: &SigningKey,
        creds: &[String],
        d: &mut Runner,
        sample: bool,
    ) -> Option<DiscfsClient> {
        let t0 = cpu_ns();
        let conn = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let (client_end, server_end) = Link::pair(&self.clock, LinkConfig::ethernet_100mbps());
        self.engine.accept(server_end);
        let mut rng = DetRng::new(0xC11E_0000 + conn);
        let server = Some(&self.server_public);
        let chan: Result<Box<dyn SecureTransport>, _> = match &self.tracer {
            Some(t) => {
                let _span = t.enter("ike.initiate");
                let link = TracedLink::new(client_end, t.clone(), self.probes.link.clone());
                ipsec::ike::initiate(link, identity, server, &mut rng).map(|c| {
                    Box::new(TracedChannel::new(
                        Box::new(c),
                        t.clone(),
                        identity.public(),
                    )) as Box<dyn SecureTransport>
                })
            }
            None => ipsec::ike::initiate(client_end, identity, server, &mut rng)
                .map(|c| Box::new(c) as Box<dyn SecureTransport>),
        };
        let chan = match chan {
            Ok(c) => c,
            Err(e) => {
                d.rec.fail(format!("IKE: {e}"));
                return None;
            }
        };
        d.rec.mounts += 1;
        let mount = self.tracer.as_ref().map(|t| t.enter("client.mount"));
        let client = DiscfsClient::attach_over(chan, identity.public(), "/");
        drop(mount);
        let client = match client {
            Ok(c) => c,
            Err(e) => {
                d.rec.fail(format!("mount: {e}"));
                return None;
            }
        };
        for cred in creds {
            d.op(Kind::Submit, 0, || client.submit_credential(cred))?;
        }
        if sample {
            d.rec.attach_ns.push(cpu_ns() - t0);
        }
        Some(client)
    }

    /// Syncs the server volume (the update daemon's job); the time
    /// counts as write time.
    pub fn sync(&self, d: &mut Runner) {
        let _span = self.tracer.as_ref().map(|t| t.enter("server.sync"));
        let (t0, w0) = (cpu_ns(), Instant::now());
        let res = self.fs.sync();
        let wall = w0.elapsed().as_nanos() as u64;
        d.rec.push(Kind::Sync, cpu_ns() - t0, wall, 0);
        if let Err(e) = res {
            d.rec.fail(format!("sync: {e}"));
        }
    }

    /// Counters the phase report takes deltas of.
    pub fn snapshot(&self) -> Snapshot {
        let engine = self.engine.stats();
        let auth = self.service.auth_stats();
        let cache = self.service.cache().stats();
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let below = self.replicated.stats();
        Snapshot {
            at: Instant::now(),
            virtual_ns: self.clock.now().as_nanos() as u64,
            requests: load(&engine.requests_served),
            batches: load(&engine.batches_sent),
            pauses: load(&engine.pauses),
            decisions: auth.decisions(),
            exclusive: auth.exclusive(),
            policy_hits: cache.hits(),
            policy_misses: cache.misses(),
            // The cache's own counters: its stats view minus the view
            // of the store below it.
            block_hits: self.top.stats().cache_hits - below.cache_hits,
            block_misses: self.top.stats().cache_misses - below.cache_misses,
            backoff_retries: below.backoff_retries,
            service_calls: self.probes.service.as_ref().map_or(0, |s| load(&s.calls)),
            link_msgs: load(&self.probes.link.msgs),
            link_bytes: load(&self.probes.link.bytes),
            cached_reads: load(&self.probes.cached.reads),
            cached_writes: load(&self.probes.cached.writes),
            repl_reads: load(&self.probes.replicated.reads),
            node_writes: load(&self.probes.node.writes),
        }
    }
}

/// Cumulative counters at one instant.
#[derive(Clone, Copy)]
pub struct Snapshot {
    pub at: Instant,
    pub virtual_ns: u64,
    pub requests: u64,
    pub batches: u64,
    pub pauses: u64,
    pub decisions: u64,
    pub exclusive: u64,
    pub policy_hits: u64,
    pub policy_misses: u64,
    pub block_hits: u64,
    pub block_misses: u64,
    pub backoff_retries: u64,
    pub service_calls: u64,
    pub link_msgs: u64,
    pub link_bytes: u64,
    pub cached_reads: u64,
    pub cached_writes: u64,
    pub repl_reads: u64,
    pub node_writes: u64,
}

impl Snapshot {
    /// `later - self`, field by field (`at` becomes the later instant).
    pub fn delta(&self, later: &Snapshot) -> Snapshot {
        Snapshot {
            at: later.at,
            virtual_ns: later.virtual_ns - self.virtual_ns,
            requests: later.requests - self.requests,
            batches: later.batches - self.batches,
            pauses: later.pauses - self.pauses,
            decisions: later.decisions - self.decisions,
            exclusive: later.exclusive - self.exclusive,
            policy_hits: later.policy_hits - self.policy_hits,
            policy_misses: later.policy_misses - self.policy_misses,
            block_hits: later.block_hits - self.block_hits,
            block_misses: later.block_misses - self.block_misses,
            backoff_retries: later.backoff_retries - self.backoff_retries,
            service_calls: later.service_calls - self.service_calls,
            link_msgs: later.link_msgs - self.link_msgs,
            link_bytes: later.link_bytes - self.link_bytes,
            cached_reads: later.cached_reads - self.cached_reads,
            cached_writes: later.cached_writes - self.cached_writes,
            repl_reads: later.repl_reads - self.repl_reads,
            node_writes: later.node_writes - self.node_writes,
        }
    }
}

/// The client-visible operations the workloads issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
    Getattr,
    Lookup,
    Create,
    CreateCred,
    Remove,
    Submit,
    Revoke,
    /// A server-side sync (not an RPC); its time counts as write time.
    Sync,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Read => "client.read",
            Kind::Write => "client.write",
            Kind::Getattr => "client.getattr",
            Kind::Lookup => "client.lookup",
            Kind::Create => "client.create",
            Kind::CreateCred => "client.create_cred",
            Kind::Remove => "client.remove",
            Kind::Submit => "client.submit",
            Kind::Revoke => "client.revoke",
            Kind::Sync => "server.sync",
        }
    }

    /// File operations carry the op latency figures; credential calls
    /// belong to attach and revocation.
    pub fn is_file_op(self) -> bool {
        !matches!(self, Kind::Submit | Kind::Revoke | Kind::Sync)
    }
}

/// One client thread's view: the world plus its recorder.
pub struct Runner<'w> {
    pub world: &'w World,
    pub rec: Recorder,
}

impl<'w> Runner<'w> {
    /// A runner whose operation times count from `origin` (a
    /// `cpu_ns()`).
    pub fn new(world: &'w World, origin: u64) -> Runner<'w> {
        Runner {
            world,
            rec: Recorder::new(origin),
        }
    }

    /// Times (in CPU time) one client call of `kind` moving `bytes` of
    /// file data.
    /// An error counts as a failed operation.
    pub fn op<T, E: std::fmt::Display>(
        &mut self,
        kind: Kind,
        bytes: u64,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        match self.call(kind, bytes, f) {
            Ok(v) => Some(v),
            Err(e) => {
                self.rec.fail(format!("{kind:?}: {e}"));
                None
            }
        }
    }

    /// As [`Runner::op`], handing the error back to the caller (for
    /// calls that are expected to be refused).
    pub fn call<T, E>(
        &mut self,
        kind: Kind,
        bytes: u64,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let span = self.world.tracer.as_ref().map(|t| t.enter(kind.span()));
        let (t0, w0) = (cpu_ns(), Instant::now());
        let out = f();
        let ns = cpu_ns() - t0;
        let wall = w0.elapsed().as_nanos() as u64;
        drop(span);
        self.rec.rpcs += 1;
        if kind.is_file_op() {
            self.rec
                .push(kind, ns, wall, if out.is_ok() { bytes } else { 0 });
        }
        out
    }

    /// Checks read data against the model and folds it into the digest.
    pub fn verify(&mut self, what: &str, got: &[u8], want: &[u8]) {
        self.rec.digest(got);
        if got != want {
            self.rec.wrong(format!(
                "{what}: read {} bytes differing from the model",
                got.len()
            ));
        }
    }
}
