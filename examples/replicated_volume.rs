//! Distributed volume tour: a 4-node replicated block volume that
//! survives a node death, then the same tier carrying a full DisCFS
//! workload through a `Layer::Replicated` stack.
//!
//! Part one drives the block layer directly: write through a 4-node
//! R=2 volume with a hot spare, kill a node mid-read, and watch the
//! reads fail over to the surviving replicas while the spare is
//! rebuilt to full strength. Part two walks a coordinator handoff:
//! A owns the volume under a server-side lease, falls silent, B takes
//! over at expiry, A's zombie writes bounce off the fence, and the
//! fenced A re-acquires and rejoins. Part three mounts DisCFS on top
//! of the same tier (journaled files per node) and reports the
//! wire-level counters the RPC clients collect.
//!
//! Run with `cargo run --release --example replicated_volume`.

use std::sync::Arc;
use std::time::Duration;

use discfs::{CredentialIssuer, Perm, Testbed};
use discfs_crypto::ed25519::SigningKey;
use ffs::FsConfig;
use netsim::{LinkConfig, SimClock};
use store::{
    Base, BlockStore, Layer, NodeLease, RemoteError, RemoteOptions, RemoteStore, ReplicatedStore,
    SimStore, StoreBackend, BLOCK_SIZE,
};

const NODES: usize = 4;
const REPLICAS: usize = 2;
const BLOCKS: u64 = 64;

/// One storage node: an in-memory store served over a simulated
/// 100 Mbps Ethernet link by a `BlockServer` thread.
fn node(clock: &SimClock, blocks: u64) -> RemoteStore {
    RemoteStore::serve_local(
        SimStore::untimed(blocks),
        clock,
        LinkConfig::ethernet_100mbps(),
        RemoteOptions::default(),
    )
}

fn block_layer_tour() {
    println!("-- block layer: 4 nodes, R=2, one hot spare --");
    let clock = SimClock::new();
    let node_bc = ReplicatedStore::node_block_count(BLOCKS, NODES, REPLICAS);
    let store = ReplicatedStore::new(
        (0..NODES).map(|_| node(&clock, node_bc)).collect(),
        vec![node(&clock, node_bc)],
        BLOCKS,
        REPLICAS,
    );

    let payload = |i: u64| {
        let mut b = vec![0u8; BLOCK_SIZE];
        b[..8].copy_from_slice(&i.to_le_bytes());
        b
    };
    for i in 0..BLOCKS {
        store.write_block(i, &payload(i));
    }
    store.flush().expect("commit epoch 1");
    println!(
        "  wrote {BLOCKS} blocks, committed epoch {} across {} nodes",
        store.epoch(),
        store.live_nodes()
    );

    store.kill_node(2);
    println!("  killed node 2; reading the whole volume back ...");
    let mut failed = 0;
    for i in 0..BLOCKS {
        if store.read_block(i) != payload(i) {
            failed += 1;
        }
    }
    let stats = store.stats();
    println!(
        "  {failed} failed reads; {} served by a non-primary replica; \
         {} rebuild(s) onto the spare; back to {} live nodes",
        stats.replica_reads,
        stats.rebuilds,
        store.live_nodes()
    );
    assert_eq!(failed, 0, "a single node death must not fail any read");
    assert_eq!(store.live_nodes(), NODES);
}

/// Part three: coordinator handoff under lease fencing. Coordinator A
/// owns the volume, falls silent, and B takes over once A's lease
/// expires — while A's zombie writes bounce off the server-side fence
/// and clients keep reading throughout.
fn coordinator_handoff_tour() {
    println!("\n-- coordinator handoff: leases, fencing, zero lost reads --");
    let clock = SimClock::new();
    let node_bc = ReplicatedStore::node_block_count(BLOCKS, NODES, REPLICAS);
    // The nodes outlive any coordinator: each is a store plus a lease
    // table, and every coordinator brings its own connections.
    let backing: Vec<(Arc<SimStore>, Arc<NodeLease>)> = (0..NODES)
        .map(|_| {
            (
                Arc::new(SimStore::untimed(node_bc)),
                Arc::new(NodeLease::default()),
            )
        })
        .collect();
    let connect = |()| -> Vec<RemoteStore> {
        backing
            .iter()
            .map(|(node, lease)| {
                RemoteStore::serve_shared(
                    Arc::clone(node) as Arc<dyn BlockStore>,
                    Arc::clone(lease),
                    &clock,
                    LinkConfig::ethernet_100mbps(),
                    RemoteOptions::default(),
                    None,
                )
            })
            .collect()
    };
    let payload = |i: u64, tag: u8| {
        let mut b = vec![tag; BLOCK_SIZE];
        b[..8].copy_from_slice(&i.to_le_bytes());
        b
    };

    // Coordinator A acquires the lease and commits a workload.
    let ttl = Duration::from_secs(30);
    let store_a = ReplicatedStore::new(connect(()), Vec::new(), BLOCKS, REPLICAS);
    store_a
        .try_acquire_lease(1, ttl)
        .expect("A leases the volume");
    for i in 0..BLOCKS {
        store_a.write_block(i, &payload(i, 0xA1));
    }
    store_a.flush().expect("A commits");
    println!("  A holds the lease, committed epoch {}", store_a.epoch());

    // B cannot steal the lease while A's is unexpired.
    let store_b = ReplicatedStore::new(connect(()), Vec::new(), BLOCKS, REPLICAS);
    match store_b.try_acquire_lease(2, ttl) {
        Err(RemoteError::LeaseHeld { holder, .. }) => {
            println!("  B's takeover refused: lease held by coordinator {holder}");
        }
        other => panic!("expected LeaseHeld, got {other:?}"),
    }

    // A falls silent; its lease expires on the virtual clock, B
    // acquires, and B's mount adopts A's committed history.
    clock.advance(ttl + Duration::from_secs(1));
    store_b.try_acquire_lease(2, ttl).expect("B takes over");
    println!(
        "  A silent for {ttl:?}: B holds the lease at epoch {}",
        store_b.epoch()
    );
    store_b.write_block(0, &payload(0, 0xB2));
    store_b.flush().expect("B commits");

    // A comes back as a zombie: every straggler write is fenced at
    // the nodes, nothing lands, and A latches read-only.
    store_a.write_block(1, &payload(1, 0xEE));
    let fenced = store_a.flush();
    assert!(fenced.is_err(), "A's straggler must be fenced");
    assert!(store_a.is_fenced());
    println!(
        "  A's straggler flush: \"{}\" ({} frames refused at the nodes)",
        fenced.unwrap_err(),
        backing
            .iter()
            .map(|(_, lease)| lease.fenced_rejections())
            .sum::<u64>()
    );

    // Clients kept reading throughout — B serves every block, with
    // A's fenced junk nowhere to be seen.
    let mut failed = 0;
    for i in 0..BLOCKS {
        let expect = if i == 0 {
            payload(0, 0xB2)
        } else {
            payload(i, 0xA1)
        };
        if store_b.read_block(i) != expect {
            failed += 1;
        }
    }
    assert_eq!(failed, 0, "handoff must not lose or corrupt a block");
    println!(
        "  0 failed reads across the handoff, epoch {}",
        store_b.epoch()
    );

    // The fenced A can rejoin properly: wait out B's lease, then
    // re-acquire under its remembered terms and re-sync in one step.
    clock.advance(ttl + Duration::from_secs(1));
    store_a.reacquire().expect("A re-leases and re-syncs");
    assert!(!store_a.is_fenced());
    store_a.write_block(2, &payload(2, 0xA3));
    store_a.flush().expect("A writes under its fresh lease");
    println!(
        "  A re-acquired and resumed writing at epoch {}",
        store_a.epoch()
    );
}

fn discfs_on_replicated_tour(dir: &std::path::Path) {
    println!("\n-- DisCFS on a Layer::Replicated stack (journaled file per node) --");
    let backend = StoreBackend {
        base: Base::File {
            dir: dir.to_path_buf(),
        },
        layers: vec![Layer::Replicated {
            nodes: 4,
            replicas: 2,
            spares: 1,
            ethernet: true,
            opts: RemoteOptions::default(),
        }],
    };
    let bed = Testbed::with_backend(FsConfig::small(), LinkConfig::instant(), 128, &backend);
    let bob = SigningKey::from_seed(&[0xB0; 32]);
    let mut client = bed.connect(&bob).expect("connect");
    let grant = CredentialIssuer::new(bed.admin())
        .holder(&bob.public())
        .grant_handle_string("1.1", Perm::RWX)
        .issue();
    client.submit_credential(&grant).expect("grant");

    let payload = vec![0x42u8; 2 * BLOCK_SIZE];
    let root = client.remote().root();
    for i in 0..4 {
        let created = client
            .create_with_credential(&root, &format!("report-{i}.dat"), 0o644)
            .expect("create");
        client
            .client()
            .write_all(&created.fh, 0, &payload)
            .expect("write");
    }
    bed.fs().sync().expect("flush to the volume");
    bed.fs().check().expect("volume consistent");

    let stats = bed.store_stats();
    println!(
        "  backend `{}`: {} RPC round-trips, {} bytes on wire, {} block writes, {} retries",
        backend.label(),
        stats.rpc_calls,
        stats.bytes_on_wire,
        stats.writes,
        stats.retries,
    );
}

fn main() {
    block_layer_tour();
    coordinator_handoff_tour();
    let dir = std::env::temp_dir().join(format!("discfs-example-repl-{}", std::process::id()));
    discfs_on_replicated_tour(&dir);
    std::fs::remove_dir_all(&dir).ok();
    println!(
        "\nA node can die mid-workload, a coordinator can die mid-ownership — \
         the volume keeps serving every read either way."
    );
}
