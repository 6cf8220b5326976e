//! The server runs a fixed thread pool: connection count does not
//! change the process's thread count.
//!
//! This counts `/proc/self/task` for the whole process, so it lives in
//! its own test binary where no sibling test can start or end threads
//! while it counts.

use discfs::{CredentialIssuer, DiscfsClient, Perm, Testbed};
use discfs_crypto::ed25519::SigningKey;

fn connect_granted(bed: &Testbed, seed: u8) -> DiscfsClient {
    let holder = SigningKey::from_seed(&[seed; 32]);
    let client = bed.connect(&holder).expect("connect");
    let grant = CredentialIssuer::new(bed.admin())
        .holder(&holder.public())
        .grant_handle_string("1.1", Perm::RWX)
        .issue();
    client.submit_credential(&grant).expect("grant");
    client
}

/// The whole point of the engine: more connections, same threads.
#[cfg(target_os = "linux")]
#[test]
fn connection_count_does_not_grow_thread_count() {
    fn threads_now() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .count()
    }
    let bed = Testbed::instant();
    let clients: Vec<DiscfsClient> = (0..8).map(|i| connect_granted(&bed, 0x60 + i)).collect();
    let before = threads_now();
    let more: Vec<DiscfsClient> = (0..120)
        .map(|i| connect_granted(&bed, 0x60 + (i % 40) as u8))
        .collect();
    let after = threads_now();
    assert_eq!(
        before, after,
        "accepting 120 more connections must not spawn server threads"
    );
    assert_eq!(bed.engine().connections(), clients.len() + more.len());
    for client in clients.iter().chain(&more) {
        client.getattr(&client.remote().root()).expect("served");
    }
}
