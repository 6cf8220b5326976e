//! The three closed-loop workloads. Each builds its inputs from the
//! seed in `setup` (timed as set-up) and then runs on one client
//! thread, one request outstanding, until the measured (wall-clock)
//! time is up, finishing the pass or session in progress.

use std::time::Instant;

use discfs::{CredentialIssuer, DiscfsClient, DiscfsClientError, Perm};
use discfs_crypto::ed25519::SigningKey;
use nfsv2::{ClientError, FHandle, NfsStat, Sattr};
use store::BLOCK_SIZE;

use crate::stats::{content, cpu_ns, derive, Recorder, Rng, Zipf};
use crate::world::{Kind, Runner, World, CACHE_BLOCKS};

pub trait Workload: Sized {
    /// Builds the workload's files and credentials on a fresh world.
    fn setup(world: &World, seed: u64) -> Result<Self, String>;

    /// Runs the closed loop for `seconds` of wall time on one client
    /// thread.
    fn run(&mut self, world: &World, seconds: f64) -> Recorder;
}

/// A signing key derived from the seed and two labels.
fn key(seed: u64, a: u64, b: u64) -> SigningKey {
    let mut r = Rng::new(derive(seed, a, b));
    let mut bytes = [0u8; 32];
    for chunk in bytes.chunks_mut(8) {
        chunk.copy_from_slice(&r.next_u64().to_le_bytes());
    }
    SigningKey::from_seed(&bytes)
}

/// Signs a credential inside a `cred.issue` span.
fn sign(world: &World, build: impl FnOnce() -> String) -> String {
    let _span = world.tracer.as_ref().map(|t| t.enter("cred.issue"));
    build()
}

/// Turns set-up errors into one message.
fn setup_result<T>(d: Runner, value: Option<T>, what: &str) -> Result<T, String> {
    match value {
        Some(v) if d.rec.failed == 0 && d.rec.problems.is_empty() => Ok(v),
        _ => Err(format!(
            "{what} set-up failed: {:?} {:?}",
            d.rec.errors, d.rec.problems
        )),
    }
}

fn mkdir(d: &mut Runner, client: &DiscfsClient, name: &str) -> Option<FHandle> {
    let root = client.remote().root();
    let nfs = client.client();
    d.op(Kind::Create, 0, || {
        nfs.mkdir(&root, name, &Sattr::with_mode(0o755))
    })
    .map(|(fh, _)| fh)
}

fn elapsed_s(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

const BLOCK: usize = BLOCK_SIZE;

// ---------------------------------------------------------------------
// bulk_seq: the paper's Figures 8 and 11 (Bonnie block write/read).

/// Sequential reads of the whole file per pass. Writes land in the
/// block cache and cost about half a READ that misses it; with one read
/// per write the median operation would sit in the gap between the two
/// and jump between them from run to run. Reading twice (every read
/// still misses: the file is four times the cache) puts the median
/// inside the reads.
const READS_PER_PASS: usize = 2;

/// One user writes a file four times the block cache (plus a seeded
/// 0–15 blocks) in 8 KB WRITEs, syncs, re-opens it, reads it back twice
/// in 8 KB READs against the model, and removes it. Each pass is one
/// session with its own attach.
pub struct BulkSeq {
    seed: u64,
    user: SigningKey,
    grant: String,
    dir: FHandle,
    blocks: u64,
}

impl BulkSeq {
    fn pass(&self, world: &World, d: &mut Runner, pass: u64) {
        let creds = std::slice::from_ref(&self.grant);
        let Some(mut client) = world.attach(&self.user, creds, d, true) else {
            return;
        };
        let name = format!("bulk{pass}");
        let Some(created) = d.op(Kind::CreateCred, 0, || {
            client.create_with_credential(&self.dir, &name, 0o644)
        }) else {
            return;
        };
        let fh = created.fh;
        let nfs = client.client();
        for b in 0..self.blocks {
            let data = content(self.seed, pass, 0, b, BLOCK);
            let off = (b * BLOCK as u64) as u32;
            d.op(Kind::Write, BLOCK as u64, || nfs.write(&fh, off, &data));
        }
        world.sync(d);
        let size = self.blocks * BLOCK as u64;
        if let Some((found, attr)) = d.op(Kind::Lookup, 0, || nfs.lookup(&self.dir, &name)) {
            if found != fh || u64::from(attr.size) != size {
                d.rec
                    .wrong(format!("bulk lookup: size {} want {size}", attr.size));
            }
        }
        if let Some(attr) = d.op(Kind::Getattr, 0, || nfs.getattr(&fh)) {
            if u64::from(attr.size) != size {
                d.rec
                    .wrong(format!("bulk getattr: size {} want {size}", attr.size));
            }
        }
        for _ in 0..READS_PER_PASS {
            for b in 0..self.blocks {
                let off = (b * BLOCK as u64) as u32;
                if let Some((_, got)) = d.op(Kind::Read, BLOCK as u64, || {
                    nfs.read(&fh, off, BLOCK as u32)
                }) {
                    let want = content(self.seed, pass, 0, b, BLOCK);
                    d.verify("bulk read", &got, &want);
                }
            }
        }
        d.op(Kind::Remove, 0, || nfs.remove(&self.dir, &name));
    }
}

impl Workload for BulkSeq {
    fn setup(world: &World, seed: u64) -> Result<Self, String> {
        let mut d = Runner::new(world, cpu_ns());
        let admin = world.attach(&world.admin, &[], &mut d, false);
        let dir = admin.as_ref().and_then(|a| mkdir(&mut d, a, "bulk"));
        drop(admin);
        let dir = setup_result(d, dir, "bulk_seq")?;
        let user = key(seed, 1, 0);
        let grant = sign(world, || {
            CredentialIssuer::new(&world.admin)
                .holder(&user.public())
                .grant(&dir, Perm::RWX)
                .issue()
        });
        let blocks = 4 * CACHE_BLOCKS as u64 + Rng::new(derive(seed, 2, 0)).below(16);
        Ok(BulkSeq {
            seed,
            user,
            grant,
            dir,
            blocks,
        })
    }

    fn run(&mut self, world: &World, seconds: f64) -> Recorder {
        let start = Instant::now();
        let mut d = Runner::new(world, cpu_ns());
        let mut pass = 0;
        while pass == 0 || elapsed_s(start) < seconds {
            let v0 = world.clock.now();
            let ops0 = d.rec.file_ops();
            let t0 = cpu_ns();
            self.pass(world, &mut d, pass);
            d.rec.session_ns.push(cpu_ns() - t0);
            let end = d.rec.now_ns();
            d.rec.marks.push(end);
            if pass == 0 {
                d.rec
                    .end_prefix(world.clock.now() - v0, d.rec.file_ops() - ops0);
            }
            pass += 1;
        }
        d.rec
    }
}

// ---------------------------------------------------------------------
// shared_small: the paper's Figure 12 search and multi-user sharing.

const USERS: usize = 2;
const OWN_FILES: usize = 112;
const SHARED_FILES: usize = 16;
const SMALL: usize = 4096;
/// Operations per user per session.
const OPS_PER_SESSION: usize = 2000;
const SYNC_EVERY: u64 = 1024;
const ZIPF_S: f64 = 0.6;
/// Sessions in the fixed prefix `virtual_us_per_op` is taken over.
const SMALL_PREFIX_SESSIONS: u64 = 2;

struct FileRef {
    dir: FHandle,
    name: String,
    fh: FHandle,
    /// Content id in the seeded model.
    id: u64,
    own: bool,
}

struct User {
    key: SigningKey,
    /// Own-directory grant, the shared chain, and the delegation.
    creds: Vec<String>,
    /// Own and shared files, most popular first.
    files: Vec<FileRef>,
    /// Indexes into `files` of the user's own files, most popular first.
    own: Vec<usize>,
}

/// Two users, each owning a directory of 4 KB files and both reading a
/// directory a third user shares with them through a chain of creator
/// credentials. Each session attaches both users (two connections),
/// runs 2000 Zipf-popular operations per user (60% READ, 15% GETATTR,
/// 15% LOOKUP, 10% overwrite of an own file) alternating between the two
/// users op by op, and disconnects both; the server syncs every 1024
/// writes. One thread drives both connections, so the server sees the
/// two users' requests interleaved — their combined working set is
/// what the policy cache holds — with one request outstanding.
pub struct SharedSmall {
    seed: u64,
    users: Vec<User>,
    /// Overwrites so far (the sync schedule).
    writes: u64,
}

impl SharedSmall {
    fn session(&mut self, world: &World, d: &mut Runner, states: &mut [UserState]) {
        let mut clients = Vec::with_capacity(USERS);
        for user in &self.users {
            match world.attach(&user.key, &user.creds, d, true) {
                Some(c) => clients.push(c),
                None => return,
            }
        }
        for i in 0..OPS_PER_SESSION * USERS {
            let u = i % USERS;
            self.op(world, d, u, &clients[u], &mut states[u]);
        }
    }

    /// One operation of user `u` on its connection.
    fn op(
        &mut self,
        world: &World,
        d: &mut Runner,
        u: usize,
        client: &DiscfsClient,
        st: &mut UserState,
    ) {
        let user = &self.users[u];
        let nfs = client.client();
        let roll = st.rng.below(100);
        if roll >= 90 {
            let idx = user.own[st.own_zipf.sample(&mut st.rng)];
            let f = &user.files[idx];
            let data = content(self.seed, f.id, st.versions[idx] + 1, 0, SMALL);
            if d.op(Kind::Write, SMALL as u64, || nfs.write(&f.fh, 0, &data))
                .is_some()
            {
                st.versions[idx] += 1;
            }
            self.writes += 1;
            if self.writes.is_multiple_of(SYNC_EVERY) {
                world.sync(d);
            }
            return;
        }
        let idx = st.zipf.sample(&mut st.rng);
        let f = &user.files[idx];
        if roll < 60 {
            if let Some((_, got)) = d.op(Kind::Read, SMALL as u64, || {
                nfs.read(&f.fh, 0, SMALL as u32)
            }) {
                let want = content(self.seed, f.id, st.versions[idx], 0, SMALL);
                d.verify("small read", &got, &want);
            }
        } else if roll < 75 {
            if let Some(attr) = d.op(Kind::Getattr, 0, || nfs.getattr(&f.fh)) {
                if attr.size as usize != SMALL {
                    d.rec
                        .wrong(format!("getattr {}: size {}", f.name, attr.size));
                }
            }
        } else if let Some((fh, _)) = d.op(Kind::Lookup, 0, || nfs.lookup(&f.dir, &f.name)) {
            if fh != f.fh {
                d.rec.wrong(format!("lookup {}: wrong handle", f.name));
            }
        }
    }
}

struct UserState {
    rng: Rng,
    zipf: Zipf,
    own_zipf: Zipf,
    versions: Vec<u64>,
}

impl Workload for SharedSmall {
    fn setup(world: &World, seed: u64) -> Result<Self, String> {
        let mut d = Runner::new(world, cpu_ns());
        // The administrator lays out both home directories and the
        // shared directory with plain NFS calls.
        let admin = world.attach(&world.admin, &[], &mut d, false);
        let mut homes = Vec::new();
        let mut own_files: Vec<Vec<FileRef>> = Vec::new();
        let mut shared_dir = None;
        if let Some(a) = &admin {
            let nfs = a.client();
            for u in 0..USERS {
                let Some(home) = mkdir(&mut d, a, &format!("home{u}")) else {
                    break;
                };
                let mut files = Vec::new();
                for i in 0..OWN_FILES {
                    let name = format!("f{i}");
                    let id = ((u as u64 + 1) << 20) | i as u64;
                    let mode = Sattr::with_mode(0o644);
                    let Some((fh, _)) = d.op(Kind::Create, 0, || nfs.create(&home, &name, &mode))
                    else {
                        break;
                    };
                    let data = content(seed, id, 0, 0, SMALL);
                    d.op(Kind::Write, SMALL as u64, || nfs.write(&fh, 0, &data));
                    files.push(FileRef {
                        dir: home,
                        name,
                        fh,
                        id,
                        own: true,
                    });
                }
                homes.push(home);
                own_files.push(files);
            }
            shared_dir = mkdir(&mut d, a, "shared");
        }
        drop(admin);
        // The third user creates the shared files and keeps the creator
        // credentials the server returns.
        let owner = key(seed, 3, 0);
        let mut shared = Vec::new();
        let mut chain = Vec::new();
        if let Some(dir) = shared_dir {
            let grant = sign(world, || {
                CredentialIssuer::new(&world.admin)
                    .holder(&owner.public())
                    .grant(&dir, Perm::RWX)
                    .issue()
            });
            if let Some(mut c) = world.attach(&owner, std::slice::from_ref(&grant), &mut d, false) {
                chain.push(grant);
                for j in 0..SHARED_FILES {
                    let name = format!("s{j}");
                    let id = 0xFF << 20 | j as u64;
                    let Some(res) = d.op(Kind::CreateCred, 0, || {
                        c.create_with_credential(&dir, &name, 0o644)
                    }) else {
                        break;
                    };
                    let data = content(seed, id, 0, 0, SMALL);
                    let nfs = c.client();
                    d.op(Kind::Write, SMALL as u64, || nfs.write(&res.fh, 0, &data));
                    chain.push(res.credential);
                    shared.push(FileRef {
                        dir,
                        name,
                        fh: res.fh,
                        id,
                        own: false,
                    });
                }
            }
        }
        let ok = homes.len() == USERS && shared.len() == SHARED_FILES;
        let shared_dir = setup_result(d, shared_dir.filter(|_| ok), "shared_small")?;
        let mut users = Vec::new();
        for (u, own) in own_files.into_iter().enumerate() {
            let user = key(seed, 4, u as u64);
            let own_grant = sign(world, || {
                own.iter()
                    .fold(
                        CredentialIssuer::new(&world.admin)
                            .holder(&user.public())
                            .grant(&homes[u], Perm::RWX),
                        |c, f| c.grant(&f.fh, Perm::RW),
                    )
                    .issue()
            });
            let delegation = sign(world, || {
                shared
                    .iter()
                    .fold(
                        CredentialIssuer::new(&owner)
                            .holder(&user.public())
                            .grant(&shared_dir, Perm::RX),
                        |c, f| c.grant(&f.fh, Perm::R),
                    )
                    .issue()
            });
            let mut creds = vec![own_grant];
            creds.extend(chain.iter().cloned());
            creds.push(delegation);
            let mut files: Vec<FileRef> = own;
            files.extend(shared.iter().map(|f| FileRef {
                dir: f.dir,
                name: f.name.clone(),
                fh: f.fh,
                id: f.id,
                own: false,
            }));
            Rng::new(derive(seed, 5, u as u64)).shuffle(&mut files);
            let own_idx = (0..files.len()).filter(|&i| files[i].own).collect();
            users.push(User {
                key: user,
                creds,
                files,
                own: own_idx,
            });
        }
        Ok(SharedSmall {
            seed,
            users,
            writes: 0,
        })
    }

    fn run(&mut self, world: &World, seconds: f64) -> Recorder {
        let start = Instant::now();
        let mut d = Runner::new(world, cpu_ns());
        let mut states: Vec<UserState> = self
            .users
            .iter()
            .enumerate()
            .map(|(u, user)| UserState {
                rng: Rng::new(derive(self.seed, 6, u as u64)),
                zipf: Zipf::new(user.files.len(), ZIPF_S),
                own_zipf: Zipf::new(user.own.len(), ZIPF_S),
                versions: vec![0; user.files.len()],
            })
            .collect();
        let v0 = world.clock.now();
        let mut sessions = 0;
        while sessions < SMALL_PREFIX_SESSIONS || elapsed_s(start) < seconds {
            let t0 = cpu_ns();
            let failed = d.rec.failed;
            self.session(world, &mut d, &mut states);
            d.rec.session_ns.push(cpu_ns() - t0);
            sessions += 1;
            if sessions == SMALL_PREFIX_SESSIONS {
                d.rec.end_prefix(world.clock.now() - v0, d.rec.file_ops());
            }
            if d.rec.failed > failed + OPS_PER_SESSION as u64 {
                break; // the server is not answering
            }
        }
        d.rec
    }
}

// ---------------------------------------------------------------------
// attach_churn: the §2 sharing flow.

const DOCS: usize = 4;
/// Shared documents are 7–8 KB, sized from the seed (one READ each).
const DOC_MIN: usize = 7168;
/// The private file: 32 KB, written and read in 8 KB calls.
const PRIVATE_BLOCKS: usize = 4;
const REVOKE_EVERY: u64 = 4;
/// The server syncs after this many sessions (the update daemon).
const SYNC_SESSIONS: u64 = 64;
/// Sessions in the fixed prefix `virtual_us_per_op` is taken over.
const PREFIX_SESSIONS: u64 = 16;

/// Collaborators arrive one after another. The owner delegates to
/// each; the newcomer attaches, submits the chain, reads the shared
/// documents, creates/writes/stats/reads/removes one 32 KB private file,
/// and leaves; the server syncs every 64 sessions. After every fourth
/// session the administrator revokes that session's key, which must
/// then be refused on its next attach.
pub struct AttachChurn {
    seed: u64,
    /// The administrator's connection (revocations).
    admin: Option<DiscfsClient>,
    owner: SigningKey,
    /// The owner's grant and creator credentials.
    chain: Vec<String>,
    dir: FHandle,
    /// Name, handle, content id and size of each shared document.
    docs: Vec<(String, FHandle, u64, usize)>,
    drop_dir: FHandle,
}

impl AttachChurn {
    fn session(&self, world: &World, d: &mut Runner, who: &SigningKey, creds: &[String], i: u64) {
        let Some(mut client) = world.attach(who, creds, d, true) else {
            return;
        };
        let nfs = client.client();
        for (name, fh, id, size) in &self.docs {
            if let Some((found, _)) = d.op(Kind::Lookup, 0, || nfs.lookup(&self.dir, name)) {
                if found != *fh {
                    d.rec.wrong(format!("lookup {name}: wrong handle"));
                }
            }
            if let Some((_, got)) = d.op(Kind::Read, *size as u64, || nfs.read(fh, 0, *size as u32))
            {
                d.verify("document read", &got, &content(self.seed, *id, 0, 0, *size));
            }
        }
        let name = format!("p{i}");
        let Some(created) = d.op(Kind::CreateCred, 0, || {
            client.create_with_credential(&self.drop_dir, &name, 0o600)
        }) else {
            return;
        };
        let nfs = client.client();
        let chunk = |b: usize| content(self.seed, 0x2000_0000 + i, 0, b as u64, BLOCK);
        for b in 0..PRIVATE_BLOCKS {
            let data = chunk(b);
            d.op(Kind::Write, BLOCK as u64, || {
                nfs.write(&created.fh, (b * BLOCK) as u32, &data)
            });
        }
        if let Some(attr) = d.op(Kind::Getattr, 0, || nfs.getattr(&created.fh)) {
            if attr.size as usize != PRIVATE_BLOCKS * BLOCK {
                d.rec.wrong(format!("getattr {name}: size {}", attr.size));
            }
        }
        for b in 0..PRIVATE_BLOCKS {
            if let Some((_, got)) = d.op(Kind::Read, BLOCK as u64, || {
                nfs.read(&created.fh, (b * BLOCK) as u32, BLOCK as u32)
            }) {
                d.verify("private read", &got, &chunk(b));
            }
        }
        d.op(Kind::Remove, 0, || nfs.remove(&self.drop_dir, &name));
    }

    /// Revokes `who` and checks that its very next access is refused.
    fn revoke_and_check(&self, world: &World, d: &mut Runner, who: &SigningKey, creds: &[String]) {
        let Some(admin) = &self.admin else { return };
        if d.op(Kind::Revoke, 0, || admin.revoke_key(&who.public()))
            .is_none()
        {
            return;
        }
        let Some(client) = world.attach(who, &[], d, false) else {
            return;
        };
        for cred in creds {
            match d.call(Kind::Submit, 0, || client.submit_credential(cred)) {
                Ok(()) | Err(DiscfsClientError::CredentialRejected(_)) => {}
                Err(e) => d.rec.fail(format!("submit after revocation: {e}")),
            }
        }
        let (_, fh, _, size) = &self.docs[0];
        let nfs = client.client();
        match d.call(Kind::Read, 0, || nfs.read(fh, 0, *size as u32)) {
            Err(ClientError::Status(NfsStat::Acces)) => d.rec.denials += 1,
            Ok(_) => d
                .rec
                .wrong("a revoked key read a shared document".to_string()),
            Err(e) => d.rec.fail(format!("read after revocation: {e}")),
        }
    }
}

impl Workload for AttachChurn {
    fn setup(world: &World, seed: u64) -> Result<Self, String> {
        let mut d = Runner::new(world, cpu_ns());
        let admin = world.attach(&world.admin, &[], &mut d, false);
        let dir = admin.as_ref().and_then(|a| mkdir(&mut d, a, "collab"));
        let owner = key(seed, 7, 0);
        let mut chain = Vec::new();
        let mut docs = Vec::new();
        let mut sizes = Rng::new(derive(seed, 9, 0));
        let mut drop_dir = None;
        if let Some(dir) = dir {
            let grant = sign(world, || {
                CredentialIssuer::new(&world.admin)
                    .holder(&owner.public())
                    .grant(&dir, Perm::RWX)
                    .issue()
            });
            if let Some(mut c) = world.attach(&owner, std::slice::from_ref(&grant), &mut d, false) {
                chain.push(grant);
                for j in 0..DOCS {
                    let name = format!("doc{j}");
                    let id = 0x1000 + j as u64;
                    let Some(res) = d.op(Kind::CreateCred, 0, || {
                        c.create_with_credential(&dir, &name, 0o644)
                    }) else {
                        break;
                    };
                    let size = DOC_MIN + 256 * sizes.below(5) as usize;
                    let data = content(seed, id, 0, 0, size);
                    let nfs = c.client();
                    d.op(Kind::Write, size as u64, || nfs.write(&res.fh, 0, &data));
                    chain.push(res.credential);
                    docs.push((name, res.fh, id, size));
                }
                if let Some(res) = d.op(Kind::CreateCred, 0, || {
                    c.mkdir_with_credential(&dir, "drop", 0o755)
                }) {
                    chain.push(res.credential);
                    drop_dir = Some(res.fh);
                }
            }
        }
        let ok = docs.len() == DOCS;
        let (dir, drop_dir) = setup_result(d, dir.zip(drop_dir).filter(|_| ok), "attach_churn")?;
        Ok(AttachChurn {
            seed,
            admin,
            owner,
            chain,
            dir,
            docs,
            drop_dir,
        })
    }

    fn run(&mut self, world: &World, seconds: f64) -> Recorder {
        let start = Instant::now();
        let mut d = Runner::new(world, cpu_ns());
        let v0 = world.clock.now();
        let mut i = 0;
        while i < PREFIX_SESSIONS || elapsed_s(start) < seconds {
            let who = key(self.seed, 8, i);
            let delegation = sign(world, || {
                self.docs
                    .iter()
                    .fold(
                        CredentialIssuer::new(&self.owner)
                            .holder(&who.public())
                            .grant(&self.dir, Perm::RX)
                            .grant(&self.drop_dir, Perm::RWX),
                        |c, (_, fh, _, _)| c.grant(fh, Perm::R),
                    )
                    .issue()
            });
            let mut creds = self.chain.clone();
            creds.push(delegation);
            let t0 = cpu_ns();
            self.session(world, &mut d, &who, &creds, i);
            d.rec.session_ns.push(cpu_ns() - t0);
            if (i + 1).is_multiple_of(SYNC_SESSIONS) {
                world.sync(&mut d);
            }
            if i + 1 == PREFIX_SESSIONS {
                d.rec.end_prefix(world.clock.now() - v0, d.rec.file_ops());
            }
            if (i + 1) % REVOKE_EVERY == 0 {
                self.revoke_and_check(world, &mut d, &who, &creds);
            }
            i += 1;
        }
        d.rec
    }
}
