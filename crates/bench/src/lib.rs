//! Benchmark harness: adapters, world builders and experiment runners
//! that regenerate every figure of the paper's evaluation (§6).
//!
//! Three systems are measured, exactly as in the paper:
//!
//! * **FFS** — the local filesystem (direct `ffs` calls, timed disk).
//! * **CFS-NE** — the baseline: the CFS code path with encryption off,
//!   served over plain NFS on simulated 100 Mbps Ethernet.
//! * **DisCFS** — the full system: IPsec channel, KeyNote checks with
//!   the 128-entry policy cache, same network and disk.
//!
//! Every workload reports both **virtual time** (network + disk + policy
//! model on the shared [`SimClock`]) and **wall time** (real compute of
//! the whole in-process stack). Figure shapes are judged on virtual
//! time; wall time cross-checks that the real code paths behave the
//! same way.

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use bonnie::{BenchFile, BenchFs};
use discfs::{CredentialIssuer, DiscfsClient, Perm, Testbed};
use discfs_crypto::ed25519::SigningKey;
use ffs::{Ffs, FsConfig, Ino, SetAttr};
use ipsec::PlainChannel;
use netsim::{Link, LinkConfig, SimClock};
use nfsv2::{Engine, EngineConfig, FHandle, NfsClient, RemoteFs, Sattr};
use store::{Base, StoreBackend};

// ---------------------------------------------------------------------------
// FFS adapter (the "local file system" series).
// ---------------------------------------------------------------------------

/// Direct access to a local `ffs` volume.
pub struct FfsBench {
    fs: Arc<Ffs>,
}

impl FfsBench {
    /// Wraps a volume.
    pub fn new(fs: Arc<Ffs>) -> FfsBench {
        FfsBench { fs }
    }

    fn resolve_parent(&self, path: &str) -> (Ino, String) {
        let trimmed = path.trim_matches('/');
        let (parent, name) = match trimmed.rsplit_once('/') {
            Some((p, n)) => (p, n),
            None => ("", trimmed),
        };
        let dir = self.fs.resolve_path(parent).expect("parent path exists");
        (dir, name.to_string())
    }
}

/// An open file on the local volume.
pub struct FfsFile<'a> {
    fs: &'a Ffs,
    ino: Ino,
}

impl BenchFile for FfsFile<'_> {
    fn write_at(&mut self, offset: u64, data: &[u8]) {
        self.fs.write(self.ino, offset, data).expect("ffs write");
    }

    fn read_at(&mut self, offset: u64, len: usize) -> Vec<u8> {
        self.fs.read(self.ino, offset, len).expect("ffs read")
    }
}

impl BenchFs for FfsBench {
    fn create<'a>(&'a mut self, path: &str) -> Box<dyn BenchFile + 'a> {
        let (dir, name) = self.resolve_parent(path);
        let ino = match self.fs.lookup(dir, &name) {
            Ok(ino) => {
                self.fs
                    .setattr(
                        ino,
                        SetAttr {
                            size: Some(0),
                            ..Default::default()
                        },
                    )
                    .expect("truncate");
                ino
            }
            Err(_) => self.fs.create(dir, &name, 0o644, 0, 0).expect("ffs create"),
        };
        Box::new(FfsFile { fs: &self.fs, ino })
    }

    fn open<'a>(&'a mut self, path: &str) -> Box<dyn BenchFile + 'a> {
        let ino = self.fs.resolve_path(path).expect("path exists");
        Box::new(FfsFile { fs: &self.fs, ino })
    }

    fn mkdir(&mut self, path: &str) {
        let (dir, name) = self.resolve_parent(path);
        self.fs.mkdir(dir, &name, 0o755, 0, 0).expect("ffs mkdir");
    }

    fn write_file(&mut self, path: &str, data: &[u8]) {
        let mut f = self.create(path);
        f.write_at(0, data);
    }

    fn read_file(&mut self, path: &str) -> Vec<u8> {
        let ino = self.fs.resolve_path(path).expect("path exists");
        let size = self.fs.getattr(ino).expect("getattr").size;
        self.fs.read(ino, 0, size as usize).expect("ffs read")
    }

    fn readdir(&mut self, path: &str) -> Vec<(String, bool)> {
        let ino = self.fs.resolve_path(path).expect("path exists");
        self.fs
            .readdir(ino)
            .expect("readdir")
            .into_iter()
            .filter(|e| e.name != "." && e.name != "..")
            .map(|e| {
                let is_dir = self
                    .fs
                    .getattr(e.ino)
                    .map(|a| a.kind == ffs::FileKind::Directory)
                    .unwrap_or(false);
                (e.name, is_dir)
            })
            .collect()
    }

    fn remove(&mut self, path: &str) {
        let (dir, name) = self.resolve_parent(path);
        self.fs.unlink(dir, &name).expect("unlink");
    }

    fn sync(&mut self) {
        self.fs.sync().expect("ffs sync");
    }
}

// ---------------------------------------------------------------------------
// Remote NFS adapter (CFS-NE series).
// ---------------------------------------------------------------------------

/// A mounted remote filesystem (plain NFS client).
pub struct RemoteBench {
    remote: RemoteFs,
}

impl RemoteBench {
    /// Wraps a mount.
    pub fn new(remote: RemoteFs) -> RemoteBench {
        RemoteBench { remote }
    }
}

/// An open remote file.
pub struct RemoteFile<'a> {
    client: &'a NfsClient,
    fh: FHandle,
}

impl BenchFile for RemoteFile<'_> {
    fn write_at(&mut self, offset: u64, data: &[u8]) {
        self.client
            .write_all(&self.fh, offset, data)
            .expect("nfs write");
    }

    fn read_at(&mut self, offset: u64, len: usize) -> Vec<u8> {
        self.client
            .read_all(&self.fh, offset, len)
            .expect("nfs read")
    }
}

impl BenchFs for RemoteBench {
    fn create<'a>(&'a mut self, path: &str) -> Box<dyn BenchFile + 'a> {
        let fh = self.remote.write_file(path, b"").expect("nfs create");
        Box::new(RemoteFile {
            client: self.remote.client(),
            fh,
        })
    }

    fn open<'a>(&'a mut self, path: &str) -> Box<dyn BenchFile + 'a> {
        let (fh, _) = self.remote.resolve(path).expect("nfs lookup");
        Box::new(RemoteFile {
            client: self.remote.client(),
            fh,
        })
    }

    fn mkdir(&mut self, path: &str) {
        self.remote.mkdir_path(path).expect("nfs mkdir");
    }

    fn write_file(&mut self, path: &str, data: &[u8]) {
        self.remote.write_file(path, data).expect("nfs write_file");
    }

    fn read_file(&mut self, path: &str) -> Vec<u8> {
        self.remote.read_file(path).expect("nfs read_file")
    }

    fn readdir(&mut self, path: &str) -> Vec<(String, bool)> {
        let (fh, _) = self.remote.resolve(path).expect("nfs lookup");
        self.remote
            .client()
            .readdir_all(&fh)
            .expect("nfs readdir")
            .into_iter()
            .filter(|e| e.name != "." && e.name != "..")
            .map(|e| {
                let full = if path.trim_matches('/').is_empty() {
                    e.name.clone()
                } else {
                    format!("{}/{}", path.trim_matches('/'), e.name)
                };
                let is_dir = self
                    .remote
                    .resolve(&full)
                    .map(|(_, a)| a.ftype == nfsv2::FType::Directory)
                    .unwrap_or(false);
                (e.name, is_dir)
            })
            .collect()
    }

    fn remove(&mut self, path: &str) {
        let trimmed = path.trim_matches('/');
        let (parent, name) = match trimmed.rsplit_once('/') {
            Some((p, n)) => (p, n),
            None => ("", trimmed),
        };
        let (dir, _) = self.remote.resolve(parent).expect("nfs lookup");
        self.remote.client().remove(&dir, name).expect("nfs remove");
    }
}

// ---------------------------------------------------------------------------
// DisCFS adapter.
// ---------------------------------------------------------------------------

/// The DisCFS client driven as a benchmark filesystem.
///
/// File and directory creation go through the credential-returning side
/// procedures, so the session automatically holds the rights to touch
/// what it created (plus a root grant installed by the world builder).
pub struct DiscfsBench {
    client: DiscfsClient,
}

impl DiscfsBench {
    /// Wraps a connected client.
    pub fn new(client: DiscfsClient) -> DiscfsBench {
        DiscfsBench { client }
    }

    /// Access to the underlying client (cache stats etc.).
    pub fn client(&self) -> &DiscfsClient {
        &self.client
    }

    fn resolve(&self, path: &str) -> (FHandle, nfsv2::Fattr) {
        self.client.remote().resolve(path).expect("discfs lookup")
    }

    fn resolve_parent(&self, path: &str) -> (FHandle, String) {
        let trimmed = path.trim_matches('/');
        let (parent, name) = match trimmed.rsplit_once('/') {
            Some((p, n)) => (p, n),
            None => ("", trimmed),
        };
        let (dir, _) = self.resolve(parent);
        (dir, name.to_string())
    }
}

/// An open DisCFS file.
pub struct DiscfsFile<'a> {
    client: &'a NfsClient,
    fh: FHandle,
}

impl BenchFile for DiscfsFile<'_> {
    fn write_at(&mut self, offset: u64, data: &[u8]) {
        self.client
            .write_all(&self.fh, offset, data)
            .expect("discfs write");
    }

    fn read_at(&mut self, offset: u64, len: usize) -> Vec<u8> {
        self.client
            .read_all(&self.fh, offset, len)
            .expect("discfs read")
    }
}

impl BenchFs for DiscfsBench {
    fn create<'a>(&'a mut self, path: &str) -> Box<dyn BenchFile + 'a> {
        let (dir, name) = self.resolve_parent(path);
        let fh = match self.client.remote().resolve(path) {
            Ok((fh, _)) => {
                let mut sattr = Sattr::unchanged();
                sattr.size = 0;
                self.client.client().setattr(&fh, &sattr).expect("truncate");
                fh
            }
            Err(_) => {
                self.client
                    .create_with_credential(&dir, &name, 0o644)
                    .expect("discfs create")
                    .fh
            }
        };
        Box::new(DiscfsFile {
            client: self.client.client(),
            fh,
        })
    }

    fn open<'a>(&'a mut self, path: &str) -> Box<dyn BenchFile + 'a> {
        let (fh, _) = self.resolve(path);
        Box::new(DiscfsFile {
            client: self.client.client(),
            fh,
        })
    }

    fn mkdir(&mut self, path: &str) {
        let (dir, name) = self.resolve_parent(path);
        self.client
            .mkdir_with_credential(&dir, &name, 0o755)
            .expect("discfs mkdir");
    }

    fn write_file(&mut self, path: &str, data: &[u8]) {
        let mut f = self.create(path);
        f.write_at(0, data);
    }

    fn read_file(&mut self, path: &str) -> Vec<u8> {
        let (fh, attr) = self.resolve(path);
        self.client
            .client()
            .read_all(&fh, 0, attr.size as usize)
            .expect("discfs read")
    }

    fn readdir(&mut self, path: &str) -> Vec<(String, bool)> {
        let (fh, _) = self.resolve(path);
        self.client
            .client()
            .readdir_all(&fh)
            .expect("discfs readdir")
            .into_iter()
            .filter(|e| e.name != "." && e.name != "..")
            .map(|e| {
                let full = if path.trim_matches('/').is_empty() {
                    e.name.clone()
                } else {
                    format!("{}/{}", path.trim_matches('/'), e.name)
                };
                let is_dir = self
                    .client
                    .remote()
                    .resolve(&full)
                    .map(|(_, a)| a.ftype == nfsv2::FType::Directory)
                    .unwrap_or(false);
                (e.name, is_dir)
            })
            .collect()
    }

    fn remove(&mut self, path: &str) {
        let (dir, name) = self.resolve_parent(path);
        self.client
            .client()
            .remove(&dir, &name)
            .expect("discfs remove");
    }
}

// ---------------------------------------------------------------------------
// Worlds.
// ---------------------------------------------------------------------------

/// Which system a world simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Local filesystem.
    Ffs,
    /// CFS with encryption off, over plain remote NFS.
    CfsNe,
    /// The full DisCFS stack.
    Discfs,
}

impl SystemKind {
    /// All three systems, in the paper's presentation order.
    pub const ALL: [SystemKind; 3] = [SystemKind::Ffs, SystemKind::CfsNe, SystemKind::Discfs];

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Ffs => "FFS",
            SystemKind::CfsNe => "CFS-NE",
            SystemKind::Discfs => "DisCFS",
        }
    }
}

/// A running world: a filesystem under benchmark plus its clock.
pub struct World {
    /// The filesystem interface workloads run against.
    pub fs: Box<dyn BenchFs>,
    /// The shared virtual clock.
    pub clock: SimClock,
    /// Kept alive: the testbed (DisCFS) if any.
    _bed: Option<Testbed>,
    /// Kept alive: the engine serving CFS-NE, if any. Dropping the
    /// world joins its threads.
    _engine: Option<Engine>,
}

/// Builds a world for `kind` with the given volume geometry and cache
/// size (cache size only affects DisCFS), on the paper's timing-model
/// disk.
pub fn build_world(kind: SystemKind, fs_config: FsConfig, cache_size: usize) -> World {
    let paper_disk = Base::Sim { timed: true }.into();
    build_world_on(kind, fs_config, cache_size, &paper_disk)
}

/// Builds a world for `kind` whose server volume lives on `backend` —
/// the hook that lets figures compare storage backends (sim-timed vs
/// journaled file vs content-addressed dedup) for the same system.
///
/// A persistent backend whose directory already holds a volume is
/// **mounted**, not reformatted, so a benchmark can measure warm
/// reboot cycles: build a world, populate, sync, drop it, and build
/// again on the same directory to run against the surviving files.
/// Use [`SystemKind::Ffs`] for that pattern — it is fully in-process.
pub fn build_world_on(
    kind: SystemKind,
    fs_config: FsConfig,
    cache_size: usize,
    backend: &StoreBackend,
) -> World {
    let mount = |clock: &SimClock| {
        let store = backend.build(clock, fs_config.total_blocks);
        Arc::new(
            Ffs::open_or_format(store, fs_config).expect("mount or format the benchmark volume"),
        )
    };
    match kind {
        SystemKind::Ffs => {
            let clock = SimClock::new();
            let fs = mount(&clock);
            World {
                fs: Box::new(FfsBench::new(fs)),
                clock,
                _bed: None,
                _engine: None,
            }
        }
        SystemKind::CfsNe => {
            let clock = SimClock::new();
            let fs = mount(&clock);
            let service = Arc::new(cfs::CfsService::passthrough(fs, 1));
            let (client_end, server_end) = Link::pair(&clock, LinkConfig::ethernet_100mbps());
            let key = SigningKey::from_seed(&[0xCF; 32]);
            let engine = Engine::start(service, key, EngineConfig::default());
            engine.accept_channel(Box::new(PlainChannel::new(server_end)));
            let client = NfsClient::new(Box::new(PlainChannel::new(client_end)));
            let remote = RemoteFs::mount(client, "/").expect("mount CFS-NE");
            World {
                fs: Box::new(RemoteBench::new(remote)),
                clock,
                _bed: None,
                _engine: Some(engine),
            }
        }
        SystemKind::Discfs => {
            let bed = Testbed::with_backend(
                fs_config,
                LinkConfig::ethernet_100mbps(),
                cache_size,
                backend,
            );
            let clock = bed.clock().clone();
            let user = SigningKey::from_seed(&[0xB0; 32]);
            let client = bed.connect(&user).expect("connect DisCFS");
            // Grant the benchmark user the root directory, like the
            // paper's measurement user owning the test directory.
            let grant = CredentialIssuer::new(bed.admin())
                .holder(&user.public())
                .grant_handle_string("1.1", Perm::RWX)
                .comment("benchmark root grant")
                .issue();
            client.submit_credential(&grant).expect("submit root grant");
            World {
                fs: Box::new(DiscfsBench::new(client)),
                clock,
                _bed: Some(bed),
                _engine: None,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Experiment runner.
// ---------------------------------------------------------------------------

/// One measured result.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Virtual (modeled) elapsed time.
    pub virtual_time: Duration,
    /// Real elapsed compute time.
    pub wall_time: Duration,
    /// Bytes moved by the workload.
    pub bytes: u64,
}

impl Measurement {
    /// Throughput in KB/s of virtual time (the paper's K/sec axis).
    pub fn kb_per_sec_virtual(&self) -> f64 {
        if self.virtual_time.is_zero() {
            return f64::INFINITY;
        }
        (self.bytes as f64 / 1024.0) / self.virtual_time.as_secs_f64()
    }
}

/// The Bonnie phases as figure identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Figure 7: sequential output, per char.
    F7OutChar,
    /// Figure 8: sequential output, per block.
    F8OutBlock,
    /// Figure 9: sequential rewrite.
    F9Rewrite,
    /// Figure 10: sequential input, per char.
    F10InChar,
    /// Figure 11: sequential input, per block.
    F11InBlock,
}

impl Figure {
    /// All Bonnie figures in order.
    pub const ALL: [Figure; 5] = [
        Figure::F7OutChar,
        Figure::F8OutBlock,
        Figure::F9Rewrite,
        Figure::F10InChar,
        Figure::F11InBlock,
    ];

    /// The paper's caption.
    pub fn caption(self) -> &'static str {
        match self {
            Figure::F7OutChar => "Figure 7: Bonnie Sequential Output (Char)",
            Figure::F8OutBlock => "Figure 8: Bonnie Sequential Output (Block)",
            Figure::F9Rewrite => "Figure 9: Bonnie Sequential Output (Rewrite)",
            Figure::F10InChar => "Figure 10: Bonnie Sequential Input (Char)",
            Figure::F11InBlock => "Figure 11: Bonnie Sequential Input (Block)",
        }
    }
}

/// Runs one Bonnie figure against one system (timing-model disk).
pub fn run_bonnie_figure(
    kind: SystemKind,
    figure: Figure,
    file_size: u64,
    fs_config: FsConfig,
) -> Measurement {
    let paper_disk = Base::Sim { timed: true }.into();
    run_bonnie_figure_on(kind, figure, file_size, fs_config, &paper_disk)
}

/// Runs one Bonnie figure against one system on a chosen storage
/// backend.
pub fn run_bonnie_figure_on(
    kind: SystemKind,
    figure: Figure,
    file_size: u64,
    fs_config: FsConfig,
    backend: &StoreBackend,
) -> Measurement {
    let mut world = build_world_on(kind, fs_config, 128, backend);
    // Input and rewrite phases need a populated file (not measured).
    let needs_prefill = matches!(
        figure,
        Figure::F9Rewrite | Figure::F10InChar | Figure::F11InBlock
    );
    if needs_prefill {
        let mut f = world.fs.create("bonnie.dat");
        bonnie::seq_output_block(&mut *f, file_size);
    }

    let mut file = if needs_prefill {
        world.fs.open("bonnie.dat")
    } else {
        world.fs.create("bonnie.dat")
    };

    world.clock.reset();
    let wall_start = Instant::now();
    let result = match figure {
        Figure::F7OutChar => bonnie::seq_output_char(&mut *file, file_size),
        Figure::F8OutBlock => bonnie::seq_output_block(&mut *file, file_size),
        Figure::F9Rewrite => bonnie::seq_rewrite(&mut *file, file_size),
        Figure::F10InChar => bonnie::seq_input_char(&mut *file, file_size).0,
        Figure::F11InBlock => bonnie::seq_input_block(&mut *file, file_size).0,
    };
    Measurement {
        virtual_time: world.clock.now(),
        wall_time: wall_start.elapsed(),
        bytes: result.bytes,
    }
}

/// Runs the Figure 12 search workload; returns the totals and timing.
pub fn run_search(
    kind: SystemKind,
    spec: &bonnie::TreeSpec,
    fs_config: FsConfig,
    cache_size: usize,
) -> (bonnie::SearchTotals, Measurement) {
    let mut world = build_world(kind, fs_config, cache_size);
    world.fs.mkdir("src");
    bonnie::generate_tree(&mut *world.fs, "src", spec);

    world.clock.reset();
    let wall_start = Instant::now();
    let totals = bonnie::search(&mut *world.fs, "src");
    let measurement = Measurement {
        virtual_time: world.clock.now(),
        wall_time: wall_start.elapsed(),
        bytes: totals.bytes,
    };
    (totals, measurement)
}

// ---------------------------------------------------------------------------
// Bench env knobs and JSON summaries (shared by the bench targets).
// ---------------------------------------------------------------------------

/// True when `BENCH_QUICK` asks for shrunk iteration counts (the CI
/// smoke mode). `0` and unset mean a full run.
pub fn bench_quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// Available hardware parallelism (1 when unknown) — the gate for the
/// scaling assertions benches skip on small hosts.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn json_entries() -> &'static std::sync::Mutex<Vec<(String, f64)>> {
    static ENTRIES: std::sync::OnceLock<std::sync::Mutex<Vec<(String, f64)>>> =
        std::sync::OnceLock::new();
    ENTRIES.get_or_init(|| std::sync::Mutex::new(Vec::new()))
}

/// Records a named figure for the `$BENCH_JSON` summary (shared by the
/// bench targets; see [`write_json_summary`]).
pub fn record_json(key: &str, value: f64) {
    json_entries()
        .lock()
        .unwrap()
        .push((key.to_string(), value));
}

/// One JSON number: ratios keep four decimals so a hit-ratio or
/// speedup regression stays visible in the cross-PR trajectory;
/// big ops/sec values keep one. Non-finite values (a zero-virtual-time
/// speedup is `inf`) become `null` — JSON has no infinity.
fn format_json_value(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v.abs() < 100.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.1}")
    }
}

/// Writes every figure recorded via [`record_json`] to the path named
/// by the `BENCH_JSON` env var (no-op when unset).
pub fn write_json_summary() {
    let Ok(path) = std::env::var("BENCH_JSON") else {
        return;
    };
    let entries = json_entries().lock().unwrap();
    let fields: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {}", format_json_value(*v)))
        .collect();
    let json = format!("{{\n{}\n}}\n", fields.join(",\n"));
    std::fs::write(&path, json).expect("write BENCH_JSON summary");
    println!("bench summary written to {path}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonnie::TreeSpec;
    use store::Layer;

    #[test]
    fn json_values_format_for_trajectory_diffing() {
        assert_eq!(format_json_value(0.9661), "0.9661");
        assert_eq!(format_json_value(1.23456), "1.2346");
        assert_eq!(format_json_value(1295760.44), "1295760.4");
        assert_eq!(format_json_value(f64::INFINITY), "null");
        assert_eq!(format_json_value(f64::NAN), "null");
    }

    const SMALL: u64 = 256 * 1024;

    #[test]
    fn all_systems_run_block_output() {
        for kind in SystemKind::ALL {
            let m = run_bonnie_figure(kind, Figure::F8OutBlock, SMALL, FsConfig::small());
            assert_eq!(m.bytes, SMALL, "{kind:?}");
            assert!(m.virtual_time > Duration::ZERO, "{kind:?} charges time");
        }
    }

    #[test]
    fn ffs_is_fastest_and_baselines_close() {
        // The paper's headline shape on the block-write figure.
        let ffs = run_bonnie_figure(
            SystemKind::Ffs,
            Figure::F8OutBlock,
            SMALL,
            FsConfig::small(),
        );
        let cfs = run_bonnie_figure(
            SystemKind::CfsNe,
            Figure::F8OutBlock,
            SMALL,
            FsConfig::small(),
        );
        let dis = run_bonnie_figure(
            SystemKind::Discfs,
            Figure::F8OutBlock,
            SMALL,
            FsConfig::small(),
        );
        assert!(
            ffs.virtual_time < cfs.virtual_time,
            "FFS {:?} must beat CFS-NE {:?}",
            ffs.virtual_time,
            cfs.virtual_time
        );
        // DisCFS within 15% of CFS-NE ("virtually identical").
        let ratio = dis.virtual_time.as_secs_f64() / cfs.virtual_time.as_secs_f64();
        assert!(
            (0.85..1.15).contains(&ratio),
            "DisCFS/CFS-NE ratio {ratio:.3} out of band"
        );
    }

    #[test]
    fn search_totals_identical_across_systems() {
        let spec = TreeSpec {
            dirs: 2,
            files_per_dir: 4,
            avg_file_size: 512,
            seed: 42,
        };
        let (t_ffs, _) = run_search(SystemKind::Ffs, &spec, FsConfig::small(), 128);
        let (t_cfs, _) = run_search(SystemKind::CfsNe, &spec, FsConfig::small(), 128);
        let (t_dis, _) = run_search(SystemKind::Discfs, &spec, FsConfig::small(), 128);
        assert_eq!(t_ffs, t_cfs);
        assert_eq!(t_ffs, t_dis);
        assert_eq!(t_ffs.files, 8);
    }

    #[test]
    fn worlds_run_on_every_backend() {
        // Backend selection must not change workload results — only
        // the timing/stats profile. Exercise each backend through the
        // full CFS-NE network stack.
        let dir = store::temp_dir_for_tests("bench-world");
        let backends = [
            StoreBackend::from(Base::Sim { timed: false }),
            StoreBackend::from(Base::File {
                dir: dir.join("plain"),
            }),
            StoreBackend::from(Base::Dedup { dir: None }),
            StoreBackend {
                base: Base::Dedup { dir: None },
                layers: vec![Layer::Encrypted { key: [0xEE; 32] }],
            },
            StoreBackend {
                base: Base::Sim { timed: false },
                layers: vec![Layer::Cached {
                    capacity: 128,
                    readahead: 0,
                }],
            },
            StoreBackend {
                base: Base::File {
                    dir: dir.join("sharded"),
                },
                layers: vec![Layer::Sharded {
                    shards: 4,
                    workers: false,
                }],
            },
            StoreBackend {
                base: Base::File {
                    dir: dir.join("sharded-workers"),
                },
                layers: vec![Layer::Sharded {
                    shards: 4,
                    workers: true,
                }],
            },
            StoreBackend {
                base: Base::Sim { timed: false },
                layers: vec![Layer::Cached {
                    capacity: 128,
                    readahead: 8,
                }],
            },
            StoreBackend {
                base: Base::Dedup { dir: None },
                layers: vec![Layer::Timed],
            },
        ];
        for backend in &backends {
            let mut world = build_world_on(SystemKind::CfsNe, FsConfig::small(), 128, backend);
            world.fs.write_file("probe.dat", b"backend probe payload");
            assert_eq!(
                world.fs.read_file("probe.dat"),
                b"backend probe payload",
                "{}",
                backend.label()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn world_reboot_cycle_keeps_files_on_persistent_backends() {
        // Populate a world, sync, drop it, rebuild on the same
        // directory: the new world must mount the surviving volume and
        // read the old file back through the full stack.
        let base = store::temp_dir_for_tests("bench-reboot");
        let backends = [
            StoreBackend::from(Base::File {
                dir: base.join("file"),
            }),
            StoreBackend {
                base: Base::File {
                    dir: base.join("enc"),
                },
                layers: vec![Layer::Encrypted { key: [0x42; 32] }],
            },
            StoreBackend {
                base: Base::File {
                    dir: base.join("cached-sharded"),
                },
                layers: vec![
                    Layer::Sharded {
                        shards: 3,
                        workers: true,
                    },
                    Layer::Cached {
                        capacity: 64,
                        readahead: 0,
                    },
                ],
            },
        ];
        for backend in &backends {
            {
                let mut world = build_world_on(SystemKind::Ffs, FsConfig::small(), 128, backend);
                world
                    .fs
                    .write_file("survivor.dat", b"written before the reboot");
                world.fs.sync();
            }
            let mut world = build_world_on(SystemKind::Ffs, FsConfig::small(), 128, backend);
            assert_eq!(
                world.fs.read_file("survivor.dat"),
                b"written before the reboot",
                "{}",
                backend.label()
            );
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn dedup_backend_reports_hit_ratio_through_stack() {
        // A duplicate-heavy stream written through the filesystem on
        // the dedup backend must surface a high hit ratio in stats.
        let clock = SimClock::new();
        let fs = Ffs::format_on(
            StoreBackend::from(Base::Dedup { dir: None })
                .build(&clock, FsConfig::small().total_blocks),
            FsConfig::small(),
        );
        let block = vec![0xABu8; 8192];
        for i in 0..8 {
            let ino = fs
                .create(fs.root(), &format!("copy{i}.dat"), 0o644, 0, 0)
                .unwrap();
            fs.write(ino, 0, &block).unwrap();
        }
        let stats = fs.disk().stats();
        // Seven of the eight identical data blocks must be absorbed
        // as content hits (metadata blocks differ per file, so the
        // overall ratio depends on layout; the hit count does not).
        assert!(
            stats.dedup_hits >= 7,
            "8 identical files must dedup: {stats:?}"
        );
        assert!(stats.dedup_hit_ratio() > 0.0, "{stats:?}");
    }

    #[test]
    fn read_phases_preserve_data() {
        let mut world = build_world(SystemKind::Discfs, FsConfig::small(), 128);
        {
            let mut f = world.fs.create("bonnie.dat");
            bonnie::seq_output_char(&mut *f, 64 * 1024);
        }
        let mut f = world.fs.open("bonnie.dat");
        let (res, checksum) = bonnie::seq_input_char(&mut *f, 64 * 1024);
        assert_eq!(res.bytes, 64 * 1024);
        assert!(checksum > 0);
    }
}
