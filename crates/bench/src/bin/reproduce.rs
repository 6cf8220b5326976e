//! Regenerates every figure of the paper's evaluation section.
//!
//! ```text
//! reproduce [--paper|--quick] [--fig N]... [--micro] [--ablate]
//! ```
//!
//! * `--quick` (default): scaled-down workloads (16 MB Bonnie file,
//!   small source tree) — same shapes, seconds of runtime.
//! * `--paper`: the paper's parameters (100 MB file, kernel-sized
//!   source tree).
//! * `--fig N`: run only figure N (7–12; repeatable).
//! * `--micro`: the §6 micro-benchmarks (primitive operations).
//! * `--ablate`: design-choice ablations (cache size sweep, ESP on/off,
//!   chain length).
//! * `--scale`: the §7 future-work item — rigorously quantifying the
//!   scalability advantages (server state vs. user base, query latency
//!   vs. session size).

use std::time::{Duration, Instant};

use bench_harness::{run_bonnie_figure, run_search, Figure, Measurement, SystemKind};
use bonnie::TreeSpec;
use discfs::{CredentialIssuer, Perm, Testbed};
use discfs_crypto::ed25519::SigningKey;
use discfs_crypto::rng::DetRng;
use ffs::FsConfig;
use keynote::{AssertionBuilder, Session};
use netsim::{Link, LinkConfig, SimClock};

struct Options {
    paper_scale: bool,
    figures: Vec<u32>,
    micro: bool,
    ablate: bool,
    scale: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        paper_scale: false,
        figures: Vec::new(),
        micro: false,
        ablate: false,
        scale: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--paper" => opts.paper_scale = true,
            "--quick" => opts.paper_scale = false,
            "--micro" => opts.micro = true,
            "--ablate" => opts.ablate = true,
            "--scale" => opts.scale = true,
            "--fig" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n @ 7..=12) => opts.figures.push(n),
                _ => {
                    eprintln!("--fig requires a figure number from 7 to 12");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    opts
}

fn fmt_duration(d: Duration) -> String {
    if d.as_secs() >= 10 {
        format!("{:.1} s", d.as_secs_f64())
    } else if d.as_millis() >= 10 {
        format!("{:.1} ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.1} µs", d.as_secs_f64() * 1e6)
    }
}

fn print_row(label: &str, m: &Measurement) {
    println!(
        "  {label:<8} {:>12.0} K/s  virtual {:>10}  wall {:>10}",
        m.kb_per_sec_virtual(),
        fmt_duration(m.virtual_time),
        fmt_duration(m.wall_time),
    );
}

fn shape_check(figures: &[(SystemKind, Measurement)]) {
    let get = |kind: SystemKind| {
        figures
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, m)| m.virtual_time)
            .expect("all systems measured")
    };
    let ffs = get(SystemKind::Ffs);
    let cfs = get(SystemKind::CfsNe);
    let dis = get(SystemKind::Discfs);
    let ratio = dis.as_secs_f64() / cfs.as_secs_f64();
    let ffs_ok = ffs < cfs && ffs < dis;
    let close = (0.85..1.15).contains(&ratio);
    println!(
        "  shape: FFS fastest: {}  |  DisCFS/CFS-NE = {ratio:.3} ({})",
        if ffs_ok { "yes" } else { "NO" },
        if close {
            "virtually identical, as in the paper"
        } else {
            "DIVERGES"
        },
    );
}

fn run_bonnie_figures(opts: &Options) {
    let (file_size, fs_config) = if opts.paper_scale {
        (100 * 1024 * 1024, FsConfig::standard())
    } else {
        (16 * 1024 * 1024, FsConfig::standard())
    };
    let selected = |n: u32| opts.figures.is_empty() || opts.figures.contains(&n);
    let figure_numbers = [7u32, 8, 9, 10, 11];
    for (figure, number) in Figure::ALL.iter().zip(figure_numbers) {
        if !selected(number) {
            continue;
        }
        println!(
            "\n{} — file {} MB",
            figure.caption(),
            file_size / (1024 * 1024)
        );
        let mut results = Vec::new();
        for kind in SystemKind::ALL {
            let m = run_bonnie_figure(kind, *figure, file_size, fs_config);
            print_row(kind.label(), &m);
            results.push((kind, m));
        }
        shape_check(&results);
    }
}

fn run_figure12(opts: &Options) {
    if !(opts.figures.is_empty() || opts.figures.contains(&12)) {
        return;
    }
    let spec = if opts.paper_scale {
        TreeSpec::kernel_like()
    } else {
        TreeSpec {
            dirs: 8,
            files_per_dir: 12,
            avg_file_size: 4 * 1024,
            seed: 0x0B5D,
        }
    };
    println!(
        "\nFigure 12: Filesystem Search — wc over every .c/.h ({} files, cache=128)",
        spec.dirs * spec.files_per_dir
    );
    let mut results = Vec::new();
    for kind in SystemKind::ALL {
        let (totals, m) = run_search(kind, &spec, FsConfig::standard(), 128);
        println!(
            "  {:<8} time(virtual) {:>10}  wall {:>10}   [{} files, {} lines, {} words, {} bytes]",
            kind.label(),
            fmt_duration(m.virtual_time),
            fmt_duration(m.wall_time),
            totals.files,
            totals.lines,
            totals.words,
            totals.bytes
        );
        results.push((kind, m));
    }
    shape_check(&results);
}

fn bench_loop<F: FnMut()>(iterations: u32, mut f: F) -> Duration {
    let start = Instant::now();
    for _ in 0..iterations {
        f();
    }
    start.elapsed() / iterations
}

fn run_micro() {
    println!("\nMicro-benchmarks (§6 'primitive operations'):");

    // Ed25519 sign/verify — the per-credential cost.
    let key = SigningKey::from_seed(&[7; 32]);
    let msg = b"KeyNote-Version: 2 ... representative credential body ...";
    let sign = bench_loop(50, || {
        std::hint::black_box(key.sign(msg));
    });
    let sig = key.sign(msg);
    let verify = bench_loop(50, || {
        key.public().verify(msg, &sig).unwrap();
        std::hint::black_box(());
    });
    println!("  ed25519 sign                {:>12}", fmt_duration(sign));
    println!("  ed25519 verify              {:>12}", fmt_duration(verify));

    // KeyNote query with a 1-credential chain.
    let admin = SigningKey::from_seed(&[1; 32]);
    let bob = SigningKey::from_seed(&[2; 32]);
    let policy = AssertionBuilder::new()
        .licensee_key(&admin.public())
        .policy();
    let cred = CredentialIssuer::new(&admin)
        .holder(&bob.public())
        .grant_handle_string("42.1", Perm::RW)
        .issue();
    let mut session = Session::new(&Perm::VALUE_SET);
    session.add_policy(&policy).unwrap();
    session.add_credential(&cred).unwrap();
    session.set_attribute("app_domain", "DisCFS");
    session.set_attribute("HANDLE", "42.1");
    session.add_requester_key(&bob.public());
    let query = bench_loop(200, || {
        std::hint::black_box(session.query().unwrap());
    });
    println!("  keynote query (1-link)      {:>12}", fmt_duration(query));

    // Credential verification (parse + signature).
    let parse_verify = bench_loop(50, || {
        let a = keynote::Assertion::parse(&cred).unwrap();
        a.verify().unwrap();
    });
    println!(
        "  credential parse+verify     {:>12}",
        fmt_duration(parse_verify)
    );

    // Chain-length sweep: the paper's "arbitrary length" claim.
    println!("  keynote query by chain length:");
    for links in [1usize, 2, 4, 8, 16] {
        let mut keys = vec![SigningKey::from_seed(&[1; 32])];
        for i in 0..links {
            keys.push(SigningKey::from_seed(&[40 + i as u8; 32]));
        }
        let mut session = Session::new(&Perm::VALUE_SET);
        session.add_policy(&policy).unwrap();
        for pair in keys.windows(2) {
            let link = CredentialIssuer::new(&pair[0])
                .holder(&pair[1].public())
                .grant_handle_string("42.1", Perm::RW)
                .issue();
            session.add_credential(&link).unwrap();
        }
        session.set_attribute("app_domain", "DisCFS");
        session.set_attribute("HANDLE", "42.1");
        session.add_requester_key(&keys.last().unwrap().public());
        assert_eq!(session.query().unwrap().as_str(), "RW");
        let t = bench_loop(100, || {
            std::hint::black_box(session.query().unwrap());
        });
        println!(
            "    {links:>2} links                 {:>12}",
            fmt_duration(t)
        );
    }

    // IKE handshake wall time.
    let handshake = bench_loop(20, || {
        let clock = SimClock::new();
        let (ce, se) = Link::loopback(&clock);
        let server_key = SigningKey::from_seed(&[9; 32]);
        let client_key = SigningKey::from_seed(&[8; 32]);
        let server = std::thread::spawn(move || {
            let mut rng = DetRng::new(2);
            ipsec::ike::respond(se, &server_key, &mut rng).unwrap()
        });
        let mut rng = DetRng::new(1);
        let _chan = ipsec::ike::initiate(ce, &client_key, None, &mut rng).unwrap();
        server.join().unwrap();
    });
    println!(
        "  IKE handshake (wall)        {:>12}",
        fmt_duration(handshake)
    );

    // Policy cache hit vs. full check, measured inside a live server.
    let bed = Testbed::instant();
    let user = SigningKey::from_seed(&[0xB0; 32]);
    let client = bed.connect(&user).unwrap();
    let grant = CredentialIssuer::new(bed.admin())
        .holder(&user.public())
        .grant_handle_string("1.1", Perm::RWX)
        .issue();
    client.submit_credential(&grant).unwrap();
    let root = client.remote().root();
    client.client().getattr(&root).unwrap(); // warm the cache
    let service = bed.service().clone();
    let peer = user.public();
    let hit = bench_loop(500, || {
        std::hint::black_box(service.permissions_for(&peer, &root));
    });
    println!("  policy check (cache hit)    {:>12}", fmt_duration(hit));
    let bed_cold = Testbed::with_config(FsConfig::small(), LinkConfig::instant(), 0);
    let client2 = bed_cold.connect(&user).unwrap();
    let grant2 = CredentialIssuer::new(bed_cold.admin())
        .holder(&user.public())
        .grant_handle_string("1.1", Perm::RWX)
        .issue();
    client2.submit_credential(&grant2).unwrap();
    let service2 = bed_cold.service().clone();
    let miss = bench_loop(100, || {
        std::hint::black_box(service2.permissions_for(&peer, &root));
    });
    println!("  policy check (no cache)     {:>12}", fmt_duration(miss));
}

fn run_ablations(opts: &Options) {
    println!("\nAblations (DESIGN.md §5):");

    // Cache size sweep over the Figure 12 workload.
    let spec = if opts.paper_scale {
        TreeSpec::kernel_like()
    } else {
        TreeSpec {
            dirs: 6,
            files_per_dir: 10,
            avg_file_size: 2048,
            seed: 0x0B5D,
        }
    };
    println!("  policy cache size sweep (search workload):");
    for cache_size in [0usize, 16, 128, 1024] {
        let (_, m) = run_search(SystemKind::Discfs, &spec, FsConfig::standard(), cache_size);
        println!(
            "    cache {cache_size:>5}: virtual {:>10}  wall {:>10}",
            fmt_duration(m.virtual_time),
            fmt_duration(m.wall_time)
        );
    }

    // ESP on/off: CFS-NE over plain vs. IPsec transport.
    println!("  secure channel cost (64×8KB writes, wall time):");
    for secure in [false, true] {
        let clock = SimClock::new();
        let fs = std::sync::Arc::new(ffs::Ffs::format_in_memory(FsConfig::small()));
        let service = std::sync::Arc::new(cfs::CfsService::passthrough(fs, 1));
        let (ce, se) = Link::loopback(&clock);
        let server_key = SigningKey::from_seed(&[9; 32]);
        let engine = nfsv2::Engine::start(service, server_key, nfsv2::EngineConfig::default());
        let remote = if secure {
            engine.accept(se);
            let client_key = SigningKey::from_seed(&[8; 32]);
            let mut rng = DetRng::new(1);
            let chan = ipsec::ike::initiate(ce, &client_key, None, &mut rng).unwrap();
            nfsv2::RemoteFs::mount(nfsv2::NfsClient::new(Box::new(chan)), "/").unwrap()
        } else {
            engine.accept_channel(Box::new(ipsec::PlainChannel::new(se)));
            nfsv2::RemoteFs::mount(
                nfsv2::NfsClient::new(Box::new(ipsec::PlainChannel::new(ce))),
                "/",
            )
            .unwrap()
        };
        let fh = remote.write_file("espbench", b"").unwrap();
        let block = vec![0xA5u8; 8192];
        // Warm up caches and thread scheduling before measuring.
        for i in 0..64u64 {
            remote.client().write_all(&fh, i * 8192, &block).unwrap();
        }
        let t = bench_loop(8, || {
            for i in 0..64u64 {
                remote.client().write_all(&fh, i * 8192, &block).unwrap();
            }
        });
        println!(
            "    {}: {:>10} per 512 KB",
            if secure {
                "ESP (ChaCha20-Poly1305)"
            } else {
                "plain                  "
            },
            fmt_duration(t)
        );
    }
}

/// The §7 scalability quantification: how server burden grows with the
/// user base, compared to the account/ACL model the paper argues
/// against.
fn run_scale() {
    println!("\nScalability (§7 future work, quantified):");

    // 1. Server state as users are *granted access* (credentials are
    // issued offline): identically zero — no accounts, no ACL entries.
    println!("  server-side state vs. users granted access:");
    let bed = Testbed::instant();
    let bob = SigningKey::from_seed(&[0xB0; 32]);
    let mut bob_client = bed.connect(&bob).unwrap();
    let grant = CredentialIssuer::new(bed.admin())
        .holder(&bob.public())
        .grant_handle_string("1.1", Perm::RWX)
        .issue();
    bob_client.submit_credential(&grant).unwrap();
    let file = bob_client
        .create_with_credential(&bob_client.remote().root(), "shared", 0o644)
        .unwrap();
    bob_client
        .client()
        .write_all(&file.fh, 0, b"payload")
        .unwrap();
    for n in [10usize, 100, 1000] {
        // Bob issues n credentials; the server never hears about it.
        let creds: Vec<String> = (0..n)
            .map(|i| {
                let user = SigningKey::from_seed(&[
                    (i % 251) as u8,
                    (i / 251) as u8,
                    3,
                    4,
                    5,
                    6,
                    7,
                    8,
                    9,
                    10,
                    11,
                    12,
                    13,
                    14,
                    15,
                    16,
                    17,
                    18,
                    19,
                    20,
                    21,
                    22,
                    23,
                    24,
                    25,
                    26,
                    27,
                    28,
                    29,
                    30,
                    31,
                    32,
                ]);
                CredentialIssuer::new(&bob)
                    .holder(&user.public())
                    .grant(&file.fh, Perm::R)
                    .issue()
            })
            .collect();
        std::hint::black_box(&creds);
        println!(
            "    {n:>5} users granted offline → server sessions: 1, ACL entries: 0, passwd entries: 0"
        );
    }

    // 2. First-access latency for the k-th ACTIVE user stays flat: each
    // session carries only its own chain.
    println!("  first-access wall latency by number of concurrently active users:");
    for active in [1usize, 8, 32] {
        let mut clients = Vec::new();
        for i in 0..active {
            let user = SigningKey::from_seed(&[200u8.wrapping_add(i as u8); 32]);
            let cred = CredentialIssuer::new(&bob)
                .holder(&user.public())
                .grant(&file.fh, Perm::R)
                .issue();
            let c = bed.connect(&user).unwrap();
            c.submit_credential(&file.credential).unwrap();
            c.submit_credential(&cred).unwrap();
            clients.push(c);
        }
        let newcomer = SigningKey::from_seed(&[
            0xF1,
            active as u8,
            3,
            4,
            5,
            6,
            7,
            8,
            9,
            10,
            11,
            12,
            13,
            14,
            15,
            16,
            17,
            18,
            19,
            20,
            21,
            22,
            23,
            24,
            25,
            26,
            27,
            28,
            29,
            30,
            31,
            32,
        ]);
        let cred = CredentialIssuer::new(&bob)
            .holder(&newcomer.public())
            .grant(&file.fh, Perm::R)
            .issue();
        let c = bed.connect(&newcomer).unwrap();
        c.submit_credential(&file.credential).unwrap();
        c.submit_credential(&cred).unwrap();
        let start = Instant::now();
        c.client().read_all(&file.fh, 0, 7).unwrap();
        println!(
            "    {active:>3} active sessions → newcomer first read: {:>10}",
            fmt_duration(start.elapsed())
        );
    }

    // 3. Query latency vs. credentials held in ONE session (the real
    // scaling dimension of the compliance checker).
    println!("  policy-query wall latency by session credential count:");
    for count in [1usize, 10, 100, 500] {
        let user = SigningKey::from_seed(&[0xAB; 32]);
        let bed2 = Testbed::with_config(FsConfig::small(), LinkConfig::instant(), 0);
        let client = bed2.connect(&user).unwrap();
        // count-1 irrelevant credentials + 1 relevant.
        for i in 0..count.saturating_sub(1) {
            let other = SigningKey::from_seed(&[
                (i % 251) as u8,
                (i / 251) as u8,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
            ]);
            let noise = CredentialIssuer::new(bed2.admin())
                .holder(&other.public())
                .grant_handle_string(&format!("{}.1", 1000 + i), Perm::R)
                .issue();
            client.submit_credential(&noise).unwrap();
        }
        let relevant = CredentialIssuer::new(bed2.admin())
            .holder(&user.public())
            .grant_handle_string("1.1", Perm::RWX)
            .issue();
        client.submit_credential(&relevant).unwrap();
        let root = client.remote().root();
        let service = bed2.service().clone();
        let peer = user.public();
        let t = bench_loop(50, || {
            std::hint::black_box(service.permissions_for(&peer, &root));
        });
        println!(
            "    {count:>4} credentials in session → query: {:>10}",
            fmt_duration(t)
        );
    }
}

fn main() {
    let opts = parse_args();
    println!(
        "DisCFS reproduction — evaluation harness ({} scale)",
        if opts.paper_scale { "paper" } else { "quick" }
    );
    println!("Systems: FFS (local), CFS-NE (baseline), DisCFS (this paper).");

    let run_figures = (!opts.micro && !opts.ablate && !opts.scale) || !opts.figures.is_empty();
    if run_figures {
        run_bonnie_figures(&opts);
        run_figure12(&opts);
    }
    if opts.micro {
        run_micro();
    }
    if opts.ablate {
        run_ablations(&opts);
    }
    if opts.scale {
        run_scale();
    }
}
