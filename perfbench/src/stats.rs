//! Per-thread measurement records, seeded generators, and the small
//! amount of JSON the benchmark prints.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::world::Kind;

/// CPU time of this process — every thread, client and server alike —
/// in nanoseconds. Each workload keeps one request outstanding, so the
/// CPU time that passes while a call is out is that call's cost along
/// every layer it crosses. Unlike wall time it leaves out what a shared
/// host does to the run: time the hypervisor hands the virtual CPUs to
/// other guests (steal; the kernel's paravirtual time accounting keeps
/// it out of task run time) and the wait for a descheduled CPU at each
/// thread hand-off.
pub fn cpu_ns() -> u64 {
    // `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec`; the call writes only it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A call, or the client's work since the previous call, whose wall
/// time exceeds its CPU time by more than this was interrupted by the
/// host: a virtual CPU it ran on, or one a thread it handed off to was
/// waiting for, was given to another guest. The call's CPU time leaves
/// the stolen time out but carries the cold caches it came back to.
/// Undisturbed, a call's wall time exceeds its CPU time by the thread
/// wake-ups it waits for: 5 µs at the median, 20 µs at the 99th
/// percentile (`shared_small`, 2-vCPU guest, no steal).
pub const DISTURBED_NS: u64 = 100_000;

/// One timed file operation (or server sync), `end_ns` of process CPU
/// time after the phase started; `ns` is its CPU time.
#[derive(Debug, Clone, Copy)]
pub struct OpRec {
    pub end_ns: u64,
    pub ns: u64,
    /// The host interrupted the call or the client's work before it
    /// (see `DISTURBED_NS`).
    pub disturbed: bool,
    pub kind: Kind,
    /// File data moved (0 for failed calls).
    pub bytes: u64,
}

/// What one client thread observed during a measured phase.
pub struct Recorder {
    /// `cpu_ns()` when the phase started.
    origin: u64,
    /// The wall clock when the phase started.
    wall_origin: Instant,
    /// CPU and wall time at which the last recorded call ended.
    last_end: (u64, u64),
    /// Every file operation (READ, WRITE, GETATTR, LOOKUP, CREATE,
    /// REMOVE) and every sync this thread ran.
    pub ops: Vec<OpRec>,
    /// Ends of the workload's natural windows (bulk passes), if any.
    pub marks: Vec<u64>,
    /// Attach: IKE, mount and credential submission.
    pub attach_ns: Vec<u64>,
    /// Session: attach, the session's work, and disconnect.
    pub session_ns: Vec<u64>,
    /// Client RPCs other than MOUNT (file ops and credential calls).
    pub rpcs: u64,
    /// MOUNT calls (one per attach).
    pub mounts: u64,
    /// Operations that failed unexpectedly.
    pub failed: u64,
    /// Accesses refused as expected (a revoked key).
    pub denials: u64,
    /// Virtual time and file-op count of the workload's fixed prefix
    /// (see `Workload::run`).
    pub vprefix: Option<(Duration, u64)>,
    /// Peak resident set of the process at the end of the prefix, MB.
    pub prefix_rss_mb: Option<f64>,
    /// Running hash over every byte read, one entry per read.
    pub digests: Vec<u64>,
    /// Failed correctness checks.
    pub problems: Vec<String>,
    /// The first unexpected errors.
    pub errors: Vec<String>,
}

impl Recorder {
    /// A recorder whose times count from `origin` (a `cpu_ns()`).
    pub fn new(origin: u64) -> Recorder {
        Recorder {
            origin,
            wall_origin: Instant::now(),
            last_end: (0, 0),
            ops: Vec::new(),
            marks: Vec::new(),
            attach_ns: Vec::new(),
            session_ns: Vec::new(),
            rpcs: 0,
            mounts: 0,
            failed: 0,
            denials: 0,
            vprefix: None,
            prefix_rss_mb: None,
            digests: Vec::new(),
            problems: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// CPU nanoseconds since the phase started.
    pub fn now_ns(&self) -> u64 {
        cpu_ns() - self.origin
    }

    /// Records one timed call that just ended, `ns` of CPU time and
    /// `wall_ns` of wall time long.
    pub fn push(&mut self, kind: Kind, ns: u64, wall_ns: u64, bytes: u64) {
        let end_ns = self.now_ns();
        let wall_end_ns = self.wall_origin.elapsed().as_nanos() as u64;
        let gap_cpu = (end_ns - ns).saturating_sub(self.last_end.0);
        let gap_wall = wall_end_ns
            .saturating_sub(wall_ns)
            .saturating_sub(self.last_end.1);
        let disturbed = wall_ns.saturating_sub(ns) > DISTURBED_NS
            || gap_wall.saturating_sub(gap_cpu) > DISTURBED_NS;
        self.last_end = (end_ns, wall_end_ns);
        self.ops.push(OpRec {
            end_ns,
            ns,
            disturbed,
            kind,
            bytes,
        });
    }

    /// Marks the end of the workload's fixed prefix, which took
    /// `virtual_ns` of virtual time for `ops` file ops. Figures taken here
    /// do not depend on how much of the workload fits in the time.
    pub fn end_prefix(&mut self, virtual_ns: Duration, ops: u64) {
        self.vprefix = Some((virtual_ns, ops));
        self.prefix_rss_mb = Some(peak_rss_mb());
    }

    pub fn file_ops(&self) -> u64 {
        self.ops.iter().filter(|o| o.kind.is_file_op()).count() as u64
    }

    /// Records an unexpected error (counted in `failed`).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 16 {
            self.errors.push(what);
        }
    }

    /// Records a failed correctness check.
    pub fn wrong(&mut self, what: String) {
        if self.problems.len() < 16 {
            self.problems.push(what);
        }
    }

    /// Folds read data into the transparency digest.
    pub fn digest(&mut self, data: &[u8]) {
        let prev = self
            .digests
            .last()
            .copied()
            .unwrap_or(0xcbf2_9ce4_8422_2325);
        self.digests.push(fnv(prev, data));
    }
}

fn fnv(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// SplitMix64: the workload generator (inputs depend only on the seed).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Mixes labels into a seed (derived seeds for files, keys, threads).
pub fn derive(seed: u64, a: u64, b: u64) -> u64 {
    let mut r = Rng::new(seed ^ a.rotate_left(17) ^ b.rotate_left(41));
    r.next_u64()
}

/// The seeded content of `(file, version)`: what every read must match.
pub fn content(seed: u64, file: u64, version: u64, offset: u64, len: usize) -> Vec<u8> {
    let mut r = Rng::new(derive(seed, file, version) ^ offset.wrapping_mul(0x2545_F491_4F6C_DD1D));
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&r.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// A Zipf(s) sampler over ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// CPU times of `ops` for the latency percentiles, each with a weight.
/// Calls the host interrupted (see `DISTURBED_NS`) are left out, and the
/// undisturbed calls of the same kind stand in for them: each weighs its
/// kind's calls / its kind's undisturbed calls. A costly kind runs
/// longer and is interrupted more often, so dropping calls unweighted
/// would shift the mix of kinds towards the cheap ones. A kind with no
/// undisturbed call keeps all its calls.
pub fn undisturbed(ops: &[&OpRec]) -> Vec<(u64, f64)> {
    let mut kinds: Vec<(Kind, usize, usize)> = Vec::new();
    for o in ops {
        let calm = usize::from(!o.disturbed);
        match kinds.iter_mut().find(|k| k.0 == o.kind) {
            Some(k) => {
                k.1 += 1;
                k.2 += calm;
            }
            None => kinds.push((o.kind, 1, calm)),
        }
    }
    ops.iter()
        .filter_map(|o| {
            let &(_, all, calm) = kinds.iter().find(|k| k.0 == o.kind)?;
            if calm == 0 {
                Some((o.ns, 1.0))
            } else if o.disturbed {
                None
            } else {
                Some((o.ns, all as f64 / calm as f64))
            }
        })
        .collect()
}

/// Percentile of weighted samples: the smallest value whose cumulative
/// weight reaches `p`% of the total (0 when empty). With unit weights it
/// is the nearest-rank percentile.
pub fn weighted_percentile(samples: &[(u64, f64)], p: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by_key(|s| s.0);
    let total: f64 = sorted.iter().map(|s| s.1).sum();
    let mut acc = 0.0;
    for &(v, w) in &sorted {
        acc += w;
        if acc >= p / 100.0 * total {
            return v;
        }
    }
    sorted.last().map_or(0, |s| s.0)
}

/// Median of a small set of durations.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Cumulative `(steal, total)` CPU ticks of the machine, from
/// `/proc/stat`: time the hypervisor gave to other guests.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// A named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form has.
pub fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}
