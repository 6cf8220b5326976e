//! The DisCFS benchmark.
//!
//! ```text
//! perfbench --workload <bulk_seq|shared_small|attach_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the world up several times (the median is
//! `setup_s`), runs the workload for `--seconds` on the plain stack and
//! prints the end-to-end metrics, timed in CPU time of the process
//! (see `stats::cpu_ns`). `--trace 1` runs the workload twice,
//! half the time each — on the plain stack, then with the tracing
//! wrappers in every layer — checks that both read the same bytes, and
//! prints the per-layer metrics with the tracing overhead.
//!
//! Output: an `env` line, a `report` line, and, last, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod report;
mod stats;
mod trace;
mod workloads;
mod world;

use std::sync::Arc;

use stats::{
    cpu_ns, json_num, json_str, median, metric, metrics_json, percentile, ratio, undisturbed,
    weighted_percentile, Metric, OpRec, Recorder,
};
use trace::Tracer;
use workloads::{AttachChurn, BulkSeq, SharedSmall, Workload};
use world::{Kind, Runner, Snapshot, World};

/// Set-ups per phase: at least `MIN_SETUPS`, then more, up to
/// `MAX_SETUPS`, until they have taken `SETUP_BUDGET_S` of CPU time, so a
/// cheap set-up is repeated enough for a steady median; `setup_s` is
/// their median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One measured phase on one world.
struct Phase {
    /// CPU time of each set-up.
    setup_s: Vec<f64>,
    /// What the client thread observed.
    rec: Recorder,
    delta: Snapshot,
    wall_s: f64,
    /// CPU time of the measured loop.
    cpu_s: f64,
    /// Peak resident set at the end of the loop (it grows with the
    /// sessions run; the metric is taken at the end of the prefix).
    peak_rss_end_mb: f64,
    /// Tracer time at which the measured loop started and ended.
    start_ns: u64,
    end_ns: u64,
    /// Share of the machine's CPU time taken by other guests while
    /// the loop ran.
    steal_pct: f64,
    /// Failed self-checks (counts, fsck).
    problems: Vec<String>,
}

impl Phase {
    fn file_ops(&self) -> u64 {
        self.rec.file_ops()
    }

    fn attempted(&self) -> u64 {
        self.rec.rpcs + self.rec.mounts
    }

    /// File ops per second of CPU time.
    fn ops_per_s(&self) -> f64 {
        ratio(self.file_ops() as f64, self.cpu_s)
    }

    /// Virtual µs per file op: over the workload's fixed prefix when it
    /// has one (so it does not depend on how much fits in the time),
    /// else over the whole phase.
    fn virtual_us_per_op(&self) -> f64 {
        match self.rec.vprefix {
            Some((v, ops)) => ratio(v.as_nanos() as f64 / 1e3, ops as f64),
            None => ratio(self.delta.virtual_ns as f64 / 1e3, self.file_ops() as f64),
        }
    }
}

/// A world and the workload set up on it; the workload (which may hold
/// connections) is dropped first.
struct Built<W> {
    workload: W,
    world: World,
}

fn phase<W: Workload>(
    seed: u64,
    seconds: f64,
    tracer: Option<Arc<Tracer>>,
) -> Result<Phase, String> {
    let mut setup_s = Vec::new();
    let mut built: Option<Built<W>> = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(built.take());
        if let Some(t) = &tracer {
            t.reset();
        }
        let t0 = cpu_ns();
        let world = World::build(tracer.clone())?;
        let workload = W::setup(&world, seed)?;
        setup_s.push((cpu_ns() - t0) as f64 / 1e9);
        built = Some(Built { workload, world });
    }
    let Built {
        mut workload,
        world,
    } = built.ok_or("no set-up ran")?;
    let start_ns = tracer.as_ref().map_or(0, |t| t.now_ns());
    let before = world.snapshot();
    let ticks = stats::cpu_ticks();
    let cpu0 = cpu_ns();
    let rec = workload.run(&world, seconds);
    let cpu_s = (cpu_ns() - cpu0) as f64 / 1e9;
    let peak_rss_end_mb = stats::peak_rss_mb();
    let after = world.snapshot();
    let ticks_after = stats::cpu_ticks();
    let steal_pct = 100.0
        * ratio(
            (ticks_after.0 - ticks.0) as f64,
            (ticks_after.1 - ticks.1) as f64,
        );
    let end_ns = tracer.as_ref().map_or(0, |t| t.now_ns());
    drop(workload);
    let delta = before.delta(&after);
    let wall_s = (after.at - before.at).as_secs_f64();

    let mut problems = Vec::new();
    let client_calls = rec.rpcs + rec.mounts;
    if delta.requests != client_calls {
        problems.push(format!(
            "engine served {} requests, clients sent {client_calls}",
            delta.requests
        ));
    }
    if delta.policy_hits + delta.policy_misses != delta.decisions {
        problems.push(format!(
            "policy hits {} + misses {} != decisions {}",
            delta.policy_hits, delta.policy_misses, delta.decisions
        ));
    }
    if tracer.is_some() {
        if delta.service_calls != client_calls {
            problems.push(format!(
                "service saw {} calls, clients sent {client_calls}",
                delta.service_calls
            ));
        }
        if delta.cached_reads != delta.block_hits + delta.block_misses {
            problems.push(format!(
                "cached-level reads {} != block hits {} + misses {}",
                delta.cached_reads, delta.block_hits, delta.block_misses
            ));
        }
        if delta.repl_reads != delta.block_misses {
            problems.push(format!(
                "reads below the cache {} != block misses {}",
                delta.repl_reads, delta.block_misses
            ));
        }
    }
    let mut d = Runner::new(&world, cpu_ns());
    world.sync(&mut d);
    if d.rec.failed > 0 {
        problems.push(format!("final sync: {:?}", d.rec.errors));
    }
    if let Err(e) = world.fs.check() {
        problems.push(format!("fsck: {e:?}"));
    }
    Ok(Phase {
        setup_s,
        rec,
        delta,
        wall_s,
        cpu_s,
        peak_rss_end_mb,
        start_ns,
        end_ns,
        steal_pct,
        problems,
    })
}

/// Length of one window of a stationary workload, in CPU time.
const SLICE_NS: u64 = 2_000_000_000;

/// The windows the throughput and op-latency figures are taken over:
/// the workload's own (bulk passes) or equal slices of about two
/// seconds of CPU time. Each figure is the median over windows, so a
/// burst of interference from outside the benchmark moves it less.
fn windows(p: &Phase) -> Vec<(u64, u64)> {
    let mut marks = p.rec.marks.clone();
    if marks.is_empty() {
        let span = (p.cpu_s * 1e9) as u64;
        let n = (span / SLICE_NS).max(1);
        marks = (1..=n).map(|i| span * i / n).collect();
    }
    let mut start = 0;
    marks
        .into_iter()
        .map(|end| {
            let w = (start, end);
            start = end;
            w
        })
        .collect()
}

struct WindowFigures {
    ops_per_s: f64,
    p50_us: f64,
    p99_us: f64,
}

fn window_figures(p: &Phase, (from, to): (u64, u64)) -> WindowFigures {
    let ops: Vec<&OpRec> = p
        .rec
        .ops
        .iter()
        .filter(|o| o.kind.is_file_op() && o.end_ns > from && o.end_ns <= to)
        .collect();
    let lat = undisturbed(&ops);
    WindowFigures {
        ops_per_s: ratio(ops.len() as f64, (to - from) as f64 / 1e9),
        p50_us: weighted_percentile(&lat, 50.0) as f64 / 1e3,
        p99_us: weighted_percentile(&lat, 99.0) as f64 / 1e3,
    }
}

/// MB per second of CPU time spent in calls of `kinds` among `ops`
/// (a whole phase: small transfers are too few per window).
fn mb_s(ops: &[OpRec], kinds: &[Kind]) -> f64 {
    let (bytes, ns) = ops
        .iter()
        .filter(|o| kinds.contains(&o.kind))
        .fold((0, 0), |(b, t), o| (b + o.bytes, t + o.ns));
    ratio(bytes as f64 / 1e6, ns as f64 / 1e9)
}

fn end_to_end(p: &Phase) -> Vec<Metric> {
    let figures: Vec<WindowFigures> = windows(p)
        .into_iter()
        .map(|w| window_figures(p, w))
        .collect();
    let med = |f: fn(&WindowFigures) -> f64| median(&figures.iter().map(f).collect::<Vec<_>>());
    // Writes count with the syncs that flushed them: up to the last sync
    // of the run. Past it they would count without their flush, a share
    // that depends on where the deadline fell.
    let ops = &p.rec.ops;
    let synced = match ops.iter().rposition(|o| o.kind == Kind::Sync) {
        Some(last) => &ops[..=last],
        None => &ops[..],
    };
    let attach = &p.rec.attach_ns;
    let session = &p.rec.session_ns;
    vec![
        metric("setup_s", median(&p.setup_s), "s"),
        metric("ops_per_s", med(|w| w.ops_per_s), "1/s"),
        metric("op_p50_us", med(|w| w.p50_us), "us"),
        metric("op_p99_us", med(|w| w.p99_us), "us"),
        metric(
            "write_mb_s",
            mb_s(synced, &[Kind::Write, Kind::Sync]),
            "MB/s",
        ),
        metric("read_mb_s", mb_s(&p.rec.ops, &[Kind::Read]), "MB/s"),
        metric("virtual_us_per_op", p.virtual_us_per_op(), "us"),
        metric("attach_p50_ms", percentile(attach, 50.0) as f64 / 1e6, "ms"),
        metric("attach_p90_ms", percentile(attach, 90.0) as f64 / 1e6, "ms"),
        metric(
            "session_p50_ms",
            percentile(session, 50.0) as f64 / 1e6,
            "ms",
        ),
        metric(
            "session_p90_ms",
            percentile(session, 90.0) as f64 / 1e6,
            "ms",
        ),
        metric(
            "peak_rss_mb",
            p.rec.prefix_rss_mb.unwrap_or(p.peak_rss_end_mb),
            "MB",
        ),
    ]
}

/// The phase's details, printed on the `report` line.
fn phase_json(p: &Phase) -> String {
    let strings = |v: &[String]| {
        format!(
            "[{}]",
            v.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(", ")
        )
    };
    let problems: Vec<String> = p.problems.iter().chain(&p.rec.problems).cloned().collect();
    format!(
        "{{\"setup_s\": [{}], \"wall_s\": {}, \"cpu_s\": {}, \"steal_pct\": {:.2}, \"file_ops\": {}, \"attempted\": {}, \"failed\": {}, \
         \"failed_frac\": {}, \"denials\": {}, \"attaches\": {}, \"sessions\": {}, \"window_ops_per_s\": [{}], \
         \"disturbed_pct\": {:.2}, \"virtual_us_per_op\": {}, \"backoff_retries\": {}, \"peak_rss_end_mb\": {}, \
         \"problems\": {}, \"errors\": {}}}",
        p.setup_s.iter().map(|v| json_num(*v)).collect::<Vec<_>>().join(", "),
        json_num(p.wall_s),
        json_num(p.cpu_s),
        p.steal_pct,
        p.file_ops(),
        p.attempted(),
        p.rec.failed,
        json_num(ratio(p.rec.failed as f64, p.attempted() as f64)),
        p.rec.denials,
        p.rec.attach_ns.len(),
        p.rec.session_ns.len(),
        windows(p)
            .into_iter()
            .map(|w| format!("{:.1}", window_figures(p, w).ops_per_s))
            .collect::<Vec<_>>()
            .join(", "),
        100.0 * ratio(
            p.rec.ops.iter().filter(|o| o.disturbed).count() as f64,
            p.rec.ops.len() as f64
        ),
        json_num(p.virtual_us_per_op()),
        p.delta.backoff_retries,
        json_num(p.peak_rss_end_mb),
        strings(&problems),
        strings(&p.rec.errors),
    )
}

fn phase_ok(p: &Phase) -> bool {
    p.problems.is_empty() && p.rec.problems.is_empty()
}

/// Compares what the plain and traced phases read: the running digest
/// after the reads both phases completed.
fn same_reads(plain: &Phase, traced: &Phase) -> Result<usize, String> {
    let (a, b) = (&plain.rec.digests, &traced.rec.digests);
    let n = a.len().min(b.len());
    if n > 0 && a[n - 1] != b[n - 1] {
        return Err(format!("reads differ within the first {n}"));
    }
    Ok(n)
}

fn run<W: Workload>(args: &Args) -> Result<(), String> {
    let env = format!(
        "{{\"env\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"profile\": {}, \"setups_per_phase\": [{MIN_SETUPS}, {MAX_SETUPS}], \"stack\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        world::describe(),
    );
    println!("{env}");
    let (correct, attempted, failed, metrics) = if !args.trace {
        let p = phase::<W>(args.seed, args.seconds, None)?;
        println!("{{\"report\": {{\"plain\": {}}}}}", phase_json(&p));
        (phase_ok(&p), p.attempted(), p.rec.failed, end_to_end(&p))
    } else {
        let half = args.seconds / 2.0;
        let plain = phase::<W>(args.seed, half, None)?;
        let tracer = Tracer::new();
        let traced = phase::<W>(args.seed, half, Some(tracer.clone()))?;
        let overhead_pct = 100.0 * ratio(plain.ops_per_s() - traced.ops_per_s(), plain.ops_per_s());
        let spans = tracer.spans();
        let metrics = report::per_layer(
            &spans,
            (traced.start_ns, traced.end_ns),
            &traced.delta,
            traced.file_ops(),
            overhead_pct,
        );
        let closure = metrics
            .iter()
            .find(|m| m.name == "trace.closure_err_pct")
            .map_or(0.0, |m| m.value);
        let mut checks = Vec::new();
        let transparent = same_reads(&plain, &traced);
        if let Err(e) = &transparent {
            checks.push(format!("wrappers changed results: {e}"));
        }
        if closure > overhead_pct.abs().max(1.0) {
            checks.push(format!(
                "layer self times miss the round trip by {closure:.2}% (overhead {overhead_pct:.2}%)"
            ));
        }
        // Same seed, one request outstanding: virtual time must repeat
        // exactly unless a wall-clock timeout fired in the remote store
        // tier.
        let retries = plain.delta.backoff_retries + traced.delta.backoff_retries;
        let determinism = if retries > 0 {
            format!("flagged: {retries} backoff retries")
        } else if plain.virtual_us_per_op() == traced.virtual_us_per_op() {
            "identical".to_string()
        } else {
            checks.push(format!(
                "virtual_us_per_op differs between same-seed phases: {} vs {}",
                plain.virtual_us_per_op(),
                traced.virtual_us_per_op()
            ));
            "differs".to_string()
        };
        println!(
            "{{\"report\": {{\"plain\": {}, \"traced\": {}, \"spans\": {}, \"reads_compared\": {}, \
             \"determinism\": {}, \"checks\": [{}]}}}}",
            phase_json(&plain),
            phase_json(&traced),
            spans.len(),
            transparent.unwrap_or(0),
            json_str(&determinism),
            checks.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(", "),
        );
        (
            phase_ok(&plain) && phase_ok(&traced) && checks.is_empty(),
            plain.attempted() + traced.attempted(),
            plain.rec.failed + traced.rec.failed,
            metrics,
        )
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&metrics)
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <bulk_seq|shared_small|attach_churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "bulk_seq" => run::<BulkSeq>(&args),
        "shared_small" => run::<SharedSmall>(&args),
        "attach_churn" => run::<AttachChurn>(&args),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
