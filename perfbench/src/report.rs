//! Per-layer figures from the traced run's spans and counters.
//!
//! Per client request (spans sharing a request id), each layer's self
//! time is its span time minus the span time of the layer below:
//!
//! ```text
//! client.self   = round trip - esp.send - esp.recv
//! esp.seal      = esp.send - link.send          esp.open = esp.recv - link.recv
//! engine.transit= link.send + link.recv - discfs service
//! discfs.self   = discfs service - store.cached
//! cached.self   = store.cached - store.replicated
//! store.wire    = store.replicated - store.node
//! ```
//!
//! A negative difference means spans were paired with the wrong
//! request; clamped to zero, it shows up as closure error (the gap
//! between the summed self times and the round trips).

use std::collections::HashMap;

use crate::stats::{metric, percentile, ratio, Metric};
use crate::trace::Span;
use crate::world::Snapshot;

#[derive(Default)]
struct Request {
    rtt: i64,
    esp_send: i64,
    esp_recv: i64,
    link_send: i64,
    link_recv: i64,
    service: i64,
    cached: i64,
    replicated: i64,
    node: i64,
    client: bool,
    server: bool,
}

/// Every per-layer metric, in `BENCHMARK.json` order. Spans of the
/// measured loop (between `start_ns` and `end_ns`) give the layer
/// times; the credential figures (`ike`, `cred`, `submit`,
/// `create_cred`) also take the set-up's spans, where `shared_small`
/// does most of that work.
pub fn per_layer(
    spans: &[Span],
    (start_ns, end_ns): (u64, u64),
    d: &Snapshot,
    file_ops: u64,
    overhead_pct: f64,
) -> Vec<Metric> {
    let measured: Vec<&Span> = spans
        .iter()
        .filter(|s| s.start_ns >= start_ns && s.end_ns <= end_ns)
        .collect();
    let mut reqs: HashMap<u64, Request> = HashMap::new();
    for s in measured.iter().filter(|s| s.req != 0) {
        let r = reqs.entry(s.req).or_default();
        let t = s.dur_ns() as i64;
        match s.name {
            "esp.send" => r.esp_send += t,
            "esp.recv" => r.esp_recv += t,
            "link.send" => r.link_send += t,
            "link.recv" => r.link_recv += t,
            "store.cached" | "store.flush" => r.cached += t,
            "store.replicated" => r.replicated += t,
            "store.node" => r.node += t,
            n if n.starts_with("client.") => {
                r.rtt += t;
                r.client = true;
            }
            n if n.starts_with("discfs.") => {
                r.service += t;
                r.server = true;
            }
            _ => {}
        }
    }
    let complete: Vec<&Request> = reqs.values().filter(|r| r.client && r.server).collect();
    let n = complete.len().max(1) as f64;
    let mean_us =
        |f: &dyn Fn(&Request) -> i64| complete.iter().map(|r| f(r) as f64).sum::<f64>() / n / 1e3;
    let layers: [&dyn Fn(&Request) -> i64; 8] = [
        &|r| r.rtt - r.esp_send - r.esp_recv,
        &|r| r.esp_send - r.link_send,
        &|r| r.esp_recv - r.link_recv,
        &|r| r.link_send + r.link_recv - r.service,
        &|r| r.service - r.cached,
        &|r| r.cached - r.replicated,
        &|r| r.replicated - r.node,
        &|r| r.node,
    ];
    let rtt_total: f64 = complete.iter().map(|r| r.rtt as f64).sum();
    let self_total: f64 = complete
        .iter()
        .map(|r| layers.iter().map(|f| f(r).max(0) as f64).sum::<f64>())
        .sum();
    let closure_err_pct = 100.0 * ratio((self_total - rtt_total).abs(), rtt_total);

    let durations = |name: &str, all: bool| -> Vec<u64> {
        let pool: Vec<&Span> = if all {
            spans.iter().collect()
        } else {
            measured.clone()
        };
        pool.iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns())
            .collect()
    };
    let p50 =
        |name: &str, all: bool, scale: f64| percentile(&durations(name, all), 50.0) as f64 / scale;
    let mean = |name: &str, scale: f64| {
        let v = durations(name, false);
        ratio(v.iter().sum::<u64>() as f64, v.len() as f64) / scale
    };
    let repl = durations("store.replicated", false);
    let repl_ids: std::collections::HashSet<u64> = measured
        .iter()
        .filter(|s| s.name == "store.replicated")
        .map(|s| s.id)
        .collect();
    let node_in_repl: u64 = measured
        .iter()
        .filter(|s| s.name == "store.node" && repl_ids.contains(&s.parent))
        .map(|s| s.dur_ns())
        .sum();
    let wire_us = ratio(
        repl.iter().sum::<u64>() as f64 - node_in_repl as f64,
        repl.len() as f64,
    ) / 1e3;
    let ops = file_ops as f64;

    vec![
        metric("esp.seal_us", mean_us(layers[1]), "us"),
        metric("esp.open_us", mean_us(layers[2]), "us"),
        metric("link.msgs_per_op", ratio(d.link_msgs as f64, ops), "count"),
        metric("link.bytes_per_op", ratio(d.link_bytes as f64, ops), "B"),
        metric("client.rtt_us", mean_us(&|r| r.rtt), "us"),
        metric("client.self_us", mean_us(layers[0]), "us"),
        metric("client.read_us", p50("client.read", false, 1e3), "us"),
        metric("client.write_us", p50("client.write", false, 1e3), "us"),
        metric("client.getattr_us", p50("client.getattr", false, 1e3), "us"),
        metric("client.lookup_us", p50("client.lookup", false, 1e3), "us"),
        metric("engine.transit_us", mean_us(layers[3]), "us"),
        metric(
            "engine.requests_per_batch",
            ratio(d.requests as f64, d.batches as f64),
            "count",
        ),
        metric("engine.pauses", d.pauses as f64, "count"),
        metric("discfs.service_us", mean_us(&|r| r.service), "us"),
        metric("discfs.service_self_us", mean_us(layers[4]), "us"),
        metric(
            "discfs.policy_hit_ratio",
            ratio(d.policy_hits as f64, d.decisions as f64),
            "ratio",
        ),
        metric(
            "discfs.policy_misses_per_op",
            ratio(d.policy_misses as f64, d.service_calls as f64),
            "count",
        ),
        metric(
            "discfs.exclusive_per_op",
            ratio(d.exclusive as f64, d.service_calls as f64),
            "count",
        ),
        metric("ike.initiate_ms", p50("ike.initiate", true, 1e6), "ms"),
        metric("discfs.submit_us", p50("discfs.submit", true, 1e3), "us"),
        metric(
            "discfs.create_cred_us",
            p50("discfs.create_cred", true, 1e3),
            "us",
        ),
        metric("cred.issue_ms", p50("cred.issue", true, 1e6), "ms"),
        metric("store.cached_us", mean("store.cached", 1e3), "us"),
        metric(
            "store.cache_hit_ratio",
            ratio(d.block_hits as f64, d.cached_reads as f64),
            "ratio",
        ),
        metric("store.replicated_us", mean("store.replicated", 1e3), "us"),
        metric("store.node_us", mean("store.node", 1e3), "us"),
        metric("store.wire_us", wire_us, "us"),
        metric("store.flush_ms", mean("store.flush", 1e6), "ms"),
        metric(
            "store.write_amp",
            ratio(d.node_writes as f64, d.cached_writes as f64),
            "ratio",
        ),
        metric("store.backoff_retries", d.backoff_retries as f64, "count"),
        metric("trace.overhead_pct", overhead_pct, "%"),
        metric("trace.closure_err_pct", closure_err_pct, "%"),
    ]
}
