//! `servebench`: end-to-end and per-layer benchmark of the gvex
//! explanation-serving daemon.
//!
//! ```text
//! servebench --workload <hot_reads|miss_heavy> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds the MUT bench store the way `gvex db build` does (five
//! times, timing each), starts the daemon under test in a child process
//! with the `gvex serve` defaults and a writer daemon in this one, drives
//! the workload over TCP for `--seconds` with every latency family
//! interleaved, checks every answer, and prints the metrics. The last
//! stdout line is the result object; the line before it carries run
//! metadata and accounting. With `--trace 1` the run also replays its
//! operations in-process with a span around every layer call and prints the
//! per-layer table instead. See README.md in this directory.
//!
//! `servebench --daemon <store>` is the child: see [`setup::serve`].

mod checks;
mod drive;
mod setup;
mod stats;
mod trace;
mod traffic;

use drive::{Observed, Outcome, Phase, Record};
use gvex_serve::{ServeState, Server};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use traffic::{Kind, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Seconds of the window the traced run replays.
const TRACE_PREFIX_S: f64 = 5.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
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
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// A metric value with its unit, in print order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag, store] = argv.as_slice() {
        if flag == "--daemon" {
            return match setup::serve(Path::new(store)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("servebench daemon: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(".servebench").join(format!("run-{}", std::process::id()));
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("create {}: {e}", dir.display()))
        .and_then(|()| run(&args, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, dir: &Path) -> Result<(), String> {
    let host_start_ms = setup::host_probe_ms();
    let db = gvex_datasets::DatasetKind::Mutagenicity
        .generate(gvex_datasets::Scale::Bench, setup::DATA_SEED);

    // Each set-up's daemon stops before the next set-up starts; the last
    // one serves the run.
    let mut builds = Vec::new();
    let mut daemon = None;
    for k in 0..SETUP_REPEATS {
        drop(daemon.take());
        let (d, times) = setup::build(&db, &dir.join(format!("store-{k}.gvex")))?;
        daemon = Some(d);
        builds.push(times);
    }
    let mut daemon = daemon.expect("at least one set-up");
    let store = dir.join(format!("store-{}.gvex", SETUP_REPEATS - 1));
    let mut failures = Vec::new();
    let first = std::fs::read(dir.join("store-0.gvex")).map_err(|e| e.to_string())?;
    for k in 1..SETUP_REPEATS {
        if std::fs::read(dir.join(format!("store-{k}.gvex"))).map_err(|e| e.to_string())? != first {
            failures.push(format!("set-up {k} wrote a different store than set-up 0"));
        }
    }
    let median_of = |f: fn(&setup::Build) -> f64| {
        stats::median(&builds.iter().map(f).collect::<Vec<_>>()).expect("at least one build")
    };
    let setup_totals: Vec<f64> = builds.iter().map(|b| b.total_s).collect();
    let setup_s = median_of(|b| b.total_s);
    let train_s = median_of(|b| b.train_s);
    let mine_s = median_of(|b| b.mine_s);
    let write_ms = median_of(|b| b.write_s) * 1e3;
    let serve_ms = median_of(|b| b.serve_s) * 1e3;
    let store_bytes = builds[0].store_bytes;

    // The writer daemon takes the commits, so the daemon under test keeps
    // its content, and its cache, for the whole run.
    let writer_state = ServeState::open(&store).map_err(|e| format!("writer state: {e}"))?;
    let classes = writer_state.db().num_classes();
    let assigned = gvex_core::parallel::predict_all(writer_state.model(), writer_state.db());
    let writer = Server::bind(writer_state, "127.0.0.1:0", setup::serve_config(classes))
        .map_err(|e| format!("bind writer: {e}"))?;
    let window = Duration::from_secs(args.seconds);
    let plan = traffic::plan(args.workload, args.seed, &db, &assigned, window);
    let obs = drive::drive(&mut daemon, writer.addr(), &plan, window, args.seed)?;
    failures.extend(checks::verify(&plan, &obs, &store));

    let (attempted, failed, accounting) = accounting(&obs.records);
    if failed > 0 {
        failures.push(format!("{failed} operations failed"));
    }
    let mut e2e: Metrics = vec![("setup_s", setup_s, "s")];
    e2e.push(("rss_mb", obs.peak_kib as f64 / 1024.0, "MiB"));
    let (latency, samples, short) = end_to_end(&obs, args.workload)?;
    e2e.extend(latency);
    for name in &short {
        eprintln!("servebench: fewer than 10 samples lie beyond {name}; lengthen --seconds");
    }

    let metrics = if args.trace {
        let times = setup::store_times(&store)?;
        let layer = per_layer(&plan, &obs, &store, args)?;
        if layer.mismatches > 0 {
            failures
                .push(format!("{} replayed answers differed from served ones", layer.mismatches));
        }
        let mut m = layer.metrics;
        m.extend([
            ("store.open_ms", times.open_ms, "ms"),
            ("store.materialize_ms", times.materialize_ms, "ms"),
            ("store.mapped_mb", times.mapped_mb, "MiB"),
            ("serve.state.open_ms", times.state_open_ms, "ms"),
            ("setup.train_s", train_s, "s"),
            ("setup.mine_s", mine_s, "s"),
            ("setup.write_ms", write_ms, "ms"),
        ]);
        m
    } else {
        e2e.clone()
    };
    let host_end_ms = setup::host_probe_ms();
    drop(writer);
    drop(daemon);

    let cfg = setup::serve_config(classes);
    let mut meta = String::new();
    let _ = write!(
        meta,
        "{{\"servebench\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"git_rev\":\"{}\",\"dataset\":\"MUT\",\"scale\":\"bench\",\"data_seed\":{},\
         \"graphs\":{},\"nodes\":{},\"store_bytes\":{},\"nproc\":{},\"backend\":\"{}\",\
         \"backend_env\":\"{}\",\"server\":{{\"workers\":{},\"queue_depth\":{},\"cache_shards\":{},\
         \"cache_capacity\":{},\"epoch_interval\":{}}},\"host_probe_ms\":[{host_start_ms},{host_end_ms}],\
         \"window_s\":{},\"setup_s\":{:?},\"serve_start_ms\":{serve_ms},\
         \"samples\":{{{samples}}},\"short\":{},\"accounting\":{accounting},\"checks\":{}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_escape(&setup::git_rev()),
        setup::DATA_SEED,
        db.len(),
        db.graphs().iter().map(|g| g.num_nodes()).sum::<usize>(),
        store_bytes,
        std::thread::available_parallelism().map_or(0, usize::from),
        gvex_linalg::backend::active().kind().name(),
        json_escape(&std::env::var("GVEX_BACKEND").unwrap_or_default()),
        cfg.workers,
        cfg.queue_depth,
        cfg.cache_shards,
        cfg.cache_capacity,
        cfg.epoch_interval,
        obs.window.as_secs_f64(),
        setup_totals,
        json_strings(&short.iter().map(|s| s.to_string()).collect::<Vec<_>>()),
        json_strings(&failures),
    );
    println!("{meta}");
    if args.trace {
        // the untraced figures of the same run, for reading the table against
        eprintln!("{}", metrics_json(&e2e));
    }
    let correct = failures.is_empty();
    for f in &failures {
        eprintln!("servebench: check failed: {f}");
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(&metrics)
    );
    Ok(())
}

/// `qps` and the latency percentiles, with a JSON note of each one's sample
/// count, samples beyond it and slices, and the names whose samples do not
/// reach ten beyond the percentile. Every family is sampled in the window.
fn end_to_end(
    obs: &Observed,
    workload: Workload,
) -> Result<(Metrics, String, Vec<&'static str>), String> {
    // Per slice of whole cycles (see `Workload::qps_slice_cycles`): the
    // workload's own reads over the time the client spent waiting for them.
    // The closed loop keeps the connection busy, so this is their
    // throughput, without the quantization of counting whole reads and
    // without the interleaved families' time. The median over slices is
    // reported, so a burst of host CPU steal that spans a few slices does
    // not move it; a last, partial slice is left out.
    let steps_per_slice = workload.cycle().len() * workload.qps_slice_cycles();
    let window: Vec<&Record> = obs.records.iter().filter(|r| r.phase == Phase::Window).collect();
    let full = (window.len() / steps_per_slice).max(1);
    let mut per_slice = vec![(0usize, 0.0f64); full];
    for (i, r) in window.iter().enumerate() {
        if let (true, Some((n, busy))) =
            (workload.primary(r.slot), per_slice.get_mut(i / steps_per_slice))
        {
            *n += 1;
            *busy += (r.done - r.sent).as_secs_f64();
        }
    }
    let rates: Vec<f64> =
        per_slice.iter().filter(|s| s.0 > 0).map(|&(n, busy)| n as f64 / busy).collect();
    let mut metrics: Metrics = vec![("qps", stats::median(&rates).ok_or("empty window")?, "1/s")];

    // One family per kind and cache outcome, each with its median and p90.
    // Only the medians and the explain-miss p90 are end-to-end metrics: the
    // other p90s moved by more than any usable bound between runs while the
    // host was busy (see README.md), so they are recorded in the metadata
    // only.
    // Explain misses cycle through a fixed list of keys with different
    // costs, so their slices hold whole rounds of it.
    let families = [
        (Kind::Explain, Outcome::Hit, ["explain_hit_p50_ms", "explain_hit_p90_ms"], false, 1),
        (Kind::Query, Outcome::Hit, ["query_hit_p50_ms", "query_hit_p90_ms"], false, 1),
        (
            Kind::Explain,
            Outcome::Miss,
            ["explain_miss_p50_ms", "explain_miss_p90_ms"],
            true,
            workload.explain_period(),
        ),
        (Kind::Node, Outcome::Miss, ["node_miss_p50_ms", "node_miss_p90_ms"], false, 1),
        (Kind::Mutate, Outcome::Miss, ["mutate_p50_ms", "mutate_p90_ms"], false, 1),
    ];
    let quartile = |p| stats::percentile(&rates, p).map_or(0.0, |q| q.value);
    let mut notes = format!(
        "\"qps\":{{\"slices\":{},\"q1\":{:.1},\"q3\":{:.1}}}",
        rates.len(),
        quartile(0.25),
        quartile(0.75)
    );
    let mut short = Vec::new();
    for (kind, outcome, names, tail_is_metric, period) in families {
        let lat: Vec<f64> = window
            .iter()
            .filter(|r| r.kind == kind && r.outcome == outcome)
            .map(|r| r.latency_ms())
            .collect();
        for ((name, p), is_metric) in names.into_iter().zip([0.5, 0.9]).zip([true, tail_is_metric])
        {
            // Cut into equal-count slices in send order; the percentile is
            // the median of the slices' percentiles, so a slow stretch of
            // the host confined to a few slices barely moves it.
            let slices = stats::slices_for(lat.len(), p, period);
            let pct = stats::sliced_percentile(&lat, p, slices, period)
                .ok_or_else(|| format!("no samples for {name}"))?;
            if !pct.supported() {
                short.push(name);
            }
            let _ = write!(
                notes,
                ",\"{name}\":{{\"value\":{},\"n\":{},\"beyond\":{},\"slices\":{slices}}}",
                pct.value, pct.n, pct.beyond
            );
            if is_metric {
                metrics.push((name, pct.value, "ms"));
            }
        }
    }
    Ok((metrics, notes, short))
}

/// Per-kind operation counts as JSON, plus the totals the result carries.
fn accounting(records: &[Record]) -> (usize, usize, String) {
    let mut by_kind: BTreeMap<&str, [usize; 5]> = BTreeMap::new();
    for r in records {
        let c = by_kind.entry(r.kind.name()).or_default();
        c[0] += 1;
        match r.outcome {
            Outcome::Hit | Outcome::Miss => c[1] += 1,
            Outcome::Failed => c[2] += 1,
            Outcome::Busy => c[3] += 1,
            Outcome::Io => c[4] += 1,
        }
    }
    let mut json = String::from("{");
    for (i, (kind, c)) in by_kind.iter().enumerate() {
        let _ = write!(
            json,
            "{}\"{kind}\":{{\"attempted\":{},\"ok\":{},\"failed\":{},\"busy\":{},\"io_errors\":{}}}",
            if i == 0 { "" } else { "," },
            c[0],
            c[1],
            c[2],
            c[3],
            c[4]
        );
    }
    json.push('}');
    let attempted = records.len();
    let failed = records.iter().filter(|r| !r.ok()).count();
    (attempted, failed, json)
}

struct Layers {
    metrics: Metrics,
    mismatches: u64,
}

/// The traced run: an untraced and a traced in-process replay of the same
/// operations, then the per-layer table.
fn per_layer(
    plan: &traffic::Plan,
    obs: &Observed,
    store: &Path,
    args: &Args,
) -> Result<Layers, String> {
    let ops = trace::replay_ops(obs, TRACE_PREFIX_S);
    let plain = trace::replay(plan, obs, &ops, store, false);
    let traced = trace::replay(plan, obs, &ops, store, true);
    let spans = &traced.spans;
    let out = PathBuf::from(".servebench").join(format!("trace-{}.jsonl", args.workload.name()));
    trace::write_spans(&out, spans).map_err(|e| format!("write {}: {e}", out.display()))?;

    let totals = trace::by_name(spans);
    let mean_ms = |name: &str| {
        totals.get(name).map_or(0.0, |&(calls, dur, _)| dur as f64 / calls.max(1) as f64 / 1e6)
    };
    let c = &traced.counts;
    let reads = c.reads.max(1) as f64;
    let protocol_self = totals.get("serve.protocol").map_or(0, |t| t.2);

    // Per replayed op: time inside layer spans (everything but the root's
    // own self time) and the protocol + cache time of hits.
    let own = trace::self_times(spans);
    let mut layer_ns = vec![0u64; ops.len()];
    let mut edge_ns = vec![0u64; ops.len()];
    for (s, own) in spans.iter().zip(&own) {
        if s.name != "request" {
            layer_ns[s.op] += own;
        }
        if s.name == "serve.protocol" || s.name == "serve.cache" {
            edge_ns[s.op] += own;
        }
    }
    let (mut client_sum, mut layer_sum, mut n_window) = (0.0, 0.0, 0usize);
    let (mut transport_sum, mut n_hits) = (0.0, 0usize);
    for (i, r) in ops.iter().enumerate() {
        if r.kind == Kind::Mutate {
            continue;
        }
        let client_us = r.latency_ms() * 1e3;
        if r.phase == Phase::Window {
            client_sum += client_us;
            layer_sum += layer_ns[i] as f64 / 1e3;
            n_window += 1;
        }
        if traced.hit[i] && r.outcome == Outcome::Hit {
            transport_sum += client_us - edge_ns[i] as f64 / 1e3;
            n_hits += 1;
        }
    }
    // Same operations, same order, fresh state each pass: the per-operation
    // difference is the tracing cost plus noise, and its median drops the
    // noise of the few long operations.
    let diffs: Vec<f64> =
        traced.op_ns.iter().zip(&plain.op_ns).map(|(&t, &p)| (t as f64 - p as f64) / 1e3).collect();
    let overhead_us = stats::median(&diffs).unwrap_or(0.0);

    let (w0, w1) = obs.cache_window;
    let lookups = (w1.hits + w1.misses).saturating_sub(w0.hits + w0.misses);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let metrics = vec![
        ("serve.protocol.us", protocol_self as f64 / 1e3 / reads, "us"),
        ("serve.protocol.resp_kib", c.resp_bytes as f64 / 1024.0 / reads, "KiB"),
        ("serve.transport_us", transport_sum / n_hits.max(1) as f64, "us"),
        ("serve.cache.hit_ratio", ratio(w1.hits - w0.hits, lookups), "ratio"),
        ("serve.cache.evictions", (w1.evictions - w0.evictions) as f64, "count"),
        ("serve.answer.explain_ms", mean_ms("serve.answer.explain"), "ms"),
        ("serve.answer.node_ms", mean_ms("serve.answer.node"), "ms"),
        ("serve.answer.query_us", mean_ms("serve.answer.query") * 1e3, "us"),
        ("core.predict_all_ms", mean_ms("core.predict_all"), "ms"),
        ("core.explain_graph_ms", mean_ms("core.explain_graph"), "ms"),
        ("core.summarize_ms", mean_ms("core.summarize"), "ms"),
        ("core.node_ms", mean_ms("core.node"), "ms"),
        ("core.pool.warm_ratio", ratio(c.warm_leases, c.leases), "ratio"),
        ("gnn.trace_cache.hit_ratio", ratio(c.trace_hits, c.trace_hits + c.trace_misses), "ratio"),
        ("ingest.apply_ms", mean_ms("ingest.apply"), "ms"),
        ("ingest.publish_us", mean_ms("ingest.publish") * 1e3, "us"),
        ("ingest.patched_ratio", ratio(c.patched, c.patched + c.recomputed), "ratio"),
        ("serve.state.rebuild_ms", mean_ms("serve.state.rebuild"), "ms"),
        ("unattributed_us", (client_sum - layer_sum) / n_window.max(1) as f64, "us"),
        ("trace.overhead_us", overhead_us, "us"),
    ];
    Ok(Layers { metrics, mismatches: traced.counts.mismatches })
}

fn metrics_json(metrics: &Metrics) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            if i == 0 { "" } else { "," },
            if value.is_finite() { *value } else { 0.0 }
        );
    }
    out.push('}');
    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn json_strings(items: &[String]) -> String {
    let inner: Vec<String> = items.iter().map(|s| format!("\"{}\"", json_escape(s))).collect();
    format!("[{}]", inner.join(","))
}
