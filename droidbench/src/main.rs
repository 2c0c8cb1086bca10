//! droidbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path droidbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--held-out]
//! ```
//!
//! Run from the repository root. With `--trace 0` it measures the
//! end-to-end metrics of one workload; with `--trace 1` the per-layer
//! metrics, from a separate traced run. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! The line before it carries the run's metadata. See README.md.

mod mirror;
mod net;
mod stats;
mod store;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;
use workloads::{Campaign, Workload};

/// The seed `--held-out` substitutes: kept out of every run made while
/// writing a change, so a claim can be confirmed on inputs it was not
/// tuned on.
const HELD_OUT_SEED: u64 = 0x5EED_4E1D;
/// Set-up probes before, and cold-recovery probes after, each campaign
/// (engines boot in about a millisecond and get more).
const ENGINE_SETUP_PROBES: usize = 15;
const FLEET_SETUP_PROBES: usize = 10;
const RECOVERY_PROBES: usize = 9;
/// The percentile a run reports of its set-up and recovery probes. A
/// probe takes 1–30 ms, so load from outside can only lengthen it, and
/// on a shared host it often does; a low percentile of many probes
/// tracks the probed cost itself more steadily than the median.
const PROBE_PERCENTILE: u32 = 10;
/// Passes over the panel every run makes: the output checks need each
/// seed to repeat.
const MIN_PASSES: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    held_out: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: droidbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--held-out]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut held_out = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--held-out" {
            held_out = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seed: u64 = seed.ok_or("missing --seed")?;
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: if held_out { HELD_OUT_SEED } else { seed },
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        held_out,
    })
}

/// One named measurement with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
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

fn json_list<T: std::fmt::Display>(items: impl Iterator<Item = T>) -> String {
    format!(
        "[{}]",
        items.map(|x| x.to_string()).collect::<Vec<_>>().join(",")
    )
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Outcome of one run: the figures, plus the operation and check tallies.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    info: Vec<(String, String)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Report {
    fn info(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.push((key.to_owned(), value.to_string()));
    }

    /// Counts one benchmark operation, keeping its error if it failed.
    fn op<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.errors.push(e);
                None
            }
        }
    }
}

/// Peak resident set of this process, from the kernel's high-water mark.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn median(v: &[f64]) -> f64 {
    stats::median(v).unwrap_or(f64::NAN)
}

/// Campaign seed `i` of the panel for `--seed`: panels of different
/// seeds never overlap.
fn panel_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(workloads::PANEL as u64)
        .wrapping_add(i as u64)
}

/// One campaign of a panel seed with the set-up probes before it and
/// the cold-recovery probes after it.
struct SeedRun {
    setups: Vec<Result<f64, String>>,
    campaign: Result<Campaign, String>,
    recovery: Vec<Result<workloads::Recovery, String>>,
}

fn seed_run(w: Workload, seed: u64) -> SeedRun {
    let probes = if w.is_engine() {
        ENGINE_SETUP_PROBES
    } else {
        FLEET_SETUP_PROBES
    };
    let setups = (0..probes)
        .map(|_| workloads::setup_once(w, seed))
        .collect();
    let campaign = workloads::run_campaign(w, seed);
    let recovery = match &campaign {
        Ok(c) => (0..RECOVERY_PROBES)
            .map(|_| workloads::recovery_once(w, seed, c))
            .collect(),
        Err(_) => Vec::new(),
    };
    // Keep only the figures, so that memory held by the benchmark does
    // not grow with the number of repeats.
    let campaign = campaign.map(|mut c| {
        c.store = None;
        c.persisted = String::new();
        c
    });
    SeedRun {
        setups,
        campaign,
        recovery,
    }
}

/// End-to-end run: whole passes over the panel, at least
/// [`MIN_PASSES`] and more until `seconds` have passed, each campaign
/// with set-up probes before and cold-recovery probes after it; then the
/// output checks. Whole passes give every seed the same number of
/// campaigns, so pooled figures weigh every seed alike.
///
/// An engine campaign is single-threaded, so engine seeds run
/// [`workloads::THREADS`] at a time, one per core: the host's cores do
/// not run at the same speed from minute to minute, and a panel spread
/// over all of them is steadier than one that lands on whichever core
/// the scheduler picks. Fleet and hub campaigns use every core already
/// and run one at a time.
///
/// Timings are reduced per panel seed and then averaged, or pooled over
/// whole passes, so every seed weighs alike however many passes fit into
/// `seconds` on a given host.
fn run_plain(args: &Args, rep: &mut Report) {
    let w = args.workload;
    let k = workloads::PANEL;
    let lanes = if w.is_engine() { workloads::THREADS } else { 1 };
    // Per panel seed i: its set-up probes, campaigns and recovery probes.
    let mut setups: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut runs: Vec<Vec<Campaign>> = vec![Vec::new(); k];
    let mut recovery: Vec<Vec<workloads::Recovery>> = vec![Vec::new(); k];
    let start = Instant::now();
    // Each lane takes the next campaign as soon as its last one is done,
    // so the cores stay equally loaded; a new pass starts only while time
    // is left. Short probes are spread over the whole run, between
    // campaigns, so that a burst of load from outside does not hit all of
    // them at once. `next` holds the next campaign number, or `None` once
    // the run has stopped.
    let next = Mutex::new(Some(0usize));
    let take = || {
        let mut next = next.lock().expect("lane panicked");
        let n = (*next)?;
        let pass_ends = n % k == 0 && n >= MIN_PASSES * k;
        *next = if pass_ends && start.elapsed().as_secs_f64() >= args.seconds {
            None
        } else {
            Some(n + 1)
        };
        next.map(|_| n % k)
    };
    let done: Mutex<Vec<(usize, SeedRun)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..lanes {
            scope.spawn(|| {
                while let Some(i) = take() {
                    let run = seed_run(w, panel_seed(args.seed, i));
                    let failed = run.campaign.is_err();
                    done.lock().expect("lane panicked").push((i, run));
                    if failed {
                        *next.lock().expect("lane panicked") = None;
                    }
                }
            });
        }
    });
    for (i, run) in done.into_inner().expect("lane panicked") {
        for s in run.setups {
            if let Some(s) = rep.op(s) {
                setups[i].push(s);
            }
        }
        let Some(c) = rep.op(run.campaign) else {
            return;
        };
        for r in run.recovery {
            if let Some(r) = rep.op(r) {
                recovery[i].push(r);
            }
        }
        runs[i].push(c);
    }
    for seed_runs in &runs {
        let first = seed_runs[0].fingerprint();
        for c in seed_runs {
            if c.fingerprint() != first {
                rep.errors.push(format!(
                    "repeat gave (execs, blocks, bugs) {:?}, first run {first:?}",
                    c.fingerprint()
                ));
            }
            rep.errors.extend(c.errors.iter().cloned());
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let probe_p = |v: &[f64]| stats::percentile(v, PROBE_PERCENTILE).unwrap_or(f64::NAN);
    // Whole passes give every seed the same number of set-up probes.
    let setup_s = probe_p(&setups.concat());
    // Recovery time grows with the state read back, which differs up to
    // threefold between seeds; the panel's time per MB does not.
    let recovery_s: Vec<f64> = recovery
        .iter()
        .map(|r| probe_p(&r.iter().map(|x| x.s).collect::<Vec<_>>()))
        .collect();
    let recovery_mb: Vec<f64> = recovery
        .iter()
        .map(|r| r.first().map_or(f64::NAN, |x| x.bytes as f64 / 1e6))
        .collect();

    let firsts: Vec<&Campaign> = runs.iter().map(|r| &r[0]).collect();
    let sum = |f: &dyn Fn(&Campaign) -> f64| firsts.iter().map(|c| f(c)).sum::<f64>();
    // Fleet and hub campaign walls include their start-up; each seed's
    // set-up median is taken out again.
    let startup: Vec<f64> = setups
        .iter()
        .map(|s| if w.is_engine() { 0.0 } else { median(s) })
        .collect();
    let walls: Vec<f64> = runs
        .iter()
        .zip(&startup)
        .map(|(r, &startup)| median(&r.iter().map(|c| c.wall_s).collect::<Vec<_>>()) - startup)
        .collect();
    let execs = sum(&|c| c.execs as f64);
    // Round medians: per seed over all its campaigns' rounds, then the
    // mean over seeds.
    let round_p50: Vec<f64> = runs
        .iter()
        .map(|r| {
            median(
                &r.iter()
                    .flat_map(|c| c.rounds_ms.iter().copied())
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    // The tail needs at least ten rounds beyond it, and a fleet campaign
    // has only 31, so it pools the rounds of every campaign of the run;
    // whole passes weigh every seed alike. The percentile is fixed by the
    // fewest rounds a run can pool, so it is the same on every run, and a
    // stall that delays fewer than ten rounds cannot set it.
    let all_rounds: Vec<f64> = runs
        .iter()
        .flatten()
        .flat_map(|c| c.rounds_ms.iter().copied())
        .collect();
    let tail_p = stats::tail_percentile(MIN_PASSES * k * w.round_samples())
        .expect("a run pools enough rounds");
    let round_tail = stats::tail_at(&all_rounds, tail_p).unwrap_or(f64::NAN);
    let failed = sum(&|c| c.failed_ops as f64);
    let attempted = sum(&|c| c.attempted_ops as f64);

    rep.metrics = vec![
        metric("execs_per_s", execs / walls.iter().sum::<f64>(), "1/s"),
        metric("setup_s", setup_s, "s"),
        metric(
            "kernel_blocks",
            sum(&|c| c.kernel_blocks as f64) / k as f64,
            "count",
        ),
        metric("bugs", sum(&|c| c.bugs as f64) / k as f64, "count"),
        metric("ok_ratio", 1.0 - failed / attempted.max(1.0), "ratio"),
        metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB"),
        metric("round_ms_p50", mean(&round_p50), "ms"),
        metric("round_ms_tail", round_tail, "ms"),
    ];
    let per_seed = |f: &dyn Fn(&Campaign) -> String| json_list(firsts.iter().map(|c| f(c)));
    let rates: Vec<f64> = runs
        .iter()
        .zip(&startup)
        .flat_map(|(r, &startup)| r.iter().map(move |c| c.execs as f64 / (c.wall_s - startup)))
        .collect();
    rep.info(
        "panel_seeds",
        json_list((0..k).map(|i| panel_seed(args.seed, i))),
    );
    rep.info("lanes", lanes);
    rep.info("repeats", json_list(runs.iter().map(Vec::len)));
    rep.info("execs", per_seed(&|c| c.execs.to_string()));
    rep.info("kernel_blocks", per_seed(&|c| c.kernel_blocks.to_string()));
    rep.info("bugs", per_seed(&|c| c.bugs.to_string()));
    // Recovery time is printed but not gated: on the host the benchmark
    // was sized on, it swung with outside load about twice as far as the
    // gated timings, beyond the largest allowed bound.
    rep.info(
        "recovery_ms_per_mb",
        json_num(1e3 * recovery_s.iter().sum::<f64>() / recovery_mb.iter().sum::<f64>()),
    );
    rep.info(
        "recovery_s",
        json_list(recovery_s.iter().map(|&s| json_num(s))),
    );
    rep.info(
        "recovery_mb",
        json_list(recovery_mb.iter().map(|&mb| json_num(mb))),
    );
    rep.info(
        "round_ms_p50",
        json_list(round_p50.iter().map(|&ms| json_num(ms))),
    );
    rep.info(
        "campaign_rate_spread",
        json_num(stats::relative_spread(&rates).unwrap_or(f64::NAN)),
    );
    rep.info("failed_ops", failed);
    rep.info("attempted_ops", attempted);
    rep.info("fail_ratio", json_num(failed / attempted.max(1.0)));
    rep.info("setup_probes", setups.iter().map(Vec::len).sum::<usize>());
    rep.info("round_tail_percentile", tail_p);
    rep.info("round_tail_samples", all_rounds.len());
    if w == Workload::HubLoopback {
        rep.info(
            "wire_bytes_per_exec",
            json_num(sum(&|c| c.wire_bytes as f64) / execs),
        );
    }
    rep.info(
        "campaign_wall_s",
        json_list(runs.iter().flatten().map(|c| json_num(c.wall_s))),
    );
}

/// Every per-layer metric name with its unit, in output order.
fn per_layer_schema() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for layer in trace::Layer::ALL {
        names.push((format!("{}.calls", layer.name()), "count"));
        names.push((format!("{}.busy_s", layer.name()), "s"));
    }
    for ratio in [
        "analysis.lint.useful_ratio",
        "analysis.absint.useful_ratio",
        "supervisor.wasted_ratio",
        "feedback.novel_ratio",
        "minimize.useful_ratio",
    ] {
        names.push((ratio.to_owned(), "ratio"));
    }
    names.extend([
        ("trace.span_coverage".to_owned(), "%"),
        ("trace.overhead".to_owned(), "%"),
        ("mirror.execs_per_s".to_owned(), "1/s"),
        ("mirror.kernel_blocks".to_owned(), "count"),
        ("engine.execs_per_s".to_owned(), "1/s"),
        ("engine.kernel_blocks".to_owned(), "count"),
    ]);
    for op in store::Op::ALL {
        names.push((format!("{}.calls", op.name()), "count"));
        names.push((format!("{}.bytes", op.name()), "B"));
        names.push((format!("{}.busy_s", op.name()), "s"));
    }
    names.extend([
        ("store.bytes_per_exec".to_owned(), "B"),
        ("net.frames".to_owned(), "count"),
        ("net.bytes".to_owned(), "B"),
        ("net.send.busy_s".to_owned(), "s"),
        ("net.bytes_per_exec".to_owned(), "B"),
        ("fleet.round.slice_ms".to_owned(), "ms"),
        ("fleet.round.barrier_ms".to_owned(), "ms"),
        ("net.codec.encode_ns".to_owned(), "ns"),
        ("net.codec.decode_ns".to_owned(), "ns"),
    ]);
    names
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Engine layers: the traced mirror and the untraced engine, alternated
/// for `seconds`; the figures come from the median-wall mirror run.
fn trace_engine(w: Workload, seed: u64, seconds: f64, rep: &mut Report) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut mirrors = Vec::new();
    let mut engines = Vec::new();
    let start = Instant::now();
    while mirrors.is_empty() || start.elapsed().as_secs_f64() < seconds {
        rep.attempted += 2;
        mirrors.push(workloads::run_mirror(w, seed));
        engines.push(workloads::run_engine(w, seed));
    }
    mirrors.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (m, wall) = &mirrors[mirrors.len() / 2];
    let engine_walls: Vec<f64> = engines.iter().map(|c| c.wall_s).collect();
    let engine = &engines[0];
    rep.errors.extend(engine.errors.iter().cloned());
    for layer in trace::Layer::ALL {
        let s = m.tracer.stat(layer);
        out.push((format!("{}.calls", layer.name()), s.calls as f64));
        out.push((format!("{}.busy_s", layer.name()), s.self_ns as f64 * 1e-9));
    }
    let c = &m.counts;
    let calls = |l| m.tracer.stat(l).calls;
    out.push((
        "analysis.lint.useful_ratio".into(),
        ratio(c.lint_useful, calls(trace::Layer::Lint)),
    ));
    out.push((
        "analysis.absint.useful_ratio".into(),
        ratio(c.absint_useful, c.absint_gates),
    ));
    out.push((
        "supervisor.wasted_ratio".into(),
        ratio(c.no_outcome, c.supervised),
    ));
    out.push((
        "feedback.novel_ratio".into(),
        ratio(c.novel, c.novelty_checks),
    ));
    out.push(("minimize.useful_ratio".into(), ratio(c.shrunk, c.minimized)));
    out.push((
        "trace.span_coverage".into(),
        100.0 * m.tracer.total_self_ns() as f64 * 1e-9 / wall,
    ));
    let mirror_rate = m.executions() as f64 / wall;
    let engine_rate = engine.execs as f64 / median(&engine_walls);
    out.push((
        "trace.overhead".into(),
        100.0 * (engine_rate / mirror_rate - 1.0),
    ));
    out.push(("mirror.execs_per_s".into(), mirror_rate));
    out.push(("mirror.kernel_blocks".into(), m.kernel_coverage() as f64));
    out.push(("engine.execs_per_s".into(), engine_rate));
    out.push(("engine.kernel_blocks".into(), engine.kernel_blocks as f64));
    rep.info("mirror_runs", mirrors.len());
    rep.info("mirror_execs", m.executions());
    rep.info("mirror_bugs", m.bugs());
    rep.info("engine_execs", engine.execs);
    rep.info("engine_bugs", engine.bugs);
    out
}

/// Per-layer figures of one traced campaign, and its wall time.
type Layers = (f64, Vec<(String, f64)>);

/// Repeats a traced campaign until `seconds` have passed (at least once)
/// and keeps the figures of the run with the median wall time.
fn median_run(
    seconds: f64,
    rep: &mut Report,
    mut once: impl FnMut(&mut Report) -> Option<Layers>,
) -> Vec<(String, f64)> {
    let mut runs = Vec::new();
    let start = Instant::now();
    while runs.is_empty() || start.elapsed().as_secs_f64() < seconds {
        match once(rep) {
            Some(r) => runs.push(r),
            None => break,
        }
    }
    rep.info("traced_runs", runs.len());
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mid = runs.len() / 2;
    runs.into_iter().nth(mid).map(|r| r.1).unwrap_or_default()
}

/// Store layer: a durable campaign on the timing medium, then a cold
/// recovery through it.
fn trace_fleet(w: Workload, seed: u64, rep: &mut Report) -> Option<Layers> {
    let (c, trace) = rep.op(workloads::run_fleet(w, seed, workloads::FLEET_HOURS, true))?;
    rep.errors.extend(c.errors.iter().cloned());
    rep.op(workloads::fleet_recovery(w, seed, &c, &trace));
    let t = store::lock(&trace);
    let mut out = Vec::new();
    let mut bytes = 0;
    for op in store::Op::ALL {
        let s = t.op(op);
        bytes += s.bytes;
        out.push((format!("{}.calls", op.name()), s.calls as f64));
        out.push((format!("{}.bytes", op.name()), s.bytes as f64));
        out.push((format!("{}.busy_s", op.name()), s.busy_ns as f64 * 1e-9));
    }
    let written = bytes - t.op(store::Op::Read).bytes;
    out.push(("store.bytes_per_exec".into(), ratio(written, c.execs)));
    Some((c.wall_s, out))
}

/// Net layer: a hub campaign on the timing transports, then the codec
/// timed on the frames it carried.
fn trace_hub(seed: u64, rep: &mut Report) -> Option<Layers> {
    let run = rep.op(workloads::run_hub(seed, workloads::FLEET_HOURS, true))?;
    rep.errors.extend(run.campaign.errors.iter().cloned());
    let t = net::lock(&run.net);
    let (enc, dec) = rep.op(codec_ns(&t.captured))?;
    let out = vec![
        ("net.frames".into(), t.frames as f64),
        ("net.bytes".into(), t.bytes as f64),
        ("net.send.busy_s".into(), t.send_ns as f64 * 1e-9),
        (
            "net.bytes_per_exec".into(),
            ratio(t.bytes, run.campaign.execs),
        ),
        ("fleet.round.slice_ms".into(), median(&t.slice_ms)),
        ("fleet.round.barrier_ms".into(), median(&t.barrier_ms)),
        ("net.codec.encode_ns".into(), enc),
        ("net.codec.decode_ns".into(), dec),
    ];
    Some((run.campaign.wall_s, out))
}

/// Mean ns per frame to decode (`decode_frame` + `decode_message`) and to
/// re-encode (`encode_message` + `encode_frame`) the captured frames;
/// median of three passes. Re-encoding must reproduce each frame.
fn codec_ns(frames: &[Vec<u8>]) -> Result<(f64, f64), String> {
    use droidfuzz::net::{decode_frame, decode_message, encode_frame, encode_message};
    if frames.is_empty() {
        return Err("no frames captured".to_owned());
    }
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        let mut msgs = Vec::with_capacity(frames.len());
        for f in frames {
            let (seq, payload, _) = decode_frame(f).map_err(|e| format!("decode_frame: {e}"))?;
            let text = std::str::from_utf8(&payload).map_err(|e| format!("payload: {e}"))?;
            msgs.push((
                seq,
                decode_message(text).map_err(|e| format!("decode_message: {e}"))?,
            ));
        }
        dec.push(start.elapsed().as_nanos() as f64 / frames.len() as f64);
        let start = Instant::now();
        let encoded: Vec<Vec<u8>> = msgs
            .iter()
            .map(|(seq, m)| encode_frame(*seq, encode_message(m).as_bytes()))
            .collect();
        enc.push(start.elapsed().as_nanos() as f64 / frames.len() as f64);
        if encoded.as_slice() != frames {
            return Err("re-encoded frames differ from the wire".to_owned());
        }
    }
    Ok((median(&enc), median(&dec)))
}

fn run_traced(args: &Args, rep: &mut Report) {
    let w = args.workload;
    let seed = panel_seed(args.seed, 0);
    let out = match w {
        w if w.is_engine() => trace_engine(w, seed, args.seconds, rep),
        Workload::FleetSim => median_run(args.seconds, rep, |rep| trace_fleet(w, seed, rep)),
        _ => median_run(args.seconds, rep, |rep| trace_hub(seed, rep)),
    };
    // Layers this workload does not run read zero.
    rep.metrics = per_layer_schema()
        .into_iter()
        .map(|(name, unit)| {
            let value = out
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            metric(name, value, unit)
        })
        .collect();
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("droidbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut rep = Report::default();
    let started = Instant::now();
    if args.trace {
        run_traced(&args, &mut rep);
    } else {
        run_plain(&args, &mut rep);
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut meta = vec![
        ("workload".to_owned(), json_str(args.workload.name())),
        ("seed".to_owned(), args.seed.to_string()),
        ("held_out".to_owned(), args.held_out.to_string()),
        ("trace".to_owned(), args.trace.to_string()),
        ("seconds".to_owned(), json_num(args.seconds)),
        ("nproc".to_owned(), nproc.to_string()),
        ("rustc".to_owned(), json_str(env!("DROIDBENCH_RUSTC"))),
        ("commit".to_owned(), json_str(env!("DROIDBENCH_COMMIT"))),
        (
            "run_wall_s".to_owned(),
            json_num(started.elapsed().as_secs_f64()),
        ),
    ];
    meta.append(&mut rep.info);
    if !rep.errors.is_empty() {
        meta.push((
            "errors".to_owned(),
            json_list(rep.errors.iter().map(|e| json_str(e))),
        ));
    }
    let meta: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    println!("{{\"meta\":{{{}}}}}", meta.join(","));

    let complete = !rep.metrics.is_empty() && rep.metrics.iter().all(|m| m.value.is_finite());
    let correct = rep.errors.is_empty() && complete;
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        rep.attempted.max(1),
        rep.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        for e in &rep.errors {
            eprintln!("droidbench: {e}");
        }
        ExitCode::from(1)
    }
}
