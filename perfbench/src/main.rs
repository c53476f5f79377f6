//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one replicated-KV workload for `--seconds` as a series of runs,
//! each on its own sub-seed derived from `--seed` and each in a fresh
//! child process of this binary, and gates every run on the SMR agreement
//! oracle. With `--trace 0` it reports the end-to-end metrics over the
//! whole series; with `--trace 1` it alternates plain and traced runs of
//! the same sub-seed and reports the per-layer metrics. Human-readable
//! lines come first; the last line of standard output is one JSON object.
//! See `README.md`.
//!
//! A fresh process per run matters: run time varies by up to 20% between
//! processes (address-space layout, hash seeds) but little between runs of
//! one process, so only runs in separate processes average that out.

use opcsp_perfbench::{
    cpu_model, nproc, peak_rss_mb, pessimistic, rt_config, rt_world, run_workload, sim_world,
    HostProbe, Run, Workload, REF_NOMINAL_S, RT_LATENCY, RT_WORKERS, SIM_LATENCY,
};
use opcsp_sim::splitmix64;
use opcsp_workloads::replicated_kv::KvOpts;
use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// World builds each run times for `setup_s`; it reports their median.
const SETUP_REPS: usize = 11;

/// Run wall time per batch of the end-to-end rates.
const BATCH_S: f64 = 1.0;

/// No run may outlast this, counted from the start of the invocation.
const HARD_DEADLINE: Duration = Duration::from_secs(150);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    Traced,
    /// Traced, under the pessimistic baseline.
    Pessimistic,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Traced => "traced",
            Mode::Pessimistic => "pessimistic",
        }
    }

    fn parse(s: &str) -> Option<Mode> {
        [Mode::Plain, Mode::Traced, Mode::Pessimistic]
            .into_iter()
            .find(|m| m.name() == s)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a child: run the world of `seed` once in this mode and
    /// report it.
    child: Option<Mode>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (expected one of {names:?})")
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {s} outside (0, 120]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            "--child" => {
                child = Some(
                    Mode::parse(&value).ok_or_else(|| format!("--child {value}: unknown mode"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = match child {
        Some(_) => 0.0,
        None => seconds.ok_or("--seconds is required")?,
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        child,
    })
}

/// The `i`-th run's seed under the benchmark seed.
fn sub_seed(seed: u64, i: u64) -> u64 {
    splitmix64(seed ^ splitmix64(i))
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

// ---------------------------------------------------------------------
// Child: one world, reported as `key value` lines
// ---------------------------------------------------------------------

/// Median time to build the workload's world (processes, builder, engine
/// state), without running it.
fn setup_s(w: Workload, opts: &KvOpts) -> f64 {
    let times = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            if w.is_sim() {
                std::hint::black_box(sim_world(opts, None));
            } else {
                std::hint::black_box(rt_world(opts, rt_config(opts, false), None));
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(times)
}

fn child_main(w: Workload, seed: u64, mode: Mode) {
    let opts = match mode {
        Mode::Pessimistic => pessimistic(&w.opts(seed)),
        _ => w.opts(seed),
    };
    let setup = setup_s(w, &opts);
    let r: Run = run_workload(w, &opts, mode != Mode::Plain);
    let layers = r.layers.unwrap_or_default();
    let p = &r.proto;
    println!("fingerprint vt={} {:?}", r.vt, p);
    if let Some(why) = &r.failure {
        println!("failure {}", why.replace('\n', " "));
    }
    let resolve: Vec<String> = r.resolve_ticks.iter().map(u64::to_string).collect();
    println!("resolve {}", resolve.join(","));
    let fields = [
        ("ops", r.ops as f64),
        ("wall_s", r.wall_s),
        ("cpu_s", r.cpu_s),
        ("host_s", r.host_s()),
        ("vt", r.vt as f64),
        ("oracle_s", r.oracle_s),
        ("forks", p.forks as f64),
        ("commits", p.commits as f64),
        ("aborts", p.aborts as f64),
        ("rollbacks", p.rollbacks as f64),
        ("orphans", p.orphans as f64),
        ("data_messages", p.data_messages as f64),
        ("control_messages", p.control_messages as f64),
        ("guard_bytes", p.guard_bytes as f64),
        ("interner_hits", p.interner.hits as f64),
        ("interner_misses", p.interner.misses as f64),
        ("checkpoints_taken", r.checkpoints_taken as f64),
        ("replayed_steps", r.replayed_steps as f64),
        ("retransmits", r.retransmits as f64),
        ("acks", r.acks as f64),
        ("events", r.events as f64),
        ("value_faults", r.value_faults as f64),
        ("time_faults", r.time_faults as f64),
        ("root_faults", r.root_faults as f64),
        ("steps", layers.steps as f64),
        ("step_s", layers.step_s),
        ("clones", layers.clones as f64),
        ("clone_s", layers.clone_s),
        ("drop_s", layers.drop_s),
        ("setup_s", setup),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    for (k, v) in fields {
        println!("{k} {v}");
    }
}

// ---------------------------------------------------------------------
// Parent: spawn runs, gate them, aggregate
// ---------------------------------------------------------------------

/// One run as its child reported it.
struct Sample {
    /// Virtual completion time and `ProtoStats`, for exact comparison.
    fingerprint: String,
    failure: Option<String>,
    resolve: Vec<u64>,
    v: BTreeMap<String, f64>,
}

impl Sample {
    fn get(&self, k: &str) -> f64 {
        self.v.get(k).copied().unwrap_or(0.0)
    }

    fn copy_s(&self) -> f64 {
        self.get("clone_s") + self.get("drop_s")
    }

    fn parse(out: &str) -> Sample {
        let mut s = Sample {
            fingerprint: String::new(),
            failure: None,
            resolve: Vec::new(),
            v: BTreeMap::new(),
        };
        for line in out.lines() {
            let (k, v) = line.split_once(' ').unwrap_or((line, ""));
            match k {
                "fingerprint" => s.fingerprint = v.to_string(),
                "failure" => s.failure = Some(v.to_string()),
                "resolve" => s.resolve = v.split(',').filter_map(|x| x.parse().ok()).collect(),
                _ => {
                    if let Ok(x) = v.parse::<f64>() {
                        s.v.insert(k.to_string(), x);
                    }
                }
            }
        }
        if s.fingerprint.is_empty() && s.failure.is_none() {
            s.failure = Some("the run reported nothing".into());
        }
        s
    }
}

/// Run one world in a fresh child process, killing it at `deadline`.
fn spawn_run(w: Workload, seed: u64, mode: Mode, deadline: Instant) -> Sample {
    let exe = std::env::current_exe().expect("path of the running benchmark binary");
    let spawned = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--child", mode.name()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn();
    let mut child = match spawned {
        Ok(c) => c,
        Err(e) => return Sample::parse(&format!("failure cannot spawn the run: {e}")),
    };
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let mut stderr = child.stderr.take().expect("stderr is piped");
    // Drain both pipes while waiting, so a chatty child cannot block.
    std::thread::scope(|scope| {
        let out = scope.spawn(move || {
            let mut s = String::new();
            let _ = stdout.read_to_string(&mut s);
            s
        });
        let err = scope.spawn(move || {
            let mut s = String::new();
            let _ = stderr.read_to_string(&mut s);
            s
        });
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if Instant::now() >= deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break Err("killed at the benchmark's deadline".to_string());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => break Err(format!("waiting for the run: {e}")),
            }
        };
        let mut sample = Sample::parse(&out.join().expect("stdout reader"));
        let err = err.join().expect("stderr reader");
        let died = match status {
            Ok(st) if st.success() => None,
            Ok(st) => Some(format!("the run exited with {st}")),
            Err(e) => Some(e),
        };
        if let Some(why) = died {
            let tail: Vec<&str> = err.lines().rev().take(3).collect();
            sample.failure = Some(format!("{why}: {}", tail.join(" | ")));
        }
        sample
    })
}

/// Everything one invocation tallies for the gate.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    /// Why the output is not correct: failed runs, and sim runs that
    /// should repeat exactly but did not.
    incorrect: Vec<String>,
}

impl Gate {
    fn admit(&mut self, label: &str, s: &Sample) {
        println!(
            "run {label}: wall_s={} cpu_s={} vt={} forks={} aborts={} rollbacks={}",
            s.get("wall_s"),
            s.get("cpu_s"),
            s.get("vt"),
            s.get("forks"),
            s.get("aborts"),
            s.get("rollbacks")
        );
        let ops = s.get("ops") as u64;
        self.attempted += ops;
        if let Some(why) = &s.failure {
            self.failed += ops;
            println!("run {label} FAILED: {why}");
            self.incorrect.push(format!("{label}: {why}"));
        }
    }

    /// Two runs of one sim world must agree exactly on virtual time and
    /// protocol counts.
    fn same(&mut self, what: &str, a: &Sample, b: &Sample) {
        if a.fingerprint != b.fingerprint {
            self.incorrect
                .push(format!("{what}: {} vs {}", a.fingerprint, b.fingerprint));
        }
    }
}

type Metric = (&'static str, f64, &'static str);

/// Consecutive runs holding at least `BATCH_S` of run wall time (the last
/// may hold less), with the host's slowness while they ran: the reference
/// mix's time around them over `REF_NOMINAL_S`.
struct Batch<'a> {
    runs: Vec<&'a Sample>,
    slowness: f64,
}

impl Batch<'_> {
    fn sum(&self, f: impl Fn(&Sample) -> f64) -> f64 {
        self.runs.iter().map(|s| f(s)).sum()
    }
}

fn end_to_end(args: &Args, gate: &mut Gate, deadline: Instant) -> Vec<Metric> {
    let w = args.workload;
    let start = Instant::now();
    // The program's speed follows the host's drift; time the reference
    // mix between batches, so each batch is scaled by the host speed it
    // ran at.
    let probe = HostProbe::default();
    let mut refs: Vec<f64> = vec![probe.time()];
    let mut runs: Vec<Sample> = Vec::new();
    // Batch k is runs[ends[k - 1]..ends[k]], with refs k and k + 1 around it.
    let mut ends: Vec<usize> = Vec::new();
    let mut batch_wall = 0.0;
    // Sim runs 0 and 1 share a seed: the exact-repeat guard.
    let min_runs = if w.is_sim() { 2 } else { 1 };
    while runs.len() < min_runs || start.elapsed().as_secs_f64() < args.seconds {
        let i = runs.len() as u64;
        let s = sub_seed(args.seed, if w.is_sim() && i == 1 { 0 } else { i });
        let r = spawn_run(w, s, Mode::Plain, deadline);
        gate.admit(&format!("#{i} seed {s}"), &r);
        batch_wall += r.get("wall_s");
        runs.push(r);
        if batch_wall >= BATCH_S {
            ends.push(runs.len());
            refs.push(probe.time());
            batch_wall = 0.0;
        }
    }
    if ends.last() != Some(&runs.len()) {
        ends.push(runs.len());
        refs.push(probe.time());
    }
    if w.is_sim() {
        gate.same("exact-repeat guard", &runs[0], &runs[1]);
    }
    println!(
        "runs={} batches={} measured_s={:.3}",
        runs.len(),
        ends.len(),
        start.elapsed().as_secs_f64()
    );
    // Rates come from runs that passed the gate, or from every run when
    // none did (the gate already reports the failure).
    let all_failed = runs.iter().all(|s| s.failure.is_some());
    let batches: Vec<Batch> = ends
        .iter()
        .enumerate()
        .map(|(k, &end)| {
            let begin = if k == 0 { 0 } else { ends[k - 1] };
            let b = Batch {
                runs: runs[begin..end]
                    .iter()
                    .filter(|s| all_failed || s.failure.is_none())
                    .collect(),
                slowness: (refs[k] + refs[k + 1]) / 2.0 / REF_NOMINAL_S,
            };
            println!(
                "batch {k}: runs={} raw_ops_per_s={} slowness={}",
                b.runs.len(),
                b.sum(|s| s.get("ops")) / b.sum(|s| s.get("wall_s")),
                b.slowness
            );
            b
        })
        .filter(|b| !b.runs.is_empty())
        .collect();
    // Rates are taken per batch and the median reported: a batch averages
    // the seed-to-seed swings of short worlds, and the median drops
    // batches the scaling did not fully correct.
    let per_batch = |f: &dyn Fn(&Batch) -> f64| median(batches.iter().map(f).collect());
    let ops = |b: &Batch| b.sum(|s| s.get("ops"));
    let ops_per_s = per_batch(&|b| ops(b) * b.slowness / b.sum(|s| s.get("wall_s")));
    let cpu_ms_per_kop =
        per_batch(&|b| b.sum(|s| s.get("cpu_s")) * 1e6 / (ops(b) * b.slowness));
    // Virtual time repeats exactly, so it needs no median. On rt a tick is
    // `RT_LATENCY / SIM_LATENCY` of wall time: the sim's tick-to-latency
    // ratio.
    let vt_ops_per_ktick = if w.is_sim() {
        let sum = |f: &dyn Fn(&Batch) -> f64| batches.iter().map(f).sum::<f64>();
        sum(&ops) * 1000.0 / sum(&|b| b.sum(|s| s.get("vt")))
    } else {
        ops_per_s * 1000.0 * RT_LATENCY.as_secs_f64() / SIM_LATENCY as f64
    };
    let setup_s = per_batch(&|b| {
        median(b.runs.iter().map(|s| s.get("setup_s")).collect()) / b.slowness
    });
    vec![
        ("ops_per_s", ops_per_s, "ops/s"),
        ("vt_ops_per_ktick", vt_ops_per_ktick, "ops/ktick"),
        ("cpu_ms_per_kop", cpu_ms_per_kop, "ms/kop"),
        (
            "peak_rss_mb",
            per_batch(&|b| b.runs.iter().map(|s| s.get("peak_rss_mb")).fold(0.0, f64::max)),
            "MiB",
        ),
        ("setup_s", setup_s, "s"),
    ]
}

fn per_layer(args: &Args, gate: &mut Gate, deadline: Instant) -> Vec<Metric> {
    let w = args.workload;
    let start = Instant::now();
    let (mut plain, mut traced): (Vec<Sample>, Vec<Sample>) = (Vec::new(), Vec::new());
    let probe = HostProbe::default();
    let mut refs: Vec<f64> = Vec::new();
    while traced.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        refs.push(probe.time());
        let i = traced.len() as u64;
        let s = sub_seed(args.seed, i);
        // Alternate which goes first so drift does not favour one side.
        let (p, t) = if i.is_multiple_of(2) {
            let p = spawn_run(w, s, Mode::Plain, deadline);
            (p, spawn_run(w, s, Mode::Traced, deadline))
        } else {
            let t = spawn_run(w, s, Mode::Traced, deadline);
            (spawn_run(w, s, Mode::Plain, deadline), t)
        };
        gate.admit(&format!("plain #{i} seed {s}"), &p);
        gate.admit(&format!("traced #{i} seed {s}"), &t);
        if w.is_sim() {
            gate.same("wrapper transparency", &p, &t);
        }
        plain.push(p);
        traced.push(t);
    }
    let s0 = sub_seed(args.seed, 0);
    let pess = spawn_run(w, s0, Mode::Pessimistic, deadline);
    gate.admit(&format!("pessimistic seed {s0}"), &pess);
    println!(
        "pairs={} measured_s={:.3}",
        traced.len(),
        start.elapsed().as_secs_f64()
    );

    let n = traced.len() as f64;
    let sum = |k: &str| traced.iter().map(|s| s.get(k)).sum::<f64>();
    let mean = |k: &str| sum(k) / n;
    let host = sum("host_s");
    let copy: f64 = traced.iter().map(Sample::copy_s).sum();
    let engine = host - sum("step_s") - copy;
    let msgs = sum("data_messages") + sum("control_messages");
    let ops = sum("ops");
    let mut resolve: Vec<u64> = traced
        .iter()
        .flat_map(|s| s.resolve.iter().copied())
        .collect();
    resolve.sort_unstable();
    let ops_per_s =
        |ss: &[Sample]| median(ss.iter().map(|s| s.get("ops") / s.get("wall_s")).collect());
    let cpu_util = if w.is_sim() {
        0.0
    } else {
        ratio(sum("cpu_s"), sum("wall_s") * RT_WORKERS as f64)
    };
    let lookups = sum("interner_hits") + sum("interner_misses");
    vec![
        ("run.host_s", host / n, "s"),
        ("behavior.steps", mean("steps"), "count"),
        ("behavior.self_s", mean("step_s"), "s"),
        (
            "behavior.steps_per_op",
            ratio(sum("steps"), ops),
            "steps/op",
        ),
        (
            "behavior.useful_frac",
            ratio(pess.get("steps"), traced[0].get("steps")),
            "ratio",
        ),
        ("checkpoint.clones", mean("clones"), "count"),
        ("checkpoint.clone_s", mean("clone_s"), "s"),
        ("checkpoint.drop_s", mean("drop_s"), "s"),
        ("checkpoint.frac", ratio(copy, host), "ratio"),
        ("checkpoint.taken", mean("checkpoints_taken"), "count"),
        ("checkpoint.replayed_steps", mean("replayed_steps"), "count"),
        ("engine.self_s", engine / n, "s"),
        ("engine.self_frac", ratio(engine, host), "ratio"),
        (
            "engine.ns_per_event",
            ratio(engine * 1e9, sum("events")),
            "ns",
        ),
        (
            "engine.us_per_ctrl_msg",
            ratio(engine * 1e6, sum("control_messages")),
            "us",
        ),
        ("core.forks", mean("forks"), "count"),
        ("core.commits", mean("commits"), "count"),
        ("core.aborts", mean("aborts"), "count"),
        ("core.rollbacks", mean("rollbacks"), "count"),
        ("core.orphans", mean("orphans"), "count"),
        ("core.value_faults", mean("value_faults"), "count"),
        ("core.time_faults", mean("time_faults"), "count"),
        (
            "core.ctrl_msgs_per_op",
            ratio(sum("control_messages"), ops),
            "msgs/op",
        ),
        (
            "core.commit_frac",
            ratio(sum("commits"), sum("forks")),
            "ratio",
        ),
        (
            "core.cascade",
            ratio(sum("aborts"), sum("root_faults")),
            "ratio",
        ),
        (
            "core.guard_bytes_per_msg",
            ratio(sum("guard_bytes"), msgs),
            "B/msg",
        ),
        (
            "core.interner_hit_frac",
            ratio(sum("interner_hits"), lookups),
            "ratio",
        ),
        ("guess.resolve_p50", percentile(&resolve, 0.50), "tick"),
        ("guess.resolve_p99", percentile(&resolve, 0.99), "tick"),
        ("net.retransmits", mean("retransmits"), "count"),
        ("net.acks", mean("acks"), "count"),
        (
            "net.retx_per_frame",
            ratio(sum("retransmits"), msgs),
            "ratio",
        ),
        ("rt.cpu_util", cpu_util, "ratio"),
        ("kv.oracle_s", mean("oracle_s"), "s"),
        ("host.ref_s", median(refs), "s"),
        (
            "trace.overhead_frac",
            1.0 - ratio(ops_per_s(&traced), ops_per_s(&plain)),
            "ratio",
        ),
    ]
}

/// A JSON number: finite, with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    if let Some(mode) = args.child {
        child_main(w, args.seed, mode);
        return;
    }
    let cores = nproc();
    println!(
        "workload={} seed={} seconds={} trace={} nproc={} cpu=\"{}\"",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cores,
        cpu_model()
    );
    if !w.is_sim() {
        println!("rt executor=sharded workers={RT_WORKERS} latency={RT_LATENCY:?}");
        if RT_WORKERS > cores {
            eprintln!("perfbench: {RT_WORKERS} rt workers exceed the {cores} available cores");
            std::process::exit(3);
        }
    }
    let deadline = start + HARD_DEADLINE;
    let mut gate = Gate::default();
    let metrics = if args.trace {
        per_layer(&args, &mut gate, deadline)
    } else {
        end_to_end(&args, &mut gate, deadline)
    };
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    println!(
        "attempted_ops={} failed_ops={} failed_frac={}",
        gate.attempted,
        gate.failed,
        ratio(gate.failed as f64, gate.attempted as f64)
    );
    for why in &gate.incorrect {
        println!("INCORRECT {why}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.incorrect.is_empty(),
        gate.attempted,
        gate.failed,
        body.join(", ")
    );
}
