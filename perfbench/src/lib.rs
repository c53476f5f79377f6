//! Replicated-KV benchmark: builds the `workloads::replicated_kv` world on
//! the simulator and on the real-thread runtime, runs it, gates every run
//! on the SMR agreement oracle, and measures layers from outside the
//! program — by timing calls into public APIs, wrapping every
//! [`Behavior`] in [`Traced`], and reading the result structs.
//!
//! See `README.md` in this directory for the workloads, the metric
//! glossary and the layer → metric → workload map.

use opcsp_core::{
    CoreConfig, ProtoStats, ResolutionCause, SpeculationPolicy, Telemetry, TelemetryEvent,
};
use opcsp_rt::{Executor, NetFaults, RtConfig, RtTransport, RtWorld};
use opcsp_sim::{Behavior, BehaviorState, Effect, Resume, SimBuilder, World};
use opcsp_workloads::replicated_kv::{
    check_rt_agreement, check_sim_agreement, kv_config, replica_pids, sequencer, zipf_cdf,
    KvClient, KvOpts, Replica, Sequencer,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// OS threads the sharded executor runs the rt workloads on. Fixed here,
/// never taken from `OPCSP_RT_EXECUTOR`, so the environment cannot change
/// a workload.
pub const RT_WORKERS: usize = 2;

/// Injected one-way latency of the rt workloads.
pub const RT_LATENCY: Duration = Duration::from_millis(1);

/// Sim one-way latency in ticks. `vt_ops_per_ktick` on rt counts a tick
/// as `RT_LATENCY / SIM_LATENCY`, so both engines share one tick-to-latency
/// ratio.
pub const SIM_LATENCY: u64 = 50;

/// The benchmark's workloads. The README records why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sim, fixed latency, 16 keys: every guess is right, so host time is
    /// the engine and the commit path (CDG).
    KvSim,
    /// Sim, seeded jitter, 4096 keys: misguesses drive aborts, rollbacks
    /// and checkpoints of a large replica state.
    KvSimJitter,
    /// Sharded rt, one client: pure call streaming on real threads.
    KvRt,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::KvSim, Workload::KvSimJitter, Workload::KvRt];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvSim => "kv-sim",
            Workload::KvSimJitter => "kv-sim-jitter",
            Workload::KvRt => "kv-rt",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn is_sim(self) -> bool {
        !matches!(self, Workload::KvRt)
    }

    /// The world's scenario under `seed`: 3 replicas, gap 20, Zipf 0.99,
    /// 50% writes and the default `CoreConfig` unless stated.
    pub fn opts(self, seed: u64) -> KvOpts {
        let base = KvOpts {
            replicas: 3,
            gap: 20,
            latency: SIM_LATENCY,
            jitter: 0,
            seed,
            keys: 16,
            zipf_s: 0.99,
            write_per_mille: 500,
            core: CoreConfig::default(),
            ..KvOpts::default()
        };
        match self {
            Workload::KvSim => KvOpts {
                clients: 8,
                ops_per_client: 100,
                ..base
            },
            Workload::KvSimJitter => KvOpts {
                clients: 8,
                ops_per_client: 100,
                jitter: 10,
                keys: 4096,
                ..base
            },
            Workload::KvRt => KvOpts {
                clients: 1,
                ops_per_client: 800,
                ..base
            },
        }
    }
}

/// The same scenario under the pessimistic baseline: `CallThenFork`
/// degrades to a blocking call, so no step is ever wasted.
pub fn pessimistic(opts: &KvOpts) -> KvOpts {
    KvOpts {
        core: CoreConfig {
            speculation: SpeculationPolicy::Pessimistic,
            ..opts.core.clone()
        },
        ..opts.clone()
    }
}

/// Every field spelled out, so no default (and no env override) decides
/// the executor, the transport or the timeouts.
pub fn rt_config(opts: &KvOpts, telemetry: bool) -> RtConfig {
    RtConfig {
        core: opts.core.clone(),
        optimism: opts.optimism,
        latency: RT_LATENCY,
        fork_timeout: Duration::from_secs(5),
        compute_unit: Duration::ZERO,
        run_timeout: Duration::from_secs(30),
        faults: NetFaults::none(),
        telemetry,
        executor: Executor::Sharded {
            workers: RT_WORKERS,
        },
        transport: RtTransport::InProc,
    }
}

// ---------------------------------------------------------------------
// Layer clock: the wrapper that times behavior steps and state copies
// ---------------------------------------------------------------------

/// Totals accumulated by every [`Traced`] behavior of one run. Relaxed
/// atomics: each counter is a statistic that publishes no other data.
#[derive(Debug, Default)]
pub struct LayerClock {
    steps: AtomicU64,
    step_ns: AtomicU64,
    clones: AtomicU64,
    clone_ns: AtomicU64,
    drop_ns: AtomicU64,
}

/// A snapshot of a [`LayerClock`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub steps: u64,
    pub step_s: f64,
    pub clones: u64,
    pub clone_s: f64,
    pub drop_s: f64,
}

fn add_ns(counter: &AtomicU64, d: Duration) {
    counter.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
}

impl LayerClock {
    pub fn totals(&self) -> LayerTotals {
        let s = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64 * 1e-9;
        LayerTotals {
            steps: self.steps.load(Ordering::Relaxed),
            step_s: s(&self.step_ns),
            clones: self.clones.load(Ordering::Relaxed),
            clone_s: s(&self.clone_ns),
            drop_s: s(&self.drop_ns),
        }
    }
}

/// Wraps a behavior: times `step`, and hands the engine a state whose
/// clone (checkpoints, fork copies) and drop are timed too. Delegates
/// everything else, so the engine sees the same effects in the same order.
pub struct Traced {
    inner: Arc<dyn Behavior>,
    clock: Arc<LayerClock>,
}

struct TracedState {
    // `Some` until dropped; `Drop` takes it to time the inner drop.
    inner: Option<BehaviorState>,
    clock: Arc<LayerClock>,
}

impl Clone for TracedState {
    fn clone(&self) -> Self {
        let t = Instant::now();
        let inner = self.inner.clone();
        add_ns(&self.clock.clone_ns, t.elapsed());
        self.clock.clones.fetch_add(1, Ordering::Relaxed);
        TracedState {
            inner,
            clock: self.clock.clone(),
        }
    }
}

impl Drop for TracedState {
    fn drop(&mut self) {
        let t = Instant::now();
        drop(self.inner.take());
        add_ns(&self.clock.drop_ns, t.elapsed());
    }
}

impl Behavior for Traced {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(TracedState {
            inner: Some(self.inner.init()),
            clock: self.clock.clone(),
        })
    }

    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect {
        let inner = state
            .get_mut::<TracedState>()
            .inner
            .as_mut()
            .expect("a live traced state holds its inner state");
        let t = Instant::now();
        let effect = self.inner.step(inner, resume);
        add_ns(&self.clock.step_ns, t.elapsed());
        self.clock.steps.fetch_add(1, Ordering::Relaxed);
        effect
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

// ---------------------------------------------------------------------
// World builders
// ---------------------------------------------------------------------

/// The replicated-KV processes in pid order (clients, sequencer,
/// replicas), each flagged as a client or not — the same world
/// `run_replicated_kv` and `rt_kv_world` build, optionally wrapped.
fn kv_processes(opts: &KvOpts, clock: Option<&Arc<LayerClock>>) -> Vec<(Arc<dyn Behavior>, bool)> {
    let cdf = zipf_cdf(opts.keys, opts.zipf_s);
    let mut procs: Vec<(Arc<dyn Behavior>, bool)> = Vec::new();
    for j in 0..opts.clients {
        let client = KvClient {
            index: j,
            clients: opts.clients,
            n: opts.ops_per_client,
            gap: opts.gap,
            seq: sequencer(opts),
            replicas: replica_pids(opts),
            seed: opts.seed,
            write_per_mille: opts.write_per_mille,
            cdf: cdf.clone(),
        };
        procs.push((Arc::new(client), true));
    }
    procs.push((
        Arc::new(Sequencer {
            total: opts.total_ops(),
            compute: opts.seq_compute,
        }),
        false,
    ));
    for r in 0..opts.replicas {
        let replica = Replica::new(format!("R{r}"), opts.total_ops(), opts.replica_compute);
        procs.push((Arc::new(replica), false));
    }
    if let Some(clock) = clock {
        for (b, _) in procs.iter_mut() {
            *b = Arc::new(Traced {
                inner: b.clone(),
                clock: clock.clone(),
            });
        }
    }
    procs
}

pub fn sim_world(opts: &KvOpts, clock: Option<&Arc<LayerClock>>) -> World {
    let mut b = SimBuilder::new(kv_config(opts));
    for (p, _) in kv_processes(opts, clock) {
        b.add_shared(p);
    }
    b.build()
}

pub fn rt_world(opts: &KvOpts, cfg: RtConfig, clock: Option<&Arc<LayerClock>>) -> RtWorld {
    let mut w = RtWorld::new(cfg);
    for (p, is_client) in kv_processes(opts, clock) {
        w.add_process_arc(p, is_client);
    }
    w
}

// ---------------------------------------------------------------------
// Host probes
// ---------------------------------------------------------------------

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("process_cpu_s assumes the 64-bit Linux `struct timespec` layout");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of the whole process (every thread, live or
/// exited), in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec matching the 64-bit Linux
    // layout (two `long`s) for the whole call, and the clock id is a
    // constant every Linux kernel provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------------
// Host speed: a fixed reference mix that shares no code with the program
// ---------------------------------------------------------------------

/// Median seconds [`HostProbe::time`] takes on the host the README's
/// figures come from. The end-to-end rates are scaled to a host this fast.
pub const REF_NOMINAL_S: f64 = 0.35;

/// A fixed, std-only workload timed between batches of runs. A shared
/// host's speed drifts over minutes, and the program — hash maps,
/// `Arc`-shared structures, allocation, clones — feels that drift about
/// three times as much as a plain ALU loop does. The mix exercises the
/// same kinds of work, so its time tracks the drift, and it never runs
/// the repository's code, so a change to the program cannot move it.
pub struct HostProbe {
    /// A random cyclic permutation of 16 MiB of `u32`s for pointer chasing.
    ring: Vec<u32>,
}

enum Tree {
    Leaf(u64),
    Node(Arc<Tree>, Arc<Tree>, Vec<u64>),
}

fn tree(depth: u32, x: u64) -> Arc<Tree> {
    Arc::new(match depth {
        0 => Tree::Leaf(x),
        _ => Tree::Node(tree(depth - 1, 2 * x), tree(depth - 1, 2 * x + 1), vec![x; 3]),
    })
}

fn tree_sum(t: &Tree) -> u64 {
    match t {
        Tree::Leaf(x) => *x,
        Tree::Node(a, b, v) => tree_sum(a)
            .wrapping_add(tree_sum(b))
            .wrapping_add(v[0]),
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Default for HostProbe {
    fn default() -> Self {
        // Sattolo's shuffle: one cycle through every slot.
        let n = 4usize << 20;
        let mut ring: Vec<u32> = (0..n as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15;
        for i in (1..n).rev() {
            let j = (xorshift(&mut x) % i as u64) as usize;
            ring.swap(i, j);
        }
        HostProbe { ring }
    }
}

impl HostProbe {
    /// Wall seconds of one pass of the mix: an ALU chain, a pointer chase
    /// through 16 MiB, hash-map updates, building and dropping `Arc`
    /// trees, and cloning ordered maps.
    pub fn time(&self) -> f64 {
        let t = Instant::now();
        let mut x: u64 = 88_172_645_463_325_252;
        let mut sink = 0u64;
        for _ in 0..30_000_000 {
            sink = sink.wrapping_add(xorshift(&mut x));
        }
        let mut p = 0u32;
        for _ in 0..600_000 {
            p = self.ring[p as usize];
        }
        sink = sink.wrapping_add(u64::from(p));
        let mut h: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for i in 0..1_500_000u64 {
            *h.entry(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 200_000)
                .or_insert(0) += i;
        }
        sink = sink.wrapping_add(h.len() as u64);
        for r in 0..2 {
            sink = sink.wrapping_add(tree_sum(&tree(17, r)));
        }
        let mut m = std::collections::BTreeMap::new();
        for i in 0..1500u64 {
            m.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), vec![i; 4]);
            if i % 3 == 0 {
                sink = sink.wrapping_add(std::hint::black_box(m.clone()).len() as u64);
            }
        }
        std::hint::black_box(sink);
        t.elapsed().as_secs_f64()
    }
}

// ---------------------------------------------------------------------
// One measured run
// ---------------------------------------------------------------------

/// What one run of a world measured. Engine-specific fields are zero on
/// the other engine.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Ran on the simulator (else on rt).
    pub sim: bool,
    /// Commands the run had to commit.
    pub ops: u64,
    /// Host wall time of the engine's `run` call.
    pub wall_s: f64,
    /// Process CPU time spent in that call.
    pub cpu_s: f64,
    /// Sim virtual completion time (0 on rt).
    pub vt: u64,
    /// Why the run failed the gate, if it did.
    pub failure: Option<String>,
    pub oracle_s: f64,
    pub proto: ProtoStats,
    pub checkpoints_taken: u64,
    pub replayed_steps: u64,
    pub retransmits: u64,
    pub acks: u64,
    /// Sim trace events, or rt telemetry events.
    pub events: u64,
    /// Fork→resolution latency of every resolved guess, in telemetry
    /// ticks (virtual ticks on sim, µs on rt).
    pub resolve_ticks: Vec<u64>,
    pub value_faults: u64,
    pub time_faults: u64,
    /// Aborts whose cause is a fault of their own, not a cascade.
    pub root_faults: u64,
    /// Wrapper totals, on traced runs.
    pub layers: Option<LayerTotals>,
}

impl Run {
    /// Host time the layers split: wall on the single-threaded sim, CPU
    /// (all threads) on rt.
    pub fn host_s(&self) -> f64 {
        if self.sim {
            self.wall_s
        } else {
            self.cpu_s
        }
    }
}

/// Fill in what the run's telemetry says: resolution latencies and the
/// cause of every abort.
fn with_telemetry(mut run: Run, telemetry: &Telemetry) -> Run {
    let lifecycle = telemetry.lifecycle();
    run.resolve_ticks = lifecycle
        .guesses
        .iter()
        .filter_map(|g| g.latency())
        .collect();
    for ev in &telemetry.events {
        if let TelemetryEvent::Resolved {
            committed: false,
            cause,
            ..
        } = ev
        {
            match cause {
                ResolutionCause::ValueFault => run.value_faults += 1,
                ResolutionCause::SelfCycle | ResolutionCause::PrecedenceCycle => {
                    run.time_faults += 1
                }
                _ => {}
            }
            if !matches!(cause, ResolutionCause::DependencyAbort { .. }) {
                run.root_faults += 1;
            }
        }
    }
    run
}

/// A guess neither committed nor aborted by its owner is unresolved.
fn unresolved(proto: &ProtoStats) -> Option<String> {
    let resolved = proto.commits + proto.aborts;
    (resolved != proto.forks).then(|| {
        format!(
            "{} forks but {} commits + {} aborts: guesses left unresolved",
            proto.forks, proto.commits, proto.aborts
        )
    })
}

/// `f()` with the wall and process CPU seconds it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let (c0, t0) = (process_cpu_s(), Instant::now());
    let r = f();
    (r, t0.elapsed().as_secs_f64(), process_cpu_s() - c0)
}

/// Build the sim world, run it, and gate it on the agreement oracle.
fn run_sim(opts: &KvOpts, clock: Option<&Arc<LayerClock>>) -> Run {
    let world = sim_world(opts, clock);
    let (result, wall_s, cpu_s) = timed(|| world.run());
    let (verdict, oracle_s, _) = timed(|| check_sim_agreement(opts, &result));
    let stats = result.stats();
    let run = Run {
        sim: true,
        ops: opts.total_ops() as u64,
        wall_s,
        cpu_s,
        vt: result.completion,
        failure: verdict.err().or_else(|| unresolved(&stats.proto)),
        oracle_s,
        proto: stats.proto,
        checkpoints_taken: stats.checkpoints_taken,
        replayed_steps: stats.replayed_steps,
        events: result.trace.events.len() as u64,
        layers: clock.map(|c| c.totals()),
        ..Run::default()
    };
    with_telemetry(run, &result.telemetry)
}

/// Build the rt world, run it, and gate it on the agreement oracle plus
/// the straggler and unresolved-guess checks.
fn run_rt(opts: &KvOpts, telemetry: bool, clock: Option<&Arc<LayerClock>>) -> Run {
    let world = rt_world(opts, rt_config(opts, telemetry), clock);
    let (result, wall_s, cpu_s) = timed(|| world.run());
    let (verdict, oracle_s, _) = timed(|| check_rt_agreement(opts, &result));
    let failure = verdict.err().or_else(|| {
        if result.stragglers.is_empty() {
            unresolved(&result.stats.proto)
        } else {
            Some(format!("stragglers: {:?}", result.stragglers))
        }
    });
    let run = Run {
        ops: opts.total_ops() as u64,
        wall_s,
        cpu_s,
        failure,
        oracle_s,
        proto: result.stats.proto,
        retransmits: result.stats.retransmits,
        acks: result.stats.acks,
        events: result.telemetry.events.len() as u64,
        layers: clock.map(|c| c.totals()),
        ..Run::default()
    };
    with_telemetry(run, &result.telemetry)
}

/// Run `w`'s world for `opts`, traced (wrapped, and with rt telemetry on)
/// or not.
pub fn run_workload(w: Workload, opts: &KvOpts, traced: bool) -> Run {
    let clock = traced.then(|| Arc::new(LayerClock::default()));
    if w.is_sim() {
        run_sim(opts, clock.as_ref())
    } else {
        run_rt(opts, traced, clock.as_ref())
    }
}
