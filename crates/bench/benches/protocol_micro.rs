//! Micro-benchmarks of the protocol core — the per-operation overheads
//! the paper's §6 claims are "small": guard tagging, arrival processing,
//! fork/join bookkeeping, commit waves, abort cascades and CDG cycle
//! detection.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use opcsp_core::{
    measure, Cdg, CompactGuard, CoreConfig, DataKind, Envelope, Guard, GuessId, History, MsgId,
    ProcessCore, ProcessId, Value,
};
use std::hint::black_box;

fn env_with(to: ProcessId, guard: Guard) -> Envelope {
    Envelope {
        id: MsgId(1),
        from: ProcessId(9),
        from_thread: 0,
        to,
        guard: guard.into(),
        table_acks: vec![],
        kind: DataKind::Send,
        payload: Value::Int(1),
        label: "M".into(),
        link_seq: 0,
    }
}

fn bench_guard_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("guard");
    for n in [4u32, 32, 256] {
        let full: Guard = (0..n).map(|i| GuessId::first(ProcessId(0), i)).collect();
        g.bench_with_input(BenchmarkId::new("union", n), &full, |b, full| {
            b.iter(|| {
                let mut a = Guard::empty();
                a.union_with(black_box(full));
                a
            })
        });
        g.bench_with_input(BenchmarkId::new("compact+expand", n), &full, |b, full| {
            let h = History::new();
            b.iter(|| {
                let cg = CompactGuard::compress(black_box(full));
                cg.expand(&h)
            })
        });
        g.bench_with_input(BenchmarkId::new("measure", n), &full, |b, full| {
            b.iter(|| measure(black_box(full)))
        });
    }
    g.finish();
}

fn bench_fork_join_cycle(c: &mut Criterion) {
    c.bench_function("core/fork_join_commit", |b| {
        b.iter(|| {
            let mut core = ProcessCore::new(ProcessId(0), CoreConfig::default());
            let rec = core.fork(0, 1);
            let d = core.join_left_done(rec.guess, true);
            black_box(d)
        })
    });
}

fn bench_deliver(c: &mut Criterion) {
    c.bench_function("core/deliver_new_dep", |b| {
        let envs: Vec<Envelope> = (0..8)
            .map(|i| env_with(ProcessId(2), Guard::single(GuessId::first(ProcessId(0), i))))
            .collect();
        b.iter(|| {
            let mut core = ProcessCore::new(ProcessId(2), CoreConfig::default());
            for e in &envs {
                black_box(core.deliver(0, e));
            }
            core
        })
    });
}

fn bench_abort_cascade(c: &mut Criterion) {
    let mut g = c.benchmark_group("core/abort_cascade");
    for depth in [2u32, 8, 32] {
        g.bench_with_input(BenchmarkId::new("chain", depth), &depth, |b, &depth| {
            b.iter(|| {
                // A right-branching chain of `depth` forks; abort the first.
                let mut core = ProcessCore::new(ProcessId(0), CoreConfig::default());
                let first = core.fork(0, 1).guess;
                for t in 1..depth {
                    core.fork(t, 1);
                }
                black_box(core.on_abort(first))
            })
        });
    }
    g.finish();
}

/// A commit wave at a client streaming `n` calls: thread 0 receives a
/// reply tagged with `n` server guesses and forks `n - 1` times, so `n`
/// threads hold `n` guesses each; then the guesses commit oldest first.
/// Each iteration builds the threads and lands all `n` COMMITs (`n` holders
/// each), the replicated-KV commit path at one process.
fn bench_commit_landing(c: &mut Criterion) {
    let mut g = c.benchmark_group("core/commit_landing");
    for n in [64u32, 256] {
        let ys: Vec<GuessId> = (1..=n).map(|i| GuessId::first(ProcessId(9), i)).collect();
        let tag: Guard = ys.iter().copied().collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut core = ProcessCore::new(ProcessId(0), CoreConfig::default());
                core.deliver(0, &env_with(ProcessId(0), tag.clone()));
                let mut t = 0;
                for _ in 1..n {
                    t = core.fork(t, 1).right_thread;
                }
                for &y in &ys {
                    black_box(core.on_commit(y));
                }
                core
            })
        });
    }
    g.finish();
}

fn bench_cdg(c: &mut Criterion) {
    c.bench_function("cdg/add_edge_cycle_check", |b| {
        b.iter(|| {
            let mut cdg = Cdg::new();
            for i in 0..32u32 {
                cdg.add_edge(
                    GuessId::first(ProcessId(i % 4), i),
                    GuessId::first(ProcessId((i + 1) % 4), i + 1),
                );
            }
            black_box(cdg.add_edge(
                GuessId::first(ProcessId(1), 33),
                GuessId::first(ProcessId(0), 0),
            ))
        })
    });
    // One PRECEDENCE carrying `n` in-flight guesses into a graph that
    // already holds their transitively closed chain (n²/2 edges), then the
    // new guess resolves: the replicated-KV steady state.
    for n in [64u32, 256] {
        let (mut cdg, xs) = closed_chain(n);
        let next = GuessId::first(ProcessId(9), n);
        c.bench_function(&format!("cdg/precedence_{n}"), |b| {
            b.iter(|| {
                let outcome = cdg.add_edges_into(black_box(&xs), next);
                cdg.remove(next);
                outcome
            })
        });
    }
    // Build a 128-guess closed chain by PRECEDENCE, then commit it oldest
    // first, querying predecessors as `ProcessCore::on_commit` does.
    c.bench_function("cdg/commit_drain", |b| {
        b.iter(|| {
            let (mut cdg, xs) = closed_chain(128);
            for &x in &xs {
                black_box(cdg.predecessors(x));
                cdg.remove(x);
            }
            cdg
        })
    });
}

/// A CDG holding `n` guesses where each precedes every later one, built
/// one PRECEDENCE per guess.
fn closed_chain(n: u32) -> (Cdg, Vec<GuessId>) {
    let xs: Vec<GuessId> = (0..n)
        .map(|i| GuessId::first(ProcessId(i % 8), i))
        .collect();
    let mut cdg = Cdg::new();
    cdg.add_node(xs[0]);
    for i in 1..xs.len() {
        cdg.add_edges_into(&xs[..i], xs[i]);
    }
    (cdg, xs)
}

criterion_group!(
    benches,
    bench_guard_ops,
    bench_fork_join_cycle,
    bench_deliver,
    bench_abort_cascade,
    bench_commit_landing,
    bench_cdg
);
criterion_main!(benches);
