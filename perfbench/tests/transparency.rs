//! The layer wrapper must be invisible to the program: a traced world
//! commits exactly what the plain world commits, at the same virtual time
//! and with the same protocol counts.

use opcsp_perfbench::{run_workload, sim_world, LayerClock, Workload};
use opcsp_workloads::replicated_kv::{check_sim_agreement, run_replicated_kv, KvOpts};
use std::sync::Arc;

/// The workload's world, shrunk so a debug build runs it in seconds.
fn small(w: Workload, seed: u64, ops: u32) -> KvOpts {
    KvOpts {
        clients: w.opts(seed).clients.min(4),
        ops_per_client: ops,
        ..w.opts(seed)
    }
}

#[test]
fn traced_sim_world_commits_what_the_plain_world_commits() {
    for w in [Workload::KvSim, Workload::KvSimJitter] {
        let opts = small(w, 7, 40);
        let reference = run_replicated_kv(opts.clone());
        let plain = sim_world(&opts, None).run();
        let clock = Arc::new(LayerClock::default());
        let traced = sim_world(&opts, Some(&clock)).run();
        check_sim_agreement(&opts, &traced).expect("SMR oracle on the traced run");
        for r in [&plain, &traced] {
            assert_eq!(r.logs, reference.logs, "{}: committed logs", w.name());
            assert_eq!(r.external, reference.external, "{}: externals", w.name());
            assert_eq!(r.completion, reference.completion, "{}: vt", w.name());
            assert_eq!(
                r.stats().proto,
                reference.stats().proto,
                "{}: ProtoStats",
                w.name()
            );
        }
        let t = clock.totals();
        assert!(
            t.steps > 0 && t.clones > 0,
            "{}: wrapper saw no work: {t:?}",
            w.name()
        );
    }
    let jitter = run_workload(
        Workload::KvSimJitter,
        &small(Workload::KvSimJitter, 7, 40),
        true,
    );
    assert!(
        jitter.proto.aborts > 0,
        "the jitter world must exercise the abort path"
    );
}

#[test]
fn same_seed_sim_runs_repeat_exactly() {
    for w in [Workload::KvSim, Workload::KvSimJitter] {
        let opts = small(w, 3, 40);
        let (a, b) = (run_workload(w, &opts, false), run_workload(w, &opts, false));
        assert_eq!(a.failure, None, "{}", w.name());
        assert_eq!((a.vt, a.proto), (b.vt, b.proto), "{}", w.name());
    }
}

#[test]
fn traced_rt_run_passes_the_oracle() {
    let opts = small(Workload::KvRt, 5, 100);
    let r = run_workload(Workload::KvRt, &opts, true);
    assert_eq!(r.failure, None);
    assert_eq!(r.proto.commits, opts.total_ops() as u64);
    assert!(r.layers.expect("traced run has wrapper totals").steps > 0);
    assert!(
        !r.resolve_ticks.is_empty(),
        "telemetry is on for traced rt runs"
    );
}
