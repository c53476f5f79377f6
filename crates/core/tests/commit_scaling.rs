//! Work bounds of commit and abort processing, gated on the deterministic
//! `ProcessCore::thread_visits` counter rather than wall time: a commit or
//! abort landing must visit the threads that hold the guess, not every
//! thread the process has ever created.

use opcsp_core::{
    CoreConfig, DataKind, Envelope, ForkIndex, Guard, GuessId, JoinDecision, MsgId, ProcessCore,
    ProcessId, Value,
};

fn env(guard: Guard) -> Envelope {
    Envelope {
        id: MsgId(0),
        from: ProcessId(1),
        from_thread: 0,
        to: ProcessId(0),
        guard: guard.into(),
        table_acks: vec![],
        kind: DataKind::Return(opcsp_core::CallId(0)),
        payload: Value::Unit,
        label: "Reply".into(),
        link_seq: 0,
    }
}

/// A foreign guess: the first fork of server `k` (one server per round,
/// so an abort's incarnation bump never implies the next round's abort).
fn y(k: u32) -> GuessId {
    GuessId::first(ProcessId(k), 1)
}

/// A client that has streamed `finished` calls to completion: each fork
/// committed at once, leaving its left thread done. Returns the core and
/// the thread now running.
fn client_with_finished_threads(finished: u32) -> (ProcessCore, ForkIndex) {
    let mut core = ProcessCore::new(ProcessId(0), CoreConfig::default());
    let mut running = 0;
    for _ in 0..finished {
        let r = core.fork(running, 1);
        assert!(matches!(
            core.join_left_done(r.guess, true),
            JoinDecision::Commit { .. }
        ));
        running = r.right_thread;
    }
    assert_eq!(core.threads.len() as u32, finished + 1);
    (core, running)
}

/// The running thread receives a reply guarded by `y(k)`, then forks
/// `holders - 1` times: `holders` threads hold `y(k)`. Returns the forks.
fn spread(core: &mut ProcessCore, running: &mut ForkIndex, k: u32, holders: u32) -> Vec<GuessId> {
    core.deliver(*running, &env(Guard::single(y(k))));
    let mut forks = Vec::new();
    for _ in 1..holders {
        let r = core.fork(*running, 1);
        forks.push(r.guess);
        *running = r.right_thread;
    }
    assert_eq!(core.holders_of(y(k)).len() as u32, holders);
    forks
}

/// Thread entries visited per COMMIT landing of a guess held by `holders`
/// threads, at a client with `finished` finished threads.
fn visits_per_commit(finished: u32, holders: u32) -> f64 {
    let (mut core, mut running) = client_with_finished_threads(finished);
    const ROUNDS: u32 = 20;
    let mut total = 0;
    for k in 1..=ROUNDS {
        let forks = spread(&mut core, &mut running, k, holders);
        let before = core.thread_visits();
        assert!(core.on_commit(y(k)).own_committed.is_empty());
        total += core.thread_visits() - before;
        assert!(core.holders_of(y(k)).is_empty());
        // The forks' left threads now join with empty guards and commit,
        // adding to the finished threads.
        for g in forks {
            assert!(matches!(
                core.join_left_done(g, true),
                JoinDecision::Commit { .. }
            ));
        }
    }
    total as f64 / ROUNDS as f64
}

/// Thread entries visited per ABORT landing of a guess held by `holders`
/// threads (one rollback, `holders - 1` discarded forks), at a client with
/// `finished` finished threads.
fn visits_per_abort(finished: u32, holders: u32) -> f64 {
    let (mut core, mut running) = client_with_finished_threads(finished);
    const ROUNDS: u32 = 20;
    let mut total = 0;
    for k in 1..=ROUNDS {
        let start = running;
        spread(&mut core, &mut running, k, holders);
        let before = core.thread_visits();
        let effects = core.on_abort(y(k));
        total += core.thread_visits() - before;
        assert_eq!(effects.rollback_threads.len(), 1, "{effects:?}");
        assert_eq!(effects.discard_threads.len() as u32, holders - 1);
        assert!(core.holder_entries().next().is_none());
        running = start;
    }
    total as f64 / ROUNDS as f64
}

#[test]
fn commit_work_does_not_grow_with_finished_threads() {
    let few = visits_per_commit(50, 16);
    let many = visits_per_commit(400, 16);
    // Each landing visits the 16 holders; a scan of every thread would
    // visit 50 to 400 or more.
    assert!(few >= 16.0, "the holders must be visited: {few}");
    assert!(
        many <= 1.2 * few,
        "thread visits per commit: {few} with 50 finished threads, {many} with 400"
    );
}

#[test]
fn abort_work_does_not_grow_with_finished_threads() {
    let few = visits_per_abort(50, 16);
    let many = visits_per_abort(400, 16);
    assert!(few >= 16.0, "the holders must be visited: {few}");
    assert!(
        many <= 1.2 * few,
        "thread visits per abort: {few} with 50 finished threads, {many} with 400"
    );
}
