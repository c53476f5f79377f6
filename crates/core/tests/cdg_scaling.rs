//! Work and memory bounds of the commit dependency graph, gated on
//! deterministic counts (`Cdg::visits`, `Cdg::stored_links`,
//! `Cdg::slot_count`) rather than wall time.

use opcsp_core::{
    Cdg, CoreConfig, DataKind, EdgeOutcome, Envelope, Guard, GuessId, MsgId, ProcessCore,
    ProcessId, Value,
};

fn env(guard: Guard) -> Envelope {
    Envelope {
        id: MsgId(0),
        from: ProcessId(0),
        from_thread: 0,
        to: ProcessId(1),
        guard: guard.into(),
        table_acks: vec![],
        kind: DataKind::Send,
        payload: Value::Unit,
        label: "Apply".into(),
        link_seq: 0,
    }
}

fn x(i: u32) -> GuessId {
    GuessId::first(ProcessId(0), i)
}

/// CDG adjacency links read per PRECEDENCE at a replica that keeps `n`
/// guesses in flight, in steady state.
///
/// The shape is the replicated-KV one: the sequencer's speculative thread
/// for guess `x_i` sends an update tagged with every in-flight guess up to
/// `x_i` (which makes them CDG nodes here), then `PRECEDENCE(x_i, guard)`
/// arrives with the transitively closed guard of the in-flight guesses
/// before it, and the oldest guess commits. PRECEDENCE messages arrive in
/// swapped pairs, so a forward search from `x_i` finds `x_{i+1}` already
/// there.
fn visits_per_precedence(n: u32) -> f64 {
    let mut core = ProcessCore::new(ProcessId(1), CoreConfig::default());
    let guard = |lo: u32, hi: u32| -> Guard { (lo..hi).map(x).collect() };
    let (warmup, measured) = (2 * n, 2 * n);
    let mut start = 0;
    for i in 1..=warmup + measured {
        if i == warmup + 1 {
            start = core.cdg.visits();
        }
        let lo = i.saturating_sub(n).max(1);
        core.deliver(0, &env(guard(lo, i + 1)));
        // Pair (i-1, i) is delivered as i, then i-1.
        if i % 2 == 0 {
            for j in [i, i - 1] {
                assert!(core.on_precedence(x(j), &guard(lo, j)).is_empty());
            }
        }
        if i > n {
            assert!(core.on_commit(x(i - n)).own_committed.is_empty());
        }
    }
    assert_eq!(core.cdg.node_count(), n as usize);
    (core.cdg.visits() - start) as f64 / measured as f64
}

#[test]
fn precedence_work_grows_linearly_with_inflight_guesses() {
    let small = visits_per_precedence(100);
    let large = visits_per_precedence(400);
    // Each PRECEDENCE brings n edges and each commit removes n, so the
    // work is linear in n: 4x the guesses should cost about 4x. A scan of
    // every edge per commit (the n² edges of a transitively closed chain)
    // would cost 16x.
    assert!(small > 100.0, "the chain must exercise the graph: {small}");
    assert!(
        large <= 4.5 * small,
        "visits per PRECEDENCE: {small} at n=100, {large} at n=400"
    );
}

#[test]
fn memory_is_bounded_by_live_graph() {
    // 100k guesses flow through a window of at most 64 live ones. Each new
    // guess follows a pseudo-random subset of the window, and a
    // pseudo-random live guess (not always the oldest) resolves. Two
    // stragglers stay unresolved throughout: every guess follows the
    // first and precedes the second, so their lists see a link from every
    // guess that ever lived and must shed the stale ones.
    const LIVE: usize = 64;
    let mut cdg = Cdg::new();
    let (first, last) = (
        GuessId::first(ProcessId(7), 0),
        GuessId::first(ProcessId(8), 0),
    );
    let mut live: Vec<GuessId> = Vec::new();
    let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for i in 0..100_000u32 {
        let g = GuessId::first(ProcessId(i % 7), i);
        let mut froms: Vec<GuessId> = live.iter().copied().filter(|_| next() % 4 == 0).collect();
        froms.push(first);
        assert_eq!(cdg.add_edges_into(&froms, g), EdgeOutcome::Acyclic);
        assert_eq!(cdg.add_edge(g, last), EdgeOutcome::Acyclic);
        live.push(g);
        if live.len() == LIVE - 2 {
            // Mostly the oldest, sometimes any.
            let k = if next() % 3 == 0 {
                (next() % live.len() as u64) as usize
            } else {
                0
            };
            cdg.remove(live.remove(k));
        }
        // Each list keeps at most as many stale links as live ones, and
        // every edge is stored once per endpoint.
        assert!(
            cdg.stored_links() <= 4 * cdg.edge_count(),
            "step {i}: {} links stored for {} live edges",
            cdg.stored_links(),
            cdg.edge_count()
        );
        assert!(
            cdg.slot_count() <= LIVE,
            "step {i}: {} slots",
            cdg.slot_count()
        );
    }
    assert_eq!(cdg.node_count(), LIVE - 1);
}
