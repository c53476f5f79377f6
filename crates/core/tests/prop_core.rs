//! Property-based tests on the protocol core's data structures: guard-set
//! algebra, compaction round trips, CDG cycle detection against a naive
//! oracle and against a reference graph model, incarnation-table
//! consistency, and the holder index and in-place guard updates of commit
//! and abort processing against a scan of every thread.

use opcsp_core::{
    AbortEffects, Cdg, CompactGuard, CoreConfig, DataKind, EdgeOutcome, Envelope, ForkIndex, Guard,
    GuessId, History, Incarnation, IncarnationTable, JoinDecision, MsgId, OwnGuessState,
    ProcessCore, ProcessId, StateIndex, ThreadPhase, Value,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

fn arb_guess() -> impl Strategy<Value = GuessId> {
    (0u32..4, 0u32..3, 0u32..12).prop_map(|(p, i, n)| GuessId {
        process: ProcessId(p),
        incarnation: Incarnation(i),
        index: n,
    })
}

fn arb_guard() -> impl Strategy<Value = Guard> {
    proptest::collection::btree_set(arb_guess(), 0..12).prop_map(|s| s.into_iter().collect())
}

proptest! {
    /// Union is commutative, associative, idempotent; the empty guard is
    /// its identity.
    #[test]
    fn guard_union_algebra(a in arb_guard(), b in arb_guard(), c in arb_guard()) {
        let mut ab = a.clone();
        ab.union_with(&b);
        let mut ba = b.clone();
        ba.union_with(&a);
        prop_assert_eq!(&ab, &ba);

        let mut ab_c = ab.clone();
        ab_c.union_with(&c);
        let mut bc = b.clone();
        bc.union_with(&c);
        let mut a_bc = a.clone();
        a_bc.union_with(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        let mut aa = a.clone();
        aa.union_with(&a);
        prop_assert_eq!(&aa, &a);

        let mut ae = a.clone();
        ae.union_with(&Guard::empty());
        prop_assert_eq!(&ae, &a);
    }

    /// `new_guards` is exactly the set difference, and its count agrees.
    #[test]
    fn new_guards_is_difference(mine in arb_guard(), incoming in arb_guard()) {
        let diff: BTreeSet<GuessId> = incoming
            .iter()
            .filter(|g| !mine.contains(*g))
            .collect();
        let got: BTreeSet<GuessId> = mine.new_guards(&incoming).into_iter().collect();
        prop_assert_eq!(&got, &diff);
        prop_assert_eq!(mine.new_guard_count(&incoming), diff.len());
    }

    /// Compact→expand round trip on first-incarnation guards (the case
    /// the wire format guarantees with *no* extra knowledge): nothing is
    /// lost, nothing is invented beyond the per-process maximum, and
    /// compaction keeps one entry per process.
    ///
    /// (With multiple incarnations, exact expansion additionally requires
    /// the receiver's history to have observed the sender's incarnation
    /// starts — which prior ABORT messages guarantee; see the unit tests
    /// in `compact.rs`. An earlier version of this property over arbitrary
    /// incarnations caught exactly that ambiguity.)
    #[test]
    fn compaction_round_trip(
        // Fork indexes start at 1: index 0 is a process's root thread and
        // never names a guess (fork pre-increments), and expansion
        // enumerates implied members from index 1.
        set in proptest::collection::btree_set((0u32..4, 1u32..12), 0..12)
    ) {
        let full: Guard = set
            .into_iter()
            .map(|(p, n)| GuessId::first(ProcessId(p), n))
            .collect();
        let history = History::new();
        let compact = CompactGuard::compress(&full);
        let expanded = compact.expand(&history);
        for g in full.iter() {
            prop_assert!(expanded.contains(g), "lost {g}");
        }
        for g in expanded.iter() {
            let latest = compact.iter().find(|l| l.process == g.process).unwrap();
            prop_assert!(g.index <= latest.index);
        }
        let procs: HashSet<ProcessId> = compact.iter().map(|g| g.process).collect();
        prop_assert_eq!(procs.len(), compact.len());
    }

    /// Streaming-shaped guards (single process, contiguous, one
    /// incarnation) round-trip exactly.
    #[test]
    fn compaction_exact_for_contiguous_chains(n in 1u32..40) {
        let full: Guard = (1..=n).map(|i| GuessId::first(ProcessId(0), i)).collect();
        let compact = CompactGuard::compress(&full);
        let mut history = History::new();
        history.record_commit(GuessId::first(ProcessId(0), 0));
        let expanded = compact.expand(&history);
        prop_assert_eq!(expanded, full);
    }
}

proptest! {
    /// The copy-on-write guard is observationally identical to a
    /// `BTreeSet` model under random insert/remove/union sequences:
    /// contents, length, deterministic iteration order, and the
    /// `new_guards` difference all agree after every step, and an alias
    /// cloned before each mutation is never disturbed by it.
    #[test]
    fn guard_matches_btreeset_model(
        ops in proptest::collection::vec((0u32..3, arb_guess(), arb_guard()), 1..40)
    ) {
        let mut guard = Guard::empty();
        let mut model: BTreeSet<GuessId> = BTreeSet::new();
        for (op, g, other) in ops {
            // Snapshot an alias before mutating; CoW must keep it intact.
            let alias = guard.clone();
            let alias_model: Vec<GuessId> = model.iter().copied().collect();
            match op {
                0 => {
                    guard.insert(g);
                    model.insert(g);
                }
                1 => {
                    guard.remove(g);
                    model.remove(&g);
                }
                _ => {
                    guard.union_with(&other);
                    model.extend(other.iter());
                }
            }
            let got: Vec<GuessId> = guard.iter().collect();
            let want: Vec<GuessId> = model.iter().copied().collect();
            prop_assert_eq!(&got, &want, "contents/order diverged from model");
            prop_assert_eq!(guard.len(), model.len());
            prop_assert_eq!(guard.is_empty(), model.is_empty());
            for x in &model {
                prop_assert!(guard.contains(*x));
            }
            // Same set ⇒ the difference in both directions is empty.
            let model_guard: Guard = model.iter().copied().collect();
            prop_assert!(guard.new_guards(&model_guard).is_empty());
            prop_assert_eq!(model_guard.new_guard_count(&guard), 0);
            prop_assert_eq!(&guard, &model_guard);
            // The pre-mutation alias still reads its old contents.
            let alias_now: Vec<GuessId> = alias.iter().collect();
            prop_assert_eq!(alias_now, alias_model, "mutation leaked into alias");
        }
    }

    /// The same model check when aliases are taken only now and then, so
    /// most mutations hit storage the guard owns alone: removals shift in
    /// place and inserts refill the freed slots. An alias taken before a
    /// mutation still keeps its contents.
    #[test]
    fn unshared_guard_matches_btreeset_model(
        ops in proptest::collection::vec(
            (0u32..4, arb_guess(), arb_guard(), 0u8..4),
            1..60,
        )
    ) {
        let mut guard: Guard = (0..10).map(|i| GuessId::first(ProcessId(i % 4), i)).collect();
        let mut model: BTreeSet<GuessId> = guard.iter().collect();
        let mut alias: Option<(Guard, Vec<GuessId>)> = None;
        for (op, g, other, take_alias) in ops {
            if take_alias == 0 {
                alias = Some((guard.clone(), model.iter().copied().collect()));
            }
            match op {
                0 => {
                    guard.insert(g);
                    model.insert(g);
                }
                1 | 2 => {
                    // Remove a present member most of the time.
                    let victim = model.iter().nth(g.index as usize % model.len().max(1)).copied();
                    let g = if op == 1 { victim.unwrap_or(g) } else { g };
                    guard.remove(g);
                    model.remove(&g);
                }
                _ => {
                    guard.union_with(&other);
                    model.extend(other.iter());
                }
            }
            let got: Vec<GuessId> = guard.iter().collect();
            let want: Vec<GuessId> = model.iter().copied().collect();
            prop_assert_eq!(&got, &want, "contents/order diverged from model");
            prop_assert_eq!(guard.len(), model.len());
            let model_guard: Guard = model.iter().copied().collect();
            prop_assert_eq!(&guard, &model_guard);
            if let Some((a, a_model)) = &alias {
                prop_assert_eq!(&a.iter().collect::<Vec<_>>(), a_model, "mutation leaked into alias");
            }
        }
    }

    /// Mutating aliased clones of a shared guard never disturbs the
    /// original or each other (CoW isolation in every direction).
    #[test]
    fn aliased_clones_mutate_independently(
        base in arb_guard(), g in arb_guess(), extra in arb_guard()
    ) {
        let before: Vec<GuessId> = base.iter().collect();
        let mut grown = base.clone();
        grown.insert(g);
        let mut shrunk = base.clone();
        shrunk.remove(g);
        let mut merged = base.clone();
        merged.union_with(&extra);
        let after: Vec<GuessId> = base.iter().collect();
        prop_assert_eq!(before, after, "clone mutations leaked into original");
        prop_assert!(grown.contains(g));
        prop_assert!(!shrunk.contains(g));
        for x in extra.iter() {
            prop_assert!(merged.contains(x));
        }
        prop_assert_eq!(grown.len(), base.len() + usize::from(!base.contains(g)));
        prop_assert_eq!(shrunk.len(), base.len() - usize::from(base.contains(g)));
    }
}

/// Naive cycle oracle: DFS over the edge list.
fn has_cycle(edges: &[(GuessId, GuessId)]) -> bool {
    let mut adj: HashMap<GuessId, Vec<GuessId>> = HashMap::new();
    let mut nodes: BTreeSet<GuessId> = BTreeSet::new();
    for (a, b) in edges {
        adj.entry(*a).or_default().push(*b);
        nodes.insert(*a);
        nodes.insert(*b);
    }
    // Colors: 0 unvisited, 1 on stack, 2 done.
    let mut color: HashMap<GuessId, u8> = HashMap::new();
    fn dfs(
        n: GuessId,
        adj: &HashMap<GuessId, Vec<GuessId>>,
        color: &mut HashMap<GuessId, u8>,
    ) -> bool {
        match color.get(&n) {
            Some(1) => return true,
            Some(2) => return false,
            _ => {}
        }
        color.insert(n, 1);
        for &m in adj.get(&n).into_iter().flatten() {
            if dfs(m, adj, color) {
                return true;
            }
        }
        color.insert(n, 2);
        false
    }
    nodes.iter().any(|&n| dfs(n, &adj, &mut color))
}

proptest! {
    /// Incremental CDG cycle detection agrees with the naive oracle: the
    /// first insertion the oracle says closes a cycle is exactly the one
    /// `add_edge` reports (and the graph stays acyclic before it).
    #[test]
    fn cdg_matches_naive_oracle(
        edges in proptest::collection::vec((arb_guess(), arb_guess()), 1..30)
    ) {
        let mut cdg = Cdg::new();
        let mut inserted: Vec<(GuessId, GuessId)> = Vec::new();
        for (a, b) in edges {
            let mut trial = inserted.clone();
            trial.push((a, b));
            let oracle_cycle = has_cycle(&trial);
            match cdg.add_edge(a, b) {
                EdgeOutcome::Acyclic => {
                    prop_assert!(!oracle_cycle, "missed cycle on edge {a}->{b}");
                    inserted.push((a, b));
                    prop_assert!(cdg.is_acyclic());
                }
                EdgeOutcome::Cycle(members) => {
                    prop_assert!(oracle_cycle, "false cycle on edge {a}->{b}");
                    prop_assert!(members.contains(&a) || a == b);
                    prop_assert!(members.contains(&b));
                    // Protocol reaction: abort (remove) the cycle members,
                    // restoring acyclicity — then continue inserting.
                    for m in members {
                        cdg.remove(m);
                    }
                    inserted.retain(|(x, y)| cdg.contains_node(*x) && cdg.contains_node(*y));
                    prop_assert!(cdg.is_acyclic());
                }
            }
        }
    }

    /// Removing a node removes all its edges; the remaining graph never
    /// references it.
    #[test]
    fn cdg_remove_is_total(
        edges in proptest::collection::vec((arb_guess(), arb_guess()), 1..20),
        victim in arb_guess()
    ) {
        let mut cdg = Cdg::new();
        for (a, b) in &edges {
            let _ = cdg.add_edge(*a, *b);
        }
        cdg.remove(victim);
        prop_assert!(!cdg.contains_node(victim));
        for n in cdg.nodes() {
            prop_assert!(!cdg.has_edge(n, victim));
            prop_assert!(!cdg.has_edge(victim, n));
        }
    }
}

/// Reference CDG for the differential test: forward edges in one ordered
/// set, every query a scan. Cycle sets follow the definition — the nodes on
/// some path from the edge's head back to its tail, plus both ends.
#[derive(Default)]
struct NaiveCdg {
    nodes: BTreeSet<GuessId>,
    edges: BTreeSet<(GuessId, GuessId)>,
}

impl NaiveCdg {
    /// Nodes reachable from `start` along edges (`forward`) or against them.
    fn reach(&self, start: GuessId, forward: bool) -> BTreeSet<GuessId> {
        let mut seen = BTreeSet::from([start]);
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            for &(a, b) in &self.edges {
                let (here, there) = if forward { (a, b) } else { (b, a) };
                if here == n && seen.insert(there) {
                    stack.push(there);
                }
            }
        }
        seen
    }

    fn add_edge(&mut self, from: GuessId, to: GuessId) -> EdgeOutcome {
        self.nodes.insert(from);
        self.nodes.insert(to);
        if from == to {
            return EdgeOutcome::Cycle(BTreeSet::from([from]));
        }
        let fwd = self.reach(to, true);
        let outcome = if fwd.contains(&from) {
            let mut on_cycle: BTreeSet<GuessId> = fwd
                .intersection(&self.reach(from, false))
                .copied()
                .collect();
            on_cycle.insert(from);
            on_cycle.insert(to);
            EdgeOutcome::Cycle(on_cycle)
        } else {
            EdgeOutcome::Acyclic
        };
        self.edges.insert((from, to));
        outcome
    }

    /// One `add_edge` per member, in order; the cycle sets are united.
    fn add_edges_into(&mut self, froms: &[GuessId], to: GuessId) -> EdgeOutcome {
        let mut on_cycle: Option<BTreeSet<GuessId>> = None;
        for &f in froms {
            if let EdgeOutcome::Cycle(c) = self.add_edge(f, to) {
                on_cycle.get_or_insert_with(BTreeSet::new).extend(c);
            }
        }
        on_cycle.map_or(EdgeOutcome::Acyclic, EdgeOutcome::Cycle)
    }

    fn remove(&mut self, g: GuessId) {
        self.nodes.remove(&g);
        self.edges.retain(|&(a, b)| a != g && b != g);
    }

    fn predecessors(&self, g: GuessId) -> Vec<GuessId> {
        self.edges
            .iter()
            .filter(|e| e.1 == g)
            .map(|e| e.0)
            .collect()
    }

    fn successors(&self, g: GuessId) -> Vec<GuessId> {
        self.edges
            .iter()
            .filter(|e| e.0 == g)
            .map(|e| e.1)
            .collect()
    }
}

/// A small guess universe, so random operations revisit nodes, close
/// cycles and reuse freed slots.
fn arb_small_guess() -> impl Strategy<Value = GuessId> {
    (0u32..3, 0u32..5).prop_map(|(p, n)| GuessId::first(ProcessId(p), n))
}

fn small_universe() -> Vec<GuessId> {
    (0..3)
        .flat_map(|p| (0..5).map(move |n| GuessId::first(ProcessId(p), n)))
        .collect()
}

/// Every query of `cdg` agrees with the reference model.
fn assert_same_graph(cdg: &Cdg, naive: &NaiveCdg) {
    prop_assert_eq!(cdg.nodes().collect::<BTreeSet<_>>(), naive.nodes.clone());
    prop_assert_eq!(cdg.node_count(), naive.nodes.len());
    prop_assert_eq!(cdg.edge_count(), naive.edges.len());
    let universe = small_universe();
    for &a in &universe {
        prop_assert_eq!(cdg.contains_node(a), naive.nodes.contains(&a));
        prop_assert_eq!(cdg.predecessors(a), naive.predecessors(a));
        prop_assert_eq!(cdg.successors(a), naive.successors(a));
        let root = naive.nodes.contains(&a) && naive.predecessors(a).is_empty();
        prop_assert_eq!(cdg.is_root(a), root);
        for &b in &universe {
            prop_assert_eq!(cdg.has_edge(a, b), naive.edges.contains(&(a, b)));
        }
    }
}

proptest! {
    /// The slab CDG matches the naive reference model on random sequences
    /// of single inserts, bulk inserts (one PRECEDENCE each), node inserts
    /// and removals. A step that closes a cycle is compared before the
    /// cycle is resolved; `react` then removes its members, as the
    /// protocol's abort does, and the graph is compared again.
    #[test]
    fn cdg_matches_reference_model(
        ops in proptest::collection::vec(
            (
                0u8..6,
                arb_small_guess(),
                proptest::collection::vec(arb_small_guess(), 0..6),
                0u8..2,
            ),
            1..60,
        )
    ) {
        let mut cdg = Cdg::new();
        let mut naive = NaiveCdg::default();
        for (kind, to, froms, react) in ops {
            let (got, want) = match kind {
                0 | 1 => {
                    let from = froms.first().copied().unwrap_or(to);
                    (cdg.add_edge(from, to), naive.add_edge(from, to))
                }
                2 | 3 => (cdg.add_edges_into(&froms, to), naive.add_edges_into(&froms, to)),
                4 => {
                    cdg.add_node(to);
                    naive.nodes.insert(to);
                    (EdgeOutcome::Acyclic, EdgeOutcome::Acyclic)
                }
                _ => {
                    cdg.remove(to);
                    naive.remove(to);
                    (EdgeOutcome::Acyclic, EdgeOutcome::Acyclic)
                }
            };
            prop_assert_eq!(&got, &want);
            assert_same_graph(&cdg, &naive);
            if let (EdgeOutcome::Cycle(members), 1) = (got, react) {
                for m in members {
                    cdg.remove(m);
                    naive.remove(m);
                }
                assert_same_graph(&cdg, &naive);
            }
        }
    }
}

proptest! {
    /// Incarnation tables: `precedes` is consistent with
    /// `implicitly_aborted` — a guess that precedes a live later guess is
    /// never implicitly aborted by the incarnations between them.
    #[test]
    fn incarnation_precedes_consistency(
        starts in proptest::collection::vec(0u32..10, 1..5),
        a_inc in 0u32..4, a_idx in 0u32..10,
        b_inc in 0u32..4, b_idx in 0u32..10,
    ) {
        let mut t = IncarnationTable::new();
        let mut cumulative = 0;
        for (i, s) in starts.iter().enumerate() {
            cumulative = cumulative.max(*s);
            t.record(Incarnation(i as u32 + 1), cumulative);
        }
        let a = (Incarnation(a_inc), a_idx);
        let b = (Incarnation(b_inc), b_idx);
        if t.precedes(a, b) {
            prop_assert!(a_idx < b_idx);
            prop_assert!(a_inc <= b_inc);
            // a must not be implicitly aborted by any incarnation ≤ b's.
            if a_inc < b_inc {
                for i in (a_inc + 1)..=b_inc {
                    if let Some(s) = t.start_of(Incarnation(i)) {
                        prop_assert!(s > a_idx,
                            "incarnation {i} starting at {s} kills ({a_inc},{a_idx})");
                    }
                }
            }
        }
    }

    /// Recording aborts through History always makes later same-incarnation
    /// guesses aborted and leaves earlier ones untouched.
    #[test]
    fn history_abort_monotone(idx in 1u32..10, later in 0u32..5, earlier in 1u32..10) {
        let mut h = History::new();
        let g = GuessId::first(ProcessId(0), idx);
        h.record_abort(g);
        prop_assert!(h.is_aborted(GuessId::first(ProcessId(0), idx + later)));
        let e = idx.saturating_sub(earlier);
        if e < idx && e > 0 {
            prop_assert!(!h.is_aborted(GuessId::first(ProcessId(0), e)));
        }
    }
}

// ----------------------------------------------------------------------
// Commit and abort processing against a scan of every thread
// ----------------------------------------------------------------------

/// One thread's protocol metadata, read through the public API.
#[derive(Debug, Clone, PartialEq)]
struct ThreadView {
    guard: Vec<GuessId>,
    rollbacks: Vec<(GuessId, StateIndex)>,
    snapshots: Vec<Vec<GuessId>>,
    interval: u32,
}

fn view(core: &ProcessCore) -> BTreeMap<ForkIndex, ThreadView> {
    core.threads
        .iter()
        .map(|(&tid, t)| {
            let v = ThreadView {
                guard: t.guard.iter().collect(),
                rollbacks: t.rollbacks.iter().collect(),
                snapshots: t
                    .snapshots
                    .iter()
                    .map(|s| s.guard.iter().collect())
                    .collect(),
                interval: t.interval,
            };
            (tid, v)
        })
        .collect()
}

/// Rollback points are keyed by exactly the guard's members, the holder
/// index is exactly the (guess, thread) pairs a scan of every thread's
/// guard finds, with no duplicates, and the unresolved own guesses counted
/// from their indexes match a scan of every own record.
fn check_index(core: &ProcessCore) {
    let mut scanned = BTreeSet::new();
    for (&tid, t) in &core.threads {
        prop_assert!(
            t.rollbacks.keys().eq(t.guard.iter()),
            "thread {}: rollbacks {:?} vs guard {}",
            tid,
            t.rollbacks,
            t.guard
        );
        for g in t.guard.iter() {
            scanned.insert((g, tid));
        }
    }
    let entries: Vec<(GuessId, ForkIndex)> = core.holder_entries().collect();
    let indexed: BTreeSet<(GuessId, ForkIndex)> = entries.iter().copied().collect();
    prop_assert_eq!(indexed.len(), entries.len(), "duplicate holder entries");
    prop_assert_eq!(indexed, scanned);
    let unresolved = core
        .own
        .values()
        .filter(|o| {
            matches!(
                o.state,
                OwnGuessState::Pending | OwnGuessState::AwaitingResolution
            )
        })
        .count();
    prop_assert_eq!(core.pending_own_guesses(), unresolved);
}

/// After a COMMIT landing: every thread survives with its interval, and
/// its guard and rollback points lose exactly the guesses now committed.
fn check_commit(before: &BTreeMap<ForkIndex, ThreadView>, core: &ProcessCore) {
    prop_assert_eq!(
        core.threads.keys().copied().collect::<Vec<_>>(),
        before.keys().copied().collect::<Vec<_>>()
    );
    let live = |g: &GuessId| !core.history.is_committed(*g);
    for (tid, b) in before {
        let t = &core.threads[tid];
        let guard: Vec<GuessId> = b.guard.iter().copied().filter(live).collect();
        let rollbacks: Vec<_> = b.rollbacks.iter().copied().filter(|e| live(&e.0)).collect();
        prop_assert_eq!(t.guard.iter().collect::<Vec<_>>(), guard, "thread {}", tid);
        prop_assert_eq!(
            t.rollbacks.iter().collect::<Vec<_>>(),
            rollbacks,
            "thread {}",
            tid
        );
        prop_assert_eq!(t.interval, b.interval);
    }
}

/// After one abort cascade rooted at a relevant guess: compute, by a scan
/// of every thread as it was before, each thread's rollback target (the
/// earliest rollback point of a now-aborted guess in its guard, §4.2.7)
/// and check the effects and the restored metadata against it.
fn check_abort(
    before: &BTreeMap<ForkIndex, ThreadView>,
    effects: &AbortEffects,
    core: &ProcessCore,
) {
    let h = &core.history;
    let mut expected_rollbacks = BTreeSet::new();
    for (&tid, b) in before {
        let target = b
            .rollbacks
            .iter()
            .filter(|(g, _)| h.is_aborted(*g))
            .map(|&(_, at)| at)
            .min();
        match target {
            Some(at) if at.thread < tid || at.interval == 0 => {
                prop_assert!(effects.discard_threads.contains(&tid), "discard {}", tid);
                prop_assert!(!core.threads.contains_key(&tid));
            }
            Some(at) => {
                expected_rollbacks.insert((tid, at.interval));
                let t = &core.threads[&tid];
                let guard: Vec<GuessId> = b.snapshots[at.interval as usize]
                    .iter()
                    .copied()
                    .filter(|g| !h.is_committed(*g) && !h.is_aborted(*g))
                    .collect();
                let rollbacks: Vec<_> = b
                    .rollbacks
                    .iter()
                    .copied()
                    .filter(|e| guard.contains(&e.0))
                    .collect();
                prop_assert_eq!(t.interval, at.interval - 1, "thread {}", tid);
                prop_assert_eq!(t.guard.iter().collect::<Vec<_>>(), guard, "thread {}", tid);
                prop_assert_eq!(t.rollbacks.iter().collect::<Vec<_>>(), rollbacks);
                prop_assert_eq!(t.snapshots.len() as u32, at.interval);
            }
            None if effects.discard_threads.contains(&tid) => {
                prop_assert!(!core.threads.contains_key(&tid));
            }
            None => {
                let t = &core.threads[&tid];
                prop_assert_eq!(t.guard.iter().collect::<Vec<_>>(), b.guard.clone());
                prop_assert_eq!(t.rollbacks.iter().collect::<Vec<_>>(), b.rollbacks.clone());
                prop_assert_eq!(t.interval, b.interval);
            }
        }
    }
    let got: BTreeSet<(ForkIndex, u32)> = effects.rollback_threads.iter().copied().collect();
    prop_assert_eq!(got, expected_rollbacks);
}

#[derive(Debug, Clone)]
enum Step {
    Fork(usize),
    /// Deliver to a running thread a tag naming foreign guesses (picks
    /// below 8) and this process's own guesses (picks from 8).
    Deliver(usize, Vec<usize>),
    Join(usize, bool),
    Commit(usize),
    /// Abort a foreign guess (picks below 8) or an own one.
    Abort(usize),
    Precedence(usize, Vec<usize>),
}

fn arb_step() -> impl Strategy<Value = Step> {
    (
        0u8..15,
        0usize..12,
        any::<bool>(),
        proptest::collection::vec(0usize..12, 1..4),
    )
        .prop_map(|(kind, i, ok, picks)| match kind {
            0..=2 => Step::Fork(i),
            3..=6 => Step::Deliver(i, picks),
            7..=8 => Step::Join(i, ok),
            9..=11 => Step::Commit(i % 8),
            12..=13 => Step::Abort(i),
            _ => Step::Precedence(i % 8, picks),
        })
}

/// Foreign guesses: two servers, two incarnations, two indices.
fn foreign(i: usize) -> GuessId {
    GuessId::new(
        ProcessId(1 + (i % 2) as u32),
        Incarnation(((i / 2) % 2) as u32),
        1 + (i / 4) as u32,
    )
}

fn pick_guess(core: &ProcessCore, i: usize) -> Option<GuessId> {
    if i < 8 {
        return Some(foreign(i));
    }
    let own: Vec<GuessId> = core.own.keys().copied().collect();
    (!own.is_empty()).then(|| own[i % own.len()])
}

/// Does `g` transitively follow an unresolved own guess in the CDG?
fn own_predecessor(core: &ProcessCore, g: GuessId) -> bool {
    let mut seen = BTreeSet::from([g]);
    let mut stack = vec![g];
    while let Some(n) = stack.pop() {
        for p in core.cdg.predecessors(n) {
            if p.process == core.id && !core.history.is_committed(p) {
                return true;
            }
            if seen.insert(p) {
                stack.push(p);
            }
        }
    }
    false
}

fn relevant(core: &ProcessCore, g: GuessId) -> bool {
    !core.history.is_aborted(g)
        || !core.holders_of(g).is_empty()
        || core.own.contains_key(&g)
        || core.cdg.contains_node(g)
}

proptest! {
    /// Random forks, deliveries, joins, COMMITs, ABORTs and PRECEDENCEs at
    /// one process. After every step the holder index and rollback points
    /// match a scan of every thread; a COMMIT removes exactly the committed
    /// guesses everywhere; an ABORT rolls back, restores and discards
    /// exactly the threads a scan of the pre-abort metadata names.
    #[test]
    fn resolution_matches_thread_scan(steps in proptest::collection::vec(arb_step(), 1..40)) {
        let mut core = ProcessCore::new(ProcessId(0), CoreConfig::default());
        for step in steps {
            let before = view(&core);
            match step {
                Step::Fork(i) => {
                    // A left thread forks again only after its join.
                    let busy: BTreeSet<ForkIndex> = core
                        .own
                        .values()
                        .filter(|o| o.state == OwnGuessState::Pending)
                        .map(|o| o.left_thread)
                        .collect();
                    let ready: Vec<ForkIndex> = core
                        .live_threads()
                        .filter(|t| t.phase == ThreadPhase::Running && !busy.contains(&t.index))
                        .map(|t| t.index)
                        .collect();
                    if let Some(&t) = ready.get(i % ready.len().max(1)) {
                        core.fork(t, 1);
                    }
                }
                Step::Deliver(i, picks) => {
                    let running: Vec<ForkIndex> = core
                        .live_threads()
                        .filter(|t| t.phase == ThreadPhase::Running)
                        .map(|t| t.index)
                        .collect();
                    let Some(&t) = running.get(i % running.len().max(1)) else { continue };
                    let guard: Guard = picks.iter().filter_map(|&p| pick_guess(&core, p)).collect();
                    let mut env = Envelope {
                        id: MsgId(0),
                        from: ProcessId(1),
                        from_thread: 0,
                        to: ProcessId(0),
                        guard: guard.into(),
                        table_acks: vec![],
                        kind: DataKind::Send,
                        payload: Value::Unit,
                        label: "M".into(),
                        link_seq: 0,
                    };
                    if core.classify_arrival(&mut env) != opcsp_core::ArrivalVerdict::Ok
                        || core.guard_depends_on_future(t, env.guard()).is_some()
                    {
                        continue;
                    }
                    core.deliver(t, &env);
                }
                Step::Join(i, ok) => {
                    let pending: Vec<GuessId> = core
                        .own
                        .values()
                        .filter(|o| {
                            o.state == OwnGuessState::Pending
                                && core.threads.get(&o.left_thread).map(|t| t.phase)
                                    == Some(ThreadPhase::Running)
                        })
                        .map(|o| o.id)
                        .collect();
                    let Some(&g) = pending.get(i % pending.len().max(1)) else { continue };
                    match core.join_left_done(g, ok) {
                        JoinDecision::Abort { effects } if !ok => {
                            check_abort(&before, &effects, &core)
                        }
                        JoinDecision::Commit { .. } => check_commit(&before, &core),
                        _ => {}
                    }
                }
                Step::Commit(i) => {
                    // COMMIT(g) implies its CDG predecessors committed; it
                    // cannot arrive before an own predecessor commits here.
                    let g = foreign(i);
                    if core.history.is_aborted(g) || own_predecessor(&core, g) {
                        continue;
                    }
                    core.on_commit(g);
                    check_commit(&before, &core);
                    prop_assert!(core.holders_of(g).is_empty());
                }
                Step::Abort(i) => {
                    let Some(g) = pick_guess(&core, i) else { continue };
                    let was_relevant = relevant(&core, g);
                    let effects = core.on_abort(g);
                    if was_relevant {
                        check_abort(&before, &effects, &core);
                    } else {
                        prop_assert!(effects.is_empty());
                        prop_assert_eq!(&view(&core), &before);
                    }
                }
                Step::Precedence(i, picks) => {
                    // An owner never sends PRECEDENCE(g, guard) with g in
                    // the guard: it detects that self-cycle at the join.
                    let g = foreign(i);
                    let guard: Guard = picks
                        .iter()
                        .filter_map(|&p| pick_guess(&core, p))
                        .filter(|&h| h != g)
                        .collect();
                    core.on_precedence(g, &guard);
                }
            }
            check_index(&core);
        }
    }
}
