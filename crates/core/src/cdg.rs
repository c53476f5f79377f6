//! The Commit Dependency Graph (§4.1.4, §4.2.8).
//!
//! For each thread we maintain a DAG over guess identifiers. PRECEDENCE
//! control messages add edges: `PRECEDENCE(x_n, Guard)` asserts that every
//! `g ∈ Guard` precedes `x_n`, so edges `g → x_n` are added. If an edge
//! insertion creates a cycle, a *time fault* has been detected and every
//! guess on the cycle must abort (§4.2.5: "If an edge added to the CDG
//! creates a cycle, then a time fault has been detected. All threads in the
//! cycle are aborted.").
//!
//! Representation (DESIGN.md §5d): every node with an edge owns a slot in
//! a slab, and each slot keeps its forward and reverse adjacency as plain vectors of
//! `(slot, generation)` links. Removing a node frees its slot and bumps the
//! slot's generation, which turns every link that still names it into a
//! stale link; walks skip stale links, and a list is compacted once its
//! stale links outnumber its live ones. Every operation therefore costs
//! O(degree of the nodes it touches), and [`Cdg::add_edges_into`] checks a
//! whole PRECEDENCE guard with one search.

use crate::ids::{GuessId, GuessMap};
use std::cell::Cell;
use std::collections::BTreeSet;

/// Index entry of a node without edges: it gets a slot with its first edge.
const NO_SLOT: u32 = u32::MAX;

/// One adjacency entry: the slot at the other end, valid while that slot's
/// generation still equals `gen`.
#[derive(Debug, Clone, Copy)]
struct Link {
    slot: u32,
    gen: u32,
}

/// An adjacency list plus the number of its links known to be stale.
#[derive(Debug, Clone, Default)]
struct Adj {
    links: Vec<Link>,
    stale: u32,
}

#[derive(Debug, Clone)]
struct Slot {
    id: GuessId,
    /// Bumped when the slot is freed, invalidating links to the old node.
    gen: u32,
    /// Forward links: `self → link`.
    out: Adj,
    /// Reverse links: `link → self`.
    inn: Adj,
}

/// Commit dependency graph: nodes are guesses, an edge `a → b` means "guess
/// `a` (logically) precedes guess `b`", i.e. `b` cannot commit before `a`.
#[derive(Debug, Clone, Default)]
pub struct Cdg {
    /// Live nodes and their slots (or `NO_SLOT`).
    index: GuessMap<u32>,
    slots: Vec<Slot>,
    /// Freed slots, reused before the slab grows.
    free: Vec<u32>,
    /// Number of live edges.
    edges: usize,
    /// Per-slot search stamps, parallel to `slots` (see `add_edges_into`).
    marks: Vec<u64>,
    epoch: u64,
    /// Scratch buffers reused across searches.
    queue: Vec<u32>,
    from_slots: Vec<u32>,
    /// Adjacency links read so far (a deterministic work counter).
    visits: Cell<u64>,
}

/// Result of inserting an edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeOutcome {
    /// Edge added (or already present); graph remains acyclic.
    Acyclic,
    /// The edge closed one or more cycles; the returned set contains every
    /// guess on some cycle through the new edge (all must be aborted).
    Cycle(BTreeSet<GuessId>),
}

impl Cdg {
    pub fn new() -> Self {
        Cdg::default()
    }

    pub fn contains_node(&self, g: GuessId) -> bool {
        self.index.contains_key(&g)
    }

    pub fn add_node(&mut self, g: GuessId) {
        self.index.entry(g).or_insert(NO_SLOT);
    }

    pub fn node_count(&self) -> usize {
        self.index.len()
    }

    pub fn edge_count(&self) -> usize {
        self.edges
    }

    pub fn has_edge(&self, from: GuessId, to: GuessId) -> bool {
        let (Some(f), Some(t)) = (self.slot(from), self.slot(to)) else {
            return false;
        };
        let links = &self.slots[f as usize].out.links;
        self.count(links.len());
        links.iter().any(|l| l.slot == t && self.live(*l))
    }

    /// Insert the edge `from → to`, detecting cycles.
    ///
    /// A self-loop `g → g` (the Figure 4 local time fault, `{x1} → {x1}`)
    /// is reported as a cycle containing just `g`.
    pub fn add_edge(&mut self, from: GuessId, to: GuessId) -> EdgeOutcome {
        self.add_edges_into(&[from], to)
    }

    /// Insert `f → to` for every `f` in `froms` — one PRECEDENCE(to, froms)
    /// — with a single cycle search. The outcome, the edges and the nodes
    /// are those of calling [`Cdg::add_edge`] for each member in turn: a
    /// cycle is reported iff the search forward from `to` reaches a member
    /// (or a member is `to` itself), and its members are the nodes on some
    /// path from `to` back to a reached member, plus `to`. Edges that close
    /// a cycle are recorded anyway: callers abort every guess on the cycle
    /// and then remove them, which erases the edges. An empty `froms` does
    /// nothing.
    pub fn add_edges_into(&mut self, froms: &[GuessId], to: GuessId) -> EdgeOutcome {
        if froms.is_empty() {
            return EdgeOutcome::Acyclic;
        }
        let t = self.slot_or_insert(to);
        let mut from_slots = std::mem::take(&mut self.from_slots);
        from_slots.clear();
        from_slots.extend(froms.iter().map(|&f| self.slot_or_insert(f)));

        // Stamps for this call: `fwd` marks nodes reached forward from
        // `to`, `back` those also found walking back from a reached member,
        // `pred` the current predecessors of `to`. Edges into `to` never
        // change what `to` reaches, so one search serves every member.
        self.epoch += 3;
        let (fwd, back, pred) = (self.epoch, self.epoch + 1, self.epoch + 2);

        let mut queue = std::mem::take(&mut self.queue);
        queue.clear();
        queue.push(t);
        self.marks[t as usize] = fwd;
        self.walk(&mut queue, |s| &s.out, |m| m < fwd, fwd);

        let mut self_loop = false;
        queue.clear();
        for &f in &from_slots {
            if f == t {
                self_loop = true;
            } else if self.marks[f as usize] == fwd {
                self.marks[f as usize] = back;
                queue.push(f);
            }
        }
        // Walk back from the reached members, staying inside the forward
        // set: every node on a path `to →* member` is in it.
        self.walk(&mut queue, |s| &s.inn, |m| m == fwd, back);
        let cycle = (self_loop || !queue.is_empty()).then(|| {
            let mut set: BTreeSet<GuessId> =
                queue.iter().map(|&n| self.slots[n as usize].id).collect();
            set.insert(to);
            set
        });

        // Insert the edges not already present.
        let links = &self.slots[t as usize].inn.links;
        self.count(links.len());
        for l in links {
            if self.slots[l.slot as usize].gen == l.gen {
                self.marks[l.slot as usize] = pred;
            }
        }
        let tgen = self.slots[t as usize].gen;
        self.slots[t as usize].inn.links.reserve(from_slots.len());
        for &f in &from_slots {
            if f == t || self.marks[f as usize] == pred {
                continue;
            }
            self.marks[f as usize] = pred;
            let fgen = self.slots[f as usize].gen;
            push_link(
                &mut self.slots[f as usize].out.links,
                Link { slot: t, gen: tgen },
            );
            self.slots[t as usize]
                .inn
                .links
                .push(Link { slot: f, gen: fgen });
            self.edges += 1;
        }
        self.queue = queue;
        self.from_slots = from_slots;
        cycle.map_or(EdgeOutcome::Acyclic, EdgeOutcome::Cycle)
    }

    /// Predecessors of `g` currently in the graph, in guess order.
    pub fn predecessors(&self, g: GuessId) -> Vec<GuessId> {
        self.neighbours(g, |s| &s.inn)
    }

    /// Successors of `g` currently in the graph, in guess order.
    pub fn successors(&self, g: GuessId) -> Vec<GuessId> {
        self.neighbours(g, |s| &s.out)
    }

    /// Remove a resolved guess (committed or aborted) and its edges
    /// (§4.2.6: "x_n is removed from the CDG. Any predecessors of x_n are
    /// also removed").
    pub fn remove(&mut self, g: GuessId) {
        let Some(s) = self.index.remove(&g).filter(|&s| s != NO_SLOT) else {
            return;
        };
        let slot = &mut self.slots[s as usize];
        // Cannot overflow: a slot whose generation reaches the maximum is
        // retired below.
        slot.gen += 1;
        let exhausted = slot.gen == u32::MAX;
        let out = std::mem::take(&mut slot.out);
        let inn = std::mem::take(&mut slot.inn);
        self.count(out.links.len() + inn.links.len());
        // Each live neighbour now holds one stale link back to `g`.
        for l in &out.links {
            if self.live(*l) {
                self.edges -= 1;
                self.charge_stale(l.slot, |s| &mut s.inn);
            }
        }
        for l in &inn.links {
            if self.live(*l) {
                self.edges -= 1;
                self.charge_stale(l.slot, |s| &mut s.out);
            }
        }
        // Reusing a slot whose generation would wrap could revive a stale
        // link to an old occupant.
        if !exhausted {
            self.free.push(s);
        }
    }

    /// Is `g` a *root*: present, with no unresolved predecessors? A guess
    /// whose predecessors have all committed can itself commit when its own
    /// guard empties.
    pub fn is_root(&self, g: GuessId) -> bool {
        let s = match self.index.get(&g) {
            None => return false,
            Some(&NO_SLOT) => return true,
            Some(&s) => s,
        };
        let links = &self.slots[s as usize].inn.links;
        self.count(links.len());
        !links.iter().any(|l| self.live(*l))
    }

    /// The nodes in guess order (sorted on each call; diagnostics and
    /// tests).
    pub fn nodes(&self) -> impl Iterator<Item = GuessId> {
        let mut ids: Vec<GuessId> = self.index.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter()
    }

    /// Adjacency links read so far by every operation on this graph: a
    /// deterministic measure of CDG work, independent of the host.
    pub fn visits(&self) -> u64 {
        self.visits.get()
    }

    /// Adjacency links currently stored, live or stale (each edge is
    /// stored twice, once per endpoint).
    pub fn stored_links(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.out.links.len() + s.inn.links.len())
            .sum()
    }

    /// Slots in the slab: the peak number of live nodes with edges, plus
    /// any slot retired after 2³² reuses.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Exhaustive acyclicity check (test/diagnostic use; the incremental
    /// `add_edge` maintains this invariant in normal operation).
    pub fn is_acyclic(&self) -> bool {
        // Kahn's algorithm over live nodes.
        let mut indeg = vec![0usize; self.slots.len()];
        let mut queue: Vec<u32> = Vec::new();
        let mut visited = 0usize;
        for &s in self.index.values() {
            if s == NO_SLOT {
                visited += 1;
                continue;
            }
            let d = self.slots[s as usize]
                .inn
                .links
                .iter()
                .filter(|l| self.live(**l))
                .count();
            indeg[s as usize] = d;
            if d == 0 {
                queue.push(s);
            }
        }
        while let Some(n) = queue.pop() {
            visited += 1;
            for l in &self.slots[n as usize].out.links {
                if self.live(*l) {
                    indeg[l.slot as usize] -= 1;
                    if indeg[l.slot as usize] == 0 {
                        queue.push(l.slot);
                    }
                }
            }
        }
        visited == self.index.len()
    }

    // ------------------------------------------------------------------
    // Slab internals
    // ------------------------------------------------------------------

    fn slot(&self, g: GuessId) -> Option<u32> {
        self.index.get(&g).copied().filter(|&s| s != NO_SLOT)
    }

    fn slot_or_insert(&mut self, g: GuessId) -> u32 {
        if let Some(s) = self.slot(g) {
            return s;
        }
        let s = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].id = g;
                s
            }
            None => {
                self.slots.push(Slot {
                    id: g,
                    gen: 0,
                    out: Adj::default(),
                    inn: Adj::default(),
                });
                self.marks.push(0);
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(g, s);
        s
    }

    /// Does `l` still name the node that occupied its slot when it was
    /// made?
    fn live(&self, l: Link) -> bool {
        self.slots[l.slot as usize].gen == l.gen
    }

    fn count(&self, links: usize) {
        self.visits.set(self.visits.get() + links as u64);
    }

    /// Breadth-first walk from the nodes in `queue` along the `side`
    /// lists, appending to `queue` and stamping with `stamp` every node
    /// whose current stamp satisfies `fresh`.
    fn walk(
        &mut self,
        queue: &mut Vec<u32>,
        side: impl Fn(&Slot) -> &Adj,
        fresh: impl Fn(u64) -> bool,
        stamp: u64,
    ) {
        let (slots, marks) = (&self.slots, &mut self.marks);
        let mut i = 0;
        while i < queue.len() {
            let links = &side(&slots[queue[i] as usize]).links;
            i += 1;
            self.visits.set(self.visits.get() + links.len() as u64);
            for l in links {
                let m = l.slot as usize;
                if slots[m].gen == l.gen && fresh(marks[m]) {
                    marks[m] = stamp;
                    queue.push(l.slot);
                }
            }
        }
    }

    fn neighbours(&self, g: GuessId, side: impl Fn(&Slot) -> &Adj) -> Vec<GuessId> {
        let Some(s) = self.slot(g) else {
            return Vec::new();
        };
        let links = &side(&self.slots[s as usize]).links;
        self.count(links.len());
        let mut ids: Vec<GuessId> = links
            .iter()
            .filter(|l| self.live(**l))
            .map(|l| self.slots[l.slot as usize].id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Record one more stale link in a list of `slot`, compacting the list
    /// once its stale links outnumber its live ones. This keeps every list
    /// within twice its live length.
    fn charge_stale(&mut self, slot: u32, side: impl Fn(&mut Slot) -> &mut Adj) {
        let adj = side(&mut self.slots[slot as usize]);
        adj.stale += 1;
        if 2 * adj.stale as usize <= adj.links.len() {
            return;
        }
        let mut links = std::mem::take(&mut adj.links);
        self.count(links.len());
        links.retain(|l| self.live(*l));
        let adj = side(&mut self.slots[slot as usize]);
        adj.links = links;
        adj.stale = 0;
    }
}

/// Push growing by half rather than doubling. Forward lists grow one link
/// per PRECEDENCE, so with doubling their spare capacity is a large share
/// of the graph's memory.
fn push_link(links: &mut Vec<Link>, l: Link) {
    if links.len() == links.capacity() {
        links.reserve_exact((links.len() / 2).max(4));
    }
    links.push(l);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcessId;

    fn g(p: u32, n: u32) -> GuessId {
        GuessId::first(ProcessId(p), n)
    }

    #[test]
    fn simple_edge_is_acyclic() {
        let mut c = Cdg::new();
        assert_eq!(c.add_edge(g(0, 1), g(1, 1)), EdgeOutcome::Acyclic);
        assert!(c.has_edge(g(0, 1), g(1, 1)));
        assert!(c.is_acyclic());
    }

    #[test]
    fn self_loop_is_figure4_time_fault() {
        // Figure 4: {x1} → {x1} — the left thread's guard contains its own
        // guess, a cycle of length one.
        let mut c = Cdg::new();
        match c.add_edge(g(0, 1), g(0, 1)) {
            EdgeOutcome::Cycle(s) => assert_eq!(s, BTreeSet::from([g(0, 1)])),
            _ => panic!("self loop must be a cycle"),
        }
    }

    #[test]
    fn two_node_cycle_is_figure7() {
        // Figure 7: z1 → x1 and then x1 → z1 — both processes discover the
        // cycle and abort both guesses.
        let mut c = Cdg::new();
        assert_eq!(c.add_edge(g(2, 1), g(0, 1)), EdgeOutcome::Acyclic);
        match c.add_edge(g(0, 1), g(2, 1)) {
            EdgeOutcome::Cycle(s) => {
                assert!(s.contains(&g(0, 1)));
                assert!(s.contains(&g(2, 1)));
                assert_eq!(s.len(), 2);
            }
            _ => panic!("expected cycle"),
        }
    }

    #[test]
    fn cycle_reports_only_nodes_on_cycle() {
        // a → b → c → d, plus e → b; closing d → b must report {b, c, d}
        // and not a or e.
        let (a, b, c_, d, e) = (g(0, 1), g(1, 1), g(2, 1), g(3, 1), g(4, 1));
        let mut c = Cdg::new();
        c.add_edge(a, b);
        c.add_edge(b, c_);
        c.add_edge(c_, d);
        c.add_edge(e, b);
        match c.add_edge(d, b) {
            EdgeOutcome::Cycle(s) => {
                assert_eq!(s, BTreeSet::from([b, c_, d]));
            }
            _ => panic!("expected cycle"),
        }
    }

    #[test]
    fn remove_erases_node_and_edges() {
        let mut c = Cdg::new();
        c.add_edge(g(0, 1), g(1, 1));
        c.add_edge(g(1, 1), g(2, 1));
        c.remove(g(1, 1));
        assert!(!c.contains_node(g(1, 1)));
        assert!(!c.has_edge(g(0, 1), g(1, 1)));
        assert!(!c.has_edge(g(1, 1), g(2, 1)));
        assert_eq!(c.edge_count(), 0);
    }

    #[test]
    fn predecessors_and_successors() {
        let mut c = Cdg::new();
        c.add_edge(g(0, 1), g(1, 1));
        c.add_edge(g(2, 1), g(1, 1));
        assert_eq!(c.predecessors(g(1, 1)), vec![g(0, 1), g(2, 1)]);
        assert_eq!(c.successors(g(0, 1)), vec![g(1, 1)]);
        assert!(c.is_root(g(0, 1)));
        assert!(!c.is_root(g(1, 1)));
    }

    #[test]
    fn duplicate_edges_are_idempotent() {
        let mut c = Cdg::new();
        c.add_edge(g(0, 1), g(1, 1));
        assert_eq!(c.add_edge(g(0, 1), g(1, 1)), EdgeOutcome::Acyclic);
        assert_eq!(c.edge_count(), 1);
    }

    #[test]
    fn long_cycle_detected() {
        let mut c = Cdg::new();
        let nodes: Vec<GuessId> = (0..10).map(|i| g(i, 1)).collect();
        for w in nodes.windows(2) {
            assert_eq!(c.add_edge(w[0], w[1]), EdgeOutcome::Acyclic);
        }
        match c.add_edge(nodes[9], nodes[0]) {
            EdgeOutcome::Cycle(s) => assert_eq!(s.len(), 10),
            _ => panic!("expected 10-cycle"),
        }
    }
}
