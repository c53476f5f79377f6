//! Identifier types for processes, threads, guesses, and state indices.
//!
//! The paper (§4.1) names a process's *n*-th fork `x_n`: the guess that the
//! left thread of fork *n* completes with no value fault and no time fault.
//! Because a process may abort its own threads and restart them, each guess
//! also carries an *incarnation number* (§4.1.2): the incarnation is bumped
//! every time the process aborts one of its own threads, and the thread
//! index is reset to the index of the aborted thread.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A process in the distributed system (client, server, or external sink).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u32);

impl ProcessId {
    /// Human-readable single-letter name for small systems (X, Y, Z, W, ...),
    /// matching the paper's figures.
    pub fn letter(self) -> String {
        const LETTERS: &[u8] = b"XYZWABCDEFGHIJKLMNOPQRSTUV";
        if (self.0 as usize) < LETTERS.len() {
            (LETTERS[self.0 as usize] as char).to_string()
        } else {
            format!("P{}", self.0)
        }
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// Incarnation number of a process's guessing state (§4.1.2).
///
/// Incremented each time the process aborts one of its own threads; used to
/// distinguish a re-executed fork's guess from the aborted original.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Incarnation(pub u32);

/// Index of a fork (and hence of the guess it created) within a process.
pub type ForkIndex = u32;

/// A guess identifier: "fork `index` of `process` (in `incarnation`) will
/// complete without a value fault or a time fault".
///
/// Written `x_{i,n}` in §4.1.2; the paper abbreviates it `x_n` when the
/// incarnation is clear from context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GuessId {
    pub process: ProcessId,
    pub incarnation: Incarnation,
    pub index: ForkIndex,
}

impl GuessId {
    /// Bytes one guess occupies in a wire-format guard tag — derived from
    /// the actual identifier field widths so it tracks any change to them.
    pub const WIRE_BYTES: usize = std::mem::size_of::<ProcessId>()
        + std::mem::size_of::<Incarnation>()
        + std::mem::size_of::<ForkIndex>();

    pub const fn new(process: ProcessId, incarnation: Incarnation, index: ForkIndex) -> Self {
        GuessId {
            process,
            incarnation,
            index,
        }
    }

    /// Construct a first-incarnation guess, the common case in the figures.
    pub const fn first(process: ProcessId, index: ForkIndex) -> Self {
        GuessId {
            process,
            incarnation: Incarnation(0),
            index,
        }
    }
}

impl fmt::Display for GuessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.incarnation.0 == 0 {
            write!(f, "{}{}", self.process.letter().to_lowercase(), self.index)
        } else {
            write!(
                f,
                "{}[{}]{}",
                self.process.letter().to_lowercase(),
                self.incarnation.0,
                self.index
            )
        }
    }
}

/// A hash map keyed by guess with a fixed hasher: lookups cost a few
/// multiplies instead of SipHash rounds, and iteration order is the same on
/// every run (no per-process random seed), so nothing downstream can pick up
/// host-dependent order by accident.
pub type GuessMap<V> = HashMap<GuessId, V, BuildHasherDefault<GuessHasher>>;

/// Multiply-rotate word hasher (the FxHash mixing step) for the small
/// fixed-width identifiers used as map keys in the protocol core.
#[derive(Debug, Clone, Copy, Default)]
pub struct GuessHasher(u64);

impl GuessHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for GuessHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
}

/// A thread within a process, identified by the fork index that created it.
///
/// Thread 0 is the process's initial thread. The left thread of fork `n`
/// keeps the creating thread's index; the right thread is thread `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId {
    pub process: ProcessId,
    pub index: ForkIndex,
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.process.letter(), self.index)
    }
}

/// A state index (§4.1.1): `(thread, interval)` where the interval number is
/// incremented every time a message introducing a new dependency is received.
///
/// Rollback points (`Rollbacks[g]`, §4.1.3) are state indices: aborting `g`
/// rolls the thread back to the end of the interval *preceding* the one in
/// which `g` was acquired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StateIndex {
    pub thread: ForkIndex,
    pub interval: u32,
}

impl StateIndex {
    pub const fn new(thread: ForkIndex, interval: u32) -> Self {
        StateIndex { thread, interval }
    }
}

impl fmt::Display for StateIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s[{},{}]", self.thread, self.interval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_letters_follow_paper_convention() {
        assert_eq!(ProcessId(0).to_string(), "X");
        assert_eq!(ProcessId(1).to_string(), "Y");
        assert_eq!(ProcessId(2).to_string(), "Z");
        assert_eq!(ProcessId(3).to_string(), "W");
        assert_eq!(ProcessId(26).to_string(), "P26");
    }

    #[test]
    fn guess_display_matches_paper_notation() {
        let g = GuessId::first(ProcessId(0), 1);
        assert_eq!(g.to_string(), "x1");
        let g2 = GuessId::new(ProcessId(2), Incarnation(2), 4);
        assert_eq!(g2.to_string(), "z[2]4");
    }

    #[test]
    fn guess_ordering_is_process_then_incarnation_then_index() {
        let a = GuessId::new(ProcessId(0), Incarnation(0), 9);
        let b = GuessId::new(ProcessId(0), Incarnation(1), 1);
        let c = GuessId::new(ProcessId(1), Incarnation(0), 0);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn state_index_orders_by_thread_then_interval() {
        let a = StateIndex::new(0, 5);
        let b = StateIndex::new(1, 0);
        let c = StateIndex::new(1, 2);
        assert!(a < b && b < c);
    }

    #[test]
    fn wire_bytes_tracks_field_widths() {
        assert_eq!(
            GuessId::WIRE_BYTES,
            std::mem::size_of::<u32>() * 3,
            "three u32-backed fields"
        );
    }

    #[test]
    fn display_round_trips_are_stable() {
        assert_eq!(StateIndex::new(3, 7).to_string(), "s[3,7]");
        assert_eq!(
            ThreadId {
                process: ProcessId(1),
                index: 2
            }
            .to_string(),
            "Y#2"
        );
    }
}
