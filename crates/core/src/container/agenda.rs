//! The container's agenda: every due date the container keeps, in one
//! structure of `(due, kind, key)` entries.
//!
//! A [`Kind`] names the tick phase that owns an entry; the key names what
//! it is about. Each kind has its own min-heap lane, so a phase pops only
//! its own due keys, in `(due, key)` order, and [`Agenda::next_due`] is
//! the earliest head over all lanes. A key is armed at most once per kind:
//! [`Agenda::arm`] keeps the earlier date, [`Agenda::set`] replaces it and
//! [`Agenda::disarm`] drops it. Superseded heap entries are skipped when
//! they surface; they can make `next_due` early, never late. Popping
//! disarms a key; the phase checks it against live state and re-arms it
//! if it is not done yet.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use marea_presentation::Name;
use marea_protocol::Micros;

/// The tick phase an agenda entry belongs to, and what its key is
/// (DESIGN.md §10 lists who arms each kind).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind {
    NodeExpiry,       // a peer's heartbeat timeout (key: node)
    Resolve,          // name resolution may have changed (0)
    InterestRetry,    // waiting file interests re-try seen announces (0)
    Timer,            // a service timer (timer id)
    VarDeadline,      // a variable channel's loss deadline (channel)
    CallDeadline,     // a pending call's reply deadline (request id)
    Link,             // a reliable link sent or received (peer)
    LinkTimer,        // a link's retransmission deadline or FEC flush (peer)
    FilePump,         // an outgoing file to pump (resource)
    FileQuery,        // an outgoing file's next completion query (resource)
    Heartbeat,        // the next heartbeat (0)
    Announce,         // the next periodic announce or digest (0)
    ReannounceWindow, // end of the forced re-announce debounce window (0)
    ReannounceFlush,  // a forced re-announce deferred to that window's end (0)
    Reassembly,       // incomplete fragment sets may be due for eviction (0)
}

/// What an entry is about.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Key {
    Id(u64),
    Name(Name),
}

#[derive(Debug, Default)]
struct Lane {
    heap: BinaryHeap<Reverse<(Micros, Key)>>,
    /// The live due date of every armed key.
    armed: HashMap<Key, Micros>,
}

/// One agenda per container (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Agenda {
    lanes: [Lane; Kind::Reassembly as usize + 1],
}

impl Agenda {
    /// Arms `key` at `due`, unless it is armed earlier already.
    pub fn arm(&mut self, kind: Kind, due: Micros, key: Key) {
        if self.due_of(kind, &key).is_none_or(|armed| due < armed) {
            self.set(kind, due, key);
        }
    }

    /// Arms `key` at exactly `due`.
    pub fn set(&mut self, kind: Kind, due: Micros, key: Key) {
        let lane = &mut self.lanes[kind as usize];
        if lane.armed.insert(key.clone(), due) != Some(due) {
            lane.heap.push(Reverse((due, key)));
        }
    }

    /// Disarms `key`.
    pub fn disarm(&mut self, kind: Kind, key: &Key) {
        self.lanes[kind as usize].armed.remove(key);
    }

    /// The due date `key` is armed at, if any.
    pub fn due_of(&self, kind: Kind, key: &Key) -> Option<Micros> {
        self.lanes[kind as usize].armed.get(key).copied()
    }

    /// Pops and disarms the earliest key of `kind` due at `now` or before.
    pub fn pop_due(&mut self, kind: Kind, now: Micros) -> Option<(Micros, Key)> {
        let lane = &mut self.lanes[kind as usize];
        while lane.heap.peek().is_some_and(|Reverse((due, _))| *due <= now) {
            let Reverse((due, key)) = lane.heap.pop()?;
            if lane.armed.get(&key) == Some(&due) {
                lane.armed.remove(&key);
                return Some((due, key));
            }
        }
        None
    }

    /// Pops every due key of `kind`; `true` if there was one.
    pub fn drain_due(&mut self, kind: Kind, now: Micros) -> bool {
        let mut any = false;
        while self.pop_due(kind, now).is_some() {
            any = true;
        }
        any
    }

    /// The earliest due date on the agenda.
    pub fn next_due(&self) -> Option<Micros> {
        self.lanes.iter().filter_map(|l| l.heap.peek().map(|Reverse((due, _))| *due)).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_kind_pops_its_own_keys_in_due_then_key_order() {
        let mut a = Agenda::default();
        a.arm(Kind::Timer, Micros(20), Key::Id(1));
        a.arm(Kind::Timer, Micros(10), Key::Id(9));
        a.arm(Kind::Timer, Micros(10), Key::Id(3));
        a.arm(Kind::Link, Micros(5), Key::Id(7));
        assert_eq!(a.next_due(), Some(Micros(5)));
        assert_eq!(a.pop_due(Kind::Timer, Micros(15)), Some((Micros(10), Key::Id(3))));
        assert_eq!(a.pop_due(Kind::Timer, Micros(15)), Some((Micros(10), Key::Id(9))));
        assert_eq!(a.pop_due(Kind::Timer, Micros(15)), None, "key 1 is not due yet");
        assert_eq!(a.next_due(), Some(Micros(5)), "the link lane is untouched");
    }

    #[test]
    fn superseded_and_disarmed_entries_never_pop() {
        let mut a = Agenda::default();
        a.arm(Kind::Link, Micros(50), Key::Id(2));
        a.arm(Kind::Link, Micros(80), Key::Id(2));
        a.arm(Kind::Link, Micros(0), Key::Id(2));
        assert_eq!(a.due_of(Kind::Link, &Key::Id(2)), Some(Micros(0)), "earliest kept");
        assert_eq!(a.pop_due(Kind::Link, Micros(100)), Some((Micros(0), Key::Id(2))));
        assert_eq!(a.pop_due(Kind::Link, Micros(100)), None);
        assert_eq!(a.next_due(), None, "stale entries were drained on the way");

        a.set(Kind::Announce, Micros(10), Key::Id(0));
        a.set(Kind::Announce, Micros(30), Key::Id(0));
        assert_eq!(a.pop_due(Kind::Announce, Micros(20)), None, "moved later");
        let key = Key::Name(Name::new("img").unwrap());
        a.arm(Kind::FileQuery, Micros(10), key.clone());
        a.disarm(Kind::FileQuery, &key);
        assert!(!a.drain_due(Kind::FileQuery, Micros(10)));
    }
}
