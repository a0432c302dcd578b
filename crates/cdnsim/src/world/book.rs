//! The start book: every query start that has not begun, filed under
//! the `(at, seq)` its schedule reserved, outside the event queue.
//!
//! Invariant: the earliest entry has a wake queued at its own
//! `(at, seq)`. An insert that becomes the earliest queues its wake; a
//! displaced earliest keeps the one it has; a popped entry leaves the
//! new earliest a wake if it has none. So when a wake pops, the
//! earliest entry is exactly the one filed there, and each entry gets
//! exactly one wake (DESIGN.md §12).

use super::{QuerySeries, QuerySpec};
use simcore::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use tcpsim::Net;

/// Timer token of the book's wake. Action tokens are `actions` slab
/// indices and never reach it.
pub(super) const START_WAKE: u64 = u64::MAX;

/// `fixed_fe` of a [`PackedSpec`] that uses the DNS default.
const NO_FE: u32 = u32::MAX;

/// A filed start.
pub(super) enum Start {
    Query(PackedSpec),
    Series(Box<SeriesCursor>),
}

/// A [`QuerySpec`] with its ids packed to `u32`.
pub(super) struct PackedSpec {
    client: u32,
    keyword: u32,
    fixed_fe: u32,
    instant_followup: bool,
}

impl PackedSpec {
    /// Packs `spec`, whose keyword is already inside the corpus.
    pub(super) fn pack(spec: &QuerySpec) -> PackedSpec {
        PackedSpec {
            client: pack_id(spec.client),
            keyword: u32::try_from(spec.keyword).expect("keyword ids fit u32"),
            fixed_fe: spec.fixed_fe.map_or(NO_FE, pack_id),
            instant_followup: spec.instant_followup,
        }
    }

    pub(super) fn unpack(&self) -> QuerySpec {
        QuerySpec {
            client: self.client as usize,
            keyword: self.keyword as u64,
            fixed_fe: (self.fixed_fe != NO_FE).then_some(self.fixed_fe as usize),
            instant_followup: self.instant_followup,
        }
    }
}

fn pack_id(id: usize) -> u32 {
    u32::try_from(id)
        .ok()
        .filter(|&v| v != NO_FE)
        .expect("client and FE indices fit u32")
}

/// A query series' next member.
pub(super) struct SeriesCursor {
    pub(super) series: QuerySeries,
    pub(super) member: u64,
}

impl SeriesCursor {
    /// The spec of the current member.
    pub(super) fn spec(&self) -> QuerySpec {
        let s = &self.series;
        QuerySpec {
            client: s.client,
            keyword: s.keywords[(self.member % s.keywords.len() as u64) as usize],
            fixed_fe: s.fixed_fe,
            instant_followup: false,
        }
    }
}

struct Entry {
    at: SimTime,
    seq: u64,
    start: Start,
    woken: bool,
}

// `BinaryHeap` is a max-heap: the earliest `(at, seq)` compares
// greatest. Sequence numbers are unique, so no two entries are equal.
impl Ord for Entry {
    fn cmp(&self, other: &Entry) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Entry) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Entry) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for Entry {}

/// Pending starts ordered by their reserved `(at, seq)`, with one wake
/// queued at the earliest.
#[derive(Default)]
pub(super) struct StartBook {
    heap: BinaryHeap<Entry>,
    hiwater: usize,
}

impl StartBook {
    /// Files `start` at `(at, seq)`, where `seq` came from
    /// [`Net::reserve_timer_seqs`] and the clock has not passed it.
    pub(super) fn insert(&mut self, net: &mut Net, at: SimTime, seq: u64, start: Start) {
        self.heap.push(Entry {
            at,
            seq,
            start,
            woken: false,
        });
        self.hiwater = self.hiwater.max(self.heap.len());
        self.wake_earliest(net);
    }

    /// Takes the earliest start when its wake pops, returning its
    /// sequence number with it.
    pub(super) fn pop(&mut self, net: &mut Net) -> (u64, Start) {
        let e = self.heap.pop().expect("a start wake with an empty book");
        debug_assert_eq!(e.at, net.now(), "a start wake popped off its entry");
        self.wake_earliest(net);
        (e.seq, e.start)
    }

    fn wake_earliest(&mut self, net: &mut Net) {
        if let Some(mut head) = self.heap.peek_mut() {
            if !head.woken {
                head.woken = true;
                net.set_timer_reserved(head.at, head.seq, START_WAKE);
            }
        }
    }

    /// Most starts the book held at once.
    pub(super) fn hiwater(&self) -> usize {
        self.hiwater
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_entry_fits_forty_bytes() {
        assert!(std::mem::size_of::<Entry>() <= 40);
    }
}
