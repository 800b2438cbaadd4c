//! The event index shared by [`Cluster`](crate::Cluster) and the shard
//! workers: which node has the earliest deadline, which CPUs wake up
//! when, and which nodes may hold runnable work.
//!
//! Every event source owns one *slot* — slot `2l` is local node `l`'s
//! earliest deadline, slot `2l + 1` its CPU-completion wake-up — and a
//! position-indexed binary min-heap keeps at most one live entry per
//! slot. Re-arming a deadline moves its key in place, so the heap never
//! holds more than the live sources (an RTO deadline that a send arms
//! and an ack cancels is one sift, not a push and a stale pop later).
//!
//! The runnable set is a [`RunSet`]: one bit per machine under one
//! summary bit per 64 machines, sized once. Membership changes on
//! nearly every event, so it must not allocate; the ascending walk
//! `run_cpus` takes over it decides same-instant CPU ties.

use demos_core::Node;
use demos_types::Time;

/// `pos` value of a slot that is not in the heap.
const ABSENT: u32 = u32::MAX;

/// Binary min-heap over `(key, slot)` with a slot → position table, so a
/// slot's key can be changed or removed in O(log live).
#[derive(Debug)]
pub(crate) struct SlotHeap {
    heap: Vec<(Time, u32)>,
    pos: Vec<u32>,
}

impl SlotHeap {
    pub(crate) fn new(slots: usize) -> Self {
        SlotHeap {
            heap: Vec::new(),
            pos: vec![ABSENT; slots],
        }
    }

    /// The key of `slot`, if it is live.
    pub(crate) fn get(&self, slot: usize) -> Option<Time> {
        self.heap.get(self.pos[slot] as usize).map(|&(t, _)| t)
    }

    /// Earliest live `(key, slot)`.
    pub(crate) fn peek(&self) -> Option<(Time, usize)> {
        self.heap.first().map(|&(t, s)| (t, s as usize))
    }

    /// Set `slot`'s key, or remove it with `None`.
    pub(crate) fn set(&mut self, slot: usize, key: Option<Time>) {
        let mut p = self.pos[slot] as usize;
        let live = p < self.heap.len();
        match key {
            Some(t) if live => self.heap[p].0 = t,
            Some(t) => {
                p = self.heap.len();
                self.heap.push((t, slot as u32));
            }
            None if live => {
                self.pos[slot] = ABSENT;
                let last = self.heap.pop().expect("a live slot is in the heap");
                if p == self.heap.len() {
                    return;
                }
                self.heap[p] = last;
            }
            None => return,
        }
        let p = self.sift_up(p);
        self.sift_down(p);
    }

    /// Move the entry at `p` towards the root until its parent is no
    /// later; returns where it came to rest.
    fn sift_up(&mut self, mut p: usize) -> usize {
        let e = self.heap[p];
        while p > 0 && e < self.heap[(p - 1) / 2] {
            self.place(p, self.heap[(p - 1) / 2]);
            p = (p - 1) / 2;
        }
        self.place(p, e);
        p
    }

    fn sift_down(&mut self, mut p: usize) {
        let e = self.heap[p];
        loop {
            let mut child = 2 * p + 1;
            if child + 1 < self.heap.len() && self.heap[child + 1] < self.heap[child] {
                child += 1;
            }
            if child >= self.heap.len() || e <= self.heap[child] {
                break;
            }
            self.place(p, self.heap[child]);
            p = child;
        }
        self.place(p, e);
    }

    fn place(&mut self, p: usize, e: (Time, u32)) {
        self.heap[p] = e;
        self.pos[e.1 as usize] = p as u32;
    }
}

/// The set bits of `word`, ascending.
fn ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// A set of machine indices in `base .. base + n` as a two-level bitset
/// that never allocates after construction. Indices in the interface
/// are global, like [`EventIndex`]'s.
#[derive(Debug)]
pub(crate) struct RunSet {
    base: usize,
    /// The `leaves` membership words — bit `l % 64` of word `l / 64` is
    /// local machine `l` — followed by the summary words: bit `w % 64`
    /// of summary word `w / 64` is set exactly when membership word `w`
    /// is non-zero. One buffer, so a set is one allocation.
    words: Vec<u64>,
    leaves: usize,
}

impl RunSet {
    pub(crate) fn new(base: usize, n: usize) -> Self {
        let leaves = n.div_ceil(64);
        RunSet {
            base,
            words: vec![0; leaves + leaves.div_ceil(64)],
            leaves,
        }
    }

    /// `(membership word, bit)` of machine `i`.
    fn locate(&self, i: usize) -> (usize, u64) {
        let l = i - self.base;
        (l / 64, 1 << (l % 64))
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        let (w, bit) = self.locate(i);
        self.words[w] & bit != 0
    }

    pub(crate) fn insert(&mut self, i: usize) {
        let (w, bit) = self.locate(i);
        self.words[w] |= bit;
        self.words[self.leaves + w / 64] |= 1 << (w % 64);
    }

    /// Remove `i`; whether it was a member.
    pub(crate) fn remove(&mut self, i: usize) -> bool {
        let (w, bit) = self.locate(i);
        let was = self.words[w] & bit != 0;
        self.words[w] &= !bit;
        if self.words[w] == 0 {
            self.words[self.leaves + w / 64] &= !(1 << (w % 64));
        }
        was
    }

    /// The members, ascending. Empty membership words are skipped
    /// through the summary.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let (members, summary) = self.words.split_at(self.leaves);
        summary.iter().enumerate().flat_map(move |(s, &sum)| {
            ones(sum).flat_map(move |b| {
                let w = 64 * s + b;
                ones(members[w]).map(move |bit| self.base + 64 * w + bit)
            })
        })
    }
}

/// Deadlines, CPU wake-ups and the runnable set of the machines
/// `base .. base + n`. Machine indices in the interface are global.
#[derive(Debug)]
pub(crate) struct EventIndex {
    base: usize,
    heap: SlotHeap,
    /// Each node's earliest deadline as of its last `touch`. Outlives the
    /// heap entry when the deadline fires: a node whose deadline is the
    /// same after `on_time` is deliberately not re-armed.
    node_deadline: Vec<Option<Time>>,
    /// Nodes whose run queue may hold work; `run_cpus` walks this set
    /// instead of every machine.
    runnable: RunSet,
}

impl EventIndex {
    pub(crate) fn new(base: usize, n: usize) -> Self {
        EventIndex {
            base,
            heap: SlotHeap::new(2 * n),
            node_deadline: vec![None; n],
            runnable: RunSet::new(base, n),
        }
    }

    /// The runnable machines, ascending.
    pub(crate) fn runnable(&self) -> impl Iterator<Item = usize> + '_ {
        self.runnable.iter()
    }

    /// Re-derive machine `i`'s deadline, runnable membership and CPU
    /// wake-up (`busy` is when its CPU frees) after a mutation. A crashed
    /// machine (`down`) holds none of them.
    pub(crate) fn touch(&mut self, i: usize, node: &mut Node, down: bool, busy: Time, now: Time) {
        let l = i - self.base;
        if down {
            self.node_deadline[l] = None;
            self.runnable.remove(i);
            self.heap.set(2 * l, None);
            self.heap.set(2 * l + 1, None);
            return;
        }
        let d = node.next_deadline();
        if d != self.node_deadline[l] {
            self.node_deadline[l] = d;
            self.heap.set(2 * l, d);
        }
        if node.has_runnable() {
            self.runnable.insert(i);
            if busy > now {
                // Work is queued behind a running activation: wake up at
                // the completion instant to run it.
                self.heap.set(2 * l + 1, Some(busy));
            }
        } else if self.runnable.remove(i) {
            self.heap.set(2 * l + 1, None);
        }
    }

    /// Earliest indexed event. A CPU wake-up at or before `now` is not
    /// one — the CPU is free, `run_cpus` picks the node up from the
    /// runnable set — so it is dropped, never returned. `busy` is the
    /// owning range's `cpu_busy_until`, read by the debug cross-check.
    pub(crate) fn peek(&mut self, now: Time, busy: &[Time]) -> Option<Time> {
        let r = loop {
            match self.heap.peek() {
                Some((t, slot)) if slot % 2 == 1 && t <= now => self.heap.set(slot, None),
                top => break top.map(|(t, _)| t),
            }
        };
        debug_assert_eq!(r, self.scan(now, busy), "event index diverged from scan");
        r
    }

    /// What `peek` must return, by scanning every source: the deadlines
    /// that have not fired, and the CPUs of runnable nodes busy past
    /// `now`. Checks each slot against its source on the way.
    fn scan(&self, now: Time, busy: &[Time]) -> Option<Time> {
        let mut min: Option<Time> = None;
        for (l, &d) in self.node_deadline.iter().enumerate() {
            let timer = self.heap.get(2 * l);
            // A deadline leaves the heap only by firing (`pop_due`).
            assert!(timer == d || (timer.is_none() && d.is_some_and(|t| t <= now)));
            let cpu = (self.runnable.contains(self.base + l) && busy[l] > now).then(|| busy[l]);
            // A wake-up that `now` has reached may still await its drop.
            let slot = self.heap.get(2 * l + 1).filter(|&t| t > now);
            assert_eq!(slot, cpu, "cpu slot of local node {l}");
            min = [min, timer, cpu].into_iter().flatten().min();
        }
        min
    }

    /// Remove every entry due at or before `now`, pushing the machines
    /// whose *deadline* is due onto `due` in ascending order. A CPU
    /// wake-up at or before `now` is dropped: the CPU is free and
    /// `run_cpus` picks the node up from the runnable set.
    pub(crate) fn pop_due(&mut self, now: Time, due: &mut Vec<usize>) {
        while let Some((t, slot)) = self.heap.peek() {
            if t > now {
                break;
            }
            self.heap.set(slot, None);
            if slot % 2 == 0 {
                due.push(self.base + slot / 2);
            }
        }
        due.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Random `insert` / `remove` / `contains` / walk sequences against a
    /// `BTreeSet`, for ranges that start off zero and end off a word
    /// boundary: same answers, same ascending walk, and a summary bit is
    /// clear exactly when its 64 members are.
    #[test]
    fn run_set_matches_btreeset_model() {
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move |bound: usize| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as usize % bound
        };
        for base in [0, 4_096] {
            for n in [1, 63, 64, 65, 4_096, 4_097, 65_536] {
                let mut set = RunSet::new(base, n);
                let mut model: BTreeSet<usize> = BTreeSet::new();
                let mut ops = 0;
                while ops < 200_000 {
                    let i = base + next(n);
                    match next(1024) {
                        // The whole walk, and every summary bit.
                        0 => {
                            assert!(set.iter().eq(model.iter().copied()), "{base}+{n}");
                            let (members, summary) = set.words.split_at(set.leaves);
                            for (w, &word) in members.iter().enumerate() {
                                let bit = summary[w / 64] >> (w % 64) & 1;
                                assert_eq!(bit == 1, word != 0, "{base}+{n} word {w}");
                            }
                            ops += 1;
                        }
                        // Drain a run of neighbours, so that a dense set
                        // still empties whole words.
                        1..=8 => {
                            let end = (i + next(200)).min(base + n);
                            for j in i..end {
                                assert_eq!(set.remove(j), model.remove(&j), "{base}+{n} at {j}");
                            }
                            ops += end - i;
                        }
                        op => {
                            match op % 3 {
                                0 => {
                                    set.insert(i);
                                    model.insert(i);
                                }
                                1 => {
                                    assert_eq!(set.remove(i), model.remove(&i), "{base}+{n} at {i}")
                                }
                                _ => {}
                            }
                            assert_eq!(set.contains(i), model.contains(&i), "{base}+{n} at {i}");
                            ops += 1;
                        }
                    }
                }
                assert!(set.iter().eq(model.iter().copied()), "{base}+{n}");
            }
        }
    }

    /// Random `set` / `peek` / pop-due sequences against a `BTreeMap`
    /// scan: the heap must always agree on the minimum, on every slot's
    /// key and on the live count.
    #[test]
    fn slot_heap_matches_map_model() {
        const SLOTS: usize = 64;
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move |bound: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % bound
        };
        let mut heap = SlotHeap::new(SLOTS);
        let mut model: BTreeMap<usize, Time> = BTreeMap::new();
        let mut now = 0u64;
        for step in 0..200_000u32 {
            let slot = next(SLOTS as u64) as usize;
            match next(8) {
                // Far-future and near re-arms, in place or fresh.
                0..=3 => {
                    let t = Time::from_micros(now + next(if step % 3 == 0 { 100_000 } else { 64 }));
                    heap.set(slot, Some(t));
                    model.insert(slot, t);
                }
                4 | 5 => {
                    heap.set(slot, None);
                    model.remove(&slot);
                }
                // Advance and pop everything due.
                6 => {
                    now += next(48);
                    let t_now = Time::from_micros(now);
                    let mut popped = Vec::new();
                    while let Some((t, s)) = heap.peek() {
                        if t > t_now {
                            break;
                        }
                        heap.set(s, None);
                        popped.push(s);
                    }
                    popped.sort_unstable();
                    let due: Vec<usize> = model
                        .iter()
                        .filter(|&(_, &t)| t <= t_now)
                        .map(|(&s, _)| s)
                        .collect();
                    assert_eq!(popped, due, "step {step}");
                    model.retain(|_, t| *t > t_now);
                }
                _ => {}
            }
            let live = (0..SLOTS).filter(|&s| heap.get(s).is_some()).count();
            assert_eq!(live, model.len(), "step {step}");
            assert_eq!(
                heap.peek().map(|(t, _)| t),
                model.values().copied().min(),
                "step {step}"
            );
            assert_eq!(heap.get(slot), model.get(&slot).copied(), "step {step}");
        }
        for s in 0..SLOTS {
            assert_eq!(heap.get(s), model.get(&s).copied());
        }
    }
}
