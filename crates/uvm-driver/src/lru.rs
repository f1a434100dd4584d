//! VABlock-granularity LRU eviction list (paper §V-A1).
//!
//! The stock driver keeps an LRU list of VABlocks that is updated **only
//! when a fault is handled** from a block. This has the pathologies the
//! paper highlights: data that is reused on the GPU without faulting never
//! moves up, and fully-resident blocks sink to the tail until evicted and
//! re-faulted — the hottest data can be the most likely to be evicted.
//!
//! Implemented as an intrusive doubly-linked list over block indices:
//! O(1) touch, push, remove, and pop.

use gpu_model::VaBlockIdx;

const NONE: u32 = u32::MAX;

/// Intrusive LRU list over VABlock indices `0..capacity`.
#[derive(Debug, Clone)]
pub struct LruList {
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Most-recently-used end.
    head: u32,
    /// Least-recently-used end.
    tail: u32,
    present: Vec<bool>,
    len: usize,
}

impl LruList {
    /// A list able to hold blocks `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        LruList {
            prev: vec![NONE; capacity],
            next: vec![NONE; capacity],
            head: NONE,
            tail: NONE,
            present: vec![false; capacity],
            len: 0,
        }
    }

    /// Number of blocks in the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// [`len`](LruList::len) as the telemetry gauge value: the number of
    /// VABlocks currently eligible for (fault-driven) eviction aging.
    pub fn tracked_blocks(&self) -> u64 {
        self.len as u64
    }

    /// True if `block` is in the list.
    pub fn contains(&self, block: VaBlockIdx) -> bool {
        self.present[block.0 as usize]
    }

    fn unlink(&mut self, i: usize) {
        let (p, n) = (self.prev[i], self.next[i]);
        if p == NONE {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NONE {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
        self.prev[i] = NONE;
        self.next[i] = NONE;
    }

    fn push_front(&mut self, i: usize) {
        self.prev[i] = NONE;
        self.next[i] = self.head;
        if self.head != NONE {
            self.prev[self.head as usize] = i as u32;
        }
        self.head = i as u32;
        if self.tail == NONE {
            self.tail = i as u32;
        }
    }

    /// Mark `block` most-recently-used, inserting it if absent. This is
    /// the *only* aging signal the stock driver has — called when a fault
    /// for the block is serviced.
    pub fn touch(&mut self, block: VaBlockIdx) {
        let i = block.0 as usize;
        if self.present[i] {
            if self.head == i as u32 {
                return;
            }
            self.unlink(i);
        } else {
            self.present[i] = true;
            self.len += 1;
        }
        self.push_front(i);
    }

    /// Remove and return the least-recently-used block.
    pub fn pop_lru(&mut self) -> Option<VaBlockIdx> {
        if self.tail == NONE {
            return None;
        }
        let i = self.tail as usize;
        self.unlink(i);
        self.present[i] = false;
        self.len -= 1;
        Some(VaBlockIdx(i as u64))
    }

    /// Remove a specific block (e.g. freed by the application).
    pub fn remove(&mut self, block: VaBlockIdx) -> bool {
        let i = block.0 as usize;
        if !self.present[i] {
            return false;
        }
        self.unlink(i);
        self.present[i] = false;
        self.len -= 1;
        true
    }

    /// Re-insert blocks that an eviction scan popped but skipped (pinned
    /// by the thrashing detector), restoring their relative recency: the
    /// slice is in pop order (LRU first), so reverse iteration touches
    /// the most-recently-used skip last and it lands at the head. Drains
    /// the vector so its capacity can be reused by the next scan.
    pub fn reinsert_skipped(&mut self, skipped: &mut Vec<VaBlockIdx>) {
        for v in skipped.drain(..).rev() {
            self.touch(v);
        }
    }

    /// Iterate from LRU to MRU: the victim-scan order for policies that
    /// rank candidates rather than popping the tail.
    pub fn iter_lru(&self) -> impl Iterator<Item = VaBlockIdx> + '_ {
        let mut cur = self.tail;
        std::iter::from_fn(move || {
            if cur == NONE {
                None
            } else {
                let out = VaBlockIdx(cur as u64);
                cur = self.prev[cur as usize];
                Some(out)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> VaBlockIdx {
        VaBlockIdx(i)
    }

    /// The list from MRU to LRU.
    fn mru_order(l: &LruList) -> Vec<u64> {
        let mut order: Vec<u64> = l.iter_lru().map(|x| x.0).collect();
        order.reverse();
        order
    }

    #[test]
    fn touch_inserts_and_orders() {
        let mut l = LruList::new(8);
        l.touch(b(0));
        l.touch(b(1));
        l.touch(b(2));
        assert_eq!(l.len(), 3);
        assert_eq!(mru_order(&l), vec![2, 1, 0]);
    }

    #[test]
    fn touch_moves_to_front() {
        let mut l = LruList::new(8);
        for i in 0..4 {
            l.touch(b(i));
        }
        l.touch(b(0)); // re-fault block 0
        assert_eq!(l.pop_lru(), Some(b(1)));
        assert_eq!(l.pop_lru(), Some(b(2)));
        assert_eq!(l.pop_lru(), Some(b(3)));
        assert_eq!(l.pop_lru(), Some(b(0)));
        assert_eq!(l.pop_lru(), None);
        assert!(l.is_empty());
    }

    #[test]
    fn touch_head_is_noop() {
        let mut l = LruList::new(4);
        l.touch(b(1));
        l.touch(b(1));
        assert_eq!(l.len(), 1);
        assert_eq!(l.pop_lru(), Some(b(1)));
    }

    #[test]
    fn remove_middle() {
        let mut l = LruList::new(8);
        for i in 0..3 {
            l.touch(b(i));
        }
        assert!(l.remove(b(1)));
        assert!(!l.remove(b(1)));
        assert_eq!(mru_order(&l), vec![2, 0]);
        assert!(!l.contains(b(1)));
    }

    #[test]
    fn reinsert_skipped_restores_recency_order() {
        let mut l = LruList::new(8);
        for i in 0..4 {
            l.touch(b(i));
        }
        // An eviction scan pops 0 then 1 (both pinned, say), then takes 2.
        let mut skipped = vec![l.pop_lru().unwrap(), l.pop_lru().unwrap()];
        assert_eq!(skipped, vec![b(0), b(1)]);
        assert_eq!(l.pop_lru(), Some(b(2)));
        l.reinsert_skipped(&mut skipped);
        assert!(skipped.is_empty(), "drained for reuse");
        // Reverse-order touches: the scan's first pop (0) is touched
        // last and lands at the MRU head, 3 (never popped) stays LRU.
        assert_eq!(mru_order(&l), vec![0, 1, 3]);
    }

    #[test]
    fn iter_lru_runs_from_lru_to_mru() {
        let mut l = LruList::new(8);
        for i in [3u64, 1, 4, 0] {
            l.touch(b(i));
        }
        l.touch(b(1));
        let lru: Vec<u64> = l.iter_lru().map(|x| x.0).collect();
        assert_eq!(lru, vec![3, 4, 0, 1]);
        assert_eq!(
            lru[0],
            l.pop_lru().unwrap().0,
            "the scan starts at the victim"
        );
    }

    #[test]
    fn fault_only_aging_pathology() {
        // The paper's pathology: a hot block that stops faulting (fully
        // resident) sinks to LRU and is evicted before a cold block that
        // faulted more recently.
        let mut l = LruList::new(8);
        l.touch(b(0)); // hot block faults in first...
        for i in 1..5 {
            l.touch(b(i)); // ...cold blocks fault later
        }
        // The GPU hammers block 0 without faulting: no touch happens.
        assert_eq!(l.pop_lru(), Some(b(0)), "hottest block evicted first");
    }
}
