//! A bounded ring buffer with eviction accounting.
//!
//! The verifier's per-device attestation history (kept by the fleet
//! registry) is an append-mostly event stream that must never grow
//! without bound on a long-lived process. [`RingBuffer`] keeps the newest
//! `capacity` items and counts what it evicted, so operators can tell
//! "empty because quiet" from "empty because rolled over".

use std::collections::VecDeque;

/// Fixed-capacity FIFO retention: pushing beyond capacity evicts the
/// oldest element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingBuffer<T> {
    items: VecDeque<T>,
    capacity: usize,
    evicted: u64,
}

impl<T> RingBuffer<T> {
    /// Creates an empty buffer retaining at most `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` — a zero-retention log is a configuration
    /// error, not a degenerate mode.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        RingBuffer {
            items: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            evicted: 0,
        }
    }

    /// Rebuilds a buffer from persisted state: `items` are the retained
    /// elements (oldest first, already within `capacity`) and
    /// `total_pushed` the lifetime push count — the eviction counter is
    /// recomputed as `total_pushed - items.len()`. This is the durable
    /// store's restore path; excess items beyond `capacity` are trimmed
    /// from the front (oldest) rather than refused.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, like [`RingBuffer::new`].
    pub fn rehydrate(capacity: usize, items: Vec<T>, total_pushed: u64) -> Self {
        let mut ring = RingBuffer::new(capacity);
        let skip = items.len().saturating_sub(capacity);
        ring.items = items.into_iter().skip(skip).collect();
        ring.evicted = total_pushed.saturating_sub(ring.items.len() as u64);
        ring
    }

    /// Appends an element, evicting (and returning) the oldest one if the
    /// buffer is full.
    pub fn push(&mut self, item: T) -> Option<T> {
        let evicted = if self.items.len() == self.capacity {
            self.evicted += 1;
            self.items.pop_front()
        } else {
            None
        };
        self.items.push_back(item);
        evicted
    }

    /// Elements currently retained.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The retention cap.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many elements have been evicted over the buffer's lifetime.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Total elements ever pushed (retained + evicted).
    pub fn total_pushed(&self) -> u64 {
        self.evicted + self.items.len() as u64
    }

    /// Iterates oldest → newest over the retained elements.
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, T> {
        self.items.iter()
    }

    /// The newest retained element.
    pub fn last(&self) -> Option<&T> {
        self.items.back()
    }

    /// Drops all retained elements (eviction count unaffected).
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

impl<'a, T> IntoIterator for &'a RingBuffer<T> {
    type Item = &'a T;
    type IntoIter = std::collections::vec_deque::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_newest_and_counts_evictions() {
        let mut ring = RingBuffer::new(3);
        assert!(ring.is_empty());
        for i in 0..5 {
            let evicted = ring.push(i);
            assert_eq!(evicted, if i < 3 { None } else { Some(i - 3) });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(ring.evicted(), 2);
        assert_eq!(ring.total_pushed(), 5);
        assert_eq!(ring.last(), Some(&4));
    }

    #[test]
    fn clear_keeps_lifetime_counters() {
        let mut ring = RingBuffer::new(2);
        ring.push(1);
        ring.push(2);
        ring.push(3);
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.evicted(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_refused() {
        let _ = RingBuffer::<u8>::new(0);
    }

    #[test]
    fn rehydrate_restores_retention_and_eviction_state() {
        let rebuilt = RingBuffer::rehydrate(3, vec![7, 8, 9], 5);
        assert_eq!(rebuilt.iter().copied().collect::<Vec<_>>(), vec![7, 8, 9]);
        assert_eq!(rebuilt.evicted(), 2);
        assert_eq!(rebuilt.total_pushed(), 5);
        // Over-capacity input keeps the newest items.
        let trimmed = RingBuffer::rehydrate(2, vec![1, 2, 3], 3);
        assert_eq!(trimmed.iter().copied().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(trimmed.evicted(), 1);
    }
}
