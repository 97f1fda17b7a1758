//! Sorted non-overlapping IP range map.
//!
//! IP2Location-style databases ship as CSV rows of
//! `(first_ip, last_ip, location...)`. [`RangeMap`] is the in-memory
//! equivalent: inclusive, non-overlapping `u32` ranges mapped to values,
//! with `O(log n)` point lookup. A [`RangeMapBuilder`] validates input rows
//! (sortedness is not required on input; overlaps are an error).

// A lookup path: width changes go through `From`/`TryFrom`.
#![deny(clippy::as_conversions)]

use crate::SortedBatch;
use std::fmt;
use std::net::Ipv4Addr;

/// Error reported when two inserted ranges overlap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeOverlap {
    /// First range (as inclusive address pair).
    pub a: (Ipv4Addr, Ipv4Addr),
    /// Second, conflicting range.
    pub b: (Ipv4Addr, Ipv4Addr),
}

impl fmt::Display for RangeOverlap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IP ranges overlap: {}-{} vs {}-{}",
            self.a.0, self.a.1, self.b.0, self.b.1
        )
    }
}

impl std::error::Error for RangeOverlap {}

#[derive(Debug, Clone)]
struct Entry<V> {
    start: u32,
    end: u32, // inclusive
    value: V,
}

/// Builder for [`RangeMap`]; accumulates ranges in any order and validates
/// on [`RangeMapBuilder::build`].
#[derive(Debug, Clone)]
pub struct RangeMapBuilder<V> {
    entries: Vec<Entry<V>>,
}

impl<V> Default for RangeMapBuilder<V> {
    fn default() -> Self {
        RangeMapBuilder {
            entries: Vec::new(),
        }
    }
}

impl<V> RangeMapBuilder<V> {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an inclusive `[start, end]` range. `start > end` is rejected at
    /// build time as a zero-length overlap sentinel; prefer passing
    /// well-ordered pairs.
    pub fn push(&mut self, start: Ipv4Addr, end: Ipv4Addr, value: V) -> &mut Self {
        self.entries.push(Entry {
            start: u32::from(start),
            end: u32::from(end),
            value,
        });
        self
    }

    /// Add every address of `prefix` as one range.
    pub fn push_prefix(&mut self, prefix: crate::Prefix, value: V) -> &mut Self {
        let (s, e) = prefix.range_u32();
        self.entries.push(Entry {
            start: s,
            end: e,
            value,
        });
        self
    }

    /// Number of pending ranges.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the builder is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sort, validate, and produce the immutable map.
    pub fn build(mut self) -> Result<RangeMap<V>, RangeOverlap> {
        self.entries.sort_by_key(|e| (e.start, e.end));
        for w in self.entries.windows(2) {
            if w[1].start <= w[0].end {
                return Err(RangeOverlap {
                    a: (Ipv4Addr::from(w[0].start), Ipv4Addr::from(w[0].end)),
                    b: (Ipv4Addr::from(w[1].start), Ipv4Addr::from(w[1].end)),
                });
            }
        }
        if let Some(bad) = self.entries.iter().find(|e| e.start > e.end) {
            return Err(RangeOverlap {
                a: (Ipv4Addr::from(bad.start), Ipv4Addr::from(bad.end)),
                b: (Ipv4Addr::from(bad.start), Ipv4Addr::from(bad.end)),
            });
        }
        Ok(RangeMap {
            entries: self.entries,
        })
    }
}

/// Immutable map from non-overlapping inclusive IPv4 ranges to values.
#[derive(Debug, Clone)]
pub struct RangeMap<V> {
    entries: Vec<Entry<V>>,
}

impl<V> RangeMap<V> {
    /// An empty map.
    pub fn empty() -> Self {
        RangeMap {
            entries: Vec::new(),
        }
    }

    /// Number of ranges.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds no ranges.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up the value whose range contains `ip`.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<&V> {
        let needle = u32::from(ip);
        // Index of the first entry with start > needle; candidate is the one
        // before it.
        let idx = self.entries.partition_point(|e| e.start <= needle);
        if idx == 0 {
            return None;
        }
        let e = &self.entries[idx - 1];
        (needle <= e.end).then_some(&e.value)
    }

    /// Locate the entry index containing each address of `batch`, in
    /// the batch's ascending order: `Some(i)` with `self.value_at(i)`
    /// the matching value, or `None` on a miss.
    ///
    /// Equivalent to calling [`RangeMap::lookup`] per address but
    /// cache-friendly: one cursor advances monotonically over the
    /// sorted entries, so a batch of `k` distinct addresses costs
    /// `O(k + n)` sequential reads.
    pub fn locate_batch<'a>(
        &'a self,
        batch: &'a SortedBatch,
    ) -> impl Iterator<Item = Option<usize>> + 'a {
        // The first entry starting after the previous address: the
        // addresses ascend, so it never moves backward.
        let mut cursor = 0usize;
        batch.addrs().iter().map(move |&needle| {
            while self.entries.get(cursor).is_some_and(|e| e.start <= needle) {
                cursor += 1;
            }
            let idx = cursor.checked_sub(1)?;
            (needle <= self.entries.get(idx)?.end).then_some(idx)
        })
    }

    /// Value stored at entry index `idx` (as returned by
    /// [`RangeMap::locate_batch`]).
    pub fn value_at(&self, idx: usize) -> Option<&V> {
        self.entries.get(idx).map(|e| &e.value)
    }

    /// Iterate `(start, end, &value)` in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Addr, Ipv4Addr, &V)> {
        self.entries
            .iter()
            .map(|e| (Ipv4Addr::from(e.start), Ipv4Addr::from(e.end), &e.value))
    }

    /// Total number of addresses covered by all ranges.
    pub fn address_count(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| u64::from(e.end) - u64::from(e.start) + 1)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// [`RangeMap::locate_batch`] over the sorted batch of `needles`,
    /// read back in input order through the batch's index.
    fn locate_in_order<V>(m: &RangeMap<V>, needles: &[Ipv4Addr]) -> Vec<Option<usize>> {
        let batch = SortedBatch::new(needles);
        let located: Vec<Option<usize>> = m.locate_batch(&batch).collect();
        assert_eq!(located.len(), batch.addrs().len());
        batch
            .index()
            .iter()
            .map(|at| located[usize::try_from(*at).unwrap()])
            .collect()
    }

    #[test]
    fn lookup_hits_and_misses() {
        let mut b = RangeMapBuilder::new();
        b.push(ip("10.0.0.0"), ip("10.0.0.255"), "a");
        b.push(ip("10.0.2.0"), ip("10.0.2.255"), "b");
        let m = b.build().unwrap();
        assert_eq!(m.lookup(ip("10.0.0.0")), Some(&"a"));
        assert_eq!(m.lookup(ip("10.0.0.255")), Some(&"a"));
        assert_eq!(m.lookup(ip("10.0.1.0")), None);
        assert_eq!(m.lookup(ip("10.0.2.128")), Some(&"b"));
        assert_eq!(m.lookup(ip("9.255.255.255")), None);
        assert_eq!(m.lookup(ip("10.0.3.0")), None);
    }

    #[test]
    fn adjacent_ranges_are_fine() {
        let mut b = RangeMapBuilder::new();
        b.push(ip("10.0.0.0"), ip("10.0.0.255"), 1);
        b.push(ip("10.0.1.0"), ip("10.0.1.255"), 2);
        assert!(b.build().is_ok());
    }

    #[test]
    fn overlap_detected() {
        let mut b = RangeMapBuilder::new();
        b.push(ip("10.0.0.0"), ip("10.0.1.0"), 1);
        b.push(ip("10.0.0.255"), ip("10.0.2.0"), 2);
        assert!(b.build().is_err());
    }

    #[test]
    fn identical_ranges_detected() {
        let mut b = RangeMapBuilder::new();
        b.push(ip("10.0.0.0"), ip("10.0.0.255"), 1);
        b.push(ip("10.0.0.0"), ip("10.0.0.255"), 2);
        assert!(b.build().is_err());
    }

    #[test]
    fn inverted_range_detected() {
        let mut b = RangeMapBuilder::new();
        b.push(ip("10.0.1.0"), ip("10.0.0.0"), 1);
        assert!(b.build().is_err());
    }

    #[test]
    fn push_prefix_covers_block() {
        let mut b = RangeMapBuilder::new();
        b.push_prefix("192.0.2.0/24".parse().unwrap(), 7);
        let m = b.build().unwrap();
        assert_eq!(m.address_count(), 256);
        assert_eq!(m.lookup(ip("192.0.2.200")), Some(&7));
    }

    #[test]
    fn locate_batch_agrees_with_pointwise_lookup() {
        let mut b = RangeMapBuilder::new();
        b.push(ip("10.0.0.0"), ip("10.0.0.255"), "a");
        b.push(ip("10.0.2.0"), ip("10.0.2.255"), "b");
        b.push(ip("200.1.0.0"), ip("200.1.255.255"), "c");
        let m = b.build().unwrap();
        // Unsorted, duplicated, hit-and-miss needles.
        let needles: Vec<Ipv4Addr> = [
            "200.1.44.3",
            "10.0.0.0",
            "10.0.1.7",
            "10.0.2.255",
            "10.0.0.0",
            "0.0.0.0",
            "255.255.255.255",
            "10.0.0.255",
        ]
        .iter()
        .map(|s| ip(s))
        .collect();
        let located = locate_in_order(&m, &needles);
        assert_eq!(located.len(), needles.len());
        for (got, needle) in located.iter().zip(&needles) {
            let via_batch = got.and_then(|i| m.value_at(i));
            assert_eq!(via_batch, m.lookup(*needle), "needle {needle}");
        }
    }

    #[test]
    fn sorted_batch_with_duplicates_matches_pointwise_lookup() {
        // Runs of duplicates (hits AND misses, including leading and
        // trailing runs) collapse to one batch address each, and every
        // input position must still agree with pointwise `lookup`.
        let mut b = RangeMapBuilder::new();
        b.push(ip("10.0.0.0"), ip("10.0.0.255"), "a");
        b.push(ip("10.0.2.0"), ip("10.0.2.255"), "b");
        b.push(ip("200.1.0.0"), ip("200.1.255.255"), "c");
        let m = b.build().unwrap();
        let needles: Vec<Ipv4Addr> = [
            "0.0.0.0",
            "0.0.0.0",
            "10.0.0.7",
            "10.0.0.7",
            "10.0.0.7",
            "10.0.1.1", // miss between ranges, duplicated next
            "10.0.1.1",
            "10.0.2.9",
            "200.1.0.0",
            "200.1.0.0",
            "255.255.255.255",
            "255.255.255.255",
        ]
        .iter()
        .map(|s| ip(s))
        .collect();
        assert!(needles.is_sorted(), "input already ascending");
        let located = locate_in_order(&m, &needles);
        assert_eq!(located.len(), needles.len());
        for (got, needle) in located.iter().zip(&needles) {
            let via_batch = got.and_then(|i| m.value_at(i));
            assert_eq!(via_batch, m.lookup(*needle), "needle {needle}");
        }
        // Same needles out of order must land on the identical answers
        // once restored to input order.
        let mut shuffled = needles.clone();
        shuffled.reverse();
        let mut relocated = locate_in_order(&m, &shuffled);
        relocated.reverse();
        assert_eq!(relocated, located);
    }

    #[test]
    fn locate_batch_on_empty_map_and_empty_batch() {
        let m: RangeMap<u8> = RangeMap::empty();
        assert_eq!(locate_in_order(&m, &[ip("1.2.3.4")]), vec![None]);
        let mut b = RangeMapBuilder::new();
        b.push(ip("10.0.0.0"), ip("10.0.0.255"), 1);
        let m = b.build().unwrap();
        assert!(locate_in_order(&m, &[]).is_empty());
        assert_eq!(m.value_at(0), Some(&1));
        assert_eq!(m.value_at(1), None);
    }

    #[test]
    fn empty_map() {
        let m: RangeMap<u8> = RangeMap::empty();
        assert!(m.is_empty());
        assert_eq!(m.lookup(ip("1.2.3.4")), None);
        assert_eq!(m.address_count(), 0);
    }

    #[test]
    fn full_space_single_range() {
        let mut b = RangeMapBuilder::new();
        b.push(ip("0.0.0.0"), ip("255.255.255.255"), ());
        let m = b.build().unwrap();
        assert_eq!(m.address_count(), 1u64 << 32);
        assert!(m.lookup(ip("255.255.255.255")).is_some());
    }
}
