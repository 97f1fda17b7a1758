//! A batch of addresses sorted once for every structure that answers it:
//! batched longest-prefix matches visit addresses in ascending order.

// A lookup path: width changes go through `From`/`TryFrom`.
#![deny(clippy::as_conversions)]

use std::net::Ipv4Addr;

/// A batch's distinct addresses in ascending order and, for each input
/// position, the index of its address among them: a database answers
/// once per distinct address, and the index reads the answers back in
/// input order.
#[derive(Debug, Clone)]
pub struct SortedBatch {
    /// The distinct addresses as `u32`s, ascending.
    addrs: Vec<u32>,
    /// `index[pos]`: where input position `pos`'s address sits in
    /// `addrs`.
    index: Vec<u32>,
}

impl SortedBatch {
    /// Sort `ips` and remove repeats.
    ///
    /// # Panics
    ///
    /// If `ips` holds more than `u32::MAX` addresses.
    pub fn new(ips: &[Ipv4Addr]) -> SortedBatch {
        assert!(
            u32::try_from(ips.len()).is_ok(),
            "a batch holds at most u32::MAX addresses"
        );
        // Keys packed as `addr << 32 | pos`: one u64 compare per swap,
        // and the position rides along to fill the index.
        let mut order: Vec<u64> = ips
            .iter()
            .zip(0u32..)
            .map(|(ip, pos)| u64::from(u32::from(*ip)) << 32 | u64::from(pos))
            .collect();
        order.sort_unstable();
        let mut addrs: Vec<u32> = Vec::with_capacity(order.len());
        let mut index = vec![0u32; order.len()];
        let mut distinct = 0u32;
        for key in order {
            let addr = u32::try_from(key >> 32).expect("the upper half is an address");
            let pos = usize::try_from(key & 0xFFFF_FFFF).expect("a u32 position fits a usize");
            if addrs.last() != Some(&addr) {
                addrs.push(addr);
                distinct += 1;
            }
            index[pos] = distinct - 1;
        }
        SortedBatch { addrs, index }
    }

    /// The distinct addresses as `u32`s, ascending.
    pub fn addrs(&self) -> &[u32] {
        &self.addrs
    }

    /// For each input position, the index of its address in
    /// [`SortedBatch::addrs`].
    pub fn index(&self) -> &[u32] {
        &self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ips(list: &[&str]) -> Vec<Ipv4Addr> {
        list.iter().map(|s| s.parse().unwrap()).collect()
    }

    #[test]
    fn sorts_removes_repeats_and_indexes_every_input() {
        let input = ips(&[
            "10.0.0.9",
            "0.0.0.0",
            "255.255.255.255",
            "10.0.0.9",
            "10.0.0.1",
            "0.0.0.0",
        ]);
        let batch = SortedBatch::new(&input);
        assert_eq!(
            batch.addrs(),
            [0, 0x0A00_0001, 0x0A00_0009, u32::MAX].as_slice()
        );
        assert_eq!(batch.index(), [2, 0, 3, 2, 1, 0].as_slice());
        for (ip, at) in input.iter().zip(batch.index()) {
            assert_eq!(batch.addrs()[usize::try_from(*at).unwrap()], u32::from(*ip));
        }
    }

    #[test]
    fn empty_batch() {
        let batch = SortedBatch::new(&[]);
        assert!(batch.addrs().is_empty() && batch.index().is_empty());
    }
}
