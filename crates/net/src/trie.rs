//! Binary prefix trie with longest-prefix-match lookup.
//!
//! This is the in-memory shape of MaxMind-style binary databases (a bit
//! trie over the address, walked MSB-first) and of the synthetic world's
//! address-allocation plan. Nodes are kept in a flat arena (`Vec`) with
//! index links — no `Box` chasing, cache-friendly walks, and trivially
//! serializable by `routergeo-db`'s RGDB writer.

// A lookup path: width changes go through `From`/`TryFrom`, and corrupt
// input surfaces as an error rather than an out-of-bounds panic.
#![deny(clippy::as_conversions, clippy::indexing_slicing)]

use crate::prefix::Prefix;
use std::net::Ipv4Addr;

const NO_NODE: u32 = u32::MAX;

/// Arena link as a slice index. `u32` always fits in `usize` on the
/// 32/64-bit targets this crate supports, so the check never fires; it
/// exists to make the conversion explicit rather than silently lossy.
#[inline]
fn ix(i: u32) -> usize {
    usize::try_from(i).expect("u32 arena index fits in usize")
}

#[derive(Debug, Clone)]
struct Node {
    children: [u32; 2],
    /// Index into `values`, or `u32::MAX`.
    value: u32,
}

impl Node {
    fn new() -> Self {
        Node {
            children: [NO_NODE, NO_NODE],
            value: NO_NODE,
        }
    }

    /// Child link for bit `b`; callers only pass [`PrefixTrie::bit`]
    /// output or a loop index over `0..2`.
    #[inline]
    fn child(&self, b: usize) -> u32 {
        *self.children.get(b).expect("child slot is 0 or 1")
    }

    /// Mutable child link; same contract as [`Node::child`].
    #[inline]
    fn child_mut(&mut self, b: usize) -> &mut u32 {
        self.children.get_mut(b).expect("child slot is 0 or 1")
    }
}

/// A binary trie mapping CIDR prefixes to values, answering
/// longest-prefix-match queries.
///
/// Inserting the same prefix twice replaces the previous value (like a map).
#[derive(Debug, Clone)]
pub struct PrefixTrie<V> {
    nodes: Vec<Node>,
    values: Vec<(Prefix, V)>,
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> PrefixTrie<V> {
    /// New empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            nodes: vec![Node::new()],
            values: Vec::new(),
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the trie holds no prefixes.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of trie nodes (for format/size diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    #[inline]
    fn bit(addr: u32, depth: u8) -> usize {
        usize::from((addr >> (31 - u32::from(depth))) & 1 == 1)
    }

    /// Checked arena access. Links only ever come from the arena
    /// itself, so a miss is a structural bug, never input-dependent.
    #[inline]
    fn node(&self, i: u32) -> &Node {
        self.nodes
            .get(ix(i))
            .expect("trie arena link in bounds by construction")
    }

    /// Mutable arena access; same invariant as [`PrefixTrie::node`].
    #[inline]
    fn node_mut(&mut self, i: u32) -> &mut Node {
        self.nodes
            .get_mut(ix(i))
            .expect("trie arena link in bounds by construction")
    }

    /// Checked value-table access; `i` always comes from a node's
    /// `value` link, assigned at insertion time.
    #[inline]
    fn value_entry(&self, i: u32) -> &(Prefix, V) {
        self.values
            .get(ix(i))
            .expect("trie value link in bounds by construction")
    }

    /// Mutable value-table access; same invariant as
    /// [`PrefixTrie::value_entry`].
    #[inline]
    fn value_entry_mut(&mut self, i: u32) -> &mut (Prefix, V) {
        self.values
            .get_mut(ix(i))
            .expect("trie value link in bounds by construction")
    }

    /// Insert `prefix -> value`, replacing any existing value at exactly
    /// that prefix. Returns the previous value if one was replaced.
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        let addr = prefix.network_u32();
        let mut node = 0u32;
        for depth in 0..prefix.len() {
            let b = Self::bit(addr, depth);
            let next = self.node(node).child(b);
            let next = if next == NO_NODE {
                let idx = u32::try_from(self.nodes.len())
                    .expect("trie arena exceeds the u32 node-link limit");
                self.nodes.push(Node::new());
                *self.node_mut(node).child_mut(b) = idx;
                idx
            } else {
                next
            };
            node = next;
        }
        let slot = self.node(node).value;
        if slot == NO_NODE {
            self.node_mut(node).value = u32::try_from(self.values.len())
                .expect("trie value table exceeds the u32 link limit");
            self.values.push((prefix, value));
            None
        } else {
            let entry = self.value_entry_mut(slot);
            let old = std::mem::replace(&mut entry.1, value);
            entry.0 = prefix;
            Some(old)
        }
    }

    /// Longest-prefix match: the most specific stored prefix containing
    /// `ip`, with its value.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<(&Prefix, &V)> {
        let addr = u32::from(ip);
        let mut node = 0u32;
        let mut best: Option<u32> = None;
        let mut depth = 0u8;
        loop {
            let n = self.node(node);
            if n.value != NO_NODE {
                best = Some(n.value);
            }
            if depth == 32 {
                break;
            }
            let b = Self::bit(addr, depth);
            let next = n.child(b);
            if next == NO_NODE {
                break;
            }
            node = next;
            depth += 1;
        }
        best.map(|i| {
            let (p, v) = self.value_entry(i);
            (p, v)
        })
    }

    /// Value stored at exactly `prefix`, if any.
    pub fn get_exact(&self, prefix: &Prefix) -> Option<&V> {
        let addr = prefix.network_u32();
        let mut node = 0u32;
        for depth in 0..prefix.len() {
            let b = Self::bit(addr, depth);
            let next = self.node(node).child(b);
            if next == NO_NODE {
                return None;
            }
            node = next;
        }
        let v = self.node(node).value;
        (v != NO_NODE).then(|| &self.value_entry(v).1)
    }

    /// Iterate all `(prefix, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&Prefix, &V)> {
        self.values.iter().map(|(p, v)| (p, v))
    }

    /// Walk the trie depth-first, invoking `f` on every stored prefix in
    /// address order (pre-order: shorter prefixes before their children).
    pub fn walk<F: FnMut(&Prefix, &V)>(&self, mut f: F) {
        self.walk_node(0, &mut f);
    }

    fn walk_node<F: FnMut(&Prefix, &V)>(&self, node: u32, f: &mut F) {
        let n = self.node(node);
        if n.value != NO_NODE {
            let (p, v) = self.value_entry(n.value);
            f(p, v);
        }
        for b in 0..2 {
            let child = n.child(b);
            if child != NO_NODE {
                self.walk_node(child, f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn empty_lookup_misses() {
        let t: PrefixTrie<u8> = PrefixTrie::new();
        assert!(t.lookup(ip("1.2.3.4")).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), "eight");
        t.insert(p("10.1.0.0/16"), "sixteen");
        t.insert(p("10.1.2.0/24"), "twentyfour");
        assert_eq!(t.lookup(ip("10.1.2.3")).unwrap().1, &"twentyfour");
        assert_eq!(t.lookup(ip("10.1.9.9")).unwrap().1, &"sixteen");
        assert_eq!(t.lookup(ip("10.200.0.1")).unwrap().1, &"eight");
        assert!(t.lookup(ip("11.0.0.0")).is_none());
    }

    #[test]
    fn lookup_reports_matched_prefix() {
        let mut t = PrefixTrie::new();
        t.insert(p("192.0.2.0/24"), ());
        let (matched, _) = t.lookup(ip("192.0.2.99")).unwrap();
        assert_eq!(*matched, p("192.0.2.0/24"));
    }

    #[test]
    fn default_route_catches_all() {
        let mut t = PrefixTrie::new();
        t.insert(Prefix::default_route(), "default");
        t.insert(p("10.0.0.0/8"), "ten");
        assert_eq!(t.lookup(ip("1.1.1.1")).unwrap().1, &"default");
        assert_eq!(t.lookup(ip("10.1.1.1")).unwrap().1, &"ten");
    }

    #[test]
    fn insert_replaces() {
        let mut t = PrefixTrie::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(ip("10.0.0.1")).unwrap().1, &2);
    }

    #[test]
    fn slash32_entries() {
        let mut t = PrefixTrie::new();
        t.insert(p("1.2.3.4/32"), "host");
        assert_eq!(t.lookup(ip("1.2.3.4")).unwrap().1, &"host");
        assert!(t.lookup(ip("1.2.3.5")).is_none());
    }

    #[test]
    fn get_exact_distinguishes_lengths() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 8);
        assert_eq!(t.get_exact(&p("10.0.0.0/8")), Some(&8));
        assert_eq!(t.get_exact(&p("10.0.0.0/16")), None);
        assert_eq!(t.get_exact(&p("11.0.0.0/8")), None);
    }

    #[test]
    fn walk_visits_in_address_order() {
        let mut t = PrefixTrie::new();
        t.insert(p("192.0.2.0/24"), 3);
        t.insert(p("10.0.0.0/8"), 1);
        t.insert(p("10.128.0.0/9"), 2);
        let mut seen = Vec::new();
        t.walk(|pre, v| seen.push((pre.to_string(), *v)));
        assert_eq!(
            seen,
            vec![
                ("10.0.0.0/8".to_string(), 1),
                ("10.128.0.0/9".to_string(), 2),
                ("192.0.2.0/24".to_string(), 3),
            ]
        );
    }

    #[test]
    fn sibling_prefixes_do_not_interfere() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/1"), "low");
        t.insert(p("128.0.0.0/1"), "high");
        assert_eq!(t.lookup(ip("1.0.0.0")).unwrap().1, &"low");
        assert_eq!(t.lookup(ip("200.0.0.0")).unwrap().1, &"high");
    }
}
