//! Validated CIDR prefixes.

// A lookup path: width changes go through `From`/`TryFrom`, and corrupt
// input surfaces as an error rather than an out-of-bounds panic.
#![deny(clippy::as_conversions, clippy::indexing_slicing)]

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// Errors constructing or parsing a [`Prefix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixError {
    /// Prefix length greater than 32.
    BadLength(u8),
    /// The address has bits set below the prefix length
    /// (e.g. `10.0.0.1/24`).
    HostBitsSet(Ipv4Addr, u8),
    /// Textual form did not parse.
    Parse(String),
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixError::BadLength(l) => write!(f, "prefix length {l} exceeds 32"),
            PrefixError::HostBitsSet(ip, l) => {
                write!(f, "{ip}/{l} has host bits set below the prefix length")
            }
            PrefixError::Parse(s) => write!(f, "cannot parse prefix from {s:?}"),
        }
    }
}

impl std::error::Error for PrefixError {}

/// An IPv4 CIDR prefix: a network address plus a length in [0, 32].
///
/// Invariant: all bits below the prefix length are zero, so two equal
/// networks always compare equal.
///
/// ```
/// use routergeo_net::Prefix;
/// let p: Prefix = "192.0.2.0/24".parse().unwrap();
/// assert!(p.contains("192.0.2.77".parse().unwrap()));
/// assert_eq!(p.size(), 256);
/// assert!("192.0.2.1/24".parse::<Prefix>().is_err()); // host bits set
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    network: u32,
    len: u8,
}

impl Prefix {
    /// Create a prefix, validating length and host bits.
    pub fn new(network: Ipv4Addr, len: u8) -> Result<Prefix, PrefixError> {
        if len > 32 {
            return Err(PrefixError::BadLength(len));
        }
        let net = u32::from(network);
        let mask = Self::mask_for(len);
        if net & !mask != 0 {
            return Err(PrefixError::HostBitsSet(network, len));
        }
        Ok(Prefix { network: net, len })
    }

    /// Create the prefix of length `len` *containing* `ip`, masking host
    /// bits instead of rejecting them.
    pub fn containing(ip: Ipv4Addr, len: u8) -> Result<Prefix, PrefixError> {
        if len > 32 {
            return Err(PrefixError::BadLength(len));
        }
        Ok(Prefix {
            network: u32::from(ip) & Self::mask_for(len),
            len,
        })
    }

    /// The all-addresses prefix `0.0.0.0/0`.
    pub const fn default_route() -> Prefix {
        Prefix { network: 0, len: 0 }
    }

    #[inline]
    fn mask_for(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(len))
        }
    }

    /// Network address.
    #[inline]
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.network)
    }

    /// Network address as `u32`.
    #[inline]
    pub fn network_u32(&self) -> u32 {
        self.network
    }

    /// Prefix length.
    #[inline]
    #[allow(clippy::len_without_is_empty, reason = "a prefix is never \"empty\"")]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Number of addresses covered (as `u64`, since `/0` covers 2^32).
    #[inline]
    pub fn size(&self) -> u64 {
        1u64 << (32 - u32::from(self.len))
    }

    /// First address (== network address).
    #[inline]
    pub fn first(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.network)
    }

    /// Last address (broadcast for the block).
    #[inline]
    pub fn last(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.network | !Self::mask_for(self.len))
    }

    /// Inclusive `u32` range covered by this prefix.
    #[inline]
    pub fn range_u32(&self) -> (u32, u32) {
        (self.network, self.network | !Self::mask_for(self.len))
    }

    /// Whether `ip` falls inside this prefix.
    #[inline]
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        u32::from(ip) & Self::mask_for(self.len) == self.network
    }

    /// Whether `other` is fully contained in `self` (including equality).
    pub fn covers(&self, other: &Prefix) -> bool {
        self.len <= other.len && (other.network & Self::mask_for(self.len)) == self.network
    }

    /// The two halves of this prefix, or `None` for a /32.
    pub fn split(&self) -> Option<(Prefix, Prefix)> {
        if self.len >= 32 {
            return None;
        }
        let len = self.len + 1;
        let lo = Prefix {
            network: self.network,
            len,
        };
        let hi = Prefix {
            network: self.network | (1u32 << (32 - u32::from(len))),
            len,
        };
        Some((lo, hi))
    }

    /// Iterate the sub-prefixes of length `sub_len` within this prefix.
    ///
    /// Used by the world generator to carve allocations into /24 blocks.
    /// Panics if `sub_len < self.len()` or `sub_len > 32`.
    pub fn subnets(&self, sub_len: u8) -> impl Iterator<Item = Prefix> + '_ {
        assert!(sub_len >= self.len && sub_len <= 32, "invalid subnet split");
        let count = 1u64 << u32::from(sub_len - self.len);
        let step = 1u64 << (32 - u32::from(sub_len));
        let base = u64::from(self.network);
        (0..count).map(move |i| Prefix {
            network: u32::try_from(base + i * step)
                .expect("subnet enumeration stays inside the 32-bit address space"),
            len: sub_len,
        })
    }

    /// Iterate all addresses in the prefix. Only sensible for small blocks.
    pub fn addresses(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        let (lo, hi) = self.range_u32();
        (u64::from(lo)..=u64::from(hi))
            .map(|v| Ipv4Addr::from(u32::try_from(v).expect("range_u32 bounds fit in 32 bits")))
    }

    /// The nth address within the prefix, if in range.
    pub fn nth(&self, n: u64) -> Option<Ipv4Addr> {
        if n < self.size() {
            let addr = u64::from(self.network) + n;
            Some(Ipv4Addr::from(
                u32::try_from(addr).expect("n < size() keeps the address in 32 bits"),
            ))
        } else {
            None
        }
    }

    /// Decompose an inclusive address range into the minimal list of CIDR
    /// prefixes covering exactly that range (standard range-to-CIDR
    /// algorithm). Returns an empty vec when `start > end`.
    pub fn cover_range(start: Ipv4Addr, end: Ipv4Addr) -> Vec<Prefix> {
        let mut out = Vec::new();
        let mut cur = u64::from(u32::from(start));
        let end = u64::from(u32::from(end));
        while cur <= end {
            // Largest power-of-two block aligned at `cur` …
            let align = if cur == 0 { 33 } else { cur.trailing_zeros() };
            // … that still fits before `end`.
            let span_bits = 64 - (end - cur + 1).leading_zeros() - 1;
            let bits = align.min(span_bits).min(32);
            let len = u8::try_from(32 - bits).expect("bits capped at 32");
            out.push(Prefix {
                network: u32::try_from(cur).expect("cur <= end fits in 32 bits"),
                len,
            });
            cur += 1u64 << bits;
        }
        out
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl FromStr for Prefix {
    type Err = PrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .trim()
            .split_once('/')
            .ok_or_else(|| PrefixError::Parse(s.to_string()))?;
        let addr: Ipv4Addr = addr
            .parse()
            .map_err(|_| PrefixError::Parse(s.to_string()))?;
        let len: u8 = len.parse().map_err(|_| PrefixError::Parse(s.to_string()))?;
        Prefix::new(addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn new_validates_host_bits() {
        assert!(Prefix::new(Ipv4Addr::new(10, 0, 0, 1), 24).is_err());
        assert!(Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 24).is_ok());
        assert!(Prefix::new(Ipv4Addr::new(10, 0, 0, 1), 32).is_ok());
        assert!(Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 33).is_err());
    }

    #[test]
    fn containing_masks() {
        let pre = Prefix::containing(Ipv4Addr::new(10, 1, 2, 3), 16).unwrap();
        assert_eq!(pre.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.0.2.0/24", "1.2.3.4/32"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_junk() {
        assert!("".parse::<Prefix>().is_err());
        assert!("10.0.0.0".parse::<Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("10.0.0.1/24".parse::<Prefix>().is_err());
        assert!("abc/8".parse::<Prefix>().is_err());
        assert!("10.0.0.0/x".parse::<Prefix>().is_err());
    }

    #[test]
    fn size_first_last() {
        let pre = p("192.0.2.0/24");
        assert_eq!(pre.size(), 256);
        assert_eq!(pre.first(), Ipv4Addr::new(192, 0, 2, 0));
        assert_eq!(pre.last(), Ipv4Addr::new(192, 0, 2, 255));
        assert_eq!(p("0.0.0.0/0").size(), 1u64 << 32);
        assert_eq!(p("1.2.3.4/32").size(), 1);
    }

    #[test]
    fn contains_boundaries() {
        let pre = p("10.10.0.0/16");
        assert!(pre.contains(Ipv4Addr::new(10, 10, 0, 0)));
        assert!(pre.contains(Ipv4Addr::new(10, 10, 255, 255)));
        assert!(!pre.contains(Ipv4Addr::new(10, 11, 0, 0)));
        assert!(!pre.contains(Ipv4Addr::new(10, 9, 255, 255)));
    }

    #[test]
    fn covers_nesting() {
        assert!(p("10.0.0.0/8").covers(&p("10.20.0.0/16")));
        assert!(p("10.0.0.0/8").covers(&p("10.0.0.0/8")));
        assert!(!p("10.20.0.0/16").covers(&p("10.0.0.0/8")));
        assert!(!p("10.0.0.0/8").covers(&p("11.0.0.0/16")));
    }

    #[test]
    fn split_halves() {
        let (lo, hi) = p("10.0.0.0/8").split().unwrap();
        assert_eq!(lo.to_string(), "10.0.0.0/9");
        assert_eq!(hi.to_string(), "10.128.0.0/9");
        assert!(p("1.2.3.4/32").split().is_none());
    }

    #[test]
    fn subnets_enumeration() {
        let subs: Vec<_> = p("192.0.2.0/24").subnets(26).collect();
        assert_eq!(subs.len(), 4);
        assert_eq!(subs[0].to_string(), "192.0.2.0/26");
        assert_eq!(subs[3].to_string(), "192.0.2.192/26");
        // Degenerate split: the prefix itself.
        let subs: Vec<_> = p("192.0.2.0/24").subnets(24).collect();
        assert_eq!(subs, vec![p("192.0.2.0/24")]);
    }

    #[test]
    fn nth_address() {
        let pre = p("192.0.2.0/30");
        assert_eq!(pre.nth(0), Some(Ipv4Addr::new(192, 0, 2, 0)));
        assert_eq!(pre.nth(3), Some(Ipv4Addr::new(192, 0, 2, 3)));
        assert_eq!(pre.nth(4), None);
    }

    #[test]
    fn addresses_iterator() {
        let all: Vec<_> = p("192.0.2.252/30").addresses().collect();
        assert_eq!(all.len(), 4);
        assert_eq!(all[3], Ipv4Addr::new(192, 0, 2, 255));
        // The top of the address space must not overflow.
        let top: Vec<_> = p("255.255.255.252/30").addresses().collect();
        assert_eq!(top.len(), 4);
        assert_eq!(top[3], Ipv4Addr::new(255, 255, 255, 255));
    }

    #[test]
    fn cover_range_exact_block() {
        let cover = Prefix::cover_range(Ipv4Addr::new(10, 0, 0, 0), Ipv4Addr::new(10, 0, 0, 255));
        assert_eq!(cover, vec![p("10.0.0.0/24")]);
    }

    #[test]
    fn cover_range_unaligned() {
        let cover = Prefix::cover_range(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 6));
        // 1, 2-3, 4-5, 6.
        assert_eq!(
            cover,
            vec![
                p("10.0.0.1/32"),
                p("10.0.0.2/31"),
                p("10.0.0.4/31"),
                p("10.0.0.6/32"),
            ]
        );
        // Coverage is exact and disjoint.
        let total: u64 = cover.iter().map(|c| c.size()).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn cover_range_full_space() {
        let cover =
            Prefix::cover_range(Ipv4Addr::new(0, 0, 0, 0), Ipv4Addr::new(255, 255, 255, 255));
        assert_eq!(cover, vec![p("0.0.0.0/0")]);
    }

    #[test]
    fn cover_range_single_and_inverted() {
        assert_eq!(
            Prefix::cover_range(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(1, 2, 3, 4)),
            vec![p("1.2.3.4/32")]
        );
        assert!(
            Prefix::cover_range(Ipv4Addr::new(1, 2, 3, 5), Ipv4Addr::new(1, 2, 3, 4)).is_empty()
        );
    }

    #[test]
    fn default_route_contains_everything() {
        let d = Prefix::default_route();
        assert!(d.contains(Ipv4Addr::new(0, 0, 0, 0)));
        assert!(d.contains(Ipv4Addr::new(255, 255, 255, 255)));
    }
}
