//! PoP-level topology graph and shortest paths.
//!
//! Nodes are the world's PoPs; edges model:
//!
//! 1. **Stub uplinks** — each stub PoP connects to up to 3 transit PoPs in
//!    its own city, falling back to the nearest transit PoP in the same
//!    country, then to the nearest global-transit PoP anywhere. Every stub
//!    has at least one uplink.
//! 2. **Metro peering** — transit PoPs in the same city form a full mesh
//!    (the IX), with small intra-metro distances.
//! 3. **Operator backbone** — each transit PoP connects to its operator's
//!    3 nearest other PoPs and to the operator's HQ PoP.
//! 4. **International uplinks** — each domestic-transit HQ PoP connects to
//!    the 2 nearest global-transit PoPs, guaranteeing every country an exit.
//!
//! Edge weights are great-circle distances between the PoP cities (plus a
//! small intra-metro constant), so Dijkstra yields geographically sensible
//! routes and, through the RTT model, physically consistent delays.
//!
//! One Dijkstra serves two callers. [`Topology::shortest_paths`] grows the
//! tree of one source (an Ark monitor);
//! [`Topology::nearest_paths`] grows one forest from every instance of an
//! anycast service at once, so each node learns its nearest instance and
//! the path from it in a single walk. The heap pops one packed `u64` key,
//! the `f32` distance bits above the node index: for the finite
//! non-negative distances Dijkstra produces, the bits order exactly like
//! the distances, so the key orders by (distance, node).

use routergeo_world::{AsId, CityId, OperatorKind, PopId, World};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::collections::HashMap;

/// Distance used for hops within one metro area, km.
const INTRA_METRO_KM: f32 = 5.0;
/// Maximum stub uplinks into the local metro mesh.
const STUB_UPLINKS: usize = 3;
/// Backbone neighbours per transit PoP.
const BACKBONE_NEIGHBOURS: usize = 3;
/// International uplinks per domestic HQ PoP.
const INTL_UPLINKS: usize = 2;

/// The PoP-level topology graph.
pub struct Topology {
    adj: Vec<Vec<(u32, f32)>>,
    edge_count: usize,
}

impl Topology {
    /// Build the graph from a world. Deterministic (no RNG involved).
    pub fn build(world: &World) -> Topology {
        let n = world.pops.len();
        let mut adj: Vec<Vec<(u32, f32)>> = vec![Vec::new(); n];
        let mut edge_count = 0usize;

        // Index transit PoPs by city and collect global transit PoPs.
        let mut transit_by_city: HashMap<CityId, Vec<PopId>> = HashMap::new();
        let mut transit_by_country: HashMap<_, Vec<PopId>> = HashMap::new();
        let mut global_pops: Vec<PopId> = Vec::new();
        let mut by_operator: HashMap<AsId, Vec<PopId>> = HashMap::new();
        for pop in &world.pops {
            let op = world.operator(pop.op);
            match op.kind {
                OperatorKind::GlobalTransit | OperatorKind::DomesticTransit => {
                    transit_by_city.entry(pop.city).or_default().push(pop.id);
                    let country = world.city(pop.city).country;
                    transit_by_country.entry(country).or_default().push(pop.id);
                    by_operator.entry(pop.op).or_default().push(pop.id);
                    if op.kind == OperatorKind::GlobalTransit {
                        global_pops.push(pop.id);
                    }
                }
                OperatorKind::Stub => {}
            }
        }

        let mut add_edge = |adj: &mut Vec<Vec<(u32, f32)>>, a: PopId, b: PopId, km: f32| {
            if a == b {
                return;
            }
            let (ai, bi) = (a.index(), b.index());
            if adj[ai].iter().any(|(n, _)| *n == b.0) {
                return;
            }
            adj[ai].push((b.0, km));
            adj[bi].push((a.0, km));
            edge_count += 1;
        };

        // 2. Metro peering mesh.
        for pops in transit_by_city.values() {
            for (i, a) in pops.iter().enumerate() {
                for b in &pops[i + 1..] {
                    add_edge(&mut adj, *a, *b, INTRA_METRO_KM);
                }
            }
        }

        // 3. Operator backbone.
        for pops in by_operator.values() {
            for a in pops {
                let a_city = world.pop(*a).city;
                let a_coord = world.city(a_city).coord;
                let mut others: Vec<(f32, PopId)> = pops
                    .iter()
                    .filter(|b| **b != *a)
                    .map(|b| {
                        let c = world.city(world.pop(*b).city).coord;
                        (a_coord.distance_km(&c) as f32, *b)
                    })
                    .collect();
                others.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(Ordering::Equal));
                for (km, b) in others.into_iter().take(BACKBONE_NEIGHBOURS) {
                    add_edge(&mut adj, *a, b, km.max(INTRA_METRO_KM));
                }
            }
            // HQ spoke: connect every PoP to the first PoP (the HQ city is
            // always first in the presence list).
            if let Some((hq, rest)) = pops.split_first() {
                let hq_coord = world.city(world.pop(*hq).city).coord;
                for b in rest {
                    let c = world.city(world.pop(*b).city).coord;
                    let km = (hq_coord.distance_km(&c) as f32).max(INTRA_METRO_KM);
                    add_edge(&mut adj, *hq, *b, km);
                }
            }
        }

        // 4. International uplinks for domestic transits' HQ PoPs.
        for pop in &world.pops {
            if world.operator(pop.op).kind != OperatorKind::DomesticTransit {
                continue;
            }
            // Only the operator's first PoP (HQ).
            if by_operator[&pop.op][0] != pop.id {
                continue;
            }
            let coord = world.city(pop.city).coord;
            let mut globals: Vec<(f32, PopId)> = global_pops
                .iter()
                .map(|g| {
                    let c = world.city(world.pop(*g).city).coord;
                    (coord.distance_km(&c) as f32, *g)
                })
                .collect();
            globals.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(Ordering::Equal));
            for (km, g) in globals.into_iter().take(INTL_UPLINKS) {
                add_edge(&mut adj, pop.id, g, km.max(INTRA_METRO_KM));
            }
        }

        // 1. Stub uplinks (after the meshes exist so fallbacks can search).
        for pop in &world.pops {
            if world.operator(pop.op).kind != OperatorKind::Stub {
                continue;
            }
            let city = pop.city;
            let country = world.city(city).country;
            let coord = world.city(city).coord;
            let locals = transit_by_city.get(&city);
            if let Some(locals) = locals.filter(|l| !l.is_empty()) {
                for t in locals.iter().take(STUB_UPLINKS) {
                    add_edge(&mut adj, pop.id, *t, INTRA_METRO_KM);
                }
                continue;
            }
            // Fallback: nearest transit PoP in country, then any global.
            let pool = transit_by_country
                .get(&country)
                .filter(|l| !l.is_empty())
                .unwrap_or(&global_pops);
            if let Some((km, best)) = pool
                .iter()
                .map(|t| {
                    let c = world.city(world.pop(*t).city).coord;
                    (coord.distance_km(&c) as f32, *t)
                })
                .min_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(Ordering::Equal))
            {
                add_edge(&mut adj, pop.id, best, km.max(INTRA_METRO_KM));
            }
        }

        Topology { adj, edge_count }
    }

    /// Number of nodes (== PoPs).
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Neighbours of a PoP.
    pub fn neighbours(&self, pop: PopId) -> &[(u32, f32)] {
        &self.adj[pop.index()]
    }

    /// Single-source shortest paths (Dijkstra) from `src`.
    pub fn shortest_paths(&self, src: PopId) -> PathTree {
        self.nearest_paths(&[src])
    }

    /// Shortest paths from the nearest of `sources`, in one multi-source
    /// Dijkstra: every node is labelled (distance, source order) and
    /// keeps the smallest label, so it goes to its nearest source, and
    /// an exact distance tie goes to the source listed first. Its
    /// distance is exactly the one `shortest_paths` from that source
    /// gives. So is its path, unless rounding lets a predecessor that
    /// another source won tie with the tree's own; the tests find no
    /// such node for any probe of the Tiny and Small worlds.
    pub fn nearest_paths(&self, sources: &[PopId]) -> PathTree {
        let n = self.adj.len();
        let mut dist = vec![f32::INFINITY; n];
        let mut prev = vec![UNREACHED; n];
        // Per node, the position in `sources` of the source it is reached
        // from: the low half of its label.
        let mut origin = vec![u32::MAX; n];
        let mut heap: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
        for (i, src) in sources.iter().enumerate() {
            let i = u32::try_from(i).unwrap_or(u32::MAX);
            if pack(0.0, i) < pack(dist[src.index()], origin[src.index()]) {
                dist[src.index()] = 0.0;
                prev[src.index()] = src.0;
                origin[src.index()] = i;
                heap.push(Reverse(pack(0.0, src.0)));
            }
        }
        while let Some(Reverse(key)) = heap.pop() {
            let node = key as u32;
            let d = f32::from_bits((key >> 32) as u32);
            if d > dist[node as usize] {
                continue;
            }
            let from = origin[node as usize];
            for &(next, w) in &self.adj[node as usize] {
                let nd = d + w;
                let (next_dist, next_origin) = (dist[next as usize], origin[next as usize]);
                if pack(nd, from) < pack(next_dist, next_origin) {
                    dist[next as usize] = nd;
                    prev[next as usize] = node;
                    origin[next as usize] = from;
                    heap.push(Reverse(pack(nd, next)));
                }
            }
        }
        PathTree { dist, prev }
    }
}

/// Predecessor of a node no path reaches.
const UNREACHED: u32 = u32::MAX;

/// Pack `distance` and `low` into one key that orders by (distance,
/// low): the distance's bits fill the high half. Heap keys pack the
/// node, labels the source order. The bits of finite non-negative
/// `f32`s order like their values and `+∞` sorts after them; a walk
/// holds no other distances.
fn pack(distance: f32, low: u32) -> u64 {
    (u64::from(distance.to_bits()) << 32) | u64::from(low)
}

/// Shortest paths from one source, or from the nearest of several: a
/// tree or a forest, walked back from any node to its source.
pub struct PathTree {
    dist: Vec<f32>,
    /// Per node, its predecessor on the path; a source is its own.
    prev: Vec<u32>,
}

impl PathTree {
    /// Path distance in km to `dst`, `None` if unreachable.
    pub fn distance_km(&self, dst: PopId) -> Option<f32> {
        let d = self.dist[dst.index()];
        d.is_finite().then_some(d)
    }

    /// Cumulative distance of every node on the path to `dst`, source
    /// first — used by the RTT model. `None` if unreachable.
    pub fn path_to(&self, dst: PopId) -> Option<Vec<(PopId, f32)>> {
        let mut path = Vec::new();
        self.path_into(dst, &mut path).then_some(path)
    }

    /// [`path_to`](PathTree::path_to) into a reused buffer: `path` is
    /// cleared and, when `dst` is reachable (the return value), filled.
    pub(crate) fn path_into(&self, dst: PopId, path: &mut Vec<(PopId, f32)>) -> bool {
        path.clear();
        if !self.dist[dst.index()].is_finite() {
            return false;
        }
        let mut cur = dst.0;
        loop {
            path.push((PopId(cur), self.dist[cur as usize]));
            let p = self.prev[cur as usize];
            debug_assert_ne!(p, UNREACHED, "reachable node must have a predecessor");
            if p == cur {
                break;
            }
            cur = p;
        }
        path.reverse();
        true
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use routergeo_world::{World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig::tiny(21))
    }

    #[derive(PartialEq)]
    struct HeapItem {
        dist: f32,
        node: u32,
    }

    impl Eq for HeapItem {}

    impl Ord for HeapItem {
        fn cmp(&self, other: &Self) -> Ordering {
            // Min-heap on distance.
            other
                .dist
                .total_cmp(&self.dist)
                .then_with(|| other.node.cmp(&self.node))
        }
    }

    impl PartialOrd for HeapItem {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The single-source Dijkstra the packed key replaced, kept as the
    /// oracle for [`Topology::shortest_paths`] and
    /// [`Topology::nearest_paths`].
    pub(crate) fn oracle_tree(topo: &Topology, src: PopId) -> PathTree {
        let n = topo.adj.len();
        let mut dist = vec![f32::INFINITY; n];
        let mut prev = vec![UNREACHED; n];
        let mut heap: BinaryHeap<HeapItem> = BinaryHeap::new();
        dist[src.index()] = 0.0;
        prev[src.index()] = src.0;
        heap.push(HeapItem {
            dist: 0.0,
            node: src.0,
        });
        while let Some(HeapItem { dist: d, node }) = heap.pop() {
            if d > dist[node as usize] {
                continue;
            }
            for &(next, w) in &topo.adj[node as usize] {
                let nd = d + w;
                if nd < dist[next as usize] {
                    dist[next as usize] = nd;
                    prev[next as usize] = node;
                    heap.push(HeapItem {
                        dist: nd,
                        node: next,
                    });
                }
            }
        }
        PathTree { dist, prev }
    }

    /// `dist` as bits, so equality means bit-identical distances.
    fn dist_bits(tree: &PathTree) -> Vec<u32> {
        tree.dist.iter().map(|d| d.to_bits()).collect()
    }

    #[test]
    fn packed_key_trees_match_the_heap_item_oracle_from_every_source() {
        let w = world();
        let topo = Topology::build(&w);
        for pop in &w.pops {
            let (got, want) = (topo.shortest_paths(pop.id), oracle_tree(&topo, pop.id));
            assert_eq!(dist_bits(&got), dist_bits(&want), "dist from {}", pop.id);
            assert_eq!(got.prev, want.prev, "prev from {}", pop.id);
        }
    }

    /// A hand-built graph: `a`–`x`–`c` (3 + 7 km) and `b`–`c` (10 km)
    /// reach `c` at exactly 10.0 km from both `a` and `b`; `d` hangs off
    /// `c` and `e` is unreachable.
    fn tie_graph() -> Topology {
        let (a, b, c, x, d) = (0u32, 1u32, 2u32, 3u32, 4u32);
        let mut adj: Vec<Vec<(u32, f32)>> = vec![Vec::new(); 6];
        let mut edge_count = 0;
        for (u, v, km) in [(a, x, 3.0), (x, c, 7.0), (b, c, 10.0), (c, d, 5.0)] {
            adj[u as usize].push((v, km));
            adj[v as usize].push((u, km));
            edge_count += 1;
        }
        Topology { adj, edge_count }
    }

    #[test]
    fn an_exact_distance_tie_goes_to_the_source_listed_first() {
        let topo = tie_graph();
        let (a, b, c, x, d, e) = (PopId(0), PopId(1), PopId(2), PopId(3), PopId(4), PopId(5));
        let via_a = vec![(a, 0.0), (x, 3.0), (c, 10.0), (d, 15.0)];
        let via_b = vec![(b, 0.0), (c, 10.0), (d, 15.0)];
        let first_a = topo.nearest_paths(&[a, b]);
        assert_eq!(first_a.path_to(d), Some(via_a));
        let first_b = topo.nearest_paths(&[b, a]);
        assert_eq!(first_b.path_to(d), Some(via_b));
        for forest in [&first_a, &first_b] {
            assert_eq!(forest.distance_km(c), Some(10.0));
            assert_eq!(forest.path_to(a), Some(vec![(a, 0.0)]));
            assert_eq!(forest.path_to(b), Some(vec![(b, 0.0)]));
            assert_eq!(forest.path_to(e), None);
        }
    }

    #[test]
    fn path_into_reuses_the_buffer() {
        let topo = tie_graph();
        let tree = topo.shortest_paths(PopId(1));
        let mut path = vec![(PopId(9), 9.0)];
        assert!(tree.path_into(PopId(4), &mut path));
        assert_eq!(path, tree.path_to(PopId(4)).expect("reachable"));
        assert!(!tree.path_into(PopId(5), &mut path));
        assert!(path.is_empty());
    }

    #[test]
    fn graph_is_fully_connected_from_a_stub() {
        let w = world();
        let topo = Topology::build(&w);
        assert_eq!(topo.node_count(), w.pops.len());
        // From any stub PoP, the vast majority of PoPs must be reachable.
        let stub = w
            .pops
            .iter()
            .find(|p| w.operator(p.op).kind == OperatorKind::Stub)
            .expect("some stub");
        let tree = topo.shortest_paths(stub.id);
        let reachable = (0..w.pops.len())
            .filter(|i| tree.distance_km(PopId(*i as u32)).is_some())
            .count();
        assert_eq!(reachable, w.pops.len(), "world must be connected");
    }

    #[test]
    fn every_stub_has_an_uplink() {
        let w = world();
        let topo = Topology::build(&w);
        for pop in &w.pops {
            if w.operator(pop.op).kind == OperatorKind::Stub {
                assert!(
                    !topo.neighbours(pop.id).is_empty(),
                    "stub PoP {} has no uplink",
                    pop.id
                );
            }
        }
    }

    #[test]
    fn paths_start_at_source_and_end_at_destination() {
        let w = world();
        let topo = Topology::build(&w);
        let src = w.pops[0].id;
        let tree = topo.shortest_paths(src);
        let dst = w.pops[w.pops.len() - 1].id;
        let path = tree.path_to(dst).expect("reachable");
        assert_eq!(path.first().unwrap().0, src);
        assert_eq!(path.last().unwrap().0, dst);
        // Cumulative distances are nondecreasing.
        for pair in path.windows(2) {
            assert!(pair[0].1 <= pair[1].1 + 1e-3);
        }
    }

    #[test]
    fn distances_respect_triangle_vs_direct_geo() {
        // Path distance can never undercut the great-circle distance
        // between the endpoint cities.
        let w = world();
        let topo = Topology::build(&w);
        let src = w.pops[3].id;
        let tree = topo.shortest_paths(src);
        let src_coord = w.city(w.pop(src).city).coord;
        for pop in w.pops.iter().step_by(17) {
            if let Some(d) = tree.distance_km(pop.id) {
                let geo = src_coord.distance_km(&w.city(pop.city).coord) as f32;
                assert!(
                    d + 60.0 >= geo,
                    "path {d} km shorter than geodesic {geo} km"
                );
            }
        }
    }

    #[test]
    fn path_to_self_is_single_node() {
        let w = world();
        let topo = Topology::build(&w);
        let src = w.pops[0].id;
        let tree = topo.shortest_paths(src);
        let path = tree.path_to(src).unwrap();
        assert_eq!(path.len(), 1);
        assert_eq!(tree.distance_km(src), Some(0.0));
    }
}
