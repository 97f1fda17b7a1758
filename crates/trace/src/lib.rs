//! Traceroute simulation over the synthetic world.
//!
//! Substitutes for the two measurement platforms the paper consumes:
//!
//! * **CAIDA Ark** (§2.1): [`ark`] runs a campaign of traceroutes from a
//!   set of monitors toward random addresses in routed /24s and extracts
//!   the set of router interface addresses seen on paths — the
//!   *Ark-topo-router* dataset.
//! * **RIPE Atlas built-in measurements** (§2.3.2): [`atlas`] has every
//!   probe traceroute a set of root-server-like anycast targets; the
//!   records carry per-hop RTTs that `routergeo-rtt` mines for
//!   0.5 ms-proximity ground truth.
//!
//! The machinery underneath:
//!
//! * [`graph`] — a PoP-level topology graph (stub uplinks, metro peering
//!   meshes, operator backbones, international uplinks) with Dijkstra
//!   shortest paths.
//! * [`rttmodel`] — a physically grounded RTT model: great-circle
//!   propagation at ≈ 2/3 c as the floor, multiplied by per-flow path
//!   inflation, plus per-hop queueing jitter. Measurements can only
//!   inflate the floor, never beat it — the invariant the paper's 0.5 ms
//!   threshold relies on.
//! * [`engine`] — turns a PoP path into a hop-by-hop traceroute with
//!   ingress-interface selection and loss.
//! * [`record`] — measurement records plus RIPE-Atlas-shaped JSON
//!   import/export.
//! * [`wire`] — *warts-lite*, a compact checksummed binary stream format
//!   for spooling campaigns to disk (CAIDA ships Ark data as binary warts
//!   for the same reason).

pub mod ark;
pub mod atlas;
pub mod engine;
pub mod graph;
pub mod json;
pub mod record;
pub mod rttmodel;
pub mod wire;

pub use ark::{ArkCampaign, ArkConfig, ArkDataset};
pub use atlas::{AtlasBuiltins, AtlasConfig};
pub use engine::TraceEngine;
pub use graph::{PathTree, Topology};
pub use record::{Hop, TracerouteRecord};
pub use rttmodel::RttModel;
pub use wire::{WartsReader, WartsWriter, WireError};
