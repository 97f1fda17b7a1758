//! Deterministic synthetic world model.
//!
//! Every dataset the paper consumes is proprietary or ephemeral, so this
//! crate builds the substitute: a fully synthetic — but structurally
//! realistic — Internet whose ground truth is known exactly. Everything
//! downstream (traceroute campaigns, vendor geolocation databases, reverse
//! DNS, Atlas-style probes) is *derived* from this world, which makes
//! accuracy measurable: the world is the oracle.
//!
//! The world consists of:
//!
//! * **Cities** ([`City`]) scattered inside each country of the embedded
//!   [`routergeo_geo::country`] table, with deterministic names and
//!   airport-style location codes (the raw material for DNS hostname hints).
//! * **Operators / ASes** ([`Operator`]) of three kinds: global transit
//!   networks with worldwide PoPs (modeled after the paper's seven
//!   ground-truth domains plus others), domestic transit networks, and stub
//!   edge networks. Each is registered with one RIR and has a registry
//!   record (org country + HQ city) that may differ from where its routers
//!   actually sit — the paper's chief source of country-level geolocation
//!   error (§5.2.3).
//! * **PoPs, routers, and interfaces** ([`Pop`], [`Router`], [`Interface`])
//!   — routers live in a PoP (an operator's presence in one city) and own
//!   interfaces numbered out of the /24 blocks assigned to that PoP.
//! * **An address plan** — per-RIR /8 pools carved into per-operator
//!   allocations and per-PoP /24 blocks, queryable by IP ([`BlockInfo`]).
//! * **Probes** ([`Probe`]) — Atlas-like vantage points with crowdsourced
//!   (occasionally wrong) registered locations.
//!
//! Generation is a pure function of [`WorldConfig`] (including its seed):
//! the same config always yields byte-identical worlds.

pub mod addressing;
pub mod ases;
pub mod cities;
pub mod config;
pub mod ids;
pub mod names;
pub mod probes;
pub mod topology;
pub mod world;

pub use addressing::BlockInfo;
pub use ases::{Operator, OperatorKind};
pub use cities::City;
pub use config::{Scale, WorldConfig};
pub use ids::{AsId, CityId, InterfaceId, PopId, ProbeId, RouterId};
pub use probes::Probe;
pub use topology::{Interface, Pop, Router};
pub use world::World;
