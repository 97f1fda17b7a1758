//! The experiment harness: everything needed to regenerate the paper's
//! tables and figures from one seeded synthetic lab.
//!
//! [`Lab`] assembles the full pipeline — world, topology, Ark campaign,
//! Atlas built-ins, ground truth, vendor databases, whois, gazetteer —
//! and [`experiments`] exposes one function per table/figure (see the
//! experiment index in `DESIGN.md`). The `repro` binary prints them; the
//! Criterion benches in `benches/` time the analysis stages and assert
//! the headline shapes.

pub mod experiments;
pub mod lab;
pub mod timing;

pub use lab::{Lab, LabConfig, StageTiming};
pub use timing::PipelineTimings;
