//! Workspace automation for the routergeo repository.
//!
//! The `xtask` crate hosts the project's custom static-analysis gate
//! and its CI checks, invoked through the cargo alias defined in
//! `.cargo/config.toml`:
//!
//! ```text
//! cargo xtask lint            # the custom RG rules over workspace sources
//! cargo xtask lint --waivers  # also list every active waiver
//! cargo xtask lint --json     # machine-readable findings for CI
//! cargo xtask deps            # offline manifest / dependency policy
//! cargo xtask bench-check     # compare repro --timings vs the baseline
//! cargo xtask bench-check --bless  # refresh BENCH_pipeline.json
//! cargo xtask report-check    # README orderings, then repro all vs results/
//! cargo xtask report-check --bless # refresh the golden report
//! ```
//!
//! Lint policy that clippy can express lives in the root `Cargo.toml`'s
//! `[workspace.lints]` table and in `clippy.toml`, enforced by
//! `cargo clippy -p 'routergeo*' -p xtask -- -D warnings`. The custom
//! engine keeps only the checks clippy cannot express: an empty
//! `.expect("")` message (RG001), float equality (RG004), cleared socket
//! deadlines (RG006), allocating lookups in the analysis modules
//! (RG009), lock guards held across blocking calls (RG011) and
//! swallowed `Result`s (RG012). It parses Rust at the token level
//! ([`lexer`]), builds a brace-matched scope tree ([`scope`]) and
//! intra-function facts — guard liveness and fallible functions —
//! ([`facts`]), evaluates the rules ([`rules`]), classifies files and
//! applies waivers ([`engine`]), and renders machine-readable output
//! ([`json`]). [`deps`] checks manifests and [`mod@bench`] gates stage
//! timings against the committed baseline; [`report`] pins the tenth-scale
//! report's bytes to the committed golden. See CONTRIBUTING.md for the
//! rule catalogue and how to add a rule.

pub mod bench;
pub mod deps;
pub mod engine;
pub mod facts;
pub mod json;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;
