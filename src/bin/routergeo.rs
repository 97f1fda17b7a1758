//! `routergeo` — interactive CLI over a generated world.
//!
//! ```text
//! usage: routergeo [--seed N] [--scale tiny|small|tenth|paper] <command>
//!   lookup <ip>         vendor answers + oracle truth for an address
//!   decode <hostname>   run the DRoP rules and the greedy miner on a name
//!   whois <ip>          ASN / prefix / registry country / RIR
//!   random [n]          lookup n random router interfaces (default 3)
//! ```
//!
//! The world is regenerated from the seed on every run (sub-second at the
//! default scale), so the tool needs no state on disk.

#![expect(
    clippy::disallowed_macros,
    reason = "a binary entry point reports CLI diagnostics on stderr"
)]

use routergeo::cymru::MappingService;
use routergeo::db::synth::{build_vendor, SignalWorld, VendorProfile};
use routergeo::db::GeoDatabase;
use routergeo::dns::{GenericDecoder, RuleEngine};
use routergeo::world::{Scale, World, WorldConfig};
use std::net::Ipv4Addr;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: routergeo [--seed N] [--scale tiny|small|tenth|paper] <command>\n\
         commands:\n\
           lookup <ip>        vendor answers + oracle truth for an address\n\
           decode <hostname>  run the DRoP rules and the greedy miner\n\
           whois <ip>         ASN / prefix / registry country / RIR\n\
           random [n]         lookup n random router interfaces (default 3)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut seed = 20_170_301u64;
    let mut scale = Scale::Small;
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--scale" => match args.next().as_deref().and_then(Scale::parse) {
                Some(v) => scale = v,
                None => return usage(),
            },
            _ => rest.push(arg),
        }
    }
    let Some(command) = rest.first().cloned() else {
        return usage();
    };

    eprintln!("generating world (seed {seed}, {scale:?})…");
    let world = World::generate(WorldConfig::new(seed, scale));

    match command.as_str() {
        "lookup" => {
            let Some(ip) = rest.get(1).and_then(|s| s.parse::<Ipv4Addr>().ok()) else {
                return usage();
            };
            lookup(&world, &[ip]);
            ExitCode::SUCCESS
        }
        "random" => {
            let n: usize = rest.get(1).and_then(|s| s.parse().ok()).unwrap_or(3);
            let step = (world.interfaces.len() / n.max(1)).max(1);
            let ips: Vec<Ipv4Addr> = world
                .interfaces
                .iter()
                .step_by(step)
                .take(n)
                .map(|i| i.ip)
                .collect();
            lookup(&world, &ips);
            ExitCode::SUCCESS
        }
        "decode" => {
            let Some(name) = rest.get(1) else {
                return usage();
            };
            let engine = RuleEngine::with_gt_rules(&world);
            let generic = GenericDecoder::new(&world);
            match engine.decode(name) {
                Some(city) => {
                    let c = world.city(city);
                    println!("rules:  {} ({}, {})", c.name, c.country, c.coord);
                }
                None => println!(
                    "rules:  no match{}",
                    if engine.has_rule_for(name) {
                        " (domain has rules; token unknown)"
                    } else {
                        " (no rules for this domain)"
                    }
                ),
            }
            match generic.decode(name) {
                Some(city) => {
                    let c = world.city(city);
                    println!("miner:  {} ({}, {})", c.name, c.country, c.coord);
                }
                None => println!("miner:  no hint found"),
            }
            ExitCode::SUCCESS
        }
        "whois" => {
            let Some(ip) = rest.get(1).and_then(|s| s.parse::<Ipv4Addr>().ok()) else {
                return usage();
            };
            let service = MappingService::build(&world);
            println!("{}", service.format_row(ip));
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

fn lookup(world: &World, ips: &[Ipv4Addr]) {
    let signals = SignalWorld::new(world);
    let dbs: Vec<_> = VendorProfile::all_presets()
        .iter()
        .map(|p| build_vendor(&signals, p))
        .collect();
    for ip in ips {
        println!("{ip}:");
        match world.true_location(*ip) {
            Some((city, coord)) => {
                let c = world.city(city);
                let info = world.block_info(*ip).expect("interface has a block");
                let op = world.operator(info.op);
                println!(
                    "  truth     {} ({}) at {:.3},{:.3} — {} [{:?}], block {} ({})",
                    c.name,
                    c.country,
                    coord.lat(),
                    coord.lon(),
                    op.name,
                    op.kind,
                    info.block,
                    info.rir
                );
            }
            None => println!("  truth     not a router interface in this world"),
        }
        for db in &dbs {
            match db.lookup(*ip) {
                Some(rec) => {
                    let where_ = match (&rec.city, rec.country) {
                        (Some(city), Some(cc)) => format!("{city}, {cc}"),
                        (None, Some(cc)) => format!("{cc} (country only)"),
                        _ => "(empty record)".into(),
                    };
                    let err = match (rec.coord, world.true_location(*ip)) {
                        (Some(c), Some((_, truth))) => {
                            format!("  [{:.1} km off]", c.distance_km(&truth))
                        }
                        _ => String::new(),
                    };
                    println!("  {:<18} {}{}", db.name(), where_, err);
                }
                None => println!("  {:<18} no record", db.name()),
            }
        }
        println!();
    }
}
