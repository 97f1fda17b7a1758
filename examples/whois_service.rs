//! The Team Cymru-style bulk whois service (§2.3.3) over a real TCP
//! socket: spawn the server on an ephemeral port, query a batch of router
//! addresses with the client, and cross-check against the in-process
//! mapping.
//!
//! ```sh
//! cargo run --release --example whois_service
//! ```

use routergeo::cymru::{bulk_lookup, client::BulkAnswer, MappingService, WhoisServer};
use routergeo::world::{World, WorldConfig};
use std::sync::Arc;

fn main() {
    let world = World::generate(WorldConfig::tiny(55));
    let service = Arc::new(MappingService::build(&world));
    println!(
        "mapping service: {} announced prefixes",
        service.prefix_count()
    );

    let mut server = WhoisServer::spawn(Arc::clone(&service)).expect("bind ephemeral port");
    println!("whois server listening on {}", server.addr());

    // A batch of router interfaces plus one unallocated address.
    let mut ips: Vec<std::net::Ipv4Addr> = world
        .interfaces
        .iter()
        .step_by(world.interfaces.len() / 8)
        .map(|i| i.ip)
        .collect();
    ips.push("203.0.113.99".parse().expect("a literal address parses"));

    let answers = bulk_lookup(server.addr(), &ips).expect("bulk query");
    println!(
        "\n{:<16} {:<8} {:<18} {:<4} registry",
        "address", "asn", "prefix", "cc"
    );
    for answer in &answers {
        match answer {
            BulkAnswer::Found(ip, rec) => {
                println!(
                    "{:<16} {:<8} {:<18} {:<4} {}",
                    ip,
                    rec.asn,
                    rec.prefix.to_string(),
                    rec.country,
                    rec.rir
                );
                // The wire answer must agree with the in-process service.
                assert_eq!(Some(*rec), service.lookup(*ip));
            }
            BulkAnswer::NotFound(ip) => println!("{ip:<16} (not announced)"),
        }
    }

    server.shutdown();
    println!("\nserver shut down cleanly");
}
