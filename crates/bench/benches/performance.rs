//! Performance benches for the substrates: database lookup structures,
//! geographic math, the traceroute engine, and the whois protocol.
//!
//! These are engineering benchmarks (ns/op), not paper reproductions —
//! they exist so regressions in the hot paths (LPM lookup, haversine,
//! Dijkstra) are caught and so format trade-offs (RGDB vs in-memory
//! ranges) are measurable.

#![expect(
    missing_docs,
    reason = "`criterion_group!` expands to an undocumented `pub fn`"
)]

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use routergeo_db::rgdb2::{self, Rgdb2Reader};
use routergeo_db::synth::{build_vendor, SignalWorld, VendorId, VendorProfile};
use routergeo_db::{GeoDatabase, InMemoryDb};
use routergeo_geo::{haversine_km, Coordinate};
use routergeo_net::Prefix;
use routergeo_trace::Topology;
use routergeo_world::{Scale, World, WorldConfig};
use std::net::Ipv4Addr;
use std::sync::OnceLock;

fn world() -> &'static World {
    static W: OnceLock<World> = OnceLock::new();
    W.get_or_init(|| World::generate(WorldConfig::new(7, Scale::Small)))
}

fn sample_ips(world: &World, n: usize) -> Vec<Ipv4Addr> {
    world
        .interfaces
        .iter()
        .step_by((world.interfaces.len() / n).max(1))
        .map(|i| i.ip)
        .take(n)
        .collect()
}

fn vendor_db() -> &'static InMemoryDb {
    static DB: OnceLock<InMemoryDb> = OnceLock::new();
    DB.get_or_init(|| {
        let signals = SignalWorld::new(world());
        build_vendor(&signals, &VendorProfile::preset(VendorId::NetAcuity))
    })
}

fn bench_lookup_structures(c: &mut Criterion) {
    let w = world();
    let db = vendor_db();
    let ips = sample_ips(w, 1024);

    // The same content as an RGDB binary image.
    let entries: Vec<(Prefix, routergeo_db::LocationRecord)> = db
        .iter()
        .flat_map(|(start, end, rec)| {
            Prefix::cover_range(start, end)
                .into_iter()
                .map(move |p| (p, rec.clone()))
        })
        .collect();
    let image = rgdb2::write_v21(db.name(), entries.iter().map(|(p, r)| (*p, r)));
    let reader = Rgdb2Reader::open(image.clone()).expect("the writer's own image validates");
    println!(
        "RGDB image: {} entries, {} bytes ({} deduplicated records)",
        entries.len(),
        image.len(),
        reader.record_count()
    );

    let mut group = c.benchmark_group("lookup");
    group.throughput(Throughput::Elements(ips.len() as u64));
    group.bench_function("inmem_rangemap", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for ip in &ips {
                if db.lookup(black_box(*ip)).is_some() {
                    hits += 1;
                }
            }
            hits
        })
    });
    group.bench_function("rgdb_binary", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for ip in &ips {
                if reader.lookup(black_box(*ip)).is_some() {
                    hits += 1;
                }
            }
            hits
        })
    });
    group.finish();

    c.bench_function("rgdb_write_full_db", |b| {
        b.iter(|| rgdb2::write_v21(db.name(), entries.iter().map(|(p, r)| (*p, r))))
    });
}

fn bench_vendor_build(c: &mut Criterion) {
    let w = world();
    let signals = SignalWorld::new(w);
    c.bench_function("vendor_synthesis_netacuity", |b| {
        b.iter(|| build_vendor(&signals, &VendorProfile::preset(VendorId::NetAcuity)))
    });
    c.bench_function("signal_world_build", |b| b.iter(|| SignalWorld::new(w)));
}

fn bench_geo_math(c: &mut Criterion) {
    let a = Coordinate::new(48.8566, 2.3522).expect("Paris is a valid coordinate");
    let pts: Vec<Coordinate> = (0..1000)
        .map(|i| {
            Coordinate::new(
                -80.0 + (i as f64 * 0.16) % 160.0,
                -170.0 + (i as f64 * 0.34) % 340.0,
            )
            .expect("the sweep stays inside the valid ranges")
        })
        .collect();
    let mut group = c.benchmark_group("geo");
    group.throughput(Throughput::Elements(pts.len() as u64));
    group.bench_function("haversine_1000", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for p in &pts {
                sum += haversine_km(black_box(&a), black_box(p));
            }
            sum
        })
    });
    group.finish();
}

fn bench_topology(c: &mut Criterion) {
    let w = world();
    c.bench_function("topology_build", |b| b.iter(|| Topology::build(w)));
    let topo = Topology::build(w);
    let src = w.pops[0].id;
    c.bench_function("dijkstra_single_source", |b| {
        b.iter(|| topo.shortest_paths(black_box(src)))
    });
}

fn bench_world_generation(c: &mut Criterion) {
    c.bench_function("world_generate_tiny", |b| {
        b.iter(|| World::generate(WorldConfig::tiny(3)))
    });
}

fn bench_whois_roundtrip(c: &mut Criterion) {
    use routergeo_cymru::{bulk_lookup, MappingService, WhoisServer};
    use std::sync::Arc;
    let w = world();
    let svc = Arc::new(MappingService::build(w));
    let mut srv = WhoisServer::spawn(Arc::clone(&svc)).expect("bind");
    let addr = srv.addr();
    let ips = sample_ips(w, 64);
    c.bench_function("whois_bulk_64_tcp", |b| {
        b.iter(|| bulk_lookup(addr, &ips).expect("bulk"))
    });
    c.bench_function("whois_inprocess_64", |b| {
        b.iter(|| {
            let mut found = 0usize;
            for ip in &ips {
                if svc.lookup(*ip).is_some() {
                    found += 1;
                }
            }
            found
        })
    });
    srv.shutdown();
}

criterion_group! {
    name = performance;
    config = Criterion::default().sample_size(20);
    targets = bench_lookup_structures, bench_vendor_build, bench_geo_math,
              bench_topology, bench_world_generation, bench_whois_roundtrip
}
criterion_main!(performance);
