//! Vendor-image loadgen: the serve daemon swept across **real** lab
//! vendor databases encoded as file-backed RGDB images.
//!
//! The corpus-driven loadgen (`cargo xtask serve-check`) exercises the
//! daemon over synthetic generations; this suite closes the remaining
//! headroom by serving the actual pipeline vendors — every generation
//! is a `Lab` vendor serialized with `write_v21`, loaded from disk via
//! `FileImage`, and hot-swapped into the live daemon in the paper's
//! vendor order while a client drives lookups.
//!
//! The tiny-scale sweep always runs. The tenth-scale sweep is opt-in
//! (`cargo xtask serve-check --vendor-images` runs it with `--ignored`)
//! so the default CI serve gate keeps its existing wall budget.

use std::net::Ipv4Addr;
use std::path::PathBuf;

use routergeo_bench::lab::{Lab, LabConfig};
use routergeo_db::GeoDatabase;
use routergeo_serve::daemon::ServeDaemon;
use routergeo_serve::live::ServeClient;
use routergeo_serve::protocol::{Request, Response};
use routergeo_world::Scale;

/// Per-vendor probe set: range boundaries plus the address just past
/// each range (a likely coverage hole), capped so the tenth-scale sweep
/// stays bounded.
fn probes(db: &routergeo_db::InMemoryDb, cap: usize) -> Vec<Ipv4Addr> {
    let mut out = Vec::new();
    for (start, end, _) in db.iter() {
        out.push(start);
        out.push(end);
        out.push(Ipv4Addr::from(u32::from(end).saturating_add(1)));
        if out.len() >= cap {
            break;
        }
    }
    out
}

/// Unique scratch path for one vendor image.
fn scratch_path(tag: &str, ix: usize) -> PathBuf {
    std::env::temp_dir().join(format!(
        "routergeo-vendor-{}-{}-{}.rgdb",
        std::process::id(),
        tag,
        ix
    ))
}

/// Sweep one lab through the daemon: vendor 0 boots the daemon from a
/// file-backed RGDB image, vendors 1.. hot-swap in from disk, and every
/// generation is differentially checked against its in-memory twin on
/// the probe set (coverage and country must agree exactly).
#[expect(clippy::panic, reason = "a test helper fails its test by panicking")]
fn sweep(lab: &Lab, tag: &str, cap: usize) {
    let images = lab.vendor_images();
    assert_eq!(images.len(), lab.dbs.len(), "one RGDB image per vendor");
    let paths: Vec<PathBuf> = images
        .iter()
        .enumerate()
        .map(|(ix, image)| {
            let path = scratch_path(tag, ix);
            std::fs::write(&path, image).expect("vendor image written to disk");
            path
        })
        .collect();

    let daemon = ServeDaemon::spawn_file(&paths[0]).expect("daemon boots from a file-backed image");
    let mut client = ServeClient::connect(daemon.addr()).expect("client connects");
    let mut total_hits = 0usize;
    let mut total_misses = 0usize;
    for (ix, db) in lab.dbs.iter().enumerate() {
        if ix > 0 {
            let report = daemon
                .hot_swap_file(&paths[ix])
                .expect("file-backed vendor swap");
            assert!(report.drained, "vendor {ix} swap must drain");
        }
        for ip in probes(db, cap) {
            let expected = db.lookup(ip);
            let response = client
                .request(&Request::Lookup(ip))
                .expect("lookup round-trips");
            match (expected, response) {
                (Some(want), Response::Hit { record: got, .. }) => {
                    total_hits += 1;
                    assert_eq!(want.country, got.country, "vendor {ix} at {ip}");
                    assert_eq!(want.city, got.city, "vendor {ix} at {ip}");
                }
                (None, Response::Miss { .. }) => total_misses += 1,
                (want, got) => panic!("vendor {ix} at {ip}: coverage differs: {want:?} vs {got:?}"),
            }
        }
    }
    let swaps = u64::try_from(lab.dbs.len() - 1).expect("vendor count is tiny");
    let stats = daemon.stats();
    assert_eq!(stats.swaps, swaps, "every vendor swapped in once");
    assert_eq!(stats.errors, 0, "no serve-side errors: {stats:?}");
    assert!(total_hits > 0, "sweep must exercise covered space");
    assert!(total_misses > 0, "sweep must exercise coverage holes");
    drop(client);
    drop(daemon);
    for path in paths {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn tiny_vendor_v21_images_serve_from_disk() {
    let lab = Lab::tiny(20_170_301);
    sweep(&lab, "tiny", usize::MAX);
}

#[test]
#[ignore = "opt-in: tenth-scale vendor loadgen (cargo xtask serve-check --vendor-images)"]
fn tenth_scale_vendor_v21_images_serve_from_disk() {
    let lab = Lab::build(LabConfig::new(20_170_301, Scale::Tenth));
    sweep(&lab, "tenth", 30_000);
}
