//! Pillar 3: differential lookups across the three database backends.
//!
//! For every corpus entry, the same `(prefix, record)` set is loaded
//! three ways — an RGDB image in the heap, the same image re-loaded
//! from disk through [`routergeo_db::FileImage`], and a flat
//! [`routergeo_db::InMemoryDb`] range map (the oracle) — and all three
//! must answer [`GeoDatabase::lookup_compact`] identically over a
//! seeded address sweep, and each backend's batch path must answer as
//! its per-address loop does. One [`LocationInterner`] is shared by
//! the backends so equal strings intern to equal ids and
//! [`CompactRecord`]s compare directly.
//!
//! The corpus is constructed to be exactly representable in RGDB
//! (disjoint prefixes, micro-degree coordinates, strings at or under
//! the 255-byte cap, `Some("")` included — see [`crate::corpus`]), so
//! any disagreement is a backend defect, not a corpus artifact.

use crate::corpus::{build_entry, Scale};
use crate::rgdb_fuzz::CORPUS_SEEDS;
use crate::rng::FuzzRng;
use crate::FuzzConfig;
use routergeo_db::inmem::InMemoryDbBuilder;
use routergeo_db::rgdb2::Rgdb2Reader;
use routergeo_db::{CompactRecord, FileImage, GeoDatabase, LocationInterner};
use std::net::Ipv4Addr;

/// Aggregates for one scale.
#[derive(Debug)]
pub struct DiffScaleOutcome {
    /// Scale these counts describe.
    pub scale: Scale,
    /// Corpus entries compared.
    pub entries: u64,
    /// Addresses swept across all entries (each checked three ways).
    pub addresses: u64,
    /// One line per disagreement (empty on a healthy run).
    pub mismatches: Vec<String>,
}

/// Report for the differential pillar.
#[derive(Debug)]
pub struct DiffOutcome {
    /// Per-scale aggregates: tiny and tenth, per the acceptance bar.
    pub scales: Vec<DiffScaleOutcome>,
}

fn render(r: Option<CompactRecord>) -> String {
    match r {
        None => "none".to_string(),
        Some(c) => format!(
            "country={:?} region={:?} city={:?} coord={:?} gran={:?}",
            c.country.map(|cc| cc.as_str().to_string()),
            c.region_id,
            c.city_id,
            c.coord,
            c.granularity
        ),
    }
}

/// Sweep one corpus entry across the three backends. Returns the
/// addresses probed and any disagreement lines.
fn sweep_entry(seed: u64, scale: Scale, diff_addrs: u64, root: u64) -> (u64, Vec<String>) {
    let entry = build_entry(seed, scale);
    let mut mismatches = Vec::new();
    let spec = |what: &str| format!("seed={seed} scale={} {what}", scale.label());

    let image = entry.image();
    let heap = match Rgdb2Reader::open(image.clone()) {
        Ok(r) => r,
        Err(e) => return (0, vec![spec(&format!("rgdb image failed to open: {e}"))]),
    };
    // The same image again, but round-tripped through disk via
    // FileImage — the serving path's loader must hand back bytes that
    // answer identically to the in-heap buffer.
    static DISK_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let file_path = std::env::temp_dir().join(format!(
        "routergeo-fuzz-diff-{}-{}-{}-{}.rgdb",
        std::process::id(),
        seed,
        scale.label(),
        DISK_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    if let Err(e) = std::fs::write(&file_path, &image) {
        return (
            0,
            vec![spec(&format!("rgdb image failed to hit disk: {e}"))],
        );
    }
    let file_backed = FileImage::load(&file_path)
        .map_err(|e| e.to_string())
        .and_then(|img| Rgdb2Reader::open(img.into_bytes()).map_err(|e| e.to_string()));
    std::fs::remove_file(&file_path).ok(); // xtask-allow: RG012 best-effort temp-file cleanup; the reader verdict is already captured
    let file = match file_backed {
        Ok(r) => r,
        Err(e) => {
            return (
                0,
                vec![spec(&format!("file-backed rgdb image failed to open: {e}"))],
            )
        }
    };
    let mut builder = InMemoryDbBuilder::new("mem");
    for (prefix, record) in &entry.entries {
        builder.push_prefix(*prefix, record.clone());
    }
    let inmem = match builder.build() {
        Ok(db) => db,
        Err(e) => return (0, vec![spec(&format!("in-memory build failed: {e}"))]),
    };

    // The sweep. Boundary probes: first, last, and a random inner
    // address of every prefix — exactly where interval searches and
    // range maps disagree first.
    let mut rng = FuzzRng::new(root ^ seed.rotate_left(13) ^ (scale.records() as u64));
    let mut sweep: Vec<Ipv4Addr> = Vec::new();
    for (prefix, _) in &entry.entries {
        let span = u64::from(u32::from(prefix.last())) - u64::from(u32::from(prefix.first()));
        let inner = u32::from(prefix.first()).wrapping_add(
            u32::try_from(rng.below(span.saturating_add(1)) & 0xFFFF_FFFF).unwrap_or(0),
        );
        sweep.extend([prefix.first(), prefix.last(), Ipv4Addr::from(inner)]);
    }
    // Global sweep: uniform addresses, mostly landing in uncovered
    // space — the `None == None == None` agreement matters too.
    for _ in 0..diff_addrs {
        let word = u32::try_from(rng.next_u64() & 0xFFFF_FFFF).unwrap_or(0);
        sweep.push(Ipv4Addr::from(word));
    }

    // One shared interner: identical strings get identical ids no
    // matter which backend interned them first.
    let mut interner = LocationInterner::new();
    for &ip in &sweep {
        let h = heap.lookup_compact(ip, &mut interner);
        let f = file.lookup_compact(ip, &mut interner);
        let m = inmem.lookup_compact(ip, &mut interner);
        if h != f || h != m {
            mismatches.push(spec(&format!(
                "addr={ip}: rgdb[{}] rgdb-file[{}] mem[{}]",
                render(h),
                render(f),
                render(m)
            )));
        }
    }

    // The batch path: the sweep again, every third address repeated,
    // shuffled, through each backend's `lookup_batch`. Its answers and
    // its interner must equal that backend's per-address loop's.
    let mut batch = sweep.clone();
    batch.extend(sweep.iter().step_by(3));
    for i in (1..batch.len()).rev() {
        let j = usize::try_from(rng.below(i as u64 + 1)).unwrap_or(0);
        batch.swap(i, j);
    }
    let backends: [(&str, &dyn GeoDatabase); 3] =
        [("rgdb", &heap), ("rgdb-file", &file), ("mem", &inmem)];
    for (label, db) in backends {
        let mut seq_interner = LocationInterner::new();
        let seq: Vec<_> = (batch.iter())
            .map(|ip| db.lookup_compact(*ip, &mut seq_interner))
            .collect();
        let mut batch_interner = LocationInterner::new();
        let got = db.lookup_batch(&batch, &mut batch_interner);
        if got != seq || batch_interner != seq_interner {
            let first = (seq.iter().zip(&got).position(|(a, b)| a != b))
                .map(|p| (batch[p], render(got[p]), render(seq[p])));
            mismatches.push(spec(&format!(
                "{label} lookup_batch differs from its per-address loop: {} answers for {} \
                 addresses, same interner {}, first difference (addr, batch, loop) {first:?}",
                got.len(),
                seq.len(),
                batch_interner == seq_interner
            )));
        }
    }
    (sweep.len() as u64, mismatches)
}

/// Run the pillar over the tiny and tenth scales for every corpus seed.
pub fn run(config: &FuzzConfig) -> DiffOutcome {
    let mut scales = Vec::new();
    for scale in [Scale::Tiny, Scale::Tenth] {
        let mut out = DiffScaleOutcome {
            scale,
            entries: 0,
            addresses: 0,
            mismatches: Vec::new(),
        };
        for &seed in &CORPUS_SEEDS {
            let (addresses, mut mismatches) =
                sweep_entry(seed, scale, config.diff_addrs, config.seed);
            out.entries += 1;
            out.addresses += addresses;
            out.mismatches.append(&mut mismatches);
        }
        scales.push(out);
    }
    DiffOutcome { scales }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_agree_on_the_corpus() {
        let config = FuzzConfig {
            seed: 7,
            trials_per_class: 1,
            proto_runs: 1,
            diff_addrs: 32,
        };
        let outcome = run(&config);
        assert_eq!(outcome.scales.len(), 2);
        for s in &outcome.scales {
            assert!(s.mismatches.is_empty(), "{:#?}", s.mismatches);
            assert!(s.addresses > 0);
        }
    }
}
