//! File-backed image loading.
//!
//! [`FileImage`] reads an RGDB image straight from disk into a
//! [`Bytes`] buffer with **one** allocation and no intermediate copy:
//! the file is read in place into the final buffer (positioned
//! `read_at` on unix), and ownership of that buffer transfers into
//! `Bytes`. Serve hot-swap and the CLI open on-disk images through this
//! type instead of hand-rolled `std::fs::read` + clone chains.
//!
//! Failures are attributed: every error is an [`RgdbError::Io`] naming
//! the path, the operation (`"open"`, `"metadata"`, `"read"`), and the
//! OS error category — or, once the bytes are loaded, whatever
//! structural error [`crate::Rgdb2Reader::open`] raises for them.
//! Nothing in this module panics on untrusted input.

use crate::rgdb2::RgdbError;
use bytes::Bytes;
use std::fs::File;
use std::path::{Path, PathBuf};

/// An RGDB image loaded from disk, ready to open or hand to a serve
/// generation. The underlying buffer is shared `Bytes`, so cloning the
/// image or passing it to a reader never copies the payload again.
#[derive(Debug, Clone)]
pub struct FileImage {
    path: PathBuf,
    bytes: Bytes,
}

impl FileImage {
    /// Read the file at `path` fully into memory. The buffer is
    /// allocated once at the file's exact size and filled in place; no
    /// intermediate `Vec` growth or copy happens on the way to `Bytes`.
    pub fn load(path: impl AsRef<Path>) -> Result<FileImage, RgdbError> {
        let path = path.as_ref();
        let io_err = |op: &'static str, kind: std::io::ErrorKind| RgdbError::Io {
            path: path.display().to_string(),
            op,
            kind,
        };
        let file = File::open(path).map_err(|e| io_err("open", e.kind()))?;
        let len = file
            .metadata()
            .map_err(|e| io_err("metadata", e.kind()))?
            .len();
        let len = usize::try_from(len)
            .map_err(|_| io_err("metadata", std::io::ErrorKind::Unsupported))?;
        let mut buf = vec![0u8; len];
        read_exact_into(&file, &mut buf).map_err(|(op, kind)| io_err(op, kind))?;
        Ok(FileImage {
            path: path.to_path_buf(),
            bytes: Bytes::from(buf),
        })
    }

    /// The path the image was loaded from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Image size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the file was empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// A shared handle to the image bytes (no copy).
    pub fn bytes(&self) -> Bytes {
        self.bytes.clone()
    }

    /// Consume the image, yielding the underlying buffer (no copy).
    pub fn into_bytes(self) -> Bytes {
        self.bytes
    }
}

/// Fill `buf` from the start of `file`, tolerating short reads and
/// retrying on `Interrupted`. Returns the failing operation label and
/// error kind on failure. Uses positioned reads on unix so the `File`'s
/// own cursor state is irrelevant.
fn read_exact_into(file: &File, buf: &mut [u8]) -> Result<(), (&'static str, std::io::ErrorKind)> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let chunk = buf
            .get_mut(filled..)
            .ok_or(("read", std::io::ErrorKind::UnexpectedEof))?;
        let offset =
            u64::try_from(filled).map_err(|_| ("read", std::io::ErrorKind::Unsupported))?;
        match read_chunk(file, chunk, offset) {
            // A zero-length read before the buffer is full means the
            // file shrank underneath us (metadata raced a truncate).
            Ok(0) => return Err(("read", std::io::ErrorKind::UnexpectedEof)),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(("read", e.kind())),
        }
    }
    Ok(())
}

#[cfg(unix)]
fn read_chunk(file: &File, chunk: &mut [u8], offset: u64) -> std::io::Result<usize> {
    use std::os::unix::fs::FileExt;
    file.read_at(chunk, offset)
}

#[cfg(not(unix))]
fn read_chunk(file: &File, chunk: &mut [u8], offset: u64) -> std::io::Result<usize> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file;
    f.seek(SeekFrom::Start(offset))?;
    f.read(chunk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Granularity, LocationRecord};
    use crate::rgdb2::{fnv1a, write_v21, Rgdb2Reader, Section, FNV_OFFSET, HEADER_LEN};
    use crate::GeoDatabase;
    use routergeo_net::Prefix;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique scratch path per test invocation (pid + counter), so
    /// parallel test runs never collide.
    fn scratch_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "routergeo-image-{}-{}-{}.rgdb",
            std::process::id(),
            seq,
            tag
        ))
    }

    fn sample_image() -> Bytes {
        let rec = LocationRecord {
            country: Some("US".parse().unwrap()),
            region: Some("Region".into()),
            city: Some("City".into()),
            coord: None,
            granularity: Granularity::Block24,
        };
        let entries: Vec<(Prefix, LocationRecord)> = vec![("10.1.0.0/16".parse().unwrap(), rec)];
        write_v21("file-db", entries.iter().map(|(p, r)| (*p, r)))
    }

    #[test]
    fn loads_and_opens_a_written_image() {
        let image = sample_image();
        let path = scratch_path("ok");
        std::fs::write(&path, &image).unwrap();
        let file = FileImage::load(&path).unwrap();
        assert_eq!(file.len(), image.len());
        assert_eq!(file.path(), path.as_path());
        assert!(!file.is_empty());
        let reader = Rgdb2Reader::open(file.into_bytes()).unwrap();
        assert_eq!(reader.name(), "file-db");
        assert!(reader.lookup("10.1.2.3".parse().unwrap()).is_some());
        assert!(reader.lookup("11.1.2.3".parse().unwrap()).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unreadable_path_is_an_attributed_io_error() {
        let path = scratch_path("missing");
        let err = FileImage::load(&path).unwrap_err();
        match err {
            RgdbError::Io { path: p, op, kind } => {
                assert_eq!(op, "open");
                assert_eq!(kind, std::io::ErrorKind::NotFound);
                assert!(p.contains("routergeo-image-"), "{p}");
            }
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn truncated_file_is_rejected_at_open() {
        let image = sample_image();
        let path = scratch_path("trunc");
        std::fs::write(&path, &image[..image.len() / 2]).unwrap();
        // The bytes load fine — truncation is a *structural* fault the
        // reader attributes, not an I/O fault.
        let file = FileImage::load(&path).unwrap();
        assert!(matches!(
            Rgdb2Reader::open(file.into_bytes()),
            Err(RgdbError::Truncated)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_is_attributed_no_panic() {
        let image = sample_image();
        let path = scratch_path("corrupt");

        // Flipped payload byte without checksum repair: checksum fires.
        let mut bytes = image.to_vec();
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Rgdb2Reader::open(FileImage::load(&path).unwrap().into_bytes()),
            Err(RgdbError::ChecksumMismatch)
        ));

        // Same flip with the checksum re-fixed: structural validation
        // fires with section/offset attribution (the flip above lands
        // in the root table of this small image).
        let sum = fnv1a(FNV_OFFSET, &bytes[HEADER_LEN..]).to_le_bytes();
        bytes[20..28].copy_from_slice(&sum);
        std::fs::write(&path, &bytes).unwrap();
        let err = Rgdb2Reader::open(FileImage::load(&path).unwrap().into_bytes()).unwrap_err();
        let ctx = err.context().expect("attributed structural error");
        assert_eq!(ctx.section, Section::RootTable);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_loads_then_fails_structurally() {
        let path = scratch_path("empty");
        std::fs::write(&path, b"").unwrap();
        let file = FileImage::load(&path).unwrap();
        assert!(file.is_empty());
        assert!(matches!(
            Rgdb2Reader::open(file.into_bytes()),
            Err(RgdbError::Truncated)
        ));
        std::fs::remove_file(&path).ok();
    }
}
