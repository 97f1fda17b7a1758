//! Validated WGS84 coordinates.
//!
//! Every location in the workspace — router positions, database answers,
//! probe metadata, gazetteer entries — is a [`Coordinate`]. Construction is
//! checked so downstream distance math never sees NaN or out-of-range
//! values; geolocation databases in the wild do ship junk coordinates, and
//! parsers in `routergeo-db` surface those as errors rather than panics.

use std::fmt;

/// Errors produced when constructing a [`Coordinate`].
#[derive(Debug, Clone, PartialEq)]
pub enum CoordinateError {
    /// Latitude outside the [-90, +90] degree range, or not finite.
    InvalidLatitude(f64),
    /// Longitude outside the [-180, +180] degree range, or not finite.
    InvalidLongitude(f64),
}

impl fmt::Display for CoordinateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordinateError::InvalidLatitude(v) => {
                write!(f, "latitude {v} out of range [-90, 90]")
            }
            CoordinateError::InvalidLongitude(v) => {
                write!(f, "longitude {v} out of range [-180, 180]")
            }
        }
    }
}

impl std::error::Error for CoordinateError {}

/// A WGS84 latitude/longitude pair in decimal degrees.
///
/// Invariants (enforced at construction):
/// * `-90.0 <= lat <= 90.0`
/// * `-180.0 <= lon <= 180.0`
/// * both values are finite.
///
/// `Coordinate` implements `Eq`/`Hash` via a fixed-point quantization to
/// 1e-6 degrees (≈ 0.11 m at the equator), which lets ground-truth code
/// count *unique coordinates* exactly as the paper's Table 1 does.
#[derive(Debug, Clone, Copy)]
pub struct Coordinate {
    lat: f64,
    lon: f64,
}

impl Coordinate {
    /// Create a coordinate, validating ranges.
    pub fn new(lat: f64, lon: f64) -> Result<Self, CoordinateError> {
        if !lat.is_finite() || !(-90.0..=90.0).contains(&lat) {
            return Err(CoordinateError::InvalidLatitude(lat));
        }
        if !lon.is_finite() || !(-180.0..=180.0).contains(&lon) {
            return Err(CoordinateError::InvalidLongitude(lon));
        }
        Ok(Coordinate { lat, lon })
    }

    /// Create a coordinate, normalizing longitude into [-180, 180] and
    /// clamping latitude into [-90, 90].
    ///
    /// Used by the world generator when scattering points near the poles or
    /// the antimeridian; the result is always valid.
    pub fn wrapped(lat: f64, lon: f64) -> Self {
        let lat = lat.clamp(-90.0, 90.0);
        let mut lon = (lon + 180.0).rem_euclid(360.0) - 180.0;
        // xtask-allow: RG004 exact canonicalization branch: rem_euclid yields exactly -180.0 for antimeridian inputs
        if lon == -180.0 {
            lon = 180.0;
        }
        Coordinate { lat, lon }
    }

    /// Latitude in decimal degrees, in [-90, 90].
    #[inline]
    pub fn lat(&self) -> f64 {
        self.lat
    }

    /// Longitude in decimal degrees, in [-180, 180].
    #[inline]
    pub fn lon(&self) -> f64 {
        self.lon
    }

    /// Latitude in radians.
    #[inline]
    pub fn lat_rad(&self) -> f64 {
        self.lat.to_radians()
    }

    /// Longitude in radians.
    #[inline]
    pub fn lon_rad(&self) -> f64 {
        self.lon.to_radians()
    }

    /// The exact bit patterns of latitude and longitude. Equal bits mean
    /// equal distances to any point, which `==` cannot promise: it
    /// compares coordinates quantised to 1e-6 degrees.
    #[inline]
    pub fn to_bits(&self) -> [u64; 2] {
        [self.lat.to_bits(), self.lon.to_bits()]
    }

    /// Quantize to 1e-6 degrees for exact equality/hashing.
    #[inline]
    fn quantized(&self) -> (i64, i64) {
        (
            (self.lat * 1e6).round() as i64,
            (self.lon * 1e6).round() as i64,
        )
    }

    /// Great-circle distance to `other` in kilometres (haversine).
    #[inline]
    pub fn distance_km(&self, other: &Coordinate) -> f64 {
        crate::distance::haversine_km(self, other)
    }
}

impl PartialEq for Coordinate {
    fn eq(&self, other: &Self) -> bool {
        self.quantized() == other.quantized()
    }
}

impl Eq for Coordinate {}

impl std::hash::Hash for Coordinate {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.quantized().hash(state);
    }
}

impl fmt::Display for Coordinate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6},{:.6}", self.lat, self.lon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_valid_ranges() {
        assert!(Coordinate::new(0.0, 0.0).is_ok());
        assert!(Coordinate::new(90.0, 180.0).is_ok());
        assert!(Coordinate::new(-90.0, -180.0).is_ok());
        assert!(Coordinate::new(51.0, 9.0).is_ok()); // Germany's default centroid (§3.2)
    }

    #[test]
    fn new_rejects_out_of_range() {
        assert!(matches!(
            Coordinate::new(90.5, 0.0),
            Err(CoordinateError::InvalidLatitude(_))
        ));
        assert!(matches!(
            Coordinate::new(0.0, 181.0),
            Err(CoordinateError::InvalidLongitude(_))
        ));
        assert!(Coordinate::new(f64::NAN, 0.0).is_err());
        assert!(Coordinate::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn wrapped_normalizes_longitude() {
        let c = Coordinate::wrapped(10.0, 190.0);
        assert!((c.lon() - -170.0).abs() < 1e-9);
        let c = Coordinate::wrapped(10.0, -190.0);
        assert!((c.lon() - 170.0).abs() < 1e-9);
        let c = Coordinate::wrapped(95.0, 0.0);
        assert_eq!(c.lat(), 90.0);
    }

    #[test]
    fn wrapped_is_always_valid() {
        for lat in [-1000.0, -90.0, 0.0, 90.0, 1000.0] {
            for lon in [-1000.0, -180.0, 0.0, 180.0, 1000.0, 359.9] {
                let c = Coordinate::wrapped(lat, lon);
                assert!(Coordinate::new(c.lat(), c.lon()).is_ok(), "{lat},{lon}");
            }
        }
    }

    #[test]
    fn equality_is_quantized() {
        let a = Coordinate::new(50.0000001, 8.0).unwrap();
        let b = Coordinate::new(50.0000004, 8.0).unwrap();
        let c = Coordinate::new(50.001, 8.0).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // The bit patterns still tell the quantised-equal pair apart.
        assert_ne!(a.to_bits(), b.to_bits());
        assert_eq!(
            a.to_bits(),
            Coordinate::new(50.0000001, 8.0).unwrap().to_bits()
        );
    }

    #[test]
    fn display_has_six_decimals() {
        let c = Coordinate::new(1.5, -2.25).unwrap();
        assert_eq!(c.to_string(), "1.500000,-2.250000");
    }
}
