//! Validated WGS84 coordinates.
//!
//! Every location in the workspace — router positions, database answers,
//! probe metadata, gazetteer entries — is a [`Coordinate`]. Construction is
//! checked so downstream distance math never sees NaN or out-of-range
//! values; geolocation databases in the wild do ship junk coordinates, and
//! parsers in `routergeo-db` surface those as errors rather than panics.

use std::fmt;

/// Errors produced when constructing or parsing a [`Coordinate`].
#[derive(Debug, Clone, PartialEq)]
pub enum CoordinateError {
    /// Latitude outside the [-90, +90] degree range, or not finite.
    InvalidLatitude(f64),
    /// Longitude outside the [-180, +180] degree range, or not finite.
    InvalidLongitude(f64),
    /// A textual coordinate could not be parsed.
    Parse(String),
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
            CoordinateError::Parse(s) => write!(f, "cannot parse coordinate from {s:?}"),
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

    /// Parse from `"lat,lon"` decimal-degree text.
    pub fn parse(s: &str) -> Result<Self, CoordinateError> {
        let mut parts = s.splitn(2, ',');
        let lat = parts
            .next()
            .and_then(|p| p.trim().parse::<f64>().ok())
            .ok_or_else(|| CoordinateError::Parse(s.to_string()))?;
        let lon = parts
            .next()
            .and_then(|p| p.trim().parse::<f64>().ok())
            .ok_or_else(|| CoordinateError::Parse(s.to_string()))?;
        Coordinate::new(lat, lon)
    }

    /// Parse a degrees-minutes-seconds pair like the paper's
    /// `N51°00′00″ E09°00′00″` (§3.2's default-coordinate example).
    /// ASCII quote variants (`'`, `"`) are accepted too.
    pub fn parse_dms(s: &str) -> Result<Self, CoordinateError> {
        let err = || CoordinateError::Parse(s.to_string());
        let mut parts = s.split_whitespace();
        let lat_part = parts.next().ok_or_else(err)?;
        let lon_part = parts.next().ok_or_else(err)?;
        if parts.next().is_some() {
            return Err(err());
        }
        let lat = Self::parse_dms_component(lat_part, 'N', 'S').ok_or_else(err)?;
        let lon = Self::parse_dms_component(lon_part, 'E', 'W').ok_or_else(err)?;
        Coordinate::new(lat, lon)
    }

    fn parse_dms_component(s: &str, pos: char, neg: char) -> Option<f64> {
        let mut chars = s.chars();
        let hemi = chars.next()?;
        let sign = if hemi == pos {
            1.0
        } else if hemi == neg {
            -1.0
        } else {
            return None;
        };
        // Split on the degree/minute/second markers, tolerating ASCII
        // fallbacks and missing trailing fields.
        let rest: String = chars.collect();
        let mut fields = rest
            .split(['°', '′', '″', '\'', '"'])
            .filter(|f| !f.is_empty());
        let deg: f64 = fields.next()?.trim().parse().ok()?;
        let min: f64 = match fields.next() {
            Some(f) => f.trim().parse().ok()?,
            None => 0.0,
        };
        let sec: f64 = match fields.next() {
            Some(f) => f.trim().parse().ok()?,
            None => 0.0,
        };
        if fields.next().is_some() || !(0.0..60.0).contains(&min) || !(0.0..60.0).contains(&sec) {
            return None;
        }
        Some(sign * (deg + min / 60.0 + sec / 3600.0))
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
    }

    #[test]
    fn parse_roundtrip() {
        let c = Coordinate::new(37.7749, -122.4194).unwrap();
        let parsed = Coordinate::parse(&c.to_string()).unwrap();
        assert_eq!(c, parsed);
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(Coordinate::parse("").is_err());
        assert!(Coordinate::parse("abc,def").is_err());
        assert!(Coordinate::parse("12.0").is_err());
        assert!(Coordinate::parse("91.0,0.0").is_err());
    }

    #[test]
    fn parse_dms_paper_example() {
        // §3.2: Germany's default country coordinates.
        let c = Coordinate::parse_dms("N51°00′00″ E09°00′00″").unwrap();
        assert_eq!(c, Coordinate::new(51.0, 9.0).unwrap());
    }

    #[test]
    fn parse_dms_variants() {
        let c = Coordinate::parse_dms("S33°51′54″ E151°12′34″").unwrap();
        assert!((c.lat() + 33.865).abs() < 0.001, "{}", c.lat());
        assert!((c.lon() - 151.2094).abs() < 0.001, "{}", c.lon());
        // ASCII quotes and missing seconds.
        let c = Coordinate::parse_dms("N40°30' W74°0'").unwrap();
        assert!((c.lat() - 40.5).abs() < 1e-9);
        assert!((c.lon() + 74.0).abs() < 1e-9);
        // Degrees only.
        let c = Coordinate::parse_dms("N51° E9°").unwrap();
        assert_eq!(c, Coordinate::new(51.0, 9.0).unwrap());
    }

    #[test]
    fn parse_dms_rejects_junk() {
        for s in [
            "",
            "N51°00′00″",            // missing longitude
            "X51°00′00″ E09°00′00″", // bad hemisphere
            "N51°72′00″ E09°00′00″", // minutes out of range
            "N91°00′00″ E09°00′00″", // latitude out of range
            "N51°00′00″ E09°00′00″ extra",
            "N51°00′00″00″ E09°00′00″", // too many fields
        ] {
            assert!(Coordinate::parse_dms(s).is_err(), "{s:?} accepted");
        }
    }

    #[test]
    fn display_has_six_decimals() {
        let c = Coordinate::new(1.5, -2.25).unwrap();
        assert_eq!(c.to_string(), "1.500000,-2.250000");
    }
}
