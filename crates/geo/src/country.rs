//! ISO 3166-1 country codes and an embedded world country table.
//!
//! The table drives the synthetic world generator (`routergeo-world`) and
//! supplies the "default country coordinates" that both the paper (§3.2) and
//! real geolocation databases use when they only know an address's country:
//! coordinates near the geographic centre of the country, often in
//! unpopulated areas (the paper's example: N51°00′ E09°00′ for Germany).
//!
//! Centroids and radii here are approximations of the real-world values —
//! sufficient for the simulation, where they only need to be plausible and
//! mutually consistent. The `weight` column is a rough router-infrastructure
//! density used to apportion synthetic ASes, routers, and probes.

use crate::coord::Coordinate;
use crate::rir::Rir;
use std::fmt;
use std::str::FromStr;

/// An ISO 3166-1 alpha-2 country code (two upper-case ASCII letters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CountryCode([u8; 2]);

impl CountryCode {
    /// Construct from two bytes, validating that both are ASCII letters.
    /// Lower-case input is folded to upper-case.
    pub fn new(a: u8, b: u8) -> Option<CountryCode> {
        if a.is_ascii_alphabetic() && b.is_ascii_alphabetic() {
            Some(CountryCode([
                a.to_ascii_uppercase(),
                b.to_ascii_uppercase(),
            ]))
        } else {
            None
        }
    }

    /// Construct from a string slice of exactly two ASCII letters.
    pub fn from_str_exact(s: &str) -> Option<CountryCode> {
        let bytes = s.as_bytes();
        if bytes.len() == 2 {
            CountryCode::new(bytes[0], bytes[1])
        } else {
            None
        }
    }

    /// The two-letter code as a `&str`.
    pub fn as_str(&self) -> &str {
        // Both bytes are validated ASCII letters.
        std::str::from_utf8(&self.0).expect("country code is ASCII")
    }

    /// The raw two bytes, for binary formats.
    pub fn bytes(&self) -> [u8; 2] {
        self.0
    }

    /// Look up this country in the embedded world table.
    pub fn info(&self) -> Option<&'static CountryInfo> {
        lookup(*self)
    }
}

impl fmt::Display for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error when parsing a [`CountryCode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCountryError(pub String);

impl fmt::Display for ParseCountryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid ISO alpha-2 country code: {:?}", self.0)
    }
}

impl std::error::Error for ParseCountryError {}

impl FromStr for CountryCode {
    type Err = ParseCountryError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        CountryCode::from_str_exact(s.trim()).ok_or_else(|| ParseCountryError(s.to_string()))
    }
}

/// Convenience: build a `CountryCode` from a two-letter string literal,
/// panicking on invalid input. Intended for tests and embedded tables.
#[expect(
    clippy::panic,
    reason = "documented panicking constructor for static literals; fallible path is FromStr"
)]
pub fn cc(code: &str) -> CountryCode {
    CountryCode::from_str_exact(code)
        .unwrap_or_else(|| panic!("invalid country code literal {code:?}"))
}

/// Static description of one country in the embedded world table.
#[derive(Debug, Clone, Copy)]
pub struct CountryInfo {
    /// ISO alpha-2 code.
    pub alpha2: [u8; 2],
    /// ISO alpha-3 code.
    pub alpha3: &'static str,
    /// English short name.
    pub name: &'static str,
    /// Geographic centroid latitude (the "default country coordinate").
    pub centroid_lat: f64,
    /// Geographic centroid longitude.
    pub centroid_lon: f64,
    /// Approximate country radius in km (radius of the equal-area disk).
    pub radius_km: f64,
    /// Allocating regional Internet registry.
    pub rir: Rir,
    /// Relative router-infrastructure weight (arbitrary units).
    pub weight: u16,
}

impl CountryInfo {
    /// The country's alpha-2 code as a [`CountryCode`].
    pub fn code(&self) -> CountryCode {
        CountryCode(self.alpha2)
    }

    /// The default country centroid as a [`Coordinate`].
    ///
    /// This is the coordinate a database (or RIPE Atlas probe registration)
    /// falls back to when only the country is known — the signature the
    /// paper's probe-disqualification step looks for (§3.2).
    pub fn centroid(&self) -> Coordinate {
        Coordinate::new(self.centroid_lat, self.centroid_lon).expect("embedded centroid is valid")
    }
}

macro_rules! country {
    ($a2:literal, $a3:literal, $name:literal, $lat:expr, $lon:expr, $r:expr, $rir:ident, $w:expr) => {
        CountryInfo {
            alpha2: [$a2.as_bytes()[0], $a2.as_bytes()[1]],
            alpha3: $a3,
            name: $name,
            centroid_lat: $lat,
            centroid_lon: $lon,
            radius_km: $r,
            rir: Rir::$rir,
            weight: $w,
        }
    };
}

/// The embedded world table, sorted by alpha-2 code.
///
/// 112 countries spanning all five RIRs. Centroids approximate real
/// geographic centres; radii approximate the equal-area disk radius; weights
/// approximate relative router-infrastructure density.
pub static COUNTRIES: &[CountryInfo] = &[
    country!(
        "AE",
        "ARE",
        "United Arab Emirates",
        23.9,
        54.3,
        163.0,
        RipeNcc,
        8
    ),
    country!("AL", "ALB", "Albania", 41.1, 20.1, 96.0, RipeNcc, 2),
    country!("AM", "ARM", "Armenia", 40.2, 45.0, 97.0, RipeNcc, 2),
    country!("AO", "AGO", "Angola", -12.3, 17.5, 630.0, Afrinic, 2),
    country!("AR", "ARG", "Argentina", -34.0, -64.0, 940.0, Lacnic, 12),
    country!("AT", "AUT", "Austria", 47.6, 14.1, 163.0, RipeNcc, 12),
    country!("AU", "AUS", "Australia", -25.7, 134.5, 1565.0, Apnic, 22),
    country!("AZ", "AZE", "Azerbaijan", 40.3, 47.7, 166.0, RipeNcc, 2),
    country!(
        "BA",
        "BIH",
        "Bosnia and Herzegovina",
        44.2,
        17.8,
        127.0,
        RipeNcc,
        2
    ),
    country!("BD", "BGD", "Bangladesh", 23.7, 90.4, 217.0, Apnic, 6),
    country!("BE", "BEL", "Belgium", 50.6, 4.6, 98.0, RipeNcc, 12),
    country!("BG", "BGR", "Bulgaria", 42.7, 25.5, 188.0, RipeNcc, 9),
    country!("BO", "BOL", "Bolivia", -16.3, -63.6, 590.0, Lacnic, 2),
    country!("BR", "BRA", "Brazil", -10.8, -52.9, 1645.0, Lacnic, 30),
    country!("BW", "BWA", "Botswana", -22.2, 23.8, 430.0, Afrinic, 1),
    country!("BY", "BLR", "Belarus", 53.5, 28.0, 257.0, RipeNcc, 4),
    country!("CA", "CAN", "Canada", 56.1, -106.3, 1780.0, Arin, 34),
    country!("CH", "CHE", "Switzerland", 46.8, 8.2, 115.0, RipeNcc, 15),
    country!("CI", "CIV", "Cote d'Ivoire", 7.5, -5.5, 320.0, Afrinic, 1),
    country!("CL", "CHL", "Chile", -35.7, -71.5, 490.0, Lacnic, 8),
    country!("CM", "CMR", "Cameroon", 5.7, 12.7, 389.0, Afrinic, 1),
    country!("CN", "CHN", "China", 35.9, 104.2, 1750.0, Apnic, 60),
    country!("CO", "COL", "Colombia", 4.6, -74.1, 602.0, Lacnic, 7),
    country!("CR", "CRI", "Costa Rica", 9.7, -83.8, 128.0, Lacnic, 2),
    country!("CU", "CUB", "Cuba", 21.5, -77.8, 188.0, Lacnic, 1),
    country!("CY", "CYP", "Cyprus", 35.1, 33.2, 54.0, RipeNcc, 2),
    country!("CZ", "CZE", "Czechia", 49.8, 15.5, 158.0, RipeNcc, 12),
    country!("DE", "DEU", "Germany", 51.0, 9.0, 337.0, RipeNcc, 70),
    country!("DK", "DNK", "Denmark", 56.0, 10.0, 117.0, RipeNcc, 9),
    country!(
        "DO",
        "DOM",
        "Dominican Republic",
        18.7,
        -70.2,
        124.0,
        Lacnic,
        1
    ),
    country!("DZ", "DZA", "Algeria", 28.0, 2.6, 870.0, Afrinic, 3),
    country!("EC", "ECU", "Ecuador", -1.8, -78.2, 300.0, Lacnic, 2),
    country!("EE", "EST", "Estonia", 58.7, 25.5, 120.0, RipeNcc, 3),
    country!("EG", "EGY", "Egypt", 26.6, 29.8, 565.0, Afrinic, 7),
    country!("ES", "ESP", "Spain", 40.0, -4.0, 401.0, RipeNcc, 24),
    country!("ET", "ETH", "Ethiopia", 9.1, 39.6, 593.0, Afrinic, 1),
    country!("FI", "FIN", "Finland", 64.9, 26.0, 328.0, RipeNcc, 9),
    country!("FJ", "FJI", "Fiji", -17.7, 178.0, 76.0, Apnic, 1),
    country!("FR", "FRA", "France", 46.2, 2.2, 419.0, RipeNcc, 48),
    country!(
        "GB",
        "GBR",
        "United Kingdom",
        54.0,
        -2.0,
        278.0,
        RipeNcc,
        55
    ),
    country!("GE", "GEO", "Georgia", 42.3, 43.4, 149.0, RipeNcc, 2),
    country!("GH", "GHA", "Ghana", 7.9, -1.2, 276.0, Afrinic, 2),
    country!("GR", "GRC", "Greece", 39.0, 22.0, 205.0, RipeNcc, 8),
    country!("GT", "GTM", "Guatemala", 15.8, -90.2, 186.0, Lacnic, 1),
    country!("HK", "HKG", "Hong Kong", 22.35, 114.13, 19.0, Apnic, 12),
    country!("HN", "HND", "Honduras", 14.8, -86.6, 189.0, Lacnic, 1),
    country!("HR", "HRV", "Croatia", 45.1, 15.2, 134.0, RipeNcc, 4),
    country!("HU", "HUN", "Hungary", 47.2, 19.5, 172.0, RipeNcc, 8),
    country!("ID", "IDN", "Indonesia", -2.5, 118.0, 780.0, Apnic, 14),
    country!("IE", "IRL", "Ireland", 53.2, -8.2, 150.0, RipeNcc, 8),
    country!("IL", "ISR", "Israel", 31.4, 35.0, 84.0, RipeNcc, 9),
    country!("IN", "IND", "India", 21.0, 78.0, 1022.0, Apnic, 36),
    country!("IQ", "IRQ", "Iraq", 33.0, 43.7, 373.0, RipeNcc, 2),
    country!("IR", "IRN", "Iran", 32.4, 53.7, 724.0, RipeNcc, 8),
    country!("IS", "ISL", "Iceland", 64.9, -18.6, 181.0, RipeNcc, 2),
    country!("IT", "ITA", "Italy", 42.8, 12.8, 310.0, RipeNcc, 40),
    country!("JM", "JAM", "Jamaica", 18.1, -77.3, 59.0, Lacnic, 1),
    country!("JO", "JOR", "Jordan", 31.3, 36.4, 169.0, RipeNcc, 2),
    country!("JP", "JPN", "Japan", 36.2, 138.3, 347.0, Apnic, 42),
    country!("KE", "KEN", "Kenya", 0.5, 37.9, 430.0, Afrinic, 3),
    country!("KG", "KGZ", "Kyrgyzstan", 41.5, 74.6, 252.0, RipeNcc, 1),
    country!("KH", "KHM", "Cambodia", 12.6, 105.0, 240.0, Apnic, 1),
    country!("KR", "KOR", "South Korea", 36.5, 127.8, 179.0, Apnic, 18),
    country!("KW", "KWT", "Kuwait", 29.3, 47.6, 75.0, RipeNcc, 2),
    country!("KZ", "KAZ", "Kazakhstan", 48.0, 66.9, 931.0, RipeNcc, 5),
    country!("LB", "LBN", "Lebanon", 33.9, 35.9, 58.0, RipeNcc, 2),
    country!("LK", "LKA", "Sri Lanka", 7.6, 80.7, 144.0, Apnic, 2),
    country!("LT", "LTU", "Lithuania", 55.2, 23.9, 144.0, RipeNcc, 4),
    country!("LU", "LUX", "Luxembourg", 49.8, 6.1, 29.0, RipeNcc, 3),
    country!("LV", "LVA", "Latvia", 56.9, 24.9, 143.0, RipeNcc, 4),
    country!("LY", "LBY", "Libya", 27.0, 17.2, 748.0, Afrinic, 1),
    country!("MA", "MAR", "Morocco", 31.9, -6.3, 377.0, Afrinic, 4),
    country!("MD", "MDA", "Moldova", 47.2, 28.5, 104.0, RipeNcc, 3),
    country!("MG", "MDG", "Madagascar", -19.4, 46.7, 432.0, Afrinic, 1),
    country!("MK", "MKD", "North Macedonia", 41.6, 21.7, 90.0, RipeNcc, 2),
    country!("MM", "MMR", "Myanmar", 21.2, 96.7, 464.0, Apnic, 1),
    country!("MN", "MNG", "Mongolia", 46.8, 103.1, 706.0, Apnic, 1),
    country!("MO", "MAC", "Macao", 22.16, 113.56, 6.0, Apnic, 1),
    country!("MT", "MLT", "Malta", 35.9, 14.4, 10.0, RipeNcc, 2),
    country!("MU", "MUS", "Mauritius", -20.3, 57.6, 25.0, Afrinic, 2),
    country!("MX", "MEX", "Mexico", 23.6, -102.5, 790.0, Lacnic, 14),
    country!("MY", "MYS", "Malaysia", 4.2, 102.0, 324.0, Apnic, 9),
    country!("MZ", "MOZ", "Mozambique", -17.3, 35.5, 505.0, Afrinic, 1),
    country!("NA", "NAM", "Namibia", -22.1, 17.2, 512.0, Afrinic, 1),
    country!("NG", "NGA", "Nigeria", 9.6, 8.1, 542.0, Afrinic, 5),
    country!("NI", "NIC", "Nicaragua", 12.9, -85.0, 204.0, Lacnic, 1),
    country!("NL", "NLD", "Netherlands", 52.1, 5.3, 115.0, RipeNcc, 38),
    country!("NO", "NOR", "Norway", 64.5, 17.0, 340.0, RipeNcc, 9),
    country!("NP", "NPL", "Nepal", 28.2, 84.0, 216.0, Apnic, 1),
    country!("NZ", "NZL", "New Zealand", -41.8, 172.8, 292.0, Apnic, 6),
    country!("OM", "OMN", "Oman", 21.0, 57.0, 314.0, RipeNcc, 1),
    country!("PA", "PAN", "Panama", 8.5, -80.8, 155.0, Lacnic, 2),
    country!("PE", "PER", "Peru", -9.2, -75.0, 640.0, Lacnic, 4),
    country!(
        "PG",
        "PNG",
        "Papua New Guinea",
        -6.5,
        145.0,
        384.0,
        Apnic,
        1
    ),
    country!("PH", "PHL", "Philippines", 12.9, 122.9, 309.0, Apnic, 7),
    country!("PK", "PAK", "Pakistan", 30.0, 69.3, 503.0, Apnic, 6),
    country!("PL", "POL", "Poland", 52.0, 19.4, 315.0, RipeNcc, 20),
    country!("PR", "PRI", "Puerto Rico", 18.2, -66.4, 53.0, Arin, 2),
    country!("PT", "PRT", "Portugal", 39.6, -8.0, 171.0, RipeNcc, 7),
    country!("PY", "PRY", "Paraguay", -23.4, -58.4, 360.0, Lacnic, 1),
    country!("QA", "QAT", "Qatar", 25.3, 51.2, 61.0, RipeNcc, 2),
    country!("RO", "ROU", "Romania", 45.9, 24.9, 275.0, RipeNcc, 12),
    country!("RS", "SRB", "Serbia", 44.2, 20.9, 167.0, RipeNcc, 4),
    country!("RU", "RUS", "Russia", 61.5, 105.3, 2330.0, RipeNcc, 40),
    country!("SA", "SAU", "Saudi Arabia", 24.2, 44.5, 827.0, RipeNcc, 6),
    country!("SE", "SWE", "Sweden", 62.2, 17.6, 378.0, RipeNcc, 16),
    country!("SG", "SGP", "Singapore", 1.35, 103.82, 15.0, Apnic, 14),
    country!("SI", "SVN", "Slovenia", 46.1, 14.8, 80.0, RipeNcc, 3),
    country!("SK", "SVK", "Slovakia", 48.7, 19.7, 125.0, RipeNcc, 5),
    country!("SN", "SEN", "Senegal", 14.4, -14.5, 250.0, Afrinic, 1),
    country!("SV", "SLV", "El Salvador", 13.8, -88.9, 82.0, Lacnic, 1),
    country!("TH", "THA", "Thailand", 15.1, 101.0, 404.0, Apnic, 9),
    country!("TJ", "TJK", "Tajikistan", 38.9, 71.3, 213.0, RipeNcc, 1),
    country!("TN", "TUN", "Tunisia", 34.1, 9.6, 228.0, Afrinic, 2),
    country!("TR", "TUR", "Turkey", 39.0, 35.0, 499.0, RipeNcc, 14),
    country!(
        "TT",
        "TTO",
        "Trinidad and Tobago",
        10.7,
        -61.2,
        40.0,
        Lacnic,
        1
    ),
    country!("TW", "TWN", "Taiwan", 23.7, 121.0, 107.0, Apnic, 10),
    country!("TZ", "TZA", "Tanzania", -6.3, 34.8, 549.0, Afrinic, 2),
    country!("UA", "UKR", "Ukraine", 48.4, 31.2, 438.0, RipeNcc, 14),
    country!("UG", "UGA", "Uganda", 1.3, 32.3, 277.0, Afrinic, 1),
    country!("US", "USA", "United States", 39.8, -98.6, 1770.0, Arin, 330),
    country!("UY", "URY", "Uruguay", -32.5, -55.8, 237.0, Lacnic, 2),
    country!("UZ", "UZB", "Uzbekistan", 41.4, 64.6, 377.0, RipeNcc, 2),
    country!("VE", "VEN", "Venezuela", 6.4, -66.6, 539.0, Lacnic, 3),
    country!("VN", "VNM", "Vietnam", 16.6, 106.3, 325.0, Apnic, 8),
    country!("ZA", "ZAF", "South Africa", -29.0, 25.1, 623.0, Afrinic, 8),
    country!("ZM", "ZMB", "Zambia", -13.5, 27.8, 489.0, Afrinic, 1),
    country!("ZW", "ZWE", "Zimbabwe", -19.0, 29.9, 353.0, Afrinic, 1),
];

/// Look up a country in the embedded table by alpha-2 code.
pub fn lookup(code: CountryCode) -> Option<&'static CountryInfo> {
    COUNTRIES
        .binary_search_by(|info| info.alpha2.cmp(&code.bytes()))
        .ok()
        .map(|i| &COUNTRIES[i])
}

/// Look up a country by alpha-3 code (linear scan; used by parsers only).
pub fn lookup_alpha3(alpha3: &str) -> Option<&'static CountryInfo> {
    let target = alpha3.trim().to_ascii_uppercase();
    COUNTRIES.iter().find(|info| info.alpha3 == target)
}

/// All countries allocated by the given RIR.
pub fn countries_in_rir(rir: Rir) -> impl Iterator<Item = &'static CountryInfo> {
    COUNTRIES.iter().filter(move |c| c.rir == rir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_and_unique() {
        for pair in COUNTRIES.windows(2) {
            assert!(
                pair[0].alpha2 < pair[1].alpha2,
                "table out of order near {}",
                pair[0].name
            );
        }
    }

    #[test]
    fn table_covers_all_rirs() {
        for rir in Rir::ALL {
            assert!(countries_in_rir(rir).count() > 0, "no countries for {rir}");
        }
    }

    #[test]
    fn all_centroids_are_valid_coordinates() {
        for info in COUNTRIES {
            let c = info.centroid();
            assert!(c.lat().abs() <= 90.0 && c.lon().abs() <= 180.0);
            assert!(info.radius_km > 0.0, "{} radius", info.name);
            assert!(info.weight > 0, "{} weight", info.name);
            assert_eq!(info.alpha3.len(), 3, "{} alpha3", info.name);
        }
    }

    #[test]
    fn lookup_finds_every_entry() {
        for info in COUNTRIES {
            let found = lookup(info.code()).expect("lookup");
            assert_eq!(found.name, info.name);
        }
    }

    #[test]
    fn lookup_misses_unknown() {
        assert!(lookup(cc("XX")).is_none());
        assert!(lookup(cc("ZZ")).is_none());
    }

    #[test]
    fn alpha3_lookup_works() {
        assert_eq!(lookup_alpha3("USA").unwrap().name, "United States");
        assert_eq!(lookup_alpha3("deu").unwrap().alpha3, "DEU");
        assert!(lookup_alpha3("XYZ").is_none());
    }

    #[test]
    fn germany_centroid_matches_paper_example() {
        // §3.2 gives N51°00′00″ E09°00′00″ as Germany's default coordinates.
        let de = lookup(cc("DE")).unwrap();
        assert_eq!(de.centroid_lat, 51.0);
        assert_eq!(de.centroid_lon, 9.0);
    }

    #[test]
    fn code_parsing() {
        assert_eq!(cc("us").as_str(), "US");
        assert!("u1".parse::<CountryCode>().is_err());
        assert!("USA".parse::<CountryCode>().is_err());
        assert!("".parse::<CountryCode>().is_err());
        assert_eq!("nl".parse::<CountryCode>().unwrap().as_str(), "NL");
    }

    #[test]
    fn fig4_top20_countries_present() {
        // Figure 4 lists the 20 countries with the most ground-truth
        // addresses; all must exist in our table.
        for code in [
            "US", "DE", "GB", "IT", "FR", "NL", "JP", "CA", "ES", "SG", "CH", "RU", "PL", "BG",
            "AU", "CZ", "SE", "RO", "UA", "HK",
        ] {
            assert!(lookup(cc(code)).is_some(), "missing {code}");
        }
    }

    #[test]
    fn us_dominates_arin_weight() {
        let us = lookup(cc("US")).unwrap();
        let arin_total: u64 = countries_in_rir(Rir::Arin).map(|c| c.weight as u64).sum();
        assert!(us.weight as u64 * 2 > arin_total, "US should dominate ARIN");
    }
}
