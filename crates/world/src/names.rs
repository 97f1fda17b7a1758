//! Deterministic synthetic naming.
//!
//! City names are built from syllables so they look plausible, are
//! pronounceable, and — crucially for the DNS ground-truth machinery —
//! yield stable airport-style location codes that the DRoP-like rule engine
//! can decode. The same RNG stream always produces the same names.

use rand::Rng;

const ONSETS: &[&str] = &[
    "b", "br", "c", "ch", "d", "dr", "f", "g", "gr", "h", "k", "kl", "l", "m", "n", "p", "pr", "r",
    "s", "st", "t", "tr", "v", "w", "z",
];
const VOWELS: &[&str] = &["a", "e", "i", "o", "u", "ai", "ei", "ou"];
const CODAS: &[&str] = &["", "l", "n", "r", "s", "t", "m", "rg", "nd", "ck"];
const SUFFIXES: &[&str] = &[
    "ville", "burg", "ton", "field", "port", "stad", "grad", "pur", "minato", "abad",
];

/// Generate a plausible city name from the RNG stream.
///
/// Names are Title-cased, 2–3 syllables, optionally with a toponymic
/// suffix. Collisions are possible; callers de-duplicate per country.
pub fn city_name<R: Rng>(rng: &mut R) -> String {
    let syllables = rng.gen_range(2..=3);
    let mut name = String::new();
    for _ in 0..syllables {
        name.push_str(ONSETS[rng.gen_range(0..ONSETS.len())]);
        name.push_str(VOWELS[rng.gen_range(0..VOWELS.len())]);
        name.push_str(CODAS[rng.gen_range(0..CODAS.len())]);
    }
    if rng.gen_bool(0.35) {
        name.push_str(SUFFIXES[rng.gen_range(0..SUFFIXES.len())]);
    }
    let mut chars = name.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
        None => name,
    }
}

/// Derive a three-letter airport-style code from a city name.
///
/// Mimics IATA style: prefer the leading consonant skeleton, fall back to
/// the first three letters. Always upper-case ASCII. Collisions are
/// resolved by the caller (see [`unique_airport_code`]).
pub fn airport_code(name: &str) -> String {
    let letters: Vec<char> = name
        .chars()
        .filter(|c| c.is_ascii_alphabetic())
        .map(|c| c.to_ascii_uppercase())
        .collect();
    let consonants: Vec<char> = letters
        .iter()
        .copied()
        .filter(|c| !matches!(c, 'A' | 'E' | 'I' | 'O' | 'U'))
        .collect();
    let pick = if consonants.len() >= 3 {
        &consonants[..3]
    } else if letters.len() >= 3 {
        &letters[..3]
    } else {
        // Degenerate names: pad with 'X' like real provisional codes.
        let mut padded = letters.clone();
        while padded.len() < 3 {
            padded.push('X');
        }
        return padded.into_iter().collect();
    };
    pick.iter().collect()
}

/// Derive an airport code unique within `taken`, mutating the candidate
/// with numbered/lettered fallbacks until free, then registering it.
#[expect(
    clippy::unreachable,
    reason = "exhausting 703 same-prefix fallback codes would need more cities than any \
              generated world holds"
)]
pub fn unique_airport_code(name: &str, taken: &mut std::collections::HashSet<String>) -> String {
    let base = airport_code(name);
    if taken.insert(base.clone()) {
        return base;
    }
    // Replace the last letter with A..Z, then two letters, etc.
    for c in b'A'..=b'Z' {
        let cand = format!("{}{}", &base[..2], c as char);
        if taken.insert(cand.clone()) {
            return cand;
        }
    }
    for c1 in b'A'..=b'Z' {
        for c2 in b'A'..=b'Z' {
            let cand = format!("{}{}{}", &base[..1], c1 as char, c2 as char);
            if taken.insert(cand.clone()) {
                return cand;
            }
        }
    }
    unreachable!("26^2 fallback codes exhausted")
}

/// A CLLI-style six-letter code (city code + region letters), used by some
/// operators' hostname conventions (real-world example: `dllstx` for
/// Dallas, TX).
///
/// Built from the city's airport code (unique world-wide), one city-name
/// letter, and the country code — so CLLI codes are unique whenever
/// airport codes are, which the world generator guarantees.
pub fn clli_code(airport: &str, city_name: &str, country: &str) -> String {
    let a = airport.to_ascii_lowercase();
    let name_letter = city_name
        .chars()
        .find(|c| c.is_ascii_alphabetic())
        .map(|c| c.to_ascii_lowercase())
        .unwrap_or('x');
    format!("{a}{name_letter}{}", country.to_ascii_lowercase())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn names_are_deterministic() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            assert_eq!(city_name(&mut a), city_name(&mut b));
        }
    }

    #[test]
    fn names_are_title_case_and_nonempty() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let n = city_name(&mut rng);
            assert!(!n.is_empty());
            assert!(n.chars().next().unwrap().is_ascii_uppercase());
            assert!(n.chars().all(|c| c.is_ascii_alphabetic()));
        }
    }

    #[test]
    fn airport_codes_are_three_upper_letters() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            let code = airport_code(&city_name(&mut rng));
            assert_eq!(code.len(), 3, "{code}");
            assert!(code.chars().all(|c| c.is_ascii_uppercase()));
        }
        assert_eq!(airport_code("Io"), "IOX");
        assert_eq!(airport_code(""), "XXX");
    }

    #[test]
    fn unique_codes_never_collide() {
        let mut taken = std::collections::HashSet::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mut all = Vec::new();
        for _ in 0..500 {
            let code = unique_airport_code(&city_name(&mut rng), &mut taken);
            all.push(code);
        }
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
    }

    #[test]
    fn clli_codes_look_right() {
        assert_eq!(clli_code("DAL", "Dallas", "US"), "daldus");
        assert_eq!(clli_code("BOX", "", "US"), "boxxus");
    }

    #[test]
    fn clli_codes_unique_when_airports_unique() {
        let mut taken = std::collections::HashSet::new();
        let mut codes = std::collections::HashSet::new();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..300 {
            let name = city_name(&mut rng);
            let airport = unique_airport_code(&name, &mut taken);
            assert!(codes.insert(clli_code(&airport, &name, "US")));
        }
    }
}
