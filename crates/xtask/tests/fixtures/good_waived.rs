//! Fixture: the same violations, each carrying an audited waiver.

fn lookup(x: Option<u32>) -> u32 {
    x.expect("") // xtask-allow: RG001 fixture demonstrates a trailing waiver
}

// xtask-allow: RG004 fixture demonstrates a standalone waiver on the next line
fn float_eq(a: f64) -> bool { a == 0.5 }
