//! Fixture: every custom lint rule fires at a known line and column,
//! and the same code inside test items does not.

fn empty_expect(x: Option<u32>) -> u32 {
    x.expect("")
}

fn float_eq(a: f64) -> bool {
    a == 0.5
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        assert_eq!(Some(1).expect(""), 1);
        assert!(0.25 * 2.0 == 0.5);
    }
}
