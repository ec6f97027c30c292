//! Seeded violation: a contract-free `.expect(…)` in non-test lib code.
//! `marconi-check --self-test` must reject this file with an
//! `expect-message` finding.

pub fn victim_parent(parents: &[Option<u32>], victim: usize) -> u32 {
    // Should be `.expect("invariant: victims are non-root")`.
    parents[victim].expect("should not happen")
}

#[cfg(test)]
mod tests {
    #[test]
    fn bare_expect_in_tests_is_fine() {
        let v: Option<u32> = Some(1);
        let _ = v.expect("test data");
    }
}
