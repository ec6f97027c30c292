//! Counter-fixture: contract-clean lib code that `marconi-check
//! --self-test` must accept with zero findings — guarding against the
//! linter drifting trigger-happy (false positives would make the gate
//! unenforceable in practice).

use std::collections::BTreeMap;

/// Deterministic per-tenant report rows.
#[must_use]
pub struct ReportTicket {
    rows: Vec<(u64, u64)>,
}

pub fn tenant_rows(by_tenant: &BTreeMap<u64, u64>) -> ReportTicket {
    let mut rows = Vec::new();
    for (tenant, hits) in by_tenant {
        rows.push((*tenant, *hits));
    }
    ReportTicket { rows }
}

pub fn first_row(t: &ReportTicket) -> (u64, u64) {
    *t.rows.first().expect("invariant: reports have at least one row")
}

pub fn point_lookups_are_fine(index: &std::collections::HashMap<u64, u64>) -> Option<u64> {
    // get/insert/remove on a hash map are deterministic; only iteration
    // is banned.
    index.get(&1).copied()
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn tests_may_iterate_hash_maps_and_expect_freely() {
        let m: HashMap<u32, u32> = HashMap::from([(1, 2)]);
        let v: Option<u32> = m.values().next().copied();
        let _ = v.expect("test data");
    }
}
