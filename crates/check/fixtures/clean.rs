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

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_expect_freely() {
        let v: Option<u32> = Some(2);
        let _ = v.expect("test data");
    }
}
