// Fixture: a comment shaped like a suppression marker. Exemptions are path
// scopes only, so R1 still fires on the sort below it.
pub fn legacy_sort(xs: &mut [f64]) {
    // lint: allow(nan-ordering, corpus fixture demonstrating the audit trail)
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}
