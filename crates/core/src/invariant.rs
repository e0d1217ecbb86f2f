//! Debug-build runtime invariant gates.
//!
//! The paper's pipeline is a chain of floating-point optimizations (DP
//! partition potentials, edit distances, irregular rates), and a NaN or a
//! malformed span produced early poisons every later stage silently. The
//! checks here make the contracts explicit and *executable*: each is a
//! `debug_assert`-backed gate wired into the hot paths of [`crate::partition`],
//! [`crate::irregular`], [`crate::similarity`], and [`crate::select`]. Release
//! builds compile them out entirely, so the paper-scale experiments pay
//! nothing.
//!
//! The same properties are re-stated distributionally by the proptest suite
//! (`tests/prop_invariants.rs` at the workspace root); this module is the
//! always-on (in debug) single-input version.

use crate::partition::PartitionSpan;

/// Gate: `value` must be a finite float. `what` names the quantity in the
/// panic message (e.g. `"partition potential"`).
#[inline]
pub fn check_finite(what: &str, value: f64) {
    debug_assert!(value.is_finite(), "{what} must be finite, got {value}");
}

/// Gate: an irregular rate Γ_f must be finite and non-negative (Sec. V
/// defines it as a weighted mean of absolute deviations).
#[inline]
pub fn check_irregular_rate(what: &str, gamma: f64) {
    debug_assert!(
        gamma.is_finite() && gamma >= 0.0,
        "irregular rate {what} must be finite and >= 0, got {gamma}"
    );
}

/// Gate: a similarity must lie in `[0, 1]` (Eq. (3) maps cosine through
/// `½(cos + 1)`).
#[inline]
pub fn check_similarity(s: f64) {
    debug_assert!(
        s.is_finite() && (-1e-12..=1.0 + 1e-12).contains(&s),
        "similarity must lie in [0, 1], got {s}"
    );
}

/// Gate: partition spans must be non-empty, contiguous, and exactly cover
/// `[0, n_segs)` (Definition 6: a partition is an ordered, gap-free split of
/// the segment sequence).
#[inline]
pub fn check_spans_cover(spans: &[PartitionSpan], n_segs: usize) {
    #[cfg(debug_assertions)]
    {
        if n_segs == 0 {
            debug_assert!(spans.is_empty(), "zero segments admit only the empty partition");
            return;
        }
        debug_assert!(!spans.is_empty(), "{n_segs} segments need at least one span");
        let mut expected_start = 0usize;
        for s in spans {
            debug_assert_eq!(
                s.seg_start, expected_start,
                "spans must be contiguous: expected start {expected_start}, got {s:?}"
            );
            debug_assert!(s.seg_end >= s.seg_start, "span must be non-empty: {s:?}");
            expected_start = s.seg_end + 1;
        }
        debug_assert_eq!(
            expected_start,
            n_segs,
            "spans must cover [0, {n_segs}), last ended at {}",
            expected_start.saturating_sub(1)
        );
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (spans, n_segs);
    }
}

/// Gate: the k-constrained DP optimum can never beat the unconstrained
/// optimum (monotonicity of the relaxation): `potential_k >= potential_free`
/// up to float slack. Both must be finite.
#[inline]
pub fn check_k_potential_dominates(potential_k: f64, potential_free: f64) {
    check_finite("k-constrained partition potential", potential_k);
    check_finite("unconstrained partition potential", potential_free);
    debug_assert!(
        potential_k >= potential_free - 1e-9,
        "k-constrained potential {potential_k} beats the unconstrained optimum \
         {potential_free}: the DP is inconsistent"
    );
}

/// Gate: feature edit distance bounds (Sec. V-A). With insert/delete cost 1
/// the distance is at least the length difference; substitutions cost at most
/// 2 for normalized numeric values and 1 for categorical codes, so `m + n`
/// bounds it above in every case.
#[inline]
pub fn check_edit_distance_bounds(d: f64, m: usize, n: usize) {
    #[cfg(debug_assertions)]
    {
        let diff = m.abs_diff(n) as f64; // cast-ok: sequence lengths are small
        let total = (m + n) as f64; // cast-ok: sequence lengths are small
        debug_assert!(
            d.is_finite() && d >= diff - 1e-9 && d <= total + 1e-9,
            "edit distance {d} violates bounds [|{m}-{n}|, {m}+{n}]"
        );
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (d, m, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(a: usize, b: usize) -> PartitionSpan {
        PartitionSpan { seg_start: a, seg_end: b }
    }

    #[test]
    fn accepts_valid_inputs() {
        check_finite("x", 1.5);
        check_irregular_rate("gamma", 0.0);
        check_similarity(1.0);
        check_spans_cover(&[span(0, 2), span(3, 3)], 4);
        check_spans_cover(&[], 0);
        check_k_potential_dominates(-1.0, -2.0);
        check_edit_distance_bounds(2.0, 3, 5);
    }

    // The gates are `debug_assert!`s, compiled out of release builds, so
    // the tests that expect them to fire run only where they exist.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must be finite")]
    fn rejects_nan_potential() {
        check_finite("partition potential", f64::NAN);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "finite and >= 0")]
    fn rejects_negative_rate() {
        check_irregular_rate("gamma", -0.25);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "contiguous")]
    fn rejects_gapped_spans() {
        check_spans_cover(&[span(0, 1), span(3, 4)], 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cover")]
    fn rejects_short_cover() {
        check_spans_cover(&[span(0, 1)], 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "DP is inconsistent")]
    fn rejects_k_beating_unconstrained() {
        check_k_potential_dominates(-5.0, -1.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "violates bounds")]
    fn rejects_edit_distance_below_length_gap() {
        check_edit_distance_bounds(0.5, 1, 5);
    }
}
