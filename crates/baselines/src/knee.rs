//! Knee detection on rank-ordered anomaly sizes.
//!
//! The paper (Section 6.2) observes "a sharp knee in the rank-ordered
//! plot of anomaly sizes" and chooses "the anomalies that stand out to
//! the left of the knee as the important set to detect". This module
//! finds that knee with the maximum-distance-to-chord criterion: draw the
//! chord from the largest to the smallest plotted size and take the rank
//! with the greatest perpendicular distance below it.

/// Index of the knee in a descending rank-size curve (the first rank
/// *after* the "standout" set), found by maximum distance to the chord.
///
/// Returns `None` for fewer than 3 points (no interior point to be a
/// knee), a flat curve, or degenerate input: anomaly sizes are
/// magnitudes, so any non-finite or negative entry means the curve is
/// not a rank-size curve at all — a NaN would otherwise compare `false`
/// everywhere and silently skew the chord search toward whatever points
/// happened to be evaluated against it.
pub fn knee_index(sizes_desc: &[f64]) -> Option<usize> {
    let n = sizes_desc.len();
    if n < 3 {
        return None;
    }
    if sizes_desc.iter().any(|s| !s.is_finite() || *s < 0.0) {
        return None;
    }
    let x0 = 0.0;
    let y0 = sizes_desc[0];
    let x1 = (n - 1) as f64;
    let y1 = sizes_desc[n - 1];
    if (y0 - y1).abs() <= f64::EPSILON * y0.abs().max(1.0) {
        return None; // flat: no knee
    }
    // Distance from point (i, s_i) to the chord.
    let dx = x1 - x0;
    let dy = y1 - y0;
    let norm = (dx * dx + dy * dy).sqrt();
    let mut best: Option<(usize, f64)> = None;
    for (i, &s) in sizes_desc.iter().enumerate().take(n - 1).skip(1) {
        let cross = dy * (i as f64 - x0) - dx * (s - y0);
        let dist = cross.abs() / norm;
        // Only count points *below* the chord (concave-up knees): with
        // dx > 0, a point below the chord has dx·(s − chord) < 0, i.e.
        // cross > 0.
        if cross <= 0.0 {
            continue;
        }
        match best {
            Some((_, d)) if d >= dist => {}
            _ => best = Some((i, dist)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharp_knee_is_found() {
        // 5 standouts, then a flat mass.
        let mut sizes = vec![100.0, 90.0, 80.0, 70.0, 60.0];
        sizes.extend(std::iter::repeat_n(10.0, 30));
        let idx = knee_index(&sizes).unwrap();
        assert!(
            (4..=6).contains(&idx),
            "knee at {idx}, expected near rank 5"
        );
    }

    #[test]
    fn paper_like_pareto_curve() {
        // Heavy-tailed sizes: a handful of standouts above ~2e7.
        let sizes: Vec<f64> = (1..=40).map(|i| 4.0e7 / (i as f64).powf(1.2)).collect();
        let idx = knee_index(&sizes).unwrap();
        assert!((2..=12).contains(&idx), "knee at {idx}");
    }

    #[test]
    fn flat_curve_has_no_knee() {
        assert_eq!(knee_index(&[5.0; 20]), None);
    }

    #[test]
    fn too_short_input() {
        assert_eq!(knee_index(&[]), None);
        assert_eq!(knee_index(&[1.0]), None);
        assert_eq!(knee_index(&[2.0, 1.0]), None);
    }

    #[test]
    fn non_finite_sizes_yield_no_knee() {
        // A NaN anywhere (ends or interior) poisons the chord search.
        let mut sizes = vec![100.0, 90.0, 80.0, 70.0, 60.0];
        sizes.extend(std::iter::repeat_n(10.0, 30));
        assert!(knee_index(&sizes).is_some(), "clean curve has a knee");
        for poison in [0usize, 3, sizes.len() - 1] {
            let mut bad = sizes.clone();
            bad[poison] = f64::NAN;
            assert_eq!(knee_index(&bad), None, "NaN at rank {poison}");
        }
        let mut inf = sizes.clone();
        inf[0] = f64::INFINITY;
        assert_eq!(knee_index(&inf), None);
    }

    #[test]
    fn negative_sizes_yield_no_knee() {
        let mut sizes = vec![100.0, 90.0, 80.0];
        sizes.extend(std::iter::repeat_n(10.0, 20));
        sizes.push(-5.0);
        assert_eq!(knee_index(&sizes), None);
    }

    #[test]
    fn all_equal_input_has_no_knee() {
        assert_eq!(knee_index(&[7.5; 40]), None);
        // Zero is an allowed (non-negative) size; all-zero is flat.
        assert_eq!(knee_index(&[0.0; 10]), None);
    }

    #[test]
    fn linear_decline_has_no_interior_below_chord() {
        let sizes: Vec<f64> = (0..20).map(|i| 100.0 - 5.0 * i as f64).collect();
        // Every interior point lies exactly on the chord; none strictly
        // below it.
        assert_eq!(knee_index(&sizes), None);
    }

    #[test]
    fn convex_bulge_above_chord_is_not_a_knee() {
        // Concave-down curve (slow start, fast drop at the end): points
        // sit above the chord, so there is no knee of the kind the paper
        // uses.
        let sizes: Vec<f64> = (0..30)
            .map(|i| 100.0 * (1.0 - (i as f64 / 29.0).powi(4)))
            .collect();
        assert_eq!(knee_index(&sizes), None);
    }
}
