//! Property-based tests for pal-stats: the statistical primitives must
//! satisfy their defining mathematical identities on arbitrary inputs.

use pal_stats::{geomean, mean, median, percentile, BoxplotStats, EmpiricalCdf, StepSeries};
use proptest::prelude::*;

fn finite_sample() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6f64..1e6, 1..200)
}

fn positive_sample() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1e-3f64..1e6, 1..200)
}

proptest! {
    #[test]
    fn mean_within_min_max(xs in finite_sample()) {
        let m = mean(&xs).unwrap();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn geomean_between_min_and_max_and_below_mean(xs in positive_sample()) {
        let g = geomean(&xs).unwrap();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(g >= lo * (1.0 - 1e-9));
        prop_assert!(g <= hi * (1.0 + 1e-9));
        prop_assert!(g <= mean(&xs).unwrap() * (1.0 + 1e-9), "AM-GM violated");
    }

    #[test]
    fn geomean_scale_equivariance(xs in positive_sample(), c in 0.1f64..100.0) {
        let g = geomean(&xs).unwrap();
        let scaled: Vec<f64> = xs.iter().map(|&x| x * c).collect();
        let gs = geomean(&scaled).unwrap();
        prop_assert!((gs / (g * c) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_monotone_and_bounded(xs in finite_sample(), p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
        let (lo_p, hi_p) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = percentile(&xs, lo_p).unwrap();
        let b = percentile(&xs, hi_p).unwrap();
        prop_assert!(a <= b + 1e-9);
        prop_assert!(percentile(&xs, 0.0).unwrap() == xs.iter().cloned().fold(f64::INFINITY, f64::min));
        prop_assert!(percentile(&xs, 100.0).unwrap() == xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }

    #[test]
    fn median_matches_percentile_50(xs in finite_sample()) {
        prop_assert_eq!(median(&xs), percentile(&xs, 50.0));
    }

    #[test]
    fn cdf_monotone_and_normalized(xs in finite_sample(), q in 0.0f64..=1.0) {
        let cdf = EmpiricalCdf::new(&xs).unwrap();
        let v = cdf.quantile(q);
        // Fraction at or below the q-quantile must be >= q.
        prop_assert!(cdf.eval(v) + 1e-12 >= q);
        // eval is within [0,1] and hits 1 at max.
        prop_assert!(cdf.eval(f64::INFINITY) == 1.0);
        prop_assert!(cdf.eval(f64::NEG_INFINITY) == 0.0);
    }

    #[test]
    fn cdf_eval_monotone(xs in finite_sample(), a in -1e6f64..1e6, b in -1e6f64..1e6) {
        let cdf = EmpiricalCdf::new(&xs).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(cdf.eval(lo) <= cdf.eval(hi));
    }

    #[test]
    fn ks_distance_is_a_metric_on_samples(
        xs in finite_sample(),
        ys in finite_sample(),
    ) {
        let a = EmpiricalCdf::new(&xs).unwrap();
        let b = EmpiricalCdf::new(&ys).unwrap();
        let d = a.ks_distance(&b);
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert!((d - b.ks_distance(&a)).abs() < 1e-12, "symmetry");
        prop_assert!(a.ks_distance(&a) == 0.0, "identity");
    }

    #[test]
    fn boxplot_ordering_invariants(xs in finite_sample()) {
        let b = BoxplotStats::of(&xs).unwrap();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Quartiles are ordered; whiskers are real samples within the data
        // range and ordered with respect to each other. (Note: with
        // interpolated quartiles on tiny samples a whisker can land inside
        // the box — matplotlib draws exactly that — so whisker_lo <= q1 is
        // NOT an invariant.)
        prop_assert!(b.q1 <= b.median && b.median <= b.q3);
        prop_assert!(b.whisker_lo <= b.whisker_hi);
        prop_assert!(b.whisker_lo >= lo && b.whisker_hi <= hi);
        prop_assert!(xs.contains(&b.whisker_lo) && xs.contains(&b.whisker_hi));
        // Outliers lie strictly outside the Tukey fences.
        let iqr = b.q3 - b.q1;
        for o in &b.outliers {
            prop_assert!(*o < b.q1 - 1.5 * iqr || *o > b.q3 + 1.5 * iqr);
        }
    }

    #[test]
    fn step_series_integral_additive(
        breaks in proptest::collection::vec((0.0f64..1000.0, -50.0f64..50.0), 0..20),
        mid in 0.0f64..1000.0,
    ) {
        let mut sorted = breaks.clone();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut s = StepSeries::new(1.0);
        for (t, v) in sorted {
            s.push(t, v);
        }
        let whole = s.integral(0.0, 1000.0);
        let parts = s.integral(0.0, mid) + s.integral(mid, 1000.0);
        prop_assert!((whole - parts).abs() < 1e-6 * (1.0 + whole.abs()));
    }

    #[test]
    fn step_series_average_bounded(
        vals in proptest::collection::vec(0.0f64..100.0, 1..20),
    ) {
        let mut s = StepSeries::new(vals[0]);
        for (i, &v) in vals.iter().enumerate() {
            s.push(i as f64 * 10.0, v);
        }
        let span = vals.len() as f64 * 10.0;
        let avg = s.average(0.0, span);
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9);
    }
}
