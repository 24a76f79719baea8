//! End-to-end integration: simulate a campaign, run the full
//! three-step pipeline, and check the product is coherent.

// Test fixtures: panicking on a broken fixture is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use thermal_core::timeseries::{split, Mask};
use thermal_core::{
    ClusterCount, EvalConfig, FitConfig, GramCache, ModelOrder, ModelSpec, SelectorKind,
    Similarity, ThermalPipeline,
};
use thermal_sim::{run, Scenario};
use thermal_sysid::{evaluate, identify};

fn campaign() -> thermal_sim::SimOutput {
    run(&Scenario::quick().with_days(14).with_seed(101)).expect("simulation runs")
}

#[test]
fn pipeline_produces_usable_reduced_model() {
    let output = campaign();
    let dataset = &output.dataset;
    let occupied = Mask::daily_window(dataset.grid(), 6 * 60, 21 * 60).unwrap();

    let temps = output.temperature_channels();
    let refs: Vec<&str> = temps.iter().map(String::as_str).collect();
    let inputs = output.input_channels();
    let input_refs: Vec<&str> = inputs.iter().map(String::as_str).collect();

    let pipeline = ThermalPipeline::builder()
        .similarity(Similarity::correlation())
        .cluster_count(ClusterCount::Fixed(2))
        .selector(SelectorKind::NearMean)
        .model_order(ModelOrder::Second)
        .build()
        .unwrap();
    let reduced = pipeline
        .fit(dataset, &refs, &input_refs, &occupied)
        .unwrap();

    // Structure: 2 clusters, one representative each, a model over
    // exactly those representatives.
    assert_eq!(reduced.clustering().k(), 2);
    assert_eq!(reduced.selected_channels().len(), 2);
    assert_eq!(reduced.model().spec().outputs, reduced.selected_channels());
    assert!(reduced.model().coefficients().is_finite());

    // The reduced model must track cluster means within a degree or
    // so over a 3-hour horizon on training-period data.
    let report = reduced
        .evaluate_cluster_means(dataset, &occupied, 36)
        .unwrap();
    assert!(report.segments_used() > 3);
    let p99 = report.percentile(99.0).unwrap();
    assert!(
        p99 < 1.5,
        "99th-percentile cluster-mean error too large: {p99}"
    );
}

/// Largest relative coefficient difference allowed between
/// `fit_with_cache` and `fit`. Measured: 1.1e-9 on this campaign,
/// at most 1.2e-8 over eight other seeds, 3.6e-8 on the 98-day paper
/// campaign; the bound leaves more than an order of magnitude.
const MAX_CACHE_REL_DIFF: f64 = 1e-6;

/// The cached path sums the normal equations segment by segment and
/// `fit` over all rows at once, so only the last bits may differ.
#[test]
fn cached_fit_matches_plain_fit() {
    let output = campaign();
    let dataset = &output.dataset;
    let occupied = Mask::daily_window(dataset.grid(), 6 * 60, 21 * 60).unwrap();
    let temps = output.temperature_channels();
    let refs: Vec<&str> = temps.iter().map(String::as_str).collect();
    let inputs = output.input_channels();
    let input_refs: Vec<&str> = inputs.iter().map(String::as_str).collect();

    let pipeline = ThermalPipeline::builder().build().unwrap();
    let plain = pipeline
        .fit(dataset, &refs, &input_refs, &occupied)
        .unwrap();
    let mut cache = GramCache::new();
    let cached = pipeline
        .fit_with_cache(dataset, &refs, &input_refs, &occupied, &mut cache)
        .unwrap();

    assert_eq!(
        plain.clustering().assignments(),
        cached.clustering().assignments()
    );
    assert_eq!(plain.selected_channels(), cached.selected_channels());
    let (a, b) = (plain.model().coefficients(), cached.model().coefficients());
    assert_eq!(a.shape(), b.shape());
    let rel_diff = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(f64::MIN_POSITIVE))
        .fold(0.0, f64::max);
    assert!(
        rel_diff <= MAX_CACHE_REL_DIFF,
        "cached coefficients differ by {rel_diff:e}"
    );
}

#[test]
fn clusters_are_geographically_coherent() {
    let output = campaign();
    let dataset = &output.dataset;
    let occupied = Mask::daily_window(dataset.grid(), 6 * 60, 21 * 60).unwrap();
    let temps = output.wireless_channels();
    let refs: Vec<&str> = temps.iter().map(String::as_str).collect();

    let pipeline = ThermalPipeline::builder()
        .similarity(Similarity::correlation())
        .cluster_count(ClusterCount::Fixed(2))
        .build()
        .unwrap();
    let reduced = pipeline
        .fit(dataset, &refs, &["vav1", "occupancy"], &occupied)
        .unwrap();

    // The paper's front group should overwhelmingly share a cluster.
    let front = [
        "t03", "t06", "t07", "t08", "t13", "t14", "t17", "t23", "t28", "t33", "t38",
    ];
    let assignments = reduced.clustering().assignments();
    let front_labels: Vec<usize> = refs
        .iter()
        .enumerate()
        .filter(|(_, n)| front.contains(n))
        .map(|(i, _)| assignments[i])
        .collect();
    let zeros = front_labels.iter().filter(|&&l| l == 0).count();
    let majority = zeros.max(front_labels.len() - zeros);
    assert!(
        majority as f64 >= 0.8 * front_labels.len() as f64,
        "front sensors scattered across clusters: {front_labels:?}"
    );
}

#[test]
fn dense_models_beat_horizon_free_baseline() {
    // The identified dense model must clearly outperform a "hold the
    // last measurement" persistence baseline over long horizons.
    //
    // Uses a 28-day campaign rather than the shared 14-day one: the
    // half split leaves only ~7 training days at 14 days, which makes
    // the fitted-vs-persistence margin flip sign for some RNG seeds.
    // With 28 days the margin is positive across every seed tried.
    let output = run(&Scenario::quick().with_days(28).with_seed(101)).expect("simulation runs");
    let dataset = &output.dataset;
    let grid = dataset.grid();
    let temps = output.temperature_channels();
    let inputs = output.input_channels();
    let temp_idx: Vec<usize> = temps
        .iter()
        .map(|n| dataset.channel_index(n).unwrap())
        .collect();
    let usable = dataset.usable_days(&temp_idx, 0.5).unwrap();
    let halves = split::halves(&usable).unwrap();
    let occupied = Mask::daily_window(grid, 6 * 60, 21 * 60).unwrap();
    let train = Mask::days(grid, &halves.train).and(&occupied).unwrap();
    let val = Mask::days(grid, &halves.validation).and(&occupied).unwrap();

    let horizon = 12 * 6; // 6 hours
    let rms_of = |model: &thermal_core::ThermalModel| -> f64 {
        evaluate(model, dataset, &val, &EvalConfig::with_horizon(horizon))
            .unwrap()
            .overall_rms()
    };

    let spec = ModelSpec::new(temps.clone(), inputs.clone(), ModelOrder::First).unwrap();
    let fitted = identify(dataset, &spec, &train, &FitConfig::default()).unwrap();
    let fitted_rms = rms_of(&fitted);

    // Persistence baseline: A = I, B = 0 ("temperature never changes").
    let p = temps.len();
    let coef =
        thermal_linalg::Matrix::from_fn(p, p + inputs.len(), |r, c| if r == c { 1.0 } else { 0.0 });
    let persistence = thermal_core::ThermalModel::new(spec, coef).unwrap();
    let persistence_rms = rms_of(&persistence);

    assert!(
        fitted_rms < persistence_rms,
        "identified model ({fitted_rms}) should beat persistence ({persistence_rms})"
    );
}
