//! Reproducibility: every generator and every algorithm is a deterministic function of
//! its seed, so recorded experiment tables can be regenerated exactly.

use few_state_changes::algorithms::{FewStateHeavyHitters, FpEstimator, Params};
use few_state_changes::baselines::CountSketch;
use few_state_changes::state::{FrequencyEstimator, MomentEstimator, StreamAlgorithm};
use few_state_changes::streamgen::blocks::counterexample_stream;
use few_state_changes::streamgen::lower_bound::moment_lower_bound_pair;
use few_state_changes::streamgen::netflow::{flow_trace, FlowTraceSpec};
use few_state_changes::streamgen::zipf::zipf_stream;

#[test]
fn generators_are_pure_functions_of_their_seeds() {
    assert_eq!(
        zipf_stream(512, 2_000, 1.1, 9),
        zipf_stream(512, 2_000, 1.1, 9)
    );
    assert_eq!(
        counterexample_stream(8).stream,
        counterexample_stream(8).stream
    );
    let a = moment_lower_bound_pair(1024, 2.0, 4);
    let b = moment_lower_bound_pair(1024, 2.0, 4);
    assert_eq!(a.s1, b.s1);
    assert_eq!(a.planted_item, b.planted_item);
    let spec = FlowTraceSpec::default();
    assert_eq!(flow_trace(&spec).packets, flow_trace(&spec).packets);
}

#[test]
fn algorithms_with_equal_seeds_produce_identical_summaries() {
    let n = 1 << 11;
    let m = 4 * n;
    let stream = zipf_stream(n, m, 1.2, 3);

    let run_hh = || {
        let mut alg = FewStateHeavyHitters::new(Params::new(2.0, 0.2, n, m).with_seed(77));
        alg.process_stream(&stream);
        (
            alg.tracked_items(),
            alg.report().state_changes,
            alg.rough_fp().to_bits(),
        )
    };
    assert_eq!(run_hh(), run_hh());

    let run_fp = || {
        let mut alg = FpEstimator::new(Params::new(2.0, 0.25, n, m).with_seed(11));
        alg.process_stream(&stream);
        (alg.estimate_moment().to_bits(), alg.report().state_changes)
    };
    assert_eq!(run_fp(), run_fp());

    let run_cs = || {
        let mut alg = CountSketch::for_error(0.1, 0.05, 13);
        alg.process_stream(&stream);
        (0..32u64)
            .map(|i| alg.estimate(i).to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(run_cs(), run_cs());
}

#[test]
fn sharded_engine_runs_are_deterministic() {
    use few_state_changes::baselines::MisraGries;
    use few_state_changes::engine::{Engine, EngineConfig};

    // A sharded run is a deterministic function of (stream, shards): running it
    // twice produces identical merged summaries and identical accounting.
    let stream = zipf_stream(1 << 11, 8_192, 1.2, 3);
    let run_once = || {
        let mut engine = Engine::new(EngineConfig::default(), |_| MisraGries::new(32));
        engine.ingest(&stream);
        let merged = engine.merged_summary().unwrap();
        let mut items = merged.tracked_items();
        items.sort_unstable();
        let estimates: Vec<u64> = items
            .iter()
            .map(|&i| merged.estimate(i).to_bits())
            .collect();
        let report = engine.report();
        (items, estimates, report.state_changes, report.epochs)
    };
    let (items, estimates, state_changes, epochs) = run_once();
    assert!(!items.is_empty());
    assert_eq!(epochs, stream.len() as u64);
    assert_eq!(run_once(), (items, estimates, state_changes, epochs));
}

#[test]
fn different_seeds_actually_change_the_randomness() {
    let n = 1 << 11;
    let m = 2 * n;
    let stream = zipf_stream(n, m, 1.2, 3);
    let mut a = FpEstimator::new(Params::new(2.0, 0.25, n, m).with_seed(1));
    let mut b = FpEstimator::new(Params::new(2.0, 0.25, n, m).with_seed(2));
    a.process_stream(&stream);
    b.process_stream(&stream);
    assert_ne!(
        a.report().state_changes,
        b.report().state_changes,
        "different seeds should sample different positions"
    );
}
