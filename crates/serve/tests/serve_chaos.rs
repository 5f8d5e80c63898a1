//! Chaos-drill integration: the scripted storm (worker kills mid-job,
//! transient faults, stalls, cancellation, 4× overload) must degrade
//! gracefully — every job resolves success-or-typed-error within its
//! deadline — and the deterministic half of the verdict must replay
//! byte-identically under the same seed.

use scaledeep_serve::{run_drill, DrillConfig};
use std::time::{Duration, Instant};

#[test]
fn chaos_drill_degrades_gracefully_and_replays_per_seed() {
    let cfg = DrillConfig {
        seed: 42,
        ..DrillConfig::default()
    };
    let started = Instant::now();
    let first = run_drill(&cfg);

    // Graceful degradation: all drill invariants hold (zero shed at
    // nominal, exact typed sheds at overload, kills recovered, stalls
    // deadline-bounded, one pipeline run per distinct compile).
    assert_eq!(
        first.invariants(),
        Vec::<String>::new(),
        "{}",
        first.render()
    );

    // No job hangs: every submission resolved with a typed outcome.
    let totals = first.totals();
    assert_eq!(totals.resolved(), totals.submitted);
    assert!(totals.submitted > 40, "the storm must be a storm");

    // Workers were killed mid-job and the pool healed.
    assert_eq!(first.worker_restarts, 3);

    // Singleflight ledger: the dedup pile-up cost one pipeline run; the
    // lead/wait split is interleaving-dependent but leads are bounded by
    // the distinct compile keys that went through the deduped path.
    let (leads, waits) = first.singleflight;
    assert!(leads >= 1, "at least the dedup-phase flight led");
    assert_eq!(
        first.cache.misses, 4,
        "one pipeline run per distinct compile"
    );
    let _ = waits; // informational only: may be 0 if workers never overlap

    // Bounded wall clock: stalls and backoffs are milliseconds, not the
    // 60 s default deadline — nothing waited a deadline out except the
    // stuck phase's intentional 60 ms ones.
    assert!(
        started.elapsed() < Duration::from_secs(120),
        "drill must not hang"
    );

    // Same seed, same deterministic verdict — including the per-job
    // retry/backoff schedules.
    let second = run_drill(&cfg);
    assert_eq!(
        first.deterministic_summary(),
        second.deterministic_summary()
    );
    assert_eq!(first.schedules, second.schedules);
}

#[test]
fn drill_bench_json_is_versioned_and_seed_stable() {
    let cfg = DrillConfig {
        seed: 7,
        ..DrillConfig::default()
    };
    let report = run_drill(&cfg);
    assert_eq!(
        report.invariants(),
        Vec::<String>::new(),
        "{}",
        report.render()
    );
    let json = report.to_bench_json();
    let parsed = scaledeep_trace::json::parse(&json).expect("bench JSON parses");
    assert_eq!(
        parsed.get("schema_version").and_then(|v| v.as_num()),
        Some(scaledeep_serve::DRILL_SCHEMA_VERSION as f64)
    );
    let jobs = parsed.get("jobs").expect("deterministic jobs group");
    assert_eq!(
        jobs.get("worker_restarts").and_then(|v| v.as_num()),
        Some(3.0)
    );
    assert_eq!(jobs.get("cache_misses").and_then(|v| v.as_num()), Some(4.0));
    assert!(parsed.get("wall").is_some(), "informational wall group");
}
