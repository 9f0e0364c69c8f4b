//! Certifying a 100,000-operation history end to end.
//!
//! The paper's checkable guarantee only matters if certification keeps up
//! with real runs, which are orders of magnitude past the 128-op exact
//! search frontier. This example drives a long Spanner-RSS simulation to
//! roughly 100k operations, certifies the recorded history against its
//! serialization witness through the *streaming* checker (windowed checking,
//! fed in completion order), and prints the certification throughput
//! alongside the component structure.
//!
//! It then repeats the exercise on a synthetic 8-group history, showing the
//! three witness checkers (batch, sharded on 2 threads, streaming) agree.
//!
//! Run with: `cargo run --release --example large_history_certify`

use std::time::Instant;

use regular_seq::core::checker::certificate::WitnessModel;
use regular_seq::core::{check_witness, check_witness_parallel, ComponentSplit, HistoryIndex};
use regular_seq::sweep::{certify_streaming, run_seed_with, synthetic_history, Scenario};

fn main() {
    // A long Spanner-RSS run: ~100k operations of simulated WAN traffic,
    // certified RSS through the windowed streaming checker.
    let run = run_seed_with(Scenario::parse("spanner-rss").unwrap(), 1, 1, Some(100_000), true);
    assert!(run.report.certified, "spanner-rss must certify: {:?}", run.report.violation);
    let certify_ops_per_sec = run.report.history_ops as f64 / (run.report.cert_ms / 1_000.0);
    println!("spanner-rss seed 1, scaled to a ~100k-op run:");
    println!("  history operations   {}", run.report.history_ops);
    println!("  certified            {} (streamed)", run.report.certified);
    println!(
        "  certification        {:.1} ms ({:.0} ops/sec)",
        run.report.cert_ms, certify_ops_per_sec
    );
    println!("  components           {}", run.report.components);
    println!("  peak reorder window  {} ops", run.report.peak_window);

    // A synthetic history with real component structure: 8 disjoint
    // process/key groups. All three witness checkers agree.
    let (history, witness) = synthetic_history(100_000, 8);
    let components = ComponentSplit::split(&history).len();

    let started = Instant::now();
    check_witness(&history, &witness, WitnessModel::Regular).expect("batch certifies");
    let batch_ms = started.elapsed().as_secs_f64() * 1_000.0;

    let started = Instant::now();
    let index = HistoryIndex::new(&history);
    check_witness_parallel(&history, &index, &witness, WitnessModel::Regular, 2)
        .expect("sharded certifies");
    let sharded_ms = started.elapsed().as_secs_f64() * 1_000.0;

    let started = Instant::now();
    let stats =
        certify_streaming(&history, &witness, WitnessModel::Regular).expect("streaming certifies");
    let streaming_ms = started.elapsed().as_secs_f64() * 1_000.0;

    println!("\nsynthetic 100k-op history, {components} components:");
    println!("  batch check          {batch_ms:.1} ms");
    println!("  sharded check        {sharded_ms:.1} ms (2 threads, index included)");
    println!("  streaming check      {streaming_ms:.1} ms (peak window {})", stats.peak_window);
    println!("\nall three witness checkers accept the same witness");
}
