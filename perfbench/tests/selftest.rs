//! The checks behind `error_rate` must fire: a deliberately wrong
//! expectation makes problems fail, on the untraced and the traced path.

use orthotrees_perfbench::run_loop;
use orthotrees_perfbench::trace::Tracer;
use orthotrees_perfbench::workloads::{EngineCheckpoint, OtcObserved, OtnSort, Workload};
use std::time::Duration;

/// Error rate over two rounds of the workload's pool.
fn error_rate(wl: &mut dyn Workload, traced: bool) -> f64 {
    let mut tr = if traced { Tracer::on() } else { Tracer::off() };
    run_loop(wl, Duration::ZERO, 2, &mut tr).error_rate()
}

#[test]
fn a_wrong_sorted_output_raises_error_rate() {
    let mut wl = OtnSort::setup(16, 7, 2).expect("set-up");
    assert_eq!(error_rate(&mut wl, false), 0.0);
    assert_eq!(error_rate(&mut wl, true), 0.0);
    wl.expected[1].sorted[0] += 1;
    assert_eq!(error_rate(&mut wl, false), 0.5);
    assert_eq!(error_rate(&mut wl, true), 0.5);
}

#[test]
fn a_wrong_fault_count_raises_error_rate() {
    let mut wl = OtcObserved::setup(64, 7, 2).expect("set-up");
    assert_eq!(error_rate(&mut wl, false), 0.0);
    assert_eq!(error_rate(&mut wl, true), 0.0);
    wl.expected[0].1.retries += 1;
    assert_eq!(error_rate(&mut wl, false), 0.5);
    assert_eq!(error_rate(&mut wl, true), 0.5);
}

#[test]
fn a_wrong_engine_end_time_raises_error_rate() {
    let mut wl = EngineCheckpoint::setup(16, 7, 1).expect("set-up");
    assert_eq!(error_rate(&mut wl, false), 0.0);
    assert_eq!(error_rate(&mut wl, true), 0.0);
    wl.expected[0].end += 1;
    assert_eq!(error_rate(&mut wl, false), 1.0);
    assert_eq!(error_rate(&mut wl, true), 1.0);
}
