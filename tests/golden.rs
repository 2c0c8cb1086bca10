//! Pinned campaign results: fixed-seed campaigns whose outcome is
//! written down, not compared with another run of the same build.
//!
//! The determinism suites prove a build agrees with itself (thread
//! counts, batch sizes, hub vs local). They cannot see a change that
//! moves the device's behaviour in every mode at once — a faster
//! teardown that forgets a `release` handler, a dispatch path that loses
//! a trace event. These campaigns can: each pins the execution count,
//! the device-wide and signal coverage, the crash titles, every fault
//! counter and the corpus size, so a change that alters what the
//! simulated device does fails here even when it is self-consistent.
//!
//! The values were recorded at commit 570f835 (before the touched-only
//! HAL teardown) and hold unchanged after it. Re-record them only in a
//! change that alters device or engine behaviour on purpose, and say so
//! in that change's notes.

use droidfuzz_repro::droidfuzz::baselines::syz;
use droidfuzz_repro::droidfuzz::{FuzzerConfig, FuzzingEngine};
use droidfuzz_repro::simdevice::catalog;
use droidfuzz_repro::simdevice::faults::FaultProfile;

/// Virtual hours every pinned campaign runs for.
const HOURS: f64 = 2.0;

/// The pinned outcome of one campaign.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    executions: u64,
    kernel_coverage: usize,
    total_signals: usize,
    crash_titles: Vec<String>,
    faults: [(&'static str, u64); 10],
    corpus_len: usize,
}

fn faults(values: [u64; 10]) -> [(&'static str, u64); 10] {
    let names = [
        "injected",
        "link_drops",
        "truncated_replies",
        "transient_retries",
        "gave_up",
        "hangs",
        "quarantined_programs",
        "device_lost",
        "reprovisions",
        "spontaneous_reboots",
    ];
    std::array::from_fn(|i| (names[i], values[i]))
}

fn titles(list: &[&str]) -> Vec<String> {
    list.iter().map(|t| (*t).to_owned()).collect()
}

fn run(mut engine: FuzzingEngine) -> Pinned {
    engine.run_for_virtual_hours(HOURS);
    let mut crash_titles: Vec<String> =
        engine.crash_db().records().iter().map(|r| r.title.clone()).collect();
    crash_titles.sort();
    Pinned {
        executions: engine.executions(),
        kernel_coverage: engine.kernel_coverage(),
        total_signals: engine.total_signals(),
        crash_titles,
        faults: engine.fault_counters().entries(),
        corpus_len: engine.corpus().len(),
    }
}

#[test]
fn a1_droidfuzz_reliable_is_pinned() {
    let got = run(FuzzingEngine::new(catalog::device_a1().boot(), FuzzerConfig::droidfuzz(1)));
    let want = Pinned {
        executions: 2009,
        kernel_coverage: 1150,
        total_signals: 984,
        crash_titles: titles(&["WARNING in rt1711_i2c_probe", "WARNING in tcpc_pr_swap"]),
        faults: faults([0; 10]),
        corpus_len: 427,
    };
    assert_eq!(got, want);
}

#[test]
fn e_droidfuzz_s_flaky_is_pinned() {
    let config = FuzzerConfig::droidfuzz_s(1).with_fault_profile(FaultProfile::Flaky);
    let got = run(FuzzingEngine::new(catalog::device_e().boot(), config));
    let want = Pinned {
        executions: 1666,
        kernel_coverage: 971,
        total_signals: 980,
        crash_titles: titles(&["WARNING in v4l_querycap"]),
        faults: faults([42, 8, 20, 15, 0, 6, 0, 7, 7, 1]),
        corpus_len: 401,
    };
    assert_eq!(got, want);
}

#[test]
fn b_syzkaller_is_pinned() {
    let got = run(syz::engine(catalog::device_b().boot(), 1));
    let want = Pinned {
        executions: 1591,
        kernel_coverage: 538,
        total_signals: 533,
        crash_titles: titles(&["WARNING in l2cap_send_disconn_req"]),
        faults: faults([0; 10]),
        corpus_len: 315,
    };
    assert_eq!(got, want);
}

/// C1 arms the camera HAL's capture-after-teardown crash (Table II #9);
/// seed 4 reaches it inside the budget, so the campaign crosses a dead
/// service, its crash report and the reboot that revives it.
#[test]
fn c1_droidfuzz_with_a_hal_crash_is_pinned() {
    let got = run(FuzzingEngine::new(catalog::device_c1().boot(), FuzzerConfig::droidfuzz(4)));
    let want = Pinned {
        executions: 2265,
        kernel_coverage: 978,
        total_signals: 899,
        crash_titles: titles(&["Native crash in Camera HAL (redacted)"]),
        faults: faults([0; 10]),
        corpus_len: 401,
    };
    assert_eq!(got, want);
}
