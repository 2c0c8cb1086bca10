//! Allocation budgets of the engine's hot paths: relational payload
//! generation (§IV-C) and one supervised execution on the device.
//!
//! Producer insertion borrows call descriptions from the table, reads
//! producers from the table's index and counts reusable producers instead
//! of collecting them, so generating a payload allocates only the payload
//! itself: the call list and each call's argument values. This binary
//! installs a counting global allocator (an integration test is a binary
//! of its own, so no other test shares it) and holds
//! `relational_generate` on device A1 to a fixed number of allocations per
//! generated call — a bound that does not grow with the table or with a
//! call's resource arguments, where cloning descriptions and collecting
//! candidate lists did. A supervised execution is held to a budget per
//! program call in the same way: the device tears down only the HAL
//! services the program reached and dispatches syscalls without cloning
//! the open file, the driver name or the node path.

use droidfuzz_repro::droidfuzz::exec::Broker;
use droidfuzz_repro::droidfuzz::generate::{random_generate, relational_generate};
use droidfuzz_repro::droidfuzz::relation::RelationGraph;
use droidfuzz_repro::droidfuzz::{FuzzerConfig, FuzzingEngine, Supervisor, SupervisorConfig};
use droidfuzz_repro::fuzzlang::prog::{ArgValue, Prog};
use droidfuzz_repro::simdevice::catalog;
use droidfuzz_repro::simdevice::faults::{FaultPlan, FaultProfile};
use droidfuzz_repro::simdevice::AdbLink;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations (and reallocations) made by the current thread
/// while counting is switched on; the test harness's other threads are
/// never counted.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn record() {
    if COUNTING.get() {
        ALLOCS.set(ALLOCS.get() + 1);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping touches
// only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.set(0);
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    (out, ALLOCS.get())
}

/// The allocations a program's own storage needs: its call list and every
/// non-empty argument list, byte buffer and string.
fn own_allocs(prog: &Prog) -> u64 {
    let values = prog.calls.iter().flat_map(|c| &c.args).filter(|v| match v {
        ArgValue::Bytes(b) => !b.is_empty(),
        ArgValue::Str(s) => !s.is_empty(),
        _ => false,
    });
    let arg_lists = prog.calls.iter().filter(|c| !c.args.is_empty());
    u64::from(!prog.calls.is_empty()) + (arg_lists.count() + values.count()) as u64
}

/// Call budget per generated program (the engine's default).
const MAX_CALLS: usize = 16;

/// Programs generated per measurement.
const PROGS: usize = 2_000;

/// Allocations per generated call, all told. Measured at 0.77 on A1 with
/// seed 1 (the earlier description-cloning generator made 19.7); the
/// bound leaves 2.6x headroom.
const ALLOCS_PER_CALL: f64 = 2.0;

/// Allocations per generated call beyond the program's own storage: the
/// call list's doubling growth and argument values built for a call whose
/// producer chain then failed. Measured at 0.135; the bound leaves 3.7x
/// headroom.
const OVERHEAD_PER_CALL: f64 = 0.5;

#[test]
fn relational_generate_allocates_only_the_program() {
    let engine = FuzzingEngine::new(catalog::device_a1().boot(), FuzzerConfig::droidfuzz(1));
    let table = engine.desc_table();
    let mut rng = StdRng::seed_from_u64(1);
    let mut graph = RelationGraph::new(table);
    for _ in 0..32 {
        let prog = random_generate(table, MAX_CALLS, &mut rng);
        for pair in prog.calls.windows(2) {
            graph.learn(pair[0].desc, pair[1].desc);
        }
    }

    let (mut calls, mut allocs, mut own) = (0u64, 0u64, 0u64);
    for _ in 0..PROGS {
        let (prog, n) = count_allocs(|| relational_generate(table, &graph, MAX_CALLS, &mut rng));
        calls += prog.len() as u64;
        allocs += n;
        own += own_allocs(&prog);
    }
    let per_call = allocs as f64 / calls as f64;
    let overhead = (allocs - own) as f64 / calls as f64;
    eprintln!(
        "A1: {calls} calls, {allocs} allocations ({own} for the programs' own storage): \
         {per_call:.3} per call, overhead {overhead:.3} per call"
    );
    assert!(calls > (PROGS * MAX_CALLS / 2) as u64, "programs too short to measure: {calls} calls");
    assert!(
        per_call <= ALLOCS_PER_CALL,
        "relational_generate allocated {per_call:.3} times per generated call \
         (budget {ALLOCS_PER_CALL})"
    );
    assert!(
        overhead <= OVERHEAD_PER_CALL,
        "relational_generate allocated {overhead:.3} times per generated call beyond the \
         program itself (budget {OVERHEAD_PER_CALL})"
    );
}

/// Programs executed under supervision per measurement.
const SUPERVISED_PROGS: usize = 3_000;

/// Leading programs run uncounted, to warm the broker's and the kernel's
/// buffers.
const SUPERVISED_WARMUP: usize = 500;

/// Allocations per program call inside `Supervisor::supervise`. Measured
/// at 2.12 on A1 with seed 1; the bound leaves 1.4x headroom. The earlier
/// device, which tore down and respawned all ten HAL services after every
/// execution and cloned the open file, driver name and node path on each
/// dispatched syscall, made 5.19 and fails it.
const SUPERVISED_ALLOCS_PER_CALL: f64 = 3.0;

#[test]
fn supervised_execution_stays_within_its_allocation_budget() {
    let engine = FuzzingEngine::new(catalog::device_a1().boot(), FuzzerConfig::droidfuzz(1));
    let table = engine.desc_table();
    let mut rng = StdRng::seed_from_u64(1);
    let progs: Vec<Prog> =
        (0..SUPERVISED_PROGS).map(|_| random_generate(table, MAX_CALLS, &mut rng)).collect();

    let mut device = catalog::device_a1().boot();
    let mut adb = AdbLink::usb();
    let mut broker = Broker::new();
    let plan = FaultPlan::for_profile(FaultProfile::Reliable, 1);
    let mut supervisor = Supervisor::new(plan, SupervisorConfig::default());
    assert!(supervisor.begin_batch(&mut broker, &mut device));

    let (mut calls, mut allocs) = (0u64, 0u64);
    for (i, prog) in progs.iter().enumerate() {
        let (mut run, n) =
            count_allocs(|| supervisor.supervise(&mut broker, &mut device, &mut adb, table, prog));
        if i >= SUPERVISED_WARMUP {
            calls += prog.len() as u64;
            allocs += n;
        }
        // The engine's reboot-on-bug policy, outside the counted call.
        let outcome = run.outcome.take().expect("a reliable device delivers every outcome");
        let rebooting = !outcome.bugs.is_empty() || device.is_wedged();
        broker.recycle(outcome);
        if rebooting {
            device.reboot();
        }
    }
    supervisor.end_batch(&mut broker, &mut device);

    let per_call = allocs as f64 / calls as f64;
    eprintln!("A1: {calls} supervised calls, {allocs} allocations: {per_call:.3} per call");
    assert!(
        per_call <= SUPERVISED_ALLOCS_PER_CALL,
        "Supervisor::supervise allocated {per_call:.3} times per program call \
         (budget {SUPERVISED_ALLOCS_PER_CALL})"
    );
}
