//! The campaign workloads, each runnable plain (end-to-end metrics)
//! or traced (per-layer metrics), plus their set-up and cold-recovery
//! probes and output checks.

use crate::mirror::Mirror;
use crate::net::{NetTrace, NetTraceHandle, RoundClock, TimedConnector, TimedListener};
use crate::store::{self as storex, StoreTrace, StoreTraceHandle, TimedMedium};
use droidfuzz::config::FuzzerConfig;
use droidfuzz::engine::{FuzzingEngine, HOUR_US};
use droidfuzz::fleet::{CorpusHub, Fleet, FleetConfig, FleetPersist, FleetSnapshot};
use droidfuzz::net::{HubServer, LoopbackConnector, ServeConfig, WorkerConfig, WorkerRuntime};
use droidfuzz::relation::RelationGraph;
use droidfuzz::store::{RecoveryManager, RecoveryOutcome, SimMedium};
use droidfuzz::supervisor::FaultCounters;
use simdevice::catalog;
use simdevice::faults::FaultProfile;
use simdevice::firmware::FirmwareSpec;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Virtual hours of one engine campaign (the paper's Fig. 4 budget).
pub const ENGINE_HOURS: u64 = 48;
/// Fleet and hub campaigns: shards × virtual hours, synced every quarter hour.
pub const FLEET_SHARDS: usize = 4;
pub const FLEET_HOURS: f64 = 8.0;
pub const SYNC_HOURS: f64 = 0.25;
/// Worker threads: the host this benchmark was sized on has two cores.
pub const THREADS: usize = 2;
/// Campaign seeds per run. Coverage, bugs, recovery and per-round cost
/// vary from seed to seed; a run reports the panel's aggregate so that
/// figures from different `--seed`s are comparable. Sized so that two
/// passes over the panel take 20–30 s on a 2-core host.
pub const PANEL: usize = 6;
/// A fleet or hub set-up probe runs this little virtual time: one round in
/// which every shard executes exactly one program.
const SETUP_PROBE_HOURS: f64 = 1e-9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EngineA1,
    EngineSFlakyE,
    /// A durable fleet on the in-memory `SimMedium`.
    FleetSim,
    HubLoopback,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EngineA1,
        Workload::EngineSFlakyE,
        Workload::FleetSim,
        Workload::HubLoopback,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineA1 => "engine-a1",
            Workload::EngineSFlakyE => "engine-s-flaky-e",
            Workload::FleetSim => "fleet-sim",
            Workload::HubLoopback => "hub-loopback",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_engine(self) -> bool {
        matches!(self, Workload::EngineA1 | Workload::EngineSFlakyE)
    }

    fn spec(self) -> FirmwareSpec {
        match self {
            Workload::EngineSFlakyE => catalog::device_e(),
            _ => catalog::device_a1(),
        }
    }

    /// The engine configuration; fleet and hub shard `i` use seed `seed + i + 1`.
    pub fn config(self, seed: u64) -> FuzzerConfig {
        match self {
            Workload::EngineSFlakyE => {
                FuzzerConfig::droidfuzz_s(seed).with_fault_profile(FaultProfile::Flaky)
            }
            _ => FuzzerConfig::droidfuzz(seed),
        }
    }

    /// Sync-round timings one campaign yields: round boundaries minus the
    /// first round, which also carries the start-up.
    pub fn round_samples(self) -> usize {
        let rounds = if self.is_engine() {
            (ENGINE_HOURS as f64 / SYNC_HOURS) as usize
        } else {
            (FLEET_HOURS / SYNC_HOURS) as usize
        };
        rounds - 1
    }
}

/// Everything one campaign run reports.
#[derive(Debug, Clone)]
pub struct Campaign {
    pub execs: u64,
    pub kernel_blocks: usize,
    pub bugs: usize,
    /// Wall time of the campaign call (fleet and hub: includes start-up).
    pub wall_s: f64,
    pub rounds_ms: Vec<f64>,
    /// Operations attempted and failed, by the definition in the README.
    pub attempted_ops: u64,
    pub failed_ops: u64,
    pub wire_bytes: u64,
    /// Sync rounds completed (engines: quarter-hour slices).
    pub rounds: usize,
    /// State to recover from: corpus export (engines) or snapshot text (hub).
    pub persisted: String,
    /// `fleet-sim`: the durable store, kept for the recovery probes.
    pub store: Option<SimMedium>,
    /// Output-check failures.
    pub errors: Vec<String>,
}

impl Campaign {
    /// The values that must repeat exactly for a seed.
    pub fn fingerprint(&self) -> (u64, usize, usize) {
        (self.execs, self.kernel_blocks, self.bugs)
    }
}

/// One cold recovery: its time and the bytes of state it read back.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    pub s: f64,
    pub bytes: u64,
}

/// Supervised runs that ended without an outcome.
fn no_outcome(f: &FaultCounters) -> u64 {
    f.hangs + f.gave_up
}

fn round_gaps_ms(stamps: &[Instant]) -> Vec<f64> {
    stamps
        .windows(2)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e3)
        .collect()
}

// ---------------------------------------------------------------------
// Engines
// ---------------------------------------------------------------------

/// One engine campaign, driven in quarter-hour slices (batch boundaries
/// draw no RNG, so slicing leaves the campaign bit-identical).
pub fn run_engine(w: Workload, seed: u64) -> Campaign {
    let mut engine = FuzzingEngine::new(w.spec().boot(), w.config(seed));
    let slice = (SYNC_HOURS * HOUR_US as f64) as u64;
    let total = ENGINE_HOURS * HOUR_US;
    let mut stamps = Vec::with_capacity((total / slice) as usize + 1);
    let start = Instant::now();
    let mut target = 0;
    while target < total && !engine.device_lost() {
        target += slice;
        engine.run_until(target);
        stamps.push(Instant::now());
    }
    let wall_s = start.elapsed().as_secs_f64();
    let corpus = engine.export_corpus();
    let faults = engine.fault_counters();
    let failed = no_outcome(&faults) + u64::from(engine.device_lost());
    let mut errors = Vec::new();
    if engine.device_lost() {
        errors.push("device lost before the budget".to_owned());
    }
    Campaign {
        execs: engine.executions(),
        kernel_blocks: engine.kernel_coverage(),
        bugs: engine.crash_db().len(),
        wall_s,
        rounds_ms: round_gaps_ms(&stamps),
        attempted_ops: engine.executions(),
        failed_ops: failed,
        wire_bytes: 0,
        rounds: stamps.len(),
        persisted: corpus,
        store: None,
        errors,
    }
}

/// Boot to first execution: a fresh device, engine build with its HAL
/// probe (and models), and one step.
fn engine_setup(w: Workload, seed: u64) -> f64 {
    let start = Instant::now();
    let mut engine = FuzzingEngine::new(w.spec().boot(), w.config(seed));
    // A step can end before executing (a rejected program, or a fault
    // that gives up); keep stepping until the first execution happened.
    while engine.executions() == 0 && !engine.device_lost() {
        engine.run_iterations(1);
    }
    start.elapsed().as_secs_f64()
}

/// Cold restore of the engine's persistent data (its corpus export) into
/// a freshly booted engine; only the import is timed.
fn engine_recovery(w: Workload, seed: u64, c: &Campaign) -> Result<Recovery, String> {
    let mut engine = FuzzingEngine::new(w.spec().boot(), w.config(seed));
    let start = Instant::now();
    let (accepted, rejected) = engine.import_corpus(&c.persisted);
    let s = start.elapsed().as_secs_f64();
    let seeds = c
        .persisted
        .lines()
        .filter(|l| l.starts_with("# seed"))
        .count();
    if rejected != 0 || accepted != seeds {
        return Err(format!(
            "corpus restore took {accepted}/{seeds} seeds, rejected {rejected}"
        ));
    }
    Ok(Recovery {
        s,
        bytes: c.persisted.len() as u64,
    })
}

/// Traced engine campaign on the mirror, sliced like [`run_engine`].
pub fn run_mirror(w: Workload, seed: u64) -> (Mirror, f64) {
    let mut mirror = Mirror::new(w.spec().boot(), w.config(seed));
    let slice = (SYNC_HOURS * HOUR_US as f64) as u64;
    let total = ENGINE_HOURS * HOUR_US;
    let start = Instant::now();
    let mut target = 0;
    while target < total && !mirror.device_lost() {
        target += slice;
        mirror.run_until(target);
    }
    (mirror, start.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------
// Fleet on a durable store
// ---------------------------------------------------------------------

fn fleet_config(hours: f64) -> FleetConfig {
    FleetConfig {
        shards: FLEET_SHARDS,
        hours,
        sync_interval_hours: SYNC_HOURS,
        threads: THREADS,
        ..FleetConfig::default()
    }
}

/// One durable fleet campaign on a fresh `SimMedium`. Returns the
/// campaign, which keeps its store for the recovery probes, and the
/// medium trace.
pub fn run_fleet(
    w: Workload,
    seed: u64,
    hours: f64,
    timed: bool,
) -> Result<(Campaign, StoreTraceHandle), String> {
    let store = SimMedium::new();
    let trace: StoreTraceHandle = Arc::new(Mutex::new(StoreTrace::default()));
    let medium = TimedMedium::new(store.clone(), Arc::clone(&trace), timed);
    let fleet = Fleet::new(fleet_config(hours));
    let start = Instant::now();
    let result = fleet
        .run_durable(&w.spec(), |s| w.config(seed.wrapping_add(s)), medium)
        .map_err(|e| format!("durable fleet: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let commits = storex::lock(&trace).commits.clone();
    let mut errors = Vec::new();
    if !result.finished {
        errors.push("fleet did not finish".to_owned());
    }
    if commits.len() != result.rounds_completed {
        errors.push(format!(
            "{} snapshot commits for {} rounds",
            commits.len(),
            result.rounds_completed
        ));
    }
    let totals = result.store_totals;
    let campaign = Campaign {
        execs: result.executions,
        kernel_blocks: result.union_coverage,
        bugs: result.crashes.len(),
        wall_s,
        rounds_ms: round_gaps_ms(&commits),
        attempted_ops: result.executions + totals.journal_records + totals.snapshots_written,
        failed_ops: no_outcome(&result.fault_totals) + totals.io_errors,
        wire_bytes: 0,
        rounds: result.rounds_completed,
        persisted: String::new(),
        store: Some(store),
        errors,
    };
    Ok((campaign, trace))
}

/// Cold `recover_verified` of the store a fleet campaign left behind,
/// read through a timing medium that counts the bytes it reads; checks
/// the outcome is clean and matches the run.
pub fn fleet_recovery(
    w: Workload,
    seed: u64,
    c: &Campaign,
    trace: &StoreTraceHandle,
) -> Result<Recovery, String> {
    // The auditors need the campaign's interface table (as in
    // `Fleet::resume_durable`); building it is not part of recovery.
    let probe = FuzzingEngine::new(w.spec().boot(), w.config(seed));
    let table = probe.desc_table();
    let read_before = storex::lock(trace).op(storex::Op::Read).bytes;
    let start = Instant::now();
    let store = c.store.as_ref().ok_or("campaign kept no store")?;
    let recovered = RecoveryManager::new(TimedMedium::new(store.clone(), Arc::clone(trace), true))
        .recover_verified(table)
        .map_err(|e| format!("recovery: {e}"))?;
    let s = start.elapsed().as_secs_f64();
    if recovered.report.outcome != RecoveryOutcome::Clean {
        return Err(format!("recovery outcome {:?}", recovered.report.outcome));
    }
    let got = (recovered.snapshot.round, recovered.snapshot.coverage.len());
    if got != (c.rounds, c.kernel_blocks) {
        return Err(format!(
            "recovered (rounds, coverage) {got:?}, run had {:?}",
            (c.rounds, c.kernel_blocks)
        ));
    }
    let bytes = storex::lock(trace).op(storex::Op::Read).bytes - read_before;
    Ok(Recovery { s, bytes })
}

// ---------------------------------------------------------------------
// Hub + one worker over loopback
// ---------------------------------------------------------------------

/// What a hub campaign returns besides the [`Campaign`] figures.
pub struct HubRun {
    pub campaign: Campaign,
    pub net: NetTraceHandle,
}

/// One hub campaign: `HubServer::serve` on a scoped thread, one
/// `WorkerRuntime` with all shards on this one. `wrap` puts the timing
/// wrappers around the connector and listener.
pub fn run_hub(seed: u64, hours: f64, wrap: bool) -> Result<HubRun, String> {
    let server = HubServer::new(ServeConfig {
        fleet: fleet_config(hours),
        device: "A1".to_owned(),
        variant: "droidfuzz".to_owned(),
        seed,
    });
    let worker = WorkerRuntime::new(WorkerConfig {
        shards: FLEET_SHARDS,
        threads: THREADS,
        name: "bench".to_owned(),
        ..WorkerConfig::default()
    });
    let net = NetTrace::handle();
    let (connector, listener) = LoopbackConnector::new(FaultProfile::Reliable, seed);
    let mut clock = RoundClock::default();
    let start = Instant::now();
    let (hub, worker) = std::thread::scope(|scope| {
        let clock = &mut clock;
        let server = &server;
        let hub = if wrap {
            let listener = TimedListener {
                inner: listener,
                trace: Arc::clone(&net),
            };
            scope.spawn(move || server.serve(listener, Some(clock as &mut dyn FleetPersist), None))
        } else {
            scope.spawn(move || server.serve(listener, Some(clock as &mut dyn FleetPersist), None))
        };
        let worker = if wrap {
            worker.run(Box::new(TimedConnector {
                inner: connector,
                trace: Arc::clone(&net),
            }))
        } else {
            worker.run(Box::new(connector))
        };
        (hub.join().expect("hub thread panicked"), worker)
    });
    let wall_s = start.elapsed().as_secs_f64();
    let hub = hub.map_err(|e| format!("hub: {e}"))?;
    let worker = worker.map_err(|e| format!("worker: {e}"))?;
    let rejected = |n: &droidfuzz::net::NetCounters| {
        n.malformed_frames + n.truncated_frames + n.oversized_frames
    };
    let mut errors = Vec::new();
    if !hub.finished || !worker.finished {
        errors.push("hub or worker did not finish".to_owned());
    }
    if rejected(&hub.net_totals) + rejected(&worker.net_totals) != 0 {
        errors.push("protocol errors on a reliable link".to_owned());
    }
    if clock.rounds.len() != hub.rounds_completed {
        errors.push(format!(
            "{} round stamps for {} rounds",
            clock.rounds.len(),
            hub.rounds_completed
        ));
    }
    let wire = worker.net_totals;
    let campaign = Campaign {
        execs: hub.executions,
        kernel_blocks: hub.union_coverage,
        bugs: hub.crashes.len(),
        wall_s,
        rounds_ms: round_gaps_ms(&clock.rounds),
        attempted_ops: hub.executions + wire.frames_sent + wire.frames_received,
        failed_ops: no_outcome(&hub.fault_totals)
            + rejected(&hub.net_totals)
            + rejected(&worker.net_totals),
        wire_bytes: wire.bytes_sent + wire.bytes_received,
        rounds: hub.rounds_completed,
        persisted: hub.snapshot.clone(),
        store: None,
        errors,
    };
    Ok(HubRun { campaign, net })
}

/// Cold restore of the hub's final snapshot text, as `serve` does on
/// resume: parse, restore the hub, rebuild the relation graph.
fn hub_recovery(seed: u64, c: &Campaign) -> Result<Recovery, String> {
    let w = Workload::HubLoopback;
    let probe = FuzzingEngine::new(w.spec().boot(), w.config(seed));
    let table = probe.desc_table();
    let start = Instant::now();
    let snap = FleetSnapshot::parse(&c.persisted).map_err(|e| format!("snapshot parse: {e}"))?;
    let mut hub = CorpusHub::new(FleetConfig::default().hub_capacity);
    snap.restore_into(&mut hub);
    let mut graph = RelationGraph::new(table);
    let (_, rejected_edges) = graph.import(&snap.relations_text, table);
    hub.set_relations(graph);
    let s = start.elapsed().as_secs_f64();
    if snap.coverage.len() != c.kernel_blocks || hub.union_coverage() != c.kernel_blocks {
        return Err(format!(
            "restored coverage {} != {}",
            hub.union_coverage(),
            c.kernel_blocks
        ));
    }
    if rejected_edges != 0 {
        return Err(format!(
            "{rejected_edges} relation edges rejected on restore"
        ));
    }
    Ok(Recovery {
        s,
        bytes: c.persisted.len() as u64,
    })
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

/// One plain campaign of `w`.
pub fn run_campaign(w: Workload, seed: u64) -> Result<Campaign, String> {
    match w {
        Workload::EngineA1 | Workload::EngineSFlakyE => Ok(run_engine(w, seed)),
        Workload::FleetSim => Ok(run_fleet(w, seed, FLEET_HOURS, false)?.0),
        Workload::HubLoopback => Ok(run_hub(seed, FLEET_HOURS, false)?.campaign),
    }
}

/// Seconds from boot to the first execution.
pub fn setup_once(w: Workload, seed: u64) -> Result<f64, String> {
    match w {
        Workload::EngineA1 | Workload::EngineSFlakyE => Ok(engine_setup(w, seed)),
        Workload::FleetSim => {
            let start = Instant::now();
            let (c, _) = run_fleet(w, seed, SETUP_PROBE_HOURS, false)?;
            check_probe(&c, start.elapsed().as_secs_f64())
        }
        Workload::HubLoopback => {
            let start = Instant::now();
            let run = run_hub(seed, SETUP_PROBE_HOURS, false)?;
            check_probe(&run.campaign, start.elapsed().as_secs_f64())
        }
    }
}

fn check_probe(c: &Campaign, s: f64) -> Result<f64, String> {
    if c.execs != FLEET_SHARDS as u64 || !c.errors.is_empty() {
        return Err(format!(
            "set-up probe ran {} execs: {:?}",
            c.execs, c.errors
        ));
    }
    Ok(s)
}

/// One cold recovery of the state `c` left behind.
pub fn recovery_once(w: Workload, seed: u64, c: &Campaign) -> Result<Recovery, String> {
    match w {
        Workload::EngineA1 | Workload::EngineSFlakyE => engine_recovery(w, seed, c),
        Workload::FleetSim => {
            fleet_recovery(w, seed, c, &Arc::new(Mutex::new(StoreTrace::default())))
        }
        Workload::HubLoopback => hub_recovery(seed, c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidfuzz::store::FsMedium;
    use std::path::{Path, PathBuf};

    /// A fresh directory for one durable store, under the package's
    /// `.bench_tmp/`.
    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".bench_tmp")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn sliced_engine_matches_a_single_run_until() {
        let w = Workload::EngineA1;
        let mut whole = FuzzingEngine::new(w.spec().boot(), w.config(5));
        whole.run_until(2 * HOUR_US);
        let mut sliced = FuzzingEngine::new(w.spec().boot(), w.config(5));
        for k in 1..=8 {
            sliced.run_until(k * HOUR_US / 4);
        }
        assert_eq!(
            (
                whole.executions(),
                whole.kernel_coverage(),
                whole.export_corpus()
            ),
            (
                sliced.executions(),
                sliced.kernel_coverage(),
                sliced.export_corpus()
            )
        );
    }

    #[test]
    fn timed_medium_leaves_durable_results_unchanged() {
        let w = Workload::FleetSim;
        let fleet = Fleet::new(fleet_config(1.0));
        let run = |medium| {
            fleet
                .run_durable(&w.spec(), |s| w.config(3 + s), medium)
                .unwrap()
        };
        let bare_dir = fresh_dir("bare");
        let bare = run(FsMedium::new(&bare_dir).unwrap());
        let timed_dir = fresh_dir("timed");
        let trace: StoreTraceHandle = Arc::new(Mutex::new(StoreTrace::default()));
        let medium = TimedMedium::new(FsMedium::new(&timed_dir).unwrap(), Arc::clone(&trace), true);
        let timed = fleet
            .run_durable(&w.spec(), |s| w.config(3 + s), medium)
            .unwrap();
        assert_eq!(bare.snapshot, timed.snapshot);
        assert_eq!(bare.store_totals, timed.store_totals);
        let t = storex::lock(&trace);
        assert!(t.op(storex::Op::Sync).calls > 0 && t.op(storex::Op::Append).bytes > 0);
        assert_eq!(t.commits.len(), timed.rounds_completed);
        drop(t);
        for dir in [bare_dir, timed_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn timed_loopback_leaves_the_hub_result_unchanged() {
        let plain = run_hub(9, 1.0, false).unwrap();
        let timed = run_hub(9, 1.0, true).unwrap();
        assert_eq!(
            plain.campaign.persisted, timed.campaign.persisted,
            "hub snapshot text"
        );
        assert_eq!(plain.campaign.fingerprint(), timed.campaign.fingerprint());
        let t = crate::net::lock(&timed.net);
        assert!(t.frames > 0 && t.captured.len() as u64 == t.frames);
        assert_eq!(t.barrier_ms.len(), timed.campaign.rounds);
        assert_eq!(t.slice_ms.len(), timed.campaign.rounds - 1);
    }
}
