//! A traced mirror of `FuzzingEngine`: the same boot and step sequence,
//! rebuilt from the crate's public functions, with a span around every
//! call into a layer. It exists only for the traced run; the end-to-end
//! metrics always come from the real engine, and the mirror's own
//! throughput and coverage are reported next to the engine's rather than
//! asserted equal, so engine changes cannot break the benchmark.

use crate::trace::{Layer, Tracer};
use droidfuzz::arena::RoundArena;
use droidfuzz::config::FuzzerConfig;
use droidfuzz::corpus::Corpus;
use droidfuzz::crashes::CrashDb;
use droidfuzz::descs::{build_difuze_table, build_syscall_table, ioctl_only_view};
use droidfuzz::engine::{EXEC_SESSION_US, PER_CALL_US};
use droidfuzz::exec::Broker;
use droidfuzz::feedback::{
    signals_from_execution_into, Signal, SignalScratch, SignalSet, SyscallIdTable,
};
use droidfuzz::generate::{random_generate, relational_generate};
use droidfuzz::minimize::{minimize_with, MinimizeScratch};
use droidfuzz::probe::{add_hal_descs, probe_device};
use droidfuzz::relation::RelationGraph;
use droidfuzz::supervisor::{FailureClass, Supervisor, SupervisorConfig};
use droidfuzz_analysis::{gate_prog, gate_prog_static, static_depth, LintCounters, ModelSet};
use fuzzlang::desc::DescTable;
use fuzzlang::mutate::{crossover, mutate_n};
use fuzzlang::prog::Prog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simdevice::faults::FaultPlan;
use simdevice::{AdbLink, Device};
use simkernel::coverage::CoverageMap;

/// Outcome counts behind the per-layer useful/wasted ratios.
#[derive(Debug, Clone, Copy, Default)]
pub struct MirrorCounts {
    /// Supervised runs, and those that ended without an outcome.
    pub supervised: u64,
    pub no_outcome: u64,
    /// Executions whose signals were checked for novelty, and the novel ones.
    pub novelty_checks: u64,
    pub novel: u64,
    /// Minimizations, and those that removed at least one call.
    pub minimized: u64,
    pub shrunk: u64,
    /// Gate outcomes that changed or stopped a program, and absint gate
    /// calls (the absint layer also scores seed energy, which never gates).
    pub lint_useful: u64,
    pub absint_useful: u64,
    pub absint_gates: u64,
}

pub struct Mirror {
    device: Device,
    config: FuzzerConfig,
    table: DescTable,
    graph: RelationGraph,
    corpus: Corpus,
    crash_db: CrashDb,
    signals: SignalSet,
    id_table: SyscallIdTable,
    broker: Broker,
    adb: AdbLink,
    supervisor: Supervisor,
    lint: LintCounters,
    models: Option<ModelSet>,
    rng: StdRng,
    clock_us: u64,
    executions: u64,
    observed_kernel: CoverageMap,
    sig_scratch: SignalScratch,
    sig_buf: Vec<Signal>,
    arena: RoundArena,
    min_scratch: MinimizeScratch,
    min_target: Vec<Signal>,
    cand_sigs: Vec<Signal>,
    pub tracer: Tracer,
    pub counts: MirrorCounts,
}

impl Mirror {
    /// Boots like `FuzzingEngine::new`.
    pub fn new(mut device: Device, config: FuzzerConfig) -> Self {
        let mut table = if config.vendor_ioctl_descs {
            build_difuze_table(device.kernel())
        } else {
            let full = build_syscall_table(device.kernel());
            if config.ioctl_only {
                ioctl_only_view(&full)
            } else {
                full
            }
        };
        if config.hal_enabled {
            let report = probe_device(&mut device);
            add_hal_descs(&mut table, &report);
        }
        device.set_ioctl_only(config.ioctl_only);
        let id_table = SyscallIdTable::compile(device.kernel());
        let mut graph = RelationGraph::new(&table);
        let models = config
            .static_models
            .then(|| ModelSet::for_kernel(device.kernel()));
        if let Some(models) = &models {
            if config.relations {
                graph.seed_prior(&models.prior_pairs(&table));
            }
        }
        let adb = if device.spec().meta.id.starts_with('C') {
            AdbLink::tcp()
        } else {
            AdbLink::usb()
        };
        let rng = StdRng::seed_from_u64(config.seed ^ 0xD501D);
        let fault_seed = config.seed ^ 0xFA017;
        let plan = match config.fault_rates {
            Some(rates) => FaultPlan::with_rates(rates, fault_seed),
            None => FaultPlan::for_profile(config.fault_profile, fault_seed),
        };
        Self {
            device,
            config,
            table,
            graph,
            corpus: Corpus::new(),
            crash_db: CrashDb::new(),
            signals: SignalSet::new(),
            id_table,
            broker: Broker::new(),
            adb,
            supervisor: Supervisor::new(plan, SupervisorConfig::default()),
            lint: LintCounters::default(),
            models,
            rng,
            clock_us: 0,
            executions: 0,
            observed_kernel: CoverageMap::new(),
            sig_scratch: SignalScratch::default(),
            sig_buf: Vec::new(),
            arena: RoundArena::new(),
            min_scratch: MinimizeScratch::new(),
            min_target: Vec::new(),
            cand_sigs: Vec::new(),
            tracer: Tracer::default(),
            counts: MirrorCounts::default(),
        }
    }

    pub fn kernel_coverage(&self) -> usize {
        self.observed_kernel.len()
    }

    pub fn bugs(&self) -> usize {
        self.crash_db.len()
    }

    pub fn executions(&self) -> u64 {
        self.executions
    }

    pub fn device_lost(&self) -> bool {
        self.supervisor.device_lost()
    }

    /// `FuzzingEngine::run_until`: broker batches of `exec_batch` steps.
    pub fn run_until(&mut self, target_us: u64) {
        let batch = self.config.exec_batch.max(1);
        while self.clock_us < target_us && !self.supervisor.device_lost() {
            self.arena.begin_round();
            self.tracer.enter(Layer::Supervisor);
            let open = self
                .supervisor
                .begin_batch(&mut self.broker, &mut self.device);
            self.tracer.exit();
            for _ in 0..batch {
                if self.clock_us >= target_us || self.supervisor.device_lost() {
                    break;
                }
                self.step();
            }
            if open {
                self.tracer.enter(Layer::Supervisor);
                self.supervisor
                    .end_batch(&mut self.broker, &mut self.device);
                self.tracer.exit();
            }
        }
    }

    fn step(&mut self) {
        if self.supervisor.device_lost() {
            return;
        }
        let prog = self.next_prog();
        if prog.is_empty() {
            self.arena.put_prog(prog);
            return;
        }
        self.step_exec(prog);
    }

    fn next_prog(&mut self) -> Prog {
        let use_corpus = self.config.feedback
            && !self.corpus.is_empty()
            && self.rng.gen_bool(self.config.mutate_prob);
        if !use_corpus {
            return self.generate_fresh();
        }
        self.tracer.enter(Layer::Corpus);
        let mut prog = self.arena.take_prog();
        prog.assign_from(self.corpus.pick(&mut self.rng).expect("non-empty corpus"));
        self.tracer.exit();
        if self.rng.gen_bool(0.15) {
            self.tracer.enter(Layer::Mutate);
            if let Some(other) = self.corpus.pick_uniform(&mut self.rng) {
                let crossed = crossover(&prog, other, &mut self.rng);
                self.arena.put_prog(std::mem::replace(&mut prog, crossed));
            }
            self.tracer.exit();
        }
        let n = self.rng.gen_range(1..=3);
        self.tracer.enter(Layer::Mutate);
        mutate_n(&mut prog, &self.table, n, &mut self.rng);
        self.tracer.exit();
        if prog.is_empty() || !self.lint_gate(&mut prog) {
            self.arena.put_prog(prog);
            return self.generate_fresh();
        }
        prog
    }

    fn generate_fresh(&mut self) -> Prog {
        self.tracer.enter(Layer::Generate);
        let mut prog = if self.config.relations {
            relational_generate(
                &self.table,
                &self.graph,
                self.config.max_prog_calls,
                &mut self.rng,
            )
        } else {
            random_generate(&self.table, self.config.max_prog_calls, &mut self.rng)
        };
        self.tracer.exit();
        if !self.lint_gate(&mut prog) {
            return Prog::new();
        }
        prog
    }

    fn lint_gate(&mut self, prog: &mut Prog) -> bool {
        if !self.config.lint_gate {
            return true;
        }
        let before = self.lint;
        self.tracer.enter(Layer::Lint);
        let ok = gate_prog(prog, &self.table, &mut self.lint);
        self.tracer.exit();
        self.counts.lint_useful +=
            (self.lint.repaired - before.repaired) + (self.lint.rejected - before.rejected);
        if !ok {
            return false;
        }
        let Some(models) = &self.models else {
            return true;
        };
        self.tracer.enter(Layer::Absint);
        let ok = gate_prog_static(prog, &self.table, models, &mut self.lint);
        self.tracer.exit();
        self.counts.absint_gates += 1;
        self.counts.absint_useful += (self.lint.absint_repaired - before.absint_repaired)
            + (self.lint.absint_rejected - before.absint_rejected);
        ok
    }

    fn static_energy_bonus(&mut self, prog: &Prog) -> usize {
        let Some(models) = &self.models else { return 0 };
        self.tracer.enter(Layer::Absint);
        let depth = static_depth(prog, &self.table, models) as usize * 4;
        self.tracer.exit();
        depth
    }

    fn step_exec(&mut self, prog: Prog) {
        self.tracer.enter(Layer::Supervisor);
        let mut run = self.supervisor.supervise(
            &mut self.broker,
            &mut self.device,
            &mut self.adb,
            &self.table,
            &prog,
        );
        self.tracer.exit();
        self.counts.supervised += 1;
        self.clock_us += run.cost_us;
        self.executions += run.attempts;
        self.tracer.enter(Layer::Crashes);
        for report in &run.salvaged_bugs {
            if self.crash_db.record(report, self.clock_us) {
                self.crash_db
                    .attach_repro(&report.title, &prog, &self.table);
            }
        }
        self.tracer.exit();
        let Some(outcome) = run.outcome.take() else {
            self.counts.no_outcome += 1;
            if run.failure == Some(FailureClass::Hang) {
                self.tracer.enter(Layer::Corpus);
                self.corpus.remove_prog(&prog);
                self.tracer.exit();
            }
            self.arena.put_prog(prog);
            return;
        };

        self.tracer.enter(Layer::Feedback);
        for &b in &outcome.observed_new_blocks {
            self.observed_kernel.insert(b);
        }
        let mut sigs = std::mem::take(&mut self.sig_buf);
        signals_from_execution_into(
            &outcome.kcov,
            &outcome.hal_events,
            &mut self.id_table,
            self.config.hal_coverage,
            &mut self.sig_scratch,
            &mut sigs,
        );
        self.tracer.exit();

        let had_bug = !outcome.bugs.is_empty();
        if self.config.feedback {
            self.tracer.enter(Layer::Feedback);
            let (new_count, kernel_new) = self.signals.count_new_split(&sigs);
            self.tracer.exit();
            self.counts.novelty_checks += 1;
            if new_count > 0 {
                self.counts.novel += 1;
            }
            if new_count > 0 && !had_bug {
                if kernel_new > 0 {
                    let mut admitted = if self.config.minimize && prog.len() > 2 && new_count <= 64
                    {
                        let minimized = self.minimize_interesting(&prog, &sigs);
                        self.counts.minimized += 1;
                        if minimized.len() < prog.len() {
                            self.counts.shrunk += 1;
                        }
                        minimized
                    } else {
                        self.tracer.enter(Layer::Corpus);
                        let copy = prog.clone();
                        self.tracer.exit();
                        copy
                    };
                    if self.lint_gate(&mut admitted) {
                        if self.config.relations {
                            self.tracer.enter(Layer::Relation);
                            for pair in admitted.calls.windows(2) {
                                self.graph.learn(pair[0].desc, pair[1].desc);
                            }
                            self.tracer.exit();
                        }
                        self.tracer.enter(Layer::Corpus);
                        let quarantined =
                            self.supervisor.is_prog_quarantined(&admitted, &self.table);
                        self.tracer.exit();
                        if !quarantined {
                            let energy = kernel_new * 8
                                + (new_count - kernel_new)
                                + self.static_energy_bonus(&admitted);
                            self.tracer.enter(Layer::Corpus);
                            self.corpus.admit(admitted, energy);
                            self.tracer.exit();
                        }
                    }
                } else if self.config.relations {
                    self.tracer.enter(Layer::Relation);
                    for (i, pair) in prog.calls.windows(2).enumerate() {
                        if outcome.call_results.get(i).copied().unwrap_or(false)
                            && outcome.call_results.get(i + 1).copied().unwrap_or(false)
                        {
                            self.graph.learn(pair[0].desc, pair[1].desc);
                        }
                    }
                    self.tracer.exit();
                    if self.rng.gen_bool(0.5) {
                        self.tracer.enter(Layer::Corpus);
                        let quarantined = self.supervisor.is_prog_quarantined(&prog, &self.table);
                        self.tracer.exit();
                        if !quarantined {
                            let energy = new_count.min(8) + self.static_energy_bonus(&prog);
                            self.tracer.enter(Layer::Corpus);
                            self.corpus.admit(prog.clone(), energy);
                            self.tracer.exit();
                        }
                    }
                }
            }
        }
        self.tracer.enter(Layer::Feedback);
        self.signals.merge(&sigs);
        self.tracer.exit();
        self.sig_buf = sigs;

        self.tracer.enter(Layer::Crashes);
        for report in &outcome.bugs {
            if self.crash_db.record(report, self.clock_us) {
                self.crash_db
                    .attach_repro(&report.title, &prog, &self.table);
            }
        }
        self.tracer.exit();
        self.tracer.enter(Layer::Supervisor);
        self.broker.recycle(outcome);
        self.tracer.exit();
        self.arena.put_prog(prog);
        if (had_bug && self.config.reboot_on_bug) || self.device.is_wedged() {
            self.tracer.enter(Layer::Device);
            self.device.reboot();
            self.tracer.exit();
            self.clock_us += self.adb.reboot_cost();
        }
        if self.config.relations && self.executions.is_multiple_of(self.config.decay_interval) {
            self.tracer.enter(Layer::Relation);
            self.graph.decay(self.config.decay_factor);
            self.tracer.exit();
        }
    }

    /// `FuzzingEngine::minimize_interesting`, with each oracle replay in
    /// an `exec.replay` span nested inside the `minimize` span.
    fn minimize_interesting(&mut self, prog: &Prog, sigs: &[Signal]) -> Prog {
        self.tracer.enter(Layer::Minimize);
        let mut target = std::mem::take(&mut self.min_target);
        target.clear();
        target.extend(sigs.iter().copied().filter(|s| !self.signals.covers(&[*s])));
        let required = target.len().div_ceil(2);
        let device = &mut self.device;
        let broker = &mut self.broker;
        let table = &self.table;
        let id_table = &mut self.id_table;
        let sig_scratch = &mut self.sig_scratch;
        let tracer = &mut self.tracer;
        let hal_cov = self.config.hal_coverage;
        let mut replay_cost = 0u64;
        let mut rebooted = false;
        let mut cand_sigs = std::mem::take(&mut self.cand_sigs);
        let (minimized, _checks) = minimize_with(prog, &mut self.min_scratch, |candidate| {
            tracer.enter(Layer::Replay);
            let outcome = broker.execute(device, table, candidate);
            tracer.exit();
            replay_cost += EXEC_SESSION_US / 2 + outcome.calls_executed as u64 * PER_CALL_US;
            if !outcome.bugs.is_empty() || device.is_wedged() {
                tracer.enter(Layer::Device);
                device.reboot();
                tracer.exit();
                rebooted = true;
            }
            signals_from_execution_into(
                &outcome.kcov,
                &outcome.hal_events,
                id_table,
                hal_cov,
                sig_scratch,
                &mut cand_sigs,
            );
            let hits = target.iter().filter(|t| cand_sigs.contains(t)).count();
            tracer.enter(Layer::Replay);
            broker.recycle(outcome);
            tracer.exit();
            hits >= required
        });
        self.min_target = target;
        self.cand_sigs = cand_sigs;
        self.clock_us += replay_cost;
        if rebooted {
            self.clock_us += self.adb.reboot_cost();
        }
        self.tracer.exit();
        minimized
    }
}
