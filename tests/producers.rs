//! Lint-soundness proofs for the fuzzing engine's own program producers.
//!
//! The engine runs no lint gate inside its loop: only programs from
//! outside (corpus import, hub pulls, snapshot/WAL restore) are linted
//! and repaired at `FuzzingEngine::import_corpus`. Everything the loop
//! produces itself must therefore be free of `Error`-severity findings by
//! construction. Each property below drives one real producer over the
//! DroidFuzz vocabulary (syscalls plus probed HAL interfaces) of all
//! seven Table I devices:
//!
//! * `relational_generate` over a learned (and model-primed) relation
//!   graph, and `random_generate`;
//! * `mutate_n` and `crossover` on those programs;
//! * `minimize_with` under an arbitrary accept/reject oracle;
//! * `gate_prog_static`'s repaired output, and mutations of it (the
//!   DroidFuzz-S corpus holds repaired programs).

use droidfuzz_repro::droidfuzz::analysis::{gate_prog_static, lint_prog, LintCounters, ModelSet};
use droidfuzz_repro::droidfuzz::generate::{random_generate, relational_generate};
use droidfuzz_repro::droidfuzz::minimize::{minimize_with, MinimizeScratch};
use droidfuzz_repro::droidfuzz::relation::RelationGraph;
use droidfuzz_repro::droidfuzz::{FuzzerConfig, FuzzingEngine};
use droidfuzz_repro::fuzzlang::desc::DescTable;
use droidfuzz_repro::fuzzlang::mutate::{crossover, mutate_n};
use droidfuzz_repro::fuzzlang::prog::Prog;
use droidfuzz_repro::fuzzlang::text::format_prog;
use droidfuzz_repro::simdevice::catalog;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// Call budget per generated program (the engine's default).
const MAX_CALLS: usize = 16;

/// One device's engine vocabulary and static models.
struct Target {
    id: String,
    table: DescTable,
    models: ModelSet,
}

/// The DroidFuzz-S engine vocabulary and models of every catalog device,
/// built once (HAL probing is the expensive part).
fn targets() -> &'static [Target] {
    static TARGETS: OnceLock<Vec<Target>> = OnceLock::new();
    TARGETS.get_or_init(|| {
        catalog::all_devices()
            .into_iter()
            .map(|spec| {
                let id = spec.meta.id.clone();
                let engine = FuzzingEngine::new(spec.boot(), FuzzerConfig::droidfuzz_s(1));
                let models = engine
                    .model_set()
                    .expect("DroidFuzz-S loads models")
                    .clone();
                Target {
                    id,
                    table: engine.desc_table().clone(),
                    models,
                }
            })
            .collect()
    })
}

/// Fails the property when `prog` carries an `Error`-severity finding.
fn assert_lint_clean(target: &Target, prog: &Prog, producer: &str) -> Result<(), String> {
    let report = lint_prog(prog, &target.table);
    prop_assert!(
        !report.has_errors(),
        "{}: {producer} produced lint errors {:?}\nprogram:\n{}",
        target.id,
        report.diagnostics,
        format_prog(prog, &target.table)
    );
    Ok(())
}

/// A relation graph shaped like a running campaign's: model priors plus
/// edges learned from adjacent call pairs of generated programs.
fn learned_graph(target: &Target, rng: &mut StdRng) -> RelationGraph {
    let mut graph = RelationGraph::new(&target.table);
    graph.seed_prior(&target.models.prior_pairs(&target.table));
    for _ in 0..8 {
        let prog = random_generate(&target.table, MAX_CALLS, rng);
        for pair in prog.calls.windows(2) {
            graph.learn(pair[0].desc, pair[1].desc);
        }
    }
    graph
}

proptest! {
    /// Relational and random generation emit lint-clean programs.
    #[test]
    fn generators_are_lint_clean_on_every_device(seed in any::<u64>()) {
        for target in targets() {
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = learned_graph(target, &mut rng);
            let relational = relational_generate(&target.table, &graph, MAX_CALLS, &mut rng);
            assert_lint_clean(target, &relational, "relational_generate")?;
            let random = random_generate(&target.table, MAX_CALLS, &mut rng);
            assert_lint_clean(target, &random, "random_generate")?;
        }
    }

    /// Crossover followed by a chain of mutation rounds (the engine's
    /// `next_prog` path) stays lint-clean at every round.
    #[test]
    fn crossover_and_mutation_are_lint_clean_on_every_device(
        seed in any::<u64>(),
        rounds in 1usize..12,
    ) {
        for target in targets() {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut prog = random_generate(&target.table, MAX_CALLS, &mut rng);
            let other = random_generate(&target.table, MAX_CALLS, &mut rng);
            prog = crossover(&prog, &other, &mut rng);
            assert_lint_clean(target, &prog, "crossover")?;
            for _ in 0..rounds {
                let n = rng.gen_range(1..=3);
                mutate_n(&mut prog, &target.table, n, &mut rng);
                assert_lint_clean(target, &prog, "mutate_n")?;
                if rng.gen_bool(0.15) {
                    let other = random_generate(&target.table, MAX_CALLS, &mut rng);
                    prog = crossover(&prog, &other, &mut rng);
                    assert_lint_clean(target, &prog, "crossover")?;
                }
            }
        }
    }

    /// Whatever the replay oracle accepts, the minimizer's candidates and
    /// its final output are lint-clean: removing a call also removes
    /// every call that depended on it.
    #[test]
    fn minimizer_output_is_lint_clean_on_every_device(seed in any::<u64>(), keep in 0.0f64..1.0) {
        let mut scratch = MinimizeScratch::new();
        for target in targets() {
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = learned_graph(target, &mut rng);
            let prog = relational_generate(&target.table, &graph, MAX_CALLS, &mut rng);
            let mut candidates_clean = Ok(());
            let (minimized, _) = minimize_with(&prog, &mut scratch, |candidate| {
                if candidates_clean.is_ok() {
                    candidates_clean = assert_lint_clean(target, candidate, "minimizer candidate");
                }
                rng.gen_bool(keep)
            });
            candidates_clean?;
            assert_lint_clean(target, &minimized, "minimize_with")?;
        }
    }

    /// The absint gate's prerequisite repair inserts lint-clean chains,
    /// and mutating a repaired seed stays lint-clean.
    #[test]
    fn static_gate_repairs_are_lint_clean_on_every_device(seed in any::<u64>()) {
        let mut counters = LintCounters::default();
        for target in targets() {
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = learned_graph(target, &mut rng);
            for _ in 0..4 {
                let mut prog = relational_generate(&target.table, &graph, MAX_CALLS, &mut rng);
                if !gate_prog_static(&mut prog, &target.table, &target.models, &mut counters) {
                    continue;
                }
                assert_lint_clean(target, &prog, "gate_prog_static")?;
                mutate_n(&mut prog, &target.table, 3, &mut rng);
                assert_lint_clean(target, &prog, "mutate_n after gate_prog_static")?;
            }
        }
    }
}

/// The static-gate property must actually exercise repair, or it proves
/// nothing about repaired output.
#[test]
fn static_gate_property_inputs_include_repairs() {
    let mut counters = LintCounters::default();
    for target in targets() {
        let mut rng = StdRng::seed_from_u64(7);
        let graph = learned_graph(target, &mut rng);
        for _ in 0..64 {
            let mut prog = relational_generate(&target.table, &graph, MAX_CALLS, &mut rng);
            gate_prog_static(&mut prog, &target.table, &target.models, &mut counters);
        }
    }
    assert!(
        counters.absint_repaired > 0,
        "no repairs exercised: {counters:?}"
    );
}
