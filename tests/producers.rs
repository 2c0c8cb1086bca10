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
//!
//! The generators and the mutator are also checked against [`reference`],
//! their earlier allocating definitions: on every device they must draw
//! the same programs and leave the RNG at the same next word, so the
//! allocation-free versions cannot change a fixed-seed campaign.

use droidfuzz_repro::droidfuzz::analysis::{gate_prog_static, lint_prog, LintCounters, ModelSet};
use droidfuzz_repro::droidfuzz::descs::build_syscall_table;
use droidfuzz_repro::droidfuzz::generate::{random_generate, relational_generate};
use droidfuzz_repro::droidfuzz::minimize::{minimize_with, MinimizeScratch};
use droidfuzz_repro::droidfuzz::probe::{add_hal_descs, probe_device};
use droidfuzz_repro::droidfuzz::relation::RelationGraph;
use droidfuzz_repro::droidfuzz::{FuzzerConfig, FuzzingEngine};
use droidfuzz_repro::fuzzlang::desc::{CallDesc, DescTable};
use droidfuzz_repro::fuzzlang::mutate::{crossover, mutate_n};
use droidfuzz_repro::fuzzlang::prog::Prog;
use droidfuzz_repro::fuzzlang::text::format_prog;
use droidfuzz_repro::fuzzlang::types::ResourceKind;
use droidfuzz_repro::simdevice::catalog;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeSet;
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

/// The allocating definitions the generators and the mutator had before
/// they borrowed descriptions and read the table's producer index. Kept
/// only as the oracle of the differential properties below.
mod reference {
    use droidfuzz_repro::droidfuzz::relation::RelationGraph;
    use droidfuzz_repro::fuzzlang::desc::{DescId, DescTable};
    use droidfuzz_repro::fuzzlang::gen::gen_value;
    use droidfuzz_repro::fuzzlang::prog::{ArgValue, Call, Prog};
    use droidfuzz_repro::fuzzlang::types::{ResourceKind, TypeDesc};
    use rand::seq::SliceRandom;
    use rand::Rng;

    const MAX_PRODUCER_DEPTH: usize = 8;

    pub fn accepts(wanted: &ResourceKind, produced: &ResourceKind) -> bool {
        produced.0 == wanted.0 || produced.0.starts_with(&format!("{}:", wanted.0))
    }

    pub fn producers_of(table: &DescTable, kind: &ResourceKind) -> Vec<DescId> {
        table
            .iter()
            .filter(|(_, d)| d.produces.as_ref().is_some_and(|p| accepts(kind, p)))
            .map(|(id, _)| id)
            .collect()
    }

    fn append_call<R: Rng>(
        prog: &mut Prog,
        table: &DescTable,
        desc_id: DescId,
        rng: &mut R,
        depth: usize,
    ) -> Option<usize> {
        if depth > MAX_PRODUCER_DEPTH {
            return None;
        }
        let desc = table.get(desc_id).clone();
        let mut args = Vec::with_capacity(desc.args.len());
        for arg in &desc.args {
            match &arg.ty {
                TypeDesc::Resource { kind } => {
                    let existing: Vec<usize> = prog
                        .calls
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| {
                            table.get(c.desc).produces.as_ref().is_some_and(|p| accepts(kind, p))
                        })
                        .map(|(i, _)| i)
                        .collect();
                    let target = if !existing.is_empty() && rng.gen_bool(0.8) {
                        *existing.choose(rng).expect("non-empty")
                    } else {
                        let producers = producers_of(table, kind);
                        let &producer = producers.choose(rng)?;
                        append_call(prog, table, producer, rng, depth + 1)?
                    };
                    args.push(ArgValue::Ref(target));
                }
                other => args.push(gen_value(other, rng)),
            }
        }
        prog.calls.push(Call { desc: desc_id, args });
        Some(prog.calls.len() - 1)
    }

    /// `RelationGraph::sample_base` re-summing the vertex weights (the
    /// description weights, floored as `RelationGraph::new` floors them).
    fn sample_base<R: Rng>(table: &DescTable, rng: &mut R) -> DescId {
        let weights: Vec<f64> = table.iter().map(|(_, d)| d.weight.max(1e-6)).collect();
        let total: f64 = weights.iter().sum();
        let mut x = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return DescId(i);
            }
            x -= w;
        }
        DescId(weights.len().saturating_sub(1))
    }

    pub fn relational_generate<R: Rng>(
        table: &DescTable,
        graph: &RelationGraph,
        max_calls: usize,
        rng: &mut R,
    ) -> Prog {
        let mut prog = Prog::new();
        let mut current = sample_base(table, rng);
        let _ = append_call(&mut prog, table, current, rng, 0);
        let mut stalls = 0;
        while prog.len() < max_calls && stalls < 8 {
            match graph.sample_next(current, rng) {
                Some(next) => {
                    if append_call(&mut prog, table, next, rng, 0).is_none() {
                        stalls += 1;
                        continue;
                    }
                    current = next;
                }
                None => {
                    current = sample_base(table, rng);
                    if append_call(&mut prog, table, current, rng, 0).is_none() {
                        stalls += 1;
                    }
                }
            }
        }
        prog
    }

    pub fn random_generate<R: Rng>(table: &DescTable, max_calls: usize, rng: &mut R) -> Prog {
        let target_calls = max_calls.max(1);
        let mut prog = Prog::new();
        let ids: Vec<DescId> = table.iter().map(|(id, _)| id).collect();
        if ids.is_empty() {
            return prog;
        }
        for _ in 0..target_calls {
            let &id = ids.choose(rng).expect("non-empty");
            let _ = append_call(&mut prog, table, id, rng, 0);
            if prog.len() >= target_calls * 2 {
                break;
            }
        }
        prog
    }

    /// `fuzzlang::mutate::mutate` with its operator table
    /// (`MutationOp::all`) spelled out as indices.
    fn mutate<R: Rng>(prog: &mut Prog, table: &DescTable, rng: &mut R) {
        const OPS: [u8; 6] = [0, 1, 1, 2, 3, 4];
        match *OPS.choose(rng).expect("non-empty") {
            0 => {
                let ids: Vec<_> = table.iter().map(|(id, _)| id).collect();
                if let Some(&id) = ids.choose(rng) {
                    append_call(prog, table, id, rng, 0);
                }
            }
            1 => {
                let ids: Vec<_> = table.iter().map(|(id, _)| id).collect();
                if let Some(&id) = ids.choose(rng) {
                    let mut sub = Prog::new();
                    if append_call(&mut sub, table, id, rng, 0).is_some() {
                        let at = rng.gen_range(0..=prog.len());
                        prog.insert_at(at, &sub);
                    }
                }
            }
            2 => {
                if !prog.is_empty() {
                    let idx = rng.gen_range(0..prog.len());
                    prog.remove_call(idx);
                }
            }
            3 => {
                let candidates: Vec<(usize, usize)> = prog
                    .calls
                    .iter()
                    .enumerate()
                    .flat_map(|(ci, call)| {
                        table
                            .get(call.desc)
                            .args
                            .iter()
                            .enumerate()
                            .filter(|(_, a)| !a.ty.is_resource())
                            .map(move |(ai, _)| (ci, ai))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                if let Some(&(ci, ai)) = candidates.choose(rng) {
                    let ty: TypeDesc = table.get(prog.calls[ci].desc).args[ai].ty.clone();
                    prog.calls[ci].args[ai] = gen_value(&ty, rng);
                }
            }
            _ => {
                if !prog.is_empty() {
                    let idx = rng.gen_range(0..prog.len());
                    let call = prog.calls[idx].clone();
                    prog.calls.push(call);
                }
            }
        }
    }

    pub fn mutate_n<R: Rng>(prog: &mut Prog, table: &DescTable, n: usize, rng: &mut R) {
        for _ in 0..n {
            mutate(prog, table, rng);
        }
    }
}

/// Fails the property unless both sides drew the same program and left
/// their generators at the same next word.
fn assert_same_draw(
    target: &Target,
    producer: &str,
    (prog, rng): (&Prog, &StdRng),
    (expected, expected_rng): (&Prog, &StdRng),
) -> Result<(), String> {
    let (got, want) = (format_prog(prog, &target.table), format_prog(expected, &target.table));
    prop_assert!(got == want, "{}: {producer} diverged\ngot:\n{got}\nreference:\n{want}", target.id);
    let (next, expected_next) = (rng.clone().next_u64(), expected_rng.clone().next_u64());
    prop_assert!(next == expected_next, "{}: {producer} consumed a different RNG stream", target.id);
    Ok(())
}

proptest! {
    /// Generation and mutation match their allocating reference draw for
    /// draw, so fixed-seed campaigns are unchanged.
    #[test]
    fn producers_match_their_allocating_reference_on_every_device(
        seed in any::<u64>(),
        rounds in 1usize..8,
    ) {
        for target in targets() {
            let table = &target.table;
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = learned_graph(target, &mut rng);
            let mut ref_rng = rng.clone();

            let mut prog = relational_generate(table, &graph, MAX_CALLS, &mut rng);
            let mut expected = reference::relational_generate(table, &graph, MAX_CALLS, &mut ref_rng);
            assert_same_draw(target, "relational_generate", (&prog, &rng), (&expected, &ref_rng))?;

            let random = random_generate(table, MAX_CALLS, &mut rng);
            let ref_random = reference::random_generate(table, MAX_CALLS, &mut ref_rng);
            assert_same_draw(target, "random_generate", (&random, &rng), (&ref_random, &ref_rng))?;

            for _ in 0..rounds {
                mutate_n(&mut prog, table, 3, &mut rng);
                reference::mutate_n(&mut expected, table, 3, &mut ref_rng);
                assert_same_draw(target, "mutate_n", (&prog, &rng), (&expected, &ref_rng))?;
            }
        }
    }

    /// The byte-compare `accepts` is the `format!` definition, including
    /// non-ASCII kinds and kinds that begin or end with the separator.
    #[test]
    fn accepts_matches_the_format_definition(
        wanted in "[ab:é]{0,4}",
        suffix in "[ab:é]{0,3}",
        other in "[ab:é]{0,6}",
    ) {
        let wanted = ResourceKind::new(wanted);
        let extended = ResourceKind::new(format!("{wanted}{suffix}"));
        for produced in [&extended, &ResourceKind::new(other)] {
            prop_assert_eq!(
                wanted.accepts(produced),
                reference::accepts(&wanted, produced),
                "{:?} accepts {:?}", wanted, produced
            );
        }
    }
}

/// The edge cases of prefix matching the random property might miss.
#[test]
fn accepts_edge_cases_match_the_format_definition() {
    let kinds = ["", ":", "fd", "fd:", "fd::", "fd:/dev/x", "f", "fdx", "hal:é:out", "hal:é", "é:"];
    for wanted in kinds.map(ResourceKind::from) {
        for produced in kinds.map(ResourceKind::from) {
            assert_eq!(
                wanted.accepts(&produced),
                reference::accepts(&wanted, &produced),
                "{wanted:?} accepts {produced:?}"
            );
        }
    }
}

/// Every wanted kind a table can be asked about: its consumers' kinds and
/// every prefix of every product at a `:` boundary.
fn queried_kinds(table: &DescTable) -> BTreeSet<ResourceKind> {
    let mut kinds = BTreeSet::new();
    for (_, desc) in table.iter() {
        kinds.extend(desc.args.iter().filter_map(|a| a.ty.resource_kind()).cloned());
        if let Some(produced) = &desc.produces {
            let p = produced.0.as_str();
            let cuts = p.match_indices(':').map(|(at, _)| at).chain([p.len()]);
            kinds.extend(cuts.map(|end| ResourceKind::from(&p[..end])));
        }
    }
    kinds
}

/// The producer index answers what a full-table scan answers, on every
/// device's engine vocabulary.
#[test]
fn producer_index_matches_a_table_scan_on_every_device() {
    for target in targets() {
        for kind in queried_kinds(&target.table).iter().chain([&ResourceKind::from("nobody")]) {
            assert_eq!(
                target.table.producers_of(kind),
                reference::producers_of(&target.table, kind),
                "{}: producers of {kind}",
                target.id
            );
        }
    }
}

/// HAL probing adds producers after the syscall descriptions were built
/// and queried: `add` must keep the index current, and a cloned table's
/// index must be its own.
#[test]
fn producer_index_follows_add_and_is_per_table() {
    let mut device = catalog::device_a1().boot();
    let mut table = build_syscall_table(device.kernel());
    let report = probe_device(&mut device);
    let hal = ResourceKind::from("hal");
    assert!(table.producers_of(&hal).is_empty(), "no HAL producer before probing");

    let mut probed = table.clone();
    add_hal_descs(&mut probed, &report);
    assert!(!probed.producers_of(&hal).is_empty(), "probing adds HAL producers");
    assert_eq!(probed.producers_of(&hal), reference::producers_of(&probed, &hal));
    assert!(table.producers_of(&hal).is_empty(), "the original's index is untouched");

    let fd = ResourceKind::from("fd");
    let mut expected = table.producers_of(&fd).to_vec();
    let id = table.add(CallDesc::syscall_open("/dev/index-probe"));
    expected.push(id);
    assert_eq!(table.producers_of(&fd), expected);
    assert_eq!(table.producers_of(&CallDesc::fd_kind("/dev/index-probe")), [id]);
    assert!(!probed.producers_of(&fd).contains(&id), "the clone's index is untouched");
}
