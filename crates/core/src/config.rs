//! Fuzzer configurations: DroidFuzz proper, its ablations (`DF-NoRel`,
//! `DF-NoHCov`), the restricted `DroidFuzz-D`, and the evaluation
//! baselines (syzkaller-like, Difuze-like).

use simdevice::faults::{FaultProfile, FaultRates};
use std::fmt;

/// Which fuzzer variant a configuration describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Full DroidFuzz.
    DroidFuzz,
    /// DroidFuzz with static interface models: the relation graph is
    /// seeded with model-derived priors before the first execution, the
    /// abstract-interpretation reachability gate rejects (or repairs)
    /// programs whose driver calls provably fail, and static depth feeds
    /// corpus seed energy.
    DroidFuzzS,
    /// DroidFuzz without relational payload generation (§V-D1).
    NoRel,
    /// DroidFuzz without HAL directional coverage (§V-D2).
    NoHCov,
    /// DroidFuzz restricted to the ioctl path (§V-C2).
    DroidFuzzD,
    /// Syscall-only coverage-guided baseline (syzkaller stand-in).
    Syzkaller,
    /// Interface-extraction + generation-only baseline (Difuze stand-in).
    Difuze,
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Variant::DroidFuzz => "DroidFuzz",
            Variant::DroidFuzzS => "DroidFuzz-S",
            Variant::NoRel => "DF-NoRel",
            Variant::NoHCov => "DF-NoHCov",
            Variant::DroidFuzzD => "DroidFuzz-D",
            Variant::Syzkaller => "Syzkaller",
            Variant::Difuze => "Difuze",
        };
        f.write_str(s)
    }
}

/// Full fuzzer configuration.
#[derive(Debug, Clone)]
pub struct FuzzerConfig {
    /// Which variant this is (drives reporting labels).
    pub variant: Variant,
    /// RNG seed (campaigns repeat with different seeds).
    pub seed: u64,
    /// Probe the HAL and include HAL interfaces in the vocabulary.
    pub hal_enabled: bool,
    /// Learn and use the relation graph (§IV-C).
    pub relations: bool,
    /// Merge HAL directional coverage into feedback (§IV-D).
    pub hal_coverage: bool,
    /// Use coverage feedback at all (Difuze is generation-only).
    pub feedback: bool,
    /// Restrict the device to the ioctl path (DroidFuzz-D, Difuze).
    pub ioctl_only: bool,
    /// Use statically-extracted vendor ioctl descriptions instead of the
    /// public syzlang set (Difuze's interface-awareness).
    pub vendor_ioctl_descs: bool,
    /// Target call count per generated payload.
    pub max_prog_calls: usize,
    /// Probability of mutating a corpus seed instead of generating fresh.
    pub mutate_prob: f64,
    /// Decay the relation graph every this many executions.
    pub decay_interval: u64,
    /// Decay factor (< 1).
    pub decay_factor: f64,
    /// Run minimization on coverage-increasing inputs (costs executions).
    pub minimize: bool,
    /// Repair at import: lint every seed entering through
    /// [`FuzzingEngine::import_corpus`](crate::engine::FuzzingEngine::import_corpus)
    /// and repair fixable defects instead of dropping the seed (on for
    /// all variants; off keeps the validate-and-reject import).
    pub lint_gate: bool,
    /// Use the static interface models: seed the relation graph with
    /// model-derived priors, gate programs through the abstract
    /// interpreter (with prerequisite-insertion repair), and boost corpus
    /// seed energy by static depth (DroidFuzz-S).
    pub static_models: bool,
    /// Reboot the device upon encountering any bug (paper §V-A).
    pub reboot_on_bug: bool,
    /// Device-fault profile the supervisor draws from (`Reliable` is
    /// behavior-identical to a fault-free build).
    pub fault_profile: FaultProfile,
    /// Explicit fault rates overriding the profile (tests force specific
    /// fault mixes; `None` uses the profile's presets).
    pub fault_rates: Option<FaultRates>,
    /// How many engine steps share one broker batch (persistent trace
    /// session + amortized device setup). Batch boundaries draw no RNG
    /// and charge no virtual time, so any value — including 1, the
    /// per-program path — produces bit-identical campaigns.
    pub exec_batch: usize,
}

impl FuzzerConfig {
    fn base(variant: Variant, seed: u64) -> Self {
        Self {
            variant,
            seed,
            hal_enabled: true,
            relations: true,
            hal_coverage: true,
            feedback: true,
            ioctl_only: false,
            vendor_ioctl_descs: false,
            max_prog_calls: 16,
            mutate_prob: 0.6,
            decay_interval: 2000,
            decay_factor: 0.9,
            minimize: true,
            lint_gate: true,
            static_models: false,
            reboot_on_bug: true,
            fault_profile: FaultProfile::Reliable,
            fault_rates: None,
            exec_batch: 16,
        }
    }

    /// The same configuration under a device-fault profile.
    pub fn with_fault_profile(self, profile: FaultProfile) -> Self {
        Self { fault_profile: profile, ..self }
    }

    /// The same configuration with explicit fault rates (overrides the
    /// profile's presets; mainly for tests forcing a fault mix).
    pub fn with_fault_rates(self, rates: FaultRates) -> Self {
        Self { fault_rates: Some(rates), ..self }
    }

    /// The same configuration with repair at import toggled.
    pub fn with_lint_gate(self, lint_gate: bool) -> Self {
        Self { lint_gate, ..self }
    }

    /// The same configuration with a different execution batch size
    /// (values < 1 are clamped to the per-program path).
    pub fn with_exec_batch(self, exec_batch: usize) -> Self {
        Self { exec_batch: exec_batch.max(1), ..self }
    }

    /// Full DroidFuzz.
    pub fn droidfuzz(seed: u64) -> Self {
        Self::base(Variant::DroidFuzz, seed)
    }

    /// `DroidFuzz-S`: DroidFuzz plus static interface models (prior
    /// seeding, reachability gating, static-depth seed energy).
    pub fn droidfuzz_s(seed: u64) -> Self {
        Self { static_models: true, ..Self::base(Variant::DroidFuzzS, seed) }
    }

    /// `DF-NoRel`: randomized dependency generation only.
    pub fn droidfuzz_norel(seed: u64) -> Self {
        Self { relations: false, ..Self::base(Variant::NoRel, seed) }
    }

    /// `DF-NoHCov`: kernel kcov feedback only.
    pub fn droidfuzz_nohcov(seed: u64) -> Self {
        Self { hal_coverage: false, ..Self::base(Variant::NoHCov, seed) }
    }

    /// `DroidFuzz-D`: executor and HAL restricted to the ioctl path.
    pub fn droidfuzz_d(seed: u64) -> Self {
        Self { ioctl_only: true, ..Self::base(Variant::DroidFuzzD, seed) }
    }

    /// Syzkaller stand-in: syscall-only, coverage-guided, no HAL probing,
    /// no relation learning, no HAL coverage.
    pub fn syzkaller(seed: u64) -> Self {
        Self {
            hal_enabled: false,
            relations: false,
            hal_coverage: false,
            ..Self::base(Variant::Syzkaller, seed)
        }
    }

    /// Difuze stand-in: extracted ioctl interfaces, generation-based (no
    /// feedback, no corpus, no HAL).
    pub fn difuze(seed: u64) -> Self {
        Self {
            hal_enabled: false,
            relations: false,
            hal_coverage: false,
            feedback: false,
            ioctl_only: true,
            vendor_ioctl_descs: true,
            minimize: false,
            ..Self::base(Variant::Difuze, seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_toggle_the_right_features() {
        let df = FuzzerConfig::droidfuzz(1);
        assert!(df.hal_enabled && df.relations && df.hal_coverage && df.feedback);
        assert!(!df.ioctl_only);
        assert!(!df.static_models, "static models are DroidFuzz-S only");

        let dfs = FuzzerConfig::droidfuzz_s(1);
        assert!(dfs.static_models && dfs.relations && dfs.hal_enabled);
        assert_eq!(dfs.variant, Variant::DroidFuzzS);

        let norel = FuzzerConfig::droidfuzz_norel(1);
        assert!(!norel.relations && norel.hal_coverage && norel.hal_enabled);

        let nohcov = FuzzerConfig::droidfuzz_nohcov(1);
        assert!(nohcov.relations && !nohcov.hal_coverage && nohcov.hal_enabled);

        let dfd = FuzzerConfig::droidfuzz_d(1);
        assert!(dfd.ioctl_only && dfd.hal_enabled);

        let syz = FuzzerConfig::syzkaller(1);
        assert!(!syz.hal_enabled && !syz.relations && !syz.hal_coverage && syz.feedback);

        let difuze = FuzzerConfig::difuze(1);
        assert!(!difuze.feedback && difuze.ioctl_only && !difuze.hal_enabled);
    }

    #[test]
    fn fault_profile_defaults_to_reliable_and_builders_override() {
        let df = FuzzerConfig::droidfuzz(1);
        assert_eq!(df.fault_profile, FaultProfile::Reliable);
        assert!(df.fault_rates.is_none());
        let flaky = FuzzerConfig::droidfuzz(1).with_fault_profile(FaultProfile::Flaky);
        assert_eq!(flaky.fault_profile, FaultProfile::Flaky);
        let forced = FuzzerConfig::droidfuzz(1)
            .with_fault_rates(FaultRates::for_profile(FaultProfile::Hostile));
        assert_eq!(forced.fault_rates, Some(FaultRates::for_profile(FaultProfile::Hostile)));
    }

    #[test]
    fn exec_batch_defaults_sane_and_clamps_to_one() {
        let df = FuzzerConfig::droidfuzz(1);
        assert!(df.exec_batch >= 1);
        assert_eq!(FuzzerConfig::droidfuzz(1).with_exec_batch(0).exec_batch, 1);
        assert_eq!(FuzzerConfig::droidfuzz(1).with_exec_batch(32).exec_batch, 32);
    }

    #[test]
    fn display_labels_match_paper() {
        assert_eq!(Variant::DroidFuzz.to_string(), "DroidFuzz");
        assert_eq!(Variant::DroidFuzzS.to_string(), "DroidFuzz-S");
        assert_eq!(Variant::NoRel.to_string(), "DF-NoRel");
        assert_eq!(Variant::NoHCov.to_string(), "DF-NoHCov");
        assert_eq!(Variant::DroidFuzzD.to_string(), "DroidFuzz-D");
    }
}
