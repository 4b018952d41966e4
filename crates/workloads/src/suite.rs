//! The benchmark suite registry (the paper's Table 3).

use arvi_isa::Program;
use std::fmt;

/// The suite registration seam: anything that can build a named, seeded
/// [`Program`] can be run wherever a benchmark runs — simulated live,
/// recorded to a trace, swept over experiment grids.
///
/// [`Benchmark`] implements it for the eight SPEC95-style models;
/// `arvi_synth::ScenarioSpec` implements it for synthetic scenarios.
pub trait WorkloadSource {
    /// The workload's name (used in results, tables and trace files).
    fn name(&self) -> &str;

    /// Builds the workload's program with the given input seed.
    fn program(&self, seed: u64) -> Program;
}

impl WorkloadSource for Benchmark {
    fn name(&self) -> &str {
        Benchmark::name(*self)
    }

    fn program(&self, seed: u64) -> Program {
        Benchmark::program(*self, seed)
    }
}

/// One of the eight SPEC95 integer benchmarks the paper evaluates,
/// reproduced here as a synthetic behavioural model: the original
/// binaries and reference inputs cannot be shipped or run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Parser/compiler state machines, wide static branch population.
    Gcc,
    /// LZW dictionary probing on locality-rich input.
    Compress,
    /// Board-scan evaluation: the suite's hardest branches.
    Go,
    /// Block transforms: loop-dominated with hoistable pixel tests.
    Ijpeg,
    /// Lisp list walking with value-exact evaluation decisions.
    Li,
    /// Microprocessor simulator: the `lookupdisasm` hash-chain kernel.
    M88ksim,
    /// Bytecode interpreter dispatch.
    Perl,
    /// Object-database validation: heavily biased checks.
    Vortex,
}

impl Benchmark {
    /// All eight benchmarks, in the paper's table order.
    pub fn all() -> [Benchmark; 8] {
        [
            Benchmark::Gcc,
            Benchmark::Compress,
            Benchmark::Go,
            Benchmark::Ijpeg,
            Benchmark::Li,
            Benchmark::M88ksim,
            Benchmark::Perl,
            Benchmark::Vortex,
        ]
    }

    /// The benchmark's canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Gcc => crate::gcc::NAME,
            Benchmark::Compress => crate::compress::NAME,
            Benchmark::Go => crate::go::NAME,
            Benchmark::Ijpeg => crate::ijpeg::NAME,
            Benchmark::Li => crate::li::NAME,
            Benchmark::M88ksim => crate::m88ksim::NAME,
            Benchmark::Perl => crate::perl::NAME,
            Benchmark::Vortex => crate::vortex::NAME,
        }
    }

    /// Parses a benchmark name.
    pub fn from_name(name: &str) -> Option<Benchmark> {
        Benchmark::all().into_iter().find(|b| b.name() == name)
    }

    /// Builds the benchmark's program with the given input seed.
    pub fn program(self, seed: u64) -> Program {
        match self {
            Benchmark::Gcc => crate::gcc::program(seed),
            Benchmark::Compress => crate::compress::program(seed),
            Benchmark::Go => crate::go::program(seed),
            Benchmark::Ijpeg => crate::ijpeg::program(seed),
            Benchmark::Li => crate::li::program(seed),
            Benchmark::M88ksim => crate::m88ksim::program(seed),
            Benchmark::Perl => crate::perl::program(seed),
            Benchmark::Vortex => crate::vortex::program(seed),
        }
    }

    /// The paper's Table 3 measurement window for the original SPEC95
    /// binary, in millions of instructions `(start, end)`. Reported for
    /// provenance; our synthetic models reach steady state much sooner
    /// (see [`Benchmark::default_window`]).
    pub fn paper_window_m(self) -> (u64, u64) {
        match self {
            Benchmark::Gcc => (200, 300),
            Benchmark::Compress => (3000, 3100),
            Benchmark::Go => (900, 1000),
            Benchmark::Ijpeg => (700, 800),
            Benchmark::Li => (400, 500),
            Benchmark::M88ksim => (150, 250),
            Benchmark::Perl => (700, 800),
            Benchmark::Vortex => (2400, 2500),
        }
    }

    /// The default `(warmup, measured)` dynamic instruction counts used by
    /// the experiment harness for this reproduction.
    pub fn default_window(self) -> (u64, u64) {
        (100_000, 500_000)
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arvi_isa::Emulator;

    #[test]
    fn all_eight_present_and_named() {
        // `into_iter()`: on a `&Benchmark` receiver, method resolution
        // would pick `WorkloadSource::name(&self)` and tie the returned
        // `&str` to the temporary array.
        let names: Vec<&str> = Benchmark::all().into_iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            vec!["gcc", "compress", "go", "ijpeg", "li", "m88ksim", "perl", "vortex"]
        );
    }

    #[test]
    fn from_name_round_trips() {
        for b in Benchmark::all() {
            assert_eq!(Benchmark::from_name(b.name()), Some(b));
        }
        assert_eq!(Benchmark::from_name("nope"), None);
    }

    #[test]
    fn every_program_builds_and_runs() {
        for b in Benchmark::all() {
            let t: Vec<_> = Emulator::new(b.program(42)).take(5_000).collect();
            assert_eq!(t.len(), 5_000, "{b} halted early");
            let branches = t.iter().filter(|d| d.is_branch()).count();
            assert!(branches > 100, "{b} has too few branches: {branches}");
        }
    }

    #[test]
    fn paper_windows_match_table_3() {
        assert_eq!(Benchmark::Compress.paper_window_m(), (3000, 3100));
        assert_eq!(Benchmark::M88ksim.paper_window_m(), (150, 250));
    }
}
