//! # clsmith — random differential and EMI testing for OpenCL compilers
//!
//! This crate is the Rust reproduction of the primary contribution of
//! *Many-Core Compiler Fuzzing* (PLDI 2015): **CLsmith**, a generator of
//! random, deterministic, communicating OpenCL kernels, together with the
//! paper's EMI (equivalence-modulo-inputs) testing machinery based on
//! injection of dead-by-construction code.
//!
//! * [`generate`] produces a random [`clc::Program`] from
//!   [`GeneratorOptions`]; the six [`GenMode`]s correspond to the paper's
//!   BASIC / VECTOR / BARRIER / ATOMIC SECTION / ATOMIC REDUCTION / ALL modes
//!   (§4).
//! * [`emi::prune_variant`] derives EMI variants with the *leaf*, *compound*
//!   and *lift* pruning strategies (§5); [`emi::inject_emi_blocks`] retrofits
//!   EMI blocks onto existing kernels such as the Parboil/Rodinia miniatures
//!   in the `parboil-rodinia` crate.
//!
//! Generated programs are deterministic and free of undefined behaviour by
//! construction, which is what makes majority voting (differential testing)
//! and variant agreement (EMI testing) sound oracles.
//!
//! ```
//! use clsmith::{generate, GenMode, GeneratorOptions};
//!
//! let program = generate(&GeneratorOptions::new(GenMode::Barrier, 42));
//! let source = clc::print_program(&program);
//! assert!(source.contains("barrier("));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod emi;
pub mod generator;
pub mod options;
pub mod rng;

pub use emi::{all_emi_blocks_dead, inject_emi_blocks, prune_variant, InjectionOptions};
pub use generator::{generate, Generator};
pub use options::{EmiOptions, GenMode, GeneratorOptions, PruneProbabilities};
pub use rng::{job_seed, Rng};

pub use clc_analyze::AnalysisReport;

/// Statically validates a generated (or retrofitted) program.
///
/// Campaigns call this before executing a kernel so that statically-invalid
/// kernels (barrier divergence, must-races, definite out-of-bounds accesses)
/// can be tallied and skipped instead of poisoning the differential vote,
/// and so the soundness differential can compare the static verdict against
/// the dynamic race detector.
pub fn validate(program: &clc::Program) -> AnalysisReport {
    clc_analyze::analyze(program)
}
