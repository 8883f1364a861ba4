//! The CLsmith random kernel generator (§4 of the paper).
//!
//! Programs are generated type-directed and by construction free of
//! undefined behaviour and nondeterminism:
//!
//! * all arithmetic that could overflow, divide by zero or shift out of
//!   range goes through the safe-math builtins (§4.1);
//! * work-item ids never appear in generator-chosen expressions — they are
//!   only used by the fixed communication idioms (§4.2, "Avoiding barrier
//!   divergence");
//! * barriers are only emitted at the top level of the kernel body, so no
//!   divergent control flow can surround them;
//! * every local variable is initialised at its declaration.
//!
//! The per-thread "globals struct" mirrors CLsmith's treatment of Csmith
//! globals (§4.1): OpenCL has no program-scope variables, so would-be
//! globals become fields of a struct that is passed by reference to every
//! helper function.  This is what makes CLsmith programs struct-heavy and
//! biased towards struct miscompilations, which the paper discusses at
//! length.

use crate::options::{EmiOptions, GeneratorOptions};
use crate::rng::{Rng, SliceRandom};
use clc::expr::{AssignOp, BinOp, Builtin, Expr, IdKind};
use clc::stmt::{Block, EmiBlock, Initializer, MemFence, Stmt};
use clc::types::{AddressSpace, Field, ScalarType, StructDef, StructId, Type, VectorWidth};
use clc::{BufferInit, BufferSpec, FunctionDef, KernelDef, LaunchConfig, Param, Program};

// Note on ATOMIC SECTION mode: the paper equips each group with a randomly
// sized pool of (counter, special value) pairs and lets sections pick a pair
// at random (§4.2).  If two sections share a counter, which section's body a
// given counter value triggers becomes schedule dependent — almost certainly
// the "bug in the implementation of atomic sections" that forced the authors
// to discard 1563 ATOMIC SECTION and 1622 ALL tests (§7.3).  We therefore give
// every section its own (counter, special value) pair.

/// Generates one random program from the given options.
///
/// The same options (including the seed) always produce the same program.
pub fn generate(options: &GeneratorOptions) -> Program {
    Generator::new(options.clone()).generate()
}

/// A convenience wrapper that pairs generation with its options.
#[derive(Debug)]
pub struct Generator {
    opts: GeneratorOptions,
    rng: Rng,
    name_counter: usize,
}

/// What the current function uses to reach the globals struct.
#[derive(Debug, Clone, PartialEq, Eq)]
enum GlobalsAccess {
    /// Kernel scope: a local value named `g`.
    Direct,
    /// Helper function scope: a pointer parameter named `gp`.
    ViaPointer,
}

/// Generation-time symbol pools for one function body.
#[derive(Debug, Clone)]
struct GenCtx {
    scalars: Vec<(String, ScalarType)>,
    vectors: Vec<(String, ScalarType, VectorWidth)>,
    /// Struct-typed locals (name, struct id).
    structs: Vec<(String, StructId)>,
    /// Pointer-to-struct locals (name, pointee struct id).
    struct_ptrs: Vec<(String, StructId)>,
    globals: GlobalsAccess,
    /// Whether we are generating inside a helper function (restricts calls).
    in_helper: bool,
    /// Whether the statements being generated are inside an EMI block (the
    /// code is dead, so jumps and heavier nesting are allowed).
    in_emi: bool,
    /// Whether we are directly inside a loop (break/continue are legal).
    in_loop: bool,
}

impl GenCtx {
    fn kernel() -> GenCtx {
        GenCtx {
            scalars: Vec::new(),
            vectors: Vec::new(),
            structs: Vec::new(),
            struct_ptrs: Vec::new(),
            globals: GlobalsAccess::Direct,
            in_helper: false,
            in_emi: false,
            in_loop: false,
        }
    }

    fn helper() -> GenCtx {
        GenCtx {
            globals: GlobalsAccess::ViaPointer,
            in_helper: true,
            ..GenCtx::kernel()
        }
    }

    fn checkpoint(&self) -> (usize, usize, usize, usize) {
        (
            self.scalars.len(),
            self.vectors.len(),
            self.structs.len(),
            self.struct_ptrs.len(),
        )
    }

    fn restore(&mut self, cp: (usize, usize, usize, usize)) {
        self.scalars.truncate(cp.0);
        self.vectors.truncate(cp.1);
        self.structs.truncate(cp.2);
        self.struct_ptrs.truncate(cp.3);
    }
}

/// Description of the globals struct, shared between the kernel and helpers.
#[derive(Debug, Clone)]
struct GlobalsInfo {
    id: StructId,
    scalar_fields: Vec<(String, ScalarType)>,
    vector_fields: Vec<(String, ScalarType, VectorWidth)>,
}

/// How the BARRIER-mode shared array is allocated (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SharedArrayKind {
    Local,
    Global,
}

impl Generator {
    /// Creates a generator.
    pub fn new(opts: GeneratorOptions) -> Generator {
        let rng = Rng::seed_from_u64(opts.seed);
        Generator {
            opts,
            rng,
            name_counter: 0,
        }
    }

    /// Generates the program.
    pub fn generate(mut self) -> Program {
        let launch = self.pick_launch();
        let mut program = Program::new(
            KernelDef {
                name: "entry".into(),
                params: Vec::new(),
                body: Block::new(),
            },
            launch,
        );

        let globals = self.make_globals_struct(&mut program);
        let extra_structs = self.make_extra_structs(&mut program);
        self.make_helper_functions(&mut program, &globals, &extra_structs);

        let mode = self.opts.mode;
        let w_linear = launch.group_size();
        let n_linear = launch.total_work_items();
        let num_groups = launch.total_groups();

        // Decide mode-specific plumbing before building the body.
        let shared_kind = if mode.uses_barrier_comm() {
            if self.rng.gen_bool(0.5) {
                Some(SharedArrayKind::Local)
            } else {
                Some(SharedArrayKind::Global)
            }
        } else {
            None
        };
        if mode.uses_barrier_comm() {
            program.permutations = (0..self.opts.permutation_rows)
                .map(|_| {
                    let mut perm: Vec<u32> = (0..w_linear as u32).collect();
                    perm.shuffle(&mut self.rng);
                    perm
                })
                .collect();
        }

        // Kernel parameters and buffers.
        let emi = self.opts.emi.clone();
        let dead_len = emi.as_ref().map(|e| e.dead_len).unwrap_or(0);
        program.dead_len = dead_len;
        let mut params = Program::standard_clsmith_params(dead_len);
        program
            .buffers
            .push(BufferSpec::result("out", ScalarType::ULong, n_linear));
        if dead_len > 0 {
            program.buffers.push(BufferSpec::new(
                "dead",
                ScalarType::Int,
                dead_len,
                BufferInit::Iota,
            ));
        }
        if shared_kind == Some(SharedArrayKind::Global) {
            params.push(Param::new(
                "A_global",
                Type::Scalar(ScalarType::UInt).pointer_to(AddressSpace::Global),
            ));
            program.buffers.push(BufferSpec::new(
                "A_global",
                ScalarType::UInt,
                n_linear.max(num_groups * w_linear),
                BufferInit::Fill(1),
            ));
        }
        let section_slots = self.opts.atomic_sections.max(1);
        if mode.uses_atomic_sections() {
            params.push(Param::new(
                "sec_counters",
                Type::Scalar(ScalarType::UInt).pointer_to(AddressSpace::Global),
            ));
            params.push(Param::new(
                "sec_specials",
                Type::Scalar(ScalarType::UInt).pointer_to(AddressSpace::Global),
            ));
            let len = num_groups * section_slots;
            program.buffers.push(BufferSpec::new(
                "sec_counters",
                ScalarType::UInt,
                len,
                BufferInit::Zero,
            ));
            program.buffers.push(BufferSpec::new(
                "sec_specials",
                ScalarType::UInt,
                len,
                BufferInit::Zero,
            ));
        }
        if mode.uses_atomic_reductions() {
            params.push(Param::new(
                "red",
                Type::Scalar(ScalarType::UInt).pointer_to(AddressSpace::Global),
            ));
            program.buffers.push(BufferSpec::new(
                "red",
                ScalarType::UInt,
                num_groups,
                BufferInit::Zero,
            ));
        }
        program.kernel.params = params;

        // Build the kernel body.
        let mut ctx = GenCtx::kernel();
        let mut body = Block::new();

        // Globals struct instance.
        body.push(self.globals_decl(&globals));

        // Extra struct locals (and pointers to them).
        for &sid in &extra_structs {
            let (decl, extras) = self.struct_local_decl(&mut ctx, &program, sid);
            body.push(decl);
            for stmt in extras {
                body.push(stmt);
            }
        }

        // A few scalar / vector locals.
        for _ in 0..3 {
            body.push(self.scalar_local_decl(&mut ctx));
        }
        if mode.uses_vectors() {
            for _ in 0..2 {
                body.push(self.vector_local_decl(&mut ctx));
            }
        }

        // BARRIER-mode prelude.
        let shared_lvalue = shared_kind.map(|kind| {
            let (stmts, lvalue) = self.barrier_prelude(kind, w_linear);
            for s in stmts {
                body.push(s);
            }
            lvalue
        });

        // ATOMIC REDUCTION running total.
        if mode.uses_atomic_reductions() {
            body.push(Stmt::decl(
                "total",
                Type::Scalar(ScalarType::UInt),
                Some(Expr::lit(0, ScalarType::UInt)),
            ));
        }

        // The main statement soup: random statements with the communication
        // idioms and EMI blocks interleaved at top level.
        let mut items: Vec<Stmt> = Vec::new();
        for _ in 0..self.opts.block_statements {
            let stmt = self.gen_stmt(&mut ctx, &program, &globals, shared_lvalue.as_ref(), 1);
            items.push(stmt);
        }
        if mode.uses_barrier_comm() {
            let fence = if shared_kind == Some(SharedArrayKind::Local) {
                MemFence::Local
            } else {
                MemFence::Global
            };
            for _ in 0..self.opts.barrier_sync_points {
                let rnd = self.rng.gen_range(0..self.opts.permutation_rows);
                items.push(Stmt::Barrier(fence));
                items.push(Stmt::assign(
                    Expr::var("A_offset"),
                    Expr::index(
                        Expr::index(Expr::var("permutations"), Expr::int(rnd as i64)),
                        Expr::IdQuery(IdKind::LocalLinearId),
                    ),
                ));
            }
        }
        if mode.uses_atomic_sections() {
            for i in 0..self.opts.atomic_sections {
                items.push(self.atomic_section(i, section_slots, w_linear));
            }
        }
        if mode.uses_atomic_reductions() {
            for _ in 0..self.opts.atomic_reductions {
                items.push(self.atomic_reduction(&mut ctx));
            }
        }
        if let Some(emi_opts) = &emi {
            let emi_opts = emi_opts.clone();
            let count = self
                .rng
                .gen_range(emi_opts.min_blocks..=emi_opts.max_blocks);
            for index in 0..count {
                let block = self.gen_emi_block(&mut ctx, &program, &globals, index, &emi_opts);
                items.push(Stmt::Emi(block));
            }
        }
        items.shuffle(&mut self.rng);
        for stmt in items {
            body.push(stmt);
        }

        // Result accumulation.
        body.push(Stmt::decl(
            "result",
            Type::Scalar(ScalarType::ULong),
            Some(Expr::lit(0, ScalarType::ULong)),
        ));
        let mut hash_exprs: Vec<Expr> = Vec::new();
        for (name, _) in &globals.scalar_fields {
            hash_exprs.push(Expr::field(Expr::var("g"), name.clone()));
        }
        for (name, _, _) in &globals.vector_fields {
            hash_exprs.push(Expr::lane(Expr::field(Expr::var("g"), name.clone()), 0));
            hash_exprs.push(Expr::lane(Expr::field(Expr::var("g"), name.clone()), 1));
        }
        for (name, ty) in ctx.scalars.clone() {
            let _ = ty;
            hash_exprs.push(Expr::var(name));
        }
        for (name, _sid) in ctx.structs.clone() {
            // Hash the first scalar field of each struct local.
            let sid = _sid;
            if let Some(field) = program
                .struct_def(sid)
                .fields
                .iter()
                .find(|f| f.ty.is_scalar())
            {
                hash_exprs.push(Expr::field(Expr::var(name), field.name.clone()));
            }
        }
        if let Some(lvalue) = &shared_lvalue {
            hash_exprs.push(lvalue.clone());
        }
        if mode.uses_atomic_reductions() {
            hash_exprs.push(Expr::var("total"));
        }
        for e in hash_exprs {
            body.push(Stmt::assign(
                Expr::var("result"),
                Expr::binary(
                    BinOp::Add,
                    Expr::binary(
                        BinOp::Mul,
                        Expr::var("result"),
                        Expr::lit(31, ScalarType::ULong),
                    ),
                    Expr::cast(Type::Scalar(ScalarType::ULong), e),
                ),
            ));
        }
        // ATOMIC SECTION epilogue: after a final barrier, the group leader
        // folds the per-group special values into its result (§4.2).
        if mode.uses_atomic_sections() {
            body.push(Stmt::Barrier(MemFence::Global));
            let mut leader_block = Block::new();
            for slot in 0..section_slots {
                leader_block.push(Stmt::assign(
                    Expr::var("result"),
                    Expr::binary(
                        BinOp::Add,
                        Expr::var("result"),
                        Expr::cast(
                            Type::Scalar(ScalarType::ULong),
                            Expr::index(
                                Expr::var("sec_specials"),
                                self.group_slot_index(slot, section_slots),
                            ),
                        ),
                    ),
                ));
            }
            body.push(Stmt::if_then(
                Expr::binary(
                    BinOp::Eq,
                    Expr::IdQuery(IdKind::LocalLinearId),
                    Expr::lit(0, ScalarType::UInt),
                ),
                leader_block,
            ));
        }
        body.push(Stmt::assign(
            Expr::index(Expr::var("out"), Expr::IdQuery(IdKind::GlobalLinearId)),
            Expr::var("result"),
        ));

        program.kernel.body = body;
        program
    }

    // ----- naming -------------------------------------------------------

    fn fresh(&mut self, prefix: &str) -> String {
        self.name_counter += 1;
        format!("{prefix}_{}", self.name_counter)
    }
}

mod exprs;
mod idioms;
mod launch;
mod stmts;
mod structure;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{GenMode, GeneratorOptions};

    #[test]
    fn divisors_are_correct() {
        let mut d = launch::divisors(12);
        d.sort_unstable();
        assert_eq!(d, vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(launch::divisors(1), vec![1]);
        let mut p = launch::divisors(97);
        p.sort_unstable();
        assert_eq!(p, vec![1, 97]);
    }

    #[test]
    fn generation_is_deterministic() {
        let opts = GeneratorOptions::new(GenMode::All, 1234).with_emi();
        let a = generate(&opts);
        let b = generate(&opts);
        assert_eq!(a, b);
        let c = generate(&GeneratorOptions::new(GenMode::All, 1235).with_emi());
        assert_ne!(a, c);
    }

    #[test]
    fn launch_configs_respect_constraints() {
        for seed in 0..30 {
            let opts = GeneratorOptions::new(GenMode::Basic, seed);
            let p = generate(&opts);
            assert!(p.launch.validate().is_ok(), "seed {seed}: {:?}", p.launch);
            let total = p.launch.total_work_items();
            assert!(total >= opts.min_threads && total < opts.max_threads);
            assert!(p.launch.group_size() <= 256);
        }
    }

    #[test]
    fn generated_programs_typecheck() {
        for seed in 0..20 {
            for mode in GenMode::ALL {
                let opts = GeneratorOptions::new(mode, seed);
                let p = generate(&opts);
                if let Err(e) = clc::check_program(&p) {
                    panic!("seed {seed} mode {mode}: {e}\n{}", clc::print_program(&p));
                }
            }
        }
    }

    #[test]
    fn barrier_modes_emit_barriers_and_basic_does_not() {
        let barrier = generate(&GeneratorOptions::new(GenMode::Barrier, 7));
        assert!(barrier.kernel.body.contains_barrier());
        assert!(!barrier.permutations.is_empty());
        let basic = generate(&GeneratorOptions::new(GenMode::Basic, 7));
        assert!(!basic.kernel.body.contains_barrier());
        assert!(basic.permutations.is_empty());
    }

    #[test]
    fn atomic_modes_declare_their_buffers() {
        let section = generate(&GeneratorOptions::new(GenMode::AtomicSection, 9));
        assert!(section.buffer_for("sec_counters").is_some());
        assert!(section.buffer_for("sec_specials").is_some());
        let reduction = generate(&GeneratorOptions::new(GenMode::AtomicReduction, 9));
        assert!(reduction.buffer_for("red").is_some());
        let features = clc::Features::detect(&reduction);
        assert!(features.atomic_count > 0);
    }

    #[test]
    fn emi_blocks_are_dead_by_construction() {
        for seed in 0..10 {
            let opts = GeneratorOptions::new(GenMode::All, seed).with_emi();
            let p = generate(&opts);
            let blocks = p.emi_blocks();
            assert!(!blocks.is_empty(), "seed {seed} generated no EMI blocks");
            assert!(blocks.iter().all(|b| b.is_dead_by_construction()));
            assert!(p.has_dead_array());
            assert!(p.buffer_for("dead").is_some());
        }
    }

    #[test]
    fn generated_ids_only_in_controlled_idioms() {
        // The generator must not emit thread ids in arbitrary expressions:
        // every id use must be part of a fixed idiom (out index, permutation
        // lookup, group-slot indexing, leader checks).  We check a weaker
        // but still useful invariant: no id query appears as an operand of a
        // generated comparison other than equality-with-zero leader checks.
        let p = generate(&GeneratorOptions::new(GenMode::All, 21));
        let features = clc::Features::detect(&p);
        assert!(!features.group_id_in_comparison);
    }

    #[test]
    fn printed_programs_contain_expected_structure() {
        let p = generate(&GeneratorOptions::new(GenMode::All, 3).with_emi());
        let src = clc::print_program(&p);
        assert!(src.contains("struct Globals"));
        assert!(src.contains("kernel void entry"));
        assert!(src.contains("out["));
        assert!(src.contains("dead["));
        assert!(src.contains("safe_"));
    }
}
