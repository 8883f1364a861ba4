//! Injected bug models.
//!
//! A simulated configuration is "buggy" in exactly the ways §6 and Figures
//! 1–2 of the paper describe the real drivers to be.  Each [`BugRule`] pairs
//! a *trigger* — a static feature query over the program under test — with an
//! *effect*.  Wrong-code effects are realised as genuine AST-to-AST
//! transformations applied during simulated compilation, so the differential
//! and EMI harnesses detect them exactly as the paper's harness does: by
//! result mismatch, never by peeking at labels.

use clc::expr::{BinOp, Builtin, Expr};
use clc::stmt::{Initializer, Stmt};
use clc::types::{ScalarType, Type};
use clc::{Features, Program};

/// Whether a kernel is compiled with optimisations enabled (`i+`) or disabled
/// via `-cl-opt-disable` (`i-`), following the paper's notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// `-cl-opt-disable` (the paper's `i−`).
    Disabled,
    /// Default optimising compilation (the paper's `i+`).
    Enabled,
}

impl OptLevel {
    /// Both levels, disabled first (matching the column order of Table 4).
    pub const BOTH: [OptLevel; 2] = [OptLevel::Disabled, OptLevel::Enabled];

    /// The paper's suffix notation: `-` or `+`.
    pub fn suffix(self) -> &'static str {
        match self {
            OptLevel::Disabled => "-",
            OptLevel::Enabled => "+",
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.suffix())
    }
}

/// At which optimisation levels a rule is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptScope {
    /// Active regardless of optimisation level (the paper's `i±`).
    Any,
    /// Only when optimisations are enabled (`i+`).
    OnlyEnabled,
    /// Only when optimisations are disabled (`i−`).
    OnlyDisabled,
}

impl OptScope {
    /// Whether the scope covers the given level.
    pub fn covers(self, opt: OptLevel) -> bool {
        match self {
            OptScope::Any => true,
            OptScope::OnlyEnabled => opt == OptLevel::Enabled,
            OptScope::OnlyDisabled => opt == OptLevel::Disabled,
        }
    }
}

/// A concrete miscompiling transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Miscompilation {
    /// Figure 1(a) (AMD): structs whose first field is `char` followed by a
    /// wider member lose the wider member's initialiser.
    ZeroSecondFieldOfCharWiderStructInit,
    /// Figure 1(b) (anonymous GPU, `-cl-opt-disable`): whole-struct
    /// assignments are dropped, so later reads through a pointer see stale
    /// values.
    DropWholeStructAssignments,
    /// Figure 2(a) (NVIDIA, `-cl-opt-disable`): brace-initialised unions get
    /// garbage in their upper bytes.
    UnionInitializerGarbage,
    /// Figure 2(b) (Intel i5): `rotate(x, 0)` is constant-folded to all-ones.
    FoldRotateByZeroToAllOnes,
    /// Figures 1(d)/2(c) (Intel CPU `-`, anonymous CPU): in kernels that use
    /// barriers, stores through pointer parameters of non-inlined helper
    /// functions are lost.
    DropPointerWritesInCallees,
    /// Figure 2(f) (Oclgrind): the comma operator yields its left operand.
    CommaYieldsLhs,
    /// Figure 2(e) (anonymous GPU, `+`): comparisons with a group id operand
    /// are folded to false.
    GroupIdComparisonsFoldToFalse,
    /// §7.3 (Intel i7 `-`): the work-group vectoriser mishandles clamp/min/max
    /// in kernels that synchronise with barriers; `safe_clamp` collapses to
    /// its first argument.
    SkipClampNearBarriers,
    /// Generic wrong-code flake: the literal whose index is derived from the
    /// given salt is perturbed by one.  Used to model configurations with a
    /// measurable background miscompilation rate (e.g. configuration 9).
    PerturbLiteral(u64),
}

/// The observable effect of a triggered bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BugEffect {
    /// A miscompilation (wrong code).
    Miscompile(Miscompilation),
    /// The build fails with a diagnostic.
    BuildFailure(&'static str),
    /// The compiler hangs (Figure 1(e)) or is prohibitively slow
    /// (Figure 1(f)); the harness observes a timeout.
    CompileHang(&'static str),
    /// The compiled kernel crashes at runtime (or takes the machine down,
    /// which the paper counts in the same bucket during batch testing).
    RuntimeCrash(&'static str),
}

/// When a rule fires.
#[derive(Clone, Copy)]
pub enum Trigger {
    /// Fires on every program.
    Always,
    /// Fires when the predicate holds on the program's features.
    Feature(fn(&Features, &Program) -> bool),
}

impl std::fmt::Debug for Trigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trigger::Always => write!(f, "Always"),
            Trigger::Feature(_) => write!(f, "Feature(..)"),
        }
    }
}

/// One injected compiler bug.
#[derive(Debug, Clone)]
pub struct BugRule {
    /// Short identifier (used in reports).
    pub name: &'static str,
    /// Where the paper describes the bug (figure or section).
    pub reference: &'static str,
    /// Optimisation levels at which the bug manifests.
    pub opt: OptScope,
    /// Trigger condition.
    pub trigger: Trigger,
    /// Effect when triggered.
    pub effect: BugEffect,
}

impl BugRule {
    /// Whether the rule fires for this program at this optimisation level.
    pub fn applies(&self, features: &Features, program: &Program, opt: OptLevel) -> bool {
        if !self.opt.covers(opt) {
            return false;
        }
        match self.trigger {
            Trigger::Always => true,
            Trigger::Feature(f) => f(features, program),
        }
    }
}

/// Applies a miscompiling transformation to the program in place.
pub fn apply_miscompilation(program: &mut Program, bug: Miscompilation) {
    match bug {
        Miscompilation::ZeroSecondFieldOfCharWiderStructInit => {
            let victims: Vec<clc::StructId> = program
                .structs
                .iter()
                .enumerate()
                .filter(|(_, def)| {
                    !def.is_union
                        && matches!(
                            (def.fields.first(), def.fields.get(1)),
                            (Some(a), Some(b))
                                if matches!(&a.ty, Type::Scalar(s) if s.bits() == 8)
                                    && b.ty.scalar_elem().map(|s| s.bits() > 8).unwrap_or(false)
                        )
                })
                .map(|(i, _)| clc::StructId(i))
                .collect();
            if victims.is_empty() {
                return;
            }
            program.for_each_block_mut(&mut |block| {
                for stmt in &mut block.stmts {
                    if let Stmt::Decl {
                        ty: Type::Struct(id),
                        init_list: Some(Initializer::List(items)),
                        ..
                    } = stmt
                    {
                        if victims.contains(id) {
                            if let Some(second) = items.get_mut(1) {
                                *second = Initializer::Expr(Expr::int(0));
                            }
                        }
                    }
                }
            });
        }
        Miscompilation::DropWholeStructAssignments => {
            // Collect struct-typed locals, then delete `s = t` statements at
            // struct type.
            let mut struct_vars = std::collections::HashSet::new();
            program.for_each_stmt(&mut |s| {
                if let Stmt::Decl {
                    name,
                    ty: Type::Struct(_),
                    ..
                } = s
                {
                    struct_vars.insert(name.clone());
                }
            });
            program.for_each_block_mut(&mut |block| {
                block.stmts.retain(|stmt| {
                    !matches!(
                        stmt,
                        Stmt::Expr(Expr::Assign { op: clc::AssignOp::Assign, lhs, rhs })
                            if matches!(lhs.as_ref(), Expr::Var(l) if struct_vars.contains(l))
                                && matches!(rhs.as_ref(), Expr::Var(r) if struct_vars.contains(r))
                    )
                });
            });
        }
        Miscompilation::UnionInitializerGarbage => {
            let unions: Vec<clc::StructId> = program
                .structs
                .iter()
                .enumerate()
                .filter(|(_, d)| d.is_union)
                .map(|(i, _)| clc::StructId(i))
                .collect();
            if unions.is_empty() {
                return;
            }
            let union_field_types: Vec<Type> = unions.iter().map(|id| Type::Struct(*id)).collect();
            program.for_each_block_mut(&mut |block| {
                for stmt in &mut block.stmts {
                    if let Stmt::Decl {
                        ty,
                        init_list: Some(list),
                        ..
                    } = stmt
                    {
                        corrupt_union_inits(ty, list, &union_field_types);
                    }
                }
            });

            // Helper: `for_each_block_mut` holds a mutable borrow of the
            // program, so the corrupting walk is structural only: it uses
            // the type stored in the declaration (sufficient because nested
            // aggregate types are spelled out in the declaration type).
            fn corrupt_union_inits(ty: &Type, init: &mut Initializer, unions: &[Type]) {
                match (ty, init) {
                    (t, Initializer::List(items)) if unions.contains(t) => {
                        if let Some(Initializer::Expr(e)) = items.first_mut() {
                            *e = Expr::binary(
                                BinOp::BitOr,
                                e.clone(),
                                Expr::lit(0xffff_0000, ScalarType::UInt),
                            );
                        }
                    }
                    (Type::Array(elem, _), Initializer::List(items)) => {
                        for item in items {
                            corrupt_union_inits(elem, item, unions);
                        }
                    }
                    (Type::Struct(_), Initializer::List(items)) => {
                        // Without the field table we conservatively corrupt
                        // any nested list that *itself* wraps a further list —
                        // the Figure 2(a) shape `{{1}}`.
                        for item in items.iter_mut() {
                            if let Initializer::List(inner) = item {
                                if let Some(Initializer::List(innermost)) = inner.first_mut() {
                                    if let Some(Initializer::Expr(e)) = innermost.first_mut() {
                                        *e = Expr::binary(
                                            BinOp::BitOr,
                                            e.clone(),
                                            Expr::lit(0xffff_0000, ScalarType::UInt),
                                        );
                                    }
                                } else if let Some(Initializer::Expr(_)) = inner.first() {
                                    // plain nested struct — leave alone
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        Miscompilation::FoldRotateByZeroToAllOnes => {
            program.for_each_expr_mut(&mut |e| {
                if let Expr::BuiltinCall {
                    func: Builtin::Rotate,
                    args,
                } = e
                {
                    if args.len() == 2 && is_zero_valued(&args[1]) {
                        let x = args[0].clone();
                        *e =
                            Expr::binary(BinOp::BitOr, x, Expr::lit(0xffff_ffff, ScalarType::UInt));
                    }
                }
            });
        }
        Miscompilation::DropPointerWritesInCallees => {
            let mut pointer_params: Vec<Vec<String>> = Vec::new();
            for f in &program.functions {
                pointer_params.push(
                    f.params
                        .iter()
                        .filter(|p| p.ty.is_pointer())
                        .map(|p| p.name.clone())
                        .collect(),
                );
            }
            for (f, params) in program.functions.iter_mut().zip(pointer_params) {
                if params.is_empty() {
                    continue;
                }
                strip_pointer_param_stores(&mut f.body, &params);
            }

            fn strip_pointer_param_stores(block: &mut clc::Block, params: &[String]) {
                block.stmts.retain(|stmt| {
                    !matches!(
                        stmt,
                        Stmt::Expr(Expr::Assign { lhs, .. })
                            if assigns_through(lhs, params)
                    )
                });
                for stmt in &mut block.stmts {
                    match stmt {
                        Stmt::If {
                            then_block,
                            else_block,
                            ..
                        } => {
                            strip_pointer_param_stores(then_block, params);
                            if let Some(e) = else_block {
                                strip_pointer_param_stores(e, params);
                            }
                        }
                        Stmt::For { body, .. } | Stmt::While { body, .. } => {
                            strip_pointer_param_stores(body, params)
                        }
                        Stmt::Block(b) => strip_pointer_param_stores(b, params),
                        _ => {}
                    }
                }
            }

            fn assigns_through(lhs: &Expr, params: &[String]) -> bool {
                match lhs {
                    Expr::Field {
                        base, arrow: true, ..
                    }
                    | Expr::Deref(base) => {
                        matches!(base.as_ref(), Expr::Var(n) if params.contains(n))
                    }
                    Expr::Index { base, .. } => {
                        matches!(base.as_ref(), Expr::Var(n) if params.contains(n))
                    }
                    _ => false,
                }
            }
        }
        Miscompilation::CommaYieldsLhs => {
            program.for_each_expr_mut(&mut |e| {
                if let Expr::Comma { lhs, .. } = e {
                    *e = (**lhs).clone();
                }
            });
        }
        Miscompilation::GroupIdComparisonsFoldToFalse => {
            program.for_each_expr_mut(&mut |e| {
                if let Expr::Binary { op, lhs, rhs } = e {
                    if op.is_comparison() && (mentions_group_id(lhs) || mentions_group_id(rhs)) {
                        *e = Expr::int(0);
                    }
                }
            });
        }
        Miscompilation::SkipClampNearBarriers => {
            program.for_each_expr_mut(&mut |e| {
                if let Expr::BuiltinCall {
                    func: Builtin::SafeClamp,
                    args,
                } = e
                {
                    if let Some(x) = args.first() {
                        *e = x.clone();
                    }
                }
            });
        }
        Miscompilation::PerturbLiteral(salt) => {
            // Count the literals, pick one by the salt, add one to it.  The
            // hash-fold multiplier literals are skipped so the perturbation
            // lands on "real" program constants.
            let mut literals = 0usize;
            program.for_each_expr(&mut |e| {
                if matches!(e, Expr::IntLit { .. }) {
                    literals += 1;
                }
            });
            if literals == 0 {
                return;
            }
            let target = (salt as usize) % literals;
            let mut index = 0usize;
            program.for_each_expr_mut(&mut |e| {
                if let Expr::IntLit { value, ty } = e {
                    if index == target {
                        let perturbed = value.wrapping_add(1).clamp(ty.min_value(), ty.max_value());
                        *value = perturbed;
                    }
                    index += 1;
                }
            });
        }
    }
}

fn mentions_group_id(e: &Expr) -> bool {
    use clc::IdKind;
    fn direct(e: &Expr) -> bool {
        matches!(
            e,
            Expr::IdQuery(IdKind::GroupId(_)) | Expr::IdQuery(IdKind::GroupLinearId)
        )
    }
    match e {
        _ if direct(e) => true,
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => direct(expr),
        Expr::Binary { lhs, rhs, .. } => direct(lhs) || direct(rhs),
        _ => false,
    }
}

fn is_zero_valued(e: &Expr) -> bool {
    match e {
        Expr::IntLit { value, .. } => *value == 0,
        Expr::VectorLit { parts, .. } => parts.iter().all(is_zero_valued),
        Expr::Cast { expr, .. } => is_zero_valued(expr),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Common feature predicates used by the configurations.
// ---------------------------------------------------------------------------

/// Struct with a `char` first field followed by a wider member (Figure 1(a)).
pub fn has_char_then_wider_struct(f: &Features, _p: &Program) -> bool {
    f.struct_char_then_wider
}

/// Whole-struct assignment read back through a pointer, only when the first
/// NDRange dimension is 1 (the curious condition of Figure 1(b)).
pub fn struct_copy_with_unit_x_dimension(f: &Features, p: &Program) -> bool {
    f.whole_struct_assignment && f.struct_read_through_pointer && p.launch.global[0] == 1
}

/// Vector types appearing inside structs (Figure 1(c), Altera ICE).
pub fn has_vector_in_struct(f: &Features, _p: &Program) -> bool {
    f.vector_in_struct
}

/// Barrier plus helper-function stores through a struct pointer
/// (Figure 1(d) / 2(c)).
pub fn barrier_and_callee_pointer_store(f: &Features, _p: &Program) -> bool {
    f.barrier_count > 0 && f.struct_written_through_pointer_param
}

/// Barrier inside a forward-declared callee (Figure 2(c)).
pub fn barrier_in_forward_declared_callee(f: &Features, _p: &Program) -> bool {
    f.barrier_in_forward_declared_callee
}

/// `while (1)` nested under a `for` loop whose literal bound reaches 197
/// (Figure 1(e), the Intel HD compile hang).
pub fn deep_infinite_loop(f: &Features, _p: &Program) -> bool {
    f.has_infinite_loop && f.max_for_bound_over_infinite_loop >= 197
}

/// Large struct together with a barrier (Figure 1(f), Xeon Phi slow compile).
pub fn large_struct_with_barrier(f: &Features, _p: &Program) -> bool {
    f.max_struct_cells >= 24 && f.barrier_count > 0
}

/// Union initialised inside a struct initialiser (Figure 2(a)).
pub fn union_in_struct_initializer(f: &Features, _p: &Program) -> bool {
    f.union_in_initializer
}

/// `rotate` applied with a literal-zero rotation (Figure 2(b)).
pub fn rotate_by_zero(f: &Features, _p: &Program) -> bool {
    f.rotate_by_zero_literal
}

/// Comma operator in a condition (Figure 2(f)) or anywhere (the Oclgrind bug
/// affects any use of the operator).
pub fn uses_comma_operator(f: &Features, _p: &Program) -> bool {
    f.uses_comma
}

/// Group id used as a comparison operand (Figure 2(e)).
pub fn group_id_compared(f: &Features, _p: &Program) -> bool {
    f.group_id_in_comparison
}

/// `int` mixed with a `size_t` work-item id under an arithmetic/bitwise
/// operator (the configuration-15 front-end rejection of §6).
pub fn int_mixed_with_size_t(f: &Features, _p: &Program) -> bool {
    f.id_mixed_with_int
}

/// Logical operators applied to vectors (the Altera front-end rejection, §6).
pub fn vector_logical_ops(f: &Features, _p: &Program) -> bool {
    f.vector_logical_op
}

/// Kernels that synchronise with barriers (used for the Intel CPU barrier /
/// vectoriser bugs of §7.3 and the crash blow-ups of configurations 14/15).
pub fn uses_barriers(f: &Features, _p: &Program) -> bool {
    f.barrier_count > 0
}

/// Kernels making heavy use of barriers (two or more).
pub fn barrier_heavy(f: &Features, _p: &Program) -> bool {
    f.barrier_count >= 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use clc::{BufferSpec, Field, KernelDef, LaunchConfig, StructDef};

    fn base() -> Program {
        let mut p = Program::new(
            KernelDef {
                name: "k".into(),
                params: Program::standard_clsmith_params(0),
                body: clc::Block::new(),
            },
            LaunchConfig::single_group(2),
        );
        p.buffers
            .push(BufferSpec::result("out", ScalarType::ULong, 2));
        p
    }

    #[test]
    fn opt_scope_coverage() {
        assert!(OptScope::Any.covers(OptLevel::Enabled));
        assert!(OptScope::Any.covers(OptLevel::Disabled));
        assert!(OptScope::OnlyEnabled.covers(OptLevel::Enabled));
        assert!(!OptScope::OnlyEnabled.covers(OptLevel::Disabled));
        assert!(OptScope::OnlyDisabled.covers(OptLevel::Disabled));
        assert_eq!(OptLevel::Enabled.suffix(), "+");
    }

    #[test]
    fn char_wider_struct_initialiser_is_zeroed() {
        let mut p = base();
        let sid = p.add_struct(StructDef::new(
            "S",
            vec![
                Field::new("a", Type::Scalar(ScalarType::Char)),
                Field::new("b", Type::Scalar(ScalarType::Short)),
            ],
        ));
        p.kernel.body.push(Stmt::decl_init_list(
            "s",
            Type::Struct(sid),
            Initializer::of_exprs(vec![Expr::int(1), Expr::int(1)]),
        ));
        p.kernel.body.push(Stmt::assign(
            Expr::index(Expr::var("out"), Expr::int(0)),
            Expr::binary(
                BinOp::Add,
                Expr::field(Expr::var("s"), "a"),
                Expr::field(Expr::var("s"), "b"),
            ),
        ));
        let clean = clc_interp::run(&p).unwrap();
        assert_eq!(clean.output[0].as_u64(), 2);
        apply_miscompilation(&mut p, Miscompilation::ZeroSecondFieldOfCharWiderStructInit);
        let buggy = clc_interp::run(&p).unwrap();
        // The miscompiled kernel computes 1, as configurations 5+/6+/16+ do
        // in Figure 1(a).
        assert_eq!(buggy.output[0].as_u64(), 1);
    }

    #[test]
    fn rotate_by_zero_folds_to_all_ones() {
        let mut e = Expr::builtin(
            Builtin::Rotate,
            vec![
                Expr::lit(1, ScalarType::UInt),
                Expr::lit(0, ScalarType::UInt),
            ],
        );
        let mut p = base();
        p.kernel.body.push(Stmt::assign(
            Expr::index(Expr::var("out"), Expr::int(0)),
            e.clone(),
        ));
        apply_miscompilation(&mut p, Miscompilation::FoldRotateByZeroToAllOnes);
        let buggy = clc_interp::run(&p).unwrap();
        assert_eq!(buggy.output[0].as_u64(), 0xffff_ffff);
        // Non-zero rotations are untouched.
        e = Expr::builtin(
            Builtin::Rotate,
            vec![
                Expr::lit(1, ScalarType::UInt),
                Expr::lit(3, ScalarType::UInt),
            ],
        );
        let mut q = base();
        q.kernel
            .body
            .push(Stmt::assign(Expr::index(Expr::var("out"), Expr::int(0)), e));
        apply_miscompilation(&mut q, Miscompilation::FoldRotateByZeroToAllOnes);
        assert_eq!(clc_interp::run(&q).unwrap().output[0].as_u64(), 8);
    }

    #[test]
    fn comma_bug_changes_value() {
        let mut p = base();
        p.kernel.body.push(Stmt::assign(
            Expr::index(Expr::var("out"), Expr::int(0)),
            Expr::comma(Expr::int(7), Expr::int(3)),
        ));
        assert_eq!(clc_interp::run(&p).unwrap().output[0].as_u64(), 3);
        apply_miscompilation(&mut p, Miscompilation::CommaYieldsLhs);
        assert_eq!(clc_interp::run(&p).unwrap().output[0].as_u64(), 7);
    }

    #[test]
    fn group_id_comparison_folds_to_false() {
        let mut p = base();
        p.kernel.body.push(Stmt::decl(
            "x",
            Type::Scalar(ScalarType::Int),
            Some(Expr::int(0)),
        ));
        p.kernel.body.push(Stmt::if_then(
            Expr::binary(
                BinOp::Ne,
                Expr::binary(
                    BinOp::Sub,
                    Expr::var("x"),
                    Expr::IdQuery(clc::IdKind::GroupId(clc::Dim::X)),
                ),
                Expr::int(1),
            ),
            clc::Block::of(vec![Stmt::assign(Expr::var("x"), Expr::int(1))]),
        ));
        p.kernel.body.push(Stmt::assign(
            Expr::index(Expr::var("out"), Expr::int(0)),
            Expr::var("x"),
        ));
        assert_eq!(clc_interp::run(&p).unwrap().output[0].as_u64(), 1);
        apply_miscompilation(&mut p, Miscompilation::GroupIdComparisonsFoldToFalse);
        assert_eq!(clc_interp::run(&p).unwrap().output[0].as_u64(), 0);
    }

    #[test]
    fn literal_perturbation_changes_some_result() {
        let mut p = base();
        p.kernel.body.push(Stmt::assign(
            Expr::index(Expr::var("out"), Expr::int(0)),
            Expr::int(41),
        ));
        apply_miscompilation(&mut p, Miscompilation::PerturbLiteral(1));
        let r = clc_interp::run(&p).unwrap();
        // One of the two literals (index or value) was bumped; either way the
        // program changed.
        assert!(r.output[0].as_u64() == 42 || r.output.get(1).map(|s| s.as_u64()) == Some(41));
    }

    #[test]
    fn trigger_predicates_match_features() {
        let p = base();
        let f = Features::detect(&p);
        assert!(!has_char_then_wider_struct(&f, &p));
        assert!(!uses_barriers(&f, &p));
        let rule = BugRule {
            name: "always",
            reference: "-",
            opt: OptScope::OnlyEnabled,
            trigger: Trigger::Always,
            effect: BugEffect::BuildFailure("boom"),
        };
        assert!(rule.applies(&f, &p, OptLevel::Enabled));
        assert!(!rule.applies(&f, &p, OptLevel::Disabled));
    }
}
