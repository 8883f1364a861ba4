//! Optimization passes of the simulated OpenCL C compilers.
//!
//! These are genuine, semantics-preserving AST-to-AST transformations
//! (constant folding, dead-code elimination, trivial simplification).  They
//! run when a configuration compiles with optimisations enabled (the default
//! in OpenCL; `-cl-opt-disable` turns them off, §6 of the paper).  Their
//! correctness is checked by differential tests against the reference
//! emulator; the *bugs* that the paper's testing campaign finds live in
//! [`crate::miscompile`], not here.

use clc::expr::{BinOp, Expr, UnOp};
use clc::stmt::{Block, Stmt};
use clc::types::{ScalarType, Type};
use clc::Program;
use clc_interp::eval::{lift_builtin, scalar_binop};
use clc_interp::{Scalar, Value};

/// Runs the full optimisation pipeline in place.
pub fn optimize(program: &mut Program) {
    constant_fold(program);
    eliminate_dead_code(program);
    simplify(program);
    // Folding may expose more dead code and vice versa; one extra round is
    /* enough for the program shapes CLsmith produces. */
    constant_fold(program);
    eliminate_dead_code(program);
}

/// Folds operations whose operands are integer literals.
pub fn constant_fold(program: &mut Program) {
    program.for_each_expr_mut(&mut fold_expr);
}

fn literal_value(e: &Expr) -> Option<Scalar> {
    match e {
        Expr::IntLit { value, ty } => Some(Scalar::from_i128(*value, *ty)),
        _ => None,
    }
}

fn scalar_to_expr(s: Scalar) -> Expr {
    Expr::IntLit {
        value: if s.ty.is_signed() {
            s.as_i64() as i128
        } else {
            s.as_u64() as i128
        },
        ty: s.ty,
    }
}

fn fold_expr(e: &mut Expr) {
    let replacement = match e {
        Expr::Binary { op, lhs, rhs } => match (literal_value(lhs), literal_value(rhs)) {
            (Some(a), Some(b)) => {
                if op.is_logical() {
                    let v = match op {
                        BinOp::LAnd => a.is_true() && b.is_true(),
                        _ => a.is_true() || b.is_true(),
                    };
                    Some(Expr::int(i64::from(v)))
                } else {
                    scalar_binop(*op, a, b).ok().map(scalar_to_expr)
                }
            }
            _ => None,
        },
        Expr::Unary { op, expr } => literal_value(expr).map(|v| {
            let folded = match op {
                UnOp::Neg => Scalar::from_i128(-(v.as_i64() as i128), v.ty.promoted()),
                UnOp::LNot => Scalar::from_i128(i128::from(!v.is_true()), ScalarType::Int),
                UnOp::BitNot => Scalar::from_bits(!v.bits, v.ty.promoted()),
            };
            scalar_to_expr(folded)
        }),
        Expr::BuiltinCall { func, args } if !func.is_atomic() => {
            let literals: Option<Vec<Value>> = args
                .iter()
                .map(|a| literal_value(a).map(Value::Scalar))
                .collect();
            match literals {
                Some(values) if values.len() == func.arity() => lift_builtin(*func, &values)
                    .ok()
                    .and_then(|v| v.as_scalar())
                    .map(scalar_to_expr),
                _ => None,
            }
        }
        Expr::Cond {
            cond,
            then_expr,
            else_expr,
        } => literal_value(cond).map(|c| {
            if c.is_true() {
                (**then_expr).clone()
            } else {
                (**else_expr).clone()
            }
        }),
        Expr::Cast {
            ty: Type::Scalar(target),
            expr,
        } => literal_value(expr).map(|v| scalar_to_expr(v.convert(*target))),
        Expr::Comma { lhs, rhs } => {
            // The discarded operand can be dropped when it has no side
            // effects; the comma then folds to its right operand.
            if !lhs.has_side_effects() {
                Some((**rhs).clone())
            } else {
                None
            }
        }
        _ => None,
    };
    if let Some(new) = replacement {
        *e = new;
    }
}

/// Removes statically unreachable statements: branches with constant
/// conditions, loops that can never run, and code following a jump.
pub fn eliminate_dead_code(program: &mut Program) {
    program.for_each_block_mut(&mut |block| {
        let mut out: Vec<Stmt> = Vec::with_capacity(block.stmts.len());
        let mut unreachable = false;
        for stmt in block.stmts.drain(..) {
            if unreachable {
                continue;
            }
            match stmt {
                Stmt::If {
                    cond,
                    then_block,
                    else_block,
                } => match literal_value(&cond) {
                    Some(c) if c.is_true() => out.push(Stmt::Block(then_block)),
                    Some(_) => {
                        if let Some(e) = else_block {
                            out.push(Stmt::Block(e));
                        }
                    }
                    None => out.push(Stmt::If {
                        cond,
                        then_block,
                        else_block,
                    }),
                },
                Stmt::While { cond, body } => match literal_value(&cond) {
                    Some(c) if !c.is_true() => {}
                    _ => out.push(Stmt::While { cond, body }),
                },
                Stmt::For {
                    init,
                    cond,
                    update,
                    body,
                } => {
                    let never_runs = cond
                        .as_ref()
                        .and_then(literal_value)
                        .map(|c| !c.is_true())
                        .unwrap_or(false);
                    if never_runs {
                        // The initialiser may still have side effects
                        // (e.g. an assignment); keep it.
                        if let Some(init) = init {
                            if !matches!(*init, Stmt::Decl { .. }) {
                                out.push(*init);
                            }
                        }
                    } else {
                        out.push(Stmt::For {
                            init,
                            cond,
                            update,
                            body,
                        });
                    }
                }
                Stmt::Return(_) | Stmt::Break | Stmt::Continue => {
                    out.push(stmt);
                    unreachable = true;
                }
                other => out.push(other),
            }
        }
        block.stmts = out;
    });
}

/// Structural clean-ups: flattens nested bare blocks, removes empty `if`s and
/// self-assignments.
pub fn simplify(program: &mut Program) {
    program.for_each_block_mut(&mut |block| {
        let mut out: Vec<Stmt> = Vec::with_capacity(block.stmts.len());
        for stmt in block.stmts.drain(..) {
            match stmt {
                Stmt::Block(inner) => {
                    // Hoisting the contents of a bare block is only safe when
                    // it declares nothing (declarations are scoped).
                    if inner.stmts.iter().any(|s| matches!(s, Stmt::Decl { .. })) {
                        if !inner.is_empty() {
                            out.push(Stmt::Block(inner));
                        }
                    } else {
                        out.extend(inner.stmts);
                    }
                }
                Stmt::If {
                    cond,
                    then_block,
                    else_block,
                } => {
                    let else_empty = else_block.as_ref().map(Block::is_empty).unwrap_or(true);
                    if then_block.is_empty() && else_empty && !cond.has_side_effects() {
                        // if (c) {} with a pure condition: drop entirely.
                    } else {
                        out.push(Stmt::If {
                            cond,
                            then_block,
                            else_block,
                        });
                    }
                }
                Stmt::Expr(Expr::Assign { op, lhs, rhs })
                    if *lhs == *rhs && op.binop().is_none() =>
                {
                    // self-assignment x = x
                }
                other => out.push(other),
            }
        }
        block.stmts = out;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use clc::expr::{AssignOp, Builtin};
    use clc::{BufferSpec, KernelDef, LaunchConfig};

    fn program_with_body(body: Block) -> Program {
        let mut p = Program::new(
            KernelDef {
                name: "k".into(),
                params: Program::standard_clsmith_params(0),
                body,
            },
            LaunchConfig::single_group(4),
        );
        p.buffers
            .push(BufferSpec::result("out", ScalarType::ULong, 4));
        p
    }

    #[test]
    fn folds_literal_arithmetic_and_builtins() {
        let mut p = program_with_body(Block::of(vec![Stmt::assign(
            Expr::index(Expr::var("out"), Expr::int(0)),
            Expr::binary(
                BinOp::Add,
                Expr::binary(BinOp::Mul, Expr::int(6), Expr::int(7)),
                Expr::builtin(Builtin::SafeDiv, vec![Expr::int(10), Expr::int(0)]),
            ),
        )]));
        constant_fold(&mut p);
        let src = clc::print_program(&p);
        assert!(src.contains("(42 + 10)") || src.contains("52"), "{src}");
    }

    #[test]
    fn folding_preserves_safe_math_semantics() {
        // safe_div(x, 0) folds to x, exactly as the macro evaluates.
        let mut e = Expr::builtin(Builtin::SafeDiv, vec![Expr::int(-9), Expr::int(0)]);
        fold_expr(&mut e);
        assert_eq!(e, Expr::int(-9));
        // Division by zero through the raw operator must NOT fold (the
        // compiler may not introduce or hide UB).
        let mut raw = Expr::binary(BinOp::Div, Expr::int(-9), Expr::int(0));
        let before = raw.clone();
        fold_expr(&mut raw);
        assert_eq!(raw, before);
    }

    #[test]
    fn eliminates_constant_branches_and_dead_loops() {
        let mut p = program_with_body(Block::of(vec![
            Stmt::decl("x", Type::Scalar(ScalarType::Int), Some(Expr::int(0))),
            Stmt::if_else(
                Expr::int(0),
                Block::of(vec![Stmt::assign(Expr::var("x"), Expr::int(1))]),
                Block::of(vec![Stmt::assign(Expr::var("x"), Expr::int(2))]),
            ),
            Stmt::While {
                cond: Expr::int(0),
                body: Block::of(vec![Stmt::Break]),
            },
            Stmt::Return(None),
            Stmt::assign(Expr::var("x"), Expr::int(9)),
        ]));
        eliminate_dead_code(&mut p);
        let src = clc::print_program(&p);
        assert!(!src.contains("x = 1"));
        assert!(src.contains("x = 2"));
        assert!(!src.contains("while"));
        assert!(!src.contains("x = 9"));
    }

    #[test]
    fn simplify_flattens_blocks_and_drops_noops() {
        let mut p = program_with_body(Block::of(vec![
            Stmt::decl("x", Type::Scalar(ScalarType::Int), Some(Expr::int(0))),
            Stmt::Block(Block::of(vec![Stmt::assign(Expr::var("x"), Expr::int(3))])),
            Stmt::if_then(Expr::var("x"), Block::new()),
            Stmt::assign(Expr::var("x"), Expr::var("x")),
        ]));
        simplify(&mut p);
        assert_eq!(p.kernel.body.stmts.len(), 2);
    }

    #[test]
    fn full_pipeline_preserves_semantics_on_generated_programs() {
        use clsmith::{generate, GenMode, GeneratorOptions};
        for seed in 0..8u64 {
            for mode in [
                GenMode::Basic,
                GenMode::Vector,
                GenMode::Barrier,
                GenMode::All,
            ] {
                let opts = GeneratorOptions {
                    min_threads: 16,
                    max_threads: 48,
                    ..GeneratorOptions::new(mode, seed)
                };
                let program = generate(&opts);
                let reference = clc_interp::run(&program).expect("reference run");
                let mut optimized = program.clone();
                optimize(&mut optimized);
                let result = clc_interp::run(&optimized).expect("optimized run");
                assert_eq!(
                    reference.result_string, result.result_string,
                    "optimisation changed semantics for mode {mode} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn comma_with_side_effects_is_not_folded() {
        let mut e = Expr::comma(
            Expr::assign_op(AssignOp::AddAssign, Expr::var("x"), Expr::int(1)),
            Expr::int(5),
        );
        let before = e.clone();
        fold_expr(&mut e);
        assert_eq!(e, before);
        let mut pure = Expr::comma(Expr::var("x"), Expr::int(5));
        fold_expr(&mut pure);
        assert_eq!(pure, Expr::int(5));
    }
}
