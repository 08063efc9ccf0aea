//! Stack-based postfix interpreter for instruction semantics.
//!
//! Each instruction descriptor carries an `interpretableAs` string (paper
//! Listing 1), e.g. `"\rs1 \rs2 + \rd ="` for `add`.  Tokens are separated by
//! whitespace:
//!
//! * `\name` — pushes the value bound to argument `name` (`rs1`, `imm`, `pc`, …).
//!   When followed by `=`, the token instead names the assignment target.
//! * integer / float literals — pushed as constants.
//! * binary and unary operators — see [`crate::value::binary_op`] and
//!   [`crate::value::unary_op`].
//! * `=` — pops a value and records an assignment to the preceding argument
//!   reference (the paper's "binary operator `=` with a side effect").
//!
//! The evaluator produces an [`EvalOutput`]: the value left on the stack (used
//! for branch conditions and effective addresses) plus the list of assignment
//! side effects (used for register write-back).
//!
//! The simulators run [`CompiledExpr`], the same expression decoded once:
//! operators become function pointers and argument names become slots of a
//! fixed operand array, resolved when the expression is compiled.  The
//! string [`Evaluator`] is the reference the compiled form is tested
//! against.

use crate::intern::Sym;
use crate::types::Exception;
use crate::value::{binary_op, unary_op, TypedValue};
use std::collections::HashMap;

/// Result of evaluating one semantics expression.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EvalOutput {
    /// Value left on the stack after evaluation, if any.  Branch instructions
    /// leave their taken/not-taken condition here; address expressions leave
    /// the effective address.
    pub result: Option<TypedValue>,
    /// Assignment side effects, in evaluation order: `(argument name, value)`.
    pub assignments: Vec<(String, TypedValue)>,
}

/// Postfix expression evaluator with named argument bindings.
#[derive(Debug, Clone, Default)]
pub struct Evaluator {
    bindings: HashMap<String, TypedValue>,
}

/// A pre-resolved binary operator implementation.
pub(crate) type BinFn = fn(TypedValue, TypedValue) -> Result<TypedValue, Exception>;
/// A pre-resolved unary operator implementation.
pub(crate) type UnFn = fn(TypedValue) -> Result<TypedValue, Exception>;

// Each table entry pairs the token with a monomorphic wrapper whose token is
// a literal, so the string match inside `binary_op`/`unary_op` constant-folds
// away: compiled expressions dispatch operators through a direct call, never
// by re-matching the token string at run time.
macro_rules! op_tables {
    (bin: [$($b:literal),* $(,)?], un: [$($u:literal),* $(,)?]) => {
        const UNARY_OPS: &[&str] = &[$($u),*];
        const BINARY_OPS: &[&str] = &[$($b),*];
        const BINARY_FNS: &[(&str, BinFn)] =
            &[$(($b, (|a, b| binary_op($b, a, b)) as BinFn)),*];
        const UNARY_FNS: &[(&str, UnFn)] = &[$(($u, (|a| unary_op($u, a)) as UnFn)),*];
    };
}

op_tables! {
    bin: [
        "+", "-", "*", "/", "%", "u/", "u%", "mulh", "mulhu", "mulhsu", "&", "|", "^", "<<",
        ">>", ">>>", "<", "u<", ">", "u>", "<=", ">=", "u>=", "u<=", "==", "!=", "f+", "f-",
        "f*", "f/", "fmin", "fmax", "f==", "f<", "f<=", "fsgnj", "fsgnjn", "fsgnjx", "d+",
        "d-", "d*", "d/", "dmin", "dmax", "d==", "d<", "d<=",
    ],
    un: [
        "!", "neg", "not", "sext8", "sext16", "zext8", "zext16", "fsqrt", "dsqrt", "fneg",
        "fabs", "i2f", "u2f", "f2i", "f2u", "i2d", "u2d", "d2i", "d2u", "f2d", "d2f",
        "bits2f", "f2bits",
    ]
}

impl Evaluator {
    /// Create an evaluator with no bindings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind argument `name` to `value`.  Typically called for `rs1`, `rs2`,
    /// `imm`, `pc`, and the old value of `rd`.
    pub fn bind(&mut self, name: &str, value: TypedValue) {
        self.bindings.insert(name.to_string(), value);
    }

    /// Look up a binding.
    pub fn get(&self, name: &str) -> Option<TypedValue> {
        self.bindings.get(name).copied()
    }

    /// Remove all bindings so the evaluator can be reused.
    pub fn clear(&mut self) {
        self.bindings.clear();
    }

    /// Evaluate `expr` and return the stack result plus assignments.
    pub fn run(&self, expr: &str) -> Result<EvalOutput, Exception> {
        // The stack holds either plain values or argument references; a
        // reference is only resolved when consumed by an operator, so that
        // `\rd =` can treat it as an assignment *target*.
        enum Slot {
            Value(TypedValue),
            ArgRef(String),
        }

        let mut stack: Vec<Slot> = Vec::with_capacity(8);
        let mut out = EvalOutput::default();

        let resolve =
            |slot: Slot, bindings: &HashMap<String, TypedValue>| -> Result<TypedValue, Exception> {
                match slot {
                    Slot::Value(v) => Ok(v),
                    Slot::ArgRef(name) => bindings.get(&name).copied().ok_or_else(|| {
                        Exception::Interpreter(format!("unbound argument `\\{name}`"))
                    }),
                }
            };

        for token in expr.split_whitespace() {
            if let Some(name) = token.strip_prefix('\\') {
                stack.push(Slot::ArgRef(name.to_string()));
            } else if token == "=" {
                // Assignment: top of stack is the target reference, below it
                // the value to assign.
                let target = stack
                    .pop()
                    .ok_or_else(|| Exception::Interpreter("`=` with empty stack".to_string()))?;
                let name = match target {
                    Slot::ArgRef(name) => name,
                    Slot::Value(_) => {
                        return Err(Exception::Interpreter(
                            "`=` target must be an argument reference".to_string(),
                        ))
                    }
                };
                let value_slot = stack.pop().ok_or_else(|| {
                    Exception::Interpreter("`=` missing value operand".to_string())
                })?;
                let value = resolve(value_slot, &self.bindings)?;
                out.assignments.push((name, value));
            } else if BINARY_OPS.contains(&token) {
                let b = stack.pop().ok_or_else(|| {
                    Exception::Interpreter(format!("`{token}` missing right operand"))
                })?;
                let a = stack.pop().ok_or_else(|| {
                    Exception::Interpreter(format!("`{token}` missing left operand"))
                })?;
                let a = resolve(a, &self.bindings)?;
                let b = resolve(b, &self.bindings)?;
                stack.push(Slot::Value(binary_op(token, a, b)?));
            } else if UNARY_OPS.contains(&token) {
                let a = stack
                    .pop()
                    .ok_or_else(|| Exception::Interpreter(format!("`{token}` missing operand")))?;
                let a = resolve(a, &self.bindings)?;
                stack.push(Slot::Value(unary_op(token, a)?));
            } else if let Ok(v) = token.parse::<i64>() {
                stack.push(Slot::Value(TypedValue::int(v as i32)));
            } else if let Ok(v) = token.parse::<f32>() {
                stack.push(Slot::Value(TypedValue::float(v)));
            } else {
                return Err(Exception::Interpreter(format!("unknown token `{token}`")));
            }
        }

        if let Some(top) = stack.pop() {
            out.result = Some(resolve(top, &self.bindings)?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Compiled expressions: decode-once, allocation-free evaluation
// ---------------------------------------------------------------------------

/// Maximum evaluation-stack depth a compiled expression may need.  The
/// built-in table peaks at 4; user expressions beyond this are rejected at
/// compile time instead of overflowing at runtime.
const MAX_STACK: usize = 16;

/// Most operand slots an expression reads: three register sources, two
/// immediates and the pc.
pub const MAX_OPERANDS: usize = 6;

/// The operand values of one evaluation, indexed by slot.
pub type Operands = [TypedValue; MAX_OPERANDS];

/// One pre-decoded operation of a compiled postfix expression.  Operators
/// are resolved to direct function pointers and argument names to operand
/// slots at compile time, so evaluation never re-matches a token string or
/// searches for a name.
#[derive(Debug, Clone, Copy)]
enum COp {
    /// Push the operand in a slot.
    Arg(u8),
    /// An argument with no operand slot: raises the string evaluator's
    /// "unbound argument" exception when run.
    Unbound(Sym),
    /// Push a constant.
    Const(TypedValue),
    /// Pop two values, apply the binary operator, push the result.
    Bin(BinFn),
    /// Apply the binary operator to two operands and push the result: the
    /// `Arg Arg Bin` sequence of most semantics, fused at compile time.
    BinArgs(u8, u8, BinFn),
    /// Pop one value, apply the unary operator, push the result.
    Un(UnFn),
    /// Pop one value; the first assignment is the expression's assigned
    /// value.
    Assign,
}

/// A postfix semantics expression compiled to a flat op sequence.
///
/// Compilation happens once per instruction descriptor (at predecode time)
/// against the descriptor's operand layout: a list of argument names whose
/// positions are the operand slots.  Each `\name` resolves to the last slot
/// that carries the name, the precedence of binding the names in layout
/// order.  Evaluation is then a tight loop over compiled ops with a
/// fixed-size value stack, indexing a fixed operand array: no tokenizing,
/// no name search, no heap.
///
/// For well-formed expressions (every built-in descriptor, and anything a
/// reasonable user set contains) [`CompiledExpr::run`] produces exactly the
/// same result, first assignment and exception as [`Evaluator::run`] on the
/// source string with the layout's names bound to the operand values.  The
/// compiled path is deliberately stricter on degenerate inputs: argument
/// references are resolved when *pushed* (an unbound ref the string
/// evaluator would have left unconsumed becomes an "unbound argument"
/// error), and expressions needing more than 16 stack slots are rejected at
/// compile time instead of executing.
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    ops: Box<[COp]>,
}

/// Result of evaluating a [`CompiledExpr`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompiledOutput {
    /// Value left on the stack after evaluation, if any.
    pub result: Option<TypedValue>,
    /// Value of the expression's first assignment, if any.
    pub assigned: Option<TypedValue>,
}

impl CompiledExpr {
    /// Compile `expr` against an operand layout: `slots[i]` names the
    /// argument whose value [`CompiledExpr::run`] finds in operand slot `i`.
    /// Structural errors (unknown tokens, stack underflow, malformed `=`) are
    /// reported here with the same messages the string evaluator would
    /// produce at runtime.
    pub fn compile(expr: &str, slots: &[Sym]) -> Result<CompiledExpr, Exception> {
        if slots.len() > MAX_OPERANDS {
            return Err(Exception::Interpreter(format!("more than {MAX_OPERANDS} operand slots")));
        }
        let tokens: Vec<&str> = expr.split_whitespace().collect();
        let mut ops = Vec::with_capacity(tokens.len());
        let mut depth = 0usize;
        let mut i = 0;

        let underflow = |msg: String| Err::<(), Exception>(Exception::Interpreter(msg));
        while i < tokens.len() {
            let token = tokens[i];
            if let Some(name) = token.strip_prefix('\\') {
                // `\name =` assigns; any other use resolves and pushes.
                if tokens.get(i + 1) == Some(&"=") {
                    if depth == 0 {
                        underflow("`=` missing value operand".to_string())?;
                    }
                    depth -= 1;
                    ops.push(COp::Assign);
                    i += 2;
                    continue;
                }
                depth += 1;
                let sym = Sym::new(name);
                ops.push(match slots.iter().rposition(|&s| s == sym) {
                    Some(slot) => COp::Arg(slot as u8),
                    None => COp::Unbound(sym),
                });
            } else if token == "=" {
                // An `=` whose target was not an argument reference.
                if depth == 0 {
                    underflow("`=` with empty stack".to_string())?;
                }
                return Err(Exception::Interpreter(
                    "`=` target must be an argument reference".to_string(),
                ));
            } else if let Some(&(_, op)) = BINARY_FNS.iter().find(|(t, _)| *t == token) {
                if depth < 1 {
                    underflow(format!("`{token}` missing right operand"))?;
                }
                if depth < 2 {
                    underflow(format!("`{token}` missing left operand"))?;
                }
                depth -= 1;
                match ops[..] {
                    [.., COp::Arg(a), COp::Arg(b)] => {
                        ops.truncate(ops.len() - 2);
                        ops.push(COp::BinArgs(a, b, op));
                    }
                    _ => ops.push(COp::Bin(op)),
                }
            } else if let Some(&(_, op)) = UNARY_FNS.iter().find(|(t, _)| *t == token) {
                if depth < 1 {
                    underflow(format!("`{token}` missing operand"))?;
                }
                ops.push(COp::Un(op));
            } else if let Ok(v) = token.parse::<i64>() {
                depth += 1;
                ops.push(COp::Const(TypedValue::int(v as i32)));
            } else if let Ok(v) = token.parse::<f32>() {
                depth += 1;
                ops.push(COp::Const(TypedValue::float(v)));
            } else {
                return Err(Exception::Interpreter(format!("unknown token `{token}`")));
            }
            if depth > MAX_STACK {
                return Err(Exception::Interpreter(format!(
                    "expression needs more than {MAX_STACK} stack slots"
                )));
            }
            i += 1;
        }
        Ok(CompiledExpr { ops: ops.into_boxed_slice() })
    }

    /// True when the expression performs no operations (compiled from an
    /// empty string).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Evaluate with `operands` in the slots of the layout the expression
    /// was compiled against.
    pub fn run(&self, operands: &Operands) -> Result<CompiledOutput, Exception> {
        let mut stack = [TypedValue::default(); MAX_STACK];
        let mut depth = 0usize;
        let mut out = CompiledOutput::default();
        for op in self.ops.iter() {
            match *op {
                COp::Arg(slot) => {
                    stack[depth] = operands[slot as usize];
                    depth += 1;
                }
                COp::Unbound(sym) => {
                    return Err(Exception::Interpreter(format!("unbound argument `\\{sym}`")));
                }
                COp::Const(v) => {
                    stack[depth] = v;
                    depth += 1;
                }
                COp::Bin(op) => {
                    let b = stack[depth - 1];
                    let a = stack[depth - 2];
                    depth -= 1;
                    stack[depth - 1] = op(a, b)?;
                }
                COp::BinArgs(a, b, op) => {
                    stack[depth] = op(operands[a as usize], operands[b as usize])?;
                    depth += 1;
                }
                COp::Un(op) => {
                    stack[depth - 1] = op(stack[depth - 1])?;
                }
                COp::Assign => {
                    depth -= 1;
                    out.assigned = out.assigned.or(Some(stack[depth]));
                }
            }
        }
        if depth > 0 {
            out.result = Some(stack[depth - 1]);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_with(expr: &str, binds: &[(&str, TypedValue)]) -> EvalOutput {
        let mut e = Evaluator::new();
        for (n, v) in binds {
            e.bind(n, *v);
        }
        e.run(expr).unwrap()
    }

    #[test]
    fn add_semantics_from_paper_listing() {
        // Listing 1: "\rs1 \rs2 + \rd ="
        let out = eval_with(
            "\\rs1 \\rs2 + \\rd =",
            &[
                ("rs1", TypedValue::int(40)),
                ("rs2", TypedValue::int(2)),
                ("rd", TypedValue::int(0)),
            ],
        );
        assert_eq!(out.assignments, vec![("rd".to_string(), TypedValue::int(42))]);
        assert_eq!(out.result, None);
    }

    #[test]
    fn branch_condition_leaves_result_on_stack() {
        let out =
            eval_with("\\rs1 \\rs2 <", &[("rs1", TypedValue::int(1)), ("rs2", TypedValue::int(2))]);
        assert_eq!(out.result.unwrap().as_i64(), 1);
        assert!(out.assignments.is_empty());
    }

    #[test]
    fn address_computation_with_immediate() {
        let out = eval_with(
            "\\rs1 \\imm +",
            &[("rs1", TypedValue::int(100)), ("imm", TypedValue::int(-4))],
        );
        assert_eq!(out.result.unwrap().as_i64(), 96);
    }

    #[test]
    fn jump_writes_link_and_computes_target() {
        // jal: "\pc 4 + \rd = \pc \imm +"
        let out = eval_with(
            "\\pc 4 + \\rd = \\pc \\imm +",
            &[("pc", TypedValue::int(16)), ("imm", TypedValue::int(8)), ("rd", TypedValue::int(0))],
        );
        assert_eq!(out.assignments, vec![("rd".to_string(), TypedValue::int(20))]);
        assert_eq!(out.result.unwrap().as_i64(), 24);
    }

    #[test]
    fn literals_are_constants() {
        let out = eval_with("3 4 *", &[]);
        assert_eq!(out.result.unwrap().as_i64(), 12);
    }

    #[test]
    fn unbound_argument_is_error() {
        let e = Evaluator::new();
        let err = e.run("\\rs1 \\rs2 +").unwrap_err();
        assert!(matches!(err, Exception::Interpreter(_)));
    }

    #[test]
    fn division_by_zero_propagates() {
        let mut e = Evaluator::new();
        e.bind("rs1", TypedValue::int(5));
        e.bind("rs2", TypedValue::int(0));
        e.bind("rd", TypedValue::int(0));
        assert_eq!(e.run("\\rs1 \\rs2 / \\rd =").unwrap_err(), Exception::DivisionByZero);
    }

    #[test]
    fn malformed_expressions_report_errors() {
        let e = Evaluator::new();
        assert!(e.run("+").is_err());
        assert!(e.run("1 =").is_err());
        assert!(e.run("=").is_err());
        assert!(e.run("bogus_token").is_err());
        let mut e2 = Evaluator::new();
        e2.bind("x", TypedValue::int(1));
        assert!(e2.run("\\x !missing_op").is_err());
    }

    #[test]
    fn multiple_assignments_record_in_order() {
        let out =
            eval_with("1 \\a = 2 \\b =", &[("a", TypedValue::int(0)), ("b", TypedValue::int(0))]);
        assert_eq!(out.assignments.len(), 2);
        assert_eq!(out.assignments[0].0, "a");
        assert_eq!(out.assignments[1].0, "b");
    }

    #[test]
    fn float_expression() {
        let out = eval_with(
            "\\rs1 \\rs2 f* \\rd =",
            &[
                ("rs1", TypedValue::float(1.5)),
                ("rs2", TypedValue::float(2.0)),
                ("rd", TypedValue::float(0.0)),
            ],
        );
        assert_eq!(out.assignments[0].1.as_f32(), 3.0);
    }

    #[test]
    fn evaluator_reuse_after_clear() {
        let mut e = Evaluator::new();
        e.bind("rs1", TypedValue::int(1));
        assert!(e.get("rs1").is_some());
        e.clear();
        assert!(e.get("rs1").is_none());
    }

    // ------------------------------------------------------------- compiled

    /// Compile `expr` against the layout of `binds`' names and run it with
    /// their values in the same slots.
    fn compiled_with(expr: &str, binds: &[(&str, TypedValue)]) -> CompiledOutput {
        let slots: Vec<Sym> = binds.iter().map(|(n, _)| Sym::new(n)).collect();
        let mut operands = [TypedValue::default(); MAX_OPERANDS];
        for (slot, (_, v)) in binds.iter().enumerate() {
            operands[slot] = *v;
        }
        let compiled = CompiledExpr::compile(expr, &slots).expect("compiles");
        compiled.run(&operands).expect("runs")
    }

    #[test]
    fn compiled_matches_string_evaluator_on_core_shapes() {
        let binds: &[(&str, TypedValue)] = &[
            ("rs1", TypedValue::int(40)),
            ("rs2", TypedValue::int(2)),
            ("rs3", TypedValue::int(-3)),
            ("imm", TypedValue::int(-4)),
            ("pc", TypedValue::int(16)),
        ];
        for expr in [
            "\\rs1 \\rs2 + \\rd =",
            "\\rs1 \\rs2 <",
            "\\rs1 \\imm +",
            "\\pc 4 + \\rd = \\pc \\imm +",
            "\\imm 12 << \\rd =",
            "\\rs1 \\imm + -2 &",
            "\\rs1 \\rs2 * \\rs3 + \\rd =",
            "3 4 *",
            "1 \\rd = 2 \\rs1 =",
        ] {
            let slow = eval_with(expr, binds);
            let fast = compiled_with(expr, binds);
            assert_eq!(slow.result, fast.result, "result of `{expr}`");
            let first = slow.assignments.first().map(|(_, v)| *v);
            assert_eq!(first, fast.assigned, "first assignment of `{expr}`");
        }
    }

    #[test]
    fn slots_resolve_to_the_last_binding_of_a_name() {
        // Binding a name twice keeps the later value, in both evaluators.
        let binds =
            [("imm", TypedValue::int(1)), ("x", TypedValue::int(5)), ("imm", TypedValue::int(2))];
        let out = compiled_with("\\imm \\x +", &binds);
        assert_eq!(out.result, Some(TypedValue::int(7)));
        assert_eq!(eval_with("\\imm \\x +", &binds).result, out.result);
        // A name outside the layout is unbound only when the op runs.
        let compiled = CompiledExpr::compile("\\x \\y +", &[Sym::new("x")]).unwrap();
        let err = compiled.run(&[TypedValue::int(1); MAX_OPERANDS]).unwrap_err();
        assert_eq!(err, Exception::Interpreter("unbound argument `\\y`".into()));
        assert!(CompiledExpr::compile("1", &[Sym::new("x"); MAX_OPERANDS + 1]).is_err());
    }

    #[test]
    fn compiled_float_and_unary_ops() {
        let out = compiled_with(
            "\\rs1 \\rs2 f* fneg \\rs3 f+ \\rd =",
            &[
                ("rs1", TypedValue::float(2.0)),
                ("rs2", TypedValue::float(3.0)),
                ("rs3", TypedValue::float(1.0)),
            ],
        );
        assert_eq!(out.assigned.unwrap().as_f32(), -5.0);
    }

    #[test]
    fn compiled_exceptions_match_runtime_behaviour() {
        let slots = [Sym::new("rs1"), Sym::new("rs2")];
        // Division by zero surfaces at run time, like the string path.
        let compiled = CompiledExpr::compile("\\rs1 \\rs2 / \\rd =", &slots).unwrap();
        let mut operands = [TypedValue::default(); MAX_OPERANDS];
        operands[0] = TypedValue::int(5);
        assert_eq!(compiled.run(&operands).unwrap_err(), Exception::DivisionByZero);

        // Unbound arguments surface at run time with the same message.
        let compiled = CompiledExpr::compile("\\rs1 \\rs2 +", &[]).unwrap();
        let err = compiled.run(&operands).unwrap_err();
        assert_eq!(err, Evaluator::new().run("\\rs1 \\rs2 +").unwrap_err());

        // Structural errors surface at compile time with the evaluator's
        // runtime messages.
        for (expr, needle) in [
            ("+", "missing right operand"),
            ("1 +", "missing left operand"),
            ("neg", "missing operand"),
            ("1 =", "argument reference"),
            ("=", "empty stack"),
            ("bogus_token", "unknown token"),
        ] {
            let err = CompiledExpr::compile(expr, &slots).unwrap_err();
            assert!(
                matches!(&err, Exception::Interpreter(m) if m.contains(needle)),
                "`{expr}` → {err:?}"
            );
        }
    }

    #[test]
    fn compiled_empty_expression_is_empty() {
        let compiled = CompiledExpr::compile("", &[]).unwrap();
        assert!(compiled.is_empty());
        let out = compiled.run(&[TypedValue::default(); MAX_OPERANDS]).unwrap();
        assert_eq!(out, CompiledOutput::default());
    }
}
