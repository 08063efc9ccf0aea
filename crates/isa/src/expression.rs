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

use crate::inline_vec::InlineVec;
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

/// One pre-decoded operation of a compiled postfix expression.  Operators
/// are resolved to direct function pointers at compile time, so evaluation
/// never re-matches a token string.
#[derive(Debug, Clone, Copy)]
enum COp {
    /// Resolve an argument binding and push its value.
    Arg(Sym),
    /// Push a constant.
    Const(TypedValue),
    /// Pop two values, apply the binary operator, push the result.
    Bin(BinFn),
    /// Pop one value, apply the unary operator, push the result.
    Un(UnFn),
    /// Pop one value and record an assignment to the named argument.
    Assign(Sym),
}

/// A postfix semantics expression compiled to a flat op sequence.
///
/// Compilation happens once per instruction descriptor (at predecode time);
/// evaluation is then a tight loop over compiled ops with a fixed-size value
/// stack and interned-symbol bindings — no tokenizing, no hashing, no heap.
///
/// For well-formed expressions (every built-in descriptor, and anything a
/// reasonable user set contains) [`CompiledExpr::run`] produces exactly the
/// same results and exceptions as [`Evaluator::run`] on the source string.
/// The compiled path is deliberately stricter on degenerate inputs: argument
/// references are resolved when *pushed* (an unbound ref the string
/// evaluator would have left unconsumed becomes an "unbound argument"
/// error), and expressions needing more than 16 stack slots or 4
/// assignments are rejected at compile time instead of executing.
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    ops: Box<[COp]>,
}

/// Result of evaluating a [`CompiledExpr`] — the allocation-free analogue of
/// [`EvalOutput`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CompiledOutput {
    /// Value left on the stack after evaluation, if any.
    pub result: Option<TypedValue>,
    /// Assignment side effects in evaluation order.
    pub assignments: InlineVec<(Sym, TypedValue), 4>,
}

/// Interned-symbol argument bindings for compiled evaluation.  A linear scan
/// over at most 8 `(Sym, value)` pairs beats a `HashMap<String, _>` by a wide
/// margin at the 4–6 bindings a RISC-V instruction needs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bindings {
    entries: InlineVec<(Sym, TypedValue), 8>,
}

impl Bindings {
    /// No bindings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `sym` to `value`, replacing any previous binding.
    pub fn bind(&mut self, sym: Sym, value: TypedValue) {
        for entry in self.entries.iter_mut() {
            if entry.0 == sym {
                entry.1 = value;
                return;
            }
        }
        self.entries.push((sym, value));
    }

    /// Look up a binding.
    pub fn get(&self, sym: Sym) -> Option<TypedValue> {
        self.entries.iter().find(|(s, _)| *s == sym).map(|(_, v)| *v)
    }

    /// Remove all bindings.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl CompiledExpr {
    /// Compile `expr`.  Structural errors (unknown tokens, stack underflow,
    /// malformed `=`) are reported here with the same messages the string
    /// evaluator would produce at runtime.
    pub fn compile(expr: &str) -> Result<CompiledExpr, Exception> {
        let tokens: Vec<&str> = expr.split_whitespace().collect();
        let mut ops = Vec::with_capacity(tokens.len());
        let mut depth = 0usize;
        let mut assignments = 0usize;
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
                    assignments += 1;
                    if assignments > 4 {
                        return Err(Exception::Interpreter(
                            "too many assignments in one expression (max 4)".to_string(),
                        ));
                    }
                    ops.push(COp::Assign(Sym::new(name)));
                    i += 2;
                    continue;
                }
                depth += 1;
                ops.push(COp::Arg(Sym::new(name)));
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
                ops.push(COp::Bin(op));
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

    /// Evaluate against `bindings`.  Semantically identical to running the
    /// source string through [`Evaluator::run`] with the same bindings.
    pub fn run(&self, bindings: &Bindings) -> Result<CompiledOutput, Exception> {
        let mut stack = [TypedValue::default(); MAX_STACK];
        let mut depth = 0usize;
        let mut out = CompiledOutput::default();
        for op in self.ops.iter() {
            match *op {
                COp::Arg(sym) => {
                    stack[depth] = bindings.get(sym).ok_or_else(|| {
                        Exception::Interpreter(format!("unbound argument `\\{sym}`"))
                    })?;
                    depth += 1;
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
                COp::Un(op) => {
                    stack[depth - 1] = op(stack[depth - 1])?;
                }
                COp::Assign(sym) => {
                    depth -= 1;
                    out.assignments.push((sym, stack[depth]));
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

    fn compiled_with(expr: &str, binds: &[(&str, TypedValue)]) -> CompiledOutput {
        let compiled = CompiledExpr::compile(expr).expect("compiles");
        let mut b = Bindings::new();
        for (n, v) in binds {
            b.bind(Sym::new(n), *v);
        }
        compiled.run(&b).expect("runs")
    }

    #[test]
    fn compiled_matches_string_evaluator_on_core_shapes() {
        let binds: &[(&str, TypedValue)] = &[
            ("rs1", TypedValue::int(40)),
            ("rs2", TypedValue::int(2)),
            ("rs3", TypedValue::int(-3)),
            ("imm", TypedValue::int(-4)),
            ("pc", TypedValue::int(16)),
            ("rd", TypedValue::int(0)),
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
            let slow_assigns: Vec<(String, TypedValue)> = slow.assignments;
            let fast_assigns: Vec<(String, TypedValue)> =
                fast.assignments.iter().map(|(s, v)| (s.as_str().to_string(), *v)).collect();
            assert_eq!(slow_assigns, fast_assigns, "assignments of `{expr}`");
        }
    }

    #[test]
    fn compiled_float_and_unary_ops() {
        let out = compiled_with(
            "\\rs1 \\rs2 f* fneg \\rs3 f+ \\rd =",
            &[
                ("rs1", TypedValue::float(2.0)),
                ("rs2", TypedValue::float(3.0)),
                ("rs3", TypedValue::float(1.0)),
                ("rd", TypedValue::float(0.0)),
            ],
        );
        assert_eq!(out.assignments.as_slice()[0].1.as_f32(), -5.0);
    }

    #[test]
    fn compiled_exceptions_match_runtime_behaviour() {
        // Division by zero surfaces at run time, like the string path.
        let compiled = CompiledExpr::compile("\\rs1 \\rs2 / \\rd =").unwrap();
        let mut b = Bindings::new();
        b.bind(Sym::new("rs1"), TypedValue::int(5));
        b.bind(Sym::new("rs2"), TypedValue::int(0));
        assert_eq!(compiled.run(&b).unwrap_err(), Exception::DivisionByZero);

        // Unbound arguments surface at run time with the same message.
        let compiled = CompiledExpr::compile("\\rs1 \\rs2 +").unwrap();
        let err = compiled.run(&Bindings::new()).unwrap_err();
        assert!(matches!(&err, Exception::Interpreter(m) if m.contains("unbound argument")));

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
            let err = CompiledExpr::compile(expr).unwrap_err();
            assert!(
                matches!(&err, Exception::Interpreter(m) if m.contains(needle)),
                "`{expr}` → {err:?}"
            );
        }
    }

    #[test]
    fn compiled_empty_expression_is_empty() {
        let compiled = CompiledExpr::compile("").unwrap();
        assert!(compiled.is_empty());
        let out = compiled.run(&Bindings::new()).unwrap();
        assert!(out.result.is_none());
        assert!(out.assignments.is_empty());
    }

    #[test]
    fn bindings_overwrite_and_clear() {
        let mut b = Bindings::new();
        let rs1 = Sym::new("rs1");
        b.bind(rs1, TypedValue::int(1));
        b.bind(rs1, TypedValue::int(2));
        assert_eq!(b.get(rs1).unwrap().as_i64(), 2);
        assert!(b.get(Sym::new("rs2")).is_none());
        b.clear();
        assert!(b.get(rs1).is_none());
    }
}
