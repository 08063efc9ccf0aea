//! Recursive-descent parser for the C subset.

use crate::ast::*;
use crate::lexer::{Tok, Token};
use crate::CcError;

/// Deepest nesting the parser accepts.  It counts parentheses, prefix
/// operators, casts, nested statements and blocks, pointer stars, and
/// every node of an expression tree, so operator chains, which grow the
/// tree by one level per operator, count too.  Later passes (constant
/// folding, code generation, `Drop`) recurse over the tree, so this bound
/// is what keeps a hostile source from overflowing a 2 MiB thread stack.
pub const MAX_NESTING: usize = 128;

/// Binary operators by precedence level, loosest first.  Every level is
/// left-associative.
const BINARY_LEVELS: &[&[(&str, BinOp)]] = &[
    &[("||", BinOp::Or)],
    &[("&&", BinOp::And)],
    &[("|", BinOp::BitOr)],
    &[("^", BinOp::BitXor)],
    &[("&", BinOp::BitAnd)],
    &[("==", BinOp::Eq), ("!=", BinOp::Ne)],
    &[("<", BinOp::Lt), ("<=", BinOp::Le), (">", BinOp::Gt), (">=", BinOp::Ge)],
    &[("<<", BinOp::Shl), (">>", BinOp::Shr)],
    &[("+", BinOp::Add), ("-", BinOp::Sub)],
    &[("*", BinOp::Mul), ("/", BinOp::Div), ("%", BinOp::Mod)],
];

/// Parse a token stream into a translation unit.
pub fn parse(tokens: &[Token]) -> Result<Unit, CcError> {
    let mut p = Parser { tokens, pos: 0, depth: 0 };
    p.parse_unit()
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    /// Nesting of the construct being parsed (see [`MAX_NESTING`]).
    depth: usize,
}

/// An expression and the depth of its tree.
type Parsed = (Expr, usize);

const KEYWORDS: &[&str] = &[
    "int", "float", "char", "void", "if", "else", "while", "for", "return", "break", "continue",
    "extern",
];

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].tok
    }

    fn line(&self) -> usize {
        self.tokens[self.pos.min(self.tokens.len() - 1)].line
    }

    fn advance(&mut self) -> Tok {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(x) if *x == p) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), CcError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(CcError::new(self.line(), format!("expected `{p}`, found {:?}", self.peek())))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(name) if name == kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, CcError> {
        match self.advance() {
            Tok::Ident(name) if !KEYWORDS.contains(&name.as_str()) => Ok(name),
            other => {
                Err(CcError::new(self.line(), format!("expected identifier, found {other:?}")))
            }
        }
    }

    fn too_deep(&self) -> CcError {
        CcError::new(self.line(), format!("nesting deeper than {MAX_NESTING} levels"))
    }

    /// Run `parse` one nesting level deeper.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, CcError>,
    ) -> Result<T, CcError> {
        if self.depth >= MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    /// Depth of a new expression node over children at most `children`
    /// deep, refused when it would reach past [`MAX_NESTING`] together
    /// with the nesting it sits in.
    fn node(&self, children: usize) -> Result<usize, CcError> {
        let depth = children + 1;
        if self.depth + depth > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(depth)
    }

    fn peek_type(&self) -> bool {
        matches!(self.peek(), Tok::Ident(name) if matches!(name.as_str(), "int" | "float" | "char" | "void"))
    }

    fn parse_type(&mut self) -> Result<CType, CcError> {
        let base = match self.advance() {
            Tok::Ident(name) => match name.as_str() {
                "int" => CType::Int,
                "float" => CType::Float,
                "char" => CType::Char,
                "void" => CType::Void,
                other => {
                    return Err(CcError::new(self.line(), format!("unknown type `{other}`")));
                }
            },
            other => {
                return Err(CcError::new(self.line(), format!("expected type, found {other:?}")))
            }
        };
        let mut ty = base;
        let mut stars = 0;
        while self.eat_punct("*") {
            stars = self.node(stars)?;
            ty = CType::Ptr(Box::new(ty));
        }
        Ok(ty)
    }

    // ------------------------------------------------------------- top level

    fn parse_unit(&mut self) -> Result<Unit, CcError> {
        let mut unit = Unit::default();
        while !matches!(self.peek(), Tok::Eof) {
            let line = self.line();
            let is_extern = self.eat_keyword("extern");
            let ty = self.parse_type()?;
            let name = self.expect_ident()?;
            if self.eat_punct("(") {
                // Function definition (or declaration, which we ignore).
                let params = self.parse_params()?;
                if self.eat_punct(";") {
                    continue; // forward declaration
                }
                self.expect_punct("{")?;
                let body = self.parse_block_body()?;
                unit.functions.push(Function { name, ret: ty, params, body, line });
            } else {
                // Global variable or array.
                let array_size = if self.eat_punct("[") {
                    let size = match self.peek() {
                        Tok::Int(n) => {
                            let n = *n as usize;
                            self.advance();
                            n
                        }
                        _ => 0, // extern int arr[];
                    };
                    self.expect_punct("]")?;
                    Some(size)
                } else {
                    None
                };
                let mut init = Vec::new();
                if self.eat_punct("=") {
                    if self.eat_punct("{") {
                        loop {
                            init.push(self.parse_const()?);
                            if !self.eat_punct(",") {
                                break;
                            }
                            if matches!(self.peek(), Tok::Punct("}")) {
                                break;
                            }
                        }
                        self.expect_punct("}")?;
                    } else {
                        init.push(self.parse_const()?);
                    }
                }
                self.expect_punct(";")?;
                unit.globals.push(Global { name, ty, array_size, init, is_extern, line });
            }
        }
        Ok(unit)
    }

    fn parse_const(&mut self) -> Result<Const, CcError> {
        let negative = self.eat_punct("-");
        match self.advance() {
            Tok::Int(v) => Ok(Const::Int(if negative { -v } else { v })),
            Tok::Float(v) => Ok(Const::Float(if negative { -v } else { v })),
            Tok::Char(v) => Ok(Const::Int(v as i64)),
            other => Err(CcError::new(self.line(), format!("expected constant, found {other:?}"))),
        }
    }

    fn parse_params(&mut self) -> Result<Vec<Param>, CcError> {
        let mut params = Vec::new();
        if self.eat_punct(")") {
            return Ok(params);
        }
        // `(void)`
        if matches!(self.peek(), Tok::Ident(n) if n == "void")
            && matches!(&self.tokens[self.pos + 1].tok, Tok::Punct(")"))
        {
            self.advance();
            self.expect_punct(")")?;
            return Ok(params);
        }
        loop {
            let mut ty = self.parse_type()?;
            let name = self.expect_ident()?;
            // `int a[]` parameters decay to pointers.
            if self.eat_punct("[") {
                if let Tok::Int(_) = self.peek() {
                    self.advance();
                }
                self.expect_punct("]")?;
                ty = CType::Ptr(Box::new(ty));
            }
            params.push(Param { name, ty });
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct(")")?;
        Ok(params)
    }

    // ------------------------------------------------------------ statements

    fn parse_block_body(&mut self) -> Result<Vec<Stmt>, CcError> {
        let mut body = Vec::new();
        while !self.eat_punct("}") {
            if matches!(self.peek(), Tok::Eof) {
                return Err(CcError::new(self.line(), "unexpected end of file inside block"));
            }
            body.push(self.parse_stmt()?);
        }
        Ok(body)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, CcError> {
        let line = self.line();
        if self.eat_punct("{") {
            return Ok(Stmt::Block { body: self.nested(Self::parse_block_body)? });
        }
        if self.eat_keyword("if") {
            self.expect_punct("(")?;
            let cond = self.parse_expr()?;
            self.expect_punct(")")?;
            let then = self.nested(Self::parse_stmt_as_block)?;
            let els = if self.eat_keyword("else") {
                self.nested(Self::parse_stmt_as_block)?
            } else {
                Vec::new()
            };
            return Ok(Stmt::If { cond, then, els, line });
        }
        if self.eat_keyword("while") {
            self.expect_punct("(")?;
            let cond = self.parse_expr()?;
            self.expect_punct(")")?;
            let body = self.nested(Self::parse_stmt_as_block)?;
            return Ok(Stmt::While { cond, body, line });
        }
        if self.eat_keyword("for") {
            self.expect_punct("(")?;
            let init = if self.eat_punct(";") {
                None
            } else {
                let s = if self.peek_type() { self.parse_decl()? } else { self.parse_expr_stmt()? };
                Some(Box::new(s))
            };
            let cond = if matches!(self.peek(), Tok::Punct(";")) {
                None
            } else {
                Some(self.parse_expr()?)
            };
            self.expect_punct(";")?;
            let step = if matches!(self.peek(), Tok::Punct(")")) {
                None
            } else {
                Some(self.parse_expr()?)
            };
            self.expect_punct(")")?;
            let body = self.nested(Self::parse_stmt_as_block)?;
            return Ok(Stmt::For { init, cond, step, body, line });
        }
        if self.eat_keyword("return") {
            let value = if matches!(self.peek(), Tok::Punct(";")) {
                None
            } else {
                Some(self.parse_expr()?)
            };
            self.expect_punct(";")?;
            return Ok(Stmt::Return { value, line });
        }
        if self.eat_keyword("break") {
            self.expect_punct(";")?;
            return Ok(Stmt::Break { line });
        }
        if self.eat_keyword("continue") {
            self.expect_punct(";")?;
            return Ok(Stmt::Continue { line });
        }
        if self.peek_type() {
            return self.parse_decl();
        }
        self.parse_expr_stmt()
    }

    fn parse_stmt_as_block(&mut self) -> Result<Vec<Stmt>, CcError> {
        if self.eat_punct("{") {
            self.parse_block_body()
        } else {
            Ok(vec![self.parse_stmt()?])
        }
    }

    fn parse_decl(&mut self) -> Result<Stmt, CcError> {
        let line = self.line();
        let ty = self.parse_type()?;
        let mut decls = Vec::new();
        loop {
            let name = self.expect_ident()?;
            let array_size = if self.eat_punct("[") {
                let size = match self.advance() {
                    Tok::Int(n) => n as usize,
                    other => {
                        return Err(CcError::new(
                            line,
                            format!("expected array size, found {other:?}"),
                        ));
                    }
                };
                self.expect_punct("]")?;
                Some(size)
            } else {
                None
            };
            let init = if self.eat_punct("=") { Some(self.parse_expr()?) } else { None };
            decls.push(Stmt::Decl { name, ty: ty.clone(), array_size, init, line });
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct(";")?;
        if decls.len() == 1 {
            Ok(decls.pop().unwrap())
        } else {
            Ok(Stmt::Block { body: decls })
        }
    }

    fn parse_expr_stmt(&mut self) -> Result<Stmt, CcError> {
        let line = self.line();
        let expr = self.parse_expr()?;
        self.expect_punct(";")?;
        Ok(Stmt::Expr { expr, line })
    }

    // ----------------------------------------------------------- expressions
    //
    // The parsers below return each expression with the depth of its tree,
    // and every node they build goes through `node`.

    fn parse_expr(&mut self) -> Result<Expr, CcError> {
        Ok(self.parse_assignment()?.0)
    }

    fn parse_assignment(&mut self) -> Result<Parsed, CcError> {
        let (lhs, lhs_depth) = self.parse_binary(0)?;
        let op = match self.peek() {
            Tok::Punct("=") => None,
            Tok::Punct("+=") => Some(BinOp::Add),
            Tok::Punct("-=") => Some(BinOp::Sub),
            Tok::Punct("*=") => Some(BinOp::Mul),
            Tok::Punct("/=") => Some(BinOp::Div),
            Tok::Punct("%=") => Some(BinOp::Mod),
            _ => return Ok((lhs, lhs_depth)),
        };
        self.advance();
        if !matches!(lhs, Expr::Var(_) | Expr::Index { .. }) {
            return Err(CcError::new(
                self.line(),
                "assignment target must be a variable or array element",
            ));
        }
        let (value, value_depth) = self.nested(Self::parse_assignment)?;
        let depth = self.node(lhs_depth.max(value_depth))?;
        Ok((Expr::Assign { target: Box::new(lhs), op, value: Box::new(value) }, depth))
    }

    /// Parse a chain of binary operators of precedence `min_level` and
    /// tighter ([`BINARY_LEVELS`]) by precedence climbing: one call per
    /// level actually used, each chain built left-deep.
    fn parse_binary(&mut self, min_level: usize) -> Result<Parsed, CcError> {
        let (mut lhs, mut depth) = self.parse_unary()?;
        while let Some((level, op)) = self.peek_binary().filter(|&(level, _)| level >= min_level) {
            self.advance();
            let (rhs, rhs_depth) = self.parse_binary(level + 1)?;
            depth = self.node(depth.max(rhs_depth))?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok((lhs, depth))
    }

    /// The binary operator at the cursor and its precedence level.
    fn peek_binary(&self) -> Option<(usize, BinOp)> {
        let Tok::Punct(punct) = self.peek() else { return None };
        BINARY_LEVELS.iter().enumerate().find_map(|(level, operators)| {
            operators.iter().find(|(p, _)| p == punct).map(|&(_, op)| (level, op))
        })
    }

    fn parse_unary(&mut self) -> Result<Parsed, CcError> {
        if self.eat_punct("-") {
            return self.prefix(|expr| Expr::Unary { op: UnOp::Neg, expr });
        }
        if self.eat_punct("!") {
            return self.prefix(|expr| Expr::Unary { op: UnOp::Not, expr });
        }
        if self.eat_punct("+") {
            return self.nested(Self::parse_unary);
        }
        // Cast: `(int) x` / `(float) x`.
        if matches!(self.peek(), Tok::Punct("(")) {
            if let Tok::Ident(name) = &self.tokens[self.pos + 1].tok {
                if matches!(name.as_str(), "int" | "float" | "char")
                    && matches!(&self.tokens[self.pos + 2].tok, Tok::Punct(")"))
                {
                    self.advance(); // (
                    let ty = self.parse_type()?;
                    self.expect_punct(")")?;
                    return self.prefix(|expr| Expr::Cast { ty, expr });
                }
            }
        }
        self.parse_postfix()
    }

    /// The operand of a prefix operator, one level deeper, under the node
    /// `wrap` builds.
    fn prefix(&mut self, wrap: impl FnOnce(Box<Expr>) -> Expr) -> Result<Parsed, CcError> {
        let (operand, operand_depth) = self.nested(Self::parse_unary)?;
        Ok((wrap(Box::new(operand)), self.node(operand_depth)?))
    }

    fn parse_postfix(&mut self) -> Result<Parsed, CcError> {
        let (mut expr, mut depth) = self.parse_primary()?;
        loop {
            if self.eat_punct("[") {
                let (index, index_depth) = self.nested(Self::parse_assignment)?;
                self.expect_punct("]")?;
                let base = match expr {
                    Expr::Var(name) => name,
                    _ => {
                        return Err(CcError::new(
                            self.line(),
                            "only simple arrays/pointers can be indexed",
                        ));
                    }
                };
                depth = self.node(index_depth)?;
                expr = Expr::Index { base, index: Box::new(index) };
            } else if self.eat_punct("++") {
                depth = self.node(depth)?;
                expr = Expr::PostIncDec { target: Box::new(expr), inc: true };
            } else if self.eat_punct("--") {
                depth = self.node(depth)?;
                expr = Expr::PostIncDec { target: Box::new(expr), inc: false };
            } else {
                break;
            }
        }
        Ok((expr, depth))
    }

    fn parse_primary(&mut self) -> Result<Parsed, CcError> {
        let line = self.line();
        match self.advance() {
            Tok::Int(v) => Ok((Expr::IntLit(v), 1)),
            Tok::Float(v) => Ok((Expr::FloatLit(v), 1)),
            Tok::Char(v) => Ok((Expr::CharLit(v), 1)),
            Tok::Punct("(") => {
                let inner = self.nested(Self::parse_assignment)?;
                self.expect_punct(")")?;
                Ok(inner)
            }
            Tok::Ident(name) => {
                if KEYWORDS.contains(&name.as_str()) {
                    return Err(CcError::new(line, format!("unexpected keyword `{name}`")));
                }
                if !self.eat_punct("(") {
                    return Ok((Expr::Var(name), 1));
                }
                let mut args = Vec::new();
                let mut deepest = 0;
                if !self.eat_punct(")") {
                    loop {
                        let (arg, arg_depth) = self.nested(Self::parse_assignment)?;
                        args.push(arg);
                        deepest = deepest.max(arg_depth);
                        if !self.eat_punct(",") {
                            break;
                        }
                    }
                    self.expect_punct(")")?;
                }
                Ok((Expr::Call { name, args }, self.node(deepest)?))
            }
            other => Err(CcError::new(line, format!("unexpected token {other:?} in expression"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn parse_src(src: &str) -> Unit {
        parse(&tokenize(src).unwrap()).unwrap()
    }

    fn parse_err(src: &str) -> CcError {
        parse(&tokenize(src).unwrap()).unwrap_err()
    }

    #[test]
    fn globals_scalars_arrays_extern() {
        let unit = parse_src(
            "int x = 5;\nfloat pi = 3.5;\nint arr[4] = {1, 2, 3, 4};\nextern int data[];\nchar c = 'a';\nint zeros[8];\n",
        );
        assert_eq!(unit.globals.len(), 6);
        assert_eq!(unit.globals[0].init, vec![Const::Int(5)]);
        assert_eq!(unit.globals[1].ty, CType::Float);
        assert_eq!(unit.globals[2].array_size, Some(4));
        assert!(unit.globals[3].is_extern);
        assert_eq!(unit.globals[3].array_size, Some(0));
        assert_eq!(unit.globals[4].init, vec![Const::Int(97)]);
        assert_eq!(unit.globals[5].array_size, Some(8));
        assert!(unit.globals[5].init.is_empty());
    }

    #[test]
    fn function_with_params_and_body() {
        let unit = parse_src(
            "int add(int a, int b) { return a + b; }\nvoid nothing(void) { return; }\nfloat scale(float x, float f[]) { return x * f[0]; }",
        );
        assert_eq!(unit.functions.len(), 3);
        let add = &unit.functions[0];
        assert_eq!(add.params.len(), 2);
        assert!(matches!(add.body[0], Stmt::Return { .. }));
        let scale = &unit.functions[2];
        assert_eq!(scale.params[1].ty, CType::Ptr(Box::new(CType::Float)));
    }

    #[test]
    fn control_flow_statements() {
        let unit = parse_src(
            "int main(void) {
                int s = 0;
                for (int i = 0; i < 10; i++) {
                    if (i % 2 == 0) { s += i; } else { s -= 1; }
                    while (s > 100) { s = s / 2; break; }
                }
                return s;
            }",
        );
        let body = &unit.functions[0].body;
        assert!(matches!(body[0], Stmt::Decl { .. }));
        assert!(matches!(body[1], Stmt::For { .. }));
        if let Stmt::For { init, cond, step, body: fb, .. } = &body[1] {
            assert!(init.is_some());
            assert!(cond.is_some());
            assert!(step.is_some());
            assert!(matches!(fb[0], Stmt::If { .. }));
            assert!(matches!(fb[1], Stmt::While { .. }));
        }
    }

    #[test]
    fn expression_precedence() {
        let unit = parse_src("int main(void) { return 1 + 2 * 3 < 4 && 5 == 5; }");
        if let Stmt::Return { value: Some(expr), .. } = &unit.functions[0].body[0] {
            // Top level must be &&.
            assert!(matches!(expr, Expr::Binary { op: BinOp::And, .. }));
            if let Expr::Binary { lhs, .. } = expr {
                assert!(matches!(**lhs, Expr::Binary { op: BinOp::Lt, .. }));
            }
        } else {
            panic!("expected return statement");
        }
    }

    #[test]
    fn assignment_and_compound() {
        let unit =
            parse_src("int main(void) { int a = 1; a = a + 1; a += 2; a *= 3; a[0]; return a; }");
        let body = &unit.functions[0].body;
        assert!(matches!(&body[1], Stmt::Expr { expr: Expr::Assign { op: None, .. }, .. }));
        assert!(matches!(
            &body[2],
            Stmt::Expr { expr: Expr::Assign { op: Some(BinOp::Add), .. }, .. }
        ));
        assert!(matches!(
            &body[3],
            Stmt::Expr { expr: Expr::Assign { op: Some(BinOp::Mul), .. }, .. }
        ));
    }

    #[test]
    fn calls_indexing_casts_incdec() {
        let unit = parse_src(
            "int main(void) { int a[4]; a[1] = f(a[0], 2) + (int)1.5; a[1]++; return g(); }",
        );
        let body = &unit.functions[0].body;
        if let Stmt::Expr { expr: Expr::Assign { target, value, .. }, .. } = &body[1] {
            assert!(matches!(**target, Expr::Index { .. }));
            if let Expr::Binary { lhs, rhs, .. } = &**value {
                assert!(matches!(**lhs, Expr::Call { .. }));
                assert!(matches!(**rhs, Expr::Cast { .. }));
            }
        } else {
            panic!("expected assignment");
        }
        assert!(matches!(&body[2], Stmt::Expr { expr: Expr::PostIncDec { inc: true, .. }, .. }));
    }

    #[test]
    fn parse_errors_carry_lines() {
        let e = parse_err("int main(void) {\n  int x = ;\n}");
        assert_eq!(e.line, 2);
        let e = parse_err("int main(void) { return 1 }");
        assert!(e.message.contains("expected `;`"));
        let e = parse_err("int main(void) { 1 = 2; }");
        assert!(e.message.contains("assignment target"));
        let e = parse_err("blob main(void) { }");
        assert!(e.message.contains("unknown type") || e.message.contains("expected"));
    }

    #[test]
    fn forward_declarations_are_skipped() {
        let unit = parse_src("int helper(int x);\nint main(void) { return helper(1); }");
        assert_eq!(unit.functions.len(), 1);
        assert_eq!(unit.functions[0].name, "main");
    }
}
