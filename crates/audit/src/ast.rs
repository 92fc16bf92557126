//! The lightweight item/expression AST the semantic rules run on.
//!
//! This is deliberately *not* a faithful Rust AST: there is no type
//! checking, no trait resolution, and unparseable constructs degrade to
//! [`Expr::Unknown`] rather than failing the file. What it does keep is
//! exactly what the cross-function rules need — item nesting (fns,
//! impls, mods, use-trees) with line and token spans, and the
//! expression shapes that carry dataflow: calls, method calls,
//! closures, loops, matches, let bindings, and assignments.
//!
//! All line numbers are 0-based (matching [`crate::lexer::Masked`]);
//! [`crate::report::Finding::new`] converts to the 1-based report form.

/// A parsed source file: the top-level items plus the token count, so
/// tests can assert the items' token ranges tile the whole stream.
#[derive(Debug, Clone, PartialEq)]
pub struct File {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// Total number of tokens the file lexed to.
    pub n_tokens: usize,
}

/// One item (top-level or nested), with its spans and attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    /// What the item is.
    pub kind: ItemKind,
    /// 0-based line of the item's first token (attributes included).
    pub line: usize,
    /// 0-based line of the item's last token.
    pub end_line: usize,
    /// Index of the item's first token (inclusive).
    pub tok_start: usize,
    /// Index just past the item's last token (exclusive).
    pub tok_end: usize,
    /// Attribute bodies, e.g. `cfg(test)`, `test`, `derive(Debug)`
    /// (the text between the brackets, tokens joined by spaces).
    pub attrs: Vec<String>,
}

impl Item {
    /// True when the item carries `#[cfg(test)]` or `#[test]`.
    pub fn is_test(&self) -> bool {
        self.attrs
            .iter()
            .any(|a| a == "test" || a.starts_with("cfg ( test"))
    }
}

/// The item kinds the analyzer distinguishes.
#[derive(Debug, Clone, PartialEq)]
pub enum ItemKind {
    /// `mod name;` (`items: None`) or `mod name { … }` (`Some`).
    Mod {
        /// Module name.
        name: String,
        /// Inline body, when present.
        items: Option<Vec<Item>>,
    },
    /// `use …;` flattened to its leaf imports.
    Use {
        /// Every leaf the use-tree imports.
        leaves: Vec<UseLeaf>,
    },
    /// A free or associated function.
    Fn(FnItem),
    /// `impl Type { … }` or `impl Trait for Type { … }`.
    Impl {
        /// The implementing type's last path segment.
        type_name: String,
        /// The trait's last path segment, for trait impls.
        trait_name: Option<String>,
        /// Associated items (fns, consts, …).
        items: Vec<Item>,
    },
    /// `trait Name { … }` (default method bodies are parsed).
    Trait {
        /// Trait name.
        name: String,
        /// Associated items.
        items: Vec<Item>,
    },
    /// Anything else (struct, enum, const, static, type, macro, …):
    /// skimmed structurally, not analyzed.
    Other {
        /// The leading keyword or token that identified the item.
        keyword: String,
        /// The item's name when one follows the keyword.
        name: Option<String>,
    },
}

/// One leaf of a use-tree: the full path and the name it binds.
#[derive(Debug, Clone, PartialEq)]
pub struct UseLeaf {
    /// Path segments (`crate`, `super`, `self` kept verbatim).
    pub path: Vec<String>,
    /// The local name: the `as` alias or the last path segment.
    pub alias: String,
}

/// A function item: signature names plus the parsed body.
#[derive(Debug, Clone, PartialEq)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// The body; `None` for trait method declarations.
    pub body: Option<Block>,
}

/// One parameter: the bound name and its type as written.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// The binding name (`self` for receivers).
    pub name: String,
    /// The type text, tokens joined by spaces (`Self` for receivers).
    pub ty: String,
}

/// A `{ … }` block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// 0-based line of the opening brace.
    pub line: usize,
    /// 0-based line of the closing brace.
    pub end_line: usize,
}

/// One statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let pat(: ty)? (= init)?;`
    Let {
        /// Names the pattern binds.
        names: Vec<String>,
        /// The ascribed type text, when written.
        ty: Option<String>,
        /// The initializer.
        init: Option<Expr>,
        /// 0-based line of the `let`.
        line: usize,
    },
    /// An expression statement (with or without `;`).
    Expr(Expr),
    /// A nested item (fn, struct, mod, … inside a block).
    Item(Item),
}

/// One match (or `if let` / `while let`) arm.
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    /// Names the arm's pattern binds.
    pub names: Vec<String>,
    /// The arm body.
    pub body: Expr,
}

/// An expression. Boxes keep the enum small; `Unknown` absorbs
/// anything the parser cannot shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A (possibly multi-segment) path: `x`, `cfg.seed`, `a::b::c`.
    Path {
        /// Path segments.
        segs: Vec<String>,
        /// 0-based line.
        line: usize,
    },
    /// A literal. `text` is the token text (string body, number, …).
    Lit {
        /// Literal text.
        text: String,
        /// 0-based line.
        line: usize,
    },
    /// `callee(args…)`.
    Call {
        /// The callee expression (usually a `Path`).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// 0-based line of the call.
        line: usize,
    },
    /// `recv.name(args…)`.
    MethodCall {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// 0-based line of the call.
        line: usize,
    },
    /// `recv.name` (field access / tuple index).
    Field {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Field name.
        name: String,
        /// 0-based line.
        line: usize,
    },
    /// `recv[index]`.
    Index {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// 0-based line.
        line: usize,
    },
    /// `|params| body` / `move |params| body`.
    Closure {
        /// Parameter names.
        params: Vec<String>,
        /// Body expression.
        body: Box<Expr>,
        /// 0-based line.
        line: usize,
    },
    /// A block expression.
    Block(Block),
    /// `if cond { then } (else els)?` — `if let` desugars to `Match`.
    If {
        /// Condition.
        cond: Box<Expr>,
        /// Then block.
        then: Block,
        /// Else branch (block or chained if).
        els: Option<Box<Expr>>,
        /// 0-based line.
        line: usize,
    },
    /// `match scrutinee { arms… }` (also carries `if let`/`while let`).
    Match {
        /// The matched expression.
        scrutinee: Box<Expr>,
        /// Arms in order.
        arms: Vec<Arm>,
        /// 0-based line.
        line: usize,
    },
    /// `for pat in iter { body }`.
    For {
        /// Names the loop pattern binds.
        names: Vec<String>,
        /// The iterated expression.
        iter: Box<Expr>,
        /// Loop body.
        body: Block,
        /// 0-based line.
        line: usize,
    },
    /// `while cond { body }` / `loop { body }` (cond `None` for loop).
    While {
        /// Condition, when present.
        cond: Option<Box<Expr>>,
        /// Loop body.
        body: Block,
        /// 0-based line.
        line: usize,
    },
    /// `target op value` for `=`, `+=`, `-=`, ….
    Assign {
        /// The operator text.
        op: String,
        /// Assignment target.
        target: Box<Expr>,
        /// Assigned value.
        value: Box<Expr>,
        /// 0-based line.
        line: usize,
    },
    /// `lhs op rhs` for binary operators (flat, no precedence).
    Binary {
        /// The operator text.
        op: String,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// 0-based line.
        line: usize,
    },
    /// A prefix operator (`&`, `*`, `!`, `-`, `return`, `break`, …).
    Unary {
        /// The operator text.
        op: String,
        /// The operand (`Unknown` when absent, e.g. bare `return`).
        expr: Box<Expr>,
        /// 0-based line.
        line: usize,
    },
    /// `(a, b, …)` — one-element tuples are collapsed to the inner
    /// expression by the parser.
    Tuple {
        /// Elements.
        elems: Vec<Expr>,
        /// 0-based line.
        line: usize,
    },
    /// `[a, b, …]` / `[x; n]`.
    Array {
        /// Elements.
        elems: Vec<Expr>,
        /// 0-based line.
        line: usize,
    },
    /// `Path { field: expr, … }`.
    StructLit {
        /// The struct path segments.
        path: Vec<String>,
        /// `(field, value)` pairs; `..base` becomes `("..", base)`.
        fields: Vec<(String, Expr)>,
        /// 0-based line.
        line: usize,
    },
    /// `name!(args…)` (any delimiter).
    MacroCall {
        /// Macro name.
        name: String,
        /// Arguments, parsed best-effort as expressions.
        args: Vec<Expr>,
        /// 0-based line.
        line: usize,
    },
    /// A token the parser could not shape.
    Unknown {
        /// 0-based line.
        line: usize,
    },
}

impl Expr {
    /// The 0-based line the expression starts on.
    pub fn line(&self) -> usize {
        match self {
            Expr::Path { line, .. }
            | Expr::Lit { line, .. }
            | Expr::Call { line, .. }
            | Expr::MethodCall { line, .. }
            | Expr::Field { line, .. }
            | Expr::Index { line, .. }
            | Expr::Closure { line, .. }
            | Expr::If { line, .. }
            | Expr::Match { line, .. }
            | Expr::For { line, .. }
            | Expr::While { line, .. }
            | Expr::Assign { line, .. }
            | Expr::Binary { line, .. }
            | Expr::Unary { line, .. }
            | Expr::Tuple { line, .. }
            | Expr::Array { line, .. }
            | Expr::StructLit { line, .. }
            | Expr::MacroCall { line, .. }
            | Expr::Unknown { line } => *line,
            Expr::Block(b) => b.line,
        }
    }

    /// Pre-order walk over this expression and every sub-expression
    /// (including statements of nested blocks, but not nested items).
    pub fn walk<F: FnMut(&Expr)>(&self, f: &mut F) {
        f(self);
        match self {
            Expr::Path { .. } | Expr::Lit { .. } | Expr::Unknown { .. } => {}
            Expr::Call { callee, args, .. } => {
                callee.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            Expr::MethodCall { recv, args, .. } => {
                recv.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Field { recv, .. } => recv.walk(f),
            Expr::Index { recv, index, .. } => {
                recv.walk(f);
                index.walk(f);
            }
            Expr::Closure { body, .. } => body.walk(f),
            Expr::Block(b) => b.walk(f),
            Expr::If {
                cond, then, els, ..
            } => {
                cond.walk(f);
                then.walk(f);
                if let Some(e) = els {
                    e.walk(f);
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                scrutinee.walk(f);
                for arm in arms {
                    arm.body.walk(f);
                }
            }
            Expr::For { iter, body, .. } => {
                iter.walk(f);
                body.walk(f);
            }
            Expr::While { cond, body, .. } => {
                if let Some(c) = cond {
                    c.walk(f);
                }
                body.walk(f);
            }
            Expr::Assign { target, value, .. } => {
                target.walk(f);
                value.walk(f);
            }
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            Expr::Unary { expr, .. } => expr.walk(f),
            Expr::Tuple { elems, .. } | Expr::Array { elems, .. } => {
                for e in elems {
                    e.walk(f);
                }
            }
            Expr::StructLit { fields, .. } => {
                for (_, e) in fields {
                    e.walk(f);
                }
            }
            Expr::MacroCall { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
        }
    }

    /// The path segments when this is a plain path expression.
    pub fn as_path(&self) -> Option<&[String]> {
        match self {
            Expr::Path { segs, .. } => Some(segs),
            _ => None,
        }
    }

    /// A flat textual rendering of a place expression (`self.counters`,
    /// `scratches [ _ ]`), with index expressions normalized to `_` so
    /// per-lane locks collapse to one static lane. `None` for
    /// expressions that are not simple places.
    pub fn place_text(&self) -> Option<String> {
        match self {
            Expr::Path { segs, .. } => Some(segs.join("::")),
            Expr::Field { recv, name, .. } => {
                Some(format!("{}.{name}", recv.place_text().unwrap_or_default()))
            }
            Expr::Index { recv, .. } => Some(format!("{}[_]", recv.place_text()?)),
            Expr::Unary { op, expr, .. } if op == "&" || op == "*" => expr.place_text(),
            Expr::Call { callee, .. } => {
                // A lock obtained through a getter (`filter_slot()`)
                // is identified by the getter path.
                Some(format!("{}()", callee.place_text()?))
            }
            Expr::MethodCall { recv, name, .. } => Some(format!("{}.{name}()", recv.place_text()?)),
            _ => None,
        }
    }
}

impl Block {
    /// Pre-order walk over every expression in the block (skipping
    /// nested items, which have their own fns).
    pub fn walk<F: FnMut(&Expr)>(&self, f: &mut F) {
        for stmt in &self.stmts {
            match stmt {
                Stmt::Let { init, .. } => {
                    if let Some(e) = init {
                        e.walk(f);
                    }
                }
                Stmt::Expr(e) => e.walk(f),
                Stmt::Item(_) => {}
            }
        }
    }
}

/// Walks every `Fn` item in `items` (recursing through mods, impls,
/// traits, and nested block items), calling `f` with the enclosing
/// impl/trait type name (if any) and the item.
pub fn walk_fns<'a, F: FnMut(Option<&'a str>, &'a Item, &'a FnItem)>(items: &'a [Item], f: &mut F) {
    walk_fns_inner(items, None, f);
}

fn walk_fns_inner<'a, F: FnMut(Option<&'a str>, &'a Item, &'a FnItem)>(
    items: &'a [Item],
    owner: Option<&'a str>,
    f: &mut F,
) {
    for item in items {
        match &item.kind {
            ItemKind::Fn(func) => {
                f(owner, item, func);
                if let Some(body) = &func.body {
                    walk_block_items(body, owner, f);
                }
            }
            ItemKind::Mod {
                items: Some(inner), ..
            } => walk_fns_inner(inner, owner, f),
            ItemKind::Impl {
                type_name, items, ..
            } => walk_fns_inner(items, Some(type_name.as_str()), f),
            ItemKind::Trait { name, items } => walk_fns_inner(items, Some(name.as_str()), f),
            _ => {}
        }
    }
}

fn walk_block_items<'a, F: FnMut(Option<&'a str>, &'a Item, &'a FnItem)>(
    block: &'a Block,
    owner: Option<&'a str>,
    f: &mut F,
) {
    for stmt in &block.stmts {
        if let Stmt::Item(item) = stmt {
            walk_fns_inner(std::slice::from_ref(item), owner, f);
        }
    }
}
