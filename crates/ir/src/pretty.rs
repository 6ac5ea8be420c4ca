//! Pretty-printing of IR functions and pipelines (for diagnostics,
//! examples, and the experiment harnesses).

use crate::expr::Expr;
use crate::func::Function;
use crate::pipeline::{Pipeline, StageKind};
use crate::stmt::{CtrlHandler, HandlerEnd, Stmt};
use std::fmt::Write as _;

/// Renders an expression as a C-like string.
pub fn expr_to_string(f: &Function, e: &Expr) -> String {
    match e {
        Expr::Const(v) => format!("{v}"),
        Expr::Var(v) => f
            .vars
            .get(v.0 as usize)
            .map(|d| d.name.to_string())
            .unwrap_or_else(|| format!("v{}", v.0)),
        Expr::Unary(op, a) => format!("{op}({})", expr_to_string(f, a)),
        Expr::Binary(op, a, b) => {
            format!("({} {op} {})", expr_to_string(f, a), expr_to_string(f, b))
        }
        Expr::Load { array, index, .. } => {
            let name = f
                .arrays
                .get(array.0 as usize)
                .map(|d| d.name.clone())
                .unwrap_or_else(|| format!("arr{}", array.0));
            format!("{name}[{}]", expr_to_string(f, index))
        }
    }
}

fn stmt_lines(f: &Function, s: &Stmt, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match s {
        Stmt::Assign { var, expr } => {
            let name = &f.vars[var.0 as usize].name;
            let _ = writeln!(out, "{pad}{name} = {};", expr_to_string(f, expr));
        }
        Stmt::Store {
            array,
            index,
            value,
        } => {
            let name = &f.arrays[array.0 as usize].name;
            let _ = writeln!(
                out,
                "{pad}{name}[{}] = {};",
                expr_to_string(f, index),
                expr_to_string(f, value)
            );
        }
        Stmt::AtomicRmw {
            op,
            array,
            index,
            value,
            old,
        } => {
            let name = &f.arrays[array.0 as usize].name;
            let prefix = old
                .map(|o| format!("{} = ", f.vars[o.0 as usize].name))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "{pad}{prefix}atomic_{op}(&{name}[{}], {});",
                expr_to_string(f, index),
                expr_to_string(f, value)
            );
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
            ..
        } => {
            let _ = writeln!(out, "{pad}if ({}) {{", expr_to_string(f, cond));
            for st in then_body {
                stmt_lines(f, st, indent + 1, out);
            }
            if !else_body.is_empty() {
                let _ = writeln!(out, "{pad}}} else {{");
                for st in else_body {
                    stmt_lines(f, st, indent + 1, out);
                }
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::For {
            var,
            start,
            end,
            body,
            ..
        } => {
            let name = &f.vars[var.0 as usize].name;
            let _ = writeln!(
                out,
                "{pad}for ({name} = {}; {name} < {}; {name}++) {{",
                expr_to_string(f, start),
                expr_to_string(f, end)
            );
            for st in body {
                stmt_lines(f, st, indent + 1, out);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::While { cond, body, .. } => {
            let _ = writeln!(out, "{pad}while ({}) {{", expr_to_string(f, cond));
            for st in body {
                stmt_lines(f, st, indent + 1, out);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::Break { levels } => {
            if *levels == 1 {
                let _ = writeln!(out, "{pad}break;");
            } else {
                let _ = writeln!(out, "{pad}break({levels});");
            }
        }
        Stmt::Enq { queue, value } => {
            let _ = writeln!(out, "{pad}enq({}, {});", queue.0, expr_to_string(f, value));
        }
        Stmt::EnqSel {
            queues,
            select,
            value,
        } => {
            let ids: Vec<String> = queues.iter().map(|q| q.0.to_string()).collect();
            let _ = writeln!(
                out,
                "{pad}enq_sel([{}], {}, {});",
                ids.join(","),
                expr_to_string(f, select),
                expr_to_string(f, value)
            );
        }
        Stmt::EnqCtrl { queue, ctrl } => {
            let _ = writeln!(out, "{pad}enq_ctrl({}, CV({ctrl}));", queue.0);
        }
        Stmt::Deq { var, queue } => {
            let name = &f.vars[var.0 as usize].name;
            let _ = writeln!(out, "{pad}{name} = deq({});", queue.0);
        }
    }
}

/// Renders a function as C-like pseudocode.
pub fn function_to_string(f: &Function) -> String {
    let mut out = String::new();
    let params: Vec<&str> = f
        .params
        .iter()
        .map(|p| f.vars[p.0 as usize].name.as_ref())
        .collect();
    let _ = writeln!(out, "void {}({}) {{", f.name, params.join(", "));
    for s in &f.body {
        stmt_lines(f, s, 1, &mut out);
    }
    let _ = writeln!(out, "}}");
    out
}

fn handler_to_string(f: &Function, h: &CtrlHandler) -> String {
    let mut out = String::new();
    let tag = h
        .ctrl
        .map(|c| format!("CV({c})"))
        .unwrap_or_else(|| "*".to_string());
    let end = match h.end {
        HandlerEnd::BreakLoops(n) => format!("break({n})"),
        HandlerEnd::FinishStage => "finish".to_string(),
        HandlerEnd::Resume => "resume".to_string(),
        HandlerEnd::FinishWhen(v, t) => {
            format!("finish_when({} >= {t})", f.vars[v.0 as usize].name)
        }
        HandlerEnd::BreakWhen(v, t, n) => {
            format!("break_when({} >= {t}, {n})", f.vars[v.0 as usize].name)
        }
    };
    let _ = writeln!(out, "  on_ctrl(q{}, {tag}) -> {end} {{", h.queue.0);
    for s in &h.body {
        stmt_lines(f, s, 2, &mut out);
    }
    let _ = writeln!(out, "  }}");
    out
}

/// Renders a full pipeline: stages, their placements, handlers, and RAs.
pub fn pipeline_to_string(p: &Pipeline) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "pipeline {} ({} compute stages, {} RAs, {} queues):",
        p.name,
        p.compute_stages(),
        p.ra_stages(),
        p.num_queues
    );
    for (i, s) in p.stages.iter().enumerate() {
        match &s.kind {
            StageKind::Compute => {
                let _ = writeln!(out, "-- stage {i} (core {}):", s.core);
                out.push_str(&function_to_string(&s.program.func));
                for h in &s.program.handlers {
                    out.push_str(&handler_to_string(&s.program.func, h));
                }
            }
            StageKind::Ra(cfg) => {
                let base = s
                    .program
                    .func
                    .arrays
                    .get(cfg.base.0 as usize)
                    .map(|d| d.name.as_str())
                    .unwrap_or("?");
                let _ = writeln!(
                    out,
                    "-- stage {i} (core {}): RA {:?} over {base}, q{} -> q{}{}",
                    s.core,
                    cfg.mode,
                    cfg.in_queue.0,
                    cfg.out_queue.0,
                    cfg.scan_end_ctrl
                        .map(|c| format!(", scan_end=CV({c})"))
                        .unwrap_or_default()
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::expr::{Expr, QueueId};

    #[test]
    fn printing_roundtrips_structure() {
        let mut b = FunctionBuilder::new("demo");
        let n = b.param_i64("n");
        let a = b.array_i32("a");
        let i = b.var_i64("i");
        let x = b.var_i64("x");
        b.for_loop(i, Expr::i64(0), Expr::var(n), |b| {
            let l = b.load(a, Expr::var(i));
            b.assign(x, l);
            b.if_then(Expr::lt(Expr::var(x), Expr::i64(0)), |b| {
                b.enq(QueueId(0), Expr::var(x));
            });
        });
        let f = b.build();
        let s = function_to_string(&f);
        assert!(s.contains("void demo(n)"));
        assert!(s.contains("for (i = 0; i < n; i++)"));
        assert!(s.contains("a[i]"));
        assert!(s.contains("enq(0, x);"));
    }
}
