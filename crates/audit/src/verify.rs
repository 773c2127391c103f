//! Structural well-formedness verification for IR modules.
//!
//! The verifier checks the invariants every other pass silently assumes:
//! values are defined before use and in range, calls match their callee's
//! arity, access sites and call sites are unique and dense, every function
//! is reachable from the entry point, and `tx_begin`/`tx_end` pair up in
//! every control-flow shape. A module that passes is safe to feed to the
//! points-to, sharing, replication, and classification passes.

use hintm_ir::{FuncId, Instr, Module, Stmt, ValueId};
use std::collections::BTreeSet;
use std::fmt;

/// One well-formedness violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// The offending function's name (`None` for module-level errors).
    pub(crate) func: Option<String>,
    /// What is wrong.
    pub(crate) message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.func {
            Some(name) => write!(f, "in {name}: {}", self.message),
            None => write!(f, "module: {}", self.message),
        }
    }
}

/// Verifies `module`, returning every violation in deterministic order
/// (functions in id order, instructions in syntactic order, module-level
/// checks last). An empty result means the module is well-formed.
pub fn verify(module: &Module) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    for (fid, f) in module.iter_funcs() {
        let err = |msg: String, errors: &mut Vec<VerifyError>| {
            errors.push(VerifyError {
                func: Some(f.name.clone()),
                message: msg,
            });
        };

        // Def-before-use in syntactic order (params are pre-defined; the
        // builder numbers values linearly, so a def in either branch of an
        // `if` legitimately dominates later syntactic uses via phi-like
        // store/load joins).
        let mut defined: BTreeSet<ValueId> = (0..f.num_params as u32).map(ValueId).collect();
        module.visit_instrs(fid, |i| {
            for v in used_values(i) {
                if v.0 as usize >= f.num_values {
                    err(
                        format!("value v{} out of range (num_values {})", v.0, f.num_values),
                        &mut errors,
                    );
                } else if !defined.contains(&v) {
                    err(
                        format!("value v{} used before definition", v.0),
                        &mut errors,
                    );
                }
            }
            if let Some(out) = defined_value(i) {
                if out.0 as usize >= f.num_values {
                    err(
                        format!(
                            "defined value v{} out of range (num_values {})",
                            out.0, f.num_values
                        ),
                        &mut errors,
                    );
                } else if !defined.insert(out) {
                    err(format!("value v{} defined twice", out.0), &mut errors);
                }
            }
            // Call/spawn arity and callee range.
            if let Instr::Call { callee, args, .. } | Instr::Spawn { callee, args } = i {
                if callee.0 as usize >= module.funcs.len() {
                    err(format!("callee f{} out of range", callee.0), &mut errors);
                } else {
                    let want = module.func(*callee).num_params;
                    if args.len() != want {
                        err(
                            format!(
                                "call to {} passes {} args, callee takes {}",
                                module.func(*callee).name,
                                args.len(),
                                want
                            ),
                            &mut errors,
                        );
                    }
                }
            }
        });

        // tx_begin/tx_end pairing across the structured control flow.
        match tx_delta(&f.body) {
            Err(msg) => err(msg, &mut errors),
            Ok(d) if d != 0 => err(format!("function ends with tx depth {d}"), &mut errors),
            Ok(_) => {}
        }
    }

    // Site uniqueness and density (module-wide).
    check_dense(
        module,
        "access site",
        module.num_sites,
        |i, sites| match i {
            Instr::Load { site, .. } | Instr::Store { site, .. } => sites.push(site.0),
            Instr::Memcpy {
                load_site,
                store_site,
                ..
            } => {
                sites.push(load_site.0);
                sites.push(store_site.0);
            }
            _ => {}
        },
        &mut errors,
    );
    check_dense(
        module,
        "call site",
        module.num_call_sites,
        |i, sites| {
            if let Instr::Call { id, .. } = i {
                sites.push(id.0);
            }
        },
        &mut errors,
    );

    // Reachability from the entry point, following calls and spawns.
    let mut reachable: BTreeSet<FuncId> = BTreeSet::new();
    let mut work = vec![module.entry];
    while let Some(fid) = work.pop() {
        if !reachable.insert(fid) || fid.0 as usize >= module.funcs.len() {
            continue;
        }
        module.visit_instrs(fid, |i| {
            if let Instr::Call { callee, .. } | Instr::Spawn { callee, .. } = i {
                if (callee.0 as usize) < module.funcs.len() {
                    work.push(*callee);
                }
            }
        });
    }
    for (fid, f) in module.iter_funcs() {
        if !reachable.contains(&fid) {
            errors.push(VerifyError {
                func: None,
                message: format!("function {} is unreachable from the entry point", f.name),
            });
        }
    }
    if !reachable.contains(&module.thread_root) {
        errors.push(VerifyError {
            func: None,
            message: "thread root is unreachable from the entry point".to_string(),
        });
    }

    errors
}

/// Values an instruction reads.
fn used_values(i: &Instr) -> Vec<ValueId> {
    match i {
        Instr::Alloca { .. } | Instr::Halloc { .. } | Instr::Global { .. } => vec![],
        Instr::Free { ptr } => vec![*ptr],
        Instr::Gep { base, .. } => vec![*base],
        Instr::Load { ptr, .. } => vec![*ptr],
        Instr::Store { ptr, val, .. } => {
            let mut v = vec![*ptr];
            v.extend(val.iter().copied());
            v
        }
        Instr::Memcpy { dst, src, .. } => vec![*dst, *src],
        Instr::Call { args, .. } | Instr::Spawn { args, .. } => args.clone(),
        Instr::TxBegin | Instr::TxEnd => vec![],
        Instr::Return { val } => val.iter().copied().collect(),
    }
}

/// The value an instruction defines, if any.
fn defined_value(i: &Instr) -> Option<ValueId> {
    match i {
        Instr::Alloca { out }
        | Instr::Halloc { out }
        | Instr::Global { out, .. }
        | Instr::Gep { out, .. } => Some(*out),
        Instr::Load { out, .. } => *out,
        Instr::Call { out, .. } => *out,
        _ => None,
    }
}

/// Net `tx_begin`/`tx_end` delta of a block, or an error description.
///
/// A loop body must be net-zero (otherwise depth changes per iteration)
/// and the two sides of a branch must agree; the running depth may never
/// go negative.
fn tx_delta(stmts: &[Stmt]) -> Result<i32, String> {
    let mut depth = 0i32;
    for s in stmts {
        match s {
            Stmt::Instr(Instr::TxBegin) => depth += 1,
            Stmt::Instr(Instr::TxEnd) => {
                depth -= 1;
                if depth < 0 {
                    return Err("tx_end without matching tx_begin".to_string());
                }
            }
            Stmt::Instr(_) => {}
            Stmt::Loop { body, .. } => {
                let d = tx_delta(body)?;
                if d != 0 {
                    return Err(format!("loop body has net tx delta {d}"));
                }
            }
            Stmt::If(a, b) => {
                let da = tx_delta(a)?;
                let db = tx_delta(b)?;
                if da != db {
                    return Err(format!("branch sides disagree on tx delta ({da} vs {db})"));
                }
                depth += da;
                if depth < 0 {
                    return Err("tx_end without matching tx_begin".to_string());
                }
            }
        }
    }
    Ok(depth)
}

/// Checks that the ids collected by `collect` are unique and exactly
/// `0..count`.
fn check_dense(
    module: &Module,
    what: &str,
    count: u32,
    collect: impl Fn(&Instr, &mut Vec<u32>),
    errors: &mut Vec<VerifyError>,
) {
    let mut ids = Vec::new();
    for (fid, _) in module.iter_funcs() {
        module.visit_instrs(fid, |i| collect(i, &mut ids));
    }
    let mut seen = BTreeSet::new();
    for id in &ids {
        if !seen.insert(*id) {
            errors.push(VerifyError {
                func: None,
                message: format!("{what} {id} used more than once"),
            });
        }
    }
    for id in 0..count {
        if !seen.contains(&id) {
            errors.push(VerifyError {
                func: None,
                message: format!("{what} {id} allocated but never used"),
            });
        }
    }
    if let Some(max) = seen.iter().next_back() {
        if *max >= count {
            errors.push(VerifyError {
                func: None,
                message: format!("{what} {max} exceeds the declared count {count}"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hintm_ir::{Function, ModuleBuilder};

    fn tiny() -> Module {
        let mut m = ModuleBuilder::new();
        let mut w = m.func("worker", 0);
        let buf = w.halloc();
        w.tx_begin();
        w.store(buf);
        w.tx_end();
        w.ret();
        let worker = w.finish();
        let mut main = m.func("main", 0);
        main.spawn(worker, vec![]);
        main.ret();
        let entry = main.finish();
        m.finish(entry, worker)
    }

    #[test]
    fn well_formed_module_passes() {
        assert!(verify(&tiny()).is_empty());
    }

    #[test]
    fn unreachable_function_reported() {
        let mut module = tiny();
        module.funcs.push(Function {
            name: "orphan".to_string(),
            num_params: 0,
            body: vec![Stmt::Instr(Instr::Return { val: None })],
            num_values: 0,
            alloc_sizes: Default::default(),
        });
        let errs = verify(&module);
        assert!(errs.iter().any(|e| e.message.contains("orphan")));
    }

    #[test]
    fn arity_mismatch_reported() {
        let mut module = tiny();
        // main spawns worker (0 params) — hand it a bogus argument.
        module.funcs[1 /* main */].body.insert(
            0,
            Stmt::Instr(Instr::Spawn {
                callee: FuncId(0),
                args: vec![ValueId(0)],
            }),
        );
        module.funcs[1].num_values = 1;
        let errs = verify(&module);
        assert!(errs.iter().any(|e| e.message.contains("args")));
        // The bogus arg is also used-before-defined.
        assert!(errs.iter().any(|e| e.message.contains("before definition")));
    }

    #[test]
    fn unbalanced_tx_reported() {
        let mut module = tiny();
        // Drop the TxEnd from the worker.
        module.funcs[0]
            .body
            .retain(|s| !matches!(s, Stmt::Instr(Instr::TxEnd)));
        let errs = verify(&module);
        assert!(errs.iter().any(|e| e.message.contains("tx depth")));
    }

    #[test]
    fn duplicate_site_reported() {
        let mut module = tiny();
        // Duplicate the worker's store (same SiteId appears twice).
        let dup = module.funcs[0]
            .body
            .iter()
            .find(|s| matches!(s, Stmt::Instr(Instr::Store { .. })))
            .cloned()
            .unwrap();
        module.funcs[0].body.push(dup);
        let errs = verify(&module);
        assert!(errs.iter().any(|e| e.message.contains("more than once")));
    }
}
