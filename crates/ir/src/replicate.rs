//! Function replication for context-sensitive safety (§IV-A).
//!
//! When a function is called with provably-safe pointer arguments at one
//! call site and unknown/shared arguments at another, context-insensitive
//! analysis must classify its access sites unsafely. The paper's capture-
//! tracking pass clones the function for the safe context and redirects the
//! call; the clone's sites then classify on their own. This pass does the
//! same: clones get fresh access-site ids, the safe call site is rewritten,
//! and a `(call site, original site) → clone site` map is returned so the
//! workload can emit the clone's site ids on that call path.

use crate::module::{CallSiteId, FuncId, Function, Instr, Module, Stmt};
use crate::points_to::PointsTo;
use crate::sharing::Sharing;
use hintm_types::SiteId;
use std::collections::{BTreeMap, HashMap};

/// The result of the replication transform.
#[derive(Clone, Debug, Default)]
pub struct Replication {
    /// `(rewritten call site, original site) → clone site`. Ordered so
    /// that downstream emission is deterministic.
    pub site_map: BTreeMap<(CallSiteId, SiteId), SiteId>,
    /// Clones created: `(original, clone)`.
    pub(crate) replicated: Vec<(FuncId, FuncId)>,
}

/// Applies replication, returning the transformed module and the mapping.
pub fn replicate(module: &Module, pt: &PointsTo, sh: &Sharing) -> (Module, Replication) {
    // Count call sites per callee and find safe-context call sites. The
    // map is ordered so that clone creation (and hence fresh site/call-site
    // numbering) is deterministic across runs.
    let mut call_contexts: BTreeMap<FuncId, Vec<(FuncId, CallSiteId, bool)>> = BTreeMap::new();
    for (fid, _) in module.iter_funcs() {
        module.visit_instrs(fid, |i| {
            if let Instr::Call {
                callee, args, id, ..
            } = i
            {
                let safe_ctx = args.iter().all(|a| {
                    let objs = pt.pts(fid, *a);
                    // Non-pointer args have empty pts and are irrelevant.
                    objs.is_empty() || sh.all_thread_private(objs)
                }) && args.iter().any(|a| !pt.pts(fid, *a).is_empty());
                call_contexts
                    .entry(*callee)
                    .or_default()
                    .push((fid, *id, safe_ctx));
            }
        });
    }

    // Candidates: callees with ≥1 safe-context call site and ≥1 unsafe one,
    // and at least one access site worth rescuing.
    let mut out = module.clone();
    let mut rep = Replication::default();
    let mut next_site = module.num_sites;
    let mut next_call_site = module.num_call_sites;

    for (callee, ctxs) in call_contexts {
        let has_safe = ctxs.iter().any(|(_, _, s)| *s);
        let has_unsafe = ctxs.iter().any(|(_, _, s)| !*s);
        if !(has_safe && has_unsafe) {
            continue;
        }
        let mut has_sites = false;
        module.visit_instrs(callee, |i| {
            has_sites |= matches!(
                i,
                Instr::Load { .. } | Instr::Store { .. } | Instr::Memcpy { .. }
            );
        });
        if !has_sites {
            continue;
        }

        for (caller, call_site, safe) in ctxs {
            if !safe {
                continue;
            }
            // Clone the callee with fresh sites.
            let mut site_remap: HashMap<SiteId, SiteId> = HashMap::new();
            let original = module.func(callee);
            let clone_body = clone_stmts(
                &original.body,
                &mut site_remap,
                &mut next_site,
                &mut next_call_site,
            );
            out.funcs.push(Function {
                name: format!("{}$safe{}", original.name, call_site.0),
                num_params: original.num_params,
                body: clone_body,
                num_values: original.num_values,
                // Cloning preserves instruction order, so visit-indexed
                // size annotations carry over unchanged.
                alloc_sizes: original.alloc_sizes.clone(),
            });
            let clone_id = FuncId(out.funcs.len() as u32 - 1);
            rep.replicated.push((callee, clone_id));
            for (orig, cloned) in &site_remap {
                rep.site_map.insert((call_site, *orig), *cloned);
            }
            // Rewrite the call site in the (possibly already rewritten)
            // caller body of `out`.
            rewrite_call(&mut out.funcs[caller.0 as usize].body, call_site, clone_id);
        }
    }
    out.num_sites = next_site;
    out.num_call_sites = next_call_site;
    (out, rep)
}

fn clone_stmts(
    stmts: &[Stmt],
    site_remap: &mut HashMap<SiteId, SiteId>,
    next_site: &mut u32,
    next_call_site: &mut u32,
) -> Vec<Stmt> {
    fn fresh_site(
        orig: SiteId,
        site_remap: &mut HashMap<SiteId, SiteId>,
        next_site: &mut u32,
    ) -> SiteId {
        let s = SiteId(*next_site);
        *next_site += 1;
        site_remap.insert(orig, s);
        s
    }
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Instr(i) => Stmt::Instr(match i {
                Instr::Load { out, ptr, site } => Instr::Load {
                    out: *out,
                    ptr: *ptr,
                    site: fresh_site(*site, site_remap, next_site),
                },
                Instr::Store { ptr, val, site } => Instr::Store {
                    ptr: *ptr,
                    val: *val,
                    site: fresh_site(*site, site_remap, next_site),
                },
                Instr::Memcpy {
                    dst,
                    src,
                    load_site,
                    store_site,
                } => Instr::Memcpy {
                    dst: *dst,
                    src: *src,
                    load_site: fresh_site(*load_site, site_remap, next_site),
                    store_site: fresh_site(*store_site, site_remap, next_site),
                },
                Instr::Call {
                    callee, args, out, ..
                } => {
                    let id = CallSiteId(*next_call_site);
                    *next_call_site += 1;
                    Instr::Call {
                        callee: *callee,
                        args: args.clone(),
                        out: *out,
                        id,
                    }
                }
                other => other.clone(),
            }),
            Stmt::Loop { body, trip } => Stmt::Loop {
                body: clone_stmts(body, site_remap, next_site, next_call_site),
                trip: *trip,
            },
            Stmt::If(a, b) => Stmt::If(
                clone_stmts(a, site_remap, next_site, next_call_site),
                clone_stmts(b, site_remap, next_site, next_call_site),
            ),
        })
        .collect()
}

fn rewrite_call(stmts: &mut [Stmt], target: CallSiteId, new_callee: FuncId) {
    for s in stmts {
        match s {
            Stmt::Instr(Instr::Call { callee, id, .. }) if *id == target => {
                *callee = new_callee;
            }
            Stmt::Instr(_) => {}
            Stmt::Loop { body, .. } => rewrite_call(body, target, new_callee),
            Stmt::If(a, b) => {
                rewrite_call(a, target, new_callee);
                rewrite_call(b, target, new_callee);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ModuleBuilder;
    use crate::points_to::points_to;
    use crate::sharing::sharing;

    /// worker calls `process` once with a private buffer and once with a
    /// shared structure.
    fn mixed_context_module() -> (Module, CallSiteId, CallSiteId, SiteId) {
        let mut m = ModuleBuilder::new();
        let g = m.global("shared");
        let mut p = m.func("process", 1);
        let arg = p.param(0);
        let site = p.store(arg);
        p.ret();
        let process = p.finish();

        let mut w = m.func("worker", 0);
        let private = w.halloc();
        let ga = w.global_addr(g);
        let safe_call = w.call(process, vec![private]);
        let unsafe_call = w.call(process, vec![ga]);
        w.ret();
        let worker = w.finish();

        let mut main = m.func("main", 0);
        main.spawn(worker, vec![]);
        main.ret();
        let entry = main.finish();
        (m.finish(entry, worker), safe_call, unsafe_call, site)
    }

    #[test]
    fn mixed_contexts_trigger_replication() {
        let (module, safe_call, _unsafe_call, site) = mixed_context_module();
        let pt = points_to(&module);
        let sh = sharing(&module, &pt);
        let (out, rep) = replicate(&module, &pt, &sh);

        assert_eq!(rep.replicated.len(), 1);
        let clone_site = rep
            .site_map
            .get(&(safe_call, site))
            .copied()
            .expect("mapped site");
        assert_ne!(clone_site, site);
        assert_eq!(out.funcs.len(), module.funcs.len() + 1);
        assert!(out.num_sites > module.num_sites);

        // After replication, the clone's store targets only the private
        // buffer — the fresh analysis proves it thread-private.
        let pt2 = points_to(&out);
        let sh2 = sharing(&out, &pt2);
        let (_, clone_id) = rep.replicated[0];
        let clone_fn = out.func(clone_id);
        assert!(clone_fn.name.contains("$safe"));
        let param_objs = pt2.pts(clone_id, crate::module::ValueId(0));
        assert!(sh2.all_thread_private(param_objs));
    }

    #[test]
    fn uniform_contexts_do_not_replicate() {
        // Both call sites pass private buffers → no clone needed.
        let mut m = ModuleBuilder::new();
        let mut p = m.func("process", 1);
        let arg = p.param(0);
        p.store(arg);
        p.ret();
        let process = p.finish();
        let mut w = m.func("worker", 0);
        let a = w.halloc();
        let b = w.halloc();
        w.call(process, vec![a]);
        w.call(process, vec![b]);
        w.ret();
        let worker = w.finish();
        let mut main = m.func("main", 0);
        main.spawn(worker, vec![]);
        main.ret();
        let entry = main.finish();
        let module = m.finish(entry, worker);
        let pt = points_to(&module);
        let sh = sharing(&module, &pt);
        let (out, rep) = replicate(&module, &pt, &sh);
        assert!(rep.replicated.is_empty());
        assert_eq!(out.funcs.len(), module.funcs.len());
    }

    #[test]
    fn callee_without_sites_is_skipped() {
        let mut m = ModuleBuilder::new();
        let g = m.global("shared");
        let mut p = m.func("noop", 1);
        p.ret();
        let noop = p.finish();
        let mut w = m.func("worker", 0);
        let a = w.halloc();
        let ga = w.global_addr(g);
        w.call(noop, vec![a]);
        w.call(noop, vec![ga]);
        w.ret();
        let worker = w.finish();
        let mut main = m.func("main", 0);
        main.spawn(worker, vec![]);
        main.ret();
        let entry = main.finish();
        let module = m.finish(entry, worker);
        let pt = points_to(&module);
        let sh = sharing(&module, &pt);
        let (_, rep) = replicate(&module, &pt, &sh);
        assert!(rep.replicated.is_empty());
    }

    #[test]
    fn rewritten_module_remains_consistent() {
        let (module, _, _, _) = mixed_context_module();
        let pt = points_to(&module);
        let sh = sharing(&module, &pt);
        let (out, _) = replicate(&module, &pt, &sh);
        // Re-running the full analysis on the output must not panic and
        // call sites must stay unique.
        let mut seen = std::collections::HashSet::new();
        for (fid, _) in out.iter_funcs() {
            out.visit_instrs(fid, |i| {
                if let Instr::Call { id, .. } = i {
                    assert!(seen.insert(*id), "duplicate call site {id:?}");
                }
            });
        }
        let _ = points_to(&out);
    }
}
