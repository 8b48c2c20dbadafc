//! Lazy per-phase symbol info transformers: the two pins.
//!
//! * **View oracle.** `ElimRepeated`, `ElimByName` and `Erasure` no longer
//!   sweep the symbol table; they register an [`InfoTransformer`] and reads
//!   see its result lazily. The eager sweeps they replaced are kept here as
//!   the reference: over generated corpora × fused/mega/legacy, every
//!   symbol's `info` and `parents` read through the transformer view must
//!   equal what the eager in-place sweep (id order, each symbol rewritten
//!   against the table as the sweep has left it so far) produces — at
//!   every sweep point and after the whole pipeline. Erasure's `erase`
//!   reads other symbols (`widen`, `lub`), so this is what shows that lazy
//!   order agrees with id order. Output trees must match too.
//! * **Delta bound.** A compile session's per-unit pipeline writes only what
//!   the unit owns: every dirty entry of a unit's raw delta from
//!   `run_units_isolated` is one of the unit's own symbols (its owner chain
//!   reaches one of the unit's top-level definitions) or the root package,
//!   so the total dirty-entry count grows linearly in the unit count.

use miniphases::mini_driver::{standard_plan, CompilerOptions};
use miniphases::mini_ir::{
    printer, Ctx, InfoTransformer, SymbolDelta, SymbolId, SymbolTable, TreeRef, Type,
};
use miniphases::miniphase::{
    run_units_isolated, CompilationUnit, IsolatedLayout, MiniPhase, PhaseInfo, Pipeline,
    RunControls,
};
use miniphases::{mini_front, mini_phases, workload};
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

/// `(id, info, parents)` of every symbol, as reads see it.
type Snapshot = Vec<(u32, Type, Vec<Type>)>;

fn snapshot(tab: &SymbolTable) -> Snapshot {
    tab.ids()
        .map(|id| {
            let d = tab.sym(id);
            (id.index(), d.info.clone(), d.parents.clone())
        })
        .collect()
}

/// The eager sweep each signature-rewriting phase ran before info
/// transformers existed: every symbol in id order, rewritten in place.
fn eager_sweep(tab: &mut SymbolTable, t: InfoTransformer) {
    let ids: Vec<SymbolId> = tab.ids().collect();
    for id in ids {
        if let Some(new) = (t.transform)(tab, tab.sym(id)) {
            let d = tab.sym_mut(id);
            d.info = new.info;
            d.parents = new.parents;
        }
    }
}

/// Sweep points observed in one pipeline run: the phase and the snapshot
/// just after its sweep (eager) or registration (lazy).
type Log = Rc<RefCell<Vec<(String, Snapshot)>>>;

/// Wraps a signature-rewriting phase. `eager` hides the phase's
/// transformer from the executor and sweeps in its first `prepare_unit`
/// instead — the old behaviour; otherwise the executor registers the
/// transformer at group start as usual. Either way the first
/// `prepare_unit` logs a snapshot; every other hook delegates.
struct Probe {
    inner: Box<dyn MiniPhase>,
    eager: bool,
    fired: bool,
    log: Log,
}

impl PhaseInfo for Probe {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn description(&self) -> &str {
        self.inner.description()
    }
}

macro_rules! impl_probe_hooks {
    ($(($variant:ident, $t:ident, $p:ident),)*) => {
        impl MiniPhase for Probe {
            fn transforms(&self) -> miniphases::mini_ir::NodeKindSet {
                self.inner.transforms()
            }
            fn prepares(&self) -> miniphases::mini_ir::NodeKindSet {
                self.inner.prepares()
            }
            fn runs_after(&self) -> Vec<&'static str> {
                self.inner.runs_after()
            }
            fn runs_after_groups_of(&self) -> Vec<&'static str> {
                self.inner.runs_after_groups_of()
            }
            fn info_transformer(&self) -> Option<InfoTransformer> {
                if self.eager {
                    None
                } else {
                    self.inner.info_transformer()
                }
            }
            fn prepare_unit(&mut self, ctx: &mut Ctx, unit_tree: &TreeRef) {
                if !self.fired {
                    self.fired = true;
                    if self.eager {
                        let t = self.inner.info_transformer().expect("wrapped phases rewrite infos");
                        eager_sweep(&mut ctx.symbols, t);
                    }
                    self.log
                        .borrow_mut()
                        .push((self.inner.name().to_owned(), snapshot(&ctx.symbols)));
                }
                self.inner.prepare_unit(ctx, unit_tree);
            }
            fn transform_unit(&mut self, ctx: &mut Ctx, tree: TreeRef) -> TreeRef {
                self.inner.transform_unit(ctx, tree)
            }
            fn check_post_condition(&self, ctx: &Ctx, t: &TreeRef) -> Result<(), String> {
                self.inner.check_post_condition(ctx, t)
            }
            fn finish_prepared(&mut self, ctx: &mut Ctx, t: &TreeRef) {
                self.inner.finish_prepared(ctx, t)
            }
            $(
                fn $t(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
                    self.inner.$t(ctx, tree)
                }
                fn $p(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> bool {
                    self.inner.$p(ctx, tree)
                }
            )*
        }
    };
}

miniphases::mini_ir::with_node_kinds!(impl_probe_hooks);

/// Everything observable about one pipeline run.
#[derive(PartialEq, Debug)]
struct Observed {
    sweeps: Vec<(String, Snapshot)>,
    after: Snapshot,
    printed: Vec<String>,
}

/// Types `sources` and runs the standard pipeline of `opts` on one
/// sequential `Pipeline`, with every signature-rewriting phase probed.
fn run(sources: &[(String, String)], opts: &CompilerOptions, eager: bool) -> Observed {
    let mut ctx = Ctx::new();
    opts.configure_ctx(&mut ctx);
    let units: Vec<CompilationUnit> = sources
        .iter()
        .map(|(name, src)| {
            let typed = mini_front::compile_source(&mut ctx, name, src).expect("corpus parses");
            CompilationUnit::new(typed.name, typed.tree)
        })
        .collect();
    assert!(!ctx.has_errors(), "corpus types: {:?}", ctx.errors);
    let (phases, plan) = standard_plan(opts).expect("standard plan");
    let log: Log = Rc::default();
    let phases: Vec<Box<dyn MiniPhase>> = phases
        .into_iter()
        .map(|p| -> Box<dyn MiniPhase> {
            if p.info_transformer().is_some() {
                Box::new(Probe {
                    inner: p,
                    eager,
                    fired: false,
                    log: log.clone(),
                })
            } else {
                p
            }
        })
        .collect();
    let mut pipe = Pipeline::new(phases, &plan, opts.fusion);
    let out = pipe.run_units(&mut ctx, units);
    assert!(
        !ctx.has_errors(),
        "pipeline reports no errors: {:?}",
        ctx.errors
    );
    if eager {
        assert!(
            ctx.symbols.info_transformers().is_empty(),
            "the eager reference registers nothing"
        );
    }
    let sweeps = log.take();
    Observed {
        sweeps,
        after: snapshot(&ctx.symbols),
        printed: out
            .iter()
            .map(|u| printer::print_tree(&u.tree, &ctx.symbols))
            .collect(),
    }
}

fn corpora() -> Vec<(&'static str, Vec<(String, String)>)> {
    let sorted = |w: workload::Workload| {
        let mut units = w.units;
        units.sort();
        units
    };
    let linked = |units| {
        sorted(workload::generate_linked(&workload::LinkedConfig {
            units,
            ..workload::LinkedConfig::incr_bench()
        }))
    };
    vec![
        (
            "stdlib-slice",
            workload::generate(&workload::WorkloadConfig {
                target_loc: 2_000,
                ..workload::WorkloadConfig::stdlib_like()
            })
            .units,
        ),
        ("linked-8", linked(8)),
        ("linked-32", linked(32)),
        (
            "exec",
            sorted(workload::generate_exec(&workload::ExecConfig::small())),
        ),
    ]
}

#[test]
fn view_oracle_lazy_transformers_match_eager_sweeps() {
    let modes = [
        ("fused", CompilerOptions::fused()),
        ("mega", CompilerOptions::mega()),
        ("legacy", CompilerOptions::legacy()),
    ];
    for (corpus, sources) in corpora() {
        for (mode, opts) in &modes {
            let lazy = run(&sources, opts, false);
            let eager = run(&sources, opts, true);
            let names: Vec<&str> = lazy.sweeps.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(
                names,
                ["elimRepeated", "elimByName", "erasure"],
                "{corpus}/{mode}: one sweep point per signature-rewriting phase"
            );
            for ((phase, l), (_, e)) in lazy.sweeps.iter().zip(&eager.sweeps) {
                assert_eq!(l.len(), e.len(), "{corpus}/{mode}/{phase}: symbol count");
                for (lv, ev) in l.iter().zip(e) {
                    assert_eq!(lv, ev, "{corpus}/{mode}: view differs at the {phase} sweep");
                }
            }
            assert_eq!(
                lazy.after, eager.after,
                "{corpus}/{mode}: view differs after the pipeline"
            );
            assert_eq!(lazy.printed, eager.printed, "{corpus}/{mode}: trees differ");
        }
    }
}

#[test]
fn view_oracle_sweep_points_change_symbols() {
    // Non-vacuity: on the stdlib slice (varargs, by-name parameters and
    // generic signatures), each of the three transformers rewrites at
    // least one symbol, so the oracle above compares real rewrites.
    let (_, sources) = corpora().swap_remove(0);
    let lazy = run(&sources, &CompilerOptions::fused(), false);
    let mut ctx = Ctx::new();
    for (name, src) in &sources {
        mini_front::compile_source(&mut ctx, name, src).expect("corpus parses");
    }
    let mut before = snapshot(&ctx.symbols);
    for (phase, snap) in &lazy.sweeps {
        let changed = before
            .iter()
            .zip(snap)
            .filter(|(b, s)| b.0 == s.0 && b != s)
            .count();
        assert!(changed > 0, "{phase} rewrote no symbol");
        before = snap.clone();
    }
}

/// Types a linked corpus the way a compile session does and runs every
/// unit through its own isolated pipeline; returns each unit's top-level
/// symbols, its raw delta, and the frontend table.
fn isolated_deltas(units: usize) -> (Vec<HashSet<SymbolId>>, Vec<SymbolDelta>, SymbolTable) {
    let mut sources = workload::generate_linked(&workload::LinkedConfig {
        units,
        ..workload::LinkedConfig::incr_bench()
    })
    .units;
    sources.sort();
    let mut ctx = Ctx::new();
    let mut tops = Vec::new();
    let mut typed_units = Vec::new();
    for (name, src) in &sources {
        let typed = mini_front::compile_source(&mut ctx, name, src).expect("corpus parses");
        tops.push(typed.top_syms.iter().copied().collect());
        typed_units.push(CompilationUnit::new(typed.name, typed.tree));
    }
    assert!(!ctx.has_errors());
    let (_, plan) = standard_plan(&CompilerOptions::fused()).expect("standard plan");
    let (id_floor, heap_floor) = ctx.alloc_watermarks();
    let layout = IsolatedLayout {
        sym_floor: ctx.symbols.id_ceiling() + (1 << 16),
        sym_shard_capacity: 1 << 16,
        id_floor,
        heap_floor,
    };
    let runs = run_units_isolated(
        &ctx,
        &mini_phases::standard_pipeline,
        &plan,
        CompilerOptions::fused().fusion,
        &typed_units,
        1,
        false,
        layout,
        &RunControls::default(),
    );
    let deltas = runs
        .into_iter()
        .map(|r| r.map(|r| r.delta).expect("unit compiles"))
        .collect();
    (tops, deltas, ctx.symbols)
}

/// Dirty entries of every unit's delta; panics on any entry outside the
/// unit's own symbols and the root package.
fn bounded_dirty_count(units: usize) -> usize {
    let (tops, deltas, front) = isolated_deltas(units);
    let root = front.builtins().root_pkg;
    let mut total = 0;
    for (unit, (top, delta)) in tops.iter().zip(&deltas).enumerate() {
        for (id, _) in delta.dirty_entries() {
            total += 1;
            let mut cur = id;
            let owned = loop {
                if id == root || top.contains(&cur) {
                    break true;
                }
                cur = front.sym(cur).owner;
                if !cur.exists() {
                    break false;
                }
            };
            assert!(
                owned,
                "{units} units: unit #{unit}'s delta writes {} ({id:?}), which it does not own",
                front.full_name(id)
            );
        }
    }
    total
}

#[test]
fn delta_bound_unit_deltas_touch_only_owned_symbols() {
    let small = bounded_dirty_count(8);
    let large = bounded_dirty_count(64);
    // Linear growth: per-unit dirty entries stay flat as the corpus grows
    // eightfold (the whole-table sweeps made them grow with N, for a
    // quadratic total).
    let per_unit = |total: usize, units: usize| total as f64 / (units + 1) as f64;
    assert!(
        per_unit(large, 64) <= 1.5 * per_unit(small, 8),
        "dirty entries grow faster than linearly: {small} at 8 units, {large} at 64"
    );
}
