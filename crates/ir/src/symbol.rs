//! Symbols and the symbol table.
//!
//! Symbols are unique identifiers for definitions — classes, methods, fields,
//! parameters, locals — exactly as in the paper (§2). The [`SymbolTable`] is
//! an arena indexed by [`SymbolId`]; it also owns the class hierarchy and
//! therefore hosts the hierarchy-dependent type operations: subtyping, least
//! upper bounds, linearization, member lookup and erasure.

use crate::flags::Flags;
use crate::names::{std_names, Name};
use crate::span::Span;
use crate::types::Type;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A compact handle identifying one definition.
///
/// `SymbolId::NONE` is the null symbol, used for not-yet-resolved references.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymbolId(u32);

impl SymbolId {
    /// The null symbol.
    pub const NONE: SymbolId = SymbolId(0);

    /// True if this is the null symbol.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// True if this refers to an actual definition.
    pub fn exists(self) -> bool {
        self.0 != 0
    }

    /// The raw arena index.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Rebuilds a handle from a raw index (for dense side tables and tests).
    pub fn from_index(i: u32) -> SymbolId {
        SymbolId(i)
    }
}

impl fmt::Debug for SymbolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// What sort of definition a symbol names.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SymKind {
    /// A term definition: `val`, `var`, `def`, parameter, local.
    Term,
    /// A class or trait.
    Class,
    /// A package.
    Package,
    /// A type parameter.
    TypeParam,
    /// A jump label (introduced by `TailRec` / `PatternMatcher`).
    Label,
}

/// The data stored for one symbol.
#[derive(Clone, Debug)]
pub struct SymbolData {
    /// The definition's name.
    pub name: Name,
    /// Property flags.
    pub flags: Flags,
    /// The enclosing definition.
    pub owner: SymbolId,
    /// The sort of definition.
    pub kind: SymKind,
    /// The symbol's type: a method type for `def`s, the value type for
    /// `val`s. `NoType` for packages.
    pub info: Type,
    /// Source location of the definition.
    pub span: Span,
    /// Class only: parent types, superclass first.
    pub parents: Vec<Type>,
    /// Class/package only: member symbols in declaration order.
    pub decls: Vec<SymbolId>,
    /// Class only: type parameters.
    pub tparams: Vec<SymbolId>,
    /// How many of the owning table's info transformers `info`/`parents`
    /// already reflect: the stack height when the symbol was created or
    /// last written. [`SymbolTable::sym`] applies the rest on read.
    level: u32,
}

/// The two fields of a symbol an [`InfoTransformer`] rewrites.
#[derive(Clone, Debug, PartialEq)]
pub struct SymbolInfo {
    /// The new `info`.
    pub info: Type,
    /// The new `parents`.
    pub parents: Vec<Type>,
}

/// A phase's rewrite of symbol signatures, applied lazily — the per-phase
/// denotation transformers of the paper's host compiler (Dotty's
/// `InfoTransformer`), in place of an eager sweep over every symbol.
///
/// A phase's transformer is registered on the table when its fusion group
/// starts ([`SymbolTable::register_info_transformer`]). From then on
/// [`SymbolTable::sym`] reads each symbol through the transformers
/// registered since the symbol was created or last written, memoised per
/// table. Symbols created or written later are already in post-phase form
/// and read as stored — exactly what an eager sweep at registration time
/// would have left behind.
#[derive(Clone, Copy, Debug)]
pub struct InfoTransformer {
    /// Name of the registering phase.
    pub phase: &'static str,
    /// Maps a symbol, as the earlier transformers left it, to its info and
    /// parents after this phase, or `None` when the phase leaves both
    /// unchanged. Reads of other symbols go through `view`, the table's
    /// current view — not the half-swept table an eager sweep in id order
    /// would have seen. Erasure reads other symbols only through `widen`
    /// (`TermRef`) and `lub` (union types), which no symbol info from the
    /// frontend contains; `tests/info_transformers.rs` pins lazy ≡ eager.
    pub transform: fn(view: &SymbolTable, sym: &SymbolData) -> Option<SymbolInfo>,
}

/// Well-known symbols created at table construction.
#[derive(Clone, Copy, Debug)]
pub struct Builtins {
    /// The root package.
    pub root_pkg: SymbolId,
    /// A pseudo-class holding the universal members of `Any`
    /// (`equals`, `toString`, `getClass`).
    pub any_class: SymbolId,
    /// `equals(that: Any): Boolean` on `Any`.
    pub equals_meth: SymbolId,
    /// `toString(): String` on `Any`.
    pub to_string_meth: SymbolId,
    /// `getClass(): String` on `Any` (returns the runtime class name).
    pub get_class_meth: SymbolId,
    /// `println(x: Any): Unit`, the single built-in I/O primitive.
    pub println_fn: SymbolId,
    /// `Function0` .. `Function3` classes.
    pub function_classes: [SymbolId; 4],
}

/// A contiguous block of symbols whose ids start at `start` instead of
/// extending the base arena — the unit of symbol-id space handed to one
/// parallel-compilation worker (see [`SymbolTable::fork_for_worker`]).
#[derive(Clone, Debug)]
struct Shard {
    /// First id of the shard; slot `k` holds id `start + k`.
    start: u32,
    /// Exclusive upper bound on ids this shard may allocate.
    capacity: u32,
    /// `Arc`-shared so adopting a delta (and cloning a table or a delta)
    /// shares the shard instead of copying its symbols.
    syms: Arc<Vec<SymbolData>>,
}

impl Shard {
    fn contains(&self, id: u32) -> bool {
        id >= self.start && ((id - self.start) as usize) < self.syms.len()
    }
}

/// Index into a `start`-sorted, disjoint shard list of the shard containing
/// `id`, or `None`. The one definition of shard resolution shared by every
/// read, write, and fork-snapshot path — a boundary fix here fixes all of
/// them at once.
fn find_shard(shards: &[Shard], id: u32) -> Option<usize> {
    let at = shards.partition_point(|s| s.start + s.syms.len() as u32 <= id);
    shards.get(at).filter(|s| s.contains(id)).map(|_| at)
}

/// Where a worker fork carves **overflow shards** once its primary shard
/// fills. A symbol-heavy unit chunk no longer aborts the compile: the fork
/// chains a fresh shard at `next_start`, then advances `next_start` by
/// `step`. The scheduler interleaves forks' overflow regions (fork `c` of
/// `k` concurrent forks steps by `k × capacity`), so chained ids stay
/// globally unique without any cross-thread coordination.
#[derive(Clone, Copy, Debug)]
pub struct ShardGrowth {
    /// First id of this fork's next overflow shard.
    pub next_start: u32,
    /// Id distance between this fork's consecutive overflow shards.
    pub step: u32,
    /// Capacity of each overflow shard.
    pub capacity: u32,
}

/// Everything a worker did to its forked [`SymbolTable`], packaged for the
/// deterministic merge back into the origin table: the shards of newly
/// created symbols (globally unique ids, adopted verbatim; a primary shard
/// plus any chained overflow shards), the pre-fork symbols it wrote, and
/// the info-transformer stack its values are relative to.
#[derive(Clone)]
pub struct SymbolDelta {
    shards: Vec<Shard>,
    /// `(id, fork-time view, final value)`, ascending by id. Both values
    /// are in the form the full `transformers` stack gives them, so a
    /// field-wise comparison sees only the worker's real writes.
    dirty: Vec<(SymbolId, SymbolData, SymbolData)>,
    /// The worker's info-transformer stack at the end of its run.
    transformers: Vec<InfoTransformer>,
}

impl SymbolDelta {
    /// True when the delta carries neither new symbols nor mutations.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty() && self.dirty.is_empty()
    }

    /// One past the highest symbol id this delta's shards occupy (0 when it
    /// created no symbols). Compile sessions use this to advance their
    /// shard cursor so the next fork's id range clears every cached delta.
    pub fn max_id_end(&self) -> u32 {
        self.shards
            .iter()
            .map(|s| s.start + s.syms.len() as u32)
            .max()
            .unwrap_or(0)
    }

    /// The dirty entries — pre-fork symbols the worker wrote — as `(id,
    /// final value)` pairs, ascending by id.
    pub fn dirty_entries(&self) -> impl Iterator<Item = (SymbolId, &SymbolData)> {
        self.dirty.iter().map(|(id, _, fin)| (*id, fin))
    }
}

/// Per-table memo of the transformer view [`SymbolTable::sym`] returns for
/// symbols older than the newest transformer: one region of cells per id
/// range that existed at the last registration (the base arena, then each
/// shard), each cell filled on first read. A cell holds `None` when the
/// pending transformers leave the symbol unchanged. Regions allocate their
/// cells on first use, so forking or cloning a table stays O(1) in its
/// size; a clone starts with empty cells.
#[derive(Default)]
struct ViewMemo {
    /// Ascending by `start`; the base arena's region (start 0) comes first.
    regions: Vec<MemoRegion>,
}

/// One symbol's memoised view: `None` when the pending transformers leave
/// the stored data unchanged.
type ViewCell = OnceCell<Option<Box<SymbolData>>>;

struct MemoRegion {
    start: u32,
    len: u32,
    cells: OnceCell<Box<[ViewCell]>>,
}

impl MemoRegion {
    fn new(start: u32, len: u32) -> MemoRegion {
        MemoRegion {
            start,
            len,
            cells: OnceCell::new(),
        }
    }
}

impl ViewMemo {
    /// The cell of `id`, if `id` lies in a region.
    fn cell(&self, id: u32) -> Option<&ViewCell> {
        let at = self.regions.partition_point(|r| r.start + r.len <= id);
        let r = self.regions.get(at).filter(|r| id >= r.start)?;
        let cells = r
            .cells
            .get_or_init(|| (0..r.len).map(|_| OnceCell::new()).collect());
        Some(&cells[(id - r.start) as usize])
    }

    fn add_region(&mut self, start: u32, len: u32) {
        let at = self.regions.partition_point(|r| r.start < start);
        self.regions.insert(at, MemoRegion::new(start, len));
    }
}

impl Clone for ViewMemo {
    fn clone(&self) -> ViewMemo {
        ViewMemo {
            regions: self
                .regions
                .iter()
                .map(|r| MemoRegion::new(r.start, r.len))
                .collect(),
        }
    }
}

/// The arena of all symbols plus hierarchy-dependent type operations.
///
/// # Examples
///
/// ```
/// use mini_ir::{Flags, Name, SymKind, SymbolTable, Type};
/// let mut tab = SymbolTable::new();
/// let owner = tab.builtins().root_pkg;
/// let c = tab.new_class(owner, Name::from("C"), Flags::EMPTY, vec![Type::AnyRef], vec![]);
/// assert!(tab.is_subtype(&tab.class_type(c), &Type::AnyRef));
/// ```
///
/// Cloning is cheap (`Arc`-shared base arena and adopted shards) until the
/// clone — or the original — first mutates, at which point `Arc::make_mut`
/// copies the touched region. The incremental compile session leans on
/// this: every `compile()` clones the pristine frontend table and splices
/// cached per-unit deltas into the clone.
///
/// Phases that rewrite signatures register [`InfoTransformer`]s instead of
/// sweeping the table; reads then see the transformed view (see
/// [`SymbolTable::register_info_transformer`]).
#[derive(Clone)]
pub struct SymbolTable {
    /// The base arena. `Arc`-shared so [`SymbolTable::fork_for_worker`] is
    /// O(1) in base-table size: forks alias the same frozen snapshot, and
    /// ordinary tables mutate through [`Arc::make_mut`] (free while no fork
    /// is alive, which the fork/merge protocol guarantees at mutation time).
    syms: Arc<Vec<SymbolData>>,
    builtins: Builtins,
    /// Worker tables only: where this fork allocates new symbols — the
    /// primary shard plus any chained overflow shards, ascending by
    /// `start`. Empty on ordinary tables, which extend `syms` contiguously.
    shards: Vec<Shard>,
    /// Worker tables only: where overflow shards carve fresh id ranges once
    /// the primary shard fills.
    growth: Option<ShardGrowth>,
    /// Shards merged in from finished workers, sorted by `start`. Resolved
    /// read-only; a table with adopted shards keeps allocating in the gap
    /// between `syms.len()` and the first shard. `Arc`-shared with forks
    /// for the same O(1)-fork reason as `syms`.
    adopted: Arc<Vec<Shard>>,
    /// Worker tables only: copy-on-write overlay holding this fork's
    /// mutations of pre-fork symbols (base arena **or** previously adopted
    /// shards), keyed by id. The shared base is never written; the
    /// fork-time snapshot a [`SymbolDelta`] needs *is* the frozen base
    /// value. `None` on ordinary tables.
    overlay: Option<BTreeMap<u32, SymbolData>>,
    /// Registered info transformers, oldest first. Forks inherit the
    /// stack; [`SymbolTable::adopt`] extends it to a delta's.
    transformers: Vec<InfoTransformer>,
    /// Memo of the transformer view, reset at every registration.
    /// Boxed: an inline cell would make `&SymbolTable` mutable in
    /// place, which stops the compiler from keeping the hot fields of
    /// `sym` in registers across calls.
    view: Box<ViewMemo>,
}

impl SymbolTable {
    /// Creates a table pre-populated with the built-in definitions.
    pub fn new() -> SymbolTable {
        let mut tab = SymbolTable {
            syms: Arc::new(vec![SymbolData {
                // Index 0 is the NONE sentinel.
                name: std_names::root_pkg(),
                flags: Flags::EMPTY,
                owner: SymbolId::NONE,
                kind: SymKind::Package,
                info: Type::NoType,
                span: Span::SYNTHETIC,
                parents: Vec::new(),
                decls: Vec::new(),
                tparams: Vec::new(),
                level: 0,
            }]),
            builtins: Builtins {
                root_pkg: SymbolId::NONE,
                any_class: SymbolId::NONE,
                equals_meth: SymbolId::NONE,
                to_string_meth: SymbolId::NONE,
                get_class_meth: SymbolId::NONE,
                println_fn: SymbolId::NONE,
                function_classes: [SymbolId::NONE; 4],
            },
            shards: Vec::new(),
            growth: None,
            adopted: Arc::new(Vec::new()),
            overlay: None,
            transformers: Vec::new(),
            view: Box::default(),
        };
        let root = tab.alloc(SymbolData {
            name: std_names::root_pkg(),
            flags: Flags::PACKAGE,
            owner: SymbolId::NONE,
            kind: SymKind::Package,
            info: Type::NoType,
            span: Span::SYNTHETIC,
            parents: Vec::new(),
            decls: Vec::new(),
            tparams: Vec::new(),
            level: 0,
        });
        tab.builtins.root_pkg = root;

        // `Any`'s universal members live on a pseudo-class.
        let any_class = tab.new_class(root, std_names::any(), Flags::SYNTHETIC, vec![], vec![]);
        let equals_meth = tab.new_term(
            any_class,
            std_names::equals(),
            Flags::METHOD,
            Type::Method {
                params: vec![vec![Type::Any]],
                ret: Box::new(Type::Boolean),
            },
        );
        let to_string_meth = tab.new_term(
            any_class,
            std_names::to_string(),
            Flags::METHOD,
            Type::Method {
                params: vec![vec![]],
                ret: Box::new(Type::Str),
            },
        );
        let get_class_meth = tab.new_term(
            any_class,
            std_names::get_class(),
            Flags::METHOD,
            Type::Method {
                params: vec![vec![]],
                ret: Box::new(Type::Str),
            },
        );
        let println_fn = tab.new_term(
            root,
            std_names::println(),
            Flags::METHOD | Flags::SYNTHETIC,
            Type::Method {
                params: vec![vec![Type::Any]],
                ret: Box::new(Type::Unit),
            },
        );

        // Function0..Function3 with their `apply` methods.
        let mut function_classes = [SymbolId::NONE; 4];
        for (n, slot) in function_classes.iter_mut().enumerate() {
            let cls_name = Name::intern(&format!("Function{n}"));
            let cls = tab.new_class(
                root,
                cls_name,
                Flags::TRAIT | Flags::SYNTHETIC,
                vec![Type::AnyRef],
                vec![],
            );
            let mut tparams = Vec::new();
            for i in 0..n {
                let tp = tab.alloc(SymbolData {
                    name: Name::intern(&format!("T{}", i + 1)),
                    flags: Flags::TYPE_PARAM,
                    owner: cls,
                    kind: SymKind::TypeParam,
                    info: Type::Any,
                    span: Span::SYNTHETIC,
                    parents: Vec::new(),
                    decls: Vec::new(),
                    tparams: Vec::new(),
                    level: 0,
                });
                tparams.push(tp);
            }
            let r = tab.alloc(SymbolData {
                name: Name::intern("R"),
                flags: Flags::TYPE_PARAM,
                owner: cls,
                kind: SymKind::TypeParam,
                info: Type::Any,
                span: Span::SYNTHETIC,
                parents: Vec::new(),
                decls: Vec::new(),
                tparams: Vec::new(),
                level: 0,
            });
            let apply_info = Type::Method {
                params: vec![tparams.iter().map(|&tp| Type::TypeParam(tp)).collect()],
                ret: Box::new(Type::TypeParam(r)),
            };
            tab.new_term(
                cls,
                std_names::apply(),
                Flags::METHOD | Flags::DEFERRED,
                apply_info,
            );
            let mut all_tparams = tparams;
            all_tparams.push(r);
            tab.sym_mut(cls).tparams = all_tparams;
            *slot = cls;
        }

        tab.builtins = Builtins {
            root_pkg: root,
            any_class,
            equals_meth,
            to_string_meth,
            get_class_meth,
            println_fn,
            function_classes,
        };
        tab
    }

    /// The well-known symbols.
    pub fn builtins(&self) -> &Builtins {
        &self.builtins
    }

    /// Total number of symbols allocated (including builtins and any worker
    /// shards this table allocated or adopted). Mutated pre-fork symbols in
    /// a fork's overlay shadow base entries, so they do not count twice.
    pub fn len(&self) -> usize {
        self.syms.len()
            + self.shards.iter().map(|s| s.syms.len()).sum::<usize>()
            + self.adopted.iter().map(|s| s.syms.len()).sum::<usize>()
    }

    /// True if only the sentinel exists (never the case after `new`).
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Every resolvable symbol id except the `NONE` sentinel, ascending:
    /// the base arena, then adopted shards, then this table's own shards
    /// (a fork's own shards always start above every shard it inherited
    /// and chain upward, so this chain *is* ascending id order). Use this
    /// rather than `1..len()` to visit every symbol — ids are **not**
    /// contiguous once a table has a worker shard.
    pub fn ids(&self) -> impl Iterator<Item = SymbolId> + '_ {
        let base = 1..self.syms.len() as u32;
        let own = self
            .shards
            .iter()
            .flat_map(|s| s.start..s.start + s.syms.len() as u32);
        let adopted = self
            .adopted
            .iter()
            .flat_map(|s| s.start..s.start + s.syms.len() as u32);
        base.chain(adopted).chain(own).map(SymbolId)
    }

    /// The lowest id guaranteed to be above every symbol this table can
    /// resolve — the floor from which fresh worker shards may be carved.
    pub fn id_ceiling(&self) -> u32 {
        let base = self.syms.len() as u32;
        self.adopted
            .iter()
            .chain(self.shards.iter())
            .map(|s| s.start + s.syms.len() as u32)
            .fold(base, u32::max)
    }

    /// True if `self` and `other` alias the same frozen base arena and
    /// adopted-shard list — i.e. no symbol data was copied between them.
    /// This is the copy-on-write fork invariant the fork-cost regression
    /// test pins: [`SymbolTable::fork_for_worker`] is O(1) in base-table
    /// size precisely because this holds for every fresh fork.
    pub fn base_shared_with(&self, other: &SymbolTable) -> bool {
        Arc::ptr_eq(&self.syms, &other.syms) && Arc::ptr_eq(&self.adopted, &other.adopted)
    }

    /// The registered info transformers, oldest first.
    pub fn info_transformers(&self) -> &[InfoTransformer] {
        &self.transformers
    }

    /// Registers `t` on top of the transformer stack. Every symbol that
    /// exists now reads through `t` from here on — as if `t` had swept the
    /// table in this instant — while symbols created or written later are
    /// stored in post-`t` form. Resets the view memo: O(regions), not
    /// O(symbols); no symbol is touched until it is read.
    pub fn register_info_transformer(&mut self, t: InfoTransformer) {
        self.transformers.push(t);
        let mut view = ViewMemo::default();
        view.add_region(0, self.syms.len() as u32);
        for s in self.adopted.iter().chain(self.shards.iter()) {
            view.add_region(s.start, s.syms.len() as u32);
        }
        *self.view = view;
    }

    /// Extends the stack to `stack` where `stack` is longer. The two must
    /// agree on their common prefix (compared by phase name); a shorter
    /// `stack` comes from a worker cut short at a group boundary by the
    /// compile deadline, whose compile fails anyway.
    fn extend_transformers(&mut self, stack: &[InfoTransformer]) {
        let common = self.transformers.len().min(stack.len());
        assert!(
            stack[..common]
                .iter()
                .zip(&self.transformers)
                .all(|(a, b)| a.phase == b.phase),
            "delta's info-transformer stack disagrees with the table's"
        );
        for t in &stack[common..] {
            self.register_info_transformer(*t);
        }
    }

    /// `d` as the full transformer stack shows it, owned and marked
    /// current.
    fn current_form(&self, d: &SymbolData) -> SymbolData {
        let mut out = match self.transformed(d) {
            Some(t) => *t,
            None => d.clone(),
        };
        out.level = self.transformers.len() as u32;
        out
    }

    /// Applies the transformers `d` has not seen yet; `None` when they
    /// leave it unchanged.
    fn transformed(&self, d: &SymbolData) -> Option<Box<SymbolData>> {
        let mut out: Option<Box<SymbolData>> = None;
        for t in &self.transformers[d.level as usize..] {
            if let Some(new) = (t.transform)(self, out.as_deref().unwrap_or(d)) {
                let o = out.get_or_insert_with(|| Box::new(d.clone()));
                o.info = new.info;
                o.parents = new.parents;
            }
        }
        if let Some(o) = &mut out {
            o.level = self.transformers.len() as u32;
        }
        out
    }

    /// Forks a worker-private table for parallel compilation in **O(1)**:
    /// the fork aliases the origin's frozen base arena and adopted shards
    /// (no symbol is copied), *new* allocations receive ids in
    /// `start..start + capacity` — chaining overflow shards per `growth`
    /// when the primary shard fills — and mutations of pre-fork symbols go
    /// to a private copy-on-write overlay, so every worker's ids stay
    /// globally unique and every worker's writes stay invisible to its
    /// siblings without coordination. The fork inherits the origin's info
    /// transformers; transformers it registers itself stay private until
    /// the merge. Ship the result back through [`SymbolTable::into_delta`]
    /// / [`SymbolTable::adopt`].
    ///
    /// The origin table must not allocate or mutate symbols while forks are
    /// alive (the parallel scheduler forks before spawning workers and
    /// merges after joining them, so this holds by construction); ordinary
    /// mutation resumes for free once every fork has been consumed.
    ///
    /// # Panics
    ///
    /// Panics if `start` is below [`SymbolTable::id_ceiling`] (the shard
    /// would shadow resolvable ids), if the overflow region overlaps the
    /// primary shard, if a capacity is zero, or if called on a table that
    /// is itself a worker fork.
    pub fn fork_for_worker(&self, start: u32, capacity: u32, growth: ShardGrowth) -> SymbolTable {
        assert!(self.overlay.is_none(), "cannot fork a worker fork");
        assert!(start >= self.id_ceiling(), "worker shard shadows live ids");
        assert!(
            capacity > 0 && growth.capacity > 0 && growth.step >= growth.capacity,
            "degenerate shard capacities"
        );
        assert!(
            growth.next_start >= start.saturating_add(capacity),
            "overflow region overlaps the primary shard"
        );
        SymbolTable {
            syms: Arc::clone(&self.syms),
            builtins: self.builtins,
            shards: vec![Shard {
                start,
                capacity,
                syms: Arc::default(),
            }],
            growth: Some(growth),
            adopted: Arc::clone(&self.adopted),
            overlay: Some(BTreeMap::new()),
            transformers: self.transformers.clone(),
            view: self.view.clone(),
        }
    }

    /// Resolves `id` in the frozen pre-fork state only (base arena and
    /// adopted shards), bypassing the overlay — the fork-time snapshot of a
    /// mutated symbol.
    fn pre_fork_sym(&self, id: SymbolId) -> &SymbolData {
        let i = id.0 as usize;
        if i < self.syms.len() {
            return &self.syms[i];
        }
        match find_shard(&self.adopted, id.0) {
            Some(at) => {
                let sh = &self.adopted[at];
                &sh.syms[(id.0 - sh.start) as usize]
            }
            None => panic!("dangling {id:?} (not in base or any adopted shard)"),
        }
    }

    /// Consumes a worker fork into the delta its origin table needs for the
    /// merge: the shards of new symbols, every overlay write as a `(fork
    /// snapshot, final value)` pair, and the fork's transformer stack. Both
    /// values of a pair are brought to the full stack's form, so the merge
    /// compares like with like: the snapshot is the frozen base value — it
    /// *is* the fork-time value, because the base never changes while a
    /// fork is alive — seen through every transformer the fork registered.
    ///
    /// # Panics
    ///
    /// Panics if the table is not a worker fork.
    pub fn into_delta(mut self) -> SymbolDelta {
        let overlay = self
            .overlay
            .as_ref()
            .expect("into_delta on a non-fork table");
        let dirty = overlay
            .iter()
            .map(|(&id, fin)| {
                let fork = self.current_form(self.pre_fork_sym(SymbolId(id)));
                (SymbolId(id), fork, self.current_form(fin))
            })
            .collect();
        let shards = std::mem::take(&mut self.shards)
            .into_iter()
            .filter(|s| !s.syms.is_empty())
            .collect();
        SymbolDelta {
            shards,
            dirty,
            transformers: std::mem::take(&mut self.transformers),
        }
    }

    /// Merges one worker's [`SymbolDelta`] back in. Call once per worker
    /// fork, in unit order (forks own contiguous unit chunks, so chunk
    /// order *is* unit order); the merge is then deterministic:
    ///
    /// * the table's info-transformer stack is extended to the delta's,
    ///   so symbols the worker never wrote read exactly as they did in
    ///   the worker;
    /// * the shards of worker-created symbols are adopted verbatim (shared,
    ///   not copied) — their ids were globally unique from birth, so trees
    ///   referencing them resolve with no rewriting;
    /// * mutated pre-fork symbols (base arena or previously adopted shards)
    ///   merge field-wise against the fork snapshot: only fields the worker
    ///   actually changed are cloned in, and a `decls` list that grew by
    ///   appends re-appends just the new ids (preserving appends merged
    ///   from earlier workers); a reordered/rewritten list replaces
    ///   wholesale.
    ///
    /// Known, deliberate divergence: for owners shared across unit chunks
    /// (in practice only the root package), the merged `decls` order is
    /// *chunk-major* — all of chunk 0's appends across every phase group,
    /// then chunk 1's — while the sequential pipeline interleaves appends
    /// *group-major*. The membership set is identical either way, printed
    /// trees and codegen never consume package-decls order (codegen walks
    /// unit trees; `RestoreScopes` guards with `decls.contains`), and
    /// first-match [`SymbolTable::decl`] lookups on the root package are
    /// not used to disambiguate the per-unit synthetic classes that share
    /// names. Reconstructing the exact sequential interleaving would need
    /// per-(group, unit) deltas; do that before adding any consumer that
    /// reads shared-owner decls order.
    pub fn adopt(&mut self, delta: &SymbolDelta) {
        self.extend_transformers(&delta.transformers);
        for (id, fork, fin) in &delta.dirty {
            let cur = self.sym_mut(*id);
            if fin.name != fork.name {
                cur.name = fin.name;
            }
            if fin.flags != fork.flags {
                cur.flags = fin.flags;
            }
            if fin.owner != fork.owner {
                cur.owner = fin.owner;
            }
            if fin.kind != fork.kind {
                cur.kind = fin.kind;
            }
            if fin.info != fork.info {
                cur.info = fin.info.clone();
            }
            if fin.span != fork.span {
                cur.span = fin.span;
            }
            if fin.parents != fork.parents {
                cur.parents = fin.parents.clone();
            }
            if fin.tparams != fork.tparams {
                cur.tparams = fin.tparams.clone();
            }
            if fin.decls.len() >= fork.decls.len()
                && fin.decls[..fork.decls.len()] == fork.decls[..]
            {
                cur.decls.extend_from_slice(&fin.decls[fork.decls.len()..]);
            } else if fin.decls != fork.decls {
                cur.decls = fin.decls.clone();
            }
        }
        if delta.shards.is_empty() {
            return;
        }
        let adopted = Arc::make_mut(&mut self.adopted);
        adopted.extend(delta.shards.iter().cloned());
        adopted.sort_by_key(|s| s.start);
        if !self.transformers.is_empty() {
            for s in &delta.shards {
                self.view.add_region(s.start, s.syms.len() as u32);
            }
        }
    }

    fn alloc(&mut self, mut data: SymbolData) -> SymbolId {
        data.level = self.transformers.len() as u32;
        let owner = data.owner;
        let id = if self.overlay.is_some() {
            // Worker fork: allocate in the current own shard, chaining a
            // fresh overflow shard from the growth plan when it fills —
            // a symbol-heavy chunk grows instead of aborting the compile.
            if self
                .shards
                .last()
                .is_none_or(|s| s.syms.len() as u32 >= s.capacity)
            {
                let g = self.growth.as_mut().expect("worker fork has a growth plan");
                let start = g.next_start;
                g.next_start = start.checked_add(g.step).expect(
                    "symbol id space exhausted: overflow shard chain wrapped the u32 id domain",
                );
                self.shards.push(Shard {
                    start,
                    capacity: g.capacity,
                    syms: Arc::default(),
                });
            }
            let sh = self.shards.last_mut().expect("shard chained above");
            let id = SymbolId(sh.start + sh.syms.len() as u32);
            Arc::make_mut(&mut sh.syms).push(data);
            id
        } else {
            let id = SymbolId(self.syms.len() as u32);
            assert!(
                self.adopted.iter().all(|s| id.0 < s.start),
                "base symbol region collided with an adopted worker shard"
            );
            Arc::make_mut(&mut self.syms).push(data);
            id
        };
        if owner.exists() {
            self.sym_mut(owner).decls.push(id);
        }
        id
    }

    /// Creates a new term symbol (val/var/def/param/local) owned by `owner`
    /// and enters it into the owner's declarations.
    pub fn new_term(&mut self, owner: SymbolId, name: Name, flags: Flags, info: Type) -> SymbolId {
        self.alloc(SymbolData {
            name,
            flags,
            owner,
            kind: SymKind::Term,
            info,
            span: Span::SYNTHETIC,
            parents: Vec::new(),
            decls: Vec::new(),
            tparams: Vec::new(),
            level: 0,
        })
    }

    /// Creates a new class (or trait, if `flags` contains `TRAIT`).
    pub fn new_class(
        &mut self,
        owner: SymbolId,
        name: Name,
        flags: Flags,
        parents: Vec<Type>,
        tparams: Vec<SymbolId>,
    ) -> SymbolId {
        self.alloc(SymbolData {
            name,
            flags,
            owner,
            kind: SymKind::Class,
            info: Type::NoType,
            span: Span::SYNTHETIC,
            parents,
            decls: Vec::new(),
            tparams,
            level: 0,
        })
    }

    /// Creates a type-parameter symbol owned by `owner`.
    pub fn new_type_param(&mut self, owner: SymbolId, name: Name) -> SymbolId {
        self.alloc(SymbolData {
            name,
            flags: Flags::TYPE_PARAM,
            owner,
            kind: SymKind::TypeParam,
            info: Type::Any,
            span: Span::SYNTHETIC,
            parents: Vec::new(),
            decls: Vec::new(),
            tparams: Vec::new(),
            level: 0,
        })
    }

    /// Creates a label symbol for jumps.
    pub fn new_label(&mut self, owner: SymbolId, name: Name, info: Type) -> SymbolId {
        self.alloc(SymbolData {
            name,
            flags: Flags::LABEL | Flags::SYNTHETIC,
            owner,
            kind: SymKind::Label,
            info,
            span: Span::SYNTHETIC,
            parents: Vec::new(),
            decls: Vec::new(),
            tparams: Vec::new(),
            level: 0,
        })
    }

    /// Creates a package symbol.
    pub fn new_package(&mut self, owner: SymbolId, name: Name) -> SymbolId {
        self.alloc(SymbolData {
            name,
            flags: Flags::PACKAGE,
            owner,
            kind: SymKind::Package,
            info: Type::NoType,
            span: Span::SYNTHETIC,
            parents: Vec::new(),
            decls: Vec::new(),
            tparams: Vec::new(),
            level: 0,
        })
    }

    /// Read access to a symbol's data, as the registered info transformers
    /// show it. On a worker fork, mutated pre-fork symbols resolve from the
    /// copy-on-write overlay; everything else reads the shared frozen base.
    /// A symbol older than the newest transformer resolves through the
    /// per-table view memo; on a table without transformers the only added
    /// cost is one comparison.
    ///
    /// # Panics
    ///
    /// Panics if `id` is `NONE` or out of range.
    #[inline]
    pub fn sym(&self, id: SymbolId) -> &SymbolData {
        let d = self.stored(id);
        if d.level as usize == self.transformers.len() {
            d
        } else {
            self.view_of(id, d)
        }
    }

    /// The stored data of `id`, before any pending transformer. Only
    /// `info` and `parents` can be pending: the table's own lookups of
    /// other fields (names, owners, decls) read here, skipping the view.
    #[inline]
    fn stored(&self, id: SymbolId) -> &SymbolData {
        assert!(id.exists(), "dereferencing SymbolId::NONE");
        if let Some(ov) = &self.overlay {
            if let Some(d) = ov.get(&id.0) {
                return d;
            }
        }
        let i = id.0 as usize;
        if i < self.syms.len() {
            &self.syms[i]
        } else {
            self.shard_sym(id)
        }
    }

    /// The memoised transformer view of `stored`, the stored data of `id`.
    /// Kept out of line so `sym` stays small at its many inlined call sites.
    #[inline(never)]
    fn view_of<'a>(&'a self, id: SymbolId, stored: &'a SymbolData) -> &'a SymbolData {
        let cell = self
            .view
            .cell(id.0)
            .expect("a symbol older than the newest info transformer has a view cell");
        cell.get_or_init(|| self.transformed(stored))
            .as_deref()
            .unwrap_or(stored)
    }

    /// Out-of-base lookup: the table's own shards, then adopted shards.
    #[cold]
    fn shard_sym(&self, id: SymbolId) -> &SymbolData {
        if let Some(sh) = self.shards.iter().find(|s| s.contains(id.0)) {
            return &sh.syms[(id.0 - sh.start) as usize];
        }
        match find_shard(&self.adopted, id.0) {
            Some(at) => {
                let sh = &self.adopted[at];
                &sh.syms[(id.0 - sh.start) as usize]
            }
            None => panic!("dangling {id:?} (not in base, own shard, or any adopted shard)"),
        }
    }

    /// Mutable access to a symbol's data. A symbol older than the newest
    /// info transformer is first brought to the form [`SymbolTable::sym`]
    /// shows, so the write lands on the post-phase value. On a worker
    /// fork, the first mutation of any pre-fork symbol — base arena **or**
    /// a shard adopted from an earlier parallel run — copies it into the
    /// fork's private overlay and mutates the copy; the shared frozen base
    /// is never written, which is what makes the O(1) fork sound and gives
    /// [`SymbolTable::into_delta`] its fork-time snapshots for free. Only
    /// the fork's own shards mutate in place (they ship back wholesale).
    /// Reads never reach the overlay: a fork's delta holds exactly the
    /// symbols it wrote.
    ///
    /// # Panics
    ///
    /// Panics if `id` is `NONE` or out of range.
    pub fn sym_mut(&mut self, id: SymbolId) -> &mut SymbolData {
        let current = {
            let d = self.stored(id);
            (d.level as usize != self.transformers.len()).then(|| {
                let mut view = self.view_of(id, d).clone();
                view.level = self.transformers.len() as u32;
                view
            })
        };
        let SymbolTable {
            syms,
            shards,
            adopted,
            overlay,
            ..
        } = self;
        let slot = if let Some(sh) = shards.iter_mut().find(|s| s.contains(id.0)) {
            // Fork-created symbols (own shards) mutate in place on both
            // table kinds; their ids are disjoint from everything pre-fork.
            &mut Arc::make_mut(&mut sh.syms)[(id.0 - sh.start) as usize]
        } else if let Some(ov) = overlay {
            // Worker fork touching a pre-fork symbol: copy-on-write.
            ov.entry(id.0).or_insert_with(|| {
                let i = id.0 as usize;
                if i < syms.len() {
                    syms[i].clone()
                } else {
                    match find_shard(adopted, id.0) {
                        Some(at) => {
                            let sh = &adopted[at];
                            sh.syms[(id.0 - sh.start) as usize].clone()
                        }
                        None => {
                            panic!("dangling {id:?} (not in base, own shard, or any adopted shard)")
                        }
                    }
                }
            })
        } else if (id.0 as usize) < syms.len() {
            // Ordinary table: mutate the base arena or an adopted shard via
            // copy-on-write `Arc`s (free while no fork aliases them).
            &mut Arc::make_mut(syms)[id.0 as usize]
        } else {
            let adopted = Arc::make_mut(adopted);
            match find_shard(adopted, id.0) {
                Some(at) => {
                    let sh = &mut adopted[at];
                    &mut Arc::make_mut(&mut sh.syms)[(id.0 - sh.start) as usize]
                }
                None => panic!("dangling {id:?} (not in base, own shard, or any adopted shard)"),
            }
        };
        if let Some(c) = current {
            *slot = c;
        }
        slot
    }

    /// The monomorphic class type of `cls` (empty type arguments).
    pub fn class_type(&self, cls: SymbolId) -> Type {
        Type::Class {
            sym: cls,
            targs: Vec::new(),
        }
    }

    /// The fully-applied class type of `cls` with its own type parameters as
    /// arguments (the "this type" for checking purposes).
    pub fn self_type(&self, cls: SymbolId) -> Type {
        let tps = &self.stored(cls).tparams;
        Type::Class {
            sym: cls,
            targs: tps.iter().map(|&t| Type::TypeParam(t)).collect(),
        }
    }

    /// The chain of owners from `sym` (exclusive) to the root.
    pub fn owner_chain(&self, sym: SymbolId) -> Vec<SymbolId> {
        let mut out = Vec::new();
        let mut cur = self.stored(sym).owner;
        while cur.exists() {
            out.push(cur);
            cur = self.stored(cur).owner;
        }
        out
    }

    /// The innermost enclosing class of `sym` (or `NONE`).
    pub fn enclosing_class(&self, sym: SymbolId) -> SymbolId {
        let mut cur = sym;
        while cur.exists() {
            if self.stored(cur).kind == SymKind::Class {
                return cur;
            }
            cur = self.stored(cur).owner;
        }
        SymbolId::NONE
    }

    /// Class linearization: the class itself followed by all base classes,
    /// traits linearized right-to-left, duplicates keeping the first
    /// occurrence.
    pub fn linearization(&self, cls: SymbolId) -> Vec<SymbolId> {
        let mut out = vec![cls];
        let parents: Vec<SymbolId> = self
            .sym(cls)
            .parents
            .iter()
            .filter_map(|p| p.class_sym())
            .collect();
        for p in parents.iter().rev() {
            for s in self.linearization(*p) {
                if !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }

    /// True if `sub` is `sup` or inherits from it (symbol level).
    pub fn is_subclass(&self, sub: SymbolId, sup: SymbolId) -> bool {
        self.linearization(sub).contains(&sup)
    }

    /// The instantiation of base class `target` as seen from class type `t`,
    /// or `None` if `t` does not derive from `target`.
    pub fn base_type(&self, t: &Type, target: SymbolId) -> Option<Type> {
        match t {
            Type::Class { sym, targs } => {
                if *sym == target {
                    return Some(t.clone());
                }
                let data = self.sym(*sym);
                let tparams = data.tparams.clone();
                for parent in data.parents.clone() {
                    let seen = parent.subst(&tparams, targs);
                    if let Some(bt) = self.base_type(&seen, target) {
                        return Some(bt);
                    }
                }
                None
            }
            Type::Function { params, ret } => {
                let n = params.len();
                if n < self.builtins.function_classes.len() {
                    let cls = self.builtins.function_classes[n];
                    let mut targs = params.clone();
                    targs.push((**ret).clone());
                    self.base_type(&Type::Class { sym: cls, targs }, target)
                } else {
                    None
                }
            }
            Type::TermRef(s) => self.base_type(&self.widen(t.clone()), target).or_else(|| {
                let _ = s;
                None
            }),
            _ => None,
        }
    }

    /// Widens singleton types to their underlying type.
    pub fn widen(&self, t: Type) -> Type {
        match t {
            Type::TermRef(s) => {
                let info = self.sym(s).info.clone();
                self.widen(info)
            }
            other => other,
        }
    }

    /// Structural subtyping with nominal class subtyping (invariant type
    /// arguments, contravariant function parameters).
    pub fn is_subtype(&self, a: &Type, b: &Type) -> bool {
        if a == b {
            return true;
        }
        match (a, b) {
            (Type::Error, _) | (_, Type::Error) => true,
            (_, Type::Any) => true,
            (Type::Nothing, _) => true,
            (Type::Null, t) if t.is_ref_like() => true,
            (Type::TermRef(_), _) => self.is_subtype(&self.widen(a.clone()), b),
            (_, Type::AnyRef) if a.is_ref_like() => true,
            (Type::Or(x, y), _) => self.is_subtype(x, b) && self.is_subtype(y, b),
            (_, Type::Or(x, y)) => self.is_subtype(a, x) || self.is_subtype(a, y),
            (Type::Class { .. }, Type::Class { sym: bs, targs: bt }) => {
                match self.base_type(a, *bs) {
                    Some(Type::Class { targs: at, .. }) => at == *bt,
                    _ => false,
                }
            }
            (Type::Function { .. }, Type::Class { sym: bs, .. }) => match self.base_type(a, *bs) {
                Some(Type::Class { targs: at, .. }) => {
                    // Compare against the base instance; invariant args.
                    match self.base_type(a, *bs) {
                        Some(Type::Class { targs, .. }) => targs == at,
                        _ => false,
                    }
                }
                _ => false,
            },
            (
                Type::Function {
                    params: pa,
                    ret: ra,
                },
                Type::Function {
                    params: pb,
                    ret: rb,
                },
            ) => {
                pa.len() == pb.len()
                    && pb
                        .iter()
                        .zip(pa.iter())
                        .all(|(b_p, a_p)| self.is_subtype(b_p, a_p))
                    && self.is_subtype(ra, rb)
            }
            (Type::Array(ea), Type::Array(eb)) => ea == eb,
            (Type::ByName(x), Type::ByName(y)) => self.is_subtype(x, y),
            (Type::ByName(x), _) => self.is_subtype(x, b),
            (Type::Repeated(x), Type::Repeated(y)) => self.is_subtype(x, y),
            _ => false,
        }
    }

    /// Least upper bound, approximated: exact when one side subsumes the
    /// other; otherwise the most specific common base class, falling back to
    /// `AnyRef`/`Any`.
    pub fn lub(&self, a: &Type, b: &Type) -> Type {
        if self.is_subtype(a, b) {
            return b.clone();
        }
        if self.is_subtype(b, a) {
            return a.clone();
        }
        let wa = self.widen(a.clone());
        let wb = self.widen(b.clone());
        if let (Type::Class { sym: sa, .. }, Type::Class { .. }) = (&wa, &wb) {
            for base in self.linearization(*sa) {
                if let Some(bt) = self.base_type(&wa, base) {
                    if self.is_subtype(&wb, &bt) {
                        return bt;
                    }
                }
            }
        }
        if wa.is_ref_like() && wb.is_ref_like() {
            Type::AnyRef
        } else {
            Type::Any
        }
    }

    /// Type erasure (the `Erasure` phase's type map):
    /// * type parameters erase to `Any`;
    /// * class types lose their type arguments;
    /// * function types erase to the corresponding `FunctionN` class;
    /// * by-name types erase to `Function0`;
    /// * repeated types erase to arrays;
    /// * polymorphic methods lose their binders;
    /// * union members erase to their join.
    pub fn erase(&self, t: &Type) -> Type {
        match t {
            Type::TypeParam(_) => Type::Any,
            Type::TermRef(_) => self.erase(&self.widen(t.clone())),
            Type::Class { sym, .. } => Type::Class {
                sym: *sym,
                targs: Vec::new(),
            },
            Type::Function { params, .. } => {
                let n = params.len().min(self.builtins.function_classes.len() - 1);
                Type::Class {
                    sym: self.builtins.function_classes[n],
                    targs: Vec::new(),
                }
            }
            Type::ByName(_) => Type::Class {
                sym: self.builtins.function_classes[0],
                targs: Vec::new(),
            },
            Type::Repeated(e) => Type::Array(Box::new(self.erase(e))),
            Type::Array(e) => Type::Array(Box::new(self.erase(e))),
            Type::Method { params, ret } => {
                let flat: Vec<Type> = params.iter().flatten().map(|p| self.erase(p)).collect();
                Type::Method {
                    params: vec![flat],
                    ret: Box::new(self.erase(ret)),
                }
            }
            Type::Poly { underlying, .. } => self.erase(underlying),
            Type::Or(x, y) => {
                let ex = self.erase(x);
                let ey = self.erase(y);
                if ex == ey {
                    ex
                } else if ex.is_ref_like() && ey.is_ref_like() {
                    self.lub(&ex, &ey)
                } else {
                    Type::Any
                }
            }
            other => other.clone(),
        }
    }

    /// Looks up a declaration of `name` directly in `owner`.
    pub fn decl(&self, owner: SymbolId, name: Name) -> Option<SymbolId> {
        self.stored(owner)
            .decls
            .iter()
            .copied()
            .find(|&d| self.stored(d).name == name)
    }

    /// Member lookup on a type: walks the linearization of the underlying
    /// class and returns the first member named `name` together with its info
    /// *as seen from* `t` (type arguments substituted).
    pub fn member(&self, t: &Type, name: Name) -> Option<(SymbolId, Type)> {
        match t {
            Type::TermRef(_) => self.member(&self.widen(t.clone()), name),
            Type::Class { sym, .. } => {
                for base in self.linearization(*sym) {
                    if let Some(d) = self.decl(base, name) {
                        let info = self.sym(d).info.clone();
                        let seen = match self.base_type(t, base) {
                            Some(Type::Class { targs, .. }) => {
                                let tps = self.stored(base).tparams.clone();
                                if tps.len() == targs.len() {
                                    info.subst(&tps, &targs)
                                } else {
                                    info
                                }
                            }
                            _ => info,
                        };
                        return Some((d, seen));
                    }
                }
                self.universal_member(name)
            }
            Type::Function { params, ret } => {
                let n = params.len();
                if n < self.builtins.function_classes.len() {
                    let mut targs = params.clone();
                    targs.push((**ret).clone());
                    self.member(
                        &Type::Class {
                            sym: self.builtins.function_classes[n],
                            targs,
                        },
                        name,
                    )
                } else {
                    None
                }
            }
            Type::Any
            | Type::AnyRef
            | Type::Int
            | Type::Boolean
            | Type::Unit
            | Type::Str
            | Type::Array(_) => self.universal_member(name),
            Type::Or(x, _) => {
                // Selections on union types are the Splitter phase's business;
                // for lookup we use the left member (checked symmetric by the
                // typer).
                self.member(x, name)
            }
            _ => None,
        }
    }

    fn universal_member(&self, name: Name) -> Option<(SymbolId, Type)> {
        self.decl(self.builtins.any_class, name)
            .map(|d| (d, self.sym(d).info.clone()))
    }

    /// The member of a parent class that `m` (a member of `cls`) overrides,
    /// if any: same name, same number of value parameters.
    pub fn overridden(&self, cls: SymbolId, m: SymbolId) -> Option<SymbolId> {
        let md = self.sym(m);
        let nparams = md.info.param_count();
        for base in self.linearization(cls).into_iter().skip(1) {
            if let Some(d) = self.decl(base, md.name) {
                if self.sym(d).info.param_count() == nparams {
                    return Some(d);
                }
            }
        }
        None
    }

    /// All symbols whose owner is `owner` (snapshot).
    pub fn decls_of(&self, owner: SymbolId) -> Vec<SymbolId> {
        self.stored(owner).decls.clone()
    }

    /// Human-readable qualified name for diagnostics.
    pub fn full_name(&self, sym: SymbolId) -> String {
        if !sym.exists() {
            return "<none>".to_owned();
        }
        let mut parts = vec![self.stored(sym).name.as_str().to_owned()];
        for o in self.owner_chain(sym) {
            if o == self.builtins.root_pkg || !o.exists() {
                break;
            }
            parts.push(self.stored(o).name.as_str().to_owned());
        }
        parts.reverse();
        parts.join(".")
    }
}

impl Default for SymbolTable {
    fn default() -> SymbolTable {
        SymbolTable::new()
    }
}

impl fmt::Debug for SymbolTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SymbolTable({} symbols)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (SymbolTable, SymbolId, SymbolId, SymbolId) {
        // trait A; class B extends A; class C extends B
        let mut tab = SymbolTable::new();
        let pkg = tab.builtins().root_pkg;
        let a = tab.new_class(
            pkg,
            Name::from("A"),
            Flags::TRAIT,
            vec![Type::AnyRef],
            vec![],
        );
        let b = {
            let at = tab.class_type(a);
            tab.new_class(pkg, Name::from("B"), Flags::EMPTY, vec![at], vec![])
        };
        let c = {
            let bt = tab.class_type(b);
            tab.new_class(pkg, Name::from("C"), Flags::EMPTY, vec![bt], vec![])
        };
        (tab, a, b, c)
    }

    #[test]
    fn linearization_orders_self_first() {
        let (tab, a, b, c) = fixture();
        let lin = tab.linearization(c);
        assert_eq!(lin[0], c);
        assert!(lin.contains(&b));
        assert!(lin.contains(&a));
        let pos = |s| lin.iter().position(|&x| x == s).unwrap();
        assert!(pos(c) < pos(b) && pos(b) < pos(a));
    }

    #[test]
    fn subclass_and_subtype_follow_parents() {
        let (tab, a, _b, c) = fixture();
        assert!(tab.is_subclass(c, a));
        assert!(!tab.is_subclass(a, c));
        assert!(tab.is_subtype(&tab.class_type(c), &tab.class_type(a)));
        assert!(tab.is_subtype(&tab.class_type(c), &Type::AnyRef));
        assert!(tab.is_subtype(&tab.class_type(c), &Type::Any));
        assert!(!tab.is_subtype(&Type::Int, &Type::AnyRef));
    }

    #[test]
    fn generic_base_type_substitutes_args() {
        // class Box[T]; class IntBox extends Box[Int]
        let mut tab = SymbolTable::new();
        let pkg = tab.builtins().root_pkg;
        let box_cls = tab.new_class(
            pkg,
            Name::from("Box"),
            Flags::EMPTY,
            vec![Type::AnyRef],
            vec![],
        );
        let t = tab.new_type_param(box_cls, Name::from("T"));
        tab.sym_mut(box_cls).tparams = vec![t];
        let int_box = tab.new_class(
            pkg,
            Name::from("IntBox"),
            Flags::EMPTY,
            vec![Type::Class {
                sym: box_cls,
                targs: vec![Type::Int],
            }],
            vec![],
        );
        let bt = tab
            .base_type(&tab.class_type(int_box), box_cls)
            .expect("IntBox derives Box");
        assert_eq!(
            bt,
            Type::Class {
                sym: box_cls,
                targs: vec![Type::Int]
            }
        );
        // Member as seen from IntBox substitutes T := Int.
        let v = tab.new_term(
            box_cls,
            Name::from("value"),
            Flags::EMPTY,
            Type::TypeParam(t),
        );
        let (found, seen) = tab
            .member(&tab.class_type(int_box), Name::from("value"))
            .unwrap();
        assert_eq!(found, v);
        assert_eq!(seen, Type::Int);
    }

    #[test]
    fn lub_finds_common_base() {
        let (tab, a, b, c) = fixture();
        let l = tab.lub(&tab.class_type(c), &tab.class_type(b));
        assert_eq!(l, tab.class_type(b));
        let l2 = tab.lub(&tab.class_type(c), &tab.class_type(a));
        assert_eq!(l2, tab.class_type(a));
        assert_eq!(tab.lub(&Type::Int, &Type::Str), Type::Any);
        assert_eq!(tab.lub(&Type::Nothing, &Type::Int), Type::Int);
    }

    #[test]
    fn erasure_produces_erased_types() {
        let mut tab = SymbolTable::new();
        let pkg = tab.builtins().root_pkg;
        let cls = tab.new_class(
            pkg,
            Name::from("Box"),
            Flags::EMPTY,
            vec![Type::AnyRef],
            vec![],
        );
        let t = tab.new_type_param(cls, Name::from("T"));
        tab.sym_mut(cls).tparams = vec![t];
        let generic = Type::Class {
            sym: cls,
            targs: vec![Type::Int],
        };
        assert!(tab.erase(&generic).is_erased());
        let f = Type::Function {
            params: vec![Type::Int],
            ret: Box::new(Type::Boolean),
        };
        let ef = tab.erase(&f);
        assert_eq!(ef.class_sym(), Some(tab.builtins().function_classes[1]));
        let m = Type::Method {
            params: vec![vec![Type::TypeParam(t)], vec![Type::Int]],
            ret: Box::new(Type::Repeated(Box::new(Type::TypeParam(t)))),
        };
        let em = tab.erase(&m);
        assert!(em.is_erased(), "{em}");
        assert_eq!(em.param_lists().len(), 1);
    }

    #[test]
    fn function_types_subtype_function_classes() {
        let tab = SymbolTable::new();
        let f1 = Type::Function {
            params: vec![Type::Int],
            ret: Box::new(Type::Boolean),
        };
        let cls = Type::Class {
            sym: tab.builtins().function_classes[1],
            targs: vec![Type::Int, Type::Boolean],
        };
        assert!(tab.is_subtype(&f1, &cls));
        let apply = tab.member(&f1, std_names::apply()).expect("apply member");
        assert_eq!(
            apply.1,
            Type::Method {
                params: vec![vec![Type::Int]],
                ret: Box::new(Type::Boolean)
            }
        );
    }

    #[test]
    fn overridden_member_is_found() {
        let (mut tab, a, _b, c) = fixture();
        let base_m = tab.new_term(
            a,
            Name::from("m"),
            Flags::METHOD,
            Type::Method {
                params: vec![vec![Type::Int]],
                ret: Box::new(Type::Int),
            },
        );
        let sub_m = tab.new_term(
            c,
            Name::from("m"),
            Flags::METHOD | Flags::OVERRIDE,
            Type::Method {
                params: vec![vec![Type::Int]],
                ret: Box::new(Type::Int),
            },
        );
        assert_eq!(tab.overridden(c, sub_m), Some(base_m));
    }

    #[test]
    fn full_name_walks_owners() {
        let (tab, _a, _b, c) = fixture();
        assert_eq!(tab.full_name(c), "C");
        assert_eq!(tab.full_name(SymbolId::NONE), "<none>");
    }

    #[test]
    fn union_subtyping() {
        let tab = SymbolTable::new();
        let u = Type::Or(Box::new(Type::Int), Box::new(Type::Str));
        assert!(tab.is_subtype(&Type::Int, &u));
        assert!(tab.is_subtype(&Type::Str, &u));
        assert!(tab.is_subtype(&u, &Type::Any));
        assert!(!tab.is_subtype(&u, &Type::Int));
    }

    /// A generous growth plan for tests that don't exercise overflow.
    fn roomy_growth(start: u32, capacity: u32) -> ShardGrowth {
        ShardGrowth {
            next_start: start + capacity,
            step: capacity,
            capacity,
        }
    }

    #[test]
    fn worker_fork_and_adopt_round_trip() {
        let mut tab = SymbolTable::new();
        let pkg = tab.builtins().root_pkg;
        let base_len = tab.id_ceiling();

        // Run 1: worker creates a shard symbol and mutates a base symbol.
        let mut fork = tab.fork_for_worker(base_len + 100, 50, roomy_growth(base_len + 150, 50));
        let c = fork.new_class(
            pkg,
            Name::from("W1"),
            Flags::EMPTY,
            vec![Type::AnyRef],
            vec![],
        );
        assert_eq!(c.index(), base_len + 100, "shard ids start at the carve");
        fork.sym_mut(pkg).flags |= Flags::SYNTHETIC;
        tab.adopt(&fork.into_delta());
        assert_eq!(tab.sym(c).name, Name::from("W1"), "shard adopted verbatim");
        assert!(
            tab.sym(pkg).flags.is(Flags::SYNTHETIC),
            "base mutation merged"
        );
        assert!(tab.sym(pkg).decls.contains(&c), "owner decls append merged");
        assert!(tab.ids().any(|i| i == c), "ids() covers adopted shards");

        // Run 2: a later fork mutates the symbol that lives in run 1's
        // adopted shard — the overlay must carry it back (regression:
        // adopted-shard mutations were once silently dropped at merge).
        let start2 = tab.id_ceiling() + 100;
        let mut fork2 = tab.fork_for_worker(start2, 50, roomy_growth(start2, 50));
        fork2.sym_mut(c).flags |= Flags::LIFTED;
        tab.adopt(&fork2.into_delta());
        assert!(
            tab.sym(c).flags.is(Flags::LIFTED),
            "adopted-shard mutation survives the merge"
        );
    }

    #[test]
    fn fork_is_copy_on_write_not_a_deep_copy() {
        // Build a base table with a few thousand symbols so a deep copy
        // would be unmistakable, then assert the fork copies *nothing*: it
        // aliases the same frozen arena (pointer equality), and stays
        // aliased until it actually mutates a pre-fork symbol.
        let mut tab = SymbolTable::new();
        let pkg = tab.builtins().root_pkg;
        for i in 0..4000 {
            tab.new_term(pkg, Name::intern(&format!("t{i}")), Flags::EMPTY, Type::Int);
        }
        let start = tab.id_ceiling() + 10;
        let fork = tab.fork_for_worker(start, 100, roomy_growth(start + 100, 100));
        assert!(
            fork.base_shared_with(&tab),
            "fork must alias the origin's base arena, not copy it"
        );

        // Reads don't break sharing; writes to pre-fork symbols go to the
        // overlay, also without touching the shared base.
        let mut fork = fork;
        let probe = SymbolId::from_index(5);
        let before = fork.sym(probe).flags;
        fork.sym_mut(probe).flags |= Flags::SYNTHETIC;
        assert!(
            fork.base_shared_with(&tab),
            "COW overlay keeps the base shared"
        );
        assert_eq!(
            tab.sym(probe).flags,
            before,
            "origin never sees fork writes"
        );
        assert!(fork.sym(probe).flags.is(Flags::SYNTHETIC));

        // The origin resumes cheap in-place mutation after the fork dies.
        tab.adopt(&fork.into_delta());
        assert!(tab.sym(probe).flags.is(Flags::SYNTHETIC), "merge lands");
    }

    #[test]
    fn shard_exhaustion_chains_overflow_instead_of_panicking() {
        // Regression: a chunk allocating more than its primary shard's
        // capacity used to abort the whole compile with a hard
        // `worker symbol shard overflow` assert. It must now chain
        // overflow shards with globally unique ids.
        let mut tab = SymbolTable::new();
        let pkg = tab.builtins().root_pkg;
        let start = tab.id_ceiling();
        // Deliberately tiny stride: primary holds 3, each overflow holds 3,
        // and the interleaved step leaves room for a sibling fork.
        let mut fork = tab.fork_for_worker(
            start,
            3,
            ShardGrowth {
                next_start: start + 6,
                step: 6,
                capacity: 3,
            },
        );
        let made: Vec<SymbolId> = (0..11)
            .map(|i| {
                fork.new_term(
                    pkg,
                    Name::intern(&format!("ov{i}")),
                    Flags::EMPTY,
                    Type::Int,
                )
            })
            .collect();
        // All ids unique and all resolvable in the fork.
        let mut sorted = made.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), made.len(), "chained ids stay unique");
        for (i, id) in made.iter().enumerate() {
            assert_eq!(fork.sym(*id).name, Name::intern(&format!("ov{i}")));
        }

        // The merge adopts every chained shard; the origin resolves all of
        // them and `ids()` stays strictly ascending.
        tab.adopt(&fork.into_delta());
        for (i, id) in made.iter().enumerate() {
            assert_eq!(tab.sym(*id).name, Name::intern(&format!("ov{i}")));
        }
        let ids: Vec<u32> = tab.ids().map(SymbolId::index).collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids() ascending after adopting chained shards"
        );
        assert!(
            tab.id_ceiling() > made.iter().map(|s| s.index()).max().unwrap(),
            "ceiling covers overflow shards"
        );
    }

    /// Rewrites `Int` infos to `Boolean` — a stand-in signature rewrite.
    fn int_to_bool(_: &SymbolTable, d: &SymbolData) -> Option<SymbolInfo> {
        (d.info == Type::Int).then(|| SymbolInfo {
            info: Type::Boolean,
            parents: d.parents.clone(),
        })
    }

    const INT_TO_BOOL: InfoTransformer = InfoTransformer {
        phase: "intToBool",
        transform: int_to_bool,
    };

    #[test]
    fn info_transformer_applies_to_older_symbols_only() {
        let mut tab = SymbolTable::new();
        let pkg = tab.builtins().root_pkg;
        let old = tab.new_term(pkg, Name::from("old"), Flags::EMPTY, Type::Int);
        tab.register_info_transformer(INT_TO_BOOL);
        let young = tab.new_term(pkg, Name::from("young"), Flags::EMPTY, Type::Int);
        assert_eq!(
            tab.sym(old).info,
            Type::Boolean,
            "older symbols read through it"
        );
        assert_eq!(
            tab.sym(young).info,
            Type::Int,
            "later symbols are post-phase already"
        );
        // A write lands on the transformed value and is read back as is.
        tab.sym_mut(old).flags |= Flags::SYNTHETIC;
        assert_eq!(tab.sym(old).info, Type::Boolean);
        tab.sym_mut(old).info = Type::Int;
        assert_eq!(
            tab.sym(old).info,
            Type::Int,
            "writes are not transformed again"
        );
    }

    #[test]
    fn fork_delta_holds_only_writes_and_adopt_extends_the_stack() {
        let mut tab = SymbolTable::new();
        let pkg = tab.builtins().root_pkg;
        let syms: Vec<SymbolId> = (0..50)
            .map(|i| tab.new_term(pkg, Name::intern(&format!("s{i}")), Flags::EMPTY, Type::Int))
            .collect();
        let start = tab.id_ceiling() + 10;
        let mut fork = tab.fork_for_worker(start, 100, roomy_growth(start + 100, 100));
        fork.register_info_transformer(INT_TO_BOOL);
        assert!(syms.iter().all(|&s| fork.sym(s).info == Type::Boolean));
        fork.sym_mut(syms[3]).flags |= Flags::LIFTED;
        let fresh = fork.new_term(pkg, Name::from("fresh"), Flags::EMPTY, Type::Int);
        let delta = fork.into_delta();
        let dirty: Vec<SymbolId> = delta.dirty_entries().map(|(id, _)| id).collect();
        assert_eq!(dirty, vec![pkg, syms[3]], "reads never dirty a symbol");

        let mut splice = tab.clone();
        splice.adopt(&delta);
        assert_eq!(
            splice.info_transformers().len(),
            1,
            "adopt registers the stack"
        );
        assert!(syms.iter().all(|&s| splice.sym(s).info == Type::Boolean));
        assert!(splice.sym(syms[3]).flags.is(Flags::LIFTED));
        assert_eq!(
            splice.sym(fresh).info,
            Type::Int,
            "fork-born symbols keep their form"
        );
        assert_eq!(
            tab.sym(syms[0]).info,
            Type::Int,
            "the origin keeps no transformer"
        );
    }
}
