//! The stack VM that executes compiled [`Program`]s.
//!
//! # Execution design note
//!
//! The VM has two engines, pinned byte-identical to each other by the
//! `vm_equivalence` proptest and selected by [`VmOptions::engine`]:
//!
//! - **Reference engine** ([`VmEngine::Reference`], built by
//!   [`VmOptions::reference`]) is the original interpreter over the *base*
//!   ISA — the instructions codegen emits. It reads [`Program::functions`]
//!   directly, recurses on the host stack with a fresh locals vector and
//!   operand stack per call, and dispatches by name: a `HashMap<Name,
//!   FnId>` vtable probe per virtual/direct call and a per-class `HashMap`
//!   probe per field access. Superinstructions and inline-cache call sites
//!   are not base ISA; it traps on them. It is the semantic oracle and the
//!   honest A/B baseline for the `exec` bench. Its match arms are written
//!   independently of the fast engine's on purpose: an oracle that shares
//!   code with the engine it checks cannot catch a bug in that code.
//!
//! - **Fast engine** ([`VmEngine::Fast`], built by [`VmOptions::fast`], the
//!   default for [`Vm::new`]) is a non-recursive dispatch loop over an
//!   explicit frame stack (mirroring the middle end's iterative tree walk):
//!   one shared locals arena and one shared operand stack with per-frame
//!   base offsets, so calls reuse storage instead of allocating. Dispatch
//!   indexes the dense [`VmClass::vtable_slots`] / [`VmClass::field_slots`]
//!   tables built by [`Program::link`] — an array load instead of a hash
//!   probe. It runs a *prepared copy* of the code, to which two classic
//!   OO-VM rewrites apply; each can be switched off only to measure what it
//!   buys ("fast − ic", "fast − fuse"):
//!
//!   1. *Monomorphic inline caches* (`inline_caches`): every `CallVirtual`
//!      is rewritten to `CallVirtualIC` with a per-site cache entry
//!      (`ClassId → FnId`, hit/miss counted in [`VmStats`]), so a
//!      monomorphic site skips even the dense-table load after its first
//!      call.
//!   2. *Superinstructions* (`superinstructions`): the peephole pass
//!      [`crate::codegen::fuse`] fuses the hottest decoded pairs
//!      (`Load;Load`, `Load;ConstInt`, `ConstInt;Add`, `Add;Store`,
//!      `Load;CallStatic`, integer-compare + branch) — on the exec corpus
//!      over 60% of logical instructions retire inside a fused pair. Fused
//!      instructions charge fuel per constituent instruction so out-of-fuel
//!      traps stay position-identical with the reference engine, and the
//!      merged dataflow (e.g. `AddConst` never materializing its constant)
//!      is legal because the stack state between the two halves is
//!      unobservable.
//!
//! That makes five configurations: the reference engine, and the fast
//! engine with each subset of the two rewrites. [`VmOptions`] cannot
//! express a reference engine with a rewrite turned on.
//!
//! Both engines enforce the same guest call-depth budget
//! ([`VmOptions::max_frames`]) and the same array-size cap
//! ([`MAX_ARRAY_LEN`]): deep guest recursion and huge guest-chosen array
//! sizes degrade to a structured [`VmError::Trap`] instead of a host stack
//! overflow or allocation failure. The [`Program`] itself is never mutated,
//! so one linked program serves both sides of an A/B run.

use crate::bytecode::*;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

/// A runtime value. The representation is uniformly tagged, which is why the
/// pipeline needs no boxing phase (see DESIGN.md).
#[derive(Clone, Debug)]
pub enum Value {
    /// The unit value.
    Unit,
    /// A 64-bit integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(Rc<str>),
    /// The null reference.
    Null,
    /// An object instance.
    Obj(Rc<ObjCell>),
    /// An array.
    Arr(Rc<RefCell<Vec<Value>>>),
}

/// Heap storage of one object.
#[derive(Debug)]
pub struct ObjCell {
    /// The object's class.
    pub class: ClassId,
    /// Field slots.
    pub fields: RefCell<Vec<Value>>,
}

impl Value {
    fn truthy(&self) -> Result<bool, VmError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(VmError::Trap(format!("expected boolean, got {other}"))),
        }
    }

    fn int(&self) -> Result<i64, VmError> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(VmError::Trap(format!("expected int, got {other}"))),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Null => write!(f, "null"),
            Value::Obj(o) => write!(f, "<obj#{}>", o.class),
            Value::Arr(a) => {
                write!(f, "[")?;
                for (i, v) in a.borrow().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// Execution failure.
#[derive(Debug)]
pub enum VmError {
    /// A MiniScala exception that was never caught; carries the thrown value.
    Uncaught(Value),
    /// A VM-level fault (type confusion, missing method, fuel exhausted...).
    Trap(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Uncaught(v) => write!(f, "uncaught exception: {v}"),
            VmError::Trap(m) => write!(f, "vm trap: {m}"),
        }
    }
}

impl std::error::Error for VmError {}

enum Flow {
    Value(Value),
    Exception(Value),
}

/// Default guest call-depth budget. Sized so that even the host-recursive
/// reference engine stays well inside a 2 MiB test-thread host stack
/// while allowing far deeper guest recursion than the corpora use.
pub const DEFAULT_MAX_FRAMES: u32 = 512;

/// Largest array a guest may allocate. `NewArray` with a larger size is a
/// [`VmError::Trap`] in both engines: the size is guest data, and without
/// a cap it could ask the host for any amount of memory.
pub const MAX_ARRAY_LEN: i64 = 1 << 24;

/// Which engine runs the program; see the module's design note.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmEngine {
    /// The recursive base-ISA interpreter with by-name dispatch: the
    /// semantic oracle and A/B baseline.
    Reference,
    /// The flat-frame, slot-dispatched engine. The two rewrites of its
    /// prepared code are on in production and switched off only for
    /// ablations.
    Fast {
        /// Rewrite virtual call sites to monomorphic inline caches.
        inline_caches: bool,
        /// Run the [`crate::codegen::fuse`] peephole over the prepared
        /// code.
        superinstructions: bool,
    },
}

/// Execution configuration. [`VmOptions::fast`] (the [`Default`], used by
/// [`Vm::new`]) is the fast engine with both rewrites on;
/// [`VmOptions::reference`] is the reference engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VmOptions {
    /// The engine, with its rewrites.
    pub engine: VmEngine,
    /// Guest call-depth budget (both engines); exceeding it is a
    /// structured [`VmError::Trap`], never a host stack overflow.
    pub max_frames: u32,
}

impl VmOptions {
    /// The fast engine with inline caches and superinstructions (the
    /// production configuration).
    pub fn fast() -> VmOptions {
        VmOptions {
            engine: VmEngine::Fast {
                inline_caches: true,
                superinstructions: true,
            },
            max_frames: DEFAULT_MAX_FRAMES,
        }
    }

    /// The reference engine: the original recursive, hash-probing
    /// interpreter. Semantic oracle and A/B baseline.
    pub fn reference() -> VmOptions {
        VmOptions {
            engine: VmEngine::Reference,
            max_frames: DEFAULT_MAX_FRAMES,
        }
    }

    /// Every configuration, labelled: the reference engine, the fast
    /// engine, and the fast engine minus inline caches (`-ic`), minus
    /// superinstructions (`-fuse`) or minus both. The `exec` bench parses
    /// its specs against these labels.
    pub fn all() -> [(&'static str, VmOptions); 5] {
        let fast = |inline_caches, superinstructions| VmOptions {
            engine: VmEngine::Fast {
                inline_caches,
                superinstructions,
            },
            ..VmOptions::fast()
        };
        [
            ("ref", VmOptions::reference()),
            ("fast", fast(true, true)),
            ("fast-ic", fast(false, true)),
            ("fast-fuse", fast(true, false)),
            ("fast-ic-fuse", fast(false, false)),
        ]
    }
}

impl Default for VmOptions {
    fn default() -> VmOptions {
        VmOptions::fast()
    }
}

/// Execution counters, accumulated across every call made through one
/// [`Vm`]. Deterministic for a given program + options.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Instructions dispatched (a fused superinstruction counts once).
    pub insns_retired: u64,
    /// Superinstructions among [`VmStats::insns_retired`].
    pub fused_retired: u64,
    /// Inline-cache hits at `CallVirtualIC` sites.
    pub ic_hits: u64,
    /// Inline-cache misses (object receivers only; each miss refills the
    /// site's cache when resolution succeeds).
    pub ic_misses: u64,
    /// Deepest guest call depth reached.
    pub peak_frames: u64,
}

impl VmStats {
    /// Hit fraction over all inline-cache lookups (0.0 when none ran).
    pub fn ic_hit_rate(&self) -> f64 {
        let total = self.ic_hits + self.ic_misses;
        if total == 0 {
            0.0
        } else {
            self.ic_hits as f64 / total as f64
        }
    }
}

/// One inline-cache entry: last receiver class seen at the site and the
/// method it resolved to.
#[derive(Clone, Copy)]
struct IcEntry {
    class: ClassId,
    target: FnId,
}

const IC_EMPTY: IcEntry = IcEntry {
    class: ClassId::MAX,
    target: 0,
};

/// A suspended caller in the fast engine.
struct Frame {
    code: Rc<Function>,
    pc: usize,
    base: usize,
    stack_base: usize,
}

/// The virtual machine.
///
/// # Examples
///
/// Running a program requires compiling one first; see the `mini-driver`
/// crate's `compile_and_run` for the end-to-end path.
pub struct Vm<'p> {
    program: &'p Program,
    /// Captured `println` output, one entry per call.
    pub out: Vec<String>,
    /// Remaining instruction budget (guards against runaway programs).
    pub fuel: u64,
    /// Execution counters (instructions retired, IC hits, peak frames).
    pub stats: VmStats,
    opts: VmOptions,
    /// Fast engine only: the prepared copy of each [`Function`] (fused
    /// and/or IC-rewritten), indexed by [`FnId`].
    code_tab: Vec<Rc<Function>>,
    /// Fast engine only: one cache entry per `CallVirtualIC` site.
    ics: Vec<Cell<IcEntry>>,
    /// Reference engine only: current host-recursion depth.
    depth: u32,
}

impl<'p> Vm<'p> {
    /// Creates a VM with the default fuel budget (100M instructions) and
    /// the fast engine.
    pub fn new(program: &'p Program) -> Vm<'p> {
        Vm::with_options(program, VmOptions::default())
    }

    /// Creates a VM with explicit [`VmOptions`]. The fast engine requires
    /// the program to have been [`Program::link`]ed (codegen links
    /// automatically; hand-assembled programs must call it).
    pub fn with_options(program: &'p Program, opts: VmOptions) -> Vm<'p> {
        let mut ics = Vec::new();
        let code_tab = match opts.engine {
            VmEngine::Reference => Vec::new(),
            VmEngine::Fast {
                inline_caches,
                superinstructions,
            } => {
                let n = program.method_names.len();
                assert!(
                    program.classes.iter().all(|c| c.vtable_slots.len() == n),
                    "the fast VM engine requires a linked Program (call Program::link)"
                );
                program
                    .functions
                    .iter()
                    .map(|f| {
                        let (mut code, handlers) = if superinstructions {
                            crate::codegen::fuse(&f.code, &f.handlers)
                        } else {
                            (f.code.clone(), f.handlers.clone())
                        };
                        if inline_caches {
                            for i in &mut code {
                                if let Insn::CallVirtual(slot, argc) = *i {
                                    let site = ics.len() as u32;
                                    ics.push(Cell::new(IC_EMPTY));
                                    *i = Insn::CallVirtualIC(slot, argc, site);
                                }
                            }
                        }
                        Rc::new(Function {
                            name: f.name.clone(),
                            n_params: f.n_params,
                            n_locals: f.n_locals,
                            code,
                            handlers,
                        })
                    })
                    .collect()
            }
        };
        Vm {
            program,
            out: Vec::new(),
            fuel: 100_000_000,
            stats: VmStats::default(),
            opts,
            code_tab,
            ics,
            depth: 0,
        }
    }

    /// The options this VM was built with.
    pub fn options(&self) -> VmOptions {
        self.opts
    }

    /// Runs the program's `main`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Uncaught`] for user exceptions that escape `main`,
    /// or [`VmError::Trap`] for VM-level faults.
    pub fn run_main(&mut self) -> Result<Value, VmError> {
        let entry = self
            .program
            .entry
            .ok_or_else(|| VmError::Trap("program has no main".into()))?;
        self.call(entry, Vec::new())
    }

    /// Calls function `fid` with `args`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Vm::run_main`].
    pub fn call(&mut self, fid: FnId, args: Vec<Value>) -> Result<Value, VmError> {
        // Instruction accounting by fuel delta, not a per-dispatch counter
        // in the hot loop: every dispatch burns one fuel, and each fused
        // pair burns one more for its second half, so
        // dispatches = fuel spent − fused retired.
        let fuel0 = self.fuel;
        let fused0 = self.stats.fused_retired;
        let r = match self.opts.engine {
            VmEngine::Fast { .. } => self.run_flat(fid, args),
            VmEngine::Reference => match self.invoke(fid, args) {
                Ok(Flow::Value(v)) => Ok(v),
                Ok(Flow::Exception(v)) => Err(VmError::Uncaught(v)),
                Err(e) => Err(e),
            },
        };
        let spent = fuel0 - self.fuel;
        self.stats.insns_retired += spent - (self.stats.fused_retired - fused0);
        r
    }

    fn class_name(&self, v: &Value) -> &str {
        match v {
            Value::Unit => "Unit",
            Value::Int(_) => "Int",
            Value::Bool(_) => "Boolean",
            Value::Str(_) => "String",
            Value::Null => "Null",
            Value::Obj(o) => &self.program.classes[o.class as usize].name,
            Value::Arr(_) => "Array",
        }
    }

    fn type_test(&self, v: &Value, t: TypeTest) -> bool {
        match t {
            TypeTest::Any => true,
            TypeTest::AnyRef => matches!(v, Value::Obj(_) | Value::Str(_) | Value::Arr(_)),
            TypeTest::Int => matches!(v, Value::Int(_)),
            TypeTest::Bool => matches!(v, Value::Bool(_)),
            TypeTest::Unit => matches!(v, Value::Unit),
            TypeTest::Str => matches!(v, Value::Str(_)),
            TypeTest::Null => matches!(v, Value::Null),
            TypeTest::Array => matches!(v, Value::Arr(_)),
            TypeTest::Class(c) => match v {
                Value::Obj(o) => self.program.is_subclass(o.class, c),
                _ => false,
            },
        }
    }

    fn values_equal(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Unit, Value::Unit) => true,
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            (Value::Str(x), Value::Str(y)) => x == y,
            (Value::Null, Value::Null) => true,
            (Value::Obj(x), Value::Obj(y)) => Rc::ptr_eq(x, y),
            (Value::Arr(x), Value::Arr(y)) => Rc::ptr_eq(x, y),
            _ => false,
        }
    }

    /// Fast engine: resolve a virtual call through the dense slot table.
    #[inline]
    fn resolve_virtual(&self, recv: &Value, slot: MethodSlot) -> Option<FnId> {
        match recv {
            Value::Obj(o) => self.resolve_direct(o.class, slot),
            _ => None,
        }
    }

    #[inline]
    fn resolve_direct(&self, cls: ClassId, slot: MethodSlot) -> Option<FnId> {
        self.program.classes[cls as usize].vtable_slots[slot as usize]
    }

    #[inline]
    fn resolve_field(&self, cls: ClassId, gid: u16) -> Option<u16> {
        match self.program.classes[cls as usize]
            .field_slots
            .get(gid as usize)
        {
            Some(&NO_FIELD) | None => None,
            slot => slot.copied(),
        }
    }

    fn depth_trap(max: u32) -> VmError {
        VmError::Trap(format!("max call depth {max} exceeded"))
    }

    /// Reference engine: one host-recursive call.
    fn invoke(&mut self, fid: FnId, args: Vec<Value>) -> Result<Flow, VmError> {
        if self.depth >= self.opts.max_frames {
            return Err(Self::depth_trap(self.opts.max_frames));
        }
        self.depth += 1;
        self.stats.peak_frames = self.stats.peak_frames.max(self.depth as u64);
        let r = self.invoke_inner(fid, args);
        self.depth -= 1;
        r
    }

    fn invoke_inner(&mut self, fid: FnId, args: Vec<Value>) -> Result<Flow, VmError> {
        let program = self.program;
        let f = &program.functions[fid as usize];
        if f.code.is_empty() {
            return Err(VmError::Trap(format!(
                "call to abstract method `{}`",
                f.name
            )));
        }
        if args.len() != f.n_params as usize {
            return Err(VmError::Trap(format!(
                "arity mismatch calling `{}`: expected {}, got {}",
                f.name,
                f.n_params,
                args.len()
            )));
        }
        let mut locals = vec![Value::Unit; f.n_locals as usize];
        locals[..args.len()].clone_from_slice(&args);
        let mut stack: Vec<Value> = Vec::with_capacity(16);
        let mut pc: usize = 0;
        let code = &f.code;
        // By-name dispatch: the `HashMap` vtable keyed by selector name.
        let lookup = |cls: ClassId, slot: MethodSlot| {
            program.classes[cls as usize]
                .vtable
                .get(&program.method_name(slot))
                .copied()
        };

        macro_rules! pop {
            () => {
                stack
                    .pop()
                    .ok_or_else(|| VmError::Trap(format!("stack underflow in `{}`", f.name)))?
            };
        }
        macro_rules! throw {
            ($val:expr) => {{
                let exc: Value = $val;
                // `pc` was already advanced past the faulting instruction.
                let at = pc - 1;
                let mut handled = false;
                for h in &f.handlers {
                    if (h.start as usize) <= at && at < (h.end as usize) {
                        stack.clear();
                        stack.push(exc.clone());
                        pc = h.target as usize;
                        handled = true;
                        break;
                    }
                }
                if !handled {
                    return Ok(Flow::Exception(exc));
                }
                continue;
            }};
        }
        macro_rules! invoke_to_stack {
            ($g:expr, $args:expr) => {
                match self.invoke($g, $args)? {
                    Flow::Value(v) => stack.push(v),
                    Flow::Exception(e) => throw!(e),
                }
            };
        }

        loop {
            if self.fuel == 0 {
                return Err(VmError::Trap("out of fuel".into()));
            }
            self.fuel -= 1;
            let insn = *code
                .get(pc)
                .ok_or_else(|| VmError::Trap(format!("pc out of range in `{}`", f.name)))?;
            pc += 1;
            match insn {
                Insn::ConstInt(i) => stack.push(Value::Int(i)),
                Insn::ConstBool(b) => stack.push(Value::Bool(b)),
                Insn::ConstStr(s) => stack.push(Value::Str(Rc::from(s.as_str()))),
                Insn::ConstUnit => stack.push(Value::Unit),
                Insn::ConstNull => stack.push(Value::Null),
                Insn::Load(s) => stack.push(locals[s as usize].clone()),
                Insn::Store(s) => {
                    let v = pop!();
                    locals[s as usize] = v;
                }
                Insn::GetField(gid) => {
                    let recv = pop!();
                    match recv {
                        Value::Obj(o) => {
                            let class = &program.classes[o.class as usize];
                            let slot = *class.field_resolve.get(&gid).ok_or_else(|| {
                                VmError::Trap(format!("unknown field #{gid} read"))
                            })?;
                            stack.push(o.fields.borrow()[slot as usize].clone())
                        }
                        Value::Null => throw!(Value::Str(Rc::from("NullPointerException"))),
                        other => {
                            return Err(VmError::Trap(format!("field read on {other}")));
                        }
                    }
                }
                Insn::PutField(gid) => {
                    let v = pop!();
                    let recv = pop!();
                    match recv {
                        Value::Obj(o) => {
                            let class = &program.classes[o.class as usize];
                            let slot = *class.field_resolve.get(&gid).ok_or_else(|| {
                                VmError::Trap(format!("unknown field #{gid} write"))
                            })?;
                            o.fields.borrow_mut()[slot as usize] = v;
                        }
                        Value::Null => throw!(Value::Str(Rc::from("NullPointerException"))),
                        other => {
                            return Err(VmError::Trap(format!("field write on {other}")));
                        }
                    }
                }
                Insn::CallStatic(g, argc) => {
                    let split = stack.len() - argc as usize;
                    let call_args = stack.split_off(split);
                    invoke_to_stack!(g, call_args);
                }
                Insn::CallVirtual(slot, argc) => {
                    let split = stack.len() - argc as usize;
                    let call_args = stack.split_off(split);
                    let recv = call_args
                        .first()
                        .ok_or_else(|| VmError::Trap("virtual call without receiver".into()))?
                        .clone();
                    let target = match &recv {
                        Value::Obj(o) => lookup(o.class, slot),
                        _ => None,
                    };
                    if let Some(g) = target {
                        invoke_to_stack!(g, call_args);
                        continue;
                    }
                    // Universal `Any` members when dispatch found no method.
                    match program.method_name(slot).as_str() {
                        "equals" => {
                            let eq = Self::values_equal(&recv, &call_args[1]);
                            stack.push(Value::Bool(eq));
                        }
                        "toString" => {
                            stack.push(Value::Str(Rc::from(self.render(&recv))));
                        }
                        "getClass" => {
                            stack.push(Value::Str(Rc::from(self.class_name(&recv))));
                        }
                        name => {
                            if matches!(recv, Value::Null) {
                                throw!(Value::Str(Rc::from("NullPointerException")));
                            }
                            return Err(VmError::Trap(format!(
                                "no method `{name}` on {}",
                                self.class_name(&recv)
                            )));
                        }
                    }
                }
                Insn::CallDirect(cls, slot, argc) => {
                    let split = stack.len() - argc as usize;
                    let call_args = stack.split_off(split);
                    match lookup(cls, slot) {
                        Some(g) => invoke_to_stack!(g, call_args),
                        None if program.method_name(slot) == mini_ir::std_names::init() => {
                            // Fieldless class without an explicit ctor.
                            stack.push(Value::Unit);
                        }
                        None => {
                            return Err(VmError::Trap(format!(
                                "no direct method `{}` on class {}",
                                program.method_name(slot),
                                program.classes[cls as usize].name
                            )))
                        }
                    }
                }
                Insn::New(cls) => {
                    let n = program.classes[cls as usize].n_fields as usize;
                    stack.push(Value::Obj(Rc::new(ObjCell {
                        class: cls,
                        fields: RefCell::new(vec![Value::Null; n]),
                    })));
                }
                Insn::NewArray => {
                    let n = pop!().int()?;
                    if n < 0 {
                        throw!(Value::Str(Rc::from("NegativeArraySizeException")));
                    }
                    if n > MAX_ARRAY_LEN {
                        return Err(VmError::Trap(format!(
                            "array size {n} exceeds MAX_ARRAY_LEN ({MAX_ARRAY_LEN})"
                        )));
                    }
                    stack.push(Value::Arr(Rc::new(RefCell::new(vec![
                        Value::Unit;
                        n as usize
                    ]))));
                }
                Insn::ALoad => {
                    let i = pop!().int()?;
                    let a = pop!();
                    let Value::Arr(a) = a else {
                        return Err(VmError::Trap("array read on non-array".into()));
                    };
                    let b = a.borrow();
                    match b.get(i as usize) {
                        Some(v) => stack.push(v.clone()),
                        None => {
                            drop(b);
                            throw!(Value::Str(Rc::from("ArrayIndexOutOfBoundsException")));
                        }
                    }
                }
                Insn::AStore => {
                    let v = pop!();
                    let i = pop!().int()?;
                    let a = pop!();
                    let Value::Arr(a) = a else {
                        return Err(VmError::Trap("array write on non-array".into()));
                    };
                    let mut b = a.borrow_mut();
                    let len = b.len();
                    if (i as usize) < len && i >= 0 {
                        b[i as usize] = v;
                        drop(b);
                        stack.push(Value::Unit);
                    } else {
                        drop(b);
                        throw!(Value::Str(Rc::from("ArrayIndexOutOfBoundsException")));
                    }
                }
                Insn::ALen => {
                    let a = pop!();
                    let Value::Arr(a) = a else {
                        return Err(VmError::Trap("length of non-array".into()));
                    };
                    let n = a.borrow().len() as i64;
                    stack.push(Value::Int(n));
                }
                Insn::Add => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Int(a.wrapping_add(b)));
                }
                Insn::Sub => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Int(a.wrapping_sub(b)));
                }
                Insn::Mul => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Int(a.wrapping_mul(b)));
                }
                Insn::Div => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    if b == 0 {
                        throw!(Value::Str(Rc::from("ArithmeticException: / by zero")));
                    }
                    stack.push(Value::Int(a.wrapping_div(b)));
                }
                Insn::Mod => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    if b == 0 {
                        throw!(Value::Str(Rc::from("ArithmeticException: % by zero")));
                    }
                    stack.push(Value::Int(a.wrapping_rem(b)));
                }
                Insn::Neg => {
                    let a = pop!().int()?;
                    stack.push(Value::Int(a.wrapping_neg()));
                }
                Insn::Not => {
                    let a = pop!().truthy()?;
                    stack.push(Value::Bool(!a));
                }
                Insn::CmpEq => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(Value::Bool(Self::values_equal(&a, &b)));
                }
                Insn::CmpLt => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Bool(a < b));
                }
                Insn::CmpGt => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Bool(a > b));
                }
                Insn::CmpLe => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Bool(a <= b));
                }
                Insn::CmpGe => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Bool(a >= b));
                }
                Insn::Concat => {
                    let b = pop!();
                    let a = pop!();
                    let s = format!("{}{}", self.render(&a), self.render(&b));
                    stack.push(Value::Str(Rc::from(s)));
                }
                Insn::Jump(t) => pc = t as usize,
                Insn::JumpIfFalse(t) => {
                    if !pop!().truthy()? {
                        pc = t as usize;
                    }
                }
                Insn::JumpIfTrue(t) => {
                    if pop!().truthy()? {
                        pc = t as usize;
                    }
                }
                Insn::Pop => {
                    let _ = pop!();
                }
                Insn::Dup => {
                    let v = stack
                        .last()
                        .ok_or_else(|| VmError::Trap("dup on empty stack".into()))?
                        .clone();
                    stack.push(v);
                }
                Insn::Ret => {
                    let v = pop!();
                    return Ok(Flow::Value(v));
                }
                Insn::Throw => {
                    let v = pop!();
                    throw!(v);
                }
                Insn::IsInstance(t) => {
                    let v = pop!();
                    stack.push(Value::Bool(self.type_test(&v, t)));
                }
                Insn::Cast(t) => {
                    let v = pop!();
                    // `null` passes reference casts, as on the JVM.
                    let ok = self.type_test(&v, t)
                        || (matches!(v, Value::Null)
                            && matches!(
                                t,
                                TypeTest::Class(_)
                                    | TypeTest::AnyRef
                                    | TypeTest::Str
                                    | TypeTest::Array
                            ));
                    if ok {
                        stack.push(v);
                    } else {
                        throw!(Value::Str(Rc::from(format!(
                            "ClassCastException: {} is not {:?}",
                            self.class_name(&v),
                            t
                        ))));
                    }
                }
                Insn::Println => {
                    let v = pop!();
                    let line = self.render(&v);
                    self.out.push(line);
                    stack.push(Value::Unit);
                }
                Insn::GetClassName => {
                    let v = pop!();
                    stack.push(Value::Str(Rc::from(self.class_name(&v))));
                }
                Insn::ToStr => {
                    let v = pop!();
                    stack.push(Value::Str(Rc::from(self.render(&v))));
                }
                Insn::SLen => {
                    let v = pop!();
                    let Value::Str(s) = v else {
                        return Err(VmError::Trap("length of non-string".into()));
                    };
                    stack.push(Value::Int(s.chars().count() as i64));
                }
                Insn::LoadLoad(..)
                | Insn::LoadConst(..)
                | Insn::AddConst(_)
                | Insn::AddStore(_)
                | Insn::LoadCall(..)
                | Insn::CmpBranch(..)
                | Insn::CallVirtualIC(..) => {
                    return Err(VmError::Trap(format!(
                        "non-base instruction {insn:?} in `{}`",
                        f.name
                    )));
                }
            }
        }
    }

    /// Fast engine: an explicit frame stack over one shared locals arena
    /// and one shared operand stack (per-frame base offsets), so guest
    /// calls reuse storage instead of allocating, and guest recursion depth
    /// is bounded by `max_frames`, not the host stack.
    fn run_flat(&mut self, fid: FnId, args: Vec<Value>) -> Result<Value, VmError> {
        if self.opts.max_frames == 0 {
            return Err(Self::depth_trap(0));
        }
        let mut cur = self.code_tab[fid as usize].clone();
        if cur.code.is_empty() {
            return Err(VmError::Trap(format!(
                "call to abstract method `{}`",
                cur.name
            )));
        }
        if args.len() != cur.n_params as usize {
            return Err(VmError::Trap(format!(
                "arity mismatch calling `{}`: expected {}, got {}",
                cur.name,
                cur.n_params,
                args.len()
            )));
        }
        let mut arena: Vec<Value> = Vec::with_capacity(256);
        arena.resize(cur.n_locals as usize, Value::Unit);
        for (i, v) in args.into_iter().enumerate() {
            arena[i] = v;
        }
        let mut stack: Vec<Value> = Vec::with_capacity(64);
        let mut frames: Vec<Frame> = Vec::with_capacity(16);
        let mut pc: usize = 0;
        let mut base: usize = 0;
        let mut stack_base: usize = 0;
        self.stats.peak_frames = self.stats.peak_frames.max(1);

        macro_rules! pop {
            () => {{
                // Codegen's stack discipline keeps every pop above the
                // frame's stack_base; checked in debug builds only so the
                // release hot loop pays no extra branch per pop.
                debug_assert!(stack.len() > stack_base, "underflow in `{}`", cur.name);
                stack.pop().expect("operand stack underflow")
            }};
        }
        macro_rules! throw {
            ($val:expr) => {{
                let exc: Value = $val;
                // `pc` was already advanced past the faulting instruction;
                // when unwinding into a caller, its saved pc points past
                // the call, so `pc - 1` is the call site there too.
                let mut at = pc - 1;
                'unwind: loop {
                    for h in &cur.handlers {
                        if (h.start as usize) <= at && at < (h.end as usize) {
                            stack.truncate(stack_base);
                            stack.push(exc.clone());
                            pc = h.target as usize;
                            break 'unwind;
                        }
                    }
                    stack.truncate(stack_base);
                    arena.truncate(base);
                    match frames.pop() {
                        None => return Err(VmError::Uncaught(exc)),
                        Some(fr) => {
                            cur = fr.code;
                            pc = fr.pc;
                            base = fr.base;
                            stack_base = fr.stack_base;
                            at = pc - 1;
                        }
                    }
                }
                continue;
            }};
        }
        macro_rules! fuel2 {
            () => {
                if self.fuel == 0 {
                    return Err(VmError::Trap("out of fuel".into()));
                } else {
                    self.fuel -= 1;
                }
            };
        }
        macro_rules! virtual_fallback {
            ($recv:expr, $slot:expr, $call_args:expr) => {{
                let recv = $recv;
                let call_args: Vec<Value> = $call_args;
                match self.program.method_name($slot).as_str() {
                    "equals" => {
                        let eq = Self::values_equal(&recv, &call_args[1]);
                        stack.push(Value::Bool(eq));
                    }
                    "toString" => {
                        stack.push(Value::Str(Rc::from(self.render(&recv))));
                    }
                    "getClass" => {
                        stack.push(Value::Str(Rc::from(self.class_name(&recv))));
                    }
                    name => {
                        if matches!(recv, Value::Null) {
                            throw!(Value::Str(Rc::from("NullPointerException")));
                        }
                        return Err(VmError::Trap(format!(
                            "no method `{name}` on {}",
                            self.class_name(&recv)
                        )));
                    }
                }
            }};
        }
        // Push a frame: move the top `argc` operands into a fresh arena
        // region and continue the loop inside the callee.
        macro_rules! do_call {
            ($g:expr, $argc:expr) => {{
                let g: FnId = $g;
                let argc: usize = $argc;
                if frames.len() as u32 + 1 >= self.opts.max_frames {
                    return Err(Self::depth_trap(self.opts.max_frames));
                }
                let callee = self.code_tab[g as usize].clone();
                if callee.code.is_empty() {
                    return Err(VmError::Trap(format!(
                        "call to abstract method `{}`",
                        callee.name
                    )));
                }
                if argc != callee.n_params as usize {
                    return Err(VmError::Trap(format!(
                        "arity mismatch calling `{}`: expected {}, got {}",
                        callee.name, callee.n_params, argc
                    )));
                }
                if stack.len() < stack_base + argc {
                    return Err(VmError::Trap(format!("stack underflow in `{}`", cur.name)));
                }
                let nbase = arena.len();
                let split = stack.len() - argc;
                arena.extend(stack.drain(split..));
                arena.resize(nbase + callee.n_locals as usize, Value::Unit);
                frames.push(Frame {
                    code: std::mem::replace(&mut cur, callee),
                    pc,
                    base,
                    stack_base,
                });
                pc = 0;
                base = nbase;
                stack_base = stack.len();
                self.stats.peak_frames = self.stats.peak_frames.max(frames.len() as u64 + 1);
            }};
        }

        loop {
            if self.fuel == 0 {
                return Err(VmError::Trap("out of fuel".into()));
            }
            self.fuel -= 1;
            let insn = *cur
                .code
                .get(pc)
                .ok_or_else(|| VmError::Trap(format!("pc out of range in `{}`", cur.name)))?;
            pc += 1;
            match insn {
                Insn::ConstInt(i) => stack.push(Value::Int(i)),
                Insn::ConstBool(b) => stack.push(Value::Bool(b)),
                Insn::ConstStr(s) => stack.push(Value::Str(Rc::from(s.as_str()))),
                Insn::ConstUnit => stack.push(Value::Unit),
                Insn::ConstNull => stack.push(Value::Null),
                Insn::Load(s) => stack.push(arena[base + s as usize].clone()),
                Insn::Store(s) => {
                    let v = pop!();
                    arena[base + s as usize] = v;
                }
                Insn::GetField(gid) => {
                    let recv = pop!();
                    match recv {
                        Value::Obj(o) => {
                            let slot = self.resolve_field(o.class, gid).ok_or_else(|| {
                                VmError::Trap(format!("unknown field #{gid} read"))
                            })?;
                            stack.push(o.fields.borrow()[slot as usize].clone())
                        }
                        Value::Null => throw!(Value::Str(Rc::from("NullPointerException"))),
                        other => {
                            return Err(VmError::Trap(format!("field read on {other}")));
                        }
                    }
                }
                Insn::PutField(gid) => {
                    let v = pop!();
                    let recv = pop!();
                    match recv {
                        Value::Obj(o) => {
                            let slot = self.resolve_field(o.class, gid).ok_or_else(|| {
                                VmError::Trap(format!("unknown field #{gid} write"))
                            })?;
                            o.fields.borrow_mut()[slot as usize] = v;
                        }
                        Value::Null => throw!(Value::Str(Rc::from("NullPointerException"))),
                        other => {
                            return Err(VmError::Trap(format!("field write on {other}")));
                        }
                    }
                }
                Insn::CallStatic(g, argc) => do_call!(g, argc as usize),
                Insn::CallVirtual(slot, argc) => {
                    let argc = argc as usize;
                    if argc == 0 {
                        return Err(VmError::Trap("virtual call without receiver".into()));
                    }
                    if stack.len() < stack_base + argc {
                        return Err(VmError::Trap(format!("stack underflow in `{}`", cur.name)));
                    }
                    // Peek the receiver in place: the hit path never needs
                    // to clone it (its Rc stays on the stack and moves into
                    // the callee's frame with the other args).
                    match self.resolve_virtual(&stack[stack.len() - argc], slot) {
                        Some(g) => do_call!(g, argc),
                        None => {
                            let split = stack.len() - argc;
                            let call_args = stack.split_off(split);
                            let recv = call_args[0].clone();
                            virtual_fallback!(recv, slot, call_args);
                        }
                    }
                }
                Insn::CallVirtualIC(slot, argc, site) => {
                    let argc = argc as usize;
                    if argc == 0 {
                        return Err(VmError::Trap("virtual call without receiver".into()));
                    }
                    if stack.len() < stack_base + argc {
                        return Err(VmError::Trap(format!("stack underflow in `{}`", cur.name)));
                    }
                    let target = match &stack[stack.len() - argc] {
                        Value::Obj(o) => {
                            let entry = self.ics[site as usize].get();
                            if entry.class == o.class {
                                self.stats.ic_hits += 1;
                                Some(entry.target)
                            } else {
                                let class = o.class;
                                self.stats.ic_misses += 1;
                                let resolved = self.resolve_direct(class, slot);
                                if let Some(g) = resolved {
                                    self.ics[site as usize].set(IcEntry { class, target: g });
                                }
                                resolved
                            }
                        }
                        _ => None,
                    };
                    match target {
                        Some(g) => do_call!(g, argc),
                        None => {
                            let split = stack.len() - argc;
                            let call_args = stack.split_off(split);
                            let recv = call_args[0].clone();
                            virtual_fallback!(recv, slot, call_args);
                        }
                    }
                }
                Insn::CallDirect(cls, slot, argc) => {
                    let argc = argc as usize;
                    if stack.len() < stack_base + argc {
                        return Err(VmError::Trap(format!("stack underflow in `{}`", cur.name)));
                    }
                    match self.resolve_direct(cls, slot) {
                        Some(g) => do_call!(g, argc),
                        None if self.program.method_name(slot) == mini_ir::std_names::init() => {
                            // Fieldless class without an explicit ctor: the
                            // args (receiver via Dup) are consumed.
                            stack.truncate(stack.len() - argc);
                            stack.push(Value::Unit);
                        }
                        None => {
                            return Err(VmError::Trap(format!(
                                "no direct method `{}` on class {}",
                                self.program.method_name(slot),
                                self.program.classes[cls as usize].name
                            )))
                        }
                    }
                }
                Insn::New(cls) => {
                    let n = self.program.classes[cls as usize].n_fields as usize;
                    stack.push(Value::Obj(Rc::new(ObjCell {
                        class: cls,
                        fields: RefCell::new(vec![Value::Null; n]),
                    })));
                }
                Insn::NewArray => {
                    let n = pop!().int()?;
                    if n < 0 {
                        throw!(Value::Str(Rc::from("NegativeArraySizeException")));
                    }
                    if n > MAX_ARRAY_LEN {
                        return Err(VmError::Trap(format!(
                            "array size {n} exceeds MAX_ARRAY_LEN ({MAX_ARRAY_LEN})"
                        )));
                    }
                    stack.push(Value::Arr(Rc::new(RefCell::new(vec![
                        Value::Unit;
                        n as usize
                    ]))));
                }
                Insn::ALoad => {
                    let i = pop!().int()?;
                    let a = pop!();
                    let Value::Arr(a) = a else {
                        return Err(VmError::Trap("array read on non-array".into()));
                    };
                    let b = a.borrow();
                    match b.get(i as usize) {
                        Some(v) => stack.push(v.clone()),
                        None => {
                            drop(b);
                            throw!(Value::Str(Rc::from("ArrayIndexOutOfBoundsException")));
                        }
                    }
                }
                Insn::AStore => {
                    let v = pop!();
                    let i = pop!().int()?;
                    let a = pop!();
                    let Value::Arr(a) = a else {
                        return Err(VmError::Trap("array write on non-array".into()));
                    };
                    let mut b = a.borrow_mut();
                    let len = b.len();
                    if (i as usize) < len && i >= 0 {
                        b[i as usize] = v;
                        drop(b);
                        stack.push(Value::Unit);
                    } else {
                        drop(b);
                        throw!(Value::Str(Rc::from("ArrayIndexOutOfBoundsException")));
                    }
                }
                Insn::ALen => {
                    let a = pop!();
                    let Value::Arr(a) = a else {
                        return Err(VmError::Trap("length of non-array".into()));
                    };
                    let n = a.borrow().len() as i64;
                    stack.push(Value::Int(n));
                }
                Insn::Add => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Int(a.wrapping_add(b)));
                }
                Insn::Sub => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Int(a.wrapping_sub(b)));
                }
                Insn::Mul => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Int(a.wrapping_mul(b)));
                }
                Insn::Div => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    if b == 0 {
                        throw!(Value::Str(Rc::from("ArithmeticException: / by zero")));
                    }
                    stack.push(Value::Int(a.wrapping_div(b)));
                }
                Insn::Mod => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    if b == 0 {
                        throw!(Value::Str(Rc::from("ArithmeticException: % by zero")));
                    }
                    stack.push(Value::Int(a.wrapping_rem(b)));
                }
                Insn::Neg => {
                    let a = pop!().int()?;
                    stack.push(Value::Int(a.wrapping_neg()));
                }
                Insn::Not => {
                    let a = pop!().truthy()?;
                    stack.push(Value::Bool(!a));
                }
                Insn::CmpEq => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(Value::Bool(Self::values_equal(&a, &b)));
                }
                Insn::CmpLt => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Bool(a < b));
                }
                Insn::CmpGt => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Bool(a > b));
                }
                Insn::CmpLe => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Bool(a <= b));
                }
                Insn::CmpGe => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Bool(a >= b));
                }
                Insn::Concat => {
                    let b = pop!();
                    let a = pop!();
                    let s = format!("{}{}", self.render(&a), self.render(&b));
                    stack.push(Value::Str(Rc::from(s)));
                }
                Insn::Jump(t) => pc = t as usize,
                Insn::JumpIfFalse(t) => {
                    if !pop!().truthy()? {
                        pc = t as usize;
                    }
                }
                Insn::JumpIfTrue(t) => {
                    if pop!().truthy()? {
                        pc = t as usize;
                    }
                }
                Insn::Pop => {
                    let _ = pop!();
                }
                Insn::Dup => {
                    if stack.len() <= stack_base {
                        return Err(VmError::Trap("dup on empty stack".into()));
                    }
                    let v = stack.last().unwrap().clone();
                    stack.push(v);
                }
                Insn::Ret => {
                    let v = pop!();
                    stack.truncate(stack_base);
                    arena.truncate(base);
                    match frames.pop() {
                        None => return Ok(v),
                        Some(fr) => {
                            cur = fr.code;
                            pc = fr.pc;
                            base = fr.base;
                            stack_base = fr.stack_base;
                            stack.push(v);
                        }
                    }
                }
                Insn::Throw => {
                    let v = pop!();
                    throw!(v);
                }
                Insn::IsInstance(t) => {
                    let v = pop!();
                    stack.push(Value::Bool(self.type_test(&v, t)));
                }
                Insn::Cast(t) => {
                    let v = pop!();
                    // `null` passes reference casts, as on the JVM.
                    let ok = self.type_test(&v, t)
                        || (matches!(v, Value::Null)
                            && matches!(
                                t,
                                TypeTest::Class(_)
                                    | TypeTest::AnyRef
                                    | TypeTest::Str
                                    | TypeTest::Array
                            ));
                    if ok {
                        stack.push(v);
                    } else {
                        throw!(Value::Str(Rc::from(format!(
                            "ClassCastException: {} is not {:?}",
                            self.class_name(&v),
                            t
                        ))));
                    }
                }
                Insn::Println => {
                    let v = pop!();
                    let line = self.render(&v);
                    self.out.push(line);
                    stack.push(Value::Unit);
                }
                Insn::GetClassName => {
                    let v = pop!();
                    stack.push(Value::Str(Rc::from(self.class_name(&v))));
                }
                Insn::ToStr => {
                    let v = pop!();
                    stack.push(Value::Str(Rc::from(self.render(&v))));
                }
                Insn::SLen => {
                    let v = pop!();
                    let Value::Str(s) = v else {
                        return Err(VmError::Trap("length of non-string".into()));
                    };
                    stack.push(Value::Int(s.chars().count() as i64));
                }
                Insn::LoadLoad(a, b) => {
                    self.stats.fused_retired += 1;
                    stack.push(arena[base + a as usize].clone());
                    fuel2!();
                    stack.push(arena[base + b as usize].clone());
                }
                Insn::LoadConst(a, k) => {
                    self.stats.fused_retired += 1;
                    stack.push(arena[base + a as usize].clone());
                    fuel2!();
                    stack.push(Value::Int(k));
                }
                Insn::AddConst(k) => {
                    self.stats.fused_retired += 1;
                    fuel2!();
                    let a = pop!().int()?;
                    stack.push(Value::Int(a.wrapping_add(k)));
                }
                Insn::AddStore(s) => {
                    self.stats.fused_retired += 1;
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    fuel2!();
                    arena[base + s as usize] = Value::Int(a.wrapping_add(b));
                }
                Insn::LoadCall(x, g, argc) => {
                    self.stats.fused_retired += 1;
                    stack.push(arena[base + x as usize].clone());
                    fuel2!();
                    do_call!(g, argc as usize);
                }
                Insn::CmpBranch(kind, sense, t) => {
                    self.stats.fused_retired += 1;
                    let b = pop!();
                    let a = pop!();
                    let cond = match kind {
                        Cmp::Eq => Self::values_equal(&a, &b),
                        kind => {
                            // Type-check in the reference pop order (b first).
                            let bi = b.int()?;
                            let ai = a.int()?;
                            match kind {
                                Cmp::Lt => ai < bi,
                                Cmp::Gt => ai > bi,
                                Cmp::Le => ai <= bi,
                                Cmp::Ge => ai >= bi,
                                Cmp::Eq => unreachable!("handled above"),
                            }
                        }
                    };
                    fuel2!();
                    if cond == sense {
                        pc = t as usize;
                    }
                }
            }
        }
    }

    fn render(&self, v: &Value) -> String {
        match v {
            Value::Obj(o) => format!(
                "{}@{:p}",
                self.program.classes[o.class as usize].name,
                Rc::as_ptr(o)
            ),
            other => other.to_string(),
        }
    }
}
