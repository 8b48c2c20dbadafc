//! The four workloads, their oracles and the per-layer metric table.
//!
//! | workload | one op | layers exercised |
//! |---|---|---|
//! | `batch` | `compile_sources` of the 34 kLOC stdlib-like corpus | front, core+phases, ir, codegen |
//! | `edit` | `CompileSession::update` + `compile` + `run_main` on an 80-unit linked corpus | session, front, core, codegen, vm |
//! | `exec` | `Vm::new` + `run_main` of the execution-heavy corpus | vm |
//! | `service` | one `CompileService` request (lint + DCE + `running_main`), one in flight | service, store, analysis, diagnostics, session, vm |
//!
//! Every workload compiles with `CompilerOptions::fused()`, whose `jobs` is 1.

use crate::trace::SpanId;
use crate::{mix, render_output, timed, Run};
use mini_backend::{Program, Vm, VmOptions, VmStats};
use mini_driver::{
    compile_sources, CompileRequest, CompileService, CompileSession, Compiled, CompilerOptions,
    ServiceConfig, StageTimes,
};
use std::time::{Duration, Instant};
use workload::{Edit, EditKind, EditScript, LinkedConfig};

/// Set-ups timed before the first pass (each pass also times its own).
pub const SETUP_REPS: usize = 11;

/// Fresh starts (set-up + first compile) at the head of each `edit` and
/// `service` pass; the pass continues on the last one.
const COLD_STARTS: usize = 2;

/// Ops per pass.
const BATCH_COMPILES: usize = 2;
const EXEC_RUNS: usize = 30;
const EDIT_UNITS: usize = 80;
const SERVICE_UNITS: usize = 32;
const SERVICE_TENANTS: usize = 2;
/// Every fifth service edit touches the tenant's private unit.
const SERVICE_PRIVATE_EVERY: usize = 5;
const SERVICE_EDITS: usize = SERVICE_UNITS + SERVICE_UNITS / (SERVICE_PRIVATE_EVERY - 1);

pub struct Workload {
    pub name: &'static str,
    /// Expected output of every op state, from the oracle path.
    pub oracle: fn(u64) -> Vec<String>,
    /// One set-up, timed by the caller and then dropped.
    pub setup_only: fn(&mut Run),
    /// One pass: set-up plus the op script.
    pub pass: fn(&mut Run),
    /// Untimed extra layer counts gathered once in traced runs.
    pub trace_extras: fn(&mut Run),
}

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

static WORKLOADS: &[Workload] = &[
    Workload {
        name: "batch",
        oracle: batch_oracle,
        setup_only: |run| drop(batch_setup(run.seed)),
        pass: batch_pass,
        trace_extras: |_| {},
    },
    Workload {
        name: "edit",
        oracle: edit_oracle,
        setup_only: |run| drop(edit_setup(run.seed)),
        pass: edit_pass,
        trace_extras: |_| {},
    },
    Workload {
        name: "exec",
        oracle: exec_oracle,
        setup_only: |run| drop(exec_setup(run.seed)),
        pass: exec_pass,
        trace_extras: |_| {},
    },
    Workload {
        name: "service",
        oracle: service_oracle,
        setup_only: |run| drop(service_setup(run.seed).1.drain()),
        pass: service_pass,
        trace_extras: service_mirror,
    },
];

/// How a per-layer metric is derived from a traced run.
#[derive(Clone, Copy)]
pub enum Kind {
    /// Median of per-op (or per-pass) samples.
    Median,
    /// One pass's counter total divided by the pass's op count.
    PerOp,
    /// One pass's counter value as is.
    PerPass,
    /// Quotient of two pass counters; the denominator is reported too.
    Ratio(&'static str, &'static str),
}

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
}

const fn m(name: &'static str, unit: &'static str, kind: Kind) -> LayerMetric {
    LayerMetric { name, unit, kind }
}

/// Every per-layer metric, in report order. A workload that bypasses a
/// layer reports 0 for it.
pub const LAYER_METRICS: &[LayerMetric] = &[
    m("front.ms", "ms", Kind::Median),
    m("front.units", "count", Kind::PerOp),
    m("core.transform_ms", "ms", Kind::Median),
    m("core.node_visits", "count", Kind::PerOp),
    m("core.nodes_pruned", "count", Kind::PerOp),
    m("core.transform_calls", "count", Kind::PerOp),
    m("core.traversals", "count", Kind::PerOp),
    m("ir.nodes_allocated", "count", Kind::PerOp),
    m("ir.bytes_allocated", "bytes", Kind::PerOp),
    m("analysis.findings", "count", Kind::PerOp),
    m("analysis.nodes_eliminated", "count", Kind::PerOp),
    m("codegen.ms", "ms", Kind::Median),
    m("vm.prepare_ms", "ms", Kind::Median),
    m("vm.run_ms", "ms", Kind::Median),
    m("vm.insns_retired", "count", Kind::PerOp),
    m("vm.fused_retired", "count", Kind::PerOp),
    m(
        "vm.fused_ratio",
        "ratio",
        Kind::Ratio("vm.fused_retired", "vm.insns_retired"),
    ),
    m("vm.ic_lookups", "count", Kind::PerOp),
    m(
        "vm.ic_hit_ratio",
        "ratio",
        Kind::Ratio("vm.ic_hits", "vm.ic_lookups"),
    ),
    m("vm.peak_frames", "count", Kind::PerPass),
    m("session.compile_ms", "ms", Kind::Median),
    m("session.splice_ms", "ms", Kind::Median),
    m("session.body_edit_ms", "ms", Kind::Median),
    m("session.sig_edit_ms", "ms", Kind::Median),
    m("session.units_total", "count", Kind::PerOp),
    m(
        "session.reuse_ratio",
        "ratio",
        Kind::Ratio("session.units_reused", "session.units_total"),
    ),
    m("session.units_recompiled", "count", Kind::PerOp),
    m("session.invalidated_by_deps", "count", Kind::PerOp),
    m("session.symbols_cold", "count", Kind::PerPass),
    m("session.symbols", "count", Kind::PerPass),
    m("session.drift_first_ms", "ms", Kind::Median),
    m("session.drift_last_ms", "ms", Kind::Median),
    m("session.drift_ratio", "ratio", Kind::Median),
    m("store.lookups", "count", Kind::PerOp),
    m("store.hits", "count", Kind::PerOp),
    m(
        "store.hit_ratio",
        "ratio",
        Kind::Ratio("store.hits", "store.lookups"),
    ),
    m("store.publishes", "count", Kind::PerOp),
    m("store.bytes", "bytes", Kind::PerPass),
    m("service.submit_us", "us", Kind::Median),
    m("service.server_ms", "ms", Kind::Median),
    m("service.handoff_ms", "ms", Kind::Median),
    m("service.shed", "count", Kind::PerPass),
    m("service.failed", "count", Kind::PerPass),
    m("diagnostics.rendered", "count", Kind::PerOp),
];

/// Layers whose self time the traced run reports (`self_ms.<layer>`).
pub const SELF_LAYERS: &[&str] = &[
    "bench",
    "driver",
    "front",
    "core",
    "codegen",
    "vm.prepare",
    "vm.run",
    "session",
    "service",
    "service.server",
];

// ---------------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------------

/// The oracle path: a one-shot Mega-mode compile run on the reference VM.
fn oracle_output(units: &[(String, String)]) -> String {
    let sources: Vec<(&str, &str)> = units
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    let compiled = compile_sources(&sources, &CompilerOptions::mega())
        .unwrap_or_else(|e| panic!("oracle compile failed: {e}"));
    let mut vm = Vm::with_options(&compiled.program, VmOptions::reference());
    if let Err(e) = vm.run_main() {
        panic!("oracle run failed: {e:?}");
    }
    render_output(&vm.out)
}

/// Applies an edit to a name-sorted unit list.
fn apply(units: &mut [(String, String)], unit: &str, src: &str) {
    let slot = units
        .iter_mut()
        .find(|(n, _)| n == unit)
        .expect("edits only touch existing units");
    slot.1 = src.to_owned();
}

/// Runs `main` on the fast VM; its output, or `None` when it fails.
fn run_program(run: &mut Run, program: &Program) -> Option<String> {
    let op = run.cur_op();
    let sp = run.tracer.enter("Vm::new", "vm.prepare", op);
    let (mut vm, prep) = timed(|| Vm::new(program));
    run.tracer.exit(sp);
    let sr = run.tracer.enter("run_main", "vm.run", op);
    let (res, exec) = timed(|| vm.run_main());
    run.tracer.exit(sr);
    run.sample_dur("vm.prepare_ms", prep);
    run.sample_dur("vm.run_ms", exec);
    let s = vm.stats;
    run.add("vm.insns_retired", s.insns_retired);
    run.add("vm.fused_retired", s.fused_retired);
    run.add("vm.ic_hits", s.ic_hits);
    run.add("vm.ic_lookups", s.ic_hits + s.ic_misses);
    let peak = run.counts.get("vm.peak_frames").copied().unwrap_or(0);
    run.set("vm.peak_frames", peak.max(s.peak_frames));
    res.ok().map(|_| render_output(&vm.out))
}

/// Lays the stage times of a compile out as child spans of `parent` and
/// records their per-op samples and the executor counters.
fn record_compile(run: &mut Run, parent: SpanId, c: &Compiled) {
    let t: StageTimes = c.times;
    let mut at = run.tracer.start_of(parent);
    at = run
        .tracer
        .child(parent, "frontend", "front", at, t.frontend);
    at = run
        .tracer
        .child(parent, "transforms", "core", at, t.transforms);
    run.tracer
        .child(parent, "codegen", "codegen", at, t.backend);
    run.sample_dur("front.ms", t.frontend);
    run.sample_dur("core.transform_ms", t.transforms);
    run.sample_dur("codegen.ms", t.backend);
    run.add("front.units", c.recompiled_units as u64);
    run.add("core.node_visits", c.exec.node_visits);
    run.add("core.nodes_pruned", c.exec.nodes_pruned);
    run.add("core.transform_calls", c.exec.transform_calls);
    run.add("core.traversals", c.exec.traversals);
    run.add("analysis.nodes_eliminated", c.exec.nodes_eliminated);
    run.add("analysis.findings", c.findings.len() as u64);
    run.set("code_insns", c.program.code_size() as u64);
}

// ---------------------------------------------------------------------------
// batch: one-shot compile of the stdlib-like corpus.
// ---------------------------------------------------------------------------

fn batch_config(seed: u64) -> workload::WorkloadConfig {
    workload::WorkloadConfig {
        seed: mix(seed ^ 0xba7c),
        ..workload::WorkloadConfig::stdlib_like()
    }
}

fn batch_setup(seed: u64) -> workload::Workload {
    workload::generate(&batch_config(seed))
}

fn batch_oracle(seed: u64) -> Vec<String> {
    vec![oracle_output(&batch_setup(seed).units)]
}

fn batch_pass(run: &mut Run) {
    let (corpus, setup) = timed(|| batch_setup(run.seed));
    run.setup_s.push(setup.as_secs_f64());
    let sources = corpus.sources();
    for i in 0..BATCH_COMPILES {
        let op = run.begin_op();
        let span = run.tracer.enter("compile_sources", "driver", op);
        let (res, d) = timed(|| compile_sources(&sources, &CompilerOptions::fused()));
        run.tracer.exit(span);
        run.op(d);
        if i == 0 {
            run.cold_ms.push(d.as_secs_f64() * 1e3);
        }
        match res {
            Ok(c) => {
                record_compile(run, span, &c);
                run.add("ir.nodes_allocated", c.ctx.stats.nodes);
                run.add("ir.bytes_allocated", c.ctx.stats.bytes);
                // The output check is not part of the op.
                let out = run.untraced(|run| run_program(run, &c.program));
                run.check(0, out.as_deref());
            }
            Err(_) => run.check(0, None),
        }
    }
}

// ---------------------------------------------------------------------------
// exec: repeated execution of one compiled program.
// ---------------------------------------------------------------------------

fn exec_config(seed: u64) -> workload::ExecConfig {
    workload::ExecConfig {
        seed: mix(seed ^ 0xe8ec),
        ..workload::ExecConfig::exec_bench()
    }
}

fn exec_setup(seed: u64) -> Program {
    let corpus = workload::generate_exec(&exec_config(seed));
    compile_sources(&corpus.sources(), &CompilerOptions::fused())
        .expect("exec corpus compiles")
        .program
}

fn exec_oracle(seed: u64) -> Vec<String> {
    vec![oracle_output(
        &workload::generate_exec(&exec_config(seed)).units,
    )]
}

fn exec_pass(run: &mut Run) {
    let (program, setup) = timed(|| exec_setup(run.seed));
    run.setup_s.push(setup.as_secs_f64());
    run.set("code_insns", program.code_size() as u64);
    for i in 0..EXEC_RUNS {
        let op = run.begin_op();
        let span = run.tracer.enter("op", "bench", op);
        let (out, d) = timed(|| run_program(run, &program));
        run.tracer.exit(span);
        run.op(d);
        if i == 0 {
            run.cold_ms.push(d.as_secs_f64() * 1e3);
        }
        run.check(0, out.as_deref());
    }
}

// ---------------------------------------------------------------------------
// edit: a CompileSession replaying a seeded edit series.
// ---------------------------------------------------------------------------

/// The linked corpora are fixed; the seed orders the edits.
fn linked_config(units: usize) -> LinkedConfig {
    LinkedConfig {
        units,
        ..LinkedConfig::incr_bench()
    }
}

/// A seed-ordered series that edits every linked unit exactly once. Units
/// whose id ends in 0, 1 or 2 toggle their exported signature (30% of the
/// edits); the rest change a body constant by a seed-drawn amount. Every
/// seed thus does the same mix of body and signature work, in a different
/// order and with different program outputs. `salt_base` keeps the edits of
/// different service tenants distinct.
fn stratified_edits(cfg: &LinkedConfig, seed: u64, salt_base: u64) -> Vec<Edit> {
    let mut order: Vec<usize> = (0..cfg.units).collect();
    let mut state = mix(seed ^ salt_base);
    for i in (1..order.len()).rev() {
        state = mix(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
        .into_iter()
        .map(|uid| {
            let (kind, salt, variant) = if uid % 10 < 3 {
                (EditKind::Signature, salt_base, 1)
            } else {
                let salt = salt_base + 1 + mix(seed ^ uid as u64) % 7;
                (EditKind::Body, salt, 0)
            };
            Edit {
                unit: workload::linked_unit_name(uid),
                kind,
                source: workload::linked_unit_source(cfg, uid, salt, variant),
            }
        })
        .collect()
}

fn edit_script(seed: u64) -> EditScript {
    let cfg = linked_config(EDIT_UNITS);
    EditScript {
        base: workload::generate_linked(&cfg),
        edits: stratified_edits(&cfg, seed, 0),
    }
}

fn edit_setup(seed: u64) -> (EditScript, CompileSession) {
    let script = edit_script(seed);
    let mut session = CompileSession::new(CompilerOptions::fused());
    for (name, src) in &script.base.units {
        session.update(name.clone(), src.clone());
    }
    (script, session)
}

/// State 0 is the base corpus; state `i` follows edit `i`.
fn edit_oracle(seed: u64) -> Vec<String> {
    let script = edit_script(seed);
    let mut units = script.base.units.clone();
    let mut out = vec![oracle_output(&units)];
    for e in &script.edits {
        apply(&mut units, &e.unit, &e.source);
        out.push(oracle_output(&units));
    }
    out
}

/// One session compile plus the program run, checked against oracle state
/// `state`.
fn edit_step(run: &mut Run, session: &mut CompileSession, state: usize) {
    let op = run.cur_op();
    let span = run.tracer.enter("CompileSession::compile", "session", op);
    let (res, d) = timed(|| session.compile());
    run.tracer.exit(span);
    run.sample_dur("session.compile_ms", d);
    match res {
        Ok(c) => {
            run.sample_dur("session.splice_ms", d.saturating_sub(c.times.total()));
            record_compile(run, span, &c);
            run.add("session.units_reused", c.reused_units as u64);
            run.add(
                "session.units_total",
                (c.reused_units + c.recompiled_units) as u64,
            );
            run.add("session.units_recompiled", c.recompiled_units as u64);
            let out = run_program(run, &c.program);
            run.check(state, out.as_deref());
        }
        Err(_) => run.check(state, None),
    }
}

fn edit_pass(run: &mut Run) {
    let mut fresh = None;
    for _ in 0..COLD_STARTS {
        // The previous start's session is dropped first, untimed.
        drop(fresh.take());
        let ((script, mut session), setup) = timed(|| edit_setup(run.seed));
        run.setup_s.push(setup.as_secs_f64());
        // A cold compile is not an op: drop the per-op samples and counters
        // it recorded.
        let samples = run.samples.clone();
        run.begin_op();
        let t = Instant::now();
        run.untraced(|run| edit_step(run, &mut session, 0));
        run.cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
        run.samples = samples;
        run.counts.clear();
        fresh = Some((script, session));
    }
    let (script, mut session) = fresh.expect("at least one cold start");
    run.set(
        "session.symbols_cold",
        session.memory_footprint().symbol_count,
    );
    let deps_before = session.cache_stats().invalidated_by_deps;

    let mut lat = Vec::with_capacity(script.edits.len());
    for (i, e) in script.edits.iter().enumerate() {
        let op = run.begin_op();
        let span = run.tracer.enter("op", "bench", op);
        let t = Instant::now();
        let su = run.tracer.enter("CompileSession::update", "session", op);
        session.update(e.unit.clone(), e.source.clone());
        run.tracer.exit(su);
        edit_step(run, &mut session, i + 1);
        let d = t.elapsed();
        run.tracer.exit(span);
        run.op(d);
        lat.push(d.as_secs_f64() * 1e3);
        match e.kind {
            EditKind::Body => run.sample_dur("session.body_edit_ms", d),
            EditKind::Signature => run.sample_dur("session.sig_edit_ms", d),
        }
    }
    let cache = session.cache_stats();
    run.set(
        "session.invalidated_by_deps",
        cache.invalidated_by_deps - deps_before,
    );
    run.set("session.symbols", session.memory_footprint().symbol_count);
    // Growth over the series: mean latency of the last fifth of edits
    // over the first fifth.
    let fifth = (lat.len() / 5).max(1);
    let first = lat[..fifth].iter().sum::<f64>() / fifth as f64;
    let last = lat[lat.len() - fifth..].iter().sum::<f64>() / fifth as f64;
    run.sample("session.drift_first_ms", first);
    run.sample("session.drift_last_ms", last);
    run.sample("session.drift_ratio", last / first);
}

// ---------------------------------------------------------------------------
// service: two tenants, one request in flight, round-robin.
// ---------------------------------------------------------------------------

fn service_opts() -> CompilerOptions {
    CompilerOptions::fused().with_lint(true).with_dce(true)
}

/// Tenant `c`'s stream: its `client_series` base corpus (the shared linked
/// units plus a private unit), then every shared unit edited once as in
/// [`stratified_edits`], with every fifth edit touching the private unit.
fn service_scripts(seed: u64) -> Vec<EditScript> {
    let cfg = linked_config(SERVICE_UNITS);
    (0..SERVICE_TENANTS)
        .map(|c| {
            let mut shared = stratified_edits(&cfg, seed, 1000 * c as u64).into_iter();
            let mut private_salt = 0;
            let edits = (0..SERVICE_EDITS)
                .map(|i| {
                    if i % SERVICE_PRIVATE_EVERY == SERVICE_PRIVATE_EVERY - 1 {
                        private_salt += 1;
                        Edit {
                            unit: workload::client_unit_name(c),
                            kind: EditKind::Body,
                            source: workload::client_unit_source(c, private_salt),
                        }
                    } else {
                        shared.next().expect("one edit per shared unit")
                    }
                })
                .collect();
            EditScript {
                base: workload::client_series(&cfg, c, 0, 0).base,
                edits,
            }
        })
        .collect()
}

fn tenant(c: usize) -> String {
    format!("tenant{c}")
}

fn service_setup(seed: u64) -> (Vec<EditScript>, CompileService) {
    let scripts = service_scripts(seed);
    let mut svc = CompileService::new(ServiceConfig::new(service_opts()));
    for c in 0..SERVICE_TENANTS {
        svc.add_tenant(tenant(c)).expect("fresh tenant");
    }
    (scripts, svc)
}

/// Tenant `c`'s states occupy `c * (SERVICE_EDITS + 1) ..`: its base
/// corpus, then one state per edit.
fn service_state(c: usize, step: usize) -> usize {
    c * (SERVICE_EDITS + 1) + step
}

fn service_oracle(seed: u64) -> Vec<String> {
    let mut out = Vec::new();
    for script in service_scripts(seed) {
        let mut units = script.base.units.clone();
        out.push(oracle_output(&units));
        for e in &script.edits {
            apply(&mut units, &e.unit, &e.source);
            out.push(oracle_output(&units));
        }
    }
    out
}

/// The request a tenant sends at `step`: its whole base corpus first, then
/// one edit per request.
fn service_request(script: &EditScript, step: usize) -> CompileRequest {
    let mut req = CompileRequest::new();
    if step == 0 {
        for (n, s) in &script.base.units {
            req = req.edit(n.clone(), s.clone());
        }
    } else {
        let e = &script.edits[step - 1];
        req = req.edit(e.unit.clone(), e.source.clone());
    }
    req.running_main()
}

/// Submits one request and waits for it; returns the client latency.
fn service_call(
    run: &mut Run,
    svc: &CompileService,
    scripts: &[EditScript],
    c: usize,
    step: usize,
) -> Duration {
    let req = service_request(&scripts[c], step);
    let name = tenant(c);
    let op = run.begin_op();
    let span = run.tracer.enter("request", "bench", op);
    let t = Instant::now();
    let ss = run.tracer.enter("CompileService::submit", "service", op);
    let (ticket, submit) = timed(|| svc.submit(&name, req));
    run.tracer.exit(ss);
    let (resp, client) = match ticket {
        Ok(ticket) => {
            let sw = run.tracer.enter("Ticket::wait", "service", op);
            let resp = ticket.wait();
            run.tracer.exit(sw);
            let client = t.elapsed();
            if let Ok(r) = &resp {
                // The server's own latency nests inside the wait.
                let wait_end = run.tracer.start_of(sw) + (client - submit);
                let at = wait_end
                    .saturating_sub(r.latency)
                    .max(run.tracer.start_of(sw));
                run.tracer.child(
                    sw,
                    "server",
                    "service.server",
                    at,
                    wait_end.saturating_sub(at),
                );
            }
            (resp.ok(), client)
        }
        Err(_) => (None, t.elapsed()),
    };
    run.tracer.exit(span);
    run.sample("service.submit_us", submit.as_secs_f64() * 1e6);
    match resp {
        Some(r) => {
            run.sample_dur("service.server_ms", r.latency);
            run.sample_dur("service.handoff_ms", client.saturating_sub(r.latency));
            run.add("diagnostics.rendered", r.diagnostics.len() as u64);
            run.add("session.units_reused", r.reused_units as u64);
            run.add(
                "session.units_total",
                (r.reused_units + r.recompiled_units) as u64,
            );
            run.add("session.units_recompiled", r.recompiled_units as u64);
            let out = r.output.as_ref().map(|lines| render_output(lines));
            run.check(service_state(c, step), out.as_deref());
        }
        None => run.check(service_state(c, step), None),
    }
    client
}

fn service_pass(run: &mut Run) {
    // Tenant 0's first request is the cold start. Its latency samples are
    // dropped. The service counters are per request, so on the service the
    // pass keeps it counts as one; earlier starts are rolled back. Tenant
    // 1's first request is an ordinary op, served largely from tenant 0's
    // store publishes.
    let mut fresh: Option<(Vec<EditScript>, CompileService)> = None;
    for start in 0..COLD_STARTS {
        if let Some((_, old)) = fresh.take() {
            old.drain();
        }
        let ((scripts, svc), setup) = timed(|| service_setup(run.seed));
        run.setup_s.push(setup.as_secs_f64());
        let (samples, counts) = (run.samples.clone(), run.counts.clone());
        let cold = run.untraced(|run| service_call(run, &svc, &scripts, 0, 0));
        run.cold_ms.push(cold.as_secs_f64() * 1e3);
        run.samples = samples;
        if start + 1 < COLD_STARTS {
            run.counts = counts;
        }
        fresh = Some((scripts, svc));
    }
    let (scripts, svc) = fresh.expect("at least one cold start");
    run.add("ops", 1);
    for step in 0..=SERVICE_EDITS {
        for c in 0..SERVICE_TENANTS {
            if (c, step) == (0, 0) {
                continue;
            }
            let d = service_call(run, &svc, &scripts, c, step);
            run.op(d);
        }
    }

    let stats = svc.stats();
    let report = svc.drain();
    let mut findings = 0;
    let mut vm = VmStats::default();
    for t in report.tenants.values() {
        run.add("service.shed", t.shed());
        run.add("service.failed", t.failed());
        findings += t.findings_reported;
        vm.insns_retired += t.vm_insns_retired;
        vm.ic_hits += t.vm_ic_hits;
        vm.ic_misses += t.vm_ic_misses;
        vm.peak_frames = vm.peak_frames.max(t.vm_peak_frames);
    }
    run.set("analysis.findings", findings);
    run.set("vm.insns_retired", vm.insns_retired);
    run.set("vm.ic_hits", vm.ic_hits);
    run.set("vm.ic_lookups", vm.ic_hits + vm.ic_misses);
    run.set("vm.peak_frames", vm.peak_frames);
    // The service returns no program; compile the last-served state once,
    // untimed, with the tenant options to count its instructions.
    let last = &scripts[SERVICE_TENANTS - 1];
    let mut units = last.base.units.clone();
    for e in &last.edits {
        apply(&mut units, &e.unit, &e.source);
    }
    let sources: Vec<(&str, &str)> = units
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    let program = compile_sources(&sources, &service_opts()).expect("final state compiles");
    run.set("code_insns", program.program.code_size() as u64);
    let store = &report.store;
    run.set("store.hits", store.hits);
    run.set("store.lookups", store.hits + store.misses);
    run.set("store.publishes", store.publishes);
    run.set("store.bytes", stats.store.bytes);
}

/// The service does not return executor counters, so a traced run replays
/// tenant 0's request stream through a private session with the same
/// options to count what DCE eliminates.
fn service_mirror(run: &mut Run) {
    let scripts = service_scripts(run.seed);
    let mut session = CompileSession::new(service_opts());
    let mut eliminated = 0;
    let mut requests = 0u64;
    for step in 0..=SERVICE_EDITS {
        for (name, src) in service_request(&scripts[0], step).edits {
            session.update(name, src.expect("requests only upsert"));
        }
        let c = session.compile().expect("mirror compile succeeds");
        eliminated += c.exec.nodes_eliminated;
        requests += 1;
    }
    // Per request, in the same unit as the pass counters divided by ops.
    let ops = run.passes[0].get("ops").copied().unwrap_or(1);
    for pass in &mut run.passes {
        pass.insert("analysis.nodes_eliminated", eliminated * ops / requests);
    }
}
