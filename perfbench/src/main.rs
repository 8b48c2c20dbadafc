//! `perfbench` — the repository's end-to-end benchmark harness.
//!
//! Two subcommands, each run in its own process by `perfbench/run.py`:
//!
//! ```text
//! perfbench oracle  --workload W --seed N --out FILE
//! perfbench measure --workload W --seed N --passes P --trace 0|1 --calibrate 0|1
//!                   --expect FILE [--spans FILE]
//! ```
//!
//! `oracle` writes the expected program output of every op state of the
//! workload, produced by the oracle path (a one-shot Mega-mode compile run
//! on the reference VM), one hex-encoded line per state. `measure` runs the
//! workload on the timed path (fused pipeline, fast VM), compares every
//! op's output byte-for-byte against that file, and prints one JSON object
//! as its last line: raw samples (including [`calibrate`] times taken
//! between passes, or else the process's peak memory), per-layer metrics,
//! the exact work counts of one pass and the oracle tally.
//!
//! A run is a sequence of *passes*. A pass is a fresh setup followed by a
//! fixed, seed-determined op script, so every pass does identical work.
//! The pass count is fixed too (the caller derives it from the run length),
//! so a process's history, and with it the allocator's state at each pass,
//! is the same in every run. Work counters must agree across passes (the
//! exact-count guard). With `--trace 1` passes alternate untraced/traced:
//! per-layer numbers and spans come from the traced ones, and the tracing
//! overhead is traced minus untraced op p50.

mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Work counters of one pass, keyed by metric name.
pub type Counts = BTreeMap<&'static str, u64>;

/// Calibrations before each pass and after the last.
const CALIBRATIONS: usize = 3;

/// Counters that must repeat exactly across passes and runs of one seed.
pub const EXACT: &[&str] = &[
    "code_insns",
    "core.node_visits",
    "vm.insns_retired",
    "store.hits",
    "session.units_recompiled",
    "analysis.findings",
];

/// Everything one `measure` run records.
pub struct Run {
    pub seed: u64,
    pub tracer: Tracer,
    /// Expected output per op state (from the oracle process).
    pub expected: Vec<String>,
    pub setup_s: Vec<f64>,
    pub cold_ms: Vec<f64>,
    /// Op latencies of untraced passes (the end-to-end numbers).
    pub op_ms: Vec<f64>,
    /// Op latencies of traced passes (tracing overhead only).
    pub traced_op_ms: Vec<f64>,
    pub attempted: u64,
    pub matched: u64,
    /// Per-op samples of per-layer times and per-pass ratios.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Counters of each completed pass.
    pub passes: Vec<Counts>,
    /// Counters of the pass in progress.
    pub counts: Counts,
    /// First mismatching op, for the error report.
    pub first_miss: Option<String>,
    next_op: u64,
}

impl Run {
    fn new(seed: u64, expected: Vec<String>) -> Run {
        Run {
            seed,
            tracer: Tracer::new(),
            expected,
            setup_s: Vec::new(),
            cold_ms: Vec::new(),
            op_ms: Vec::new(),
            traced_op_ms: Vec::new(),
            attempted: 0,
            matched: 0,
            samples: BTreeMap::new(),
            passes: Vec::new(),
            counts: Counts::new(),
            first_miss: None,
            next_op: 0,
        }
    }

    /// Starts a new op for span attribution and returns its id.
    pub fn begin_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// The id of the op in progress.
    pub fn cur_op(&self) -> u64 {
        self.next_op
    }

    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn sample_dur(&mut self, name: &'static str, d: Duration) {
        self.sample(name, d.as_secs_f64() * 1e3);
    }

    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.counts.entry(name).or_insert(0) += v;
    }

    pub fn set(&mut self, name: &'static str, v: u64) {
        self.counts.insert(name, v);
    }

    /// Runs `f` with span recording paused: for work that is not part of
    /// an op (output checks, cold starts), so per-op self times stay per op.
    pub fn untraced<T>(&mut self, f: impl FnOnce(&mut Run) -> T) -> T {
        let on = self.tracer.is_on();
        self.tracer.set_on(false);
        let v = f(self);
        self.tracer.set_on(on);
        v
    }

    /// Records one op latency (untraced and traced passes kept apart).
    pub fn op(&mut self, d: Duration) {
        let ms = d.as_secs_f64() * 1e3;
        if self.tracer.is_on() {
            self.traced_op_ms.push(ms);
        } else {
            self.op_ms.push(ms);
        }
        self.add("ops", 1);
    }

    /// Checks one op's program output against the oracle's for `state`.
    pub fn check(&mut self, state: usize, got: Option<&str>) {
        self.attempted += 1;
        let ok = matches!((got, self.expected.get(state)), (Some(g), Some(e)) if g == e);
        if ok {
            self.matched += 1;
        } else if self.first_miss.is_none() {
            self.first_miss = Some(format!(
                "op state {state}: expected {:?}, got {:?}",
                self.expected.get(state),
                got
            ));
        }
    }

    fn end_pass(&mut self) {
        self.passes.push(std::mem::take(&mut self.counts));
    }
}

/// Joins a program's captured output the way the oracle file stores it.
pub fn render_output(lines: &[String]) -> String {
    lines.join("\n")
}

/// Times `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

/// SplitMix64: derives independent generator seeds from the run seed.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Linear-interpolated quantile of unsorted samples (0.0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Times a fixed workload that belongs to the harness, not to the
/// compiler: build, walk and free a tree of 350k heap nodes, chase 512k
/// dependent reads through an 8 MiB table, then run a branchy integer loop.
/// It does the same kinds of work as the compiler and the VM (allocation,
/// pointer chasing, cache misses, data-dependent branches), so its time
/// tracks how fast the host currently runs them. Returns ms.
fn calibrate() -> f64 {
    struct Node {
        val: u64,
        kids: Vec<Node>,
    }
    fn build(state: &mut u64, depth: u32) -> Node {
        *state = mix(*state);
        let kids = if depth == 0 {
            Vec::new()
        } else {
            (0..4).map(|_| build(state, depth - 1)).collect()
        };
        Node { val: *state, kids }
    }
    fn walk(n: &Node) -> u64 {
        n.kids
            .iter()
            .map(walk)
            .fold(n.val.rotate_left(7), u64::wrapping_add)
    }
    const TABLE: usize = 1 << 20;
    let t = Instant::now();
    let mut state = 0x5eed;
    let tree = build(&mut state, 9);
    let mut acc = walk(&tree);
    drop(tree);
    let table: Vec<u64> = (0..TABLE as u64).map(mix).collect();
    let mut i = 0usize;
    for _ in 0..TABLE / 2 {
        i = table[i] as usize % TABLE;
        acc = acc.wrapping_add(i as u64);
    }
    for n in 1..40_000u64 {
        let mut x = n ^ (acc & 1);
        while x > 1 {
            x = if x.is_multiple_of(2) {
                x / 2
            } else {
                3 * x + 1
            };
            acc = acc.wrapping_add(1);
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn hex(s: &str) -> String {
    s.bytes().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Option<String> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let bytes: Option<Vec<u8>> = (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect();
    String::from_utf8(bytes?).ok()
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

struct Args {
    cmd: String,
    workload: String,
    seed: u64,
    passes: usize,
    trace: bool,
    calibrate: bool,
    expect: Option<String>,
    out: Option<String>,
    spans: Option<String>,
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let cmd = it
        .next()
        .unwrap_or_else(|| die("missing subcommand (oracle|measure)"));
    let mut a = Args {
        cmd,
        workload: String::new(),
        seed: 1,
        passes: 1,
        trace: false,
        calibrate: true,
        expect: None,
        out: None,
        spans: None,
    };
    while let Some(flag) = it.next() {
        let v = it
            .next()
            .unwrap_or_else(|| die(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => {
                a.seed = v
                    .parse()
                    .unwrap_or_else(|_| die("--seed must be an integer"))
            }
            "--passes" => {
                a.passes = match v.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => die("--passes must be a positive integer"),
                }
            }
            "--trace" => a.trace = v == "1",
            "--calibrate" => a.calibrate = v == "1",
            "--expect" => a.expect = Some(v),
            "--out" => a.out = Some(v),
            "--spans" => a.spans = Some(v),
            other => die(&format!("unknown flag {other}")),
        }
    }
    a
}

fn main() {
    let args = parse_args();
    let wl = workloads::find(&args.workload)
        .unwrap_or_else(|| die(&format!("unknown workload `{}`", args.workload)));
    match args.cmd.as_str() {
        "oracle" => {
            let out = args.out.unwrap_or_else(|| die("oracle needs --out"));
            let states = (wl.oracle)(args.seed);
            let body: String = states.iter().map(|s| hex(s) + "\n").collect();
            std::fs::write(&out, body).unwrap_or_else(|e| die(&format!("write {out}: {e}")));
        }
        "measure" => measure(&args, wl),
        other => die(&format!("unknown subcommand `{other}`")),
    }
}

fn measure(args: &Args, wl: &workloads::Workload) {
    let path = args
        .expect
        .as_deref()
        .unwrap_or_else(|| die("measure needs --expect"));
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
    let expected: Vec<String> = text
        .lines()
        .map(|l| unhex(l).unwrap_or_else(|| die("malformed oracle file")))
        .collect();
    let mut run = Run::new(args.seed, expected);

    // Set-up is timed on its own, several times, so its median is steady.
    for _ in 0..workloads::SETUP_REPS {
        let t = Instant::now();
        (wl.setup_only)(&mut run);
        run.setup_s.push(t.elapsed().as_secs_f64());
    }
    // Calibrate before each pass and after the last, in this process: its
    // speed differs from other processes' by several percent, and only a
    // calibration inside it tracks that. The calibration leaves freed heap
    // behind, so a calibrating process does not report its peak memory.
    let mut calib_ms = Vec::new();
    for pass in 0..=args.passes {
        if args.calibrate {
            calib_ms.extend((0..CALIBRATIONS).map(|_| calibrate()));
        }
        if pass < args.passes {
            run.tracer.set_on(args.trace && pass % 2 == 1);
            (wl.pass)(&mut run);
            run.end_pass();
        }
    }
    let peak_rss = if args.calibrate { 0.0 } else { peak_rss_mb() };
    run.tracer.set_on(false);
    if args.trace {
        (wl.trace_extras)(&mut run);
    }

    let guard_ok = run.passes.windows(2).all(|w| w[0] == w[1]);
    let first = run.passes[0].clone();
    let ops_per_pass = first.get("ops").copied().unwrap_or(1).max(1) as f64;

    // Per-layer metrics of this process (traced runs only); end-to-end
    // metrics are pooled over processes by the caller from the raw samples.
    let mut layers: Vec<(String, f64, &'static str, usize)> = Vec::new();
    if args.trace {
        for spec in workloads::LAYER_METRICS {
            let (value, n) = match spec.kind {
                workloads::Kind::Median => run
                    .samples
                    .get(spec.name)
                    .map_or((0.0, 0), |v| (median(v), v.len())),
                workloads::Kind::PerOp => (
                    first.get(spec.name).copied().unwrap_or(0) as f64 / ops_per_pass,
                    run.passes.len(),
                ),
                workloads::Kind::PerPass => (
                    first.get(spec.name).copied().unwrap_or(0) as f64,
                    run.passes.len(),
                ),
                workloads::Kind::Ratio(num, den) => {
                    let d = first.get(den).copied().unwrap_or(0);
                    let q = if d == 0 {
                        0.0
                    } else {
                        first.get(num).copied().unwrap_or(0) as f64 / d as f64
                    };
                    (q, run.passes.len())
                }
            };
            layers.push((spec.name.into(), value, spec.unit, n));
        }
        let self_ms = run.tracer.self_ms_by_layer();
        let traced_ops = run.traced_op_ms.len();
        for layer in workloads::SELF_LAYERS {
            let total = self_ms
                .iter()
                .find(|(l, _)| l == layer)
                .map_or(0.0, |(_, ms)| *ms);
            let per_op = total / traced_ops.max(1) as f64;
            layers.push((format!("self_ms.{layer}"), per_op, "ms", traced_ops));
        }
        layers.push((
            "trace.spans".into(),
            run.tracer.spans.len() as f64,
            "count",
            1,
        ));
        if let Some(path) = &args.spans {
            std::fs::write(path, run.tracer.to_jsonl())
                .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        }
    }

    let list = |xs: &[f64]| {
        let items: Vec<String> = xs.iter().map(|x| format!("{x}")).collect();
        format!("[{}]", items.join(","))
    };
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"passes\":{},\"attempted\":{},\"matched\":{},\"guard_ok\":{},\"peak_rss_mb\":{}",
        wl.name,
        args.seed,
        args.trace as u8,
        run.passes.len(),
        run.attempted,
        run.matched,
        guard_ok,
        peak_rss
    );
    let exact: Vec<String> = EXACT
        .iter()
        .map(|k| format!("\"{k}\":{}", first.get(k).copied().unwrap_or(0)))
        .collect();
    let _ = write!(json, ",\"exact\":{{{}}}", exact.join(","));
    let _ = write!(
        json,
        ",\"raw\":{{\"calib_ms\":{},\"setup_s\":{},\"cold_ms\":{},\"op_ms\":{},\"traced_op_ms\":{}}}",
        list(&calib_ms),
        list(&run.setup_s),
        list(&run.cold_ms),
        list(&run.op_ms),
        list(&run.traced_op_ms)
    );
    let ls: Vec<String> = layers
        .iter()
        .map(|(name, v, unit, n)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\",\"n\":{n}}}")
        })
        .collect();
    let _ = write!(json, ",\"layers\":{{{}}}", ls.join(","));
    if let Some(miss) = &run.first_miss {
        let _ = write!(json, ",\"first_miss\":\"{}\"", miss.escape_default());
    }
    if !guard_ok {
        let varied: Vec<String> = run.passes[0]
            .iter()
            .filter(|(k, v)| run.passes.iter().any(|p| p.get(*k) != Some(v)))
            .map(|(k, _)| format!("\"{k}\""))
            .collect();
        let _ = write!(json, ",\"varied\":[{}]", varied.join(","));
    }
    json.push('}');
    println!("{json}");
}
