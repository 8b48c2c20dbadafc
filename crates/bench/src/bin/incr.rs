//! `incr` — the incremental-compilation benchmark.
//!
//! Compares three request shapes of the service workload over a linked
//! corpus (units with cross-unit dependencies):
//!
//! * **cold** — a full `CompileSession` compile from empty caches (the
//!   one-shot baseline every request used to pay);
//! * **warm body edit** — one unit's definition *bodies* change: the
//!   session must recompile **exactly that unit** and splice the other
//!   `N − 1` from cache;
//! * **warm signature edit** — one unit's exported interface changes: the
//!   session recompiles the edited unit plus its (transitive) dependents.
//!
//! ```text
//! cargo run --release -p bench --bin incr -- [UNITS] [REPS]
//! cargo run --release -p bench --bin incr -- --scale [REPS]
//! ```
//!
//! Defaults: 16 units, 5 reps (median reported). The run **fails** (exit 1)
//! if a warm body edit recompiles anything but exactly 1 unit, or if a warm
//! signature edit fails to cascade — the cache-correctness smoke CI relies
//! on. Wall-clock numbers are recorded to `BENCH_incremental.json` when
//! `INCR_JSON` names a path.
//!
//! `--scale` measures the same three shapes plus a one-shot
//! `compile_sources` of the same corpus at 8, 16, 32 and 64 linked units
//! (default 3 reps, medians) and records the table under the `scale` key
//! of `BENCH_incremental.json` (or of the file `INCR_JSON` names), leaving
//! every other key as it is. It **fails** if the cold-session / one-shot
//! ratio at 64 units exceeds twice its value at 8 units: a cold session
//! must cost per unit what a one-shot compile does, whatever the corpus
//! size.

use mini_driver::{compile_sources, CompileSession, CompilerOptions};
use std::time::{Duration, Instant};
use workload::{generate_linked, linked_unit_name, linked_unit_source, LinkedConfig};

fn usage_exit(msg: &str) -> ! {
    eprintln!(
        "{msg}\nusage: incr [UNITS] [REPS]   (positive integers; defaults 16 and 5)\n       \
         incr --scale [REPS]     (positive integer; default 3)"
    );
    std::process::exit(2);
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// How many units a signature edit of `unit0000` must recompile: unit 0,
/// its *direct* dependents, and the driver (`zmain.ms`, which calls every
/// unit). Indirect dependents stay cached — their direct deps' interfaces
/// are untouched by the edit, which is exactly the non-cascade the
/// interface hash buys.
fn signature_cascade_size(cfg: &LinkedConfig) -> usize {
    let direct = (1..cfg.units)
        .filter(|&uid| workload::linked_deps(cfg, uid).contains(&0))
        .count();
    direct + 2 // + unit0000 itself + zmain.ms
}

/// One full measurement pass; returns (cold, warm-body, warm-sig) times,
/// the dependent count the signature edit cascaded to, and the session's
/// cache bookkeeping.
fn run_once(
    cfg: &LinkedConfig,
    body_salt: u64,
) -> (Duration, Duration, Duration, usize, mini_driver::CacheStats) {
    let opts = CompilerOptions::fused();
    let base = generate_linked(cfg);

    // Cold: fresh session, full compile.
    let mut session = CompileSession::new(opts);
    for (n, s) in &base.units {
        session.update(n.clone(), s.clone());
    }
    let t0 = Instant::now();
    let cold = session.compile().expect("cold compile succeeds");
    let cold_t = t0.elapsed();
    assert_eq!(cold.recompiled_units, base.units.len());

    // Warm body edit: a middle unit's bodies change.
    let body_uid = cfg.units / 2;
    session.update(
        linked_unit_name(body_uid),
        linked_unit_source(cfg, body_uid, body_salt, 0),
    );
    let t1 = Instant::now();
    let warm_body = session.compile().expect("warm body compile succeeds");
    let body_t = t1.elapsed();
    if warm_body.recompiled_units != 1 {
        eprintln!(
            "FAIL: warm body edit of {} recompiled {} units (expected exactly 1; reused {})",
            linked_unit_name(body_uid),
            warm_body.recompiled_units,
            warm_body.reused_units
        );
        std::process::exit(1);
    }

    // Warm signature edit: unit 0 (the most depended-on) toggles its
    // exported helper's arity.
    session.update(linked_unit_name(0), linked_unit_source(cfg, 0, 0, 1));
    let t2 = Instant::now();
    let warm_sig = session.compile().expect("warm signature compile succeeds");
    let sig_t = t2.elapsed();
    // Dependency-aware invalidation must recompile *exactly* the transitive
    // dependents of unit 0 (plus unit 0 itself and the driver, which calls
    // every unit) — the dep graph is deterministic, so the expected cascade
    // is computable, and both under- and over-invalidation are failures.
    let expected = signature_cascade_size(cfg);
    if warm_sig.recompiled_units != expected {
        eprintln!(
            "FAIL: signature edit of unit0000 recompiled {} unit(s), expected exactly {} (the edited unit, its transitive dependents, and the driver)",
            warm_sig.recompiled_units, expected
        );
        std::process::exit(1);
    }
    (
        cold_t,
        body_t,
        sig_t,
        warm_sig.recompiled_units,
        session.cache_stats(),
    )
}

/// Corpus sizes `--scale` measures.
const SCALE_UNITS: [usize; 4] = [8, 16, 32, 64];

/// The largest cold-session / one-shot ratio growth `--scale` accepts
/// between its smallest and largest corpus.
const MAX_RATIO_GROWTH: f64 = 2.0;

/// Median one-shot compile of the corpus `cfg` describes, sources in unit
/// name order (a session's canonical order).
fn one_shot(cfg: &LinkedConfig) -> Duration {
    let mut units = generate_linked(cfg).units;
    units.sort();
    let sources: Vec<(&str, &str)> = units
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    let t = Instant::now();
    compile_sources(&sources, &CompilerOptions::fused()).expect("one-shot compile succeeds");
    t.elapsed()
}

/// Sets the top-level `key` of the JSON object `doc` to `value` (raw
/// JSON), keeping every other member's text as it is; appends the key when
/// it is absent.
fn upsert_json_key(doc: &str, key: &str, value: &str) -> String {
    let doc = doc.trim_end();
    assert!(
        doc.starts_with('{') && doc.ends_with('}'),
        "not a JSON object"
    );
    let quoted = format!("\"{key}\"");
    let bytes = doc.as_bytes();
    // Index one past the end of the JSON value starting at or after `from`.
    let value_end = |from: usize| {
        let (mut depth, mut in_str, mut j) = (0usize, false, from);
        while j < bytes.len() {
            match bytes[j] {
                b'\\' if in_str => j += 1,
                b'"' => in_str = !in_str,
                b'{' | b'[' if !in_str => depth += 1,
                b'}' | b']' if !in_str && depth > 0 => depth -= 1,
                b',' | b'}' if !in_str && depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        from + doc[from..j].trim_end().len()
    };
    // Walk the top-level members: key string, `:`, value, `,`.
    let mut i = 1;
    loop {
        i += doc[i..].len() - doc[i..].trim_start().len();
        if bytes[i] != b'"' {
            break;
        }
        let colon = i + doc[i..].find(':').expect("member has a value");
        let end = value_end(colon + 1);
        if doc[i..colon].trim_end() == quoted {
            return format!("{} {value}{}\n", &doc[..=colon], &doc[end..]);
        }
        i = end + doc[end..].find(|c: char| !c.is_whitespace()).unwrap_or(0);
        if bytes[i] == b',' {
            i += 1;
        }
    }
    let body = doc[..doc.len() - 1].trim_end();
    let sep = if body.ends_with('{') { "" } else { "," };
    format!("{body}{sep}\n  {quoted}: {value}\n}}\n")
}

/// `--scale`: cold session, one-shot, warm body and warm signature edit
/// over growing linked corpora; records the table and gates the
/// cold-session / one-shot ratio's growth.
fn scale(reps: usize) {
    println!(
        "incr --scale: linked corpora of {SCALE_UNITS:?} units, {reps} reps, fused pipeline, jobs=1"
    );
    println!("units    LOC   session cold   one-shot   ratio   body edit   sig edit");
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for units in SCALE_UNITS {
        let cfg = LinkedConfig {
            units,
            ..LinkedConfig::incr_bench()
        };
        let loc = generate_linked(&cfg).total_loc;
        let (mut colds, mut shots, mut bodies, mut sigs) = (vec![], vec![], vec![], vec![]);
        for rep in 0..reps {
            let (c, b, s, _, _) = run_once(&cfg, rep as u64 + 1);
            colds.push(c);
            bodies.push(b);
            sigs.push(s);
            shots.push(one_shot(&cfg));
        }
        let (cold, shot, body, sig) = (median(colds), median(shots), median(bodies), median(sigs));
        let ratio = ms(cold) / ms(shot);
        ratios.push(ratio);
        println!(
            "{units:>5} {loc:>6} {:>11.1} ms {:>7.1} ms {ratio:>6.2}x {:>8.1} ms {:>7.1} ms",
            ms(cold),
            ms(shot),
            ms(body),
            ms(sig)
        );
        rows.push(format!(
            "{{\"units\": {units}, \"corpus_loc\": {loc}, \"session_cold_ms\": {:.3}, \"one_shot_ms\": {:.3}, \"cold_over_one_shot\": {ratio:.3}, \"warm_body_edit_ms\": {:.3}, \"warm_signature_edit_ms\": {:.3}}}",
            ms(cold),
            ms(shot),
            ms(body),
            ms(sig)
        ));
    }
    let growth = ratios[ratios.len() - 1] / ratios[0];
    let table = format!(
        "{{\n    \"note\": \"incr --scale: CompileSession medians over linked corpora (fused pipeline, jobs=1) next to a one-shot compile_sources of the same sources; gate: cold_over_one_shot at the largest size at most {MAX_RATIO_GROWTH}x its value at the smallest\",\n    \"reps\": {reps},\n    \"ratio_growth\": {growth:.3},\n    \"rows\": [\n      {}\n    ]\n  }}",
        rows.join(",\n      ")
    );
    let path = std::env::var("INCR_JSON").unwrap_or_else(|_| {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("the bench crate lives at crates/bench");
        root.join("BENCH_incremental.json").display().to_string()
    });
    let doc = std::fs::read_to_string(&path).unwrap_or_else(|_| "{}".to_owned());
    std::fs::write(&path, upsert_json_key(&doc, "scale", &table)).expect("write scale table");
    println!("recorded {path} (key `scale`)");
    println!(
        "cold-session / one-shot ratio: {:.2}x at {} units, {:.2}x at {} units ({growth:.2}x growth, gate {MAX_RATIO_GROWTH}x)",
        ratios[0],
        SCALE_UNITS[0],
        ratios[ratios.len() - 1],
        SCALE_UNITS[SCALE_UNITS.len() - 1]
    );
    if growth > MAX_RATIO_GROWTH {
        eprintln!("FAIL: the cold-session / one-shot ratio grows {growth:.2}x from {} to {} units (gate {MAX_RATIO_GROWTH}x)", SCALE_UNITS[0], SCALE_UNITS[SCALE_UNITS.len() - 1]);
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parse = |what: &str, v: Option<&String>, default: usize| -> usize {
        match v {
            None => default,
            Some(v) => match v.parse() {
                Ok(n) if n >= 1 => n,
                _ => usage_exit(&format!("{what} must be a positive integer, got `{v}`")),
            },
        }
    };
    if args.first().map(String::as_str) == Some("--scale") {
        if args.len() > 2 {
            usage_exit(&format!("unexpected extra argument `{}`", args[2]));
        }
        scale(parse("REPS", args.get(1), 3));
        return;
    }
    if args.len() > 2 {
        usage_exit(&format!("unexpected extra argument `{}`", args[2]));
    }
    let units = parse("UNITS", args.first(), 16);
    if units < 2 {
        usage_exit("UNITS must be at least 2 (the signature edit needs a dependent)");
    }
    let reps = parse("REPS", args.get(1), 5);
    let cfg = LinkedConfig {
        units,
        ..LinkedConfig::incr_bench()
    };
    let loc = generate_linked(&cfg).total_loc;
    println!("incr: {units}-unit linked corpus ({loc} LOC), {reps} reps, fused pipeline");

    let mut colds = Vec::new();
    let mut bodies = Vec::new();
    let mut sigs = Vec::new();
    let mut cascade = 0usize;
    let mut cache = mini_driver::CacheStats::default();
    for rep in 0..reps {
        let (c, b, s, n, cs) = run_once(&cfg, rep as u64 + 1);
        colds.push(c);
        bodies.push(b);
        sigs.push(s);
        cascade = n;
        cache = cs;
    }
    let (cold, body, sig) = (median(colds), median(bodies), median(sigs));
    println!(
        "cold full compile         : {:>8.1} ms  ({} units recompiled)",
        ms(cold),
        units
    );
    println!(
        "warm body edit            : {:>8.1} ms  (1 unit recompiled, {} reused)  {:+.0}% vs cold",
        ms(body),
        units - 1,
        (ms(body) / ms(cold) - 1.0) * 100.0
    );
    println!(
        "warm signature edit       : {:>8.1} ms  ({} units recompiled)  {:+.0}% vs cold",
        ms(sig),
        cascade,
        (ms(sig) / ms(cold) - 1.0) * 100.0
    );
    println!(
        "session cache (per rep)   : {} reused / {} recompiled; invalidations: {} source, {} dep-cascade",
        cache.units_reused,
        cache.units_recompiled,
        cache.invalidated_by_source,
        cache.invalidated_by_deps
    );
    println!(
        "robustness (per rep)      : {} worker panic(s), {} sequential retrie(s), \
         {} corrupted artifact(s), {} evicted ({} bytes)",
        cache.worker_panics,
        cache.sequential_retries,
        cache.corrupted_artifacts,
        cache.evicted_units,
        cache.evicted_bytes
    );

    if let Ok(path) = std::env::var("INCR_JSON") {
        let json = format!(
            "{{\n  \"note\": \"CompileSession medians over the linked corpus (fused pipeline, jobs=1): cold = full compile from empty caches; warm body edit recompiles exactly 1 unit; warm signature edit recompiles the edited unit plus its transitive dependents\",\n  \"units\": {units},\n  \"corpus_loc\": {loc},\n  \"reps\": {reps},\n  \"cold_ms\": {:.3},\n  \"warm_body_edit_ms\": {:.3},\n  \"warm_signature_edit_ms\": {:.3},\n  \"signature_cascade_units\": {cascade}\n}}\n",
            ms(cold),
            ms(body),
            ms(sig)
        );
        std::fs::write(&path, json).expect("write INCR_JSON");
        println!("recorded {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::upsert_json_key;

    #[test]
    fn upsert_keeps_other_members_and_replaces_its_own() {
        let doc = "{\n  \"a\": 1,\n  \"note\": \"scale, {x}\",\n  \"b\": [1, {\"c\": 2}]\n}\n";
        let added = upsert_json_key(doc, "scale", "{\"r\": [1]}");
        assert_eq!(
            added,
            "{\n  \"a\": 1,\n  \"note\": \"scale, {x}\",\n  \"b\": [1, {\"c\": 2}],\n  \"scale\": {\"r\": [1]}\n}\n"
        );
        let replaced = upsert_json_key(&added, "scale", "7");
        assert_eq!(replaced, added.replace("{\"r\": [1]}", "7"));
        assert_eq!(
            upsert_json_key(&replaced, "a", "2"),
            replaced.replace("\"a\": 1", "\"a\": 2")
        );
        assert_eq!(upsert_json_key("{}", "k", "1"), "{\n  \"k\": 1\n}\n");
    }
}
