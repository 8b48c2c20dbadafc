//! Hostile-input battery: malformed, adversarial and pathological sources
//! must surface as structured [`CompileError`] values — never a panic
//! escaping the driver API, and never a process-aborting stack overflow.
//!
//! This is the panic-audit satellite of the robustness PR: any input a
//! user can type is "malformed-but-parseable-reachable" territory, so the
//! frontend owes it a diagnostic. Internal invariants on *well-typed*
//! trees stay as panics/debug_asserts — they are covered by the
//! isolation fences, not by this battery.

use miniphases::mini_driver::{
    compile_sources, CompileError, CompileRequest, CompileService, CompilerOptions, ServiceConfig,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Compiles one hostile source behind an unwind fence; panicking is the
/// only way to fail this helper.
fn compile_hostile(label: &str, src: &str) -> Result<(), CompileError> {
    for opts in [CompilerOptions::fused(), CompilerOptions::mega()] {
        let result = catch_unwind(AssertUnwindSafe(|| {
            compile_sources(&[("hostile.ms", src)], &opts)
        }));
        match result {
            Ok(r) => {
                if let Err(e) = r {
                    // Structured is all we demand; also exercise Display.
                    let _ = e.to_string();
                    return Err(e);
                }
            }
            Err(p) => {
                let msg = miniphases::miniphase::faults::panic_message(p.as_ref());
                panic!("hostile input `{label}` escaped as a panic: {msg}");
            }
        }
    }
    Ok(())
}

fn expect_rejected(label: &str, src: &str) {
    assert!(
        compile_hostile(label, src).is_err(),
        "hostile input `{label}` was accepted"
    );
}

#[test]
fn deep_expression_nesting_degrades_to_a_parse_error() {
    let src = format!(
        "def main(): Unit = println({}1{})\n",
        "(".repeat(5000),
        ")".repeat(5000)
    );
    match compile_hostile("deep parens", &src) {
        Err(CompileError::Parse(e)) => {
            assert!(
                e.to_string().contains("depth limit"),
                "expected the depth-limit diagnostic, got: {e}"
            );
        }
        other => panic!("expected a parse error, got: {:?}", other.map(|()| "Ok")),
    }
}

#[test]
fn deep_block_nesting_degrades_to_a_parse_error() {
    let src = format!(
        "def main(): Unit = {}println(1){}\n",
        "{".repeat(5000),
        "}".repeat(5000)
    );
    expect_rejected("deep blocks", &src);
}

#[test]
fn deep_type_nesting_degrades_to_a_parse_error() {
    let src = format!(
        "def f(x: {}Int{}): Int = x\n",
        "(".repeat(5000),
        ")".repeat(5000)
    );
    expect_rejected("deep type parens", &src);
}

#[test]
fn deep_prefix_chain_degrades_to_a_parse_error() {
    // Spaces keep each `-` its own token, forcing prefix recursion.
    let src = format!("def main(): Unit = println({}1)\n", "- ".repeat(5000));
    expect_rejected("deep prefix chain", &src);
}

#[test]
fn deep_pattern_nesting_degrades_to_a_parse_error() {
    let src = format!(
        "def f(x: Any): Int = x match {{\n  case {}n: Int{} => n\n  case _ => 0\n}}\n",
        "a @ (".repeat(5000),
        ")".repeat(5000)
    );
    expect_rejected("deep pattern nesting", &src);
}

#[test]
fn nesting_under_the_limit_still_parses() {
    // Each source paren level costs ~2 descent steps (expr + prefix), so
    // 40 levels sits comfortably under the 128-step ceiling.
    let src = format!(
        "def main(): Unit = println({}1{})\n",
        "(".repeat(40),
        ")".repeat(40)
    );
    assert!(
        compile_hostile("shallow parens", &src).is_ok(),
        "well-formed nesting under the limit must compile"
    );
}

#[test]
fn lexical_garbage_is_rejected_structurally() {
    for (label, src) in [
        ("unterminated string", "def main(): Unit = println(\"oops\n"),
        (
            "huge int literal",
            "def main(): Unit = println(999999999999999999999999999)\n",
        ),
        (
            "stray control bytes",
            "def main(): Unit = \u{1}\u{2}\u{3}\n",
        ),
        (
            "unclosed comment",
            "def main(): Unit = println(1) /* never closed\n",
        ),
        ("unbalanced braces", "def main(): Unit = { println(1)\n"),
        (
            "operator soup",
            "def main(): Unit = + * / % < > = != == => <= >= && ||\n",
        ),
    ] {
        expect_rejected(label, src);
    }
}

#[test]
fn malformed_but_parseable_programs_get_diagnostics() {
    for (label, src) in [
        ("unknown name", "def main(): Unit = println(nosuch)\n"),
        (
            "unknown type",
            "def f(x: NoSuchType): Int = 0\ndef main(): Unit = println(f(1))\n",
        ),
        (
            "wrong arity",
            "def f(n: Int): Int = n\ndef main(): Unit = println(f(1, 2))\n",
        ),
        (
            "type mismatch",
            "def main(): Unit = println(1 + \"two\" * true)\n",
        ),
        (
            "array arity",
            "def f(x: Array[Int, Int]): Int = 0\ndef main(): Unit = println(0)\n",
        ),
        (
            "assign to literal",
            "def main(): Unit = { 1 = 2\n  println(1)\n}\n",
        ),
        (
            "tparam with args",
            "def f[T](x: T[Int]): Int = 0\ndef main(): Unit = println(0)\n",
        ),
        ("new of builtin", "def main(): Unit = println(new Int(3))\n"),
        (
            "self-recursive val",
            "def main(): Unit = { val x: Int = x\n  println(x)\n}\n",
        ),
        (
            "left-deep operator chain",
            &format!(
                "def main(): Unit = println({})\n",
                (0..2000)
                    .map(|i| i.to_string())
                    .collect::<Vec<_>>()
                    .join(" + ")
            ),
        ),
    ] {
        let err = compile_hostile(label, src);
        assert!(err.is_err(), "`{label}` was accepted");
        assert!(
            !matches!(err, Err(CompileError::Internal { .. })),
            "`{label}` hit an internal error instead of a diagnostic"
        );
    }
}

#[test]
fn pathological_shapes_compile_or_reject_without_panicking() {
    // Wide rather than deep: these should mostly succeed; the pin is
    // purely that nothing panics and failures stay structured. Operator
    // chains build a left-deep AST, so their supported length is bounded
    // by typer stack, not the parser ceiling — 400 is within the
    // supported range in debug builds.
    let wide_call = format!(
        "def f(n: Int): Int = n\ndef main(): Unit = println({})\n",
        (0..400)
            .map(|i| format!("f({i})"))
            .collect::<Vec<_>>()
            .join(" + ")
    );
    let many_defs = (0..2000)
        .map(|i| format!("def f{i}(): Int = {i}\n"))
        .chain(std::iter::once(
            "def main(): Unit = println(f0())\n".to_owned(),
        ))
        .collect::<String>();
    let long_string = format!("def main(): Unit = println(\"{}\")\n", "x".repeat(100_000));
    let empty = "";
    let only_comments = "// nothing\n/* here\neither */\n";
    for (label, src) in [
        ("wide call chain", wide_call.as_str()),
        ("many defs", many_defs.as_str()),
        ("long string", long_string.as_str()),
        ("empty source", empty),
        ("only comments", only_comments),
    ] {
        // Ok or structured Err are both fine (empty units have no main).
        eprintln!("pathological case: {label}");
        let _ = compile_hostile(label, src);
    }
}

#[test]
fn huge_guest_array_is_a_vm_trap_and_the_tenant_keeps_serving() {
    // `run_main` runs outside the service's unwind fence, so a guest-chosen
    // array size must trap in the VM rather than panic or abort the host.
    let mut svc = CompileService::new(ServiceConfig::new(CompilerOptions::fused()));
    svc.add_tenant("t").expect("register");
    let serve = |src: &str| {
        let req = CompileRequest::new().edit("main.ms", src).running_main();
        let resp = svc.submit("t", req).expect("admitted").wait();
        resp.expect("compiles").output.expect("ran main")
    };
    let out = serve(
        "def main(): Unit = {\n\
         val a: Array[Int] = new Array[Int](1152921504606846976)\n\
         println(a.length)\n\
         }\n",
    );
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(
        out[0].starts_with("vm error: Trap(") && out[0].contains("MAX_ARRAY_LEN"),
        "{out:?}"
    );
    let out = serve("def main(): Unit = println(new Array[Int](3).length)\n");
    assert_eq!(out, vec!["3"]);
}
