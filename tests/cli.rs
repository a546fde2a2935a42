//! Integration tests for the `dvsc` command-line front end.

use std::process::Command;

fn dvsc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dvsc"))
}

#[test]
fn list_names_all_benchmarks() {
    let out = dvsc().arg("list").output().expect("dvsc runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in [
        "adpcm/encode",
        "mpeg/decode",
        "gsm/encode",
        "epic",
        "ghostscript",
        "mpg123",
    ] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
    assert!(text.contains("flwr.m2v"), "mpeg inputs listed");
}

#[test]
fn compile_ghostscript_and_emit_listing() {
    let tmp = std::env::temp_dir().join("dvsc_cli_test_listing.s");
    let _ = std::fs::remove_file(&tmp);
    let out = dvsc()
        .args([
            "compile",
            "--benchmark",
            "ghostscript",
            "--deadline",
            "4",
            "--capacitance",
            "0.01",
            "--metrics",
            "--emit",
        ])
        .arg(&tmp)
        .output()
        .expect("dvsc runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("MILP:"), "summary printed:\n{text}");
    assert!(text.contains("validated:"), "validation printed");
    // The 3-level profile times the deadline scheme's reference points,
    // so the compile walks the trace twice (profile, validation) and
    // times three points.
    assert_eq!(metric_value(&text, "sim.walks"), 2.0);
    assert_eq!(metric_value(&text, "sim.runs"), 3.0);
    let listing = std::fs::read_to_string(&tmp).expect("listing written");
    assert!(listing.contains("; program: ghostscript"));
    assert!(listing.contains("band_head:"));
    let _ = std::fs::remove_file(&tmp);
}

#[test]
fn a_thirteen_level_compile_walks_its_trace_three_times() {
    let out = dvsc()
        .args([
            "compile",
            "--benchmark",
            "adpcm",
            "--levels",
            "13",
            "--deadline",
            "5",
            "--metrics",
        ])
        .output()
        .expect("dvsc runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("validated:"), "validation printed:\n{text}");
    // The 13-level ladder lacks two of the deadline scheme's reference
    // points, so the scheme is measured in a walk of its own, between the
    // profile's and validation's: 13 + 3 points and one scheduled pass.
    assert_eq!(metric_value(&text, "sim.walks"), 3.0);
    assert_eq!(metric_value(&text, "sim.runs"), 16.0);
    assert_eq!(metric_value(&text, "sim.scheduled_runs"), 1.0);
}

/// `verify` profiles the trace and runs the schedule on the simulator
/// once: the profile's walk (plus the deadline scheme's own walk on a
/// ladder without its reference points) and one scheduled pass's walk.
#[test]
fn verify_walks_its_trace_once_per_simulator_call() {
    for (levels, walks) in [("3", 2.0), ("7", 3.0)] {
        let out = dvsc()
            .args([
                "verify",
                "--benchmark",
                "adpcm",
                "--deadline",
                "2",
                "--levels",
                levels,
                "--metrics",
            ])
            .output()
            .expect("dvsc runs");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(metric_value(&text, "sim.walks"), walks, "{levels} levels");
        assert_eq!(metric_value(&text, "sim.scheduled_runs"), 1.0);
        assert!(
            !text.lines().any(|l| l.trim_start().starts_with("replay.")),
            "{levels} levels: a replay metric in:\n{text}"
        );
    }
}

/// The value of the `--metrics` table line that starts with `name`.
fn metric_value(text: &str, name: &str) -> f64 {
    let line = text
        .lines()
        .find(|l| l.trim_start().starts_with(name))
        .unwrap_or_else(|| panic!("metric {name} missing in:\n{text}"));
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// Replaces the wall-clock `… ms solve` figure with `<ms>`.
fn mask_solve_time(text: &str) -> String {
    text.lines()
        .map(|line| match line.find(" ms solve") {
            Some(end) => {
                let start = line[..end].rfind(' ').map_or(0, |i| i + 1);
                format!("{}<ms>{}", &line[..start], &line[end..])
            }
            None => line.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// `--jobs` must not change what `compile` prints: the MILP search is
/// sequential whatever the worker count, so the node count and every
/// predicted figure match; only the wall-clock solve time is masked.
#[test]
fn compile_output_does_not_depend_on_jobs() {
    let run = |jobs: &str| {
        let out = dvsc()
            .args([
                "compile",
                "--benchmark",
                "gsm",
                "--deadline",
                "3",
                "--levels",
                "7",
                "--no-validate",
                "--jobs",
                jobs,
            ])
            .output()
            .expect("dvsc runs");
        assert!(
            out.status.success(),
            "--jobs {jobs} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        mask_solve_time(&String::from_utf8_lossy(&out.stdout))
    };
    let one = run("1");
    assert!(
        one.contains("B&B nodes, <ms> ms solve)"),
        "solve time not masked:\n{one}"
    );
    assert_eq!(one, run("4"), "--jobs 1 and --jobs 4 outputs differ");
}

/// The search's `milp.*` counters carry its own `SolveStats`, so the
/// certifying replay's LP solves stay out of them and land under
/// `certify.*` instead.
#[test]
fn certify_replay_counts_apart_from_the_search() {
    let out = dvsc()
        .args([
            "compile",
            "--benchmark",
            "gsm",
            "--deadline",
            "3",
            "--certify",
            "--no-validate",
            "--metrics",
        ])
        .output()
        .expect("dvsc runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let degenerate = metric_value(&text, "milp.degenerate_pivots");
    let pivots = metric_value(&text, "milp.pivots");
    assert!(degenerate <= pivots, "{degenerate} > {pivots} in:\n{text}");
    assert!(metric_value(&text, "certify.lp_solves") > 0.0, "{text}");
}

#[test]
fn analyze_prints_bounds() {
    let out = dvsc()
        .args(["analyze", "--benchmark", "gsm", "--levels", "7"])
        .output()
        .expect("dvsc runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Noverlap="));
    assert!(text.contains("D5"));
}

#[test]
fn bad_arguments_fail_cleanly() {
    let out = dvsc().args(["compile"]).output().expect("dvsc runs");
    assert!(!out.status.success());
    let out = dvsc()
        .args(["compile", "--benchmark", "nonexistent"])
        .output()
        .expect("dvsc runs");
    assert!(!out.status.success());
    let out = dvsc().args(["frobnicate"]).output().expect("dvsc runs");
    assert!(!out.status.success());
    // A prefix of both mpeg/decode and mpg123 resolves to neither.
    let out = dvsc()
        .args(["compile", "--benchmark", "mp"])
        .output()
        .expect("dvsc runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("ambiguous benchmark `mp`")
            && err.contains("mpeg/decode")
            && err.contains("mpg123"),
        "stderr: {err}"
    );
    // A regulator capacitance must be finite and at least 0.
    for cap in ["inf", "-1"] {
        let out = dvsc()
            .args([
                "compile",
                "--benchmark",
                "ghostscript",
                "--capacitance",
                cap,
                "--certify",
            ])
            .output()
            .expect("dvsc runs");
        assert_eq!(out.status.code(), Some(2), "--capacitance {cap}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--capacitance"), "stderr: {err}");
    }
    // Ladders far too large to build (the first overflows a `Vec`'s
    // capacity, the second asks for 512 TiB) are refused before any work.
    for levels in ["1152921504606846976", "35184372088832"] {
        let out = dvsc()
            .args(["compile", "--benchmark", "gsm", "--levels", levels])
            .output()
            .expect("dvsc runs");
        assert_eq!(out.status.code(), Some(2), "--levels {levels}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("bad --levels"), "stderr: {err}");
    }
}

#[test]
fn argument_errors_name_the_failing_flag() {
    // Missing value.
    let out = dvsc()
        .args(["compile", "--deadline"])
        .output()
        .expect("dvsc runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--deadline requires a value"), "stderr: {err}");

    // Unparseable value.
    let out = dvsc()
        .args(["compile", "--levels", "three"])
        .output()
        .expect("dvsc runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--levels") && err.contains("`three`"),
        "stderr: {err}"
    );

    // Unknown flag.
    let out = dvsc()
        .args(["compile", "--bogus"])
        .output()
        .expect("dvsc runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag `--bogus`"), "stderr: {err}");
}

#[test]
fn version_flag_prints_version() {
    let out = dvsc().arg("--version").output().expect("dvsc runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.starts_with("dvsc ") && text.trim().len() > 5,
        "got: {text}"
    );
}

/// The observability acceptance path: flags without a subcommand imply
/// `compile`, `--metrics` prints non-zero pipeline counters, and
/// `--trace-out` writes a Chrome-trace JSON file.
#[test]
fn metrics_and_trace_out_capture_the_pipeline() {
    use compile_time_dvs::obs::json::Json;

    let tmp = std::env::temp_dir().join("dvsc_cli_test_trace.json");
    let _ = std::fs::remove_file(&tmp);
    let out = dvsc()
        .args([
            "--benchmark",
            "adpcm",
            "--deadline",
            "2",
            "--metrics",
            "--trace-out",
        ])
        .arg(&tmp)
        .output()
        .expect("dvsc runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);

    // The metrics summary must report non-zero work in every stage.
    assert!(metric_value(&text, "milp.pivots") > 0.0);
    assert!(metric_value(&text, "sim.cycles") > 0.0);
    assert!(metric_value(&text, "pass.solve.wall_us") > 0.0);
    assert!(metric_value(&text, "pass.profile.wall_us") > 0.0);

    // The trace must be a JSON array of complete events.
    let trace = std::fs::read_to_string(&tmp).expect("trace written");
    let root = Json::parse(&trace).expect("trace is valid JSON");
    let events = root.as_arr().expect("array of events");
    assert!(!events.is_empty());
    for ev in events {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            assert!(ev.get(key).is_some(), "missing {key} in {trace}");
        }
        assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
    }
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for span in ["sim.run", "pass.formulate", "pass.solve", "milp.solve"] {
        assert!(names.contains(&span), "span {span} missing: {names:?}");
    }
    let _ = std::fs::remove_file(&tmp);
}

/// `verify` over a single benchmark prints an ok row and exits 0 even
/// under `--deny`; `--json` emits a machine-readable report and `--dot`
/// writes a mode-colored overlay.
#[test]
fn verify_subcommand_reports_clean_schedules() {
    use compile_time_dvs::obs::json::Json;

    let tmp = std::env::temp_dir().join("dvsc_cli_test_verify.dot");
    let _ = std::fs::remove_file(&tmp);
    let out = dvsc()
        .args([
            "verify",
            "--benchmark",
            "ghostscript",
            "--deny",
            "--json",
            "--dot",
        ])
        .arg(&tmp)
        .output()
        .expect("dvsc runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let root = Json::parse(&text).expect("verify --json output parses");
    assert_eq!(root.get("denied").and_then(Json::as_bool), Some(false));
    let rows = root.get("benchmarks").and_then(Json::as_arr).expect("rows");
    assert_eq!(rows.len(), 1);
    let report = rows[0].get("report").expect("report object");
    assert_eq!(report.get("errors").and_then(Json::as_f64), Some(0.0));
    assert!(
        report
            .get("modeled_time_us")
            .and_then(Json::as_f64)
            .unwrap()
            > 0.0
    );
    let wcet = report
        .get("wcet")
        .and_then(|w| w.get("bound_us"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(
        wcet >= report
            .get("modeled_time_us")
            .and_then(Json::as_f64)
            .unwrap()
    );

    let dot = std::fs::read_to_string(&tmp).expect("dot overlay written");
    assert!(dot.starts_with("digraph"), "not a dot file: {dot}");
    // Every edge carries its scheduled mode and profile count.
    assert!(
        dot.contains("label=\"m"),
        "overlay lacks mode labels:\n{dot}"
    );
    assert!(
        dot.contains("\u{d7}"),
        "overlay lacks profile counts:\n{dot}"
    );
    assert!(
        dot.contains("fillcolor"),
        "overlay lacks mode coloring:\n{dot}"
    );
    let _ = std::fs::remove_file(&tmp);
}

/// A seeded slow-down mutation at the tightest deadline must be flagged,
/// and `--deny` must turn that into a nonzero exit.
#[test]
fn verify_mutation_is_denied() {
    let out = dvsc()
        .args([
            "verify",
            "--benchmark",
            "adpcm",
            "--deadline",
            "1",
            "--mutate",
            "1",
            "--deny",
        ])
        .output()
        .expect("dvsc runs");
    assert!(
        !out.status.success(),
        "mutated schedule must be denied; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("FAIL"), "no FAIL row in:\n{text}");
    assert!(
        text.contains("mutated edge"),
        "mutation note missing:\n{text}"
    );
    assert!(text.contains("error[V"), "no V-coded error in:\n{text}");
}

/// The global `--timeout` flag: bad values fail with a precise message
/// and the usual exit code 2, an expired watchdog exits 3 with a named
/// label, and a generous budget leaves the run untouched.
#[test]
fn global_timeout_flag_is_validated_and_enforced() {
    // Missing value.
    let out = dvsc()
        .args(["compile", "--timeout"])
        .output()
        .expect("dvsc runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--timeout requires a value"), "stderr: {err}");

    // Unparseable value.
    let out = dvsc()
        .args(["compile", "--timeout", "soon"])
        .output()
        .expect("dvsc runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--timeout") && err.contains("`soon`"),
        "stderr: {err}"
    );

    // Non-positive values.
    for bad in ["0", "-1.5"] {
        let out = dvsc()
            .args(["compile", "--timeout", bad])
            .output()
            .expect("dvsc runs");
        assert_eq!(out.status.code(), Some(2), "--timeout {bad} accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--timeout must be positive"), "stderr: {err}");
    }

    // An expired budget aborts with exit 3 and names the command.
    let out = dvsc()
        .args(["compile", "--benchmark", "epic", "--timeout", "0.001"])
        .output()
        .expect("dvsc runs");
    assert_eq!(out.status.code(), Some(3), "watchdog must exit 3");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("compile timed out after"), "stderr: {err}");

    // A generous budget is invisible.
    let out = dvsc()
        .args(["compile", "--benchmark", "ghostscript", "--timeout", "300"])
        .output()
        .expect("dvsc runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The serve-side flags reject nonsensical values before any socket work.
#[test]
fn serve_flags_are_validated() {
    for (args, needle) in [
        (
            vec!["loadtest", "--clients", "0"],
            "--clients must be at least 1",
        ),
        (
            vec!["loadtest", "--requests", "0"],
            "--requests must be at least 1",
        ),
        (vec!["client"], "client requires an operation"),
        (
            vec!["serve", "--queue-depth"],
            "--queue-depth requires a value",
        ),
    ] {
        let out = dvsc().args(&args).output().expect("dvsc runs");
        assert_eq!(out.status.code(), Some(2), "args {args:?} accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "args {args:?} stderr: {err}");
    }
}

/// Without a benchmark filter, `verify` fans out over every bundled
/// workload and prints one row each.
#[test]
fn verify_covers_all_benchmarks() {
    let out = dvsc().args(["verify"]).output().expect("dvsc runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["adpcm", "mpeg", "gsm", "epic", "ghostscript", "mpg123"] {
        assert!(
            text.lines().any(|l| l.contains(name) && l.contains("ok")),
            "no ok row for {name} in:\n{text}"
        );
    }
}
