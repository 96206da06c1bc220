//! End-to-end tests of the `dagmap` command-line binary.

use std::process::Command;

fn dagmap(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dagmap"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn temp_path(name: &str) -> String {
    let dir = std::env::temp_dir().join("dagmap_cli_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn gen_stats_map_round_trip() {
    let blif = temp_path("add6.blif");
    let (ok, _, err) = dagmap(&["gen", "add6", "--out", &blif]);
    assert!(ok, "{err}");

    let (ok, out, err) = dagmap(&["stats", &blif]);
    assert!(ok, "{err}");
    assert!(out.contains("subject graph"), "{out}");

    let mapped = temp_path("add6_mapped.blif");
    let vfile = temp_path("add6.v");
    let (ok, out, err) = dagmap(&[
        "map",
        &blif,
        "--builtin",
        "44-1",
        "--out",
        &mapped,
        "--verilog",
        &vfile,
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("delay"), "{out}");
    let vtext = std::fs::read_to_string(&vfile).expect("verilog written");
    assert!(vtext.contains("module ripple6"));

    // The emitted BLIF re-parses and re-maps.
    let (ok, _, err) = dagmap(&["stats", &mapped]);
    assert!(ok, "{err}");
}

#[test]
fn luts_and_retime_commands() {
    let blif = temp_path("alu4.blif");
    let (ok, _, err) = dagmap(&["gen", "alu4", "--out", &blif]);
    assert!(ok, "{err}");
    let (ok, out, err) = dagmap(&["luts", &blif, "-k", "4"]);
    assert!(ok, "{err}");
    assert!(out.contains("4-LUT depth"), "{out}");

    let seq = temp_path("acc4.blif");
    let (ok, _, err) = dagmap(&["gen", "acc4", "--out", &seq]);
    assert!(ok, "{err}");
    let (ok, out, err) = dagmap(&["retime", &seq, "--builtin", "minimal"]);
    assert!(ok, "{err}");
    assert!(out.contains("minimum clock period"), "{out}");
}

#[test]
fn lib_command_reports_pattern_counts() {
    let (ok, out, err) = dagmap(&["lib", "--builtin", "44-3"]);
    assert!(ok, "{err}");
    assert!(out.contains("pattern nodes"), "{out}");
    assert!(out.contains("delay-mappable: true"), "{out}");
}

#[test]
fn errors_are_reported_not_panicked() {
    let (ok, _, err) = dagmap(&["map", "/nonexistent/file.blif"]);
    assert!(!ok);
    assert!(err.contains("error:"), "{err}");

    let (ok, _, err) = dagmap(&["map"]);
    assert!(!ok);
    assert!(err.contains("missing input"), "{err}");

    let (ok, _, err) = dagmap(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"), "{err}");

    let (ok, _, err) = dagmap(&["gen", "nonsense99"]);
    assert!(!ok);
    assert!(err.contains("unknown benchmark"), "{err}");
}

#[test]
fn help_prints_usage() {
    let (ok, _, err) = dagmap(&["--help"]);
    assert!(ok);
    assert!(err.contains("usage:"), "{err}");
}

/// Every subcommand the binary dispatches must appear in `--help`, and the
/// shared observability flags must be documented exactly once each.
#[test]
fn help_documents_every_subcommand() {
    let (ok, _, err) = dagmap(&["--help"]);
    assert!(ok);
    for cmd in [
        "map",
        "luts",
        "retime",
        "stats",
        "lib",
        "supergen",
        "fuzz",
        "profile",
        "trace-check",
        "gen",
    ] {
        assert!(
            err.contains(&format!("dagmap {cmd}")),
            "--help does not document `{cmd}`:\n{err}"
        );
    }
    assert_eq!(err.matches("--trace <out.json>").count(), 2, "{err}");
    assert_eq!(err.matches("--profile").count(), 1, "{err}");
}

/// Every subcommand rejects flags it does not know, with a non-zero exit —
/// nothing silently swallows a typo.
#[test]
fn every_subcommand_rejects_unknown_flags() {
    let blif = temp_path("rej_add4.blif");
    let (ok, _, err) = dagmap(&["gen", "add4", "--out", &blif]);
    assert!(ok, "{err}");
    let cases: &[&[&str]] = &[
        &["map", &blif, "--bogus"],
        &["luts", &blif, "--bogus"],
        &["retime", &blif, "--bogus"],
        &["stats", &blif, "--bogus"],
        &["lib", "--builtin", "lib2", "--bogus"],
        &["supergen", "--bogus"],
        &["fuzz", "--bogus"],
        &["profile", &blif, "--bogus"],
        &["trace-check", "--bogus"],
        &["gen", "add4", "--bogus"],
    ];
    for case in cases {
        let (ok, _, err) = dagmap(case);
        assert!(!ok, "`{}` accepted --bogus", case.join(" "));
        assert!(
            err.contains("unknown flag") || err.contains("missing"),
            "`{}` gave an unhelpful error: {err}",
            case.join(" ")
        );
    }
    // Stray positionals are rejected too, not silently ignored.
    let (ok, _, err) = dagmap(&["stats", &blif, "stray"]);
    assert!(!ok);
    assert!(err.contains("unexpected argument"), "{err}");
    // The daemon has no memo to size any more; its old flag is unknown.
    let (ok, _, err) = dagmap(&["serve", "--memo-cap", "1024"]);
    assert!(!ok);
    assert!(err.contains("unknown flag `--memo-cap`"), "{err}");
}

/// `--trace` writes a file `trace-check` accepts, `--profile` prints the
/// phase report to stderr, and neither changes the mapped output by a byte.
#[test]
fn tracing_is_validated_and_inert() {
    let blif = temp_path("tr_add8.blif");
    let (ok, _, err) = dagmap(&["gen", "add8", "--out", &blif]);
    assert!(ok, "{err}");

    let plain = temp_path("tr_plain.blif");
    let (ok, plain_out, err) = dagmap(&["map", &blif, "--out", &plain]);
    assert!(ok, "{err}");

    let traced = temp_path("tr_traced.blif");
    let trace = temp_path("tr_add8.json");
    let (ok, traced_out, err) = dagmap(&[
        "map",
        &blif,
        "--out",
        &traced,
        "--trace",
        &trace,
        "--profile",
    ]);
    assert!(ok, "{err}");
    assert!(err.contains("phase report"), "{err}");
    assert!(err.contains("wavefront occupancy"), "{err}");

    // Inert: stdout and the mapped BLIF are byte-identical with and
    // without observability (the report goes to stderr only). The `phases:`
    // line carries wall-clock timings and the `wrote` lines name the two
    // different output paths; everything else must match byte for byte.
    let stable = |s: &str| -> String {
        s.lines()
            .filter(|l| !l.starts_with("phases:") && !l.starts_with("wrote "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(stable(&plain_out), stable(&traced_out));
    assert_eq!(
        std::fs::read(&plain).expect("plain written"),
        std::fs::read(&traced).expect("traced written"),
        "tracing changed the mapped netlist"
    );

    let (ok, out, err) = dagmap(&["trace-check", &trace]);
    assert!(ok, "{err}");
    assert!(out.contains("valid Chrome trace"), "{out}");

    // A corrupted trace is rejected.
    let bad = temp_path("tr_bad.json");
    std::fs::write(&bad, "{\"traceEvents\": [{\"ph\": \"Z\"}]}").expect("write");
    let (ok, _, err) = dagmap(&["trace-check", &bad]);
    assert!(!ok);
    assert!(err.contains("invalid trace"), "{err}");
}

/// `dagmap profile` aggregates per-phase statistics over repeated runs.
#[test]
fn profile_command_aggregates_runs() {
    let blif = temp_path("prof_add6.blif");
    let (ok, _, err) = dagmap(&["gen", "add6", "--out", &blif]);
    assert!(ok, "{err}");
    let (ok, out, err) = dagmap(&["profile", &blif, "--runs", "2"]);
    assert!(ok, "{err}");
    assert!(out.contains("2 runs"), "{out}");
    assert!(out.contains("map/label"), "{out}");
    assert!(out.contains("match.enumerated"), "{out}");
}

/// `map` and `stats` print the per-phase duration line from the MapReport.
#[test]
fn phase_durations_are_printed() {
    let blif = temp_path("ph_add6.blif");
    let (ok, _, err) = dagmap(&["gen", "add6", "--out", &blif]);
    assert!(ok, "{err}");
    let (ok, out, err) = dagmap(&["map", &blif, "--recover"]);
    assert!(ok, "{err}");
    assert!(out.contains("phases: decompose"), "{out}");
    assert!(out.contains("area recovery"), "{out}");
    let (ok, out, err) = dagmap(&["stats", &blif, "--builtin", "lib2"]);
    assert!(ok, "{err}");
    assert!(out.contains("phases: decompose"), "{out}");
}

#[test]
fn boolean_and_hybrid_algorithms_map() {
    let blif = temp_path("ks8.blif");
    let (ok, _, err) = dagmap(&["gen", "add8", "--out", &blif]);
    assert!(ok, "{err}");
    for algo in ["boolean", "hybrid"] {
        let (ok, out, err) = dagmap(&["map", &blif, "--algo", algo, "-k", "4"]);
        assert!(ok, "{algo}: {err}");
        assert!(out.contains("delay"), "{out}");
        // Cut widths below 2 clamp to 2: same netlist, and the report says so.
        let mapped_at = |k: &str| {
            let path = temp_path(&format!("ks8_{algo}_k{k}.blif"));
            let (ok, out, err) = dagmap(&["map", &blif, "--algo", algo, "-k", k, "--out", &path]);
            assert!(ok, "{algo} -k {k}: {err}");
            assert!(out.contains("boolean: k=2,"), "{algo} -k {k}: {out}");
            std::fs::read(&path).expect("mapped BLIF written")
        };
        let at_two = mapped_at("2");
        for k in ["0", "1"] {
            assert!(mapped_at(k) == at_two, "{algo}: -k {k} maps like -k 2");
        }
    }
}

#[test]
fn report_path_prints_the_critical_chain() {
    let blif = temp_path("rp.blif");
    let (ok, _, err) = dagmap(&["gen", "add6", "--out", &blif]);
    assert!(ok, "{err}");
    let (ok, out, err) = dagmap(&["map", &blif, "--builtin", "44-1", "--report-path"]);
    assert!(ok, "{err}");
    assert!(out.contains("critical path"), "{out}");
    assert!(out.contains("arrival"), "{out}");
}

#[test]
fn supergen_extends_a_library_and_the_output_maps() {
    // Bounded generation keeps this quick; the written genlib must load back
    // through `map --lib` and map a circuit successfully.
    let ext = temp_path("ext44.genlib");
    let (ok, out, err) = dagmap(&[
        "supergen",
        "--builtin",
        "44-1",
        "--max-count",
        "8",
        "--max-pool",
        "48",
        "--threads",
        "2",
        "--out",
        &ext,
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("supergen"), "{out}");
    assert!(out.contains("supergates"), "{out}");

    let blif = temp_path("sg_add8.blif");
    let (ok, _, err) = dagmap(&["gen", "add8", "--out", &blif]);
    assert!(ok, "{err}");
    let (ok, out, err) = dagmap(&["map", &blif, "--lib", &ext]);
    assert!(ok, "{err}");
    assert!(out.contains("delay"), "{out}");
}

#[test]
fn map_with_supergates_never_regresses_delay() {
    let blif = temp_path("sg_mul6.blif");
    let (ok, _, err) = dagmap(&["gen", "mul6", "--out", &blif]);
    assert!(ok, "{err}");

    let delay_of = |out: &str| -> f64 {
        out.lines()
            .find_map(|l| {
                let rest = l.split("delay").nth(1)?;
                let token = rest
                    .trim_start_matches([' ', ':', '='])
                    .split_whitespace()
                    .next()?;
                token.trim_end_matches(',').parse().ok()
            })
            .unwrap_or_else(|| panic!("no delay in output: {out}"))
    };

    let (ok, base_out, err) = dagmap(&["map", &blif, "--builtin", "44-1"]);
    assert!(ok, "{err}");
    let (ok, ext_out, err) = dagmap(&["map", &blif, "--builtin", "44-1", "--supergates", "2"]);
    assert!(ok, "{err}");
    assert!(ext_out.contains("supergates:"), "{ext_out}");
    assert!(
        delay_of(&ext_out) <= delay_of(&base_out) + 1e-9,
        "extended mapping regressed: base `{base_out}` vs ext `{ext_out}`"
    );
}

#[test]
fn threads_flag_is_accepted_and_validated() {
    // `--threads` sizes supergen's enumeration pool; the labeling commands
    // have no thread knob and reject it as an unknown flag.
    let (ok, out, err) = dagmap(&[
        "supergen",
        "--builtin",
        "44-1",
        "--max-count",
        "4",
        "--threads",
        "2",
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("2 threads"), "{out}");
    let (ok, _, err) = dagmap(&["supergen", "--builtin", "44-1", "--threads", "0"]);
    assert!(!ok);
    assert!(err.contains("--threads"), "{err}");

    let blif = temp_path("thr_add6.blif");
    let (ok, _, err) = dagmap(&["gen", "add6", "--out", &blif]);
    assert!(ok, "{err}");
    let (ok, _, err) = dagmap(&["map", &blif, "--builtin", "44-1", "--threads", "2"]);
    assert!(!ok);
    assert!(err.contains("unknown flag `--threads`"), "{err}");
}

#[test]
fn lib_command_prints_pattern_statistics() {
    let (ok, out, err) = dagmap(&["lib", "--builtin", "44-1", "--gates"]);
    assert!(ok, "{err}");
    assert!(out.contains("input-count histogram"), "{out}");
    assert!(out.contains("max pattern depth"), "{out}");
    // Per-gate table lists every cell of the builtin.
    assert!(out.contains("max delay"), "{out}");
    for gate in ["inv", "nand2"] {
        assert!(out.contains(gate), "missing {gate} in: {out}");
    }
}

#[test]
fn aiger_files_round_trip_through_the_cli() {
    let aag = temp_path("alu4.aag");
    let (ok, _, err) = dagmap(&["gen", "alu4", "--out", &aag]);
    assert!(ok, "{err}");
    let (ok, out, err) = dagmap(&["stats", &aag]);
    assert!(ok, "{err}");
    assert!(out.contains("subject graph"), "{out}");
    let mapped = temp_path("alu4_mapped.aag");
    let (ok, _, err) = dagmap(&["map", &aag, "--builtin", "44-1", "--out", &mapped]);
    assert!(ok, "{err}");
    let (ok, _, err) = dagmap(&["stats", &mapped]);
    assert!(ok, "{err}");
}
