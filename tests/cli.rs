//! End-to-end tests of the `sentomist` CLI binary: the assemble → run →
//! mine → localize workflow through real process invocations.

mod support;

use support::{cli, workdir};

const APP: &str = "\
.handler TIMER0 on_timer
.handler ADC on_adc
.task send
.data buf 3
.data idx 1
main:
 ldi r1, 78
 out TIMER0_PERIOD, r1
 ldi r1, 1
 out TIMER0_CTRL, r1
 ret
on_timer:
 ldi r1, 1
 out ADC_CTRL, r1
 reti
on_adc:
 in r1, ADC_DATA
 lda r2, idx
 ldi r3, buf
 add r3, r2
 st [r3], r1
 addi r2, 1
 sta idx, r2
 cmpi r2, 3
 brne done
 ldi r2, 0
 sta idx, r2
 post send
done:
 reti
send:
 lda r1, buf
 out RADIO_TX_PUSH, r1
 ldi r2, 0xFFFF
 out RADIO_SEND, r2
 ret
";

#[test]
fn assemble_run_mine_localize_workflow() {
    let dir = workdir("cli-workflow");
    let app = dir.join("app.s");
    let trace = dir.join("app.trace.json");
    std::fs::write(&app, APP).unwrap();

    // assemble
    let out = cli().arg("assemble").arg(&app).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let listing = String::from_utf8_lossy(&out.stdout);
    assert!(listing.contains("on_adc:"));
    assert!(listing.contains("26 instructions"));

    // run
    let out = cli()
        .args(["run"])
        .arg(&app)
        .args(["--cycles", "2000000", "--seed", "7", "--trace"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace.exists());

    // mine (with CSV export)
    let csv = dir.join("ranking.csv");
    let out = cli()
        .args(["mine"])
        .arg(&trace)
        .args(["--irq", "2", "--top", "3", "--csv"])
        .arg(&csv)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("intervals of 2 (ADC)"));
    assert!(table.contains("Instance Index"));
    let csv_text = std::fs::read_to_string(&csv).unwrap();
    assert!(csv_text.starts_with("rank,index,score"));
    assert!(csv_text.lines().count() > 50);

    // profile
    let out = cli()
        .args(["profile"])
        .arg(&trace)
        .arg(&app)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let prof = String::from_utf8_lossy(&out.stdout);
    assert!(prof.contains("routine"));
    assert!(prof.contains("on_adc"));
    assert!(prof.contains("total"));

    // localize
    let out = cli()
        .args(["localize"])
        .arg(&trace)
        .arg(&app)
        .args(["--irq", "2", "--rank", "1", "--min-z", "0.5"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let loc = String::from_utf8_lossy(&out.stdout);
    assert!(loc.contains("deviating instructions"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_invocations_fail_cleanly() {
    // No args: usage on stderr, nonzero exit.
    let out = cli().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));

    // Unknown command.
    let out = cli().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing file.
    let out = cli()
        .args(["assemble", "/nonexistent/x.s"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Bad detector name.
    let dir = workdir("cli-bad-detector");
    let app = dir.join("mini.s");
    let trace = dir.join("mini.trace.json");
    std::fs::write(&app, APP).unwrap();
    let ok = cli()
        .args(["run"])
        .arg(&app)
        .args(["--cycles", "500000", "--trace"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(ok.status.success());
    let out = cli()
        .args(["mine"])
        .arg(&trace)
        .args(["--irq", "2", "--detector", "psychic"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown detector"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn case_subcommand_reproduces_figure_5b() {
    let out = cli().args(["case", "2"]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Instance Index"));
    assert!(text.contains("true symptoms at ranks [1, 2, 3]"));
}

/// `case` takes exactly one positional argument and no flags: a stray
/// flag or argument must fail with the usage text, not print the
/// default ranking.
#[test]
fn case_rejects_flags_and_extra_arguments() {
    for (args, message) in [
        (vec!["case", "2", "--bogus"], "unknown flag `--bogus`"),
        (vec!["case", "3", "--seed"], "unknown flag `--seed`"),
        (vec!["case", "3", "--seed", "7"], "unknown flag `--seed`"),
        (vec!["case", "2", "extra"], "unexpected argument `extra`"),
        (vec!["case"], "case: missing <1|2|3>"),
    ] {
        let out = cli().args(&args).output().unwrap();
        assert!(
            !out.status.success(),
            "`sentomist {}` should exit nonzero",
            args.join(" ")
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(message),
            "`sentomist {}` stderr lacks `{message}`:\n{stderr}",
            args.join(" ")
        );
        assert!(
            stderr.contains("USAGE:"),
            "`sentomist {}` stderr lacks the usage text:\n{stderr}",
            args.join(" ")
        );
        assert!(
            out.stdout.is_empty(),
            "`sentomist {}` printed a ranking: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn assembly_error_reports_line() {
    let dir = workdir("cli-asm-error");
    let app = dir.join("broken.s");
    std::fs::write(&app, "main:\n frob r1\n").unwrap();
    let out = cli().arg("assemble").arg(&app).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "stderr: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `trace`, `hunt`, `lint`, and `slice` reject flags they do not
/// understand instead of silently ignoring them: usage on stderr,
/// nonzero exit, nothing on stdout.
#[test]
fn unknown_flags_are_rejected_with_usage() {
    for args in [
        vec!["lint", "--app", "forwarder", "--bogus"],
        vec!["slice", "--app", "forwarder", "--bogus"],
        vec!["hunt", "--bogus", "--iterations", "1"],
        vec!["trace", "ls", "--bogus"],
        vec!["trace", "record", "--bogus"],
        vec!["trace", "mine", "--bogus"],
        vec!["trace", "fsck", "--bogus"],
        vec!["trace", "info", "--bogus"],
        vec!["trace", "merge", "--bogus"],
        vec!["trace", "quarantine", "ls", "--bogus"],
    ] {
        let out = cli().args(&args).output().unwrap();
        assert!(
            !out.status.success(),
            "`sentomist {}` should exit nonzero",
            args.join(" ")
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown flag `--bogus`"),
            "`sentomist {}` stderr lacks the unknown-flag error:\n{stderr}",
            args.join(" ")
        );
        assert!(
            stderr.contains("USAGE:"),
            "`sentomist {}` stderr lacks the usage text:\n{stderr}",
            args.join(" ")
        );
        assert!(
            out.stdout.is_empty(),
            "`sentomist {}` leaked onto stdout: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

/// `sentomist slice --app <name> --json` and `lint --app <name> --json`
/// must emit exactly the pinned golden fixtures — the same bytes the
/// mining daemon serves for the matching jobs.
#[test]
fn slice_and_lint_json_match_the_golden_fixtures() {
    for app in ["oscilloscope", "forwarder", "ctp"] {
        let out = cli()
            .args(["slice", "--app", app, "--json"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let fixture = format!(
            "{}/tests/fixtures/slice_{app}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let want = std::fs::read_to_string(&fixture).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            want,
            "{app}: `slice --app {app} --json` drifted from {fixture}"
        );

        let out = cli()
            .args(["lint", "--app", app, "--json"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let fixture = format!(
            "{}/tests/fixtures/lint_{app}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let want = std::fs::read_to_string(&fixture).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&out.stdout).trim(),
            want.trim(),
            "{app}: `lint --app {app} --json` drifted from {fixture}"
        );
    }
}

/// The slice command on a source file: explicit `--pc` seeds produce a
/// human-readable backward slice with the seed instruction in it.
#[test]
fn slice_command_slices_assembly_files() {
    let dir = workdir("cli-slice");
    let app = dir.join("app.s");
    std::fs::write(&app, APP).unwrap();

    // pc 21 is `lda r1, buf` in `send` — its slice must pull in the
    // interrupt handler's buffer writes.
    let out = cli()
        .arg("slice")
        .arg(&app)
        .args(["--pc", "21"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("backward slice from [21]"), "stdout: {text}");
    assert!(text.contains("on_adc"), "slice misses the handler: {text}");

    // A seed outside the program is a typed error, not a panic.
    let out = cli()
        .arg("slice")
        .arg(&app)
        .args(["--pc", "9999"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("9999"));

    std::fs::remove_dir_all(&dir).ok();
}

/// `mine --causal` and `localize --causal` run end to end on a recorded
/// trace, and `mine --causal` without `--corroborate` is refused.
#[test]
fn causal_flags_work_end_to_end() {
    let dir = workdir("cli-causal");
    let app = dir.join("app.s");
    let trace = dir.join("app.trace.json");
    std::fs::write(&app, APP).unwrap();
    let out = cli()
        .args(["run"])
        .arg(&app)
        .args(["--cycles", "2000000", "--seed", "7", "--trace"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --causal needs the static report to anchor against.
    let out = cli()
        .args(["mine"])
        .arg(&trace)
        .args(["--irq", "2", "--causal"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--corroborate"));

    let out = cli()
        .args(["mine"])
        .arg(&trace)
        .args(["--irq", "2", "--corroborate"])
        .arg(&app)
        .arg("--causal")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("causal chain"), "stdout: {text}");

    let out = cli()
        .args(["localize"])
        .arg(&trace)
        .arg(&app)
        .args(["--irq", "2", "--rank", "1", "--causal"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("causal chain"), "stdout: {text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_subcommands_print_usage_to_stderr_and_exit_nonzero() {
    // Every unknown- or missing-subcommand branch: nonzero exit, the
    // full usage text on stderr, and a clean stdout (pipelines must
    // never see usage prose where JSON belongs).
    for args in [
        vec!["bogus"],
        vec!["trace"],
        vec!["trace", "bogus"],
        vec!["trace", "quarantine", "bogus"],
    ] {
        let out = cli().args(&args).output().unwrap();
        assert!(
            !out.status.success(),
            "`sentomist {}` should exit nonzero",
            args.join(" ")
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("USAGE:"),
            "`sentomist {}` stderr lacks the usage text:\n{stderr}",
            args.join(" ")
        );
        assert!(
            stderr.contains("error:"),
            "`sentomist {}` stderr lacks the short error line:\n{stderr}",
            args.join(" ")
        );
        assert!(
            out.stdout.is_empty(),
            "`sentomist {}` leaked onto stdout: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
