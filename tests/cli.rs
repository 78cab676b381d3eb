//! End-to-end tests of the `sentomist` CLI binary: the assemble → run →
//! mine → localize workflow through real process invocations.

mod support;

use sentomist::apps::DetectorKind;
use sentomist::tinyvm::{LifecycleItem, TaskId};
use sentomist::trace::Trace;
use support::{cli, ev, run_ok, workdir};

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
fn every_detector_kind_is_accepted_by_mine() {
    let dir = workdir("cli-every-detector");
    let app = dir.join("app.s");
    let trace = dir.join("app.trace.json");
    std::fs::write(&app, APP).unwrap();
    run_ok(
        cli()
            .args(["run"])
            .arg(&app)
            .args(["--cycles", "2000000", "--trace"])
            .arg(&trace),
    );
    for name in DetectorKind::all(0.05).map(DetectorKind::name) {
        let mine = ["--irq", "2", "--detector", name];
        let (stdout, _) = run_ok(cli().arg("mine").arg(&trace).args(mine));
        assert!(
            stdout.contains(&format!("ranking with {name}:")),
            "{stdout}"
        );
    }
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

/// `assemble`, `run`, `mine`, `localize`, `profile` and `campaign` reject
/// a misspelled flag before doing any work: usage on stderr, nonzero
/// exit, nothing on stdout — never a run with the default instead.
#[test]
fn misspelled_flags_are_rejected_by_every_subcommand() {
    for (args, flag) in [
        (vec!["assemble", "app.s", "--jsn"], "--jsn"),
        (vec!["run", "app.s", "--cycle", "100"], "--cycle"),
        (vec!["mine", "t.json", "--detecter", "pca"], "--detecter"),
        (vec!["localize", "t.json", "app.s", "--rnak", "2"], "--rnak"),
        (vec!["profile", "t.json", "app.s", "--csv", "out"], "--csv"),
        (
            vec![
                "campaign",
                "--seeds",
                "2",
                "--seconds",
                "1",
                "--thread",
                "4",
            ],
            "--thread",
        ),
    ] {
        let out = cli().args(&args).output().unwrap();
        let invocation = args.join(" ");
        assert!(
            !out.status.success(),
            "`sentomist {invocation}` should exit nonzero"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "`sentomist {invocation}` stderr lacks the unknown-flag error:\n{stderr}"
        );
        assert!(
            stderr.contains("USAGE:"),
            "`sentomist {invocation}` stderr lacks the usage text:\n{stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "`sentomist {invocation}` leaked onto stdout: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

/// Every command declares which of its flags take a value and which are
/// switches. A switch never takes the next word, so a switch placed
/// first prints the same bytes as one placed last. A value flag without
/// its value, a stray argument, a number that does not fit its field and
/// a program given twice are errors, never a silent default, a dropped
/// word or a truncated number.
#[test]
fn declared_flags_never_swallow_drop_or_truncate_arguments() {
    let dir = workdir("cli-declared-flags");
    let app = dir.join("app.s");
    let trace = dir.join("app.trace.json");
    let corpus = dir.join("corpus");
    let hunt_out = dir.join("hunt");
    std::fs::write(&app, APP).unwrap();
    run_ok(
        cli()
            .arg("run")
            .arg(&app)
            .args(["--cycles", "2000000", "--seed", "7", "--trace"])
            .arg(&trace),
    );
    run_ok(
        cli()
            .args(["campaign", "--seeds", "2", "--seconds", "1", "--store"])
            .arg(&corpus),
    );
    let app = app.to_str().unwrap();
    let t = trace.to_str().unwrap();
    let corpus = corpus.to_str().unwrap();
    let hunt_out = hunt_out.to_str().unwrap();

    for (switch_first, switch_last) in [
        (vec!["lint", "--json", app], vec!["lint", app, "--json"]),
        (vec!["slice", "--json", app], vec!["slice", app, "--json"]),
        (
            vec!["mine", "--causal", t, "--irq", "2", "--corroborate", app],
            vec!["mine", t, "--irq", "2", "--corroborate", app, "--causal"],
        ),
        (
            vec!["trace", "mine", "--json", corpus],
            vec!["trace", "mine", corpus, "--json"],
        ),
    ] {
        let (first, _) = run_ok(cli().args(&switch_first));
        let (last, _) = run_ok(cli().args(&switch_last));
        assert_eq!(
            first,
            last,
            "`sentomist {}` and `sentomist {}` disagree",
            switch_first.join(" "),
            switch_last.join(" ")
        );
    }

    for (args, message) in [
        (
            vec![
                "campaign",
                "--seeds",
                "1",
                "--seconds",
                "1",
                "--store",
                "--json",
            ],
            "campaign: --store wants a value".to_string(),
        ),
        (vec!["mine", t, "--csv"], "mine: --csv wants a value".into()),
        (
            vec!["hunt", "--case", "--iterations", "1", "--out", hunt_out],
            "hunt: --case wants a value".into(),
        ),
        (
            vec!["campaign", "7", "--seeds", "1", "--seconds", "1"],
            "campaign: unexpected argument `7`".into(),
        ),
        (
            vec!["hunt", "bogus", "--iterations", "1", "--out", hunt_out],
            "hunt: unexpected argument `bogus`".into(),
        ),
        (
            vec!["assemble", app, app],
            format!("assemble: unexpected argument `{app}`"),
        ),
        (
            vec!["lint", app, "--app", "forwarder"],
            "lint: give <app.s> or --app NAME, not both".into(),
        ),
        (
            vec!["slice", app, "--app", "forwarder"],
            "slice: give <app.s> or --app NAME, not both".into(),
        ),
        (
            vec!["mine", t, "--irq", "258"],
            "--irq wants a number, got `258`".into(),
        ),
        (
            vec![
                "campaign",
                "--seeds",
                "1",
                "--seconds",
                "1",
                "--period",
                "4294967316",
            ],
            "--period wants a number, got `4294967316`".into(),
        ),
    ] {
        let out = cli().args(&args).output().unwrap();
        let invocation = args.join(" ");
        assert!(
            !out.status.success(),
            "`sentomist {invocation}` should exit nonzero"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&message),
            "`sentomist {invocation}` stderr lacks `{message}`:\n{stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "`sentomist {invocation}` printed: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The trigger experiment's flags configure nothing in a case-study
/// campaign, so `--case` rejects them rather than silently dropping them,
/// for sweeps and replays alike.
#[test]
fn campaign_case_rejects_trigger_only_flags() {
    for (flag, value) in [
        ("--period", "50"),
        ("--seconds", "2"),
        ("--nu", "0.3"),
        ("--timeout-cycles", "1000"),
    ] {
        for selection in [
            &["--case", "3", "--seeds", "1"][..],
            &["--case", "3", "--replay", "--seed", "1000"][..],
        ] {
            let mut args = vec!["campaign"];
            args.extend_from_slice(selection);
            args.extend([flag, value]);
            let out = cli().args(&args).output().unwrap();
            let invocation = args.join(" ");
            assert!(
                !out.status.success(),
                "`sentomist {invocation}` should exit nonzero"
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("{flag} configures the trigger experiment")),
                "`sentomist {invocation}` stderr lacks the rejection:\n{stderr}"
            );
            assert!(
                stderr.contains("USAGE:"),
                "`sentomist {invocation}` stderr lacks the usage text:\n{stderr}"
            );
            assert!(
                out.stdout.is_empty(),
                "`sentomist {invocation}` leaked onto stdout: {}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
    }
}

/// `campaign --replay` runs a seed through the sweep's own job: every
/// row of a recorded trigger and case-III campaign replays to exactly
/// its `outcomes` entry.
#[test]
fn replay_reproduces_every_campaign_row() {
    for (selection, seeds) in [(["--seconds", "1"], 4), (["--case", "3"], 2)] {
        let (stdout, _) = run_ok(
            cli()
                .args(["campaign", "--seeds", &seeds.to_string(), "--json"])
                .args(selection),
        );
        let doc: serde::Value = serde_json::from_str(&stdout).unwrap();
        let rows = doc.get("outcomes").and_then(|o| o.as_seq()).unwrap();
        assert_eq!(rows.len(), seeds, "{selection:?}: every seed completes");
        for row in rows {
            let seed = support::get_u64(row, "seed").to_string();
            let (replayed, _) = run_ok(
                cli()
                    .args(["campaign", "--replay", "--seed", &seed, "--json"])
                    .args(selection),
            );
            let replayed: serde::Value = serde_json::from_str(&replayed).unwrap();
            assert_eq!(
                replayed.get("outcome"),
                Some(row),
                "{selection:?} seed {seed}: replay diverged from the campaign row"
            );
        }
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

/// A four-instruction app matching the hand-built traces below.
const TINY_APP: &str = "\
.handler TIMER0 tick
.task work
main:
 ret
tick:
 post work
 reti
work:
 ret
";

/// A hand-built trace of `items`: `events + 1` segments, each holding
/// `program_len` counts of 1.
fn tiny_trace(items: &[LifecycleItem], program_len: usize) -> Trace {
    Trace {
        events: (0..)
            .zip(items)
            .map(|(c, &item)| ev(c * 10, item))
            .collect(),
        segments: vec![vec![1; program_len]; items.len() + 1],
        program_len,
    }
}

/// Every subcommand that reads a trace file (`mine`, `localize`,
/// `profile` and `mine --corroborate --causal`) rejects a structurally
/// broken or ill-formed trace with exit 1 and an `error:` line — never a
/// panic. `profile` does not read the lifecycle, so it profiles the two
/// lifecycle defects.
#[test]
fn trace_reading_commands_reject_bad_traces() {
    use LifecycleItem::{Int, PostTask, Reti, RunTask, TaskEnd};
    let (post, run, end) = (
        |t| PostTask(TaskId(t)),
        |t| RunTask(TaskId(t)),
        |t| TaskEnd(TaskId(t)),
    );
    let dir = workdir("cli-bad-traces");
    let app = dir.join("tiny.s");
    std::fs::write(&app, TINY_APP).unwrap();
    let app = app.to_str().unwrap();
    let n = sentomist::tinyvm::assemble(TINY_APP).unwrap().len();

    let good = [Int(0), post(1), Reti, run(1), end(1)];
    let mut ragged = tiny_trace(&good, n);
    ragged.segments[1].pop();
    let mut short = tiny_trace(&good, n);
    short.segments.pop();
    let fifo = tiny_trace(
        &[
            Int(0),
            post(1),
            post(2),
            Reti,
            run(2),
            end(2),
            run(1),
            end(1),
        ],
        n,
    );
    let inside = tiny_trace(&[post(0), Int(0), run(0), Reti], n);
    let json = |t: &Trace| serde_json::to_string(t).unwrap();
    let whole = json(&tiny_trace(&good, n));
    let inputs = [
        ("ragged", json(&ragged), None),
        ("short", json(&short), None),
        (
            "fifo",
            json(&fifo),
            Some("error: FIFO violation: post at 1 does not match run at 4\n"),
        ),
        (
            "inside",
            json(&inside),
            Some("error: ill-formed lifecycle sequence: task item inside a handler region at 2\n"),
        ),
        ("truncated", whole[..whole.len() / 2].to_string(), None),
    ];
    for (name, body, _) in &inputs {
        std::fs::write(dir.join(format!("{name}.trace.json")), body).unwrap();
    }
    for (name, _, lifecycle_error) in inputs {
        let path = dir.join(format!("{name}.trace.json"));
        let t = path.to_str().unwrap();
        for (args, reads_lifecycle) in [
            (vec!["mine", t, "--irq", "0"], true),
            (vec!["localize", t, app, "--irq", "0"], true),
            (vec!["profile", t, app], false),
            (
                vec!["mine", t, "--irq", "0", "--corroborate", app, "--causal"],
                true,
            ),
        ] {
            let out = cli().args(&args).output().unwrap();
            let invocation = format!("sentomist {} on the {name} trace", args[0]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!stderr.contains("panicked"), "{invocation}:\n{stderr}");
            match (lifecycle_error, reads_lifecycle) {
                (Some(_), false) => assert!(out.status.success(), "{invocation}:\n{stderr}"),
                (Some(line), true) => {
                    assert_eq!(out.status.code(), Some(1), "{invocation}");
                    assert_eq!(stderr, line, "{invocation}");
                }
                (None, _) => {
                    assert_eq!(out.status.code(), Some(1), "{invocation}:\n{stderr}");
                    assert!(stderr.starts_with("error: "), "{invocation}:\n{stderr}");
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
