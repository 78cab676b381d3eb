//! The `sentomist` command-line tool: assemble, emulate, trace, mine and
//! localize — the full Figure-3 workflow from a shell.
//!
//! ```text
//! sentomist assemble <app.s>                      check + disassemble
//! sentomist run <app.s> [opts]                    emulate, save a trace
//! sentomist lint <app.s | --app NAME> [--json]    static interleaving analysis
//! sentomist slice <app.s | --app NAME> [--pc N]   backward dependence slice
//! sentomist mine <trace.json> --irq N [opts]      rank intervals
//! sentomist localize <trace.json> <app.s> [opts]  implicate instructions
//! sentomist case <1|2|3>                          run a paper case study
//! sentomist hunt [opts]                           invariant bug-bounty campaign
//! ```

use sentomist::apps::{
    bundled_program, bundled_slice_report, campaign_document, default_slice_seeds, mine_corpus,
    slice_document, CorpusMineOptions, DetectorKind, Mode, SupervisedTracedJob,
};
use sentomist::args::{self, Args};
use sentomist::core::campaign::{CampaignResult, RunOutcome, Verdict};
use sentomist::core::chaos::ChaosConfig;
use sentomist::core::supervise::{
    run_supervised, supervise_once, RunContext, RunFailure, SeedReport, SupervisorOptions,
};
use sentomist::core::{
    causal_chain, corroborate_with_chain, harvest_set, localize_set, CausalChain, SampleIndex,
};
use sentomist::tinyvm::{self, devices::NodeConfig, node::Node};
use sentomist::trace::{Recorder, Trace};
use sentomist::tracestore::{
    CampaignManifest, CorpusIndex, StoredRunError, TraceImage, TraceStore, TraceWriter,
    MANIFEST_VERSION,
};
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::error::Error;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> &'static str {
    "sentomist — transient WSN bug mining (ICDCS 2010 reproduction)

USAGE:
  Flags and switches may come in any order. An unknown flag, a flag
  without its value or a stray argument is an error.

  sentomist assemble <app.s>
      Assemble and print the annotated disassembly.

  sentomist run <app.s> [--cycles N] [--seed S] [--trace FILE]
      Emulate a single node (default 10,000,000 cycles) and write the
      lifecycle trace as JSON (default <app>.trace.json).

  sentomist lint <app.s> [--json]
  sentomist lint --app <oscilloscope|forwarder|ctp> [--fixed] [--json]
      Statically analyze a program (or a bundled case-study app) for
      transient interleaving bugs: CFG + context reachability + shared
      data-object race rules. --json prints the full report for fixture
      pinning; the exit code is 0 regardless of findings.

  sentomist slice <app.s> [--pc N[,N...]] [--json]
  sentomist slice --app <oscilloscope|forwarder|ctp> [--fixed] [--pc N[,N...]] [--json]
      Backward static dependence slice from the seed pcs: every
      instruction whose data or control effects can reach a seed, plus
      the cross-context write→read edges that carry shared state between
      lifecycle contexts the reachability analysis proves can
      interleave. Without --pc the seeds default to the lint warnings'
      flagged pcs — a clean-linting program yields an empty slice.
      --json prints the report document, byte-identical to the mining
      daemon's Slice response for the bundled apps.

  sentomist mine <trace.json> [--irq N]
                 [--detector ocsvm|pca|knn|mahalanobis|kde|kfd|ensemble] [--nu X]
                 [--top K] [--csv FILE] [--corroborate <app.s>] [--min-z Z] [--causal]
      Anatomize the trace into event-handling intervals of interrupt N
      (default 0), rank them, and print the suspicion table; --csv also
      writes the full ranking for external plotting. With --corroborate,
      localize the top-ranked interval against <app.s> and join each
      implicated instruction with the static analyzer's warnings —
      statically corroborated sites rank first. --causal additionally
      intersects the dynamic interval with the static backward slice
      from the implicated sites and prints the reconstructed causal
      chain: the ordered cross-context hops that published the stale
      state the symptom consumed.

  sentomist localize <trace.json> <app.s> [--irq N] [--rank R] [--min-z Z]
                     [--detector ocsvm|pca|knn|mahalanobis|kde|kfd|ensemble] [--nu X]
                     [--causal]
      Explain the R-th most suspicious interval (default 1) of the
      ranking --detector produces: which instructions deviate from the
      population. With --causal, also reconstruct the interval's causal
      chain and restrict the flat hit list to chain members — a strictly
      smaller, causally ordered explanation.

  sentomist profile <trace.json> <app.s>
      Attribute executed instructions and cycles to routines (the
      Avrora-monitor profiling view).

  sentomist case <1|2|3>
      Run one of the paper's case studies end to end.

  sentomist campaign [--case 1|2|3] [--seeds N] [--base-seed S] [--threads T]
                     [--period MS] [--seconds SEC] [--nu X] [--json] [--progress]
                     [--store DIR] [--writers W] [--resume] [--strict]
                     [--max-retries R] [--backoff-ms MS]
                     [--timeout-ms MS] [--timeout-cycles N]
                     [--chaos SEED] [--chaos-rate X] [--stop-after K]
      Run a parallel seed-sweep campaign: N independent runs under seeds
      S..S+N, mined in isolation, aggregated by seed. Without --case the
      campaign is the case-I trigger experiment (one run per seed at
      sampling period --period, default 20 ms, --seconds long); with
      --case each seed reruns the full case study, and --period,
      --seconds, --nu and --timeout-cycles, which only the trigger
      experiment reads, are rejected. The aggregated output
      (and --json document) is byte-identical for every --threads value.
      With --store every run's lifecycle traces are persisted to a trace
      corpus under DIR, re-minable later with `trace mine`. --writers W
      fans the runs across W writer shards (DIR/shards/writer-NN/), each
      publishing through its own write-ahead log; the merged index and
      the re-mined document are byte-identical for every W, and
      `trace merge` folds the shards back into a flat corpus.

      Every run is supervised: a panicking run becomes a typed failure
      row, not a dead campaign. --max-retries grants transient failures
      and panics R extra attempts (backoff exponential from --backoff-ms,
      jittered deterministically by seed). --timeout-ms arms a per-run
      wall-clock watchdog; --timeout-cycles caps how many VM cycles a
      budget-aware run may emulate (deterministic, trigger mode only).
      --strict exits nonzero when any run ultimately failed. None of
      these flags influence the serialized document of the runs that
      succeed. --chaos injects deterministic faults (panics, hangs,
      transient errors) from the given chaos seed at --chaos-rate
      (default 0.1) per fault class — the test harness for all of the
      above. --stop-after halts dispatch after K seeds complete,
      simulating a killed campaign.

      With --store, every finished seed is journaled to DIR/journal.jsonl
      as it lands; a campaign that died (or was stopped) resumes with
      --resume [same flags], re-running only the missing seeds. The
      resumed document is byte-identical to an uninterrupted sweep's.

  sentomist campaign --replay --seed S [same selection flags]
      Re-run one seed of a campaign and print its outcome — the trace
      digest must match the original campaign row bit for bit.

  sentomist hunt [--case 1|2|3|all] [--fixed] [--iterations N]
                 [--campaign-seed S] [--threads T] [--top-k K]
                 [--out DIR] [--store DIR] [--json] [--progress]
                 [--strict] [--max-retries R] [--timeout-ms MS]
      Invariant-driven bug-bounty campaign: mutate each selected case
      study's workload timing, interrupt schedule, link conditions and
      app parameters under seeds S..S+N (every scenario a pure function
      of its seed), run the scenarios through the supervised pool, mine
      each run, and check the invariant registry —
      transient_symptom_free, known_buggy_interval_ranks_top_k,
      fixed_variant_has_no_negative_outliers,
      staticlint_dynamic_agreement, mining_determinism,
      causal_chain_contains_bug_site. Violations
      aggregate into BUG_REPORT.md + bug_report.json under --out
      (default .): per-invariant detection rates, violating seeds and a
      copy-pasteable repro line per bug. --fixed hunts the repaired
      variants (a healthy pipeline reports zero violations there).
      With --store, every run's traces are journaled into a corpus
      (targets/<case>-<variant>/) and mining_determinism re-mines from
      the persisted, digest-verified bytes; the report is also saved
      under the store's artifacts/. Both artifacts are byte-identical
      for every --threads value.

      Exit codes: 0 when the hunt ran to completion (violations are the
      report's payload, not an error); with --strict, nonzero when any
      invariant was violated or any run failed — the CI contract, same
      as `campaign --strict`'s nonzero-on-failed-run.

  sentomist hunt --replay --seed S --case <1|2|3> [--fixed] [--top-k K] [--json]
      Re-run one hunt scenario and print its iteration record (with
      --json, exactly the record bug_report.json carries). The record is
      a pure function of the seed: replays reproduce the original
      violation bit for bit on any machine and thread count.

  sentomist trace record <app.s> [--cycles N] [--seed S] [--out FILE.stc]
      Emulate a single node, streaming its lifecycle trace to a compact
      binary .stc file as it runs (default <app>.stc).

  sentomist trace ls <store-dir>
      List the runs of a trace corpus.

  sentomist trace info <file.stc | store-dir> [--salvage]
      Inspect one trace file (streamed: counts, size, event-handling
      intervals per interrupt) or a whole corpus. --salvage recovers the
      checksummed prefix of a damaged .stc file instead of rejecting it,
      reporting recovered and lost chunk/event counts.

  sentomist trace mine <store-dir> [--threads T] [--json] [--progress]
                       [--quarantine]
      Re-mine a stored campaign corpus without re-emulating: decode each
      run's traces (digest-verified), rank them with the campaign's own
      parameters, and print the same aggregated document `campaign`
      printed live — byte-identical, at a fraction of the cost. With
      --quarantine, corrupt or truncated runs are moved to the store's
      quarantine/ directory with a typed reason and the rest still mine.

  sentomist trace quarantine ls <store-dir>
      List the corpus runs set aside by quarantine-and-continue mining,
      with the recorded reason for each.

  sentomist trace fsck <store-dir> [--repair]
      Audit a corpus for crash damage: write-ahead-log entries left
      pending by a died writer, orphaned .tmp files, runs with a torn
      manifest or short trace file, and a stale index. Read-only by
      default; --repair quarantines damaged runs, sweeps temp files,
      rebuilds the index and settles the logs. Exits nonzero when a
      dry run finds damage (the CI contract).

  sentomist trace merge <store-dir>
      Compact a sharded multi-writer corpus: move every shard's runs
      into the top-level runs/ tree, drop the emptied shard skeletons
      and rebuild the merged index. The corpus digest is unchanged.
"
}

/// Parses one subcommand's arguments against its declared value flags,
/// switches and positional count. A malformed command line prints the
/// usage on stderr, like an unknown subcommand.
fn parse_args(
    command: &str,
    args: &[String],
    values: &[&str],
    switches: &[&str],
    positionals: usize,
) -> Result<Args, Box<dyn Error>> {
    args::parse(args, values, switches, positionals)
        .map_err(|e| usage_error(format!("{command}: {e}")))
}

/// `lint` and `slice` read one program: `<app.s>` or `--app NAME`.
fn reject_two_programs(command: &str, args: &Args) -> Result<(), Box<dyn Error>> {
    if args.has("app") && args.positional(0).is_some() {
        return Err(usage_error(format!(
            "{command}: give <app.s> or --app NAME, not both"
        )));
    }
    Ok(())
}

/// Parses `--pc N[,N...]` into a pc list; absent means "default seeds".
fn flag_pcs(args: &Args) -> Result<Vec<u16>, String> {
    let Some(raw) = args.value("pc") else {
        return Ok(Vec::new());
    };
    raw.split(',')
        .map(|s| {
            s.trim()
                .parse::<u16>()
                .map_err(|_| format!("--pc wants numbers, got `{s}`"))
        })
        .collect()
}

fn detector_from(args: &Args) -> Result<DetectorKind, String> {
    let nu = args.number_or("nu", 0.05)?;
    let name = args.value("detector").unwrap_or("ocsvm");
    DetectorKind::from_name(name, nu).ok_or_else(|| format!("unknown detector `{name}`"))
}

fn load_trace(path: &str) -> Result<Trace, Box<dyn Error>> {
    let data = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&data).map_err(|e| format!("parsing {path}: {e}").into())
}

fn cmd_assemble(args: &[String]) -> Result<(), Box<dyn Error>> {
    let args = parse_args("assemble", args, &[], &[], 1)?;
    let path = args.positional(0).ok_or("assemble: missing <app.s>")?;
    let src = std::fs::read_to_string(path)?;
    let program = tinyvm::assemble(&src)?;
    println!(
        "; {} — {} instructions, {} tasks, {} data words",
        path,
        program.len(),
        program.tasks.len(),
        program.data_size
    );
    print!("{}", tinyvm::disassemble(&program));
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), Box<dyn Error>> {
    let args = parse_args("run", args, &["cycles", "seed", "trace"], &[], 1)?;
    let path = args.positional(0).ok_or("run: missing <app.s>")?;
    let cycles = args.number_or("cycles", 10_000_000)?;
    let seed = args.number_or("seed", 42)?;
    let out = args
        .value("trace")
        .map_or_else(|| format!("{path}.trace.json"), String::from);
    let src = std::fs::read_to_string(path)?;
    let program = std::sync::Arc::new(tinyvm::assemble(&src)?);
    let mut node = Node::new(
        program.clone(),
        NodeConfig {
            seed,
            ..NodeConfig::default()
        },
    );
    let mut recorder = Recorder::new(program.len());
    node.run(cycles, &mut recorder)?;
    let trace = recorder.into_trace();
    println!(
        "ran {} cycles: {} instructions, {} lifecycle events, {} UART words",
        node.cycle(),
        node.instructions_retired(),
        trace.events.len(),
        node.uart().len()
    );
    std::fs::write(&out, serde_json::to_string(&trace)?)?;
    println!("trace written to {out}");
    Ok(())
}

fn cmd_mine(args: &[String]) -> Result<(), Box<dyn Error>> {
    let args = parse_args(
        "mine",
        args,
        &[
            "irq",
            "detector",
            "nu",
            "top",
            "csv",
            "corroborate",
            "min-z",
        ],
        &["causal"],
        1,
    )?;
    let path = args.positional(0).ok_or("mine: missing <trace.json>")?;
    let irq = args.number_or("irq", 0)?;
    let top = args.number_or("top", 10)?;
    let trace = load_trace(path)?;
    let samples = harvest_set(&trace, irq, |seq, _| SampleIndex::Seq(seq))?;
    if samples.is_empty() {
        return Err(format!("no event-handling intervals for irq {irq}").into());
    }
    println!(
        "{} intervals of {} ({}), ranking with {}:",
        samples.len(),
        irq,
        tinyvm::isa::irq::name(irq),
        args.value("detector").unwrap_or("ocsvm"),
    );
    let report = detector_from(&args)?.pipeline().rank_set(samples.clone())?;
    print!("{}", report.table(top, 2));
    if let Some(csv_path) = args.value("csv") {
        std::fs::write(csv_path, report.to_csv())?;
        println!("full ranking written to {csv_path}");
    }
    let Some(app_path) = args.value("corroborate") else {
        if args.has("causal") {
            return Err("mine --causal needs --corroborate <app.s>".into());
        }
        return Ok(());
    };
    // Fuse: localize the top-ranked interval and join the implicated
    // instructions against the static analyzer's warnings.
    let min_z = args.number_or("min-z", 1.0)?;
    let src = std::fs::read_to_string(app_path).map_err(|e| format!("reading {app_path}: {e}"))?;
    let program = tinyvm::assemble(&src)?;
    if program.len() != trace.program_len {
        return Err(format!(
            "program has {} instructions but the trace was recorded for {}",
            program.len(),
            trace.program_len
        )
        .into());
    }
    let target = report
        .ranking
        .first()
        .ok_or("empty ranking, nothing to corroborate")?;
    let flagged = samples
        .meta
        .iter()
        .position(|m| m.index == target.index)
        .ok_or("ranked sample missing from the harvested set")?;
    let hits = localize_set(&samples, flagged, &program, min_z);
    let lint = sentomist::staticlint::lint(&program);
    let chain = if args.has("causal") {
        let interval = samples.meta[flagged].interval;
        let seeds: Vec<u16> = hits.iter().map(|h| h.pc).collect();
        causal_chain(&program, &trace, &interval, &seeds, &lint)?
    } else {
        None
    };
    let fused = corroborate_with_chain(&hits, &lint, chain.as_ref());
    println!(
        "\ncorroborating interval {} (score {:.4}) against {} static warning(s):",
        target.index,
        target.score,
        lint.warnings.len()
    );
    for c in fused.iter().take(12) {
        let mut tag = if c.corroborated() {
            c.warning_kinds
                .iter()
                .map(|k| k.slug())
                .collect::<Vec<_>>()
                .join(",")
        } else {
            "-".to_string()
        };
        if c.in_causal_chain {
            tag.push_str("+chain");
        }
        println!(
            "  pc {:>4}  z {:>7.2}  {} (line {})  [{}]",
            c.hit.pc,
            c.hit.z_score,
            c.hit.routine.as_deref().unwrap_or("?"),
            c.hit.source_line.unwrap_or(0),
            tag
        );
    }
    if args.has("causal") {
        println!();
        match &chain {
            Some(c) => print_chain(c),
            None => println!(
                "no causal chain: no warning-anchored cross-context edge \
                 carried state into this interval"
            ),
        }
    }
    Ok(())
}

/// Renders a reconstructed causal chain: cross-context hops in dynamic
/// order, each with full site evidence.
fn print_chain(chain: &CausalChain) {
    println!(
        "causal chain: {} hop(s), {} executed sliced instruction(s), seeds {:?}",
        chain.hops.len(),
        chain.sliced_executed.len(),
        chain.seeds
    );
    for h in &chain.hops {
        println!(
            "  seg {:>3}: [{}] pc {:>4} {} (line {})  --{}-->  [{}] pc {:>4} {} (line {})",
            h.first_read_segment,
            h.write.context,
            h.write.pc,
            h.write.routine.as_deref().unwrap_or("?"),
            h.write.source_line.unwrap_or(0),
            h.object.as_deref().unwrap_or("?"),
            h.read.context,
            h.read.pc,
            h.read.routine.as_deref().unwrap_or("?"),
            h.read.source_line.unwrap_or(0),
        );
    }
}

/// One of the paper's three bundled case-study programs, by name.
fn cmd_lint(args: &[String]) -> Result<(), Box<dyn Error>> {
    let args = parse_args("lint", args, &["app"], &["fixed", "json"], 1)?;
    reject_two_programs("lint", &args)?;
    let program = match args.value("app") {
        Some(name) => bundled_program(name, args.has("fixed"))?,
        None => {
            let path = args
                .positional(0)
                .ok_or("lint: missing <app.s> (or --app NAME)")?;
            let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            std::sync::Arc::new(tinyvm::assemble(&src)?)
        }
    };
    let report = sentomist::staticlint::lint(&program);
    if args.has("json") {
        println!("{}", serde_json::to_string_pretty(&report)?);
    } else {
        print!("{}", report.table());
    }
    Ok(())
}

/// Renders a slice report as a human table; the `--json` twin is the
/// serialized document itself.
fn print_slice_report(report: &sentomist::staticlint::SliceReport) {
    if report.seeds.is_empty() {
        println!("no slice seeds: the program lints clean and no --pc was given");
        return;
    }
    println!(
        "backward slice from {:?}: {} of {} instruction(s), {} cross-context edge(s)",
        report.seeds, report.stats.sliced, report.stats.instructions, report.stats.cross_edges
    );
    for i in &report.instructions {
        println!(
            "  pc {:>4}  {} (line {})",
            i.pc,
            i.routine.as_deref().unwrap_or("?"),
            i.source_line.unwrap_or(0)
        );
    }
    for e in &report.cross_edges {
        println!(
            "  edge: {} pc {} ({}) --{}--> {} pc {} ({})",
            e.writer_context,
            e.write_pc,
            e.write_routine.as_deref().unwrap_or("?"),
            e.object.as_deref().unwrap_or("?"),
            e.reader_context,
            e.read_pc,
            e.read_routine.as_deref().unwrap_or("?"),
        );
    }
}

/// `sentomist slice`: the static half of causal-chain reconstruction as
/// a standalone command. For bundled apps the report comes from
/// `apps::jobs::slice_document`'s builder — the exact call the mining
/// daemon answers Slice requests with, so `--app --json` output and a
/// daemon response are byte-identical by construction.
fn cmd_slice(args: &[String]) -> Result<(), Box<dyn Error>> {
    let args = parse_args("slice", args, &["app", "pc"], &["fixed", "json"], 1)?;
    reject_two_programs("slice", &args)?;
    let json = args.has("json");
    let pcs = flag_pcs(&args)?;
    if let Some(name) = args.value("app") {
        if json {
            print!("{}", slice_document(name, args.has("fixed"), &pcs)?);
        } else {
            print_slice_report(&bundled_slice_report(name, args.has("fixed"), &pcs)?);
        }
        return Ok(());
    }
    let path = args
        .positional(0)
        .ok_or("slice: missing <app.s> (or --app NAME)")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let program = tinyvm::assemble(&src)?;
    let seeds = if pcs.is_empty() {
        default_slice_seeds(&program)
    } else {
        pcs
    };
    let report = if seeds.is_empty() {
        sentomist::staticlint::SliceReport {
            seeds,
            instructions: Vec::new(),
            cross_edges: Vec::new(),
            stats: sentomist::staticlint::SliceStats {
                instructions: program.len(),
                sliced: 0,
                cross_edges: 0,
            },
        }
    } else {
        sentomist::staticlint::slice_report(&program, &seeds)?
    };
    if json {
        let mut doc = serde_json::to_string_pretty(&report)?;
        doc.push('\n');
        print!("{doc}");
    } else {
        print_slice_report(&report);
    }
    Ok(())
}

fn cmd_localize(args: &[String]) -> Result<(), Box<dyn Error>> {
    let args = parse_args(
        "localize",
        args,
        &["irq", "rank", "min-z", "detector", "nu"],
        &["causal"],
        2,
    )?;
    let trace_path = args.positional(0).ok_or("localize: missing <trace.json>")?;
    let app_path = args.positional(1).ok_or("localize: missing <app.s>")?;
    let irq = args.number_or("irq", 0)?;
    let rank = args.number_or("rank", 1usize)?.max(1);
    let min_z = args.number_or("min-z", 1.0)?;
    let trace = load_trace(trace_path)?;
    let src = std::fs::read_to_string(app_path)?;
    let program = tinyvm::assemble(&src)?;
    if program.len() != trace.program_len {
        return Err(format!(
            "program has {} instructions but the trace was recorded for {}",
            program.len(),
            trace.program_len
        )
        .into());
    }
    let samples = harvest_set(&trace, irq, |seq, _| SampleIndex::Seq(seq))?;
    let report = detector_from(&args)?.pipeline().rank_set(samples.clone())?;
    let target = report
        .ranking
        .get(rank - 1)
        .ok_or("rank beyond the number of intervals")?;
    let flagged = samples
        .meta
        .iter()
        .position(|m| m.index == target.index)
        .ok_or("ranked sample missing from the harvested set")?;
    let hits = localize_set(&samples, flagged, &program, min_z);
    let chain = if args.has("causal") {
        let lint = sentomist::staticlint::lint(&program);
        let interval = samples.meta[flagged].interval;
        let seeds: Vec<u16> = hits.iter().map(|h| h.pc).collect();
        causal_chain(&program, &trace, &interval, &seeds, &lint)?
    } else {
        None
    };
    // With a chain, restrict the flat hit list to chain members: the
    // causally connected subset is a strictly smaller explanation than
    // the full deviation ranking.
    let shown: Vec<_> = match &chain {
        Some(c) => hits.iter().filter(|h| c.contains(h.pc)).collect(),
        None => hits.iter().collect(),
    };
    println!(
        "interval {} (rank {rank}, score {:.4}): deviating instructions{}:",
        target.index,
        target.score,
        if chain.is_some() {
            format!(" ({} of {} on the causal chain)", shown.len(), hits.len())
        } else {
            String::new()
        }
    );
    for hit in shown.iter().take(12) {
        println!(
            "  pc {:>4}  z {:>7.2}  observed {:>7.0}  expected {:>9.1}  {} (line {})",
            hit.pc,
            hit.z_score,
            hit.observed,
            hit.expected,
            hit.routine.as_deref().unwrap_or("?"),
            hit.source_line.unwrap_or(0),
        );
    }
    if args.has("causal") {
        println!();
        match &chain {
            Some(c) => print_chain(c),
            None => println!(
                "no causal chain: no warning-anchored cross-context edge \
                 carried state into this interval"
            ),
        }
    }
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), Box<dyn Error>> {
    let args = parse_args("profile", args, &[], &[], 2)?;
    let trace_path = args.positional(0).ok_or("profile: missing <trace.json>")?;
    let app_path = args.positional(1).ok_or("profile: missing <app.s>")?;
    let trace = load_trace(trace_path)?;
    let src = std::fs::read_to_string(app_path)?;
    let program = tinyvm::assemble(&src)?;
    if program.len() != trace.program_len {
        return Err("program/trace instruction counts disagree".into());
    }
    let profile = sentomist::trace::Profile::try_of_trace(&trace, &program)?;
    print!("{}", profile.table());
    Ok(())
}

fn cmd_case(args: &[String]) -> Result<(), Box<dyn Error>> {
    use sentomist::apps::{Case1Config, Case2Config, Case3Config};
    let args = parse_args("case", args, &[], &[], 1)?;
    let which = args
        .positional(0)
        .ok_or_else(|| usage_error("case: missing <1|2|3>".into()))?;
    let study = match which {
        "1" => Case1Config::default().study()?,
        "2" => Case2Config::default().study()?,
        "3" => Case3Config::default().study()?,
        other => return Err(format!("unknown case `{other}`").into()),
    };
    let (result, _) = study.run()?;
    print!("{}", result.report.table(8, 2));
    println!(
        "\n{} samples; true symptoms at ranks {:?}",
        result.sample_count, result.buggy_ranks
    );
    Ok(())
}

type SupervisedJob = Box<dyn Fn(&RunContext) -> Result<RunOutcome, RunFailure> + Send + Sync>;

/// Resolves the campaign mode from command-line flags. The mode logic
/// itself lives in `apps::jobs` so the mining daemon resolves the exact
/// same modes.
fn campaign_mode(args: &Args) -> Result<Mode, Box<dyn Error>> {
    let (period, seconds, nu) = (
        args.number("period")?,
        args.number("seconds")?,
        args.number("nu")?,
    );
    // Given a trigger flag, resolving fails only on its combination with
    // --case: a misuse of the command line, so the usage follows.
    Mode::resolve(args.value("case"), period, seconds, nu).map_err(|e| {
        match (period, seconds, nu) {
            (None, None, None) => e.into(),
            _ => usage_error(format!("campaign: {e}")),
        }
    })
}

fn print_outcome(o: &RunOutcome) {
    let verdict = match o.verdict {
        Verdict::Triggered => "triggered",
        Verdict::Clean => "clean",
    };
    println!(
        "{:>6} {:>8} {:>9} {:>10} {:>10} {:>17}",
        o.seed,
        o.samples,
        o.symptoms,
        verdict,
        o.buggy_ranks
            .first()
            .map_or_else(|| "-".to_string(), ToString::to_string),
        o.trace_digest,
    );
}

fn print_campaign_table(result: &CampaignResult) {
    println!(
        "{:>6} {:>8} {:>9} {:>10} {:>10} {:>17}",
        "seed", "samples", "symptoms", "verdict", "best rank", "trace digest"
    );
    for o in &result.outcomes {
        print_outcome(o);
    }
    for e in &result.errors {
        println!(
            "{:>6} FAILED [{}, {} attempt{}]: {}",
            e.seed,
            e.kind.as_str(),
            e.attempts,
            if e.attempts == 1 { "" } else { "s" },
            e.message
        );
    }
    let s = result.summary();
    println!(
        "\ntrigger rate:  {}/{} runs ({:.0}%)",
        s.triggered,
        s.runs,
        100.0 * s.trigger_rate
    );
    println!(
        "detection:     best symptom in top-1 for {}, top-3 for {}, top-10 for {} \
         of the {} triggered runs",
        s.hits_top1, s.hits_top3, s.hits_top10, s.triggered
    );
    println!(
        "intervals:     {} total ({}..{} per run, mean {:.1})",
        s.total_samples, s.min_samples, s.max_samples, s.mean_samples
    );
    if s.failed > 0 {
        println!(
            "failures:      {} of {} run(s) failed ({} panic, {} timeout, \
             {} attempts spent, {:.0}% failure rate)",
            s.failed,
            s.runs + s.failed,
            s.panicked,
            s.timed_out,
            s.failed_attempts,
            100.0 * s.failure_rate
        );
    }
}

fn cmd_campaign(args: &[String]) -> Result<(), Box<dyn Error>> {
    let args = parse_args(
        "campaign",
        args,
        &[
            "case",
            "seeds",
            "base-seed",
            "threads",
            "period",
            "seconds",
            "nu",
            "store",
            "writers",
            "max-retries",
            "backoff-ms",
            "timeout-ms",
            "timeout-cycles",
            "chaos",
            "chaos-rate",
            "stop-after",
            "seed",
        ],
        &["json", "progress", "resume", "strict", "replay"],
        0,
    )?;
    let mode = campaign_mode(&args)?;
    // The cycle budget is a supervisor option, not a mode parameter,
    // but only the trigger experiment's job meters itself in cycles.
    if args.has("case") && args.has("timeout-cycles") {
        return Err(usage_error(
            "campaign: --timeout-cycles configures the trigger experiment and cannot be \
             combined with --case"
                .into(),
        ));
    }
    let json = args.has("json");
    let mut config = mode.config_entries();

    if args.has("replay") {
        let seed = args
            .number("seed")?
            .ok_or("campaign --replay needs --seed S")?;
        // The sweep's own job, supervised as a fleet of one: no store,
        // no chaos, no retries.
        let traced = mode.supervised_traced_job()?;
        let report = supervise_once(
            seed,
            &SupervisorOptions::default(),
            std::sync::Arc::new(move |ctx: &RunContext| traced(ctx).map(|(outcome, _)| outcome)),
        );
        let Some(mut outcome) = report.outcome else {
            let message = report.error.map(|e| e.message).unwrap_or_default();
            return Err(format!("seed {seed}: {message}").into());
        };
        outcome.wall_time_ms = report.wall_time_ms;
        if json {
            let doc = Value::Map(vec![
                (
                    "config".to_string(),
                    Value::Map(std::mem::take(&mut config)),
                ),
                ("outcome".to_string(), Serialize::to_value(&outcome)),
            ]);
            println!("{}", serde_json::to_string_pretty(&doc)?);
        } else {
            println!(
                "{:>6} {:>8} {:>9} {:>10} {:>10} {:>17}",
                "seed", "samples", "symptoms", "verdict", "best rank", "trace digest"
            );
            print_outcome(&outcome);
            println!(
                "\nreplayed in {} ms; the trace digest above must equal the \
                 campaign row's digest for the same seed",
                outcome.wall_time_ms
            );
        }
        return Ok(());
    }

    let n_seeds: u64 = args.number_or("seeds", 16)?;
    let base_seed: u64 = args.number_or("base-seed", 1000)?;
    let threads = args.number_or("threads", 1usize)?.max(1);
    let seeds: Vec<u64> = (0..n_seeds).map(|i| base_seed + i).collect();
    config.push(("seeds".to_string(), Serialize::to_value(&n_seeds)));
    config.push(("base_seed".to_string(), Serialize::to_value(&base_seed)));

    // Supervision knobs. Deliberately excluded from the config block:
    // like --threads, they must never influence the serialized document
    // of the runs that succeed.
    let strict = args.has("strict");
    let resume = args.has("resume");
    // Like --threads, --writers is a topology knob: it decides which
    // shard a run lands in, never what the run contains, so the merged
    // index and the re-mined document are byte-identical for every W.
    let writers = args.number_or("writers", 1u64)?.max(1);
    let sup = SupervisorOptions {
        threads,
        progress: args.has("progress"),
        max_retries: args.number_or("max-retries", 0)?,
        timeout: args
            .number("timeout-ms")?
            .map(std::time::Duration::from_millis),
        cycle_budget: args.number("timeout-cycles")?,
        backoff_base_ms: args.number_or("backoff-ms", 25)?,
        stop_after: args.number("stop-after")?,
    };
    let chaos = match args.number("chaos")? {
        Some(seed) => Some(ChaosConfig::uniform(
            seed,
            args.number_or("chaos-rate", 0.1)?,
        )),
        None => None,
    };

    let store = match args.value("store") {
        Some(dir) if resume => Some(TraceStore::open(dir)?),
        Some(dir) => Some(TraceStore::create(dir)?),
        None if resume => {
            return Err("campaign --resume needs --store DIR \
                        (the checkpoint journal lives in the corpus)"
                .into())
        }
        None => None,
    };

    // Resume: every seed the journal sealed before the campaign died is
    // adopted as-is; only the remainder is re-run.
    let mut completed: Vec<SeedReport> = Vec::new();
    if resume {
        let store = store.as_ref().expect("resume implies store");
        let mut by_seed: HashMap<u64, SeedReport> = HashMap::new();
        for line in store.journal_lines()? {
            let report: SeedReport = serde_json::from_str(&line).map_err(|e| {
                format!(
                    "corrupt journal line in {dir}: {e}",
                    dir = store.root().display()
                )
            })?;
            by_seed.insert(report.seed, report);
        }
        completed = seeds.iter().filter_map(|s| by_seed.remove(s)).collect();
    }
    let done: std::collections::HashSet<u64> = completed.iter().map(|r| r.seed).collect();
    let pending: Vec<u64> = seeds
        .iter()
        .copied()
        .filter(|s| !done.contains(s))
        .collect();
    if resume && !completed.is_empty() {
        eprintln!(
            "campaign: resuming — {} of {} seed(s) adopted from the journal, {} to run",
            completed.len(),
            seeds.len(),
            pending.len()
        );
    }

    // The supervised job: emulate-and-mine, persisting traces when a
    // store is attached, with chaos faults (if any) fired in front.
    let traced = mode.supervised_traced_job()?;
    let inner: SupervisedTracedJob = match &store {
        None => traced,
        Some(store) => {
            let store = store.clone();
            let mode_name = mode.name();
            let program_digest = mode.program_digest()?;
            Box::new(move |ctx: &RunContext| {
                let (outcome, traces) = traced(ctx)?;
                // With one writer, runs land in the flat top-level tree;
                // with several, each seed hashes to a shard sub-store so
                // no two writers ever publish into the same directory.
                let sink = if writers > 1 {
                    store
                        .shard(&format!("writer-{:02}", ctx.seed() % writers))
                        .map_err(|e| RunFailure::Transient(format!("opening shard: {e}")))?
                } else {
                    store.clone()
                };
                sink.save_run(ctx.seed(), mode_name, program_digest, &traces)
                    .map_err(|e| RunFailure::Transient(format!("storing run: {e}")))?;
                Ok((outcome, traces))
            })
        }
    };
    let plain: SupervisedJob =
        Box::new(move |ctx: &RunContext| inner(ctx).map(|(outcome, _)| outcome));
    let job: SupervisedJob = match chaos {
        Some(cfg) => Box::new(cfg.wrap(plain)),
        None => plain,
    };

    let journal_store = store.clone();
    let started = std::time::Instant::now();
    let mut result = run_supervised(&pending, &sup, std::sync::Arc::new(job), |report| {
        // Checkpoint each finished seed the moment it lands; a journal
        // hiccup must not kill the campaign, so it only warns.
        if let Some(store) = &journal_store {
            match serde_json::to_string(report) {
                Ok(line) => {
                    if let Err(e) = store.append_journal(&line) {
                        eprintln!("campaign: journal append failed: {e}");
                    }
                }
                Err(e) => eprintln!("campaign: journal encode failed: {e}"),
            }
        }
    });
    for report in completed {
        match (report.outcome, report.error) {
            (Some(outcome), _) => result.outcomes.push(outcome),
            (None, Some(error)) => result.errors.push(error),
            (None, None) => {}
        }
    }
    result.outcomes.sort_by_key(|o| o.seed);
    result.errors.sort_by_key(|e| e.seed);
    let elapsed = started.elapsed();

    let finished = result.outcomes.len() + result.errors.len() >= seeds.len();
    if let Some(store) = &store {
        if finished {
            store.save_campaign(&CampaignManifest {
                format_version: MANIFEST_VERSION,
                mode: mode.name().to_string(),
                params: mode.params(),
                seeds: n_seeds,
                base_seed,
                errors: result
                    .errors
                    .iter()
                    .map(|e| StoredRunError {
                        seed: e.seed,
                        message: e.message.clone(),
                        kind: e.kind.as_str().to_string(),
                        attempts: e.attempts,
                    })
                    .collect(),
            })?;
            store.clear_journal()?;
            // Stamp a fresh generation of the merged index over whatever
            // shard topology this sweep used; readers and `trace mine`
            // see one corpus either way.
            CorpusIndex::merge(store)?;
            eprintln!(
                "campaign: stored {} run(s) under {dir} (re-mine with \
                 `sentomist trace mine {dir}`)",
                result.outcomes.len(),
                dir = store.root().display()
            );
        } else {
            eprintln!(
                "campaign: stopped with {} of {} seed(s) done — checkpoint retained, \
                 continue with `sentomist campaign --resume --store {dir} [same flags]`",
                result.outcomes.len() + result.errors.len(),
                seeds.len(),
                dir = store.root().display()
            );
        }
    }

    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&campaign_document(std::mem::take(&mut config), &result))?
        );
    } else {
        print_campaign_table(&result);
        println!(
            "time:          {:.2} s wall on {} thread(s), {:.2} s total job time",
            elapsed.as_secs_f64(),
            threads,
            result.cpu_time_ms() as f64 / 1000.0
        );
        println!("replay a row:  sentomist campaign --replay --seed <seed> [same flags]");
    }
    if strict && !result.errors.is_empty() {
        return Err(format!(
            "--strict: {} of {} run(s) failed",
            result.errors.len(),
            seeds.len()
        )
        .into());
    }
    Ok(())
}

fn cmd_hunt(args: &[String]) -> Result<(), Box<dyn Error>> {
    use sentomist::apps::{hunt_iteration, HuntCase, Variant};
    use sentomist::core::hunt::{HuntReport, InvariantPolicy, IterationRecord, TargetReport};
    use sentomist::core::supervise::run_supervised_typed;
    use std::path::PathBuf;
    use std::sync::Arc;

    let args = parse_args(
        "hunt",
        args,
        &[
            "case",
            "iterations",
            "campaign-seed",
            "threads",
            "top-k",
            "out",
            "store",
            "max-retries",
            "timeout-ms",
            "seed",
        ],
        &["fixed", "json", "progress", "strict", "replay"],
        0,
    )?;
    let json = args.has("json");
    let variant = if args.has("fixed") {
        Variant::Fixed
    } else {
        Variant::Buggy
    };
    let policy = InvariantPolicy {
        top_k: args.number_or("top-k", 3)?,
    };
    let cases: Vec<HuntCase> = match args.value("case").unwrap_or("all") {
        "all" => HuntCase::ALL.to_vec(),
        v => vec![v
            .parse::<u64>()
            .ok()
            .and_then(HuntCase::from_number)
            .ok_or_else(|| format!("--case wants 1, 2, 3 or all, got `{v}`"))?],
    };

    if args.has("replay") {
        let seed = args.number("seed")?.ok_or("hunt --replay needs --seed S")?;
        let &[case] = cases.as_slice() else {
            return Err("hunt --replay needs a single --case (1, 2 or 3)".into());
        };
        let (record, _traces) = hunt_iteration(case, variant, seed, &policy, None)
            .map_err(|e| format!("seed {seed}: {}", e.message()))?;
        if json {
            println!("{}", serde_json::to_string_pretty(&record)?);
        } else {
            println!(
                "hunt replay: {} ({}) seed {seed}",
                case.name(),
                variant.name()
            );
            println!(
                "  samples {}, symptoms {}, verdict {:?}, trace digest {}",
                record.outcome.samples,
                record.outcome.symptoms,
                record.outcome.verdict,
                record.outcome.trace_digest
            );
            if record.violations.is_empty() {
                println!(
                    "  no invariant violations ({} checked)",
                    record.checked.len()
                );
            }
            for v in &record.violations {
                println!("  VIOLATION {}: {}", v.invariant.slug(), v.message);
            }
            println!(
                "\nthe record above is a pure function of the seed — rerunning \
                 this replay (any thread count) must print it bit for bit"
            );
        }
        return Ok(());
    }

    let iterations: u64 = args.number_or("iterations", 25)?;
    let campaign_seed: u64 = args.number_or("campaign-seed", 0xBEEF)?;
    let threads = args.number_or("threads", 1usize)?.max(1);
    let strict = args.has("strict");
    let progress = args.has("progress");
    let out_dir = PathBuf::from(args.value("out").unwrap_or("."));
    let sup = SupervisorOptions {
        threads,
        max_retries: args.number_or("max-retries", 0)?,
        timeout: args
            .number("timeout-ms")?
            .map(std::time::Duration::from_millis),
        ..SupervisorOptions::default()
    };
    // Scenario seeds are a pure function of (campaign seed, iteration);
    // every target sweeps the same seeds.
    let seeds: Vec<u64> = (0..iterations)
        .map(|i| campaign_seed.wrapping_add(i))
        .collect();
    let store_root = match args.value("store") {
        Some(dir) => Some(TraceStore::create(dir)?),
        None => None,
    };

    let started = std::time::Instant::now();
    let mut targets = Vec::new();
    for case in cases {
        // Each target journals its traces into its own substore of the
        // corpus; with a store attached, the mining-determinism
        // invariant re-mines from the persisted (digest-verified) bytes
        // instead of from memory.
        let substore = match &store_root {
            Some(root) => Some(TraceStore::create(
                root.root()
                    .join("targets")
                    .join(format!("{}-{}", case.name(), variant.name())),
            )?),
            None => None,
        };
        let pol = policy;
        let job = move |ctx: &RunContext| {
            hunt_iteration(case, variant, ctx.seed(), &pol, substore.as_ref())
                .map(|(record, _)| record)
        };
        let label = format!("{}-{}", case.name(), variant.name());
        let result = run_supervised_typed(&seeds, &sup, Arc::new(job), |report| {
            if progress {
                match (&report.outcome, &report.error) {
                    (Some(r), _) => eprintln!(
                        "hunt: [{label}] seed {} ok — {} violation(s)",
                        report.seed,
                        r.violations.len()
                    ),
                    (_, Some(e)) => {
                        eprintln!("hunt: [{label}] seed {} FAILED: {}", report.seed, e.message)
                    }
                    (None, None) => {}
                }
            }
        });
        let records: Vec<IterationRecord> = result.outcomes.into_iter().map(|(_, r)| r).collect();
        let repro_template = format!(
            "hunt --case {}{} --replay --seed {{seed}}",
            case.number(),
            if variant.is_fixed() { " --fixed" } else { "" }
        );
        targets.push(TargetReport::from_records(
            case.name(),
            variant.name(),
            &repro_template,
            records,
            result.errors,
        ));
    }
    let elapsed = started.elapsed();

    let report = HuntReport {
        campaign_seed,
        iterations,
        top_k: policy.top_k,
        targets,
    };
    let markdown = report.to_markdown();
    let mut doc = serde_json::to_string_pretty(&report)?;
    doc.push('\n');

    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let md_path = out_dir.join("BUG_REPORT.md");
    let json_path = out_dir.join("bug_report.json");
    std::fs::write(&md_path, &markdown)
        .map_err(|e| format!("writing {}: {e}", md_path.display()))?;
    std::fs::write(&json_path, &doc)
        .map_err(|e| format!("writing {}: {e}", json_path.display()))?;
    if let Some(root) = &store_root {
        root.save_artifact("BUG_REPORT.md", &markdown)?;
        root.save_artifact("bug_report.json", &doc)?;
        eprintln!(
            "hunt: corpus stored under {} (targets/<case>-<variant>/)",
            root.root().display()
        );
    }

    if json {
        print!("{doc}");
    } else {
        println!(
            "{:<13} {:<6} {:>5} {:>9} {:>10} {:>7}",
            "target", "variant", "runs", "triggered", "violations", "failed"
        );
        for t in &report.targets {
            println!(
                "{:<13} {:<6} {:>5} {:>9} {:>10} {:>7}",
                t.target,
                t.variant,
                t.runs,
                t.triggered,
                t.records.iter().map(|r| r.violations.len()).sum::<usize>(),
                t.errors.len()
            );
        }
        println!(
            "\n{} invariant violation(s), {} failed run(s) in {:.2} s on {} thread(s)",
            report.violation_count(),
            report.error_count(),
            elapsed.as_secs_f64(),
            threads
        );
        println!("report:  {}", md_path.display());
        println!("         {}", json_path.display());
        println!("replay:  sentomist hunt --case <n> [--fixed] --replay --seed <seed>");
    }
    if strict && (report.violation_count() > 0 || report.error_count() > 0) {
        return Err(format!(
            "--strict: {} invariant violation(s), {} failed run(s)",
            report.violation_count(),
            report.error_count()
        )
        .into());
    }
    Ok(())
}

/// An unknown or missing subcommand: print the full usage text on
/// stderr (stdout stays clean for pipelines) and fail with a short,
/// grep-friendly message — every such branch exits nonzero.
fn usage_error(message: String) -> Box<dyn Error> {
    eprint!("{}", usage());
    message.into()
}

fn cmd_trace(args: &[String]) -> Result<(), Box<dyn Error>> {
    let sub = args.first().map(String::as_str).ok_or_else(|| {
        usage_error("trace: missing subcommand (record|ls|info|mine|quarantine|fsck|merge)".into())
    })?;
    let rest = &args[1..];
    match sub {
        "record" => cmd_trace_record(rest),
        "ls" => cmd_trace_ls(rest),
        "info" => cmd_trace_info(rest),
        "mine" => cmd_trace_mine(rest),
        "quarantine" => cmd_trace_quarantine(rest),
        "fsck" => cmd_trace_fsck(rest),
        "merge" => cmd_trace_merge(rest),
        other => Err(usage_error(format!(
            "unknown trace subcommand `{other}` (record|ls|info|mine|quarantine|fsck|merge)"
        ))),
    }
}

fn cmd_trace_fsck(args: &[String]) -> Result<(), Box<dyn Error>> {
    let args = parse_args("trace fsck", args, &[], &["repair"], 1)?;
    let root = args
        .positional(0)
        .ok_or("trace fsck: missing <store-dir>")?;
    let repair = args.has("repair");
    let store = TraceStore::open(root)?;
    let report = store.fsck(repair)?;
    if report.is_clean() {
        println!("{root}: clean — no pending log entries, temp files or damaged runs");
        return Ok(());
    }
    for target in &report.pending {
        println!("pending:   {target} (write-ahead intent without a commit)");
    }
    for tmp in &report.torn_tmp {
        println!("tmp:       {tmp}");
    }
    for run in &report.torn_runs {
        println!("torn:      {run} (manifest missing or unreadable)");
    }
    for run in &report.damaged_runs {
        println!("damaged:   {run} (trace file missing or short)");
    }
    if report.stale_index {
        println!("index:     stale (run set changed since the last merge)");
    }
    if repair {
        println!(
            "repaired: {} temp file(s) swept, {} run(s) quarantined, \
             index {}",
            report.torn_tmp.len(),
            report.torn_runs.len() + report.damaged_runs.len(),
            if report.stale_index {
                "rebuilt"
            } else {
                "already current"
            }
        );
        Ok(())
    } else {
        Err("store needs repair — rerun with --repair".into())
    }
}

fn cmd_trace_merge(args: &[String]) -> Result<(), Box<dyn Error>> {
    let args = parse_args("trace merge", args, &[], &[], 1)?;
    let root = args
        .positional(0)
        .ok_or("trace merge: missing <store-dir>")?;
    let store = TraceStore::open(root)?;
    let shards = store.shard_ids()?;
    if shards.is_empty() {
        println!("{root}: no shards — corpus is already flat");
        return Ok(());
    }
    // compact_shards republishes the merged index itself; load it back
    // for the summary line rather than bumping another generation.
    let moved = store.compact_shards()?;
    let index = CorpusIndex::load(&store)?
        .ok_or("compaction finished but left no index — store is damaged")?;
    println!(
        "merged {} run(s) from {} shard(s) into {root}/runs \
         (index generation {}, corpus digest {:016x})",
        moved.len(),
        shards.len(),
        index.generation,
        index.corpus_digest()
    );
    Ok(())
}

fn cmd_trace_quarantine(args: &[String]) -> Result<(), Box<dyn Error>> {
    let sub = args
        .first()
        .map(String::as_str)
        .ok_or_else(|| usage_error("trace quarantine: missing subcommand (ls)".into()))?;
    match sub {
        "ls" => {
            let args = parse_args("trace quarantine ls", &args[1..], &[], &[], 1)?;
            let root = args
                .positional(0)
                .ok_or("trace quarantine ls: missing <store-dir>")?;
            let store = TraceStore::open(root)?;
            let notes = store.quarantined()?;
            if notes.is_empty() {
                println!("quarantine is empty");
                return Ok(());
            }
            println!("{:<26} reason", "run");
            for note in &notes {
                println!("{:<26} {}", note.run_id, note.reason);
            }
            println!(
                "\n{} quarantined run(s) under {}",
                notes.len(),
                store.quarantine_dir().display()
            );
            Ok(())
        }
        other => Err(usage_error(format!(
            "unknown trace quarantine subcommand `{other}` (ls)"
        ))),
    }
}

fn cmd_trace_record(args: &[String]) -> Result<(), Box<dyn Error>> {
    let args = parse_args("trace record", args, &["cycles", "seed", "out"], &[], 1)?;
    let path = args.positional(0).ok_or("trace record: missing <app.s>")?;
    let cycles = args.number_or("cycles", 10_000_000)?;
    let seed = args.number_or("seed", 42)?;
    let out = args
        .value("out")
        .map_or_else(|| format!("{path}.stc"), String::from);
    let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let program = std::sync::Arc::new(tinyvm::assemble(&src)?);
    let mut node = Node::new(
        program.clone(),
        NodeConfig {
            seed,
            ..NodeConfig::default()
        },
    );
    // Tee the lifecycle stream: the writer encodes chunks to disk as the
    // VM emits items, the recorder keeps the trace for the digest line.
    let mut recorder = Recorder::new(program.len());
    let mut writer = TraceWriter::create(Path::new(&out), program.len())?;
    node.run(cycles, &mut tinyvm::Tee(&mut recorder, &mut writer))?;
    let stats = writer.finish()?;
    let trace = recorder.try_into_trace()?;
    println!(
        "recorded {} lifecycle events + {} segments over {} cycles",
        stats.events,
        stats.segments,
        node.cycle()
    );
    println!(
        "{out}: {} bytes ({:.1}% of the {}-byte fixed-width encoding), \
         trace digest {:016x}",
        stats.encoded_bytes,
        100.0 * stats.ratio(),
        stats.naive_bytes,
        trace.digest()
    );
    Ok(())
}

fn cmd_trace_ls(args: &[String]) -> Result<(), Box<dyn Error>> {
    let args = parse_args("trace ls", args, &[], &[], 1)?;
    let root = args.positional(0).ok_or("trace ls: missing <store-dir>")?;
    let store = TraceStore::open(root)?;
    if let Some(c) = store.campaign()? {
        println!(
            "campaign: mode {}, {} seed(s) from {}{}{}",
            c.mode,
            c.seeds,
            c.base_seed,
            if c.params.is_empty() {
                String::new()
            } else {
                format!(", {}", c.params.join(", "))
            },
            if c.errors.is_empty() {
                String::new()
            } else {
                format!(", {} failed run(s)", c.errors.len())
            },
        );
    }
    println!(
        "{:<26} {:>8} {:>7} {:>5} {:>10} {:>12}",
        "run", "seed", "mode", "nodes", "events", "bytes"
    );
    for m in store.manifests()? {
        let events: u64 = m.nodes.iter().map(|n| n.events).sum();
        let bytes: u64 = m.nodes.iter().map(|n| n.encoded_bytes).sum();
        println!(
            "{:<26} {:>8} {:>7} {:>5} {:>10} {:>12}",
            m.run_id,
            m.seed,
            m.mode,
            m.nodes.len(),
            events,
            bytes
        );
    }
    Ok(())
}

/// Loads one `.stc` file once: densifies it to count records, then
/// replays the same image through the online extractor for interval
/// statistics.
fn stc_file_info(path: &Path) -> Result<(), Box<dyn Error>> {
    let image = TraceImage::open(path)?;
    let view = image.view()?;
    println!(
        "{}: stc v{}, program length {}",
        path.display(),
        sentomist::tracestore::FORMAT_VERSION,
        view.program_len()
    );
    let trace = view.to_trace()?;
    let events = trace.events.len() as u64;
    let segments = trace.segments.len() as u64;
    let last_cycle = trace.events.last().map_or(0, |e| e.cycle);
    let bytes = image.bytes().len() as u64;
    println!("  {events} lifecycle events, {segments} segments, last event at cycle {last_cycle}");
    println!(
        "  {bytes} bytes on disk ({:.2} per event+segment pair)",
        if events + segments == 0 {
            0.0
        } else {
            bytes as f64 / (events + segments) as f64
        }
    );
    let intervals = view.replay_online()?;
    let mut per_irq: Vec<(u8, usize)> = Vec::new();
    for iv in &intervals {
        match per_irq.iter_mut().find(|(irq, _)| *irq == iv.irq) {
            Some((_, n)) => *n += 1,
            None => per_irq.push((iv.irq, 1)),
        }
    }
    per_irq.sort_unstable();
    println!("  {} event-handling intervals:", intervals.len());
    for (irq, n) in per_irq {
        println!("    irq {irq} ({}): {n}", tinyvm::isa::irq::name(irq));
    }
    Ok(())
}

/// Salvage report for one damaged (or whole) `.stc` file: recover the
/// checksummed prefix and account for what was lost.
fn stc_file_salvage(path: &Path) -> Result<(), Box<dyn Error>> {
    let salvage = sentomist::tracestore::salvage_trace_file(path)?;
    if salvage.complete {
        println!(
            "{}: intact — all {} chunk(s) verified, nothing to salvage",
            path.display(),
            salvage.recovered_chunks
        );
    } else {
        println!(
            "{}: damaged — {}",
            path.display(),
            salvage.error.as_deref().unwrap_or("unknown defect")
        );
    }
    println!(
        "  recovered {} chunk(s): {} event(s), {} segment(s) \
         ({} trailing event(s) dropped to restore the protocol)",
        salvage.recovered_chunks,
        salvage.trace.events.len(),
        salvage.trace.segments.len(),
        salvage.dropped_events
    );
    if salvage.lost_bytes > 0 {
        println!(
            "  {} byte(s) unreadable past the defect",
            salvage.lost_bytes
        );
    }
    println!("  salvaged trace digest {:016x}", salvage.trace.digest());
    Ok(())
}

fn cmd_trace_info(args: &[String]) -> Result<(), Box<dyn Error>> {
    let args = parse_args("trace info", args, &[], &["salvage"], 1)?;
    let path = Path::new(
        args.positional(0)
            .ok_or("trace info: missing <file.stc | store-dir>")?,
    );
    if args.has("salvage") {
        if path.is_dir() {
            return Err("trace info --salvage works on a single .stc file".into());
        }
        return stc_file_salvage(path);
    }
    if !path.is_dir() {
        return stc_file_info(path);
    }
    let store = TraceStore::open(path)?;
    if let Some(c) = store.campaign()? {
        println!(
            "campaign: mode {}, {} seed(s) from {}, params [{}]",
            c.mode,
            c.seeds,
            c.base_seed,
            c.params.join(", ")
        );
        for e in &c.errors {
            println!("  seed {} failed live: {}", e.seed, e.message);
        }
    }
    for m in store.manifests()? {
        println!(
            "{} (seed {}, mode {}, program {}):",
            m.run_id, m.seed, m.mode, m.program_digest
        );
        for n in &m.nodes {
            println!(
                "  {} — node {}, {} events, {} segments, {} bytes, digest {}",
                n.file, n.node, n.events, n.segments, n.encoded_bytes, n.trace_digest
            );
        }
    }
    Ok(())
}

fn cmd_trace_mine(args: &[String]) -> Result<(), Box<dyn Error>> {
    let args = parse_args(
        "trace mine",
        args,
        &["threads"],
        &["json", "progress", "quarantine"],
        1,
    )?;
    let root = args
        .positional(0)
        .ok_or("trace mine: missing <store-dir>")?;
    let store = TraceStore::open(root)?;
    let threads = args.number_or("threads", 1usize)?.max(1);
    let started = std::time::Instant::now();
    // The whole re-mine vertical is `apps::jobs::mine_corpus` — the
    // same call the mining daemon answers Mine requests with, so this
    // command and a daemon response are byte-identical by construction.
    let mined = mine_corpus(
        &store,
        &CorpusMineOptions {
            threads,
            progress: args.has("progress"),
            quarantine: args.has("quarantine"),
        },
    )?;
    let elapsed = started.elapsed();

    if args.has("json") {
        // The document already carries its trailing newline.
        print!("{}", mined.document);
        return Ok(());
    }
    print_campaign_table(&mined.result);
    for q in &mined.quarantined {
        println!(
            "quarantined:   {} (seed {}) — {}",
            q.run_id, q.seed, q.reason
        );
    }
    println!(
        "time:          {:.2} s wall on {} thread(s) — re-mined from {}, no emulation",
        elapsed.as_secs_f64(),
        threads,
        root
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "assemble" => cmd_assemble(rest),
        "run" => cmd_run(rest),
        "lint" => cmd_lint(rest),
        "slice" => cmd_slice(rest),
        "mine" => cmd_mine(rest),
        "localize" => cmd_localize(rest),
        "profile" => cmd_profile(rest),
        "case" => cmd_case(rest),
        "campaign" => cmd_campaign(rest),
        "hunt" => cmd_hunt(rest),
        "trace" => cmd_trace(rest),
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            Ok(())
        }
        other => Err(usage_error(format!("unknown command `{other}`"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
