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
    bundled_program, bundled_slice_report, campaign_document, default_slice_seeds, fnv64,
    mine_corpus, slice_document, CorpusMineOptions, Mode, SupervisedTracedJob,
};
use sentomist::core::campaign::{CampaignResult, RunOutcome, Verdict};
use sentomist::core::chaos::ChaosConfig;
use sentomist::core::supervise::{
    run_supervised, RunContext, RunFailure, SeedReport, SupervisorOptions,
};
use sentomist::core::{
    causal_chain, corroborate_with_chain, harvest_set, localize_set, CausalChain, Pipeline,
    SampleIndex,
};
use sentomist::mlcore::{
    KdeDetector, KfdDetector, KnnDetector, MahalanobisDetector, OneClassSvm, OutlierDetector,
    PcaDetector,
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

  sentomist mine <trace.json> [--irq N] [--detector ocsvm|pca|knn|mahalanobis|kde|kfd]
                 [--nu X] [--top K] [--csv FILE]
                 [--corroborate <app.s>] [--min-z Z] [--causal]
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
                     [--causal]
      Explain the R-th most suspicious interval (default 1): which
      instructions deviate from the population. With --causal, also
      reconstruct the interval's causal chain and restrict the flat hit
      list to chain members — a strictly smaller, causally ordered
      explanation.

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
      --case each seed reruns the full case study. The aggregated output
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

fn parse_flags(args: &[String]) -> (Vec<String>, HashMap<String, String>) {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            // A flag followed by another flag (or nothing) is boolean:
            // it maps to the empty string and consumes no value.
            let value = match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    i += 2;
                    v.clone()
                }
                _ => {
                    i += 1;
                    String::new()
                }
            };
            flags.insert(name.to_string(), value);
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    (positional, flags)
}

/// Rejects flags the subcommand does not define: a typo like
/// `--iteratoins` must print the usage on stderr and exit nonzero, not
/// silently run with the default.
fn reject_unknown_flags(
    command: &str,
    flags: &HashMap<String, String>,
    allowed: &[&str],
) -> Result<(), Box<dyn Error>> {
    let mut unknown: Vec<&str> = flags
        .keys()
        .map(String::as_str)
        .filter(|name| !allowed.contains(name))
        .collect();
    unknown.sort_unstable();
    match unknown.first() {
        Some(name) => Err(usage_error(format!("{command}: unknown flag `--{name}`"))),
        None => Ok(()),
    }
}

/// Parses `--pc N[,N...]` into a pc list; absent means "default seeds".
fn flag_pcs(flags: &HashMap<String, String>) -> Result<Vec<u16>, String> {
    let Some(raw) = flags.get("pc") else {
        return Ok(Vec::new());
    };
    if raw.is_empty() {
        return Err("--pc wants a comma-separated pc list".into());
    }
    raw.split(',')
        .map(|s| {
            s.trim()
                .parse::<u16>()
                .map_err(|_| format!("--pc wants numbers, got `{s}`"))
        })
        .collect()
}

fn flag_u64(flags: &HashMap<String, String>, name: &str, default: u64) -> Result<u64, String> {
    match flags.get(name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} wants a number, got `{v}`")),
        None => Ok(default),
    }
}

fn flag_opt_u64(flags: &HashMap<String, String>, name: &str) -> Result<Option<u64>, String> {
    match flags.get(name) {
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("--{name} wants a number, got `{v}`")),
        None => Ok(None),
    }
}

fn flag_f64(flags: &HashMap<String, String>, name: &str, default: f64) -> Result<f64, String> {
    match flags.get(name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} wants a number, got `{v}`")),
        None => Ok(default),
    }
}

fn detector_from(flags: &HashMap<String, String>) -> Result<Box<dyn OutlierDetector>, String> {
    let nu = flag_f64(flags, "nu", 0.05)?;
    match flags.get("detector").map(String::as_str).unwrap_or("ocsvm") {
        "ocsvm" => Ok(Box::new(OneClassSvm::with_nu(nu))),
        "pca" => Ok(Box::new(PcaDetector::default())),
        "knn" => Ok(Box::new(KnnDetector::default())),
        "mahalanobis" => Ok(Box::new(MahalanobisDetector::default())),
        "kde" => Ok(Box::new(KdeDetector::default())),
        "kfd" => Ok(Box::new(KfdDetector::default())),
        other => Err(format!("unknown detector `{other}`")),
    }
}

fn load_trace(path: &str) -> Result<Trace, Box<dyn Error>> {
    let data = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&data).map_err(|e| format!("parsing {path}: {e}").into())
}

fn cmd_assemble(args: &[String]) -> Result<(), Box<dyn Error>> {
    let (pos, _) = parse_flags(args);
    let path = pos.first().ok_or("assemble: missing <app.s>")?;
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
    let (pos, flags) = parse_flags(args);
    let path = pos.first().ok_or("run: missing <app.s>")?;
    let cycles = flag_u64(&flags, "cycles", 10_000_000)?;
    let seed = flag_u64(&flags, "seed", 42)?;
    let out = flags
        .get("trace")
        .cloned()
        .unwrap_or_else(|| format!("{path}.trace.json"));
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
    let (pos, flags) = parse_flags(args);
    let path = pos.first().ok_or("mine: missing <trace.json>")?;
    let irq = flag_u64(&flags, "irq", 0)? as u8;
    let top = flag_u64(&flags, "top", 10)? as usize;
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
        flags.get("detector").map(String::as_str).unwrap_or("ocsvm"),
    );
    let corroborate_app = flags.get("corroborate").filter(|s| !s.is_empty());
    let pipeline = Pipeline::new(detector_from(&flags)?);
    let report = pipeline.rank_set(samples.clone())?;
    print!("{}", report.table(top, 2));
    if let Some(csv_path) = flags.get("csv") {
        std::fs::write(csv_path, report.to_csv())?;
        println!("full ranking written to {csv_path}");
    }
    let Some(app_path) = corroborate_app else {
        if flags.contains_key("causal") {
            return Err("mine --causal needs --corroborate <app.s>".into());
        }
        return Ok(());
    };
    // Fuse: localize the top-ranked interval and join the implicated
    // instructions against the static analyzer's warnings.
    let min_z = flag_f64(&flags, "min-z", 1.0)?;
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
    let chain = if flags.contains_key("causal") {
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
    if flags.contains_key("causal") {
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
    let (pos, flags) = parse_flags(args);
    reject_unknown_flags("lint", &flags, &["app", "fixed", "json"])?;
    let json = flags.contains_key("json");
    let program = match flags.get("app") {
        Some(name) => bundled_program(name, flags.contains_key("fixed"))?,
        None => {
            let path = pos.first().ok_or("lint: missing <app.s> (or --app NAME)")?;
            let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            std::sync::Arc::new(tinyvm::assemble(&src)?)
        }
    };
    let report = sentomist::staticlint::lint(&program);
    if json {
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
    let (pos, flags) = parse_flags(args);
    reject_unknown_flags("slice", &flags, &["app", "fixed", "json", "pc"])?;
    let json = flags.contains_key("json");
    let pcs = flag_pcs(&flags)?;
    if let Some(name) = flags.get("app") {
        if json {
            print!(
                "{}",
                slice_document(name, flags.contains_key("fixed"), &pcs)?
            );
        } else {
            print_slice_report(&bundled_slice_report(
                name,
                flags.contains_key("fixed"),
                &pcs,
            )?);
        }
        return Ok(());
    }
    let path = pos
        .first()
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
    let (pos, flags) = parse_flags(args);
    let trace_path = pos.first().ok_or("localize: missing <trace.json>")?;
    let app_path = pos.get(1).ok_or("localize: missing <app.s>")?;
    let irq = flag_u64(&flags, "irq", 0)? as u8;
    let rank = flag_u64(&flags, "rank", 1)?.max(1) as usize;
    let min_z = flag_f64(&flags, "min-z", 1.0)?;
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
    let report = Pipeline::new(detector_from(&flags)?).rank_set(samples.clone())?;
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
    let chain = if flags.contains_key("causal") {
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
    if flags.contains_key("causal") {
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
    let (pos, _) = parse_flags(args);
    let trace_path = pos.first().ok_or("profile: missing <trace.json>")?;
    let app_path = pos.get(1).ok_or("profile: missing <app.s>")?;
    let trace = load_trace(trace_path)?;
    let src = std::fs::read_to_string(app_path)?;
    let program = tinyvm::assemble(&src)?;
    if program.len() != trace.program_len {
        return Err("program/trace instruction counts disagree".into());
    }
    let profile = sentomist::trace::Profile::of_trace(&trace, &program);
    print!("{}", profile.table());
    Ok(())
}

fn cmd_case(args: &[String]) -> Result<(), Box<dyn Error>> {
    use sentomist::apps::{run_case1, run_case2, run_case3, Case1Config, Case2Config, Case3Config};
    let (pos, flags) = parse_flags(args);
    reject_unknown_flags("case", &flags, &[])?;
    let which = match pos.as_slice() {
        [which] => which.as_str(),
        [] => return Err(usage_error("case: missing <1|2|3>".into())),
        [_, extra, ..] => return Err(usage_error(format!("case: unexpected argument `{extra}`"))),
    };
    let result = match which {
        "1" => run_case1(&Case1Config::default())?,
        "2" => run_case2(&Case2Config::default())?,
        "3" => run_case3(&Case3Config::default())?,
        other => return Err(format!("unknown case `{other}`").into()),
    };
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
fn campaign_mode(flags: &HashMap<String, String>) -> Result<Mode, Box<dyn Error>> {
    Ok(Mode::resolve(
        flags.get("case").map(String::as_str),
        flag_u64(flags, "period", 20)? as u32,
        flag_u64(flags, "seconds", 10)?,
        flag_f64(flags, "nu", 0.05)?,
    )?)
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
    use sentomist::core::campaign::replay;
    let (_, flags) = parse_flags(args);
    let json = flags.contains_key("json");
    let mode = campaign_mode(&flags)?;
    let mut config = mode.config_entries();

    if flags.contains_key("replay") {
        let seed = flags
            .get("seed")
            .ok_or("campaign --replay needs --seed S")?
            .parse::<u64>()
            .map_err(|_| "--seed wants a number")?;
        let outcome = replay(seed, mode.job()?).map_err(|e| format!("seed {seed}: {e}"))?;
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

    let n_seeds = flag_u64(&flags, "seeds", 16)?;
    let base_seed = flag_u64(&flags, "base-seed", 1000)?;
    let threads = flag_u64(&flags, "threads", 1)?.max(1) as usize;
    let seeds: Vec<u64> = (0..n_seeds).map(|i| base_seed + i).collect();
    config.push(("seeds".to_string(), Serialize::to_value(&n_seeds)));
    config.push(("base_seed".to_string(), Serialize::to_value(&base_seed)));

    // Supervision knobs. Deliberately excluded from the config block:
    // like --threads, they must never influence the serialized document
    // of the runs that succeed.
    let strict = flags.contains_key("strict");
    let resume = flags.contains_key("resume");
    // Like --threads, --writers is a topology knob: it decides which
    // shard a run lands in, never what the run contains, so the merged
    // index and the re-mined document are byte-identical for every W.
    let writers = flag_u64(&flags, "writers", 1)?.max(1);
    let sup = SupervisorOptions {
        threads,
        progress: flags.contains_key("progress"),
        max_retries: flag_u64(&flags, "max-retries", 0)? as u32,
        timeout: flag_opt_u64(&flags, "timeout-ms")?.map(std::time::Duration::from_millis),
        cycle_budget: flag_opt_u64(&flags, "timeout-cycles")?,
        backoff_base_ms: flag_u64(&flags, "backoff-ms", 25)?,
        stop_after: flag_opt_u64(&flags, "stop-after")?.map(|k| k as usize),
    };
    let chaos = match flag_opt_u64(&flags, "chaos")? {
        Some(seed) => Some(ChaosConfig::uniform(
            seed,
            flag_f64(&flags, "chaos-rate", 0.1)?,
        )),
        None => None,
    };

    let store = match flags.get("store").filter(|s| !s.is_empty()) {
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
    use sentomist::apps::{
        emulate_scenario, hunt_iteration, mine_scenario, mined_matches, scenario,
        scenario_evidence, scenario_program, HuntCase, Variant,
    };
    use sentomist::core::hunt::{
        check_invariants, HuntReport, InvariantPolicy, IterationRecord, TargetReport,
    };
    use sentomist::core::supervise::run_supervised_typed;
    use std::path::PathBuf;
    use std::sync::Arc;

    let (_, flags) = parse_flags(args);
    reject_unknown_flags(
        "hunt",
        &flags,
        &[
            "case",
            "fixed",
            "iterations",
            "campaign-seed",
            "threads",
            "top-k",
            "out",
            "store",
            "json",
            "progress",
            "strict",
            "max-retries",
            "timeout-ms",
            "replay",
            "seed",
        ],
    )?;
    let json = flags.contains_key("json");
    let variant = if flags.contains_key("fixed") {
        Variant::Fixed
    } else {
        Variant::Buggy
    };
    let policy = InvariantPolicy {
        top_k: flag_u64(&flags, "top-k", 3)? as usize,
    };
    let cases: Vec<HuntCase> = match flags.get("case").map(String::as_str).unwrap_or("all") {
        "all" | "" => HuntCase::ALL.to_vec(),
        v => vec![v
            .parse::<u64>()
            .ok()
            .and_then(HuntCase::from_number)
            .ok_or_else(|| format!("--case wants 1, 2, 3 or all, got `{v}`"))?],
    };

    if flags.contains_key("replay") {
        let seed = flags
            .get("seed")
            .ok_or("hunt --replay needs --seed S")?
            .parse::<u64>()
            .map_err(|_| "--seed wants a number")?;
        let &[case] = cases.as_slice() else {
            return Err("hunt --replay needs a single --case (1, 2 or 3)".into());
        };
        let (record, _traces) = hunt_iteration(case, variant, seed, &policy)
            .map_err(|e| format!("seed {seed}: {e}"))?;
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

    let iterations = flag_u64(&flags, "iterations", 25)?;
    let campaign_seed = flag_u64(&flags, "campaign-seed", 0xBEEF)?;
    let threads = flag_u64(&flags, "threads", 1)?.max(1) as usize;
    let strict = flags.contains_key("strict");
    let progress = flags.contains_key("progress");
    let out_dir = PathBuf::from(match flags.get("out").map(String::as_str) {
        Some("") | None => ".",
        Some(dir) => dir,
    });
    let sup = SupervisorOptions {
        threads,
        max_retries: flag_u64(&flags, "max-retries", 0)? as u32,
        timeout: flag_opt_u64(&flags, "timeout-ms")?.map(std::time::Duration::from_millis),
        ..SupervisorOptions::default()
    };
    // Scenario seeds are a pure function of (campaign seed, iteration);
    // every target sweeps the same seeds.
    let seeds: Vec<u64> = (0..iterations)
        .map(|i| campaign_seed.wrapping_add(i))
        .collect();
    let store_root = match flags.get("store").filter(|s| !s.is_empty()) {
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
        let job = move |ctx: &RunContext| -> Result<IterationRecord, RunFailure> {
            let seed = ctx.seed();
            let Some(store) = &substore else {
                return hunt_iteration(case, variant, seed, &pol)
                    .map(|(record, _)| record)
                    .map_err(RunFailure::Fatal);
            };
            let s = scenario(case, variant, seed);
            let traces = emulate_scenario(&s).map_err(RunFailure::Fatal)?;
            let mined = mine_scenario(&s, &traces).map_err(RunFailure::Fatal)?;
            let program = scenario_program(&s).map_err(RunFailure::Fatal)?;
            let digest = fnv64(tinyvm::disassemble(&program).as_bytes());
            let mode = format!("hunt-{}-{}", case.name(), variant.name());
            let manifest = store
                .save_run(seed, &mode, digest, &traces)
                .map_err(|e| RunFailure::Transient(format!("storing run: {e}")))?;
            let loaded = store
                .load_traces(&manifest)
                .map_err(|e| RunFailure::Transient(format!("loading stored run: {e}")))?;
            let remined = mine_scenario(&s, &loaded).map_err(RunFailure::Fatal)?;
            let remine_matches = mined_matches(&s, &mined, &remined);
            let evidence = scenario_evidence(&s, &mined, remine_matches);
            let (checked, violations) = check_invariants(&evidence, &pol);
            Ok(IterationRecord {
                seed,
                outcome: evidence.outcome,
                checked,
                violations,
            })
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
    let (pos, flags) = parse_flags(args);
    reject_unknown_flags("trace fsck", &flags, &["repair"])?;
    // `trace fsck --repair <dir>` parses the dir as the flag's value;
    // accept it from either position.
    let root = pos
        .first()
        .cloned()
        .or_else(|| flags.get("repair").filter(|s| !s.is_empty()).cloned())
        .ok_or("trace fsck: missing <store-dir>")?;
    let repair = flags.contains_key("repair");
    let store = TraceStore::open(&root)?;
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
    let (pos, flags) = parse_flags(args);
    reject_unknown_flags("trace merge", &flags, &[])?;
    let root = pos.first().ok_or("trace merge: missing <store-dir>")?;
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
            let (pos, flags) = parse_flags(&args[1..]);
            reject_unknown_flags("trace quarantine ls", &flags, &[])?;
            let root = pos
                .first()
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
    let (pos, flags) = parse_flags(args);
    reject_unknown_flags("trace record", &flags, &["cycles", "seed", "out"])?;
    let path = pos.first().ok_or("trace record: missing <app.s>")?;
    let cycles = flag_u64(&flags, "cycles", 10_000_000)?;
    let seed = flag_u64(&flags, "seed", 42)?;
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| format!("{path}.stc"));
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
    let (pos, flags) = parse_flags(args);
    reject_unknown_flags("trace ls", &flags, &[])?;
    let root = pos.first().ok_or("trace ls: missing <store-dir>")?;
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
    let (pos, flags) = parse_flags(args);
    reject_unknown_flags("trace info", &flags, &["salvage"])?;
    // `trace info --salvage <path>` parses the path as the flag's value;
    // accept it from either position.
    let target = pos
        .first()
        .cloned()
        .or_else(|| flags.get("salvage").filter(|s| !s.is_empty()).cloned())
        .ok_or("trace info: missing <file.stc | store-dir>")?;
    let path = Path::new(&target);
    if flags.contains_key("salvage") {
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
    let (pos, flags) = parse_flags(args);
    reject_unknown_flags(
        "trace mine",
        &flags,
        &["threads", "json", "progress", "quarantine"],
    )?;
    // `trace mine --quarantine <dir>` parses the dir as the flag's
    // value; accept it from either position.
    let root = pos
        .first()
        .cloned()
        .or_else(|| flags.get("quarantine").filter(|s| !s.is_empty()).cloned())
        .ok_or("trace mine: missing <store-dir>")?;
    let root = root.as_str();
    let json = flags.contains_key("json");
    let store = TraceStore::open(root)?;
    let threads = flag_u64(&flags, "threads", 1)?.max(1) as usize;
    let started = std::time::Instant::now();
    // The whole re-mine vertical is `apps::jobs::mine_corpus` — the
    // same call the mining daemon answers Mine requests with, so this
    // command and a daemon response are byte-identical by construction.
    let mined = mine_corpus(
        &store,
        &CorpusMineOptions {
            threads,
            progress: flags.contains_key("progress"),
            quarantine: flags.contains_key("quarantine"),
        },
    )?;
    let elapsed = started.elapsed();

    if json {
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
