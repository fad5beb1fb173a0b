//! The sampled path: rounds of `(scenario, seed)` runs through the
//! campaign runner, and their decomposition into layer calls.

use std::time::Instant;

use scup_fbqs::SliceFamily;
use scup_graph::{ProcessId, ProcessSet};
use scup_harness::campaign::{run_one, RunRecord};
use scup_harness::scenario::ValidityMode;
use scup_harness::{
    campaign_from_str, oracle, protocol, topology, AdversaryKind, AdversaryRegistry,
    InvariantReport, OracleMode, ProtocolSpec, Scenario,
};
use scup_scp::Value;
use stellar_cup::build_slices;
use stellar_cup::consensus::{self, EndToEndConfig};
use stellar_cup::sink_detector::GetSinkMode;

use crate::spans::Spans;
use crate::stats::{self, median, percentile};
use crate::{mix, peak_rss_mb, Args, Report};

/// Set-ups timed before each round; their median is `setup_s`.
const SETUP_REPS: usize = 20;

fn workload(name: &str) -> &'static str {
    match name {
        "sample-adversity" => include_str!("../workloads/sample-adversity.toml"),
        _ => include_str!("../workloads/sample-scale.toml"),
    }
}

/// The parsed workload: scenarios with seed bases drawn from the
/// benchmark seed, their resolved adversaries, and one round's runs.
struct Loaded {
    scenarios: Vec<Scenario>,
    adversaries: Vec<AdversaryKind>,
    registry: AdversaryRegistry,
    /// Runs on drawn seeds first, then runs on pinned seeds (from
    /// `ops[first_pinned]` on), so that peak memory can be read before the
    /// pinned runs.
    ops: Vec<(usize, u64)>,
    first_pinned: usize,
}

fn setup(toml: &str, bench_seed: u64) -> Result<Loaded, String> {
    let campaign = campaign_from_str(toml)?;
    let registry = AdversaryRegistry::builtin();
    let mut scenarios = campaign.scenarios;
    let mut adversaries = Vec::with_capacity(scenarios.len());
    let mut ops = Vec::new();
    let mut pinned = Vec::new();
    for (i, s) in scenarios.iter_mut().enumerate() {
        // A scenario that names its seeds keeps them; the others draw
        // theirs from the benchmark seed (shifted so that
        // `seed_base + seeds` cannot overflow).
        let to = if s.seed_base == 0 {
            s.seed_base = mix(bench_seed ^ mix(i as u64 + 1)) >> 16;
            &mut ops
        } else {
            &mut pinned
        };
        adversaries.push(registry.resolve(&s.adversary)?);
        to.extend((s.seed_base..s.seed_base + s.seeds).map(|seed| (i, seed)));
    }
    let first_pinned = ops.len();
    ops.append(&mut pinned);
    Ok(Loaded {
        scenarios,
        adversaries,
        registry,
        ops,
        first_pinned,
    })
}

/// One round of `run_one` calls, each timed. Returns the round's wall
/// time; appends each run's time to its list in `times_ms`, and sets
/// `peak_mb` to the peak resident set before the first pinned run.
fn untraced_round(
    loaded: &Loaded,
    reference: &mut Vec<RunRecord>,
    times_ms: &mut [Vec<f64>],
    peak_mb: &mut Option<f64>,
    report: &mut Report,
) -> Result<f64, String> {
    let round = Instant::now();
    for (k, &(si, seed)) in loaded.ops.iter().enumerate() {
        if k == loaded.first_pinned && peak_mb.is_none() {
            *peak_mb = Some(peak_rss_mb()?);
        }
        let t = Instant::now();
        let mut record = run_one(&loaded.scenarios[si], seed, &loaded.registry);
        times_ms[k].push(t.elapsed().as_secs_f64() * 1e3);
        report.attempted += 1;
        if !record.passed || record.error.is_some() {
            report.failed += 1;
            if reference.len() == k {
                eprintln!(
                    "failed run: {} seed {seed}: {}",
                    record.scenario,
                    record
                        .error
                        .clone()
                        .unwrap_or_else(|| record.invariants.violations.join("; "))
                );
            }
        }
        record.wall_micros = 0;
        match reference.get(k) {
            None => reference.push(record),
            Some(first) if *first != record => report.error(format!(
                "{} seed {seed}: run differs from the same run in the first round",
                record.scenario
            )),
            Some(_) => {}
        }
    }
    Ok(round.elapsed().as_secs_f64())
}

/// The decomposition of one run into layer calls.
struct Decomposed {
    decisions: Vec<Option<Value>>,
    inputs: Vec<Value>,
    faulty: ProcessSet,
    invariants: InvariantReport,
    delivered: u64,
    sent: u64,
    end_ticks: u64,
    sd_deliveries: Option<u64>,
    scp_deliveries: Option<u64>,
    envelopes: (u64, u64),
    fault_events: u64,
}

/// Runs `(scenario, seed)` through the same public layer calls the
/// campaign runner makes, each inside a span: topology, then sink
/// detection, Algorithm 2 and the SCP phase (stellar pipelines) or the
/// BFT-CUP driver as one call, then the oracles.
fn decompose(
    s: &Scenario,
    seed: u64,
    adversary: AdversaryKind,
    spans: &mut Spans,
    run: u64,
) -> Result<Decomposed, String> {
    let top = spans.open("graph.topology", run);
    let (kg, generated) = topology::instantiate(&s.topology, s.f, seed);
    let faulty = topology::place_faults(&s.faults, &kg, generated, seed)?;
    spans.close(top);

    let n = kg.n();
    let plan = s.fault_plan.to_plan();
    plan.validate(n)?;
    s.churn.to_plan(&kg).validate(n)?;
    let inputs = s.resolved_inputs(n);
    let config = EndToEndConfig {
        seed,
        gst: s.network.gst,
        delta: s.network.delta,
        get_sink_mode: GetSinkMode::Direct,
        adversary: adversary.to_scp(),
        inputs: Some(inputs.clone()),
        max_ticks: s.network.max_ticks,
        trace: false,
        faults: plan.clone(),
        retransmit: s.fault_plan.retransmit_config(&s.network),
        churn: s.churn.to_plan(&kg),
        forensics: false,
    };

    let mut d = Decomposed {
        decisions: Vec::new(),
        inputs: inputs.clone(),
        faulty: faulty.clone(),
        invariants: InvariantReport {
            termination: false,
            termination_required: true,
            agreement: false,
            validity: None,
            pledges_ok: true,
            premise: false,
            violations: Vec::new(),
        },
        delivered: 0,
        sent: 0,
        end_ticks: 0,
        sd_deliveries: None,
        scp_deliveries: None,
        envelopes: (0, 0),
        fault_events: 0,
    };
    let pledge_violations = match s.protocol {
        ProtocolSpec::BftCup => {
            let span = spans.open("cup.bftcup", run);
            let out = protocol::execute(
                s.protocol,
                &kg,
                s.f,
                &faulty,
                adversary,
                &s.network,
                &s.fault_plan,
                &s.churn,
                inputs.clone(),
                seed,
            );
            spans.close(span);
            d.decisions = out.decisions;
            d.delivered = out.messages_delivered;
            d.sent = out.messages_sent;
            d.end_ticks = out.end_ticks;
            d.fault_events = out.messages_dropped + out.messages_duplicated + out.retransmissions;
            out.pledge_violations
        }
        ProtocolSpec::StellarMinimal | ProtocolSpec::StellarLocal(_) => {
            let slices: Vec<SliceFamily> = if let ProtocolSpec::StellarLocal(strategy) = s.protocol
            {
                let span = spans.open("core.local_slices", run);
                let slices = kg
                    .processes()
                    .map(|i| strategy.build(kg.pd(i), s.f))
                    .collect();
                spans.close(span);
                slices
            } else {
                let span = spans.open("core.sink_detect", run);
                let (detections, sd) = consensus::run_sink_detection(&kg, s.f, &faulty, &config);
                spans.close(span);
                d.sd_deliveries = Some(sd.messages_delivered);
                d.delivered += sd.messages_delivered;
                d.sent += sd.messages_sent;
                d.fault_events += sd.messages_dropped + sd.messages_duplicated;
                let span = spans.open("core.build_slices", run);
                let slices = detections
                    .iter()
                    .map(|det| match det {
                        Some(det) => build_slices(det, s.f),
                        None => SliceFamily::empty(),
                    })
                    .collect();
                spans.close(span);
                slices
            };
            let span = spans.open("scp.phase", run);
            let phase =
                consensus::run_scp_with_slices_observed(&kg, &faulty, slices, &inputs, &config);
            spans.close(span);
            d.scp_deliveries = Some(phase.report.messages_delivered);
            d.delivered += phase.report.messages_delivered;
            d.sent += phase.report.messages_sent;
            d.end_ticks = phase.report.end_time.ticks();
            d.fault_events += phase.report.messages_dropped + phase.report.messages_duplicated;
            for ns in &phase.node_stats {
                d.envelopes.0 += ns.envelopes_duplicate;
                d.envelopes.1 += ns.envelopes_delivered;
                d.fault_events += ns.retransmissions;
            }
            d.decisions = phase.decisions;
            kg.processes()
                .filter(|i| !faulty.contains(*i))
                .flat_map(|i| {
                    scup_scp::journal_contradictions(&phase.journals[i.index()])
                        .into_iter()
                        .map(move |v| format!("process {i}: {v}"))
                })
                .collect()
        }
    };

    let span = spans.open("harness.oracle", run);
    let termination_required = plan.is_zero() || plan.heal_tick().is_some();
    d.invariants = oracle::evaluate_churned(
        &kg,
        s.f,
        &faulty,
        &s.churn.departed(),
        &d.inputs,
        &d.decisions,
        adversary,
        termination_required,
        &pledge_violations,
        s.validity,
    );
    spans.close(span);
    Ok(d)
}

/// The decided value `run_one` reports: the first correct process's
/// decision, when the correct processes agree.
fn decided_value(kg_n: usize, d: &Decomposed) -> Option<Value> {
    if !d.invariants.agreement {
        return None;
    }
    (0..kg_n as u32)
        .map(ProcessId::new)
        .filter(|i| !d.faulty.contains(*i))
        .find_map(|i| d.decisions[i.index()])
}

/// Checks one decomposed run against the same run through `run_one`, and
/// re-derives agreement and validity from the raw decision vector.
fn check(
    s: &Scenario,
    seed: u64,
    adversary: AdversaryKind,
    d: &Decomposed,
    reference: &RunRecord,
    report: &mut Report,
) {
    let who = format!("{} seed {seed}", s.name);
    let n = d.decisions.len();
    if decided_value(n, d) != reference.decided_value
        || d.invariants != reference.invariants
        || d.delivered != reference.messages_delivered
        || d.sent != reference.messages_sent
        || d.end_ticks != reference.end_ticks
    {
        report.error(format!(
            "{who}: the layer-by-layer run differs from run_one \
             (delivered {} vs {}, decided {:?} vs {:?})",
            d.delivered,
            reference.messages_delivered,
            decided_value(n, d),
            reference.decided_value
        ));
    }

    // Agreement among correct processes, departed ones included: a
    // decision taken before leaving still counts.
    let decided: Vec<Value> = (0..n)
        .filter(|&i| !d.faulty.contains(ProcessId::new(i as u32)))
        .filter_map(|i| d.decisions[i])
        .collect();
    let agree = decided.windows(2).all(|w| w[0] == w[1]);
    // Validity where the adversary injects no value: every decided value
    // is a correct process's proposal (a fail-stop process proposes
    // honestly before it stops).
    let crash = matches!(adversary, AdversaryKind::Crash { .. });
    let proposed_by_correct = |v: Value| {
        (0..n).any(|i| d.inputs[i] == v && (crash || !d.faulty.contains(ProcessId::new(i as u32))))
    };
    let valid = decided.iter().all(|&v| proposed_by_correct(v));
    let judged = adversary.preserves_validity();

    if agree != d.invariants.agreement {
        report.error(format!(
            "{who}: agreement recomputed as {agree}, oracle says {}",
            d.invariants.agreement
        ));
    }
    if judged && s.validity == ValidityMode::Strong && d.invariants.validity != Some(valid) {
        report.error(format!(
            "{who}: strong validity recomputed as {valid}, oracle says {:?}",
            d.invariants.validity
        ));
    }
    let safe = agree && (!judged || valid);
    let must_hold = match s.oracle {
        OracleMode::Require => true,
        OracleMode::Conditional => d.invariants.premise,
        OracleMode::Observe => false,
    };
    if s.expect_violation && safe {
        report.error(format!(
            "{who}: an exhibit run shows no agreement or validity violation"
        ));
    } else if !s.expect_violation && must_hold && !safe {
        report.error(format!(
            "{who}: decisions {:?} break agreement or validity (inputs {:?})",
            d.decisions, d.inputs
        ));
    }
}

/// Per-layer totals over the traced runs.
#[derive(Default)]
struct Layers {
    topology_us: Vec<f64>,
    sink_detect_ms: Vec<f64>,
    sd_deliveries: Vec<f64>,
    build_slices_us: Vec<f64>,
    bftcup_ms: Vec<f64>,
    fault_events: Vec<f64>,
    oracle_us: Vec<f64>,
    scp_ms: Vec<f64>,
    scp_deliveries: Vec<f64>,
    scp_ns: f64,
    envelopes: (u64, u64),
    delivered_total: f64,
    run_s_total: f64,
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn med0(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let toml = workload(&args.workload);
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let loaded = timed_setup(toml, args.seed, &mut setup_s)?;
    report
        .notes
        .push(("runs_per_round", loaded.ops.len() as f64));

    let mut reference: Vec<RunRecord> = Vec::with_capacity(loaded.ops.len());
    let mut times_ms = vec![Vec::new(); loaded.ops.len()];
    let mut rounds = Vec::new();
    let mut traced_rounds = Vec::new();
    let mut unattributed = Vec::new();
    let mut layers = Layers::default();
    let mut spans = Spans::new(args.trace);
    let mut peak_mb = None;
    let started = Instant::now();
    loop {
        let iteration = Instant::now();
        rounds.push(untraced_round(
            &loaded,
            &mut reference,
            &mut times_ms,
            &mut peak_mb,
            &mut report,
        )?);
        if args.trace {
            let (wall, covered) =
                traced_round(&loaded, &reference, &mut spans, &mut layers, &mut report)?;
            traced_rounds.push(wall);
            unattributed.push(wall - covered);
        }
        // Another round starts only if it, and the check pass after the
        // loop (about one untraced round), should end within the window.
        let check_s = if args.trace {
            0.0
        } else {
            rounds[rounds.len() - 1]
        };
        let next_s = iteration.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + next_s + check_s >= args.seconds {
            break;
        }
        // Set-up is re-measured across the run, so its median spans the
        // same stretch of machine time as the rounds.
        timed_setup(toml, args.seed, &mut setup_s)?;
    }
    // Without pinned runs, the peak over every run.
    let peak = match peak_mb {
        Some(p) => p,
        None => peak_rss_mb()?,
    };
    report.notes.push(("rounds", rounds.len() as f64));

    if args.trace {
        emit_layers(&mut report, &layers, &rounds, &traced_rounds, &unattributed);
        crate::write_trace(
            &args.workload,
            args.seed,
            &spans.to_chrome_json(&args.workload),
        )?;
        return Ok(report);
    }
    // Untimed: every distinct run once more, layer by layer, checked
    // against its `run_one` record and re-judged from its decisions.
    let mut off = Spans::new(false);
    for (k, &(si, seed)) in loaded.ops.iter().enumerate() {
        let s = &loaded.scenarios[si];
        let d = decompose(s, seed, loaded.adversaries[si], &mut off, k as u64)?;
        check(
            s,
            seed,
            loaded.adversaries[si],
            &d,
            &reference[k],
            &mut report,
        );
    }
    // Every round repeats the same runs. A run's time is the median of its
    // repetitions and the verdict time the median round: the host's speed
    // swings both ways, and a median moves less with it than the fastest
    // repetition does (see README.md). The tail is read over the distinct
    // runs, so its percentile depends on the workload alone.
    let run_ms: Vec<f64> = times_ms.iter().map(|t| median(t)).collect();
    let pct = stats::tail_percentile(run_ms.len()).unwrap_or(50.0);
    let (tail, beyond) = percentile(&run_ms, pct);
    report.metric("verdict_s", "s", median(&rounds), rounds.len());
    report.metric("run_p50_ms", "ms", median(&run_ms), run_ms.len());
    report.metric("run_tail_ms", "ms", tail, run_ms.len());
    report.metric("peak_rss_mb", "MB", peak, 1);
    report.metric("setup_s", "s", median(&setup_s), setup_s.len());
    report.notes.push(("run_tail_percentile", pct));
    report.notes.push(("run_tail_beyond", beyond as f64));
    let pinned_s = run_ms[loaded.first_pinned..].iter().sum::<f64>() / 1e3;
    report.notes.push(("pinned_runs_s", pinned_s));
    Ok(report)
}

/// Parses the workload [`SETUP_REPS`] times, pushing each time.
fn timed_setup(toml: &str, seed: u64, times: &mut Vec<f64>) -> Result<Loaded, String> {
    let mut loaded = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        loaded = Some(setup(toml, seed)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(loaded.expect("SETUP_REPS > 0"))
}

/// One round of layer-by-layer runs with spans on. Returns the round's
/// wall time and the part of it spent inside layer calls.
fn traced_round(
    loaded: &Loaded,
    reference: &[RunRecord],
    spans: &mut Spans,
    layers: &mut Layers,
    report: &mut Report,
) -> Result<(f64, f64), String> {
    let round = Instant::now();
    let first = spans.spans().len();
    for (k, &(si, seed)) in loaded.ops.iter().enumerate() {
        let s = &loaded.scenarios[si];
        let run = report.attempted;
        let top = spans.open("harness.run", run);
        let d = decompose(s, seed, loaded.adversaries[si], spans, run)?;
        spans.close(top);
        report.attempted += 1;
        let r = &reference[k];
        if !r.passed || r.error.is_some() {
            report.failed += 1;
        }
        check(s, seed, loaded.adversaries[si], &d, r, report);
        layers.fault_events.push(d.fault_events as f64);
        layers.delivered_total += d.delivered as f64;
        if let Some(sd) = d.sd_deliveries {
            layers.sd_deliveries.push(sd as f64);
        }
        if let Some(scp) = d.scp_deliveries {
            layers.scp_deliveries.push(scp as f64);
        }
        layers.envelopes.0 += d.envelopes.0;
        layers.envelopes.1 += d.envelopes.1;
    }
    let wall = round.elapsed().as_secs_f64();
    let mut covered = 0.0;
    for span in &spans.spans()[first..] {
        let ns = span.nanos() as f64;
        match span.name {
            "harness.run" => {
                layers.run_s_total += ns / 1e9;
                continue;
            }
            "graph.topology" => layers.topology_us.push(ns / 1e3),
            "core.sink_detect" => layers.sink_detect_ms.push(ns / 1e6),
            "core.build_slices" => layers.build_slices_us.push(ns / 1e3),
            "cup.bftcup" => layers.bftcup_ms.push(ns / 1e6),
            "harness.oracle" => layers.oracle_us.push(ns / 1e3),
            "scp.phase" => {
                layers.scp_ms.push(ns / 1e6);
                layers.scp_ns += ns;
            }
            _ => {}
        }
        covered += ns / 1e9;
    }
    Ok((wall, covered))
}

fn emit_layers(
    report: &mut Report,
    l: &Layers,
    rounds: &[f64],
    traced: &[f64],
    unattributed: &[f64],
) {
    report.metric(
        "graph.topology_us",
        "us",
        med0(&l.topology_us),
        l.topology_us.len(),
    );
    report.metric(
        "core.sink_detect_ms",
        "ms",
        med0(&l.sink_detect_ms),
        l.sink_detect_ms.len(),
    );
    report.metric(
        "core.sink_detect_deliveries",
        "count",
        mean(&l.sd_deliveries),
        l.sd_deliveries.len(),
    );
    report.metric(
        "core.build_slices_us",
        "us",
        med0(&l.build_slices_us),
        l.build_slices_us.len(),
    );
    report.metric("cup.bftcup_ms", "ms", med0(&l.bftcup_ms), l.bftcup_ms.len());
    report.metric(
        "sim.fault_events",
        "count",
        mean(&l.fault_events),
        l.fault_events.len(),
    );
    report.metric(
        "harness.oracle_us",
        "us",
        med0(&l.oracle_us),
        l.oracle_us.len(),
    );
    report.metric("scp.phase_ms", "ms", med0(&l.scp_ms), l.scp_ms.len());
    report.metric(
        "scp.deliveries",
        "count",
        mean(&l.scp_deliveries),
        l.scp_deliveries.len(),
    );
    let share = if l.envelopes.1 == 0 {
        0.0
    } else {
        l.envelopes.0 as f64 / l.envelopes.1 as f64
    };
    report.metric(
        "scp.dup_envelope_share",
        "ratio",
        share,
        l.scp_deliveries.len(),
    );
    let scp_delivered: f64 = l.scp_deliveries.iter().sum();
    let per = if scp_delivered == 0.0 {
        0.0
    } else {
        l.scp_ns / scp_delivered
    };
    report.metric("scp.ns_per_delivery", "ns", per, l.scp_deliveries.len());
    report.metric(
        "sim.delivered_per_s",
        "1/s",
        l.delivered_total / l.run_s_total,
        l.fault_events.len(),
    );
    report.metric(
        "obs.trace_overhead_s",
        "s",
        median(traced) - median(rounds),
        traced.len(),
    );
    report.metric(
        "bench.unattributed_s",
        "s",
        median(unattributed),
        unattributed.len(),
    );
}
