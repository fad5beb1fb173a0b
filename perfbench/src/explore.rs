//! The explored path: repeated exhaustive (or depth-bounded) explorations
//! of one scenario through the model checker's public entry points.

use std::time::Instant;

use scup_harness::{campaign_from_str, AdversaryRegistry, Scenario};
use scup_mc::{explore_scenario, explore_scenario_obs, ExploreRecord, ObsConfig, Setup, Symmetry};
use scup_obs::chrome::TraceClock;

use crate::spans::Spans;
use crate::stats::median;
use crate::{mix, peak_rss_mb, Args, Report};

/// Set-ups timed before each exploration; their median is `setup_s`.
const SETUP_REPS: usize = 20;

struct Workload {
    toml: &'static str,
    /// The explored space must be exhausted, not cut at a depth bound.
    must_complete: bool,
}

fn workload(name: &str) -> Workload {
    match name {
        "explore-sink3" => Workload {
            toml: include_str!("../workloads/explore-sink3.toml"),
            must_complete: true,
        },
        _ => Workload {
            toml: include_str!("../workloads/explore-bftcup-equiv.toml"),
            must_complete: false,
        },
    }
}

struct Loaded {
    scenario: Scenario,
    threads: usize,
    registry: AdversaryRegistry,
    /// Every value any process proposes.
    proposals: Vec<u64>,
}

/// Parses the workload, sets the proposal from the benchmark seed and
/// builds the explorer's set-up and symmetry group, as every
/// exploration does first. Returns the nanoseconds of the last two.
fn setup(toml: &str, bench_seed: u64) -> Result<(Loaded, u64), String> {
    let campaign = campaign_from_str(toml)?;
    let threads = campaign.threads.max(1);
    let mut scenario = campaign
        .scenarios
        .into_iter()
        .next()
        .ok_or("explore workload declares no scenario")?;
    // One value for every correct process: a relabelling of the space.
    // The equivocating BFT-CUP leader plays u64::MAX - 1 and u64::MAX,
    // far above it.
    scenario.inputs = Some(vec![1 + mix(bench_seed) % 1_000_000]);
    let registry = AdversaryRegistry::builtin();
    let t = Instant::now();
    let built = Setup::from_scenario(&scenario, &registry)?;
    let symmetry = Symmetry::compute(&built);
    let mc_ns = t.elapsed().as_nanos() as u64;
    std::hint::black_box(symmetry.group_order());
    let mut proposals = built.inputs.clone();
    proposals.sort_unstable();
    proposals.dedup();
    Ok((
        Loaded {
            scenario,
            threads,
            registry,
            proposals,
        },
        mc_ns,
    ))
}

/// Runs [`setup`] [`SETUP_REPS`] times, pushing each whole set-up time and
/// the explorer's share of it, and recording that share as a span.
fn timed_setup(
    toml: &str,
    seed: u64,
    spans: &mut Spans,
    setup_s: &mut Vec<f64>,
    mc_setup_ms: &mut Vec<f64>,
) -> Result<Loaded, String> {
    let mut loaded = None;
    for _ in 0..SETUP_REPS {
        let start = spans.clock_ns();
        let t = Instant::now();
        let (l, mc_ns) = setup(toml, seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        mc_setup_ms.push(mc_ns as f64 / 1e6);
        spans.record("mc.setup", 0, start, mc_ns);
        loaded = Some(l);
    }
    Ok(loaded.expect("SETUP_REPS > 0"))
}

/// What must not change between explorations of the same space.
fn census(r: &ExploreRecord) -> (u64, u64, u64, u64, u64, bool, Vec<u64>) {
    (
        r.states,
        r.decided,
        r.violating,
        r.truncated,
        r.quiescent_undecided,
        r.complete,
        r.decided_values.clone(),
    )
}

fn check(wl: &Workload, l: &Loaded, r: &ExploreRecord, report: &mut Report) {
    if let Some(e) = &r.error {
        report.error(format!("{}: exploration error: {e}", r.scenario));
        return;
    }
    if r.violating != 0 {
        report.error(format!("{}: {} violating states", r.scenario, r.violating));
    }
    if wl.must_complete && !r.complete {
        report.error(format!("{}: exploration incomplete", r.scenario));
    }
    if let Some(v) = r.decided_values.iter().find(|v| !l.proposals.contains(v)) {
        report.error(format!(
            "{}: decided {v}, which no process proposed ({:?})",
            r.scenario, l.proposals
        ));
    }
    if wl.must_complete && r.decided_values.is_empty() {
        report.error(format!(
            "{}: a complete exploration decided nothing",
            r.scenario
        ));
    }
}

/// One timed exploration at `threads` workers, profiled or not.
fn explore(
    l: &Loaded,
    threads: usize,
    profile: bool,
    report: &mut Report,
) -> (ExploreRecord, f64, u64) {
    let start = Instant::now();
    let record = if profile {
        let clock = TraceClock::start();
        let mut events = Vec::new();
        let obs = ObsConfig {
            profile: true,
            ..ObsConfig::off()
        };
        explore_scenario_obs(
            &l.scenario,
            threads,
            &l.registry,
            obs,
            &clock,
            1,
            &mut events,
        )
    } else {
        explore_scenario(&l.scenario, threads, &l.registry)
    };
    let wall = start.elapsed();
    report.attempted += 1;
    if !record.passed || record.error.is_some() {
        report.failed += 1;
    }
    (record, wall.as_secs_f64(), wall.as_nanos() as u64)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let wl = workload(&args.workload);
    let mut report = Report::default();
    let mut spans = Spans::new(args.trace);

    let mut setup_s = Vec::new();
    let mut mc_setup_ms = Vec::new();
    let l = timed_setup(
        wl.toml,
        args.seed,
        &mut spans,
        &mut setup_s,
        &mut mc_setup_ms,
    )?;
    let workers = l.threads;
    report.notes.push(("workers", workers as f64));

    let mut first: Option<ExploreRecord> = None;
    let mut same_census = |r: &ExploreRecord, what: &str, report: &mut Report| {
        check(&wl, &l, r, report);
        match &first {
            None => first = Some(r.clone()),
            Some(f) if census(f) != census(r) => report.error(format!(
                "{}: census {:?} ({what}) differs from {:?}",
                r.scenario,
                census(r),
                census(f)
            )),
            Some(_) => {}
        }
    };

    let mut plain_s = Vec::new();
    let mut profiled_s = Vec::new();
    let mut phases: Vec<Vec<f64>> = vec![Vec::new(); PHASES.len()];
    let mut unattributed = Vec::new();
    let mut states_per_s = Vec::new();
    let mut transitions;
    let mut visited_peak = 0u64;
    let mut other_workers: Option<u64> = None;
    let started = Instant::now();
    let mut op = 0u64;
    loop {
        let iteration = Instant::now();
        let start_ns = spans.clock_ns();
        let (r, secs, ns) = explore(&l, workers, false, &mut report);
        spans.record("mc.explore", op, start_ns, ns);
        op += 1;
        same_census(&r, "plain", &mut report);
        plain_s.push(secs);
        states_per_s.push(r.states as f64 / secs);
        transitions = r.transitions;

        if args.trace {
            let start_ns = spans.clock_ns();
            let (r, secs, ns) = explore(&l, workers, true, &mut report);
            spans.record("mc.explore.profiled", op, start_ns, ns);
            op += 1;
            same_census(&r, "profiled", &mut report);
            profiled_s.push(secs);
            let obs = r
                .obs
                .as_ref()
                .ok_or("profiled exploration returned no profile")?;
            if obs.reexpansions != 0 {
                report.error(format!(
                    "{}: {} re-expansions",
                    r.scenario, obs.reexpansions
                ));
            }
            let mut covered = 0.0;
            for row in &obs.phases {
                let i = PHASES
                    .iter()
                    .position(|p| *p == row.phase)
                    .ok_or_else(|| format!("unknown explorer phase `{}`", row.phase))?;
                phases[i].push(row.nanos as f64 / 1e9);
                covered += row.nanos as f64 / 1e9;
            }
            // Phase times are summed over workers.
            unattributed.push(secs - covered / workers as f64);
            visited_peak = obs.worker_visited_peak;

            if other_workers.is_none() {
                // The census must not depend on the worker count; the
                // transition count does, and their ratio is reported.
                let other = if workers == 1 { 2 } else { 1 };
                let start_ns = spans.clock_ns();
                let (r, _, ns) = explore(&l, other, false, &mut report);
                spans.record("mc.explore.other_workers", op, start_ns, ns);
                op += 1;
                same_census(&r, "other worker count", &mut report);
                other_workers = Some(r.transitions);
            }
        }
        // Another exploration starts only if it should end within the
        // window.
        let next_s = iteration.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + next_s >= args.seconds {
            break;
        }
        // Set-up is re-measured across the run, so its median spans the
        // same stretch of machine time as the explorations.
        timed_setup(
            wl.toml,
            args.seed,
            &mut spans,
            &mut setup_s,
            &mut mc_setup_ms,
        )?;
    }
    let peak = peak_rss_mb()?;
    report.notes.push(("explorations", plain_s.len() as f64));
    if let Some(f) = &first {
        report.notes.push(("states", f.states as f64));
    }

    if args.trace {
        // Transitions at two workers over those at one, whichever of the
        // two the workload runs.
        let other = other_workers.expect("traced loop ran once") as f64;
        let ratio = if workers == 1 {
            other / transitions as f64
        } else {
            transitions as f64 / other
        };
        let n = profiled_s.len();
        report.metric("mc.setup_ms", "ms", median(&mc_setup_ms), mc_setup_ms.len());
        report.metric(
            "mc.states_per_s",
            "1/s",
            median(&states_per_s),
            states_per_s.len(),
        );
        report.metric("mc.transitions", "count", transitions as f64, plain_s.len());
        for (i, name) in PHASE_METRICS.iter().enumerate() {
            report.metric(name, "s", median(&phases[i]), n);
        }
        report.metric("mc.worker_transition_ratio", "ratio", ratio, 1);
        report.metric("mc.visited_peak", "count", visited_peak as f64, n);
        report.metric(
            "obs.trace_overhead_s",
            "s",
            median(&profiled_s) - median(&plain_s),
            n,
        );
        report.metric("bench.unattributed_s", "s", median(&unattributed), n);
        crate::write_trace(
            &args.workload,
            args.seed,
            &spans.to_chrome_json(&args.workload),
        )?;
    } else {
        // Every exploration repeats the same one, and a round is one
        // exploration: its time is the median repetition (see README.md).
        // One distinct run has no tail, so the tail and the median read
        // that same time.
        let v = median(&plain_s);
        report.metric("verdict_s", "s", v, plain_s.len());
        report.metric("run_p50_ms", "ms", v * 1e3, plain_s.len());
        report.metric("run_tail_ms", "ms", v * 1e3, plain_s.len());
        report.metric("peak_rss_mb", "MB", peak, 1);
        report.metric("setup_s", "s", median(&setup_s), setup_s.len());
        report.notes.push(("run_tail_percentile", 50.0));
    }
    Ok(report)
}

/// The explorer's profiled phases and the metrics they are reported as.
const PHASES: [&str; 6] = [
    "restore",
    "expand",
    "fingerprint",
    "canonicalize",
    "dedup",
    "settle",
];
const PHASE_METRICS: [&str; 6] = [
    "mc.restore_s",
    "mc.expand_s",
    "mc.fingerprint_s",
    "mc.canonicalize_s",
    "mc.dedup_s",
    "mc.settle_s",
];
