//! `sim-spot`: RUSH inside the simulator under spot-market churn.
//!
//! Offline, no sockets: the paper workload (`paper_experiment`, budget
//! ratio 2, inter-arrival 2 × `CALIBRATED_INTERARRIVAL`) runs under the
//! `heavy-churn` spot scenario (0.45 revocation duty cycle on the spot
//! half) with `RushScheduler` at the default δ. The kernel sees few
//! resident jobs, so `peel` and `solve` dominate rather than `map`, and
//! revoke/restock events exercise the capacity path. It is also the one
//! workload that measures scheduling quality, so a "faster" kernel that
//! changes decisions shows here.
//!
//! One run simulates many independent workloads of [`JOBS_PER_SIM`] jobs,
//! each from its own sub-seed of `--seed`, once each. A single
//! realization is one draw of the arrival backlog: its mean resident
//! count, and with it the wall time, differs by up to 3× between
//! realizations (a 250-job one took 0.3 to 1.1 s in one run). Many
//! realizations average that out; repeating one realization would not.

use crate::layers::{CoreTally, Span};
use crate::stats::{median, mix, peak_rss_mb, Dist};
use crate::{show, Opts, Report};
use rush_bench::{paper_experiment, CALIBRATED_INTERARRIVAL};
use rush_core::RushConfig;
use rush_planner::RushScheduler;
use rush_sim::job::JobSpec;
use rush_sim::outcome::SimResult;
use rush_sim::view::{ClusterView, TaskSample};
use rush_sim::{JobId, Scheduler};
use rush_workload::{generate, spot_scenarios, Experiment, WorkloadConfig};
use std::time::Instant;

/// Jobs in one simulated workload.
pub const JOBS_PER_SIM: usize = 250;

/// Simulations per measured second, sized so a run lasts about
/// `--seconds` on a 2.1 GHz Xeon core. The count depends only on
/// `--seconds`, so one seed always simulates the same workloads.
const SIMS_PER_SECOND: f64 = 1.5;

/// The spot scenario every simulation runs under.
const SCENARIO: &str = "heavy-churn";

struct Inputs {
    exp: Experiment,
    jobs: Vec<JobSpec>,
}

/// Builds one simulation's inputs from its sub-seed: generates the jobs,
/// calibrates their budgets on the nominal cluster, and attaches the spot
/// churn trajectory.
fn inputs(seed: u64) -> Result<Inputs, String> {
    let base = paper_experiment(seed);
    let cfg = WorkloadConfig {
        jobs: JOBS_PER_SIM,
        budget_ratio: 2.0,
        mean_interarrival: 2.0 * CALIBRATED_INTERARRIVAL,
        seed,
        ..Default::default()
    };
    let jobs = generate(&cfg, &base).map_err(|e| format!("workload: {e}"))?;
    let capacity = base.cluster().capacity();
    let horizon = jobs.iter().map(JobSpec::arrival).max().unwrap_or(0) + 20_000;
    let scenario = spot_scenarios()
        .into_iter()
        .find(|s| s.name == SCENARIO)
        .ok_or_else(|| format!("no spot scenario named {SCENARIO}"))?;
    let model = scenario.cluster_model(capacity, horizon);
    model.validate().map_err(|e| format!("spot model: {e}"))?;
    let exp = Experiment::new(base.cluster().clone())
        .with_interference(base.interference().clone())
        .with_sim_seed(seed)
        .with_cluster_model(&model);
    Ok(Inputs { exp, jobs })
}

/// Scheduling quality of one simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Quality {
    met: usize,
    time_aware: usize,
    utility_sum: f64,
    jobs: usize,
}

fn quality(result: &SimResult) -> Quality {
    let lat: Vec<f64> = result
        .time_aware_outcomes()
        .filter_map(|o| o.latency())
        .collect();
    Quality {
        met: lat.iter().filter(|&&l| l <= 0.0).count(),
        time_aware: lat.len(),
        utility_sum: result.utility_vector().iter().sum(),
        jobs: result.outcomes.len(),
    }
}

/// The untraced adapter: records how long the engine waits on the
/// scheduler per scheduling round, nothing else. A round is the hooks that
/// report what happened (arrival, completion, failure, capacity change)
/// and then the `assign` calls that hand out the free containers; the
/// first `assign` after a hook is where a dirty plan is recomputed. Most
/// single calls cost a few hundred nanoseconds, close to the clock's own
/// cost, so a round is the smallest unit whose time a user waits on.
struct Sampled {
    inner: RushScheduler,
    /// Nanoseconds per round, compact: a run keeps hundreds of thousands.
    round_ns: Vec<u32>,
    /// Whether the last call was `assign`: the next hook opens a round.
    assigning: bool,
    calls: u64,
}

impl Sampled {
    fn new(inner: RushScheduler) -> Sampled {
        Sampled {
            inner,
            round_ns: Vec::new(),
            assigning: true,
            calls: 0,
        }
    }

    fn timed<T>(&mut self, assign: bool, f: impl FnOnce(&mut RushScheduler) -> T) -> T {
        if !assign && self.assigning {
            self.round_ns.push(0);
        }
        self.assigning = assign;
        let t = Instant::now();
        let out = f(&mut self.inner);
        let ns = u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX);
        self.calls += 1;
        match self.round_ns.last_mut() {
            Some(round) => *round = round.saturating_add(ns),
            None => self.round_ns.push(ns),
        }
        out
    }
}

impl Scheduler for Sampled {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_job_arrival(&mut self, view: &ClusterView<'_>, job: JobId) {
        self.timed(false, |s| s.on_job_arrival(view, job));
    }
    fn on_task_complete(&mut self, view: &ClusterView<'_>, sample: TaskSample) {
        self.timed(false, |s| s.on_task_complete(view, sample));
    }
    fn on_task_failed(&mut self, view: &ClusterView<'_>, sample: TaskSample) {
        self.timed(false, |s| s.on_task_failed(view, sample));
    }
    fn on_capacity_change(&mut self, view: &ClusterView<'_>) {
        self.timed(false, |s| s.on_capacity_change(view));
    }
    fn assign(&mut self, view: &ClusterView<'_>) -> Option<JobId> {
        self.timed(true, |s| s.assign(view))
    }
}

/// SPI spans of the traced run.
#[derive(Debug, Default)]
struct SpiSpans {
    arrival: Span,
    complete: Span,
    failed: Span,
    capacity: Span,
    assign: Span,
}

impl SpiSpans {
    fn total_ns(&self) -> u64 {
        self.arrival.ns + self.complete.ns + self.failed.ns + self.capacity.ns + self.assign.ns
    }
}

/// The traced adapter: a span per SPI call, and the kernel's phase stats
/// read after each one.
struct Traced {
    inner: RushScheduler,
    spans: SpiSpans,
    core: CoreTally,
}

impl Traced {
    fn after(&mut self) {
        self.core.observe(0, self.inner.kernel());
    }
}

impl Scheduler for Traced {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_job_arrival(&mut self, view: &ClusterView<'_>, job: JobId) {
        let t = Instant::now();
        self.inner.on_job_arrival(view, job);
        self.spans.arrival.add(t);
        self.after();
    }
    fn on_task_complete(&mut self, view: &ClusterView<'_>, sample: TaskSample) {
        let t = Instant::now();
        self.inner.on_task_complete(view, sample);
        self.spans.complete.add(t);
        self.after();
    }
    fn on_task_failed(&mut self, view: &ClusterView<'_>, sample: TaskSample) {
        let t = Instant::now();
        self.inner.on_task_failed(view, sample);
        self.spans.failed.add(t);
        self.after();
    }
    fn on_capacity_change(&mut self, view: &ClusterView<'_>) {
        let t = Instant::now();
        self.inner.on_capacity_change(view);
        self.spans.capacity.add(t);
        self.after();
    }
    fn assign(&mut self, view: &ClusterView<'_>) -> Option<JobId> {
        let t = Instant::now();
        let out = self.inner.assign(view);
        self.spans.assign.add(t);
        self.after();
        out
    }
}

fn scheduler() -> RushScheduler {
    RushScheduler::new(RushConfig::default())
}

/// Whether two simulations decided the same, bit for bit.
fn same(a: &Quality, b: &Quality) -> bool {
    a.met == b.met
        && a.time_aware == b.time_aware
        && a.jobs == b.jobs
        && a.utility_sum.to_bits() == b.utility_sum.to_bits()
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let sims = ((opts.seconds as f64 * SIMS_PER_SECOND).round() as usize).max(2);
    let seeds: Vec<u64> = (0..sims as u64).map(|k| mix(opts.seed, k)).collect();
    let mut report = Report::default();

    // Untraced: the end-to-end numbers.
    let mut setup = Vec::new();
    let mut qualities = Vec::new();
    let (mut wall, mut calls, mut round_ns) = (0.0, 0, Vec::new());
    for &seed in &seeds {
        let t = Instant::now();
        let input = inputs(seed)?;
        let sched = scheduler();
        setup.push(t.elapsed().as_secs_f64());
        let jobs = input.jobs.len();
        let mut sampled = Sampled::new(sched);
        let t = Instant::now();
        let result = input
            .exp
            .run(input.jobs, &mut sampled)
            .map_err(|e| format!("sim: {e}"))?;
        wall += t.elapsed().as_secs_f64();
        calls += sampled.calls;
        round_ns.extend(sampled.round_ns);
        let q = quality(&result);
        report.check(q.jobs == jobs, || {
            format!("sim seed {seed}: {} of {jobs} jobs completed", q.jobs)
        });
        qualities.push(q);
    }
    // Read before the samples below are sorted into a copy.
    let rss = peak_rss_mb("self").ok_or("cannot read VmHWM from /proc/self/status")?;
    let lat = Dist::new(round_ns.iter().map(|&ns| f64::from(ns) / 1e6).collect());
    drop(round_ns);
    let rate = calls as f64 / wall;
    let met: usize = qualities.iter().map(|q| q.met).sum();
    let time_aware: usize = qualities.iter().map(|q| q.time_aware).sum();
    let jobs: usize = qualities.iter().map(|q| q.jobs).sum();
    let utility: f64 = qualities.iter().map(|q| q.utility_sum).sum();
    let hit_rate = met as f64 / time_aware.max(1) as f64;
    report.attempted = jobs as u64;
    report.failed = (sims * JOBS_PER_SIM).saturating_sub(jobs) as u64;
    report.check(lat.supports(0.99), || {
        format!("only {} scheduling rounds: too few for p99", lat.len())
    });

    println!("sim-spot: {sims} simulations x {JOBS_PER_SIM} jobs, scenario {SCENARIO}");
    show(
        "setup_s",
        median(&setup),
        "s",
        &format!("median of {} set-ups", setup.len()),
    );
    show("sim_wall_s", wall, "s", &format!("{sims} simulations"));
    show(
        "ops_per_s",
        rate,
        "1/s",
        &format!("{calls} scheduler calls, per second"),
    );
    show(
        "p50_ms",
        lat.quantile(0.5),
        "ms",
        &format!("per scheduling round, n={}", lat.len()),
    );
    show(
        "p95_ms",
        lat.quantile(0.95),
        "ms",
        &format!("{} beyond", lat.beyond(0.95)),
    );
    show(
        "round_p99_ms",
        lat.quantile(0.99),
        "ms",
        &format!("{} beyond", lat.beyond(0.99)),
    );
    show(
        "deadline_hit_rate",
        hit_rate,
        "fraction",
        &format!("{met}/{time_aware} time-aware jobs"),
    );
    show(
        "mean_utility",
        utility / jobs.max(1) as f64,
        "utility",
        &format!("{jobs} jobs"),
    );
    show(
        "error_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "fraction",
        "",
    );
    show("peak_rss_mb", rss, "MB", "this process runs the planner");

    let e = &mut report.e2e;
    e.insert("setup_s", median(&setup));
    e.insert("peak_rss_mb", rss);
    e.insert("ops_per_s", rate);
    e.insert("p50_ms", lat.quantile(0.5));
    e.insert("p95_ms", lat.quantile(0.95));
    e.insert("slo_attainment", hit_rate);
    if !opts.trace {
        return Ok(report);
    }

    // Traced: the same simulations again, with a span around every SPI
    // call and the kernel's phase stats read after each.
    let mut traced_wall = 0.0;
    let mut traced_sched = 0.0;
    let mut traced = Traced {
        inner: scheduler(),
        spans: SpiSpans::default(),
        core: CoreTally::default(),
    };
    for (&seed, q) in seeds.iter().zip(&qualities) {
        let input = inputs(seed)?;
        traced.inner = scheduler();
        traced.core.restart();
        let t = Instant::now();
        let result = input
            .exp
            .run(input.jobs, &mut traced)
            .map_err(|e| format!("sim: {e}"))?;
        traced_wall += t.elapsed().as_secs_f64();
        traced_sched += result.scheduler_time.as_secs_f64();
        let tq = quality(&result);
        report.check(same(&tq, q), || {
            format!("sim seed {seed}: traced run decided differently ({tq:?} vs {q:?})")
        });
    }
    let Traced { spans, core, .. } = traced;
    let spi_s = spans.total_ns() as f64 / 1e9;
    let core_s = core.phase_ns() as f64 / 1e9;
    let planner_self = spi_s - core_s;
    let engine_self = traced_wall - spi_s;
    // The parts must add up: kernel phases sit inside SPI spans, SPI spans
    // inside the engine's own scheduler timing, and that inside the wall.
    report.check(
        core_s <= spi_s && spi_s <= traced_sched && traced_sched <= traced_wall,
        || {
            format!(
                "span nesting broken: core {core_s:.3}s, spi {spi_s:.3}s, \
             engine-timed {traced_sched:.3}s, wall {traced_wall:.3}s"
            )
        },
    );
    report.check(spi_s >= 0.9 * traced_sched, || {
        format!("SPI spans cover {spi_s:.3}s of the engine's {traced_sched:.3}s scheduler time")
    });
    println!(
        "sim-spot traced: wall {traced_wall:.3}s = core {core_s:.3}s \
         + planner self {planner_self:.3}s + engine self {engine_self:.3}s"
    );

    report.zero_layers();
    core.fill(&mut report);
    let l = &mut report.layers;
    l.insert("planner.spi_assign_us", spans.assign.mean_us());
    l.insert("planner.spi_task_complete_us", spans.complete.mean_us());
    l.insert("planner.spi_capacity_change_us", spans.capacity.mean_us());
    l.insert("planner.self_s", planner_self);
    l.insert("sim.engine_self_s", engine_self);
    l.insert("trace.core_share", core_s / traced_wall);
    l.insert("trace.overhead_pct", (traced_wall - wall) / wall * 100.0);
    Ok(report)
}
