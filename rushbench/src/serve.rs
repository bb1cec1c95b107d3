//! `serve-1k`: `rushd` under traffic.
//!
//! The daemon runs in a child process (this binary re-executed with
//! [`DAEMON_FLAG`]) with the reactor frontend, 2 planner shards and a 2 ms
//! epoch window, so its peak RSS is the planner's own. The load generator
//! lives in this process and only sends generated requests.
//!
//! The run has [`ROUNDS`] rounds, each against a freshly started daemon
//! preloaded with [`RESIDENT_1K`] jobs: a Poisson open loop over two RUSH1
//! connections (`report-sample` + `predict` pairs on one, `submit` +
//! `cancel`-the-oldest on the other, so residency stays put; every request
//! timed from its *scheduled* send time), then a fixed count of
//! back-to-back closed-loop pairs.
//!
//! The traced run replays the identical op stream in this process through
//! the codec functions and `ServeState`, one state per shard as the daemon
//! holds them.

use crate::layers::{CoreTally, Span};
use crate::stats::{median, mix, peak_rss_mb, Dist, FastPhase, FAST_SHARE, WINDOW};
use crate::{show, Opts, Report};
use rush_core::RushConfig;
use rush_planner::shard_of_label;
use rush_serve::binary::{self, Scan};
use rush_serve::protocol::{JobSubmission, StatsReport};
use rush_serve::server::{serve, Frontend, ServeConfig};
use rush_serve::{Client, Decision, Request, Response, ServeState};
use rush_sim::cluster::ClusterSpec;
use rush_workload::{generate, Experiment, WorkloadConfig};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// First argument that turns this binary into the daemon under test.
pub const DAEMON_FLAG: &str = "--daemon";

/// Planner shards of the daemon.
const SHARDS: usize = 2;
/// Epoch window of the daemon, milliseconds.
const EPOCH_MS: u64 = 2;
/// Wall-clock length of a logical slot. A run ends inside the first slot,
/// so plans go stale only through requests: every replan the benchmark
/// times was caused by a request, none by the clock.
const MS_PER_SLOT: u64 = 600_000;
/// Cluster capacity in containers. 2048 is the least that admits every
/// job of `serve-1k`; at that edge the plan's cost per pass swings ±20 %
/// between seeds, twice as much headroom keeps it within a few percent.
const CAPACITY: u32 = 4096;
/// Cap on map tasks per generated job. With the paper's uncapped sizes a
/// thousand resident jobs need a cluster of ~8k containers to be admitted.
const MAX_MAP_TASKS: usize = 8;

/// Resident jobs of `serve-1k`.
pub const RESIDENT_1K: usize = 1000;
/// `serve-1k` open-loop rates, per second. A pair costs the planner about
/// 4–7 ms at 500 jobs per shard and a submit (a full replan) about 13 ms,
/// so each shard is busy about a quarter of the time.
const SUBMIT_RATE: f64 = 4.0;
const PAIR_RATE: f64 = 70.0;
/// Share of a `serve-1k` round's nominal length spent in the open loop;
/// the closed loop takes the rest.
const OPEN_SHARE: f64 = 0.5;
/// `serve-1k` rounds per run, each against a freshly preloaded daemon.
/// Every `report-sample` completes a task, and the 1000 resident jobs hold
/// only a few thousand tasks: a loop that ran until time was up would
/// drain them, each pass would get cheaper as it went, and the faster the
/// host, the further the drain, so runs of the same code would measure
/// different states. Fresh rounds of fixed work keep every run on the
/// same states.
const ROUNDS: usize = 6;
/// Closed-loop pairs per second of a round's nominal closed-loop share:
/// about what one pair costs (3 ms at 500 jobs per shard) on a 2.1 GHz
/// Xeon core, so a round lasts about its share of `--seconds`.
const CLOSED_RATE: f64 = 300.0;
/// Jobs nearer than this to either end of the residency queue are never
/// sampled: the oldest are about to be cancelled, the newest may not have
/// their ids back yet.
const GUARD: usize = 100;

/// Latency limits of `slo_attainment`.
const SUBMIT_LIMIT_MS: f64 = 50.0;
const PAIR_LIMIT_MS: f64 = 25.0;
/// The open loop is invalid, not merely slow, when the generator sent its
/// median request later than this after the scheduled time: it then fell
/// behind its schedule instead of losing the CPU for a moment.
const LAG_LIMIT_MS: f64 = 1.0;

/// A reply slower than this is a failure: it bounds how long a run can
/// hang on a stuck daemon.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// Submissions per preload batch (the daemon's default epoch batch).
const PRELOAD_BATCH: usize = 32;

// ---------------------------------------------------------------------------
// The daemon under test
// ---------------------------------------------------------------------------

fn daemon_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        capacity: CAPACITY,
        shards: SHARDS,
        epoch_ms: EPOCH_MS,
        ms_per_slot: MS_PER_SLOT,
        frontend: Frontend::Reactor,
        ..ServeConfig::default()
    }
}

/// Runs the daemon until a client sends `shutdown`; prints its address as
/// the first line of standard output. The benchmark holds the daemon's
/// standard input open while it lives: at end of input it is gone, however
/// it ended, and the daemon exits too.
pub fn daemon_main(args: &[String]) -> ExitCode {
    if !args.is_empty() {
        eprintln!("rushbench {DAEMON_FLAG}: takes no further arguments");
        return ExitCode::from(2);
    }
    thread::spawn(|| {
        let mut buf = [0u8; 64];
        let mut stdin = std::io::stdin();
        while matches!(stdin.read(&mut buf), Ok(n) if n > 0) {}
        eprintln!("rushbench {DAEMON_FLAG}: the benchmark is gone; exiting");
        std::process::exit(1);
    });
    let handle = match serve(daemon_config()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("rushbench daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", handle.local_addr());
    let _ = std::io::stdout().flush();
    match handle.join() {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rushbench daemon: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A running daemon child. Dropping it kills and reaps the process.
struct Daemon {
    child: Option<Child>,
    addr: String,
    /// Held open for the daemon's lifetime, so it never writes into a
    /// closed pipe.
    stdout: BufReader<ChildStdout>,
    /// Held open for the daemon's lifetime; it closes when this process
    /// ends in any way, which tells the daemon to exit.
    _stdin: ChildStdin,
}

impl Daemon {
    fn spawn() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg(DAEMON_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdout = child.stdout.take().ok_or("daemon stdout not captured")?;
        let stdin = child.stdin.take().ok_or("daemon stdin not captured")?;
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            stdout: BufReader::new(stdout),
            _stdin: stdin,
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("daemon did not start: {line:?}"))?
            .to_owned();
        Ok(daemon)
    }

    fn pid(&self) -> String {
        self.child
            .as_ref()
            .map_or_else(String::new, |c| c.id().to_string())
    }

    /// Sends `shutdown` and waits for a clean exit.
    fn shutdown(mut self) -> Result<(), String> {
        client(&self.addr, false)?
            .shutdown(false)
            .map_err(|e| format!("shutdown: {e}"))?;
        let mut child = self.child.take().ok_or("daemon already reaped")?;
        let status = child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

// ---------------------------------------------------------------------------
// Generated inputs
// ---------------------------------------------------------------------------

/// SplitMix64 stream for the op generator.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One open-loop op. Jobs are named by their index in [`Inputs::subs`];
/// each side (daemon, replay) maps indices to the ids it was given.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Submit job `submit` and cancel the oldest resident job `cancel`.
    Churn { submit: usize, cancel: usize },
    /// `report-sample` for `job`, then at once `predict` for it.
    Pair { job: usize, runtime: u64 },
}

/// One `serve-1k` round, run against a freshly preloaded daemon.
struct Round {
    /// Open loop: `(scheduled µs from the round's start, op)`.
    open: Vec<(u64, Op)>,
    /// Closed loop: `(job, runtime)` pairs, all of them run.
    closed: Vec<(usize, u64)>,
}

struct Inputs {
    /// Every job: the preload first, then the open loop's submissions
    /// (the same ones in every round: each round's daemon starts afresh).
    subs: Vec<JobSubmission>,
    resident: usize,
    rounds: Vec<Round>,
}

/// `n` submissions drawn from the paper's workload generator: PUMA
/// templates, budgets calibrated on the paper testbed at ratio 2.
fn submissions(n: usize, seed: u64) -> Result<Vec<JobSubmission>, String> {
    let cluster = ClusterSpec::paper_testbed(8).map_err(|e| format!("cluster: {e}"))?;
    let cfg = WorkloadConfig {
        jobs: n,
        seed,
        max_map_tasks: MAX_MAP_TASKS,
        ..WorkloadConfig::default()
    };
    let specs = generate(&cfg, &Experiment::new(cluster)).map_err(|e| format!("workload: {e}"))?;
    Ok(specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let tasks = spec.tasks().len().max(1) as u64;
            JobSubmission {
                // Unique labels: jobs spread over the shards by label hash,
                // so template names alone would pile whole templates onto
                // one shard.
                label: format!("{}-{i}", spec.label()),
                tasks,
                runtime_hint: Some((spec.total_base_runtime() / tasks as f64).max(1.0)),
                utility: *spec.utility(),
                budget: spec.budget(),
                priority: spec.priority().max(1),
            }
        })
        .collect())
}

/// Picks a resident job away from both ends of the queue that can take one
/// more sample without completing.
fn pick(rng: &mut Rng, fifo: &VecDeque<usize>, remaining: &[u64]) -> Option<usize> {
    let span = fifo.len().checked_sub(2 * GUARD).filter(|&s| s > 0)?;
    (0..16)
        .map(|_| fifo[GUARD + rng.below(span)])
        .find(|&j| remaining[j] >= 2)
}

fn sample_runtime(rng: &mut Rng, sub: &JobSubmission) -> u64 {
    let hint = sub.runtime_hint.unwrap_or(50.0);
    ((hint * (0.5 + rng.unit())).round() as u64).max(1)
}

fn inputs(seed: u64, seconds: u64) -> Result<Inputs, String> {
    let round_s = seconds as f64 / ROUNDS as f64;
    let open_s = round_s * OPEN_SHARE;
    let churn = (SUBMIT_RATE * open_s * 1.5) as usize + 20;
    let subs = submissions(RESIDENT_1K + churn, mix(seed, 0x10B))?;
    let pairs = (round_s * (1.0 - OPEN_SHARE) * CLOSED_RATE).round() as usize;
    let rounds = (0..ROUNDS as u64)
        .map(|round| {
            let mut rng = Rng(mix(seed, 0x5E4E + round));
            round_1k(&mut rng, &subs, RESIDENT_1K, open_s, pairs)
        })
        .collect::<Result<_, _>>()?;
    Ok(Inputs {
        subs,
        resident: RESIDENT_1K,
        rounds,
    })
}

/// One `serve-1k` round from a fresh residency: a Poisson open loop of
/// `open_s` seconds, then `pairs` closed-loop pairs.
fn round_1k(
    rng: &mut Rng,
    subs: &[JobSubmission],
    resident: usize,
    open_s: f64,
    pairs: usize,
) -> Result<Round, String> {
    let mut remaining: Vec<u64> = subs.iter().map(|s| s.tasks).collect();
    let mut fifo: VecDeque<usize> = (0..resident).collect();
    let mut round = Round {
        open: Vec::new(),
        closed: Vec::new(),
    };
    let end_us = open_s * 1e6;
    let rate = SUBMIT_RATE + PAIR_RATE;
    let mut next_sub = resident;
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate * 1e6;
        if t >= end_us {
            break;
        }
        let churn = rng.unit() < SUBMIT_RATE / rate && next_sub < subs.len();
        let op = if churn {
            let cancel = fifo.pop_front().ok_or("residency queue ran dry")?;
            fifo.push_back(next_sub);
            next_sub += 1;
            Op::Churn {
                submit: next_sub - 1,
                cancel,
            }
        } else {
            let Some(job) = pick(rng, &fifo, &remaining) else {
                continue;
            };
            remaining[job] -= 1;
            Op::Pair {
                job,
                runtime: sample_runtime(rng, &subs[job]),
            }
        };
        round.open.push((t as u64, op));
    }
    for _ in 0..pairs {
        let job = pick(rng, &fifo, &remaining).ok_or("closed loop: no job left to sample")?;
        remaining[job] -= 1;
        round.closed.push((job, sample_runtime(rng, &subs[job])));
    }
    Ok(round)
}

// ---------------------------------------------------------------------------
// RUSH1 connections
// ---------------------------------------------------------------------------

/// Reads RUSH1 response frames from one connection.
struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl FrameReader {
    fn next(&mut self) -> Result<Response, String> {
        loop {
            match binary::scan_frame(&self.buf).map_err(|e| format!("frame: {e}"))? {
                Scan::Done { item, consumed } => {
                    let payload = self.buf.get(item).ok_or("frame range out of bounds")?;
                    let resp = binary::decode_response(payload).map_err(|e| format!("decode: {e}"));
                    self.buf.drain(..consumed);
                    return resp;
                }
                Scan::Incomplete => {
                    let mut chunk = [0u8; 64 * 1024];
                    let n = self
                        .stream
                        .read(&mut chunk)
                        .map_err(|e| format!("read: {e}"))?;
                    if n == 0 {
                        return Err("daemon closed the connection".into());
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                }
            }
        }
    }
}

/// Opens a RUSH1 connection: the writing half and a frame reader.
fn connect_rush1(addr: &str) -> Result<(TcpStream, FrameReader), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| format!("timeout: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    writer
        .write_all(&binary::hello(binary::BINARY_VERSION))
        .map_err(|e| format!("hello: {e}"))?;
    let mut reader = FrameReader {
        stream,
        buf: Vec::new(),
    };
    loop {
        match binary::scan_hello(&reader.buf).map_err(|e| format!("hello: {e}"))? {
            Scan::Done { item, consumed } => {
                reader.buf.drain(..consumed);
                if item == 0 {
                    return Err("no common RUSH1 version".into());
                }
                return Ok((writer, reader));
            }
            Scan::Incomplete => {
                let mut chunk = [0u8; 64];
                let n = reader
                    .stream
                    .read(&mut chunk)
                    .map_err(|e| format!("read: {e}"))?;
                if n == 0 {
                    return Err("daemon closed during hello".into());
                }
                reader.buf.extend_from_slice(&chunk[..n]);
            }
        }
    }
}

fn send(writer: &mut TcpStream, reqs: &[Request]) -> Result<(), String> {
    let mut bytes = Vec::new();
    for r in reqs {
        bytes.extend(binary::frame_request(r));
    }
    writer.write_all(&bytes).map_err(|e| format!("write: {e}"))
}

/// Admission tallies kept by the generator, compared with the daemon's
/// `stats` at the end.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tally {
    admitted: u64,
    deferred: u64,
    rejected: u64,
    cancelled: u64,
    samples: u64,
}

impl Tally {
    fn decision(&mut self, d: Decision) {
        match d {
            Decision::Admit => self.admitted += 1,
            Decision::Defer => self.deferred += 1,
            Decision::Reject => self.rejected += 1,
        }
    }

    fn merge(&mut self, o: Tally) {
        self.admitted += o.admitted;
        self.deferred += o.deferred;
        self.rejected += o.rejected;
        self.cancelled += o.cancelled;
        self.samples += o.samples;
    }
}

/// Checks a `predict` reply: the right job, and the Theorem-3 bound equal
/// to `T + R` exactly.
fn check_prediction(resp: &Response, wire: u64) -> Result<(), String> {
    match resp {
        Response::Prediction {
            job,
            target,
            task_len,
            bound,
            ..
        } => {
            if *job != wire {
                Err(format!("predict for job {wire} answered for job {job}"))
            } else if bound.to_bits() != (target + *task_len as f64).to_bits() {
                Err(format!(
                    "job {wire}: bound {bound} != target {target} + task_len {task_len}"
                ))
            } else {
                Ok(())
            }
        }
        other => Err(format!("predict for job {wire}: {other:?}")),
    }
}

/// Submits the preload in batches; returns the wire id of every job.
fn preload(addr: &str, subs: &[JobSubmission], tally: &mut Tally) -> Result<Vec<u64>, String> {
    let (mut writer, mut reader) = connect_rush1(addr)?;
    let mut ids = Vec::with_capacity(subs.len());
    for chunk in subs.chunks(PRELOAD_BATCH) {
        let reqs: Vec<Request> = chunk.iter().cloned().map(Request::Submit).collect();
        send(&mut writer, &reqs)?;
        for _ in chunk {
            match reader.next()? {
                Response::Submitted {
                    job: Some(id),
                    decision: Decision::Admit,
                    ..
                } => {
                    tally.decision(Decision::Admit);
                    ids.push(id);
                }
                other => return Err(format!("preload submission not admitted: {other:?}")),
            }
        }
    }
    Ok(ids)
}

/// Starts a daemon and preloads the resident jobs; returns it with the
/// preloaded ids and the set-up time.
fn set_up(inputs: &Inputs, tally: &mut Tally) -> Result<(Daemon, Vec<u64>, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::spawn()?;
    let ids = preload(&daemon.addr, &inputs.subs[..inputs.resident], tally)?;
    Ok((daemon, ids, t.elapsed().as_secs_f64()))
}

/// A blocking client speaking RUSH1 (`binary`) or JSON.
fn client(addr: &str, binary: bool) -> Result<Client, String> {
    let client = if binary {
        Client::connect_binary(addr)
    } else {
        Client::connect(addr)
    };
    let client = client.map_err(|e| format!("connect: {e}"))?;
    client
        .set_timeout(Some(IO_TIMEOUT))
        .map_err(|e| format!("timeout: {e}"))?;
    Ok(client)
}

fn fetch_stats(addr: &str) -> Result<StatsReport, String> {
    client(addr, true)?
        .stats()
        .map_err(|e| format!("stats: {e}"))
}

fn check_stats(report: &mut Report, stats: &StatsReport, tally: &Tally, resident: u64) {
    report.check(
        stats.admitted == tally.admitted
            && stats.deferred == tally.deferred
            && stats.rejected == tally.rejected
            && stats.cancelled == tally.cancelled
            && stats.samples == tally.samples
            && stats.active_jobs == resident,
        || {
            format!(
                "daemon stats {stats:?} disagree with the generator's tallies {tally:?} \
                 and {resident} resident jobs"
            )
        },
    );
}

// ---------------------------------------------------------------------------
// serve-1k: the open and closed loops against the daemon
// ---------------------------------------------------------------------------

/// What one connection's reader expects next, in send order.
enum Expect {
    Submit { job: usize, at_us: u64 },
    Cancel,
    Sample,
    Predict { at_us: u64, wire: u64 },
}

#[derive(Default)]
struct Loop1k {
    /// `(scheduled µs, done µs, daemon-reported epoch wait µs)`.
    submits: Vec<(u64, u64, u64)>,
    /// `(scheduled µs, done µs, ok)`.
    pairs: Vec<(u64, u64, bool)>,
    tally: Tally,
    errors: Vec<String>,
}

fn read_loop(
    reader: &mut FrameReader,
    expect: mpsc::Receiver<Expect>,
    ids: &Mutex<Vec<Option<u64>>>,
    base: Instant,
) -> Loop1k {
    let mut out = Loop1k::default();
    let mut sample_ok = true;
    for e in expect {
        let resp = match reader.next() {
            Ok(r) => r,
            Err(err) => {
                out.errors.push(err);
                break;
            }
        };
        let done = base.elapsed().as_micros() as u64;
        match (e, resp) {
            (
                Expect::Submit { job, at_us },
                Response::Submitted {
                    job: Some(id),
                    decision,
                    waited_us,
                    ..
                },
            ) => {
                out.tally.decision(decision);
                if decision == Decision::Admit {
                    if let Ok(mut ids) = ids.lock() {
                        ids[job] = Some(id);
                    }
                    out.submits.push((at_us, done, waited_us));
                } else {
                    out.errors
                        .push(format!("job {job} not admitted: {decision:?}"));
                }
            }
            (Expect::Cancel, Response::Ack) => out.tally.cancelled += 1,
            (Expect::Sample, Response::Ack) => {
                out.tally.samples += 1;
                sample_ok = true;
            }
            (Expect::Sample, other) => {
                out.errors.push(format!("report-sample: {other:?}"));
                sample_ok = false;
            }
            (Expect::Predict { at_us, wire }, resp) => {
                let ok = match check_prediction(&resp, wire) {
                    Ok(()) => sample_ok,
                    Err(msg) => {
                        out.errors.push(msg);
                        false
                    }
                };
                out.pairs.push((at_us, done, ok));
            }
            (_, other) => out.errors.push(format!("unexpected reply {other:?}")),
        }
    }
    out
}

#[derive(Default)]
struct Run1k {
    open: Loop1k,
    /// Generator lateness per scheduled op, ms.
    lag_ms: Vec<f64>,
    /// Ops the generator could not send (an id it needed was unknown).
    unsent: u64,
    /// Closed-loop pair round trips, ms, and when each finished, seconds
    /// of closed-loop time.
    closed_ms: Vec<f64>,
    closed_done_s: Vec<f64>,
    closed_tally: Tally,
    closed_errors: Vec<String>,
}

impl Run1k {
    /// Appends a later round; its closed-loop clock continues this one's.
    fn absorb(&mut self, round: Run1k) {
        self.open.submits.extend(round.open.submits);
        self.open.pairs.extend(round.open.pairs);
        self.open.tally.merge(round.open.tally);
        self.open.errors.extend(round.open.errors);
        self.lag_ms.extend(round.lag_ms);
        self.unsent += round.unsent;
        let clock = self.closed_done_s.last().copied().unwrap_or(0.0);
        self.closed_ms.extend(round.closed_ms);
        self.closed_done_s
            .extend(round.closed_done_s.iter().map(|s| clock + s));
        self.closed_tally.merge(round.closed_tally);
        self.closed_errors.extend(round.closed_errors);
    }
}

/// A RUSH1 connection whose replies a reader thread may own for a while.
struct Conn {
    writer: TcpStream,
    reader: FrameReader,
}

/// Sends one round's open-loop ops on schedule, pipelined, while a reader
/// per connection matches replies to what was sent.
fn drive_open(
    churn: &mut Conn,
    pair: &mut Conn,
    ops: impl Iterator<Item = (u64, Op)>,
    inputs: &Inputs,
    ids: &Arc<Mutex<Vec<Option<u64>>>>,
    run: &mut Run1k,
) -> Result<(), String> {
    let (churn_tx, churn_rx) = mpsc::channel();
    let (pair_tx, pair_rx) = mpsc::channel();
    let base = Instant::now();
    let (churn_part, pair_part, sent) = thread::scope(|s| {
        let churn_reader = s.spawn(|| read_loop(&mut churn.reader, churn_rx, ids, base));
        let pair_reader = s.spawn(|| read_loop(&mut pair.reader, pair_rx, ids, base));
        let id_of = |job: usize| ids.lock().ok().and_then(|ids| ids[job]);
        let mut sent = Ok(());
        for (at_us, op) in ops {
            let now = base.elapsed().as_micros() as u64;
            if at_us > now {
                thread::sleep(Duration::from_micros(at_us - now));
            }
            let late = base.elapsed().as_micros() as u64;
            run.lag_ms.push(late.saturating_sub(at_us) as f64 / 1e3);
            sent = match op {
                Op::Churn { submit, cancel } => {
                    let Some(victim) = id_of(cancel) else {
                        run.unsent += 1;
                        continue;
                    };
                    let _ = churn_tx.send(Expect::Submit { job: submit, at_us });
                    let _ = churn_tx.send(Expect::Cancel);
                    let sub = Request::Submit(inputs.subs[submit].clone());
                    send(&mut churn.writer, &[sub, Request::Cancel { job: victim }])
                }
                Op::Pair { job, runtime } => {
                    let Some(wire) = id_of(job) else {
                        run.unsent += 1;
                        continue;
                    };
                    let _ = pair_tx.send(Expect::Sample);
                    let _ = pair_tx.send(Expect::Predict { at_us, wire });
                    let reqs = [
                        Request::ReportSample { job: wire, runtime },
                        Request::Predict { job: wire },
                    ];
                    send(&mut pair.writer, &reqs)
                }
            };
            if sent.is_err() {
                break;
            }
        }
        drop(churn_tx);
        drop(pair_tx);
        (churn_reader.join(), pair_reader.join(), sent)
    });
    sent?;
    for part in [churn_part, pair_part] {
        let part = part.map_err(|_| "reader thread panicked")?;
        run.open.submits.extend(part.submits);
        run.open.pairs.extend(part.pairs);
        run.open.tally.merge(part.tally);
        run.open.errors.extend(part.errors);
    }
    Ok(())
}

/// Runs the round's pairs back to back on the pair connection.
fn drive_closed(
    pair: &mut Conn,
    closed: &[(usize, u64)],
    ids: &[Option<u64>],
    run: &mut Run1k,
) -> Result<(), String> {
    let t0 = Instant::now();
    for &(job, runtime) in closed {
        let Some(wire) = ids[job] else {
            run.closed_errors
                .push(format!("closed loop: job {job} has no id"));
            continue;
        };
        let t = Instant::now();
        let reqs = [
            Request::ReportSample { job: wire, runtime },
            Request::Predict { job: wire },
        ];
        send(&mut pair.writer, &reqs)?;
        let ack = pair.reader.next()?;
        let pred = pair.reader.next()?;
        run.closed_ms.push(t.elapsed().as_secs_f64() * 1e3);
        run.closed_done_s.push(t0.elapsed().as_secs_f64());
        match ack {
            Response::Ack => run.closed_tally.samples += 1,
            other => run.closed_errors.push(format!("report-sample: {other:?}")),
        }
        if let Err(e) = check_prediction(&pred, wire) {
            run.closed_errors.push(e);
        }
    }
    Ok(())
}

/// What one `serve-1k` round left besides its ops: the set-up time and
/// the daemon's peak RSS.
struct RoundCost {
    setup_s: f64,
    rss_mb: f64,
}

/// One `serve-1k` round against a freshly preloaded daemon: the open loop,
/// then the closed loop; the daemon's counters must then equal the
/// generator's own tallies.
fn drive_round(
    inputs: &Inputs,
    round: &Round,
    run: &mut Run1k,
    report: &mut Report,
) -> Result<RoundCost, String> {
    let mut tally = Tally::default();
    let (daemon, preloaded, setup_s) = set_up(inputs, &mut tally)?;
    let mut ids: Vec<Option<u64>> = vec![None; inputs.subs.len()];
    for (slot, &id) in ids.iter_mut().zip(&preloaded) {
        *slot = Some(id);
    }
    let ids = Arc::new(Mutex::new(ids));
    let connect = || connect_rush1(&daemon.addr).map(|(writer, reader)| Conn { writer, reader });
    let (mut churn, mut pair) = (connect()?, connect()?);
    let mut this = Run1k::default();
    let ops = round.open.iter().copied();
    drive_open(&mut churn, &mut pair, ops, inputs, &ids, &mut this)?;
    let known = ids.lock().map_err(|_| "id table poisoned")?.clone();
    drive_closed(&mut pair, &round.closed, &known, &mut this)?;
    tally.merge(this.open.tally);
    tally.merge(this.closed_tally);
    let stats = fetch_stats(&daemon.addr)?;
    check_stats(report, &stats, &tally, inputs.resident as u64);
    let rss_mb = peak_rss_mb(&daemon.pid()).ok_or("cannot read the daemon's VmHWM")?;
    daemon.shutdown()?;
    run.absorb(this);
    Ok(RoundCost { setup_s, rss_mb })
}

// ---------------------------------------------------------------------------
// The in-process replay (traced run)
// ---------------------------------------------------------------------------

/// Codec spans of RUSH1.
#[derive(Debug, Default, Clone, Copy)]
struct CodecTally {
    encode: Span,
    decode: Span,
    bytes: u64,
}

impl CodecTally {
    fn bytes_per_frame(&self) -> f64 {
        if self.encode.count == 0 {
            0.0
        } else {
            self.bytes as f64 / self.encode.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct ServeSpans {
    submit_epoch: Span,
    predict: Span,
    report_sample: Span,
    cancel: Span,
}

impl ServeSpans {
    fn total_ns(&self) -> u64 {
        [
            self.submit_epoch,
            self.predict,
            self.report_sample,
            self.cancel,
        ]
        .iter()
        .map(|s| s.ns)
        .sum()
    }
}

/// The daemon's state, held in this process: one `ServeState` per shard,
/// routed and id-translated the way the daemon does it.
struct Replica {
    shards: Vec<ServeState>,
    traced: bool,
    rush1: CodecTally,
    spans: ServeSpans,
    core: CoreTally,
    /// Requests replayed and their in-process time (codec + state).
    requests: u64,
    request_ns: u64,
}

fn mark(traced: bool) -> Option<Instant> {
    traced.then(Instant::now)
}

fn close(span: &mut Span, t: Option<Instant>) {
    if let Some(t) = t {
        span.add(t);
    }
}

/// One empty `ServeState` per shard, split as the daemon splits capacity:
/// evenly, the first shards taking the remainder.
fn fresh_shards() -> Result<Vec<ServeState>, String> {
    let base = CAPACITY / SHARDS as u32;
    let extra = CAPACITY % SHARDS as u32;
    (0..SHARDS as u32)
        .map(|i| ServeState::new(RushConfig::default(), base + u32::from(i < extra)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("replica: {e}"))
}

impl Replica {
    fn new(traced: bool) -> Result<Replica, String> {
        Ok(Replica {
            shards: fresh_shards()?,
            traced,
            rush1: CodecTally::default(),
            spans: ServeSpans::default(),
            core: CoreTally::default(),
            requests: 0,
            request_ns: 0,
        })
    }

    /// Starts over from empty shards, as a freshly started daemon does;
    /// the tallies carry on.
    fn renew(&mut self) -> Result<(), String> {
        self.shards = fresh_shards()?;
        self.core.restart();
        Ok(())
    }

    /// Admits the preload in the daemon's batches, untimed and uncounted;
    /// returns wire ids.
    fn preload(&mut self, subs: &[JobSubmission]) -> Result<Vec<u64>, String> {
        let mut ids = Vec::with_capacity(subs.len());
        for chunk in subs.chunks(PRELOAD_BATCH) {
            let mut per_shard: Vec<Vec<(usize, JobSubmission)>> = vec![Vec::new(); SHARDS];
            for (i, sub) in chunk.iter().enumerate() {
                per_shard[shard_of_label(&sub.label, SHARDS)].push((i, sub.clone()));
            }
            let mut chunk_ids = vec![0; chunk.len()];
            for (shard, batch) in per_shard.into_iter().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                let (pos, subs): (Vec<usize>, Vec<JobSubmission>) = batch.into_iter().unzip();
                let verdicts = self.shards[shard]
                    .submit_epoch(subs, 0)
                    .map_err(|e| format!("preload: {e}"))?;
                for (p, v) in pos.into_iter().zip(verdicts) {
                    let local = v.job.filter(|_| v.decision == Decision::Admit);
                    let local = local.ok_or("replica preload: submission not admitted")?;
                    chunk_ids[p] = local * SHARDS as u64 + shard as u64;
                }
            }
            ids.extend(chunk_ids);
        }
        for (i, s) in self.shards.iter().enumerate() {
            self.core.rebase(i, s.planner());
        }
        Ok(ids)
    }

    /// One request through the codec, the state, and the codec back.
    fn call(&mut self, req: &Request, slot: u64) -> Result<Response, String> {
        let t0 = Instant::now();
        let req = self.wire_request(req)?;
        let resp = self.dispatch(req, slot);
        if self.traced {
            for (i, s) in self.shards.iter().enumerate() {
                self.core.observe(i, s.planner());
            }
        }
        let resp = self.wire_response(&resp);
        self.requests += 1;
        self.request_ns += t0.elapsed().as_nanos() as u64;
        resp
    }

    fn wire_request(&mut self, req: &Request) -> Result<Request, String> {
        let traced = self.traced;
        let tally = &mut self.rush1;
        let t = mark(traced);
        let frame = binary::frame_request(req);
        close(&mut tally.encode, t);
        tally.bytes += frame.len() as u64;
        let t = mark(traced);
        let decoded = match binary::scan_frame(&frame) {
            Ok(Scan::Done { item, .. }) => binary::decode_request(frame.get(item).unwrap_or(&[])),
            Ok(Scan::Incomplete) => Err(binary::decode_request(&[]).unwrap_err()),
            Err(e) => Err(e),
        };
        close(&mut tally.decode, t);
        decoded.map_err(|e| format!("rush1 request: {e}"))
    }

    fn wire_response(&mut self, resp: &Response) -> Result<Response, String> {
        let traced = self.traced;
        let tally = &mut self.rush1;
        let t = mark(traced);
        let frame = binary::frame_response(resp);
        close(&mut tally.encode, t);
        tally.bytes += frame.len() as u64;
        let t = mark(traced);
        let decoded = match binary::scan_frame(&frame) {
            Ok(Scan::Done { item, .. }) => binary::decode_response(frame.get(item).unwrap_or(&[])),
            Ok(Scan::Incomplete) => Err(binary::decode_response(&[]).unwrap_err()),
            Err(e) => Err(e),
        };
        close(&mut tally.decode, t);
        decoded.map_err(|e| format!("rush1 response: {e}"))
    }

    fn dispatch(&mut self, req: Request, slot: u64) -> Response {
        let n = SHARDS as u64;
        let traced = self.traced;
        let local = |job: u64| ((job % n) as usize, job / n);
        match req {
            Request::Submit(sub) => {
                let shard = shard_of_label(&sub.label, SHARDS);
                let t = mark(traced);
                let verdicts = self.shards[shard].submit_epoch(vec![sub], slot);
                close(&mut self.spans.submit_epoch, t);
                match verdicts.map(|v| v.into_iter().next()) {
                    Ok(Some(v)) => Response::Submitted {
                        job: v.job.map(|j| j * n + shard as u64),
                        decision: v.decision,
                        epoch: self.shards[shard].counters().epochs,
                        waited_us: 0,
                        defer_reason: v.defer_reason,
                    },
                    Ok(None) => Response::error(rush_serve::ErrorCode::Internal, "no verdict"),
                    Err(e) => Response::error(rush_serve::ErrorCode::Internal, e.to_string()),
                }
            }
            Request::ReportSample { job, runtime } => {
                let (shard, id) = local(job);
                let t = mark(traced);
                let r = self.shards[shard].report_sample(id, runtime);
                close(&mut self.spans.report_sample, t);
                r.map_or_else(Response::Error, |_| Response::Ack)
            }
            Request::Predict { job } => {
                let (shard, id) = local(job);
                let t = mark(traced);
                let r = self.shards[shard].predict(id, slot);
                close(&mut self.spans.predict, t);
                match r {
                    Ok((target, task_len, bound, planned_completion, impossible)) => {
                        Response::Prediction {
                            job,
                            target,
                            task_len,
                            bound,
                            planned_completion,
                            impossible,
                        }
                    }
                    Err(e) => Response::Error(e),
                }
            }
            Request::Cancel { job } => {
                let (shard, id) = local(job);
                let t = mark(traced);
                let r = self.shards[shard].cancel(id);
                close(&mut self.spans.cancel, t);
                r.map_or_else(Response::Error, |()| Response::Ack)
            }
            other => Response::error(
                rush_serve::ErrorCode::BadOp,
                format!("the replay does not issue {other:?}"),
            ),
        }
    }
}

/// What a replay measured.
struct Replay {
    replica: Replica,
    /// In-process time of each closed-loop pair, µs, in replay order.
    unit_us: Vec<f64>,
    errors: Vec<String>,
}

/// Replays `serve-1k` round by round, each from a fresh preload: the
/// round's open-loop ops, then its closed-loop pairs.
fn replay_1k(inputs: &Inputs, traced: bool) -> Result<Replay, String> {
    let mut r = Replica::new(traced)?;
    let mut errors = Vec::new();
    let mut unit_us = Vec::new();
    // Every request falls inside the daemon's first slot (see MS_PER_SLOT).
    let slot = 0;
    let mut open_ms = Vec::new();
    let pair = |r: &mut Replica, wire: u64, runtime: u64, errors: &mut Vec<String>| {
        let ack = r.call(&Request::ReportSample { job: wire, runtime }, slot);
        if !matches!(ack, Ok(Response::Ack)) {
            errors.push(format!("replay report-sample: {ack:?}"));
        }
        match r.call(&Request::Predict { job: wire }, slot) {
            Ok(resp) => {
                if let Err(e) = check_prediction(&resp, wire) {
                    errors.push(format!("replay: {e}"));
                }
            }
            Err(e) => errors.push(e),
        }
    };
    for round in &inputs.rounds {
        r.renew()?;
        let mut ids: Vec<Option<u64>> = vec![None; inputs.subs.len()];
        for (slot, id) in ids
            .iter_mut()
            .zip(r.preload(&inputs.subs[..inputs.resident])?)
        {
            *slot = Some(id);
        }
        for &(_, op) in &round.open {
            match op {
                Op::Churn { submit, cancel } => {
                    match r.call(&Request::Submit(inputs.subs[submit].clone()), slot)? {
                        Response::Submitted {
                            job: Some(id),
                            decision: Decision::Admit,
                            ..
                        } => {
                            ids[submit] = Some(id);
                        }
                        other => errors.push(format!("replay submit: {other:?}")),
                    }
                    let Some(victim) = ids[cancel] else { continue };
                    if !matches!(
                        r.call(&Request::Cancel { job: victim }, slot)?,
                        Response::Ack
                    ) {
                        errors.push(format!("replay cancel of job {victim} failed"));
                    }
                }
                Op::Pair { job, runtime } => {
                    let Some(wire) = ids[job] else { continue };
                    let t = Instant::now();
                    pair(&mut r, wire, runtime, &mut errors);
                    open_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
        for &(job, runtime) in &round.closed {
            let Some(wire) = ids[job] else { continue };
            let t = Instant::now();
            pair(&mut r, wire, runtime, &mut errors);
            unit_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    if traced {
        // In process, without queueing: open-loop pairs cost more than
        // closed-loop ones because submits and cancels between them break
        // the kernel's delta reuse.
        let closed_ms = unit_us.iter().map(|us| us / 1e3).collect();
        show_dist("in_process_open_pair", &Dist::new(open_ms), "traced replay");
        show_dist(
            "in_process_closed_pair",
            &Dist::new(closed_ms),
            "traced replay",
        );
    }
    Ok(Replay {
        replica: r,
        unit_us,
        errors,
    })
}

// ---------------------------------------------------------------------------
// The workloads
// ---------------------------------------------------------------------------

pub fn run(opts: &Opts) -> Result<Report, String> {
    let inputs = inputs(opts.seed, opts.seconds)?;
    let mut report = Report::default();
    let tasks: u64 = inputs.subs[..inputs.resident].iter().map(|s| s.tasks).sum();
    println!(
        "{}: {} resident jobs ({tasks} tasks), {SHARDS} shards, epoch {EPOCH_MS} ms, capacity {CAPACITY}",
        opts.workload, inputs.resident
    );
    let (setups, rss) = run_1k(opts, &inputs, &mut report)?;
    let setup_s = median(&setups);
    show(
        "setup_s",
        setup_s,
        "s",
        &format!("median of {} daemon starts + preloads", setups.len()),
    );
    show("peak_rss_mb", rss, "MB", "the daemon process");
    report.e2e.insert("setup_s", setup_s);
    report.e2e.insert("peak_rss_mb", rss);
    show(
        "error_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "fraction",
        &format!("{} of {} requests", report.failed, report.attempted),
    );
    Ok(report)
}

/// `serve-1k`: [`ROUNDS`] rounds, each against its own freshly preloaded
/// daemon. Returns the set-up times and the median peak RSS of the daemons.
fn run_1k(opts: &Opts, inputs: &Inputs, report: &mut Report) -> Result<(Vec<f64>, f64), String> {
    let mut run = Run1k::default();
    let (mut setups, mut rss) = (Vec::new(), Vec::new());
    for round in &inputs.rounds {
        let cost = drive_round(inputs, round, &mut run, report)?;
        setups.push(cost.setup_s);
        rss.push(cost.rss_mb);
    }
    let rss = median(&rss);

    let submit_ms = Dist::new(
        run.open
            .submits
            .iter()
            .map(|&(at, done, _)| (done - at) as f64 / 1e3)
            .collect(),
    );
    let pair_ms = Dist::new(
        run.open
            .pairs
            .iter()
            .map(|&(at, done, _)| (done - at) as f64 / 1e3)
            .collect(),
    );
    let lag = Dist::new(run.lag_ms.clone());
    let closed = Dist::new(run.closed_ms.clone());
    let open_ops: Vec<Op> = inputs
        .rounds
        .iter()
        .flat_map(|r| r.open.iter().map(|&(_, op)| op))
        .collect();
    let scheduled = open_ops.len();
    let closed_pairs: usize = inputs.rounds.iter().map(|r| r.closed.len()).sum();
    let churns = open_ops
        .iter()
        .filter(|op| matches!(op, Op::Churn { .. }))
        .count();
    let pairs_sent = scheduled - churns;
    // Failed ops count as misses: the denominator is every op scheduled.
    let within = run
        .open
        .submits
        .iter()
        .filter(|&&(at, done, _)| ((done - at) as f64) / 1e3 <= SUBMIT_LIMIT_MS)
        .count()
        + run
            .open
            .pairs
            .iter()
            .filter(|&&(at, done, ok)| ok && ((done - at) as f64) / 1e3 <= PAIR_LIMIT_MS)
            .count();
    let slo = within as f64 / scheduled as f64;
    let errors: Vec<&String> = run.open.errors.iter().chain(&run.closed_errors).collect();
    // Requests: submit + cancel per churn, sample + predict per pair.
    report.attempted = 2 * (scheduled + closed_pairs) as u64;
    report.failed = errors.len() as u64 + 2 * run.unsent;
    for e in errors.iter().take(5) {
        report.fail(format!("protocol error: {e}"));
    }
    report.check(run.unsent == 0, || {
        format!("{} ops had no job id to send", run.unsent)
    });
    report.check(
        run.open.pairs.len() == pairs_sent
            && run.open.submits.len() == churns
            && run.closed_ms.len() == closed_pairs,
        || {
            format!(
                "replies missing: {}/{pairs_sent} open pairs, {}/{churns} submits, \
                 {}/{closed_pairs} closed pairs",
                run.open.pairs.len(),
                run.open.submits.len(),
                run.closed_ms.len()
            )
        },
    );
    let fast = FastPhase::new(&run.closed_ms, &run.closed_done_s)
        .ok_or_else(|| format!("{} closed-loop pairs: too few to pool", closed.len()))?;
    let lag_p50 = lag.quantile(0.5);
    let lag_p99 = lag.quantile(0.99);
    report.check(lag_p50 <= LAG_LIMIT_MS, || {
        format!("run invalid: the generator fell behind (median lag {lag_p50:.3} ms > {LAG_LIMIT_MS} ms)")
    });

    show_dist(
        "replan",
        &pair_ms,
        "open loop, sample->replanned from the scheduled send",
    );
    show_dist(
        "submit",
        &submit_ms,
        "open loop, submit->planned from the scheduled send",
    );
    show(
        "slo_attainment",
        slo,
        "fraction",
        &format!(
            "{within} of {scheduled} open-loop ops within {SUBMIT_LIMIT_MS} ms (submit) / {PAIR_LIMIT_MS} ms (pair)"
        ),
    );
    show_dist(
        "closed_replan",
        &closed,
        "closed loop, sample->replanned back to back",
    );
    show_fast("closed_replan", &fast);
    show(
        "loadgen.lag_p50_ms",
        lag_p50,
        "ms",
        &format!("n={}", lag.len()),
    );
    show(
        "loadgen.lag_p99_ms",
        lag_p99,
        "ms",
        &format!("{} beyond", lag.beyond(0.99)),
    );

    let e = &mut report.e2e;
    e.insert("ops_per_s", fast.rate);
    e.insert("p50_ms", fast.p50);
    e.insert("p95_ms", fast.p95);
    e.insert("slo_attainment", slo);
    if !opts.trace {
        return Ok((setups, rss));
    }

    let untraced = replay_1k(inputs, false)?;
    let traced = replay_1k(inputs, true)?;
    for e in traced.errors.iter().chain(&untraced.errors).take(5) {
        report.fail(format!("replay: {e}"));
    }
    let r = &traced.replica;
    let waited = Dist::new(run.open.submits.iter().map(|&(_, _, w)| w as f64).collect());
    report.zero_layers();
    r.core.fill(report);
    let in_process_us = Dist::new(untraced.unit_us.clone()).mean();
    fill_serve_layers(report, &traced.replica, &untraced.replica);
    let l = &mut report.layers;
    l.insert(
        "serve.epoch_queue_us",
        waited.mean() - r.spans.submit_epoch.mean_us(),
    );
    l.insert("reactor.transport_us", closed.mean() * 1e3 - in_process_us);
    l.insert("loadgen.lag_p99_ms", lag_p99);
    Ok((setups, rss))
}

/// Prints the median and the highest percentile with at least ten samples
/// beyond it, with the sample counts.
fn show_dist(name: &str, d: &Dist, what: &str) {
    show(
        &format!("{name}_p50_ms"),
        d.quantile(0.5),
        "ms",
        &format!("{what}, n={}", d.len()),
    );
    match d.tail() {
        Some((p, v)) => show(
            &format!("{name}_p{p:.0}_ms"),
            v,
            "ms",
            &format!("{} beyond", d.beyond(p / 100.0)),
        ),
        None => println!("  {name}: fewer than 20 samples, no tail percentile"),
    }
}

/// Prints the window medians the end-to-end metrics are taken from.
fn show_fast(name: &str, w: &FastPhase) {
    let note = format!(
        "{} requests of the fastest {:.0} % of {} windows of {WINDOW}",
        w.pooled,
        FAST_SHARE * 100.0,
        w.windows
    );
    show(&format!("{name}_fast_ops_per_s"), w.rate, "1/s", &note);
    show(&format!("{name}_fast_p50_ms"), w.p50, "ms", &note);
    show(&format!("{name}_fast_p95_ms"), w.p95, "ms", &note);
}

/// The layer metrics read off a replay.
fn fill_serve_layers(report: &mut Report, traced: &Replica, untraced: &Replica) {
    let spans = &traced.spans;
    let codec_ns = traced.rush1.encode.ns + traced.rush1.decode.ns;
    let serve_ns = spans.total_ns();
    // Codec and state spans must account for most of the in-process time.
    let covered = (serve_ns + codec_ns) as f64 / traced.request_ns as f64;
    report.check(covered >= 0.9, || {
        format!(
            "codec + serve spans cover only {:.1}% of in-process time",
            covered * 100.0
        )
    });
    println!(
        "replay: {} requests, {:.3} s in process; serve spans {:.3} s, codec {:.3} s, core {:.3} s",
        traced.requests,
        traced.request_ns as f64 / 1e9,
        serve_ns as f64 / 1e9,
        codec_ns as f64 / 1e9,
        traced.core.phase_ns() as f64 / 1e9
    );
    let l = &mut report.layers;
    l.insert(
        "planner.shard_passes_per_op",
        traced.core.passes as f64 / traced.requests.max(1) as f64,
    );
    l.insert("serve.submit_epoch_us", spans.submit_epoch.mean_us());
    l.insert("serve.predict_us", spans.predict.mean_us());
    l.insert("serve.report_sample_us", spans.report_sample.mean_us());
    l.insert("codec.rush1_encode_ns", traced.rush1.encode.mean_ns());
    l.insert("codec.rush1_decode_ns", traced.rush1.decode.mean_ns());
    l.insert(
        "codec.rush1_bytes_per_frame",
        traced.rush1.bytes_per_frame(),
    );
    l.insert(
        "trace.core_share",
        traced.core.phase_ns() as f64 / serve_ns.max(1) as f64,
    );
    l.insert(
        "trace.overhead_pct",
        (traced.request_ns as f64 - untraced.request_ns as f64) / untraced.request_ns as f64
            * 100.0,
    );
}
