//! Per-layer tallies kept in memory by the traced runs and written into the
//! report at the end.
//!
//! Spans are timed from outside each layer's public functions. The CA
//! pass (`rush-core`) is observed through the kernel's own per-pass phase
//! breakdown (`PlannerCore::plan_stats`), read after every call into the
//! planner.

use crate::Report;
use rush_core::plan::PlanPhaseStats;
use rush_planner::ShardedPlanner;
use std::collections::BTreeMap;
use std::time::Instant;

/// Count and total time of one kind of span.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub count: u64,
    pub ns: u64,
}

impl Span {
    pub fn add(&mut self, since: Instant) {
        self.count += 1;
        self.ns += since.elapsed().as_nanos() as u64;
    }

    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64 / 1e3
        }
    }

    pub fn mean_ns(&self) -> f64 {
        self.mean_us() * 1e3
    }
}

/// What a shard showed at the previous observation: its last pass's phase
/// timings and its cumulative plan-cache hits and misses.
#[derive(Debug, Default, Clone, Copy)]
struct Seen {
    phases: (u64, u64, u64, u64),
    hits: u64,
    misses: u64,
}

/// CA passes seen on every shard of one or more planners, with their
/// phase times and delta-path telemetry.
#[derive(Debug, Default, Clone)]
pub struct CoreTally {
    /// Per `(planner, shard)`.
    seen: BTreeMap<(usize, usize), Seen>,
    pub passes: u64,
    solve_ns: u64,
    peel_ns: u64,
    map_ns: u64,
    assemble_ns: u64,
    peel_delta_passes: u64,
    map_reused: u64,
    map_total: u64,
    cache_hits: u64,
    cache_misses: u64,
}

fn phases(s: &PlanPhaseStats) -> (u64, u64, u64, u64) {
    (s.solve_ns, s.peel_ns, s.map_ns, s.assemble_ns)
}

impl CoreTally {
    /// Records the passes the shards of planner number `planner` ran since
    /// the last call.
    ///
    /// A pass is recognized by a change of the shard's last-pass phase
    /// timings; two passes between observations count once.
    pub fn observe(&mut self, planner: usize, sharded: &ShardedPlanner) {
        for shard in 0..sharded.shard_count() {
            // rush-lint: allow(RUSH-L008): read-only benchmark probe; the per-pass phase stats exist only per shard
            let core = sharded.shard_core(shard);
            let seen = self.seen.entry((planner, shard)).or_default();
            let stats = core.plan_stats();
            if phases(&stats) != seen.phases {
                seen.phases = phases(&stats);
                self.passes += 1;
                self.solve_ns += stats.solve_ns;
                self.peel_ns += stats.peel_ns;
                self.map_ns += stats.map_ns;
                self.assemble_ns += stats.assemble_ns;
                self.peel_delta_passes += u64::from(stats.peel_replay.delta);
                let reused = stats.map_delta.reused_prefix as u64;
                self.map_reused += reused;
                self.map_total += reused + stats.map_delta.repacked as u64;
            }
            // The memo counters are cumulative; a cleared cache restarts
            // them, so a drop means "counted from zero again".
            let (hits, misses) = (core.cache_hits(), core.cache_misses());
            self.cache_hits += if hits >= seen.hits {
                hits - seen.hits
            } else {
                hits
            };
            self.cache_misses += if misses >= seen.misses {
                misses - seen.misses
            } else {
                misses
            };
            (seen.hits, seen.misses) = (hits, misses);
        }
    }

    /// Starts observing fresh planners: their stats and cache counters
    /// start from zero again.
    pub fn restart(&mut self) {
        self.seen.clear();
    }

    /// Takes the shards' current stats as their baselines without counting
    /// them: only what happens next gets reported.
    pub fn rebase(&mut self, planner: usize, sharded: &ShardedPlanner) {
        let counts = self.clone();
        self.observe(planner, sharded);
        *self = CoreTally {
            seen: std::mem::take(&mut self.seen),
            ..counts
        };
    }

    pub fn phase_ns(&self) -> u64 {
        self.solve_ns + self.peel_ns + self.map_ns + self.assemble_ns
    }

    /// Writes the `core.*` layer metrics.
    pub fn fill(&self, report: &mut Report) {
        let per_pass = |ns: u64| {
            if self.passes == 0 {
                0.0
            } else {
                ns as f64 / self.passes as f64 / 1e3
            }
        };
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let l = &mut report.layers;
        l.insert("core.passes", self.passes as f64);
        l.insert("core.solve_us", per_pass(self.solve_ns));
        l.insert("core.peel_us", per_pass(self.peel_ns));
        l.insert("core.map_us", per_pass(self.map_ns));
        l.insert("core.assemble_us", per_pass(self.assemble_ns));
        l.insert(
            "core.cache_hit_ratio",
            ratio(self.cache_hits, self.cache_hits + self.cache_misses),
        );
        l.insert(
            "core.peel_replay_ratio",
            ratio(self.peel_delta_passes, self.passes),
        );
        l.insert(
            "core.map_reuse_ratio",
            ratio(self.map_reused, self.map_total),
        );
        l.insert("core.phase_s", self.phase_ns() as f64 / 1e9);
    }
}
