//! Continuous time-slot mapping — Algorithm 4 and Theorem 3.
//!
//! The onion peel fixes *target completion times*; real containers demand
//! *continuous* occupancy: a task, once placed, holds its container for its
//! whole runtime. The mapping maintains one queue per container and packs
//! jobs in ascending-target order: a job keeps adding tasks to the current
//! queue while the queue's occupation is still below the job's target, then
//! spills to the next queue. Theorem 3 guarantees every job completes no
//! later than `T_i + R_i` — at most one average task runtime past its
//! target — provided the targets satisfy the Theorem 2 prefix-capacity
//! condition.

use crate::CoreError;

/// One job's mapping input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MapJob {
    /// Remaining tasks to place.
    pub tasks: u64,
    /// Average task runtime `R_i` in slots (≥ 1).
    pub task_len: u64,
    /// Target completion time `T_i` in slots from now.
    pub target: u64,
    /// A *lax* job is indifferent to its completion time (flat utility, or
    /// nothing left to gain): it is placed **after** every strict job, into
    /// whatever capacity is left, balanced across the least-occupied
    /// queues. Its `target` is ignored for placement.
    pub lax: bool,
}

/// A contiguous run of one job's tasks on one container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Segment {
    /// Container (queue) index, `0..capacity`.
    pub container: u32,
    /// First slot of the run.
    pub start: u64,
    /// Number of back-to-back tasks in the run.
    pub tasks: u64,
}

/// Where one job's tasks were placed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Placement {
    /// Task runtime used for this job.
    pub task_len: u64,
    /// Slot by which the job's last task finishes (0 for a task-less job).
    pub completion: u64,
    /// The job's segments, in placement order.
    pub segments: Vec<Segment>,
}

impl Placement {
    /// Number of containers this job occupies at slot `t` under the plan.
    ///
    /// The container-assignment unit reads `active_at(0)` as the job's
    /// desired allocation for the *next* slot — the only part of the plan
    /// that is actually executed before the feedback cycle replans.
    pub fn active_at(&self, t: u64) -> u32 {
        self.segments
            .iter()
            .filter(|s| s.start <= t && t < s.start.saturating_add(s.tasks.saturating_mul(self.task_len)))
            .count() as u32
    }
}

/// Runs the continuous time-slot mapping (Algorithm 4).
///
/// Jobs are packed in ascending `target` order (ties: input order); the
/// result is returned in **input order**. Task-less jobs yield empty
/// placements.
///
/// If the targets violate the Theorem 2 capacity condition the algorithm
/// stays total: overflow tasks spill onto the least-occupied queue, and the
/// affected job's completion simply exceeds `target + task_len` (callers
/// can detect this by comparing).
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] if `capacity == 0` or any `task_len == 0`.
pub fn map_continuous(jobs: &[MapJob], capacity: u32) -> Result<Vec<Placement>, CoreError> {
    validate(jobs, capacity)?;
    let order = pack_order(jobs);
    let mut queues = Queues::default();
    queues.reset(capacity as usize);
    let mut placements = empty_placements(jobs);
    pack_suffix(jobs, &order, 0, &mut queues, &mut placements);
    check_mapping_contract(jobs, &placements, capacity);
    Ok(placements)
}

fn validate(jobs: &[MapJob], capacity: u32) -> Result<(), CoreError> {
    if capacity == 0 {
        return Err(CoreError::InvalidConfig { reason: "capacity must be > 0" });
    }
    if jobs.iter().any(|j| j.task_len == 0) {
        return Err(CoreError::InvalidConfig { reason: "task_len must be >= 1" });
    }
    Ok(())
}

/// Pack order: strict jobs by ascending target; lax jobs afterwards, also
/// by target (for lax jobs the target is not a deadline but an ordering
/// hint assigned by the onion peel). Ties broken by input index, so the
/// order is a pure function of the job list.
fn pack_order(jobs: &[MapJob]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| {
        let j = &jobs[i];
        (j.lax, j.target, i)
    });
    order
}

fn empty_placements(jobs: &[MapJob]) -> Vec<Placement> {
    jobs.iter()
        .map(|j| Placement { task_len: j.task_len, completion: 0, segments: Vec::new() })
        .collect()
}

/// Packs `order[from..]` onto the queues, given the occupations the prefix
/// `order[..from]` left behind. Packing one position at a time makes this
/// the shared tail of both the full and the incremental mapping: identical
/// inputs produce identical placements, bit for bit.
///
/// Neither packing rule scans the fleet. A strict job walks the
/// [`Queues`] min-tree straight to each queue still below its target, in
/// queue order — O(segments · log C) — and least-occupied-queue selection
/// (lax packing and overflow spill) is evaluated in closed form by
/// [`Queues::water_fill`] over the `min(t, C)` lowest queues, with
/// placements identical to Algorithm 4's one-task-at-a-time scan.
fn pack_suffix(
    jobs: &[MapJob],
    order: &[usize],
    from: usize,
    queues: &mut Queues,
    placements: &mut [Placement],
) {
    // Restoring the prefix's occupations is not packing work.
    queues.work = 0;
    for &i in &order[from..] {
        let job = jobs[i];
        // Reset in place: the slot may hold a recycled placement from the
        // previous pass — clearing keeps its segment buffer's capacity, so
        // steady-state repacks allocate nothing.
        let p = &mut placements[i];
        p.task_len = job.task_len;
        p.completion = 0;
        p.segments.clear();
        if job.lax {
            // Leftover packing: least-occupied-queue filling — work-
            // conserving, and strictly behind every strict reservation
            // already placed (the pack order puts every strict job first).
            queues.water_fill(job.task_len, job.tasks, p);
            continue;
        }
        let (l, target) = (job.task_len, job.target);
        let mut remaining = job.tasks;
        if remaining > 0 {
            // Dividends are `target − o − 1 < target`.
            let div = Recip::new(l, target);
            queues.scan_below(target, &mut |k, o| {
                // Tasks that can still *start* before the target on this
                // queue: ceil((target − o) / task_len), in a form that
                // cannot overflow.
                let fit = (div.div(target - o - 1) + 1).min(remaining);
                p.segments.push(Segment { container: k as u32, start: o, tasks: fit });
                let end = o.saturating_add(fit.saturating_mul(l));
                p.completion = p.completion.max(end);
                remaining -= fit;
                (end, remaining == 0)
            });
        }
        // Overflow (targets violated capacity): spill onto the
        // least-occupied queues, same selection rule as lax packing.
        if remaining > 0 {
            queues.water_fill(job.task_len, remaining, p);
        }
    }
}

/// Exact floor division by a fixed divisor via a precomputed reciprocal
/// (the round-up method): with `m = ⌊2^64/d⌋ + 1` and `e = m·d − 2^64`
/// (so `0 < e ≤ d`), `⌊x·m / 2^64⌋ = ⌊x/d⌋` exactly whenever
/// `x·e < 2^64` — guaranteed here by requiring `x_max·d < 2^64` up
/// front and falling back to hardware division otherwise. Turns the
/// ~30-cycle `div` in the packing inner loops into a multiply-and-shift
/// with bit-identical results.
#[derive(Clone, Copy)]
struct Recip {
    d: u64,
    m: u128,
    exact: bool,
}

impl Recip {
    fn new(d: u64, x_max: u64) -> Self {
        Recip {
            d,
            m: (1u128 << 64) / d as u128 + 1,
            exact: (x_max as u128) * (d as u128) < 1u128 << 64,
        }
    }

    #[inline]
    fn div(&self, x: u64) -> u64 {
        if self.exact {
            ((x as u128 * self.m) >> 64) as u64
        } else {
            x / self.d
        }
    }
}

/// The queue occupations of one packing pass, held as the leaves of a
/// min-tree over `(occupation, queue)` keys, so that both packing rules
/// reach their queues without scanning the fleet.
///
/// The tree is implicit: with `P` the queue count rounded up to a power of
/// two, node `n` has children `2n` and `2n + 1`, queue `k`'s occupation is
/// leaf `P + k`, and padding leaves hold `u64::MAX`. Descents prefer the
/// left child on equal values, which breaks ties by queue index — the
/// `(occupation, queue)` key order.
///
/// Occupations only grow within a pass, so inner nodes are kept as *lower
/// bounds* of their subtree minima rather than exactly: a fill writes only
/// the leaves it raises (recording them as dirty), and
/// [`Queues::scan_below`] refreshes the nodes it walks through. Only the
/// least-key selection in [`Queues::select_lowest`] needs exact minima,
/// and it restores them in one batch first: by walking the dirty paths, or
/// by one bottom-up rebuild once dirty leaves × depth reaches the leaf
/// count. Every node is at most its children throughout. The tree outlives
/// a pass: the next incremental pass lowers only the leaves its repacked
/// positions had raised ([`Queues::lower`]).
#[derive(Default, Debug, Clone)]
struct Queues {
    /// Number of queues `C`.
    len: usize,
    /// The `2P` tree nodes; index 0 is unused.
    tree: Vec<u64>,
    /// Leaves raised since the last sync whose ancestors may lag low.
    dirty: Vec<u32>,
    /// Too many dirty leaves to walk their paths: the next sync rebuilds.
    stale: bool,
    /// Scratch for one fill: the selected queues, ascending.
    sel: Vec<u32>,
    /// Scratch for one fill: the selected queues' occupations, in `sel`
    /// order.
    occ: Vec<u64>,
    /// Scratch for one fill: the progression keys inside the level window.
    keys: Vec<u64>,
    /// Tree nodes plus queues visited since packing started
    /// ([`MapStats::work`]).
    work: u64,
}

impl Queues {
    /// Starts over with `queues` empty queues and an exact tree.
    fn reset(&mut self, queues: usize) {
        let p = queues.next_power_of_two();
        self.len = queues;
        self.tree.resize(2 * p, 0);
        self.tree[p..p + queues].fill(0);
        self.tree[p + queues..].fill(u64::MAX);
        self.rebuild();
        self.dirty.clear();
        self.stale = false;
    }

    /// Recomputes every inner node from its children, bottom-up.
    fn rebuild(&mut self) {
        let p = self.tree.len() / 2;
        for n in (1..p).rev() {
            self.tree[n] = self.tree[2 * n].min(self.tree[2 * n + 1]);
        }
        self.work += p as u64;
    }

    /// Recomputes the inner nodes above queue `k`'s leaf from their
    /// children, bottom-up.
    fn fix_path(&mut self, k: usize) {
        let mut n = (self.tree.len() / 2 + k) / 2;
        while n > 0 {
            self.tree[n] = self.tree[2 * n].min(self.tree[2 * n + 1]);
            self.work += 1;
            n /= 2;
        }
    }

    /// Lowers queue `k`'s occupation to `o`, pulling down the ancestors
    /// above `o`. Every node stays at most its children, so the walk stops
    /// at the first ancestor already at or below `o`; an exact node stays
    /// exact and a lower bound stays one.
    fn lower(&mut self, k: usize, o: u64) {
        let mut n = self.tree.len() / 2 + k;
        self.tree[n] = o;
        while n > 1 {
            n /= 2;
            self.work += 1;
            if self.tree[n] <= o {
                break;
            }
            self.tree[n] = o;
        }
    }

    /// Raises queue `k`'s occupation to `o`, leaving its ancestors as
    /// lower bounds, and records the leaf for the next sync.
    fn raise(&mut self, k: usize, o: u64) {
        let p = self.tree.len() / 2;
        self.tree[p + k] = o;
        if self.stale {
            return;
        }
        // Once dirty leaves × depth reaches the leaf count, one rebuild
        // costs no more than walking every dirty path.
        if (self.dirty.len() + 1) * (p.trailing_zeros() as usize).max(1) >= p {
            self.stale = true;
            self.dirty.clear();
        } else {
            self.dirty.push(k as u32);
        }
    }

    /// Makes every inner node exact again.
    fn sync(&mut self) {
        if self.stale {
            self.rebuild();
        } else {
            let dirty = std::mem::take(&mut self.dirty);
            for &k in &dirty {
                self.fix_path(k as usize);
            }
            self.dirty = dirty;
        }
        self.dirty.clear();
        self.stale = false;
    }

    /// Hands every queue whose occupation is below `target` to `place`, in
    /// ascending queue order, and stores the occupation it returns, until
    /// `place` reports the job fully placed. A subtree whose (lower-bound)
    /// minimum is at or above `target` is skipped unvisited; every node
    /// walked is refreshed from its children on the way back up, so the
    /// placements made here leave their paths exact.
    fn scan_below(&mut self, target: u64, place: &mut impl FnMut(usize, u64) -> (u64, bool)) {
        let p = self.tree.len() / 2;
        // Iterative in-order walk: descend left into every node below the
        // target; after a leaf or a skipped subtree, climb out of finished
        // right children (refreshing each parent) and step to the sibling.
        let mut n = 1;
        loop {
            self.work += 1;
            let o = self.tree[n];
            if o < target {
                if n < p {
                    n *= 2;
                    continue;
                }
                let (end, done) = place(n - p, o);
                self.tree[n] = end;
                if done {
                    break;
                }
            }
            while n & 1 == 1 && n > 1 {
                n /= 2;
                self.tree[n] = self.tree[2 * n].min(self.tree[2 * n + 1]);
            }
            if n == 1 {
                return;
            }
            n += 1;
        }
        while n > 1 {
            n /= 2;
            self.tree[n] = self.tree[2 * n].min(self.tree[2 * n + 1]);
        }
    }

    /// Fills `sel` (ascending) and `occ` with the queues holding the `t`
    /// least `(occupation, queue)` keys and returns `true` — or returns
    /// `false` when selecting is not cheaper than taking every queue
    /// (`t · log₂P ≥ C`).
    fn select_lowest(&mut self, t: u64) -> bool {
        let p = self.tree.len() / 2;
        let depth = u64::from(p.trailing_zeros()).max(1);
        if t.saturating_mul(depth) >= self.len as u64 {
            return false;
        }
        self.sync();
        self.sel.clear();
        self.occ.clear();
        // Pop the least key `t` times: descend to the leftmost minimum,
        // then mask its leaf. Masks propagate eagerly so the tree stays
        // exact for the next descent.
        // bound: the tree holds 2P ≥ 2 nodes, so the root exists.
        while (self.sel.len() as u64) < t && self.tree[1] < u64::MAX {
            let mut n = 1;
            while n < p {
                n = if self.tree[2 * n] <= self.tree[2 * n + 1] { 2 * n } else { 2 * n + 1 };
            }
            self.work += depth;
            self.sel.push((n - p) as u32);
            self.occ.push(self.tree[n]);
            self.tree[n] = u64::MAX;
            self.fix_path(n - p);
        }
        // Unmask: lowering a leaf back keeps the tree exact.
        for i in 0..self.sel.len() {
            self.lower(self.sel[i] as usize, self.occ[i]);
        }
        // Fewer than `t` pops means the keys ran into `u64::MAX`, where a
        // masked leaf looks like a saturated queue: take every queue.
        if (self.sel.len() as u64) < t {
            return false;
        }
        self.sel.sort_unstable();
        self.occ.clear();
        self.occ.extend(self.sel.iter().map(|&k| self.tree[p + k as usize]));
        true
    }

    /// Places `tasks` tasks of length `task_len` by least-occupied-queue
    /// selection (see [`fill_level`]).
    ///
    /// Only the queues holding the `t` least *first* keys can take a task:
    /// those are `t` keys no larger than the `t`-th of them, `(o₍t₎, k₍t₎)`,
    /// so every other queue's first key already loses to the `t`-th pop —
    /// ties at the water level included. [`Queues::select_lowest`] picks
    /// that subset in O(t · log C) and the closed form runs over it alone;
    /// when `t` is large the closed form runs over every leaf in place, and
    /// the tree is left stale — that fill's O(C) cost pays for the rebuild.
    fn water_fill(&mut self, task_len: u64, tasks: u64, placement: &mut Placement) {
        if tasks == 0 {
            return;
        }
        let p = self.tree.len() / 2;
        if self.select_lowest(tasks) {
            let passes = fill_level(&mut self.occ, |i| self.sel[i], &mut self.keys, task_len, tasks, placement);
            self.work += passes * self.occ.len() as u64;
            for i in 0..self.sel.len() {
                let (k, o) = (self.sel[i] as usize, self.occ[i]);
                if self.tree[p + k] != o {
                    self.raise(k, o);
                }
            }
        } else {
            let leaves = &mut self.tree[p..p + self.len];
            let passes = fill_level(leaves, |i| i as u32, &mut self.keys, task_len, tasks, placement);
            self.work += passes * self.len as u64;
            self.stale = true;
            self.dirty.clear();
        }
    }
}

/// Places `tasks` tasks of length `task_len` onto the candidate queues
/// whose occupations `occ` holds, in ascending queue order (`queue` maps a
/// position to its queue index), by least-occupied-queue selection — the
/// queue with the smallest `(occupation, queue)` key takes the next task —
/// evaluated in closed form. Raises `occ` in place and returns the number
/// of passes made over it.
///
/// One-at-a-time selection pops keys in non-decreasing `(value, queue)`
/// order from the per-queue arithmetic progressions
/// `(o_k + j·R, k), j ≥ 0`: placing a task on queue `k` exposes its next
/// key, so after `t` pops exactly the `t` smallest keys of the union have
/// been taken. The per-queue task counts therefore follow from the value
/// `w` of the `t`-th smallest key: every key strictly below `w` is taken,
/// and the remainder goes to the queues whose progression hits `w`
/// exactly, in ascending queue order (the key tie-break). `w` is located
/// by a volume bound that pins it inside a window of width O(R) (bisection
/// narrows the rare cases where the bound is loose), then *selected*
/// outright as the matching order statistic of the ≤ 3 per-queue
/// progression keys inside the window — O(|occ|) total, independent of
/// how many tasks each queue absorbs — and each queue's tasks land as one
/// contiguous segment, exactly where the scan would have stacked them.
///
/// Occupations saturate at `u64::MAX`, where a queue's key stops growing:
/// if the level reaches it, the lowest-indexed queue keeps the least key
/// and takes every remaining task.
fn fill_level(
    occ: &mut [u64],
    queue: impl Fn(usize) -> u32,
    keys: &mut Vec<u64>,
    task_len: u64,
    tasks: u64,
    placement: &mut Placement,
) -> u64 {
    let l = task_len;
    let (min_o, sum_o) = occ.iter().fold((u64::MAX, 0u128), |(m, s), &o| (m.min(o), s + o as u128));
    // The min+sum fold, the placement loop, then one per probe below.
    let mut passes = 2u64;
    // Every dividend below is `w − o ≤ tasks·R` (the bisection never
    // probes past `min_o + tasks·R`, and `o ≥ min_o` whenever it is
    // divided), so one reciprocal covers the whole call.
    let div = Recip::new(l, tasks.saturating_mul(l));
    // Keys with value ≤ w across the candidate queues' progressions.
    let count = |occ: &[u64], w: u64| -> u64 {
        occ.iter().map(|&o| if o > w { 0 } else { div.div(w - o) + 1 }).fold(0, u64::saturating_add)
    };
    // The least-occupied queue alone exposes `tasks + 1` keys by
    // `min_o + tasks·R`, so the t-th smallest key is at most that. The
    // volume bound sharpens both ends: summing over *all* queues (queues
    // above `w` contribute negatively), `count(w) > (C·w − Σo)/R`, so
    // `w` with `C·w ≥ t·R + Σo` is a valid upper end; and each of the
    // `A ≤ C` active queues overshoots the real quotient by less than 1,
    // so `count(w) < (C·w − Σo)/R + C` *when every queue is active* —
    // making the symmetric lower end a guess, which the window
    // enumeration below verifies at no extra cost.
    let c = occ.len() as u128;
    let hi_bound = (tasks as u128 * l as u128 + sum_o) / c + 1;
    let lo_guess = (tasks.saturating_sub(c as u64) as u128 * l as u128 + sum_o) / c;
    let hi_bound = hi_bound.min(u128::from(u64::MAX)) as u64;
    let mut hi = min_o.saturating_add(tasks.saturating_mul(l)).min(hi_bound.max(min_o));
    let mut lo = min_o.max(lo_guess.min(u128::from(hi)) as u64);
    if hi == u64::MAX {
        // The upper end saturated: the level is `u64::MAX` itself unless
        // enough keys lie below it.
        passes += 1;
        if count(occ, u64::MAX - 1) >= tasks {
            hi = u64::MAX - 1;
        } else {
            lo = u64::MAX;
        }
    }
    // Invariant: `count(hi) ≥ tasks` (or `hi` is the saturation point), so
    // the t-th smallest key value is at most `hi`; it is at least `lo`
    // while `count(lo − 1) < tasks`, which holds for `lo = min_o` and is
    // verified for the volume guess by the enumeration below. Bisection
    // narrows the window to width ≤ 2R (the volume guess usually lands
    // there outright); within such a window each queue's progression
    // holds at most three keys, so the t-th smallest is *selected* from
    // the enumerated step points rather than probed for — and the same
    // enumeration yields the strictly-below-`w` count the tie split needs.
    let window = l.saturating_mul(2);
    let (w, below_w) = loop {
        if lo == u64::MAX {
            passes += 1;
            break (lo, count(occ, lo - 1));
        }
        if hi - lo > window {
            let mid = lo + (hi - lo) / 2;
            passes += 1;
            if count(occ, mid) >= tasks {
                hi = mid;
            } else {
                lo = mid + 1;
            }
            continue;
        }
        // Here `hi < u64::MAX`. `base` (keys strictly below the window)
        // falls out of the same divisions that locate each queue's first
        // in-window key — no separate counting probe.
        passes += 1;
        let mut base = 0u64;
        // A window of width ≤ 2R holds at most three keys per queue.
        if keys.len() < 3 * occ.len() {
            keys.resize(3 * occ.len(), 0);
        }
        let mut nk = 0usize;
        for &o in occ.iter() {
            // Smallest progression key ≥ lo, then every key up to hi.
            let mut key = if o >= lo {
                o
            } else {
                let q = div.div(lo - o);
                let f = o + q * l;
                if f < lo {
                    base = base.saturating_add(q + 1);
                    f.saturating_add(l)
                } else {
                    base = base.saturating_add(q);
                    f
                }
            };
            while key <= hi {
                keys[nk] = key;
                nk += 1;
                key = key.saturating_add(l);
            }
        }
        if base >= tasks {
            // `count(lo − 1) ≥ tasks`: some queue sat above the water level,
            // so the all-active volume guess overshot. Fall back to the
            // safe lower end, below the guess.
            hi = lo - 1;
            lo = min_o;
            continue;
        }
        // `nk = count(hi) − base ≥ tasks − base`, so the rank is in range.
        let k = (tasks - base) as usize;
        let (_, kth, _) = keys[..nk].select_nth_unstable(k - 1);
        let w = *kth;
        break (w, base + keys[..nk].iter().filter(|&&x| x < w).count() as u64);
    };
    // Segments already in the placement (the strict prefix when this is an
    // overflow spill) are container-ascending, and a strict segment on
    // queue `k` ends exactly at queue `k`'s current occupation. When the
    // spill lands right behind one, extend it instead of emitting a second
    // segment: the tasks run at the same rate (`task_len` is uniform per
    // placement), so the merged segment covers the identical slot interval
    // — the occupancy rewind (earliest start per queue) and `active_at`
    // (interval union) are unchanged, keeping plans bit-identical while
    // cutting the emitted segment count.
    let prior = placement.segments.len();
    let mut adj = 0usize;
    // Keys strictly below `w` are all taken (count(w−1) < tasks by
    // minimality of `w`); ties at exactly `w` fill in queue order.
    let mut leftover = tasks - below_w;
    for (i, o) in occ.iter_mut().enumerate() {
        let o0 = *o;
        let mut m = 0;
        let mut tie = false;
        if o0 <= w {
            let q = div.div(w - o0);
            let r = (w - o0) - q * l;
            // Keys strictly below w: q + 1 if the remainder is nonzero
            // (progression entries at o0, o0+R, …, o0+q·R), else q.
            m = if r != 0 { q + 1 } else { q };
            tie = r == 0;
        }
        if leftover > 0 && (tie || w == u64::MAX) {
            // At the saturation point the first queue keeps the least key.
            let take = if w == u64::MAX { leftover } else { 1 };
            m += take;
            leftover -= take;
        }
        if m > 0 {
            let k = queue(i);
            while adj < prior && placement.segments[adj].container < k {
                adj += 1;
            }
            match placement.segments.get_mut(adj) {
                Some(s)
                    if adj < prior
                        && s.container == k
                        && s.start.saturating_add(s.tasks.saturating_mul(l)) == o0 =>
                {
                    s.tasks += m;
                }
                _ => placement.segments.push(Segment { container: k, start: o0, tasks: m }),
            }
            *o = o0.saturating_add(m.saturating_mul(l));
            placement.completion = placement.completion.max(*o);
        }
    }
    debug_assert_eq!(leftover, 0, "water_fill under-placed");
    passes
}

#[cfg_attr(not(feature = "strict-invariants"), allow(unused_variables))]
fn check_mapping_contract(jobs: &[MapJob], placements: &[Placement], capacity: u32) {
    #[cfg(feature = "strict-invariants")]
    {
        // Conservation: every task of every job lands in exactly one
        // segment — the spill path guarantees totality.
        for (i, p) in placements.iter().enumerate() {
            let placed: u64 = p.segments.iter().map(|s| s.tasks).sum();
            debug_assert_eq!(
                placed, jobs[i].tasks,
                "mapping contract: job {i} placed {placed} of {} tasks",
                jobs[i].tasks
            );
        }
        // Theorem 3: when the strict jobs' targets satisfy the Theorem 2
        // prefix-capacity condition, every strict job completes within one
        // task runtime of its target. (Lax jobs are packed after every
        // strict job and cannot affect strict completions.)
        let strict: Vec<MapJob> = jobs.iter().copied().filter(|j| !j.lax).collect();
        if capacity_condition_holds(&strict, capacity) {
            for (i, job) in jobs.iter().enumerate() {
                if job.lax {
                    continue;
                }
                let bound = job.target.saturating_add(job.task_len);
                debug_assert!(
                    placements[i].completion <= bound,
                    "Theorem 3 contract: job {i} completion {} > T + R = {bound}",
                    placements[i].completion,
                );
            }
        }
    }
}

/// Telemetry: how the last [`map_continuous_incremental`] pass executed.
#[derive(Default, Clone, Copy, Debug, PartialEq, Eq)]
pub struct MapStats {
    /// Whether any cached prefix was eligible for reuse.
    pub delta: bool,
    /// Pack-order positions whose cached placements were reused verbatim.
    pub reused_prefix: usize,
    /// Pack-order positions repacked from the divergence point on.
    pub repacked: usize,
    /// Occupation-tree nodes plus queues visited while repacking: a
    /// deterministic cost count for the pass. It leaves out restoring the
    /// occupations the reused prefix leaves: rewinding the repacked
    /// positions' previous segments, or an O(C) reset on the first pass and
    /// after a capacity change.
    pub work: u64,
}

/// Cross-pass state for [`map_continuous_incremental`]: the previous
/// pass's inputs, pack order and placements (in input order). All
/// buffers — placements, their segment vectors, the pack order and the
/// occupation tree with its scratch — are recycled in place across
/// passes, so a steady-state single-job delta allocates nothing.
#[derive(Default, Debug, Clone)]
pub struct MapState {
    capacity: u32,
    jobs: Vec<MapJob>,
    order: Vec<usize>,
    placements: Vec<Placement>,
    queues: Queues,
    valid: bool,
    stats: MapStats,
}

impl MapState {
    /// Creates an empty state; the first pass packs everything.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the cached pack: the next pass repacks from scratch.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// How the most recent pass executed.
    pub fn last_stats(&self) -> MapStats {
        self.stats
    }
}

/// Beyond this many changed jobs a splice repair of the cached pack
/// order stops paying for itself (each splice memmoves O(n) entries and
/// the divergence point drops toward 0 anyway); fall back to a full
/// re-sort and repack.
const MAX_SPLICED_CHANGES: usize = 16;

/// [`map_continuous`] with cross-pass memoization.
///
/// Algorithm 4 packs one pack-order position at a time, and a position's
/// placement depends only on the queue occupations left by the positions
/// before it. So when the jobs at pack-order positions `0..p` are
/// unchanged since the previous pass, their cached placements are reused
/// verbatim, and only positions `p..` are repacked — in place, onto the
/// recycled placement buffers. The occupations the prefix leaves are
/// recovered by rewinding the previous pass's final occupations past the
/// repacked positions' previous segments (each segment's start *is* its
/// queue's occupation at the moment it was placed): the cost of a pass is
/// set by what it repacks, not by the prefix or the fleet size. The cached pack order
/// is likewise repaired by splicing out the changed jobs and
/// re-inserting them at their new key positions instead of re-sorting.
/// The returned slice (borrowed from `state`, in input order) is
/// bit-identical to [`map_continuous`]'s result in every case.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] under the same conditions as
/// [`map_continuous`].
pub fn map_continuous_incremental<'a>(
    jobs: &[MapJob],
    capacity: u32,
    state: &'a mut MapState,
) -> Result<&'a [Placement], CoreError> {
    validate(jobs, capacity)?;
    let n = jobs.len();
    let eligible = state.valid && state.capacity == capacity && state.jobs.len() == n;
    // First pack-order position whose inputs differ from the cached pass;
    // everything before it keeps its placement verbatim.
    let mut from = 0usize;
    if eligible {
        from = splice_order(jobs, &mut state.order, &state.jobs);
    } else {
        state.order.clear();
        state.order.extend(0..n);
        state.order.sort_unstable_by_key(|&i| (jobs[i].lax, jobs[i].target, i));
    }
    state.jobs.clear();
    state.jobs.extend_from_slice(jobs);
    // Recycle the placement slots; stale suffix entries are reset inside
    // `pack_suffix`, prefix entries are already correct.
    if state.placements.len() != n {
        state
            .placements
            .resize(n, Placement { task_len: 1, completion: 0, segments: Vec::new() });
    }
    if eligible {
        // Rewind the occupations the previous pass ended with to those the
        // reused prefix leaves. Only the repacked positions' previous
        // segments moved them, and a segment starts at its queue's
        // occupation when placed, so the earliest start among those
        // segments on a queue is the prefix's occupation there.
        let p = state.queues.tree.len() / 2;
        for &i in &state.order[from..] {
            for s in &state.placements[i].segments {
                let k = s.container as usize;
                if s.start < state.queues.tree[p + k] {
                    state.queues.lower(k, s.start);
                }
            }
        }
    } else {
        state.queues.reset(capacity as usize);
    }
    pack_suffix(jobs, &state.order, from, &mut state.queues, &mut state.placements);
    check_mapping_contract(jobs, &state.placements, capacity);
    state.capacity = capacity;
    state.stats = MapStats {
        delta: eligible,
        reused_prefix: from,
        repacked: n - from,
        work: state.queues.work,
    };
    state.valid = true;
    Ok(&state.placements)
}

/// Repairs a cached pack order after some jobs changed: every changed
/// job is spliced out (located by its *old* sort key) and re-inserted at
/// its *new* key position, leaving `order` exactly equal to
/// [`pack_order`]`(jobs)` — the key `(lax, target, index)` is unique, so
/// sorted-by-unique-key is a canonical form. Returns the first position
/// the repair touched (the repack divergence point); positions before it
/// kept both their order entry and that job's fields.
///
/// Falls back to a full re-sort when more than [`MAX_SPLICED_CHANGES`]
/// jobs changed, returning 0.
fn splice_order(jobs: &[MapJob], order: &mut Vec<usize>, old_jobs: &[MapJob]) -> usize {
    let n = jobs.len();
    let mut from = n;
    // (old position, job index) of changed jobs whose sort key moved.
    let mut moved = [(0usize, 0usize); MAX_SPLICED_CHANGES];
    let mut moved_len = 0usize;
    for (k, (job, old)) in jobs.iter().zip(old_jobs).enumerate() {
        if job == old {
            continue;
        }
        let old_key = (old.lax, old.target, k);
        let pos = order
            .binary_search_by_key(&old_key, |&i| (old_jobs[i].lax, old_jobs[i].target, i))
            // rush-lint: allow(RUSH-L003): the key is read from the same cached order being searched
            .expect("cached pack order is sorted by the cached jobs' keys");
        if (job.lax, job.target) == (old.lax, old.target) {
            // Key unchanged: the job stays put, but its packing inputs
            // changed, so repack must start no later than here.
            from = from.min(pos);
            continue;
        }
        if moved_len == MAX_SPLICED_CHANGES {
            order.clear();
            order.extend(0..n);
            order.sort_unstable_by_key(|&i| (jobs[i].lax, jobs[i].target, i));
            return 0;
        }
        moved[moved_len] = (pos, k);
        moved_len += 1;
    }
    let moved = &mut moved[..moved_len];
    // Remove in descending position order so earlier removals don't
    // shift the positions still pending; the smallest removal position is
    // removed last and hence unshifted — safe to take as a `from` bound.
    moved.sort_unstable_by_key(|m| std::cmp::Reverse(m.0));
    for &(pos, _) in moved.iter() {
        order.remove(pos);
        from = from.min(pos);
    }
    for &(_, k) in moved.iter() {
        let new_key = (jobs[k].lax, jobs[k].target, k);
        let ins = order.partition_point(|&i| (jobs[i].lax, jobs[i].target, i) < new_key);
        order.insert(ins, k);
        from = from.min(ins);
    }
    from
}

/// Checks the Theorem 2 prefix-capacity condition for (target, demand)
/// pairs: `Σ_{i: T_i ≤ T_k} η_i ≤ C · T_k` for every job `k`.
///
/// Demands are `tasks · task_len` container·slots. Useful in tests and in
/// admission logic.
pub fn capacity_condition_holds(jobs: &[MapJob], capacity: u32) -> bool {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| jobs[i].target);
    let mut cum = 0u128;
    for &i in &order {
        cum = cum.saturating_add(jobs[i].tasks as u128 * jobs[i].task_len as u128);
        if cum > capacity as u128 * jobs[i].target as u128 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_job_single_queue() {
        let jobs = [MapJob { tasks: 3, task_len: 10, target: 30, lax: false }];
        let p = map_continuous(&jobs, 4).unwrap();
        assert_eq!(p[0].segments.len(), 1);
        assert_eq!(p[0].segments[0], Segment { container: 0, start: 0, tasks: 3 });
        assert_eq!(p[0].completion, 30);
    }

    #[test]
    fn job_spreads_across_queues_when_target_tight() {
        // 4 tasks of 10 slots, target 10: one task fits per queue.
        let jobs = [MapJob { tasks: 4, task_len: 10, target: 10, lax: false }];
        let p = map_continuous(&jobs, 4).unwrap();
        assert_eq!(p[0].segments.len(), 4);
        assert!(p[0].segments.iter().all(|s| s.start == 0 && s.tasks == 1));
        assert_eq!(p[0].completion, 10);
        assert_eq!(p[0].active_at(0), 4);
        assert_eq!(p[0].active_at(9), 4);
        assert_eq!(p[0].active_at(10), 0);
    }

    #[test]
    fn theorem3_bound_on_boundary_case() {
        // Target 15 with task_len 10: a task may start at slot 14 and end
        // at 24 ≤ target + task_len = 25.
        let jobs = [
            MapJob { tasks: 1, task_len: 14, target: 15, lax: false }, // occupies queue 0 to 14
            MapJob { tasks: 1, task_len: 10, target: 15, lax: false }, // starts at 14 on queue 0
        ];
        let p = map_continuous(&jobs, 1).unwrap();
        assert_eq!(p[1].segments[0].start, 14);
        assert_eq!(p[1].completion, 24);
        assert!(p[1].completion <= 15 + 10);
    }

    #[test]
    fn jobs_packed_in_target_order_regardless_of_input_order() {
        let jobs = [
            MapJob { tasks: 2, task_len: 10, target: 100, lax: false }, // late target
            MapJob { tasks: 2, task_len: 10, target: 20, lax: false },  // early target
        ];
        let p = map_continuous(&jobs, 1).unwrap();
        // Early-target job goes first on the single queue.
        assert_eq!(p[1].segments[0].start, 0);
        assert_eq!(p[0].segments[0].start, 20);
    }

    #[test]
    fn results_in_input_order() {
        let jobs = [
            MapJob { tasks: 1, task_len: 5, target: 50, lax: false },
            MapJob { tasks: 1, task_len: 7, target: 10, lax: false },
        ];
        let p = map_continuous(&jobs, 2).unwrap();
        assert_eq!(p[0].task_len, 5);
        assert_eq!(p[1].task_len, 7);
    }

    #[test]
    fn overflow_spills_to_least_occupied() {
        // Impossible target: 10 tasks of 10 slots, target 10, 2 queues.
        let jobs = [MapJob { tasks: 10, task_len: 10, target: 10, lax: false }];
        let p = map_continuous(&jobs, 2).unwrap();
        let total: u64 = p[0].segments.iter().map(|s| s.tasks).sum();
        assert_eq!(total, 10, "all tasks placed despite overflow");
        assert_eq!(p[0].completion, 50); // 10 tasks over 2 queues
        assert!(p[0].completion > 10 + 10, "bound violated ⇒ detectable");
    }

    #[test]
    fn overflow_spill_coalesces_with_strict_prefix() {
        // The strict pass puts one task per queue (ending at slot 10) and
        // the spill continues at slot 10 on the same queues: adjacent
        // same-rate runs must come out as one segment per queue, not two.
        let jobs = [MapJob { tasks: 10, task_len: 10, target: 10, lax: false }];
        let p = map_continuous(&jobs, 2).unwrap();
        assert_eq!(p[0].segments.len(), 2, "adjacent same-rate runs merge");
        assert_eq!(p[0].segments[0], Segment { container: 0, start: 0, tasks: 5 });
        assert_eq!(p[0].segments[1], Segment { container: 1, start: 0, tasks: 5 });
        assert_eq!(p[0].active_at(0), 2);
        assert_eq!(p[0].active_at(49), 2);
    }

    #[test]
    fn zero_task_job_is_empty() {
        let jobs = [MapJob { tasks: 0, task_len: 10, target: 10, lax: false }];
        let p = map_continuous(&jobs, 2).unwrap();
        assert!(p[0].segments.is_empty());
        assert_eq!(p[0].completion, 0);
        assert_eq!(p[0].active_at(0), 0);
    }

    #[test]
    fn zero_target_job_still_places() {
        // Overdue job (target 0): the start-before-target rule never fires,
        // so everything goes through the spill path, ASAP.
        let jobs = [MapJob { tasks: 2, task_len: 5, target: 0, lax: false }];
        let p = map_continuous(&jobs, 2).unwrap();
        let total: u64 = p[0].segments.iter().map(|s| s.tasks).sum();
        assert_eq!(total, 2);
        assert_eq!(p[0].completion, 5); // one task per queue
    }

    #[test]
    fn validation() {
        assert!(map_continuous(&[], 0).is_err());
        assert!(map_continuous(&[MapJob { tasks: 1, task_len: 0, target: 5, lax: false }], 2).is_err());
    }

    #[test]
    fn capacity_condition_checker() {
        let ok = [
            MapJob { tasks: 2, task_len: 10, target: 20, lax: false },
            MapJob { tasks: 2, task_len: 10, target: 40, lax: false },
        ];
        assert!(capacity_condition_holds(&ok, 1));
        let bad = [MapJob { tasks: 3, task_len: 10, target: 20, lax: false }];
        assert!(!capacity_condition_holds(&bad, 1));
    }

    #[test]
    fn theorem3_bound_under_capacity_condition() {
        // Deterministic instance satisfying (12): staggered targets.
        let jobs = [
            MapJob { tasks: 4, task_len: 10, target: 20, lax: false },
            MapJob { tasks: 4, task_len: 15, target: 60, lax: false },
            MapJob { tasks: 6, task_len: 5, target: 70, lax: false },
            MapJob { tasks: 2, task_len: 30, target: 100, lax: false },
        ];
        let capacity = 2;
        assert!(capacity_condition_holds(&jobs, capacity));
        let p = map_continuous(&jobs, capacity).unwrap();
        for (i, placement) in p.iter().enumerate() {
            assert!(
                placement.completion <= jobs[i].target + jobs[i].task_len,
                "job {i}: completion {} > T+R {}",
                placement.completion,
                jobs[i].target + jobs[i].task_len
            );
        }
    }

    #[test]
    fn lax_jobs_pack_into_leftovers_after_strict() {
        let jobs = [
            MapJob { tasks: 2, task_len: 10, target: 10, lax: false },
            MapJob { tasks: 4, task_len: 10, target: 5, lax: true }, // target ignored
        ];
        let p = map_continuous(&jobs, 2).unwrap();
        // Strict job takes both queues at slot 0; lax fills behind it.
        assert!(p[0].segments.iter().all(|s| s.start == 0));
        assert!(p[1].segments.iter().all(|s| s.start >= 10));
        assert_eq!(p[1].completion, 30); // 4 tasks balanced on 2 queues after 10
        assert_eq!(p[1].active_at(0), 0);
        assert_eq!(p[1].active_at(15), 2);
    }

    #[test]
    fn lax_only_runs_immediately_when_capacity_free() {
        let jobs = [MapJob { tasks: 6, task_len: 5, target: 999, lax: true }];
        let p = map_continuous(&jobs, 3).unwrap();
        assert_eq!(p[0].active_at(0), 3, "lax jobs use free capacity at once");
        assert_eq!(p[0].completion, 10);
    }

    #[test]
    fn zero_demand_jobs_mixed_with_loaded_jobs() {
        // Zero-demand jobs ride along without consuming capacity or
        // breaking the Theorem 3 bound for their loaded peers.
        let jobs = [
            MapJob { tasks: 0, task_len: 10, target: 20, lax: false },
            MapJob { tasks: 4, task_len: 10, target: 20, lax: false },
            MapJob { tasks: 0, task_len: 3, target: 0, lax: false },
            MapJob { tasks: 0, task_len: 5, target: 7, lax: true },
        ];
        let p = map_continuous(&jobs, 2).unwrap();
        assert!(p[0].segments.is_empty() && p[2].segments.is_empty() && p[3].segments.is_empty());
        assert_eq!(p[0].completion, 0);
        let total: u64 = p[1].segments.iter().map(|s| s.tasks).sum();
        assert_eq!(total, 4);
        assert!(p[1].completion <= 20 + 10);
    }

    #[test]
    fn target_at_horizon_completes_within_bound() {
        // A job whose target sits exactly at the planning horizon still
        // obeys T + R: the pack never starts a task at or past the target.
        const HORIZON: u64 = 1_000_000;
        let jobs = [
            MapJob { tasks: 3, task_len: 7, target: 10, lax: false },
            MapJob { tasks: 5, task_len: 9, target: HORIZON, lax: false },
        ];
        assert!(capacity_condition_holds(&jobs, 3));
        let p = map_continuous(&jobs, 3).unwrap();
        assert!(p[1].completion <= HORIZON + 9);
    }

    #[test]
    fn full_cluster_all_containers_committed() {
        // C = 3 containers, each fully committed to a strict job through
        // slot 30; a later-target job queues behind and still meets T + R.
        let jobs = [
            MapJob { tasks: 3, task_len: 10, target: 30, lax: false },
            MapJob { tasks: 3, task_len: 10, target: 30, lax: false },
            MapJob { tasks: 3, task_len: 10, target: 30, lax: false },
            MapJob { tasks: 3, task_len: 10, target: 60, lax: false },
        ];
        assert!(capacity_condition_holds(&jobs, 3));
        let p = map_continuous(&jobs, 3).unwrap();
        for placement in &p[..3] {
            // bound: the first three jobs fill all containers through 30
            assert_eq!(placement.completion, 30);
        }
        assert!(p[3].segments.iter().all(|s| s.start >= 30));
        assert!(p[3].completion <= 60 + 10);
    }

    /// The memoized pack must be bit-identical to the full pack across a
    /// deterministic stream of single-job mutations (target moves, task
    /// count changes, lax flips, job churn at both ends of the order).
    #[test]
    fn incremental_mapping_matches_full_pack() {
        let mut jobs: Vec<MapJob> = (0..50)
            .map(|i| MapJob {
                tasks: 1 + (i * 7) % 9,
                task_len: 1 + (i * 3) % 13,
                target: 10 + (i * 37) % 400,
                lax: i % 5 == 0,
            })
            .collect();
        let mut state = MapState::new();
        let capacity = 8;
        for step in 0..40u64 {
            let k = (step as usize * 11) % jobs.len();
            match step % 4 {
                0 => jobs[k].target = (jobs[k].target + 31) % 450,
                1 => jobs[k].tasks = 1 + (jobs[k].tasks + 2) % 11,
                2 => jobs[k].lax = !jobs[k].lax,
                _ => jobs[k].task_len = 1 + (jobs[k].task_len + 4) % 17,
            }
            let full = map_continuous(&jobs, capacity).unwrap();
            let inc = map_continuous_incremental(&jobs, capacity, &mut state).unwrap();
            assert_eq!(full, inc, "step {step}");
            if step > 0 {
                assert!(state.last_stats().delta, "step {step} should take the delta path");
            }
        }
        // Capacity change invalidates the cache but stays correct.
        let full = map_continuous(&jobs, capacity + 1).unwrap();
        let inc = map_continuous_incremental(&jobs, capacity + 1, &mut state).unwrap();
        assert_eq!(full, inc);
        assert!(!state.last_stats().delta);
        // No-op replan: the entire pack order is reused.
        let again = map_continuous_incremental(&jobs, capacity + 1, &mut state).unwrap();
        assert_eq!(full, again);
        assert_eq!(state.last_stats().reused_prefix, jobs.len());
        assert_eq!(state.last_stats().repacked, 0);
    }

    #[test]
    fn huge_inputs_saturate_instead_of_overflowing() {
        // Strict fit and occupation: three tasks of 2^63 − 1 slots on one
        // queue run past u64::MAX, so the completion saturates.
        let l = u64::MAX / 2;
        let jobs = [MapJob { tasks: 3, task_len: l, target: u64::MAX - 5, lax: false }];
        let p = map_continuous(&jobs, 1).unwrap();
        assert_eq!(p[0].segments, vec![Segment { container: 0, start: 0, tasks: 3 }]);
        assert_eq!(p[0].completion, u64::MAX);
        assert_eq!(p[0].active_at(u64::MAX - 1), 1);
        // Lax volume: 2^33 tasks × 2^32 slots on 4 queues is 2^63 per
        // queue, which fits — only the intermediate `tasks · R` does not.
        let jobs = [MapJob { tasks: 1 << 33, task_len: 1 << 32, target: 0, lax: true }];
        let p = map_continuous(&jobs, 4).unwrap();
        assert_eq!(p[0].completion, 1 << 63);
        assert!(p[0].segments.iter().all(|s| s.start == 0 && s.tasks == 1 << 31));
        // A spill whose water level reaches the saturation point: each
        // queue holds three keys below u64::MAX, and the seventh task goes
        // to the lowest-indexed queue, whose key stays least.
        let jobs = [MapJob { tasks: 7, task_len: l, target: 0, lax: false }];
        let p = map_continuous(&jobs, 2).unwrap();
        assert_eq!(
            p[0].segments,
            vec![Segment { container: 0, start: 0, tasks: 4 }, Segment { container: 1, start: 0, tasks: 3 }]
        );
        assert_eq!(p[0].completion, u64::MAX);
        // Strict fits next to the saturation point: the first job leaves
        // queue 0 at u64::MAX − 1 and queue 1 at R; the second starts one
        // task on each, and the one on queue 0 saturates.
        let jobs = [
            MapJob { tasks: 3, task_len: l, target: u64::MAX - 5, lax: false },
            MapJob { tasks: 2, task_len: 4, target: u64::MAX, lax: false },
        ];
        let p = map_continuous(&jobs, 2).unwrap();
        assert_eq!(
            p[1].segments,
            vec![Segment { container: 0, start: u64::MAX - 1, tasks: 1 }, Segment { container: 1, start: l, tasks: 1 }]
        );
        assert_eq!(p[1].completion, u64::MAX);
        let mut state = MapState::new();
        assert_eq!(map_continuous_incremental(&jobs, 2, &mut state).unwrap(), &p[..]);
    }

    /// The work counter pins the mapping's cost to what it places: on a
    /// 4096-queue cluster, repacking one small strict job and one small
    /// lax job touches O(log C) tree nodes and queues, not the fleet.
    #[test]
    fn small_repack_on_a_wide_fleet_visits_o_log_c_entries() {
        const C: u32 = 4096;
        let mut jobs = vec![
            // One task on every queue (occupation 10), then one more on
            // the lower half (occupation 17).
            MapJob { tasks: C as u64, task_len: 10, target: 10, lax: false },
            MapJob { tasks: C as u64 / 2, task_len: 7, target: 12, lax: false },
            MapJob { tasks: 3, task_len: 10, target: 25, lax: false },
            MapJob { tasks: 3, task_len: 5, target: 0, lax: true },
        ];
        let mut state = MapState::new();
        map_continuous_incremental(&jobs, C, &mut state).unwrap();
        let full_work = state.last_stats().work;
        jobs[2].tasks = 2;
        let p = map_continuous_incremental(&jobs, C, &mut state).unwrap().to_vec();
        let stats = state.last_stats();
        assert_eq!((stats.reused_prefix, stats.repacked), (2, 2));
        assert!(stats.work <= 256, "repack visited {} entries (first pass {full_work})", stats.work);
        assert!(full_work > C as u64, "the first pass places on every queue");
        assert_eq!(p, map_continuous(&jobs, C).unwrap());
        assert_eq!(p[2].segments, vec![Segment { container: 0, start: 17, tasks: 1 }, Segment { container: 1, start: 17, tasks: 1 }]);
        // The lax job lands on the least-occupied queues: the upper half.
        assert_eq!(p[3].segments.iter().map(|s| s.container).collect::<Vec<_>>(), vec![2048, 2049, 2050]);
    }

    #[test]
    fn segments_never_overlap_on_a_container() {
        let jobs = [
            MapJob { tasks: 3, task_len: 7, target: 25, lax: false },
            MapJob { tasks: 5, task_len: 3, target: 30, lax: false },
            MapJob { tasks: 2, task_len: 11, target: 60, lax: false },
        ];
        let p = map_continuous(&jobs, 2).unwrap();
        // Collect (container, interval) and check pairwise disjointness.
        let mut intervals: Vec<(u32, u64, u64)> = Vec::new();
        for (i, placement) in p.iter().enumerate() {
            for s in &placement.segments {
                intervals.push((s.container, s.start, s.start + s.tasks * jobs[i].task_len));
            }
        }
        for a in 0..intervals.len() {
            for b in (a + 1)..intervals.len() {
                let (ca, sa, ea) = intervals[a];
                let (cb, sb, eb) = intervals[b];
                if ca == cb {
                    assert!(ea <= sb || eb <= sa, "overlap: {:?} vs {:?}", intervals[a], intervals[b]);
                }
            }
        }
    }
}
