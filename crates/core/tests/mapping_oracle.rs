//! Differential tests for the continuous time-slot mapping against a
//! frozen, one-task-at-a-time transcription of Algorithm 4.
//!
//! `map_continuous` and `map_continuous_incremental` share their packing
//! code (the strict scan over the occupation tree and the closed-form
//! water fill), so checking one against the other cannot catch a bug in
//! that shared code. The oracle below shares nothing with it: strict jobs
//! scan the queues in index order with the ceiling fit, and overflow
//! spills and lax jobs pop the least `(occupation, queue)` key one task at
//! a time. Fleets range from 1 to ~3000 queues, so both the small-fleet
//! path (every queue considered) and the selected-subset path run.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use proptest::prelude::*;
use rush_core::mapping::{map_continuous, map_continuous_incremental, MapJob, MapState, Placement, Segment};

/// Literal Algorithm 4, one task at a time. Occupations saturate at
/// `u64::MAX`, like the library's.
fn oracle(jobs: &[MapJob], capacity: u32) -> Vec<Placement> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| (jobs[i].lax, jobs[i].target, i));
    let mut occ = vec![0u64; capacity as usize];
    let mut out: Vec<Placement> =
        jobs.iter().map(|j| Placement { task_len: j.task_len, completion: 0, segments: Vec::new() }).collect();
    for &i in &order {
        let job = jobs[i];
        let l = job.task_len;
        let p = &mut out[i];
        let mut remaining = job.tasks;
        if !job.lax {
            for (k, o) in occ.iter_mut().enumerate() {
                if remaining == 0 {
                    break;
                }
                if *o < job.target {
                    let gap = u128::from(job.target - *o);
                    let fit = gap.div_ceil(u128::from(l)).min(u128::from(remaining)) as u64;
                    p.segments.push(Segment { container: k as u32, start: *o, tasks: fit });
                    *o = o.saturating_add(fit.saturating_mul(l));
                    p.completion = p.completion.max(*o);
                    remaining -= fit;
                }
            }
        }
        if remaining == 0 {
            continue;
        }
        // Spill or lax packing: the least (occupation, queue) key takes
        // the next task.
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> =
            occ.iter().enumerate().map(|(k, &o)| Reverse((o, k as u32))).collect();
        let mut runs: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for _ in 0..remaining {
            let Reverse((o, k)) = heap.pop().expect("capacity > 0");
            runs.entry(k).or_insert((o, 0)).1 += 1;
            let end = o.saturating_add(l);
            occ[k as usize] = end;
            p.completion = p.completion.max(end);
            heap.push(Reverse((end, k)));
        }
        // One run per container, ascending; a run that starts where this
        // job's own strict segment on that container ends extends it.
        let prior = p.segments.len();
        for (k, (start, n)) in runs {
            let strict = p.segments[..prior].iter_mut().find(|s| {
                s.container == k && s.start.saturating_add(s.tasks.saturating_mul(l)) == start
            });
            match strict {
                Some(s) => s.tasks += n,
                None => p.segments.push(Segment { container: k, start, tasks: n }),
            }
        }
    }
    out
}

/// A fleet size: a quarter of the cases on each side of 85 queues, half
/// spread up to ~3000.
fn capacity_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![1u32..9, 9u32..120, 1u32..3000, 1u32..3000]
}

/// (tasks, task_len, target, lax) drawn so that overflow spills, ties and
/// both `tasks < C` and `tasks > C` occur.
fn job_strategy() -> impl Strategy<Value = MapJob> {
    (
        prop_oneof![0u64..6, 0u64..60, 0u64..4000],
        prop_oneof![1u64..3, 1u64..40],
        prop_oneof![0u64..50, 0u64..2000],
        0u8..4,
    )
        .prop_map(|(tasks, task_len, target, lax)| MapJob { tasks, task_len, target, lax: lax == 0 })
}

/// One mutation of a job list: (which job, what to change, new value).
fn edit_strategy() -> impl Strategy<Value = (usize, u8, u64)> {
    (0usize..1000, 0u8..5, 0u64..3000)
}

fn apply(jobs: &mut [MapJob], (at, what, v): (usize, u8, u64)) {
    let k = at % jobs.len();
    let job = &mut jobs[k];
    match what {
        0 => job.target = v,
        1 => job.tasks = v % 200,
        2 => job.lax = !job.lax,
        3 => job.task_len = 1 + v % 50,
        _ => job.tasks = v,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Both entry points place every task exactly where the
    /// one-task-at-a-time scan does, through a stream of edits.
    #[test]
    fn mapping_matches_one_task_at_a_time_oracle(
        capacity in capacity_strategy(),
        jobs in prop::collection::vec(job_strategy(), 1..40),
        edits in prop::collection::vec(edit_strategy(), 1..8),
    ) {
        let mut jobs = jobs;
        let mut state = MapState::new();
        for step in 0..=edits.len() {
            if step > 0 {
                apply(&mut jobs, edits[step - 1]);
            }
            let want = oracle(&jobs, capacity);
            prop_assert_eq!(&map_continuous(&jobs, capacity).unwrap(), &want, "full, step {}", step);
            let inc = map_continuous_incremental(&jobs, capacity, &mut state).unwrap();
            prop_assert_eq!(inc, &want[..], "incremental, step {}", step);
        }
    }
}

/// Saturating occupations: both entry points agree with the oracle when
/// task lengths put queues at and past `u64::MAX`.
#[test]
fn mapping_matches_oracle_at_the_saturation_point() {
    let l = u64::MAX / 2;
    let cases: Vec<(u32, Vec<MapJob>)> = vec![
        (1, vec![MapJob { tasks: 3, task_len: l, target: u64::MAX - 5, lax: false }]),
        (2, vec![MapJob { tasks: 7, task_len: l, target: 0, lax: false }]),
        (3, vec![MapJob { tasks: 11, task_len: l / 3, target: 5, lax: true }]),
        (
            2,
            vec![
                MapJob { tasks: 3, task_len: l, target: u64::MAX - 5, lax: false },
                MapJob { tasks: 2, task_len: 4, target: u64::MAX, lax: false },
                MapJob { tasks: 9, task_len: 1 << 62, target: 0, lax: true },
            ],
        ),
        (4, vec![MapJob { tasks: 1 << 20, task_len: 1 << 50, target: 1 << 40, lax: false }]),
        (300, vec![MapJob { tasks: 5, task_len: u64::MAX, target: 0, lax: true }; 70]),
    ];
    for (capacity, jobs) in cases {
        let want = oracle(&jobs, capacity);
        assert_eq!(map_continuous(&jobs, capacity).unwrap(), want, "capacity {capacity}");
        let mut state = MapState::new();
        assert_eq!(map_continuous_incremental(&jobs, capacity, &mut state).unwrap(), &want[..]);
    }
}
